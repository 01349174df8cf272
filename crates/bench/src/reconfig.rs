//! Mid-reconfiguration nemesis: crash the cluster *inside* a membership
//! change and check that nothing breaks.
//!
//! The ordinary nemesis stresses a static membership; [`Scenario::reconfig`]
//! stresses the cut-over itself. Client 0 submits one membership change (a
//! join or a leave) at a fixed virtual time and a crash window fells a
//! chosen victim — the leader, the joining node, or the departing node —
//! while the transition is in flight. The [`crate::scenario::Verdict`]
//! additionally requires that the cut-over *finished*: after healing, a
//! majority of the target membership must report exactly the target
//! configuration, never the old one.

use crate::nemesis::NemesisConfig;
use crate::runner::Proto;
use crate::scenario::{Event, Scenario};
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::membership::ConfigChange;
use paxi_core::time::Nanos;
use paxi_sim::SimConfig;

/// Which node the nemesis fells inside the transition window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigVictim {
    /// The initial leader (node 0) — the node driving the transition.
    Leader,
    /// The node being added by the change.
    Joiner,
    /// The node being removed by the change.
    Leaver,
}

impl ReconfigVictim {
    /// Stable label for step lines and digests.
    pub fn label(&self) -> &'static str {
        match self {
            ReconfigVictim::Leader => "leader",
            ReconfigVictim::Joiner => "joiner",
            ReconfigVictim::Leaver => "leaver",
        }
    }
}

impl Scenario {
    /// `proto` through a membership change with a crash inside the
    /// transition window.
    ///
    /// Geometry (fixed so every run is survivable by construction):
    ///
    /// * universe of 6 nodes in one zone; nodes 0–4 are the initial
    ///   members, node 5 starts as a non-member;
    /// * [`ReconfigVictim::Leaver`] runs a leave (remove node 4), the other
    ///   victims run a join (add node 5);
    /// * the change is submitted at `warmup + measure·2/5`, the crash opens
    ///   with it and lasts `measure/5` — inside the joint / pre-activation
    ///   configuration — and everything heals at `horizon·3/4`, leaving the
    ///   tail clean for re-election, catch-up, and client retries.
    ///
    /// Only MultiPaxos and Raft support reconfiguration; running the
    /// scenario with any other protocol panics.
    pub fn reconfig(
        proto: &Proto,
        sim: SimConfig,
        cfg: &NemesisConfig,
        victim: ReconfigVictim,
    ) -> Scenario {
        let initial: Vec<NodeId> = (0..5).map(|i| NodeId::new(0, i)).collect();
        let (joiner, leaver) = (NodeId::new(0, 5), NodeId::new(0, 4));
        let join = ConfigChange {
            add: vec![joiner],
            remove: vec![],
        };
        let (change, node) = match victim {
            ReconfigVictim::Leader => (join, NodeId::new(0, 0)),
            ReconfigVictim::Joiner => (join, joiner),
            ReconfigVictim::Leaver => {
                let leave = ConfigChange {
                    add: vec![],
                    remove: vec![leaver],
                };
                (leave, leaver)
            }
        };
        Scenario::nemesis(proto, sim, ClusterConfig::lan(6), cfg).around(
            Event::Reconfig { initial, change },
            node,
            Nanos::ZERO,
            format!("victim={}", victim.label()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, victim: ReconfigVictim) -> Scenario {
        let sim = SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::millis(3_900),
            ..SimConfig::default()
        };
        let cfg = NemesisConfig {
            seed,
            clients_per_zone: 4,
            ..Default::default()
        };
        Scenario::reconfig(&Proto::paxos(), sim, &cfg, victim)
    }

    #[test]
    fn paxos_join_without_faults_cuts_over() {
        // Victim is the joiner under Freeze — still a real fault, but the
        // quorum never loses a member, so this doubles as the smoke check.
        let v = cell(3, ReconfigVictim::Joiner).run();
        assert!(v.passed(), "{v}");
    }

    #[test]
    fn digest_is_deterministic_and_victim_sensitive() {
        let a = cell(1, ReconfigVictim::Joiner).run();
        let b = cell(1, ReconfigVictim::Joiner).run();
        assert_eq!(a.digest(), b.digest(), "same run, same digest");
        let c = cell(1, ReconfigVictim::Leaver).run();
        assert_ne!(a.digest(), c.digest(), "different victim, different digest");
    }
}
