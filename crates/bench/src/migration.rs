//! Mid-migration nemesis: crash the cluster *inside* a shard hand-off and
//! check that exactly one group owns the range afterwards.
//!
//! The sharded nemesis stresses a static partition; [`Scenario::migration`]
//! stresses the hand-off itself. Client 0 submits one `MigrationStart` at a
//! fixed virtual time, a crash window fells a chosen victim — the source
//! group's leader, the destination group's leader, or a follower of both —
//! aligned with a chosen protocol phase (start, stream, or commit), and the
//! [`crate::scenario::Verdict`] additionally requires that the hand-off
//! *finished* (a majority of nodes report the target routing epoch), that no
//! surviving replica state shows dual ownership ([`dual_ownership`]) or an
//! uninstalled copy of the range, that no acknowledged write was orphaned
//! ([`orphaned_writes`]), and that nothing outside the range leaked.

use crate::nemesis::NemesisConfig;
use crate::runner::Proto;
use crate::scenario::{Event, GroupView, NodeView, Scenario};
use paxi_core::config::ClusterConfig;
use paxi_core::group::GroupId;
use paxi_core::id::NodeId;
use paxi_core::migration::{KeyRange, MigrationSpec};
use paxi_core::time::Nanos;
use paxi_shard::{spread_leader, RangePartitioner};
use paxi_sim::report::OpRecord;
use paxi_sim::SimConfig;

/// Which node the nemesis fells inside the hand-off window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationVictim {
    /// The source group's placed leader — the node driving the hand-off.
    SourceLeader,
    /// The destination group's placed leader — the node that must install.
    DestLeader,
    /// A node leading neither group.
    Follower,
}

impl MigrationVictim {
    /// Stable label for step lines and digests.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationVictim::SourceLeader => "source-leader",
            MigrationVictim::DestLeader => "dest-leader",
            MigrationVictim::Follower => "follower",
        }
    }
}

/// Which protocol phase the crash window is aligned with. The window is far
/// wider than one phase (it must be survivable yet disruptive), so the
/// stage picks its *onset*: at the kick-off, during the state stream, or
/// around the commit halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStage {
    /// Crash lands as `MigrationStart` is submitted.
    Start,
    /// Crash lands while the frozen range state is streaming.
    Stream,
    /// Crash lands around the `MigrationCommit` halves.
    Commit,
}

impl MigrationStage {
    /// Stable label for step lines and digests.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationStage::Start => "start",
            MigrationStage::Stream => "stream",
            MigrationStage::Commit => "commit",
        }
    }

    /// Offset of the crash window's onset from the kick-off, tuned to the
    /// shard driver's 25 ms control-timer cadence: the install is proposed
    /// on the first tick after `Start` commits and the commit halves one
    /// tick later.
    fn offset(&self) -> Nanos {
        match self {
            MigrationStage::Start => Nanos::ZERO,
            MigrationStage::Stream => Nanos::millis(25),
            MigrationStage::Commit => Nanos::millis(50),
        }
    }
}

/// Dual-ownership violations relative to `spec`, one line each. Only state
/// transitions a replica has *provably executed* are asserted on — a
/// follower still catching up at the horizon is lag, not a violation:
///
/// * a source replica whose tracker reports the commit executed must hold
///   no range key (the drop is part of the same log entry);
/// * a destination replica must not hold range keys without its tracker
///   reporting the install (state cannot appear out of thin air).
pub fn dual_ownership(nodes: &[NodeView<'_>], spec: &MigrationSpec) -> Vec<String> {
    let mut violations = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        let (src, dst) = (
            &node.groups[spec.from.0 as usize],
            &node.groups[spec.to.0 as usize],
        );
        let range_keys = |g: &GroupView<'_>| -> Vec<u64> {
            let keys = g.store.into_iter().flat_map(|s| s.keys());
            keys.filter(|&k| spec.range.contains(k)).collect()
        };
        if src.migration.is_some_and(|t| t.done(spec.id)) {
            for key in range_keys(src) {
                violations.push(format!(
                    "node {ni}: source group {} still stores key {key} after its commit",
                    spec.from
                ));
            }
        }
        if !dst.migration.is_some_and(|t| t.installed(spec.id)) {
            for key in range_keys(dst) {
                violations.push(format!(
                    "node {ni}: dest group {} stores key {key} without an install",
                    spec.to
                ));
            }
        }
    }
    violations
}

/// Acknowledged writes to `spec`'s range that survive in no replica of
/// either group, one line per key: frozen state streams, so an acked write
/// is either below `Start` and inside the stream, or executed at the
/// destination.
pub fn orphaned_writes(
    nodes: &[NodeView<'_>],
    spec: &MigrationSpec,
    ops: &[OpRecord],
) -> Vec<String> {
    let holds = |key: u64| {
        nodes.iter().any(|n| {
            [spec.from, spec.to].iter().any(|g| {
                let store = n.groups[g.0 as usize].store;
                store.is_some_and(|s| s.keys().any(|k| k == key))
            })
        })
    };
    (spec.range.lo..spec.range.hi)
        .filter(|&key| {
            ops.iter()
                .any(|o| o.ok && o.write.is_some() && o.key == key)
        })
        .filter(|&key| !holds(key))
        .map(|key| format!("key {key}: acknowledged write survives in no replica of either group"))
        .collect()
}

impl Scenario {
    /// `proto` sharded over two groups through one range hand-off with a
    /// crash inside the migration window.
    ///
    /// Geometry (fixed so every run is survivable by construction):
    ///
    /// * 5 nodes in one zone, 2 range-partitioned groups; spread placement
    ///   puts group 0's leader on node 0 and group 1's on node 1, so node 3
    ///   is a follower of both;
    /// * the upper half of group 0's slice (keys `[2, 4)` under the default
    ///   `keys = 8`) migrates to group 1 at epoch 1;
    /// * the kick-off is submitted at `warmup + measure·2/5`, the crash
    ///   window opens at the stage's offset from it and lasts `measure/5`,
    ///   and everything heals at `horizon·3/4`, leaving the tail clean for
    ///   re-election, catch-up, re-proposal, and client retries.
    ///
    /// Only MultiPaxos and Raft carry migration records through their WALs;
    /// running the scenario with any other protocol panics.
    pub fn migration(
        proto: &Proto,
        sim: SimConfig,
        cfg: &NemesisConfig,
        victim: MigrationVictim,
        stage: MigrationStage,
    ) -> Scenario {
        assert!(
            cfg.keys >= 4,
            "need at least 4 keys to halve group 0's slice"
        );
        let groups = 2u32;
        let (lo0, hi0) = RangePartitioner::even(cfg.keys, groups).range(GroupId(0));
        let spec = MigrationSpec {
            id: 1,
            from: GroupId(0),
            to: GroupId(1),
            range: KeyRange::new(lo0 + (hi0 - lo0) / 2, hi0),
            epoch: 1,
        };
        let cluster = ClusterConfig::lan(5);
        let node = match victim {
            MigrationVictim::SourceLeader => spread_leader(&cluster, spec.from),
            MigrationVictim::DestLeader => spread_leader(&cluster, spec.to),
            MigrationVictim::Follower => NodeId::new(0, 3),
        };
        let base = Scenario {
            groups: Some(groups),
            ..Scenario::nemesis(proto, sim, cluster, cfg)
        };
        base.around(
            Event::Migrate(spec),
            node,
            stage.offset(),
            format!("victim={} stage={}", victim.label(), stage.label()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, victim: MigrationVictim, stage: MigrationStage) -> Scenario {
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
        Scenario::migration(&Proto::paxos(), sim, &cfg, victim, stage)
    }

    #[test]
    fn paxos_hands_off_through_a_frozen_follower() {
        // The victim leads neither group under Freeze — still a real fault,
        // but both quorums stay intact, so this doubles as the smoke check.
        let v = cell(3, MigrationVictim::Follower, MigrationStage::Start).run();
        assert!(v.passed(), "{v}");
    }

    #[test]
    fn digest_is_deterministic_and_stage_sensitive() {
        let a = cell(1, MigrationVictim::Follower, MigrationStage::Stream).run();
        let b = cell(1, MigrationVictim::Follower, MigrationStage::Stream).run();
        assert_eq!(a.digest(), b.digest(), "same run, same digest");
        let c = cell(1, MigrationVictim::Follower, MigrationStage::Commit).run();
        assert_ne!(a.digest(), c.digest(), "different stage, different digest");
    }
}
