//! Transport-level fault injection.
//!
//! The live counterpart of the simulator's fault handling: a
//! [`FaultInjector`] carries the same [`paxi_core::faults::FaultPlan`] the
//! simulator consumes, evaluated against wall-clock time since cluster
//! launch. Every transport (channel, TCP, UDP) offers a `launch_chaotic`
//! constructor that hands the injector to each node
//! ([`crate::runtime::Node`]), realizing Paxi's Crash / Drop / Slow / Flaky
//! primitives *inside the networking module* — no OS-level tooling and no
//! thread of its own:
//!
//! * **Link faults** (Drop / Flaky / Slow) are decided at the sender, in
//!   the node's context, once per node→node envelope and destination:
//!   dropped envelopes vanish (charged to `fault`), slowed ones wait in the
//!   node's delay queue and leave from its own loop, and so does whatever
//!   the node sends to the same peer after them: a link keeps its order.
//! * **Crashes** are applied where the node takes its events
//!   ([`crate::runtime::Node::handle`]), by the simulator's own
//!   [`paxi_core::faults::CrashGate`] asked in [`FaultInjector::now`]: while
//!   a node's crash window is active, every event addressed to it —
//!   messages, client requests, timers — is silently discarded, and the
//!   first call after the window, the node's storage tick if nothing else,
//!   thaws it ([`paxi_core::faults::CrashMode::thaw`]) so it rejoins.
//!
//! Determinism: fate decisions flow from one seeded [`Rng64`], so a fixed
//! sequence of `(src, dst, t)` queries yields the same fates as the
//! simulator consulting the same plan with the same seed (see
//! [`FaultInjector::decide_link_at`], which the parity tests exercise).

use crate::obs::DropCounters;
use paxi_core::dist::Rng64;
use paxi_core::faults::{FaultPlan, MsgFate};
use paxi_core::id::NodeId;
use paxi_core::time::Nanos;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What the injector decided about one outbound envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Pass through unchanged.
    Deliver,
    /// Deliver after the injected extra delay (a `Slow` rule).
    DeliverAfter(Duration),
    /// Discard the envelope.
    Drop,
}

impl LinkDecision {
    fn from_fate(fate: MsgFate) -> Self {
        match fate {
            MsgFate::Dropped => LinkDecision::Drop,
            MsgFate::Deliver { extra_delay } if extra_delay == Nanos::ZERO => LinkDecision::Deliver,
            MsgFate::Deliver { extra_delay } => {
                LinkDecision::DeliverAfter(Duration::from_nanos(extra_delay.0))
            }
        }
    }
}

/// Wall-clock realization of a [`FaultPlan`]: shared by all nodes of one
/// cluster, evaluated against the time elapsed since [`FaultInjector::start`]
/// (called once by the cluster constructor at launch).
pub struct FaultInjector {
    plan: FaultPlan,
    /// Any state of an `Rng64` is a valid one, so a poisoned lock is taken
    /// as it stands.
    rng: Mutex<Rng64>,
    epoch: OnceLock<Instant>,
    drops: DropCounters,
}

impl FaultInjector {
    /// Wraps a plan with a seeded randomness stream for Flaky/Slow rules.
    pub fn new(plan: FaultPlan, seed: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            rng: Mutex::new(Rng64::seed(seed)),
            epoch: OnceLock::new(),
            drops: DropCounters::new(),
        })
    }

    /// Losses charged to this injector so far: `fault` for link drops
    /// decided at senders, `crashed` for events discarded at frozen
    /// nodes' event loops. Shared with every cluster that holds this
    /// injector, so chaos digests can reconcile issued vs. completed
    /// requests against a full loss ledger.
    pub fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// Pins the injector's time origin. Cluster constructors call this with
    /// their launch instant, before any node runs; calling it again is a
    /// no-op (first pin wins) so one injector cannot accidentally time-shift
    /// mid-run.
    pub fn start(&self, epoch: Instant) {
        let _ = self.epoch.set(epoch);
    }

    /// Time elapsed since launch, as plan-relative [`Nanos`]. Zero before
    /// [`FaultInjector::start`] is called.
    pub fn now(&self) -> Nanos {
        self.epoch.get().map_or(
            Nanos::ZERO,
            |epoch| Nanos(epoch.elapsed().as_nanos() as u64),
        )
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `node` is inside a crash window right now.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.plan.is_crashed(node, self.now())
    }

    /// Decides the fate of one `src → dst` envelope at explicit plan time
    /// `t`. Deterministic given the construction seed and the query
    /// sequence — this is the entry point the sim/transport parity tests
    /// drive.
    pub fn decide_link_at(&self, src: NodeId, dst: NodeId, t: Nanos) -> LinkDecision {
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        LinkDecision::from_fate(self.plan.message_fate(src, dst, t, &mut rng))
    }

    /// Decides the fate of one `src → dst` envelope right now.
    pub fn decide_link(&self, src: NodeId, dst: NodeId) -> LinkDecision {
        self.decide_link_at(src, dst, self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::time::Nanos;

    fn n(i: u8) -> NodeId {
        NodeId::new(0, i)
    }

    #[test]
    fn decisions_match_plan_fates_for_same_seed() {
        let mut plan = FaultPlan::new();
        plan.drop_link(n(0), n(1), Nanos::ZERO, Nanos::secs(5));
        plan.flaky_link(n(1), n(2), 0.5, Nanos::ZERO, Nanos::secs(5));
        plan.slow_link(n(2), n(0), Nanos::millis(3), Nanos::ZERO, Nanos::secs(5));

        let inj = FaultInjector::new(plan.clone(), 77);
        let mut rng = Rng64::seed(77);
        for i in 0..500u64 {
            let (src, dst) = match i % 3 {
                0 => (n(0), n(1)),
                1 => (n(1), n(2)),
                _ => (n(2), n(0)),
            };
            let t = Nanos::millis(i % 5_000);
            let expect = LinkDecision::from_fate(plan.message_fate(src, dst, t, &mut rng));
            assert_eq!(inj.decide_link_at(src, dst, t), expect, "query {i}");
        }
    }

    #[test]
    fn epoch_pins_once() {
        let inj = FaultInjector::new(FaultPlan::new(), 1);
        assert_eq!(inj.now(), Nanos::ZERO);
        let early = Instant::now() - Duration::from_secs(10);
        inj.start(early);
        let t1 = inj.now();
        assert!(t1 >= Nanos::secs(10));
        inj.start(Instant::now());
        assert!(inj.now() >= t1, "second start must not rewind the clock");
    }

    #[test]
    fn crash_follows_wall_clock_window() {
        let mut plan = FaultPlan::new();
        plan.crash(n(0), Nanos::ZERO, Nanos::secs(3600));
        let inj = FaultInjector::new(plan, 1);
        inj.start(Instant::now());
        assert!(inj.is_crashed(n(0)));
        assert!(!inj.is_crashed(n(1)));
    }
}
