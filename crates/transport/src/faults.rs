//! Transport-level fault injection.
//!
//! The live counterpart of the simulator's fault handling: a
//! [`FaultInjector`] carries the same [`paxi_core::faults::FaultPlan`] the
//! simulator consumes, evaluated against wall-clock time since cluster
//! launch. Every transport (channel, TCP, UDP) offers a `launch_chaotic`
//! constructor that threads an injector through its outbound path and node
//! event loops, realizing Paxi's Crash / Drop / Slow / Flaky primitives
//! *inside the networking module* — no OS-level tooling required:
//!
//! * **Link faults** (Drop / Flaky / Slow) are applied by [`ChaosOut`],
//!   which intercepts every node→node envelope at the sender: dropped
//!   envelopes vanish, slowed ones are re-sent by the cluster's
//!   [`TimerService`] after the injected delay.
//! * **Crashes** are applied where the receiving node takes its events
//!   ([`crate::runtime::Node::handle`]): while a node's crash window is active,
//!   every event addressed to it — messages, client requests, timers — is
//!   silently discarded, exactly like the simulator freezing a node. When
//!   the window ends the runtime delivers
//!   [`paxi_core::traits::Replica::on_restart`] so the node rejoins.
//!
//! Determinism: fate decisions flow from one seeded [`Rng64`], so a fixed
//! sequence of `(src, dst, t)` queries yields the same fates as the
//! simulator consulting the same plan with the same seed (see
//! [`FaultInjector::decide_link_at`], which the parity tests exercise).

use crate::envelope::Envelope;
use crate::obs::DropCounters;
use crate::runtime::{InboxTx, NodeEvent, Outbound};
use crate::timer::TimerService;
use parking_lot::Mutex;
use paxi_core::command::ClientResponse;
use paxi_core::dist::Rng64;
use paxi_core::faults::{CrashMode, FaultPlan, MsgFate};
use paxi_core::id::{ClientId, NodeId};
use paxi_core::time::Nanos;
use std::collections::HashMap;
use std::sync::Arc;
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
    rng: Mutex<Rng64>,
    epoch: Mutex<Option<Instant>>,
    drops: DropCounters,
}

impl FaultInjector {
    /// Wraps a plan with a seeded randomness stream for Flaky/Slow rules.
    pub fn new(plan: FaultPlan, seed: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            rng: Mutex::new(Rng64::seed(seed)),
            epoch: Mutex::new(None),
            drops: DropCounters::new(),
        })
    }

    /// Losses charged to this injector so far: `fault` for link drops
    /// decided by [`ChaosOut`], `crashed` for events discarded at frozen
    /// nodes' event loops. Shared with every cluster that holds this
    /// injector, so chaos digests can reconcile issued vs. completed
    /// requests against a full loss ledger.
    pub fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// Pins the injector's time origin. Cluster constructors call this with
    /// their launch instant; calling it again is a no-op (first pin wins) so
    /// one injector cannot accidentally time-shift mid-run.
    pub fn start(&self, epoch: Instant) {
        let mut e = self.epoch.lock();
        if e.is_none() {
            *e = Some(epoch);
        }
    }

    /// Time elapsed since launch, as plan-relative [`Nanos`]. Zero before
    /// [`FaultInjector::start`] is called.
    pub fn now(&self) -> Nanos {
        match *self.epoch.lock() {
            Some(epoch) => Nanos(epoch.elapsed().as_nanos() as u64),
            None => Nanos::ZERO,
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `node` is inside a crash window right now.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.plan.is_crashed(node, self.now())
    }

    /// The [`CrashMode`] of the window covering `node` right now, if any.
    /// Node event loops record this while frozen so the thaw path knows
    /// whether to restart in place or rebuild from durable storage.
    pub fn crash_mode(&self, node: NodeId) -> Option<CrashMode> {
        self.plan.crash_mode_at(node, self.now())
    }

    /// Decides the fate of one `src → dst` envelope at explicit plan time
    /// `t`. Deterministic given the construction seed and the query
    /// sequence — this is the entry point the sim/transport parity tests
    /// drive.
    pub fn decide_link_at(&self, src: NodeId, dst: NodeId, t: Nanos) -> LinkDecision {
        LinkDecision::from_fate(self.plan.message_fate(src, dst, t, &mut self.rng.lock()))
    }

    /// Decides the fate of one `src → dst` envelope right now.
    pub fn decide_link(&self, src: NodeId, dst: NodeId) -> LinkDecision {
        self.decide_link_at(src, dst, self.now())
    }

    /// Schedules a wake-up event at every crash-recovery instant so frozen
    /// nodes thaw even if no peer ever contacts them (e.g. a crashed
    /// leader). Cluster constructors call this once at launch.
    pub fn schedule_recoveries<M: Send + 'static>(
        self: &Arc<Self>,
        timers: &TimerService,
        inboxes: &HashMap<NodeId, InboxTx<M>>,
    ) {
        for (node, at, _mode) in self.plan.recoveries() {
            // The wake event is mode-agnostic: the node's event loop already
            // recorded the window's mode and picks the right thaw path.
            let Some(tx) = inboxes.get(&node).cloned() else {
                continue;
            };
            timers.schedule(Duration::from_nanos(at.0), move || {
                tx.send(NodeEvent::Restart);
            });
        }
    }
}

/// An [`Outbound`] decorator applying link faults to node→node envelopes at
/// the sender. Client-bound responses pass through untouched (clients are
/// not part of the fault plan's address space); crash semantics are enforced
/// at the receiving node's event loop instead.
pub struct ChaosOut<M, O: Outbound<M> + Clone> {
    inner: O,
    src: NodeId,
    injector: Arc<FaultInjector>,
    timers: Arc<TimerService>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M, O: Outbound<M> + Clone> ChaosOut<M, O> {
    /// Wraps `inner` for envelopes originating at `src`.
    pub fn new(
        inner: O,
        src: NodeId,
        injector: Arc<FaultInjector>,
        timers: Arc<TimerService>,
    ) -> Self {
        ChaosOut {
            inner,
            src,
            injector,
            timers,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, O: Outbound<M> + Clone> Clone for ChaosOut<M, O> {
    fn clone(&self) -> Self {
        ChaosOut {
            inner: self.inner.clone(),
            src: self.src,
            injector: Arc::clone(&self.injector),
            timers: Arc::clone(&self.timers),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: Clone + std::fmt::Debug + Send + 'static, O: Outbound<M> + Clone> Outbound<M>
    for ChaosOut<M, O>
{
    fn to_node(&self, to: NodeId, env: Envelope<M>) {
        match self.injector.decide_link(self.src, to) {
            LinkDecision::Deliver => self.inner.to_node(to, env),
            LinkDecision::Drop => {
                self.injector
                    .drops()
                    .record(paxi_core::obs::DropCause::Fault);
            }
            LinkDecision::DeliverAfter(delay) => {
                let inner = self.inner.clone();
                self.timers.schedule(delay, move || inner.to_node(to, env));
            }
        }
    }

    // `to_nodes` stays the default, one `to_node` per peer: the plan decides
    // each destination's fate on its own.

    fn to_client(&self, client: ClientId, resp: ClientResponse) {
        self.inner.to_client(client, resp);
    }

    // Link-management hooks pass straight through: fault rules govern
    // message fates, not the existence of connections (a dropped link still
    // has a live socket under it, exactly like iptables-style chaos).
    fn connect_peer(&self, peer: NodeId) {
        self.inner.connect_peer(peer);
    }
    fn disconnect_peer(&self, peer: NodeId) {
        self.inner.disconnect_peer(peer);
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

    #[derive(Clone)]
    struct NullOut;
    impl Outbound<()> for NullOut {
        fn to_node(&self, _to: NodeId, _env: Envelope<()>) {}
        fn to_client(&self, _client: ClientId, _resp: ClientResponse) {}
    }

    #[test]
    fn link_drops_are_charged_to_the_fault_cause() {
        let mut plan = FaultPlan::new();
        plan.drop_link(n(0), n(1), Nanos::ZERO, Nanos::secs(3600));
        let inj = FaultInjector::new(plan, 9);
        inj.start(Instant::now());
        let timers = Arc::new(TimerService::new());
        let out: ChaosOut<(), NullOut> = ChaosOut::new(NullOut, n(0), Arc::clone(&inj), timers);
        for _ in 0..4 {
            out.to_node(n(1), Envelope::Shutdown);
        }
        assert_eq!(inj.drops().get(paxi_core::obs::DropCause::Fault), 4);
        assert_eq!(inj.drops().total(), 4);
        // Healthy links charge nothing.
        out.to_node(n(2), Envelope::Shutdown);
        assert_eq!(inj.drops().total(), 4);
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
