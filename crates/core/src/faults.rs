//! Fault injection primitives shared by the simulator and the live
//! transports.
//!
//! Paxi exposes four fault-injection commands realized inside the networking
//! module — `Crash(t)`, `Drop(i, j, t)`, `Slow(i, j, t)`, and `Flaky(i, j,
//! t)` — so availability experiments don't need OS-level tooling like Jepsen
//! or Chaos Monkey. One [`FaultPlan`] describes a schedule of such faults;
//! the discrete-event simulator (`paxi-sim`) queries it under virtual time
//! and the wall-clock transports (`paxi-transport`) query it under real
//! time, so the exact same plan drives both worlds.
//!
//! Semantics:
//! * **Crash** takes a node down for an interval. One [`CrashGate`] per
//!   node, asked before every call on both substrates, decides what that
//!   means: a call inside one of the node's windows (a message, a request,
//!   a timer, a storage tick, the start itself) is discarded; the first call
//!   after a window thaws the node before it runs, as [`CrashMode::thaw`]
//!   says. [`CrashMode::Freeze`] keeps in-memory state and runs
//!   [`crate::traits::Replica::on_restart`] so the node re-arms timers and
//!   rejoins; [`CrashMode::Amnesia`] discards *all* volatile state — the
//!   substrate rebuilds the replica, which recovers from durable storage
//!   (`paxi-storage`), and runs [`crate::traits::Replica::on_recover`].
//! * **Drop** discards every message from `i` to `j` during the interval.
//! * **Slow** adds a random extra delay (uniform in `[0, max_delay)`) to
//!   messages from `i` to `j`; like a TCP connection, the link stays in
//!   order, so later messages wait behind a slowed one ([`LinkOrder`]).
//! * **Flaky** drops each message from `i` to `j` independently with
//!   probability `p` (clamped into `[0, 1]`).

use crate::dist::Rng64;
use crate::hash::FxHashMap;
use crate::id::NodeId;
use crate::time::Nanos;
use crate::traits::{Context, Replica};

/// A half-open time interval `[from, until)` during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    from: Nanos,
    until: Nanos,
}

impl FaultWindow {
    /// A window starting at `at` and lasting `duration` (saturating).
    pub fn new(at: Nanos, duration: Nanos) -> Self {
        FaultWindow {
            from: at,
            until: Nanos(at.0.saturating_add(duration.0)),
        }
    }

    /// An open-ended window: active from `at` until the end of the run (or
    /// until a later [`FaultPlan::heal`] truncates it).
    pub fn until_end(at: Nanos) -> Self {
        FaultWindow {
            from: at,
            until: Nanos(u64::MAX),
        }
    }

    /// A window aimed at a reconfiguration's cut-over: it opens the instant
    /// the config change is submitted (`reconfig_at`) and spans the
    /// `transition` interval during which the cluster is in its joint /
    /// pre-activation configuration. Nemesis suites use this to land
    /// crashes precisely inside the membership transition — the regime
    /// where "The Performance of Paxos in the Cloud" observes cloud
    /// deployments losing availability.
    pub fn during_reconfig(reconfig_at: Nanos, transition: Nanos) -> Self {
        FaultWindow::new(reconfig_at, transition)
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Nanos) -> bool {
        t >= self.from && t < self.until
    }

    /// Start of the window.
    pub fn start(&self) -> Nanos {
        self.from
    }

    /// Exclusive end of the window (`u64::MAX` when open-ended).
    pub fn end(&self) -> Nanos {
        self.until
    }

    /// Whether the window runs to the end of time.
    pub fn is_open_ended(&self) -> bool {
        self.until.0 == u64::MAX
    }

    fn truncate(&mut self, at: Nanos) {
        if self.contains(at) {
            self.until = at;
        }
    }
}

/// What a crashed node loses while it is down. Amnesia outranks freeze
/// (the order the variants are declared in): a thaw after both loses memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CrashMode {
    /// The process stalls but keeps its memory: recovery resumes from the
    /// retained in-memory state (PR 1's original crash semantics).
    #[default]
    Freeze,
    /// The machine dies: every byte of volatile state is lost. Recovery
    /// rebuilds the replica from its factory and replays durable storage —
    /// anything not persisted before the crash is gone.
    Amnesia,
}

impl CrashMode {
    /// Short label for schedules and logs.
    pub fn label(&self) -> &'static str {
        match self {
            CrashMode::Freeze => "freeze",
            CrashMode::Amnesia => "amnesia",
        }
    }

    /// Brings `replica` back after a window of this mode, in `ctx`: a
    /// freeze runs [`Replica::on_restart`] on the retained replica; amnesia
    /// replaces it with `remake()` (which replays durable storage) and runs
    /// [`Replica::on_recover`] on that.
    pub fn thaw<R: Replica>(
        self,
        replica: &mut R,
        remake: impl FnOnce() -> R,
        ctx: &mut dyn Context<R::Msg>,
    ) {
        match self {
            CrashMode::Freeze => replica.on_restart(ctx),
            CrashMode::Amnesia => {
                *replica = remake();
                replica.on_recover(ctx);
            }
        }
    }
}

/// What a [`CrashGate`] lets one call do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The node is inside one of its crash windows: drop the call.
    Discard,
    /// Run the call.
    Run,
    /// Thaw the node ([`CrashMode::thaw`]), then run the call.
    Thaw(CrashMode),
}

/// One node's crash lifecycle, the rule both substrates follow: the
/// simulator asks it in virtual time, a live node in plan time since launch.
/// The thaw is read from the plan when it is due, not recorded while the
/// node is down, so a window no call landed in still thaws the node.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashGate {
    /// Plan time of the last admitted call.
    last: Nanos,
}

impl CrashGate {
    /// Whether `node` runs a call at `now` under `plan`: discarded inside
    /// one of its windows; otherwise run, after a thaw if any of its windows
    /// ended since the last admitted call — amnesia if any of those was.
    pub fn admit(&mut self, plan: &FaultPlan, node: NodeId, now: Nanos) -> Admit {
        let mut thaw = None;
        for (_, window, mode) in plan.crashes.iter().filter(|(n, ..)| *n == node) {
            if window.contains(now) {
                return Admit::Discard;
            }
            if self.last < window.end() && window.end() <= now {
                thaw = thaw.max(Some(*mode));
            }
        }
        self.last = now;
        thaw.map_or(Admit::Run, Admit::Thaw)
    }
}

#[derive(Debug, Clone)]
struct LinkRule {
    src: NodeId,
    dst: NodeId,
    window: FaultWindow,
    kind: LinkFault,
}

#[derive(Debug, Clone)]
enum LinkFault {
    Drop,
    Flaky { p: f64 },
    Slow { max_delay: Nanos },
}

/// What the fault plan decided about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Deliver, possibly with extra delay.
    Deliver {
        /// Extra delay injected by a `Slow` rule.
        extra_delay: Nanos,
    },
    /// Discard the message.
    Dropped,
}

/// Per node→node link, the arrival of the last message sent on it: a link
/// delivers in send order, as Paxi's TCP connections do. The simulator asks
/// it in virtual time, a live node in wall-clock time.
#[derive(Debug, Clone)]
pub struct LinkOrder<T>(FxHashMap<(NodeId, NodeId), T>);

impl<T> Default for LinkOrder<T> {
    fn default() -> Self {
        LinkOrder(FxHashMap::default())
    }
}

impl<T: Ord + Copy> LinkOrder<T> {
    /// When a message sent `from → to` that would arrive at `at` on its own
    /// arrives: no earlier than the one sent on the link before it.
    pub fn arrival(&mut self, from: NodeId, to: NodeId, at: T) -> T {
        let last = self.0.entry((from, to)).or_insert(at);
        *last = (*last).max(at);
        *last
    }
}

/// A schedule of injected faults, queried at message-delivery time by the
/// simulator and by every live node launched with it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<(NodeId, FaultWindow, CrashMode)>,
    links: Vec<LinkRule>,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes `node` from `at` for `duration` ([`CrashMode::Freeze`]).
    pub fn crash(&mut self, node: NodeId, at: Nanos, duration: Nanos) -> &mut Self {
        self.crash_in(node, FaultWindow::new(at, duration))
    }

    /// Freezes `node` for an explicit window (use
    /// [`FaultWindow::until_end`] for an open-ended crash).
    pub fn crash_in(&mut self, node: NodeId, window: FaultWindow) -> &mut Self {
        self.crash_mode_in(node, window, CrashMode::Freeze)
    }

    /// Amnesia-crashes `node` from `at` for `duration`: at recovery the
    /// replica is rebuilt from scratch and must replay durable storage.
    pub fn crash_amnesia(&mut self, node: NodeId, at: Nanos, duration: Nanos) -> &mut Self {
        self.crash_mode_in(node, FaultWindow::new(at, duration), CrashMode::Amnesia)
    }

    /// Crashes `node` for an explicit window with an explicit mode.
    pub fn crash_mode_in(
        &mut self,
        node: NodeId,
        window: FaultWindow,
        mode: CrashMode,
    ) -> &mut Self {
        self.crashes.push((node, window, mode));
        self
    }

    /// Drops all messages `src → dst` in the window.
    pub fn drop_link(&mut self, src: NodeId, dst: NodeId, at: Nanos, duration: Nanos) -> &mut Self {
        self.drop_link_in(src, dst, FaultWindow::new(at, duration))
    }

    /// Drops all messages `src → dst` for an explicit window.
    pub fn drop_link_in(&mut self, src: NodeId, dst: NodeId, window: FaultWindow) -> &mut Self {
        self.links.push(LinkRule {
            src,
            dst,
            window,
            kind: LinkFault::Drop,
        });
        self
    }

    /// Drops each message `src → dst` with probability `p` in the window.
    /// `p` is clamped into `[0, 1]` (NaN becomes 0).
    pub fn flaky_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        p: f64,
        at: Nanos,
        duration: Nanos,
    ) -> &mut Self {
        self.flaky_link_in(src, dst, p, FaultWindow::new(at, duration))
    }

    /// Drops each message `src → dst` with probability `p` (clamped into
    /// `[0, 1]`) for an explicit window.
    pub fn flaky_link_in(
        &mut self,
        src: NodeId,
        dst: NodeId,
        p: f64,
        window: FaultWindow,
    ) -> &mut Self {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self.links.push(LinkRule {
            src,
            dst,
            window,
            kind: LinkFault::Flaky { p },
        });
        self
    }

    /// Adds up to `max_delay` of random extra latency on `src → dst`.
    pub fn slow_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        max_delay: Nanos,
        at: Nanos,
        duration: Nanos,
    ) -> &mut Self {
        self.slow_link_in(src, dst, max_delay, FaultWindow::new(at, duration))
    }

    /// Adds up to `max_delay` of random extra latency on `src → dst` for an
    /// explicit window.
    pub fn slow_link_in(
        &mut self,
        src: NodeId,
        dst: NodeId,
        max_delay: Nanos,
        window: FaultWindow,
    ) -> &mut Self {
        self.links.push(LinkRule {
            src,
            dst,
            window,
            kind: LinkFault::Slow { max_delay },
        });
        self
    }

    /// Symmetric partition: drops all traffic between every node of `a` and
    /// every node of `b`, both directions, in the window.
    pub fn partition(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
        at: Nanos,
        duration: Nanos,
    ) -> &mut Self {
        self.partition_in(a, b, FaultWindow::new(at, duration))
    }

    /// Symmetric partition for an explicit window.
    pub fn partition_in(&mut self, a: &[NodeId], b: &[NodeId], window: FaultWindow) -> &mut Self {
        for &x in a {
            for &y in b {
                self.drop_link_in(x, y, window);
                self.drop_link_in(y, x, window);
            }
        }
        self
    }

    /// Ends every window still active at `at` — crashed nodes recover and
    /// all link faults lift. Windows that already ended, or that only start
    /// after `at`, are untouched.
    pub fn heal(&mut self, at: Nanos) -> &mut Self {
        for (_, w, _) in self.crashes.iter_mut() {
            w.truncate(at);
        }
        for rule in self.links.iter_mut() {
            rule.window.truncate(at);
        }
        self
    }

    /// Whether `node` is down at time `t`.
    pub fn is_crashed(&self, node: NodeId, t: Nanos) -> bool {
        self.crashes
            .iter()
            .any(|(n, w, _)| *n == node && w.contains(t))
    }

    /// Every `(node, recovery_time)` pair at which a crashed node comes
    /// back. Open-ended crashes never recover and are not reported. The
    /// simulator ticks each node here, as a live node's loop ticks it every
    /// millisecond, so a node nobody talks to still thaws ([`CrashGate`]).
    pub fn recoveries(&self) -> impl Iterator<Item = (NodeId, Nanos)> + '_ {
        self.crashes
            .iter()
            .filter(|(_, w, _)| !w.is_open_ended())
            .map(|(n, w, _)| (*n, w.end()))
    }

    /// Decides the fate of a message sent `src → dst` at time `t`.
    pub fn message_fate(&self, src: NodeId, dst: NodeId, t: Nanos, rng: &mut Rng64) -> MsgFate {
        let mut extra = Nanos::ZERO;
        for rule in &self.links {
            if rule.src != src || rule.dst != dst || !rule.window.contains(t) {
                continue;
            }
            match rule.kind {
                LinkFault::Drop => return MsgFate::Dropped,
                LinkFault::Flaky { p } => {
                    if rng.chance(p) {
                        return MsgFate::Dropped;
                    }
                }
                LinkFault::Slow { max_delay } => {
                    extra += Nanos(rng.below(max_delay.0.max(1)));
                }
            }
        }
        MsgFate::Deliver { extra_delay: extra }
    }

    /// Whether the plan contains any fault at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(z: u8, i: u8) -> NodeId {
        NodeId::new(z, i)
    }

    #[test]
    fn crash_window_is_half_open() {
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(2));
        assert!(!p.is_crashed(n(0, 0), Nanos::millis(999)));
        assert!(p.is_crashed(n(0, 0), Nanos::secs(1)));
        assert!(p.is_crashed(n(0, 0), Nanos::millis(2_999)));
        assert!(!p.is_crashed(n(0, 0), Nanos::secs(3)));
        assert!(
            !p.is_crashed(n(0, 1), Nanos::secs(2)),
            "other nodes unaffected"
        );
    }

    #[test]
    fn drop_is_directional() {
        let mut p = FaultPlan::new();
        p.drop_link(n(0, 0), n(0, 1), Nanos::ZERO, Nanos::secs(10));
        let mut rng = Rng64::seed(1);
        assert_eq!(
            p.message_fate(n(0, 0), n(0, 1), Nanos::secs(1), &mut rng),
            MsgFate::Dropped
        );
        assert_eq!(
            p.message_fate(n(0, 1), n(0, 0), Nanos::secs(1), &mut rng),
            MsgFate::Deliver {
                extra_delay: Nanos::ZERO
            }
        );
    }

    #[test]
    fn flaky_drops_roughly_p_fraction() {
        let mut p = FaultPlan::new();
        p.flaky_link(n(0, 0), n(0, 1), 0.3, Nanos::ZERO, Nanos::secs(100));
        let mut rng = Rng64::seed(9);
        let mut dropped = 0;
        let trials = 20_000;
        for _ in 0..trials {
            if p.message_fate(n(0, 0), n(0, 1), Nanos::secs(1), &mut rng) == MsgFate::Dropped {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {}", frac);
    }

    #[test]
    fn flaky_probability_is_clamped() {
        let mut p = FaultPlan::new();
        p.flaky_link(n(0, 0), n(0, 1), 7.5, Nanos::ZERO, Nanos::secs(10));
        p.flaky_link(n(0, 1), n(0, 0), -3.0, Nanos::ZERO, Nanos::secs(10));
        p.flaky_link(n(0, 0), n(0, 2), f64::NAN, Nanos::ZERO, Nanos::secs(10));
        let mut rng = Rng64::seed(4);
        // p > 1 clamps to certain drop.
        for _ in 0..100 {
            assert_eq!(
                p.message_fate(n(0, 0), n(0, 1), Nanos::secs(1), &mut rng),
                MsgFate::Dropped
            );
        }
        // p < 0 and NaN clamp to never-drop.
        for _ in 0..100 {
            assert_eq!(
                p.message_fate(n(0, 1), n(0, 0), Nanos::secs(1), &mut rng),
                MsgFate::Deliver {
                    extra_delay: Nanos::ZERO
                }
            );
            assert_eq!(
                p.message_fate(n(0, 0), n(0, 2), Nanos::secs(1), &mut rng),
                MsgFate::Deliver {
                    extra_delay: Nanos::ZERO
                }
            );
        }
    }

    #[test]
    fn slow_adds_bounded_delay() {
        let mut p = FaultPlan::new();
        p.slow_link(
            n(0, 0),
            n(0, 1),
            Nanos::millis(5),
            Nanos::ZERO,
            Nanos::secs(100),
        );
        let mut rng = Rng64::seed(2);
        for _ in 0..1000 {
            match p.message_fate(n(0, 0), n(0, 1), Nanos::secs(1), &mut rng) {
                MsgFate::Deliver { extra_delay } => assert!(extra_delay < Nanos::millis(5)),
                MsgFate::Dropped => panic!("slow must not drop"),
            }
        }
    }

    #[test]
    fn a_link_delivers_in_send_order_and_only_holds_back_itself() {
        let mut order = LinkOrder::default();
        let (a, b, c) = (n(0, 0), n(0, 1), n(0, 2));
        assert_eq!(order.arrival(a, b, Nanos(50)), Nanos(50));
        assert_eq!(order.arrival(a, b, Nanos(20)), Nanos(50), "no overtaking");
        assert_eq!(order.arrival(a, b, Nanos(70)), Nanos(70));
        // The reverse direction and another link keep their own order.
        assert_eq!(order.arrival(b, a, Nanos(10)), Nanos(10));
        assert_eq!(order.arrival(a, c, Nanos(10)), Nanos(10));
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut p = FaultPlan::new();
        p.partition(&[n(0, 0)], &[n(1, 0), n(1, 1)], Nanos::ZERO, Nanos::secs(5));
        let mut rng = Rng64::seed(3);
        for (a, b) in [(n(0, 0), n(1, 0)), (n(1, 0), n(0, 0)), (n(0, 0), n(1, 1))] {
            assert_eq!(
                p.message_fate(a, b, Nanos::secs(1), &mut rng),
                MsgFate::Dropped
            );
        }
        // Unrelated pair unaffected.
        assert_eq!(
            p.message_fate(n(1, 0), n(1, 1), Nanos::secs(1), &mut rng),
            MsgFate::Deliver {
                extra_delay: Nanos::ZERO
            }
        );
        // After the window traffic flows again.
        assert_eq!(
            p.message_fate(n(0, 0), n(1, 0), Nanos::secs(6), &mut rng),
            MsgFate::Deliver {
                extra_delay: Nanos::ZERO
            }
        );
    }

    #[test]
    fn until_end_windows_never_expire_without_heal() {
        let mut p = FaultPlan::new();
        p.crash_in(n(0, 0), FaultWindow::until_end(Nanos::secs(1)));
        p.drop_link_in(n(0, 1), n(0, 2), FaultWindow::until_end(Nanos::ZERO));
        assert!(p.is_crashed(n(0, 0), Nanos::secs(1_000_000)));
        let mut rng = Rng64::seed(5);
        assert_eq!(
            p.message_fate(n(0, 1), n(0, 2), Nanos::secs(1_000_000), &mut rng),
            MsgFate::Dropped
        );
        // Open-ended crashes report no recovery point.
        assert_eq!(p.recoveries().count(), 0);
    }

    #[test]
    fn heal_ends_active_windows_only() {
        let mut p = FaultPlan::new();
        // Active at heal time.
        p.crash_in(n(0, 0), FaultWindow::until_end(Nanos::secs(1)));
        p.drop_link(n(0, 1), n(0, 2), Nanos::ZERO, Nanos::secs(100));
        // Already over at heal time.
        p.crash(n(0, 1), Nanos::ZERO, Nanos::secs(1));
        // Starts after heal time: untouched.
        p.drop_link(n(0, 2), n(0, 1), Nanos::secs(10), Nanos::secs(10));
        p.heal(Nanos::secs(5));
        assert!(!p.is_crashed(n(0, 0), Nanos::secs(5)));
        assert!(p.is_crashed(n(0, 0), Nanos::millis(4_999)));
        let mut rng = Rng64::seed(6);
        assert_eq!(
            p.message_fate(n(0, 1), n(0, 2), Nanos::secs(6), &mut rng),
            MsgFate::Deliver {
                extra_delay: Nanos::ZERO
            }
        );
        // The future window still applies.
        assert_eq!(
            p.message_fate(n(0, 2), n(0, 1), Nanos::secs(11), &mut rng),
            MsgFate::Dropped
        );
        // Healed crash now has a recovery point at the heal instant.
        assert!(p
            .recoveries()
            .any(|(node, at)| node == n(0, 0) && at == Nanos::secs(5)));
    }

    #[test]
    fn recoveries_report_crash_window_ends() {
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(2));
        p.crash(n(0, 1), Nanos::secs(4), Nanos::secs(1));
        let rec: Vec<_> = p.recoveries().collect();
        assert_eq!(
            rec,
            vec![(n(0, 0), Nanos::secs(3)), (n(0, 1), Nanos::secs(5))]
        );
    }

    #[test]
    fn amnesia_crashes_carry_their_mode() {
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(1));
        p.crash_amnesia(n(0, 1), Nanos::secs(2), Nanos::secs(2));
        let (mut g0, mut g1) = (CrashGate::default(), CrashGate::default());
        assert_eq!(
            g0.admit(&p, n(0, 0), Nanos::secs(2)),
            Admit::Thaw(CrashMode::Freeze)
        );
        assert_eq!(
            g1.admit(&p, n(0, 1), Nanos::secs(4)),
            Admit::Thaw(CrashMode::Amnesia)
        );
        assert!(p.recoveries().any(|r| r == (n(0, 1), Nanos::secs(4))));
        // Both modes freeze delivery identically while down.
        assert!(p.is_crashed(n(0, 1), Nanos::secs(3)));
    }

    #[test]
    fn the_gate_discards_inside_a_window_and_nowhere_else() {
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(2));
        let mut gate = CrashGate::default();
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::millis(999)), Admit::Run);
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(1)), Admit::Discard);
        assert_eq!(
            gate.admit(&p, n(0, 0), Nanos::millis(2_999)),
            Admit::Discard
        );
        let mut other = CrashGate::default();
        assert_eq!(other.admit(&p, n(0, 1), Nanos::secs(2)), Admit::Run);
    }

    #[test]
    fn the_first_admit_after_a_window_thaws_exactly_once() {
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(1));
        let mut gate = CrashGate::default();
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::ZERO), Admit::Run);
        assert_eq!(
            gate.admit(&p, n(0, 0), Nanos::millis(1_500)),
            Admit::Discard
        );
        let thaw = Admit::Thaw(CrashMode::Freeze);
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(2)), thaw);
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(2)), Admit::Run);
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(3)), Admit::Run);
    }

    #[test]
    fn a_freeze_and_an_amnesia_ending_before_the_next_admit_thaw_as_amnesia() {
        let amnesia = Admit::Thaw(CrashMode::Amnesia);
        // Back to back: the call that landed in the freeze decides nothing.
        let mut p = FaultPlan::new();
        p.crash(n(0, 0), Nanos::secs(1), Nanos::secs(1));
        p.crash_amnesia(n(0, 0), Nanos::secs(2), Nanos::secs(1));
        let mut gate = CrashGate::default();
        assert_eq!(
            gate.admit(&p, n(0, 0), Nanos::millis(1_500)),
            Admit::Discard
        );
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(4)), amnesia);
        // Nested: the amnesia window ends inside the freeze, where its own
        // end is discarded like any other call.
        let mut p = FaultPlan::new();
        p.crash_amnesia(n(0, 0), Nanos::secs(1), Nanos::secs(1));
        p.crash(n(0, 0), Nanos::millis(1_500), Nanos::secs(2));
        let mut gate = CrashGate::default();
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::secs(2)), Admit::Discard);
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::millis(3_500)), amnesia);
    }

    #[test]
    fn a_window_no_call_landed_in_still_thaws() {
        let mut p = FaultPlan::new();
        p.crash_amnesia(n(0, 0), Nanos::secs(1), Nanos::secs(1));
        let mut gate = CrashGate::default();
        assert_eq!(gate.admit(&p, n(0, 0), Nanos::millis(500)), Admit::Run);
        let thaw = gate.admit(&p, n(0, 0), Nanos::secs(5));
        assert_eq!(thaw, Admit::Thaw(CrashMode::Amnesia));
    }
}
