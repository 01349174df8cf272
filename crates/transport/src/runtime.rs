//! The shared node event handling for wall-clock runtimes.
//!
//! A [`Node`] is one replica plus everything its handlers need: it takes one
//! [`NodeEvent`] at a time and invokes the replica with a
//! [`paxi_core::traits::Context`] backed by the transport's [`Outbound`] half
//! and the node's own timer heap. Handlers are strictly serial per node, the
//! same execution model as the simulator, so replica code runs unchanged.
//! What differs between runtimes is only who calls [`Node::handle`]: the
//! channel and UDP transports funnel inbound traffic into a per-node inbox
//! that [`run_node`] drains on the node's own thread; the TCP runtime
//! ([`crate::reactor`]) calls it from its socket loop with each frame as it
//! is decoded, and uses the inbox only for what does not arrive on a socket
//! (zero-delay timers, self-sends, restart and shutdown).
//!
//! **Timers belong to the node.** `set_timer` with a non-zero delay pushes
//! `(deadline, token, kind)` onto a heap inside the [`Node`]: no allocation,
//! no lock, no other thread. The loop that drives the node calls
//! [`Node::advance`] once per pass, which fires what is due through
//! [`Node::handle`], and sleeps no longer than [`Node::idle_for`] says. A
//! zero-delay timer means "after the input already queued" and goes through
//! the inbox instead.

use crate::envelope::Envelope;
use crate::faults::FaultInjector;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use paxi_core::command::{ClientRequest, ClientResponse};
use paxi_core::dist::Rng64;
use paxi_core::faults::CrashMode;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::obs::DropCause;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared replica rebuilder used for [`CrashMode::Amnesia`] recovery: builds
/// a fresh replica for a node id, attaching durable storage so construction
/// replays the WAL. Cluster constructors derive one from the launch factory.
pub type Remake<R> = Arc<dyn Fn(NodeId) -> R + Send + Sync>;

/// How long a node goes without an event before the replica gets a storage
/// tick. Bounds how far a batch fsync policy's interval can overshoot on a
/// quiet node; an idle tick on a replica with nothing buffered is a no-op.
const SYNC_TICK: Duration = Duration::from_millis(1);

/// Timer event injected back into a node inbox.
#[derive(Debug, Clone)]
pub enum NodeEvent<M> {
    /// Wire traffic.
    Wire(Envelope<M>),
    /// A timer armed by the replica fired.
    Timer {
        /// Timer kind as passed to `set_timer`.
        kind: u64,
        /// Token returned by `set_timer`.
        token: u64,
    },
    /// Wake-up injected at a crash-recovery instant (fault injection): it
    /// carries no payload — its arrival gives a thawed node a chance to run
    /// its restart hook even if no peer ever contacts it.
    Restart,
}

/// The sending half of a node's inbox, for every thread that is not the
/// node's own: peers and clients of the in-process transport, the UDP
/// receiver, the fault injector's recovery wake-ups, and cluster shutdown.
///
/// A node thread that sleeps in `recv` is woken by the channel itself. One
/// that sleeps in `poll(2)` is not, so its runtime attaches a `wake` that
/// every send calls after queueing the event.
pub struct InboxTx<M> {
    tx: Sender<NodeEvent<M>>,
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl<M> Clone for InboxTx<M> {
    fn clone(&self) -> Self {
        InboxTx {
            tx: self.tx.clone(),
            wake: self.wake.clone(),
        }
    }
}

impl<M> InboxTx<M> {
    /// For a node whose loop blocks on the inbox's receiving half.
    pub fn new(tx: Sender<NodeEvent<M>>) -> Self {
        InboxTx { tx, wake: None }
    }

    /// For a node whose loop blocks elsewhere: `wake` must make it look at
    /// its inbox soon, from any thread.
    pub fn with_wake(tx: Sender<NodeEvent<M>>, wake: Arc<dyn Fn() + Send + Sync>) -> Self {
        InboxTx {
            tx,
            wake: Some(wake),
        }
    }

    /// Queues `ev` and wakes the node. `false` if the node's loop is gone.
    pub fn send(&self, ev: NodeEvent<M>) -> bool {
        let queued = self.tx.send(ev).is_ok();
        if let Some(wake) = &self.wake {
            wake();
        }
        queued
    }
}

/// The transport-specific outbound half: how a node reaches peers and
/// clients.
pub trait Outbound<M>: Send + 'static {
    /// Delivers an envelope to a peer node (best effort).
    fn to_node(&self, to: NodeId, env: Envelope<M>);
    /// Delivers one envelope to each of `to` (best effort): a broadcast. A
    /// transport that serializes overrides this to encode once.
    fn to_nodes(&self, to: &[NodeId], env: Envelope<M>)
    where
        M: Clone,
    {
        if let Some((&last, rest)) = to.split_last() {
            for &p in rest {
                self.to_node(p, env.clone());
            }
            self.to_node(last, env);
        }
    }
    /// Delivers a response to a client (best effort).
    fn to_client(&self, client: ClientId, resp: ClientResponse);
    /// Proactively establishes (or re-establishes) a link to `peer`. The
    /// event loop calls this when a reconfiguration activates a new member
    /// and when an amnesiac node rejoins, so the first protocol message
    /// doesn't eat the dial latency. Default no-op — in-process transports
    /// and lazily-dialing ones need no warm-up.
    fn connect_peer(&self, peer: NodeId) {
        let _ = peer;
    }
    /// Tears down any cached link to a departed peer so its writer-side
    /// resources are reclaimed. Default no-op.
    fn disconnect_peer(&self, peer: NodeId) {
        let _ = peer;
    }
}

/// Reconciles the runtime's live peer set with the replica's current view
/// of the membership: newly active members get links warmed
/// ([`Outbound::connect_peer`]), departed ones get theirs torn down
/// ([`Outbound::disconnect_peer`]), and the broadcast set follows. A
/// replica whose [`Replica::current_members`] returns `None` (static
/// membership) keeps its startup peer set untouched. `peers` never holds
/// the node itself.
fn sync_peers<R: Replica, O: Outbound<R::Msg>>(
    id: NodeId,
    replica: &R,
    peers: &mut Vec<NodeId>,
    out: &O,
) {
    let Some(mut members) = replica.current_members() else {
        return;
    };
    members.retain(|&p| p != id);
    members.sort_unstable();
    members.dedup();
    if members == *peers {
        return;
    }
    for p in members.iter().filter(|p| !peers.contains(p)) {
        out.connect_peer(*p);
    }
    for p in peers.iter().filter(|p| !members.contains(p)) {
        out.disconnect_peer(*p);
    }
    *peers = members;
}

/// Armed timers with a non-zero delay, soonest first: `(deadline, token,
/// kind)`. Tokens only grow, so equal deadlines fire in arming order.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64, u64)>>;

struct ThreadCtx<'a, M, O: Outbound<M>> {
    id: NodeId,
    /// Every other member.
    peers: &'a [NodeId],
    out: &'a O,
    inbox_tx: &'a InboxTx<M>,
    timers: &'a mut TimerHeap,
    epoch: Instant,
    tokens: &'a mut u64,
    rng: &'a mut Rng64,
}

impl<M: Clone + std::fmt::Debug + Send + 'static, O: Outbound<M>> Context<M>
    for ThreadCtx<'_, M, O>
{
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> Nanos {
        Nanos(self.epoch.elapsed().as_nanos() as u64)
    }
    fn send(&mut self, to: NodeId, msg: M) {
        if to == self.id {
            self.inbox_tx
                .send(NodeEvent::Wire(Envelope::Msg { from: self.id, msg }));
        } else {
            self.out.to_node(to, Envelope::Msg { from: self.id, msg });
        }
    }
    fn broadcast(&mut self, msg: M) {
        self.out
            .to_nodes(self.peers, Envelope::Msg { from: self.id, msg });
    }
    fn multicast(&mut self, to: &[NodeId], msg: M) {
        for &p in to {
            if p == self.id {
                self.inbox_tx.send(NodeEvent::Wire(Envelope::Msg {
                    from: self.id,
                    msg: msg.clone(),
                }));
            } else {
                self.out.to_node(
                    p,
                    Envelope::Msg {
                        from: self.id,
                        msg: msg.clone(),
                    },
                );
            }
        }
    }
    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
        *self.tokens += 1;
        let token = *self.tokens;
        if after == Nanos::ZERO {
            // "After the input already queued": straight into the inbox,
            // behind whatever is waiting there. The simulator orders a
            // zero-delay timer the same way.
            self.inbox_tx.send(NodeEvent::Timer { kind, token });
            return token;
        }
        let deadline = Instant::now() + Duration::from_nanos(after.0);
        self.timers.push(Reverse((deadline, token, kind)));
        token
    }
    fn reply(&mut self, resp: ClientResponse) {
        self.out.to_client(resp.id.client, resp);
    }
    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        if to == self.id {
            self.inbox_tx.send(NodeEvent::Wire(Envelope::Request(req)));
        } else {
            self.out.to_node(to, Envelope::Request(req));
        }
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// One replica and the state its handlers run against: the unit every
/// wall-clock runtime drives, one event at a time, on one thread.
///
/// When a [`FaultInjector`] is supplied, [`Node::handle`] enforces crash
/// semantics exactly like the simulator: while the node's crash window is
/// active every event addressed to it (messages, requests, timers) is
/// silently discarded; on the first event after thawing, the window's
/// [`CrashMode`] decides what happens before normal dispatch resumes.
/// [`CrashMode::Freeze`] runs [`Replica::on_restart`] on the retained
/// replica. [`CrashMode::Amnesia`] discards the replica, rebuilds it via
/// `remake` (whose storage attachment replays the WAL) and runs
/// [`Replica::on_recover`]; without a `remake` closure amnesia degenerates
/// to freeze semantics — the runtime cannot pretend volatile state was lost
/// while still holding it. [`Envelope::Shutdown`] is always honored, crashed
/// or not. Armed timers are the node's, not the replica's: one that comes
/// due inside a crash window is discarded like any other event, and one
/// armed before an amnesia rebuild reaches the new replica as a token it
/// never issued.
pub struct Node<R: Replica, O: Outbound<R::Msg>> {
    id: NodeId,
    replica: R,
    /// Every other member: the broadcast set.
    peers: Vec<NodeId>,
    inbox_tx: InboxTx<R::Msg>,
    out: O,
    timers: TimerHeap,
    epoch: Instant,
    /// Timer tokens handed out so far.
    tokens: u64,
    rng: Rng64,
    faults: Option<Arc<FaultInjector>>,
    remake: Option<Remake<R>>,
    /// The mode of the crash window this node is in, or has left without
    /// having recovered yet.
    frozen: Option<CrashMode>,
    /// An event was handled since the last [`Node::advance`].
    busy: bool,
    /// Since when the node has been quiet (no event), as far as `advance`
    /// has seen; the storage tick is due [`SYNC_TICK`] after.
    quiet_since: Instant,
}

impl<R: Replica, O: Outbound<R::Msg>> Node<R, O> {
    /// `inbox_tx` feeds the inbox whose events the caller will pass to
    /// [`Node::handle`]: self-addressed messages and zero-delay timers go
    /// there.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        replica: R,
        mut peers: Vec<NodeId>,
        inbox_tx: InboxTx<R::Msg>,
        out: O,
        epoch: Instant,
        seed: u64,
        faults: Option<Arc<FaultInjector>>,
        remake: Option<Remake<R>>,
    ) -> Self {
        peers.retain(|&p| p != id);
        Node {
            id,
            replica,
            peers,
            inbox_tx,
            out,
            timers: TimerHeap::new(),
            epoch,
            tokens: 0,
            rng: Rng64::seed(seed),
            faults,
            remake,
            frozen: None,
            busy: false,
            quiet_since: epoch,
        }
    }

    /// The replica, and the context its handlers see for one call.
    fn parts(&mut self) -> (&mut R, ThreadCtx<'_, R::Msg, O>) {
        let ctx = ThreadCtx {
            id: self.id,
            peers: &self.peers,
            out: &self.out,
            inbox_tx: &self.inbox_tx,
            timers: &mut self.timers,
            epoch: self.epoch,
            tokens: &mut self.tokens,
            rng: &mut self.rng,
        };
        (&mut self.replica, ctx)
    }

    /// Runs [`Replica::on_start`]. Call once, on the node's thread, before
    /// the first [`Node::handle`].
    pub fn start(&mut self) {
        let (replica, mut ctx) = self.parts();
        replica.on_start(&mut ctx);
        sync_peers(self.id, &self.replica, &mut self.peers, &self.out);
    }

    /// Fires every timer due at `now`, in deadline order, each through
    /// [`Node::handle`]; then, if no event at all has been handled for
    /// [`SYNC_TICK`], gives the replica its storage tick. The node's loop
    /// calls this once per pass with the current time, and sleeps no longer
    /// than [`Node::idle_for`] before the next.
    pub fn advance(&mut self, now: Instant) {
        while let Some(&Reverse((deadline, token, kind))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            self.handle(Some(NodeEvent::Timer { kind, token }));
        }
        if std::mem::take(&mut self.busy) {
            self.quiet_since = now;
        } else if now.saturating_duration_since(self.quiet_since) >= SYNC_TICK {
            self.quiet_since = now;
            self.handle(None);
        }
    }

    /// How long after `now` the node's loop may sleep if no input comes:
    /// until the next timer deadline or the next storage tick, whichever is
    /// sooner — at most [`SYNC_TICK`], zero if something is due already.
    pub fn idle_for(&self, now: Instant) -> Duration {
        let tick = self.quiet_since + SYNC_TICK;
        let wake = match self.timers.peek() {
            Some(&Reverse((deadline, ..))) => deadline.min(tick),
            None => tick,
        };
        wake.saturating_duration_since(now)
    }

    /// Handles one event, or with `None` gives the replica a storage tick
    /// ([`Node::advance`] saw [`SYNC_TICK`] go by without an event, so a
    /// batch fsync policy's interval bound is honored even while the node is
    /// quiet and no append is there to piggyback the deadline check on).
    /// Returns `false` once the node has been told to shut down.
    pub fn handle(&mut self, ev: Option<NodeEvent<R::Msg>>) -> bool {
        self.busy |= ev.is_some();
        if let Some(inj) = &self.faults {
            if inj.is_crashed(self.id) {
                if matches!(ev, Some(NodeEvent::Wire(Envelope::Shutdown))) {
                    return false;
                }
                // Wire traffic discarded by a frozen node is a real loss the
                // cluster must account for; timers and restart wake-ups are
                // not messages, so they don't enter the drop ledger.
                if matches!(
                    ev,
                    Some(NodeEvent::Wire(Envelope::Msg { .. }))
                        | Some(NodeEvent::Wire(Envelope::Request(_)))
                ) {
                    inj.drops().record(DropCause::Crashed);
                }
                // Record the window's mode while it is still queryable: by
                // thaw time the window no longer covers the clock.
                if self.frozen.is_none() {
                    self.frozen = Some(inj.crash_mode(self.id).unwrap_or_default());
                }
                return true;
            }
        }
        let Some(ev) = ev else {
            // Don't touch a thawed-but-not-yet-recovered replica: recovery
            // runs on the next real event, exactly as before.
            if self.frozen.is_none() {
                self.replica.sync_storage();
            }
            return true;
        };
        let thawed = self.frozen.take();
        if thawed == Some(CrashMode::Amnesia) {
            if let Some(mk) = &self.remake {
                self.replica = mk(self.id);
            }
        }
        let (replica, mut ctx) = self.parts();
        match thawed {
            Some(CrashMode::Freeze) => replica.on_restart(&mut ctx),
            Some(CrashMode::Amnesia) => {
                replica.on_recover(&mut ctx);
                // An amnesiac node's transport may have dropped its links
                // while it was dark (peers tore down dead connections); warm
                // them again so recovery traffic doesn't eat dial latency.
                for &p in ctx.peers {
                    ctx.out.connect_peer(p);
                }
            }
            None => {}
        }
        match ev {
            NodeEvent::Wire(Envelope::Msg { from, msg }) => replica.on_message(from, msg, &mut ctx),
            NodeEvent::Wire(Envelope::Request(req)) => replica.on_request(req, &mut ctx),
            NodeEvent::Wire(Envelope::Response(_)) => {}
            NodeEvent::Wire(Envelope::Shutdown) => return false,
            NodeEvent::Timer { kind, token } => replica.on_timer(kind, token, &mut ctx),
            NodeEvent::Restart => {}
        }
        // A handled event may have activated a configuration; reconcile the
        // live link set with the replica's membership view before the next
        // event so activation-time joins get warm links immediately.
        sync_peers(self.id, &self.replica, &mut self.peers, &self.out);
        true
    }
}

/// Drives `node` from its inbox until an [`Envelope::Shutdown`] arrives: the
/// event loop of the channel and UDP transports. Call on a dedicated thread.
pub fn run_node<R: Replica, O: Outbound<R::Msg>>(
    mut node: Node<R, O>,
    inbox: Receiver<NodeEvent<R::Msg>>,
) {
    node.start();
    loop {
        node.advance(Instant::now());
        match inbox.recv_timeout(node.idle_for(Instant::now())) {
            Ok(ev) => {
                if !node.handle(Some(ev)) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    //! [`Node`] with no thread anywhere: the crash gate, the two thaw paths,
    //! the timer heap and the storage tick, driven one call at a time.

    use super::*;
    use crossbeam::channel::unbounded;
    use parking_lot::Mutex;
    use paxi_core::faults::FaultPlan;

    type Log = Arc<Mutex<Vec<String>>>;

    /// Records which hooks the runtime called, in order.
    struct Recording(Log);

    impl Replica for Recording {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().push("start".into());
        }
        fn on_restart(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().push("restart".into());
        }
        fn on_recover(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().push("recover".into());
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {
            self.0.lock().push("message".into());
        }
        fn on_request(&mut self, _req: ClientRequest, _ctx: &mut dyn Context<()>) {
            self.0.lock().push("request".into());
        }
        fn on_timer(&mut self, kind: u64, token: u64, _ctx: &mut dyn Context<()>) {
            self.0.lock().push(format!("timer {kind}/{token}"));
        }
        fn sync_storage(&mut self) {
            self.0.lock().push("tick".into());
        }
    }

    /// Sends nothing; records the peers the runtime asked it to dial.
    struct Dials(Arc<Mutex<Vec<NodeId>>>);

    impl Outbound<()> for Dials {
        fn to_node(&self, _to: NodeId, _env: Envelope<()>) {}
        fn to_client(&self, _client: ClientId, _resp: ClientResponse) {}
        fn connect_peer(&self, peer: NodeId) {
            self.0.lock().push(peer);
        }
    }

    fn n(i: u8) -> NodeId {
        NodeId::new(0, i)
    }

    fn msg() -> Option<NodeEvent<()>> {
        Some(NodeEvent::Wire(Envelope::Msg {
            from: n(1),
            msg: (),
        }))
    }

    /// Long enough that the assertions on the frozen node run inside it.
    const WINDOW: Nanos = Nanos::millis(200);

    struct Rig {
        node: Node<Recording, Dials>,
        inj: Arc<FaultInjector>,
        log: Log,
        remade: Log,
        dials: Arc<Mutex<Vec<NodeId>>>,
    }

    impl Rig {
        /// Node 0 of three, inside a crash window of `mode` from now on.
        fn crashed(mode: CrashMode) -> Rig {
            let mut plan = FaultPlan::new();
            match mode {
                CrashMode::Freeze => plan.crash(n(0), Nanos::ZERO, WINDOW),
                CrashMode::Amnesia => plan.crash_amnesia(n(0), Nanos::ZERO, WINDOW),
            };
            let inj = FaultInjector::new(plan, 1);
            let (log, remade): (Log, Log) = Default::default();
            let dials = Arc::new(Mutex::new(Vec::new()));
            let (tx, _rx) = unbounded();
            let remake: Remake<Recording> = {
                let remade = Arc::clone(&remade);
                Arc::new(move |_| Recording(Arc::clone(&remade)))
            };
            let node = Node::new(
                n(0),
                Recording(Arc::clone(&log)),
                vec![n(0), n(1), n(2)],
                InboxTx::new(tx),
                Dials(Arc::clone(&dials)),
                Instant::now(),
                7,
                Some(Arc::clone(&inj)),
                Some(remake),
            );
            inj.start(Instant::now());
            Rig {
                node,
                inj,
                log,
                remade,
                dials,
            }
        }

        fn wait_for_thaw(&self) {
            while self.inj.is_crashed(n(0)) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Node 0 of two, never crashed, with its log and the receiving half of
    /// its inbox.
    fn plain(epoch: Instant) -> (Node<Recording, Dials>, Log, Receiver<NodeEvent<()>>) {
        let log = Log::default();
        let (tx, rx) = unbounded();
        let node = Node::new(
            n(0),
            Recording(Arc::clone(&log)),
            vec![n(0), n(1)],
            InboxTx::new(tx),
            Dials(Default::default()),
            epoch,
            7,
            None,
            None,
        );
        (node, log, rx)
    }

    /// Arms a timer the way a handler does; returns its token.
    fn arm<R: Replica, O: Outbound<R::Msg>>(node: &mut Node<R, O>, after: Nanos, kind: u64) -> u64 {
        node.parts().1.set_timer(after, kind)
    }

    #[test]
    fn frozen_window_discards_and_charges_crashed() {
        let mut rig = Rig::crashed(CrashMode::Freeze);
        let request = NodeEvent::Wire(Envelope::Request(ClientRequest {
            id: paxi_core::id::RequestId::new(ClientId(1), 0),
            cmd: paxi_core::command::Command::get(1),
        }));
        assert!(rig.node.handle(msg()));
        assert!(rig.node.handle(Some(request)));
        // Not messages: discarded, but nothing the ledger has to explain.
        assert!(rig
            .node
            .handle(Some(NodeEvent::Timer { kind: 1, token: 1 })));
        assert!(rig.node.handle(Some(NodeEvent::Restart)));
        assert!(rig.node.handle(None), "a frozen node gets no storage tick");
        assert!(rig.log.lock().is_empty(), "a frozen node runs no handler");
        assert_eq!(rig.inj.drops().get(DropCause::Crashed), 2);
        assert_eq!(rig.inj.drops().total(), 2);
        // Shutdown is honored, crashed or not.
        assert!(!rig.node.handle(Some(NodeEvent::Wire(Envelope::Shutdown))));
    }

    #[test]
    fn first_event_after_a_freeze_runs_on_restart_then_the_event() {
        let mut rig = Rig::crashed(CrashMode::Freeze);
        assert!(rig.node.handle(msg()));
        rig.wait_for_thaw();
        // Thawed but not yet recovered: the tick must not touch the replica.
        assert!(rig.node.handle(None));
        assert!(rig.log.lock().is_empty());
        assert!(rig.node.handle(Some(NodeEvent::Restart)));
        assert!(rig.node.handle(msg()));
        assert!(rig.node.handle(None));
        assert_eq!(*rig.log.lock(), ["restart", "message", "tick"]);
        assert!(rig.remade.lock().is_empty(), "a freeze keeps the replica");
        assert!(rig.dials.lock().is_empty());
    }

    #[test]
    fn amnesia_rebuilds_through_remake_then_runs_on_recover() {
        let mut rig = Rig::crashed(CrashMode::Amnesia);
        assert!(rig
            .node
            .handle(Some(NodeEvent::Timer { kind: 1, token: 1 })));
        rig.wait_for_thaw();
        assert!(rig.node.handle(msg()));
        assert!(rig.node.handle(None));
        // The old replica saw nothing; its replacement recovered, then
        // handled the event, and the links to both peers were warmed.
        assert!(rig.log.lock().is_empty());
        assert_eq!(*rig.remade.lock(), ["recover", "message", "tick"]);
        assert_eq!(*rig.dials.lock(), [n(1), n(2)]);
    }

    #[test]
    fn an_uncrashed_node_starts_dispatches_and_ticks() {
        let (mut node, log, rx) = plain(Instant::now());
        node.start();
        assert!(node.handle(msg()));
        assert!(node.handle(Some(NodeEvent::Timer { kind: 3, token: 9 })));
        assert!(node.handle(None));
        assert!(!node.handle(Some(NodeEvent::Wire(Envelope::Shutdown))));
        assert_eq!(*log.lock(), ["start", "message", "timer 3/9", "tick"]);
        assert!(rx.try_recv().is_err(), "nothing was sent to self");
    }

    #[test]
    fn timers_fire_in_deadline_order_and_never_early() {
        let before = Instant::now();
        let (mut node, log, rx) = plain(before);
        assert_eq!(arm(&mut node, Nanos::secs(3), 30), 1);
        assert_eq!(arm(&mut node, Nanos::secs(1), 10), 2);
        assert_eq!(arm(&mut node, Nanos::secs(2), 20), 3);
        let after = Instant::now();
        // Armed between `before` and `after`: the first is not due a
        // nanosecond less than its delay after `before` (the quiet second
        // earns a tick, though), and the last not before the others.
        node.advance(before + Duration::from_secs(1) - Duration::from_nanos(1));
        assert_eq!(*log.lock(), ["tick"]);
        node.advance(after + Duration::from_secs(2));
        assert_eq!(*log.lock(), ["tick", "timer 10/2", "timer 20/3"]);
        node.advance(after + Duration::from_secs(3));
        assert_eq!(log.lock()[3..], ["timer 30/1"]);
        assert!(node.timers.is_empty());
        // None of this went through the inbox; a zero delay does, untouched.
        assert!(rx.try_recv().is_err());
        assert_eq!(arm(&mut node, Nanos::ZERO, 40), 4);
        assert!(matches!(
            rx.try_recv(),
            Ok(NodeEvent::Timer { kind: 40, token: 4 })
        ));
        assert!(node.timers.is_empty());
    }

    #[test]
    fn a_frozen_node_discards_due_timers_and_charges_nothing() {
        let mut rig = Rig::crashed(CrashMode::Freeze);
        arm(&mut rig.node, Nanos::millis(1), 5);
        rig.node.advance(Instant::now() + Duration::from_millis(10));
        assert!(rig.node.timers.is_empty(), "a discarded timer is gone");
        assert!(rig.log.lock().is_empty(), "a frozen node runs no handler");
        assert_eq!(rig.inj.drops().total(), 0, "a timer is not a message");
        rig.wait_for_thaw();
        assert!(rig.node.handle(msg()));
        rig.node.advance(Instant::now() + Duration::from_secs(1));
        assert_eq!(*rig.log.lock(), ["restart", "message"]);
    }

    #[test]
    fn timers_armed_before_an_amnesia_rebuild_reach_the_new_replica_as_stale_tokens() {
        let mut rig = Rig::crashed(CrashMode::Amnesia);
        arm(&mut rig.node, Nanos::millis(1), 5);
        arm(&mut rig.node, Nanos::secs(10), 6);
        // The first comes due inside the window (which is also the event
        // that lets the node see what kind of window it is in).
        rig.node.advance(Instant::now() + Duration::from_millis(10));
        rig.wait_for_thaw();
        assert!(rig.node.handle(msg()));
        rig.node.advance(Instant::now() + Duration::from_secs(20));
        assert!(rig.log.lock().is_empty());
        // Token 2 is none of the new replica's: its own start after.
        assert_eq!(*rig.remade.lock(), ["recover", "message", "timer 6/2"]);
        assert_eq!(arm(&mut rig.node, Nanos::millis(1), 7), 3);
    }

    #[test]
    fn the_storage_tick_comes_once_per_quiet_sync_tick_not_once_per_deadline() {
        // Every instant here is made up, counted from `epoch`, so nothing
        // depends on how fast the test runs.
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let (mut node, log, _rx) = plain(epoch);
        // A hold-down timer every 200 µs, as a saturated leader arms them.
        for k in 1..=9u64 {
            node.timers.push(Reverse((at(200 * k), k, 1)));
        }
        for k in 1..=9u64 {
            // Sleep to the next deadline, not to the tick...
            assert_eq!(node.idle_for(at(200 * (k - 1))), Duration::from_micros(200));
            // ...and waking for a timer is not a tick.
            node.advance(at(200 * k));
            assert_eq!(log.lock().len() as u64, k);
            assert_eq!(log.lock().last().unwrap(), &format!("timer 1/{k}"));
        }
        // Quiet from 1800 µs on: the tick is due a whole SYNC_TICK later.
        assert_eq!(node.idle_for(at(1_800)), SYNC_TICK);
        node.advance(at(2_000));
        assert_eq!(node.idle_for(at(2_000)), Duration::from_micros(800));
        assert_eq!(log.lock().len(), 9, "200 µs of quiet is not a tick");
        node.advance(at(2_800));
        assert_eq!(log.lock().last().unwrap(), "tick");
        node.advance(at(3_000));
        assert_eq!(log.lock().len(), 10, "one tick per SYNC_TICK of quiet");
        // An event in between starts the wait over.
        assert!(node.handle(msg()));
        node.advance(at(3_700));
        node.advance(at(3_900));
        assert_eq!(log.lock().last().unwrap(), "message");
        assert_eq!(node.idle_for(at(3_900)), Duration::from_micros(800));
        node.advance(at(4_700));
        assert_eq!(log.lock().last().unwrap(), "tick");
        assert_eq!(log.lock().len(), 12);
    }
}
