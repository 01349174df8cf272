//! The one node loop: a replica and everything its handlers need.
//!
//! A [`Node`] takes one input at a time — its start, a [`NodeEvent`], a
//! storage tick — asks its [`CrashGate`], and runs the replica's hook with
//! the one [`paxi_core::traits::Context`] there is. It broadcasts to every
//! other node of its cluster, whatever the replica's membership view. Each
//! substrate supplies an [`Outbound`] and whoever calls the node: the
//! channel and UDP transports' [`run_node`] drains a per-node inbox; the TCP
//! runtime ([`crate::reactor`]) calls [`Node::handle`] from its socket loop
//! and uses the inbox only for zero-delay timers, self-sends and shutdown,
//! which it reads on its next pass, at most [`SYNC_TICK`] away;
//! the simulator (`paxi-sim`) calls [`Node::handle_with`] from its event
//! queue, lending each call its virtual instant, fault plan, random stream
//! and registries ([`Lend`]), and its [`Outbound`] takes timers and
//! self-sends too ([`Outbound::to_self`]).
//!
//! **Timers belong to the live node.** `set_timer` with a non-zero delay
//! pushes `(deadline, token, kind)` onto a heap inside the [`Node`]; the
//! loop that drives it calls [`Node::advance`] once per pass, which fires
//! what is due, and sleeps no longer than [`Node::idle_for`] says. A
//! zero-delay timer means "after the input already queued" and goes
//! through the inbox.
//!
//! **So do faults.** A live node launched with a [`FaultPlan`] makes the two
//! calls the simulator makes: its crash gate reads the plan at the node's
//! own clock since the cluster's launch, and each peer-bound send asks
//! [`FaultPlan::message_fate`] with the node's own seeded stream. A delayed
//! envelope waits in a queue inside the node, and what is sent to the same
//! peer after it waits behind it (a link delivers in order). A quiet live
//! node thaws from a crash within [`SYNC_TICK`], on its storage tick.
//!
//! **One loss ledger.** Whatever a node loses itself — a message its crash
//! gate discards, a link fate's drop, a loss the replica charges through
//! [`Context::count_drop`] — goes to the registry the simulator lends, or,
//! live, to the cluster's [`DropCounters`] ([`Outbound::drops`]), beside the
//! transport's own losses.

use crate::envelope::Envelope;
use crate::obs::DropCounters;
use paxi_core::command::{ClientRequest, ClientResponse};
use paxi_core::dist::Rng64;
use paxi_core::faults::{Admit, CrashGate, FaultPlan, LinkOrder, MsgFate};
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::{DropCause, Metric, MetricsRegistry, TraceEvent, TraceRing, TraceStage};
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica, ReplicaFactory};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared replica rebuilder used for
/// [`paxi_core::faults::CrashMode::Amnesia`] recovery: builds a fresh
/// replica for a node id, attaching durable storage so construction replays
/// the WAL. Cluster constructors derive one from the launch factory.
pub type Remake<R> = Arc<dyn Fn(NodeId) -> R + Send + Sync>;

/// What a chaotic live node holds besides a plain one's state: the plan its
/// crash gate and link fates read, and what rebuilds its replica after an
/// amnesia crash.
pub type Chaos<R> = (Arc<FaultPlan>, Remake<R>);

/// A chaotic cluster's [`Chaos`], its [`Remake`] drawn from the launch
/// factory (`None` for a plain cluster); and the base of the node seeds,
/// the chaotic launch's `seed` or else the transport's `plain` one: node
/// `i` seeds its stream with `base + i`.
pub(crate) fn chaos<F: ReplicaFactory + Send + Sync + 'static>(
    faults: Option<(FaultPlan, u64)>,
    factory: &Arc<F>,
    plain: u64,
) -> (Option<Chaos<F::R>>, u64) {
    let Some((plan, seed)) = faults else {
        return (None, plain);
    };
    let factory = Arc::clone(factory);
    let remake: Remake<F::R> = Arc::new(move |id| factory.make(id));
    (Some((Arc::new(plan), remake)), seed)
}

/// How long a node goes without an event before the replica gets a storage
/// tick. Bounds how far a batch fsync policy's interval can overshoot on a
/// quiet node; an idle tick on a replica with nothing buffered is a no-op.
const SYNC_TICK: Duration = Duration::from_millis(1);

/// One input to a node.
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
}

/// The substrate-specific outbound half: how a node reaches peers and
/// clients.
pub trait Outbound<M>: Send + 'static {
    /// Delivers an envelope to a peer node (best effort).
    fn to_node(&mut self, to: NodeId, env: Envelope<M>);
    /// Delivers one envelope to each of `to` (best effort): a broadcast or
    /// a multicast. A transport that serializes overrides this to encode
    /// once.
    fn to_nodes(&mut self, to: &[NodeId], env: Envelope<M>)
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
    fn to_client(&mut self, client: ClientId, resp: ClientResponse);
    /// Takes what the node sends itself, a message or a timer armed `after`
    /// from now, if this substrate schedules it, as the simulator does. The
    /// default hands it back, to the node's inbox or timer heap.
    fn to_self(&mut self, after: Nanos, ev: NodeEvent<M>) -> Option<NodeEvent<M>> {
        let _ = after;
        Some(ev)
    }
    /// The cluster's loss ledger, which the node charges what it loses
    /// itself. `None`, the default, for the simulator, which lends each
    /// call a registry instead ([`Lend::metrics`]).
    fn drops(&self) -> Option<&DropCounters> {
        None
    }
}

/// What the simulator lends a [`Node`] for one call; a live node has its
/// own of each, or none.
pub struct Lend<'a, R: Replica> {
    /// The virtual instant the node starts serving the call at.
    pub now: Nanos,
    /// The plan the node's crash gate reads.
    pub plan: &'a FaultPlan,
    /// Rebuilds a replica after an amnesia crash.
    pub remake: &'a dyn Fn(NodeId) -> R,
    /// The stream `rand_u64` draws from.
    pub rng: &'a mut Rng64,
    /// The node's registry: what it receives, loses and counts.
    pub metrics: Option<&'a mut MetricsRegistry>,
    /// The trace ring `trace` pushes onto.
    pub trace: Option<&'a mut TraceRing>,
}

/// Armed timers with a non-zero delay, soonest first: `(deadline, token,
/// kind)`. Tokens only grow, so equal deadlines fire in arming order.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64, u64)>>;

/// Envelopes a `Slow` rule holds back, or that wait behind one on their
/// link, by release instant; those sharing one leave in sending order.
type DelayQueue<M> = BTreeMap<Instant, Vec<(NodeId, Envelope<M>)>>;

/// Sends every envelope in `delayed` due at `now`, soonest first.
fn release<M, O: Outbound<M>>(delayed: &mut DelayQueue<M>, out: &mut O, now: Instant) {
    while let Some(due) = delayed.first_entry().filter(|e| *e.key() <= now) {
        for (to, env) in due.remove() {
            out.to_node(to, env);
        }
    }
}

/// The one [`Context`]: what a node's handlers run against.
struct NodeCtx<'a, M, O: Outbound<M>> {
    id: NodeId,
    /// Every other node of the cluster.
    peers: &'a [NodeId],
    out: &'a mut O,
    inbox_tx: Option<&'a Sender<NodeEvent<M>>>,
    timers: &'a mut TimerHeap,
    /// [`Lend::now`]; `None` reads the wall clock from `epoch`.
    now: Option<Nanos>,
    epoch: Instant,
    tokens: &'a mut u64,
    rng: &'a mut Rng64,
    faults: Option<&'a FaultPlan>,
    delayed: &'a mut DelayQueue<M>,
    links: &'a mut LinkOrder<Instant>,
    metrics: Option<&'a mut MetricsRegistry>,
    trace: Option<&'a mut TraceRing>,
}

/// The time a node's handler sees: `lent`, or the wall clock since `epoch`.
fn clock(lent: Option<Nanos>, epoch: Instant) -> Nanos {
    lent.unwrap_or_else(|| Nanos(epoch.elapsed().as_nanos() as u64))
}

impl<M: Clone, O: Outbound<M>> NodeCtx<'_, M, O> {
    /// Sends `env` to the node itself, or to a peer as the fault plan, if
    /// any, decides: never (charged to [`DropCause::Fault`]), or now or once
    /// a `Slow` delay has passed — and in either case no earlier than what
    /// was queued to that peer before it, since a link delivers in order.
    fn route(&mut self, to: NodeId, env: Envelope<M>) {
        if to == self.id {
            return self.local(Nanos::ZERO, NodeEvent::Wire(env));
        }
        let Some(plan) = self.faults else {
            return self.out.to_node(to, env);
        };
        let now = Instant::now();
        let at = match plan.message_fate(self.id, to, clock(self.now, self.epoch), self.rng) {
            MsgFate::Dropped => return self.lose(DropCause::Fault, 1),
            MsgFate::Deliver { extra_delay } => now + Duration::from_nanos(extra_delay.0),
        };
        let at = self.links.arrival(self.id, to, at);
        self.delayed.entry(at).or_default().push((to, env));
        release(self.delayed, &mut *self.out, now);
    }

    /// Charges `n` losses to `cause`: in the registry lent to the call, or
    /// else in the cluster's ledger, if the substrate keeps one.
    fn lose(&mut self, cause: DropCause, n: u64) {
        if let Some(m) = &mut self.metrics {
            m.add_drop(cause, n);
        } else if let Some(ledger) = self.out.drops() {
            ledger.record_n(cause, n);
        }
    }

    /// Sends `msg` to each of `to`: in one call unless a plan decides each
    /// link's fate, so a serializing transport encodes once.
    fn cast(&mut self, to: &[NodeId], msg: M) {
        let env = Envelope::Msg { from: self.id, msg };
        if self.faults.is_none() {
            return self.out.to_nodes(to, env);
        }
        for &p in to {
            self.route(p, env.clone());
        }
    }

    /// What the node sends itself, `after` from now, if the substrate does
    /// not take it: into the inbox behind whatever is waiting there ("after
    /// the input already queued"), or a delayed timer onto the heap.
    fn local(&mut self, after: Nanos, ev: NodeEvent<M>) {
        match self.out.to_self(after, ev) {
            Some(NodeEvent::Timer { kind, token }) if after > Nanos::ZERO => {
                let deadline = Instant::now() + Duration::from_nanos(after.0);
                self.timers.push(Reverse((deadline, token, kind)));
            }
            Some(ev) => {
                let inbox = self
                    .inbox_tx
                    .expect("a node without an inbox sends itself nothing");
                let _ = inbox.send(ev);
            }
            None => {}
        }
    }
}

impl<M: Clone + std::fmt::Debug + Send + 'static, O: Outbound<M>> Context<M> for NodeCtx<'_, M, O> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> Nanos {
        clock(self.now, self.epoch)
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.route(to, Envelope::Msg { from: self.id, msg });
    }
    fn broadcast(&mut self, msg: M) {
        let peers = self.peers;
        self.cast(peers, msg);
    }
    fn multicast(&mut self, to: &[NodeId], msg: M) {
        self.cast(to, msg);
    }
    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
        *self.tokens += 1;
        let token = *self.tokens;
        self.local(after, NodeEvent::Timer { kind, token });
        token
    }
    fn reply(&mut self, resp: ClientResponse) {
        self.out.to_client(resp.id.client, resp);
    }
    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        self.route(to, Envelope::Request(req));
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn count(&mut self, metric: Metric, n: u64) {
        if let Some(m) = &mut self.metrics {
            m.add(metric, n);
        }
    }
    fn count_drop(&mut self, cause: DropCause, n: u64) {
        self.lose(cause, n);
    }
    /// Reads the clock only when there is a ring to record in.
    fn trace(&mut self, stage: TraceStage, req: RequestId) {
        if let Some(ring) = &mut self.trace {
            ring.push(TraceEvent {
                at: clock(self.now, self.epoch),
                node: self.id,
                req,
                stage,
            });
        }
    }
}

/// Runs the hook `ev` names on `replica`, `None` being the storage tick,
/// and counts the input in the node's registry, if it was lent one.
fn dispatch<R: Replica, O: Outbound<R::Msg>>(
    replica: &mut R,
    ev: Option<NodeEvent<R::Msg>>,
    ctx: &mut NodeCtx<'_, R::Msg, O>,
) {
    match ev {
        None => replica.sync_storage(),
        Some(NodeEvent::Wire(Envelope::Msg { from, msg })) => {
            if let Some(m) = &mut ctx.metrics {
                m.received(R::msg_kind(&msg), 1);
            }
            replica.on_message(from, msg, ctx)
        }
        Some(NodeEvent::Wire(Envelope::Request(req))) => {
            ctx.count(Metric::Requests, 1);
            replica.on_request(req, ctx)
        }
        Some(NodeEvent::Wire(_)) => {}
        Some(NodeEvent::Timer { kind, token }) => {
            ctx.count(Metric::TimerFires, 1);
            replica.on_timer(kind, token, ctx)
        }
    }
}

/// One replica and the state its handlers run against, driven one event at
/// a time. Every call on the replica asks the node's [`CrashGate`] (at the
/// node's clock since its cluster's launch, or at [`Lend::now`]): inside a
/// crash window it is discarded, a message or request charged to
/// [`DropCause::Crashed`]; the first call after one thaws the node through
/// [`paxi_core::faults::CrashMode::thaw`]; the node's links to its peers
/// outlive the crash. Fault-delayed envelopes leave from [`Node::advance`]
/// even while the node is frozen: they are in flight. Armed timers are the
/// node's: one due inside a crash window is discarded, one armed before an
/// amnesia rebuild reaches the new replica as a token it never issued.
pub struct Node<R: Replica, O: Outbound<R::Msg>> {
    id: NodeId,
    replica: R,
    /// Every other node of the cluster: the broadcast set, fixed at
    /// startup whatever the replica's membership view.
    peers: Vec<NodeId>,
    /// `None` for a simulated node, whose `out` takes every self-send.
    inbox_tx: Option<Sender<NodeEvent<R::Msg>>>,
    out: O,
    timers: TimerHeap,
    epoch: Instant,
    /// Timer tokens handed out so far.
    tokens: u64,
    rng: Rng64,
    faults: Option<Chaos<R>>,
    /// The node's crash lifecycle.
    gate: CrashGate,
    delayed: DelayQueue<R::Msg>,
    links: LinkOrder<Instant>,
    /// An event was handled since the last [`Node::advance`].
    busy: bool,
    /// Since when the node has been quiet (no event), as far as `advance`
    /// has seen; the storage tick is due [`SYNC_TICK`] after.
    quiet_since: Instant,
}

impl<R: Replica, O: Outbound<R::Msg>> Node<R, O> {
    /// `inbox_tx` is the sending half of the inbox whose events the caller
    /// will pass to [`Node::handle`]: self-addressed messages and zero-delay
    /// timers go there. Nothing wakes the caller when another thread sends
    /// on a clone of it; a loop that sleeps elsewhere than on the inbox
    /// reads it within [`Node::idle_for`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        replica: R,
        peers: Vec<NodeId>,
        inbox_tx: Sender<NodeEvent<R::Msg>>,
        out: O,
        epoch: Instant,
        seed: u64,
        faults: Option<Chaos<R>>,
    ) -> Self {
        Node::build(id, replica, peers, Some(inbox_tx), out, epoch, seed, faults)
    }

    /// A node the simulator drives through [`Node::handle_with`]: `out`
    /// takes everything it sends, itself included, so it has no inbox, and
    /// each call borrows clock, plan and randomness ([`Lend`]).
    pub fn simulated(id: NodeId, replica: R, peers: Vec<NodeId>, out: O) -> Self {
        Node::build(id, replica, peers, None, out, Instant::now(), 0, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        id: NodeId,
        replica: R,
        mut peers: Vec<NodeId>,
        inbox_tx: Option<Sender<NodeEvent<R::Msg>>>,
        out: O,
        epoch: Instant,
        seed: u64,
        faults: Option<Chaos<R>>,
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
            gate: CrashGate::default(),
            delayed: DelayQueue::new(),
            links: LinkOrder::default(),
            busy: false,
            quiet_since: epoch,
        }
    }

    /// The replica, and the context its handlers see in a call: one the
    /// simulator lends to, or (`None`) a live one.
    fn split<'a>(&'a mut self, lend: Option<Lend<'a, R>>) -> (&'a mut R, NodeCtx<'a, R::Msg, O>) {
        let (now, rng, metrics, trace) = match lend {
            Some(l) => (Some(l.now), Some(l.rng), l.metrics, l.trace),
            None => (None, None, None, None),
        };
        let ctx = NodeCtx {
            id: self.id,
            peers: &self.peers,
            out: &mut self.out,
            inbox_tx: self.inbox_tx.as_ref(),
            timers: &mut self.timers,
            now,
            epoch: self.epoch,
            tokens: &mut self.tokens,
            rng: rng.unwrap_or(&mut self.rng),
            faults: self.faults.as_ref().map(|(plan, _)| &**plan),
            delayed: &mut self.delayed,
            links: &mut self.links,
            metrics,
            trace,
        };
        (&mut self.replica, ctx)
    }

    /// Runs `call` on the replica as the node's [`CrashGate`] admits it:
    /// not at all inside a crash window (then `false`; charged to
    /// [`DropCause::Crashed`] when `lost`, i.e. the call delivers a message
    /// or a request), after a thaw if a window ended since the last call.
    /// `lend` is the simulator's; a live node uses its own.
    fn run(
        &mut self,
        lend: Option<Lend<'_, R>>,
        lost: bool,
        call: impl FnOnce(&mut R, &mut NodeCtx<'_, R::Msg, O>),
    ) -> bool {
        let (plan, own) = self.faults.as_ref().map(|(p, r)| (&**p, r)).unzip();
        let gate = lend.as_ref().map(|l| (l.plan, l.now));
        let gate = gate.or_else(|| plan.map(|plan| (plan, clock(None, self.epoch))));
        let admit = gate.map_or(Admit::Run, |(plan, t)| self.gate.admit(plan, self.id, t));
        let own = own.filter(|_| matches!(admit, Admit::Thaw(_))).cloned();
        let lent = lend.as_ref().map(|l| l.remake);
        let id = self.id;
        let (replica, mut ctx) = self.split(lend);
        match admit {
            Admit::Discard if lost => {
                ctx.lose(DropCause::Crashed, 1);
                return false;
            }
            Admit::Discard => return false,
            Admit::Run => {}
            Admit::Thaw(mode) => {
                let remake = lent.or(own.as_deref().map(|r| r as _));
                mode.thaw(replica, || remake.expect("a plan")(id), &mut ctx);
            }
        }
        call(replica, &mut ctx);
        true
    }

    /// The replica.
    pub fn replica(&self) -> &R {
        &self.replica
    }

    /// The transport half the node sends through, for the loop that owns
    /// both.
    pub fn out(&mut self) -> &mut O {
        &mut self.out
    }

    /// Runs [`Replica::on_start`] in a call `lend` lends to (`None`: a
    /// live one), unless a crash window covers it (then `false`).
    pub fn start_with(&mut self, lend: Option<Lend<'_, R>>) -> bool {
        self.run(lend, false, |replica, ctx| replica.on_start(ctx))
    }

    /// Handles one event, or with `None` gives the storage tick, in a call
    /// `lend` lends to (`None`: a live one): `false` if the crash gate
    /// discarded it, a loss to account for if it was wire traffic.
    pub fn handle_with(
        &mut self,
        ev: Option<NodeEvent<R::Msg>>,
        lend: Option<Lend<'_, R>>,
    ) -> bool {
        let lost = matches!(
            ev,
            Some(NodeEvent::Wire(Envelope::Msg { .. } | Envelope::Request(_)))
        );
        self.run(lend, lost, |replica, ctx| dispatch(replica, ev, ctx))
    }

    /// Runs [`Replica::on_start`], unless a crash window covers the start:
    /// then the node runs nothing until it thaws. Call once, on the node's
    /// thread, before the first [`Node::handle`].
    pub fn start(&mut self) {
        self.start_with(None);
    }
    /// Releases every fault-delayed envelope due at `now`, whatever state
    /// the node is in; fires every timer due, in deadline order, each
    /// through [`Node::handle`]; then, if no event at all has been handled
    /// for [`SYNC_TICK`], gives the replica its storage tick. The node's
    /// loop calls this once per pass with the current time, and sleeps no
    /// longer than [`Node::idle_for`] before the next.
    pub fn advance(&mut self, now: Instant) {
        release(&mut self.delayed, &mut self.out, now);
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
    /// until the next timer deadline, delayed envelope or storage tick,
    /// whichever is soonest — at most [`SYNC_TICK`], zero if something is
    /// due already.
    pub fn idle_for(&self, now: Instant) -> Duration {
        let mut wake = self.quiet_since + SYNC_TICK;
        if let Some(&Reverse((deadline, ..))) = self.timers.peek() {
            wake = wake.min(deadline);
        }
        if let Some(&release) = self.delayed.keys().next() {
            wake = wake.min(release);
        }
        wake.saturating_duration_since(now)
    }

    /// Handles one event, or with `None` gives the replica a storage tick
    /// ([`Node::advance`] saw [`SYNC_TICK`] go by without an event, so a
    /// batch fsync policy's interval bound is honored even while the node is
    /// quiet and no append is there to piggyback the deadline check on).
    /// Returns `false` once the node has been told to shut down.
    pub fn handle(&mut self, ev: Option<NodeEvent<R::Msg>>) -> bool {
        self.busy |= ev.is_some();
        if let Some(NodeEvent::Wire(Envelope::Shutdown)) = ev {
            return false;
        }
        self.handle_with(ev, None);
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

/// Queues [`Envelope::Shutdown`] in every node's inbox, then joins every
/// node thread: how each live cluster stops.
pub(crate) fn shut_down<'a, M: 'a>(
    inboxes: impl IntoIterator<Item = &'a Sender<NodeEvent<M>>>,
    threads: Vec<JoinHandle<()>>,
) {
    for tx in inboxes {
        let _ = tx.send(NodeEvent::Wire(Envelope::Shutdown));
    }
    for h in threads {
        let _ = h.join();
    }
}

#[cfg(test)]
impl<R: Replica, O: Outbound<R::Msg>> Node<R, O> {
    /// The replica, and the context its handlers see in a live call.
    fn parts(&mut self) -> (&mut R, NodeCtx<'_, R::Msg, O>) {
        self.split(None)
    }
}

#[cfg(test)]
mod tests {
    //! [`Node`] with no thread anywhere: the crash gate, the two thaw paths,
    //! link fates, the timer heap, the delay queue and the storage tick,
    //! driven one call at a time.

    use super::*;
    use paxi_core::faults::{CrashMode, FaultPlan};
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    type Log = Arc<Mutex<Vec<String>>>;

    /// Records which hooks the runtime called, in order.
    struct Recording(Log);

    impl Replica for Recording {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push("start".into());
        }
        fn on_restart(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push("restart".into());
        }
        fn on_recover(&mut self, _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push("recover".into());
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push("message".into());
        }
        fn on_request(&mut self, _req: ClientRequest, _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push("request".into());
        }
        fn on_timer(&mut self, kind: u64, token: u64, _ctx: &mut dyn Context<()>) {
            self.0.lock().unwrap().push(format!("timer {kind}/{token}"));
        }
        fn sync_storage(&mut self) {
            self.0.lock().unwrap().push("tick".into());
        }
    }

    /// Records the peers the runtime sent to, and each frame as `to kind`;
    /// keeps the ledger the node charges its losses to.
    #[derive(Default)]
    struct Links {
        sent: Vec<NodeId>,
        frames: Vec<String>,
        drops: DropCounters,
    }

    impl Outbound<()> for Links {
        fn to_node(&mut self, to: NodeId, env: Envelope<()>) {
            self.sent.push(to);
            let kind = match env {
                Envelope::Request(_) => "request",
                _ => "message",
            };
            self.frames.push(format!("{to} {kind}"));
        }
        fn to_client(&mut self, _client: ClientId, _resp: ClientResponse) {}
        fn drops(&self) -> Option<&DropCounters> {
            Some(&self.drops)
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
        node: Node<Recording, Links>,
        plan: FaultPlan,
        /// The origin of the node's clock.
        epoch: Instant,
        log: Log,
        remade: Log,
    }

    impl Rig {
        /// Node 0 of three, inside a crash window of `mode` from now on.
        fn crashed(mode: CrashMode) -> Rig {
            let mut plan = FaultPlan::new();
            match mode {
                CrashMode::Freeze => plan.crash(n(0), Nanos::ZERO, WINDOW),
                CrashMode::Amnesia => plan.crash_amnesia(n(0), Nanos::ZERO, WINDOW),
            };
            Rig::with(plan)
        }

        /// Node 0 of three under `plan`, its clock started now.
        fn with(plan: FaultPlan) -> Rig {
            let (log, remade): (Log, Log) = Default::default();
            let (tx, _rx) = channel();
            let remake: Remake<Recording> = {
                let remade = Arc::clone(&remade);
                Arc::new(move |_| Recording(Arc::clone(&remade)))
            };
            let epoch = Instant::now();
            let node = Node::new(
                n(0),
                Recording(Arc::clone(&log)),
                vec![n(0), n(1), n(2)],
                tx,
                Links::default(),
                epoch,
                7,
                Some((Arc::new(plan.clone()), remake)),
            );
            Rig {
                node,
                plan,
                epoch,
                log,
                remade,
            }
        }

        /// What the node has sent and lost so far.
        fn links(&mut self) -> &Links {
            self.node.out()
        }

        /// The node's clock: plan time.
        fn now(&self) -> Nanos {
            clock(None, self.epoch)
        }

        fn wait_for_thaw(&self) {
            while self.plan.is_crashed(n(0), self.now()) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Node 0 of two, never crashed, with its log and the receiving half of
    /// its inbox.
    fn plain(epoch: Instant) -> (Node<Recording, Links>, Log, Receiver<NodeEvent<()>>) {
        let log = Log::default();
        let (tx, rx) = channel();
        let node = Node::new(
            n(0),
            Recording(Arc::clone(&log)),
            vec![n(0), n(1)],
            tx,
            Links::default(),
            epoch,
            7,
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
        assert!(rig.node.handle(None), "a frozen node gets no storage tick");
        assert!(
            rig.log.lock().unwrap().is_empty(),
            "a frozen node runs no handler"
        );
        assert_eq!(rig.links().drops.get(DropCause::Crashed), 2);
        assert_eq!(rig.links().drops.total(), 2);
        // Shutdown is honored, crashed or not.
        assert!(!rig.node.handle(Some(NodeEvent::Wire(Envelope::Shutdown))));
    }

    #[test]
    fn first_event_after_a_freeze_runs_on_restart_then_the_event() {
        let mut rig = Rig::crashed(CrashMode::Freeze);
        assert!(rig.node.handle(msg()));
        rig.wait_for_thaw();
        // The first call after the window is the storage tick: it thaws the
        // node, then ticks the replica it kept.
        assert!(rig.node.handle(None));
        assert_eq!(*rig.log.lock().unwrap(), ["restart", "tick"]);
        assert!(rig.node.handle(msg()));
        assert!(rig.node.handle(None));
        assert_eq!(
            *rig.log.lock().unwrap(),
            ["restart", "tick", "message", "tick"]
        );
        assert!(
            rig.remade.lock().unwrap().is_empty(),
            "a freeze keeps the replica"
        );
        assert!(rig.links().sent.is_empty());
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
        // handled the event. The thaw itself sent nothing: the node kept its
        // links.
        assert!(rig.log.lock().unwrap().is_empty());
        assert_eq!(*rig.remade.lock().unwrap(), ["recover", "message", "tick"]);
        assert!(rig.links().sent.is_empty());
    }

    #[test]
    fn a_freeze_then_an_amnesia_back_to_back_thaws_as_amnesia() {
        let (mut plan, half) = (FaultPlan::new(), Nanos(WINDOW.0 / 2));
        plan.crash(n(0), Nanos::ZERO, half);
        plan.crash_amnesia(n(0), half, half);
        let mut rig = Rig::with(plan);
        // Discarded inside the freeze, which says nothing about the thaw.
        assert!(rig.node.handle(msg()));
        rig.wait_for_thaw();
        assert!(rig.node.handle(msg()));
        assert!(
            rig.log.lock().unwrap().is_empty(),
            "the old replica is gone"
        );
        assert_eq!(*rig.remade.lock().unwrap(), ["recover", "message"]);
        assert!(rig.links().sent.is_empty());
    }

    #[test]
    fn a_quiet_frozen_node_thaws_on_its_own_tick() {
        for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
            let mut rig = Rig::crashed(mode);
            // Nobody talks to the node: only its loop's passes reach it.
            rig.node.advance(Instant::now() + SYNC_TICK);
            rig.wait_for_thaw();
            rig.node.advance(Instant::now() + SYNC_TICK);
            match mode {
                CrashMode::Freeze => {
                    assert_eq!(*rig.log.lock().unwrap(), ["restart", "tick"]);
                    assert!(rig.remade.lock().unwrap().is_empty());
                }
                CrashMode::Amnesia => {
                    assert!(rig.log.lock().unwrap().is_empty());
                    assert_eq!(*rig.remade.lock().unwrap(), ["recover", "tick"]);
                }
            }
            assert!(rig.links().sent.is_empty(), "a thaw sends nothing");
        }
    }

    #[test]
    fn link_drops_are_charged_to_the_fault_cause() {
        let mut plan = FaultPlan::new();
        plan.drop_link(n(0), n(2), Nanos::ZERO, Nanos::secs(3600));
        let mut rig = Rig::with(plan);
        // One peer unreachable: each broadcast still reaches the other.
        for _ in 0..4 {
            rig.node.parts().1.broadcast(());
        }
        assert_eq!(rig.links().sent, [n(1); 4]);
        assert_eq!(rig.links().drops.get(DropCause::Fault), 4);
        assert_eq!(rig.links().drops.total(), 4);
        // Healthy links charge nothing.
        rig.node.parts().1.send(n(1), ());
        assert_eq!(rig.links().sent.len(), 5);
        assert_eq!(rig.links().drops.total(), 4);
    }

    #[test]
    fn a_slowed_envelope_leaves_at_its_deadline_even_from_a_frozen_node() {
        let mut plan = FaultPlan::new();
        plan.slow_link(n(0), n(1), Nanos::secs(10), Nanos::ZERO, Nanos::secs(3600));
        plan.crash(n(0), Nanos::ZERO, Nanos::secs(3600));
        let mut rig = Rig::with(plan);
        // Sent by handlers (that ran before the window, as it were).
        rig.node.parts().1.send(n(1), ());
        rig.node.parts().1.send(n(2), ());
        assert_eq!(rig.links().sent, [n(2)], "only the slow link holds back");
        let release = *rig.node.delayed.keys().next().expect("held in the node");
        // Every instant below is made up, counted back from the release.
        let before = release - Duration::from_micros(300);
        rig.node.advance(before);
        assert_eq!(rig.node.idle_for(before), Duration::from_micros(300));
        rig.node.advance(release - Duration::from_nanos(1));
        assert_eq!(rig.links().sent, [n(2)], "not a nanosecond early");
        rig.node.advance(release);
        assert_eq!(
            rig.links().sent,
            [n(2), n(1)],
            "in flight, so frozen or not"
        );
        assert!(rig.node.delayed.is_empty());
        assert!(
            rig.log.lock().unwrap().is_empty(),
            "the frozen node ran nothing"
        );
        assert_eq!(rig.links().drops.total(), 0);
    }

    #[test]
    fn a_frame_behind_a_slowed_one_on_its_link_leaves_right_after_it() {
        let (mut plan, window) = (FaultPlan::new(), Nanos::millis(50));
        plan.slow_link(n(0), n(1), Nanos::secs(10), Nanos::ZERO, window);
        let mut rig = Rig::with(plan);
        rig.node.parts().1.send(n(1), ());
        let release = *rig.node.delayed.keys().next().expect("held in the node");
        // The rule lifts: the next frame to 0.1 is not slowed itself...
        while rig.now() < window {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(release > Instant::now(), "the first frame is still held");
        let request = ClientRequest {
            id: paxi_core::id::RequestId::new(ClientId(1), 0),
            cmd: paxi_core::command::Command::get(1),
        };
        rig.node.parts().1.forward(n(1), request);
        // ...but waits behind the one that is, while 0.2's link is its own.
        rig.node.parts().1.send(n(2), ());
        assert_eq!(rig.links().frames, ["0.2 message"]);
        // Every instant below is made up, counted back from the release.
        rig.node.advance(release - Duration::from_nanos(1));
        assert_eq!(rig.links().frames.len(), 1, "not a nanosecond early");
        rig.node.advance(release);
        assert_eq!(
            rig.links().frames,
            ["0.2 message", "0.1 message", "0.1 request"],
            "in send order, at the slowed frame's deadline"
        );
        assert!(rig.node.delayed.is_empty());
        assert_eq!(rig.links().drops.total(), 0);
    }

    /// Broadcasts on every message; its membership view leaves 0.2 out.
    struct Shrunk;

    impl Replica for Shrunk {
        type Msg = ();
        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut dyn Context<()>) {
            ctx.broadcast(());
        }
        fn on_request(&mut self, _req: ClientRequest, _ctx: &mut dyn Context<()>) {}
        fn current_members(&self) -> Option<Vec<NodeId>> {
            Some(vec![n(0), n(1)])
        }
    }

    #[test]
    fn a_node_broadcasts_to_its_whole_cluster_whatever_the_membership_view() {
        let (tx, _rx) = channel();
        let peers = vec![n(0), n(1), n(2)];
        let (out, epoch) = (Links::default(), Instant::now());
        let mut node = Node::new(n(0), Shrunk, peers, tx, out, epoch, 7, None);
        node.start();
        assert!(node.handle(msg()));
        assert!(node.handle(msg()));
        assert_eq!(node.out().sent, [n(1), n(2), n(1), n(2)]);
    }

    #[test]
    fn an_uncrashed_node_starts_dispatches_and_ticks() {
        let (mut node, log, rx) = plain(Instant::now());
        node.start();
        assert!(node.handle(msg()));
        assert!(node.handle(Some(NodeEvent::Timer { kind: 3, token: 9 })));
        assert!(node.handle(None));
        assert!(!node.handle(Some(NodeEvent::Wire(Envelope::Shutdown))));
        assert_eq!(
            *log.lock().unwrap(),
            ["start", "message", "timer 3/9", "tick"]
        );
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
        assert_eq!(*log.lock().unwrap(), ["tick"]);
        node.advance(after + Duration::from_secs(2));
        assert_eq!(*log.lock().unwrap(), ["tick", "timer 10/2", "timer 20/3"]);
        node.advance(after + Duration::from_secs(3));
        assert_eq!(log.lock().unwrap()[3..], ["timer 30/1"]);
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
        assert!(
            rig.log.lock().unwrap().is_empty(),
            "a frozen node runs no handler"
        );
        assert_eq!(rig.links().drops.total(), 0, "a timer is not a message");
        rig.wait_for_thaw();
        assert!(rig.node.handle(msg()));
        rig.node.advance(Instant::now() + Duration::from_secs(1));
        assert_eq!(*rig.log.lock().unwrap(), ["restart", "message"]);
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
        assert!(rig.log.lock().unwrap().is_empty());
        // Token 2 is none of the new replica's: its own start after.
        assert_eq!(
            *rig.remade.lock().unwrap(),
            ["recover", "message", "timer 6/2"]
        );
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
            assert_eq!(log.lock().unwrap().len() as u64, k);
            assert_eq!(log.lock().unwrap().last().unwrap(), &format!("timer 1/{k}"));
        }
        // Quiet from 1800 µs on: the tick is due a whole SYNC_TICK later.
        assert_eq!(node.idle_for(at(1_800)), SYNC_TICK);
        node.advance(at(2_000));
        assert_eq!(node.idle_for(at(2_000)), Duration::from_micros(800));
        assert_eq!(
            log.lock().unwrap().len(),
            9,
            "200 µs of quiet is not a tick"
        );
        node.advance(at(2_800));
        assert_eq!(log.lock().unwrap().last().unwrap(), "tick");
        node.advance(at(3_000));
        assert_eq!(
            log.lock().unwrap().len(),
            10,
            "one tick per SYNC_TICK of quiet"
        );
        // An event in between starts the wait over.
        assert!(node.handle(msg()));
        node.advance(at(3_700));
        node.advance(at(3_900));
        assert_eq!(log.lock().unwrap().last().unwrap(), "message");
        assert_eq!(node.idle_for(at(3_900)), Duration::from_micros(800));
        node.advance(at(4_700));
        assert_eq!(log.lock().unwrap().last().unwrap(), "tick");
        assert_eq!(log.lock().unwrap().len(), 12);
    }

    /// Nothing wakes the TCP loop from another thread: shutdown waits in the
    /// inbox until the next pass. So a far deadline must not let the loop
    /// sleep past [`SYNC_TICK`], whether it sleeps all it may, wakes early
    /// for a frame, or oversleeps.
    #[test]
    fn a_far_deadline_never_lets_the_loop_sleep_past_a_sync_tick() {
        let epoch = Instant::now();
        let (mut node, log, _rx) = plain(epoch);
        node.timers
            .push(Reverse((epoch + Duration::from_millis(500), 1, 1)));
        let mut now = epoch;
        for step in 0..1_500u32 {
            node.advance(now);
            let idle = node.idle_for(now);
            assert!(idle <= SYNC_TICK, "{idle:?} at {:?}", now - epoch);
            now += match step % 3 {
                0 => idle,
                1 => {
                    node.handle(msg());
                    idle / 3
                }
                _ => idle + Duration::from_micros(250),
            };
        }
        assert!(now > epoch + Duration::from_millis(500));
        let log = log.lock().unwrap();
        assert_eq!(log.iter().filter(|e| *e == "timer 1/1").count(), 1);
        assert!(log.iter().any(|e| e == "tick"));
    }
}
