//! The shared node event loop for wall-clock runtimes.
//!
//! Every transport (in-process channels, TCP, UDP) funnels inbound traffic
//! into a per-node inbox; [`run_node`] drains the inbox on the node's own
//! thread, invoking the replica's handlers with a [`paxi_core::traits::Context`]
//! backed by the transport's [`Outbound`] half and the shared
//! [`crate::timer::TimerService`]. Handlers are strictly serial per node, the
//! same execution model as the simulator, so replica code runs unchanged.

use crate::envelope::Envelope;
use crate::faults::FaultInjector;
use crate::timer::TimerService;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use paxi_core::command::{ClientRequest, ClientResponse};
use paxi_core::dist::Rng64;
use paxi_core::faults::CrashMode;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared replica rebuilder used for [`CrashMode::Amnesia`] recovery: builds
/// a fresh replica for a node id, attaching durable storage so construction
/// replays the WAL. Cluster constructors derive one from the launch factory.
pub type Remake<R> = Arc<dyn Fn(NodeId) -> R + Send + Sync>;

/// How long the event loop waits before giving the replica a storage tick.
/// Bounds how far a batch fsync policy's interval can overshoot on a quiet
/// node; an idle tick on a replica with nothing buffered is a no-op.
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

/// The transport-specific outbound half: how a node reaches peers and
/// clients.
pub trait Outbound<M>: Send + 'static {
    /// Delivers an envelope to a peer node (best effort).
    fn to_node(&self, to: NodeId, env: Envelope<M>);
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
/// membership) keeps its startup peer set untouched.
fn sync_peers<R: Replica, O: Outbound<R::Msg>>(replica: &R, peers: &mut Vec<NodeId>, out: &O) {
    let Some(mut members) = replica.current_members() else {
        return;
    };
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

struct ThreadCtx<'a, M, O: Outbound<M>> {
    id: NodeId,
    peers: &'a [NodeId],
    out: &'a O,
    inbox_tx: &'a Sender<NodeEvent<M>>,
    timers: &'a TimerService,
    epoch: Instant,
    token_counter: &'a AtomicU64,
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
            let _ = self
                .inbox_tx
                .send(NodeEvent::Wire(Envelope::Msg { from: self.id, msg }));
        } else {
            self.out.to_node(to, Envelope::Msg { from: self.id, msg });
        }
    }
    fn broadcast(&mut self, msg: M) {
        for &p in self.peers {
            if p != self.id {
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
    fn multicast(&mut self, to: &[NodeId], msg: M) {
        for &p in to {
            if p == self.id {
                let _ = self.inbox_tx.send(NodeEvent::Wire(Envelope::Msg {
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
        let token = self.token_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if after == Nanos::ZERO {
            // "After the input already queued": straight into the inbox,
            // behind whatever is waiting there, with no wake-up of and
            // hand-off from the timer thread. The simulator orders a
            // zero-delay timer the same way.
            let _ = self.inbox_tx.send(NodeEvent::Timer { kind, token });
            return token;
        }
        let tx = self.inbox_tx.clone();
        self.timers
            .schedule(Duration::from_nanos(after.0), move || {
                let _ = tx.send(NodeEvent::Timer { kind, token });
            });
        token
    }
    fn reply(&mut self, resp: ClientResponse) {
        self.out.to_client(resp.id.client, resp);
    }
    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        if to == self.id {
            let _ = self.inbox_tx.send(NodeEvent::Wire(Envelope::Request(req)));
        } else {
            self.out.to_node(to, Envelope::Request(req));
        }
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Drives one replica until a [`Envelope::Shutdown`] arrives. Call on a
/// dedicated thread.
///
/// When a [`FaultInjector`] is supplied, the loop enforces crash semantics
/// exactly like the simulator: while the node's crash window is active every
/// event addressed to it (messages, requests, timers) is silently discarded;
/// on the first event after thawing, the window's [`CrashMode`] decides what
/// happens before normal dispatch resumes. [`CrashMode::Freeze`] runs
/// [`Replica::on_restart`] on the retained replica. [`CrashMode::Amnesia`]
/// discards the replica, rebuilds it via `remake` (whose storage attachment
/// replays the WAL) and runs [`Replica::on_recover`]; without a `remake`
/// closure amnesia degenerates to freeze semantics — the runtime cannot
/// pretend volatile state was lost while still holding it.
/// [`Envelope::Shutdown`] is always honored, crashed or not.
#[allow(clippy::too_many_arguments)]
pub fn run_node<R: Replica, O: Outbound<R::Msg>>(
    id: NodeId,
    mut replica: R,
    mut peers: Vec<NodeId>,
    inbox: Receiver<NodeEvent<R::Msg>>,
    inbox_tx: Sender<NodeEvent<R::Msg>>,
    out: O,
    timers: Arc<TimerService>,
    epoch: Instant,
    seed: u64,
    faults: Option<Arc<FaultInjector>>,
    remake: Option<Remake<R>>,
) {
    let token_counter = AtomicU64::new(0);
    let mut rng = Rng64::seed(seed);
    {
        let mut ctx = ThreadCtx {
            id,
            peers: &peers,
            out: &out,
            inbox_tx: &inbox_tx,
            timers: &timers,
            epoch,
            token_counter: &token_counter,
            rng: &mut rng,
        };
        replica.on_start(&mut ctx);
    }
    sync_peers(&replica, &mut peers, &out);
    let mut frozen: Option<CrashMode> = None;
    loop {
        // A bounded wait instead of a blocking recv: on timeout the replica
        // gets a storage tick, so a batch fsync policy's interval bound is
        // honored even while the node is quiet (no append to piggyback the
        // deadline check on).
        let ev = match inbox.recv_timeout(SYNC_TICK) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if let Some(inj) = &faults {
            if inj.is_crashed(id) {
                if matches!(ev, Some(NodeEvent::Wire(Envelope::Shutdown))) {
                    break;
                }
                // Wire traffic discarded by a frozen node is a real loss the
                // cluster must account for; timers and restart wake-ups are
                // not messages, so they don't enter the drop ledger.
                if matches!(
                    ev,
                    Some(NodeEvent::Wire(Envelope::Msg { .. }))
                        | Some(NodeEvent::Wire(Envelope::Request(_)))
                ) {
                    inj.drops().record(paxi_core::obs::DropCause::Crashed);
                }
                // Record the window's mode while it is still queryable: by
                // thaw time the window no longer covers the clock.
                if frozen.is_none() {
                    frozen = Some(inj.crash_mode(id).unwrap_or_default());
                }
                continue;
            }
        }
        let Some(ev) = ev else {
            // Don't touch a thawed-but-not-yet-recovered replica: recovery
            // runs on the next real event, exactly as before.
            if frozen.is_none() {
                replica.sync_storage();
            }
            continue;
        };
        let mut ctx = ThreadCtx {
            id,
            peers: &peers,
            out: &out,
            inbox_tx: &inbox_tx,
            timers: &timers,
            epoch,
            token_counter: &token_counter,
            rng: &mut rng,
        };
        match frozen.take() {
            Some(CrashMode::Freeze) => replica.on_restart(&mut ctx),
            Some(CrashMode::Amnesia) => {
                if let Some(mk) = &remake {
                    replica = mk(id);
                }
                replica.on_recover(&mut ctx);
                // An amnesiac node's transport may have dropped its links
                // while it was dark (peers tore down dead connections); warm
                // them again so recovery traffic doesn't eat dial latency.
                for &p in ctx.peers.iter().filter(|&&p| p != id) {
                    out.connect_peer(p);
                }
            }
            None => {}
        }
        match ev {
            NodeEvent::Wire(Envelope::Msg { from, msg }) => replica.on_message(from, msg, &mut ctx),
            NodeEvent::Wire(Envelope::Request(req)) => replica.on_request(req, &mut ctx),
            NodeEvent::Wire(Envelope::Response(_)) => {}
            NodeEvent::Wire(Envelope::Shutdown) => break,
            NodeEvent::Timer { kind, token } => replica.on_timer(kind, token, &mut ctx),
            NodeEvent::Restart => {}
        }
        // A handled event may have activated a configuration; reconcile the
        // live link set with the replica's membership view before the next
        // recv so activation-time joins get warm links immediately.
        sync_peers(&replica, &mut peers, &out);
    }
}
