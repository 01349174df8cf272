//! The TCP runtime: one readiness loop per node, run to completion.
//!
//! Every node is **one OS thread** ([`reactor_loop`]) that owns the node's
//! listener, all of its sockets and its replica. A frame goes `socket
//! readable → decode → on_request / on_message → encode → stage → write`
//! on that thread with no queue and no wake-up in between: the single-server
//! queue the paper models a replica as. Readiness comes from `poll(2)`
//! (see [`crate::poll`] — hand-rolled FFI, no mio/tokio).
//!
//! **One pass of the loop**, in order:
//!
//! 1. *Read and handle.* Every readable connection is read until it would
//!    block; its [`paxi_codec::FrameDecoder`] re-assembles frames from
//!    arbitrary fragments, and each complete frame is handed straight to
//!    [`Node::handle`] (the first frame of a connection is the [`Hello`]
//!    handshake; see [`crate::tcp`] for the wire protocol and reply routing).
//! 2. *Timers.* [`Node::advance`] fires the replica's timers that have come
//!    due (they live in a heap inside the node; arming one is a push) and
//!    gives a node that has been quiet for a millisecond its storage tick.
//! 3. *Inbox.* What does not arrive on a socket — zero-delay timers,
//!    messages a replica sends to itself, the fault injector's restart
//!    wake-up, shutdown — waits in the node's inbox and is drained now. A
//!    zero-delay timer armed by a handler in step 1 therefore runs behind
//!    every frame that had already been read: "after the input already
//!    queued", the meaning it has in the simulator and on the channel
//!    runtime.
//! 4. *Write.* Handlers do not write to sockets; they encode each frame
//!    once, at the end of its connection's bounded staging buffer
//!    ([`ConnTx`]) — a broadcast once for all peers, copied to each. Every
//!    connection with staged bytes is now written with as few `write` calls
//!    as the socket accepts, so the frames one pass produced for one peer
//!    leave in one write. `POLLOUT` is asked for only where the socket did
//!    not take everything. A full buffer sheds the frame and charges
//!    [`DropCause::Backpressure`]; quorum protocols tolerate the loss and
//!    the ledger keeps it from reading as mystery attrition.
//! 5. *Poll*, for as long as [`Node::idle_for`] allows: until the next timer
//!    deadline or the next storage tick, at most a millisecond.
//!
//! (A node enters the cycle at step 2, after `on_start`.)
//!
//! **What still crosses threads**, and how each wakes the loop: shutdown
//! comes from whoever owns the cluster, and in a cluster launched with
//! fault injection the crash-recovery wake-ups come from the injector's
//! [`TimerService`] thread; both send through the node's [`InboxTx`], which
//! writes to the loop's [`WakePipe`] after queueing. Fault-injected
//! *delayed* sends ([`ChaosOut`]) stage their frame from that timer thread
//! and wake the loop the same way. A plain cluster has no thread but its
//! nodes'. The loop never wakes itself: staging from a handler skips the
//! pipe.
//!
//! **Fate parity with the simulator.** Fault injection wraps the node's
//! outbound half ([`ChaosOut`]) *before* bytes reach any socket, so a fixed
//! seed yields the same per-message fates here as in-process.
//!
//! [`PipelinedClient`] is the client-side counterpart: one connection, many
//! requests in flight, replies correlated by [`RequestId`], requests written
//! only when the client has to block for a reply. [`run_swarm`]
//! drives thousands of such pipelined connections from a single bench
//! thread — the load generator behind `repro reactor`.

use crate::envelope::Envelope;
use crate::faults::{ChaosOut, FaultInjector};
use crate::obs::{log_drop_once, ConnCounters, DropCounters};
use crate::poll::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::runtime::{InboxTx, Node, NodeEvent, Outbound, Remake};
use crate::tcp::Hello;
use crate::timer::TimerService;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use paxi_core::command::{ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::DropCause;
use paxi_core::traits::{Replica, ReplicaFactory};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Bytes staged per connection before backpressure sheds frames. Sized so a
/// slow-but-alive peer can absorb a large burst.
const OUT_BUF_CAP: usize = 4 * 1024 * 1024;
/// Read chunk per `read` call on a readable socket.
const READ_CHUNK: usize = 64 * 1024;
/// First reconnect delay; doubles per consecutive failure.
const RECONNECT_BASE: Duration = Duration::from_millis(10);
/// Reconnect delay ceiling.
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// Logged once per process when a framed envelope fails to encode.
static ENCODE_WARN: std::sync::Once = std::sync::Once::new();

/// Why a [`ConnTx::stage`] refused the frame.
#[derive(Debug, PartialEq, Eq)]
enum TxError {
    /// The connection is gone; bytes can never be delivered.
    Closed,
    /// The bounded buffer is full; the frame is shed (backpressure).
    Full,
    /// The value does not serialize.
    Encode,
}

/// The writer half of one connection, shared between whoever produces
/// frames for it (the loop thread's handlers, mostly; the timer thread for
/// fault-delayed sends) and the loop's write pass.
///
/// Producers serialize straight into the staged buffer under a short
/// critical section; the write pass swaps the buffer out wholesale, so the
/// lock is never held across a syscall. `queued` mirrors the staged length
/// so the write pass finds the connections with work without taking locks.
struct ConnTx {
    staged: Mutex<Vec<u8>>,
    queued: AtomicUsize,
    cap: usize,
    open: AtomicBool,
}

impl ConnTx {
    fn new(cap: usize) -> Self {
        ConnTx {
            staged: Mutex::new(Vec::new()),
            queued: AtomicUsize::new(0),
            cap,
            open: AtomicBool::new(true),
        }
    }

    /// Serializes `value` as one length-prefixed frame at the end of the
    /// staged buffer.
    fn stage<T: Serialize>(&self, value: &T) -> Result<(), TxError> {
        self.append(|staged| {
            paxi_codec::encode_frame_into(staged, value).map_err(|_| TxError::Encode)
        })
    }

    /// Copies one already encoded frame to the end of the staged buffer: a
    /// broadcast is encoded once and staged per peer.
    fn stage_frame(&self, frame: &[u8]) -> Result<(), TxError> {
        self.append(|staged| {
            staged.extend_from_slice(frame);
            Ok(())
        })
    }

    /// Lets `write` put one frame at the end of the staged buffer. Frames
    /// are staged whole or not at all, so neither an encode failure nor a
    /// capacity rejection leaves a torn frame on the wire.
    fn append(
        &self,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), TxError>,
    ) -> Result<(), TxError> {
        if !self.is_open() {
            return Err(TxError::Closed);
        }
        let mut staged = self.staged.lock();
        let before = staged.len();
        let outcome = match write(&mut staged) {
            Ok(()) if staged.len() > self.cap => Err(TxError::Full),
            outcome => outcome,
        };
        match outcome {
            // Release: pairs with the Acquire in `queued`, so a write pass
            // that sees the count also finds the bytes.
            Ok(()) => self.queued.store(staged.len(), Ordering::Release),
            Err(_) => staged.truncate(before),
        }
        outcome
    }

    /// Moves everything staged into `into` (which must be empty; its
    /// allocation becomes the next staging buffer).
    fn claim(&self, into: &mut Vec<u8>) {
        let mut staged = self.staged.lock();
        std::mem::swap(&mut *staged, into);
        self.queued.store(0, Ordering::Release);
    }

    /// Bytes staged and not yet claimed by the write pass.
    fn queued(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// Marks the connection dead: future stages fail with `Closed` and the
    /// loop tears the socket down on its next pass.
    fn close(&self) {
        self.open.store(false, Ordering::Release);
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// Reply route for one client.
#[derive(Clone)]
enum Route {
    /// The client is connected to this node on the given connection.
    Local(Arc<ConnTx>),
    /// The request came through this peer; send responses back that way.
    Via(NodeId),
}

/// Reconnect throttling state for one peer.
struct Backoff {
    next_attempt: Instant,
    delay: Duration,
}

/// One node's connections, routes and ledgers: what the loop thread shares
/// with the few other threads that produce frames for this node or wake it.
struct Net {
    me: NodeId,
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    peer_conns: Mutex<HashMap<NodeId, Arc<ConnTx>>>,
    backoff: Mutex<HashMap<NodeId, Backoff>>,
    jitter: Mutex<Rng64>,
    routes: Mutex<HashMap<ClientId, Route>>,
    /// Outbound dials, parked until the loop adopts them into its poll set.
    /// `None` once the loop has exited: nobody is left to adopt (or close) a
    /// connection, so none may be opened.
    dialed: Mutex<Option<Vec<ConnState>>>,
    waker: WakePipe,
    /// The loop's thread, so staging from a handler does not wake the loop
    /// that is running it.
    loop_thread: OnceLock<ThreadId>,
    /// Where a broadcast is encoded, once, before it is copied to each
    /// peer's connection. The loop's in practice: only its handlers
    /// broadcast through `to_nodes`.
    scratch: Mutex<Vec<u8>>,
    drops: DropCounters,
    conns: ConnCounters,
}

impl Net {
    /// Makes the loop start a pass soon. From the loop's own thread there
    /// is nothing to do: it is mid-pass, and both the inbox drain and the
    /// write pass are still ahead of it.
    fn wake(&self) {
        if self.loop_thread.get() != Some(&std::thread::current().id()) {
            self.waker.wake();
        }
    }

    /// Settles one staging attempt: a staged frame wakes the loop, a shed
    /// one is charged to its cause (`closed` says what a dead connection
    /// means to this caller), so no loss reads as mystery attrition.
    fn settle(&self, staged: Result<(), TxError>, closed: DropCause) {
        match staged {
            Ok(()) => self.wake(),
            Err(TxError::Full) => self.drops.record(DropCause::Backpressure),
            Err(TxError::Closed) => self.drops.record(closed),
            Err(TxError::Encode) => {
                self.drops.record(DropCause::Encode);
                log_drop_once(
                    &ENCODE_WARN,
                    DropCause::Encode,
                    "TCP envelope failed to encode",
                );
            }
        }
    }

    /// Best-effort framed send to a peer: stages onto the live connection,
    /// sheds under backpressure, redials (under backoff) if the link died.
    fn send_to_peer<T: Serialize>(&self, to: NodeId, env: &T) {
        self.send_via(to, |tx| tx.stage(env));
    }

    /// [`Net::send_to_peer`] for whatever `stage` puts on the connection.
    fn send_via(&self, to: NodeId, stage: impl Fn(&ConnTx) -> Result<(), TxError>) {
        let cached = self.peer_conns.lock().get(&to).cloned();
        if let Some(tx) = cached {
            match stage(&tx) {
                // Connection died: forget it, unless another thread already
                // replaced it with a fresh one.
                Err(TxError::Closed) => {
                    let mut conns = self.peer_conns.lock();
                    if conns.get(&to).is_some_and(|cur| Arc::ptr_eq(cur, &tx)) {
                        conns.remove(&to);
                    }
                }
                staged => return self.settle(staged, DropCause::Reconnect),
            }
        }
        // Frames lost while the peer link is down (dial failed, or the
        // backoff window is still closed) are reconnect-window losses.
        match self.connect_peer(to) {
            Some(tx) => self.settle(stage(&tx), DropCause::Reconnect),
            None => self.drops.record(DropCause::Reconnect),
        }
    }

    /// Dials `to` unless its backoff window is still closed. On success the
    /// connection is cached and the backoff cleared; on failure the next
    /// attempt is pushed out exponentially (with jitter, so a whole cluster
    /// redialing one recovered node doesn't stampede in lockstep).
    fn connect_peer(&self, to: NodeId) -> Option<Arc<ConnTx>> {
        if let Some(b) = self.backoff.lock().get(&to) {
            if Instant::now() < b.next_attempt {
                return None;
            }
        }
        let addr = *self.addrs.get(&to)?;
        match self.try_dial(addr) {
            Some(tx) => {
                self.backoff.lock().remove(&to);
                self.peer_conns.lock().insert(to, Arc::clone(&tx));
                Some(tx)
            }
            None => {
                let mut backoff = self.backoff.lock();
                let entry = backoff.entry(to).or_insert(Backoff {
                    next_attempt: Instant::now(),
                    delay: RECONNECT_BASE,
                });
                let jitter = 0.5 + self.jitter.lock().next_f64(); // factor in [0.5, 1.5)
                entry.next_attempt = Instant::now() + entry.delay.mul_f64(jitter);
                entry.delay = (entry.delay * 2).min(RECONNECT_MAX);
                None
            }
        }
    }

    /// Forgets any cached connection (and backoff state) for a departed
    /// peer; the loop tears the socket down on its next pass.
    fn drop_peer(&self, to: NodeId) {
        if let Some(tx) = self.peer_conns.lock().remove(&to) {
            tx.close();
            self.wake();
        }
        self.backoff.lock().remove(&to);
    }

    /// Dials `addr` (blocking connect, then nonblocking forever after),
    /// stages the peer handshake, and parks the socket for the loop.
    fn try_dial(&self, addr: SocketAddr) -> Option<Arc<ConnTx>> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).ok()?;
        let tx = Arc::new(ConnTx::new(OUT_BUF_CAP));
        tx.stage(&Hello::Peer(self.me)).ok()?;
        let mut c = ConnState::new(stream, Arc::clone(&tx));
        // Nothing arrives on a dial-out link (the remote replies over its own
        // outbound connection); pre-filling the identity keeps any stray
        // inbound frame from being misread as a handshake.
        c.identity = Some(Hello::Peer(self.me));
        {
            let mut dialed = self.dialed.lock();
            dialed.as_mut()?.push(c);
            self.conns.on_open();
        }
        self.wake();
        Some(tx)
    }

    fn deliver_response(&self, resp: ClientResponse) {
        let Some(route) = self.routes.lock().get(&resp.id.client).cloned() else {
            // The client's connection (and its routes) are already gone.
            self.drops.record(DropCause::NoRoute);
            return;
        };
        // Neither variant a client or a relaying peer sees carries an `M`.
        let env = Envelope::<()>::Response(resp);
        match route {
            // A dead client connection: nobody left to deliver to.
            Route::Local(tx) => self.settle(tx.stage(&env), DropCause::NoRoute),
            Route::Via(peer) => self.send_to_peer(peer, &env),
        }
    }
}

/// The node's outbound half, pluggable under [`ChaosOut`].
impl<M: Serialize + Clone + std::fmt::Debug + Send + 'static> Outbound<M> for Arc<Net> {
    fn to_node(&self, to: NodeId, env: Envelope<M>) {
        self.send_to_peer(to, &env);
    }
    fn to_nodes(&self, to: &[NodeId], env: Envelope<M>) {
        let mut frame = self.scratch.lock();
        frame.clear();
        if paxi_codec::encode_frame_into(&mut frame, &env).is_err() {
            // Lost once per peer that does not get it.
            for _ in to {
                self.settle(Err(TxError::Encode), DropCause::Encode);
            }
            return;
        }
        for &p in to {
            self.send_via(p, |tx| tx.stage_frame(&frame));
        }
    }
    fn to_client(&self, _client: ClientId, resp: ClientResponse) {
        self.deliver_response(resp);
    }
    fn connect_peer(&self, peer: NodeId) {
        // Warm-up dial: failure just arms the backoff; the next protocol
        // message retries through the normal send path.
        let _ = Net::connect_peer(self, peer);
    }
    fn disconnect_peer(&self, peer: NodeId) {
        self.drop_peer(peer);
    }
}

/// One connection's state inside the loop.
struct ConnState {
    stream: TcpStream,
    decoder: paxi_codec::FrameDecoder,
    identity: Option<Hello>,
    tx: Arc<ConnTx>,
    /// Bytes claimed from `tx` and not yet fully written.
    pending: Vec<u8>,
    pos: usize,
    /// The socket refused bytes; don't try again before it polls writable.
    blocked: bool,
}

impl ConnState {
    fn new(stream: TcpStream, tx: Arc<ConnTx>) -> Self {
        ConnState {
            stream,
            decoder: paxi_codec::FrameDecoder::new(),
            identity: None,
            tx,
            pending: Vec::new(),
            pos: 0,
            blocked: false,
        }
    }

    fn wants_write(&self) -> bool {
        self.pos < self.pending.len() || self.tx.queued() > 0
    }

    fn interest(&self) -> i16 {
        if self.blocked {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }
}

/// Reads until the socket would block, feeding the frame decoder and
/// dispatching every completed frame. `Err(())` means tear the connection
/// down (EOF, I/O error, or protocol violation).
fn handle_readable<R: Replica, O: Outbound<R::Msg>>(
    c: &mut ConnState,
    net: &Net,
    node: &mut Node<R, O>,
    buf: &mut [u8],
) -> Result<(), ()>
where
    R::Msg: DeserializeOwned,
{
    loop {
        let n = match c.stream.read(buf) {
            Ok(0) => return Err(()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        };
        c.decoder.feed(&buf[..n]);
        loop {
            match c.decoder.next_frame() {
                Ok(Some(frame)) => dispatch_frame(c, net, node, &frame)?,
                Ok(None) => break,
                Err(_) => return Err(()),
            }
        }
        // A short read means the socket buffer is drained; go on rather
        // than eating one extra WouldBlock syscall.
        if n < buf.len() {
            return Ok(());
        }
    }
}

/// Hands one decoded frame to whoever it is for: the handshake to the
/// connection, a relayed response to its route, everything else to the
/// replica, which runs here and now. (`handle` says stop only for a
/// shutdown, and that is the cluster owner's to give, through the inbox.)
fn dispatch_frame<R: Replica, O: Outbound<R::Msg>>(
    c: &mut ConnState,
    net: &Net,
    node: &mut Node<R, O>,
    frame: &[u8],
) -> Result<(), ()>
where
    R::Msg: DeserializeOwned,
{
    if c.identity.is_none() {
        let hello = paxi_codec::from_bytes::<Hello>(frame).map_err(|_| ())?;
        c.identity = Some(hello);
        return Ok(());
    }
    let env = paxi_codec::from_bytes::<Envelope<R::Msg>>(frame).map_err(|_| ())?;
    match (&c.identity, env) {
        (Some(Hello::Client(cid)), Envelope::Request(req)) => {
            net.routes
                .lock()
                .insert(*cid, Route::Local(Arc::clone(&c.tx)));
            node.handle(Some(NodeEvent::Wire(Envelope::Request(req))));
        }
        (Some(Hello::Peer(pid)), Envelope::Request(req)) => {
            // Forwarded request: remember the way back, unless we already
            // hold the client locally.
            let mut routes = net.routes.lock();
            if !matches!(routes.get(&req.id.client), Some(Route::Local(_))) {
                routes.insert(req.id.client, Route::Via(*pid));
            }
            drop(routes);
            node.handle(Some(NodeEvent::Wire(Envelope::Request(req))));
        }
        // A request before any handshake is a protocol violation.
        (None, Envelope::Request(_)) => return Err(()),
        // A relayed response passing through us toward the client.
        (_, Envelope::Response(resp)) => net.deliver_response(resp),
        (_, msg @ Envelope::Msg { .. }) => {
            node.handle(Some(NodeEvent::Wire(msg)));
        }
        (_, Envelope::Shutdown) => return Err(()),
    }
    Ok(())
}

/// Writes staged bytes until nothing is staged or the socket would block
/// (which sets `blocked`). The staged buffer is swapped out wholesale, so
/// producers are never blocked behind a syscall.
fn drain_write(c: &mut ConnState) -> Result<(), ()> {
    c.blocked = false;
    loop {
        if c.pos >= c.pending.len() {
            c.pending.clear();
            c.pos = 0;
            if c.tx.queued() == 0 {
                return Ok(());
            }
            c.tx.claim(&mut c.pending);
        }
        match c.stream.write(&c.pending[c.pos..]) {
            Ok(0) => return Err(()),
            Ok(n) => c.pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                c.blocked = true;
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// Tears one connection down: closes the writer handle so producers see
/// `Closed`, unhooks every route and peer slot pointing at it, closes the
/// socket, and balances the connection ledger.
fn close_conn(net: &Net, c: ConnState) {
    c.tx.close();
    net.routes
        .lock()
        .retain(|_, r| !matches!(r, Route::Local(tx) if Arc::ptr_eq(tx, &c.tx)));
    net.peer_conns
        .lock()
        .retain(|_, tx| !Arc::ptr_eq(tx, &c.tx));
    let _ = c.stream.shutdown(std::net::Shutdown::Both);
    net.conns.on_close();
}

/// Accepts until the listener would block.
fn accept_all(listener: &TcpListener, net: &Net, conns: &mut Vec<ConnState>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                net.conns.on_open();
                let tx = Arc::new(ConnTx::new(OUT_BUF_CAP));
                conns.push(ConnState::new(stream, tx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // WouldBlock: the backlog is empty.
            Err(_) => return,
        }
    }
}

/// One node: every socket and the replica, on the calling thread, until a
/// shutdown arrives through `inbox`. The module docs give the pass order.
///
/// Level-triggered `poll(2)` over the wake pipe, the listener, and all live
/// connections; `fds[i + 2]` is the entry of `conns[i]`.
fn reactor_loop<R, O>(
    listener: TcpListener,
    net: Arc<Net>,
    mut node: Node<R, O>,
    inbox: Receiver<NodeEvent<R::Msg>>,
) where
    R: Replica,
    R::Msg: DeserializeOwned,
    O: Outbound<R::Msg>,
{
    let _ = net.loop_thread.set(std::thread::current().id());
    let _ = listener.set_nonblocking(true);
    let mut conns: Vec<ConnState> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    node.start();
    'run: loop {
        // Timers: what has come due, and the storage tick after a quiet spell.
        node.advance(Instant::now());
        // Inbox: everything that did not arrive on a socket.
        while let Ok(ev) = inbox.try_recv() {
            if !node.handle(Some(ev)) {
                break 'run;
            }
        }
        // Adopt the dials the handlers (or a fault-delayed send) made.
        if let Some(dialed) = net.dialed.lock().as_mut() {
            conns.append(dialed);
        }
        // Write: one scan writes what this pass staged, reaps what it (or
        // `disconnect_peer`) closed, and rebuilds the poll set.
        fds.clear();
        fds.push(PollFd::new(net.waker.read_fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        let mut i = 0;
        while i < conns.len() {
            let c = &mut conns[i];
            let writable = c.wants_write() && !c.blocked;
            if !c.tx.is_open() || (writable && drain_write(c).is_err()) {
                close_conn(&net, conns.swap_remove(i));
                continue;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), c.interest()));
            i += 1;
        }
        match poll_fds(&mut fds, Some(node.idle_for(Instant::now()))) {
            Err(_) | Ok(0) => continue,
            Ok(_) => {}
        }
        if fds[0].returned(POLLIN) {
            net.waker.drain();
        }
        // Read and handle. Connections accepted below join `conns` past the
        // end of `fds` and are first polled next pass.
        for (c, fd) in conns.iter_mut().zip(&fds[2..]) {
            if fd.returned(POLLOUT) {
                c.blocked = false;
            }
            // A pure error/hangup with nothing readable is torn down now; a
            // hangup with data still buffered polls POLLIN too, the read
            // path consumes the tail, then sees EOF.
            let dead = if fd.returned(POLLIN) {
                handle_readable(c, &net, &mut node, &mut buf).is_err()
            } else {
                fd.broken()
            };
            if dead {
                c.tx.close();
            }
        }
        if fds[1].returned(POLLIN) {
            accept_all(&listener, &net, &mut conns);
        }
    }
    // Teardown: every connection still open is closed here, and no dial can
    // be parked any more, so the ledger balances (opens == closes) after an
    // orderly shutdown.
    let dialed = net.dialed.lock().take().unwrap_or_default();
    for c in conns.drain(..).chain(dialed) {
        close_conn(&net, c);
    }
}

/// A running TCP cluster on localhost: per node one listener and one thread,
/// which runs the sockets and the replica both.
pub struct TcpCluster<R: Replica> {
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    inboxes: HashMap<NodeId, InboxTx<R::Msg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_client: AtomicU32,
    drops: DropCounters,
    conns: ConnCounters,
    /// The fault injector's timer thread, for a chaotic cluster.
    _timers: Option<Arc<TimerService>>,
}

impl<R> TcpCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    /// Binds one listener per node on 127.0.0.1 and starts all replicas.
    pub fn launch<F>(cluster: ClusterConfig, factory: F) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, None)
    }

    /// Like [`TcpCluster::launch`], but with fault injection applied inside
    /// the transport: node→node frames pass through the injector's plan
    /// (Drop / Flaky / Slow) at the node's outbound half — the same
    /// [`ChaosOut`] wrapping as the other transports, so per-message fates
    /// are identical for a fixed seed — and crashed nodes freeze until their
    /// windows end, measured from this call.
    pub fn launch_chaotic<F>(
        cluster: ClusterConfig,
        factory: F,
        injector: Arc<FaultInjector>,
    ) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, Some(injector))
    }

    fn launch_inner<F>(
        cluster: ClusterConfig,
        factory: F,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        let drops = DropCounters::new();
        let conns = ConnCounters::new();
        let all = cluster.all_nodes();
        let mut listeners = Vec::new();
        let mut addrs = HashMap::new();
        for &id in &all {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(id, l.local_addr()?);
            listeners.push((id, l));
        }
        let addrs = Arc::new(addrs);
        // Fault injection is all that needs a thread besides the nodes' own:
        // delayed deliveries and recovery wake-ups.
        let chaos = faults.map(|inj| (inj, Arc::new(TimerService::new())));
        let epoch = Instant::now();
        let mut inboxes = HashMap::new();
        let mut handles = Vec::new();

        for (i, (id, listener)) in listeners.into_iter().enumerate() {
            let net = Arc::new(Net {
                me: id,
                addrs: Arc::clone(&addrs),
                peer_conns: Mutex::new(HashMap::new()),
                backoff: Mutex::new(HashMap::new()),
                jitter: Mutex::new(Rng64::seed(0x7C9 ^ id.pack() as u64)),
                routes: Mutex::new(HashMap::new()),
                dialed: Mutex::new(Some(Vec::new())),
                waker: WakePipe::new()?,
                loop_thread: OnceLock::new(),
                scratch: Mutex::new(Vec::new()),
                drops: drops.clone(),
                conns: conns.clone(),
            });
            let (tx, rx) = crossbeam::channel::unbounded::<NodeEvent<R::Msg>>();
            let tx = {
                let net = Arc::clone(&net);
                InboxTx::with_wake(tx, Arc::new(move || net.wake()))
            };
            inboxes.insert(id, tx.clone());
            let replica = factory.make(id);
            let peers = all.clone();
            let out = Arc::clone(&net);
            let seed = 0xBEEF + i as u64;
            // The benchmark's `transport.io_threads_cpu_share` counts the
            // threads named `paxi-tcp-*`.
            let builder = std::thread::Builder::new().name(format!("paxi-tcp-node-{}", id.pack()));
            let handle = match &chaos {
                Some((inj, timers)) => {
                    let out = ChaosOut::new(out, id, Arc::clone(inj), Arc::clone(timers));
                    let f = Arc::clone(&factory);
                    let remake: Remake<R> = Arc::new(move |id| f.make(id));
                    let node = Node::new(
                        id,
                        replica,
                        peers,
                        tx,
                        out,
                        epoch,
                        seed,
                        Some(Arc::clone(inj)),
                        Some(remake),
                    );
                    builder.spawn(move || reactor_loop(listener, net, node, rx))
                }
                None => {
                    let node = Node::new(id, replica, peers, tx, out, epoch, seed, None, None);
                    builder.spawn(move || reactor_loop(listener, net, node, rx))
                }
            }?;
            handles.push(handle);
        }
        if let Some((inj, timers)) = &chaos {
            inj.start(epoch);
            inj.schedule_recoveries(timers, &inboxes);
        }
        Ok(TcpCluster {
            addrs,
            inboxes,
            handles,
            next_client: AtomicU32::new(0),
            drops,
            conns,
            _timers: chaos.map(|(_, timers)| timers),
        })
    }

    /// Per-cause ledger of every frame this cluster's nodes shed (encode
    /// failures, full write buffers as [`DropCause::Backpressure`],
    /// reconnect-window losses, vanished reply routes); `Unexplained` stays
    /// zero. Fault-injected link and crash drops are charged to the
    /// [`FaultInjector`]'s own counters instead.
    pub fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// Connection lifecycle ledger (opens, closes, live, high-water mark)
    /// summed over every node. After [`TcpCluster::shutdown`],
    /// `opens() == closes()`.
    pub fn conn_stats(&self) -> &ConnCounters {
        &self.conns
    }

    /// The address of a node's listener.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[&node]
    }

    /// Connects a client to `attach`.
    pub fn client(&self, attach: NodeId) -> std::io::Result<PipelinedClient> {
        let id = ClientId(1_000_000 + self.next_client.fetch_add(1, Ordering::Relaxed));
        PipelinedClient::connect(self.addr(attach), id)
    }

    /// Stops every node's thread, which closes every socket and balances
    /// the connection ledger on its way out.
    pub fn shutdown(mut self) {
        for tx in self.inboxes.values() {
            tx.send(NodeEvent::Wire(Envelope::Shutdown));
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The name the runtime had while the threaded one existed beside it: the
/// same cluster, kept as a type of its own because the benchmark
/// (`perf/src/cluster.rs`) implements its `Cluster` trait for both names and
/// an alias would make those impls overlap. Delete with the next
/// benchmark-kind PR, which can drop that second impl.
pub struct ReactorCluster<R: Replica>(TcpCluster<R>);

impl<R> ReactorCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    /// [`TcpCluster::launch`].
    pub fn launch<F>(cluster: ClusterConfig, factory: F) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        TcpCluster::launch(cluster, factory).map(ReactorCluster)
    }

    /// [`TcpCluster::launch_chaotic`].
    pub fn launch_chaotic<F>(
        cluster: ClusterConfig,
        factory: F,
        injector: Arc<FaultInjector>,
    ) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        TcpCluster::launch_chaotic(cluster, factory, injector).map(ReactorCluster)
    }

    /// [`TcpCluster::drops`].
    pub fn drops(&self) -> &DropCounters {
        self.0.drops()
    }

    /// [`TcpCluster::conn_stats`].
    pub fn conn_stats(&self) -> &ConnCounters {
        self.0.conn_stats()
    }

    /// [`TcpCluster::addr`].
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.0.addr(node)
    }

    /// [`TcpCluster::client`].
    pub fn client(&self, attach: NodeId) -> std::io::Result<PipelinedClient> {
        self.0.client(attach)
    }

    /// [`TcpCluster::shutdown`].
    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

/// Encoded requests a [`PipelinedClient`] holds back at most; past this,
/// `submit` writes them out itself.
const CLIENT_STAGED_CAP: usize = 64 * 1024;
/// Read chunk of a [`PipelinedClient`].
const CLIENT_READ_CHUNK: usize = 16 * 1024;

/// A client that keeps many requests in flight on one connection.
///
/// [`PipelinedClient::submit`] encodes a request and returns immediately;
/// [`PipelinedClient::await_response`] blocks for one specific reply,
/// keeping any other outstanding request's reply that arrives first
/// (replies may complete out of submission order when requests are
/// forwarded between nodes). The blocking [`PipelinedClient::execute`] is
/// the sequential API of [`crate::SyncClient`] and [`crate::UdpClient`], so
/// routers and pools built on closures run unchanged.
///
/// **The client writes when it has to block.** Submitted requests are
/// staged in the client and leave in one `write` right before a `read` that
/// cannot be avoided: an `await_response` whose reply is not already in
/// hand. A client that refills its window while it works through a burst of
/// replies thus makes one system call per burst, not one per request; one
/// request at a time makes exactly the calls it would make unstaged. Call
/// [`PipelinedClient::flush`] to send without awaiting.
pub struct PipelinedClient {
    id: ClientId,
    seq: u64,
    stream: TcpStream,
    decoder: paxi_codec::FrameDecoder,
    /// Every request submitted and not yet returned or given up on, with
    /// its reply once that has arrived.
    inflight: HashMap<RequestId, Option<ClientResponse>>,
    timeout: Duration,
    /// Encoded requests not yet written.
    staged: Vec<u8>,
    read_buf: Box<[u8]>,
    /// The connection is of no more use: a write failed, the server closed
    /// it, or the bytes it sent are not frames.
    broken: bool,
}

impl PipelinedClient {
    /// Connects and handshakes.
    pub fn connect(addr: SocketAddr, id: ClientId) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Short read slices so await_response can interleave deadline
        // checks with reads.
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut hello = Vec::new();
        paxi_codec::encode_frame_into(&mut hello, &Hello::Client(id))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        stream.write_all(&hello)?;
        Ok(PipelinedClient {
            id,
            seq: 0,
            stream,
            decoder: paxi_codec::FrameDecoder::new(),
            inflight: HashMap::new(),
            timeout: Duration::from_secs(5),
            staged: Vec::new(),
            read_buf: vec![0; CLIENT_READ_CHUNK].into(),
            broken: false,
        })
    }

    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Overrides the per-await timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Queues one command without waiting; the returned id claims the reply
    /// later via [`PipelinedClient::await_response`], which is also what
    /// sends it (as does [`PipelinedClient::flush`], or a full staging
    /// buffer). Fails at once on a connection already known to be broken.
    pub fn submit(&mut self, cmd: Command) -> std::io::Result<RequestId> {
        if self.broken {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        let req_id = RequestId::new(self.id, self.seq);
        self.seq += 1;
        let env: Envelope<()> = Envelope::Request(paxi_core::ClientRequest { id: req_id, cmd });
        let before = self.staged.len();
        if let Err(e) = paxi_codec::encode_frame_into(&mut self.staged, &env) {
            self.staged.truncate(before);
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ));
        }
        if self.staged.len() >= CLIENT_STAGED_CAP {
            self.flush()?;
        }
        self.inflight.insert(req_id, None);
        Ok(req_id)
    }

    /// Writes every request submitted and not yet sent, in one `write` if
    /// the socket takes it. For a caller that submits and does not await.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.staged);
        self.staged.clear();
        // Part of a frame may have left: nothing after it can be framed.
        self.broken |= written.is_err();
        written
    }

    /// Blocks until the reply for `req_id` arrives (or the timeout lapses,
    /// or the connection breaks). Replies for other in-flight requests
    /// encountered on the way are kept and claimed by their own awaits —
    /// each reply is delivered exactly once. Either way `req_id` is no
    /// longer outstanding afterwards: the reply to a request that was given
    /// up on is discarded when it comes, as is one to a request this client
    /// never made.
    pub fn await_response(&mut self, req_id: RequestId) -> Option<ClientResponse> {
        let deadline = Instant::now() + self.timeout;
        loop {
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if let Ok(Envelope::<()>::Response(resp)) = paxi_codec::from_bytes(&frame) {
                            if let Some(slot) = self.inflight.get_mut(&resp.id) {
                                *slot = Some(resp);
                            }
                        }
                    }
                    Ok(None) => break,
                    // The stream lost its framing and will not find it again.
                    Err(_) => {
                        self.broken = true;
                        break;
                    }
                }
            }
            if !matches!(self.inflight.get(&req_id), Some(None))
                || self.broken
                || Instant::now() >= deadline
            {
                break;
            }
            // The reply is not in hand, so this call has to block: now, and
            // only now, what has been submitted must be on its way.
            if self.flush().is_err() {
                break;
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => self.broken = true,
                Ok(n) => self.decoder.feed(&self.read_buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => self.broken = true,
            }
        }
        self.inflight.remove(&req_id).flatten()
    }

    /// Executes one command, blocking for the matching response — the
    /// sequential API, for drop-in use where a [`crate::SyncClient`] would
    /// go.
    pub fn execute(&mut self, cmd: Command) -> Option<ClientResponse> {
        let req_id = self.submit(cmd).ok()?;
        self.await_response(req_id)
    }

    /// Convenience: `PUT key value`.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> Option<ClientResponse> {
        self.execute(Command::put(key, value))
    }

    /// Convenience: `GET key`.
    pub fn get(&mut self, key: u64) -> Option<ClientResponse> {
        self.execute(Command::get(key))
    }
}

/// What [`run_swarm`] measured.
#[derive(Debug, Clone, Copy)]
pub struct SwarmReport {
    /// Connections requested.
    pub target_conns: usize,
    /// Connections actually established (TCP connect + handshake staged).
    pub connected: usize,
    /// Responses received across all connections.
    pub completed: u64,
    /// Wall time of the measurement loop.
    pub elapsed: Duration,
}

impl SwarmReport {
    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One swarm connection: nonblocking socket, its own frame decoder, and a
/// staged-output cursor — the client-side mirror of the node loop's
/// per-connection state machine.
struct SwarmConn {
    stream: TcpStream,
    decoder: paxi_codec::FrameDecoder,
    out: Vec<u8>,
    pos: usize,
    seq: u64,
    id: ClientId,
}

impl SwarmConn {
    fn stage_request(&mut self) -> bool {
        let req_id = RequestId::new(self.id, self.seq);
        let key = self.seq % 128;
        self.seq += 1;
        let env: Envelope<()> = Envelope::Request(paxi_core::ClientRequest {
            id: req_id,
            cmd: Command::put(key, vec![self.seq as u8]),
        });
        paxi_codec::encode_frame_into(&mut self.out, &env).is_ok()
    }
}

/// Drives `conns` pipelined connections against one node from a single
/// thread, each keeping `window` requests in flight, for `duration`.
///
/// This is the connection-scalability load generator behind `repro
/// reactor`: the node serves the whole swarm from its one thread. Client
/// ids start at `first_client` (keep clear of other id ranges; the swarm
/// used by the bench starts at 4,000,000).
pub fn run_swarm(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    first_client: u32,
    duration: Duration,
) -> std::io::Result<SwarmReport> {
    let mut swarm: Vec<SwarmConn> = Vec::with_capacity(conns);
    for i in 0..conns {
        // Retry briefly: a localhost accept queue can overflow transiently
        // when thousands of connects arrive faster than the accept loop.
        let mut stream = None;
        for attempt in 0..40u64 {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5 * (attempt / 8 + 1))),
            }
        }
        let Some(stream) = stream else { continue };
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let id = ClientId(first_client + i as u32);
        let mut c = SwarmConn {
            stream,
            decoder: paxi_codec::FrameDecoder::new(),
            out: Vec::new(),
            pos: 0,
            seq: 0,
            id,
        };
        paxi_codec::encode_frame_into(&mut c.out, &Hello::Client(id))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        for _ in 0..window {
            c.stage_request();
        }
        swarm.push(c);
    }
    let connected = swarm.len();

    let start = Instant::now();
    let deadline = start + duration;
    let mut completed: u64 = 0;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    while !swarm.is_empty() && Instant::now() < deadline {
        fds.clear();
        for c in &swarm {
            let mut ev = POLLIN;
            if c.pos < c.out.len() {
                ev |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
        }
        if poll_fds(&mut fds, Some(Duration::from_millis(50))).is_err() {
            continue;
        }
        let now_past = Instant::now() >= deadline;
        let mut dead: Vec<usize> = Vec::new();
        for (i, fd) in fds.iter().enumerate() {
            let c = &mut swarm[i];
            if fd.broken() && !fd.returned(POLLIN) {
                dead.push(i);
                continue;
            }
            if fd.returned(POLLOUT) {
                match c.stream.write(&c.out[c.pos..]) {
                    Ok(0) => {
                        dead.push(i);
                        continue;
                    }
                    Ok(n) => {
                        c.pos += n;
                        if c.pos >= c.out.len() {
                            c.out.clear();
                            c.pos = 0;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead.push(i);
                        continue;
                    }
                }
            }
            if fd.returned(POLLIN) {
                let drop_conn = loop {
                    match c.stream.read(&mut buf) {
                        Ok(0) => break true,
                        Ok(n) => {
                            c.decoder.feed(&buf[..n]);
                            let mut bad = false;
                            loop {
                                match c.decoder.next_frame() {
                                    Ok(Some(frame)) => {
                                        if let Ok(Envelope::<()>::Response(_)) =
                                            paxi_codec::from_bytes(&frame)
                                        {
                                            completed += 1;
                                            // Closed loop per slot: replace
                                            // each completed request until
                                            // the deadline.
                                            if !now_past {
                                                c.stage_request();
                                            }
                                        }
                                    }
                                    Ok(None) => break,
                                    Err(_) => {
                                        bad = true;
                                        break;
                                    }
                                }
                            }
                            if bad {
                                break true;
                            }
                            if n < buf.len() {
                                break false;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break true,
                    }
                };
                if drop_conn {
                    dead.push(i);
                }
            }
        }
        // Remove dead connections back-to-front so indices stay valid.
        for &i in dead.iter().rev() {
            swarm.swap_remove(i);
        }
    }
    Ok(SwarmReport {
        target_conns: conns,
        connected,
        completed,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};

    fn bare_net(me: NodeId, addrs: HashMap<NodeId, SocketAddr>) -> Net {
        Net {
            me,
            addrs: Arc::new(addrs),
            peer_conns: Mutex::new(HashMap::new()),
            backoff: Mutex::new(HashMap::new()),
            jitter: Mutex::new(Rng64::seed(1)),
            routes: Mutex::new(HashMap::new()),
            dialed: Mutex::new(Some(Vec::new())),
            waker: WakePipe::new().unwrap(),
            loop_thread: OnceLock::new(),
            scratch: Mutex::new(Vec::new()),
            drops: DropCounters::new(),
            conns: ConnCounters::new(),
        }
    }

    fn launch(batch: Option<usize>) -> TcpCluster<paxi_protocols::paxos::MultiPaxos> {
        let cluster = ClusterConfig::lan(3);
        let cfg = batch.map_or_else(PaxosConfig::default, PaxosConfig::batched);
        TcpCluster::launch(cluster.clone(), paxos_cluster(cluster, cfg)).expect("launch")
    }

    /// Serializes to nothing and fails, after having written some bytes.
    struct Unencodable;

    impl Serialize for Unencodable {
        fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            use serde::ser::{Error, SerializeTuple};
            let mut t = s.serialize_tuple(2)?;
            t.serialize_element(&0xAAAA_AAAA_u32)?;
            Err(S::Error::custom("by design"))
        }
    }

    #[test]
    fn conn_tx_backpressure_rejects_whole_frames() {
        // A frame is a 4-byte length prefix and the value: 6 bytes for a
        // u16, 4 for a unit.
        let tx = ConnTx::new(10);
        assert_eq!(tx.stage(&7u16), Ok(()));
        assert_eq!(tx.stage(&8u16), Err(TxError::Full));
        // The rejected frame left nothing behind: a smaller frame that fits
        // still goes through, right after the first.
        assert_eq!(tx.stage(&()), Ok(()));
        assert_eq!(tx.queued(), 10);
        assert_eq!(*tx.staged.lock(), [2, 0, 0, 0, 7, 0, 0, 0, 0, 0]);
        tx.close();
        assert_eq!(tx.stage(&()), Err(TxError::Closed));
    }

    #[test]
    fn encode_failure_leaves_no_torn_frame_and_is_charged() {
        let tx = Arc::new(ConnTx::new(64));
        assert_eq!(tx.stage(&7u16), Ok(()));
        assert_eq!(tx.stage(&Unencodable), Err(TxError::Encode));
        assert_eq!(*tx.staged.lock(), [2, 0, 0, 0, 7, 0]);
        assert_eq!(tx.queued(), 6);

        let net = bare_net(NodeId::new(0, 0), HashMap::new());
        let peer = NodeId::new(0, 1);
        net.peer_conns.lock().insert(peer, Arc::clone(&tx));
        net.send_to_peer(peer, &Unencodable);
        assert_eq!(net.drops.get(DropCause::Encode), 1);
        assert_eq!(net.drops.total(), 1);
        assert_eq!(tx.queued(), 6);
    }

    #[test]
    fn full_write_buffer_is_charged_as_backpressure_not_silence() {
        let net = bare_net(NodeId::new(0, 0), HashMap::new());
        let tx = Arc::new(ConnTx::new(8)); // tiny: any response overflows
        let client = ClientId(77);
        net.routes
            .lock()
            .insert(client, Route::Local(Arc::clone(&tx)));
        let resp = ClientResponse::ok(RequestId::new(client, 0), Some(vec![1, 2, 3]));
        net.deliver_response(resp.clone());
        assert_eq!(net.drops.get(DropCause::Backpressure), 1);
        assert_eq!(tx.queued(), 0, "a shed frame stages nothing");
        // A closed connection is a vanished route, not backpressure.
        tx.close();
        net.deliver_response(resp);
        assert_eq!(net.drops.get(DropCause::NoRoute), 1);
        assert_eq!(net.drops.get(DropCause::Unexplained), 0);
        assert_eq!(net.drops.total(), 2);
    }

    #[test]
    fn a_broadcast_is_staged_whole_per_peer_with_the_ledger_of_a_send() {
        let net = Arc::new(bare_net(NodeId::new(0, 0), HashMap::new()));
        let (roomy, tiny) = (Arc::new(ConnTx::new(64)), Arc::new(ConnTx::new(8)));
        let peers = [NodeId::new(0, 1), NodeId::new(0, 2)];
        net.peer_conns.lock().insert(peers[0], Arc::clone(&roomy));
        net.peer_conns.lock().insert(peers[1], Arc::clone(&tiny));
        let env = Envelope::Msg {
            from: NodeId::new(0, 0),
            msg: 0xABCD_u32,
        };
        net.to_nodes(&peers, env.clone());
        // Byte for byte what a single send stages.
        let single = ConnTx::new(64);
        single.stage(&env).unwrap();
        assert_eq!(*roomy.staged.lock(), *single.staged.lock());
        // The peer whose buffer is full sheds the frame whole, on the ledger.
        assert_eq!(tiny.queued(), 0);
        assert_eq!(net.drops.get(DropCause::Backpressure), 1);
        assert_eq!(net.drops.total(), 1);
    }

    #[test]
    fn dead_peer_send_backs_off_and_charges_reconnect() {
        let mut addrs = HashMap::new();
        let target = NodeId::new(0, 1);
        addrs.insert(target, "127.0.0.1:1".parse().unwrap());
        let net = bare_net(NodeId::new(0, 0), addrs);
        for _ in 0..50 {
            net.send_to_peer(target, &0u64);
        }
        let backoff = net.backoff.lock();
        let state = backoff.get(&target).expect("backoff entry");
        assert!(state.delay > RECONNECT_BASE);
        assert_eq!(net.drops.get(DropCause::Reconnect), 50);
        assert_eq!(net.drops.total(), 50, "no other cause was charged");
    }

    #[test]
    fn a_burst_staged_at_once_arrives_once_and_in_order() {
        // 200 frames staged before the write pass runs leave in a handful
        // of coalesced writes; the reader must still decode every frame
        // exactly once, in order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut c = ConnState::new(stream, Arc::new(ConnTx::new(OUT_BUF_CAP)));
        for i in 0..200u32 {
            assert_eq!(c.tx.stage(&i), Ok(()));
        }
        assert!(c.wants_write());
        drain_write(&mut c).unwrap();
        assert!(
            !c.wants_write() && !c.blocked,
            "1600 bytes fit a socket buffer"
        );
        drop(c); // closes the socket: the reader sees EOF after the burst
        let mut bytes = Vec::new();
        peer.read_to_end(&mut bytes).unwrap();
        let mut decoder = paxi_codec::FrameDecoder::new();
        decoder.feed(&bytes);
        for i in 0..200u32 {
            let frame = decoder.next_frame().unwrap().expect("a frame is missing");
            assert_eq!(paxi_codec::from_bytes::<u32>(&frame).unwrap(), i);
        }
        assert_eq!(decoder.buffered(), 0, "nothing arrived twice");
    }

    #[test]
    fn a_blocked_socket_keeps_the_rest_and_asks_for_pollout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut c = ConnState::new(stream, Arc::new(ConnTx::new(64 * 1024 * 1024)));
        // More than any loopback socket buffer pair holds unread.
        let chunk = vec![0x5Au8; 1024 * 1024];
        for _ in 0..32 {
            assert_eq!(c.tx.stage(&chunk), Ok(()));
        }
        let staged = c.tx.queued();
        drain_write(&mut c).unwrap();
        assert!(c.blocked && c.wants_write());
        assert_eq!(c.interest(), POLLIN | POLLOUT);
        // The peer reads everything while the writer keeps draining: every
        // byte arrives, none twice.
        let reader = std::thread::spawn(move || {
            let mut total = 0usize;
            let mut buf = vec![0u8; 256 * 1024];
            while total < staged {
                total += peer.read(&mut buf).unwrap();
            }
            // Anything sent twice would still be on its way.
            peer.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            total + peer.read(&mut buf).unwrap_or(0)
        });
        while c.wants_write() {
            let mut fds = [PollFd::new(c.stream.as_raw_fd(), c.interest())];
            poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
            drain_write(&mut c).unwrap();
        }
        assert_eq!(c.interest(), POLLIN);
        assert_eq!(reader.join().unwrap(), staged);
    }

    #[test]
    fn paxos_over_tcp_localhost() {
        let run = launch(None);
        let mut client = run.client(NodeId::new(0, 0)).expect("connect");
        let w = client.put(1, b"tcp".to_vec()).expect("put");
        assert!(w.ok);
        let r = client.get(1).expect("get");
        assert_eq!(r.value, Some(b"tcp".to_vec()));
        let unexplained = run.drops().get(DropCause::Unexplained);
        let conns = run.conn_stats().clone();
        run.shutdown();
        assert_eq!(unexplained, 0);
        assert_eq!(
            conns.opens(),
            conns.closes(),
            "orderly shutdown closes every connection it opened"
        );
    }

    #[test]
    fn follower_forwarding_relays_replies() {
        let run = launch(None);
        // Attach to a follower: the request is forwarded to the leader and
        // the response relayed back through the follower's connection.
        let mut client = run.client(NodeId::new(0, 2)).expect("connect");
        for i in 0..10u64 {
            let w = client.put(i, vec![i as u8]).expect("put via follower");
            assert!(w.ok);
        }
        let r = client.get(5).expect("get");
        assert_eq!(r.value, Some(vec![5]));
        assert_eq!(run.drops().total(), 0);
        run.shutdown();
    }

    #[test]
    fn connect_disconnect_storm_leaks_no_connections() {
        let run = launch(None);
        // Storm: short-lived clients connecting, (sometimes) issuing one
        // command, and vanishing.
        for round in 0..40u64 {
            let node = NodeId::new(0, (round % 3) as u8);
            let mut c = run.client(node).expect("connect");
            if round % 4 == 0 {
                let w = c.put(round, vec![round as u8]).expect("put");
                assert!(w.ok);
            }
            drop(c);
        }
        // The cluster still serves a fresh client after the storm.
        let mut c = run.client(NodeId::new(0, 0)).expect("connect");
        assert!(c.put(1_000, b"alive".to_vec()).expect("put").ok);
        let stats = run.conn_stats().clone();
        assert!(
            stats.opens() >= 41,
            "every storm connection was accepted (opens = {})",
            stats.opens()
        );
        assert!(
            stats.hwm() < 41,
            "the storm's connections were reaped as they closed"
        );
        run.shutdown();
        assert_eq!(
            stats.opens(),
            stats.closes(),
            "a connection (and its fd) leaked through the churn"
        );
        assert_eq!(stats.live(), 0);
    }

    #[test]
    fn pipelined_client_many_in_flight_exactly_once() {
        let run = launch(Some(8));
        let mut client = run.client(NodeId::new(0, 0)).expect("connect");
        let n = 64u64;
        let mut ids = Vec::new();
        for i in 0..n {
            ids.push(
                client
                    .submit(Command::put(i, vec![i as u8]))
                    .expect("submit"),
            );
        }
        // Await in reverse submission order: every reply must be claimable
        // exactly once regardless of arrival order.
        let mut seen = std::collections::HashSet::new();
        for req_id in ids.iter().rev() {
            let resp = client.await_response(*req_id).expect("response");
            assert!(resp.ok);
            assert_eq!(resp.id, *req_id);
            assert!(seen.insert(resp.id), "reply delivered twice");
        }
        assert!(client.inflight.is_empty());
        for i in 0..n {
            let r = client.get(i).expect("get");
            assert_eq!(r.value, Some(vec![i as u8]), "key {i}");
        }
        run.shutdown();
    }

    /// A client whose "server" is the test itself: the other end of its
    /// connection, the handshake already read off it.
    fn hand_driven(id: ClientId) -> (PipelinedClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = PipelinedClient::connect(listener.local_addr().unwrap(), id).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut hello = [0u8; 64];
        let n = server.read(&mut hello).unwrap();
        let mut decoder = paxi_codec::FrameDecoder::new();
        decoder.feed(&hello[..n]);
        let frame = decoder.next_frame().unwrap().expect("the handshake");
        assert!(matches!(
            paxi_codec::from_bytes::<Hello>(&frame).unwrap(),
            Hello::Client(c) if c == id
        ));
        assert_eq!(decoder.buffered(), 0);
        (client, server)
    }

    /// Reads request frames off `server` until `n` have come; their ids.
    fn read_requests(server: &mut TcpStream, n: usize) -> Vec<RequestId> {
        let mut decoder = paxi_codec::FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut ids = Vec::new();
        while ids.len() < n {
            let got = server.read(&mut buf).expect("a request is missing");
            decoder.feed(&buf[..got]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                match paxi_codec::from_bytes::<Envelope<()>>(&frame).unwrap() {
                    Envelope::Request(req) => ids.push(req.id),
                    other => panic!("not a request: {other:?}"),
                }
            }
        }
        assert_eq!(decoder.buffered(), 0, "no partial frame was written");
        ids
    }

    /// Whether nothing at all is waiting to be read on `server`.
    fn wire_is_empty(server: &TcpStream) -> bool {
        server.set_nonblocking(true).unwrap();
        let empty = matches!(
            (&*server).read(&mut [0u8; 1]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        server.set_nonblocking(false).unwrap();
        empty
    }

    fn reply_to(server: &mut TcpStream, ids: &[RequestId]) {
        let mut bytes = Vec::new();
        for &id in ids {
            let env = Envelope::<()>::Response(ClientResponse::ok(id, None));
            paxi_codec::encode_frame_into(&mut bytes, &env).unwrap();
        }
        server.write_all(&bytes).unwrap();
    }

    #[test]
    fn submits_are_held_until_the_client_has_to_block() {
        let (mut client, mut server) = hand_driven(ClientId(9));
        let ids: Vec<_> = (0..5)
            .map(|k| client.submit(Command::get(k)).unwrap())
            .collect();
        assert!(wire_is_empty(&server), "submit alone writes nothing");
        // Nothing is in hand for the first: this await blocks, so it sends,
        // everything and in order.
        client.set_timeout(Duration::from_millis(20));
        assert_eq!(client.await_response(ids[0]), None, "nobody answered");
        assert_eq!(read_requests(&mut server, 5), ids);
        client.set_timeout(Duration::from_secs(5));

        // One burst of replies: the first await reads it, the others find
        // theirs in hand, so what is submitted between them stays put.
        reply_to(&mut server, &ids[1..]);
        let mut more = Vec::new();
        for &id in &ids[1..] {
            assert_eq!(client.await_response(id).expect("a reply").id, id);
            more.push(client.submit(Command::get(9)).unwrap());
        }
        assert!(wire_is_empty(&server), "no await had to block");
        // flush() is for whoever will not await.
        client.flush().unwrap();
        assert_eq!(read_requests(&mut server, 4), more);
        assert!(client.staged.is_empty());
        client.flush().unwrap();
        assert!(wire_is_empty(&server), "nothing is sent twice");
    }

    #[test]
    fn a_staged_buffer_over_its_cap_is_written_by_submit() {
        let (mut client, mut server) = hand_driven(ClientId(9));
        let value = vec![7u8; CLIENT_STAGED_CAP / 4];
        let mut ids = Vec::new();
        while client.staged.len() + value.len() < CLIENT_STAGED_CAP {
            ids.push(client.submit(Command::put(1, value.clone())).unwrap());
        }
        assert!(wire_is_empty(&server));
        // The one that crosses the cap takes everything with it.
        ids.push(client.submit(Command::put(1, value.clone())).unwrap());
        assert!(client.staged.is_empty());
        assert_eq!(read_requests(&mut server, ids.len()), ids);
        assert_eq!(client.inflight.len(), ids.len());
    }

    #[test]
    fn one_request_at_a_time_is_sent_by_its_own_await() {
        let (mut client, mut server) = hand_driven(ClientId(9));
        client.set_timeout(Duration::from_millis(20));
        assert_eq!(client.execute(Command::get(1)), None, "nobody answered");
        assert!(client.staged.is_empty());
        assert_eq!(
            read_requests(&mut server, 1),
            [RequestId::new(ClientId(9), 0)]
        );
        assert!(wire_is_empty(&server));
    }

    #[test]
    fn a_stream_that_loses_its_framing_is_a_broken_connection() {
        let (mut client, mut server) = hand_driven(ClientId(9));
        let first = client.submit(Command::get(1)).unwrap();
        let second = client.submit(Command::get(2)).unwrap();
        // A good reply, then a length prefix no frame may have.
        reply_to(&mut server, &[first]);
        let too_long = u32::try_from(paxi_codec::MAX_FRAME + 1).unwrap();
        server.write_all(&too_long.to_le_bytes()).unwrap();
        assert_eq!(client.await_response(first).expect("a reply").id, first);
        let start = Instant::now();
        assert_eq!(client.await_response(second), None);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "gave up at once, not at the 5 s deadline: {:?}",
            start.elapsed()
        );
        assert!(client.inflight.is_empty());
        let refused = client.submit(Command::get(3)).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(client.execute(Command::get(4)), None);
    }

    #[test]
    fn a_reply_that_comes_after_its_timeout_is_dropped_not_stashed() {
        // The "server" is this test: it answers the first request only
        // after the client has given up on it, together with the second.
        let id = ClientId(9);
        let (mut client, mut server) = hand_driven(id);
        client.set_timeout(Duration::from_millis(20));

        let first = client.submit(Command::get(1)).unwrap();
        assert_eq!(client.await_response(first), None, "nobody answered");
        assert!(
            client.inflight.is_empty(),
            "a request given up on is not outstanding"
        );

        client.set_timeout(Duration::from_secs(5));
        let second = client.submit(Command::get(2)).unwrap();
        let mut late = Vec::new();
        for (req, value) in [(first, 1u8), (second, 2), (RequestId::new(id, 99), 3)] {
            let resp = ClientResponse::ok(req, Some(vec![value]));
            paxi_codec::encode_frame_into(&mut late, &Envelope::<()>::Response(resp)).unwrap();
        }
        server.write_all(&late).unwrap();
        let resp = client
            .await_response(second)
            .expect("the second request's reply");
        assert_eq!((resp.id, resp.value), (second, Some(vec![2])));
        // The third frame answers a request never made; read past it.
        let third = client.submit(Command::get(3)).unwrap();
        let resp = ClientResponse::ok(third, Some(vec![4]));
        let mut frame = Vec::new();
        paxi_codec::encode_frame_into(&mut frame, &Envelope::<()>::Response(resp)).unwrap();
        server.write_all(&frame).unwrap();
        assert_eq!(client.await_response(third).unwrap().value, Some(vec![4]));
        assert!(client.inflight.is_empty(), "neither stray reply was kept");
    }

    #[test]
    fn swarm_of_pipelined_connections_completes_work() {
        let run = launch(Some(8));
        let report = run_swarm(
            run.addr(NodeId::new(0, 0)),
            32,
            4,
            4_000_000,
            Duration::from_millis(400),
        )
        .expect("swarm");
        assert_eq!(report.connected, 32, "all connections established");
        assert!(report.completed > 0, "swarm made progress");
        let unexplained = run.drops().get(DropCause::Unexplained);
        let conns = run.conn_stats().clone();
        run.shutdown();
        assert_eq!(unexplained, 0);
        assert_eq!(conns.opens(), conns.closes());
        assert!(conns.hwm() >= 32, "the whole swarm was live at once");
    }
}
