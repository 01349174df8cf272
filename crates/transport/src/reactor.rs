//! The TCP runtime: one readiness loop per node, run to completion.
//!
//! Every node is **one OS thread** ([`reactor_loop`]) that owns the node's
//! listener and its [`Node`]: the replica, and the [`Net`] it sends
//! through, which holds every socket, reply route and peer link. A frame
//! goes `socket readable → decode → on_request / on_message → encode →
//! stage → write` on that thread with no queue and no wake-up in between:
//! the single-server queue the paper models a replica as. Readiness comes
//! from `poll(2)` (see [`crate::poll`] — hand-rolled FFI, no mio/tokio).
//!
//! **One pass of the loop**, in order:
//!
//! 1. *Read and handle.* Every readable connection is read until it would
//!    block; its [`paxi_codec::FrameDecoder`] re-assembles frames from
//!    arbitrary fragments, and each complete frame is handed straight to
//!    [`Node::handle`] (the first frame of a connection is the [`Hello`]
//!    handshake; see [`crate::tcp`] for the wire protocol and reply routing).
//! 2. *Timers.* [`Node::advance`] releases the fault-delayed frames and
//!    fires the replica's timers that have come due (both wait inside the
//!    node; arming one is a push) and gives a node that has been quiet for
//!    a millisecond its storage tick.
//! 3. *Inbox.* What does not arrive on a socket — zero-delay timers,
//!    messages a replica sends to itself, shutdown — waits in the node's
//!    inbox and is drained now. A zero-delay timer armed by a handler in
//!    step 1 therefore runs behind every frame that had already been read:
//!    "after the input already queued", the meaning it has in the simulator
//!    and on the channel runtime.
//! 4. *Write.* Handlers do not write to sockets; they encode each frame
//!    once, at the end of its connection's bounded staging buffer
//!    ([`Conn`]) — a broadcast once for all peers, copied to each. Every
//!    connection with staged bytes is now written with as few `write` calls
//!    as the socket accepts, so the frames one pass produced for one peer
//!    leave in one write. `POLLOUT` is asked for only where the socket did
//!    not take everything. A full buffer sheds the frame and charges
//!    [`DropCause::Backpressure`]; quorum protocols tolerate the loss and
//!    the ledger keeps it from reading as mystery attrition.
//! 5. *Poll*, for as long as [`Node::idle_for`] allows: until the next timer
//!    deadline, delayed frame or storage tick, at most a millisecond.
//!
//! (A node enters the cycle at step 2, after `on_start`.)
//!
//! **Connections** sit in one table, keyed by a [`ConnId`] that is never
//! reused. A reply route or a peer link names its connection by id, so a
//! connection that has closed is not found, and no later one is found in
//! its place. A dial goes straight into the table; the next write pass
//! sends its handshake.
//!
//! **Peer links.** A pair of nodes shares one connection and both write on
//! it, so a reply travels back on the connection its request came in on
//! and carries the TCP acknowledgement of that request. [`TcpCluster`]
//! builds every pair's connection before any node runs ([`mesh`]): the
//! lower [`NodeId`] connects, the higher accepts. Afterwards only the lower
//! end dials, to replace a link that closed: on its next send to that peer
//! and before every write pass of its loop, under exponential backoff. The
//! higher end adopts the newest [`Hello::Peer`] from the lower one and,
//! while it has no link, charges what it sends to [`DropCause::Reconnect`].
//! A pair therefore never has two live links, and a link delivers in order.
//!
//! **What crosses threads**: only shutdown, from whoever owns the cluster,
//! through the clone of the node's inbox `Sender` that [`TcpCluster`]
//! keeps. Nothing wakes the loop for it: the poll sleeps at most a
//! millisecond ([`Node::idle_for`]) and step 3 of the next pass reads it.
//! The rest is the loop's alone and is reached through `&mut`; self-sends,
//! zero-delay timers and staged frames wake nothing either, so the loop
//! never wakes itself. A cluster has no thread but its nodes', with fault
//! injection or without.
//!
//! **Faults.** Link fates are decided in the node's context ([`Node`])
//! *before* bytes reach any socket, by the function the simulator and the
//! other transports call.
//!
//! [`PipelinedClient`] is the client-side counterpart: one connection, many
//! requests in flight, replies correlated by [`RequestId`], requests written
//! only when the client has to block for a reply. [`run_swarm`]
//! drives thousands of such pipelined connections from a single bench
//! thread — the load generator behind `repro reactor`.

use crate::envelope::Envelope;
use crate::obs::{log_drop_once, ConnCounters, DropCounters};
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::runtime::{chaos, shut_down, Node, NodeEvent, Outbound};
use crate::tcp::Hello;
use paxi_core::command::{ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::faults::FaultPlan;
use paxi_core::hash::FxHashMap;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::DropCause;
use paxi_core::traits::{Replica, ReplicaFactory};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
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

/// Names a connection in its node's table. Never reused.
type ConnId = u64;

/// Why a frame was not staged.
#[derive(Debug, PartialEq, Eq)]
enum TxError {
    /// The connection is gone; bytes can never be delivered.
    Closed,
    /// The bounded buffer is full; the frame is shed (backpressure).
    Full,
    /// The value does not serialize.
    Encode,
}

/// One connection: its socket, the frames being read off it, and the bytes
/// waiting to be written to it.
struct Conn {
    stream: TcpStream,
    decoder: paxi_codec::FrameDecoder,
    /// Who is at the other end: the handshake of an inbound connection, the
    /// peer dialed for an outbound one.
    identity: Option<Hello>,
    /// Frames staged since the write pass last took them.
    staged: Vec<u8>,
    /// How many bytes `staged` may hold.
    cap: usize,
    /// Bytes taken from `staged` and not yet fully written.
    pending: Vec<u8>,
    pos: usize,
    /// The socket refused bytes; don't try again before it polls writable.
    blocked: bool,
}

impl Conn {
    /// A link to `peer`, nonblocking. Frames arrive on it from the peer, so
    /// its identity is set: none of them is read as a handshake.
    fn peer(stream: TcpStream, peer: NodeId) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        Ok(Conn::new(stream, Some(Hello::Peer(peer))))
    }

    fn new(stream: TcpStream, identity: Option<Hello>) -> Self {
        Conn {
            stream,
            decoder: paxi_codec::FrameDecoder::new(),
            identity,
            staged: Vec::new(),
            cap: OUT_BUF_CAP,
            pending: Vec::new(),
            pos: 0,
            blocked: false,
        }
    }

    /// Serializes `value` as one length-prefixed frame at the end of the
    /// staged buffer.
    fn stage<T: Serialize>(&mut self, value: &T) -> Result<(), TxError> {
        self.append(|staged| {
            paxi_codec::encode_frame_into(staged, value).map_err(|_| TxError::Encode)
        })
    }

    /// Copies one already encoded frame to the end of the staged buffer: a
    /// broadcast is encoded once and staged per peer.
    fn stage_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        self.append(|staged| {
            staged.extend_from_slice(frame);
            Ok(())
        })
    }

    /// Lets `write` put one frame at the end of the staged buffer. Frames
    /// are staged whole or not at all, so neither an encode failure nor a
    /// capacity rejection leaves a torn frame on the wire.
    fn append(
        &mut self,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), TxError>,
    ) -> Result<(), TxError> {
        let before = self.staged.len();
        let outcome = match write(&mut self.staged) {
            Ok(()) if self.staged.len() > self.cap => Err(TxError::Full),
            outcome => outcome,
        };
        if outcome.is_err() {
            self.staged.truncate(before);
        }
        outcome
    }

    fn wants_write(&self) -> bool {
        self.pos < self.pending.len() || !self.staged.is_empty()
    }

    fn interest(&self) -> i16 {
        POLLIN | if self.blocked { POLLOUT } else { 0 }
    }

    /// Writes staged bytes until nothing is staged or the socket would
    /// block (which sets `blocked`). `Err(())` means tear the connection
    /// down.
    fn write(&mut self) -> Result<(), ()> {
        self.blocked = false;
        loop {
            if self.pos >= self.pending.len() {
                self.pending.clear();
                self.pos = 0;
                if self.staged.is_empty() {
                    return Ok(());
                }
                std::mem::swap(&mut self.staged, &mut self.pending);
            }
            match self.stream.write(&self.pending[self.pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.blocked = true;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }
}

/// Reply route for one client.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The client is connected to this node on the given connection.
    Local(ConnId),
    /// The request came through this peer; send responses back that way.
    Via(NodeId),
}

/// Reconnect throttling state for one peer.
struct Backoff {
    next_attempt: Instant,
    delay: Duration,
}

/// One node's connections, routes and ledgers: what its [`Node`] sends
/// through, owned by the node and so by the loop's thread.
struct Net {
    me: NodeId,
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    /// Every open connection.
    conns: FxHashMap<ConnId, Conn>,
    /// The id the next connection gets.
    next_id: ConnId,
    /// The one connection to each peer, which this node writes that peer
    /// on and reads it from; never a closed one.
    peers: FxHashMap<NodeId, ConnId>,
    backoff: FxHashMap<NodeId, Backoff>,
    jitter: Rng64,
    routes: FxHashMap<ClientId, Route>,
    /// Where a broadcast is encoded, once, before it is copied to each
    /// peer's connection.
    scratch: Vec<u8>,
    drops: DropCounters,
    ledger: ConnCounters,
}

impl Net {
    fn new(
        me: NodeId,
        addrs: Arc<HashMap<NodeId, SocketAddr>>,
        drops: DropCounters,
        ledger: ConnCounters,
    ) -> Net {
        Net {
            me,
            addrs,
            conns: FxHashMap::default(),
            next_id: 0,
            peers: FxHashMap::default(),
            backoff: FxHashMap::default(),
            jitter: Rng64::seed(0x7C9 ^ me.pack() as u64),
            routes: FxHashMap::default(),
            scratch: Vec::new(),
            drops,
            ledger,
        }
    }

    /// Puts `conn` in the table under a fresh id.
    fn open(&mut self, conn: Conn) -> ConnId {
        let id = self.next_id;
        self.next_id += 1;
        self.conns.insert(id, conn);
        self.ledger.on_open();
        id
    }

    /// Records the handshake of connection `id`. A client's replies go back
    /// on that connection from now on; a peer below this node dialed it to
    /// replace its link, so it becomes the link and an older one, which
    /// the peer has given up on, is closed.
    fn hello(&mut self, id: ConnId, hello: Hello) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.identity = Some(hello);
        }
        match hello {
            Hello::Client(client) => {
                self.routes.insert(client, Route::Local(id));
            }
            Hello::Peer(peer) if peer < self.me => {
                if let Some(old) = self.peers.insert(peer, id) {
                    self.close(old);
                }
            }
            Hello::Peer(_) => {}
        }
    }

    /// Makes `conn` this node's link to `peer`.
    fn link(&mut self, peer: NodeId, conn: Conn) -> ConnId {
        let id = self.open(conn);
        self.peers.insert(peer, id);
        id
    }

    /// Tears connection `id` down, if it is still open: unhooks the reply
    /// route or peer link naming it, closes the socket, and balances the
    /// connection ledger.
    fn close(&mut self, id: ConnId) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        match c.identity {
            Some(Hello::Client(client)) if self.routes.get(&client) == Some(&Route::Local(id)) => {
                self.routes.remove(&client);
            }
            Some(Hello::Peer(peer)) if self.peers.get(&peer) == Some(&id) => {
                self.peers.remove(&peer);
            }
            _ => {}
        }
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
        self.ledger.on_close();
    }

    /// Lets `stage` put a frame on connection `id`.
    fn stage_on(
        &mut self,
        id: ConnId,
        stage: impl FnOnce(&mut Conn) -> Result<(), TxError>,
    ) -> Result<(), TxError> {
        self.conns.get_mut(&id).map_or(Err(TxError::Closed), stage)
    }

    /// Settles one staging attempt: a shed frame is charged to its cause
    /// (`closed` says what a dead connection means to this caller), so no
    /// loss reads as mystery attrition.
    fn settle(&self, staged: Result<(), TxError>, closed: DropCause) {
        match staged {
            Ok(()) => {}
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

    /// Best-effort send to a peer of whatever `stage` puts on its link:
    /// sheds under backpressure; with no link, dials (under backoff) if
    /// this node is the lower end.
    fn send_to_peer(&mut self, to: NodeId, stage: impl FnOnce(&mut Conn) -> Result<(), TxError>) {
        let link = self.peers.get(&to).copied();
        // No link and none to be had (the higher end waits for the lower to
        // dial, the dial failed, or the backoff window is still closed): a
        // reconnect-window loss.
        let Some(id) = link.or_else(|| self.connect_peer(to)) else {
            return self.drops.record(DropCause::Reconnect);
        };
        let staged = self.stage_on(id, stage);
        self.settle(staged, DropCause::Reconnect);
    }

    /// Dials `to`, a peer above this node, unless its backoff window is
    /// still closed. On success the link is kept and the backoff cleared;
    /// on failure the next attempt is pushed out exponentially (with
    /// jitter, so a whole cluster redialing one recovered node doesn't
    /// stampede in lockstep).
    fn connect_peer(&mut self, to: NodeId) -> Option<ConnId> {
        let now = Instant::now();
        if to < self.me || self.backoff.get(&to).is_some_and(|b| now < b.next_attempt) {
            return None;
        }
        let addr = *self.addrs.get(&to)?;
        match self.dial(to, addr) {
            Some(conn) => {
                self.backoff.remove(&to);
                Some(self.link(to, conn))
            }
            None => {
                let entry = self.backoff.entry(to).or_insert(Backoff {
                    next_attempt: Instant::now(),
                    delay: RECONNECT_BASE,
                });
                let jitter = 0.5 + self.jitter.next_f64(); // factor in [0.5, 1.5)
                entry.next_attempt = Instant::now() + entry.delay.mul_f64(jitter);
                entry.delay = (entry.delay * 2).min(RECONNECT_MAX);
                None
            }
        }
    }

    /// From the loop's pass: dials each peer above this node that has no
    /// link, as its backoff allows, so the higher end can send again
    /// without waiting for this one to.
    fn redial(&mut self) {
        let (addrs, me) = (Arc::clone(&self.addrs), self.me);
        for &peer in addrs.keys().filter(|&&p| p > me) {
            if !self.peers.contains_key(&peer) {
                self.connect_peer(peer);
            }
        }
    }

    /// Dials peer `to` at `addr` (blocking connect, then nonblocking forever
    /// after): the link, its handshake staged.
    fn dial(&self, to: NodeId, addr: SocketAddr) -> Option<Conn> {
        let mut c = Conn::peer(TcpStream::connect(addr).ok()?, to).ok()?;
        c.stage(&Hello::Peer(self.me)).ok()?;
        Some(c)
    }

    fn deliver_response(&mut self, resp: ClientResponse) {
        let Some(&route) = self.routes.get(&resp.id.client) else {
            // The client's connection (and its route) is already gone.
            self.drops.record(DropCause::NoRoute);
            return;
        };
        // Neither variant a client or a relaying peer sees carries an `M`.
        let env = Envelope::<()>::Response(resp);
        match route {
            Route::Local(id) => {
                let staged = self.stage_on(id, |c| c.stage(&env));
                self.settle(staged, DropCause::NoRoute);
            }
            Route::Via(peer) => self.send_to_peer(peer, |c| c.stage(&env)),
        }
    }

    /// Step 4 of the pass: writes every connection with staged bytes,
    /// closes those whose socket failed, and adds the others to the poll
    /// set, connection `ids[i]` as `fds[i + 1]`.
    fn write_pass(&mut self, fds: &mut Vec<PollFd>, ids: &mut Vec<ConnId>) {
        ids.clear();
        let mut failed = Vec::new();
        for (&id, c) in &mut self.conns {
            if c.wants_write() && !c.blocked && c.write().is_err() {
                failed.push(id);
                continue;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), c.interest()));
            ids.push(id);
        }
        for id in failed {
            self.close(id);
        }
    }
}

/// The node's outbound half.
impl<M: Serialize + Clone + std::fmt::Debug + Send + 'static> Outbound<M> for Net {
    fn to_node(&mut self, to: NodeId, env: Envelope<M>) {
        self.send_to_peer(to, |c| c.stage(&env));
    }
    fn to_nodes(&mut self, to: &[NodeId], env: Envelope<M>) {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        if paxi_codec::encode_frame_into(&mut frame, &env).is_ok() {
            for &p in to {
                self.send_to_peer(p, |c| c.stage_frame(&frame));
            }
        } else {
            // Lost once per peer that does not get it.
            for _ in to {
                self.settle(Err(TxError::Encode), DropCause::Encode);
            }
        }
        self.scratch = frame;
    }
    fn to_client(&mut self, _client: ClientId, resp: ClientResponse) {
        self.deliver_response(resp);
    }
    fn drops(&self) -> Option<&DropCounters> {
        Some(&self.drops)
    }
}

/// Reads connection `id` until its socket would block, feeding the frame
/// decoder and dispatching every completed frame. `Err(())` means tear the
/// connection down (EOF, I/O error, or protocol violation), or that a
/// handler already has.
fn handle_readable<R: Replica>(
    id: ConnId,
    node: &mut Node<R, Net>,
    buf: &mut [u8],
) -> Result<(), ()>
where
    R::Msg: Serialize + DeserializeOwned,
{
    loop {
        let c = node.out().conns.get_mut(&id).ok_or(())?;
        let n = match c.stream.read(buf) {
            Ok(0) => return Err(()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        };
        c.decoder.feed(&buf[..n]);
        loop {
            let c = node.out().conns.get_mut(&id).ok_or(())?;
            match c.decoder.next_frame() {
                Ok(Some(frame)) => dispatch_frame(id, node, &frame)?,
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

/// Hands one decoded frame of connection `id` to whoever it is for: the
/// handshake to the connection, a relayed response to its route, everything
/// else to the replica, which runs here and now. (`handle` says stop only
/// for a shutdown, and that is the cluster owner's to give, through the
/// inbox.)
fn dispatch_frame<R: Replica>(id: ConnId, node: &mut Node<R, Net>, frame: &[u8]) -> Result<(), ()>
where
    R::Msg: Serialize + DeserializeOwned,
{
    let net = node.out();
    let Some(identity) = net.conns.get(&id).ok_or(())?.identity else {
        let hello = paxi_codec::from_bytes::<Hello>(frame).map_err(|_| ())?;
        net.hello(id, hello);
        return Ok(());
    };
    let env = paxi_codec::from_bytes::<Envelope<R::Msg>>(frame).map_err(|_| ())?;
    match (identity, env) {
        (Hello::Peer(pid), Envelope::Request(req)) => {
            // Forwarded request: remember the way back, unless we hold the
            // client locally.
            if !matches!(net.routes.get(&req.id.client), Some(Route::Local(_))) {
                net.routes.insert(req.id.client, Route::Via(pid));
            }
            node.handle(Some(NodeEvent::Wire(Envelope::Request(req))));
        }
        // A relayed response passing through us toward the client.
        (_, Envelope::Response(resp)) => net.deliver_response(resp),
        (_, Envelope::Shutdown) => return Err(()),
        (_, env) => {
            node.handle(Some(NodeEvent::Wire(env)));
        }
    }
    Ok(())
}

/// Accepts until the listener would block.
fn accept_all(listener: &TcpListener, net: &mut Net) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                net.open(Conn::new(stream, None));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // WouldBlock: the backlog is empty.
            Err(_) => return,
        }
    }
}

/// Links every pair of `nets` (in id order; `listeners[i]` is `nets[i]`'s)
/// with one connection before any node runs: the lower id connects, the
/// higher accepts, and each end enters it as its link to the other, with
/// no handshake on it.
fn mesh(nets: &mut [Net], listeners: &[TcpListener]) -> std::io::Result<()> {
    for hi in 0..nets.len() {
        for lo in 0..hi {
            let (lo_id, hi_id) = (nets[lo].me, nets[hi].me);
            let out = TcpStream::connect(listeners[hi].local_addr()?)?;
            // Blocking, and nothing else can have connected yet: this is it.
            let (accepted, _) = listeners[hi].accept()?;
            nets[lo].link(hi_id, Conn::peer(out, hi_id)?);
            nets[hi].link(lo_id, Conn::peer(accepted, lo_id)?);
        }
    }
    Ok(())
}

/// One node: every socket and the replica, on the calling thread, until a
/// shutdown arrives through `inbox`. The module docs give the pass order.
///
/// Level-triggered `poll(2)` over the listener and all open connections.
fn reactor_loop<R>(
    listener: TcpListener,
    mut node: Node<R, Net>,
    inbox: Receiver<NodeEvent<R::Msg>>,
) where
    R: Replica,
    R::Msg: Serialize + DeserializeOwned,
{
    let _ = listener.set_nonblocking(true);
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<ConnId> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    node.start();
    'run: loop {
        // Timers and delayed frames: what has come due, and the storage tick
        // after a quiet spell.
        node.advance(Instant::now());
        // Inbox: everything that did not arrive on a socket.
        while let Ok(ev) = inbox.try_recv() {
            if !node.handle(Some(ev)) {
                break 'run;
            }
        }
        // Write: after the lower end dials each link that closed, one scan
        // writes what this pass staged, closes the connections whose socket
        // failed, and rebuilds the poll set.
        node.out().redial();
        fds.clear();
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        node.out().write_pass(&mut fds, &mut ids);
        match poll_fds(&mut fds, Some(node.idle_for(Instant::now()))) {
            Err(_) | Ok(0) => continue,
            Ok(_) => {}
        }
        // Read and handle. A connection a handler closed is gone from the
        // table and skipped; one dialed or accepted now is first polled
        // next pass.
        for (&id, fd) in ids.iter().zip(&fds[1..]) {
            let Some(c) = node.out().conns.get_mut(&id) else {
                continue;
            };
            if fd.returned(POLLOUT) {
                c.blocked = false;
            }
            // A pure error/hangup with nothing readable is torn down now; a
            // hangup with data still buffered polls POLLIN too, the read
            // path consumes the tail, then sees EOF.
            let dead = if fd.returned(POLLIN) {
                handle_readable(id, &mut node, &mut buf).is_err()
            } else {
                fd.broken()
            };
            if dead {
                node.out().close(id);
            }
        }
        if fds[0].returned(POLLIN) {
            accept_all(&listener, node.out());
        }
    }
    // Teardown: every connection still open is closed here, so the ledger
    // balances (opens == closes) after an orderly shutdown.
    let net = node.out();
    let open: Vec<ConnId> = net.conns.keys().copied().collect();
    for id in open {
        net.close(id);
    }
}

/// A running TCP cluster on localhost: per node one listener and one thread,
/// which runs the sockets and the replica both.
pub struct TcpCluster<R: Replica> {
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    /// Each node's inbox, for shutdown.
    inboxes: Vec<Sender<NodeEvent<R::Msg>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_client: AtomicU32,
    drops: DropCounters,
    conns: ConnCounters,
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

    /// Like [`TcpCluster::launch`], but under `plan`, applied inside the
    /// transport: node→node frames pass through its link rules (Drop /
    /// Flaky / Slow) in the sending node, as on the other transports, and
    /// crashed nodes freeze until their windows end, measured from this
    /// call. Node `i` draws from a stream seeded `seed + i`.
    pub fn launch_chaotic<F>(
        cluster: ClusterConfig,
        factory: F,
        plan: FaultPlan,
        seed: u64,
    ) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, Some((plan, seed)))
    }

    fn launch_inner<F>(
        cluster: ClusterConfig,
        factory: F,
        faults: Option<(FaultPlan, u64)>,
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
            listeners.push(l);
        }
        let addrs = Arc::new(addrs);
        let mut nets: Vec<Net> = all
            .iter()
            .map(|&id| Net::new(id, Arc::clone(&addrs), drops.clone(), conns.clone()))
            .collect();
        mesh(&mut nets, &listeners)?;
        let epoch = Instant::now();
        let (chaos, seed) = chaos(faults, &factory, 0xBEEF);
        let mut inboxes = Vec::new();
        let mut handles = Vec::new();

        for (i, (net, listener)) in nets.into_iter().zip(listeners).enumerate() {
            let id = net.me;
            let (tx, rx) = mpsc::channel::<NodeEvent<R::Msg>>();
            inboxes.push(tx.clone());
            let replica = factory.make(id);
            let peers = all.clone();
            let seed = seed.wrapping_add(i as u64);
            let node = Node::new(id, replica, peers, tx, net, epoch, seed, chaos.clone());
            // The benchmark's `transport.io_threads_cpu_share` counts the
            // threads named `paxi-tcp-*`.
            let handle = std::thread::Builder::new()
                .name(format!("paxi-tcp-node-{}", id.pack()))
                .spawn(move || reactor_loop(listener, node, rx))?;
            handles.push(handle);
        }
        Ok(TcpCluster {
            addrs,
            inboxes,
            handles,
            next_client: AtomicU32::new(0),
            drops,
            conns,
        })
    }

    /// Per-cause ledger of every frame this cluster's nodes shed (encode
    /// failures, full write buffers as [`DropCause::Backpressure`],
    /// reconnect-window losses, vanished reply routes), what its nodes'
    /// plan dropped or discarded, and what its replicas charged themselves;
    /// `Unexplained` stays zero.
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
    /// the connection ledger on its way out. Each loop sees the shutdown
    /// on its next pass, within a millisecond.
    pub fn shutdown(self) {
        shut_down(&self.inboxes, self.handles);
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
        plan: FaultPlan,
        seed: u64,
    ) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        TcpCluster::launch_chaotic(cluster, factory, plan, seed).map(ReactorCluster)
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
    inflight: FxHashMap<RequestId, Option<ClientResponse>>,
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
            inflight: FxHashMap::default(),
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
    use paxi_core::traits::Context;
    use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};

    fn bare_net(addrs: HashMap<NodeId, SocketAddr>) -> Net {
        let me = NodeId::new(0, 0);
        Net::new(
            me,
            Arc::new(addrs),
            DropCounters::new(),
            ConnCounters::new(),
        )
    }

    /// A connection staging up to `cap` bytes, and the other end of its
    /// socket.
    fn conn(cap: usize, identity: Option<Hello>) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let (far, _) = listener.accept().unwrap();
        let mut c = Conn::new(stream, identity);
        c.cap = cap;
        (c, far)
    }

    /// Puts a connection staging up to `cap` bytes in `net`'s table.
    fn open(net: &mut Net, cap: usize, identity: Option<Hello>) -> ConnId {
        net.open(conn(cap, identity).0)
    }

    /// Makes a connection staging up to `cap` bytes `net`'s link to `peer`.
    fn link(net: &mut Net, peer: NodeId, cap: usize) -> ConnId {
        let id = open(net, cap, Some(Hello::Peer(peer)));
        net.peers.insert(peer, id);
        id
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
    fn staging_backpressure_rejects_whole_frames() {
        // A frame is a 4-byte length prefix and the value: 6 bytes for a
        // u16, 4 for a unit.
        let mut net = bare_net(HashMap::new());
        let id = open(&mut net, 10, None);
        assert_eq!(net.stage_on(id, |c| c.stage(&7u16)), Ok(()));
        assert_eq!(net.stage_on(id, |c| c.stage(&8u16)), Err(TxError::Full));
        // The rejected frame left nothing behind: a smaller frame that fits
        // still goes through, right after the first.
        assert_eq!(net.stage_on(id, |c| c.stage(&())), Ok(()));
        assert_eq!(net.conns[&id].staged.len(), 10);
        assert_eq!(net.conns[&id].staged, [2, 0, 0, 0, 7, 0, 0, 0, 0, 0]);
        net.close(id);
        assert_eq!(net.stage_on(id, |c| c.stage(&())), Err(TxError::Closed));
    }

    #[test]
    fn encode_failure_leaves_no_torn_frame_and_is_charged() {
        let mut net = bare_net(HashMap::new());
        let peer = NodeId::new(0, 1);
        let id = link(&mut net, peer, 64);
        assert_eq!(net.stage_on(id, |c| c.stage(&7u16)), Ok(()));
        assert_eq!(
            net.stage_on(id, |c| c.stage(&Unencodable)),
            Err(TxError::Encode)
        );
        assert_eq!(net.conns[&id].staged, [2, 0, 0, 0, 7, 0]);
        assert_eq!(net.conns[&id].staged.len(), 6);

        net.send_to_peer(peer, |c| c.stage(&Unencodable));
        assert_eq!(net.drops.get(DropCause::Encode), 1);
        assert_eq!(net.drops.total(), 1);
        assert_eq!(net.conns[&id].staged.len(), 6);
    }

    #[test]
    fn full_write_buffer_is_charged_as_backpressure_not_silence() {
        let mut net = bare_net(HashMap::new());
        let id = open(&mut net, 8, None); // tiny: any response overflows
        let client = ClientId(77);
        net.hello(id, Hello::Client(client));
        let resp = ClientResponse::ok(RequestId::new(client, 0), Some(vec![1, 2, 3]));
        net.deliver_response(resp.clone());
        assert_eq!(net.drops.get(DropCause::Backpressure), 1);
        assert!(
            net.conns[&id].staged.is_empty(),
            "a shed frame stages nothing"
        );
        // A closed connection is a vanished route, not backpressure.
        net.close(id);
        net.deliver_response(resp);
        assert_eq!(net.drops.get(DropCause::NoRoute), 1);
        assert_eq!(net.drops.get(DropCause::Unexplained), 0);
        assert_eq!(net.drops.total(), 2);
    }

    #[test]
    fn a_reply_for_a_closed_client_is_no_route_on_every_connection_after() {
        let mut net = bare_net(HashMap::new());
        let client = ClientId(77);
        let gone = open(&mut net, OUT_BUF_CAP, None);
        net.hello(gone, Hello::Client(client));
        let other = open(&mut net, OUT_BUF_CAP, None);
        net.hello(other, Hello::Client(ClientId(78)));
        net.close(gone);
        assert!(!net.routes.contains_key(&client), "the route left with it");
        // Accepted after the close, its handshake not read yet.
        let after = open(&mut net, OUT_BUF_CAP, None);
        assert!(![gone, other].contains(&after), "a fresh id");

        net.deliver_response(ClientResponse::ok(RequestId::new(client, 0), None));
        assert_eq!(net.drops.get(DropCause::NoRoute), 1);
        assert_eq!(net.drops.total(), 1);
        assert_eq!(net.conns.len(), 2);
        assert!(
            net.conns.values().all(|c| c.staged.is_empty()),
            "staged on a connection the client never had"
        );
    }

    #[test]
    fn a_broadcast_is_staged_whole_per_peer_with_the_ledger_of_a_send() {
        let mut net = bare_net(HashMap::new());
        let peers = [NodeId::new(0, 1), NodeId::new(0, 2)];
        let roomy = link(&mut net, peers[0], 64);
        let tiny = link(&mut net, peers[1], 8);
        let env = Envelope::Msg {
            from: NodeId::new(0, 0),
            msg: 0xABCD_u32,
        };
        net.to_nodes(&peers, env.clone());
        // Byte for byte what a single send stages.
        let (mut single, _) = conn(64, None);
        single.stage(&env).unwrap();
        assert_eq!(net.conns[&roomy].staged, single.staged);
        // The peer whose buffer is full sheds the frame whole, on the ledger.
        assert!(net.conns[&tiny].staged.is_empty());
        assert_eq!(net.drops.get(DropCause::Backpressure), 1);
        assert_eq!(net.drops.total(), 1);
    }

    #[test]
    fn dead_peer_send_backs_off_and_charges_reconnect() {
        let mut addrs = HashMap::new();
        let target = NodeId::new(0, 1);
        addrs.insert(target, "127.0.0.1:1".parse().unwrap());
        let mut net = bare_net(addrs);
        for _ in 0..50 {
            net.send_to_peer(target, |c| c.stage(&0u64));
        }
        let state = net.backoff.get(&target).expect("backoff entry");
        assert!(state.delay > RECONNECT_BASE);
        assert_eq!(net.drops.get(DropCause::Reconnect), 50);
        assert_eq!(net.drops.total(), 50, "no other cause was charged");
    }

    #[test]
    fn a_burst_staged_at_once_arrives_once_and_in_order() {
        // 200 frames staged before the write pass runs leave in a handful
        // of coalesced writes; the reader must still decode every frame
        // exactly once, in order.
        let (mut c, mut peer) = conn(OUT_BUF_CAP, None);
        for i in 0..200u32 {
            assert_eq!(c.stage(&i), Ok(()));
        }
        assert!(c.wants_write());
        c.write().unwrap();
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
        let (mut c, mut peer) = conn(64 * 1024 * 1024, None);
        // More than any loopback socket buffer pair holds unread.
        let chunk = vec![0x5Au8; 1024 * 1024];
        for _ in 0..32 {
            assert_eq!(c.stage(&chunk), Ok(()));
        }
        let staged = c.staged.len();
        c.write().unwrap();
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
            c.write().unwrap();
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
    fn a_cluster_serving_a_request_has_one_connection_per_pair() {
        let run = launch(None);
        let mut client = run.client(NodeId::new(0, 0)).expect("connect");
        assert!(client.put(1, b"one".to_vec()).expect("put").ok);
        let conns = run.conn_stats().clone();
        // Both ends of each of the three pairs' links, and the client's.
        assert_eq!(
            (conns.opens(), conns.live(), conns.hwm()),
            (3 * 2 + 1, 7, 7)
        );
        assert_eq!(run.drops().total(), 0);
        drop(client);
        run.shutdown();
        assert_eq!(conns.opens(), conns.closes());
    }

    /// Node 0.2 forwards every request to 0.1, which answers it.
    struct Relay;

    impl Replica for Relay {
        type Msg = ();
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}
        fn on_request(&mut self, req: paxi_core::ClientRequest, ctx: &mut dyn Context<()>) {
            match ctx.id().node {
                2 => ctx.forward(NodeId::new(0, 1), req),
                _ => ctx.reply(ClientResponse::ok(req.id, None)),
            }
        }
    }

    #[test]
    fn a_first_message_from_a_higher_node_to_a_lower_one_arrives() {
        // 0.1 dialed 0.2 at launch and the two have never talked since:
        // 0.2 writes on the connection it accepted, and the reply comes
        // back on it.
        let run = TcpCluster::launch(ClusterConfig::lan(3), |_| Relay).expect("launch");
        let mut client = run.client(NodeId::new(0, 2)).expect("connect");
        for _ in 0..3 {
            assert!(client.put(1, vec![1]).expect("relayed through 0.1").ok);
        }
        assert_eq!(run.drops().total(), 0);
        assert_eq!(run.conn_stats().opens(), 3 * 2 + 1);
        run.shutdown();
    }

    type Inbox = Arc<std::sync::Mutex<Vec<(NodeId, u64)>>>;

    /// Keeps what it is sent.
    struct Sink(Inbox);

    impl Replica for Sink {
        type Msg = u64;
        fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut dyn Context<u64>) {
            self.0.lock().unwrap().push((from, msg));
        }
        fn on_request(&mut self, _req: paxi_core::ClientRequest, _ctx: &mut dyn Context<u64>) {}
    }

    /// A node's loop without its thread: a listener and a [`Node`].
    struct Bare {
        listener: TcpListener,
        node: Node<Sink, Net>,
        got: Inbox,
    }

    /// A nonblocking listener on `addr`.
    fn listen(addr: SocketAddr) -> TcpListener {
        let l = TcpListener::bind(addr).unwrap();
        l.set_nonblocking(true).unwrap();
        l
    }

    impl Bare {
        fn new(net: Net, listener: TcpListener) -> Bare {
            listener.set_nonblocking(true).unwrap();
            let (got, inbox) = (Inbox::default(), mpsc::channel().0);
            let (me, peers) = (net.me, net.addrs.keys().copied().collect());
            let sink = Sink(Arc::clone(&got));
            let node = Node::new(me, sink, peers, inbox, net, Instant::now(), 1, None);
            Bare {
                listener,
                node,
                got,
            }
        }

        /// One pass without the poll: accept, dial what closed, write,
        /// then read whatever has arrived.
        fn pass(&mut self) {
            accept_all(&self.listener, self.node.out());
            self.node.out().redial();
            let (mut fds, mut ids) = (Vec::new(), Vec::new());
            self.node.out().write_pass(&mut fds, &mut ids);
            let mut buf = vec![0u8; READ_CHUNK];
            for id in ids {
                if handle_readable(id, &mut self.node, &mut buf).is_err() {
                    self.node.out().close(id);
                }
            }
        }

        fn send(&mut self, to: NodeId, msg: u64) {
            let from = self.node.out().me;
            self.node.out().to_node(to, Envelope::Msg { from, msg });
        }

        fn link(&mut self, peer: NodeId) -> Option<ConnId> {
            self.node.out().peers.get(&peer).copied()
        }
    }

    /// Runs passes of `nodes` until `done` holds; fails after five seconds.
    fn until(nodes: &mut [&mut Bare], mut done: impl FnMut(&mut [&mut Bare]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(nodes) {
            assert!(Instant::now() < deadline, "timed out");
            for b in nodes.iter_mut() {
                b.pass();
            }
        }
    }

    #[test]
    fn a_broken_link_is_dialed_again_by_the_lower_end_and_adopted_by_the_higher() {
        let (lo, hi) = (NodeId::new(0, 0), NodeId::new(0, 1));
        let (drops, ledger) = (DropCounters::new(), ConnCounters::new());
        let listeners = [0, 1].map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
        let hi_addr = listeners[1].local_addr().unwrap();
        let addrs = Arc::new(HashMap::from([
            (lo, listeners[0].local_addr().unwrap()),
            (hi, hi_addr),
        ]));
        let mut nets =
            [lo, hi].map(|id| Net::new(id, Arc::clone(&addrs), drops.clone(), ledger.clone()));
        mesh(&mut nets, &listeners).unwrap();
        let [na, nb] = nets;
        let [la, lb] = listeners;
        let (mut a, mut b) = (Bare::new(na, la), Bare::new(nb, lb));

        // The launch link: each end writes on it, the other reads.
        a.send(hi, 1);
        b.send(lo, 2);
        until(&mut [&mut a, &mut b], |n| {
            n[0].got.lock().unwrap().len() + n[1].got.lock().unwrap().len() == 2
        });
        assert_eq!(*a.got.lock().unwrap(), [(hi, 2)]);
        assert_eq!(*b.got.lock().unwrap(), [(lo, 1)]);

        // The lower end tears the link down while 0.1 is away: its listener
        // is gone.
        b.listener = listen("127.0.0.1:0".parse().unwrap());
        let old = a.link(hi).unwrap();
        a.node.out().close(old);
        until(&mut [&mut b], |n| n[0].link(lo).is_none());
        // The higher end does not dial; what it sends meanwhile is a
        // reconnect-window loss.
        b.send(lo, 3);
        assert_eq!(drops.get(DropCause::Reconnect), 1);
        assert_eq!(b.node.out().conns.len(), 0, "the higher end dials nobody");
        // The lower end's dial is refused, which arms its backoff; the
        // passes inside the window try nothing, the first one past it dials.
        a.pass();
        let window = a
            .node
            .out()
            .backoff
            .get(&hi)
            .expect("a refused dial")
            .next_attempt;
        assert!(a.link(hi).is_none());
        b.listener = listen(hi_addr);
        until(&mut [&mut a], |n| n[0].link(hi).is_some());
        assert!(Instant::now() >= window, "dialed inside the backoff window");
        // 0.1 adopts the link off its handshake.
        until(&mut [&mut a, &mut b], |n| n[1].link(lo).is_some());
        assert!(a.node.out().backoff.is_empty());
        b.send(lo, 4);
        a.send(hi, 5);
        until(&mut [&mut a, &mut b], |n| {
            n[0].got.lock().unwrap().len() + n[1].got.lock().unwrap().len() == 4
        });
        assert_eq!(*a.got.lock().unwrap(), [(hi, 2), (hi, 4)]);
        assert_eq!(*b.got.lock().unwrap(), [(lo, 1), (lo, 5)]);
        // One link per end, the new one; the ledger explains every loss.
        assert_eq!((a.node.out().conns.len(), b.node.out().conns.len()), (1, 1));
        assert_ne!(a.link(hi), Some(old));
        assert_eq!((ledger.opens(), ledger.live()), (2 + 2, 2));
        assert_eq!(drops.get(DropCause::Unexplained), 0);
        assert_eq!(drops.total(), 1);
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
