//! UDP socket transport.
//!
//! Paxi supports UDP alongside TCP so protocols whose small, conflict-free
//! messages gain nothing from ordered delivery can skip TCP's congestion
//! control. Each node (and each client) owns one datagram socket; an
//! envelope is one `paxi-codec` datagram, no framing needed. Delivery is
//! best-effort: protocols built on quorums tolerate loss natively, and
//! clients retry on timeout.
//!
//! Reply routing works like the TCP transport: a node records the source
//! address of requests arriving straight from clients, and `via peer` for
//! forwarded ones, relaying responses back hop by hop.

use crate::envelope::Envelope;
use crate::obs::{log_drop_once, DropCounters};
use crate::runtime::{chaos, run_node, shut_down, Node, NodeEvent, Outbound};
use paxi_core::command::{ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::faults::FaultPlan;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::DropCause;
use paxi_core::traits::{Replica, ReplicaFactory};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Largest encoded envelope one datagram may carry. Bigger payloads cannot
/// be sent over this transport at all — they are counted and reported via
/// [`UdpCluster::dropped_oversize`], never silently truncated.
pub const MAX_DGRAM: usize = 60 * 1024;

/// Error for an envelope whose encoding exceeds [`MAX_DGRAM`]: the datagram
/// was *not* sent. Quorum protocols survive individual losses, but a
/// persistently oversized message class means the workload needs the TCP
/// transport instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizeDatagram {
    /// Encoded envelope size in bytes.
    pub len: usize,
    /// The transport's budget ([`MAX_DGRAM`]).
    pub max: usize,
}

impl std::fmt::Display for OversizeDatagram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "envelope of {} bytes exceeds the {} byte datagram budget",
            self.len, self.max
        )
    }
}

impl std::error::Error for OversizeDatagram {}

#[derive(Clone, Copy)]
enum Route {
    Local(SocketAddr),
    Via(NodeId),
}

/// Logged once per process when a node→node envelope fails to encode.
static SEND_ENCODE_WARN: std::sync::Once = std::sync::Once::new();
/// Logged once per process when a client response fails to encode.
static RESP_ENCODE_WARN: std::sync::Once = std::sync::Once::new();

thread_local! {
    /// Reusable encode buffer for the datagram send path. Each sending
    /// thread (a node's event loop, mostly) encodes every outbound datagram
    /// into one long-lived allocation instead of paying a fresh `Vec` per
    /// message — the UDP analogue of the TCP writer's burst buffer.
    static ENCODE_SCRATCH: std::cell::RefCell<Vec<u8>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

struct UdpNet {
    socket: UdpSocket,
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    /// Inserts and lookups only, so a poisoned lock still guards a whole
    /// map and is taken as it stands.
    routes: Mutex<HashMap<ClientId, Route>>,
    dropped_oversize: Arc<AtomicU64>,
    drops: DropCounters,
}

impl UdpNet {
    fn send_to_node<M: Serialize>(
        &self,
        to: NodeId,
        env: &Envelope<M>,
    ) -> Result<(), OversizeDatagram> {
        let Some(addr) = self.addrs.get(&to) else {
            self.drops.record(DropCause::NoRoute);
            return Ok(());
        };
        ENCODE_SCRATCH.with(|scratch| {
            let mut bytes = scratch.borrow_mut();
            bytes.clear();
            if paxi_codec::to_bytes_into(&mut bytes, env).is_err() {
                // Encode failures must not vanish: charge the ledger and say
                // so once — a persistently unencodable message class would
                // otherwise look like ordinary datagram loss.
                self.drops.record(DropCause::Encode);
                log_drop_once(
                    &SEND_ENCODE_WARN,
                    DropCause::Encode,
                    "UDP node->node envelope failed to encode",
                );
                return Ok(());
            }
            if bytes.len() > MAX_DGRAM {
                self.dropped_oversize.fetch_add(1, Ordering::Relaxed);
                self.drops.record(DropCause::Oversize);
                return Err(OversizeDatagram {
                    len: bytes.len(),
                    max: MAX_DGRAM,
                });
            }
            let _ = self.socket.send_to(&bytes, addr);
            Ok(())
        })
    }

    fn deliver_response<M: Serialize>(&self, resp: &ClientResponse) {
        let route = self
            .routes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&resp.id.client)
            .copied();
        match route {
            Some(Route::Local(addr)) => ENCODE_SCRATCH.with(|scratch| {
                let mut bytes = scratch.borrow_mut();
                bytes.clear();
                if paxi_codec::to_bytes_into(&mut bytes, &Envelope::<()>::Response(resp.clone()))
                    .is_err()
                {
                    // Same hole as the request path: a response that cannot
                    // encode is a real loss, not a non-event.
                    self.drops.record(DropCause::Encode);
                    log_drop_once(
                        &RESP_ENCODE_WARN,
                        DropCause::Encode,
                        "UDP client response failed to encode",
                    );
                    return;
                }
                if bytes.len() > MAX_DGRAM {
                    self.dropped_oversize.fetch_add(1, Ordering::Relaxed);
                    self.drops.record(DropCause::Oversize);
                    return;
                }
                let _ = self.socket.send_to(&bytes, addr);
            }),
            Some(Route::Via(peer)) => {
                // The counter already recorded an oversize drop; the client
                // will time out and retry like any other datagram loss.
                let _ = self.send_to_node::<M>(peer, &Envelope::Response(resp.clone()));
            }
            None => {
                // No reply route on record for this client: the response has
                // nowhere to go.
                self.drops.record(DropCause::NoRoute);
            }
        }
    }
}

struct UdpOut<M> {
    net: Arc<UdpNet>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Serialize + DeserializeOwned + Clone + std::fmt::Debug + Send + 'static> Outbound<M>
    for UdpOut<M>
{
    fn to_node(&mut self, to: NodeId, env: Envelope<M>) {
        // Outbound is fire-and-forget; the oversize counter keeps the error
        // observable ([`UdpCluster::dropped_oversize`]).
        let _ = self.net.send_to_node(to, &env);
    }
    fn to_client(&mut self, _client: ClientId, resp: ClientResponse) {
        self.net.deliver_response::<M>(&resp);
    }
    fn drops(&self) -> Option<&DropCounters> {
        Some(&self.net.drops)
    }
}

/// A running UDP cluster on localhost.
pub struct UdpCluster<R: Replica> {
    addrs: Arc<HashMap<NodeId, SocketAddr>>,
    /// Each node's inbox, for shutdown.
    inboxes: Vec<mpsc::Sender<NodeEvent<R::Msg>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Each node's receiver thread, by the address of the socket it reads.
    receivers: Vec<(SocketAddr, std::thread::JoinHandle<()>)>,
    next_client: AtomicU32,
    dropped_oversize: Arc<AtomicU64>,
    drops: DropCounters,
}

impl<R> UdpCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    /// Binds one UDP socket per node and starts all replicas.
    pub fn launch<F>(cluster: ClusterConfig, factory: F) -> std::io::Result<Self>
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, None)
    }

    /// Like [`UdpCluster::launch`], but under `plan`, applied inside the
    /// transport: node→node datagrams pass through its link rules (Drop /
    /// Flaky / Slow) and crashed nodes freeze until their windows end,
    /// measured from this call. Node `i` draws from a stream seeded
    /// `seed + i`.
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
        let dropped_oversize = Arc::new(AtomicU64::new(0));
        let drops = DropCounters::new();
        let all = cluster.all_nodes();
        let mut sockets = Vec::new();
        let mut addrs = HashMap::new();
        for &id in &all {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            addrs.insert(id, s.local_addr()?);
            sockets.push((id, s));
        }
        let addrs = Arc::new(addrs);
        // Reverse map for identifying peer datagrams.
        let peer_by_addr: Arc<HashMap<SocketAddr, NodeId>> =
            Arc::new(addrs.iter().map(|(&n, &a)| (a, n)).collect());
        let epoch = Instant::now();
        let (chaos, seed) = chaos(faults, &factory, 0xD06);
        let mut inboxes = Vec::new();
        let mut handles = Vec::new();
        let mut receivers = Vec::new();

        for (i, (id, socket)) in sockets.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<NodeEvent<R::Msg>>();
            inboxes.push(tx.clone());
            let net = Arc::new(UdpNet {
                socket: socket.try_clone()?,
                addrs: Arc::clone(&addrs),
                routes: Mutex::new(HashMap::new()),
                dropped_oversize: Arc::clone(&dropped_oversize),
                drops: drops.clone(),
            });
            let addr = socket.local_addr()?;
            let receiver = {
                let (net, inbox) = (Arc::clone(&net), tx.clone());
                let peer_by_addr = Arc::clone(&peer_by_addr);
                std::thread::Builder::new()
                    .name(format!("paxi-udp-recv-{}", id.pack()))
                    .spawn(move || receive(socket, &net, &inbox, &peer_by_addr))?
            };
            receivers.push((addr, receiver));
            let replica = factory.make(id);
            let peers = all.clone();
            let out = UdpOut::<R::Msg> {
                net,
                _marker: std::marker::PhantomData,
            };
            let seed = seed.wrapping_add(i as u64);
            let node = Node::new(id, replica, peers, tx, out, epoch, seed, chaos.clone());
            let handle = std::thread::Builder::new()
                .name(format!("paxi-udp-node-{}", id.pack()))
                .spawn(move || run_node(node, rx))?;
            handles.push(handle);
        }
        Ok(UdpCluster {
            addrs,
            inboxes,
            handles,
            receivers,
            next_client: AtomicU32::new(0),
            dropped_oversize,
            drops,
        })
    }

    /// Number of envelopes this cluster refused to send because their
    /// encoding exceeded [`MAX_DGRAM`]. Nonzero means the workload's message
    /// class does not fit UDP — switch to the TCP transport.
    pub fn dropped_oversize(&self) -> u64 {
        self.dropped_oversize.load(Ordering::Relaxed)
    }

    /// Per-cause ledger of every envelope this cluster lost: what its
    /// sockets dropped (encode failures, oversize datagrams, missing reply
    /// routes), what its nodes' plan dropped or discarded, and what its
    /// replicas charged themselves.
    pub fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// The address of a node's socket.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[&node]
    }

    /// Creates a UDP client attached to `attach`.
    pub fn client(&self, attach: NodeId) -> std::io::Result<UdpClient> {
        let id = ClientId(2_000_000 + self.next_client.fetch_add(1, Ordering::Relaxed));
        UdpClient::connect(self.addr(attach), id)
    }

    /// Stops every node thread and every receiver thread, and waits for
    /// them.
    pub fn shutdown(self) {
        shut_down(&self.inboxes, self.handles);
        // A receiver returns on a `Shutdown` datagram, sent until it has: a
        // full socket buffer drops datagrams.
        let stop = paxi_codec::to_bytes(&Envelope::<()>::Shutdown);
        let (Ok(socket), Ok(stop)) = (UdpSocket::bind("127.0.0.1:0"), stop) else {
            return;
        };
        for (addr, h) in self.receivers {
            while !h.is_finished() {
                let _ = socket.send_to(&stop, addr);
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = h.join();
        }
    }
}

/// A node's receiver thread: hands every datagram to the node's inbox, or
/// a relayed response on along its route, until a `Shutdown` datagram comes.
fn receive<M: Serialize + DeserializeOwned>(
    socket: UdpSocket,
    net: &UdpNet,
    inbox: &mpsc::Sender<NodeEvent<M>>,
    peer_by_addr: &HashMap<SocketAddr, NodeId>,
) {
    let mut buf = vec![0u8; MAX_DGRAM];
    loop {
        let Ok((n, src)) = socket.recv_from(&mut buf) else {
            return;
        };
        let Ok(env) = paxi_codec::from_bytes::<Envelope<M>>(&buf[..n]) else {
            continue;
        };
        match env {
            Envelope::Request(req) => {
                let route = match peer_by_addr.get(&src) {
                    Some(&peer) => Route::Via(peer),
                    None => Route::Local(src),
                };
                let mut routes = net.routes.lock().unwrap_or_else(PoisonError::into_inner);
                match (routes.get(&req.id.client), &route) {
                    (Some(Route::Local(_)), Route::Via(_)) => {}
                    _ => {
                        routes.insert(req.id.client, route);
                    }
                }
                drop(routes);
                let _ = inbox.send(NodeEvent::Wire(Envelope::Request(req)));
            }
            Envelope::Response(resp) => net.deliver_response::<M>(&resp),
            Envelope::Msg { from, msg } => {
                let _ = inbox.send(NodeEvent::Wire(Envelope::Msg { from, msg }));
            }
            Envelope::Shutdown => return,
        }
    }
}

/// A blocking UDP client with timeout + retry (datagrams may drop).
pub struct UdpClient {
    id: ClientId,
    seq: u64,
    socket: UdpSocket,
    server: SocketAddr,
    timeout: Duration,
    retries: u32,
}

impl UdpClient {
    /// Binds a client socket targeting `server`.
    pub fn connect(server: SocketAddr, id: ClientId) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(500)))?;
        Ok(UdpClient {
            id,
            seq: 0,
            socket,
            server,
            timeout: Duration::from_millis(500),
            retries: 6,
        })
    }

    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Executes one command; retransmits on timeout (idempotent at the
    /// protocol layer only for reads — production systems add request
    /// deduplication, which the in-scope experiments don't need).
    pub fn execute(&mut self, cmd: Command) -> Option<ClientResponse> {
        let req_id = RequestId::new(self.id, self.seq);
        self.seq += 1;
        let env: Envelope<()> = Envelope::Request(paxi_core::ClientRequest { id: req_id, cmd });
        let bytes = paxi_codec::to_bytes(&env).ok()?;
        let mut buf = vec![0u8; MAX_DGRAM];
        for _ in 0..self.retries {
            let _ = self.socket.send_to(&bytes, self.server);
            let deadline = Instant::now() + self.timeout;
            while Instant::now() < deadline {
                match self.socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        if let Ok(Envelope::<()>::Response(resp)) =
                            paxi_codec::from_bytes(&buf[..n])
                        {
                            if resp.id == req_id {
                                return Some(resp);
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        None
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

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};

    #[test]
    fn paxos_over_udp_localhost() {
        let cluster = ClusterConfig::lan(3);
        let run = UdpCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::default()),
        )
        .expect("launch");
        let mut client = run.client(NodeId::new(0, 0)).expect("client");
        let w = client.put(9, b"udp".to_vec()).expect("put");
        assert!(w.ok);
        let r = client.get(9).expect("get");
        assert_eq!(r.value, Some(b"udp".to_vec()));
        run.shutdown();
    }

    #[test]
    fn oversize_datagrams_error_and_count_instead_of_silently_dropping() {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let peer = NodeId::new(0, 1);
        let counter = Arc::new(AtomicU64::new(0));
        let net = UdpNet {
            socket: a,
            addrs: Arc::new([(peer, b.local_addr().unwrap())].into_iter().collect()),
            routes: Mutex::new(HashMap::new()),
            dropped_oversize: Arc::clone(&counter),
            drops: DropCounters::new(),
        };
        let small: Envelope<()> = Envelope::Request(paxi_core::ClientRequest {
            id: RequestId::new(ClientId(0), 0),
            cmd: Command::put(1, vec![0; 64]),
        });
        assert_eq!(net.send_to_node(peer, &small), Ok(()));
        let big: Envelope<()> = Envelope::Request(paxi_core::ClientRequest {
            id: RequestId::new(ClientId(0), 1),
            cmd: Command::put(1, vec![0; MAX_DGRAM + 1]),
        });
        let err = net
            .send_to_node(peer, &big)
            .expect_err("oversize must error");
        assert!(err.len > MAX_DGRAM);
        assert_eq!(err.max, MAX_DGRAM);
        assert_eq!(counter.load(Ordering::Relaxed), 1, "the drop is counted");
        assert_eq!(
            net.drops.get(DropCause::Oversize),
            1,
            "and charged to the cause ledger"
        );
        assert_eq!(net.drops.get(DropCause::Encode), 0);
    }

    #[test]
    fn udp_forwarding_via_follower() {
        let cluster = ClusterConfig::lan(3);
        let run = UdpCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::default()),
        )
        .expect("launch");
        let mut client = run.client(NodeId::new(0, 1)).expect("client");
        for i in 0..5u64 {
            assert!(client.put(i, vec![i as u8]).expect("put").ok);
        }
        assert_eq!(client.get(3).expect("get").value, Some(vec![3]));
        run.shutdown();
    }
}
