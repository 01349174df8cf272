//! In-process cluster over `std::sync::mpsc` channels.
//!
//! This is Paxi's "cluster simulation" transport: all nodes run concurrently
//! in one process, connected by Go-channel-like queues, which simplifies
//! debugging and gives wall-clock (non-virtual-time) measurements without
//! deploying sockets. The same replica code that runs under the simulator
//! runs here unchanged. A cluster launched with fault injection has the same
//! threads: one per node, where the plan acts ([`crate::runtime::Node`]).

use crate::envelope::Envelope;
use crate::obs::DropCounters;
use crate::runtime::{chaos, run_node, shut_down, Node, NodeEvent, Outbound};
use paxi_core::command::{ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::faults::FaultPlan;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::DropCause;
use paxi_core::traits::{Replica, ReplicaFactory};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Registry<M> {
    nodes: HashMap<NodeId, Sender<NodeEvent<M>>>,
    clients: Mutex<HashMap<ClientId, SyncSender<ClientResponse>>>,
    drops: DropCounters,
}

impl<M> Registry<M> {
    /// The client table: inserts and lookups only, so a poisoned lock still
    /// guards a whole map and is taken as it stands.
    fn clients(&self) -> MutexGuard<'_, HashMap<ClientId, SyncSender<ClientResponse>>> {
        self.clients.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Channel-backed outbound half.
struct ChannelOut<M> {
    reg: Arc<Registry<M>>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Outbound<M> for ChannelOut<M> {
    fn to_node(&mut self, to: NodeId, env: Envelope<M>) {
        match self.reg.nodes.get(&to) {
            Some(tx) => {
                if tx.send(NodeEvent::Wire(env)).is_err() {
                    // The node's event loop already exited.
                    self.reg.drops.record(DropCause::Crashed);
                }
            }
            None => self.reg.drops.record(DropCause::NoRoute),
        }
    }
    fn to_client(&mut self, client: ClientId, resp: ClientResponse) {
        match self.reg.clients().get(&client) {
            Some(tx) => {
                if tx.send(resp).is_err() {
                    // The client dropped its receiving half.
                    self.reg.drops.record(DropCause::NoRoute);
                }
            }
            None => self.reg.drops.record(DropCause::NoRoute),
        }
    }
    fn drops(&self) -> Option<&DropCounters> {
        Some(&self.reg.drops)
    }
}

/// A running in-process cluster.
pub struct InProcCluster<R: Replica> {
    reg: Arc<Registry<R::Msg>>,
    cluster: ClusterConfig,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_client: AtomicU32,
}

impl<R: Replica + Send + 'static> InProcCluster<R> {
    /// Spawns one thread per replica and wires them together.
    pub fn launch<F>(cluster: ClusterConfig, factory: F) -> Self
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, None)
    }

    /// Like [`InProcCluster::launch`], but under `plan`: it gates every
    /// node→node message (Drop / Flaky / Slow) and freezes crashed nodes
    /// until their windows end, measured from this call. Node `i` draws its
    /// link fates and random numbers from a stream seeded `seed + i`.
    pub fn launch_chaotic<F>(cluster: ClusterConfig, factory: F, plan: FaultPlan, seed: u64) -> Self
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        Self::launch_inner(cluster, factory, Some((plan, seed)))
    }

    fn launch_inner<F>(cluster: ClusterConfig, factory: F, faults: Option<(FaultPlan, u64)>) -> Self
    where
        F: ReplicaFactory<R = R> + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        let all = cluster.all_nodes();
        let epoch = Instant::now();
        let (chaos, seed) = chaos(faults, &factory, 0xC0FFEE);
        let mut inboxes = HashMap::new();
        let mut receivers = Vec::new();
        for &id in &all {
            let (tx, rx) = channel::<NodeEvent<R::Msg>>();
            inboxes.insert(id, tx.clone());
            receivers.push((id, rx, tx));
        }
        let reg = Arc::new(Registry {
            nodes: inboxes,
            clients: Mutex::new(HashMap::new()),
            drops: DropCounters::new(),
        });
        let mut handles = Vec::new();
        for (i, (id, rx, tx)) in receivers.into_iter().enumerate() {
            let replica = factory.make(id);
            let peers = all.clone();
            let out = ChannelOut {
                reg: Arc::clone(&reg),
            };
            let seed = seed.wrapping_add(i as u64);
            let node = Node::new(id, replica, peers, tx, out, epoch, seed, chaos.clone());
            let handle = std::thread::Builder::new()
                .name(format!("paxi-node-{id}"))
                .spawn(move || run_node(node, rx))
                .expect("spawn node thread");
            handles.push(handle);
        }
        InProcCluster {
            reg,
            cluster,
            handles,
            next_client: AtomicU32::new(0),
        }
    }

    /// The cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Per-cause ledger of every envelope this cluster lost: what its
    /// channels dropped (unknown destinations, exited node loops, departed
    /// clients), what its nodes' plan dropped or discarded, and what its
    /// replicas charged themselves.
    pub fn drops(&self) -> &DropCounters {
        &self.reg.drops
    }

    /// Creates a synchronous client attached to `attach`.
    pub fn client(&self, attach: NodeId) -> SyncClient<R::Msg> {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = sync_channel(128);
        self.reg.clients().insert(id, tx);
        SyncClient {
            id,
            seq: 0,
            node: self.reg.nodes[&attach].clone(),
            rx,
            timeout: Duration::from_secs(5),
        }
    }

    /// Shuts down all node threads and waits for them.
    pub fn shutdown(self) {
        shut_down(self.reg.nodes.values(), self.handles);
    }
}

/// Blocking client for in-process clusters.
pub struct SyncClient<M> {
    id: ClientId,
    seq: u64,
    node: Sender<NodeEvent<M>>,
    rx: Receiver<ClientResponse>,
    timeout: Duration,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> SyncClient<M> {
    /// The client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Overrides the per-request timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Executes one command, blocking for the response.
    pub fn execute(&mut self, cmd: Command) -> Option<ClientResponse> {
        let req_id = RequestId::new(self.id, self.seq);
        self.seq += 1;
        let req = paxi_core::ClientRequest { id: req_id, cmd };
        let ev = NodeEvent::Wire(Envelope::Request(req));
        if self.node.send(ev).is_err() {
            return None;
        }
        // Skip stale responses (from timed-out predecessors).
        let deadline = Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(resp) if resp.id == req_id => return Some(resp),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
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
    fn paxos_over_channels_serves_clients() {
        let cluster = ClusterConfig::lan(3);
        let run = InProcCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::default()),
        );
        let mut client = run.client(NodeId::new(0, 1)); // follower: forwards
        let w = client.put(7, vec![1, 2, 3]).expect("put response");
        assert!(w.ok);
        let r = client.get(7).expect("get response");
        assert_eq!(r.value, Some(vec![1, 2, 3]));
        run.shutdown();
    }

    #[test]
    fn multiple_clients_interleave() {
        let cluster = ClusterConfig::lan(3);
        let run = InProcCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::default()),
        );
        let mut clients: Vec<_> = (0..4).map(|i| run.client(NodeId::new(0, i % 3))).collect();
        for round in 0..25u8 {
            for (i, c) in clients.iter_mut().enumerate() {
                let resp = c.put(i as u64, vec![round]).expect("response");
                assert!(resp.ok);
            }
        }
        // Final reads observe the last round.
        for (i, c) in clients.iter_mut().enumerate() {
            let r = c.get(i as u64).expect("read");
            assert_eq!(r.value, Some(vec![24]));
        }
        run.shutdown();
    }

    #[test]
    fn epaxos_over_channels() {
        let cluster = ClusterConfig::lan(5);
        let run = InProcCluster::launch(cluster.clone(), move |id: NodeId| {
            paxi_protocols::epaxos::EPaxos::new(id, cluster.clone())
        });
        let mut c0 = run.client(NodeId::new(0, 0));
        let mut c1 = run.client(NodeId::new(0, 3));
        assert!(c0.put(1, vec![10]).expect("resp").ok);
        assert!(c1.put(1, vec![11]).expect("resp").ok);
        let r = c0.get(1).expect("read");
        assert!(r.value == Some(vec![10]) || r.value == Some(vec![11]));
        run.shutdown();
    }
}
