//! Hand-driven test doubles shared by the protocol unit tests: a recording
//! [`Context`] and a lockstep message router, so handler logic is tested
//! without the simulator.

use paxi_core::command::{ClientRequest, ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::group::GroupId;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::membership::{self, ConfigChange};
use paxi_core::migration::{KeyRange, MigrationSpec};
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use paxi_storage::{MemHub, Recovery, Storage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A context that records every effect instead of performing it.
pub(crate) struct Probe<M> {
    pub id: NodeId,
    /// `(to, msg)`; `None` is a broadcast.
    pub sent: Vec<(Option<NodeId>, M)>,
    pub replies: Vec<ClientResponse>,
    /// `(delay, kind)` of every timer armed; its token is its 1-based
    /// position.
    pub timers: Vec<(Nanos, u64)>,
    /// When set, every broadcast also records the watched disk as of that
    /// instant: syncs since the last drain, and its recoverable image.
    pub disk: Option<(MemHub<u32>, u32)>,
    pub at_broadcast: Vec<(u64, Recovery)>,
    /// What `now()` reads, in nanoseconds; stays 0 unless a test moves it.
    pub clock: Arc<AtomicU64>,
}

pub(crate) fn probe<M>(id: NodeId) -> Probe<M> {
    Probe {
        id,
        sent: Vec::new(),
        replies: Vec::new(),
        timers: Vec::new(),
        disk: None,
        at_broadcast: Vec::new(),
        clock: Arc::default(),
    }
}

impl<M> Probe<M> {
    /// Delay and token of the latest armed timer of `kind`.
    pub fn last_timer(&self, kind: u64) -> (Nanos, u64) {
        let i = self
            .timers
            .iter()
            .rposition(|t| t.1 == kind)
            .expect("no such timer armed");
        (self.timers[i].0, i as u64 + 1)
    }
}

impl<M: Clone> Context<M> for Probe<M> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> Nanos {
        Nanos(self.clock.load(Ordering::SeqCst))
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.sent.push((Some(to), msg));
    }
    fn broadcast(&mut self, msg: M) {
        if let Some((hub, key)) = &self.disk {
            let image = hub.open(*key).recover().unwrap();
            self.at_broadcast.push((hub.drain_syncs(key), image));
        }
        self.sent.push((None, msg));
    }
    fn multicast(&mut self, to: &[NodeId], msg: M) {
        for &t in to {
            self.sent.push((Some(t), msg.clone()));
        }
    }
    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
        self.timers.push((after, kind));
        self.timers.len() as u64
    }
    fn reply(&mut self, resp: ClientResponse) {
        self.replies.push(resp);
    }
    fn forward(&mut self, _to: NodeId, _req: ClientRequest) {}
    fn rand_u64(&mut self) -> u64 {
        7
    }
}

/// Routes everything the probes have sent, FIFO, until nothing moves;
/// messages to `down` nodes are lost.
pub(crate) fn settle<R: Replica>(nodes: &mut [(R, Probe<R::Msg>)], down: &[NodeId]) {
    loop {
        let mut moved = false;
        for i in 0..nodes.len() {
            let from = nodes[i].1.id;
            for (to, msg) in std::mem::take(&mut nodes[i].1.sent) {
                for (r, ctx) in nodes.iter_mut() {
                    let addressed = to.map_or(ctx.id != from, |t| t == ctx.id);
                    if addressed && !down.contains(&ctx.id) {
                        r.on_message(from, msg.clone(), ctx);
                        moved = true;
                    }
                }
            }
        }
        if !moved {
            return;
        }
    }
}

/// A lockstep 3-node cluster of `make`'s replicas, started and settled:
/// node 0 must then lead, by `leads`.
pub(crate) fn lockstep<R: Replica>(
    make: impl Fn(NodeId) -> R,
    leads: fn(&R) -> bool,
) -> Vec<(R, Probe<R::Msg>)> {
    let ids = ClusterConfig::lan(3).all_nodes();
    let mut nodes: Vec<_> = ids.iter().map(|&id| (make(id), probe(id))).collect();
    for (r, ctx) in nodes.iter_mut() {
        r.on_start(ctx);
    }
    settle(&mut nodes, &[]);
    assert!(leads(&nodes[0].0));
    nodes
}

/// Node 0.1 of `make`'s cluster, recovered from `hub`'s disk 1 and writing
/// to it.
pub(crate) fn durable_follower<R: Replica>(hub: &MemHub<u32>, make: impl Fn(NodeId) -> R) -> R {
    let mut r = make(NodeId::new(0, 1));
    r.attach_storage(Box::new(hub.open(1)));
    r
}

/// Client 1's `seq`-th request: a write of `[1]` to key `seq`.
pub(crate) fn request(seq: u64) -> ClientRequest {
    ClientRequest {
        id: RequestId::new(ClientId(1), seq),
        cmd: Command::put(seq, vec![1]),
    }
}

/// Client 1's `seq`-th request: a write of `[7]` to `key`.
pub(crate) fn put_req(seq: u64, key: u64) -> ClientRequest {
    ClientRequest {
        id: RequestId::new(ClientId(1), seq),
        cmd: Command::put(key, vec![7]),
    }
}

/// Client 9's `seq`-th request: the membership `change`.
pub(crate) fn reconfig_request(seq: u64, change: &ConfigChange) -> ClientRequest {
    ClientRequest {
        id: RequestId::new(ClientId(9), seq),
        cmd: membership::reconfig_command(change),
    }
}

/// Hand-off 1: keys `[10, 20)` from group 0 to group 1, at epoch 1.
pub(crate) fn mig_spec() -> MigrationSpec {
    MigrationSpec {
        id: 1,
        from: GroupId(0),
        to: GroupId(1),
        range: KeyRange::new(10, 20),
        epoch: 1,
    }
}

/// FNV-1a over what `key`'s disk gives back on recovery: whether there is a
/// snapshot, its bytes, then every record, each length-prefixed. Pins the
/// bytes a protocol writes, in the order it writes them.
pub(crate) fn disk_digest(hub: &MemHub<u32>, key: u32) -> u64 {
    let disk = hub.open(key).recover().unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    fold(&[u8::from(disk.snapshot.is_some())]);
    fold(disk.snapshot.as_deref().unwrap_or(&[]));
    disk.records.iter().for_each(|r| fold(r));
    h
}
