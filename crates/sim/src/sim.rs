//! The deterministic discrete-event simulator.
//!
//! Every node is modeled as a single-server FIFO queue (CPU + NIC combined,
//! exactly as the paper's analytic model assumes): an event that reaches a
//! node at time `t` begins service at `max(t, busy_until)`, and the service
//! time is derived from the [`CostModel`] — `t_in` for the incoming message,
//! `t_out` per outgoing serialization (a broadcast serializes once), and the
//! NIC transmission time per message on the wire. Message transit times are
//! sampled from the [`Topology`]'s per-zone-pair Normal distributions, and a
//! node→node link delivers in send order, as Paxi's TCP connections do: a
//! message arrives no earlier than the one sent on its link before it.
//!
//! Replica code runs in the node loop every substrate shares,
//! [`paxi_transport::runtime::Node`], handed each input when the node would
//! start serving it, with what the run lends the call ([`Lend`]); its
//! [`Outbound`] is the effect list the cost model walks. The rest — queue,
//! network, fates, servers, cost model, clients, report — is the simulator.
//!
//! Determinism: all randomness flows from one seeded [`Rng64`], and the event
//! queue breaks time ties by insertion sequence, so a `(seed, workload,
//! protocol)` triple always reproduces the same run bit-for-bit.

use crate::client::{ClientSetup, LoadMode, Workload};
use crate::faults::{FaultPlan, MsgFate};
use crate::report::{NodeStats, OpRecord, SimReport};
use paxi_core::command::{ClientRequest, ClientResponse, Command, Op};
use paxi_core::config::ClusterConfig;
use paxi_core::cost::CostModel;
use paxi_core::dist::Rng64;
use paxi_core::faults::LinkOrder;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::metrics::Histogram;
use paxi_core::obs::{
    ClusterMetrics, DropCause, Gauge, Metric, MetricsRegistry, MetricsSnapshot, TraceEvent,
    TraceRing, TraceStage,
};
use paxi_core::time::Nanos;
use paxi_core::topology::Topology;
use paxi_core::traits::{Replica, ReplicaFactory};
use paxi_storage::MemHub;
use paxi_transport::runtime::{Lend, Node, NodeEvent, Outbound};
use paxi_transport::Envelope;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Time to run before measurement starts.
    pub warmup: Nanos,
    /// Length of the measurement window.
    pub measure: Nanos,
    /// Network topology (zones and latency distributions).
    pub topology: Topology,
    /// Per-node processing cost model.
    pub cost: CostModel,
    /// Record every operation for the linearizability checker.
    pub record_ops: bool,
    /// If set, a client whose request has not completed within this duration
    /// abandons it and issues a fresh request (availability experiments).
    pub client_retry: Option<Nanos>,
    /// If set, the report includes completions bucketed by this interval.
    pub timeline_bucket: Option<Nanos>,
    /// Collect per-node observability metrics (counters, drop causes,
    /// gauges — see [`paxi_core::obs`]). Off by default: a disabled run
    /// allocates nothing for metrics and its hot path is untouched.
    pub metrics: bool,
    /// Capacity of the request-lifecycle trace ring (newest events win).
    /// Only honored when `metrics` is on; `0` disables tracing.
    pub trace_capacity: usize,
    /// After the measurement window closes, keep delivering in-flight
    /// messages (but issue no new requests and fire no timers) until the
    /// queue empties. Every request the clients issued then runs to
    /// completion, which makes per-commit message accounting exact — the
    /// mode the model cross-check tests use. Off by default; the report's
    /// measurement window is unaffected either way.
    pub drain: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            warmup: Nanos::millis(500),
            measure: Nanos::secs(2),
            topology: Topology::lan(),
            cost: CostModel::default(),
            record_ops: false,
            client_retry: None,
            timeline_bucket: None,
            metrics: false,
            trace_capacity: 0,
            drain: false,
        }
    }
}

/// `Node(to, None)` is the storage tick, here at the end of each crash
/// window: it thaws a node nobody talks to.
enum EventKind<M> {
    Node(NodeId, Option<NodeEvent<M>>),
    ClientIssue { ci: usize },
    ClientDone { resp: ClientResponse },
    RetryCheck { id: RequestId },
}

struct Event<M> {
    at: Nanos,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reversed so BinaryHeap (a max-heap) pops the earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Side effects a handler produced, applied by the simulator afterwards.
/// A `Cast` is one serialization sent to each of `to`.
enum Effect<M> {
    Send { to: NodeId, msg: M },
    Cast { to: Vec<NodeId>, msg: M },
    Timer { after: Nanos, kind: u64, token: u64 },
    Reply { resp: ClientResponse },
    Forward { to: NodeId, req: ClientRequest },
}

/// A simulated node's [`Outbound`]: the effect list of the call in
/// progress, self-sends and timers included, in handler order.
struct Effects<M> {
    id: NodeId,
    list: Vec<Effect<M>>,
}

impl<M: Clone + Send + 'static> Outbound<M> for Effects<M> {
    fn to_node(&mut self, to: NodeId, env: Envelope<M>) {
        self.list.push(match env {
            Envelope::Msg { msg, .. } => Effect::Send { to, msg },
            Envelope::Request(req) => Effect::Forward { to, req },
            _ => return,
        });
    }
    fn to_nodes(&mut self, to: &[NodeId], env: Envelope<M>) {
        if let Envelope::Msg { msg, .. } = env {
            let to = to.to_vec();
            self.list.push(Effect::Cast { to, msg });
        }
    }
    fn to_client(&mut self, _client: ClientId, resp: ClientResponse) {
        self.list.push(Effect::Reply { resp });
    }
    fn to_self(&mut self, after: Nanos, ev: NodeEvent<M>) -> Option<NodeEvent<M>> {
        match ev {
            NodeEvent::Timer { kind, token } => {
                self.list.push(Effect::Timer { after, kind, token })
            }
            NodeEvent::Wire(env) => self.to_node(self.id, env),
        }
        None
    }
}

/// A node as the simulator drives it.
type SimNode<R> = Node<R, Effects<<R as Replica>::Msg>>;

/// A node's single-server queue (CPU and NIC) and what it served.
#[derive(Default)]
struct Server {
    busy_until: Nanos,
    busy_total: Nanos,
    handled: u64,
    sent: u64,
    /// Events queued for this node and not yet dispatched — only maintained
    /// when metrics are enabled (feeds the queue-depth high-water gauge).
    inflight: u64,
}

/// The simulator's view of a cluster's disk array: everything it needs from
/// durable storage without fixing how disks are keyed. A plain durable run
/// registers a [`MemHub`] keyed by node; a sharded run registers an array
/// keyed by `(node, group)` whose `crash_node` wipes *all* of the node's
/// per-group WAL namespaces at once and whose `drain_syncs` aggregates fsync
/// counts across them — one node, one pipeline, however many groups live on
/// it.
pub trait SimDisks: Send {
    /// Applies an amnesia crash to every disk `node` owns: the unsynced
    /// suffix is lost and armed storage faults fire.
    fn crash_node(&self, node: NodeId);
    /// Returns and resets the number of fsyncs all of `node`'s disks
    /// performed since the last call (each is charged `t_fsync` of service
    /// time).
    fn drain_syncs(&self, node: NodeId) -> u64;
    /// Returns and resets the number of WAL records all of `node`'s disks
    /// appended since the last call — feeds the observability layer's
    /// per-node WAL-append counter. The default reports nothing (a backend
    /// predating the counter).
    fn drain_appends(&self, node: NodeId) -> u64 {
        let _ = node;
        0
    }
}

impl SimDisks for MemHub<NodeId> {
    fn crash_node(&self, node: NodeId) {
        self.crash(&node);
    }

    fn drain_syncs(&self, node: NodeId) -> u64 {
        MemHub::drain_syncs(self, &node)
    }

    fn drain_appends(&self, node: NodeId) -> u64 {
        MemHub::drain_appends(self, &node)
    }
}

struct ClientState {
    setup: ClientSetup,
    next_seq: u64,
}

struct Pending {
    ci: usize,
    invoke: Nanos,
    cmd: Command,
}

/// The simulator: a cluster of replicas, a set of clients, a network, and a
/// virtual clock.
pub struct Simulator<R: Replica> {
    cfg: SimConfig,
    cluster: ClusterConfig,
    /// Every node, in cluster order.
    nodes: Vec<SimNode<R>>,
    /// Retained so amnesia recovery can rebuild a replica from scratch.
    factory: Box<dyn ReplicaFactory<R = R>>,
    /// The cluster's simulated disk array, if the run is durable. The
    /// simulator crashes disks on amnesia recovery and converts each disk's
    /// fsync count into service time.
    hub: Option<Box<dyn SimDisks>>,
    /// Each node's queue, in cluster order.
    servers: Vec<Server>,
    all_nodes: Vec<NodeId>,
    queue: BinaryHeap<Event<R::Msg>>,
    event_seq: u64,
    now: Nanos,
    rng: Rng64,
    clients: Vec<ClientState>,
    workload: Box<dyn Workload>,
    faults: FaultPlan,
    links: LinkOrder<Nanos>,
    pending: HashMap<RequestId, Pending>,
    // measurement
    hist: Histogram,
    zone_hist: BTreeMap<u8, Histogram>,
    issued: u64,
    completed: u64,
    errors: u64,
    abandoned: u64,
    ops: Vec<OpRecord>,
    timeline: BTreeMap<u64, u64>,
    events_processed: u64,
    /// Per-node metrics registries, `None` unless `cfg.metrics` — the
    /// disabled hot path never touches (or allocates) them.
    metrics: Option<Vec<MetricsRegistry>>,
    /// Cluster-wide request-lifecycle trace ring, when tracing is enabled.
    trace_ring: Option<TraceRing>,
    /// True once the run is past its window in drain mode: in-flight work
    /// finishes but clients issue nothing new.
    draining: bool,
}

impl<R: Replica> Simulator<R> {
    /// Builds a simulator over a homogeneous cluster.
    pub fn new<F>(
        cfg: SimConfig,
        cluster: ClusterConfig,
        factory: F,
        workload: impl Workload + 'static,
        clients: Vec<ClientSetup>,
    ) -> Self
    where
        F: ReplicaFactory<R = R> + 'static,
    {
        assert_eq!(
            cluster.zones as usize,
            cfg.topology.zones(),
            "cluster zones must match topology zones"
        );
        let all_nodes = cluster.all_nodes();
        let nodes = all_nodes
            .iter()
            .map(|&id| {
                let out = Effects { id, list: vec![] };
                Node::simulated(id, factory.make(id), all_nodes.clone(), out)
            })
            .collect();
        let servers = all_nodes.iter().map(|_| Server::default()).collect();
        let rng = Rng64::seed(cfg.seed);
        let metrics = cfg
            .metrics
            .then(|| all_nodes.iter().map(|_| MetricsRegistry::new()).collect());
        let tracing = cfg.metrics && cfg.trace_capacity > 0;
        let trace_ring = tracing.then(|| TraceRing::new(cfg.trace_capacity));
        Simulator {
            cfg,
            cluster,
            nodes,
            factory: Box::new(factory),
            hub: None,
            servers,
            all_nodes,
            queue: BinaryHeap::new(),
            event_seq: 0,
            now: Nanos::ZERO,
            rng,
            clients: clients
                .into_iter()
                .map(|setup| ClientState { setup, next_seq: 0 })
                .collect(),
            workload: Box::new(workload),
            faults: FaultPlan::new(),
            links: LinkOrder::default(),
            pending: HashMap::new(),
            hist: Histogram::new(),
            zone_hist: BTreeMap::new(),
            issued: 0,
            completed: 0,
            errors: 0,
            abandoned: 0,
            ops: Vec::new(),
            timeline: BTreeMap::new(),
            events_processed: 0,
            metrics,
            trace_ring,
            draining: false,
        }
    }

    /// Mutable access to the fault plan (install faults before `run`).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Registers the cluster's simulated disk array. The factory passed to
    /// [`Simulator::new`] is expected to open a handle on the same hub and
    /// attach it to each replica it builds; handing the hub to the simulator
    /// additionally (a) loses each amnesia-crashed node's unsynced suffix
    /// and applies armed storage faults before the node is rebuilt, and
    /// (b) charges [`CostModel::t_fsync`] for every fsync a node's disk
    /// performs while handling an event.
    pub fn set_storage(&mut self, hub: impl SimDisks + 'static) {
        self.hub = Some(Box::new(hub));
    }

    /// The replicas, for post-run state inspection (consensus checking).
    pub fn replicas(&self) -> Replicas<'_, R> {
        Replicas(self.nodes.iter().map(Node::replica).collect())
    }

    /// The cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    fn push(&mut self, at: Nanos, kind: EventKind<R::Msg>) {
        if self.metrics.is_some() {
            // Queue-depth bookkeeping (high-water gauge) — enabled runs
            // only, so the disabled hot path stays untouched.
            if let EventKind::Node(to, _) = &kind {
                let idx = self.cluster.index_of(*to);
                let depth = self.servers[idx].inflight.saturating_add(1);
                self.servers[idx].inflight = depth;
                if let Some(ms) = &mut self.metrics {
                    ms[idx].gauge_max(Gauge::QueueDepthHwm, depth);
                }
            }
        }
        self.event_seq += 1;
        self.queue.push(Event {
            at,
            seq: self.event_seq,
            kind,
        });
    }

    /// Runs the simulation to the end of the measurement window and returns
    /// the report.
    pub fn run(&mut self) -> SimReport {
        let end = self.cfg.warmup + self.cfg.measure;

        // Start every replica.
        for idx in 0..self.nodes.len() {
            self.serve(idx, None, |node, lend| node.start_with(Some(lend)));
        }
        // Tick each node at the end of every crash window, so one whose own
        // timers were discarded while down thaws then and rejoins.
        let recoveries: Vec<_> = self.faults.recoveries().collect();
        for (to, at) in recoveries {
            self.push(at, EventKind::Node(to, None));
        }
        // Kick off every client with a small deterministic stagger so
        // closed-loop clients don't move in lockstep.
        for ci in 0..self.clients.len() {
            let jitter = Nanos(self.rng.below(Nanos::millis(1).0.max(1)));
            let at = match self.clients[ci].setup.mode {
                LoadMode::Closed { .. } => jitter,
                LoadMode::Open { rate } => {
                    Nanos((self.rng.exponential(rate.max(1e-9)) * 1e9) as u64)
                }
            };
            self.push(at, EventKind::ClientIssue { ci });
        }

        while let Some(ev) = self.queue.pop() {
            if ev.at > end {
                if !self.cfg.drain {
                    break;
                }
                // Drain phase: deliver what is already in flight, create
                // nothing new. Client issues, retry checks, and timer fires
                // are skipped (a heartbeat would re-arm itself forever), so
                // the queue empties once every outstanding message chain
                // runs out — at which point each issued request has either
                // completed or died at a counted drop site.
                self.draining = true;
                match &ev.kind {
                    EventKind::ClientIssue { .. } | EventKind::RetryCheck { .. } => continue,
                    EventKind::Node(_, Some(NodeEvent::Timer { .. })) => continue,
                    _ => {}
                }
            }
            self.now = ev.at;
            self.events_processed += 1;
            if self.metrics.is_some() {
                if let EventKind::Node(to, _) = &ev.kind {
                    let idx = self.cluster.index_of(*to);
                    self.servers[idx].inflight = self.servers[idx].inflight.saturating_sub(1);
                }
            }
            match ev.kind {
                EventKind::Node(to, ev) => self.dispatch(to, ev),
                EventKind::ClientIssue { ci } => self.client_issue(ci),
                EventKind::ClientDone { resp } => self.client_done(resp),
                EventKind::RetryCheck { id } => self.retry_check(id),
            }
        }

        self.build_report(end)
    }

    /// Hands `ev` to `node`: a message or a request is charged `t_in` on
    /// arrival, plus the batch terms of a k-command message.
    fn dispatch(&mut self, node: NodeId, ev: Option<NodeEvent<R::Msg>>) {
        let input = match &ev {
            Some(NodeEvent::Wire(Envelope::Msg { msg, .. })) => Some(R::msg_cmds(msg)),
            Some(NodeEvent::Wire(_)) => Some(1),
            _ => None,
        };
        let idx = self.cluster.index_of(node);
        self.serve(idx, input, |node, lend| node.handle_with(ev, Some(lend)));
    }

    /// Runs `call` on node `idx` at the instant it would start serving it,
    /// with what the run lends the call; unless the crash gate discarded it,
    /// charges the service time (`t_in` and the batch terms for the weight
    /// of an `input` message or request) and applies what the node sent.
    fn serve(
        &mut self,
        idx: usize,
        input: Option<u64>,
        call: impl FnOnce(&mut SimNode<R>, Lend<'_, R>) -> bool,
    ) {
        let node = self.all_nodes[idx];
        let start = self.now.max(self.servers[idx].busy_until);
        let (hub, factory) = (&self.hub, &self.factory);
        // An amnesiac node's disks crash first (the unsynced suffix dies
        // with the process, armed storage faults fire; the node ran nothing
        // while down, so losing it now is losing it at the crash), then the
        // factory rebuilds it, re-attaching storage and replaying the WAL.
        let remake = |id| {
            if let Some(hub) = hub {
                hub.crash_node(id);
            }
            factory.make(id)
        };
        let lend = Lend {
            now: start,
            plan: &self.faults,
            remake: &remake,
            rng: &mut self.rng,
            metrics: self.metrics.as_mut().map(|ms| &mut ms[idx]),
            trace: self.trace_ring.as_mut(),
        };
        if !call(&mut self.nodes[idx], lend) {
            return;
        }
        let mut effects = std::mem::take(&mut self.nodes[idx].out().list);

        // Service-time accounting per the paper's cost model, and the
        // observability counters over the same effects: per-type sent
        // counters (a broadcast fans out per recipient), command payload
        // totals, batch-size high-water, replies, forwards.
        let cost = &self.cfg.cost;
        let mut metrics = self.metrics.as_mut().map(|ms| &mut ms[idx]);
        let mut serializations = 0u64;
        let mut transmissions = 0u64;
        // Marginal batching terms, zero whenever every message has weight 1:
        // each serialization of a k-command batch adds (k-1)·t_cmd of CPU,
        // each transmission adds (k-1)·cmd_nic of NIC time.
        let mut cmd_cpu = 0u64;
        let mut cmd_nic = 0u64;
        for e in &effects {
            let (copies, msg) = match e {
                Effect::Send { msg, .. } => (1, Some(msg)),
                Effect::Cast { to, msg } => (to.len() as u64, Some(msg)),
                Effect::Reply { .. } | Effect::Forward { .. } => (1, None),
                Effect::Timer { .. } => continue,
            };
            let cmds = msg.map_or(1, R::msg_cmds);
            serializations += 1;
            transmissions += copies;
            cmd_cpu += cost.cmd_cpu_extra(cmds);
            cmd_nic += cost.cmd_nic_extra(cmds) * copies;
            if let Some(m) = &mut metrics {
                match msg {
                    Some(msg) => {
                        m.sent(R::msg_kind(msg), copies);
                        m.add(Metric::CmdsSent, cmds.saturating_mul(copies));
                        m.gauge_max(Gauge::BatchHwm, cmds);
                    }
                    None if matches!(e, Effect::Reply { .. }) => m.add(Metric::Replies, 1),
                    None => m.add(Metric::Forwards, 1),
                }
            }
        }
        let cpu = input.map_or(0, |cmds| cost.t_in.0 + cost.cmd_cpu_extra(cmds))
            + cost.t_out.0 * serializations
            + cmd_cpu;
        let cpu = (cpu as f64 * cost.cpu_penalty) as u64;
        // Disk time: every fsync the handler triggered stalls the pipeline
        // for t_fsync (the durability tax). Not scaled by cpu_penalty — it
        // models the device, not the protocol's compute.
        let syncs = self.hub.as_ref().map_or(0, |h| h.drain_syncs(node));
        if let Some(m) = &mut metrics {
            let appends = self.hub.as_ref().map_or(0, |h| h.drain_appends(node));
            if appends > 0 {
                m.add(Metric::WalAppends, appends);
            }
            if syncs > 0 {
                m.add(Metric::WalFsyncs, syncs);
            }
        }
        let service = Nanos(cpu + cost.nic().0 * transmissions + cmd_nic + cost.t_fsync.0 * syncs);
        let departure = start + service;
        let server = &mut self.servers[idx];
        server.busy_until = departure;
        server.busy_total += service;
        server.handled += 1;
        server.sent += transmissions;

        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.emit_msg(node, to, msg, departure),
                Effect::Cast { to, msg } => {
                    for t in to {
                        self.emit_msg(node, t, msg.clone(), departure);
                    }
                }
                Effect::Timer { after, kind, token } => {
                    let ev = Some(NodeEvent::Timer { kind, token });
                    self.push(start + after, EventKind::Node(node, ev));
                }
                Effect::Reply { resp } => {
                    if let Some(ring) = &mut self.trace_ring {
                        ring.push(TraceEvent {
                            at: departure,
                            node,
                            req: resp.id,
                            stage: TraceStage::Reply,
                        });
                    }
                    if let Some(p) = self.pending.get(&resp.id) {
                        let zone = self.clients[p.ci].setup.zone;
                        let delay =
                            self.cfg
                                .topology
                                .sample_one_way(&mut self.rng, node.zone, zone);
                        self.push(departure + delay, EventKind::ClientDone { resp });
                    }
                }
                Effect::Forward { to, req } => {
                    let ev = NodeEvent::Wire(Envelope::Request(req));
                    self.transmit(node, to, departure, ev, Nanos::ZERO)
                }
            }
        }
        self.nodes[idx].out().list = effects;
    }

    fn emit_msg(&mut self, from: NodeId, to: NodeId, msg: R::Msg, departure: Nanos) {
        let ev = NodeEvent::Wire(Envelope::Msg { from, msg });
        if to == from {
            // Self-delivery bypasses the network.
            return self.push(departure, EventKind::Node(to, Some(ev)));
        }
        self.transmit(from, to, departure, ev, self.cfg.cost.wire_overhead);
    }

    /// Sends `ev` on the `from → to` link, leaving at `departure`, as the
    /// fault plan decides: lost (charged to `from`), or delivered a sampled
    /// delay, any `Slow` delay and `overhead` later — no earlier than what
    /// was sent on the link before it.
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: Nanos,
        ev: NodeEvent<R::Msg>,
        overhead: Nanos,
    ) {
        match self.faults.message_fate(from, to, departure, &mut self.rng) {
            MsgFate::Dropped => {
                if let Some(ms) = &mut self.metrics {
                    ms[self.cluster.index_of(from)].add_drop(DropCause::Fault, 1);
                }
            }
            MsgFate::Deliver { extra_delay } => {
                let topology = &self.cfg.topology;
                let delay = topology.sample_one_way(&mut self.rng, from.zone, to.zone);
                let at = self
                    .links
                    .arrival(from, to, departure + delay + extra_delay + overhead);
                self.push(at, EventKind::Node(to, Some(ev)));
            }
        }
    }

    fn client_issue(&mut self, ci: usize) {
        let now = self.now;
        let (zone, attach, mode) = {
            let c = &self.clients[ci];
            (c.setup.zone, c.setup.attach, c.setup.mode)
        };
        let seq = self.clients[ci].next_seq;
        self.clients[ci].next_seq += 1;
        let client_id = ClientId(ci as u32);
        let cmd = self.workload.next(client_id, zone, seq, now, &mut self.rng);
        let id = RequestId::new(client_id, seq);
        self.pending.insert(
            id,
            Pending {
                ci,
                invoke: now,
                cmd: cmd.clone(),
            },
        );
        if let Some(ring) = &mut self.trace_ring {
            ring.push(TraceEvent {
                at: now,
                node: attach,
                req: id,
                stage: TraceStage::Submit,
            });
        }
        if now >= self.cfg.warmup {
            self.issued += 1;
        }
        let delay = self
            .cfg
            .topology
            .sample_one_way(&mut self.rng, zone, attach.zone);
        let ev = NodeEvent::Wire(Envelope::Request(ClientRequest { id, cmd }));
        self.push(now + delay, EventKind::Node(attach, Some(ev)));
        if let Some(retry) = self.cfg.client_retry {
            self.push(now + retry, EventKind::RetryCheck { id });
        }
        if let LoadMode::Open { rate } = mode {
            let gap = Nanos((self.rng.exponential(rate.max(1e-9)) * 1e9) as u64);
            self.push(now + gap, EventKind::ClientIssue { ci });
        }
    }

    fn client_done(&mut self, resp: ClientResponse) {
        let Some(p) = self.pending.remove(&resp.id) else {
            return; // duplicate reply or abandoned request
        };
        let now = self.now;
        let end = self.cfg.warmup + self.cfg.measure;
        let in_window = p.invoke >= self.cfg.warmup && now <= end;
        if resp.ok {
            if in_window {
                let lat = now - p.invoke;
                self.hist.record(lat);
                let zone = self.clients[p.ci].setup.zone;
                self.zone_hist.entry(zone).or_default().record(lat);
                self.completed += 1;
                if let Some(bucket) = self.cfg.timeline_bucket {
                    *self.timeline.entry(now.0 / bucket.0.max(1)).or_insert(0) += 1;
                }
            }
        } else if in_window {
            self.errors += 1;
        }
        if self.cfg.record_ops {
            self.ops.push(op_record(&p, &resp, now, resp.ok));
        }
        if self.draining {
            return; // the window is over: complete, but issue nothing new
        }
        if let LoadMode::Closed { think } = self.clients[p.ci].setup.mode {
            self.push(now + think, EventKind::ClientIssue { ci: p.ci });
        }
    }

    fn retry_check(&mut self, id: RequestId) {
        let Some(p) = self.pending.remove(&id) else {
            return; // already completed
        };
        let now = self.now;
        if p.invoke >= self.cfg.warmup && now <= self.cfg.warmup + self.cfg.measure {
            self.abandoned += 1;
        }
        if self.cfg.record_ops {
            // Abandoned writes may still take effect later; the checker
            // treats them as concurrent-with-everything-after.
            let resp = ClientResponse::err(id);
            self.ops.push(op_record(&p, &resp, now, false));
        }
        // Closed-loop clients move on with a fresh request.
        if let LoadMode::Closed { .. } = self.clients[p.ci].setup.mode {
            self.push(now, EventKind::ClientIssue { ci: p.ci });
        }
    }

    fn build_report(&mut self, end: Nanos) -> SimReport {
        // Operations still in flight at cut-off may have taken effect
        // without a visible response; the linearizability checker needs
        // them as "maybe applied" (ok = false) records or their values
        // would look phantom in later reads. They go in request order: the
        // map's own order changes from run to run.
        if self.cfg.record_ops {
            let mut pending: Vec<_> = self.pending.drain().collect();
            pending.sort_unstable_by_key(|&(id, _)| id);
            for (id, p) in pending {
                let resp = ClientResponse::err(id);
                self.ops.push(op_record(&p, &resp, end, false));
            }
        }
        let window = self.cfg.measure;
        let node_stats: Vec<NodeStats> = self
            .all_nodes
            .iter()
            .zip(&self.servers)
            .map(|(&id, n)| NodeStats {
                id,
                handled: n.handled,
                sent: n.sent,
                busy: n.busy_total,
                utilization: if end == Nanos::ZERO {
                    0.0
                } else {
                    (n.busy_total.0 as f64 / end.0 as f64).min(1.0)
                },
            })
            .collect();
        let bucket = self.cfg.timeline_bucket.unwrap_or(Nanos::ZERO);
        let metrics = self.metrics.as_ref().map(|ms| ClusterMetrics {
            nodes: self
                .all_nodes
                .iter()
                .zip(ms)
                .map(|(&id, m)| MetricsSnapshot {
                    node: id,
                    metrics: m.clone(),
                })
                .collect(),
        });
        SimReport {
            window,
            issued: self.issued,
            completed: self.completed,
            errors: self.errors,
            abandoned: self.abandoned,
            throughput: self.completed as f64 / window.as_secs_f64(),
            latency: (&self.hist).into(),
            histogram: self.hist.clone(),
            zone_latency: self.zone_hist.iter().map(|(z, h)| (*z, h.into())).collect(),
            zone_histogram: self.zone_hist.clone(),
            node_stats,
            ops: std::mem::take(&mut self.ops),
            timeline: self
                .timeline
                .iter()
                .map(|(b, c)| (Nanos(b * bucket.0), *c))
                .collect(),
            events_processed: self.events_processed,
            metrics,
            trace: self.trace_ring.clone(),
        }
    }
}

/// A run's replicas in cluster order, indexed like a slice; what
/// [`Replicas::iter`] yields borrows the simulator, not this list.
pub struct Replicas<'a, R>(Vec<&'a R>);

impl<'a, R> Replicas<'a, R> {
    /// Every replica, in cluster order.
    pub fn iter(&self) -> std::vec::IntoIter<&'a R> {
        self.0.clone().into_iter()
    }
}

impl<'a, R> std::ops::Deref for Replicas<'a, R> {
    type Target = [&'a R];
    fn deref(&self) -> &[&'a R] {
        &self.0
    }
}

fn op_record(p: &Pending, resp: &ClientResponse, now: Nanos, ok: bool) -> OpRecord {
    OpRecord {
        client: resp.id.client,
        key: p.cmd.key,
        write: match &p.cmd.op {
            Op::Put(v) => Some(v.clone()),
            _ => None,
        },
        read: match &p.cmd.op {
            Op::Get => Some(resp.value.clone()),
            _ => None,
        },
        invoke: p.invoke,
        ret: now,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::store::MultiVersionStore;
    use paxi_core::traits::Context;

    /// A no-replication replica: executes every request on its local store.
    /// Exercises the client loop, cost accounting, and latency measurement
    /// without any protocol logic.
    struct LocalKv {
        store: MultiVersionStore,
    }

    impl Replica for LocalKv {
        type Msg = ();
        fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut dyn Context<()>) {}
        fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<()>) {
            let v = self.store.execute(&req.cmd);
            ctx.reply(ClientResponse::ok(req.id, v));
        }
        fn protocol_name(&self) -> &'static str {
            "local-kv"
        }
        fn store(&self) -> Option<&MultiVersionStore> {
            Some(&self.store)
        }
    }

    fn local_factory(_id: NodeId) -> LocalKv {
        LocalKv {
            store: MultiVersionStore::new(),
        }
    }

    #[test]
    fn closed_loop_latency_is_about_one_lan_rtt() {
        let cfg = SimConfig::default();
        let cluster = ClusterConfig::lan(3);
        let clients = ClientSetup::closed_in_zone(&cluster, 0, 1);
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(100),
            clients,
        );
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        // One client, no replication: latency ≈ client->node RTT ≈ 0.43 ms.
        let mean = report.latency.mean.as_millis_f64();
        assert!((0.3..0.6).contains(&mean), "mean latency {mean} ms");
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                record_ops: true,
                ..SimConfig::default()
            };
            let cluster = ClusterConfig::lan(3);
            let clients = ClientSetup::closed_per_zone(&cluster, 4);
            let mut sim = Simulator::new(
                cfg,
                cluster,
                local_factory,
                crate::client::uniform_workload(50),
                clients,
            );
            let r = sim.run();
            (r.completed, r.latency.mean, r.events_processed, r.ops)
        };
        // Every record, the ones still in flight at cut-off included.
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn open_loop_throughput_tracks_rate() {
        let cfg = SimConfig {
            measure: Nanos::secs(4),
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::lan(1);
        let clients = ClientSetup::open_single(2000.0);
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(100),
            clients,
        );
        let report = sim.run();
        assert!(
            (report.throughput - 2000.0).abs() / 2000.0 < 0.1,
            "throughput {}",
            report.throughput
        );
    }

    #[test]
    fn crashed_node_stalls_its_clients() {
        let cfg = SimConfig {
            record_ops: true,
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::lan(2);
        // Client 0 -> node 0 (will crash), client 1 -> node 1.
        let clients = vec![
            ClientSetup {
                zone: 0,
                attach: NodeId::new(0, 0),
                mode: LoadMode::Closed { think: Nanos::ZERO },
            },
            ClientSetup {
                zone: 0,
                attach: NodeId::new(0, 1),
                mode: LoadMode::Closed { think: Nanos::ZERO },
            },
        ];
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(10),
            clients,
        );
        // Crash node 0 for the whole run.
        sim.faults_mut()
            .crash(NodeId::new(0, 0), Nanos::ZERO, Nanos::secs(60));
        let report = sim.run();
        // Only client 1 makes progress; client 0 completes nothing.
        assert!(report.completed > 0);
        let c0_ops = report
            .ops
            .iter()
            .filter(|o| o.client == ClientId(0) && o.ok)
            .count();
        assert_eq!(c0_ops, 0, "client of crashed node must not complete ops");
    }

    #[test]
    fn retry_abandons_and_reissues() {
        let cfg = SimConfig {
            client_retry: Some(Nanos::millis(50)),
            record_ops: true,
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::lan(2);
        let clients = vec![ClientSetup {
            zone: 0,
            attach: NodeId::new(0, 0),
            mode: LoadMode::Closed { think: Nanos::ZERO },
        }];
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(10),
            clients,
        );
        sim.faults_mut()
            .crash(NodeId::new(0, 0), Nanos::ZERO, Nanos::secs(60));
        let report = sim.run();
        assert!(report.abandoned > 10, "abandoned {}", report.abandoned);
        assert_eq!(report.completed, 0);
    }

    /// Node 0.0 sends 0.1 the numbers `0..200` from one handler; 0.1 keeps
    /// them in the order they arrive.
    struct Counting {
        heard: Vec<u32>,
    }

    impl Replica for Counting {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
            if ctx.id() == NodeId::new(0, 0) {
                (0..200).for_each(|i| ctx.send(NodeId::new(0, 1), i));
            }
        }
        fn on_message(&mut self, _f: NodeId, m: u32, _ctx: &mut dyn Context<u32>) {
            self.heard.push(m);
        }
        fn on_request(&mut self, _req: ClientRequest, _ctx: &mut dyn Context<u32>) {}
        fn protocol_name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn a_link_delivers_in_send_order_whatever_each_message_is_delayed() {
        let cluster = ClusterConfig::lan(2);
        let factory = |_| Counting { heard: Vec::new() };
        let workload = crate::client::uniform_workload(1);
        let mut sim = Simulator::new(SimConfig::default(), cluster, factory, workload, vec![]);
        // Up to 5 ms extra per message on top of each one's sampled delay.
        let (n0, n1) = (NodeId::new(0, 0), NodeId::new(0, 1));
        sim.faults_mut()
            .slow_link(n0, n1, Nanos::millis(5), Nanos::ZERO, Nanos::secs(1));
        sim.run();
        assert_eq!(sim.replicas()[1].heard, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn a_message_queued_before_a_crash_but_served_inside_it_is_discarded() {
        // Each message holds 0.1 for a millisecond, so the 200 it is sent
        // at once all arrive within the first millisecond and queue; the
        // crash at 50 ms finds about 150 of them not yet served.
        let cfg = SimConfig {
            cost: CostModel {
                t_in: Nanos::millis(1),
                ..CostModel::default()
            },
            metrics: true,
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::lan(2);
        let factory = |_| Counting { heard: Vec::new() };
        let workload = crate::client::uniform_workload(1);
        let mut sim = Simulator::new(cfg, cluster, factory, workload, vec![]);
        let n1 = NodeId::new(0, 1);
        sim.faults_mut()
            .crash(n1, Nanos::millis(50), Nanos::secs(1));
        let report = sim.run();
        let heard = sim.replicas()[1].heard.len() as u64;
        assert!(
            (45..=50).contains(&heard),
            "served before the crash: {heard}"
        );
        let crashed = report.metrics.unwrap().nodes[1]
            .metrics
            .drops(DropCause::Crashed);
        assert_eq!(crashed, 200 - heard, "the rest were lost to the crash");
    }

    #[test]
    fn node_stats_reflect_request_handling() {
        let cfg = SimConfig::default();
        let cluster = ClusterConfig::lan(2);
        let clients = ClientSetup::closed_in_zone(&cluster, 0, 2);
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(10),
            clients,
        );
        let report = sim.run();
        let handled: u64 = report.node_stats.iter().map(|n| n.handled).sum();
        assert!(handled > 0);
        assert!(report.max_utilization() > 0.0);
        assert!(report.max_utilization() <= 1.0);
    }

    /// A LocalKv that logs every write to durable storage and replays the
    /// log when (re)attached — the smallest possible durable replica, used
    /// to exercise the simulator's amnesia/fsync plumbing without dragging
    /// in a real protocol.
    struct DurableKv {
        store: MultiVersionStore,
        wal: Option<Box<dyn paxi_storage::Storage>>,
        /// WAL records replayed when storage was attached.
        replayed: usize,
    }

    impl Replica for DurableKv {
        type Msg = ();
        fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut dyn Context<()>) {}
        fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<()>) {
            if let Some(wal) = &mut self.wal {
                if matches!(req.cmd.op, Op::Put(_) | Op::Delete) {
                    let bytes = paxi_codec::to_bytes(&req.cmd).unwrap();
                    wal.append(&bytes).unwrap();
                }
            }
            let v = self.store.execute(&req.cmd);
            ctx.reply(ClientResponse::ok(req.id, v));
        }
        fn attach_storage(&mut self, mut storage: Box<dyn paxi_storage::Storage>) {
            let rec = storage.recover().unwrap();
            self.replayed = rec.records.len();
            for bytes in &rec.records {
                let cmd: Command = paxi_codec::from_bytes(bytes).unwrap();
                self.store.execute(&cmd);
            }
            self.wal = Some(storage);
        }
        fn protocol_name(&self) -> &'static str {
            "durable-kv"
        }
        fn store(&self) -> Option<&MultiVersionStore> {
            Some(&self.store)
        }
    }

    /// Runs the two-node DurableKv cluster, crashing node 0 for each
    /// `(from, duration, mode)`. Returns the report, and node 0's version
    /// count and WAL records replayed after the run.
    fn durable_run(
        crashes: &[(Nanos, Nanos, crate::faults::CrashMode)],
        hub: Option<paxi_storage::MemHub<NodeId>>,
    ) -> (SimReport, usize, usize) {
        let cfg = SimConfig {
            measure: Nanos::secs(3),
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::lan(2);
        let clients = vec![
            ClientSetup {
                zone: 0,
                attach: NodeId::new(0, 0),
                mode: LoadMode::Closed { think: Nanos::ZERO },
            },
            ClientSetup {
                zone: 0,
                attach: NodeId::new(0, 1),
                mode: LoadMode::Closed { think: Nanos::ZERO },
            },
        ];
        let mk_hub = hub.clone();
        let factory = move |id: NodeId| {
            let mut r = DurableKv {
                store: MultiVersionStore::new(),
                wal: None,
                replayed: 0,
            };
            if let Some(h) = &mk_hub {
                r.attach_storage(Box::new(h.open(id)));
            }
            r
        };
        let mut sim = Simulator::new(
            cfg,
            cluster,
            factory,
            crate::client::uniform_workload(8),
            clients,
        );
        if let Some(h) = hub {
            sim.set_storage(h);
        }
        for &(at, duration, mode) in crashes {
            let window = crate::faults::FaultWindow::new(at, duration);
            sim.faults_mut()
                .crash_mode_in(NodeId::new(0, 0), window, mode);
        }
        let report = sim.run();
        let node0 = sim.replicas()[0];
        (report, node0.store.version_count(), node0.replayed)
    }

    /// Node 0's post-run version count (its visible write history) after
    /// one crash from t=1s for 500ms with `mode`.
    fn version_count_after(
        mode: crate::faults::CrashMode,
        hub: Option<paxi_storage::MemHub<NodeId>>,
    ) -> usize {
        let crash = (Nanos::secs(1), Nanos::millis(500), mode);
        durable_run(&[crash], hub).1
    }

    #[test]
    fn amnesia_loses_volatile_state_but_wal_replay_rebuilds_it() {
        use crate::faults::CrashMode;
        use paxi_storage::{FsyncPolicy, MemHub};
        // Identical seed and schedule across the three runs; only the crash
        // semantics and the presence of a durable store differ. Node 0's
        // client stalls once its in-flight request dies with the crash
        // (closed loop, no retry), so everything in node 0's store was
        // written pre-crash.
        let freeze_vc =
            version_count_after(CrashMode::Freeze, Some(MemHub::new(FsyncPolicy::Always)));
        let amnesia_vc =
            version_count_after(CrashMode::Amnesia, Some(MemHub::new(FsyncPolicy::Always)));
        let naked_vc = version_count_after(CrashMode::Amnesia, None);
        assert!(freeze_vc > 0, "node 0 must have written before the crash");
        assert_eq!(
            amnesia_vc, freeze_vc,
            "WAL replay must rebuild exactly the durable write history"
        );
        assert_eq!(
            naked_vc, 0,
            "without storage an amnesia crash loses everything"
        );
    }

    #[test]
    fn an_amnesia_window_ending_inside_a_freeze_still_rebuilds_from_the_wal() {
        use crate::faults::CrashMode;
        use paxi_storage::{FsyncPolicy, MemHub};
        // The amnesia window's end falls inside the freeze; the node thaws
        // once, at the freeze's end, and must thaw as amnesia.
        let crashes = [
            (Nanos::secs(1), Nanos::millis(500), CrashMode::Amnesia),
            (Nanos::millis(1_200), Nanos::millis(800), CrashMode::Freeze),
        ];
        let (_, versions, replayed) = durable_run(&crashes, Some(MemHub::new(FsyncPolicy::Always)));
        assert!(replayed > 0, "rebuilt from the WAL, not retained");
        // Its client stalled with the crash: the store is the replay alone.
        assert_eq!(versions, replayed);
    }

    #[test]
    fn fsync_always_costs_latency_over_no_storage() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let (volatile, ..) = durable_run(&[], None);
        let (durable, ..) = durable_run(&[], Some(MemHub::new(FsyncPolicy::Always)));
        // Every Put now stalls its node for t_fsync (100 us by default), so
        // mean latency must rise measurably.
        assert!(
            durable.latency.mean > volatile.latency.mean,
            "durable {} <= volatile {}",
            durable.latency.mean,
            volatile.latency.mean
        );
        assert!(durable.completed > 0 && volatile.completed > 0);
    }

    #[test]
    fn wan_client_sees_wan_latency_to_remote_attach() {
        let cfg = SimConfig {
            topology: Topology::aws5(),
            ..SimConfig::default()
        };
        let cluster = ClusterConfig::wan(5, 1);
        // Client in JP (zone 4) attaches to a VA node (zone 0).
        let clients = vec![ClientSetup {
            zone: 4,
            attach: NodeId::new(0, 0),
            mode: LoadMode::Closed { think: Nanos::ZERO },
        }];
        let mut sim = Simulator::new(
            cfg,
            cluster,
            local_factory,
            crate::client::uniform_workload(10),
            clients,
        );
        let report = sim.run();
        let mean = report.latency.mean.as_millis_f64();
        assert!(
            (150.0..180.0).contains(&mean),
            "JP->VA RTT ~162ms, got {mean}"
        );
    }
}
