//! Observability: per-replica metrics and request-lifecycle tracing.
//!
//! The paper's analytic model (§3) predicts throughput and latency from the
//! number of messages the bottleneck node processes per commit. This module
//! provides the instrumentation to *observe* that quantity (and its
//! neighbors: queue depths, batch occupancy, WAL traffic, drops by cause) on
//! a live or simulated replica, so the model's inputs can be audited instead
//! of assumed.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Recording a metric never consumes randomness, never
//!    reads a wall clock, and never perturbs event ordering — two simulator
//!    runs with the same seed produce byte-identical snapshots.
//! 2. **Cheap, and free when off.** Counters are fixed-size arrays indexed
//!    by enum (allocated once at registry construction); per-message-type
//!    maps allocate only on the first sighting of a type. A runtime that
//!    does not construct a registry pays nothing — the simulator's hot path
//!    performs no allocation when metrics are disabled.
//! 3. **No silent loss.** Every place a message can die routes through
//!    [`DropCause`]; the catch-all [`DropCause::Unexplained`] exists so
//!    chaos digests and CI can assert it stays zero.
//!
//! Counters saturate instead of wrapping: a counter that hits `u64::MAX`
//! stays there, so long chaos runs can never alias a huge count to a small
//! one.

use crate::id::{NodeId, RequestId};
use crate::time::Nanos;
use serde::ser::SerializeMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Scalar event counters a replica or runtime accumulates.
///
/// `MsgsSent`/`MsgsReceived` count protocol messages with broadcast fanned
/// out per recipient — the "messages processed per commit" quantity of the
/// paper's load formulas. The per-message-type breakdown lives in
/// [`MetricsRegistry::sent_of`] / [`MetricsRegistry::recv_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Protocol messages sent (unicast, plus one per broadcast recipient).
    MsgsSent,
    /// Protocol messages received and handled.
    MsgsReceived,
    /// Client commands carried by sent messages: with batching, one `P2a`
    /// carrying 8 commands adds 8 here and 1 to `MsgsSent`, so
    /// `CmdsSent / MsgsSent` over proposal types is the batch occupancy.
    CmdsSent,
    /// Client requests delivered to `on_request`.
    Requests,
    /// Client replies emitted.
    Replies,
    /// Client requests forwarded to another replica.
    Forwards,
    /// Wrong-leader redirects answered to smart clients (sharded runtime).
    Redirects,
    /// Timer events fired.
    TimerFires,
    /// WAL records appended.
    WalAppends,
    /// WAL fsyncs performed.
    WalFsyncs,
    /// Phase-2 (or equivalent) retransmissions of a stuck window.
    Retransmissions,
    /// Log slots committed (leader-observed).
    Commits,
    /// Client commands executed against the state machine.
    Executes,
    /// Transport connections opened: accepted by a listener or dialed out
    /// to a peer.
    ConnAccepts,
    /// Transport connections closed. After an orderly shutdown
    /// `ConnAccepts == ConnCloses`; the conservation audit asserts it.
    ConnCloses,
}

impl Metric {
    /// Every counter, in snapshot order.
    pub const ALL: [Metric; 15] = [
        Metric::MsgsSent,
        Metric::MsgsReceived,
        Metric::CmdsSent,
        Metric::Requests,
        Metric::Replies,
        Metric::Forwards,
        Metric::Redirects,
        Metric::TimerFires,
        Metric::WalAppends,
        Metric::WalFsyncs,
        Metric::Retransmissions,
        Metric::Commits,
        Metric::Executes,
        Metric::ConnAccepts,
        Metric::ConnCloses,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Metric::MsgsSent => "msgs_sent",
            Metric::MsgsReceived => "msgs_received",
            Metric::CmdsSent => "cmds_sent",
            Metric::Requests => "requests",
            Metric::Replies => "replies",
            Metric::Forwards => "forwards",
            Metric::Redirects => "redirects",
            Metric::TimerFires => "timer_fires",
            Metric::WalAppends => "wal_appends",
            Metric::WalFsyncs => "wal_fsyncs",
            Metric::Retransmissions => "retransmissions",
            Metric::Commits => "commits",
            Metric::Executes => "executes",
            Metric::ConnAccepts => "conn_accepts",
            Metric::ConnCloses => "conn_closes",
        }
    }
}

/// Why a message (or client request) was dropped. Every loss path in the
/// simulator and the transports maps to exactly one cause; anything that
/// cannot name its cause must use [`DropCause::Unexplained`], which chaos
/// digests assert stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// Serialization failed before the message hit the wire.
    Encode,
    /// Datagram exceeded the transport's frame limit (UDP).
    Oversize,
    /// Fault injection decided the link loses this message.
    Fault,
    /// The destination (or source) node was crashed.
    Crashed,
    /// A bounded queue was full and shed load. Nothing charges it any more:
    /// its last producer was the threaded TCP runtime's per-connection writer
    /// queue, and the one TCP runtime sheds as [`DropCause::Backpressure`].
    /// The variant stays so ledgers and their JSON keep their shape.
    QueueFull,
    /// Lost in a reconnect window: the peer link was down and frames queued
    /// for it could not be delivered.
    Reconnect,
    /// No route/address known for the destination.
    NoRoute,
    /// A reactor connection's bounded write buffer was full and the frame
    /// was shed (the readiness-loop analogue of [`DropCause::QueueFull`]).
    Backpressure,
    /// A state-transfer chunk the receiver could not use: undecodable,
    /// a duplicate, out of order, or part of a transfer since abandoned.
    /// The sender repeats what is still needed.
    BadChunk,
    /// A loss path that failed to name its cause — must stay zero.
    Unexplained,
}

impl DropCause {
    /// Every cause, in snapshot order.
    pub const ALL: [DropCause; 10] = [
        DropCause::Encode,
        DropCause::Oversize,
        DropCause::Fault,
        DropCause::Crashed,
        DropCause::QueueFull,
        DropCause::Reconnect,
        DropCause::NoRoute,
        DropCause::Backpressure,
        DropCause::BadChunk,
        DropCause::Unexplained,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::Encode => "encode",
            DropCause::Oversize => "oversize",
            DropCause::Fault => "fault",
            DropCause::Crashed => "crashed",
            DropCause::QueueFull => "queue_full",
            DropCause::Reconnect => "reconnect",
            DropCause::NoRoute => "no_route",
            DropCause::Backpressure => "backpressure",
            DropCause::BadChunk => "bad_chunk",
            DropCause::Unexplained => "unexplained",
        }
    }
}

/// High-water-mark gauges: `record` keeps the maximum ever observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Gauge {
    /// Deepest the node's event/inbox queue ever got.
    QueueDepthHwm,
    /// Largest command batch ever packed into one slot/message.
    BatchHwm,
    /// Most transport connections ever simultaneously open on the node.
    ConnsHwm,
}

impl Gauge {
    /// Every gauge, in snapshot order.
    pub const ALL: [Gauge; 3] = [Gauge::QueueDepthHwm, Gauge::BatchHwm, Gauge::ConnsHwm];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepthHwm => "queue_depth_hwm",
            Gauge::BatchHwm => "batch_hwm",
            Gauge::ConnsHwm => "conns_hwm",
        }
    }
}

/// Per-replica metrics: typed counters, drop causes, high-water gauges, and
/// per-message-type sent/received breakdowns.
///
/// All additions saturate. Per-type maps are `BTreeMap` so iteration (and
/// therefore serialization) order is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: Vec<u64>,
    drops: Vec<u64>,
    gauges: Vec<u64>,
    sent_by_type: Kinds,
    recv_by_type: Kinds,
}

/// Message counts by type name. A count made on the event path is keyed by
/// the `&'static str` that [`crate::traits::Replica::msg_kind`] returns, so
/// it allocates nothing; a decoded registry owns its names. Encoded as a
/// map from string to count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Kinds(BTreeMap<Cow<'static, str>, u64>);

impl Kinds {
    fn bump(&mut self, kind: Cow<'static, str>, n: u64) {
        let v = self.0.entry(kind).or_insert(0);
        *v = v.saturating_add(n);
    }

    fn get(&self, kind: &str) -> u64 {
        self.0.get(kind).copied().unwrap_or(0)
    }

    fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_ref(), *v))
    }
}

impl Serialize for Kinds {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (kind, n) in self.iter() {
            map.serialize_entry(kind, &n)?;
        }
        map.end()
    }
}

impl<'de> Deserialize<'de> for Kinds {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let map = BTreeMap::<String, u64>::deserialize(deserializer)?;
        Ok(Kinds(
            map.into_iter().map(|(k, n)| (Cow::Owned(k), n)).collect(),
        ))
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An all-zero registry. The only allocations the registry ever makes
    /// are here (three fixed-size arrays) and a map node on the first
    /// sighting of each message-type name.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: vec![0; Metric::ALL.len()],
            drops: vec![0; DropCause::ALL.len()],
            gauges: vec![0; Gauge::ALL.len()],
            sent_by_type: Kinds::default(),
            recv_by_type: Kinds::default(),
        }
    }

    /// Adds `n` to `metric`, saturating at `u64::MAX`.
    pub fn add(&mut self, metric: Metric, n: u64) {
        let c = &mut self.counters[metric as usize];
        *c = c.saturating_add(n);
    }

    /// Records `n` dropped messages under `cause`, saturating.
    pub fn add_drop(&mut self, cause: DropCause, n: u64) {
        let c = &mut self.drops[cause as usize];
        *c = c.saturating_add(n);
    }

    /// Raises `gauge` to `v` if `v` is a new high-water mark.
    pub fn gauge_max(&mut self, gauge: Gauge, v: u64) {
        let g = &mut self.gauges[gauge as usize];
        *g = (*g).max(v);
    }

    /// Counts one sent message of type `kind` (also bumps
    /// [`Metric::MsgsSent`]).
    pub fn sent(&mut self, kind: &'static str, n: u64) {
        self.add(Metric::MsgsSent, n);
        self.sent_by_type.bump(Cow::Borrowed(kind), n);
    }

    /// Counts one received message of type `kind` (also bumps
    /// [`Metric::MsgsReceived`]).
    pub fn received(&mut self, kind: &'static str, n: u64) {
        self.add(Metric::MsgsReceived, n);
        self.recv_by_type.bump(Cow::Borrowed(kind), n);
    }

    /// Current value of `metric`.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Current drop count under `cause`.
    pub fn drops(&self, cause: DropCause) -> u64 {
        self.drops[cause as usize]
    }

    /// Sum of drops across all causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().fold(0u64, |a, d| a.saturating_add(*d))
    }

    /// Current high-water mark of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Messages of type `kind` sent so far.
    pub fn sent_of(&self, kind: &str) -> u64 {
        self.sent_by_type.get(kind)
    }

    /// Messages of type `kind` received so far.
    pub fn recv_of(&self, kind: &str) -> u64 {
        self.recv_by_type.get(kind)
    }

    /// Iterates `(type, count)` over the sent-by-type breakdown.
    pub fn sent_types(&self) -> impl Iterator<Item = (&str, u64)> {
        self.sent_by_type.iter()
    }

    /// Iterates `(type, count)` over the received-by-type breakdown.
    pub fn recv_types(&self) -> impl Iterator<Item = (&str, u64)> {
        self.recv_by_type.iter()
    }

    /// Folds `other` into `self`: counters and per-type maps add
    /// (saturating), gauges take the max. Used to aggregate per-group or
    /// per-thread registries into one node-level snapshot.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.drops.iter_mut().zip(&other.drops) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        for (k, v) in &other.sent_by_type.0 {
            self.sent_by_type.bump(k.clone(), *v);
        }
        for (k, v) in &other.recv_by_type.0 {
            self.recv_by_type.bump(k.clone(), *v);
        }
    }

    /// Renders the registry as one deterministic JSON object: fixed key
    /// order (declaration order for counters/drops/gauges, lexicographic
    /// for the per-type maps), no whitespace dependence on content.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"counters\":{");
        for (i, m) in Metric::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", m.name(), self.get(*m)));
        }
        s.push_str("},\"drops\":{");
        for (i, c) in DropCause::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", c.name(), self.drops(*c)));
        }
        s.push_str("},\"gauges\":{");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", g.name(), self.gauge(*g)));
        }
        s.push_str("},\"sent_by_type\":{");
        for (i, (k, v)) in self.sent_types().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"recv_by_type\":{");
        for (i, (k, v)) in self.recv_types().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("}}");
        s
    }
}

/// A stage in a client request's life, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceStage {
    /// The request entered the system (runtime dispatched it to a replica).
    Submit,
    /// A leader (or command leader) proposed it into a slot/instance.
    Propose,
    /// The proposal reached its quorum.
    QuorumAck,
    /// The command executed against the state machine.
    Execute,
    /// The reply left for the client.
    Reply,
}

impl TraceStage {
    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Submit => "submit",
            TraceStage::Propose => "propose",
            TraceStage::QuorumAck => "quorum_ack",
            TraceStage::Execute => "execute",
            TraceStage::Reply => "reply",
        }
    }
}

/// One request-lifecycle trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the stage was reached (virtual or wall-relative time).
    pub at: Nanos,
    /// The node that observed the stage.
    pub node: NodeId,
    /// The request being traced.
    pub req: RequestId,
    /// Which lifecycle stage.
    pub stage: TraceStage,
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s: the newest `capacity`
/// events survive, older ones are overwritten. `total` keeps counting so a
/// reader knows how much history the ring has shed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    head: usize,
    total: u64,
    cap: usize,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (`capacity == 0` records
    /// nothing but still counts `total`).
    pub fn new(capacity: usize) -> Self {
        let buf = Vec::with_capacity(capacity.min(1 << 20));
        TraceRing {
            buf,
            head: 0,
            total: 0,
            cap: capacity,
        }
    }

    /// Appends one event, overwriting the oldest once full.
    pub fn push(&mut self, ev: TraceEvent) {
        self.total = self.total.saturating_add(1);
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// One node's metrics, labeled with its id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// The node the registry belongs to.
    pub node: NodeId,
    /// Its accumulated metrics.
    pub metrics: MetricsRegistry,
}

/// Metrics for a whole cluster: one snapshot per node, in node order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ClusterMetrics {
    /// Per-node snapshots.
    pub nodes: Vec<MetricsSnapshot>,
}

impl ClusterMetrics {
    /// Total drops across all nodes that no known cause explains — the
    /// quantity chaos digests and CI assert is zero.
    pub fn unexplained_drops(&self) -> u64 {
        self.nodes.iter().fold(0u64, |a, s| {
            a.saturating_add(s.metrics.drops(DropCause::Unexplained))
        })
    }

    /// All per-node registries folded into one.
    pub fn merged(&self) -> MetricsRegistry {
        let mut all = MetricsRegistry::new();
        for s in &self.nodes {
            all.merge(&s.metrics);
        }
        all
    }

    /// Deterministic JSON: per-node objects in node order plus the
    /// cluster-wide unexplained-drop total.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"nodes\":[");
        for (i, snap) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let metrics = snap.metrics.to_json();
            s.push_str(&format!(
                "{{\"node\":\"{}\",\"metrics\":{}}}",
                snap.node, metrics
            ));
        }
        s.push_str(&format!(
            "],\"unexplained_drops\":{}}}",
            self.unexplained_drops()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut r = MetricsRegistry::new();
        r.add(Metric::MsgsSent, u64::MAX - 1);
        r.add(Metric::MsgsSent, 5);
        assert_eq!(r.get(Metric::MsgsSent), u64::MAX);
        r.add_drop(DropCause::Fault, u64::MAX);
        r.add_drop(DropCause::Fault, 1);
        assert_eq!(r.drops(DropCause::Fault), u64::MAX);
    }

    #[test]
    fn typed_counts_feed_the_totals() {
        let mut r = MetricsRegistry::new();
        r.sent("p2a", 2);
        r.sent("commit", 1);
        r.received("p2b", 2);
        assert_eq!(r.get(Metric::MsgsSent), 3);
        assert_eq!(r.get(Metric::MsgsReceived), 2);
        assert_eq!(r.sent_of("p2a"), 2);
        assert_eq!(r.recv_of("p2b"), 2);
        assert_eq!(r.sent_of("unknown"), 0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        a.sent("p2a", 3);
        a.gauge_max(Gauge::QueueDepthHwm, 7);
        let mut b = MetricsRegistry::new();
        b.sent("p2a", 2);
        b.received("p2a", 4);
        b.gauge_max(Gauge::QueueDepthHwm, 5);
        a.merge(&b);
        assert_eq!(a.sent_of("p2a"), 5);
        assert_eq!(a.get(Metric::MsgsSent), 5);
        assert_eq!(a.recv_of("p2a"), 4);
        assert_eq!(a.gauge(Gauge::QueueDepthHwm), 7);
    }

    #[test]
    fn trace_ring_keeps_newest_and_counts_total() {
        let node = NodeId::new(0, 0);
        let mut ring = TraceRing::new(3);
        for seq in 0..5u64 {
            ring.push(TraceEvent {
                at: Nanos(seq),
                node,
                req: RequestId::new(crate::id::ClientId(1), seq),
                stage: TraceStage::Submit,
            });
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.len(), 3);
        let ats: Vec<u64> = ring.iter().map(|e| e.at.0).collect();
        assert_eq!(
            ats,
            vec![2, 3, 4],
            "oldest events overwritten, order preserved"
        );
    }

    #[test]
    fn json_is_deterministic_and_names_every_key() {
        let mut r = MetricsRegistry::new();
        r.sent("p2a", 1);
        r.received("p1b", 2);
        r.add_drop(DropCause::Encode, 3);
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"msgs_sent\":1"));
        assert!(a.contains("\"encode\":3"));
        assert!(a.contains("\"p2a\":1"));
        assert!(a.contains("\"p1b\":2"));
    }
}
