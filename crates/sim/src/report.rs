//! Simulation results.

use paxi_core::command::{Key, Value};
use paxi_core::id::{ClientId, NodeId};
use paxi_core::metrics::{Histogram, LatencySummary};
use paxi_core::obs::{ClusterMetrics, TraceRing};
use paxi_core::time::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One completed (or abandoned) client operation, as consumed by the
/// linearizability checker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpRecord {
    /// Issuing client.
    pub client: ClientId,
    /// Key the operation targeted.
    pub key: Key,
    /// `Some(v)` when the operation wrote `v`.
    pub write: Option<Value>,
    /// `Some(result)` when the operation was a read; `result` is the value
    /// the system returned (`None` = key absent).
    pub read: Option<Option<Value>>,
    /// Invocation time at the client.
    pub invoke: Nanos,
    /// Response time at the client (or abandonment time for failed ops).
    pub ret: Nanos,
    /// Whether the operation completed successfully.
    pub ok: bool,
}

/// Per-node accounting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeStats {
    /// The node.
    pub id: NodeId,
    /// Events (messages, requests, timers) handled.
    pub handled: u64,
    /// Messages transmitted on the wire.
    pub sent: u64,
    /// Total busy (service) time accumulated.
    pub busy: Nanos,
    /// Fraction of the run the node's queue was busy — the paper's queue
    /// utilization ρ. The busiest node determines system capacity.
    pub utilization: f64,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Length of the measurement window.
    pub window: Nanos,
    /// Requests issued during the window.
    pub issued: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Requests that returned an error response.
    pub errors: u64,
    /// Requests abandoned by the retry timeout.
    pub abandoned: u64,
    /// Completions per second over the window.
    pub throughput: f64,
    /// Latency summary over all completions in the window.
    pub latency: LatencySummary,
    /// Full latency histogram (for CDFs, Figure 13b).
    pub histogram: Histogram,
    /// Latency summaries split by client zone (Figures 11, 13a).
    pub zone_latency: BTreeMap<u8, LatencySummary>,
    /// Full per-zone histograms.
    pub zone_histogram: BTreeMap<u8, Histogram>,
    /// Per-node accounting; exposes the leader bottleneck directly.
    pub node_stats: Vec<NodeStats>,
    /// Operation log (only when `record_ops` was set).
    pub ops: Vec<OpRecord>,
    /// Completions per timeline bucket (only when `timeline_bucket` was
    /// set) — used by availability experiments to see service gaps.
    pub timeline: Vec<(Nanos, u64)>,
    /// Total simulator events processed (diagnostic).
    pub events_processed: u64,
    /// Per-node observability metrics (only when [`crate::SimConfig`]'s
    /// `metrics` flag was set). Deterministic: two runs with the same seed
    /// produce identical snapshots.
    pub metrics: Option<ClusterMetrics>,
    /// The request-lifecycle trace ring (only with `metrics` on and a
    /// nonzero `trace_capacity`).
    pub trace: Option<TraceRing>,
}

impl SimReport {
    /// The busiest node's utilization — the load on the bottleneck node.
    pub fn max_utilization(&self) -> f64 {
        self.node_stats
            .iter()
            .map(|n| n.utilization)
            .fold(0.0, f64::max)
    }

    /// The node that handled the most messages (the de-facto leader in
    /// single-leader protocols).
    pub fn busiest_node(&self) -> Option<NodeId> {
        self.node_stats
            .iter()
            .max_by_key(|n| n.handled)
            .map(|n| n.id)
    }

    /// Mean latency in milliseconds (convenience for tables).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean.as_millis_f64()
    }

    /// What two runs must agree on to count as the same run: completions,
    /// events processed, mean latency, and the first 50 recorded operations
    /// (client, key, invocation and response time). The determinism tests
    /// compare these.
    pub fn fingerprint(&self) -> (u64, u64, u64, String) {
        let ops = self
            .ops
            .iter()
            .take(50)
            .map(|o| format!("{}:{}:{}:{}", o.client, o.key, o.invoke.0, o.ret.0))
            .collect::<Vec<_>>()
            .join(",");
        (
            self.completed,
            self.events_processed,
            self.latency.mean.0,
            ops,
        )
    }
}
