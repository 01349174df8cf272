//! Cluster configuration.
//!
//! A [`ClusterConfig`] describes the shape of the deployment every protocol
//! runs in: how many zones (regions) and how many nodes per zone. It is the
//! Rust analogue of Paxi's JSON configuration file; the network between the
//! zones is a [`crate::topology::Topology`], and fault-tolerance parameters
//! belong to the protocol that uses them (WPaxos's grid `f` / `fz`).

use crate::id::NodeId;
use crate::time::Nanos;
use crate::traits::Context;
use serde::{Deserialize, Serialize};

/// Command-batching knobs for leader-based protocols.
///
/// A leader with batching enabled accumulates incoming client commands and
/// commits them as one slot / log-entry batch: one round of messages, one
/// WAL append, and one fsync amortized over `max_batch` commands — the
/// classic lever for relieving the single-leader bottleneck the paper's §3
/// cost model identifies. [`BATCH_DELAY`] bounds how long the first command
/// in a partial batch waits behind a round that is still in flight; an idle
/// leader does not wait at all (see [`Batcher`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Maximum commands per slot/entry batch. `1` disables batching and is
    /// behaviorally identical to the unbatched protocol (same messages, same
    /// timers, same WAL records).
    pub max_batch: usize,
}

/// Hold-down: how long a partial batch may wait for more commands while an
/// earlier proposal of the leader is still uncommitted. Irrelevant when
/// `max_batch == 1`.
pub const BATCH_DELAY: Nanos = Nanos::micros(200);

impl Default for BatchConfig {
    /// Batching off: one command per slot, exactly today's behavior.
    fn default() -> Self {
        BatchConfig { max_batch: 1 }
    }
}

impl BatchConfig {
    /// Batching enabled with batch size `max_batch` and the [`BATCH_DELAY`]
    /// hold-down.
    pub fn of(max_batch: usize) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
        }
    }
}

/// The leader-side batching state machine: the buffer of a partial batch,
/// the token of its flush timer, and the rule for when it is proposed.
///
/// A batch is proposed when it **fills**; otherwise the first command of a
/// partial batch arms one flush timer whose delay depends on what the
/// leader is doing. Behind an **in-flight round** (an earlier proposal
/// still uncommitted) it is the [`BATCH_DELAY`] hold-down:
/// the pipeline is busy anyway, so waiting costs little and buys a fuller
/// batch. On an **idle leader** it is zero: runtimes deliver a zero-delay
/// timer behind the input already queued at the node, so requests that
/// arrived together still coalesce into one round, but a lone request
/// never waits for a clock. With `max_batch == 1` every command fills its
/// own batch and no timer is ever armed — the unbatched protocol.
///
/// Generic over the buffered item so each protocol keeps its own entry
/// shape; the protocol supplies its timer kind and the in-flight test.
#[derive(Debug)]
pub struct Batcher<T> {
    cfg: BatchConfig,
    /// The protocol's timer kind for the flush timer.
    timer_kind: u64,
    buf: Vec<T>,
    /// Token of the armed flush timer, if any.
    token: Option<u64>,
}

impl<T> Batcher<T> {
    /// An empty batcher following `cfg`, whose flush timer is armed with
    /// `timer_kind`.
    pub fn new(cfg: BatchConfig, timer_kind: u64) -> Self {
        Batcher {
            cfg,
            timer_kind,
            buf: Vec::new(),
            token: None,
        }
    }

    /// Buffers `item` and returns the batch to propose now, if it filled.
    /// Otherwise arms the partial batch's flush timer (once): the hold-down
    /// when `in_flight`, zero delay when not.
    pub fn push<M>(
        &mut self,
        item: T,
        in_flight: bool,
        ctx: &mut dyn Context<M>,
    ) -> Option<Vec<T>> {
        self.buf.push(item);
        if self.buf.len() >= self.cfg.max_batch {
            self.token = None;
            return Some(std::mem::take(&mut self.buf));
        }
        if self.token.is_none() {
            let delay = if in_flight { BATCH_DELAY } else { Nanos::ZERO };
            self.token = Some(ctx.set_timer(delay, self.timer_kind));
        }
        None
    }

    /// The flush timer with `token` fired: returns the partial batch to
    /// propose, or `None` if the fire is stale (the batch already filled or
    /// was aborted since the timer was armed).
    pub fn on_timer(&mut self, token: u64) -> Option<Vec<T>> {
        if self.token != Some(token) {
            return None;
        }
        // An armed timer means a non-empty buffer: filling and aborting
        // both disarm it.
        self.token = None;
        Some(std::mem::take(&mut self.buf))
    }

    /// Disarms the timer and hands back the not-yet-proposed commands, for
    /// the caller to re-route — called when leadership is lost, so buffered
    /// commands are never silently dropped.
    pub fn abort(&mut self) -> Vec<T> {
        self.token = None;
        std::mem::take(&mut self.buf)
    }
}

/// Static description of a cluster deployment's shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of zones (regions / failure domains).
    pub zones: u8,
    /// Nodes in each zone.
    pub per_zone: u8,
}

impl ClusterConfig {
    /// A LAN-style deployment: one zone of `n` nodes.
    pub fn lan(n: u8) -> Self {
        ClusterConfig {
            zones: 1,
            per_zone: n,
        }
    }

    /// A WAN-style grid deployment of `zones × per_zone` nodes.
    pub fn wan(zones: u8, per_zone: u8) -> Self {
        assert!(zones > 0 && per_zone > 0);
        ClusterConfig { zones, per_zone }
    }

    /// Total node count.
    pub fn n(&self) -> usize {
        self.zones as usize * self.per_zone as usize
    }

    /// All node ids, zone-major.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.n());
        for z in 0..self.zones {
            for i in 0..self.per_zone {
                v.push(NodeId::new(z, i));
            }
        }
        v
    }

    /// Node ids of one zone.
    pub fn zone_nodes(&self, zone: u8) -> Vec<NodeId> {
        (0..self.per_zone).map(|i| NodeId::new(zone, i)).collect()
    }

    /// Whether `id` belongs to this cluster.
    pub fn contains(&self, id: NodeId) -> bool {
        id.zone < self.zones && id.node < self.per_zone
    }

    /// Dense index of a node in [`ClusterConfig::all_nodes`] order.
    pub fn index_of(&self, id: NodeId) -> usize {
        id.zone as usize * self.per_zone as usize + id.node as usize
    }

    /// Majority quorum size over the whole cluster.
    pub fn majority(&self) -> usize {
        crate::quorum::majority(self.n())
    }

    /// The "first" node, conventionally the initial leader for single-leader
    /// protocols.
    pub fn initial_leader(&self) -> NodeId {
        NodeId::new(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_config_is_single_zone() {
        let c = ClusterConfig::lan(9);
        assert_eq!(c.n(), 9);
        assert_eq!(c.majority(), 5);
        assert_eq!(c.all_nodes().len(), 9);
        assert!(c.all_nodes().iter().all(|n| n.zone == 0));
    }

    #[test]
    fn wan_grid_enumeration_is_zone_major() {
        let c = ClusterConfig::wan(3, 3);
        let nodes = c.all_nodes();
        assert_eq!(nodes.len(), 9);
        assert_eq!(nodes[0], NodeId::new(0, 0));
        assert_eq!(nodes[3], NodeId::new(1, 0));
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(c.index_of(*n), i);
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let c = ClusterConfig::wan(2, 3);
        assert!(c.contains(NodeId::new(1, 2)));
        assert!(!c.contains(NodeId::new(2, 0)));
        assert!(!c.contains(NodeId::new(0, 3)));
    }

    #[test]
    fn batching_defaults_off_and_clamps_to_one() {
        assert_eq!(BatchConfig::default().max_batch, 1);
        assert_eq!(BatchConfig::of(16).max_batch, 16);
        assert_eq!(BatchConfig::of(0).max_batch, 1);
    }
}
