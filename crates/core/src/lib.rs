//! # paxi-core
//!
//! Shared building blocks of the Paxi replication-protocol framework, a Rust
//! reproduction of the system described in *"Dissecting the Performance of
//! Strongly-Consistent Replication Protocols"* (SIGMOD 2019).
//!
//! The paper's framework factors every strongly-consistent replication
//! protocol into common components — identifiers, ballots, quorum systems, a
//! multi-version key-value state machine, configuration, and an event-handler
//! replica interface — so that a protocol is defined by only its message
//! types and replica logic. This crate provides those components:
//!
//! * [`id`] — `zone.node` addressing, client and request ids.
//! * [`ballot`] — totally-ordered Paxos ballots.
//! * [`command`] — commands, interference relation, client request/response.
//! * [`store`] — the multi-version in-memory key-value state machine.
//! * [`quorum`] — majority, count, and flexible-grid quorums over one
//!   [`quorum::NodeSet`]; the EPaxos fast-quorum size.
//! * [`hash`] — the fixed, deterministic hasher of the event path's maps.
//! * [`config`] — cluster shape (zones × nodes per zone) and command
//!   batching.
//! * [`cost`] — per-message CPU/NIC service costs, read by the analytic
//!   model and the simulator alike.
//! * [`traits`] — the [`traits::Replica`] / [`traits::Context`]
//!   protocol abstraction shared by the simulator and wall-clock runtimes.
//! * [`topology`] — zone RTT matrices and the LAN/WAN latency
//!   distributions (AWS-calibrated presets), sampled by the simulator and
//!   read by the analytic model.
//! * [`time`] — nanosecond virtual time.
//! * [`metrics`] — latency histograms, CDFs, throughput meters.
//! * [`obs`] — per-replica typed counters / drop causes / gauges and the
//!   request-lifecycle trace ring, wired through every runtime.
//! * [`faults`] — the Crash / Drop / Slow / Flaky fault plan and the one
//!   crash lifecycle shared by the simulator and the live transports.
//! * [`group`] — group ids and the group-tagged message envelope for
//!   multi-group (sharded) deployments.
//! * [`membership`] — dynamic membership: config-change deltas, stable and
//!   joint (C_old,new) configurations, and the dual-majority quorum.
//! * [`migration`] — elastic shard migration: replicated freeze / install /
//!   commit records and the per-replica hand-off tracker.

#![warn(missing_docs)]

pub mod ballot;
pub mod command;
pub mod config;
pub mod cost;
pub mod dist;
pub mod faults;
pub mod group;
pub mod hash;
pub mod id;
pub mod membership;
pub mod metrics;
pub mod migration;
pub mod obs;
pub mod quorum;
pub mod store;
pub mod time;
pub mod topology;
pub mod traits;

pub use ballot::Ballot;
pub use command::{ClientRequest, ClientResponse, Command, Handoff, Key, Op, Value};
pub use config::{BatchConfig, Batcher, ClusterConfig};
pub use cost::CostModel;
pub use dist::{KeyDist, KeySampler, Rng64};
pub use faults::{Admit, CrashGate, CrashMode, FaultPlan, FaultWindow, MsgFate};
pub use group::{GroupId, GroupMsg};
pub use id::{ClientId, NodeId, RequestId};
pub use membership::{ConfigChange, JointQuorum, Membership, CONFIG_KEY};
pub use metrics::{Histogram, LatencySummary, Meter};
pub use migration::{
    as_migration_record, migration_command, CommitHalf, KeyRange, MigrationAction, MigrationPhase,
    MigrationRecord, MigrationReject, MigrationSpec, MigrationTracker, TrackerState, MIGRATION_KEY,
};
pub use obs::{
    ClusterMetrics, DropCause, Gauge, Metric, MetricsRegistry, MetricsSnapshot, TraceEvent,
    TraceRing, TraceStage,
};
pub use quorum::{
    fast_quorum_size, majority, CountQuorum, FlexibleGridQuorum, GridPhase, MajorityQuorum,
    NodeSet, QuorumTracker,
};
pub use store::{MultiVersionStore, StoreDump, Version};
pub use time::Nanos;
pub use topology::Topology;
pub use traits::{Context, Replica, ReplicaFactory};
