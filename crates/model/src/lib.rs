//! # paxi-model
//!
//! The analytic half of the paper: queueing-theory performance models for
//! strongly-consistent replication protocols, the distilled load/latency
//! formulas, and the protocol-selection advisor.
//!
//! The paper publishes these models as Python scripts; this crate is their
//! Rust equivalent, kept API-compatible with the rest of the workspace so
//! the benchmark harness can overlay model predictions on simulator
//! measurements (the paper's cross-validation methodology).
//!
//! * [`queueing`] — M/M/1, M/D/1, M/G/1, G/G/1 queue-wait estimates (Table 1).
//! * [`orderstat`] — k-order statistics for quorum waits (§3.3).
//! * [`params`] — Table 2 model parameters and deployment presets: a
//!   [`Deployment`] is the simulator's own cluster shape, topology and cost
//!   model (`paxi_core::{config, topology, cost}`), so a prediction and a
//!   simulated run describe one deployment.
//! * [`protocols`] — per-protocol latency/throughput models (Figures 8, 10, 12).
//! * [`formulas`] — Formulas 1–7: load, capacity, and latency closed forms (§6).
//! * [`advisor`] — the Figure 14 protocol-selection flowchart.
//! * [`messages`] — exact per-commit message complexity at the coordinator,
//!   cross-checked against observed metrics (§2).

#![warn(missing_docs)]

pub mod advisor;
pub mod formulas;
pub mod messages;
pub mod orderstat;
pub mod params;
pub mod protocols;
pub mod queueing;

pub use advisor::{recommend, Answers, Recommendation};
pub use messages::{epaxos_leader_fast, paxos_leader, raft_leader, MsgComplexity};
pub use params::Deployment;
pub use protocols::{EPaxosModel, PaxosModel, PerfModel, WPaxosModel, WanKeeperModel};
pub use queueing::{max_throughput, utilization, wait_time, QueueKind};
