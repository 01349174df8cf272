//! # paxi-sim
//!
//! A deterministic discrete-event simulator for the Paxi protocol framework.
//!
//! The paper evaluates its protocols on AWS EC2; this crate substitutes a
//! simulator whose semantics mirror the paper's own analytic model (§3):
//! every node is a single-server FIFO queue combining CPU and NIC, message
//! delays are drawn from per-zone-pair Normal distributions, and client load
//! is generated open-loop (Poisson, as the queueing models assume) or
//! closed-loop (as the Paxi benchmarker does). Because the same replica code
//! (`paxi_core::traits::Replica`) runs through the same node
//! (`paxi_transport::runtime::Node`) on the wall-clock runtimes, the
//! simulator provides a controlled, reproducible environment for the
//! protocol comparisons of §5. The network it samples is
//! [`paxi_core::topology::Topology`] and the per-message costs it charges
//! are [`paxi_core::cost::CostModel`] — the same two descriptions the
//! analytic model (`paxi-model`) reads, re-exported here.
//!
//! * [`FaultPlan`] — Crash / Drop / Slow / Flaky / partition injection,
//!   re-exported from `paxi_core::faults`: the one plan the simulator and
//!   the live transports read. The simulator lends it to each node it
//!   drives, whose crash gate asks it at the instant the node would start
//!   serving an input; it asks [`FaultPlan::message_fate`] for every
//!   emitted message itself, and ticks a node at each crash window's end
//!   ([`FaultPlan::recoveries`]) so that one nobody talks to thaws.
//! * [`client`] — open- and closed-loop clients, the [`client::Workload`] trait.
//! * [`sim`] — the simulator itself.
//! * [`report`] — run results: latency histograms, per-zone summaries,
//!   per-node utilization, operation logs for the checkers.

#![warn(missing_docs)]

pub mod client;
mod queue;
pub mod report;
pub mod sim;

pub use client::{ClientSetup, KickoffWorkload, LoadMode, Workload};
pub use paxi_core::cost::CostModel;
pub use paxi_core::faults::{CrashMode, FaultPlan, FaultWindow, MsgFate};
pub use paxi_core::topology::Topology;
pub use report::{NodeStats, OpRecord, SimReport};
pub use sim::{SimConfig, SimDisks, Simulator};
