//! # paxi-bench
//!
//! The benchmarking half of the Paxi framework plus the harness that
//! regenerates every table and figure of the paper's evaluation:
//!
//! * [`config`] — the Table 3 benchmark parameters.
//! * [`workload`] — tunable workload generation (distributions, conflicts,
//!   locality, moving hotspot).
//! * [`checker`] — the offline TAO-style linearizability checker.
//! * [`consensus`] — the common-prefix consensus checker over replica stores.
//! * [`runner`] — protocol names and saturation sweeps.
//! * [`nemesis`] — the fault-schedule language: episodes, seeded random
//!   schedules, delta debugging.
//! * [`scenario`] — the one runner and the one verdict: a scenario
//!   (protocol, groups, schedule, at most one workload event) goes through
//!   the only protocol dispatch and comes back judged by every auditor that
//!   applies to it.
//! * [`reconfig`] — the mid-reconfiguration scenario: a crash inside a
//!   membership change's transition window.
//! * [`migration`] — the mid-migration scenario: a crash inside a shard
//!   hand-off, and the ownership auditors.
//! * [`sharded`] — multi-group (sharded) runs: routed clients, saturation
//!   sweeps, per-shard checking, the leakage and per-group consensus
//!   auditors.
//! * [`table`] — result tables with console + CSV output.
//! * [`figures`] — one module per reproduced table/figure; the `repro`
//!   binary drives them.

#![warn(missing_docs)]

pub mod checker;
pub mod config;
pub mod consensus;
pub mod figures;
pub mod migration;
pub mod nemesis;
pub mod reconfig;
pub mod runner;
pub mod scenario;
pub mod sharded;
pub mod table;
pub mod workload;

pub use checker::{check_linearizability, Anomaly, AnomalyKind};
pub use config::{BenchmarkConfig, Distribution};
pub use consensus::{check_consensus, Divergence};
pub use migration::{dual_ownership, orphaned_writes, MigrationStage, MigrationVictim};
pub use nemesis::{
    ddmin, digest_lines, generate_schedule, generate_schedule_with_mode,
    lagging_then_only_electable, Episode, NemesisConfig, NemesisSchedule,
};
pub use reconfig::ReconfigVictim;
pub use runner::{run, sweep, Proto, SweepPoint};
pub use scenario::{
    record_digests, Audit, Cell, Event, GroupView, NodeView, Restart, Run, Scenario, Verdict,
    DIGEST_LEDGER,
};
pub use sharded::{
    check_group_consensus, check_shard_leakage, check_sharded, routed_clients, routed_workload,
    run_sharded, sweep_sharded,
};
pub use table::Table;
pub use workload::{GeneralWorkload, HotKeyWorkload};
