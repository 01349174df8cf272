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
//! * [`runner`] — protocol dispatch and saturation sweeps.
//! * [`nemesis`] — seeded random fault schedules + linearizability verdicts.
//! * [`reconfig`] — mid-reconfiguration nemesis: crashes inside a membership
//!   change's transition window, verdicts over history + final config.
//! * [`migration`] — mid-migration nemesis: crashes inside a shard
//!   hand-off, verdicts over history + surviving ownership state.
//! * [`sharded`] — multi-group (sharded) runs: routed clients, saturation
//!   sweeps, per-shard checking, and the sharded nemesis.
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
pub mod sharded;
pub mod table;
pub mod workload;

pub use checker::{check_linearizability, Anomaly, AnomalyKind};
pub use config::{BenchmarkConfig, Distribution};
pub use consensus::{check_consensus, Divergence};
pub use migration::{
    audit_handoff, run_migration_nemesis, MigrationAudit, MigrationConfig, MigrationOutcome,
    MigrationStage, MigrationVictim,
};
pub use nemesis::{
    ddmin, generate_schedule, generate_schedule_with_mode, lagging_then_only_electable,
    run_nemesis, run_schedule, shrink_nemesis, Episode, NemesisConfig, NemesisOutcome,
    NemesisSchedule,
};
pub use reconfig::{run_reconfig_nemesis, ReconfigConfig, ReconfigOutcome, ReconfigVictim};
pub use runner::{run, run_with_faults, run_with_faults_durable, sweep, Proto, SweepPoint};
pub use sharded::{
    check_group_consensus, check_shard_leakage, check_sharded, routed_clients, routed_workload,
    run_sharded, run_sharded_checked, run_sharded_nemesis, sweep_sharded, ShardProto, ShardedRun,
};
pub use table::Table;
pub use workload::{GeneralWorkload, HotKeyWorkload};
