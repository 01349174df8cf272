//! Reproduction harness: one module per table/figure of the paper.
//!
//! Each `run(quick)` returns the figure's data series as [`Table`]s; the
//! `repro` binary prints them and writes CSVs under `results/`. `quick`
//! shrinks simulation windows and sweep grids so the whole suite stays fast
//! in CI; the full mode matches the experiment scales described in
//! EXPERIMENTS.md.

use crate::table::Table;
use paxi_core::time::Nanos;
use paxi_sim::SimConfig;

pub mod ablation;
pub mod availability;
pub mod batching;
pub mod crossval;
pub mod durability;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod metrics;
pub mod reactor;
pub mod sharding;
pub mod tables;

/// Simulation window presets shared by the experimental figures.
pub(crate) fn sim_preset(quick: bool) -> SimConfig {
    if quick {
        SimConfig {
            warmup: Nanos::millis(300),
            measure: Nanos::secs(1),
            ..SimConfig::default()
        }
    } else {
        SimConfig {
            warmup: Nanos::secs(1),
            measure: Nanos::secs(4),
            ..SimConfig::default()
        }
    }
}

/// Closed-loop client-count grids for saturation sweeps.
pub(crate) fn sweep_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4, 16, 48]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 96]
    }
}

/// What runs one experiment, given `quick`.
pub type Run = fn(bool) -> Vec<Table>;

/// Every experiment in paper order: its id and what runs it. The four
/// analytic tables have no simulation to shrink and ignore `quick`.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig3", fig3::run),
    ("table1", |_| tables::table1()),
    ("fig4", fig4::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("table3", |_| tables::table3()),
    ("formulas", |_| tables::formulas()),
    ("fig14", |_| tables::fig14()),
    ("ablation", ablation::run),
    ("batching", batching::run),
    ("sharding", sharding::run),
    ("crossval", crossval::run),
    ("availability", availability::run),
    ("durability", durability::run),
    ("reactor", reactor::run),
];

/// Runs every experiment, in paper order.
pub fn all(quick: bool) -> Vec<(&'static str, Vec<Table>)> {
    EXPERIMENTS
        .iter()
        .map(|&(id, run)| (id, run(quick)))
        .collect()
}

/// Runs one experiment by id, or `None` if the id is unknown.
pub fn by_name(name: &str, quick: bool) -> Option<Vec<Table>> {
    let (_, run) = EXPERIMENTS.iter().find(|(id, _)| *id == name)?;
    Some(run(quick))
}
