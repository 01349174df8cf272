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

/// Every experiment in paper order.
pub fn all(quick: bool) -> Vec<(&'static str, Vec<Table>)> {
    vec![
        ("fig3", fig3::run(quick)),
        ("table1", tables::table1()),
        ("fig4", fig4::run(quick)),
        ("fig7", fig7::run(quick)),
        ("fig8", fig8::run(quick)),
        ("fig9", fig9::run(quick)),
        ("fig10", fig10::run(quick)),
        ("fig11", fig11::run(quick)),
        ("fig12", fig12::run(quick)),
        ("fig13", fig13::run(quick)),
        ("table3", tables::table3()),
        ("formulas", tables::formulas()),
        ("fig14", tables::fig14()),
        ("ablation", ablation::run(quick)),
        ("batching", batching::run(quick)),
        ("sharding", sharding::run(quick)),
        ("crossval", crossval::run(quick)),
        ("availability", availability::run(quick)),
        ("durability", durability::run(quick)),
        ("reactor", reactor::run(quick)),
    ]
}

/// Runs one experiment by id, or `None` if the id is unknown.
pub fn by_name(name: &str, quick: bool) -> Option<Vec<Table>> {
    match name {
        "fig3" => Some(fig3::run(quick)),
        "fig4" => Some(fig4::run(quick)),
        "fig7" => Some(fig7::run(quick)),
        "fig8" => Some(fig8::run(quick)),
        "fig9" => Some(fig9::run(quick)),
        "fig10" => Some(fig10::run(quick)),
        "fig11" => Some(fig11::run(quick)),
        "fig12" => Some(fig12::run(quick)),
        "fig13" => Some(fig13::run(quick)),
        "table1" => Some(tables::table1()),
        "table3" => Some(tables::table3()),
        "formulas" => Some(tables::formulas()),
        "fig14" => Some(tables::fig14()),
        "ablation" => Some(ablation::run(quick)),
        "batching" => Some(batching::run(quick)),
        "sharding" => Some(sharding::run(quick)),
        "crossval" => Some(crossval::run(quick)),
        "availability" => Some(availability::run(quick)),
        "durability" => Some(durability::run(quick)),
        "reactor" => Some(reactor::run(quick)),
        _ => None,
    }
}
