//! The `--metrics` sidecar: per-node observability snapshots emitted next to
//! a figure's CSVs.
//!
//! Each experimental figure gets a small, drain-mode, metrics-enabled probe
//! run of the protocol family it exercises; the per-node counter snapshot
//! (see [`paxi_core::obs`]) is written as `metrics_<figure>.json` under
//! `results/`. The probe reports its unexplained-drop count so the `repro`
//! binary — and the CI metrics-smoke job — can fail loudly on any loss the
//! drop-cause ledger cannot explain.

use crate::runner::{self, Proto};
use paxi_core::config::ClusterConfig;
use paxi_core::time::Nanos;
use paxi_protocols::raft::RaftConfig;
use paxi_sim::{client, ClientSetup, SimConfig};

/// One figure's metrics sidecar: the snapshot JSON plus the single number CI
/// gates on.
pub struct MetricsSidecar {
    /// File name to write next to the figure's CSVs (under `results/`).
    pub file: String,
    /// Rendered per-node snapshot JSON ([`paxi_core::obs::ClusterMetrics`]).
    pub json: String,
    /// Drops with no recorded cause across all nodes — must be zero.
    pub unexplained_drops: u64,
}

/// The protocol family a figure's probe runs. Analytic-only experiments
/// (model tables, formulas, the advisor, the RTT calibration) have no run to
/// observe and return `None`.
fn probe_proto(name: &str) -> Option<Proto> {
    match name {
        "fig4" | "fig9" | "fig13" | "ablation" | "batching" | "sharding" | "crossval"
        | "availability" | "durability" => Some(Proto::paxos()),
        "fig7" => Some(Proto::Raft(RaftConfig::default())),
        "fig11" | "fig12" => Some(Proto::epaxos()),
        _ => None,
    }
}

/// Runs the metrics probe for `name`, if it has one: a short LAN run with
/// closed-loop clients, metrics collection, and drain mode (so every issued
/// request accounts for all of its messages before the snapshot is taken).
pub fn snapshot(name: &str, quick: bool) -> Option<MetricsSidecar> {
    let proto = probe_proto(name)?;
    let cluster = ClusterConfig::lan(3);
    let cfg = SimConfig {
        warmup: Nanos::millis(100),
        measure: if quick {
            Nanos::millis(300)
        } else {
            Nanos::secs(1)
        },
        metrics: true,
        trace_capacity: 256,
        drain: true,
        ..SimConfig::default()
    };
    let setups = ClientSetup::closed_per_zone(&cluster, 4);
    let report = runner::run(&proto, cfg, cluster, client::uniform_workload(100), setups);
    let cm = report
        .metrics
        .expect("metrics were enabled for the probe run");
    Some(MetricsSidecar {
        file: format!("metrics_{name}.json"),
        json: cm.to_json(),
        unexplained_drops: cm.unexplained_drops(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_covers_every_experimental_figure() {
        for name in [
            "fig4",
            "fig7",
            "fig11",
            "batching",
            "sharding",
            "availability",
        ] {
            assert!(
                probe_proto(name).is_some(),
                "{name} must have a metrics probe"
            );
        }
        for name in [
            "table1", "table3", "formulas", "fig14", "fig3", "fig8", "fig10",
        ] {
            assert!(probe_proto(name).is_none(), "{name} is analytic-only");
        }
    }

    #[test]
    fn paxos_probe_snapshot_is_clean_and_renderable() {
        let side = snapshot("fig4", true).expect("fig4 has a probe");
        assert_eq!(side.file, "metrics_fig4.json");
        assert_eq!(
            side.unexplained_drops, 0,
            "clean probe must explain all drops"
        );
        assert!(side.json.contains("\"unexplained_drops\""));
        assert!(side.json.contains("\"msgs_sent\""));
    }
}
