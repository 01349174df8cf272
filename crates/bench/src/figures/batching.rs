//! Batching ablation (beyond the paper's figures, motivated by its §3 cost
//! model): how command batching amortizes the leader bottleneck.
//!
//! The model bounds throughput by the per-command work at the busiest node.
//! A leader that packs `k` commands into one slot pays the fixed per-message
//! costs (`t_in`, `t_out`, NIC per-message bytes, one WAL fsync) once per
//! batch and only the marginal `t_cmd`/`cmd_bytes` per additional command,
//! so per-command service time falls toward the marginal floor as `k` grows
//! — the saturation point shifts right, and since the `batch_delay`
//! hold-down applies only behind an in-flight round, an unloaded client
//! does not wait for it.
//!
//! Sweeps MultiPaxos on the 9-node LAN config used throughout `results/`
//! over `max_batch ∈ {1, 4, 16}`. `max_batch = 1` is the exact pre-batching
//! code path and serves as the baseline.

use crate::runner::{sweep, Proto};
use crate::table::{f0, f2, Table};
use paxi_core::config::ClusterConfig;
use paxi_protocols::paxos::PaxosConfig;
use paxi_sim::client::uniform_workload;

/// Batch sizes swept; 1 is the unbatched baseline.
const BATCHES: &[usize] = &[1, 4, 16];

/// Builds the batching ablation table (the title slugs to
/// `ablation_batching_*.csv` under `results/`).
pub fn run(quick: bool) -> Vec<Table> {
    let cluster = ClusterConfig::lan(9);
    let sim = super::sim_preset(quick);
    // First count is the unloaded point (one closed-loop client); the tail
    // saturates the leader so max throughput is actually reached.
    let counts = if quick {
        vec![1, 16, 64]
    } else {
        vec![1, 4, 16, 48, 96, 160]
    };

    let mut t = Table::new(
        "Ablation: batching MultiPaxos (9-node LAN)",
        &[
            "max_batch",
            "max_throughput",
            "unloaded_p50_ms",
            "unloaded_mean_ms",
            "speedup_vs_1",
        ],
    );
    let mut base_tput = f64::NAN;
    for &batch in BATCHES {
        let cfg = PaxosConfig::batched(batch);
        let points = sweep(&Proto::Paxos(cfg), &sim, &cluster, &counts, || {
            uniform_workload(1000)
        });
        let max_tput = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
        let p50 = points.first().map(|p| p.p50_ms).unwrap_or(f64::NAN);
        let mean = points.first().map(|p| p.mean_ms).unwrap_or(f64::NAN);
        if batch == 1 {
            base_tput = max_tput;
        }
        t.row(vec![
            batch.to_string(),
            f0(max_tput),
            f2(p50),
            f2(mean),
            f2(max_tput / base_tput),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn batching_doubles_saturation_without_hurting_unloaded_latency() {
        let tables = super::run(true);
        let t = &tables[0];
        let row = |b: &str| t.rows.iter().find(|r| r[0] == b).expect("batch row");
        let tput = |b: &str| -> f64 { row(b)[1].parse().unwrap() };
        let p50 = |b: &str| -> f64 { row(b)[2].parse().unwrap() };
        // The acceptance bar: 16-deep batches at least double saturation
        // throughput, and amortization is already visible at 4.
        assert!(
            tput("16") >= 2.0 * tput("1"),
            "batch=16 {} vs baseline {}",
            tput("16"),
            tput("1")
        );
        assert!(
            tput("4") > tput("1"),
            "batch=4 {} vs baseline {}",
            tput("4"),
            tput("1")
        );
        // An idle leader does not hold a lone request down: within 1.5x.
        assert!(
            p50("16") <= 1.5 * p50("1"),
            "unloaded p50 regressed: batch=16 {} vs baseline {}",
            p50("16"),
            p50("1")
        );
    }
}
