//! Figure 8 — modeled LAN performance of the protocol families.
//!
//! 8a sweeps each model to its maximum throughput; 8b zooms into the
//! low-throughput regime where queueing is negligible and the latency gaps
//! come from quorum sizes.

use crate::table::{f0, f2, Table};
use paxi_core::config::ClusterConfig;
use paxi_core::topology::Topology;
use paxi_model::protocols::{EPaxosModel, PaxosModel, PerfModel, WPaxosModel};
use paxi_model::Deployment;

/// Builds the 8a (full range) and 8b (low-throughput zoom) tables.
pub fn run(_quick: bool) -> Vec<Table> {
    let d = Deployment::lan(9);
    // WPaxos views the same 9 LAN nodes as a 3x3 grid.
    let grid = Deployment {
        cluster: ClusterConfig::wan(3, 3),
        topology: Topology::lan_zones(3),
        ..d.clone()
    };
    let models: Vec<(String, Box<dyn PerfModel>, &Deployment)> = vec![
        ("MultiPaxos".into(), Box::new(PaxosModel::multi_paxos()), &d),
        ("FPaxos(|q2|=3)".into(), Box::new(PaxosModel::fpaxos(3)), &d),
        ("EPaxos".into(), Box::new(EPaxosModel::new(0.02)), &d),
        ("WPaxos".into(), Box::new(WPaxosModel::new(1.0)), &grid),
    ];

    let mut a = Table::new(
        "Fig 8a: modeled LAN latency vs throughput (to saturation)",
        &["protocol", "throughput_rps", "latency_ms"],
    );
    let mut b = Table::new(
        "Fig 8b: modeled LAN latency at low throughput",
        &["protocol", "throughput_rps", "latency_ms"],
    );
    for (name, model, dep) in &models {
        for (tput, lat) in model.curve(dep, 24) {
            a.row(vec![name.clone(), f0(tput), f2(lat)]);
            if tput <= 8000.0 {
                b.row(vec![name.clone(), f0(tput), f2(lat)]);
            }
        }
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_tput(t: &crate::table::Table, proto: &str) -> f64 {
        t.rows
            .iter()
            .filter(|r| r[0] == proto)
            .map(|r| r[1].parse::<f64>().unwrap())
            .fold(0.0, f64::max)
    }

    #[test]
    fn multi_leader_models_outscale_single_leader() {
        let tables = run(true);
        let a = &tables[0];
        let paxos = max_tput(a, "MultiPaxos");
        let fpaxos = max_tput(a, "FPaxos(|q2|=3)");
        let wpaxos = max_tput(a, "WPaxos");
        let epaxos = max_tput(a, "EPaxos");
        assert!(
            (paxos - fpaxos).abs() / paxos < 0.1,
            "FPaxos ~= Paxos in max tput"
        );
        assert!(wpaxos > 1.3 * paxos, "WPaxos {wpaxos} vs Paxos {paxos}");
        assert!(epaxos > paxos, "EPaxos {epaxos} vs Paxos {paxos}");
    }

    #[test]
    fn fpaxos_latency_gain_is_small_in_lan() {
        let tables = run(true);
        let b = &tables[1];
        let first = |proto: &str| -> f64 {
            b.rows.iter().find(|r| r[0] == proto).unwrap()[2]
                .parse()
                .unwrap()
        };
        let gain = first("MultiPaxos") - first("FPaxos(|q2|=3)");
        assert!((0.0..0.2).contains(&gain), "LAN FPaxos gain {gain} ms");
    }
}
