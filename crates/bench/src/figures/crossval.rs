//! Model ↔ simulator cross-validation (the paper's two-pronged methodology).
//!
//! "The Paxi experiments cross-validate the analytical model" (§1.1): here
//! the analytic models and the simulator run the *same* deployments and the
//! table reports both predictions side by side — max throughput and
//! low-load latency for each protocol family, on the 9-node LAN (the flat
//! `lan(9)` and WPaxos's 3×3 grid in a LAN). It has no WAN row yet.

use crate::runner::{sweep, Proto};
use crate::table::{f0, f2, Table};
use paxi_core::config::ClusterConfig;
use paxi_core::topology::Topology;
use paxi_model::protocols::{EPaxosModel, PaxosModel, PerfModel, WPaxosModel};
use paxi_model::Deployment;
use paxi_protocols::wpaxos::WPaxosConfig;
use paxi_sim::client::uniform_workload;
use paxi_sim::SimConfig;

/// Builds the cross-validation table.
pub fn run(quick: bool) -> Vec<Table> {
    let sim = super::sim_preset(quick);
    let counts = super::sweep_counts(quick);

    let mut t = Table::new(
        "Cross-validation: analytic model vs simulator (LAN, 9 nodes)",
        &[
            "protocol",
            "model_max_tput",
            "sim_max_tput",
            "ratio",
            "model_ms_low",
            "sim_ms_low",
        ],
    );

    // MultiPaxos and FPaxos on the flat LAN, one deployment for both.
    let lan = Deployment::lan(9);
    let lan_sim = SimConfig {
        topology: lan.topology.clone(),
        ..sim.clone()
    };
    let entries: Vec<(Proto, Box<dyn PerfModel>)> = vec![
        (Proto::paxos(), Box::new(PaxosModel::multi_paxos())),
        (Proto::fpaxos(3), Box::new(PaxosModel::fpaxos(3))),
    ];
    for (proto, model) in entries {
        let points = sweep(&proto, &lan_sim, &lan.cluster, &counts, || {
            uniform_workload(1000)
        });
        let sim_max = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
        let sim_low = points.first().map(|p| p.mean_ms).unwrap_or(f64::NAN);
        let model_max = model.max_throughput(&lan);
        let model_low = model.latency_ms(&lan, model_max * 0.05).unwrap_or(f64::NAN);
        t.row(vec![
            proto.name(),
            f0(model_max),
            f0(sim_max),
            f2(sim_max / model_max),
            f2(model_low),
            f2(sim_low),
        ]);
    }

    // WPaxos on the 3x3 grid-in-a-LAN.
    {
        let grid = Deployment {
            cluster: ClusterConfig::wan(3, 3),
            topology: Topology::lan_zones(3),
            ..lan.clone()
        };
        let grid_sim = SimConfig {
            topology: grid.topology.clone(),
            ..sim.clone()
        };
        let model = WPaxosModel::new(1.0);
        let points = sweep(
            &Proto::WPaxos(WPaxosConfig::default()),
            &grid_sim,
            &grid.cluster,
            &counts,
            || uniform_workload(1000),
        );
        let sim_max = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
        let sim_low = points.first().map(|p| p.mean_ms).unwrap_or(f64::NAN);
        let model_max = model.max_throughput(&grid);
        let model_low = model
            .latency_ms(&grid, model_max * 0.05)
            .unwrap_or(f64::NAN);
        t.row(vec![
            "WPaxos(fz=0)".into(),
            f0(model_max),
            f0(sim_max),
            f2(sim_max / model_max),
            f2(model_low),
            f2(sim_low),
        ]);
    }

    // EPaxos: the model uses the light analytic cost, the simulator pays the
    // experimental dependency-processing penalty — compare the *shape* only.
    {
        let model = EPaxosModel::new(0.02);
        let points = sweep(&Proto::epaxos(), &lan_sim, &lan.cluster, &counts, || {
            uniform_workload(1000)
        });
        let sim_max = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
        let sim_low = points.first().map(|p| p.mean_ms).unwrap_or(f64::NAN);
        let model_max = model.max_throughput(&lan);
        let model_low = model.latency_ms(&lan, model_max * 0.05).unwrap_or(f64::NAN);
        t.row(vec![
            "EPaxos (model c=0.02 / sim penalized)".into(),
            f0(model_max),
            f0(sim_max),
            f2(sim_max / model_max),
            f2(model_low),
            f2(sim_low),
        ]);
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_and_simulator_agree_for_leaderful_protocols() {
        let t = &super::run(true)[0];
        for row in &t.rows {
            if row[0].starts_with("EPaxos") {
                continue; // deliberately different cost assumptions
            }
            let ratio: f64 = row[3].parse().unwrap();
            assert!(
                (0.6..1.6).contains(&ratio),
                "{}: sim/model throughput ratio {ratio}",
                row[0]
            );
            let model_ms: f64 = row[4].parse().unwrap();
            let sim_ms: f64 = row[5].parse().unwrap();
            assert!(
                (model_ms - sim_ms).abs() < 1.0,
                "{}: low-load latency model {model_ms} vs sim {sim_ms}",
                row[0]
            );
        }
    }
}
