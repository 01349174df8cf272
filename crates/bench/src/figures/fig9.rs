//! Figure 9 — experimental (simulated Paxi) LAN comparison.
//!
//! Uniformly random workload over 1000 objects, 50% reads, 9 nodes in one
//! availability zone. Single-leader protocols hit the leader wall around
//! 8 k ops/s; the multi-leader WPaxos and the hierarchical WanKeeper spread
//! the per-round message work and go further; EPaxos pays dependency
//! processing on every message and lands last (paper §5.2).

use crate::config::BenchmarkConfig;
use crate::runner::{sweep, Proto};
use crate::table::{f0, f2, Table};
use crate::workload::GeneralWorkload;
use paxi_core::config::ClusterConfig;
use paxi_protocols::wankeeper::WanKeeperConfig;
use paxi_protocols::wpaxos::WPaxosConfig;
use paxi_sim::Topology;

/// Builds the five latency-vs-throughput series.
pub fn run(quick: bool) -> Vec<Table> {
    let counts = super::sweep_counts(quick);
    let sim = super::sim_preset(quick);
    let bench = BenchmarkConfig::uniform(1000, 0.5);

    let mut t = Table::new(
        "Fig 9: experimental LAN performance (1000 keys, 50% reads)",
        &["protocol", "clients", "throughput_ops", "latency_ms"],
    );

    // Flat 9-node LAN for the single-leader and leaderless protocols.
    let lan = ClusterConfig::lan(9);
    for proto in [Proto::paxos(), Proto::fpaxos(3), Proto::epaxos()] {
        let bench = bench.clone();
        let points = sweep(&proto, &sim, &lan, &counts, || {
            GeneralWorkload::new(bench.clone(), 1)
        });
        for p in points {
            t.row(vec![
                proto.name(),
                p.clients.to_string(),
                f0(p.throughput),
                f2(p.mean_ms),
            ]);
        }
    }

    // The same 9 nodes as a 3x3 grid for the zone-structured protocols.
    let grid = ClusterConfig::wan(3, 3);
    let grid_sim = paxi_sim::SimConfig {
        topology: Topology::lan_zones(3),
        ..sim.clone()
    };
    let zone_protos = [
        Proto::WPaxos(WPaxosConfig::default()),
        // In a LAN there is no reason to centralize shared objects at the
        // master; the decentralized forwarding variant matches the paper's
        // LAN deployment (see EXPERIMENTS.md).
        Proto::WanKeeper(WanKeeperConfig {
            shared_to_master: false,
            ..Default::default()
        }),
    ];
    for proto in zone_protos {
        let bench = bench.clone();
        let points = sweep(&proto, &grid_sim, &grid, &counts, || {
            GeneralWorkload::new(bench.clone(), 3)
        });
        for p in points {
            t.row(vec![
                proto.name(),
                p.clients.to_string(),
                f0(p.throughput),
                f2(p.mean_ms),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn ranking_matches_paper() {
        let t = &super::run(true)[0];
        let max_tput = |proto: &str| -> f64 {
            t.rows
                .iter()
                .filter(|r| r[0] == proto)
                .map(|r| r[2].parse::<f64>().unwrap())
                .fold(0.0, f64::max)
        };
        let paxos = max_tput("Paxos");
        let fpaxos = max_tput("FPaxos(|q2|=3)");
        let epaxos = max_tput("EPaxos");
        let wpaxos = max_tput("WPaxos(fz=0)");
        let wankeeper = max_tput("WanKeeper");
        // Paper §5.2: multi-leader beats single leader; WanKeeper beats
        // WPaxos by being hierarchical; EPaxos is the worst performer in the
        // Paxi LAN experiments.
        assert!(wpaxos > 1.2 * paxos, "wpaxos {wpaxos} paxos {paxos}");
        assert!(wankeeper > wpaxos, "wankeeper {wankeeper} wpaxos {wpaxos}");
        assert!(
            epaxos < wpaxos,
            "epaxos {epaxos} should trail wpaxos {wpaxos}"
        );
        assert!(
            (0.8..1.25).contains(&(fpaxos / paxos)),
            "fpaxos {fpaxos} ~ paxos {paxos}"
        );
    }
}
