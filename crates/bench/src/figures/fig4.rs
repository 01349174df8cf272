//! Figure 4 — queueing-model comparison against a reference Paxos run.
//!
//! The paper evaluates M/M/1, M/D/1, M/G/1, and G/G/1 against the Paxi Paxos
//! implementation in a 9-node LAN under open-loop (Poisson) load, and picks
//! M/D/1. We regenerate every series: four model curves from
//! `paxi_model::queueing`, and the reference from the simulator running the
//! real MultiPaxos replica under Poisson arrivals.

use crate::runner::{run as run_sim, Proto};
use crate::table::{f0, f2, Table};
use paxi_model::protocols::{PaxosModel, PerfModel};
use paxi_model::queueing::QueueKind;
use paxi_model::Deployment;
use paxi_sim::client::uniform_workload;
use paxi_sim::{ClientSetup, SimConfig};

/// Rates swept in the figure (requests/second).
fn rates(quick: bool) -> Vec<f64> {
    if quick {
        vec![3000.0, 5000.0, 7000.0]
    } else {
        vec![
            3000.0, 3500.0, 4000.0, 4500.0, 5000.0, 5500.0, 6000.0, 6500.0, 7000.0, 7500.0, 8000.0,
        ]
    }
}

/// Builds the model-vs-reference latency table.
pub fn run_figure(quick: bool) -> Vec<Table> {
    let d = Deployment::lan(9);
    let ts = PaxosModel::multi_paxos().service_time(&d);
    // Service-time variability for the general models: the simulator's
    // service time is deterministic per message mix, with mild variation
    // from the broadcast/ack asymmetry; 15% CV matches what the sim exhibits.
    let cv2 = 0.15f64 * 0.15;
    let models: Vec<(&str, PaxosModel)> = vec![
        ("MM1", PaxosModel::multi_paxos().with_queue(QueueKind::MM1)),
        ("MD1", PaxosModel::multi_paxos().with_queue(QueueKind::MD1)),
        (
            "MG1",
            PaxosModel::multi_paxos().with_queue(QueueKind::MG1 {
                service_var: cv2 * ts * ts,
            }),
        ),
        (
            "GG1",
            PaxosModel::multi_paxos().with_queue(QueueKind::GG1 { ca2: 1.0, cs2: cv2 }),
        ),
    ];

    let mut t = Table::new(
        "Fig 4: queueing models vs Paxi reference (9-node LAN Paxos)",
        &[
            "throughput_rps",
            "MM1_ms",
            "MD1_ms",
            "MG1_ms",
            "GG1_ms",
            "Paxi_sim_ms",
        ],
    );
    for rate in rates(quick) {
        let mut cells = vec![f0(rate)];
        for (_, m) in &models {
            match m.latency_ms(&d, rate) {
                Some(ms) => cells.push(f2(ms)),
                None => cells.push("sat".into()),
            }
        }
        // Reference: the simulator under open-loop Poisson arrivals at the
        // same aggregate rate, on the modeled deployment.
        let sim = SimConfig {
            topology: d.topology.clone(),
            ..super::sim_preset(quick)
        };
        let clients = ClientSetup::open_single(rate);
        let report = run_sim(
            &Proto::paxos(),
            sim,
            d.cluster.clone(),
            uniform_workload(1000),
            clients,
        );
        cells.push(f2(report.latency.mean.as_millis_f64()));
        t.row(cells);
    }
    vec![t]
}

/// Alias used by the dispatch table.
pub fn run(quick: bool) -> Vec<Table> {
    run_figure(quick)
}

#[cfg(test)]
mod tests {
    #[test]
    fn md1_tracks_the_simulator_within_50_percent() {
        let tables = super::run_figure(true);
        let t = &tables[0];
        for row in &t.rows {
            let md1: f64 = row[2].parse().unwrap_or(f64::NAN);
            let simv: f64 = row[5].parse().unwrap_or(f64::NAN);
            if md1.is_finite() && simv.is_finite() {
                assert!(
                    (md1 - simv).abs() / simv < 0.5,
                    "MD1 {md1} vs sim {simv} at {}",
                    row[0]
                );
            }
        }
    }
}
