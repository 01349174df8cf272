//! Availability experiment (the paper's §1.2 claim; no published figure).
//!
//! "In Paxos, failure of the single leader leads to unavailability until a
//! new leader is elected, but in multi-leader protocols most requests do not
//! experience any disruption in availability, as the failed leader is not in
//! their critical path."
//!
//! Both systems lose one leader node at t = 2 s; the table shows completions
//! per 250 ms bucket around the crash.

use crate::table::Table;
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::time::Nanos;
use paxi_core::Command;
use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi_protocols::wpaxos::{wpaxos_cluster, WPaxosConfig};
use paxi_sim::{ClientSetup, SimConfig, Simulator, Topology};

fn zone_writes(client: ClientId, zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64) -> Command {
    Command::put(
        zone as u64 * 1000 + rng.below(20),
        paxi_sim::client::unique_value(client, seq),
    )
}

fn timeline(report: &paxi_sim::SimReport) -> Vec<(f64, u64)> {
    report
        .timeline
        .iter()
        .map(|(t, c)| (t.as_secs_f64(), *c))
        .collect()
}

/// Builds the availability timeline table.
pub fn run(quick: bool) -> Vec<Table> {
    let measure = if quick {
        Nanos::secs(4)
    } else {
        Nanos::secs(6)
    };
    let base = SimConfig {
        warmup: Nanos::millis(100),
        measure,
        client_retry: Some(Nanos::millis(500)),
        timeline_bucket: Some(Nanos::millis(250)),
        ..SimConfig::default()
    };

    // Paxos: crash the leader.
    let cluster = ClusterConfig::lan(5);
    let mut paxos_sim = Simulator::new(
        base.clone(),
        cluster.clone(),
        paxos_cluster(
            cluster,
            PaxosConfig {
                election_timeout: Nanos::millis(400),
                ..Default::default()
            },
        ),
        zone_writes,
        ClientSetup::closed_per_zone(&ClusterConfig::lan(5), 4),
    );
    paxos_sim
        .faults_mut()
        .crash(NodeId::new(0, 0), Nanos::secs(2), Nanos::secs(60));
    let paxos = paxos_sim.run();

    // WPaxos: crash one of the three zone leaders; other zones unaffected.
    let cluster = ClusterConfig::wan(3, 3);
    let mut wpaxos_sim = Simulator::new(
        SimConfig {
            topology: Topology::lan_zones(3),
            ..base
        },
        cluster.clone(),
        wpaxos_cluster(cluster.clone(), WPaxosConfig::default()),
        zone_writes,
        ClientSetup::closed_per_zone(&cluster, 4),
    );
    wpaxos_sim
        .faults_mut()
        .crash(NodeId::new(2, 0), Nanos::secs(2), Nanos::secs(60));
    let wpaxos = wpaxos_sim.run();

    let mut t = Table::new(
        "Availability: completions per 250ms, one leader crashed at t=2s",
        &["t_s", "paxos_ops", "wpaxos_ops"],
    );
    let p = timeline(&paxos);
    let w = timeline(&wpaxos);
    let buckets: std::collections::BTreeSet<u64> = p
        .iter()
        .chain(&w)
        .map(|(t, _)| (t * 4.0).round() as u64)
        .collect();
    for b in buckets {
        let ts = b as f64 / 4.0;
        let find = |series: &[(f64, u64)]| {
            series
                .iter()
                .find(|(t, _)| ((t * 4.0).round() as u64) == b)
                .map(|(_, c)| c.to_string())
                .unwrap_or_else(|| "0".into())
        };
        t.row(vec![format!("{ts:.2}"), find(&p), find(&w)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn paxos_dips_while_wpaxos_keeps_most_of_its_throughput() {
        let t = &super::run(true)[0];
        let at = |ts: &str, col: usize| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == ts)
                .map(|r| r[col].parse().unwrap())
                .unwrap_or(0)
        };
        let paxos_before = at("1.75", 1);
        let paxos_outage = at("2.25", 1);
        assert!(
            paxos_outage < paxos_before / 3,
            "paxos outage {paxos_outage} vs before {paxos_before}"
        );
        let wpaxos_before = at("1.75", 2);
        let wpaxos_after = at("2.50", 2);
        // Two of three zones keep committing: well above half throughput.
        assert!(
            wpaxos_after * 2 > wpaxos_before,
            "wpaxos after {wpaxos_after} vs before {wpaxos_before}"
        );
    }
}
