//! Figure 11 — per-region latency under a conflict workload (WAN).
//!
//! Five AWS regions, three nodes each. One designated "hot" object lives in
//! Ohio; each request targets it with probability `c` (the conflict ratio)
//! and a zone-private object otherwise. The paper reads three regions off
//! the resulting curves (VA, OH, CA):
//!
//! * protocols that commit within one region (WPaxos fz=0, WanKeeper,
//!   VPaxos) keep flat latency — interfering commands are forwarded to the
//!   hot object's home region;
//! * the home region (OH) enjoys local latency under any conflict ratio for
//!   every leader-ful protocol, while EPaxos suffers even there;
//! * WPaxos fz=1 stays best among the region-fault-tolerant protocols.

use crate::runner::{run as run_sim, Proto};
use crate::table::{f2, Table};
use crate::workload::HotKeyWorkload;
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_protocols::paxos::PaxosConfig;
use paxi_protocols::vpaxos::VPaxosConfig;
use paxi_protocols::wankeeper::WanKeeperConfig;
use paxi_protocols::wpaxos::WPaxosConfig;
use paxi_sim::{ClientSetup, Topology};

/// Ohio hosts the hot object (zone 1 in the VA/OH/CA/IR/JP order).
const OH: u8 = 1;

fn protocols() -> Vec<Proto> {
    vec![
        Proto::WPaxos(WPaxosConfig {
            initial_owner: Some(NodeId::new(OH, 0)),
            ..WPaxosConfig::default()
        }),
        Proto::WPaxos(WPaxosConfig {
            fz: 1,
            initial_owner: Some(NodeId::new(OH, 0)),
            ..WPaxosConfig::default()
        }),
        Proto::WanKeeper(WanKeeperConfig {
            master_zone: OH,
            ..Default::default()
        }),
        Proto::epaxos(),
        Proto::VPaxos(VPaxosConfig {
            master_zone: OH,
            initial_zone: OH,
        }),
        Proto::Paxos(PaxosConfig {
            initial_leader: NodeId::new(OH, 0),
            ..Default::default()
        }),
    ]
}

/// Builds one table per displayed region (VA, OH, CA).
pub fn run(quick: bool) -> Vec<Table> {
    let conflicts: Vec<u8> = if quick {
        vec![0, 40, 100]
    } else {
        vec![0, 20, 40, 60, 80, 100]
    };
    let cluster = ClusterConfig::wan(5, 3);
    // Migration of each zone's private objects away from Ohio is gated on
    // client-paced WAN round trips, so the warmup must cover it (the paper
    // measures steady state over 60-second runs).
    let sim = paxi_sim::SimConfig {
        topology: Topology::aws5(),
        warmup: paxi_core::Nanos::secs(if quick { 5 } else { 10 }),
        measure: paxi_core::Nanos::secs(if quick { 2 } else { 5 }),
        ..super::sim_preset(quick)
    };
    let protos = protocols();
    let names: Vec<String> = protos.iter().map(|p| p.name()).collect();

    // results[zone][conflict_idx][proto_idx] = mean ms
    let mut results = vec![vec![vec![f64::NAN; protos.len()]; conflicts.len()]; 3];
    for (ci, &c) in conflicts.iter().enumerate() {
        for (pi, proto) in protos.iter().enumerate() {
            let clients = ClientSetup::closed_per_zone(&cluster, 2);
            let workload = HotKeyWorkload {
                conflict: c as f64 / 100.0,
                hot_key: 0,
                private_keys: 20,
            };
            let report = run_sim(proto, sim.clone(), cluster.clone(), workload, clients);
            for zone in 0..3u8 {
                if let Some(s) = report.zone_latency.get(&zone) {
                    results[zone as usize][ci][pi] = s.mean.as_millis_f64();
                }
            }
        }
    }

    let region_names = ["Virginia", "Ohio", "California"];
    let mut tables = Vec::new();
    for (zone, region) in region_names.iter().enumerate() {
        let mut cols: Vec<&str> = vec!["conflict_pct"];
        cols.extend(names.iter().map(String::as_str));
        let mut t = Table::new(
            format!(
                "Fig 11{}: conflict workload latency in {region}",
                (b'a' + zone as u8) as char
            ),
            &cols,
        );
        for (ci, &c) in conflicts.iter().enumerate() {
            let mut row = vec![c.to_string()];
            row.extend(results[zone][ci].iter().map(|&v| f2(v)));
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    #[test]
    fn conflict_shapes_match_the_papers_observations() {
        let tables = super::run(true);
        let va = &tables[0];
        let oh = &tables[1];
        let col = |t: &crate::table::Table, name: &str| -> usize {
            t.columns.iter().position(|c| c == name).unwrap()
        };
        // (1) Region-committing protocols (WanKeeper, VPaxos, WPaxos fz=0)
        // forward interfering commands to the hot object's home region: VA's
        // latency climbs from local (~1ms) toward one VA->OH round trip
        // (~11ms RTT), never to Paxos's quorum-bound level.
        for proto in ["WanKeeper", "VPaxos", "WPaxos(fz=0)"] {
            let c = col(va, proto);
            let at0: f64 = va.rows.first().unwrap()[c].parse().unwrap();
            let at100: f64 = va.rows.last().unwrap()[c].parse().unwrap();
            assert!(
                at0 < 6.0,
                "{proto} VA at 0% conflict should be local: {at0}"
            );
            assert!(
                at100 > 6.0 && at100 < 35.0,
                "{proto} VA at 100% should pay ~one VA-OH trip: {at100}"
            );
        }
        // (2) The hot object's home region keeps (near-)local latency for
        // every owner-ful protocol even at 100% conflict.
        for proto in ["WanKeeper", "VPaxos", "WPaxos(fz=0)"] {
            let c = col(oh, proto);
            let at100: f64 = oh.rows.last().unwrap()[c].parse().unwrap();
            assert!(at100 < 8.0, "{proto} OH at 100% conflict: {at100}");
        }
        // (3) Paxos pays the OH-leader WAN quorum everywhere, regardless of
        // the conflict ratio (flat and high in VA).
        let px = col(va, "Paxos");
        let px_first: f64 = va.rows.first().unwrap()[px].parse().unwrap();
        let px_last: f64 = va.rows.last().unwrap()[px].parse().unwrap();
        assert!(
            px_first > 20.0,
            "Paxos VA should pay WAN quorum: {px_first}"
        );
        assert!(
            (px_last / px_first - 1.0).abs() < 0.5,
            "Paxos is conflict-insensitive"
        );
        // (4) EPaxos suffers from interference even in the hot object's
        // home region (no leader advantage there).
        let ep = col(oh, "EPaxos");
        let ep_last: f64 = oh.rows.last().unwrap()[ep].parse().unwrap();
        assert!(
            ep_last > 8.0,
            "EPaxos OH at 100% conflict pays WAN rounds: {ep_last}"
        );
    }
}
