//! Figure 13 — locality workload across five regions (WAN).
//!
//! Objects start in Ohio; each region then draws keys from a Normal
//! distribution centered on its own slice of the key space (the paper's
//! locality workload, Figure 6). Locality-aware protocols migrate objects
//! toward their users: WPaxos steals them with per-key phase-1s, VPaxos
//! relocates them through its configuration master, and WanKeeper moves
//! tokens down — except objects shared across regions, which its master
//! keeps, giving Ohio the best latency at the other regions' expense.
//! 13a reports per-region mean latency; 13b the global latency CDF.

use crate::config::BenchmarkConfig;
use crate::runner::{run as run_sim, Proto};
use crate::table::{f2, Table};
use crate::workload::GeneralWorkload;
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_protocols::paxos::PaxosConfig;
use paxi_protocols::vpaxos::VPaxosConfig;
use paxi_protocols::wankeeper::WanKeeperConfig;
use paxi_protocols::wpaxos::WPaxosConfig;
use paxi_sim::{ClientSetup, Topology};

const OH: u8 = 1;

fn protocols() -> Vec<Proto> {
    vec![
        Proto::WPaxos(WPaxosConfig {
            initial_owner: Some(NodeId::new(OH, 0)),
            ..WPaxosConfig::default()
        }),
        Proto::WanKeeper(WanKeeperConfig {
            master_zone: OH,
            ..Default::default()
        }),
        Proto::VPaxos(VPaxosConfig {
            master_zone: OH,
            initial_zone: OH,
            window: 3,
        }),
        Proto::WPaxos(WPaxosConfig {
            fz: 2,
            initial_owner: Some(NodeId::new(OH, 0)),
            ..WPaxosConfig::default()
        }),
        Proto::Paxos(PaxosConfig {
            initial_leader: NodeId::new(OH, 0),
            ..Default::default()
        }),
        Proto::epaxos(),
    ]
}

/// Builds the per-region latency table (13a) and the CDF table (13b).
pub fn run(quick: bool) -> Vec<Table> {
    // Ownership migration away from Ohio is gated on cross-WAN phase-1s /
    // relocations (hundreds of ms each), so the warmup must cover the full
    // migration phase before the steady-state window opens — the paper runs
    // this workload for 60 seconds.
    let sim = paxi_sim::SimConfig {
        topology: Topology::aws5(),
        warmup: paxi_core::Nanos::secs(if quick { 30 } else { 50 }),
        measure: paxi_core::Nanos::secs(if quick { 5 } else { 10 }),
        ..super::sim_preset(quick)
    };
    let keys = if quick { 120 } else { 300 };
    let protos = protocols();
    let names: Vec<String> = protos.iter().map(|p| p.name()).collect();
    let bench = BenchmarkConfig::locality(keys, 60.0 * keys as f64 / 1000.0);

    let mut region_rows: Vec<Vec<String>> = Vec::new();
    let mut cdf_table = Table::new(
        "Fig 13b: latency CDF under the locality workload",
        &["protocol", "latency_ms", "cum_fraction"],
    );
    // zone display order follows the paper's x axis: T C O V I.
    let display: [(u8, &str); 5] = [
        (4, "Tokyo"),
        (2, "California"),
        (1, "Ohio"),
        (0, "Virginia"),
        (3, "Ireland"),
    ];
    let mut per_zone: Vec<Vec<f64>> = vec![vec![f64::NAN; protos.len()]; 5];

    let cluster = ClusterConfig::wan(5, 3);
    for (pi, proto) in protos.iter().enumerate() {
        let clients = ClientSetup::closed_per_zone(&cluster, 3);
        let workload = GeneralWorkload::new(bench.clone(), 5);
        let report = run_sim(proto, sim.clone(), cluster.clone(), workload, clients);
        for (di, (zone, _)) in display.iter().enumerate() {
            if let Some(s) = report.zone_latency.get(zone) {
                per_zone[di][pi] = s.mean.as_millis_f64();
            }
        }
        // Downsample the CDF to ~24 points.
        let cdf = report.histogram.cdf();
        let step = (cdf.len() / 24).max(1);
        for (i, (lat, frac)) in cdf.iter().enumerate() {
            if i % step == 0 || i + 1 == cdf.len() {
                cdf_table.row(vec![
                    names[pi].clone(),
                    f2(lat.as_millis_f64()),
                    format!("{frac:.3}"),
                ]);
            }
        }
    }
    for (di, (_, region)) in display.iter().enumerate() {
        let mut row = vec![region.to_string()];
        row.extend(per_zone[di].iter().map(|&v| f2(v)));
        region_rows.push(row);
    }

    let mut cols: Vec<&str> = vec!["region"];
    cols.extend(names.iter().map(String::as_str));
    let mut a = Table::new(
        "Fig 13a: average latency per region (locality workload)",
        &cols,
    );
    for row in region_rows {
        a.row(row);
    }
    vec![a, cdf_table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn locality_aware_protocols_balance_and_wankeeper_favors_ohio() {
        let tables = super::run(true);
        let a = &tables[0];
        let col = |name: &str| a.columns.iter().position(|c| c == name).unwrap();
        let cell = |region: &str, c: usize| -> f64 {
            a.rows.iter().find(|r| r[0] == region).unwrap()[c]
                .parse()
                .unwrap()
        };
        let wk = col("WanKeeper");
        let wp = col("WPaxos(fz=0)");
        // WanKeeper: Ohio (the master) sees the best latency of its column —
        // other regions pay WAN trips for objects shared across regions,
        // which the master keeps (allow sub-ms jitter between all-local
        // regions).
        let oh = cell("Ohio", wk);
        let mut worst = 0.0f64;
        for region in ["Tokyo", "California", "Virginia", "Ireland"] {
            let v = cell(region, wk);
            assert!(v >= oh - 0.5, "WanKeeper {region} ({v}) vs Ohio ({oh})");
            worst = worst.max(v);
        }
        assert!(
            worst > oh + 5.0,
            "some region pays for shared objects: worst {worst} vs OH {oh}"
        );
        // WPaxos balances: once objects migrate, every region is far below
        // the single-leader WAN cost (remote regions like Tokyo keep a tail
        // of boundary objects contested with neighbors, so the mean stays
        // above pure-LAN).
        for region in ["Tokyo", "California", "Virginia", "Ireland", "Ohio"] {
            let v = cell(region, wp);
            assert!(v < 120.0, "WPaxos {region} latency {v}");
        }
        // Single-leader Paxos punishes distant regions (Tokyo >> Ohio)...
        let px = col("Paxos");
        assert!(cell("Tokyo", px) > cell("Ohio", px) + 50.0);
        // ...and WPaxos beats Paxos decisively in those distant regions.
        assert!(
            cell("Tokyo", wp) + 50.0 < cell("Tokyo", px),
            "WPaxos Tokyo {} vs Paxos Tokyo {}",
            cell("Tokyo", wp),
            cell("Tokyo", px)
        );
    }

    #[test]
    fn cdf_is_monotone_per_protocol() {
        let tables = super::run(true);
        let cdf = &tables[1];
        let mut last: std::collections::HashMap<String, f64> = Default::default();
        for row in &cdf.rows {
            let f: f64 = row[2].parse().unwrap();
            let prev = last.insert(row[0].clone(), f).unwrap_or(0.0);
            assert!(f >= prev - 1e-9, "{} CDF not monotone", row[0]);
        }
    }
}
