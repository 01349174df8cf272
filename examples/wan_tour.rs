//! WAN tour: compare the protocol families across five AWS-like regions.
//!
//! Run with `cargo run --release --example wan_tour`.
//!
//! Deploys each protocol on the paper's VA/OH/CA/IR/JP topology (3 nodes per
//! region) in the deterministic simulator, drives a conflict-free workload
//! from every region, and prints per-region mean latency — a miniature of
//! the paper's §5.3 experiments.

use paxi::bench::{run, Proto};
use paxi::core::{ClusterConfig, Nanos, NodeId};
use paxi::protocols::paxos::PaxosConfig;
use paxi::protocols::vpaxos::VPaxosConfig;
use paxi::protocols::wankeeper::WanKeeperConfig;
use paxi::protocols::wpaxos::WPaxosConfig;
use paxi::sim::{ClientSetup, SimConfig, Topology};
use paxi_core::dist::Rng64;
use paxi_core::id::ClientId;
use paxi_core::Command;

fn main() {
    let regions = ["VA", "OH", "CA", "IR", "JP"];
    // Each region writes its own keys: the best case for locality-aware
    // multi-leader protocols, the worst case for a single remote leader.
    let workload = |client: ClientId, zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        let key = zone as u64 * 1000 + rng.below(20);
        Command::put(key, paxi::sim::client::unique_value(client, seq))
    };

    let protos: Vec<Proto> = vec![
        Proto::Paxos(PaxosConfig {
            initial_leader: NodeId::new(1, 0),
            ..Default::default()
        }),
        Proto::epaxos(),
        Proto::WPaxos(WPaxosConfig::default()),
        Proto::WanKeeper(WanKeeperConfig {
            master_zone: 1,
            ..Default::default()
        }),
        Proto::VPaxos(VPaxosConfig {
            master_zone: 1,
            initial_zone: 1,
            window: 3,
        }),
    ];

    println!(
        "{:<16} {}",
        "protocol",
        regions.map(|r| format!("{r:>9}")).join(" ")
    );
    println!("{}", "-".repeat(16 + 10 * regions.len()));
    for proto in protos {
        let cluster = ClusterConfig::wan(5, 3);
        let sim = SimConfig {
            topology: Topology::aws5(),
            warmup: Nanos::secs(5),
            measure: Nanos::secs(3),
            ..SimConfig::default()
        };
        let clients = ClientSetup::closed_per_zone(&cluster, 2);
        let report = run(&proto, sim, cluster, workload, clients);
        let cells: Vec<String> = (0..5u8)
            .map(|z| match report.zone_latency.get(&z) {
                Some(s) => format!("{:>7.1}ms", s.mean.as_millis_f64()),
                None => format!("{:>9}", "-"),
            })
            .collect();
        println!("{:<16} {}", proto.name(), cells.join(" "));
    }
    println!();
    println!("Reading the table: single-leader Paxos forces every region through");
    println!("Ohio and its majority quorum; the locality-aware protocols commit");
    println!("each region's keys within that region after ownership migrates.");
}
