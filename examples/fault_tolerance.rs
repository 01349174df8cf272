//! Fault tolerance: watch a Paxos cluster lose its leader and recover.
//!
//! Run with `cargo run --release --example fault_tolerance`.
//!
//! Uses the simulator's fault injection (the Paxi `Crash(t)` primitive) to
//! freeze the leader two seconds into the run, and prints a completion
//! timeline: service dips to zero during the election and resumes under the
//! new leader. A WPaxos run with the same fault shows the multi-leader
//! contrast — only the crashed zone is disturbed.

use paxi::core::{ClusterConfig, Nanos, NodeId};
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::protocols::wpaxos::{wpaxos_cluster, WPaxosConfig};
use paxi::sim::{ClientSetup, SimConfig, Simulator, Topology};
use paxi_core::dist::Rng64;
use paxi_core::id::ClientId;
use paxi_core::Command;

fn timeline_chart(timeline: &[(Nanos, u64)], crash_at: Nanos) {
    let max = timeline.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    for (t, c) in timeline {
        let bar = "#".repeat((c * 40 / max) as usize);
        let marker = if *t >= crash_at && *t < crash_at + Nanos::millis(250) {
            " <- leader crash"
        } else {
            ""
        };
        println!("  {:>6.2}s |{bar:<40}| {c}{marker}", t.as_secs_f64());
    }
}

fn main() {
    let workload = |client: ClientId, zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        Command::put(
            zone as u64 * 1000 + rng.below(20),
            paxi::sim::client::unique_value(client, seq),
        )
    };

    println!("=== single-leader Paxos: leader crash at t=2s ===");
    let cluster = ClusterConfig::lan(5);
    let cfg = SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::secs(5),
        client_retry: Some(Nanos::millis(500)),
        timeline_bucket: Some(Nanos::millis(250)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        paxos_cluster(
            cluster,
            PaxosConfig {
                election_timeout: Nanos::millis(400),
                ..Default::default()
            },
        ),
        workload,
        ClientSetup::closed_per_zone(&ClusterConfig::lan(5), 4),
    );
    sim.faults_mut()
        .crash(NodeId::new(0, 0), Nanos::secs(2), Nanos::secs(30));
    let report = sim.run();
    timeline_chart(&report.timeline, Nanos::secs(2));
    println!(
        "  (abandoned requests during the outage: {})\n",
        report.abandoned
    );

    println!("=== WPaxos (3 zones): zone-2 leader crash at t=2s ===");
    let cluster = ClusterConfig::wan(3, 3);
    let cfg = SimConfig {
        topology: Topology::lan_zones(3),
        warmup: Nanos::millis(100),
        measure: Nanos::secs(5),
        timeline_bucket: Some(Nanos::millis(250)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        wpaxos_cluster(cluster.clone(), WPaxosConfig::default()),
        workload,
        ClientSetup::closed_per_zone(&cluster, 4),
    );
    sim.faults_mut()
        .crash(NodeId::new(2, 0), Nanos::secs(2), Nanos::secs(30));
    let report = sim.run();
    timeline_chart(&report.timeline, Nanos::secs(2));
    println!("  zones 0 and 1 keep full throughput: the crashed leader was");
    println!("  never on their critical path (paper §1.2).");
}
