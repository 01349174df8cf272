//! Cross-protocol linearizability and consensus checking.
//!
//! Every protocol runs the same mixed read/write workload on a small, highly
//! contended key space; the TAO-style offline checker then scans the full
//! operation log for anomalous reads, and (where replicas expose their state
//! machine) the consensus checker verifies that all per-key histories share
//! a common prefix. This is the paper's "consistency" benchmark tier.

use paxi::bench::{check_consensus, check_linearizability, run, Proto};
use paxi::core::Replica;
use paxi::core::{ClusterConfig, Nanos};
use paxi::protocols::raft::RaftConfig;
use paxi::protocols::vpaxos::VPaxosConfig;
use paxi::protocols::wankeeper::WanKeeperConfig;
use paxi::protocols::wpaxos::WPaxosConfig;
use paxi::sim::{ClientSetup, SimConfig, Topology};
use paxi_core::dist::Rng64;
use paxi_core::id::ClientId;
use paxi_core::Command;

fn contended_workload(keys: u64) -> impl FnMut(ClientId, u8, u64, Nanos, &mut Rng64) -> Command {
    move |client: ClientId, _zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        let key = rng.below(keys);
        if rng.chance(0.5) {
            Command::get(key)
        } else {
            Command::put(key, paxi::sim::client::unique_value(client, seq))
        }
    }
}

fn check(proto: Proto, cluster: ClusterConfig, topology: Topology) {
    let sim = SimConfig {
        record_ops: true,
        topology,
        warmup: Nanos::millis(300),
        measure: Nanos::secs(2),
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    let report = run(&proto, sim, cluster, contended_workload(5), clients);
    assert!(
        report.completed > 300,
        "{}: completed {}",
        proto.name(),
        report.completed
    );
    let anomalies = check_linearizability(&report.ops);
    assert!(
        anomalies.is_empty(),
        "{}: {} anomalous reads, first: {:?}",
        proto.name(),
        anomalies.len(),
        anomalies.first()
    );
}

#[test]
fn paxos_is_linearizable() {
    check(Proto::paxos(), ClusterConfig::lan(5), Topology::lan());
}

#[test]
fn fpaxos_is_linearizable() {
    check(Proto::fpaxos(2), ClusterConfig::lan(5), Topology::lan());
}

#[test]
fn epaxos_is_linearizable_under_contention() {
    check(Proto::epaxos(), ClusterConfig::lan(5), Topology::lan());
}

#[test]
fn raft_is_linearizable() {
    check(
        Proto::Raft(RaftConfig::default()),
        ClusterConfig::lan(5),
        Topology::lan(),
    );
}

#[test]
fn wpaxos_is_linearizable_across_zones() {
    check(
        Proto::WPaxos(WPaxosConfig::default()),
        ClusterConfig::wan(3, 3),
        Topology::lan_zones(3),
    );
}

#[test]
fn wankeeper_is_linearizable_across_zones() {
    check(
        Proto::WanKeeper(WanKeeperConfig::default()),
        ClusterConfig::wan(3, 3),
        Topology::lan_zones(3),
    );
}

#[test]
fn vpaxos_is_linearizable_across_zones() {
    check(
        Proto::VPaxos(VPaxosConfig::default()),
        ClusterConfig::wan(3, 3),
        Topology::lan_zones(3),
    );
}

#[test]
fn wpaxos_in_wan_is_linearizable_during_migration() {
    // Object stealing across real WAN latencies must not lose or reorder
    // committed writes.
    check(
        Proto::WPaxos(WPaxosConfig::default()),
        ClusterConfig::wan(3, 3),
        Topology::aws3(),
    );
}

// --- sharded deployments: per-shard checking and cross-shard isolation ---
//
// A sharded run is `N` disjoint consensus instances over one set of nodes.
// Linearizability is checked per shard (a global check could mask cross-shard
// bugs), and two isolation invariants are audited on the surviving state:
// no group's store holds a key the partitioner assigns elsewhere, and every
// group's replicas share a common per-key history prefix.

#[test]
fn sharded_paxos_is_linearizable_per_shard() {
    use paxi::bench::{check_sharded, run_sharded};
    use paxi::shard::RangePartitioner;
    let sim = SimConfig {
        record_ops: true,
        warmup: Nanos::millis(300),
        measure: Nanos::secs(2),
        ..SimConfig::default()
    };
    let (groups, key_space) = (4, 64);
    let run = run_sharded(
        &Proto::paxos(),
        groups,
        sim,
        ClusterConfig::lan(5),
        key_space,
        3,
    );
    assert!(run.report.completed > 300, "{run}");
    // Cross-shard key leakage and within-group divergence are among the
    // verdict's audits.
    assert!(run.passed(), "{run}");
    let part = RangePartitioner::even(key_space, groups);
    let shards = check_sharded(&run.report.ops, &part);
    assert!(
        shards.len() >= 2,
        "expected traffic on several shards, got {}",
        shards.len()
    );
    for (g, anomalies) in shards {
        assert!(
            anomalies.is_empty(),
            "shard {g}: {} anomalous reads, first: {:?}",
            anomalies.len(),
            anomalies.first()
        );
    }
}

#[test]
fn sharded_raft_keeps_groups_isolated() {
    use paxi::bench::run_sharded;
    let sim = SimConfig {
        warmup: Nanos::millis(300),
        measure: Nanos::secs(2),
        ..SimConfig::default()
    };
    let raft = Proto::Raft(RaftConfig::default());
    let run = run_sharded(&raft, 2, sim, ClusterConfig::lan(5), 64, 3);
    assert!(run.report.completed > 300, "{run}");
    assert!(run.passed(), "{run}");
}

#[test]
fn per_shard_checker_isolates_anomalies_to_the_offending_shard() {
    use paxi::bench::check_sharded;
    use paxi::core::GroupId;
    use paxi::shard::RangePartitioner;
    use paxi::sim::OpRecord;
    // Two groups over keys [0,4) and [4,8).
    let part = RangePartitioner::even(8, 2);
    let rec = |client: u32, key: u64, write: Option<&[u8]>, read: Option<&[u8]>, t: u64| OpRecord {
        client: ClientId(client),
        key,
        write: write.map(|v| v.to_vec()),
        read: read.map(|v| Some(v.to_vec())),
        invoke: Nanos(t),
        ret: Nanos(t + 5),
        ok: true,
    };
    let ops = vec![
        // Shard 0 (key 1): clean write-then-read.
        rec(0, 1, Some(b"a"), None, 0),
        rec(0, 1, None, Some(b"a"), 10),
        // Shard 1 (key 5): the read observes a value nobody ever wrote.
        rec(1, 5, Some(b"b"), None, 0),
        rec(1, 5, None, Some(b"phantom"), 10),
    ];
    let shards = check_sharded(&ops, &part);
    assert_eq!(shards.len(), 2);
    for (g, anomalies) in shards {
        if g == GroupId(0) {
            assert!(anomalies.is_empty(), "clean shard flagged: {anomalies:?}");
        } else {
            assert!(
                !anomalies.is_empty(),
                "phantom read in shard {g} went undetected"
            );
        }
    }
}

#[test]
fn consensus_checker_accepts_paxos_replicas() {
    use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
    use paxi::sim::Simulator;
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 4);
    let mut sim = Simulator::new(
        SimConfig::default(),
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        contended_workload(10),
        clients,
    );
    let _ = sim.run();
    let stores: Vec<_> = sim
        .replicas()
        .iter()
        .map(|r| r.store().expect("paxos exposes its store"))
        .collect();
    check_consensus(&stores).expect("replica histories must share a common prefix");
}

#[test]
fn consensus_checker_accepts_epaxos_replicas() {
    use paxi::protocols::epaxos::epaxos_cluster;
    use paxi::sim::Simulator;
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 4);
    let mut sim = Simulator::new(
        SimConfig::default(),
        cluster.clone(),
        epaxos_cluster(cluster),
        contended_workload(3),
        clients,
    );
    let _ = sim.run();
    let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
    check_consensus(&stores).expect("EPaxos SCC execution must agree across replicas");
}
