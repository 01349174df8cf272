//! Availability under failures (paper §1.2 and the Paxi availability tier).
//!
//! The paper's claim: in single-leader Paxos, failure of the leader causes
//! unavailability until re-election; in multi-leader protocols most requests
//! do not experience any disruption, because the failed leader is not on
//! their critical path.

use paxi::core::{ClusterConfig, FaultWindow, Nanos, NodeId};
use paxi::protocols::wpaxos::WPaxosConfig;
use paxi::sim::{ClientSetup, FaultPlan, SimConfig, Simulator, Topology};
use paxi_core::dist::Rng64;
use paxi_core::id::ClientId;
use paxi_core::Command;

fn writes(keys: u64) -> impl FnMut(ClientId, u8, u64, Nanos, &mut Rng64) -> Command {
    move |client: ClientId, zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        Command::put(
            zone as u64 * 1000 + rng.below(keys),
            paxi::sim::client::unique_value(client, seq),
        )
    }
}

/// Completions in `[from, to)` of the report timeline.
fn completions_between(timeline: &[(Nanos, u64)], from: Nanos, to: Nanos) -> u64 {
    timeline
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, c)| *c)
        .sum()
}

#[test]
fn paxos_leader_crash_causes_visible_outage_then_recovery() {
    use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 4);
    let cfg = SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::secs(5),
        client_retry: Some(Nanos::millis(500)),
        timeline_bucket: Some(Nanos::millis(100)),
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
        writes(20),
        clients,
    );
    sim.faults_mut()
        .crash(NodeId::new(0, 0), Nanos::secs(2), Nanos::secs(30));
    let report = sim.run();
    // Outage window right after the crash: far fewer completions than the
    // same-length window before it.
    let before = completions_between(&report.timeline, Nanos::millis(1_500), Nanos::secs(2));
    let outage = completions_between(&report.timeline, Nanos::secs(2), Nanos::millis(2_500));
    let after = completions_between(&report.timeline, Nanos::secs(4), Nanos::millis(4_500));
    assert!(outage < before / 4, "outage {outage} vs before {before}");
    assert!(
        after > before / 2,
        "service must recover: after {after} vs before {before}"
    );
}

#[test]
fn wpaxos_remote_leader_crash_leaves_other_zones_undisturbed() {
    // Zones work on their own keys; crash zone 2's leader. Zones 0 and 1
    // keep committing with their local quorums — the failed leader is not on
    // their critical path (fz=0 quorums live entirely inside each zone).
    let cluster = ClusterConfig::wan(3, 3);
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    let cfg = SimConfig {
        topology: Topology::lan_zones(3),
        warmup: Nanos::millis(500),
        measure: Nanos::secs(4),
        timeline_bucket: Some(Nanos::millis(100)),
        record_ops: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        paxi::protocols::wpaxos::wpaxos_cluster(cluster, WPaxosConfig::default()),
        writes(20),
        clients,
    );
    sim.faults_mut()
        .crash(NodeId::new(2, 0), Nanos::secs(2), Nanos::secs(30));
    let report = sim.run();
    // Zones 0 and 1 completed plenty of operations after the crash.
    let zone0 = report
        .ops
        .iter()
        .filter(|o| o.ok && o.key < 1000 && o.ret > Nanos::secs(2))
        .count();
    let zone1 = report
        .ops
        .iter()
        .filter(|o| o.ok && (1000..2000).contains(&o.key) && o.ret > Nanos::secs(2))
        .count();
    assert!(zone0 > 500, "zone 0 post-crash ops {zone0}");
    assert!(zone1 > 500, "zone 1 post-crash ops {zone1}");
}

#[test]
fn paxos_tolerates_flaky_links() {
    // 10% random message loss between the leader and two followers: majority
    // quorums route around it (the remaining two followers + leader).
    use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 2);
    let cfg = SimConfig {
        measure: Nanos::secs(3),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        writes(20),
        clients,
    );
    for follower in [1u8, 2] {
        sim.faults_mut().flaky_link(
            NodeId::new(0, 0),
            NodeId::new(0, follower),
            0.1,
            Nanos::ZERO,
            Nanos::secs(60),
        );
        sim.faults_mut().flaky_link(
            NodeId::new(0, follower),
            NodeId::new(0, 0),
            0.1,
            Nanos::ZERO,
            Nanos::secs(60),
        );
    }
    let report = sim.run();
    assert!(report.completed > 1000, "completed {}", report.completed);
    assert_eq!(report.errors, 0);
}

#[test]
fn raft_survives_partition_heal() {
    use paxi::protocols::raft::{raft_cluster, RaftConfig};
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 2);
    let cfg = SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::secs(6),
        client_retry: Some(Nanos::millis(600)),
        timeline_bucket: Some(Nanos::millis(250)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        raft_cluster(cluster, RaftConfig::default()),
        writes(20),
        clients,
    );
    // Partition the leader + one follower away from the other three for 1.5s;
    // the majority side elects a new leader, then the partition heals.
    let minority = [NodeId::new(0, 0), NodeId::new(0, 1)];
    let majority = [NodeId::new(0, 2), NodeId::new(0, 3), NodeId::new(0, 4)];
    sim.faults_mut()
        .partition(&minority, &majority, Nanos::secs(2), Nanos::millis(1_500));
    let report = sim.run();
    let late = completions_between(&report.timeline, Nanos::secs(5), Nanos::secs(7));
    assert!(late > 200, "post-heal completions {late}");
}

#[test]
fn epaxos_isolated_replica_rejoins_after_heal() {
    // Isolate one of five EPaxos replicas with an open-ended partition and
    // close it later via `heal` — the two APIs a nemesis uses when it does
    // not know the outage duration up front. The remaining four replicas
    // still form the fast quorum (4 of 5), so commits continue through the
    // outage, and the isolated node serves again after the heal.
    use paxi::protocols::epaxos::epaxos_cluster;
    let cluster = ClusterConfig::lan(5);
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    let cfg = SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::secs(5),
        client_retry: Some(Nanos::millis(500)),
        timeline_bucket: Some(Nanos::millis(100)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        cfg,
        cluster.clone(),
        epaxos_cluster(cluster),
        writes(20),
        clients,
    );
    let isolated = NodeId::new(0, 4);
    let rest: Vec<NodeId> = (0..4).map(|i| NodeId::new(0, i)).collect();
    sim.faults_mut()
        .partition_in(&[isolated], &rest, FaultWindow::until_end(Nanos::secs(1)));
    sim.faults_mut().heal(Nanos::secs(3));
    let report = sim.run();
    let during = completions_between(&report.timeline, Nanos::millis(1_500), Nanos::secs(3));
    let after = completions_between(&report.timeline, Nanos::millis(3_500), Nanos::secs(5));
    assert!(
        during > 300,
        "commits must continue through the partition: {during}"
    );
    assert!(after > 300, "post-heal completions: {after}");
}

#[test]
fn slow_links_degrade_latency_without_stopping_progress() {
    let cluster = ClusterConfig::lan(3);
    let clients = ClientSetup::closed_per_zone(&cluster, 2);
    let cfg = SimConfig {
        measure: Nanos::secs(2),
        ..SimConfig::default()
    };
    let mk = |slow: bool| {
        let mut sim = Simulator::new(
            cfg.clone(),
            cluster.clone(),
            paxi::protocols::paxos::paxos_cluster(
                cluster.clone(),
                paxi::protocols::paxos::PaxosConfig::default(),
            ),
            writes(20),
            ClientSetup::closed_per_zone(&cluster, 2),
        );
        if slow {
            // Slow every leader->follower link by up to 2ms.
            for f in [1u8, 2] {
                sim.faults_mut().slow_link(
                    NodeId::new(0, 0),
                    NodeId::new(0, f),
                    Nanos::millis(2),
                    Nanos::ZERO,
                    Nanos::secs(60),
                );
            }
        }
        sim.run()
    };
    let _ = clients;
    let base = mk(false);
    let slowed = mk(true);
    assert!(slowed.completed > 300);
    assert!(
        slowed.latency.mean > base.latency.mean,
        "slow links must show up in latency: {} vs {}",
        slowed.latency.mean,
        base.latency.mean
    );
    // Fault plan predicate sanity: FaultPlan is exported for users.
    let _unused: FaultPlan = FaultPlan::new();
}
