//! The sharded (multi-group) runtime end to end: amnesia recovery of a node
//! hosting several group leaders, the seeded nemesis over sharded clusters,
//! the `groups = 1` no-op guarantee, and the live `ShardRouter`.
//!
//! The sharding layer's core promises, in test form:
//! * one node crash is a crash of *every* group it hosts, and amnesia
//!   recovery rebuilds all of that node's group replicas from their own WAL
//!   namespaces;
//! * the nemesis schedule is generated independently of the group count, so
//!   a sharded run replays the exact fault plan (and digest) of its
//!   unsharded twin;
//! * a single-group sharded deployment is the unsharded protocol in a
//!   cost-free envelope — same events, same fingerprint;
//! * the client-side router converges on every group's leader over a real
//!   (wall-clock, channel-backed) transport via redirects.

use paxi::bench::{
    check_group_consensus, check_shard_leakage, check_sharded, record_digests, NemesisConfig,
    NodeView, Proto, Scenario, Verdict, DIGEST_LEDGER,
};
use paxi::core::{ClusterConfig, Command, CrashMode, GroupId, Nanos, NodeId, Replica};
use paxi::protocols::paxos::{MultiPaxos, PaxosConfig};
use paxi::protocols::raft::RaftConfig;
use paxi::shard::{
    sharded_cluster, spread_leader, ClientPool, RangePartitioner, RouterConfig, ShardDisks,
    ShardRouter, ShardSpec,
};
use paxi::sim::client::uniform_workload;
use paxi::sim::{ClientSetup, SimConfig, Simulator};
use paxi::storage::FsyncPolicy;
use paxi::transport::channel::InProcCluster;

fn lan_sim() -> SimConfig {
    SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::millis(3_900),
        ..SimConfig::default()
    }
}

/// `proto` under the seeded nemesis `cfg` generates, sharded over `groups`
/// groups per node (`None` = the plain protocol).
fn nemesis(proto: &Proto, groups: Option<u32>, cfg: &NemesisConfig) -> Verdict {
    Scenario {
        groups,
        ..Scenario::nemesis(proto, lan_sim(), ClusterConfig::lan(5), cfg)
    }
    .run()
}

/// Builds the standard sharded-Paxos factory: range partitioning, spread
/// leader placement, one WAL namespace per `(node, group)` when `disks` is
/// given.
fn paxos_factory(
    cluster: &ClusterConfig,
    key_space: u64,
    groups: u32,
    disks: Option<ShardDisks>,
) -> impl Fn(NodeId) -> paxi::shard::ShardedReplica<MultiPaxos> {
    let cl = cluster.clone();
    sharded_cluster(
        ShardSpec::range(key_space, groups),
        move |id: NodeId, g: GroupId| {
            let cfg = PaxosConfig {
                initial_leader: spread_leader(&cl, g),
                ..PaxosConfig::default()
            };
            let mut r = MultiPaxos::new(id, cl.clone(), cfg);
            if let Some(d) = &disks {
                r.attach_storage(Box::new(d.open(id, g)));
            }
            r
        },
    )
}

#[test]
fn amnesia_crash_of_a_multi_leader_node_rebuilds_all_its_group_wals() {
    // 8 groups on 5 nodes: spread placement makes node (0,0) the leader of
    // groups 0 AND 5, and a follower of the other six. One amnesia crash
    // must take all eight of its group replicas down together and rebuild
    // each from its own WAL namespace.
    let cluster = ClusterConfig::lan(5);
    let (groups, key_space) = (8u32, 64u64);
    let victim = NodeId::new(0, 0);
    assert_eq!(spread_leader(&cluster, GroupId(0)), victim);
    assert_eq!(spread_leader(&cluster, GroupId(5)), victim);

    let disks = ShardDisks::new(FsyncPolicy::Always, groups);
    let factory = paxos_factory(&cluster, key_space, groups, Some(disks.clone()));
    let sim = SimConfig {
        record_ops: true,
        client_retry: Some(Nanos::millis(500)),
        warmup: Nanos::millis(200),
        measure: Nanos::millis(3_800),
        ..SimConfig::default()
    };
    let recover_at = Nanos::millis(2_500);
    let mut s = Simulator::new(
        sim,
        cluster.clone(),
        factory,
        uniform_workload(key_space),
        ClientSetup::closed_per_zone(&cluster, 2),
    );
    s.set_storage(disks.clone());
    s.faults_mut()
        .crash_amnesia(victim, Nanos::millis(1_500), Nanos::millis(1_000));
    let report = s.run();

    assert!(report.completed > 300, "completed {}", report.completed);
    // Every group namespace on the victim persisted state before the crash
    // (leader accepts for groups 0 and 5, follower accepts for the rest),
    // and the synced bytes survived the amnesia wipe.
    for g in 0..groups {
        assert!(
            disks.synced_len(victim, GroupId(g)) > 0,
            "group {g} WAL namespace on the crashed node is empty"
        );
    }
    // The cluster made progress after the victim's recovery...
    let tail = report
        .ops
        .iter()
        .filter(|o| o.ok && o.ret >= recover_at)
        .count();
    assert!(tail > 0, "no progress after the victim recovered");
    // ...and the rebuilt node agrees with everyone else: per-shard histories
    // are clean, no group leaked keys, no group diverged.
    let part = RangePartitioner::even(key_space, groups);
    for (g, anomalies) in check_sharded(&report.ops, &part) {
        assert!(
            anomalies.is_empty(),
            "shard {g}: {} anomalous reads, first {:?}",
            anomalies.len(),
            anomalies.first()
        );
    }
    let survivors: Vec<NodeView<'_>> = s.replicas().iter().map(NodeView::sharded).collect();
    assert!(check_shard_leakage(&survivors, &part, None).is_empty());
    assert!(check_group_consensus(&survivors).is_none());
}

#[test]
fn sharded_nemesis_passes_across_seeds_and_crash_modes() {
    // The seeded chaos suite over a 4-group Paxos deployment, under both
    // crash semantics. Amnesia runs give every group its own WAL namespace;
    // a crashed node rebuilds all four replicas from disk.
    let mut cells = Vec::new();
    for seed in [1, 2, 3] {
        for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
            let cfg = NemesisConfig {
                seed,
                crash_mode: mode,
                ..Default::default()
            };
            cells.push(nemesis(&Proto::paxos(), Some(4), &cfg));
        }
    }
    record(&cells);
}

/// Records `cells` in the ledger's `sharded` section, then asserts that
/// each passed, so a red suite still shows in the ledger's diff which cells
/// moved.
fn record(cells: &[Verdict]) {
    record_digests(DIGEST_LEDGER.as_ref(), "sharded", cells).expect("write the run ledger");
    for v in cells {
        assert!(v.passed(), "{v}");
    }
}

#[test]
fn sharded_raft_nemesis_recovers_from_amnesia() {
    let cfg = NemesisConfig {
        seed: 5,
        crash_mode: CrashMode::Amnesia,
        ..Default::default()
    };
    let raft = Proto::Raft(RaftConfig::default());
    record(&[nemesis(&raft, Some(2), &cfg)]);
}

#[test]
fn single_group_sharding_leaves_the_determinism_fingerprint_unchanged() {
    // groups = 1 must be a numeric no-op: group 0's message tags are
    // stripped before cost accounting and its timer tags are the identity,
    // so the sharded run replays the unsharded event sequence exactly.
    let cluster = ClusterConfig::lan(5);
    let sim = SimConfig {
        seed: 7,
        record_ops: true,
        warmup: Nanos::millis(200),
        measure: Nanos::secs(1),
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 3);

    let cl = cluster.clone();
    let mut plain = Simulator::new(
        sim.clone(),
        cluster.clone(),
        move |id: NodeId| MultiPaxos::new(id, cl.clone(), PaxosConfig::default()),
        uniform_workload(50),
        clients.clone(),
    );
    let unsharded = plain.run();

    let mut wrapped = Simulator::new(
        sim,
        cluster.clone(),
        paxos_factory(&cluster, 50, 1, None),
        uniform_workload(50),
        clients,
    );
    let sharded = wrapped.run();

    assert_eq!(
        unsharded.fingerprint(),
        sharded.fingerprint(),
        "a single-group sharded run must be event-identical to the unsharded protocol"
    );
}

#[test]
fn sharded_nemesis_replays_the_unsharded_schedule_and_digest() {
    // Schedule generation sees only (seed, cluster, horizon, episodes,
    // mode) — never the group count — so the fault-plan fingerprint is
    // invariant under sharding, and a groups=1 freeze run reproduces the
    // unsharded outcome numbers exactly.
    let cfg = NemesisConfig {
        seed: 11,
        ..Default::default()
    };
    let plain = nemesis(&Proto::paxos(), None, &cfg);
    let g1 = nemesis(&Proto::paxos(), Some(1), &cfg);
    let g4 = nemesis(&Proto::paxos(), Some(4), &cfg);
    let schedule = |v: &Verdict| v.scenario.schedule.digest();

    assert_eq!(plain.scenario.schedule.steps, g1.scenario.schedule.steps);
    assert_eq!(schedule(&plain), schedule(&g1));
    assert_eq!(
        schedule(&plain),
        schedule(&g4),
        "the nemesis digest must not depend on the group count"
    );
    assert_eq!(
        plain.report.completed, g1.report.completed,
        "groups=1 must replay the unsharded run"
    );
    assert_eq!(plain.tail_completed, g1.tail_completed);
    assert!(
        plain.passed() && g1.passed() && g4.passed(),
        "{plain}\n{g1}\n{g4}"
    );

    // The amnesia twin keeps the same invariance (its digest differs from
    // freeze — crash semantics are part of the fingerprint — but not
    // between sharded and unsharded).
    let amnesia = NemesisConfig {
        seed: 11,
        crash_mode: CrashMode::Amnesia,
        ..Default::default()
    };
    let plain_a = nemesis(&Proto::paxos(), None, &amnesia);
    let g4_a = nemesis(&Proto::paxos(), Some(4), &amnesia);
    assert_eq!(schedule(&plain_a), schedule(&g4_a));
    assert_ne!(schedule(&plain), schedule(&plain_a));
    assert!(plain_a.passed() && g4_a.passed(), "{plain_a}\n{g4_a}");
}

#[test]
fn shard_router_converges_on_every_group_leader_over_the_live_transport() {
    // A 3-group deployment over the wall-clock channel transport in
    // redirect mode: wrong-leader requests come back with the true leader,
    // and the router's per-group cache converges after one redirect each.
    let cluster = ClusterConfig::lan(3);
    let (groups, key_space) = (3u32, 90u64);
    let spec = ShardSpec::range(key_space, groups).with_redirect();
    let part = spec.partitioner.clone();
    let cl = cluster.clone();
    let factory = sharded_cluster(spec, move |id: NodeId, g: GroupId| {
        let cfg = PaxosConfig {
            initial_leader: spread_leader(&cl, g),
            ..PaxosConfig::default()
        };
        MultiPaxos::new(id, cl.clone(), cfg)
    });
    let run = InProcCluster::launch(cluster.clone(), factory);
    let nodes = cluster.all_nodes();
    let pool = ClientPool::new(nodes.iter().map(|&n| (n, run.client(n))).collect());

    // Rotate the probe order so every group's cold-cache prior is WRONG:
    // the first contact per group must be answered with a redirect.
    let mut rotated = nodes.clone();
    rotated.rotate_left(1);
    let mut router = ShardRouter::new(part, rotated, pool, RouterConfig::default());

    // One write per group (keys 0, 30, 60 land in groups 0, 1, 2), then a
    // second wave served from the warm cache.
    for key in [0u64, 30, 60] {
        let resp = router
            .execute(Command::put(key, vec![key as u8]))
            .expect("routed put");
        assert!(resp.ok);
    }
    assert_eq!(
        router.stats.redirects, groups as u64,
        "one redirect per cold group"
    );
    for key in [0u64, 30, 60] {
        let resp = router.execute(Command::get(key)).expect("routed get");
        assert!(resp.ok);
        assert_eq!(resp.value, Some(vec![key as u8]));
    }
    assert_eq!(
        router.stats.redirects, groups as u64,
        "warm cache: no further redirects"
    );
    for g in 0..groups {
        assert_eq!(
            router.cached_leader(g),
            Some(spread_leader(&cluster, GroupId(g))),
            "group {g} cache must hold the placed leader"
        );
    }
    assert_eq!(router.stats.failures, 0);
    run.shutdown();
}
