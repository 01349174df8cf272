//! Shard migration under chaos: the mid-migration nemesis suites.
//!
//! Each suite runs a live keyspace hand-off — the upper half of group 0's
//! slice migrates to group 1 — and fells a chosen victim *inside* the
//! migration window: the source group's leader (the node driving the
//! hand-off), the destination group's leader, or a follower of both, with
//! the crash onset aligned to each protocol phase (start, stream, commit)
//! and in both freeze (memory survives) and amnesia (memory wiped, WAL
//! replayed) crash modes. Every run must come out linearizable, make
//! progress after healing, account for every message loss
//! (`unexplained == 0`), finish the cut-over (a majority of nodes report
//! the target routing epoch), and leave a clean ownership audit: no dual
//! ownership, no orphaned acknowledged write, no cross-shard leakage
//! outside the migrated range.
//!
//! The suites ride on the same determinism contract as the rest of the
//! harness: a failing `(proto, victim, stage, mode, seed)` tuple replays
//! bit-for-bit, and the fingerprint tests pin the zero-cost property — a
//! single-group deployment with the migration plumbing wired (group
//! identity set, an elided kick-off in the workload) stays bit-identical
//! to the plain unsharded protocol.

use paxi::bench::{
    generate_schedule_with_mode, record_digests, MigrationStage, MigrationVictim, NemesisConfig,
    Proto, Scenario, Verdict, DIGEST_LEDGER,
};
use paxi::core::migration::{KeyRange, MigrationSpec};
use paxi::core::{ClusterConfig, CrashMode, GroupId, Nanos, NodeId};
use paxi::protocols::paxos::{MultiPaxos, PaxosConfig};
use paxi::protocols::raft::RaftConfig;
use paxi::shard::{sharded_cluster, spread_leader, ShardSpec, ShardedReplica};
use paxi::sim::client::uniform_workload;
use paxi::sim::{ClientSetup, KickoffWorkload, SimConfig, Simulator};
use paxi_core::id::ClientId;

const VICTIMS: [MigrationVictim; 3] = [
    MigrationVictim::SourceLeader,
    MigrationVictim::DestLeader,
    MigrationVictim::Follower,
];

const STAGES: [MigrationStage; 3] = [
    MigrationStage::Start,
    MigrationStage::Stream,
    MigrationStage::Commit,
];

fn quick_sim() -> SimConfig {
    SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::millis(3_900),
        ..SimConfig::default()
    }
}

fn raft() -> Proto {
    Proto::Raft(RaftConfig::default())
}

/// One cell of the matrix: `proto` over two groups through the hand-off,
/// `victim` felled at `stage` with `mode` semantics.
fn cell(
    proto: &Proto,
    victim: MigrationVictim,
    stage: MigrationStage,
    mode: CrashMode,
    seed: u64,
) -> Verdict {
    let cfg = NemesisConfig {
        seed,
        crash_mode: mode,
        clients_per_zone: 4,
        ..Default::default()
    };
    Scenario::migration(proto, quick_sim(), &cfg, victim, stage).run()
}

/// Every victim at every stage of the matrix at `seed`.
fn run_suite(proto: &Proto, mode: CrashMode, seed: u64) -> Vec<Verdict> {
    let mut cells = Vec::new();
    for victim in VICTIMS {
        for stage in STAGES {
            cells.push(cell(proto, victim, stage, mode, seed));
        }
    }
    cells
}

fn assert_passed(cells: &[Verdict]) {
    for v in cells {
        assert!(v.passed(), "{v}");
    }
}

/// Records `cells` in the ledger's `migration` section, then asserts that
/// each passed, so a red suite still shows in the ledger's diff which cells
/// moved. Every suite that runs a matrix or the hand-offs under random
/// faults records its own cells.
fn record(cells: &[Verdict]) {
    record_digests(DIGEST_LEDGER.as_ref(), "migration", cells).expect("write the run ledger");
    assert_passed(cells);
}

// --- the nemesis matrix: {Paxos, Raft} x {freeze, amnesia} x 3 victims
// --- x 3 stages ---

#[test]
fn paxos_migration_nemesis_freeze() {
    record(&run_suite(&Proto::paxos(), CrashMode::Freeze, 1));
}

#[test]
fn paxos_migration_nemesis_amnesia() {
    record(&run_suite(&Proto::paxos(), CrashMode::Amnesia, 1));
}

#[test]
fn raft_migration_nemesis_freeze() {
    record(&run_suite(&raft(), CrashMode::Freeze, 1));
}

#[test]
fn raft_migration_nemesis_amnesia() {
    record(&run_suite(&raft(), CrashMode::Amnesia, 1));
}

// --- composed faults: the hand-off inside a random fault schedule ---

/// The hand-off of the matrix, with the seeded nemesis' five random
/// episodes — crashes, isolations, flaky and slow links — in place of the
/// one hand-placed crash.
fn hand_off_under_random_faults(proto: &Proto, mode: CrashMode, seed: u64) -> Verdict {
    let cfg = NemesisConfig {
        seed,
        crash_mode: mode,
        clients_per_zone: 4,
        ..Default::default()
    };
    let (victim, stage) = (MigrationVictim::Follower, MigrationStage::Start);
    let hand_off = Scenario::migration(proto, quick_sim(), &cfg, victim, stage);
    let horizon = hand_off.sim.warmup + hand_off.sim.measure;
    let schedule =
        generate_schedule_with_mode(seed, &hand_off.cluster, horizon, cfg.episodes, mode);
    Scenario {
        schedule,
        label: "faults=random".into(),
        ..hand_off
    }
    .run()
}

/// The hand-off under random faults in both crash modes on seeds 1–3,
/// recorded.
fn hand_offs_under_random_faults(proto: &Proto) {
    let mut cells = Vec::new();
    for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
        for seed in [1, 2, 3] {
            cells.push(hand_off_under_random_faults(proto, mode, seed));
        }
    }
    record(&cells);
}

#[test]
fn paxos_hand_off_under_random_faults() {
    hand_offs_under_random_faults(&Proto::paxos());
}

#[test]
fn raft_hand_off_under_random_faults() {
    hand_offs_under_random_faults(&raft());
}

// --- crash recovery: the amnesia victim rebuilds the hand-off from WAL ---

#[test]
fn amnesia_source_leader_recovers_into_the_handed_off_world() {
    // The node driving the hand-off is wiped around the commit halves and
    // rebuilt from its WAL namespaces; after healing it must itself report
    // the target routing epoch — a node that recovered "into the old
    // ownership" would still route the range to the source group.
    for proto in [Proto::paxos(), raft()] {
        let v = cell(
            &proto,
            MigrationVictim::SourceLeader,
            MigrationStage::Commit,
            CrashMode::Amnesia,
            1,
        );
        assert!(v.passed(), "{v}");
        // The source leader is node 0 under spread placement; the hand-off
        // installs routing epoch 1.
        assert!(
            v.routing_epochs[0] >= 1,
            "recovered source leader routes at the old epoch\n{v}"
        );
    }
}

#[test]
fn second_seed_sweeps_the_source_leader_victim() {
    // The source leader is the hardest cell (the hand-off's driver dies);
    // sweep it across an extra seed on both protocols and modes.
    for proto in [Proto::paxos(), raft()] {
        for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
            let v = cell(
                &proto,
                MigrationVictim::SourceLeader,
                MigrationStage::Stream,
                mode,
                7,
            );
            assert!(v.passed(), "{v}");
        }
    }
}

// --- determinism fingerprints ---

/// A sharded Paxos factory with the migration plumbing fully wired: every
/// inner replica is told its group identity, exactly as the bench
/// dispatcher builds clusters.
fn migration_aware_factory(
    cluster: &ClusterConfig,
    key_space: u64,
    groups: u32,
) -> impl Fn(NodeId) -> ShardedReplica<MultiPaxos> {
    let cl = cluster.clone();
    sharded_cluster(
        ShardSpec::range(key_space, groups),
        move |id: NodeId, g: GroupId| {
            let cfg = PaxosConfig {
                initial_leader: spread_leader(&cl, g),
                ..PaxosConfig::default()
            };
            let mut r = MultiPaxos::new(id, cl.clone(), cfg);
            r.set_group(g);
            r
        },
    )
}

#[test]
fn single_group_without_migration_keeps_the_static_fingerprint() {
    // The routing-epoch plumbing must be a numeric no-op while no migration
    // is in flight: the routing table has no overrides to consult, the
    // control timer never arms, and the trackers (group identity set or
    // not) see no records. A groups=1 deployment therefore replays the
    // unsharded event sequence exactly — even when the workload carries an
    // elided (invalid, same-group) kick-off.
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
        sim.clone(),
        cluster.clone(),
        migration_aware_factory(&cluster, 50, 1),
        uniform_workload(50),
        clients.clone(),
    );
    let sharded = wrapped.run();
    assert_eq!(
        unsharded.fingerprint(),
        sharded.fingerprint(),
        "a single-group run with migration plumbing must be event-identical \
         to the unsharded protocol"
    );

    let noop = MigrationSpec {
        id: 9,
        from: GroupId(0),
        to: GroupId(0), // same group: invalid, the workload elides it
        range: KeyRange::new(10, 20),
        epoch: 1,
    };
    assert!(!noop.is_valid());
    let mut elided = Simulator::new(
        sim,
        cluster.clone(),
        migration_aware_factory(&cluster, 50, 1),
        KickoffWorkload::migration(uniform_workload(50), ClientId(0), Nanos::millis(500), noop),
        clients,
    );
    let with_elided = elided.run();
    assert_eq!(
        unsharded.fingerprint(),
        with_elided.fingerprint(),
        "an elided migration kick-off must not perturb the simulation"
    );
}

#[test]
fn real_migration_replays_identically_under_the_same_seed() {
    let run = || {
        cell(
            &Proto::paxos(),
            MigrationVictim::DestLeader,
            MigrationStage::Stream,
            CrashMode::Freeze,
            42,
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.scenario.steps(), b.scenario.steps());
    assert_eq!(a.digest(), b.digest());
    assert_eq!(
        a.report.completed, b.report.completed,
        "same seed must replay identically"
    );
    assert_eq!(a.tail_completed, b.tail_completed);
    assert_eq!(a.routing_epochs, b.routing_epochs);
}
