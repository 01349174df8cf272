//! Membership change under chaos: the mid-reconfiguration nemesis suites.
//!
//! Each suite runs a live membership change — a join (node 5 enters a
//! 5-of-6 cluster) or a leave (node 4 departs) — and fells a chosen victim
//! *inside* the transition window: the leader driving the change, the
//! joining node, or the departing node, in both freeze (memory survives)
//! and amnesia (memory wiped, WAL replayed) crash modes. Every run must
//! come out linearizable, make progress after healing, account for every
//! message loss (`unexplained == 0`), and finish the cut-over: a majority
//! of the target membership reports exactly the target configuration —
//! never the old one.
//!
//! The suites ride on the same determinism contract as the rest of the
//! harness: a failing `(proto, victim, mode, seed)` tuple replays
//! bit-for-bit, and the no-op fingerprint test pins the zero-cost property
//! — an elided add-then-remove-the-same-node change leaves the simulation
//! bit-identical to a static run.

use paxi::bench::{
    generate_schedule_with_mode, record_digests, run, Episode, NemesisConfig, NemesisSchedule,
    Proto, ReconfigVictim, Restart, Scenario, Verdict, DIGEST_LEDGER,
};
use paxi::codec::from_bytes;
use paxi::core::membership::{ConfigChange, CONFIG_KEY};
use paxi::core::{ClusterConfig, CrashMode, FaultPlan, Nanos, NodeId};
use paxi::protocols::paxos::PaxosWal;
use paxi::protocols::raft::{RaftConfig, RaftWal};
use paxi::protocols::snapshot::Image;
use paxi::sim::client::uniform_workload;
use paxi::sim::{ClientSetup, FaultWindow, KickoffWorkload, SimConfig};
use paxi_core::id::ClientId;

const VICTIMS: [ReconfigVictim; 3] = [
    ReconfigVictim::Leader,
    ReconfigVictim::Joiner,
    ReconfigVictim::Leaver,
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

/// One cell of the matrix: `proto` through the join or leave `victim`
/// implies, `victim` felled inside the transition with `mode` semantics.
fn cell(proto: &Proto, victim: ReconfigVictim, mode: CrashMode, seed: u64) -> Verdict {
    let cfg = NemesisConfig {
        seed,
        crash_mode: mode,
        clients_per_zone: 4,
        ..Default::default()
    };
    Scenario::reconfig(proto, quick_sim(), &cfg, victim).run()
}

/// Every victim of the matrix at `seed`.
fn run_suite(proto: &Proto, mode: CrashMode, seed: u64) -> Vec<Verdict> {
    let run = |victim| cell(proto, victim, mode, seed);
    VICTIMS.into_iter().map(run).collect()
}

fn assert_passed(cells: &[Verdict]) {
    for v in cells {
        assert!(v.passed(), "{v}");
    }
}

/// Records `cells` in the ledger's `reconfig` section, then asserts that
/// each passed, so a red suite still shows in the ledger's diff which cells
/// moved. Every suite that runs a matrix or the joins under random faults
/// records its own cells.
fn record(cells: &[Verdict]) {
    record_digests(DIGEST_LEDGER.as_ref(), "reconfig", cells).expect("write the run ledger");
    assert_passed(cells);
}

/// The broadcast rule: a node broadcasts to every other node of its
/// cluster, members or not (DESIGN.md "One node loop"). The leaver
/// therefore keeps hearing the leader once it is removed, and the tail
/// after the heal is as long as the join's. Were broadcasts sent to the
/// membership view, the removed node would hear nobody and campaign on and
/// on: 0.2–80 % of the join's tail. Every other auditor passes either way.
fn assert_the_leave_keeps_up(joiner: &Verdict, leaver: &Verdict) {
    assert!(
        10 * leaver.tail_completed >= 9 * joiner.tail_completed,
        "leaver tail {} against the joiner's {}\n{leaver}",
        leaver.tail_completed,
        joiner.tail_completed,
    );
}

// --- the nemesis matrix: {Paxos, Raft} x {freeze, amnesia} x 3 victims ---

/// The matrix of `proto` in `mode` at seed 1, recorded; its leaver cell
/// holds to the broadcast rule against its joiner cell.
fn matrix(proto: &Proto, mode: CrashMode) {
    let cells = run_suite(proto, mode, 1);
    record(&cells);
    let [_, joiner, leaver] = &cells[..] else {
        unreachable!("one cell per victim")
    };
    assert_the_leave_keeps_up(joiner, leaver);
}

#[test]
fn paxos_reconfig_nemesis_freeze() {
    matrix(&Proto::paxos(), CrashMode::Freeze);
}

#[test]
fn paxos_reconfig_nemesis_amnesia() {
    matrix(&Proto::paxos(), CrashMode::Amnesia);
}

#[test]
fn raft_reconfig_nemesis_freeze() {
    matrix(&raft(), CrashMode::Freeze);
}

#[test]
fn raft_reconfig_nemesis_amnesia() {
    matrix(&raft(), CrashMode::Amnesia);
}

#[test]
fn second_seed_sweeps_the_leader_victim() {
    // The leader victim is the hardest cell (the change's proposer dies);
    // sweep it across an extra seed on both protocols and modes.
    for proto in [Proto::paxos(), raft()] {
        for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
            let v = cell(&proto, ReconfigVictim::Leader, mode, 7);
            assert!(v.passed(), "{v}");
        }
    }
}

// --- replay: members felled with the change on their disks, not executed ---

/// Where in the log `restart`'s WAL holds a configuration command above
/// its image's base (MultiPaxos: the first slot not executed; Raft: the
/// last index applied), if it holds one.
fn config_above_base(proto: &Proto, restart: &Restart) -> Option<u64> {
    let image = restart
        .image
        .as_deref()
        .map(|b| Image::decode(b).expect("an image"));
    let base = image.map_or(0, |i| i.meta.base);
    let mut wal = restart.records.iter();
    match proto {
        Proto::Paxos(_) => wal.find_map(|r| match from_bytes(r).expect("a PaxosWal record") {
            PaxosWal::Accept { slot, cmds, .. } => {
                let config = cmds.iter().any(|(c, _)| c.key == CONFIG_KEY);
                (slot >= base && config).then_some(slot)
            }
            PaxosWal::Ballot(_) => None,
        }),
        _ => wal.find_map(|r| match from_bytes(r).expect("a RaftWal record") {
            RaftWal::Splice {
                prev_index,
                entries,
            } => (prev_index + 1..)
                .zip(&entries)
                .find(|(at, e)| *at > base && e.cmd.key == CONFIG_KEY)
                .map(|(at, _)| at),
            RaftWal::Term { .. } => None,
        }),
    }
}

/// The join with followers 0.1, 0.2 and 0.3 wiped together `after` the
/// change is submitted, for 10 ms: once its Accept (Splice) is on their
/// disks and before they execute it. At seed 1 the record is on a
/// follower's disk 550 µs (Paxos) or 750 µs (Raft) after the submission,
/// and the followers execute the change from 1.26 ms (1.45 ms) on; `after`
/// sits between the two. With three of five members down neither the old
/// nor the joint configuration has a quorum, so nothing commits while they
/// are down and each rebuilds the change, and all it missed, from its own
/// WAL: no node asks for an image. The cell records itself, and fails if
/// the crash no longer lands there.
fn followers_replay_the_change(proto: &Proto, after: Nanos) {
    let sim = SimConfig {
        metrics: true,
        ..quick_sim()
    };
    let cfg = NemesisConfig {
        seed: 1,
        crash_mode: CrashMode::Amnesia,
        clients_per_zone: 4,
        ..Default::default()
    };
    let join = Scenario::reconfig(proto, sim, &cfg, ReconfigVictim::Joiner);
    let submitted = join.event.as_ref().expect("a reconfiguration").0;
    let victims = [1, 2, 3].map(|n| NodeId::new(0, n));
    let crash = |node| Episode::Crash {
        node,
        at: submitted + after,
        dur: Nanos::millis(10),
    };
    let episodes = victims.map(crash).to_vec();
    let heal_at = join.schedule.heal_at();
    let v = Scenario {
        schedule: NemesisSchedule::of(episodes, &join.cluster, heal_at, CrashMode::Amnesia),
        label: "victims=followers".into(),
        ..join
    }
    .run();
    let replayed: Vec<_> = (v.restarts.iter())
        .map(|r| (r.node, config_above_base(proto, r)))
        .collect();
    let metrics = v.report.metrics.as_ref().expect("metrics on");
    let wants: u64 = (metrics.nodes.iter())
        .map(|n| n.metrics.sent_of("snapshot_want"))
        .sum();
    record(&[v]);
    assert_eq!(replayed.len(), 3, "{replayed:?}");
    for (node, at) in replayed {
        assert!(
            victims.contains(&node) && at.is_some(),
            "{node} recovered no config record above its image's base"
        );
    }
    assert_eq!(wants, 0, "a node asked for an image");
}

#[test]
fn paxos_followers_replay_the_change_from_their_wals() {
    followers_replay_the_change(&Proto::paxos(), Nanos::micros(900));
}

#[test]
fn raft_followers_replay_the_change_from_their_wals() {
    followers_replay_the_change(&raft(), Nanos::micros(1_000));
}

// --- composed faults: the join inside a random fault schedule ---

/// The join of the matrix, with the seeded nemesis' five random episodes —
/// crashes, isolations, flaky and slow links — in place of the one
/// hand-placed crash.
fn join_under_random_faults(proto: &Proto, mode: CrashMode, seed: u64) -> Verdict {
    let cfg = NemesisConfig {
        seed,
        crash_mode: mode,
        clients_per_zone: 4,
        ..Default::default()
    };
    let join = Scenario::reconfig(proto, quick_sim(), &cfg, ReconfigVictim::Joiner);
    let horizon = join.sim.warmup + join.sim.measure;
    let schedule = generate_schedule_with_mode(seed, &join.cluster, horizon, cfg.episodes, mode);
    Scenario {
        schedule,
        label: "faults=random".into(),
        ..join
    }
    .run()
}

/// The join under random faults in both crash modes on seeds 1–3,
/// recorded.
fn joins_under_random_faults(proto: &Proto) {
    let mut cells = Vec::new();
    for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
        for seed in [1, 2, 3] {
            cells.push(join_under_random_faults(proto, mode, seed));
        }
    }
    record(&cells);
}

#[test]
fn paxos_join_under_random_faults() {
    joins_under_random_faults(&Proto::paxos());
}

#[test]
fn raft_join_under_random_faults() {
    joins_under_random_faults(&raft());
}

// --- the broadcast rule on the seeds past the matrix's ---

#[test]
fn the_leave_recovers_as_well_as_the_join() {
    // Seed 1 is the matrix's (`matrix`).
    for proto in [Proto::paxos(), raft()] {
        for mode in [CrashMode::Freeze, CrashMode::Amnesia] {
            for seed in [2, 3] {
                let joiner = cell(&proto, ReconfigVictim::Joiner, mode, seed);
                let leaver = cell(&proto, ReconfigVictim::Leaver, mode, seed);
                assert_the_leave_keeps_up(&joiner, &leaver);
            }
        }
    }
}

// --- crash recovery: the amnesia victims rejoin in the NEW config ---

#[test]
fn amnesia_victim_rejoins_in_the_new_configuration_never_the_old() {
    // The joining node is wiped mid-transition and rebuilt from its WAL;
    // after healing it must hold exactly the target membership. The old
    // 5-node configuration (which does not contain the joiner) must appear
    // in nobody's view — a node that recovered "into the old config" would
    // report a member set without node 5.
    for proto in [Proto::paxos(), raft()] {
        let v = cell(&proto, ReconfigVictim::Joiner, CrashMode::Amnesia, 1);
        assert!(v.passed(), "{v}");
        // The join installs all six nodes of the universe, joiner included.
        let target = v.scenario.cluster.all_nodes();
        assert_eq!(target.last(), Some(&NodeId::new(0, 5)));
        assert_eq!(
            v.members[5].as_ref(),
            Some(&target),
            "recovered joiner must hold the target config\n{v}"
        );
    }
}

// --- crash windows placed by the reconfiguration ---

#[test]
fn during_reconfig_windows_crash_inside_the_transition_only() {
    fn n(i: u8) -> NodeId {
        NodeId::new(0, i)
    }
    let reconfig_at = Nanos::millis(400);
    let transition = Nanos::millis(300);
    let mut plan = FaultPlan::new();
    plan.crash_mode_in(
        n(0),
        FaultWindow::during_reconfig(reconfig_at, transition),
        CrashMode::Freeze,
    );
    plan.crash_mode_in(
        n(5),
        FaultWindow::during_reconfig(reconfig_at, transition),
        CrashMode::Amnesia,
    );
    // Inside the transition both victims are down, outside nobody is.
    let mid = reconfig_at + Nanos(transition.0 / 2);
    assert!(plan.is_crashed(n(0), mid));
    assert!(plan.is_crashed(n(5), mid));
    assert!(!plan.is_crashed(n(0), reconfig_at + transition));
    assert!(!plan.is_crashed(n(1), mid));
}

// --- determinism fingerprints ---

fn fingerprint(workload_reconfig: Option<ConfigChange>, seed: u64) -> (u64, u64, u64, String) {
    let cluster = ClusterConfig::lan(5);
    let sim = SimConfig {
        seed,
        warmup: Nanos::millis(200),
        measure: Nanos::secs(1),
        record_ops: true,
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    let initial = cluster.all_nodes();
    let report = match workload_reconfig {
        Some(change) => {
            let w = KickoffWorkload::reconfig(
                uniform_workload(16),
                ClientId(0),
                Nanos::millis(500),
                &change,
                &initial,
            );
            run(&Proto::paxos(), sim, cluster, w, clients)
        }
        None => run(&Proto::paxos(), sim, cluster, uniform_workload(16), clients),
    };
    report.fingerprint()
}

#[test]
fn noop_reconfig_fingerprint_matches_the_static_run() {
    // Adding and then removing the same non-member is a no-op change; the
    // workload elides it entirely, so the run must be bit-identical to a run
    // with no reconfiguration wrapper at all — reconfiguration support costs
    // a static cluster nothing. (The node must start outside the membership:
    // `remove` wins over `add`, so add+remove of a *member* is a leave.)
    let node = NodeId::new(0, 9);
    let noop = ConfigChange {
        add: vec![node],
        remove: vec![node],
    };
    assert!(noop.is_noop_on(&ClusterConfig::lan(5).all_nodes()));
    let a = fingerprint(Some(noop), 1234);
    let b = fingerprint(None, 1234);
    assert_eq!(
        a, b,
        "no-op reconfiguration must not perturb the simulation"
    );
}

#[test]
fn real_reconfig_replays_identically_under_the_same_seed() {
    let a = cell(
        &Proto::paxos(),
        ReconfigVictim::Joiner,
        CrashMode::Freeze,
        42,
    );
    let b = cell(
        &Proto::paxos(),
        ReconfigVictim::Joiner,
        CrashMode::Freeze,
        42,
    );
    assert_eq!(a.scenario.steps(), b.scenario.steps());
    assert_eq!(a.digest(), b.digest());
    assert_eq!(
        a.report.completed, b.report.completed,
        "same seed must replay identically"
    );
    assert_eq!(a.tail_completed, b.tail_completed);
    assert_eq!(a.members, b.members);
}
