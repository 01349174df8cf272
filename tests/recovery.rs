//! Amnesia-crash recovery: durable WALs under the seeded nemesis.
//!
//! These tests flip the nemesis crash semantics from the original freeze
//! model (memory survives the outage) to amnesia (memory is wiped): every
//! replica runs with a WAL attached, persists before acknowledging, and a
//! crashed node is rebuilt from scratch by replaying its disk. Strong
//! consistency must survive exactly as it does under freeze — zero
//! anomalies, progress after heal — across the same seed battery as
//! `tests/nemesis.rs`. Alongside the nemesis suites, the storage facade is
//! exercised end to end: injected torn-tail and corrupt-record faults must
//! be detected and truncated on recovery, `FsyncPolicy::Never` must lose
//! exactly the unsynced suffix, and the protocols' real WAL record types
//! must round-trip through the file backend.

use paxi::bench::{record_digests, NemesisConfig, Proto, Scenario, Verdict, DIGEST_LEDGER};
use paxi::core::{Ballot, ClientId, ClusterConfig, Command, CrashMode, Nanos, NodeId, RequestId};
use paxi::protocols::epaxos::{EpaxosWal, IRef, WalStatus};
use paxi::protocols::paxos::PaxosWal;
use paxi::protocols::raft::{RaftConfig, RaftEntry, RaftWal};
use paxi::sim::SimConfig;
use paxi::storage::{Damage, FileStorage, FsyncPolicy, MemHub, Storage, StorageFault};

const SEEDS: [u64; 7] = [1, 2, 3, 5, 8, 13, 21];

fn lan_sim() -> SimConfig {
    SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::millis(3_900),
        ..SimConfig::default()
    }
}

fn amnesia(seed: u64) -> NemesisConfig {
    NemesisConfig {
        seed,
        crash_mode: CrashMode::Amnesia,
        ..Default::default()
    }
}

/// Runs `proto` under the seeded amnesia nemesis on each of `seeds` (the
/// rest of the configuration is `base`'s), records the cells in the
/// ledger's `recovery` section and then asserts that every verdict passed.
fn amnesia_seeds(proto: &Proto, seeds: &[u64], base: NemesisConfig) {
    let (sim, cluster) = (lan_sim(), ClusterConfig::lan(5));
    let run = |&seed: &u64| {
        let cfg = NemesisConfig {
            seed,
            crash_mode: CrashMode::Amnesia,
            ..base.clone()
        };
        Scenario::nemesis(proto, sim.clone(), cluster.clone(), &cfg).run_shrinking()
    };
    let cells: Vec<Verdict> = seeds.iter().map(run).collect();
    record_digests(DIGEST_LEDGER.as_ref(), "recovery", &cells).expect("write the run ledger");
    for v in cells {
        assert!(v.passed(), "{v}");
    }
}

#[test]
fn amnesia_nemesis_paxos_seven_seeds() {
    amnesia_seeds(&Proto::paxos(), &SEEDS, NemesisConfig::default());
}

#[test]
fn amnesia_nemesis_epaxos_seven_seeds() {
    // Same wide key space as the freeze nemesis: EPaxos has no explicit
    // instance recovery, so rare conflicts keep wedged instances from
    // blocking the run. Recovery itself is exercised regardless — rebuilt
    // replicas replay their instance WAL and re-execute the commit graph.
    let cfg = NemesisConfig {
        keys: 64,
        ..Default::default()
    };
    amnesia_seeds(&Proto::epaxos(), &SEEDS, cfg);
}

#[test]
fn amnesia_nemesis_raft_three_seeds() {
    let raft = Proto::Raft(RaftConfig::default());
    amnesia_seeds(&raft, &[4, 9, 16], NemesisConfig::default());
}

#[test]
fn same_amnesia_seed_replays_identically() {
    // Determinism must hold with the storage layer in the loop: the
    // in-memory disks, the fsync service-time charges, and the rebuild at
    // recovery are all part of the replayed state.
    let cfg = amnesia(42);
    let a = Scenario::nemesis(&Proto::paxos(), lan_sim(), ClusterConfig::lan(5), &cfg).run();
    let b = Scenario::nemesis(&Proto::paxos(), lan_sim(), ClusterConfig::lan(5), &cfg).run();
    assert_eq!(a.scenario.schedule.steps, b.scenario.schedule.steps);
    assert_eq!(a.scenario.schedule.digest(), b.scenario.schedule.digest());
    assert_eq!(
        a.report.completed, b.report.completed,
        "same seed must replay identically"
    );
    assert_eq!(a.tail_completed, b.tail_completed);
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn freeze_and_amnesia_schedules_share_placement_but_not_digest() {
    let run =
        |cfg| Scenario::nemesis(&Proto::paxos(), lan_sim(), ClusterConfig::lan(5), &cfg).run();
    let freeze = run(NemesisConfig {
        seed: 11,
        ..Default::default()
    });
    let amn = run(amnesia(11));
    assert_ne!(
        freeze.scenario.schedule.digest(),
        amn.scenario.schedule.digest(),
        "crash semantics must be part of the schedule fingerprint"
    );
    assert_eq!(
        freeze.scenario.schedule.steps.len(),
        amn.scenario.schedule.steps.len()
    );
    assert!(freeze.passed() && amn.passed(), "{freeze}\n{amn}");
}

// --- storage facade: fault injection and durability semantics ---

fn payloads(records: &[Vec<u8>]) -> Vec<&[u8]> {
    records.iter().map(|v| v.as_slice()).collect()
}

#[test]
fn injected_torn_tail_is_detected_and_truncated() {
    let hub: MemHub<NodeId> = MemHub::new(FsyncPolicy::Always);
    let node = NodeId::new(0, 0);
    let mut disk = hub.open(node);
    disk.append(b"survives").unwrap();
    disk.append(b"torn-mid-write").unwrap();
    hub.inject(node, StorageFault::TornTail);
    hub.crash(&node);
    let r = hub.open(node).recover().unwrap();
    assert_eq!(r.damage, Damage::TornTail);
    assert_eq!(payloads(&r.records), vec![b"survives".as_slice()]);
    // The repair is durable: the next recovery is clean.
    let r2 = hub.open(node).recover().unwrap();
    assert_eq!(r2.damage, Damage::Clean);
    assert_eq!(payloads(&r2.records), vec![b"survives".as_slice()]);
}

#[test]
fn injected_crc_corruption_is_detected_and_truncated() {
    let hub: MemHub<NodeId> = MemHub::new(FsyncPolicy::Always);
    let node = NodeId::new(0, 1);
    let mut disk = hub.open(node);
    disk.append(b"survives").unwrap();
    disk.append(b"bit-rots").unwrap();
    hub.inject(node, StorageFault::CorruptRecord);
    hub.crash(&node);
    let r = hub.open(node).recover().unwrap();
    assert_eq!(r.damage, Damage::Corrupt);
    assert_eq!(payloads(&r.records), vec![b"survives".as_slice()]);
}

#[test]
fn fsync_never_loses_exactly_the_unsynced_suffix() {
    let hub: MemHub<NodeId> = MemHub::new(FsyncPolicy::Never);
    let node = NodeId::new(0, 2);
    let mut disk = hub.open(node);
    disk.append(b"acked-and-synced").unwrap();
    disk.sync().unwrap();
    disk.append(b"buffered-1").unwrap();
    disk.append(b"buffered-2").unwrap();
    assert!(hub.unsynced_len(&node) > 0);
    hub.crash(&node);
    let r = hub.open(node).recover().unwrap();
    // Exactly the unsynced suffix is gone: no more (the synced record
    // survives intact), no less (both buffered records are lost).
    assert_eq!(r.damage, Damage::Clean);
    assert_eq!(payloads(&r.records), vec![b"acked-and-synced".as_slice()]);
}

// --- protocol WAL record types over the file backend ---

fn file_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("paxi-recovery-{}-{tag}", std::process::id()))
}

#[test]
fn protocol_wal_records_round_trip_through_file_storage() {
    let dir = file_dir("wal-roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    let node = NodeId::new(1, 2);
    let req = Some(RequestId::new(ClientId(3), 9));
    let originals: Vec<Vec<u8>> = vec![
        paxi::codec::to_bytes(&PaxosWal::Ballot(Ballot {
            counter: 4,
            id: node,
        }))
        .unwrap(),
        paxi::codec::to_bytes(&PaxosWal::Accept {
            slot: 17,
            ballot: Ballot::first(node),
            cmds: vec![(Command::put(7, b"value".to_vec()), req)],
        })
        .unwrap(),
        paxi::codec::to_bytes(&RaftWal::Term {
            term: 3,
            voted_for: Some(node),
        })
        .unwrap(),
        paxi::codec::to_bytes(&RaftWal::Splice {
            prev_index: 5,
            entries: vec![RaftEntry {
                term: 3,
                cmd: Command::delete(8),
                req: None,
            }],
        })
        .unwrap(),
        paxi::codec::to_bytes(&EpaxosWal {
            iref: IRef {
                leader: node,
                idx: 12,
            },
            cmd: Command::get(7),
            seq: 6,
            deps: vec![IRef {
                leader: NodeId::new(0, 0),
                idx: 11,
            }],
            status: WalStatus::Committed,
        })
        .unwrap(),
    ];
    {
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        for rec in &originals {
            s.append(rec).unwrap();
        }
    }
    let r = FileStorage::open(&dir, FsyncPolicy::Always)
        .unwrap()
        .recover()
        .unwrap();
    assert_eq!(r.damage, Damage::Clean);
    assert_eq!(r.records, originals, "bytes must survive the disk verbatim");
    // And the payloads still decode to the exact records that went in.
    let accept: PaxosWal = paxi::codec::from_bytes(&r.records[1]).unwrap();
    assert_eq!(
        accept,
        PaxosWal::Accept {
            slot: 17,
            ballot: Ballot::first(node),
            cmds: vec![(Command::put(7, b"value".to_vec()), req)],
        }
    );
    let epaxos: EpaxosWal = paxi::codec::from_bytes(&r.records[4]).unwrap();
    assert_eq!(epaxos.status, WalStatus::Committed);
    assert_eq!(
        epaxos.deps,
        vec![IRef {
            leader: NodeId::new(0, 0),
            idx: 11
        }]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_under_never_loses_the_unsynced_wal_suffix() {
    let dir = file_dir("file-never");
    std::fs::remove_dir_all(&dir).ok();
    let node = NodeId::new(0, 0);
    let durable = paxi::codec::to_bytes(&PaxosWal::Ballot(Ballot::first(node))).unwrap();
    let doomed = paxi::codec::to_bytes(&PaxosWal::Ballot(Ballot {
        counter: 2,
        id: node,
    }))
    .unwrap();
    {
        let mut s = FileStorage::open(&dir, FsyncPolicy::Never).unwrap();
        s.append(&durable).unwrap();
        s.sync().unwrap();
        s.append(&doomed).unwrap();
        // Dropped without a sync: the process died with the record buffered.
    }
    let r = FileStorage::open(&dir, FsyncPolicy::Never)
        .unwrap()
        .recover()
        .unwrap();
    assert_eq!(r.damage, Damage::Clean);
    assert_eq!(r.records, vec![durable]);
    std::fs::remove_dir_all(&dir).ok();
}
