//! The simulator must be bit-for-bit reproducible from its seed — that's
//! what makes the evaluation harness's numbers trustworthy.

use paxi::bench::BenchmarkConfig;
use paxi::bench::{run, GeneralWorkload, Proto};
use paxi::core::{ClusterConfig, Nanos};
use paxi::sim::{ClientSetup, SimConfig, Topology};

fn fingerprint(proto: &Proto, seed: u64) -> (u64, u64, u64, String) {
    let cluster = ClusterConfig::wan(3, 3);
    let sim = SimConfig {
        seed,
        topology: Topology::lan_zones(3),
        warmup: Nanos::millis(200),
        measure: Nanos::secs(1),
        record_ops: true,
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    let report = run(
        proto,
        sim,
        cluster,
        GeneralWorkload::new(BenchmarkConfig::uniform(50, 0.5), 3),
        clients,
    );
    report.fingerprint()
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    for proto in [
        Proto::paxos(),
        Proto::epaxos(),
        Proto::WPaxos(Default::default()),
        Proto::WanKeeper(Default::default()),
        Proto::VPaxos(Default::default()),
    ] {
        let a = fingerprint(&proto, 1234);
        let b = fingerprint(&proto, 1234);
        assert_eq!(a, b, "{} is not deterministic", proto.name());
    }
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(&Proto::paxos(), 1);
    let b = fingerprint(&Proto::paxos(), 2);
    assert_ne!(
        a.3, b.3,
        "different seeds should produce different op interleavings"
    );
}

/// One `sim-lan9`-shaped run: nine nodes on one LAN, 32 closed-loop clients,
/// 1 000 uniform keys, metrics and the op history on, drained after a
/// 100 ms window. Returns `(completed, events_processed, mean latency ns,
/// FNV-1a digest of every op record in report order)`.
fn lan9_run<R, F>(seed: u64, factory: F) -> (u64, u64, u64, u64)
where
    R: paxi::core::Replica + 'static,
    F: paxi::core::ReplicaFactory<R = R> + 'static,
{
    let cluster = ClusterConfig::lan(9);
    let sim = SimConfig {
        seed,
        warmup: Nanos::micros(12_500),
        measure: Nanos::millis(100),
        record_ops: true,
        metrics: true,
        drain: true,
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 32);
    let workload = paxi::sim::client::uniform_workload(1000);
    let report = paxi::sim::Simulator::new(sim, cluster, factory, workload, clients).run();
    let digest = report.ops.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, op| {
        format!("{op:?};")
            .bytes()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    });
    (
        report.completed,
        report.events_processed,
        report.latency.mean.0,
        digest,
    )
}

/// The LAN protocols of `sim-lan9` replay the runs recorded before the
/// simulator's event path was rewritten (taken at c3c42a6): a change to the
/// event queue, the quorum sets, the hasher or an allocation site that moves
/// one event, one latency or one op shows here.
#[test]
fn lan_protocols_replay_their_recorded_runs() {
    use paxi::protocols::epaxos::EPaxos;
    use paxi::protocols::paxos::{MultiPaxos, PaxosConfig};
    use paxi::protocols::raft::{Raft, RaftConfig};
    let c = ClusterConfig::lan(9);
    let cells = [
        ("paxos", 3, (882, 20941, 3496897, 3043622815106704660)),
        ("paxos", 11, (883, 20942, 3497033, 11469137770167065020)),
        ("paxos_b16", 3, (2258, 16190, 1393119, 12017981819412024828)),
        (
            "paxos_b16",
            11,
            (2272, 16328, 1383625, 10595161362929391942),
        ),
        ("raft", 3, (879, 20918, 3511810, 1118838410819405579)),
        ("raft", 11, (880, 20918, 3512039, 486000769895721765)),
        ("epaxos", 3, (2577, 80197, 1224872, 2516853625965970849)),
        ("epaxos", 11, (2591, 80271, 1218946, 13175289237383885249)),
    ];
    for (name, seed, want) in cells {
        let c = c.clone();
        let got = match name {
            "paxos" | "paxos_b16" => {
                let batch = if name == "paxos" { 1 } else { 16 };
                let cfg = PaxosConfig::batched(batch);
                lan9_run(seed, move |id| MultiPaxos::new(id, c.clone(), cfg.clone()))
            }
            "raft" => lan9_run(seed, move |id| {
                Raft::new(id, c.clone(), RaftConfig::default())
            }),
            _ => lan9_run(seed, move |id| EPaxos::new(id, c.clone())),
        };
        assert_eq!(got, want, "{name} seed {seed}");
    }
}
