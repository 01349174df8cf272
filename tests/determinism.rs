//! The simulator must be bit-for-bit reproducible from its seed — that's
//! what makes the evaluation harness's numbers trustworthy.

use paxi::bench::BenchmarkConfig;
use paxi::bench::{record_digests, run, GeneralWorkload, Proto, Run, DIGEST_LEDGER};
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

/// One `sim-lan9`-shaped run of `proto` at `seed`: nine nodes on one LAN,
/// 32 closed-loop clients, 1 000 uniform keys, metrics and the op history
/// on, drained after a 100 ms window.
fn lan9_run<R, F>(proto: &str, seed: u64, factory: F) -> Run
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
    let who = format!("proto={proto} seed={seed}");
    Run { who, report }
}

/// The LAN protocols of `sim-lan9` (MultiPaxos at batch 1 and 16, Raft,
/// EPaxos) on two seeds, in the ledger's `lan` section: completions,
/// events, mean latency and op history. A change to the event queue, the
/// quorum sets, the hasher or an allocation site that moves one event, one
/// latency or one op shows in its diff.
#[test]
fn lan_protocols_record_their_runs() {
    use paxi::protocols::epaxos::EPaxos;
    use paxi::protocols::paxos::{MultiPaxos, PaxosConfig};
    use paxi::protocols::raft::{Raft, RaftConfig};
    let mut cells = Vec::new();
    for seed in [3, 11] {
        for batch in [1, 16] {
            let (c, cfg) = (ClusterConfig::lan(9), PaxosConfig::batched(batch));
            let paxos = move |id| MultiPaxos::new(id, c.clone(), cfg.clone());
            cells.push(lan9_run(&format!("Paxos batch={batch}"), seed, paxos));
        }
        let c = ClusterConfig::lan(9);
        let raft = move |id| Raft::new(id, c.clone(), RaftConfig::default());
        cells.push(lan9_run("Raft", seed, raft));
        let c = ClusterConfig::lan(9);
        let epaxos = move |id| EPaxos::new(id, c.clone());
        cells.push(lan9_run("EPaxos", seed, epaxos));
    }
    record_digests(DIGEST_LEDGER.as_ref(), "lan", &cells).expect("write the run ledger");
}
