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
