//! Figure 7 — Paxi/Paxos vs etcd/Raft, 9 replicas in one availability zone.
//!
//! The paper's point: two independent single-stable-leader implementations
//! converge to the same leader-bottleneck throughput (~8000 ops/s), with
//! etcd showing somewhat higher latency below saturation, attributed to its
//! HTTP inter-node transport and message serialization. We run our own Raft
//! as the etcd stand-in, giving it a fixed per-hop wire overhead to model
//! the HTTP stack (see DESIGN.md substitutions).

use crate::runner::{sweep, Proto, SweepPoint};
use crate::table::{f0, f2, Table};
use paxi_core::config::ClusterConfig;
use paxi_core::time::Nanos;
use paxi_protocols::raft::RaftConfig;
use paxi_sim::client::uniform_workload;
use paxi_sim::SimConfig;

/// Builds the two latency-vs-throughput series.
pub fn run(quick: bool) -> Vec<Table> {
    let cluster = ClusterConfig::lan(9);
    let counts = super::sweep_counts(quick);
    let sim = super::sim_preset(quick);

    let paxos = sweep(&Proto::paxos(), &sim, &cluster, &counts, || {
        uniform_workload(1000)
    });
    let raft = etcd(&sim, &cluster, &counts);

    let mut t = Table::new(
        "Fig 7: Paxi/Paxos vs etcd/Raft (9 replicas, LAN)",
        &["clients", "paxos_tput", "paxos_ms", "raft_tput", "raft_ms"],
    );
    for (p, r) in paxos.iter().zip(&raft) {
        t.row(vec![
            p.clients.to_string(),
            f0(p.throughput),
            f2(p.mean_ms),
            f0(r.throughput),
            f2(r.mean_ms),
        ]);
    }
    vec![t]
}

/// "etcd": our Raft with HTTP-like per-hop overhead on inter-node links and
/// 5 % more message-processing cost for its HTTP transport.
fn etcd(sim: &SimConfig, cluster: &ClusterConfig, counts: &[usize]) -> Vec<SweepPoint> {
    let mut etcd_sim = sim.clone();
    etcd_sim.cost.wire_overhead = Nanos::micros(400);
    etcd_sim.cost.cpu_penalty = 1.05;
    let raft = Proto::Raft(RaftConfig::default());
    sweep(&raft, &etcd_sim, cluster, counts, || uniform_workload(1000))
}

#[cfg(test)]
mod tests {
    use paxi_core::config::ClusterConfig;

    #[test]
    fn both_systems_converge_to_similar_max_throughput() {
        let t = &super::run(true)[0];
        let last = t.rows.last().unwrap();
        let paxos_max: f64 = last[1].parse().unwrap();
        let raft_max: f64 = last[3].parse().unwrap();
        assert!(
            (0.6..1.6).contains(&(raft_max / paxos_max)),
            "paxos {paxos_max} raft {raft_max}"
        );
        // Single-leader wall in the 6-11k range (paper: ~8000 ops/s).
        assert!(
            (5_000.0..12_000.0).contains(&paxos_max),
            "paxos max {paxos_max}"
        );
        // etcd-like Raft pays more latency below saturation.
        let first = &t.rows[0];
        let paxos_ms: f64 = first[2].parse().unwrap();
        let raft_ms: f64 = first[4].parse().unwrap();
        assert!(raft_ms > paxos_ms, "raft {raft_ms} vs paxos {paxos_ms}");
    }

    /// Past saturation the leader is the wall, as for Paxos: more clients
    /// only queue longer. A follower that stalls behind the leader and is
    /// left there shows here as throughput that falls.
    #[test]
    fn raft_throughput_never_falls_as_clients_are_added() {
        let sim = super::super::sim_preset(false);
        let raft = super::etcd(&sim, &ClusterConfig::lan(9), &[16, 32, 64, 96]);
        for pair in raft.windows(2) {
            let (fewer, more) = (&pair[0], &pair[1]);
            assert!(
                more.throughput >= 0.95 * fewer.throughput,
                "{} clients: {:.0} ops/s, {} clients: {:.0} ops/s",
                fewer.clients,
                fewer.throughput,
                more.clients,
                more.throughput
            );
        }
    }
}
