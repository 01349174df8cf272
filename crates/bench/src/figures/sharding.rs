//! Sharding scaling sweep (ours, beyond the paper): aggregate saturation
//! throughput vs. the number of consensus groups.
//!
//! The paper's dissection ends at the single-leader wall — §3's model bounds
//! throughput by the busiest node's per-command work. Static keyspace
//! partitioning (`paxi-shard`) is the standard way past it: `N` independent
//! groups with leaders spread round-robin turn one leader pipeline into
//! `min(N, nodes)` of them, while every node still pays follower work for
//! the groups it doesn't lead *in the same FIFO queue* — so scaling is
//! sublinear, and this sweep measures exactly how sublinear.
//!
//! Setup: 9-node LAN, range partitioning over a dense keyspace, routed
//! closed-loop clients (pinned per group at the group's leader, drawing only
//! group-local keys — a warm `ShardRouter` cache). Group counts ∈ {1, 2, 4,
//! 8} per protocol; `groups = 1` is the unsharded baseline and uses the
//! exact single-protocol code path in a cost-free envelope.

use crate::runner::Proto;
use crate::sharded::sweep_sharded;
use crate::table::{f0, f2, Table};
use paxi_core::config::ClusterConfig;
use paxi_protocols::raft::RaftConfig;

/// Group counts swept; 1 is the unsharded baseline.
const GROUPS: &[u32] = &[1, 2, 4, 8];

/// Dense keyspace the range partitioner splits (divisible by every group
/// count, so ranges are exactly even).
const KEY_SPACE: u64 = 1024;

/// Builds the sharding scaling table (the title slugs to
/// `ablation_sharding_*.csv` under `results/`).
pub fn run(quick: bool) -> Vec<Table> {
    let cluster = ClusterConfig::lan(9);
    let sim = super::sim_preset(quick);
    // Per-group closed-loop client counts: the first shows near-unloaded
    // latency, the last saturates every group's leader.
    let counts: Vec<usize> = if quick {
        vec![4, 32]
    } else {
        vec![2, 8, 24, 64]
    };
    let mut protos = vec![Proto::paxos(), Proto::Raft(RaftConfig::default())];
    if !quick {
        // This sweep has always charged EPaxos the plain message cost, not
        // `Proto::epaxos()`'s dependency-processing penalty.
        protos.push(Proto::EPaxos { cpu_penalty: 1.0 });
    }

    let mut t = Table::new(
        "Ablation: sharding scaling (9-node LAN)",
        &[
            "protocol",
            "groups",
            "clients",
            "max_throughput",
            "mean_ms_at_max",
            "speedup_vs_1_group",
        ],
    );
    for proto in &protos {
        let mut base_tput = f64::NAN;
        for &groups in GROUPS {
            let points = sweep_sharded(proto, groups, &sim, &cluster, KEY_SPACE, &counts);
            let best = points
                .iter()
                .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
                .expect("sweep produced no points");
            if groups == 1 {
                base_tput = best.throughput;
            }
            t.row(vec![
                proto.name(),
                groups.to_string(),
                best.clients.to_string(),
                f0(best.throughput),
                f2(best.mean_ms),
                f2(best.throughput / base_tput),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn four_groups_clear_the_scaling_bar() {
        let tables = super::run(true);
        let t = &tables[0];
        let row = |proto: &str, g: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == proto && r[1] == g)
                .unwrap_or_else(|| panic!("missing row {proto}/g={g}"))
        };
        let tput = |proto: &str, g: &str| -> f64 { row(proto, g)[3].parse().unwrap() };
        // The acceptance bar: with the default LAN cost model, 4 MultiPaxos
        // groups reach at least 2.5x the single-group saturation throughput
        // (analytically ~2.8x: the busiest node goes from pure leader to
        // leader-of-one + follower-of-three).
        assert!(
            tput("Paxos", "4") >= 2.5 * tput("Paxos", "1"),
            "4-group Paxos {} vs single-group {}",
            tput("Paxos", "4"),
            tput("Paxos", "1")
        );
        // Scaling is monotone in the group count for both protocols.
        for proto in ["Paxos", "Raft"] {
            assert!(
                tput(proto, "2") > tput(proto, "1"),
                "{proto} g=2 must beat g=1"
            );
            assert!(
                tput(proto, "8") > tput(proto, "4"),
                "{proto} g=8 must beat g=4"
            );
        }
    }
}
