//! Sharded (multi-group) benchmark runs.
//!
//! The single-group runs saturate at the leader's per-command service time;
//! a [`Scenario`] with `groups` set drives [`paxi_shard`]'s `ShardedReplica`
//! through the same simulator to measure how far static keyspace
//! partitioning moves that wall. Groups share every node's one CPU+NIC FIFO
//! queue, so the scaling numbers include cross-group contention — the
//! busiest node of a `g`-group deployment leads one group and follows
//! `g - 1` others.
//!
//! Clients are *routed*: each simulated client is pinned to one group,
//! attaches at that group's placed leader ([`spread_leader`]), and draws
//! keys only from the group's contiguous range — the closed-loop stand-in
//! for a [`paxi_shard::ShardRouter`] with a warm leader cache.
//!
//! Verification helpers treat each group as the independent consensus
//! instance it is: per-shard linearizability ([`check_sharded`]), per-group
//! cross-node consensus ([`check_group_consensus`]), and a cross-shard
//! leakage check ([`check_shard_leakage`]) asserting no group's store ever
//! holds a key the partitioner assigns elsewhere.

use crate::checker::{check_linearizability, Anomaly};
use crate::runner::{Proto, SweepPoint};
use crate::scenario::{NodeView, Scenario, Verdict};
use paxi_core::command::Command;
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::group::GroupId;
use paxi_core::id::ClientId;
use paxi_core::migration::KeyRange;
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_shard::{spread_leader, Partitioner, RangePartitioner};
use paxi_sim::client::unique_value;
use paxi_sim::report::OpRecord;
use paxi_sim::{ClientSetup, LoadMode, SimConfig, Workload};

/// `per_group` closed-loop clients per group, each attached at its group's
/// placed leader — the simulator-side model of router-directed traffic.
/// Clients are interleaved so client `i` belongs to group `i % groups`
/// (which is what [`routed_workload`] assumes).
pub fn routed_clients(cluster: &ClusterConfig, groups: u32, per_group: usize) -> Vec<ClientSetup> {
    let mut v = Vec::with_capacity(per_group * groups as usize);
    for _ in 0..per_group {
        for g in 0..groups {
            let leader = spread_leader(cluster, GroupId(g));
            v.push(ClientSetup {
                zone: leader.zone,
                attach: leader,
                mode: LoadMode::Closed { think: Nanos::ZERO },
            });
        }
    }
    v
}

/// 50/50 read/write workload where client `i` draws keys uniformly from
/// group `i % groups`'s slice of `[0, key_space)` under
/// [`RangePartitioner::even`] — group-local traffic that provably agrees
/// with the deployment's partitioner. Write payloads are unique per
/// `(client, seq)` for the linearizability checker.
pub fn routed_workload(key_space: u64, groups: u32) -> impl Workload {
    let part = RangePartitioner::even(key_space, groups);
    move |client: ClientId, _zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        let g = GroupId(client.0 % groups);
        let (lo, hi) = part.range(g);
        let hi = hi.min(key_space).max(lo + 1);
        let key = lo + rng.below(hi - lo);
        if rng.chance(0.5) {
            Command::get(key)
        } else {
            Command::put(key, unique_value(client, seq))
        }
    }
}

/// Runs `proto` sharded over `groups` range-partitioned groups with routed
/// clients and no faults, and audits the post-run replica state: per-group
/// consensus across nodes and the cross-shard leakage invariant.
pub fn run_sharded(
    proto: &Proto,
    groups: u32,
    sim: SimConfig,
    cluster: ClusterConfig,
    key_space: u64,
    per_group_clients: usize,
) -> Verdict {
    let clients = routed_clients(&cluster, groups, per_group_clients);
    let scenario = Scenario {
        groups: Some(groups),
        keys: key_space,
        ..Scenario::quiet(proto, sim, cluster)
    };
    scenario.run_load(routed_workload(key_space, groups), clients)
}

/// Sweeps the per-group client count and records one [`SweepPoint`] per
/// step — the sharded counterpart of [`crate::runner::sweep`]. The
/// `clients` field of each point is the *total* population (all groups).
pub fn sweep_sharded(
    proto: &Proto,
    groups: u32,
    sim: &SimConfig,
    cluster: &ClusterConfig,
    key_space: u64,
    per_group_counts: &[usize],
) -> Vec<SweepPoint> {
    per_group_counts
        .iter()
        .map(|&count| {
            let run = run_sharded(
                proto,
                groups,
                sim.clone(),
                cluster.clone(),
                key_space,
                count,
            );
            SweepPoint::of(count * groups as usize, &run.report)
        })
        .collect()
}

/// Splits `ops` by owning group and checks each shard's history
/// independently, returning `(group, anomalies)` per non-empty shard.
/// Because groups are disjoint consensus instances, a global check could
/// only mask cross-shard bugs; per-shard checking plus the leakage audit is
/// strictly stronger.
pub fn check_sharded(ops: &[OpRecord], part: &dyn Partitioner) -> Vec<(GroupId, Vec<Anomaly>)> {
    let mut by_group: Vec<Vec<OpRecord>> = (0..part.groups()).map(|_| Vec::new()).collect();
    for op in ops {
        by_group[part.group_of(op.key).0 as usize].push(op.clone());
    }
    by_group
        .into_iter()
        .enumerate()
        .filter(|(_, shard)| !shard.is_empty())
        .map(|(g, shard)| (GroupId(g as u32), check_linearizability(&shard)))
        .collect()
}

/// Asserts the partition invariant on surviving state: every key in every
/// group's store must be owned by that group — except keys in `exempt`, a
/// range a migration is handing over, which the hand-off audits judge.
/// Returns one line per violation (empty = pass).
pub fn check_shard_leakage(
    nodes: &[NodeView<'_>],
    part: &dyn Partitioner,
    exempt: Option<&KeyRange>,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        for (g, group) in node.groups.iter().enumerate() {
            for key in group.store.into_iter().flat_map(|s| s.keys()) {
                if exempt.is_some_and(|r| r.contains(key)) {
                    continue;
                }
                if !part.owns(GroupId(g as u32), key) {
                    violations.push(format!(
                        "node {ni} group {g} stores key {key} owned by group {}",
                        part.group_of(key)
                    ));
                }
            }
        }
    }
    violations
}

/// Runs the common-prefix consensus check within every group, across all
/// nodes' instances of it. Returns the first divergence rendered as text.
pub fn check_group_consensus(nodes: &[NodeView<'_>]) -> Option<String> {
    let groups = nodes.first().map_or(0, |n| n.groups.len());
    for g in 0..groups {
        let stores: Vec<&MultiVersionStore> =
            nodes.iter().filter_map(|n| n.groups[g].store).collect();
        if let Err(d) = crate::consensus::check_consensus(&stores) {
            return Some(format!(
                "group {g}: key {} diverges between replicas {} and {} at version {}",
                d.key, d.node_a, d.node_b, d.at
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig {
            warmup: Nanos::millis(200),
            measure: Nanos::millis(800),
            ..SimConfig::default()
        }
    }

    fn raft() -> Proto {
        Proto::Raft(Default::default())
    }

    #[test]
    fn routed_clients_pin_to_spread_leaders() {
        let cluster = ClusterConfig::lan(5);
        let clients = routed_clients(&cluster, 4, 3);
        assert_eq!(clients.len(), 12);
        // Client i serves group i % 4, attached at node i % 4 (spread).
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(c.attach, spread_leader(&cluster, GroupId(i as u32 % 4)));
        }
    }

    #[test]
    fn routed_workload_stays_in_the_clients_group() {
        let groups = 4;
        let part = RangePartitioner::even(1000, groups);
        let mut w = routed_workload(1000, groups);
        let mut rng = Rng64::seed(3);
        for client in 0..8u32 {
            for seq in 0..200 {
                let cmd = w.next(ClientId(client), 0, seq, Nanos::ZERO, &mut rng);
                assert_eq!(
                    part.group_of(cmd.key),
                    GroupId(client % groups),
                    "client {client} leaked key {}",
                    cmd.key
                );
                assert!(cmd.key < 1000);
            }
        }
    }

    #[test]
    fn sharded_paxos_completes_and_stays_clean() {
        let sim = SimConfig {
            record_ops: true,
            ..quick()
        };
        let run = run_sharded(&Proto::paxos(), 4, sim, ClusterConfig::lan(5), 1000, 2);
        assert!(run.report.completed > 200, "{run}");
        assert!(run.passed(), "{run}");
    }

    #[test]
    fn sharded_raft_completes() {
        let run = run_sharded(&raft(), 2, quick(), ClusterConfig::lan(5), 1000, 2);
        assert!(run.report.completed > 200, "{run}");
    }

    #[test]
    fn per_shard_histories_are_anomaly_free() {
        let sim = SimConfig {
            record_ops: true,
            ..quick()
        };
        let groups = 4;
        let run = run_sharded(&Proto::paxos(), groups, sim, ClusterConfig::lan(5), 1000, 2);
        let shards = check_sharded(&run.report.ops, &RangePartitioner::even(1000, groups));
        assert!(!shards.is_empty());
        for (g, anomalies) in shards {
            assert!(anomalies.is_empty(), "group {g}: {anomalies:?}");
        }
    }
}
