//! Sharded (multi-group) benchmark runs.
//!
//! The single-group runners in [`crate::runner`] saturate at the leader's
//! per-command service time; this module drives [`paxi_shard`]'s
//! [`ShardedReplica`] through the same simulator to measure how far static
//! keyspace partitioning moves that wall. Groups share every node's one
//! CPU+NIC FIFO queue, so the scaling numbers include cross-group
//! contention — the busiest node of a `g`-group deployment leads one group
//! and follows `g - 1` others.
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
use crate::nemesis::{generate_schedule_with_mode, NemesisConfig, NemesisOutcome};
use crate::runner::SweepPoint;
use paxi_core::command::Command;
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::faults::{CrashMode, FaultPlan};
use paxi_core::group::GroupId;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::Replica;
use paxi_protocols::epaxos::EPaxos;
use paxi_protocols::paxos::{MultiPaxos, PaxosConfig};
use paxi_protocols::raft::{Raft, RaftConfig};
use paxi_shard::{
    sharded_cluster, spread_leader, Partitioner, RangePartitioner, ShardDisks, ShardSpec,
    ShardedReplica,
};
use paxi_sim::client::{uniform_workload, unique_value};
use paxi_sim::report::{OpRecord, SimReport};
use paxi_sim::{ClientSetup, LoadMode, SimConfig, Simulator, Workload};
use paxi_storage::FsyncPolicy;

/// Protocols the sharded runner can instantiate per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardProto {
    /// MultiPaxos, one instance per group, leaders spread round-robin.
    Paxos,
    /// Raft, preferred leaders spread round-robin.
    Raft,
    /// EPaxos (leaderless; placement is moot, every node serves).
    EPaxos,
}

impl ShardProto {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ShardProto::Paxos => "Paxos",
            ShardProto::Raft => "Raft",
            ShardProto::EPaxos => "EPaxos",
        }
    }
}

/// The outcome of a checked sharded run.
#[derive(Debug)]
pub struct ShardedRun {
    /// The simulator's report.
    pub report: SimReport,
    /// Cross-shard leakage violations (empty = every stored key is owned by
    /// its group).
    pub leakage: Vec<String>,
    /// First per-group consensus divergence, if any.
    pub divergence: Option<String>,
}

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

/// The generic body every sharded entry point funnels into: builds a
/// [`ShardedReplica`] cluster from `group_factory`, runs the simulation,
/// and (when `check` is set) audits the surviving replica state.
#[allow(clippy::too_many_arguments)]
fn go<R, F>(
    sim: SimConfig,
    cluster: ClusterConfig,
    spec: ShardSpec,
    group_factory: F,
    workload: impl Workload + 'static,
    clients: Vec<ClientSetup>,
    faults: FaultPlan,
    disks: Option<ShardDisks>,
    check: bool,
) -> ShardedRun
where
    R: Replica + 'static,
    F: Fn(NodeId, GroupId) -> R + 'static,
{
    let part = spec.partitioner.clone();
    let factory = sharded_cluster(spec, group_factory);
    let mut s = Simulator::new(sim, cluster, factory, workload, clients);
    if let Some(d) = disks {
        s.set_storage(d);
    }
    *s.faults_mut() = faults;
    let report = s.run();
    let (leakage, divergence) = if check {
        (
            check_shard_leakage(s.replicas(), part.as_ref()),
            check_group_consensus(s.replicas()),
        )
    } else {
        (Vec::new(), None)
    };
    ShardedRun {
        report,
        leakage,
        divergence,
    }
}

/// Dispatches `proto` into [`go`], building per-group inner replicas with
/// spread leader placement and (when `disks` is given) a per-`(node, group)`
/// WAL namespace attached to each.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    proto: ShardProto,
    sim: SimConfig,
    cluster: ClusterConfig,
    spec: ShardSpec,
    workload: impl Workload + 'static,
    clients: Vec<ClientSetup>,
    faults: FaultPlan,
    disks: Option<ShardDisks>,
    check: bool,
) -> ShardedRun {
    let cl = cluster.clone();
    let wal = disks.clone();
    match proto {
        ShardProto::Paxos => go(
            sim,
            cluster,
            spec,
            move |id: NodeId, g: GroupId| {
                let cfg = PaxosConfig {
                    initial_leader: spread_leader(&cl, g),
                    ..PaxosConfig::default()
                };
                let mut r = MultiPaxos::new(id, cl.clone(), cfg);
                r.set_group(g);
                if let Some(d) = &wal {
                    r.attach_storage(Box::new(d.open(id, g)));
                }
                r
            },
            workload,
            clients,
            faults,
            disks,
            check,
        ),
        ShardProto::Raft => go(
            sim,
            cluster,
            spec,
            move |id: NodeId, g: GroupId| {
                let cfg = RaftConfig {
                    preferred_leader: Some(spread_leader(&cl, g)),
                    ..RaftConfig::default()
                };
                let mut r = Raft::new(id, cl.clone(), cfg);
                r.set_group(g);
                if let Some(d) = &wal {
                    r.attach_storage(Box::new(d.open(id, g)));
                }
                r
            },
            workload,
            clients,
            faults,
            disks,
            check,
        ),
        ShardProto::EPaxos => go(
            sim,
            cluster,
            spec,
            move |id: NodeId, g: GroupId| {
                let mut r = EPaxos::new(id, cl.clone());
                if let Some(d) = &wal {
                    r.attach_storage(Box::new(d.open(id, g)));
                }
                r
            },
            workload,
            clients,
            faults,
            disks,
            check,
        ),
    }
}

/// Runs `proto` sharded over `groups` range-partitioned groups with routed
/// clients and no faults, returning the report.
pub fn run_sharded(
    proto: ShardProto,
    groups: u32,
    sim: SimConfig,
    cluster: ClusterConfig,
    key_space: u64,
    per_group_clients: usize,
) -> SimReport {
    let spec = ShardSpec::range(key_space, groups);
    let clients = routed_clients(&cluster, groups, per_group_clients);
    dispatch(
        proto,
        sim,
        cluster,
        spec,
        routed_workload(key_space, groups),
        clients,
        FaultPlan::new(),
        None,
        false,
    )
    .report
}

/// Like [`run_sharded`], but audits the post-run replica state: per-group
/// consensus across nodes and the cross-shard leakage invariant.
pub fn run_sharded_checked(
    proto: ShardProto,
    groups: u32,
    sim: SimConfig,
    cluster: ClusterConfig,
    key_space: u64,
    per_group_clients: usize,
) -> ShardedRun {
    let spec = ShardSpec::range(key_space, groups);
    let clients = routed_clients(&cluster, groups, per_group_clients);
    dispatch(
        proto,
        sim,
        cluster,
        spec,
        routed_workload(key_space, groups),
        clients,
        FaultPlan::new(),
        None,
        true,
    )
}

/// Sweeps the per-group client count and records one [`SweepPoint`] per
/// step — the sharded counterpart of [`crate::runner::sweep`]. The
/// `clients` field of each point is the *total* population (all groups).
pub fn sweep_sharded(
    proto: ShardProto,
    groups: u32,
    sim: &SimConfig,
    cluster: &ClusterConfig,
    key_space: u64,
    per_group_counts: &[usize],
) -> Vec<SweepPoint> {
    per_group_counts
        .iter()
        .map(|&count| {
            let report = run_sharded(
                proto,
                groups,
                sim.clone(),
                cluster.clone(),
                key_space,
                count,
            );
            SweepPoint {
                clients: count * groups as usize,
                throughput: report.throughput,
                mean_ms: report.latency.mean.as_millis_f64(),
                p50_ms: report.latency.p50.as_millis_f64(),
                p99_ms: report.latency.p99.as_millis_f64(),
            }
        })
        .collect()
}

/// Runs `proto` sharded over `groups` groups under a seeded random fault
/// schedule and checks the full history — the sharded twin of
/// [`crate::nemesis::run_nemesis`]. The schedule generator is shared, so a
/// sharded run under `(seed, cluster, horizon, episodes, mode)` applies the
/// *identical* fault plan (and digest) as the unsharded run. Clients attach
/// round-robin (unrouted); wrong-node requests ride each group's internal
/// forwarding. Under [`CrashMode::Amnesia`] every group gets its own WAL
/// namespace in one [`ShardDisks`] array and a crashed node rebuilds all of
/// its group replicas from their WALs.
pub fn run_sharded_nemesis(
    proto: ShardProto,
    groups: u32,
    mut sim: SimConfig,
    cluster: ClusterConfig,
    cfg: &NemesisConfig,
) -> NemesisOutcome {
    let horizon = sim.warmup + sim.measure;
    let schedule =
        generate_schedule_with_mode(cfg.seed, &cluster, horizon, cfg.episodes, cfg.crash_mode);
    sim.seed = cfg.seed;
    sim.record_ops = true;
    if sim.client_retry.is_none() {
        sim.client_retry = Some(Nanos::millis(500));
    }
    let clients = ClientSetup::closed_per_zone(&cluster, cfg.clients_per_zone);
    let heal_at = Nanos(horizon.0 * 3 / 4);
    let spec = ShardSpec::range(cfg.keys, groups);
    let disks = match cfg.crash_mode {
        CrashMode::Freeze => None,
        CrashMode::Amnesia => Some(ShardDisks::new(cfg.fsync, groups)),
    };
    let run = dispatch(
        proto,
        sim,
        cluster,
        spec,
        uniform_workload(cfg.keys),
        clients,
        schedule.plan.clone(),
        disks,
        false,
    );
    let anomalies = check_linearizability(&run.report.ops);
    let tail_completed = run
        .report
        .ops
        .iter()
        .filter(|o| o.ok && o.ret >= heal_at)
        .count() as u64;
    NemesisOutcome {
        proto: format!("Sharded{}(g={groups})", proto.name()),
        seed: cfg.seed,
        schedule,
        completed: run.report.completed,
        tail_completed,
        anomalies,
    }
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
/// group's store must be owned by that group. Returns one line per
/// violation (empty = pass).
pub fn check_shard_leakage<R: Replica>(
    nodes: &[ShardedReplica<R>],
    part: &dyn Partitioner,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        for (g, inner) in node.group_replicas().iter().enumerate() {
            if let Some(store) = inner.store() {
                for key in store.keys() {
                    if !part.owns(GroupId(g as u32), key) {
                        violations.push(format!(
                            "node {ni} group {g} stores key {key} owned by group {}",
                            part.group_of(key)
                        ));
                    }
                }
            }
        }
    }
    violations
}

/// Runs the common-prefix consensus check within every group, across all
/// nodes' instances of it. Returns the first divergence rendered as text.
pub fn check_group_consensus<R: Replica>(nodes: &[ShardedReplica<R>]) -> Option<String> {
    let groups = nodes.first().map(|n| n.group_replicas().len()).unwrap_or(0);
    for g in 0..groups {
        let stores: Vec<&MultiVersionStore> = nodes
            .iter()
            .filter_map(|n| n.group_replicas()[g].store())
            .collect();
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
        let run = run_sharded_checked(
            ShardProto::Paxos,
            4,
            quick(),
            ClusterConfig::lan(5),
            1000,
            2,
        );
        assert!(
            run.report.completed > 200,
            "completed {}",
            run.report.completed
        );
        assert!(run.leakage.is_empty(), "leakage: {:?}", run.leakage);
        assert!(run.divergence.is_none(), "divergence: {:?}", run.divergence);
    }

    #[test]
    fn sharded_raft_completes() {
        let report = run_sharded(ShardProto::Raft, 2, quick(), ClusterConfig::lan(5), 1000, 2);
        assert!(report.completed > 200, "completed {}", report.completed);
    }

    #[test]
    fn per_shard_histories_are_anomaly_free() {
        let mut sim = quick();
        sim.record_ops = true;
        let groups = 4;
        let spec_part = RangePartitioner::even(1000, groups);
        let clients = routed_clients(&ClusterConfig::lan(5), groups, 2);
        let run = dispatch(
            ShardProto::Paxos,
            sim,
            ClusterConfig::lan(5),
            ShardSpec::range(1000, groups),
            routed_workload(1000, groups),
            clients,
            FaultPlan::new(),
            None,
            false,
        );
        let shards = check_sharded(&run.report.ops, &spec_part);
        assert!(!shards.is_empty());
        for (g, anomalies) in shards {
            assert!(anomalies.is_empty(), "group {g}: {anomalies:?}");
        }
    }
}
