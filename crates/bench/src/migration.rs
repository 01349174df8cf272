//! Mid-migration nemesis: crash the cluster *inside* a shard hand-off and
//! check that exactly one group owns the range afterwards.
//!
//! The sharded nemesis ([`crate::sharded::run_sharded_nemesis`]) stresses a
//! static partition; this module stresses the hand-off itself. A designated
//! client submits one `MigrationStart` at a fixed virtual time, a crash
//! window fells a chosen victim — the source group's leader, the destination
//! group's leader, or a follower of both — aligned with a chosen protocol
//! phase (start, stream, or commit), and the completed history is checked
//! for linearizability. The verdict additionally requires that the hand-off
//! *finished* (a majority of nodes report the target routing epoch), that no
//! surviving replica state shows dual ownership or an uninstalled copy of
//! the range, that no acknowledged write was orphaned, and that every
//! message loss is attributable (`unexplained == 0`).
//!
//! Like everything else in the harness the run is a pure function of its
//! seed: the same `(proto, victim, stage, mode, seed)` tuple replays
//! bit-for-bit, and [`MigrationOutcome::digest`] fingerprints the verdict
//! for the smoke job's artifact.

use crate::checker::{check_linearizability, Anomaly};
use crate::sharded::ShardProto;
use paxi_core::config::ClusterConfig;
use paxi_core::faults::{CrashMode, FaultPlan, FaultWindow};
use paxi_core::group::GroupId;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::migration::{KeyRange, MigrationSpec};
use paxi_core::time::Nanos;
use paxi_core::traits::Replica;
use paxi_protocols::paxos::{MultiPaxos, PaxosConfig};
use paxi_protocols::raft::{Raft, RaftConfig};
use paxi_shard::{
    sharded_cluster, spread_leader, Partitioner, RangePartitioner, ShardDisks, ShardSpec,
    ShardedReplica,
};
use paxi_sim::client::uniform_workload;
use paxi_sim::report::{OpRecord, SimReport};
use paxi_sim::{ClientSetup, MigrationWorkload, SimConfig, Simulator, Workload};
use paxi_storage::FsyncPolicy;

/// Which node the nemesis fells inside the hand-off window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationVictim {
    /// The source group's placed leader — the node driving the hand-off.
    SourceLeader,
    /// The destination group's placed leader — the node that must install.
    DestLeader,
    /// A node leading neither group.
    Follower,
}

impl MigrationVictim {
    /// Stable label for step lines and digests.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationVictim::SourceLeader => "source-leader",
            MigrationVictim::DestLeader => "dest-leader",
            MigrationVictim::Follower => "follower",
        }
    }
}

/// Which protocol phase the crash window is aligned with. The window is far
/// wider than one phase (it must be survivable yet disruptive), so the
/// stage picks its *onset*: at the kick-off, during the state stream, or
/// around the commit halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStage {
    /// Crash lands as `MigrationStart` is submitted.
    Start,
    /// Crash lands while the frozen range state is streaming.
    Stream,
    /// Crash lands around the `MigrationCommit` halves.
    Commit,
}

impl MigrationStage {
    /// Stable label for step lines and digests.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationStage::Start => "start",
            MigrationStage::Stream => "stream",
            MigrationStage::Commit => "commit",
        }
    }

    /// Offset of the crash window's onset from the kick-off, tuned to the
    /// shard driver's 25 ms control-timer cadence: the install is proposed
    /// on the first tick after `Start` commits and the commit halves one
    /// tick later.
    fn offset(&self) -> Nanos {
        match self {
            MigrationStage::Start => Nanos::ZERO,
            MigrationStage::Stream => Nanos::millis(25),
            MigrationStage::Commit => Nanos::millis(50),
        }
    }
}

/// Tunables of one mid-migration nemesis run.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Seed for the simulation (all randomness).
    pub seed: u64,
    /// Keys in the workload's space (at least 4; the upper half of group
    /// 0's slice is what migrates).
    pub keys: u64,
    /// Closed-loop clients, attached round-robin across the cluster.
    pub clients: usize,
    /// What the crash does to the victim.
    pub mode: CrashMode,
    /// Fsync policy, consulted under [`CrashMode::Amnesia`].
    pub fsync: FsyncPolicy,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            seed: 1,
            keys: 8,
            clients: 4,
            mode: CrashMode::Freeze,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Post-run audit of the surviving replica state, relative to one
/// migration.
#[derive(Debug)]
pub struct MigrationAudit {
    /// Every node's final routing epoch, in node order.
    pub routing_epochs: Vec<u64>,
    /// Dual-ownership violations: a source replica still storing range keys
    /// after its commit, or a destination replica storing range keys it
    /// never installed (empty = pass).
    pub dual_ownership: Vec<String>,
    /// Acknowledged writes to the migrated range held by no surviving
    /// replica of either group (empty = pass).
    pub orphaned: Vec<String>,
    /// [`crate::sharded::check_shard_leakage`] extended with a carve-out
    /// for the migrated range: every stored key *outside* it must still
    /// obey the base partitioner on every node (empty = pass).
    pub leakage: Vec<String>,
}

/// The verdict of one mid-migration nemesis run.
#[derive(Debug)]
pub struct MigrationOutcome {
    /// Protocol display name.
    pub proto: String,
    /// The felled node's role.
    pub victim: MigrationVictim,
    /// The phase the crash window was aligned with.
    pub stage: MigrationStage,
    /// Crash semantics applied to the victim.
    pub mode: CrashMode,
    /// Seed the run executed under.
    pub seed: u64,
    /// The migration the run executed.
    pub spec: MigrationSpec,
    /// Operations completed inside the measurement window.
    pub completed: u64,
    /// Completions in the fault-free tail (after the heal point).
    pub tail_completed: u64,
    /// Anomalous reads found by the linearizability checker (empty = pass).
    pub anomalies: Vec<Anomaly>,
    /// Message losses the drop ledger could not attribute to a known cause.
    pub unexplained_drops: u64,
    /// The surviving-state audit.
    pub audit: MigrationAudit,
    /// Human-readable schedule, for logs and the digest.
    pub steps: Vec<String>,
}

impl MigrationOutcome {
    /// Whether the hand-off completed: a majority of nodes report a routing
    /// epoch at least the migration's target. (A minority may still be
    /// catching up when the window closes; the old owner must never win.)
    pub fn cut_over_complete(&self) -> bool {
        let agreeing = self
            .audit
            .routing_epochs
            .iter()
            .filter(|&&e| e >= self.spec.epoch)
            .count();
        agreeing > self.audit.routing_epochs.len() / 2
    }

    /// Whether the run passed in full: anomaly-free, progressed after
    /// healing, fully-attributed losses, a completed cut-over, and a clean
    /// ownership audit.
    pub fn passed(&self) -> bool {
        self.anomalies.is_empty()
            && self.tail_completed > 0
            && self.unexplained_drops == 0
            && self.cut_over_complete()
            && self.audit.dual_ownership.is_empty()
            && self.audit.orphaned.is_empty()
            && self.audit.leakage.is_empty()
    }

    /// FNV-1a fingerprint of the schedule and verdict — the migration smoke
    /// job's artifact lines. Equal digests mean the same run reached the
    /// same verdict.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0x0a;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for s in &self.steps {
            fold(s.as_bytes());
        }
        fold(format!("anomalies={}", self.anomalies.len()).as_bytes());
        fold(format!("unexplained={}", self.unexplained_drops).as_bytes());
        fold(format!("cutover={}", self.cut_over_complete()).as_bytes());
        fold(format!("dual={}", self.audit.dual_ownership.len()).as_bytes());
        fold(format!("orphaned={}", self.audit.orphaned.len()).as_bytes());
        fold(format!("leakage={}", self.audit.leakage.len()).as_bytes());
        h
    }
}

/// Audits surviving replica state against `spec`. Only state transitions a
/// replica has *provably executed* are asserted on — a follower still
/// catching up at the horizon is lag, not a violation:
///
/// * a source replica whose tracker reports the commit executed must hold
///   no range key (the drop is part of the same log entry);
/// * a destination replica must not hold range keys without its tracker
///   reporting the install (state cannot appear out of thin air);
/// * every acknowledged write to the range must survive in *some* replica
///   of either group (frozen state streams, so an acked write is either
///   below `Start` and inside the stream, or executed at the destination);
/// * keys outside the range still obey the base partitioner everywhere —
///   [`crate::sharded::check_shard_leakage`] with the migrated range
///   carved out.
pub fn audit_handoff<R: Replica>(
    nodes: &[ShardedReplica<R>],
    part: &dyn Partitioner,
    spec: &MigrationSpec,
    ops: &[OpRecord],
) -> MigrationAudit {
    let from = spec.from.0 as usize;
    let to = spec.to.0 as usize;
    let mut routing_epochs = Vec::with_capacity(nodes.len());
    let mut dual_ownership = Vec::new();
    let mut leakage = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        routing_epochs.push(node.routing().epoch());
        let reps = node.group_replicas();
        let src_done = reps[from].migration().is_some_and(|t| t.done(spec.id));
        if src_done {
            if let Some(store) = reps[from].store() {
                for key in store.keys().filter(|&k| spec.range.contains(k)) {
                    dual_ownership.push(format!(
                        "node {ni}: source group {} still stores key {key} after its commit",
                        spec.from
                    ));
                }
            }
        }
        let installed = reps[to].migration().is_some_and(|t| t.installed(spec.id));
        if !installed {
            if let Some(store) = reps[to].store() {
                for key in store.keys().filter(|&k| spec.range.contains(k)) {
                    dual_ownership.push(format!(
                        "node {ni}: dest group {} stores key {key} without an install",
                        spec.to
                    ));
                }
            }
        }
        for (g, inner) in reps.iter().enumerate() {
            if let Some(store) = inner.store() {
                for key in store.keys() {
                    if spec.range.contains(key) {
                        continue; // judged by the hand-off checks above
                    }
                    if !part.owns(GroupId(g as u32), key) {
                        leakage.push(format!(
                            "node {ni} group {g} stores key {key} owned by group {}",
                            part.group_of(key)
                        ));
                    }
                }
            }
        }
    }
    let mut orphaned = Vec::new();
    for key in spec.range.lo..spec.range.hi {
        let acked = ops
            .iter()
            .any(|o| o.ok && o.write.is_some() && o.key == key);
        if !acked {
            continue;
        }
        let held = nodes.iter().any(|n| {
            let reps = n.group_replicas();
            [from, to]
                .iter()
                .any(|&g| reps[g].store().is_some_and(|s| s.keys().any(|k| k == key)))
        });
        if !held {
            orphaned.push(format!(
                "key {key}: acknowledged write survives in no replica of either group"
            ));
        }
    }
    MigrationAudit {
        routing_epochs,
        dual_ownership,
        orphaned,
        leakage,
    }
}

/// Runs `proto` sharded over two groups through one range hand-off with a
/// crash inside the migration window and checks the history plus the
/// surviving ownership state.
///
/// Geometry (fixed so every run is survivable by construction):
///
/// * 5 nodes in one zone, 2 range-partitioned groups; spread placement
///   puts group 0's leader on node 0 and group 1's on node 1, so node 3 is
///   a follower of both;
/// * the upper half of group 0's slice (keys `[2, 4)` under the default
///   `keys = 8`) migrates to group 1 at epoch 1;
/// * the kick-off is submitted at `warmup + measure·2/5`, the crash window
///   opens at the stage's offset from it and lasts `measure/5`, and
///   everything heals at `horizon·3/4`, leaving the tail clean for
///   re-election, catch-up, re-proposal, and client retries.
///
/// Only [`ShardProto::Paxos`] and [`ShardProto::Raft`] carry migration
/// records through their WALs; passing [`ShardProto::EPaxos`] panics.
pub fn run_migration_nemesis(
    proto: ShardProto,
    mut sim: SimConfig,
    cfg: &MigrationConfig,
    victim: MigrationVictim,
    stage: MigrationStage,
) -> MigrationOutcome {
    assert!(
        cfg.keys >= 4,
        "need at least 4 keys to halve group 0's slice"
    );
    let cluster = ClusterConfig::lan(5);
    let groups = 2u32;
    let (lo0, hi0) = RangePartitioner::even(cfg.keys, groups).range(GroupId(0));
    let spec = MigrationSpec {
        id: 1,
        from: GroupId(0),
        to: GroupId(1),
        range: KeyRange::new(lo0 + (hi0 - lo0) / 2, hi0),
        epoch: 1,
    };
    let victim_node = match victim {
        MigrationVictim::SourceLeader => spread_leader(&cluster, spec.from),
        MigrationVictim::DestLeader => spread_leader(&cluster, spec.to),
        MigrationVictim::Follower => NodeId::new(0, 3),
    };

    sim.seed = cfg.seed;
    sim.record_ops = true;
    sim.metrics = true;
    if sim.client_retry.is_none() {
        sim.client_retry = Some(Nanos::millis(500));
    }
    let horizon = sim.warmup + sim.measure;
    let migrate_at = Nanos(sim.warmup.0 + sim.measure.0 * 2 / 5);
    let crash_at = Nanos(migrate_at.0 + stage.offset().0);
    let crash_dur = Nanos(sim.measure.0 / 5);
    let heal_at = Nanos(horizon.0 * 3 / 4);

    let mut plan = FaultPlan::new();
    plan.crash_mode_in(victim_node, FaultWindow::new(crash_at, crash_dur), cfg.mode);
    plan.heal(heal_at);
    let steps = vec![
        format!(
            "proto=Sharded{}(g={groups}) victim={} stage={} seed={}",
            proto.name(),
            victim.label(),
            stage.label(),
            cfg.seed
        ),
        format!("migrate {spec} at={}", migrate_at.0),
        format!(
            "crash mode={} node={victim_node} at={} dur={}",
            cfg.mode.label(),
            crash_at.0,
            crash_dur.0
        ),
        format!("heal at={}", heal_at.0),
    ];

    let clients: Vec<ClientSetup> = ClientSetup::closed_per_zone(&cluster, cfg.clients);
    // Client 0 (the first setup) carries the migration kick-off.
    let workload =
        MigrationWorkload::new(uniform_workload(cfg.keys), ClientId(0), migrate_at, spec);

    let shard_spec = ShardSpec::range(cfg.keys, groups);
    let disks = match cfg.mode {
        // Amnesia without durable WALs cannot rebuild the tracker — the
        // whole point of the migration WAL records.
        CrashMode::Freeze => None,
        CrashMode::Amnesia => Some(ShardDisks::new(cfg.fsync, groups)),
    };
    let cl = cluster.clone();
    let wal = disks.clone();
    let (report, audit) = match proto {
        ShardProto::Paxos => go(
            sim,
            cluster,
            shard_spec,
            move |id: NodeId, g: GroupId| {
                let pc = PaxosConfig {
                    initial_leader: spread_leader(&cl, g),
                    ..PaxosConfig::default()
                };
                let mut r = MultiPaxos::new(id, cl.clone(), pc);
                r.set_group(g);
                if let Some(d) = &wal {
                    r.attach_storage(Box::new(d.open(id, g)));
                }
                r
            },
            workload,
            clients,
            plan,
            disks,
            spec,
        ),
        ShardProto::Raft => go(
            sim,
            cluster,
            shard_spec,
            move |id: NodeId, g: GroupId| {
                let rc = RaftConfig {
                    preferred_leader: Some(spread_leader(&cl, g)),
                    ..RaftConfig::default()
                };
                let mut r = Raft::new(id, cl.clone(), rc);
                r.set_group(g);
                if let Some(d) = &wal {
                    r.attach_storage(Box::new(d.open(id, g)));
                }
                r
            },
            workload,
            clients,
            plan,
            disks,
            spec,
        ),
        other => panic!("{} does not support shard migration", other.name()),
    };

    let anomalies = check_linearizability(&report.ops);
    let tail_completed = report
        .ops
        .iter()
        .filter(|o| o.ok && o.ret >= heal_at)
        .count() as u64;
    let unexplained_drops = report.metrics.as_ref().map_or(0, |m| m.unexplained_drops());
    MigrationOutcome {
        proto: format!("Sharded{}(g={groups})", proto.name()),
        victim,
        stage,
        mode: cfg.mode,
        seed: cfg.seed,
        spec,
        completed: report.completed,
        tail_completed,
        anomalies,
        unexplained_drops,
        audit,
        steps,
    }
}

/// Builds the sharded simulator (durable when asked), runs it, and audits
/// the surviving replica state before the simulator is dropped — unlike
/// [`crate::sharded`]'s runner the audit needs the replicas *and* the op
/// log together.
#[allow(clippy::too_many_arguments)]
fn go<R, F>(
    sim: SimConfig,
    cluster: ClusterConfig,
    shard_spec: ShardSpec,
    group_factory: F,
    workload: impl Workload + 'static,
    clients: Vec<ClientSetup>,
    plan: FaultPlan,
    disks: Option<ShardDisks>,
    spec: MigrationSpec,
) -> (SimReport, MigrationAudit)
where
    R: Replica + 'static,
    F: Fn(NodeId, GroupId) -> R + 'static,
{
    let part = shard_spec.partitioner.clone();
    let factory = sharded_cluster(shard_spec, group_factory);
    let mut s = Simulator::new(sim, cluster, factory, workload, clients);
    if let Some(d) = disks {
        s.set_storage(d);
    }
    *s.faults_mut() = plan;
    let report = s.run();
    let audit = audit_handoff(s.replicas(), part.as_ref(), &spec, &report.ops);
    (report, audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim() -> SimConfig {
        SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::millis(3_900),
            ..SimConfig::default()
        }
    }

    #[test]
    fn paxos_hands_off_through_a_frozen_follower() {
        let out = run_migration_nemesis(
            ShardProto::Paxos,
            quick_sim(),
            &MigrationConfig {
                seed: 3,
                ..Default::default()
            },
            MigrationVictim::Follower,
            MigrationStage::Start,
        );
        // The victim leads neither group under Freeze — still a real fault,
        // but both quorums stay intact, so this doubles as the smoke check.
        assert!(out.anomalies.is_empty(), "anomalies: {:?}", out.anomalies);
        assert!(out.tail_completed > 0, "no post-heal progress");
        assert!(
            out.cut_over_complete(),
            "epochs: {:?}",
            out.audit.routing_epochs
        );
        assert!(
            out.audit.dual_ownership.is_empty(),
            "dual: {:?}",
            out.audit.dual_ownership
        );
        assert!(
            out.audit.orphaned.is_empty(),
            "orphaned: {:?}",
            out.audit.orphaned
        );
        assert!(
            out.audit.leakage.is_empty(),
            "leakage: {:?}",
            out.audit.leakage
        );
    }

    #[test]
    fn digest_is_deterministic_and_stage_sensitive() {
        let cfg = MigrationConfig::default();
        let a = run_migration_nemesis(
            ShardProto::Paxos,
            quick_sim(),
            &cfg,
            MigrationVictim::Follower,
            MigrationStage::Stream,
        );
        let b = run_migration_nemesis(
            ShardProto::Paxos,
            quick_sim(),
            &cfg,
            MigrationVictim::Follower,
            MigrationStage::Stream,
        );
        assert_eq!(a.digest(), b.digest(), "same run, same digest");
        let c = run_migration_nemesis(
            ShardProto::Paxos,
            quick_sim(),
            &cfg,
            MigrationVictim::Follower,
            MigrationStage::Commit,
        );
        assert_ne!(a.digest(), c.digest(), "different stage, different digest");
    }
}
