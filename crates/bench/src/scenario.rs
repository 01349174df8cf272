//! One scenario, one runner, one verdict.
//!
//! A [`Scenario`] says everything about a run: the protocol, how many
//! consensus groups each node hosts, the cluster and simulator settings, the
//! load, a [`NemesisSchedule`] of faults and at most one workload [`Event`]
//! (a membership change or a shard hand-off) injected at a stated time.
//! [`Scenario::run`] builds the one [`Simulator`] the harness ever builds —
//! plain or [`ShardedReplica`], durable when the schedule's crashes wipe
//! memory — and hands the report plus a protocol-agnostic view of the
//! surviving replicas ([`NodeView`]) to the [`Verdict`], which runs every
//! auditor the scenario makes applicable and owns the only `passed()`,
//! `Display` and `digest()`.
//!
//! Which auditors run is derived, never chosen: a recorded history is checked
//! for linearizability and for progress after the heal; metrics on means
//! every message loss must be attributed; an event brings its cut-over audit;
//! a sharded deployment brings the leakage audit; and every group's replicas
//! must agree on a common prefix of each key's history.
//!
//! Like everything else in the harness a run is a pure function of its
//! scenario: the same scenario replays bit-for-bit, and
//! [`Verdict::digest`] fingerprints schedule and findings. The run ledger,
//! `results/verdict_digests.txt`, keeps one line per committed cell: the
//! digest, and the run's counts beside it ([`record_digests`]).

use crate::checker::check_linearizability;
use crate::migration::{dual_ownership, orphaned_writes};
use crate::nemesis::{ddmin, digest_lines, generate_schedule_with_mode};
use crate::nemesis::{Episode, NemesisConfig, NemesisSchedule};
use crate::runner::Proto;
use crate::sharded::{check_group_consensus, check_shard_leakage};
use paxi_core::config::ClusterConfig;
use paxi_core::faults::CrashMode;
use paxi_core::group::GroupId;
use paxi_core::hash::FxHashSet;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::membership::ConfigChange;
use paxi_core::migration::{MigrationSpec, MigrationTracker};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Replica, ReplicaFactory};
use paxi_protocols::epaxos::EPaxos;
use paxi_protocols::paxos::MultiPaxos;
use paxi_protocols::raft::Raft;
use paxi_protocols::vpaxos::VPaxos;
use paxi_protocols::wankeeper::WanKeeper;
use paxi_protocols::wpaxos::WPaxos;
use paxi_shard::{
    sharded_cluster, spread_leader, RangePartitioner, ShardDisks, ShardSpec, ShardedReplica,
};
use paxi_sim::client::uniform_workload;
use paxi_sim::{
    ClientSetup, KickoffWorkload, LoadMode, SimConfig, SimDisks, SimReport, Simulator, Workload,
};
use paxi_storage::{FsyncPolicy, MemHub, Storage};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::{fmt, fs, io};

/// The one workload event a scenario may carry; client 0 submits it.
#[derive(Debug, Clone)]
pub enum Event {
    /// A membership change on a cluster whose members start as `initial`
    /// (the rest of the cluster's nodes start outside the configuration).
    Reconfig {
        /// The membership the run starts in.
        initial: Vec<NodeId>,
        /// The change to it.
        change: ConfigChange,
    },
    /// A shard hand-off between two groups of a sharded deployment.
    Migrate(MigrationSpec),
}

/// Everything about one run. All fields are public: the constructors build
/// the standard geometries, and a case that differs in one respect says so
/// with struct-update syntax (`Scenario { schedule, ..base }`).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The protocol under test.
    pub proto: Proto,
    /// `None` runs the plain protocol; `Some(g)` runs `g` groups of it per
    /// node inside a [`ShardedReplica`], range-partitioned over `keys`, with
    /// leaders placed by [`spread_leader`].
    pub groups: Option<u32>,
    /// The nodes.
    pub cluster: ClusterConfig,
    /// Topology, timing, seed and recording switches.
    pub sim: SimConfig,
    /// Keys in the workload's space (smaller = more contention).
    pub keys: u64,
    /// Closed-loop clients per zone.
    pub clients_per_zone: usize,
    /// Fsync policy of the replicas' WALs. Disks exist exactly when the
    /// schedule's crashes are [`CrashMode::Amnesia`]: a wiped replica
    /// without a WAL cannot be linearizable, and a frozen one needs none.
    pub fsync: FsyncPolicy,
    /// The faults.
    pub schedule: NemesisSchedule,
    /// The workload event and when client 0 first submits it.
    pub event: Option<(Nanos, Event)>,
    /// What distinguishes this case within its family (`victim=leader`);
    /// part of the digest's first line.
    pub label: String,
}

impl Scenario {
    /// `proto` on `cluster` with `sim` exactly as given: no fault, no event,
    /// volatile replicas.
    pub fn quiet(proto: &Proto, sim: SimConfig, cluster: ClusterConfig) -> Self {
        let load = NemesisConfig::default();
        Scenario {
            proto: proto.clone(),
            groups: None,
            schedule: NemesisSchedule::of(Vec::new(), &cluster, Nanos::ZERO, CrashMode::Freeze),
            cluster,
            sim,
            keys: load.keys,
            clients_per_zone: load.clients_per_zone,
            fsync: load.fsync,
            event: None,
            label: String::new(),
        }
    }

    /// `proto` under the random fault schedule `cfg` generates. `sim`
    /// supplies the topology and timing template (its `topology` must match
    /// `cluster`); the seed is `cfg`'s, every operation and every message
    /// loss is recorded, and client retries are armed so abandoned requests
    /// are re-issued rather than wedging closed-loop clients.
    pub fn nemesis(
        proto: &Proto,
        mut sim: SimConfig,
        cluster: ClusterConfig,
        cfg: &NemesisConfig,
    ) -> Self {
        sim.seed = cfg.seed;
        sim.record_ops = true;
        sim.metrics = true;
        if sim.client_retry.is_none() {
            sim.client_retry = Some(Nanos::millis(500));
        }
        let horizon = sim.warmup + sim.measure;
        Scenario {
            schedule: generate_schedule_with_mode(
                cfg.seed,
                &cluster,
                horizon,
                cfg.episodes,
                cfg.crash_mode,
            ),
            keys: cfg.keys,
            clients_per_zone: cfg.clients_per_zone,
            fsync: cfg.fsync,
            ..Self::quiet(proto, sim, cluster)
        }
    }

    /// This scenario with `event` submitted two fifths into the measurement
    /// window and, instead of random faults, one hand-placed crash of
    /// `victim` that opens `offset` after the event and lasts a fifth of the
    /// window — the geometry of the reconfiguration and migration cells.
    pub(crate) fn around(self, event: Event, victim: NodeId, offset: Nanos, label: String) -> Self {
        let at = Nanos(self.sim.warmup.0 + self.sim.measure.0 * 2 / 5);
        let crash = Episode::Crash {
            node: victim,
            at: at + offset,
            dur: Nanos(self.sim.measure.0 / 5),
        };
        let (heal_at, mode) = (self.schedule.heal_at(), self.schedule.mode);
        Scenario {
            schedule: NemesisSchedule::of(vec![crash], &self.cluster, heal_at, mode),
            event: Some((at, event)),
            label,
            ..self
        }
    }

    /// Display name of what runs: the protocol, and the group count when
    /// sharded.
    pub fn name(&self) -> String {
        match self.groups {
            Some(g) => format!("Sharded{}(g={g})", self.proto.name()),
            None => self.proto.name(),
        }
    }

    /// The run as lines, for logs, replay and the digest: who runs, the
    /// event, then the schedule's steps.
    pub fn steps(&self) -> Vec<String> {
        let mut head = vec![format!("proto={}", self.name())];
        if !self.label.is_empty() {
            head.push(self.label.clone());
        }
        head.push(format!("seed={}", self.sim.seed));
        let mut steps = vec![head.join(" ")];
        match &self.event {
            Some((at, Event::Reconfig { change, .. })) => steps.push(format!(
                "reconfig add={:?} remove={:?} at={}",
                change.add, change.remove, at.0
            )),
            Some((at, Event::Migrate(spec))) => steps.push(format!("migrate {spec} at={}", at.0)),
            None => {}
        }
        steps.extend(self.schedule.steps.iter().cloned());
        steps
    }

    /// Runs the scenario under its own load — uniform reads and writes over
    /// `keys`, with the event woven in — and judges it.
    pub fn run(&self) -> Verdict {
        let load = uniform_workload(self.keys);
        let in_every_zone = || ClientSetup::closed_per_zone(&self.cluster, self.clients_per_zone);
        match &self.event {
            None => self.run_load(load, in_every_zone()),
            Some((at, Event::Reconfig { initial, change })) => {
                // A client wired to a node that has not joined yet would be
                // load on a non-member: attach round-robin to the initial
                // members.
                let client = |i: usize| ClientSetup {
                    zone: initial[i % initial.len()].zone,
                    attach: initial[i % initial.len()],
                    mode: LoadMode::Closed { think: Nanos::ZERO },
                };
                let clients = (0..self.clients_per_zone).map(client).collect();
                let w = KickoffWorkload::reconfig(load, ClientId(0), *at, change, initial);
                self.run_load(w, clients)
            }
            Some((at, Event::Migrate(spec))) => {
                let w = KickoffWorkload::migration(load, ClientId(0), *at, *spec);
                self.run_load(w, in_every_zone())
            }
        }
    }

    /// [`Scenario::run`] under a load of the caller's (routed clients, a
    /// figure's workload) instead of the scenario's own.
    pub fn run_load(
        &self,
        workload: impl Workload + 'static,
        clients: Vec<ClientSetup>,
    ) -> Verdict {
        self.execute((workload, clients), |report, nodes, restarts| {
            Verdict::audit(self, report, nodes, restarts)
        })
    }

    /// [`Scenario::run`]; a run that wedged (no anomaly, nothing completed
    /// after the heal) is also shrunk, so the failure message's neighbour in
    /// the log is the minimal schedule. Wedged runs are cheap to repeat; a
    /// run with an anomaly costs as much as a healthy one, so shrinking
    /// those is left to whoever investigates.
    pub fn run_shrinking(&self) -> Verdict {
        let v = self.run();
        if v.tail_completed == 0 && v.count("anomalies") == 0 {
            self.shrink();
        }
        v
    }

    /// Shrinks this failing scenario to a minimal set of its fault windows
    /// under which it still fails (delta debugging over the schedule's
    /// episodes; the event, the load and the heal stay), prints that
    /// schedule, and returns the shrunk scenario.
    pub fn shrink(&self) -> Scenario {
        let only = |keep: &[usize]| Scenario {
            schedule: self.schedule.only(keep),
            ..self.clone()
        };
        let all: Vec<usize> = (0..self.schedule.episodes.len()).collect();
        let minimal = only(&ddmin(all, |keep| !only(keep).run().passed()));
        println!(
            "{} seed {}: minimal failing schedule, {} of {} fault windows:\n{}",
            self.name(),
            self.sim.seed,
            minimal.schedule.episodes.len(),
            self.schedule.episodes.len(),
            minimal.steps().join("\n"),
        );
        minimal
    }

    /// The harness's one protocol dispatch: picks the replica type and how
    /// one `(node, group)` instance of it is built, then hands over to
    /// [`Scenario::launch`]. `audit` sees the report, the survivors and
    /// what each amnesia restart read back from its disk.
    pub(crate) fn execute<T>(
        &self,
        load: (impl Workload + 'static, Vec<ClientSetup>),
        audit: impl FnOnce(SimReport, &[NodeView<'_>], Vec<Restart>) -> T,
    ) -> T {
        assert!(
            self.event.is_none() || matches!(self.proto, Proto::Paxos(_) | Proto::Raft(_)),
            "{} carries neither membership changes nor shard migrations through its log",
            self.proto.name()
        );
        let hand_off = matches!(self.event, Some((_, Event::Migrate(_))));
        assert!(
            !hand_off || self.groups.is_some(),
            "a hand-off needs groups"
        );
        let initial = match &self.event {
            Some((_, Event::Reconfig { initial, .. })) => Some(initial.clone()),
            _ => None,
        };
        let mut sim = self.sim.clone();
        let cl = self.cluster.clone();
        match &self.proto {
            Proto::Paxos(cfg) => {
                let mut cfg = cfg.clone();
                if initial.is_some() {
                    cfg.initial_members = initial;
                }
                self.launch(sim, load, audit, move |id, group| {
                    let mut cfg = cfg.clone();
                    if let Some(g) = group {
                        cfg.initial_leader = spread_leader(&cl, g);
                    }
                    let mut r = MultiPaxos::new(id, cl.clone(), cfg);
                    if let Some(g) = group {
                        r.set_group(g);
                    }
                    r
                })
            }
            Proto::Raft(cfg) => {
                let mut cfg = cfg.clone();
                if initial.is_some() {
                    cfg.initial_members = initial;
                }
                self.launch(sim, load, audit, move |id, group| {
                    let mut cfg = cfg.clone();
                    if let Some(g) = group {
                        cfg.preferred_leader = Some(spread_leader(&cl, g));
                    }
                    let mut r = Raft::new(id, cl.clone(), cfg);
                    if let Some(g) = group {
                        r.set_group(g);
                    }
                    r
                })
            }
            Proto::EPaxos { cpu_penalty } => {
                sim.cost.cpu_penalty = *cpu_penalty;
                self.launch(sim, load, audit, move |id, _| EPaxos::new(id, cl.clone()))
            }
            Proto::WPaxos(cfg) => {
                let cfg = cfg.clone();
                self.launch(sim, load, audit, move |id, _| {
                    WPaxos::new(id, cl.clone(), cfg.clone())
                })
            }
            Proto::WanKeeper(cfg) => {
                let cfg = cfg.clone();
                self.launch(sim, load, audit, move |id, _| {
                    WanKeeper::new(id, cl.clone(), cfg.clone())
                })
            }
            Proto::VPaxos(cfg) => {
                let cfg = cfg.clone();
                self.launch(sim, load, audit, move |id, _| {
                    VPaxos::new(id, cl.clone(), cfg.clone())
                })
            }
        }
    }

    /// Wraps `make` into the node factory of the deployment — the replica
    /// itself, or a [`ShardedReplica`] of `groups` of them — with a WAL
    /// attached to every instance when the run is durable. An unsharded
    /// node built again (an amnesia restart) has what its disk gives back
    /// recorded first.
    fn launch<R: Replica + 'static, T>(
        &self,
        sim: SimConfig,
        load: (impl Workload + 'static, Vec<ClientSetup>),
        audit: impl FnOnce(SimReport, &[NodeView<'_>], Vec<Restart>) -> T,
        make: impl Fn(NodeId, Option<GroupId>) -> R + 'static,
    ) -> T {
        let durable = self.schedule.mode == CrashMode::Amnesia;
        let restarts = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&restarts);
        let audit = move |report, nodes: &[NodeView<'_>]| {
            audit(report, nodes, std::mem::take(&mut *lock(&restarts)))
        };
        match self.groups {
            None => {
                let hub = durable.then(|| MemHub::<NodeId>::new(self.fsync));
                let disks = hub.clone();
                let built = Mutex::new(FxHashSet::default());
                let factory = move |id: NodeId| {
                    let mut r = make(id, None);
                    if let Some(d) = &disks {
                        let mut disk = d.open(id);
                        if !lock(&built).insert(id) {
                            let back = disk.recover().expect("a memory disk recovers");
                            lock(&log).push(Restart {
                                node: id,
                                image: back.snapshot,
                                records: back.records,
                            });
                        }
                        r.attach_storage(Box::new(disk));
                    }
                    r
                };
                self.go(sim, factory, hub, NodeView::plain, load, audit)
            }
            Some(groups) => {
                let hub = durable.then(|| ShardDisks::new(self.fsync, groups));
                let disks = hub.clone();
                let spec = ShardSpec::range(self.keys, groups);
                let factory = sharded_cluster(spec, move |id: NodeId, g: GroupId| {
                    let mut r = make(id, Some(g));
                    if let Some(d) = &disks {
                        r.attach_storage(Box::new(d.open(id, g)));
                    }
                    r
                });
                self.go(sim, factory, hub, NodeView::sharded, load, audit)
            }
        }
    }

    /// The one generic body: builds the simulator, installs disks and
    /// faults, runs, and audits the survivors before the simulator is
    /// dropped (the views borrow its replicas).
    fn go<N, F, D, T>(
        &self,
        sim: SimConfig,
        factory: F,
        disks: Option<D>,
        view: for<'a> fn(&'a N) -> NodeView<'a>,
        load: (impl Workload + 'static, Vec<ClientSetup>),
        audit: impl FnOnce(SimReport, &[NodeView<'_>]) -> T,
    ) -> T
    where
        N: Replica,
        F: ReplicaFactory<R = N> + 'static,
        D: SimDisks + 'static,
    {
        let mut s = Simulator::new(sim, self.cluster.clone(), factory, load.0, load.1);
        if let Some(d) = disks {
            s.set_storage(d);
        }
        *s.faults_mut() = self.schedule.plan.clone();
        let report = s.run();
        let nodes: Vec<NodeView<'_>> = s.replicas().iter().map(view).collect();
        audit(report, &nodes)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What an amnesia restart of a node read back from its disk.
#[derive(Debug, Clone)]
pub struct Restart {
    /// The node that restarted.
    pub node: NodeId,
    /// The image it recovered from, if its disk held one.
    pub image: Option<Vec<u8>>,
    /// The WAL records after the image, in append order.
    pub records: Vec<Vec<u8>>,
}

/// What the auditors read of one consensus-group replica: the three probes
/// of the [`Replica`] trait every audit goes through.
#[derive(Debug)]
pub struct GroupView<'a> {
    /// The replica's state machine, if it exposes one.
    pub store: Option<&'a MultiVersionStore>,
    /// The membership the replica currently acts under, if it tracks one.
    pub members: Option<Vec<NodeId>>,
    /// The replica's record of shard hand-offs, if it keeps one.
    pub migration: Option<&'a MigrationTracker>,
}

/// What the auditors read of one surviving node, whatever protocol it ran.
#[derive(Debug)]
pub struct NodeView<'a> {
    /// The node's routing epoch, when it hosts a [`ShardedReplica`].
    pub routing_epoch: Option<u64>,
    /// One view per consensus group the node hosts — exactly one for a
    /// plain protocol.
    pub groups: Vec<GroupView<'a>>,
}

impl GroupView<'_> {
    fn of<R: Replica>(r: &R) -> GroupView<'_> {
        GroupView {
            store: r.store(),
            members: r.current_members(),
            migration: r.migration(),
        }
    }
}

impl NodeView<'_> {
    /// The view of a node running the plain protocol.
    pub fn plain<R: Replica>(r: &R) -> NodeView<'_> {
        NodeView {
            routing_epoch: None,
            groups: vec![GroupView::of(r)],
        }
    }

    /// The view of a node hosting one replica per group.
    pub fn sharded<R: Replica>(node: &ShardedReplica<R>) -> NodeView<'_> {
        NodeView {
            routing_epoch: Some(node.routing().epoch()),
            groups: node.group_replicas().iter().map(GroupView::of).collect(),
        }
    }
}

/// One auditor's finding.
#[derive(Debug, Clone)]
pub struct Audit {
    /// The auditor, as the digest names it.
    pub name: &'static str,
    /// How many violations it found (zero = the property held).
    pub count: u64,
    /// The first violation, rendered.
    pub witness: Option<String>,
}

impl Audit {
    fn of(name: &'static str, violations: Vec<String>) -> Self {
        Audit {
            name,
            count: violations.len() as u64,
            witness: violations.into_iter().next(),
        }
    }

    /// The auditor's digest line. The cut-over line keeps the `true`/`false`
    /// it was first pinned with; every other line is `name=count`.
    fn line(&self) -> String {
        match self.name {
            "cutover" => format!("cutover={}", self.count == 0),
            name => format!("{name}={}", self.count),
        }
    }
}

/// The judgement of one run.
#[derive(Debug)]
pub struct Verdict {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The simulator's report, history included.
    pub report: SimReport,
    /// Completions in the fault-free tail (after the heal point) — nonzero
    /// means the system recovered.
    pub tail_completed: u64,
    /// Every applicable auditor's finding, in digest order.
    pub audits: Vec<Audit>,
    /// Every node's membership view after the run (its first group's), in
    /// cluster order.
    pub members: Vec<Option<Vec<NodeId>>>,
    /// Every node's routing epoch after the run; empty unless sharded.
    pub routing_epochs: Vec<u64>,
    /// What each amnesia restart read back from its disk, in the order the
    /// nodes restarted; empty for a sharded run.
    pub restarts: Vec<Restart>,
}

impl Verdict {
    /// Runs the auditors `scenario` makes applicable over `report` and the
    /// surviving `nodes`.
    fn audit(
        scenario: &Scenario,
        report: SimReport,
        nodes: &[NodeView<'_>],
        restarts: Vec<Restart>,
    ) -> Self {
        let heal_at = scenario.schedule.heal_at();
        let ok_after_heal = report.ops.iter().filter(|o| o.ok && o.ret >= heal_at);
        let tail_completed = ok_after_heal.count() as u64;
        let members: Vec<_> = nodes.iter().map(|n| n.groups[0].members.clone()).collect();
        let routing_epochs: Vec<u64> = nodes.iter().filter_map(|n| n.routing_epoch).collect();
        let anomalies = check_linearizability(&report.ops);
        let mut audits = vec![Audit {
            name: "anomalies",
            count: anomalies.len() as u64,
            witness: anomalies.first().map(|a| format!("{a:?}")),
        }];
        if let Some(m) = &report.metrics {
            let n = m.unexplained_drops();
            audits.push(Audit {
                name: "unexplained",
                count: n,
                witness: (n > 0).then(|| format!("{n} message losses no drop cause accounts for")),
            });
        }
        let mut handed_over = None;
        match &scenario.event {
            // A majority of the target membership must report exactly the
            // target configuration. (A minority may still be catching up
            // when the window closes; the old configuration must never win.)
            Some((_, Event::Reconfig { initial, change })) => {
                let target = change.apply(initial);
                let holds = |id: &NodeId| {
                    let at = scenario.cluster.index_of(*id);
                    members[at].as_deref() == Some(target.as_slice())
                };
                let agreeing = target.iter().filter(|id| holds(id)).count();
                let what = format!("hold {}", ids(&target));
                audits.push(cut_over(agreeing, target.len(), &what));
            }
            // A majority of nodes must route at the hand-off's epoch, and
            // exactly one group must own the range afterwards.
            Some((_, Event::Migrate(spec))) => {
                let agreeing = routing_epochs.iter().filter(|&&e| e >= spec.epoch).count();
                let what = format!("route at epoch {}", spec.epoch);
                audits.push(cut_over(agreeing, nodes.len(), &what));
                audits.push(Audit::of("dual", dual_ownership(nodes, spec)));
                let orphaned = orphaned_writes(nodes, spec, &report.ops);
                audits.push(Audit::of("orphaned", orphaned));
                handed_over = Some(&spec.range);
            }
            None => {}
        }
        if let Some(g) = scenario.groups {
            let part = RangePartitioner::even(scenario.keys, g);
            let leaked = check_shard_leakage(nodes, &part, handed_over);
            audits.push(Audit::of("leakage", leaked));
        }
        let diverged = check_group_consensus(nodes).into_iter().collect();
        audits.push(Audit::of("consensus", diverged));
        Verdict {
            scenario: scenario.clone(),
            report,
            tail_completed,
            audits,
            members,
            routing_epochs,
            restarts,
        }
    }

    /// Violations the auditor called `name` found; zero also when it did
    /// not apply to this scenario.
    pub fn count(&self, name: &str) -> u64 {
        let found = self.audits.iter().find(|a| a.name == name);
        found.map_or(0, |a| a.count)
    }

    /// Whether the run passed in full: every applicable auditor found
    /// nothing, and the recorded history shows progress after healing.
    pub fn passed(&self) -> bool {
        self.passed_except("")
    }

    /// [`Verdict::passed`] with the auditor called `known` reported but not
    /// gating — for a suite whose protocol has a finding on file (DESIGN.md
    /// deviation 9) until the protocol is fixed.
    pub fn passed_except(&self, known: &str) -> bool {
        let progressed = self.tail_completed > 0 || !self.scenario.sim.record_ops;
        let clean = |a: &Audit| a.count == 0 || a.name == known;
        progressed && self.audits.iter().all(clean)
    }

    /// Fingerprint ([`digest_lines`]) of the scenario's steps and every
    /// auditor's finding. Equal digests mean the same run reached the same
    /// verdict.
    pub fn digest(&self) -> u64 {
        let lines: Vec<String> = self
            .scenario
            .steps()
            .into_iter()
            .chain(self.audits.iter().map(Audit::line))
            .collect();
        digest_lines(lines.iter().map(String::as_str))
    }
}

/// `0.0,0.1,…` — a membership as the verdict prints it.
fn ids(nodes: &[NodeId]) -> String {
    let each: Vec<String> = nodes.iter().map(NodeId::to_string).collect();
    each.join(",")
}

/// Where the suites keep the run ledger, relative to the package root
/// `cargo test` runs them from.
pub const DIGEST_LEDGER: &str = "results/verdict_digests.txt";

/// A run as the ledger keeps it: one line, who ran and then what the run
/// did, so a change that moves one event shows as a one-line diff.
pub trait Cell {
    /// The line after the section name: the fields that name the cell
    /// (`proto=` first, `seed=` among them), then the run's own, the first
    /// of which is `digest=` or `completed=`.
    fn ledger_line(&self) -> String;
}

/// A judged run: who ran, its crash mode, its verdict digest and whether
/// it passed, then its completions, its simulator events and its
/// completions after the heal.
impl Cell for Verdict {
    fn ledger_line(&self) -> String {
        let who = &self.scenario.steps()[0];
        let mode = self.scenario.schedule.mode.label();
        let (digest, passed) = (self.digest(), self.passed());
        let r = &self.report;
        let (completed, events, tail) = (r.completed, r.events_processed, self.tail_completed);
        let run = format!("completed={completed} events={events} tail={tail}");
        format!("{who} mode={mode} digest={digest:#018x} passed={passed} {run}")
    }
}

/// A fault-free run with no verdict (the LAN determinism shapes): who ran,
/// then its completions, its simulator events, its mean latency and a
/// digest of its op history.
#[derive(Debug)]
pub struct Run {
    /// `proto=… seed=…`.
    pub who: String,
    /// The simulator's report.
    pub report: SimReport,
}

impl Cell for Run {
    fn ledger_line(&self) -> String {
        let r = &self.report;
        // FNV-1a over every op record's `Debug` form, each closed by `;`,
        // in report order.
        let ops = r.ops.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, op| {
            (format!("{op:?};").bytes())
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        });
        format!(
            "{} completed={} events={} mean_ns={} ops={ops:#018x}",
            self.who, r.completed, r.events_processed, r.latency.mean.0
        )
    }
}

/// Replaces the lines of the ledger at `path` that `section` holds for the
/// suites of `cells` (lines that name a cell as one of them does, but for
/// the seed) with one line per cell, keeps the rest, and sorts the file so
/// it reads the same whichever suite wrote last. The ledger is committed: a
/// run that moves shows as a one-line diff. Suites of one test binary run
/// on parallel threads, so a write holds a process-wide lock.
pub fn record_digests<C: Cell>(path: &Path, section: &str, cells: &[C]) -> io::Result<()> {
    static LEDGER: Mutex<()> = Mutex::new(());
    let _held = lock(&LEDGER);
    let fresh: Vec<String> = cells
        .iter()
        .map(|c| format!("{section} {}", c.ledger_line()))
        .collect();
    let owned: Vec<Vec<&str>> = fresh.iter().map(|l| owner(l)).collect();
    let mine = |l: &str| l.split(' ').next() == Some(section) && owned.contains(&owner(l));
    // A ledger that does not exist yet starts empty.
    let old = fs::read_to_string(path).unwrap_or_default();
    let kept = old.lines().filter(|l| !mine(l)).map(String::from);
    let mut lines: Vec<String> = kept.chain(fresh.iter().cloned()).collect();
    lines.sort();
    fs::write(path, lines.join("\n") + "\n")
}

/// What says which suite a ledger line belongs to within its section: the
/// fields that name the cell, before the run's own, less the seed.
fn owner(line: &str) -> Vec<&str> {
    let run = |f: &&str| f.starts_with("digest=") || f.starts_with("completed=");
    let cell = line.split(' ').take_while(|f| !run(f));
    cell.filter(|f| !f.starts_with("seed=")).collect()
}

/// The cut-over auditor's finding: a violation unless `agreeing` is a
/// majority `of` the nodes that should `what`.
fn cut_over(agreeing: usize, of: usize, what: &str) -> Audit {
    let short = agreeing <= of / 2;
    let witness = short.then(|| format!("only {agreeing} of {of} nodes {what}"));
    Audit::of("cutover", witness.into_iter().collect())
}

/// What a failing test prints: who ran, the digest, each auditor's count,
/// the first witness of each that found something, the steps to replay, and
/// the survivors' views.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let steps = self.scenario.steps();
        writeln!(
            f,
            "{} digest={:#018x} passed={}",
            steps[0],
            self.digest(),
            self.passed()
        )?;
        let lines: Vec<String> = self.audits.iter().map(Audit::line).collect();
        writeln!(
            f,
            "completed={} tail_completed={} {}",
            self.report.completed,
            self.tail_completed,
            lines.join(" ")
        )?;
        if self.tail_completed == 0 && self.scenario.sim.record_ops {
            writeln!(f, "  no progress after heal")?;
        }
        for a in &self.audits {
            if let Some(w) = &a.witness {
                writeln!(f, "  {}: {w}", a.name)?;
            }
        }
        writeln!(f, "schedule:\n{}", steps[1..].join("\n"))?;
        let view = |m: &Option<Vec<NodeId>>| m.as_deref().map_or("-".into(), ids);
        let members: Vec<String> = self.members.iter().map(view).collect();
        write!(f, "members: {}", members.join(" | "))?;
        if !self.routing_epochs.is_empty() {
            write!(f, "\nrouting epochs: {:?}", self.routing_epochs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationStage, MigrationVictim};
    use crate::reconfig::ReconfigVictim;

    fn quick_sim() -> SimConfig {
        SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::millis(3_900),
            ..SimConfig::default()
        }
    }

    fn nemesis(crash_mode: CrashMode) -> Scenario {
        let cfg = NemesisConfig {
            seed: 11,
            crash_mode,
            ..Default::default()
        };
        Scenario::nemesis(&Proto::paxos(), quick_sim(), ClusterConfig::lan(5), &cfg)
    }

    #[test]
    fn nemesis_run_on_paxos_passes() {
        let v = nemesis(CrashMode::Freeze).run();
        assert!(v.passed(), "{v}");
    }

    #[test]
    fn amnesia_nemesis_on_paxos_passes() {
        let v = nemesis(CrashMode::Amnesia).run();
        assert!(v.passed(), "{v}");
    }

    fn event_cells() -> [Scenario; 2] {
        let cfg = NemesisConfig {
            clients_per_zone: 4,
            ..Default::default()
        };
        let paxos = Proto::paxos();
        [
            Scenario::reconfig(&paxos, quick_sim(), &cfg, ReconfigVictim::Leader),
            Scenario::migration(
                &paxos,
                quick_sim(),
                &cfg,
                MigrationVictim::SourceLeader,
                MigrationStage::Commit,
            ),
        ]
    }

    #[test]
    fn a_sub_schedule_of_an_event_scenario_keeps_the_event_and_the_heal() {
        for cell in event_cells() {
            let horizon = cell.sim.warmup + cell.sim.measure;
            let random = Scenario {
                schedule: generate_schedule_with_mode(
                    9,
                    &cell.cluster,
                    horizon,
                    5,
                    CrashMode::Freeze,
                ),
                ..cell
            };
            let full = random.steps();
            let sub = Scenario {
                schedule: random.schedule.only(&[1, 3]),
                ..random.clone()
            };
            // Header and event line, windows 1 and 3, the heal.
            let kept: Vec<&String> = [0, 1, 3, 5, 7].iter().map(|&i| &full[i]).collect();
            assert_eq!(sub.steps().iter().collect::<Vec<_>>(), kept);
            assert!(full[1].starts_with("reconfig") || full[1].starts_with("migrate"));
            assert!(full[7].starts_with("heal"));
            assert_eq!(sub.event.is_some(), random.event.is_some());
        }
    }

    /// The refactor's offline tripwire: the lines the four separate
    /// harnesses folded for one reconfiguration cell, one migration cell and
    /// one plain schedule still fold to the digests taken at d773b4a. Every
    /// verdict now also runs the consensus auditor, whose line comes after
    /// them: 0x5d3124f4688f9644 → 0x9f8f35d6bd662798 and
    /// 0xe97169856300b018 → 0xf3a4689ef72385dc.
    #[test]
    fn digests_are_the_ones_the_separate_harnesses_produced() {
        let before_consensus = |v: &Verdict| {
            let old = v.audits.iter().filter(|a| a.name != "consensus");
            let lines: Vec<String> = (v.scenario.steps().into_iter())
                .chain(old.map(Audit::line))
                .collect();
            digest_lines(lines.iter().map(String::as_str))
        };
        let [reconfig, migration] = event_cells().map(|cell| cell.run());
        assert_eq!(before_consensus(&reconfig), 0x5d31_24f4_688f_9644);
        assert_eq!(reconfig.digest(), 0x9f8f_35d6_bd66_2798);
        assert_eq!(before_consensus(&migration), 0xe971_6985_6300_b018);
        assert_eq!(migration.digest(), 0xf3a4_689e_f723_85dc);
        let plain = Scenario::nemesis(
            &Proto::paxos(),
            quick_sim(),
            ClusterConfig::lan(5),
            &NemesisConfig::default(),
        );
        assert_eq!(plain.schedule.digest(), 0x1149_f55a_2581_5e87);
    }
}
