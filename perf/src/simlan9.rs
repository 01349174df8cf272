//! `sim-lan9`: the paper's Fig 9 deployment (nine nodes, one LAN) in the
//! deterministic simulator: five fault-free protocol scenarios and one
//! leader-crash scenario, in a fixed order, repeated until the run's time is
//! used (a second pass must reproduce the first exactly). Its end-to-end
//! rates and times are virtual time, exact for a seed; how fast the machine
//! simulates is a per-layer metric.

use crate::checker::check_linearizability;
use crate::consensus::check_consensus;
use crate::layers::{cluster_layers, Values};
use crate::stats::{least, percentile};
use crate::trace::{Clock, Kit, Recorder};
use crate::traced::Traced;
use crate::{procfs, Outcome, RunOpts};
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::obs::Metric;
use paxi_core::time::Nanos;
use paxi_core::traits::{Replica, ReplicaFactory};
use paxi_model::protocols::{PaxosModel, PerfModel};
use paxi_model::Deployment;
use paxi_protocols::epaxos::EPaxos;
use paxi_protocols::paxos::{MultiPaxos, PaxosConfig, PaxosMsg};
use paxi_protocols::raft::{Raft, RaftConfig};
use paxi_shard::{sharded_cluster, ShardSpec};
use paxi_sim::client::uniform_workload;
use paxi_sim::{ClientSetup, SimConfig, SimReport, Simulator};
use std::sync::Arc;
use std::time::Instant;

const NODES: u8 = 9;
const CLIENTS: usize = 32;
const KEYS: u64 = 1000;
const LEADER: NodeId = NodeId { zone: 0, node: 0 };
/// The crash scenario freezes the leader a quarter into the measured window
/// (virtual t = 1.5 s) for a quarter of it (1 s).
fn crash_window(cfg: &SimConfig) -> (Nanos, Nanos) {
    let quarter = Nanos(cfg.measure.0 / 4);
    (cfg.warmup + quarter, quarter)
}
const TIMELINE_BUCKET: Nanos = Nanos(10_000_000);

/// The scenarios, in the order they run.
const SCENARIOS: [&str; 6] = [
    "paxos",
    "paxos_b16",
    "raft",
    "epaxos",
    "sharded_paxos_g1",
    "paxos_crash",
];
/// Measured virtual milliseconds per scenario (warm-up is an eighth of it on
/// top), sized so that a pass takes about 3 s of wall time and a run holds
/// half a dozen. EPaxos costs about five times the wall time per simulated
/// event of the others and four times the events per virtual second, hence
/// its eighth; the crash scenario needs its full 4 s for a 1 s freeze to
/// outlast the 0.5-1 s election timeout.
const MEASURE_MS: [u64; 6] = [2000, 2000, 2000, 250, 2000, 4000];

/// One scenario, run once.
struct Pass {
    report: SimReport,
    /// Wall seconds inside `Simulator::run`.
    wall_s: f64,
    diverged: bool,
    anomalies: usize,
    /// Leader's messages sent + received per reply it emitted.
    leader_msgs_per_commit: Option<f64>,
}

/// How much virtual time a pass simulates per scenario.
#[derive(Clone, Copy, PartialEq)]
enum Length {
    /// [`MEASURE_MS`] (a tenth of that under `--quick`).
    Full,
    /// One millisecond: enough for every replica's start handler and every
    /// client's first request, which is what set-up time means here.
    Startup,
}

fn sim_config(opts: &RunOpts, scenario: usize, length: Length) -> SimConfig {
    let measure = match (length, opts.quick) {
        (Length::Startup, _) => Nanos::millis(1),
        (Length::Full, true) => Nanos::millis(MEASURE_MS[scenario] / 10),
        (Length::Full, false) => Nanos::millis(MEASURE_MS[scenario]),
    };
    let warmup = Nanos(measure.0 / 8);
    let crash = SCENARIOS[scenario] == "paxos_crash";
    SimConfig {
        seed: opts.seed.wrapping_mul(31).wrapping_add(scenario as u64),
        warmup,
        measure,
        record_ops: true,
        metrics: true,
        drain: length == Length::Full,
        client_retry: crash.then(|| Nanos::millis(200)),
        timeline_bucket: crash.then_some(TIMELINE_BUCKET),
        ..SimConfig::default()
    }
}

fn drive<R, F>(cfg: SimConfig, factory: F, crash: bool) -> Pass
where
    R: Replica + 'static,
    F: ReplicaFactory<R = R> + 'static,
{
    let cluster = ClusterConfig::lan(NODES);
    let clients = ClientSetup::closed_per_zone(&cluster, CLIENTS);
    let crash = crash.then(|| crash_window(&cfg));
    let mut sim = Simulator::new(cfg, cluster, factory, uniform_workload(KEYS), clients);
    if let Some((at, duration)) = crash {
        sim.faults_mut().crash(LEADER, at, duration);
    }
    let started = Instant::now();
    let report = sim.run();
    let wall_s = started.elapsed().as_secs_f64();
    let stores: Vec<_> = sim.replicas().iter().filter_map(|r| r.store()).collect();
    let leader = report
        .metrics
        .as_ref()
        .and_then(|m| m.nodes.iter().find(|s| s.node == LEADER));
    let leader_msgs_per_commit = leader.and_then(|s| {
        let replies = s.metrics.get(Metric::Replies);
        (replies > 0).then(|| {
            (s.metrics.get(Metric::MsgsSent) + s.metrics.get(Metric::MsgsReceived)) as f64
                / replies as f64
        })
    });
    Pass {
        diverged: check_consensus(&stores).is_err(),
        anomalies: check_linearizability(&report.ops).len(),
        leader_msgs_per_commit,
        report,
        wall_s,
    }
}

/// Runs a scenario bare, or with every replica inside [`Traced`].
fn scenario<R: Replica + 'static>(
    cfg: SimConfig,
    make: impl Fn(NodeId) -> R + 'static,
    crash: bool,
    kit: Option<&Arc<Kit<R::Msg>>>,
) -> Pass {
    match kit {
        None => drive(cfg, make, crash),
        Some(kit) => {
            let kit = Arc::clone(kit);
            let traced = move |id| {
                Traced::new(
                    make(id),
                    Arc::clone(&kit.clock),
                    kit.recorder(id),
                    NODES as u64 - 1,
                )
            };
            drive(cfg, traced, crash)
        }
    }
}

/// Handler time the recorders of one traced scenario saw: `(events, ns)`.
fn handler_time<M>(recorders: &[Recorder<M>]) -> (u64, u64) {
    recorders
        .iter()
        .flat_map(|r| &r.totals)
        .filter(|((name, _), _)| name.starts_with("on_"))
        .fold((0, 0), |a, (_, t)| (a.0 + t.count, a.1 + t.total_ns))
}

/// What tracing one whole pass adds to the plain results.
#[derive(Default)]
struct TracedTotals {
    /// Events and wall ns inside handlers, over all scenarios.
    events: u64,
    handler_ns: u64,
    /// The `paxos` scenario's recorders: its per-layer numbers and the
    /// trace file come from these.
    paxos: Vec<Recorder<PaxosMsg>>,
    /// `sharded_paxos_g1`: handler ns seen inside the groups.
    sharded_inner_ns: u64,
    /// `sharded_paxos_g1`: events and handler ns seen around the
    /// multiplexer.
    sharded_outer: (u64, u64),
}

/// Runs scenario `idx`; when tracing, adds its handler time to `totals` and
/// returns its recorders.
fn traced_scenario<R: Replica + 'static>(
    opts: &RunOpts,
    idx: usize,
    make: impl Fn(NodeId) -> R + 'static,
    length: Length,
    clock: Option<&Arc<Clock>>,
    totals: &mut TracedTotals,
) -> (Pass, Vec<Recorder<R::Msg>>) {
    let kit = clock.map(|c| Kit::new(Arc::clone(c)));
    let crash = SCENARIOS[idx] == "paxos_crash" && length == Length::Full;
    let pass = scenario(sim_config(opts, idx, length), make, crash, kit.as_ref());
    let nodes = kit.map_or_else(Vec::new, |k| k.take());
    let (events, ns) = handler_time(&nodes);
    totals.events += events;
    totals.handler_ns += ns;
    (pass, nodes)
}

/// Runs all six scenarios once. With `clock`, every replica is traced.
fn run_pass(
    opts: &RunOpts,
    length: Length,
    clock: Option<&Arc<Clock>>,
) -> (Vec<Pass>, TracedTotals) {
    let cluster = ClusterConfig::lan(NODES);
    let mut totals = TracedTotals::default();
    let paxos = |batch: usize| {
        let c = cluster.clone();
        move |id| MultiPaxos::new(id, c.clone(), PaxosConfig::batched(batch))
    };
    let (c_raft, c_epaxos, c_group) = (cluster.clone(), cluster.clone(), cluster.clone());
    let raft = move |id| Raft::new(id, c_raft.clone(), RaftConfig::default());
    let epaxos = move |id| EPaxos::new(id, c_epaxos.clone());
    let group = move |id: NodeId, g| {
        let mut r = MultiPaxos::new(id, c_group.clone(), PaxosConfig::default());
        r.set_group(g);
        r
    };

    let (p_paxos, nodes) = traced_scenario(opts, 0, paxos(1), length, clock, &mut totals);
    totals.paxos = nodes;
    let (p_b16, _) = traced_scenario(opts, 1, paxos(16), length, clock, &mut totals);
    let (p_raft, _) = traced_scenario(opts, 2, raft, length, clock, &mut totals);
    let (p_epaxos, _) = traced_scenario(opts, 3, epaxos, length, clock, &mut totals);
    let p_sharded = match clock {
        None => {
            let make = sharded_cluster(ShardSpec::hash(1), group);
            traced_scenario(opts, 4, make, length, None, &mut totals).0
        }
        Some(clock) => {
            // Traced<ShardedReplica<Traced<MultiPaxos>>>: the outer
            // decorator times the multiplexer's handlers, the inner ones the
            // group's; the difference is what multiplexing costs.
            let inner = Kit::new(Arc::clone(clock));
            let ik = Arc::clone(&inner);
            let make = sharded_cluster(ShardSpec::hash(1), move |id, g| {
                Traced::new(
                    group(id, g),
                    Arc::clone(&ik.clock),
                    ik.recorder(id),
                    NODES as u64 - 1,
                )
            });
            let before = (totals.events, totals.handler_ns);
            let (pass, _) = traced_scenario(opts, 4, make, length, Some(clock), &mut totals);
            totals.sharded_outer = (totals.events - before.0, totals.handler_ns - before.1);
            totals.sharded_inner_ns = handler_time(&inner.take()).1;
            pass
        }
    };
    let (p_crash, _) = traced_scenario(opts, 5, paxos(1), length, clock, &mut totals);
    (
        vec![p_paxos, p_b16, p_raft, p_epaxos, p_sharded, p_crash],
        totals,
    )
}

/// Longest stretch without a completion after the crash, in virtual ms.
fn failover_gap_ms(report: &SimReport, cfg: &SimConfig) -> f64 {
    let crash_bucket = crash_window(cfg).0 .0 / TIMELINE_BUCKET.0;
    let end_bucket = (cfg.warmup + cfg.measure).0 / TIMELINE_BUCKET.0;
    let mut last = crash_bucket;
    let mut gap = 0;
    let live = report.timeline.iter().map(|(t, _)| t.0 / TIMELINE_BUCKET.0);
    for bucket in live.filter(|b| *b >= crash_bucket).chain([end_bucket]) {
        gap = gap.max(bucket.saturating_sub(last + 1));
        last = bucket;
    }
    gap as f64 * TIMELINE_BUCKET.as_millis_f64()
}

/// Submit-to-reply virtual times of the window's ok operations, ascending.
fn commit_latencies_ns(report: &SimReport, cfg: &SimConfig) -> Vec<u64> {
    let end = cfg.warmup + cfg.measure;
    let mut v: Vec<u64> = report
        .ops
        .iter()
        .filter(|op| op.ok && op.invoke >= cfg.warmup && op.ret <= end)
        .map(|op| (op.ret - op.invoke).0)
        .collect();
    v.sort_unstable();
    v
}

/// What must repeat exactly between passes of one seed.
fn fingerprint(passes: &[Pass]) -> Vec<(u64, u64, u64)> {
    passes
        .iter()
        .map(|p| {
            (
                p.report.completed,
                p.report.events_processed,
                p.report.latency.mean.0,
            )
        })
        .collect()
}

/// Set-up cost: all six simulators built and run for [`Length::Startup`].
fn setup_once(opts: &RunOpts) -> f64 {
    let started = Instant::now();
    std::hint::black_box(run_pass(opts, Length::Startup, None));
    started.elapsed().as_secs_f64()
}

fn check(out: &mut Outcome, passes: &[Pass]) {
    for (name, p) in SCENARIOS.iter().zip(passes) {
        out.require(!p.diverged, &format!("{name}: replica stores diverge"));
        out.require(
            p.anomalies == 0,
            &format!("{name}: {} linearizability anomalies", p.anomalies),
        );
        out.require(
            p.report.completed > 0,
            &format!("{name}: nothing completed"),
        );
        let unexplained = p
            .report
            .metrics
            .as_ref()
            .map_or(0, |m| m.unexplained_drops());
        out.require(
            unexplained == 0,
            &format!("{name}: {unexplained} unexplained drops"),
        );
    }
}

/// Attempted and failed operations of the fault-free scenarios. The crash
/// scenario's abandoned requests are what the fault is meant to cause; they
/// are reported as `sim.crash_abandoned_ops`, not as failures.
fn attempts(passes: &[Pass]) -> (u64, u64) {
    passes.iter().take(5).fold((0, 0), |a, p| {
        let failed = p.report.errors + p.report.abandoned;
        (a.0 + p.report.completed + failed, a.1 + failed)
    })
}

pub fn run(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    if opts.trace {
        return run_traced(name, opts);
    }
    // Set-ups are timed before every pass, so they sample the whole run.
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| setups.extend((0..10).map(|_| setup_once(opts)));

    let started = Instant::now();
    time_setups(&mut setups);
    let mut passes = vec![run_pass(opts, Length::Full, None).0];
    let rss_mb = procfs::peak_rss_mb();
    // As many whole passes as fit; the first always runs.
    let pass_s = started.elapsed().as_secs_f64();
    while started.elapsed().as_secs_f64() + pass_s < opts.seconds {
        time_setups(&mut setups);
        passes.push(run_pass(opts, Length::Full, None).0);
    }

    let first = &passes[0];
    let (attempted, failed) = attempts(first);
    let mut out = Outcome::new(attempted, failed);
    check(&mut out, first);
    out.require(
        passes.iter().all(|p| fingerprint(p) == fingerprint(first)),
        "a pass with the same seed gave different virtual-time results",
    );
    // The three rates and times below are virtual: what the simulated
    // cluster did, not how fast this machine simulated it (that is the
    // per-layer `sim.events_per_s`; see README, "Measured spreads").
    let paxos = &first[0].report;
    let lat = commit_latencies_ns(paxos, &sim_config(opts, 0, Length::Full));
    let answered = paxos.ops.iter().filter(|op| op.ok).count();
    let busy_us = paxos
        .node_stats
        .iter()
        .map(|n| n.busy.0 as f64 / 1e3)
        .sum::<f64>();
    out.metrics = vec![
        ("setup_s", least(&setups)),
        ("ops_per_s", Some(paxos.throughput)),
        (
            "commit_p50_us",
            percentile(&lat, 0.50).map(|ns| ns as f64 / 1e3),
        ),
        (
            "cpu_us_per_op",
            (answered > 0).then(|| busy_us / answered as f64),
        ),
        ("peak_rss_mb", rss_mb),
    ];
    out.note(format!(
        "{name}: {} passes of {} scenarios, {} set-ups; {} simulated ops per pass; commit \
         latency is virtual time of `paxos` ({} samples); whole passes took {:?} s of wall time",
        passes.len(),
        SCENARIOS.len(),
        setups.len(),
        first.iter().map(|s| s.report.completed).sum::<u64>(),
        lat.len(),
        passes
            .iter()
            .map(|p| (p.iter().map(|s| s.wall_s).sum::<f64>() * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));
    Ok(out)
}

fn run_traced(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let (plain, _) = run_pass(opts, Length::Full, None);
    let clock = Clock::new();
    clock.set_recording(true);
    let (traced, totals) = run_pass(opts, Length::Full, Some(&clock));
    clock.set_recording(false);

    let (attempted, failed) = attempts(&plain);
    let mut out = Outcome::new(attempted, failed);
    check(&mut out, &plain);
    check(&mut out, &traced);
    out.require(
        fingerprint(&plain) == fingerprint(&traced),
        "tracing changed the simulation's virtual-time results",
    );

    let wall = |p: &[Pass]| p.iter().map(|s| s.wall_s).sum::<f64>();
    let events: u64 = plain.iter().map(|p| p.report.events_processed).sum();
    let by_name = |n: &str| {
        &plain[SCENARIOS
            .iter()
            .position(|s| *s == n)
            .expect("a listed scenario")]
    };
    let paxos = by_name("paxos");
    let crash = by_name("paxos_crash");
    let model = PaxosModel::multi_paxos().max_throughput(&Deployment::lan(NODES as usize));

    // Of the cluster-run layers, the simulator exercises the handlers only:
    // messages are passed by value, nothing is encoded, stored or sent.
    let paxos_wall_ns = (traced[0].wall_s * 1e9) as u64;
    let mut m: Values = cluster_layers::<MultiPaxos>(&totals.paxos, &[], paxos_wall_ns);
    m.retain(|(k, _)| k.starts_with("protocols."));
    m.push(("sim.events_per_s", Some(events as f64 / wall(&plain))));
    m.push((
        "sim.engine_ns_per_event",
        Some((wall(&traced) * 1e9 - totals.handler_ns as f64) / totals.events.max(1) as f64),
    ));
    m.push((
        "sim.events_per_commit",
        Some(paxos.report.events_processed as f64 / paxos.report.completed.max(1) as f64),
    ));
    m.push((
        "sim.leader_utilization",
        paxos
            .report
            .node_stats
            .iter()
            .find(|n| n.id == LEADER)
            .map(|n| n.utilization),
    ));
    for (metric, scenario) in [
        ("sim.paxos.tput_ops_s", "paxos"),
        ("sim.paxos_b16.tput_ops_s", "paxos_b16"),
        ("sim.raft.tput_ops_s", "raft"),
        ("sim.epaxos.tput_ops_s", "epaxos"),
    ] {
        m.push((metric, Some(by_name(scenario).report.throughput)));
    }
    m.push((
        "sim.paxos.p50_us",
        Some(paxos.report.latency.p50.0 as f64 / 1e3),
    ));
    let lat = commit_latencies_ns(&paxos.report, &sim_config(opts, 0, Length::Full));
    m.push((
        "commit_p99_us",
        percentile(&lat, 0.99).map(|ns| ns as f64 / 1e3),
    ));
    m.push((
        "sim.paxos.leader_msgs_per_commit",
        paxos.leader_msgs_per_commit,
    ));
    m.push((
        "sim.raft.leader_msgs_per_commit",
        by_name("raft").leader_msgs_per_commit,
    ));
    m.push((
        "sim.failover_gap_ms",
        Some(failover_gap_ms(
            &crash.report,
            &sim_config(opts, 5, Length::Full),
        )),
    ));
    m.push((
        "sim.crash_abandoned_ops",
        Some((crash.report.errors + crash.report.abandoned) as f64),
    ));
    m.push(("model.paxos_lan9.max_tput_ops_s", Some(model)));
    m.push((
        "model.vs_sim_tput_ratio",
        (model > 0.0).then(|| paxos.report.throughput / model),
    ));
    m.push((
        "shard.mux_ns_per_event",
        (totals.sharded_outer.0 > 0).then(|| {
            totals
                .sharded_outer
                .1
                .saturating_sub(totals.sharded_inner_ns) as f64
                / totals.sharded_outer.0 as f64
        }),
    ));
    m.push((
        "trace.overhead_pct",
        Some((wall(&traced) - wall(&plain)) / wall(&plain) * 100.0),
    ));
    m.push((
        "failed_ops_share",
        Some(failed as f64 / attempted.max(1) as f64),
    ));
    out.metrics = m;
    out.note(format!(
        "{name} traced: plain pass {:.2} s, traced pass {:.2} s, {} events, {} handler events timed",
        wall(&plain),
        wall(&traced),
        events,
        totals.events,
    ));
    crate::write_trace(name, opts, &totals.paxos, &[])?;
    Ok(out)
}
