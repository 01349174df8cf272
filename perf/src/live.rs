//! The three wall-clock workloads: a real cluster in this process, closed-
//! loop clients on their own threads, process counters read around the
//! measured window.

use crate::checker::check_linearizability;
use crate::cluster::{Cluster, Drops};
use crate::layers::{cluster_layers, Values};
use crate::load::{run_client, ClientStats, Link, LoadSpec, RunState, SLICE_NS, STOP};
use crate::quiet::{self, Quiet};
use crate::stats::{highest_supported_percentile, least, percentile};
use crate::trace::{Clock, Kit, Recorder};
use crate::traced::{TimedStorage, Traced};
use crate::{procfs, Outcome, RunOpts};
use paxi_core::command::Command;
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::traits::Replica;
use paxi_protocols::paxos::{MultiPaxos, PaxosConfig};
use paxi_protocols::raft::{Raft, RaftConfig};
use paxi_storage::{FileStorage, FsyncPolicy, Storage};
use paxi_transport::{InProcCluster, TcpCluster};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes per live cluster.
const NODES: u8 = 3;
/// Table 3's key space.
const KEYS: u64 = 1000;
/// Every client attaches to the node that leads at start-up, so a commit's
/// blocking chain has no forwarding hop.
const LEADER: NodeId = NodeId { zone: 0, node: 0 };

/// How one live workload differs from the others.
struct LiveSpec {
    load: LoadSpec,
    /// Client threads, one connection each; never more than the machine has
    /// cores, or the generator measures its own scheduling.
    threads: usize,
    /// Replies (warm-up included) after which peak memory is sampled: about
    /// a quarter of what a run on the reference machine completes, so a
    /// machine several times slower still gets there (see README).
    rss_at: u64,
}

/// Two client threads where the machine has two cores (the sandbox does).
fn two_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Process counters whose deltas over the window become metrics.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cpu_s: Option<f64>,
    io_threads_cpu_s: Option<f64>,
    lo: Option<procfs::Loopback>,
    ctx: Option<u64>,
}

impl Counters {
    fn read() -> Self {
        Counters {
            cpu_s: procfs::cpu_seconds(),
            io_threads_cpu_s: procfs::thread_cpu_seconds("paxi-tcp"),
            lo: procfs::loopback(),
            ctx: procfs::ctx_switches(),
        }
    }
}

/// What one measured window produced.
struct Window {
    seconds: f64,
    clients: Vec<ClientStats>,
    /// Process CPU seconds spent in each whole slice of the window.
    slice_cpu_s: Vec<Option<f64>>,
    before: Counters,
    after: Counters,
    rss_mb: Option<f64>,
    drops: Drops,
    conns_hwm: Option<u64>,
    client_spans: Vec<Recorder<()>>,
}

/// Launches a cluster, connects the clients and waits until each has had
/// one successful reply: the set-up a user waits for.
fn bring_up<C: Cluster>(
    launch: Launch<'_, C>,
    threads: usize,
) -> Result<(C, Vec<C::Link>, f64), String> {
    let started = Instant::now();
    let cluster = launch().map_err(|e| format!("launch failed: {e}"))?;
    let mut links = Vec::new();
    for i in 0..threads {
        let mut link = cluster
            .link(LEADER)
            .map_err(|e| format!("client connect failed: {e}"))?;
        // A key outside the workload's key space, so set-up leaves no trace
        // in the checked history. The first attempts may race the election.
        let key = KEYS + i as u64;
        let ready = (0..20).any(|_| {
            link.submit(Command::put(key, vec![0; 12]))
                .and_then(|id| link.wait(id))
                .is_some_and(|r| r.ok)
        });
        if !ready {
            return Err("no successful reply during set-up".to_string());
        }
        links.push(link);
    }
    Ok((cluster, links, started.elapsed().as_secs_f64()))
}

/// Times `n` set-ups whose clusters are stopped again at once.
fn extra_setups<C: Cluster>(
    launch: Launch<'_, C>,
    threads: usize,
    n: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        let (cluster, links, secs) = bring_up(launch, threads)?;
        drop(links);
        cluster.stop();
        setups.push(secs);
    }
    Ok(())
}

/// Warm-up, then the measured window, on an already running cluster.
fn measure<C: Cluster>(
    cluster: C,
    links: Vec<C::Link>,
    spec: &LiveSpec,
    opts: &RunOpts,
    seconds: f64,
    clock: &Arc<Clock>,
    traced: bool,
) -> Window {
    let state = RunState::new(spec.rss_at);
    let span_sinks: Vec<_> = links
        .iter()
        .map(|_| traced.then(|| Recorder::<()>::shared(LEADER)))
        .collect();
    let mut slice_cpu_s: Vec<Option<f64>> = Vec::new();
    let (clients, before, after, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .zip(&span_sinks)
            .enumerate()
            .map(|(i, (link, sink))| {
                let (state, clock, load) = (&state, &**clock, spec.load);
                let seed = opts
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                scope.spawn(move || run_client(link, load, seed, state, clock, sink.as_ref()))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(opts.warmup_s));
        let before = Counters::read();
        let started = Instant::now();
        clock.set_recording(traced);
        let start_ns = clock.now_ns();
        state.start_measuring(start_ns);
        // Wake at every slice boundary to read the process's CPU clock.
        let mut cpu_marks = vec![before.cpu_s];
        for slice in 1..=((seconds * 1e9) as u64 / SLICE_NS).max(1) {
            let boundary_ns = start_ns + slice * SLICE_NS;
            std::thread::sleep(Duration::from_nanos(
                boundary_ns.saturating_sub(clock.now_ns()),
            ));
            cpu_marks.push(procfs::cpu_seconds());
        }
        state.set_phase(STOP);
        clock.set_recording(false);
        let elapsed = started.elapsed().as_secs_f64();
        let after = Counters::read();
        slice_cpu_s = cpu_marks.windows(2).map(|w| Some(w[1]? - w[0]?)).collect();
        let clients: Vec<ClientStats> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (clients, before, after, elapsed)
    });
    let rss_mb = state.rss_sample_mb().or_else(procfs::peak_rss_mb);
    let drops = cluster.drops();
    let conns_hwm = cluster.conns_hwm();
    cluster.stop();
    let client_spans = span_sinks
        .into_iter()
        .flatten()
        .map(|s| std::mem::replace(&mut *crate::trace::lock(&s), Recorder::new(LEADER)))
        .collect();
    Window {
        seconds: elapsed,
        clients,
        slice_cpu_s,
        before,
        after,
        rss_mb,
        drops,
        conns_hwm,
        client_spans,
    }
}

struct Summary {
    attempted: u64,
    ok: u64,
    quiet: Quiet,
    /// Submit-to-reply times of every ok reply of the window, ascending.
    latencies_ns: Vec<u32>,
    anomalies: usize,
    history_ops: usize,
}

fn summarize(w: &mut Window) -> Summary {
    let samples: Vec<_> = w
        .clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.samples))
        .collect();
    let history: Vec<_> = w
        .clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.history))
        .collect();
    let mut latencies_ns: Vec<u32> = samples.iter().map(|s| s.latency_ns).collect();
    latencies_ns.sort_unstable();
    Summary {
        latencies_ns,
        attempted: w.clients.iter().map(|c| c.attempted).sum(),
        ok: w.clients.iter().map(|c| c.ok).sum(),
        quiet: quiet::analyze(&samples, &w.slice_cpu_s),
        anomalies: check_linearizability(&history).len(),
        history_ops: history.len(),
    }
}

fn delta(after: Option<f64>, before: Option<f64>) -> Option<f64> {
    Some(after? - before?)
}

/// An outcome with the checks every live window must pass.
fn checked_outcome(s: &Summary, drops: Drops) -> Outcome {
    let mut out = Outcome::new(s.attempted, s.attempted - s.ok);
    out.require(s.ok > 0, "no successful reply in the measured window");
    out.require(
        s.anomalies == 0,
        &format!("{} linearizability anomalies", s.anomalies),
    );
    out.require(
        drops.unexplained == 0,
        &format!("{} unexplained drops", drops.unexplained),
    );
    out
}

/// The untraced run: several set-ups, one measured window, the end-to-end
/// metrics.
fn end_to_end<C: Cluster>(
    name: &str,
    spec: &LiveSpec,
    opts: &RunOpts,
    launch: Launch<'_, C>,
) -> Result<Outcome, String> {
    // Half of the extra set-ups run before the measured window and half
    // after it, so they sample the machine over the whole run.
    let mut setups = Vec::new();
    extra_setups(launch, spec.threads, opts.setups / 2, &mut setups)?;
    let (cluster, links, secs) = bring_up(launch, spec.threads)?;
    setups.push(secs);
    let clock = Clock::new();
    let mut w = measure(cluster, links, spec, opts, opts.seconds, &clock, false);
    extra_setups(
        launch,
        spec.threads,
        opts.setups - opts.setups / 2,
        &mut setups,
    )?;
    let s = summarize(&mut w);

    let mut out = checked_outcome(&s, w.drops);
    let q = &s.quiet;
    let p = |p| percentile(&q.latencies_ns, p).map(|ns| ns as f64 / 1e3);
    out.metrics = vec![
        ("setup_s", least(&setups)),
        ("ops_per_s", Some(q.ops_per_s)),
        ("commit_p50_us", p(0.50)),
        (
            "cpu_us_per_op",
            q.cpu_s.filter(|_| q.ok > 0).map(|c| c * 1e6 / q.ok as f64),
        ),
        ("peak_rss_mb", w.rss_mb),
    ];
    let supported = highest_supported_percentile(q.latencies_ns.len());
    out.note(format!(
        "{name}: {} ok of {} attempted in {:.2} s ({:.0}/s over the whole window); the quiet \
         {} of {} slices hold {} latency samples, which support up to p{}; p99 = {} us, \
         p99.9 = {} us (neither is gated: see README on measured spreads); \
         set-ups {:?} s; {} history ops checked; {} drops, {} unexplained",
        s.ok,
        s.attempted,
        w.seconds,
        s.ok as f64 / w.seconds,
        q.kept,
        q.slices,
        q.latencies_ns.len(),
        supported.map_or("-".to_string(), |q| format!("{}", q * 100.0)),
        p(0.99).map_or("-".to_string(), |v| format!("{v:.1}")),
        p(0.999).map_or("-".to_string(), |v| format!("{v:.1}")),
        setups,
        s.history_ops,
        w.drops.total,
        w.drops.unexplained,
    ));
    Ok(out)
}

/// Starts a cluster; a traced one builds its decorators from the kit.
type Launch<'a, C> = &'a mut dyn FnMut() -> std::io::Result<C>;
type TracedLaunch<'a, C, M> = &'a mut dyn FnMut(&Arc<Kit<M>>) -> std::io::Result<C>;

/// The traced pass: an untraced half for the overhead figure, then a traced
/// half whose recorders become the per-layer metrics and the trace file.
fn per_layer<P, T, R>(
    name: &str,
    spec: &LiveSpec,
    opts: &RunOpts,
    launch_plain: Launch<'_, P>,
    launch_traced: TracedLaunch<'_, T, R::Msg>,
) -> Result<Outcome, String>
where
    P: Cluster,
    T: Cluster,
    R: Replica,
    R::Msg: Serialize + DeserializeOwned,
{
    let half = opts.seconds / 2.0;
    let clock = Clock::new();
    let (cluster, links, _) = bring_up(launch_plain, spec.threads)?;
    let mut plain = measure(cluster, links, spec, opts, half, &clock, false);
    let plain_sum = summarize(&mut plain);

    let kit = Kit::new(Arc::clone(&clock));
    let (cluster, links, _) = bring_up(&mut || launch_traced(&kit), spec.threads)?;
    let mut w = measure(cluster, links, spec, opts, half, &clock, true);
    let s = summarize(&mut w);
    let nodes = kit.take();

    let mut out = checked_outcome(&s, w.drops);
    out.failures
        .extend(checked_outcome(&plain_sum, plain.drops).failures);

    let mut m: Values = cluster_layers::<R>(&nodes, &w.client_spans, (w.seconds * 1e9) as u64);
    let per_op = |after: Option<u64>, before: Option<u64>| {
        Some((after? - before?) as f64 / s.ok.max(1) as f64)
    };
    let lo = |pick: fn(&procfs::Loopback) -> u64| {
        per_op(
            w.after.lo.as_ref().map(pick),
            w.before.lo.as_ref().map(pick),
        )
    };
    m.push(("transport.packets_per_op", lo(|lo| lo.packets)));
    m.push(("transport.wire_bytes_per_op", lo(|lo| lo.bytes)));
    m.push((
        "transport.ctx_switches_per_op",
        per_op(w.after.ctx, w.before.ctx),
    ));
    let cpu = delta(w.after.cpu_s, w.before.cpu_s);
    let io_threads = delta(w.after.io_threads_cpu_s, w.before.io_threads_cpu_s);
    m.push((
        "transport.io_threads_cpu_share",
        io_threads
            .zip(cpu)
            .filter(|(_, c)| *c > 0.0)
            .map(|(r, c)| r / c),
    ));
    m.push(("transport.drops_total", Some(w.drops.total as f64)));
    m.push((
        "transport.drops_unexplained",
        Some(w.drops.unexplained as f64),
    ));
    m.push(("transport.conns_hwm", w.conns_hwm.map(|n| n as f64)));
    let (plain_rate, traced_rate) = (plain_sum.ok as f64 / plain.seconds, s.ok as f64 / w.seconds);
    m.push((
        "trace.overhead_pct",
        (plain_rate > 0.0).then(|| (plain_rate - traced_rate) / plain_rate * 100.0),
    ));
    m.push((
        "failed_ops_share",
        Some((s.attempted - s.ok) as f64 / s.attempted.max(1) as f64),
    ));
    // The tail, over every reply of the untraced half: it is not gated, so
    // it need not be steady, and the whole window has the samples p99 needs
    // (ten beyond it) even when the machine is slow.
    let tail = &plain_sum.latencies_ns;
    let supported = highest_supported_percentile(tail.len()).is_some_and(|q| q >= 0.99);
    m.push((
        "commit_p99_us",
        percentile(tail, 0.99)
            .filter(|_| supported)
            .map(|ns| ns as f64 / 1e3),
    ));
    out.metrics = m;
    out.note(format!(
        "{name} traced: {} ok in {:.2} s ({traced_rate:.0}/s) vs {plain_rate:.0}/s untraced; \
         {} node recorders, {} spans retained",
        s.ok,
        w.seconds,
        nodes.len(),
        nodes.iter().map(|r| r.spans.len()).sum::<usize>(),
    ));
    crate::write_trace(name, opts, &nodes, &w.client_spans)?;
    Ok(out)
}

fn paxos_spec(threads: usize, window: usize, rss_at: u64) -> LiveSpec {
    let load = LoadSpec {
        keys: KEYS,
        write_ratio: 0.5,
        value_len: 16,
        window,
    };
    LiveSpec {
        load,
        threads,
        rss_at,
    }
}

/// `tcp-paxos-unloaded` (batch 1, one request at a time per client) and
/// `tcp-paxos-saturated` (batch 16, window 32): MultiPaxos over the threaded
/// TCP runtime on localhost, no WAL. (Not the reactor runtime: at this commit
/// its wake pipe loses wake-ups, see README "Findings".)
pub fn tcp_paxos(name: &str, saturated: bool, opts: &RunOpts) -> Result<Outcome, String> {
    let spec = if saturated {
        paxos_spec(two_threads(), 32, 500_000)
    } else {
        paxos_spec(1, 1, 40_000)
    };
    let cfg = if saturated {
        PaxosConfig::batched(16)
    } else {
        PaxosConfig::default()
    };
    let cluster = ClusterConfig::lan(NODES);
    let mut plain = || {
        let (c, cfg) = (cluster.clone(), cfg.clone());
        TcpCluster::launch(cluster.clone(), move |id| {
            MultiPaxos::new(id, c.clone(), cfg.clone())
        })
    };
    if !opts.trace {
        return end_to_end(name, &spec, opts, &mut plain);
    }
    let mut traced = |kit: &Arc<Kit<_>>| {
        let (c, cfg, kit) = (cluster.clone(), cfg.clone(), Arc::clone(kit));
        TcpCluster::launch(cluster.clone(), move |id| {
            Traced::new(
                MultiPaxos::new(id, c.clone(), cfg.clone()),
                Arc::clone(&kit.clock),
                kit.recorder(id),
                NODES as u64 - 1,
            )
        })
    };
    per_layer::<_, _, MultiPaxos>(name, &spec, opts, &mut plain, &mut traced)
}

/// A fresh directory per launch under the run's scratch root.
fn next_wal_root(scratch: &Path, launches: &mut u32) -> PathBuf {
    *launches += 1;
    scratch.join(format!("launch-{launches}"))
}

fn open_wal(root: &Path, id: NodeId, policy: FsyncPolicy) -> Box<dyn Storage> {
    let dir = root.join(format!("node-{}-{}", id.zone, id.node));
    Box::new(FileStorage::open(dir, policy).expect("the scratch directory is writable"))
}

/// `chan-raft-durable`: Raft with batch 16 over in-process channels, every
/// replica on a file WAL that syncs each append; blocking clients, all
/// writes, 256-byte values.
pub fn chan_raft_durable(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let spec = LiveSpec {
        load: LoadSpec {
            keys: KEYS,
            write_ratio: 1.0,
            value_len: 256,
            window: 1,
        },
        threads: two_threads(),
        rss_at: 10_000,
    };
    let cluster = ClusterConfig::lan(NODES);
    let scratch = crate::Scratch::create(opts)?;
    let mut launches = 0u32;
    let mut plain = || {
        let root = next_wal_root(scratch.path(), &mut launches);
        let c = cluster.clone();
        Ok(InProcCluster::launch(cluster.clone(), move |id| {
            let mut r = Raft::new(id, c.clone(), RaftConfig::batched(16));
            r.attach_storage(open_wal(&root, id, FsyncPolicy::Always));
            r
        }))
    };
    let mut out = if !opts.trace {
        end_to_end(name, &spec, opts, &mut plain)?
    } else {
        let mut traced_launches = 100u32;
        let mut traced = |kit: &Arc<Kit<_>>| {
            let root = next_wal_root(scratch.path(), &mut traced_launches);
            let (c, kit) = (cluster.clone(), Arc::clone(kit));
            Ok(InProcCluster::launch(cluster.clone(), move |id| {
                let rec = kit.recorder(id);
                let mut r = Raft::new(id, c.clone(), RaftConfig::batched(16));
                r.attach_storage(Box::new(TimedStorage::new(
                    open_wal(&root, id, FsyncPolicy::Never),
                    Arc::clone(&kit.clock),
                    Arc::clone(&rec),
                )));
                Traced::new(r, Arc::clone(&kit.clock), rec, NODES as u64 - 1)
            }))
        };
        let mut out = per_layer::<_, _, Raft>(name, &spec, opts, &mut plain, &mut traced)?;
        out.metrics.push((
            "storage.recover_ms_per_10k",
            recovery_probe(&scratch, opts)?,
        ));
        out
    };
    if let Err(e) = scratch.remove() {
        out.require(false, &format!("scratch directory left behind: {e}"));
    }
    Ok(out)
}

/// Recovery cost: a fresh WAL of 10 000 records of 512 bytes (about a
/// two-entry batch of the durable workload's values), written without
/// syncing, then recovered. Milliseconds per 10 000 records.
fn recovery_probe(scratch: &crate::Scratch, opts: &RunOpts) -> Result<Option<f64>, String> {
    let records = if opts.quick { 100 } else { 10_000 };
    let root = scratch.path().join("recovery-probe");
    let mut wal = open_wal(&root, LEADER, FsyncPolicy::Never);
    let payload = [0x5A; 512];
    (0..records)
        .try_for_each(|_| wal.append(&payload))
        .and_then(|()| wal.sync())
        .map_err(|e| format!("writing the recovery probe's WAL: {e}"))?;
    drop(wal);
    let mut wal = open_wal(&root, LEADER, FsyncPolicy::Never);
    let started = Instant::now();
    let recovered = wal
        .recover()
        .map_err(|e| format!("recovering the probe's WAL: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if recovered.records.len() != records {
        return Err(format!(
            "the recovery probe wrote {records} records and got {} back",
            recovered.records.len()
        ));
    }
    Ok(Some(ms * 1e4 / records as f64))
}
