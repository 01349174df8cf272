//! `paxi-perf`: the repository's one benchmark.
//!
//! ```text
//! paxi-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the result as one JSON object
//! paxi-perf --seed <n> [--seconds <s>] [--repeat <k>] [--quick]
//!     the whole suite (every workload untraced, then traced), k times
//! paxi-perf --compare <a.json> <b.json>
//!     judge two suite result files against the bounds in BENCHMARK.json
//! ```
//!
//! See `README.md` beside this crate for what each workload and metric
//! means.

// The two checkers are compiled in from paxi-bench's sources: that crate
// does not build at this commit (see README, "Stand-in dependencies"), and
// a second copy of a checker is a second definition of correct.
// (Lints on them are paxi-bench's to fix, not this crate's.)
#[allow(dead_code, clippy::all)]
#[path = "../../crates/bench/src/checker.rs"]
mod checker;
#[allow(dead_code, clippy::all)]
#[path = "../../crates/bench/src/consensus.rs"]
mod consensus;

mod affinity;
mod cluster;
mod json;
mod layers;
mod live;
mod load;
mod probes;
mod procfs;
mod quiet;
mod report;
mod simlan9;
mod spec;
mod stats;
mod trace;
mod traced;

use layers::Values;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Recorder;

/// Seconds a run measures when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` says the same.
const DEFAULT_SECONDS: f64 = 24.0;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// One-second smoke run: shorter warm-up, one set-up, fewer probe
    /// iterations. Numbers from it mean nothing.
    pub quick: bool,
    pub warmup_s: f64,
    /// Live workloads: set-ups timed besides the measured cluster's own, half
    /// before the window and half after; the least is reported.
    pub setups: usize,
    /// Where trace and result files go.
    pub out_dir: PathBuf,
    /// Parent of the per-process scratch directory (WAL files).
    pub scratch_root: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Why the run's outputs are not correct; empty when they are.
    pub failures: Vec<String>,
    /// Sample counts and other context, for the human reader (stderr).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn require(&mut self, holds: bool, otherwise: &str) {
        if !holds {
            self.failures.push(otherwise.to_string());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The run's private directory for files it must not leave behind.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(opts: &RunOpts) -> Result<Scratch, String> {
        let dir = opts.scratch_root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Deletes the directory; an error (or a directory that survives) makes
    /// the run incorrect.
    pub fn remove(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))?;
        if self.0.exists() {
            return Err(format!("{} still exists", self.0.display()));
        }
        Ok(())
    }
}

/// Writes `<out>/trace-<workload>.json`.
pub fn write_trace<M>(
    name: &str,
    opts: &RunOpts,
    nodes: &[Recorder<M>],
    clients: &[Recorder<()>],
) -> Result<(), String> {
    let mut sources: Vec<(String, &[trace::Span])> = nodes
        .iter()
        .map(|r| (format!("node {}", r.node), r.spans.as_slice()))
        .collect();
    sources.extend(
        clients
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("client {i}"), r.spans.as_slice())),
    );
    let path = opts.out_dir.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, trace::trace_json(name, &sources).to_string()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs one workload once.
pub(crate) fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    // Before any thread starts, so every thread inherits it.
    let pinned = (name != "tcp-paxos-saturated")
        .then(affinity::pin_to_one_core)
        .flatten();
    let mut out = match name {
        "tcp-paxos-unloaded" => live::tcp_paxos(name, false, opts),
        "tcp-paxos-saturated" => live::tcp_paxos(name, true, opts),
        "chan-raft-durable" => live::chan_raft_durable(name, opts),
        "sim-lan9" => simlan9::run(name, opts),
        other => Err(format!(
            "unknown workload `{other}`; known: {}",
            spec::WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }?;
    if opts.trace {
        // The probes always run pinned, whatever the workload did, so they
        // read the same on every workload's traced run.
        let _ = affinity::pin_to_one_core();
        out.metrics.extend(probes::run(opts.quick));
    }
    out.note(match pinned {
        Some(core) => format!("{name}: pinned to core {core}"),
        None => format!("{name}: not pinned"),
    });
    Ok(out)
}

struct Cli {
    workload: Option<String>,
    repeat: u32,
    compare: Option<(PathBuf, PathBuf)>,
    opts: RunOpts,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        repeat: 1,
        compare: None,
        opts: RunOpts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            warmup_s: 2.0,
            setups: 16,
            out_dir: target.join("perf-out"),
            scratch_root: target.join("perf-scratch"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.opts.seed = number(flag, value()?)?,
            "--seconds" => {
                cli.opts.seconds = number(flag, value()?)?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                cli.repeat = number(flag, value()?)?;
                if cli.repeat == 0 || cli.repeat > 100 {
                    return Err("--repeat must be in 1..=100".to_string());
                }
            }
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            "--out" => cli.opts.out_dir = value()?.into(),
            "--scratch" => cli.opts.scratch_root = value()?.into(),
            "--quick" => {
                cli.opts.quick = true;
                cli.opts.seconds = 1.0;
                cli.opts.warmup_s = 0.2;
                cli.opts.setups = 0;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("paxi-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &cli.compare {
        report::compare(a, b)
    } else if let Some(workload) = &cli.workload {
        report::single_run(workload, &cli.opts)
    } else {
        report::suite(&cli.opts, cli.repeat)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("paxi-perf: {e}");
            ExitCode::from(2)
        }
    }
}
