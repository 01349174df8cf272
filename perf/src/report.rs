//! What the benchmark prints and writes: the one-line result of a run, the
//! suite's tables and result file, `--repeat` summaries and `--compare`
//! verdicts.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{Outcome, RunOpts};
use std::path::Path;
use std::process::{Command, Stdio};

/// The declared metrics of one mode with the values a run produced. An
/// end-to-end metric must be present and non-zero; a per-layer metric that
/// does not apply reads 0. A value under an undeclared name is a failure:
/// names are the benchmark's interface.
fn declared_values(out: &mut Outcome, trace: bool) -> Vec<(MetricSpec, f64)> {
    let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &out.metrics {
        if !specs.iter().any(|s| s.name == *name) {
            out.failures
                .push(format!("metric `{name}` is not declared for this mode"));
        }
    }
    let mut rows = Vec::new();
    for spec in specs {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(name, _)| *name == spec.name)
            .and_then(|(_, v)| *v)
            .filter(|v| v.is_finite());
        if !trace && value.is_none_or(|v| v == 0.0) {
            out.failures
                .push(format!("end-to-end metric `{}` has no value", spec.name));
        }
        rows.push((*spec, value.unwrap_or(0.0)));
    }
    rows
}

/// Runs one workload and prints its result as the last line of stdout.
/// `Ok(false)`: it ran, and its outputs were not correct.
pub fn single_run(workload: &str, opts: &RunOpts) -> Result<bool, String> {
    let mut out = crate::run_workload(workload, opts)?;
    let rows = declared_values(&mut out, opts.trace);
    for note in &out.notes {
        eprintln!("{note}");
    }
    for failure in &out.failures {
        eprintln!("INCORRECT: {failure}");
    }
    let metrics = Json::obj(rows.iter().map(|(spec, value)| {
        (
            spec.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(spec.unit))]),
        )
    }));
    let correct = out.failures.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(out.attempted.max(1) as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// Runs `single_run` in a fresh process (so peak memory and thread counts
/// do not leak between workloads) and parses its result line.
fn run_child(workload: &str, opts: &RunOpts, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    } else {
        cmd.args(["--seconds", &opts.seconds.to_string()]);
    }
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--out")
        .arg(&opts.out_dir)
        .arg("--scratch")
        .arg(&opts.scratch_root);
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "the {workload} run printed no result (exit status {})",
            output.status
        )
    })?;
    Json::parse(line).map_err(|e| format!("the {workload} run's result line does not parse: {e}"))
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn print_table(workload: &str, mode: &str, specs: &[MetricSpec], result: &Json) {
    println!("\n== {workload} ({mode}) ==");
    for spec in specs {
        match value_of(result, spec.name) {
            Some(v) => println!("  {:<42} {:>16.4} {}", spec.name, v, spec.unit),
            None => println!("  {:<42} {:>16} {}", spec.name, "-", spec.unit),
        }
    }
}

/// One pass over every workload: untraced, then traced.
fn run_suite_once(opts: &RunOpts, seed: u64) -> Result<(Json, bool), String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let untraced = run_child(name, opts, seed, false)?;
        print_table(name, "end to end, untraced", &END_TO_END, &untraced);
        let traced = run_child(name, opts, seed, true)?;
        print_table(name, "per layer, traced", &PER_LAYER, &traced);
        for result in [&untraced, &traced] {
            correct &= result.get("correct") == Some(&Json::Bool(true));
        }
        let field = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
        workloads.push((
            name,
            Json::obj([
                ("correct", field(&untraced, "correct")),
                ("traced_correct", field(&traced, "correct")),
                ("attempted", field(&untraced, "attempted")),
                ("failed", field(&untraced, "failed")),
                ("end_to_end", field(&untraced, "metrics")),
                ("per_layer", field(&traced, "metrics")),
            ]),
        ));
    }
    Ok((
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads)),
        ]),
        correct,
    ))
}

/// Values of one end-to-end metric on one workload across a file's runs.
fn series(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn print_summary(runs: &[Json]) {
    println!("\n== run-to-run agreement over {} runs ==", runs.len());
    println!(
        "  {:<22} {:<16} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for (workload, _) in WORKLOADS {
        for spec in END_TO_END {
            let v = series(runs, workload, spec.name);
            let (Some(med), Some((q1, q3))) = (median(&v), quartiles(&v)) else {
                continue;
            };
            println!(
                "  {:<22} {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%",
                workload,
                spec.name,
                med,
                q1,
                q3,
                spread(&v).unwrap_or(f64::NAN) * 100.0
            );
        }
    }
}

/// The whole suite, `repeat` times with consecutive seeds; writes
/// `<out>/perf-seed<seed>x<repeat>.json`.
pub fn suite(opts: &RunOpts, repeat: u32) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut correct = true;
    for i in 0..repeat {
        let seed = opts.seed.wrapping_add(i as u64);
        println!("\n#### suite run {} of {repeat}, seed {seed} ####", i + 1);
        let (run, ok) = run_suite_once(opts, seed)?;
        correct &= ok;
        runs.push(run);
    }
    if repeat > 1 {
        print_summary(&runs);
    }
    let path = opts
        .out_dir
        .join(format!("perf-seed{}x{repeat}.json", opts.seed));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, Json::obj([("runs", Json::Arr(runs))]).to_string()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    if !correct {
        println!("AT LEAST ONE RUN WAS NOT CORRECT (see INCORRECT lines above)");
    }
    Ok(correct)
}

/// `BENCHMARK.json`: in the working directory (a checkout's root), else
/// beside the sources this binary was built from.
fn load_benchmark_json() -> Result<Json, String> {
    let built_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = [Path::new("BENCHMARK.json"), &built_from]
        .into_iter()
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in the working directory")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = file.get("runs").and_then(Json::as_arr).ok_or_else(|| {
        format!(
            "{}: no `runs` array; not a paxi-perf result file",
            path.display()
        )
    })?;
    Ok(runs.to_vec())
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    WithinBound,
    Regression,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so the comparison cannot tell.
    Unresolved,
}

/// `worse_by`: the share of `a`'s median by which `b`'s is worse (negative
/// when it is better).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<(f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let widest = [a, b].into_iter().filter_map(spread).fold(0.0, f64::max);
    let verdict = if widest > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    };
    Some((worse_by, verdict))
}

/// Judges result file `b` (the change) against `a` (the parent) with the
/// bounds `BENCHMARK.json` fixes. `Ok(false)` when anything regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bench = load_benchmark_json()?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "  {:<22} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound"
    );
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        for spec in END_TO_END {
            let bound = bench
                .get("end_to_end")
                .and_then(Json::as_arr)
                .and_then(|list| {
                    list.iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some(spec.name))
                })
                .and_then(|m| m.get("bound")?.as_f64())
                .ok_or_else(|| format!("BENCHMARK.json fixes no bound for `{}`", spec.name))?;
            let (va, vb) = (
                series(&runs_a, workload, spec.name),
                series(&runs_b, workload, spec.name),
            );
            let Some((worse_by, verdict)) = judge(&va, &vb, spec.better, bound) else {
                println!(
                    "  {workload:<22} {:<16} missing in one of the files",
                    spec.name
                );
                continue;
            };
            regressed |= verdict == Verdict::Regression;
            println!(
                "  {:<22} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                workload,
                spec.name,
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::WithinBound => "within bound",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                }
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +3% is within a 5% bound, +8% is not.
        let (w, v) = judge(&steady, &[103.0; 5], Better::Lower, 0.05).unwrap();
        assert!((w - 0.03).abs() < 1e-9);
        assert_eq!(v, Verdict::WithinBound);
        assert_eq!(
            judge(&steady, &[108.0; 5], Better::Lower, 0.05).unwrap().1,
            Verdict::Regression
        );
        // An improvement is never a regression.
        assert_eq!(
            judge(&steady, &[50.0; 5], Better::Lower, 0.05).unwrap().1,
            Verdict::WithinBound
        );
        // Higher is better: a drop is worse.
        assert_eq!(
            judge(&steady, &[90.0; 5], Better::Higher, 0.05).unwrap().1,
            Verdict::Regression
        );
        assert_eq!(
            judge(&steady, &[110.0; 5], Better::Higher, 0.05).unwrap().1,
            Verdict::WithinBound
        );
        // Runs that disagree among themselves by more than the bound.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&noisy, &[100.0; 5], Better::Lower, 0.05).unwrap().1,
            Verdict::Unresolved
        );
        // A single run per side has no spread to speak of.
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.05).unwrap().1,
            Verdict::Regression
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.05), None);
    }

    #[test]
    fn an_undeclared_or_missing_metric_makes_the_run_incorrect() {
        let mut out = Outcome::new(10, 0);
        out.metrics = END_TO_END.iter().map(|s| (s.name, Some(1.5))).collect();
        assert_eq!(declared_values(&mut out, false).len(), END_TO_END.len());
        assert!(out.failures.is_empty());

        out.metrics.push(("made_up_metric", Some(1.0)));
        declared_values(&mut out, false);
        assert_eq!(out.failures.len(), 1);

        let mut out = Outcome::new(10, 0);
        out.metrics = vec![("setup_s", Some(0.0)), ("ops_per_s", None)];
        declared_values(&mut out, false);
        assert_eq!(out.failures.len(), END_TO_END.len());

        // Per-layer metrics that do not apply read 0 and are no failure.
        let mut out = Outcome::new(10, 0);
        let rows = declared_values(&mut out, true);
        assert!(out.failures.is_empty());
        assert!(rows.iter().all(|(_, v)| *v == 0.0));
        assert_eq!(rows.len(), PER_LAYER.len());
    }
}
