//! Name-drift smoke test: the whole suite for about a second per workload
//! (`--quick`), then the names it printed and wrote against the names
//! `BENCHMARK.json` declares. No timing is asserted.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(object: &Json) -> BTreeSet<String> {
    match object {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other}"),
    }
}

#[test]
fn quick_suite_prints_exactly_the_declared_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&tmp);

    let output = Command::new(env!("CARGO_BIN_EXE_paxi-perf"))
        .args(["--quick", "--seed", "3"])
        .arg("--out")
        .arg(tmp.join("out"))
        .arg("--scratch")
        .arg(tmp.join("scratch"))
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "suite failed:\n{stdout}\n{stderr}");

    // What it wrote.
    let file = std::fs::read_to_string(tmp.join("out/perf-seed3x1.json")).expect("a result file");
    let results = Json::parse(&file).expect("the result file parses");
    let run = &results.get("runs").and_then(Json::as_arr).expect("runs")[0];
    let workloads = run.get("workloads").expect("workloads");
    assert_eq!(keys(workloads), names(bench.get("workloads").unwrap()));
    for workload in keys(workloads) {
        let w = workloads.get(&workload).unwrap();
        assert_eq!(
            w.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} untraced"
        );
        assert_eq!(
            w.get("traced_correct"),
            Some(&Json::Bool(true)),
            "{workload} traced"
        );
        for list in ["end_to_end", "per_layer"] {
            assert_eq!(
                keys(w.get(list).unwrap()),
                names(bench.get(list).unwrap()),
                "{workload} {list}"
            );
        }
        // What it printed: every declared metric, by name, under the
        // workload's heading.
        assert!(
            stdout.contains(&format!("== {workload} (")),
            "{workload} heading missing"
        );
    }
    for metric in
        names(bench.get("end_to_end").unwrap()).union(&names(bench.get("per_layer").unwrap()))
    {
        let printed = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(metric.as_str()))
            .count();
        assert_eq!(
            printed, 4,
            "`{metric}` printed {printed} times, expected once per workload"
        );
    }
    // The WAL scratch directory is gone, and only the out directory is left.
    assert!(std::fs::read_dir(tmp.join("scratch")).map_or(true, |mut d| d.next().is_none()));
}
