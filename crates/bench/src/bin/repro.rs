//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro all [--quick] [--metrics]    run every experiment
//! repro <id> [--quick] [--metrics]   run one experiment (fig3, table1, fig4,
//!                                    fig7, fig8, fig9, fig10, fig11, fig12,
//!                                    fig13, table3, formulas, fig14,
//!                                    ablation, batching, sharding, crossval,
//!                                    availability, durability, reactor)
//! repro list                         list experiment ids
//! ```
//!
//! Tables print to stdout and are written as CSV under `results/`. With
//! `--metrics`, each experimental figure also runs a short metrics-enabled
//! probe and writes its per-node observability snapshot as
//! `results/metrics_<id>.json`; the process exits nonzero if any probe
//! reports unexplained drops (losses outside the drop-cause ledger).

use paxi_bench::figures;
use std::path::Path;

/// Prints an experiment's tables and writes their CSVs. With `metrics` set,
/// also writes the figure's observability snapshot and returns its
/// unexplained-drop count (zero when the figure has no probe).
fn emit(
    name: &str,
    tables: &[paxi_bench::Table],
    results: &Path,
    metrics: bool,
    quick: bool,
) -> u64 {
    for t in tables {
        println!("{}", t.render());
        match t.write_csv(results) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(e) => eprintln!("  !! could not write CSV: {e}"),
        }
    }
    if !metrics {
        return 0;
    }
    let Some(side) = figures::metrics::snapshot(name, quick) else {
        return 0;
    };
    let _ = std::fs::create_dir_all(results);
    let path = results.join(&side.file);
    let n = side.unexplained_drops;
    match std::fs::write(&path, &side.json) {
        Ok(()) => println!("  -> {} (unexplained drops: {n})\n", path.display()),
        Err(e) => eprintln!("  !! could not write {}: {e}", path.display()),
    }
    if n > 0 {
        eprintln!("  !! {name}: {n} unexplained drops — silent-loss accounting gap");
    }
    side.unexplained_drops
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let results = Path::new("results");
    let mut unexplained = 0u64;

    match target {
        "list" => {
            for (id, _) in figures::EXPERIMENTS {
                println!("{id}");
            }
        }
        "all" => {
            for (name, tables) in figures::all(quick) {
                println!("### {name}");
                unexplained += emit(name, &tables, results, metrics, quick);
            }
        }
        id => match figures::by_name(id, quick) {
            Some(tables) => unexplained += emit(id, &tables, results, metrics, quick),
            None => {
                eprintln!("unknown experiment '{id}'; try: repro list");
                std::process::exit(2);
            }
        },
    }
    if unexplained > 0 {
        eprintln!("!! {unexplained} unexplained drops across metrics probes");
        std::process::exit(1);
    }
}
