//! Durability tax: what persist-before-ack costs under each fsync policy.
//!
//! The paper's evaluation runs every protocol with volatile state — crashed
//! nodes freeze and thaw with memory intact — which flatters latency: a real
//! deployment must make the acceptor promise durable before acknowledging
//! it. This experiment quantifies the gap for MultiPaxos on a 5-node LAN:
//! the same workload runs with no storage attached (the seed behavior),
//! then with a WAL under each [`FsyncPolicy`] — `never` (buffered, lost on
//! crash), `batch(8)` (group commit), and `always` (one fsync per append,
//! charged `t_fsync` of service time each).
//!
//! Expected shape: `never` tracks the volatile baseline (appends are memory
//! copies), `always` pays the full per-op fsync on the leader's critical
//! path, and `batch` lands between — the classic group-commit trade
//! reproduced inside the simulator's cost model.

use crate::nemesis::NemesisSchedule;
use crate::runner::Proto;
use crate::scenario::Scenario;
use crate::table::Table;
use paxi_core::config::ClusterConfig;
use paxi_core::faults::CrashMode;
use paxi_core::time::Nanos;
use paxi_sim::{SimConfig, SimReport};
use paxi_storage::FsyncPolicy;

fn base(quick: bool) -> SimConfig {
    let measure = if quick {
        Nanos::secs(1)
    } else {
        Nanos::secs(4)
    };
    SimConfig {
        warmup: Nanos::millis(300),
        measure,
        ..SimConfig::default()
    }
}

/// The workload on volatile replicas (`None`) or with a WAL under `policy`.
/// Nothing crashes; disks come with a schedule whose crash mode is amnesia,
/// so the WAL run is an empty schedule of that mode.
fn run_policy(quick: bool, policy: Option<FsyncPolicy>) -> SimReport {
    let cluster = ClusterConfig::lan(5);
    let mut scenario = Scenario {
        keys: 64,
        clients_per_zone: 4,
        ..Scenario::quiet(&Proto::paxos(), base(quick), cluster)
    };
    if let Some(policy) = policy {
        scenario.fsync = policy;
        scenario.schedule = NemesisSchedule::of(
            Vec::new(),
            &scenario.cluster,
            Nanos::ZERO,
            CrashMode::Amnesia,
        );
    }
    scenario.run().report
}

/// Builds the durability-tax table: one row per fsync policy.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Durability tax: MultiPaxos LAN(5), WAL per fsync policy",
        &["policy", "throughput_ops_s", "p50_ms", "p99_ms"],
    );
    let mut push = |label: &str, r: &SimReport| {
        t.row(vec![
            label.to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.3}", r.latency.p50.as_millis_f64()),
            format!("{:.3}", r.latency.p99.as_millis_f64()),
        ]);
    };
    push("volatile", &run_policy(quick, None));
    for policy in [
        FsyncPolicy::Never,
        FsyncPolicy::batch8(),
        FsyncPolicy::Always,
    ] {
        push(&policy.label(), &run_policy(quick, Some(policy)));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_pays_more_latency_than_never() {
        let t = &run(true)[0];
        let p50 = |label: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == label).expect(label)[2]
                .parse()
                .unwrap()
        };
        let never = p50("never");
        let always = p50("always");
        assert!(
            always > never,
            "per-append fsync must show up in median latency: never={never} always={always}"
        );
        // Group commit sits at or below the per-append policy.
        let batch = p50(&FsyncPolicy::batch8().label());
        assert!(batch <= always, "batch={batch} always={always}");
    }
}
