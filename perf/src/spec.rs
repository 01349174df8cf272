//! The benchmark's vocabulary: workload and metric names, units and
//! directions. `BENCHMARK.json` declares the same names; a test holds the
//! two together.

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "tcp-paxos-unloaded",
        "3-node MultiPaxos over TCP on localhost, one request at a time: commit latency with nothing queued, so transport and codec do most of the work",
    ),
    (
        "tcp-paxos-saturated",
        "same cluster with batch 16 and 2 clients x window 32: CPU-bound on 2 cores, so protocol handlers and per-command codec cost dominate",
    ),
    (
        "chan-raft-durable",
        "3-node Raft over in-process channels with a file WAL fsynced on every append: storage does most of the work, transport almost none",
    ),
    (
        "sim-lan9",
        "the paper's Fig 9 shape at n=9 in the deterministic simulator, 5 protocol scenarios and a leader crash: protocol handlers and sim engine only",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; reported by every workload with
/// `--trace 0`. On `sim-lan9` the rate, the latency and the CPU cost are
/// virtual-time quantities of the `paxos` scenario (exact for a seed).
pub const END_TO_END: [MetricSpec; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "ops/s"),
    lower("commit_p50_us", "us"),
    lower("cpu_us_per_op", "us"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each, prefix = crate; reported with `--trace 1`. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricSpec; 59] = [
    // An end-to-end quantity, not gated: its run-to-run spread on the
    // CPU-bound workloads reaches the largest bound the contract allows.
    lower("commit_p99_us", "us"),
    lower("codec.encode_ns_per_commit", "ns"),
    lower("codec.decode_ns_per_commit", "ns"),
    lower("codec.bytes_per_commit", "B"),
    lower("codec.encode_ns.p2a_b1", "ns"),
    lower("codec.encode_ns.p2a_b16", "ns"),
    lower("codec.decode_ns.p2a_b1", "ns"),
    lower("codec.decode_ns.p2a_b16", "ns"),
    lower("codec.frame_roundtrip_ns", "ns"),
    lower("transport.send_ns_per_msg", "ns"),
    lower("transport.echo_rtt_us.channel", "us"),
    lower("transport.echo_rtt_us.tcp", "us"),
    lower("transport.echo_rtt_us.reactor", "us"),
    lower("transport.echo_rtt_us.udp", "us"),
    lower("transport.packets_per_op", "count"),
    lower("transport.wire_bytes_per_op", "B"),
    lower("transport.ctx_switches_per_op", "count"),
    lower("transport.io_threads_cpu_share", "ratio"),
    lower("transport.drops_total", "count"),
    lower("transport.drops_unexplained", "count"),
    lower("transport.conns_hwm", "count"),
    lower("protocols.leader_self_ns_per_commit", "ns"),
    lower("protocols.follower_self_ns_per_commit", "ns"),
    lower("protocols.leader_busy_share", "ratio"),
    lower("protocols.leader_events_per_commit", "count"),
    lower("protocols.leader_msgs_per_commit", "count"),
    higher("protocols.cmds_per_batch", "count"),
    lower("protocols.timer_events_share", "ratio"),
    lower("storage.append_ns_p50", "ns"),
    lower("storage.sync_us_p50", "us"),
    lower("storage.sync_us_p99", "us"),
    lower("storage.busy_share", "ratio"),
    lower("storage.appends_per_commit", "count"),
    lower("storage.syncs_per_commit", "count"),
    lower("storage.wal_bytes_per_commit", "B"),
    lower("storage.recover_ms_per_10k", "ms"),
    lower("core.store_execute_ns", "ns"),
    lower("core.quorum_round_ns", "ns"),
    lower("shard.route_ns", "ns"),
    lower("shard.mux_ns_per_event", "ns"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.engine_ns_per_event", "ns"),
    lower("sim.events_per_commit", "count"),
    lower("sim.leader_utilization", "ratio"),
    higher("sim.paxos.tput_ops_s", "ops/s"),
    higher("sim.paxos_b16.tput_ops_s", "ops/s"),
    higher("sim.raft.tput_ops_s", "ops/s"),
    higher("sim.epaxos.tput_ops_s", "ops/s"),
    lower("sim.paxos.p50_us", "us"),
    lower("sim.paxos.leader_msgs_per_commit", "count"),
    lower("sim.raft.leader_msgs_per_commit", "count"),
    lower("sim.failover_gap_ms", "ms"),
    lower("sim.crash_abandoned_ops", "count"),
    higher("model.paxos_lan9.max_tput_ops_s", "ops/s"),
    higher("model.vs_sim_tput_ratio", "ratio"),
    lower("client.rtt_p50_us", "us"),
    lower("trace.overhead_pct", "%"),
    lower("residual.unattributed_us", "us"),
    lower("failed_ops_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` in {entry}"))
    }

    /// The contract's rule for a name.
    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_exactly_this_vocabulary() {
        let bench = benchmark_json();
        let declared = |list: &str| bench.get(list).and_then(Json::as_arr).expect(list).to_vec();

        let workloads: Vec<(String, String)> = declared("workloads")
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        for (list, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let theirs: Vec<(String, String, String)> = declared(list)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").into(),
                        field(m, "unit").into(),
                        field(m, "better").into(),
                    )
                })
                .collect();
            let ours: Vec<(String, String, String)> = specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.as_str().into()))
                .collect();
            assert_eq!(theirs, ours, "{list}");
        }

        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS),
            "the suite's default run length is the declared one"
        );
    }

    #[test]
    fn the_vocabulary_fits_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name));
        assert!(
            names.iter().all(|n| is_name(n)),
            "a name breaks the naming rule"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why has {} chars",
                why.len()
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = spec.unit.len() <= 16
                && spec
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(unit_ok, "{}: unit `{}`", spec.name, spec.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|s| s.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));

        // Bounds: at most a quarter, and set-up's is the largest.
        let bench = benchmark_json();
        let bounds: Vec<(String, f64)> = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup_bound = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
            assert!(*bound <= setup_bound, "{name}: bound above set-up's");
        }
    }
}
