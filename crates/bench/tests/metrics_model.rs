//! The observability layer's headline audit: drive each protocol through a
//! clean (fault-free) simulated run with metrics on and `drain` mode, and
//! assert the leader's *observed* per-commit message counts equal the
//! analytic model's message complexity (`paxi_model::messages`) exactly,
//! and its busy time the model's service time for the same messages.
//!
//! Exactness is the point. Any silent loss (a message dropped outside the
//! `drops_by_cause` ledger), double-count, or misattributed type breaks an
//! equality here — which is precisely the class of accounting bug this PR's
//! metrics layer exists to catch.
//!
//! The runs are shaped so the steady state is the only state:
//! * one closed-loop client attached to the (initial) leader — exactly one
//!   request in flight, so rounds never pipeline or reorder;
//! * every command writes a fresh key — EPaxos stays on its conflict-free
//!   fast path with empty dependencies;
//! * heartbeats and election timeouts are hours long — the only timer-driven
//!   traffic is excluded by construction, leaving the one-off election
//!   exchange as a constant the assertions account for explicitly.

use paxi_core::command::Command;
use paxi_core::config::ClusterConfig;
use paxi_core::cost::{CostModel, Work};
use paxi_core::dist::Rng64;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::obs::{ClusterMetrics, Metric, MetricsRegistry, TraceStage};
use paxi_core::time::Nanos;
use paxi_model::{epaxos_leader_fast, paxos_leader, raft_leader};
use paxi_protocols::epaxos::epaxos_cluster;
use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi_protocols::raft::{raft_cluster, RaftConfig};
use paxi_sim::{ClientSetup, LoadMode, SimConfig, SimReport, Simulator};

const N: u8 = 3;
const LEADER: NodeId = NodeId::new(0, 0);

/// Metrics-on, drain-mode config: every issued request runs to completion
/// and every in-flight message is delivered before the run ends, so totals
/// divide evenly by the commit count.
fn audit_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        warmup: Nanos::ZERO,
        measure: Nanos::millis(200),
        metrics: true,
        trace_capacity: 512,
        drain: true,
        ..SimConfig::default()
    }
}

/// One closed-loop client pinned to the leader (the round-robin helpers
/// would spread clients across replicas and turn forwards into noise).
fn leader_client() -> Vec<ClientSetup> {
    vec![ClientSetup {
        zone: 0,
        attach: LEADER,
        mode: LoadMode::Closed {
            think: Nanos::micros(500),
        },
    }]
}

/// Every request writes its own key: no EPaxos conflicts, no read/write
/// asymmetry, nothing shared between consecutive commands.
fn fresh_key_workload(
) -> impl FnMut(ClientId, u8, u64, Nanos, &mut Rng64) -> Command + Send + 'static {
    |client: ClientId, _zone: u8, seq: u64, _now: Nanos, _rng: &mut Rng64| {
        Command::put(1 + client.0 as u64 * 1_000_000 + seq, vec![seq as u8])
    }
}

/// The leader's registry out of a run's cluster snapshot.
fn leader_metrics(cm: &ClusterMetrics) -> &MetricsRegistry {
    &cm.nodes
        .iter()
        .find(|s| s.node == LEADER)
        .expect("leader snapshot")
        .metrics
}

/// Cluster-wide conservation: in a drained fault-free run every message
/// sent must be received by its destination, type by type — the "no
/// unexplained losses" guarantee stated as an equality.
fn assert_message_conservation(cm: &ClusterMetrics) {
    assert_eq!(cm.unexplained_drops(), 0);
    let merged = cm.merged();
    assert_eq!(merged.total_drops(), 0, "clean run must not drop anything");
    assert_eq!(
        merged.get(Metric::MsgsSent),
        merged.get(Metric::MsgsReceived),
        "every sent message must be received"
    );
    for (kind, sent) in merged.sent_types() {
        assert_eq!(
            sent,
            merged.recv_of(kind),
            "conservation broken for message type {kind}"
        );
    }
}

/// The audited MultiPaxos run: heartbeats and failover an hour away.
fn paxos_run() -> SimReport {
    let cluster = ClusterConfig::lan(N);
    let cfg = PaxosConfig {
        heartbeat: Nanos::secs(3600),
        election_timeout: Nanos::secs(3600),
        enable_failover: false,
        ..PaxosConfig::default()
    };
    Simulator::new(
        audit_config(11),
        cluster.clone(),
        paxos_cluster(cluster, cfg),
        fresh_key_workload(),
        leader_client(),
    )
    .run()
}

/// The audited Raft run: heartbeats and election timeouts an hour away.
fn raft_run() -> SimReport {
    let cluster = ClusterConfig::lan(N);
    let cfg = RaftConfig {
        election_timeout: Nanos::secs(3600),
        heartbeat: Nanos::secs(3600),
        ..RaftConfig::default()
    };
    Simulator::new(
        audit_config(12),
        cluster.clone(),
        raft_cluster(cluster, cfg),
        fresh_key_workload(),
        leader_client(),
    )
    .run()
}

/// The audited EPaxos run: node 0 leads every instance, each on the fast
/// path.
fn epaxos_run() -> SimReport {
    let cluster = ClusterConfig::lan(N);
    Simulator::new(
        audit_config(13),
        cluster.clone(),
        epaxos_cluster(cluster),
        fresh_key_workload(),
        leader_client(),
    )
    .run()
}

#[test]
fn paxos_leader_matches_analytic_message_complexity() {
    let report = paxos_run();
    let cm = report.metrics.expect("metrics were enabled");
    assert_message_conservation(&cm);

    let leader = leader_metrics(&cm);
    let commits = leader.get(Metric::Commits);
    assert!(commits > 50, "too few commits to audit: {commits}");
    assert_eq!(
        leader.get(Metric::Requests),
        commits,
        "every request commits exactly once"
    );
    assert_eq!(leader.get(Metric::Replies), commits);
    assert_eq!(leader.get(Metric::Retransmissions), 0);

    // Steady state: one phase-2 round per commit, commit piggybacked.
    let model = paxos_leader(N as u64);
    assert_eq!(leader.sent_of("p2a"), commits * model.sent);
    assert_eq!(leader.recv_of("p2b"), commits * model.received);
    // The one-off phase-1 exchange is the only other traffic: n-1 P1a out,
    // n-1 P1b back (the straggler's promise still arrives and is counted).
    let peers = N as u64 - 1;
    assert_eq!(leader.sent_of("p1a"), peers);
    assert_eq!(leader.recv_of("p1b"), peers);
    assert_eq!(
        leader.sent_of("commit"),
        0,
        "suppressed heartbeat must not flush commits"
    );
    assert_eq!(
        leader.get(Metric::MsgsSent),
        commits * model.sent + peers,
        "unaccounted sends at the leader"
    );
    assert_eq!(
        leader.get(Metric::MsgsReceived),
        commits * model.received + peers,
        "unaccounted receives at the leader"
    );
}

#[test]
fn raft_leader_matches_analytic_message_complexity() {
    let report = raft_run();
    let cm = report.metrics.expect("metrics were enabled");
    assert_message_conservation(&cm);

    let leader = leader_metrics(&cm);
    let requests = leader.get(Metric::Requests);
    assert!(requests > 50, "too few requests to audit: {requests}");
    // The new term's no-op (Raft §5.4.2) is one extra committed entry.
    let commits = leader.get(Metric::Commits);
    assert_eq!(commits, requests + 1, "commits = requests + the term no-op");
    assert_eq!(leader.get(Metric::Replies), requests);
    assert_eq!(leader.get(Metric::Retransmissions), 0);

    // Each committed entry (no-op included) costs one AppendEntries
    // broadcast and collects one ack per peer.
    let model = raft_leader(N as u64);
    assert_eq!(leader.sent_of("append_entries"), commits * model.sent);
    assert_eq!(leader.recv_of("append_ack"), commits * model.received);
    // Heartbeats are empty appends under their own name; with an hour-long
    // period none fire inside the run.
    assert_eq!(leader.sent_of("heartbeat"), 0);
    // The one-off election: n-1 RequestVote out, n-1 Vote back.
    let peers = N as u64 - 1;
    assert_eq!(leader.sent_of("request_vote"), peers);
    assert_eq!(leader.recv_of("vote"), peers);
    assert_eq!(
        leader.get(Metric::MsgsSent),
        commits * model.sent + peers,
        "unaccounted sends at the leader"
    );
    assert_eq!(
        leader.get(Metric::MsgsReceived),
        commits * model.received + peers,
        "unaccounted receives at the leader"
    );
}

#[test]
fn epaxos_command_leader_matches_analytic_message_complexity() {
    let report = epaxos_run();
    let cm = report.metrics.expect("metrics were enabled");
    assert_message_conservation(&cm);

    // All clients attach to node 0, so it is the command leader of every
    // instance; fresh keys keep each one on the fast path.
    let leader = leader_metrics(&cm);
    let commits = leader.get(Metric::Commits);
    assert!(commits > 50, "too few commits to audit: {commits}");
    assert_eq!(leader.get(Metric::Requests), commits);
    assert_eq!(leader.get(Metric::Replies), commits);

    // Fast path: PreAccept broadcast + Commit broadcast out; every peer's
    // PreAcceptOk comes back (the leader only *waits* for the fast quorum,
    // but all n-1 replies still arrive).
    let model = epaxos_leader_fast(N as u64);
    let peers = N as u64 - 1;
    assert_eq!(leader.sent_of("pre_accept"), commits * peers);
    assert_eq!(leader.sent_of("commit"), commits * peers);
    assert_eq!(leader.recv_of("pre_accept_ok"), commits * model.received);
    // No conflicts means the slow path never runs.
    assert_eq!(leader.sent_of("accept"), 0);
    assert_eq!(leader.recv_of("accept_ok"), 0);
    assert_eq!(
        leader.get(Metric::MsgsSent),
        commits * model.sent,
        "unaccounted sends at the command leader"
    );
    assert_eq!(
        leader.get(Metric::MsgsReceived),
        commits * model.received,
        "unaccounted receives at the command leader"
    );
}

#[test]
fn same_seed_runs_produce_byte_identical_metrics_snapshots() {
    let run = || {
        let cluster = ClusterConfig::lan(N);
        let mut sim = Simulator::new(
            audit_config(99),
            cluster.clone(),
            paxos_cluster(cluster, PaxosConfig::default()),
            fresh_key_workload(),
            leader_client(),
        );
        sim.run().metrics.expect("metrics were enabled").to_json()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must reproduce the exact metrics snapshot");
}

#[test]
fn metrics_snapshots_round_trip_through_the_codec() {
    let cluster = ClusterConfig::lan(N);
    let mut sim = Simulator::new(
        audit_config(7),
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        fresh_key_workload(),
        leader_client(),
    );
    let cm = sim.run().metrics.expect("metrics were enabled");
    let bytes = paxi_codec::to_bytes(&cm).expect("cluster metrics must encode");
    let back: ClusterMetrics = paxi_codec::from_bytes(&bytes).expect("must decode");
    assert_eq!(back, cm, "codec round trip must be lossless");
    assert_eq!(back.to_json(), cm.to_json());
}

#[test]
fn merged_registry_sums_per_node_counters() {
    let cluster = ClusterConfig::lan(N);
    let mut sim = Simulator::new(
        audit_config(8),
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        fresh_key_workload(),
        leader_client(),
    );
    let cm = sim.run().metrics.expect("metrics were enabled");
    let merged = cm.merged();
    for metric in Metric::ALL {
        let sum: u64 = cm.nodes.iter().map(|s| s.metrics.get(metric)).sum();
        assert_eq!(
            merged.get(metric),
            sum,
            "merge lost counts for {}",
            metric.name()
        );
    }
}

#[test]
fn trace_ring_records_the_full_request_lifecycle() {
    let cluster = ClusterConfig::lan(N);
    let mut sim = Simulator::new(
        audit_config(21),
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        fresh_key_workload(),
        leader_client(),
    );
    let report = sim.run();
    let trace = report.trace.expect("tracing was enabled");
    let events: Vec<_> = trace.iter().copied().collect();
    assert!(!events.is_empty(), "trace ring must capture events");
    // Pick a request that still has all its events in the ring and check the
    // canonical stage order: submit -> propose -> quorum-ack -> execute ->
    // reply, monotonically timestamped.
    let submitted: Vec<_> = events
        .iter()
        .filter(|e| e.stage == TraceStage::Submit)
        .map(|e| e.req)
        .collect();
    let full = submitted
        .iter()
        .find(|&&req| {
            let stages: Vec<TraceStage> = events
                .iter()
                .filter(|e| e.req == req)
                .map(|e| e.stage)
                .collect();
            stages
                == vec![
                    TraceStage::Submit,
                    TraceStage::Propose,
                    TraceStage::QuorumAck,
                    TraceStage::Execute,
                    TraceStage::Reply,
                ]
        })
        .expect("at least one request must have its complete lifecycle in the ring");
    let times: Vec<Nanos> = events
        .iter()
        .filter(|e| e.req == *full)
        .map(|e| e.at)
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "lifecycle timestamps must be monotone"
    );
}

/// Model / simulator parity: the coordinator's per-commit `Work` from
/// `paxi_model::messages`, priced by `CostModel::service` (the model's
/// service time), is exactly what the simulator charged the leader per
/// commit. The simulator prices each handled event with the same function,
/// so at `cpu_penalty` 1.0 nothing but the counts can differ. The constant
/// is the rounds that open the run — one broadcast out and an answer from
/// every peer each: Paxos's phase 1; Raft's election and the new term's
/// no-op. None closes it: drain mode delivers every reply and no heartbeat
/// fires.
#[test]
fn the_models_work_per_commit_is_the_simulated_leaders_busy_time() {
    let cost = CostModel::default();
    assert_eq!(cost.cpu_penalty, 1.0);
    let peers = N as u64 - 1;
    let opening_round = cost.service(&Work {
        inputs: peers,
        serializations: 1,
        transmissions: peers,
        ..Work::default()
    });
    for (name, report, model, opening_rounds) in [
        ("paxos", paxos_run(), paxos_leader(N as u64), 1),
        ("raft", raft_run(), raft_leader(N as u64), 2),
        ("epaxos", epaxos_run(), epaxos_leader_fast(N as u64), 0),
    ] {
        let cm = report.metrics.as_ref().expect("metrics were enabled");
        // Client requests, each one commit; Raft's no-op is an opening round.
        let commits = leader_metrics(cm).get(Metric::Requests);
        let busy = report
            .node_stats
            .iter()
            .find(|s| s.id == LEADER)
            .expect("leader stats")
            .busy;
        let per_commit = cost.service(&model.work());
        assert_eq!(
            busy.0,
            commits * per_commit.0 + opening_rounds * opening_round.0,
            "{name}: leader busy {busy:?} over {commits} commits, model {per_commit:?} per commit"
        );
    }
}
