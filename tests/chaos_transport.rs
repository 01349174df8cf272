//! Chaos on the wall-clock transports: the live counterpart of the
//! simulator's fault injection.
//!
//! The same `FaultPlan` type drives both worlds. These tests check (a) the
//! decision layer is *identical* — a fixed seed yields the same message
//! fates whether the plan is consulted by the simulator or by the
//! transport's `FaultInjector` — and (b) a real cluster under `launch_chaotic`
//! stays linearizable through crashes, flaky links, and partitions, and
//! frozen nodes rejoin after their windows end.

use paxi::bench::check_linearizability;
use paxi::core::{ClusterConfig, FaultPlan, Nanos, NodeId};
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::sim::OpRecord;
use paxi::transport::{FaultInjector, InProcCluster, LinkDecision, TcpCluster};
use paxi_core::dist::Rng64;
use paxi_core::faults::MsgFate;
use std::time::Duration;

fn n(i: u8) -> NodeId {
    NodeId::new(0, i)
}

/// The sim consults `FaultPlan::message_fate` with its seeded RNG; the
/// transports consult `FaultInjector::decide_link_at` built from the same
/// plan and seed. For any shared query sequence the fates must agree —
/// this is what makes a live chaos run interpretable in sim terms.
#[test]
fn injector_fates_match_sim_fates_for_a_fixed_seed() {
    let mut plan = FaultPlan::new();
    plan.crash(n(3), Nanos::millis(100), Nanos::millis(400));
    plan.drop_link(n(0), n(1), Nanos::ZERO, Nanos::secs(2));
    plan.flaky_link(n(1), n(2), 0.35, Nanos::millis(50), Nanos::secs(2));
    plan.slow_link(n(2), n(0), Nanos::millis(2), Nanos::ZERO, Nanos::secs(2));

    for seed in [1u64, 7, 1234] {
        let inj = FaultInjector::new(plan.clone(), seed);
        let mut sim_rng = Rng64::seed(seed);
        for q in 0..1_000u64 {
            let (src, dst) = match q % 4 {
                0 => (n(0), n(1)),
                1 => (n(1), n(2)),
                2 => (n(2), n(0)),
                _ => (n(1), n(0)),
            };
            let t = Nanos::millis(q * 3 % 2_000);
            let sim_fate = plan.message_fate(src, dst, t, &mut sim_rng);
            let live = inj.decide_link_at(src, dst, t);
            let expected = match sim_fate {
                MsgFate::Dropped => LinkDecision::Drop,
                MsgFate::Deliver { extra_delay } if extra_delay == Nanos::ZERO => {
                    LinkDecision::Deliver
                }
                MsgFate::Deliver { extra_delay } => {
                    LinkDecision::DeliverAfter(Duration::from_nanos(extra_delay.0))
                }
            };
            assert_eq!(live, expected, "seed {seed} query {q} {src}->{dst} at {t:?}");
        }
    }
}

/// Drives one blocking client, recording every op with injector-relative
/// timestamps so the offline checker can consume the history.
fn drive(
    client: &mut paxi::transport::SyncClient<paxi::protocols::paxos::PaxosMsg>,
    inj: &FaultInjector,
    ops: &mut Vec<OpRecord>,
    until: Nanos,
    key_base: u64,
) {
    let mut i = 0u64;
    while inj.now() < until {
        let key = key_base + i % 3;
        let invoke = inj.now();
        if i % 2 == 0 {
            let value = paxi::sim::client::unique_value(client.id(), i);
            let resp = client.put(key, value.clone());
            let ok = resp.as_ref().map(|r| r.ok).unwrap_or(false);
            ops.push(OpRecord {
                client: client.id(),
                key,
                write: Some(value),
                read: None,
                invoke,
                ret: inj.now(),
                ok,
            });
        } else {
            let resp = client.get(key);
            let ok = resp.is_some();
            ops.push(OpRecord {
                client: client.id(),
                key,
                write: None,
                read: resp.map(|r| r.value),
                invoke,
                ret: inj.now(),
                ok,
            });
        }
        i += 1;
    }
}

#[test]
fn channel_cluster_stays_linearizable_through_crash_and_flaky_links() {
    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    // A follower freezes for half a second while the leader's link to the
    // other follower is flaky; everything heals at 800ms.
    plan.crash(n(2), Nanos::millis(200), Nanos::millis(500));
    plan.flaky_link(n(0), n(1), 0.3, Nanos::millis(100), Nanos::millis(600));
    plan.flaky_link(n(1), n(0), 0.3, Nanos::millis(100), Nanos::millis(600));
    plan.heal(Nanos::millis(800));
    let injector = FaultInjector::new(plan, 0xC4A05);

    let run = InProcCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
        injector.clone(),
    );
    let mut client = run.client(n(0));
    client.set_timeout(Duration::from_millis(300));

    let mut ops = Vec::new();
    drive(&mut client, &injector, &mut ops, Nanos::millis(1_500), 0);

    // Progress after the heal point.
    let heal = Nanos::millis(800);
    let tail_ok = ops.iter().filter(|o| o.ok && o.invoke >= heal).count();
    assert!(tail_ok > 0, "no successful ops after heal ({} total)", ops.len());

    // The frozen follower thawed: a request through it gets an answer.
    let mut via_thawed = run.client(n(2));
    via_thawed.set_timeout(Duration::from_secs(5));
    let resp = via_thawed.put(99, b"recovered".to_vec());
    assert!(resp.map(|r| r.ok).unwrap_or(false), "thawed node must serve again");

    let anomalies = check_linearizability(&ops);
    assert!(anomalies.is_empty(), "anomalies: {anomalies:?}");
    run.shutdown();
}

#[test]
fn tcp_cluster_survives_flaky_links_under_injection() {
    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    plan.flaky_link(n(0), n(1), 0.2, Nanos::ZERO, Nanos::millis(800));
    plan.flaky_link(n(1), n(0), 0.2, Nanos::ZERO, Nanos::millis(800));
    let injector = FaultInjector::new(plan, 7);

    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
        injector,
    )
    .expect("launch");
    let mut client = run.client(n(0)).expect("client");
    client.set_timeout(Duration::from_millis(500));

    // Losing 20% of leader<->follower frames must not lose committed writes:
    // retry until each put lands, then read everything back.
    for i in 0..10u64 {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if client.put(i, vec![i as u8]).map(|r| r.ok).unwrap_or(false) {
                break;
            }
            assert!(attempts < 50, "put {i} never succeeded");
        }
    }
    client.set_timeout(Duration::from_secs(5));
    for i in 0..10u64 {
        let r = client.get(i).expect("get");
        assert_eq!(r.value, Some(vec![i as u8]), "key {i}");
    }
    // Every frame the chaos shed is attributed; nothing vanished silently.
    assert_eq!(run.drops().get(paxi::core::obs::DropCause::Unexplained), 0);
    let conns = run.conn_stats().clone();
    run.shutdown();
    assert_eq!(conns.opens(), conns.closes(), "no leaked connections");
}

/// Same flaky-link plan, but with command batching on — multi-command P2as
/// flow through the write pass's coalescing. Every committed write
/// must land exactly once: each key holds exactly the *last* value retried
/// to success, with no duplicated or reordered application visible.
#[test]
fn tcp_cluster_batched_writer_delivers_frames_exactly_once_under_faults() {
    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    plan.flaky_link(n(0), n(1), 0.2, Nanos::ZERO, Nanos::millis(800));
    plan.flaky_link(n(1), n(0), 0.2, Nanos::ZERO, Nanos::millis(800));
    let injector = FaultInjector::new(plan, 7);

    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
        injector,
    )
    .expect("launch");
    let mut client = run.client(n(0)).expect("client");
    client.set_timeout(Duration::from_millis(500));

    // Two generations per key: the second put must overwrite the first
    // exactly (a duplicated or reordered first-generation frame would
    // resurface as a stale read below).
    for gen in 0..2u8 {
        for i in 0..10u64 {
            let mut attempts = 0;
            loop {
                attempts += 1;
                if client.put(i, vec![gen, i as u8]).map(|r| r.ok).unwrap_or(false) {
                    break;
                }
                assert!(attempts < 50, "gen {gen} put {i} never succeeded");
            }
        }
    }
    client.set_timeout(Duration::from_secs(5));
    for i in 0..10u64 {
        let r = client.get(i).expect("get");
        assert_eq!(r.value, Some(vec![1, i as u8]), "key {i} must hold its last write");
    }
    run.shutdown();
}

/// Writes `[i]` to key `i % 4` for i = 0, 1, … through `client`, each retried
/// until it lands, until the injector's clock passes `until`. Returns how
/// many writes landed.
fn write_until(
    client: &mut paxi::transport::TcpClient,
    injector: &FaultInjector,
    until: Nanos,
) -> u64 {
    client.set_timeout(Duration::from_millis(300));
    let mut i = 0u64;
    while injector.now() < until {
        let landed = (0..50).any(|_| client.put(i % 4, vec![i as u8]).is_some_and(|r| r.ok));
        assert!(landed, "put {i} never succeeded");
        i += 1;
    }
    i
}

/// A follower frozen for a window, over TCP: the node's thread sleeps in
/// `poll`, not in a channel `recv`, so the recovery wake-up has to reach it
/// there. After the thaw a client attached to the victim itself is served.
#[test]
fn tcp_frozen_follower_thaws_and_serves_its_own_client() {
    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    plan.crash(n(2), Nanos::millis(100), Nanos::millis(300));
    let injector = FaultInjector::new(plan, 11);
    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
        injector.clone(),
    )
    .expect("launch");

    // The other two keep committing while the victim is dark; what they
    // send it in the window is discarded there, on the ledger.
    let mut client = run.client(n(0)).expect("client");
    write_until(&mut client, &injector, Nanos::millis(450));
    let crashed = injector.drops().get(paxi::core::obs::DropCause::Crashed);
    assert!(crashed > 0, "the frozen node discarded what reached it");

    let mut via_thawed = run.client(n(2)).expect("client on the victim");
    via_thawed.set_timeout(Duration::from_secs(5));
    assert!(via_thawed.put(99, b"thawed".to_vec()).expect("reply").ok);
    assert_eq!(via_thawed.get(99).expect("reply").value, Some(b"thawed".to_vec()));
    assert_eq!(run.drops().get(paxi::core::obs::DropCause::Unexplained), 0);
    run.shutdown();
}

/// The same window with amnesia: the victim's replica is thrown away and
/// rebuilt by the launch factory, whose storage attachment replays the WAL,
/// before it serves its own client again.
#[test]
fn tcp_amnesiac_follower_is_rebuilt_from_its_wal_and_serves_its_own_client() {
    use paxi::core::traits::Replica;
    use paxi::protocols::paxos::MultiPaxos;
    use paxi::storage::{FsyncPolicy, MemHub};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    plan.crash_amnesia(n(2), Nanos::millis(100), Nanos::millis(300));
    let injector = FaultInjector::new(plan, 11);
    let disks: MemHub<NodeId> = MemHub::new(FsyncPolicy::Always);
    let built = Arc::new(AtomicUsize::new(0));
    let factory = {
        let (cluster, built) = (cluster.clone(), Arc::clone(&built));
        move |id: NodeId| {
            built.fetch_add(1, Ordering::SeqCst);
            let mut r = MultiPaxos::new(id, cluster.clone(), PaxosConfig::default());
            r.attach_storage(Box::new(disks.open(id)));
            r
        }
    };
    let run = TcpCluster::launch_chaotic(cluster, factory, injector.clone()).expect("launch");
    assert_eq!(built.load(Ordering::SeqCst), 3);

    let mut client = run.client(n(0)).expect("client");
    let i = write_until(&mut client, &injector, Nanos::millis(450));

    let mut via_rebuilt = run.client(n(2)).expect("client on the victim");
    via_rebuilt.set_timeout(Duration::from_secs(5));
    assert!(via_rebuilt.put(99, b"rebuilt".to_vec()).expect("reply").ok);
    assert_eq!(via_rebuilt.get(99).expect("reply").value, Some(b"rebuilt".to_vec()));
    // The last write before the victim came back is still there.
    let last = (i - 1) % 4;
    assert_eq!(via_rebuilt.get(last).expect("reply").value, Some(vec![(i - 1) as u8]));
    assert_eq!(built.load(Ordering::SeqCst), 4, "the victim, and only it, was rebuilt");
    assert_eq!(run.drops().get(paxi::core::obs::DropCause::Unexplained), 0);
    run.shutdown();
}
