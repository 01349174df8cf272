//! Chaos on the wall-clock transports: the live counterpart of the
//! simulator's fault injection.
//!
//! The same `FaultPlan` type drives both worlds. These tests check (a) the
//! decision layer is *identical* — a fixed seed yields the same message
//! fates whether the plan is consulted by the simulator or by the
//! transport's `FaultInjector`, and one plan takes a simulated and a live
//! node through the same crash lifecycle — and (b) a real cluster under `launch_chaotic`
//! stays linearizable through crashes, flaky links, and partitions, and
//! frozen nodes rejoin after their windows end.

use paxi::bench::check_linearizability;
use paxi::core::{
    ClientRequest, ClientResponse, ClusterConfig, Command, Context, FaultPlan, Nanos, NodeId,
    Replica,
};
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::sim::client::uniform_workload;
use paxi::sim::{OpRecord, SimConfig, Simulator};
use paxi::transport::runtime::{Node, Outbound};
use paxi::transport::{Envelope, FaultInjector, InProcCluster, LinkDecision, Remake, TcpCluster};
use paxi_core::dist::Rng64;
use paxi_core::faults::MsgFate;
use paxi_core::id::ClientId;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
            assert_eq!(
                live, expected,
                "seed {seed} query {q} {src}->{dst} at {t:?}"
            );
        }
    }
}

type Hooks = Arc<Mutex<Vec<&'static str>>>;

/// Logs the lifecycle hooks it is called with, and nothing else.
struct Lifecycle(Hooks);

impl Replica for Lifecycle {
    type Msg = ();
    fn on_start(&mut self, _ctx: &mut dyn Context<()>) {
        self.0.lock().unwrap().push("start");
    }
    fn on_restart(&mut self, _ctx: &mut dyn Context<()>) {
        self.0.lock().unwrap().push("restart");
    }
    fn on_recover(&mut self, _ctx: &mut dyn Context<()>) {
        self.0.lock().unwrap().push("recover");
    }
    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}
    fn on_request(&mut self, _req: ClientRequest, _ctx: &mut dyn Context<()>) {}
}

/// A transport with nowhere to send.
struct Nowhere;

impl Outbound<()> for Nowhere {
    fn to_node(&mut self, _to: NodeId, _env: Envelope<()>) {}
    fn to_client(&mut self, _client: ClientId, _resp: ClientResponse) {}
}

/// One plan, a freeze then an amnesia window for node 0, takes a simulated
/// node and a live one through the same hooks: both substrates ask the same
/// crash gate and thaw through the same function.
#[test]
fn the_simulator_and_a_live_node_run_the_same_crash_lifecycle() {
    let mut plan = FaultPlan::new();
    plan.crash(n(0), Nanos::millis(50), Nanos::millis(100));
    plan.crash_amnesia(n(0), Nanos::millis(250), Nanos::millis(100));
    let horizon = Nanos::millis(450);
    let factory = |log: &Hooks| {
        let log = Arc::clone(log);
        move |_| Lifecycle(Arc::clone(&log))
    };

    let sim_log = Hooks::default();
    let cfg = SimConfig {
        warmup: Nanos::ZERO,
        measure: horizon,
        ..SimConfig::default()
    };
    let cluster = ClusterConfig::lan(1);
    let mut sim = Simulator::new(cfg, cluster, factory(&sim_log), uniform_workload(1), vec![]);
    *sim.faults_mut() = plan.clone();
    sim.run();

    let live_log = Hooks::default();
    let inj = FaultInjector::new(plan, 1);
    let remake: Remake<Lifecycle> = Arc::new(factory(&live_log));
    let (tx, _rx) = std::sync::mpsc::channel();
    let replica = Lifecycle(Arc::clone(&live_log));
    let faults = Some((Arc::clone(&inj), remake));
    let mut node = Node::new(
        n(0),
        replica,
        vec![],
        tx,
        Nowhere,
        Instant::now(),
        1,
        faults,
    );
    inj.start(Instant::now());
    node.start();
    // The node's loop: a pass, then a nap no longer than a storage tick.
    while inj.now() < horizon {
        node.advance(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
    }

    assert_eq!(*sim_log.lock().unwrap(), ["start", "restart", "recover"]);
    assert_eq!(*live_log.lock().unwrap(), *sim_log.lock().unwrap());
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
        if i.is_multiple_of(2) {
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
    assert!(
        tail_ok > 0,
        "no successful ops after heal ({} total)",
        ops.len()
    );

    // The frozen follower thawed: a request through it gets an answer.
    let mut via_thawed = run.client(n(2));
    via_thawed.set_timeout(Duration::from_secs(5));
    let resp = via_thawed.put(99, b"recovered".to_vec());
    assert!(
        resp.map(|r| r.ok).unwrap_or(false),
        "thawed node must serve again"
    );

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
                if client
                    .put(i, vec![gen, i as u8])
                    .map(|r| r.ok)
                    .unwrap_or(false)
                {
                    break;
                }
                assert!(attempts < 50, "gen {gen} put {i} never succeeded");
            }
        }
    }
    client.set_timeout(Duration::from_secs(5));
    for i in 0..10u64 {
        let r = client.get(i).expect("get");
        assert_eq!(
            r.value,
            Some(vec![1, i as u8]),
            "key {i} must hold its last write"
        );
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
    assert_eq!(
        via_thawed.get(99).expect("reply").value,
        Some(b"thawed".to_vec())
    );
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
    assert_eq!(
        via_rebuilt.get(99).expect("reply").value,
        Some(b"rebuilt".to_vec())
    );
    // The last write before the victim came back is still there.
    let last = (i - 1) % 4;
    assert_eq!(
        via_rebuilt.get(last).expect("reply").value,
        Some(vec![(i - 1) as u8])
    );
    assert_eq!(
        built.load(Ordering::SeqCst),
        4,
        "the victim, and only it, was rebuilt"
    );
    assert_eq!(run.drops().get(paxi::core::obs::DropCause::Unexplained), 0);
    run.shutdown();
}

/// When the leader's links to both followers are slow.
const SLOW_FROM: Nanos = Nanos::millis(200);
const SLOW_UNTIL: Nanos = Nanos::millis(700);
/// A `Slow` rule adds a uniform draw from `[0, max)` to each frame, and the
/// rules on one link add up: a hundred of at most 0.4 ms put 20 ± 1.2 ms on
/// every leader→follower frame, so a commit inside the window takes at
/// least this (seven standard deviations below the mean delay).
const SLOWED_COMMIT_FLOOR: Nanos = Nanos::millis(12);

fn slow_leader_links() -> std::sync::Arc<FaultInjector> {
    let mut plan = FaultPlan::new();
    for follower in [n(1), n(2)] {
        for _ in 0..100 {
            plan.slow_link(
                n(0),
                follower,
                Nanos::micros(400),
                SLOW_FROM,
                SLOW_UNTIL - SLOW_FROM,
            );
        }
    }
    FaultInjector::new(plan, 5)
}

/// Puts through `execute`, on a client attached to the leader, from before
/// the slow window to 200 ms past it: each must land on its first try, and
/// each that starts and ends inside the window took at least the floor
/// (no upper bound: the cores are shared). Then every key reads its last
/// write.
fn put_through_the_slow_window(
    injector: &FaultInjector,
    mut execute: impl FnMut(Command) -> Option<ClientResponse>,
) {
    let (mut i, mut slowed, mut after) = (0u64, 0, 0);
    while injector.now() < SLOW_UNTIL + Nanos::millis(200) {
        let invoke = injector.now();
        let landed = execute(Command::put(i % 4, i.to_le_bytes().to_vec())).is_some_and(|r| r.ok);
        let ret = injector.now();
        assert!(landed, "put {i} invoked at {invoke} was lost");
        if invoke >= SLOW_FROM && ret < SLOW_UNTIL {
            slowed += 1;
            let took = ret - invoke;
            assert!(
                took >= SLOWED_COMMIT_FLOOR,
                "put {i} at {invoke} took {took}"
            );
        }
        after += u32::from(invoke >= SLOW_UNTIL);
        i += 1;
    }
    assert!(
        slowed > 0 && after > 0,
        "{slowed} puts in the window, {after} after it"
    );
    for (key, last) in (i.saturating_sub(4)..i).map(|j| (j % 4, j)) {
        let read = execute(Command::get(key)).expect("get");
        assert_eq!(read.value, Some(last.to_le_bytes().to_vec()), "key {key}");
    }
}

/// Slowed frames wait in the sending node's delay queue and leave from its
/// own loop: commits inside the window are slower, none is lost, and the
/// cluster is back to normal after it — on the TCP runtime and in-process.
#[test]
fn slow_leader_links_delay_commits_and_lose_nothing() {
    use paxi::core::obs::DropCause;
    let cluster = ClusterConfig::lan(3);

    let injector = slow_leader_links();
    let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
    let run = TcpCluster::launch_chaotic(cluster.clone(), factory, injector.clone());
    let run = run.expect("launch");
    let mut client = run.client(n(0)).expect("client");
    put_through_the_slow_window(&injector, |cmd| client.execute(cmd));
    assert_eq!(injector.drops().get(DropCause::Fault), 0);
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
    run.shutdown();

    let injector = slow_leader_links();
    let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
    let run = InProcCluster::launch_chaotic(cluster, factory, injector.clone());
    let mut client = run.client(n(0));
    put_through_the_slow_window(&injector, |cmd| client.execute(cmd));
    assert_eq!(injector.drops().get(DropCause::Fault), 0);
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
    run.shutdown();
}
