//! Chaos on the wall-clock transports: the live counterpart of the
//! simulator's fault injection.
//!
//! The same `FaultPlan` drives both worlds, through the same functions: a
//! live node's crash gate and link fates call what a simulated node's do.
//! These tests check (a) that one plan takes a simulated and a live node
//! through the same crash lifecycle, (b) that a real cluster under
//! `launch_chaotic` stays linearizable through crashes, flaky links, and
//! partitions, and frozen nodes rejoin after their windows end, and (c)
//! that a live cluster keeps one loss ledger: what the transport sheds,
//! what the plan drops or a crashed node discards, and what a replica
//! charges itself all show in `drops()`.

use paxi::bench::check_linearizability;
use paxi::core::obs::DropCause;
use paxi::core::{
    ClientRequest, ClientResponse, ClusterConfig, Command, Context, FaultPlan, Nanos, NodeId,
    Replica,
};
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::sim::client::uniform_workload;
use paxi::sim::{OpRecord, SimConfig, Simulator};
use paxi::transport::runtime::{Node, Outbound};
use paxi::transport::{DropCounters, Envelope, InProcCluster, Remake, TcpCluster};
use paxi_core::id::ClientId;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn n(i: u8) -> NodeId {
    NodeId::new(0, i)
}

/// Plan time as a test reads it. A cluster pins its clock somewhere inside
/// its launch call, so plan time is at least the time since `after` that
/// call and at most the time since `before` it.
#[derive(Clone, Copy)]
struct Clock {
    before: Instant,
    after: Instant,
}

impl Clock {
    /// The clock of the cluster `launch` starts.
    fn around<T>(launch: impl FnOnce() -> T) -> (T, Clock) {
        let before = Instant::now();
        let run = launch();
        let after = Instant::now();
        (run, Clock { before, after })
    }

    /// Plan time, never ahead of the cluster's.
    fn now(&self) -> Nanos {
        Nanos(self.after.elapsed().as_nanos() as u64)
    }

    /// Plan time, never behind the cluster's.
    fn latest(&self) -> Nanos {
        Nanos(self.before.elapsed().as_nanos() as u64)
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
    let remake: Remake<Lifecycle> = Arc::new(factory(&live_log));
    let (tx, _rx) = std::sync::mpsc::channel();
    let replica = Lifecycle(Arc::clone(&live_log));
    let faults = Some((Arc::new(plan), remake));
    let epoch = Instant::now();
    let mut node = Node::new(n(0), replica, vec![], tx, Nowhere, epoch, 1, faults);
    node.start();
    // The node's loop: a pass, then a nap no longer than a storage tick.
    while epoch.elapsed() < Duration::from_nanos(horizon.0) {
        node.advance(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
    }

    assert_eq!(*sim_log.lock().unwrap(), ["start", "restart", "recover"]);
    assert_eq!(*live_log.lock().unwrap(), *sim_log.lock().unwrap());
}

/// Drives one blocking client, recording every op with plan-time
/// timestamps so the offline checker can consume the history.
fn drive(
    client: &mut paxi::transport::SyncClient<paxi::protocols::paxos::PaxosMsg>,
    clock: Clock,
    ops: &mut Vec<OpRecord>,
    until: Nanos,
    key_base: u64,
) {
    let mut i = 0u64;
    while clock.now() < until {
        let key = key_base + i % 3;
        let invoke = clock.now();
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
                ret: clock.now(),
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
                ret: clock.now(),
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

    let (run, clock) = Clock::around(|| {
        let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
        InProcCluster::launch_chaotic(cluster.clone(), factory, plan, 0xC4A05)
    });
    let mut client = run.client(n(0));
    client.set_timeout(Duration::from_millis(300));

    let mut ops = Vec::new();
    drive(&mut client, clock, &mut ops, Nanos::millis(1_500), 0);

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
    // The frozen follower discarded what reached it, on the one ledger.
    assert!(run.drops().get(DropCause::Crashed) > 0);
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
    run.shutdown();
}

#[test]
fn tcp_cluster_survives_flaky_links_under_injection() {
    let cluster = ClusterConfig::lan(3);
    let mut plan = FaultPlan::new();
    plan.flaky_link(n(0), n(1), 0.2, Nanos::ZERO, Nanos::millis(800));
    plan.flaky_link(n(1), n(0), 0.2, Nanos::ZERO, Nanos::millis(800));

    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
        plan,
        7,
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
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
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

    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
        plan,
        7,
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
/// until it lands, until `clock` passes `until`. Returns how many writes
/// landed.
fn write_until(client: &mut paxi::transport::TcpClient, clock: Clock, until: Nanos) -> u64 {
    client.set_timeout(Duration::from_millis(300));
    let mut i = 0u64;
    while clock.now() < until {
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
    let (run, clock) = Clock::around(|| {
        let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
        TcpCluster::launch_chaotic(cluster.clone(), factory, plan, 11)
    });
    let run = run.expect("launch");

    // The other two keep committing while the victim is dark; what they
    // send it in the window is discarded there, on the ledger.
    let mut client = run.client(n(0)).expect("client");
    write_until(&mut client, clock, Nanos::millis(450));
    let crashed = run.drops().get(DropCause::Crashed);
    assert!(crashed > 0, "the frozen node discarded what reached it");

    let mut via_thawed = run.client(n(2)).expect("client on the victim");
    via_thawed.set_timeout(Duration::from_secs(5));
    assert!(via_thawed.put(99, b"thawed".to_vec()).expect("reply").ok);
    assert_eq!(
        via_thawed.get(99).expect("reply").value,
        Some(b"thawed".to_vec())
    );
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
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
    let (run, clock) = Clock::around(|| TcpCluster::launch_chaotic(cluster, factory, plan, 11));
    let run = run.expect("launch");
    assert_eq!(built.load(Ordering::SeqCst), 3);

    let mut client = run.client(n(0)).expect("client");
    let i = write_until(&mut client, clock, Nanos::millis(450));

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
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
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

fn slow_leader_links() -> FaultPlan {
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
    plan
}

/// Puts through `execute`, on a client attached to the leader, from before
/// the slow window to 200 ms past it: each must land on its first try, and
/// each that starts and ends inside the window, whatever instant inside its
/// launch call the cluster's clock started at, took at least the floor (no
/// upper bound: the cores are shared). Then every key reads its last write.
fn put_through_the_slow_window(
    clock: Clock,
    mut execute: impl FnMut(Command) -> Option<ClientResponse>,
) {
    let (mut i, mut slowed, mut after) = (0u64, 0, 0);
    while clock.now() < SLOW_UNTIL + Nanos::millis(200) {
        let (invoke, start) = (clock.now(), Instant::now());
        let landed = execute(Command::put(i % 4, i.to_le_bytes().to_vec())).is_some_and(|r| r.ok);
        let (ret, took) = (clock.latest(), start.elapsed());
        assert!(landed, "put {i} invoked at {invoke} was lost");
        if invoke >= SLOW_FROM && ret < SLOW_UNTIL {
            slowed += 1;
            assert!(
                took >= Duration::from_nanos(SLOWED_COMMIT_FLOOR.0),
                "put {i} at {invoke} took {took:?}"
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
    let cluster = ClusterConfig::lan(3);

    let (run, clock) = Clock::around(|| {
        let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
        TcpCluster::launch_chaotic(cluster.clone(), factory, slow_leader_links(), 5)
    });
    let run = run.expect("launch");
    let mut client = run.client(n(0)).expect("client");
    put_through_the_slow_window(clock, |cmd| client.execute(cmd));
    assert_eq!(run.drops().get(DropCause::Fault), 0);
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
    run.shutdown();

    let (run, clock) = Clock::around(|| {
        let factory = paxos_cluster(cluster.clone(), PaxosConfig::default());
        InProcCluster::launch_chaotic(cluster.clone(), factory, slow_leader_links(), 5)
    });
    let mut client = run.client(n(0));
    put_through_the_slow_window(clock, |cmd| client.execute(cmd));
    assert_eq!(run.drops().get(DropCause::Fault), 0);
    assert_eq!(run.drops().get(DropCause::Unexplained), 0);
    run.shutdown();
}

/// Answers each request it takes and broadcasts one message for it; takes
/// each message it receives as a loss of its own, the way a replica
/// charges a state-transfer chunk it cannot use.
struct Charging;

impl Replica for Charging {
    type Msg = ();
    fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut dyn Context<()>) {
        ctx.count_drop(DropCause::BadChunk, 1);
    }
    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<()>) {
        ctx.broadcast(());
        ctx.reply(ClientResponse::ok(req.id, None));
    }
}

/// Waits up to five seconds for `drops` to show `n` losses charged to
/// `BadChunk`: the peers take the broadcast on their own threads, after
/// the reply may have left.
fn await_bad_chunks(drops: &DropCounters, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while drops.get(DropCause::BadChunk) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(drops.get(DropCause::BadChunk), n);
    assert_eq!(drops.total(), n, "nothing else was lost");
}

/// What a live replica charges through `count_drop` lands in its cluster's
/// one ledger, beside the transport's own losses, on the channel and the
/// TCP runtime: each request to node 0 reaches both peers as a message they
/// charge.
#[test]
fn a_loss_a_live_replica_charges_lands_in_its_clusters_ledger() {
    let cluster = ClusterConfig::lan(3);

    let run = InProcCluster::launch(cluster.clone(), |_| Charging);
    let mut client = run.client(n(0));
    for key in 0..3 {
        assert!(client.get(key).expect("reply").ok);
    }
    await_bad_chunks(run.drops(), 6);
    run.shutdown();

    let run = TcpCluster::launch(cluster, |_| Charging).expect("launch");
    let mut client = run.client(n(0)).expect("client");
    for key in 0..3 {
        assert!(client.get(key).expect("reply").ok);
    }
    await_bad_chunks(run.drops(), 6);
    run.shutdown();
}
