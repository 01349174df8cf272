//! The TCP runtime's thread and fd model, read off the process: one thread
//! per node, no thread per connection, no timer thread, with fault injection
//! or without; and at launch one fd per listener and per link end, none to
//! wake a node.
//!
//! A test binary of its own with a single test: tests that share a process
//! share its thread list and its fd table.

#![cfg(target_os = "linux")]

use paxi_core::config::ClusterConfig;
use paxi_core::faults::FaultPlan;
use paxi_core::id::NodeId;
use paxi_core::time::Nanos;
use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi_transport::TcpCluster;
use std::time::{Duration, Instant};

/// Names of this process's threads (the kernel keeps the first 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// How many fds this process has open.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn three_nodes_are_three_threads_whatever_connects() {
    let cluster = ClusterConfig::lan(3);
    let before = open_fds();
    let run = TcpCluster::launch(
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
    )
    .expect("launch");
    // Before any client: three listeners and the two ends of each of the
    // three peer links. Shutdown needs no fd: a node reads it from its
    // inbox within a millisecond.
    assert_eq!(open_fds() - before, 3 + 6, "fds a 3-node launch opens");
    // Traffic on every kind of connection: clients on the leader and on a
    // follower (which forwards, so every peer link is dialed and used).
    let mut clients: Vec<_> = (0..6u8)
        .map(|i| run.client(NodeId::new(0, i % 3)).expect("connect"))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        assert!(c.put(i as u64, vec![i as u8]).expect("put").ok);
    }
    assert!(
        run.conn_stats().live() >= 6 + 6,
        "six clients, six peer links"
    );

    // Nothing else belongs to the transport: timers are the nodes' own.
    assert_only_node_threads();
    drop(clients);
    run.shutdown();
    assert!(
        !thread_names().iter().any(|n| n.starts_with("paxi-")),
        "shutdown joins every thread the cluster started"
    );

    // So are faults: a crash window and a slowed link start no thread.
    let mut plan = FaultPlan::new();
    plan.crash(NodeId::new(0, 2), Nanos::ZERO, Nanos::millis(50));
    plan.slow_link(
        NodeId::new(0, 0),
        NodeId::new(0, 1),
        Nanos::millis(5),
        Nanos::ZERO,
        Nanos::secs(60),
    );
    let cluster = ClusterConfig::lan(3);
    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        plan,
        1,
    )
    .expect("launch");
    let mut client = run.client(NodeId::new(0, 0)).expect("connect");
    assert!(client.put(7, vec![7]).expect("put").ok);
    assert_only_node_threads();
    drop(client);
    run.shutdown();
    assert!(!thread_names().iter().any(|n| n.starts_with("paxi-")));
}

/// The transport's threads are exactly the three nodes'. A new thread
/// names itself once it runs, so until then `/proc` shows it under its
/// parent's name: the names are read again until the three node names are
/// there or a deadline passes, then checked.
fn assert_only_node_threads() {
    let expected = ["paxi-tcp-node-0", "paxi-tcp-node-1", "paxi-tcp-node-2"];
    let ours = |names: &[String]| {
        let mut ours: Vec<_> = names
            .iter()
            .filter(|n| n.starts_with("paxi-"))
            .cloned()
            .collect();
        ours.sort();
        ours
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut names = thread_names();
    while ours(&names) != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        names = thread_names();
    }
    assert_eq!(ours(&names), expected, "all threads: {names:?}");
}
