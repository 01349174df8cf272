//! The TCP runtime's thread model, read off the process: one thread per
//! node, no thread per connection, and a timer thread only where faults are
//! injected.
//!
//! A test binary of its own with a single test: tests that share a process
//! share its thread list.

#![cfg(target_os = "linux")]

use paxi_core::config::ClusterConfig;
use paxi_core::faults::FaultPlan;
use paxi_core::id::NodeId;
use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi_transport::{FaultInjector, TcpCluster};

/// Names of this process's threads (the kernel keeps the first 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn three_nodes_are_three_threads_whatever_connects() {
    let cluster = ClusterConfig::lan(3);
    let run = TcpCluster::launch(
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
    )
    .expect("launch");
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

    let names = thread_names();
    let mut nodes: Vec<_> = names
        .iter()
        .filter(|n| n.starts_with("paxi-tcp-node-"))
        .collect();
    nodes.sort();
    assert_eq!(
        nodes,
        ["paxi-tcp-node-0", "paxi-tcp-node-1", "paxi-tcp-node-2"]
    );
    // Nothing else belongs to the transport: timers are the nodes' own.
    assert!(others(&names).is_empty(), "all threads: {names:?}");

    drop(clients);
    run.shutdown();
    assert!(
        !thread_names().iter().any(|n| n.starts_with("paxi-")),
        "shutdown joins every thread the cluster started"
    );

    // Injected faults are what needs a clock of its own: delayed deliveries
    // and recovery wake-ups.
    let cluster = ClusterConfig::lan(3);
    let run = TcpCluster::launch_chaotic(
        cluster.clone(),
        paxos_cluster(cluster, PaxosConfig::default()),
        FaultInjector::new(FaultPlan::new(), 1),
    )
    .expect("launch");
    let names = thread_names();
    assert_eq!(others(&names), ["paxi-timers"], "all threads: {names:?}");
    run.shutdown();
    assert!(!thread_names().iter().any(|n| n.starts_with("paxi-")));
}

/// The transport's threads that are not a node's.
fn others(names: &[String]) -> Vec<&str> {
    names
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("paxi-") && !n.starts_with("paxi-tcp-node-"))
        .collect()
}
