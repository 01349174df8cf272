//! Connection scalability sweep (ours, beyond the paper): throughput vs.
//! concurrent client connections against one node of the TCP runtime.
//!
//! The paper's dissection holds the client population small and closed-loop;
//! real deployments fan thousands of connections into each replica. The TCP
//! runtime ([`paxi_transport::reactor`]) serves every socket of a node *and*
//! runs its replica on one `poll(2)` loop, so its connection ceiling is the
//! fd limit, and each pass of that loop scans every connection once (write
//! what was staged, rebuild the poll set). This sweep is the check that the
//! scan stays cheap next to the work: it drives a 3-node batched-MultiPaxos
//! cluster on localhost with two client shapes and reports, per connection
//! count: connections actually established, sustained throughput, and
//! unexplained drops (asserted zero — every shed frame must be on the cause
//! ledger, including the `backpressure` cause).
//!
//! * `blocking`: one closed-loop client thread per connection, one request
//!   at a time each — the load generator, not the node, runs out of threads
//!   first, so the grid stops at 256.
//! * `pipelined`: up to 10,240 connections with four requests in flight
//!   each, driven by a single swarm thread ([`paxi_transport::run_swarm`]).
//!   `PAXI_REACTOR_MAX_CONNS` caps this grid for fd-limited environments
//!   (CI runs with a 1,000-connection cap and a raised ulimit).

use crate::table::Table;

/// Column layout shared by the real run and the non-unix stub.
const COLS: &[&str] = &[
    "clients",
    "conns_target",
    "conns_achieved",
    "tput_ops_s",
    "unexplained_drops",
];

const TITLE: &str = "Connection scalability: blocking and pipelined clients (3-node TCP Paxos)";

#[cfg(unix)]
mod imp {
    use super::{COLS, TITLE};
    use crate::table::{f0, Table};
    use paxi_core::config::ClusterConfig;
    use paxi_core::id::NodeId;
    use paxi_core::obs::DropCause;
    use paxi_protocols::paxos::{paxos_cluster, PaxosConfig};
    use paxi_transport::{run_swarm, TcpCluster};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Requests each swarm connection keeps in flight.
    const PIPELINE_WINDOW: usize = 4;

    /// Optional ceiling on the pipelined connection grid, for fd-limited
    /// environments.
    fn conns_cap() -> usize {
        std::env::var("PAXI_REACTOR_MAX_CONNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(usize::MAX)
    }

    pub(super) fn run(quick: bool) -> Vec<Table> {
        let cluster = ClusterConfig::lan(3);
        let window = if quick {
            Duration::from_millis(400)
        } else {
            Duration::from_secs(2)
        };
        let blocking_grid: &[usize] = if quick {
            &[1, 8, 32]
        } else {
            &[1, 16, 64, 256]
        };
        let cap = conns_cap();
        let pipelined_grid: &[usize] = if quick {
            &[1, 32, 256]
        } else {
            &[1, 64, 1024, 10_240]
        };
        let mut pipelined_grid: Vec<usize> = pipelined_grid.iter().map(|&c| c.min(cap)).collect();
        pipelined_grid.dedup();

        type Point = fn(&ClusterConfig, usize, Duration) -> (usize, f64, u64);
        let shapes: [(&str, &[usize], Point); 2] = [
            ("blocking", blocking_grid, blocking_point),
            ("pipelined", &pipelined_grid, pipelined_point),
        ];
        let mut t = Table::new(TITLE, COLS);
        for (clients, grid, point) in shapes {
            for &conns in grid {
                let (achieved, tput, unexplained) = point(&cluster, conns, window);
                t.row(vec![
                    clients.to_string(),
                    conns.to_string(),
                    achieved.to_string(),
                    f0(tput),
                    unexplained.to_string(),
                ]);
            }
        }
        vec![t]
    }

    /// One blocking-clients point: `conns` clients, each on its own thread,
    /// closed-loop puts until the window closes.
    fn blocking_point(
        cluster: &ClusterConfig,
        conns: usize,
        window: Duration,
    ) -> (usize, f64, u64) {
        let run = TcpCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
        )
        .expect("launch cluster");
        let attach = NodeId::new(0, 0);
        let mut clients = Vec::new();
        for _ in 0..conns {
            // Brief retry: a burst of connects can transiently outrun the
            // accept loop.
            for attempt in 0..20u32 {
                match run.client(attach) {
                    Ok(c) => {
                        clients.push(c);
                        break;
                    }
                    Err(e) if attempt == 19 => panic!("blocking client connect: {e}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        let achieved = clients.len();
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        let mut workers = Vec::new();
        for (i, mut client) in clients.into_iter().enumerate() {
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                client.set_timeout(Duration::from_secs(2));
                let mut done = 0u64;
                let mut seq = 0u64;
                let key_base = (i as u64 * 131) % 1024;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(resp) = client.put(key_base, vec![seq as u8]) {
                        if resp.ok {
                            done += 1;
                        }
                    }
                    seq += 1;
                }
                done
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let completed: u64 = workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
        let elapsed = start.elapsed();
        let unexplained = run.drops().get(DropCause::Unexplained);
        run.shutdown();
        (
            achieved,
            completed as f64 / elapsed.as_secs_f64().max(1e-9),
            unexplained,
        )
    }

    /// One pipelined point: `conns` connections driven from a single swarm
    /// thread.
    fn pipelined_point(
        cluster: &ClusterConfig,
        conns: usize,
        window: Duration,
    ) -> (usize, f64, u64) {
        let run = TcpCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
        )
        .expect("launch cluster");
        let report = run_swarm(
            run.addr(NodeId::new(0, 0)),
            conns,
            PIPELINE_WINDOW,
            4_000_000,
            window,
        )
        .expect("swarm");
        let unexplained = run.drops().get(DropCause::Unexplained);
        run.shutdown();
        (report.connected, report.throughput(), unexplained)
    }
}

/// Builds the connection-scalability table. On non-unix targets (no
/// `poll(2)`, so no TCP runtime) the table is emitted empty.
#[cfg(unix)]
pub fn run(quick: bool) -> Vec<Table> {
    imp::run(quick)
}

/// Non-unix stub: the TCP runtime needs `poll(2)`.
#[cfg(not(unix))]
pub fn run(_quick: bool) -> Vec<Table> {
    vec![Table::new(TITLE, COLS)]
}

#[cfg(all(test, unix))]
mod tests {
    #[test]
    fn every_point_connects_completes_work_and_explains_its_drops() {
        let tables = super::run(true);
        let t = &tables[0];
        for clients in ["blocking", "pipelined"] {
            let rows: Vec<_> = t.rows.iter().filter(|r| r[0] == clients).collect();
            assert_eq!(rows.len(), 3, "the quick {clients} grid has three points");
            for r in rows {
                assert_eq!(r[1], r[2], "{clients} fell short of its connection target");
                assert!(r[3].parse::<f64>().expect("numeric cell") > 0.0, "{r:?}");
                assert_eq!(r[4], "0", "unexplained drops in a {clients} run");
            }
        }
        if std::env::var("PAXI_REACTOR_MAX_CONNS").is_err() {
            assert!(
                t.rows.iter().any(|r| r[1] == "256"),
                "quick grid tops out at 256"
            );
        }
    }
}
