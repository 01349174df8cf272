//! TCP-runtime integration: pipelined clients under chaos.
//!
//! **Pipelining is exactly-once.** A `PipelinedClient` with N requests in
//! flight over one connection, against a cluster whose peer links drop and
//! reorder frames, claims every reply exactly once (correlated by request
//! id) and converges to the same final state as a sequential `SyncClient`
//! run of the same commands on a chaos-free cluster. (The flaky-link
//! survival test with the blocking API is in `chaos_transport.rs`.)

#![cfg(unix)]

use paxi::core::dist::forall;
use paxi::core::obs::DropCause;
use paxi::core::{ClusterConfig, Command, FaultPlan, Nanos, NodeId};
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::transport::{InProcCluster, TcpCluster};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

fn n(i: u8) -> NodeId {
    NodeId::new(0, i)
}

// Each case launches two real clusters; keep the case count low.
#[test]
fn pipelined_chaos_run_matches_sequential_reference() {
    forall(6, |rng| {
        let seed = rng.below(1_000);
        // Distinct keys (a map) so final state is order-independent and a
        // retried put is idempotent.
        let kvs: BTreeMap<u64, Vec<u8>> = (0..1 + rng.below(15))
            .map(|_| {
                let (key, len) = (rng.below(64), 1 + rng.below(7));
                (key, (0..len).map(|_| rng.next_u64() as u8).collect())
            })
            .collect();
        let kvs: Vec<(u64, Vec<u8>)> = kvs.into_iter().collect();
        let cluster = ClusterConfig::lan(3);

        // Sequential reference: SyncClient on the chaos-free in-process
        // cluster, same commands in submission order.
        let reference = InProcCluster::launch(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
        );
        let mut ref_client = reference.client(n(0));
        ref_client.set_timeout(Duration::from_secs(5));
        for (k, v) in &kvs {
            let r = ref_client.put(*k, v.clone()).expect("reference put");
            assert!(r.ok);
        }
        let mut expect = Vec::new();
        for (k, _) in &kvs {
            let r = ref_client.get(*k).expect("reference get");
            expect.push((*k, r.value));
        }
        reference.shutdown();

        // Subject: every command in flight at once on one pipelined
        // connection, peer links flaky until they heal, fates fixed by seed.
        let mut plan = FaultPlan::new();
        plan.flaky_link(n(0), n(1), 0.15, Nanos::ZERO, Nanos::millis(300));
        plan.flaky_link(n(1), n(0), 0.15, Nanos::ZERO, Nanos::millis(300));
        plan.heal(Nanos::millis(300));
        let run = TcpCluster::launch_chaotic(
            cluster.clone(),
            paxos_cluster(cluster.clone(), PaxosConfig::batched(8)),
            plan,
            seed,
        )
        .expect("launch");
        let mut client = run.client(n(0)).expect("client");
        client.set_timeout(Duration::from_millis(400));

        // Submit the whole batch, then claim each reply; commands whose
        // reply never arrived (dropped P2as, timeouts) are resubmitted under
        // fresh request ids until they commit. Every claimed reply must
        // correlate to its own request, and no id is ever claimed twice.
        let mut pending: Vec<(u64, Vec<u8>)> = kvs.clone();
        let mut claimed = HashSet::new();
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds <= 50, "commands never all committed");
            let mut ids = Vec::new();
            for (k, v) in &pending {
                let id = client.submit(Command::put(*k, v.clone())).expect("submit");
                assert!(claimed.insert(id), "request id reused");
                ids.push(id);
            }
            let mut next = Vec::new();
            for (i, id) in ids.iter().enumerate() {
                match client.await_response(*id) {
                    Some(resp) => {
                        assert_eq!(resp.id, *id, "reply claimed by the wrong await");
                        if !resp.ok {
                            next.push(pending[i].clone());
                        }
                    }
                    None => next.push(pending[i].clone()),
                }
            }
            pending = next;
        }

        // Converged state equals the sequential reference.
        client.set_timeout(Duration::from_secs(5));
        for (k, v) in &expect {
            let r = client.get(*k).expect("get");
            assert_eq!(&r.value, v, "key {}", k);
        }
        assert_eq!(run.drops().get(DropCause::Unexplained), 0);
        run.shutdown();
    });
}
