//! Batching equivalence: batch size is a performance knob, never a
//! correctness knob.
//!
//! Two families of guarantees:
//!
//! 1. **Batch-size invariance of the committed history.** A lockstep
//!    message bus drives real [`MultiPaxos`] replicas through a seeded
//!    request schedule; for any seed, the executed per-key history, the
//!    reply sequence, and the replicated stores must be identical across
//!    `max_batch ∈ {1, 4, 16}` — batch boundaries change how commands are
//!    packed into slots, not what the state machine observes.
//!
//! 2. **`max_batch = 1` is the pre-batching protocol, bit for bit.** The
//!    unbatched fast path takes the exact code path that existed before
//!    batching, so a batched(1) run must reproduce the stock determinism
//!    fingerprints and nemesis digests unchanged.

use paxi::bench::{run, BenchmarkConfig, GeneralWorkload, NemesisConfig, Proto, Scenario};
use paxi::core::dist::forall;
use paxi::core::{
    ClientId, ClientRequest, ClientResponse, ClusterConfig, Command, Context, Nanos, NodeId,
    Replica, RequestId, Rng64, StoreDump,
};
use paxi::protocols::paxos::{MultiPaxos, PaxosConfig, PaxosMsg};
use paxi::protocols::raft::RaftConfig;
use paxi::sim::{ClientSetup, SimConfig, Topology};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Lockstep bus: a minimal synchronous runtime for a replica group.
//
// Messages are delivered in FIFO order with zero latency and zero loss;
// timers are fired explicitly by the test between delivery rounds. The clock
// never advances (every `now()` is zero), so election timeouts cannot expire
// and the initial leader stays the leader — exactly the regime in which the
// committed history must be a pure function of the request schedule.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Bus {
    /// In-flight protocol messages `(from, to, msg)`.
    msgs: VecDeque<(NodeId, NodeId, PaxosMsg)>,
    /// Forwarded client requests `(to, req)`.
    reqs: VecDeque<(NodeId, ClientRequest)>,
    /// Armed timers `(node, kind, token)`; fired once per settle round.
    timers: Vec<(NodeId, u64, u64)>,
    /// Client replies in emission order.
    replies: Vec<ClientResponse>,
    next_token: u64,
}

struct BusCtx<'a> {
    id: NodeId,
    nodes: &'a [NodeId],
    bus: &'a mut Bus,
}

impl Context<PaxosMsg> for BusCtx<'_> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> Nanos {
        Nanos::ZERO
    }
    fn send(&mut self, to: NodeId, msg: PaxosMsg) {
        self.bus.msgs.push_back((self.id, to, msg));
    }
    fn broadcast(&mut self, msg: PaxosMsg) {
        for &n in self.nodes {
            if n != self.id {
                self.bus.msgs.push_back((self.id, n, msg.clone()));
            }
        }
    }
    fn multicast(&mut self, to: &[NodeId], msg: PaxosMsg) {
        for &n in to {
            self.bus.msgs.push_back((self.id, n, msg.clone()));
        }
    }
    fn set_timer(&mut self, _after: Nanos, kind: u64) -> u64 {
        self.bus.next_token += 1;
        let token = self.bus.next_token;
        self.bus.timers.push((self.id, kind, token));
        token
    }
    fn reply(&mut self, resp: ClientResponse) {
        self.bus.replies.push(resp);
    }
    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        self.bus.reqs.push_back((to, req));
    }
    fn rand_u64(&mut self) -> u64 {
        0x9E37_79B9_7F4A_7C15
    }
}

struct Group {
    nodes: Vec<NodeId>,
    replicas: Vec<MultiPaxos>,
    bus: Bus,
}

impl Group {
    fn new(n: u8, max_batch: usize) -> Self {
        let cluster = ClusterConfig::lan(n);
        // Failover off: no election timers, so the only timers in play are
        // the leader's heartbeat and the batch hold-down.
        let cfg = PaxosConfig {
            enable_failover: false,
            ..PaxosConfig::batched(max_batch)
        };
        let nodes = cluster.all_nodes();
        let replicas = nodes
            .iter()
            .map(|&id| MultiPaxos::new(id, cluster.clone(), cfg.clone()))
            .collect::<Vec<_>>();
        let mut g = Group {
            nodes,
            replicas,
            bus: Bus::default(),
        };
        for i in 0..g.replicas.len() {
            let id = g.nodes[i];
            let mut ctx = BusCtx {
                id,
                nodes: &g.nodes,
                bus: &mut g.bus,
            };
            g.replicas[i].on_start(&mut ctx);
        }
        g.settle(3);
        g
    }

    /// Delivers every in-flight message and forwarded request to quiescence.
    fn drain(&mut self) {
        loop {
            if let Some((from, to, msg)) = self.bus.msgs.pop_front() {
                let i = self.index(to);
                let mut ctx = BusCtx {
                    id: to,
                    nodes: &self.nodes,
                    bus: &mut self.bus,
                };
                self.replicas[i].on_message(from, msg, &mut ctx);
                continue;
            }
            if let Some((to, req)) = self.bus.reqs.pop_front() {
                let i = self.index(to);
                let mut ctx = BusCtx {
                    id: to,
                    nodes: &self.nodes,
                    bus: &mut self.bus,
                };
                self.replicas[i].on_request(req, &mut ctx);
                continue;
            }
            break;
        }
    }

    /// `rounds` iterations of: drain, fire every armed timer once, drain.
    /// One round flushes a pending partial batch (batch timer) and commits
    /// it (phase-2 exchange); a second delivers the heartbeat's commit flush
    /// to the followers. Firing each timer at most once per round keeps the
    /// self-re-arming heartbeat from looping forever.
    fn settle(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.drain();
            for (node, kind, token) in std::mem::take(&mut self.bus.timers) {
                let i = self.index(node);
                let mut ctx = BusCtx {
                    id: node,
                    nodes: &self.nodes,
                    bus: &mut self.bus,
                };
                self.replicas[i].on_timer(kind, token, &mut ctx);
            }
            self.drain();
        }
    }

    fn submit(&mut self, req: ClientRequest) {
        // Delivered to the initial leader, as a smart client would.
        self.bus.reqs.push_back((self.nodes[0], req));
        self.drain();
    }

    fn index(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|&n| n == id)
            .expect("message to unknown node")
    }

    fn dumps(&self) -> Vec<StoreDump> {
        self.replicas
            .iter()
            .map(|r| r.store().expect("paxos exposes a store").dump())
            .collect()
    }
}

/// A seeded schedule of commands, split into bursts: within a burst requests
/// arrive back-to-back (so batches actually form), and between bursts the
/// group settles (so hold-down timers fire on partial batches).
fn schedule(seed: u64, total: usize) -> Vec<Vec<ClientRequest>> {
    let mut rng = Rng64::seed(seed);
    let client = ClientId(7);
    let mut bursts = Vec::new();
    let mut seq = 0u64;
    while seq < total as u64 {
        let burst_len = (1 + rng.below(6)).min(total as u64 - seq);
        let mut burst = Vec::new();
        for _ in 0..burst_len {
            let key = rng.below(8);
            let cmd = if rng.below(4) == 0 {
                Command::get(key)
            } else {
                Command::put(key, vec![seq as u8, (seq >> 8) as u8, 0x5A])
            };
            burst.push(ClientRequest {
                id: RequestId::new(client, seq),
                cmd,
            });
            seq += 1;
        }
        bursts.push(burst);
    }
    bursts
}

/// Runs the schedule against a fresh 3-node group and returns the replies
/// plus every replica's final store dump.
fn run_lockstep(seed: u64, max_batch: usize) -> (Vec<ClientResponse>, Vec<StoreDump>) {
    let total = 96;
    let mut g = Group::new(3, max_batch);
    for burst in schedule(seed, total) {
        for req in burst {
            g.submit(req);
        }
        g.settle(2);
    }
    g.settle(3);
    let replies = std::mem::take(&mut g.bus.replies);
    assert_eq!(replies.len(), total, "every command gets exactly one reply");
    assert!(
        replies.iter().all(|r| r.ok),
        "no command fails on the happy path"
    );
    let dumps = g.dumps();
    for (i, d) in dumps.iter().enumerate() {
        assert_eq!(d, &dumps[0], "replica {i} diverged from the leader");
    }
    (replies, dumps)
}

/// For any seed, the reply sequence and the replicated stores are
/// identical whether the leader packs 1, 4, or 16 commands per slot.
#[test]
fn committed_history_is_invariant_under_batch_size() {
    forall(16, |rng| {
        let seed = rng.next_u64();
        let baseline = run_lockstep(seed, 1);
        for batch in [4usize, 16] {
            let batched = run_lockstep(seed, batch);
            assert_eq!(
                &batched.0, &baseline.0,
                "replies diverged at max_batch={}",
                batch
            );
            assert_eq!(
                &batched.1, &baseline.1,
                "stores diverged at max_batch={}",
                batch
            );
        }
    });
}

// ---------------------------------------------------------------------------
// max_batch = 1 reproduces the stock protocol exactly.
// ---------------------------------------------------------------------------

/// The determinism-suite fingerprint (see `tests/determinism.rs`).
fn fingerprint(proto: &Proto, seed: u64) -> (u64, u64, u64, String) {
    let cluster = ClusterConfig::wan(3, 3);
    let sim = SimConfig {
        seed,
        topology: Topology::lan_zones(3),
        warmup: Nanos::millis(200),
        measure: Nanos::secs(1),
        record_ops: true,
        ..SimConfig::default()
    };
    let clients = ClientSetup::closed_per_zone(&cluster, 3);
    run(
        proto,
        sim,
        cluster,
        GeneralWorkload::new(BenchmarkConfig::uniform(50, 0.5), 3),
        clients,
    )
    .fingerprint()
}

#[test]
fn batch_of_one_matches_the_unbatched_determinism_fingerprint() {
    for seed in [1u64, 1234] {
        let stock = fingerprint(&Proto::paxos(), seed);
        let batched = fingerprint(&Proto::Paxos(PaxosConfig::batched(1)), seed);
        assert_eq!(
            batched, stock,
            "paxos batched(1) diverged from stock at seed {seed}"
        );

        let stock = fingerprint(&Proto::Raft(RaftConfig::default()), seed);
        let batched = fingerprint(&Proto::Raft(RaftConfig::batched(1)), seed);
        assert_eq!(
            batched, stock,
            "raft batched(1) diverged from stock at seed {seed}"
        );
    }
}

#[test]
fn batch_of_one_leaves_nemesis_outcomes_unchanged() {
    let sim = || SimConfig {
        warmup: Nanos::millis(100),
        measure: Nanos::millis(3_900),
        ..SimConfig::default()
    };
    let cfg = NemesisConfig {
        seed: 13,
        ..Default::default()
    };
    let run = |proto| Scenario::nemesis(&proto, sim(), ClusterConfig::lan(5), &cfg).run();
    let stock = run(Proto::paxos());
    let batched = run(Proto::Paxos(PaxosConfig::batched(1)));
    let schedule = |v: &paxi::bench::Verdict| v.scenario.schedule.digest();
    assert_eq!(
        schedule(&batched),
        schedule(&stock),
        "schedule digests diverged"
    );
    assert_eq!(
        batched.report.completed, stock.report.completed,
        "completed counts diverged"
    );
    assert_eq!(
        batched.tail_completed, stock.tail_completed,
        "tail progress diverged"
    );
    assert_eq!(batched.digest(), stock.digest(), "verdicts diverged");
    assert!(stock.passed() && batched.passed(), "{stock}\n{batched}");
}
