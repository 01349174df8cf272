//! WPaxos: multi-leader WAN Paxos with flexible grid quorums.
//!
//! WPaxos shards leadership per object: every (zone-designated) leader owns a
//! set of keys and runs phase-2 for them independently. Ownership moves by
//! running phase-1 *for that key* over a wide q1 quorum — object migration is
//! plain Paxos, so no external master is needed (contrast with Vertical
//! Paxos and WanKeeper). Quorums come from the flexible grid
//! ([`paxi_core::quorum::FlexibleGridQuorum`]): with zone-failure tolerance
//! `fz = 0`, a phase-2 quorum fits inside the leader's own zone, giving
//! local-area commit latency for local keys; `fz ≥ 1` pays one extra zone per
//! commit but survives region outages — exactly the WPaxos `fz=0`/`fz=1`
//! trade the paper's Figure 11 measures.
//!
//! Locality adaptation uses the paper's simple three-consecutive-access
//! policy, evaluated at the key's **owner** (the only node that sees every
//! access): requests for a remotely-owned key are submitted to its owner,
//! which tracks the origin zones of the last [`WPaxosConfig::window`]
//! accesses; when they are unanimously from one remote zone, the owner sends
//! that zone's leader a handover hint and the new zone steals the key with a
//! phase-1. Objects contested from several zones keep being served by their
//! current owner — interfering commands are forwarded, not ping-ponged
//! (paper §5.3, observation 1).

use paxi_core::ballot::Ballot;
use paxi_core::command::{ClientRequest, ClientResponse, Command, Key};
use paxi_core::config::ClusterConfig;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::quorum::{FlexibleGridQuorum, GridPhase, QuorumTracker};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const TIMER_COMMIT_FLUSH: u64 = 1;
/// Commit-flush (piggybacked phase-3) period.
const FLUSH_INTERVAL: Nanos = Nanos::millis(10);

/// Tuning knobs for [`WPaxos`].
#[derive(Debug, Clone)]
pub struct WPaxosConfig {
    /// Node-failure tolerance per zone (grid `f`).
    pub f: u8,
    /// Zone-failure tolerance (grid `fz`). `0` = region-local commits.
    pub fz: u8,
    /// Length of the per-key access window the owner's adaptation policy
    /// looks at (the paper's three-consecutive-access policy).
    pub window: usize,
    /// If set, every key is initially owned by this node (the paper's
    /// locality experiment starts with all objects in Ohio). When unset,
    /// keys are hash-partitioned across the zone leaders (`key % zones`),
    /// the balanced default a fresh deployment starts from.
    pub initial_owner: Option<NodeId>,
}

impl Default for WPaxosConfig {
    fn default() -> Self {
        WPaxosConfig {
            f: 1,
            fz: 0,
            window: 3,
            initial_owner: None,
        }
    }
}

impl WPaxosConfig {
    /// Config with the given zone fault-tolerance.
    pub fn with_fz(fz: u8) -> Self {
        WPaxosConfig {
            fz,
            ..Default::default()
        }
    }
}

/// `(slot, ballot, cmd, req)` entries above an acceptor's commit point.
type Tail = Vec<(u64, Ballot, Command, Option<RequestId>)>;

/// Wire messages of WPaxos. All per-key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WPaxosMsg {
    /// Phase-1a for one key: ownership acquisition over a q1 quorum.
    P1a {
        /// Key being stolen.
        key: Key,
        /// Thief's ballot for the key.
        ballot: Ballot,
        /// The thief's commit index for the key: acceptors send their log
        /// from here, *including* entries they already know are committed —
        /// the thief may be behind the commit flush, and skipping those
        /// slots would leave a permanent gap in its log.
        commit_upto: u64,
    },
    /// Phase-1b promise with the acceptor's uncommitted tail for the key.
    P1b {
        /// Key.
        key: Key,
        /// Promised ballot.
        ballot: Ballot,
        /// `(slot, ballot, cmd, req)` above the acceptor's commit point.
        tail: Tail,
    },
    /// Rejection carrying the higher ballot the sender promised.
    Nack {
        /// Key.
        key: Key,
        /// The higher ballot.
        ballot: Ballot,
    },
    /// Phase-2a for one slot of one key's log.
    P2a {
        /// Key.
        key: Key,
        /// Owner's ballot.
        ballot: Ballot,
        /// Per-key slot.
        slot: u64,
        /// Proposed command.
        cmd: Command,
        /// Client request to answer once executed.
        req: Option<RequestId>,
        /// Slots `< commit_upto` of this key are committed (piggybacked
        /// phase-3).
        commit_upto: u64,
    },
    /// Phase-2b acceptance.
    P2b {
        /// Key.
        key: Key,
        /// Accepted ballot.
        ballot: Ballot,
        /// Accepted slot.
        slot: u64,
    },
    /// Periodic batched commit flush: `(key, commit_upto)` pairs.
    CommitBatch {
        /// Commit indexes per key.
        items: Vec<(Key, u64)>,
    },
    /// A request for a remotely-owned key, submitted to its owner with the
    /// originating zone (drives the owner-side adaptation policy).
    Submit {
        /// Zone the request originated in.
        zone: u8,
        /// The client request.
        req: ClientRequest,
        /// Forwarding hops so far; ownership beliefs can be mutually stale
        /// for a moment, and a bounded chase falls back to a phase-1 (which
        /// establishes the truth) instead of looping.
        hops: u8,
    },
    /// Owner-side policy verdict: locality has settled in the recipient's
    /// zone; it should steal the key.
    Handover {
        /// The key to steal.
        key: Key,
    },
}

#[derive(Debug)]
struct KEntry {
    ballot: Ballot,
    cmd: Command,
    req: Option<RequestId>,
    q2: FlexibleGridQuorum,
    committed: bool,
}

struct KeyState {
    ballot: Ballot,
    owner: Option<NodeId>,
    active: bool,
    log: BTreeMap<u64, KEntry>,
    next_slot: u64,
    commit_upto: u64,
    execute_upto: u64,
    /// Slots below this are already marked committed (incremental scan).
    marked_upto: u64,
    pending: Vec<ClientRequest>,
    p1: Option<FlexibleGridQuorum>,
    p1_tails: Vec<Tail>,
    /// When the in-flight phase-1 started (liveness watchdog).
    p1_started: Nanos,
    /// Owner-side: origin zones of the most recent accesses.
    recent: std::collections::VecDeque<u8>,
}

impl KeyState {
    fn new(initial_owner: Option<NodeId>) -> Self {
        KeyState {
            ballot: Ballot::default(),
            owner: initial_owner,
            active: false,
            log: BTreeMap::new(),
            next_slot: 0,
            commit_upto: 0,
            execute_upto: 0,
            marked_upto: 0,
            pending: Vec::new(),
            p1: None,
            p1_tails: Vec::new(),
            p1_started: Nanos::ZERO,
            recent: std::collections::VecDeque::new(),
        }
    }
}

/// A WPaxos replica.
pub struct WPaxos {
    id: NodeId,
    cluster: ClusterConfig,
    cfg: WPaxosConfig,
    keys: HashMap<Key, KeyState>,
    /// Keys whose commit index moved since the last flush. This set and
    /// the next are ordered: `on_timer` sends in their iteration order, and
    /// a run must not depend on the process's hash keys.
    dirty: BTreeSet<Key>,
    /// Keys with an in-flight phase-1, watched for liveness.
    p1_inflight: BTreeSet<Key>,
    store: MultiVersionStore,
}

impl WPaxos {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig, cfg: WPaxosConfig) -> Self {
        assert!(cfg.f < cluster.per_zone && cfg.fz < cluster.zones);
        WPaxos {
            id,
            cluster,
            cfg,
            keys: HashMap::new(),
            dirty: BTreeSet::new(),
            p1_inflight: BTreeSet::new(),
            store: MultiVersionStore::new(),
        }
    }

    /// Whether this node may lead (steal and own keys): node `z.0` only.
    pub fn leader_capable(&self) -> bool {
        self.id.node == 0
    }

    /// Number of keys this node currently owns (phase-1 complete).
    pub fn owned_keys(&self) -> usize {
        self.keys.values().filter(|k| k.active).count()
    }

    fn q1(&self) -> FlexibleGridQuorum {
        FlexibleGridQuorum::new(
            self.cluster.zones,
            self.cluster.per_zone,
            self.cfg.f,
            self.cfg.fz,
            GridPhase::One,
        )
    }

    fn q2(&self) -> FlexibleGridQuorum {
        FlexibleGridQuorum::new(
            self.cluster.zones,
            self.cluster.per_zone,
            self.cfg.f,
            self.cfg.fz,
            GridPhase::Two,
        )
    }

    fn key_state(&mut self, key: Key) -> &mut KeyState {
        let init = self
            .cfg
            .initial_owner
            .unwrap_or_else(|| NodeId::new((key % self.cluster.zones as u64) as u8, 0));
        self.keys
            .entry(key)
            .or_insert_with(|| KeyState::new(Some(init)))
    }

    fn start_phase1(&mut self, key: Key, ctx: &mut dyn Context<WPaxosMsg>) {
        let me = self.id;
        let now = ctx.now();
        let mut q1 = self.q1();
        q1.ack(me);
        self.p1_inflight.insert(key);
        let ks = self.key_state(key);
        ks.ballot = ks.ballot.next(me);
        ks.active = false;
        ks.p1_started = now;
        let ballot = ks.ballot;
        let tail: Vec<_> = ks
            .log
            .range(ks.commit_upto..)
            .map(|(s, e)| (*s, e.ballot, e.cmd.clone(), e.req))
            .collect();
        let commit_upto = ks.commit_upto;
        ks.p1_tails = vec![tail];
        if q1.satisfied() {
            ks.p1 = Some(q1);
            self.become_owner(key, ctx);
            return;
        }
        ks.p1 = Some(q1);
        ctx.broadcast(WPaxosMsg::P1a {
            key,
            ballot,
            commit_upto,
        });
    }

    fn become_owner(&mut self, key: Key, ctx: &mut dyn Context<WPaxosMsg>) {
        let me = self.id;
        self.p1_inflight.remove(&key);
        let ks = self.keys.get_mut(&key).unwrap();
        ks.active = true;
        ks.owner = Some(me);
        ks.p1 = None;
        ks.recent.clear();
        let mut merged: BTreeMap<u64, (Ballot, Command, Option<RequestId>)> = BTreeMap::new();
        for tail in std::mem::take(&mut ks.p1_tails) {
            for (slot, b, cmd, req) in tail {
                match merged.get(&slot) {
                    Some((mb, _, _)) if *mb >= b => {}
                    _ => {
                        merged.insert(slot, (b, cmd, req));
                    }
                }
            }
        }
        if let Some((&max_slot, _)) = merged.iter().next_back() {
            ks.next_slot = ks.next_slot.max(max_slot + 1);
        }
        ks.next_slot = ks.next_slot.max(ks.commit_upto);
        let commit_upto = ks.commit_upto;
        let pending = std::mem::take(&mut ks.pending);
        for (slot, (_, cmd, req)) in merged {
            if slot < commit_upto {
                continue;
            }
            self.propose_in_slot(key, slot, cmd, req, ctx);
        }
        for req in pending {
            self.propose(key, req, ctx);
        }
    }

    fn propose(&mut self, key: Key, req: ClientRequest, ctx: &mut dyn Context<WPaxosMsg>) {
        let ks = self.keys.get_mut(&key).unwrap();
        let slot = ks.next_slot;
        ks.next_slot += 1;
        self.propose_in_slot(key, slot, req.cmd, Some(req.id), ctx);
    }

    fn propose_in_slot(
        &mut self,
        key: Key,
        slot: u64,
        cmd: Command,
        req: Option<RequestId>,
        ctx: &mut dyn Context<WPaxosMsg>,
    ) {
        let me = self.id;
        let mut q2 = self.q2();
        q2.ack(me);
        let ks = self.keys.get_mut(&key).unwrap();
        let ballot = ks.ballot;
        ks.log.insert(
            slot,
            KEntry {
                ballot,
                cmd: cmd.clone(),
                req,
                q2,
                committed: false,
            },
        );
        ks.next_slot = ks.next_slot.max(slot + 1);
        let commit_upto = ks.commit_upto;
        ctx.broadcast(WPaxosMsg::P2a {
            key,
            ballot,
            slot,
            cmd,
            req,
            commit_upto,
        });
        self.maybe_commit(key, ctx);
    }

    fn maybe_commit(&mut self, key: Key, ctx: &mut dyn Context<WPaxosMsg>) {
        let ks = self.keys.get_mut(&key).unwrap();
        let active = ks.active;
        let mut advanced = false;
        loop {
            let upto = ks.commit_upto;
            let Some(e) = ks.log.get_mut(&upto) else {
                break;
            };
            if e.committed || (active && e.q2.satisfied()) {
                e.committed = true;
                ks.commit_upto += 1;
                advanced = true;
            } else {
                break;
            }
        }
        if advanced && active {
            self.dirty.insert(key);
        }
        self.execute(key, ctx);
    }

    fn execute(&mut self, key: Key, ctx: &mut dyn Context<WPaxosMsg>) {
        loop {
            let ks = self.keys.get_mut(&key).unwrap();
            if ks.execute_upto >= ks.commit_upto {
                break;
            }
            let slot = ks.execute_upto;
            let Some(e) = ks.log.get(&slot) else { break };
            if !e.committed {
                break;
            }
            let cmd = e.cmd.clone();
            let req = e.req;
            let active = ks.active;
            ks.execute_upto += 1;
            let value = self.store.execute(&cmd);
            if active {
                if let Some(id) = req {
                    ctx.reply(ClientResponse::ok(id, value));
                }
            }
        }
    }
}

impl Replica for WPaxos {
    type Msg = WPaxosMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<WPaxosMsg>) {
        ctx.set_timer(FLUSH_INTERVAL, TIMER_COMMIT_FLUSH);
    }

    fn on_message(&mut self, from: NodeId, msg: WPaxosMsg, ctx: &mut dyn Context<WPaxosMsg>) {
        match msg {
            WPaxosMsg::P1a {
                key,
                ballot,
                commit_upto: thief_commit,
            } => {
                let my_zone = self.id.zone;
                let ks = self.key_state(key);
                if ballot > ks.ballot {
                    ks.ballot = ballot;
                    ks.active = false;
                    ks.owner = Some(ballot.id);
                    ks.recent.clear();
                    // A competing thief outbid our own in-flight phase-1:
                    // abort it and hand our buffered requests to the winner,
                    // or they would wait forever on stale-ballot promises.
                    if ks.p1.take().is_some() {
                        let owner = ballot.id;
                        for req in std::mem::take(&mut ks.pending) {
                            ctx.send(
                                owner,
                                WPaxosMsg::Submit {
                                    zone: my_zone,
                                    req,
                                    hops: 0,
                                },
                            );
                        }
                        self.p1_inflight.remove(&key);
                    }
                    let ks = self.key_state(key);
                    // Send from the *thief's* commit point: it may lack
                    // entries we already committed.
                    let start = thief_commit.min(ks.commit_upto);
                    let tail: Vec<_> = ks
                        .log
                        .range(start..)
                        .map(|(s, e)| (*s, e.ballot, e.cmd.clone(), e.req))
                        .collect();
                    ctx.send(from, WPaxosMsg::P1b { key, ballot, tail });
                } else {
                    let b = ks.ballot;
                    ctx.send(from, WPaxosMsg::Nack { key, ballot: b });
                }
            }
            WPaxosMsg::P1b { key, ballot, tail } => {
                let ks = self.key_state(key);
                if ballot == ks.ballot && !ks.active {
                    if let Some(q) = ks.p1.as_mut() {
                        if q.ack(from) {
                            ks.p1_tails.push(tail);
                        }
                        if q.satisfied() {
                            self.become_owner(key, ctx);
                        }
                    }
                }
            }
            WPaxosMsg::Nack { key, ballot } => {
                let ks = self.key_state(key);
                if ballot > ks.ballot {
                    self.p1_inflight.remove(&key);
                    let ks = self.key_state(key);
                    ks.ballot = ballot;
                    ks.active = false;
                    ks.p1 = None;
                    ks.owner = Some(ballot.id);
                    ks.recent.clear();
                    // Hand buffered requests to the stronger owner.
                    let owner = ballot.id;
                    for req in std::mem::take(&mut ks.pending) {
                        ctx.send(
                            owner,
                            WPaxosMsg::Submit {
                                zone: self.id.zone,
                                req,
                                hops: 0,
                            },
                        );
                    }
                }
            }
            WPaxosMsg::P2a {
                key,
                ballot,
                slot,
                cmd,
                req,
                commit_upto,
            } => {
                let q2 = self.q2();
                let my_id = self.id;
                {
                    let ks = self.key_state(key);
                    if ballot > ks.ballot && ks.p1.take().is_some() {
                        // Same superseded-phase-1 situation via phase-2.
                        let owner = ballot.id;
                        let my_zone = my_id.zone;
                        for req in std::mem::take(&mut ks.pending) {
                            ctx.send(
                                owner,
                                WPaxosMsg::Submit {
                                    zone: my_zone,
                                    req,
                                    hops: 0,
                                },
                            );
                        }
                        self.p1_inflight.remove(&key);
                    }
                }
                let ks = self.key_state(key);
                if ballot >= ks.ballot {
                    ks.ballot = ballot;
                    ks.active = ballot.id == my_id;
                    ks.owner = Some(ballot.id);
                    let mut q = q2;
                    q.ack(ballot.id);
                    q.ack(my_id);
                    ks.log.insert(
                        slot,
                        KEntry {
                            ballot,
                            cmd,
                            req,
                            q2: q,
                            committed: slot < commit_upto,
                        },
                    );
                    if commit_upto > ks.marked_upto {
                        for (_, e) in ks.log.range_mut(ks.marked_upto..commit_upto) {
                            e.committed = true;
                        }
                        ks.marked_upto = commit_upto;
                    }
                    self.maybe_commit(key, ctx);
                    ctx.send(from, WPaxosMsg::P2b { key, ballot, slot });
                } else {
                    let b = ks.ballot;
                    ctx.send(from, WPaxosMsg::Nack { key, ballot: b });
                }
            }
            WPaxosMsg::P2b { key, ballot, slot } => {
                let ks = self.key_state(key);
                if ks.active && ballot == ks.ballot {
                    if let Some(e) = ks.log.get_mut(&slot) {
                        if e.ballot == ballot {
                            e.q2.ack(from);
                        }
                    }
                    self.maybe_commit(key, ctx);
                }
            }
            WPaxosMsg::Submit { zone, req, hops } => {
                let window = self.cfg.window;
                let my_zone = self.id.zone;
                let my_id = self.id;
                let key = req.cmd.key;
                let ks = self.key_state(key);
                if ks.p1.is_some() {
                    // We are acquiring this key right now: serve the request
                    // once phase-1 resolves. (Chasing a stale owner from
                    // here ping-pongs into competing steals.)
                    ks.pending.push(req);
                    return;
                }
                if !ks.active {
                    // Ownership moved on; chase the believed owner — or
                    // acquire the key ourselves if we are its nominal owner
                    // but have not run phase-1 yet (initial placement), or
                    // if the chase has gone on long enough that beliefs are
                    // clearly stale.
                    match ks.owner {
                        Some(owner) if owner != my_id && hops < 8 => {
                            ctx.send(
                                owner,
                                WPaxosMsg::Submit {
                                    zone,
                                    req,
                                    hops: hops + 1,
                                },
                            );
                        }
                        _ => {
                            ks.pending.push(req);
                            if ks.p1.is_none() {
                                self.start_phase1(key, ctx);
                            }
                        }
                    }
                    return;
                }
                ks.recent.push_back(zone);
                while ks.recent.len() > window {
                    ks.recent.pop_front();
                }
                let unanimous = ks.recent.len() == window
                    && ks.recent.iter().all(|&z| z == zone)
                    && zone != my_zone;
                if unanimous {
                    ks.recent.clear();
                    ctx.send(NodeId::new(zone, 0), WPaxosMsg::Handover { key });
                }
                self.propose(key, req, ctx);
            }
            WPaxosMsg::Handover { key } => {
                if !self.leader_capable() {
                    return;
                }
                let ks = self.key_state(key);
                if !ks.active && ks.p1.is_none() {
                    self.start_phase1(key, ctx);
                }
            }
            WPaxosMsg::CommitBatch { items } => {
                for (key, upto) in items {
                    let ks = self.key_state(key);
                    if upto > ks.marked_upto {
                        for (_, e) in ks.log.range_mut(ks.marked_upto..upto) {
                            e.committed = true;
                        }
                        ks.marked_upto = upto;
                    }
                    self.maybe_commit(key, ctx);
                }
            }
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<WPaxosMsg>) {
        if !self.leader_capable() {
            // One leader per zone: hand the request to our zone's leader.
            ctx.forward(NodeId::new(self.id.zone, 0), req);
            return;
        }
        let key = req.cmd.key;
        let window = self.cfg.window;
        let my_id = self.id;
        let my_zone = self.id.zone;
        let ks = self.key_state(key);
        if ks.active {
            // The policy window sees the owner's local traffic too, so a
            // remote zone only wins the key once it truly dominates access.
            ks.recent.push_back(my_zone);
            while ks.recent.len() > window {
                ks.recent.pop_front();
            }
            self.propose(key, req, ctx);
            return;
        }
        if ks.p1.is_some() {
            ks.pending.push(req);
            return;
        }
        match ks.owner {
            Some(owner) if owner != my_id => {
                ctx.send(
                    owner,
                    WPaxosMsg::Submit {
                        zone: my_zone,
                        req,
                        hops: 0,
                    },
                );
            }
            _ => {
                // Unowned key (or stale self-ownership): acquire it.
                ks.pending.push(req);
                self.start_phase1(key, ctx);
            }
        }
    }

    fn on_timer(&mut self, kind: u64, _token: u64, ctx: &mut dyn Context<WPaxosMsg>) {
        if kind == TIMER_COMMIT_FLUSH {
            // Liveness watchdog: restart any phase-1 stuck past the WAN
            // round-trip budget with a fresh, higher ballot. Residual races
            // (however rare) become delays instead of wedges.
            let now = ctx.now();
            let stuck: Vec<Key> = self
                .p1_inflight
                .iter()
                .copied()
                .filter(|k| {
                    self.keys
                        .get(k)
                        .map(|ks| {
                            ks.p1.is_some()
                                && now.saturating_sub(ks.p1_started) > Nanos::millis(1500)
                        })
                        .unwrap_or(false)
                })
                .collect();
            for key in stuck {
                self.keys.get_mut(&key).unwrap().p1 = None;
                self.start_phase1(key, ctx);
            }
            if !self.dirty.is_empty() {
                let items: Vec<(Key, u64)> = std::mem::take(&mut self.dirty)
                    .into_iter()
                    .map(|k| (k, self.keys[&k].commit_upto))
                    .collect();
                ctx.broadcast(WPaxosMsg::CommitBatch { items });
            }
            ctx.set_timer(FLUSH_INTERVAL, TIMER_COMMIT_FLUSH);
        }
    }

    fn protocol_name(&self) -> &'static str {
        "wpaxos"
    }

    /// Stable wire-type names for the per-type observability breakdown.
    fn msg_kind(msg: &WPaxosMsg) -> &'static str {
        match msg {
            WPaxosMsg::P1a { .. } => "p1a",
            WPaxosMsg::P1b { .. } => "p1b",
            WPaxosMsg::Nack { .. } => "nack",
            WPaxosMsg::P2a { .. } => "p2a",
            WPaxosMsg::P2b { .. } => "p2b",
            WPaxosMsg::CommitBatch { .. } => "commit_batch",
            WPaxosMsg::Submit { .. } => "submit",
            WPaxosMsg::Handover { .. } => "handover",
        }
    }

    fn store(&self) -> Option<&MultiVersionStore> {
        Some(&self.store)
    }
}

/// Convenience factory for a homogeneous WPaxos cluster.
pub fn wpaxos_cluster(cluster: ClusterConfig, cfg: WPaxosConfig) -> impl Fn(NodeId) -> WPaxos {
    move |id| WPaxos::new(id, cluster.clone(), cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::Rng64;
    use paxi_core::id::ClientId;
    use paxi_sim::{ClientSetup, SimConfig, Simulator, Topology};

    /// 3×3 grid in a LAN (the paper's 9-node LAN deployment).
    fn lan_grid_sim(cfg: WPaxosConfig, clients_per_zone: usize) -> Simulator<WPaxos> {
        let cluster = ClusterConfig::wan(3, 3);
        let setups = ClientSetup::closed_per_zone(&cluster, clients_per_zone);
        Simulator::new(
            SimConfig {
                topology: Topology::lan_zones(3),
                record_ops: true,
                ..SimConfig::default()
            },
            cluster.clone(),
            wpaxos_cluster(cluster, cfg),
            paxi_sim::client::uniform_workload(100),
            setups,
        )
    }

    #[test]
    fn grid_cluster_serves_requests() {
        let mut sim = lan_grid_sim(WPaxosConfig::default(), 3);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn keys_get_distributed_across_leaders() {
        // At the paper's scale (1000 keys), hash-partitioned initial
        // ownership keeps all three zone leaders serving a healthy share of
        // the keyspace. (With very few hot keys, greedy locality stealing
        // under uniform closed-loop load slowly drifts ownership toward the
        // fastest zone — a real property of the adaptation policy.)
        let cluster = ClusterConfig::wan(3, 3);
        let setups = ClientSetup::closed_per_zone(&cluster, 3);
        let mut sim = Simulator::new(
            SimConfig {
                topology: Topology::lan_zones(3),
                ..SimConfig::default()
            },
            cluster.clone(),
            wpaxos_cluster(cluster, WPaxosConfig::default()),
            paxi_sim::client::uniform_workload(1000),
            setups,
        );
        let _ = sim.run();
        let owned: Vec<usize> = sim.replicas().iter().map(|r| r.owned_keys()).collect();
        let total: usize = owned.iter().sum();
        for leader in [0, 3, 6] {
            assert!(
                owned[leader] * 5 > total,
                "leader {leader} owns too little: {owned:?}"
            );
        }
        // Non-leader-capable nodes own nothing.
        assert_eq!(owned[1] + owned[2] + owned[4], 0);
    }

    #[test]
    fn stores_share_common_prefix() {
        let mut sim = lan_grid_sim(WPaxosConfig::default(), 2);
        let _ = sim.run();
        let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
        for s in &stores[1..] {
            for key in stores[0].keys() {
                let a = stores[0].history(key);
                let b = s.history(key);
                let common = a.len().min(b.len());
                assert_eq!(&a[..common], &b[..common], "key {key} diverged");
            }
        }
    }

    #[test]
    fn fz0_commits_locally_in_wan() {
        // 5 regions × 3 nodes; all clients in VA work on VA-owned keys; with
        // fz=0 commits need only VA's zone, so latency ≈ LAN RTTs, far below
        // any WAN RTT. The warmup absorbs the initial ownership acquisition
        // (each first touch runs a cross-WAN phase-1 gated on Japan's RTT).
        let cluster = ClusterConfig::wan(5, 3);
        let setups = ClientSetup::closed_in_zone(&cluster, 0, 3);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = rng.below(15);
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            SimConfig {
                topology: Topology::aws5(),
                warmup: Nanos::millis(1500),
                measure: Nanos::secs(2),
                ..SimConfig::default()
            },
            cluster.clone(),
            wpaxos_cluster(cluster, WPaxosConfig::default()),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 500, "completed {}", report.completed);
        let mean = report.latency.mean.as_millis_f64();
        assert!(
            mean < 5.0,
            "fz=0 local commits should be LAN-fast, got {mean} ms"
        );
    }

    #[test]
    fn fz1_pays_one_wan_zone() {
        let cluster = ClusterConfig::wan(5, 3);
        let setups = ClientSetup::closed_in_zone(&cluster, 0, 3);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = rng.below(50);
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            SimConfig {
                topology: Topology::aws5(),
                ..SimConfig::default()
            },
            cluster.clone(),
            wpaxos_cluster(cluster, WPaxosConfig::with_fz(1)),
            workload,
            setups,
        );
        let report = sim.run();
        let mean = report.latency.mean.as_millis_f64();
        // VA's nearest region is OH at 11 ms RTT; fz=1 commit needs it.
        assert!(mean > 8.0, "fz=1 should pay a WAN RTT, got {mean} ms");
    }

    #[test]
    fn ownership_migrates_with_locality() {
        // All keys start in zone 1 (OH-like); zone 0's clients hammer keys
        // 0..20; after three accesses per key, zone 0's leader steals them.
        let cluster = ClusterConfig::wan(3, 3);
        let setups = ClientSetup::closed_in_zone(&cluster, 0, 2);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = rng.below(20);
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            SimConfig {
                topology: Topology::aws3(),
                ..SimConfig::default()
            },
            cluster.clone(),
            wpaxos_cluster(
                cluster,
                WPaxosConfig {
                    initial_owner: Some(NodeId::new(1, 0)),
                    ..WPaxosConfig::default()
                },
            ),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 100);
        // Zone 0's leader ends up owning the hot keys.
        let zone0_leader = &sim.replicas()[0];
        assert!(
            zone0_leader.owned_keys() >= 15,
            "zone 0 should have stolen most hot keys, owns {}",
            zone0_leader.owned_keys()
        );
        // Post-migration latency is local: p50 well below the 100ms-ish WAN.
        let p50 = report.latency.p50.as_millis_f64();
        assert!(
            p50 < 10.0,
            "after stealing, commits are local; p50 {p50} ms"
        );
    }

    #[test]
    #[should_panic]
    fn new_rejects_f_equal_per_zone() {
        let cfg = WPaxosConfig {
            f: 3,
            ..WPaxosConfig::default()
        };
        WPaxos::new(NodeId::new(0, 0), ClusterConfig::wan(3, 3), cfg);
    }

    #[test]
    #[should_panic]
    fn new_rejects_fz_equal_zones() {
        WPaxos::new(
            NodeId::new(0, 0),
            ClusterConfig::wan(3, 3),
            WPaxosConfig::with_fz(3),
        );
    }
}
