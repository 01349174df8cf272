//! Multi-decree Paxos (MultiPaxos) and Flexible Paxos (FPaxos).
//!
//! This is the paper's single-leader baseline: a stable leader established by
//! phase-1 drives all commands through phase-2 without re-running phase-1
//! (the multi-Paxos optimization), and the commit phase is piggybacked on
//! subsequent messages instead of costing an extra broadcast. The leader is
//! the bottleneck: per round it handles `N + 2` messages while followers
//! handle 2, which is exactly the asymmetry the paper's queueing model and
//! Figures 7–9 dissect.
//!
//! FPaxos is the same replica with a smaller phase-2 quorum `|q2| < ⌊N/2⌋+1`
//! and a correspondingly larger phase-1 quorum `|q1| = N − |q2| + 1`, so all
//! q1×q2 pairs still intersect. Use [`PaxosConfig::flexible`].
//!
//! Liveness: followers monitor leader heartbeats (the piggybacked commit
//! broadcast) and start phase-1 with a higher ballot after a randomized
//! timeout, which is what the availability experiments exercise.
//!
//! Membership changes use the classic α-window scheme (SMART / Stoppable
//! Paxos): a new stable configuration is chosen as an ordinary log value in
//! some slot `s` and governs quorums from slot `s + α` onward, so up to α
//! commands stay pipelined across the cut-over. The config rides the log as
//! a write to [`paxi_core::membership::CONFIG_KEY`], is persisted by the
//! Accept record that carries it, and is re-derived from the log on recovery
//! — a replica restarting mid-transition comes up in the configuration its
//! durable log dictates, never an older one. One reconfiguration in flight
//! at a time is the supported regime.
//!
//! The in-memory log is the in-flight window: `execute` releases each slot once
//! the store has it, so repair below it is state transfer ([`crate::snapshot`]):
//! a replica told of a commit index it has no entry to reach, or elected with
//! such a gap, asks the teller for its image and installs it before going on.

use crate::kernel::{self, State};
pub use crate::snapshot::SlotCmds;
use crate::snapshot::{Image, Meta, SnapshotMsg, Step, TailEntry};
use paxi_core::ballot::Ballot;
use paxi_core::command::{ClientRequest, ClientResponse, Command};
use paxi_core::config::{BatchConfig, Batcher, ClusterConfig};
use paxi_core::group::GroupId;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::membership::{self, ConfigChange, Membership};
use paxi_core::migration::MigrationTracker;
use paxi_core::obs::{DropCause, Metric, TraceStage};
use paxi_core::quorum::{majority, CountQuorum, QuorumTracker};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use paxi_storage::Storage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Timer kind: leader heartbeat / commit flush.
const TIMER_HEARTBEAT: u64 = 1;
/// Timer kind: follower election timeout check.
const TIMER_ELECTION: u64 = 2;
/// Timer kind: flush a partial command batch (see [`Batcher`]).
const TIMER_BATCH: u64 = 3;

/// Reconfiguration pipeline depth α: a configuration chosen in slot `s`
/// governs quorums from slot `s + α` onward, keeping up to α commands in
/// flight across the cut-over.
const ALPHA: u64 = 4;

/// Tuning knobs for [`MultiPaxos`].
#[derive(Debug, Clone)]
pub struct PaxosConfig {
    /// Phase-2 quorum size including the leader; `None` = majority.
    pub q2: Option<usize>,
    /// The node that runs phase-1 at startup.
    pub initial_leader: NodeId,
    /// Leader heartbeat / commit-flush period.
    pub heartbeat: Nanos,
    /// Base follower election timeout (randomized ×[1, 2)).
    pub election_timeout: Nanos,
    /// Whether followers run elections when the leader goes quiet.
    pub enable_failover: bool,
    /// Thrifty messaging (ablation): the leader sends phase-2a only to the
    /// `|q2| - 1` followers it needs instead of broadcasting to all — fewer
    /// messages, but stragglers never learn commands and fault tolerance
    /// degrades to exactly the quorum.
    pub thrifty: bool,
    /// Eager commit (ablation): broadcast an explicit phase-3 message the
    /// moment the commit index advances, instead of piggybacking commits on
    /// the next phase-2a (the paper's default optimization).
    pub eager_commit: bool,
    /// Command batching: the leader packs up to `max_batch` client commands
    /// into one slot, amortizing the phase-2 round, the WAL append, and the
    /// fsync across the batch. `max_batch = 1` (the default) is behaviorally
    /// identical to unbatched operation.
    pub batch: BatchConfig,
    /// Initial voting membership; `None` means every node in the cluster
    /// votes (the static-membership behavior). Nodes outside the membership
    /// are non-voting learners until a reconfiguration adds them.
    pub initial_members: Option<Vec<NodeId>>,
}

impl Default for PaxosConfig {
    fn default() -> Self {
        PaxosConfig {
            q2: None,
            initial_leader: NodeId::new(0, 0),
            heartbeat: Nanos::millis(20),
            election_timeout: Nanos::millis(500),
            enable_failover: true,
            thrifty: false,
            eager_commit: false,
            batch: BatchConfig::default(),
            initial_members: None,
        }
    }
}

impl PaxosConfig {
    /// FPaxos configuration with phase-2 quorum size `q2` (leader included).
    pub fn flexible(q2: usize) -> Self {
        PaxosConfig {
            q2: Some(q2),
            ..Default::default()
        }
    }

    /// Configuration with command batching of up to `max_batch` per slot.
    pub fn batched(max_batch: usize) -> Self {
        PaxosConfig {
            batch: BatchConfig::of(max_batch),
            ..Default::default()
        }
    }
}

/// Wire messages of MultiPaxos.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PaxosMsg {
    /// Phase-1a: `ballot`'s owner asks to lead.
    P1a {
        /// Proposer's ballot.
        ballot: Ballot,
    },
    /// Phase-1b: promise, carrying the acceptor's uncommitted tail.
    P1b {
        /// The promised ballot.
        ballot: Ballot,
        /// `(slot, accepted_ballot, batch)` above the commit point.
        tail: Vec<(u64, Ballot, SlotCmds)>,
        /// The acceptor's commit index: the new leader floors its first
        /// fresh slot here, so a lagging just-joined winner cannot propose
        /// below what the cluster already chose.
        commit_upto: u64,
    },
    /// Phase-2a: accept request for one slot. Carries the leader's commit
    /// index so the commit phase piggybacks on the next round's broadcast.
    P2a {
        /// Leader's ballot.
        ballot: Ballot,
        /// Log slot.
        slot: u64,
        /// The command batch proposed in the slot (one command when batching
        /// is off). Requests ride along for re-proposals after failover.
        cmds: SlotCmds,
        /// All slots `< commit_upto` are committed.
        commit_upto: u64,
    },
    /// Phase-2b: acceptance of one slot.
    P2b {
        /// Ballot the acceptor accepted under.
        ballot: Ballot,
        /// The accepted slot.
        slot: u64,
    },
    /// Rejection: the sender has promised a higher ballot.
    Nack {
        /// The higher ballot the sender has seen.
        ballot: Ballot,
    },
    /// Heartbeat / commit flush for idle periods (phase-3 piggyback).
    Commit {
        /// All slots `< upto` are committed.
        upto: u64,
    },
    /// State transfer: a replica that cannot go on from its log asks for
    /// the image, the asked sends `InstallSnapshot` chunks, each answered
    /// by a `SnapshotAck`.
    Snapshot(SnapshotMsg),
}

/// One slot of the in-flight window: accepted here, not yet executed.
#[derive(Debug)]
struct Entry {
    ballot: Ballot,
    cmds: SlotCmds,
    quorum: CountQuorum,
    committed: bool,
}

/// One durable WAL record of MultiPaxos acceptor state: its promise and its
/// accepts. A record is appended (and, depending on the fsync policy, synced)
/// *before* the acceptance it witnesses is acknowledged, so a recovered
/// replica can never have promised or accepted something its disk does not
/// know about. What an accepted config or migration command did is
/// re-derived from its Accept record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaxosWal {
    /// The replica promised (or adopted) this ballot.
    Ballot(
        /// The promised ballot.
        Ballot,
    ),
    /// The replica accepted a command batch in a slot under a ballot. One
    /// record covers the whole batch — one WAL append (and at most one
    /// fsync) per slot regardless of how many commands it carries.
    Accept {
        /// Log slot.
        slot: u64,
        /// Ballot the acceptance happened under.
        ballot: Ballot,
        /// The accepted command batch, with client requests for leader
        /// bookkeeping.
        cmds: SlotCmds,
    },
}

/// A MultiPaxos / FPaxos replica.
pub struct MultiPaxos {
    id: NodeId,
    cluster: ClusterConfig,
    cfg: PaxosConfig,
    ballot: Ballot,
    active: bool,
    leader_hint: Option<NodeId>,
    log: BTreeMap<u64, Entry>,
    next_slot: u64,
    commit_upto: u64,
    execute_upto: u64,
    /// Slots below this are already marked committed — keeps the
    /// piggybacked-commit scan incremental instead of O(log).
    marked_upto: u64,
    /// Store, migration tracker, WAL, image position, state transfer: what
    /// `execute` and `install` act on, never directly.
    state: State,
    pending: Vec<ClientRequest>,
    /// Commands accumulating toward the next batched slot (leader only).
    batch: Batcher<(Command, Option<RequestId>)>,
    p1_quorum: Option<CountQuorum>,
    p1_tails: Vec<Vec<(u64, Ballot, SlotCmds)>>,
    /// Highest commit index any phase-1 promise reported — floors the new
    /// leader's first fresh slot — and who reported it.
    p1_max_commit: u64,
    p1_max_from: NodeId,
    /// Voting configurations keyed by the slot they take effect at:
    /// `effective_slot → (epoch, members)`. Key 0 holds the initial
    /// configuration and is never removed; a config chosen in slot `s`
    /// lives at key `s + α`. The entry with the greatest key `≤ slot`
    /// governs `slot`'s quorums.
    configs: BTreeMap<u64, (u64, Vec<NodeId>)>,
    last_leader_contact: Nanos,
    election_token: u64,
    /// `commit_upto` observed at the previous heartbeat tick: if the head of
    /// the log hasn't advanced for a full heartbeat, phase-2 messages were
    /// lost and the stuck window is retransmitted.
    heartbeat_head: u64,
    /// `execute_upto` at the last heartbeat that named a commit index this
    /// log has no entry to reach: a gap that outlives a heartbeat period is
    /// a lost message, not an entry a previous leader still has in flight
    /// on its own link.
    stuck_at: Option<u64>,
}

impl MultiPaxos {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig, cfg: PaxosConfig) -> Self {
        let mut initial = cfg
            .initial_members
            .clone()
            .unwrap_or_else(|| cluster.all_nodes());
        initial.sort_unstable();
        initial.dedup();
        let mut configs = BTreeMap::new();
        configs.insert(0u64, (0u64, initial));
        let batch = Batcher::new(cfg.batch, TIMER_BATCH);
        MultiPaxos {
            id,
            cluster,
            cfg,
            ballot: Ballot::default(),
            active: false,
            leader_hint: None,
            log: BTreeMap::new(),
            next_slot: 0,
            commit_upto: 0,
            execute_upto: 0,
            marked_upto: 0,
            state: State::default(),
            pending: Vec::new(),
            batch,
            p1_quorum: None,
            p1_tails: Vec::new(),
            p1_max_commit: 0,
            p1_max_from: id,
            configs,
            last_leader_contact: Nanos::ZERO,
            election_token: 0,
            heartbeat_head: 0,
            stuck_at: None,
        }
    }

    /// Tells the replica which consensus group it serves in a sharded
    /// deployment ([`State::set_group`]).
    pub fn set_group(&mut self, group: GroupId) {
        self.state.set_group(group);
    }

    /// Phase-2 quorum size (leader included) at the proposal frontier.
    pub fn q2_size(&self) -> usize {
        self.q2_size_at(self.next_slot)
    }

    /// Phase-1 quorum size: `N − |q2| + 1` over the current members, which
    /// equals the majority when `|q2|` is the majority (N odd).
    pub fn q1_size(&self) -> usize {
        self.q1_size_at(self.next_slot)
    }

    /// The voting member set governing `slot`.
    pub fn members_at(&self, slot: u64) -> &[NodeId] {
        &self
            .configs
            .range(..=slot)
            .next_back()
            .expect("configs always holds the initial entry at key 0")
            .1
             .1
    }

    /// The slot a campaign is judged at — may this replica run, who votes,
    /// how many make a quorum: one past the highest slot it has proposed,
    /// accepted or learned committed. `next_slot` alone is not it: only a
    /// proposer advances that, so on an acceptor it stays behind and names a
    /// configuration the log has long left.
    fn frontier(&self) -> u64 {
        let accepted = self.log.last_key_value().map_or(0, |(slot, _)| slot + 1);
        self.next_slot.max(accepted).max(self.commit_upto)
    }

    /// The voting members at the frontier of this replica's log.
    pub fn members(&self) -> Vec<NodeId> {
        self.members_at(self.frontier()).to_vec()
    }

    /// Epoch of the latest configuration this replica knows of — including
    /// one accepted but not yet effective.
    pub fn config_epoch(&self) -> u64 {
        self.configs
            .values()
            .next_back()
            .map(|(e, _)| *e)
            .unwrap_or(0)
    }

    fn q2_size_at(&self, slot: u64) -> usize {
        let m = self.members_at(slot).len().max(1);
        self.cfg.q2.unwrap_or_else(|| majority(m)).max(1).min(m)
    }

    fn q1_size_at(&self, slot: u64) -> usize {
        let m = self.members_at(slot).len().max(1);
        m - self.q2_size_at(slot).min(m) + 1
    }

    /// Records any stable configuration carried by the batch accepted in
    /// `slot` (and un-records one if a higher ballot overwrote the slot
    /// with a config-free batch). Called at every log-insert point —
    /// propose, accept, and both recovery paths — so activation state is a
    /// pure function of the accepted log.
    fn note_config(&mut self, slot: u64, cmds: &SlotCmds) {
        let key = slot + ALPHA;
        let found = cmds
            .iter()
            .find_map(|(cmd, _)| match membership::as_membership(cmd) {
                Some(Membership::Stable { epoch, members }) => Some((epoch, members)),
                _ => None,
            });
        match found {
            Some(config) => self.configs.insert(key, config),
            // Key 0 is the initial config; `key >= α ≥ 1` can't hit it.
            None => self.configs.remove(&key),
        };
    }

    /// An established leader excluded by a committed, now-effective
    /// configuration lays down leadership: it flushes its commit index one
    /// last time (so the survivors learn everything it chose) and goes
    /// quiet; the remaining members elect among themselves when its
    /// heartbeats stop.
    fn maybe_step_down(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        if !self.active {
            return;
        }
        let Some((&key, (_, members))) = self.configs.range(..=self.next_slot).next_back() else {
            return;
        };
        if members.contains(&self.id) {
            return;
        }
        // Depose only after every slot below the cut-over point committed:
        // the outgoing leader drives its α-window slots home first, and an
        // accepted-but-overwritable config can never cost a leader (its
        // own slot sits below `key` and would have to commit first).
        if self.commit_upto < key {
            return;
        }
        ctx.broadcast(PaxosMsg::Commit {
            upto: self.commit_upto,
        });
        self.active = false;
        self.abort_batch();
        self.leader_hint = None;
    }

    /// Sequences a client-requested membership delta: resolves it against
    /// the latest configuration this leader knows (even one still inside
    /// its α window) and proposes the resulting absolute stable config in
    /// its own slot, bypassing batching so the activation point
    /// `slot + α` is pinned the moment the request is sequenced.
    fn handle_reconfig(
        &mut self,
        req: ClientRequest,
        change: ConfigChange,
        ctx: &mut dyn Context<PaxosMsg>,
    ) {
        let (epoch, members) = self
            .configs
            .values()
            .next_back()
            .cloned()
            .unwrap_or((0, Vec::new()));
        if change.is_noop_on(&members) {
            // Nothing would change: acknowledge without spending a slot, so
            // a no-op reconfiguration perturbs neither the log nor the
            // deterministic schedule.
            ctx.reply(ClientResponse::ok(req.id, None));
            return;
        }
        let target = change.apply(&members);
        if target.is_empty() {
            ctx.reply(ClientResponse::err(req.id));
            return;
        }
        let next = Membership::Stable {
            epoch: epoch + 1,
            members: target,
        };
        let slot = self.next_slot;
        self.next_slot += 1;
        self.propose_in_slot(
            slot,
            vec![(membership::membership_command(&next), Some(req.id))],
            ctx,
        );
    }

    /// Whether this replica currently believes it is the established leader.
    pub fn is_leader(&self) -> bool {
        self.active
    }

    /// The cluster this replica belongs to.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The replica's current ballot.
    pub fn current_ballot(&self) -> Ballot {
        self.ballot
    }

    /// Appends one WAL record, honoring the persist-before-ack contract:
    /// the caller invokes this before emitting the message that
    /// acknowledges the state change.
    fn persist(&mut self, rec: &PaxosWal) {
        self.state.wal().persist(rec);
    }

    /// Persists the acceptance of `cmds` in `slot`. The record owns its
    /// batch, a deep copy: made only when there is a WAL to write it to.
    fn persist_accept(&mut self, slot: u64, ballot: Ballot, cmds: &SlotCmds) {
        if self.state.wal().durable() {
            self.persist(&PaxosWal::Accept {
                slot,
                ballot,
                cmds: cmds.clone(),
            });
        }
    }

    /// Snapshot-plus-truncate compaction, when [`State::image_due`] says so:
    /// an image of the state machine with the log — the in-flight window —
    /// as its tail: a truncated WAL awaiting its tail would lose accepts
    /// the leader may already have counted.
    fn maybe_compact(&mut self) {
        if self.state.image_due() {
            let tail = self.tail_from(self.execute_upto);
            self.state.write_image(self.image_meta(), tail);
        }
    }

    /// The log from `slot` on, as an image carries it.
    fn tail_from(&self, slot: u64) -> Vec<TailEntry> {
        let entry = |(s, e): (&u64, &Entry)| (*s, e.ballot.into(), e.cmds.clone());
        self.log.range(slot..).map(entry).collect()
    }

    /// The image of this replica at `execute_upto`, less store and tail.
    fn image_meta(&self) -> Meta {
        let config = |(k, (epoch, members)): (&u64, &(u64, Vec<NodeId>))| {
            let (epoch, members) = (*epoch, members.clone());
            (*k, Membership::Stable { epoch, members })
        };
        Meta {
            base: self.execute_upto,
            base_term: 0,
            promised: self.ballot.into(),
            configs: self.configs.iter().map(config).collect(),
            migration: self.state.migration().state(),
            executed: 0,
        }
    }

    /// Puts this replica at `image`: recovery from the local disk, and the
    /// end of a state transfer. `false` (and nothing changed) if the image
    /// is not one a MultiPaxos replica wrote. The log keeps what it holds
    /// from the base on and takes the image's tail where that is newer; the
    /// WAL (when one is attached: not yet, during recovery) takes the result
    /// under this replica's own ballot; only then do the store and
    /// `execute_upto` move.
    fn install(&mut self, image: Image) -> bool {
        let Image {
            mut meta,
            tail,
            store,
        } = image;
        let configs = meta.configs.iter().map(|(k, m)| match m {
            Membership::Stable { epoch, members } => Some((*k, (*epoch, members.clone()))),
            Membership::Joint { .. } => None,
        });
        let tail = tail
            .into_iter()
            .map(|(s, r, cmds)| Some((s, r.ballot()?, cmds)));
        let (Some(promised), Some(configs), Some(tail)) = (
            meta.promised.ballot(),
            configs.collect::<Option<Vec<_>>>(),
            tail.collect::<Option<Vec<_>>>(),
        ) else {
            return false;
        };
        self.ballot = self.ballot.max(promised);
        self.configs.extend(configs);
        self.log = self.log.split_off(&meta.base);
        for (slot, ballot, cmds) in tail {
            let newer = self.log.get(&slot).is_none_or(|e| e.ballot < ballot);
            if slot >= meta.base && newer {
                self.restore_accepted(slot, ballot, cmds);
            }
        }
        meta.promised = self.ballot.into();
        self.state.adopt(&meta, self.tail_from(meta.base), store);
        self.execute_upto = meta.base;
        self.commit_upto = self.commit_upto.max(meta.base);
        self.marked_upto = self.marked_upto.max(meta.base);
        self.next_slot = self.next_slot.max(meta.base);
        self.heartbeat_head = self.heartbeat_head.max(meta.base);
        true
    }

    /// Puts an entry accepted under `ballot` into the log as replaying its
    /// Accept record does: uncommitted, with the votes the record proves.
    fn restore_accepted(&mut self, slot: u64, ballot: Ballot, cmds: SlotCmds) {
        self.ballot = self.ballot.max(ballot);
        let mut quorum = CountQuorum::new(self.q2_size_at(slot));
        quorum.ack(ballot.id);
        quorum.ack(self.id);
        self.note_config(slot, &cmds);
        let committed = false;
        self.log.insert(
            slot,
            Entry {
                ballot,
                cmds,
                quorum,
                committed,
            },
        );
        self.next_slot = self.next_slot.max(slot + 1);
    }

    /// The state-transfer exchange, both sides: any replica serves its image
    /// to one that asks, and stages, installs and acknowledges the chunks of
    /// the image it asked for. A chunk that cannot be used is dropped and
    /// counted.
    fn on_snapshot(&mut self, from: NodeId, msg: SnapshotMsg, ctx: &mut dyn Context<PaxosMsg>) {
        let reply = match self.state.transfer(from, msg, self.execute_upto, ctx) {
            Step::Answer { msg, .. } => msg,
            Step::Begin => {
                let (meta, tail) = (self.image_meta(), self.tail_from(self.execute_upto));
                let round = self.ballot.into();
                Some(self.state.begin_transfer(from, round, meta, tail))
            }
            Step::Install(image, ack) => {
                if !self.install(image) {
                    return ctx.count_drop(DropCause::BadChunk, 1);
                }
                ctx.send(from, PaxosMsg::Snapshot(SnapshotMsg::Ack(ack)));
                self.maybe_commit(ctx);
                let elected = self.p1_quorum.as_ref().is_some_and(|q| q.satisfied());
                if elected && !self.active && self.ballot.id == self.id {
                    // Elected with a gap, now closed: lead.
                    self.p1_tails.push(self.uncommitted_tail());
                    self.become_leader(ctx);
                }
                None
            }
            Step::Installed(_) => None,
        };
        if let Some(msg) = reply {
            ctx.send(from, PaxosMsg::Snapshot(msg));
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        let jitter = ctx.rand_u64() % self.cfg.election_timeout.0.max(1);
        self.election_token =
            ctx.set_timer(self.cfg.election_timeout + Nanos(jitter), TIMER_ELECTION);
    }

    fn start_phase1(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        let frontier = self.frontier();
        if !self.members_at(frontier).contains(&self.id) {
            // A learner outside the voting membership never campaigns.
            return;
        }
        self.ballot = self.ballot.next(self.id);
        self.persist(&PaxosWal::Ballot(self.ballot));
        self.active = false;
        self.abort_batch();
        let mut q = CountQuorum::new(self.q1_size_at(frontier));
        q.ack(self.id);
        self.p1_tails = vec![self.uncommitted_tail()];
        (self.p1_max_commit, self.p1_max_from) = (self.commit_upto, self.id);
        if q.satisfied() {
            // Single-node cluster: become leader immediately.
            self.p1_quorum = Some(q);
            self.become_leader(ctx);
            return;
        }
        self.p1_quorum = Some(q);
        ctx.broadcast(PaxosMsg::P1a {
            ballot: self.ballot,
        });
    }

    fn uncommitted_tail(&self) -> Vec<(u64, Ballot, SlotCmds)> {
        self.log
            .range(self.commit_upto..)
            .map(|(s, e)| (*s, e.ballot, e.cmds.clone()))
            .collect()
    }

    fn become_leader(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        // Merge the highest-ballot accepted value per uncommitted slot and
        // re-propose them under our ballot.
        let mut merged: BTreeMap<u64, (Ballot, SlotCmds)> = BTreeMap::new();
        for tail in std::mem::take(&mut self.p1_tails) {
            for (slot, b, cmds) in tail {
                match merged.get(&slot) {
                    Some((mb, _)) if *mb >= b => {}
                    _ => {
                        merged.insert(slot, (b, cmds));
                    }
                }
            }
        }
        // Tails start at each promiser's commit index, so a slot below the
        // highest of those that no tail holds was chosen and has since been
        // executed and released: it exists as state only. Fetch that state
        // before proposing anything; the install resumes from here.
        if (self.commit_upto..self.p1_max_commit).any(|s| !merged.contains_key(&s)) {
            self.p1_tails = vec![merged.into_iter().map(|(s, (b, c))| (s, b, c)).collect()];
            let have = self.execute_upto;
            let want = PaxosMsg::Snapshot(SnapshotMsg::Want { have });
            return ctx.send(self.p1_max_from, want);
        }
        self.active = true;
        self.leader_hint = Some(self.id);
        self.p1_quorum = None;
        if let Some((&max_slot, _)) = merged.iter().next_back() {
            self.next_slot = self.next_slot.max(max_slot + 1);
        }
        self.next_slot = self.next_slot.max(self.commit_upto).max(self.p1_max_commit);
        for (slot, (_, cmds)) in merged {
            if slot < self.commit_upto {
                continue;
            }
            self.propose_in_slot(slot, cmds, ctx);
        }
        // Serve requests buffered during the election.
        for req in std::mem::take(&mut self.pending) {
            self.propose(req, ctx);
        }
        ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
    }

    /// Batches `req` toward the next slot. Unbatched (`max_batch == 1`)
    /// every command fills its own batch: one command, one slot, one
    /// phase-2 round, immediately.
    fn propose(&mut self, req: ClientRequest, ctx: &mut dyn Context<PaxosMsg>) {
        let in_flight = self.commit_upto < self.next_slot;
        let item = (req.cmd, Some(req.id));
        if let Some(cmds) = self.batch.push(item, in_flight, ctx) {
            self.propose_batch(cmds, ctx);
        }
    }

    /// Proposes `cmds` in the next slot: one phase-2 round, one WAL record,
    /// one fsync for the whole batch.
    fn propose_batch(&mut self, cmds: SlotCmds, ctx: &mut dyn Context<PaxosMsg>) {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.propose_in_slot(slot, cmds, ctx);
    }

    /// Folds a not-yet-proposed batch back into the pending queue — called
    /// when leadership is lost so buffered commands are re-routed (or
    /// re-proposed if we win again) instead of silently dropped.
    fn abort_batch(&mut self) {
        let cmds = self.batch.abort();
        self.requeue(cmds);
    }

    fn requeue(&mut self, cmds: SlotCmds) {
        for (cmd, req) in cmds {
            if let Some(id) = req {
                self.pending.push(ClientRequest { id, cmd });
            }
        }
    }

    /// Runs phase-2 for `cmds` in `slot`.
    ///
    /// The P2a is handed to the context *before* the leader persists its
    /// own acceptance, so the acceptors' fsyncs overlap the leader's instead
    /// of queueing behind it. Nothing is acknowledged early: the leader's
    /// self-vote is cast only after `persist` — and with it the sync — has
    /// returned, and `maybe_commit` runs after that. A leader that dies in
    /// between recovers without the acceptance and inactive, so it cannot
    /// reuse the ballot for a different value; it is an acceptor the P2a
    /// never reached.
    fn propose_in_slot(&mut self, slot: u64, cmds: SlotCmds, ctx: &mut dyn Context<PaxosMsg>) {
        for (_, req) in &cmds {
            if let Some(id) = req {
                ctx.trace(TraceStage::Propose, *id);
            }
        }
        // The log keeps the exact-size copy; the batch buffer's spare
        // capacity leaves with the message.
        let accepted = cmds.clone();
        let msg = PaxosMsg::P2a {
            ballot: self.ballot,
            slot,
            cmds,
            commit_upto: self.commit_upto,
        };
        if self.cfg.thrifty {
            // Exactly the quorum: the first |q2|-1 voting peers in node
            // order. Non-members are learners and never help the quorum,
            // so thrifty mode skips them entirely.
            let peers: Vec<NodeId> = self
                .members_at(slot)
                .iter()
                .copied()
                .filter(|&p| p != self.id)
                .take(self.q2_size_at(slot).saturating_sub(1))
                .collect();
            ctx.multicast(&peers, msg);
        } else {
            ctx.broadcast(msg);
        }
        // The leader is an acceptor of its own proposal: persist before the
        // self-vote counts toward the quorum. One record per slot covers the
        // whole batch.
        self.persist_accept(slot, self.ballot, &accepted);
        let mut quorum = CountQuorum::new(self.q2_size_at(slot));
        if self.members_at(slot).contains(&self.id) {
            // Self-vote — but only with a vote to cast: a leader already
            // excluded by the config governing this slot is a proposer, not
            // an acceptor, and must collect the full quorum from members.
            quorum.ack(self.id);
        }
        self.note_config(slot, &accepted);
        self.log.insert(
            slot,
            Entry {
                ballot: self.ballot,
                cmds: accepted,
                quorum,
                committed: false,
            },
        );
        self.next_slot = self.next_slot.max(slot + 1);
        self.maybe_commit(ctx); // single-node cluster commits immediately
    }

    fn mark_committed(&mut self, upto: u64) {
        if upto > self.marked_upto {
            for (_, e) in self.log.range_mut(self.marked_upto..upto) {
                e.committed = true;
            }
            self.marked_upto = upto;
        }
    }

    fn maybe_commit(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        // Advance the contiguous commit index.
        let before = self.commit_upto;
        while let Some(e) = self.log.get(&self.commit_upto) {
            if e.committed || (self.active && e.quorum.satisfied()) {
                // A slot committing via its own quorum (not a piggybacked
                // mark) is the leader's quorum-ack moment for its requests.
                let quorum_now = !e.committed && self.active;
                let entry = self.log.get_mut(&self.commit_upto).unwrap();
                entry.committed = true;
                if quorum_now {
                    for (_, req) in &entry.cmds {
                        if let Some(id) = req {
                            ctx.trace(TraceStage::QuorumAck, *id);
                        }
                    }
                }
                self.commit_upto += 1;
            } else {
                break;
            }
        }
        if self.commit_upto > before {
            ctx.count(Metric::Commits, self.commit_upto - before);
        }
        if self.cfg.eager_commit && self.active && self.commit_upto > before {
            ctx.broadcast(PaxosMsg::Commit {
                upto: self.commit_upto,
            });
        }
        self.execute(ctx);
        self.maybe_step_down(ctx);
    }

    fn execute(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        while self.execute_upto < self.commit_upto {
            let slot = self.execute_upto;
            let Some(e) = self.log.get(&slot) else { break };
            if !e.committed {
                break;
            }
            // Execute the batch in order; replies fan back out per command.
            for (cmd, req) in &e.cmds {
                self.state.execute(cmd, *req, self.active, ctx);
            }
            self.execute_upto += 1;
        }
        // Nothing reads a slot below `execute_upto` again: release them.
        while matches!(self.log.first_key_value(), Some((s, _)) if *s < self.execute_upto) {
            self.log.pop_first();
        }
        self.maybe_compact();
    }
}

impl Replica for MultiPaxos {
    type Msg = PaxosMsg;

    /// Rebuilds acceptor state from the store: snapshot first (ballot,
    /// executed state machine, base index), then the WAL records in append
    /// order. Commit/execute indices above the snapshot base are volatile by
    /// design — the leader's piggybacked `commit_upto` re-teaches them, and
    /// re-execution is safe because the restored store is exactly at `base`.
    fn attach_storage(&mut self, mut storage: Box<dyn Storage>) {
        let (image, records) = kernel::recover::<PaxosWal>(storage.as_mut());
        // Configs chosen and freezes decided below the base have no
        // surviving Accept records to re-derive them from: they, the store
        // at the base and the in-flight tail are the image.
        if let Some(image) = image {
            let mine = self.install(image);
            assert!(mine, "paxos replica found an image it did not write");
        }
        let replayed = records.len();
        for rec in records {
            match rec {
                PaxosWal::Ballot(b) => self.ballot = self.ballot.max(b),
                // A config takes effect again as its Accept is restored; a
                // migration command re-executes once commits re-arrive.
                // Below the installed image's base, the store has it.
                PaxosWal::Accept { slot, ballot, cmds } => {
                    if slot >= self.execute_upto {
                        self.restore_accepted(slot, ballot, cmds);
                    }
                }
            }
        }
        self.active = false;
        self.state.wal().attach(storage, replayed);
    }

    fn sync_storage(&mut self) {
        self.state.wal().tick();
    }

    fn on_start(&mut self, ctx: &mut dyn Context<PaxosMsg>) {
        self.last_leader_contact = ctx.now();
        if self.id == self.cfg.initial_leader {
            self.start_phase1(ctx);
        } else {
            self.leader_hint = Some(self.cfg.initial_leader);
            if self.cfg.enable_failover {
                self.arm_election_timer(ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: PaxosMsg, ctx: &mut dyn Context<PaxosMsg>) {
        match msg {
            PaxosMsg::P1a { ballot } => {
                if ballot > self.ballot {
                    self.ballot = ballot;
                    // Persist the promise before sending it: a promise the
                    // disk doesn't know about could be broken after amnesia.
                    self.persist(&PaxosWal::Ballot(ballot));
                    self.active = false;
                    self.abort_batch();
                    self.leader_hint = Some(ballot.id);
                    self.last_leader_contact = ctx.now();
                    ctx.send(
                        from,
                        PaxosMsg::P1b {
                            ballot,
                            tail: self.uncommitted_tail(),
                            commit_upto: self.commit_upto,
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            ballot: self.ballot,
                        },
                    );
                }
            }
            PaxosMsg::P1b {
                ballot,
                tail,
                commit_upto,
            } => {
                if ballot == self.ballot && !self.active {
                    // Promises from nodes outside the voting membership are
                    // learner echoes — they must not help phase-1 succeed.
                    if !self.members_at(self.frontier()).contains(&from) {
                        return;
                    }
                    if let Some(q) = self.p1_quorum.as_mut() {
                        if q.ack(from) {
                            self.p1_tails.push(tail);
                            if commit_upto > self.p1_max_commit {
                                (self.p1_max_commit, self.p1_max_from) = (commit_upto, from);
                            }
                        }
                        if q.satisfied() {
                            self.become_leader(ctx);
                        }
                    }
                }
            }
            PaxosMsg::P2a {
                ballot,
                slot,
                cmds,
                commit_upto,
            } => {
                if ballot >= self.ballot {
                    if ballot > self.ballot {
                        self.ballot = ballot;
                        self.persist(&PaxosWal::Ballot(ballot));
                    }
                    self.active = false;
                    self.abort_batch();
                    self.leader_hint = Some(ballot.id);
                    // Persist the acceptance before the P2b below: once the
                    // leader counts this vote toward a commit, the accepted
                    // batch must survive any crash here. One record, one
                    // fsync, however many commands the batch carries.
                    self.persist_accept(slot, ballot, &cmds);
                    let mut quorum = CountQuorum::new(self.q2_size_at(slot));
                    quorum.ack(ballot.id);
                    quorum.ack(self.id);
                    self.note_config(slot, &cmds);
                    self.log.insert(
                        slot,
                        Entry {
                            ballot,
                            cmds,
                            quorum,
                            committed: slot < commit_upto,
                        },
                    );
                    // Piggybacked phase-3: everything below commit_upto is
                    // committed (incremental scan from the last mark).
                    self.mark_committed(commit_upto);
                    self.maybe_commit(ctx);
                    // Compaction inside `maybe_commit` can hold this handler
                    // past the election timeout: count the leader's silence
                    // from the handler's end (DESIGN.md, durable commit path).
                    self.last_leader_contact = ctx.now();
                    ctx.send(from, PaxosMsg::P2b { ballot, slot });
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            ballot: self.ballot,
                        },
                    );
                }
            }
            PaxosMsg::P2b { ballot, slot } => {
                if self.active && ballot == self.ballot {
                    // Acks only count from the members governing the slot:
                    // a removed node still accepting as a learner must not
                    // pollute the quorum.
                    if !self.members_at(slot).contains(&from) {
                        return;
                    }
                    if let Some(e) = self.log.get_mut(&slot) {
                        if e.ballot == ballot {
                            e.quorum.ack(from);
                        }
                    }
                    self.maybe_commit(ctx);
                }
            }
            PaxosMsg::Nack { ballot } => {
                if ballot > self.ballot {
                    self.ballot = ballot;
                    self.persist(&PaxosWal::Ballot(ballot));
                    self.active = false;
                    self.abort_batch();
                    self.p1_quorum = None;
                    self.leader_hint = Some(ballot.id);
                    self.last_leader_contact = ctx.now();
                }
            }
            PaxosMsg::Commit { upto } => {
                self.leader_hint = Some(from);
                self.mark_committed(upto);
                self.maybe_commit(ctx);
                // Behind, with no entry to go on from, at two heartbeats in
                // a row: the slot was chosen without this replica and no one
                // will send it again. Ask the teller for its state.
                let stuck = upto > self.execute_upto && !self.log.contains_key(&self.execute_upto);
                let since =
                    std::mem::replace(&mut self.stuck_at, stuck.then_some(self.execute_upto));
                if stuck && since == self.stuck_at {
                    let have = self.execute_upto;
                    ctx.send(from, PaxosMsg::Snapshot(SnapshotMsg::Want { have }));
                }
                self.last_leader_contact = ctx.now(); // after, as for P2a
            }
            PaxosMsg::Snapshot(msg) => self.on_snapshot(from, msg, ctx),
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<PaxosMsg>) {
        if self.active {
            if let Some(change) = membership::as_config_change(&req.cmd) {
                self.handle_reconfig(req, change, ctx);
            } else {
                self.propose(req, ctx);
            }
        } else if let Some(leader) = self.leader_hint {
            if leader == self.id {
                self.pending.push(req);
            } else {
                ctx.forward(leader, req);
            }
        } else {
            self.pending.push(req);
        }
    }

    fn on_timer(&mut self, kind: u64, token: u64, ctx: &mut dyn Context<PaxosMsg>) {
        match kind {
            TIMER_HEARTBEAT if self.active => {
                // Nothing retries phase-2, so a P2a (or its P2b) lost to
                // a fault would block the commit index forever. If the
                // head hasn't moved since the last tick, retransmit the
                // stuck window — duplicates are harmless (acceptors
                // re-ack, quorums are sets), and a healthy run never
                // stalls a full heartbeat, so this costs nothing.
                if self.commit_upto == self.heartbeat_head {
                    let stuck: Vec<(u64, SlotCmds)> = self
                        .log
                        .range(self.commit_upto..)
                        .filter(|(_, e)| {
                            !e.committed && !e.quorum.satisfied() && e.ballot == self.ballot
                        })
                        .take(32)
                        .map(|(s, e)| (*s, e.cmds.clone()))
                        .collect();
                    if !stuck.is_empty() {
                        ctx.count(Metric::Retransmissions, stuck.len() as u64);
                    }
                    for (slot, cmds) in stuck {
                        ctx.broadcast(PaxosMsg::P2a {
                            ballot: self.ballot,
                            slot,
                            cmds,
                            commit_upto: self.commit_upto,
                        });
                    }
                }
                self.heartbeat_head = self.commit_upto;
                ctx.broadcast(PaxosMsg::Commit {
                    upto: self.commit_upto,
                });
                ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            }
            TIMER_BATCH => {
                // A stale fire (the batch already filled or aborted) is None.
                if let Some(cmds) = self.batch.on_timer(token) {
                    if self.active {
                        self.propose_batch(cmds, ctx);
                    } else {
                        self.requeue(cmds);
                    }
                }
            }
            TIMER_ELECTION => {
                if token != self.election_token || !self.cfg.enable_failover {
                    return;
                }
                let now = ctx.now();
                if !self.active
                    && self.members_at(self.frontier()).contains(&self.id)
                    && now.saturating_sub(self.last_leader_contact) >= self.cfg.election_timeout
                {
                    self.start_phase1(ctx);
                }
                self.arm_election_timer(ctx);
            }
            _ => {}
        }
    }

    fn protocol_name(&self) -> &'static str {
        if self.cfg.q2.is_some() {
            "fpaxos"
        } else {
            "paxos"
        }
    }

    /// Phase-2a messages weigh as many commands as the slot batch carries,
    /// so the simulator charges the model's per-command marginal cost on top
    /// of the per-message fixed cost. Everything else (acks, phase-1,
    /// commits) weighs 1 — exactly the pre-batching accounting, which keeps
    /// `max_batch = 1` runs bit-identical to the unbatched protocol.
    fn msg_cmds(msg: &PaxosMsg) -> u64 {
        match msg {
            PaxosMsg::P2a { cmds, .. } => cmds.len().max(1) as u64,
            _ => 1,
        }
    }

    fn msg_kind(msg: &PaxosMsg) -> &'static str {
        match msg {
            PaxosMsg::P1a { .. } => "p1a",
            PaxosMsg::P1b { .. } => "p1b",
            PaxosMsg::P2a { .. } => "p2a",
            PaxosMsg::P2b { .. } => "p2b",
            PaxosMsg::Nack { .. } => "nack",
            PaxosMsg::Commit { .. } => "commit",
            PaxosMsg::Snapshot(msg) => msg.kind(),
        }
    }

    fn store(&self) -> Option<&MultiVersionStore> {
        Some(self.state.store())
    }

    /// The ballot owner this replica would forward requests to (itself when
    /// it is the active leader) — the redirect surface for sharded routing.
    fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// The union of the configuration governing the frontier of this
    /// replica's log and every configuration still inside its α window, for
    /// the auditors' cut-over check.
    fn current_members(&self) -> Option<Vec<NodeId>> {
        let governing = self
            .configs
            .range(..=self.frontier())
            .next_back()
            .map(|(k, _)| *k)
            .unwrap_or(0);
        let mut v: Vec<NodeId> = self
            .configs
            .range(governing..)
            .flat_map(|(_, (_, m))| m.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        Some(v)
    }

    fn migration(&self) -> Option<&MigrationTracker> {
        Some(self.state.migration())
    }
}

/// Convenience factory for a homogeneous MultiPaxos cluster.
pub fn paxos_cluster(cluster: ClusterConfig, cfg: PaxosConfig) -> impl Fn(NodeId) -> MultiPaxos {
    move |id| MultiPaxos::new(id, cluster.clone(), cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, mig_spec, probe, reconfig_request, request, settle};
    use paxi_core::command::Op;
    use paxi_core::config::BATCH_DELAY;
    use paxi_core::id::ClientId;
    use paxi_core::store::Version;
    use paxi_sim::{ClientSetup, SimConfig, Simulator};

    fn lan_sim(n: u8, cfg: PaxosConfig, clients: usize) -> Simulator<MultiPaxos> {
        let sim = SimConfig {
            record_ops: true,
            ..SimConfig::default()
        };
        lan_sim_with(n, cfg, clients, sim)
    }

    fn lan_sim_with(
        n: u8,
        cfg: PaxosConfig,
        clients: usize,
        sim: SimConfig,
    ) -> Simulator<MultiPaxos> {
        let cluster = ClusterConfig::lan(n);
        let setups = ClientSetup::closed_per_zone(&cluster, clients);
        Simulator::new(
            sim,
            cluster.clone(),
            paxos_cluster(cluster, cfg),
            paxi_sim::client::uniform_workload(100),
            setups,
        )
    }

    #[test]
    fn three_node_cluster_serves_requests() {
        let mut sim = lan_sim(3, PaxosConfig::default(), 4);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
        // Mean latency: ~2 LAN RTTs (client->leader + leader->quorum).
        let mean = report.latency.mean.as_millis_f64();
        assert!((0.6..2.5).contains(&mean), "mean {mean} ms");
    }

    #[test]
    fn leader_is_the_busiest_node() {
        let mut sim = lan_sim(9, PaxosConfig::default(), 8);
        let report = sim.run();
        assert_eq!(report.busiest_node(), Some(NodeId::new(0, 0)));
        // Leader handles ~N+2 messages per round vs 2 at followers.
        let leader = &report.node_stats[0];
        let follower = &report.node_stats[5];
        assert!(
            leader.handled > 3 * follower.handled,
            "leader {} follower {}",
            leader.handled,
            follower.handled
        );
    }

    #[test]
    fn stores_agree_across_replicas() {
        let mut sim = lan_sim(3, PaxosConfig::default(), 4);
        let _ = sim.run();
        // All replicas executed a common prefix; with the heartbeat flush the
        // logs are near-identical. Compare per-key histories prefix-wise.
        let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
        let reference = stores[0];
        for s in &stores[1..] {
            for key in reference.keys() {
                let a = reference.history(key);
                let b = s.history(key);
                let common = a.len().min(b.len());
                assert_eq!(
                    &a[..common],
                    &b[..common],
                    "divergent history for key {key}"
                );
            }
        }
    }

    #[test]
    fn fpaxos_q2_quorum_sizes() {
        let cluster = ClusterConfig::lan(9);
        let p = MultiPaxos::new(NodeId::new(0, 0), cluster.clone(), PaxosConfig::flexible(3));
        assert_eq!(p.q2_size(), 3);
        assert_eq!(p.q1_size(), 7);
        let m = MultiPaxos::new(NodeId::new(0, 0), cluster, PaxosConfig::default());
        assert_eq!(m.q2_size(), 5);
        assert_eq!(m.q1_size(), 5);
    }

    #[test]
    fn fpaxos_commits_with_small_quorum() {
        let mut sim = lan_sim(9, PaxosConfig::flexible(3), 4);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn leader_crash_triggers_failover() {
        let cluster = ClusterConfig::lan(3);
        let setups = ClientSetup::closed_per_zone(&cluster, 3);
        let cfg = SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::secs(4),
            client_retry: Some(Nanos::millis(700)),
            timeline_bucket: Some(Nanos::millis(100)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            cluster.clone(),
            paxos_cluster(
                cluster,
                PaxosConfig {
                    election_timeout: Nanos::millis(300),
                    ..PaxosConfig::default()
                },
            ),
            paxi_sim::client::uniform_workload(100),
            setups,
        );
        // Kill the initial leader at t=1s for the rest of the run.
        sim.faults_mut()
            .crash(NodeId::new(0, 0), Nanos::secs(1), Nanos::secs(30));
        let report = sim.run();
        // Progress resumed after the election: completions exist late in the run.
        let late = report
            .timeline
            .iter()
            .filter(|(t, _)| *t > Nanos::secs(2))
            .map(|(_, c)| *c)
            .sum::<u64>();
        assert!(
            late > 100,
            "no post-failover progress: {late} (timeline {:?})",
            report.timeline
        );
    }

    #[test]
    fn reads_return_previously_written_values() {
        let mut sim = lan_sim(3, PaxosConfig::default(), 2);
        let report = sim.run();
        // Every successful read of a key must return either None or a value
        // some client wrote (12-byte unique tag).
        for op in report.ops.iter().filter(|o| o.ok) {
            if let Some(Some(v)) = &op.read {
                assert_eq!(v.len(), 12, "read returned a non-client value");
            }
        }
        // And at least some reads returned data.
        let data_reads = report
            .ops
            .iter()
            .filter(|o| matches!(&o.read, Some(Some(_))))
            .count();
        assert!(data_reads > 0);
    }

    #[test]
    fn unique_write_values_appear_in_some_store() {
        let mut sim = lan_sim(3, PaxosConfig::default(), 2);
        let report = sim.run();
        let store = sim.replicas()[0].store().unwrap();
        // Pick a few acknowledged writes; their values must be in the
        // replicated history of the leader's store.
        let mut checked = 0;
        for op in report
            .ops
            .iter()
            .filter(|o| o.ok && o.write.is_some())
            .take(20)
        {
            let hist = store.history(op.key);
            let v = op.write.as_ref().unwrap();
            assert!(
                hist.contains(&Version::of(Some(v))),
                "acknowledged write missing from leader store"
            );
            checked += 1;
        }
        assert!(checked > 0);
        let _ = Op::Get; // keep import used
    }

    #[test]
    fn client_id_routing_is_consistent() {
        let mut sim = lan_sim(3, PaxosConfig::default(), 3);
        let report = sim.run();
        let clients: std::collections::HashSet<ClientId> =
            report.ops.iter().map(|o| o.client).collect();
        assert_eq!(clients.len(), 3);
    }

    type Probe = crate::testkit::Probe<PaxosMsg>;

    fn durable_follower(hub: &paxi_storage::MemHub<u32>) -> MultiPaxos {
        let make = paxos_cluster(ClusterConfig::lan(3), PaxosConfig::default());
        testkit::durable_follower(hub, make)
    }

    fn lockstep(make: impl Fn(NodeId) -> MultiPaxos) -> Vec<(MultiPaxos, Probe)> {
        testkit::lockstep(make, MultiPaxos::is_leader)
    }

    /// Drives a 3-node replica to leadership via a probe: phase-1 completes
    /// with one empty-tailed promise.
    fn probe_leader(cfg: PaxosConfig) -> (MultiPaxos, Probe) {
        let id = NodeId::new(0, 0);
        let mut r = MultiPaxos::new(id, ClusterConfig::lan(3), cfg);
        let mut ctx = probe(id);
        r.on_start(&mut ctx);
        let ballot = r.current_ballot();
        r.on_message(
            NodeId::new(0, 1),
            PaxosMsg::P1b {
                ballot,
                tail: vec![],
                commit_upto: 0,
            },
            &mut ctx,
        );
        assert!(r.is_leader());
        ctx.sent.clear();
        (r, ctx)
    }

    fn p2a_batches(sent: &[(Option<NodeId>, PaxosMsg)]) -> Vec<&SlotCmds> {
        sent.iter()
            .filter_map(|(_, m)| match m {
                PaxosMsg::P2a { cmds, .. } => Some(cmds),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_batch_goes_out_as_one_p2a() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::batched(4));
        for seq in 0..4 {
            r.on_request(request(seq), &mut ctx);
        }
        let batches = p2a_batches(&ctx.sent);
        assert_eq!(
            batches.len(),
            1,
            "4 commands, max_batch 4: exactly one phase-2 round"
        );
        assert_eq!(batches[0].len(), 4);
        // Order preserved within the batch.
        for (i, (cmd, req)) in batches[0].iter().enumerate() {
            assert_eq!(*cmd, Command::put(i as u64, vec![1]));
            assert_eq!(*req, Some(RequestId::new(ClientId(1), i as u64)));
        }
    }

    #[test]
    fn idle_leader_proposes_a_lone_request_without_the_hold_down() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::batched(4));
        r.on_request(request(0), &mut ctx);
        assert!(
            p2a_batches(&ctx.sent).is_empty(),
            "input already queued at the node is absorbed first"
        );
        let (delay, token) = ctx.last_timer(TIMER_BATCH);
        assert_eq!(
            delay,
            Nanos::ZERO,
            "nothing in flight: the flush must not wait for BATCH_DELAY"
        );
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        let batches = p2a_batches(&ctx.sent);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 1);
        // A stale timer fire after the flush must not emit an empty batch.
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(p2a_batches(&ctx.sent).len(), 1);
    }

    #[test]
    fn requests_queued_behind_the_first_coalesce_into_one_round() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::batched(4));
        // Three requests were waiting in the inbox: the zero-delay flush
        // timer queues behind them, so all three are buffered when it fires.
        for seq in 0..3 {
            r.on_request(request(seq), &mut ctx);
        }
        let flushes = ctx.timers.iter().filter(|t| t.1 == TIMER_BATCH).count();
        assert_eq!(flushes, 1, "one flush timer per partial batch");
        let (_, token) = ctx.last_timer(TIMER_BATCH);
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        let batches = p2a_batches(&ctx.sent);
        assert_eq!(batches.len(), 1, "exactly one phase-2 round");
        assert_eq!(batches[0].len(), 3);
    }

    #[test]
    fn request_behind_an_in_flight_round_waits_for_fill_or_timer() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::batched(4));
        r.on_request(request(0), &mut ctx);
        let (_, token) = ctx.last_timer(TIMER_BATCH);
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(p2a_batches(&ctx.sent).len(), 1, "slot 0 is now in flight");
        // Behind the uncommitted slot the hold-down applies.
        r.on_request(request(1), &mut ctx);
        let (delay, token) = ctx.last_timer(TIMER_BATCH);
        assert_eq!(delay, BATCH_DELAY);
        assert_eq!(p2a_batches(&ctx.sent).len(), 1, "partial batch must wait");
        // ... until the hold-down fires,
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(p2a_batches(&ctx.sent).len(), 2);
        // ... or the batch fills first.
        for seq in 2..6 {
            r.on_request(request(seq), &mut ctx);
        }
        let batches = p2a_batches(&ctx.sent);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].len(), 4);
    }

    #[test]
    fn unbatched_config_proposes_immediately_per_command() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        for seq in 0..3 {
            r.on_request(request(seq), &mut ctx);
        }
        let batches = p2a_batches(&ctx.sent);
        assert_eq!(
            batches.len(),
            3,
            "max_batch = 1: one P2a per command, no buffering"
        );
        assert!(batches.iter().all(|b| b.len() == 1));
        assert!(
            ctx.timers.iter().all(|t| t.1 != TIMER_BATCH),
            "max_batch = 1 never arms the flush timer"
        );
    }

    #[test]
    fn losing_leadership_requeues_the_buffered_batch() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::batched(8));
        r.on_request(request(0), &mut ctx);
        r.on_request(request(1), &mut ctx);
        // A higher ballot arrives: step down; the buffered commands must not
        // be lost (they re-enter the pending queue).
        let usurper = Ballot::default()
            .next(NodeId::new(0, 2))
            .next(NodeId::new(0, 2));
        r.on_message(
            NodeId::new(0, 2),
            PaxosMsg::P1a { ballot: usurper },
            &mut ctx,
        );
        assert!(!r.is_leader());
        assert_eq!(r.pending.len(), 2, "aborted batch folds back into pending");
        assert!(r.batch.abort().is_empty());
    }

    #[test]
    fn batched_cluster_serves_requests_and_stores_agree() {
        let mut sim = lan_sim(3, PaxosConfig::batched(8), 4);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
        let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
        let reference = stores[0];
        for s in &stores[1..] {
            for key in reference.keys() {
                let a = reference.history(key);
                let b = s.history(key);
                let common = a.len().min(b.len());
                assert_eq!(
                    &a[..common],
                    &b[..common],
                    "divergent history for key {key}"
                );
            }
        }
    }

    #[test]
    fn acceptor_state_survives_amnesia() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        r.on_message(
            leader,
            PaxosMsg::P2a {
                ballot,
                slot: 0,
                cmds: vec![(Command::put(7, vec![9]), None)],
                commit_upto: 0,
            },
            &mut ctx,
        );
        assert_eq!(r.current_ballot(), ballot);
        // The node forgets everything (amnesia) and is rebuilt from disk.
        drop(r);
        hub.crash(&1);
        let r2 = durable_follower(&hub);
        assert_eq!(r2.current_ballot(), ballot, "the promise must survive");
        let tail = r2.uncommitted_tail();
        assert_eq!(tail.len(), 1, "the accepted entry must survive");
        assert_eq!(tail[0].0, 0);
        assert_eq!(tail[0].2, vec![(Command::put(7, vec![9]), None)]);
    }

    /// The first image is due at the 512th WAL record, not at the 512th
    /// executed slot: here that record is slot 510's Accept.
    #[test]
    fn snapshot_alone_carries_the_accepted_tail() {
        // The disk state compaction leaves if the process dies the instant
        // install_snapshot returns: a snapshot and zero WAL records. Every
        // accepted-but-unexecuted slot must live inside the snapshot itself
        // — a truncate-then-reappend scheme loses those accepts (whose P2bs
        // the leader may already have counted) at exactly this crash point.
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        // Slot 510's P2a commits (and executes) 0..510 and appends the
        // 512th record, which crosses the compaction threshold inside the
        // handler; slot 510 itself stays accepted-but-unexecuted.
        let first = kernel::SNAPSHOT_EVERY - 2;
        for slot in 0..=first {
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(Command::put(slot % 8, vec![slot as u8]), None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        assert_eq!(
            hub.synced_len(&1),
            0,
            "compaction must leave no post-snapshot WAL records behind"
        );
        hub.crash(&1);
        let r2 = durable_follower(&hub);
        assert_eq!(r2.current_ballot(), ballot);
        assert_eq!(r2.store().unwrap().executed(), first);
        let tail = r2.uncommitted_tail();
        assert_eq!(
            tail.len(),
            1,
            "the accepted tail must survive the compaction crash"
        );
        assert_eq!(tail[0].0, first);
        assert_eq!(
            tail[0].2,
            vec![(Command::put(first % 8, vec![first as u8]), None)]
        );
    }

    /// The image is due at the 512th WAL record, when 510 slots have
    /// executed, so that is the prefix recovery restores.
    #[test]
    fn compaction_snapshots_the_store_and_recovery_resumes_from_it() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        for slot in 0..600u64 {
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(Command::put(slot % 8, vec![slot as u8]), None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        r.on_message(leader, PaxosMsg::Commit { upto: 600 }, &mut ctx);
        assert_eq!(r.store().unwrap().executed(), 600);
        // Crash and rebuild: the snapshot covers the compacted prefix (one
        // compaction fired at the 512th WAL record — one Ballot, 511
        // Accepts — with 510 slots executed), the WAL the rest.
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert_eq!(
            r2.store().unwrap().executed(),
            510,
            "snapshot restores exactly the compacted prefix"
        );
        // The leader's next commit flush re-teaches the volatile indices and
        // re-executes the WAL tail on top of the snapshot.
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(leader, PaxosMsg::Commit { upto: 600 }, &mut ctx2);
        assert_eq!(r2.store().unwrap().executed(), 600);
        for key in 0..8u64 {
            assert_eq!(
                r2.store().unwrap().history(key),
                r.store().unwrap().history(key),
                "recovered history diverges on key {key}"
            );
        }
    }

    #[test]
    fn snapshot_cadence_grows_with_the_snapshot() {
        // A fixed cadence re-dumps the whole store every 512 slots: 39
        // snapshots and O(n²) bytes over this run. Growing with the snapshot
        // it is a handful, and recovery still lands on the same store.
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let total = 20_000u64;
        let (mut snapshots, mut wal_len) = (0, 0);
        for slot in 0..total {
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(Command::put(slot % 64, vec![slot as u8]), None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
            // Only a snapshot install ever shrinks the WAL.
            let len = hub.synced_len(&1);
            snapshots += u32::from(len < wal_len);
            wal_len = len;
        }
        r.on_message(leader, PaxosMsg::Commit { upto: total }, &mut ctx);
        assert!(
            (4..=7).contains(&snapshots),
            "{snapshots} snapshots for {total} slots: want O(log n)"
        );
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert_eq!(r2.state.image().0, r.state.image().0);
        assert!(
            total - r2.state.image().0 <= r2.state.image().0,
            "recovery replays no more slots than the snapshot holds"
        );
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_recover(&mut ctx2);
        r2.on_message(leader, PaxosMsg::Commit { upto: total }, &mut ctx2);
        assert_eq!(r2.state.store().dump(), r.state.store().dump());
    }

    #[test]
    fn p2a_leaves_before_the_leaders_sync_and_no_acked_write_is_lost() {
        use paxi_storage::{FsyncPolicy, MemHub, Storage};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let ids = ClusterConfig::lan(3).all_nodes();
        let (n0, n2) = (ids[0], ids[2]);
        let durable = |id: NodeId, disk: &MemHub<u32>| {
            let mut r = MultiPaxos::new(id, ClusterConfig::lan(3), PaxosConfig::default());
            r.attach_storage(Box::new(disk.open(id.node as u32)));
            r
        };
        let mut nodes = lockstep(|id| durable(id, &hub));
        // Write 1 commits and is acknowledged.
        let (l, ctx) = &mut nodes[0];
        l.on_request(request(1), ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[0].1.replies.iter().any(|r| r.id.seq == 1 && r.ok));

        // Write 2: the P2a is handed to the context while the leader's disk
        // has not synced its own acceptance ...
        let (l, ctx) = &mut nodes[0];
        ctx.disk = Some((hub.clone(), 0));
        hub.drain_syncs(&0);
        l.on_request(request(2), ctx);
        assert_eq!(ctx.at_broadcast.len(), 1);
        assert_eq!(ctx.at_broadcast[0].0, 0, "P2a must not wait for the sync");
        // ... and the sync is done before the handler returns, so the
        // self-vote never counts an unsynced acceptance.
        assert_eq!(hub.drain_syncs(&0), 1);
        let (_, image) = ctx.at_broadcast.pop().unwrap();

        // One acceptor takes slot 1; the leader dies with its disk as of the
        // broadcast instant. Nobody was told write 2 committed.
        settle(&mut nodes, &[n0, n2]);
        assert!(nodes[1].0.log.contains_key(&1));
        assert!(nodes[0].1.replies.iter().all(|r| r.id.seq != 2));
        let disk: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = disk.open(0);
        assert!(image.snapshot.is_none());
        for rec in &image.records {
            s.append(rec).unwrap();
        }
        nodes[0] = (durable(n0, &disk), probe(n0));
        assert!(
            !nodes[0].0.log.contains_key(&1),
            "acceptance was not on disk"
        );

        // It rejoins with a higher ballot; the acceptor's promise reports
        // slot 1, and every write — the acknowledged one above all — lands
        // on every store.
        let (l, ctx) = &mut nodes[0];
        l.on_recover(ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[0].0.is_leader());
        // (A heartbeat teaches the acceptors the commit index.)
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        settle(&mut nodes, &[]);
        for (r, _) in &nodes[..2] {
            assert_eq!(
                r.state.store().get(1),
                Some(&[1][..]),
                "acknowledged write lost"
            );
            assert_eq!(r.state.store().get(2), Some(&[1][..]));
        }
    }

    #[test]
    fn reconfig_rides_the_log_and_activates_after_alpha() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        let n2 = NodeId::new(0, 2);
        r.on_request(
            reconfig_request(0, &ConfigChange::remove(vec![n2])),
            &mut ctx,
        );
        // The config is chosen in slot 0 but governs only from slot α = 4:
        // the epoch advances immediately, the member set does not.
        assert_eq!(r.config_epoch(), 1);
        assert_eq!(
            r.members().len(),
            3,
            "inside the α window the old config still governs"
        );
        assert_eq!(
            p2a_batches(&ctx.sent).len(),
            1,
            "the config entry gets its own slot"
        );
        for seq in 0..3 {
            r.on_request(request(seq), &mut ctx);
        }
        assert_eq!(r.members(), vec![NodeId::new(0, 0), NodeId::new(0, 1)]);
        // Commit everything: the removed node's acks must not be needed.
        let ballot = r.current_ballot();
        for slot in 0..4 {
            r.on_message(NodeId::new(0, 1), PaxosMsg::P2b { ballot, slot }, &mut ctx);
        }
        assert_eq!(r.commit_upto, 4);
    }

    #[test]
    fn removed_acceptor_acks_never_count_after_cut_over() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        let n1 = NodeId::new(0, 1);
        let n2 = NodeId::new(0, 2);
        r.on_request(
            reconfig_request(0, &ConfigChange::remove(vec![n2])),
            &mut ctx,
        );
        for seq in 0..4 {
            r.on_request(request(seq), &mut ctx);
        }
        let ballot = r.current_ballot();
        // Slot 4 is governed by the 2-member config; the removed node's
        // learner ack must not commit it.
        r.on_message(n2, PaxosMsg::P2b { ballot, slot: 4 }, &mut ctx);
        assert_eq!(r.commit_upto, 0, "outsider ack polluted the quorum");
        for slot in 0..5 {
            r.on_message(n1, PaxosMsg::P2b { ballot, slot }, &mut ctx);
        }
        assert_eq!(r.commit_upto, 5);
    }

    #[test]
    fn excluded_leader_steps_down_after_cut_over() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        let me = NodeId::new(0, 0);
        r.on_request(
            reconfig_request(0, &ConfigChange::remove(vec![me])),
            &mut ctx,
        );
        let ballot = r.current_ballot();
        // Inside the window the deposed-to-be leader keeps driving slots.
        for seq in 0..3 {
            r.on_request(request(seq), &mut ctx);
            assert!(r.is_leader());
        }
        for slot in 0..4 {
            r.on_message(NodeId::new(0, 1), PaxosMsg::P2b { ballot, slot }, &mut ctx);
        }
        assert!(
            !r.is_leader(),
            "committed + effective exclusion must depose the leader"
        );
        // The farewell is a final commit flush so survivors learn slot 3.
        let farewell = ctx.sent.iter().rev().find_map(|(_, m)| match m {
            PaxosMsg::Commit { upto } => Some(*upto),
            _ => None,
        });
        assert_eq!(farewell, Some(4));
    }

    #[test]
    fn noop_reconfig_answers_without_a_slot() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        let change = ConfigChange {
            add: vec![NodeId::new(1, 0)],
            remove: vec![NodeId::new(1, 0)],
        };
        r.on_request(reconfig_request(0, &change), &mut ctx);
        assert_eq!(r.config_epoch(), 0);
        assert!(
            p2a_batches(&ctx.sent).is_empty(),
            "a no-op change must not spend a slot"
        );
        assert_eq!(r.next_slot, 0);
    }

    #[test]
    fn removed_node_never_campaigns() {
        let me = NodeId::new(0, 2);
        let mut r = MultiPaxos::new(
            me,
            ClusterConfig::lan(3),
            PaxosConfig {
                election_timeout: Nanos::ZERO,
                ..PaxosConfig::default()
            },
        );
        let mut ctx = probe(me);
        r.on_start(&mut ctx);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let gone = Membership::Stable {
            epoch: 1,
            members: vec![NodeId::new(0, 0), NodeId::new(0, 1)],
        };
        for slot in 0..5 {
            let cmd = if slot == 0 {
                membership::membership_command(&gone)
            } else {
                Command::put(slot, vec![1])
            };
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(cmd, None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        assert_eq!(r.members(), vec![NodeId::new(0, 0), NodeId::new(0, 1)]);
        ctx.sent.clear();
        // Election timeout of zero: the timer condition holds, only the
        // membership gate can stop the campaign.
        r.on_timer(TIMER_ELECTION, 0, &mut ctx);
        assert!(!r.is_leader());
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, PaxosMsg::P1a { .. })),
            "a removed node must stay a quiet learner"
        );
    }

    #[test]
    fn config_survives_amnesia_never_recovering_the_old_one() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let next = Membership::Stable {
            epoch: 1,
            members: vec![NodeId::new(0, 0), NodeId::new(0, 1)],
        };
        for slot in 0..5 {
            let cmd = if slot == 0 {
                membership::membership_command(&next)
            } else {
                Command::put(slot, vec![1])
            };
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(cmd, None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        assert_eq!(r.config_epoch(), 1);
        // Amnesia: the rebuilt replica must come up in the new config —
        // never the pre-transition 3-member one.
        drop(r);
        hub.crash(&1);
        let r2 = durable_follower(&hub);
        assert_eq!(
            r2.config_epoch(),
            1,
            "the chosen config must survive the crash"
        );
        assert_eq!(
            r2.members(),
            vec![NodeId::new(0, 0), NodeId::new(0, 1)],
            "recovery resurrected the old configuration"
        );
    }

    use paxi_core::migration::{migration_command, CommitHalf, MigrationRecord};

    /// Commits one command through the probe leader: propose, then ack the
    /// phase-2 round from a follower so the slot commits and executes.
    fn commit_request(r: &mut MultiPaxos, ctx: &mut Probe, seq: u64, cmd: Command) {
        let slot = r.next_slot;
        r.on_request(
            ClientRequest {
                id: RequestId::new(ClientId(1), seq),
                cmd,
            },
            ctx,
        );
        let ballot = r.current_ballot();
        r.on_message(NodeId::new(0, 1), PaxosMsg::P2b { ballot, slot }, ctx);
    }

    #[test]
    fn frozen_range_rejects_writes_then_hands_off_after_commit() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        r.set_group(GroupId(0));
        let spec = mig_spec();
        // A pre-freeze write to the range executes normally.
        commit_request(&mut r, &mut ctx, 0, Command::put(12, vec![7]));
        assert!(ctx.replies.last().unwrap().ok);
        // Freeze the range; the migration command itself acks ok.
        commit_request(
            &mut r,
            &mut ctx,
            1,
            migration_command(&MigrationRecord::Start(spec)),
        );
        assert!(ctx.replies.last().unwrap().ok);
        // A frozen-range write is rejected retryably (no hand-off yet)...
        commit_request(&mut r, &mut ctx, 2, Command::put(12, vec![9]));
        let rej = ctx.replies.last().unwrap();
        assert!(
            !rej.ok && rej.handoff.is_none(),
            "freeze window rejects retryably"
        );
        // ...and never executed: the store keeps the pre-freeze value.
        assert_eq!(r.state.store().get(12), Some(&[7][..]));
        // Writes outside the range are untouched.
        commit_request(&mut r, &mut ctx, 3, Command::put(3, vec![1]));
        assert!(ctx.replies.last().unwrap().ok);
        // The source commit drops the range and switches rejections to the
        // epoch-tagged hand-off.
        commit_request(
            &mut r,
            &mut ctx,
            4,
            migration_command(&MigrationRecord::Commit {
                spec,
                half: CommitHalf::Source,
            }),
        );
        assert_eq!(
            r.state.store().get(12),
            None,
            "committed hand-off drops the range"
        );
        assert_eq!(r.state.migration().epoch(), 1);
        commit_request(&mut r, &mut ctx, 5, Command::put(12, vec![9]));
        let h = ctx
            .replies
            .last()
            .unwrap()
            .handoff
            .expect("post-commit rejection carries the hand-off");
        assert_eq!(h.group, GroupId(1));
        assert_eq!(h.epoch, 1);
        assert_eq!((h.lo, h.hi), (10, 20));
    }

    #[test]
    fn installed_range_survives_amnesia_via_commit_reteaching() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let spec = mig_spec();
        // Frozen-range state as streamed from the source group.
        let mut src = MultiVersionStore::new();
        src.execute(&Command::put(12, vec![4]));
        src.execute(&Command::put(12, vec![5]));
        let state = src.encode_range(10, 20);
        // A durable follower of the DESTINATION group applies the install
        // and the dest-half commit from its leader's log.
        let mut r = durable_follower(&hub);
        r.set_group(GroupId(1));
        let mut ctx = probe(NodeId::new(0, 1));
        let cmds = [
            migration_command(&MigrationRecord::Install { spec, state }),
            migration_command(&MigrationRecord::Commit {
                spec,
                half: CommitHalf::Dest,
            }),
        ];
        for (slot, cmd) in cmds.into_iter().enumerate() {
            let slot = slot as u64;
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(cmd, None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        r.on_message(leader, PaxosMsg::Commit { upto: 2 }, &mut ctx);
        assert_eq!(
            r.state.store().get(12),
            Some(&[5][..]),
            "install spliced the chain"
        );
        assert!(r.state.migration().installed(1) && r.state.migration().done(1));
        assert_eq!(r.state.migration().epoch(), 1);
        // Amnesia: the rebuilt replica restores the log tail from its WAL
        // Accept records; migration WAL records at or above the snapshot
        // base are deliberately NOT replayed — the commit re-teaching
        // re-executes the tail and rebuilds tracker and store identically.
        drop(r);
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        r2.set_group(GroupId(1));
        assert_eq!(r2.state.store().get(12), None, "nothing re-executed yet");
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(leader, PaxosMsg::Commit { upto: 2 }, &mut ctx2);
        assert_eq!(r2.state.store().get(12), Some(&[5][..]));
        assert!(r2.state.migration().done(1));
        assert_eq!(r2.state.migration().epoch(), 1);
    }

    #[test]
    fn compaction_snapshot_carries_the_migration_tracker() {
        use kernel::SNAPSHOT_EVERY;
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let ballot = Ballot::default().next(leader);
        let spec = mig_spec();
        let mut r = durable_follower(&hub);
        r.set_group(GroupId(0));
        let mut ctx = probe(NodeId::new(0, 1));
        let total = SNAPSHOT_EVERY + 8;
        for slot in 0..total {
            let cmd = match slot {
                0 => migration_command(&MigrationRecord::Start(spec)),
                1 => migration_command(&MigrationRecord::Commit {
                    spec,
                    half: CommitHalf::Source,
                }),
                // Keys 0..5 — outside the migrating [10, 20) range.
                _ => Command::put(slot % 5, vec![1]),
            };
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(cmd, None)],
                    commit_upto: slot,
                },
                &mut ctx,
            );
        }
        r.on_message(leader, PaxosMsg::Commit { upto: total }, &mut ctx);
        assert!(r.state.image().0 > 0, "compaction must have run");
        assert_eq!(r.state.migration().epoch(), 1);
        // Freeze-crash rebuild: the hand-off's log slots were compacted
        // away, so the tracker state now lives only in the snapshot.
        drop(r);
        let mut r2 = durable_follower(&hub);
        r2.set_group(GroupId(0));
        assert_eq!(
            r2.state.migration().epoch(),
            1,
            "snapshot must carry the tracker"
        );
        assert!(
            r2.state
                .migration()
                .rejects(12)
                .expect("dropped range still rejects")
                .committed
        );
        assert_eq!(r2.state.store().get(12), None);
    }

    // Retention: the log is the in-flight window. Nothing reads a slot below
    // `execute_upto` again, so `execute` releases it — leader and acceptors,
    // with and without a WAL.

    /// 2 000 requests, one full batch per lockstep round: whatever has
    /// executed is gone from every log the moment the round settles.
    fn log_is_the_in_flight_window(cfg: PaxosConfig) {
        let round = cfg.batch.max_batch as u64;
        let total = 2_000u64;
        let mut nodes = lockstep(paxos_cluster(ClusterConfig::lan(3), cfg));
        for first in (0..total).step_by(round as usize) {
            let (l, ctx) = &mut nodes[0];
            for seq in first..first + round {
                l.on_request(request(seq), ctx);
            }
            settle(&mut nodes, &[]);
            let sent = first + round;
            let (l, ctx) = &nodes[0];
            assert!(l.log.is_empty(), "leader keeps {:?}", l.log.keys());
            assert_eq!(l.state.store().executed(), sent);
            assert_eq!(ctx.replies.len() as u64, sent);
            for (a, _) in &nodes[1..] {
                // The slot of this round: accepted, its commit rides on the
                // next round's P2a.
                assert!(a.log.len() <= 1, "acceptor keeps {:?}", a.log.keys());
                assert!(a.log.keys().all(|s| *s >= a.commit_upto));
                assert_eq!(
                    a.state.store().executed(),
                    sent - round * a.log.len() as u64
                );
            }
        }
        // A heartbeat teaches the acceptors the last commit.
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        settle(&mut nodes, &[]);
        for (r, _) in &nodes {
            assert!(r.log.is_empty());
            assert_eq!(r.state.store().executed(), total);
            // Nothing accepted is left to read: max(next_slot, commit_upto).
            assert_eq!(r.frontier(), total / round);
        }
    }

    #[test]
    fn executed_slots_leave_the_log_unbatched() {
        log_is_the_in_flight_window(PaxosConfig::default());
    }

    #[test]
    fn executed_slots_leave_the_log_batched() {
        log_is_the_in_flight_window(PaxosConfig::batched(16));
    }

    #[test]
    fn p2a_for_an_executed_slot_is_persisted_acked_and_released_again() {
        use paxi_storage::{FsyncPolicy, MemHub, Storage};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let (leader, n2) = (NodeId::new(0, 0), NodeId::new(0, 2));
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let batch = |slot: u64| vec![(Command::put(slot, vec![slot as u8]), None)];
        let p2a = |ballot, slot| PaxosMsg::P2a {
            ballot,
            slot,
            cmds: batch(slot),
            commit_upto: slot,
        };
        for slot in 0..2 {
            r.on_message(leader, p2a(ballot, slot), &mut ctx);
        }
        r.on_message(leader, PaxosMsg::Commit { upto: 2 }, &mut ctx);
        assert!(r.log.is_empty());
        assert_eq!((r.execute_upto, r.state.store().executed()), (2, 2));
        let store = r.state.store().dump();
        // Once more under the same ballot (a retransmission), then under a
        // higher one: a lagging node that wins leadership re-proposes its
        // whole uncommitted tail, and this acceptor promises as it accepts.
        let usurper = ballot.next(n2);
        for (from, b, slot, records) in [(leader, ballot, 0, 1), (n2, usurper, 1, 2)] {
            hub.drain_appends(&1);
            ctx.sent.clear();
            r.on_message(from, p2a(b, slot), &mut ctx);
            match &ctx.sent[..] {
                [(Some(to), PaxosMsg::P2b { ballot, slot: s })] => {
                    assert_eq!((*to, *ballot, *s), (from, b, slot));
                }
                other => panic!("expected one P2b, got {other:?}"),
            }
            assert_eq!(hub.drain_appends(&1), records, "persisted as ever");
            let image = hub.open(1).recover().unwrap();
            let last = paxi_codec::from_bytes::<PaxosWal>(image.records.last().unwrap());
            let accept = PaxosWal::Accept {
                slot,
                ballot: b,
                cmds: batch(slot),
            };
            assert_eq!(last.unwrap(), accept);
            assert!(!r.log.contains_key(&slot), "swept out by the same handler");
            assert_eq!(r.execute_upto, 2);
            assert_eq!(r.state.store().dump(), store, "nothing executes twice");
        }
        assert_eq!(r.current_ballot(), usurper);
    }

    #[test]
    fn late_p2b_for_a_released_slot_commits_nothing_twice() {
        let (mut r, mut ctx) = probe_leader(PaxosConfig::default());
        // Node 1's ack makes the quorum: slot 0 commits, executes, is gone.
        commit_request(&mut r, &mut ctx, 0, Command::put(1, vec![1]));
        assert!(r.log.is_empty());
        // Slot 1 is in flight when the slower acceptor's ack for 0 arrives.
        r.on_request(request(1), &mut ctx);
        let replies = ctx.replies.len();
        let ballot = r.current_ballot();
        r.on_message(
            NodeId::new(0, 2),
            PaxosMsg::P2b { ballot, slot: 0 },
            &mut ctx,
        );
        assert_eq!((r.commit_upto, r.execute_upto), (1, 1));
        assert_eq!(r.state.store().executed(), 1);
        assert_eq!(ctx.replies.len(), replies);
        assert!(r.log.keys().eq([1u64].iter()));
    }

    /// An acceptor that is never told a commit still compacts: the image is
    /// due at the 512th WAL record, whatever has executed, so it has base 0
    /// and the accepted log as its tail, and recovery replays what follows.
    #[test]
    fn recovered_replica_releases_its_replayed_tail_as_commits_are_retaught() {
        use kernel::SNAPSHOT_EVERY;
        use paxi_storage::{FsyncPolicy, MemHub, Storage};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let (leader, n2) = (NodeId::new(0, 0), NodeId::new(0, 2));
        let ballot = Ballot::default().next(leader);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        // Accepted and never told committed: nothing executes, nothing is
        // released. The 512th record (one Ballot, then slot 510's Accept)
        // makes an image of the accepted log; the WAL holds the slots after.
        let total = SNAPSHOT_EVERY + 3;
        for slot in 0..total {
            r.on_message(
                leader,
                PaxosMsg::P2a {
                    ballot,
                    slot,
                    cmds: vec![(Command::put(slot % 8, vec![slot as u8]), None)],
                    commit_upto: 0,
                },
                &mut ctx,
            );
        }
        assert!(r.log.keys().copied().eq(0..total));
        let disk = hub.open(1).recover().unwrap();
        let snap = Image::decode(&disk.snapshot.unwrap()).unwrap();
        assert_eq!((snap.meta.base, snap.store.executed()), (0, 0));
        assert!(snap.tail.iter().map(|t| t.0).eq(0..SNAPSHOT_EVERY - 1));
        assert_eq!(disk.records.len(), 4, "slots 511 to 514");
        drop(r);
        hub.crash(&1);
        let mut r = durable_follower(&hub);
        assert!(r.log.keys().copied().eq(0..total), "the replayed tail");
        assert!(r.uncommitted_tail().iter().map(|t| t.0).eq(0..total));
        // The leader's heartbeat re-teaches the commit index; each slot
        // leaves as it executes.
        for upto in 1..=3 {
            r.on_message(leader, PaxosMsg::Commit { upto }, &mut ctx);
            assert_eq!(r.execute_upto, upto);
            assert!(r.log.keys().copied().eq(upto..total));
        }
        // A promise reports the log from the commit point, as it always did.
        ctx.sent.clear();
        let usurper = ballot.next(n2);
        r.on_message(n2, PaxosMsg::P1a { ballot: usurper }, &mut ctx);
        match &ctx.sent[..] {
            [(
                Some(to),
                PaxosMsg::P1b {
                    tail, commit_upto, ..
                },
            )] => {
                assert_eq!((*to, *commit_upto), (n2, 3));
                assert!(tail.iter().map(|t| t.0).eq(3..total));
            }
            other => panic!("expected one P1b, got {other:?}"),
        }
        r.on_message(leader, PaxosMsg::Commit { upto: total }, &mut ctx);
        assert!(r.log.is_empty());
        assert_eq!(r.state.store().executed(), total);
        assert_eq!(r.frontier(), total, "max(next_slot, commit_upto)");
    }

    // State transfer: what has left every window is repaired as an image.

    /// Ticks the leader's heartbeat and routes what follows.
    fn heartbeat(nodes: &mut [(MultiPaxos, Probe)], down: &[NodeId]) {
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        settle(nodes, down);
    }

    /// Node 2 is dark while 20 writes commit at nodes 0 and 1 and leave
    /// their logs.
    fn cluster_with_a_gap_at_node_2() -> Vec<(MultiPaxos, Probe)> {
        let mut nodes = lockstep(paxos_cluster(ClusterConfig::lan(3), PaxosConfig::default()));
        let n2 = nodes[2].1.id;
        for seq in 0..25 {
            let (l, ctx) = &mut nodes[0];
            l.on_request(request(seq), ctx);
            settle(
                &mut nodes,
                if seq < 5 {
                    &[]
                } else {
                    std::slice::from_ref(&n2)
                },
            );
        }
        heartbeat(&mut nodes, &[n2]);
        assert!(nodes[0].0.log.is_empty() && nodes[1].0.log.is_empty());
        assert_eq!((nodes[1].0.execute_upto, nodes[2].0.execute_upto), (25, 4));
        nodes
    }

    #[test]
    fn a_commit_index_with_no_entry_to_reach_it_is_repaired_by_the_image() {
        let mut nodes = cluster_with_a_gap_at_node_2();
        // Back in contact. One heartbeat could name a slot a previous leader
        // still has in flight; the same gap at the next one is a lost message.
        heartbeat(&mut nodes, &[]);
        assert_eq!(
            nodes[2].0.execute_upto, 5,
            "slot 4 committed, slot 5 never came"
        );
        assert!(nodes[2].0.state.transfers_idle() && nodes[2].1.replies.is_empty());
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        let commit = ctx.sent.pop().unwrap().1;
        let (r, ctx) = &mut nodes[2];
        r.on_message(NodeId::new(0, 0), commit, ctx);
        match &ctx.sent[..] {
            [(Some(to), PaxosMsg::Snapshot(SnapshotMsg::Want { have: 5 }))] => {
                assert_eq!(*to, NodeId::new(0, 0));
            }
            other => panic!("expected a request for the image, got {other:?}"),
        }
        settle(&mut nodes, &[]);
        let (leader, healed) = (&nodes[0].0, &nodes[2].0);
        assert_eq!(healed.execute_upto, 25);
        assert_eq!(healed.state.store().dump(), leader.state.store().dump());
        assert!(leader.state.transfers_idle() && healed.state.transfers_idle());
        // And it takes part again: the next write reaches all three stores.
        let (l, ctx) = &mut nodes[0];
        l.on_request(request(25), ctx);
        settle(&mut nodes, &[]);
        heartbeat(&mut nodes, &[]);
        assert_eq!(nodes[2].0.state.store().get(25), Some(&[1][..]));
    }

    #[test]
    fn a_node_elected_with_a_gap_fetches_the_image_before_it_proposes() {
        let mut nodes = cluster_with_a_gap_at_node_2();
        let (n0, n1, n2) = (nodes[0].1.id, nodes[1].1.id, nodes[2].1.id);
        // The leader dies; node 2, twenty slots behind, campaigns with a
        // client request waiting.
        let (r, ctx) = &mut nodes[2];
        r.pending.push(request(99));
        r.start_phase1(ctx);
        let p1a = ctx.sent.pop().unwrap().1;
        let (a, actx) = &mut nodes[1];
        a.on_message(n2, p1a, actx);
        let p1b = actx.sent.pop().unwrap().1;
        assert!(matches!(&p1b, PaxosMsg::P1b { tail, commit_upto: 25, .. } if tail.is_empty()));
        // Elected — and the promise names a commit index no tail reaches.
        let (r, ctx) = &mut nodes[2];
        r.on_message(n1, p1b, ctx);
        assert!(!r.is_leader(), "not before the gap is closed");
        match &ctx.sent[..] {
            [(Some(to), PaxosMsg::Snapshot(SnapshotMsg::Want { have }))] => {
                assert_eq!((*to, *have), (n1, r.execute_upto));
            }
            other => panic!("expected a request for the image and nothing else, got {other:?}"),
        }
        settle(&mut nodes, &[n0]);
        // Installed, then leading: the waiting request went into the first
        // slot nobody had chosen, on top of the state it missed.
        let leader = &nodes[2].0;
        assert!(leader.is_leader());
        assert_eq!((leader.execute_upto, leader.next_slot), (26, 26));
        assert!(nodes[2].1.replies.iter().any(|r| r.id.seq == 99 && r.ok));
        for seq in 0..25 {
            assert_eq!(leader.state.store().get(seq), Some(&[1][..]), "write {seq}");
        }
    }

    #[test]
    fn logs_stay_window_sized_in_a_simulated_cluster() {
        let sim = SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::millis(900),
            ..SimConfig::default()
        };
        let mut sim = lan_sim_with(5, PaxosConfig::default(), 8, sim);
        let _ = sim.run();
        for r in sim.replicas().iter() {
            assert!(r.log.len() < 64, "{} slots retained", r.log.len());
            assert!(
                r.state.store().executed() > 1_000,
                "{}",
                r.state.store().executed()
            );
        }
    }

    /// The bytes a durable cluster leaves on its three disks after a fixed
    /// script: an election, a ballot change, a hand-off frozen before and
    /// committed after one compaction, a member removed before it and added
    /// back after, a replica that missed slots repaired by the leader's
    /// image. The constants are what the same body wrote at 9c50f2d, before
    /// the replica layer moved into `kernel.rs`: a record appended in
    /// another order, or encoded otherwise, moves them. Disks 0 and 1 are
    /// re-pinned since the WAL holds only promises and accepts: the config
    /// and migration records they also held are gone, every other record
    /// keeps its bytes. Disk 2 holds the image it was repaired with and
    /// nothing after it, so it never held one. Disks 0 and 1 are re-pinned
    /// again since an image is due by WAL records rather than executed
    /// slots: their compaction runs a few slots earlier, and both disks now
    /// hold the same bytes. All three are re-pinned since config and
    /// migration payloads and the image's tracker state are codec-encoded:
    /// read back through their decoders, every record and image is the one
    /// written before. All three again since an image carries a digest per
    /// version and each key's last value: every record's bytes, each image's
    /// meta and tail, and each key's digests (taken of the values the old
    /// image held) and last value are the ones written before.
    #[test]
    fn disk_bytes_are_the_ones_written_before_the_replica_layer_moved() {
        use crate::snapshot::Image;
        use crate::testkit::disk_digest;
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut nodes = lockstep(|id| {
            let mut r = MultiPaxos::new(id, ClusterConfig::lan(3), PaxosConfig::default());
            r.set_group(GroupId(0));
            r.attach_storage(Box::new(hub.open(u32::from(id.node))));
            r
        });
        let mut seq = 0;
        let mut commit = |nodes: &mut Vec<(MultiPaxos, Probe)>, leader: usize, cmd, down: &[_]| {
            let id = RequestId::new(ClientId(1), seq);
            seq += 1;
            let (r, ctx) = &mut nodes[leader];
            r.on_request(ClientRequest { id, cmd }, ctx);
            settle(nodes, down);
        };
        let (spec, n2) = (mig_spec(), NodeId::new(0, 2));
        for i in 0..20u8 {
            commit(&mut nodes, 0, Command::put(u64::from(i % 7), vec![i]), &[]);
        }
        let freeze = migration_command(&MigrationRecord::Start(spec));
        commit(&mut nodes, 0, freeze, &[]);
        // A write to the frozen range: logged, rejected when it executes.
        commit(&mut nodes, 0, Command::put(12, vec![9]), &[]);
        // 0.1 hears nothing for an election timeout and takes over.
        let timeout = PaxosConfig::default().election_timeout.0;
        let (r, ctx) = &mut nodes[1];
        ctx.clock
            .store(2 * timeout, std::sync::atomic::Ordering::SeqCst);
        let (_, token) = ctx.last_timer(TIMER_ELECTION);
        r.on_timer(TIMER_ELECTION, token, ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[1].0.is_leader() && !nodes[0].0.is_leader());
        let remove = membership::reconfig_command(&ConfigChange::remove(vec![n2]));
        commit(&mut nodes, 1, remove, &[]);
        for i in 0..600u64 {
            let value = vec![i as u8; (i % 5) as usize];
            commit(&mut nodes, 1, Command::put(i % 9, value), &[]);
        }
        let half = CommitHalf::Source;
        let handed_off = migration_command(&MigrationRecord::Commit { spec, half });
        commit(&mut nodes, 1, handed_off, &[]);
        let add = membership::reconfig_command(&ConfigChange::add(vec![n2]));
        commit(&mut nodes, 1, add, &[]);
        // 0.2 is dark for the last six; two heartbeats then name a commit
        // index it has no entry to reach, and it is sent the leader's image.
        for i in 0..6u8 {
            commit(&mut nodes, 1, Command::delete(u64::from(i)), &[n2]);
        }
        for _ in 0..2 {
            let (l, ctx) = &mut nodes[1];
            let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
            l.on_timer(TIMER_HEARTBEAT, token, ctx);
            settle(&mut nodes, &[]);
        }
        for key in 0..2 {
            let disk = hub.open(key).recover().unwrap();
            assert!(disk.snapshot.is_some(), "disk {key}: one compaction ran");
            let records = disk.records.iter();
            let records: Vec<PaxosWal> = records
                .map(|b| paxi_codec::from_bytes(b).unwrap())
                .collect();
            let accept = |r: &PaxosWal| matches!(r, PaxosWal::Accept { .. });
            assert!(records.iter().any(accept), "disk {key}");
        }
        let repaired = hub.open(2).recover().unwrap();
        let image = Image::decode(&repaired.snapshot.unwrap()).unwrap();
        assert_eq!(image.meta.base, nodes[1].0.execute_upto, "adopted, not cut");
        let digests = [0, 1, 2].map(|key| disk_digest(&hub, key));
        assert_eq!(
            digests.map(|d| format!("{d:016x}")),
            ["e56140158574df6d", "e56140158574df6d", "d3023222e5c9b4a6"],
            "re-pinned since an image carries version digests"
        );
    }
}
