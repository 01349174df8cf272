//! Raft.
//!
//! The paper validates Paxi against etcd's Raft (Figure 7): without
//! reconfiguration and recovery differences, Raft and MultiPaxos are
//! essentially the same single-stable-leader protocol and should converge to
//! the same leader-bottleneck throughput. This is a from-scratch Raft with
//! terms, randomized election timeouts, log replication via AppendEntries
//! (with consistency check and conflict truncation), and the
//! commit-only-current-term rule. The log is a window
//! ([`crate::window::LogWindow`]): `apply` releases every entry no live
//! voter still needs, a checkpoint is an image of the state at `applied`
//! ([`crate::snapshot`]), and a follower whose `next_index` has fallen below
//! the leader's window is sent that image instead of log entries.
//! Membership changes are implemented as Raft joint consensus: a
//! C_old,new log entry switches the node to dual-majority rules the moment
//! it is *appended*, the committed joint entry triggers the C_new entry,
//! and a leader excluded by the committed new configuration hands off and
//! steps down. Configuration entries ride the log as ordinary commands on
//! the reserved [`paxi_core::membership::CONFIG_KEY`], so the existing
//! splice WAL records make every transition crash-survivable — a node
//! restarting mid-transition rescans its recovered log and rejoins in the
//! joint or new configuration, never the old one.

use crate::kernel::{self, State};
use crate::snapshot::{Image, Meta, Round, SnapshotMsg, Step, TailEntry};
use crate::window::{LogWindow, Termed};

use paxi_core::command::{ClientRequest, ClientResponse, Command};
use paxi_core::config::{BatchConfig, Batcher, ClusterConfig};
use paxi_core::group::GroupId;
use paxi_core::hash::FxHashMap;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::membership::{self, ConfigChange, JointQuorum, Membership, CONFIG_KEY};
use paxi_core::migration::MigrationTracker;
use paxi_core::obs::{Metric, TraceStage};
use paxi_core::quorum::{majority, QuorumTracker};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use paxi_storage::Storage;
use serde::{Deserialize, Serialize};

const TIMER_ELECTION: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
/// Timer kind: flush a partial command batch (see [`Batcher`]).
const TIMER_BATCH: u64 = 3;
/// Maximum entries per repair AppendEntries.
const REPAIR_BATCH: usize = 256;

/// Tuning knobs for [`Raft`].
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// Base election timeout; actual timeouts are randomized ×[1, 2).
    pub election_timeout: Nanos,
    /// Leader heartbeat period (empty AppendEntries).
    pub heartbeat: Nanos,
    /// Node that may start an election immediately, to converge fast at
    /// startup (set to `None` for fully symmetric startup).
    pub preferred_leader: Option<NodeId>,
    /// Command batching: the leader packs up to `max_batch` client commands
    /// into one AppendEntries (and one WAL splice, hence one fsync).
    /// `max_batch = 1` (the default) is behaviorally identical to unbatched
    /// operation.
    pub batch: BatchConfig,
    /// The initial voting membership. `None` (the default) means every node
    /// of the cluster universe votes — the static-membership behavior. A
    /// subset turns the remaining universe nodes into passive learners that
    /// can later be added via a [`ConfigChange`].
    pub initial_members: Option<Vec<NodeId>>,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout: Nanos::millis(300),
            heartbeat: Nanos::millis(20),
            preferred_leader: Some(NodeId::new(0, 0)),
            batch: BatchConfig::default(),
            initial_members: None,
        }
    }
}

impl RaftConfig {
    /// Configuration with command batching of up to `max_batch` per append.
    pub fn batched(max_batch: usize) -> Self {
        RaftConfig {
            batch: BatchConfig::of(max_batch),
            ..Default::default()
        }
    }
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaftEntry {
    /// Term the entry was proposed in.
    pub term: u64,
    /// The replicated command.
    pub cmd: Command,
    /// Client request to answer (meaningful on the proposing leader).
    pub req: Option<RequestId>,
}

impl Termed for RaftEntry {
    fn term(&self) -> u64 {
        self.term
    }
}

/// Wire messages of Raft.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RaftMsg {
    /// Candidate requests a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of candidate's last log entry.
        last_log_index: u64,
        /// Term of candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote reply.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// Term of the `prev_index` entry.
        prev_term: u64,
        /// New entries (empty for heartbeat).
        entries: Vec<RaftEntry>,
        /// Leader's commit index.
        commit: u64,
    },
    /// AppendEntries reply.
    AppendAck {
        /// Follower's term.
        term: u64,
        /// Whether the consistency check passed and entries were appended.
        success: bool,
        /// On success: index of the follower's last matching entry. On
        /// failure: where the follower's log ends, as a fast-backoff hint —
        /// a follower that missed appends (a crash, a lost link) would
        /// otherwise have the leader walk `next_index` back one entry at a
        /// time, resending ever-larger suffixes.
        match_index: u64,
    },
    /// State transfer to a follower below the leader's window: the leader's
    /// `InstallSnapshot` chunks one way, the follower's `SnapshotAck`s the
    /// other.
    Snapshot {
        /// Sender's term.
        term: u64,
        /// The chunk or its acknowledgement.
        msg: SnapshotMsg,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// One durable WAL record of Raft's persistent state (Figure 2 of the Raft
/// paper: `currentTerm`, `votedFor`, `log[]`), and nothing else: the active
/// configuration and the migration tracker are re-derived from the log.
/// Appended before the message that acknowledges the change, so a recovered
/// replica can never deny a vote it granted or drop an entry it acked.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaftWal {
    /// The term advanced and/or the vote was cast.
    Term {
        /// Current term.
        term: u64,
        /// Who this replica voted for in `term` (if anyone yet).
        voted_for: Option<NodeId>,
    },
    /// A log mutation: `entries` spliced in after `prev_index`, truncating
    /// any conflicting suffix — replaying the record re-runs the exact same
    /// truncate-on-conflict logic the live path used.
    Splice {
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// The spliced entries.
        entries: Vec<RaftEntry>,
    },
}

/// A Raft replica.
pub struct Raft {
    id: NodeId,
    cluster: ClusterConfig,
    cfg: RaftConfig,
    peers: Vec<NodeId>,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: JointQuorum,
    /// The latest configuration at or below the window's base, and the
    /// index it was adopted from (0 = the epoch-0 membership): what is in
    /// force when the window holds no config entry (and re-adopted if
    /// truncation removes every config entry it does hold).
    base_config: (u64, Membership),
    /// The active configuration: the *latest* config entry in the log
    /// (committed or not, per Raft's adopt-on-append rule), or
    /// `base_config`.
    membership: Membership,
    /// Log index of the entry `membership` was adopted from (0 = initial).
    membership_index: u64,
    /// A reconfiguration request waiting for the in-flight transition to
    /// finish (one config change at a time).
    pending_reconfig: Option<ClientRequest>,
    /// The window of the 1-indexed log: what is not yet applied, plus what
    /// a leader keeps for the voters it hears from.
    log: LogWindow<RaftEntry>,
    commit: u64,
    applied: u64,
    next_index: FxHashMap<NodeId, u64>,
    match_index: FxHashMap<NodeId, u64>,
    /// When each peer last answered this leader.
    last_heard: FxHashMap<NodeId, Nanos>,
    /// Scratch of `quorum_commit_floor`: one member set's match indexes.
    matches: Vec<u64>,
    leader_hint: Option<NodeId>,
    last_contact: Nanos,
    election_token: u64,
    /// Store, migration tracker, WAL, image position, state transfer: what
    /// `apply` and `install` act on, never directly.
    state: State,
    pending: Vec<ClientRequest>,
    /// Requests accumulating toward the next batched append (leader only).
    batch: Batcher<ClientRequest>,
}

impl Raft {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig, cfg: RaftConfig) -> Self {
        let initial_members = cfg
            .initial_members
            .clone()
            .unwrap_or_else(|| cluster.all_nodes());
        let membership = Membership::initial(initial_members);
        let peers = membership
            .voters()
            .into_iter()
            .filter(|&p| p != id)
            .collect();
        let batch = Batcher::new(cfg.batch, TIMER_BATCH);
        Raft {
            id,
            cluster,
            cfg,
            peers,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: JointQuorum::of(&membership),
            base_config: (0, membership.clone()),
            membership,
            membership_index: 0,
            pending_reconfig: None,
            log: LogWindow::default(),
            commit: 0,
            applied: 0,
            next_index: FxHashMap::default(),
            match_index: FxHashMap::default(),
            last_heard: FxHashMap::default(),
            matches: Vec::new(),
            leader_hint: None,
            last_contact: Nanos::ZERO,
            election_token: 0,
            state: State::default(),
            pending: Vec::new(),
            batch,
        }
    }

    /// Tells the replica which consensus group it serves in a sharded
    /// deployment ([`State::set_group`]).
    pub fn set_group(&mut self, group: GroupId) {
        self.state.set_group(group);
    }

    /// Appends one WAL record; each counts toward the next checkpoint.
    fn persist(&mut self, rec: &RaftWal) {
        self.state.wal().persist(rec);
    }

    /// Checkpoints — the WAL replaced by an image of the state at `applied`
    /// and the entries above it — when [`State::image_due`] says so. Callers
    /// invoke this only after the in-memory state reflects every record
    /// persisted so far: splice records are written *before* the log
    /// mutation they describe, so checkpointing inside [`Raft::persist`]
    /// would snapshot a log missing the just-persisted entries and then
    /// destroy the WAL record carrying them — losing acked entries on
    /// recovery.
    fn maybe_checkpoint(&mut self) {
        if self.state.image_due() {
            let tail = self.tail_above(self.applied);
            self.state.write_image(self.image_meta(), tail);
        }
    }

    /// The log above `base`, as an image carries it.
    fn tail_above(&self, base: u64) -> Vec<TailEntry> {
        let entry =
            |(i, e): (u64, &RaftEntry)| (i, Round::new(e.term, None), vec![(e.cmd.clone(), e.req)]);
        self.log.iter_from(base + 1).map(entry).collect()
    }

    /// The image of this replica at `applied`, less store and tail.
    fn image_meta(&self) -> Meta {
        let config = self.config_upto(self.applied);
        Meta {
            base: self.applied,
            base_term: self.log.term_at(self.applied).unwrap_or(0),
            promised: Round::new(self.term, self.voted_for),
            configs: vec![config.unwrap_or_else(|| self.base_config.clone())],
            migration: self.state.migration().state(),
            executed: 0,
        }
    }

    /// The latest configuration entry the window holds at or below `upto`.
    fn config_upto(&self, upto: u64) -> Option<(u64, Membership)> {
        let held = self
            .log
            .iter_from(0)
            .take(upto.saturating_sub(self.log.base()) as usize);
        held.rev()
            .filter(|(_, e)| e.cmd.key == CONFIG_KEY)
            .find_map(|(index, e)| Some((index, membership::as_membership(&e.cmd)?)))
    }

    /// Puts this replica at `image`: recovery from the local disk, and the
    /// end of a state transfer. The WAL (when one is attached: not yet,
    /// during recovery) takes the image first, under this replica's own
    /// term and vote; only then do the store and `applied` move. Entries of
    /// this log above the base stay if they continue the image (Raft §7).
    fn install(&mut self, image: Image) {
        let (mut meta, store) = (image.meta, image.store);
        if self.log.term_at(meta.base) == Some(meta.base_term) {
            self.log.release_to(meta.base);
        } else {
            self.log.reset(meta.base, meta.base_term);
            for (_, round, cmds) in image.tail {
                for (cmd, req) in cmds {
                    let term = round.n;
                    self.log.push(RaftEntry { term, cmd, req });
                }
            }
        }
        meta.promised = Round::new(self.term, self.voted_for);
        self.state.adopt(&meta, self.tail_above(meta.base), store);
        if let Some(config) = meta.configs.pop() {
            self.base_config = config;
        }
        self.commit = self.commit.max(meta.base);
        self.applied = meta.base;
        self.rescan_membership();
    }

    /// Persists and records the durable term/vote pair. Every caller
    /// updates `term`/`voted_for` before calling, so the in-memory state
    /// already reflects the record and checkpointing here is safe.
    fn persist_term(&mut self) {
        self.persist(&RaftWal::Term {
            term: self.term,
            voted_for: self.voted_for,
        });
        self.maybe_checkpoint();
    }

    /// Whether this node is the current leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The active configuration (latest config entry in the log, committed
    /// or not, per Raft's adopt-on-append rule).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Every node with a vote in the active configuration.
    pub fn members(&self) -> Vec<NodeId> {
        self.membership.voters()
    }

    /// Epoch of the active configuration (0 = initial).
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    fn last_index(&self) -> u64 {
        self.log.last_index()
    }

    fn last_term(&self) -> u64 {
        self.log.last_term()
    }

    fn arm_election_timer(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        let jitter = ctx.rand_u64() % self.cfg.election_timeout.0.max(1);
        self.election_token =
            ctx.set_timer(self.cfg.election_timeout + Nanos(jitter), TIMER_ELECTION);
    }

    fn step_down(&mut self, term: u64, ctx: &mut dyn Context<RaftMsg>) {
        let was_leader = self.role == Role::Leader;
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.persist_term();
        self.lay_down(ctx);
        if was_leader {
            self.arm_election_timer(ctx);
        }
    }

    /// What ends with leadership (or a candidacy), however it ended.
    fn lay_down(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        self.votes.reset();
        self.last_contact = ctx.now();
        self.abort_batch();
        self.state.stop_sending();
        if let Some(req) = self.pending_reconfig.take() {
            self.pending.push(req);
        }
    }

    /// Leadership hand-off after committing a configuration that excludes
    /// this node. Unlike [`Raft::step_down`] the term does not change (so
    /// the durable vote for this term stays intact — resetting it would
    /// allow a second vote in the same term) and the node simply becomes a
    /// passive follower: the election gate keeps a non-member from ever
    /// campaigning again.
    fn retire(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        self.role = Role::Follower;
        self.leader_hint = None;
        self.lay_down(ctx);
        self.arm_election_timer(ctx);
    }

    /// Folds a not-yet-appended batch back into the pending queue — called
    /// on leadership loss so buffered commands are re-routed to the new
    /// leader instead of silently dropped.
    fn abort_batch(&mut self) {
        self.pending.append(&mut self.batch.abort());
    }

    fn start_election(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        if !self.membership.contains(self.id) {
            // Non-voters (not-yet-added learners, removed nodes) never
            // campaign — a departed node cannot disrupt the new cluster.
            return;
        }
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        // The self-vote counts toward the majority the moment the candidacy
        // is announced, so it must hit the disk first.
        self.persist_term();
        // A joint configuration elects with a majority of *both* member
        // sets (the dual-quorum rule); a stable one with a plain majority.
        self.votes = JointQuorum::of(&self.membership);
        self.votes.ack(self.id);
        if self.votes.satisfied() {
            self.become_leader(ctx);
            return;
        }
        self.cast(
            ctx,
            RaftMsg::RequestVote {
                term: self.term,
                last_log_index: self.last_index(),
                last_log_term: self.last_term(),
            },
        );
    }

    /// Sends `msg` to every voting peer: a true broadcast when the voters
    /// span the whole cluster universe (bit-identical to the static-
    /// membership build), a multicast to the voter subset otherwise.
    fn cast(&self, ctx: &mut dyn Context<RaftMsg>, msg: RaftMsg) {
        if self.peers.len() + 1 >= self.cluster.n() {
            ctx.broadcast(msg);
        } else {
            ctx.multicast(&self.peers, msg);
        }
    }

    fn become_leader(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        // Append a no-op for the new term: Raft only commits entries from
        // the current term via counting (§5.4.2), so without this a quiet
        // leader could never commit inherited entries — wedging the clients
        // waiting on them.
        let noop = RaftEntry {
            term: self.term,
            cmd: Command::get(0),
            req: None,
        };
        self.splice(self.last_index(), vec![noop]);
        // Every peer starts at this leader's own last entry, the no-op.
        let ni = self.last_index().max(1);
        self.last_heard.clear();
        for &p in &self.peers {
            self.next_index.insert(p, ni);
            self.match_index.insert(p, 0);
        }
        // Establish authority immediately: one serialization serves them
        // all (a broadcast, not a cast: learners hear it too).
        if !self.peers.is_empty() {
            ctx.broadcast(self.append_from(ni, self.log.term_at(ni - 1).unwrap_or(0)));
        }
        ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
        for req in std::mem::take(&mut self.pending) {
            self.append_request(req, ctx);
        }
    }

    /// Batches `req` toward the next append. Unbatched (`max_batch == 1`)
    /// every request fills its own batch and ships immediately (optimistic
    /// pipelining; the AppendAck failure path repairs any gap).
    fn append_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<RaftMsg>) {
        let in_flight = self.commit < self.last_index();
        if let Some(reqs) = self.batch.push(req, in_flight, ctx) {
            self.flush_entries(reqs, ctx);
        }
    }

    /// Appends `reqs` as one multi-entry AppendEntries: one broadcast, one
    /// WAL splice, one fsync for the whole batch.
    ///
    /// The broadcast is handed to the context *before* the leader's own
    /// splice is persisted, so the followers' fsyncs overlap the leader's
    /// instead of queueing behind it (Raft thesis §10.2.1). Nothing is
    /// acknowledged early: the leader's own match index is `last_index()`,
    /// which only moves once `splice` — and with it the sync — has returned,
    /// and `advance_commit` runs after that. A leader that dies in between
    /// recovers without the entries, exactly like a follower the append
    /// never reached.
    fn flush_entries(&mut self, reqs: Vec<ClientRequest>, ctx: &mut dyn Context<RaftMsg>) {
        for req in &reqs {
            ctx.trace(TraceStage::Propose, req.id);
        }
        let prev_index = self.last_index();
        let prev_term = self.last_term();
        let entries: Vec<RaftEntry> = reqs
            .into_iter()
            .map(|req| RaftEntry {
                term: self.term,
                cmd: req.cmd,
                req: Some(req.id),
            })
            .collect();
        ctx.broadcast(RaftMsg::AppendEntries {
            term: self.term,
            prev_index,
            prev_term,
            entries: entries.clone(),
            commit: self.commit,
        });
        self.splice(prev_index, entries);
        self.advance_commit(ctx); // single-node cluster
    }

    /// Forwards requests buffered while no leader was known.
    fn drain_pending(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        if self.pending.is_empty() || self.role == Role::Leader {
            return;
        }
        if let Some(leader) = self.leader_hint {
            if leader != self.id {
                for req in std::mem::take(&mut self.pending) {
                    ctx.forward(leader, req);
                }
            }
        }
    }

    /// Appends `entries` after `prev_index`, truncating on conflict; returns
    /// the new match index. Persists the mutation first — the ack the caller
    /// sends makes the leader count these entries as replicated here.
    fn splice(&mut self, prev_index: u64, entries: Vec<RaftEntry>) -> u64 {
        // The record owns its entries, a deep copy: made only when there is
        // a WAL to write it to.
        if !entries.is_empty() && self.state.wal().durable() {
            self.persist(&RaftWal::Splice {
                prev_index,
                entries: entries.clone(),
            });
        }
        let match_index = self.apply_splice(prev_index, entries);
        // Checkpoint only now that the log contains the spliced entries.
        self.maybe_checkpoint();
        match_index
    }

    /// The pure splice body, shared by the live path and WAL replay.
    /// Membership adoption happens here — on *append*, not commit, per the
    /// Raft rule — so a recovered log replays into exactly the joint or new
    /// configuration the live node was using.
    fn apply_splice(&mut self, prev_index: u64, entries: Vec<RaftEntry>) -> u64 {
        let mut config_touched = entries.iter().any(|e| e.cmd.key == CONFIG_KEY);
        let mut idx = prev_index + 1;
        for e in entries {
            match self.log.term_at(idx) {
                // At or below the base: applied state, no longer log.
                _ if idx <= self.log.base() => {}
                Some(term) if term == e.term => {}
                Some(_) => {
                    if idx <= self.membership_index {
                        // Truncation swallowed the adopted config entry:
                        // fall back to the latest surviving one.
                        config_touched = true;
                    }
                    self.log.truncate_from(idx);
                    self.log.push(e);
                }
                None => self.log.push(e),
            }
            idx += 1;
        }
        if config_touched {
            self.rescan_membership();
        }
        idx - 1
    }

    /// Re-derives the active configuration from the log: the latest config
    /// entry wins; a window without one falls back to the configuration in
    /// force at its base. The same code live and on replay, so a recovered
    /// log lands in the configuration the live node was using. Refreshes the
    /// peer set.
    fn rescan_membership(&mut self) {
        let found = self.config_upto(u64::MAX);
        let (index, m) = found.unwrap_or_else(|| self.base_config.clone());
        if index == self.membership_index && m == self.membership {
            return;
        }
        self.membership_index = index;
        self.membership = m;
        self.refresh_peers();
    }

    /// Rebuilds the peer list from the active configuration's voters. A
    /// leader seeds replication state for newly added peers (their first
    /// nack's fast-backoff hint walks `next_index` to wherever their log
    /// actually ends, then bounded repair batches catch them up).
    fn refresh_peers(&mut self) {
        self.peers = self
            .membership
            .voters()
            .into_iter()
            .filter(|&p| p != self.id)
            .collect();
        if self.role == Role::Leader {
            let seed_next = self.last_index().max(1);
            for &p in &self.peers {
                self.next_index.entry(p).or_insert(seed_next);
                self.match_index.entry(p).or_insert(0);
            }
        }
        let peers = &self.peers;
        self.next_index.retain(|k, _| peers.contains(k));
        self.match_index.retain(|k, _| peers.contains(k));
    }

    /// Sends a bounded catch-up batch to one straggler — or, if what it
    /// needs has left the window, the state that replaced it.
    fn send_repair(&mut self, to: NodeId, ctx: &mut dyn Context<RaftMsg>) {
        ctx.count(Metric::Retransmissions, 1);
        let mut ni = *self.next_index.get(&to).unwrap_or(&1);
        if self
            .match_index
            .get(&to)
            .is_some_and(|m| *m >= self.log.base())
        {
            // Nacks walk `next_index` back one by one, past what the
            // follower is known to hold: the window's base is as far back
            // as a repair of it ever needs to start.
            ni = ni.max(self.log.base() + 1);
        }
        let msg = match self.log.term_at(ni - 1) {
            Some(prev_term) => Some(self.append_from(ni, prev_term)),
            // Below the window: the chunk in flight again if it asked before
            // its transfer was over, else the first of a new image.
            None => {
                let have = self.match_index.get(&to).copied().unwrap_or(0);
                let term = self.term;
                let msg = self.exchange_step(to, SnapshotMsg::Want { have }, ctx);
                msg.map(|msg| RaftMsg::Snapshot { term, msg })
            }
        };
        if let Some(msg) = msg {
            ctx.send(to, msg);
        }
    }

    /// The AppendEntries that carries the (bounded) log from `ni` on.
    fn append_from(&self, ni: u64, prev_term: u64) -> RaftMsg {
        let entries = self.log.iter_from(ni).take(REPAIR_BATCH);
        RaftMsg::AppendEntries {
            term: self.term,
            prev_index: ni - 1,
            prev_term,
            entries: entries.map(|(_, e)| e.clone()).collect(),
            commit: self.commit,
        }
    }

    /// The ack that refuses an append, with `match_index` as the hint.
    fn nack(&self, match_index: u64) -> RaftMsg {
        RaftMsg::AppendAck {
            term: self.term,
            success: false,
            match_index,
        }
    }

    /// Runs one step of the state-transfer exchange with `peer` and returns
    /// what to send back. A complete image is installed before its ack is
    /// returned; a chunk that cannot be used is dropped and counted.
    fn exchange_step(
        &mut self,
        peer: NodeId,
        msg: SnapshotMsg,
        ctx: &mut dyn Context<RaftMsg>,
    ) -> Option<SnapshotMsg> {
        match self.state.transfer(peer, msg, self.applied, ctx) {
            Step::Answer { msg, .. } => msg,
            Step::Begin => {
                // The follower's log resumes from the leader's: no tail.
                let (round, meta) = (Round::new(self.term, Some(self.id)), self.image_meta());
                Some(self.state.begin_transfer(peer, round, meta, Vec::new()))
            }
            Step::Install(image, ack) => {
                self.install(image);
                self.apply(ctx);
                Some(SnapshotMsg::Ack(ack))
            }
            Step::Installed(base) => {
                // The follower's state is at the image's base: its log
                // resumes right above.
                let best = base.max(self.match_index.get(&peer).copied().unwrap_or(0));
                self.match_index.insert(peer, best);
                self.next_index.insert(peer, best + 1);
                self.advance_commit(ctx);
                self.send_repair(peer, ctx);
                None
            }
        }
    }

    /// The index replicated on a majority of *every* member set of the
    /// active configuration — the joint-consensus commit rule. For a stable
    /// configuration spanning the whole universe this is exactly the
    /// classic single-majority computation.
    fn quorum_commit_floor(&mut self) -> u64 {
        let own = self.last_index();
        let matches = &mut self.matches;
        let mut floor = u64::MAX;
        for set in self.membership.member_sets() {
            matches.clear();
            matches.extend(set.iter().map(|&p| {
                if p == self.id {
                    own
                } else {
                    *self.match_index.get(&p).unwrap_or(&0)
                }
            }));
            matches.sort_unstable_by(|a, b| b.cmp(a));
            let need = majority(set.len().max(1));
            floor = floor.min(matches.get(need - 1).copied().unwrap_or(0));
        }
        if floor == u64::MAX {
            0
        } else {
            floor
        }
    }

    fn advance_commit(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        if self.role != Role::Leader {
            return;
        }
        let quorum_match = self.quorum_commit_floor();
        // Only commit entries from the current term (Raft §5.4.2).
        if quorum_match > self.commit && self.log.term_at(quorum_match) == Some(self.term) {
            let before = self.commit;
            self.commit = quorum_match;
            ctx.count(Metric::Commits, self.commit - before);
            for (_, e) in self
                .log
                .iter_from(before + 1)
                .take((self.commit - before) as usize)
            {
                if let Some(id) = e.req {
                    ctx.trace(TraceStage::QuorumAck, id);
                }
            }
        }
        self.apply(ctx);
        self.maybe_advance_transition(ctx);
    }

    /// Drives the two-step joint-consensus transition from the leader side:
    /// a *committed* C_old,new entry triggers the C_new entry, and a
    /// committed stable configuration that excludes the leader makes it
    /// hand off (one last commit-bearing heartbeat) and retire. Runs after
    /// every commit advance, so a leader elected mid-transition finishes
    /// the job its predecessor started.
    fn maybe_advance_transition(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        if self.role != Role::Leader {
            return;
        }
        if self.membership_index > self.commit || self.membership_index == 0 {
            return; // transition entry (if any) not yet committed
        }
        if self.membership.is_joint() {
            let stable = self.membership.to_stable();
            let prev_index = self.last_index();
            let prev_term = self.last_term();
            let entries = vec![RaftEntry {
                term: self.term,
                cmd: membership::membership_command(&stable),
                req: None,
            }];
            self.splice(prev_index, entries.clone());
            self.cast(
                ctx,
                RaftMsg::AppendEntries {
                    term: self.term,
                    prev_index,
                    prev_term,
                    entries,
                    commit: self.commit,
                },
            );
            self.advance_commit(ctx); // single-node new config commits now
        } else if !self.membership.contains(self.id) {
            // The committed configuration excludes us: teach the commit
            // index with a final heartbeat, then become a passive learner.
            ctx.broadcast(self.append_from(self.last_index() + 1, self.last_term()));
            self.retire(ctx);
        } else if let Some(req) = self.pending_reconfig.take() {
            // Transition complete and we still lead: admit the queued
            // change.
            self.on_request(req, ctx);
        }
    }

    fn apply(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        while self.applied < self.commit {
            let index = self.applied + 1;
            let Some(e) = self.log.get(index) else { break };
            self.applied = index;
            let leads = self.role == Role::Leader;
            self.state.execute(&e.cmd, e.req, leads, ctx);
        }
        if self.applied > self.log.base() {
            self.release(ctx.now());
        }
    }

    /// Releases every applied entry that no live voter still needs: a
    /// follower everything it has applied, a leader down to the lowest
    /// match index among the voters it has heard from within one election
    /// timeout. A voter silent for longer is repaired by state transfer
    /// when it returns.
    fn release(&mut self, now: Nanos) {
        let mut floor = self.applied;
        if self.role == Role::Leader {
            for (p, &heard) in &self.last_heard {
                if now.saturating_sub(heard) < self.cfg.election_timeout {
                    floor = floor.min(self.match_index.get(p).copied().unwrap_or(floor));
                }
            }
        }
        if floor <= self.log.base() {
            return;
        }
        // A config entry that leaves the window stays reachable as the
        // configuration in force at its base.
        if let Some(config) = self.config_upto(floor) {
            self.base_config = config;
        }
        self.log.release_to(floor);
    }

    /// Leader-side handling of a client [`ConfigChange`]: resolves the
    /// delta against the current membership and replicates the resulting
    /// C_old,new entry (adopted on append, committed under dual majority).
    /// No-op changes answer immediately without touching the log, so an
    /// add-then-remove of the same node leaves the run bit-identical to a
    /// static one. One transition at a time: a change arriving mid-flight
    /// waits in `pending_reconfig` (or is rejected if that seat is taken).
    fn handle_reconfig(
        &mut self,
        mut req: ClientRequest,
        change: ConfigChange,
        ctx: &mut dyn Context<RaftMsg>,
    ) {
        if self.membership.is_joint() || self.membership_index > self.commit {
            if self.pending_reconfig.is_none() {
                self.pending_reconfig = Some(req);
            } else {
                ctx.reply(ClientResponse::err(req.id));
            }
            return;
        }
        let members = self.membership.target().to_vec();
        if change.is_noop_on(&members) {
            ctx.reply(ClientResponse::ok(req.id, None));
            return;
        }
        let new = change.apply(&members);
        if new.is_empty() {
            ctx.reply(ClientResponse::err(req.id));
            return;
        }
        let joint = Membership::Joint {
            epoch: self.membership.epoch() + 1,
            old: members,
            new,
        };
        req.cmd = membership::membership_command(&joint);
        // Bypasses batching: a config entry gets its own append and fsync.
        self.flush_entries(vec![req], ctx);
    }
}

impl Replica for Raft {
    type Msg = RaftMsg;

    /// Rebuilds the durable state: the checkpoint's image first (term, vote,
    /// the store and `applied` it was taken at, the entries above), then the
    /// WAL records in append order. `commit` and `applied` above the image
    /// are volatile — the next leader commit index re-drives execution from
    /// there over the recovered log.
    fn attach_storage(&mut self, mut storage: Box<dyn Storage>) {
        let (image, records) = kernel::recover::<RaftWal>(storage.as_mut());
        if let Some(image) = image {
            self.term = image.meta.promised.n;
            self.voted_for = image.meta.promised.by;
            self.install(image);
        }
        let replayed = records.len();
        for rec in records {
            match rec {
                RaftWal::Term { term, voted_for } => {
                    self.term = term;
                    self.voted_for = voted_for;
                }
                // Adopts the latest (joint or new) configuration the log
                // holds, as live; migration commands re-execute once commit
                // is re-taught.
                RaftWal::Splice {
                    prev_index,
                    entries,
                } => {
                    self.apply_splice(prev_index, entries);
                }
            }
        }
        self.state.wal().attach(storage, replayed);
    }

    fn sync_storage(&mut self) {
        self.state.wal().tick();
    }

    fn on_start(&mut self, ctx: &mut dyn Context<RaftMsg>) {
        self.last_contact = ctx.now();
        // Requests arriving before the first election resolves are forwarded
        // toward the expected leader rather than buffered indefinitely.
        self.leader_hint = self.cfg.preferred_leader;
        if self.cfg.preferred_leader == Some(self.id) {
            self.start_election(ctx);
        }
        self.arm_election_timer(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: RaftMsg, ctx: &mut dyn Context<RaftMsg>) {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    // The term is adopted whoever asks, the election clock
                    // restarts only for a candidate that gets the vote: one
                    // whose log is stale can ask for ever, and must not keep
                    // every electable node from timing out.
                    let heard = self.last_contact;
                    self.step_down(term, ctx);
                    self.last_contact = heard;
                }
                let up_to_date =
                    (last_log_term, last_log_index) >= (self.last_term(), self.last_index());
                let grant = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if grant {
                    self.voted_for = Some(from);
                    // A granted vote the disk doesn't know about could be
                    // re-cast for a different candidate after amnesia —
                    // persist before the Vote leaves.
                    self.persist_term();
                    self.last_contact = ctx.now();
                }
                ctx.send(
                    from,
                    RaftMsg::Vote {
                        term: self.term,
                        granted: grant,
                    },
                );
            }
            RaftMsg::Vote { term, granted } => {
                if term > self.term {
                    self.step_down(term, ctx);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    // JointQuorum ignores acks from outside the member
                    // sets, so a removed node's vote can never elect.
                    self.votes.ack(from);
                    if self.votes.satisfied() {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.step_down(term, ctx);
                }
                if term < self.term {
                    return ctx.send(from, self.nack(0));
                }
                self.last_contact = ctx.now();
                self.leader_hint = Some(from);
                self.drain_pending(ctx);
                // What lies at or below the window's base is applied state
                // the leader shares: only the rest of the append is news.
                let below = self.log.base().saturating_sub(prev_index) as usize;
                let below = below.min(entries.len());
                let mut entries = entries;
                entries.drain(..below);
                let prev_index = prev_index + below as u64;
                // Consistency check.
                let ok = match self.log.term_at(prev_index) {
                    Some(term) => below > 0 || term == prev_term,
                    None => prev_index < self.log.base(),
                };
                if !ok {
                    // Past the log's end or on a conflicting entry: the nack
                    // says where this log ends, and the leader walks back
                    // from there (and repeats a lost image chunk).
                    let hint = self.last_index().min(prev_index.saturating_sub(1));
                    return ctx.send(from, self.nack(hint));
                }
                let match_index = self.splice(prev_index, entries);
                let before = self.commit;
                self.commit = self.commit.max(commit.min(match_index));
                if self.commit > before {
                    ctx.count(Metric::Commits, self.commit - before);
                }
                self.apply(ctx);
                // A checkpoint inside `splice` can hold this handler past the
                // election timeout: count the leader's silence from the
                // handler's end (DESIGN.md, durable commit path).
                self.last_contact = ctx.now();
                ctx.send(
                    from,
                    RaftMsg::AppendAck {
                        term: self.term,
                        success: true,
                        match_index,
                    },
                );
            }
            RaftMsg::AppendAck {
                term,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.step_down(term, ctx);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                self.last_heard.insert(from, ctx.now());
                if success {
                    // Acks from nodes outside the replication set (learners
                    // reached by a universe broadcast, just-removed peers)
                    // carry no quorum weight and are dropped here.
                    let Some(&prev) = self.match_index.get(&from) else {
                        return;
                    };
                    let best = match_index.max(prev);
                    self.match_index.insert(from, best);
                    self.next_index.insert(from, best + 1);
                    self.advance_commit(ctx);
                    // Keep repairing if the follower is still behind a
                    // previous bounded batch.
                    if best + (REPAIR_BATCH as u64) < self.last_index() {
                        self.send_repair(from, ctx);
                    }
                } else {
                    // Back off using the follower's hint and retry with a
                    // bounded batch: a follower behind a gap nacks every
                    // pipelined append that reaches it after the gap, and
                    // each nack is answered with a repair.
                    let Some(ni) = self.next_index.get_mut(&from) else {
                        return;
                    };
                    *ni = (match_index + 1).min((*ni).saturating_sub(1)).max(1);
                    self.send_repair(from, ctx);
                }
            }
            RaftMsg::Snapshot { term, msg } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.step_down(term, ctx);
                }
                let from_leader = matches!(msg, SnapshotMsg::Install(_));
                if from_leader && term < self.term {
                    // A deposed leader learns the term from the nack.
                    return ctx.send(from, self.nack(0));
                }
                let mine = self.is_leader() && term == self.term;
                if from_leader {
                    self.leader_hint = Some(from);
                } else if mine && self.match_index.contains_key(&from) {
                    self.last_heard.insert(from, ctx.now());
                } else {
                    return;
                }
                if let Some(msg) = self.exchange_step(from, msg, ctx) {
                    let term = self.term;
                    ctx.send(from, RaftMsg::Snapshot { term, msg });
                }
                if from_leader {
                    self.last_contact = ctx.now(); // after an install, as for appends
                }
            }
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<RaftMsg>) {
        match self.role {
            Role::Leader => {
                if let Some(change) = membership::as_config_change(&req.cmd) {
                    self.handle_reconfig(req, change, ctx);
                } else {
                    self.append_request(req, ctx);
                }
            }
            _ => match self.leader_hint {
                Some(l) if l != self.id => ctx.forward(l, req),
                _ => self.pending.push(req),
            },
        }
    }

    fn on_timer(&mut self, kind: u64, token: u64, ctx: &mut dyn Context<RaftMsg>) {
        match kind {
            TIMER_ELECTION => {
                if token != self.election_token {
                    return;
                }
                if self.role != Role::Leader
                    && ctx.now().saturating_sub(self.last_contact) >= self.cfg.election_timeout
                {
                    self.start_election(ctx);
                }
                self.arm_election_timer(ctx);
            }
            TIMER_HEARTBEAT if self.role == Role::Leader => {
                ctx.broadcast(self.append_from(self.last_index() + 1, self.last_term()));
                ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            }
            TIMER_BATCH => {
                // A stale fire (the batch already filled or aborted) is None.
                if let Some(mut reqs) = self.batch.on_timer(token) {
                    if self.role == Role::Leader {
                        self.flush_entries(reqs, ctx);
                    } else {
                        self.pending.append(&mut reqs);
                    }
                }
            }
            _ => {}
        }
    }

    fn protocol_name(&self) -> &'static str {
        "raft"
    }

    /// AppendEntries weighs as many commands as it carries (batched appends
    /// and repair bursts alike); heartbeats and everything else weigh 1, so
    /// the simulator's per-command marginal cost only applies where commands
    /// actually flow.
    fn msg_cmds(msg: &RaftMsg) -> u64 {
        match msg {
            RaftMsg::AppendEntries { entries, .. } => entries.len().max(1) as u64,
            _ => 1,
        }
    }

    /// Stable wire-type names for the per-type observability breakdown.
    /// Empty appends are heartbeats and named separately, so the per-commit
    /// replication traffic can be audited without the keepalive noise.
    fn msg_kind(msg: &RaftMsg) -> &'static str {
        match msg {
            RaftMsg::RequestVote { .. } => "request_vote",
            RaftMsg::Vote { .. } => "vote",
            RaftMsg::AppendEntries { entries, .. } if entries.is_empty() => "heartbeat",
            RaftMsg::AppendEntries { .. } => "append_entries",
            RaftMsg::AppendAck { .. } => "append_ack",
            RaftMsg::Snapshot { msg, .. } => msg.kind(),
        }
    }

    fn store(&self) -> Option<&MultiVersionStore> {
        Some(self.state.store())
    }

    /// The node this replica believes is the current Raft leader — the
    /// redirect surface for sharded routing.
    fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// The voters of the active configuration, for the auditors' cut-over
    /// check.
    fn current_members(&self) -> Option<Vec<NodeId>> {
        Some(self.membership.voters())
    }

    /// The replica-local migration tracker — the shard runtime polls this to
    /// drive hand-off phases and audit range ownership.
    fn migration(&self) -> Option<&MigrationTracker> {
        Some(self.state.migration())
    }
}

/// Convenience factory for a homogeneous Raft cluster.
pub fn raft_cluster(cluster: ClusterConfig, cfg: RaftConfig) -> impl Fn(NodeId) -> Raft {
    move |id| Raft::new(id, cluster.clone(), cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, mig_spec, probe, put_req, reconfig_request, request, settle};
    use paxi_core::config::BATCH_DELAY;
    use paxi_sim::{ClientSetup, SimConfig, Simulator};

    fn lan_sim(n: u8, cfg: RaftConfig, clients: usize) -> Simulator<Raft> {
        let cluster = ClusterConfig::lan(n);
        let setups = ClientSetup::closed_per_zone(&cluster, clients);
        Simulator::new(
            SimConfig {
                record_ops: true,
                ..SimConfig::default()
            },
            cluster.clone(),
            raft_cluster(cluster, cfg),
            paxi_sim::client::uniform_workload(100),
            setups,
        )
    }

    #[test]
    fn raft_serves_requests() {
        let mut sim = lan_sim(3, RaftConfig::default(), 4);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn heartbeats_keep_a_single_leader() {
        let mut sim = lan_sim(5, RaftConfig::default(), 2);
        let _ = sim.run();
        let leaders: Vec<_> = sim.replicas().iter().filter(|r| r.is_leader()).collect();
        assert_eq!(leaders.len(), 1, "exactly one leader at steady state");
        // All nodes share the leader's term.
        let term = leaders[0].term();
        assert!(sim.replicas().iter().all(|r| r.term() == term));
    }

    #[test]
    fn logs_share_common_prefix() {
        let mut sim = lan_sim(3, RaftConfig::default(), 4);
        let _ = sim.run();
        let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
        for s in &stores[1..] {
            for key in stores[0].keys() {
                let a = stores[0].history(key);
                let b = s.history(key);
                let common = a.len().min(b.len());
                assert_eq!(&a[..common], &b[..common]);
            }
        }
    }

    #[test]
    fn leader_crash_elects_new_leader_and_resumes() {
        let cluster = ClusterConfig::lan(5);
        let setups = ClientSetup::closed_per_zone(&cluster, 3);
        let cfg = SimConfig {
            warmup: Nanos::millis(100),
            measure: Nanos::secs(4),
            client_retry: Some(Nanos::millis(700)),
            timeline_bucket: Some(Nanos::millis(100)),
            record_ops: false,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            cluster.clone(),
            raft_cluster(cluster, RaftConfig::default()),
            paxi_sim::client::uniform_workload(100),
            setups,
        );
        sim.faults_mut()
            .crash(NodeId::new(0, 0), Nanos::secs(1), Nanos::secs(30));
        let report = sim.run();
        let late: u64 = report
            .timeline
            .iter()
            .filter(|(t, _)| *t > Nanos::secs(2))
            .map(|(_, c)| *c)
            .sum();
        assert!(late > 100, "no post-failover progress: {late}");
        let leaders = sim.replicas().iter().filter(|r| r.is_leader()).count();
        assert!(leaders >= 1);
    }

    type Probe = crate::testkit::Probe<RaftMsg>;

    fn durable_follower(hub: &paxi_storage::MemHub<u32>) -> Raft {
        let make = raft_cluster(ClusterConfig::lan(3), RaftConfig::default());
        testkit::durable_follower(hub, make)
    }

    fn lockstep(make: impl Fn(NodeId) -> Raft) -> Vec<(Raft, Probe)> {
        testkit::lockstep(make, Raft::is_leader)
    }

    #[test]
    fn votes_are_denied_to_stale_logs() {
        let cluster = ClusterConfig::lan(3);
        let mut r = Raft::new(NodeId::new(0, 1), cluster, RaftConfig::default());
        // Give the voter a log entry at term 2.
        r.term = 2;
        r.log.push(RaftEntry {
            term: 2,
            cmd: Command::get(1),
            req: None,
        });
        let mut ctx = probe(NodeId::new(0, 1));
        // Candidate with an older last-log term must be rejected.
        r.on_message(
            NodeId::new(0, 2),
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 5,
                last_log_term: 1,
            },
            &mut ctx,
        );
        match &ctx.sent[0].1 {
            RaftMsg::Vote { granted, .. } => assert!(!granted, "stale log must not win votes"),
            other => panic!("expected a vote, got {other:?}"),
        }
        // Candidate with an up-to-date log gets the vote.
        r.on_message(
            NodeId::new(0, 2),
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 5,
                last_log_term: 2,
            },
            &mut ctx,
        );
        match &ctx.sent[1].1 {
            RaftMsg::Vote { granted, .. } => assert!(granted),
            other => panic!("expected a vote, got {other:?}"),
        }
    }

    #[test]
    fn at_most_one_vote_per_term() {
        let cluster = ClusterConfig::lan(3);
        let mut r = Raft::new(NodeId::new(0, 1), cluster, RaftConfig::default());
        let mut ctx = probe(NodeId::new(0, 1));
        r.on_message(
            NodeId::new(0, 0),
            RaftMsg::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut ctx,
        );
        r.on_message(
            NodeId::new(0, 2),
            RaftMsg::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut ctx,
        );
        let grants: Vec<bool> = ctx
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                RaftMsg::Vote { granted, .. } => Some(*granted),
                _ => None,
            })
            .collect();
        assert_eq!(
            grants,
            vec![true, false],
            "second candidate in same term denied"
        );
    }

    #[test]
    fn an_append_past_the_log_end_is_nacked_with_where_the_log_ends() {
        let cluster = ClusterConfig::lan(3);
        let mut r = Raft::new(NodeId::new(0, 1), cluster, RaftConfig::default());
        let mut ctx = probe(NodeId::new(0, 1));
        let append = |prev_index: u64, i: u8| RaftMsg::AppendEntries {
            term: 1,
            prev_index,
            prev_term: prev_index,
            entries: vec![RaftEntry {
                term: 1,
                cmd: Command::put(i as u64, vec![i]),
                req: None,
            }],
            commit: 0,
        };
        let ack = |sent: &(Option<NodeId>, RaftMsg)| match &sent.1 {
            RaftMsg::AppendAck {
                success,
                match_index,
                ..
            } => (*success, *match_index),
            other => panic!("expected an ack, got {other:?}"),
        };
        // Entry 2 comes to an empty log: the log ends at 0, and says so.
        r.on_message(NodeId::new(0, 0), append(1, 2), &mut ctx);
        assert_eq!(ack(&ctx.sent[0]), (false, 0));
        assert_eq!(r.last_index(), 0, "nothing spliced");
        // The append that fits is acked.
        r.on_message(NodeId::new(0, 0), append(0, 1), &mut ctx);
        assert_eq!(ack(&ctx.sent[1]), (true, 1));
        assert_eq!(r.last_index(), 1);
    }

    #[test]
    fn new_leader_appends_a_noop_to_unlock_old_entries() {
        let cluster = ClusterConfig::lan(1); // single node: elects itself
        let mut r = Raft::new(NodeId::new(0, 0), cluster, RaftConfig::default());
        let mut ctx = probe(NodeId::new(0, 0));
        r.on_start(&mut ctx);
        assert!(r.is_leader());
        // Log: sentinel + the term-1 no-op.
        assert_eq!(r.last_index(), 1);
        assert_eq!(r.term(), 1);
    }

    #[test]
    fn a_new_leaders_first_contact_is_exactly_one_broadcast() {
        let (n0, n1) = (NodeId::new(0, 0), NodeId::new(0, 1));
        let mut r = Raft::new(n0, ClusterConfig::lan(3), RaftConfig::default());
        let mut ctx = probe(n0);
        r.on_start(&mut ctx);
        ctx.sent.clear();
        let (term, granted) = (r.term(), true);
        r.on_message(n1, RaftMsg::Vote { term, granted }, &mut ctx);
        assert!(r.is_leader());
        // Both peers start at the leader's last entry: one AppendEntries
        // carrying the term's no-op, to everyone, and nothing else.
        match &ctx.sent[..] {
            [(None, RaftMsg::AppendEntries { entries, .. })] => assert_eq!(entries.len(), 1),
            other => panic!("expected one broadcast append, got {other:?}"),
        }
    }

    fn append_batches(sent: &[(Option<NodeId>, RaftMsg)]) -> Vec<usize> {
        sent.iter()
            .filter_map(|(_, m)| match m {
                RaftMsg::AppendEntries { entries, .. } if !entries.is_empty() => {
                    Some(entries.len())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_batch_goes_out_as_one_append() {
        let cluster = ClusterConfig::lan(1); // single node: elects itself
        let mut r = Raft::new(NodeId::new(0, 0), cluster, RaftConfig::batched(4));
        let mut ctx = probe(NodeId::new(0, 0));
        r.on_start(&mut ctx);
        assert!(r.is_leader());
        ctx.sent.clear();
        for seq in 0..4 {
            r.on_request(request(seq), &mut ctx);
        }
        assert_eq!(
            append_batches(&ctx.sent),
            vec![4],
            "4 commands: one 4-entry append"
        );
        // Single-node cluster commits immediately: replies fan back out per
        // command, in order.
        assert_eq!(ctx.replies.len(), 4);
        for (i, resp) in ctx.replies.iter().enumerate() {
            assert_eq!(resp.id.seq, i as u64);
        }
    }

    /// A 3-node leader with an empty pipeline: elected by 0.1's vote, its
    /// term's no-op acknowledged by 0.1 and committed.
    fn idle_leader(cfg: RaftConfig) -> (Raft, Probe) {
        let (n0, n1) = (NodeId::new(0, 0), NodeId::new(0, 1));
        let mut r = Raft::new(n0, ClusterConfig::lan(3), cfg);
        let mut ctx = probe(n0);
        r.on_start(&mut ctx);
        let term = r.term();
        r.on_message(
            n1,
            RaftMsg::Vote {
                term,
                granted: true,
            },
            &mut ctx,
        );
        assert!(r.is_leader());
        r.on_message(
            n1,
            RaftMsg::AppendAck {
                term,
                success: true,
                match_index: 1,
            },
            &mut ctx,
        );
        assert_eq!(r.commit, r.last_index(), "nothing in flight");
        ctx.sent.clear();
        (r, ctx)
    }

    #[test]
    fn idle_leader_appends_a_lone_request_without_the_hold_down() {
        let (mut r, mut ctx) = idle_leader(RaftConfig::batched(4));
        r.on_request(request(0), &mut ctx);
        assert!(
            append_batches(&ctx.sent).is_empty(),
            "input already queued at the node is absorbed first"
        );
        let (delay, token) = ctx.last_timer(TIMER_BATCH);
        assert_eq!(
            delay,
            Nanos::ZERO,
            "nothing in flight: the flush must not wait for BATCH_DELAY"
        );
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(append_batches(&ctx.sent), vec![1]);
        // A stale fire after the flush must not emit an empty batch.
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(append_batches(&ctx.sent), vec![1]);
    }

    #[test]
    fn requests_queued_behind_the_first_coalesce_into_one_append() {
        let (mut r, mut ctx) = idle_leader(RaftConfig::batched(4));
        // Three requests were waiting in the inbox: the zero-delay flush
        // timer queues behind them, so all three are buffered when it fires.
        for seq in 0..3 {
            r.on_request(request(seq), &mut ctx);
        }
        let flushes = ctx.timers.iter().filter(|t| t.1 == TIMER_BATCH).count();
        assert_eq!(flushes, 1, "one flush timer per partial batch");
        let (_, token) = ctx.last_timer(TIMER_BATCH);
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(append_batches(&ctx.sent), vec![3]);
    }

    #[test]
    fn request_behind_an_in_flight_append_waits_for_fill_or_timer() {
        let (mut r, mut ctx) = idle_leader(RaftConfig::batched(4));
        r.on_request(request(0), &mut ctx);
        let (_, token) = ctx.last_timer(TIMER_BATCH);
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(append_batches(&ctx.sent), vec![1], "entry 2 is in flight");
        // Behind the uncommitted entry the hold-down applies.
        r.on_request(request(1), &mut ctx);
        let (delay, token) = ctx.last_timer(TIMER_BATCH);
        assert_eq!(delay, BATCH_DELAY);
        assert_eq!(
            append_batches(&ctx.sent),
            vec![1],
            "partial batch must wait"
        );
        // ... until the hold-down fires,
        r.on_timer(TIMER_BATCH, token, &mut ctx);
        assert_eq!(append_batches(&ctx.sent), vec![1, 1]);
        // ... or the batch fills first.
        for seq in 2..6 {
            r.on_request(request(seq), &mut ctx);
        }
        assert_eq!(append_batches(&ctx.sent), vec![1, 1, 4]);
    }

    #[test]
    fn batched_raft_cluster_serves_requests() {
        let mut sim = lan_sim(3, RaftConfig::batched(8), 4);
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn term_vote_and_log_survive_amnesia() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        r.on_message(
            leader,
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut ctx,
        );
        let e = |i: u8| RaftEntry {
            term: 3,
            cmd: Command::put(i as u64, vec![i]),
            req: None,
        };
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 3,
                prev_index: 0,
                prev_term: 0,
                entries: vec![e(1), e(2)],
                commit: 0,
            },
            &mut ctx,
        );
        assert_eq!(r.term(), 3);
        assert_eq!(r.last_index(), 2);
        // Amnesia: rebuild from disk alone.
        drop(r);
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert_eq!(r2.term(), 3, "current term must survive");
        assert_eq!(r2.last_index(), 2, "acked log entries must survive");
        // The vote is sticky: a different candidate in the same term is
        // denied even after the crash.
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(
            NodeId::new(0, 2),
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 9,
                last_log_term: 3,
            },
            &mut ctx2,
        );
        match &ctx2.sent[0].1 {
            RaftMsg::Vote { granted, .. } => {
                assert!(!granted, "recovered replica must not double-vote in a term");
            }
            other => panic!("expected a vote, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_compacts_the_wal_and_commit_redrives_the_state_machine() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let e = |i: u64| RaftEntry {
            term: 1,
            cmd: Command::put(i % 8, vec![i as u8]),
            req: None,
        };
        for i in 1..=600u64 {
            r.on_message(
                leader,
                RaftMsg::AppendEntries {
                    term: 1,
                    prev_index: i - 1,
                    prev_term: if i == 1 { 0 } else { 1 },
                    entries: vec![e(i)],
                    commit: i - 1,
                },
                &mut ctx,
            );
        }
        assert_eq!(r.last_index(), 600);
        // Flush the commit index so the pre-crash store reflects all 600.
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 600,
                prev_term: 1,
                entries: Vec::new(),
                commit: 600,
            },
            &mut ctx,
        );
        assert_eq!(r.store().unwrap().executed(), 600);
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert_eq!(
            r2.last_index(),
            600,
            "checkpoint + WAL must rebuild the log up to its end"
        );
        assert_eq!(r2.term(), 1);
        // The checkpoint was taken at the 512th WAL record (the term, then
        // 511 splices), with 509 entries applied: that is where the store
        // resumes, and the log holds what lies above.
        assert_eq!(r2.store().unwrap().executed(), 509);
        assert_eq!((r2.applied, r2.log.base()), (509, 509));
        // The next heartbeat re-teaches the commit index and execution
        // catches up from there over the recovered log.
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 600,
                prev_term: 1,
                entries: Vec::new(),
                commit: 600,
            },
            &mut ctx2,
        );
        assert_eq!(r2.store().unwrap().executed(), 600);
        for key in 0..8u64 {
            assert_eq!(
                r2.store().unwrap().history(key),
                r.store().unwrap().history(key)
            );
        }
    }

    #[test]
    fn checkpoint_cadence_grows_with_the_log() {
        // A fixed cadence re-writes the whole log every 512 records: 39
        // checkpoints and O(n²) bytes over this run. Growing with the log it
        // is a handful, and recovery still rebuilds the same log and store.
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let mut r = durable_follower(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let total = 20_000u64;
        let heartbeat = |commit: u64| RaftMsg::AppendEntries {
            term: 1,
            prev_index: total,
            prev_term: 1,
            entries: Vec::new(),
            commit,
        };
        let (mut checkpoints, mut wal_len) = (0, 0);
        for i in 1..=total {
            r.on_message(
                leader,
                RaftMsg::AppendEntries {
                    term: 1,
                    prev_index: i - 1,
                    prev_term: if i == 1 { 0 } else { 1 },
                    entries: vec![RaftEntry {
                        term: 1,
                        cmd: Command::put(i % 64, vec![i as u8]),
                        req: None,
                    }],
                    commit: i - 1,
                },
                &mut ctx,
            );
            // Only a checkpoint ever shrinks the WAL.
            let len = hub.synced_len(&1);
            checkpoints += u32::from(len < wal_len);
            wal_len = len;
        }
        r.on_message(leader, heartbeat(total), &mut ctx);
        assert!(
            (4..=7).contains(&checkpoints),
            "{checkpoints} checkpoints for {total} appends: want O(log n)"
        );
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert!(
            r2.state.wal().records() <= r2.state.image().0 + r2.state.image().1 + 1,
            "recovery replays no more records than the checkpoint holds"
        );
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_recover(&mut ctx2);
        assert_eq!(r2.last_index(), total);
        r2.on_message(leader, heartbeat(total), &mut ctx2);
        assert_eq!(r2.log, r.log, "both windows are empty above {total}");
        assert_eq!(r2.state.store().dump(), r.state.store().dump());
    }

    /// A disk whose snapshot install takes a second of the probe's clock.
    struct SlowSnapshots {
        inner: paxi_storage::MemStorage<u32>,
        clock: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Storage for SlowSnapshots {
        fn append(&mut self, payload: &[u8]) -> Result<(), paxi_storage::StorageError> {
            self.inner.append(payload)
        }
        fn sync(&mut self) -> Result<(), paxi_storage::StorageError> {
            self.inner.sync()
        }
        fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), paxi_storage::StorageError> {
            self.clock
                .fetch_add(Nanos::secs(1).0, std::sync::atomic::Ordering::SeqCst);
            self.inner.install_snapshot(snapshot)
        }
        fn recover(&mut self) -> Result<paxi_storage::Recovery, paxi_storage::StorageError> {
            self.inner.recover()
        }
        fn policy(&self) -> paxi_storage::FsyncPolicy {
            self.inner.policy()
        }
    }

    #[test]
    fn a_denied_vote_request_adopts_the_term_but_not_the_election_clock() {
        let (leader, stale, me) = (NodeId::new(0, 0), NodeId::new(0, 2), NodeId::new(0, 1));
        let mut ctx = probe(me);
        let mut r = Raft::new(me, ClusterConfig::lan(3), RaftConfig::default());
        r.on_start(&mut ctx);
        // One entry from the leader of term 1, then silence for an election
        // timeout but an instant.
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![RaftEntry {
                    term: 1,
                    cmd: Command::put(1, vec![1]),
                    req: None,
                }],
                commit: 0,
            },
            &mut ctx,
        );
        let timeout = RaftConfig::default().election_timeout;
        ctx.clock
            .store(timeout.0 - 1, std::sync::atomic::Ordering::SeqCst);
        // A candidate that missed that entry campaigns at term 2.
        ctx.sent.clear();
        r.on_message(
            stale,
            RaftMsg::RequestVote {
                term: 2,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut ctx,
        );
        assert!(
            matches!(
                ctx.sent[..],
                [(
                    Some(to),
                    RaftMsg::Vote {
                        term: 2,
                        granted: false
                    }
                )] if to == stale
            ),
            "{:?}",
            ctx.sent
        );
        assert_eq!(r.term(), 2, "the higher term is adopted");
        // The leader has now been silent for the whole timeout: this node,
        // whose log is the longer one, must campaign.
        ctx.clock
            .store(timeout.0, std::sync::atomic::Ordering::SeqCst);
        ctx.sent.clear();
        let (_, token) = ctx.last_timer(TIMER_ELECTION);
        r.on_timer(TIMER_ELECTION, token, &mut ctx);
        assert_eq!(r.term(), 3, "a denied request must not restart the clock");
        assert!(
            matches!(
                ctx.sent[..],
                [(
                    None,
                    RaftMsg::RequestVote {
                        term: 3,
                        last_log_index: 1,
                        last_log_term: 1
                    }
                )]
            ),
            "{:?}",
            ctx.sent
        );
    }

    #[test]
    fn a_checkpoint_longer_than_the_election_timeout_does_not_depose_the_leader() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let (leader, me) = (NodeId::new(0, 0), NodeId::new(0, 1));
        let mut ctx = probe(me);
        let mut r = Raft::new(me, ClusterConfig::lan(3), RaftConfig::default());
        r.attach_storage(Box::new(SlowSnapshots {
            inner: hub.open(1),
            clock: ctx.clock.clone(),
        }));
        r.on_start(&mut ctx);
        // The append that crosses the checkpoint threshold holds its handler
        // for a second, far beyond the 300 ms election timeout ...
        for i in 1.. {
            if ctx.now() > Nanos::ZERO {
                break;
            }
            r.on_message(
                leader,
                RaftMsg::AppendEntries {
                    term: 1,
                    prev_index: i - 1,
                    prev_term: if i == 1 { 0 } else { 1 },
                    entries: vec![RaftEntry {
                        term: 1,
                        cmd: Command::put(i, vec![1]),
                        req: None,
                    }],
                    commit: 0,
                },
                &mut ctx,
            );
        }
        // ... and the election timer queued behind it fires next. The leader
        // spoke in that very handler: no campaign.
        ctx.sent.clear();
        let (_, token) = ctx.last_timer(TIMER_ELECTION);
        r.on_timer(TIMER_ELECTION, token, &mut ctx);
        assert_eq!(r.term(), 1, "a live leader must not be deposed");
        assert!(ctx.sent.is_empty(), "no RequestVote: {:?}", ctx.sent);
    }

    #[test]
    fn append_leaves_before_the_leaders_sync_and_no_acked_write_is_lost() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let ids = ClusterConfig::lan(3).all_nodes();
        let (n0, n2) = (ids[0], ids[2]);
        let durable = |id: NodeId, disk: &MemHub<u32>| {
            let mut r = Raft::new(id, ClusterConfig::lan(3), RaftConfig::default());
            r.attach_storage(Box::new(disk.open(id.node as u32)));
            r
        };
        let mut nodes: Vec<(Raft, Probe)> = ids
            .iter()
            .map(|&id| (durable(id, &hub), probe(id)))
            .collect();
        for (r, ctx) in nodes.iter_mut() {
            r.on_start(ctx);
        }
        settle(&mut nodes, &[]);
        assert!(nodes[0].0.is_leader());
        // Write 1 commits and is acknowledged.
        let (l, ctx) = &mut nodes[0];
        l.on_request(request(1), ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[0].1.replies.iter().any(|r| r.id.seq == 1 && r.ok));
        let end = |r: &Raft| (r.last_index(), r.last_term());
        let acked = end(&nodes[0].0);

        // Write 2: the AppendEntries is handed to the context while the
        // leader's disk has not synced its own splice ...
        let (l, ctx) = &mut nodes[0];
        ctx.disk = Some((hub.clone(), 0));
        hub.drain_syncs(&0);
        l.on_request(request(2), ctx);
        assert_eq!(ctx.at_broadcast.len(), 1);
        assert_eq!(
            ctx.at_broadcast[0].0, 0,
            "append must not wait for the sync"
        );
        // ... and the sync is done before the handler returns, so the
        // leader's match index never covers an unsynced entry.
        assert_eq!(hub.drain_syncs(&0), 1);
        let (_, image) = ctx.at_broadcast.pop().unwrap();

        // One follower takes the entry; the leader dies with its disk as of
        // the broadcast instant. Nobody was told write 2 committed.
        settle(&mut nodes, &[n0, n2]);
        assert_eq!(nodes[1].0.last_index(), acked.0 + 1);
        assert!(nodes[0].1.replies.iter().all(|r| r.id.seq != 2));
        let disk: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = disk.open(0);
        assert!(image.snapshot.is_none());
        for rec in &image.records {
            s.append(rec).unwrap();
        }
        nodes[0] = (durable(n0, &disk), probe(n0));
        assert_eq!(end(&nodes[0].0), acked, "the splice was not on disk");

        // It rejoins and campaigns. 0.1's longer log denies it, 0.2 elects
        // it, and its new term overwrites the entry nobody acknowledged —
        // every acknowledged entry is on every log.
        let (l, ctx) = &mut nodes[0];
        l.on_recover(ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[0].0.is_leader());
        for (r, _) in &nodes {
            assert_eq!(end(r), end(&nodes[0].0));
        }
        let store = &nodes[0].0.state.store();
        assert_eq!(store.get(1), Some(&[1][..]), "acknowledged write lost");
    }

    // --- the log is a window; what lies below it is an image ---

    fn on_mem_disks(hub: &paxi_storage::MemHub<u32>) -> impl Fn(NodeId) -> Raft + '_ {
        move |id| {
            let mut r = Raft::new(id, ClusterConfig::lan(3), RaftConfig::default());
            r.attach_storage(Box::new(hub.open(id.node as u32)));
            r
        }
    }

    /// Commits `seqs` through the leader, one lockstep round each.
    fn commit_all(nodes: &mut [(Raft, Probe)], seqs: std::ops::Range<u64>, down: &[NodeId]) {
        for seq in seqs {
            let (l, ctx) = &mut nodes[0];
            l.on_request(request(seq), ctx);
            settle(nodes, down);
        }
    }

    #[test]
    fn follower_below_the_leaders_window_is_sent_the_image_and_resumes_at_its_base() {
        use crate::snapshot::Image;
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut nodes = lockstep(on_mem_disks(&hub));
        let n2 = nodes[2].1.id;
        commit_all(&mut nodes, 0..5, &[]);
        // Node 2 goes dark for longer than an election timeout while 40 more
        // writes commit: the leader stops keeping the log for it.
        let dark = RaftConfig::default().election_timeout.0 + 1;
        nodes[0]
            .1
            .clock
            .store(dark, std::sync::atomic::Ordering::SeqCst);
        commit_all(&mut nodes, 5..45, &[n2]);
        let (leader, lagging) = (&nodes[0].0, &nodes[2].0);
        assert!(
            leader.log.base() > lagging.last_index() + 30,
            "released past it"
        );
        let hint = lagging.last_index();

        // It is back and nacks an append: what it needs is no longer log.
        let (l, ctx) = &mut nodes[0];
        let (term, success) = (l.term(), false);
        l.on_message(
            n2,
            RaftMsg::AppendAck {
                term,
                success,
                match_index: hint,
            },
            ctx,
        );
        let base = l.applied;
        match &ctx.sent[..] {
            [(
                Some(to),
                RaftMsg::Snapshot {
                    msg: SnapshotMsg::Install(chunk),
                    ..
                },
            )] => {
                assert_eq!(
                    (*to, chunk.base, chunk.index, chunk.last),
                    (n2, base, 0, false)
                );
            }
            other => panic!("expected the first chunk of an image, got {other:?}"),
        }
        hub.drain_appends(&2);
        settle(&mut nodes, &[]);

        // Staged, installed through its WAL, acknowledged — and the leader's
        // next AppendEntries spliced right above the image's base.
        let (leader, healed) = (&nodes[0].0, &nodes[2].0);
        assert_eq!(healed.log.base(), base, "the window restarts at the image");
        assert_eq!(healed.last_index(), leader.last_index());
        assert_eq!(leader.match_index[&n2], leader.last_index());
        assert_eq!(healed.applied, base);
        let on_disk = hub.open(2).recover().unwrap();
        let image = Image::decode(&on_disk.snapshot.expect("installed through the WAL")).unwrap();
        assert_eq!(
            (image.meta.base, image.meta.promised.n),
            (base, healed.term())
        );
        assert_eq!(image.store.dump(), healed.state.store().dump());
        assert!(on_disk.records.is_empty(), "the image replaced its WAL");
        // The next write is spliced right above the base and logged after
        // the image; a heartbeat then teaches the commit index, and from the
        // disk alone the replica comes back with everything.
        commit_all(&mut nodes, 45..46, &[]);
        assert_eq!(
            (nodes[2].0.log.base(), nodes[2].0.last_index()),
            (base, base + 1)
        );
        assert_eq!(hub.open(2).recover().unwrap().records.len(), 1);
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        settle(&mut nodes, &[]);
        assert_eq!(
            nodes[2].0.state.store().dump(),
            nodes[0].0.state.store().dump()
        );
        hub.crash(&2);
        let reborn = on_mem_disks(&hub)(n2);
        assert_eq!(reborn.last_index(), nodes[0].0.last_index());
        assert!(reborn.applied >= base && reborn.state.store().executed() >= 40);
    }

    #[test]
    fn a_replica_recovered_from_a_windowed_checkpoint_serves_the_pre_crash_values() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let me = NodeId::new(0, 0);
        let durable = || {
            let mut r = Raft::new(me, ClusterConfig::lan(1), RaftConfig::default());
            r.attach_storage(Box::new(hub.open(0)));
            r
        };
        let put = |seq: u64| paxi_core::ClientRequest {
            id: RequestId::new(paxi_core::ClientId(1), seq),
            cmd: Command::put(seq % 10, vec![seq as u8]),
        };
        let (mut r, mut ctx) = (durable(), probe(me));
        r.on_start(&mut ctx);
        for seq in 0..600 {
            r.on_request(put(seq), &mut ctx);
        }
        assert!(r.log.is_empty(), "everything applied has left the window");
        hub.crash(&0);

        // From the disk: the image holds the store as of the checkpoint,
        // the WAL the entries since; nothing is replayed from index 1.
        let (mut r, mut ctx) = (durable(), probe(me));
        assert!(r.log.base() > 500 && r.applied == r.log.base());
        assert_eq!(r.state.store().executed(), r.applied);
        assert_eq!(r.last_index(), 601);
        let above = 601 - r.log.base();
        r.on_recover(&mut ctx);
        assert!(r.is_leader());
        // A duplicate of the last write to key 9 is told the value it
        // overwrites — its own — and a read sees the last write to key 8.
        // (The sole voter commits its recovered tail with its next append.)
        r.on_request(put(599), &mut ctx);
        r.on_request(
            paxi_core::ClientRequest {
                id: RequestId::new(paxi_core::ClientId(2), 0),
                cmd: Command::get(8),
            },
            &mut ctx,
        );
        // What the image holds is not applied — or answered — again; the
        // entries above it are, before these two.
        assert_eq!(ctx.replies.len() as u64, above + 2);
        let values: Vec<_> = ctx.replies.iter().map(|resp| resp.value.clone()).collect();
        assert_eq!(values[above as usize..], [Some(vec![87]), Some(vec![86])]);
        // 601 before the crash, then this term's no-op and the two above:
        // nothing was applied twice.
        assert_eq!(r.state.store().executed(), 604);
    }

    #[test]
    fn a_vote_with_an_empty_window_is_judged_against_the_bases_term() {
        let me = NodeId::new(0, 1);
        let mut r = Raft::new(me, ClusterConfig::lan(3), RaftConfig::default());
        // Ten entries applied and released, the tenth of term 3.
        r.term = 3;
        r.log.reset(10, 3);
        (r.commit, r.applied) = (10, 10);
        let mut ctx = probe(me);
        let mut ask = |term, last_log_index, last_log_term| {
            let vote = RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            };
            r.on_message(NodeId::new(0, 2), vote, &mut ctx);
            match ctx.sent.pop() {
                Some((_, RaftMsg::Vote { granted, .. })) => granted,
                other => panic!("expected a vote, got {other:?}"),
            }
        };
        assert!(!ask(4, 50, 2), "a longer log of an older term is behind");
        assert!(!ask(5, 9, 3), "the same term, one entry short");
        assert!(ask(6, 10, 3), "exactly as far as the base");
    }

    #[test]
    fn three_durable_replicas_retain_the_in_flight_window_and_a_restart_serves_the_same_values() {
        use paxi_storage::{FileStorage, FsyncPolicy};
        let root = std::env::temp_dir().join(format!("paxi-raft-window-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let on_files = |id: NodeId| {
            let dir = root.join(format!("node-{}", id.node));
            let mut r = Raft::new(id, ClusterConfig::lan(3), RaftConfig::default());
            r.attach_storage(Box::new(
                FileStorage::open(dir, FsyncPolicy::Never).unwrap(),
            ));
            r
        };
        let mut nodes = lockstep(on_files);
        let total = 5_000u64;
        for first in (0..total).step_by(100) {
            commit_all(&mut nodes, first..first + 100, &[]);
            // Every peer has acked the round: the leader keeps only what the
            // followers have yet to be told is committed, they keep that.
            for (r, _) in &nodes {
                assert!(r.log.len() <= 2, "{} entries retained", r.log.len());
            }
        }
        assert_eq!(nodes[0].1.replies.len() as u64, total);
        assert_eq!(
            nodes[0].0.state.store().executed(),
            total + 1,
            "and the term's no-op"
        );
        // Node 1 restarts from its directory (a clean stop: what it logged
        // is synced) and is told the commit index by the next heartbeat.
        nodes[1].0.state.wal().sync();
        let n1 = nodes[1].1.id;
        nodes[1] = (on_files(n1), probe(n1));
        assert!(nodes[1].0.log.len() < 2_000 && nodes[1].0.state.store().executed() > 3_000);
        let (r, ctx) = &mut nodes[1];
        r.on_recover(ctx);
        let (l, ctx) = &mut nodes[0];
        let (_, token) = ctx.last_timer(TIMER_HEARTBEAT);
        l.on_timer(TIMER_HEARTBEAT, token, ctx);
        settle(&mut nodes, &[]);
        for key in 0..total {
            let values: Vec<_> = nodes
                .iter()
                .map(|(r, _)| r.state.store().get(key))
                .collect();
            assert_eq!(values, vec![Some(&[1][..]); 3], "key {key}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn frozen_range_rejects_writes_then_hands_off_after_commit() {
        use paxi_core::migration::{migration_command, CommitHalf, MigrationRecord};
        let cluster = ClusterConfig::lan(1); // single node: commits immediately
        let mut r = Raft::new(NodeId::new(0, 0), cluster, RaftConfig::default());
        r.set_group(GroupId(0));
        let mut ctx = probe(NodeId::new(0, 0));
        r.on_start(&mut ctx);
        assert!(r.is_leader());

        // Pre-freeze write into the range succeeds.
        r.on_request(put_req(0, 12), &mut ctx);
        assert!(ctx.replies.last().unwrap().ok);

        // The replicated Start freezes [10, 20).
        let start = migration_command(&MigrationRecord::Start(mig_spec()));
        r.on_request(
            paxi_core::ClientRequest {
                id: RequestId::new(paxi_core::ClientId(1), 1),
                cmd: start,
            },
            &mut ctx,
        );
        assert!(ctx.replies.last().unwrap().ok, "start itself is acked");

        // Frozen-range writes are rejected (retryable, no hand-off yet) and
        // never executed.
        r.on_request(put_req(2, 12), &mut ctx);
        let rej = ctx.replies.last().unwrap();
        assert!(!rej.ok);
        assert!(rej.handoff.is_none(), "not committed yet: plain retry");
        assert_eq!(r.store().unwrap().get(12), Some(&[7][..]));

        // Keys outside the range are untouched by the freeze.
        r.on_request(put_req(3, 30), &mut ctx);
        assert!(ctx.replies.last().unwrap().ok);

        // Commit (source half): range dropped, epoch bumped, hand-off taught.
        let commit = migration_command(&MigrationRecord::Commit {
            spec: mig_spec(),
            half: CommitHalf::Source,
        });
        r.on_request(
            paxi_core::ClientRequest {
                id: RequestId::new(paxi_core::ClientId(1), 4),
                cmd: commit,
            },
            &mut ctx,
        );
        assert_eq!(r.store().unwrap().get(12), None, "range dropped at source");
        assert_eq!(r.state.migration().epoch(), 1);
        r.on_request(put_req(5, 12), &mut ctx);
        let handed = ctx.replies.last().unwrap();
        assert!(!handed.ok);
        let h = handed
            .handoff
            .expect("committed hand-off carries the route");
        assert_eq!((h.lo, h.hi), (10, 20));
        assert_eq!(h.group, GroupId(1));
        assert_eq!(h.epoch, 1);
    }

    #[test]
    fn installed_range_survives_amnesia_via_commit_reteaching() {
        use paxi_core::migration::{migration_command, CommitHalf, MigrationRecord};
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);

        // Range state streamed by the source: key 12 with one version.
        let mut src = MultiVersionStore::new();
        src.execute(&Command::put(12, vec![5]));
        let state = src.encode_range(10, 20);

        let entries = vec![
            RaftEntry {
                term: 1,
                cmd: migration_command(&MigrationRecord::Install {
                    spec: mig_spec(),
                    state,
                }),
                req: None,
            },
            RaftEntry {
                term: 1,
                cmd: migration_command(&MigrationRecord::Commit {
                    spec: mig_spec(),
                    half: CommitHalf::Dest,
                }),
                req: None,
            },
        ];

        let mut r = durable_follower(&hub);
        r.set_group(GroupId(1)); // destination group
        let mut ctx = probe(NodeId::new(0, 1));
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: entries.clone(),
                commit: 0,
            },
            &mut ctx,
        );
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 2,
                prev_term: 1,
                entries: Vec::new(),
                commit: 2,
            },
            &mut ctx,
        );
        assert_eq!(r.store().unwrap().get(12), Some(&[5][..]));
        assert!(r.state.migration().installed(1) && r.state.migration().done(1));
        assert_eq!(r.state.migration().epoch(), 1);

        // Amnesia: rebuild from disk. Replay ignores the audit records — the
        // tracker and store stay empty until commit is re-taught, which
        // re-applies the migration entries from the recovered log.
        drop(r);
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        r2.set_group(GroupId(1));
        assert_eq!(r2.last_index(), 2, "log entries survive");
        assert_eq!(r2.store().unwrap().get(12), None, "state machine volatile");
        assert!(!r2.state.migration().installed(1));
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 2,
                prev_term: 1,
                entries: Vec::new(),
                commit: 2,
            },
            &mut ctx2,
        );
        assert_eq!(r2.store().unwrap().get(12), Some(&[5][..]));
        assert!(r2.state.migration().installed(1) && r2.state.migration().done(1));
        assert_eq!(r2.state.migration().epoch(), 1);
    }

    #[test]
    fn checkpointed_migration_entries_rebuild_the_tracker_on_reteach() {
        use paxi_core::migration::{migration_command, CommitHalf, MigrationRecord};
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let mut r = durable_follower(&hub);
        r.set_group(GroupId(0)); // source group
        let mut ctx = probe(NodeId::new(0, 1));
        // Entry 1 freezes the range, entry 2 cuts it over; 600 data entries
        // (outside the range) push the WAL past the checkpoint threshold.
        let cmd_at = |i: u64| match i {
            1 => migration_command(&MigrationRecord::Start(mig_spec())),
            2 => migration_command(&MigrationRecord::Commit {
                spec: mig_spec(),
                half: CommitHalf::Source,
            }),
            _ => Command::put(i % 8, vec![i as u8]),
        };
        for i in 1..=600u64 {
            r.on_message(
                leader,
                RaftMsg::AppendEntries {
                    term: 1,
                    prev_index: i - 1,
                    prev_term: if i == 1 { 0 } else { 1 },
                    entries: vec![RaftEntry {
                        term: 1,
                        cmd: cmd_at(i),
                        req: None,
                    }],
                    commit: i - 1,
                },
                &mut ctx,
            );
        }
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 600,
                prev_term: 1,
                entries: Vec::new(),
                commit: 600,
            },
            &mut ctx,
        );
        assert_eq!(r.state.migration().epoch(), 1);
        assert!(r.state.migration().rejects(12).unwrap().committed);

        // Amnesia across a checkpoint: the checkpoint embeds the full log
        // (migration entries included), so re-teaching commit rebuilds the
        // tracker even though the WAL tail was compacted away.
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        r2.set_group(GroupId(0));
        assert_eq!(r2.last_index(), 600);
        let mut ctx2 = probe(NodeId::new(0, 1));
        r2.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 600,
                prev_term: 1,
                entries: Vec::new(),
                commit: 600,
            },
            &mut ctx2,
        );
        assert_eq!(r2.state.migration().epoch(), 1);
        assert!(r2.state.migration().rejects(12).unwrap().committed);
        for key in 0..8u64 {
            assert_eq!(
                r2.store().unwrap().history(key),
                r.store().unwrap().history(key)
            );
        }
    }

    #[test]
    fn raft_throughput_is_in_the_same_class_as_paxos() {
        // Fig 7's claim: Raft and Paxos converge to similar max throughput.
        let mut raft_sim = lan_sim(9, RaftConfig::default(), 40);
        let raft_tput = raft_sim.run().throughput;
        let cluster = ClusterConfig::lan(9);
        let setups = ClientSetup::closed_per_zone(&cluster, 40);
        let mut paxos_sim = Simulator::new(
            SimConfig::default(),
            cluster.clone(),
            crate::paxos::paxos_cluster(cluster, crate::paxos::PaxosConfig::default()),
            paxi_sim::client::uniform_workload(100),
            setups,
        );
        let paxos_tput = paxos_sim.run().throughput;
        let ratio = raft_tput / paxos_tput;
        assert!(
            (0.6..1.6).contains(&ratio),
            "raft {raft_tput} vs paxos {paxos_tput}"
        );
    }

    // --- joint-consensus reconfiguration ---

    #[test]
    fn joint_reconfig_adds_a_node_end_to_end() {
        let n0 = NodeId::new(0, 0);
        let n1 = NodeId::new(0, 1);
        // Universe of two, but only n0 votes initially: n1 is a learner.
        let cfg = RaftConfig {
            initial_members: Some(vec![n0]),
            ..Default::default()
        };
        let mut r = Raft::new(n0, ClusterConfig::lan(2), cfg);
        let mut ctx = probe(n0);
        r.on_start(&mut ctx);
        assert!(r.is_leader(), "sole member elects itself");
        r.on_request(reconfig_request(1, &ConfigChange::add(vec![n1])), &mut ctx);
        assert!(r.membership().is_joint(), "C_old,new adopted on append");
        assert_eq!(r.config_epoch(), 1);
        // The joint entry cannot commit on the old majority alone: it needs
        // the new set's majority, i.e. the joiner's ack.
        r.on_message(
            n1,
            RaftMsg::AppendAck {
                term: r.term(),
                success: true,
                match_index: 2,
            },
            &mut ctx,
        );
        assert!(
            !r.membership().is_joint(),
            "committed joint entry triggers C_new"
        );
        assert_eq!(r.members(), vec![n0, n1]);
        assert_eq!(r.config_epoch(), 1);
        assert!(
            ctx.replies.iter().any(|resp| resp.id.seq == 1 && resp.ok),
            "client is answered when the joint entry commits"
        );
    }

    #[test]
    fn leader_hands_off_and_retires_when_removed() {
        let n0 = NodeId::new(0, 0);
        let n1 = NodeId::new(0, 1);
        let mut r = Raft::new(n0, ClusterConfig::lan(2), RaftConfig::default());
        let mut ctx = probe(n0);
        r.on_start(&mut ctx);
        r.on_message(
            n1,
            RaftMsg::Vote {
                term: 1,
                granted: true,
            },
            &mut ctx,
        );
        assert!(r.is_leader());
        r.on_message(
            n1,
            RaftMsg::AppendAck {
                term: 1,
                success: true,
                match_index: 1,
            },
            &mut ctx,
        );
        r.on_request(
            reconfig_request(1, &ConfigChange::remove(vec![n0])),
            &mut ctx,
        );
        assert!(r.membership().is_joint());
        // n1 acks the joint entry (index 2): dual majority met, C_new out.
        r.on_message(
            n1,
            RaftMsg::AppendAck {
                term: 1,
                success: true,
                match_index: 2,
            },
            &mut ctx,
        );
        assert!(!r.membership().is_joint());
        assert!(
            r.is_leader(),
            "leader manages the cluster until C_new commits"
        );
        // n1 acks C_new (index 3): the excluded leader hands off and retires.
        r.on_message(
            n1,
            RaftMsg::AppendAck {
                term: 1,
                success: true,
                match_index: 3,
            },
            &mut ctx,
        );
        assert!(
            !r.is_leader(),
            "excluded leader steps down after C_new commits"
        );
        assert_eq!(r.members(), vec![n1]);
        // And it can never campaign again.
        r.start_election(&mut ctx);
        assert!(!r.is_leader());
        assert_eq!(r.term(), 1, "non-member must not inflate terms");
    }

    #[test]
    fn noop_reconfig_answers_without_touching_the_log() {
        let n0 = NodeId::new(0, 0);
        let mut r = Raft::new(n0, ClusterConfig::lan(1), RaftConfig::default());
        let mut ctx = probe(n0);
        r.on_start(&mut ctx);
        let before = r.last_index();
        let change = ConfigChange {
            add: vec![n0],
            remove: vec![],
        };
        r.on_request(reconfig_request(1, &change), &mut ctx);
        assert_eq!(r.last_index(), before, "no-op change must not grow the log");
        assert_eq!(r.config_epoch(), 0);
        assert!(ctx.replies[0].ok);
    }

    #[test]
    fn learner_outside_the_membership_never_campaigns() {
        let n0 = NodeId::new(0, 0);
        let n1 = NodeId::new(0, 1);
        let cfg = RaftConfig {
            initial_members: Some(vec![n0]),
            preferred_leader: Some(n1),
            ..Default::default()
        };
        let mut r = Raft::new(n1, ClusterConfig::lan(2), cfg);
        let mut ctx = probe(n1);
        r.on_start(&mut ctx);
        assert!(!r.is_leader());
        assert_eq!(r.term(), 0);
        assert!(ctx.sent.is_empty(), "no RequestVote may leave a non-member");
    }

    #[test]
    fn truncation_rolls_the_membership_back() {
        let n1 = NodeId::new(0, 1);
        let leader = NodeId::new(0, 0);
        let mut r = Raft::new(n1, ClusterConfig::lan(3), RaftConfig::default());
        let mut ctx = probe(n1);
        let joint = Membership::Joint {
            epoch: 1,
            old: ClusterConfig::lan(3).all_nodes(),
            new: vec![leader, n1],
        };
        let cfg_entry = RaftEntry {
            term: 1,
            cmd: membership::membership_command(&joint),
            req: None,
        };
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![cfg_entry],
                commit: 0,
            },
            &mut ctx,
        );
        assert!(r.membership().is_joint());
        // A higher-term leader overwrites the uncommitted config entry.
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 0,
                entries: vec![RaftEntry {
                    term: 2,
                    cmd: Command::put(1, vec![1]),
                    req: None,
                }],
                commit: 0,
            },
            &mut ctx,
        );
        assert!(
            !r.membership().is_joint(),
            "truncated config entry must be un-adopted"
        );
        assert_eq!(
            r.config_epoch(),
            0,
            "fell back to the initial configuration"
        );
    }

    #[test]
    fn mid_transition_restart_recovers_joint_then_new_config() {
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let leader = NodeId::new(0, 0);
        let n1 = NodeId::new(0, 1);
        let all = ClusterConfig::lan(3).all_nodes();
        let joint = Membership::Joint {
            epoch: 1,
            old: all.clone(),
            new: vec![leader, n1],
        };
        let mut r = durable_follower(&hub);
        let mut ctx = probe(n1);
        r.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![RaftEntry {
                    term: 1,
                    cmd: membership::membership_command(&joint),
                    req: None,
                }],
                commit: 0,
            },
            &mut ctx,
        );
        assert!(r.membership().is_joint());
        // Amnesia mid-transition: the rebuilt node must wake up joint —
        // never in the old configuration.
        drop(r);
        hub.crash(&1);
        let mut r2 = durable_follower(&hub);
        assert!(
            r2.membership().is_joint(),
            "restart lands in the joint config"
        );
        assert_eq!(r2.config_epoch(), 1);
        assert_eq!(r2.members(), all, "joint voters span old ∪ new");
        // The transition completes: C_new arrives, then another crash.
        let stable = joint.to_stable();
        let mut ctx2 = probe(n1);
        r2.on_message(
            leader,
            RaftMsg::AppendEntries {
                term: 1,
                prev_index: 1,
                prev_term: 1,
                entries: vec![RaftEntry {
                    term: 1,
                    cmd: membership::membership_command(&stable),
                    req: None,
                }],
                commit: 1,
            },
            &mut ctx2,
        );
        drop(r2);
        hub.crash(&1);
        let r3 = durable_follower(&hub);
        assert!(!r3.membership().is_joint());
        assert_eq!(
            r3.members(),
            vec![leader, n1],
            "restart lands in the new config"
        );
        assert_eq!(r3.config_epoch(), 1);
    }

    /// The bytes a durable cluster leaves on its three disks after a fixed
    /// script: two elections, a hand-off frozen before and committed after
    /// one checkpoint, a member removed before it and added back after, a
    /// follower below the leader's window repaired by its image. The
    /// constants are what the same body wrote at 9c50f2d, before the replica
    /// layer moved into `kernel.rs`: a record appended in another order, or
    /// encoded otherwise, moves them. Disk 2's was re-pinned once since a
    /// follower nacks every append past its log's end: 0.2 is repaired as it
    /// is added back, so the re-add's two configuration entries and the six
    /// deletes reach its WAL as appends after the image instead of inside
    /// it. All three are re-pinned since the WAL holds only terms, votes and
    /// splices: the checkpoint cadence counts records, so with the
    /// membership and migration records gone disks 0 and 1 checkpoint three
    /// entries later (507 and 508, not 504 and 505); disk 2 keeps its image
    /// and loses the re-add's two membership records after it. All three
    /// are re-pinned again since config and migration payloads and the
    /// image's tracker state are codec-encoded: read back through their
    /// decoders, every record and image is the one written before. All
    /// three again since an image carries a digest per version and each
    /// key's last value: every record's bytes, each image's meta and tail,
    /// and each key's digests (taken of the values the old image held) and
    /// last value are the ones written before.
    #[test]
    fn disk_bytes_are_the_ones_written_before_the_replica_layer_moved() {
        use crate::snapshot::Image;
        use crate::testkit::disk_digest;
        use paxi_core::migration::{migration_command, CommitHalf, MigrationRecord};
        use paxi_storage::{FsyncPolicy, MemHub};
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut nodes = lockstep(|id| {
            let mut r = Raft::new(id, ClusterConfig::lan(3), RaftConfig::default());
            r.set_group(GroupId(0));
            r.attach_storage(Box::new(hub.open(u32::from(id.node))));
            r
        });
        let mut seq = 0;
        let mut commit = |nodes: &mut Vec<(Raft, Probe)>, leader: usize, cmd: Command| {
            let id = RequestId::new(paxi_core::ClientId(1), seq);
            seq += 1;
            let (r, ctx) = &mut nodes[leader];
            r.on_request(paxi_core::ClientRequest { id, cmd }, ctx);
            settle(nodes, &[]);
        };
        let (spec, n2) = (mig_spec(), NodeId::new(0, 2));
        for i in 0..20u8 {
            commit(&mut nodes, 0, Command::put(u64::from(i % 7), vec![i]));
        }
        commit(
            &mut nodes,
            0,
            migration_command(&MigrationRecord::Start(spec)),
        );
        // A write to the frozen range: logged, rejected when it executes.
        commit(&mut nodes, 0, Command::put(12, vec![9]));
        // 0.1 hears nothing for an election timeout and takes over.
        let timeout = RaftConfig::default().election_timeout.0;
        let (r, ctx) = &mut nodes[1];
        ctx.clock
            .store(2 * timeout, std::sync::atomic::Ordering::SeqCst);
        let (_, token) = ctx.last_timer(TIMER_ELECTION);
        r.on_timer(TIMER_ELECTION, token, ctx);
        settle(&mut nodes, &[]);
        assert!(nodes[1].0.is_leader() && !nodes[0].0.is_leader());
        let remove = membership::reconfig_command(&ConfigChange::remove(vec![n2]));
        commit(&mut nodes, 1, remove);
        for i in 0..600u64 {
            let value = vec![i as u8; (i % 5) as usize];
            commit(&mut nodes, 1, Command::put(i % 9, value));
        }
        let half = CommitHalf::Source;
        let handed_off = migration_command(&MigrationRecord::Commit { spec, half });
        commit(&mut nodes, 1, handed_off);
        // 0.2 never got the entry that removed it and has nacked every
        // append since, which no leader answers for a non-member; what it
        // needs has left the leader's window. A voter again, its next nack
        // is answered with the image, which goes through its WAL.
        let behind = nodes[2].0.last_index();
        assert!(behind < nodes[1].0.log.base());
        let add = membership::reconfig_command(&ConfigChange::add(vec![n2]));
        commit(&mut nodes, 1, add);
        for i in 0..6u8 {
            commit(&mut nodes, 1, Command::delete(u64::from(i)));
        }
        for key in 0..2 {
            let disk = hub.open(key).recover().unwrap();
            assert!(disk.snapshot.is_some(), "disk {key}: one checkpoint ran");
            let records = disk.records.iter();
            let records: Vec<RaftWal> = records
                .map(|b| paxi_codec::from_bytes(b).unwrap())
                .collect();
            let splice = |r: &RaftWal| matches!(r, RaftWal::Splice { .. });
            assert!(records.iter().any(splice), "disk {key}");
        }
        let repaired = hub.open(2).recover().unwrap();
        let image = Image::decode(&repaired.snapshot.unwrap()).unwrap();
        assert!(image.meta.base > behind, "adopted, not cut");
        assert_eq!(nodes[2].0.last_index(), nodes[1].0.last_index());
        let digests = [0, 1, 2].map(|key| disk_digest(&hub, key));
        assert_eq!(
            digests.map(|d| format!("{d:016x}")),
            ["27f308e5705141be", "2efc9f24cf09dfbd", "d2a6452e2df71ae6"],
            "re-pinned since an image carries version digests"
        );
    }
}
