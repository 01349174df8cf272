//! Egalitarian Paxos (EPaxos).
//!
//! EPaxos is the paper's leaderless (opportunistic-leader) representative:
//! every replica may become the *command leader* for the commands its clients
//! submit. A command that does not interfere with concurrent commands commits
//! in one round trip to a **fast quorum** (≈ 3/4 of the cluster); when the
//! fast-quorum replies disagree about the command's dependencies — i.e. a
//! conflict was detected — the protocol falls back to a classic Paxos accept
//! round on the unioned attributes. This is why the paper's EPaxos results
//! degrade with the conflict ratio `c` (Figures 11 and 12): a `c` fraction of
//! commands pays a second quorum round plus dependency-resolution work.
//!
//! Commands carry `(seq, deps)` attributes; committed commands form a
//! dependency graph which every replica executes by strongly-connected
//! components in reverse topological order (ties broken by `seq`), yielding
//! the same linearizable execution order everywhere without a designated
//! leader.
//!
//! A replica keeps only the instances it has not executed. Executing one
//! removes it from the instance space and records it in its command
//! leader's [`Executed`] watermark: an index below which everything has
//! executed, plus the few executed ahead of a gap. Every handler asks the
//! watermark before it looks an instance up. An executed instance is a
//! satisfied dependency for the SCC walk; a late `Commit`, `PreAcceptOk` or
//! `AcceptOk` for it does nothing, and a late `Accept` gets its `AcceptOk`
//! with no WAL record. These are the answers a decided instance gets
//! anyway, so forgetting one changes no message, WAL record or service time.
//!
//! Scope: the commit and execution protocols are complete; explicit failure
//! recovery of another replica's instances is not implemented (the paper's
//! experiments never exercise it).

use crate::kernel::{self, State};
use paxi_core::command::{ClientRequest, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::hash::{FxHashMap, FxHashSet};
use paxi_core::id::{NodeId, RequestId};
use paxi_core::obs::{Metric, TraceStage};
use paxi_core::quorum::{fast_quorum_size, majority};
use paxi_core::store::MultiVersionStore;
use paxi_core::traits::{Context, Replica};
use paxi_storage::Storage;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Reference to an instance: the `idx`-th command led by `leader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IRef {
    /// The command leader that owns the instance.
    pub leader: NodeId,
    /// Per-leader instance index.
    pub idx: u64,
}

/// Wire messages of EPaxos.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum EpaxosMsg {
    /// Fast-path round: propose `cmd` with the leader's view of its
    /// attributes.
    PreAccept {
        /// Instance being proposed.
        iref: IRef,
        /// The command.
        cmd: Command,
        /// Leader-computed sequence number.
        seq: u64,
        /// Leader-computed dependencies.
        deps: Vec<IRef>,
    },
    /// Acceptor reply, carrying possibly-augmented attributes.
    PreAcceptOk {
        /// Instance.
        iref: IRef,
        /// Acceptor's (possibly larger) sequence number.
        seq: u64,
        /// Acceptor's (possibly larger) dependency set.
        deps: Vec<IRef>,
        /// Whether the acceptor changed the attributes — any change forces
        /// the slow path.
        changed: bool,
    },
    /// Slow-path Paxos accept on the unioned attributes.
    Accept {
        /// Instance.
        iref: IRef,
        /// The command.
        cmd: Command,
        /// Final sequence number.
        seq: u64,
        /// Final dependencies.
        deps: Vec<IRef>,
    },
    /// Slow-path acceptance.
    AcceptOk {
        /// Instance.
        iref: IRef,
    },
    /// Commit notification with final attributes.
    Commit {
        /// Instance.
        iref: IRef,
        /// The command.
        cmd: Command,
        /// Final sequence number.
        seq: u64,
        /// Final dependencies.
        deps: Vec<IRef>,
    },
}

/// Replication stage of an instance: what a replica holds it at, and what an
/// [`EpaxosWal`] record witnesses. There is no executed stage: an executed
/// instance leaves the instance space for its leader's [`Executed`]
/// watermark, and execution is volatile (it is a deterministic function of
/// the committed dependency graph) and re-runs after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalStatus {
    /// Pre-accepted with (possibly augmented) attributes.
    PreAccepted,
    /// Slow-path accepted attributes.
    Accepted,
    /// Final committed attributes.
    Committed,
}

/// One durable WAL record of EPaxos acceptor state: the full attribute set
/// of one instance at one replication stage. Appended before the message
/// (PreAcceptOk / AcceptOk / Commit) that acknowledges the stage; replaying
/// records in append order converges to the pre-crash instance space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpaxosWal {
    /// The instance.
    pub iref: IRef,
    /// The command.
    pub cmd: Command,
    /// Sequence number at this stage.
    pub seq: u64,
    /// Dependencies at this stage.
    pub deps: Vec<IRef>,
    /// The stage witnessed.
    pub status: WalStatus,
}

#[derive(Debug)]
struct Instance {
    cmd: Command,
    seq: u64,
    deps: Vec<IRef>,
    status: WalStatus,
    req: Option<RequestId>,
    // Command-leader bookkeeping.
    replies: usize,
    any_changed: bool,
    accept_oks: usize,
}

/// What a replica knows of one key: per command leader, the instances a new
/// command on the key must be ordered after.
///
/// A write interferes with every command on its key. It depends on each
/// leader's latest instance there, which reaches that leader's earlier
/// writes through its own deps. A read interferes with writes only and
/// depends on no read, so a leader's latest read reaches none of its writes:
/// were a read to stand in for them, a new read could execute before a
/// committed write it must see, and two writes linked only through it could
/// execute in either order. A read therefore depends on each leader's latest
/// write, kept in [`Latest::write`].
#[derive(Debug, Default)]
struct KeyInfo {
    /// One entry per command leader with an instance on the key.
    latest: Vec<Latest>,
    /// Highest seq among interfering instances.
    max_seq: u64,
}

/// One command leader's latest instances on a key.
#[derive(Debug)]
struct Latest {
    leader: NodeId,
    /// Its latest instance, read or write.
    any: u64,
    /// Its latest write, if it led one.
    write: Option<u64>,
}

/// The instances of one command leader a replica has executed: every index
/// below `upto`, and those in `above`. A replica mostly executes a leader's
/// instances in the leader's order, and then `above` stays empty and
/// `insert` allocates nothing; an instance executed ahead of a gap waits in
/// `above` until the gap executes and `upto` passes it.
#[derive(Debug, Default)]
struct Executed {
    upto: u64,
    above: BTreeSet<u64>,
}

impl Executed {
    fn contains(&self, idx: u64) -> bool {
        idx < self.upto || self.above.contains(&idx)
    }

    fn insert(&mut self, idx: u64) {
        if idx != self.upto {
            self.above.insert(idx);
            return;
        }
        self.upto += 1;
        while self.above.first() == Some(&self.upto) {
            self.above.pop_first();
            self.upto += 1;
        }
    }
}

/// An EPaxos replica.
pub struct EPaxos {
    id: NodeId,
    n: usize,
    fast: usize,
    slow: usize,
    next_idx: u64,
    /// The instances not executed yet, per command leader.
    instances: FxHashMap<NodeId, BTreeMap<u64, Instance>>,
    /// Per command leader, the instances executed here; none of them is in
    /// `instances` any more. Asked first by every reader of an instance's
    /// stage, through [`EPaxos::is_executed`].
    executed: FxHashMap<NodeId, Executed>,
    key_info: FxHashMap<u64, KeyInfo>,
    pending_exec: FxHashSet<IRef>,
    /// Committed instances known not to be executable yet, each mapped to
    /// the uncommitted instance a committed dependency path of theirs
    /// reaches. Such an instance stays blocked until that one commits, so
    /// `execute_ready` skips it instead of walking its graph again.
    blocked: FxHashMap<IRef, IRef>,
    /// `blocked` inverted: blocker → the instances it blocks.
    waiting: FxHashMap<IRef, Vec<IRef>>,
    /// `execute_ready`'s buffers, kept from call to call.
    scratch: Scratch,
    state: State,
}

/// What `execute_ready` works in: its roots and the Tarjan walk's state.
/// Kept between calls, so that finding what to execute allocates nothing
/// once the buffers have grown to the largest walk.
#[derive(Default)]
struct Scratch {
    /// The committed, unexecuted instances one pass starts from.
    roots: Vec<IRef>,
    /// Each visited instance's Tarjan index, lowlink and whether it is on
    /// `stack`.
    marks: FxHashMap<IRef, Mark>,
    stack: Vec<IRef>,
    /// Explicit DFS stack: (instance, dep cursor). When the walk stops at
    /// an uncommitted blocker, the committed path from the root to it.
    dfs: Vec<(IRef, usize)>,
    /// Instances to execute, in order, when the walk found no blocker.
    order: Vec<IRef>,
}

#[derive(Clone, Copy)]
struct Mark {
    index: usize,
    low: usize,
    on_stack: bool,
}

impl EPaxos {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig) -> Self {
        let n = cluster.n();
        EPaxos {
            id,
            n,
            fast: fast_quorum_size(n),
            slow: majority(n),
            next_idx: 0,
            instances: FxHashMap::default(),
            executed: FxHashMap::default(),
            key_info: FxHashMap::default(),
            pending_exec: FxHashSet::default(),
            blocked: FxHashMap::default(),
            waiting: FxHashMap::default(),
            scratch: Scratch::default(),
            state: State::default(),
        }
    }

    /// Fast-quorum size for this cluster (command leader included).
    pub fn fast_quorum(&self) -> usize {
        self.fast
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    fn get(&self, iref: IRef) -> Option<&Instance> {
        self.instances.get(&iref.leader)?.get(&iref.idx)
    }

    /// Whether this replica has executed `iref`, and so no longer holds it.
    fn is_executed(&self, iref: IRef) -> bool {
        let executed = self.executed.get(&iref.leader);
        executed.is_some_and(|e| e.contains(iref.idx))
    }

    /// Appends the current attributes and stage of `iref` to the WAL and
    /// syncs per policy. Must run before the message acknowledging that
    /// stage leaves this node. A storage failure is crash-stop.
    fn persist(&mut self, iref: IRef) {
        if !self.state.wal().durable() {
            return;
        }
        let Some(inst) = self.get(iref) else { return };
        let rec = EpaxosWal {
            iref,
            cmd: inst.cmd.clone(),
            seq: inst.seq,
            deps: inst.deps.clone(),
            status: inst.status,
        };
        self.state.wal().persist(&rec);
    }

    fn get_mut(&mut self, iref: IRef) -> Option<&mut Instance> {
        self.instances.get_mut(&iref.leader)?.get_mut(&iref.idx)
    }

    /// Computes `(seq, deps)` for `cmd` from local knowledge, excluding
    /// `iref` itself: a write depends on every leader's latest instance on
    /// the key, a read on every leader's latest write (see [`KeyInfo`]).
    fn attributes(&self, cmd: &Command, iref: IRef) -> (u64, Vec<IRef>) {
        let Some(info) = self.key_info.get(&cmd.key) else {
            return (1, Vec::new());
        };
        let write = cmd.is_write();
        let mut deps: Vec<IRef> = info
            .latest
            .iter()
            .filter_map(|l| {
                let idx = if write { Some(l.any) } else { l.write };
                idx.map(|idx| IRef {
                    leader: l.leader,
                    idx,
                })
            })
            .filter(|d| *d != iref)
            .collect();
        deps.sort_unstable();
        (info.max_seq + 1, deps)
    }

    /// Records `iref` as its leader's latest instance on its key, and as its
    /// latest write there if its command writes.
    fn note_instance(&mut self, iref: IRef) {
        let inst = self
            .instances
            .get(&iref.leader)
            .and_then(|l| l.get(&iref.idx));
        let inst = inst.expect("noting unknown instance");
        let info = self.key_info.entry(inst.cmd.key).or_default();
        let at = match info.latest.iter().position(|l| l.leader == iref.leader) {
            Some(at) => at,
            None => {
                info.latest.push(Latest {
                    leader: iref.leader,
                    any: 0,
                    write: None,
                });
                info.latest.len() - 1
            }
        };
        let latest = &mut info.latest[at];
        latest.any = latest.any.max(iref.idx);
        if inst.cmd.is_write() {
            latest.write = Some(latest.write.map_or(iref.idx, |w| w.max(iref.idx)));
        }
        info.max_seq = info.max_seq.max(inst.seq);
    }

    fn insert_instance(
        &mut self,
        iref: IRef,
        cmd: Command,
        seq: u64,
        deps: Vec<IRef>,
        status: WalStatus,
        req: Option<RequestId>,
    ) {
        let inst = Instance {
            cmd,
            seq,
            deps,
            status,
            req,
            replies: 0,
            any_changed: false,
            accept_oks: 0,
        };
        let old = self
            .instances
            .entry(iref.leader)
            .or_default()
            .insert(iref.idx, inst);
        if old.is_some_and(|o| o.status == WalStatus::Committed) {
            // A decided instance lost its status: paths through it changed.
            self.forget_blocked();
        }
        self.note_instance(iref);
    }

    /// `iref` just committed: what it blocked may be executable now.
    fn unblock(&mut self, iref: IRef) {
        for w in self.waiting.remove(&iref).unwrap_or_default() {
            if self.blocked.get(&w) == Some(&iref) {
                self.blocked.remove(&w);
            }
        }
    }

    fn forget_blocked(&mut self) {
        self.blocked.clear();
        self.waiting.clear();
    }

    fn commit(&mut self, iref: IRef, ctx: &mut dyn Context<EpaxosMsg>) {
        if self.is_executed(iref) {
            return;
        }
        let inst = self.get_mut(iref).expect("commit of unknown instance");
        if inst.status == WalStatus::Committed {
            return;
        }
        inst.status = WalStatus::Committed;
        let (cmd, seq, deps) = (inst.cmd.clone(), inst.seq, inst.deps.clone());
        let req = inst.req;
        self.unblock(iref);
        self.pending_exec.insert(iref);
        self.persist(iref);
        ctx.count(Metric::Commits, 1);
        if let Some(id) = req {
            ctx.trace(TraceStage::QuorumAck, id);
        }
        ctx.broadcast(EpaxosMsg::Commit {
            iref,
            cmd,
            seq,
            deps,
        });
        self.execute_ready(ctx);
    }

    fn record_commit(
        &mut self,
        iref: IRef,
        cmd: Command,
        seq: u64,
        deps: Vec<IRef>,
        ctx: &mut dyn Context<EpaxosMsg>,
    ) {
        if self.is_executed(iref) {
            return;
        }
        let newly_committed;
        match self.get_mut(iref) {
            Some(inst) => {
                newly_committed = inst.status != WalStatus::Committed;
                let moved = !newly_committed && inst.deps != deps;
                inst.cmd = cmd;
                inst.seq = seq;
                inst.deps = deps;
                inst.status = WalStatus::Committed;
                if moved {
                    self.forget_blocked();
                }
            }
            None => {
                self.insert_instance(iref, cmd, seq, deps, WalStatus::Committed, None);
                newly_committed = true;
            }
        }
        if newly_committed {
            self.unblock(iref);
            ctx.count(Metric::Commits, 1);
        }
        self.note_instance(iref);
        self.pending_exec.insert(iref);
        self.persist(iref);
        self.execute_ready(ctx);
    }

    /// Tries to execute every committed-but-unexecuted instance whose
    /// transitive dependencies are all committed, in SCC order.
    fn execute_ready(&mut self, ctx: &mut dyn Context<EpaxosMsg>) {
        let mut t = std::mem::take(&mut self.scratch);
        let mut progress = true;
        while progress {
            progress = false;
            t.roots.clear();
            t.roots.extend(self.pending_exec.iter().copied());
            for i in 0..t.roots.len() {
                let root = t.roots[i];
                if !self.pending_exec.contains(&root) {
                    continue; // executed as part of an earlier SCC pass
                }
                if self.blocked.contains_key(&root) {
                    continue;
                }
                match self.executable_order(root, &mut t) {
                    Ok(()) => {
                        for &iref in &t.order {
                            self.execute_one(iref, ctx);
                            progress = true;
                        }
                    }
                    Err(blocker) => {
                        let waiters = self.waiting.entry(blocker).or_default();
                        for &(v, _) in &t.dfs {
                            self.blocked.insert(v, blocker);
                            waiters.push(v);
                        }
                    }
                }
            }
        }
        self.scratch = t;
    }

    /// Iterative Tarjan SCC over the committed-unexecuted subgraph reachable
    /// from `root`, in `t`. Leaves the instances in execution order in
    /// `t.order`, or, if a reachable dependency is not yet committed,
    /// returns that blocker and leaves the committed path from `root` that
    /// reaches it in `t.dfs` (empty if `root` itself is uncommitted).
    fn executable_order(&self, root: IRef, t: &mut Scratch) -> Result<(), IRef> {
        t.marks.clear();
        t.stack.clear();
        t.dfs.clear();
        t.order.clear();

        let committed_unexecuted = |s: &Self, v: IRef| -> Option<bool> {
            // None = uncommitted (abort), Some(true) = traverse, Some(false) = skip (executed)
            if s.is_executed(v) {
                return Some(false);
            }
            match s.get(v).map(|i| i.status) {
                Some(WalStatus::Committed) => Some(true),
                _ => None,
            }
        };

        match committed_unexecuted(self, root) {
            None => return Err(root),
            Some(false) => return Ok(()),
            Some(true) => {}
        }
        let mark = |index| Mark {
            index,
            low: index,
            on_stack: true,
        };
        t.marks.insert(root, mark(0));
        let mut next_index = 1;
        t.stack.push(root);
        t.dfs.push((root, 0));

        while let Some(&mut (v, ref mut cursor)) = t.dfs.last_mut() {
            let deps = &self.get(v).unwrap().deps;
            if *cursor < deps.len() {
                let w = deps[*cursor];
                *cursor += 1;
                let blocker = match committed_unexecuted(self, w) {
                    None => Some(w),
                    Some(false) => continue, // executed dep: satisfied
                    Some(true) => self.blocked.get(&w).copied(),
                };
                if let Some(blocker) = blocker {
                    return Err(blocker);
                }
                match t.marks.get(&w) {
                    Some(&Mark {
                        index, on_stack, ..
                    }) => {
                        if on_stack {
                            let m = t.marks.get_mut(&v).expect("a walked instance is marked");
                            m.low = m.low.min(index);
                        }
                    }
                    None => {
                        t.marks.insert(w, mark(next_index));
                        next_index += 1;
                        t.stack.push(w);
                        t.dfs.push((w, 0));
                    }
                }
            } else {
                // Finished v: pop and propagate lowlink.
                t.dfs.pop();
                let vm = t.marks[&v];
                if let Some(&(p, _)) = t.dfs.last() {
                    let pm = t.marks.get_mut(&p).expect("a walked instance is marked");
                    pm.low = pm.low.min(vm.low);
                }
                if vm.low == vm.index {
                    // v is an SCC root: pop the component.
                    let from = t.order.len();
                    while let Some(w) = t.stack.pop() {
                        let wm = t.marks.get_mut(&w).expect("a stacked instance is marked");
                        wm.on_stack = false;
                        t.order.push(w);
                        if w == v {
                            break;
                        }
                    }
                    // Deterministic order inside the SCC: by (seq, leader, idx).
                    t.order[from..].sort_unstable_by_key(|r| {
                        let i = self.get(*r).expect("a walked instance exists");
                        (i.seq, r.leader, r.idx)
                    });
                }
            }
        }
        // Tarjan emits SCCs dependencies-first along dep edges.
        Ok(())
    }

    /// Executes `iref` through the replica layer; its command leader
    /// answers the client. The instance leaves `instances`: from here on
    /// only its leader's watermark says that it ran.
    fn execute_one(&mut self, iref: IRef, ctx: &mut dyn Context<EpaxosMsg>) {
        let leader = self.instances.get_mut(&iref.leader);
        let inst = leader.and_then(|l| l.remove(&iref.idx));
        let inst = inst.expect("executing unknown instance");
        let executed = self.executed.entry(iref.leader).or_default();
        executed.insert(iref.idx);
        self.pending_exec.remove(&iref);
        self.state
            .execute(&inst.cmd, inst.req, iref.leader == self.id, ctx);
    }
}

impl Replica for EPaxos {
    type Msg = EpaxosMsg;

    fn on_message(&mut self, from: NodeId, msg: EpaxosMsg, ctx: &mut dyn Context<EpaxosMsg>) {
        match msg {
            EpaxosMsg::PreAccept {
                iref,
                cmd,
                seq,
                deps,
            } => {
                // Links deliver in send order and nothing retransmits, so
                // the leader's PreAccept reaches this replica before its
                // Accept and its Commit, and an instance executes here only
                // once committed. A PreAccept for an executed instance
                // therefore cannot arrive. Were one to, answering it would
                // bring back an instance whose execution is done, so it is
                // dropped.
                if self.is_executed(iref) {
                    return;
                }
                // Union the leader's attributes with local knowledge.
                let (local_seq, local_deps) = self.attributes(&cmd, iref);
                let new_seq = seq.max(local_seq);
                let mut new_deps = deps.clone();
                for d in local_deps {
                    if !new_deps.contains(&d) {
                        new_deps.push(d);
                    }
                }
                new_deps.sort_unstable();
                let changed = new_seq != seq || new_deps != deps;
                self.insert_instance(
                    iref,
                    cmd,
                    new_seq,
                    new_deps.clone(),
                    WalStatus::PreAccepted,
                    None,
                );
                self.persist(iref);
                ctx.send(
                    from,
                    EpaxosMsg::PreAcceptOk {
                        iref,
                        seq: new_seq,
                        deps: new_deps,
                        changed,
                    },
                );
            }
            EpaxosMsg::PreAcceptOk {
                iref,
                seq,
                deps,
                changed,
            } => {
                let fast = self.fast;
                let my_id = self.id;
                let Some(inst) = self.get_mut(iref) else {
                    return;
                };
                if inst.status != WalStatus::PreAccepted || iref.leader != my_id {
                    return; // stale reply (already decided)
                }
                inst.replies += 1;
                inst.any_changed |= changed;
                inst.seq = inst.seq.max(seq);
                for d in deps {
                    if !inst.deps.contains(&d) {
                        inst.deps.push(d);
                    }
                }
                inst.deps.sort_unstable();
                // Leader's self-vote counts toward the fast quorum.
                if inst.replies + 1 >= fast {
                    if inst.any_changed {
                        // Slow path: Paxos accept on the union.
                        inst.status = WalStatus::Accepted;
                        inst.accept_oks = 0;
                        let (cmd, seq, deps) = (inst.cmd.clone(), inst.seq, inst.deps.clone());
                        // The leader's own accept counts toward the slow
                        // quorum, so it must be durable before peers vote.
                        self.persist(iref);
                        ctx.broadcast(EpaxosMsg::Accept {
                            iref,
                            cmd,
                            seq,
                            deps,
                        });
                    } else {
                        self.commit(iref, ctx);
                    }
                }
            }
            EpaxosMsg::Accept {
                iref,
                cmd,
                seq,
                deps,
            } => {
                // A decided instance still gets an AcceptOk but must not log
                // a status downgrade. An executed one has nothing left to
                // note either: its attributes were noted when it committed.
                if self.is_executed(iref) {
                    ctx.send(from, EpaxosMsg::AcceptOk { iref });
                    return;
                }
                let advanced = match self.get_mut(iref) {
                    Some(inst) if inst.status != WalStatus::Committed => {
                        inst.cmd = cmd;
                        inst.seq = seq;
                        inst.deps = deps;
                        inst.status = WalStatus::Accepted;
                        true
                    }
                    Some(_) => false,
                    None => {
                        self.insert_instance(iref, cmd, seq, deps, WalStatus::Accepted, None);
                        true
                    }
                };
                self.note_instance(iref);
                if advanced {
                    self.persist(iref);
                }
                ctx.send(from, EpaxosMsg::AcceptOk { iref });
            }
            EpaxosMsg::AcceptOk { iref } => {
                let slow = self.slow;
                let my_id = self.id;
                let Some(inst) = self.get_mut(iref) else {
                    return;
                };
                if inst.status != WalStatus::Accepted || iref.leader != my_id {
                    return;
                }
                inst.accept_oks += 1;
                if inst.accept_oks + 1 >= slow {
                    self.commit(iref, ctx);
                }
            }
            EpaxosMsg::Commit {
                iref,
                cmd,
                seq,
                deps,
            } => {
                self.record_commit(iref, cmd, seq, deps, ctx);
            }
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<EpaxosMsg>) {
        // Every replica is an opportunistic leader for its own clients.
        let iref = IRef {
            leader: self.id,
            idx: self.next_idx,
        };
        self.next_idx += 1;
        ctx.trace(TraceStage::Propose, req.id);
        let (seq, deps) = self.attributes(&req.cmd, iref);
        self.insert_instance(
            iref,
            req.cmd.clone(),
            seq,
            deps.clone(),
            WalStatus::PreAccepted,
            Some(req.id),
        );
        // The leader's own pre-accept is a fast-quorum vote: make it durable
        // before soliciting the others.
        self.persist(iref);
        if self.fast <= 1 {
            self.commit(iref, ctx);
        } else {
            ctx.broadcast(EpaxosMsg::PreAccept {
                iref,
                cmd: req.cmd,
                seq,
                deps,
            });
        }
    }

    fn protocol_name(&self) -> &'static str {
        "epaxos"
    }

    /// Stable wire-type names for the per-type observability breakdown.
    fn msg_kind(msg: &EpaxosMsg) -> &'static str {
        match msg {
            EpaxosMsg::PreAccept { .. } => "pre_accept",
            EpaxosMsg::PreAcceptOk { .. } => "pre_accept_ok",
            EpaxosMsg::Accept { .. } => "accept",
            EpaxosMsg::AcceptOk { .. } => "accept_ok",
            EpaxosMsg::Commit { .. } => "commit",
        }
    }

    /// Recovers acceptor state from `storage` and keeps the handle for
    /// future appends. Records replay in append order, so the last record
    /// for an instance carries its final pre-crash attributes — except that
    /// `Committed` is sticky (a stale `Accepted` from a concurrent handler
    /// never downgrades it). `req` is not persisted: a recovered replica
    /// never re-sends client replies, the retry path covers those.
    fn attach_storage(&mut self, mut storage: Box<dyn Storage>) {
        let (_, records) = kernel::recover::<EpaxosWal>(storage.as_mut());
        let replayed = records.len();
        for w in records {
            let status = w.status;
            match self.get_mut(w.iref) {
                Some(inst) => {
                    if inst.status != WalStatus::Committed || status == WalStatus::Committed {
                        inst.cmd = w.cmd;
                        inst.seq = w.seq;
                        inst.deps = w.deps;
                        inst.status = status;
                    }
                }
                None => self.insert_instance(w.iref, w.cmd, w.seq, w.deps, status, None),
            }
            self.note_instance(w.iref);
            if status == WalStatus::Committed {
                self.pending_exec.insert(w.iref);
            }
            if w.iref.leader == self.id {
                self.next_idx = self.next_idx.max(w.iref.idx + 1);
            }
        }
        self.state.wal().attach(storage, replayed);
    }

    fn sync_storage(&mut self) {
        self.state.wal().tick();
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<EpaxosMsg>) {
        // The state machine is volatile; re-run the recovered commit graph.
        // Execution order is a deterministic function of that graph, so the
        // rebuilt store converges with what survivors hold.
        self.execute_ready(ctx);
    }

    fn store(&self) -> Option<&MultiVersionStore> {
        Some(self.state.store())
    }

    /// EPaxos is leaderless: every replica serves requests as a command
    /// leader, so the best place to send a request is wherever it already
    /// is. Returning our own id makes the sharded runtime treat this node
    /// as always-right (it never redirects).
    fn leader_hint(&self) -> Option<NodeId> {
        Some(self.id)
    }
}

/// Convenience factory for a homogeneous EPaxos cluster.
pub fn epaxos_cluster(cluster: ClusterConfig) -> impl Fn(NodeId) -> EPaxos {
    move |id| EPaxos::new(id, cluster.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::Rng64;
    use paxi_core::id::ClientId;
    use paxi_core::store::Version;
    use paxi_core::time::Nanos;
    use paxi_sim::{ClientSetup, SimConfig, Simulator, Topology};

    fn lan_sim(n: u8, clients: usize, conflict_key: Option<f64>) -> Simulator<EPaxos> {
        let cluster = ClusterConfig::lan(n);
        let setups = ClientSetup::closed_per_zone(&cluster, clients);
        // conflict_key = Some(p): with probability p write hot key 0, else
        // write a per-client private key (never conflicts).
        let workload =
            move |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let hot = conflict_key.map(|p| rng.chance(p)).unwrap_or(false);
                let key = if hot { 0 } else { 1000 + client.0 as u64 };
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        Simulator::new(
            SimConfig {
                record_ops: true,
                ..SimConfig::default()
            },
            cluster.clone(),
            epaxos_cluster(cluster),
            workload,
            setups,
        )
    }

    /// Hand-driven context for unit-testing handler logic.
    struct Probe {
        id: NodeId,
        sent: Vec<(Option<NodeId>, EpaxosMsg)>, // None = broadcast
        replies: Vec<paxi_core::ClientResponse>,
    }

    impl paxi_core::traits::Context<EpaxosMsg> for Probe {
        fn id(&self) -> NodeId {
            self.id
        }
        fn now(&self) -> paxi_core::Nanos {
            paxi_core::Nanos::ZERO
        }
        fn send(&mut self, to: NodeId, msg: EpaxosMsg) {
            self.sent.push((Some(to), msg));
        }
        fn broadcast(&mut self, msg: EpaxosMsg) {
            self.sent.push((None, msg));
        }
        fn multicast(&mut self, to: &[NodeId], msg: EpaxosMsg) {
            for &t in to {
                self.sent.push((Some(t), msg.clone()));
            }
        }
        fn set_timer(&mut self, _after: paxi_core::Nanos, _kind: u64) -> u64 {
            0
        }
        fn reply(&mut self, resp: paxi_core::ClientResponse) {
            self.replies.push(resp);
        }
        fn forward(&mut self, _to: NodeId, _req: paxi_core::ClientRequest) {}
        fn rand_u64(&mut self) -> u64 {
            1
        }
    }

    fn probe(id: NodeId) -> Probe {
        Probe {
            id,
            sent: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn req(client: u32, seq: u64, cmd: paxi_core::Command) -> paxi_core::ClientRequest {
        paxi_core::ClientRequest {
            id: paxi_core::RequestId::new(ClientId(client), seq),
            cmd,
        }
    }

    #[test]
    fn first_command_gets_empty_deps_and_seq_one() {
        let mut e = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 0));
        e.on_request(req(1, 0, paxi_core::Command::put(7, vec![1])), &mut ctx);
        match &ctx.sent[0] {
            (
                None,
                EpaxosMsg::PreAccept {
                    iref, seq, deps, ..
                },
            ) => {
                assert_eq!(iref.leader, NodeId::new(0, 0));
                assert_eq!(*seq, 1);
                assert!(deps.is_empty());
            }
            other => panic!("expected PreAccept broadcast, got {other:?}"),
        }
    }

    #[test]
    fn interfering_commands_pick_up_dependencies() {
        let mut e = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 0));
        e.on_request(req(1, 0, paxi_core::Command::put(7, vec![1])), &mut ctx);
        e.on_request(req(1, 1, paxi_core::Command::put(7, vec![2])), &mut ctx);
        match &ctx.sent[1] {
            (None, EpaxosMsg::PreAccept { seq, deps, .. }) => {
                assert_eq!(*seq, 2, "seq grows past interfering commands");
                assert_eq!(deps.len(), 1);
                assert_eq!(
                    deps[0],
                    IRef {
                        leader: NodeId::new(0, 0),
                        idx: 0
                    }
                );
            }
            other => panic!("expected PreAccept, got {other:?}"),
        }
        // Reads of a different key stay independent.
        e.on_request(req(1, 2, paxi_core::Command::get(8)), &mut ctx);
        match &ctx.sent[2] {
            (None, EpaxosMsg::PreAccept { deps, .. }) => assert!(deps.is_empty()),
            other => panic!("expected PreAccept, got {other:?}"),
        }
    }

    #[test]
    fn a_read_behind_a_read_still_depends_on_the_write_before_both() {
        // The first Get depends on the Put; the second must too: a read
        // orders nothing after it, so it cannot stand in for the Put.
        let mut e = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 0));
        e.on_request(req(1, 0, paxi_core::Command::put(7, vec![1])), &mut ctx);
        e.on_request(req(1, 1, paxi_core::Command::get(7)), &mut ctx);
        e.on_request(req(1, 2, paxi_core::Command::get(7)), &mut ctx);
        let put = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        match &ctx.sent[2] {
            (None, EpaxosMsg::PreAccept { iref, deps, .. }) => {
                assert_eq!(iref.idx, 2);
                assert_eq!(deps, &vec![put], "the second Get must follow the Put");
            }
            other => panic!("expected PreAccept, got {other:?}"),
        }
    }

    #[test]
    fn an_acceptor_adds_the_write_behind_another_leaders_read() {
        // The acceptor knows 0.1's Put(7) and, after it, 0.1's Get(7). A
        // Get(7) from 0.0 that knows neither must come back ordered after
        // the Put, not after nothing.
        let mut acceptor = EPaxos::new(NodeId::new(0, 2), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 2));
        let put = IRef {
            leader: NodeId::new(0, 1),
            idx: 0,
        };
        let get = IRef {
            leader: NodeId::new(0, 1),
            idx: 1,
        };
        for (iref, cmd, seq, deps) in [
            (put, paxi_core::Command::put(7, vec![9]), 1, vec![]),
            (get, paxi_core::Command::get(7), 2, vec![put]),
        ] {
            let commit = EpaxosMsg::Commit {
                iref,
                cmd,
                seq,
                deps,
            };
            acceptor.on_message(NodeId::new(0, 1), commit, &mut ctx);
        }
        acceptor.on_message(
            NodeId::new(0, 0),
            EpaxosMsg::PreAccept {
                iref: IRef {
                    leader: NodeId::new(0, 0),
                    idx: 0,
                },
                cmd: paxi_core::Command::get(7),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        let reply = ctx.sent.iter().find_map(|(to, m)| match m {
            EpaxosMsg::PreAcceptOk { deps, changed, .. } => Some((*to, deps.clone(), *changed)),
            _ => None,
        });
        let (to, deps, changed) = reply.expect("acceptor must reply");
        assert_eq!(to, Some(NodeId::new(0, 0)));
        assert!(deps.contains(&put), "deps {deps:?} miss the Put");
        assert!(changed, "the added dependency forces the slow path");
    }

    #[test]
    fn acceptor_augments_attributes_and_flags_change() {
        // An acceptor that already knows an interfering instance must extend
        // deps and report `changed = true`, forcing the slow path.
        let mut acceptor = EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 1));
        // Instance A from leader 0.2 on key 7, committed knowledge.
        acceptor.on_message(
            NodeId::new(0, 2),
            EpaxosMsg::Commit {
                iref: IRef {
                    leader: NodeId::new(0, 2),
                    idx: 0,
                },
                cmd: paxi_core::Command::put(7, vec![9]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        // Now a PreAccept for an interfering command that doesn't know A.
        acceptor.on_message(
            NodeId::new(0, 0),
            EpaxosMsg::PreAccept {
                iref: IRef {
                    leader: NodeId::new(0, 0),
                    idx: 0,
                },
                cmd: paxi_core::Command::put(7, vec![1]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        let reply = ctx
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                EpaxosMsg::PreAcceptOk {
                    seq, deps, changed, ..
                } => Some((*to, *seq, deps.clone(), *changed)),
                _ => None,
            })
            .expect("acceptor must reply");
        let (to, seq, deps, changed) = reply;
        assert_eq!(to, Some(NodeId::new(0, 0)));
        assert!(changed, "conflict must be reported");
        assert_eq!(seq, 2, "seq bumped past the known instance");
        assert!(deps.contains(&IRef {
            leader: NodeId::new(0, 2),
            idx: 0
        }));
    }

    #[test]
    fn committed_chain_executes_in_dependency_order() {
        // Feed commits out of order: B depends on A; B commits first. B must
        // not execute until A commits, then both execute A-then-B.
        let mut e = EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 1));
        let a = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        let b = IRef {
            leader: NodeId::new(0, 2),
            idx: 0,
        };
        e.on_message(
            NodeId::new(0, 2),
            EpaxosMsg::Commit {
                iref: b,
                cmd: paxi_core::Command::put(7, vec![2]),
                seq: 2,
                deps: vec![a],
            },
            &mut ctx,
        );
        assert!(
            e.store().unwrap().history(7).is_empty(),
            "B must wait for A"
        );
        e.on_message(
            NodeId::new(0, 0),
            EpaxosMsg::Commit {
                iref: a,
                cmd: paxi_core::Command::put(7, vec![1]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        let hist = e.store().unwrap().history(7);
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0], Version::of(Some(&[1])), "A executes first");
        assert_eq!(hist[1], Version::of(Some(&[2])));
    }

    #[test]
    fn a_long_chain_waiting_on_one_missing_commit_executes_when_it_arrives() {
        // A replica cut off from one command leader keeps hearing commits
        // that all depend, through each other, on one it never got. They
        // wait, then execute in chain order once the missing one commits.
        let mut e = EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 1));
        let missing = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        let chain = |idx: u64| IRef {
            leader: NodeId::new(0, 2),
            idx,
        };
        let commit = |iref: IRef, seq: u64, deps: Vec<IRef>| EpaxosMsg::Commit {
            iref,
            cmd: paxi_core::Command::put(7, seq.to_le_bytes().to_vec()),
            seq,
            deps,
        };
        let n = 2_000u64;
        for i in 0..n {
            let dep = if i == 0 { missing } else { chain(i - 1) };
            e.on_message(
                NodeId::new(0, 2),
                commit(chain(i), i + 2, vec![dep]),
                &mut ctx,
            );
        }
        assert!(e.store().unwrap().history(7).is_empty());
        e.on_message(NodeId::new(0, 0), commit(missing, 1, vec![]), &mut ctx);
        let hist = e.store().unwrap().history(7);
        assert_eq!(hist.len() as u64, n + 1);
        for (i, v) in hist.iter().enumerate() {
            assert_eq!(*v, Version::of(Some(&(i as u64 + 1).to_le_bytes())));
        }
    }

    #[test]
    fn dependency_cycles_execute_by_seq_everywhere() {
        // A and B mutually depend (committed concurrently): the SCC rule
        // orders them by seq, identically at every replica.
        let mk = || EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        let a = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        let b = IRef {
            leader: NodeId::new(0, 2),
            idx: 0,
        };
        let commit_a = EpaxosMsg::Commit {
            iref: a,
            cmd: paxi_core::Command::put(7, vec![1]),
            seq: 2,
            deps: vec![b],
        };
        let commit_b = EpaxosMsg::Commit {
            iref: b,
            cmd: paxi_core::Command::put(7, vec![2]),
            seq: 1,
            deps: vec![a],
        };
        // Delivery order 1: A then B.
        let mut e1 = mk();
        let mut ctx = probe(NodeId::new(0, 1));
        e1.on_message(NodeId::new(0, 0), commit_a.clone(), &mut ctx);
        e1.on_message(NodeId::new(0, 2), commit_b.clone(), &mut ctx);
        // Delivery order 2: B then A.
        let mut e2 = mk();
        e2.on_message(NodeId::new(0, 2), commit_b, &mut ctx);
        e2.on_message(NodeId::new(0, 0), commit_a, &mut ctx);
        let h1: Vec<_> = e1.store().unwrap().history(7).to_vec();
        let h2: Vec<_> = e2.store().unwrap().history(7).to_vec();
        assert_eq!(
            h1, h2,
            "SCC execution order must not depend on delivery order"
        );
        assert_eq!(h1[0], Version::of(Some(&[2])), "lower seq (B) first");
    }

    #[test]
    fn non_conflicting_commands_commit_fast() {
        let mut sim = lan_sim(5, 3, Some(0.0));
        let report = sim.run();
        assert!(report.completed > 1000, "completed {}", report.completed);
        assert_eq!(report.errors, 0);
        // Fast path: ~2 RTTs total (client->replica + PreAccept round).
        let mean = report.latency.mean.as_millis_f64();
        assert!((0.5..2.0).contains(&mean), "mean {mean} ms");
    }

    #[test]
    fn full_conflict_still_completes_and_linearizes() {
        let mut sim = lan_sim(5, 3, Some(1.0));
        let report = sim.run();
        assert!(report.completed > 500, "completed {}", report.completed);
        // All replicas execute the hot key in the same order.
        let stores: Vec<_> = sim.replicas().iter().map(|r| r.store().unwrap()).collect();
        let a = stores[0].history(0);
        assert!(!a.is_empty());
        for s in &stores[1..] {
            let b = s.history(0);
            let common = a.len().min(b.len());
            assert!(common > 0);
            assert_eq!(
                &a[..common],
                &b[..common],
                "hot-key execution order diverged"
            );
        }
    }

    #[test]
    fn conflicts_increase_latency() {
        let mut low = lan_sim(5, 4, Some(0.0));
        let mut high = lan_sim(5, 4, Some(1.0));
        let l = low.run().latency.mean;
        let h = high.run().latency.mean;
        assert!(h > l, "conflict latency {h} should exceed no-conflict {l}");
    }

    #[test]
    fn all_nodes_share_load() {
        // No single-leader bottleneck: with clients attached round-robin the
        // message load spreads across replicas.
        let mut sim = lan_sim(5, 5, Some(0.0));
        let report = sim.run();
        let handled: Vec<u64> = report.node_stats.iter().map(|n| n.handled).collect();
        let max = *handled.iter().max().unwrap() as f64;
        let min = *handled.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "unbalanced load: {handled:?}");
    }

    #[test]
    fn fast_quorum_size_exposed() {
        let e = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        assert_eq!(e.fast_quorum(), 4);
    }

    #[test]
    fn wan_conflict_latency_matches_epaxos_story() {
        // In WAN, conflicts force a second wide-area round.
        let cluster = ClusterConfig::wan(5, 1);
        let mk = |p: f64| {
            let setups = ClientSetup::closed_per_zone(&cluster, 2);
            let workload = move |client: ClientId,
                                 _z: u8,
                                 seq: u64,
                                 _now: paxi_core::Nanos,
                                 rng: &mut Rng64| {
                let key = if rng.chance(p) {
                    0
                } else {
                    1000 + client.0 as u64
                };
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
            Simulator::new(
                SimConfig {
                    topology: Topology::aws5(),
                    warmup: Nanos::secs(1),
                    measure: Nanos::secs(4),
                    ..SimConfig::default()
                },
                cluster.clone(),
                epaxos_cluster(cluster.clone()),
                workload,
                setups,
            )
        };
        let no_conflict = mk(0.0).run().latency.mean.as_millis_f64();
        let full_conflict = mk(1.0).run().latency.mean.as_millis_f64();
        assert!(
            full_conflict > no_conflict * 1.2,
            "WAN conflicts should add a round: {no_conflict} vs {full_conflict}"
        );
    }

    fn durable_acceptor(hub: &paxi_storage::MemHub<u32>) -> EPaxos {
        let mut e = EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        e.attach_storage(Box::new(hub.open(1)));
        e
    }

    #[test]
    fn preaccepted_attributes_survive_amnesia() {
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let mut e = durable_acceptor(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let known = IRef {
            leader: NodeId::new(0, 2),
            idx: 0,
        };
        let probed = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        e.on_message(
            NodeId::new(0, 2),
            EpaxosMsg::Commit {
                iref: known,
                cmd: paxi_core::Command::put(7, vec![9]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        e.on_message(
            NodeId::new(0, 0),
            EpaxosMsg::PreAccept {
                iref: probed,
                cmd: paxi_core::Command::put(7, vec![1]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        drop(e);
        hub.crash(&1);
        let e2 = durable_acceptor(&hub);
        // The acceptor promised (seq=2, deps=[known]) in its PreAcceptOk;
        // after amnesia it must still know those attributes, or the leader's
        // fast-path commit could order against a forgotten conflict.
        let inst = e2.get(probed).expect("pre-accepted instance survives");
        assert_eq!(inst.seq, 2);
        assert_eq!(inst.deps, vec![known]);
        assert_eq!(inst.status, WalStatus::PreAccepted);
        // And the committed instance it conflicted with is back too.
        assert_eq!(e2.get(known).map(|i| i.status), Some(WalStatus::Committed));
    }

    #[test]
    fn recovery_replays_commits_and_reexecutes_the_graph() {
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let mut e = durable_acceptor(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let a = IRef {
            leader: NodeId::new(0, 0),
            idx: 0,
        };
        let b = IRef {
            leader: NodeId::new(0, 2),
            idx: 0,
        };
        e.on_message(
            NodeId::new(0, 0),
            EpaxosMsg::Commit {
                iref: a,
                cmd: paxi_core::Command::put(7, vec![1]),
                seq: 1,
                deps: vec![],
            },
            &mut ctx,
        );
        e.on_message(
            NodeId::new(0, 2),
            EpaxosMsg::Commit {
                iref: b,
                cmd: paxi_core::Command::put(7, vec![2]),
                seq: 2,
                deps: vec![a],
            },
            &mut ctx,
        );
        let before: Vec<_> = e.store().unwrap().history(7).to_vec();
        assert_eq!(before.len(), 2);
        drop(e);
        hub.crash(&1);
        let mut e2 = durable_acceptor(&hub);
        assert!(
            e2.store().unwrap().history(7).is_empty(),
            "the state machine is volatile until on_recover"
        );
        let mut ctx2 = probe(NodeId::new(0, 1));
        e2.on_recover(&mut ctx2);
        assert_eq!(
            e2.store().unwrap().history(7),
            before,
            "re-execution converges"
        );
        assert!(ctx2.replies.is_empty(), "no client replies are re-sent");
    }

    #[test]
    fn own_instance_numbering_resumes_past_persisted_instances() {
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let mut e = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        e.attach_storage(Box::new(hub.open(0)));
        let mut ctx = probe(NodeId::new(0, 0));
        e.on_request(req(1, 0, paxi_core::Command::put(7, vec![1])), &mut ctx);
        e.on_request(req(1, 1, paxi_core::Command::put(8, vec![2])), &mut ctx);
        drop(e);
        hub.crash(&0);
        let mut e2 = EPaxos::new(NodeId::new(0, 0), ClusterConfig::lan(5));
        e2.attach_storage(Box::new(hub.open(0)));
        // Reusing instance slots 0 or 1 would let the recovered leader
        // overwrite its own in-flight proposals.
        e2.on_request(req(1, 2, paxi_core::Command::put(9, vec![3])), &mut ctx);
        match ctx.sent.last() {
            Some((None, EpaxosMsg::PreAccept { iref, .. })) => assert_eq!(iref.idx, 2),
            other => panic!("expected PreAccept, got {other:?}"),
        }
    }

    /// The bytes three durable replicas leave on their disks after a fixed
    /// script: commands led from every replica on the fast path, then pairs
    /// of conflicting ones proposed at once, which take the slow path. The
    /// constants are what the same body wrote at 9c50f2d, before the WAL
    /// handle moved into `kernel.rs`.
    #[test]
    fn disk_bytes_are_the_ones_written_before_the_replica_layer_moved() {
        use crate::testkit::{disk_digest, probe, settle};
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let cluster = ClusterConfig::lan(3);
        let ids = cluster.all_nodes();
        let mut nodes: Vec<_> = ids
            .iter()
            .map(|&id| {
                let mut r = EPaxos::new(id, cluster.clone());
                r.attach_storage(Box::new(hub.open(u32::from(id.node))));
                (r, probe::<EpaxosMsg>(id))
            })
            .collect();
        for i in 0..30u64 {
            let (r, ctx) = &mut nodes[(i % 3) as usize];
            let cmd = match i % 4 {
                0 => paxi_core::Command::get(i % 5),
                _ => paxi_core::Command::put(i % 5, vec![i as u8; (i % 6) as usize]),
            };
            r.on_request(req(1, i, cmd), ctx);
            settle(&mut nodes, &[]);
        }
        for i in 30..50u64 {
            for leader in [(i % 3) as usize, ((i + 1) % 3) as usize] {
                let (r, ctx) = &mut nodes[leader];
                let cmd = paxi_core::Command::put(i % 2, vec![i as u8, leader as u8]);
                r.on_request(req(leader as u32, i, cmd), ctx);
            }
            settle(&mut nodes, &[]);
        }
        for key in 0..3 {
            let disk = hub.open(key).recover().unwrap();
            let records = disk.records.iter();
            let records: Vec<EpaxosWal> = records
                .map(|b| paxi_codec::from_bytes(b).unwrap())
                .collect();
            for status in [
                WalStatus::PreAccepted,
                WalStatus::Accepted,
                WalStatus::Committed,
            ] {
                let n = records.iter().filter(|r| r.status == status).count();
                assert!(n > 0, "disk {key}: no {status:?} record");
            }
        }
        let digests = [0, 1, 2].map(|key| disk_digest(&hub, key));
        assert_eq!(
            digests.map(|d| format!("{d:016x}")),
            ["bffc6b29face1d7d", "00dee8d5bdd53bc2", "b370daeb443a6471"],
            "taken at 9c50f2d"
        );
    }

    fn held(e: &EPaxos) -> usize {
        e.instances.values().map(BTreeMap::len).sum()
    }

    fn wal_len(hub: &paxi_storage::MemHub<u32>, key: u32) -> usize {
        hub.open(key).recover().unwrap().records.len()
    }

    #[test]
    fn executed_instances_leave_the_instance_map_behind_each_leaders_watermark() {
        use crate::testkit::{probe, settle};
        let cluster = ClusterConfig::lan(3);
        let ids = cluster.all_nodes();
        let mut nodes: Vec<_> = ids
            .iter()
            .map(|&id| (EPaxos::new(id, cluster.clone()), probe::<EpaxosMsg>(id)))
            .collect();
        for i in 0..1_200u64 {
            let (r, ctx) = &mut nodes[(i % 3) as usize];
            let cmd = match i % 4 {
                0 => paxi_core::Command::get(i % 16),
                _ => paxi_core::Command::put(i % 16, vec![i as u8]),
            };
            r.on_request(req(1, i, cmd), ctx);
            assert_eq!(held(r), 1, "the proposal is held until it executes");
            settle(&mut nodes, &[]);
        }
        for (r, _) in &nodes {
            assert_eq!(held(r), 0, "{:?} kept executed instances", r.id);
            assert!(r.pending_exec.is_empty());
            for (leader, _) in &nodes {
                let executed = &r.executed[&leader.id];
                assert_eq!(executed.upto, leader.next_idx);
                assert!(executed.above.is_empty());
            }
            assert_eq!(r.state.store().executed(), 1_200);
        }
    }

    #[test]
    fn an_instance_executed_ahead_of_a_gap_waits_above_the_watermark() {
        let mut e = EPaxos::new(NodeId::new(0, 1), ClusterConfig::lan(5));
        let mut ctx = probe(NodeId::new(0, 1));
        let leader = NodeId::new(0, 0);
        let iref = |idx| IRef { leader, idx };
        // Three independent commands of one leader, committed here 2, 1, 0:
        // each executes at once, the first two ahead of the gap at 0.
        for idx in [2, 1, 0] {
            let commit = EpaxosMsg::Commit {
                iref: iref(idx),
                cmd: paxi_core::Command::put(idx, vec![1]),
                seq: 1,
                deps: vec![],
            };
            e.on_message(leader, commit, &mut ctx);
            assert_eq!(held(&e), 0);
            let executed = &e.executed[&leader];
            if idx > 0 {
                assert_eq!(executed.upto, 0);
                assert!(executed.above.contains(&idx));
                assert!(e.is_executed(iref(idx)) && !e.is_executed(iref(0)));
            }
        }
        let executed = &e.executed[&leader];
        assert_eq!(executed.upto, 3, "the gap closed, so upto passes all three");
        assert!(executed.above.is_empty());
        assert!(!e.is_executed(iref(3)));
    }

    #[test]
    fn a_late_accept_for_a_forgotten_instance_is_answered_and_not_logged() {
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let mut e = durable_acceptor(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let leader = NodeId::new(0, 0);
        let iref = IRef { leader, idx: 0 };
        let (cmd, deps) = (paxi_core::Command::put(7, vec![1]), vec![]);
        let commit = EpaxosMsg::Commit {
            iref,
            cmd: cmd.clone(),
            seq: 1,
            deps: deps.clone(),
        };
        e.on_message(leader, commit, &mut ctx);
        assert!(e.is_executed(iref) && e.get(iref).is_none());
        let records = wal_len(&hub, 1);
        ctx.sent.clear();
        let accept = EpaxosMsg::Accept {
            iref,
            cmd,
            seq: 1,
            deps,
        };
        e.on_message(leader, accept, &mut ctx);
        assert!(matches!(
            ctx.sent.as_slice(),
            [(Some(to), EpaxosMsg::AcceptOk { iref: i })] if *to == leader && *i == iref
        ));
        assert_eq!(wal_len(&hub, 1), records, "no status downgrade is logged");
        assert!(e.get(iref).is_none(), "the instance stays forgotten");
    }

    #[test]
    fn late_commits_and_replies_for_a_forgotten_instance_change_nothing() {
        // The acceptor's side: a second Commit of an executed instance.
        let hub = paxi_storage::MemHub::new(paxi_storage::FsyncPolicy::Always);
        let mut e = durable_acceptor(&hub);
        let mut ctx = probe(NodeId::new(0, 1));
        let leader = NodeId::new(0, 0);
        let commit = EpaxosMsg::Commit {
            iref: IRef { leader, idx: 0 },
            cmd: paxi_core::Command::put(7, vec![1]),
            seq: 1,
            deps: vec![],
        };
        e.on_message(leader, commit.clone(), &mut ctx);
        let records = wal_len(&hub, 1);
        ctx.sent.clear();
        e.on_message(leader, commit, &mut ctx);
        assert!(ctx.sent.is_empty());
        assert_eq!(wal_len(&hub, 1), records);
        assert_eq!(held(&e), 0);
        assert_eq!(e.store().unwrap().history(7).len(), 1, "executed once");

        // The leader's side: replies that arrive after the instance ran.
        let peers = [1, 2, 3, 4].map(|n| NodeId::new(0, n));
        let mut l = EPaxos::new(leader, ClusterConfig::lan(5));
        let mut ctx = probe(leader);
        // Fast path: three unchanged PreAcceptOks commit instance 0.
        l.on_request(req(1, 0, paxi_core::Command::put(7, vec![1])), &mut ctx);
        let pre_accept_ok = |idx, changed| EpaxosMsg::PreAcceptOk {
            iref: IRef { leader, idx },
            seq: 1,
            deps: vec![],
            changed,
        };
        for &p in &peers[..3] {
            l.on_message(p, pre_accept_ok(0, false), &mut ctx);
        }
        // Slow path: three changed PreAcceptOks, then two AcceptOks commit
        // instance 1.
        l.on_request(req(1, 1, paxi_core::Command::put(8, vec![2])), &mut ctx);
        for &p in &peers[..3] {
            l.on_message(p, pre_accept_ok(1, true), &mut ctx);
        }
        let accept_ok = EpaxosMsg::AcceptOk {
            iref: IRef { leader, idx: 1 },
        };
        for &p in &peers[..2] {
            l.on_message(p, accept_ok.clone(), &mut ctx);
        }
        assert_eq!(ctx.replies.len(), 2, "both instances executed");
        assert_eq!(held(&l), 0);
        ctx.sent.clear();
        l.on_message(peers[3], pre_accept_ok(0, false), &mut ctx);
        l.on_message(peers[3], pre_accept_ok(1, true), &mut ctx);
        l.on_message(peers[2], accept_ok.clone(), &mut ctx);
        l.on_message(peers[3], accept_ok, &mut ctx);
        assert!(ctx.sent.is_empty(), "late replies send nothing");
        assert_eq!(held(&l), 0, "late replies bring nothing back");
        assert_eq!(ctx.replies.len(), 2);
        assert_eq!(l.executed[&leader].upto, 2);
    }
}
