//! The group-multiplexing replica wrapper.
//!
//! [`ShardedReplica`] bundles one inner replica per consensus group into a
//! single [`Replica`] whose message type is the group-tagged envelope
//! [`GroupMsg`]. Everything the runtimes know how to do with one replica —
//! simulate it behind a per-node FIFO queue, run it on a thread, crash and
//! rebuild it — they now do with `N` groups at once, for free:
//!
//! * **Transports** are shared: all groups of a node pair ride one socket
//!   (or one simulated link), distinguished only by the envelope's group id.
//! * **Contention** is modeled: the simulator charges every node's work to
//!   one CPU+NIC queue, so a node that leads one group and follows seven
//!   others pays for all of them in the same pipeline — exactly the effect
//!   the sharding scaling sweep measures.
//! * **Timers** are multiplexed by packing the group id into the upper 32
//!   bits of the timer `kind`; group 0's timers keep their original kinds,
//!   which is why a `groups=1` sharded run is event-for-event identical to
//!   the unsharded protocol.
//!
//! Client requests are routed by the [`Partitioner`]: the owning group's
//! replica handles the request, and when redirects are enabled a non-leader
//! answers with [`ClientResponse::redirected`] so the client-side
//! [`crate::router::ShardRouter`] learns the group's leader instead of
//! paying a forwarding hop on every request.

use crate::partition::Partitioner;
use crate::routing::{RangeOverride, RoutingTable};
use paxi_core::command::{ClientRequest, ClientResponse};
use paxi_core::group::{GroupId, GroupMsg};
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::migration::{
    as_migration_record, migration_command, CommitHalf, MigrationRecord, MIGRATION_KEY,
};
use paxi_core::obs::{DropCause, Metric};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use std::sync::Arc;

/// Timer kinds of group `g` are tagged `(g << 32) | kind`; protocol timer
/// kinds must fit in 32 bits (all in-tree protocols use single digits).
const GROUP_TIMER_SHIFT: u32 = 32;

/// Pseudo-group tag of the migration-driver control timer. Real groups are
/// dense from 0, so the all-ones tag can never collide with one.
const CONTROL_GROUP: u64 = u32::MAX as u64;

/// The control timer's full (tagged) kind.
const CONTROL_TIMER_KIND: u64 = CONTROL_GROUP << GROUP_TIMER_SHIFT;

/// How often the migration driver re-checks for phase work while a
/// migration is in flight. Re-proposals are idempotent, so the period only
/// trades convergence latency against duplicate log entries.
const CONTROL_PERIOD: Nanos = Nanos::millis(25);

/// Static description of a sharded deployment: how the keyspace is split
/// and whether wrong-group-leader requests are redirected or forwarded.
#[derive(Clone)]
pub struct ShardSpec {
    /// Maps every key to its consensus group.
    pub partitioner: Arc<dyn Partitioner>,
    /// When true, a node that is not the leader of a request's group
    /// answers with a redirect (for smart clients like the `ShardRouter`);
    /// when false it lets the inner protocol forward the request internally
    /// (for dumb clients, and for the simulator's closed-loop clients).
    pub redirect: bool,
}

impl ShardSpec {
    /// Hash-partitioned deployment over `groups` groups, forwarding mode.
    pub fn hash(groups: u32) -> Self {
        ShardSpec {
            partitioner: Arc::new(crate::partition::HashPartitioner::new(groups)),
            redirect: false,
        }
    }

    /// Range-partitioned deployment: `[0, key_space)` split evenly over
    /// `groups` groups, forwarding mode.
    pub fn range(key_space: u64, groups: u32) -> Self {
        ShardSpec {
            partitioner: Arc::new(crate::partition::RangePartitioner::even(key_space, groups)),
            redirect: false,
        }
    }

    /// Enables wrong-leader redirects (router mode).
    pub fn with_redirect(mut self) -> Self {
        self.redirect = true;
        self
    }

    /// Number of groups in the deployment.
    pub fn groups(&self) -> u32 {
        self.partitioner.groups()
    }
}

/// One node's slice of a sharded deployment: one inner replica per group,
/// multiplexed behind a single [`Replica`] implementation.
pub struct ShardedReplica<R> {
    id: NodeId,
    spec: ShardSpec,
    groups: Vec<R>,
    /// This node's routing view: the spec's static partitioner plus every
    /// range override learned from the local migration trackers.
    routing: RoutingTable,
    /// Per-group high-water mark of tracker epochs already folded into
    /// `routing` — makes the per-event refresh a few integer compares.
    routed_epochs: Vec<u64>,
    /// Whether the migration-driver control timer is currently armed.
    control_armed: bool,
    /// Sequence counter for synthetic driver proposals.
    ctl_seq: u64,
}

impl<R: Replica> ShardedReplica<R> {
    /// Wraps `groups` (one replica per group, in group order) for node
    /// `id`. Factories normally go through [`sharded_cluster`].
    pub fn new(id: NodeId, spec: ShardSpec, groups: Vec<R>) -> Self {
        assert_eq!(
            groups.len(),
            spec.groups() as usize,
            "one inner replica per partitioner group"
        );
        let routing = RoutingTable::new(spec.partitioner.clone());
        let routed_epochs = vec![0; groups.len()];
        ShardedReplica {
            id,
            spec,
            groups,
            routing,
            routed_epochs,
            control_armed: false,
            ctl_seq: 0,
        }
    }

    /// This node's current routing view (base partitioner + learned
    /// overrides). Audits compare it against every group's store contents.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The inner replica of `group`.
    pub fn group(&self, group: GroupId) -> &R {
        &self.groups[group.0 as usize]
    }

    /// All inner replicas, in group order.
    pub fn group_replicas(&self) -> &[R] {
        &self.groups
    }

    /// The deployment description this node runs under.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Runs `f` on every group with a group-scoped context — the shared
    /// body of the start/restart/recover fan-outs.
    fn each_group(
        &mut self,
        ctx: &mut dyn Context<GroupMsg<R::Msg>>,
        f: impl Fn(&mut R, &mut dyn Context<R::Msg>),
    ) {
        for (g, replica) in self.groups.iter_mut().enumerate() {
            let mut gctx = GroupCtx {
                group: GroupId(g as u32),
                inner: ctx,
            };
            f(replica, &mut gctx);
        }
    }

    /// Post-event bookkeeping: fold newly committed migrations into the
    /// routing table and (re-)arm the driver timer while any migration is
    /// in flight. With no migrations this is a few integer compares and no
    /// effects, keeping no-migration runs event-identical to the static
    /// path.
    fn after_event(&mut self, ctx: &mut dyn Context<GroupMsg<R::Msg>>) {
        self.refresh_routing();
        self.maybe_arm(ctx);
    }

    /// Learns range overrides from every group tracker whose epoch advanced
    /// past what the routing table has already absorbed.
    fn refresh_routing(&mut self) {
        for g in 0..self.groups.len() {
            let (epoch, specs) = match self.groups[g].migration() {
                Some(tr) if tr.epoch() > self.routed_epochs[g] => (tr.epoch(), tr.completed()),
                _ => continue,
            };
            for spec in specs {
                self.routing.learn(RangeOverride {
                    lo: spec.range.lo,
                    hi: spec.range.hi,
                    to: spec.to,
                    epoch: spec.epoch,
                });
            }
            self.routed_epochs[g] = epoch;
        }
    }

    /// Arms the driver control timer if any local tracker reports an
    /// in-flight migration and the timer is not already pending.
    fn maybe_arm(&mut self, ctx: &mut dyn Context<GroupMsg<R::Msg>>) {
        if self.control_armed {
            return;
        }
        let active = self
            .groups
            .iter()
            .any(|r| r.migration().map_or(false, |t| t.active()));
        if active {
            ctx.set_timer(CONTROL_PERIOD, CONTROL_TIMER_KIND);
            self.control_armed = true;
        }
    }

    /// One driver tick: for every migration this node is responsible for
    /// (it leads the relevant group), propose the next phase through the
    /// ordinary request path. Every proposal is an idempotent replicated
    /// record, so re-proposing after a crash, a lost message, or a
    /// leadership change is always safe:
    ///
    /// * source leader, range frozen, dest not yet installed → stream the
    ///   frozen range as a replicated `Install` into the dest group's log;
    /// * source leader, dest installed → cut over: `Commit` both halves;
    /// * dest leader, installed but not committed → re-propose the dest
    ///   half (covers a source leader that died between the two commits).
    fn drive(&mut self, ctx: &mut dyn Context<GroupMsg<R::Msg>>) {
        let mut proposals: Vec<(GroupId, MigrationRecord)> = Vec::new();
        for g in 0..self.groups.len() {
            if self.groups[g].leader_hint() != Some(self.id) {
                continue;
            }
            let Some(tr) = self.groups[g].migration() else {
                continue;
            };
            for spec in tr.outbound_pending() {
                let dest = spec.to.0 as usize;
                if dest >= self.groups.len() {
                    continue;
                }
                let installed = self.groups[dest]
                    .migration()
                    .map_or(false, |t| t.installed(spec.id));
                if installed {
                    proposals.push((
                        spec.from,
                        MigrationRecord::Commit {
                            spec,
                            half: CommitHalf::Source,
                        },
                    ));
                    proposals.push((
                        spec.to,
                        MigrationRecord::Commit {
                            spec,
                            half: CommitHalf::Dest,
                        },
                    ));
                } else if let Some(store) = self.groups[g].store() {
                    let state = store.encode_range(spec.range.lo, spec.range.hi);
                    proposals.push((spec.to, MigrationRecord::Install { spec, state }));
                }
            }
            for spec in tr.inbound_pending() {
                proposals.push((
                    spec.to,
                    MigrationRecord::Commit {
                        spec,
                        half: CommitHalf::Dest,
                    },
                ));
            }
        }
        for (group, rec) in proposals {
            self.propose(group, rec, ctx);
        }
    }

    /// Injects a driver-originated migration record into `group`'s log via
    /// the group's ordinary request path (the inner protocol forwards to
    /// its leader if that is another node). The synthetic request id uses
    /// the reserved driver client, whose replies no runtime routes back.
    fn propose(
        &mut self,
        group: GroupId,
        rec: MigrationRecord,
        ctx: &mut dyn Context<GroupMsg<R::Msg>>,
    ) {
        let idx = group.0 as usize;
        if idx >= self.groups.len() {
            return;
        }
        self.ctl_seq += 1;
        let req = ClientRequest {
            id: RequestId::new(ClientId(u32::MAX), self.ctl_seq),
            cmd: migration_command(&rec),
        };
        let mut gctx = GroupCtx { group, inner: ctx };
        self.groups[idx].on_request(req, &mut gctx);
    }
}

/// Context a group's inner replica sees: tags outgoing messages and timer
/// kinds with the group id, passes everything else through to the node's
/// real context (so all groups share the node's clock, randomness, and
/// client plumbing).
struct GroupCtx<'a, M> {
    group: GroupId,
    inner: &'a mut dyn Context<GroupMsg<M>>,
}

impl<M> Context<M> for GroupCtx<'_, M> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn send(&mut self, to: NodeId, msg: M) {
        self.inner.send(to, GroupMsg::new(self.group, msg));
    }

    fn broadcast(&mut self, msg: M) {
        self.inner.broadcast(GroupMsg::new(self.group, msg));
    }

    fn multicast(&mut self, to: &[NodeId], msg: M) {
        self.inner.multicast(to, GroupMsg::new(self.group, msg));
    }

    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
        debug_assert!(
            kind >> GROUP_TIMER_SHIFT == 0,
            "protocol timer kind {kind} does not fit in 32 bits"
        );
        let tagged = ((self.group.0 as u64) << GROUP_TIMER_SHIFT) | (kind & 0xFFFF_FFFF);
        self.inner.set_timer(after, tagged)
    }

    fn reply(&mut self, resp: ClientResponse) {
        self.inner.reply(resp);
    }

    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        // Forwarded untagged: the target re-partitions the key and lands in
        // the same group (the partitioner is deterministic and shared).
        self.inner.forward(to, req);
    }

    fn rand_u64(&mut self) -> u64 {
        self.inner.rand_u64()
    }

    fn count(&mut self, metric: Metric, n: u64) {
        self.inner.count(metric, n);
    }

    fn count_drop(&mut self, cause: DropCause, n: u64) {
        self.inner.count_drop(cause, n);
    }

    fn trace(&mut self, stage: paxi_core::obs::TraceStage, req: paxi_core::id::RequestId) {
        self.inner.trace(stage, req);
    }
}

impl<R: Replica> Replica for ShardedReplica<R> {
    type Msg = GroupMsg<R::Msg>;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.each_group(ctx, |r, gctx| r.on_start(gctx));
        self.after_event(ctx);
    }

    fn on_restart(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        // Crash recovery rebuilt this wrapper from scratch: armed timers
        // died with the old incarnation, and the trackers recovered from
        // the WAL may report an in-flight migration to resume driving.
        self.control_armed = false;
        self.each_group(ctx, |r, gctx| r.on_restart(gctx));
        self.after_event(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.each_group(ctx, |r, gctx| r.on_recover(gctx));
        self.after_event(ctx);
    }

    fn sync_storage(&mut self) {
        for replica in &mut self.groups {
            replica.sync_storage();
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        let GroupMsg { group, msg } = msg;
        // A group id outside the deployment (corrupt frame, config skew) is
        // dropped, never a panic: transports feed this path raw bytes. The
        // drop is accounted so chaos digests can explain every loss.
        let Some(replica) = self.groups.get_mut(group.0 as usize) else {
            ctx.count_drop(DropCause::NoRoute, 1);
            return;
        };
        let mut gctx = GroupCtx { group, inner: ctx };
        replica.on_message(from, msg, &mut gctx);
        self.after_event(ctx);
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<Self::Msg>) {
        // Migration records name their target group explicitly (the key is
        // mid-hand-off, so no partitioner answer is authoritative); data
        // keys route through the versioned table so committed hand-offs are
        // followed. A malformed migration command is refused, accounted,
        // and never dispatched.
        let group = if req.cmd.key == MIGRATION_KEY {
            match as_migration_record(&req.cmd) {
                Some(rec) => rec.target_group(),
                None => {
                    ctx.count_drop(DropCause::NoRoute, 1);
                    ctx.reply(ClientResponse::err(req.id));
                    return;
                }
            }
        } else {
            self.routing.group_of(req.cmd.key)
        };
        let idx = group.0 as usize;
        if idx >= self.groups.len() {
            ctx.count_drop(DropCause::NoRoute, 1);
            ctx.reply(ClientResponse::err(req.id));
            return;
        }
        if self.spec.redirect && req.cmd.key != MIGRATION_KEY {
            // Router mode: answer wrong-leader requests with the group's
            // leader hint instead of forwarding, so the client learns the
            // placement. Without a hint (mid-election) the inner protocol
            // still gets the request and applies its own buffering.
            // Migration records are exempt: the driver targets them at the
            // group, not the leader, and the inner protocol's forwarding
            // delivers them (a redirect reply would go to the synthetic
            // driver client, which nothing routes back to).
            if let Some(leader) = self.groups[idx].leader_hint() {
                if leader != self.id {
                    ctx.count(Metric::Redirects, 1);
                    ctx.reply(ClientResponse::redirected(req.id, leader));
                    return;
                }
            }
        }
        let mut gctx = GroupCtx { group, inner: ctx };
        self.groups[idx].on_request(req, &mut gctx);
        self.after_event(ctx);
    }

    fn on_timer(&mut self, kind: u64, token: u64, ctx: &mut dyn Context<Self::Msg>) {
        if kind >> GROUP_TIMER_SHIFT == CONTROL_GROUP {
            // The driver's control tick: disarm, advance whatever phase
            // work this node is responsible for, re-arm if still active.
            self.control_armed = false;
            self.drive(ctx);
            self.after_event(ctx);
            return;
        }
        let group = GroupId((kind >> GROUP_TIMER_SHIFT) as u32);
        let Some(replica) = self.groups.get_mut(group.0 as usize) else {
            return;
        };
        let mut gctx = GroupCtx { group, inner: ctx };
        replica.on_timer(kind & 0xFFFF_FFFF, token, &mut gctx);
        self.after_event(ctx);
    }

    fn protocol_name(&self) -> &'static str {
        self.groups
            .first()
            .map(|r| r.protocol_name())
            .unwrap_or("sharded")
    }

    fn msg_cmds(msg: &Self::Msg) -> u64 {
        // The envelope is weightless: cost accounting sees the inner
        // message's batch width, keeping groups=1 runs bit-identical to the
        // unsharded protocol.
        R::msg_cmds(&msg.msg)
    }

    fn msg_kind(msg: &Self::Msg) -> &'static str {
        // The envelope is transparent to the per-type breakdown too.
        R::msg_kind(&msg.msg)
    }

    fn store(&self) -> Option<&MultiVersionStore> {
        // A single-group deployment is the unsharded protocol in an
        // envelope; expose its store so generic consensus checks keep
        // working. Multi-group nodes have one store *per group* — use
        // [`ShardedReplica::group`] instead.
        if self.groups.len() == 1 {
            self.groups[0].store()
        } else {
            None
        }
    }
}

/// Factory for a homogeneous sharded cluster: `group_factory(node, group)`
/// builds the inner replica of `group` on `node` (choosing per-group config
/// such as the initial leader — see [`crate::placement::spread_leader`] —
/// and attaching per-group storage namespaces).
pub fn sharded_cluster<R, F>(
    spec: ShardSpec,
    group_factory: F,
) -> impl Fn(NodeId) -> ShardedReplica<R>
where
    R: Replica,
    F: Fn(NodeId, GroupId) -> R,
{
    move |id| {
        let groups = (0..spec.groups())
            .map(|g| group_factory(id, GroupId(g)))
            .collect();
        ShardedReplica::new(id, spec.clone(), groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::command::Command;
    use paxi_core::id::{ClientId, RequestId};

    /// A minimal inner protocol for exercising the multiplexer: replies to
    /// every request, echoes every message back to its sender, and arms one
    /// timer kind per start.
    #[derive(Debug)]
    struct Echo {
        id: NodeId,
        leader: Option<NodeId>,
        msgs: Vec<(NodeId, u64)>,
        timers: Vec<u64>,
        requests: Vec<ClientRequest>,
    }

    impl Echo {
        fn new(id: NodeId, leader: Option<NodeId>) -> Self {
            Echo {
                id,
                leader,
                msgs: Vec::new(),
                timers: Vec::new(),
                requests: Vec::new(),
            }
        }
    }

    impl Replica for Echo {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            ctx.set_timer(Nanos::millis(1), 3);
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut dyn Context<u64>) {
            self.msgs.push((from, msg));
            ctx.send(from, msg + 1);
        }

        fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<u64>) {
            self.requests.push(req.clone());
            ctx.reply(ClientResponse::ok(req.id, None));
        }

        fn on_timer(&mut self, kind: u64, _token: u64, _ctx: &mut dyn Context<u64>) {
            self.timers.push(kind);
        }

        fn leader_hint(&self) -> Option<NodeId> {
            self.leader
        }

        fn store(&self) -> Option<&MultiVersionStore> {
            None
        }
    }

    /// Captures the outer context's effects.
    #[derive(Default)]
    struct Probe {
        sent: Vec<(NodeId, GroupMsg<u64>)>,
        timers: Vec<(Nanos, u64)>,
        replies: Vec<ClientResponse>,
        drops: Vec<DropCause>,
        tokens: u64,
    }

    impl Context<GroupMsg<u64>> for Probe {
        fn id(&self) -> NodeId {
            NodeId::new(0, 0)
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn send(&mut self, to: NodeId, msg: GroupMsg<u64>) {
            self.sent.push((to, msg));
        }
        fn broadcast(&mut self, msg: GroupMsg<u64>) {
            self.sent.push((NodeId::new(9, 9), msg));
        }
        fn multicast(&mut self, to: &[NodeId], msg: GroupMsg<u64>) {
            for &t in to {
                self.sent.push((t, msg.clone()));
            }
        }
        fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
            self.timers.push((after, kind));
            self.tokens += 1;
            self.tokens
        }
        fn reply(&mut self, resp: ClientResponse) {
            self.replies.push(resp);
        }
        fn forward(&mut self, _to: NodeId, _req: ClientRequest) {}
        fn rand_u64(&mut self) -> u64 {
            42
        }
        fn count_drop(&mut self, cause: DropCause, _n: u64) {
            self.drops.push(cause);
        }
    }

    fn sharded(groups: u32, redirect: bool) -> ShardedReplica<Echo> {
        let me = NodeId::new(0, 0);
        let other = NodeId::new(0, 1);
        let mut spec = ShardSpec::range(1000, groups);
        if redirect {
            spec = spec.with_redirect();
        }
        // Even groups are led locally, odd groups elsewhere.
        let factory = move |id: NodeId, g: GroupId| {
            Echo::new(id, Some(if g.0 % 2 == 0 { me } else { other }))
        };
        sharded_cluster(spec, factory)(me)
    }

    fn req(key: u64) -> ClientRequest {
        ClientRequest {
            id: RequestId::new(ClientId(1), key),
            cmd: Command::get(key),
        }
    }

    #[test]
    fn messages_dispatch_by_group_and_replies_are_tagged() {
        let mut s = sharded(4, false);
        let mut ctx = Probe::default();
        let from = NodeId::new(0, 2);
        s.on_message(from, GroupMsg::new(GroupId(2), 10), &mut ctx);
        assert_eq!(s.group(GroupId(2)).msgs, vec![(from, 10)]);
        assert!(s.group(GroupId(0)).msgs.is_empty());
        // The echo reply carries the same group tag.
        assert_eq!(ctx.sent, vec![(from, GroupMsg::new(GroupId(2), 11))]);
    }

    #[test]
    fn out_of_range_groups_are_dropped_not_panicked() {
        let mut s = sharded(2, false);
        let mut ctx = Probe::default();
        s.on_message(NodeId::new(0, 1), GroupMsg::new(GroupId(7), 1), &mut ctx);
        s.on_timer((9u64 << 32) | 3, 1, &mut ctx);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn timer_kinds_round_trip_per_group() {
        let mut s = sharded(4, false);
        let mut ctx = Probe::default();
        s.on_start(&mut ctx);
        // Each group armed kind 3 tagged with its id...
        let kinds: Vec<u64> = ctx.timers.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds, vec![3, (1 << 32) | 3, (2 << 32) | 3, (3 << 32) | 3]);
        // ...and firing the tagged kind reaches the right group, untagged.
        s.on_timer((2 << 32) | 3, 1, &mut ctx);
        assert_eq!(s.group(GroupId(2)).timers, vec![3]);
        assert!(s.group(GroupId(1)).timers.is_empty());
    }

    #[test]
    fn group_zero_timer_kinds_are_numerically_unchanged() {
        // The groups=1 determinism guarantee rests on this: group 0's tag
        // is a numeric no-op.
        let mut s = sharded(1, false);
        let mut ctx = Probe::default();
        s.on_start(&mut ctx);
        assert_eq!(ctx.timers, vec![(Nanos::millis(1), 3)]);
    }

    #[test]
    fn requests_partition_by_key() {
        let mut s = sharded(4, false);
        let mut ctx = Probe::default();
        s.on_request(req(0), &mut ctx); // group 0 owns [0, 250)
        s.on_request(req(700), &mut ctx); // group 2 owns [500, 750)
        assert_eq!(s.group(GroupId(0)).requests.len(), 1);
        assert_eq!(s.group(GroupId(2)).requests.len(), 1);
        assert_eq!(ctx.replies.len(), 2);
        assert!(ctx.replies.iter().all(|r| r.ok));
    }

    #[test]
    fn redirect_mode_points_at_the_group_leader() {
        let mut s = sharded(4, true);
        let mut ctx = Probe::default();
        // Group 1 (keys [250,500)) is led by node (0,1), not us: redirect.
        s.on_request(req(300), &mut ctx);
        assert!(
            s.group(GroupId(1)).requests.is_empty(),
            "request must not reach the group"
        );
        let resp = &ctx.replies[0];
        assert!(!resp.ok);
        assert_eq!(resp.redirect, Some(NodeId::new(0, 1)));
        // Group 2 (keys [500,750)) is led locally: served.
        s.on_request(req(600), &mut ctx);
        assert_eq!(s.group(GroupId(2)).requests.len(), 1);
        assert!(ctx.replies[1].ok);
    }

    #[test]
    fn msg_cmds_delegates_to_the_inner_protocol() {
        assert_eq!(
            ShardedReplica::<Echo>::msg_cmds(&GroupMsg::new(GroupId(3), 17)),
            1
        );
    }

    #[test]
    fn migration_records_route_by_their_target_group() {
        use paxi_core::migration::{migration_command, KeyRange, MigrationRecord, MigrationSpec};
        let mut s = sharded(4, false);
        let mut ctx = Probe::default();
        let spec = MigrationSpec {
            id: 1,
            from: GroupId(1),
            to: GroupId(3),
            range: KeyRange::new(250, 260),
            epoch: 1,
        };
        // Start targets the *source* group even though the reserved key
        // itself hashes nowhere meaningful.
        let start = ClientRequest {
            id: RequestId::new(ClientId(2), 1),
            cmd: migration_command(&MigrationRecord::Start(spec)),
        };
        s.on_request(start, &mut ctx);
        assert_eq!(s.group(GroupId(1)).requests.len(), 1);
        assert!(s.group(GroupId(3)).requests.is_empty());
        // A malformed record on the reserved key is refused and accounted,
        // never dispatched to any group.
        let bad = ClientRequest {
            id: RequestId::new(ClientId(2), 2),
            cmd: Command::put(MIGRATION_KEY, vec![0xFF, 1, 2]),
        };
        s.on_request(bad, &mut ctx);
        let last = ctx.replies.last().unwrap();
        assert!(!last.ok);
        assert_eq!(ctx.drops, vec![DropCause::NoRoute]);
        let dispatched: usize = (0..4).map(|g| s.group(GroupId(g)).requests.len()).sum();
        assert_eq!(dispatched, 1);
    }

    #[test]
    fn learned_overrides_redirect_data_dispatch() {
        let mut s = sharded(4, false);
        // Simulate a committed hand-off of group 1's slice to group 3.
        s.routing.learn(RangeOverride {
            lo: 250,
            hi: 500,
            to: GroupId(3),
            epoch: 1,
        });
        let mut ctx = Probe::default();
        s.on_request(req(300), &mut ctx);
        assert!(s.group(GroupId(1)).requests.is_empty(), "old owner skipped");
        assert_eq!(s.group(GroupId(3)).requests.len(), 1, "override followed");
        // Keys outside the override still follow the static partitioner.
        s.on_request(req(600), &mut ctx);
        assert_eq!(s.group(GroupId(2)).requests.len(), 1);
    }

    #[test]
    fn no_migration_means_no_control_timer() {
        // The driver must be invisible unless a tracker reports in-flight
        // work: a full start plus traffic arms only the per-group protocol
        // timers (the groups=1 determinism guarantee depends on this).
        let mut s = sharded(2, false);
        let mut ctx = Probe::default();
        s.on_start(&mut ctx);
        s.on_request(req(5), &mut ctx);
        s.on_timer(3, 1, &mut ctx);
        assert!(ctx
            .timers
            .iter()
            .all(|&(_, k)| k >> 32 != u64::from(u32::MAX)));
    }
}
