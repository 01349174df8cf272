//! The protocol abstraction.
//!
//! Paxi's central observation is that strongly-consistent replication
//! protocols share all their scaffolding — networking, message dispatch,
//! quorums, the datastore — and differ only in their message types and
//! replica logic. Mirroring the Go framework, a protocol author implements
//! exactly two things: a message enum and a [`Replica`] with event handlers.
//! Everything else (the deterministic simulator in `paxi-sim`, the threaded
//! and socket runtimes in `paxi-transport`, the benchmarker in `paxi-bench`)
//! is generic over this trait.
//!
//! Handlers receive a [`Context`] through which they send messages, set
//! timers, and reply to clients. The same replica code runs unchanged under
//! virtual time and wall-clock time.

use crate::command::{ClientRequest, ClientResponse};
use crate::id::NodeId;
use crate::time::Nanos;
use paxi_storage::Storage;
use std::fmt;

/// Capabilities the runtime exposes to a replica while it handles an event.
///
/// All side effects of a handler flow through its context; replicas never
/// touch sockets or clocks directly. This is what makes the simulator
/// deterministic and the protocols transport-agnostic.
pub trait Context<M> {
    /// This replica's id.
    fn id(&self) -> NodeId;
    /// Current (virtual or wall-clock) time.
    fn now(&self) -> Nanos;
    /// Sends `msg` to one peer. Sending to self is delivered like any other
    /// message (after processing costs, without network latency in the sim).
    fn send(&mut self, to: NodeId, msg: M);
    /// Sends `msg` to every peer except self. The simulator charges the CPU
    /// serialization cost once for a broadcast, per the paper's model.
    fn broadcast(&mut self, msg: M);
    /// Sends `msg` to an explicit set of peers (thrifty messaging).
    fn multicast(&mut self, to: &[NodeId], msg: M);
    /// Arms a timer that fires `after` from now, delivering `kind` to
    /// [`Replica::on_timer`]. Returns a token; a replica that re-arms a
    /// logical timer can ignore fires whose token is stale.
    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64;
    /// Completes a client request previously delivered via
    /// [`Replica::on_request`].
    fn reply(&mut self, resp: ClientResponse);
    /// Forwards a client request to another replica (e.g. a follower
    /// redirecting to the leader). The target observes it as its own
    /// [`Replica::on_request`] and replies directly to the client.
    fn forward(&mut self, to: NodeId, req: ClientRequest);
    /// Deterministic (in the simulator) source of randomness, e.g. for
    /// randomized election timeouts.
    fn rand_u64(&mut self) -> u64;
    /// Adds `n` to a typed observability counter (see [`crate::obs`]).
    /// Runtimes with metrics enabled route this into the node's
    /// [`crate::obs::MetricsRegistry`]; the default is a no-op so existing
    /// contexts and disabled runs pay nothing.
    fn count(&mut self, metric: crate::obs::Metric, n: u64) {
        let _ = (metric, n);
    }
    /// Records `n` dropped messages under a [`crate::obs::DropCause`].
    /// Default no-op, as for [`Context::count`].
    fn count_drop(&mut self, cause: crate::obs::DropCause, n: u64) {
        let _ = (cause, n);
    }
    /// Records a request-lifecycle trace event (see
    /// [`crate::obs::TraceStage`]). Protocols call this at their propose /
    /// quorum-ack / execute points; runtimes record submit and reply
    /// themselves. Default no-op.
    fn trace(&mut self, stage: crate::obs::TraceStage, req: crate::id::RequestId) {
        let _ = (stage, req);
    }
}

/// A replication-protocol replica: a deterministic state machine driven by
/// messages, client requests, and timers.
pub trait Replica {
    /// The protocol's wire message type.
    type Msg: Clone + fmt::Debug + Send + 'static;

    /// Called once when the node starts, before any other event.
    fn on_start(&mut self, _ctx: &mut dyn Context<Self::Msg>) {}

    /// Called when the node recovers after a crash window (fault
    /// injection). While crashed, every event addressed to the node —
    /// messages, client requests, timers — was silently discarded, so any
    /// timer the replica had armed is gone; this hook lets it re-arm timers
    /// and rejoin the protocol from its retained state (the recovered-state
    /// model: state survives, volatile schedules don't). The default re-runs
    /// [`Replica::on_start`], which is correct for protocols whose start
    /// logic is idempotent modulo ballots (a restarted leader re-runs
    /// phase-1 with a higher ballot, a follower re-arms its election timer).
    fn on_restart(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.on_start(ctx);
    }

    /// Gives the replica a durable store for its acceptor-critical state.
    ///
    /// Protocols that support crash-recovery keep the handle, append WAL
    /// records at their persist-before-ack points, and — right here, before
    /// returning — replay whatever the store already holds (snapshot + WAL)
    /// into their in-memory state. Attaching therefore doubles as the pure
    /// state-rebuild step of recovery: factories call it while constructing
    /// a replica, so a rebuilt-after-amnesia replica comes up already
    /// recovered. The default drops the handle (protocol keeps no durable
    /// state).
    fn attach_storage(&mut self, storage: Box<dyn Storage>) {
        let _ = storage;
    }

    /// Called after an amnesia crash, on the *rebuilt* replica (fresh from
    /// the factory, state already restored via [`Replica::attach_storage`]).
    /// Unlike `attach_storage` this hook has a [`Context`], so it is the
    /// place for effects: re-arming timers, re-executing recovered commands,
    /// re-joining the protocol. The default defers to
    /// [`Replica::on_restart`].
    fn on_recover(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.on_restart(ctx);
    }

    /// Periodic storage-maintenance tick, driven by wall-clock runtimes
    /// between events (and by the simulator at each crash window's end,
    /// where it thaws a quiet node): replicas holding a WAL forward it to
    /// [`Storage::tick`], so a batch fsync policy's time bound is honored
    /// even when no append arrives to piggyback the check on. The default
    /// does nothing (no durable state, or a backend without a wall clock).
    fn sync_storage(&mut self) {}

    /// Handles one protocol message from peer `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// Handles one client request delivered to this replica.
    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<Self::Msg>);

    /// Handles a timer armed with [`Context::set_timer`]. `token` is the
    /// value returned when the timer was armed.
    fn on_timer(&mut self, _kind: u64, _token: u64, _ctx: &mut dyn Context<Self::Msg>) {}

    /// Hint for the runtime's accounting: a human-readable protocol name.
    fn protocol_name(&self) -> &'static str {
        "unnamed"
    }

    /// How many client commands `msg` carries, for cost accounting.
    ///
    /// Protocols that batch commands into one wire message (a multi-command
    /// `P2a`, a multi-entry `AppendEntries`) report the batch width here so
    /// the simulator's cost model can charge the per-command marginal terms
    /// on top of the per-message fixed terms — the amortization the paper's
    /// §3 model predicts. Messages that carry no commands (acks, heartbeats,
    /// phase-1 traffic) count as weight 1: they cost exactly one message's
    /// worth of work. The default (weight 1 for everything) leaves unbatched
    /// protocols' accounting bit-identical to before this hook existed.
    fn msg_cmds(_msg: &Self::Msg) -> u64 {
        1
    }

    /// A stable, human-readable name for `msg`'s wire type ("p2a",
    /// "append_entries", …), used by the observability layer to break
    /// sent/received counters down per message type — the granularity the
    /// paper's per-commit message-complexity audit needs. The default lumps
    /// everything under `"msg"`, which keeps totals correct for protocols
    /// that don't override it.
    fn msg_kind(_msg: &Self::Msg) -> &'static str {
        "msg"
    }

    /// The replica's state machine, if it exposes one. The consensus checker
    /// collects stores from all replicas and verifies their per-key histories
    /// share a common prefix.
    fn store(&self) -> Option<&crate::store::MultiVersionStore> {
        None
    }

    /// Who this replica currently believes serves client requests — the
    /// redirect surface. Leader-based protocols return their leader hint
    /// (possibly themselves); leaderless protocols return their own id
    /// (any replica serves); the default `None` means the replica offers no
    /// routing information. The sharded runtime uses this to answer
    /// wrong-leader requests with [`ClientResponse::redirected`] instead of
    /// forwarding, so smart clients learn group placement.
    fn leader_hint(&self) -> Option<NodeId> {
        None
    }

    /// The node's current view of the voting membership (all voters of the
    /// active configuration, joint sets unioned), if the protocol supports
    /// dynamic membership; the default `None` means it is static. Only the
    /// auditors read it (the cut-over check): a node broadcasts to every
    /// other node of its cluster, whatever its view.
    fn current_members(&self) -> Option<Vec<NodeId>> {
        None
    }

    /// The replica's shard-migration tracker, if the protocol applies
    /// replicated [`crate::migration::MigrationRecord`]s at execute time.
    /// The sharded runtime polls this after each event to drive pending
    /// hand-offs and fold committed ones into its routing table. The
    /// default `None` means the protocol does not participate in shard
    /// migration.
    fn migration(&self) -> Option<&crate::migration::MigrationTracker> {
        None
    }
}

/// A constructor for a homogeneous cluster of replicas — the runtimes use
/// this to instantiate one replica per node id.
pub trait ReplicaFactory {
    /// The replica type this factory builds.
    type R: Replica;
    /// Builds the replica for node `id`.
    fn make(&self, id: NodeId) -> Self::R;
}

impl<R: Replica, F: Fn(NodeId) -> R> ReplicaFactory for F {
    type R = R;
    fn make(&self, id: NodeId) -> R {
        self(id)
    }
}
