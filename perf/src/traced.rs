//! The benchmark's decorators: they time calls into the crates' public
//! traits from outside, changing nothing about what the calls do.
//!
//! * [`Traced`] wraps a [`Replica`]: one span per `on_request` /
//!   `on_message` / `on_timer`, keyed by `R::msg_kind`.
//! * [`TracedCtx`] is the [`Context`] the inner replica sees: `send`,
//!   `broadcast`, `multicast`, `reply` and `forward` become child spans, and
//!   outgoing messages are counted by kind and sampled for codec replay.
//! * [`TimedStorage`] wraps a [`Storage`]: `append` and `sync` become child
//!   spans of whatever handler called them.

use crate::trace::{lock, Clock, Shared};
use paxi_core::command::{ClientRequest, ClientResponse};
use paxi_core::id::{NodeId, RequestId};
use paxi_core::obs::{DropCause, Metric, TraceStage};
use paxi_core::store::MultiVersionStore;
use paxi_core::time::Nanos;
use paxi_core::traits::{Context, Replica};
use paxi_core::MigrationTracker;
use paxi_storage::{FsyncPolicy, Recovery, Storage, StorageError};
use std::sync::Arc;

/// A replica with a span around every handler call.
pub struct Traced<R: Replica> {
    inner: R,
    clock: Arc<Clock>,
    rec: Shared<R::Msg>,
    /// Peers a broadcast reaches (cluster size minus one).
    fanout: u64,
}

impl<R: Replica> Traced<R> {
    pub fn new(inner: R, clock: Arc<Clock>, rec: Shared<R::Msg>, fanout: u64) -> Self {
        Traced {
            inner,
            clock,
            rec,
            fanout,
        }
    }

    /// Runs one handler of the inner replica inside a span.
    fn handle(
        &mut self,
        name: &'static str,
        kind: &'static str,
        req: Option<RequestId>,
        ctx: &mut dyn Context<R::Msg>,
        handler: impl FnOnce(&mut R, &mut dyn Context<R::Msg>),
    ) {
        if !self.clock.recording() {
            return handler(&mut self.inner, ctx);
        }
        lock(&self.rec).begin(name, kind, self.clock.now_ns(), req);
        let mut tctx = TracedCtx::<R> {
            inner: ctx,
            clock: &self.clock,
            rec: &self.rec,
            fanout: self.fanout,
        };
        handler(&mut self.inner, &mut tctx);
        lock(&self.rec).end(self.clock.now_ns());
    }
}

impl<R: Replica> Replica for Traced<R> {
    type Msg = R::Msg;

    fn on_start(&mut self, ctx: &mut dyn Context<R::Msg>) {
        self.handle("on_start", "", None, ctx, |r, c| r.on_start(c));
    }
    fn on_restart(&mut self, ctx: &mut dyn Context<R::Msg>) {
        self.handle("on_restart", "", None, ctx, |r, c| r.on_restart(c));
    }
    fn on_recover(&mut self, ctx: &mut dyn Context<R::Msg>) {
        self.handle("on_recover", "", None, ctx, |r, c| r.on_recover(c));
    }
    fn on_message(&mut self, from: NodeId, msg: R::Msg, ctx: &mut dyn Context<R::Msg>) {
        let kind = R::msg_kind(&msg);
        self.handle("on_message", kind, None, ctx, |r, c| {
            r.on_message(from, msg, c)
        });
    }
    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<R::Msg>) {
        let id = req.id;
        self.handle("on_request", "", Some(id), ctx, |r, c| r.on_request(req, c));
    }
    fn on_timer(&mut self, kind: u64, token: u64, ctx: &mut dyn Context<R::Msg>) {
        self.handle("on_timer", "", None, ctx, |r, c| r.on_timer(kind, token, c));
    }

    // Everything else passes straight through.
    fn attach_storage(&mut self, storage: Box<dyn Storage>) {
        self.inner.attach_storage(storage);
    }
    fn sync_storage(&mut self) {
        self.inner.sync_storage();
    }
    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
    fn msg_cmds(msg: &R::Msg) -> u64 {
        R::msg_cmds(msg)
    }
    fn msg_kind(msg: &R::Msg) -> &'static str {
        R::msg_kind(msg)
    }
    fn store(&self) -> Option<&MultiVersionStore> {
        self.inner.store()
    }
    fn leader_hint(&self) -> Option<NodeId> {
        self.inner.leader_hint()
    }
    fn current_members(&self) -> Option<Vec<NodeId>> {
        self.inner.current_members()
    }
    fn migration(&self) -> Option<&MigrationTracker> {
        self.inner.migration()
    }
}

/// The context a traced replica's handlers see.
struct TracedCtx<'a, R: Replica> {
    inner: &'a mut dyn Context<R::Msg>,
    clock: &'a Clock,
    rec: &'a Shared<R::Msg>,
    fanout: u64,
}

impl<R: Replica> TracedCtx<'_, R> {
    /// Counts (and maybe samples) an outgoing message, then times `deliver`.
    fn outgoing(
        &mut self,
        name: &'static str,
        recipients: u64,
        msg: R::Msg,
        deliver: impl FnOnce(&mut dyn Context<R::Msg>, R::Msg),
    ) {
        let kind = R::msg_kind(&msg);
        {
            let mut rec = lock(self.rec);
            if rec.count_sent(kind, recipients, R::msg_cmds(&msg)) {
                rec.samples.push(msg.clone());
            }
        }
        let start = self.clock.now_ns();
        deliver(self.inner, msg);
        lock(self.rec).leaf(name, kind, start, self.clock.now_ns(), None);
    }
}

impl<R: Replica> Context<R::Msg> for TracedCtx<'_, R> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn send(&mut self, to: NodeId, msg: R::Msg) {
        self.outgoing("send", 1, msg, |c, m| c.send(to, m));
    }
    fn broadcast(&mut self, msg: R::Msg) {
        self.outgoing("send", self.fanout, msg, |c, m| c.broadcast(m));
    }
    fn multicast(&mut self, to: &[NodeId], msg: R::Msg) {
        self.outgoing("send", to.len() as u64, msg, |c, m| c.multicast(to, m));
    }
    fn set_timer(&mut self, after: Nanos, kind: u64) -> u64 {
        self.inner.set_timer(after, kind)
    }
    fn reply(&mut self, resp: ClientResponse) {
        let (id, ok) = (resp.id, resp.ok);
        let start = self.clock.now_ns();
        self.inner.reply(resp);
        let mut rec = lock(self.rec);
        rec.ok_replies += ok as u64;
        rec.leaf("reply", "", start, self.clock.now_ns(), Some(id));
    }
    fn forward(&mut self, to: NodeId, req: ClientRequest) {
        let id = req.id;
        let start = self.clock.now_ns();
        self.inner.forward(to, req);
        lock(self.rec).leaf("forward", "", start, self.clock.now_ns(), Some(id));
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
    fn trace(&mut self, stage: TraceStage, req: RequestId) {
        self.inner.trace(stage, req);
    }
}

/// A store that syncs every append, with a span around every write-path
/// call.
///
/// The wrapped store must have been opened with [`FsyncPolicy::Never`]; the
/// decorator syncs after every append itself and reports
/// [`FsyncPolicy::Always`]. That is the same I/O an `Always` store does
/// inside `append` (buffer the record, write it, `fdatasync`), made visible
/// as two spans: `append` (record encoding and buffering) and `sync` (write
/// + flush to the device).
pub struct TimedStorage<M> {
    inner: Box<dyn Storage>,
    clock: Arc<Clock>,
    rec: Shared<M>,
}

impl<M> TimedStorage<M> {
    pub fn new(inner: Box<dyn Storage>, clock: Arc<Clock>, rec: Shared<M>) -> Self {
        assert_eq!(
            inner.policy(),
            FsyncPolicy::Never,
            "TimedStorage does the syncing itself"
        );
        TimedStorage { inner, clock, rec }
    }

    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce(&mut dyn Storage) -> T) -> T {
        if !self.clock.recording() {
            return call(self.inner.as_mut());
        }
        let start = self.clock.now_ns();
        let out = call(self.inner.as_mut());
        lock(&self.rec).leaf(name, "", start, self.clock.now_ns(), None);
        out
    }
}

impl<M: Send> Storage for TimedStorage<M> {
    fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        self.timed("append", |s| s.append(payload))?;
        if self.clock.recording() {
            lock(&self.rec).appended_bytes += payload.len() as u64;
        }
        self.timed("sync", |s| s.sync())
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.timed("sync", |s| s.sync())
    }
    fn tick(&mut self) -> Result<(), StorageError> {
        // Every append is already synced, and the runtime ticks an idle
        // node a thousand times a second: not worth a span each.
        self.inner.tick()
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.timed("install_snapshot", |s| s.install_snapshot(snapshot))
    }
    fn recover(&mut self) -> Result<Recovery, StorageError> {
        self.timed("recover", |s| s.recover())
    }
    fn policy(&self) -> FsyncPolicy {
        FsyncPolicy::Always
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Kit;
    use paxi_core::config::ClusterConfig;
    use paxi_core::store::StoreDump;
    use paxi_protocols::paxos::{MultiPaxos, PaxosConfig};
    use paxi_sim::client::uniform_workload;
    use paxi_sim::{ClientSetup, SimConfig, Simulator};
    use paxi_storage::MemHub;

    /// A seeded, durable five-node simulation; with `kit`, every replica is
    /// decorated and its store is a `TimedStorage` over a never-syncing disk.
    fn simulate(
        kit: Option<&Arc<Kit<paxi_protocols::paxos::PaxosMsg>>>,
    ) -> (u64, u64, Vec<StoreDump>) {
        let cluster = ClusterConfig::lan(5);
        let cfg = SimConfig {
            seed: 7,
            warmup: Nanos::millis(50),
            measure: Nanos::millis(300),
            drain: true,
            ..SimConfig::default()
        };
        let clients = ClientSetup::closed_per_zone(&cluster, 8);
        let policy = if kit.is_some() {
            FsyncPolicy::Never
        } else {
            FsyncPolicy::Always
        };
        let hub: MemHub<NodeId> = MemHub::new(policy);
        let (c, disks) = (cluster.clone(), hub.clone());
        let bare = move |id, wrap: &dyn Fn(Box<dyn Storage>) -> Box<dyn Storage>| {
            let mut r = MultiPaxos::new(id, c.clone(), PaxosConfig::batched(4));
            r.attach_storage(wrap(Box::new(disks.open(id))));
            r
        };
        fn finish<R: Replica>(
            mut sim: Simulator<R>,
            hub: MemHub<NodeId>,
        ) -> (u64, u64, Vec<StoreDump>) {
            sim.set_storage(hub);
            let report = sim.run();
            let stores = sim
                .replicas()
                .iter()
                .map(|r| r.store().expect("paxos has a store").dump());
            (report.completed, report.events_processed, stores.collect())
        }
        match kit {
            None => {
                let factory = move |id| bare(id, &|s| s);
                finish(
                    Simulator::new(cfg, cluster, factory, uniform_workload(100), clients),
                    hub,
                )
            }
            Some(kit) => {
                let kit = Arc::clone(kit);
                let factory = move |id| {
                    let rec = kit.recorder(id);
                    let inner = bare(id, &|s| {
                        Box::new(TimedStorage::new(
                            s,
                            Arc::clone(&kit.clock),
                            Arc::clone(&rec),
                        ))
                    });
                    Traced::new(inner, Arc::clone(&kit.clock), rec, 4)
                };
                finish(
                    Simulator::new(cfg, cluster, factory, uniform_workload(100), clients),
                    hub,
                )
            }
        }
    }

    #[test]
    fn decorators_are_transparent_to_a_seeded_simulation() {
        let (completed, events, stores) = simulate(None);
        assert!(completed > 100, "the reference run did work: {completed}");

        let kit = Kit::new(Clock::new());
        kit.clock.set_recording(true);
        assert_eq!(simulate(Some(&kit)), (completed, events, stores.clone()));

        // And what they recorded adds up: every node handled events, the
        // leader answered every completed request (and the warm-up's), every
        // append was followed by one sync, and no self time exceeds its span.
        let nodes = kit.take();
        assert_eq!(nodes.len(), 5);
        let leader = nodes.iter().max_by_key(|r| r.ok_replies).unwrap();
        assert!(leader.ok_replies >= completed);
        for r in &nodes {
            assert!(r.total_of("on_message").count > 0);
            assert_eq!(r.total_of("append").count, r.total_of("sync").count);
            assert!(r.total_of("append").count > 0);
            assert!(r.appended_bytes > 0);
            for (_, t) in &r.totals {
                assert!(t.self_ns <= t.total_ns);
            }
        }
        assert!(leader
            .sent
            .iter()
            .any(|(kind, c)| *kind == "p2a" && c[1] >= c[0] && c[2] >= c[0]));

        // With recording off the decorators pass everything through untouched.
        let idle = Kit::new(Clock::new());
        assert_eq!(simulate(Some(&idle)), (completed, events, stores));
        assert!(idle
            .take()
            .iter()
            .all(|r| r.totals.is_empty() && r.spans.is_empty()));
    }
}
