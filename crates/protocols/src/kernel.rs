//! The replica layer: everything a decided command touches, written once.
//!
//! An ordering layer — MultiPaxos, Raft, EPaxos — decides which command
//! stands at which log position, or in which dependency order. What follows
//! is the same under all three and lives here. [`State`] owns the store, the
//! migration tracker, the WAL, the position of the last image and both ends
//! of the state-transfer exchange, and its methods are the only way to
//! execute a decided command (the tracker moved, a frozen range rejected,
//! the client answered), to write an image or adopt one (disk first, memory
//! second) and to append to the WAL (a replica that cannot must stop).
//! EPaxos executes and logs through it; it writes no image yet.
//!
//! Executing writes nothing: a decided command is durable as the record of
//! the protocol that carried it (an accept, a log splice), on disk before it
//! was acknowledged, or inside an image. Replay re-derives what it did.
//!
//! The layer never knows a ballot, a term or a quorum: a position is a
//! `u64`, a WAL record is whatever its protocol serializes, an image's
//! [`Meta`] and tail are the protocol's to fill in and to read back. When an
//! image is due is decided here alone ([`State::image_due`]), from the WAL's
//! record count and the last image (DESIGN.md, "Replica layer / ordering
//! layer").

use crate::snapshot::{
    write_image, Donor, Image, Meta, Receiver, Round, SnapshotMsg, Step, TailEntry,
};
use paxi_core::command::{ClientResponse, Command, Handoff};
use paxi_core::group::GroupId;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::membership::CONFIG_KEY;
use paxi_core::migration::{as_migration_record, MigrationAction, MigrationTracker, MIGRATION_KEY};
use paxi_core::obs::{DropCause, Metric, TraceStage};
use paxi_core::store::MultiVersionStore;
use paxi_core::traits::Context;
use paxi_storage::{Storage, StorageError};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Fewest WAL records between two images.
pub const SNAPSHOT_EVERY: u64 = 512;

/// Crash-stop: a replica that cannot write its WAL must stop, for going on
/// would acknowledge state it may later forget.
fn must<T>(written: Result<T, StorageError>) -> T {
    written.expect("replica lost its durable store")
}

/// Reads back what `storage` holds: the image it starts from, if any, and
/// the records after it decoded as `W`, in append order. The storage is not
/// attached yet ([`Wal::attach`]), so replaying them appends nothing. A disk
/// that does not read back what this replica wrote is one it cannot start
/// from.
pub fn recover<W: DeserializeOwned>(storage: &mut dyn Storage) -> (Option<Image>, Vec<W>) {
    let rec = storage.recover().expect("storage must recover");
    let image = |b: Vec<u8>| Image::decode(&b).expect("a snapshot must be an image");
    let record = |b: Vec<u8>| paxi_codec::from_bytes(&b).expect("a wal record must decode");
    let records = rec.records.into_iter().map(record).collect();
    (rec.snapshot.map(image), records)
}

/// A replica's write-ahead log, if it has one: the one place a record is
/// appended, and the one place a failing disk stops the replica.
#[derive(Default)]
pub struct Wal {
    disk: Option<Box<dyn Storage>>,
    /// Records appended since the last image (after a recovery: replayed).
    records: u64,
}

impl Wal {
    /// Whether there is a disk. A record that owns a deep copy of what it
    /// logs is built only when there is.
    pub fn durable(&self) -> bool {
        self.disk.is_some()
    }

    /// Appends `rec`, if there is a disk, and says whether it did. Called
    /// before the message that acknowledges what the record witnesses.
    pub fn persist<T: Serialize>(&mut self, rec: &T) -> bool {
        let Some(disk) = &mut self.disk else {
            return false;
        };
        let bytes = paxi_codec::to_bytes(rec).expect("a wal record must encode");
        must(disk.append(&bytes));
        self.records += 1;
        true
    }

    /// The time-driven sync check of a batching fsync policy.
    pub fn tick(&mut self) {
        if let Some(disk) = &mut self.disk {
            must(disk.tick());
        }
    }

    /// Appends go to `storage` from here on. The `replayed` records count
    /// toward the next image, or a replica that keeps crashing would grow
    /// its WAL without bound.
    pub fn attach(&mut self, storage: Box<dyn Storage>, replayed: usize) {
        (self.disk, self.records) = (Some(storage), replayed as u64);
    }
}

/// The replicated state of one replica and what makes it durable and
/// transferable. The fields are private: a protocol cannot move the tracker
/// but by executing a decided command, move the store before the image is on
/// disk, or append without the crash-stop check.
#[derive(Default)]
pub struct State {
    store: MultiVersionStore,
    /// Shard-migration state machine, driven by replicated records at
    /// execute time. Inert (no group identity) outside sharded deployments.
    migration: MigrationTracker,
    wal: Wal,
    /// Images on their way to replicas that fell behind.
    sending: Donor,
    /// The image this replica is being sent.
    receiving: Receiver,
    /// [`Meta::base`] of the last image written or adopted, and how many
    /// entries its tail carried.
    image: (u64, u64),
}

impl State {
    /// The state machine.
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// The migration tracker.
    pub fn migration(&self) -> &MigrationTracker {
        &self.migration
    }

    /// Tells the replica which consensus group it serves in a sharded
    /// deployment, arming the migration tracker. Unsharded deployments never
    /// call this; the tracker then ignores every record and the replica
    /// behaves exactly as before shard migration existed.
    pub fn set_group(&mut self, group: GroupId) {
        self.migration.set_group(group);
    }

    /// The WAL, for the protocol's own records.
    pub fn wal(&mut self) -> &mut Wal {
        &mut self.wal
    }

    /// Executes a decided command and, if `answer` (this replica leads),
    /// replies to its client.
    ///
    /// * A migration record mutates the tracker — here, at execute time, so
    ///   that re-executing the recovered log reconstructs freezes, installs
    ///   and cut-overs exactly.
    /// * A config command acts when it is accepted or appended, not here; it
    ///   never touches the store, but its client is still answered.
    /// * A data command on a range this group froze or handed off is
    ///   rejected, deterministically on every replica, instead of executed:
    ///   that is what pins the frozen range's contents. The client retries
    ///   (freeze window) or follows the epoch-tagged hand-off.
    pub fn execute<M>(
        &mut self,
        cmd: &Command,
        req: Option<RequestId>,
        answer: bool,
        ctx: &mut dyn Context<M>,
    ) {
        let req = req.filter(|_| answer);
        let value = if cmd.key == MIGRATION_KEY {
            if let Some(rec) = as_migration_record(cmd) {
                match self.migration.apply(&rec) {
                    MigrationAction::Install(range) => self.store.install_range(range),
                    MigrationAction::DropRange(r) => self.store.remove_range(r.lo, r.hi),
                    MigrationAction::None => {}
                }
            }
            None
        } else if cmd.key == CONFIG_KEY {
            None
        } else if let Some(rej) = self.migration.rejects(cmd.key) {
            if let Some(id) = req {
                ctx.count(Metric::Redirects, 1);
                let (lo, hi) = (rej.spec.range.lo, rej.spec.range.hi);
                let (group, epoch) = (rej.spec.to, rej.spec.epoch);
                let handoff = Handoff {
                    lo,
                    hi,
                    group,
                    epoch,
                };
                ctx.reply(if rej.committed {
                    ClientResponse::handed_off(id, handoff)
                } else {
                    ClientResponse::err(id)
                });
            }
            return;
        } else {
            ctx.count(Metric::Executes, 1);
            if req.is_some() {
                self.store.execute(cmd)
            } else {
                // Nobody to answer: change the state, build no reply value.
                self.store.apply(cmd);
                None
            }
        };
        if let Some(id) = req {
            ctx.trace(TraceStage::Execute, id);
            ctx.reply(ClientResponse::ok(id, value));
        }
    }

    /// Whether to write an image now: never without a WAL to compact,
    /// otherwise once the records appended since the last image (replayed
    /// ones included) reach the log that image was taken at — its base, its
    /// tail and one — and never before [`SNAPSHOT_EVERY`]. An image rewrites
    /// everything it holds, so a fixed cadence costs O(n²) bytes over a run
    /// of n records; one that grows with the image writes O(n) in O(log n)
    /// images, and recovery replays no more records than that image held.
    pub fn image_due(&self) -> bool {
        let (base, tail) = self.image;
        self.wal.durable() && self.wal.records >= SNAPSHOT_EVERY.max(base + tail + 1)
    }

    /// Replaces snapshot and WAL with the image `(meta, tail, the store)`,
    /// a chunk at a time. One install replaces both, so a crash at any
    /// point leaves the old snapshot with the old WAL or the complete new
    /// image — never a truncated WAL awaiting its tail.
    pub fn write_image(&mut self, meta: Meta, tail: Vec<TailEntry>) {
        self.image_to_disk(meta, tail, None);
    }

    /// Puts this replica's state at the image `(meta, tail, store)`: off its
    /// own disk (during recovery: no WAL is attached yet), or at the end of
    /// a state transfer. The WAL takes the image first — the caller has put
    /// its own round into `meta.promised` — and only then do the store and
    /// the tracker move.
    pub fn adopt(&mut self, meta: &Meta, tail: Vec<TailEntry>, store: MultiVersionStore) {
        self.image_to_disk(meta.clone(), tail, Some(&store));
        self.store = store;
        self.migration.adopt(&meta.migration);
    }

    /// `None` is this replica's own store.
    fn image_to_disk(&mut self, meta: Meta, tail: Vec<TailEntry>, of: Option<&MultiVersionStore>) {
        let at = (meta.base, tail.len() as u64);
        if let Some(disk) = &mut self.wal.disk {
            must(write_image(
                disk.as_mut(),
                meta,
                tail,
                of.unwrap_or(&self.store),
            ));
            self.wal.records = 0;
        }
        self.image = at;
    }

    /// One step of the state-transfer exchange with `peer`; `at` is this
    /// replica's own position. Any replica serves its image to one that
    /// asks, and stages the chunks of the image it asked for. A chunk that
    /// cannot be used is counted here; what to send, and the steps that
    /// need the ordering layer, are the caller's.
    pub fn transfer<M>(
        &mut self,
        peer: NodeId,
        msg: SnapshotMsg,
        at: u64,
        ctx: &mut dyn Context<M>,
    ) -> Step {
        let step = match msg {
            SnapshotMsg::Install(chunk) => self.receiving.offer(peer, chunk, at),
            SnapshotMsg::Want { have } if have >= at => Step::IDLE,
            SnapshotMsg::Want { have } => self.sending.on_want(peer, have, &self.store),
            SnapshotMsg::Ack(ack) => self.sending.on_ack(peer, &ack, &self.store),
        };
        if let Step::Answer { dropped: true, .. } = step {
            ctx.count_drop(DropCause::BadChunk, 1);
        }
        step
    }

    /// Takes an image `(meta, tail, the store as it is now)` for `to`, in
    /// `round`, and returns its first chunk.
    pub fn begin_transfer(
        &mut self,
        to: NodeId,
        round: Round,
        meta: Meta,
        tail: Vec<TailEntry>,
    ) -> SnapshotMsg {
        SnapshotMsg::Install(self.sending.begin(to, round, meta, tail, &self.store))
    }

    /// Drops every transfer this side is sending (it lost the standing to).
    pub fn stop_sending(&mut self) {
        self.sending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mig_spec, probe};
    use paxi_core::command::{Key, Op};
    use paxi_core::id::{ClientId, NodeId};
    use paxi_core::membership::{membership_command, Membership};
    use paxi_core::migration::{
        migration_command, CommitHalf, KeyRange, MigrationRecord, MigrationSpec, TrackerState,
    };
    use paxi_storage::{FsyncPolicy, MemHub, Recovery};
    use serde::Deserialize;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    impl State {
        /// Whether nothing is being sent or staged.
        pub(crate) fn transfers_idle(&self) -> bool {
            self.sending.is_idle() && !self.receiving.staging()
        }

        /// [`Meta::base`] of the last image written or adopted, and how many
        /// entries its tail carried; `(0, 0)` before the first.
        pub(crate) fn image(&self) -> (u64, u64) {
            self.image
        }
    }

    impl Wal {
        /// Records appended since the last image.
        pub(crate) fn records(&self) -> u64 {
            self.records
        }

        /// A clean stop: everything appended is on the disk.
        pub(crate) fn sync(&mut self) {
            must(self.disk.as_mut().expect("a durable replica").sync());
        }
    }

    /// A disk that takes nothing.
    struct Broken;

    impl Storage for Broken {
        fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
            Err(StorageError::RecordTooLarge(payload.len()))
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            Ok(())
        }
        fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
            Err(StorageError::RecordTooLarge(snapshot.len()))
        }
        fn recover(&mut self) -> Result<Recovery, StorageError> {
            Ok(Recovery::default())
        }
        fn policy(&self) -> FsyncPolicy {
            FsyncPolicy::Always
        }
    }

    /// Group 0's state, writing to `disk`.
    fn on_disk(disk: impl Storage + 'static) -> State {
        let mut state = State::default();
        state.set_group(mig_spec().from);
        state.wal().attach(Box::new(disk), 0);
        state
    }

    /// Whether `f` stopped the replica.
    fn crash_stops(f: impl FnOnce()) -> bool {
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    fn from_client(seq: u64) -> Option<RequestId> {
        Some(RequestId::new(ClientId(1), seq))
    }

    #[test]
    fn a_frozen_range_rejects_then_hands_off() {
        let mut s = State::default();
        s.set_group(mig_spec().from);
        let mut ctx = probe::<()>(NodeId::new(0, 0));
        let spec = mig_spec();
        let half = CommitHalf::Source;
        let script = [
            Command::put(12, vec![7]),
            migration_command(&MigrationRecord::Start(spec)),
            Command::put(12, vec![9]), // frozen: rejected, to be retried
            Command::put(3, vec![1]),  // outside the range: untouched
            migration_command(&MigrationRecord::Commit { spec, half }),
            Command::put(12, vec![9]), // handed off: rejected, with where to
        ];
        for (at, cmd) in script.iter().enumerate() {
            if at == 4 {
                // What the freeze pinned is still there to be streamed.
                assert_eq!(s.store().get(12), Some(&[7][..]));
            }
            s.execute(cmd, from_client(at as u64), true, &mut ctx);
        }
        let ok: Vec<bool> = ctx.replies.iter().map(|r| r.ok).collect();
        assert_eq!(ok, [true, true, false, true, true, false]);
        assert!(
            ctx.replies[2].handoff.is_none(),
            "the freeze window retries"
        );
        let to = ctx.replies[5].handoff.expect("the hand-off says where");
        assert_eq!((to.group, to.epoch, to.lo, to.hi), (spec.to, 1, 10, 20));
        assert_eq!(s.store().get(12), None, "the committed hand-off drops it");
        assert_eq!((s.store().executed(), s.migration().epoch()), (2, 1));
        // A replica that does not answer rejects the same commands.
        let mut quiet = State::default();
        quiet.set_group(spec.from);
        for (at, cmd) in script.iter().enumerate() {
            quiet.execute(cmd, from_client(at as u64), false, &mut ctx);
        }
        assert_eq!(quiet.store().dump(), s.store().dump());
        assert_eq!(ctx.replies.len(), 6);
    }

    /// What a decided command did is re-derived from the record that carried
    /// it: executing one moves the tracker and the store and logs nothing.
    #[test]
    fn executing_a_decided_command_writes_nothing_to_the_wal() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut ctx = probe::<()>(NodeId::new(0, 1));
        let (out, half) = (mig_spec(), CommitHalf::Source);
        // Hand-off 2 brings keys [30, 40), key 35 among them, into group 0.
        let inbound = MigrationSpec {
            id: 2,
            from: out.to,
            to: out.from,
            range: KeyRange::new(30, 40),
            epoch: 2,
        };
        let mut range = MultiVersionStore::new();
        range.execute(&Command::put(35, vec![5]));
        let state = range.encode_range(30, 40);
        let members = vec![NodeId::new(0, 1)];
        let script = [
            Command::put(12, vec![7]),
            migration_command(&MigrationRecord::Start(out)),
            migration_command(&MigrationRecord::Install {
                spec: inbound,
                state,
            }),
            migration_command(&MigrationRecord::Commit { spec: out, half }),
            membership_command(&Membership::Stable { epoch: 1, members }),
            Command::put(3, vec![1]),
        ];
        let mut s = on_disk(hub.open(0));
        for cmd in &script {
            s.execute(cmd, None, false, &mut ctx);
        }
        let tracker = s.migration();
        assert!(tracker.rejects(12).is_some() && tracker.done(1) && tracker.installed(2));
        assert_eq!(s.store().get(12), None, "handed off");
        assert_eq!(s.store().get(35), Some(&[5][..]), "installed");
        assert_eq!(s.store().get(3), Some(&[1][..]));
        assert!(hub.open(0).recover().unwrap().records.is_empty());
        assert_eq!(s.wal().records(), 0);
    }

    #[test]
    fn an_image_is_adopted_disk_first_and_not_at_all_if_the_disk_fails() {
        let mut ctx = probe::<()>(NodeId::new(0, 0));
        let mut donor = State::default();
        donor.set_group(mig_spec().from);
        for at in 0..5u64 {
            donor.execute(&Command::put(at, vec![at as u8]), None, false, &mut ctx);
        }
        let freeze = migration_command(&MigrationRecord::Start(mig_spec()));
        donor.execute(&freeze, None, false, &mut ctx);
        let meta = Meta {
            base: 6,
            base_term: 0,
            promised: Round::new(3, None),
            configs: Vec::new(),
            migration: donor.migration().state(),
            executed: 0,
        };
        let tail = vec![(6, Round::new(3, None), vec![(Command::get(1), None)])];

        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = on_disk(hub.open(0));
        s.wal().persist(&0u8);
        s.adopt(&meta, tail.clone(), donor.store().clone());
        let disk = hub.open(0).recover().unwrap();
        let image = Image::decode(&disk.snapshot.expect("the image")).unwrap();
        assert!(disk.records.is_empty(), "the image replaced the WAL");
        assert_eq!((image.meta.base, image.tail), (6, tail.clone()));
        assert_eq!(image.store.dump(), donor.store().dump());
        assert_eq!(s.store().dump(), donor.store().dump());
        assert!(s.migration().rejects(12).is_some());
        assert_eq!((s.image(), s.wal().records()), ((6, 1), 0));

        let mut s = on_disk(Broken);
        assert!(crash_stops(|| s.adopt(&meta, tail, donor.store().clone())));
        assert_eq!((s.store().executed(), s.image()), (0, (0, 0)));
        assert!(s.migration().rejects(12).is_none());
    }

    /// An image's meta at `base`, with nothing else in it.
    fn meta_at(base: u64) -> Meta {
        Meta {
            base,
            base_term: 0,
            promised: Round::default(),
            configs: Vec::new(),
            migration: TrackerState::default(),
            executed: 0,
        }
    }

    /// Appends `n` records, each of which the WAL takes.
    fn append(s: &mut State, n: u64) {
        for _ in 0..n {
            assert!(s.wal().persist(&1u8));
        }
    }

    #[test]
    fn an_image_is_due_once_the_records_since_the_last_reach_the_log_it_was_taken_at() {
        let mut s = State::default();
        assert!(!s.wal().persist(&1u8) && s.wal().records() == 0);
        assert!(!s.image_due(), "never without a WAL");
        // No image yet: due at exactly SNAPSHOT_EVERY records, replayed
        // ones included.
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        s.wal().attach(Box::new(hub.open(0)), 3);
        append(&mut s, SNAPSHOT_EVERY - 4);
        assert!(!s.image_due());
        append(&mut s, 1);
        assert!(s.image_due());
        // After an image with base b and t tail entries: not before b + t + 1.
        let (b, t) = (2 * SNAPSHOT_EVERY, 5);
        let tail = (b..b + t).map(|i| (i, Round::default(), Vec::new()));
        s.adopt(&meta_at(b), tail.collect(), MultiVersionStore::new());
        assert_eq!((s.image(), s.wal().records()), ((b, t), 0));
        append(&mut s, b + t);
        assert!(!s.image_due());
        append(&mut s, 1);
        assert!(s.image_due());
    }

    /// A chunk that cannot be used is counted once, in the kernel; a usable
    /// step counts nothing.
    #[test]
    fn an_unusable_chunk_is_counted_as_a_bad_chunk_once() {
        let mut ctx = probe::<()>(NodeId::new(0, 1));
        let (donor, peer) = (NodeId::new(0, 0), NodeId::new(0, 1));
        let mut sender = State::default();
        sender.execute(&Command::put(1, vec![1]), None, false, &mut ctx);
        let SnapshotMsg::Install(mut chunk) =
            sender.begin_transfer(peer, Round::default(), meta_at(1), Vec::new())
        else {
            panic!("a transfer begins with a chunk");
        };
        chunk.body.truncate(chunk.body.len() / 2);
        let mut s = State::default();
        let step = s.transfer(donor, SnapshotMsg::Install(chunk), 0, &mut ctx);
        assert!(
            matches!(step, Step::Answer { dropped: true, .. }),
            "{step:?}"
        );
        assert_eq!(ctx.drops, [(DropCause::BadChunk, 1)]);
        // The chunk in flight, asked for again.
        let again = sender.transfer(peer, SnapshotMsg::Want { have: 0 }, 1, &mut ctx);
        let repeat = matches!(
            again,
            Step::Answer {
                msg: Some(_),
                dropped: false
            }
        );
        assert!(repeat, "{again:?}");
        assert_eq!(ctx.drops.len(), 1);
    }

    #[test]
    fn a_replica_that_answers_and_one_that_does_not_reach_the_same_state() {
        let (mut leader, mut follower) = (State::default(), State::default());
        let mut lctx = probe::<()>(NodeId::new(0, 0));
        let mut fctx = probe::<()>(NodeId::new(0, 1));
        for i in 0..60u64 {
            let key = i % 4;
            let cmd = match i % 5 {
                0 => Command::get(key),
                1 => Command::delete(key),
                _ => Command::put(key, vec![i as u8; (i % 30) as usize]),
            };
            // Every third command has no client to answer (a no-op filler, a
            // command recovered from a peer's log).
            let req = (i % 3 != 0).then(|| RequestId::new(ClientId(1), i));
            leader.execute(&cmd, req, true, &mut lctx);
            follower.execute(&cmd, req, false, &mut fctx);
        }
        let (leader, follower) = (leader.store(), follower.store());
        assert_eq!(leader.dump(), follower.dump(), "chains and executed");
        assert_eq!(leader.executed(), 60);
        assert_eq!(lctx.replies.len(), 40);
        assert!(fctx.replies.is_empty());
        // The answers are the values a client must see: i = 7 overwrote what
        // i = 3 put under key 3.
        let seventh = lctx.replies.iter().find(|r| r.id.seq == 7).unwrap();
        assert_eq!(seventh.value, Some(vec![3; 3]));
    }

    #[derive(Serialize, Deserialize)]
    enum DerivedOp {
        Get,
        Put(Vec<u8>),
        Delete,
    }

    #[derive(Serialize, Deserialize)]
    struct DerivedCommand {
        key: Key,
        op: DerivedOp,
    }

    #[derive(Serialize, Deserialize)]
    struct DerivedResponse {
        id: RequestId,
        value: Option<Vec<u8>>,
        ok: bool,
        redirect: Option<NodeId>,
        handoff: Option<Handoff>,
    }

    /// `Op` and `ClientResponse` hand their values to serde as byte strings;
    /// what reaches the wire and the WAL is what the derive wrote.
    #[test]
    fn values_sent_as_byte_strings_are_the_derived_bytes() {
        let values = [
            Vec::new(),
            vec![0],
            vec![7; 16],
            (0..=255).collect(),
            vec![1; 70_000],
        ];
        let mut ops = vec![(Op::Get, DerivedOp::Get), (Op::Delete, DerivedOp::Delete)];
        ops.extend(
            values
                .iter()
                .map(|v| (Op::Put(v.clone()), DerivedOp::Put(v.clone()))),
        );
        for (op, derived) in ops {
            let cmd = Command { key: 0xABCD, op };
            let want = paxi_codec::to_bytes(&DerivedCommand {
                key: cmd.key,
                op: derived,
            })
            .unwrap();
            assert_eq!(paxi_codec::to_bytes(&cmd).unwrap(), want, "{cmd}");
            assert_eq!(paxi_codec::from_bytes::<Command>(&want).unwrap(), cmd);
            for cut in 0..want.len().min(40) {
                assert!(paxi_codec::from_bytes::<Command>(&want[..cut]).is_err());
            }
        }
        let id = RequestId::new(ClientId(9), 4);
        let handoff = Handoff {
            lo: 1,
            hi: 2,
            group: paxi_core::group::GroupId(3),
            epoch: 4,
        };
        let mut responses = vec![
            ClientResponse::ok(id, None),
            ClientResponse::err(id),
            ClientResponse::redirected(id, NodeId::new(1, 2)),
            ClientResponse::handed_off(id, handoff),
        ];
        responses.extend(
            values
                .iter()
                .map(|v| ClientResponse::ok(id, Some(v.clone()))),
        );
        for r in responses {
            let want = paxi_codec::to_bytes(&DerivedResponse {
                id: r.id,
                value: r.value.clone(),
                ok: r.ok,
                redirect: r.redirect,
                handoff: r.handoff,
            })
            .unwrap();
            assert_eq!(paxi_codec::to_bytes(&r).unwrap(), want, "{r:?}");
            assert_eq!(paxi_codec::from_bytes::<ClientResponse>(&want).unwrap(), r);
        }
    }
}
