//! State transfer: one snapshot image, produced in chunks, installed by the
//! disk and by the wire.
//!
//! A replica's log is its in-flight window, so whatever lies below the
//! window exists only as state: the store, the configurations and the
//! migration tracker as of some log position, plus the accepted entries
//! above it. That is the [`Image`]. It is written the same way wherever it
//! goes — a cursor reads the live store through a [`StoreCut`] and encodes
//! one bounded part at a time — and consumed two ways:
//!
//! * the disk takes the parts through
//!   [`Storage::install_snapshot_chunks`] ([`write_image`]), which is how a
//!   protocol compacts its WAL, and gives them back concatenated
//!   ([`Image::decode`]) on recovery;
//! * a peer that fell below every window takes them one
//!   [`InstallSnapshot`] at a time, stop-and-wait against its
//!   [`SnapshotAck`]s, and then installs the image through its own WAL
//!   exactly as it would a local snapshot. A `Donor` and a `Receiver` are
//!   the two ends, and every step of either is one [`Step`]; a replica
//!   holds both ends inside `kernel::State`.
//!
//! Nothing here knows a protocol: a position is a `u64`, a term or a ballot
//! is a [`Round`], a log entry is a [`TailEntry`].

use paxi_codec::{from_bytes_prefix, to_writer, CodecError};
use paxi_core::ballot::Ballot;
use paxi_core::command::Command;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::membership::Membership;
use paxi_core::migration::TrackerState;
use paxi_core::store::{MultiVersionStore, StoreCut};
use paxi_storage::{ChunkSource, Storage, StorageError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Encoded size a part is closed at. A part exceeds it only when a single
/// command or value is itself larger.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// The commands decided in one slot or log entry, in execution order, each
/// with the client request to answer.
pub type SlotCmds = Vec<(Command, Option<RequestId>)>;

/// A Raft term (`by` is who was voted for in it, where that matters) or a
/// Paxos ballot (`by` is its owner). Ordered like both: number first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Round {
    /// Term, or ballot counter.
    pub n: u64,
    /// Candidate voted for, or ballot owner.
    pub by: Option<NodeId>,
}

impl From<Ballot> for Round {
    fn from(b: Ballot) -> Self {
        Round {
            n: u64::from(b.counter),
            by: Some(b.id),
        }
    }
}

impl Round {
    /// Round `n`, voted for or owned by `by`.
    pub fn new(n: u64, by: Option<NodeId>) -> Self {
        Round { n, by }
    }

    /// The ballot this round stands for, if it is one.
    pub fn ballot(self) -> Option<Ballot> {
        Some(Ballot {
            counter: u32::try_from(self.n).ok()?,
            id: self.by?,
        })
    }
}

/// One accepted log entry above the image's base: `(index, round it was
/// accepted in, commands)`.
pub type TailEntry = (u64, Round, SlotCmds);

/// Everything in an image but the store and the tail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Meta {
    /// The log position the store reflects, in the protocol's own
    /// convention (Raft: the last applied index; MultiPaxos: the first
    /// slot not executed).
    pub base: u64,
    /// Term of the entry at `base` (Raft; 0 elsewhere).
    pub base_term: u64,
    /// The highest round the writing replica had promised: its term and
    /// vote, or its ballot. An image taken off the wire is re-written with
    /// the receiver's own before it reaches the receiver's disk.
    pub promised: Round,
    /// The configurations in force at `base`, keyed as the protocol keys
    /// them (Raft: the log index adopted from; MultiPaxos: the slot each
    /// takes effect at).
    pub configs: Vec<(u64, Membership)>,
    /// The migration tracker's replicated state at `base`.
    pub migration: TrackerState,
    /// [`MultiVersionStore::executed`] at `base`. The writer fills it in
    /// from the store it reads; what the caller passes is overwritten.
    pub executed: u64,
}

/// A decoded image.
#[derive(Debug)]
pub struct Image {
    /// Position, rounds, configurations, tracker.
    pub meta: Meta,
    /// Accepted entries above the base.
    pub tail: Vec<TailEntry>,
    /// The state machine at the base.
    pub store: MultiVersionStore,
}

// One chunk of an image is a part: its `u32` tag, then its payload as the
// codec encodes it. Parts are self-delimiting, so an image is their
// concatenation, in this order.
/// [`Meta`].
const META: u32 = 0;
/// `Vec<TailEntry>`; any number of these.
const TAIL: u32 = 1;
/// Stretches of version chains in key order, as
/// [`MultiVersionStore::encode_chains`] writes them — each version's digest,
/// each key's value at the cut after its last — a long chain continuing in
/// the next part. Any number of these.
const VERSIONS: u32 = 2;
/// `(parts: u32, versions: u64)`: totals of the image, this part included.
const END: u32 = 3;

/// Why bytes were not an image.
#[derive(Debug)]
pub enum ImageError {
    /// A part did not decode.
    Codec(CodecError),
    /// The parts decoded but do not make an image: out of order, totals
    /// that do not add up, a chain that does not continue.
    Malformed(&'static str),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Codec(e) => write!(f, "snapshot part does not decode: {e}"),
            ImageError::Malformed(why) => write!(f, "snapshot image is malformed: {why}"),
        }
    }
}

impl From<CodecError> for ImageError {
    fn from(e: CodecError) -> Self {
        ImageError::Codec(e)
    }
}

fn put<T: Serialize>(buf: &mut Vec<u8>, v: &T) {
    to_writer(buf, v).expect("snapshot parts hold nothing the codec refuses");
}

fn patch_len(buf: &mut [u8], at: usize, len: u32) {
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Meta,
    Tail,
    Versions,
    End,
    Done,
}

/// Where the writing of one image has got to. It owns what is small (meta,
/// tail, the cut) and borrows the store only while a part is encoded, so a
/// transfer can span many handler invocations of a replica that keeps
/// executing.
#[derive(Debug)]
struct ImageCursor {
    meta: Meta,
    tail: Vec<TailEntry>,
    cut: StoreCut,
    phase: Phase,
    tail_at: usize,
    parts: u32,
    versions: u64,
}

impl ImageCursor {
    /// Starts an image of `store` as it is now.
    fn new(mut meta: Meta, tail: Vec<TailEntry>, store: &MultiVersionStore) -> Self {
        let cut = store.cut();
        meta.executed = cut.executed;
        ImageCursor {
            meta,
            tail,
            cut,
            phase: Phase::Meta,
            tail_at: 0,
            parts: 0,
            versions: 0,
        }
    }

    /// Whether `store` still holds the image this cursor is reading.
    fn holds(&self, store: &MultiVersionStore) -> bool {
        store.holds(&self.cut)
    }

    /// Whether the last part has been written.
    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Encodes the next part into `buf` (emptied first). `false` once the
    /// image is complete.
    fn next_part(&mut self, store: &MultiVersionStore, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        if self.phase == Phase::Tail && self.tail_at == self.tail.len() {
            self.phase = Phase::Versions;
        }
        if self.phase == Phase::Versions && self.cut.is_read() {
            self.phase = Phase::End;
        }
        match self.phase {
            Phase::Meta => {
                put(buf, &META);
                put(buf, &self.meta);
                self.phase = Phase::Tail;
            }
            Phase::Tail => self.tail_part(buf),
            Phase::Versions => {
                put(buf, &VERSIONS);
                self.versions += store.encode_chains(&mut self.cut, CHUNK_BYTES, buf);
            }
            Phase::End => {
                put(buf, &END);
                put(buf, &(self.parts + 1));
                put(buf, &self.versions);
                self.phase = Phase::Done;
            }
            Phase::Done => return false,
        }
        self.parts += 1;
        true
    }

    fn tail_part(&mut self, buf: &mut Vec<u8>) {
        put(buf, &TAIL);
        let count_at = buf.len();
        put(buf, &0u32);
        let mut count = 0;
        while let Some(entry) = self.tail.get(self.tail_at) {
            let mark = buf.len();
            put(buf, entry);
            if buf.len() > CHUNK_BYTES && count > 0 {
                buf.truncate(mark);
                break;
            }
            count += 1;
            self.tail_at += 1;
        }
        patch_len(buf, count_at, count);
    }
}

/// The chunk producer: a cursor over a borrowed store, encoding
/// every part into the one buffer it owns.
pub struct ImageWriter<'a> {
    cursor: ImageCursor,
    store: &'a MultiVersionStore,
    buf: Vec<u8>,
    /// The longest chunk handed out so far.
    pub largest: usize,
}

impl<'a> ImageWriter<'a> {
    /// A writer for the image `(meta, tail, store as it is now)`.
    pub fn new(meta: Meta, tail: Vec<TailEntry>, store: &'a MultiVersionStore) -> Self {
        ImageWriter {
            cursor: ImageCursor::new(meta, tail, store),
            store,
            buf: Vec::new(),
            largest: 0,
        }
    }
}

impl ChunkSource for ImageWriter<'_> {
    fn next_chunk(&mut self) -> Option<&[u8]> {
        if !self.cursor.next_part(self.store, &mut self.buf) {
            return None;
        }
        self.largest = self.largest.max(self.buf.len());
        Some(&self.buf)
    }
}

/// Replaces `wal`'s snapshot and log with the image `(meta, tail, store)`,
/// chunk by chunk.
pub fn write_image(
    wal: &mut dyn Storage,
    meta: Meta,
    tail: Vec<TailEntry>,
    store: &MultiVersionStore,
) -> Result<(), StorageError> {
    wal.install_snapshot_chunks(&mut ImageWriter::new(meta, tail, store))
}

/// Puts an image back together, one part at a time, checking as it goes.
#[derive(Debug, Default)]
struct ImageBuilder {
    meta: Option<Meta>,
    tail: Vec<TailEntry>,
    store: MultiVersionStore,
    parts: u32,
    versions: u64,
    complete: bool,
}

impl ImageBuilder {
    /// Takes the part at the front of `bytes` and says how long it was. An
    /// error leaves the builder unusable.
    fn push(&mut self, bytes: &[u8]) -> Result<usize, ImageError> {
        let (tag, at) = from_bytes_prefix::<u32>(bytes)?;
        let body = &bytes[at..];
        if self.complete {
            return Err(ImageError::Malformed("a part after the end"));
        }
        if self.meta.is_some() == (tag == META) {
            return Err(ImageError::Malformed("meta must come first, once"));
        }
        self.parts += 1;
        let used = match tag {
            META => {
                let (meta, used) = from_bytes_prefix(body)?;
                self.meta = Some(meta);
                used
            }
            TAIL => {
                let (mut entries, used) = from_bytes_prefix(body)?;
                self.tail.append(&mut entries);
                used
            }
            VERSIONS => {
                let mut rest = body;
                let appended = self.store.extend_chains(&mut rest);
                self.versions += appended.ok_or(ImageError::Malformed(
                    "version chains that do not decode, or do not continue",
                ))?;
                body.len() - rest.len()
            }
            END => {
                let (totals, used) = from_bytes_prefix::<(u32, u64)>(body)?;
                if totals != (self.parts, self.versions) {
                    return Err(ImageError::Malformed("totals do not add up"));
                }
                self.complete = true;
                used
            }
            _ => return Err(ImageError::Malformed("unknown part")),
        };
        Ok(at + used)
    }

    fn finish(self) -> Result<Image, ImageError> {
        if !self.store.is_whole() {
            return Err(ImageError::Malformed("a chain without its last value"));
        }
        match self.meta {
            Some(meta) if self.complete => {
                let mut store = self.store;
                store.set_executed(meta.executed);
                Ok(Image {
                    meta,
                    tail: self.tail,
                    store,
                })
            }
            _ => Err(ImageError::Malformed("the image stops short of its end")),
        }
    }
}

impl Image {
    /// Decodes the concatenation of an image's parts — what
    /// [`paxi_storage::Recovery::snapshot`] holds.
    pub fn decode(mut bytes: &[u8]) -> Result<Image, ImageError> {
        let mut builder = ImageBuilder::default();
        while !bytes.is_empty() {
            bytes = &bytes[builder.push(bytes)?..];
        }
        builder.finish()
    }
}

/// One chunk of an image on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstallSnapshot {
    /// The sender's term or ballot when it took the image. With `base` it
    /// names the transfer: a chunk of a greater `(round, base)` supersedes
    /// whatever the receiver has staged, a chunk of a lesser one is stale.
    pub round: Round,
    /// [`Meta::base`] of the image.
    pub base: u64,
    /// Position of this chunk in the image, from 0.
    pub index: u32,
    /// Whether this is the image's final chunk.
    pub last: bool,
    /// One encoded part.
    pub body: Vec<u8>,
}

/// The receiver's answer to a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotAck {
    /// The transfer this answers.
    pub round: Round,
    /// The transfer this answers.
    pub base: u64,
    /// The chunk the receiver needs next.
    pub next: u32,
    /// The receiver's state is at `base` or beyond: the image went through
    /// its WAL and is installed, or it never needed it.
    pub installed: bool,
}

/// The state-transfer messages a protocol embeds in its own message type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SnapshotMsg {
    /// "I have executed everything below `have` and cannot go on from my
    /// log: send me your image." Also how a receiver asks again when a
    /// chunk or an ack was lost.
    Want {
        /// The asker's own position.
        have: u64,
    },
    /// One chunk.
    Install(InstallSnapshot),
    /// The answer to one chunk.
    Ack(SnapshotAck),
}

impl SnapshotMsg {
    /// Stable wire-type name, for the per-type message counters.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotMsg::Want { .. } => "snapshot_want",
            SnapshotMsg::Install(_) => "install_snapshot",
            SnapshotMsg::Ack(_) => "snapshot_ack",
        }
    }
}

/// What a replica does next in the exchange, whichever end it is at.
#[derive(Debug)]
pub enum Step {
    /// Send `msg` back, if there is one.
    Answer {
        /// The chunk or ack to send.
        msg: Option<SnapshotMsg>,
        /// The chunk that came in could not be used: count it as
        /// [`paxi_core::obs::DropCause::BadChunk`].
        dropped: bool,
    },
    /// The peer needs an image this side has not begun: take one and send
    /// its first chunk.
    Begin,
    /// The final chunk arrived. Install the image — WAL first — and then
    /// send the ack.
    Install(Image, SnapshotAck),
    /// The peer says its state is at this position or beyond.
    Installed(u64),
}

impl Step {
    /// Nothing to do.
    pub(crate) const IDLE: Step = Step::Answer {
        msg: None,
        dropped: false,
    };

    fn send(chunk: &InstallSnapshot) -> Step {
        let msg = Some(SnapshotMsg::Install(chunk.clone()));
        Step::Answer {
            msg,
            dropped: false,
        }
    }
}

#[derive(Debug)]
struct Transfer {
    cursor: ImageCursor,
    /// The chunk in flight, kept to be repeated.
    sent: InstallSnapshot,
}

/// The sending side: one transfer in flight per receiver, one chunk in
/// flight per transfer.
#[derive(Debug, Default)]
pub(crate) struct Donor {
    transfers: BTreeMap<NodeId, Transfer>,
}

impl Donor {
    /// Takes an image of `store` for `to` and returns its first chunk,
    /// replacing any transfer to `to` still open.
    pub(crate) fn begin(
        &mut self,
        to: NodeId,
        round: Round,
        meta: Meta,
        tail: Vec<TailEntry>,
        store: &MultiVersionStore,
    ) -> InstallSnapshot {
        let base = meta.base;
        let mut cursor = ImageCursor::new(meta, tail, store);
        let mut body = Vec::new();
        cursor.next_part(store, &mut body);
        let sent = InstallSnapshot {
            round,
            base,
            index: 0,
            last: false,
            body,
        };
        self.transfers.insert(
            to,
            Transfer {
                cursor,
                sent: sent.clone(),
            },
        );
        sent
    }

    /// `to`, at `have`, asks for an image: the chunk in flight to it again
    /// if its transfer is still good for it, else a new image.
    pub(crate) fn on_want(&mut self, to: NodeId, have: u64, store: &MultiVersionStore) -> Step {
        match self.transfers.get(&to) {
            Some(t) if t.sent.base > have && t.cursor.holds(store) => Step::send(&t.sent),
            _ => {
                self.transfers.remove(&to);
                Step::Begin
            }
        }
    }

    /// Advances `from`'s transfer on its ack: the next chunk, the last one
    /// again, or — the receiver lost its staged chunks, or the store was
    /// rewritten under the image — a new image. An ack that says
    /// `installed` closes the transfer it names.
    pub(crate) fn on_ack(
        &mut self,
        from: NodeId,
        ack: &SnapshotAck,
        store: &MultiVersionStore,
    ) -> Step {
        let names = |t: &&mut Transfer| (ack.round, ack.base) == (t.sent.round, t.sent.base);
        let open = self.transfers.get_mut(&from).filter(names);
        if ack.installed {
            if open.is_some() {
                self.transfers.remove(&from);
            }
            return Step::Installed(ack.base);
        }
        let Some(t) = open else {
            return Step::IDLE;
        };
        if ack.next == t.sent.index {
            return Step::send(&t.sent);
        }
        if ack.next < t.sent.index || !t.cursor.holds(store) {
            self.transfers.remove(&from);
            return Step::Begin;
        }
        if ack.next > t.sent.index + 1 || t.sent.last {
            return Step::IDLE;
        }
        t.sent.index = ack.next;
        t.cursor.next_part(store, &mut t.sent.body);
        t.sent.last = t.cursor.done();
        Step::send(&t.sent)
    }

    /// Drops every open transfer (the sender lost the standing to serve).
    pub(crate) fn clear(&mut self) {
        self.transfers.clear();
    }
}

#[derive(Debug)]
struct Staging {
    from: NodeId,
    round: Round,
    base: u64,
    next: u32,
    image: ImageBuilder,
}

/// The receiving side: stages the chunks of at most one transfer.
#[derive(Debug, Default)]
pub(crate) struct Receiver {
    staging: Option<Staging>,
}

impl Receiver {
    /// Takes one chunk from `from`; `have` is this replica's own position.
    /// Nothing in the chunk is trusted: a body that does not decode, parts
    /// out of order and totals that do not add up all end the transfer
    /// they came with and are answered as `dropped`.
    pub(crate) fn offer(&mut self, from: NodeId, chunk: InstallSnapshot, have: u64) -> Step {
        let ack = |next, installed| SnapshotAck {
            round: chunk.round,
            base: chunk.base,
            next,
            installed,
        };
        let dropped = |ack: Option<SnapshotAck>| Step::Answer {
            msg: ack.map(SnapshotMsg::Ack),
            dropped: true,
        };
        if chunk.base <= have {
            // Nothing in it for this replica; say so, so the sender stops.
            return dropped(Some(ack(0, true)));
        }
        let id = (chunk.round, chunk.base);
        let staged = self.staging.as_ref().map(|s| ((s.round, s.base), s.from));
        match staged {
            Some((cur, _)) if cur > id => return dropped(None),
            Some((cur, src)) if cur == id && src == from => {}
            // A newer transfer, or the first: whatever was staged is stale.
            _ => {
                self.staging = (chunk.index == 0).then(|| Staging {
                    from,
                    round: chunk.round,
                    base: chunk.base,
                    next: 0,
                    image: ImageBuilder::default(),
                });
            }
        }
        let Some(s) = self.staging.as_mut() else {
            // Mid-image with nothing staged: the sender must begin again.
            return dropped(Some(ack(0, false)));
        };
        if chunk.index < s.next {
            return dropped(None); // a repeat of what is staged
        }
        if chunk.index > s.next {
            return dropped(Some(ack(s.next, false)));
        }
        // One part, the whole body, and the end exactly where the sender says.
        let pushed = s.image.push(&chunk.body).ok();
        if pushed != Some(chunk.body.len()) || s.image.complete != chunk.last {
            self.staging = None;
            return dropped(None);
        }
        s.next += 1;
        if !chunk.last {
            let msg = Some(SnapshotMsg::Ack(ack(s.next, false)));
            return Step::Answer {
                msg,
                dropped: false,
            };
        }
        let next = s.next;
        match self.staging.take().map(|s| s.image.finish()) {
            Some(Ok(image)) if image.meta.base == chunk.base => {
                Step::Install(image, ack(next, true))
            }
            _ => dropped(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::command::Key;
    use paxi_core::id::ClientId;
    use paxi_core::store::Version;

    fn meta(base: u64) -> Meta {
        Meta {
            base,
            base_term: 3,
            promised: Round {
                n: 4,
                by: Some(NodeId::new(0, 1)),
            },
            configs: vec![(0, Membership::initial(vec![NodeId::new(0, 0)]))],
            migration: TrackerState::default(),
            executed: 0,
        }
    }

    /// 300 keys, one of them hot with 30 000 versions of 200 bytes: an image
    /// of several parts, one chain spanning more than one. The other values
    /// are 0 to 44 bytes, so last values of both kinds (in the slot, on the
    /// heap) sit side by side.
    fn store() -> MultiVersionStore {
        let mut s = MultiVersionStore::new();
        for i in 0..30_000u64 {
            s.execute(&Command::put(7, vec![i as u8; 200]));
            s.execute(&Command::put(i % 300, vec![i as u8; (i % 45) as usize]));
        }
        s.execute(&Command::delete(11));
        s.execute(&Command::get(7));
        s
    }

    fn tail() -> Vec<TailEntry> {
        (0..40u64)
            .map(|i| {
                let req = RequestId::new(ClientId(1), i);
                let round = Round { n: 4, by: None };
                let cmds = vec![(Command::put(i, vec![1; 3_000]), Some(req))];
                (100 + i, round, cmds)
            })
            .collect()
    }

    fn chunks(s: &MultiVersionStore) -> (Vec<Vec<u8>>, usize) {
        let mut w = ImageWriter::new(meta(100), tail(), s);
        let mut out = Vec::new();
        while let Some(c) = w.next_chunk() {
            out.push(c.to_vec());
        }
        (out, w.largest)
    }

    /// What a part is to the codec. Version chains are written by
    /// `MultiVersionStore::encode_chains`, not through serde; this holds
    /// them to the layout a derive would give: a stretch of digests, and the
    /// key's value after the stretch that ends its chain.
    type DerivedStretch = (Key, u32, Vec<u64>, Option<Option<Vec<u8>>>);

    #[derive(Debug, Serialize, Deserialize)]
    enum DerivedPart {
        Meta(Meta),
        Tail(Vec<TailEntry>),
        Versions(Vec<DerivedStretch>),
        End { parts: u32, versions: u64 },
    }

    #[test]
    fn parts_written_from_borrows_are_the_derived_encoding() {
        let s = store();
        let (chunks, _) = chunks(&s);
        type Read = (Vec<u64>, Option<Option<Vec<u8>>>);
        let mut read: BTreeMap<Key, Read> = BTreeMap::new();
        for c in &chunks {
            let part: DerivedPart = paxi_codec::from_bytes(c).expect("every chunk is one part");
            assert_eq!(&paxi_codec::to_bytes(&part).unwrap(), c);
            if let DerivedPart::Versions(stretches) = part {
                for (key, first, versions, last) in stretches {
                    let (chain, value) = read.entry(key).or_default();
                    assert_eq!(chain.len(), first as usize, "key {key}");
                    assert!(value.is_none(), "key {key} goes on after its value");
                    chain.extend(versions);
                    *value = last;
                }
            }
        }
        assert_eq!(read.len(), s.keys().count());
        for (key, (chain, value)) in &read {
            assert!(s
                .history(*key)
                .iter()
                .map(|v| v.digest())
                .eq(chain.iter().copied()));
            assert_eq!(value.as_ref().map(Option::as_deref), Some(s.get(*key)));
        }
    }

    /// One `Versions` part, written out: a change to these bytes is a change
    /// to every checkpoint on disk and every `InstallSnapshot` on the wire.
    #[test]
    fn versions_part_golden_bytes() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(5, vec![0xC0; 23]));
        s.execute(&Command::delete(5));
        s.execute(&Command::put(6, vec![0xEE]));
        let mut cursor = ImageCursor::new(meta(1), Vec::new(), &s);
        let mut part = Vec::new();
        assert!(cursor.next_part(&s, &mut part), "meta");
        assert!(cursor.next_part(&s, &mut part), "versions");
        let digest = |v: Option<&[u8]>| Version::of(v).digest().to_le_bytes();
        #[rustfmt::skip]
        let golden = [
            &[2, 0, 0, 0][..],                              // VERSIONS
            &[2, 0, 0, 0],                                  // two stretches
            &[5, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,  2, 0, 0, 0], // key 5, from 0, two versions
            &digest(Some(&[0xC0; 23])),                     //   23 bytes' digest
            &digest(None),                                  //   a tombstone's
            &[1,  0],                                       //   last value: a tombstone
            &[6, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,  1, 0, 0, 0], // key 6, from 0, one version
            &digest(Some(&[0xEE])),
            &[1,  1,  1, 0, 0, 0,  0xEE],                   //   last value: one byte
        ]
        .concat();
        assert_eq!(part, golden);
        assert!(cursor.next_part(&s, &mut part), "end");
        #[rustfmt::skip]
        assert_eq!(part, [3, 0, 0, 0,  3, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn the_producer_hands_out_bounded_chunks_that_reassemble_to_an_equal_image() {
        let s = store();
        let (chunks, largest) = chunks(&s);
        assert!(chunks.len() > 8, "{} chunks", chunks.len());
        assert!(largest <= CHUNK_BYTES, "largest chunk is {largest} bytes");
        assert_eq!(largest, chunks.iter().map(Vec::len).max().unwrap());
        // The one buffer is all it allocates: full chunks, not a byte more
        // than a chunk, however long the image.
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert!(total > 8 * largest);
        let image = Image::decode(&chunks.concat()).unwrap();
        assert_eq!(
            image.meta,
            Meta {
                executed: s.executed(),
                ..meta(100)
            }
        );
        assert_eq!(image.tail, tail());
        assert_eq!(image.store.dump(), s.dump());
    }

    #[test]
    fn an_oversized_item_gets_a_part_to_itself() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(1, vec![1; 10]));
        s.execute(&Command::put(2, vec![2; 3 * CHUNK_BYTES]));
        s.execute(&Command::put(3, vec![3; 10]));
        let mut w = ImageWriter::new(meta(1), Vec::new(), &s);
        let mut bytes = Vec::new();
        let mut sizes = Vec::new();
        while let Some(c) = w.next_chunk() {
            sizes.push(c.len());
            bytes.extend_from_slice(c);
        }
        assert_eq!(sizes.iter().filter(|n| **n > CHUNK_BYTES).count(), 1);
        assert_eq!(Image::decode(&bytes).unwrap().store.dump(), s.dump());
    }

    #[test]
    fn an_image_is_read_as_of_its_cut_while_the_store_moves_on() {
        let mut s = store();
        let at_cut = s.dump();
        let mut cursor = ImageCursor::new(meta(100), tail(), &s);
        let (mut bytes, mut buf) = (Vec::new(), Vec::new());
        while cursor.next_part(&s, &mut buf) {
            bytes.extend_from_slice(&buf);
            // The replica keeps executing between parts.
            s.execute(&Command::put(7, vec![9; 50]));
            s.execute(&Command::put(1_000 + bytes.len() as u64, vec![9]));
            assert!(cursor.holds(&s));
        }
        assert_eq!(Image::decode(&bytes).unwrap().store.dump(), at_cut);
        s.remove_range(0, 5);
        assert!(!cursor.holds(&s));
    }

    #[test]
    fn damaged_images_are_errors_not_panics() {
        let s = store();
        let (chunks, _) = chunks(&s);
        let whole = chunks.concat();
        assert!(Image::decode(&whole[..whole.len() - 1]).is_err());
        assert!(Image::decode(&whole[chunks[0].len()..]).is_err(), "no meta");
        let without_end = chunks[..chunks.len() - 1].concat();
        assert!(Image::decode(&without_end).is_err());
        let mut skipped = chunks.clone();
        skipped.remove(chunks.len() - 2);
        assert!(Image::decode(&skipped.concat()).is_err(), "totals");
        let mut doubled = chunks.clone();
        doubled.insert(chunks.len() - 2, chunks[chunks.len() - 2].clone());
        assert!(
            Image::decode(&doubled.concat()).is_err(),
            "a repeated chain"
        );
        for seed in 0..64u8 {
            let junk: Vec<u8> = (0..200).map(|i| seed.wrapping_mul(37) ^ i).collect();
            let _ = Image::decode(&junk);
        }
    }

    impl Donor {
        /// Whether no transfer is open.
        pub(crate) fn is_idle(&self) -> bool {
            self.transfers.is_empty()
        }
    }

    impl Receiver {
        /// Whether a transfer is staged.
        pub(crate) fn staging(&self) -> bool {
            self.staging.is_some()
        }
    }

    const DONOR: NodeId = NodeId { zone: 0, node: 0 };
    const PEER: NodeId = NodeId { zone: 0, node: 1 };

    fn round(n: u64) -> Round {
        Round { n, by: Some(DONOR) }
    }

    /// The ack a staged chunk is answered with.
    fn staged(step: Step) -> SnapshotAck {
        match step {
            Step::Answer {
                msg: Some(SnapshotMsg::Ack(ack)),
                dropped: false,
            } => ack,
            other => panic!("not staged: {other:?}"),
        }
    }

    /// The chunk the donor sends.
    fn sent(step: Step) -> InstallSnapshot {
        match step {
            Step::Answer {
                msg: Some(SnapshotMsg::Install(chunk)),
                dropped: false,
            } => chunk,
            other => panic!("no chunk: {other:?}"),
        }
    }

    /// What a dropped chunk is answered with, if anything.
    fn dropped(step: Step) -> Option<SnapshotAck> {
        match step {
            Step::Answer {
                msg: None,
                dropped: true,
            } => None,
            Step::Answer {
                msg: Some(SnapshotMsg::Ack(ack)),
                dropped: true,
            } => Some(ack),
            other => panic!("not dropped: {other:?}"),
        }
    }

    /// Runs a transfer to completion over a perfect link.
    fn transfer(
        donor: &mut Donor,
        rx: &mut Receiver,
        first: InstallSnapshot,
        s: &MultiVersionStore,
    ) -> Image {
        let mut chunk = first;
        loop {
            match rx.offer(DONOR, chunk, 0) {
                Step::Install(image, ack) => {
                    assert!(ack.installed);
                    let closed = donor.on_ack(PEER, &ack, s);
                    assert!(matches!(closed, Step::Installed(100)), "{closed:?}");
                    return image;
                }
                step => chunk = sent(donor.on_ack(PEER, &staged(step), s)),
            }
        }
    }

    #[test]
    fn stop_and_wait_moves_the_image_one_chunk_per_ack() {
        let mut s = store();
        let at_cut = s.dump();
        let (mut donor, mut rx) = (Donor::default(), Receiver::default());
        let first = donor.begin(PEER, round(4), meta(100), tail(), &s);
        assert_eq!((first.index, first.last), (0, false));
        s.execute(&Command::put(7, vec![0; 8])); // the donor keeps executing
        let image = transfer(&mut donor, &mut rx, first, &s);
        assert_eq!(image.store.dump(), at_cut);
        assert_eq!(image.tail, tail());
        assert!(!rx.staging());
        assert!(donor.is_idle());
    }

    #[test]
    fn unusable_chunks_are_dropped_and_the_transfer_recovers() {
        let s = store();
        let (mut donor, mut rx) = (Donor::default(), Receiver::default());
        let c0 = donor.begin(PEER, round(4), meta(100), tail(), &s);
        let a1 = staged(rx.offer(DONOR, c0.clone(), 0));
        // A duplicate of what is staged: dropped without an answer.
        assert_eq!(dropped(rx.offer(DONOR, c0.clone(), 0)), None);
        let c1 = sent(donor.on_ack(PEER, &a1, &s));
        // The ack again (the chunk was lost): the same chunk again.
        let again = sent(donor.on_ack(PEER, &a1, &s));
        assert_eq!((again.index, &again.body), (c1.index, &c1.body));
        // Truncated in flight: the staged transfer is given up, and the next
        // chunk of it is answered with "begin again".
        let mut torn = c1.clone();
        torn.body.truncate(c1.body.len() / 2);
        assert_eq!(dropped(rx.offer(DONOR, torn, 0)), None);
        assert!(!rx.staging());
        let back = dropped(rx.offer(DONOR, c1.clone(), 0)).expect("mid-image, nothing staged");
        assert_eq!((back.next, back.installed), (0, false));
        assert!(matches!(donor.on_ack(PEER, &back, &s), Step::Begin));
        // Out of order: chunk 2 where 1 is due names the chunk that is due.
        let c0 = donor.begin(PEER, round(4), meta(100), tail(), &s);
        let a1 = staged(rx.offer(DONOR, c0, 0));
        let mut early = c1.clone();
        early.index = 2;
        assert_eq!(dropped(rx.offer(DONOR, early, 0)), Some(a1));
        // A chunk of an older transfer (lower base, or lower round) is stale.
        let mut stale = c1.clone();
        stale.base = 50;
        assert_eq!(dropped(rx.offer(DONOR, stale, 0)), None);
        let mut stale = c1.clone();
        stale.round = round(3);
        assert_eq!(dropped(rx.offer(DONOR, stale, 0)), None);
        assert!(
            rx.staging(),
            "the staged transfer is untouched by stale chunks"
        );
        // A newer base, or a higher round, supersedes what is staged.
        let newer = donor.begin(PEER, round(5), meta(100), tail(), &s);
        let a = staged(rx.offer(DONOR, newer, 0));
        assert_eq!((a.round, a.next), (round(5), 1));
        // A replica already at the base wants none of it.
        let c0 = donor.begin(PEER, round(6), meta(100), tail(), &s);
        let past = dropped(rx.offer(DONOR, c0.clone(), 100)).expect("nothing to install");
        assert!(past.installed);
        assert!(matches!(
            donor.on_ack(PEER, &past, &s),
            Step::Installed(100)
        ));
        assert!(donor.is_idle());
        // And a fresh transfer still completes.
        let first = donor.begin(PEER, round(7), meta(100), tail(), &s);
        let image = transfer(&mut donor, &mut rx, first, &s);
        assert_eq!(image.store.dump(), s.dump());
    }

    #[test]
    fn a_store_rewritten_under_a_transfer_restarts_it() {
        let mut s = store();
        let (mut donor, mut rx) = (Donor::default(), Receiver::default());
        let c0 = donor.begin(PEER, round(4), meta(100), tail(), &s);
        let a1 = staged(rx.offer(DONOR, c0, 0));
        s.remove_range(0, 10);
        assert!(matches!(donor.on_want(PEER, 0, &s), Step::Begin));
        let c0 = donor.begin(PEER, round(4), meta(100), tail(), &s);
        s.remove_range(10, 20);
        assert!(matches!(donor.on_ack(PEER, &a1, &s), Step::Begin));
        let _ = c0;
    }
}
