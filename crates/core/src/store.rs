//! Multi-version in-memory key-value datastore.
//!
//! Paxi ships an in-memory multi-version key-value store private to every
//! node; it is the deterministic state machine the replication protocols
//! drive. Every write adds a version to its key's chain and nothing is ever
//! taken out of the middle, so a version's sequence number is its position
//! (version `s` sits at index `s - 1`) and its parent is the one before it.
//! A key keeps the value of its last version, and of every version a 64-bit
//! digest ([`Version`]): reads and replies need only the former, and the
//! consensus checker collects the digest chains from every node and
//! verifies that they share a common prefix. The same fact gives chains one
//! encoding, wherever they go — a checkpoint on disk, an `InstallSnapshot`
//! chunk, a migrated range: [`MultiVersionStore::encode_chains`].

use crate::command::{Command, Key, Op, Value};
use crate::hash::FxHashMap;
use std::fmt;
use std::mem::size_of;

/// One committed version of a key, as replicas compare it: a 64-bit digest
/// of the value it installed, or of a delete tombstone. Its per-key sequence
/// number is its index in the chain plus one, its parent the version before
/// it. Two different versions share a digest with a chance of about 2⁻⁶⁴.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Version(u64);

impl Version {
    /// The digest of a version that installed `value`; `None` is a delete
    /// tombstone. One seedless pass, a word at a time, over which of the two
    /// it is, the length and the bytes; every step is a bijection of the
    /// running state, so two values of one length that differ in one word
    /// never share a digest.
    pub fn of(value: Option<&[u8]>) -> Version {
        let Some(bytes) = value else {
            return Version(finish(TOMBSTONE));
        };
        let mut h = absorb(VALUE, bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            h = absorb(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            h = absorb(h, u64::from_le_bytes(word));
        }
        Version(finish(h))
    }

    /// The 64 bits, as an image or a range state carries them.
    pub fn digest(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Where a value's digest starts, and a tombstone's whole input.
const VALUE: u64 = 0x9e37_79b9_7f4a_7c15;
const TOMBSTONE: u64 = 0x7f4a_7c15_9e37_79b9;

/// One word into the running state: odd multiply, then the high half folded
/// down, so that every input bit reaches the low bits too.
fn absorb(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 32)
}

/// MurmurHash3's 64-bit finaliser: every input bit flips each output bit
/// with a chance of about one half.
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Longest value kept inside its slot: a slot is as big as the `Vec<u8>`
/// header a value on the heap would need anyway, less the tag and the length.
const INLINE: usize = size_of::<Vec<u8>>() - 2;

/// A key's latest value, or a delete tombstone. A heap slot always holds
/// more than [`INLINE`] bytes, so equal values are equal slots.
#[derive(Clone, PartialEq, Eq)]
enum Slot {
    Tombstone,
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<[u8]>),
}

impl Slot {
    fn holding(v: &[u8]) -> Slot {
        if v.len() > INLINE {
            return Slot::Heap(v.into());
        }
        let mut bytes = [0; INLINE];
        bytes[..v.len()].copy_from_slice(v);
        let len = v.len() as u8;
        Slot::Inline { len, bytes }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Slot::Tombstone => None,
            Slot::Inline { len, bytes } => Some(&bytes[..usize::from(*len)]),
            Slot::Heap(v) => Some(v),
        }
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value().fmt(f)
    }
}

/// One key: the digest of every version and the value of the last.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Chain {
    /// `Version::of(tip)` is the last of `versions`. `None` only in a store
    /// being read in by [`MultiVersionStore::extend_chains`] whose last
    /// stretch of this chain has not come yet.
    tip: Option<Slot>,
    versions: Vec<Version>,
}

/// Multi-version store: the deterministic state machine replicas execute
/// committed commands against.
///
/// The store is deliberately single-threaded — each replica owns its private
/// instance and executes commands from its protocol handler, which the
/// runtimes guarantee to be serial.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MultiVersionStore {
    data: FxHashMap<Key, Chain>,
    executed: u64,
    /// Times a chain was replaced or removed rather than extended (range
    /// install, range removal): what invalidates a [`StoreCut`].
    rewrites: u64,
}

/// A consistent view of a store at one instant: every key in order with the
/// length its chain had and the value it held. Chains only grow between
/// rewrites, so `store.history(key)[..len]` stays what it was at the cut for
/// as long as [`MultiVersionStore::holds`] — which lets a snapshot be read
/// out in pieces while the store keeps executing. The store keeps no older
/// value, so the cut does: one per key, not one per version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCut {
    /// `(key, versions at the cut, value at the cut)`, sorted by key.
    keys: Vec<(Key, usize, Slot)>,
    /// [`MultiVersionStore::executed`] at the cut.
    pub executed: u64,
    rewrites: u64,
    /// How far [`MultiVersionStore::encode_chains`] has read the cut out:
    /// the index in `keys` and the version of that key's chain it writes next.
    at: (usize, usize),
}

impl StoreCut {
    /// Whether every chain of the cut has been read out.
    pub fn is_read(&self) -> bool {
        self.at.0 >= self.keys.len()
    }
}

impl MultiVersionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes one committed command, returning the value the client should
    /// see: the current value for `Get`, the *previous* value for
    /// `Put`/`Delete`.
    pub fn execute(&mut self, cmd: &Command) -> Option<Value> {
        let seen = self.get(cmd.key).map(<[u8]>::to_vec);
        self.apply(cmd);
        seen
    }

    /// [`MultiVersionStore::execute`] for a replica that answers nobody:
    /// the same state change, no value looked up or copied.
    pub fn apply(&mut self, cmd: &Command) {
        self.executed += 1;
        let (tip, version) = match &cmd.op {
            Op::Get => return,
            Op::Put(v) => (Slot::holding(v), Version::of(Some(v))),
            Op::Delete => (Slot::Tombstone, Version::of(None)),
        };
        let chain = self.data.entry(cmd.key).or_default();
        chain.versions.push(version);
        chain.tip = Some(tip);
    }

    /// Current (latest non-tombstone) value of `key`.
    pub fn get(&self, key: Key) -> Option<&[u8]> {
        self.data.get(&key)?.tip.as_ref()?.value()
    }

    /// Full version history of `key`, oldest first. Used by the consensus
    /// checker's common-prefix validation.
    pub fn history(&self, key: Key) -> &[Version] {
        self.data.get(&key).map_or(&[], |c| &c.versions)
    }

    /// Keys with at least one version.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.data.keys().copied()
    }

    /// Number of commands executed so far (reads included).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of versions across all keys.
    pub fn version_count(&self) -> usize {
        self.data.values().map(|c| c.versions.len()).sum()
    }

    /// Marks the present state for reading out later; see [`StoreCut`].
    /// Costs one pass over the keys, not the versions.
    pub fn cut(&self) -> StoreCut {
        self.cut_of(|_| true)
    }

    /// [`MultiVersionStore::cut`] of the keys `keep` says.
    fn cut_of(&self, keep: impl Fn(Key) -> bool) -> StoreCut {
        let mut keys: Vec<_> = (self.data.iter())
            .filter(|(k, _)| keep(**k))
            .filter_map(|(k, c)| Some((*k, c.versions.len(), c.tip.clone()?)))
            .collect();
        keys.sort_unstable_by_key(|(k, ..)| *k);
        StoreCut {
            keys,
            executed: self.executed,
            rewrites: self.rewrites,
            at: (0, 0),
        }
    }

    /// Whether every chain still starts with what it held at `cut`.
    pub fn holds(&self, cut: &StoreCut) -> bool {
        self.rewrites == cut.rewrites
    }

    /// Reads what [`MultiVersionStore::encode_chains`] wrote off the front
    /// of `rest` and appends every stretch to its key's chain; returns the
    /// number of versions appended. `None`, never a panic, and the store of
    /// no further use, for bytes that are not that, a stretch that does not
    /// start where its chain ends (position is all that tells a repeat or a
    /// gap), one that continues a chain already ended, or a last value whose
    /// digest is not the chain's last.
    pub fn extend_chains(&mut self, rest: &mut &[u8]) -> Option<u64> {
        let mut appended = 0;
        for _ in 0..take_u32(rest)? {
            let (key, first, versions) = (take_u64(rest)?, take_u32(rest)?, take_u32(rest)?);
            let chain = self.data.get(&key);
            let (have, ended) = chain.map_or((0, false), |c| (c.versions.len(), c.tip.is_some()));
            if versions == 0 || ended || have != first as usize {
                return None;
            }
            let mut stretch = Vec::with_capacity(versions.min(8192) as usize);
            for _ in 0..versions {
                stretch.push(Version(take_u64(rest)?));
            }
            let tip = match take(rest, 1)?[0] {
                0 => None,
                1 => Some(match take(rest, 1)?[0] {
                    0 => Slot::Tombstone,
                    1 => {
                        let len = take_u32(rest)? as usize;
                        Slot::holding(take(rest, len)?)
                    }
                    _ => return None,
                }),
                _ => return None,
            };
            let ends_chain = |t: &Slot| stretch.last() == Some(&Version::of(t.value()));
            if tip.as_ref().is_some_and(|t| !ends_chain(t)) {
                return None;
            }
            let chain = self.data.entry(key).or_default();
            chain.versions.append(&mut stretch);
            chain.tip = tip;
            appended += u64::from(versions);
        }
        Some(appended)
    }

    /// Whether every chain has its last value: false only for a store that
    /// [`MultiVersionStore::extend_chains`] has read part of an encoding
    /// into, a chain's last stretch still to come.
    pub fn is_whole(&self) -> bool {
        self.data.values().all(|c| c.tip.is_some())
    }

    /// Sets the executed-commands counter, the one part of a store that is
    /// not in its chains.
    pub fn set_executed(&mut self, executed: u64) {
        self.executed = executed;
    }

    /// Dump of the whole store: a deep copy, for tests and small stores
    /// (snapshots read the store through [`StoreCut`]). Keys are sorted so
    /// that equal states dump equal.
    pub fn dump(&self) -> StoreDump {
        let mut data: Vec<_> = self.data.iter().map(|(k, c)| (*k, c.clone())).collect();
        data.sort_unstable_by_key(|(k, _)| *k);
        StoreDump {
            data,
            executed: self.executed,
        }
    }

    /// Rebuilds a store from a [`MultiVersionStore::dump`].
    pub fn restore(dump: StoreDump) -> Self {
        MultiVersionStore {
            data: dump.data.into_iter().collect(),
            executed: dump.executed,
            rewrites: 0,
        }
    }

    /// The chains of the keys in `[lo, hi)`, whole and in key order, as
    /// [`MultiVersionStore::encode_chains`] writes them — what a shard
    /// migration streams to the destination group. Every replica that froze
    /// the range encodes identical bytes (`executed` is not part of them).
    pub fn encode_range(&self, lo: Key, hi: Key) -> Vec<u8> {
        let mut cut = self.cut_of(|key| (lo..hi).contains(&key));
        let mut out = Vec::new();
        self.encode_chains(&mut cut, usize::MAX, &mut out);
        out
    }

    /// The one encoding of version chains, appended to `buf`:
    ///
    /// ```text
    /// stretches: u32
    /// stretches × { key: u64, first: u32, versions: u32, versions × digest: u64,
    ///               last: u8, if last == 1 { live: u8, if live == 1 { len: u32, bytes } } }
    /// ```
    ///
    /// little-endian: what the repo's codec makes of a `Vec<(Key, u32,
    /// Vec<u64>, Option<Option<bytes>>)>`. A stretch is one key's versions
    /// from position `first` on; the one that ends the chain carries the
    /// key's value at the cut. Reads on from where the last call left `cut`
    /// until the next version (with the value, for a chain's last) would
    /// take `buf` past `limit` bytes, but always at least one version.
    /// Returns the number of versions written.
    pub fn encode_chains(&self, cut: &mut StoreCut, limit: usize, buf: &mut Vec<u8>) -> u64 {
        let count_at = buf.len();
        buf.extend_from_slice(&[0; 4]);
        let (mut stretches, mut versions) = (0, 0);
        'full: while let Some((key, len, tip)) = cut.keys.get(cut.at.0) {
            let chain = self.history(*key);
            let chain = &chain[..(*len).min(chain.len())];
            let key_at = buf.len();
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&le_u32(cut.at.1));
            let (len_at, first) = (buf.len(), cut.at.1);
            buf.extend_from_slice(&[0; 4]);
            while let Some(version) = chain.get(cut.at.1) {
                let mark = buf.len();
                buf.extend_from_slice(&version.digest().to_le_bytes());
                let last = cut.at.1 + 1 == chain.len();
                if last {
                    buf.push(1);
                    buf.push(u8::from(tip.value().is_some()));
                    if let Some(bytes) = tip.value() {
                        buf.extend_from_slice(&le_u32(bytes.len()));
                        buf.extend_from_slice(bytes);
                    }
                }
                // A stretch that stops short of its chain's end still
                // needs the byte that says so.
                let end = buf.len() + usize::from(!last);
                if end > limit && (stretches > 0 || cut.at.1 > first) {
                    // Full: this version opens the next call, and so does
                    // its key if nothing of the chain went in here.
                    if cut.at.1 == first {
                        buf.truncate(key_at);
                    } else {
                        buf.truncate(mark);
                        buf.push(0);
                        buf[len_at..len_at + 4].copy_from_slice(&le_u32(cut.at.1 - first));
                        stretches += 1;
                    }
                    break 'full;
                }
                cut.at.1 += 1;
                versions += 1;
            }
            buf[len_at..len_at + 4].copy_from_slice(&le_u32(cut.at.1 - first));
            stretches += 1;
            cut.at = (cut.at.0 + 1, 0);
        }
        buf[count_at..count_at + 4].copy_from_slice(&le_u32(stretches));
        versions
    }

    /// Decodes what [`MultiVersionStore::encode_range`] wrote, into a store
    /// of its own. `None` (never a panic) on truncation, trailing garbage, a
    /// chain that does not start at its first version, or one without its
    /// last value.
    pub fn decode_range(mut bytes: &[u8]) -> Option<MultiVersionStore> {
        let mut range = MultiVersionStore::new();
        range.extend_chains(&mut bytes)?;
        (bytes.is_empty() && range.is_whole()).then_some(range)
    }

    /// Splices a migrated range's version chains into this store, replacing
    /// any chain already present for those keys (idempotent re-install).
    /// The executed counter is untouched — installs are not executions.
    pub fn install_range(&mut self, range: MultiVersionStore) {
        self.rewrites += 1;
        self.data.extend(range.data);
    }

    /// Removes every key in `[lo, hi)` — the source side of a committed
    /// migration dropping the range it handed off.
    pub fn remove_range(&mut self, lo: Key, hi: Key) {
        self.rewrites += 1;
        self.data.retain(|k, _| *k < lo || *k >= hi);
    }
}

/// A deep copy of a [`MultiVersionStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDump {
    /// Per-key chains, sorted by key.
    data: Vec<(Key, Chain)>,
    /// Commands executed so far (reads included).
    pub executed: u64,
}

fn le_u32(v: usize) -> [u8; 4] {
    let v = u32::try_from(v).expect("lengths and counts of version chains fit u32");
    v.to_le_bytes()
}

/// Splits `n` bytes off the front of `rest`, if it has them.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(rest, 4)?.try_into().ok()?))
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(rest, 8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{forall, Rng64};

    #[test]
    fn a_version_is_a_digest_and_a_key_one_24_byte_slot_more() {
        assert_eq!(size_of::<Version>(), 8);
        assert_eq!(size_of::<Option<Slot>>(), 24);
        assert_eq!(INLINE, 22);
        let slot = |len: usize| Slot::holding(&vec![7; len]);
        assert!(matches!(slot(22), Slot::Inline { len: 22, .. }));
        assert!(matches!(slot(23), Slot::Heap(_)));
        assert!(matches!(slot(0), Slot::Inline { len: 0, .. }));
    }

    #[test]
    fn a_tombstone_an_empty_value_and_values_a_byte_apart_digest_apart() {
        let digests = [
            Version::of(None),
            Version::of(Some(&[])),
            Version::of(Some(&[0; 9])),
            Version::of(Some(&[0, 0, 0, 0, 0, 0, 0, 0, 1])),
            Version::of(Some(&[0; 8])),
            Version::of(Some(&[0; 10])),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Version::of(Some(&[1, 2])), Version::of(Some(&[1, 2])));
    }

    #[test]
    fn get_on_empty_store_returns_none() {
        let mut s = MultiVersionStore::new();
        assert_eq!(s.execute(&Command::get(1)), None);
        assert_eq!(s.executed(), 1);
    }

    #[test]
    fn put_returns_previous_value() {
        let mut s = MultiVersionStore::new();
        assert_eq!(s.execute(&Command::put(1, vec![1])), None);
        assert_eq!(s.execute(&Command::put(1, vec![2])), Some(vec![1]));
        assert_eq!(s.execute(&Command::get(1)), Some(vec![2]));
    }

    #[test]
    fn delete_installs_tombstone() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(7, vec![9]));
        assert_eq!(s.execute(&Command::delete(7)), Some(vec![9]));
        assert_eq!(s.get(7), None);
        // put + delete = 2 versions, the second one a tombstone
        assert_eq!(s.history(7), [Version::of(Some(&[9])), Version::of(None)]);
    }

    #[test]
    fn a_version_is_found_at_its_position() {
        let mut s = MultiVersionStore::new();
        for i in 0..5u8 {
            s.execute(&Command::put(3, vec![i]));
        }
        let h = s.history(3);
        assert_eq!(h.len(), 5);
        for (i, v) in h.iter().enumerate() {
            assert_eq!(*v, Version::of(Some(&[i as u8])));
        }
        assert_eq!(format!("{:?}", h[0]), format!("{:016x}", h[0].0));
    }

    #[test]
    fn reads_do_not_create_versions() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(1, vec![1]));
        s.execute(&Command::get(1));
        s.execute(&Command::get(1));
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn dump_and_restore_roundtrip() {
        let mut s = MultiVersionStore::new();
        for i in 0..4u8 {
            s.execute(&Command::put(9, vec![i]));
            s.execute(&Command::put(u64::from(i), vec![i, i]));
        }
        s.execute(&Command::get(9));
        let back = MultiVersionStore::restore(s.dump());
        assert_eq!(back.executed(), s.executed());
        assert_eq!(back.history(9), s.history(9));
        assert_eq!(back.get(2), s.get(2));
        assert_eq!(back.version_count(), s.version_count());
    }

    /// `(key, versions)` of a cut.
    fn lengths(cut: &StoreCut) -> Vec<(Key, usize)> {
        cut.keys.iter().map(|(k, len, _)| (*k, *len)).collect()
    }

    #[test]
    fn range_extract_install_remove() {
        let mut src = MultiVersionStore::new();
        for k in 0..8u64 {
            src.execute(&Command::put(k, vec![k as u8]));
            src.execute(&Command::put(k, vec![k as u8, k as u8]));
        }
        let range = MultiVersionStore::decode_range(&src.encode_range(2, 4)).unwrap();
        assert_eq!(lengths(&range.cut()), vec![(2, 2), (3, 2)]);
        assert_eq!(range.executed(), 0, "executed counter stays local");

        let mut dst = MultiVersionStore::new();
        dst.execute(&Command::put(9, vec![9]));
        let before = dst.executed();
        dst.install_range(range.clone());
        assert_eq!(dst.history(2), src.history(2), "full chains move");
        assert_eq!(dst.get(3), Some(&[3, 3][..]), "and their last values");
        assert_eq!(dst.executed(), before, "install is not an execution");
        dst.install_range(range); // idempotent
        assert_eq!(dst.history(3).len(), 2);

        src.remove_range(2, 4);
        assert_eq!(src.get(2), None);
        assert!(src.history(3).is_empty());
        assert!(
            src.get(1).is_some() && src.get(4).is_some(),
            "outside keys stay"
        );
    }

    /// What `cut` holds of `s`, taken apart by `encode_chains` in calls of
    /// `limit` bytes: the pieces. Only a piece of one version may be longer.
    fn pieces(s: &MultiVersionStore, mut cut: StoreCut, limit: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !cut.is_read() {
            let mut piece = Vec::new();
            let versions = s.encode_chains(&mut cut, limit, &mut piece);
            assert!(versions > 0, "progress");
            assert!(
                piece.len() <= limit || versions == 1,
                "{} > {limit}",
                piece.len()
            );
            out.push(piece);
        }
        out
    }

    /// `s` as of now, taken apart in pieces of `limit` bytes and put back
    /// together by `extend_chains`.
    fn through_the_codec(s: &MultiVersionStore, limit: usize) -> MultiVersionStore {
        let mut back = MultiVersionStore::new();
        let mut versions = 0;
        for piece in pieces(s, s.cut(), limit) {
            let mut rest = &piece[..];
            versions += back
                .extend_chains(&mut rest)
                .expect("what was encoded decodes");
            assert!(rest.is_empty());
        }
        assert!(back.is_whole());
        assert_eq!(versions, s.version_count() as u64);
        back.set_executed(s.executed());
        back
    }

    #[test]
    fn a_cut_reads_the_same_chains_while_the_store_moves_on() {
        let mut s = MultiVersionStore::new();
        for i in 0..6u8 {
            s.execute(&Command::put(u64::from(i % 3), vec![i]));
        }
        let cut = s.cut();
        let at_cut = s.dump();
        s.execute(&Command::put(1, vec![9]));
        s.execute(&Command::put(7, vec![9]));
        assert!(s.holds(&cut), "appends do not disturb a cut");
        // Read out one version at a time, after the store has moved on, and
        // put back together: a piece goes where its position says, once.
        let executed = cut.executed;
        let pieces = pieces(&s, cut.clone(), 0);
        assert_eq!(pieces.len(), 6);
        let mut back = MultiVersionStore::new();
        for (i, piece) in pieces.iter().enumerate() {
            if i % 2 == 0 {
                let second = &pieces[i + 1][..]; // of the same key
                assert_eq!(back.clone().extend_chains(&mut &*second), None, "a gap");
            }
            assert_eq!(back.extend_chains(&mut &piece[..]), Some(1));
            assert_eq!(back.is_whole(), i % 2 == 1, "a chain ends with its value");
            assert_eq!(
                back.clone().extend_chains(&mut &piece[..]),
                None,
                "a repeat"
            );
        }
        back.set_executed(executed);
        assert_eq!(back.dump(), at_cut);
        s.remove_range(0, 1);
        assert!(!s.holds(&cut), "a rewritten chain ends the cut");
    }

    #[test]
    fn dumps_of_equal_state_are_identical() {
        // HashMap iteration order must not leak into the dump.
        let mk = |order: &[u64]| {
            let mut s = MultiVersionStore::new();
            for &k in order {
                s.execute(&Command::put(k, vec![k as u8]));
            }
            s
        };
        assert_eq!(mk(&[1, 2, 3]).dump(), mk(&[3, 1, 2]).dump());
    }

    #[test]
    fn an_answering_and_a_silent_replica_end_in_the_same_state() {
        let (mut leader, mut follower) = (MultiVersionStore::new(), MultiVersionStore::new());
        for i in 0..40u8 {
            let key = u64::from(i % 5);
            let cmd = match i % 4 {
                0 => Command::get(key),
                1 => Command::delete(key),
                _ => Command::put(key, vec![i; usize::from(i)]),
            };
            leader.execute(&cmd);
            follower.apply(&cmd);
        }
        assert_eq!(leader.dump(), follower.dump(), "chains and executed");
    }

    #[test]
    fn chains_that_are_not_chains_do_not_decode() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(1, vec![1; 30]));
        s.execute(&Command::delete(1));
        s.execute(&Command::put(2, vec![2]));
        let bytes = s.encode_range(0, 9);
        for cut in 0..bytes.len() {
            assert_eq!(
                MultiVersionStore::decode_range(&bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
        // Key 1: its header, two digests, then its last value's flags.
        let last_at = 4 + 16 + 2 * 8;
        let mut bad_flag = bytes.clone();
        bad_flag[last_at] = 2;
        assert_eq!(MultiVersionStore::decode_range(&bad_flag), None);
        let mut live = bytes.clone();
        live[last_at + 1] = 1; // the tombstone claims to be a value
        assert_eq!(MultiVersionStore::decode_range(&live), None);
        let mut value = bytes.clone();
        *value.last_mut().unwrap() = 3; // key 2's value no longer its digest's
        assert_eq!(MultiVersionStore::decode_range(&value), None);
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            MultiVersionStore::decode_range(&huge),
            None,
            "a count is not trusted"
        );
        // Pieces of one version each: a chain without its last stretch is
        // not a range, and one that has it takes no more.
        let pieces = pieces(&s, s.cut(), 0);
        assert_eq!(MultiVersionStore::decode_range(&pieces[0]), None);
        let mut whole = MultiVersionStore::decode_range(&pieces[2]).expect("key 2, whole");
        let mut more = s.encode_range(2, 3);
        more[8 + 4] = 1; // "from version 1 on": past the end of a chain that ended
        assert_eq!(whole.extend_chains(&mut &more[..]), None);
    }

    #[test]
    fn range_state_round_trips() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(2, vec![1]));
        s.execute(&Command::put(2, vec![2]));
        s.execute(&Command::delete(3));
        let bytes = s.encode_range(2, 4);
        let range = MultiVersionStore::decode_range(&bytes).expect("what was encoded decodes");
        assert_eq!(range.dump().data, s.dump().data);
        for cut in 0..bytes.len() {
            assert_eq!(
                MultiVersionStore::decode_range(&bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            MultiVersionStore::decode_range(&extra),
            None,
            "trailing garbage"
        );
        let mut midway = bytes.clone();
        midway[12] = 1; // key 2's chain claims to start at its second version
        assert_eq!(
            MultiVersionStore::decode_range(&midway),
            None,
            "a partial chain"
        );
    }

    /// The digests of the golden bytes below: a change to [`Version::of`]
    /// is a change to every image and `Install` record.
    const AA_BB: u64 = 0x29f1_f4c2_86f8_62e7;
    const TOMB: u64 = 0xe87d_ab95_0378_66dd;
    const EMPTY: u64 = 0x2f29_cd92_1e2b_b333;

    #[test]
    fn digest_golden_values() {
        assert_eq!(Version::of(Some(&[0xAA, 0xBB])), Version(AA_BB));
        assert_eq!(Version::of(None), Version(TOMB));
        assert_eq!(Version::of(Some(&[])), Version(EMPTY));
    }

    /// The bytes of a range state, written out: a change to them is a
    /// change to every `Install` record in a WAL and on the wire.
    #[test]
    fn range_state_golden_bytes() {
        let mut s = MultiVersionStore::new();
        s.execute(&Command::put(2, vec![0xAA, 0xBB]));
        s.execute(&Command::delete(2));
        s.execute(&Command::put(3, Vec::new()));
        #[rustfmt::skip]
        let golden = [
            &[2, 0, 0, 0][..],                                // two chains
            &[2, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,  2, 0, 0, 0], // key 2, from 0, two versions
            &AA_BB.to_le_bytes(),                             //   a two-byte value's digest
            &TOMB.to_le_bytes(),                              //   a tombstone's
            &[1,  0],                                         //   last value: a tombstone
            &[3, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,  1, 0, 0, 0], // key 3, from 0, one version
            &EMPTY.to_le_bytes(),                             //   an empty value's digest
            &[1,  1,  0, 0, 0, 0],                            //   last value: empty
        ]
        .concat();
        assert_eq!(s.encode_range(2, 4), golden);
    }

    type Model = std::collections::HashMap<Key, Vec<Option<Vec<u8>>>>;

    fn agrees(s: &MultiVersionStore, m: &Model) {
        let sorted = |mut keys: Vec<Key>| {
            keys.sort_unstable();
            keys
        };
        assert_eq!(
            sorted(s.keys().collect()),
            sorted(m.keys().copied().collect())
        );
        for (key, chain) in m {
            let digests = chain.iter().map(|v| Version::of(v.as_deref()));
            assert!(s.history(*key).iter().copied().eq(digests));
            assert_eq!(s.get(*key), chain.last().and_then(|v| v.as_deref()));
        }
        assert_eq!(s.version_count(), m.values().map(Vec::len).sum::<usize>());
        assert!(s.is_whole());
    }

    /// One seeded walk of the store beside a naive model of it.
    fn walk(rng: &mut Rng64) {
        const LENS: [usize; 6] = [0, 1, 22, 23, 256, 70_000];
        let (mut s, mut m, mut executed) = (MultiVersionStore::new(), Model::new(), 0u64);
        for _ in 0..250 {
            let key = rng.below(8);
            let (lo, hi) = (rng.below(8), rng.below(10));
            let in_range = |k: &Key| *k >= lo && *k < hi;
            match rng.below(12) {
                op @ 0..=5 => {
                    let cmd = match op {
                        0 => Command::get(key),
                        1 => Command::delete(key),
                        _ => {
                            let len = LENS[rng.below(6) as usize];
                            Command::put(key, vec![rng.next_u64() as u8; len])
                        }
                    };
                    let current = m.get(&key).and_then(|c| c.last().cloned().flatten());
                    if rng.chance(0.5) {
                        assert_eq!(s.execute(&cmd), current, "{cmd}");
                    } else {
                        s.apply(&cmd);
                    }
                    executed += 1;
                    match cmd.op {
                        Op::Get => {}
                        Op::Put(v) => m.entry(key).or_default().push(Some(v)),
                        Op::Delete => m.entry(key).or_default().push(None),
                    }
                }
                6 => {
                    let (cut, at_cut) = (s.cut(), s.dump());
                    s.apply(&Command::put(key, vec![1; 23]));
                    m.entry(key).or_default().push(Some(vec![1; 23]));
                    executed += 1;
                    assert!(s.holds(&cut));
                    let at = |(k, len, tip): &(Key, usize, Slot)| {
                        let versions = s.history(*k)[..*len].to_vec();
                        let tip = Some(tip.clone());
                        (*k, Chain { tip, versions })
                    };
                    assert_eq!(cut.keys.iter().map(at).collect::<Vec<_>>(), at_cut.data);
                    assert_eq!(cut.executed, at_cut.executed);
                }
                7 => {
                    let range = MultiVersionStore::decode_range(&s.encode_range(lo, hi)).unwrap();
                    assert_eq!(range.executed(), 0);
                    let want: Model = m.clone().into_iter().filter(|(k, _)| in_range(k)).collect();
                    agrees(&range, &want);
                    // Install over a store that holds other chains for some
                    // of the keys: the range's chains replace them.
                    let mut other = MultiVersionStore::new();
                    other.apply(&Command::put(key, vec![9]));
                    let cut = other.cut();
                    other.install_range(range);
                    assert!(!other.holds(&cut));
                    let mut want = want;
                    want.entry(key).or_insert_with(|| vec![Some(vec![9])]);
                    agrees(&other, &want);
                    assert_eq!(other.executed(), 1);
                }
                8 => {
                    let cut = s.cut();
                    s.remove_range(lo, hi);
                    m.retain(|k, _| !in_range(k));
                    assert!(!s.holds(&cut));
                }
                9 => {
                    let back = MultiVersionStore::restore(s.dump());
                    agrees(&back, &m);
                    assert_eq!(back.dump(), s.dump());
                }
                _ => {
                    let limit = [0, 40, 300, 100_000][rng.below(4) as usize];
                    assert_eq!(through_the_codec(&s, limit).dump(), s.dump(), "{limit}");
                }
            }
            agrees(&s, &m);
            assert_eq!(s.executed(), executed);
        }
    }

    #[test]
    fn the_store_agrees_with_a_naive_model_on_every_seed() {
        forall(24, walk);
    }
}
