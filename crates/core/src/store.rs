//! Multi-version in-memory key-value datastore.
//!
//! Paxi ships an in-memory multi-version key-value store private to every
//! node; it is the deterministic state machine the replication protocols
//! drive. Every write produces a new [`Version`] that records its parent, so
//! the full per-key history forms a chain (a degenerate DAG). The consensus
//! checker collects these histories from every node and verifies that they
//! share a common prefix, and the linearizability checker uses version values
//! to validate reads.

use crate::command::{Command, Key, Op, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Version {
    /// Per-key sequence number, starting at 1 for the first write.
    pub seq: u64,
    /// Sequence number of the predecessor version (0 = none).
    pub parent: u64,
    /// The value installed by this version; `None` is a delete tombstone.
    pub value: Option<Value>,
}

/// Multi-version store: the deterministic state machine replicas execute
/// committed commands against.
///
/// The store is deliberately single-threaded — each replica owns its private
/// instance and executes commands from its protocol handler, which the
/// runtimes guarantee to be serial.
#[derive(Debug, Default, Clone)]
pub struct MultiVersionStore {
    data: HashMap<Key, Vec<Version>>,
    executed: u64,
    /// Times a chain was replaced or removed rather than extended (range
    /// install, range removal): what invalidates a [`StoreCut`].
    rewrites: u64,
}

/// A consistent view of a store at one instant, without copying it: every
/// key in order with the length its chain had. Chains only grow between
/// rewrites, so `store.history(key)[..len]` stays what it was at the cut for
/// as long as [`MultiVersionStore::holds`] — which lets a snapshot be read
/// out in pieces while the store keeps executing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCut {
    /// `(key, versions at the cut)`, sorted by key.
    pub keys: Vec<(Key, usize)>,
    /// [`MultiVersionStore::executed`] at the cut.
    pub executed: u64,
    rewrites: u64,
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
        self.executed += 1;
        match &cmd.op {
            Op::Get => self.get(cmd.key).cloned(),
            Op::Put(v) => self.install(cmd.key, Some(v.clone())),
            Op::Delete => self.install(cmd.key, None),
        }
    }

    fn install(&mut self, key: Key, value: Option<Value>) -> Option<Value> {
        let chain = self.data.entry(key).or_default();
        let parent = chain.last().map(|v| v.seq).unwrap_or(0);
        let prev = chain.last().and_then(|v| v.value.clone());
        chain.push(Version {
            seq: parent + 1,
            parent,
            value,
        });
        prev
    }

    /// Current (latest non-tombstone) value of `key`.
    pub fn get(&self, key: Key) -> Option<&Value> {
        self.data.get(&key)?.last()?.value.as_ref()
    }

    /// Full version history of `key`, oldest first. Used by the consensus
    /// checker's common-prefix validation.
    pub fn history(&self, key: Key) -> &[Version] {
        self.data.get(&key).map(Vec::as_slice).unwrap_or(&[])
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
        self.data.values().map(Vec::len).sum()
    }

    /// Marks the present state for reading out later; see [`StoreCut`].
    /// Costs one pass over the keys, not the versions.
    pub fn cut(&self) -> StoreCut {
        let mut keys: Vec<(Key, usize)> = self.data.iter().map(|(k, v)| (*k, v.len())).collect();
        keys.sort_unstable_by_key(|(k, _)| *k);
        StoreCut {
            keys,
            executed: self.executed,
            rewrites: self.rewrites,
        }
    }

    /// Whether every chain still starts with what it held at `cut`.
    pub fn holds(&self, cut: &StoreCut) -> bool {
        self.rewrites == cut.rewrites
    }

    /// Appends `versions` to `key`'s chain — how a snapshot read out through
    /// a [`StoreCut`] is put back together. Refuses (and changes nothing)
    /// unless the per-key sequence numbers carry on from the chain's end.
    pub fn extend_chain(&mut self, key: Key, versions: Vec<Version>) -> bool {
        let mut seq = self.history(key).last().map_or(0, |v| v.seq);
        for v in &versions {
            if v.parent != seq || v.seq != seq + 1 {
                return false;
            }
            seq = v.seq;
        }
        if !versions.is_empty() {
            self.data.entry(key).or_default().extend(versions);
        }
        true
    }

    /// Sets the executed-commands counter, the one part of a store that is
    /// not in its chains.
    pub fn set_executed(&mut self, executed: u64) {
        self.executed = executed;
    }

    /// Serializable dump of the whole store: a deep copy, for tests and
    /// small stores (snapshots read the store through [`StoreCut`]). Keys
    /// are sorted so the same state always dumps to the same bytes.
    pub fn dump(&self) -> StoreDump {
        let mut data: Vec<(Key, Vec<Version>)> =
            self.data.iter().map(|(k, v)| (*k, v.clone())).collect();
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

    /// Dumps only the keys in `[lo, hi)` — what a shard migration streams to
    /// the destination group. Sorted by key like [`MultiVersionStore::dump`],
    /// so every replica that froze the range extracts identical bytes. The
    /// dump carries `executed: 0`: the executed counter is replica-local
    /// bookkeeping, not part of the range.
    pub fn extract_range(&self, lo: Key, hi: Key) -> StoreDump {
        let mut data: Vec<(Key, Vec<Version>)> = self
            .data
            .iter()
            .filter(|(k, _)| **k >= lo && **k < hi)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        data.sort_unstable_by_key(|(k, _)| *k);
        StoreDump { data, executed: 0 }
    }

    /// Splices a migrated range's version chains into this store, replacing
    /// any chain already present for those keys (idempotent re-install).
    /// The executed counter is untouched — installs are not executions.
    pub fn install_range(&mut self, dump: StoreDump) {
        self.rewrites += 1;
        for (key, versions) in dump.data {
            self.data.insert(key, versions);
        }
    }

    /// Removes every key in `[lo, hi)` — the source side of a committed
    /// migration dropping the range it handed off.
    pub fn remove_range(&mut self, lo: Key, hi: Key) {
        self.rewrites += 1;
        self.data.retain(|k, _| *k < lo || *k >= hi);
    }
}

/// A serializable image of a [`MultiVersionStore`] — what protocol snapshots
/// embed when they compact their WAL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreDump {
    /// Per-key version chains, sorted by key.
    pub data: Vec<(Key, Vec<Version>)>,
    /// Commands executed so far (reads included).
    pub executed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // History keeps all three versions? (put + delete = 2 versions)
        assert_eq!(s.history(7).len(), 2);
        assert_eq!(s.history(7)[1].value, None);
    }

    #[test]
    fn history_chains_parents() {
        let mut s = MultiVersionStore::new();
        for i in 0..5u8 {
            s.execute(&Command::put(3, vec![i]));
        }
        let h = s.history(3);
        assert_eq!(h.len(), 5);
        for (i, v) in h.iter().enumerate() {
            assert_eq!(v.seq, i as u64 + 1);
            assert_eq!(v.parent, i as u64);
        }
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

    #[test]
    fn range_extract_install_remove() {
        let mut src = MultiVersionStore::new();
        for k in 0..8u64 {
            src.execute(&Command::put(k, vec![k as u8]));
            src.execute(&Command::put(k, vec![k as u8, k as u8]));
        }
        let dump = src.extract_range(2, 4);
        assert_eq!(
            dump.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(dump.executed, 0, "executed counter stays local");

        let mut dst = MultiVersionStore::new();
        dst.execute(&Command::put(9, vec![9]));
        let before = dst.executed();
        dst.install_range(dump.clone());
        assert_eq!(dst.history(2), src.history(2), "full chains move");
        assert_eq!(dst.executed(), before, "install is not an execution");
        dst.install_range(dump); // idempotent
        assert_eq!(dst.history(3).len(), 2);

        src.remove_range(2, 4);
        assert_eq!(src.get(2), None);
        assert_eq!(src.history(3), &[]);
        assert!(
            src.get(1).is_some() && src.get(4).is_some(),
            "outside keys stay"
        );
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
        let mut back = MultiVersionStore::new();
        for &(key, len) in &cut.keys {
            // Put back in two pieces, as chunks would.
            let chain = &s.history(key)[..len];
            assert!(back.extend_chain(key, chain[..1].to_vec()));
            assert!(back.extend_chain(key, chain[1..].to_vec()));
            assert!(
                !back.extend_chain(key, chain[..1].to_vec()),
                "a repeat is refused"
            );
        }
        back.set_executed(cut.executed);
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
        let a = mk(&[1, 2, 3]);
        // Same final state, different insertion history per key set.
        let b = mk(&[1, 2, 3]);
        assert_eq!(a.dump(), b.dump());
    }
}
