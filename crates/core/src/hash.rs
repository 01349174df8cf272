//! One fixed, fast hasher for the maps on the event path.
//!
//! `std`'s default `RandomState` seeds SipHash-1-3 from the OS for every
//! map, so a map's iteration order differs between two processes and
//! between two maps of one process, and each lookup pays for a hash built
//! to resist flooding by an adversary. The maps the simulator and the
//! replicas consult on every event are keyed by small integers:
//! [`NodeId`](crate::id::NodeId), [`RequestId`](crate::id::RequestId) and
//! instance references the system assigns, and store keys, which only the
//! repository's own load generators and tests choose. The live transport's
//! tables are keyed alike and consulted on every read, frame, reply and
//! write pass: connection ids it numbers itself, peers' `NodeId`s, and the
//! `ClientId`s and `RequestId`s of the repository's clients, by which it
//! routes replies and a pipelined client matches them. [`FxHasher`] is the
//! multiply-rotate hash rustc uses for such keys: a few instructions per
//! word, and the same output, hence the same iteration order, in every
//! process. It does not resist keys crafted to collide; a store serving
//! untrusted clients would need `RandomState` back.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// Builds [`FxHasher`]s; has no state, so every map built with it hashes
/// alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The word-at-a-time multiply-rotate hash of rustc (`FxHash`): fixed,
/// deterministic, not resistant to chosen keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn every_build_hashes_alike() {
        let a = FxBuildHasher::default();
        let b = FxBuildHasher::default();
        assert_eq!(a.hash_one(NodeId::new(1, 2)), b.hash_one(NodeId::new(1, 2)));
        // Fixed values: a change to the hash changes every map's order.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), SEED);
        assert_ne!(hash_of(NodeId::new(0, 1)), hash_of(NodeId::new(1, 0)));
    }

    #[test]
    fn byte_strings_hash_every_byte() {
        assert_ne!(hash_of("paxos"), hash_of("paxoz"));
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
    }

    #[test]
    fn maps_iterate_in_one_order_in_every_process() {
        let order = || {
            let m: FxHashMap<u64, ()> = (0..64u64).map(|k| (k * 7919, ())).collect();
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(order(), order());
    }
}
