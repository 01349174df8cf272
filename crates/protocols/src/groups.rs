//! What the three WAN protocols share.
//!
//! - **Zone replication.** WanKeeper and Vertical Paxos both commit commands
//!   inside a *zone-local Paxos group*: the zone leader sequences payloads
//!   per key, multicasts them to its zone peers, and commits on a
//!   zone-majority of acks. [`ZoneRep`] implements that sequencing/quorum
//!   bookkeeping generically over the payload type, so each protocol only
//!   decides *what* to replicate and what to do on commit. The group leader
//!   is, by convention, node `z.0` of each zone.
//! - **Owner state.** [`Kv`] is a key's authoritative value and version at
//!   the zone that owns it (WanKeeper's token holder, VPaxos's owner); it
//!   moves whole with the key.
//! - **Locality policy.** [`Locality`] is the paper's "simple
//!   three-consecutive access policy" that WPaxos, WanKeeper and VPaxos all
//!   adapt placement by, counted where every access of a key is seen: at its
//!   owner (WPaxos) or at the master (WanKeeper, VPaxos).

use paxi_core::command::{Key, Op, Value};
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::quorum::majority;
use paxi_core::traits::Context;
use std::collections::{BTreeMap, HashMap};

/// Consecutive accesses from one zone after which a key's locality counts
/// as settled there (the paper's three-consecutive access policy).
pub const LOCALITY_WINDOW: usize = 3;

/// The origin zones of a key's latest accesses, as far as the policy needs
/// them: the zone of the last access and how many in a row came from it.
#[derive(Debug, Default)]
pub(crate) struct Locality {
    last: Option<u8>,
    run: usize,
}

impl Locality {
    /// Records one access from `zone`.
    pub(crate) fn note(&mut self, zone: u8) {
        if self.last == Some(zone) {
            self.run += 1;
        } else {
            self.last = Some(zone);
            self.run = 1;
        }
    }

    /// Whether the last [`LOCALITY_WINDOW`] accesses all came from `zone`.
    pub(crate) fn settled_on(&self, zone: u8) -> bool {
        self.last == Some(zone) && self.run >= LOCALITY_WINDOW
    }

    /// Forgets every access: the key moved, so the count starts over.
    pub(crate) fn clear(&mut self) {
        *self = Locality::default();
    }
}

/// A key's authoritative state at the zone that owns it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Kv {
    pub(crate) value: Option<Value>,
    /// Writes applied to the key so far.
    pub(crate) version: u64,
}

impl Kv {
    /// Executes `op` on the key; returns what its client is answered: the
    /// value read, or the one a write replaced.
    pub(crate) fn apply(&mut self, op: &Op) -> Option<Value> {
        match op {
            Op::Get => self.value.clone(),
            Op::Put(v) => {
                self.version += 1;
                self.value.replace(v.clone())
            }
            Op::Delete => {
                self.version += 1;
                self.value.take()
            }
        }
    }
}

#[derive(Debug)]
struct ZEntry<P> {
    payload: P,
    acks: usize,
    committed: bool,
}

#[derive(Debug, Default)]
struct ZLog<P> {
    next_seq: u64,
    commit_upto: u64,
    entries: BTreeMap<u64, ZEntry<P>>,
}

impl<P> ZLog<P> {
    fn new() -> Self {
        ZLog {
            next_seq: 0,
            commit_upto: 0,
            entries: BTreeMap::new(),
        }
    }
}

/// Per-key sequencing and zone-majority commit tracking for a group leader.
#[derive(Debug)]
pub struct ZoneRep<P> {
    peers: Vec<NodeId>,
    quorum: usize,
    logs: HashMap<Key, ZLog<P>>,
}

impl<P: Clone> ZoneRep<P> {
    /// Builds the replicator for the group leader `id` over its zone's nodes.
    pub fn new(id: NodeId, cluster: &ClusterConfig) -> Self {
        let peers: Vec<NodeId> = cluster
            .zone_nodes(id.zone)
            .into_iter()
            .filter(|&p| p != id)
            .collect();
        ZoneRep {
            peers,
            quorum: majority(cluster.per_zone as usize),
            logs: HashMap::new(),
        }
    }

    /// Appends `payload` to `key`'s zone log and multicasts `accept(seq)` to
    /// the zone's peers. The leader's self-ack is recorded immediately (and
    /// in a single-node zone this commits at once — poll
    /// [`ZoneRep::take_committed`] afterwards).
    pub fn replicate<M>(
        &mut self,
        key: Key,
        payload: P,
        ctx: &mut dyn Context<M>,
        accept: impl FnOnce(u64) -> M,
    ) {
        let seq = self.append(key, payload);
        // A multicast to nobody still costs the sender its `t_out` in the
        // simulator, so a single-node zone sends nothing.
        if !self.peers.is_empty() {
            ctx.multicast(&self.peers, accept(seq));
        }
    }

    /// Appends `payload` to `key`'s zone log; returns its sequence number.
    fn append(&mut self, key: Key, payload: P) -> u64 {
        let log = self.logs.entry(key).or_insert_with(ZLog::new);
        let seq = log.next_seq;
        log.next_seq += 1;
        log.entries.insert(
            seq,
            ZEntry {
                payload,
                acks: 1,
                committed: false,
            },
        );
        self.advance(key);
        seq
    }

    /// Records a peer ack for `(key, seq)`.
    pub fn ack(&mut self, key: Key, seq: u64) {
        if let Some(e) = self
            .logs
            .get_mut(&key)
            .and_then(|l| l.entries.get_mut(&seq))
        {
            e.acks += 1;
        }
        self.advance(key);
    }

    fn advance(&mut self, key: Key) {
        let quorum = self.quorum;
        let Some(log) = self.logs.get_mut(&key) else {
            return;
        };
        loop {
            let upto = log.commit_upto;
            let Some(e) = log.entries.get_mut(&upto) else {
                break;
            };
            if e.committed || e.acks >= quorum {
                e.committed = true;
                log.commit_upto += 1;
            } else {
                break;
            }
        }
    }

    /// Pops payloads that are newly committed for `key`, in sequence order.
    /// The caller executes them (applies state, replies to clients).
    pub fn take_committed(&mut self, key: Key) -> Vec<P> {
        let Some(log) = self.logs.get_mut(&key) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Entries below commit_upto that are still present are executable.
        let ready: Vec<u64> = log
            .entries
            .range(..log.commit_upto)
            .map(|(s, _)| *s)
            .collect();
        for s in ready {
            if let Some(e) = log.entries.remove(&s) {
                out.push(e.payload);
            }
        }
        out
    }

    /// Whether every appended payload for `key` has committed (used before
    /// returning a token / transferring ownership).
    pub fn fully_committed(&self, key: Key) -> bool {
        self.logs
            .get(&key)
            .map(|l| l.commit_upto == l.next_seq)
            .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep() -> ZoneRep<&'static str> {
        // Zone 0 of a 3-per-zone cluster: leader 0.0, peers 0.1, 0.2.
        ZoneRep::new(NodeId::new(0, 0), &ClusterConfig::wan(2, 3))
    }

    #[test]
    fn quorum_is_zone_majority() {
        let r = rep();
        assert_eq!(r.quorum, 2);
        assert_eq!(r.peers.len(), 2);
        assert!(r.peers.iter().all(|p| p.zone == 0));
    }

    #[test]
    fn commits_in_sequence_order() {
        let mut r = rep();
        let s0 = r.append(7, "a");
        let s1 = r.append(7, "b");
        assert_eq!((s0, s1), (0, 1));
        // Ack the second first: nothing commits (gap at seq 0).
        r.ack(7, s1);
        assert!(!r.take_committed(7).iter().eq(["b"].iter()));
        assert!(r.take_committed(7).is_empty());
        // Ack the first: both commit, in order.
        r.ack(7, s0);
        assert_eq!(r.take_committed(7), vec!["a", "b"]);
        assert!(r.fully_committed(7));
    }

    #[test]
    fn single_node_zone_commits_immediately() {
        let mut r = ZoneRep::new(NodeId::new(0, 0), &ClusterConfig::wan(2, 1));
        r.append(1, "x");
        assert_eq!(r.take_committed(1), vec!["x"]);
    }

    #[test]
    fn keys_are_independent() {
        let mut r = rep();
        r.append(1, "k1");
        r.append(2, "k2");
        r.ack(2, 0);
        assert_eq!(r.take_committed(2), vec!["k2"]);
        assert!(r.take_committed(1).is_empty());
        assert!(!r.fully_committed(1));
    }

    #[test]
    fn duplicate_acks_do_not_double_commit() {
        let mut r = rep();
        r.append(3, "v");
        r.ack(3, 0);
        assert_eq!(r.take_committed(3).len(), 1);
        r.ack(3, 0);
        assert!(r.take_committed(3).is_empty());
    }
}
