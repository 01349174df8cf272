//! In-zone replication groups.
//!
//! WanKeeper and Vertical Paxos both commit commands inside a *zone-local
//! Paxos group*: the zone leader sequences payloads per key, multicasts them
//! to its zone peers, and commits on a zone-majority of acks. [`ZoneRep`]
//! implements that sequencing/quorum bookkeeping generically over the
//! payload type, so each protocol only decides *what* to replicate and what
//! to do on commit.
//!
//! The group leader is, by convention, node `z.0` of each zone.

use paxi_core::command::Key;
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::quorum::majority;
use std::collections::{BTreeMap, HashMap};

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

    /// The zone peers the leader multicasts to.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Acks needed to commit (leader's self-ack included in the count).
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Appends `payload` to `key`'s zone log; returns the sequence number the
    /// caller should multicast to [`ZoneRep::peers`]. The leader's self-ack
    /// is recorded immediately (and in a single-node zone this commits at
    /// once — poll [`ZoneRep::take_committed`] afterwards).
    pub fn append(&mut self, key: Key, payload: P) -> u64 {
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
        assert_eq!(r.quorum(), 2);
        assert_eq!(r.peers().len(), 2);
        assert!(r.peers().iter().all(|p| p.zone == 0));
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
