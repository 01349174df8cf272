//! Quorum systems.
//!
//! A quorum system is the key abstraction for ensuring consistency in
//! fault-tolerant distributed computing: a protocol step completes once acks
//! arrive from a set of nodes forming a quorum, and safety follows from any
//! two (relevant) quorums intersecting. Paxi ships several quorum systems out
//! of the box so protocols can probe the design space without changing code:
//!
//! * [`MajorityQuorum`] — classic Paxos majority, `⌊N/2⌋+1`.
//! * [`CountQuorum`] — any fixed number of acks (FPaxos phase-2 quorums,
//!   thrifty variants).
//! * [`FlexibleGridQuorum`] — WPaxos quorums parameterized by per-zone fault
//!   tolerance `f` and zone fault tolerance `fz`.
//!
//! [`fast_quorum_size`] gives the EPaxos fast-path quorum size.
//!
//! Every system exposes the same two-method interface the paper describes:
//! `ack()` and `satisfied()`, and keeps its acks in one [`NodeSet`].

use crate::id::NodeId;

/// The nodes that acked: one bit per node for every id with `zone < 8` and
/// `node < 16` (every cluster the repository runs), so an ack neither hashes
/// nor allocates; any other id goes to a list beside the bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    /// Bit `16 * zone + node` for each member with an in-range id.
    bits: u128,
    /// Members whose id has no bit, in insertion order.
    spill: Vec<NodeId>,
}

impl NodeSet {
    /// The empty set.
    pub const fn new() -> Self {
        NodeSet {
            bits: 0,
            spill: Vec::new(),
        }
    }

    fn bit(id: NodeId) -> Option<u128> {
        (id.zone < 8 && id.node < 16).then(|| 1 << (16 * id.zone as u32 + id.node as u32))
    }

    /// Adds `id`; `true` if it was not a member yet.
    pub fn insert(&mut self, id: NodeId) -> bool {
        match Self::bit(id) {
            Some(b) => {
                let fresh = self.bits & b == 0;
                self.bits |= b;
                fresh
            }
            None if self.spill.contains(&id) => false,
            None => {
                self.spill.push(id);
                true
            }
        }
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        match Self::bit(id) {
            Some(b) => self.bits & b != 0,
            None => self.spill.contains(&id),
        }
    }

    /// How many members.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize + self.spill.len()
    }

    /// Whether there is no member.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many members sit in `zone`.
    pub fn count_in_zone(&self, zone: u8) -> usize {
        let bits = if zone < 8 {
            (self.bits >> (16 * zone as u32)) as u16
        } else {
            0
        };
        bits.count_ones() as usize + self.spill.iter().filter(|n| n.zone == zone).count()
    }

    /// Removes every member (a spilled list keeps its capacity).
    pub fn clear(&mut self) {
        self.bits = 0;
        self.spill.clear();
    }
}

/// Ack-tracking interface shared by all quorum systems.
pub trait QuorumTracker {
    /// Records a (positive) acknowledgement from `id`. Returns `true` if the
    /// ack was newly recorded (not a duplicate).
    fn ack(&mut self, id: NodeId) -> bool;
    /// Whether the collected acks form a quorum.
    fn satisfied(&self) -> bool;
    /// Forgets all collected acks so the tracker can be reused.
    fn reset(&mut self);
    /// Number of distinct acks recorded.
    fn count(&self) -> usize;
}

/// Size of a majority quorum for `n` nodes: `⌊n/2⌋ + 1`.
pub const fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// Size of the EPaxos fast quorum (command leader included) for `n = 2f+1`
/// nodes: `f + ⌊(f+1)/2⌋ + 1`, roughly three quarters of the cluster.
pub const fn fast_quorum_size(n: usize) -> usize {
    let f = n / 2;
    f + f.div_ceil(2) + 1
}

/// Classic majority quorum over `n` nodes.
#[derive(Debug, Clone)]
pub struct MajorityQuorum {
    n: usize,
    acks: NodeSet,
}

impl MajorityQuorum {
    /// Majority tracker for a cluster of `n` nodes.
    pub fn new(n: usize) -> Self {
        MajorityQuorum {
            n,
            acks: NodeSet::new(),
        }
    }

    /// The number of acks required.
    pub fn threshold(&self) -> usize {
        majority(self.n)
    }
}

impl QuorumTracker for MajorityQuorum {
    fn ack(&mut self, id: NodeId) -> bool {
        self.acks.insert(id)
    }
    fn satisfied(&self) -> bool {
        self.acks.len() >= self.threshold()
    }
    fn reset(&mut self) {
        self.acks.clear();
    }
    fn count(&self) -> usize {
        self.acks.len()
    }
}

/// A quorum satisfied by any `size` distinct acks — the building block for
/// FPaxos's small phase-2 quorums and thrifty messaging.
#[derive(Debug, Clone)]
pub struct CountQuorum {
    size: usize,
    acks: NodeSet,
}

impl CountQuorum {
    /// Tracker requiring `size` distinct acks.
    pub fn new(size: usize) -> Self {
        CountQuorum {
            size,
            acks: NodeSet::new(),
        }
    }

    /// The number of acks required.
    pub fn threshold(&self) -> usize {
        self.size
    }
}

impl QuorumTracker for CountQuorum {
    fn ack(&mut self, id: NodeId) -> bool {
        self.acks.insert(id)
    }
    fn satisfied(&self) -> bool {
        self.acks.len() >= self.size
    }
    fn reset(&mut self) {
        self.acks.clear();
    }
    fn count(&self) -> usize {
        self.acks.len()
    }
}

/// Which phase a grid-style quorum serves. Phase-1 quorums run across zones
/// (rows); phase-2 quorums run within zones (columns); any phase-1 quorum
/// intersects any phase-2 quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPhase {
    /// Leader-election / ownership-acquisition phase.
    One,
    /// Replication phase.
    Two,
}

/// WPaxos flexible grid quorum.
///
/// For a grid of `zones` zones with `per_zone` nodes each, tolerating `f`
/// node crashes per zone and `fz` full-zone failures:
///
/// * a **phase-1 (q1)** quorum contains `per_zone − f` nodes from each of
///   `zones − fz` zones;
/// * a **phase-2 (q2)** quorum contains `f + 1` nodes from each of `fz + 1`
///   zones.
///
/// With `fz = 0`, q2 is satisfied entirely inside the leader's own zone,
/// which is what lets WPaxos commit local commands with LAN latency in a WAN
/// deployment. Every q1 intersects every q2 because `(f+1) + (per_zone−f) >
/// per_zone` within a zone and `(fz+1) + (zones−fz) > zones` across zones.
#[derive(Debug, Clone)]
pub struct FlexibleGridQuorum {
    zones: u8,
    per_zone: u8,
    f: u8,
    fz: u8,
    phase: GridPhase,
    acks: NodeSet,
}

impl FlexibleGridQuorum {
    /// Flexible grid tracker for the given phase.
    pub fn new(zones: u8, per_zone: u8, f: u8, fz: u8, phase: GridPhase) -> Self {
        assert!(f < per_zone, "f must be < nodes per zone");
        assert!(fz < zones, "fz must be < number of zones");
        FlexibleGridQuorum {
            zones,
            per_zone,
            f,
            fz,
            phase,
            acks: NodeSet::new(),
        }
    }

    /// Nodes required per zone for this phase.
    pub fn per_zone_threshold(&self) -> usize {
        match self.phase {
            GridPhase::One => (self.per_zone - self.f) as usize,
            GridPhase::Two => (self.f + 1) as usize,
        }
    }

    /// Zones required for this phase.
    pub fn zone_threshold(&self) -> usize {
        match self.phase {
            GridPhase::One => (self.zones - self.fz) as usize,
            GridPhase::Two => (self.fz + 1) as usize,
        }
    }

    /// Total acks in the smallest satisfying set: used by the analytic model
    /// as the quorum size `Q`.
    pub fn size(&self) -> usize {
        self.per_zone_threshold() * self.zone_threshold()
    }
}

impl QuorumTracker for FlexibleGridQuorum {
    fn ack(&mut self, id: NodeId) -> bool {
        self.acks.insert(id)
    }
    fn satisfied(&self) -> bool {
        let needed = self.per_zone_threshold();
        let zones_ok = (0..self.zones)
            .filter(|&z| self.acks.count_in_zone(z) >= needed)
            .count();
        zones_ok >= self.zone_threshold()
    }
    fn reset(&mut self) {
        self.acks.clear();
    }
    fn count(&self) -> usize {
        self.acks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(z: u8, i: u8) -> NodeId {
        NodeId::new(z, i)
    }

    #[test]
    fn majority_sizes() {
        assert_eq!(majority(3), 2);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(9), 5);
        assert_eq!(majority(4), 3);
    }

    #[test]
    fn fast_quorum_sizes_are_about_three_quarters() {
        assert_eq!(fast_quorum_size(5), 4); // f=2 -> 2+1+1
        assert_eq!(fast_quorum_size(9), 7); // f=4 -> 4+2+1
        assert_eq!(fast_quorum_size(3), 3); // f=1 -> 1+1+1
    }

    #[test]
    fn majority_quorum_tracks_distinct_acks() {
        let mut q = MajorityQuorum::new(5);
        assert!(!q.satisfied());
        assert!(q.ack(n(0, 0)));
        assert!(!q.ack(n(0, 0)), "duplicate ack ignored");
        q.ack(n(0, 1));
        assert!(!q.satisfied());
        q.ack(n(0, 2));
        assert!(q.satisfied());
        q.reset();
        assert!(!q.satisfied());
        assert_eq!(q.count(), 0);
    }

    #[test]
    fn flexible_grid_fz0_commits_within_one_zone() {
        // 3 zones x 3 nodes, f=1, fz=0: q2 = 2 nodes in 1 zone.
        let mut q2 = FlexibleGridQuorum::new(3, 3, 1, 0, GridPhase::Two);
        assert_eq!(q2.size(), 2);
        q2.ack(n(1, 0));
        assert!(!q2.satisfied());
        q2.ack(n(1, 2));
        assert!(q2.satisfied());
    }

    #[test]
    fn flexible_grid_fz1_needs_two_zones() {
        let mut q2 = FlexibleGridQuorum::new(3, 3, 1, 1, GridPhase::Two);
        assert_eq!(q2.size(), 4);
        q2.ack(n(0, 0));
        q2.ack(n(0, 1));
        assert!(!q2.satisfied());
        q2.ack(n(2, 0));
        q2.ack(n(2, 1));
        assert!(q2.satisfied());
    }

    #[test]
    fn flexible_grid_q1_q2_intersect() {
        // Exhaustively verify the intersection property on a 3x3 grid for all
        // valid (f, fz): every minimal q1 must intersect every minimal q2.
        // We spot-check by construction: q1 takes zones {0,1} missing fz=1
        // zone 2, q2 takes zone 2... q2 with fz=1 needs 2 zones so overlap
        // with q1's zones is guaranteed.
        let q1 = FlexibleGridQuorum::new(3, 3, 1, 1, GridPhase::One);
        let q2 = FlexibleGridQuorum::new(3, 3, 1, 1, GridPhase::Two);
        // zone overlap: (zones - fz) + (fz + 1) = zones + 1 > zones
        assert!(q1.zone_threshold() + q2.zone_threshold() > 3);
        // node overlap within the shared zone: (per_zone - f) + (f+1) > per_zone
        assert!(q1.per_zone_threshold() + q2.per_zone_threshold() > 3);
    }

    #[test]
    fn count_quorum_exact_threshold() {
        let mut q = CountQuorum::new(3);
        for i in 0..2 {
            q.ack(n(0, i));
        }
        assert!(!q.satisfied());
        q.ack(n(0, 2));
        assert!(q.satisfied());
    }

    /// Acks every id of `ids` in order (each twice), asserting the tracker
    /// is satisfied from the `threshold`-th distinct ack on and not before.
    fn flips_at(q: &mut dyn QuorumTracker, ids: &[NodeId], threshold: usize) {
        for (i, &id) in ids.iter().enumerate() {
            assert!(q.ack(id), "first ack from {id}");
            assert!(!q.ack(id), "a duplicate ack from {id} is not counted");
            assert_eq!(q.count(), i + 1);
            assert_eq!(q.satisfied(), i + 1 >= threshold, "after {} acks", i + 1);
        }
    }

    #[test]
    fn quorums_flip_exactly_at_their_threshold_on_lan9_and_wan5x3() {
        use crate::config::ClusterConfig;
        for cluster in [ClusterConfig::lan(9), ClusterConfig::wan(5, 3)] {
            let ids = cluster.all_nodes();
            let n = ids.len();
            flips_at(&mut MajorityQuorum::new(n), &ids, majority(n));
            flips_at(
                &mut CountQuorum::new(fast_quorum_size(n)),
                &ids,
                fast_quorum_size(n),
            );
            // Reversed, so the last zone fills first.
            let mut rev = ids.clone();
            rev.reverse();
            flips_at(&mut MajorityQuorum::new(n), &rev, majority(n));
        }
        // wan(5, 3), fz = 1: q2 is two nodes in each of two zones. Zone by
        // zone, the fourth ack completes the second zone.
        let ids = ClusterConfig::wan(5, 3).all_nodes();
        let mut q2 = FlexibleGridQuorum::new(5, 3, 1, 1, GridPhase::Two);
        let two_per_zone: Vec<NodeId> = ids.iter().copied().filter(|n| n.node < 2).collect();
        flips_at(&mut q2, &two_per_zone, 4);
        // q1: two nodes in each of four zones.
        let mut q1 = FlexibleGridQuorum::new(5, 3, 1, 1, GridPhase::One);
        flips_at(&mut q1, &two_per_zone, 8);
    }

    #[test]
    fn a_node_set_holds_ids_outside_the_bits_as_well() {
        let mut s = NodeSet::new();
        let far = [n(0, 16), n(8, 0), n(200, 255)];
        for id in far.into_iter().chain([n(7, 15), n(0, 0)]) {
            assert!(!s.contains(id));
            assert!(s.insert(id));
            assert!(!s.insert(id));
            assert!(s.contains(id));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.count_in_zone(0), 2);
        assert_eq!(s.count_in_zone(7), 1);
        assert_eq!(s.count_in_zone(8), 1);
        assert_eq!(s.count_in_zone(3), 0);
        s.clear();
        assert!(s.is_empty());
        assert!(far.iter().all(|&id| !s.contains(id)));
    }
}
