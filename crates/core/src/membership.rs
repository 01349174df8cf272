//! Dynamic cluster membership: config changes, joint configurations, and
//! the dual-majority quorum used while a reconfiguration is in flight.
//!
//! The paper evaluates every protocol on a *static* cluster; this module
//! supplies the shared vocabulary that lets the protocols change shape at
//! run time without losing linearizability:
//!
//! * [`ConfigChange`] — a client-requested delta (`add` / `remove` node
//!   sets) against the current voting membership.
//! * [`Membership`] — an *absolute* voting configuration, either
//!   [`Membership::Stable`] (one member set) or [`Membership::Joint`]
//!   (Raft's C_old,new: agreement requires majorities of **both** sets).
//! * [`JointQuorum`] — a [`QuorumTracker`] satisfied only by a majority in
//!   every member set of a configuration; for a stable configuration it
//!   degenerates to the classic single majority.
//!
//! Membership rides the replicated log as an ordinary [`Command`]: a write
//! to the reserved key [`CONFIG_KEY`] whose value is a client's delta or a
//! leader's absolute configuration, encoded by `paxi-codec` as one enum
//! ([`ConfigChange::encode`], [`Membership::encode`]), so neither ever
//! decodes as the other. That keeps every WAL record shape, wire message
//! shape, and cost-model charge identical to the static-membership build —
//! a config entry is just one more command flowing through the existing
//! machinery, persisted and replayed by the same code paths, so a node that
//! crashes mid-transition recovers its configuration exactly as it recovers
//! its log.

use crate::command::{Command, Key, Op};
use crate::id::NodeId;
use crate::quorum::{majority, NodeSet, QuorumTracker};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reserved key carrying membership payloads through the replicated log.
///
/// Workloads draw keys from `0..K`, so the topmost key can never collide
/// with application data. Protocols skip the state-machine execution for
/// commands on this key (the "state" they mutate is the configuration
/// itself, applied at append/choose time, not at execute time).
pub const CONFIG_KEY: Key = Key::MAX;

/// What a [`CONFIG_KEY`] write carries: one type for the key, so a client's
/// request never decodes as a log entry, nor the reverse.
#[derive(Serialize, Deserialize)]
enum ConfigPayload {
    Change(ConfigChange),
    Config(Membership),
}

impl ConfigPayload {
    fn encode(&self) -> Vec<u8> {
        paxi_codec::to_bytes(self).expect("a config holds fewer than 2^32 nodes")
    }
}

/// A requested membership delta: nodes to add and nodes to remove, applied
/// against whatever the current configuration is when the leader sequences
/// the request.
///
/// Deltas — not absolute sets — are what clients submit, because a client
/// does not know which epoch its request will land in. The leader resolves
/// the delta into an absolute [`Membership`] at proposal time, so the log
/// entry itself is idempotent under replay.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfigChange {
    /// Nodes to add to the voting membership.
    pub add: Vec<NodeId>,
    /// Nodes to remove from the voting membership.
    pub remove: Vec<NodeId>,
}

impl ConfigChange {
    /// A change adding `nodes`.
    pub fn add(nodes: Vec<NodeId>) -> Self {
        ConfigChange {
            add: nodes,
            remove: Vec::new(),
        }
    }

    /// A change removing `nodes`.
    pub fn remove(nodes: Vec<NodeId>) -> Self {
        ConfigChange {
            remove: nodes,
            add: Vec::new(),
        }
    }

    /// Resolves the delta against `current`, returning the sorted,
    /// deduplicated target member set. Removals win over additions when a
    /// node appears in both lists, making add-then-remove-the-same-node a
    /// true no-op.
    pub fn apply(&self, current: &[NodeId]) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = current.to_vec();
        set.extend(self.add.iter().copied());
        set.sort_unstable();
        set.dedup();
        set.retain(|n| !self.remove.contains(n));
        set
    }

    /// Whether applying this change to `current` leaves the membership
    /// unchanged.
    pub fn is_noop_on(&self, current: &[NodeId]) -> bool {
        let mut cur = current.to_vec();
        cur.sort_unstable();
        cur.dedup();
        self.apply(current) == cur
    }

    /// Encodes the change as the payload of a [`CONFIG_KEY`] write.
    pub fn encode(&self) -> Vec<u8> {
        ConfigPayload::Change(self.clone()).encode()
    }

    /// Decodes a payload produced by [`ConfigChange::encode`]. Returns
    /// `None` (never panics) on anything else: a configuration, truncation,
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        match paxi_codec::from_bytes(bytes).ok()? {
            ConfigPayload::Change(change) => Some(change),
            ConfigPayload::Config(_) => None,
        }
    }
}

impl fmt::Display for ConfigChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reconfig(+{:?} -{:?})", self.add, self.remove)
    }
}

/// An absolute voting configuration at some epoch.
///
/// Epochs increase by one per committed reconfiguration; the joint stage
/// and its stable successor share an epoch number (the joint configuration
/// *is* the transition to that epoch).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Membership {
    /// One member set; quorums are plain majorities of `members`.
    Stable {
        /// Configuration epoch.
        epoch: u64,
        /// The voting member set, sorted.
        members: Vec<NodeId>,
    },
    /// Raft's C_old,new: both sets vote, and agreement (elections and
    /// commits alike) requires a majority of **each**.
    Joint {
        /// Configuration epoch being transitioned *to*.
        epoch: u64,
        /// The outgoing member set.
        old: Vec<NodeId>,
        /// The incoming member set.
        new: Vec<NodeId>,
    },
}

impl Membership {
    /// The epoch-0 stable configuration over `members`.
    pub fn initial(mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        Membership::Stable { epoch: 0, members }
    }

    /// Configuration epoch.
    pub fn epoch(&self) -> u64 {
        match self {
            Membership::Stable { epoch, .. } | Membership::Joint { epoch, .. } => *epoch,
        }
    }

    /// Whether this is a joint (transitional) configuration.
    pub fn is_joint(&self) -> bool {
        matches!(self, Membership::Joint { .. })
    }

    /// The member sets that must each produce a majority: one for a stable
    /// configuration, two for a joint one.
    pub fn member_sets(&self) -> impl Iterator<Item = &[NodeId]> {
        let (first, second) = match self {
            Membership::Stable { members, .. } => (members.as_slice(), None),
            Membership::Joint { old, new, .. } => (old.as_slice(), Some(new.as_slice())),
        };
        std::iter::once(first).chain(second)
    }

    /// Every node with a vote in this configuration (union of the member
    /// sets), sorted and deduplicated.
    pub fn voters(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.member_sets().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether `id` has a vote in this configuration.
    pub fn contains(&self, id: NodeId) -> bool {
        self.member_sets().any(|s| s.contains(&id))
    }

    /// The member set this configuration is heading toward: `new` for a
    /// joint configuration, `members` for a stable one.
    pub fn target(&self) -> &[NodeId] {
        match self {
            Membership::Stable { members, .. } => members,
            Membership::Joint { new, .. } => new,
        }
    }

    /// The stable configuration this one resolves to (identity for stable).
    pub fn to_stable(&self) -> Membership {
        Membership::Stable {
            epoch: self.epoch(),
            members: self.target().to_vec(),
        }
    }

    /// Encodes the configuration as the payload of a [`CONFIG_KEY`] write.
    pub fn encode(&self) -> Vec<u8> {
        ConfigPayload::Config(self.clone()).encode()
    }

    /// Decodes a payload produced by [`Membership::encode`]. Returns `None`
    /// (never panics) on anything else: a delta, truncation, trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        match paxi_codec::from_bytes(bytes).ok()? {
            ConfigPayload::Config(m) => Some(m),
            ConfigPayload::Change(_) => None,
        }
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Membership::Stable { epoch, members } => {
                write!(f, "stable(e{epoch}, {} members)", members.len())
            }
            Membership::Joint { epoch, old, new } => {
                write!(f, "joint(e{epoch}, {}→{})", old.len(), new.len())
            }
        }
    }
}

/// Wraps a [`ConfigChange`] as a log-replicable [`Command`]: a write to
/// [`CONFIG_KEY`] carrying the encoded delta.
pub fn reconfig_command(change: &ConfigChange) -> Command {
    Command::put(CONFIG_KEY, change.encode())
}

/// Wraps an absolute [`Membership`] as a log-replicable [`Command`] — the
/// form leaders append after resolving a client's delta.
pub fn membership_command(m: &Membership) -> Command {
    Command::put(CONFIG_KEY, m.encode())
}

/// If `cmd` is a reconfiguration *request* (a [`CONFIG_KEY`] write carrying
/// an encoded [`ConfigChange`]), returns the decoded delta.
pub fn as_config_change(cmd: &Command) -> Option<ConfigChange> {
    config_payload(cmd).and_then(ConfigChange::decode)
}

/// If `cmd` is a membership *log entry* (a [`CONFIG_KEY`] write carrying an
/// encoded absolute [`Membership`]), returns the decoded configuration.
pub fn as_membership(cmd: &Command) -> Option<Membership> {
    config_payload(cmd).and_then(Membership::decode)
}

fn config_payload(cmd: &Command) -> Option<&[u8]> {
    if cmd.key != CONFIG_KEY {
        return None;
    }
    match &cmd.op {
        Op::Put(v) => Some(v.as_slice()),
        _ => None,
    }
}

/// A quorum tracker over every member set of a [`Membership`]: satisfied
/// only when a majority of *each* set has acked. For a stable configuration
/// this is exactly the classic majority quorum; for a joint configuration
/// it is Raft's dual-majority commit/election rule.
///
/// Acks from nodes outside every member set are recorded (they count as
/// "newly seen") but can never help satisfy the quorum — a removed node
/// still answering as a learner cannot pollute agreement.
#[derive(Debug, Clone)]
pub struct JointQuorum {
    sets: Vec<Vec<NodeId>>,
    acks: NodeSet,
}

impl JointQuorum {
    /// Tracker for the member sets of `m`.
    pub fn of(m: &Membership) -> Self {
        JointQuorum {
            sets: m.member_sets().map(<[NodeId]>::to_vec).collect(),
            acks: NodeSet::new(),
        }
    }

    /// Tracker over one plain member set (a stable configuration).
    pub fn single(members: Vec<NodeId>) -> Self {
        JointQuorum {
            sets: vec![members],
            acks: NodeSet::new(),
        }
    }
}

impl QuorumTracker for JointQuorum {
    fn ack(&mut self, id: NodeId) -> bool {
        self.acks.insert(id)
    }

    fn satisfied(&self) -> bool {
        self.sets.iter().all(|set| {
            let got = set.iter().filter(|&&n| self.acks.contains(n)).count();
            got >= majority(set.len().max(1))
        })
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

    fn n(zone: u8, node: u8) -> NodeId {
        NodeId::new(zone, node)
    }

    fn five() -> Vec<NodeId> {
        (0..5).map(|i| n(0, i)).collect()
    }

    #[test]
    fn apply_adds_removes_and_dedups() {
        let change = ConfigChange {
            add: vec![n(0, 5), n(0, 5)],
            remove: vec![n(0, 4)],
        };
        assert_eq!(
            change.apply(&five()),
            vec![n(0, 0), n(0, 1), n(0, 2), n(0, 3), n(0, 5)]
        );
    }

    #[test]
    fn add_then_remove_same_node_is_noop() {
        let change = ConfigChange {
            add: vec![n(0, 5)],
            remove: vec![n(0, 5)],
        };
        assert!(change.is_noop_on(&five()));
        assert_eq!(change.apply(&five()), five());
    }

    #[test]
    fn change_round_trips_and_rejects_truncation() {
        let change = ConfigChange {
            add: vec![n(1, 2)],
            remove: vec![n(0, 4), n(3, 3)],
        };
        let bytes = change.encode();
        assert_eq!(ConfigChange::decode(&bytes), Some(change));
        for cut in 0..bytes.len() {
            assert_eq!(ConfigChange::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(ConfigChange::decode(&extra), None, "trailing garbage");
    }

    #[test]
    fn membership_round_trips_both_variants() {
        let stable = Membership::Stable {
            epoch: 7,
            members: five(),
        };
        let joint = Membership::Joint {
            epoch: 8,
            old: five(),
            new: vec![n(0, 0), n(1, 0)],
        };
        for m in [stable, joint] {
            let bytes = m.encode();
            assert_eq!(Membership::decode(&bytes), Some(m.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(Membership::decode(&bytes[..cut]), None, "cut at {cut}");
            }
        }
    }

    #[test]
    fn decode_never_accepts_the_other_payload_or_an_unknown_one() {
        let change = ConfigChange::add(vec![n(0, 5)]).encode();
        let config = Membership::initial(five()).encode();
        assert_eq!(Membership::decode(&change), None);
        assert_eq!(ConfigChange::decode(&config), None);
        assert_eq!(Membership::decode(&[]), None);
        let mut unknown = config;
        unknown[0] = 2; // the payload enum has two variants
        assert_eq!(Membership::decode(&unknown), None);
        assert_eq!(ConfigChange::decode(&unknown), None);
    }

    #[test]
    fn a_change_naming_every_node_round_trips() {
        let every: Vec<NodeId> = (0..=u8::MAX)
            .flat_map(|zone| (0..=u8::MAX).map(move |node| n(zone, node)))
            .collect();
        assert_eq!(every.len(), 1 << 16);
        let change = ConfigChange::add(every);
        let back = as_config_change(&reconfig_command(&change));
        let kept = back.as_ref().map(|c| c.add.len());
        assert!(back == Some(change), "{kept:?} of 65536 nodes came back");
    }

    #[test]
    fn commands_carry_configs_on_the_reserved_key() {
        let change = ConfigChange::add(vec![n(0, 5)]);
        let cmd = reconfig_command(&change);
        assert_eq!(cmd.key, CONFIG_KEY);
        assert_eq!(as_config_change(&cmd), Some(change));
        assert_eq!(
            as_membership(&cmd),
            None,
            "a delta is not an absolute config"
        );

        let m = Membership::initial(five());
        let cmd = membership_command(&m);
        assert_eq!(as_membership(&cmd), Some(m));
        assert_eq!(as_config_change(&cmd), None);

        let plain = Command::put(3, Membership::initial(five()).encode());
        assert_eq!(as_membership(&plain), None, "ordinary keys never decode");
    }

    #[test]
    fn joint_quorum_needs_both_majorities() {
        let m = Membership::Joint {
            epoch: 1,
            old: vec![n(0, 0), n(0, 1), n(0, 2)],
            new: vec![n(0, 2), n(0, 3), n(0, 4)],
        };
        let mut q = JointQuorum::of(&m);
        q.ack(n(0, 0));
        q.ack(n(0, 1));
        assert!(!q.satisfied(), "old majority alone is not enough");
        q.ack(n(0, 3));
        assert!(!q.satisfied(), "one ack in new is not a majority of it");
        q.ack(n(0, 4));
        assert!(q.satisfied());
    }

    #[test]
    fn joint_quorum_ignores_outsider_acks() {
        let m = Membership::Stable {
            epoch: 0,
            members: vec![n(0, 0), n(0, 1), n(0, 2)],
        };
        let mut q = JointQuorum::of(&m);
        assert!(q.ack(n(9, 9)), "outsider ack is recorded");
        assert!(q.ack(n(9, 8)));
        assert!(!q.satisfied(), "outsiders never satisfy the quorum");
        q.ack(n(0, 0));
        q.ack(n(0, 1));
        assert!(q.satisfied());
    }

    #[test]
    fn stable_joint_quorum_matches_plain_majority() {
        let members = five();
        let mut q = JointQuorum::single(members.clone());
        for (i, node) in members.iter().enumerate() {
            q.ack(*node);
            assert_eq!(q.satisfied(), i + 1 >= majority(members.len()));
        }
        q.reset();
        assert_eq!(q.count(), 0);
        assert!(!q.satisfied());
    }

    #[test]
    fn voters_union_and_target() {
        let joint = Membership::Joint {
            epoch: 3,
            old: vec![n(0, 1), n(0, 0)],
            new: vec![n(0, 1), n(0, 2)],
        };
        assert_eq!(joint.voters(), vec![n(0, 0), n(0, 1), n(0, 2)]);
        assert!(joint.contains(n(0, 0)) && joint.contains(n(0, 2)));
        assert!(!joint.contains(n(1, 0)));
        assert_eq!(joint.target(), &[n(0, 1), n(0, 2)]);
        assert_eq!(
            joint.to_stable(),
            Membership::Stable {
                epoch: 3,
                members: vec![n(0, 1), n(0, 2)]
            }
        );
    }
}
