//! Elastic shard migration: crash-safe hand-off of a key range between
//! consensus groups.
//!
//! The sharded runtime (`paxi-shard`) statically partitions the keyspace;
//! this module supplies the replicated vocabulary that lets ownership of a
//! key range *move* between groups at run time without losing
//! linearizability — the WPaxos observation that key ownership can itself
//! be an object decided through consensus. A migration is three records,
//! each riding an ordinary group log:
//!
//! 1. [`MigrationRecord::Start`] commits in the **source** group's log.
//!    From the moment it executes, the range is *frozen*: every data
//!    command on a frozen key is deterministically rejected at execute
//!    time (never applied), so the range's contents stop changing at a
//!    well-defined log position on every replica.
//! 2. [`MigrationRecord::Install`] commits in the **destination** group's
//!    log, carrying the frozen range's multi-version state. Because the
//!    range is frozen, any source replica that has executed `Start`
//!    extracts bit-identical state — two competing drivers (a deposed and
//!    a new source leader) propose byte-equal installs, and the tracker
//!    deduplicates by migration id anyway.
//! 3. [`MigrationRecord::Commit`] commits in **both** logs (one record per
//!    [`CommitHalf`]). The source half drops the range from the source
//!    store and switches its rejections from "retry later" to an
//!    epoch-tagged hand-off pointing at the destination; the destination
//!    half bumps the group's routing epoch.
//!
//! Safety argument: the source serves the range only *before* its `Start`
//! executes; the destination serves it only *after* its `Install`
//! executes; `Install` is only proposed once `Start` committed. The two
//! serve windows are therefore disjoint on every interleaving — never
//! dual-ownership — and because all three records are ordinary log
//! commands persisted and replayed by the existing WAL machinery, a crash
//! (freeze or amnesia) of any role at any phase recovers the tracker to
//! exactly the state the log prescribes: exactly one owner, never a lost
//! range (an acknowledged write is either below `Start` and thus inside
//! the streamed state, or was rejected and never acknowledged).
//!
//! A record is the payload of a [`MIGRATION_KEY`] write, encoded by
//! `paxi-codec` ([`MigrationRecord::encode`]). Decoding never panics: a
//! payload that is not a record is an ordinary (never store-executed)
//! write to the reserved key.

use crate::command::{ByteBuf, Bytes, Command, Key, Op};
use crate::group::GroupId;
use crate::store::MultiVersionStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Reserved key carrying migration payloads through the replicated logs.
///
/// One below [`crate::membership::CONFIG_KEY`]; workloads draw keys from
/// `0..K`, so neither reserved key can collide with application data.
/// Protocols never execute commands on this key against the store — the
/// "state" they mutate is the [`MigrationTracker`], applied at execute
/// time so freezes and cut-overs replay deterministically.
pub const MIGRATION_KEY: Key = Key::MAX - 1;

/// A half-open key range `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub lo: Key,
    /// Exclusive upper bound.
    pub hi: Key,
}

impl KeyRange {
    /// The range `[lo, hi)`.
    pub fn new(lo: Key, hi: Key) -> Self {
        KeyRange { lo, hi }
    }

    /// Whether `key` falls inside the range.
    pub fn contains(&self, key: Key) -> bool {
        key >= self.lo && key < self.hi
    }

    /// Whether the range contains no keys.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// The immutable description of one migration, embedded in every record of
/// it: which range moves, from which group to which, and the routing epoch
/// the completed hand-off installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationSpec {
    /// Unique id of the migration (deduplicates re-proposed records).
    pub id: u64,
    /// The group giving the range up.
    pub from: GroupId,
    /// The group receiving the range.
    pub to: GroupId,
    /// The key range changing owner.
    pub range: KeyRange,
    /// The routing epoch the commit installs (must exceed the epoch the
    /// migration was planned under for routers to adopt the override).
    pub epoch: u64,
}

impl MigrationSpec {
    /// Whether the spec describes a real hand-off: a non-empty range moving
    /// between two *different* groups. Trackers ignore invalid specs
    /// entirely, so a malformed or adversarial record can never freeze a
    /// range it could not also hand off.
    pub fn is_valid(&self) -> bool {
        self.from != self.to && !self.range.is_empty()
    }
}

impl fmt::Display for MigrationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migration#{} {} {}→{} e{}",
            self.id, self.range, self.from, self.to, self.epoch
        )
    }
}

/// Which group's log a [`MigrationRecord::Commit`] rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitHalf {
    /// The source group's commit: drop the range, hand off routing.
    Source,
    /// The destination group's commit: adopt the range, bump the epoch.
    Dest,
}

/// One replicated step of a migration. Records ride group logs as ordinary
/// writes to [`MIGRATION_KEY`] and are applied to each replica's
/// [`MigrationTracker`] at execute time.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationRecord {
    /// Phase 1, source log: freeze the range.
    Start(MigrationSpec),
    /// Phase 2, destination log: install the frozen range state (what
    /// [`crate::store::MultiVersionStore::encode_range`] wrote).
    Install {
        /// The migration this install belongs to.
        spec: MigrationSpec,
        /// Encoded multi-version state of the frozen range.
        state: Vec<u8>,
    },
    /// Phase 3, both logs: finish the hand-off on one side.
    Commit {
        /// The migration being committed.
        spec: MigrationSpec,
        /// Which side's log this record rides.
        half: CommitHalf,
    },
}

impl MigrationRecord {
    /// The spec common to every record shape.
    pub fn spec(&self) -> &MigrationSpec {
        match self {
            MigrationRecord::Start(spec)
            | MigrationRecord::Install { spec, .. }
            | MigrationRecord::Commit { spec, .. } => spec,
        }
    }

    /// The group whose log this record must ride — what the sharded
    /// runtime routes the carrying command to.
    pub fn target_group(&self) -> GroupId {
        match self {
            MigrationRecord::Start(spec) => spec.from,
            MigrationRecord::Install { spec, .. } => spec.to,
            MigrationRecord::Commit { spec, half } => match half {
                CommitHalf::Source => spec.from,
                CommitHalf::Dest => spec.to,
            },
        }
    }

    /// Encodes the record as the payload of a [`MIGRATION_KEY`] write.
    /// Panics on range state of 4 GiB or more, which no length prefix
    /// holds.
    pub fn encode(&self) -> Vec<u8> {
        let wire = match *self {
            MigrationRecord::Start(spec) => Wire::Start(spec),
            MigrationRecord::Install { spec, ref state } => Wire::Install {
                spec,
                state: Bytes(state),
            },
            MigrationRecord::Commit { spec, half } => Wire::Commit { spec, half },
        };
        paxi_codec::to_bytes(&wire).expect("range state is shorter than 4 GiB")
    }

    /// Decodes a payload produced by [`MigrationRecord::encode`]. Returns
    /// `None` (never panics) on anything else: an unknown variant,
    /// truncation, trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        Some(match paxi_codec::from_bytes::<Wire<ByteBuf>>(bytes).ok()? {
            Wire::Start(spec) => MigrationRecord::Start(spec),
            Wire::Install { spec, state } => MigrationRecord::Install {
                spec,
                state: state.0,
            },
            Wire::Commit { spec, half } => MigrationRecord::Commit { spec, half },
        })
    }
}

/// A [`MigrationRecord`] as the codec sees it: the range state travels as
/// one byte string, a length and a copy, where a `Vec<u8>` would take a
/// serializer call per byte. The codec writes the same bytes either way.
#[derive(Serialize, Deserialize)]
enum Wire<S> {
    Start(MigrationSpec),
    Install {
        spec: MigrationSpec,
        state: S,
    },
    Commit {
        spec: MigrationSpec,
        half: CommitHalf,
    },
}

/// Wraps a [`MigrationRecord`] as a log-replicable [`Command`]: a write to
/// [`MIGRATION_KEY`] carrying the encoded record.
pub fn migration_command(rec: &MigrationRecord) -> Command {
    Command::put(MIGRATION_KEY, rec.encode())
}

/// If `cmd` is a migration record (a [`MIGRATION_KEY`] write carrying an
/// encoded [`MigrationRecord`]), returns the decoded record.
pub fn as_migration_record(cmd: &Command) -> Option<MigrationRecord> {
    if cmd.key != MIGRATION_KEY {
        return None;
    }
    match &cmd.op {
        Op::Put(v) => MigrationRecord::decode(v),
        _ => None,
    }
}

/// One group replica's phase in a migration it participates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Source side: `Start` executed, range frozen, awaiting commit.
    SourceFrozen,
    /// Source side: commit executed, range dropped and handed off.
    SourceDone,
    /// Destination side: `Install` executed, awaiting commit.
    DestInstalled,
    /// Destination side: commit executed, range owned at the new epoch.
    DestDone,
}

/// What the protocol must do to its store after applying a record — the
/// tracker never touches the store itself, so the protocol controls
/// exactly where in its execute loop the mutation lands.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationAction {
    /// Nothing beyond the tracker transition.
    None,
    /// Destination install: splice this range state into the store.
    Install(MultiVersionStore),
    /// Source commit: remove the range's keys from the store.
    DropRange(KeyRange),
}

/// Why a data command on a migrating range was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReject {
    /// The migration freezing (or having dropped) the key.
    pub spec: MigrationSpec,
    /// Whether the source half has committed: `false` means the freeze
    /// window (retry here later), `true` means the range is gone from this
    /// group for good (follow the hand-off to `spec.to`).
    pub committed: bool,
}

/// What a snapshot image holds of a [`MigrationTracker`]: compaction
/// discards the log below the image's base, so the freezes and hand-offs
/// recorded there must live on in the image. The group identity is
/// deployment config, not replicated state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerState {
    /// [`MigrationTracker::epoch`].
    pub epoch: u64,
    /// Every migration the replica takes part in, in id order, with its
    /// phase.
    pub entries: Vec<(MigrationSpec, MigrationPhase)>,
}

/// Per-group-replica migration state machine, applied at execute/apply
/// time inside the protocol so that crash-recovery replay (including full
/// log re-execution after amnesia) reconstructs freezes, installs, and
/// cut-overs deterministically.
///
/// The tracker is inert until [`MigrationTracker::set_group`] tells it
/// which group its replica serves — unsharded deployments never call it,
/// so they pay nothing and stay event-identical to the pre-migration
/// build.
#[derive(Debug, Clone, Default)]
pub struct MigrationTracker {
    group: Option<GroupId>,
    entries: BTreeMap<u64, (MigrationSpec, MigrationPhase)>,
    epoch: u64,
}

impl MigrationTracker {
    /// An inert tracker (no group identity yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tells the tracker which consensus group its replica serves. Sharded
    /// factories call this once at construction.
    pub fn set_group(&mut self, group: GroupId) {
        self.group = Some(group);
    }

    /// The group this tracker serves, if sharded.
    pub fn group(&self) -> Option<GroupId> {
        self.group
    }

    /// The highest routing epoch a committed migration installed here.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies one replicated record, returning the store mutation the
    /// protocol must perform. Records for other groups, invalid specs,
    /// duplicates, and out-of-order commits are all ignored (idempotent —
    /// drivers re-propose records freely).
    pub fn apply(&mut self, rec: &MigrationRecord) -> MigrationAction {
        let Some(group) = self.group else {
            return MigrationAction::None;
        };
        let spec = *rec.spec();
        if !spec.is_valid() {
            return MigrationAction::None;
        }
        match rec {
            MigrationRecord::Start(_) if spec.from == group => {
                self.entries
                    .entry(spec.id)
                    .or_insert((spec, MigrationPhase::SourceFrozen));
                MigrationAction::None
            }
            MigrationRecord::Install { state, .. } if spec.to == group => {
                if self.entries.contains_key(&spec.id) {
                    return MigrationAction::None; // duplicate install
                }
                // An undecodable state payload is ignored outright: marking
                // the install done without the data would lose the range.
                let Some(range) = MultiVersionStore::decode_range(state) else {
                    return MigrationAction::None;
                };
                self.entries
                    .insert(spec.id, (spec, MigrationPhase::DestInstalled));
                MigrationAction::Install(range)
            }
            MigrationRecord::Commit {
                half: CommitHalf::Source,
                ..
            } if spec.from == group => match self.entries.get_mut(&spec.id) {
                Some(e) if e.1 == MigrationPhase::SourceFrozen => {
                    e.1 = MigrationPhase::SourceDone;
                    self.epoch = self.epoch.max(spec.epoch);
                    MigrationAction::DropRange(spec.range)
                }
                _ => MigrationAction::None,
            },
            MigrationRecord::Commit {
                half: CommitHalf::Dest,
                ..
            } if spec.to == group => {
                match self.entries.get_mut(&spec.id) {
                    Some(e) if e.1 == MigrationPhase::DestInstalled => {
                        e.1 = MigrationPhase::DestDone;
                        self.epoch = self.epoch.max(spec.epoch);
                    }
                    _ => {}
                }
                MigrationAction::None
            }
            _ => MigrationAction::None,
        }
    }

    /// If `key` belongs to a range this group froze or handed off, the
    /// data command must be rejected instead of executed. Returns the
    /// rejection context (`committed` selects retry-later vs hand-off).
    pub fn rejects(&self, key: Key) -> Option<MigrationReject> {
        let group = self.group?;
        self.entries.values().find_map(|(spec, phase)| {
            if spec.from != group || !spec.range.contains(key) {
                return None;
            }
            match phase {
                MigrationPhase::SourceFrozen => Some(MigrationReject {
                    spec: *spec,
                    committed: false,
                }),
                MigrationPhase::SourceDone => Some(MigrationReject {
                    spec: *spec,
                    committed: true,
                }),
                _ => None,
            }
        })
    }

    /// Migrations this group is the source of, frozen but not committed —
    /// the driver's to-do list for phases 2 and 3.
    pub fn outbound_pending(&self) -> Vec<MigrationSpec> {
        self.entries
            .values()
            .filter(|(_, p)| *p == MigrationPhase::SourceFrozen)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Migrations this group installed but has not seen committed — a
    /// driver re-proposes the destination commit for these.
    pub fn inbound_pending(&self) -> Vec<MigrationSpec> {
        self.entries
            .values()
            .filter(|(_, p)| *p == MigrationPhase::DestInstalled)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Whether this group has installed migration `id`'s range state
    /// (committed or not) — the driver's phase-2-done predicate.
    pub fn installed(&self, id: u64) -> bool {
        matches!(
            self.entries.get(&id),
            Some((_, MigrationPhase::DestInstalled)) | Some((_, MigrationPhase::DestDone))
        )
    }

    /// Whether migration `id` has fully committed on this side.
    pub fn done(&self, id: u64) -> bool {
        matches!(
            self.entries.get(&id),
            Some((_, MigrationPhase::SourceDone)) | Some((_, MigrationPhase::DestDone))
        )
    }

    /// Specs of every migration whose commit this replica has executed
    /// (either half) — what routing tables fold into range overrides.
    pub fn completed(&self) -> Vec<MigrationSpec> {
        self.entries
            .values()
            .filter(|(_, p)| matches!(p, MigrationPhase::SourceDone | MigrationPhase::DestDone))
            .map(|(s, _)| *s)
            .collect()
    }

    /// Whether any migration is mid-flight on this replica (frozen or
    /// installed, commit not yet executed) — drives the shard-level
    /// control timer, which stays unarmed (and the event stream untouched)
    /// when this is false.
    pub fn active(&self) -> bool {
        self.entries.values().any(|(_, p)| {
            matches!(
                p,
                MigrationPhase::SourceFrozen | MigrationPhase::DestInstalled
            )
        })
    }

    /// The tracker's replicated state, for a snapshot image.
    pub fn state(&self) -> TrackerState {
        TrackerState {
            epoch: self.epoch,
            entries: self.entries.values().copied().collect(),
        }
    }

    /// Puts entries and epoch at `state`, keeping the group identity.
    pub fn adopt(&mut self, state: &TrackerState) {
        self.epoch = state.epoch;
        self.entries = state.entries.iter().map(|&e| (e.0.id, e)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MultiVersionStore;

    fn spec() -> MigrationSpec {
        MigrationSpec {
            id: 7,
            from: GroupId(0),
            to: GroupId(1),
            range: KeyRange::new(2, 4),
            epoch: 1,
        }
    }

    fn state_of(keys: &[(Key, u8)]) -> Vec<u8> {
        let mut s = MultiVersionStore::new();
        for &(k, v) in keys {
            s.execute(&Command::put(k, vec![v]));
        }
        s.encode_range(0, Key::MAX)
    }

    #[test]
    fn records_round_trip_and_reject_truncation() {
        let records = [
            MigrationRecord::Start(spec()),
            MigrationRecord::Install {
                spec: spec(),
                state: state_of(&[(2, 9), (3, 8)]),
            },
            MigrationRecord::Commit {
                spec: spec(),
                half: CommitHalf::Source,
            },
            MigrationRecord::Commit {
                spec: spec(),
                half: CommitHalf::Dest,
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(MigrationRecord::decode(&bytes), Some(rec.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(MigrationRecord::decode(&bytes[..cut]), None, "cut at {cut}");
            }
            let mut extra = bytes.clone();
            extra.push(0);
            assert_eq!(MigrationRecord::decode(&extra), None, "trailing garbage");
        }
    }

    #[test]
    fn the_state_travels_as_the_bytes_the_derive_writes() {
        let state = state_of(&[(2, 9), (3, 8)]);
        let derived = Wire::Install {
            spec: spec(),
            state: state.clone(),
        };
        let rec = MigrationRecord::Install {
            spec: spec(),
            state,
        };
        assert_eq!(rec.encode(), paxi_codec::to_bytes(&derived).unwrap());
    }

    #[test]
    fn decode_never_accepts_unknown_variants() {
        assert_eq!(MigrationRecord::decode(&[]), None);
        let mut bytes = MigrationRecord::Start(spec()).encode();
        bytes[0] = 3; // a record has three variants
        assert_eq!(MigrationRecord::decode(&bytes), None);
        let mut commit = MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Dest,
        }
        .encode();
        let half = commit.len() - 4;
        commit[half] = 2; // a commit has two halves
        assert_eq!(MigrationRecord::decode(&commit), None);
    }

    #[test]
    fn commands_carry_records_on_the_reserved_key() {
        let rec = MigrationRecord::Start(spec());
        let cmd = migration_command(&rec);
        assert_eq!(cmd.key, MIGRATION_KEY);
        assert_eq!(as_migration_record(&cmd), Some(rec));
        let plain = Command::put(3, MigrationRecord::Start(spec()).encode());
        assert_eq!(
            as_migration_record(&plain),
            None,
            "ordinary keys never decode"
        );
    }

    #[test]
    fn target_groups_follow_the_protocol_phases() {
        assert_eq!(MigrationRecord::Start(spec()).target_group(), GroupId(0));
        assert_eq!(
            MigrationRecord::Install {
                spec: spec(),
                state: vec![]
            }
            .target_group(),
            GroupId(1)
        );
        assert_eq!(
            MigrationRecord::Commit {
                spec: spec(),
                half: CommitHalf::Source
            }
            .target_group(),
            GroupId(0)
        );
        assert_eq!(
            MigrationRecord::Commit {
                spec: spec(),
                half: CommitHalf::Dest
            }
            .target_group(),
            GroupId(1)
        );
    }

    #[test]
    fn source_tracker_freezes_then_drops() {
        let mut t = MigrationTracker::new();
        t.set_group(GroupId(0));
        assert_eq!(t.rejects(3), None);
        assert_eq!(
            t.apply(&MigrationRecord::Start(spec())),
            MigrationAction::None
        );
        let r = t.rejects(3).expect("frozen key rejects");
        assert!(!r.committed);
        assert_eq!(t.rejects(4), None, "outside the range");
        assert_eq!(t.outbound_pending(), vec![spec()]);
        assert!(t.active());
        let action = t.apply(&MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Source,
        });
        assert_eq!(action, MigrationAction::DropRange(KeyRange::new(2, 4)));
        assert!(t.rejects(2).expect("dropped key still rejects").committed);
        assert_eq!(t.epoch(), 1);
        assert!(t.done(7) && !t.active());
        assert_eq!(t.completed(), vec![spec()]);
    }

    #[test]
    fn dest_tracker_installs_once_then_commits() {
        let mut t = MigrationTracker::new();
        t.set_group(GroupId(1));
        let state = state_of(&[(2, 5)]);
        let install = MigrationRecord::Install {
            spec: spec(),
            state,
        };
        let MigrationAction::Install(range) = t.apply(&install) else {
            panic!("first install must carry the state");
        };
        assert_eq!(range.get(2), Some(&[5][..]));
        assert_eq!(
            t.apply(&install),
            MigrationAction::None,
            "duplicate install ignored"
        );
        assert!(t.installed(7) && !t.done(7));
        assert_eq!(t.inbound_pending(), vec![spec()]);
        // Commit out of order on the wrong half is ignored.
        t.apply(&MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Source,
        });
        assert!(!t.done(7));
        t.apply(&MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Dest,
        });
        assert!(t.done(7));
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.rejects(3), None, "destinations never reject");
    }

    #[test]
    fn ungrouped_and_foreign_trackers_stay_inert() {
        let mut inert = MigrationTracker::new();
        assert_eq!(
            inert.apply(&MigrationRecord::Start(spec())),
            MigrationAction::None
        );
        assert!(!inert.active());
        assert_eq!(inert.rejects(3), None);

        let mut other = MigrationTracker::new();
        other.set_group(GroupId(5));
        other.apply(&MigrationRecord::Start(spec()));
        assert!(!other.active(), "records for other groups are ignored");
    }

    #[test]
    fn invalid_specs_never_freeze_anything() {
        let mut t = MigrationTracker::new();
        t.set_group(GroupId(0));
        let same_group = MigrationSpec {
            to: GroupId(0),
            ..spec()
        };
        t.apply(&MigrationRecord::Start(same_group));
        let empty = MigrationSpec {
            range: KeyRange::new(4, 4),
            ..spec()
        };
        t.apply(&MigrationRecord::Start(empty));
        assert!(!t.active());
        assert_eq!(t.rejects(3), None);
    }

    #[test]
    fn commit_before_start_is_ignored() {
        let mut t = MigrationTracker::new();
        t.set_group(GroupId(0));
        let action = t.apply(&MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Source,
        });
        assert_eq!(action, MigrationAction::None);
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.rejects(3), None);
    }

    #[test]
    fn tracker_state_is_adopted_whole_and_keeps_the_group() {
        let mut t = MigrationTracker::new();
        t.set_group(GroupId(0));
        t.apply(&MigrationRecord::Start(spec()));
        t.apply(&MigrationRecord::Commit {
            spec: spec(),
            half: CommitHalf::Source,
        });
        let state = t.state();
        assert_eq!(state.entries, vec![(spec(), MigrationPhase::SourceDone)]);

        let mut back = MigrationTracker::new();
        back.set_group(GroupId(0));
        back.apply(&MigrationRecord::Start(MigrationSpec { id: 8, ..spec() }));
        back.adopt(&state);
        assert_eq!(back.state(), state, "what it held before is gone");
        assert_eq!(back.group(), Some(GroupId(0)));
        assert_eq!(back.epoch(), t.epoch());
        assert!(
            back.rejects(2)
                .expect("adopted drop still rejects")
                .committed
        );
    }
}
