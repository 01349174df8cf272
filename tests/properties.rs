//! Property-based tests over the core data structures and invariants.
//!
//! Each property runs for 256 seeded cases ([`forall`]); a failure prints
//! the seed that replays it.

use paxi::codec;
use paxi::core::dist::{forall, KeyDist, KeySampler, Rng64};
use paxi::core::metrics::Histogram;
use paxi::core::quorum::{FlexibleGridQuorum, GridPhase, QuorumTracker};
use paxi::core::store::{MultiVersionStore, Version};
use paxi::core::{Ballot, Command, GroupId, Nanos, NodeId};
use paxi::shard::{HashPartitioner, Partitioner, RangePartitioner};
use serde::{Deserialize, Serialize};

/// Cases per property.
const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn between(rng: &mut Rng64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// `lo..hi` items drawn by `item`.
fn vec_of<T>(rng: &mut Rng64, lo: u64, hi: u64, mut item: impl FnMut(&mut Rng64) -> T) -> Vec<T> {
    (0..between(rng, lo, hi)).map(|_| item(rng)).collect()
}

fn bytes(rng: &mut Rng64, lo: u64, hi: u64) -> Vec<u8> {
    vec_of(rng, lo, hi, |r| r.next_u64() as u8)
}

/// Up to `max` chars, spread over the one- to four-byte UTF-8 widths.
fn text(rng: &mut Rng64, max: u64) -> String {
    let widths = [
        (0x20, 0x7F),
        (0x80, 0x800),
        (0x800, 0xD800),
        (0x1_0000, 0x11_0000),
    ];
    (0..between(rng, 0, max + 1))
        .map(|_| {
            let (lo, hi) = widths[rng.below(4) as usize];
            char::from_u32(between(rng, lo, hi) as u32).expect("no surrogate is drawn")
        })
        .collect()
}

fn wire_blob(rng: &mut Rng64) -> Blob {
    Blob {
        a: rng.next_u64() as u8,
        b: rng.next_u64() as i64,
        c: text(rng, 32),
        d: bytes(rng, 0, 64),
        e: rng
            .chance(0.5)
            .then(|| (rng.next_u64() as u32, text(rng, 8))),
        f: vec_of(rng, 0, 8, |r| r.chance(0.5).then(|| r.chance(0.5))),
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Blob {
    a: u8,
    b: i64,
    c: String,
    d: Vec<u8>,
    e: Option<(u32, String)>,
    f: Vec<Option<bool>>,
}

#[test]
fn codec_roundtrips_arbitrary_structures() {
    forall(CASES, |rng| {
        let blob = wire_blob(rng);
        let bytes = codec::to_bytes(&blob).unwrap();
        let back: Blob = codec::from_bytes(&bytes).unwrap();
        assert_eq!(blob, back);
    });
}

#[test]
fn codec_rejects_truncation() {
    forall(CASES, |rng| {
        let blob = wire_blob(rng);
        let bytes = codec::to_bytes(&blob).unwrap();
        if bytes.len() > 1 {
            // Truncating the payload must never decode into a full value
            // plus zero remaining bytes (i.e. from_bytes must error).
            let r: codec::Result<Blob> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            assert!(r.is_err());
        }
    });
}

#[test]
fn histogram_quantiles_are_ordered_and_bounded() {
    forall(CASES, |rng| {
        let mut samples = vec_of(rng, 1, 200, |r| between(r, 1, 10_000_000_000));
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Nanos(s));
        }
        samples.sort_unstable();
        let (min, max) = (samples[0], *samples.last().unwrap());
        assert_eq!(h.min().0, min);
        assert_eq!(h.max().0, max);
        let p50 = h.p50().0;
        let p99 = h.p99().0;
        assert!(p50 <= p99);
        assert!(p50 >= min && p99 <= max);
        // Quantile error is bounded by the bucket width (<1% relative).
        // `samples` here is the retired sort-the-whole-vector path, kept in
        // tests only to cross-check the bounded-memory histogram.
        let exact50 = samples[(samples.len() - 1) / 2] as f64;
        assert!((p50 as f64) <= exact50 * 1.01 + 1.0);
        let rank99 = ((0.99 * samples.len() as f64).ceil() as usize).max(1) - 1;
        let exact99 = samples[rank99] as f64;
        assert!((p99 as f64) <= exact99 * 1.01 + 1.0);
        assert!((p99 as f64) >= exact99 * 0.99 - 1.0);
    });
}

#[test]
fn flexible_grid_quorums_always_intersect() {
    forall(CASES, |rng| {
        let zones = between(rng, 1, 6) as u8;
        let per_zone = between(rng, 1, 6) as u8;
        let f_raw = rng.below(5) as u8;
        let fz_raw = rng.below(5) as u8;
        let pick = rng.next_u64();
        let f = f_raw % per_zone;
        let fz = fz_raw % zones;
        // Build one minimal q1 and one minimal q2 from a pseudo-random pick
        // and verify they share a node.
        let mut rng = Rng64::seed(pick);
        let minimal = |phase: GridPhase, rng: &mut Rng64| -> Vec<NodeId> {
            let q = FlexibleGridQuorum::new(zones, per_zone, f, fz, phase);
            // choose zone subset
            let mut zs: Vec<u8> = (0..zones).collect();
            for i in (1..zs.len()).rev() {
                let j = (rng.below((i + 1) as u64)) as usize;
                zs.swap(i, j);
            }
            let zs = &zs[..q.zone_threshold()];
            let mut members = Vec::new();
            for &z in zs {
                let mut ns: Vec<u8> = (0..per_zone).collect();
                for i in (1..ns.len()).rev() {
                    let j = (rng.below((i + 1) as u64)) as usize;
                    ns.swap(i, j);
                }
                for &n in &ns[..q.per_zone_threshold()] {
                    members.push(NodeId::new(z, n));
                }
            }
            members
        };
        let q1 = minimal(GridPhase::One, &mut rng);
        let q2 = minimal(GridPhase::Two, &mut rng);
        assert!(
            q1.iter().any(|n| q2.contains(n)),
            "q1 {:?} and q2 {:?} must intersect (z={} n={} f={} fz={})",
            q1,
            q2,
            zones,
            per_zone,
            f,
            fz
        );
        // And each satisfies its own tracker.
        let mut t1 = FlexibleGridQuorum::new(zones, per_zone, f, fz, GridPhase::One);
        for &n in &q1 {
            t1.ack(n);
        }
        assert!(t1.satisfied());
        let mut t2 = FlexibleGridQuorum::new(zones, per_zone, f, fz, GridPhase::Two);
        for &n in &q2 {
            t2.ack(n);
        }
        assert!(t2.satisfied());
    });
}

#[test]
fn store_history_is_append_only_and_in_write_order() {
    forall(CASES, |rng| {
        let ops = vec_of(rng, 1, 100, |r| {
            (r.below(5), r.chance(0.5), r.next_u64() as u8)
        });
        let mut store = MultiVersionStore::new();
        let mut written: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for (key, is_put, val) in ops {
            if is_put {
                store.execute(&Command::put(key, vec![val]));
                written.entry(key).or_default().push(val);
            } else {
                store.execute(&Command::get(key));
            }
            // A version is its position: the i-th write of a key, and only
            // that, is at index i, whatever happened since.
            let want = written.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            let h = store.history(key);
            assert_eq!(h.len(), want.len());
            for (i, val) in want.iter().enumerate() {
                assert_eq!(h[i], Version::of(Some(std::slice::from_ref(val))));
            }
        }
    });
}

#[test]
fn chains_round_trip_in_chunks_while_the_source_moves_on() {
    forall(CASES, |rng| {
        // A random write (or delete) of up to 40 bytes to one of 6 keys.
        fn write(store: &mut MultiVersionStore, r: &mut Rng64) {
            let key = r.below(6);
            let cmd = if r.chance(0.2) {
                Command::delete(key)
            } else {
                let len = r.below(41) as usize;
                Command::put(key, (0..len).map(|_| r.next_u64() as u8).collect())
            };
            store.execute(&cmd);
        }
        let mut source = MultiVersionStore::new();
        for _ in 0..rng.below(120) {
            write(&mut source, rng);
        }
        let mut cut = source.cut();
        let at_cut = source.dump();
        let limit = rng.below(400) as usize;
        let mut receiver = MultiVersionStore::new();
        while !cut.is_read() {
            // The source executes between the cut and every chunk.
            for _ in 0..rng.below(4) {
                write(&mut source, rng);
            }
            let mut chunk = Vec::new();
            let versions = source.encode_chains(&mut cut, limit, &mut chunk);
            let mut rest = &chunk[..];
            assert_eq!(receiver.extend_chains(&mut rest), Some(versions));
            assert!(rest.is_empty());
        }
        assert!(source.holds(&cut));
        assert!(receiver.is_whole());
        receiver.set_executed(cut.executed);
        assert_eq!(receiver.dump(), at_cut, "digests and values as of the cut");
    });
}

#[test]
fn ballots_are_totally_ordered_and_next_increases() {
    forall(CASES, |rng| {
        let (c1, z1, n1) = (
            rng.below(1000) as u32,
            rng.below(4) as u8,
            rng.below(4) as u8,
        );
        let (c2, z2, n2) = (
            rng.below(1000) as u32,
            rng.below(4) as u8,
            rng.below(4) as u8,
        );
        let a = Ballot {
            counter: c1,
            id: NodeId::new(z1, n1),
        };
        let b = Ballot {
            counter: c2,
            id: NodeId::new(z2, n2),
        };
        // next() always outbids both operands.
        let na = b.next(a.id);
        assert!(na > b);
        // Total order is antisymmetric.
        if a != b {
            assert!((a < b) != (b < a));
        }
    });
}

#[test]
fn key_samplers_stay_in_range() {
    forall(CASES, |rng| {
        let k = between(rng, 1, 5000);
        let seed = rng.next_u64();
        let skew = between(rng, 1, 40) as u32;
        let mut rng = Rng64::seed(seed);
        for dist in [
            KeyDist::Uniform,
            KeyDist::Normal {
                mu: (k / 2) as f64,
                sigma: k as f64 / skew as f64,
            },
            KeyDist::Zipfian {
                s: 1.0 + skew as f64 / 20.0,
                v: 1.0,
            },
            KeyDist::Exponential {
                rate: skew as f64 / k as f64,
            },
        ] {
            let sampler = KeySampler::new(k, dist);
            for _ in 0..50 {
                assert!(sampler.sample(&mut rng) < k);
            }
        }
    });
}

#[test]
fn sequential_histories_never_trigger_the_checker() {
    forall(CASES, |rng| {
        let vals = bytes(rng, 1, 40);
        // A strictly sequential single-client history (write then read, no
        // overlap) is trivially linearizable.
        use paxi::sim::OpRecord;
        use paxi_core::id::ClientId;
        let mut ops = Vec::new();
        let mut t = 0u64;
        let mut last: Option<Vec<u8>>;
        for (i, v) in vals.iter().enumerate() {
            let value = vec![*v, i as u8]; // unique per write
            ops.push(OpRecord {
                client: ClientId(0),
                key: 1,
                write: Some(value.clone()),
                read: None,
                invoke: Nanos(t),
                ret: Nanos(t + 5),
                ok: true,
            });
            t += 10;
            last = Some(value);
            ops.push(OpRecord {
                client: ClientId(0),
                key: 1,
                write: None,
                read: Some(last.clone()),
                invoke: Nanos(t),
                ret: Nanos(t + 5),
                ok: true,
            });
            t += 10;
        }
        assert!(paxi::bench::check_linearizability(&ops).is_empty());
    });
}

#[test]
fn rng_fork_streams_do_not_correlate() {
    forall(CASES, |rng| {
        let seed = rng.next_u64();
        let mut root = Rng64::seed(seed);
        let mut a = root.fork();
        let mut b = root.fork();
        let mut equal = 0;
        for _ in 0..64 {
            if a.next_u64() == b.next_u64() {
                equal += 1;
            }
        }
        assert!(equal < 4, "forked streams look correlated");
    });
}

// --- codec robustness: the WAL's foundation ---
//
// A recovering replica feeds whatever bytes survived the crash straight
// into the codec, so deserialization must *fail*, never panic, on
// garbage: random bytes, truncations, and single-bit flips of valid
// encodings.

#[test]
fn from_bytes_never_panics_on_random_input() {
    forall(CASES, |rng| {
        let bytes = bytes(rng, 0, 256);
        // Ok (a coincidentally valid encoding) and Err are both fine; only
        // a panic fails the test.
        let _ = codec::from_bytes::<Blob>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::paxos::PaxosWal>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::raft::RaftWal>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::epaxos::EpaxosWal>(&bytes);
    });
}

#[test]
fn from_bytes_never_panics_on_bit_flips() {
    forall(CASES, |rng| {
        let blob = wire_blob(rng);
        let idx = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        let mut bytes = codec::to_bytes(&blob).unwrap();
        let i = idx % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = codec::from_bytes::<Blob>(&bytes);
    });
}

#[test]
fn from_bytes_never_panics_on_truncation() {
    forall(CASES, |rng| {
        let blob = wire_blob(rng);
        let cut = rng.next_u64() as usize;
        let bytes = codec::to_bytes(&blob).unwrap();
        let keep = cut % (bytes.len() + 1);
        let _ = codec::from_bytes::<Blob>(&bytes[..keep]);
    });
}

#[test]
fn frame_decoder_never_panics_on_arbitrary_chunks() {
    forall(CASES, |rng| {
        let chunks = vec_of(rng, 0, 8, |r| bytes(r, 0, 64));
        let mut d = codec::FrameDecoder::new();
        for chunk in &chunks {
            d.feed(chunk);
            // Drain until the decoder wants more bytes or rejects the
            // stream (e.g. a length prefix beyond MAX_FRAME) — never panic.
            while let Ok(Some(_)) = d.next_frame() {}
        }
    });
}

#[test]
fn frame_decoder_never_panics_on_corrupted_frames() {
    forall(CASES, |rng| {
        let blob = wire_blob(rng);
        let idx = rng.next_u64() as usize;
        let split = rng.next_u64() as usize;
        let mut frame = codec::encode_frame(&codec::to_bytes(&blob).unwrap());
        let i = idx % frame.len();
        frame[i] ^= 0x40;
        let mut d = codec::FrameDecoder::new();
        let at = split % (frame.len() + 1);
        for chunk in [&frame[..at], &frame[at..]] {
            d.feed(chunk);
            while let Ok(Some(_)) = d.next_frame() {}
        }
    });
}

// --- WAL record round-trips: what the protocols actually persist ---

#[test]
fn paxos_wal_records_round_trip() {
    forall(CASES, |rng| {
        let slot = rng.next_u64();
        let counter = between(rng, 1, 10_000) as u32;
        let (zone, node) = (rng.below(4) as u8, rng.below(4) as u8);
        let key = rng.next_u64();
        let val = bytes(rng, 0, 32);
        let (client, seq) = (rng.next_u64() as u32, rng.next_u64());
        let has_req = rng.chance(0.5);
        use paxi::core::{ClientId, RequestId};
        use paxi::protocols::paxos::PaxosWal;
        let ballot = Ballot {
            counter,
            id: NodeId::new(zone, node),
        };
        let req = has_req.then(|| RequestId::new(ClientId(client), seq));
        for rec in [
            PaxosWal::Ballot(ballot),
            PaxosWal::Accept {
                slot,
                ballot,
                cmds: vec![(Command::put(key, val), req)],
            },
        ] {
            let bytes = codec::to_bytes(&rec).unwrap();
            let back: PaxosWal = codec::from_bytes(&bytes).unwrap();
            assert_eq!(&back, &rec);
            if bytes.len() > 1 {
                let r: codec::Result<PaxosWal> = codec::from_bytes(&bytes[..bytes.len() - 1]);
                assert!(r.is_err(), "truncated WAL record must not decode");
            }
        }
    });
}

#[test]
fn raft_wal_records_round_trip() {
    forall(CASES, |rng| {
        let term = rng.next_u64();
        let prev_index = rng.next_u64();
        let voted = rng
            .chance(0.5)
            .then(|| (rng.below(4) as u8, rng.below(4) as u8));
        let entries = vec_of(rng, 0, 8, |r| (r.next_u64(), r.next_u64(), bytes(r, 0, 16)));
        use paxi::protocols::raft::{RaftEntry, RaftWal};
        let entries: Vec<RaftEntry> = entries
            .into_iter()
            .map(|(t, k, v)| RaftEntry {
                term: t,
                cmd: Command::put(k, v),
                req: None,
            })
            .collect();
        for rec in [
            RaftWal::Term {
                term,
                voted_for: voted.map(|(z, n)| NodeId::new(z, n)),
            },
            RaftWal::Splice {
                prev_index,
                entries,
            },
        ] {
            let bytes = codec::to_bytes(&rec).unwrap();
            let back: RaftWal = codec::from_bytes(&bytes).unwrap();
            assert_eq!(&back, &rec);
        }
    });
}

// --- group-tagged envelopes: the sharded runtime's wire format ---
//
// A sharded deployment multiplexes every group of a node pair over one
// link by wrapping protocol messages in `GroupMsg`. The envelope must
// round-trip exactly (tag and payload), and the frame decoder must
// *fail*, never panic, when group-tagged frames arrive truncated or
// bit-flipped — a byzantine-free but faulty network is in scope.

#[test]
fn group_tagged_envelopes_round_trip() {
    forall(CASES, |rng| {
        let group = rng.next_u64() as u32;
        let blob = wire_blob(rng);
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let bytes = codec::to_bytes(&env).unwrap();
        let back: GroupMsg<Blob> = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.group, env.group, "group tag must survive the wire");
        assert_eq!(back.msg, env.msg);
        // Truncation must error, not mis-tag: a clipped envelope can never
        // decode into a full (group, msg) pair.
        if bytes.len() > 1 {
            let r: codec::Result<GroupMsg<Blob>> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            assert!(r.is_err());
        }
    });
}

#[test]
fn frame_decoder_never_panics_on_truncated_group_frames() {
    forall(CASES, |rng| {
        let group = rng.next_u64() as u32;
        let blob = wire_blob(rng);
        let cut = rng.next_u64() as usize;
        let split = rng.next_u64() as usize;
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let frame = codec::encode_frame(&codec::to_bytes(&env).unwrap());
        let keep = cut % (frame.len() + 1);
        let frame = &frame[..keep];
        let mut d = codec::FrameDecoder::new();
        let at = split % (frame.len() + 1);
        for chunk in [&frame[..at], &frame[at..]] {
            d.feed(chunk);
            // A complete frame from a truncated stream can only be the full
            // original; decoding must still not panic.
            while let Ok(Some(payload)) = d.next_frame() {
                let _ = codec::from_bytes::<GroupMsg<Blob>>(&payload);
            }
        }
    });
}

#[test]
fn frame_decoder_never_panics_on_bit_flipped_group_frames() {
    forall(CASES, |rng| {
        let group = rng.next_u64() as u32;
        let blob = wire_blob(rng);
        let idx = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let mut frame = codec::encode_frame(&codec::to_bytes(&env).unwrap());
        let i = idx % frame.len();
        frame[i] ^= 1 << bit;
        let mut d = codec::FrameDecoder::new();
        d.feed(&frame);
        // A flip in the payload may still frame correctly; the envelope
        // decode must then error or succeed, never panic.
        while let Ok(Some(payload)) = d.next_frame() {
            let _ = codec::from_bytes::<GroupMsg<Blob>>(&payload);
        }
    });
}

// --- membership and migration payloads & WAL records ---
//
// A mid-reconfiguration or mid-migration crash hands recovery whatever
// payload bytes survived; the membership and migration payload decoders
// must round-trip exactly and *fail*, never panic, on truncations and bit
// flips.

#[test]
fn config_change_payloads_round_trip_and_reject_garbage() {
    forall(CASES, |rng| {
        let add = vec_of(rng, 0, 5, |r| (r.below(4) as u8, r.below(8) as u8));
        let remove = vec_of(rng, 0, 5, |r| (r.below(4) as u8, r.below(8) as u8));
        let idx = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        use paxi::core::membership::ConfigChange;
        let change = ConfigChange {
            add: add.into_iter().map(|(z, n)| NodeId::new(z, n)).collect(),
            remove: remove.into_iter().map(|(z, n)| NodeId::new(z, n)).collect(),
        };
        let bytes = change.encode();
        assert_eq!(ConfigChange::decode(&bytes), Some(change.clone()));
        // Every truncation must reject (the node counts are explicit, so a
        // clipped payload can never satisfy them) — and never panic.
        for keep in 0..bytes.len() {
            assert!(ConfigChange::decode(&bytes[..keep]).is_none());
        }
        // A bit flip decodes to something-or-nothing, never a panic.
        let mut flipped = bytes.clone();
        let i = idx % flipped.len();
        flipped[i] ^= 1 << bit;
        let _ = ConfigChange::decode(&flipped);
        // Trailing garbage must reject too.
        let mut padded = bytes;
        padded.push(0);
        assert!(ConfigChange::decode(&padded).is_none());
    });
}

#[test]
fn membership_payloads_round_trip_and_reject_garbage() {
    forall(CASES, |rng| {
        let epoch = rng.next_u64();
        let old = vec_of(rng, 0, 5, |r| (r.below(4) as u8, r.below(8) as u8));
        let new = vec_of(rng, 0, 5, |r| (r.below(4) as u8, r.below(8) as u8));
        let idx = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        use paxi::core::membership::Membership;
        let old: Vec<NodeId> = old.into_iter().map(|(z, n)| NodeId::new(z, n)).collect();
        let new: Vec<NodeId> = new.into_iter().map(|(z, n)| NodeId::new(z, n)).collect();
        for m in [
            Membership::Stable {
                epoch,
                members: old.clone(),
            },
            Membership::Joint { epoch, old, new },
        ] {
            let bytes = m.encode();
            assert_eq!(Membership::decode(&bytes), Some(m.clone()));
            for keep in 0..bytes.len() {
                assert!(Membership::decode(&bytes[..keep]).is_none());
            }
            let mut flipped = bytes.clone();
            let i = idx % flipped.len();
            flipped[i] ^= 1 << bit;
            let _ = Membership::decode(&flipped);
            let mut padded = bytes;
            padded.push(0);
            assert!(Membership::decode(&padded).is_none());
        }
    });
}

#[test]
fn migration_records_round_trip_and_reject_garbage() {
    use paxi::core::migration::{CommitHalf, KeyRange, MigrationRecord, MigrationSpec};
    forall(CASES, |rng| {
        let spec = MigrationSpec {
            id: rng.next_u64(),
            from: GroupId(rng.below(4) as u32),
            to: GroupId(rng.below(4) as u32),
            range: KeyRange::new(rng.next_u64(), rng.next_u64()),
            epoch: rng.next_u64(),
        };
        let state = bytes(rng, 0, 64);
        let half = [CommitHalf::Source, CommitHalf::Dest][rng.below(2) as usize];
        let idx = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        for rec in [
            MigrationRecord::Start(spec),
            MigrationRecord::Install { spec, state },
            MigrationRecord::Commit { spec, half },
        ] {
            let bytes = rec.encode();
            assert_eq!(MigrationRecord::decode(&bytes), Some(rec.clone()));
            for keep in 0..bytes.len() {
                assert!(MigrationRecord::decode(&bytes[..keep]).is_none());
            }
            let mut flipped = bytes.clone();
            let i = idx % flipped.len();
            flipped[i] ^= 1 << bit;
            let _ = MigrationRecord::decode(&flipped);
            let mut padded = bytes;
            padded.push(0);
            assert!(MigrationRecord::decode(&padded).is_none());
        }
    });
}

#[test]
fn epaxos_wal_records_round_trip() {
    forall(CASES, |rng| {
        let (zone, node) = (rng.below(4) as u8, rng.below(4) as u8);
        let (idx, key, seq) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let deps = vec_of(rng, 0, 8, |r| {
            (r.below(4) as u8, r.below(4) as u8, r.next_u64())
        });
        let status_pick = rng.below(3);
        use paxi::protocols::epaxos::{EpaxosWal, IRef, WalStatus};
        let status = match status_pick {
            0 => WalStatus::PreAccepted,
            1 => WalStatus::Accepted,
            _ => WalStatus::Committed,
        };
        let rec = EpaxosWal {
            iref: IRef {
                leader: NodeId::new(zone, node),
                idx,
            },
            cmd: Command::get(key),
            seq,
            deps: deps
                .into_iter()
                .map(|(z, n, i)| IRef {
                    leader: NodeId::new(z, n),
                    idx: i,
                })
                .collect(),
            status,
        };
        let bytes = codec::to_bytes(&rec).unwrap();
        let back: EpaxosWal = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    });
}

#[test]
fn hash_partitioner_is_total_and_owns_agrees_with_group_of() {
    forall(CASES, |rng| {
        let groups = between(rng, 1, 64) as u32;
        let key = rng.next_u64();
        let probe = rng.below(64) as u32;
        // Every key maps to exactly one in-range group, and `owns` is the
        // characteristic function of `group_of` — no key is unowned, none
        // is owned twice.
        let p = HashPartitioner::new(groups);
        assert_eq!(p.groups(), groups);
        let g = p.group_of(key);
        assert!(g.0 < groups, "group {} out of range", g.0);
        assert!(p.owns(g, key));
        let other = GroupId(probe % groups);
        assert_eq!(p.owns(other, key), other == g);
    });
}

#[test]
fn range_partitioner_is_total_and_owns_agrees_with_group_of() {
    forall(CASES, |rng| {
        let key_space = between(rng, 1, 100_000);
        let groups = between(rng, 1, 32) as u32;
        let key = rng.next_u64();
        let probe = rng.below(32) as u32;
        // Totality holds even for keys beyond the declared key space (the
        // last group absorbs them — routing must never panic on a key the
        // workload was not supposed to produce).
        let p = RangePartitioner::even(key_space, groups);
        assert_eq!(p.groups(), groups);
        let g = p.group_of(key);
        assert!(g.0 < groups, "group {} out of range", g.0);
        assert!(p.owns(g, key));
        let other = GroupId(probe % groups);
        assert_eq!(p.owns(other, key), other == g);
    });
}

#[test]
fn range_partitioner_edges_agree_with_group_of() {
    forall(CASES, |rng| {
        let key_space = between(rng, 1, 100_000);
        let groups = between(rng, 1, 32) as u32;
        // `range(g)` and `group_of` must tell the same story at every
        // boundary: the first and last key of each slice belong to it, and
        // the first key past it belongs to the next group — migrations cut
        // ranges exactly at these edges.
        let p = RangePartitioner::even(key_space, groups);
        for gi in 0..groups {
            let g = GroupId(gi);
            let (lo, hi) = p.range(g);
            assert!(lo < hi, "group {gi} has an empty slice [{lo}, {hi})");
            assert_eq!(p.group_of(lo), g);
            assert_eq!(p.group_of(hi - 1), g);
            assert!(p.owns(g, lo) && p.owns(g, hi - 1));
            if gi + 1 < groups {
                assert_eq!(p.group_of(hi), GroupId(gi + 1));
                assert!(!p.owns(g, hi));
            }
        }
    });
}

#[test]
fn single_group_partitioners_map_everything_to_group_0() {
    forall(CASES, |rng| {
        let key_space = between(rng, 1, 100_000);
        let key = rng.next_u64();
        // groups = 1 is the unsharded degenerate case: every key lands in
        // group 0 under both partitioners, so the sharded envelope routes
        // exactly like the plain protocol.
        let hash = HashPartitioner::new(1);
        assert_eq!(hash.group_of(key), GroupId(0));
        assert!(hash.owns(GroupId(0), key));
        let range = RangePartitioner::even(key_space, 1);
        assert_eq!(range.group_of(key), GroupId(0));
        assert!(range.owns(GroupId(0), key));
    });
}
