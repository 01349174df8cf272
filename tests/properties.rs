//! Property-based tests over the core data structures and invariants.

use paxi::codec;
use paxi::core::dist::{KeyDist, KeySampler, Rng64};
use paxi::core::metrics::Histogram;
use paxi::core::quorum::{FlexibleGridQuorum, GridPhase, QuorumTracker};
use paxi::core::store::MultiVersionStore;
use paxi::core::{Ballot, Command, GroupId, Nanos, NodeId};
use paxi::shard::{HashPartitioner, Partitioner, RangePartitioner};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

// proptest_derive is not in the offline set; build an arbitrary-by-hand
// strategy instead.
mod arb {
    use super::*;

    pub fn wire_blob() -> impl Strategy<Value = super::Blob> {
        (
            any::<u8>(),
            any::<i64>(),
            ".{0,32}",
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::option::of((any::<u32>(), ".{0,8}")),
            proptest::collection::vec(proptest::option::of(any::<bool>()), 0..8),
        )
            .prop_map(|(a, b, c, d, e, f)| super::Blob { a, b, c, d, e, f })
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

proptest! {
    #[test]
    fn codec_roundtrips_arbitrary_structures(blob in arb::wire_blob()) {
        let bytes = codec::to_bytes(&blob).unwrap();
        let back: Blob = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(blob, back);
    }

    #[test]
    fn codec_rejects_truncation(blob in arb::wire_blob()) {
        let bytes = codec::to_bytes(&blob).unwrap();
        if bytes.len() > 1 {
            // Truncating the payload must never decode into a full value
            // plus zero remaining bytes (i.e. from_bytes must error).
            let r: codec::Result<Blob> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded(
        mut samples in proptest::collection::vec(1u64..10_000_000_000, 1..200)
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Nanos(s));
        }
        samples.sort_unstable();
        let (min, max) = (samples[0], *samples.last().unwrap());
        prop_assert_eq!(h.min().0, min);
        prop_assert_eq!(h.max().0, max);
        let p50 = h.p50().0;
        let p99 = h.p99().0;
        prop_assert!(p50 <= p99);
        prop_assert!(p50 >= min && p99 <= max);
        // Quantile error is bounded by the bucket width (<1% relative).
        // `samples` here is the retired sort-the-whole-vector path, kept in
        // tests only to cross-check the bounded-memory histogram.
        let exact50 = samples[(samples.len() - 1) / 2] as f64;
        prop_assert!((p50 as f64) <= exact50 * 1.01 + 1.0);
        let rank99 = ((0.99 * samples.len() as f64).ceil() as usize).max(1) - 1;
        let exact99 = samples[rank99] as f64;
        prop_assert!((p99 as f64) <= exact99 * 1.01 + 1.0);
        prop_assert!((p99 as f64) >= exact99 * 0.99 - 1.0);
    }

    #[test]
    fn flexible_grid_quorums_always_intersect(
        zones in 1u8..6,
        per_zone in 1u8..6,
        f_raw in 0u8..5,
        fz_raw in 0u8..5,
        pick in any::<u64>(),
    ) {
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
        prop_assert!(
            q1.iter().any(|n| q2.contains(n)),
            "q1 {:?} and q2 {:?} must intersect (z={} n={} f={} fz={})",
            q1, q2, zones, per_zone, f, fz
        );
        // And each satisfies its own tracker.
        let mut t1 = FlexibleGridQuorum::new(zones, per_zone, f, fz, GridPhase::One);
        for &n in &q1 { t1.ack(n); }
        prop_assert!(t1.satisfied());
        let mut t2 = FlexibleGridQuorum::new(zones, per_zone, f, fz, GridPhase::Two);
        for &n in &q2 { t2.ack(n); }
        prop_assert!(t2.satisfied());
    }

    #[test]
    fn store_history_is_append_only_and_in_write_order(
        ops in proptest::collection::vec((0u64..5, any::<bool>(), any::<u8>()), 1..100)
    ) {
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
            prop_assert_eq!(h.len(), want.len());
            for (i, val) in want.iter().enumerate() {
                prop_assert_eq!(h[i].value(), Some(std::slice::from_ref(val)));
            }
        }
    }

    #[test]
    fn ballots_are_totally_ordered_and_next_increases(
        c1 in 0u32..1000, z1 in 0u8..4, n1 in 0u8..4,
        c2 in 0u32..1000, z2 in 0u8..4, n2 in 0u8..4,
    ) {
        let a = Ballot { counter: c1, id: NodeId::new(z1, n1) };
        let b = Ballot { counter: c2, id: NodeId::new(z2, n2) };
        // next() always outbids both operands.
        let na = b.next(a.id);
        prop_assert!(na > b);
        // Total order is antisymmetric.
        if a != b {
            prop_assert!((a < b) != (b < a));
        }
    }

    #[test]
    fn key_samplers_stay_in_range(
        k in 1u64..5000,
        seed in any::<u64>(),
        skew in 1u32..40,
    ) {
        let mut rng = Rng64::seed(seed);
        for dist in [
            KeyDist::Uniform,
            KeyDist::Normal { mu: (k / 2) as f64, sigma: k as f64 / skew as f64 },
            KeyDist::Zipfian { s: 1.0 + skew as f64 / 20.0, v: 1.0 },
            KeyDist::Exponential { rate: skew as f64 / k as f64 },
        ] {
            let sampler = KeySampler::new(k, dist);
            for _ in 0..50 {
                prop_assert!(sampler.sample(&mut rng) < k);
            }
        }
    }

    #[test]
    fn sequential_histories_never_trigger_the_checker(
        vals in proptest::collection::vec(any::<u8>(), 1..40)
    ) {
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
        prop_assert!(paxi::bench::check_linearizability(&ops).is_empty());
    }

    #[test]
    fn rng_fork_streams_do_not_correlate(seed in any::<u64>()) {
        let mut root = Rng64::seed(seed);
        let mut a = root.fork();
        let mut b = root.fork();
        let mut equal = 0;
        for _ in 0..64 {
            if a.next_u64() == b.next_u64() {
                equal += 1;
            }
        }
        prop_assert!(equal < 4, "forked streams look correlated");
    }

    // --- codec robustness: the WAL's foundation ---
    //
    // A recovering replica feeds whatever bytes survived the crash straight
    // into the codec, so deserialization must *fail*, never panic, on
    // garbage: random bytes, truncations, and single-bit flips of valid
    // encodings.

    #[test]
    fn from_bytes_never_panics_on_random_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        // Ok (a coincidentally valid encoding) and Err are both fine; only
        // a panic fails the test.
        let _ = codec::from_bytes::<Blob>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::paxos::PaxosWal>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::raft::RaftWal>(&bytes);
        let _ = codec::from_bytes::<paxi::protocols::epaxos::EpaxosWal>(&bytes);
    }

    #[test]
    fn from_bytes_never_panics_on_bit_flips(
        blob in arb::wire_blob(),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = codec::to_bytes(&blob).unwrap();
        let i = idx % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = codec::from_bytes::<Blob>(&bytes);
    }

    #[test]
    fn from_bytes_never_panics_on_truncation(
        blob in arb::wire_blob(),
        cut in any::<usize>(),
    ) {
        let bytes = codec::to_bytes(&blob).unwrap();
        let keep = cut % (bytes.len() + 1);
        let _ = codec::from_bytes::<Blob>(&bytes[..keep]);
    }

    #[test]
    fn frame_decoder_never_panics_on_arbitrary_chunks(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..8
        )
    ) {
        let mut d = codec::FrameDecoder::new();
        for chunk in &chunks {
            d.feed(chunk);
            // Drain until the decoder wants more bytes or rejects the
            // stream (e.g. a length prefix beyond MAX_FRAME) — never panic.
            loop {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn frame_decoder_never_panics_on_corrupted_frames(
        blob in arb::wire_blob(),
        idx in any::<usize>(),
        split in any::<usize>(),
    ) {
        let mut frame = codec::encode_frame(&codec::to_bytes(&blob).unwrap());
        let i = idx % frame.len();
        frame[i] ^= 0x40;
        let mut d = codec::FrameDecoder::new();
        let at = split % (frame.len() + 1);
        for chunk in [&frame[..at], &frame[at..]] {
            d.feed(chunk);
            loop {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    // --- WAL record round-trips: what the protocols actually persist ---

    #[test]
    fn paxos_wal_records_round_trip(
        slot in any::<u64>(),
        counter in 1u32..10_000,
        zone in 0u8..4, node in 0u8..4,
        key in any::<u64>(),
        val in proptest::collection::vec(any::<u8>(), 0..32),
        client in any::<u32>(), seq in any::<u64>(),
        has_req in any::<bool>(),
    ) {
        use paxi::core::{ClientId, RequestId};
        use paxi::protocols::paxos::PaxosWal;
        let ballot = Ballot { counter, id: NodeId::new(zone, node) };
        let req = has_req.then(|| RequestId::new(ClientId(client), seq));
        for rec in [
            PaxosWal::Ballot(ballot),
            PaxosWal::Accept { slot, ballot, cmds: vec![(Command::put(key, val), req)] },
        ] {
            let bytes = codec::to_bytes(&rec).unwrap();
            let back: PaxosWal = codec::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &rec);
            if bytes.len() > 1 {
                let r: codec::Result<PaxosWal> = codec::from_bytes(&bytes[..bytes.len() - 1]);
                prop_assert!(r.is_err(), "truncated WAL record must not decode");
            }
        }
    }

    #[test]
    fn raft_wal_records_round_trip(
        term in any::<u64>(),
        prev_index in any::<u64>(),
        voted in proptest::option::of((0u8..4, 0u8..4)),
        entries in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..16)), 0..8
        ),
    ) {
        use paxi::protocols::raft::{RaftEntry, RaftWal};
        let entries: Vec<RaftEntry> = entries
            .into_iter()
            .map(|(t, k, v)| RaftEntry { term: t, cmd: Command::put(k, v), req: None })
            .collect();
        for rec in [
            RaftWal::Term { term, voted_for: voted.map(|(z, n)| NodeId::new(z, n)) },
            RaftWal::Splice { prev_index, entries },
        ] {
            let bytes = codec::to_bytes(&rec).unwrap();
            let back: RaftWal = codec::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &rec);
        }
    }

    // --- group-tagged envelopes: the sharded runtime's wire format ---
    //
    // A sharded deployment multiplexes every group of a node pair over one
    // link by wrapping protocol messages in `GroupMsg`. The envelope must
    // round-trip exactly (tag and payload), and the frame decoder must
    // *fail*, never panic, when group-tagged frames arrive truncated or
    // bit-flipped — a byzantine-free but faulty network is in scope.

    #[test]
    fn group_tagged_envelopes_round_trip(
        group in any::<u32>(),
        blob in arb::wire_blob(),
    ) {
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let bytes = codec::to_bytes(&env).unwrap();
        let back: GroupMsg<Blob> = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.group, env.group, "group tag must survive the wire");
        prop_assert_eq!(back.msg, env.msg);
        // Truncation must error, not mis-tag: a clipped envelope can never
        // decode into a full (group, msg) pair.
        if bytes.len() > 1 {
            let r: codec::Result<GroupMsg<Blob>> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn frame_decoder_never_panics_on_truncated_group_frames(
        group in any::<u32>(),
        blob in arb::wire_blob(),
        cut in any::<usize>(),
        split in any::<usize>(),
    ) {
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let frame = codec::encode_frame(&codec::to_bytes(&env).unwrap());
        let keep = cut % (frame.len() + 1);
        let frame = &frame[..keep];
        let mut d = codec::FrameDecoder::new();
        let at = split % (frame.len() + 1);
        for chunk in [&frame[..at], &frame[at..]] {
            d.feed(chunk);
            loop {
                match d.next_frame() {
                    // A complete frame from a truncated stream can only be
                    // the full original; decoding must still not panic.
                    Ok(Some(payload)) => {
                        let _ = codec::from_bytes::<GroupMsg<Blob>>(&payload);
                    }
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn frame_decoder_never_panics_on_bit_flipped_group_frames(
        group in any::<u32>(),
        blob in arb::wire_blob(),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        use paxi::core::{GroupId, GroupMsg};
        let env = GroupMsg::new(GroupId(group), blob);
        let mut frame = codec::encode_frame(&codec::to_bytes(&env).unwrap());
        let i = idx % frame.len();
        frame[i] ^= 1 << bit;
        let mut d = codec::FrameDecoder::new();
        d.feed(&frame);
        loop {
            match d.next_frame() {
                // A flip in the payload may still frame correctly; the
                // envelope decode must then error or succeed, never panic.
                Ok(Some(payload)) => {
                    let _ = codec::from_bytes::<GroupMsg<Blob>>(&payload);
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    // --- membership payloads & config WAL records (reconfiguration) ---
    //
    // A mid-reconfiguration crash hands recovery whatever config bytes
    // survived; like the codec itself, the hand-rolled membership payload
    // decoders must round-trip exactly and *fail*, never panic, on
    // truncations and bit flips.

    #[test]
    fn config_change_payloads_round_trip_and_reject_garbage(
        add in proptest::collection::vec((0u8..4, 0u8..8), 0..5),
        remove in proptest::collection::vec((0u8..4, 0u8..8), 0..5),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        use paxi::core::membership::ConfigChange;
        let change = ConfigChange {
            add: add.into_iter().map(|(z, n)| NodeId::new(z, n)).collect(),
            remove: remove.into_iter().map(|(z, n)| NodeId::new(z, n)).collect(),
        };
        let bytes = change.encode();
        prop_assert_eq!(ConfigChange::decode(&bytes), Some(change.clone()));
        // Every truncation must reject (the node counts are explicit, so a
        // clipped payload can never satisfy them) — and never panic.
        for keep in 0..bytes.len() {
            prop_assert!(ConfigChange::decode(&bytes[..keep]).is_none());
        }
        // A bit flip decodes to something-or-nothing, never a panic.
        let mut flipped = bytes.clone();
        let i = idx % flipped.len();
        flipped[i] ^= 1 << bit;
        let _ = ConfigChange::decode(&flipped);
        // Trailing garbage must reject too.
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(ConfigChange::decode(&padded).is_none());
    }

    #[test]
    fn membership_payloads_round_trip_and_reject_garbage(
        epoch in any::<u64>(),
        old in proptest::collection::vec((0u8..4, 0u8..8), 0..5),
        new in proptest::collection::vec((0u8..4, 0u8..8), 0..5),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        use paxi::core::membership::Membership;
        let old: Vec<NodeId> = old.into_iter().map(|(z, n)| NodeId::new(z, n)).collect();
        let new: Vec<NodeId> = new.into_iter().map(|(z, n)| NodeId::new(z, n)).collect();
        for m in [
            Membership::Stable { epoch, members: old.clone() },
            Membership::Joint { epoch, old, new },
        ] {
            let bytes = m.encode();
            prop_assert_eq!(Membership::decode(&bytes), Some(m.clone()));
            for keep in 0..bytes.len() {
                prop_assert!(Membership::decode(&bytes[..keep]).is_none());
            }
            let mut flipped = bytes.clone();
            let i = idx % flipped.len();
            flipped[i] ^= 1 << bit;
            let _ = Membership::decode(&flipped);
            let mut padded = bytes;
            padded.push(0);
            prop_assert!(Membership::decode(&padded).is_none());
        }
    }

    #[test]
    fn membership_wal_records_round_trip(
        slot in any::<u64>(),
        epoch in any::<u64>(),
        index in any::<u64>(),
        members in proptest::collection::vec((0u8..4, 0u8..8), 0..6),
        joint in any::<bool>(),
    ) {
        use paxi::core::membership::Membership;
        use paxi::protocols::paxos::PaxosWal;
        use paxi::protocols::raft::RaftWal;
        let members: Vec<NodeId> =
            members.into_iter().map(|(z, n)| NodeId::new(z, n)).collect();

        let rec = PaxosWal::Config { slot, epoch, members: members.clone() };
        let bytes = codec::to_bytes(&rec).unwrap();
        let back: PaxosWal = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &rec);
        if bytes.len() > 1 {
            let r: codec::Result<PaxosWal> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            prop_assert!(r.is_err(), "truncated config record must not decode");
        }

        let membership = if joint {
            Membership::Joint { epoch, old: members.clone(), new: members }
        } else {
            Membership::Stable { epoch, members }
        };
        let rec = RaftWal::Membership { index, membership };
        let bytes = codec::to_bytes(&rec).unwrap();
        let back: RaftWal = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &rec);
        if bytes.len() > 1 {
            let r: codec::Result<RaftWal> = codec::from_bytes(&bytes[..bytes.len() - 1]);
            prop_assert!(r.is_err(), "truncated membership record must not decode");
        }
    }

    #[test]
    fn epaxos_wal_records_round_trip(
        zone in 0u8..4, node in 0u8..4,
        idx in any::<u64>(),
        key in any::<u64>(),
        seq in any::<u64>(),
        deps in proptest::collection::vec((0u8..4, 0u8..4, any::<u64>()), 0..8),
        status_pick in 0u8..3,
    ) {
        use paxi::protocols::epaxos::{EpaxosWal, IRef, WalStatus};
        let status = match status_pick {
            0 => WalStatus::PreAccepted,
            1 => WalStatus::Accepted,
            _ => WalStatus::Committed,
        };
        let rec = EpaxosWal {
            iref: IRef { leader: NodeId::new(zone, node), idx },
            cmd: Command::get(key),
            seq,
            deps: deps
                .into_iter()
                .map(|(z, n, i)| IRef { leader: NodeId::new(z, n), idx: i })
                .collect(),
            status,
        };
        let bytes = codec::to_bytes(&rec).unwrap();
        let back: EpaxosWal = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn hash_partitioner_is_total_and_owns_agrees_with_group_of(
        groups in 1u32..64,
        key in any::<u64>(),
        probe in 0u32..64,
    ) {
        // Every key maps to exactly one in-range group, and `owns` is the
        // characteristic function of `group_of` — no key is unowned, none
        // is owned twice.
        let p = HashPartitioner::new(groups);
        prop_assert_eq!(p.groups(), groups);
        let g = p.group_of(key);
        prop_assert!(g.0 < groups, "group {} out of range", g.0);
        prop_assert!(p.owns(g, key));
        let other = GroupId(probe % groups);
        prop_assert_eq!(p.owns(other, key), other == g);
    }

    #[test]
    fn range_partitioner_is_total_and_owns_agrees_with_group_of(
        key_space in 1u64..100_000,
        groups in 1u32..32,
        key in any::<u64>(),
        probe in 0u32..32,
    ) {
        // Totality holds even for keys beyond the declared key space (the
        // last group absorbs them — routing must never panic on a key the
        // workload was not supposed to produce).
        let p = RangePartitioner::even(key_space, groups);
        prop_assert_eq!(p.groups(), groups);
        let g = p.group_of(key);
        prop_assert!(g.0 < groups, "group {} out of range", g.0);
        prop_assert!(p.owns(g, key));
        let other = GroupId(probe % groups);
        prop_assert_eq!(p.owns(other, key), other == g);
    }

    #[test]
    fn range_partitioner_edges_agree_with_group_of(
        key_space in 1u64..100_000,
        groups in 1u32..32,
    ) {
        // `range(g)` and `group_of` must tell the same story at every
        // boundary: the first and last key of each slice belong to it, and
        // the first key past it belongs to the next group — migrations cut
        // ranges exactly at these edges.
        let p = RangePartitioner::even(key_space, groups);
        for gi in 0..groups {
            let g = GroupId(gi);
            let (lo, hi) = p.range(g);
            prop_assert!(lo < hi, "group {gi} has an empty slice [{lo}, {hi})");
            prop_assert_eq!(p.group_of(lo), g);
            prop_assert_eq!(p.group_of(hi - 1), g);
            prop_assert!(p.owns(g, lo) && p.owns(g, hi - 1));
            if gi + 1 < groups {
                prop_assert_eq!(p.group_of(hi), GroupId(gi + 1));
                prop_assert!(!p.owns(g, hi));
            }
        }
    }

    #[test]
    fn single_group_partitioners_map_everything_to_group_0(
        key_space in 1u64..100_000,
        key in any::<u64>(),
    ) {
        // groups = 1 is the unsharded degenerate case: every key lands in
        // group 0 under both partitioners, so the sharded envelope routes
        // exactly like the plain protocol.
        let hash = HashPartitioner::new(1);
        prop_assert_eq!(hash.group_of(key), GroupId(0));
        prop_assert!(hash.owns(GroupId(0), key));
        let range = RangePartitioner::even(key_space, 1);
        prop_assert_eq!(range.group_of(key), GroupId(0));
        prop_assert!(range.owns(GroupId(0), key));
    }
}
