//! Offline linearizability checker.
//!
//! Paxi implements the offline read/write linearizability checker of the
//! Facebook TAO study: given all operations on a record sorted by invocation
//! time, it reports **anomalous reads** — reads that return results they
//! could not return in any linearizable execution. Our workloads give every
//! write a unique value, which makes the constraint graph's cycle check
//! reducible to three local conditions per read of value `v` written by `w`:
//!
//! * **phantom** — `v` was never written;
//! * **future** — the read returned before `w` was even invoked
//!   (`r.ret < w.invoke`);
//! * **stale** — some other successful write `w2` fits entirely between `w`
//!   and the read (`w.ret < w2.invoke` and `w2.ret < r.invoke`), so at the
//!   read's invocation `v` was certainly no longer the latest value. Reads
//!   returning `None` are stale if any successful write completed before
//!   they began.
//!
//! A cycle in the TAO constraint graph for unique-value registers collapses
//! to exactly these conditions, so this checker finds the same anomalies
//! without materializing the graph. Writes that were abandoned (`ok =
//! false`) may or may not have taken effect; they can justify a read but
//! never condemn one.
//!
//! A read is judged by the last write of its value in history order, found
//! by binary search in the writes sorted by key and value. The stale test is
//! one more: each key's acknowledged writes are sorted by invocation and
//! carry the earliest return among themselves and every later-invoked one,
//! so "some write invoked after `w.ret` returned before `r.invoke`" is a
//! look at the first write invoked after `w.ret`. The whole check is
//! O(n log n) in the history's length and makes two allocations besides
//! the list of anomalies, however many keys the history touches.

use paxi_core::command::{Key, Value};
use paxi_core::id::ClientId;
use paxi_core::time::Nanos;
use paxi_sim::OpRecord;

/// Why a read is anomalous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The value was never written by any client.
    PhantomValue,
    /// The read completed before the write of its value began.
    FutureRead,
    /// A newer write fully preceded the read, yet the read returned an older
    /// value.
    StaleRead,
}

/// One anomalous read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// What went wrong.
    pub kind: AnomalyKind,
    /// The reading client.
    pub client: ClientId,
    /// The key read.
    pub key: Key,
    /// The value the read returned.
    pub value: Option<Value>,
    /// When the read was invoked.
    pub invoke: Nanos,
}

/// A write, as the list of last writes holds it: a read of `value` from
/// `key` is judged by `ops[at]`.
struct Write<'a> {
    key: Key,
    value: &'a Value,
    at: usize,
}

/// An acknowledged write, in a list sorted by `(key, invoke)`; `min_ret` is
/// the least `ret` of it and of every later-invoked acknowledged write to
/// its key.
struct Acked {
    key: Key,
    invoke: Nanos,
    min_ret: Nanos,
}

/// Checks the operation log; returns all anomalous reads (empty = pass), in
/// history order. O(n log n): two sorts, and at most four binary searches
/// per read.
pub fn check_linearizability(ops: &[OpRecord]) -> Vec<Anomaly> {
    // Every write by key and value, the last in history order first; then
    // only that one of each value is kept.
    let mut last = Vec::with_capacity(ops.iter().filter(|op| op.write.is_some()).count());
    last.extend(ops.iter().enumerate().filter_map(|(at, op)| {
        Some(Write {
            key: op.key,
            value: op.write.as_ref()?,
            at,
        })
    }));
    last.sort_unstable_by(|a, b| (a.key, a.value, b.at).cmp(&(b.key, b.value, a.at)));
    last.dedup_by(|later, kept| (later.key, later.value) == (kept.key, kept.value));
    // Of those, the acknowledged ones: only they can make a read stale.
    let mut acked = Vec::with_capacity(last.len());
    let acked_writes = last.iter().map(|w| &ops[w.at]).filter(|w| w.ok);
    acked.extend(acked_writes.map(|w| Acked {
        key: w.key,
        invoke: w.invoke,
        min_ret: w.ret,
    }));
    acked.sort_unstable_by_key(|a| (a.key, a.invoke));
    for i in (1..acked.len()).rev() {
        if acked[i - 1].key == acked[i].key {
            acked[i - 1].min_ret = acked[i - 1].min_ret.min(acked[i].min_ret);
        }
    }
    let acked_to = |key: Key| {
        let from = acked.partition_point(|a| a.key < key);
        let to = acked.partition_point(|a| a.key <= key);
        &acked[from..to]
    };

    let mut anomalies = Vec::new();
    for op in ops {
        let Some(read_value) = &op.read else { continue };
        if !op.ok {
            continue;
        }
        let kind = match read_value {
            Some(v) => {
                let found = last.binary_search_by(|w| (w.key, w.value).cmp(&(op.key, v)));
                match found.ok().map(|i| &ops[last[i].at]) {
                    None => Some(AnomalyKind::PhantomValue),
                    Some(w) if op.ret < w.invoke => Some(AnomalyKind::FutureRead),
                    // Stale: some acknowledged write was invoked after `w`
                    // returned and returned before the read began. Only an
                    // acknowledged write has an end to fit after: one the
                    // client gave up on (`ret` is when it did) may take
                    // effect at any later time, after any number of newer
                    // writes.
                    Some(w) if w.ok => {
                        let later = acked_to(op.key);
                        let first = later.partition_point(|a| a.invoke <= w.ret);
                        let stale = later.get(first).is_some_and(|a| a.min_ret < op.invoke);
                        stale.then_some(AnomalyKind::StaleRead)
                    }
                    Some(_) => None,
                }
            }
            // Reading "absent" is stale once any acknowledged write to the
            // key fully completed before the read began.
            None => {
                let earliest = acked_to(op.key).first();
                let stale = earliest.is_some_and(|a| a.min_ret < op.invoke);
                stale.then_some(AnomalyKind::StaleRead)
            }
        };
        if let Some(kind) = kind {
            anomalies.push(Anomaly {
                kind,
                client: op.client,
                key: op.key,
                value: read_value.clone(),
                invoke: op.invoke,
            });
        }
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::{forall, Rng64};
    use std::collections::HashMap;

    /// The quadratic checker this one replaced: every read against every
    /// write of its key, the last write of a value standing for it. The
    /// reference the differential test holds `check_linearizability` to.
    fn reference(ops: &[OpRecord]) -> Vec<Anomaly> {
        struct WriteInfo {
            invoke: Nanos,
            ret: Nanos,
            ok: bool,
        }
        let mut writes: HashMap<Key, HashMap<&Value, WriteInfo>> = HashMap::new();
        for op in ops {
            if let Some(v) = &op.write {
                let (invoke, ret, ok) = (op.invoke, op.ret, op.ok);
                let info = WriteInfo { invoke, ret, ok };
                writes.entry(op.key).or_default().insert(v, info);
            }
        }
        let mut anomalies = Vec::new();
        for op in ops {
            let Some(read_value) = &op.read else { continue };
            if !op.ok {
                continue;
            }
            let key_writes = writes.get(&op.key);
            let kind = match read_value {
                Some(v) => match key_writes.and_then(|m| m.get(v)) {
                    None => Some(AnomalyKind::PhantomValue),
                    Some(w) if op.ret < w.invoke => Some(AnomalyKind::FutureRead),
                    Some(w) => {
                        let between =
                            |w2: &WriteInfo| w2.ok && w2.invoke > w.ret && w2.ret < op.invoke;
                        let stale = w.ok && key_writes.is_some_and(|m| m.values().any(between));
                        stale.then_some(AnomalyKind::StaleRead)
                    }
                },
                None => {
                    let done = |w: &WriteInfo| w.ok && w.ret < op.invoke;
                    let stale = key_writes.is_some_and(|m| m.values().any(done));
                    stale.then_some(AnomalyKind::StaleRead)
                }
            };
            if let Some(kind) = kind {
                anomalies.push(Anomaly {
                    kind,
                    client: op.client,
                    key: op.key,
                    value: read_value.clone(),
                    invoke: op.invoke,
                });
            }
        }
        anomalies
    }

    /// A history of up to 40 operations on three keys over a short span of
    /// time, so timestamps tie: values from a pool of six, so a value is
    /// written twice and a read may return one never written; one write in
    /// five abandoned, one read in five of an absent key, operations in any
    /// order of invocation.
    fn random_history(rng: &mut Rng64) -> Vec<OpRecord> {
        let n = rng.below(41);
        (0..n)
            .map(|_| {
                let value = |rng: &mut Rng64| vec![rng.below(6) as u8];
                let invoke = rng.below(30);
                let ret = invoke + rng.below(8);
                let (write, read, ok) = if rng.chance(0.5) {
                    (Some(value(rng)), None, !rng.chance(0.2))
                } else {
                    let got = (!rng.chance(0.2)).then(|| value(rng));
                    (None, Some(got), !rng.chance(0.1))
                };
                OpRecord {
                    client: ClientId(rng.below(4) as u32),
                    key: rng.below(3),
                    write,
                    read,
                    invoke: Nanos(invoke),
                    ret: Nanos(ret),
                    ok,
                }
            })
            .collect()
    }

    #[test]
    fn agrees_with_the_quadratic_checker_on_random_histories() {
        let mut found = HashMap::new();
        forall(3_000, |rng| {
            let ops = random_history(rng);
            let got = check_linearizability(&ops);
            assert_eq!(got, reference(&ops), "{ops:?}");
            for a in got {
                *found.entry(format!("{:?}", a.kind)).or_insert(0) += 1;
            }
        });
        // Every kind of anomaly, many times over: the histories are not
        // all clean.
        for kind in ["PhantomValue", "FutureRead", "StaleRead"] {
            assert!(found.get(kind).is_some_and(|&n| n >= 100), "{found:?}");
        }
    }

    /// 100 000 writes and 100 000 reads on one key, each read after the
    /// write it returns; every 1 000th read returns the value before, which
    /// the write in between makes stale. The quadratic checker needs about
    /// 10^10 comparisons for this.
    #[test]
    fn a_long_single_key_history_is_checked_in_n_log_n() {
        let value = |i: u64| (i as u32).to_le_bytes().to_vec();
        let mut ops = Vec::new();
        for i in 0..100_000 {
            let at = 10 * i;
            ops.push(OpRecord {
                client: ClientId(0),
                key: 7,
                write: Some(value(i)),
                read: None,
                invoke: Nanos(at),
                ret: Nanos(at + 4),
                ok: true,
            });
            let stale = i % 1_000 == 999;
            ops.push(OpRecord {
                client: ClientId(1),
                key: 7,
                write: None,
                read: Some(Some(value(if stale { i - 1 } else { i }))),
                invoke: Nanos(at + 5),
                ret: Nanos(at + 9),
                ok: true,
            });
        }
        let anomalies = check_linearizability(&ops);
        assert_eq!(anomalies.len(), 100);
        assert!(anomalies.iter().all(|a| a.kind == AnomalyKind::StaleRead));
        assert_eq!(anomalies[0].invoke, Nanos(9_995));
        assert!(anomalies.windows(2).all(|w| w[0].invoke < w[1].invoke));
    }

    fn w(key: Key, v: u8, invoke: u64, ret: u64, ok: bool) -> OpRecord {
        OpRecord {
            client: ClientId(0),
            key,
            write: Some(vec![v]),
            read: None,
            invoke: Nanos(invoke),
            ret: Nanos(ret),
            ok,
        }
    }

    fn r(key: Key, v: Option<u8>, invoke: u64, ret: u64) -> OpRecord {
        OpRecord {
            client: ClientId(1),
            key,
            write: None,
            read: Some(v.map(|b| vec![b])),
            invoke: Nanos(invoke),
            ret: Nanos(ret),
            ok: true,
        }
    }

    #[test]
    fn clean_history_passes() {
        let ops = vec![
            w(1, 10, 0, 5, true),
            r(1, Some(10), 6, 8),
            w(1, 11, 9, 12, true),
            r(1, Some(11), 13, 15),
        ];
        assert!(check_linearizability(&ops).is_empty());
    }

    #[test]
    fn concurrent_read_may_return_either() {
        // Read overlaps the second write: both old and new values are legal.
        let ops_old = vec![
            w(1, 10, 0, 5, true),
            w(1, 11, 6, 12, true),
            r(1, Some(10), 7, 9),
        ];
        let ops_new = vec![
            w(1, 10, 0, 5, true),
            w(1, 11, 6, 12, true),
            r(1, Some(11), 7, 9),
        ];
        assert!(check_linearizability(&ops_old).is_empty());
        assert!(check_linearizability(&ops_new).is_empty());
    }

    #[test]
    fn stale_read_detected() {
        // w(10) then w(11) fully done, then read returns 10: stale.
        let ops = vec![
            w(1, 10, 0, 5, true),
            w(1, 11, 6, 9, true),
            r(1, Some(10), 12, 14),
        ];
        let a = check_linearizability(&ops);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::StaleRead);
    }

    #[test]
    fn stale_none_read_detected() {
        let ops = vec![w(1, 10, 0, 5, true), r(1, None, 8, 9)];
        let a = check_linearizability(&ops);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::StaleRead);
        assert_eq!(a[0].value, None);
    }

    #[test]
    fn future_read_detected() {
        let ops = vec![r(1, Some(10), 0, 2), w(1, 10, 5, 9, true)];
        let a = check_linearizability(&ops);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::FutureRead);
    }

    #[test]
    fn phantom_value_detected() {
        let ops = vec![w(1, 10, 0, 5, true), r(1, Some(99), 6, 7)];
        let a = check_linearizability(&ops);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::PhantomValue);
    }

    #[test]
    fn abandoned_write_justifies_but_never_condemns() {
        // The abandoned write may have applied: reading it is fine...
        let ops = vec![w(1, 10, 0, 5, false), r(1, Some(10), 6, 7)];
        assert!(check_linearizability(&ops).is_empty());
        // ...and it cannot make an older value stale.
        let ops = vec![
            w(1, 10, 0, 5, true),
            w(1, 11, 6, 9, false),
            r(1, Some(10), 12, 14),
        ];
        assert!(check_linearizability(&ops).is_empty());
        // Nor does it make reading None stale.
        let ops = vec![w(1, 10, 0, 5, false), r(1, None, 8, 9)];
        assert!(check_linearizability(&ops).is_empty());
        // It may land long after the client gave up on it, behind a newer
        // write that has completed: the read of it is then current.
        let ops = vec![
            w(1, 10, 0, 5, false),
            w(1, 11, 20, 25, true),
            r(1, Some(10), 30, 31),
        ];
        assert!(check_linearizability(&ops).is_empty());
    }

    #[test]
    fn keys_are_checked_independently() {
        let ops = vec![w(1, 10, 0, 5, true), r(2, None, 8, 9)];
        assert!(check_linearizability(&ops).is_empty());
    }
}
