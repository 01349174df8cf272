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

use paxi_core::command::{Key, Value};
use paxi_core::id::ClientId;
use paxi_core::time::Nanos;
use paxi_sim::OpRecord;
use std::collections::HashMap;

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
#[derive(Debug, Clone)]
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

struct WriteInfo {
    invoke: Nanos,
    ret: Nanos,
    ok: bool,
}

/// Checks the operation log; returns all anomalous reads (empty = pass).
pub fn check_linearizability(ops: &[OpRecord]) -> Vec<Anomaly> {
    // Index successful + attempted writes per key by value.
    let mut writes: HashMap<Key, HashMap<&Value, WriteInfo>> = HashMap::new();
    for op in ops {
        if let Some(v) = &op.write {
            writes.entry(op.key).or_default().insert(
                v,
                WriteInfo {
                    invoke: op.invoke,
                    ret: op.ret,
                    ok: op.ok,
                },
            );
        }
    }
    let mut anomalies = Vec::new();
    for op in ops {
        let Some(read_value) = &op.read else { continue };
        if !op.ok {
            continue;
        }
        let key_writes = writes.get(&op.key);
        match read_value {
            Some(v) => {
                let Some(w) = key_writes.and_then(|m| m.get(v)) else {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::PhantomValue,
                        client: op.client,
                        key: op.key,
                        value: Some(v.clone()),
                        invoke: op.invoke,
                    });
                    continue;
                };
                if op.ret < w.invoke {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::FutureRead,
                        client: op.client,
                        key: op.key,
                        value: Some(v.clone()),
                        invoke: op.invoke,
                    });
                    continue;
                }
                // Stale: some *successful* other write fits strictly between.
                // Only an acknowledged write has an end to fit after: one the
                // client gave up on (`ret` is when it did) may take effect
                // at any later time, after any number of newer writes.
                let between = |w2: &WriteInfo| w2.ok && w2.invoke > w.ret && w2.ret < op.invoke;
                let stale = w.ok && key_writes.is_some_and(|m| m.values().any(between));
                if stale {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::StaleRead,
                        client: op.client,
                        key: op.key,
                        value: Some(v.clone()),
                        invoke: op.invoke,
                    });
                }
            }
            None => {
                // Reading "absent" is stale once any successful write to the
                // key fully completed before the read began.
                let stale =
                    key_writes.map_or(false, |m| m.values().any(|w| w.ok && w.ret < op.invoke));
                if stale {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::StaleRead,
                        client: op.client,
                        key: op.key,
                        value: None,
                        invoke: op.invoke,
                    });
                }
            }
        }
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;

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
