//! Drop accounting for wall-clock transports.
//!
//! The simulator threads a `MetricsRegistry` through every replica callback,
//! but the transports lose messages on paths that never reach a replica at
//! all: encode failures, oversize datagrams, full writer queues, reconnect
//! windows, and fault-injected link drops. [`DropCounters`] is the shared,
//! lock-free tally those paths charge, and the live nodes' own losses too
//! (crash discards, what a replica charges through `count_drop`), so that
//! a cluster can account for every loss in one ledger — the same
//! `drops_by_cause` contract the simulator upholds, with `unexplained`
//! pinned at zero.

use paxi_core::obs::DropCause;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

const CAUSES: usize = DropCause::ALL.len();

/// Shared per-cause drop counters for one cluster. Cloning is cheap and
/// clones observe the same tallies, so the outbound half owned by each node
/// thread and the cluster handle that reads them can share one instance.
#[derive(Debug, Clone)]
pub struct DropCounters {
    slots: Arc<[AtomicU64; CAUSES]>,
}

impl Default for DropCounters {
    fn default() -> Self {
        DropCounters::new()
    }
}

impl DropCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        DropCounters {
            slots: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Charges one drop to `cause`.
    pub fn record(&self, cause: DropCause) {
        self.record_n(cause, 1);
    }

    /// Charges `n` drops to `cause`.
    pub fn record_n(&self, cause: DropCause, n: u64) {
        self.slots[cause as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current tally for one cause.
    pub fn get(&self, cause: DropCause) -> u64 {
        self.slots[cause as usize].load(Ordering::Relaxed)
    }

    /// Sum over all causes.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// Connection lifecycle accounting for one transport endpoint: opens
/// (accepted or dialed), closes, the live count, and its high-water mark.
///
/// The conservation contract mirrors the drop ledger: after an orderly
/// shutdown every opened connection has been closed (`opens == closes`), so
/// a connect/disconnect storm that leaks readers or fds shows up as an
/// imbalance instead of hiding in thread-scheduler noise. Clones share the
/// same tallies.
#[derive(Debug, Clone, Default)]
pub struct ConnCounters {
    inner: Arc<ConnInner>,
}

#[derive(Debug, Default)]
struct ConnInner {
    opens: AtomicU64,
    closes: AtomicU64,
    live: AtomicU64,
    hwm: AtomicU64,
}

impl ConnCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        ConnCounters::default()
    }

    /// Records one connection coming up (accept or successful dial).
    pub fn on_open(&self) {
        self.inner.opens.fetch_add(1, Ordering::Relaxed);
        let live = self.inner.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.hwm.fetch_max(live, Ordering::Relaxed);
    }

    /// Records one connection going away.
    pub fn on_close(&self) {
        self.inner.closes.fetch_add(1, Ordering::Relaxed);
        self.inner.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections opened so far.
    pub fn opens(&self) -> u64 {
        self.inner.opens.load(Ordering::Relaxed)
    }

    /// Connections closed so far.
    pub fn closes(&self) -> u64 {
        self.inner.closes.load(Ordering::Relaxed)
    }

    /// Connections open right now.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// Most connections ever simultaneously open.
    pub fn hwm(&self) -> u64 {
        self.inner.hwm.load(Ordering::Relaxed)
    }
}

/// Logs a drop to stderr exactly once per call site (further occurrences
/// are counted silently). Call sites hold a `static Once` so repeated
/// failures — e.g. an unencodable message type retried in a loop — cannot
/// flood the log.
pub fn log_drop_once(once: &Once, cause: DropCause, context: &str) {
    once.call_once(|| {
        eprintln!(
            "paxi-transport: dropping message (cause: {}): {context}; \
             further occurrences are counted, not logged",
            cause.name()
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_tallies() {
        let a = DropCounters::new();
        let b = a.clone();
        a.record(DropCause::Encode);
        b.record_n(DropCause::Encode, 2);
        b.record(DropCause::QueueFull);
        assert_eq!(a.get(DropCause::Encode), 3);
        assert_eq!(a.get(DropCause::QueueFull), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn conn_counters_track_live_and_high_water() {
        let c = ConnCounters::new();
        c.on_open();
        c.on_open();
        c.on_open();
        assert_eq!((c.opens(), c.live(), c.hwm()), (3, 3, 3));
        c.on_close();
        c.on_close();
        assert_eq!((c.closes(), c.live(), c.hwm()), (2, 1, 3));
        c.on_open(); // live back to 2, below the old high-water mark
        assert_eq!((c.opens(), c.live(), c.hwm()), (4, 2, 3));
    }
}
