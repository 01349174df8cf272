//! The fault injector's clock: one thread that runs callbacks at deadlines.
//!
//! Only a cluster launched with fault injection (`launch_chaotic`) starts a
//! `TimerService`: [`crate::faults::ChaosOut`] re-sends a slowed envelope
//! from it after the injected delay, and
//! [`crate::faults::FaultInjector::schedule_recoveries`] wakes crashed nodes
//! from it when their windows end. The timers a replica arms through its
//! [`paxi_core::traits::Context`] are not here: they live in a heap inside
//! the node ([`crate::runtime::Node::advance`]) and fire on its own thread.

use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Callback = Box<dyn FnOnce() + Send>;

struct Entry {
    deadline: Instant,
    seq: u64,
    cb: Option<Callback>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline.cmp(&other.deadline).then(self.seq.cmp(&other.seq))
    }
}

struct Shared {
    heap: Mutex<(BinaryHeap<Reverse<Entry>>, u64, bool)>,
    cv: Condvar,
}

/// A single-threaded timer wheel: schedule a callback after a delay.
pub struct TimerService {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TimerService {
    /// Starts the timer thread.
    pub fn new() -> Self {
        let shared = Arc::new(Shared {
            heap: Mutex::new((BinaryHeap::new(), 0, false)),
            cv: Condvar::new(),
        });
        let s2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("paxi-timers".into())
            .spawn(move || loop {
                let mut guard = s2.heap.lock();
                if guard.2 {
                    break;
                }
                let now = Instant::now();
                // Fire everything due.
                let mut due: Vec<Callback> = Vec::new();
                while let Some(Reverse(top)) = guard.0.peek() {
                    if top.deadline <= now {
                        let mut e = guard.0.pop().unwrap().0;
                        if let Some(cb) = e.cb.take() {
                            due.push(cb);
                        }
                    } else {
                        break;
                    }
                }
                if !due.is_empty() {
                    drop(guard);
                    for cb in due {
                        cb();
                    }
                    continue;
                }
                match guard.0.peek() {
                    Some(Reverse(top)) => {
                        let wait = top.deadline.saturating_duration_since(now);
                        s2.cv.wait_for(&mut guard, wait);
                    }
                    None => {
                        s2.cv.wait_for(&mut guard, Duration::from_millis(100));
                    }
                }
            })
            .expect("spawn timer thread");
        TimerService { shared, handle: Some(handle) }
    }

    /// Runs `cb` after `delay`.
    pub fn schedule(&self, delay: Duration, cb: impl FnOnce() + Send + 'static) {
        let mut guard = self.shared.heap.lock();
        let seq = guard.1;
        guard.1 += 1;
        guard.0.push(Reverse(Entry {
            deadline: Instant::now() + delay,
            seq,
            cb: Some(Box::new(cb)),
        }));
        drop(guard);
        self.shared.cv.notify_one();
    }
}

impl Default for TimerService {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TimerService {
    fn drop(&mut self) {
        self.shared.heap.lock().2 = true;
        self.shared.cv.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn timers_fire_in_order() {
        let svc = TimerService::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, ms) in [(1, 30u64), (2, 10), (3, 20)] {
            let log = Arc::clone(&log);
            svc.schedule(Duration::from_millis(ms), move || log.lock().push(i));
        }
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(*log.lock(), vec![2, 3, 1]);
    }

    #[test]
    fn many_timers_all_fire() {
        let svc = TimerService::new();
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..200 {
            let count = Arc::clone(&count);
            svc.schedule(Duration::from_millis(i % 20), move || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(count.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn drop_stops_the_thread() {
        let svc = TimerService::new();
        svc.schedule(Duration::from_secs(60), || {});
        drop(svc); // must not hang
    }
}
