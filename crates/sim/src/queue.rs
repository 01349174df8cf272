//! The simulator's event queue.
//!
//! A binary heap of small `(at, seq, slot)` keys over a slab of payloads. A
//! payload is written into a slab slot once when it is pushed and taken out
//! once when it pops; in between the heap only moves its 24-byte key. A
//! popped payload's slot goes on a free list and the next push reuses it, so
//! once the queue has reached its largest depth, pushing allocates nothing.
//!
//! Order is `(at, seq)`: the earliest event first, and of events due at one
//! instant, the one pushed first. `seq` counts pushes, so no two keys tie
//! and the slot a payload happens to occupy never decides anything.

use paxi_core::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events in `(at, seq)` order; see the module documentation.
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Queues `event` at `at`, behind every event already queued at `at`.
    pub(crate) fn push(&mut self, at: Nanos, event: T) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
    }

    /// Takes the first event in `(at, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, T)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot as usize].take();
        self.free.push(slot);
        Some((at, event.expect("a queued key's slot holds its event")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::Rng64;

    #[test]
    fn events_due_at_one_instant_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Nanos(10), i);
        }
        q.push(Nanos(5), 100);
        assert_eq!(q.pop(), Some((Nanos(5), 100)));
        assert_eq!(q.pop(), Some((Nanos(10), 0)));
        assert_eq!(q.pop(), Some((Nanos(10), 1)));
        // The two freed slots are reused, last freed first: slot order is
        // the reverse of push order, and still push order wins.
        q.push(Nanos(10), 5);
        q.push(Nanos(10), 6);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<_> = (2..7).map(|i| (Nanos(10), i)).collect();
        assert_eq!(rest, want);
        assert_eq!(q.pop(), None);
        assert!(q.slab.len() <= 6, "popped slots are reused");
    }

    /// The event of the binary heap the simulator used before this queue:
    /// the whole event in the heap, reverse-ordered by `(at, seq)`.
    struct Reference {
        at: Nanos,
        seq: u64,
        payload: u64,
    }

    impl PartialEq for Reference {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl Eq for Reference {}
    impl PartialOrd for Reference {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Reference {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    #[test]
    fn a_random_interleaving_pops_what_a_heap_of_whole_events_pops() {
        for seed in 0..20 {
            let mut rng = Rng64::seed(seed);
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let (mut seq, mut now) = (0, 0);
            for payload in 0..2_000u64 {
                // Mostly pushes early, mostly pops late; few distinct
                // instants, so ties are common.
                let push = rng.below(2_000) >= payload;
                if push {
                    let at = Nanos(now + rng.below(8));
                    seq += 1;
                    q.push(at, payload);
                    reference.push(Reference { at, seq, payload });
                } else {
                    let want = reference.pop().map(|e| (e.at, e.payload));
                    let got = q.pop();
                    assert_eq!(got, want, "seed {seed}");
                    now = got.map_or(now, |(at, _)| at.0);
                }
            }
            while let Some(e) = reference.pop() {
                assert_eq!(q.pop(), Some((e.at, e.payload)), "seed {seed}");
            }
            assert_eq!(q.pop(), None);
        }
    }
}
