//! A log kept as a window: the entries above a base index, and the term of
//! the entry at the base. What lies at or below the base is state, not log
//! (see [`crate::snapshot`]).

use std::collections::VecDeque;

/// Something with a term: a Raft log entry.
pub trait Termed {
    /// The term the entry was proposed in.
    fn term(&self) -> u64;
}

/// Entries `base + 1 ..= last_index()`, 1-indexed like Raft's log; index
/// `base` is known by its term only, anything below not at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogWindow<E> {
    base: u64,
    base_term: u64,
    entries: VecDeque<E>,
}

impl<E> Default for LogWindow<E> {
    fn default() -> Self {
        LogWindow {
            base: 0,
            base_term: 0,
            entries: VecDeque::new(),
        }
    }
}

impl<E: Termed> LogWindow<E> {
    /// Index below the first retained entry.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Index of the last entry (the base, when nothing is retained).
    pub fn last_index(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Term of the last entry (the base's, when nothing is retained).
    pub fn last_term(&self) -> u64 {
        self.entries.back().map_or(self.base_term, Termed::term)
    }

    /// Entries retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `index`, if it is inside the window.
    pub fn get(&self, index: u64) -> Option<&E> {
        let offset = index.checked_sub(self.base + 1)?;
        self.entries.get(usize::try_from(offset).ok()?)
    }

    /// The term at `index`: known inside the window and at its base.
    pub fn term_at(&self, index: u64) -> Option<u64> {
        if index == self.base {
            return Some(self.base_term);
        }
        self.get(index).map(Termed::term)
    }

    /// The retained entries from `from` on, in order.
    pub fn iter_from(
        &self,
        from: u64,
    ) -> impl DoubleEndedIterator<Item = (u64, &E)> + ExactSizeIterator {
        let skip = from.saturating_sub(self.base + 1);
        let skip = usize::try_from(skip).unwrap_or(usize::MAX);
        let first = self.base + 1;
        self.entries
            .iter()
            .enumerate()
            .skip(skip)
            .map(move |(i, e)| (first + i as u64, e))
    }

    /// Appends an entry at `last_index() + 1`.
    pub fn push(&mut self, entry: E) {
        self.entries.push_back(entry);
    }

    /// Drops every entry at `index` and above.
    pub fn truncate_from(&mut self, index: u64) {
        let keep = index.saturating_sub(self.base + 1);
        self.entries
            .truncate(usize::try_from(keep).unwrap_or(usize::MAX));
    }

    /// Moves the base up to `index` (inside the window), releasing the
    /// entries at and below it.
    pub fn release_to(&mut self, index: u64) {
        let Some(term) = self.term_at(index) else {
            return;
        };
        self.entries.drain(..(index - self.base) as usize);
        self.base = index;
        self.base_term = term;
    }

    /// Forgets everything: the log now starts above `base`.
    pub fn reset(&mut self, base: u64, base_term: u64) {
        self.entries.clear();
        self.base = base;
        self.base_term = base_term;
    }
}
