//! # paxi-storage
//!
//! Durable replica state for the Paxi framework: an append-only write-ahead
//! log of CRC32-checked, length-prefixed records (the same framing the
//! socket transports use), with segment rotation, snapshot-plus-truncate
//! compaction, and configurable fsync policies — behind a [`Storage`] trait
//! with two backends:
//!
//! * [`FileStorage`] — real files, for the wall-clock runtimes in
//!   `paxi-transport`.
//! * [`MemStorage`] / [`MemHub`] — a deterministic in-memory "disk", for
//!   `paxi-sim`, so simulated crash-recovery runs stay bit-for-bit
//!   replayable and storage faults (torn tail writes, corrupted records,
//!   lost unsynced suffixes) can be injected on purpose.
//!
//! The durability model is deliberately pessimistic: bytes appended but not
//! yet synced are *lost* on a crash (as under power failure), which is what
//! makes `FsyncPolicy::Never` vs `FsyncPolicy::Always` an interesting
//! experiment rather than a no-op.
//!
//! A backend compacts when it is handed a snapshot; when one is due is its
//! caller's decision (for the protocols: `paxi_protocols::kernel`).

#![warn(missing_docs)]

pub mod file;
pub mod mem;
pub mod record;

pub use file::FileStorage;
pub use mem::{MemHub, MemStorage, StorageFault};
pub use record::{crc32, encode_record, put_record, scan_records, Damage};

use std::fmt;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every append is synced before it returns — nothing acknowledged is
    /// ever lost, at one sync per append.
    Always,
    /// Sync after `appends` buffered records, or once `interval_micros` has
    /// elapsed since the oldest unsynced append. The interval is checked on
    /// the next append *and* on [`Storage::tick`], which wall-clock runtimes
    /// drive periodically so a quiet replica's tail does not stay unsynced
    /// indefinitely. The deterministic in-memory backend counts appends
    /// alone (no wall clock to honor the interval).
    Batch {
        /// Unsynced appends that trigger a sync.
        appends: usize,
        /// Microseconds after which a sync is forced regardless of count.
        interval_micros: u64,
    },
    /// Never sync implicitly; a crash loses every append since the last
    /// explicit [`Storage::sync`] (or snapshot install).
    Never,
}

impl FsyncPolicy {
    /// A middle-of-the-road group-commit policy: sync every 8 appends or
    /// every millisecond, whichever comes first.
    pub fn batch8() -> Self {
        FsyncPolicy::Batch {
            appends: 8,
            interval_micros: 1_000,
        }
    }

    /// Short label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Batch { appends, .. } => format!("batch({appends})"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// Errors surfaced by a storage backend.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed (file backend only).
    Io(std::io::Error),
    /// A record larger than the framing layer allows was appended.
    RecordTooLarge(usize),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::RecordTooLarge(n) => write!(f, "record of {n} bytes exceeds MAX_FRAME"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Everything a recovering replica gets back from its storage.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The most recent snapshot installed, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Payloads of every intact WAL record appended after that snapshot,
    /// in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the log tail was damaged (and repaired by truncation).
    pub damage: Damage,
}

/// Hands a snapshot to [`Storage::install_snapshot_chunks`] one bounded chunk
/// at a time, so neither side ever holds the whole image: the producer
/// encodes into one buffer it reuses, the backend writes each chunk out
/// before asking for the next. The installed snapshot is the chunks'
/// concatenation.
pub trait ChunkSource {
    /// The next chunk, or `None` once the image is complete. The slice is
    /// only valid until the next call.
    fn next_chunk(&mut self) -> Option<&[u8]>;
}

/// A whole snapshot already in one buffer, as a one-chunk source.
impl ChunkSource for Option<&[u8]> {
    fn next_chunk(&mut self) -> Option<&[u8]> {
        self.take()
    }
}

/// A durable log + snapshot store for one replica.
///
/// Protocols append opaque payloads (their own serialized WAL records) at
/// persist-before-ack points; the backend batches and syncs them per its
/// [`FsyncPolicy`]. [`Storage::install_snapshot`] atomically replaces the
/// snapshot *and truncates the log* — compaction is the caller re-appending
/// whatever tail records it still needs afterwards.
pub trait Storage: Send {
    /// Appends one record. Depending on the fsync policy this may or may
    /// not be durable when it returns; see [`Storage::sync`].
    fn append(&mut self, payload: &[u8]) -> Result<(), StorageError>;

    /// Forces every buffered append to stable storage.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Time-driven sync check for batch policies: flushes buffered appends
    /// if the policy's interval bound has elapsed, and is a no-op otherwise
    /// (including for `Always` — nothing is ever buffered — and `Never` —
    /// which must only sync explicitly). Wall-clock runtimes call this
    /// periodically between events; the default does nothing, which is
    /// correct for backends without a wall clock.
    fn tick(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Atomically installs `snapshot` and truncates the WAL. Durable on
    /// return regardless of policy (a snapshot that can vanish is useless).
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError>;

    /// [`Storage::install_snapshot`] for an image that arrives in chunks:
    /// same atomicity (a crash at any point leaves the old snapshot with
    /// the old WAL, or the complete new snapshot), without the image ever
    /// being in one buffer. The default is for decorators and simple
    /// backends: it concatenates the chunks and installs them as one.
    fn install_snapshot_chunks(
        &mut self,
        chunks: &mut dyn ChunkSource,
    ) -> Result<(), StorageError> {
        let mut whole = Vec::new();
        while let Some(chunk) = chunks.next_chunk() {
            whole.extend_from_slice(chunk);
        }
        self.install_snapshot(&whole)
    }

    /// Reads back the snapshot and the intact log suffix, truncating any
    /// torn or corrupt tail it finds.
    fn recover(&mut self) -> Result<Recovery, StorageError>;

    /// The backend's sync policy.
    fn policy(&self) -> FsyncPolicy;
}
