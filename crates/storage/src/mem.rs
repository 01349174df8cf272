//! Deterministic in-memory storage backend for the simulator.
//!
//! A [`MemHub`] is the "disk array" of a simulated cluster: one in-memory
//! disk per key (the simulator uses `NodeId`). Handles are cheap clones
//! sharing the hub, so the simulator can crash a node's disk — dropping the
//! unsynced suffix and applying any injected [`StorageFault`]s — while the
//! replica holds its own [`MemStorage`] handle. Everything is synchronous
//! and allocation-only, so simulation runs stay bit-for-bit deterministic.

use crate::record::{put_record, record_spans, scan_records};
use crate::{ChunkSource, FsyncPolicy, Recovery, Storage, StorageError};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A storage fault applied to a disk at crash time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The final synced record is cut in half, as if the machine died
    /// mid-write: recovery must detect and truncate it.
    TornTail,
    /// One byte of the final synced record is flipped in place, as if the
    /// medium rotted: recovery must fail its CRC and truncate.
    CorruptRecord,
}

#[derive(Debug, Default)]
struct MemDisk {
    snapshot: Option<Vec<u8>>,
    /// A snapshot install in progress — the file backend's `snapshot.tmp`.
    /// It survives a crash as garbage and recovery deletes it.
    staging: Option<Vec<u8>>,
    /// Bytes that survived the last sync (or snapshot install).
    synced: Vec<u8>,
    /// Appends since the last sync — lost if the node crashes.
    unsynced: Vec<u8>,
    unsynced_appends: usize,
    /// Syncs since last drained (the simulator charges these).
    syncs: u64,
    /// Appends since last drained (the simulator's WAL-append counter).
    appends: u64,
    /// Faults armed for the next crash.
    faults: Vec<StorageFault>,
}

impl MemDisk {
    fn flush(&mut self) {
        if self.unsynced.is_empty() {
            return;
        }
        self.synced.extend_from_slice(&self.unsynced);
        self.unsynced.clear();
        self.unsynced_appends = 0;
        self.syncs += 1;
    }

    fn crash(&mut self) {
        self.unsynced.clear();
        self.unsynced_appends = 0;
        for fault in std::mem::take(&mut self.faults) {
            let Some(&(start, end)) = record_spans(&self.synced).last() else {
                continue;
            };
            match fault {
                StorageFault::TornTail => {
                    // Leave a strict prefix of the record: torn, not gone.
                    self.synced.truncate(start + (end - start) / 2);
                }
                StorageFault::CorruptRecord => {
                    // Flip a payload byte (or a CRC byte for empty payloads).
                    let idx = if end > start + 8 {
                        start + 8
                    } else {
                        start + 4
                    };
                    self.synced[idx] ^= 0x01;
                }
            }
        }
    }
}

/// Locks the disk array. A panic while it is held leaves every disk a
/// well-formed `MemDisk`, so a poisoned lock is taken as it stands.
fn lock<K>(disks: &Mutex<HashMap<K, MemDisk>>) -> MutexGuard<'_, HashMap<K, MemDisk>> {
    disks.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared in-memory "disk array": one durable store per key.
#[derive(Debug)]
pub struct MemHub<K: Eq + Hash> {
    disks: Arc<Mutex<HashMap<K, MemDisk>>>,
    policy: FsyncPolicy,
}

impl<K: Eq + Hash> Clone for MemHub<K> {
    fn clone(&self) -> Self {
        MemHub {
            disks: Arc::clone(&self.disks),
            policy: self.policy,
        }
    }
}

impl<K: Eq + Hash + Clone + Send + 'static> MemHub<K> {
    /// An empty hub whose handles all use `policy`.
    pub fn new(policy: FsyncPolicy) -> Self {
        MemHub {
            disks: Arc::new(Mutex::new(HashMap::new())),
            policy,
        }
    }

    /// Opens (creating if needed) the disk for `key` and returns a handle.
    /// Re-opening after a crash sees whatever survived.
    pub fn open(&self, key: K) -> MemStorage<K> {
        lock(&self.disks).entry(key.clone()).or_default();
        MemStorage {
            disks: Arc::clone(&self.disks),
            key,
            policy: self.policy,
        }
    }

    /// Arms `fault` to be applied to `key`'s disk at its next crash.
    pub fn inject(&self, key: K, fault: StorageFault) {
        lock(&self.disks).entry(key).or_default().faults.push(fault);
    }

    /// Crashes `key`'s disk: the unsynced suffix is lost and any armed
    /// faults are applied to the synced bytes.
    pub fn crash(&self, key: &K) {
        if let Some(d) = lock(&self.disks).get_mut(key) {
            d.crash();
        }
    }

    /// Copies what `key`'s disk would hold if the machine lost power at this
    /// instant — the snapshot, a half-written install, the synced log — to
    /// the disk `to`, so a test can recover from any intermediate state
    /// while the original carries on. Armed faults are not copied.
    pub fn fork_crashed(&self, key: &K, to: K) {
        let mut disks = lock(&self.disks);
        let image = disks.get(key).map(|d| MemDisk {
            snapshot: d.snapshot.clone(),
            staging: d.staging.clone(),
            synced: d.synced.clone(),
            ..MemDisk::default()
        });
        disks.insert(to, image.unwrap_or_default());
    }

    /// Returns and resets the number of syncs `key`'s disk performed since
    /// the last drain — the simulator turns these into service time.
    pub fn drain_syncs(&self, key: &K) -> u64 {
        lock(&self.disks)
            .get_mut(key)
            .map(|d| std::mem::take(&mut d.syncs))
            .unwrap_or(0)
    }

    /// Returns and resets the number of records appended to `key`'s disk
    /// since the last drain — the simulator's observability layer feeds
    /// these into the per-node WAL-append counter.
    pub fn drain_appends(&self, key: &K) -> u64 {
        lock(&self.disks)
            .get_mut(key)
            .map(|d| std::mem::take(&mut d.appends))
            .unwrap_or(0)
    }

    /// Bytes currently synced for `key` (diagnostics and tests).
    pub fn synced_len(&self, key: &K) -> usize {
        lock(&self.disks)
            .get(key)
            .map(|d| d.synced.len())
            .unwrap_or(0)
    }

    /// Bytes currently buffered but unsynced for `key` (tests).
    pub fn unsynced_len(&self, key: &K) -> usize {
        lock(&self.disks)
            .get(key)
            .map(|d| d.unsynced.len())
            .unwrap_or(0)
    }
}

/// One replica's handle onto its [`MemHub`] disk.
#[derive(Debug)]
pub struct MemStorage<K: Eq + Hash> {
    disks: Arc<Mutex<HashMap<K, MemDisk>>>,
    key: K,
    policy: FsyncPolicy,
}

impl<K: Eq + Hash + Clone + Send + 'static> Storage for MemStorage<K> {
    fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        if payload.len() + 4 > paxi_codec::MAX_FRAME {
            return Err(StorageError::RecordTooLarge(payload.len()));
        }
        let mut disks = lock(&self.disks);
        let d = disks.entry(self.key.clone()).or_default();
        put_record(&mut d.unsynced, payload);
        d.unsynced_appends += 1;
        d.appends = d.appends.saturating_add(1);
        match self.policy {
            FsyncPolicy::Always => d.flush(),
            FsyncPolicy::Batch { appends, .. } => {
                // Deterministic backend: the count threshold alone triggers
                // the group commit (no wall clock to honor the interval).
                if d.unsynced_appends >= appends.max(1) {
                    d.flush();
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let mut disks = lock(&self.disks);
        disks.entry(self.key.clone()).or_default().flush();
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.install_snapshot_chunks(&mut Some(snapshot))
    }

    fn install_snapshot_chunks(
        &mut self,
        chunks: &mut dyn ChunkSource,
    ) -> Result<(), StorageError> {
        // The lock is taken per step, as the file backend's crash points
        // are: the hub can crash or copy this disk between any two chunks.
        let key = &self.key;
        lock(&self.disks).entry(key.clone()).or_default().staging = Some(Vec::new());
        while let Some(chunk) = chunks.next_chunk() {
            let mut disks = lock(&self.disks);
            let d = disks.entry(key.clone()).or_default();
            d.staging
                .get_or_insert_with(Vec::new)
                .extend_from_slice(chunk);
        }
        // The rename and the truncation of the log, as one step: the file
        // backend's snapshot epoch makes its two steps atomic to recovery.
        let mut disks = lock(&self.disks);
        let d = disks.entry(key.clone()).or_default();
        d.snapshot = Some(d.staging.take().unwrap_or_default());
        d.synced.clear();
        d.unsynced.clear();
        d.unsynced_appends = 0;
        d.syncs += 1;
        Ok(())
    }

    fn recover(&mut self) -> Result<Recovery, StorageError> {
        let mut disks = lock(&self.disks);
        let d = disks.entry(self.key.clone()).or_default();
        // A crash will already have emptied the unsynced buffer before
        // recovery runs; on a live handle, flush the buffered suffix first
        // so the records reported as recovered are exactly the bytes that
        // are durable afterwards — returning buffered records while
        // discarding them from the disk would lose them at the next crash.
        d.flush();
        d.staging = None;
        let scan = scan_records(&d.synced);
        // Repair: drop the damaged tail so the next append starts clean.
        d.synced.truncate(scan.valid_len);
        Ok(Recovery {
            snapshot: d.snapshot.clone(),
            records: scan.records,
            damage: scan.damage,
        })
    }

    fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Damage;

    fn payloads(r: &Recovery) -> Vec<&[u8]> {
        r.records.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn appends_recover_in_order() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = hub.open(7);
        s.append(b"a").unwrap();
        s.append(b"bb").unwrap();
        s.append(b"ccc").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"a".as_slice(), b"bb", b"ccc"]);
        assert!(r.snapshot.is_none());
    }

    #[test]
    fn crash_under_never_loses_exactly_the_unsynced_suffix() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Never);
        let mut s = hub.open(1);
        s.append(b"synced-1").unwrap();
        s.append(b"synced-2").unwrap();
        s.sync().unwrap();
        s.append(b"doomed-1").unwrap();
        s.append(b"doomed-2").unwrap();
        hub.crash(&1);
        let r = hub.open(1).recover().unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"synced-1".as_slice(), b"synced-2"]);
    }

    #[test]
    fn batch_policy_flushes_on_the_count_threshold() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Batch {
            appends: 3,
            interval_micros: 0,
        });
        let mut s = hub.open(1);
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        assert_eq!(hub.synced_len(&1), 0, "below threshold: still buffered");
        s.append(b"three").unwrap();
        assert!(
            hub.synced_len(&1) > 0,
            "third append triggers the group commit"
        );
        assert_eq!(hub.unsynced_len(&1), 0);
        assert_eq!(hub.drain_syncs(&1), 1);
        assert_eq!(hub.drain_syncs(&1), 0, "drain resets the counter");
    }

    #[test]
    fn recover_on_a_live_handle_makes_reported_records_durable() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Never);
        let mut s = hub.open(1);
        s.append(b"synced").unwrap();
        s.sync().unwrap();
        s.append(b"buffered").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(payloads(&r), vec![b"synced".as_slice(), b"buffered"]);
        // Whatever recover reported must survive a crash right after it.
        hub.crash(&1);
        let r2 = hub.open(1).recover().unwrap();
        assert_eq!(r2.damage, Damage::Clean);
        assert_eq!(payloads(&r2), vec![b"synced".as_slice(), b"buffered"]);
    }

    #[test]
    fn snapshot_install_truncates_the_log() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = hub.open(1);
        s.append(b"pre-snapshot").unwrap();
        s.install_snapshot(b"STATE").unwrap();
        s.append(b"post-snapshot").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"STATE".as_slice()));
        assert_eq!(payloads(&r), vec![b"post-snapshot".as_slice()]);
    }

    /// Hands out `chunks`; before handing out chunk `at` (or the final
    /// `None`) it forks the disk as a power loss at that instant leaves it.
    struct KilledAt<'a> {
        chunks: &'a [&'a [u8]],
        given: usize,
        at: usize,
        hub: &'a MemHub<u32>,
    }

    impl ChunkSource for KilledAt<'_> {
        fn next_chunk(&mut self) -> Option<&[u8]> {
            if self.given == self.at {
                self.hub.fork_crashed(&1, 100);
            }
            self.given += 1;
            self.chunks.get(self.given - 1).copied()
        }
    }

    #[test]
    fn interrupted_chunked_install_recovers_the_old_state_or_the_new_never_a_mix() {
        let chunks: [&[u8]; 3] = [b"NEW-", b"IMAGE-", b"CHUNKS"];
        for at in 0..=chunks.len() {
            for fault in [
                None,
                Some(StorageFault::TornTail),
                Some(StorageFault::CorruptRecord),
            ] {
                let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
                let mut s = hub.open(1);
                s.append(b"pre-old-image").unwrap();
                s.install_snapshot(b"OLD").unwrap();
                s.append(b"wal-a").unwrap();
                s.append(b"wal-b").unwrap();
                s.install_snapshot_chunks(&mut KilledAt {
                    chunks: &chunks,
                    given: 0,
                    at,
                    hub: &hub,
                })
                .unwrap();
                s.append(b"wal-c").unwrap();
                assert_eq!(hub.drain_syncs(&1), 6, "a chunked install is one sync");

                // Killed after `at` of 3 chunks: the old image, the old WAL
                // (less the record the fault took), no trace of the new one.
                fault.into_iter().for_each(|f| hub.inject(100, f));
                hub.crash(&100);
                let r = hub.open(100).recover().unwrap();
                assert_eq!(r.snapshot.as_deref(), Some(b"OLD".as_slice()), "at {at}");
                match fault {
                    None => assert_eq!(payloads(&r), vec![b"wal-a".as_slice(), b"wal-b"]),
                    Some(_) => assert_eq!(payloads(&r), vec![b"wal-a".as_slice()]),
                }
                let again = hub.open(100).recover().unwrap();
                assert_eq!(again.damage, Damage::Clean);
                assert_eq!(again.snapshot, r.snapshot);
                assert_eq!(again.records, r.records);

                // Completed: the new image, and only what was logged since.
                fault.into_iter().for_each(|f| hub.inject(1, f));
                hub.crash(&1);
                let r = hub.open(1).recover().unwrap();
                assert_eq!(r.snapshot.as_deref(), Some(b"NEW-IMAGE-CHUNKS".as_slice()));
                match fault {
                    None => assert_eq!(payloads(&r), vec![b"wal-c".as_slice()]),
                    Some(_) => assert!(r.records.is_empty()),
                }
            }
        }
    }

    #[test]
    fn torn_tail_injection_is_detected_and_truncated() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = hub.open(1);
        s.append(b"keep").unwrap();
        s.append(b"torn").unwrap();
        hub.inject(1, StorageFault::TornTail);
        hub.crash(&1);
        let r = hub.open(1).recover().unwrap();
        assert_eq!(r.damage, Damage::TornTail);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        // Recovery repaired the log: a fresh append then recovers cleanly.
        let mut s = hub.open(1);
        s.append(b"after").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"keep".as_slice(), b"after"]);
    }

    #[test]
    fn corrupt_record_injection_is_detected_and_truncated() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        let mut s = hub.open(1);
        s.append(b"keep").unwrap();
        s.append(b"rots").unwrap();
        hub.inject(1, StorageFault::CorruptRecord);
        hub.crash(&1);
        let r = hub.open(1).recover().unwrap();
        assert_eq!(r.damage, Damage::Corrupt);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
    }

    #[test]
    fn handles_share_one_disk_per_key() {
        let hub: MemHub<u32> = MemHub::new(FsyncPolicy::Always);
        hub.open(1).append(b"from-a").unwrap();
        let r = hub.open(1).recover().unwrap();
        assert_eq!(payloads(&r), vec![b"from-a".as_slice()]);
        assert!(hub.open(2).recover().unwrap().records.is_empty());
    }
}
