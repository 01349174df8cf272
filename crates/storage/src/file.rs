//! File-backed storage for the wall-clock runtimes.
//!
//! Layout under the replica's directory:
//!
//! ```text
//! <dir>/snapshot.bin      # u64 WAL epoch + last installed snapshot (tmp + rename)
//! <dir>/snapshot.tmp      # an install in progress; recovery deletes it
//! <dir>/wal-000001.log    # WAL segments, rotated at ~1 MiB
//! <dir>/wal-000002.log
//! ```
//!
//! The snapshot header records the WAL epoch — the lowest segment sequence
//! written after the snapshot — so an `install_snapshot` interrupted between
//! the snapshot rename and the old-segment deletions cannot leak stale
//! records into a later recovery: segments below the epoch are ignored and
//! deleted. The directory itself is fsynced after renames, segment
//! creations, and deletions, so those survive power loss too.
//!
//! Appends are buffered in memory until a sync is due per the
//! [`FsyncPolicy`]; only a sync writes them to the active segment and
//! `fsync`s it. There is deliberately **no** flush-on-drop: a handle that
//! dies (process crash, amnesia fault) loses exactly its unsynced suffix,
//! which is the durability model the recovery tests exercise.
//!
//! A segment is preallocated when it is created: `fallocate` reserves the
//! rotation threshold and sets the file's size once, and every sync writes
//! its records at an explicit offset inside that space. A synced append
//! therefore moves no file size, so `fdatasync` has no size to make durable
//! and does not wait for a filesystem journal commit (it still does where an
//! extent is written for the first time). A segment is a run of records
//! followed by its never-written tail, which reads as zeros: recovery stops
//! at the first zero length prefix (see [`crate::record`]). The last sync
//! before rotation may run past the threshold, and the file grows there as
//! it does where the filesystem cannot preallocate. Segments written before
//! preallocation (records end to end, no zero tail) recover the same way.

use crate::record::{put_record, scan_records, Damage};
use crate::{ChunkSource, FsyncPolicy, Recovery, Storage, StorageError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rotate the active segment once its synced size passes this; a new
/// segment is preallocated to it.
const SEGMENT_LIMIT: u64 = 1 << 20;

/// `snapshot.bin` starts with a little-endian u64 WAL epoch: the lowest
/// segment sequence number written *after* the snapshot was installed.
/// Recovery ignores (and deletes) segments below it — they predate the
/// snapshot and only survive a crash that interrupted `install_snapshot`
/// between the snapshot rename and the segment deletions.
const SNAPSHOT_HEADER: usize = 8;

/// Durable log + snapshot store in one directory.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_limit: u64,
    active_seq: u64,
    active: Option<File>,
    /// Bytes of records synced into the active segment: where the next
    /// sync writes. 0 whenever `active` is `None`.
    active_len: u64,
    unsynced: Vec<u8>,
    unsynced_appends: usize,
    oldest_unsynced: Option<Instant>,
}

impl FileStorage {
    /// Opens (creating if needed) the store under `dir`.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        Self::open_with_segment_limit(dir, policy, SEGMENT_LIMIT)
    }

    /// Opens (creating if needed) the WAL namespace `namespace` under
    /// `root` — a sub-store in its own directory with independent segments,
    /// snapshots, and compaction. Sharded deployments open one namespace per
    /// consensus group (e.g. `root/node-0.1/group-3`), so a node's groups
    /// recover independently while sharing one storage root.
    pub fn open_namespaced(
        root: impl AsRef<Path>,
        namespace: &str,
        policy: FsyncPolicy,
    ) -> Result<Self, StorageError> {
        Self::open(root.as_ref().join(namespace), policy)
    }

    /// Like [`FileStorage::open`] with an explicit rotation threshold
    /// (small limits make rotation testable).
    pub fn open_with_segment_limit(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        segment_limit: u64,
    ) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let last = Self::segments(&dir)?
            .last()
            .map(|&(seq, _)| seq)
            .unwrap_or(0);
        // New segments must never be numbered below the snapshot epoch, or
        // recovery would discard them as pre-snapshot leftovers.
        let epoch = Self::snapshot_epoch(&dir)?;
        Ok(FileStorage {
            dir,
            policy,
            segment_limit: segment_limit.max(1),
            // Never reopen an old segment for writing: recovery may have
            // truncated it, and a fresh file keeps the append path simple.
            active_seq: (last + 1).max(epoch),
            active: None,
            active_len: 0,
            unsynced: Vec::new(),
            unsynced_appends: 0,
            oldest_unsynced: None,
        })
    }

    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.bin")
    }

    /// Where an install writes the image before renaming it into place.
    fn snapshot_tmp_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.tmp")
    }

    /// The WAL epoch recorded in the snapshot header (0 when there is no
    /// snapshot, or one too short to carry a header).
    fn snapshot_epoch(dir: &Path) -> Result<u64, StorageError> {
        let path = Self::snapshot_path(dir);
        if !path.exists() {
            return Ok(0);
        }
        let mut buf = [0u8; SNAPSHOT_HEADER];
        match File::open(&path)?.read_exact(&mut buf) {
            Ok(()) => Ok(u64::from_le_bytes(buf)),
            Err(_) => Ok(0),
        }
    }

    /// Fsyncs the directory itself, making renames, creations, and
    /// deletions of its entries durable.
    fn sync_dir(dir: &Path) -> Result<(), StorageError> {
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    fn segment_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("wal-{seq:06}.log"))
    }

    /// WAL segments under `dir`, in ascending sequence order.
    fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((seq, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(out)
    }

    /// Creates segment `active_seq`, preallocated to the rotation
    /// threshold, and makes its directory entry durable.
    fn create_segment(&self) -> Result<File, StorageError> {
        let path = Self::segment_path(&self.dir, self.active_seq);
        // Never a live segment: the sequence is past every one on disk.
        let f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        preallocate(&f, self.segment_limit)?;
        // Make the new segment's directory entry durable: a synced record
        // in a file the directory forgot is a record lost.
        Self::sync_dir(&self.dir)?;
        Ok(f)
    }

    /// Writes the unsynced records into the active segment at offset
    /// `active_len` and syncs them, creating the segment first if there is
    /// none. Nothing moves until the sync has returned: a flush that fails
    /// keeps its records buffered, and a retry writes them at the same
    /// offset, over whatever part of them did land, never after it.
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.unsynced.is_empty() {
            return Ok(());
        }
        let f = match self.active.take() {
            Some(f) => f,
            None => self.create_segment()?,
        };
        let f = self.active.insert(f);
        f.write_all_at(&self.unsynced, self.active_len)?;
        f.sync_data()?;
        self.active_len += self.unsynced.len() as u64;
        self.unsynced.clear();
        self.unsynced_appends = 0;
        self.oldest_unsynced = None;
        if self.active_len >= self.segment_limit {
            self.active = None;
            self.active_seq += 1;
            self.active_len = 0;
        }
        Ok(())
    }

    fn sync_due(&self) -> bool {
        match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch {
                appends,
                interval_micros,
            } => {
                self.unsynced_appends >= appends.max(1)
                    || self
                        .oldest_unsynced
                        .is_some_and(|t| t.elapsed().as_micros() as u64 >= interval_micros)
            }
            FsyncPolicy::Never => false,
        }
    }
}

/// Reserves `len` bytes for `f` from offset 0 and sets its size to `len`
/// (`fallocate(2)` mode 0), so that writes inside them move no file size.
/// A filesystem that cannot preallocate (`EOPNOTSUPP`) leaves the file to
/// grow with each write; every other error, `ENOSPC` included, is returned.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn preallocate(f: &File, len: u64) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    const EOPNOTSUPP: i32 = 95;
    extern "C" {
        // Linux: int fallocate(int fd, int mode, off_t offset, off_t len);
        // off_t is 64 bits on this target.
        fn fallocate(
            fd: std::ffi::c_int,
            mode: std::ffi::c_int,
            offset: i64,
            len: i64,
        ) -> std::ffi::c_int;
    }
    let len = i64::try_from(len).unwrap_or(i64::MAX);
    loop {
        // SAFETY: the descriptor belongs to `f`, which is open for writing
        // and outlives the call; the call reads no memory of ours.
        if unsafe { fallocate(f.as_raw_fd(), 0, 0, len) } == 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        match err.raw_os_error() {
            Some(EOPNOTSUPP) => return Ok(()),
            _ if err.kind() == std::io::ErrorKind::Interrupted => continue,
            _ => return Err(err),
        }
    }
}

/// Without `fallocate` the segment grows with each write.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn preallocate(_f: &File, _len: u64) -> std::io::Result<()> {
    Ok(())
}

impl Storage for FileStorage {
    fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        if payload.len() + 4 > paxi_codec::MAX_FRAME {
            return Err(StorageError::RecordTooLarge(payload.len()));
        }
        put_record(&mut self.unsynced, payload);
        self.unsynced_appends += 1;
        self.oldest_unsynced.get_or_insert_with(Instant::now);
        if self.sync_due() {
            self.flush()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.flush()
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.install_snapshot_chunks(&mut Some(snapshot))
    }

    fn install_snapshot_chunks(
        &mut self,
        chunks: &mut dyn ChunkSource,
    ) -> Result<(), StorageError> {
        // Every segment on disk is numbered <= active_seq, so stamping the
        // next sequence as the epoch marks them all as superseded the
        // instant the rename below lands.
        let epoch = self.active_seq + 1;
        let tmp = Self::snapshot_tmp_path(&self.dir);
        {
            // A crash in here leaves a partial tmp beside the old snapshot
            // and the old WAL; recovery deletes it.
            let mut f = File::create(&tmp)?;
            f.write_all(&epoch.to_le_bytes())?;
            while let Some(chunk) = chunks.next_chunk() {
                f.write_all(chunk)?;
            }
            f.sync_data()?;
        }
        fs::rename(&tmp, Self::snapshot_path(&self.dir))?;
        // The rename must survive power loss before the old log goes: a
        // crash past this point leaves stale segments behind, but recovery
        // ignores anything below the epoch.
        Self::sync_dir(&self.dir)?;
        // The log is now redundant up to this snapshot: truncate it all.
        // The caller re-appends whatever tail it still needs.
        self.active = None;
        self.unsynced.clear();
        self.unsynced_appends = 0;
        self.oldest_unsynced = None;
        self.active_len = 0;
        for (_, path) in Self::segments(&self.dir)? {
            fs::remove_file(path)?;
        }
        Self::sync_dir(&self.dir)?;
        self.active_seq = epoch;
        Ok(())
    }

    fn recover(&mut self) -> Result<Recovery, StorageError> {
        let mut out = Recovery::default();
        let epoch = Self::snapshot_epoch(&self.dir)?;
        let snap_path = Self::snapshot_path(&self.dir);
        if snap_path.exists() {
            let mut buf = Vec::new();
            File::open(&snap_path)?.read_to_end(&mut buf)?;
            if buf.len() >= SNAPSHOT_HEADER {
                out.snapshot = Some(buf[SNAPSHOT_HEADER..].to_vec());
            }
        }
        let mut dir_dirty = false;
        // An install that died before its rename: the old snapshot and the
        // old WAL are the state, the partial image is garbage.
        let tmp = Self::snapshot_tmp_path(&self.dir);
        if tmp.exists() {
            fs::remove_file(tmp)?;
            dir_dirty = true;
        }
        let segments = Self::segments(&self.dir)?;
        for (i, (seq, path)) in segments.iter().enumerate() {
            if *seq < epoch {
                // Pre-snapshot leftovers: install_snapshot crashed between
                // the snapshot rename and the segment deletions. Their
                // records are covered by the snapshot (and replaying them on
                // top of it could regress state) — finish the deletion.
                fs::remove_file(path)?;
                dir_dirty = true;
                continue;
            }
            let mut buf = Vec::new();
            File::open(path)?.read_to_end(&mut buf)?;
            let scan = scan_records(&buf);
            out.records.extend(scan.records);
            if scan.damage != Damage::Clean {
                out.damage = scan.damage;
                // Repair in place: truncate this segment to its valid
                // prefix and drop every later segment — nothing after the
                // damage point can be trusted.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_len as u64)?;
                f.sync_data()?;
                for (_, later) in &segments[i + 1..] {
                    fs::remove_file(later)?;
                }
                dir_dirty = true;
                break;
            }
        }
        if dir_dirty {
            Self::sync_dir(&self.dir)?;
        }
        // Append after the surviving segments, never into them — and never
        // below the snapshot epoch, which marks lower sequences as stale.
        let last = Self::segments(&self.dir)?
            .last()
            .map(|&(seq, _)| seq)
            .unwrap_or(0);
        self.active = None;
        self.active_len = 0;
        self.active_seq = (last + 1).max(epoch);
        Ok(out)
    }

    fn tick(&mut self) -> Result<(), StorageError> {
        if let FsyncPolicy::Batch {
            interval_micros, ..
        } = self.policy
        {
            if self
                .oldest_unsynced
                .is_some_and(|t| t.elapsed().as_micros() as u64 >= interval_micros)
            {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, record_spans};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("paxi-storage-{}-{tag}-{n}", std::process::id()))
    }

    fn payloads(r: &Recovery) -> Vec<&[u8]> {
        r.records.iter().map(|v| v.as_slice()).collect()
    }

    /// The newest segment under `dir` and the byte span of its last record.
    fn last_record(dir: &Path) -> (PathBuf, (usize, usize)) {
        let seg = FileStorage::segments(dir).unwrap().pop().unwrap().1;
        let span = *record_spans(&fs::read(&seg).unwrap()).last().unwrap();
        (seg, span)
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"one".as_slice(), b"two"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_an_unsynced_handle_loses_exactly_the_suffix() {
        let dir = temp_dir("never");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Never).unwrap();
            s.append(b"durable").unwrap();
            s.sync().unwrap();
            s.append(b"doomed").unwrap();
            // Dropped without sync: "doomed" must not reach the disk.
        }
        let r = FileStorage::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"durable".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_write_is_detected_and_truncated() {
        let dir = temp_dir("torn");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"keep").unwrap();
            s.append(b"torn-away").unwrap();
        }
        // Tear the tail: chop the last few bytes off the last record (the
        // segment's preallocated tail goes with them).
        let (seg, (_, end)) = last_record(&dir);
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(end as u64 - 5)
            .unwrap();
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.damage, Damage::TornTail);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        // The damaged suffix was truncated on disk too.
        let r2 = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r2.damage, Damage::Clean);
        assert_eq!(payloads(&r2), vec![b"keep".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_is_detected_and_truncated() {
        let dir = temp_dir("corrupt");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"keep").unwrap();
            s.append(b"rot-me").unwrap();
        }
        let (seg, (_, end)) = last_record(&dir);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[end - 2] ^= 0x80; // inside the final record's payload
        fs::write(&seg, &bytes).unwrap();
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.damage, Damage::Corrupt);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_recover_in_order() {
        let dir = temp_dir("rotate");
        {
            let mut s =
                FileStorage::open_with_segment_limit(&dir, FsyncPolicy::Always, 64).unwrap();
            for i in 0..20u8 {
                s.append(&[i; 16]).unwrap();
            }
        }
        assert!(
            FileStorage::segments(&dir).unwrap().len() > 1,
            "a 64-byte limit must rotate segments"
        );
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(r.records.len(), 20);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec, &vec![i as u8; 16]);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_segments_from_an_interrupted_snapshot_install_are_ignored() {
        let dir = temp_dir("stale");
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        s.append(b"pre-1").unwrap();
        s.append(b"pre-2").unwrap();
        // Keep a copy of the pre-snapshot segment: a crash between the
        // snapshot rename and the segment deletion would leave it behind.
        let seg = FileStorage::segments(&dir).unwrap().pop().unwrap().1;
        let stale = fs::read(&seg).unwrap();
        s.install_snapshot(b"SNAP").unwrap();
        s.append(b"post").unwrap();
        fs::write(&seg, &stale).unwrap(); // resurrect the stale segment
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"SNAP".as_slice()));
        assert_eq!(
            payloads(&r),
            vec![b"post".as_slice()],
            "pre-snapshot records must not replay on top of the snapshot"
        );
        assert!(!seg.exists(), "recovery finishes the interrupted deletion");
        fs::remove_dir_all(&dir).ok();
    }

    /// Hands out `chunks`; before handing out chunk `at` (or the final
    /// `None`, for `at == chunks.len()`) it copies the directory as it is —
    /// what a kill at that instant leaves behind.
    struct KilledAt<'a> {
        chunks: &'a [&'a [u8]],
        given: usize,
        at: usize,
        dir: &'a Path,
        photo: &'a Path,
    }

    impl ChunkSource for KilledAt<'_> {
        fn next_chunk(&mut self) -> Option<&[u8]> {
            if self.given == self.at {
                fs::create_dir_all(self.photo).unwrap();
                for entry in fs::read_dir(self.dir).unwrap() {
                    let entry = entry.unwrap();
                    fs::copy(entry.path(), self.photo.join(entry.file_name())).unwrap();
                }
            }
            self.given += 1;
            self.chunks.get(self.given - 1).copied()
        }
    }

    #[test]
    fn interrupted_chunked_install_recovers_the_old_state_or_the_new_never_a_mix() {
        let chunks: [&[u8]; 3] = [b"NEW-", b"IMAGE-", b"CHUNKS"];
        let recover = |dir: &Path| {
            FileStorage::open(dir, FsyncPolicy::Always)
                .unwrap()
                .recover()
                .unwrap()
        };
        for at in 0..=chunks.len() {
            let dir = temp_dir(&format!("chunked-{at}"));
            let photo = temp_dir(&format!("chunked-{at}-photo"));
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"pre-old-image").unwrap();
            s.install_snapshot(b"OLD").unwrap();
            s.append(b"wal-a").unwrap();
            s.append(b"wal-b").unwrap();
            let stale = FileStorage::segments(&dir).unwrap();
            let stale: Vec<_> = stale
                .into_iter()
                .map(|(_, p)| (fs::read(&p).unwrap(), p))
                .collect();
            s.install_snapshot_chunks(&mut KilledAt {
                chunks: &chunks,
                given: 0,
                at,
                dir: &dir,
                photo: &photo,
            })
            .unwrap();
            s.append(b"wal-c").unwrap();

            // Killed after `at` of 3 chunks (3: all written, not renamed).
            assert!(FileStorage::snapshot_tmp_path(&photo).exists());
            let r = recover(&photo);
            assert_eq!(r.snapshot.as_deref(), Some(b"OLD".as_slice()), "at {at}");
            assert_eq!(payloads(&r), vec![b"wal-a".as_slice(), b"wal-b"]);
            assert!(
                !FileStorage::snapshot_tmp_path(&photo).exists(),
                "recovery deletes the partial image"
            );
            // The same kill with the last WAL record torn as well.
            let (seg, (_, end)) = last_record(&photo);
            let f = OpenOptions::new().write(true).open(&seg).unwrap();
            f.set_len(end as u64 - 3).unwrap();
            let r = recover(&photo);
            assert_eq!(r.damage, Damage::TornTail);
            assert_eq!(r.snapshot.as_deref(), Some(b"OLD".as_slice()));
            assert_eq!(payloads(&r), vec![b"wal-a".as_slice()]);

            // Killed after the rename, before the segment deletions: the old
            // segments are back beside the new image.
            for (bytes, path) in &stale {
                fs::write(path, bytes).unwrap();
            }
            let r = recover(&dir);
            assert_eq!(r.snapshot.as_deref(), Some(b"NEW-IMAGE-CHUNKS".as_slice()));
            assert_eq!(payloads(&r), vec![b"wal-c".as_slice()], "at {at}");
            // Killed after the deletions: the same, and nothing to clean up.
            let r = recover(&dir);
            assert_eq!(r.damage, Damage::Clean);
            assert_eq!(r.snapshot.as_deref(), Some(b"NEW-IMAGE-CHUNKS".as_slice()));
            assert_eq!(payloads(&r), vec![b"wal-c".as_slice()]);
            fs::remove_dir_all(&dir).ok();
            fs::remove_dir_all(&photo).ok();
        }
    }

    #[test]
    fn appends_after_reopening_a_snapshotted_store_are_not_stale() {
        let dir = temp_dir("epoch-reopen");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"old").unwrap();
            s.install_snapshot(b"SNAP").unwrap();
        }
        {
            // A fresh handle must number its segments at or above the epoch,
            // or recovery would discard its appends as pre-snapshot junk.
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"new").unwrap();
        }
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"SNAP".as_slice()));
        assert_eq!(payloads(&r), vec![b"new".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_flushes_a_quiet_batch_tail_after_the_interval() {
        let dir = temp_dir("tick");
        {
            let mut s = FileStorage::open(
                &dir,
                FsyncPolicy::Batch {
                    appends: 100,
                    interval_micros: 1_000,
                },
            )
            .unwrap();
            s.append(b"quiet-tail").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
            s.tick().unwrap();
            // Dropped without an explicit sync: only the tick made it
            // durable.
        }
        let r = FileStorage::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(payloads(&r), vec![b"quiet-tail".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_replaces_the_log() {
        let dir = temp_dir("snapshot");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"old-1").unwrap();
            s.append(b"old-2").unwrap();
            s.install_snapshot(b"SNAP").unwrap();
            s.append(b"new-1").unwrap();
        }
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"SNAP".as_slice()));
        assert_eq!(payloads(&r), vec![b"new-1".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_preallocated_segments_zero_tail_recovers_clean() {
        let dir = temp_dir("zero-tail");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let (seg, (_, end)) = last_record(&dir);
        let bytes = fs::read(&seg).unwrap();
        assert_eq!(bytes.len() as u64, SEGMENT_LIMIT, "preallocated");
        assert!(bytes[end..].iter().all(|&b| b == 0));
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"one".as_slice(), b"two"]);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            SEGMENT_LIMIT,
            "no repair"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_whose_body_ends_in_zeros_is_a_torn_tail() {
        let dir = temp_dir("short-write");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"keep").unwrap();
            s.append(b"the write stopped short").unwrap();
        }
        // The header landed, the second half of the body did not.
        let (seg, (start, end)) = last_record(&dir);
        let mut bytes = fs::read(&seg).unwrap();
        let half = start + 4 + (end - start - 4) / 2;
        bytes[half..end].fill(0);
        fs::write(&seg, &bytes).unwrap();
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::TornTail);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        assert_eq!(fs::metadata(&seg).unwrap().len(), start as u64, "truncated");
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_zero_bytes_after_a_zero_length_prefix_are_a_torn_tail() {
        let dir = temp_dir("zero-prefix");
        {
            let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(b"keep").unwrap();
        }
        // A record's length prefix that never landed, its body that did.
        let (seg, (_, end)) = last_record(&dir);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[end + 4..end + 12].copy_from_slice(b"landed!!");
        fs::write(&seg, &bytes).unwrap();
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::TornTail);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        assert_eq!(fs::metadata(&seg).unwrap().len(), end as u64, "truncated");
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), vec![b"keep".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_in_the_unpreallocated_layout_recovers_every_record() {
        let dir = temp_dir("old-layout");
        fs::create_dir_all(&dir).unwrap();
        // Records end to end and nothing after them, as a segment that grew
        // with each write was left.
        let want: [&[u8]; 3] = [b"first", b"", b"third"];
        let old: Vec<u8> = want.iter().flat_map(|p| encode_record(p)).collect();
        let seg = FileStorage::segment_path(&dir, 1);
        fs::write(&seg, &old).unwrap();
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(payloads(&r), want);
        fs::write(&seg, &old[..old.len() - 5]).unwrap();
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::TornTail);
        assert_eq!(payloads(&r), &want[..2]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synced_appends_inside_a_segment_leave_its_size_alone() {
        // The property that keeps `fdatasync` off the filesystem journal:
        // no synced append that fits in the segment changes its length.
        let dir = temp_dir("size");
        let mut s = FileStorage::open(&dir, FsyncPolicy::Always).unwrap();
        s.append(b"creates the segment").unwrap();
        let seg = FileStorage::segment_path(&dir, 1);
        let before = fs::metadata(&seg).unwrap().len();
        for i in 0..100u8 {
            s.append(&[i; 300]).unwrap();
        }
        assert_eq!(fs::metadata(&seg).unwrap().len(), before);
        assert_eq!(FileStorage::segments(&dir).unwrap().len(), 1);
        drop(s);
        let r = FileStorage::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(r.damage, Damage::Clean);
        assert_eq!(r.records.len(), 101);
        fs::remove_dir_all(&dir).ok();
    }
}
