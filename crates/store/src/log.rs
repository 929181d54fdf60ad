//! The segmented append-only log: recovery, rotation, and disk-budgeted
//! compaction.
//!
//! A store directory holds numbered segment files (`seg-00000001.gbl`,
//! ...). Exactly one — the highest-numbered — is *active* and receives
//! appends; the rest are sealed and immutable. Every boot starts a fresh
//! active segment rather than appending after a possibly-torn tail, so
//! a sealed segment's contents never change after the crash that sealed
//! it.
//!
//! **Recovery** scans segments in id order and replays every frame that
//! passes its checksum; a frame that is truncated or corrupt ends the
//! scan of *that segment* (framing downstream of damage cannot be
//! trusted) and is counted in `corrupt_skipped` — recovery never
//! panics and never returns a record that failed its checksum. Later
//! records supersede earlier ones for the same key.
//!
//! **Compaction** keeps the directory under `budget_bytes`: when the
//! total exceeds the budget, the oldest sealed segments that hold
//! superseded records are rewritten — records still current per the
//! in-memory index move to the active segment, superseded ones are
//! dropped with the file. A segment whose every record is current is
//! left alone: rewriting it would only move its bytes, and a store whose
//! live set exceeds the budget would otherwise rewrite itself whole on
//! every rotation. Compaction
//! invariants: a live record is re-appended *before* its old segment is
//! deleted — and under a sync mode the rewrite is fsynced before the
//! unlink — so no crash or power-cut point loses it; record order
//! within a key is preserved (the rewrite is the newest copy); and the
//! pass is bounded to the segments that existed when it started, so it
//! terminates even when the live set alone exceeds the budget.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::index::Index;
use crate::record::{check_header, decode_frame, encode_frame, segment_header, SEGMENT_HEADER_LEN};

/// Smallest accepted segment-rotation threshold.
const MIN_SEGMENT_BYTES: u64 = 4 * 1024;

/// How hard the store pushes acknowledged bytes toward stable storage.
///
/// The write path always goes through the kernel, so every mode survives
/// a *process* crash (SIGKILL); the sync modes additionally survive
/// power loss. Syncs happen at segment rotation and whenever the spill
/// writer drains its queue — never per append — so the cost is amortised
/// over a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// No fsync at all (the pre-knob behavior): page cache only.
    #[default]
    None,
    /// `File::sync_data` — file contents reach the disk, metadata may
    /// lag. The right default for durability at minimal cost.
    Data,
    /// `File::sync_all` on the segment plus an fsync of the directory on
    /// rotation, so even a freshly created segment's name is durable.
    Full,
}

impl SyncMode {
    /// Stable lowercase name used in stats and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            SyncMode::None => "none",
            SyncMode::Data => "data",
            SyncMode::Full => "full",
        }
    }

    /// Parses a CLI flag value; `None` for anything unknown.
    pub fn parse(text: &str) -> Option<SyncMode> {
        match text {
            "none" => Some(SyncMode::None),
            "data" => Some(SyncMode::Data),
            "full" => Some(SyncMode::Full),
            _ => None,
        }
    }
}

/// Store sizing and placement knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotation threshold: the active segment is sealed once it reaches
    /// this size (clamped up to 4 KiB; default 4 MiB).
    pub segment_bytes: u64,
    /// Disk budget: when total segment bytes exceed this, the oldest
    /// sealed segments are compacted away (0 = unbounded; default
    /// 256 MiB).
    pub budget_bytes: u64,
    /// Power-loss durability mode (default [`SyncMode::None`]).
    pub sync: SyncMode,
}

impl StoreConfig {
    /// A config with default sizing for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
            budget_bytes: 256 * 1024 * 1024,
            sync: SyncMode::None,
        }
    }
}

/// One record replayed by recovery, in scan order (later entries for
/// the same key supersede earlier ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// The record's key bytes.
    pub key: Vec<u8>,
    /// The record's value bytes.
    pub value: Vec<u8>,
}

/// Counter snapshot for the stats endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended by the spill path since open.
    pub appended: u64,
    /// Valid records replayed by recovery at open.
    pub recovered: u64,
    /// Torn or corrupt frames (and undecodable records) skipped.
    pub corrupt_skipped: u64,
    /// Live records rewritten by compaction.
    pub compacted: u64,
    /// Spill records dropped because the writer queue was full.
    pub spill_dropped: u64,
    /// Appends that failed with an I/O error (record lost).
    pub write_errors: u64,
    /// Frames known durable on stable storage: appends plus compaction
    /// rewrites, each a distinct frame, so after a compaction pass this
    /// can legitimately exceed `appended`. Advances at each fsync;
    /// stays 0 under [`SyncMode::None`], where nothing is ever fsynced.
    pub synced: u64,
    /// Bytes of live (non-superseded) records on disk.
    pub bytes_live: u64,
    /// Total bytes across all segment files.
    pub bytes_on_disk: u64,
    /// Segment files on disk (sealed + active).
    pub segments: u64,
    /// Distinct live keys.
    pub live_records: u64,
}

/// Shared atomic counters behind [`StoreStats`]; the store updates them
/// and any thread may snapshot without locking.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) appended: AtomicU64,
    pub(crate) recovered: AtomicU64,
    pub(crate) corrupt_skipped: AtomicU64,
    pub(crate) compacted: AtomicU64,
    pub(crate) spill_dropped: AtomicU64,
    pub(crate) write_errors: AtomicU64,
    pub(crate) synced: AtomicU64,
    pub(crate) bytes_live: AtomicU64,
    pub(crate) bytes_on_disk: AtomicU64,
    pub(crate) segments: AtomicU64,
    pub(crate) live_records: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> StoreStats {
        StoreStats {
            appended: self.appended.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            compacted: self.compacted.load(Ordering::Relaxed),
            spill_dropped: self.spill_dropped.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            synced: self.synced.load(Ordering::Relaxed),
            bytes_live: self.bytes_live.load(Ordering::Relaxed),
            bytes_on_disk: self.bytes_on_disk.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
            live_records: self.live_records.load(Ordering::Relaxed),
        }
    }
}

/// Where a key's newest copy lives (for compaction liveness checks).
/// Both fields are `u32`, which keeps an index bucket at 40 bytes
/// instead of 48: `seg` is the segment's position in
/// [`Store::seg_ids`], and a frame's length fits the format's `u32`
/// length field.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg: u32,
    frame_len: u32,
}

/// Position of segment `id` in `seg_ids`, which is sorted ascending.
fn ordinal(seg_ids: &[u64], id: u64) -> u32 {
    let ord = seg_ids.binary_search(&id).expect("segment id is known");
    u32::try_from(ord).expect("fewer than 2^32 segments")
}

fn frame_len_u32(len: usize) -> u32 {
    u32::try_from(len).expect("frame length fits the u32 length field")
}

/// The segmented log. Single-writer: exactly one thread appends (the
/// spill writer); snapshots of the counters are lock-free from anywhere.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    /// Newest location of each key.
    index: Index<RecordLoc>,
    /// Every segment id found at open or created since, ascending (ids
    /// only grow); the last is the active segment's.
    seg_ids: Vec<u64>,
    /// Sealed segment id → file size in bytes.
    sealed: BTreeMap<u64, u64>,
    /// Segment id (sealed or active) → bytes of the frames in it that are
    /// their key's newest copy.
    seg_live: HashMap<u64, u64>,
    active_id: u64,
    active: File,
    active_bytes: u64,
    bytes_live: u64,
    counters: Arc<Counters>,
    scratch: Vec<u8>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.gbl"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".gbl")?
        .parse()
        .ok()
}

impl Store {
    /// Opens (or creates) the store at `config.dir`, replaying every
    /// surviving record. Returns the store plus the recovered records in
    /// scan order — the caller applies them "latest wins". Torn or
    /// corrupt tails are skipped and counted, never an error.
    pub fn open(config: StoreConfig) -> io::Result<(Store, Vec<RecoveredRecord>)> {
        let mut recovered = Vec::new();
        let store = Self::open_with(config, |key, value| {
            recovered.push(RecoveredRecord {
                key: key.to_vec(),
                value: value.to_vec(),
            })
        })?;
        Ok((store, recovered))
    }

    /// [`open`](Self::open) that hands each recovered record to `replay`
    /// as it is read, in scan order, instead of collecting them all:
    /// recovery then holds one segment in memory, not every record.
    pub fn open_with(
        config: StoreConfig,
        mut replay: impl FnMut(&[u8], &[u8]),
    ) -> io::Result<Store> {
        let config = StoreConfig {
            segment_bytes: config.segment_bytes.max(MIN_SEGMENT_BYTES),
            ..config
        };
        fs::create_dir_all(&config.dir)?;
        let counters = Arc::new(Counters::default());

        let mut ids: Vec<u64> = fs::read_dir(&config.dir)?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| segment_id(entry.file_name().to_str()?))
            .collect();
        ids.sort_unstable();

        // Segment ordinals for the index: the ids in order, then the
        // active segment's, which is larger than all of them.
        let active_id = ids.last().map_or(1, |last| last + 1);
        let mut seg_ids = ids.clone();
        seg_ids.push(active_id);
        let mut index = Index::new();
        let mut sealed = BTreeMap::new();
        let mut seg_live: HashMap<u64, u64> = HashMap::new();
        let mut bytes_live = 0u64;
        for &id in &ids {
            let bytes = fs::read(segment_path(&config.dir, id))?;
            sealed.insert(id, bytes.len() as u64);
            if check_header(&bytes).is_err() {
                counters.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let seg = ordinal(&seg_ids, id);
            let mut offset = SEGMENT_HEADER_LEN;
            while offset < bytes.len() {
                match decode_frame(&bytes[offset..]) {
                    Ok(rec) => {
                        counters.recovered.fetch_add(1, Ordering::Relaxed);
                        let loc = RecordLoc {
                            seg,
                            frame_len: frame_len_u32(rec.frame_len),
                        };
                        let len = rec.frame_len as u64;
                        if let Some(old) = index.insert(rec.key, loc) {
                            let old_len = u64::from(old.frame_len);
                            bytes_live -= old_len;
                            *seg_live.entry(seg_ids[old.seg as usize]).or_default() -= old_len;
                        }
                        bytes_live += len;
                        *seg_live.entry(id).or_default() += len;
                        replay(rec.key, rec.value);
                        offset += rec.frame_len;
                    }
                    Err(_) => {
                        // Torn or corrupt: framing beyond this point
                        // cannot be trusted; skip the segment's tail.
                        counters.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }

        // Always start a fresh active segment: appends never land after
        // a tail whose integrity is unknown.
        let mut active = File::create(segment_path(&config.dir, active_id))?;
        active.write_all(&segment_header())?;
        if config.sync == SyncMode::Full {
            active.sync_all()?;
            File::open(&config.dir)?.sync_all()?;
        }

        let mut store = Store {
            config,
            index,
            seg_ids,
            sealed,
            seg_live,
            active_id,
            active,
            active_bytes: SEGMENT_HEADER_LEN as u64,
            bytes_live,
            counters,
            scratch: Vec::new(),
        };
        // A restart under budget pressure trims immediately rather than
        // waiting for the next rotation.
        store.maybe_compact()?;
        store.sync_gauges();
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Appends one record; rotates and compacts as thresholds demand.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        self.append_frame(key, value, false)?;
        if self.active_bytes >= self.config.segment_bytes {
            self.roll()?;
            self.maybe_compact()?;
        }
        self.sync_gauges();
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// Counts a record that passed its checksum but failed caller-level
    /// decoding (e.g. a codec version skew) as skipped corruption.
    pub fn note_corrupt(&self) {
        self.counters
            .corrupt_skipped
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    fn append_frame(&mut self, key: &[u8], value: &[u8], compaction: bool) -> io::Result<()> {
        self.scratch.clear();
        encode_frame(key, value, &mut self.scratch);
        self.active.write_all(&self.scratch)?;
        let frame_len = self.scratch.len() as u64;
        self.active_bytes += frame_len;
        let loc = RecordLoc {
            // The active segment is always the last in `seg_ids`.
            seg: u32::try_from(self.seg_ids.len() - 1).expect("fewer than 2^32 segments"),
            frame_len: frame_len_u32(self.scratch.len()),
        };
        if let Some(old) = self.index.insert(key, loc) {
            let old_len = u64::from(old.frame_len);
            self.bytes_live -= old_len;
            *self
                .seg_live
                .entry(self.seg_ids[old.seg as usize])
                .or_default() -= old_len;
        }
        self.bytes_live += frame_len;
        *self.seg_live.entry(self.active_id).or_default() += frame_len;
        let counter = if compaction {
            &self.counters.compacted
        } else {
            &self.counters.appended
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Rewrites roll too, so compaction cannot inflate one segment
        // past the threshold; they must NOT re-enter compaction.
        if compaction && self.active_bytes >= self.config.segment_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Rotation-boundary ordering: the outgoing segment is flushed (and
    /// fsynced per the sync mode) and the *new* active segment's file is
    /// fully created — header written, name durable under
    /// [`SyncMode::Full`] — **before** the new id is published into
    /// `active_id`/`sealed`. A compaction pass snapshots its victims
    /// from `sealed`, so publishing first would let a failed create
    /// leave `sealed` naming the file appends still land in: compaction
    /// would then read frames whose index entries point at the phantom
    /// new id, classify them as dead, and delete them with the victim.
    /// With create-before-publish, an error mid-roll leaves the store
    /// exactly as it was — same active segment, same sealed set.
    fn roll(&mut self) -> io::Result<()> {
        self.active.flush()?;
        self.sync_active()?;
        let new_id = self.active_id + 1;
        let mut new_active = File::create(segment_path(&self.config.dir, new_id))?;
        new_active.write_all(&segment_header())?;
        if self.config.sync == SyncMode::Full {
            new_active.sync_all()?;
            self.sync_dir()?;
        }
        self.sealed.insert(self.active_id, self.active_bytes);
        self.seg_ids.push(new_id);
        self.active_id = new_id;
        self.active = new_active;
        self.active_bytes = SEGMENT_HEADER_LEN as u64;
        if self.config.sync != SyncMode::None {
            // The sealed segment was just fsynced and the new active is
            // empty, so every frame written so far is durable.
            let durable = self.frames_written();
            self.counters.synced.store(durable, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Total frames written since open — spill appends plus compaction
    /// rewrites (a rewritten record is a second, distinct frame). The
    /// durable high-water mark `synced` is published in these units.
    fn frames_written(&self) -> u64 {
        self.counters.appended.load(Ordering::Relaxed)
            + self.counters.compacted.load(Ordering::Relaxed)
    }

    /// Pushes everything appended so far to stable storage, per the
    /// configured [`SyncMode`], and publishes the new durable high-water
    /// mark in `synced`. A no-op under [`SyncMode::None`]. Sealed
    /// segments were synced when they rolled, so syncing the active
    /// segment covers every appended record.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.config.sync == SyncMode::None {
            return Ok(());
        }
        self.active.flush()?;
        self.sync_active()?;
        // Single-writer: no append can interleave between the fsync and
        // this load, so the snapshot is exact.
        let durable = self.frames_written();
        self.counters.synced.store(durable, Ordering::Relaxed);
        Ok(())
    }

    fn sync_active(&mut self) -> io::Result<()> {
        match self.config.sync {
            SyncMode::None => Ok(()),
            SyncMode::Data => self.active.sync_data(),
            SyncMode::Full => self.active.sync_all(),
        }
    }

    /// Makes directory entries (new segment names, unlinked victims)
    /// durable; only [`SyncMode::Full`] pays for this.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.config.dir)?.sync_all()
    }

    fn disk_bytes(&self) -> u64 {
        self.sealed.values().sum::<u64>() + self.active_bytes
    }

    fn maybe_compact(&mut self) -> io::Result<()> {
        if self.config.budget_bytes == 0 {
            return Ok(());
        }
        // Bound the pass to the segments that exist now; rewrites seal
        // fresh segments with higher ids, which a later pass handles.
        let victims: Vec<u64> = self.sealed.keys().copied().collect();
        for id in victims {
            if self.disk_bytes() <= self.config.budget_bytes {
                break;
            }
            let live = self.seg_live.get(&id).copied().unwrap_or(0);
            if live + SEGMENT_HEADER_LEN as u64 >= self.sealed[&id] {
                continue; // nothing superseded: a rewrite reclaims nothing
            }
            self.compact_segment(id)?;
        }
        Ok(())
    }

    /// Rewrites segment `id`'s live records into the active segment and
    /// deletes the file.
    fn compact_segment(&mut self, id: u64) -> io::Result<()> {
        let path = segment_path(&self.config.dir, id);
        let bytes = fs::read(&path)?;
        let ord = ordinal(&self.seg_ids, id);
        let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        if check_header(&bytes).is_ok() {
            let mut offset = SEGMENT_HEADER_LEN;
            while offset < bytes.len() {
                match decode_frame(&bytes[offset..]) {
                    Ok(rec) => {
                        if self.index.get(rec.key).is_some_and(|loc| loc.seg == ord) {
                            live.push((rec.key.to_vec(), rec.value.to_vec()));
                        }
                        offset += rec.frame_len;
                    }
                    Err(_) => {
                        self.counters
                            .corrupt_skipped
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
        for (key, value) in live {
            self.append_frame(&key, &value, true)?;
        }
        // Records stranded past a corrupt point (still indexed to this
        // segment) die with the file; drop them from the live set.
        let mut lost = 0u64;
        self.index.retain(|loc| {
            if loc.seg == ord {
                lost += u64::from(loc.frame_len);
                false
            } else {
                true
            }
        });
        self.bytes_live -= lost;
        // Durability ordering: the rewritten copies must reach stable
        // storage before the victim's unlink can — a power cut after a
        // durable unlink but before the next sync point would lose
        // records that were durable inside the victim. Rewrites that
        // sealed a segment mid-pass were synced by the roll; this sync
        // covers the tail still sitting in the open active segment.
        // (A no-op under SyncMode::None, which never promised
        // power-loss safety.)
        self.sync()?;
        fs::remove_file(&path)?;
        if self.config.sync == SyncMode::Full {
            self.sync_dir()?;
        }
        self.sealed.remove(&id);
        self.seg_live.remove(&id);
        Ok(())
    }

    fn sync_gauges(&self) {
        self.counters
            .bytes_live
            .store(self.bytes_live, Ordering::Relaxed);
        self.counters
            .bytes_on_disk
            .store(self.disk_bytes(), Ordering::Relaxed);
        self.counters
            .segments
            .store(self.sealed.len() as u64 + 1, Ordering::Relaxed);
        self.counters
            .live_records
            .store(self.index.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

    /// Unique per-test scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("gb-store-log-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:04}").into_bytes()
    }

    fn val(i: u32, tag: &str) -> Vec<u8> {
        format!("value-{i:04}-{tag}").into_bytes()
    }

    #[test]
    fn records_survive_reopen() {
        let dir = TempDir::new("reopen");
        {
            let (mut store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
            assert!(recovered.is_empty());
            for i in 0..20 {
                store.append(&key(i), &val(i, "a")).unwrap();
            }
            assert_eq!(store.stats().appended, 20);
        }
        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        assert_eq!(recovered.len(), 20);
        assert_eq!(store.stats().recovered, 20);
        assert_eq!(store.stats().corrupt_skipped, 0);
        assert_eq!(store.stats().live_records, 20);
        for (i, rec) in recovered.iter().enumerate() {
            assert_eq!(rec.key, key(i as u32));
            assert_eq!(rec.value, val(i as u32, "a"));
        }
    }

    #[test]
    fn later_appends_supersede_earlier_in_scan_order() {
        let dir = TempDir::new("supersede");
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
            store.append(&key(1), &val(1, "old")).unwrap();
            store.append(&key(1), &val(1, "new")).unwrap();
            assert_eq!(store.stats().live_records, 1);
        }
        let (_, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        // Scan order: the caller replays both; the later one wins.
        assert_eq!(recovered.last().unwrap().value, val(1, "new"));
        // Streaming recovery hands over the same records in the same order.
        let mut replayed = Vec::new();
        Store::open_with(StoreConfig::new(&dir.0), |k, v| {
            replayed.push(RecoveredRecord {
                key: k.to_vec(),
                value: v.to_vec(),
            })
        })
        .unwrap();
        assert_eq!(replayed, recovered);
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let dir = TempDir::new("torn");
        let active_path;
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
            for i in 0..10 {
                store.append(&key(i), &val(i, "x")).unwrap();
            }
            active_path = segment_path(store.dir(), store.active_id);
        }
        // Simulate a crash mid-append: half a frame at the tail.
        let mut frame = Vec::new();
        encode_frame(b"tail-key", b"tail-value", &mut frame);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&active_path)
            .unwrap();
        file.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(file);

        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        assert_eq!(recovered.len(), 10, "full frames all recovered");
        assert_eq!(store.stats().recovered, 10);
        assert_eq!(store.stats().corrupt_skipped, 1);
    }

    #[test]
    fn corrupt_byte_flip_ends_segment_scan_without_panicking() {
        let dir = TempDir::new("flip");
        let active_path;
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
            for i in 0..10 {
                store.append(&key(i), &val(i, "x")).unwrap();
            }
            active_path = segment_path(store.dir(), store.active_id);
        }
        // Flip one payload bit in the middle of the segment.
        let mut bytes = fs::read(&active_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&active_path, &bytes).unwrap();

        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.corrupt_skipped, 1);
        assert!(stats.recovered < 10, "damage must cost something");
        // Whatever was returned decodes to an original record.
        for rec in &recovered {
            let i: u32 = std::str::from_utf8(&rec.key)
                .unwrap()
                .strip_prefix("key-")
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(rec.value, val(i, "x"));
        }
    }

    #[test]
    fn rotation_seals_segments_at_the_threshold() {
        let dir = TempDir::new("rotate");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 0,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config.clone()).unwrap();
        let big = vec![0xAB; 600];
        for i in 0..40 {
            store.append(&key(i), &big).unwrap();
        }
        let stats = store.stats();
        assert!(stats.segments > 2, "expected rotation, got {stats:?}");
        drop(store);
        let (store, recovered) = Store::open(config).unwrap();
        assert_eq!(recovered.len(), 40);
        assert_eq!(store.stats().recovered, 40);
    }

    #[test]
    fn segments_with_nothing_superseded_are_not_rewritten() {
        let dir = TempDir::new("all-live");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 3 * MIN_SEGMENT_BYTES,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config.clone()).unwrap();
        let big = vec![0xAB; 600];
        // Distinct keys only: the live set outgrows the budget and no
        // rewrite can bring the directory back under it.
        for i in 0..80 {
            store.append(&key(i), &big).unwrap();
        }
        // One superseded record makes its segment, and only it, worth
        // compacting.
        store.append(&key(0), &big).unwrap();
        for i in 80..90 {
            store.append(&key(i), &big).unwrap();
        }
        let stats = store.stats();
        assert!(stats.segments > 3, "expected rotation, got {stats:?}");
        assert_eq!(stats.live_records, 90);
        assert!(stats.compacted > 0 && stats.compacted < 10, "{stats:?}");
        drop(store);
        let (_, recovered) = Store::open(config).unwrap();
        let keys: std::collections::HashSet<_> = recovered.into_iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), 90);
    }

    #[test]
    fn compaction_respects_budget_and_keeps_live_records() {
        let dir = TempDir::new("compact");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 3 * MIN_SEGMENT_BYTES,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config.clone()).unwrap();
        let big = vec![0xCD; 600];
        // 16 distinct keys, rewritten over and over: most frames are
        // superseded, so compaction can actually reclaim space.
        for round in 0..20 {
            for i in 0..16 {
                let mut value = big.clone();
                value[0] = round;
                store.append(&key(i), &value).unwrap();
            }
        }
        let stats = store.stats();
        assert!(stats.compacted > 0, "no compaction ran: {stats:?}");
        assert!(
            stats.bytes_on_disk <= 4 * MIN_SEGMENT_BYTES,
            "disk not reclaimed: {stats:?}"
        );
        assert_eq!(stats.live_records, 16);
        drop(store);

        let (_, recovered) = Store::open(config).unwrap();
        // Latest-wins replay yields exactly the final round's values.
        let mut newest: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for rec in recovered {
            newest.insert(rec.key, rec.value);
        }
        assert_eq!(newest.len(), 16);
        for i in 0..16 {
            assert_eq!(newest[&key(i)][0], 19, "key {i} lost its newest value");
        }
    }

    /// Regression for the compaction/rotation interaction: the live set
    /// is bigger than one segment, so every compaction pass must itself
    /// roll the active segment mid-rewrite while appends keep arriving.
    /// Before the create-before-publish ordering in `roll()`, a victim
    /// snapshot taken around that boundary could observe a sealed set
    /// naming the segment appends still land in; this drives that
    /// boundary hundreds of times and then proves nothing leaked: every
    /// key's newest value survives a reopen and the sealed bookkeeping
    /// matches the files actually on disk.
    #[test]
    fn compaction_across_rotation_boundary_keeps_every_newest_value() {
        let dir = TempDir::new("rotation-race");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 2 * MIN_SEGMENT_BYTES,
            ..StoreConfig::new(&dir.0)
        };
        // 12 keys x ~620 bytes ≈ 7.4 KiB live: more than one segment, so
        // a compaction pass always crosses at least one rotation.
        let (mut store, _) = Store::open(config.clone()).unwrap();
        let big = vec![0xEE; 600];
        for round in 0..30u8 {
            for i in 0..12 {
                let mut value = big.clone();
                value[0] = round;
                store.append(&key(i), &value).unwrap();
            }
        }
        let stats = store.stats();
        assert!(stats.compacted > 0, "pass never ran: {stats:?}");
        assert_eq!(stats.live_records, 12);
        // The sealed map and the directory must agree exactly: a stale
        // publish would leave a sealed id with no file (or vice versa).
        let mut on_disk: Vec<u64> = fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| segment_id(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        on_disk.sort_unstable();
        let mut tracked: Vec<u64> = store.sealed.keys().copied().collect();
        tracked.push(store.active_id);
        tracked.sort_unstable();
        assert_eq!(on_disk, tracked, "sealed set out of sync with disk");
        drop(store);

        let (_, recovered) = Store::open(config).unwrap();
        let mut newest: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for rec in recovered {
            newest.insert(rec.key, rec.value);
        }
        assert_eq!(newest.len(), 12);
        for i in 0..12 {
            assert_eq!(newest[&key(i)][0], 29, "key {i} lost its newest value");
        }
    }

    #[test]
    fn sync_mode_data_advances_the_durable_high_water_mark() {
        let dir = TempDir::new("sync-data");
        let config = StoreConfig {
            sync: SyncMode::Data,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config).unwrap();
        for i in 0..5 {
            store.append(&key(i), &val(i, "d")).unwrap();
        }
        assert_eq!(store.stats().synced, 0, "no sync point reached yet");
        store.sync().unwrap();
        assert_eq!(store.stats().synced, 5);
        store.append(&key(5), &val(5, "d")).unwrap();
        assert_eq!(store.stats().synced, 5, "new append not yet durable");
        store.sync().unwrap();
        assert_eq!(store.stats().synced, 6);
    }

    #[test]
    fn sync_mode_none_never_claims_durability() {
        let dir = TempDir::new("sync-none");
        let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        for i in 0..5 {
            store.append(&key(i), &val(i, "n")).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.stats().synced, 0);
    }

    #[test]
    fn rotation_syncs_under_full_mode_and_counts_it() {
        let dir = TempDir::new("sync-roll");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 0,
            sync: SyncMode::Full,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config).unwrap();
        let big = vec![0xAB; 600];
        for i in 0..10 {
            store.append(&key(i), &big).unwrap();
        }
        let stats = store.stats();
        assert!(stats.segments > 1, "expected a rotation: {stats:?}");
        assert!(
            stats.synced > 0 && stats.synced <= stats.appended + stats.compacted,
            "rotation must publish a durable mark: {stats:?}"
        );
    }

    /// Regression: compaction must fsync the rewritten live records
    /// *before* unlinking the victim segment — otherwise a power cut
    /// between the durable unlink and the next sync point loses records
    /// that were durable before the pass. Observable invariant: under a
    /// sync mode, the end of a compaction pass is itself a sync point,
    /// so immediately after the append that triggered it, `synced`
    /// covers every frame written (appends + rewrites).
    #[test]
    fn compaction_syncs_rewrites_before_deleting_the_victim() {
        let dir = TempDir::new("compact-sync");
        let config = StoreConfig {
            segment_bytes: MIN_SEGMENT_BYTES,
            budget_bytes: 3 * MIN_SEGMENT_BYTES,
            sync: SyncMode::Data,
            ..StoreConfig::new(&dir.0)
        };
        let (mut store, _) = Store::open(config).unwrap();
        // A keyset whose live footprint exceeds the budget, so the
        // oldest sealed segment always holds live records for the pass
        // to rewrite (a fully superseded victim is just unlinked).
        let big = vec![0xCD; 600];
        for i in 0..200 {
            store.append(&key(i % 64), &big).unwrap();
            let stats = store.stats();
            if stats.compacted > 0 {
                assert_eq!(
                    stats.synced,
                    stats.appended + stats.compacted,
                    "the pass that rewrote frames must sync them before \
                     the victim unlink: {stats:?}"
                );
                return;
            }
        }
        panic!("workload never triggered compaction: {:?}", store.stats());
    }

    #[test]
    fn empty_directory_opens_clean() {
        let dir = TempDir::new("empty");
        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        assert!(recovered.is_empty());
        let stats = store.stats();
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.segments, 1);
        assert!(stats.bytes_on_disk >= SEGMENT_HEADER_LEN as u64);
    }

    #[test]
    fn index_grows_without_a_doubling_cliff() {
        // One hash map's table doubles in a single append (131,072 to
        // 262,144 buckets at key 114,689) and holds both tables while it
        // rehashes; the sharded index may only step by a sliver.
        let dir = TempDir::new("cliff");
        let (mut store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        let mut capacity = store.index.capacity();
        for i in 0..200_000u32 {
            store.append(&i.to_le_bytes(), b"v").unwrap();
            let grown = store.index.capacity();
            if i >= 10_000 {
                assert!(
                    grown as f64 <= capacity as f64 * 1.05,
                    "append {i} grew the index from {capacity} to {grown} entries"
                );
            }
            capacity = grown;
        }
        assert_eq!(store.stats().live_records, 200_000);
    }
}
