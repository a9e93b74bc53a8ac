//! Extent-lifecycle storage log on simulated persistent memory.
//!
//! All stores in this workspace keep their *values* in this log and index
//! `{key_hash, location}` pairs elsewhere — the structure shared by every
//! design the paper compares (§2, §3.2). Entries are
//! `{seq, key, value_size, value}`; the paper's format is `{key, value_size,
//! value}`, and the extra 8-byte sequence number makes multi-threaded replay
//! order-correct (documented deviation, see DESIGN.md).
//!
//! Appends are buffered: entries are written through the (volatile) cache
//! and only flushed+fenced to media once a batch (default 4KB, §2.5) has
//! accumulated, so media writes are always large and sequential. A crash
//! loses at most the current batches — exactly the paper's model.
//!
//! Threads append through private [`LogWriter`]s, each claiming extents
//! (default 1MB) so appends never contend. Within an extent, a sequence
//! number of zero marks the end of valid data (extents are zeroed before
//! use), which is what recovery scans rely on. Each header also carries a
//! 32-bit checksum over the entry, so a crash that persisted only some of
//! an entry's cache lines leaves a *torn* entry the scan stops at instead
//! of replaying (it was never fenced, so nothing after it was either).
//!
//! # Extent lifecycle
//!
//! The log is no longer a pure bump cursor: extents move through
//! `Free → Active → Sealed → Gced → Free`. The first extent of the region
//! holds a persistent 32-byte state record per data extent
//! (`{state, max_seq, used_bytes}`); data extent `i` starts at
//! `region.off + (i+1) * extent_bytes`.
//!
//! * A writer claiming an extent records `Active` with an unfenced
//!   non-temporal write. Fences are per-thread in-order, so any durable
//!   data in the extent implies a durable `Active` record — recovery may
//!   skip `Free` extents without probing their content.
//! * Rolling off a full extent seals it: the record gains the extent's
//!   highest sequence number and used bytes. Sealing is opportunistic
//!   (fenced by the writer's next batch); a lost seal record just means
//!   recovery rescans the extent as `Active` and reseals it.
//! * Garbage collection (driven by the store, see `chameleondb`) relocates
//!   the remaining live entries of a sealed extent with
//!   [`LogWriter::append_copy`], persists `Gced`, and — once no reader can
//!   hold the old offsets — zeroes the extent and persists `Free` in a
//!   single fence, so the extent is reusable. A crash between `Gced` and
//!   `Free` re-zeroes the extent during recovery.
//!
//! Sealed-extent `max_seq` summaries also let a checkpointed store skip
//! fully-persisted extents during the recovery scan (DESIGN.md §6.4):
//! [`StorageLog::reopen_scan`] takes a sequence floor and skips the content
//! scan of any sealed extent whose summary proves every entry is at or
//! below the floor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvapi::{hash64, KvError, LogSpaceStats, Result};
use parking_lot::Mutex;
use pmem_sim::{PRegion, PmemDevice, ThreadCtx};

/// Fixed entry header: `{seq: u64, key: u64, flags_and_vlen: u64}`; the
/// top half of the last word is the entry checksum.
pub const ENTRY_HEADER: usize = 24;

/// Default extent size. Entries never cross an extent boundary.
pub const EXTENT: u64 = 1 << 20;

/// Bytes of one persistent extent-state record.
const META_RECORD: u64 = 32;

/// Tombstone flag of the `flags_and_vlen` word.
const FLAG_TOMBSTONE: u64 = 1 << 31;
/// Mask of the value-length bits (bits 24..31 are reserved, zero).
const VLEN_MASK: u64 = (1 << 24) - 1;
/// The entry checksum occupies bits 32..64 of the `flags_and_vlen` word.
const CSUM_SHIFT: u32 = 32;

/// Bits of `loc` used for the absolute entry offset.
const LOC_OFF_BITS: u32 = 46;
const LOC_OFF_MASK: u64 = (1 << LOC_OFF_BITS) - 1;
/// Saturating size hint stored in bits 46..63 of `loc`, letting a get fetch
/// header+value in a single device read (the "one Pmem read per get"
/// property of the Dram-Hash design in §1.3). Bit 63 is reserved (always
/// zero) so index structures can overlay a tombstone marker on a slot's
/// location word.
const LOC_HINT_BITS: u32 = 17;
const LOC_HINT_MAX: u64 = (1 << LOC_HINT_BITS) - 1;

/// Lifecycle state of one data extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum ExtentState {
    /// Zeroed and claimable (or never claimed).
    Free = 0,
    /// Owned by a writer; may still receive appends.
    Active = 1,
    /// Full; immutable; a GC candidate once it accrues dead bytes.
    Sealed = 2,
    /// Live entries relocated; awaiting quarantine expiry and re-zeroing.
    Gced = 3,
}

impl ExtentState {
    fn from_word(w: u64) -> Result<Self> {
        Ok(match w {
            0 => Self::Free,
            1 => Self::Active,
            2 => Self::Sealed,
            3 => Self::Gced,
            _ => return Err(KvError::Corrupt("extent state record")),
        })
    }
}

/// Packs an entry offset and value-size hint into an index location word.
#[inline]
pub fn pack_loc(off: u64, vlen: usize) -> u64 {
    debug_assert!(off <= LOC_OFF_MASK, "log offset exceeds 46 bits");
    let hint = (vlen as u64).min(LOC_HINT_MAX);
    off | (hint << LOC_OFF_BITS)
}

/// Unpacks an index location word into `(offset, size_hint)`.
///
/// Ignores bit 63 so callers may pass slot words carrying a tombstone flag.
#[inline]
pub fn unpack_loc(loc: u64) -> (u64, usize) {
    (
        loc & LOC_OFF_MASK,
        ((loc >> LOC_OFF_BITS) & LOC_HINT_MAX) as usize,
    )
}

/// True when the size hint in `loc` saturated (the entry may be larger than
/// the hint says; consult the header for the exact size).
#[inline]
pub fn loc_hint_saturated(loc: u64) -> bool {
    ((loc >> LOC_OFF_BITS) & LOC_HINT_MAX) == LOC_HINT_MAX
}

/// Configuration of a [`StorageLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Total log capacity in bytes (one extent is reserved for the
    /// persistent extent-state table).
    pub capacity: u64,
    /// Batch size: a writer fences its extent once this many bytes have
    /// accumulated since the last fence (paper default 4KB).
    pub batch_bytes: usize,
    /// Maximum accepted value size (must fit one extent with its header).
    pub max_value: usize,
    /// Extent size. Smaller extents give finer-grained GC at the price of
    /// more frequent claims/seals.
    pub extent_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            capacity: 256 << 20,
            batch_bytes: 4096,
            max_value: 256 << 10,
            extent_bytes: EXTENT,
        }
    }
}

impl LogConfig {
    fn validate(&self) -> Result<()> {
        let ext = self.extent_bytes;
        if ext < 4096 {
            return Err(KvError::Corrupt("log extent_bytes below 4KB"));
        }
        if self.capacity < 2 * ext {
            return Err(KvError::Corrupt("log capacity below two extents"));
        }
        let n_data = self.capacity / ext - 1;
        if n_data * META_RECORD > ext {
            return Err(KvError::Corrupt("extent-state table exceeds one extent"));
        }
        if (ENTRY_HEADER + self.max_value) as u64 > ext {
            return Err(KvError::Corrupt("max_value does not fit one extent"));
        }
        if self.max_value as u64 > VLEN_MASK {
            return Err(KvError::Corrupt("max_value exceeds the entry length field"));
        }
        Ok(())
    }

    fn data_extents(&self) -> u64 {
        self.capacity / self.extent_bytes - 1
    }
}

/// Metadata of one decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Global sequence number (nonzero).
    pub seq: u64,
    /// The 8-byte user key.
    pub key: u64,
    /// Value length in bytes.
    pub vlen: usize,
    /// Whether this entry is a delete marker.
    pub tombstone: bool,
    /// Absolute offset of the entry header.
    pub off: u64,
}

impl EntryMeta {
    /// The index location word for this entry.
    pub fn loc(&self) -> u64 {
        pack_loc(self.off, self.vlen)
    }

    /// Total on-media size of the entry.
    pub fn size(&self) -> u64 {
        (ENTRY_HEADER + self.vlen) as u64
    }
}

/// Volatile mirror of one extent's state and accounting.
struct ExtentSlot {
    state: AtomicU64,
    /// Bytes of entries appended into this extent.
    appended: AtomicU64,
    /// Bytes of entries in this extent superseded by newer versions.
    dead: AtomicU64,
    /// Highest sequence number in the extent (valid once sealed).
    max_seq: AtomicU64,
}

impl ExtentSlot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(ExtentState::Free as u64),
            appended: AtomicU64::new(0),
            dead: AtomicU64::new(0),
            max_seq: AtomicU64::new(0),
        }
    }

    fn state(&self) -> ExtentState {
        ExtentState::from_word(self.state.load(Ordering::Acquire)).expect("volatile extent state")
    }
}

/// The shared value log with extent lifecycle management.
pub struct StorageLog {
    dev: Arc<PmemDevice>,
    region: PRegion,
    cfg: LogConfig,
    /// Volatile per-data-extent state mirrors.
    slots: Vec<ExtentSlot>,
    /// Index of the next never-claimed data extent (high-water mark).
    hwm: AtomicU64,
    /// Reclaimed extents awaiting reuse.
    free: Mutex<Vec<u64>>,
    /// Next sequence number (starts at 1; 0 marks unwritten space).
    seq: AtomicU64,
    /// Bytes of entries appended (live + dead), over all in-use extents.
    appended_bytes: AtomicU64,
    /// Bytes superseded by newer versions of the same key (dead data).
    dead_bytes: AtomicU64,
    /// Extents currently Active, Sealed, or Gced.
    in_use: AtomicU64,
    /// Recovery-scan accounting from the last reopen (extents content-
    /// scanned vs skipped via their sealed max_seq summary).
    scanned_extents: AtomicU64,
    skipped_extents: AtomicU64,
    /// Torn entries that ended an extent's scan in the last reopen (at
    /// most one per extent).
    torn_entries: AtomicU64,
}

impl std::fmt::Debug for StorageLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageLog")
            .field("capacity", &self.cfg.capacity)
            .field("footprint", &self.footprint_bytes())
            .finish_non_exhaustive()
    }
}

impl StorageLog {
    fn empty(dev: Arc<PmemDevice>, region: PRegion, cfg: LogConfig) -> Self {
        let n = cfg.data_extents() as usize;
        Self {
            dev,
            region,
            cfg,
            slots: (0..n).map(|_| ExtentSlot::new()).collect(),
            hwm: AtomicU64::new(0),
            free: Mutex::new(Vec::new()),
            seq: AtomicU64::new(1),
            appended_bytes: AtomicU64::new(0),
            dead_bytes: AtomicU64::new(0),
            in_use: AtomicU64::new(0),
            scanned_extents: AtomicU64::new(0),
            skipped_extents: AtomicU64::new(0),
            torn_entries: AtomicU64::new(0),
        }
    }

    /// Creates a log over a freshly allocated device region.
    pub fn create(dev: Arc<PmemDevice>, cfg: LogConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        let region = dev.alloc_region(cfg.capacity)?;
        // The arena (and therefore the extent-state table) is zeroed:
        // every extent starts Free.
        Ok(Arc::new(Self::empty(dev, region, cfg)))
    }

    /// Re-opens a log after a crash: reads the extent-state table, scans
    /// extent contents to find the highest persisted sequence number, and
    /// rebuilds the free list. The scan cost is charged to `ctx`.
    pub fn reopen(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
    ) -> Result<Arc<Self>> {
        Self::reopen_with(dev, region, cfg, ctx, |_| {})
    }

    /// Like [`reopen`](Self::reopen), but also delivers every persisted
    /// entry to `on_entry` during the single recovery scan, so callers that
    /// must replay the log pay for one pass, not two.
    pub fn reopen_with(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
        on_entry: impl FnMut(EntryMeta),
    ) -> Result<Arc<Self>> {
        Self::reopen_scan(dev, region, cfg, ctx, 0, on_entry)
    }

    /// Full-control reopen: sealed extents whose recorded `max_seq` is at
    /// or below `skip_seq_floor` are trusted from their summary record and
    /// their content scan is skipped (their entries are *not* delivered).
    /// Callers pass the minimum checkpointed sequence across shards, so a
    /// skipped entry is always already reachable through persistent tables.
    pub fn reopen_scan(
        dev: Arc<PmemDevice>,
        region: PRegion,
        cfg: LogConfig,
        ctx: &mut ThreadCtx,
        skip_seq_floor: u64,
        mut on_entry: impl FnMut(EntryMeta),
    ) -> Result<Arc<Self>> {
        cfg.validate()?;
        let log = Self::empty(dev, region, cfg);
        let n = log.cfg.data_extents();

        // One sequential pass over the state table (first access of the
        // recovery stream).
        let mut table = vec![0u8; (n * META_RECORD) as usize];
        log.dev.read(ctx, log.region.off, &mut table);

        let mut max_seq = 0u64;
        let mut highest_used: Option<u64> = None;
        let mut pending_meta = false;
        let mut first_access = false; // the table read opened the stream
        for i in 0..n {
            let rec = &table[(i * META_RECORD) as usize..((i + 1) * META_RECORD) as usize];
            let state = ExtentState::from_word(u64::from_le_bytes(
                rec[0..8].try_into().expect("meta slice"),
            ))?;
            let rec_max_seq = u64::from_le_bytes(rec[8..16].try_into().expect("meta slice"));
            let rec_used = u64::from_le_bytes(rec[16..24].try_into().expect("meta slice"));
            match state {
                ExtentState::Free => {}
                ExtentState::Gced => {
                    // Crash after the GC commit but before the extent was
                    // zeroed and freed: finish the job. The relocated
                    // copies are durable (they were fenced before the Gced
                    // record), so the content is garbage.
                    log.zero_extent(ctx, i);
                    log.write_meta(ctx, i, ExtentState::Free, 0, 0);
                    pending_meta = true;
                    highest_used = Some(i);
                }
                ExtentState::Sealed
                    if rec_max_seq != 0 && rec_max_seq <= skip_seq_floor && rec_used != 0 =>
                {
                    // Every entry is at or below the checkpoint floor:
                    // trust the seal summary, skip the content scan.
                    let slot = &log.slots[i as usize];
                    slot.state
                        .store(ExtentState::Sealed as u64, Ordering::Release);
                    slot.appended.store(rec_used, Ordering::Relaxed);
                    slot.max_seq.store(rec_max_seq, Ordering::Relaxed);
                    log.appended_bytes.fetch_add(rec_used, Ordering::Relaxed);
                    log.in_use.fetch_add(1, Ordering::Relaxed);
                    log.skipped_extents.fetch_add(1, Ordering::Relaxed);
                    max_seq = max_seq.max(rec_max_seq);
                    highest_used = Some(i);
                }
                ExtentState::Active | ExtentState::Sealed => {
                    let (used, ext_max, torn) =
                        log.scan_extent_content(ctx, i, &mut first_access, &mut on_entry);
                    log.scanned_extents.fetch_add(1, Ordering::Relaxed);
                    if torn {
                        log.torn_entries.fetch_add(1, Ordering::Relaxed);
                    }
                    if used == 0 {
                        // Claimed but no batch ever fenced whole: reusable
                        // once any torn bytes are zeroed again.
                        if torn {
                            log.zero_extent(ctx, i);
                        }
                        log.write_meta(ctx, i, ExtentState::Free, 0, 0);
                        pending_meta = true;
                        highest_used = Some(i);
                        continue;
                    }
                    let slot = &log.slots[i as usize];
                    slot.state
                        .store(ExtentState::Sealed as u64, Ordering::Release);
                    slot.appended.store(used, Ordering::Relaxed);
                    slot.max_seq.store(ext_max, Ordering::Relaxed);
                    log.appended_bytes.fetch_add(used, Ordering::Relaxed);
                    log.in_use.fetch_add(1, Ordering::Relaxed);
                    max_seq = max_seq.max(ext_max);
                    highest_used = Some(i);
                    if state == ExtentState::Active || rec_max_seq != ext_max || rec_used != used {
                        // Lost or stale seal record: reseal.
                        log.write_meta(ctx, i, ExtentState::Sealed, ext_max, used);
                        pending_meta = true;
                    }
                }
            }
        }
        if pending_meta {
            log.dev.fence(ctx);
        }
        // Resume claims after the highest extent that was ever used;
        // reclaimed extents below the high-water mark go on the free list.
        let hwm = highest_used.map_or(0, |i| i + 1);
        log.hwm.store(hwm, Ordering::Relaxed);
        {
            let mut free = log.free.lock();
            for i in 0..hwm {
                if log.slots[i as usize].state() == ExtentState::Free {
                    free.push(i);
                }
            }
        }
        log.seq.store(max_seq + 1, Ordering::Relaxed);
        Ok(Arc::new(log))
    }

    /// The device this log lives on.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// The region descriptor (needed to [`reopen`](Self::reopen)).
    pub fn region(&self) -> PRegion {
        self.region
    }

    /// Extent size in bytes.
    pub fn extent_bytes(&self) -> u64 {
        self.cfg.extent_bytes
    }

    /// Number of data extents in the region.
    pub fn data_extent_count(&self) -> u64 {
        self.cfg.data_extents()
    }

    /// Extents currently holding data (Active, Sealed, or Gced).
    pub fn in_use_extents(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Total bytes occupied by in-use data extents (the log's footprint —
    /// what the space-amplification target bounds).
    pub fn footprint_bytes(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed) * self.cfg.extent_bytes
    }

    /// Bytes of entries appended and not yet reclaimed (live + dead).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// Bytes superseded by overwrites/deletes and not yet reclaimed.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes.load(Ordering::Relaxed)
    }

    /// Space accounting snapshot.
    pub fn space_stats(&self) -> LogSpaceStats {
        let appended = self.appended_bytes();
        let dead = self.dead_bytes();
        LogSpaceStats {
            appended_bytes: appended,
            dead_bytes: dead,
            live_bytes: appended.saturating_sub(dead),
            footprint_bytes: self.footprint_bytes(),
        }
    }

    /// `(content-scanned, summary-skipped)` extent counts from the last
    /// [`reopen_scan`](Self::reopen_scan).
    pub fn recovery_scan_stats(&self) -> (u64, u64) {
        (
            self.scanned_extents.load(Ordering::Relaxed),
            self.skipped_extents.load(Ordering::Relaxed),
        )
    }

    /// Torn entries (some of their lines persisted, some lost in a crash)
    /// that ended an extent's scan during the last reopen. Everything at
    /// and after one was never fenced, so it is dropped, not replayed.
    pub fn recovery_torn_entries(&self) -> u64 {
        self.torn_entries.load(Ordering::Relaxed)
    }

    /// The lifecycle state of data extent `idx`.
    pub fn extent_state(&self, idx: u64) -> ExtentState {
        self.slots[idx as usize].state()
    }

    /// `(appended, dead, max_seq)` accounting of data extent `idx`.
    pub fn extent_accounting(&self, idx: u64) -> (u64, u64, u64) {
        let s = &self.slots[idx as usize];
        (
            s.appended.load(Ordering::Relaxed),
            s.dead.load(Ordering::Relaxed),
            s.max_seq.load(Ordering::Relaxed),
        )
    }

    /// Records that `bytes` of previously live log data were superseded
    /// (global accounting only; stores without extent GC use this).
    pub fn note_dead(&self, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records that the entry at absolute offset `off` spanning `bytes`
    /// was superseded, crediting both the global counter and the owning
    /// extent so GC can rank candidates.
    pub fn note_dead_at(&self, off: u64, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(idx) = self.extent_index(off) {
            self.slots[idx as usize]
                .dead
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// The data-extent index owning absolute offset `off`, if any.
    pub fn extent_index(&self, off: u64) -> Option<u64> {
        let ext = self.cfg.extent_bytes;
        if off < self.region.off + ext {
            return None;
        }
        let idx = (off - self.region.off) / ext - 1;
        (idx < self.cfg.data_extents()).then_some(idx)
    }

    /// Highest sequence number handed out so far.
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) - 1
    }

    /// Creates a writer with its own extent and batch state.
    pub fn writer(self: &Arc<Self>) -> LogWriter {
        LogWriter {
            log: Arc::clone(self),
            pos: 0,
            end: 0,
            batch_start: 0,
            ext_idx: u64::MAX,
            ext_max_seq: 0,
            claim_unfenced: false,
        }
    }

    /// Reads the entry at index location `loc` into `out` (value bytes
    /// only), returning its metadata.
    ///
    /// Uses the size hint packed in `loc` to fetch the header and value in
    /// one device read; only over-large values need a second (sequential)
    /// read.
    pub fn read_entry(
        &self,
        ctx: &mut ThreadCtx,
        loc: u64,
        out: &mut Vec<u8>,
    ) -> Result<EntryMeta> {
        let (off, hint) = unpack_loc(loc);
        let first = ENTRY_HEADER + hint;
        let mut buf = vec![0u8; first];
        self.dev.read(ctx, off, &mut buf);
        let (seq, key, vlen, tombstone) = Self::decode_header(&buf[..ENTRY_HEADER])?;
        out.clear();
        if vlen <= hint {
            out.extend_from_slice(&buf[ENTRY_HEADER..ENTRY_HEADER + vlen]);
        } else {
            // Saturated hint: stream the remainder.
            out.extend_from_slice(&buf[ENTRY_HEADER..]);
            let mut rest = vec![0u8; vlen - hint];
            self.dev.read_adjacent(ctx, off + first as u64, &mut rest);
            out.extend_from_slice(&rest);
        }
        Ok(EntryMeta {
            seq,
            key,
            vlen,
            tombstone,
            off,
        })
    }

    /// Reads only the header at absolute offset `off`, returning the
    /// entry's metadata without fetching its value. Dead-byte crediting
    /// uses this to resolve saturated size hints and to verify that an
    /// index location word still names a resident entry (GC may have
    /// reclaimed — and the allocator reused — the extent it points into).
    pub fn entry_meta_at(&self, ctx: &mut ThreadCtx, off: u64) -> Result<EntryMeta> {
        let mut buf = [0u8; ENTRY_HEADER];
        self.dev.read(ctx, off, &mut buf);
        let (seq, key, vlen, tombstone) = Self::decode_header(&buf)?;
        Ok(EntryMeta {
            seq,
            key,
            vlen,
            tombstone,
            off,
        })
    }

    /// Reads only the header at absolute offset `off`, returning the
    /// entry's total on-media size.
    pub fn entry_size_at(&self, ctx: &mut ThreadCtx, off: u64) -> Result<u64> {
        self.entry_meta_at(ctx, off)
            .map(|m| (ENTRY_HEADER + m.vlen) as u64)
    }

    /// Sequentially reads every entry of data extent `idx` (one probe plus
    /// one large sequential read), returning metadata and value bytes.
    /// This is the GC read path: cost is bandwidth, not per-entry blocks.
    pub fn extent_entries(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
    ) -> Result<Vec<(EntryMeta, Vec<u8>)>> {
        let ext = self.cfg.extent_bytes as usize;
        let abs = self.region.off + (idx + 1) * self.cfg.extent_bytes;
        let mut probe = [0u8; ENTRY_HEADER];
        self.dev.read(ctx, abs, &mut probe);
        if probe[..8] == [0u8; 8] {
            return Ok(Vec::new());
        }
        let mut ebuf = vec![0u8; ext];
        self.dev.read_seq(ctx, abs, &mut ebuf);
        let mut out = Vec::new();
        self.walk_entries(&ebuf, abs, |meta, value| out.push((meta, value.to_vec())));
        Ok(out)
    }

    /// Collects every committed entry with `seq > after_seq` — metadata
    /// plus value bytes — across Active and Sealed extents, ordered by
    /// sequence. This is the replication tailing primitive: group commit
    /// assigns a dense sequence range per batch and fences it whole, so a
    /// caller holding floor `f` reads back exactly the suffix it has not
    /// yet shipped (or, for an audit, the whole committed stream with
    /// `after_seq = 0`).
    pub fn tail_committed(
        &self,
        ctx: &mut ThreadCtx,
        after_seq: u64,
    ) -> Result<Vec<(EntryMeta, Vec<u8>)>> {
        let mut out = Vec::new();
        for i in 0..self.cfg.data_extents() {
            match self.slots[i as usize].state() {
                ExtentState::Free | ExtentState::Gced => continue,
                ExtentState::Active | ExtentState::Sealed => {
                    for (meta, value) in self.extent_entries(ctx, i)? {
                        if meta.seq > after_seq {
                            out.push((meta, value));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|(m, _)| m.seq);
        Ok(out)
    }

    /// Sealed extents ranked deadest-first: `(idx, dead, appended)` for
    /// every sealed extent with at least `min_dead` dead bytes.
    pub fn gc_candidates(&self, min_dead: u64) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = (0..self.cfg.data_extents())
            .filter(|&i| self.slots[i as usize].state() == ExtentState::Sealed)
            .map(|i| {
                let s = &self.slots[i as usize];
                (
                    i,
                    s.dead.load(Ordering::Relaxed),
                    s.appended.load(Ordering::Relaxed),
                )
            })
            .filter(|&(_, dead, _)| dead >= min_dead.max(1))
            .collect();
        v.sort_by_key(|&(_, dead, _)| std::cmp::Reverse(dead));
        v
    }

    /// Marks extent `idx` as garbage-collected: every live entry has been
    /// relocated (and those relocations fenced), so the whole extent is
    /// dead. Persists the `Gced` record with its own fence, committing the
    /// collection. Self-heals conservative dead accounting by forcing the
    /// extent's dead bytes to its appended bytes.
    pub fn finish_gc(&self, ctx: &mut ThreadCtx, idx: u64) {
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.state(), ExtentState::Sealed);
        let appended = slot.appended.load(Ordering::Relaxed);
        let dead = slot.dead.swap(appended, Ordering::Relaxed);
        self.dead_bytes
            .fetch_add(appended.saturating_sub(dead), Ordering::Relaxed);
        slot.state
            .store(ExtentState::Gced as u64, Ordering::Release);
        self.write_meta(
            ctx,
            idx,
            ExtentState::Gced,
            slot.max_seq.load(Ordering::Relaxed),
            appended,
        );
        self.dev.fence(ctx);
    }

    /// Zeroes a collected extent and returns it to the free list. Only
    /// call once no reader can hold an offset into the extent (epoch
    /// quarantine expired). The zeroes and the `Free` record land under
    /// one fence: either both are durable or the extent stays `Gced` and
    /// recovery re-zeroes it.
    pub fn reclaim_extent(&self, ctx: &mut ThreadCtx, idx: u64) {
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.state(), ExtentState::Gced);
        self.zero_extent(ctx, idx);
        self.write_meta(ctx, idx, ExtentState::Free, 0, 0);
        self.dev.fence(ctx);
        let appended = slot.appended.swap(0, Ordering::Relaxed);
        let dead = slot.dead.swap(0, Ordering::Relaxed);
        slot.max_seq.store(0, Ordering::Relaxed);
        slot.state
            .store(ExtentState::Free as u64, Ordering::Release);
        self.appended_bytes.fetch_sub(appended, Ordering::Relaxed);
        self.dead_bytes.fetch_sub(dead, Ordering::Relaxed);
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.free.lock().push(idx);
    }

    /// Sequentially scans every persisted entry, invoking `f` for each.
    ///
    /// Reads one whole extent at a time (a single large sequential device
    /// access, so the cost is true bandwidth, not per-entry block reads),
    /// consulting the extent lifecycle state to skip Free and Gced
    /// extents. This is the recovery path whose cost difference between
    /// store designs drives Table 4's restart column. Entries whose batch
    /// was lost in a crash are naturally absent (their sequence word reads
    /// zero).
    pub fn scan(&self, ctx: &mut ThreadCtx, mut f: impl FnMut(EntryMeta)) -> Result<()> {
        let mut first_access = true;
        for i in 0..self.cfg.data_extents() {
            match self.slots[i as usize].state() {
                ExtentState::Free | ExtentState::Gced => continue,
                ExtentState::Active | ExtentState::Sealed => {
                    self.scan_extent_content(ctx, i, &mut first_access, &mut f);
                }
            }
        }
        Ok(())
    }

    /// Scans the content of one extent, returning `(used_bytes, max_seq,
    /// torn)`.
    fn scan_extent_content(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
        first_access: &mut bool,
        f: &mut impl FnMut(EntryMeta),
    ) -> (u64, u64, bool) {
        let ext = self.cfg.extent_bytes as usize;
        let abs = self.region.off + (idx + 1) * self.cfg.extent_bytes;
        // One-block probe: a zero sequence word in the first header means
        // the extent never received a persisted entry.
        let mut probe = [0u8; ENTRY_HEADER];
        if *first_access {
            self.dev.read(ctx, abs, &mut probe);
            *first_access = false;
        } else {
            self.dev.read_seq(ctx, abs, &mut probe);
        }
        if probe[..8] == [0u8; 8] {
            return (0, 0, false);
        }
        let mut ebuf = vec![0u8; ext];
        self.dev.read_seq(ctx, abs, &mut ebuf);
        let mut max_seq = 0u64;
        let (used, torn) = self.walk_entries(&ebuf, abs, |meta, _| {
            max_seq = max_seq.max(meta.seq);
            f(meta);
        });
        (used as u64, max_seq, torn)
    }

    /// Walks the entries of one extent image `ebuf` (whose first byte is
    /// at absolute offset `abs`), handing each whole entry and its value
    /// to `f`. Stops at the end-of-data marker (a zero sequence word) or at
    /// the first torn entry — one whose header or checksum shows that a
    /// crash persisted only some of its lines. A writer's entries are
    /// fenced in order, so nothing after a torn entry was ever durable.
    /// Returns the bytes walked and whether a torn entry ended the walk.
    fn walk_entries(
        &self,
        ebuf: &[u8],
        abs: u64,
        mut f: impl FnMut(EntryMeta, &[u8]),
    ) -> (usize, bool) {
        let mut pos = 0usize;
        while pos + ENTRY_HEADER <= ebuf.len() {
            let header = &ebuf[pos..pos + ENTRY_HEADER];
            let Ok((seq, key, vlen, tombstone)) = Self::decode_header(header) else {
                return (pos, true);
            };
            if seq == 0 {
                return (pos, false);
            }
            let end = pos + ENTRY_HEADER + vlen;
            if vlen > self.cfg.max_value || end > ebuf.len() {
                return (pos, true);
            }
            let value = &ebuf[pos + ENTRY_HEADER..end];
            let word = u64::from_le_bytes(header[16..24].try_into().expect("header slice"));
            if word >> CSUM_SHIFT != entry_checksum(seq, key, word, value) {
                return (pos, true);
            }
            let meta = EntryMeta {
                seq,
                key,
                vlen,
                tombstone,
                off: abs + pos as u64,
            };
            f(meta, value);
            pos = end;
        }
        (pos, false)
    }

    fn decode_header(buf: &[u8]) -> Result<(u64, u64, usize, bool)> {
        let seq = u64::from_le_bytes(buf[0..8].try_into().expect("header slice"));
        let key = u64::from_le_bytes(buf[8..16].try_into().expect("header slice"));
        let word = u64::from_le_bytes(buf[16..24].try_into().expect("header slice"));
        let vlen = (word & VLEN_MASK) as usize;
        let tombstone = word & FLAG_TOMBSTONE != 0;
        if word & !(VLEN_MASK | FLAG_TOMBSTONE | (u64::MAX << CSUM_SHIFT)) != 0 {
            return Err(KvError::Corrupt("log entry flags"));
        }
        Ok((seq, key, vlen, tombstone))
    }

    /// Writes (without fencing) the persistent state record of extent
    /// `idx`. Callers pick the fence point: claim records ride the
    /// writer's next data fence (per-thread order makes them durable
    /// before any durable data), GC records fence explicitly.
    fn write_meta(
        &self,
        ctx: &mut ThreadCtx,
        idx: u64,
        state: ExtentState,
        max_seq: u64,
        used: u64,
    ) {
        let mut rec = [0u8; META_RECORD as usize];
        rec[0..8].copy_from_slice(&(state as u64).to_le_bytes());
        rec[8..16].copy_from_slice(&max_seq.to_le_bytes());
        rec[16..24].copy_from_slice(&used.to_le_bytes());
        self.dev
            .write_nt(ctx, self.region.off + idx * META_RECORD, &rec);
    }

    /// Queues (without fencing) non-temporal zeroes over the whole content
    /// of extent `idx`.
    fn zero_extent(&self, ctx: &mut ThreadCtx, idx: u64) {
        let ext = self.cfg.extent_bytes;
        let abs = self.region.off + (idx + 1) * ext;
        let chunk = vec![0u8; (64 << 10).min(ext as usize)];
        let mut done = 0u64;
        while done < ext {
            let len = chunk.len().min((ext - done) as usize);
            self.dev.write_nt(ctx, abs + done, &chunk[..len]);
            done += len as u64;
        }
    }

    /// Claims a fresh extent for a writer: reclaimed extents are reused
    /// before the region grows. Returns `(idx, start, end)` with relative
    /// offsets.
    fn claim_extent(&self, ctx: &mut ThreadCtx) -> Result<(u64, u64, u64)> {
        let idx = if let Some(i) = self.free.lock().pop() {
            i
        } else {
            let i = self.hwm.fetch_add(1, Ordering::Relaxed);
            if i >= self.cfg.data_extents() {
                return Err(KvError::Full("storage log capacity"));
            }
            i
        };
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.state(), ExtentState::Free);
        slot.appended.store(0, Ordering::Relaxed);
        slot.dead.store(0, Ordering::Relaxed);
        slot.max_seq.store(0, Ordering::Relaxed);
        slot.state
            .store(ExtentState::Active as u64, Ordering::Release);
        self.in_use.fetch_add(1, Ordering::Relaxed);
        // Unfenced Active record: the writer's first data fence makes it
        // durable before (or with) any data in the extent.
        self.write_meta(ctx, idx, ExtentState::Active, 0, 0);
        let ext = self.cfg.extent_bytes;
        Ok((idx, (idx + 1) * ext, (idx + 2) * ext))
    }

    /// Seals a full extent: records its max sequence and used bytes.
    /// The record is fenced opportunistically by the writer's next batch;
    /// a lost seal just means recovery rescans the extent.
    fn seal_extent(&self, ctx: &mut ThreadCtx, idx: u64, max_seq: u64, used: u64) {
        let slot = &self.slots[idx as usize];
        slot.max_seq.store(max_seq, Ordering::Relaxed);
        slot.state
            .store(ExtentState::Sealed as u64, Ordering::Release);
        self.write_meta(ctx, idx, ExtentState::Sealed, max_seq, used);
    }
}

/// A single thread's handle for appending to the log.
///
/// Not `Sync`: each worker owns one. Dropping a writer without calling
/// [`flush`](Self::flush) models losing its final batch in a crash.
pub struct LogWriter {
    log: Arc<StorageLog>,
    /// Next write position (relative), within the current extent.
    pos: u64,
    /// End of the current extent (relative); 0 means no extent yet.
    end: u64,
    /// Start of the unfenced batch (relative).
    batch_start: u64,
    /// Index of the current extent (`u64::MAX` before the first claim).
    ext_idx: u64,
    /// Highest sequence number appended into the current extent.
    ext_max_seq: u64,
    /// The current extent's claim record has not been fenced yet.
    claim_unfenced: bool,
}

impl LogWriter {
    /// Appends one entry, returning its metadata (including the location
    /// word for the index).
    ///
    /// The entry is immediately visible to reads but only becomes durable
    /// when the current batch is fenced (every `batch_bytes`, or via
    /// [`flush`](Self::flush)).
    pub fn append(
        &mut self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
    ) -> Result<EntryMeta> {
        self.append_inner(ctx, key, value, tombstone, None)
    }

    /// Appends a relocated copy of an existing entry, preserving its
    /// original sequence number. This is the GC copy-forward path: replay
    /// order is untouched because the sequence is what orders entries, not
    /// their position.
    pub fn append_copy(
        &mut self,
        ctx: &mut ThreadCtx,
        meta: &EntryMeta,
        value: &[u8],
    ) -> Result<EntryMeta> {
        self.append_inner(ctx, meta.key, value, meta.tombstone, Some(meta.seq))
    }

    fn append_inner(
        &mut self,
        ctx: &mut ThreadCtx,
        key: u64,
        value: &[u8],
        tombstone: bool,
        seq_override: Option<u64>,
    ) -> Result<EntryMeta> {
        if value.len() > self.log.cfg.max_value {
            return Err(KvError::ValueTooLarge {
                len: value.len(),
                max: self.log.cfg.max_value,
            });
        }
        let need = (ENTRY_HEADER + value.len()) as u64;
        if self.end == 0 || self.pos + need > self.end {
            // Fence what we have, seal the full extent, then move on.
            self.flush(ctx)?;
            if self.ext_idx != u64::MAX {
                let used = self.pos - (self.end - self.log.cfg.extent_bytes);
                self.log
                    .seal_extent(ctx, self.ext_idx, self.ext_max_seq, used);
            }
            let (idx, start, end) = self.log.claim_extent(ctx)?;
            self.ext_idx = idx;
            self.ext_max_seq = 0;
            self.claim_unfenced = true;
            self.pos = start;
            self.end = end;
            self.batch_start = start;
        }
        let seq = match seq_override {
            Some(s) => s,
            None => self.log.seq.fetch_add(1, Ordering::Relaxed),
        };
        let mut word = value.len() as u64;
        if tombstone {
            word |= FLAG_TOMBSTONE;
        }
        word |= entry_checksum(seq, key, word, value) << CSUM_SHIFT;
        let abs = self.log.region.off + self.pos;
        let mut header = [0u8; ENTRY_HEADER];
        header[0..8].copy_from_slice(&seq.to_le_bytes());
        header[8..16].copy_from_slice(&key.to_le_bytes());
        header[16..24].copy_from_slice(&word.to_le_bytes());
        self.log.dev.write(ctx, abs, &header);
        if !value.is_empty() {
            self.log.dev.write(ctx, abs + ENTRY_HEADER as u64, value);
        }
        self.pos += need;
        self.ext_max_seq = self.ext_max_seq.max(seq);
        let slot = &self.log.slots[self.ext_idx as usize];
        slot.appended.fetch_add(need, Ordering::Relaxed);
        self.log.appended_bytes.fetch_add(need, Ordering::Relaxed);
        if self.pos - self.batch_start >= self.log.cfg.batch_bytes as u64 {
            self.fence_batch(ctx);
        }
        Ok(EntryMeta {
            seq,
            key,
            vlen: value.len(),
            tombstone,
            off: abs,
        })
    }

    /// Fences any buffered bytes so everything appended so far is durable.
    pub fn flush(&mut self, ctx: &mut ThreadCtx) -> Result<()> {
        if self.end != 0 && self.pos > self.batch_start {
            self.fence_batch(ctx);
        }
        Ok(())
    }

    fn fence_batch(&mut self, ctx: &mut ThreadCtx) {
        let abs = self.log.region.off + self.batch_start;
        let len = (self.pos - self.batch_start) as usize;
        self.log.dev.flush(ctx, abs, len);
        // The extent's claim record was written unfenced on whichever
        // thread claimed it, so its cache lines ride *that* thread's
        // flush queue. A sync issued from another thread (a background
        // flush's WAL fence) re-queues the data range above but would
        // leave the claim record volatile: after a crash the extent reads
        // as Free and its durable content is unreachable. So the first
        // data fence in an extent carries the record, whoever fences;
        // after it the record is durable and later fences skip it rather
        // than pay a whole media block to rewrite it.
        if self.claim_unfenced {
            self.log.dev.flush(
                ctx,
                self.log.region.off + self.ext_idx * META_RECORD,
                META_RECORD as usize,
            );
        }
        self.log.dev.fence(ctx);
        self.claim_unfenced = false;
        self.batch_start = self.pos;
    }

    /// Bytes appended but not yet fenced (would be lost in a crash).
    pub fn unfenced_bytes(&self) -> u64 {
        self.pos - self.batch_start
    }
}

/// The 32-bit checksum of an entry: its sequence number, key, length and
/// flags (the low half of `word`), and value bytes. Each 8-byte word is
/// multiplied independently and only a rotate-xor chains them, so the
/// recovery scan that verifies every entry stays cheap.
fn entry_checksum(seq: u64, key: u64, word: u64, value: &[u8]) -> u64 {
    const K0: u64 = 0x9E37_79B9_7F4A_7C15;
    const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const K2: u64 = 0x1656_67B1_9E37_79F9;
    let low = word & !(u64::MAX << CSUM_SHIFT);
    let mut acc = seq.wrapping_mul(K0)
        ^ key.wrapping_mul(K1).rotate_left(21)
        ^ low.wrapping_mul(K2).rotate_left(42);
    let mut words = value.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        acc = acc.rotate_left(23) ^ w.wrapping_mul(K0);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        acc = acc.rotate_left(23) ^ u64::from_le_bytes(tail).wrapping_mul(K0);
    }
    (acc ^ (acc >> 29)).wrapping_mul(K1) >> CSUM_SHIFT
}

/// Replays the log to rebuild a latest-wins view, the recovery primitive
/// shared by Dram-Hash and ChameleonDB's Write-Intensive-Mode restart.
///
/// Invokes `apply(key, meta)` for every entry, in arbitrary order; callers
/// must keep the entry with the highest `seq` per key. The helper verifies
/// the key hash so corrupt entries surface as errors. Returns the number of
/// entries visited.
pub fn replay(
    log: &StorageLog,
    ctx: &mut ThreadCtx,
    mut apply: impl FnMut(u64, EntryMeta),
) -> Result<u64> {
    let mut n = 0u64;
    log.scan(ctx, |meta| {
        // The hash is bijective over 8-byte keys, so this recomputation is
        // exactly the placement hash the index used.
        let _ = hash64(meta.key);
        apply(meta.key, meta);
        n += 1;
    })?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PmemDevice>, Arc<StorageLog>, ThreadCtx) {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        (dev, log, ThreadCtx::with_default_cost())
    }

    /// A small-extent log so lifecycle tests roll extents cheaply.
    fn small_cfg() -> LogConfig {
        LogConfig {
            capacity: 1 << 20,
            batch_bytes: 512,
            max_value: 8 << 10,
            extent_bytes: 16 << 10,
        }
    }

    fn setup_small() -> (Arc<PmemDevice>, Arc<StorageLog>, ThreadCtx) {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(Arc::clone(&dev), small_cfg()).unwrap();
        (dev, log, ThreadCtx::with_default_cost())
    }

    #[test]
    fn append_then_read_roundtrip() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 42, b"hello", false).unwrap();
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(back.key, 42);
        assert_eq!(back.seq, meta.seq);
        assert!(!back.tombstone);
    }

    #[test]
    fn loc_packs_offset_and_hint() {
        let (off, hint) = unpack_loc(pack_loc(12345, 88));
        assert_eq!(off, 12345);
        assert_eq!(hint, 88);
        // Hint saturates for huge values.
        let (_, hint) = unpack_loc(pack_loc(1, 10 << 20));
        assert_eq!(hint as u64, LOC_HINT_MAX);
        assert!(loc_hint_saturated(pack_loc(1, 10 << 20)));
        assert!(!loc_hint_saturated(pack_loc(1, 88)));
    }

    #[test]
    fn large_value_roundtrips_despite_saturated_hint() {
        let dev = PmemDevice::optane(64 << 20);
        let log = StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 32 << 20,
                max_value: 1 << 19,
                ..Default::default()
            },
        )
        .unwrap();
        let mut ctx = ThreadCtx::with_default_cost();
        let mut w = log.writer();
        let value = vec![0xABu8; 300_000];
        let meta = w.append(&mut ctx, 7, &value, false).unwrap();
        let mut out = Vec::new();
        log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert_eq!(out, value);
    }

    #[test]
    fn value_too_large_is_rejected() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let r = w.append(&mut ctx, 1, &vec![0u8; 512 << 10], false);
        assert!(matches!(r, Err(KvError::ValueTooLarge { .. })));
    }

    #[test]
    fn appends_batch_before_fencing() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        // Two small appends: less than a 4KB batch, so no fence yet.
        w.append(&mut ctx, 1, b"a", false).unwrap();
        w.append(&mut ctx, 2, b"b", false).unwrap();
        assert_eq!(dev.stats().snapshot().fences, 0);
        assert!(w.unfenced_bytes() > 0);
        w.flush(&mut ctx).unwrap();
        assert_eq!(dev.stats().snapshot().fences, 1);
        assert_eq!(w.unfenced_bytes(), 0);
    }

    #[test]
    fn batch_fences_automatically_at_threshold() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let value = vec![9u8; 1000];
        for k in 0..5 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        // 5 * 1024B > 4096B: at least one automatic fence.
        assert!(dev.stats().snapshot().fences >= 1);
    }

    #[test]
    fn unfenced_appends_are_lost_on_crash() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        w.append(&mut ctx, 1, b"durable", false).unwrap();
        w.flush(&mut ctx).unwrap();
        w.append(&mut ctx, 2, b"volatile", false).unwrap();
        dev.crash();
        let mut seen = Vec::new();
        log.scan(&mut ctx, |m| seen.push(m.key)).unwrap();
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn scan_visits_entries_from_multiple_writers() {
        let (_dev, log, mut ctx) = setup();
        let mut w1 = log.writer();
        let mut w2 = log.writer();
        w1.append(&mut ctx, 10, b"x", false).unwrap();
        w2.append(&mut ctx, 20, b"y", false).unwrap();
        w1.flush(&mut ctx).unwrap();
        w2.flush(&mut ctx).unwrap();
        let mut keys = Vec::new();
        log.scan(&mut ctx, |m| keys.push(m.key)).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, vec![10, 20]);
    }

    #[test]
    fn tombstones_survive_the_roundtrip() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 5, b"", true).unwrap();
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, meta.loc(), &mut out).unwrap();
        assert!(back.tombstone);
        assert!(out.is_empty());
    }

    #[test]
    fn reopen_resumes_after_crash() {
        let (dev, log, mut ctx) = setup();
        let region = log.region();
        let mut w = log.writer();
        for k in 0..100 {
            w.append(&mut ctx, k, b"value", false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let seq_before = log.last_seq();
        dev.crash();
        let log2 = StorageLog::reopen(
            Arc::clone(&dev),
            region,
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
            &mut ctx,
        )
        .unwrap();
        assert!(log2.last_seq() >= seq_before);
        // New appends after reopen do not collide with old data.
        let mut w2 = log2.writer();
        let meta = w2.append(&mut ctx, 999, b"post-crash", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        let mut count = 0;
        let mut saw_new = false;
        log2.scan(&mut ctx, |m| {
            count += 1;
            saw_new |= m.key == 999;
        })
        .unwrap();
        assert_eq!(count, 101);
        assert!(saw_new);
        assert!(meta.seq > seq_before);
    }

    #[test]
    fn fence_after_the_first_skips_the_durable_claim_record() {
        let (dev, log, mut ctx) = setup();
        let mut w = log.writer();
        w.append(&mut ctx, 1, &[1u8; 16], false).unwrap();
        // The first fence in the extent carries its claim record.
        w.flush(&mut ctx).unwrap();
        let before = dev.stats().snapshot();
        // One 40B entry, inside the data block the first fence wrote.
        w.append(&mut ctx, 2, &[2u8; 16], false).unwrap();
        w.flush(&mut ctx).unwrap();
        let after = dev.stats().snapshot();
        assert_eq!(after.fences - before.fences, 1);
        assert_eq!(
            after.media_bytes_written - before.media_bytes_written,
            256,
            "a one-entry fence must charge exactly one media block"
        );
    }

    #[test]
    fn claim_record_is_durable_when_another_thread_fences() {
        let (dev, log, _) = setup();
        let region = log.region();
        // The writer claims its extent under `a`; the record's lines ride
        // `a`'s flush queue, which never fences.
        let mut a = ThreadCtx::with_default_cost();
        let mut b = ThreadCtx::with_default_cost();
        let mut w = log.writer();
        for k in 0..10u64 {
            w.append(&mut a, k, b"first", false).unwrap();
        }
        w.flush(&mut b).unwrap();
        // The record is durable now; later cross-thread fences skip it.
        for k in 10..20u64 {
            w.append(&mut a, k, b"second", false).unwrap();
        }
        w.flush(&mut b).unwrap();
        dev.crash();
        let log2 = StorageLog::reopen(
            Arc::clone(&dev),
            region,
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
            &mut b,
        )
        .unwrap();
        assert_ne!(log2.extent_state(0), ExtentState::Free);
        let mut keys = Vec::new();
        log2.scan(&mut b, |m| keys.push(m.key)).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn torn_entry_ends_the_recovery_scan() {
        let (dev, log, mut ctx) = setup();
        let region = log.region();
        let mut w = log.writer();
        let whole = w.append(&mut ctx, 1, &[1u8; 16], false).unwrap();
        let torn = w.append(&mut ctx, 2, &[2u8; 16], false).unwrap();
        w.append(&mut ctx, 3, &[3u8; 16], false).unwrap();
        w.flush(&mut ctx).unwrap();
        // The crash kept the second entry's header but not its value tail.
        dev.persist(&mut ctx, torn.off + ENTRY_HEADER as u64 + 8, &[0u8; 8]);
        dev.crash();
        let mut keys = Vec::new();
        let log2 = StorageLog::reopen_with(
            Arc::clone(&dev),
            region,
            LogConfig {
                capacity: 32 << 20,
                ..Default::default()
            },
            &mut ctx,
            |m| keys.push(m.key),
        )
        .unwrap();
        assert_eq!(keys, vec![whole.key]);
        assert_eq!(log2.recovery_torn_entries(), 1);
        assert_eq!(log2.extent_state(0), ExtentState::Sealed);
    }

    #[test]
    fn replay_counts_entries() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        for k in 0..10 {
            w.append(&mut ctx, k, b"v", false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let n = replay(&log, &mut ctx, |_k, _m| {}).unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn scan_cost_is_sequential_not_random() {
        let (_dev, log, mut ctx) = setup();
        let mut w = log.writer();
        for k in 0..1000u64 {
            w.append(&mut ctx, k, &[0u8; 100], false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let start = ctx.clock.now();
        log.scan(&mut ctx, |_| {}).unwrap();
        let elapsed = ctx.clock.now() - start;
        // 1000 random reads would cost >= 305us; the stream must be far
        // cheaper per entry.
        assert!(
            elapsed < 1000 * 305,
            "scan took {elapsed}ns — looks like random reads"
        );
    }

    #[test]
    fn dead_byte_accounting() {
        let (_dev, log, _ctx) = setup();
        log.note_dead(100);
        log.note_dead(20);
        assert_eq!(log.dead_bytes(), 120);
    }

    #[test]
    fn rolling_extents_seals_them_with_max_seq() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        let mut metas = Vec::new();
        // 16KB extents hold ~16 of these entries; 40 appends roll twice.
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_state(0), ExtentState::Sealed);
        assert_eq!(log.extent_state(1), ExtentState::Sealed);
        assert_eq!(log.extent_state(2), ExtentState::Active);
        // The sealed extent's summary covers exactly its own entries.
        let (appended, _, max_seq) = log.extent_accounting(0);
        let in_ext0: Vec<_> = metas
            .iter()
            .filter(|m| log.extent_index(m.off) == Some(0))
            .collect();
        assert_eq!(appended, in_ext0.iter().map(|m| m.size()).sum::<u64>());
        assert_eq!(max_seq, in_ext0.iter().map(|m| m.seq).max().unwrap());
    }

    #[test]
    fn appended_equals_live_plus_dead() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let mut last: std::collections::HashMap<u64, EntryMeta> = Default::default();
        for i in 0..200u64 {
            let k = i % 20;
            let meta = w.append(&mut ctx, k, &[3u8; 100], false).unwrap();
            if let Some(old) = last.insert(k, meta) {
                log.note_dead_at(old.off, old.size());
            }
        }
        w.flush(&mut ctx).unwrap();
        let s = log.space_stats();
        assert_eq!(s.appended_bytes, s.live_bytes + s.dead_bytes);
        let live: u64 = last.values().map(|m| m.size()).sum();
        assert_eq!(s.live_bytes, live);
        // Per-extent dead never exceeds per-extent appended.
        for i in 0..log.data_extent_count() {
            let (a, d, _) = log.extent_accounting(i);
            assert!(d <= a, "extent {i}: dead {d} > appended {a}");
        }
    }

    #[test]
    fn gc_reclaim_reuses_extent_and_scan_stays_sound() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let value = vec![9u8; 1000];
        let mut metas = Vec::new();
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        // Declare everything in extent 0 dead and collect it.
        for m in metas.iter().filter(|m| log.extent_index(m.off) == Some(0)) {
            log.note_dead_at(m.off, m.size());
        }
        let cands = log.gc_candidates(1);
        assert_eq!(cands[0].0, 0);
        let before = log.space_stats();
        log.finish_gc(&mut ctx, 0);
        assert_eq!(log.extent_state(0), ExtentState::Gced);
        log.reclaim_extent(&mut ctx, 0);
        assert_eq!(log.extent_state(0), ExtentState::Free);
        let after = log.space_stats();
        assert!(after.footprint_bytes < before.footprint_bytes);
        assert_eq!(after.live_bytes, before.live_bytes);
        // A new writer reuses the freed extent and the scan sees exactly
        // the surviving entries plus the new one.
        let mut w2 = log.writer();
        let nm = w2.append(&mut ctx, 777, b"reused", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        assert_eq!(log.extent_index(nm.off), Some(0));
        let expect = metas
            .iter()
            .filter(|m| log.extent_index(m.off) != Some(0))
            .count()
            + 1;
        let mut seen = 0;
        log.scan(&mut ctx, |_| seen += 1).unwrap();
        assert_eq!(seen, expect);
    }

    #[test]
    fn append_copy_preserves_seq_and_replays() {
        let (_dev, log, mut ctx) = setup_small();
        let mut w = log.writer();
        let meta = w.append(&mut ctx, 5, b"orig", false).unwrap();
        w.flush(&mut ctx).unwrap();
        let copy = w.append_copy(&mut ctx, &meta, b"orig").unwrap();
        w.flush(&mut ctx).unwrap();
        assert_eq!(copy.seq, meta.seq);
        assert_ne!(copy.off, meta.off);
        // A fresh append still gets a later sequence.
        let later = w.append(&mut ctx, 6, b"x", false).unwrap();
        assert!(later.seq > meta.seq);
        let mut out = Vec::new();
        let back = log.read_entry(&mut ctx, copy.loc(), &mut out).unwrap();
        assert_eq!(out, b"orig");
        assert_eq!(back.seq, meta.seq);
    }

    #[test]
    fn reopen_rebuilds_extent_lifecycle_after_crash() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        let mut metas = Vec::new();
        for k in 0..40u64 {
            metas.push(w.append(&mut ctx, k, &value, false).unwrap());
        }
        w.flush(&mut ctx).unwrap();
        // Collect extent 0 fully, but crash before it is reclaimed:
        // recovery must re-zero it and hand it back as Free.
        for m in metas.iter().filter(|m| log.extent_index(m.off) == Some(0)) {
            log.note_dead_at(m.off, m.size());
        }
        log.finish_gc(&mut ctx, 0);
        dev.crash();
        let log2 = StorageLog::reopen(Arc::clone(&dev), region, small_cfg(), &mut ctx).unwrap();
        assert_eq!(log2.extent_state(0), ExtentState::Free);
        assert_eq!(log2.extent_state(1), ExtentState::Sealed);
        // Active extent 2 was resealed by recovery.
        assert_eq!(log2.extent_state(2), ExtentState::Sealed);
        let survivors = metas
            .iter()
            .filter(|m| log2.extent_index(m.off) != Some(0))
            .count();
        let mut seen = 0;
        log2.scan(&mut ctx, |_| seen += 1).unwrap();
        assert_eq!(seen, survivors);
        // The freed extent is claimable and its content reads as empty.
        let mut w2 = log2.writer();
        let nm = w2.append(&mut ctx, 999, b"fresh", false).unwrap();
        w2.flush(&mut ctx).unwrap();
        assert_eq!(log2.extent_index(nm.off), Some(0));
    }

    #[test]
    fn torn_seal_record_is_rebuilt_by_rescan() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        // Fill extent 0 and roll into extent 1, but never fence extent 1:
        // the seal record of extent 0 (written at roll time) is pending
        // and lost in the crash.
        for k in 0..16u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        // A small rolling append stays under the batch threshold, so the
        // seal record written at roll time is never fenced.
        w.append(&mut ctx, 99, b"tiny", false).unwrap(); // rolls, seals 0
        dev.crash();
        let log2 = StorageLog::reopen(Arc::clone(&dev), region, small_cfg(), &mut ctx).unwrap();
        // The extent still recovered as sealed (rescan) with its summary.
        assert_eq!(log2.extent_state(0), ExtentState::Sealed);
        let (_, _, max_seq) = log2.extent_accounting(0);
        assert_eq!(max_seq, 16);
        let mut count = 0;
        log2.scan(&mut ctx, |_| count += 1).unwrap();
        assert_eq!(count, 16);
    }

    #[test]
    fn reopen_scan_skips_checkpointed_extents() {
        let (dev, log, mut ctx) = setup_small();
        let region = log.region();
        let cfg = small_cfg();
        let mut w = log.writer();
        let value = vec![7u8; 1000];
        for k in 0..40u64 {
            w.append(&mut ctx, k, &value, false).unwrap();
        }
        w.flush(&mut ctx).unwrap();
        let floor = log.last_seq(); // everything "checkpointed"
        dev.crash();
        let ext_bytes = cfg.extent_bytes;
        let log2 = StorageLog::reopen_scan(Arc::clone(&dev), region, cfg, &mut ctx, floor, |m| {
            // Only the still-active extent is content-scanned.
            assert_eq!((m.off - region.off) / ext_bytes - 1, 2);
        })
        .unwrap();
        let (scanned, skipped) = log2.recovery_scan_stats();
        assert_eq!(skipped, 2);
        assert_eq!(scanned, 1);
        // Sequence numbering still resumes above the skipped extents.
        assert!(log2.last_seq() >= floor);
        // Space accounting still counts the skipped extents' bytes.
        let total: u64 = (0..3).map(|i| log2.extent_accounting(i).0).sum();
        assert_eq!(log2.space_stats().appended_bytes, total);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dev = PmemDevice::optane(8 << 20);
        // Capacity below two extents.
        assert!(StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 1 << 20,
                ..Default::default()
            },
        )
        .is_err());
        // max_value larger than an extent.
        assert!(StorageLog::create(
            Arc::clone(&dev),
            LogConfig {
                capacity: 4 << 20,
                max_value: 64 << 10,
                extent_bytes: 16 << 10,
                ..Default::default()
            },
        )
        .is_err());
    }
}
