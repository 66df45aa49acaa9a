//! [`Tsdb`]: the storage engine tying WAL, memtable and segments together.
//!
//! Data is organized in tiers by age, the shape the paper's archive needs
//! for "historical analysis of system performance" at scale: appends land
//! in the WAL (durability) and the memtable (the hot tier); a full
//! memtable **seals** into an immutable compressed segment (the warm
//! tier); `compact()` merges runs of small segments; `retain()` drops the
//! expired tier entirely.  Range scans prune whole segments via their
//! catalogs before touching any data, and the [`TsdbStats`] counters make
//! that pruning observable (and testable).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_core::flow::{EventSink, SinkError};
use jamm_core::query::{ParseError, Plan, Predicate};
use jamm_core::sync::RwLock;
use jamm_ulm::{binary, Event, SharedEvent, Timestamp};

use crate::memtable::MemTable;
use crate::query::ScanIter;
use crate::segment::{Segment, SegmentCatalog, SEGMENT_EXT, UNSUPPORTED_VERSION};
use crate::wal::Wal;
use crate::{Result, TsdbError};

/// Extension a segment file that fails validation at open is renamed to
/// (`seg-00000001.jseg.quarantined`); open never reads it again.
pub const QUARANTINE_EXT: &str = "quarantined";

/// The id in a segment file's name, quarantined or not (0 if none).
fn file_id(path: &Path) -> u64 {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let digits = name.trim_start_matches("seg-").split('.').next();
    digits.and_then(|id| id.parse().ok()).unwrap_or(0)
}

/// Tuning knobs for a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbOptions {
    /// Seal the memtable into a segment once it holds this many events.
    pub memtable_max_events: usize,
    /// `compact()` merges runs of two or more consecutive segments that
    /// are each smaller than this.
    pub small_segment_events: usize,
    /// Fsync the WAL on every append (durable but slow; off by default —
    /// the OS page cache already survives process death, the sync only
    /// matters for whole-machine crashes).
    pub sync_wal: bool,
}

impl Default for TsdbOptions {
    fn default() -> Self {
        TsdbOptions {
            memtable_max_events: 4_096,
            small_segment_events: 4_096,
            sync_wal: false,
        }
    }
}

/// Monotonic observability counters for one store.
#[derive(Debug, Default)]
pub struct TsdbStats {
    appended: AtomicU64,
    sealed_segments: AtomicU64,
    compactions: AtomicU64,
    segments_scanned: AtomicU64,
    segments_pruned: AtomicU64,
    scan_groups_decoded: AtomicU64,
    scan_groups_skipped: AtomicU64,
    expired_events: AtomicU64,
    wal_recovered_events: AtomicU64,
    wal_torn_bytes: AtomicU64,
    wal_bytes: AtomicU64,
    segments_quarantined: AtomicU64,
    append_errors: AtomicU64,
    oversized_events: AtomicU64,
    seal_errors: AtomicU64,
    append_us: jamm_core::obs::Histogram,
    seal_us: jamm_core::obs::Histogram,
    compact_us: jamm_core::obs::Histogram,
    scan_setup_us: jamm_core::obs::Histogram,
}

impl TsdbStats {
    /// Events appended since open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Memtable seals performed (segments created by sealing).
    pub fn sealed_segments(&self) -> u64 {
        self.sealed_segments.load(Ordering::Relaxed)
    }

    /// Compaction merges performed.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Segments whose data a scan actually read.
    pub fn segments_scanned(&self) -> u64 {
        self.segments_scanned.load(Ordering::Relaxed)
    }

    /// Segments skipped by catalog pruning (non-overlapping time range,
    /// absent host or absent event type).
    pub fn segments_pruned(&self) -> u64 {
        self.segments_pruned.load(Ordering::Relaxed)
    }

    /// 64-row groups of columnar segments that scans decoded: groups
    /// holding a row the plan's batch evaluation selected.
    pub fn scan_groups_decoded(&self) -> u64 {
        self.scan_groups_decoded.load(Ordering::Relaxed)
    }

    /// 64-row groups of columnar segments that scans passed over: nothing
    /// in them was selected, or they end before the plan's lower time
    /// bound.
    pub fn scan_groups_skipped(&self) -> u64 {
        self.scan_groups_skipped.load(Ordering::Relaxed)
    }

    /// Add one finished segment scan's group counts.
    pub(crate) fn count_scan_groups(&self, decoded: u64, skipped: u64) {
        self.scan_groups_decoded
            .fetch_add(decoded, Ordering::Relaxed);
        self.scan_groups_skipped
            .fetch_add(skipped, Ordering::Relaxed);
    }

    /// Events dropped by retention cuts.
    pub fn expired_events(&self) -> u64 {
        self.expired_events.load(Ordering::Relaxed)
    }

    /// Events recovered from the WAL at open.
    pub fn wal_recovered_events(&self) -> u64 {
        self.wal_recovered_events.load(Ordering::Relaxed)
    }

    /// Torn-tail bytes discarded from the WAL at open.
    pub fn wal_torn_bytes(&self) -> u64 {
        self.wal_torn_bytes.load(Ordering::Relaxed)
    }

    /// Bytes written to the WAL since open, by appends and by retention
    /// rewrites.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Segment files set aside at open because they failed validation.
    pub fn segments_quarantined(&self) -> u64 {
        self.segments_quarantined.load(Ordering::Relaxed)
    }

    /// Appends refused because the WAL write failed (nothing was stored).
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Events refused because a binary frame cannot carry them (a string
    /// over 65,535 bytes or more than 65,535 fields,
    /// [`jamm_ulm::binary::encodable`]): never in the WAL, never stored.
    pub fn oversized_events(&self) -> u64 {
        self.oversized_events.load(Ordering::Relaxed)
    }

    /// Seals that failed to write their segment (the memtable is untouched).
    pub fn seal_errors(&self) -> u64 {
        self.seal_errors.load(Ordering::Relaxed)
    }

    /// Microsecond latency of append calls (WAL write + memtable insert;
    /// one sample per call, batched or not).
    pub fn append_us(&self) -> &jamm_core::obs::Histogram {
        &self.append_us
    }

    /// Microsecond latency of memtable seals that produced a segment.
    pub fn seal_us(&self) -> &jamm_core::obs::Histogram {
        &self.seal_us
    }

    /// Microsecond latency of compaction passes.
    pub fn compact_us(&self) -> &jamm_core::obs::Histogram {
        &self.compact_us
    }

    /// Microsecond latency of scan planning (catalog pruning and cursor
    /// setup; decoding is lazy and not included).
    pub fn scan_setup_us(&self) -> &jamm_core::obs::Histogram {
        &self.scan_setup_us
    }
}

/// Aggregate description of a whole store (every segment plus the
/// memtable) — the data behind the archive's directory catalog entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreCatalog {
    /// Total stored events.
    pub event_count: usize,
    /// Earliest stored timestamp.
    pub earliest: Option<Timestamp>,
    /// Latest stored timestamp.
    pub latest: Option<Timestamp>,
    /// Hosts present, with event counts.
    pub hosts: BTreeMap<String, usize>,
    /// Event types present, with event counts.
    pub event_types: BTreeMap<String, usize>,
}

#[derive(Debug)]
struct Inner {
    mem: MemTable,
    segments: Vec<Arc<Segment>>,
    wal: Option<Wal>,
    next_seq: u64,
    next_segment_id: u64,
}

/// An embedded time-series store of ULM events.
#[derive(Debug)]
pub struct Tsdb {
    inner: RwLock<Inner>,
    dir: Option<PathBuf>,
    opts: TsdbOptions,
    /// Shared with every [`ScanIter`], which reports its segment scans.
    stats: Arc<TsdbStats>,
}

impl Tsdb {
    /// A volatile store: no WAL, no segment files, everything else (seal,
    /// compact, retain, pruning) identical.
    pub fn in_memory() -> Tsdb {
        Tsdb::in_memory_with(TsdbOptions::default())
    }

    /// In-memory store with explicit options.
    pub fn in_memory_with(opts: TsdbOptions) -> Tsdb {
        Tsdb {
            inner: RwLock::new(Inner {
                mem: MemTable::new(),
                segments: Vec::new(),
                wal: None,
                next_seq: 1,
                next_segment_id: 1,
            }),
            dir: None,
            opts,
            stats: Arc::default(),
        }
    }

    /// Open (creating if needed) a persistent store in `dir`: load every
    /// segment file, replay the WAL into the memtable, and continue
    /// sequence numbering where the previous process stopped.
    /// A damaged segment file is quarantined ([`QUARANTINE_EXT`], counted
    /// in [`TsdbStats::segments_quarantined`], its id never reused) and
    /// the rest served; a retired segment generation refuses the open.
    pub fn open(dir: impl AsRef<Path>) -> Result<Tsdb> {
        Tsdb::open_with(dir, TsdbOptions::default())
    }

    /// Open a persistent store with explicit options.
    pub fn open_with(dir: impl AsRef<Path>, opts: TsdbOptions) -> Result<Tsdb> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(crate::TsdbError::from)?;
        let mut segments = Vec::new();
        // Files quarantined by this open; highest id of any, ever.
        let (mut quarantined, mut set_aside_id) = (0, 0);
        for entry in std::fs::read_dir(&dir).map_err(crate::TsdbError::from)? {
            let path = entry.map_err(crate::TsdbError::from)?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some(SEGMENT_EXT) => match Segment::read_from_file(&path) {
                    Ok(seg) => segments.push(Arc::new(seg)),
                    Err(TsdbError::Corrupt(why)) if why != UNSUPPORTED_VERSION => {
                        let aside = path.with_extension(format!("{SEGMENT_EXT}.{QUARANTINE_EXT}"));
                        std::fs::rename(&path, aside).map_err(TsdbError::from)?;
                        quarantined += 1;
                        set_aside_id = set_aside_id.max(file_id(&path));
                    }
                    Err(e) => return Err(e),
                },
                Some(QUARANTINE_EXT) => set_aside_id = set_aside_id.max(file_id(&path)),
                // A crash mid-write leaves `.tmp` files behind (segment
                // writes and WAL rewrites both go through write-then-
                // rename); they are dead weight, clean them up.
                Some("tmp") => {
                    let _ = std::fs::remove_file(&path);
                }
                _ => {}
            }
        }
        segments.sort_by_key(|s| s.id());
        let next_segment_id = segments.iter().map(|s| s.id()).fold(set_aside_id, u64::max) + 1;
        let seg_max_seq = segments.iter().map(|s| s.max_seq()).max().unwrap_or(0);
        let mut next_seq = seg_max_seq + 1;

        // Crash reconciliation.  A crash between writing a replacement
        // segment (compaction merge, retention rewrite) and deleting its
        // inputs leaves both generations on disk.  Normal operation gives
        // segments pairwise-disjoint sequence ranges, so any overlap
        // identifies such a leftover — and the higher id is always the
        // newer, complete replacement.  Keep it, drop the older file.
        let mut reconciled: Vec<Arc<Segment>> = Vec::with_capacity(segments.len());
        let mut stale: Vec<u64> = Vec::new();
        for seg in segments.into_iter().rev() {
            let overlaps = reconciled
                .iter()
                .any(|kept| seg.min_seq() <= kept.max_seq() && kept.min_seq() <= seg.max_seq());
            if overlaps {
                stale.push(seg.id());
            } else {
                reconciled.push(seg);
            }
        }
        reconciled.reverse();
        let segments = reconciled;
        for id in stale {
            let _ = std::fs::remove_file(dir.join(Segment::file_name(id)));
        }

        let (recovered, torn) = Wal::replay(&dir)?;
        let stats = TsdbStats::default();
        stats.wal_torn_bytes.store(torn, Ordering::Relaxed);
        stats
            .segments_quarantined
            .store(quarantined, Ordering::Relaxed);
        // Not the last record's: a retention rewrite leaves the WAL in
        // time order.
        let wal_max_seq = recovered.iter().map(|(seq, _)| *seq).max();
        next_seq = next_seq.max(wal_max_seq.map_or(0, |seq| seq + 1));
        let mut mem = MemTable::new();
        // A crash between sealing a segment and resetting the WAL leaves
        // the sealed events in both places; records already durable in a
        // segment are skipped, not duplicated.
        let unsealed = recovered.into_iter().filter(|(seq, _)| *seq > seg_max_seq);
        mem.extend(unsealed.map(|(seq, event)| (seq, Arc::new(event))));
        stats
            .wal_recovered_events
            .store(mem.len() as u64, Ordering::Relaxed);
        let wal = Wal::open(&dir, opts.sync_wal)?;
        Ok(Tsdb {
            inner: RwLock::new(Inner {
                mem,
                segments,
                wal: Some(wal),
                next_seq,
                next_segment_id,
            }),
            dir: Some(dir),
            opts,
            stats: Arc::new(stats),
        })
    }

    /// The store's directory (`None` for an in-memory store).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The store's options.
    pub fn options(&self) -> &TsdbOptions {
        &self.opts
    }

    /// The store's observability counters.
    pub fn stats(&self) -> &TsdbStats {
        &self.stats
    }

    /// Append one owned event: a batch of one through
    /// [`Tsdb::append_shared_batch`], whose guarantees apply.
    pub fn append(&self, event: Event) -> Result<usize> {
        self.append_shared_batch(&[Arc::new(event)])
    }

    /// Append a batch of shared events under one lock acquisition and (for
    /// persistent stores) one WAL write, without copying any event: the
    /// memtable takes refcounted handles.  This is the only function that
    /// writes the WAL and the memtable.  Returns how many events were
    /// appended.
    ///
    /// The caller keeps its slice (and its buffer capacity): on `Err`
    /// nothing was stored — the WAL rolled back to its last record
    /// boundary — so the same batch can be retried later without loss or
    /// duplication.  Once the batch is accepted (WAL write succeeded), a
    /// failing *auto-seal* is not an error: the events are already
    /// durable, reporting failure would make a retrying caller store them
    /// twice, and the seal retries on the next append or explicit
    /// [`Tsdb::seal`].
    ///
    /// An event no binary frame can carry
    /// ([`jamm_ulm::binary::encodable`]) is refused alone and counted in
    /// [`TsdbStats::oversized_events`]: its WAL record would not decode,
    /// and replay stops at the first such record.  The rest of its batch
    /// is appended, and the refused event counts as handled, so a caller
    /// that retries failed batches does not retry it.
    pub fn append_shared_batch(&self, events: &[SharedEvent]) -> Result<usize> {
        let kept: Vec<SharedEvent>;
        let events = if events.iter().all(|e| binary::encodable(e)) {
            events
        } else {
            kept = events
                .iter()
                .filter(|e| binary::encodable(e))
                .cloned()
                .collect();
            let refused = (events.len() - kept.len()) as u64;
            self.stats
                .oversized_events
                .fetch_add(refused, Ordering::Relaxed);
            &kept
        };
        if events.is_empty() {
            return Ok(0);
        }
        let start = std::time::Instant::now();
        let mut inner = self.inner.write();
        let first_seq = inner.next_seq;
        if let Some(wal) = &mut inner.wal {
            let before = wal.len();
            wal.append_batch(first_seq, events).inspect_err(|_| {
                self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
            })?;
            let written = wal.len() - before;
            self.stats.wal_bytes.fetch_add(written, Ordering::Relaxed);
        }
        let n = events.len();
        inner
            .mem
            .extend((first_seq..).zip(events.iter().map(SharedEvent::clone)));
        inner.next_seq += n as u64;
        self.stats.appended.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.append_us.record_micros(start.elapsed());
        while inner.mem.len() >= self.opts.memtable_max_events {
            if !matches!(self.seal_inner(&mut inner), Ok(true)) {
                break;
            }
        }
        Ok(n)
    }

    /// Seal the memtable into a new immutable segment now.  Returns the
    /// new segment's catalog, or `None` when the memtable was empty.
    pub fn seal(&self) -> Result<Option<SegmentCatalog>> {
        let mut inner = self.inner.write();
        let sealed = self.seal_inner(&mut inner)?;
        let newest = inner.segments.last().filter(|_| sealed);
        Ok(newest.map(|seg| seg.catalog().clone()))
    }

    /// Seal under the caller's lock; `false` when the memtable was empty.
    fn seal_inner(&self, inner: &mut Inner) -> Result<bool> {
        if inner.mem.is_empty() {
            return Ok(false);
        }
        let start = std::time::Instant::now();
        // Built from the memtable *borrowed*: nothing moves until the segment
        // is durable, so a failing seal has no side effects to undo.
        let seg = Segment::build(inner.next_segment_id, inner.mem.as_slice());
        if let Some(dir) = &self.dir {
            seg.write_to_dir(dir).inspect_err(|_| {
                self.stats.seal_errors.fetch_add(1, Ordering::Relaxed);
            })?;
        }
        inner.next_segment_id += 1;
        // Commit the segment to the in-memory list *before* touching the
        // WAL: the data is durable at this point, and it must not vanish
        // from the live store if the WAL reset below fails.
        inner.segments.push(Arc::new(seg));
        self.stats.sealed_segments.fetch_add(1, Ordering::Relaxed);
        // The segment is durable; the WAL's copy of these events is now
        // redundant.  A failing reset is tolerated: replay skips records
        // whose sequence is covered by a segment, so a stale WAL merely
        // wastes space until the next successful seal.
        if let Some(wal) = &mut inner.wal {
            let _ = wal.reset();
        }
        self.stats.seal_us.record_micros(start.elapsed());
        // `seal_us` times making the segment durable; freeing the sealed
        // events is the allocator's time and stays outside it.
        inner.mem.clear();
        Ok(true)
    }

    /// Merge every run of two or more consecutive segments that are each
    /// smaller than [`TsdbOptions::small_segment_events`].  Returns the
    /// net number of segments removed.
    ///
    /// The replacement list is built entirely on the side and only
    /// committed once every merged segment is durable, so an I/O error
    /// leaves the store exactly as it was.
    pub fn compact(&self) -> Result<usize> {
        let start = std::time::Instant::now();
        let mut inner = self.inner.write();
        let threshold = self.opts.small_segment_events;
        let before = inner.segments.len();
        let mut result: Vec<Arc<Segment>> = Vec::with_capacity(before);
        let mut stale_ids: Vec<u64> = Vec::new();
        let mut next_id = inner.next_segment_id;
        let mut merges = 0u64;
        let small = |seg: &Arc<Segment>| seg.len() < threshold;
        for run in inner.segments.chunk_by(|a, b| small(a) == small(b)) {
            if run.len() < 2 || !small(&run[0]) {
                result.extend(run.iter().cloned());
                continue;
            }
            result.extend(self.rewrite(run, next_id, |_| true)?.map(Arc::new));
            next_id += 1;
            merges += 1;
            stale_ids.extend(run.iter().map(|s| s.id()));
        }

        // Commit point: every merged segment is on disk.
        inner.next_segment_id = next_id;
        inner.segments = result;
        self.stats.compactions.fetch_add(merges, Ordering::Relaxed);
        self.remove_segment_files(&stale_ids);
        self.stats.compact_us.record_micros(start.elapsed());
        Ok(before - inner.segments.len())
    }

    /// Drop every event with timestamp strictly before `cutoff` (retention
    /// cut).  Whole expired segments are dropped without decoding;
    /// straddling segments are rewritten.  Returns events removed.
    ///
    /// Like [`Tsdb::compact`], the new segment list is committed only
    /// after every rewritten segment is durable; an I/O error leaves the
    /// store untouched.  A crash before the stale files are unlinked can
    /// resurrect already-expired whole segments at the next open — that
    /// is over-retention, not data loss, and the next retention pass drops
    /// them again.
    pub fn retain(&self, cutoff: Timestamp) -> Result<usize> {
        let mut inner = self.inner.write();
        let mut kept: Vec<Arc<Segment>> = Vec::with_capacity(inner.segments.len());
        let mut stale_ids: Vec<u64> = Vec::new();
        let mut removed = 0usize;
        let mut next_id = inner.next_segment_id;
        for seg in &inner.segments {
            let c = seg.catalog();
            if c.max_ts < cutoff {
                removed += seg.len();
                stale_ids.push(seg.id());
            } else if c.min_ts >= cutoff {
                kept.push(Arc::clone(seg));
            } else {
                // Straddles the cutoff: rewrite the surviving suffix.
                let inputs = std::slice::from_ref(seg);
                let survivors = self.rewrite(inputs, next_id, |e| e.timestamp >= cutoff)?;
                next_id += 1;
                removed += seg.len() - survivors.as_ref().map_or(0, Segment::len);
                stale_ids.push(seg.id());
                kept.extend(survivors.map(Arc::new));
            }
        }
        // Commit point: every rewritten segment is on disk.
        inner.next_segment_id = next_id;
        inner.segments = kept;
        self.remove_segment_files(&stale_ids);

        let mem_removed = inner.mem.prune_before(cutoff);
        removed += mem_removed;
        if mem_removed > 0 {
            // Rewrite the WAL to match the pruned memtable, else replay
            // would resurrect expired events.  The rewrite is atomic
            // (write-new-then-rename), so a crash leaves either the old or
            // the new log — never a torn mix that loses acknowledged
            // events.
            let inner = &mut *inner;
            if let Some(wal) = &mut inner.wal {
                wal.rewrite(inner.mem.as_slice())?;
                let written = wal.len();
                self.stats.wal_bytes.fetch_add(written, Ordering::Relaxed);
            }
        }
        self.stats
            .expired_events
            .fetch_add(removed as u64, Ordering::Relaxed);
        Ok(removed)
    }

    /// Rewrite `inputs`, consecutive segments of the list, as one segment
    /// numbered `id` holding the rows `keep` accepts, in `(timestamp,
    /// sequence)` order, and make it durable; `None`, with nothing
    /// written, when `keep` accepts no row.  The caller commits it.
    fn rewrite(
        &self,
        inputs: &[Arc<Segment>],
        id: u64,
        keep: impl Fn(&Event) -> bool,
    ) -> Result<Option<Segment>> {
        let mut rows: Vec<(u64, Event)> = Vec::new();
        for seg in inputs {
            let mut cursor = seg.cursor();
            while let Some(row) = cursor.next_event() {
                let row = row?;
                if keep(&row.1) {
                    rows.push(row);
                }
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        // Each input yields its rows in order; segments of one run can
        // still overlap in time (a late arrival seals into the next one).
        if inputs.len() > 1 {
            rows.sort_by_key(|(seq, e)| (e.timestamp, *seq));
        }
        let seg = Segment::build(id, &rows);
        if let Some(dir) = &self.dir {
            seg.write_to_dir(dir)?;
        }
        Ok(Some(seg))
    }

    fn remove_segment_files(&self, ids: &[u64]) {
        if let Some(dir) = &self.dir {
            for &id in ids {
                let _ = std::fs::remove_file(dir.join(Segment::file_name(id)));
            }
        }
    }

    /// Stream every event a compiled query-plane [`Plan`]
    /// matches, in `(timestamp, sequence)` order.  Segments whose catalog
    /// cannot satisfy the plan's pushdown facts — time window, host and
    /// event-type sets, per-series counts, severity floor — are pruned
    /// without reading data (observable via [`TsdbStats::segments_pruned`]);
    /// the rest decode lazily as the iterator is consumed, and a pushed-down
    /// limit stops the merge early.  The iterator evaluates through its own
    /// clone of the plan (fresh stateful memory per scan).
    pub fn scan(&self, plan: &Plan) -> ScanIter {
        let start = std::time::Instant::now();
        let plan = plan.clone();
        let inner = self.inner.read();
        let mem = inner.mem.matching(plan.facts());
        let segments: Vec<Arc<Segment>> = inner
            .segments
            .iter()
            .filter(|seg| seg.catalog().overlaps(plan.facts()))
            .map(Arc::clone)
            .collect();
        let pruned = (inner.segments.len() - segments.len()) as u64;
        self.stats
            .segments_scanned
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        self.stats
            .segments_pruned
            .fetch_add(pruned, Ordering::Relaxed);
        self.stats.scan_setup_us.record_micros(start.elapsed());
        ScanIter::new(plan, mem, segments, pruned, Arc::clone(&self.stats))
    }

    /// Parse a query string in the unified grammar (e.g.
    /// `"(&(host=dpss1.lbl.gov)(level>=warning)(limit=100))"`) and stream
    /// the matching history.
    pub fn scan_str(&self, query: &str) -> std::result::Result<ScanIter, ParseError> {
        Ok(self.scan(&Predicate::parse(query)?.compile()))
    }

    /// Stream matching events as ULM text (one line per event) into a
    /// writer, without building the export in memory: every line is
    /// encoded into one reused buffer.  Returns the number of events
    /// written.
    pub fn export_ulm_to<W: std::io::Write>(
        &self,
        plan: &Plan,
        out: &mut W,
    ) -> std::io::Result<usize> {
        let mut n = 0;
        let mut line = String::new();
        for e in self.scan(plan) {
            line.clear();
            jamm_ulm::text::encode_into(&mut line, &e);
            line.push('\n');
            out.write_all(line.as_bytes())?;
            n += 1;
        }
        Ok(n)
    }

    /// Stream matching events as a JSON array into a writer.  Returns the
    /// number of events written.
    pub fn export_json_to<W: std::io::Write>(
        &self,
        plan: &Plan,
        out: &mut W,
    ) -> std::io::Result<usize> {
        out.write_all(b"[")?;
        let mut n = 0;
        for e in self.scan(plan) {
            if n > 0 {
                out.write_all(b",")?;
            }
            out.write_all(jamm_ulm::json::to_json(&e).to_string().as_bytes())?;
            n += 1;
        }
        out.write_all(b"]")?;
        Ok(n)
    }

    /// Total number of stored events (memtable plus every segment).
    pub fn len(&self) -> usize {
        let inner = self.inner.read();
        inner.mem.len() + inner.segments.iter().map(|s| s.len()).sum::<usize>()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.inner.read().segments.len()
    }

    /// Number of events in the hot (memtable) tier.
    pub fn memtable_len(&self) -> usize {
        self.inner.read().mem.len()
    }

    /// Per-segment catalogs, in segment order (what the archiver publishes
    /// in the directory).
    pub fn segment_catalogs(&self) -> Vec<SegmentCatalog> {
        let mut out = Vec::new();
        self.for_each_segment_catalog(|c| out.push(c.clone()));
        out
    }

    /// Visit every segment's catalog by reference, in segment order, under
    /// the store's read lock: a caller that wants a few (the archiver
    /// publishes only new ones) copies nothing for the rest.
    pub fn for_each_segment_catalog(&self, mut visit: impl FnMut(&SegmentCatalog)) {
        for seg in &self.inner.read().segments {
            visit(seg.catalog());
        }
    }

    /// Aggregate catalog over every tier.  Counts fold by `&str`; only the
    /// distinct hosts and types are copied out at the end.
    pub fn catalog(&self) -> StoreCatalog {
        let inner = self.inner.read();
        let mut hosts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut event_types: BTreeMap<&str, usize> = BTreeMap::new();
        let mut event_count = inner.mem.len();
        let mut earliest = inner.mem.min_ts();
        let mut latest = inner.mem.max_ts();
        for seg in &inner.segments {
            let c = seg.catalog();
            event_count += c.event_count;
            earliest = Some(earliest.map_or(c.min_ts, |e| e.min(c.min_ts)));
            latest = Some(latest.map_or(c.max_ts, |l| l.max(c.max_ts)));
            for (h, n) in &c.hosts {
                *hosts.entry(h).or_insert(0) += n;
            }
            for (t, n) in &c.event_types {
                *event_types.entry(t).or_insert(0) += n;
            }
        }
        for (_, e) in inner.mem.as_slice() {
            *hosts.entry(&e.host).or_insert(0) += 1;
            *event_types.entry(&e.event_type).or_insert(0) += 1;
        }
        let owned = |counts: BTreeMap<&str, usize>| {
            counts
                .into_iter()
                .map(|(name, n)| (name.to_string(), n))
                .collect()
        };
        StoreCatalog {
            event_count,
            earliest,
            latest,
            hosts: owned(hosts),
            event_types: owned(event_types),
        }
    }
}

fn rejected(e: TsdbError) -> SinkError {
    SinkError::Rejected(e.to_string())
}

/// The store is a terminal event sink: accepting a [`SharedEvent`] stores
/// the caller's `Arc` directly (a replayed or fanned-out event is archived
/// without any copy), and a batch is one [`Tsdb::append_shared_batch`].
impl EventSink<SharedEvent> for Tsdb {
    fn accept(&self, event: &SharedEvent) -> std::result::Result<usize, SinkError> {
        self.append_shared_batch(std::slice::from_ref(event))
            .map_err(rejected)
    }

    fn accept_batch(&self, events: &[SharedEvent]) -> std::result::Result<usize, SinkError> {
        self.append_shared_batch(events).map_err(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use jamm_core::query::Predicate;
    use jamm_ulm::Level;

    fn all() -> Plan {
        Predicate::True.compile()
    }

    fn ev(host: &str, ty: &str, t: u64) -> Event {
        Event::builder("sensor", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(t as f64)
            .build()
    }

    fn small_opts(memtable: usize) -> TsdbOptions {
        TsdbOptions {
            memtable_max_events: memtable,
            small_segment_events: memtable,
            sync_wal: false,
        }
    }

    #[test]
    fn append_seal_scan_round_trip() {
        let db = Tsdb::in_memory_with(small_opts(10));
        for t in 0..35 {
            db.append(ev("h", "X", t)).unwrap();
        }
        // 3 auto-seals at 10/20/30 events, 5 left hot.
        assert_eq!(db.segment_count(), 3);
        assert_eq!(db.memtable_len(), 5);
        assert_eq!(db.len(), 35);
        let all: Vec<Event> = db.scan(&all()).collect();
        assert_eq!(all.len(), 35);
        let times: Vec<u64> = all.iter().map(|e| e.timestamp.as_secs()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn batch_append_is_equivalent_to_singles() {
        let a = Tsdb::in_memory_with(small_opts(8));
        let b = Tsdb::in_memory_with(small_opts(8));
        let events: Vec<Event> = (0..20).map(|t| ev("h", "X", t)).collect();
        for e in events.clone() {
            a.append(e).unwrap();
        }
        let shared: Vec<SharedEvent> = events.into_iter().map(Arc::new).collect();
        b.append_shared_batch(&shared).unwrap();
        let ea: Vec<Event> = a.scan(&all()).collect();
        let eb: Vec<Event> = b.scan(&all()).collect();
        assert_eq!(ea, eb);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn scans_count_the_row_groups_they_decode_and_skip() {
        // One seeded 4,096-row segment: 64 groups of 64 rows.
        let mut rng = jamm_core::rng::Rng::seed_from_u64(28);
        let events: Vec<SharedEvent> = (0..4_096u64)
            .map(|i| {
                let e = Event::builder("vmstat", format!("h{}", rng.gen_range(0..8u64)))
                    .event_type(["CPU_TOTAL", "MEM_FREE", "TCP_RETRANS"][(i % 3) as usize])
                    .timestamp(Timestamp::from_micros(1_000_000 + i * 1_000))
                    .value(rng.gen_f64() * 100.0)
                    .build();
                Arc::new(e)
            })
            .collect();
        let db = Tsdb::in_memory();
        db.append_shared_batch(&events).unwrap();
        db.seal().unwrap();
        assert_eq!(db.segment_count(), 1);
        let stats = db.stats();

        let selective = Predicate::parse("(&(type=CPU_TOTAL)(val>99))")
            .unwrap()
            .compile();
        let rows = db.scan(&selective).count();
        let empty_groups = events
            .chunks(64)
            .filter(|group| !group.iter().any(|e| selective.eval(&**e)))
            .count() as u64;
        assert_eq!(rows, 10);
        assert_eq!(stats.scan_groups_skipped(), empty_groups);
        assert_eq!(stats.scan_groups_skipped(), 55);
        assert_eq!(stats.scan_groups_decoded(), 64 - 55);

        // The everything plan decodes every group and skips none.
        assert_eq!(db.scan(&all()).count(), 4_096);
        assert_eq!(stats.scan_groups_skipped(), 55);
        assert_eq!(stats.scan_groups_decoded(), 9 + 64);
        // A scan dropped after its first row still reports.
        drop(db.scan(&selective).next());
        assert!(stats.scan_groups_skipped() > 55);
    }

    #[test]
    fn scan_prunes_non_overlapping_segments() {
        let db = Tsdb::in_memory_with(small_opts(10));
        // Three segments covering [0,10), [100,110), [200,210).
        for base in [0u64, 100, 200] {
            for t in 0..10 {
                db.append(ev("h", "X", base + t)).unwrap();
            }
            db.seal().unwrap();
        }
        assert_eq!(db.segment_count(), 3);
        let hits: Vec<Event> = db
            .scan(&Predicate::between_micros(100_000_000, 110_000_000).compile())
            .collect();
        assert_eq!(hits.len(), 10);
        assert_eq!(db.stats().segments_scanned(), 1);
        assert_eq!(db.stats().segments_pruned(), 2);
    }

    #[test]
    fn host_and_type_pruning() {
        let db = Tsdb::in_memory_with(small_opts(4));
        for t in 0..4 {
            db.append(ev("alpha", "CPU", t)).unwrap();
        }
        db.seal().unwrap();
        for t in 4..8 {
            db.append(ev("beta", "MEM", t)).unwrap();
        }
        db.seal().unwrap();
        let hits: Vec<Event> = db.scan(&Predicate::hosts(["beta"]).compile()).collect();
        assert_eq!(hits.len(), 4);
        assert_eq!(db.stats().segments_pruned(), 1);
        let hits: Vec<Event> = db.scan(&Predicate::types(["CPU"]).compile()).collect();
        assert_eq!(hits.len(), 4);
        assert_eq!(db.stats().segments_pruned(), 2);
    }

    #[test]
    fn level_floor_pruning_skips_routine_segments() {
        let db = Tsdb::in_memory_with(small_opts(4));
        for t in 0..4 {
            db.append(ev("h", "X", t)).unwrap(); // Usage-level segment
        }
        db.seal().unwrap();
        for t in 4..8 {
            let mut e = ev("h", "X", t);
            e.level = jamm_ulm::Level::Error;
            db.append(e).unwrap();
        }
        db.seal().unwrap();
        let plan = Predicate::parse("(level>=warning)").unwrap().compile();
        let hits: Vec<Event> = db.scan(&plan).collect();
        assert_eq!(hits.len(), 4);
        assert_eq!(db.stats().segments_scanned(), 1);
        assert_eq!(
            db.stats().segments_pruned(),
            1,
            "the Usage segment is skipped"
        );
    }

    #[test]
    fn series_count_pruning_skips_absent_host_type_pairs() {
        let db = Tsdb::in_memory_with(small_opts(4));
        // Segment 1 holds (alpha, CPU) and (beta, MEM); segment 2 holds
        // (alpha, MEM) and (beta, CPU).  Host-only or type-only pruning
        // cannot separate them — the per-series counts can.
        for t in 0..2 {
            db.append(ev("alpha", "CPU", t)).unwrap();
            db.append(ev("beta", "MEM", t)).unwrap();
        }
        db.seal().unwrap();
        for t in 2..4 {
            db.append(ev("alpha", "MEM", t)).unwrap();
            db.append(ev("beta", "CPU", t)).unwrap();
        }
        db.seal().unwrap();
        let plan = Predicate::parse("(&(host=alpha)(type=CPU))")
            .unwrap()
            .compile();
        let hits: Vec<Event> = db.scan(&plan).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits
            .iter()
            .all(|e| e.host == "alpha" && e.event_type == "CPU"));
        assert_eq!(db.stats().segments_scanned(), 1);
        assert_eq!(
            db.stats().segments_pruned(),
            1,
            "series-count tier prunes the segment lacking (alpha, CPU)"
        );
    }

    #[test]
    fn limit_pushdown_stops_the_scan_early() {
        let db = Tsdb::in_memory_with(small_opts(10));
        for t in 0..30 {
            db.append(ev("h", "X", t)).unwrap();
        }
        let plan = Predicate::parse("(limit=5)").unwrap().compile();
        let hits: Vec<Event> = db.scan(&plan).collect();
        assert_eq!(hits.len(), 5);
        assert_eq!(
            hits.iter()
                .map(|e| e.timestamp.as_secs())
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "the limit takes the earliest events, not an arbitrary subset"
        );
    }

    #[test]
    fn compact_merges_small_segment_runs() {
        let db = Tsdb::in_memory_with(small_opts(100));
        for round in 0..6u64 {
            for t in 0..5 {
                db.append(ev("h", "X", round * 5 + t)).unwrap();
            }
            db.seal().unwrap();
        }
        assert_eq!(db.segment_count(), 6);
        let before: Vec<Event> = db.scan(&all()).collect();
        let removed = db.compact().unwrap();
        assert_eq!(removed, 5, "six small segments merge into one");
        assert_eq!(db.segment_count(), 1);
        let after: Vec<Event> = db.scan(&all()).collect();
        assert_eq!(before, after, "compaction preserves contents and order");
        assert_eq!(db.stats().compactions(), 1);
    }

    #[test]
    fn compact_leaves_large_segments_alone() {
        let db = Tsdb::in_memory_with(TsdbOptions {
            memtable_max_events: 100,
            small_segment_events: 3,
            sync_wal: false,
        });
        for t in 0..10 {
            db.append(ev("h", "X", t)).unwrap();
        }
        db.seal().unwrap(); // 10 events >= threshold 3: not small
        for t in 10..12 {
            db.append(ev("h", "X", t)).unwrap();
        }
        db.seal().unwrap(); // small, but a run of one
        assert_eq!(db.compact().unwrap(), 0);
        assert_eq!(db.segment_count(), 2);
    }

    #[test]
    fn retain_drops_and_rewrites() {
        let db = Tsdb::in_memory_with(small_opts(10));
        for t in 0..30 {
            db.append(ev("h", "X", t)).unwrap();
        }
        // Segments [0,10), [10,20), memtable [20,30).
        assert_eq!(db.segment_count(), 3); // auto-seal at 10, 20, 30
        let removed = db.retain(Timestamp::from_secs(15)).unwrap();
        assert_eq!(removed, 15);
        assert_eq!(db.len(), 15);
        let all: Vec<Event> = db.scan(&all()).collect();
        assert!(all.iter().all(|e| e.timestamp >= Timestamp::from_secs(15)));
        assert_eq!(db.stats().expired_events(), 15);
    }

    #[test]
    fn catalog_aggregates_all_tiers() {
        let db = Tsdb::in_memory_with(small_opts(5));
        for t in 0..5 {
            db.append(ev("a", "CPU", t)).unwrap(); // seals at 5
        }
        for t in 5..8 {
            db.append(ev("b", "MEM", t)).unwrap(); // stays hot
        }
        let c = db.catalog();
        assert_eq!(c.event_count, 8);
        assert_eq!(c.earliest, Some(Timestamp::from_secs(0)));
        assert_eq!(c.latest, Some(Timestamp::from_secs(7)));
        assert_eq!(c.hosts.get("a"), Some(&5));
        assert_eq!(c.hosts.get("b"), Some(&3));
        assert_eq!(c.event_types.len(), 2);
    }

    #[test]
    fn wal_bytes_follow_the_log_file() {
        let dir = TempDir::new("store-wal-bytes");
        let db = Tsdb::open_with(dir.path(), small_opts(1_000)).unwrap();
        let wal_file = || std::fs::metadata(dir.path().join(crate::wal::WAL_FILE)).unwrap();
        assert_eq!(db.stats().wal_bytes(), 0);
        for batch in 0..4u64 {
            let (bytes, len) = (db.stats().wal_bytes(), wal_file().len());
            let events: Vec<SharedEvent> = (0..=batch)
                .map(|i| Arc::new(ev("h", "X", 10 * batch + i)))
                .collect();
            db.append_shared_batch(&events).unwrap();
            let grew = wal_file().len() - len;
            assert!(grew > 0);
            assert_eq!(db.stats().wal_bytes() - bytes, grew, "batch {batch}");
        }
        // A retention cut that prunes the memtable rewrites the log: the
        // rewrite's bytes are counted too.
        let before = db.stats().wal_bytes();
        assert_eq!(db.retain(Timestamp::from_secs(20)).unwrap(), 3);
        assert_eq!(db.stats().wal_bytes() - before, wal_file().len());
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let dir = TempDir::new("store-reopen");
        {
            let db = Tsdb::open_with(dir.path(), small_opts(10)).unwrap();
            for t in 0..25 {
                db.append(ev("h", "X", t)).unwrap();
            }
            assert_eq!(db.segment_count(), 2);
            assert_eq!(db.memtable_len(), 5);
            // No graceful shutdown: drop with 5 events only in the WAL.
        }
        let db = Tsdb::open_with(dir.path(), small_opts(10)).unwrap();
        assert_eq!(db.len(), 25);
        assert_eq!(db.segment_count(), 2);
        assert_eq!(db.memtable_len(), 5);
        assert_eq!(db.stats().wal_recovered_events(), 5);
        // Sequence numbering continues: appending and sealing stays ordered.
        db.append(ev("h", "X", 25)).unwrap();
        let all: Vec<Event> = db.scan(&all()).collect();
        assert_eq!(all.len(), 26);
    }

    #[test]
    fn reopen_after_retention_does_not_resurrect() {
        let dir = TempDir::new("store-retain-reopen");
        {
            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            for t in 0..20 {
                db.append(ev("h", "X", t)).unwrap();
            }
            db.retain(Timestamp::from_secs(10)).unwrap();
            assert_eq!(db.len(), 10);
        }
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        assert_eq!(db.len(), 10, "expired events must not come back");
        let all: Vec<Event> = db.scan(&all()).collect();
        assert!(all.iter().all(|e| e.timestamp >= Timestamp::from_secs(10)));
    }

    #[test]
    fn crash_between_seal_and_wal_reset_does_not_duplicate() {
        let dir = TempDir::new("store-seal-crash");
        let wal_path = dir.path().join(crate::wal::WAL_FILE);
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        for t in 0..10 {
            db.append(ev("h", "X", t)).unwrap();
        }
        let wal_backup = std::fs::read(&wal_path).unwrap();
        db.seal().unwrap();
        drop(db);
        // Simulate a crash between the segment rename and the WAL reset:
        // the pre-seal WAL reappears alongside the sealed segment.
        std::fs::write(&wal_path, &wal_backup).unwrap();
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        assert_eq!(db.len(), 10, "sealed events must not be replayed twice");
        assert_eq!(db.stats().wal_recovered_events(), 0);
        let all: Vec<Event> = db.scan(&all()).collect();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn crash_between_compact_and_stale_delete_does_not_duplicate() {
        let dir = TempDir::new("store-compact-crash");
        let seg_files = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
            let mut v: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXT))
                .collect();
            v.sort();
            v
        };
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        for t in 0..5 {
            db.append(ev("h", "X", t)).unwrap();
        }
        db.seal().unwrap();
        for t in 5..10 {
            db.append(ev("h", "X", t)).unwrap();
        }
        db.seal().unwrap();
        let backups: Vec<(std::path::PathBuf, Vec<u8>)> = seg_files(dir.path())
            .into_iter()
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        assert_eq!(backups.len(), 2);
        assert_eq!(db.compact().unwrap(), 1);
        drop(db);
        // Simulate a crash after the merged segment was written but before
        // its inputs were deleted: all three generations are on disk.
        for (p, bytes) in &backups {
            std::fs::write(p, bytes).unwrap();
        }
        assert_eq!(seg_files(dir.path()).len(), 3);
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        assert_eq!(db.len(), 10, "merged events must not appear twice");
        assert_eq!(db.segment_count(), 1);
        assert_eq!(
            seg_files(dir.path()).len(),
            1,
            "stale crash leftovers are deleted at open"
        );
    }

    #[test]
    fn a_store_holding_a_retired_segment_generation_refuses_to_open_and_keeps_it() {
        for magic in [b"JSG1", b"JSG2"] {
            let dir = TempDir::new("store-retired-generation");
            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            for t in 0..5 {
                db.append(ev("h", "X", t)).unwrap();
            }
            let id = db.seal().unwrap().expect("sealed").id;
            drop(db);
            // The checksum covers the body only: this image is intact but
            // for its magic.
            let path = dir.path().join(Segment::file_name(id));
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..4].copy_from_slice(magic);
            std::fs::write(&path, &bytes).unwrap();
            let Err(err) = Tsdb::open_with(dir.path(), small_opts(100)) else {
                panic!("a store holding a retired segment opened");
            };
            assert_eq!(
                err,
                crate::TsdbError::Corrupt("unsupported segment version")
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "left as it was");
        }
    }

    #[test]
    fn a_corrupt_segment_is_quarantined_and_the_rest_of_the_store_opens() {
        // Flip one byte in the older segment, then in the newer one (whose
        // id a careless reopen would hand out again).
        for victim in [1u64, 2] {
            let dir = TempDir::new("store-quarantine");
            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            for t in 0..13 {
                db.append(ev("h", "X", t)).unwrap();
                if t == 4 || t == 9 {
                    db.seal().unwrap().expect("sealed");
                }
            }
            drop(db);
            let path = dir.path().join(Segment::file_name(victim));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();

            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            assert_eq!(db.stats().segments_quarantined(), 1, "victim {victim}");
            // The intact segment and the WAL tail (10, 11, 12) are served.
            let lost = if victim == 1 { 0..5 } else { 5..10 };
            let want: Vec<u64> = (0..13).filter(|t| !lost.contains(t)).collect();
            let got: Vec<u64> = db.scan(&all()).map(|e| e.timestamp.as_secs()).collect();
            assert_eq!(got, want);
            // The file is kept, under a name open never loads.
            let aside = dir
                .path()
                .join(format!("{}.{QUARANTINE_EXT}", Segment::file_name(victim)));
            assert_eq!(std::fs::read(&aside).unwrap(), bytes);
            assert!(!path.exists());
            assert_eq!(db.seal().unwrap().expect("sealed").id, 3);
            drop(db);

            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            assert_eq!(db.stats().segments_quarantined(), 0, "counted once");
            assert_eq!(db.len(), 8);
            db.append(ev("h", "X", 20)).unwrap();
            assert_eq!(db.seal().unwrap().expect("sealed").id, 4);
            assert!(aside.exists());
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_refused_append_is_counted_and_stores_nothing() {
        let dir = TempDir::new("store-append-refused");
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        db.append(ev("h", "X", 0)).unwrap();
        // Point the WAL at a device that refuses every write.
        let full = TempDir::new("store-append-refused-wal");
        std::os::unix::fs::symlink("/dev/full", full.path().join(crate::wal::WAL_FILE)).unwrap();
        db.inner.write().wal = Some(Wal::open(full.path(), false).unwrap());
        assert!(db.append(ev("h", "X", 1)).is_err());
        assert_eq!(db.stats().append_errors(), 1);
        assert_eq!((db.len(), db.memtable_len()), (1, 1), "nothing stored");
        assert_eq!(db.stats().appended(), 1);
    }

    /// One event a frame cannot carry is refused alone: the rest of its
    /// batch is stored and recovered from the WAL, and the refused event
    /// never reaches the log, so replay does not stop at it.
    #[test]
    fn an_oversized_event_is_refused_alone_and_replay_recovers_the_rest() {
        let dir = TempDir::new("store-oversized");
        let big = Event::builder("p", "h")
            .event_type("X")
            .timestamp(Timestamp::from_micros(1))
            .field("BLOB", "x".repeat(70_000))
            .build();
        let batch: Vec<SharedEvent> = [ev("h", "X", 0), big, ev("h", "X", 2)]
            .into_iter()
            .map(Arc::new)
            .collect();
        {
            let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
            assert_eq!(db.append_shared_batch(&batch).unwrap(), 2);
            assert_eq!(db.append_shared_batch(&batch[1..2]).unwrap(), 0);
            assert_eq!(db.stats().oversized_events(), 2);
            assert_eq!((db.len(), db.stats().appended()), (2, 2));
            db.append(ev("h", "X", 3)).unwrap();
        }
        let db = Tsdb::open_with(dir.path(), small_opts(100)).unwrap();
        assert_eq!(db.stats().wal_torn_bytes(), 0);
        assert_eq!(db.stats().wal_recovered_events(), 3);
        let got: Vec<u64> = db
            .scan(&all())
            .map(|e| e.timestamp.as_micros() / 1_000_000)
            .collect();
        assert_eq!(got, [0, 2, 3]);
    }

    #[test]
    fn seal_empty_memtable_is_a_noop() {
        let db = Tsdb::in_memory();
        assert!(db.seal().unwrap().is_none());
        assert!(db.is_empty());
    }
}
