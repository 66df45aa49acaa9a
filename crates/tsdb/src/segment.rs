//! Immutable sorted segments and their compressed on-disk format.
//!
//! A segment is a batch of events sorted by `(timestamp, sequence)`, frozen
//! when the memtable seals.  The encoding is built for monitoring streams:
//!
//! * **delta-of-delta timestamps** — sensors emit at near-regular periods,
//!   so the second difference of consecutive timestamps is usually 0 or
//!   tiny, and a zigzag varint makes it one byte;
//! * **varint values** — counters and sizes are unsigned varints, signed
//!   readings are zigzag varints, only genuine floats pay eight bytes;
//! * **a per-segment string dictionary** — hosts, programs, event types,
//!   field keys and repeated string values are stored once and referenced
//!   by varint index.
//!
//! Each segment carries a [`SegmentCatalog`] (min/max timestamp, host and
//! event-type sets, per-series counts) that the store consults to *prune*
//! segments from a range scan without touching their data, and decoding is
//! cursor-based so a scan streams events out of the compressed buffer one
//! at a time instead of materializing the segment.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use jamm_core::query::{BatchScratch, ColumnBatch, Columns, Facts, Plan, Selection};
use jamm_ulm::{binary, vocab, Event, Name, Timestamp, Value};

use crate::codec::{
    fnv64, get_bytes, get_ivarint, get_str, get_uvarint, put_ivarint, put_str, put_uvarint,
};
use crate::store::TsdbStats;
use crate::{Result, TsdbError};

/// Magic bytes opening a segment file: `JSG3`, the event stream laid out
/// as per-field *columns* (see [`Segment`]).  Any other `JSG`-prefixed
/// magic, from an older generation or a newer one, is reported as an
/// unsupported *version* rather than corruption, so opening a store this
/// build cannot read fails loudly and clearly.
pub const SEGMENT_MAGIC: &[u8; 4] = b"JSG3";

/// File extension of segment files inside a store directory.
pub const SEGMENT_EXT: &str = "jseg";

/// The [`TsdbError::Corrupt`] reason of a segment written by a generation
/// this build does not read: the one validation failure that is not
/// damage, so `Tsdb::open` refuses the store instead of quarantining it.
pub const UNSUPPORTED_VERSION: &str = "unsupported segment version";

const TAG_UINT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// What a segment contains, without reading its data: the pruning index
/// for range scans and the unit of the archiver's per-segment directory
/// publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCatalog {
    /// Segment identifier (unique within a store, monotonically assigned).
    pub id: u64,
    /// Number of events in the segment.
    pub event_count: usize,
    /// Smallest event timestamp.
    pub min_ts: Timestamp,
    /// Largest event timestamp.
    pub max_ts: Timestamp,
    /// Hosts present, with per-host event counts.
    pub hosts: BTreeMap<String, usize>,
    /// Event types present, with per-type event counts.
    pub event_types: BTreeMap<String, usize>,
    /// Per-series `(host, event type)` event counts.
    pub series: BTreeMap<(String, String), usize>,
    /// Highest severity rank present (see `jamm_ulm::Level::severity`),
    /// so a `level>=` query can skip segments of routine readings.
    pub max_level: u8,
}

impl SegmentCatalog {
    /// True when a query's pushdown [`Facts`] could be satisfied by events
    /// in this segment; the store skips (prunes) segments for which this
    /// is false without decoding any data.  The tiers, cheapest first:
    ///
    /// 1. **time** — the segment's `[min_ts, max_ts]` window misses the
    ///    query's half-open range;
    /// 2. **level** — the query's severity floor exceeds every event's;
    /// 3. **host / type sets** — none of the required hosts (or event
    ///    types) occurs in the segment;
    /// 4. **per-series counts** — hosts *and* types are both constrained
    ///    but no required `(host, type)` series exists here (a segment can
    ///    contain `h1` and `CPU_TOTAL` without containing `h1`'s
    ///    `CPU_TOTAL` readings).
    pub fn overlaps(&self, facts: &Facts) -> bool {
        if let Some(from) = facts.from_micros {
            if self.max_ts.as_micros() < from {
                return false;
            }
        }
        if let Some(to) = facts.to_micros {
            if self.min_ts.as_micros() >= to {
                return false;
            }
        }
        if let Some(floor) = facts.level_floor {
            if self.max_level < floor {
                return false;
            }
        }
        if let Some(hosts) = &facts.hosts {
            if !hosts.iter().any(|h| self.hosts.contains_key(h.as_str())) {
                return false;
            }
        }
        if let Some(types) = &facts.types {
            if !types
                .iter()
                .any(|t| self.event_types.contains_key(t.as_str()))
            {
                return false;
            }
        }
        if let (Some(hosts), Some(types)) = (&facts.hosts, &facts.types) {
            let series_hit = self.series.keys().any(|(h, t)| {
                hosts.iter().any(|hs| hs.as_str() == h) && types.iter().any(|ts| ts.as_str() == t)
            });
            if !series_hit {
                return false;
            }
        }
        true
    }
}

/// An immutable sorted run of compressed events.
///
/// A segment is **columnar** (`JSG3`): each event field lives in its own
/// region — delta-of-delta timestamps, sequence deltas, level codes,
/// host/program/type dictionary indices, a typed `f64` column for the
/// conventional `VAL` reading (with presence bitmap), per-row field counts
/// and key lists, and *sparse per-key columns* holding the remaining field
/// payloads grouped by key.  A plan scan decodes just the
/// columns the plan reads a batch at a time, runs the vectorized
/// [`jamm_core::query::Plan::eval_batch`] over them, passes over the
/// 64-row groups it rejects whole, and only *materializes* full
/// [`Event`]s for rows that survive the filter (late materialization) —
/// rejected rows of the other groups pay varint skips, never a `String`.
#[derive(Debug)]
pub struct Segment {
    catalog: SegmentCatalog,
    /// Smallest sequence number in the segment.  Together with `max_seq`
    /// this identifies the segment's generation: live segments have
    /// pairwise-disjoint sequence ranges, so an overlap found at open
    /// marks a crash leftover to reconcile.
    min_seq: u64,
    /// Largest sequence number in the segment (restart continues after it).
    max_seq: u64,
    /// String dictionary referenced by the data stream.
    dict: Vec<String>,
    /// The compressed event stream, one region per column.
    cols: ColData,
    /// The row-group index: built in memory by the first scan that skips a
    /// group, shared by every later scan, never written to disk.
    groups: OnceLock<Result<Option<GroupIndex>>>,
}

/// The encoded column regions of a segment.
#[derive(Debug, Default)]
struct ColData {
    /// Timestamps: first row uvarint, second row uvarint delta, then
    /// zigzag delta-of-delta varints.
    ts: Vec<u8>,
    /// Sequence numbers as zigzag deltas.
    seqs: Vec<u8>,
    /// One `binary::level_code` byte per row.
    levels: Vec<u8>,
    /// Host dictionary indices, uvarint per row.
    host_ix: Vec<u8>,
    /// Program dictionary indices, uvarint per row.
    prog_ix: Vec<u8>,
    /// Event-type dictionary indices, uvarint per row.
    type_ix: Vec<u8>,
    /// Bit `r%8` of byte `r/8` set when row `r` has a numeric `VAL`
    /// reading (i.e. `Event::value()` is `Some`).
    val_present: Vec<u8>,
    /// Subset of `val_present`: rows whose *first* `VAL` field is a
    /// `Value::Float` — those fields are omitted from the sparse columns
    /// and reconstructed from the typed `vals` column on materialization.
    val_float: Vec<u8>,
    /// Packed little-endian `f64`, one per `val_present` row, in row order.
    vals: Vec<u8>,
    /// Per-row field count, uvarint per row.
    nfields: Vec<u8>,
    /// Per-row key list: field-key dictionary indices in field order,
    /// row-major (`sum(nfields)` uvarints) — this is what preserves exact
    /// field order and duplicate keys across the columnar split.
    keys: Vec<u8>,
    /// Sparse per-key value columns: `uvarint n_keys`, then per key
    /// `uvarint key_ix, uvarint n_entries, uvarint byte_len, entries…`
    /// where each entry is `tag + payload` in row order.
    sparse: Vec<u8>,
}

impl ColData {
    fn total_bytes(&self) -> usize {
        self.ts.len()
            + self.seqs.len()
            + self.levels.len()
            + self.host_ix.len()
            + self.prog_ix.len()
            + self.type_ix.len()
            + self.val_present.len()
            + self.val_float.len()
            + self.vals.len()
            + self.nfields.len()
            + self.keys.len()
            + self.sparse.len()
    }
}

/// Test a row bit in a `val_present`/`val_float` style bitmap.
fn bitmap_get(bits: &[u8], row: usize) -> bool {
    bits.get(row / 8)
        .is_some_and(|b| b & (1u8 << (row % 8)) != 0)
}

/// The string dictionary of one [`Segment::build`]: every distinct string
/// of the batch — identifiers and string values alike — gets one slot,
/// found through an index of `&str`s borrowed from the batch.  Nothing
/// outlives the build: payload strings never reach the leaking interner.
#[derive(Default)]
struct DictBuilder<'a> {
    slots: HashMap<&'a str, u64>,
    strings: Vec<String>,
}

impl<'a> DictBuilder<'a> {
    fn slot(&mut self, s: &'a str) -> u64 {
        let strings = &mut self.strings;
        *self.slots.entry(s).or_insert_with(|| {
            strings.push(s.to_string());
            strings.len() as u64 - 1
        })
    }
}

/// Append one field value as `tag + payload`; `str_slot` assigns a
/// [`Value::Str`] its dictionary slot.
fn put_value<'a>(data: &mut Vec<u8>, v: &'a Value, str_slot: impl FnOnce(&'a str) -> u64) {
    match v {
        Value::UInt(u) => {
            data.push(TAG_UINT);
            put_uvarint(data, *u);
        }
        Value::Int(s) => {
            data.push(TAG_INT);
            put_ivarint(data, *s);
        }
        Value::Float(f) => {
            data.push(TAG_FLOAT);
            data.extend_from_slice(&f.to_le_bytes());
        }
        Value::Bool(b) => {
            data.push(TAG_BOOL);
            data.push(*b as u8);
        }
        Value::Str(s) => {
            data.push(TAG_STR);
            put_uvarint(data, str_slot(s));
        }
    }
}

impl Segment {
    /// Freeze a batch of `(sequence, event)` pairs, **already sorted** by
    /// `(timestamp, sequence)`, into a segment.  Panics on an empty batch —
    /// the store never seals an empty memtable.
    ///
    /// Generic over `Borrow<Event>`: the seal path hands the memtable's
    /// shared (`Arc<Event>`) slice in without copying any event, while
    /// compaction and retention rewrites pass owned decoded events.
    pub fn build<B: std::borrow::Borrow<Event>>(id: u64, sorted: &[(u64, B)]) -> Segment {
        let (Some((_, first)), Some((_, last))) = (sorted.first(), sorted.last()) else {
            panic!("segments are never empty");
        };
        let (min_ts, max_ts) = (first.borrow().timestamp, last.borrow().timestamp);
        let mut dict = DictBuilder::default();
        let mut cols = ColData::default();
        let nrows = sorted.len();
        cols.val_present = vec![0u8; nrows.div_ceil(8)];
        cols.val_float = vec![0u8; nrows.div_ceil(8)];
        // Per-key sparse columns (entry count, entries) accumulate out of
        // line and are stitched into the `sparse` region after the row
        // loop; a segment has a handful of keys, and BTreeMap keeps the
        // key order deterministic.
        let mut sparse_cols: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
        // Rows per `(host slot, type slot)`: the whole catalog, counted
        // without touching a string.
        let mut series_rows: HashMap<(u64, u64), usize> = HashMap::new();
        let mut prev_ts = 0u64;
        let mut prev_delta = 0u64;
        let mut prev_seq = 0u64;
        let mut min_seq = u64::MAX;
        let mut max_seq = 0u64;
        let mut max_level = 0u8;
        for (r, (seq, e)) in sorted.iter().enumerate() {
            let e = e.borrow();
            let ts = e.timestamp.as_micros();
            match r {
                0 => put_uvarint(&mut cols.ts, ts),
                1 => {
                    let delta = ts.wrapping_sub(prev_ts);
                    put_uvarint(&mut cols.ts, delta);
                    prev_delta = delta;
                }
                _ => {
                    let delta = ts.wrapping_sub(prev_ts);
                    put_ivarint(&mut cols.ts, delta.wrapping_sub(prev_delta) as i64);
                    prev_delta = delta;
                }
            }
            prev_ts = ts;
            put_ivarint(&mut cols.seqs, seq.wrapping_sub(prev_seq) as i64);
            prev_seq = *seq;
            min_seq = min_seq.min(*seq);
            max_seq = max_seq.max(*seq);
            cols.levels.push(binary::level_code(e.level));
            max_level = max_level.max(e.level.severity());
            let host_ix = dict.slot(&e.host);
            put_uvarint(&mut cols.host_ix, host_ix);
            put_uvarint(&mut cols.prog_ix, dict.slot(&e.program));
            let type_ix = dict.slot(&e.event_type);
            put_uvarint(&mut cols.type_ix, type_ix);
            *series_rows.entry((host_ix, type_ix)).or_insert(0) += 1;
            if let Some(v) = e.value() {
                cols.val_present[r / 8] |= 1u8 << (r % 8);
                cols.vals.extend_from_slice(&v.to_le_bytes());
            }
            put_uvarint(&mut cols.nfields, e.fields.len() as u64);
            let mut saw_val = false;
            for (k, v) in &e.fields {
                let key_ix = dict.slot(k);
                put_uvarint(&mut cols.keys, key_ix);
                if !saw_val && k == jamm_ulm::keys::VALUE {
                    saw_val = true;
                    if matches!(v, Value::Float(_)) {
                        // The typed `vals` column already holds exactly this
                        // float (it is the first `VAL` field, which is what
                        // `Event::value()` reads); don't store it twice.
                        cols.val_float[r / 8] |= 1u8 << (r % 8);
                        continue;
                    }
                }
                let (count, data) = sparse_cols.entry(key_ix).or_default();
                *count += 1;
                // A string value shares the dictionary with the
                // identifiers (a `PEER=host` field costs one varint).
                put_value(data, v, |s| dict.slot(s));
            }
        }
        put_uvarint(&mut cols.sparse, sparse_cols.len() as u64);
        for (key_ix, (count, data)) in &sparse_cols {
            put_uvarint(&mut cols.sparse, *key_ix);
            put_uvarint(&mut cols.sparse, *count);
            put_uvarint(&mut cols.sparse, data.len() as u64);
            cols.sparse.extend_from_slice(data);
        }

        // The string-keyed catalog, once per segment rather than per row.
        let dict = dict.strings;
        let mut hosts: BTreeMap<String, usize> = BTreeMap::new();
        let mut event_types: BTreeMap<String, usize> = BTreeMap::new();
        let mut series: BTreeMap<(String, String), usize> = BTreeMap::new();
        for ((host_ix, type_ix), n) in series_rows {
            let (host, ty) = (&dict[host_ix as usize], &dict[type_ix as usize]);
            *hosts.entry(host.clone()).or_insert(0) += n;
            *event_types.entry(ty.clone()).or_insert(0) += n;
            series.insert((host.clone(), ty.clone()), n);
        }

        Segment {
            catalog: SegmentCatalog {
                id,
                event_count: sorted.len(),
                min_ts,
                max_ts,
                hosts,
                event_types,
                series,
                max_level,
            },
            min_seq,
            max_seq,
            dict,
            cols,
            groups: OnceLock::new(),
        }
    }

    /// The segment's pruning catalog.
    pub fn catalog(&self) -> &SegmentCatalog {
        &self.catalog
    }

    /// Segment identifier.
    pub fn id(&self) -> u64 {
        self.catalog.id
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.catalog.event_count
    }

    /// Segments are never empty, so this is always false; present for API
    /// symmetry.
    pub fn is_empty(&self) -> bool {
        self.catalog.event_count == 0
    }

    /// Smallest sequence number stored in the segment.
    pub fn min_seq(&self) -> u64 {
        self.min_seq
    }

    /// Largest sequence number stored in the segment.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// Size in bytes of the compressed event stream (excluding dictionary
    /// and catalog).
    pub fn data_bytes(&self) -> usize {
        self.cols.total_bytes()
    }

    /// Serialize the segment to its file form: the magic, the catalog, the
    /// dictionary and each column region behind its length, then a
    /// checksum of everything after the magic.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Magic, body, checksum of the body: one buffer.
        let mut body = Vec::with_capacity(self.data_bytes() + 256);
        body.extend_from_slice(SEGMENT_MAGIC);
        put_uvarint(&mut body, self.catalog.id);
        put_uvarint(&mut body, self.min_seq);
        put_uvarint(&mut body, self.max_seq);
        put_uvarint(&mut body, self.catalog.event_count as u64);
        put_uvarint(&mut body, self.catalog.min_ts.as_micros());
        put_uvarint(&mut body, self.catalog.max_ts.as_micros());
        body.push(self.catalog.max_level);
        put_uvarint(&mut body, self.catalog.hosts.len() as u64);
        for (h, n) in &self.catalog.hosts {
            put_str(&mut body, h);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.catalog.event_types.len() as u64);
        for (t, n) in &self.catalog.event_types {
            put_str(&mut body, t);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.catalog.series.len() as u64);
        for ((h, t), n) in &self.catalog.series {
            put_str(&mut body, h);
            put_str(&mut body, t);
            put_uvarint(&mut body, *n as u64);
        }
        put_uvarint(&mut body, self.dict.len() as u64);
        for s in &self.dict {
            put_str(&mut body, s);
        }
        let cols = &self.cols;
        for region in [
            &cols.ts,
            &cols.seqs,
            &cols.levels,
            &cols.host_ix,
            &cols.prog_ix,
            &cols.type_ix,
            &cols.val_present,
            &cols.val_float,
            &cols.vals,
            &cols.nfields,
            &cols.keys,
            &cols.sparse,
        ] {
            put_uvarint(&mut body, region.len() as u64);
            body.extend_from_slice(region);
        }
        let checksum = fnv64(&body[4..]);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    /// Deserialize a segment from its file form, verifying magic and
    /// checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Segment> {
        let too_short = TsdbError::Corrupt("bad segment magic");
        let Some((magic, rest)) = bytes.split_first_chunk::<4>() else {
            return Err(too_short);
        };
        let Some((body, stored)) = rest.split_last_chunk::<8>() else {
            return Err(too_short);
        };
        if magic != SEGMENT_MAGIC {
            return Err(TsdbError::Corrupt(if magic.starts_with(b"JSG") {
                // A generation this build does not read, older or newer:
                // refuse with a version error, not a corruption error, so
                // operators see "use a build that reads it" instead of
                // "restore from backup".
                UNSUPPORTED_VERSION
            } else {
                "bad segment magic"
            }));
        }
        if fnv64(body) != u64::from_le_bytes(*stored) {
            return Err(TsdbError::Corrupt("segment checksum mismatch"));
        }
        let mut pos = 0usize;
        let id = get_uvarint(body, &mut pos)?;
        let min_seq = get_uvarint(body, &mut pos)?;
        let max_seq = get_uvarint(body, &mut pos)?;
        let event_count = get_uvarint(body, &mut pos)? as usize;
        let min_ts = Timestamp::from_micros(get_uvarint(body, &mut pos)?);
        let max_ts = Timestamp::from_micros(get_uvarint(body, &mut pos)?);
        let max_level = *body
            .get(pos)
            .ok_or(TsdbError::Corrupt("truncated max level"))?;
        pos += 1;
        let mut hosts = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let h = get_str(body, &mut pos)?;
            hosts.insert(h, get_uvarint(body, &mut pos)? as usize);
        }
        let mut event_types = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let t = get_str(body, &mut pos)?;
            event_types.insert(t, get_uvarint(body, &mut pos)? as usize);
        }
        let mut series = BTreeMap::new();
        for _ in 0..get_uvarint(body, &mut pos)? {
            let h = get_str(body, &mut pos)?;
            let t = get_str(body, &mut pos)?;
            series.insert((h, t), get_uvarint(body, &mut pos)? as usize);
        }
        let dict_len = get_uvarint(body, &mut pos)? as usize;
        let mut dict = Vec::with_capacity(dict_len.min(1 << 16));
        for _ in 0..dict_len {
            dict.push(get_str(body, &mut pos)?);
        }
        let mut region = || -> Result<Vec<u8>> {
            let len = get_uvarint(body, &mut pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|end| *end <= body.len())
                .ok_or(TsdbError::Corrupt("truncated column region"))?;
            let bytes = body[pos..end].to_vec();
            pos = end;
            Ok(bytes)
        };
        let cols = ColData {
            ts: region()?,
            seqs: region()?,
            levels: region()?,
            host_ix: region()?,
            prog_ix: region()?,
            type_ix: region()?,
            val_present: region()?,
            val_float: region()?,
            vals: region()?,
            nfields: region()?,
            keys: region()?,
            sparse: region()?,
        };
        if pos != body.len() {
            return Err(TsdbError::Corrupt("segment data length mismatch"));
        }
        Ok(Segment {
            catalog: SegmentCatalog {
                id,
                event_count,
                min_ts,
                max_ts,
                hosts,
                event_types,
                series,
                max_level,
            },
            min_seq,
            max_seq,
            dict,
            cols,
            groups: OnceLock::new(),
        })
    }

    /// Write the segment to `dir` as `seg-<id>.jseg`, atomically (write to
    /// a temp name, fsync, rename) so a crash never leaves a half-written
    /// segment with a valid name.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        let path = dir.join(Segment::file_name(self.catalog.id));
        let tmp = dir.join(format!("seg-{:08}.tmp", self.catalog.id));
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp).map_err(TsdbError::from)?;
            f.write_all(&self.to_bytes()).map_err(TsdbError::from)?;
            f.sync_all().map_err(TsdbError::from)?;
        }
        std::fs::rename(&tmp, &path).map_err(TsdbError::from)?;
        Ok(path)
    }

    /// Load a segment file.
    pub fn read_from_file(path: &Path) -> Result<Segment> {
        let bytes = std::fs::read(path).map_err(TsdbError::from)?;
        Segment::from_bytes(&bytes)
    }

    /// Canonical file name of a segment id.
    pub fn file_name(id: u64) -> String {
        format!("seg-{id:08}.{SEGMENT_EXT}")
    }

    /// A cursor decoding the segment's events one at a time.
    pub fn cursor(self: &std::sync::Arc<Self>) -> SegmentCursor {
        SegmentCursor {
            scan: self.col_scan(),
            everything: jamm_core::query::Predicate::True.compile(),
        }
    }

    /// A batched scan over this segment.
    pub(crate) fn col_scan(self: &std::sync::Arc<Self>) -> ColScan {
        ColScan::new(std::sync::Arc::clone(self))
    }

    /// The row-group index, built now if no scan has built it yet; `None`
    /// for a segment too large to index.  A corrupt region fails the build
    /// with the error a sequential walk would have met further on.
    fn group_index(&self) -> Result<Option<&GroupIndex>> {
        match self.groups.get_or_init(|| GroupIndex::build(self)) {
            Ok(index) => Ok(index.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }

    /// The row-group index if a scan has already built it.
    fn built_group_index(&self) -> Option<&GroupIndex> {
        self.groups.get()?.as_ref().ok()?.as_ref()
    }
}

/// Streaming decoder over one segment's compressed data.  Yields events in
/// `(timestamp, sequence)` order without materializing the segment: a
/// [`ColScan`] under the plan that selects every row, so compaction and
/// retention rewrites run the loop plan scans run.
#[derive(Debug)]
pub struct SegmentCursor {
    scan: ColScan,
    everything: Plan,
}

impl SegmentCursor {
    /// Decode the next event; `None` at the end of the segment.  A decode
    /// error (a segment image that passed its checksum but is not a valid
    /// stream) surfaces as `Some(Err)`.
    pub fn next_event(&mut self) -> Option<Result<(u64, Event)>> {
        self.scan.next_match(&self.everything, ColMode::Exact)
    }
}

/// Delta-of-delta timestamp decoding state.
#[derive(Debug, Default, Clone, Copy)]
struct TsDecoder {
    prev_ts: u64,
    prev_delta: u64,
}

impl TsDecoder {
    /// Decode the timestamp of row `row` at `*pos`, and check the
    /// segment's first stamp against its catalog: a segment starting
    /// before its `min_ts` would be opened too late by the scan's merge
    /// and answer out of order.
    #[inline]
    fn next(&mut self, seg: &Segment, row: usize, data: &[u8], pos: &mut usize) -> Result<u64> {
        let ts = match row {
            0 => {
                let first = get_uvarint(data, pos)?;
                if first < seg.catalog.min_ts.as_micros() {
                    return Err(TsdbError::Corrupt(
                        "first timestamp precedes catalog min_ts",
                    ));
                }
                first
            }
            1 => {
                self.prev_delta = get_uvarint(data, pos)?;
                self.prev_ts.wrapping_add(self.prev_delta)
            }
            _ => {
                let dod = get_ivarint(data, pos)?;
                self.prev_delta = self.prev_delta.wrapping_add(dod as u64);
                self.prev_ts.wrapping_add(self.prev_delta)
            }
        };
        self.prev_ts = ts;
        Ok(ts)
    }
}

/// Read one `tag + payload` field value at `*pos`; a string value is the
/// name `str_at` gives its dictionary slot.
fn read_value(
    data: &[u8],
    pos: &mut usize,
    str_at: impl FnOnce(u64) -> Result<Name>,
) -> Result<Value> {
    let tag = *data.get(*pos).ok_or(TsdbError::Corrupt("truncated tag"))?;
    *pos += 1;
    Ok(match tag {
        TAG_UINT => Value::UInt(get_uvarint(data, pos)?),
        TAG_INT => Value::Int(get_ivarint(data, pos)?),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(get_bytes::<8>(data, pos)?)),
        TAG_BOOL => {
            let b = *data.get(*pos).ok_or(TsdbError::Corrupt("truncated bool"))?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        TAG_STR => Value::Str(str_at(get_uvarint(data, pos)?)?),
        _ => return Err(TsdbError::Corrupt("unknown value tag")),
    })
}

/// Skip one `tag + payload` field value — the late-materialization fast
/// path for rows the filter rejected: no dictionary lookup, no `String`,
/// just position arithmetic.
fn skip_value(data: &[u8], pos: &mut usize) -> Result<()> {
    let tag = *data.get(*pos).ok_or(TsdbError::Corrupt("truncated tag"))?;
    *pos += 1;
    match tag {
        TAG_UINT | TAG_STR | TAG_INT => {
            get_uvarint(data, pos)?;
        }
        TAG_FLOAT => {
            get_bytes::<8>(data, pos)?;
        }
        TAG_BOOL => {
            if *pos >= data.len() {
                return Err(TsdbError::Corrupt("truncated bool"));
            }
            *pos += 1;
        }
        _ => return Err(TsdbError::Corrupt("unknown value tag")),
    }
    Ok(())
}

/// The dictionary string in slot `ix`.
fn dict_at(seg: &Segment, ix: u64) -> Result<&str> {
    usize::try_from(ix)
        .ok()
        .and_then(|ix| seg.dict.get(ix))
        .map(String::as_str)
        .ok_or(TsdbError::Corrupt("dictionary index out of range"))
}

/// The name of dictionary slot `ix`, resolved through the vocabulary (by
/// `resolve`: [`vocab::resolve`] for a program or key,
/// [`vocab::resolve_value`] for a string value) the first time this scan
/// uses the slot and remembered in `names` after.
fn name_at(
    names: &mut [Option<Name>],
    seg: &Segment,
    ix: u64,
    resolve: fn(&str) -> Name,
) -> Result<Name> {
    let slot = usize::try_from(ix)
        .ok()
        .and_then(|ix| names.get_mut(ix))
        .ok_or(TsdbError::Corrupt("dictionary index out of range"))?;
    if let Some(name) = slot {
        return Ok(name.clone());
    }
    let name = resolve(dict_at(seg, ix)?);
    Ok(slot.insert(name).clone())
}

// ---------------------------------------------------------------------------
// Batched columnar scan
// ---------------------------------------------------------------------------

/// How a [`ColScan`] filters each decoded batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColMode {
    /// The plan's batch evaluation is exact ([`Plan::batch_definite`]):
    /// selected rows *are* the matches, and the scan's merge loop skips
    /// the row-at-a-time re-check for rows from this source.
    Exact,
    /// The plan carries attribute leaves the columns can't decide: batch
    /// evaluation selects a superset, and survivors are re-checked
    /// row-wise after materialization.
    Superset,
    /// The plan is stateful: batch-select by the pushdown [`Facts`] only,
    /// so *every* facts-admissible row reaches the row evaluator in merge
    /// order and per-series memory sees exactly the stream the row-
    /// oriented scan would have fed it.
    FactsOnly,
}

impl ColMode {
    /// The mode a scan of `plan` runs in.  Stateful plans must feed *every*
    /// facts-admissible row through the row evaluator in merge order (its
    /// per-series memory updates on evaluation, match or not), so their
    /// batches filter by facts alone.  Stateless plans batch-filter with
    /// the full plan: exactly when every node is column-decidable, as a
    /// superset (re-checked post-merge) otherwise.
    pub(crate) fn of(plan: &Plan) -> ColMode {
        if plan.is_stateful() {
            ColMode::FactsOnly
        } else if plan.batch_definite() {
            ColMode::Exact
        } else {
            ColMode::Superset
        }
    }
}

/// Rows per row group: one [`Selection`] word, the unit a scan passes over
/// and the unit [`GroupIndex`] checkpoints.
const GROUP: usize = 64;

/// Rows per [`ColScan`] decode batch: sixteen groups.
const COL_BATCH: usize = 16 * GROUP;

/// Where the fixed-column decoders stand in their regions, with what delta
/// decoding carries from one row to the next.  Levels and the `VAL`
/// bitmaps are read by row number and need no position.
#[derive(Debug, Clone, Copy, Default)]
struct FixedPos {
    ts: usize,
    ts_state: TsDecoder,
    seqs: usize,
    prev_seq: u64,
    host: usize,
    prog: usize,
    ty: usize,
    /// Byte offset into the packed `vals` column.
    vals: usize,
}

/// Where the field walk stands in the per-row field counts and the key
/// list, and what the scan knows about each dictionary slot a field key
/// can name.
#[derive(Debug)]
struct FieldPos {
    nf: usize,
    keys: usize,
    /// One entry per dictionary slot, indexed by the key list's indices.
    key_slots: Vec<KeySlot>,
    /// Per dictionary slot, its name once a built row has used it as a
    /// program, key or string value: each slot is resolved through the
    /// vocabulary once per scan, and a borrowed name is copied as a
    /// pointer after that.
    names: Vec<Option<Name>>,
}

/// A dictionary slot seen as a field key.
#[derive(Debug, Clone, Copy)]
struct KeySlot {
    /// The slot's string is `VAL`.  Decided by string, per slot: segments
    /// written before the one-dictionary encoder can hold a string twice.
    is_val: bool,
    /// `[pos, end)` of the key's sparse value column still unread; `None`
    /// when the sparse directory has no column for the slot.
    sparse: Option<(usize, usize)>,
}

impl KeySlot {
    /// The position in the sparse region of this key's next value.
    #[inline]
    fn next_value(&mut self) -> Result<&mut usize> {
        match &mut self.sparse {
            None => Err(TsdbError::Corrupt("missing sparse column")),
            Some((pos, end)) if *pos >= *end => Err(TsdbError::Corrupt("sparse column exhausted")),
            Some((pos, _)) => Ok(pos),
        }
    }
}

impl FieldPos {
    /// Flag the dictionary's `VAL` slots and parse the sparse region's key
    /// directory into per-slot column bounds.
    fn init(dict: &[String], cols: &ColData) -> Result<FieldPos> {
        let mut key_slots: Vec<KeySlot> = dict
            .iter()
            .map(|s| KeySlot {
                is_val: s == jamm_ulm::keys::VALUE,
                sparse: None,
            })
            .collect();
        let data: &[u8] = &cols.sparse;
        let mut pos = 0usize;
        let n_keys = get_uvarint(data, &mut pos)?;
        for _ in 0..n_keys {
            let key_ix = get_uvarint(data, &mut pos)?;
            let _n_entries = get_uvarint(data, &mut pos)?;
            let byte_len = get_uvarint(data, &mut pos)?;
            let end = usize::try_from(byte_len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .filter(|end| *end <= data.len())
                .ok_or(TsdbError::Corrupt("truncated sparse column"))?;
            let slot = usize::try_from(key_ix)
                .ok()
                .and_then(|ix| key_slots.get_mut(ix))
                .ok_or(TsdbError::Corrupt("dictionary index out of range"))?;
            slot.sparse = Some((pos, end));
            pos = end;
        }
        Ok(FieldPos {
            nf: 0,
            keys: 0,
            names: vec![None; key_slots.len()],
            key_slots,
        })
    }

    /// Walk segment row `r`, row `i` of `batch`, through the field regions
    /// (the key-list and sparse positions are strictly sequential): build
    /// its event when `keep`, else skip its values — varint skips, no
    /// string touched.
    fn walk(
        &mut self,
        seg: &Segment,
        batch: &Batch,
        r: usize,
        i: usize,
        keep: bool,
    ) -> Result<Option<(u64, Event)>> {
        let cols = &seg.cols;
        let n_fields = get_uvarint(&cols.nfields, &mut self.nf)? as usize;
        let val_is_float = bitmap_get(&cols.val_float, r);
        // Every field takes a byte of the key list, which bounds the
        // allocation a hostile count can ask for.
        let mut fields = Vec::with_capacity(if keep {
            n_fields.min(cols.keys.len().saturating_sub(self.keys))
        } else {
            0
        });
        let mut saw_val = false;
        for _ in 0..n_fields {
            let key_ix = get_uvarint(&cols.keys, &mut self.keys)?;
            let slot = usize::try_from(key_ix)
                .ok()
                .and_then(|ix| self.key_slots.get_mut(ix))
                .ok_or(TsdbError::Corrupt("dictionary index out of range"))?;
            if slot.is_val && !saw_val {
                saw_val = true;
                if val_is_float {
                    // The row's first `VAL` field lives in the typed
                    // column only.
                    if keep {
                        if batch.present[i / 64] & (1u64 << (i % 64)) == 0 {
                            return Err(TsdbError::Corrupt("float VAL bit without typed value"));
                        }
                        let key = name_at(&mut self.names, seg, key_ix, vocab::resolve)?;
                        fields.push((key, Value::Float(batch.vals[i])));
                    }
                    continue;
                }
            }
            let at = slot.next_value()?;
            if keep {
                let names = &mut self.names;
                let value = read_value(&cols.sparse, at, |ix| {
                    name_at(names, seg, ix, vocab::resolve_value)
                })?;
                fields.push((name_at(names, seg, key_ix, vocab::resolve)?, value));
            } else {
                skip_value(&cols.sparse, at)?;
            }
        }
        if !keep {
            return Ok(None);
        }
        let level_code = cols.levels[r]; // in range: the group's levels were decoded
        let event = Event {
            timestamp: Timestamp::from_micros(batch.ts[i]),
            host: dict_at(seg, batch.hosts[i].into())?.to_owned(),
            program: name_at(&mut self.names, seg, batch.progs[i].into(), vocab::resolve)?,
            level: binary::level_from_code(level_code)
                .map_err(|_| TsdbError::Corrupt("bad level code"))?,
            event_type: dict_at(seg, batch.types[i].into())?.to_owned(),
            fields,
        };
        Ok(Some((batch.seqs[i], event)))
    }
}

/// Decode dictionary indices from an index column into `out`.  The batch
/// layer compares ids as `u32`, so one that does not fit cannot name a slot.
fn fill_ids(out: &mut [u32], data: &[u8], pos: &mut usize) -> Result<()> {
    let mut all_bits = 0u64;
    for id in out {
        let ix = get_uvarint(data, pos)?;
        all_bits |= ix;
        *id = ix as u32;
    }
    if all_bits > u64::from(u32::MAX) {
        return Err(TsdbError::Corrupt("dictionary index out of range"));
    }
    Ok(())
}

/// One batch's fixed columns, by row within the batch (reused).  Pass 1
/// fills the columns the plan reads for every row, pass 2 the others for
/// the groups pass 1 selected; rows of a skipped group keep stale values
/// nothing reads.
#[derive(Debug, Default)]
struct Batch {
    ts: Vec<u64>,
    seqs: Vec<u64>,
    /// Severity ranks.
    levels: Vec<u8>,
    hosts: Vec<u32>,
    progs: Vec<u32>,
    types: Vec<u32>,
    vals: Vec<f64>,
    present: Vec<u64>,
}

impl Batch {
    /// Size every column for `n` rows.
    fn resize(&mut self, n: usize) {
        self.ts.resize(n, 0);
        self.seqs.resize(n, 0);
        self.levels.resize(n, 0);
        self.hosts.resize(n, 0);
        self.progs.resize(n, 0);
        self.types.resize(n, 0);
        self.vals.resize(n, 0.0);
        self.present.resize(n.div_ceil(64), 0);
    }

    /// Decode segment rows `rows` of the columns in `read` into batch rows
    /// from `at` (a group boundary), one tight loop per region.
    fn decode(
        &mut self,
        seg: &Segment,
        st: &mut FixedPos,
        read: Columns,
        rows: Range<usize>,
        at: usize,
    ) -> Result<()> {
        let cols = &seg.cols;
        let out = at..at + rows.len();
        if read.contains(Columns::TS) {
            for (r, ts) in rows.clone().zip(&mut self.ts[out.clone()]) {
                *ts = st.ts_state.next(seg, r, &cols.ts, &mut st.ts)?;
            }
        }
        if read.contains(Columns::LEVELS) {
            let codes = cols
                .levels
                .get(rows.clone())
                .ok_or(TsdbError::Corrupt("truncated level column"))?;
            for (code, rank) in codes.iter().zip(&mut self.levels[out.clone()]) {
                let level = binary::level_from_code(*code)
                    .map_err(|_| TsdbError::Corrupt("bad level code"))?;
                *rank = level.severity();
            }
        }
        if read.contains(Columns::HOSTS) {
            fill_ids(&mut self.hosts[out.clone()], &cols.host_ix, &mut st.host)?;
        }
        if read.contains(Columns::TYPES) {
            fill_ids(&mut self.types[out.clone()], &cols.type_ix, &mut st.ty)?;
        }
        if read.contains(Columns::VALUES) {
            self.present[at / 64..out.end.div_ceil(64)].fill(0);
            for (i, r) in out.zip(rows) {
                self.vals[i] = if bitmap_get(&cols.val_present, r) {
                    self.present[i / 64] |= 1u64 << (i % 64);
                    f64::from_le_bytes(get_bytes::<8>(&cols.vals, &mut st.vals)?)
                } else {
                    0.0
                };
            }
        }
        Ok(())
    }

    /// Decode the two columns only a built event needs, sequence numbers
    /// and programs, like [`Batch::decode`].
    fn decode_seqs_and_programs(
        &mut self,
        seg: &Segment,
        st: &mut FixedPos,
        rows: Range<usize>,
        at: usize,
    ) -> Result<()> {
        let cols = &seg.cols;
        let out = at..at + rows.len();
        for seq in &mut self.seqs[out.clone()] {
            let dseq = get_ivarint(&cols.seqs, &mut st.seqs)?;
            st.prev_seq = st.prev_seq.wrapping_add(dseq as u64);
            *seq = st.prev_seq;
        }
        fill_ids(&mut self.progs[out], &cols.prog_ix, &mut st.prog)
    }

    /// The batch as [`Plan::eval_batch`] sees it: the columns in `read`,
    /// every other one empty.
    fn view<'a>(&'a self, read: Columns, dict: &'a [String]) -> ColumnBatch<'a> {
        fn keep<T>(read: Columns, col: Columns, data: &[T]) -> &[T] {
            if read.contains(col) {
                data
            } else {
                &[]
            }
        }
        ColumnBatch {
            rows: self.ts.len(),
            ts_micros: keep(read, Columns::TS, &self.ts),
            host_ids: keep(read, Columns::HOSTS, &self.hosts),
            type_ids: keep(read, Columns::TYPES, &self.types),
            levels: keep(read, Columns::LEVELS, &self.levels),
            values: keep(read, Columns::VALUES, &self.vals),
            val_present: keep(read, Columns::VALUES, &self.present),
            dict,
        }
    }
}

/// The decoder state at the first row of one row group, its offsets
/// narrowed to `u32` (an index is only built when every region fits).
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    ts_state: TsDecoder,
    prev_seq: u64,
    ts: u32,
    seqs: u32,
    host: u32,
    prog: u32,
    ty: u32,
    vals: u32,
    nf: u32,
    keys: u32,
}

/// A segment's row-group index: every region's decoder state at the start
/// of each 64-row group, so a scan can pass over the groups its plan
/// rejects and resume at the next one it selects.  56 bytes a group plus 4
/// per sparse column — about one byte a row for e21-shaped events.  Built
/// in memory by the first scan that skips a group and never persisted.
#[derive(Debug)]
struct GroupIndex {
    groups: Vec<Checkpoint>,
    /// The dictionary slots that have a sparse value column, in slot order.
    sparse_slots: Vec<usize>,
    /// Each group's position in each of those columns, `sparse_slots.len()`
    /// entries a group.
    sparse: Vec<u32>,
}

impl GroupIndex {
    /// Walk the whole segment once with the scan's own decoders — every
    /// column, every field skipped — checkpointing each group's start.
    /// `None` when a region is too large for `u32` offsets; such a segment
    /// scans without skipping.
    fn build(seg: &Segment) -> Result<Option<GroupIndex>> {
        let cols = &seg.cols;
        if u32::try_from(cols.total_bytes()).is_err() {
            return Ok(None);
        }
        let mut fixed = FixedPos::default();
        let mut fields = FieldPos::init(&seg.dict, cols)?;
        let sparse_slots: Vec<usize> = (0..fields.key_slots.len())
            .filter(|slot| fields.key_slots[*slot].sparse.is_some())
            .collect();
        // Every row takes a byte of the level column, which bounds the
        // allocation a hostile row count can ask for.
        let groups = seg.len().min(cols.levels.len()).div_ceil(GROUP);
        let mut index = GroupIndex {
            groups: Vec::with_capacity(groups),
            sparse: Vec::with_capacity(groups.saturating_mul(sparse_slots.len())),
            sparse_slots,
        };
        let mut batch = Batch::default();
        batch.resize(GROUP);
        for start in (0..seg.len()).step_by(GROUP) {
            index.push(&fixed, &fields);
            let rows = start..(start + GROUP).min(seg.len());
            batch.decode(seg, &mut fixed, Columns::ALL, rows.clone(), 0)?;
            batch.decode_seqs_and_programs(seg, &mut fixed, rows.clone(), 0)?;
            for (i, r) in rows.enumerate() {
                fields.walk(seg, &batch, r, i, false)?;
            }
        }
        Ok(Some(index))
    }

    /// Checkpoint the state at the start of the next group.
    fn push(&mut self, fixed: &FixedPos, fields: &FieldPos) {
        // Lossless: `build` checked that every region fits in `u32`.
        let narrow = |pos: usize| pos as u32;
        self.groups.push(Checkpoint {
            ts_state: fixed.ts_state,
            prev_seq: fixed.prev_seq,
            ts: narrow(fixed.ts),
            seqs: narrow(fixed.seqs),
            host: narrow(fixed.host),
            prog: narrow(fixed.prog),
            ty: narrow(fixed.ty),
            vals: narrow(fixed.vals),
            nf: narrow(fields.nf),
            keys: narrow(fields.keys),
        });
        for slot in &self.sparse_slots {
            let pos = fields.key_slots[*slot].sparse.map_or(0, |(pos, _)| pos);
            self.sparse.push(narrow(pos));
        }
    }

    /// Put the fixed-column decoders back where they stood at the start of
    /// group `g`.
    fn restore_fixed(&self, g: usize, fixed: &mut FixedPos) {
        let c = &self.groups[g];
        *fixed = FixedPos {
            ts: c.ts as usize,
            ts_state: c.ts_state,
            seqs: c.seqs as usize,
            prev_seq: c.prev_seq,
            host: c.host as usize,
            prog: c.prog as usize,
            ty: c.ty as usize,
            vals: c.vals as usize,
        };
    }

    /// Put the fixed-column decoders and the field walk back where they
    /// stood at the start of group `g`.
    fn restore(&self, g: usize, fixed: &mut FixedPos, fields: &mut FieldPos) {
        self.restore_fixed(g, fixed);
        let c = &self.groups[g];
        (fields.nf, fields.keys) = (c.nf as usize, c.keys as usize);
        let saved = &self.sparse[g * self.sparse_slots.len()..];
        for (slot, pos) in self.sparse_slots.iter().zip(saved) {
            if let Some((at, _)) = &mut fields.key_slots[*slot].sparse {
                *at = *pos as usize;
            }
        }
    }

    /// The first group from `start` on whose last row is stamped at or after
    /// `from`: every group before it ends before that bound.  The last
    /// group is never passed over.
    fn first_reaching(&self, start: usize, from: u64) -> usize {
        // A group's last stamp is what the next checkpoint carries forward.
        let later = self.groups.get(start + 1..).unwrap_or(&[]);
        start + later.partition_point(|next| next.ts_state.prev_ts < from)
    }
}

/// The scan-optimized — and only — reader of a segment.  Each
/// 1,024-row batch is read in two passes:
///
/// 1. decode just the columns the plan's batch evaluation reads
///    ([`Plan::columns`]), one tight loop per region, and evaluate the
///    plan once over them with [`Plan::eval_batch`];
/// 2. visit only the 64-row groups holding a selected row: decode their
///    other fixed columns and walk their rows through the field regions,
///    materializing a selected row only when the caller asks for the next
///    match.
///
/// Resuming after a skipped group takes the segment's row-group index,
/// built in memory by the first scan that skips one; when every group is
/// selected, pass 2 is one sequential decode and no index is built.  A
/// plan's lower time bound also lets pass 1 jump over the groups that end
/// before it once the index exists.
#[derive(Debug)]
pub struct ColScan {
    seg: std::sync::Arc<Segment>,
    /// First segment row of the current batch.
    base: usize,
    /// Rows in the current batch.
    rows: usize,
    /// Pass 1's decoders: the plan's columns, over every batch.
    lead: FixedPos,
    /// Pass 2's decoders: the other fixed columns, over selected groups.
    trail: FixedPos,
    /// Pass 2's field walk, parsed on the first batch.
    fields: Option<FieldPos>,
    /// Segment row pass 2 stands at: behind the group it enters only when
    /// groups were skipped.
    trail_row: usize,
    /// The columns pass 1 decodes.
    read: Columns,
    batch: Batch,
    sel: Selection,
    scratch: BatchScratch,
    /// Rows of the current batch already walked.
    walked: usize,
    /// Rows of the current batch pass 2 has decoded or skipped.
    ready: usize,
    groups_decoded: u64,
    groups_skipped: u64,
    /// Where the group counts go when the scan is dropped: plan scans
    /// report, the all-rows cursor does not.
    stats: Option<std::sync::Arc<TsdbStats>>,
    done: bool,
}

impl ColScan {
    fn new(seg: std::sync::Arc<Segment>) -> ColScan {
        ColScan {
            seg,
            base: 0,
            rows: 0,
            lead: FixedPos::default(),
            trail: FixedPos::default(),
            fields: None,
            trail_row: 0,
            read: Columns::NONE,
            batch: Batch::default(),
            sel: Selection::new(),
            scratch: BatchScratch::new(),
            walked: 0,
            ready: 0,
            groups_decoded: 0,
            groups_skipped: 0,
            stats: None,
            done: false,
        }
    }

    /// Add this scan's row-group counts to `stats` when it is dropped —
    /// once per segment scan, however it ends.
    pub(crate) fn reporting_to(mut self, stats: &std::sync::Arc<TsdbStats>) -> ColScan {
        self.stats = Some(std::sync::Arc::clone(stats));
        self
    }

    /// The next row surviving the batch filter, in `(timestamp, sequence)`
    /// order; `None` when the segment (or the plan's time window) is
    /// exhausted.  A decode error ends the scan; one in a region of a
    /// group this scan skips surfaces at the first skip, from the index
    /// build, rather than where a sequential walk would have met it.
    pub fn next_match(&mut self, plan: &Plan, mode: ColMode) -> Option<Result<(u64, Event)>> {
        if self.done {
            return None;
        }
        let next = self.next_row(plan, mode).transpose();
        self.done = !matches!(next, Some(Ok(_)));
        next
    }

    /// Walk to the next selected row, decoding batches as they run out.
    fn next_row(&mut self, plan: &Plan, mode: ColMode) -> Result<Option<(u64, Event)>> {
        loop {
            if let Some(hit) = self.walk_batch()? {
                return Ok(Some(hit));
            }
            if self.base + self.rows >= self.seg.len() || !self.fill_batch(plan, mode)? {
                return Ok(None);
            }
        }
    }

    /// Pass 1: decode the plan's columns of the next batch and filter it.
    /// `false` when the batch starts at or past the plan's exclusive upper
    /// time bound: a sorted segment has nothing left to offer then.
    fn fill_batch(&mut self, plan: &Plan, mode: ColMode) -> Result<bool> {
        let seg = &*self.seg;
        if self.fields.is_none() {
            self.fields = Some(FieldPos::init(&seg.dict, &seg.cols)?);
        }
        let facts = plan.facts();
        let mut base = self.base + self.rows;
        if let (Some(from), Some(index)) = (facts.from_micros, seg.built_group_index()) {
            let (here, first) = (base / GROUP, index.first_reaching(base / GROUP, from));
            if first > here {
                index.restore_fixed(first, &mut self.lead);
                self.groups_skipped += (first - here) as u64;
                base = first * GROUP;
            }
        }
        let n = (seg.len() - base).min(COL_BATCH);
        self.read = match mode {
            ColMode::Exact | ColMode::Superset => plan.columns(),
            ColMode::FactsOnly => facts.columns(),
        };
        self.batch.resize(n);
        self.batch
            .decode(seg, &mut self.lead, self.read, base..base + n, 0)?;
        (self.base, self.rows, self.walked, self.ready) = (base, n, 0, 0);

        let past_end = |to| self.read.contains(Columns::TS) && self.batch.ts[0] >= to;
        if facts.to_micros.is_some_and(past_end) {
            return Ok(false);
        }
        let batch = self.batch.view(self.read, &seg.dict);
        match mode {
            ColMode::Exact | ColMode::Superset => {
                plan.eval_batch(&batch, &mut self.sel, &mut self.scratch);
            }
            ColMode::FactsOnly => {
                facts.eval_batch(&batch, &mut self.sel, &mut self.scratch);
            }
        }
        Ok(true)
    }

    /// Pass 2 and late materialization: walk the current batch's rows in
    /// order up to and including the next selected one, and build its
    /// `Event`; rejected rows pay varint skips.  A group with nothing
    /// selected is passed over whole, and entering a group decodes the
    /// other fixed columns of it and of the selected groups right after
    /// it.  `None` when the batch is used up.
    fn walk_batch(&mut self) -> Result<Option<(u64, Event)>> {
        let seg = &*self.seg;
        let Some(fields) = &mut self.fields else {
            return Ok(None);
        };
        while self.walked < self.rows {
            let i = self.walked;
            if i == self.ready {
                if self.sel.word(i / GROUP) == 0 && seg.group_index()?.is_some() {
                    self.walked = (i + GROUP).min(self.rows);
                    self.ready = self.walked;
                    self.groups_skipped += 1;
                    continue;
                }
                let mut end = (i + GROUP).min(self.rows);
                while end < self.rows && self.sel.word(end / GROUP) != 0 {
                    end = (end + GROUP).min(self.rows);
                }
                let rows = self.base + i..self.base + end;
                if self.trail_row != rows.start {
                    // Only a skip leaves pass 2 behind, and skipping built
                    // the index.
                    if let Some(index) = seg.group_index()? {
                        index.restore(rows.start / GROUP, &mut self.trail, fields);
                    }
                }
                self.batch
                    .decode(seg, &mut self.trail, !self.read, rows.clone(), i)?;
                self.batch
                    .decode_seqs_and_programs(seg, &mut self.trail, rows.clone(), i)?;
                self.groups_decoded += (end - i).div_ceil(GROUP) as u64;
                (self.trail_row, self.ready) = (rows.end, end);
            }
            self.walked += 1;
            let selected = self.sel.contains(i);
            if let Some(hit) = fields.walk(seg, &self.batch, self.base + i, i, selected)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }
}

impl Drop for ColScan {
    fn drop(&mut self) {
        if let Some(stats) = &self.stats {
            stats.count_scan_groups(self.groups_decoded, self.groups_skipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_ulm::Level;
    use std::sync::Arc;

    fn ev(host: &str, ty: &str, t_micros: u64, v: f64) -> Event {
        Event::builder("vmstat", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_micros(t_micros))
            .value(v)
            .field("COUNT", 42u64)
            .field("DELTA", -7i64)
            .field("UP", true)
            .field("PEER", "mems.cairn.net")
            .build()
    }

    fn sorted_batch(n: u64) -> Vec<(u64, Event)> {
        (0..n)
            .map(|i| {
                (
                    i + 1,
                    ev(
                        if i % 3 == 0 { "h1" } else { "h2" },
                        if i % 2 == 0 { "CPU_TOTAL" } else { "MEM_FREE" },
                        1_000_000 + i * 250_000, // regular 250ms period
                        i as f64,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_cursor_round_trip() {
        let batch = sorted_batch(200);
        let seg = Arc::new(Segment::build(9, &batch));
        assert_eq!(seg.len(), 200);
        assert_eq!(seg.min_seq(), 1);
        assert_eq!(seg.max_seq(), 200);
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!(got_seq, *seq);
            assert_eq!(&got, e);
        }
        assert!(cur.next_event().is_none());
    }

    #[test]
    fn catalog_counts_and_bounds() {
        let batch = sorted_batch(30);
        let seg = Segment::build(1, &batch);
        let c = seg.catalog();
        assert_eq!(c.event_count, 30);
        assert_eq!(c.min_ts, Timestamp::from_micros(1_000_000));
        assert_eq!(c.max_ts, Timestamp::from_micros(1_000_000 + 29 * 250_000));
        assert_eq!(c.hosts.len(), 2);
        assert_eq!(c.event_types.len(), 2);
        assert_eq!(c.hosts.values().sum::<usize>(), 30);
        assert_eq!(c.series.values().sum::<usize>(), 30);
    }

    #[test]
    fn overlaps_prunes_time_host_and_type() {
        let seg = Segment::build(1, &sorted_batch(10));
        let c = seg.catalog().clone();
        use jamm_core::query::Predicate;
        let facts = |p: Predicate| p.compile().facts().clone();
        assert!(c.overlaps(&facts(Predicate::True)));
        assert!(!c.overlaps(&facts(Predicate::between_micros(100_000_000, 200_000_000))));
        assert!(!c.overlaps(&facts(Predicate::between_micros(0, 1_000_000))));
        assert!(!c.overlaps(&facts(Predicate::hosts(["nowhere"]))));
        assert!(c.overlaps(&facts(Predicate::hosts(["h1"]))));
        assert!(!c.overlaps(&facts(Predicate::types(["DISK_IO"]))));
    }

    #[test]
    fn overlaps_prunes_by_level_floor_and_series_counts() {
        use jamm_core::query::Predicate;
        let seg = Segment::build(1, &sorted_batch(10)); // all Usage events
        let c = seg.catalog().clone();
        assert_eq!(c.max_level, Level::Usage.severity());
        let warnings = Predicate::parse("(level>=warning)").unwrap().compile();
        assert!(!c.overlaps(warnings.facts()), "no warnings stored here");
        let usage = Predicate::parse("(level>=usage)").unwrap().compile();
        assert!(c.overlaps(usage.facts()));

        // h1 only ever emits CPU_TOTAL (i % 3 == 0 implies i % 2 == 0 is
        // not guaranteed — check the batch invariant first).
        assert!(c
            .series
            .contains_key(&("h1".to_string(), "CPU_TOTAL".to_string())));
        // The segment has host h2 and type CPU_TOTAL, but if a particular
        // (host, type) pairing is absent the series tier prunes it.
        let absent = c
            .hosts
            .keys()
            .flat_map(|h| c.event_types.keys().map(move |t| (h.clone(), t.clone())))
            .find(|pair| !c.series.contains_key(pair));
        if let Some((h, t)) = absent {
            let q = Predicate::parse(&format!("(&(host={h})(type={t}))"))
                .unwrap()
                .compile();
            assert!(!c.overlaps(q.facts()), "series tier must prune ({h}, {t})");
        }
        // A mixed-level batch records the max.
        let mut batch = sorted_batch(4);
        batch[2].1.level = Level::Error;
        let seg = Segment::build(2, &batch);
        assert_eq!(seg.catalog().max_level, Level::Error.severity());
        assert!(seg.catalog().overlaps(warnings.facts()));
    }

    #[test]
    fn file_round_trip_and_checksum() {
        let seg = Segment::build(3, &sorted_batch(50));
        let bytes = seg.to_bytes();
        let back = Segment::from_bytes(&bytes).unwrap();
        assert_eq!(back.catalog(), seg.catalog());
        assert_eq!(back.min_seq(), seg.min_seq());
        assert_eq!(back.max_seq(), seg.max_seq());
        let mut a = Arc::new(seg).cursor();
        let mut b = Arc::new(back).cursor();
        while let Some(x) = a.next_event() {
            assert_eq!(x.unwrap(), b.next_event().unwrap().unwrap());
        }

        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        assert!(matches!(
            Segment::from_bytes(&corrupted),
            Err(TsdbError::Corrupt(_))
        ));
        assert!(Segment::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn compression_beats_binary_frames_on_regular_streams() {
        let batch = sorted_batch(1_000);
        let seg = Segment::build(1, &batch);
        let frames: usize = batch.iter().map(|(_, e)| binary::encode(e).len()).sum();
        let compressed = seg.to_bytes().len();
        assert!(
            compressed * 3 < frames,
            "expected >3x compression, got {frames} -> {compressed}"
        );
    }

    #[test]
    fn irregular_timestamps_still_round_trip() {
        // Jittery, repeated and out-of-pattern timestamps (still sorted).
        let ts = [
            0u64,
            0,
            1,
            1_000_000,
            1_000_001,
            1_000_001,
            u32::MAX as u64 * 3,
        ];
        let batch: Vec<(u64, Event)> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u64 + 10, ev("h", "X", t, 0.0)))
            .collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, got.timestamp), (*seq, e.timestamp));
        }
    }

    #[test]
    fn write_and_read_dir() {
        let dir = crate::test_util::TempDir::new("segment-io");
        let seg = Segment::build(12, &sorted_batch(20));
        let path = seg.write_to_dir(dir.path()).unwrap();
        assert!(path.ends_with("seg-00000012.jseg"));
        let back = Segment::read_from_file(&path).unwrap();
        assert_eq!(back.catalog(), seg.catalog());
    }

    #[test]
    fn unknown_future_segment_version_errors_clearly() {
        let mut bytes = Segment::build(1, &sorted_batch(5)).to_bytes();
        assert_eq!(&bytes[..4], SEGMENT_MAGIC);
        // A future generation, and the retired row-major JSG1 and JSG2 that
        // came before JSG3: the checksum covers the body only, so each
        // image is intact but for its magic.
        for magic in [b"JSG9", b"JSG1", b"JSG2"] {
            bytes[..4].copy_from_slice(magic);
            let err = Segment::from_bytes(&bytes).expect_err("unsupported version");
            assert_eq!(err, TsdbError::Corrupt("unsupported segment version"));
        }
        // Non-JSG garbage is still plain corruption, not a version error.
        bytes[0] = b'X';
        let err = Segment::from_bytes(&bytes).expect_err("garbage");
        assert!(err.to_string().contains("bad segment magic"), "got {err}");
    }

    #[test]
    fn columnar_round_trip_covers_field_shapes() {
        // Duplicate keys, non-float VAL, float VAL, missing VAL, numeric
        // string VAL, NaN-free mixed payloads — the shapes the sparse
        // key columns and the typed-VAL reconstruction must preserve
        // exactly, in order.
        let mk = |t: u64, fields: Vec<(&'static str, Value)>| {
            let mut b = Event::builder("prog", "h")
                .event_type("T")
                .timestamp(Timestamp::from_micros(t));
            for (k, v) in fields {
                b = b.field(k, v);
            }
            b.build()
        };
        let batch: Vec<(u64, Event)> = vec![
            (
                1,
                mk(10, vec![("VAL", Value::Float(1.5)), ("N", Value::UInt(7))]),
            ),
            (
                2,
                mk(
                    20,
                    vec![("VAL", Value::UInt(9)), ("VAL", Value::Float(2.5))],
                ),
            ),
            (
                3,
                mk(
                    30,
                    vec![("A", Value::Str("x".into())), ("A", Value::Str("y".into()))],
                ),
            ),
            (
                4,
                mk(40, vec![("N", Value::Int(-3)), ("B", Value::Bool(true))]),
            ),
            (5, mk(50, vec![("VAL", Value::Str("4.25".into()))])),
            (6, mk(60, vec![])),
        ];
        let seg = Arc::new(Segment::build(1, &batch));
        // Sequential cursor reproduces every event bit-for-bit.
        let mut cur = seg.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, &got), (*seq, e));
        }
        assert!(cur.next_event().is_none());
        // And so does the file round trip.
        let back = Arc::new(Segment::from_bytes(&seg.to_bytes()).unwrap());
        let mut cur = back.cursor();
        for (seq, e) in &batch {
            let (got_seq, got) = cur.next_event().unwrap().unwrap();
            assert_eq!((got_seq, &got), (*seq, e));
        }
    }

    /// Generated batches built to collide in the dictionary: hosts, event
    /// types, field keys and string values all draw from one small pool
    /// (so a value equals an identifier, sometimes before that identifier
    /// first appears), keys repeat within an event, `VAL` is float,
    /// non-float or missing, and every level occurs.  Up to `max_rows` rows.
    fn colliding_batch(g: &mut jamm_core::check::Gen, max_rows: usize) -> Vec<(u64, Event)> {
        const POOL: [&str; 8] = ["h1", "h2", "CPU", "MEM", "VAL", "NOTE", "PEER", ""];
        let mut ts = g.u64(1_000_000);
        let mut seq = g.u64(1_000);
        (0..g.usize_in(1, max_rows))
            .map(|_| {
                ts += g.u64(3) * g.u64(500_000);
                seq += 1 + g.u64(3);
                let level = binary::level_from_code(g.u64(9) as u8).unwrap();
                let mut b = Event::builder(g.choice(&POOL), g.choice(&POOL))
                    .level(level)
                    .event_type(g.choice(&POOL))
                    .timestamp(Timestamp::from_micros(ts));
                for _ in 0..g.usize_in(0, 5) {
                    let value = match g.u64(6) {
                        0 => Value::UInt(g.any_u64()),
                        1 => Value::Int(g.any_i64()),
                        2 => Value::Float(g.f64_in(-1e9, 1e9)),
                        3 => Value::Bool(g.bool(0.5)),
                        4 => Value::Str(g.choice(&POOL).into()),
                        _ => Value::Str(g.printable_string(6).into()),
                    };
                    b = b.field(g.choice(&POOL), value);
                }
                (seq, b.build())
            })
            .collect()
    }

    #[test]
    fn build_round_trips_colliding_batches_and_recounts_the_catalog() {
        use jamm_core::query::Predicate;
        jamm_core::check::forall("segment build ≡ input", 300, |g| {
            let batch = colliding_batch(g, 60);
            let built = Segment::build(7, &batch);
            let seg = Arc::new(Segment::from_bytes(&built.to_bytes()).unwrap());
            assert_eq!(seg.catalog(), built.catalog());

            let mut cursor = seg.cursor();
            let rows: Vec<(u64, Event)> =
                std::iter::from_fn(|| cursor.next_event().map(|r| r.unwrap())).collect();
            assert_eq!(rows, batch, "cursor");
            let everything = Predicate::True.compile();
            let mut scan = seg.col_scan();
            let rows: Vec<(u64, Event)> = std::iter::from_fn(|| {
                scan.next_match(&everything, ColMode::Exact)
                    .map(|r| r.unwrap())
            })
            .collect();
            assert_eq!(rows, batch, "col_scan");

            // The catalog against a naive row-by-row recount.
            let mut want = SegmentCatalog {
                id: 7,
                event_count: batch.len(),
                min_ts: batch[0].1.timestamp,
                max_ts: batch[batch.len() - 1].1.timestamp,
                hosts: BTreeMap::new(),
                event_types: BTreeMap::new(),
                series: BTreeMap::new(),
                max_level: 0,
            };
            for (_, e) in &batch {
                *want.hosts.entry(e.host.clone()).or_insert(0) += 1;
                *want.event_types.entry(e.event_type.clone()).or_insert(0) += 1;
                *want
                    .series
                    .entry((e.host.clone(), e.event_type.clone()))
                    .or_insert(0) += 1;
                want.max_level = want.max_level.max(e.level.severity());
            }
            assert_eq!(seg.catalog(), &want);
            assert_eq!(seg.min_seq(), batch[0].0);
            assert_eq!(seg.max_seq(), batch[batch.len() - 1].0);
            // One dictionary for identifiers and values: no string twice.
            let distinct: std::collections::BTreeSet<&String> = seg.dict.iter().collect();
            assert_eq!(distinct.len(), seg.dict.len());
        });
    }

    #[test]
    fn build_never_reaches_the_process_wide_interner() {
        // Strings no other test uses: had the build interned them they
        // would now be in the (leaking) table.  Checked per string rather
        // than through `interned_count()`, which tests running in parallel
        // in this process also move.
        let names = [
            "segment-build-host",
            "segment-build-type",
            "SEGMENT_BUILD_KEY",
        ];
        let e = Event::builder("segment-build-prog", names[0])
            .event_type(names[1])
            .timestamp(Timestamp::from_micros(1))
            .field(names[2], "segment-build-value")
            .build();
        let seg = Segment::build(1, &[(1, e)]);
        assert_eq!(seg.dict.len(), 5);
        for s in &seg.dict {
            assert!(jamm_core::intern::Sym::lookup(s).is_none(), "{s} interned");
        }
    }

    /// What the all-rows cursor and row-wise `plan.eval` answer: the first
    /// `plan.limit()` rows the plan's facts admit and a fresh clone of it
    /// (fresh stateful memory) accepts, in `(timestamp, sequence)` order.
    fn oracle(seg: &Arc<Segment>, plan: &Plan) -> Vec<(u64, Event)> {
        let plan = plan.clone();
        let mut cursor = seg.cursor();
        std::iter::from_fn(|| cursor.next_event().map(|row| row.unwrap()))
            .filter(|(_, e)| plan.facts().admits(e) && plan.eval(e))
            .take(plan.limit().unwrap_or(usize::MAX))
            .collect()
    }

    /// The same question put to one columnar scan, the way `ScanIter`
    /// drives it: the batch filter, the row re-check every mode but
    /// `Exact` needs, and the plan's limit.
    fn plan_scan(seg: &Arc<Segment>, plan: &Plan) -> (Result<Vec<(u64, Event)>>, ColScan) {
        let (plan, mode) = (plan.clone(), ColMode::of(plan));
        let mut scan = seg.col_scan();
        let mut got = Vec::new();
        while got.len() < plan.limit().unwrap_or(usize::MAX) {
            match scan.next_match(&plan, mode) {
                None => break,
                Some(Err(e)) => return (Err(e), scan),
                Some(Ok((seq, e))) => {
                    if mode == ColMode::Exact || plan.eval(&e) {
                        got.push((seq, e));
                    }
                }
            }
        }
        (Ok(got), scan)
    }

    #[test]
    fn col_scan_matches_cursor_under_every_mode() {
        use jamm_core::query::Predicate;
        let mut batch = sorted_batch(300);
        batch[7].1.level = Level::Error;
        let seg = Arc::new(Segment::build(1, &batch));
        for (text, want_mode) in [
            ("(&(host=h1)(type=CPU_TOTAL)(val>=30))", ColMode::Exact),
            ("(&(host=h1)(PEER=mems.cairn.net))", ColMode::Superset),
            ("(onchange)", ColMode::FactsOnly),
        ] {
            let plan = Predicate::parse(text).unwrap().compile();
            assert_eq!(ColMode::of(&plan), want_mode, "{text}");
            assert_eq!(
                plan_scan(&seg, &plan).0.unwrap(),
                oracle(&seg, &plan),
                "{text}"
            );
        }
    }

    /// `n` rows in runs of one host, type and level whose readings come
    /// from the run's own ten-wide band, so a selective plan matches whole
    /// groups or none of a group.  Stamps repeat; some rows have no
    /// reading, an integer one or a `NOTE`.
    fn clustered_batch(g: &mut jamm_core::check::Gen, n: usize) -> Vec<(u64, Event)> {
        let mut rows = Vec::with_capacity(n);
        let mut ts = 1_000_000u64;
        while rows.len() < n {
            let host = format!("h{}", g.u64(4));
            let ty = g.choice(&["CPU", "MEM", "NET"]);
            let level = g.choice(&[Level::Usage, Level::Warning, Level::Error]);
            let low = g.f64_in(0.0, 90.0);
            for _ in 0..g.usize_in(1, 150).min(n - rows.len()) {
                ts += g.u64(3) * 1_000;
                let mut e = Event::builder("prog", &host)
                    .level(level)
                    .event_type(ty)
                    .timestamp(Timestamp::from_micros(ts));
                e = match g.u64(10) {
                    0 => e,
                    1 => e.field("VAL", g.u64(100)),
                    _ => e.value(g.f64_in(low, low + 10.0)),
                };
                e = e.field("UNITS", "percent");
                if g.bool(0.1) {
                    e = e.field("NOTE", "x");
                }
                rows.push((rows.len() as u64 + 1, e.build()));
            }
        }
        rows
    }

    #[test]
    fn index_driven_scans_match_the_cursor_at_every_group_boundary() {
        use jamm_core::query::Predicate;
        let skipped = std::sync::atomic::AtomicU64::new(0);
        for n in [1, 63, 64, 65, 1_023, 1_024, 1_025, 4_097] {
            jamm_core::check::forall("index-driven scan ≡ cursor", 4, |g| {
                let batch = clustered_batch(g, n);
                // A stamp from anywhere in the segment, or past its end.
                let stamp = |g: &mut jamm_core::check::Gen| {
                    let row = g.usize_in(0, n);
                    batch
                        .get(row)
                        .map_or(u64::MAX / 2, |(_, e)| e.timestamp.as_micros())
                };
                let texts = [
                    "(&)".to_string(),
                    format!("(time>={})", stamp(g)),
                    format!("(&(time>={})(time<{}))", stamp(g), stamp(g)),
                    format!("(host=h{})", g.u64(5)),
                    format!("(type={})", g.choice(&["CPU", "MEM", "NET", "DISK"])),
                    "(level>=error)".to_string(),
                    format!("(val>{})", g.choice(&[-1.0, 50.0, 95.0, 1e9])),
                    format!("(&(type=CPU)(val>{}))", g.f64_in(0.0, 100.0)),
                    "(&(host=h1)(NOTE=x))".to_string(),
                    format!("(&(type=MEM)(time>={})(onchange))", stamp(g)),
                    format!(
                        "(&(val>{})(limit={}))",
                        g.f64_in(0.0, 100.0),
                        g.usize_in(1, 70)
                    ),
                    "(limit=1)".to_string(),
                ];
                for text in &texts {
                    let plan = Predicate::parse(text).unwrap().compile();
                    // A fresh segment, whose first skip builds the index,
                    // then the same one again, which finds it built.
                    let seg = Arc::new(Segment::build(1, &batch));
                    let want = oracle(&seg, &plan);
                    for pass in ["first", "second"] {
                        let (got, scan) = plan_scan(&seg, &plan);
                        assert_eq!(got.unwrap(), want, "{text}, {pass} scan of {n} rows");
                        let (decoded, passed) = (scan.groups_decoded, scan.groups_skipped);
                        assert!(decoded + passed <= n.div_ceil(GROUP) as u64, "{text}");
                        skipped.fetch_add(passed, std::sync::atomic::Ordering::Relaxed);
                    }
                    let events: Vec<Event> = want.into_iter().map(|(_, e)| e).collect();
                    let merged = crate::query::ScanIter::new(
                        plan,
                        Vec::new(),
                        vec![seg],
                        0,
                        Default::default(),
                    );
                    assert_eq!(
                        merged.collect::<Vec<Event>>(),
                        events,
                        "{text} via ScanIter"
                    );
                }
            });
        }
        assert!(skipped.into_inner() > 0, "some scan passed a group over");
    }

    #[test]
    fn two_first_scans_racing_on_one_segment_both_get_the_oracles_answer() {
        use jamm_core::query::Predicate;
        let batch = clustered_batch(&mut jamm_core::check::Gen::from_seed(28), 4_097);
        let plan = Predicate::parse("(&(type=CPU)(val>90))").unwrap().compile();
        for _ in 0..8 {
            let seg = Arc::new(Segment::build(1, &batch));
            let want = oracle(&seg, &plan);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        let (got, scan) = plan_scan(&seg, &plan);
                        assert_eq!(got.unwrap(), want);
                        assert!(scan.groups_skipped > 0, "the scan skipped");
                    });
                }
            });
            assert!(seg.built_group_index().is_some());
        }
    }

    /// Every event a columnar scan of `seg` selects under the plan that
    /// matches everything, or the error that stopped it.
    fn scan_all(seg: &Arc<Segment>) -> Result<Vec<(u64, Event)>> {
        let everything = jamm_core::query::Predicate::True.compile();
        let mut scan = seg.col_scan();
        std::iter::from_fn(|| scan.next_match(&everything, ColMode::Exact)).collect()
    }

    /// The same through the sequential cursor.
    fn cursor_all(seg: &Arc<Segment>) -> Result<Vec<(u64, Event)>> {
        let mut cursor = seg.cursor();
        std::iter::from_fn(|| cursor.next_event()).collect()
    }

    #[test]
    fn a_dictionary_holding_val_twice_scans_to_the_same_events() {
        // Assembled by hand from the documented layout, not by
        // `Segment::build`, which never writes a string twice; segments
        // from before the one-dictionary encoder can.  Slots: 0 host,
        // 1 program, 2 type, 3 `VAL`, 4 `VAL` again, 5 `N`.
        let dict = ["h", "prog", "T", "VAL", "VAL", "N"];
        type Row = (u64, u64, Vec<(u64, Value)>); // timestamp, seq, (key slot, value)s
        let rows: [Row; 3] = [
            (10, 1, vec![(3, Value::Float(1.5)), (5, Value::UInt(7))]),
            (20, 2, vec![(4, Value::UInt(9)), (3, Value::Float(2.5))]),
            // The row "the first index of `VAL`" gets wrong: its reading
            // is typed-column-only and keyed by the second slot.
            (30, 3, vec![(5, Value::Int(-3)), (4, Value::Float(4.0))]),
        ];
        let mut cols = ColData {
            val_present: vec![0],
            val_float: vec![0],
            ..ColData::default()
        };
        let mut sparse: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
        let mut want = Vec::new();
        for (r, (ts, seq, fields)) in rows.iter().enumerate() {
            // Ten-second period: first stamp, first delta, then zero
            // delta-of-deltas; sequence deltas of one.
            put_uvarint(&mut cols.ts, if r < 2 { 10 } else { 0 });
            put_ivarint(&mut cols.seqs, 1);
            cols.levels.push(binary::level_code(Level::Usage));
            put_uvarint(&mut cols.host_ix, 0);
            put_uvarint(&mut cols.prog_ix, 1);
            put_uvarint(&mut cols.type_ix, 2);
            put_uvarint(&mut cols.nfields, fields.len() as u64);
            let mut event = Event::builder("prog", "h")
                .event_type("T")
                .timestamp(Timestamp::from_micros(*ts));
            for (key, value) in fields {
                event = event.field(dict[*key as usize], value.clone());
            }
            let event = event.build();
            let first_val = fields
                .iter()
                .position(|(key, _)| dict[*key as usize] == "VAL");
            if let Some(reading) = event.value() {
                cols.val_present[0] |= 1 << r;
                cols.vals.extend_from_slice(&reading.to_le_bytes());
            }
            for (at, (key, value)) in fields.iter().enumerate() {
                put_uvarint(&mut cols.keys, *key);
                if Some(at) == first_val && matches!(value, Value::Float(_)) {
                    cols.val_float[0] |= 1 << r;
                    continue;
                }
                let (count, data) = sparse.entry(*key).or_default();
                *count += 1;
                put_value(data, value, |_| unreachable!("no string values"));
            }
            want.push((*seq, event));
        }
        put_uvarint(&mut cols.sparse, sparse.len() as u64);
        for (key, (count, data)) in &sparse {
            put_uvarint(&mut cols.sparse, *key);
            put_uvarint(&mut cols.sparse, *count);
            put_uvarint(&mut cols.sparse, data.len() as u64);
            cols.sparse.extend_from_slice(data);
        }
        let mut image = Segment::build(1, &want);
        image.dict = dict.iter().map(|s| s.to_string()).collect();
        image.cols = cols;
        let seg = Arc::new(Segment::from_bytes(&image.to_bytes()).unwrap());
        assert_eq!(scan_all(&seg).unwrap(), want);
        assert_eq!(cursor_all(&seg).unwrap(), want);
        // The typed column answers for the second slot's reading too.
        let over_three = jamm_core::query::Predicate::parse("(val>3)")
            .unwrap()
            .compile();
        let mut scan = seg.col_scan();
        let hits: Vec<u64> = std::iter::from_fn(|| scan.next_match(&over_three, ColMode::Exact))
            .map(|hit| hit.unwrap().0)
            .collect();
        assert_eq!(hits, [2, 3]);
    }

    /// A segment of `sorted_batch` rows with `tamper` applied, taken
    /// through its file form so the image carries a valid checksum.
    fn tampered(tamper: impl FnOnce(&mut Segment)) -> Arc<Segment> {
        let mut seg = Segment::build(1, &sorted_batch(5));
        tamper(&mut seg);
        Arc::new(Segment::from_bytes(&seg.to_bytes()).expect("the container is intact"))
    }

    #[test]
    fn hostile_key_lists_directories_and_catalogs_are_corrupt_not_panics() {
        let host_slot = |seg: &Segment| seg.dict.iter().position(|s| s == "h1").unwrap() as u8;
        type Tamper = Box<dyn FnOnce(&mut Segment)>;
        let cases: [(&str, Tamper); 4] = [
            (
                "dictionary index out of range",
                // A row's key index past the dictionary.
                Box::new(|seg| seg.cols.keys[1] = 0x7F),
            ),
            (
                "dictionary index out of range",
                // The sparse directory's first entry names such a key.
                Box::new(|seg| seg.cols.sparse[1] = 0x7F),
            ),
            (
                "missing sparse column",
                // A row keyed by a string the directory has no column for.
                Box::new(move |seg| seg.cols.keys[1] = host_slot(seg)),
            ),
            (
                "first timestamp precedes catalog min_ts",
                Box::new(|seg| seg.catalog.min_ts = Timestamp::from_micros(1_000_001)),
            ),
        ];
        for (want, tamper) in cases {
            let seg = tampered(tamper);
            assert_eq!(scan_all(&seg), Err(TsdbError::Corrupt(want)));
            assert_eq!(cursor_all(&seg), Err(TsdbError::Corrupt(want)));
        }
    }

    #[test]
    fn truncated_sparse_columns_and_key_lists_are_corrupt_on_every_path() {
        use jamm_core::query::Predicate;
        let selective = Predicate::parse("(&(type=CPU_TOTAL)(val>250))")
            .unwrap()
            .compile();
        let first = Predicate::parse("(limit=1)").unwrap().compile();
        let image = |tamper: fn(&mut ColData)| {
            let mut seg = Segment::build(1, &sorted_batch(300));
            tamper(&mut seg.cols);
            Arc::new(Segment::from_bytes(&seg.to_bytes()).expect("the container is intact"))
        };
        // The directory's last column claims a byte the region lacks: no
        // scan gets past parsing the directory.
        let seg = image(|cols| {
            cols.sparse.pop();
        });
        let truncated = Err(TsdbError::Corrupt("truncated sparse column"));
        assert_eq!(scan_all(&seg), truncated);
        assert_eq!(plan_scan(&seg, &selective).0, truncated);
        assert_eq!(plan_scan(&seg, &first).0, truncated);
        // The key list stops one key short: the walk meets it at the last
        // row, the skipping scan when its first skip builds the index, and
        // a one-row answer never.
        let seg = image(|cols| {
            cols.keys.pop();
        });
        let short = Err(TsdbError::Corrupt("truncated varint"));
        assert_eq!(scan_all(&seg), short);
        let (got, scan) = plan_scan(&seg, &selective);
        assert_eq!(got, short);
        assert_eq!((scan.groups_decoded, scan.groups_skipped), (0, 0));
        assert_eq!(plan_scan(&seg, &first).0.map(|rows| rows.len()), Ok(1));
    }

    #[test]
    fn a_row_count_past_the_columns_is_corrupt_not_a_huge_index() {
        use jamm_core::query::Predicate;
        // 2,048 rows stored, 2^40 claimed: the first batch decodes, skips,
        // and the index build meets the end of the columns.
        let mut seg = Segment::build(1, &sorted_batch(2_048));
        seg.catalog.event_count = 1 << 40;
        let seg = Arc::new(Segment::from_bytes(&seg.to_bytes()).expect("the container is intact"));
        let selective = Predicate::parse("(&(type=CPU_TOTAL)(val>2000))")
            .unwrap()
            .compile();
        let past_the_end = TsdbError::Corrupt("truncated varint");
        assert_eq!(plan_scan(&seg, &selective).0, Err(past_the_end.clone()));
        assert_eq!(scan_all(&seg), Err(past_the_end));
    }

    #[test]
    fn mutated_column_regions_decode_or_error_but_never_panic() {
        use jamm_core::query::Predicate;
        // Everything, skipping (selective, time-bounded), attribute,
        // stateful and one-row plans, in that order on each image: the
        // first that skips builds the index the rest restore from.
        let plans = [
            "(&)",
            "(&(type=CPU)(val>0))",
            "(&(time>=50000000)(type=MEM))",
            "(&(host=h1)(val>0))",
            "(NOTE=*)",
            "(onchange)",
            "(limit=1)",
        ]
        .map(|text| Predicate::parse(text).unwrap().compile());
        jamm_core::check::forall("column mutation never panics", 300, |g| {
            let mut seg = Segment::build(1, &colliding_batch(g, 300));
            let cols = &mut seg.cols;
            let regions: [&mut Vec<u8>; 12] = [
                &mut cols.ts,
                &mut cols.seqs,
                &mut cols.levels,
                &mut cols.host_ix,
                &mut cols.prog_ix,
                &mut cols.type_ix,
                &mut cols.val_present,
                &mut cols.val_float,
                &mut cols.vals,
                &mut cols.nfields,
                &mut cols.keys,
                &mut cols.sparse,
            ];
            let mut regions: Vec<&mut Vec<u8>> =
                regions.into_iter().filter(|r| !r.is_empty()).collect();
            let pick = g.usize_in(0, regions.len() - 1);
            let region = &mut regions[pick];
            let at = g.usize_in(0, region.len() - 1);
            region[at] = g.u64(256) as u8;
            // The checksum is recomputed, so the image loads.
            let seg = Arc::new(Segment::from_bytes(&seg.to_bytes()).unwrap());
            for plan in &plans {
                let mode = ColMode::of(plan);
                let mut scan = seg.col_scan();
                let mut rows = 0;
                while let Some(row) = scan.next_match(plan, mode) {
                    match row {
                        Ok(_) => rows += 1,
                        Err(e) => {
                            assert!(matches!(e, TsdbError::Corrupt(_)), "{e}");
                            assert!(scan.next_match(plan, mode).is_none(), "an error ends it");
                        }
                    }
                    if plan.limit() == Some(rows) {
                        break;
                    }
                }
                assert!(rows <= seg.len());
            }
        });
    }

    /// A seeded 5,000-row batch touching every column: four hosts, three
    /// event types, every level, float, integer and absent `VAL`s, string,
    /// signed and boolean fields, a key repeated within a row, and stamps
    /// that repeat, jitter and jump.
    fn golden_batch() -> Vec<(u64, Event)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut ts = 1_700_000_000_000_000u64;
        (0..5_000u64)
            .map(|i| {
                ts += match next(10) {
                    0 => 0,
                    1 => 1 + next(5_000_000),
                    _ => 250_000 + next(100),
                };
                let host = ["h1", "h2", "lbl.gov", "mems.cairn.net"][next(4) as usize];
                let ty = ["CPU_TOTAL", "MEM_FREE", "TCP_RETRANS"][next(3) as usize];
                let mut e = Event::builder("vmstat", host)
                    .level(binary::level_from_code(next(9) as u8).unwrap())
                    .event_type(ty)
                    .timestamp(Timestamp::from_micros(ts));
                e = match next(4) {
                    0 => e,
                    1 => e.field("VAL", next(100)),
                    _ => e.value(next(10_000) as f64 / 8.0),
                };
                e = e.field("PEER", ["a.lbl.gov", "b.lbl.gov"][next(2) as usize]);
                if next(5) == 0 {
                    e = e
                        .field("DELTA", -(next(50) as i64))
                        .field("UP", next(2) == 0);
                }
                if i % 97 == 0 {
                    e = e.field("NOTE", "first").field("NOTE", "second");
                }
                (i * 2 + next(2), e.build())
            })
            .collect()
    }

    #[test]
    fn jsg3_bytes_of_a_seeded_batch_are_pinned() {
        let batch = golden_batch();
        let seg = Arc::new(Segment::build(31, &batch));
        let bytes = seg.to_bytes();
        assert_eq!(&bytes[..4], SEGMENT_MAGIC);
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            (98_977, 0x3e10_e109_da27_7179)
        );
        let mut cursor = seg.cursor();
        let rows: Vec<(u64, Event)> =
            std::iter::from_fn(|| cursor.next_event().map(|r| r.unwrap())).collect();
        assert_eq!(rows, batch);
    }
}
