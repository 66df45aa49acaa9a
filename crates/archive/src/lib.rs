//! # jamm-archive — the event archive
//!
//! "It is important to archive event data in order to provide the ability to
//! do historical analysis of system performance, and determine when/where
//! changes occurred. ... the archive is just another consumer" (§2.2).
//!
//! [`EventArchive`] is a time-indexed store of ULM events answering the
//! unified query plane, with ULM / JSON export so other tools — e.g. a
//! Network Weather Service style predictor — can consume the history.  The
//! directory entry describing the archive's contents is built from the
//! storage engine's own [`jamm_tsdb::StoreCatalog`].
//!
//! Since PR 2 the archive sits on the [`jamm_tsdb`] storage engine: an
//! in-memory archive ([`EventArchive::new`]) behaves exactly as before,
//! while a persistent one ([`EventArchive::open`]) survives process
//! restart via WAL replay and segment recovery.  Either way, range scans
//! prune whole segments through per-segment catalogs, stream results
//! through [`EventArchive::scan`] instead of materializing them, and the
//! archived history can be pushed back through a gateway with
//! [`ReplaySource`].
//!
//! Every verb has exactly one, fallible, entry:
//!
//! | Verb | Entry |
//! |---|---|
//! | ingest | [`EventArchive::store`] over `&[SharedEvent]` (the two [`EventSink`] impls forward to it) |
//! | query | [`EventArchive::scan`] over a compiled [`Plan`]; [`EventArchive::scan_str`] parses, compiles and scans |
//! | maintain | [`EventArchive::seal`], [`EventArchive::compact`], [`EventArchive::expire_before`] |
//! | export | [`EventArchive::export_ulm_to`], [`EventArchive::export_json_to`] into a writer |
//!
//! A history query is a [`Predicate`] — built with its constructors or
//! parsed from text — compiled to a [`Plan`]; the archive has no query
//! type of its own.  No entry swallows a storage error: a caller that
//! chooses to ignore one says so at its call site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod replay;

pub use replay::ReplaySource;

use std::path::Path;

use jamm_core::flow::{EventSink, SinkError};
use jamm_core::query::{ParseError, Plan, Predicate};
use jamm_tsdb::{ScanIter, SegmentCatalog, Tsdb, TsdbError, TsdbOptions, TsdbStats};
use jamm_ulm::{SharedEvent, Timestamp};

/// A streaming, time-ordered iterator over query results.
///
/// This is the storage engine's plan-driven [`ScanIter`]: it owns its
/// segment handles (so it can outlive the archive borrow it was created
/// from), decodes lazily, and stops the k-way merge — releasing every
/// remaining segment handle — as soon as a pushed-down limit is reached.
pub type ArchiveScan = ScanIter;

/// A time-indexed archive of monitoring events, persistent when opened on
/// a directory.
#[derive(Debug)]
pub struct EventArchive {
    db: Tsdb,
}

impl Default for EventArchive {
    fn default() -> Self {
        EventArchive::new()
    }
}

impl EventArchive {
    /// Create an empty, in-memory (volatile) archive.
    pub fn new() -> Self {
        EventArchive {
            db: Tsdb::in_memory(),
        }
    }

    /// Open (creating if needed) a persistent archive in `dir`.  Existing
    /// segments are loaded and the write-ahead log is replayed, so a
    /// populated archive survives process restart.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TsdbError> {
        Self::open_with(dir, TsdbOptions::default())
    }

    /// Open a persistent archive with explicit storage-engine options.
    pub fn open_with(dir: impl AsRef<Path>, opts: TsdbOptions) -> Result<Self, TsdbError> {
        Ok(EventArchive {
            db: Tsdb::open_with(dir, opts)?,
        })
    }

    /// Create an in-memory archive with explicit storage-engine options
    /// (small memtables are useful in tests and benches).
    pub fn in_memory_with(opts: TsdbOptions) -> Self {
        EventArchive {
            db: Tsdb::in_memory_with(opts),
        }
    }

    /// The underlying storage engine (stats, the store and segment
    /// catalogs, manual maintenance).
    pub fn tsdb(&self) -> &Tsdb {
        &self.db
    }

    /// Storage-engine observability counters (appends, seals, pruned
    /// segments, ...).
    pub fn stats(&self) -> &TsdbStats {
        self.db.stats()
    }

    /// Store a batch of shared events (one event is a batch of one)
    /// under a single storage-engine lock and, for persistent archives,
    /// one WAL write, without copying any event: the archive keeps the
    /// same `Arc`s the gateway fanned out.  Returns how many events were
    /// stored.  The caller keeps its buffer — on `Err` nothing was stored
    /// and the same slice can be retried (the archiver agent's poll loop
    /// does exactly that to survive transient disk errors).
    pub fn store(&self, events: &[SharedEvent]) -> Result<usize, TsdbError> {
        self.db.append_shared_batch(events)
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True if the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Seal the hot (memtable) tier into an immutable segment now.
    /// Returns the new segment's catalog, or `None` when there was nothing
    /// to seal.  The archiver agent calls this when flushing.  On `Err`
    /// nothing moved: the memtable is untouched and a later seal retries.
    pub fn seal(&self) -> Result<Option<SegmentCatalog>, TsdbError> {
        self.db.seal()
    }

    /// Merge runs of small segments; returns the net number of segments
    /// removed.  A failed compaction leaves the store untouched.
    pub fn compact(&self) -> Result<usize, TsdbError> {
        self.db.compact()
    }

    /// Per-segment catalogs, in segment order — the entries the archiver
    /// agent publishes in the directory.
    pub fn segment_catalogs(&self) -> Vec<SegmentCatalog> {
        self.db.segment_catalogs()
    }

    /// Stream every event a compiled query-plane [`Plan`] matches — the
    /// same plans gateway subscriptions and directory searches run — in
    /// time order, without materializing the match set.  Segments that
    /// cannot satisfy the plan's pushdown facts — time window, hosts,
    /// event types, per-series counts, severity floor — are pruned via
    /// their catalogs (see [`EventArchive::stats`]), and a limit stops the
    /// merge early.  The scan evaluates through its own clone of the plan
    /// (fresh stateful memory), so e.g. an `(onchange)` historical query
    /// de-duplicates within this scan only.
    pub fn scan(&self, plan: &Plan) -> ArchiveScan {
        self.db.scan(plan)
    }

    /// Parse a query string in the unified grammar (e.g.
    /// `"(&(host=dpss1.lbl.gov)(level>=warning)(limit=100))"`) and stream
    /// the matching history.
    pub fn scan_str(&self, query: &str) -> Result<ArchiveScan, ParseError> {
        Ok(self.scan(&Predicate::parse(query)?.compile()))
    }

    /// Stream matching events as ULM text (one line per event) into a
    /// writer, without building the export in memory.  Returns the number
    /// of events written.
    pub fn export_ulm_to<W: std::io::Write>(
        &self,
        plan: &Plan,
        out: &mut W,
    ) -> std::io::Result<usize> {
        let mut n = 0;
        for e in self.scan(plan) {
            out.write_all(jamm_ulm::text::encode(&e).as_bytes())?;
            out.write_all(b"\n")?;
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

    /// Drop events older than `cutoff`, returning how many were removed
    /// (retention management).  Whole expired segments are dropped without
    /// decoding them.  A failed cut leaves the store untouched — and is
    /// reported, because a silently failing retention policy otherwise
    /// looks like a no-op.
    pub fn expire_before(&self, cutoff: Timestamp) -> Result<usize, TsdbError> {
        self.db.retain(cutoff)
    }
}

fn rejected(e: TsdbError) -> SinkError {
    SinkError::Rejected(e.to_string())
}

/// The archive is a terminal event sink: accepting a [`SharedEvent`]
/// stores the caller's `Arc` directly (a replayed or fanned-out event is
/// archived without any copy).
impl EventSink<SharedEvent> for EventArchive {
    fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
        self.store(std::slice::from_ref(event)).map_err(rejected)
    }

    fn accept_batch(&self, events: &[SharedEvent]) -> Result<usize, SinkError> {
        self.store(events).map_err(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_tsdb::test_util::TempDir;
    use jamm_ulm::{Event, Level};

    fn ev(host: &str, ty: &str, t: u64, value: f64) -> Event {
        Event::builder("sensor", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(value)
            .build()
    }

    fn put(a: &EventArchive, event: Event) {
        a.store(&[SharedEvent::new(event)]).unwrap();
    }

    fn all() -> Plan {
        Predicate::True.compile()
    }

    /// Half-open `[from, to)` in seconds.
    fn between(from: u64, to: u64) -> Plan {
        Predicate::between_micros(from * 1_000_000, to * 1_000_000).compile()
    }

    fn run(a: &EventArchive, plan: &Plan) -> Vec<Event> {
        a.scan(plan).collect()
    }

    fn populated() -> EventArchive {
        let a = EventArchive::new();
        for t in 0..100u64 {
            put(&a, ev("dpss1.lbl.gov", "CPU_TOTAL", 1_000 + t, t as f64));
            if t % 10 == 0 {
                put(&a, ev("mems.cairn.net", "TCPD_RETRANSMITS", 1_000 + t, 1.0));
            }
        }
        a
    }

    #[test]
    fn store_and_count() {
        let a = populated();
        assert_eq!(a.len(), 110);
        assert!(!a.is_empty());
    }

    #[test]
    fn time_range_query_is_half_open() {
        let a = populated();
        let r = run(&a, &between(1_010, 1_020));
        assert!(r.iter().all(|e| e.timestamp >= Timestamp::from_secs(1_010)
            && e.timestamp < Timestamp::from_secs(1_020)));
        // 10 CPU events (t=1010..1019) + 1 retransmit at t=1010.
        assert_eq!(r.len(), 11);
    }

    #[test]
    fn host_and_type_queries_with_limit() {
        let a = populated();
        let cpu = run(&a, &Predicate::types(["CPU_TOTAL"]).compile());
        assert_eq!(cpu.len(), 100);
        let mems = run(&a, &Predicate::hosts(["mems.cairn.net"]).compile());
        assert_eq!(mems.len(), 10);
        let limited = run(&a, &Predicate::Limit(7).compile());
        assert_eq!(limited.len(), 7);
        // Results are in time order.
        let times: Vec<_> = cpu.iter().map(|e| e.timestamp).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn events_with_identical_timestamps_are_all_kept() {
        let a = EventArchive::new();
        for i in 0..5 {
            put(&a, ev("h", "X", 42, i as f64));
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.scan(&all()).count(), 5);
    }

    #[test]
    fn catalog_summarises_contents() {
        let a = populated();
        let c = a.tsdb().catalog();
        assert_eq!(c.event_count, 110);
        assert_eq!(c.event_types.get("CPU_TOTAL"), Some(&100));
        assert_eq!(c.event_types.get("TCPD_RETRANSMITS"), Some(&10));
        assert_eq!(c.hosts.len(), 2);
        assert_eq!(c.earliest, Some(Timestamp::from_secs(1_000)));
        assert_eq!(c.latest, Some(Timestamp::from_secs(1_099)));
    }

    #[test]
    fn exports_round_trip() {
        let a = populated();
        let q = Predicate::types(["TCPD_RETRANSMITS"]).compile();
        let mut ulm = Vec::new();
        assert_eq!(a.export_ulm_to(&q, &mut ulm).unwrap(), 10);
        let ulm = String::from_utf8(ulm).unwrap();
        assert_eq!(jamm_ulm::text::decode_all_lossy(&ulm).len(), 10);
        let mut json = Vec::new();
        assert_eq!(a.export_json_to(&q, &mut json).unwrap(), 10);
        let parsed = jamm_core::json::Json::parse(&String::from_utf8(json).unwrap()).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 10);
    }

    #[test]
    fn streaming_exports_write_exactly_the_scan() {
        let a = populated();
        let q = Predicate::and(vec![
            Predicate::hosts(["dpss1.lbl.gov"]),
            Predicate::Limit(13),
        ])
        .compile();
        let mut ulm = Vec::new();
        assert_eq!(a.export_ulm_to(&q, &mut ulm).unwrap(), 13);
        let lines: String = a
            .scan(&q)
            .map(|e| jamm_ulm::text::encode(&e) + "\n")
            .collect();
        assert_eq!(String::from_utf8(ulm).unwrap(), lines);
        let mut json = Vec::new();
        assert_eq!(a.export_json_to(&q, &mut json).unwrap(), 13);
        let items: Vec<String> = a
            .scan(&q)
            .map(|e| jamm_ulm::json::to_json(&e).to_string())
            .collect();
        assert_eq!(
            String::from_utf8(json).unwrap(),
            format!("[{}]", items.join(","))
        );
        // Empty result is a valid empty JSON array.
        let none = Predicate::hosts(["nowhere"]).compile();
        let mut json = Vec::new();
        assert_eq!(a.export_json_to(&none, &mut json).unwrap(), 0);
        assert_eq!(json, b"[]");
    }

    #[test]
    fn expiry_removes_old_events() {
        let a = populated();
        let removed = a.expire_before(Timestamp::from_secs(1_050)).unwrap();
        assert!(removed > 0);
        assert_eq!(a.len(), 110 - removed);
        assert!(a
            .scan(&all())
            .all(|e| e.timestamp >= Timestamp::from_secs(1_050)));
    }

    #[test]
    fn scan_streams_in_order_with_sealed_segments() {
        let a = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: 16,
            small_segment_events: 16,
            sync_wal: false,
        });
        for t in 0..100u64 {
            put(&a, ev("h", "X", 1_000 + t, t as f64));
        }
        assert!(a.tsdb().segment_count() > 1, "multiple sealed segments");
        let mut prev = Timestamp::EPOCH;
        let mut n = 0;
        for e in a.scan(&all()) {
            assert!(e.timestamp >= prev);
            prev = e.timestamp;
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn persistent_archive_survives_restart() {
        let dir = TempDir::new("archive-restart");
        {
            let a = EventArchive::open(dir.path()).unwrap();
            for t in 0..50u64 {
                put(&a, ev("h", "CPU_TOTAL", t, t as f64));
            }
            a.seal().unwrap();
            for t in 50..60u64 {
                put(&a, ev("h", "CPU_TOTAL", t, t as f64));
            }
            // Dropped without flushing: the last 10 live only in the WAL.
        }
        let a = EventArchive::open(dir.path()).unwrap();
        assert_eq!(a.len(), 60);
        assert_eq!(a.scan(&between(45, 55)).count(), 10);
    }

    #[test]
    fn range_scans_prune_segments() {
        let a = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: 10,
            small_segment_events: 10,
            sync_wal: false,
        });
        for base in [0u64, 1_000, 2_000, 3_000] {
            for t in 0..10 {
                put(&a, ev("h", "X", base + t, 0.0));
            }
            a.seal().unwrap();
        }
        assert_eq!(a.scan(&between(2_000, 2_010)).count(), 10);
        assert_eq!(a.stats().segments_scanned(), 1);
        assert_eq!(a.stats().segments_pruned(), 3);
    }
}
