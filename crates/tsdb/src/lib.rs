//! # jamm-tsdb — the event archive and its segmented, compressed store
//!
//! "It is important to archive event data in order to provide the ability to
//! do historical analysis of system performance, and determine when/where
//! changes occurred. ... the archive is just another consumer" (§2.2).
//!
//! [`Tsdb`] is that archive: a time-indexed store of ULM events answering
//! the unified query plane, with ULM / JSON export so other tools — e.g. a
//! Network Weather Service style predictor — can consume the history.  The
//! archiver agent (`jamm-consumers`) writes it and publishes the directory
//! entry built from its [`StoreCatalog`]; [`ReplaySource`] pushes an
//! archived range back through a gateway.  It is organized as tiers of data
//! by age:
//!
//! * **WAL** ([`wal`]) — every append hits an append-only log first, so a
//!   crash loses nothing; reopen replays it (tolerating a torn tail).
//! * **Memtable** ([`memtable`]) — the hot tier: a sorted in-memory buffer
//!   absorbing writes.
//! * **Segments** ([`segment`]) — a full memtable *seals* into an immutable
//!   sorted segment compressed with delta-of-delta timestamps, varint
//!   values and a per-segment string dictionary.  Each segment carries a
//!   catalog (time bounds, host / event-type sets, per-series counts).
//! * **Maintenance** — [`Tsdb::compact`] merges runs of small segments,
//!   [`Tsdb::retain`] drops the expired tier.
//!
//! An in-memory store ([`Tsdb::in_memory`]) has no WAL and no files; a
//! persistent one ([`Tsdb::open`]) survives process restart via WAL replay
//! and segment recovery.  Every verb has exactly one, fallible, entry:
//!
//! | Verb | Entry |
//! |---|---|
//! | ingest | [`Tsdb::append_shared_batch`] over `&[SharedEvent]` ([`Tsdb::append`] and the [`EventSink`] impl forward to it) |
//! | query | [`Tsdb::scan`] over a compiled [`Plan`]; [`Tsdb::scan_str`] parses, compiles and scans |
//! | maintain | [`Tsdb::seal`], [`Tsdb::compact`], [`Tsdb::retain`] |
//! | export | [`Tsdb::export_ulm_to`], [`Tsdb::export_json_to`] into a writer |
//! | replay | [`ReplaySource::new`] over a compiled [`Plan`] |
//!
//! [`Tsdb::append_shared_batch`] is the only function that writes the WAL
//! and the memtable, and a history query is a [`Predicate`] — built with
//! its constructors or parsed from text — compiled to a [`Plan`]; there is
//! no storage-side query type.  No entry swallows a storage error: a caller
//! that chooses to ignore one says so at its call site.
//!
//! Range scans ([`Tsdb::scan`]) use the catalogs to *prune* whole segments
//! without reading their data — observable through [`TsdbStats`] — and the
//! surviving segments decode lazily through a k-way merge iterator, so a
//! query streams results without materializing the match set.
//!
//! [`EventSink`]: jamm_core::flow::EventSink
//! [`SharedEvent`]: jamm_ulm::SharedEvent
//! [`Plan`]: jamm_core::query::Plan
//! [`Predicate`]: jamm_core::query::Predicate
//!
//! ```
//! use jamm_core::query::Predicate;
//! use jamm_tsdb::Tsdb;
//! use jamm_ulm::{Event, Level, Timestamp};
//!
//! let db = Tsdb::in_memory();
//! for t in 0..100u64 {
//!     db.append(
//!         Event::builder("vmstat", "dpss1.lbl.gov")
//!             .level(Level::Usage)
//!             .event_type("CPU_TOTAL")
//!             .timestamp(Timestamp::from_secs(t))
//!             .value(t as f64)
//!             .build(),
//!     )
//!     .unwrap();
//! }
//! db.seal().unwrap();
//! let plan = Predicate::between_micros(10_000_000, 20_000_000).compile();
//! assert_eq!(db.scan(&plan).count(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod memtable;
pub mod query;
mod replay;
pub mod segment;
pub mod store;
pub mod test_util;
pub mod wal;

pub use query::ScanIter;
pub use replay::ReplaySource;
pub use segment::{Segment, SegmentCatalog};
pub use store::{StoreCatalog, Tsdb, TsdbOptions, TsdbStats};

/// Errors a store can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsdbError {
    /// An underlying filesystem operation failed (message carries the OS
    /// error text).
    Io(String),
    /// Stored bytes failed validation (bad magic, checksum mismatch,
    /// truncated structure).
    Corrupt(&'static str),
}

impl std::fmt::Display for TsdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsdbError::Io(e) => write!(f, "tsdb I/O error: {e}"),
            TsdbError::Corrupt(what) => write!(f, "tsdb corrupt data: {what}"),
        }
    }
}

impl std::error::Error for TsdbError {}

impl From<std::io::Error> for TsdbError {
    fn from(e: std::io::Error) -> Self {
        TsdbError::Io(e.to_string())
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, TsdbError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use jamm_core::query::{Plan, Predicate};
    use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

    fn ev(host: &str, ty: &str, t: u64, value: f64) -> Event {
        Event::builder("sensor", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(value)
            .build()
    }

    fn put(a: &Tsdb, event: Event) {
        a.append_shared_batch(&[SharedEvent::new(event)]).unwrap();
    }

    fn all() -> Plan {
        Predicate::True.compile()
    }

    /// Half-open `[from, to)` in seconds.
    fn between(from: u64, to: u64) -> Plan {
        Predicate::between_micros(from * 1_000_000, to * 1_000_000).compile()
    }

    fn run(a: &Tsdb, plan: &Plan) -> Vec<Event> {
        a.scan(plan).collect()
    }

    fn populated() -> Tsdb {
        let a = Tsdb::in_memory();
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
        let a = Tsdb::in_memory();
        for i in 0..5 {
            put(&a, ev("h", "X", 42, i as f64));
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.scan(&all()).count(), 5);
    }

    #[test]
    fn catalog_summarises_contents() {
        let a = populated();
        let c = a.catalog();
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
        let removed = a.retain(Timestamp::from_secs(1_050)).unwrap();
        assert!(removed > 0);
        assert_eq!(a.len(), 110 - removed);
        assert!(a
            .scan(&all())
            .all(|e| e.timestamp >= Timestamp::from_secs(1_050)));
    }

    #[test]
    fn scan_streams_in_order_with_sealed_segments() {
        let a = Tsdb::in_memory_with(TsdbOptions {
            memtable_max_events: 16,
            small_segment_events: 16,
            sync_wal: false,
        });
        for t in 0..100u64 {
            put(&a, ev("h", "X", 1_000 + t, t as f64));
        }
        assert!(a.segment_count() > 1, "multiple sealed segments");
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
            let a = Tsdb::open(dir.path()).unwrap();
            for t in 0..50u64 {
                put(&a, ev("h", "CPU_TOTAL", t, t as f64));
            }
            a.seal().unwrap();
            for t in 50..60u64 {
                put(&a, ev("h", "CPU_TOTAL", t, t as f64));
            }
            // Dropped without flushing: the last 10 live only in the WAL.
        }
        let a = Tsdb::open(dir.path()).unwrap();
        assert_eq!(a.len(), 60);
        assert_eq!(a.scan(&between(45, 55)).count(), 10);
    }

    #[test]
    fn range_scans_prune_segments() {
        let a = Tsdb::in_memory_with(TsdbOptions {
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
