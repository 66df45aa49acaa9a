//! # jamm-tsdb — the segmented, compressed time-series engine behind the
//! event archive
//!
//! The paper's archive service exists "to provide the ability to do
//! historical analysis of system performance" (§2.2).  This crate is the
//! storage engine that makes that possible at production scale, organized
//! as tiers of data by age:
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
//! One way in, one way out: [`Tsdb::append_shared_batch`] is the only
//! function that writes the WAL and the memtable ([`Tsdb::append`] is a
//! batch of one through it), and [`Tsdb::scan`] takes the query plane's
//! compiled [`jamm_core::query::Plan`] — there is no storage-side query
//! type.
//!
//! Range scans ([`Tsdb::scan`]) use the catalogs to *prune* whole segments
//! without reading their data — observable through [`TsdbStats`] — and the
//! surviving segments decode lazily through a k-way merge iterator, so a
//! query streams results without materializing the match set.
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
pub mod segment;
pub mod store;
pub mod test_util;
pub mod wal;

pub use query::ScanIter;
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
