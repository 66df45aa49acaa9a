//! E13 — archive storage engine throughput (jamm-tsdb).
//!
//! The paper's archive exists for "historical analysis of system
//! performance" (§2.2); this bench records what the segmented store
//! sustains: batch ingest into the hot tier, WAL-backed persistent ingest,
//! and range-query scans against the memtable vs sealed compressed
//! segments (with catalog pruning).  Baseline recorded in BENCH_e13.json
//! (JAMM_BENCH_JSON=BENCH_e13.json cargo bench --bench e13_archive).

use jamm::jamm_archive::EventArchive;
use jamm::jamm_core::query::Predicate;
use jamm::jamm_tsdb::test_util::TempDir;
use jamm::jamm_tsdb::TsdbOptions;
use jamm_bench::{compare_row, data_row, header};
use jamm_core::json::{Json, Map};
use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

const HOSTS: [&str; 4] = [
    "dpss1.lbl.gov",
    "dpss2.lbl.gov",
    "mems.cairn.net",
    "portnoy.lbl.gov",
];
const TYPES: [&str; 3] = ["CPU_TOTAL", "MEM_FREE", "TCPD_RETRANSMITS"];

/// A deterministic sensor stream: regular 1ms period, rotating hosts and
/// event types — the shape the segment compressor is built for.
fn sample(i: u64) -> Event {
    Event::builder("vmstat", HOSTS[(i % 4) as usize])
        .level(Level::Usage)
        .event_type(TYPES[(i % 3) as usize])
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .field("SAMPLE", i)
        .build()
}

fn events(n: u64) -> Vec<Event> {
    (0..n).map(sample).collect()
}

/// Ingest one batch of owned events.  The per-event copy and `Arc::new`
/// stay inside the timed region: they are part of what `BENCH_e13.json`'s
/// ingest rows have always measured.
fn ingest(archive: &EventArchive, chunk: &[Event]) {
    let shared: Vec<SharedEvent> = chunk.iter().cloned().map(SharedEvent::new).collect();
    archive.store(&shared).expect("ingest");
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn kevps(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9) / 1_000.0
}

fn main() {
    header(
        "E13: archive ingest + range-query throughput (jamm-tsdb)",
        "section 2.2 archive service, grown to a segmented storage engine",
    );

    let n: u64 = 200_000;
    let batch = 1_000usize;
    let mut results: Vec<(&str, f64)> = Vec::new();

    // --- ingest: in-memory batches (the ArchiverAgent::poll path) ---
    // The memtable bound is raised above `n` so this archive really stays
    // in the hot tier — the point of the hot-vs-sealed comparison below.
    let data = events(n);
    let mem_archive = EventArchive::in_memory_with(TsdbOptions {
        memtable_max_events: (n + 1) as usize,
        ..TsdbOptions::default()
    });
    let (_, ingest_secs) = time(|| {
        for chunk in data.chunks(batch) {
            ingest(&mem_archive, chunk);
        }
    });
    results.push(("ingest_memtable_kev_per_s", kevps(n, ingest_secs)));

    // --- ingest: persistent, every batch through the WAL ---
    let dir = TempDir::new("bench-e13");
    let wal_archive = EventArchive::open(dir.path()).unwrap();
    let (_, wal_secs) = time(|| {
        for chunk in data.chunks(batch) {
            ingest(&wal_archive, chunk);
        }
    });
    results.push(("ingest_wal_kev_per_s", kevps(n, wal_secs)));

    // --- range query: hot memtable vs sealed compressed segments ---
    // One decile of the time axis; identical query on both layouts.
    let q = Predicate::between_micros(
        1_000_000_000 + n / 10 * 9 * 1_000,
        1_000_000_000 + n * 1_000,
    )
    .compile();
    let (hot_hits, hot_secs) = time(|| mem_archive.scan(&q).collect::<Vec<Event>>().len());

    let sealed_archive = EventArchive::in_memory_with(TsdbOptions {
        memtable_max_events: (n / 16) as usize,
        ..TsdbOptions::default()
    });
    for chunk in data.chunks(batch) {
        ingest(&sealed_archive, chunk);
    }
    sealed_archive.seal().expect("seal");
    let segments = sealed_archive.tsdb().segment_count();
    let (cold_hits, cold_secs) = time(|| sealed_archive.scan(&q).collect::<Vec<Event>>().len());
    assert_eq!(hot_hits, cold_hits, "layouts must agree on the range");
    results.push(("scan_memtable_kev_per_s", kevps(hot_hits as u64, hot_secs)));
    results.push((
        "scan_segments_kev_per_s",
        kevps(cold_hits as u64, cold_secs),
    ));

    // --- pruning: how many of the 16 segments the decile query touched ---
    let scanned = sealed_archive.stats().segments_scanned();
    let pruned = sealed_archive.stats().segments_pruned();
    results.push(("segments_scanned", scanned as f64));
    results.push(("segments_pruned", pruned as f64));

    println!("\nmeasured ({n} events, batches of {batch}, {segments} sealed segments):\n");
    data_row(&[format!("{:<28}", "metric"), format!("{:>14}", "value")]);
    for (k, v) in &results {
        data_row(&[format!("{k:<28}"), format!("{v:>14.1}")]);
    }
    println!();
    compare_row(
        "ingest, memtable vs WAL-backed",
        "WAL costs one sequential write",
        &format!("{:.0}k ev/s vs {:.0}k ev/s", results[0].1, results[1].1),
    );
    compare_row(
        "decile range scan, hot vs sealed",
        "sealed pays decode, saves via pruning",
        &format!(
            "{:.0}k ev/s vs {:.0}k ev/s ({scanned} scanned / {pruned} pruned)",
            results[2].1, results[3].1
        ),
    );
    println!();

    if let Ok(path) = std::env::var("JAMM_BENCH_JSON") {
        let mut doc = Map::new();
        doc.insert("target".into(), Json::from("e13_archive"));
        doc.insert("events".into(), Json::from(n));
        doc.insert("batch".into(), Json::from(batch));
        doc.insert("segments".into(), Json::from(segments));
        let mut rows = Map::new();
        for (k, v) in &results {
            rows.insert((*k).into(), Json::from((v * 10.0).round() / 10.0));
        }
        doc.insert("results".into(), Json::Object(rows));
        if let Err(e) = std::fs::write(&path, Json::Object(doc).to_pretty() + "\n") {
            eprintln!("could not write {path}: {e}");
        }
    }
}
