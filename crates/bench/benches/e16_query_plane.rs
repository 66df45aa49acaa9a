//! E16 — the unified query plane: filtered fan-out through compiled
//! plans, pruned historical scans, and allocation-free plan evaluation.
//!
//! Since the query-plane refactor one compiled `jamm_core::query::Plan`
//! answers gateway subscription filters, archive/tsdb scans and directory
//! searches.  This bench records what that buys and guards what it
//! promises:
//!
//! 1. **filtered fan-out** — publish throughput into a gateway whose
//!    subscriptions are opened from query *strings* vs the builder-style
//!    filters (both compile to the same plan, so the numbers must agree);
//! 2. **pruned historical scan** — a selective query (host + severity
//!    floor + time range) against a many-segment archive vs the full
//!    scan, with the pruning counters asserted (the level and series
//!    pruning tiers must actually skip segments);
//! 3. **zero-allocation eval** — steady-state `Plan::eval` performs zero
//!    heap allocations per event, asserted with a counting global
//!    allocator (deterministic; never disabled).
//!
//! Baseline recorded in BENCH_e16.json
//! (JAMM_BENCH_JSON=BENCH_e16.json cargo bench --bench e16_query_plane);
//! JAMM_BENCH_BASELINE=BENCH_e16.json enables the >2x regression guard
//! and JAMM_BENCH_NO_ASSERT downgrades the wall-clock comparisons (the
//! allocation and pruning assertions stay on).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm::jamm_archive::EventArchive;
use jamm::jamm_core::json::{Json, Map};
use jamm::jamm_core::query::Predicate;
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm::jamm_tsdb::TsdbOptions;
use jamm_bench::{compare_row, data_row, header};
use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

/// Counts every heap allocation so the zero-allocation claim is measured,
/// not asserted from type signatures.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic increment on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HOSTS: [&str; 4] = [
    "dpss1.lbl.gov",
    "dpss2.lbl.gov",
    "mems.cairn.net",
    "portnoy.lbl.gov",
];
const TYPES: [&str; 4] = ["CPU_TOTAL", "MEM_FREE", "TCPD_RETRANSMITS", "PROC_DIED"];

fn sample(i: u64) -> Event {
    Event::builder("vmstat", HOSTS[(i % 4) as usize])
        .level(if i.is_multiple_of(97) {
            Level::Warning
        } else {
            Level::Usage
        })
        .event_type(TYPES[(i % 3) as usize]) // PROC_DIED stays rare
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .build()
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn kevps(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9) / 1_000.0
}

/// The subscription mix, once as query strings and once as the equivalent
/// builder chains would express them.
const QUERIES: [&str; 4] = [
    "(type=CPU_TOTAL)",
    "(&(type=MEM_FREE)(val>50))",
    "(&(type=CPU_TOTAL)(host=dpss1.lbl.gov)(onchange))",
    "(&(type=TCPD_RETRANSMITS)(level>=warning))",
];

fn fanout_gateway(n_subs: usize) -> (EventGateway, Vec<jamm::jamm_gateway::Subscription>) {
    let gw = EventGateway::new(GatewayConfig::open("e16"));
    let subs = (0..n_subs)
        .map(|i| {
            gw.subscribe()
                .stream()
                .matching(QUERIES[i % QUERIES.len()])
                .as_consumer(format!("q{i}"))
                .open()
                .expect("query parses")
        })
        .collect();
    (gw, subs)
}

fn main() {
    header(
        "E16: unified query plane — fan-out, pruning, zero-alloc eval",
        "section 2.2 consumer filters + query mode + archive, one compiled IR",
    );

    let n: u64 = 200_000;
    let events: Vec<SharedEvent> = (0..n).map(|i| Arc::new(sample(i))).collect();
    let mut results: Vec<(&str, f64)> = Vec::new();

    // --- 1. filtered fan-out through query-string subscriptions ---
    let (gw, subs) = fanout_gateway(32);
    let (_, secs) = time(|| {
        for chunk in events.chunks(1_000) {
            gw.publish_shared_batch(chunk);
        }
    });
    let delivered: u64 = subs.iter().map(|s| s.delivered()).sum();
    results.push(("publish_query_subs_kev_per_s", kevps(n, secs)));
    results.push(("query_subs_delivered", delivered as f64));
    drop(subs);
    drop(gw);

    // --- 2. pruned historical scan ---
    let archive = EventArchive::in_memory_with(TsdbOptions {
        memtable_max_events: (n / 32) as usize,
        ..TsdbOptions::default()
    });
    for chunk in events.chunks(1_000) {
        archive.store(chunk).unwrap();
    }
    archive.seal().unwrap();
    let segments = archive.tsdb().segment_count() as u64;

    let full: Vec<Event> = archive.scan_str("(&)").unwrap().collect();
    assert_eq!(full.len(), n as usize);

    // Timestamps run [1_000_000_000, 1_200_000_000) micros; the floor
    // admits the last three quarters of the time axis.
    let selective = "(&(host=dpss1.lbl.gov)(level>=warning)(time>=1050000000))";
    let s0 = archive.stats().segments_scanned();
    let p0 = archive.stats().segments_pruned();
    let (hits, pruned_secs) = time(|| {
        archive
            .scan_str(selective)
            .unwrap()
            .collect::<Vec<Event>>()
            .len()
    });
    let scanned = archive.stats().segments_scanned() - s0;
    let pruned = archive.stats().segments_pruned() - p0;
    assert_eq!(scanned + pruned, segments, "every segment accounted for");
    assert!(
        pruned > 0,
        "the selective query must prune segments (scanned {scanned} of {segments})"
    );
    assert!(hits > 0, "the selective query must still find its events");
    // The severity floor alone must prune: most segments carry only
    // Usage-level readings, and their catalogs' max_level says so.
    let p1 = archive.stats().segments_pruned();
    let warn_hits = archive.scan_str("(level>=error)").unwrap().count();
    assert_eq!(warn_hits, 0, "no errors were stored");
    assert!(
        archive.stats().segments_pruned() - p1 == segments,
        "a level floor above everything stored must prune every segment"
    );
    let (full_hits, full_secs) = time(|| {
        archive
            .scan_str("(&)")
            .unwrap()
            .collect::<Vec<Event>>()
            .len()
    });
    results.push(("scan_full_kev_per_s", kevps(full_hits as u64, full_secs)));
    results.push(("scan_pruned_ms", pruned_secs * 1e3));
    results.push(("segments_scanned", scanned as f64));
    results.push(("segments_pruned", pruned as f64));
    results.push(("selective_hits", hits as f64));

    // --- 3. zero-allocation plan evaluation ---
    let plan = Predicate::parse("(&(type=CPU_TOTAL)(host=dpss1.lbl.gov)(val>50)(onchange))")
        .unwrap()
        .compile();
    // Warm up: first sightings may intern series keys / grow the state map.
    let mut matches = 0u64;
    for e in events.iter().take(10_000) {
        matches += plan.eval(&**e) as u64;
    }
    let evals: u64 = 1_000_000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, eval_secs) = time(|| {
        for _ in 0..(evals / n).max(1) {
            for e in &events {
                matches += plan.eval(&**e) as u64;
            }
        }
    });
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "steady-state Plan::eval must not allocate (saw {allocs} allocations)"
    );
    let evals_done = (evals / n).max(1) * n;
    results.push((
        "plan_eval_mev_per_s",
        kevps(evals_done, eval_secs) / 1_000.0,
    ));
    results.push(("plan_eval_allocations", allocs as f64));
    std::hint::black_box(matches);

    println!("\nmeasured ({n} events, {segments} sealed segments):\n");
    data_row(&[format!("{:<30}", "metric"), format!("{:>14}", "value")]);
    for (k, v) in &results {
        data_row(&[format!("{k:<30}"), format!("{v:>14.1}")]);
    }
    println!();
    compare_row(
        "fan-out via query strings",
        "same plan as builder filters",
        &format!("{:.0}k ev/s into 32 subs", results[0].1),
    );
    compare_row(
        "selective vs full historical scan",
        "host+level+time facts prune",
        &format!("{pruned}/{segments} segments pruned, {hits} hits"),
    );
    compare_row(
        "steady-state plan eval",
        "0 allocations",
        &format!("{allocs} allocations over {evals_done} evals"),
    );
    println!();

    // --- regression guard against the committed baseline ---
    let no_assert = std::env::var_os("JAMM_BENCH_NO_ASSERT").is_some();
    if let Ok(path) = std::env::var("JAMM_BENCH_BASELINE") {
        let root_relative = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&path);
        let doc = std::fs::read_to_string(&path)
            .or_else(|_| std::fs::read_to_string(&root_relative))
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let json = Json::parse(&doc).expect("baseline is valid JSON");
        let obj = json.as_object().expect("baseline is an object");
        let rows = obj
            .get("results")
            .and_then(|r| r.as_object())
            .expect("results object");
        let mut checked = 0;
        for name in [
            "publish_query_subs_kev_per_s",
            "scan_full_kev_per_s",
            "plan_eval_mev_per_s",
        ] {
            let baseline = rows
                .get(name)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("baseline missing {name}"));
            let measured = results
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .expect("measured");
            checked += 1;
            println!("  guard {name:<32} baseline {baseline:>10.1}   measured {measured:>10.1}");
            assert!(
                no_assert || measured * 2.0 >= baseline,
                "{name}: measured {measured:.1} is more than 2x below the \
                 committed baseline {baseline:.1} ({path})"
            );
        }
        println!("\n  regression guard: {checked} checks within 2x of baseline\n");
    }

    if let Ok(path) = std::env::var("JAMM_BENCH_JSON") {
        let mut doc = Map::new();
        doc.insert("target".into(), Json::from("e16_query_plane"));
        doc.insert("events".into(), Json::from(n));
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
