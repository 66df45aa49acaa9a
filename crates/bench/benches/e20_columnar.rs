//! E20 — columnar execution + continuous queries: vectorized plan
//! evaluation over column batches, and materialized-view snapshot reads
//! vs rescanning at dashboard fan-in.
//!
//! The columnar refactor gives the query plane two fast paths and this
//! bench times both:
//!
//! 1. **vectorized eval** — `Plan::eval_batch` over dictionary-encoded
//!    column batches vs per-row `Plan::eval` on the same type/host/
//!    level/VAL mix; the design target is a >= 3x advantage (that both
//!    run allocation-free is asserted by `tests/zero_alloc.rs`);
//! 2. **continuous queries** — 32 concurrent readers taking snapshots of
//!    one incrementally-maintained view vs 32 readers re-scanning the
//!    archive for the same predicate; the design target is >= 10x per
//!    read.
//!
//! e21 sees `eval_batch` only as a share of `query.*.p50_us`, which is why
//! the kernel rows stay here.  Every row is wall-clock: printed beside
//! BENCH_e20.json, not asserted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm::jamm_archive::EventArchive;
use jamm::jamm_core::query::{BatchScratch, ColumnBatch, Predicate, Selection};
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm::jamm_tsdb::TsdbOptions;
use jamm_bench::{compare_row, data_row, header, time, Report};
use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

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

fn mevps(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9) / 1_000_000.0
}

/// One owned column batch of `ROWS` rows, the shape JSG3 segments decode
/// into; borrows out as a [`ColumnBatch`] per evaluation.
struct OwnedBatch {
    ts: Vec<u64>,
    hosts: Vec<u32>,
    types: Vec<u32>,
    levels: Vec<u8>,
    vals: Vec<f64>,
    present: Vec<u64>,
    dict: Vec<String>,
}

impl OwnedBatch {
    fn view(&self) -> ColumnBatch<'_> {
        ColumnBatch {
            ts_micros: &self.ts,
            host_ids: &self.hosts,
            type_ids: &self.types,
            levels: &self.levels,
            values: &self.vals,
            val_present: &self.present,
            dict: &self.dict,
        }
    }
}

fn columnarize(events: &[Event], rows_per_batch: usize) -> Vec<OwnedBatch> {
    events
        .chunks(rows_per_batch)
        .map(|chunk| {
            let mut b = OwnedBatch {
                ts: Vec::new(),
                hosts: Vec::new(),
                types: Vec::new(),
                levels: Vec::new(),
                vals: Vec::new(),
                present: vec![0u64; chunk.len().div_ceil(64)],
                dict: Vec::new(),
            };
            let id = |dict: &mut Vec<String>, s: &str| -> u32 {
                match dict.iter().position(|d| d == s) {
                    Some(i) => i as u32,
                    None => {
                        dict.push(s.to_string());
                        (dict.len() - 1) as u32
                    }
                }
            };
            for (i, e) in chunk.iter().enumerate() {
                b.ts.push(e.timestamp.as_micros());
                let h = id(&mut b.dict, &e.host);
                b.hosts.push(h);
                let t = id(&mut b.dict, &e.event_type);
                b.types.push(t);
                b.levels.push(e.level.severity());
                match e.value() {
                    Some(v) => {
                        b.vals.push(v);
                        b.present[i / 64] |= 1u64 << (i % 64);
                    }
                    None => b.vals.push(0.0),
                }
            }
            b
        })
        .collect()
}

/// The dashboard predicate every tier answers: a type/host/level/VAL mix.
const QUERY: &str =
    "(&(|(type=CPU_TOTAL)(type=MEM_FREE))(host=dpss1.lbl.gov)(level>=usage)(val>50))";

fn main() {
    header(
        "E20: columnar execution — vectorized eval, view snapshots vs rescan",
        "column batches + continuous queries on the unified plan IR",
    );

    let n: u64 = 200_000;
    let events: Vec<Event> = (0..n).map(sample).collect();
    let shared: Vec<SharedEvent> = events.iter().map(|e| Arc::new(e.clone())).collect();
    let mut results: Vec<(&str, f64)> = Vec::new();

    // --- 1. row-oriented baseline: Plan::eval per event ---
    let plan = Predicate::parse(QUERY).unwrap().compile();
    let passes: u64 = 10;
    let mut row_hits = 0u64;
    for e in events.iter().take(10_000) {
        row_hits += plan.eval(e) as u64; // warm-up
    }
    let (_, row_secs) = time(|| {
        for _ in 0..passes {
            for e in &events {
                row_hits += plan.eval(e) as u64;
            }
        }
    });
    let row_mevps = mevps(passes * n, row_secs);
    results.push(("row_eval_mev_per_s", row_mevps));

    // --- 2. vectorized: Plan::eval_batch over column batches ---
    let batches = columnarize(&events, 4096);
    assert!(
        plan.batch_definite(),
        "the dashboard mix is batch-decidable"
    );
    let mut sel = Selection::new();
    let mut scratch = BatchScratch::new();
    let mut batch_hits = 0u64;
    for b in &batches {
        plan.eval_batch(&b.view(), &mut sel, &mut scratch); // warm-up
        batch_hits += sel.count() as u64;
    }
    let (_, batch_secs) = time(|| {
        for _ in 0..passes {
            for b in &batches {
                plan.eval_batch(&b.view(), &mut sel, &mut scratch);
                batch_hits += sel.count() as u64;
            }
        }
    });
    let batch_mevps = mevps(passes * n, batch_secs);
    let speedup = batch_mevps / row_mevps.max(1e-9);
    results.push(("batch_eval_mev_per_s", batch_mevps));
    results.push(("batch_eval_speedup", speedup));
    // Both evaluators counted the same matches (the plan is stateless and
    // batch-definite, so the selection is exact).
    assert_eq!(batch_hits % (passes + 1), 0);
    std::hint::black_box((row_hits, batch_hits));

    // --- 3. 32 readers: view snapshots vs archive rescans ---
    let archive = Arc::new(EventArchive::in_memory_with(TsdbOptions {
        memtable_max_events: (n / 32) as usize,
        ..TsdbOptions::default()
    }));
    for chunk in shared.chunks(1_000) {
        archive.store(chunk).unwrap();
    }
    archive.seal().unwrap();

    let gw = Arc::new(EventGateway::new(GatewayConfig::open("e20")));
    gw.register_view("dashboard", QUERY).unwrap();
    for chunk in shared.chunks(1_000) {
        gw.publish_shared_batch(chunk);
    }
    gw.views().flush();
    let view = gw.views().by_name("dashboard").unwrap();
    assert!(view.updates() > 0, "the view saw the publish stream");

    const READERS: usize = 32;
    let reads_each: u64 = 2_000;
    let (_, read_secs) = time(|| {
        std::thread::scope(|s| {
            for r in 0..READERS {
                let gw = Arc::clone(&gw);
                s.spawn(move || {
                    let who = format!("dash{r}");
                    for _ in 0..reads_each {
                        let snap = gw.view_snapshot(&who, "dashboard").unwrap();
                        std::hint::black_box(snap.events.len() + snap.aggregates.len());
                    }
                });
            }
        });
    });
    let reads_kops = READERS as f64 * reads_each as f64 / read_secs.max(1e-9) / 1_000.0;

    let scans_each: u64 = 3;
    let (scan_hits, scan_secs) = time(|| {
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                let archive = Arc::clone(&archive);
                let hits = &hits;
                s.spawn(move || {
                    for _ in 0..scans_each {
                        let plan = Predicate::parse(QUERY).unwrap().compile();
                        hits.fetch_add(archive.scan(&plan).count() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        hits.into_inner()
    });
    assert!(scan_hits > 0, "the rescan tier must find its events");
    let scans_kops = READERS as f64 * scans_each as f64 / scan_secs.max(1e-9) / 1_000.0;
    let view_speedup = reads_kops / scans_kops.max(1e-9);
    results.push(("view_reads_kops_per_s", reads_kops));
    results.push(("rescan_kops_per_s", scans_kops));
    results.push(("view_over_rescan", view_speedup));

    println!("\nmeasured ({n} events, {READERS} readers):\n");
    data_row(&[format!("{:<30}", "metric"), format!("{:>14}", "value")]);
    for (k, v) in &results {
        data_row(&[format!("{k:<30}"), format!("{v:>14.1}")]);
    }
    println!();
    compare_row(
        "vectorized vs row-oriented eval",
        ">= 3x on the type/host/level/VAL mix",
        &format!("{speedup:.1}x ({batch_mevps:.0} vs {row_mevps:.0} Mev/s)"),
    );
    compare_row(
        "view snapshots vs rescans (32 readers)",
        ">= 10x per read",
        &format!("{view_speedup:.0}x ({reads_kops:.0}k vs {scans_kops:.2}k ops/s)"),
    );
    println!();

    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    for (k, v) in results {
        report.measured(k, v);
    }
    report.finish();
}
