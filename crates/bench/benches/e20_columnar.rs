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
//!    read;
//! 3. **the column scan** — one thread scanning 64 e21-shaped segments of
//!    4,096 rows: per scanned row, a selective threshold query (most 64-row
//!    groups skipped) and a query with one match in every group (every
//!    group decoded and walked).
//!
//! e21 sees `eval_batch` and the scan only as a share of `query.*.p50_us`,
//! which is why the kernel rows stay here.  They are wall-clock: printed
//! beside BENCH_e20.json, not asserted.  The one exact row,
//! `colscan_groups_decoded`, counts the groups the selective query decodes
//! on the seeded segments, so a scan that silently stops skipping fails.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm::jamm_core::query::{Aggregator, BatchScratch, ColumnBatch, Predicate, Selection};
use jamm::jamm_core::rng::Rng;
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm::jamm_tsdb::{Tsdb, TsdbOptions};
use jamm_bench::{compare_row, data_row, header, time, Report};
use jamm_ulm::{keys, Event, Level, SharedEvent, Timestamp};

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
            rows: self.ts.len(),
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

/// Rows of the column-scan store: 64 segments of 4,096.
const SCAN_ROWS: u64 = 64 * 4_096;

/// A store of `SCAN_ROWS` events in the e21 fleet's shape: 64 hosts
/// reporting in a seeded order, each tick stamping CPU total (user + sys),
/// user, sys, free memory and one or two TCP counters, every event carrying
/// `SENSOR`, `UNITS` and `VAL`.  Every 64th event is a warning: appended in
/// 1,024-event batches, each 4,096-event segment then holds exactly one in
/// each of its 64-row groups.
fn e21_shaped_store() -> Tsdb {
    let db = Tsdb::in_memory();
    let mut rng = Rng::seed_from_u64(21);
    let mut order: Vec<u64> = (0..64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut pending: Vec<SharedEvent> = Vec::with_capacity(1_024);
    let mut emitted = 0u64;
    for tick in 0u64.. {
        let host = format!("h{:02}.grid", order[(tick % 64) as usize]);
        let (user, sys) = (rng.gen_f64() * 80.0, rng.gen_f64() * 20.0);
        let mut readings = vec![
            (keys::cpu::TOTAL, user + sys, "cpu", "percent"),
            (keys::cpu::USER, user, "cpu", "percent"),
            (keys::cpu::SYS, sys, "cpu", "percent"),
            (
                keys::mem::FREE,
                rng.gen_range(100_000..4_000_000u64) as f64,
                "memory",
                "kilobytes",
            ),
            (
                keys::tcp::RETRANSMITS,
                rng.gen_range(0..1_000u64) as f64,
                "tcp",
                "count",
            ),
        ];
        if rng.gen_bool(0.6) {
            readings.push((
                keys::tcp::WINDOW_SIZE,
                rng.gen_range(1..64u64) as f64,
                "tcp",
                "bytes",
            ));
        }
        for (ty, value, sensor, units) in readings {
            let level = if emitted.is_multiple_of(64) {
                Level::Warning
            } else {
                Level::Usage
            };
            let e = Event::builder("jamm-sensor", &host)
                .level(level)
                .event_type(ty)
                .timestamp(Timestamp::from_micros(1_000_000_000 + tick * 1_000))
                .field(keys::SENSOR, sensor)
                .field(keys::UNITS, units)
                .value(value)
                .build();
            pending.push(Arc::new(e));
            emitted += 1;
            if pending.len() == 1_024 {
                db.append_shared_batch(&pending).unwrap();
                pending.clear();
            }
            if emitted == SCAN_ROWS {
                assert_eq!(db.segment_count(), 64);
                return db;
            }
        }
    }
    unreachable!("the tick loop returns")
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
    let archive = Arc::new(Tsdb::in_memory_with(TsdbOptions {
        memtable_max_events: (n / 32) as usize,
        ..TsdbOptions::default()
    }));
    for chunk in shared.chunks(1_000) {
        archive.append_shared_batch(chunk).unwrap();
    }
    archive.seal().unwrap();

    let gw = Arc::new(EventGateway::new(GatewayConfig::open("e20")));
    gw.register_view("dashboard", QUERY).unwrap();
    for chunk in shared.chunks(1_000) {
        gw.publish_shared_batch(chunk);
    }
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
                        std::hint::black_box(
                            snap.events.len()
                                + snap
                                    .aggregator
                                    .as_ref()
                                    .map(Aggregator::rows)
                                    .map_or(0, |r| r.len()),
                        );
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

    // --- 4. the column scan, one thread ---
    let db = e21_shaped_store();
    let selective = Predicate::parse("(&(type=CPU_TOTAL)(val>97.3))")
        .unwrap()
        .compile();
    let every_group = Predicate::parse("(level>=warning)").unwrap().compile();
    let stats = db.stats();
    let before = stats.scan_groups_decoded();
    let selected = db.scan(&selective).count(); // also builds the row-group indexes
    let groups_decoded = stats.scan_groups_decoded() - before;
    assert_eq!(db.scan(&every_group).count() as u64, SCAN_ROWS / 64);
    let ns_per_row = |plan, scans: u64| {
        let (_, secs) = time(|| {
            for _ in 0..scans {
                std::hint::black_box(db.scan(plan).count());
            }
        });
        secs * 1e9 / (scans * SCAN_ROWS) as f64
    };
    let selective_ns = ns_per_row(&selective, 40);
    let all_ns = ns_per_row(&every_group, 10);
    results.push(("colscan_selective_ns_per_row", selective_ns));
    results.push(("colscan_all_ns_per_row", all_ns));

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
    compare_row(
        "selective vs every-group scan, per row",
        "skipped groups cost their plan's columns only",
        &format!(
            "{selective_ns:.1} vs {all_ns:.1} ns ({selected} rows, {groups_decoded} of {} groups decoded)",
            SCAN_ROWS / 64
        ),
    );
    println!();

    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    report.exact("colscan_groups_decoded", groups_decoded);
    for (k, v) in results {
        report.measured(k, v);
    }
    report.finish();
}
