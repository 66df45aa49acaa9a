//! E14 — sharded gateway fan-out vs the flat subscription list.
//!
//! The paper's scalability claim is that "added consumers load the gateway
//! rather than the monitored host" (§2.3) — which requires the gateway
//! itself to absorb consumers without its publish path collapsing.  The
//! original implementation kept every subscription in one mutex-guarded
//! vector scanned linearly per event, so publish cost grew linearly with
//! subscribers even when almost none of them wanted the published type.
//!
//! This bench sweeps 1 → 256 consumers, each subscribed to its own event
//! type (the realistic shape: different tools watch different readings),
//! and measures single-publisher publish throughput against
//!
//! * the **flat list** (`jamm_gateway::FlatFanout`, the pre-sharding
//!   algorithm kept as the reference implementation), and
//! * the **sharded router** (the event-type-indexed table behind
//!   `EventGateway`, default shard count),
//!
//! plus the batched publish path.  Acceptance: sharded publish throughput
//! at 256 subscribers stays within 2x of the 1-subscriber rate, while the
//! flat baseline shows why the rebuild happened.  Baseline recorded in
//! BENCH_e14.json (JAMM_BENCH_JSON=BENCH_e14.json cargo bench --bench
//! e14_gateway_fanout).

use jamm_bench::{compare_row, data_row, header};
use jamm_core::json::{Json, Map};
use jamm_gateway::{EventGateway, FlatFanout, GatewayConfig, OverflowPolicy, Predicate};
use jamm_ulm::{Event, Level, Timestamp};

const SWEEP: [usize; 5] = [1, 4, 16, 64, 256];
const EVENTS_PER_ROUND: u64 = 40_000;
const QUEUE_CAPACITY: usize = 1_024;

fn publish_event(i: u64, types: usize) -> Event {
    Event::builder("vmstat", "node001.farm.lbl.gov")
        .level(Level::Usage)
        .event_type(format!("TYPE_{}", i % types as u64))
        .timestamp(Timestamp::from_micros(i))
        .value((i % 100) as f64)
        .build()
}

fn type_filter(i: usize) -> Predicate {
    Predicate::types([format!("TYPE_{i}")])
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn kevps(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9) / 1_000.0
}

/// Best (fastest) of `n` rounds, after one discarded warm-up round —
/// wall-clock ratios on shared CI runners are only meaningful on the
/// least-descheduled sample of each point.
fn best_of(n: usize, mut round: impl FnMut() -> f64) -> f64 {
    round();
    (0..n).map(|_| round()).fold(f64::MIN, f64::max)
}

/// Flat list: every publish scans all N subscriptions under one lock.
fn flat_round(subscribers: usize) -> f64 {
    let flat = FlatFanout::new();
    let subs: Vec<_> = (0..subscribers)
        .map(|i| flat.subscribe(&type_filter(i), QUEUE_CAPACITY, OverflowPolicy::DropOldest))
        .collect();
    let events: Vec<jamm_ulm::SharedEvent> = (0..EVENTS_PER_ROUND)
        .map(|i| std::sync::Arc::new(publish_event(i, subscribers)))
        .collect();
    let (_, secs) = time(|| {
        for e in &events {
            flat.publish(std::hint::black_box(e));
        }
    });
    drop(subs);
    kevps(EVENTS_PER_ROUND, secs)
}

/// Sharded router: publish touches only the bucket owning the event type.
fn sharded_round(subscribers: usize, batch: Option<usize>) -> f64 {
    let gw = EventGateway::new(GatewayConfig::open("bench-gw"));
    let subs: Vec<_> = (0..subscribers)
        .map(|i| {
            gw.subscribe()
                .filter(type_filter(i))
                .capacity(QUEUE_CAPACITY)
                .as_consumer(format!("c{i}"))
                .open()
                .unwrap()
        })
        .collect();
    let events: Vec<Event> = (0..EVENTS_PER_ROUND)
        .map(|i| publish_event(i, subscribers))
        .collect();
    let (_, secs) = time(|| match batch {
        None => {
            for e in &events {
                gw.publish(std::hint::black_box(e));
            }
        }
        Some(n) => {
            for chunk in events.chunks(n) {
                gw.publish_batch(std::hint::black_box(chunk));
            }
        }
    });
    drop(subs);
    kevps(EVENTS_PER_ROUND, secs)
}

fn main() {
    header(
        "E14: sharded fan-out engine vs flat subscription list",
        "section 2.3 scalability (the gateway must absorb consumers without collapsing)",
    );
    println!(
        "\nsingle publisher, {}k events per round, one typed subscription per consumer:\n",
        EVENTS_PER_ROUND / 1_000
    );
    data_row(&[
        format!("{:>11}", "consumers"),
        format!("{:>16}", "flat kev/s"),
        format!("{:>16}", "sharded kev/s"),
        format!("{:>18}", "batched kev/s"),
    ]);
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &n in &SWEEP {
        let flat = best_of(3, || flat_round(n));
        let sharded = best_of(3, || sharded_round(n, None));
        let batched = best_of(3, || sharded_round(n, Some(256)));
        data_row(&[
            format!("{n:>11}"),
            format!("{flat:>16.0}"),
            format!("{sharded:>16.0}"),
            format!("{batched:>18.0}"),
        ]);
        rows.push((n, flat, sharded, batched));
    }

    let base = rows[0];
    let top = rows[rows.len() - 1];
    let flat_slowdown = base.1 / top.1;
    let sharded_slowdown = base.2 / top.2;
    println!("\npaper vs measured:\n");
    compare_row(
        "publish rate, 1 -> 256 consumers (flat list)",
        "collapses (O(consumers) scan under one lock)",
        &format!("{flat_slowdown:.1}x slower at 256"),
    );
    compare_row(
        "publish rate, 1 -> 256 consumers (sharded)",
        "within 2x of the 1-consumer rate",
        &format!(
            "{sharded_slowdown:.2}x slower at 256 ({})",
            if sharded_slowdown <= 2.0 {
                "PASS"
            } else {
                "FAIL"
            }
        ),
    );
    compare_row(
        "batched publish at 256 consumers",
        "amortises queue locks across the batch",
        &format!("{:.1}x the per-event rate", top.3 / top.2),
    );
    println!();
    // Best-of-3 sampling keeps this stable on shared runners; set
    // JAMM_BENCH_NO_ASSERT to record numbers without enforcing the bound.
    if std::env::var_os("JAMM_BENCH_NO_ASSERT").is_none() {
        assert!(
            sharded_slowdown <= 2.0,
            "sharded publish at 256 subscribers must stay within 2x of the \
             1-subscriber rate (measured {sharded_slowdown:.2}x)"
        );
    }

    if let Ok(path) = std::env::var("JAMM_BENCH_JSON") {
        let mut doc = Map::new();
        doc.insert("target".into(), Json::from("e14_gateway_fanout"));
        doc.insert("events_per_round".into(), Json::from(EVENTS_PER_ROUND));
        doc.insert("queue_capacity".into(), Json::from(QUEUE_CAPACITY as u64));
        let round1 = |v: f64| (v * 10.0).round() / 10.0;
        let mut results = Vec::new();
        for (n, flat, sharded, batched) in &rows {
            let mut row = Map::new();
            row.insert("consumers".into(), Json::from(*n as u64));
            row.insert("flat_kev_per_s".into(), Json::from(round1(*flat)));
            row.insert("sharded_kev_per_s".into(), Json::from(round1(*sharded)));
            row.insert("batched_kev_per_s".into(), Json::from(round1(*batched)));
            results.push(Json::Object(row));
        }
        doc.insert("results".into(), Json::Array(results));
        let mut ratios = Map::new();
        ratios.insert(
            "flat_slowdown_1_to_256".into(),
            Json::from(round1(flat_slowdown)),
        );
        ratios.insert(
            "sharded_slowdown_1_to_256".into(),
            Json::from(round1(sharded_slowdown)),
        );
        doc.insert("ratios".into(), Json::Object(ratios));
        if let Err(e) = std::fs::write(&path, Json::Object(doc).to_pretty() + "\n") {
            eprintln!("could not write {path}: {e}");
        }
    }
}
