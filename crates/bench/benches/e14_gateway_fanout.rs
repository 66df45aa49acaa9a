//! E14 — gateway fan-out across a 1 → 256 consumer sweep.
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
//! and measures single-publisher publish throughput through the router
//! (the event-type-indexed table behind `EventGateway`), per event and
//! batched.  The design target: the rate at
//! 256 subscribers stays within 2x of the 1-subscriber rate.  (The flat
//! list this replaced fell 41x over the same sweep; docs/ARCHITECTURE.md
//! keeps that figure.)  e21's `stream_edge` has 17 subscriptions and no
//! sweep, which is why this bench stays.  Baseline: BENCH_e14.json; its
//! per-event rows keep the `sharded_` prefix they were recorded under.

use jamm_bench::{best_of, compare_row, data_row, header, kevps, time, Report};
use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
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

/// One round: publish touches only the bucket of the event's type.
fn typed_round(subscribers: usize, batch: Option<usize>) -> f64 {
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
        "E14: fan-out engine, 1 to 256 typed subscriptions",
        "section 2.3 scalability (the gateway must absorb consumers without collapsing)",
    );
    println!(
        "\nsingle publisher, {}k events per round, one typed subscription per consumer:\n",
        EVENTS_PER_ROUND / 1_000
    );
    data_row(&[
        format!("{:>11}", "consumers"),
        format!("{:>16}", "kev/s"),
        format!("{:>18}", "batched kev/s"),
    ]);
    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    let mut rows: Vec<(f64, f64)> = Vec::new();
    for &n in &SWEEP {
        let per_event = best_of(3, || typed_round(n, None));
        let batched = best_of(3, || typed_round(n, Some(256)));
        data_row(&[
            format!("{n:>11}"),
            format!("{per_event:>16.0}"),
            format!("{batched:>18.0}"),
        ]);
        report.measured(format!("sharded_kev_per_s_{n}"), per_event);
        report.measured(format!("batched_kev_per_s_{n}"), batched);
        rows.push((per_event, batched));
    }

    let base = rows[0];
    let top = rows[rows.len() - 1];
    let slowdown = base.0 / top.0;
    report.measured("sharded_slowdown_1_to_256", slowdown);
    println!("\npaper vs measured:\n");
    compare_row(
        "publish rate, 1 -> 256 consumers",
        "within 2x of the 1-consumer rate",
        &format!("{slowdown:.2}x slower at 256"),
    );
    compare_row(
        "batched publish at 256 consumers",
        "amortises queue locks across the batch",
        &format!("{:.1}x the per-event rate", top.1 / top.0),
    );
    println!();
    report.finish();
}
