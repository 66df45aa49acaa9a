//! E10 — §2.2 gateway filtering and summary data.
//!
//! Paper: "the netstat sensor may output the value of the TCP retransmission
//! counter every second, but most consumers only want to be notified when
//! the counter changes"; "a consumer can also request that an event be sent
//! only if its value crosses a certain threshold ... CPU load becomes
//! greater than 50%, or if load changes by more than 20%"; "it can compute
//! 1, 10, and 60 minute averages of CPU usage".
//!
//! The report measures the delivered-volume reduction of each filter on a
//! realistic sensor stream; the Criterion bench measures the per-event cost
//! of a filtered publish (which also keeps the summary readings).

use jamm_bench::harness::{criterion_group, criterion_main, Criterion};
use jamm_bench::{compare_row, header};
use jamm_core::query::ValueCmp;
use jamm_core::rng::Rng;
use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
use jamm_ulm::{Event, Level, Timestamp};

/// A realistic hour of 1 Hz sensor readings: CPU load wandering around 35%
/// with occasional bursts, and a retransmission counter that only changes
/// during the bursts.
fn sensor_stream() -> Vec<Event> {
    let mut rng = Rng::seed_from_u64(10);
    let mut events = Vec::new();
    let mut retrans_counter = 0u64;
    let mut load = 30.0f64;
    for t in 0..3_600u64 {
        let bursting = (600..700).contains(&t) || (2_000..2_150).contains(&t);
        load += rng.gen_range(-3.0..3.0) + if bursting { 10.0 } else { 0.0 };
        load = load.clamp(2.0, 98.0);
        if !bursting {
            load = load.min(49.0);
        }
        events.push(
            Event::builder("vmstat", "mems.cairn.net")
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .timestamp(Timestamp::from_secs(1_000 + t))
                .value(load)
                .build(),
        );
        if bursting && rng.gen_bool(0.3) {
            retrans_counter += rng.gen_range(1u64..4);
        }
        events.push(
            Event::builder("netstat", "mems.cairn.net")
                .level(Level::Usage)
                .event_type("NETSTAT_RETRANS")
                .timestamp(Timestamp::from_secs(1_000 + t))
                .value(retrans_counter)
                .build(),
        );
    }
    events
}

/// Publish `stream` through a fresh gateway with one subscription
/// filtered by `filters`: how many events it delivered, and the gateway.
fn publish_through(filters: Vec<Predicate>, stream: &[Event]) -> (usize, EventGateway) {
    let gw = EventGateway::new(GatewayConfig::open("gw"));
    let sub = gw
        .subscribe()
        .stream()
        .filter(Predicate::And(filters))
        .as_consumer("c")
        .open()
        .unwrap();
    for e in stream {
        gw.publish(e);
    }
    let delivered = sub.events.try_iter().count();
    (delivered, gw)
}

fn delivered_with(filters: Vec<Predicate>, stream: &[Event]) -> usize {
    publish_through(filters, stream).0
}

fn report(stream: &[Event]) {
    header(
        "E10: event-volume reduction from gateway filters and summaries",
        "section 2.2 gateway filtering (on-change, thresholds, 1/10/60-minute averages)",
    );
    let total = stream.len();
    let (unfiltered, gw) = publish_through(vec![], stream);
    let on_change = delivered_with(
        vec![Predicate::types(["NETSTAT_RETRANS"]), Predicate::OnChange],
        stream,
    );
    let raw_counter = delivered_with(vec![Predicate::types(["NETSTAT_RETRANS"])], stream);
    let above_50 = delivered_with(
        vec![
            Predicate::types(["CPU_TOTAL"]),
            Predicate::val(ValueCmp::Gt, 50.0),
        ],
        stream,
    );
    let change_20pct = delivered_with(
        vec![
            Predicate::types(["CPU_TOTAL"]),
            Predicate::RelativeChange(0.2),
        ],
        stream,
    );

    println!("\none hour of 1 Hz CPU + netstat readings ({total} events published):\n");
    compare_row(
        "no filter",
        "every event delivered",
        &format!("{unfiltered} events"),
    );
    compare_row(
        "retransmission counter, on-change only",
        "most samples suppressed",
        &format!(
            "{on_change} of {raw_counter} counter readings ({:.1}%)",
            100.0 * on_change as f64 / raw_counter as f64
        ),
    );
    compare_row(
        "CPU load > 50% threshold",
        "only the interesting readings",
        &format!("{above_50} events"),
    );
    compare_row(
        "CPU load changes by > 20%",
        "only significant changes",
        &format!("{change_20pct} events"),
    );

    // Summary data: the 1/10/60 minute averages the unfiltered gateway kept.
    let now = Timestamp::from_secs(1_000 + 3_600);
    let summaries = gw
        .summaries("c", &Predicate::everything().compile(), now)
        .unwrap();
    compare_row(
        "summary service output",
        "1, 10 and 60 minute averages",
        &format!(
            "{} summary events replace {} raw readings",
            summaries.len(),
            total
        ),
    );
    println!();
}

fn bench_filters_and_summaries(c: &mut Criterion) {
    let stream = sensor_stream();
    report(&stream);

    c.bench_function("gateway_publish_with_threshold_filter", |b| {
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let _sub = gw
            .subscribe()
            .filter(Predicate::val(ValueCmp::Gt, 50.0))
            .as_consumer("c")
            .open()
            .unwrap();
        let mut i = 0usize;
        b.iter(|| {
            gw.publish(std::hint::black_box(&stream[i % stream.len()]));
            i += 1;
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_filters_and_summaries
}
criterion_main!(benches);
