//! E7 — §2.3 scalability: event gateways absorb consumer fan-out.
//!
//! Paper: "In the case where many consumers are requesting the same event
//! data, the use of an event gateway reduces the amount of work on and the
//! amount of network traffic from the host being monitored. ...  one can add
//! additional event gateways, and additional sensor directories as needed,
//! reducing the load where necessary."
//!
//! The experiment runs the `jamm::testbed::farm` spec with extra
//! subscribers and measures, as the number of consumers grows: (a) events
//! published by the monitored hosts' sensors (should stay flat), (b) event
//! copies delivered to the consumers (grows with consumers, absorbed by
//! the gateway), and (c) the same with the consumer load spread over more
//! gateways.  The Criterion
//! part measures raw gateway publish throughput at different subscriber
//! counts, and the one cost of the metrics plane that no e21 metric
//! isolates (e21's `trace.overhead_pct` covers sampled lifelines, not
//! this): one pass of the metric record path (counter, gauge, histogram,
//! unwatched-event ring scan).

use std::sync::Arc;

use jamm::jamm_netsim::spec::SubscriberDecl;
use jamm::testbed::{self, ScenarioEngine};
use jamm_bench::harness::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use jamm_bench::{compare_row, data_row, header};
use jamm_core::obs::MetricsRegistry;
use jamm_gateway::{EventGateway, GatewayConfig, PipelineTracer};
use jamm_ulm::{Event, Level, Timestamp};

fn fanout_report() {
    header(
        "E7: gateway fan-out and scaling",
        "section 2.3 scalability argument (gateways shield the monitored hosts)",
    );
    println!("\n16-node monitored farm, 5 simulated seconds per row:\n");
    data_row(&[
        format!("{:>10}", "consumers"),
        format!("{:>10}", "gateways"),
        format!("{:>22}", "sensor events published"),
        format!("{:>22}", "event copies delivered"),
        format!("{:>26}", "delivered per gateway"),
    ]);
    let mut published_counts = Vec::new();
    for &(consumers, gateways) in &[(0usize, 1usize), (1, 1), (4, 1), (16, 1), (16, 2), (16, 4)] {
        let mut spec = testbed::farm(16, gateways).unwrap();
        spec.seed = 99;
        spec.duration_us = 5_000_000;
        let via: Vec<String> = (0..gateways)
            .map(|g| format!("gw{g}.farm.lbl.gov:8765"))
            .collect();
        for i in 0..consumers {
            spec.subscribers.push(SubscriberDecl {
                name: format!("consumer-{i}"),
                host: "gw0.farm.lbl.gov".into(),
                via: via.clone(),
                drain_us: 100_000,
                capacity: 4_096,
                cpu_of: None,
            });
        }
        let report = ScenarioEngine::new(spec).unwrap().run();
        let published = report.published;
        let delivered: u64 = report.consumers.iter().map(|c| c.delivered).sum();
        published_counts.push(published);
        data_row(&[
            format!("{consumers:>10}"),
            format!("{gateways:>10}"),
            format!("{published:>22}"),
            format!("{delivered:>22}"),
            format!("{:>26.0}", delivered as f64 / gateways as f64),
        ]);
    }
    println!("\npaper vs measured:\n");
    let flat = published_counts.iter().max().unwrap() - published_counts.iter().min().unwrap();
    compare_row(
        "work on monitored hosts as consumers grow",
        "unchanged (gateway absorbs fan-out)",
        &format!("spread of {flat} events across 0-16 consumers"),
    );
    compare_row(
        "adding gateways",
        "reduces per-gateway load",
        "delivered-per-gateway column falls as gateways are added",
    );
    println!();
}

fn publish_event(i: u64) -> Event {
    Event::builder("vmstat", "node001.farm.lbl.gov")
        .level(Level::Usage)
        .event_type("CPU_TOTAL")
        .timestamp(Timestamp::from_micros(i))
        .value((i % 100) as f64)
        .build()
}

/// Publish into a gateway with `subscribers` wildcard subscriptions.
fn publish_and_drain(b: &mut Bencher, config: GatewayConfig, subscribers: usize) {
    let gw = EventGateway::new(config);
    let subs: Vec<_> = (0..subscribers)
        .map(|i| gw.subscribe().as_consumer(format!("c{i}")).open().unwrap())
        .collect();
    let mut i = 0u64;
    b.iter(|| {
        i += 1;
        gw.publish(std::hint::black_box(&publish_event(i)));
        // Drain periodically; the bounded queues would otherwise
        // overwrite and count drops, skewing the comparison.
        if i.is_multiple_of(1_024) {
            for s in &subs {
                while s.events.try_recv().is_ok() {}
            }
        }
    });
}

fn bench_gateway_publish(c: &mut Criterion) {
    fanout_report();
    let mut group = c.benchmark_group("gateway_publish_throughput");
    for subscribers in [0usize, 1, 8, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(subscribers),
            &subscribers,
            |b, &n| publish_and_drain(b, GatewayConfig::open("bench-gw"), n),
        );
    }
    group.finish();
}

fn bench_metrics_plane(c: &mut Criterion) {
    c.bench_function("metric_record_path", |b| {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("e7_ops");
        let gauge = registry.gauge("e7_level");
        let hist = registry.histogram("e7_us");
        let sink = Arc::new(EventGateway::new(GatewayConfig::open("_jamm")));
        let tracer = PipelineTracer::new(sink, "bench-host", 64);
        let unwatched = Arc::new(publish_event(7));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            counter.inc();
            gauge.set(i as f64);
            hist.record(i & 0xFFFF);
            tracer.trace_id(&unwatched)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_gateway_publish, bench_metrics_plane
}
criterion_main!(benches);
