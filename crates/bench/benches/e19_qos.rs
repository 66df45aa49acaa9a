//! E19 — delivery QoS: tier isolation and priority-aware shedding.
//!
//! PR 9 gave the gateway a delivery-QoS plane: subscriptions are tiered
//! fast/lagging/probation from an EWMA over their delivery counters,
//! lagging tiers run under reduced queue budgets, and declared overload
//! sheds deliveries lowest tier outward while `_jamm` self-lifelines and
//! `*_AVG_*` summary events always pass.  This bench guards the plane's
//! two performance claims:
//!
//! 1. **Isolation** — a fast consumer sharing a gateway with 0, 2, 4 or
//!    8 never-draining co-subscribers keeps its stream lossless, and the
//!    QoS plane's classify-and-budget tax stays within 30% of the bare
//!    gateway's overflow-eviction churn at the same fan-out;
//! 2. **Degradation order** — under declared overload (an external
//!    saturation gauge at 0.8) the probation tier is shed pre-queue, the
//!    fast tier is never cut, protected summary events still reach the
//!    stalled subscribers, and the shed path is not slower than hauling
//!    every delivery through the full queues.
//!
//! Structural assertions (tier assignment, shed attribution, protected
//! delivery, fast-tier losslessness) run inline on every run; the
//! throughput rows are printed beside BENCH_e19.json and not asserted.
//! No e21 workload stalls a consumer, which is why this bench stays.

use std::sync::Arc;

use jamm::jamm_core::EventSource;
use jamm::jamm_gateway::{EventGateway, GatewayConfig, QosConfig, ShedLevel, Subscription, Tier};
use jamm_bench::{compare_row, data_row, header, kevps, Report};
use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

const HOSTS: [&str; 4] = [
    "dpss1.lbl.gov",
    "dpss2.lbl.gov",
    "mems.cairn.net",
    "portnoy.lbl.gov",
];
const TYPES: [&str; 4] = [
    "CPU_TOTAL",
    "MEM_FREE",
    "TCPD_RETRANSMITS",
    "MPLAY_END_READ_FRAME",
];

fn sample(i: u64) -> Event {
    Event::builder("vmstat", HOSTS[(i % 4) as usize])
        .level(Level::Usage)
        .event_type(TYPES[(i % 4) as usize])
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .build()
}

/// A summary event: `*_AVG_*` series are protected — never shed, never
/// budget-cut — so they must reach even a probation subscriber under
/// declared overload.
fn summary(i: u64) -> Event {
    Event::builder("gw", HOSTS[(i % 4) as usize])
        .level(Level::Usage)
        .event_type("CPU_TOTAL_AVG_1M")
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .build()
}

fn best_of(runs: usize, mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..runs).map(|_| f()).fold(
        (0.0, f64::INFINITY),
        |(bt, bp), (t, p)| {
            if t > bt {
                (t, p)
            } else {
                (bt, bp)
            }
        },
    )
}

fn open_fast(gw: &EventGateway) -> Subscription {
    gw.subscribe()
        .stream()
        .capacity(4_096)
        .as_consumer("fast")
        .open()
        .expect("fast subscription opens")
}

fn open_stalled(gw: &EventGateway, n: usize) -> Vec<Subscription> {
    (0..n)
        .map(|k| {
            gw.subscribe()
                .stream()
                .capacity(1_024)
                .as_consumer(format!("stalled{k}"))
                .open()
                .expect("stalled subscription opens")
        })
        .collect()
}

/// Publish everything through a gateway shared with `stalled`
/// never-draining co-subscribers; the fast consumer drains every chunk.
/// Returns (k events/s, p99 chunk latency in us) for the fast consumer.
fn isolation_run(
    stalled: usize,
    qos: bool,
    events: &[SharedEvent],
    drained: &mut Vec<SharedEvent>,
) -> (f64, f64) {
    let mut config = GatewayConfig::open("e19");
    if qos {
        config = config.with_qos(QosConfig::default());
    }
    let gw = EventGateway::new(config);
    let mut fast = open_fast(&gw);
    // Held open for the whole run; never drained.
    let _slow = open_stalled(&gw, stalled);
    drained.clear();
    let mut chunk_us: Vec<u64> = Vec::with_capacity(events.len() / 1_024 + 1);
    let t0 = std::time::Instant::now();
    for chunk in events.chunks(1_024) {
        let c0 = std::time::Instant::now();
        gw.publish_shared_batch(chunk);
        fast.drain_into(drained);
        chunk_us.push(c0.elapsed().as_micros() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        drained.len(),
        events.len(),
        "the fast tier stays lossless with {stalled} stalled co-subscribers (qos={qos})"
    );
    chunk_us.sort_unstable();
    let p99 = chunk_us[(chunk_us.len() - 1) * 99 / 100];
    (kevps(events.len() as u64, secs), p99 as f64)
}

/// Publish a burst through a gateway whose 8 co-subscribers are already
/// in probation, with the overload machine either declared (external
/// saturation 0.8 => shed probation pre-queue) or idle (every delivery
/// hauled through the budget-capped queues).  Returns the fast
/// consumer's throughput; structural claims are asserted inline.
fn overload_run(
    shed: bool,
    events: &[SharedEvent],
    summaries: &[SharedEvent],
    drained: &mut Vec<SharedEvent>,
) -> f64 {
    let gw = EventGateway::new(GatewayConfig::open("e19").with_qos(QosConfig::default()));
    let mut fast = open_fast(&gw);
    let mut slow = open_stalled(&gw, 8);
    // Warm-up: fill the stalled queues, then walk the classifier until
    // every stalled subscription is in probation (EWMA alpha 0.5 crosses
    // probation_enter=0.6 within a few passes at fill 1.0).
    for chunk in events[..8_192.min(events.len())].chunks(1_024) {
        gw.publish_shared_batch(chunk);
        fast.drain_into(drained);
    }
    for _ in 0..6 {
        gw.retier_now();
    }
    for row in gw.tier_report() {
        if row.consumer.starts_with("stalled") {
            assert_eq!(
                row.tier,
                Tier::Probation,
                "{} classified probation after warm-up (score {:.2})",
                row.consumer,
                row.score
            );
        }
    }
    if shed {
        gw.set_external_pressure(0.8);
        gw.retier_now();
        let snap = gw.qos_snapshot().expect("qos plane attached");
        assert_eq!(
            snap.level,
            ShedLevel::Probation,
            "external saturation 0.8 declares probation-level shed"
        );
    }
    let tail = &events[8_192.min(events.len())..];
    drained.clear();
    let t0 = std::time::Instant::now();
    for (k, chunk) in tail.chunks(1_024).enumerate() {
        gw.publish_shared_batch(chunk);
        if k % 16 == 0 {
            gw.publish_shared_batch(&summaries[..1]);
        }
        fast.drain_into(drained);
    }
    let secs = t0.elapsed().as_secs_f64();
    let snap = gw.qos_snapshot().expect("qos plane attached");
    assert_eq!(snap.shed[0], 0, "the fast tier is never shed");
    assert_eq!(
        snap.shed[1], 0,
        "nothing was classified lagging, nothing shed as lagging"
    );
    if shed {
        assert!(
            snap.shed[2] > 0,
            "declared overload sheds probation deliveries (shed {:?})",
            snap.shed
        );
        // Protected summaries bypass both the shed gate and the queue
        // budget: every stalled subscriber still received every one.
        let mut probe: Vec<SharedEvent> = Vec::new();
        let first = &mut slow[0];
        probe.extend(first.drain());
        let got = probe
            .iter()
            .filter(|e| e.event_type.contains("_AVG_"))
            .count();
        let sent = tail
            .chunks(1_024)
            .enumerate()
            .filter(|(k, _)| k % 16 == 0)
            .count();
        assert_eq!(
            got, sent,
            "a probation subscriber still receives the protected summary stream under shed"
        );
    }
    kevps(tail.len() as u64, secs)
}

fn main() {
    header(
        "E19: delivery QoS — tier isolation and priority-aware shedding",
        "one stalled consumer must not cost the fast tier its stream",
    );

    let n: u64 = 200_000;
    let events: Vec<SharedEvent> = (0..n).map(|i| Arc::new(sample(i))).collect();
    let summaries: Vec<SharedEvent> = (0..64).map(|i| Arc::new(summary(i))).collect();
    let mut drained: Vec<SharedEvent> = Vec::with_capacity(events.len());
    let runs = 3;
    let mut results: Vec<(String, f64)> = Vec::new();

    // --- 1. isolation sweep: 0..8 stalled co-subscribers, qos on ---
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new();
    for stalled in [0usize, 2, 4, 8] {
        let (thr, p99) = best_of(runs, || isolation_run(stalled, true, &events, &mut drained));
        results.push((format!("fast_kev_per_s_{stalled}stalled"), thr));
        results.push((format!("fast_p99_us_{stalled}stalled"), p99));
        sweep.push((stalled, thr, p99));
    }
    // The same worst-case fan-out without a QoS plane: bare overflow
    // eviction on every stalled queue.
    let (noqos, _) = best_of(runs, || isolation_run(8, false, &events, &mut drained));
    results.push(("noqos_fast_kev_per_s_8stalled".into(), noqos));
    let qos8 = sweep[3].1;

    // --- 2. declared overload: shed vs haul-everything ---
    let (shed_thr, _) = best_of(runs, || {
        (overload_run(true, &events, &summaries, &mut drained), 0.0)
    });
    let (noshed_thr, _) = best_of(runs, || {
        (overload_run(false, &events, &summaries, &mut drained), 0.0)
    });
    results.push(("burst_shed_kev_per_s".into(), shed_thr));
    results.push(("burst_noshed_kev_per_s".into(), noshed_thr));

    println!("\nmeasured ({n} events/run, best of {runs}):\n");
    data_row(&[format!("{:<34}", "metric"), format!("{:>14}", "value")]);
    for (k, v) in &results {
        data_row(&[format!("{k:<34}"), format!("{v:>14.1}")]);
    }
    println!();
    compare_row(
        "8 stalled co-subscribers, qos on vs off",
        "tiering tax bounded vs eviction churn",
        &format!("{qos8:.0}k vs {noqos:.0}k ev/s"),
    );
    compare_row(
        "declared overload, shed vs haul",
        "shedding is not slower",
        &format!("{shed_thr:.0}k vs {noshed_thr:.0}k ev/s"),
    );
    println!();

    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    for (k, v) in results {
        report.measured(k, v);
    }
    report.finish();
}
