//! E15 — the zero-copy event pipeline.
//!
//! The paper's scaling claim is that "added consumers load the gateway
//! rather than the monitored host" (§2.3).  PR 3 made fan-out *lookups*
//! O(1); this bench proves the remaining per-subscriber cost is gone too:
//! publishing a `SharedEvent` to N subscribers performs **zero** event
//! deep-clones (fan-out bumps `Arc` refcounts), and the text encoder
//! reuses one buffer instead of allocating per line.
//!
//! Two measurements:
//!
//! 1. **fan-out sweep** — publish throughput at 1 → 256 wildcard
//!    subscribers on the shared (`publish_shared`) and by-value
//!    (`publish`) paths, with `jamm_ulm::deep_clone_count()` /
//!    `deep_clone_bytes()` deltas recorded across each timed loop.  The
//!    shared path must copy **nothing**; the by-value path copies exactly
//!    once per publish (its entry allocation), never per subscriber.
//! 2. **encode reuse** — `text::encode` (fresh `String` per line) vs
//!    `text::encode_into` (one reused buffer).
//!
//! The publish → archive pipeline this bench used to time is e21's
//! `full_pipeline` workload (`ulm.deep_clones` must read 0 there), and
//! `tests/prop_zero_copy.rs` asserts the archiver stores the stream at zero
//! deep clones; what e21 has no workload for is the 1 → 256 subscriber
//! sweep.  The deep-clone counts are exact rows: they must equal
//! BENCH_e15.json.

use jamm_bench::{best_of, compare_row, data_row, header, kevps, time, Report};
use jamm_gateway::{EventGateway, GatewayConfig};
use jamm_ulm::{deep_clone_bytes, deep_clone_count, text, Event, Level, SharedEvent, Timestamp};

const SWEEP: [usize; 4] = [1, 16, 64, 256];
const EVENTS_PER_ROUND: u64 = 20_000;
/// Deep enough that no delivery is dropped mid-round.
const QUEUE_CAPACITY: usize = 32_768;

fn sample(i: u64) -> Event {
    Event::builder("vmstat", "node001.farm.lbl.gov")
        .level(Level::Usage)
        .event_type(["CPU_TOTAL", "MEM_FREE", "TCPD_RETRANSMITS"][(i % 3) as usize])
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .field("SAMPLE", i)
        .build()
}

fn shared_events(n: u64) -> Vec<SharedEvent> {
    (0..n).map(|i| SharedEvent::new(sample(i))).collect()
}

/// Run one fan-out round; returns (kev/s, deep clones, bytes copied)
/// observed across the timed publish loop.
fn fanout_round(subscribers: usize, shared: bool) -> (f64, u64, u64) {
    let gw = EventGateway::new(GatewayConfig::open("bench-gw"));
    let subs: Vec<_> = (0..subscribers)
        .map(|i| {
            gw.subscribe()
                .capacity(QUEUE_CAPACITY)
                .as_consumer(format!("c{i}"))
                .open()
                .unwrap()
        })
        .collect();
    let events = shared_events(EVENTS_PER_ROUND);
    let clones0 = deep_clone_count();
    let bytes0 = deep_clone_bytes();
    let (_, secs) = time(|| {
        if shared {
            for e in &events {
                gw.publish_shared(SharedEvent::clone(std::hint::black_box(e)));
            }
        } else {
            for e in &events {
                gw.publish(std::hint::black_box(e));
            }
        }
    });
    let clones = deep_clone_count() - clones0;
    let bytes = deep_clone_bytes() - bytes0;
    assert_eq!(
        gw.stats()
            .events_out
            .load(std::sync::atomic::Ordering::Relaxed),
        EVENTS_PER_ROUND * subscribers as u64,
        "every subscriber received every event"
    );
    drop(subs);
    (kevps(EVENTS_PER_ROUND, secs), clones, bytes)
}

/// Text encoding: fresh `String` per line vs one reused buffer.
fn encode_round() -> (f64, f64) {
    let events: Vec<Event> = (0..EVENTS_PER_ROUND).map(sample).collect();
    let (total, fresh_secs) = time(|| {
        let mut total = 0usize;
        for e in &events {
            total += text::encode(std::hint::black_box(e)).len();
        }
        total
    });
    let mut line = String::new();
    let (reused_total, reused_secs) = time(|| {
        let mut total = 0usize;
        for e in &events {
            line.clear();
            text::encode_into(&mut line, std::hint::black_box(e));
            total += line.len();
        }
        total
    });
    assert_eq!(total, reused_total, "identical bytes either way");
    (
        kevps(EVENTS_PER_ROUND, fresh_secs),
        kevps(EVENTS_PER_ROUND, reused_secs),
    )
}

fn main() {
    header(
        "E15: zero-copy pipeline — Arc-shared events, interned symbols, reused buffers",
        "section 2.3 scalability: per-subscriber publish cost must be O(1) in allocations",
    );

    println!(
        "\nfan-out sweep, {}k events per round, wildcard subscribers:\n",
        EVENTS_PER_ROUND / 1_000
    );
    data_row(&[
        format!("{:>11}", "subscribers"),
        format!("{:>15}", "shared kev/s"),
        format!("{:>17}", "by-value kev/s"),
        format!("{:>14}", "shared clones"),
        format!("{:>15}", "by-value clones"),
    ]);
    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    for &n in &SWEEP {
        let mut shared_clones = 0u64;
        let mut shared_bytes = 0u64;
        let shared = best_of(3, || {
            let (kev, clones, bytes) = fanout_round(n, true);
            shared_clones = clones;
            shared_bytes = bytes;
            kev
        });
        let mut byvalue_clones = 0u64;
        let byvalue = best_of(3, || {
            let (kev, clones, _) = fanout_round(n, false);
            byvalue_clones = clones;
            kev
        });
        data_row(&[
            format!("{n:>11}"),
            format!("{shared:>15.0}"),
            format!("{byvalue:>17.0}"),
            format!("{shared_clones:>14}"),
            format!("{byvalue_clones:>15}"),
        ]);
        // The acceptance criterion: fan-out performs zero per-subscriber
        // deep clones.  The shared path copies nothing at all — count
        // AND bytes — at every sweep point, including 256 subscribers.
        assert_eq!(
            (shared_clones, shared_bytes),
            (0, 0),
            "shared publish to {n} subscribers must deep-clone nothing"
        );
        // The by-value path pays exactly its entry copy: one clone per
        // publish, independent of subscriber count.
        assert_eq!(
            byvalue_clones, EVENTS_PER_ROUND,
            "by-value publish clones once per event, never per subscriber"
        );
        report.measured(format!("shared_kev_per_s_{n}"), shared);
        report.measured(format!("byvalue_kev_per_s_{n}"), byvalue);
        report.exact(format!("shared_deep_clones_{n}"), shared_clones);
        report.exact(format!("shared_deep_clone_bytes_{n}"), shared_bytes);
        report.exact(format!("byvalue_deep_clones_{n}"), byvalue_clones);
    }

    let (encode_fresh, encode_reused) = encode_round();
    report.measured("encode_fresh_kev_per_s", encode_fresh);
    report.measured("encode_reused_kev_per_s", encode_reused);

    println!("\npaper vs measured:\n");
    compare_row(
        "event copies per publish at 256 subscribers",
        "0 (consumers load the gateway, not the event)",
        "0 deep clones, 0 bytes copied (asserted at every sweep point)",
    );
    compare_row(
        "text encode, reused buffer vs fresh string",
        "no per-line allocation",
        &format!("{encode_reused:.0} vs {encode_fresh:.0} kev/s"),
    );
    println!();
    report.finish();
}
