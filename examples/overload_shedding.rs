//! Delivery QoS under a publish burst: tiering, queue budgets, and
//! priority-aware shedding.
//!
//! Builds a two-consumer deployment with a QoS plane on the gateway and
//! drives a burst through it.  The `ops` collector drains every round;
//! `trend` never polls, so the tier classifier walks it fast ->
//! lagging -> probation, its queue budget shrinks along the way, and
//! once aggregate queue pressure crosses the overload threshold the
//! gateway declares overload and sheds probation-tier deliveries
//! pre-queue.  Protected `*_AVG_*` summary events bypass both gates and
//! still reach the stalled consumer.  At the end the example prints the
//! per-tier shed/delivered table an operator would read off the metrics
//! exposition.
//!
//! ```text
//! cargo run --release --example overload_shedding
//! ```

use jamm::jamm_gateway::{GatewayConfig, OverloadPolicy, QosConfig, Tier};
use jamm::JammBuilder;
use jamm_ulm::{Event, Level};

fn main() {
    // Overload thresholds tuned to this deployment: two 4096-slot
    // subscriptions, one of which stops draining.  The lagging/probation
    // queue budgets (50% / 25% of capacity) cap the stalled queue, so
    // aggregate pressure plateaus around 0.25 — the enter threshold must
    // sit below that plateau for the overload machine to declare.
    let qos = QosConfig {
        overload: OverloadPolicy {
            enter: 0.10,
            exit: 0.05,
        },
        retier_every: 256,
        ..QosConfig::default()
    };
    let mut jamm = JammBuilder::new()
        .gateway_config(GatewayConfig::open("gw.lbl.gov").with_qos(qos))
        .collector("ops")
        .collector("trend")
        .build()
        .expect("valid deployment");
    jamm.connect_collectors(vec![]);

    let raw = |i: u64| {
        Event::builder("vmstat", "dpss1.lbl.gov")
            .level(Level::Usage)
            .event_type("CPU_TOTAL")
            .value((i % 100) as f64)
            .build()
    };
    // A summary event: `*_AVG_*` series are protected — never shed,
    // never budget-cut — so they reach even a probation subscriber.
    let summary = |i: u64| {
        Event::builder("gw.lbl.gov", "dpss1.lbl.gov")
            .level(Level::Usage)
            .event_type("CPU_TOTAL_AVG_1M")
            .value((i % 100) as f64)
            .build()
    };

    // The burst: 16k raw events plus a summary every 512th, with `ops`
    // polling each round and `trend` never polling.  Re-tier passes run
    // automatically every 256 publishes.
    let ops = jamm
        .collectors
        .iter()
        .position(|c| c.consumer() == "ops")
        .unwrap();
    let mut summaries_sent = 0u64;
    for i in 0..16_384u64 {
        jamm.publish("gw.lbl.gov", &raw(i));
        if i % 512 == 0 {
            jamm.publish("gw.lbl.gov", &summary(i));
            summaries_sent += 1;
        }
        if i % 512 == 511 {
            jamm.collectors[ops].poll();
        }
    }
    jamm.collectors[ops].poll();

    // One admin row per gateway: the same reading the metrics exposition
    // and the `admin.qos` RMI verb print.
    let admin = jamm.admin_stats();
    let gw = &admin[0];
    let snap = gw.qos.as_ref().expect("qos plane attached");
    println!(
        "after the burst: overload level = {}, pressure = {:.3}, {} re-tier passes\n",
        snap.level, snap.pressure, snap.retiers
    );

    println!("per-subscription tiers:");
    println!(
        "  {:<10} {:<10} {:>6} {:>8} {:>10} {:>9}",
        "consumer", "tier", "score", "queued", "delivered", "dropped"
    );
    for row in &gw.tiers {
        let d = gw.subscriptions.iter().find(|d| d.id == row.id);
        println!(
            "  {:<10} {:<10} {:>6.2} {:>8} {:>10} {:>9}",
            row.consumer,
            row.tier.as_str(),
            row.score,
            row.queue_len,
            d.map_or(0, |d| d.delivered),
            d.map_or(0, |d| d.dropped),
        );
    }

    println!("\nper-tier drop attribution:");
    println!("  {:<10} {:>12} {:>14}", "tier", "shed", "budget drops");
    for tier in Tier::ALL {
        println!(
            "  {:<10} {:>12} {:>14}",
            tier.as_str(),
            snap.shed[tier as usize],
            snap.budget_drops[tier as usize],
        );
    }

    // The protected summary stream survived: drain the stalled consumer
    // once and count what the gates let through.
    let trend = jamm
        .collectors
        .iter()
        .position(|c| c.consumer() == "trend")
        .unwrap();
    jamm.collectors[trend].poll();
    let got = jamm.collectors[trend]
        .events()
        .iter()
        .filter(|e| e.event_type.contains("_AVG_"))
        .count() as u64;
    println!(
        "\nprotected summaries: {got}/{summaries_sent} reached the probation consumer \
         through budget and shed"
    );

    // The same counters an operator would scrape.
    println!("\nmetrics exposition (excerpt):");
    for line in jamm.render_metrics().lines().filter(|l| {
        l.starts_with("jamm_gateway_overload_")
            || l.starts_with("jamm_gateway_shed_total")
            || l.starts_with("jamm_gateway_budget_drops_total")
            || l.starts_with("jamm_gateway_tier_subscriptions")
    }) {
        println!("  {line}");
    }
}
