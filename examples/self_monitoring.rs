//! The monitor monitored: self-lifelines, unified metrics and automated
//! bottleneck diagnosis.
//!
//! Builds a small self-monitored deployment with two consumers, makes one
//! of them deliberately slow to drain its queue, and lets JAMM's own
//! observability plane find it: the sampled `_jamm` lifelines are drained,
//! `jamm_netlogger::analysis::diagnose` names the slow hop and the
//! offending consumer, and the metrics exposition shows the same counters
//! an operator would scrape.
//!
//! ```text
//! cargo run --release --example self_monitoring
//! ```

use jamm::JammBuilder;
use jamm_netlogger::analysis::diagnose;
use jamm_ulm::{Event, Level};

fn main() {
    let mut jamm = JammBuilder::new()
        .gateway("gw.lbl.gov")
        .collector("nlv-analyst")
        .collector("mems.cairn.net")
        .archiver("archiver", "archive=demo,o=grid")
        .self_monitor(1) // trace every publish; production would use 64
        .build()
        .expect("valid deployment");
    jamm.connect_collectors(vec![]);
    jamm.connect_archiver(vec![]);

    // Two rounds of sensor traffic.  The analyst drains as soon as events
    // arrive; "mems.cairn.net" sits on its full queue for ~60 ms first —
    // the injected bottleneck the diagnosis must localize.
    for _ in 0..2 {
        for i in 0..4u64 {
            let e = Event::builder("vmstat", "dpss1.lbl.gov")
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .value((i % 100) as f64)
                .build();
            jamm.publish("gw.lbl.gov", &e);
        }
        let fast = jamm
            .collectors
            .iter()
            .position(|c| c.consumer() == "nlv-analyst")
            .unwrap();
        let slow = jamm
            .collectors
            .iter()
            .position(|c| c.consumer() == "mems.cairn.net")
            .unwrap();
        jamm.collectors[fast].poll();
        if let Some(archiver) = &mut jamm.archiver {
            archiver.poll();
        }
        std::thread::sleep(std::time::Duration::from_millis(60));
        jamm.collectors[slow].poll();
    }

    // The self-lifelines waited in the tracer's queue; drain and diagnose
    // them.
    jamm.drain_self_events();
    let lifelines = jamm.self_events();
    println!(
        "drained {} trace points from the tracer's queue\n",
        lifelines.len()
    );

    let report = diagnose(lifelines.iter().map(|e| e.as_ref()));
    print!("{}", report.render_text());

    let bottleneck = report.bottleneck().expect("hops observed");
    println!(
        "\n=> the pipeline's slowest hop is {} -> {} at {} \
         (mean {:.1} ms over {} lifelines)",
        bottleneck.from,
        bottleneck.to,
        bottleneck.target,
        bottleneck.mean_us / 1_000.0,
        bottleneck.count
    );

    // The same counters back admin_stats and the text exposition — one
    // source of truth, three views.
    println!("\nmetrics exposition (excerpt):");
    for line in jamm
        .render_metrics()
        .lines()
        .filter(|l| l.starts_with("jamm_gateway_") || l.starts_with("jamm_trace_"))
    {
        println!("  {line}");
    }
}
