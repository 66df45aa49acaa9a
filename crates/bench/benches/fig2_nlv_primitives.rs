//! Figure 2 — the three nlv graph primitives.
//!
//! Paper: nlv represents events with the point, the loadline and the
//! lifeline; "with time shown on the x-axis, and ordered events shown on the
//! y-axis, the slope of the lifeline gives a clear visual indication of
//! latencies in the distributed system."
//!
//! This bench regenerates all three primitives from a monitored run and
//! checks their defining properties (lifeline ordering/slope, loadline
//! continuity, point sparsity), then measures how fast the chart extraction
//! is with Criterion.

use jamm::testbed::{self, ScenarioEngine};
use jamm_bench::harness::{criterion_group, criterion_main, Criterion};
use jamm_bench::{compare_row, header};
use jamm_netlogger::nlv::{lifelines, loadline, points, NlvChart};
use jamm_ulm::{keys, Event};

fn monitored_log() -> Vec<Event> {
    let mut spec = testbed::matisse(false, 2).unwrap();
    spec.seed = 5;
    spec.players[0].frame_bytes = 600_000;
    let mut jamm = ScenarioEngine::new(spec).unwrap();
    jamm.run_until(10_000_000);
    jamm.merged_log()
}

const LIFELINE_ORDER: [&str; 5] = [
    keys::matisse::DPSS_SERV_IN,
    keys::matisse::DPSS_END_WRITE,
    keys::matisse::START_READ_FRAME,
    keys::matisse::END_READ_FRAME,
    keys::matisse::END_PUT_IMAGE,
];

fn report(log: &[Event]) {
    header(
        "Fig. 2: nlv graph primitives (lifeline, loadline, point)",
        "the three primitive types and their semantics",
    );
    let lines = lifelines(log, &LIFELINE_ORDER);
    let spans: Vec<f64> = lines.iter().map(|l| l.span_us() as f64 / 1_000.0).collect();
    let mean_span = spans.iter().sum::<f64>() / spans.len().max(1) as f64;
    compare_row(
        "lifeline: one per monitored object",
        "one line per datum",
        &format!(
            "{} frame lifelines, mean span {:.0} ms",
            lines.len(),
            mean_span
        ),
    );
    let monotone = lines
        .iter()
        .all(|l| l.points.windows(2).all(|w| w[0].0 <= w[1].0));
    compare_row(
        "lifeline: events ordered along time axis",
        "slope shows latency",
        &format!("time-monotone: {monotone}"),
    );
    let load = loadline(log, "mems.cairn.net", keys::cpu::SYS);
    compare_row(
        "loadline: continuous scaled series",
        "e.g. CPU load / free memory",
        &format!(
            "{} VMSTAT_SYS_TIME samples on the receiving host",
            load.samples.len()
        ),
    );
    let pts = points(log, Some("mems.cairn.net"), keys::tcp::RETRANSMITS);
    compare_row(
        "point: single occurrences (errors/warnings)",
        "e.g. TCP retransmits",
        &format!("{} retransmit points", pts.points.len()),
    );
    println!();
}

fn bench_chart_extraction(c: &mut Criterion) {
    let log = monitored_log();
    report(&log);
    c.bench_function("nlv_chart_build_from_monitored_log", |b| {
        b.iter(|| {
            NlvChart::build(
                std::hint::black_box(&log),
                &LIFELINE_ORDER,
                &[("mems.cairn.net", keys::cpu::SYS)],
                &[(Some("mems.cairn.net"), keys::tcp::RETRANSMITS)],
            )
        })
    });
    c.bench_function("nlv_lifelines_only", |b| {
        b.iter(|| lifelines(std::hint::black_box(&log), &LIFELINE_ORDER))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_chart_extraction
}
criterion_main!(benches);
