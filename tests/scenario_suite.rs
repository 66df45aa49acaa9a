//! The asserted scenario suite: each test loads a declarative spec from
//! `scenarios/`, runs it on the simulated clock, and chains at least
//! three analyser assertions over the resulting report.  Several
//! scenarios additionally require that the automated bottleneck analysis
//! (`jamm_netlogger::analysis::diagnose`, fed from the monitoring
//! plane's own self-lifelines) localizes the *injected* fault to the
//! right stage pair and host — monitoring diagnosing itself, the
//! paper's §5 workflow with no human in the loop.
//!
//! Everything here is driven by the simulated clock and a seed from the
//! spec file; the determinism test at the bottom asserts that the entire
//! rendered report is byte-identical across two runs and to the report
//! pinned next to its spec (`scenarios/<name>.report`, rewritten by
//! `scripts/scenario-reports.sh`).

use ::jamm::testbed::{self, ScenarioEngine, ScenarioReport, ScenarioSpec};
use jamm_ulm::keys::jamm;

fn load(name: &str) -> String {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn run(name: &str) -> ScenarioReport {
    let engine =
        ScenarioEngine::from_text(&load(name)).unwrap_or_else(|e| panic!("compile {name}: {e}"));
    engine.run()
}

/// The MATISSE WAN collapse at 10x the paper's scale: forty parallel DPSS
/// streams into one receive host.  Aggregate goodput must *collapse* (the
/// magnitude assertion), and the self-lifeline diagnosis must name the
/// receiving host: the consumer CPU-coupled to mems.cairn.net starves
/// while the host's receive path thrashes, so the dominant stage gap is
/// SUB_DELIVER -> SUB_DRAIN at mems.cairn.net.
#[test]
fn matisse_wan_collapse_at_10x_scale_is_diagnosed_to_the_receiving_host() {
    let report = run("matisse_wan_10x.scn");
    report
        .expect()
        // Early seconds still move real data...
        .throughput_at_least_during(1, 2, 10.0)
        // ...then 40 concurrent streams collapse the receiver: an order
        // of magnitude below the 250 Mbit/s the NIC could deliver.
        .throughput_at_most_during(10, 39, 10.0)
        .events_delivered_at_least("mems.cairn.net", 900)
        .delivery_p99_under("mems.cairn.net", 100_000)
        .diagnosis_localizes(jamm::SUB_DELIVER, jamm::SUB_DRAIN, "mems.cairn.net")
        .assert_ok();
}

/// Host churn with gateway failover: when the primary gateway's host
/// crashes, the directory marks it down, sensors re-resolve to the
/// standby, and delivery continues.  The archiver listens only on the
/// standby gateway, so a filled archive is direct evidence the failover
/// actually happened.
#[test]
fn host_churn_fails_over_through_the_directory() {
    let report = run("host_churn_failover.scn");
    report
        .expect()
        .events_delivered_at_least("ops", 2_300)
        .no_drops_outside(1, 0) // empty window: lossless everywhere
        .delivery_p99_under("ops", 20_000)
        .archived_at_least("arch", 250)
        .recovered_within(2) // data throughput back to baseline post-recover
        .assert_ok();
}

/// Partition during archive replay: the live consumer is cut off while
/// the whole archive is replayed through its gateway, so its bounded
/// subscription queue overflows — but only inside the partition window.
#[test]
fn partition_during_replay_drops_only_inside_the_window() {
    let report = run("partition_replay.scn");
    report
        .expect()
        .drops_at_least(2_000)
        .no_drops_outside(19, 31)
        .events_delivered_at_least("live", 3_500)
        .archived_at_least("arch", 6_000)
        .assert_ok();
}

/// A flapping sensor is a data gap, not a pipeline fault: the plane must
/// ride through stop/start churn losslessly with flat latency.
#[test]
fn flapping_sensor_does_not_disturb_the_pipeline() {
    let report = run("flapping_sensor.scn");
    report
        .expect()
        .events_delivered_at_least("ops", 700)
        .no_drops_outside(1, 0)
        .delivery_p99_under("ops", 10_000)
        .throughput_at_least(300.0)
        .assert_ok();
}

/// Bursty diurnal load: a 20x publish-rate burst for the middle third of
/// the run must be absorbed losslessly by the bounded queues.
#[test]
fn diurnal_burst_is_absorbed_losslessly() {
    let report = run("diurnal_burst.scn");
    report
        .expect()
        .events_delivered_at_least("ops", 2_400)
        .no_drops_outside(1, 0)
        .delivery_p99_under("ops", 10_000)
        .throughput_at_least(300.0)
        .assert_ok();
}

/// Slow-consumer tier degradation: the viz subscriber's drain loop
/// stalls to 80 ms per drain at 40s, and the self-lifeline analysis must
/// localize the bottleneck to the SUB_DELIVER -> SUB_DRAIN gap at `viz`.
#[test]
fn slow_consumer_tier_degradation_is_diagnosed() {
    let report = run("slow_consumer.scn");
    report
        .expect()
        .events_delivered_at_least("viz", 2_000)
        .no_drops_outside(1, 0)
        .delivery_p99_under("viz", 200_000)
        .diagnosis_localizes(jamm::SUB_DELIVER, jamm::SUB_DRAIN, "viz")
        .assert_ok();
}

/// QoS quarantine: the viz subscriber stalls to 400 ms per drain at 10s
/// and must be walked into the probation tier, with every drop its own
/// and nothing shed from the fast tier.  Isolation is asserted against
/// a programmatic no-stall baseline: the fast consumer's p99 delivery
/// latency under the stall must stay within 2x of the unfaulted run.
#[test]
fn a_stalled_consumer_is_quarantined_in_probation() {
    let report = run("qos_stalled_consumer.scn");
    let mut spec = ScenarioSpec::parse(&load("qos_stalled_consumer.scn")).expect("parses");
    spec.timeline.clear();
    let baseline = ScenarioEngine::new(spec).expect("compiles").run();
    let base_p99 = baseline
        .consumer("ops")
        .expect("baseline ops")
        .latency_percentile_us(99.0)
        .max(1);
    let stalled_p99 = report
        .consumer("ops")
        .expect("ops")
        .latency_percentile_us(99.0);
    assert!(
        stalled_p99 <= base_p99 * 2,
        "fast-tier p99 {stalled_p99}us under the stall > 2x the {base_p99}us no-stall baseline"
    );
    report
        .expect()
        .tiered_as("gw-mon", "viz", "probation")
        .tiered_as("gw-mon", "ops", "fast")
        .drops_only_for("viz")
        .drops_at_least(100)
        .delivery_p99_under("ops", 20_000)
        .shed_none("gw-mon", "fast")
        .self_lifelines_lossless()
        .assert_ok();
}

/// Degradation order under a 20x burst: declared overload sheds the
/// probation tier only — the fast tier is never cut, the protected
/// summary stream reaches ops losslessly, the self-lifelines survive,
/// and every queue drop belongs to the overwhelmed trend subscriber,
/// confined to the burst window.
#[test]
fn a_burst_sheds_the_lowest_tier_first_and_summaries_survive() {
    let report = run("qos_burst_shed.scn");
    assert!(
        report.summaries_published >= 3_000,
        "expected a summary stream, got {}",
        report.summaries_published
    );
    report
        .expect()
        .tiered_as("gw-mon", "ops", "fast")
        .shed_at_least("gw-mon", "probation", 500)
        .shed_none("gw-mon", "fast")
        .shed_none("gw-mon", "lagging")
        .drops_only_for("trend")
        .no_drops_outside(15, 31)
        .summaries_delivered_at_least("ops", 3_000)
        .self_lifelines_lossless()
        .assert_ok();
}

/// Self-healing reconnect: the gateway host crashes at 12s and recovers
/// at 18s.  Both sensor breakers must open (no directory probing while
/// down), revive within the 500ms-base/4s-cap backoff envelope after
/// recovery, and flush their buffered readings losslessly; the TCP flow
/// the crash severed recovers too.
#[test]
fn a_crashed_gateway_host_is_redialed_within_the_backoff_envelope() {
    let report = run("qos_collector_reconnect.scn");
    report
        .expect()
        .revived_at_least(2)
        .revived_within(5)
        .no_drops_outside(1, 0) // empty window: lossless everywhere
        .events_delivered_at_least("ops", 11_000)
        .recovered_within(3)
        .assert_ok();
}

/// Continuous-query dashboards: a small (n=4) and a big (n=32) reader
/// pool poll the same materialized view.  Every read must be served
/// from an incrementally-maintained snapshot (archive-scan fallback
/// counter pinned at zero), per-reader throughput must stay flat as
/// the pool grows 8x, and the archiver keeps filling the archive the
/// whole time — views don't starve the cold tier.
#[test]
fn a_dashboard_pool_reads_views_without_archive_scans() {
    let report = run("dashboard_readers.scn");
    report
        .expect()
        .served_from_views("dash-small")
        .served_from_views("dash-big")
        .reader_rate_flat("dash-small", "dash-big")
        .events_delivered_at_least("ops", 2_000)
        .archived_at_least("keeper", 2_000)
        .assert_ok();
}

/// Same spec + same seed => byte-identical analyser report.  The whole
/// pipeline — fluid TCP, fault injection, gateway routing, self-lifeline
/// timestamps (via the shared TraceClock), the diagnosis text — must be
/// free of wall-clock and iteration-order nondeterminism.  The paper's
/// two deployments, rendered by `testbed::matisse` and `testbed::farm`,
/// run beside the spec files.
#[test]
fn same_spec_and_seed_render_byte_identical_reports() {
    let dir = format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".scn"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no scenario specs in {dir}");
    for name in &names {
        let a = run(name).render_text();
        let b = run(name).render_text();
        assert_eq!(a, b, "{name}: scenario runs diverged under a fixed seed");
        let pinned = load(&name.replace(".scn", ".report"));
        assert!(
            a == pinned,
            "{name}: the report differs from the pinned one; if the change is \
             meant, run scripts/scenario-reports.sh and explain the diff\n\
             --- pinned\n{pinned}--- now\n{a}"
        );
    }
    let deployments = [
        testbed::matisse(false, 2).expect("renders"),
        testbed::farm(8, 2).expect("renders"),
    ];
    for spec in deployments {
        let run = || ScenarioEngine::new(spec.clone()).expect("compiles").run();
        let (a, b) = (run().render_text(), run().render_text());
        assert_eq!(
            a, b,
            "{}: scenario runs diverged under a fixed seed",
            spec.name
        );
    }
}
