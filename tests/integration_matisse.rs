//! Integration test of the §6 MATISSE case study: the qualitative results
//! the paper reports must hold in the reproduction.

use jamm::deployment::{DeploymentConfig, JammDeployment};
use jamm::JammBuilder;
use jamm_netlogger::analysis::{correlate_gaps, delivery_gaps, diagnose, two_cluster};
use jamm_netsim::scenario::matisse_iperf;
use jamm_ulm::keys;

/// §6: one WAN stream reaches ~140 Mbit/s, four parallel streams collapse to
/// a small fraction of that, and on the LAN both configurations are fine.
#[test]
fn iperf_stream_comparison_matches_the_paper_shape() {
    let wan_one = matisse_iperf(true, 1, 20.0, 42);
    let wan_four = matisse_iperf(true, 4, 20.0, 42);
    let lan_one = matisse_iperf(false, 1, 10.0, 42);
    let lan_four = matisse_iperf(false, 4, 10.0, 42);

    assert!(
        wan_one.aggregate_mbps > 100.0 && wan_one.aggregate_mbps < 180.0,
        "paper: ~140 Mbit/s single WAN stream, got {:.1}",
        wan_one.aggregate_mbps
    );
    assert!(
        wan_four.aggregate_mbps < 0.45 * wan_one.aggregate_mbps,
        "paper: 30 vs 140 Mbit/s, got {:.1} vs {:.1}",
        wan_four.aggregate_mbps,
        wan_one.aggregate_mbps
    );
    assert!(
        wan_four.retransmits > 10 * wan_one.retransmits.max(1),
        "the collapse is driven by retransmissions ({} vs {})",
        wan_four.retransmits,
        wan_one.retransmits
    );
    assert!(
        lan_one.aggregate_mbps > 150.0,
        "paper: ~200 Mbit/s on the LAN, got {:.1}",
        lan_one.aggregate_mbps
    );
    assert!(
        lan_four.aggregate_mbps > 0.7 * lan_one.aggregate_mbps,
        "LAN parity between 1 and 4 streams: {:.1} vs {:.1}",
        lan_four.aggregate_mbps,
        lan_one.aggregate_mbps
    );
}

/// §6 + Figure 7: the monitored 4-server WAN run shows bursty frame delivery
/// whose stalls coincide with TCP retransmissions observed on the receiver,
/// and switching to a single server roughly triples throughput.
#[test]
fn monitored_matisse_run_reproduces_figure7_correlations() {
    let mut cfg = DeploymentConfig::matisse_wan(4);
    cfg.matisse.seed = 2000;
    let mut four = JammDeployment::matisse(cfg).unwrap();
    four.run_secs(30.0);

    assert!(
        four.scenario.player.frames_displayed() > 3,
        "frames arrived"
    );
    assert!(
        four.scenario.client_retransmits() > 0,
        "retransmissions occurred"
    );

    let log = four.merged_log();
    // Retransmission events were *collected by JAMM* (not just simulated).
    assert!(
        log.iter().any(|e| e.event_type == keys::tcp::RETRANSMITS),
        "tcp sensor events reached the collector"
    );
    // The frame-delivery gaps correlate with retransmission bursts.
    let gaps = delivery_gaps(&log, keys::matisse::END_READ_FRAME, 700_000);
    if !gaps.is_empty() {
        let corr = correlate_gaps(&log, &gaps, keys::tcp::RETRANSMITS, 500_000);
        assert!(
            corr.gap_hit_rate() >= 0.5,
            "at least half of the stalls are explained by retransmissions ({:.0}%)",
            corr.gap_hit_rate() * 100.0
        );
    }
    // The Figure 7 chart itself assembles: lifelines, CPU loadlines, points.
    let chart = four.figure7_chart();
    assert!(!chart.lifelines.is_empty());
    assert!(chart.loadlines.iter().any(|l| !l.samples.is_empty()));
    assert!(chart.point_series.iter().any(|p| !p.points.is_empty()));

    // Work-around run: a single DPSS server (one socket) performs much better.
    let mut cfg1 = DeploymentConfig::matisse_wan(1);
    cfg1.matisse.seed = 2000;
    let mut one = JammDeployment::matisse(cfg1).unwrap();
    one.run_secs(30.0);
    assert!(
        one.scenario.aggregate_mbps() > 2.0 * four.scenario.aggregate_mbps(),
        "single server restores throughput: {:.1} vs {:.1} Mbit/s",
        one.scenario.aggregate_mbps(),
        four.scenario.aggregate_mbps()
    );
}

/// The §4 methodology turned on JAMM itself: a self-monitored deployment
/// serves two consumers, one of which is deliberately slow to drain its
/// queue (the injected bottleneck, played by the paper's `mems.cairn.net`
/// host).  The automated diagnosis over the sampled self-lifelines must
/// localize the bottleneck to exactly that consumer's drain stage — not
/// merely notice that something is slow.
#[test]
fn self_monitoring_diagnoses_an_injected_slow_consumer() {
    let mut jamm = JammBuilder::new()
        .gateway("gw-lbl")
        .collector("nlv-analyst")
        .collector("mems.cairn.net")
        .self_monitor(1) // trace every publish: the test is short
        .build()
        .unwrap();
    jamm.connect_collectors(vec![]);

    // Two rounds of traffic.  The healthy consumer drains as soon as
    // events arrive; the slow one sits on its full queue for ~80 ms
    // first.  Rounds stay within the tracer's watched-ring capacity, so
    // every lifeline completes.
    for _ in 0..2 {
        for _ in 0..4 {
            let e = jamm_ulm::Event::builder("mplay", "client.lbl.gov")
                .event_type(keys::matisse::END_READ_FRAME)
                .build();
            assert!(jamm.publish("gw-lbl", &e) > 0);
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
        std::thread::sleep(std::time::Duration::from_millis(80));
        jamm.collectors[slow].poll();
    }
    jamm.drain_self_events();

    let lifelines = jamm.self_events();
    let d = diagnose(lifelines.iter().map(|e| e.as_ref()));
    assert_eq!(d.traces, 8, "every publish was sampled");

    let b = d.bottleneck().expect("hops observed");
    assert_eq!(b.from, keys::jamm::SUB_DELIVER, "wrong stage: {b:?}");
    assert_eq!(b.to, keys::jamm::SUB_DRAIN, "wrong stage: {b:?}");
    assert_eq!(b.target, "mems.cairn.net", "wrong host blamed: {b:?}");
    assert!(
        b.mean_us >= 40_000.0,
        "the injected ~80 ms stall dominates: {b:?}"
    );
    // The healthy consumer's identical hop is far faster — the diagnosis
    // separated the consumers rather than averaging them together.
    let healthy = d
        .hops
        .iter()
        .find(|h| h.to == keys::jamm::SUB_DRAIN && h.target == "nlv-analyst")
        .expect("healthy consumer hop present");
    assert!(
        healthy.mean_us < b.mean_us / 4.0,
        "healthy {:.0} us vs bottleneck {:.0} us",
        healthy.mean_us,
        b.mean_us
    );
    let text = d.render_text();
    assert!(text.starts_with("bottleneck: JAMM_SUB_DELIVER -> JAMM_SUB_DRAIN at mems.cairn.net"));
}

/// Figure 3: the distribution of the player's `read()` sizes clusters around
/// two distinct values (the full 64 KB buffer and the small remainder).
#[test]
fn read_sizes_cluster_around_two_values() {
    let mut cfg = DeploymentConfig::matisse_wan(1);
    cfg.matisse.seed = 77;
    let mut jamm = JammDeployment::matisse(cfg).unwrap();
    jamm.run_secs(25.0);
    let readings: Vec<f64> = jamm
        .scenario
        .player
        .read_sizes
        .iter()
        .map(|&(_, r)| r as f64)
        .collect();
    assert!(
        readings.len() > 100,
        "enough reads recorded: {}",
        readings.len()
    );
    let clusters = two_cluster(&readings).expect("clustering possible");
    assert!(
        clusters.high_center > 50_000.0,
        "upper cluster near the 64 KB read buffer: {:.0}",
        clusters.high_center
    );
    assert!(
        clusters.low_center < 0.65 * clusters.high_center,
        "lower cluster well below the buffer size: {:.0}",
        clusters.low_center
    );
    assert!(clusters.low_count > 10 && clusters.high_count > 10);
    assert!(
        clusters.separation > 1.0,
        "clearly bimodal (separation {:.2})",
        clusters.separation
    );
}
