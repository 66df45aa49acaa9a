//! The MATISSE wide-area demonstration (paper §6), end to end.
//!
//! Reproduces the paper's case study: MEMS video frames stored on a
//! four-server DPSS at LBNL are pulled across the Supernet WAN by a compute
//! cluster head node, JAMM monitors every component, and the NetLogger
//! analysis of the collected events shows the receiving-host problem —
//! bursty frame delivery whose gaps line up with TCP retransmissions and
//! high system CPU on the receiver.  The run is then repeated with a single
//! DPSS server (the paper's work-around) to show throughput recovering.
//! Both runs are the `jamm::testbed::matisse` spec on the scenario engine.
//!
//! ```text
//! cargo run --release --example matisse_demo
//! ```

use jamm::testbed::{self, ScenarioEngine};
use jamm_netlogger::analysis::{correlate_gaps, delivery_gaps};
use jamm_ulm::keys;

fn run_configuration(dpss_servers: usize, seconds: f64) -> ScenarioEngine {
    let spec =
        testbed::matisse(true, dpss_servers).expect("static deployment description is valid");
    let mut jamm = ScenarioEngine::new(spec).expect("static deployment description is valid");
    jamm.run_until((seconds * 1e6) as u64);
    jamm
}

fn report(label: &str, jamm: &ScenarioEngine, seconds: f64) {
    let app = jamm.player("mems.cairn.net").expect("declared player");
    let player = &app.player;
    let series = player.frame_rate_series((seconds * 1e6) as u64, 1_000_000);
    let rates: Vec<f64> = series.iter().map(|&(_, fps)| fps).collect();
    let min_fps = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_fps = rates.iter().cloned().fold(0.0, f64::max);

    println!("== {label} ==");
    println!(
        "  aggregate DPSS throughput : {:>6.1} Mbit/s",
        jamm.application_mbps()
    );
    println!(
        "  frames displayed          : {:>6}  (mean {:.1} frames/s, range {:.0}-{:.0})",
        player.frames_displayed(),
        player.mean_frame_rate((seconds * 1e6) as u64),
        min_fps,
        max_fps
    );
    println!(
        "  TCP retransmissions       : {:>6}",
        jamm.net().host(player.host).stats().tcp_retransmits
    );

    // The Figure 7 analysis: do delivery gaps line up with retransmissions?
    let log = jamm.merged_log();
    let gaps = delivery_gaps(&log, keys::matisse::END_READ_FRAME, 700_000);
    let corr = correlate_gaps(&log, &gaps, keys::tcp::RETRANSMITS, 500_000);
    println!(
        "  delivery gaps > 0.7 s     : {:>6}  ({:.0}% contain a retransmission burst)",
        corr.gaps,
        corr.gap_hit_rate() * 100.0
    );
    println!();
}

fn main() {
    let seconds = 30.0;
    println!("MATISSE over Supernet (WAN), 4 DPSS servers vs 1 DPSS server\n");

    let four = run_configuration(4, seconds);
    report(
        "4 DPSS servers (4 parallel sockets into the receiver)",
        &four,
        seconds,
    );

    let one = run_configuration(1, seconds);
    report("1 DPSS server (the paper's work-around)", &one, seconds);

    println!("== Figure 7 (ASCII rendering of the nlv chart, 4-server run) ==\n");
    let chart = testbed::figure7_chart(&four.merged_log());
    print!("{}", chart.render_ascii(100));

    println!("\npaper observation: four sockets collapse WAN throughput (~30 vs ~140 Mbit/s),");
    println!("and the gaps in frame delivery coincide with TCP retransmission bursts on the");
    println!("receiving host — both reproduced above.");
}
