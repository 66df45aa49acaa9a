//! Figure 7 — NetLogger real-time analysis of JAMM-managed sensor data.
//!
//! Paper: the nlv graph of the MATISSE run shows frame lifelines, the
//! receiving host's VMSTAT loadlines, and TCPD_RETRANSMITS points; "Note the
//! correlation between the TCP retransmit events and the large gap with no
//! data being received by the application.  Also of interest is the high
//! level of system CPU usage on the receiving host."

use jamm::deployment::{DeploymentConfig, JammDeployment};
use jamm_bench::{compare_row, header};
use jamm_netlogger::analysis::{correlate_gaps, delivery_gaps, mean_stage_durations};
use jamm_ulm::keys;

fn main() {
    header(
        "Fig. 7: NetLogger analysis of the monitored MATISSE run",
        "frame lifelines + CPU loadlines + retransmit points, and their correlation",
    );

    let mut cfg = DeploymentConfig::matisse_wan(4);
    cfg.matisse.seed = 2000;
    let mut jamm = JammDeployment::matisse(cfg).unwrap();
    jamm.run_secs(30.0);

    let log = jamm.merged_log();
    let chart = jamm.figure7_chart();

    println!("\nASCII rendering of the chart (time left to right, 30 simulated seconds):\n");
    print!("{}", chart.render_ascii(100));

    // Quantify the visual observations.
    let gaps = delivery_gaps(&log, keys::matisse::END_READ_FRAME, 700_000);
    let corr = correlate_gaps(&log, &gaps, keys::tcp::RETRANSMITS, 500_000);
    let sys_load: Vec<f64> = log
        .iter()
        .filter(|e| e.host == "mems.cairn.net" && e.event_type == keys::cpu::SYS)
        .filter_map(|e| e.value())
        .collect();
    let mean_sys = if sys_load.is_empty() {
        0.0
    } else {
        sys_load.iter().sum::<f64>() / sys_load.len() as f64
    };
    let peak_sys = sys_load.iter().cloned().fold(0.0, f64::max);

    println!("\npaper observations vs measured:\n");
    compare_row(
        "frame delivery",
        "bursty, 1-6 frames/s",
        &format!(
            "{} frames in 30 s ({:.1}/s mean)",
            jamm.scenario.player.frames_displayed(),
            jamm.scenario.player.mean_frame_rate(30_000_000)
        ),
    );
    compare_row(
        "TCP retransmissions visible to JAMM",
        "yes (X marks on the chart)",
        &format!(
            "{} retransmit events collected",
            log.iter()
                .filter(|e| e.event_type == keys::tcp::RETRANSMITS)
                .count()
        ),
    );
    compare_row(
        "delivery gaps explained by retransmit bursts",
        "the large gap coincides with retransmits",
        &format!(
            "{}/{} gaps ({:.0}%)",
            corr.gaps_with_marker,
            corr.gaps,
            corr.gap_hit_rate() * 100.0
        ),
    );
    compare_row(
        "system CPU on the receiving host",
        "high (VMSTAT_SYS_TIME elevated)",
        &format!("mean {mean_sys:.0}%, peak {peak_sys:.0}%"),
    );

    println!("\nmean per-stage lifeline latency (the slope of the lifelines):\n");
    for (from, to, mean_us, n) in mean_stage_durations(&chart.lifelines) {
        println!(
            "  {from:>22} -> {to:<22} {:>9.1} ms  ({n} samples)",
            mean_us / 1_000.0
        );
    }
}
