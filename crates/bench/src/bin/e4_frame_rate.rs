//! E4 — §6 bursty frame delivery.
//!
//! Paper: "Performance from the point of view of the client was quite
//! bursty.  Sometimes images arrived at 6 frames/sec, and other times only
//! 1-2 frames/sec."  This binary regenerates the per-second frame-rate
//! series for the 4-server WAN configuration and, for contrast, the
//! single-server work-around, from the `jamm::testbed::matisse` spec.
//!
//! ```text
//! cargo run --release -p jamm-bench --bin e4_frame_rate
//! ```

use jamm::testbed::{self, ScenarioEngine};
use jamm_bench::{compare_row, header};

fn run(servers: usize, secs: f64) -> (Vec<(f64, f64)>, f64) {
    let total_us = (secs * 1e6) as u64;
    let mut jamm = ScenarioEngine::new(testbed::matisse(true, servers).unwrap()).unwrap();
    jamm.run_until(total_us);
    let player = &jamm.player("mems.cairn.net").unwrap().player;
    (
        player.frame_rate_series(total_us, 1_000_000),
        jamm.application_mbps(),
    )
}

fn main() {
    header(
        "E4: frame delivery rate over time (MATISSE over Supernet)",
        "section 6: 'sometimes 6 frames/sec, other times only 1-2 frames/sec'",
    );

    let secs = 40.0;
    let (series4, mbps4) = run(4, secs);
    let (series1, mbps1) = run(1, secs);

    println!("\nper-second frame rate, 4 DPSS servers (the demo configuration):\n");
    println!("  sec   frames/s");
    for (t, fps) in &series4 {
        let bar = "*".repeat((*fps).round() as usize);
        println!("  {t:>4.0}  {fps:>5.1}  {bar}");
    }

    let rates: Vec<f64> = series4.iter().skip(2).map(|&(_, f)| f).collect();
    let max = rates.iter().cloned().fold(0.0, f64::max);
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
    let mean1: f64 = {
        let r: Vec<f64> = series1.iter().skip(2).map(|&(_, f)| f).collect();
        r.iter().sum::<f64>() / r.len().max(1) as f64
    };

    println!("\npaper vs measured:\n");
    compare_row(
        "frame rate variability (4 servers, WAN)",
        "bursty, 1-6 frames/s",
        &format!("{min:.0}-{max:.0} frames/s, mean {mean:.1}"),
    );
    compare_row(
        "aggregate throughput (4 servers)",
        "~30 Mbit/s",
        &format!("{mbps4:.1} Mbit/s"),
    );
    compare_row(
        "single-server work-around",
        "throughput recovers to ~140 Mbit/s",
        &format!("{mbps1:.1} Mbit/s, {mean1:.1} frames/s"),
    );
}
