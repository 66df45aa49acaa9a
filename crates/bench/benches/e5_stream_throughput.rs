//! E5 — §6 iperf comparison: 1 vs 4 parallel TCP streams, WAN vs LAN.
//!
//! Paper: "the aggregate throughput for four streams was only 30 Mbits/sec
//! compared to 140 Mbits/sec for a single stream. ...  LAN throughput for
//! both one and four data streams are 200 Mbits/second."  Using one DPSS
//! server instead of four "increased the throughput to 140 Mbits/sec".

use jamm_bench::{compare_row, data_row, header, Report};
use jamm_netsim::scenario::matisse_iperf;

fn main() {
    header(
        "E5: iperf stream-count sweep on the MATISSE topology",
        "section 6 throughput numbers (140 vs 30 Mbit/s WAN; 200 Mbit/s LAN)",
    );

    let duration = 20.0;
    let seed = 42u64;
    println!("\nregenerated sweep (20 simulated seconds per cell):\n");
    data_row(&[
        format!("{:<8}", "network"),
        format!("{:>8}", "streams"),
        format!("{:>16}", "aggregate Mbit/s"),
        format!("{:>14}", "retransmits"),
        format!("{:>10}", "timeouts"),
    ]);
    let mut results = std::collections::HashMap::new();
    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    for (wan, label) in [(true, "WAN"), (false, "LAN")] {
        for streams in [1usize, 2, 4, 8] {
            let r = matisse_iperf(wan, streams, duration, seed);
            data_row(&[
                format!("{label:<8}"),
                format!("{streams:>8}"),
                format!("{:>16.1}", r.aggregate_mbps),
                format!("{:>14}", r.retransmits),
                format!("{:>10}", r.timeouts),
            ]);
            report.measured(format!("{label}_{streams}_streams_mbps"), r.aggregate_mbps);
            results.insert((wan, streams), r.aggregate_mbps);
        }
    }

    println!("\npaper vs measured:\n");
    compare_row(
        "WAN, 1 stream",
        "~140 Mbit/s",
        &format!("{:.1} Mbit/s", results[&(true, 1)]),
    );
    compare_row(
        "WAN, 4 streams (aggregate)",
        "~30 Mbit/s",
        &format!("{:.1} Mbit/s", results[&(true, 4)]),
    );
    compare_row(
        "LAN, 1 stream",
        "~200 Mbit/s",
        &format!("{:.1} Mbit/s", results[&(false, 1)]),
    );
    compare_row(
        "LAN, 4 streams (aggregate)",
        "~200 Mbit/s",
        &format!("{:.1} Mbit/s", results[&(false, 4)]),
    );
    let collapse = results[&(true, 1)] / results[&(true, 4)].max(0.001);
    compare_row(
        "WAN collapse factor (1 stream / 4 streams)",
        "~4.7x",
        &format!("{collapse:.1}x"),
    );
    println!();
    report.finish();
}
