//! Figure 3 — scatter plot of low-level `read()` sizes.
//!
//! Paper: "Generation of a scatter plot was useful, for instance, to show
//! the distribution of 'bytes read' from individual low-level calls to the
//! operating system's read() function. ...  This graph makes apparent the
//! (unexpected) clustering of the data around two distinct values."

use jamm::testbed::{self, ScenarioEngine};
use jamm_bench::{compare_row, header};
use jamm_netlogger::analysis::two_cluster;

fn main() {
    header(
        "Fig. 3: distribution of per-read() byte counts at the frame player",
        "scatter plot clustering around two distinct values",
    );

    let mut spec = testbed::matisse(true, 1).unwrap();
    spec.seed = 77;
    let mut jamm = ScenarioEngine::new(spec).unwrap();
    jamm.run_until(25_000_000);

    let reads = &jamm.player("mems.cairn.net").unwrap().player.read_sizes;
    println!(
        "\n{} read() calls recorded over 25 simulated seconds",
        reads.len()
    );

    // Regenerate the scatter data: a coarse histogram over read size.
    let mut histogram = [0usize; 9];
    for &(_, r) in reads {
        let bucket = ((r as usize) / 8_192).min(8);
        histogram[bucket] += 1;
    }
    println!(
        "\nread-size histogram (8 KB buckets, '#' = {} reads):",
        (reads.len() / 200).max(1)
    );
    for (i, count) in histogram.iter().enumerate() {
        let label = format!("{:>3}-{:<3} KB", i * 8, (i + 1) * 8);
        let bar = "#".repeat(count / (reads.len() / 200).max(1));
        println!("  {label} {count:>6} {bar}");
    }

    let readings: Vec<f64> = reads.iter().map(|&(_, r)| r as f64).collect();
    match two_cluster(&readings) {
        Some(c) => {
            println!("\npaper vs measured:\n");
            compare_row(
                "distribution shape",
                "two distinct clusters",
                &format!(
                    "clusters at {:.0} B (n={}) and {:.0} B (n={}), separation {:.1}",
                    c.low_center, c.low_count, c.high_center, c.high_count, c.separation
                ),
            );
            compare_row(
                "upper cluster",
                "the read-buffer size",
                &format!("{:.0} B (buffer is 65536 B)", c.high_center),
            );
        }
        None => println!("not enough distinct readings to cluster"),
    }
}
