//! # jamm-bench — the experiment benches around `e21_end_to_end`
//!
//! The repository's benchmark is `src/bin/e21_end_to_end` (declared in
//! `BENCHMARK.json`): one event's whole trip, four workloads, a per-hop
//! budget.  The `benches/` targets keep only what e21 cannot produce — the
//! paper's figures and reported results on the simulator, and kernels and
//! sweeps no e21 workload reaches.  README.md ("Benchmarks") lists each one
//! with the number it owns and its baseline file; `scripts/bench-all.sh`
//! runs them all.
//!
//! This library is what those targets share: the output formatting helpers
//! below, [`report`] — the one way a target records rows, writes its JSON
//! and is compared with its committed baseline — and [`harness`], the
//! criterion-compatible micro-benchmark driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use report::Report;

/// Print a standard experiment header.
pub fn header(experiment: &str, paper_artifact: &str) {
    println!("==============================================================");
    println!("{experiment}");
    println!("reproduces: {paper_artifact}");
    println!("==============================================================");
}

/// Print one "paper vs measured" comparison row.
pub fn compare_row(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:<18} measured: {measured}");
}

/// Print a plain data row (for regenerated series).
pub fn data_row(cols: &[String]) {
    println!("  {}", cols.join("  "));
}

/// Format a floating-point series compactly.
pub fn fmt_series(series: &[(f64, f64)]) -> String {
    series
        .iter()
        .map(|(x, y)| format!("({x:.0},{y:.1})"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Run `f`, returning its result and the wall-clock seconds it took.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// `n` events in `secs` seconds, as thousands of events per second.
pub fn kevps(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9) / 1_000.0
}

/// Best (highest) of `n` rounds after one discarded warm-up round — on a
/// shared machine only the least-descheduled sample of a point means much.
pub fn best_of(n: usize, mut round: impl FnMut() -> f64) -> f64 {
    round();
    (0..n).map(|_| round()).fold(f64::MIN, f64::max)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers_do_not_panic() {
        super::header("E0", "nothing");
        super::compare_row("metric", "1", "2");
        super::data_row(&["a".into(), "b".into()]);
        assert_eq!(super::fmt_series(&[(1.0, 2.0)]), "(1,2.0)");
        assert_eq!(super::kevps(2_000, super::time(|| 1.0).0), 2.0);
        let mut rounds = [9.0, 1.0, 3.0].into_iter();
        assert_eq!(super::best_of(2, || rounds.next().unwrap()), 3.0);
    }
}
