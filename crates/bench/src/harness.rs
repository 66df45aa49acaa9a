//! A criterion-compatible micro-benchmark harness.
//!
//! The build environment has no crate registry, so this module provides
//! the slice of the Criterion API the bench targets use — `Criterion`,
//! `Bencher::iter`, benchmark groups with parameterised ids, and the
//! `criterion_group!` / `criterion_main!` macros — backed by plain
//! `std::time::Instant` sampling.  Results print one line per benchmark
//! (median ns/iter with min..max spread); `criterion_main!` then hands the
//! medians of every group to one [`crate::report::Report`].

use std::time::Instant;

/// Re-export so `use jamm_bench::harness::black_box` mirrors criterion.
pub use std::hint::black_box;

/// One recorded benchmark result, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id (function name, possibly `/parameter`).
    pub name: String,
    /// Median ns per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Set how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(5);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let result = run_bench(name, self.sample_size, &mut routine);
        print_result(&result);
        self.results.push(result);
        self
    }

    /// Start a named group of parameterised benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A group of related benchmarks, usually swept over a parameter.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one parameterised benchmark in the group.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        let sample_size = self.criterion.sample_size;
        let result = run_bench(&full, sample_size, &mut |b| routine(b, input));
        print_result(&result);
        self.criterion.results.push(result);
        self
    }

    /// End the group (accounting only; nothing to flush).
    pub fn finish(self) {}
}

/// Identifier distinguishing benchmarks within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Use the parameter's display form as the id.
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An explicit function-name/parameter id.
    pub fn new(function: impl Into<String>, p: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{p}", function.into()))
    }
}

/// Passed to the benchmark routine; [`Bencher::iter`] times the closure.
pub struct Bencher {
    /// (iterations, elapsed ns) per sample, filled by `iter`.
    samples: Vec<(u64, u128)>,
    sample_size: usize,
}

impl Bencher {
    /// Time `f`, running enough iterations per sample for a stable reading.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count that runs for
        // roughly a millisecond per sample.
        let mut iters_per_sample = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed > 1_000_000 || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 4;
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            self.samples
                .push((iters_per_sample, start.elapsed().as_nanos()));
        }
    }
}

fn run_bench(name: &str, sample_size: usize, routine: &mut dyn FnMut(&mut Bencher)) -> BenchResult {
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    routine(&mut bencher);
    let mut per_iter: Vec<f64> = bencher
        .samples
        .iter()
        .map(|&(iters, ns)| ns as f64 / iters.max(1) as f64)
        .collect();
    if per_iter.is_empty() {
        per_iter.push(0.0);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    BenchResult {
        name: name.to_string(),
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: *per_iter.first().expect("non-empty"),
        max_ns: *per_iter.last().expect("non-empty"),
        samples: per_iter.len(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn print_result(r: &BenchResult) {
    println!(
        "{:<50} time: [{} .. {} .. {}]",
        r.name,
        fmt_ns(r.min_ns),
        fmt_ns(r.median_ns),
        fmt_ns(r.max_ns)
    );
}

/// Define the benchmark entry group, criterion-style.  Both forms are
/// supported:
///
/// ```ignore
/// criterion_group!(benches, bench_a, bench_b);
/// criterion_group! {
///     name = benches;
///     config = Criterion::default().sample_size(30);
///     targets = bench_a, bench_b
/// }
/// ```
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() -> $crate::harness::Criterion {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
            criterion
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::harness::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Generate `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut report = $crate::report::Report::new(env!("CARGO_CRATE_NAME"));
            $(
                for r in $group().results() {
                    report.measured(format!("{}/median_ns", r.name), r.median_ns);
                }
            )+
            report.finish();
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_result() {
        let mut c = Criterion::default().sample_size(5);
        c.bench_function("spin", |b| b.iter(|| black_box(3u64).pow(7)));
        let r = &c.results()[0];
        assert_eq!(r.name, "spin");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn groups_namespace_their_ids() {
        let mut c = Criterion::default().sample_size(5);
        let mut g = c.benchmark_group("group");
        g.bench_with_input(BenchmarkId::from_parameter(8), &8u64, |b, &n| {
            b.iter(|| black_box(n) * 2)
        });
        g.finish();
        assert_eq!(c.results()[0].name, "group/8");
    }
}
