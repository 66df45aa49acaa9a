//! Self-instrumentation primitives: the metrics registry JAMM uses to
//! monitor *itself*.
//!
//! The paper's thesis is that you cannot manage what you cannot measure —
//! and that holds for the monitoring system too.  This module is the
//! measurement substrate the rest of the workspace threads through its
//! layers: named [`Counter`]s and [`Gauge`]s, log-bucketed latency
//! [`Histogram`]s, and a [`MetricsRegistry`] that turns all of them (plus
//! per-entity rows contributed by registered collectors) into one
//! [`MetricsSnapshot`] with a Prometheus-style text exposition.
//!
//! Design constraints, in order:
//!
//! * **Hot-path recording is one relaxed atomic add** — no locks, no
//!   allocation, no branching on contended state.  A histogram record
//!   computes its bucket with integer bit arithmetic and bumps exactly one
//!   `AtomicU64`; count, sum and quantiles are derived at snapshot time.
//! * **Snapshots are plain data** and merge associatively: a fleet of
//!   per-shard or per-process histograms folds into one distribution by
//!   element-wise addition, in any grouping.
//! * **std only**, like everything else in the workspace.
//!
//! Quantiles are approximate by construction: a bucket spans at most a
//! `1/2^SUB_BITS` (12.5%) relative range, so any reported quantile is
//! within that bound of the true recorded value.  The property tests
//! assert exactly this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power of two,
/// bounding the relative quantile error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Values `0..SUBS` get exact unit buckets; each higher octave `[2^m,
/// 2^(m+1))` for `m in SUB_BITS..64` gets `SUBS` sub-buckets.
pub(crate) const BUCKETS: usize = (64 - SUB_BITS as usize) * SUBS + SUBS;

/// Bucket index for a recorded value: pure bit arithmetic, no branches on
/// shared state.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) & (SUBS as u64 - 1);
        (((msb - SUB_BITS + 1) << SUB_BITS) | sub as u32) as usize
    }
}

/// Inclusive `[lower, upper]` value range of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUBS {
        (idx as u64, idx as u64)
    } else {
        let msb = (idx as u32 >> SUB_BITS) - 1 + SUB_BITS;
        let sub = (idx & (SUBS - 1)) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        let lower = (1u64 << msb) + sub * width;
        // `width - 1` first: the top bucket's `lower + width` is 2^64.
        (lower, lower + (width - 1))
    }
}

/// A lock-free, log-bucketed latency histogram (HDR-style).
///
/// `record` is a single relaxed `fetch_add` on one of a fixed array of
/// buckets — no allocation, no locks, safe from any thread.  Everything
/// else (count, mean, quantiles, max) is derived from a
/// [`HistogramSnapshot`].
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.snapshot().count())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Record one value: exactly one relaxed atomic add.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a `Duration` in microseconds.
    #[inline]
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// A plain-data copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data histogram state: mergeable, queryable, serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise merge: `(a ⊎ b) ⊎ c == a ⊎ (b ⊎ c)` by construction.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th recorded value (so the true
    /// value is ≤ the reported one, within the bucket's 12.5% relative
    /// width).  Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx).1;
            }
        }
        self.max()
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper bound of the highest non-empty bucket (exact for values < 8).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|idx| bucket_bounds(idx).1)
            .unwrap_or(0)
    }

    /// Approximate mean, using bucket midpoints.
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let (lo, hi) = bucket_bounds(idx);
                c as f64 * ((lo + hi) as f64 / 2.0)
            })
            .sum();
        sum / total as f64
    }

    /// Raw bucket counts (index with [`bucket_bounds`]).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

/// The value carried by one exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Instantaneous gauge reading.
    Gauge(f64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// One named (and optionally labelled) metric reading in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name, e.g. `jamm_gateway_events_in`.
    pub name: String,
    /// Label pairs, e.g. `[("gateway", "gw.lbl.gov:8765")]`.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

impl Sample {
    /// A counter sample.
    pub fn counter(name: impl Into<String>, v: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: Vec::new(),
            value: SampleValue::Counter(v),
        }
    }

    /// A gauge sample.
    pub fn gauge(name: impl Into<String>, v: f64) -> Sample {
        Sample {
            name: name.into(),
            labels: Vec::new(),
            value: SampleValue::Gauge(v),
        }
    }

    /// Attach a label pair.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Sample {
        self.labels.push((key.into(), value.into()));
        self
    }
}

/// A point-in-time reading of every metric a registry knows about.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All samples, registry metrics first (sorted by name), then
    /// collector-contributed rows in registration order.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// First sample with this name (ignoring labels), if any.
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Value of the first counter sample with this name and label pair.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Option<u64> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .find(|s| s.labels.iter().any(|(k, v)| k == key && v == value))
            .and_then(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Value of the first gauge sample with this name and label pair.
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .find(|s| s.labels.iter().any(|(k, v)| k == key && v == value))
            .and_then(|s| match &s.value {
                SampleValue::Gauge(v) => Some(*v),
                _ => None,
            })
    }

    /// Render the snapshot in a Prometheus-style text exposition format.
    ///
    /// Counters and gauges become one line each; histograms are rendered
    /// summary-style with `{quantile=...}` lines plus `_count` and `_max`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for s in &self.samples {
            let kind = match &s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "summary",
            };
            if s.name != last_name {
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = &s.name;
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, render_labels(&s.labels, None), v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, render_labels(&s.labels, None), v);
                }
                SampleValue::Histogram(h) => {
                    for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                        let _ =
                            writeln!(out, "{}{} {}", s.name, render_labels(&s.labels, Some(q)), v);
                    }
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        render_labels(&s.labels, None),
                        h.count()
                    );
                    let _ = writeln!(
                        out,
                        "{}_max{} {}",
                        s.name,
                        render_labels(&s.labels, None),
                        h.max()
                    );
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], quantile: Option<f64>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", k, v.replace('"', "'"));
    }
    if let Some(q) = quantile {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{q}\"");
    }
    out.push('}');
    out
}

/// A callback contributing dynamic per-entity samples (per subscription,
/// per socket, per shard…) to a snapshot.
pub type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    collectors: Vec<Collector>,
}

/// A named collection of metrics plus snapshot collectors.
///
/// Registration (cold path) takes a lock; the returned `Arc` handles are
/// what hot paths hold — recording through them never touches the
/// registry again.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("collectors", &inner.collectors.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Register a collector contributing samples at snapshot time.
    pub fn register_collector(&self, collector: Collector) {
        self.inner.lock().collectors.push(collector);
    }

    /// Read every metric and run every collector.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut samples = Vec::new();
        for (name, c) in &inner.counters {
            samples.push(Sample::counter(name.clone(), c.get()));
        }
        for (name, g) in &inner.gauges {
            samples.push(Sample::gauge(name.clone(), g.get()));
        }
        for (name, h) in &inner.histograms {
            samples.push(Sample {
                name: name.clone(),
                labels: Vec::new(),
                value: SampleValue::Histogram(h.snapshot()),
            });
        }
        for collector in &inner.collectors {
            collector(&mut samples);
        }
        MetricsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jamm_test_events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name yields the same underlying counter.
        reg.counter("jamm_test_events").add(1);
        assert_eq!(c.get(), 6);
        let g = reg.gauge("jamm_test_saturation");
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < f64::EPSILON);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("jamm_test_events").map(|s| &s.value),
            Some(&SampleValue::Counter(6))
        );
    }

    #[test]
    fn bucket_bounds_are_a_partition() {
        // Every bucket's bounds are contiguous with the next bucket's, and
        // bucket_of maps each bound into its own bucket.
        let mut expected_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} lower bound");
            assert!(hi >= lo);
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(hi), idx);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "buckets cover the full u64 range");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for idx in SUBS..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            // Bucket width / lower bound ≤ 1/8: a reported quantile (the
            // bucket's upper bound) is within 12.5% of any value in it.
            assert!(
                (hi - lo) as f64 / lo as f64 <= 1.0 / SUBS as f64,
                "bucket {idx} [{lo}, {hi}] too wide"
            );
        }
    }

    #[test]
    fn quantiles_fall_within_bucket_error_bounds() {
        forall("histogram quantile bounds", 64, |g| {
            let h = Histogram::new();
            let n = g.usize_in(1, 400);
            let mut values: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix magnitudes so many octaves are exercised.
                    let octave = g.usize_in(0, 30);
                    g.u64(1 << octave)
                })
                .collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count() as usize, n, "no recorded value lost");
            for q in [0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let truth = values[rank - 1];
                let reported = snap.quantile(q);
                // The reported value is the upper bound of the bucket
                // holding the true value: never below the truth, and no
                // more than one bucket-width above it.
                let (lo, hi) = bucket_bounds(bucket_of(truth));
                assert!(
                    reported >= truth && reported == hi,
                    "q={q}: truth {truth} in [{lo},{hi}], reported {reported}"
                );
            }
            assert_eq!(snap.max(), bucket_bounds(bucket_of(values[n - 1])).1);
        });
    }

    #[test]
    fn snapshots_merge_associatively() {
        forall("histogram merge associativity", 64, |g| {
            let parts: Vec<HistogramSnapshot> = (0..3)
                .map(|_| {
                    let h = Histogram::new();
                    for _ in 0..g.usize_in(0, 200) {
                        let bound = 1 << g.usize_in(1, 40);
                        h.record(g.u64(bound));
                    }
                    h.snapshot()
                })
                .collect();
            // (a ⊎ b) ⊎ c
            let mut left = parts[0].clone();
            left.merge(&parts[1]);
            left.merge(&parts[2]);
            // a ⊎ (b ⊎ c)
            let mut bc = parts[1].clone();
            bc.merge(&parts[2]);
            let mut right = parts[0].clone();
            right.merge(&bc);
            assert_eq!(left, right);
            assert_eq!(
                left.count(),
                parts.iter().map(|p| p.count()).sum::<u64>(),
                "merge preserves total count"
            );
        });
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let h = Arc::new(Histogram::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Different threads hit overlapping buckets.
                        h.record((t as u64 + 1) * 37 + i % 1024);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn render_text_exposition_format() {
        let reg = MetricsRegistry::new();
        reg.counter("jamm_events_in").add(42);
        reg.gauge("jamm_saturation").set(0.5);
        let h = reg.histogram("jamm_route_us");
        for v in [10, 20, 30] {
            h.record(v);
        }
        reg.register_collector(Box::new(|out| {
            out.push(
                Sample::counter("jamm_sub_delivered", 7).with_label("consumer", "nlv-analyst"),
            );
        }));
        let text = reg.snapshot().render_text();
        assert!(text.contains("# TYPE jamm_events_in counter"));
        assert!(text.contains("jamm_events_in 42"));
        assert!(text.contains("jamm_saturation 0.5"));
        assert!(text.contains("# TYPE jamm_route_us summary"));
        assert!(text.contains("jamm_route_us{quantile=\"0.5\"}"));
        assert!(text.contains("jamm_route_us_count 3"));
        assert!(text.contains("jamm_sub_delivered{consumer=\"nlv-analyst\"} 7"));
    }

    #[test]
    fn snapshot_lookup_by_label() {
        let reg = MetricsRegistry::new();
        reg.register_collector(Box::new(|out| {
            out.push(Sample::counter("jamm_gw_events", 3).with_label("gateway", "a"));
            out.push(Sample::counter("jamm_gw_events", 9).with_label("gateway", "b"));
        }));
        let snap = reg.snapshot();
        assert_eq!(snap.counter_with("jamm_gw_events", "gateway", "b"), Some(9));
        assert_eq!(snap.counter_with("jamm_gw_events", "gateway", "c"), None);
    }
}
