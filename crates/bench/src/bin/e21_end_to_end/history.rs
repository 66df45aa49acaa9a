//! `history_query`: the storage layers used the other way.  Set-up preloads
//! generator events spread over four simulated hours into a persistent
//! archive through the real pipeline, runs maintenance and restarts the
//! deployment on that directory; then two reader threads issue a seeded mix
//! of queries through `JammSystem::query`, closed loop.  Every answer is
//! compared with a brute-force filter over what the generator emitted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jamm::jamm_core::query::Predicate;
use jamm::jamm_core::rng::Rng;
use jamm::jamm_ulm::Timestamp;
use jamm::JammSystem;

use crate::gen::{host_name, Fleet, Rec, Shared, Tap, TapOptions, CPU_TOTAL, EVENT_TYPES, HOSTS};
use crate::layers::{hist_delta, ratio};
use crate::metrics::Outcome;
use crate::spans::SpanLog;
use crate::stats::{self, Clock};
use crate::system::{System, Topology};
use crate::Config;

const READERS: usize = 2;
/// 2000-01-01T00:00:00Z, microseconds: preloaded history starts here.
const EPOCH_US: u64 = 946_684_800_000_000;
const SPAN_US: u64 = 4 * 3_600 * 1_000_000;
const NARROW_US: u64 = 120 * 1_000_000;
const AGGREGATE_US: u64 = 600 * 1_000_000;
/// Ticks between archiver polls while preloading: at most six events a tick,
/// so the archiver's 4096-event queue never fills.
const TICKS_PER_POLL: u64 = 256;
/// A one-second window's p99 counts from this many queries on.
const P99_WINDOW_QUERIES: usize = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One host, a two-minute window: pruned to a few segments.
    Narrow,
    /// One type above a high threshold over the whole range: a columnar scan
    /// of every segment that keeps few rows.
    Selective,
    /// Top five hosts by mean CPU over ten minutes.
    Aggregate,
    /// One type, the whole archive.
    Full,
}

pub const KINDS: [Kind; 4] = [Kind::Narrow, Kind::Selective, Kind::Aggregate, Kind::Full];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Narrow => "narrow",
            Kind::Selective => "selective",
            Kind::Aggregate => "aggregate",
            Kind::Full => "full",
        }
    }

    fn layer_metric(self) -> &'static str {
        match self {
            Kind::Narrow => "query.narrow.p50_us",
            Kind::Selective => "query.selective.p50_us",
            Kind::Aggregate => "query.aggregate.p50_us",
            Kind::Full => "query.full.p50_us",
        }
    }
}

/// Twenty queries: 60 % narrow, 25 % selective, 10 % aggregate, 5 % full.
const MIX: [(Kind, usize); 4] = [
    (Kind::Narrow, 12),
    (Kind::Selective, 5),
    (Kind::Aggregate, 2),
    (Kind::Full, 1),
];

/// What the brute-force filter says a query must return.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub rows: usize,
    /// Host, member count and mean of the top group (aggregate queries).
    pub top: Option<(usize, u64, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub kind: Kind,
    pub text: String,
    pub expected: Expected,
}

/// The predicate of a query in the bench's own terms.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    kind: Kind,
    host: Option<usize>,
    ty: Option<usize>,
    over: Option<f64>,
    from: u64,
    to: u64,
}

impl Shape {
    fn text(&self) -> String {
        let mut s = String::from("(&");
        if let Some(h) = self.host {
            s.push_str(&format!("(host={})", host_name(h)));
        }
        if let Some(t) = self.ty {
            s.push_str(&format!("(type={})", EVENT_TYPES[t]));
        }
        if let Some(v) = self.over {
            s.push_str(&format!("(val>{v})"));
        }
        if self.kind == Kind::Narrow || self.kind == Kind::Aggregate {
            s.push_str(&format!("(time>={})(time<{})", self.from, self.to));
        }
        if self.kind == Kind::Aggregate {
            s.push_str("(groupby=host)(topk=5)");
        }
        s.push(')');
        s
    }

    fn admits(&self, r: &Rec) -> bool {
        self.host.is_none_or(|h| usize::from(r.host) == h)
            && self.ty.is_none_or(|t| usize::from(r.ty) == t)
            && self.over.is_none_or(|v| r.val > v)
            && r.ts >= self.from
            && r.ts < self.to
    }

    /// The reference answer: a plain filter over every generated event.
    fn expect(&self, recs: &[Rec]) -> Expected {
        let mut rows = 0;
        let mut groups = [(0u64, 0f64); HOSTS];
        for r in recs.iter().filter(|r| self.admits(r)) {
            rows += 1;
            groups[usize::from(r.host)].0 += 1;
            groups[usize::from(r.host)].1 += r.val;
        }
        let top = (self.kind == Kind::Aggregate)
            .then(|| {
                groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.0 > 0)
                    .map(|(h, g)| (h, g.0, g.1 / g.0 as f64))
                    .max_by(|a, b| a.2.total_cmp(&b.2))
            })
            .flatten();
        Expected { rows, top }
    }
}

/// Thresholds that keep well under 2 % of a type's readings.
fn selective_threshold(ty: usize, rng: &mut Rng) -> f64 {
    let (lo, hi) = match ty {
        CPU_TOTAL => (97.0, 99.5),
        1 => (78.5, 79.8),
        2 => (19.6, 19.95),
        _ => (3_930_000.0, 3_990_000.0),
    };
    ((lo + rng.gen_f64() * (hi - lo)) * 100.0_f64).round() / 100.0
}

/// The seeded pool of distinct queries, each with its reference answer.
pub fn query_pool(seed: u64, recs: &[Rec], span: (u64, u64)) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7175_6572_7921);
    let (first, last) = span;
    let window = |rng: &mut Rng, len: u64| {
        let from = first + rng.gen_range(0..(last - first).saturating_sub(len).max(1));
        (from, from + len)
    };
    let mut shapes = Vec::new();
    for _ in 0..240 {
        let (from, to) = window(&mut rng, NARROW_US);
        shapes.push(Shape {
            kind: Kind::Narrow,
            host: Some(rng.gen_range(0..HOSTS)),
            ty: None,
            over: None,
            from,
            to,
        });
    }
    for _ in 0..20 {
        let ty = rng.gen_range(0..4usize);
        shapes.push(Shape {
            kind: Kind::Selective,
            host: None,
            ty: Some(ty),
            over: Some(selective_threshold(ty, &mut rng)),
            from: 0,
            to: u64::MAX,
        });
    }
    for _ in 0..40 {
        let (from, to) = window(&mut rng, AGGREGATE_US);
        shapes.push(Shape {
            kind: Kind::Aggregate,
            host: None,
            ty: Some(CPU_TOTAL),
            over: None,
            from,
            to,
        });
    }
    for ty in 0..4 {
        shapes.push(Shape {
            kind: Kind::Full,
            host: None,
            ty: Some(ty),
            over: None,
            from: 0,
            to: u64::MAX,
        });
    }
    shapes
        .into_iter()
        .map(|s| Query {
            kind: s.kind,
            text: s.text(),
            expected: s.expect(recs),
        })
        .collect()
}

/// One reader's endless schedule: blocks of twenty in the fixed mix, each
/// block shuffled, each kind walking its part of the pool from a seeded
/// offset.
pub struct Schedule {
    by_kind: Vec<Vec<usize>>,
    cursor: [usize; 4],
    block: Vec<Kind>,
    rng: Rng,
}

impl Schedule {
    pub fn new(seed: u64, reader: usize, pool: &[Query]) -> Schedule {
        let mut rng = Rng::seed_from_u64(seed ^ (0x7265_6164 + reader as u64));
        let by_kind: Vec<Vec<usize>> = KINDS
            .iter()
            .map(|k| (0..pool.len()).filter(|i| pool[*i].kind == *k).collect())
            .collect();
        let cursor = std::array::from_fn(|k| rng.gen_range(0..by_kind[k].len().max(1)));
        Schedule {
            by_kind,
            cursor,
            block: Vec::new(),
            rng,
        }
    }

    /// Index into the pool of the next query to issue.
    pub fn next(&mut self) -> usize {
        if self.block.is_empty() {
            for (kind, n) in MIX {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block was just refilled");
        let k = KINDS.iter().position(|x| *x == kind).expect("known kind");
        let slot = self.cursor[k];
        self.cursor[k] = (slot + 1) % self.by_kind[k].len();
        self.by_kind[k][slot]
    }
}

/// A preloaded, restarted deployment and what the generator put into it.
pub struct Loaded {
    pub sys: System,
    pub recs: Vec<Rec>,
    pub span: (u64, u64),
    pub reopen_s: f64,
}

/// Preload `events` generator events through managers → gateway → archiver
/// → WAL → segments, run maintenance, then restart the deployment on the
/// same directory (its gateway starts empty, so queries measure history).
pub fn preload(seed: u64, events: u64, clock: Clock) -> Result<Loaded, String> {
    let topology = Topology {
        archiver: true,
        ..Topology::default()
    };
    let mut sys = System::build(topology, false, None)?;
    let shared = Arc::new(Shared::default());
    let options = TapOptions {
        recs: true,
        ..TapOptions::default()
    };
    let tap = Tap::new(
        Arc::clone(&sys.jamm.gateways[0]),
        Arc::clone(&shared),
        options,
        clock,
    );
    let mut fleet = Fleet::new(seed);
    // A tick emits 4.6 events on average; spread them over the span.
    let step_us = (SPAN_US * 46 / (10 * events.max(1))).max(1);
    let mut stamp = EPOCH_US;
    let mut ticks = 0u64;
    while shared.offered.load(Ordering::Relaxed) < events {
        stamp += step_us;
        tap.tick(&mut fleet, Timestamp::from_micros(stamp));
        ticks += 1;
        if ticks.is_multiple_of(TICKS_PER_POLL) {
            sys.jamm.poll();
        }
    }
    sys.jamm.poll();
    let report = sys.jamm.archive_maintenance(Timestamp::from_micros(stamp));
    if !report.errors.is_empty() {
        return Err(format!("maintenance: {}", report.errors.join("; ")));
    }
    let offered = shared.offered.load(Ordering::Relaxed);
    if sys.jamm.archive.len() as u64 != offered {
        return Err(format!(
            "preload archived {} of {offered}",
            sys.jamm.archive.len()
        ));
    }
    let dir = sys.into_dir();
    let t0 = Instant::now();
    let sys = System::build(topology, false, dir)?;
    let reopen_s = t0.elapsed().as_secs_f64();
    if sys.jamm.archive.len() as u64 != offered {
        return Err(format!(
            "restarted archive holds {} of {offered}",
            sys.jamm.archive.len()
        ));
    }
    Ok(Loaded {
        sys,
        recs: tap.into_tally().recs,
        span: (EPOCH_US, stamp + 1),
        reopen_s,
    })
}

/// One completed query as a reader recorded it.
#[derive(Debug, Clone, Copy)]
struct Done {
    kind: Kind,
    at_ns: u64,
    took_ns: u32,
    rows: u32,
}

#[derive(Default)]
struct ReaderLog {
    done: Vec<Done>,
    wrong: Vec<String>,
    spans: SpanLog,
}

fn answer_matches(jamm: &JammSystem, q: &Query, now: Timestamp) -> Result<usize, String> {
    let answer = jamm
        .query("reader", &q.text, now)
        .map_err(|e| format!("{}: {e}", q.text))?;
    let rows = answer.history.len();
    if rows != q.expected.rows {
        return Err(format!(
            "{}: {rows} rows, reference says {}",
            q.text, q.expected.rows
        ));
    }
    if let Some((host, count, mean)) = q.expected.top {
        let top = answer
            .aggregates
            .first()
            .ok_or_else(|| format!("{}: no aggregate rows", q.text))?;
        let same = top.host.map(|h| h.as_str()) == Some(host_name(host).as_str())
            && top.count == count
            && top
                .mean
                .is_some_and(|m| (m - mean).abs() <= 1e-9 * mean.abs());
        if !same {
            return Err(format!(
                "{}: top group {:?} x{} mean {:?}, reference says {} x{count} mean {mean}",
                q.text,
                top.host.map(|h| h.as_str()),
                top.count,
                top.mean,
                host_name(host)
            ));
        }
    }
    Ok(rows)
}

/// Run the readers for `secs`; returns every completed query of every
/// reader and the checks that failed.
fn read_for(
    jamm: &JammSystem,
    pool: &[Query],
    seed: u64,
    secs: f64,
    traced: bool,
    clock: Clock,
    now: Timestamp,
) -> Vec<ReaderLog> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let stop = &stop;
                std::thread::Builder::new()
                    .name(format!("e21-reader-{reader}"))
                    .spawn_scoped(scope, move || {
                        let mut schedule = Schedule::new(seed, reader, pool);
                        let mut log = ReaderLog::default();
                        let mut issued = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let q = &pool[schedule.next()];
                            issued += 1;
                            let t0 = clock.now_ns();
                            let span = traced.then(|| log.spans.enter("query", issued, t0));
                            let result = answer_matches(jamm, q, now);
                            let t1 = clock.now_ns();
                            if let Some(id) = span {
                                log.spans.exit(id, t1);
                            }
                            match result {
                                Ok(rows) => log.done.push(Done {
                                    kind: q.kind,
                                    at_ns: t1,
                                    took_ns: (t1 - t0).min(u64::from(u32::MAX)) as u32,
                                    rows: rows as u32,
                                }),
                                Err(e) => log.wrong.push(e),
                            }
                        }
                        log
                    })
                    .expect("spawn reader thread")
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread panicked"))
            .collect()
    })
}

/// What one measured stretch of reading came to.
struct Reading {
    logs: Vec<ReaderLog>,
    elapsed_s: f64,
    cpu_s: f64,
    rows: u64,
}

fn measure_reading(
    jamm: &JammSystem,
    pool: &[Query],
    cfg: &Config,
    secs: f64,
    traced: bool,
    clock: Clock,
    now: Timestamp,
) -> Reading {
    let cpu0 = stats::process_cpu_seconds();
    let t0 = Instant::now();
    let logs = read_for(jamm, pool, cfg.seed, secs, traced, clock, now);
    Reading {
        elapsed_s: t0.elapsed().as_secs_f64(),
        cpu_s: stats::process_cpu_seconds() - cpu0,
        rows: logs
            .iter()
            .flat_map(|l| &l.done)
            .map(|d| u64::from(d.rows))
            .sum(),
        logs,
    }
}

/// Microseconds `Predicate::parse` + `compile` take on the pool's texts.
fn parse_compile_us(pool: &[Query]) -> f64 {
    let t0 = Instant::now();
    for q in pool {
        let plan = Predicate::parse(&q.text).map(|p| p.compile());
        std::hint::black_box(plan.is_ok());
    }
    ratio(t0.elapsed().as_secs_f64() * 1e6, pool.len() as f64)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let clock = Clock::start();
    let mut out = Outcome::default();
    // Set-up is one whole preload: seconds of steady work, long enough to
    // time once (the streaming workloads' short set-up is timed five times).
    let t0 = Instant::now();
    let Loaded {
        sys,
        recs,
        span,
        reopen_s,
    } = preload(cfg.seed, cfg.preload_events(), clock)?;
    out.set("setup_s", t0.elapsed().as_secs_f64());
    let pool = query_pool(cfg.seed, &recs, span);
    let now = Timestamp::from_micros(span.1);
    let jamm = &sys.jamm;
    let segments = jamm.archive.segment_catalogs().len();
    out.notes.push(format!(
        "history: {} events over {:.1} simulated hours in {segments} segments, {} distinct queries, {READERS} closed-loop readers, no publish traffic",
        recs.len(),
        (span.1 - span.0) as f64 / 3.6e9,
        pool.len()
    ));

    read_for(jamm, &pool, cfg.seed, cfg.warm_s(), false, clock, now);
    let plain = measure_reading(
        jamm,
        &pool,
        cfg,
        if cfg.traced {
            cfg.seconds / 4.0
        } else {
            cfg.seconds
        },
        false,
        clock,
        now,
    );
    // The events this workload delivers are the rows its queries return.
    out.set(
        "e2e.delivered_kev_s",
        ratio(plain.rows as f64, plain.elapsed_s) / 1e3,
    );
    let reading = if cfg.traced {
        let tsdb = jamm.archive.stats();
        let (scanned0, pruned0) = (tsdb.segments_scanned(), tsdb.segments_pruned());
        let setup0 = tsdb.scan_setup_us().snapshot();
        let (allocs0, bytes0, ctx0) = (
            crate::ALLOCS.load(Ordering::Relaxed),
            crate::ALLOC_BYTES.load(Ordering::Relaxed),
            stats::process_ctx_switches(),
        );
        crate::COUNT_ALLOCS.store(true, Ordering::Relaxed);
        let traced = measure_reading(jamm, &pool, cfg, cfg.seconds / 2.0, true, clock, now);
        crate::COUNT_ALLOCS.store(false, Ordering::Relaxed);
        let queries = traced.logs.iter().map(|l| l.done.len()).sum::<usize>() as f64;
        let rows = traced.rows as f64;
        out.set("query.per_s", ratio(queries, traced.elapsed_s));
        out.set("core.query.parse_compile_us", parse_compile_us(&pool));
        out.set(
            "tsdb.segments_scanned_per_query",
            ratio((tsdb.segments_scanned() - scanned0) as f64, queries),
        );
        out.set(
            "tsdb.segments_pruned_per_query",
            ratio((tsdb.segments_pruned() - pruned0) as f64, queries),
        );
        out.set(
            "tsdb.scan_setup_us_mean",
            hist_delta(&setup0, &tsdb.scan_setup_us().snapshot()).mean(),
        );
        out.set("archive.rows_per_query", ratio(rows, queries));
        out.set("tsdb.rows_per_s", ratio(rows, traced.elapsed_s));
        out.set(
            "proc.allocs_per_event",
            ratio(
                (crate::ALLOCS.load(Ordering::Relaxed) - allocs0) as f64,
                rows,
            ),
        );
        out.set(
            "proc.alloc_bytes_per_event",
            ratio(
                (crate::ALLOC_BYTES.load(Ordering::Relaxed) - bytes0) as f64,
                rows,
            ),
        );
        out.set(
            "proc.ctx_switches_per_kev",
            ratio((stats::process_ctx_switches() - ctx0) as f64, rows / 1e3),
        );
        let (plain_cpu, traced_cpu) = (
            ratio(plain.cpu_s * 1e6, plain.rows as f64),
            ratio(traced.cpu_s * 1e6, rows),
        );
        out.set(
            "trace.overhead_pct",
            100.0 * ratio(traced_cpu - plain_cpu, plain_cpu),
        );
        for kind in KINDS {
            let mut took: Vec<u32> = traced
                .logs
                .iter()
                .flat_map(|l| &l.done)
                .filter(|d| d.kind == kind)
                .map(|d| d.took_ns)
                .collect();
            took.sort_unstable();
            out.set(kind.layer_metric(), stats::percentile(&took, 0.5) / 1e3);
            out.notes.push(format!(
                "query.{}: {} completed, p50 {:.1} us",
                kind.name(),
                took.len(),
                stats::percentile(&took, 0.5) / 1e3
            ));
        }
        out.set("tsdb.reopen_ms", reopen_s * 1e3);
        out.set(
            "tsdb.wal_recovered_events",
            tsdb.wal_recovered_events() as f64,
        );
        if let Some(dir) = &sys.dir {
            out.set(
                "tsdb.disk_bytes_per_event",
                ratio(stats::dir_bytes(dir.path(), None) as f64, recs.len() as f64),
            );
        }
        let path = crate::system::scratch_root().join(format!("{}.spans.jsonl", cfg.workload));
        let threads: Vec<(String, &[crate::spans::Span])> = traced
            .logs
            .iter()
            .enumerate()
            .map(|(i, l)| (format!("reader-{i}"), l.spans.spans()))
            .collect();
        crate::spans::write_jsonl(&path, &threads)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
        traced
    } else {
        plain
    };

    let done: Vec<Done> = reading
        .logs
        .iter()
        .flat_map(|l| l.done.iter().copied())
        .collect();
    for log in &reading.logs {
        out.wrong.extend(log.wrong.iter().cloned());
    }
    let wrong = reading.logs.iter().map(|l| l.wrong.len()).sum::<usize>() as u64;
    out.attempted = done.len() as u64 + wrong;
    out.failed = wrong;
    out.set(
        "e2e.failed_pct",
        100.0 * ratio(wrong as f64, out.attempted as f64),
    );

    out.set(
        "cpu_us_per_event",
        ratio(reading.cpu_s * 1e6, reading.rows as f64),
    );
    let mut took: Vec<u32> = done.iter().map(|d| d.took_ns).collect();
    let first = done.iter().map(|d| d.at_ns).min().unwrap_or(0);
    let seconds = done
        .iter()
        .map(|d| ((d.at_ns - first) / 1_000_000_000) as usize)
        .max()
        .map_or(0, |s| s + 1);
    let mut windows = vec![Vec::new(); seconds];
    for d in &done {
        windows[((d.at_ns - first) / 1_000_000_000) as usize].push(d.took_ns);
    }
    let (p99, n_windows) = stats::windowed_p99(&mut windows, P99_WINDOW_QUERIES);
    took.sort_unstable();
    out.set("e2e.latency_p50_us", stats::percentile(&took, 0.5) / 1e3);
    out.set("e2e.latency_p99_us", p99 / 1e3);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("e2e.latency_p999_us", stats::percentile(&took, 0.999) / 1e3);
    out.notes.push(format!(
        "queries: {} completed and correct in {:.2} s ({:.1}/s, delivered_kev_s {:.1} rows), {wrong} wrong; p99 is the median of {n_windows} one-second windows (0 = whole run, {} samples)",
        done.len(),
        reading.elapsed_s,
        ratio(done.len() as f64, reading.elapsed_s),
        ratio(reading.rows as f64, reading.elapsed_s) / 1e3,
        took.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<Rec> {
        // Three hosts, CPU_TOTAL readings 10, 20, ... on a 1 s grid.
        (0..30u64)
            .map(|i| Rec {
                ts: EPOCH_US + i * 1_000_000,
                host: (i % 3) as u16,
                ty: CPU_TOTAL as u8,
                val: (i + 1) as f64 * 10.0,
            })
            .collect()
    }

    #[test]
    fn reference_filter_counts_and_ranks() {
        let shape = Shape {
            kind: Kind::Aggregate,
            host: None,
            ty: Some(CPU_TOTAL),
            over: None,
            from: EPOCH_US,
            to: EPOCH_US + 6_000_000,
        };
        // Events 0..6: host 0 gets 10, 40; host 1 gets 20, 50; host 2 gets 30, 60.
        let e = shape.expect(&recs());
        assert_eq!(e.rows, 6);
        assert_eq!(e.top, Some((2, 2, 45.0)));
        assert_eq!(
            shape.text(),
            format!(
                "(&(type=CPU_TOTAL)(time>={})(time<{})(groupby=host)(topk=5))",
                EPOCH_US,
                EPOCH_US + 6_000_000
            )
        );
        let narrow = Shape {
            kind: Kind::Narrow,
            host: Some(1),
            ty: None,
            over: Some(100.0),
            ..shape
        };
        assert_eq!(narrow.expect(&recs()), Expected { rows: 0, top: None });
        assert!(Predicate::parse(&narrow.text()).is_ok());
    }

    #[test]
    fn same_seed_same_pool_and_mix_other_seed_differs() {
        let r = recs();
        let span = (EPOCH_US, EPOCH_US + SPAN_US);
        let a = query_pool(5, &r, span);
        assert_eq!(a, query_pool(5, &r, span));
        assert_ne!(a, query_pool(6, &r, span));
        for q in &a {
            assert!(Predicate::parse(&q.text).is_ok(), "{}", q.text);
        }
        let order = |seed, reader| {
            let mut s = Schedule::new(seed, reader, &a);
            (0..200).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(order(5, 0), order(5, 0));
        assert_ne!(order(5, 0), order(5, 1));
        assert_ne!(order(5, 0), order(6, 0));
        // Every block of twenty holds the declared mix exactly.
        let mut s = Schedule::new(5, 0, &a);
        for _ in 0..5 {
            let mut counts = [0usize; 4];
            for _ in 0..20 {
                let k = a[s.next()].kind;
                counts[KINDS.iter().position(|x| *x == k).unwrap()] += 1;
            }
            assert_eq!(counts, [12, 5, 2, 1]);
        }
    }
}
