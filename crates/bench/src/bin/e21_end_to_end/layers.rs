//! Per-layer metrics of a traced streaming run, and the per-hop budget
//! table.
//!
//! Three sources, all outside the program: the bench's own spans around its
//! public calls, public counters read before and after the measured phase,
//! and the system's 1-in-64 self-lifelines joined to the bench's creation
//! and receive stamps.

use std::collections::HashMap;

use jamm::jamm_core::obs::{bucket_bounds, HistogramSnapshot};
use jamm::jamm_ulm::keys::jamm as stage;
use jamm::jamm_ulm::{binary, keys, SharedEvent};

use crate::drive::{ConsumerPhase, Driven, GenPhase};
use crate::gen::LIFELINE_EVERY;
use crate::metrics::Outcome;
use crate::spans::{self, Span};
use crate::stats::percentile;
use crate::system::Topology;

/// What a histogram recorded between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistDelta {
    pub count: u64,
    /// Sum of the recorded values, taking each at its bucket's midpoint.
    pub sum: f64,
    /// Upper bound of the bucket holding the 99th percentile.
    pub p99: u64,
}

impl HistDelta {
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count as f64)
    }
}

pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistDelta {
    let counts: Vec<u64> = after
        .buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let count: u64 = counts.iter().sum();
    let mut d = HistDelta {
        count,
        ..HistDelta::default()
    };
    let rank = ((0.99 * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (idx, c) in counts.iter().enumerate().filter(|(_, c)| **c > 0) {
        let (lo, hi) = bucket_bounds(idx);
        d.sum += *c as f64 * (lo + hi) as f64 / 2.0;
        if seen < rank {
            d.p99 = hi;
        }
        seen += c;
    }
    d
}

/// `a / b`, or 0 when there was nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn within(spans: &[Span], from_ns: u64, to_ns: u64) -> Vec<Span> {
    // Parents are re-pointed at the root when they fall outside the cut;
    // ids are re-numbered so `spans::totals` can index by them.
    let kept: Vec<&Span> = spans
        .iter()
        .filter(|s| s.start_ns >= from_ns && s.end_ns <= to_ns)
        .collect();
    let renumber: HashMap<u32, u32> = kept
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, i as u32 + 1))
        .collect();
    kept.iter()
        .map(|s| Span {
            id: renumber[&s.id],
            parent: renumber.get(&s.parent).copied().unwrap_or(spans::ROOT),
            ..**s
        })
        .collect()
}

/// One stage stamp of a self-lifeline.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    stage: String,
    target: String,
    at_ns: u64,
}

/// Self-lifeline trace events grouped by lifeline id (`NL.OID = jamm-<id>`).
fn lifelines(self_events: &[SharedEvent]) -> HashMap<u64, Vec<Point>> {
    let mut by_id: HashMap<u64, Vec<Point>> = HashMap::new();
    for e in self_events {
        let Some(id) = e
            .object_id()
            .and_then(|o| o.strip_prefix("jamm-"))
            .and_then(|n| n.parse().ok())
        else {
            continue;
        };
        by_id.entry(id).or_default().push(Point {
            stage: e.event_type.clone(),
            target: e
                .field(keys::TARGET)
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            at_ns: e.timestamp.as_micros() * 1_000,
        });
    }
    by_id
}

fn stamp(points: &[Point], stage: &str, target: Option<&str>) -> Option<u64> {
    points
        .iter()
        .find(|p| p.stage == stage && target.is_none_or(|t| p.target == t))
        .map(|p| p.at_ns)
}

/// One branch of the budget: the hops of every complete sampled lifeline.
#[derive(Debug, Default)]
pub struct Branch {
    pub name: &'static str,
    pub hops: Vec<&'static str>,
    /// `durations[hop]`, nanoseconds, one entry per complete lifeline.
    pub durations: Vec<Vec<u32>>,
    pub sampled: u64,
    pub complete: u64,
    /// Creation → consumer time of the sampled lifelines that lost a stage
    /// stamp, summed.  The bench's own two stamps never go missing, and the
    /// slowest trips are the ones the tracer's ring truncates: leaving them
    /// out would bias the sampled mean low.
    pub unattributed_ns: f64,
    /// Mean creation → consumer latency over *all* events of the phase.
    pub all_events_mean_ns: f64,
}

impl Branch {
    /// A hop's mean contribution to the end-to-end time of a sampled event.
    fn hop_mean_ns(&self, hop: usize) -> f64 {
        ratio(
            self.durations[hop].iter().map(|v| f64::from(*v)).sum(),
            self.sampled as f64,
        )
    }

    fn unattributed_mean_ns(&self) -> f64 {
        ratio(self.unattributed_ns, self.sampled as f64)
    }

    /// Mean creation → consumer time over every sampled lifeline.
    pub fn sampled_mean_ns(&self) -> f64 {
        (0..self.durations.len())
            .map(|hop| self.hop_mean_ns(hop))
            .sum::<f64>()
            + self.unattributed_mean_ns()
    }

    pub fn gap_pct(&self) -> f64 {
        100.0
            * ratio(
                (self.sampled_mean_ns() - self.all_events_mean_ns).abs(),
                self.all_events_mean_ns,
            )
    }

    pub fn complete_pct(&self) -> f64 {
        100.0 * ratio(self.complete as f64, self.sampled as f64)
    }

    /// The table: one row per hop with its mean contribution per sampled
    /// event, its p99 and its share of the total.  Rows are per-lifeline
    /// differences of consecutive stamps, so they telescope to each
    /// lifeline's end-to-end time and the mean column sums to the total.
    pub fn render(&self) -> Vec<String> {
        let total = self.sampled_mean_ns();
        let mut out = vec![format!(
            "budget [{}]: {} of {} sampled lifelines complete ({:.1} %)",
            self.name,
            self.complete,
            self.sampled,
            self.complete_pct()
        )];
        out.push(format!(
            "  {:<34} {:>10} {:>10} {:>7}",
            "hop", "mean_us", "p99_us", "share"
        ));
        for (slot, (hop, d)) in self.hops.iter().zip(&self.durations).enumerate() {
            let mut sorted = d.clone();
            sorted.sort_unstable();
            let mean = self.hop_mean_ns(slot);
            out.push(format!(
                "  {:<34} {:>10.1} {:>10.1} {:>6.1}%",
                hop,
                mean / 1e3,
                percentile(&sorted, 0.99) / 1e3,
                100.0 * ratio(mean, total)
            ));
        }
        if self.complete < self.sampled {
            let mean = self.unattributed_mean_ns();
            out.push(format!(
                "  {:<34} {:>10.1} {:>10} {:>6.1}%",
                "(truncated lifelines, no hops)",
                mean / 1e3,
                "-",
                100.0 * ratio(mean, total)
            ));
        }
        out.push(format!(
            "  {:<34} {:>10.1}   all-events mean {:.1} us, gap {:.1} % (limit 10 %)",
            "total (sampled)",
            total / 1e3,
            self.all_events_mean_ns / 1e3,
            self.gap_pct()
        ));
        out
    }
}

/// Join lifelines `first_id..` (those created in the measured phase) to the
/// bench's stamps along one branch.
#[allow(clippy::too_many_arguments)]
fn branch(
    name: &'static str,
    hops: &[(&'static str, &'static str, Option<&'static str>)],
    last_hop: &'static str,
    by_id: &HashMap<u64, Vec<Point>>,
    created_us: &[u64],
    arrived_ns: &[u64],
    ids: std::ops::Range<u64>,
    all_latency_ns: &[u32],
) -> Branch {
    let mut b = Branch {
        name,
        hops: hops.iter().map(|h| h.0).chain([last_hop]).collect(),
        durations: vec![Vec::new(); hops.len() + 1],
        all_events_mean_ns: ratio(
            all_latency_ns.iter().map(|v| f64::from(*v)).sum(),
            all_latency_ns.len() as f64,
        ),
        ..Branch::default()
    };
    for id in ids {
        let k = (id - 1) as usize;
        let (Some(created), Some(arrived)) = (created_us.get(k), arrived_ns.get(k)) else {
            continue;
        };
        b.sampled += 1;
        let points = by_id.get(&id).map(Vec::as_slice).unwrap_or(&[]);
        let mut stamps = vec![created * 1_000];
        stamps.extend(
            hops.iter()
                .filter_map(|(_, stage, target)| stamp(points, stage, *target)),
        );
        stamps.push(*arrived);
        if stamps.len() != hops.len() + 2 {
            b.unattributed_ns += arrived.saturating_sub(created * 1_000) as f64;
            continue;
        }
        b.complete += 1;
        // Stage stamps are whole microseconds; a hop that reads negative by
        // rounding counts as zero.
        for (slot, pair) in stamps.windows(2).enumerate() {
            let ns = pair[1].saturating_sub(pair[0]);
            b.durations[slot].push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }
    b
}

/// Nanoseconds per event for the binary codec on the workload's own events.
fn codec_ns_per_event(events: &[SharedEvent]) -> (f64, f64) {
    let mut frame = Vec::with_capacity(events.len() * 128);
    let t0 = std::time::Instant::now();
    for e in events {
        binary::encode_into(&mut frame, e);
    }
    let encode = t0.elapsed().as_nanos() as f64;
    let mut rest = std::hint::black_box(frame.as_slice());
    let mut decoded = 0usize;
    let t0 = std::time::Instant::now();
    while let Ok((event, used)) = binary::decode(rest) {
        std::hint::black_box(event);
        rest = &rest[used..];
        decoded += 1;
    }
    let decode = t0.elapsed().as_nanos() as f64;
    (
        ratio(encode, events.len() as f64),
        ratio(decode, decoded as f64),
    )
}

/// Fill `out` with the per-layer metrics of the measured phase of a traced
/// run, and append the budget tables to its notes.
pub fn report(out: &mut Outcome, topology: Topology, driven: &Driven, measured: usize, seed: u64) {
    let g: &GenPhase = &driven.gen[measured];
    let c: &ConsumerPhase = &driven.consumer.phases[measured];
    let (c0, c1) = (&c.start, &c.end);
    let offered = g.offered as f64;
    let delivered = g.delivered as f64;

    let gen_spans = within(driven.tally.spans.spans(), c0.at_ns, c1.at_ns);
    let gen_totals = spans::totals(&gen_spans);
    let consumer_spans = within(driven.consumer.spans.spans(), c0.at_ns, c1.at_ns);
    let consumer_totals = spans::totals(&consumer_spans);
    let span = |t: &std::collections::BTreeMap<&'static str, spans::SpanTotals>, n: &str| {
        t.get(n).copied().unwrap_or_default()
    };

    // manager, gateway
    let tick = span(&gen_totals, "manager.tick");
    let publish = span(&gen_totals, "gateway.publish");
    out.set("manager.events", offered);
    out.set(
        "manager.tick_us_per_event",
        ratio(tick.self_ns as f64 / 1e3, offered),
    );
    out.set(
        "gateway.publish_us_per_event",
        ratio(publish.total_ns as f64 / 1e3, offered),
    );
    let route = hist_delta(&c0.route_us, &c1.route_us);
    out.set("gateway.route_us_p99", route.p99 as f64);
    out.set(
        "gateway.fanout_ratio",
        ratio((c1.gw_out - c0.gw_out) as f64, (c1.gw_in - c0.gw_in) as f64),
    );
    out.set(
        "gateway.events_dropped",
        (c1.gw_dropped - c0.gw_dropped) as f64,
    );
    let views = spans::durations(&consumer_spans, "query");
    out.set("gateway.views.read_us_p50", percentile(&views, 0.5) / 1e3);

    // rmi.edge, reactor
    let edge_events = (c1.edge.events - c0.edge.events) as f64;
    let edge_batches = (c1.edge.batches - c0.edge.batches) as f64;
    let per_batch = ratio(edge_events, edge_batches);
    out.set("rmi.edge.events_per_batch", per_batch);
    out.set(
        "rmi.edge.bytes_per_event",
        ratio(
            (c1.edge.encoded_bytes - c0.edge.encoded_bytes) as f64,
            edge_events,
        ),
    );
    out.set(
        "rmi.client.dropped",
        (c1.client_dropped.iter().sum::<u64>() - c0.client_dropped.iter().sum::<u64>()) as f64,
    );
    out.set(
        "rmi.client.decode_errors",
        (c1.client_decode_errors - c0.client_decode_errors) as f64,
    );
    let dispatch = (c1.reactor_dispatch_ns - c0.reactor_dispatch_ns) as f64;
    let poll_wait = (c1.reactor_poll_wait_ns - c0.reactor_poll_wait_ns) as f64;
    out.set(
        "reactor.dispatch_ns_per_event",
        ratio(dispatch, edge_events),
    );
    out.set(
        "reactor.poll_wait_share",
        ratio(poll_wait, poll_wait + dispatch),
    );
    out.set("reactor.saturation", ratio(dispatch, poll_wait + dispatch));
    out.set(
        "reactor.socket_stalls",
        (c1.socket_stalls - c0.socket_stalls) as f64,
    );
    out.set(
        "reactor.dropped_frames",
        (c1.socket_dropped_frames - c0.socket_dropped_frames) as f64,
    );

    // ulm
    let (encode_ns, decode_ns) = codec_ns_per_event(&crate::gen::sample_events(seed, 10_000));
    out.set("ulm.encode_ns_per_event", encode_ns);
    out.set("ulm.decode_ns_per_event", decode_ns);
    out.set("ulm.deep_clones", (c1.deep_clones - c0.deep_clones) as f64);
    // No stage stamp brackets the pump's encode alone; a batch's encode time
    // is its size times the codec's per-event cost.
    out.set("rmi.edge.encode_us_mean", per_batch * encode_ns / 1e3);

    // consumers, tsdb
    let appended = (c1.appended - c0.appended) as f64;
    let append = hist_delta(&c0.append_us, &c1.append_us);
    let seal = hist_delta(&c0.seal_us, &c1.seal_us);
    let compact = hist_delta(&c0.compact_us, &c1.compact_us);
    let archiver_poll = span(&consumer_totals, "archiver.poll");
    let collector_poll = span(&consumer_totals, "collector.poll");
    let maintenance = span(&consumer_totals, "archive.maintenance");
    out.set(
        "consumers.archiver.poll_us_per_event",
        ratio(
            (archiver_poll.total_ns as f64 / 1e3 - append.sum).max(0.0),
            appended,
        ),
    );
    out.set(
        "consumers.archiver.batch_events_mean",
        ratio(appended, append.count as f64),
    );
    out.set(
        "consumers.collector.poll_us_per_event",
        ratio(collector_poll.total_ns as f64 / 1e3, c.collected as f64),
    );
    out.set("tsdb.append_us_per_event", ratio(append.sum, appended));
    out.set("tsdb.seal_ms_mean", seal.mean() / 1e3);
    out.set("tsdb.seal_count", (c1.sealed - c0.sealed) as f64);
    out.set("tsdb.compact_ms_mean", compact.mean() / 1e3);
    out.set("tsdb.compactions", (c1.compactions - c0.compactions) as f64);
    out.set(
        "tsdb.stall_ms_max",
        archiver_poll.max_ns.max(maintenance.max_ns) as f64 / 1e6,
    );
    let written = (c1.written_bytes - c0.written_bytes) as f64;
    let segments = c1.segment_bytes.saturating_sub(c0.segment_bytes) as f64;
    // `wchar` also counts what the reactor wrote to subscriber sockets.
    let socket = (c1.edge.encoded_bytes - c0.edge.encoded_bytes) as f64 * topology.clients as f64;
    out.set("tsdb.written_bytes_per_event", ratio(written, appended));
    out.set("tsdb.segment_bytes_per_event", ratio(segments, appended));
    out.set(
        "tsdb.wal_bytes_per_event",
        ratio((written - socket - segments).max(0.0), appended),
    );

    // proc
    out.set(
        "proc.allocs_per_event",
        ratio((c1.allocs - c0.allocs) as f64, delivered),
    );
    out.set(
        "proc.alloc_bytes_per_event",
        ratio((c1.alloc_bytes - c0.alloc_bytes) as f64, delivered),
    );
    out.set(
        "proc.ctx_switches_per_kev",
        ratio((c1.ctx_switches - c0.ctx_switches) as f64, delivered / 1e3),
    );
    let mut late = g.lateness_ns.clone();
    late.sort_unstable();
    out.set("gen.lateness_p99_us", percentile(&late, 0.99) / 1e3);

    // Lifelines.  Publish number n (from system start) is sampled when
    // n % 64 == 0 and gets id n/64 + 1; the bench counted the same way.
    let before: u64 = driven.gen[..measured].iter().map(|p| p.offered).sum();
    let ids = before.div_ceil(LIFELINE_EVERY) + 1..(before + g.offered) / LIFELINE_EVERY + 1;
    let by_id = lifelines(&driven.consumer.self_events);
    let created = &driven.tally.lifeline_created_us;
    let mut branches = Vec::new();
    if topology.clients > 0 {
        branches.push(branch(
            "edge",
            &[
                ("creation -> GW_PUBLISH", stage::GW_PUBLISH, None),
                ("-> SUB_DELIVER(edge)", stage::SUB_DELIVER, Some("edge")),
                (
                    "-> EDGE_ENCODE (queue+drain+encode)",
                    stage::EDGE_ENCODE,
                    None,
                ),
                ("-> EDGE_BROADCAST", stage::EDGE_BROADCAST, None),
            ],
            "-> client receive (write+wire+decode)",
            &by_id,
            created,
            &driven.consumer.lifeline_received_ns[0],
            ids.clone(),
            &c.conns[0].latency_ns,
        ));
    }
    if topology.archiver {
        branches.push(branch(
            "archive",
            &[
                ("creation -> GW_PUBLISH", stage::GW_PUBLISH, None),
                (
                    "-> SUB_DELIVER(archiver)",
                    stage::SUB_DELIVER,
                    Some("archiver"),
                ),
                (
                    "-> ARCHIVE_APPEND (queue+append)",
                    stage::ARCHIVE_APPEND,
                    None,
                ),
            ],
            "-> poll() returned",
            &by_id,
            created,
            &driven.consumer.lifeline_stored_ns,
            ids.clone(),
            &c.archive_latency_ns,
        ));
    }
    let hop_mean = |b: &Branch, hop: usize| b.hop_mean_ns(hop) / 1e3;
    for b in &branches {
        match b.name {
            "edge" => {
                out.set("gateway.sub_wait_us.edge", hop_mean(b, 2));
                out.set("rmi.edge.broadcast_us_mean", hop_mean(b, 3));
                out.set("rmi.edge.wire_us_mean", hop_mean(b, 4));
            }
            _ => out.set("gateway.sub_wait_us.archiver", hop_mean(b, 2)),
        }
        out.notes.extend(b.render());
    }
    // GW_ROUTED closes the publish call after every subscription was served;
    // it is a side stamp, not a hop on either branch.
    let routed: Vec<f64> = ids
        .filter_map(|id| {
            let p = by_id.get(&id)?;
            Some(stamp(p, stage::GW_ROUTED, None)?.saturating_sub(stamp(
                p,
                stage::GW_PUBLISH,
                None,
            )?) as f64)
        })
        .collect();
    out.notes.push(format!(
        "  GW_PUBLISH -> GW_ROUTED (all subscriptions served): mean {:.1} us over {} lifelines",
        ratio(routed.iter().sum(), routed.len() as f64) / 1e3,
        routed.len()
    ));
    out.set(
        "trace.lifelines_complete_pct",
        branches
            .iter()
            .map(Branch::complete_pct)
            .fold(f64::INFINITY, f64::min)
            .min(100.0),
    );
    out.set(
        "trace.budget_gap_pct",
        branches.iter().map(Branch::gap_pct).fold(0.0, f64::max),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm::jamm_core::obs::Histogram;

    #[test]
    fn hist_delta_sees_only_what_was_recorded_in_between() {
        let h = Histogram::new();
        for _ in 0..1_000 {
            h.record(5);
        }
        let before = h.snapshot();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1_000);
        let d = hist_delta(&before, &h.snapshot());
        assert_eq!(d.count, 100);
        assert_eq!(d.p99, 3);
        assert!((d.sum - (99.0 * 3.0 + 1_000.0)).abs() / d.sum < 0.13);
        assert_eq!(hist_delta(&before, &before), HistDelta::default());
    }

    #[test]
    fn within_cuts_a_phase_and_reparents_orphans() {
        let mut log = spans::SpanLog::default();
        let early = log.enter("manager.tick", 1, 10);
        log.exit(early, 20);
        let tick = log.enter("manager.tick", 2, 100);
        let publish = log.enter("gateway.publish", 2, 110);
        log.exit(publish, 150);
        log.exit(tick, 200);
        let cut = within(log.spans(), 50, 300);
        assert_eq!(cut.len(), 2);
        assert_eq!((cut[0].id, cut[0].parent), (1, spans::ROOT));
        assert_eq!((cut[1].id, cut[1].parent), (2, 1));
        let t = spans::totals(&cut);
        assert_eq!(t["manager.tick"].self_ns, 60);
        // A child whose parent straddles the cut becomes a root.
        let cut = within(log.spans(), 105, 300);
        assert_eq!(
            (cut[0].name, cut[0].parent),
            ("gateway.publish", spans::ROOT)
        );
    }

    fn point(id: u64, stage: &str, target: &str, at_us: u64) -> SharedEvent {
        use jamm::jamm_ulm::{Event, Timestamp};
        std::sync::Arc::new(
            Event::builder("_jamm", "jamm-monitor")
                .event_type(stage)
                .timestamp(Timestamp::from_micros(at_us))
                .field(keys::OBJECT_ID, format!("jamm-{id}"))
                .field(keys::TARGET, target.to_string())
                .build(),
        )
    }

    #[test]
    fn budget_rows_telescope_to_the_end_to_end_time() {
        // Lifeline 1 is complete; lifeline 2 lost its ARCHIVE_APPEND stamp.
        let events = vec![
            point(1, stage::GW_PUBLISH, "gw", 1_010),
            point(1, stage::SUB_DELIVER, "local-3", 1_012),
            point(1, stage::SUB_DELIVER, "archiver", 1_015),
            point(1, stage::GW_ROUTED, "gw", 1_020),
            point(1, stage::ARCHIVE_APPEND, "archiver", 1_100),
            point(2, stage::GW_PUBLISH, "gw", 2_010),
            point(2, stage::SUB_DELIVER, "archiver", 2_015),
        ];
        let by_id = lifelines(&events);
        let b = branch(
            "archive",
            &[
                ("creation -> GW_PUBLISH", stage::GW_PUBLISH, None),
                ("-> SUB_DELIVER", stage::SUB_DELIVER, Some("archiver")),
                ("-> ARCHIVE_APPEND", stage::ARCHIVE_APPEND, None),
            ],
            "-> poll() returned",
            &by_id,
            &[1_000, 2_000],
            &[1_150_000, 2_150_000],
            1..3,
            &[150_000, 150_000],
        );
        assert_eq!((b.sampled, b.complete), (2, 1));
        assert_eq!(b.complete_pct(), 50.0);
        let hops: Vec<u32> = b.durations.iter().map(|d| d[0]).collect();
        assert_eq!(hops, vec![10_000, 5_000, 85_000, 50_000]);
        // The truncated lifeline still counts, by the bench's own two stamps:
        // rows plus the unattributed remainder sum to the sampled mean.
        assert_eq!(b.unattributed_ns, 150_000.0);
        assert_eq!(b.sampled_mean_ns(), 150_000.0);
        assert_eq!(b.gap_pct(), 0.0);
        assert_eq!(b.render().len(), 2 + 4 + 1 + 1);
    }

    #[test]
    fn codec_timing_covers_every_event() {
        let events = crate::gen::sample_events(1, 200);
        let (enc, dec) = codec_ns_per_event(&events);
        assert!(enc > 0.0 && dec > 0.0);
    }
}
