//! Quantitative analysis helpers behind the Figure 3 and Figure 7 stories.
//!
//! The paper's §6 analysis is visual: the analyst looks at the nlv graph and
//! *sees* that the gaps in frame delivery line up with bursts of TCP
//! retransmissions and with high system CPU time on the receiving host, and
//! that the distribution of low-level `read()` sizes clusters around two
//! values.  To make the reproduction testable, this module computes those
//! observations as numbers: delivery-gap detection, retransmit/gap
//! correlation, per-stage latency breakdowns, and two-cluster analysis of
//! read sizes.

use crate::nlv::Lifeline;
use jamm_ulm::{Event, Timestamp};

/// A period with no progress events (a stall in frame delivery).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gap {
    /// Start of the gap.
    pub start: Timestamp,
    /// End of the gap (the next progress event).
    pub end: Timestamp,
    /// Gap length in microseconds.
    pub length_us: u64,
}

/// Find gaps between consecutive occurrences of `progress_event` longer than
/// `min_gap_us`.
pub fn delivery_gaps(events: &[Event], progress_event: &str, min_gap_us: u64) -> Vec<Gap> {
    let mut times: Vec<Timestamp> = events
        .iter()
        .filter(|e| e.event_type == progress_event)
        .map(|e| e.timestamp)
        .collect();
    times.sort();
    times
        .windows(2)
        .filter_map(|w| {
            let length = (w[1] - w[0]).max(0) as u64;
            (length >= min_gap_us).then_some(Gap {
                start: w[0],
                end: w[1],
                length_us: length,
            })
        })
        .collect()
}

/// How strongly occurrences of `marker_event` (e.g. retransmissions) line up
/// with the detected gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapCorrelation {
    /// Number of gaps examined.
    pub gaps: usize,
    /// Gaps that contain (or immediately follow) at least one marker event.
    pub gaps_with_marker: usize,
    /// Marker events that fall inside some gap.
    pub markers_in_gaps: usize,
    /// Total marker events.
    pub markers_total: usize,
}

impl GapCorrelation {
    /// Fraction of gaps explained by the marker (0 when there are no gaps).
    pub fn gap_hit_rate(&self) -> f64 {
        if self.gaps == 0 {
            0.0
        } else {
            self.gaps_with_marker as f64 / self.gaps as f64
        }
    }
}

/// Correlate marker events (e.g. `TCPD_RETRANSMITS`) with delivery gaps.
/// A marker "explains" a gap if it occurs within the gap or within
/// `slack_us` before it starts.
pub fn correlate_gaps(
    events: &[Event],
    gaps: &[Gap],
    marker_event: &str,
    slack_us: u64,
) -> GapCorrelation {
    let markers: Vec<Timestamp> = events
        .iter()
        .filter(|e| e.event_type == marker_event)
        .map(|e| e.timestamp)
        .collect();
    let mut gaps_with_marker = 0;
    for gap in gaps {
        let lo = gap.start.sub_micros(slack_us);
        if markers.iter().any(|m| *m >= lo && *m <= gap.end) {
            gaps_with_marker += 1;
        }
    }
    let markers_in_gaps = markers
        .iter()
        .filter(|m| gaps.iter().any(|g| **m >= g.start && **m <= g.end))
        .count();
    GapCorrelation {
        gaps: gaps.len(),
        gaps_with_marker,
        markers_in_gaps,
        markers_total: markers.len(),
    }
}

/// Mean duration of each lifeline stage across many lifelines:
/// `(from event, to event, mean microseconds, count)`.
pub fn mean_stage_durations(lifelines: &[Lifeline]) -> Vec<(String, String, f64, usize)> {
    let mut acc: Vec<(String, String, f64, usize)> = Vec::new();
    for l in lifelines {
        for (from, to, d) in l.stage_durations() {
            match acc.iter_mut().find(|(f, t, _, _)| *f == from && *t == to) {
                Some(slot) => {
                    slot.2 += d as f64;
                    slot.3 += 1;
                }
                None => acc.push((from, to, d as f64, 1)),
            }
        }
    }
    for slot in &mut acc {
        slot.2 /= slot.3 as f64;
    }
    acc
}

/// Result of splitting a set of readings into two clusters (Figure 3: "the
/// (unexpected) clustering of the data around two distinct values").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoClusters {
    /// Centre of the lower cluster.
    pub low_center: f64,
    /// Number of readings in the lower cluster.
    pub low_count: usize,
    /// Centre of the upper cluster.
    pub high_center: f64,
    /// Number of readings in the upper cluster.
    pub high_count: usize,
    /// Separation between the centres divided by the overall spread; > 1
    /// means the clusters are well separated (clearly bimodal).
    pub separation: f64,
}

/// One-dimensional 2-means clustering of readings.  Returns `None` when
/// there are fewer than two distinct values.
pub fn two_cluster(readings: &[f64]) -> Option<TwoClusters> {
    if readings.len() < 2 {
        return None;
    }
    let min = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let max = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < f64::EPSILON {
        return None;
    }
    let mut c_low = min;
    let mut c_high = max;
    for _ in 0..32 {
        let (mut sum_l, mut n_l, mut sum_h, mut n_h) = (0.0, 0usize, 0.0, 0usize);
        for &r in readings {
            if (r - c_low).abs() <= (r - c_high).abs() {
                sum_l += r;
                n_l += 1;
            } else {
                sum_h += r;
                n_h += 1;
            }
        }
        if n_l == 0 || n_h == 0 {
            break;
        }
        let new_low = sum_l / n_l as f64;
        let new_high = sum_h / n_h as f64;
        if (new_low - c_low).abs() < 1e-9 && (new_high - c_high).abs() < 1e-9 {
            break;
        }
        c_low = new_low;
        c_high = new_high;
    }
    let (mut low, mut high): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for &r in readings {
        if (r - c_low).abs() <= (r - c_high).abs() {
            low.push(r);
        } else {
            high.push(r);
        }
    }
    if low.is_empty() || high.is_empty() {
        return None;
    }
    let spread_of = |v: &[f64], c: f64| {
        (v.iter().map(|x| (x - c).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let within = (spread_of(&low, c_low) + spread_of(&high, c_high)).max(1e-9);
    Some(TwoClusters {
        low_center: c_low,
        low_count: low.len(),
        high_center: c_high,
        high_count: high.len(),
        separation: (c_high - c_low) / within,
    })
}

/// One hop of the monitoring pipeline, aggregated across sampled
/// self-lifelines: how long watched events took to get from stage `from`
/// to stage `to` at component `target`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// Stage the hop starts at (a `JAMM_*` event type).
    pub from: String,
    /// Stage the hop ends at.
    pub to: String,
    /// `TARGET` of the destination stage point — the consumer, archiver,
    /// gateway or edge the hop delivered to, i.e. the component to blame
    /// if this hop dominates.
    pub target: String,
    /// Lifelines that contributed this hop.
    pub count: usize,
    /// Mean hop latency in microseconds.
    pub mean_us: f64,
    /// Worst observed hop latency in microseconds.
    pub max_us: u64,
}

/// The automated bottleneck diagnosis over JAMM's own self-lifelines.
///
/// This is the §6 methodology turned on the monitoring system itself:
/// instead of an analyst eyeballing an nlv chart of `_jamm` trace points,
/// [`diagnose`] computes the per-stage latency breakdown and names the
/// slowest hop.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Distinct sampled lifelines examined.
    pub traces: usize,
    /// Every observed (from, to, target) hop, sorted by descending mean
    /// latency — `hops[0]` is the bottleneck.
    pub hops: Vec<StageLatency>,
}

impl Diagnosis {
    /// The slowest hop by mean latency, if any hop was observed.
    pub fn bottleneck(&self) -> Option<&StageLatency> {
        self.hops.first()
    }

    /// Human-readable report, bottleneck first.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        match self.bottleneck() {
            Some(b) => out.push_str(&format!(
                "bottleneck: {} -> {} at {} (mean {:.0} us over {} lifelines, max {} us)\n",
                b.from, b.to, b.target, b.mean_us, b.count, b.max_us
            )),
            None => out.push_str("bottleneck: none (no complete hops observed)\n"),
        }
        out.push_str(&format!("lifelines examined: {}\n", self.traces));
        for h in &self.hops {
            out.push_str(&format!(
                "  {:>22} -> {:<22} {:<20} mean {:>10.1} us  max {:>8} us  n={}\n",
                h.from, h.to, h.target, h.mean_us, h.max_us, h.count
            ));
        }
        out
    }
}

/// Which `TARGET` a predecessor stage point must carry.
#[derive(Clone, Copy)]
enum PredTarget {
    /// Any target.
    Any,
    /// The target of the point measured: drain and archive are
    /// per-consumer continuations of that consumer's own delivery point.
    Same,
    /// This one target: the edge encodes what the edge's own
    /// subscription drained, not what another consumer drained.
    Is(&'static str),
}

/// Which earlier stage each pipeline stage is measured against, in
/// preference order.
fn hop_predecessors(stage: &str) -> &'static [(&'static str, PredTarget)] {
    use jamm_ulm::keys::jamm;
    use PredTarget::{Any, Is, Same};
    match stage {
        s if s == jamm::GW_ROUTED => &[(jamm::GW_PUBLISH, Any)],
        s if s == jamm::SUB_DELIVER => &[(jamm::GW_ROUTED, Any), (jamm::GW_PUBLISH, Any)],
        s if s == jamm::SUB_DRAIN => &[(jamm::SUB_DELIVER, Same), (jamm::GW_ROUTED, Any)],
        s if s == jamm::ARCHIVE_APPEND => &[(jamm::SUB_DELIVER, Same), (jamm::GW_ROUTED, Any)],
        s if s == jamm::EDGE_ENCODE => &[
            (jamm::SUB_DRAIN, Is(jamm::EDGE_CONSUMER)),
            (jamm::GW_ROUTED, Any),
            (jamm::GW_PUBLISH, Any),
        ],
        s if s == jamm::EDGE_BROADCAST => &[(jamm::EDGE_ENCODE, Any)],
        _ => &[],
    }
}

fn target_of(event: &Event) -> &str {
    event
        .field(jamm_ulm::keys::TARGET)
        .and_then(jamm_ulm::Value::as_str)
        .unwrap_or("?")
}

/// Compute the per-stage latency breakdown of the monitoring pipeline from
/// its self-lifeline trace points (`_jamm` events, `JAMM_*` stage types)
/// and localize the bottleneck.
///
/// Events are grouped by correlation id (`NL.OID`); within each lifeline,
/// each stage point is paired with its most recent predecessor stage (see
/// the module source for the stage graph: publish → route → deliver →
/// {drain, archive-append}, and the edge's own drain → encode →
/// broadcast).  Hops are aggregated per `(from, to, target)` so a single
/// slow consumer stands out from its healthy siblings; the hop with the
/// largest mean latency is the diagnosis.
///
/// Accepts any iterator of events so both owned logs (`&[Event]`) and
/// shared ones (`self_events().iter().map(|e| e.as_ref())`) work; non-JAMM
/// events and points without a correlation id are ignored.
pub fn diagnose<'a, I>(events: I) -> Diagnosis
where
    I: IntoIterator<Item = &'a Event>,
{
    use jamm_ulm::keys::jamm;
    // Group stage points by correlation id, preserving discovery order.
    let mut traces: Vec<(&str, Vec<&Event>)> = Vec::new();
    for e in events {
        if !jamm::STAGES.contains(&e.event_type.as_str()) {
            continue;
        }
        let Some(oid) = e.object_id() else { continue };
        match traces.iter_mut().find(|(o, _)| *o == oid) {
            Some((_, points)) => points.push(e),
            None => traces.push((oid, vec![e])),
        }
    }
    // Accumulate (from, to, target) -> (sum_us, max_us, count).
    let mut acc: Vec<(StageLatency, f64)> = Vec::new();
    for (_, points) in &mut traces {
        points.sort_by_key(|e| e.timestamp);
        for (i, point) in points.iter().enumerate() {
            let pred = hop_predecessors(&point.event_type)
                .iter()
                .find_map(|&(stage, target)| {
                    points[..i].iter().rev().find(|p| {
                        p.event_type == stage
                            && match target {
                                PredTarget::Any => true,
                                PredTarget::Same => target_of(p) == target_of(point),
                                PredTarget::Is(t) => target_of(p) == t,
                            }
                    })
                });
            let Some(pred) = pred else { continue };
            let us = (point.timestamp - pred.timestamp).max(0) as u64;
            let target = target_of(point);
            let slot = acc.iter_mut().find(|(h, _)| {
                h.from == pred.event_type && h.to == point.event_type && h.target == target
            });
            match slot {
                Some((h, sum)) => {
                    *sum += us as f64;
                    h.count += 1;
                    h.max_us = h.max_us.max(us);
                }
                None => acc.push((
                    StageLatency {
                        from: pred.event_type.clone(),
                        to: point.event_type.clone(),
                        target: target.to_string(),
                        count: 1,
                        mean_us: 0.0,
                        max_us: us,
                    },
                    us as f64,
                )),
            }
        }
    }
    let mut hops: Vec<StageLatency> = acc
        .into_iter()
        .map(|(mut h, sum)| {
            h.mean_us = sum / h.count as f64;
            h
        })
        .collect();
    hops.sort_by(|a, b| b.mean_us.total_cmp(&a.mean_us));
    Diagnosis {
        traces: traces.len(),
        hops,
    }
}

/// Throughput (bits/second) of a byte-counting event series over its span,
/// where each event carries the byte count in `field`.
pub fn throughput_bps(events: &[Event], event_type: &str, field: &str) -> f64 {
    let relevant: Vec<&Event> = events
        .iter()
        .filter(|e| e.event_type == event_type)
        .collect();
    if relevant.len() < 2 {
        return 0.0;
    }
    let bytes: f64 = relevant.iter().filter_map(|e| e.field_f64(field)).sum();
    let times = relevant.iter().map(|e| e.timestamp);
    let (Some(t0), Some(t1)) = (times.clone().min(), times.max()) else {
        return 0.0;
    };
    let secs = ((t1 - t0).max(1)) as f64 / 1e6;
    bytes * 8.0 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nlv::lifelines;
    use jamm_ulm::{keys, Level};

    fn ev(ty: &str, us: u64, value: Option<f64>) -> Event {
        let mut b = Event::builder("p", "h")
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_micros(us));
        if let Some(v) = value {
            b = b.value(v);
        }
        b.build()
    }

    #[test]
    fn gaps_are_detected_between_sparse_progress_events() {
        let log = vec![
            ev("MPLAY_END_READ_FRAME", 0, None),
            ev("MPLAY_END_READ_FRAME", 200_000, None),
            ev("MPLAY_END_READ_FRAME", 1_700_000, None), // 1.5 s stall
            ev("MPLAY_END_READ_FRAME", 1_900_000, None),
        ];
        let gaps = delivery_gaps(&log, "MPLAY_END_READ_FRAME", 1_000_000);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].length_us, 1_500_000);
        // With a lower threshold, the 200 ms inter-frame times count too.
        assert_eq!(
            delivery_gaps(&log, "MPLAY_END_READ_FRAME", 100_000).len(),
            3
        );
        assert!(delivery_gaps(&[], "X", 1).is_empty());
    }

    #[test]
    fn retransmits_inside_gaps_are_correlated() {
        let mut log = vec![
            ev("MPLAY_END_READ_FRAME", 0, None),
            ev("MPLAY_END_READ_FRAME", 2_000_000, None),
            ev("MPLAY_END_READ_FRAME", 2_200_000, None),
            ev("MPLAY_END_READ_FRAME", 5_000_000, None),
        ];
        // Retransmissions during both stalls, and one in quiet time.
        log.push(ev(keys::tcp::RETRANSMITS, 900_000, Some(2.0)));
        log.push(ev(keys::tcp::RETRANSMITS, 3_000_000, Some(1.0)));
        log.push(ev(keys::tcp::RETRANSMITS, 2_100_000, Some(1.0)));
        let gaps = delivery_gaps(&log, "MPLAY_END_READ_FRAME", 1_000_000);
        assert_eq!(gaps.len(), 2);
        let corr = correlate_gaps(&log, &gaps, keys::tcp::RETRANSMITS, 0);
        assert_eq!(corr.gaps_with_marker, 2);
        assert!((corr.gap_hit_rate() - 1.0).abs() < 1e-9);
        assert_eq!(corr.markers_in_gaps, 2);
        assert_eq!(corr.markers_total, 3);
    }

    #[test]
    fn stage_durations_average_across_lifelines() {
        let order = [
            keys::matisse::START_READ_FRAME,
            keys::matisse::END_READ_FRAME,
        ];
        let mut log = Vec::new();
        for (i, dur) in [100_000u64, 300_000].iter().enumerate() {
            let oid = format!("frame-{i}");
            log.push({
                let mut e = ev(order[0], i as u64 * 1_000_000, None);
                e.set_field(keys::OBJECT_ID, oid.clone());
                e
            });
            log.push({
                let mut e = ev(order[1], i as u64 * 1_000_000 + dur, None);
                e.set_field(keys::OBJECT_ID, oid);
                e
            });
        }
        let lines = lifelines(&log, &order);
        let stages = mean_stage_durations(&lines);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].3, 2);
        assert!((stages[0].2 - 200_000.0).abs() < 1e-9);
    }

    #[test]
    fn bimodal_read_sizes_are_separated() {
        // The Figure 3 situation: most reads return the full 64 KB buffer,
        // the rest return a small remainder around 20 KB.
        let mut readings = Vec::new();
        for i in 0..100 {
            readings.push(65_536.0 - (i % 3) as f64);
            readings.push(20_000.0 + (i % 7) as f64 * 100.0);
        }
        let c = two_cluster(&readings).unwrap();
        assert!(c.low_center > 19_000.0 && c.low_center < 22_000.0);
        assert!(c.high_center > 65_000.0);
        assert_eq!(c.low_count + c.high_count, 200);
        assert!(c.separation > 10.0, "clearly bimodal: {}", c.separation);
    }

    #[test]
    fn unimodal_data_has_low_separation_and_degenerate_cases_are_none() {
        let uniform: Vec<f64> = (0..100).map(|i| 1_000.0 + i as f64).collect();
        let c = two_cluster(&uniform).unwrap();
        assert!(c.separation < 3.0, "not strongly bimodal: {}", c.separation);
        assert!(two_cluster(&[]).is_none());
        assert!(two_cluster(&[5.0]).is_none());
        assert!(two_cluster(&[5.0, 5.0, 5.0]).is_none());
    }

    /// A `_jamm` self-lifeline stage point.
    fn trace_point(oid: &str, stage: &str, us: u64, target: &str) -> Event {
        Event::builder("_jamm", "jamm-monitor")
            .level(Level::Usage)
            .event_type(stage)
            .timestamp(Timestamp::from_micros(us))
            .field(keys::OBJECT_ID, oid.to_string())
            .field(keys::TARGET, target.to_string())
            .build()
    }

    #[test]
    fn diagnose_localizes_the_slow_consumer_drain() {
        use keys::jamm as j;
        let mut log = Vec::new();
        // Three lifelines: routing and delivery are fast everywhere, the
        // "nlv" consumer drains promptly, but "mems.cairn.net" sits on its
        // queue for ~80 ms before draining.
        for (i, base) in [0u64, 1_000_000, 2_000_000].iter().enumerate() {
            let oid = format!("jamm-{i}");
            log.push(trace_point(&oid, j::GW_PUBLISH, *base, "gw"));
            log.push(trace_point(&oid, j::GW_ROUTED, base + 120, "gw"));
            log.push(trace_point(&oid, j::SUB_DELIVER, base + 200, "nlv"));
            log.push(trace_point(
                &oid,
                j::SUB_DELIVER,
                base + 210,
                "mems.cairn.net",
            ));
            log.push(trace_point(&oid, j::SUB_DRAIN, base + 700, "nlv"));
            log.push(trace_point(
                &oid,
                j::SUB_DRAIN,
                base + 80_210,
                "mems.cairn.net",
            ));
        }
        // Noise that must be ignored: unrelated events and points with no id.
        log.push(ev("MPLAY_END_READ_FRAME", 5, None));
        log.push({
            let mut e = ev(j::SUB_DRAIN, 9, None);
            e.set_field(keys::TARGET, "anon");
            e
        });

        let d = diagnose(&log);
        assert_eq!(d.traces, 3);
        let b = d.bottleneck().expect("hops observed");
        assert_eq!(b.from, j::SUB_DELIVER);
        assert_eq!(b.to, j::SUB_DRAIN);
        assert_eq!(b.target, "mems.cairn.net");
        assert_eq!(b.count, 3);
        assert!((b.mean_us - 80_000.0).abs() < 1.0, "mean {}", b.mean_us);
        assert_eq!(b.max_us, 80_000);
        // The healthy consumer's drain hop is separate and much smaller.
        let healthy = d
            .hops
            .iter()
            .find(|h| h.to == j::SUB_DRAIN && h.target == "nlv")
            .expect("fast consumer hop present");
        assert!(healthy.mean_us < 1_000.0);
        // Drains paired against the *same consumer's* delivery point, not
        // whichever delivery came last.
        assert_eq!(healthy.from, j::SUB_DELIVER);
        let text = d.render_text();
        assert!(
            text.starts_with("bottleneck: JAMM_SUB_DELIVER -> JAMM_SUB_DRAIN at mems.cairn.net")
        );
        assert!(text.contains("lifelines examined: 3"));
    }

    #[test]
    fn diagnose_covers_edge_and_archive_hops() {
        use keys::jamm as j;
        let log = vec![
            trace_point("jamm-1", j::GW_PUBLISH, 0, "gw"),
            trace_point("jamm-1", j::GW_ROUTED, 100, "gw"),
            trace_point("jamm-1", j::SUB_DELIVER, 150, "keeper"),
            trace_point("jamm-1", j::ARCHIVE_APPEND, 4_150, "keeper"),
            trace_point("jamm-1", j::EDGE_ENCODE, 300, "gw"),
            trace_point("jamm-1", j::EDGE_BROADCAST, 50_300, "gw"),
        ];
        let d = diagnose(&log);
        assert_eq!(d.traces, 1);
        let b = d.bottleneck().unwrap();
        assert_eq!(
            (b.from.as_str(), b.to.as_str()),
            (j::EDGE_ENCODE, j::EDGE_BROADCAST)
        );
        assert_eq!(b.mean_us, 50_000.0);
        let archive = d
            .hops
            .iter()
            .find(|h| h.to == j::ARCHIVE_APPEND)
            .expect("archive hop");
        assert_eq!(archive.from, j::SUB_DELIVER);
        assert_eq!(archive.mean_us, 4_000.0);
        let encode = d.hops.iter().find(|h| h.to == j::EDGE_ENCODE).unwrap();
        assert_eq!(encode.from, j::GW_ROUTED);
    }

    /// The edge's queue wait is its own hop: deliver → drain on target
    /// `edge`, and encode measured from the edge's drain — never from
    /// another consumer's drain of the same event.
    #[test]
    fn diagnose_separates_the_edge_queue_wait_from_its_encode() {
        use keys::jamm as j;
        let edge = j::EDGE_CONSUMER;
        let mut log = Vec::new();
        for (i, base) in [0u64, 1_000_000].iter().enumerate() {
            let oid = format!("jamm-{i}");
            log.push(trace_point(&oid, j::GW_PUBLISH, *base, "gw"));
            log.push(trace_point(&oid, j::SUB_DELIVER, base + 10, "nlv"));
            log.push(trace_point(&oid, j::SUB_DELIVER, base + 12, edge));
            log.push(trace_point(&oid, j::GW_ROUTED, base + 20, "gw"));
            // A local collector drains first; the edge's pump gets to the
            // event only after a long wait in its queue.
            log.push(trace_point(&oid, j::SUB_DRAIN, base + 50, "nlv"));
            log.push(trace_point(&oid, j::SUB_DRAIN, base + 5_012, edge));
            log.push(trace_point(&oid, j::EDGE_ENCODE, base + 5_052, "gw"));
            log.push(trace_point(&oid, j::EDGE_BROADCAST, base + 5_062, "gw"));
        }
        // A lifeline whose edge drain point was lost: encode falls back to
        // the routed point, not to the collector's drain.
        log.push(trace_point("jamm-2", j::GW_PUBLISH, 2_000_000, "gw"));
        log.push(trace_point("jamm-2", j::SUB_DELIVER, 2_000_010, "nlv"));
        log.push(trace_point("jamm-2", j::GW_ROUTED, 2_000_020, "gw"));
        log.push(trace_point("jamm-2", j::SUB_DRAIN, 2_000_050, "nlv"));
        log.push(trace_point("jamm-2", j::EDGE_ENCODE, 2_000_320, "gw"));

        let d = diagnose(&log);
        assert_eq!(d.traces, 3);
        let b = d.bottleneck().unwrap();
        assert_eq!(
            (b.from.as_str(), b.to.as_str(), b.target.as_str()),
            (j::SUB_DELIVER, j::SUB_DRAIN, edge)
        );
        assert_eq!(b.mean_us, 5_000.0);
        let encodes: Vec<(&str, usize, f64)> = d
            .hops
            .iter()
            .filter(|h| h.to == j::EDGE_ENCODE)
            .map(|h| (h.from.as_str(), h.count, h.mean_us))
            .collect();
        assert_eq!(encodes, [(j::GW_ROUTED, 1, 300.0), (j::SUB_DRAIN, 2, 40.0)]);
    }

    #[test]
    fn diagnose_of_nothing_is_empty() {
        let d = diagnose(&[]);
        assert_eq!(d.traces, 0);
        assert!(d.bottleneck().is_none());
        assert!(d.render_text().contains("bottleneck: none"));
        // Non-JAMM logs diagnose to nothing too.
        let d = diagnose(&[ev("MPLAY_END_READ_FRAME", 0, None)]);
        assert_eq!(d.traces, 0);
    }

    #[test]
    fn diagnose_with_zero_sampled_lifelines_is_empty_not_wrong() {
        use keys::jamm as j;
        // Stage-typed points that were never sampled into a lifeline (no
        // correlation id) must not be grouped into a phantom trace.
        let log = vec![
            {
                let mut e = ev(j::GW_PUBLISH, 0, None);
                e.set_field(keys::TARGET, "gw");
                e
            },
            {
                let mut e = ev(j::SUB_DELIVER, 5_000, None);
                e.set_field(keys::TARGET, "viz");
                e
            },
        ];
        let d = diagnose(&log);
        assert_eq!(d.traces, 0);
        assert!(d.bottleneck().is_none());
        assert!(d.hops.is_empty());
        assert!(d.render_text().contains("lifelines examined: 0"));
    }

    #[test]
    fn diagnose_breaks_ties_between_equally_slow_hops_deterministically() {
        use keys::jamm as j;
        // Two consumers with *identical* drain latency: the sort is stable,
        // so the first-observed hop stays first and repeated runs agree.
        let mut log = Vec::new();
        for (i, base) in [0u64, 1_000_000].iter().enumerate() {
            let oid = format!("jamm-{i}");
            log.push(trace_point(&oid, j::GW_PUBLISH, *base, "gw"));
            log.push(trace_point(&oid, j::GW_ROUTED, base + 100, "gw"));
            log.push(trace_point(&oid, j::SUB_DELIVER, base + 200, "alpha"));
            log.push(trace_point(&oid, j::SUB_DELIVER, base + 250, "beta"));
            log.push(trace_point(&oid, j::SUB_DRAIN, base + 40_200, "alpha"));
            log.push(trace_point(&oid, j::SUB_DRAIN, base + 40_250, "beta"));
        }
        let d = diagnose(&log);
        let drains: Vec<&StageLatency> = d.hops.iter().filter(|h| h.to == j::SUB_DRAIN).collect();
        assert_eq!(drains.len(), 2);
        assert_eq!(drains[0].mean_us, drains[1].mean_us, "an exact tie");
        assert_eq!(drains[0].target, "alpha", "first observed wins the tie");
        assert_eq!(drains[1].target, "beta");
        assert_eq!(d.render_text(), diagnose(&log).render_text());
    }

    #[test]
    fn orphaned_stage_points_contribute_traces_but_no_hops() {
        use keys::jamm as j;
        // A drain with no delivery and a routed point with no publish: real
        // lifelines (they carry correlation ids) but with no predecessor
        // stage to measure against — they must not fabricate hops.
        let log = vec![
            trace_point("jamm-a", j::SUB_DRAIN, 500, "viz"),
            trace_point("jamm-b", j::GW_ROUTED, 900, "gw"),
            // A lone publish is a legitimate lifeline head with nothing to
            // pair backwards to either.
            trace_point("jamm-c", j::GW_PUBLISH, 1_000, "gw"),
        ];
        let d = diagnose(&log);
        assert_eq!(d.traces, 3);
        assert!(d.hops.is_empty(), "no predecessor, no hop: {:?}", d.hops);
        assert!(d.render_text().contains("bottleneck: none"));
        // An orphan alongside a complete lifeline only adds its trace; the
        // complete lifeline's hops are unaffected.
        let mut log = log;
        log.push(trace_point("jamm-d", j::GW_PUBLISH, 2_000, "gw"));
        log.push(trace_point("jamm-d", j::GW_ROUTED, 2_300, "gw"));
        let d = diagnose(&log);
        assert_eq!(d.traces, 4);
        assert_eq!(d.hops.len(), 1);
        assert_eq!(d.hops[0].count, 1);
        assert_eq!(d.hops[0].mean_us, 300.0);
    }

    #[test]
    fn throughput_from_byte_events() {
        let log = vec![
            {
                let mut e = ev("WriteData", 0, None);
                e.set_field("SEND.SZ", 500_000u64);
                e
            },
            {
                let mut e = ev("WriteData", 1_000_000, None);
                e.set_field("SEND.SZ", 750_000u64);
                e
            },
        ];
        let bps = throughput_bps(&log, "WriteData", "SEND.SZ");
        assert!(
            (bps - 10_000_000.0).abs() < 1.0,
            "1.25 MB over 1 s = 10 Mbit/s, got {bps}"
        );
        assert_eq!(throughput_bps(&log, "Other", "SEND.SZ"), 0.0);
    }
}
