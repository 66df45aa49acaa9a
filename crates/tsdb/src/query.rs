//! Plan-driven range scans and the streaming scan iterator.
//!
//! Since the query-plane refactor the storage engine answers compiled
//! [`Plan`]s from `jamm_core::query`: the plan's pushdown [`Facts`](jamm_core::query::Facts) prune
//! segments (via their catalogs) and pre-filter the merge sources, and the
//! plan itself is the row-level matcher — the same evaluator the gateway's
//! subscription filters and the directory's searches run.  There is no
//! storage-side query type: a caller builds a
//! [`Predicate`](jamm_core::query::Predicate) (constructors or text),
//! compiles it, and hands the plan to [`crate::Tsdb::scan`].
//!
//! [`ScanIter`] merges the memtable snapshot with a batched scan of each
//! surviving segment, yielding events in `(timestamp, sequence)` order
//! while decoding segment data lazily — the whole match set is never
//! materialized, and a segment is not opened (its first batch decoded)
//! until the merge has reached its catalog `min_ts`.  A pushed-down result
//! limit (`(limit=N)` in query text, `Predicate::Limit(N)` in the IR)
//! stops the merge as soon as `N` events have been yielded: the remaining
//! sources — segment handles and the memtable snapshot — are dropped
//! immediately instead of being decoded and truncated afterwards.

use std::sync::Arc;

use jamm_core::query::Plan;
use jamm_ulm::{Event, SharedEvent, Timestamp};

use crate::segment::{ColMode, ColScan, Segment};
use crate::store::TsdbStats;

/// One merge source: the (facts-pre-filtered, pre-sorted) memtable
/// snapshot, or a segment's batched scan that filters with
/// [`jamm_core::query::Plan::eval_batch`] before materializing anything.
enum Source {
    Mem(std::vec::IntoIter<(u64, SharedEvent)>),
    Col(Box<ColScan>),
}

/// A merge item: `(timestamp, seq)` is the merge key.
type Head = (Timestamp, u64, Event);

impl Source {
    /// The source's next admissible event.  Both kinds arrive filtered —
    /// the memtable snapshot by the cheap pushdown facts, a segment scan
    /// by its batch pass — and the full plan (which may carry per-series
    /// state) runs post-merge, in global time order, where the mode needs
    /// it.
    fn next_admissible(&mut self, plan: &Plan, mode: ColMode) -> Option<Head> {
        match self {
            // Already ordered.  Yielding an owned event deep-copies from
            // the shared snapshot here — the scan (cold) path, never the
            // ingest path.
            Source::Mem(iter) => iter.next().map(|(seq, e)| (e.timestamp, seq, (*e).clone())),
            Source::Col(scan) => match scan.next_match(plan, mode)? {
                // Checksummed at load; a decode error here means the image
                // was not a valid stream, so surface it loudly rather than
                // silently truncating a historical analysis.
                Err(e) => panic!("segment decode failed mid-scan: {e}"),
                Ok((seq, e)) => Some((e.timestamp, seq, e)),
            },
        }
    }
}

/// An opened source and its staged next item, for the k-way merge.  A
/// source that runs dry is dropped, so a live one always has a head.
struct Live {
    source: Source,
    head: Head,
    /// Whether heads from this source still need the row-at-a-time
    /// `plan.eval` post-merge.  False only for segment scans under
    /// [`ColMode::Exact`], where the batch selection *is* the match set.
    needs_eval: bool,
}

/// Streaming, ordered iterator over a scan's results.
///
/// Owns everything it needs (`Arc` segment handles, a memtable snapshot,
/// its own plan clone with fresh stateful memory), so it is `'static` and
/// can outlive the store lock it was created under.
pub struct ScanIter {
    plan: Plan,
    /// How segment scans batch-filter for this plan (see [`ColMode`]).
    mode: ColMode,
    /// Opened sources (the memtable snapshot and the segments the merge
    /// has reached).
    live: Vec<Live>,
    /// Surviving segments not opened yet, by catalog `min_ts` descending:
    /// the next one to open is the last.
    pending: Vec<Arc<Segment>>,
    /// Results still allowed out under the plan's limit fact (`None` =
    /// unlimited).  Hitting zero drops every remaining source.
    remaining: Option<usize>,
    segments_pruned: u64,
    segments_scanned: u64,
    /// Where each segment scan reports its row-group counts.
    stats: Arc<TsdbStats>,
}

impl ScanIter {
    /// A scan of `mem` and `segments` — the segments whose catalogs
    /// survived pruning, `segments_pruned` having been skipped.  Decodes
    /// nothing: a segment is opened by the `next()` that first needs it.
    pub(crate) fn new(
        plan: Plan,
        mem: Vec<(u64, SharedEvent)>,
        mut segments: Vec<Arc<Segment>>,
        segments_pruned: u64,
        stats: Arc<TsdbStats>,
    ) -> ScanIter {
        let mode = ColMode::of(&plan);
        let segments_scanned = segments.len() as u64;
        segments.sort_by_key(|seg| std::cmp::Reverse(seg.catalog().min_ts));
        let mut iter = ScanIter {
            remaining: plan.limit(),
            plan,
            mode,
            live: Vec::new(),
            pending: segments,
            segments_pruned,
            segments_scanned,
            stats,
        };
        if iter.remaining == Some(0) {
            iter.pending.clear();
        } else {
            iter.open(Source::Mem(mem.into_iter()), true);
        }
        iter
    }

    /// Segments this scan reads: the ones whose catalog could satisfy the
    /// plan's pushdown facts.
    pub fn segments_scanned(&self) -> u64 {
        self.segments_scanned
    }

    /// Segments catalog pruning skipped for this scan.
    pub fn segments_pruned(&self) -> u64 {
        self.segments_pruned
    }

    /// Stage a source's first admissible event and add it to the merge
    /// (a source with none is dropped on the spot).
    fn open(&mut self, mut source: Source, needs_eval: bool) {
        if let Some(head) = source.next_admissible(&self.plan, self.mode) {
            self.live.push(Live {
                source,
                head,
                needs_eval,
            });
        }
    }
}

impl Iterator for ScanIter {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            // The number of live sources is small — on a time-disjoint
            // archive one segment and the memtable — so a linear min scan
            // beats heap bookkeeping.
            let min = self
                .live
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.head.0, s.head.1))
                .map(|(i, s)| (i, s.head.0));
            // Open segments in `min_ts` order, each only once the merge
            // has reached it: a segment starting after the smallest live
            // head cannot hold the next event.  One starting *at* that
            // timestamp can — equal stamps order by sequence — hence `<=`.
            let reached = |seg: &mut Arc<Segment>| {
                min.is_none_or(|(_, head_ts)| seg.catalog().min_ts <= head_ts)
            };
            if let Some(seg) = self.pending.pop_if(reached) {
                let scan = Box::new(seg.col_scan().reporting_to(&self.stats));
                self.open(Source::Col(scan), self.mode != ColMode::Exact);
                continue;
            }
            let (min, _) = min?;
            let src = &mut self.live[min];
            let needs_eval = src.needs_eval;
            let item = match src.source.next_admissible(&self.plan, self.mode) {
                Some(next) => std::mem::replace(&mut src.head, next),
                None => self.live.swap_remove(min).head,
            };
            // The full plan runs post-merge so stateful predicates (e.g. an
            // on-change replay query) see the stream in global time order.
            // Rows from an exact batch pass already *are* matches
            // and skip the re-check (their plans are stateless, so no
            // per-series memory is starved by skipping).
            if needs_eval && !self.plan.eval(&item.2) {
                continue;
            }
            if let Some(remaining) = &mut self.remaining {
                *remaining -= 1;
                if *remaining == 0 {
                    // Limit reached: release every segment handle and the
                    // memtable snapshot now; nothing more will be decoded.
                    self.live.clear();
                    self.pending.clear();
                }
            }
            return Some(item.2);
        }
    }
}

impl std::fmt::Debug for ScanIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanIter")
            .field("facts", self.plan.facts())
            .field("live_sources", &self.live.len())
            .field("pending_segments", &self.pending.len())
            .field("remaining", &self.remaining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::query::Predicate;
    use jamm_ulm::Level;

    fn ev(t: u64, host: &str) -> Event {
        Event::builder("p", host)
            .level(Level::Usage)
            .event_type("X")
            .timestamp(Timestamp::from_secs(t))
            .value(t as f64)
            .build()
    }

    #[test]
    fn merge_interleaves_sources_in_time_order() {
        let seg_a = Arc::new(Segment::build(
            1,
            &[(1, ev(10, "a")), (3, ev(30, "a")), (5, ev(50, "a"))],
        ));
        let seg_b = Arc::new(Segment::build(2, &[(2, ev(20, "b")), (4, ev(40, "b"))]));
        let mem = vec![
            (6u64, std::sync::Arc::new(ev(25, "m"))),
            (7u64, std::sync::Arc::new(ev(60, "m"))),
        ];
        let iter = ScanIter::new(
            Predicate::True.compile(),
            mem,
            vec![seg_a, seg_b],
            0,
            Default::default(),
        );
        let times: Vec<u64> = iter.map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 25, 30, 40, 50, 60]);
    }

    #[test]
    fn same_timestamp_orders_by_sequence() {
        let seg = Arc::new(Segment::build(1, &[(5, ev(10, "a"))]));
        let mem = vec![
            (2u64, std::sync::Arc::new(ev(10, "m"))),
            (9u64, std::sync::Arc::new(ev(10, "m"))),
        ];
        let iter = ScanIter::new(
            Predicate::True.compile(),
            mem,
            vec![seg],
            0,
            Default::default(),
        );
        let hosts: Vec<String> = iter.map(|e| e.host).collect();
        assert_eq!(hosts, vec!["m", "a", "m"]); // seq 2, 5, 9
    }

    #[test]
    fn filters_and_to_bound_apply_inside_segments() {
        let batch: Vec<(u64, Event)> = (0..20)
            .map(|i| (i, ev(i, if i % 2 == 0 { "even" } else { "odd" })))
            .collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let q = Predicate::and(vec![
            Predicate::between_micros(4_000_000, 15_000_000),
            Predicate::hosts(["even"]),
        ]);
        let iter = ScanIter::new(q.compile(), Vec::new(), vec![seg], 0, Default::default());
        let times: Vec<u64> = iter.map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn arbitrary_predicates_apply_post_merge() {
        let batch: Vec<(u64, Event)> = (0..20).map(|i| (i, ev(i, "h"))).collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let plan = Predicate::parse("(val>=15)").unwrap().compile();
        let iter = ScanIter::new(plan, Vec::new(), vec![seg], 0, Default::default());
        let times: Vec<u64> = iter.map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn limit_stops_the_merge_and_releases_sources() {
        let batch: Vec<(u64, Event)> = (0..100).map(|i| (i, ev(i, "h"))).collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let plan = Predicate::parse("(limit=3)").unwrap().compile();
        let mut iter = ScanIter::new(plan, Vec::new(), vec![seg], 0, Default::default());
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(0));
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(1));
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(2));
        assert_eq!(
            (iter.live.len(), iter.pending.len()),
            (0, 0),
            "sources dropped at the limit"
        );
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn empty_scan_yields_nothing() {
        let iter = ScanIter::new(
            Predicate::True.compile(),
            Vec::new(),
            Vec::new(),
            0,
            Default::default(),
        );
        assert_eq!(iter.count(), 0);
    }

    /// `n` segments of ten one-second events each; when `touching`, a
    /// segment's first two seconds are the previous one's last two.
    fn segment_run(n: u64, touching: bool) -> Vec<Arc<Segment>> {
        let stride = if touching { 8 } else { 10 };
        (0..n)
            .map(|s| {
                let batch: Vec<(u64, Event)> = (0..10)
                    .map(|i| (s * 10 + i + 1, ev(s * stride + i, "h")))
                    .collect();
                Arc::new(Segment::build(s + 1, &batch))
            })
            .collect()
    }

    fn live_segments(iter: &ScanIter) -> usize {
        let is_segment = |s: &&Live| !matches!(s.source, Source::Mem(_));
        iter.live.iter().filter(is_segment).count()
    }

    #[test]
    fn a_limit_over_disjoint_segments_opens_exactly_one() {
        let mut segments = segment_run(50, false);
        segments.reverse(); // the catalog decides the order, not the caller
        let plan = Predicate::parse("(limit=3)").unwrap().compile();
        let mut iter = ScanIter::new(plan, Vec::new(), segments, 0, Default::default());
        assert_eq!(
            (live_segments(&iter), iter.pending.len()),
            (0, 50),
            "nothing is decoded before the first next()"
        );
        for t in 0..2 {
            assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(t));
            assert_eq!((live_segments(&iter), iter.pending.len()), (1, 49));
        }
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(2));
        assert_eq!(iter.next(), None);
        assert_eq!(
            iter.segments_scanned(),
            50,
            "the catalog decision, not opens"
        );
    }

    #[test]
    fn a_full_scan_of_a_time_disjoint_store_holds_at_most_two_live_segments() {
        for touching in [false, true] {
            let segments = segment_run(30, touching);
            let mem = vec![(301u64, Arc::new(ev(1_000, "m")))];
            let mut iter = ScanIter::new(
                Predicate::True.compile(),
                mem,
                segments,
                0,
                Default::default(),
            );
            let mut keys = Vec::new();
            let mut most = 0;
            while let Some(e) = iter.next() {
                keys.push(e.timestamp);
                most = most.max(live_segments(&iter));
            }
            assert_eq!(keys.len(), 301);
            assert!(keys.is_sorted());
            assert_eq!(most, if touching { 2 } else { 1 });
        }
    }

    #[test]
    fn a_segment_starting_at_the_live_heads_timestamp_is_opened_first() {
        // A late arrival sealed into the next segment: same second as the
        // first segment's last event, smaller sequence number.
        let early = Arc::new(Segment::build(1, &[(1, ev(5, "a")), (5, ev(10, "a"))]));
        let late = Arc::new(Segment::build(2, &[(2, ev(10, "b")), (6, ev(11, "b"))]));
        let iter = ScanIter::new(
            Predicate::True.compile(),
            Vec::new(),
            vec![early, late],
            0,
            Default::default(),
        );
        let hosts: Vec<String> = iter.map(|e| e.host).collect();
        assert_eq!(hosts, ["a", "b", "a", "b"]); // seq 1, 2, 5, 6
    }
}
