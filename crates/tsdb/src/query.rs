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
//! [`ScanIter`] merges the memtable snapshot with a cursor per surviving
//! segment, yielding events in `(timestamp, sequence)` order while decoding
//! segment data lazily — the whole match set is never materialized.  A
//! pushed-down result limit (`(limit=N)` in query text, `Predicate::Limit(N)`
//! in the IR) stops the merge as soon as `N` events have been yielded: the
//! remaining sources — segment handles and the memtable snapshot — are
//! dropped immediately instead of being decoded and truncated afterwards.

use jamm_core::query::Plan;
use jamm_ulm::{Event, SharedEvent, Timestamp};

use crate::segment::{ColMode, ColScan, SegmentCursor};

/// One merge source: the (facts-pre-filtered, pre-sorted) memtable
/// snapshot, a lazily decoding row-major segment cursor, or a batched
/// columnar scan that filters with [`jamm_core::query::Plan::eval_batch`]
/// before materializing anything.
enum Source {
    Mem(std::vec::IntoIter<(u64, SharedEvent)>),
    Seg(SegmentCursor),
    Col(Box<ColScan>),
}

/// A source plus its staged next item, for the k-way merge.
struct Peeked {
    source: Source,
    /// Next `(timestamp, seq, event)` this source will yield.
    head: Option<(Timestamp, u64, Event)>,
    /// Whether heads from this source still need the row-at-a-time
    /// `plan.eval` post-merge.  False only for columnar sources under
    /// [`ColMode::Exact`], where the batch selection *is* the match set.
    needs_eval: bool,
}

impl Peeked {
    /// Stage the source's next admissible event.  Memtable and row-major
    /// segment sources filter by the cheap pushdown facts — the full plan
    /// (which may carry per-series state) runs post-merge, in global time
    /// order.  Columnar sources arrive pre-filtered by their batch pass.
    fn advance(&mut self, plan: &Plan, mode: ColMode) {
        let facts = plan.facts();
        self.head = loop {
            match &mut self.source {
                Source::Mem(iter) => {
                    // Already filtered and ordered.  Yielding an owned
                    // event deep-copies from the shared snapshot here —
                    // the scan (cold) path, never the ingest path.
                    break iter.next().map(|(seq, e)| (e.timestamp, seq, (*e).clone()));
                }
                Source::Seg(cursor) => match cursor.next_event() {
                    None => break None,
                    // Checksummed at load; a decode error here means memory
                    // corruption, so surface it loudly rather than silently
                    // truncating a historical analysis.
                    Some(Err(e)) => panic!("segment decode failed mid-scan: {e}"),
                    Some(Ok((seq, e))) => {
                        if let Some(to) = facts.to_micros {
                            if e.timestamp.as_micros() >= to {
                                // Sorted: nothing later can match.
                                break None;
                            }
                        }
                        if facts.admits(&e) {
                            break Some((e.timestamp, seq, e));
                        }
                    }
                },
                Source::Col(scan) => match scan.next_match(plan, mode) {
                    None => break None,
                    Some(Err(e)) => panic!("segment decode failed mid-scan: {e}"),
                    Some(Ok((seq, e))) => break Some((e.timestamp, seq, e)),
                },
            }
        };
    }
}

/// Streaming, ordered iterator over a scan's results.
///
/// Owns everything it needs (`Arc` segment handles, a memtable snapshot,
/// its own plan clone with fresh stateful memory), so it is `'static` and
/// can outlive the store lock it was created under.
pub struct ScanIter {
    plan: Plan,
    /// How columnar segments batch-filter for this plan (see [`ColMode`]).
    mode: ColMode,
    sources: Vec<Peeked>,
    /// Results still allowed out under the plan's limit fact (`None` =
    /// unlimited).  Hitting zero drops every remaining source.
    remaining: Option<usize>,
}

impl ScanIter {
    pub(crate) fn new(
        plan: Plan,
        mem: Vec<(u64, SharedEvent)>,
        cursors: Vec<SegmentCursor>,
    ) -> ScanIter {
        // Stateful plans must feed *every* facts-admissible row through
        // the row evaluator in merge order (its per-series memory updates
        // on evaluation, match or not), so their columnar batches filter
        // by facts alone.  Stateless plans batch-filter with the full
        // plan: exactly when every node is column-decidable, as a
        // superset (re-checked post-merge) otherwise.
        let mode = if plan.is_stateful() {
            ColMode::FactsOnly
        } else if plan.batch_definite() {
            ColMode::Exact
        } else {
            ColMode::Superset
        };
        let mut sources = Vec::with_capacity(cursors.len() + 1);
        sources.push(Peeked {
            source: Source::Mem(mem.into_iter()),
            head: None,
            needs_eval: true,
        });
        for cursor in cursors {
            let source = match cursor.segment().col_scan() {
                Some(scan) => Source::Col(Box::new(scan)),
                None => Source::Seg(cursor),
            };
            let needs_eval = !(matches!(source, Source::Col(_)) && mode == ColMode::Exact);
            sources.push(Peeked {
                source,
                head: None,
                needs_eval,
            });
        }
        for s in &mut sources {
            s.advance(&plan, mode);
        }
        sources.retain(|s| s.head.is_some());
        let remaining = plan.limit();
        let mut iter = ScanIter {
            plan,
            mode,
            sources,
            remaining,
        };
        if iter.remaining == Some(0) {
            iter.sources.clear();
        }
        iter
    }
}

impl Iterator for ScanIter {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            // K is the number of live sources (segments + memtable) —
            // small, so a linear min scan beats heap bookkeeping.
            let min = self
                .sources
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| {
                    let (ts, seq, _) = s.head.as_ref().expect("exhausted sources are dropped");
                    (*ts, *seq)
                })
                .map(|(i, _)| i)?;
            let item = self.sources[min].head.take().expect("staged head");
            let needs_eval = self.sources[min].needs_eval;
            self.sources[min].advance(&self.plan, self.mode);
            if self.sources[min].head.is_none() {
                self.sources.swap_remove(min);
            }
            // The full plan runs post-merge so stateful predicates (e.g. an
            // on-change replay query) see the stream in global time order.
            // Rows from an exact columnar batch pass already *are* matches
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
                    self.sources.clear();
                    self.remaining = Some(0);
                    return Some(item.2);
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
            .field("live_sources", &self.sources.len())
            .field("remaining", &self.remaining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use jamm_core::query::Predicate;
    use jamm_ulm::Level;
    use std::sync::Arc;

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
            vec![seg_a.cursor(), seg_b.cursor()],
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
        let iter = ScanIter::new(Predicate::True.compile(), mem, vec![seg.cursor()]);
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
        let iter = ScanIter::new(q.compile(), Vec::new(), vec![seg.cursor()]);
        let times: Vec<u64> = iter.map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn arbitrary_predicates_apply_post_merge() {
        let batch: Vec<(u64, Event)> = (0..20).map(|i| (i, ev(i, "h"))).collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let plan = Predicate::parse("(val>=15)").unwrap().compile();
        let iter = ScanIter::new(plan, Vec::new(), vec![seg.cursor()]);
        let times: Vec<u64> = iter.map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn limit_stops_the_merge_and_releases_sources() {
        let batch: Vec<(u64, Event)> = (0..100).map(|i| (i, ev(i, "h"))).collect();
        let seg = Arc::new(Segment::build(1, &batch));
        let plan = Predicate::parse("(limit=3)").unwrap().compile();
        let mut iter = ScanIter::new(plan, Vec::new(), vec![seg.cursor()]);
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(0));
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(1));
        assert_eq!(iter.next().map(|e| e.timestamp.as_secs()), Some(2));
        assert_eq!(iter.sources.len(), 0, "sources dropped at the limit");
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn empty_scan_yields_nothing() {
        let iter = ScanIter::new(Predicate::True.compile(), Vec::new(), Vec::new());
        assert_eq!(iter.count(), 0);
    }
}
