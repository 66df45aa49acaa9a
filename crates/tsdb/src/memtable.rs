//! The in-memory write buffer: the "hot" tier that absorbs appends until
//! it seals into an immutable segment.
//!
//! Events sit in one `Vec` ordered by `(timestamp, sequence)` — the
//! store's canonical order, so identical timestamps never collide and
//! sealing builds straight from the slice, no sort.  A batch is pushed
//! whole; one that arrived in order (a single gateway's stream) is done
//! there, and one that did not (an archiver draining several gateways'
//! queues one after the other) pays one run-merging sort of the tail it
//! overlaps — per batch, not per late event.

use jamm_core::query::Facts;
use jamm_ulm::{SharedEvent, Timestamp};

/// Sorted in-memory buffer of not-yet-sealed events.
///
/// Events are held as [`SharedEvent`]s: the archiver's ingest path hands
/// the same `Arc`s the gateway fanned out straight into the buffer, so
/// archiving costs a refcount bump per event instead of a deep copy.
#[derive(Debug, Default)]
pub struct MemTable {
    /// `(sequence, event)` pairs.  Invariant: strictly ascending by
    /// `(event.timestamp, sequence)`.
    events: Vec<(u64, SharedEvent)>,
}

fn key(entry: &(u64, SharedEvent)) -> (Timestamp, u64) {
    (entry.1.timestamp, entry.0)
}

impl MemTable {
    /// An empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Insert a batch of `(sequence, event)` pairs, in any order.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = (u64, SharedEvent)>) {
        let sorted_len = self.events.len();
        // The smallest key that arrived behind a larger one, if any did.
        let mut earliest_late = None;
        for entry in entries {
            let at = key(&entry);
            if self.events.last().is_some_and(|last| key(last) > at) {
                earliest_late = Some(earliest_late.map_or(at, |e: (Timestamp, u64)| e.min(at)));
            }
            self.events.push(entry);
        }
        if let Some(at) = earliest_late {
            // Everything before `from` sorts before every new entry (each
            // is at or after `at`, or after the old last entry), so only
            // the tail moves.  It is a few sorted runs, which the stable
            // sort detects and merges rather than comparing from scratch.
            let from = self.events[..sorted_len].partition_point(|e| key(e) < at);
            self.events[from..].sort_by_key(key);
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Earliest buffered timestamp.
    pub fn min_ts(&self) -> Option<Timestamp> {
        self.events.first().map(|(_, e)| e.timestamp)
    }

    /// Latest buffered timestamp.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.events.last().map(|(_, e)| e.timestamp)
    }

    /// Everything buffered as `(seq, event)` pairs in `(timestamp,
    /// sequence)` order.  The seal path builds its segment from this
    /// borrow and calls [`MemTable::clear`] only once the segment is
    /// durable; a retention cut rewrites the WAL from it.
    pub fn as_slice(&self) -> &[(u64, SharedEvent)] {
        &self.events
    }

    /// Forget everything buffered, keeping the allocation for the next
    /// memtable's worth of appends.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Snapshot the events a query's pushdown [`Facts`] admit, in order,
    /// as `(seq, event)` pairs.  The snapshot is bounded by the memtable's
    /// seal threshold, so this is the only place a scan materializes
    /// anything.  Only the cheap facts apply here; the full plan runs
    /// post-merge inside the scan iterator.
    pub fn matching(&self, facts: &Facts) -> Vec<(u64, SharedEvent)> {
        let first_at_or_after = |micros: u64| {
            self.events
                .partition_point(|(_, e)| e.timestamp.as_micros() < micros)
        };
        let start = facts.from_micros.map_or(0, first_at_or_after);
        let end = facts.to_micros.map_or(self.events.len(), first_at_or_after);
        self.events
            .get(start..end)
            .unwrap_or_default()
            .iter()
            .filter(|(_, e)| facts.admits(&**e))
            // A snapshot entry is a refcount bump, not an event copy.
            .cloned()
            .collect()
    }

    /// Drop events strictly older than `cutoff`; returns how many were
    /// removed.
    pub fn prune_before(&mut self, cutoff: Timestamp) -> usize {
        let removed = self.events.partition_point(|(_, e)| e.timestamp < cutoff);
        self.events.drain(..removed);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::check::forall;
    use jamm_core::query::Predicate;
    use jamm_ulm::{Event, Level};
    use std::collections::BTreeMap;

    fn ev(host: &str, ty: &str, t: u64) -> SharedEvent {
        SharedEvent::new(
            Event::builder("p", host)
                .level(Level::Usage)
                .event_type(ty)
                .timestamp(Timestamp::from_secs(t))
                .value(1.0)
                .build(),
        )
    }

    fn seqs(entries: &[(u64, SharedEvent)]) -> Vec<u64> {
        entries.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn drain_is_sorted_by_time_then_seq() {
        let mut m = MemTable::new();
        m.extend([(2, ev("h", "X", 10))]);
        m.extend([(1, ev("h", "X", 20)), (3, ev("h", "X", 10))]);
        assert_eq!(seqs(m.as_slice()), vec![2, 3, 1]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!((m.min_ts(), m.max_ts()), (None, None));
    }

    #[test]
    fn matching_applies_range_and_filters() {
        let mut m = MemTable::new();
        for t in 0..10 {
            m.extend([(t, ev(if t % 2 == 0 { "a" } else { "b" }, "X", t))]);
        }
        let plan = Predicate::and(vec![
            Predicate::between_micros(2_000_000, 8_000_000),
            Predicate::hosts(["a"]),
        ])
        .compile();
        let hits = m.matching(plan.facts());
        assert_eq!(hits.len(), 3); // t = 2, 4, 6
        assert!(hits.iter().all(|(_, e)| e.host == "a"));
        // An inverted window is empty, not a panic.
        let inverted = Predicate::between_micros(8_000_000, 2_000_000).compile();
        assert!(m.matching(inverted.facts()).is_empty());
    }

    #[test]
    fn prune_removes_old_keeps_new() {
        let mut m = MemTable::new();
        for t in 0..10 {
            m.extend([(t, ev("h", "X", t))]);
        }
        let removed = m.prune_before(Timestamp::from_secs(4));
        assert_eq!(removed, 4);
        assert_eq!(m.len(), 6);
        assert_eq!(m.min_ts(), Some(Timestamp::from_secs(4)));
        assert_eq!(m.as_slice().len(), 6);
    }

    /// The `Vec` memtable against the `BTreeMap` it replaced, under random
    /// in-order and out-of-order inserts interleaved with range matches,
    /// retention cuts and the seal path's borrow-then-clear.
    #[test]
    fn equivalent_to_a_btreemap_model() {
        forall("memtable-vs-btreemap", 200, |g| {
            let mut m = MemTable::new();
            let mut model: BTreeMap<(Timestamp, u64), SharedEvent> = BTreeMap::new();
            let in_order = g.bool(0.5);
            let mut clock = 0u64;
            let mut next_seq = 0u64;
            for _ in 0..g.u64(120) {
                match g.u64(10) {
                    0 => {
                        let cutoff = Timestamp::from_secs(g.u64(clock + 2));
                        let keep = model.split_off(&(cutoff, 0));
                        assert_eq!(m.prune_before(cutoff), model.len());
                        model = keep;
                    }
                    1 => {
                        let from = g.u64(clock + 2) * 1_000_000;
                        let to = g.u64(clock + 2) * 1_000_000;
                        let plan = Predicate::and(vec![
                            Predicate::between_micros(from, to),
                            Predicate::hosts(["a"]),
                        ])
                        .compile();
                        let want: Vec<u64> = model
                            .iter()
                            .filter(|((ts, _), e)| {
                                (from..to).contains(&ts.as_micros()) && e.host == "a"
                            })
                            .map(|((_, seq), _)| *seq)
                            .collect();
                        assert_eq!(seqs(&m.matching(plan.facts())), want);
                    }
                    2 if g.bool(0.2) => {
                        m.clear();
                        model.clear();
                    }
                    _ => {
                        // One append: a batch of one, or several whose late
                        // entries land anywhere in what is buffered.
                        let mut batch = Vec::new();
                        for _ in 0..1 + g.u64(6) {
                            let t = if in_order || g.bool(0.5) {
                                clock += g.u64(2); // repeats exercise the seq tie-break
                                clock
                            } else {
                                g.u64(clock + 1)
                            };
                            let e = ev(if g.bool(0.5) { "a" } else { "b" }, "X", t);
                            model.insert((e.timestamp, next_seq), SharedEvent::clone(&e));
                            batch.push((next_seq, e));
                            next_seq += 1;
                        }
                        m.extend(batch);
                    }
                }
                assert_eq!(m.len(), model.len());
                assert_eq!(m.min_ts(), model.keys().next().map(|k| k.0));
                assert_eq!(m.max_ts(), model.keys().next_back().map(|k| k.0));
                let want: Vec<u64> = model.keys().map(|k| k.1).collect();
                assert_eq!(seqs(m.as_slice()), want);
            }
        });
    }
}
