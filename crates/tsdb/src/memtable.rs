//! The in-memory write buffer: the "hot" tier that absorbs appends until
//! it seals into an immutable segment.
//!
//! Events are keyed by `(timestamp, sequence)` so identical timestamps
//! never collide and iteration is already in the store's canonical order —
//! sealing is a straight drain, no sort.

use std::collections::BTreeMap;

use jamm_core::query::Facts;
use jamm_ulm::{Event, SharedEvent, Timestamp};

/// Sorted in-memory buffer of not-yet-sealed events.
///
/// Events are held as [`SharedEvent`]s: the archiver's ingest path hands
/// the same `Arc`s the gateway fanned out straight into the buffer, so
/// archiving costs a refcount bump per event instead of a deep copy.
#[derive(Debug, Default)]
pub struct MemTable {
    events: BTreeMap<(Timestamp, u64), SharedEvent>,
    approx_bytes: usize,
}

impl MemTable {
    /// An empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Insert one event under its sequence number.
    pub fn insert(&mut self, seq: u64, event: SharedEvent) {
        self.approx_bytes += event.approx_size();
        self.events.insert((event.timestamp, seq), event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Approximate buffered payload bytes (ULM text sizing).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Earliest buffered timestamp.
    pub fn min_ts(&self) -> Option<Timestamp> {
        self.events.keys().next().map(|(t, _)| *t)
    }

    /// Latest buffered timestamp.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.events.keys().next_back().map(|(t, _)| *t)
    }

    /// Move everything out in `(timestamp, sequence)` order, leaving the
    /// memtable empty.  This is the seal path.
    pub fn drain_sorted(&mut self) -> Vec<(u64, SharedEvent)> {
        self.approx_bytes = 0;
        std::mem::take(&mut self.events)
            .into_iter()
            .map(|((_, seq), e)| (seq, e))
            .collect()
    }

    /// Snapshot the events a query's pushdown [`Facts`] admit, in order,
    /// as `(seq, event)` pairs.  The snapshot is bounded by the memtable's
    /// seal threshold, so this is the only place a scan materializes
    /// anything.  Only the cheap facts apply here; the full plan runs
    /// post-merge inside the scan iterator.
    pub fn matching(&self, facts: &Facts) -> Vec<(u64, SharedEvent)> {
        let lower = facts
            .from_micros
            .map(|t| (Timestamp::from_micros(t), 0))
            .unwrap_or((Timestamp::EPOCH, 0));
        let mut out = Vec::new();
        for ((ts, seq), e) in self.events.range(lower..) {
            if let Some(to) = facts.to_micros {
                if ts.as_micros() >= to {
                    break;
                }
            }
            if facts.admits(&**e) {
                // A snapshot entry is a refcount bump, not an event copy.
                out.push((*seq, SharedEvent::clone(e)));
            }
        }
        out
    }

    /// Iterate all buffered events in order (for catalog aggregation).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.values().map(|e| &**e)
    }

    /// Drop events strictly older than `cutoff`; returns how many were
    /// removed.
    pub fn prune_before(&mut self, cutoff: Timestamp) -> usize {
        let keep = self.events.split_off(&(cutoff, 0));
        let removed = self.events.len();
        self.events = keep;
        self.approx_bytes = self.events.values().map(|e| e.approx_size()).sum();
        removed
    }

    /// The surviving `(seq, event)` pairs in order (used to rewrite the WAL
    /// after a retention cut).
    pub fn snapshot(&self) -> Vec<(u64, SharedEvent)> {
        self.events
            .iter()
            .map(|((_, seq), e)| (*seq, SharedEvent::clone(e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_ulm::Level;

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

    #[test]
    fn drain_is_sorted_by_time_then_seq() {
        let mut m = MemTable::new();
        m.insert(2, ev("h", "X", 10));
        m.insert(1, ev("h", "X", 20));
        m.insert(3, ev("h", "X", 10));
        let drained = m.drain_sorted();
        assert_eq!(
            drained.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn matching_applies_range_and_filters() {
        let mut m = MemTable::new();
        for t in 0..10 {
            m.insert(t, ev(if t % 2 == 0 { "a" } else { "b" }, "X", t));
        }
        use jamm_core::query::Predicate;
        let plan = Predicate::and(vec![
            Predicate::between_micros(2_000_000, 8_000_000),
            Predicate::hosts(["a"]),
        ])
        .compile();
        let hits = m.matching(plan.facts());
        assert_eq!(hits.len(), 3); // t = 2, 4, 6
        assert!(hits.iter().all(|(_, e)| e.host == "a"));
    }

    #[test]
    fn prune_removes_old_keeps_new() {
        let mut m = MemTable::new();
        for t in 0..10 {
            m.insert(t, ev("h", "X", t));
        }
        let removed = m.prune_before(Timestamp::from_secs(4));
        assert_eq!(removed, 4);
        assert_eq!(m.len(), 6);
        assert_eq!(m.min_ts(), Some(Timestamp::from_secs(4)));
        assert_eq!(m.snapshot().len(), 6);
    }
}
