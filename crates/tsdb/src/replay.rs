//! Historical replay: feed an archived time range back into the live
//! pipeline.
//!
//! The paper archives monitoring data "to provide the ability to do
//! historical analysis of system performance"; [`ReplaySource`] closes the
//! loop by making an archive range an [`EventSource`], so an archived
//! MATISSE run can be replayed through an event gateway into the same
//! collectors / nlv-style analysis that watched it live.

use jamm_core::flow::{EventSink, EventSource};
use jamm_core::query::Plan;
use jamm_ulm::SharedEvent;

use crate::{ScanIter, Tsdb};

/// An [`EventSource`] streaming an archived range in time order.
///
/// The source owns its scan (segment data decodes lazily), so it stays
/// valid after the store borrow ends and never materializes the range.
/// Each decoded event is wrapped once as a [`SharedEvent`]; pumping it
/// into a gateway then fans it out to every subscriber by refcount, so a
/// replayed run costs the same per-event work as the live run did.
#[derive(Debug)]
pub struct ReplaySource {
    scan: ScanIter,
    batch: usize,
    replayed: usize,
    /// An event a sink rejected in [`ReplaySource::pump`], staged so the
    /// next pump or drain retries it instead of losing it.
    unsent: Option<SharedEvent>,
}

impl ReplaySource {
    /// Replay every event a compiled query-plane plan matches, in time
    /// order.
    pub fn new(archive: &Tsdb, plan: &Plan) -> ReplaySource {
        ReplaySource {
            scan: archive.scan(plan),
            batch: 0,
            replayed: 0,
            unsent: None,
        }
    }

    /// Limit each [`EventSource::drain_into`] call to at most `n` events
    /// (0 = unlimited), so a replay can be paced instead of arriving as
    /// one burst.
    pub fn with_batch(mut self, n: usize) -> ReplaySource {
        self.batch = n;
        self
    }

    /// Events replayed so far.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Push the remaining events into a sink (e.g. a gateway, so
    /// subscribers see the archived run as a live stream).  Stops early if
    /// the sink rejects an event — the rejected event stays staged and a
    /// later pump (or drain) retries it, so nothing is skipped.  Returns
    /// how many were delivered to the sink.
    pub fn pump(&mut self, sink: &dyn EventSink<SharedEvent>) -> usize {
        let mut n = 0;
        while let Some(event) = self
            .unsent
            .take()
            .or_else(|| self.scan.next().map(SharedEvent::new))
        {
            if sink.accept(&event).is_err() {
                self.unsent = Some(event);
                break;
            }
            self.replayed += 1;
            n += 1;
        }
        n
    }
}

impl EventSource<SharedEvent> for ReplaySource {
    fn drain_into(&mut self, out: &mut Vec<SharedEvent>) -> usize {
        let before = out.len();
        let limit = if self.batch == 0 {
            usize::MAX
        } else {
            self.batch
        };
        if let Some(event) = self.unsent.take() {
            out.push(event);
        }
        while out.len() - before < limit {
            match self.scan.next() {
                Some(event) => out.push(SharedEvent::new(event)),
                None => break,
            }
        }
        let moved = out.len() - before;
        self.replayed += moved;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::flow::SinkError;
    use jamm_core::query::Predicate;
    use jamm_core::sync::Mutex;
    use jamm_ulm::{Event, Level, Timestamp};

    fn ev(t: u64) -> Event {
        Event::builder("p", "h")
            .level(Level::Usage)
            .event_type("X")
            .timestamp(Timestamp::from_secs(t))
            .value(t as f64)
            .build()
    }

    fn populated() -> Tsdb {
        let a = Tsdb::in_memory();
        let events: Vec<SharedEvent> = (0..20u64).map(|t| SharedEvent::new(ev(t))).collect();
        a.append_shared_batch(&events).unwrap();
        a.seal().unwrap();
        a
    }

    #[test]
    fn drains_a_range_in_order_and_in_batches() {
        let a = populated();
        let q = Predicate::between_micros(5_000_000, 15_000_000).compile();
        let mut src = ReplaySource::new(&a, &q).with_batch(4);
        let mut out = Vec::new();
        assert_eq!(src.drain_into(&mut out), 4);
        assert_eq!(src.drain_into(&mut out), 4);
        assert_eq!(src.drain_into(&mut out), 2);
        assert_eq!(src.drain_into(&mut out), 0);
        assert_eq!(src.replayed(), 10);
        let times: Vec<u64> = out.iter().map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, (5..15).collect::<Vec<_>>());
    }

    #[test]
    fn pump_pushes_into_a_sink() {
        struct Collect(Mutex<Vec<SharedEvent>>);
        impl EventSink<SharedEvent> for Collect {
            fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
                self.0.lock().push(SharedEvent::clone(event));
                Ok(1)
            }
        }
        let a = populated();
        let sink = Collect(Mutex::new(Vec::new()));
        let mut src = ReplaySource::new(&a, &Predicate::Limit(7).compile());
        assert_eq!(src.pump(&sink), 7);
        assert_eq!(sink.0.lock().len(), 7);
        assert_eq!(src.pump(&sink), 0, "scan exhausted");
    }

    #[test]
    fn pump_retries_the_rejected_event() {
        struct Flaky {
            accepted: Mutex<Vec<SharedEvent>>,
            reject_after: usize,
            rejecting: std::sync::atomic::AtomicBool,
        }
        impl EventSink<SharedEvent> for Flaky {
            fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
                let mut accepted = self.accepted.lock();
                if accepted.len() >= self.reject_after
                    && self.rejecting.load(std::sync::atomic::Ordering::Relaxed)
                {
                    return Err(SinkError::Rejected("queue full".into()));
                }
                accepted.push(SharedEvent::clone(event));
                Ok(1)
            }
        }
        let a = populated();
        let sink = Flaky {
            accepted: Mutex::new(Vec::new()),
            reject_after: 2,
            rejecting: std::sync::atomic::AtomicBool::new(true),
        };
        let mut src = ReplaySource::new(&a, &Predicate::True.compile());
        assert_eq!(src.pump(&sink), 2, "stops at the rejection");
        assert_eq!(src.replayed(), 2, "the rejected event is not counted");
        // The sink recovers; the rejected event is retried, not skipped.
        sink.rejecting
            .store(false, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(src.pump(&sink), 18);
        let times: Vec<u64> = sink
            .accepted
            .lock()
            .iter()
            .map(|e| e.timestamp.as_secs())
            .collect();
        assert_eq!(times, (0..20).collect::<Vec<_>>(), "nothing skipped");
    }

    #[test]
    fn replay_outlives_the_archive_borrow() {
        let a = populated();
        let mut src = ReplaySource::new(&a, &Predicate::True.compile());
        // More writes to the archive do not affect the snapshot the source
        // merged from (memtable was sealed above).
        a.append_shared_batch(&[SharedEvent::new(ev(100))]).unwrap();
        assert_eq!(src.drain().len(), 20);
    }
}
