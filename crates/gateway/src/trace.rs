//! Self-lifelines: the monitoring pipeline traced with its own NetLogger
//! instrumentation.
//!
//! The paper diagnoses application bottlenecks by correlating NetLogger
//! events that share an `NL.OID` as an object moves through a system
//! (§4, §6).  [`PipelineTracer`] applies exactly that technique to JAMM
//! itself: a sampled fraction of published events is "watched" through
//! the pipeline, and every stage a watched event passes — publish, route,
//! subscription delivery, consumer drain, edge encode, broadcast, archive
//! append — emits an ordinary ULM event (program `_jamm`, one of the
//! [`jamm_ulm::keys::jamm`] stage types) carrying the shared correlation
//! id.  Those events wait in the tracer's own bounded queue
//! ([`SELF_QUEUE_CAPACITY`], oldest evicted first) until the operator
//! drains them, and the existing netlogger merge / nlv / analysis
//! machinery consumes them unchanged.
//!
//! ## Hot-path cost
//!
//! Identifying a watched event must not tax the events that are *not*
//! watched (the overwhelming majority).  A [`SharedEvent`] is an `Arc`,
//! so its pointer is a process-unique identity while the tracer holds a
//! clone: the tracer keeps a small fixed ring of watched pointers, and a
//! stage check is a handful of relaxed loads and compares — no locks, no
//! allocation, no hashing.  The sampling decision itself is one relaxed
//! `fetch_add` per publish.  Only the sampled path (1 in `sample_every`)
//! allocates, to build the trace events themselves.
//!
//! The ring has [`TRACE_SLOTS`] entries, so a watched event's lifeline is
//! complete as long as its journey finishes within `TRACE_SLOTS ×
//! sample_every` subsequent publishes; after that its slot is recycled and
//! the lifeline is simply truncated — acceptable for sampled diagnostics,
//! and exactly the failure mode the bounded design buys its zero cost
//! with.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use jamm_core::channel::{self, Receiver, Sender};
use jamm_core::sync::Mutex;
use jamm_ulm::{keys, Event, Level, SharedEvent, Timestamp};

/// Watched-pointer ring size: how many sampled events can be in flight
/// through the pipeline at once before the oldest slot is recycled.
pub const TRACE_SLOTS: usize = 8;

/// Default sampling rate: one publish in 64 is traced.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Trace points the tracer's queue holds until drained; past this the
/// oldest point is evicted and counted in [`PipelineTracer::dropped`].
pub const SELF_QUEUE_CAPACITY: usize = 65_536;

/// Time source for trace points.
///
/// A live deployment stamps lifeline points with the wall clock; a
/// simulated one (the netsim scenario engine) shares one cell holding
/// simulated microseconds-since-epoch, so stage-to-stage durations are
/// measured in *simulated* time and a run is reproducible bit-for-bit
/// regardless of how fast the host machine executes it.
#[derive(Clone, Debug, Default)]
pub enum TraceClock {
    /// Stamp points with [`Timestamp::now`] (the default).
    #[default]
    Wall,
    /// Stamp points from a shared cell of microseconds since the Unix
    /// epoch, advanced by whoever owns the simulation clock.
    Shared(Arc<AtomicU64>),
}

impl TraceClock {
    /// A shared-cell clock reading `cell` (microseconds since the epoch).
    pub fn shared(cell: Arc<AtomicU64>) -> Self {
        TraceClock::Shared(cell)
    }

    /// The current instant according to this clock.
    pub fn now(&self) -> Timestamp {
        match self {
            TraceClock::Wall => Timestamp::now(),
            TraceClock::Shared(cell) => Timestamp::from_micros(cell.load(Ordering::Relaxed)),
        }
    }
}

struct TraceSlot {
    /// `Arc::as_ptr` of the watched event (0 = empty).  The slot's `keep`
    /// entry holds a clone of the event, so the pointer cannot be
    /// recycled by the allocator while it is watched.
    ptr: AtomicUsize,
    /// Correlation id for this slot's event.
    id: AtomicU64,
}

/// Sampled correlation-id tracing through the event pipeline.
///
/// Created once per deployment (see the jamm facade's `self_monitor`
/// knob) and shared by every traced component; its points are read back
/// with [`PipelineTracer::drain_into`].
pub struct PipelineTracer {
    tx: Sender<SharedEvent>,
    rx: Receiver<SharedEvent>,
    /// Points evicted from a full queue.
    dropped: AtomicU64,
    host: String,
    clock: TraceClock,
    /// `sample_every - 1` for power-of-two rates (sampling is a mask
    /// test).
    mask: u64,
    publishes: AtomicU64,
    next_id: AtomicU64,
    slots: [TraceSlot; TRACE_SLOTS],
    cursor: AtomicU64,
    /// Keeps each watched event's allocation alive (slot-parallel), so a
    /// watched pointer can never be A-B-A'd by a freed-and-reallocated
    /// event.  Locked only on the sampled path.
    keep: Mutex<[Option<SharedEvent>; TRACE_SLOTS]>,
    sampled: AtomicU64,
    points: AtomicU64,
}

impl std::fmt::Debug for PipelineTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineTracer")
            .field("sample_every", &(self.mask + 1))
            .field("sampled", &self.sampled_count())
            .field("points", &self.point_count())
            .finish_non_exhaustive()
    }
}

impl PipelineTracer {
    /// A tracer stamping its points with `host`, sampling one publish in
    /// `sample_every` (rounded up to a power of two, minimum 1).
    pub fn new(host: impl Into<String>, sample_every: u64) -> Arc<Self> {
        Self::with_clock(host, sample_every, TraceClock::Wall)
    }

    /// Like [`PipelineTracer::new`], but stamping trace points from the
    /// given [`TraceClock`] instead of the wall clock — the hook the
    /// simulated scenario engine uses to keep lifeline durations in
    /// simulated time.
    pub fn with_clock(host: impl Into<String>, sample_every: u64, clock: TraceClock) -> Arc<Self> {
        let every = sample_every.max(1).next_power_of_two();
        let (tx, rx) = channel::bounded(SELF_QUEUE_CAPACITY);
        Arc::new(PipelineTracer {
            tx,
            rx,
            dropped: AtomicU64::new(0),
            host: host.into(),
            clock,
            mask: every - 1,
            publishes: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            slots: std::array::from_fn(|_| TraceSlot {
                ptr: AtomicUsize::new(0),
                id: AtomicU64::new(0),
            }),
            cursor: AtomicU64::new(0),
            keep: Mutex::new(std::array::from_fn(|_| None)),
            sampled: AtomicU64::new(0),
            points: AtomicU64::new(0),
        })
    }

    /// Move every queued trace point onto the end of `out`, oldest first.
    /// Returns how many were moved.
    pub fn drain_into(&self, out: &mut Vec<SharedEvent>) -> usize {
        self.rx.drain_into(out)
    }

    /// Trace points evicted because the queue was full when they arrived.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Effective sampling rate (publishes per sampled lifeline).
    pub fn sample_every(&self) -> u64 {
        self.mask + 1
    }

    /// Lifelines started so far.
    pub fn sampled_count(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Trace points emitted so far (across all stages).
    pub fn point_count(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Sampling decision at the pipeline entry: called once per publish by
    /// the traced gateway.  The unsampled path is one relaxed `fetch_add`;
    /// the sampled path claims a ring slot and emits the
    /// [`keys::jamm::GW_PUBLISH`] point (`TARGET` = gateway name).
    pub fn on_publish(&self, event: &SharedEvent, gateway: &str) {
        if self.publishes.fetch_add(1, Ordering::Relaxed) & self.mask != 0 {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % TRACE_SLOTS;
        {
            // Keep the allocation alive *before* publishing the pointer.
            let mut keep = self.keep.lock();
            keep[slot] = Some(SharedEvent::clone(event));
        }
        self.slots[slot].id.store(id, Ordering::Relaxed);
        self.slots[slot]
            .ptr
            .store(Arc::as_ptr(event) as usize, Ordering::Release);
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.emit(id, keys::jamm::GW_PUBLISH, gateway);
    }

    /// The correlation id of a watched event, or `None` for the (vastly
    /// more common) unwatched case.  A ring scan: at most [`TRACE_SLOTS`]
    /// relaxed loads, no locks, no allocation.
    #[inline]
    pub fn trace_id(&self, event: &SharedEvent) -> Option<u64> {
        let p = Arc::as_ptr(event) as usize;
        for slot in &self.slots {
            if slot.ptr.load(Ordering::Acquire) == p {
                return Some(slot.id.load(Ordering::Relaxed));
            }
        }
        None
    }

    /// Emit a stage point for a watched event (no-op otherwise).
    #[inline]
    pub fn stage(&self, event: &SharedEvent, stage: &'static str, target: &str) {
        if let Some(id) = self.trace_id(event) {
            self.emit(id, stage, target);
        }
    }

    /// Emit a stage point for an already-resolved correlation id (for
    /// callers that looked the id up before the event's `Arc` moved on).
    pub fn stage_id(&self, id: u64, stage: &'static str, target: &str) {
        self.emit(id, stage, target);
    }

    /// Build and queue one trace point (the sampled slow path — this
    /// allocates, like any event publish).
    fn emit(&self, id: u64, stage: &'static str, target: &str) {
        self.points.fetch_add(1, Ordering::Relaxed);
        let point = Event::builder("_jamm", self.host.clone())
            .level(Level::Usage)
            .event_type(stage)
            .timestamp(self.clock.now())
            .field(keys::OBJECT_ID, format!("jamm-{id}"))
            .field(keys::TARGET, target.to_string())
            .build();
        // The tracer holds the receiver, so the send cannot fail.
        if let Ok(true) = self.tx.send_overwriting(Arc::new(point)) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ty: &str, t: u64) -> SharedEvent {
        Arc::new(
            Event::builder("prog", "h")
                .event_type(ty)
                .timestamp(Timestamp::from_secs(t))
                .build(),
        )
    }

    #[test]
    fn samples_one_in_every_and_correlates_stages() {
        let tracer = PipelineTracer::new("test.host", 4);
        assert_eq!(tracer.sample_every(), 4);
        let mut watched = Vec::new();
        for i in 0..8 {
            let e = ev("X", i);
            tracer.on_publish(&e, "gw1");
            if let Some(id) = tracer.trace_id(&e) {
                watched.push((e, id));
            }
        }
        assert_eq!(watched.len(), 2, "1-in-4 of 8 publishes");
        // Later stages of a watched event reuse its correlation id.
        for (e, id) in &watched {
            tracer.stage(e, keys::jamm::SUB_DELIVER, "nlv");
            assert_eq!(tracer.trace_id(e), Some(*id));
        }
        // Unwatched events emit nothing.
        tracer.stage(&ev("X", 99), keys::jamm::SUB_DELIVER, "nlv");
        let mut points = Vec::new();
        tracer.drain_into(&mut points);
        let publishes = points
            .iter()
            .filter(|e| e.event_type == keys::jamm::GW_PUBLISH)
            .count();
        let delivers: Vec<_> = points
            .iter()
            .filter(|e| e.event_type == keys::jamm::SUB_DELIVER)
            .collect();
        assert_eq!(publishes, 2);
        assert_eq!(delivers.len(), 2);
        // The deliver points carry the watched events' correlation ids.
        let ids: Vec<String> = watched.iter().map(|(_, id)| format!("jamm-{id}")).collect();
        for d in delivers {
            assert!(ids.iter().any(|i| Some(i.as_str()) == d.object_id()));
            assert_eq!(d.field(keys::TARGET).and_then(|v| v.as_str()), Some("nlv"));
        }
    }

    #[test]
    fn ring_recycles_oldest_slot() {
        let tracer = PipelineTracer::new("test.host", 1);
        let first = ev("X", 0);
        tracer.on_publish(&first, "gw");
        assert!(tracer.trace_id(&first).is_some());
        // TRACE_SLOTS further samples overwrite every slot.
        let later: Vec<SharedEvent> = (1..=TRACE_SLOTS as u64).map(|i| ev("X", i)).collect();
        for e in &later {
            tracer.on_publish(e, "gw");
        }
        assert_eq!(tracer.trace_id(&first), None, "oldest slot recycled");
        assert!(later.iter().all(|e| tracer.trace_id(e).is_some()));
        assert_eq!(tracer.sampled_count(), 1 + TRACE_SLOTS as u64);
    }

    #[test]
    fn shared_clock_stamps_points_with_simulated_time() {
        let cell = Arc::new(AtomicU64::new(5_000_000));
        let tracer = PipelineTracer::with_clock("sim.host", 1, TraceClock::shared(cell.clone()));
        let e = ev("X", 0);
        tracer.on_publish(&e, "gw");
        cell.store(5_080_000, Ordering::Relaxed);
        tracer.stage(&e, keys::jamm::SUB_DELIVER, "nlv");
        let mut points = Vec::new();
        tracer.drain_into(&mut points);
        let stamps: Vec<u64> = points.iter().map(|p| p.timestamp.as_micros()).collect();
        assert_eq!(stamps, vec![5_000_000, 5_080_000]);
    }

    #[test]
    fn sample_every_rounds_to_power_of_two() {
        assert_eq!(PipelineTracer::new("h", 0).sample_every(), 1);
        assert_eq!(PipelineTracer::new("h", 3).sample_every(), 4);
        assert_eq!(PipelineTracer::new("h", 64).sample_every(), 64);
    }

    #[test]
    fn a_full_queue_evicts_the_oldest_point_and_counts_it() {
        let tracer = PipelineTracer::new("h", 1);
        let events: Vec<SharedEvent> = (0..=SELF_QUEUE_CAPACITY as u64)
            .map(|i| ev("X", i))
            .collect();
        for e in &events {
            tracer.on_publish(e, "gw");
        }
        assert_eq!(tracer.dropped(), 1);
        let mut points = Vec::new();
        assert_eq!(tracer.drain_into(&mut points), SELF_QUEUE_CAPACITY);
        // The first point (correlation id 1) was the one evicted.
        assert_eq!(points[0].object_id(), Some("jamm-2"));
        assert_eq!(tracer.drain_into(&mut points), 0);
    }
}
