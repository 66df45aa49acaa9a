//! Push and pull ends of the event pipeline.
//!
//! [`EventSink`] is anything events can be pushed into (gateways, archives,
//! archivers, test probes); [`EventSource`] is anything events can be
//! drained out of (subscriptions, collectors, application feeds).  Both are
//! object safe so a sensor manager can publish through `&dyn EventSink<E>`
//! without knowing which of them is on the other end.  [`DeliveryCounters`]
//! is the shared accounting block every sink keeps.  A bounded hop never
//! makes its producer wait: when a consumer falls behind, its queue drops
//! the oldest event and the drop is counted here.

use std::sync::atomic::{AtomicU64, Ordering};

/// Errors a sink can report for a rejected delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// The sink's consumer side is gone; nothing will be delivered again.
    Closed,
    /// The sink refused the event (policy, authorization, ...).
    Rejected(String),
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Closed => write!(f, "sink closed"),
            SinkError::Rejected(why) => write!(f, "sink rejected event: {why}"),
        }
    }
}

impl std::error::Error for SinkError {}

/// Anything monitoring events can be pushed into.
pub trait EventSink<E>: Send + Sync {
    /// Offer one event.  Returns the number of downstream deliveries it
    /// caused (a gateway fans one event out to many subscribers; a store
    /// counts 1; a filter that rejects counts 0).
    fn accept(&self, event: &E) -> Result<usize, SinkError>;

    /// Offer a batch; the default is per-event [`EventSink::accept`],
    /// stopping at the first hard error.
    fn accept_batch(&self, events: &[E]) -> Result<usize, SinkError> {
        let mut delivered = 0;
        for e in events {
            delivered += self.accept(e)?;
        }
        Ok(delivered)
    }
}

/// Anything monitoring events can be drained out of.
pub trait EventSource<E> {
    /// Move every currently available event into `out`; returns how many
    /// were moved.  Non-blocking.
    fn drain_into(&mut self, out: &mut Vec<E>) -> usize;

    /// Drain into a fresh vector.
    fn drain(&mut self) -> Vec<E> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }
}

/// Delivered / dropped / byte accounting shared between a sink and whoever
/// watches it.  All counters are monotonic.
#[derive(Debug, Default)]
pub struct DeliveryCounters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    bytes: AtomicU64,
}

impl DeliveryCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        DeliveryCounters::default()
    }

    /// Record one delivery of `bytes` payload bytes.
    pub fn record_delivered(&self, bytes: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `n` deliveries totalling `bytes` payload bytes (the batched
    /// fan-out path updates the counters once per flushed batch, not once
    /// per event).
    pub fn record_delivered_n(&self, n: u64, bytes: u64) {
        self.delivered.fetch_add(n, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `n` dropped events.
    pub fn record_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Events dropped so far (queue overflow or dead consumer).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Payload bytes delivered so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Blanket impl: a channel receiver is an event source, drained under one
/// lock.
impl<E> EventSource<E> for crate::channel::Receiver<E> {
    fn drain_into(&mut self, out: &mut Vec<E>) -> usize {
        crate::channel::Receiver::drain_into(self, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use crate::sync::Mutex;

    struct VecSink {
        store: Mutex<Vec<u32>>,
        counters: DeliveryCounters,
    }

    impl EventSink<u32> for VecSink {
        fn accept(&self, event: &u32) -> Result<usize, SinkError> {
            if *event == 13 {
                self.counters.record_dropped(1);
                return Err(SinkError::Rejected("unlucky".into()));
            }
            self.store.lock().push(*event);
            self.counters.record_delivered(4);
            Ok(1)
        }
    }

    #[test]
    fn sink_batch_counts_and_counters_accumulate() {
        let sink = VecSink {
            store: Mutex::new(Vec::new()),
            counters: DeliveryCounters::new(),
        };
        assert_eq!(sink.accept_batch(&[1, 2, 3]).unwrap(), 3);
        assert!(sink.accept_batch(&[4, 13, 5]).is_err());
        assert_eq!(*sink.store.lock(), vec![1, 2, 3, 4]);
        assert_eq!(sink.counters.delivered(), 4);
        assert_eq!(sink.counters.dropped(), 1);
        assert_eq!(sink.counters.bytes(), 16);
    }

    #[test]
    fn receiver_is_a_source() {
        let (tx, mut rx) = channel::unbounded();
        for i in 0..5u32 {
            tx.send(i).unwrap();
        }
        let drained = rx.drain();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.drain_into(&mut Vec::new()), 0);
    }

    #[test]
    fn dyn_sink_is_object_safe() {
        let sink = VecSink {
            store: Mutex::new(Vec::new()),
            counters: DeliveryCounters::new(),
        };
        let dyn_sink: &dyn EventSink<u32> = &sink;
        assert_eq!(dyn_sink.accept(&9).unwrap(), 1);
    }
}
