//! The fan-out engine behind [`crate::EventGateway`].
//!
//! The paper's scalability claim is that "added consumers load the gateway
//! rather than the monitored host" (§2.3) — which only holds if the gateway
//! itself does not collapse as subscriptions accumulate.  The first
//! implementation kept every subscription in one `Mutex<Vec<_>>` and
//! scanned the whole list under the lock for every published event, so the
//! hot path was O(subscribers) with a global serialization point exactly
//! where the paper promises linear scaling.
//!
//! This module replaces that list with a routing table:
//!
//! * subscriptions are **indexed by event type** — a subscription whose
//!   compiled plan names explicit event types (see
//!   [`jamm_core::query::Plan::routed_types`]) is registered only in
//!   the buckets for those types; only subscriptions with no type
//!   constraint sit in the wildcard list;
//! * the table is one immutable [`Arc`] snapshot behind a reader/writer
//!   lock.  Publishing clones the `Arc` (a refcount bump under a
//!   briefly-held read lock) and fans out **without any lock held**;
//!   subscribing, unsubscribing and dead-consumer collection rebuild the
//!   snapshot and swap the `Arc` on the cold path;
//! * delivery into a subscription's bounded queue goes through the batch
//!   send primitives of `jamm_core::channel` when events are published in
//!   batches, so a burst costs one queue-lock acquisition per subscription
//!   instead of one per event.
//!
//! The flat list lives on only as the oracle in `tests/prop_gateway.rs`,
//! written against the public API: the property tests assert the router
//! delivers exactly the event sequences and counters it does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use jamm_core::channel::{bounded, Sender};
use jamm_core::flow::DeliveryCounters;
use jamm_core::intern::Sym;
use jamm_core::query::Plan;
use jamm_core::sync::{Mutex, RwLock};
use jamm_ulm::keys::jamm::SUB_DELIVER;
use jamm_ulm::SharedEvent;

use crate::gateway::{DeliveryReport, Subscription};
use crate::qos::{self, QosRuntime, Tier, TierRow, TierState};
use crate::summary::SeriesKey;

/// Where a subscription is registered in the routing table.
#[derive(Debug, Clone)]
enum RouteKeys {
    /// No type constraint: present in the wildcard list.
    Wildcard,
    /// Constrained to these event types (the plan's routed types,
    /// interned): present only in those types' buckets.  An empty list
    /// (an empty `EventTypes`, or a disjoint intersection) registers the
    /// subscription in no bucket — exactly what its plan would deliver.
    Types(Vec<Sym>),
}

/// One live subscription as the router sees it.
///
/// Shared (`Arc`) between the routing snapshots that reference it and the
/// router's own registry.  The compiled plan carries its own (Sym-keyed,
/// mutex-guarded) per-series memory for stateful predicates, so parallel
/// publishers evaluate the same wildcard subscription concurrently
/// through `&Plan` with no outer lock.
pub(crate) struct RouteEntry {
    id: u64,
    consumer: String,
    plan: Plan,
    routes: RouteKeys,
    tx: Sender<SharedEvent>,
    counters: Arc<DeliveryCounters>,
    /// Set once the consumer side is observed gone; the entry is skipped
    /// thereafter and physically removed by the next garbage collection.
    closed: AtomicBool,
    /// Current delivery tier as a `Tier` discriminant, read on the hot
    /// path with one relaxed load; written by the re-tier pass.
    tier: AtomicU8,
    /// The tier classifier's EWMA state, touched only on the cold
    /// re-tier cadence.
    qos_state: Mutex<TierState>,
}

/// What delivering one event to one subscription did.
enum Delivery {
    /// Pushed into the queue; `true` when an older event was evicted.
    Sent { evicted: bool },
    /// Shed by the QoS gate before it reached the queue.
    Dropped,
    /// The plan did not pass the event.
    Filtered,
    /// The consumer is gone; the entry was marked closed.
    Closed,
}

impl RouteEntry {
    fn new(
        id: u64,
        consumer: String,
        plan: Plan,
        tx: Sender<SharedEvent>,
        counters: Arc<DeliveryCounters>,
    ) -> Self {
        // The compiled plan already interned the routed types; registering
        // the subscription is a copy of the Sym slice, no re-hashing.
        let routes = match plan.routed_types() {
            Some(types) => RouteKeys::Types(types.to_vec()),
            None => RouteKeys::Wildcard,
        };
        RouteEntry {
            id,
            consumer,
            plan,
            routes,
            tx,
            counters,
            closed: AtomicBool::new(false),
            tier: AtomicU8::new(Tier::Fast as u8),
            qos_state: Mutex::new(TierState::default()),
        }
    }

    /// The tier the re-tier pass last assigned.
    fn current_tier(&self) -> Tier {
        Tier::from_u8(self.tier.load(Ordering::Relaxed))
    }

    /// QoS admission check, run after the plan accepts the
    /// event: returns `true` when the delivery must be dropped before
    /// queueing — shed under declared overload, or rejected by the
    /// tier's reduced queue budget.  Protected streams (`_jamm`
    /// self-lifelines, summary events) always pass.  `extra_queued`
    /// accounts for deliveries already buffered for this entry in the
    /// current batch but not yet in the queue.
    fn qos_gate(&self, event: &SharedEvent, q: &QosRuntime, extra_queued: usize) -> bool {
        if qos::protected(event) {
            return false;
        }
        let tier = self.current_tier();
        if q.shed_level().sheds(tier) {
            q.stats.record_shed(tier);
            self.counters.record_dropped(1);
            return true;
        }
        if tier != Tier::Fast {
            if let Some(cap) = self.tx.capacity() {
                let budget = ((cap as f64) * q.budget(tier)) as usize;
                if budget < cap && self.tx.len() + extra_queued >= budget.max(1) {
                    q.stats.record_budget_drop(tier);
                    self.counters.record_dropped(1);
                    return true;
                }
            }
        }
        false
    }

    /// Whether the plan passes `event`, whose interned identity is `key`.
    fn accepts(&self, event: &SharedEvent, (host, ty): SeriesKey) -> bool {
        self.plan.eval_interned(&**event, Some(host), Some(ty))
    }

    /// Evaluate the plan and push one event.  Takes the event by value:
    /// queuing it is a move of the `Arc`, never a copy of the event — the
    /// caller bumps the refcount for all but its last delivery, so a
    /// single-subscriber fan-out moves the published `Arc` straight into
    /// the queue.
    fn deliver(
        &self,
        event: SharedEvent,
        key: SeriesKey,
        size: u64,
        qos: Option<&QosRuntime>,
    ) -> Delivery {
        if self.closed.load(Ordering::Relaxed) {
            return Delivery::Closed;
        }
        if !self.accepts(&event, key) {
            return Delivery::Filtered;
        }
        if let Some(q) = qos {
            if self.qos_gate(&event, q, 0) {
                return Delivery::Dropped;
            }
        }
        match self.tx.send(event) {
            Ok(evicted) => {
                if evicted {
                    self.counters.record_dropped(1);
                }
                self.counters.record_delivered(size);
                Delivery::Sent { evicted }
            }
            Err(_) => {
                self.closed.store(true, Ordering::Relaxed);
                Delivery::Closed
            }
        }
    }
}

/// An immutable routing snapshot.
#[derive(Default)]
struct RouteTable {
    /// Subscriptions constrained to an event type, keyed by the interned
    /// type: the per-publish lookup hashes a `u32`, not the event-type
    /// string.
    by_type: HashMap<Sym, Vec<Arc<RouteEntry>>>,
    /// Subscriptions with no type constraint.
    wildcard: Vec<Arc<RouteEntry>>,
}

impl RouteTable {
    /// The table of every live entry in `entries`, in registry order.
    fn build(entries: &[Arc<RouteEntry>]) -> Self {
        let mut table = RouteTable::default();
        for entry in entries {
            if entry.closed.load(Ordering::Relaxed) {
                continue;
            }
            match &entry.routes {
                RouteKeys::Wildcard => table.wildcard.push(Arc::clone(entry)),
                RouteKeys::Types(types) => {
                    for t in types {
                        table.by_type.entry(*t).or_default().push(Arc::clone(entry));
                    }
                }
            }
        }
        table
    }
}

/// Aggregate result of routing one event (or one batch).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteOutcome {
    /// Event copies pushed into subscription queues.
    pub delivered: u64,
    /// Event copies dropped on full queues (including evictions).
    pub dropped: u64,
    /// Approximate payload bytes delivered.
    pub bytes: u64,
}

/// The event-type-indexed routing table.
pub(crate) struct Router {
    table: RwLock<Arc<RouteTable>>,
    /// Registry of every live entry in subscription order — the source of
    /// truth the snapshot is rebuilt from on the cold path.
    entries: Mutex<Vec<Arc<RouteEntry>>>,
    /// Self-lifeline tracer: watched events emit a
    /// [`jamm_ulm::keys::jamm::SUB_DELIVER`] point per subscription queue
    /// they are pushed into.
    tracer: Option<Arc<crate::trace::PipelineTracer>>,
    /// The QoS plane, when the gateway was opened with one: deliveries
    /// pass the shed/budget gate and the re-tier pass runs here.
    qos: Option<Arc<QosRuntime>>,
}

impl Router {
    pub(crate) fn new(
        tracer: Option<Arc<crate::trace::PipelineTracer>>,
        qos: Option<Arc<QosRuntime>>,
    ) -> Self {
        Router {
            table: RwLock::new(Arc::new(RouteTable::default())),
            entries: Mutex::new(Vec::new()),
            tracer,
            qos,
        }
    }

    /// Rebuild the snapshot from the registry and swap it in.  Caller
    /// holds the registry lock, so rebuilds are serialized.
    fn rebuild(&self, entries: &[Arc<RouteEntry>]) {
        *self.table.write() = Arc::new(RouteTable::build(entries));
    }

    /// Register a new subscription, returning the consumer-side handle.
    pub(crate) fn insert(
        &self,
        id: u64,
        consumer: String,
        plan: Plan,
        capacity: usize,
    ) -> Subscription {
        let (tx, rx) = bounded(capacity);
        let counters = Arc::new(DeliveryCounters::new());
        let entry = Arc::new(RouteEntry::new(
            id,
            consumer,
            plan,
            tx,
            Arc::clone(&counters),
        ));
        let mut entries = self.entries.lock();
        entries.push(entry);
        self.rebuild(&entries);
        Subscription::from_parts(id, rx, counters)
    }

    /// Remove a subscription by id.  Returns whether it existed.
    ///
    /// Removal is cutoff-eventual, not immediate: a publish racing this
    /// call may hold an older snapshot (or have already buffered a
    /// batch) and still deliver into the subscription's queue after this
    /// returns.  The old flat list serialized publish and unsubscribe on
    /// one mutex and so gave a hard cutoff — the snapshot table trades
    /// that for a lock-free publish path.  Dropping the `Subscription`
    /// (its receiver) is the hard cutoff: every subsequent send fails.
    pub(crate) fn remove(&self, id: u64) -> bool {
        let mut entries = self.entries.lock();
        let Some(pos) = entries.iter().position(|e| e.id == id) else {
            return false;
        };
        let entry = entries.remove(pos);
        entry.closed.store(true, Ordering::Relaxed);
        self.rebuild(&entries);
        true
    }

    /// Drop every entry marked closed (dead consumers observed during
    /// delivery) and rebuild the snapshot without them.
    fn gc(&self) {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|e| !e.closed.load(Ordering::Relaxed));
        if entries.len() != before {
            self.rebuild(&entries);
        }
    }

    /// Live subscriptions.
    pub(crate) fn live_count(&self) -> usize {
        self.entries.lock().len()
    }

    /// Per-subscription accounting rows, in subscription order.
    pub(crate) fn delivery_report(&self) -> Vec<DeliveryReport> {
        self.entries
            .lock()
            .iter()
            .map(|e| DeliveryReport {
                id: e.id,
                consumer: e.consumer.clone(),
                delivered: e.counters.delivered(),
                dropped: e.counters.dropped(),
                bytes: e.counters.bytes(),
                tier: e.current_tier(),
            })
            .collect()
    }

    /// Current tier assignment rows, without advancing the classifier.
    pub(crate) fn tier_rows(&self) -> Vec<TierRow> {
        self.entries
            .lock()
            .iter()
            .filter(|e| !e.closed.load(Ordering::Relaxed))
            .map(|e| TierRow {
                id: e.id,
                consumer: e.consumer.clone(),
                tier: e.current_tier(),
                score: e.qos_state.lock().score,
                queue_len: e.tx.len(),
                capacity: e.tx.capacity().unwrap_or(0),
            })
            .collect()
    }

    /// One re-tier pass: fold each subscription's queue fill and
    /// interval drop ratio into its EWMA, re-classify with hysteresis,
    /// and publish the new tier for the hot path's relaxed load.
    /// Returns the new rows plus the aggregate queue-fill fraction (the
    /// overload machine's internal pressure input).
    pub(crate) fn retier(&self, q: &QosRuntime) -> (Vec<TierRow>, f64) {
        let entries = self.entries.lock();
        let mut rows = Vec::with_capacity(entries.len());
        let mut queued_total = 0usize;
        let mut cap_total = 0usize;
        for e in entries.iter() {
            if e.closed.load(Ordering::Relaxed) {
                continue;
            }
            let queue_len = e.tx.len();
            let capacity = e.tx.capacity().unwrap_or(0);
            let delivered = e.counters.delivered();
            let dropped = e.counters.dropped();
            let mut st = e.qos_state.lock();
            let d_del = delivered.saturating_sub(st.last_delivered);
            let d_drop = dropped.saturating_sub(st.last_dropped);
            st.last_delivered = delivered;
            st.last_dropped = dropped;
            let fill = if capacity > 0 {
                queue_len as f64 / capacity as f64
            } else {
                0.0
            };
            let drop_ratio = if d_del + d_drop > 0 {
                d_drop as f64 / (d_del + d_drop) as f64
            } else {
                0.0
            };
            let tier = st.observe(fill.max(drop_ratio), &q.config.tiers);
            e.tier.store(tier as u8, Ordering::Relaxed);
            queued_total += queue_len;
            cap_total += capacity;
            rows.push(TierRow {
                id: e.id,
                consumer: e.consumer.clone(),
                tier,
                score: st.score,
                queue_len,
                capacity,
            });
        }
        q.stats.record_retier();
        let fill = if cap_total > 0 {
            queued_total as f64 / cap_total as f64
        } else {
            0.0
        };
        (rows, fill)
    }

    /// Route a batch — the router's one entry; a single event is a batch
    /// of one.  Each event is offered to its type's bucket plus the
    /// wildcard list, against one table snapshot taken per call and with
    /// no lock held.  Filters (and the QoS gate) are evaluated per
    /// subscription **in publish order**, so stateful predicates behave
    /// exactly as under one-by-one routing, but accepted events are
    /// buffered per subscription — an `Arc` refcount bump each, never a
    /// copy — and flushed with one queue operation per subscription, in
    /// first-match order.
    ///
    /// A batch of one has no queue operation to amortise, so it skips the
    /// buffers and pushes straight into each queue; the arm is chosen by the
    /// batch length, here only, and both make the same deliveries in order.
    ///
    /// `keys[i]` is `events[i]`'s interned (host, type), resolved once by
    /// the gateway: the type bucket is found by it and every candidate's
    /// plan is given it, so routing hashes no string.
    pub(crate) fn route(&self, events: &[SharedEvent], keys: &[SeriesKey]) -> RouteOutcome {
        debug_assert_eq!(events.len(), keys.len());
        let qos = self.qos.as_deref();
        let table = self.table.read().clone();
        let mut out = RouteOutcome::default();
        let mut saw_closed = false;
        if let ([event], &[key]) = (events, keys) {
            let size = event.approx_size() as u64;
            // One watched-ring scan per event, not one per candidate.
            let tracer = self.tracer.as_deref();
            let traced = tracer.and_then(|t| Some((t, t.trace_id(event)?)));
            let typed = table.by_type.get(&key.1);
            for entry in typed.into_iter().flatten().chain(table.wildcard.iter()) {
                match entry.deliver(SharedEvent::clone(event), key, size, qos) {
                    Delivery::Sent { evicted } => {
                        if let Some((tracer, id)) = traced {
                            tracer.stage_id(id, SUB_DELIVER, &entry.consumer);
                        }
                        out.delivered += 1;
                        out.bytes += size;
                        out.dropped += u64::from(evicted);
                    }
                    Delivery::Dropped => out.dropped += 1,
                    Delivery::Filtered => {}
                    Delivery::Closed => saw_closed = true,
                }
            }
            if saw_closed {
                self.gc();
            }
            return out;
        }
        // Per touched subscription: one buffer, found again by
        // subscription id.  Taken, not borrowed, so a publish nested in
        // this one would find the slot empty and use buffers of its own.
        let mut scratch = ROUTE_SCRATCH.take().unwrap_or_default();
        let RouteScratch { pending, slot_of } = &mut scratch;
        let mut used = 0;
        for (event, &key) in events.iter().zip(keys) {
            let size = event.approx_size() as u64;
            let typed = table.by_type.get(&key.1);
            for entry in typed.into_iter().flatten().chain(table.wildcard.iter()) {
                if entry.closed.load(Ordering::Relaxed) {
                    saw_closed = true;
                    continue;
                }
                if !entry.accepts(event, key) {
                    continue;
                }
                let slot = *slot_of.entry(entry.id).or_insert_with(|| {
                    if used == pending.len() {
                        pending.push(Pending::default());
                    }
                    pending[used].entry = Some(Arc::clone(entry));
                    used += 1;
                    used - 1
                });
                let buf = &mut pending[slot];
                if qos.is_some_and(|q| entry.qos_gate(event, q, buf.events.len())) {
                    out.dropped += 1;
                    continue;
                }
                buf.events.push(SharedEvent::clone(event));
                buf.bytes += size;
            }
        }
        for buf in &mut pending[..used] {
            let Some(entry) = buf.entry.take() else {
                continue;
            };
            let (events, bytes) = (&mut buf.events, std::mem::take(&mut buf.bytes));
            // (tracer, correlation id) of watched events, resolved before
            // the send moves the `Arc`s away.
            let watched = |event| {
                let tracer = self.tracer.as_ref()?;
                Some((tracer, tracer.trace_id(event)?))
            };
            let traced: Vec<_> = events.iter().filter_map(watched).collect();
            // One queue operation: every buffered event is queued, and the
            // queue evicts its oldest to stay within its bound.
            let sent = events.len() as u64;
            match entry.tx.send_batch(events) {
                Ok(evicted) => {
                    for (tracer, id) in &traced {
                        tracer.stage_id(*id, SUB_DELIVER, &entry.consumer);
                    }
                    let dropped = evicted as u64;
                    entry.counters.record_delivered_n(sent, bytes);
                    if dropped > 0 {
                        entry.counters.record_dropped(dropped);
                    }
                    out.delivered += sent;
                    out.bytes += bytes;
                    out.dropped += dropped;
                }
                Err(_) => {
                    entry.closed.store(true, Ordering::Relaxed);
                    saw_closed = true;
                }
            }
            events.clear();
        }
        slot_of.clear();
        let handles: usize = pending.iter().map(|p| p.events.capacity()).sum();
        if pending.len() <= KEPT_PENDING && handles <= KEPT_HANDLES {
            ROUTE_SCRATCH.set(Some(scratch));
        }
        if saw_closed {
            self.gc();
        }
        out
    }
}

/// Most event handles a publishing thread keeps room for between batches,
/// summed over its buffers (128 KiB); a batch that leaves more behind
/// frees them all.
const KEPT_HANDLES: usize = 16 * 1024;
/// Most per-subscription buffers a publishing thread keeps.
const KEPT_PENDING: usize = 256;

thread_local! {
    /// The batch arm's buffers, kept by the publishing thread between
    /// publishes: routing a batch allocates only when it touches more
    /// subscriptions, or buffers more events for one, than any batch this
    /// thread routed before.
    static ROUTE_SCRATCH: std::cell::Cell<Option<RouteScratch>> = const { std::cell::Cell::new(None) };
}

/// The batch arm's reusable buffers: the first `used` of `pending` serve
/// one `route` call, `slot_of` maps a subscription id to its buffer.
#[derive(Default)]
struct RouteScratch {
    pending: Vec<Pending>,
    slot_of: HashMap<u64, usize>,
}

/// What one `route` call has buffered for one subscription.
#[derive(Default)]
struct Pending {
    /// The subscription, held only while a call fills the buffer.
    entry: Option<Arc<RouteEntry>>,
    /// Accepted events in publish order, flushed with one queue operation.
    events: Vec<SharedEvent>,
    /// Running payload size of `events`.
    bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::query::Predicate;
    use jamm_ulm::{Event, Timestamp};

    /// The current snapshot as subscription ids: each type bucket (sorted
    /// by type name) and the wildcard list.
    type Placement = (Vec<(&'static str, Vec<u64>)>, Vec<u64>);

    fn placement(router: &Router) -> Placement {
        let table = router.table.read().clone();
        let ids = |entries: &[Arc<RouteEntry>]| entries.iter().map(|e| e.id).collect();
        let mut typed: Vec<_> = table
            .by_type
            .iter()
            .map(|(ty, entries)| (ty.as_str(), ids(entries)))
            .collect();
        typed.sort();
        (typed, ids(&table.wildcard))
    }

    #[test]
    fn entries_sit_only_in_the_buckets_their_plan_routes() {
        let router = Router::new(None, None);
        let open = |id, filter: Predicate| {
            let plan = filter.compile();
            router.insert(id, "c".into(), plan, 16)
        };
        let cpu = open(1, Predicate::types(["CPU_TOTAL"]));
        let _both = open(2, Predicate::types(["CPU_TOTAL", "MEM_FREE"]));
        let _all = open(3, Predicate::everything());
        let _none = open(4, Predicate::EventTypes(vec![]));
        let by_type = vec![("CPU_TOTAL", vec![1, 2]), ("MEM_FREE", vec![2])];
        assert_eq!(placement(&router), (by_type, vec![3]));

        assert!(router.remove(2));
        assert!(!router.remove(2), "already gone");
        assert_eq!(placement(&router), (vec![("CPU_TOTAL", vec![1])], vec![3]));

        // A dropped receiver is noticed by the next publish, which
        // collects the entry out of the table.
        drop(cpu);
        let event = Event::builder("vmstat", "h")
            .event_type("CPU_TOTAL")
            .timestamp(Timestamp::from_secs(1))
            .value(1.0)
            .build();
        let key = (Sym::intern(&event.host), Sym::intern(&event.event_type));
        router.route(&[SharedEvent::new(event)], &[key]);
        assert_eq!(placement(&router), (vec![], vec![3]));
        assert_eq!(
            router.live_count(),
            2,
            "the wildcard and the empty-type entry"
        );
    }

    /// The batch arm's buffers outlive a publish only while they hold room
    /// for at most `KEPT_HANDLES` events in all.
    #[test]
    fn a_publishing_thread_keeps_only_bounded_buffers() {
        let router = Router::new(None, None);
        let plan = Predicate::everything().compile();
        let _rx = router.insert(1, "c".into(), plan, 16);
        let event = Event::builder("vmstat", "h")
            .event_type("CPU_TOTAL")
            .timestamp(Timestamp::from_secs(1))
            .value(1.0)
            .build();
        let key = (Sym::intern(&event.host), Sym::intern(&event.event_type));
        let (event, kept) = (SharedEvent::new(event), || {
            let scratch = ROUTE_SCRATCH.take();
            let kept = scratch.is_some();
            ROUTE_SCRATCH.set(scratch);
            kept
        });
        let route = |n| router.route(&vec![event.clone(); n], &vec![key; n]);
        assert_eq!(route(3).delivered, 3);
        assert!(kept(), "a small batch's buffers are kept");
        assert_eq!(route(KEPT_HANDLES + 1).delivered, KEPT_HANDLES as u64 + 1);
        assert!(!kept(), "a burst's buffers are freed");
        route(3);
        assert!(kept());
    }
}
