//! The sharded fan-out engine behind [`crate::EventGateway`].
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
//!   constraint sit in the per-shard wildcard list;
//! * the table is split across [`GATEWAY_SHARDS`] **shards** by a hash of
//!   the event type, so two publisher threads carrying different event
//!   types touch different shards;
//! * each shard's table is an immutable [`Arc`] snapshot behind a
//!   reader/writer lock.  Publishing clones the `Arc` (a refcount bump
//!   under a briefly-held read lock) and fans out **without any lock
//!   held**; subscribing, unsubscribing and dead-consumer collection
//!   rebuild the snapshot and swap the `Arc` on the cold path;
//! * delivery into a subscription's bounded queue goes through the batch
//!   send primitives of `jamm_core::channel` when events are published in
//!   batches, so a burst costs one queue-lock acquisition per subscription
//!   instead of one per event.
//!
//! The flat list lives on only as the oracle in `tests/prop_gateway.rs`,
//! written against the public API: the property tests assert the sharded
//! router delivers exactly the event sequences and counters it does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use jamm_core::channel::{bounded, Sender, TrySendError};
use jamm_core::flow::{DeliveryCounters, OverflowPolicy};
use jamm_core::intern::Sym;
use jamm_core::query::Plan;
use jamm_core::sync::{Mutex, RwLock};
use jamm_ulm::keys::jamm::SUB_DELIVER;
use jamm_ulm::SharedEvent;

use crate::gateway::{DeliveryReport, Subscription};
use crate::qos::{self, QosRuntime, Tier, TierRow, TierState};

/// Number of routing (and summary) shards every gateway runs with.
pub const GATEWAY_SHARDS: usize = 8;

/// Where a subscription is registered in the routing table.
#[derive(Debug, Clone)]
enum RouteKeys {
    /// No type constraint: present in every shard's wildcard list.
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
    overflow: OverflowPolicy,
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
    /// Rejected by the subscription's drop-newest bound.
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
        overflow: OverflowPolicy,
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
            overflow,
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

    /// Evaluate the plan and push one event.  Takes the event by value:
    /// queuing it is a move of the `Arc`, never a copy of the event — the
    /// caller bumps the refcount for all but its last delivery, so a
    /// single-subscriber fan-out moves the published `Arc` straight into
    /// the queue.
    fn deliver(&self, event: SharedEvent, size: u64, qos: Option<&QosRuntime>) -> Delivery {
        if self.closed.load(Ordering::Relaxed) {
            return Delivery::Closed;
        }
        if !self.plan.eval(&*event) {
            return Delivery::Filtered;
        }
        if let Some(q) = qos {
            if self.qos_gate(&event, q, 0) {
                return Delivery::Dropped;
            }
        }
        match self.overflow {
            OverflowPolicy::DropOldest => match self.tx.send_overwriting(event) {
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
            },
            OverflowPolicy::DropNewest => match self.tx.try_send(event) {
                Ok(()) => {
                    self.counters.record_delivered(size);
                    Delivery::Sent { evicted: false }
                }
                Err(TrySendError::Full(_)) => {
                    self.counters.record_dropped(1);
                    Delivery::Dropped
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.closed.store(true, Ordering::Relaxed);
                    Delivery::Closed
                }
            },
        }
    }
}

/// An immutable routing snapshot for one shard.
#[derive(Default)]
struct ShardTable {
    /// Subscriptions constrained to an event type owned by this shard,
    /// keyed by the interned type: the per-publish lookup hashes a `u32`,
    /// not the event-type string.
    by_type: HashMap<Sym, Vec<Arc<RouteEntry>>>,
    /// Subscriptions with no type constraint (present in every shard).
    wildcard: Vec<Arc<RouteEntry>>,
}

impl ShardTable {
    /// Distinct live subscriptions this shard can deliver to.
    fn subscription_count(&self) -> usize {
        let mut ids: Vec<u64> = self
            .by_type
            .values()
            .flatten()
            .chain(self.wildcard.iter())
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Per-shard monotonic delivery counters, readable without any lock.
#[derive(Debug, Default)]
struct ShardStats {
    events_in: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    bytes: AtomicU64,
}

impl ShardStats {
    /// Fold in one call's outcome for this shard (not one RMW per delivery).
    fn add(&self, out: &RouteOutcome) {
        if *out != RouteOutcome::default() {
            self.delivered.fetch_add(out.delivered, Ordering::Relaxed);
            self.bytes.fetch_add(out.bytes, Ordering::Relaxed);
            self.dropped.fetch_add(out.dropped, Ordering::Relaxed);
        }
    }
}

/// One row of [`crate::EventGateway::shard_report`]: what one routing shard
/// has seen and done since the gateway started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index, `0..GATEWAY_SHARDS`.
    pub shard: usize,
    /// Distinct subscriptions currently routable in this shard.
    pub subscriptions: usize,
    /// Events routed into this shard (each event hits exactly one shard).
    pub events_in: u64,
    /// Event copies delivered to subscriptions from this shard.
    pub delivered: u64,
    /// Event copies dropped (queue overflow) from this shard.
    pub dropped: u64,
    /// Approximate payload bytes delivered from this shard.
    pub bytes: u64,
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

struct Shard {
    table: RwLock<Arc<ShardTable>>,
    stats: ShardStats,
}

/// The event-type-indexed, sharded routing table.
pub(crate) struct ShardedRouter {
    shards: Vec<Shard>,
    /// Registry of every live entry in subscription order — the source of
    /// truth the per-shard snapshots are rebuilt from on the cold path.
    entries: Mutex<Vec<Arc<RouteEntry>>>,
    /// Self-lifeline tracer: watched events emit a
    /// [`jamm_ulm::keys::jamm::SUB_DELIVER`] point per subscription queue
    /// they are pushed into.
    tracer: Option<Arc<crate::trace::PipelineTracer>>,
    /// The QoS plane, when the gateway was opened with one: deliveries
    /// pass the shed/budget gate and the re-tier pass runs here.
    qos: Option<Arc<QosRuntime>>,
}

impl ShardedRouter {
    pub(crate) fn new(
        tracer: Option<Arc<crate::trace::PipelineTracer>>,
        qos: Option<Arc<QosRuntime>>,
    ) -> Self {
        ShardedRouter {
            shards: (0..GATEWAY_SHARDS)
                .map(|_| Shard {
                    table: RwLock::new(Arc::new(ShardTable::default())),
                    stats: ShardStats::default(),
                })
                .collect(),
            entries: Mutex::new(Vec::new()),
            tracer,
            qos,
        }
    }

    /// The shard that owns an interned event type: pure integer
    /// arithmetic, no string hashing.
    fn shard_of_sym(&self, ty: Sym) -> usize {
        (crate::hash::mix64(ty.index() as u64) % self.shards.len() as u64) as usize
    }

    /// Shards an entry is registered in.
    fn shards_of_entry(&self, entry: &RouteEntry) -> Vec<usize> {
        match &entry.routes {
            RouteKeys::Wildcard => (0..self.shards.len()).collect(),
            RouteKeys::Types(types) => {
                let mut idxs: Vec<usize> = types.iter().map(|t| self.shard_of_sym(*t)).collect();
                idxs.sort_unstable();
                idxs.dedup();
                idxs
            }
        }
    }

    /// Rebuild one shard's snapshot from the registry and swap it in.
    /// Caller holds the registry lock, so rebuilds are serialized.
    fn rebuild_shard(&self, idx: usize, entries: &[Arc<RouteEntry>]) {
        let mut table = ShardTable::default();
        for entry in entries {
            if entry.closed.load(Ordering::Relaxed) {
                continue;
            }
            match &entry.routes {
                RouteKeys::Wildcard => table.wildcard.push(Arc::clone(entry)),
                RouteKeys::Types(types) => {
                    for t in types {
                        if self.shard_of_sym(*t) == idx {
                            table.by_type.entry(*t).or_default().push(Arc::clone(entry));
                        }
                    }
                }
            }
        }
        *self.shards[idx].table.write() = Arc::new(table);
    }

    /// Register a new subscription, returning the consumer-side handle.
    pub(crate) fn insert(
        &self,
        id: u64,
        consumer: String,
        plan: Plan,
        capacity: usize,
        overflow: OverflowPolicy,
    ) -> Subscription {
        let (tx, rx) = bounded(capacity);
        let counters = Arc::new(DeliveryCounters::new());
        let entry = Arc::new(RouteEntry::new(
            id,
            consumer,
            plan,
            tx,
            overflow,
            Arc::clone(&counters),
        ));
        let mut entries = self.entries.lock();
        let affected = self.shards_of_entry(&entry);
        entries.push(entry);
        for idx in affected {
            self.rebuild_shard(idx, &entries);
        }
        Subscription::from_parts(id, rx, counters)
    }

    /// Remove a subscription by id.  Returns whether it existed.
    ///
    /// Removal is cutoff-eventual, not immediate: a publish racing this
    /// call may hold an older shard snapshot (or have already buffered a
    /// batch) and still deliver into the subscription's queue after this
    /// returns.  The old flat list serialized publish and unsubscribe on
    /// one mutex and so gave a hard cutoff — the sharded engine trades
    /// that for a lock-free publish path.  Dropping the `Subscription`
    /// (its receiver) is the hard cutoff: every subsequent send fails.
    pub(crate) fn remove(&self, id: u64) -> bool {
        let mut entries = self.entries.lock();
        let Some(pos) = entries.iter().position(|e| e.id == id) else {
            return false;
        };
        let entry = entries.remove(pos);
        entry.closed.store(true, Ordering::Relaxed);
        for idx in self.shards_of_entry(&entry) {
            self.rebuild_shard(idx, &entries);
        }
        true
    }

    /// Drop every entry marked closed (dead consumers observed during
    /// delivery) and rebuild the shards they were registered in.
    fn gc(&self) {
        let mut entries = self.entries.lock();
        let mut affected: Vec<usize> = Vec::new();
        entries.retain(|e| {
            if e.closed.load(Ordering::Relaxed) {
                affected.extend(self.shards_of_entry(e));
                false
            } else {
                true
            }
        });
        affected.sort_unstable();
        affected.dedup();
        for idx in affected {
            self.rebuild_shard(idx, &entries);
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

    /// Per-shard accounting rows.
    pub(crate) fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let table = s.table.read().clone();
                ShardReport {
                    shard: i,
                    subscriptions: table.subscription_count(),
                    events_in: s.stats.events_in.load(Ordering::Relaxed),
                    delivered: s.stats.delivered.load(Ordering::Relaxed),
                    dropped: s.stats.dropped.load(Ordering::Relaxed),
                    bytes: s.stats.bytes.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Route a batch — the router's one entry; a single event is a batch
    /// of one.  Each event is offered to its shard's type bucket plus the
    /// wildcard list, against table snapshots taken once per call and with
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
    pub(crate) fn route(&self, events: &[SharedEvent]) -> RouteOutcome {
        let qos = self.qos.as_deref();
        let mut out = RouteOutcome::default();
        let mut saw_closed = false;
        if let [event] = events {
            let size = event.approx_size() as u64;
            let ty = Sym::intern(&event.event_type);
            let shard = &self.shards[self.shard_of_sym(ty)];
            shard.stats.events_in.fetch_add(1, Ordering::Relaxed);
            let table = shard.table.read().clone();
            // One watched-ring scan per event, not one per candidate.
            let tracer = self.tracer.as_deref();
            let traced = tracer.and_then(|t| Some((t, t.trace_id(event)?)));
            let typed = table.by_type.get(&ty);
            for entry in typed.into_iter().flatten().chain(table.wildcard.iter()) {
                match entry.deliver(SharedEvent::clone(event), size, qos) {
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
            shard.stats.add(&out);
            if saw_closed {
                self.gc();
            }
            return out;
        }
        // Per shard: its table snapshot (taken on first touch) and its
        // counter movements (flushed once at the end).  Per touched
        // subscription: one buffer, found again by subscription id.
        let mut snapshots: Vec<Option<Arc<ShardTable>>> = vec![None; self.shards.len()];
        let mut deltas = vec![RouteOutcome::default(); self.shards.len()];
        let mut pending: Vec<Pending> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for event in events {
            let size = event.approx_size() as u64;
            let ty = Sym::intern(&event.event_type);
            let idx = self.shard_of_sym(ty);
            let ingest = &self.shards[idx].stats.events_in;
            ingest.fetch_add(1, Ordering::Relaxed);
            // Borrow the cached snapshot in place — no per-event Arc
            // refcount round-trip on the table itself.
            let table = snapshots[idx].get_or_insert_with(|| self.shards[idx].table.read().clone());
            let typed = table.by_type.get(&ty);
            for entry in typed.into_iter().flatten().chain(table.wildcard.iter()) {
                if entry.closed.load(Ordering::Relaxed) {
                    saw_closed = true;
                    continue;
                }
                if !entry.plan.eval(&**event) {
                    continue;
                }
                let slot = *slot_of.entry(entry.id).or_insert_with(|| {
                    let (entry, events) = (Arc::clone(entry), Vec::new());
                    pending.push(Pending {
                        entry,
                        events,
                        bytes: 0,
                        shard: idx,
                    });
                    pending.len() - 1
                });
                let buf = &mut pending[slot];
                if qos.is_some_and(|q| entry.qos_gate(event, q, buf.events.len())) {
                    out.dropped += 1;
                    deltas[idx].dropped += 1;
                    continue;
                }
                // Counted delivered to the event's shard now; the
                // flush takes back whatever the queue does not accept.
                buf.events.push(SharedEvent::clone(event));
                buf.bytes += size;
                deltas[idx].delivered += 1;
                deltas[idx].bytes += size;
            }
        }
        for buf in pending {
            let (entry, mut events, mut bytes) = (buf.entry, buf.events, buf.bytes);
            // (position, tracer, correlation id) of watched events, resolved
            // before the send moves the `Arc`s away.
            let watched = |(pos, event)| {
                let tracer = self.tracer.as_ref()?;
                Some((pos, tracer, tracer.trace_id(event)?))
            };
            let traced: Vec<_> = events.iter().enumerate().filter_map(watched).collect();
            // One queue operation, normalized to (accepted, evicted): a
            // drop-oldest queue accepts everything and evicts, a drop-newest
            // queue accepts a prefix and evicts nothing.
            let buffered = events.len();
            let sent = match entry.overflow {
                OverflowPolicy::DropOldest => {
                    let evicted = entry.tx.send_batch_overwriting(&mut events);
                    evicted.map(|evicted| (buffered, evicted))
                }
                OverflowPolicy::DropNewest => {
                    let accepted = entry.tx.try_send_batch(&mut events);
                    accepted.map(|accepted| (accepted, 0))
                }
            };
            // Whatever is still buffered was not queued — a drop-newest
            // queue's rejected tail, or the whole batch of a consumer that
            // is gone: take it back from its shard.
            for event in events {
                let size = event.approx_size() as u64;
                let delta = &mut deltas[self.shard_of_sym(Sym::intern(&event.event_type))];
                delta.delivered -= 1;
                delta.bytes -= size;
                delta.dropped += u64::from(sent.is_ok());
                bytes -= size;
            }
            match sent {
                Ok((accepted, evicted)) => {
                    for (_, tracer, id) in traced.iter().filter(|w| w.0 < accepted) {
                        tracer.stage_id(*id, SUB_DELIVER, &entry.consumer);
                    }
                    let dropped = (buffered - accepted + evicted) as u64;
                    entry.counters.record_delivered_n(accepted as u64, bytes);
                    if dropped > 0 {
                        entry.counters.record_dropped(dropped);
                    }
                    out.delivered += accepted as u64;
                    out.bytes += bytes;
                    out.dropped += dropped;
                    // Evicted events may span earlier batches; attribute
                    // them to the shard of the first buffered event.
                    deltas[buf.shard].dropped += evicted as u64;
                }
                Err(_) => {
                    entry.closed.store(true, Ordering::Relaxed);
                    saw_closed = true;
                }
            }
        }
        for (shard, delta) in self.shards.iter().zip(&deltas) {
            shard.stats.add(delta);
        }
        if saw_closed {
            self.gc();
        }
        out
    }
}

/// What one `route` call has buffered for one subscription.
struct Pending {
    entry: Arc<RouteEntry>,
    /// Accepted events in publish order, flushed with one queue operation.
    events: Vec<SharedEvent>,
    /// Running payload size of `events`.
    bytes: u64,
    /// Shard of the first buffered event (where evictions are attributed).
    shard: usize,
}
