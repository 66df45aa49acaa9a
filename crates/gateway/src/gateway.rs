//! The event gateway.
//!
//! The gateway receives every event its host's sensors produce (pushed by
//! the sensor manager through the [`EventSink`] trait) and fans it out to
//! subscribed consumers according to their filters — streaming
//! subscriptions get a **bounded** channel that never makes the publisher
//! wait (a full queue drops its oldest event and counts the drop), query
//! consumers ask for the most recent event on demand.  It also keeps the
//! per-series table behind query mode and the summaries fed, enforces the
//! site's access policy, and counts what it delivers (and drops) per
//! subscription so the scalability experiments can compare "N consumers
//! hitting the sensor host" with "N consumers hitting one gateway" (E7)
//! and measure how much the filters reduce delivered volume (E10).
//!
//! Every publish form is one body, [`EventGateway::publish_shared_batch`]
//! (a single event is a batch of one), and it runs on the fan-out engine
//! in [`crate::routing`]: subscriptions are indexed by event type in one
//! routing table, an immutable snapshot swapped on the cold path, and
//! delivery runs on the publisher's thread.
//!
//! Consumers subscribe with the fluent [`SubscriptionBuilder`]:
//!
//! ```
//! use jamm_core::query::ValueCmp;
//! use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
//!
//! let gw = EventGateway::new(GatewayConfig::open("gw1"));
//! let sub = gw
//!     .subscribe()
//!     .stream()
//!     .filter(Predicate::val(ValueCmp::Gt, 50.0))
//!     .as_consumer("threshold-watcher")
//!     .open()
//!     .unwrap();
//! assert_eq!(sub.delivered(), 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_core::channel::Receiver;
use jamm_core::flow::{DeliveryCounters, EventSink, EventSource, SinkError};
use jamm_core::intern::Sym;
use jamm_ulm::{keys, Event, SharedEvent, Timestamp};

use jamm_auth::acl::{AccessControlList, Action};
use jamm_core::query::{Plan, Predicate};

use crate::qos::{QosConfig, QosRuntime, QosSnapshot, Tier, TierRow};
use crate::routing::Router;
use crate::summary::{SeriesKey, SeriesTable, SummaryWindow};
use crate::{GatewayError, Result};

/// Largest key buffer a publishing thread keeps between batches (256 KiB).
const KEPT_KEYS: usize = 32 * 1024;

thread_local! {
    /// The series keys of the batch this thread is publishing, kept between
    /// publishes: resolving a batch's identities allocates only when the
    /// batch is larger than any this thread published before.
    static BATCH_KEYS: std::cell::Cell<Vec<SeriesKey>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Default bound on a subscription's in-flight event queue.
pub const DEFAULT_SUBSCRIPTION_CAPACITY: usize = 4_096;

/// A live streaming subscription handle returned to the consumer.
///
/// Exposes the shared delivery counters: [`Subscription::delivered`] /
/// [`Subscription::dropped`] / [`Subscription::bytes`] report what the
/// gateway pushed into (or evicted from) this subscription's bounded
/// queue.
#[derive(Debug)]
pub struct Subscription {
    /// Subscription identifier (used to unsubscribe).
    pub id: u64,
    /// Channel on which matching events arrive.  Events are shared
    /// ([`SharedEvent`]): the gateway bumps a refcount per delivery
    /// instead of copying the event per subscriber.
    pub events: Receiver<SharedEvent>,
    counters: Arc<DeliveryCounters>,
}

impl Subscription {
    pub(crate) fn from_parts(
        id: u64,
        events: Receiver<SharedEvent>,
        counters: Arc<DeliveryCounters>,
    ) -> Self {
        Subscription {
            id,
            events,
            counters,
        }
    }

    /// Events the gateway delivered into this subscription's queue.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered()
    }

    /// Events dropped because the consumer fell behind its queue bound.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped()
    }

    /// Approximate ULM payload bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.counters.bytes()
    }

    /// Drain everything currently queued.
    pub fn drain(&mut self) -> Vec<SharedEvent> {
        let mut out = Vec::new();
        self.events.drain_into(&mut out);
        out
    }
}

impl EventSource<SharedEvent> for Subscription {
    fn drain_into(&mut self, out: &mut Vec<SharedEvent>) -> usize {
        self.events.drain_into(out)
    }
}

/// Fluent builder for a streaming subscription, returned by
/// [`EventGateway::subscribe`].
///
/// ```
/// use jamm_core::query::ValueCmp;
/// use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
///
/// let gw = EventGateway::new(GatewayConfig::open("gw1"));
/// let sub = gw
///     .subscribe()
///     .stream()
///     .filter(Predicate::types(["CPU_TOTAL"]))
///     .filter(Predicate::val(ValueCmp::Gt, 50.0))
///     .as_consumer("ops")
///     .capacity(1_024)
///     .open()
///     .unwrap();
/// assert_eq!(gw.subscriber_count(), 1);
/// gw.unsubscribe(sub.id).unwrap();
/// ```
#[must_use = "call .open() to register the subscription"]
#[derive(Debug)]
pub struct SubscriptionBuilder<'gw> {
    gateway: &'gw EventGateway,
    consumer: String,
    predicates: Vec<Predicate>,
    queries: Vec<String>,
    capacity: usize,
}

impl<'gw> SubscriptionBuilder<'gw> {
    /// Request streaming delivery (the builder's default; present so call
    /// sites read like the paper: open an event channel, get a stream).
    pub fn stream(self) -> Self {
        self
    }

    /// Add one query-plane predicate to the conjunction (no filter at
    /// all passes everything).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Filter with a query string in the unified grammar, e.g.
    /// `"(&(type=CPU_TOTAL)(val>50))"` — the same language the archive
    /// and the directory answer.  And-combined with any
    /// [`SubscriptionBuilder::filter`] predicates and with previous
    /// `matching` calls; a malformed query
    /// surfaces as [`crate::GatewayError::BadQuery`] from
    /// [`SubscriptionBuilder::open`].
    pub fn matching(mut self, query: &str) -> Self {
        self.queries.push(query.to_string());
        self
    }

    /// Set the consumer principal the subscription is checked and accounted
    /// against.  Defaults to `"anonymous"`.
    pub fn as_consumer(mut self, consumer: impl Into<String>) -> Self {
        self.consumer = consumer.into();
        self
    }

    /// Bound the in-flight queue (default
    /// [`DEFAULT_SUBSCRIPTION_CAPACITY`]).  A full queue drops its oldest
    /// event to take the new one, counted in [`Subscription::dropped`].
    pub fn capacity(mut self, events: usize) -> Self {
        self.capacity = events.max(1);
        self
    }

    /// Register the subscription with the gateway, returning the live
    /// handle.  Fails if the site policy denies this consumer streaming
    /// access, or if a [`SubscriptionBuilder::matching`] query string does
    /// not parse.
    pub fn open(self) -> Result<Subscription> {
        let mut predicates = self.predicates;
        for query in &self.queries {
            let parsed =
                Predicate::parse(query).map_err(|e| GatewayError::BadQuery(e.to_string()))?;
            predicates.push(parsed);
        }
        let plan = Predicate::And(predicates).compile();
        self.gateway
            .open_subscription(self.consumer, plan, self.capacity)
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Gateway name, used as the `PROG` of summary events and as the ACL
    /// resource prefix.
    pub name: String,
    /// Access policy; `None` means a completely open gateway (the prototype
    /// default in the paper's current-status section).
    pub acl: Option<AccessControlList>,
    /// Self-lifeline tracer: when set, a sampled fraction of published
    /// events is followed through the pipeline with NetLogger-style
    /// trace points (see [`crate::trace::PipelineTracer`]).  The
    /// tracer's own sink gateway must be left untraced.
    pub tracer: Option<Arc<crate::trace::PipelineTracer>>,
    /// Delivery QoS plane (see [`crate::qos`]): when set, subscriptions
    /// are classified into drain-rate tiers with per-tier queue budgets,
    /// and the gateway sheds lowest-tier raw events under declared
    /// overload.
    pub qos: Option<QosConfig>,
}

impl GatewayConfig {
    /// An open gateway with the standard 1/10/60-minute summaries.
    pub fn open(name: impl Into<String>) -> Self {
        GatewayConfig {
            name: name.into(),
            acl: None,
            tracer: None,
            qos: None,
        }
    }

    /// A gateway enforcing the given ACL.
    pub fn with_acl(name: impl Into<String>, acl: AccessControlList) -> Self {
        GatewayConfig {
            acl: Some(acl),
            ..GatewayConfig::open(name)
        }
    }

    /// Attach a self-lifeline tracer (see
    /// [`crate::trace::PipelineTracer`]).
    pub fn with_tracer(mut self, tracer: Arc<crate::trace::PipelineTracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enable the delivery QoS plane (see [`crate::qos`]).
    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = Some(qos);
        self
    }
}

/// Cumulative gateway statistics.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Events published into the gateway by sensor managers.
    pub events_in: AtomicU64,
    /// Event copies delivered to streaming consumers.
    pub events_out: AtomicU64,
    /// Event copies dropped on full subscription queues.
    pub events_dropped: AtomicU64,
    /// Bytes (approximate ULM size) delivered to streaming consumers.
    pub bytes_out: AtomicU64,
    /// Query-mode requests served.
    pub queries: AtomicU64,
    /// Latency distribution of routing (fan-out) per publish call,
    /// microseconds: two clock reads and one histogram add per routed
    /// batch, always on.
    pub route_us: jamm_core::obs::Histogram,
}

/// One row of [`EventGateway::delivery_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Subscription id.
    pub id: u64,
    /// Consumer principal.
    pub consumer: String,
    /// Events delivered into the subscription queue.
    pub delivered: u64,
    /// Events dropped on queue overflow.
    pub dropped: u64,
    /// Approximate payload bytes delivered.
    pub bytes: u64,
    /// Times a delivery woke the consumer asleep on this queue
    /// ([`jamm_core::channel::Sender::wakeups`]).
    pub wakeups: u64,
    /// Current delivery tier (always [`Tier::Fast`] without a QoS plane).
    pub tier: Tier,
}

/// The JAMM event gateway.
pub struct EventGateway {
    config: GatewayConfig,
    router: Router,
    /// What the gateway remembers per (host, event type) series: the
    /// query cache and the summary readings under one key.
    series: SeriesTable,
    stats: Arc<GatewayStats>,
    next_id: AtomicU64,
    /// The QoS plane shared with the router, when configured.
    qos: Option<Arc<QosRuntime>>,
    /// Publishes since the gateway opened, driving the re-tier cadence.
    qos_publishes: AtomicU64,
    /// Continuous queries materialized on the publish path.
    views: crate::views::ViewEngine,
}

impl std::fmt::Debug for EventGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventGateway")
            .field("name", &self.config.name)
            .field("subscribers", &self.router.live_count())
            .finish_non_exhaustive()
    }
}

impl EventGateway {
    /// Create a gateway.
    pub fn new(config: GatewayConfig) -> Self {
        let qos = config.qos.clone().map(|c| Arc::new(QosRuntime::new(c)));
        let router = Router::new(config.tracer.clone(), qos.clone());
        EventGateway {
            series: SeriesTable::default(),
            config,
            router,
            stats: Arc::new(GatewayStats::default()),
            next_id: AtomicU64::new(1),
            qos,
            qos_publishes: AtomicU64::new(0),
            views: crate::views::ViewEngine::new(),
        }
    }

    /// The gateway's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// A shareable handle to the cumulative statistics (for metrics
    /// collectors that outlive a borrow of the gateway).
    pub fn stats_handle(&self) -> Arc<GatewayStats> {
        Arc::clone(&self.stats)
    }

    /// The self-lifeline tracer attached to this gateway, if any.
    pub fn tracer(&self) -> Option<&Arc<crate::trace::PipelineTracer>> {
        self.config.tracer.as_ref()
    }

    fn check(&self, consumer: &str, action: Action) -> Result<()> {
        if let Some(acl) = &self.config.acl {
            acl.check(consumer, &format!("gateway:{}", self.config.name), action)
                .map_err(|e| GatewayError::AccessDenied(e.to_string()))?;
        }
        Ok(())
    }

    /// Start building a streaming subscription.  Query-mode consumers do
    /// not subscribe; they call [`EventGateway::query`].
    pub fn subscribe(&self) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            gateway: self,
            consumer: "anonymous".to_string(),
            predicates: Vec::new(),
            queries: Vec::new(),
            capacity: DEFAULT_SUBSCRIPTION_CAPACITY,
        }
    }

    fn open_subscription(
        &self,
        consumer: String,
        plan: Plan,
        capacity: usize,
    ) -> Result<Subscription> {
        self.check(&consumer, Action::SubscribeStream)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Ok(self.router.insert(id, consumer, plan, capacity))
    }

    /// Cancel a streaming subscription.
    ///
    /// Publishes racing this call may still deliver a final few events
    /// into the subscription's queue after it returns; drop the [`Subscription`]
    /// handle when a hard delivery cutoff is needed — a send to a dropped
    /// receiver always fails.
    pub fn unsubscribe(&self, id: u64) -> Result<()> {
        if self.router.remove(id) {
            Ok(())
        } else {
            Err(GatewayError::NoSuchSubscription(id))
        }
    }

    /// Number of live streaming subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.router.live_count()
    }

    /// Number of (host, event type) series in the per-series table.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Summary slices held over every series: at most 3 × 61 a series.
    pub fn summary_slices(&self) -> usize {
        self.series.slices()
    }

    /// Publish one event into the gateway (called by the sensor manager).
    ///
    /// Copies the event into a fresh [`SharedEvent`] allocation — the one
    /// allocation of its pipeline life; fan-out, summaries, caching and
    /// archiving all share it.  Producers that already hold a
    /// `SharedEvent` should call [`EventGateway::publish_shared`], which
    /// copies nothing at all.  Either way it is a batch of one through
    /// [`EventGateway::publish_shared_batch`], whose guarantees apply.
    pub fn publish(&self, event: &Event) -> usize {
        self.publish_shared(Arc::new(event.clone()))
    }

    /// Publish an already-shared event: the zero-copy entry point.  The
    /// gateway performs no event copy on any path reachable from here —
    /// delivery to N subscribers is N refcount bumps.  A batch of one
    /// through [`EventGateway::publish_shared_batch`].
    pub fn publish_shared(&self, event: SharedEvent) -> usize {
        self.publish_shared_batch(std::slice::from_ref(&event))
    }

    /// Publish a batch of already-shared events: the one body every
    /// publish form runs (a single event is a batch of one).  Each event's
    /// host and type are interned once, into its series key, which the
    /// series table, the views, the router and every subscription's plan
    /// reuse.  The series table (query cache and summaries) folds the
    /// whole batch under one write guard; then the views and the tracer
    /// see each event in order, and the batch is routed — all on the
    /// caller's thread.
    /// Events are shared by refcount throughout — nothing on this path
    /// copies one.
    ///
    /// What callers may rely on:
    ///
    /// * **Filter order.**  Each subscription's filters see its candidate
    ///   events one at a time, in publish order, so stateful predicates
    ///   (on-change, relative change) behave exactly as under one-by-one
    ///   publishing; its queue is then locked once per batch.
    /// * **Queue order.**  A subscription's queue order equals publish
    ///   order, across and within batches.
    /// * **Trace order.**  A watched event's self-lifeline points are
    ///   emitted in the order [`keys::jamm::GW_PUBLISH`] →
    ///   [`keys::jamm::SUB_DELIVER`] (one per queue) →
    ///   [`keys::jamm::GW_ROUTED`].
    /// * **Protected streams.**  `_jamm` self-lifelines and `*_AVG_*`
    ///   summary events pass both QoS gates (overload shedding and the
    ///   per-tier queue budget); only raw events are ever shed.
    /// * **Return value.**  The deliveries made.
    pub fn publish_shared_batch(&self, events: &[SharedEvent]) -> usize {
        if events.is_empty() {
            return 0;
        }
        self.maybe_retier(events.len() as u64);
        let tracer = self.config.tracer.as_ref();
        // Taken, not borrowed, so a publish nested in this one would find
        // the slot empty and use a buffer of its own.
        let mut series_keys = BATCH_KEYS.take();
        series_keys.clear();
        self.stats
            .events_in
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        series_keys.extend(
            events
                .iter()
                .map(|e| (Sym::intern(&e.host), Sym::intern(&e.event_type))),
        );
        self.series.observe_batch(events, &series_keys);
        for (event, &(host, ty)) in events.iter().zip(&series_keys) {
            self.views.observe(host, ty, event);
            if let Some(tracer) = tracer {
                tracer.on_publish(event, &self.config.name);
            }
        }
        let start = std::time::Instant::now();
        let out = self.router.route(events, &series_keys);
        self.stats.route_us.record_micros(start.elapsed());
        if series_keys.capacity() <= KEPT_KEYS {
            BATCH_KEYS.set(series_keys);
        }
        if let Some(tracer) = tracer {
            for event in events {
                tracer.stage(event, keys::jamm::GW_ROUTED, &self.config.name);
            }
        }
        let stats = &self.stats;
        stats.events_out.fetch_add(out.delivered, Ordering::Relaxed);
        stats
            .events_dropped
            .fetch_add(out.dropped, Ordering::Relaxed);
        stats.bytes_out.fetch_add(out.bytes, Ordering::Relaxed);
        out.delivered as usize
    }

    /// Publish a batch of by-value events (each is copied once into its
    /// shared allocation; see [`EventGateway::publish_shared_batch`] for
    /// the zero-copy form and the guarantees).
    pub fn publish_batch(&self, events: &[Event]) -> usize {
        let shared: Vec<SharedEvent> = events.iter().map(|e| Arc::new(e.clone())).collect();
        self.publish_shared_batch(&shared)
    }

    /// Query mode: the most recent event of `event_type` from `host`.
    /// The returned handle shares the cached event — queries do not copy.
    pub fn query(
        &self,
        consumer: &str,
        host: &str,
        event_type: &str,
    ) -> Result<Option<SharedEvent>> {
        self.check(consumer, Action::Query)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        // A series the gateway never saw has no interned identity; asking
        // for it must not grow the intern table.
        let (Some(host), Some(ty)) = (Sym::lookup(host), Sym::lookup(event_type)) else {
            return Ok(None);
        };
        Ok(self.series.latest((host, ty)))
    }

    /// Query mode over the whole cache: every cached latest-event that a
    /// compiled query-plane [`Plan`] accepts, in `(host, type)` order.
    /// This is the gateway's leg of the facade's unified query endpoint —
    /// one plan answers the live cache here, the summaries, and the
    /// archive's historical scan.  Returned handles share the cached
    /// events; nothing is copied.
    pub fn query_matching(&self, consumer: &str, plan: &Plan) -> Result<Vec<SharedEvent>> {
        self.check(consumer, Action::Query)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        Ok(self.series.latest_matching(plan))
    }

    /// Summary data for consumers entitled to summaries only (or anyone who
    /// prefers them): one synthetic event per window for every tracked
    /// series whose host and event type `plan`'s pushdown facts admit
    /// (`Predicate::everything()` admits every series).  Time bounds,
    /// severity floors and value tests describe raw events, not rollups,
    /// and are not applied.
    pub fn summaries(&self, consumer: &str, plan: &Plan, now: Timestamp) -> Result<Vec<Event>> {
        self.check(consumer, Action::Summary)?;
        let windows = SummaryWindow::all();
        Ok(self
            .series
            .summary_events(plan, &windows, now, &self.config.name))
    }

    /// Register a continuous query: `text` is parsed, compiled, and from
    /// now on maintained incrementally on the publish path.  Readers get
    /// its contents from [`EventGateway::view_snapshot`] without any
    /// rescan.  Re-registering a name replaces the view with fresh state.
    pub fn register_view(
        &self,
        name: &str,
        text: &str,
    ) -> Result<Arc<crate::views::ContinuousQuery>> {
        self.views.register(name, text)
    }

    /// The current snapshot of a continuous query — one `Arc` clone per
    /// call, never a rescan.  Gated by the same [`Action::Query`] right
    /// as the live cache.
    pub fn view_snapshot(
        &self,
        consumer: &str,
        name: &str,
    ) -> Result<Arc<crate::views::ViewSnapshot>> {
        self.check(consumer, Action::Query)?;
        let view = self
            .views
            .by_name(name)
            .ok_or_else(|| GatewayError::BadQuery(format!("no such view {name:?}")))?;
        Ok(view.snapshot())
    }

    /// The continuous-query engine (for the facade's view-first query
    /// routing and for deterministic snapshot flushes in tests).
    pub fn views(&self) -> &crate::views::ViewEngine {
        &self.views
    }

    /// Per-subscription delivery/drop counts — used by the experiments and
    /// the status GUI.
    pub fn delivery_report(&self) -> Vec<DeliveryReport> {
        self.router.delivery_report()
    }

    /// Advance the publish counter and run a re-tier pass whenever the
    /// cadence boundary is crossed.  Counted in publishes rather than
    /// wall time so simulated-clock runs stay deterministic.
    fn maybe_retier(&self, n: u64) {
        let Some(q) = &self.qos else { return };
        let every = q.config.retier_every.max(1);
        let prev = self.qos_publishes.fetch_add(n, Ordering::Relaxed);
        if prev / every != (prev + n) / every {
            self.retier_now();
        }
    }

    /// Run one re-tier pass immediately: re-classify every subscription
    /// from its queue fill and interval drop ratio, refresh the overload
    /// state from the aggregate pressure, and return the new tier rows.
    /// A no-op (empty) without a QoS plane.
    pub fn retier_now(&self) -> Vec<TierRow> {
        let Some(q) = &self.qos else {
            return Vec::new();
        };
        let (rows, fill) = self.router.retier(q);
        q.update_overload(fill);
        rows
    }

    /// Current tier assignment per subscription, without advancing the
    /// classifier (every row is [`Tier::Fast`] without a QoS plane).
    pub fn tier_report(&self) -> Vec<TierRow> {
        self.router.tier_rows()
    }

    /// Snapshot of the QoS plane — shed level, pressure, per-tier shed
    /// and budget-drop counters.  `None` without a QoS plane.
    pub fn qos_snapshot(&self) -> Option<QosSnapshot> {
        self.qos.as_ref().map(|q| q.snapshot())
    }

    /// Feed an external saturation gauge (e.g. the network reactor's
    /// event-loop saturation) into the overload machine; max-combined
    /// with queue pressure at the next re-tier pass.  A no-op without a
    /// QoS plane.
    pub fn set_external_pressure(&self, saturation: f64) {
        if let Some(q) = &self.qos {
            q.set_external_pressure(saturation);
        }
    }
}

/// The gateway is the canonical event sink: the sensor manager (or any
/// other producer) pushes events through `&dyn EventSink<SharedEvent>`
/// without knowing it is talking to a gateway.  Accepting an event bumps
/// its refcount and fans it out without any event copy.
impl EventSink<SharedEvent> for EventGateway {
    fn accept(&self, event: &SharedEvent) -> std::result::Result<usize, SinkError> {
        Ok(self.publish_shared(SharedEvent::clone(event)))
    }

    fn accept_batch(&self, events: &[SharedEvent]) -> std::result::Result<usize, SinkError> {
        Ok(self.publish_shared_batch(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_auth::acl::Principal;
    use jamm_core::query::ValueCmp;
    use jamm_ulm::Level;

    fn ev(host: &str, ty: &str, value: f64, t: u64) -> Event {
        Event::builder("vmstat", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(value)
            .build()
    }

    #[test]
    fn streaming_subscription_receives_matching_events_only() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let sub = gw
            .subscribe()
            .stream()
            .filter(Predicate::types(["CPU_TOTAL"]))
            .as_consumer("collector")
            .open()
            .unwrap();
        assert_eq!(gw.subscriber_count(), 1);
        gw.publish(&ev("h1", "CPU_TOTAL", 10.0, 1));
        gw.publish(&ev("h1", "VMSTAT_FREE_MEMORY", 999.0, 1));
        gw.publish(&ev("h2", "CPU_TOTAL", 20.0, 2));
        let got: Vec<SharedEvent> = sub.events.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|e| e.event_type == "CPU_TOTAL"));
        assert_eq!(gw.stats().events_in.load(Ordering::Relaxed), 3);
        assert_eq!(gw.stats().events_out.load(Ordering::Relaxed), 2);
        assert_eq!(sub.delivered(), 2);
        assert_eq!(sub.dropped(), 0);
        assert!(sub.bytes() > 0);
    }

    #[test]
    fn query_mode_returns_most_recent_event() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        assert_eq!(gw.query("c", "h1", "CPU_TOTAL").unwrap(), None);
        gw.publish(&ev("h1", "CPU_TOTAL", 10.0, 1));
        gw.publish(&ev("h1", "CPU_TOTAL", 55.0, 2));
        let latest = gw.query("c", "h1", "CPU_TOTAL").unwrap().unwrap();
        assert_eq!(latest.value(), Some(55.0));
        assert_eq!(gw.stats().queries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unsubscribe_and_dead_consumer_cleanup() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let sub1 = gw.subscribe().as_consumer("a").open().unwrap();
        let sub2 = gw.subscribe().as_consumer("b").open().unwrap();
        assert_eq!(gw.subscriber_count(), 2);
        gw.unsubscribe(sub1.id).unwrap();
        assert!(matches!(
            gw.unsubscribe(sub1.id),
            Err(GatewayError::NoSuchSubscription(_))
        ));
        assert_eq!(gw.subscriber_count(), 1);
        // Dropping the receiver makes the next publish prune the subscription.
        drop(sub2);
        gw.publish(&ev("h", "X", 1.0, 1));
        assert_eq!(gw.subscriber_count(), 0);
    }

    #[test]
    fn threshold_subscription_reduces_delivered_volume() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let everything = gw.subscribe().as_consumer("all").open().unwrap();
        let filtered = gw
            .subscribe()
            .stream()
            .filter(Predicate::val(ValueCmp::Gt, 50.0))
            .as_consumer("ops")
            .open()
            .unwrap();
        for i in 0..100 {
            gw.publish(&ev("h", "CPU_TOTAL", (i % 10) as f64 * 10.0, i));
        }
        let all_count = everything.events.try_iter().count();
        let filtered_count = filtered.events.try_iter().count();
        assert_eq!(all_count, 100);
        assert!(
            filtered_count < 50,
            "only the >50% readings: {filtered_count}"
        );
        assert!(filtered_count > 0);
        let report = gw.delivery_report();
        assert_eq!(report.len(), 2);
        assert!(report
            .iter()
            .any(|r| r.consumer == "ops" && r.delivered == filtered_count as u64));
        assert!(report.iter().all(|r| r.dropped == 0));
    }

    #[test]
    fn bounded_queue_drop_oldest_keeps_freshest_events() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let sub = gw
            .subscribe()
            .as_consumer("slow")
            .capacity(10)
            .open()
            .unwrap();
        for i in 0..25u64 {
            gw.publish(&ev("h", "CPU_TOTAL", i as f64, i));
        }
        let got: Vec<SharedEvent> = sub.events.try_iter().collect();
        assert_eq!(got.len(), 10, "queue bounded at 10");
        // The oldest were evicted: what remains is the freshest tail.
        let times: Vec<u64> = got.iter().map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, (15..25).collect::<Vec<_>>());
        assert_eq!(sub.dropped(), 15);
        assert_eq!(sub.delivered(), 25);
        assert_eq!(gw.stats().events_dropped.load(Ordering::Relaxed), 15);
        let report = gw.delivery_report();
        assert_eq!(report[0].dropped, 15);
    }

    #[test]
    fn gateway_is_an_event_sink() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let sub = gw.subscribe().as_consumer("c").open().unwrap();
        let sink: &dyn EventSink<SharedEvent> = &gw;
        let first = SharedEvent::new(ev("h", "X", 1.0, 1));
        assert_eq!(sink.accept(&first).unwrap(), 1);
        let batch = [ev("h", "X", 2.0, 2), ev("h", "Y", 3.0, 3)].map(SharedEvent::new);
        assert_eq!(sink.accept_batch(&batch).unwrap(), 2);
        let got: Vec<SharedEvent> = sub.events.try_iter().collect();
        assert_eq!(got.len(), 3);
        // Delivered by refcount: the subscriber holds the producer's event.
        assert!(Arc::ptr_eq(&got[0], &first));
    }

    #[test]
    fn batch_publish_matches_per_event_publish() {
        let make_subs = |gw: &EventGateway| {
            vec![
                gw.subscribe().as_consumer("all").open().unwrap(),
                gw.subscribe()
                    .filter(Predicate::types(["CPU_TOTAL"]))
                    .filter(Predicate::OnChange)
                    .as_consumer("cpu-changes")
                    .open()
                    .unwrap(),
                gw.subscribe()
                    .as_consumer("tiny")
                    .capacity(3)
                    .open()
                    .unwrap(),
            ]
        };
        let events: Vec<Event> = (0..40u64)
            .map(|i| {
                let ty = if i % 3 == 0 { "CPU_TOTAL" } else { "MEM_FREE" };
                ev("h", ty, (i % 4) as f64, i)
            })
            .collect();
        let one = EventGateway::new(GatewayConfig::open("one"));
        let one_subs = make_subs(&one);
        for e in &events {
            one.publish(e);
        }
        let batch = EventGateway::new(GatewayConfig::open("batch"));
        let mut batch_subs = make_subs(&batch);
        batch.publish_batch(&events);
        for (a, b) in one_subs.into_iter().zip(batch_subs.iter_mut()) {
            let left: Vec<SharedEvent> = a.events.try_iter().collect();
            let right: Vec<SharedEvent> = b.drain();
            assert_eq!(left, right, "same deliveries either way");
            assert_eq!(a.delivered(), b.delivered());
            assert_eq!(a.dropped(), b.dropped());
            assert_eq!(a.bytes(), b.bytes());
        }
        assert_eq!(
            one.stats().events_out.load(Ordering::Relaxed),
            batch.stats().events_out.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn gateway_stats_account_for_routed_traffic() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let all = gw.subscribe().as_consumer("all").open().unwrap();
        let cpu = gw
            .subscribe()
            .filter(Predicate::types(["CPU_TOTAL"]))
            .as_consumer("cpu")
            .open()
            .unwrap();
        for i in 0..20u64 {
            gw.publish(&ev("h", "CPU_TOTAL", 1.0, i));
            gw.publish(&ev("h", "MEM_FREE", 2.0, i));
        }
        let stats = gw.stats();
        assert_eq!(stats.events_in.load(Ordering::Relaxed), 40);
        // The wildcard subscription sees every event, the typed one only
        // CPU_TOTAL; the gateway totals are their sums.
        assert_eq!((all.delivered(), cpu.delivered()), (40, 20));
        assert_eq!(stats.events_out.load(Ordering::Relaxed), 60);
        assert_eq!(
            stats.bytes_out.load(Ordering::Relaxed),
            all.bytes() + cpu.bytes(),
            "subscription rows add up to the gateway total"
        );
    }

    #[test]
    fn acl_restricts_streaming_to_internal_users() {
        let mut acl = AccessControlList::summary_for_others();
        acl.grant(
            Principal::OrgPrefix("/O=Grid/O=LBNL".into()),
            "gateway:gw1",
            [Action::SubscribeStream, Action::Query, Action::Summary],
        );
        let gw = EventGateway::new(GatewayConfig::with_acl("gw1", acl));
        // Internal consumer streams.
        assert!(gw
            .subscribe()
            .as_consumer("/O=Grid/O=LBNL/CN=Dan Gunter")
            .open()
            .is_ok());
        // Off-site consumer cannot stream but can query and get summaries.
        let offsite = "/O=Grid/O=NCSA/CN=Remote";
        assert!(matches!(
            gw.subscribe().as_consumer(offsite).open(),
            Err(GatewayError::AccessDenied(_))
        ));
        gw.publish(&ev("h", "CPU_TOTAL", 42.0, 10));
        assert!(gw.query(offsite, "h", "CPU_TOTAL").unwrap().is_some());
        let all = Predicate::everything().compile();
        assert!(gw
            .summaries(offsite, &all, Timestamp::from_secs(11))
            .is_ok());
    }

    #[test]
    fn summaries_reflect_published_readings() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        for i in 0..30u64 {
            gw.publish(&ev("h", "CPU_TOTAL", 60.0, 1_000 + i));
        }
        let all = Predicate::everything().compile();
        let summaries = gw
            .summaries("c", &all, Timestamp::from_secs(1_030))
            .unwrap();
        let one_min = summaries
            .iter()
            .find(|e| e.event_type == "CPU_TOTAL_AVG_1MIN")
            .expect("1-minute summary present");
        assert_eq!(one_min.value(), Some(60.0));
        assert_eq!(one_min.program, "gw1");
    }

    #[test]
    fn query_string_subscriptions_route_and_filter_like_builders() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let by_text = gw
            .subscribe()
            .stream()
            .matching("(&(type=CPU_TOTAL)(val>50))")
            .as_consumer("text")
            .open()
            .unwrap();
        let by_builder = gw
            .subscribe()
            .stream()
            .filter(Predicate::types(["CPU_TOTAL"]))
            .filter(Predicate::val(ValueCmp::Gt, 50.0))
            .as_consumer("builder")
            .open()
            .unwrap();
        for i in 0..40u64 {
            gw.publish(&ev("h", "CPU_TOTAL", (i % 10) as f64 * 10.0, i));
            gw.publish(&ev("h", "MEM_FREE", 99.0, i));
        }
        let text_events: Vec<SharedEvent> = by_text.events.try_iter().collect();
        let builder_events: Vec<SharedEvent> = by_builder.events.try_iter().collect();
        assert_eq!(text_events, builder_events, "same plan either way");
        assert!(!text_events.is_empty());
        // A malformed query surfaces as an error, not a panic.
        assert!(matches!(
            gw.subscribe().matching("(type=").as_consumer("bad").open(),
            Err(GatewayError::BadQuery(_))
        ));
    }

    #[test]
    fn repeated_matching_calls_and_combine() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let sub = gw
            .subscribe()
            .matching("(type=CPU_TOTAL)")
            .matching("(val>50)")
            .as_consumer("c")
            .open()
            .unwrap();
        gw.publish(&ev("h", "CPU_TOTAL", 80.0, 1)); // passes both
        gw.publish(&ev("h", "CPU_TOTAL", 10.0, 2)); // fails the second
        gw.publish(&ev("h", "MEM_FREE", 80.0, 3)); // fails the first
        let got: Vec<SharedEvent> = sub.events.try_iter().collect();
        assert_eq!(got.len(), 1, "both query strings constrain the stream");
        assert_eq!(got[0].value(), Some(80.0));
        assert_eq!(got[0].event_type, "CPU_TOTAL");
    }

    #[test]
    fn query_matching_answers_a_plan_over_the_whole_cache() {
        use jamm_core::query::Predicate;
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        for i in 0..10u64 {
            gw.publish(&ev("h1", "CPU_TOTAL", i as f64, i));
            gw.publish(&ev("h2", "CPU_TOTAL", 90.0, i));
            gw.publish(&ev("h1", "MEM_FREE", 5.0, i));
        }
        let plan = Predicate::parse("(&(type=CPU_TOTAL)(val>50))")
            .unwrap()
            .compile();
        let hits = gw.query_matching("c", &plan).unwrap();
        assert_eq!(hits.len(), 1, "only h2's latest CPU reading is >50");
        assert_eq!(hits[0].host, "h2");
        let all = gw
            .query_matching("c", &Predicate::everything().compile())
            .unwrap();
        assert_eq!(all.len(), 3, "one latest event per live series");
    }

    #[test]
    fn qos_retier_moves_a_stalled_subscriber_to_probation_and_back() {
        let gw = EventGateway::new(GatewayConfig::open("gw1").with_qos(QosConfig {
            retier_every: u64::MAX, // driven manually below
            ..QosConfig::default()
        }));
        let mut fast = gw
            .subscribe()
            .as_consumer("fast")
            .capacity(64)
            .open()
            .unwrap();
        let mut stalled = gw
            .subscribe()
            .as_consumer("stalled")
            .capacity(64)
            .open()
            .unwrap();
        for round in 0..6u64 {
            for i in 0..64u64 {
                gw.publish(&ev("h", "CPU_TOTAL", i as f64, round * 64 + i));
            }
            fast.drain();
            gw.retier_now();
        }
        let tier_of =
            |rows: &[TierRow], name: &str| rows.iter().find(|r| r.consumer == name).unwrap().tier;
        let rows = gw.tier_report();
        assert_eq!(tier_of(&rows, "fast"), Tier::Fast, "draining consumer");
        assert_eq!(tier_of(&rows, "stalled"), Tier::Probation, "full queue");
        assert!(
            gw.delivery_report()
                .iter()
                .find(|r| r.consumer == "stalled")
                .unwrap()
                .dropped
                > 0
        );
        // Once the consumer drains again, hysteresis walks it back down.
        for round in 0..8u64 {
            for i in 0..8u64 {
                gw.publish(&ev("h", "CPU_TOTAL", i as f64, 1_000 + round * 8 + i));
            }
            fast.drain();
            stalled.drain();
            gw.retier_now();
        }
        assert_eq!(tier_of(&gw.tier_report(), "stalled"), Tier::Fast);
    }

    #[test]
    fn overload_sheds_raw_events_but_never_summaries_or_lifelines() {
        use crate::qos::{protected, ShedLevel};
        let gw = EventGateway::new(GatewayConfig::open("gw1").with_qos(QosConfig {
            retier_every: u64::MAX,
            ..QosConfig::default()
        }));
        let sub = gw.subscribe().as_consumer("c").open().unwrap();
        gw.set_external_pressure(1.0);
        gw.retier_now();
        assert_eq!(gw.qos_snapshot().unwrap().level, ShedLevel::All);
        // A raw event is shed even to a fast-tier subscription...
        gw.publish(&ev("h", "CPU_TOTAL", 1.0, 1));
        // ...but the plane's own lifelines and summary events pass.
        let lifeline = Event::builder("_jamm", "h")
            .level(Level::Usage)
            .event_type("JAMM_GW_PUB")
            .timestamp(Timestamp::from_secs(2))
            .build();
        let summary = Event::builder("gw1", "h")
            .level(Level::Usage)
            .event_type("CPU_TOTAL_AVG_1MIN")
            .timestamp(Timestamp::from_secs(3))
            .value(1.0)
            .build();
        gw.publish(&lifeline);
        gw.publish(&summary);
        let got: Vec<SharedEvent> = sub.events.try_iter().collect();
        assert_eq!(got.len(), 2, "only the protected streams survived");
        assert!(got.iter().all(protected));
        let snap = gw.qos_snapshot().unwrap();
        assert_eq!(snap.shed[Tier::Fast as usize], 1);
        assert_eq!(sub.dropped(), 1);
        // Pressure released: de-escalation is one level per pass.
        gw.set_external_pressure(0.0);
        gw.retier_now();
        assert_eq!(gw.qos_snapshot().unwrap().level, ShedLevel::Lagging);
        gw.retier_now();
        gw.retier_now();
        assert_eq!(gw.qos_snapshot().unwrap().level, ShedLevel::None);
        gw.publish(&ev("h", "CPU_TOTAL", 2.0, 4));
        assert_eq!(sub.events.try_iter().count(), 1, "shedding stopped");
    }

    #[test]
    fn on_change_filter_state_is_per_subscription() {
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let s1 = gw
            .subscribe()
            .filter(Predicate::OnChange)
            .as_consumer("a")
            .open()
            .unwrap();
        gw.publish(&ev("h", "NETSTAT_RETRANS", 5.0, 1));
        gw.publish(&ev("h", "NETSTAT_RETRANS", 5.0, 2));
        // A subscriber arriving later starts with fresh state.
        let s2 = gw
            .subscribe()
            .filter(Predicate::OnChange)
            .as_consumer("b")
            .open()
            .unwrap();
        gw.publish(&ev("h", "NETSTAT_RETRANS", 5.0, 3));
        gw.publish(&ev("h", "NETSTAT_RETRANS", 7.0, 4));
        assert_eq!(s1.events.try_iter().count(), 2, "first + change");
        assert_eq!(s2.events.try_iter().count(), 2, "first seen + change");
    }
}
