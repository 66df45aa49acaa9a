//! # jamm-gateway — the JAMM event gateway
//!
//! "Event gateways are responsible for listening for requests from event
//! consumers.  Event gateways can service 'streaming' or 'query' requests
//! from consumers." (§2.2)  The gateway is the *producer* in JAMM's
//! producer/consumer model: the event channel is embedded here, it
//! multiplexes sensor output to any number of consumers, filters what each
//! consumer asked for, computes summary data, and enforces site access
//! policy — all without the monitored host seeing any additional load.
//!
//! * [`filter`] — per-subscription event filters: event-type selection,
//!   on-change delivery, absolute and relative thresholds, severity floors;
//! * [`summary`] — 1/10/60-minute windowed averages of numeric readings,
//!   kept beside the latest event in the gateway's per-series table;
//! * [`routing`] — the sharded fan-out engine: an event-type-indexed
//!   routing table split across N shards, each an immutable snapshot
//!   swapped on the cold path so publish fans out without holding a lock
//!   (plus [`routing::FlatFanout`], the original flat-list reference the
//!   property tests and the `e14_gateway_fanout` bench compare against);
//! * [`qos`] — the delivery QoS plane: drain-rate tier classification
//!   with hysteresis, per-tier queue budgets and worker pools, and
//!   declared overload shedding that drops lowest-tier raw events first
//!   while summaries and `_jamm` self-lifelines survive;
//! * [`views`] — continuous queries: registered query-plane plans
//!   maintained incrementally on the publish path (the summary engine
//!   generalized to arbitrary predicates plus group-by/top-k/rate
//!   aggregation), snapshot-readable by any number of concurrent
//!   dashboards without rescanning;
//! * [`gateway`] — the [`EventGateway`] itself: publish (as a
//!   [`jamm_core::flow::EventSink`]), the fluent [`SubscriptionBuilder`]
//!   for bounded streaming subscriptions, query (most recent event),
//!   access control, per-subscription and per-shard delivery/drop
//!   accounting, and optional parallel delivery workers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod filter;
pub mod gateway;
mod hash;
pub mod qos;
pub mod routing;
pub mod summary;
pub mod trace;
pub mod views;

pub use filter::{EventFilter, FilterChain};
pub use gateway::{
    DeliveryReport, EventGateway, GatewayConfig, GatewayStats, Subscription, SubscriptionBuilder,
    DEFAULT_SUBSCRIPTION_CAPACITY,
};
pub use jamm_core::flow::OverflowPolicy;
pub use jamm_core::query::{Plan, Predicate};
pub use qos::{
    OverloadPolicy, QosConfig, QosRuntime, QosSnapshot, ShedLevel, Tier, TierPolicy, TierRow,
};
pub use routing::{FlatFanout, RouteOutcome, ShardReport, DEFAULT_GATEWAY_SHARDS};
pub use summary::{SummaryEngine, SummaryWindow};
pub use trace::{PipelineTracer, TraceClock, DEFAULT_SAMPLE_EVERY};
pub use views::{ContinuousQuery, ViewEngine, ViewSnapshot, VIEW_RING_CAPACITY};

/// Errors returned by gateway operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The consumer is not allowed to perform the request.
    AccessDenied(String),
    /// The referenced subscription does not exist.
    NoSuchSubscription(u64),
    /// A subscription query string did not parse.
    BadQuery(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::AccessDenied(what) => write!(f, "access denied: {what}"),
            GatewayError::NoSuchSubscription(id) => write!(f, "no such subscription: {id}"),
            GatewayError::BadQuery(what) => write!(f, "bad query: {what}"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, GatewayError>;
