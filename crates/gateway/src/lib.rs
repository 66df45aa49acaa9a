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
//! * per-subscription filters are query-plane [`Predicate`]s (event-type
//!   selection, on-change delivery, absolute and relative thresholds,
//!   severity floors — built with its constructors or parsed from text);
//!   a route entry holds nothing but the compiled [`Plan`];
//! * [`summary`] — 1/10/60-minute windowed averages of numeric readings,
//!   kept beside the latest event in the gateway's per-series table;
//! * [`routing`] — the fan-out engine: an event-type-indexed routing
//!   table held as one immutable snapshot, swapped on the cold path so
//!   publish fans out on the publisher's thread without holding a lock;
//! * [`qos`] — the delivery QoS plane: drain-rate tier classification
//!   with hysteresis, per-tier queue budgets, and
//!   declared overload shedding that drops lowest-tier raw events first
//!   while summaries and `_jamm` self-lifelines survive;
//! * [`views`] — continuous queries: registered query-plane plans
//!   maintained incrementally on the publish path (the per-series
//!   summaries generalized to arbitrary predicates plus group-by/top-k
//!   aggregation), cut into a snapshot on the first read after a change
//!   and shared by any number of concurrent dashboards without
//!   rescanning;
//! * [`trace`] — self-lifelines: sampled correlation-id tracing of the
//!   pipeline itself into the tracer's own bounded queue;
//! * [`gateway`] — the [`EventGateway`] itself: publish (as a
//!   [`jamm_core::flow::EventSink`] of shared events), the fluent
//!   [`SubscriptionBuilder`] for bounded streaming subscriptions, query
//!   (most recent event), access control, and per-subscription
//!   delivery/drop accounting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gateway;
pub mod qos;
pub mod routing;
pub mod summary;
pub mod trace;
pub mod views;

pub use gateway::{
    DeliveryReport, EventGateway, GatewayConfig, GatewayStats, Subscription, SubscriptionBuilder,
    DEFAULT_SUBSCRIPTION_CAPACITY,
};
pub use jamm_core::query::{Plan, Predicate};
pub use qos::{
    OverloadPolicy, QosConfig, QosRuntime, QosSnapshot, ShedLevel, Tier, TierPolicy, TierRow,
};
pub use summary::SummaryWindow;
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

/// The paper's §2.2 subscription requests (event types, on-change,
/// thresholds), checked against the compiled [`Plan`] a route entry holds.
#[cfg(test)]
mod filter {
    mod tests {
        use jamm_core::query::{Plan, Predicate, ValueCmp};
        use jamm_ulm::{Event, Level, Timestamp};

        fn ev(host: &str, ty: &str, level: Level, value: Option<f64>) -> Event {
            let mut b = Event::builder("prog", host)
                .level(level)
                .event_type(ty)
                .timestamp(Timestamp::from_secs(1));
            if let Some(v) = value {
                b = b.value(v);
            }
            b.build()
        }

        /// What `SubscriptionBuilder::open` compiles: the conjunction.
        fn plan(filters: Vec<Predicate>) -> Plan {
            Predicate::And(filters).compile()
        }

        fn routed(plan: &Plan) -> Option<Vec<&'static str>> {
            plan.routed_types()
                .map(|syms| syms.iter().map(|s| s.as_str()).collect())
        }

        #[test]
        fn event_type_and_host_selection() {
            let c = plan(vec![
                Predicate::types(["CPU_TOTAL"]),
                Predicate::hosts(["a", "b"]),
            ]);
            assert!(c.eval(&ev("a", "CPU_TOTAL", Level::Usage, Some(1.0))));
            assert!(!c.eval(&ev("c", "CPU_TOTAL", Level::Usage, Some(1.0))));
            assert!(!c.eval(&ev("a", "VMSTAT_FREE_MEMORY", Level::Usage, Some(1.0))));
        }

        #[test]
        fn min_level_floor() {
            let c = plan(vec![Predicate::MinLevel(Level::Warning.severity())]);
            assert!(c.eval(&ev("h", "X", Level::Error, None)));
            assert!(c.eval(&ev("h", "X", Level::Warning, None)));
            assert!(!c.eval(&ev("h", "X", Level::Info, None)));
            assert!(!c.eval(&ev("h", "X", Level::Usage, None)));
        }

        #[test]
        fn on_change_suppresses_repeats_per_host_and_type() {
            let c = plan(vec![Predicate::OnChange]);
            assert!(c.eval(&ev("h", "NETSTAT_RETRANS", Level::Usage, Some(5.0))));
            assert!(!c.eval(&ev("h", "NETSTAT_RETRANS", Level::Usage, Some(5.0))));
            assert!(!c.eval(&ev("h", "NETSTAT_RETRANS", Level::Usage, Some(5.0))));
            assert!(c.eval(&ev("h", "NETSTAT_RETRANS", Level::Usage, Some(6.0))));
            // A different host is tracked independently.
            assert!(c.eval(&ev("h2", "NETSTAT_RETRANS", Level::Usage, Some(6.0))));
            // A clone is a new subscription: it starts with fresh memory.
            assert!(c
                .clone()
                .eval(&ev("h", "NETSTAT_RETRANS", Level::Usage, Some(6.0))));
        }

        #[test]
        fn paper_example_cpu_above_50() {
            let c = plan(vec![
                Predicate::types(["CPU_TOTAL"]),
                Predicate::val(ValueCmp::Gt, 50.0),
            ]);
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(30.0))));
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(75.0))));
        }

        #[test]
        fn crossing_fires_on_both_directions_but_not_within_a_side() {
            let c = plan(vec![Predicate::Crosses(50.0)]);
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(30.0))));
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(60.0)))); // up-cross
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(70.0)))); // still above
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(40.0)))); // down-cross
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(45.0))));
        }

        #[test]
        fn paper_example_load_changes_by_20_percent() {
            let c = plan(vec![Predicate::RelativeChange(0.2)]);
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(50.0)))); // first
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(55.0)))); // +10%
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(70.0)))); // +27%
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(60.0)))); // -14%
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(20.0)))); // -66%
        }

        #[test]
        fn below_filter_and_empty_chain() {
            let below = plan(vec![Predicate::val(ValueCmp::Lt, 1_000.0)]);
            assert!(below.eval(&ev("h", "VMSTAT_FREE_MEMORY", Level::Usage, Some(500.0))));
            assert!(!below.eval(&ev("h", "VMSTAT_FREE_MEMORY", Level::Usage, Some(5_000.0))));
            let all = plan(vec![]);
            assert!(all.eval(&ev("h", "ANYTHING", Level::Usage, None)));
            assert_eq!(routed(&all), None, "And([]) is a wildcard subscription");
        }

        #[test]
        fn stateful_filters_track_even_when_other_predicates_reject() {
            // Host filter rejects h2 events, but the change tracking for h1
            // is unaffected by them.
            let c = plan(vec![Predicate::hosts(["h1"]), Predicate::OnChange]);
            assert!(c.eval(&ev("h1", "X", Level::Usage, Some(1.0))));
            assert!(!c.eval(&ev("h2", "X", Level::Usage, Some(2.0))));
            assert!(
                !c.eval(&ev("h1", "X", Level::Usage, Some(1.0))),
                "unchanged"
            );
            assert!(c.eval(&ev("h1", "X", Level::Usage, Some(3.0))));

            // Within one series the previous-reading memory advances on
            // every reading, including those the severity floor rejects:
            // each third reading is judged against the rejected second one.
            let floor = Predicate::MinLevel(Level::Warning.severity());
            for (stateful, readings) in [
                (Predicate::OnChange, [1.0, 2.0, 2.0]),
                (Predicate::Crosses(50.0), [30.0, 60.0, 70.0]),
                (Predicate::RelativeChange(0.2), [50.0, 100.0, 105.0]),
            ] {
                let c = plan(vec![floor.clone(), stateful.clone()]);
                c.eval(&ev("h", "X", Level::Warning, Some(readings[0])));
                assert!(!c.eval(&ev("h", "X", Level::Usage, Some(readings[1]))));
                assert!(
                    !c.eval(&ev("h", "X", Level::Warning, Some(readings[2]))),
                    "{stateful} compared against the first reading, not the rejected one"
                );
            }
        }

        #[test]
        fn routed_types_is_the_event_types_intersection() {
            let c = plan(vec![
                Predicate::types(["A", "B"]),
                Predicate::types(["B", "C"]),
            ]);
            assert_eq!(routed(&c), Some(vec!["B"]));
            let open = plan(vec![Predicate::val(ValueCmp::Gt, 1.0)]);
            assert_eq!(routed(&open), None);
            // An empty type list matches nothing and registers in no bucket.
            let closed = plan(vec![Predicate::EventTypes(vec![])]);
            assert_eq!(routed(&closed), Some(vec![]));
            assert!(!closed.eval(&ev("h", "A", Level::Usage, Some(1.0))));
        }

        #[test]
        fn chains_accept_parsed_query_predicates() {
            let c = plan(vec![Predicate::parse(
                "(&(type=CPU_TOTAL)(val>50)(onchange))",
            )
            .unwrap()]);
            assert_eq!(routed(&c), Some(vec!["CPU_TOTAL"]));
            assert!(c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(75.0))));
            assert!(
                !c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(75.0))),
                "unchanged"
            );
            assert!(!c.eval(&ev("h", "CPU_TOTAL", Level::Usage, Some(30.0))));
            assert!(!c.eval(&ev("h", "MEM_FREE", Level::Usage, Some(99.0))));
        }
    }
}
