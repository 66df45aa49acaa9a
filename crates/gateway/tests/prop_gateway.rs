//! Property-based tests of the event gateway: delivery is always a subset of
//! what was published, filters never invent events, drop accounting is
//! exact under any queue bound, and summary statistics agree with a direct
//! computation.

use jamm_core::check::{forall, Gen};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_core::query::{Plan, ValueCmp};
use jamm_gateway::summary::SummaryWindow;
use jamm_gateway::{EventGateway, GatewayConfig, Predicate, QosConfig, Subscription};
use jamm_ulm::{keys, Event, Level, SharedEvent, Timestamp};

const TYPES: [&str; 3] = ["CPU_TOTAL", "VMSTAT_FREE_MEMORY", "NETSTAT_RETRANS"];
const HOSTS: [&str; 3] = ["h1", "h2", "h3"];
const LEVELS: [Level; 3] = [Level::Usage, Level::Warning, Level::Error];

fn arb_event(g: &mut Gen) -> Event {
    let t = g.u64(120);
    Event::builder("sensor", g.choice(&HOSTS))
        .level(g.choice(&LEVELS))
        .event_type(g.choice(&TYPES))
        .timestamp(Timestamp::from_secs(10_000 + t))
        .value(g.f64_in(0.0, 100.0))
        .build()
}

fn arb_filters(g: &mut Gen) -> Vec<Predicate> {
    (0..g.usize_in(0, 2))
        .map(|_| match g.usize_in(0, 7) {
            0 => Predicate::True,
            1 => Predicate::types(["CPU_TOTAL"]),
            2 => Predicate::hosts(["h1", "h2"]),
            3 => Predicate::MinLevel(Level::Warning.severity()),
            4 => Predicate::OnChange,
            5 => Predicate::val(ValueCmp::Gt, g.f64_in(0.0, 100.0)),
            6 => Predicate::val(ValueCmp::Lt, g.f64_in(0.0, 100.0)),
            _ => Predicate::RelativeChange(g.f64_in(0.05, 0.9)),
        })
        .collect()
}

/// Whatever the filters, a subscriber receives a subset of the published
/// events, each of which satisfies every stateless predicate it asked
/// for, and the gateway's counters add up.
#[test]
fn delivery_is_a_filtered_subset() {
    forall("filtered subset", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 150)).map(|_| arb_event(g)).collect();
        let filters = arb_filters(g);
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let sub = gw
            .subscribe()
            .stream()
            .filter(Predicate::And(filters.clone()))
            .as_consumer("c")
            .open()
            .unwrap();
        for e in &events {
            gw.publish(e);
        }
        let delivered: Vec<jamm_ulm::SharedEvent> = sub.events.try_iter().collect();
        assert!(delivered.len() <= events.len());
        for d in &delivered {
            assert!(events.contains(&**d), "gateway must not invent events");
            for f in &filters {
                match f {
                    Predicate::EventTypes(tys) => assert!(tys.contains(&d.event_type)),
                    Predicate::Hosts(hs) => assert!(hs.contains(&d.host)),
                    Predicate::Value(ValueCmp::Gt, t) => assert!(d.value().unwrap() > *t),
                    Predicate::Value(ValueCmp::Lt, t) => assert!(d.value().unwrap() < *t),
                    Predicate::MinLevel(_) => {
                        assert!(matches!(d.level, Level::Warning | Level::Error))
                    }
                    _ => {}
                }
            }
        }
        let stats_out = gw
            .stats()
            .events_out
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stats_out as usize, delivered.len());
        let stats_in = gw
            .stats()
            .events_in
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stats_in as usize, events.len());
        assert_eq!(sub.delivered() as usize, delivered.len());
        assert_eq!(sub.dropped(), 0, "queue never overflowed in this run");
    });
}

/// Under any queue bound, queued + dropped == delivered, and the queue
/// never exceeds its bound.
#[test]
fn drop_accounting_is_exact_under_any_bound() {
    forall("drop accounting", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 200)).map(|_| arb_event(g)).collect();
        let capacity = g.usize_in(1, 32);
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let sub = gw
            .subscribe()
            .as_consumer("slow")
            .capacity(capacity)
            .open()
            .unwrap();
        for e in &events {
            gw.publish(e);
        }
        let queued = sub.events.try_iter().count();
        assert!(queued <= capacity, "queue bound respected");
        // Every event is admitted; a full queue evicts its oldest.
        assert_eq!(sub.delivered() as usize, events.len());
        assert_eq!(queued + sub.dropped() as usize, events.len());
        let report = gw.delivery_report();
        assert_eq!(report[0].dropped, sub.dropped());
        assert_eq!(report[0].delivered, sub.delivered());
    });
}

/// Query mode always returns the most recently *published* event of the
/// (host, type) pair — publication order wins, whatever the timestamps —
/// and nothing for a pair that was never published.
#[test]
fn query_returns_the_latest() {
    forall("query latest", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 100)).map(|_| arb_event(g)).collect();
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        for e in &events {
            gw.publish(e);
        }
        for host in HOSTS {
            for ty in TYPES {
                let expected = events
                    .iter()
                    .rfind(|e| e.host == host && e.event_type == ty);
                let got = gw.query("c", host, ty).unwrap();
                assert_eq!(got.as_deref(), expected, "{host}/{ty}");
            }
        }
    });
}

/// The gateway's 60-minute summary always carries the arithmetic mean
/// of the readings inside the window, with min <= mean <= max.
#[test]
fn summary_mean_matches_direct_computation() {
    forall("summary mean", 48, |g| {
        let values: Vec<f64> = (0..g.usize_in(1, 60))
            .map(|_| g.f64_in(0.0, 100.0))
            .collect();
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let base = 50_000u64;
        for (i, v) in values.iter().enumerate() {
            let e = Event::builder("s", "h")
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .timestamp(Timestamp::from_secs(base + i as u64))
                .value(*v)
                .build();
            gw.publish(&e);
        }
        let now = Timestamp::from_secs(base + values.len() as u64);
        let summaries = gw
            .summaries("c", &Predicate::everything().compile(), now)
            .unwrap();
        let s = summaries
            .iter()
            .find(|e| e.event_type == "CPU_TOTAL_AVG_60MIN")
            .expect("readings inside the window");
        let (avg, min, max) = (
            s.value().unwrap(),
            s.field_f64("MIN").unwrap(),
            s.field_f64("MAX").unwrap(),
        );
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((avg - mean).abs() < 1e-6);
        assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
        assert_eq!(s.field_f64("COUNT"), Some(values.len() as f64));
    });
}

/// One subscription of the flat-list oracle: the original algorithm —
/// every subscription offered every event, in publish order — written
/// against the public API only (a compiled [`Plan`] and a bounded deque),
/// so it shares no code with the router it checks.
struct FlatSub {
    plan: Plan,
    capacity: usize,
    queue: VecDeque<SharedEvent>,
    delivered: u64,
    dropped: u64,
    bytes: u64,
}

impl FlatSub {
    fn new(filter: &Predicate, capacity: usize) -> Self {
        FlatSub {
            plan: filter.compile(),
            capacity,
            queue: VecDeque::new(),
            delivered: 0,
            dropped: 0,
            bytes: 0,
        }
    }

    /// Every passing event is admitted; a full queue evicts its oldest,
    /// at the cost of one drop.
    fn offer(&mut self, event: &SharedEvent) {
        if !self.plan.eval(&**event) {
            return;
        }
        if self.queue.len() == self.capacity {
            self.dropped += 1;
            self.queue.pop_front();
        }
        self.queue.push_back(SharedEvent::clone(event));
        self.delivered += 1;
        self.bytes += event.approx_size() as u64;
    }
}

/// The router — with or without a QoS plane (re-tiering every
/// 512 publishes), under any filter mix (typed and wildcard), any queue
/// bound, and any split of the stream across
/// `publish`, `publish_shared` and `publish_batch` — delivers exactly the
/// same event sequences, with the same per-subscription counters, as the
/// original flat-list fan-out, and the gateway totals are the sums of
/// the subscriptions' counters.
#[test]
fn routing_is_equivalent_to_the_flat_list() {
    forall("routed == flat", 64, |g| {
        let qos = g.bool(0.5);
        // With QoS the stream is long enough to cross the re-tier cadence,
        // and the queues deep enough (fill <= 1/8) that the pass leaves
        // every subscription in the fast tier.
        let (max_events, headroom) = if qos { (700, 8) } else { (160, 0) };
        let events: Vec<Event> = (0..g.usize_in(1, max_events))
            .map(|_| arb_event(g))
            .collect();
        let n_subs = g.usize_in(1, 6);
        let specs: Vec<(Predicate, usize)> = (0..n_subs)
            .map(|_| {
                let mut filters = arb_filters(g);
                // Bias toward typed subscriptions so the by-type buckets
                // (not just the wildcard list) are exercised.
                if g.bool(0.5) {
                    let mut tys: Vec<String> = (0..g.usize_in(1, 2))
                        .map(|_| g.choice(&TYPES).to_string())
                        .collect();
                    tys.dedup();
                    filters.push(Predicate::EventTypes(tys));
                }
                let capacity = g.usize_in(1, 64) + headroom * events.len();
                (Predicate::And(filters), capacity)
            })
            .collect();

        let mut flat_subs: Vec<FlatSub> =
            specs.iter().map(|(f, cap)| FlatSub::new(f, *cap)).collect();
        let config = GatewayConfig::open("gw");
        let gw = EventGateway::new(if qos {
            config.with_qos(QosConfig::default())
        } else {
            config
        });
        let gw_subs: Vec<_> = specs
            .iter()
            .map(|(f, cap)| {
                gw.subscribe()
                    .filter(f.clone())
                    .capacity(*cap)
                    .as_consumer("c")
                    .open()
                    .unwrap()
            })
            .collect();

        // Feed both engines the same stream, the gateway via a random mix
        // of by-value, shared and batched publishes.
        let mut i = 0;
        while i < events.len() {
            let run = match g.usize_in(0, 3) {
                0 => {
                    gw.publish(&events[i]);
                    1
                }
                1 => {
                    gw.publish_shared(Arc::new(events[i].clone()));
                    1
                }
                _ => {
                    let run = g.usize_in(1, 12).min(events.len() - i);
                    gw.publish_batch(&events[i..i + run]);
                    run
                }
            };
            i += run;
        }
        for e in &events {
            let shared = Arc::new(e.clone());
            for sub in &mut flat_subs {
                sub.offer(&shared);
            }
        }

        for (a, b) in flat_subs.iter().zip(gw_subs.iter()) {
            let left: Vec<SharedEvent> = a.queue.iter().cloned().collect();
            let right: Vec<SharedEvent> = b.events.try_iter().collect();
            assert_eq!(left, right, "qos {qos}: same delivered sequence");
            assert_eq!(a.delivered, b.delivered(), "qos {qos}");
            assert_eq!(a.dropped, b.dropped(), "qos {qos}");
            assert_eq!(a.bytes, b.bytes(), "qos {qos}");
        }
        // The gateway totals decompose into the subscriptions' counters.
        let stats = gw.stats();
        let total = |count: fn(&Subscription) -> u64| gw_subs.iter().map(count).sum::<u64>();
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        assert_eq!(read(&stats.events_in) as usize, events.len());
        let out = read(&stats.events_out);
        assert_eq!(out, total(Subscription::delivered), "qos {qos}");
        let dropped = read(&stats.events_dropped);
        assert_eq!(dropped, total(Subscription::dropped), "qos {qos}");
        let bytes = read(&stats.bytes_out);
        assert_eq!(bytes, total(Subscription::bytes), "qos {qos}");
    });
}

/// The flat summary oracle: every numeric reading per (host, event type)
/// series in arrival order, summarized by direct computation.  It shares
/// no code with the gateway's per-series table.
#[derive(Default)]
struct FlatSummaries {
    series: BTreeMap<(String, String), Vec<(Timestamp, f64)>>,
}

impl FlatSummaries {
    fn record(&mut self, e: &Event) {
        if let Some(v) = e.value() {
            let key = (e.host.clone(), e.event_type.clone());
            self.series.entry(key).or_default().push((e.timestamp, v));
        }
    }

    /// One event per series and non-empty window over `[now - length,
    /// now]` (both edges inclusive), in (host, type) order.  Readings are
    /// summed newest first in timestamp order, arrival order breaking
    /// ties, so the floating-point mean is reproduced bit for bit.
    fn events(&self, now: Timestamp, gateway: &str) -> Vec<Event> {
        let mut out = Vec::new();
        for ((host, ty), readings) in &self.series {
            let mut sorted = readings.clone();
            sorted.sort_by_key(|(t, _)| *t);
            for w in SummaryWindow::all() {
                let cutoff = now.sub_micros(w.micros());
                let inside: Vec<f64> = sorted
                    .iter()
                    .rev()
                    .filter(|(t, _)| *t >= cutoff && *t <= now)
                    .map(|(_, v)| *v)
                    .collect();
                if inside.is_empty() {
                    continue;
                }
                let sum = inside.iter().fold(0.0, |acc, v| acc + v);
                let min = inside.iter().copied().fold(f64::INFINITY, f64::min);
                let max = inside.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                out.push(
                    Event::builder(gateway.to_owned(), host.as_str())
                        .level(Level::Usage)
                        .event_type(format!("{ty}_{}", w.suffix()))
                        .timestamp(now)
                        .field(keys::SENSOR, "summary")
                        .value(sum / inside.len() as f64)
                        .field("MIN", min)
                        .field("MAX", max)
                        .field("COUNT", inside.len() as u64)
                        .build(),
                );
            }
        }
        out
    }
}

/// The gateway's per-series table answers `summaries()` exactly as the
/// flat oracle fed the same events does (byte for byte, in the same
/// order), a host/type-filtered `summaries()` with exactly the flat events
/// of the admitted series, and `query()` from the same table with the last
/// event published for the series.
#[test]
fn gateway_series_table_matches_the_flat_engine() {
    forall("series table == flat", 48, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 120)).map(|_| arb_event(g)).collect();
        // After every reading, and within an hour of all of them, so the
        // table's horizon pruning cannot remove a reading any window needs.
        let now = Timestamp::from_secs(10_000 + 121);
        let (host, ty) = (g.choice(&HOSTS), g.choice(&TYPES));
        let filtered = Predicate::And(vec![Predicate::hosts([host]), Predicate::types([ty])]);
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let mut flat = FlatSummaries::default();
        for e in &events {
            gw.publish(e);
            flat.record(e);
        }
        let all = flat.events(now, "gw");
        assert_eq!(
            gw.summaries("c", &Predicate::everything().compile(), now)
                .unwrap(),
            all,
            "identical summary events, identical order"
        );
        let of_series: Vec<Event> = all
            .into_iter()
            .filter(|e| {
                e.host == host
                    && SummaryWindow::all()
                        .iter()
                        .any(|w| e.event_type == format!("{ty}_{}", w.suffix()))
            })
            .collect();
        assert_eq!(
            gw.summaries("c", &filtered.compile(), now).unwrap(),
            of_series,
            "{host}/{ty} summaries only"
        );
        for host in HOSTS {
            for ty in TYPES {
                let last = events
                    .iter()
                    .rfind(|e| e.host == host && e.event_type == ty);
                let got = gw.query("c", host, ty).unwrap();
                assert_eq!(got.as_deref(), last, "{host}/{ty}");
            }
        }
    });
}
