//! The declarative scenario engine.
//!
//! The ROADMAP asks for fault scenarios to be *tests*, not demos: a
//! config-driven simulator in the simba style (declarative config + a
//! result analyser).  This module compiles a [`ScenarioSpec`] — a small
//! text format describing hosts, links, TCP flows, a real monitoring
//! deployment (event gateways, subscribing consumers, an archiver, a
//! sensor directory) and a fault timeline — onto the existing
//! [`crate::network::Network`] simulator, runs it on the simulated clock
//! with **no wall-clock dependence anywhere**, and hands back a
//! [`ScenarioReport`] with a fluent assertion API
//! ([`ScenarioReport::expect`]).
//!
//! The monitoring components are the real ones: `jamm_gateway`
//! gateways with a `PipelineTracer` whose [`TraceClock`] is the shared
//! simulated-time cell, `jamm_consumers` collectors and archiver,
//! and a `jamm_directory` server used for gateway failover.  The
//! self-lifeline events the tracer emits therefore measure *simulated*
//! stage-to-stage latencies, and `jamm_netlogger::analysis::diagnose`
//! localizes injected bottlenecks exactly the way the paper's human
//! analyst localized the MATISSE receive-host collapse.

pub mod analysis;
pub mod faults;
pub mod spec;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::GatewayRegistry;
use jamm_core::{Backoff, CircuitBreaker};
use jamm_directory::{DirectoryServer, Dn, Entry, Filter, Scope};
use jamm_gateway::{
    EventGateway, GatewayConfig, PipelineTracer, QosConfig, Subscription, TraceClock,
};
use jamm_ulm::{keys, Event, Level, SharedEvent};

use crate::host::HostId;
use crate::link::{LinkId, Router};
use crate::network::Network;
use crate::{clock::SimClock, host::HostSpec, link::LinkSpec, FlowId};

pub use analysis::{
    ConsumerReport, Expectations, GatewayQosReport, ReaderReport, ScenarioReport, SecondSample,
};
pub use faults::FaultInjector;
pub use spec::{Fault, QosDecl, ReaderDecl, ScenarioSpec, SpecError, TimelineEntry};

/// Why a spec failed to compile or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The text did not parse.
    Parse(SpecError),
    /// The spec parsed but references something undeclared (an unknown
    /// host, link or gateway).
    Compile(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Compile(reason) => write!(f, "scenario compile error: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Parse(e)
    }
}

/// A spec's topology compiled onto a fresh [`Network`] (hosts, links and
/// routers only — no flows, no monitoring plane).  This is the piece the
/// canned [`crate::scenario::matisse_topology`] builds on.
#[derive(Debug)]
pub struct CompiledTopology {
    /// The simulated network.
    pub net: Network,
    /// Host IDs, in declaration order.
    pub hosts: Vec<(String, HostId)>,
    /// Link IDs, in declaration order.
    pub links: Vec<(String, LinkId)>,
}

impl CompiledTopology {
    /// Look up a declared host by name.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// Look up a declared link by name.
    pub fn link_id(&self, name: &str) -> Option<LinkId> {
        self.links
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// Resolve a list of link names to IDs (a flow path).
    pub fn resolve_path(&self, via: &[String]) -> Result<Vec<LinkId>, EngineError> {
        via.iter()
            .map(|name| {
                self.link_id(name)
                    .ok_or_else(|| EngineError::Compile(format!("unknown link `{name}`")))
            })
            .collect()
    }
}

/// Build the network described by a spec's `host` / `link` / `router`
/// directives, in declaration order (which fixes simulator IDs and the
/// seeded RNG stream — byte-identical specs produce identical networks).
pub fn compile_topology(spec: &ScenarioSpec) -> Result<CompiledTopology, EngineError> {
    let mut net = Network::new(
        SimClock::new(crate::clock::SimClock::matisse().timestamp(), spec.tick_us),
        spec.seed,
    );
    let mut hosts = Vec::new();
    for h in &spec.hosts {
        let mut hs = HostSpec::new(&h.name);
        if let Some(v) = h.cpus {
            hs = hs.cpus(v);
        }
        if let Some(v) = h.memory_kb {
            hs = hs.memory_kb(v);
        }
        if let Some(v) = h.pkt_cost_us {
            hs = hs.pkt_cost_us(v);
        }
        if let Some(v) = h.socket_overhead {
            hs = hs.socket_overhead(v);
        }
        if let Some(v) = h.rcv_buffer_bytes {
            hs = hs.rcv_buffer_bytes(v);
        }
        if let Some(v) = h.multi_socket_loss {
            hs = hs.multi_socket_loss(v);
        }
        let id = net.add_host(hs);
        for p in &h.processes {
            net.host_mut(id).register_process(p);
        }
        hosts.push((h.name.clone(), id));
    }
    let mut links: Vec<(String, LinkId)> = Vec::new();
    for l in &spec.links {
        let mut ls = LinkSpec::new(&l.name, l.bandwidth_bps, l.delay_us);
        if let Some(q) = l.queue_bytes {
            ls = ls.queue_bytes(q);
        }
        if let Some(e) = l.error_rate {
            ls = ls.error_rate(e);
        }
        links.push((l.name.clone(), net.add_link(ls)));
    }
    for r in &spec.routers {
        let resolved = r
            .links
            .iter()
            .map(|name| {
                links
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, id)| *id)
                    .ok_or_else(|| EngineError::Compile(format!("unknown link `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        net.add_router(Router::new(&r.name, resolved));
    }
    Ok(CompiledTopology { net, hosts, links })
}

pub(crate) struct GatewayRt {
    pub name: String,
    pub host: String,
    /// Does this gateway run a QoS plane (tiering + shedding)?
    pub qos: bool,
}

/// Translate a spec's qos attributes onto the library defaults.
fn qos_config(d: &spec::QosDecl) -> QosConfig {
    let mut c = QosConfig::default();
    if let Some(v) = d.retier {
        c.retier_every = v.max(1);
    }
    if let Some(v) = d.lag_enter {
        c.tiers.lag_enter = v;
    }
    if let Some(v) = d.lag_exit {
        c.tiers.lag_exit = v;
    }
    if let Some(v) = d.probation_enter {
        c.tiers.probation_enter = v;
    }
    if let Some(v) = d.probation_exit {
        c.tiers.probation_exit = v;
    }
    if let Some(v) = d.shed_enter {
        c.overload.enter = v;
    }
    if let Some(v) = d.shed_exit {
        c.overload.exit = v;
    }
    if let Some(v) = d.budget_lagging {
        c.budgets[1] = v;
    }
    if let Some(v) = d.budget_probation {
        c.budgets[2] = v;
    }
    c
}

pub(crate) struct SubscriberRt {
    pub name: String,
    pub host: String,
    /// One collector per subscribed gateway, all acting as the same
    /// consumer principal, so drains can be gated per gateway (a
    /// partition cuts one gateway off without freezing the rest).
    pub collectors: Vec<(String, EventCollector)>,
    /// Index into each collector's log of what has been latency-measured.
    pub marks: Vec<usize>,
    pub drain_us: u64,
    pub stalled_us: Option<u64>,
    pub next_drain_us: u64,
    pub cpu_of: Option<HostId>,
    /// Set when the last drain slot was skipped because the coupled host
    /// was saturated; the next (deferred) slot drains unconditionally, so
    /// a starved consumer still makes slow progress instead of none.
    pub starved: bool,
    /// Coupled host's retransmit counter at the last drain slot — receive
    /// path churn (loss recovery, interrupt storms) between slots starves
    /// the consumer just like outright CPU saturation does.
    pub last_coupled_retrans: u64,
    pub latencies_us: Vec<u64>,
}

impl SubscriberRt {
    fn effective_drain_us(&self) -> u64 {
        self.stalled_us.unwrap_or(self.drain_us)
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.collectors
            .iter()
            .map(|(_, c)| c.events().len() as u64)
            .sum()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.collectors.iter().map(|(_, c)| c.dropped()).sum()
    }
}

pub(crate) struct ReaderRt {
    pub name: String,
    pub host: String,
    pub via: String,
    pub count: u64,
    pub every_us: u64,
    pub next_at_us: u64,
    /// View snapshots taken (one per reader per period).
    pub reads: u64,
    /// Reads served from the materialized view (an `Arc` clone).
    pub served_from_views: u64,
    /// Reads that would have needed an archive scan (view unavailable) —
    /// the counter the `served_from_views` expectation pins at zero.
    pub archive_scans: u64,
    /// Events visible in the most recent snapshot read.
    pub last_snapshot_len: u64,
}

pub(crate) struct ArchiverRt {
    pub name: String,
    pub host: String,
    pub via: Vec<String>,
    pub agent: ArchiverAgent,
}

pub(crate) struct SensorRt {
    pub host: String,
    pub host_id: HostId,
    pub via: String,
    pub on: bool,
    pub every_us: u64,
    pub next_at_us: u64,
    /// Events that could not reach any gateway (host crashed upstream,
    /// partition): buffered locally, NetLogger-style, and flushed when a
    /// gateway becomes reachable again.
    pub pending: VecDeque<Event>,
    /// Self-healing routing, when `backoff=` was declared: after a failed
    /// resolution the breaker opens and the pump buffers without probing
    /// the directory again until the (jittered, exponential, sim-clock)
    /// retry time — the fail-fast discipline of the network clients.
    pub breaker: Option<CircuitBreaker>,
    /// Pumps run so far (drives the `summaries=` cadence).
    pub pumps: u64,
    /// Emit a `*_AVG_*` summary every n-th pump.
    pub summary_every: Option<u64>,
}

pub(crate) struct FlowRt {
    pub decl: spec::FlowDecl,
    pub id: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub path: Vec<LinkId>,
    /// Bytes delivered by earlier incarnations (before crash suspensions).
    pub delivered_closed: u64,
    pub suspended: bool,
}

impl FlowRt {
    pub(crate) fn cumulative_delivered(&self, net: &Network) -> u64 {
        self.delivered_closed
            + if self.suspended {
                0
            } else {
                net.flow(self.id).total_delivered
            }
    }
}

/// How many locally buffered sensor events a cut-off host keeps.
const SENSOR_BUFFER_CAP: usize = 65_536;

/// A compiled, runnable scenario: the simulated network plus a real
/// monitoring deployment driven tick-by-tick on the simulated clock.
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    pub(crate) net: Network,
    pub(crate) clock_cell: Arc<AtomicU64>,
    pub(crate) directory: Arc<DirectoryServer>,
    pub(crate) registry: GatewayRegistry,
    self_sub: Subscription,
    pub(crate) gateways: Vec<GatewayRt>,
    pub(crate) subscribers: Vec<SubscriberRt>,
    pub(crate) readers: Vec<ReaderRt>,
    pub(crate) archivers: Vec<ArchiverRt>,
    pub(crate) sensors: Vec<SensorRt>,
    pub(crate) flows: Vec<FlowRt>,
    /// Current partition groups (None = fully connected).
    pub(crate) partition: Option<Vec<Vec<String>>>,
    /// Host names currently crashed.
    pub(crate) crashed: Vec<String>,
    /// Original bandwidth of degraded links.
    pub(crate) saved_bw: Vec<(String, u64)>,
    injector: FaultInjector,
    pub(crate) published: u64,
    /// Summary (`*_AVG_*`) events emitted by `summaries=` sensor pumps.
    pub(crate) summaries_published: u64,
    /// (simulated µs, host) per sensor-breaker revival (a probe that
    /// succeeded after the breaker had opened).
    pub(crate) revival_log: Vec<(u64, String)>,
    pub(crate) self_events: Vec<SharedEvent>,
    pub(crate) fault_log: Vec<(u64, String)>,
    seconds: Vec<SecondSample>,
    last_sample: SampleCursor,
}

#[derive(Default)]
struct SampleCursor {
    data_bytes: u64,
    published: u64,
    delivered: u64,
    dropped: u64,
    next_at_us: u64,
}

impl ScenarioEngine {
    /// Parse and compile a scenario from its textual form.
    pub fn from_text(text: &str) -> Result<ScenarioEngine, EngineError> {
        Self::new(ScenarioSpec::parse(text)?)
    }

    /// Compile a parsed spec: build the network, open the flows, wire the
    /// monitoring deployment, register gateways in the directory.
    pub fn new(spec: ScenarioSpec) -> Result<ScenarioEngine, EngineError> {
        let CompiledTopology {
            mut net,
            hosts,
            links,
        } = compile_topology(&spec)?;
        let host_id = |name: &str| -> Result<HostId, EngineError> {
            hosts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, id)| *id)
                .ok_or_else(|| EngineError::Compile(format!("unknown host `{name}`")))
        };
        let resolve_path = |via: &[String]| -> Result<Vec<LinkId>, EngineError> {
            via.iter()
                .map(|name| {
                    links
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, id)| *id)
                        .ok_or_else(|| EngineError::Compile(format!("unknown link `{name}`")))
                })
                .collect()
        };

        let mut flows = Vec::new();
        for f in &spec.flows {
            let src = host_id(&f.src)?;
            let dst = host_id(&f.dst)?;
            let path = resolve_path(&f.via)?;
            let id = net.open_flow(&f.name, src, dst, f.port, path.clone(), f.window);
            match f.bytes {
                Some(b) => net.flow_mut(id).enqueue(b),
                None => net.flow_mut(id).set_unlimited(),
            }
            flows.push(FlowRt {
                decl: f.clone(),
                id,
                src,
                dst,
                path,
                delivered_closed: 0,
                suspended: false,
            });
        }

        // The monitoring plane, stamped from the shared simulated clock.
        let clock_cell = Arc::new(AtomicU64::new(net.clock().timestamp().as_micros()));
        let sink = Arc::new(EventGateway::new(GatewayConfig::open("_jamm")));
        let self_sub = sink
            .subscribe()
            .stream()
            .as_consumer("_monitor")
            .capacity(1 << 16)
            .open()
            .expect("self-gateway subscription");
        let tracer = PipelineTracer::with_clock(
            Arc::clone(&sink),
            "sim-monitor",
            spec.sample_every,
            TraceClock::shared(Arc::clone(&clock_cell)),
        );

        let directory = Arc::new(DirectoryServer::new(
            "ldap://sim-directory",
            Dn::parse("o=grid").expect("static dn"),
        ));
        let mut registry = GatewayRegistry::new();
        let mut gateways = Vec::new();
        for g in &spec.gateways {
            host_id(&g.host)?;
            let mut config = GatewayConfig::open(&g.name).with_tracer(Arc::clone(&tracer));
            if let Some(q) = &g.qos {
                config = config.with_qos(qos_config(q));
            }
            let gw = Arc::new(EventGateway::new(config));
            registry.register(&g.name, Arc::clone(&gw));
            let dn = Dn::parse(&format!("gw={},o=grid", g.name))
                .map_err(|_| EngineError::Compile(format!("bad gateway name `{}`", g.name)))?;
            directory
                .add(
                    Entry::new(dn)
                        .with("objectclass", "gateway")
                        .with("gateway", &g.name)
                        .with("host", &g.host)
                        .with("status", "up"),
                )
                .map_err(|e| EngineError::Compile(format!("directory add: {e:?}")))?;
            gateways.push(GatewayRt {
                name: g.name.clone(),
                host: g.host.clone(),
                qos: g.qos.is_some(),
            });
        }
        let gateway_exists = |name: &str| gateways.iter().any(|g| g.name == name);

        let mut subscribers = Vec::new();
        for s in &spec.subscribers {
            host_id(&s.host)?;
            let cpu_of = match &s.cpu_of {
                Some(h) => Some(host_id(h)?),
                None => None,
            };
            let mut collectors = Vec::new();
            for gw_name in &s.via {
                if !gateway_exists(gw_name) {
                    return Err(EngineError::Compile(format!(
                        "subscriber `{}` references unknown gateway `{gw_name}`",
                        s.name
                    )));
                }
                let mut c = EventCollector::new(&s.name);
                c.set_tracer(Arc::clone(&tracer));
                let gw = registry.resolve(gw_name).expect("gateway just registered");
                let sub = gw
                    .subscribe()
                    .stream()
                    .as_consumer(&s.name)
                    .capacity(s.capacity)
                    .open()
                    .map_err(|e| EngineError::Compile(format!("subscriber `{}`: {e}", s.name)))?;
                c.adopt_subscription(gw_name, sub);
                collectors.push((gw_name.clone(), c));
            }
            let marks = vec![0; collectors.len()];
            subscribers.push(SubscriberRt {
                name: s.name.clone(),
                host: s.host.clone(),
                collectors,
                marks,
                drain_us: s.drain_us.max(spec.tick_us),
                stalled_us: None,
                next_drain_us: s.drain_us.max(spec.tick_us),
                cpu_of,
                starved: false,
                last_coupled_retrans: 0,
                latencies_us: Vec::new(),
            });
        }

        let mut readers = Vec::new();
        for r in &spec.readers {
            host_id(&r.host)?;
            if !gateway_exists(&r.via) {
                return Err(EngineError::Compile(format!(
                    "readers `{}` reference unknown gateway `{}`",
                    r.name, r.via
                )));
            }
            // Register the pool's continuous query as a materialized view
            // on the gateway: from here on the publish path maintains it
            // and the readers only ever take snapshots.
            let gw = registry.resolve(&r.via).expect("gateway just registered");
            gw.register_view(&r.name, &r.query).map_err(|e| {
                EngineError::Compile(format!("readers `{}`: bad query: {e}", r.name))
            })?;
            readers.push(ReaderRt {
                name: r.name.clone(),
                host: r.host.clone(),
                via: r.via.clone(),
                count: r.count.max(1),
                every_us: r.every_us.max(spec.tick_us),
                next_at_us: r.every_us.max(spec.tick_us),
                reads: 0,
                served_from_views: 0,
                archive_scans: 0,
                last_snapshot_len: 0,
            });
        }

        let mut archivers = Vec::new();
        for a in &spec.archivers {
            host_id(&a.host)?;
            let catalog_dn = Dn::parse(&format!("archive={},o=grid", a.name))
                .map_err(|_| EngineError::Compile(format!("bad archiver name `{}`", a.name)))?;
            let mut agent = ArchiverAgent::new(
                &a.name,
                Arc::new(jamm_archive::EventArchive::new()),
                catalog_dn,
            );
            agent.set_tracer(Arc::clone(&tracer));
            for gw_name in &a.via {
                agent
                    .subscribe(&registry, gw_name, vec![])
                    .map_err(|e| EngineError::Compile(format!("archiver subscribe: {e:?}")))?;
            }
            archivers.push(ArchiverRt {
                name: a.name.clone(),
                host: a.host.clone(),
                via: a.via.clone(),
                agent,
            });
        }

        let mut sensors = Vec::new();
        for s in &spec.sensors {
            if !gateway_exists(&s.via) {
                return Err(EngineError::Compile(format!(
                    "sensors on `{}` reference unknown gateway `{}`",
                    s.host, s.via
                )));
            }
            // Deterministic jitter stream: the spec seed folded with the
            // host name, so runs of the same spec replay byte-identically.
            let breaker = s.backoff_us.map(|base| {
                let seed = s
                    .host
                    .bytes()
                    .fold(spec.seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
                    });
                CircuitBreaker::new(1, Backoff::new(base.max(1), base.max(1) * 8, seed))
            });
            sensors.push(SensorRt {
                host: s.host.clone(),
                host_id: host_id(&s.host)?,
                via: s.via.clone(),
                on: true,
                every_us: s.every_us.max(spec.tick_us),
                next_at_us: s.every_us.max(spec.tick_us),
                pending: VecDeque::new(),
                breaker,
                pumps: 0,
                summary_every: s.summary_every.map(|n| n.max(1)),
            });
        }

        let injector = FaultInjector::new(&spec.timeline);
        let first_second = 1_000_000;
        Ok(ScenarioEngine {
            spec,
            net,
            clock_cell,
            directory,
            registry,
            self_sub,
            gateways,
            subscribers,
            readers,
            archivers,
            sensors,
            flows,
            partition: None,
            crashed: Vec::new(),
            saved_bw: Vec::new(),
            injector,
            published: 0,
            summaries_published: 0,
            revival_log: Vec::new(),
            self_events: Vec::new(),
            fault_log: Vec::new(),
            seconds: Vec::new(),
            last_sample: SampleCursor {
                next_at_us: first_second,
                ..SampleCursor::default()
            },
        })
    }

    /// The spec this engine was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Is monitoring traffic between two hosts currently cut?
    ///
    /// Hosts in different partition groups cannot exchange events; hosts
    /// absent from every group are unaffected.  A crashed host is
    /// unreachable from everywhere.
    pub(crate) fn reachable(&self, a: &str, b: &str) -> bool {
        if self.crashed.iter().any(|h| h == a || h == b) {
            return false;
        }
        let Some(groups) = &self.partition else {
            return true;
        };
        let find = |h: &str| groups.iter().position(|g| g.iter().any(|n| n == h));
        match (find(a), find(b)) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => true,
        }
    }

    pub(crate) fn gateway_up(&self, name: &str) -> bool {
        self.gateways
            .iter()
            .find(|g| g.name == name)
            .is_some_and(|g| !self.crashed.contains(&g.host))
    }

    fn gateway_host(&self, name: &str) -> Option<&str> {
        self.gateways
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.host.as_str())
    }

    /// Pick the gateway a sensor on `host` publishes through: its
    /// preferred one if up and reachable, otherwise the first `status=up`
    /// gateway in the directory that is reachable — failover exactly as
    /// the paper's sensors re-resolve via the directory service.
    fn route_gateway(&self, host: &str, preferred: &str) -> Option<String> {
        let ok = |gw_name: &str| {
            self.gateway_up(gw_name)
                && self
                    .gateway_host(gw_name)
                    .is_some_and(|gh| self.reachable(host, gh))
        };
        if ok(preferred) {
            return Some(preferred.to_string());
        }
        let filter = Filter::parse("(&(objectclass=gateway)(status=up))").expect("static filter");
        let base = Dn::parse("o=grid").expect("static dn");
        let result = self.directory.search(&base, Scope::Subtree, &filter).ok()?;
        result
            .entries
            .iter()
            .filter_map(|e| e.get("gateway"))
            .find(|name| ok(name))
            .map(str::to_string)
    }

    fn pump_sensors(&mut self) {
        let now = self.net.clock().now_us();
        let ts = self.net.clock().timestamp();
        for i in 0..self.sensors.len() {
            if now < self.sensors[i].next_at_us {
                continue;
            }
            let every = self.sensors[i].every_us;
            self.sensors[i].next_at_us = now + every;
            let host_crashed = {
                let h = &self.sensors[i].host;
                self.crashed.iter().any(|c| c == h)
            };
            if !self.sensors[i].on || host_crashed {
                continue;
            }
            self.sensors[i].pumps += 1;
            // Read the simulated host and build the readings.
            let stats = *self.net.host(self.sensors[i].host_id).stats();
            let host = self.sensors[i].host.clone();
            let mk = |ty: &str, v: f64| {
                Event::builder("netlogd", host.clone())
                    .level(Level::Usage)
                    .event_type(ty)
                    .timestamp(ts)
                    .value(v)
                    .build()
            };
            let mut batch = vec![
                mk(keys::cpu::TOTAL, stats.cpu_user_pct + stats.cpu_sys_pct),
                mk(keys::mem::FREE, stats.mem_free_kb as f64),
                mk(keys::tcp::RETRANSMITS, stats.tcp_retransmits as f64),
            ];
            // Every n-th pump also emits a summary reading — the
            // protected (`_AVG_`) stream overload shedding never cuts.
            if let Some(n) = self.sensors[i].summary_every {
                if self.sensors[i].pumps.is_multiple_of(n) {
                    batch.push(mk(
                        &format!("{}_AVG_1M", keys::cpu::TOTAL),
                        stats.cpu_user_pct + stats.cpu_sys_pct,
                    ));
                    self.summaries_published += 1;
                }
            }
            // With a breaker, a pump whose last resolution failed does
            // not touch the directory again until the retry time — it
            // fails fast and buffers, exactly like an open-circuit
            // network client.
            let allowed = match &mut self.sensors[i].breaker {
                Some(br) => br.allow(now),
                None => true,
            };
            let routed = if allowed {
                self.route_gateway(&self.sensors[i].host, &self.sensors[i].via.clone())
            } else {
                None
            };
            if allowed {
                if let Some(br) = &mut self.sensors[i].breaker {
                    if routed.is_some() {
                        let before = br.stats().revivals;
                        br.record_success();
                        if br.stats().revivals > before {
                            self.revival_log.push((now, self.sensors[i].host.clone()));
                        }
                    } else {
                        br.record_failure(now);
                    }
                }
            }
            match routed {
                Some(gw_name) => {
                    let gw = self
                        .registry
                        .resolve(&gw_name)
                        .expect("routed gateway is registered");
                    // Flush anything buffered while cut off, then publish.
                    while let Some(e) = self.sensors[i].pending.pop_front() {
                        gw.publish(&e);
                        self.published += 1;
                    }
                    for e in batch {
                        gw.publish(&e);
                        self.published += 1;
                    }
                }
                None => {
                    let pending = &mut self.sensors[i].pending;
                    for e in batch {
                        if pending.len() == SENSOR_BUFFER_CAP {
                            pending.pop_front();
                        }
                        pending.push_back(e);
                    }
                }
            }
        }
    }

    fn drain_subscribers(&mut self) {
        let now = self.net.clock().now_us();
        let now_abs = self.net.clock().timestamp().as_micros();
        for i in 0..self.subscribers.len() {
            if now < self.subscribers[i].next_drain_us {
                continue;
            }
            let period = self.subscribers[i].effective_drain_us();
            // A consumer coupled to a busy host is starved of CPU: its
            // drain slot is deferred 32x, so watched events sit in the
            // subscription queue — the stage gap diagnose() sees.  "Busy"
            // is either outright CPU saturation or receive-path churn
            // (retransmit processing) since the last slot.  The deferred
            // slot itself drains even if the host is still busy (slow
            // progress, not none).
            if let Some(h) = self.subscribers[i].cpu_of {
                let stats = self.net.host(h).stats();
                let retrans = stats.tcp_retransmits;
                let busy = self.net.host(h).receiver_saturated()
                    || retrans > self.subscribers[i].last_coupled_retrans;
                self.subscribers[i].last_coupled_retrans = retrans;
                if !self.subscribers[i].starved && busy {
                    self.subscribers[i].next_drain_us = now + period * 32;
                    self.subscribers[i].starved = true;
                    continue;
                }
            }
            self.subscribers[i].starved = false;
            self.subscribers[i].next_drain_us = now + period;
            let host_down = {
                let h = &self.subscribers[i].host;
                self.crashed.iter().any(|c| c == h)
            };
            if host_down {
                continue;
            }
            let sub_host = self.subscribers[i].host.clone();
            for ci in 0..self.subscribers[i].collectors.len() {
                let gw_name = self.subscribers[i].collectors[ci].0.clone();
                let up = self.gateway_up(&gw_name);
                let reach = self
                    .gateway_host(&gw_name)
                    .map(str::to_string)
                    .is_some_and(|gh| self.reachable(&sub_host, &gh));
                if !up || !reach {
                    continue;
                }
                let sub = &mut self.subscribers[i];
                let (_, collector) = &mut sub.collectors[ci];
                collector.poll();
                let log = collector.events();
                for e in &log[sub.marks[ci]..] {
                    let lat = now_abs.saturating_sub(e.timestamp.as_micros());
                    sub.latencies_us.push(lat);
                }
                sub.marks[ci] = log.len();
            }
        }
    }

    /// Dashboard reader pools: each period, every reader in the pool
    /// takes the view's current snapshot.  A successful snapshot is an
    /// `Arc` clone — counted as served-from-view; a failed one (view
    /// missing) is what *would* have forced an archive scan, and the
    /// `served_from_views` expectation pins that counter at zero.
    fn poll_readers(&mut self) {
        let now = self.net.clock().now_us();
        for i in 0..self.readers.len() {
            if now < self.readers[i].next_at_us {
                continue;
            }
            let every = self.readers[i].every_us;
            self.readers[i].next_at_us = now + every;
            let host = self.readers[i].host.clone();
            if self.crashed.contains(&host) {
                continue;
            }
            let gw_name = self.readers[i].via.clone();
            let reach = self.gateway_up(&gw_name)
                && self
                    .gateway_host(&gw_name)
                    .map(str::to_string)
                    .is_some_and(|gh| self.reachable(&host, &gh));
            if !reach {
                continue;
            }
            let gw = self
                .registry
                .resolve(&gw_name)
                .expect("reader gateway is registered");
            // One deterministic snapshot cut per period (bounded
            // staleness), then the whole pool reads it concurrently.
            gw.views().flush();
            let r = &mut self.readers[i];
            for _ in 0..r.count {
                r.reads += 1;
                match gw.view_snapshot(&r.name, &r.name) {
                    Ok(snap) => {
                        r.served_from_views += 1;
                        r.last_snapshot_len = snap.events.len() as u64;
                    }
                    Err(_) => r.archive_scans += 1,
                }
            }
        }
    }

    fn poll_archivers(&mut self) {
        for i in 0..self.archivers.len() {
            let host = self.archivers[i].host.clone();
            if self.crashed.contains(&host) {
                continue;
            }
            let ok = self.archivers[i].via.iter().all(|gw| {
                self.gateway_up(gw)
                    && self
                        .gateway_host(gw)
                        .is_some_and(|gh| self.reachable(&host, gh))
            });
            if ok {
                self.archivers[i].agent.poll();
            }
        }
    }

    fn sample_second(&mut self) {
        let now = self.net.clock().now_us();
        while now >= self.last_sample.next_at_us {
            let sec = self.last_sample.next_at_us / 1_000_000;
            let data_bytes: u64 = self
                .flows
                .iter()
                .map(|f| f.cumulative_delivered(&self.net))
                .sum();
            let delivered: u64 = self.subscribers.iter().map(|s| s.delivered()).sum();
            let dropped: u64 = self.subscribers.iter().map(|s| s.dropped()).sum();
            self.seconds.push(SecondSample {
                sec,
                data_mbps: (data_bytes - self.last_sample.data_bytes) as f64 * 8.0 / 1e6,
                published: self.published - self.last_sample.published,
                delivered: delivered - self.last_sample.delivered,
                dropped: dropped - self.last_sample.dropped,
            });
            self.last_sample = SampleCursor {
                data_bytes,
                published: self.published,
                delivered,
                dropped,
                next_at_us: self.last_sample.next_at_us + 1_000_000,
            };
        }
    }

    /// Advance one simulated tick: apply due faults, pump sensors, step
    /// the network, drain consumers and the self-lifeline stream.
    pub fn step(&mut self) {
        self.clock_cell
            .store(self.net.clock().timestamp().as_micros(), Ordering::Relaxed);
        let due = self.injector.due(self.net.clock().now_us());
        for entry in due {
            self.apply(&entry);
        }
        self.pump_sensors();
        self.net.step();
        self.clock_cell
            .store(self.net.clock().timestamp().as_micros(), Ordering::Relaxed);
        self.drain_subscribers();
        self.poll_readers();
        self.poll_archivers();
        self.self_events.extend(self.self_sub.drain());
        self.sample_second();
    }

    /// Run the scenario to its declared duration and produce the report.
    pub fn run(mut self) -> ScenarioReport {
        while self.net.clock().now_us() < self.spec.duration_us {
            self.step();
        }
        self.finish()
    }

    fn finish(mut self) -> ScenarioReport {
        // Final drain so nothing in flight is lost to the report.
        self.drain_subscribers();
        let tail = self.self_sub.drain();
        self.self_events.extend(tail);
        let consumers = self
            .subscribers
            .iter()
            .map(|s| ConsumerReport {
                name: s.name.clone(),
                delivered: s.delivered(),
                dropped: s.dropped(),
                delivered_summaries: s
                    .collectors
                    .iter()
                    .map(|(_, c)| {
                        c.events()
                            .iter()
                            .filter(|e| e.event_type.contains("_AVG_"))
                            .count() as u64
                    })
                    .sum(),
                latencies_us: s.latencies_us.clone(),
            })
            .collect();
        let archived = self
            .archivers
            .iter()
            .map(|a| (a.name.clone(), a.agent.archive().len() as u64))
            .collect();
        let readers = self
            .readers
            .iter()
            .map(|r| analysis::ReaderReport {
                name: r.name.clone(),
                count: r.count,
                reads: r.reads,
                served_from_views: r.served_from_views,
                archive_scans: r.archive_scans,
                last_snapshot_len: r.last_snapshot_len,
            })
            .collect();
        let qos = self
            .gateways
            .iter()
            .filter(|g| g.qos)
            .filter_map(|g| {
                let gw = self.registry.resolve(&g.name)?;
                let snap = gw.qos_snapshot()?;
                Some(analysis::GatewayQosReport {
                    gateway: g.name.clone(),
                    level: snap.level.as_str().to_string(),
                    pressure: snap.pressure,
                    shed: snap.shed,
                    budget_drops: snap.budget_drops,
                    retiers: snap.retiers,
                    tiers: gw
                        .tier_report()
                        .into_iter()
                        .map(|r| (r.consumer, r.tier.as_str().to_string()))
                        .collect(),
                })
            })
            .collect();
        ScenarioReport {
            name: self.spec.name.clone(),
            seed: self.spec.seed,
            duration_us: self.spec.duration_us,
            seconds: self.seconds,
            consumers,
            archived,
            readers,
            qos,
            self_dropped: self.self_sub.dropped(),
            summaries_published: self.summaries_published,
            revivals: self.revival_log,
            self_events: self.self_events,
            fault_log: self.fault_log,
            published: self.published,
            timeline: self.spec.timeline.clone(),
        }
    }
}
