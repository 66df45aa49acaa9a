//! The testbed: declarative scenarios run by real JAMM components.
//!
//! Fault scenarios are *tests*, not demos: a config-driven simulator in
//! the simba style (declarative config + a result analyser).  This
//! module compiles a [`ScenarioSpec`] — the
//! text format of `jamm_netsim::spec`, describing hosts, links, TCP
//! flows, the monitored application (the MATISSE frame player), a
//! monitoring deployment (event gateways, subscribing consumers,
//! archivers, per-host sensors, a recovery administrator) and a fault
//! timeline —
//! onto the `jamm_netsim` simulator, runs it on the simulated clock
//! with **no wall-clock dependence anywhere**, and hands back a
//! [`ScenarioReport`] with a fluent assertion API
//! ([`ScenarioReport::expect`]).
//!
//! Every monitoring component is the real one: each `sensors` line is a
//! `jamm_manager` [`SensorManager`] sampling the simulated host through
//! `jamm_sensors` and publishing its sensors in the testbed's
//! directory, `jamm_gateway` gateways carry a `PipelineTracer` whose
//! [`TraceClock`] is the shared simulated-time cell, the consumers are
//! `jamm_consumers` collectors and archivers, and a `jamm_directory`
//! server serves gateway failover.  The self-lifeline events the tracer
//! emits therefore measure *simulated* stage-to-stage latencies, and
//! `jamm_netlogger::analysis::diagnose` localizes injected bottlenecks
//! exactly the way the paper's human analyst localized the MATISSE
//! receive-host collapse.
//!
//! The paper's two deployments are specs too: [`matisse`] (§6, Figure 4)
//! and [`farm`] (§1.1) render them.  A caller adjusts the returned spec's
//! fields, compiles it with [`ScenarioEngine::new`], and either runs it to
//! a report or steps it with [`ScenarioEngine::run_until`] and reads the
//! live components.

pub mod analysis;
mod deployments;
pub mod faults;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::overview::OverviewMonitor;
use jamm_consumers::procmon::{ProcessMonitorConsumer, RecoveryAction};
use jamm_consumers::GatewayRegistry;
use jamm_core::flow::{EventSink, SinkError};
use jamm_core::query::Predicate;
use jamm_core::sync::Mutex;
use jamm_core::{Backoff, CircuitBreaker};
use jamm_directory::{DirectoryServer, Dn, Entry, Filter, Scope};
use jamm_gateway::{EventGateway, GatewayConfig, PipelineTracer, QosConfig, TraceClock};
use jamm_manager::manager::PortActivitySource;
use jamm_manager::{ManagerConfig, RunPolicy, SensorConfigEntry, SensorManager, SensorTemplate};
use jamm_netsim::dpss::{DpssCluster, DpssServer, DEFAULT_BLOCK_BYTES};
use jamm_netsim::host::HostId;
use jamm_netsim::link::LinkId;
use jamm_netsim::player::{FramePlayer, PlayerConfig};
use jamm_netsim::spec::{self, compile_topology};
use jamm_netsim::{FlowId, Network, TraceLog};
use jamm_sensors::sim::NetworkSource;
use jamm_tsdb::Tsdb;
use jamm_ulm::{keys, Event, Level, SharedEvent};

pub use analysis::{
    ConsumerReport, Expectations, GatewayQosReport, ReaderReport, ScenarioReport, SecondSample,
};
pub use deployments::{farm, figure7_chart, matisse, DPSS_PORT};
pub use faults::FaultInjector;
pub use jamm_netsim::spec::{
    EngineError, Fault, QosDecl, ReaderDecl, ScenarioSpec, SpecError, TimelineEntry,
};

/// Seconds without traffic after which `port=` sensors stop again.
const PORT_IDLE_SECS: f64 = 2.0;

/// Simulated disk latency of a DPSS block server, microseconds.
const DPSS_DISK_LATENCY_US: u64 = 8_000;

/// The port monitor's view of the simulated network: bytes delivered to
/// a host's port during the last tick.
struct PortTraffic<'a>(&'a Network);

impl PortActivitySource for PortTraffic<'_> {
    fn bytes_on_port(&self, host: &str, port: u16) -> u64 {
        self.0
            .host_by_name(host)
            .map_or(0, |id| self.0.port_activity(id, port))
    }
}

/// The application of a `player` line: the DPSS serving its flows, the
/// frame player, and the NetLogger trace both write.
pub struct Player {
    host: String,
    /// The striped storage system.
    pub dpss: DpssCluster,
    /// The frame player.
    pub player: FramePlayer,
    /// Events the application emitted.
    pub trace: TraceLog,
}

/// A `recovery` line: the administrator's process monitor, which
/// restarts the watched process wherever it dies, and its overview
/// monitor, which alerts once the process is down everywhere.
pub struct Recovery {
    name: String,
    host: String,
    via: Vec<String>,
    /// The process monitor; its history lists every restart.
    pub monitor: ProcessMonitorConsumer,
    /// The overview monitor; its alerts list every full outage.
    pub overview: OverviewMonitor,
}

pub(crate) struct GatewayRt {
    pub name: String,
    pub host: String,
    pub gw: Arc<EventGateway>,
    /// Does this gateway run a QoS plane (tiering + shedding)?
    pub qos: bool,
}

/// Translate a spec's qos attributes onto the library defaults.
fn qos_config(d: &spec::QosDecl) -> QosConfig {
    let mut c = QosConfig::default();
    let set = |field: &mut f64, v: Option<f64>| *field = v.unwrap_or(*field);
    c.retier_every = d.retier.map_or(c.retier_every, |v| v.max(1));
    set(&mut c.tiers.lag_enter, d.lag_enter);
    set(&mut c.tiers.lag_exit, d.lag_exit);
    set(&mut c.tiers.probation_enter, d.probation_enter);
    set(&mut c.tiers.probation_exit, d.probation_exit);
    set(&mut c.overload.enter, d.shed_enter);
    set(&mut c.overload.exit, d.shed_exit);
    set(&mut c.budgets[1], d.budget_lagging);
    set(&mut c.budgets[2], d.budget_probation);
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

/// One `sensors` line: the host's sensor manager, its configuration
/// file and the sink it publishes through.
pub(crate) struct SensorHostRt {
    pub host: String,
    pub config: ManagerConfig,
    pub manager: SensorManager,
    pub sink: SensorSink,
    /// Are the host's sensors requested on (`sensor <h> stop|start`)?
    /// A re-versioned config rebuilds them stopped; only these restart.
    pub on: bool,
}

impl SensorHostRt {
    /// Request every configured sensor on or off.
    pub(crate) fn request(&mut self, on: bool) {
        self.on = on;
        for entry in &self.config.sensors {
            let name = entry.template.sensor_name();
            if on {
                self.manager.request_start(&name);
            } else {
                self.manager.request_stop(&name);
            }
        }
    }

    /// Re-sample at a new period: a re-versioned config, applied.
    pub(crate) fn set_period(&mut self, every_us: u64) {
        self.config.version += 1;
        for entry in &mut self.config.sensors {
            entry.frequency_secs = every_us as f64 / 1e6;
        }
        self.manager.apply_config(&self.config);
        self.request(self.on);
    }
}

/// How many locally buffered sensor events a cut-off host keeps.
const SENSOR_BUFFER_CAP: usize = 65_536;

/// The publish path of one host's sensor manager.  The manager pushes a
/// tick's events here; [`SensorSink::flush`] then routes them as one
/// batch: through the preferred gateway, or one the directory lists as
/// up, or into a bounded local buffer (NetLogger-style) that the next
/// routed tick flushes first.
pub(crate) struct SensorSink {
    /// Events pushed by the manager during the current tick.
    sampled: Mutex<Vec<SharedEvent>>,
    /// Events that could not reach any gateway (host crashed upstream,
    /// partition).
    pending: VecDeque<SharedEvent>,
    /// Self-healing routing, when `backoff=` was declared: after a failed
    /// resolution the breaker opens and the sink buffers without probing
    /// the directory again until the (jittered, exponential, sim-clock)
    /// retry time — the fail-fast discipline of the network clients.
    breaker: Option<CircuitBreaker>,
    /// Ticks that published (drives the `summaries=` cadence).
    ticks: u64,
    /// Push a `*_AVG_*` summary every n-th publishing tick.
    summary_every: Option<u64>,
}

/// What one [`SensorSink::flush`] did, for the engine's counters.
#[derive(Default)]
pub(crate) struct Flushed {
    published: u64,
    summary: bool,
    revived: bool,
}

impl EventSink<SharedEvent> for SensorSink {
    fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
        self.sampled.lock().push(SharedEvent::clone(event));
        Ok(1)
    }
}

impl SensorSink {
    /// End of a manager tick: publish what it sampled (and anything
    /// buffered before it) through the gateway `route` resolves, or
    /// buffer it.  With a breaker, a tick whose last resolution failed
    /// does not call `route` until the retry time.
    fn flush(&mut self, now_us: u64, route: impl FnOnce() -> Option<Arc<EventGateway>>) -> Flushed {
        let mut batch = std::mem::take(&mut *self.sampled.lock());
        if batch.is_empty() {
            return Flushed::default();
        }
        self.ticks += 1;
        // Every n-th tick also pushes a summary reading — the protected
        // (`_AVG_`) stream overload shedding never cuts.
        let summary = self
            .summary_every
            .filter(|n| self.ticks.is_multiple_of(*n))
            .and_then(|_| batch.iter().find(|e| e.event_type == keys::cpu::TOTAL))
            .map(|cpu| {
                Event::builder(cpu.program.clone(), cpu.host.clone())
                    .level(Level::Usage)
                    .event_type(format!("{}_AVG_1M", keys::cpu::TOTAL))
                    .timestamp(cpu.timestamp)
                    .value(cpu.value().unwrap_or(0.0))
                    .build()
            });
        let mut flushed = Flushed {
            summary: summary.is_some(),
            ..Flushed::default()
        };
        batch.extend(summary.map(SharedEvent::new));
        let allowed = self.breaker.as_mut().is_none_or(|b| b.allow(now_us));
        let routed = if allowed { route() } else { None };
        if let (true, Some(br)) = (allowed, &mut self.breaker) {
            if routed.is_some() {
                let before = br.stats().revivals;
                br.record_success();
                flushed.revived = br.stats().revivals > before;
            } else {
                br.record_failure(now_us);
            }
        }
        match routed {
            Some(gw) => {
                batch.splice(0..0, self.pending.drain(..));
                gw.publish_shared_batch(&batch);
                flushed.published = batch.len() as u64;
            }
            None => {
                for e in batch {
                    if self.pending.len() == SENSOR_BUFFER_CAP {
                        self.pending.pop_front();
                    }
                    self.pending.push_back(e);
                }
            }
        }
        flushed
    }
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
    /// A player's flow: it carries only what the DPSS enqueues, and a
    /// crash severs it for the rest of the run.
    pub idle: bool,
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

/// A compiled, runnable scenario: the simulated network plus a real
/// monitoring deployment driven tick-by-tick on the simulated clock.
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    pub(crate) net: Network,
    pub(crate) clock_cell: Arc<AtomicU64>,
    pub(crate) directory: Arc<DirectoryServer>,
    tracer: Arc<PipelineTracer>,
    pub(crate) gateways: Vec<GatewayRt>,
    pub(crate) subscribers: Vec<SubscriberRt>,
    pub(crate) readers: Vec<ReaderRt>,
    pub(crate) archivers: Vec<ArchiverRt>,
    pub(crate) sensors: Vec<SensorHostRt>,
    pub(crate) flows: Vec<FlowRt>,
    players: Vec<Player>,
    recoveries: Vec<Recovery>,
    /// Current partition groups (None = fully connected).
    pub(crate) partition: Option<Vec<Vec<String>>>,
    /// Host names currently crashed.
    pub(crate) crashed: Vec<String>,
    /// Original bandwidth of degraded links.
    pub(crate) saved_bw: Vec<(String, u64)>,
    injector: FaultInjector,
    pub(crate) published: u64,
    /// Summary (`*_AVG_*`) events pushed by `summaries=` sensor sinks.
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
        let mut topo = compile_topology(&spec)?;
        let unknown = |name: &str| EngineError::Compile(format!("unknown host `{name}`"));
        let mut flows = Vec::new();
        for f in &spec.flows {
            let src = topo.host_id(&f.src).ok_or_else(|| unknown(&f.src))?;
            let dst = topo.host_id(&f.dst).ok_or_else(|| unknown(&f.dst))?;
            let path = topo.resolve_path(&f.via)?;
            let net = &mut topo.net;
            let id = net.open_flow(&f.name, src, dst, f.port, path.clone(), f.window);
            let idle = spec.players.iter().any(|p| p.flows.contains(&f.name));
            match f.bytes {
                _ if idle => {}
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
                idle,
            });
        }
        let host_id = |name: &str| topo.host_id(name).ok_or_else(|| unknown(name));

        // Each player pulls frames from a DPSS whose block servers are the
        // sources of its flows.
        let mut players = Vec::new();
        for p in &spec.players {
            let mut servers = Vec::new();
            for name in &p.flows {
                let Some(f) = flows.iter().find(|f| f.decl.name == *name) else {
                    return Err(EngineError::Compile(format!(
                        "player on `{}` references unknown flow `{name}`",
                        p.host
                    )));
                };
                servers.push(DpssServer::new(
                    f.src,
                    &f.decl.src,
                    f.id,
                    DPSS_DISK_LATENCY_US,
                ));
            }
            if servers.is_empty() {
                return Err(EngineError::Compile(format!(
                    "player on `{}` names no flow",
                    p.host
                )));
            }
            let config = PlayerConfig {
                frame_bytes: p.frame_bytes,
                max_frames: p.max_frames,
                ..PlayerConfig::default()
            };
            players.push(Player {
                host: p.host.clone(),
                dpss: DpssCluster::new(servers, DEFAULT_BLOCK_BYTES),
                player: FramePlayer::new(host_id(&p.host)?, &p.host, config),
                trace: TraceLog::new(),
            });
        }

        // The monitoring plane, stamped from the shared simulated clock.
        let clock_cell = Arc::new(AtomicU64::new(topo.net.clock().timestamp().as_micros()));
        let tracer = PipelineTracer::with_clock(
            "sim-monitor",
            spec.sample_every,
            TraceClock::shared(Arc::clone(&clock_cell)),
        );

        let grid = Dn::root().child("o", "grid");
        let directory = Arc::new(DirectoryServer::new("ldap://sim-directory", grid.clone()));
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
                gw,
                qos: g.qos.is_some(),
            });
        }
        let gateway = |name: &str| gateways.iter().find(|g| g.name == name).map(|g| &g.gw);

        let mut subscribers = Vec::new();
        for s in &spec.subscribers {
            host_id(&s.host)?;
            let cpu_of = match &s.cpu_of {
                Some(h) => Some(host_id(h)?),
                None => None,
            };
            let mut collectors = Vec::new();
            for gw_name in &s.via {
                let Some(gw) = gateway(gw_name) else {
                    return Err(EngineError::Compile(format!(
                        "subscriber `{}` references unknown gateway `{gw_name}`",
                        s.name
                    )));
                };
                let mut c = EventCollector::new(&s.name);
                c.set_tracer(Arc::clone(&tracer));
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
            let Some(gw) = gateway(&r.via) else {
                return Err(EngineError::Compile(format!(
                    "readers `{}` reference unknown gateway `{}`",
                    r.name, r.via
                )));
            };
            // Register the pool's continuous query as a materialized view
            // on the gateway: from here on the publish path maintains it
            // and the readers only ever take snapshots.
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
            let mut agent = ArchiverAgent::new(&a.name, Arc::new(Tsdb::in_memory()), catalog_dn);
            agent.set_tracer(Arc::clone(&tracer));
            let filters = match &a.query {
                Some(q) => vec![Predicate::parse(q).map_err(|e| {
                    EngineError::Compile(format!("archiver `{}`: bad query: {e}", a.name))
                })?],
                None => Vec::new(),
            };
            for gw_name in &a.via {
                agent
                    .subscribe(&registry, gw_name, filters.clone())
                    .map_err(|e| EngineError::Compile(format!("archiver subscribe: {e:?}")))?;
            }
            archivers.push(ArchiverRt {
                name: a.name.clone(),
                host: a.host.clone(),
                via: a.via.clone(),
                agent,
            });
        }

        let mut recoveries = Vec::new();
        for r in &spec.recoveries {
            host_id(&r.host)?;
            let mut monitor = ProcessMonitorConsumer::new(&r.name);
            monitor.watch(&r.process, None, vec![RecoveryAction::Restart]);
            let mut overview = OverviewMonitor::new(&r.name);
            let hosts = (spec.hosts.iter())
                .filter(|h| h.processes.contains(&r.process))
                .map(|h| h.name.clone())
                .collect();
            overview.alert_when_all_down(format!("{}-down", r.process), &r.process, hosts);
            for gw_name in &r.via {
                if !(monitor.subscribe(&registry, gw_name)
                    && overview.subscribe(&registry, gw_name))
                {
                    return Err(EngineError::Compile(format!(
                        "recovery `{}` references unknown gateway `{gw_name}`",
                        r.name
                    )));
                }
            }
            recoveries.push(Recovery {
                name: r.name.clone(),
                host: r.host.clone(),
                via: r.via.clone(),
                monitor,
                overview,
            });
        }

        // Each `sensors` line is a sensor manager running CPU, memory and
        // TCP sensors, a process sensor per `process=` of the host and an
        // SNMP sensor per `snmp=` router, all at `every=`, started on
        // request at compile time (the host sensors by port traffic under
        // `port=`) and published in the testbed's directory on its first
        // tick.
        let mut sensors = Vec::new();
        for s in &spec.sensors {
            host_id(&s.host)?;
            if gateway(&s.via).is_none() {
                return Err(EngineError::Compile(format!(
                    "sensors on `{}` reference unknown gateway `{}`",
                    s.host, s.via
                )));
            }
            if let Some(r) = s
                .snmp
                .iter()
                .find(|r| !spec.routers.iter().any(|d| d.name == **r))
            {
                return Err(EngineError::Compile(format!(
                    "sensors on `{}` poll unknown router `{r}`",
                    s.host
                )));
            }
            let host_policy = match s.port {
                Some(port) => RunPolicy::PortTriggered {
                    port,
                    idle_secs: PORT_IDLE_SECS,
                },
                None => RunPolicy::OnRequest,
            };
            let host_sensors = [
                SensorTemplate::Cpu,
                SensorTemplate::Memory,
                SensorTemplate::Tcp,
            ];
            let processes = (spec.hosts.iter())
                .filter(|h| h.name == s.host)
                .flat_map(|h| &h.processes)
                .map(|p| SensorTemplate::Process { process: p.clone() });
            let routers = (s.snmp.iter()).map(|r| SensorTemplate::Snmp { device: r.clone() });
            let entry = |template, policy| SensorConfigEntry {
                template,
                frequency_secs: s.every_us.max(spec.tick_us) as f64 / 1e6,
                policy,
            };
            let mut config = ManagerConfig::empty(&s.host, &s.via);
            config.sensors = (host_sensors.into_iter())
                .map(|t| entry(t, host_policy.clone()))
                .chain(
                    processes
                        .chain(routers)
                        .map(|t| entry(t, RunPolicy::OnRequest)),
                )
                .collect();
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
            let mut rt = SensorHostRt {
                host: s.host.clone(),
                manager: SensorManager::new(&config, grid.clone()),
                config,
                sink: SensorSink {
                    sampled: Mutex::new(Vec::new()),
                    pending: VecDeque::new(),
                    breaker,
                    ticks: 0,
                    summary_every: s.summary_every.map(|n| n.max(1)),
                },
                on: true,
            };
            rt.request(true);
            sensors.push(rt);
        }

        let injector = FaultInjector::new(&spec.timeline);
        let first_second = 1_000_000;
        Ok(ScenarioEngine {
            spec,
            net: topo.net,
            clock_cell,
            directory,
            tracer,
            gateways,
            subscribers,
            readers,
            archivers,
            sensors,
            flows,
            players,
            recoveries,
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

    /// Gateway `name`, if it is declared and `host` can reach it.
    fn gateway_for(&self, host: &str, name: &str) -> Option<&GatewayRt> {
        self.gateways
            .iter()
            .find(|g| g.name == name)
            .filter(|g| self.reachable(host, &g.host))
    }

    /// Pick the gateway a sensor on `host` publishes through: its
    /// preferred one if up and reachable, otherwise the first `status=up`
    /// gateway in the directory that is reachable — failover exactly as
    /// the paper's sensors re-resolve via the directory service.
    fn route_gateway(&self, host: &str, preferred: &str) -> Option<Arc<EventGateway>> {
        let routed = self.gateway_for(host, preferred).or_else(|| {
            let filter = Filter::and(vec![
                Filter::eq("objectclass", "gateway"),
                Filter::eq("status", "up"),
            ]);
            let base = Dn::root().child("o", "grid");
            let result = self.directory.search(&base, Scope::Subtree, &filter).ok()?;
            (result.entries.iter()).find_map(|e| self.gateway_for(host, e.get("gateway")?))
        });
        routed.map(|g| Arc::clone(&g.gw))
    }

    /// Tick every live host's sensor manager over the simulated network
    /// and flush what it sampled.  A crashed host's manager is not ticked.
    fn tick_sensors(&mut self) {
        let now = self.net.clock().now_us();
        let ts = self.net.clock().timestamp();
        let mut sensors = std::mem::take(&mut self.sensors);
        for s in &mut sensors {
            if self.crashed.contains(&s.host) {
                continue;
            }
            let stats = NetworkSource::new(&self.net);
            let ports = PortTraffic(&self.net);
            s.manager
                .tick(ts, &stats, &ports, &s.sink, Some(&self.directory));
            let flushed = s
                .sink
                .flush(now, || self.route_gateway(&s.host, &s.config.gateway));
            self.published += flushed.published;
            self.summaries_published += u64::from(flushed.summary);
            if flushed.revived {
                self.revival_log.push((now, s.host.clone()));
            }
        }
        self.sensors = sensors;
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
            for ci in 0..self.subscribers[i].collectors.len() {
                let sub = &self.subscribers[i];
                if self.gateway_for(&sub.host, &sub.collectors[ci].0).is_none() {
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
            let r = &self.readers[i];
            let Some(gw) = self.gateway_for(&r.host, &r.via).map(|g| Arc::clone(&g.gw)) else {
                continue;
            };
            // The first read of the period cuts the snapshot; the rest of
            // the pool shares it.
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

    /// Can `host` reach every gateway in `via`?
    fn reaches_all(&self, host: &str, via: &[String]) -> bool {
        via.iter().all(|gw| self.gateway_for(host, gw).is_some())
    }

    /// Archivers drain their subscriptions and, once per simulated
    /// second, publish their catalog in the directory.
    fn poll_archivers(&mut self) {
        let new_second = self.net.clock().now_us().is_multiple_of(1_000_000);
        let ts = self.net.clock().timestamp();
        for i in 0..self.archivers.len() {
            let a = &self.archivers[i];
            if self.reaches_all(&a.host, &a.via) {
                let agent = &mut self.archivers[i].agent;
                agent.poll();
                if new_second {
                    agent.publish_catalog(&self.directory, ts);
                }
            }
        }
    }

    /// Recovery administrators act on process deaths: each restart the
    /// process monitor triggers is applied to the simulated host.
    fn poll_recoveries(&mut self) {
        for i in 0..self.recoveries.len() {
            let r = &self.recoveries[i];
            if !self.reaches_all(&r.host, &r.via) {
                continue;
            }
            let r = &mut self.recoveries[i];
            for action in r.monitor.poll() {
                if action.action != RecoveryAction::Restart {
                    continue;
                }
                if let Some(id) = self.net.host_by_name(&action.host) {
                    self.net.host_mut(id).restart_process(&action.process);
                }
            }
            r.overview.poll();
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

    /// Advance one simulated tick: apply due faults, tick the sensor
    /// managers, step the network and the application, drain consumers
    /// and the self-lifeline stream.
    pub fn step(&mut self) {
        self.clock_cell
            .store(self.net.clock().timestamp().as_micros(), Ordering::Relaxed);
        let due = self.injector.due(self.net.clock().now_us());
        for entry in due {
            self.apply(&entry);
        }
        self.tick_sensors();
        self.net.step();
        for p in &mut self.players {
            p.player.tick(&mut self.net, &mut p.dpss, &mut p.trace);
        }
        self.clock_cell
            .store(self.net.clock().timestamp().as_micros(), Ordering::Relaxed);
        self.drain_subscribers();
        self.poll_readers();
        self.poll_archivers();
        self.poll_recoveries();
        self.tracer.drain_into(&mut self.self_events);
        self.sample_second();
    }

    /// Step until the simulated clock reaches `at_us`.
    pub fn run_until(&mut self, at_us: u64) {
        while self.net.clock().now_us() < at_us {
            self.step();
        }
    }

    /// Run the scenario to its declared duration and produce the report.
    pub fn run(mut self) -> ScenarioReport {
        self.run_until(self.spec.duration_us);
        self.finish()
    }

    /// The simulated network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The testbed's directory: gateways, sensors, archive catalogs.
    pub fn directory(&self) -> &Arc<DirectoryServer> {
        &self.directory
    }

    /// A declared gateway.
    pub fn gateway(&self, name: &str) -> Option<&Arc<EventGateway>> {
        self.gateways.iter().find(|g| g.name == name).map(|g| &g.gw)
    }

    /// A declared archiver's archive.
    pub fn archive(&self, name: &str) -> Option<&Arc<Tsdb>> {
        (self.archivers.iter())
            .find(|a| a.name == name)
            .map(|a| a.agent.archive())
    }

    /// The application of the `player` line on `host`.
    pub fn player(&self, host: &str) -> Option<&Player> {
        self.players.iter().find(|p| p.host == host)
    }

    /// A declared recovery administrator.
    pub fn recovery(&self, name: &str) -> Option<&Recovery> {
        self.recoveries.iter().find(|r| r.name == name)
    }

    /// Events published to the gateways so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Every event the subscribers have drained so far.
    pub fn drained(&self) -> impl Iterator<Item = &SharedEvent> {
        (self.subscribers.iter())
            .flat_map(|s| &s.collectors)
            .flat_map(|(_, c)| c.events())
    }

    /// Mean rate at which the players' DPSS delivered data so far,
    /// Mbit/s.
    pub fn application_mbps(&self) -> f64 {
        let elapsed_us = self.net.clock().now_us();
        if elapsed_us == 0 {
            return 0.0;
        }
        let bytes: u64 = (self.players.iter())
            .flat_map(|p| p.dpss.servers())
            .map(|s| s.bytes_served)
            .sum();
        bytes as f64 * 8.0 / (elapsed_us as f64 / 1e6) / 1e6
    }

    /// The log NetLogger analysis reads: the application's trace and
    /// every drained monitoring event, time-ordered.
    pub fn merged_log(&self) -> Vec<Event> {
        let mut all: Vec<Event> = (self.players.iter())
            .flat_map(|p| p.trace.events())
            .cloned()
            .collect();
        all.extend(self.drained().map(|e| (**e).clone()));
        all.sort_by_key(|e| e.timestamp);
        all
    }

    fn finish(mut self) -> ScenarioReport {
        // Final drain so nothing in flight is lost to the report.
        self.drain_subscribers();
        self.tracer.drain_into(&mut self.self_events);
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
                let snap = g.gw.qos_snapshot()?;
                Some(analysis::GatewayQosReport {
                    gateway: g.name.clone(),
                    level: snap.level.as_str().to_string(),
                    pressure: snap.pressure,
                    shed: snap.shed,
                    budget_drops: snap.budget_drops,
                    retiers: snap.retiers,
                    tiers: g
                        .gw
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
            self_dropped: self.tracer.dropped(),
            summaries_published: self.summaries_published,
            revivals: self.revival_log,
            self_events: self.self_events,
            fault_log: self.fault_log,
            published: self.published,
            timeline: self.spec.timeline.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_HOSTS: &str = "\
scenario sensors-in-the-directory
seed 3
duration 1s
host a.lbl.gov process=worker
host b.lbl.gov process=worker
gateway gw on a.lbl.gov
subscriber ops on a.lbl.gov via=gw drain=2ms
sensors a.lbl.gov every=10ms via=gw
sensors b.lbl.gov every=10ms via=gw
at 5ms sensor b.lbl.gov stop
";

    /// `(host, sensor, status)` of every sensor entry in the directory.
    fn sensor_entries(engine: &ScenarioEngine) -> Vec<(String, String, String)> {
        let result = engine
            .directory
            .search(
                &Dn::root().child("o", "grid"),
                Scope::Subtree,
                &Filter::eq("objectclass", "sensor"),
            )
            .unwrap();
        let mut rows: Vec<_> = result
            .entries
            .iter()
            .map(|e| {
                let get = |attr| e.get(attr).unwrap().to_string();
                (get("host"), get("sensor"), get("status"))
            })
            .collect();
        rows.sort();
        rows
    }

    fn expected(b_status: &str) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        for (host, status) in [("a.lbl.gov", "running"), ("b.lbl.gov", b_status)] {
            // The host's `process=worker` adds a process sensor.
            for sensor in ["cpu", "memory", "process-worker", "tcp"] {
                rows.push((host.into(), sensor.into(), status.into()));
            }
        }
        rows
    }

    #[test]
    fn the_testbeds_sensors_are_managed_and_published_in_its_directory() {
        let mut engine = ScenarioEngine::from_text(TWO_HOSTS).unwrap();
        assert!(sensor_entries(&engine).is_empty(), "nothing before a tick");
        engine.step();
        assert_eq!(sensor_entries(&engine), expected("running"));
        // Step until the stop entry has applied; the tick that follows it
        // in the same step writes the transition.
        while engine.fault_log.is_empty() {
            assert_eq!(sensor_entries(&engine), expected("running"));
            engine.step();
        }
        assert_eq!(sensor_entries(&engine), expected("stopped"));
        let report = engine.run();
        assert!(report.consumer("ops").unwrap().delivered > 0);
    }
}
