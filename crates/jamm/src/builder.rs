//! [`JammBuilder`]: wire a complete JAMM deployment in a few lines.
//!
//! The paper's Figure 1 structure — sensor directory, per-site event
//! gateways, consumers subscribed through them — used to take a page of
//! imperative setup.  The builder names each part once and `build()`
//! returns a [`JammSystem`] holding the wired components.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use jamm_archive::EventArchive;
use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::GatewayRegistry;
use jamm_core::obs::{MetricsRegistry, MetricsSnapshot, Sample};
use jamm_core::query::{AggRow, Aggregator, Facts, Plan, Predicate};
use jamm_core::Sym;
use jamm_directory::{DirectoryServer, Dn, Filter};
use jamm_gateway::{EventGateway, GatewayConfig, PipelineTracer, QosConfig, Subscription, Tier};
use jamm_reactor::{Reactor, ReactorConfig};
use jamm_rmi::edge::{EdgeConfig, EventEdge};
use jamm_ulm::{Event, SharedEvent};

pub use crate::admin::GatewayAdminStats;

/// Name of the internal gateway self-lifeline trace events flow through.
pub const SELF_GATEWAY: &str = "_jamm";

/// Errors from [`JammBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A DN (directory suffix or archive catalog DN) did not parse.
    BadDn(String),
    /// The deployment declares no event gateway.
    NoGateways,
    /// The persistent archive directory could not be opened.
    Archive(String),
    /// The network edge (reactor or a gateway's broadcast listener) could
    /// not be brought up.
    Edge(String),
    /// The self-monitoring plane (internal `_jamm` gateway subscription)
    /// could not be wired.
    SelfMonitor(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadDn(dn) => write!(f, "invalid DN: {dn}"),
            BuildError::NoGateways => write!(f, "deployment declares no event gateway"),
            BuildError::Archive(e) => write!(f, "cannot open archive store: {e}"),
            BuildError::Edge(e) => write!(f, "cannot start network edge: {e}"),
            BuildError::SelfMonitor(e) => write!(f, "cannot wire self-monitoring: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for a [`JammSystem`].
///
/// ```
/// use jamm::JammBuilder;
/// use jamm_ulm::{Event, Level, Timestamp};
///
/// // Directory + two site gateways + a collector, end to end:
/// let mut jamm = JammBuilder::new()
///     .directory("ldap://dir.lbl.gov", "o=grid")
///     .gateway("gw.lbl.gov:8765")
///     .gateway("gw.cairn.net:8765")
///     .collector("nlv-analyst")
///     .build()?;
/// assert_eq!(jamm.gateways.len(), 2);
///
/// // The collector subscribes through every gateway...
/// assert_eq!(jamm.connect_collectors(vec![]), 2);
///
/// // ...so an event published at either site reaches it.
/// let ev = Event::builder("vmstat", "dpss1.lbl.gov")
///     .level(Level::Usage)
///     .event_type("CPU_TOTAL")
///     .timestamp(Timestamp::from_secs(1))
///     .value(42.0)
///     .build();
/// jamm.publish("gw.lbl.gov:8765", &ev);
/// jamm.poll();
/// assert_eq!(jamm.collectors[0].events().len(), 1);
/// # Ok::<(), jamm::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct JammBuilder {
    directory_url: Option<String>,
    directory_suffix: Option<String>,
    gateways: Vec<GatewayConfig>,
    collectors: Vec<String>,
    archiver: Option<(String, String)>,
    archive_dir: Option<std::path::PathBuf>,
    retention_micros: Option<u64>,
    gateway_shards: Option<usize>,
    delivery_workers: Option<usize>,
    gateway_qos: Option<QosConfig>,
    network_edge: bool,
    edge_max_connections: Option<usize>,
    edge_write_budget: Option<usize>,
    self_monitor: Option<u64>,
}

impl JammBuilder {
    /// Start an empty deployment description.
    pub fn new() -> Self {
        JammBuilder::default()
    }

    /// The sensor directory: its published URL and its suffix DN (e.g.
    /// `o=grid`).  Defaults to `ldap://directory` with suffix `o=grid`.
    pub fn directory(mut self, url: impl Into<String>, suffix: impl Into<String>) -> Self {
        self.directory_url = Some(url.into());
        self.directory_suffix = Some(suffix.into());
        self
    }

    /// Add an open event gateway published under `name`.
    pub fn gateway(mut self, name: impl Into<String>) -> Self {
        self.gateways.push(GatewayConfig::open(name));
        self
    }

    /// Add a gateway with a full configuration (ACL, summary windows).
    pub fn gateway_config(mut self, config: GatewayConfig) -> Self {
        self.gateways.push(config);
        self
    }

    /// Add an event collector acting as the given consumer principal.
    pub fn collector(mut self, consumer: impl Into<String>) -> Self {
        self.collectors.push(consumer.into());
        self
    }

    /// Add an archiver agent (with its own archive) publishing its catalog
    /// at `catalog_dn`.
    pub fn archiver(mut self, consumer: impl Into<String>, catalog_dn: impl Into<String>) -> Self {
        self.archiver = Some((consumer.into(), catalog_dn.into()));
        self
    }

    /// Store the archive persistently in `dir` (WAL + segment files)
    /// instead of in memory.  The deployment's history then survives
    /// process restart.
    pub fn archive_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.archive_dir = Some(dir.into());
        self
    }

    /// Retention policy: [`JammSystem::archive_maintenance`] expires
    /// archived events older than this many microseconds.
    pub fn retention_micros(mut self, micros: u64) -> Self {
        self.retention_micros = Some(micros);
        self
    }

    /// Retention policy expressed in whole seconds.
    pub fn retention_secs(self, secs: u64) -> Self {
        self.retention_micros(secs * 1_000_000)
    }

    /// Deployment-wide fan-out tuning: split every gateway's routing table
    /// (and per-series table) across `shards` shards.  More shards mean less
    /// contention between publisher threads carrying different event
    /// types; the default is `jamm_gateway::DEFAULT_GATEWAY_SHARDS`.
    /// Applies to every gateway in the deployment, including ones added
    /// with [`JammBuilder::gateway_config`].
    pub fn gateway_shards(mut self, shards: usize) -> Self {
        self.gateway_shards = Some(shards.max(1));
        self
    }

    /// Deployment-wide fan-out tuning: give every gateway `workers`
    /// background delivery threads (0, the default, delivers synchronously
    /// inside publish).  Call [`JammSystem::quiesce`] before reading
    /// delivery counters when workers are enabled.  Applies to every
    /// gateway in the deployment.
    pub fn delivery_workers(mut self, workers: usize) -> Self {
        self.delivery_workers = Some(workers);
        self
    }

    /// Deployment-wide delivery QoS: give every gateway a tiering and
    /// overload-shedding plane ([`jamm_gateway::qos`]).  Subscriptions are
    /// classified `fast`/`lagging`/`probation` by observed drain rate,
    /// laggards get reduced queue budgets (and, with delivery workers,
    /// their own worker pool), and under declared overload raw events are
    /// shed lowest tier first while summaries and `_jamm` self-lifelines
    /// always survive.  Tier rows and shed counters appear in
    /// [`JammSystem::admin_stats`], the metrics exposition, and the
    /// `admin.qos` RMI method.
    pub fn gateway_qos(mut self, qos: QosConfig) -> Self {
        self.gateway_qos = Some(qos);
        self
    }

    /// Give the deployment a network edge: one reactor thread runs a TCP
    /// broadcast listener per gateway ([`jamm_rmi::edge::EventEdge`]), so
    /// remote subscribers receive each gateway's stream as encoded ULM
    /// frames with encode-once/write-N fan-out.  Listener addresses come
    /// from [`JammSystem::edge_addr`]; per-socket backpressure counters
    /// appear in [`JammSystem::admin_stats`].
    pub fn network_edge(mut self, enabled: bool) -> Self {
        self.network_edge = enabled;
        self
    }

    /// Edge tuning: most simultaneous subscriber connections across the
    /// deployment's reactor (accepts beyond this are refused).
    pub fn edge_max_connections(mut self, conns: usize) -> Self {
        self.edge_max_connections = Some(conns.max(1));
        self
    }

    /// Edge tuning: most outbound bytes the reactor writes per connection
    /// per flush — bounds how long one fast socket can monopolise the
    /// loop thread.
    pub fn edge_write_budget(mut self, bytes: usize) -> Self {
        self.edge_write_budget = Some(bytes.max(1));
        self
    }

    /// Monitor the monitor: sample one in every `sample_every` published
    /// events (rounded to a power of two) and follow it through the
    /// pipeline as a NetLogger lifeline — publish, route, subscription
    /// delivery and drain, edge encode and broadcast, archive append —
    /// emitted as ULM events (`PROG=_jamm`) into an internal [`SELF_GATEWAY`]
    /// gateway.  Drain them with `JammSystem::drain_self_events` and feed
    /// them to `jamm_netlogger::analysis::diagnose` to localise the slow
    /// stage.  [`jamm_gateway::DEFAULT_SAMPLE_EVERY`] (1 in 64) is the
    /// production rate.  Trace points are stamped from the wall clock; a
    /// simulation that needs them on its own clock builds its tracer
    /// directly (`PipelineTracer::with_clock`, as the netsim scenario
    /// engine does).
    pub fn self_monitor(mut self, sample_every: u64) -> Self {
        self.self_monitor = Some(sample_every);
        self
    }

    /// Wire everything.
    pub fn build(self) -> Result<JammSystem, BuildError> {
        if self.gateways.is_empty() {
            return Err(BuildError::NoGateways);
        }
        let suffix = self
            .directory_suffix
            .unwrap_or_else(|| "o=grid".to_string());
        let suffix_dn = Dn::parse(&suffix).map_err(|_| BuildError::BadDn(suffix.clone()))?;
        let directory = Arc::new(DirectoryServer::new(
            self.directory_url
                .unwrap_or_else(|| "ldap://directory".to_string()),
            suffix_dn.clone(),
        ));
        // The self-monitoring plane: an internal, untraced gateway the
        // tracer emits lifeline events into (untraced, so tracing the
        // trace stream cannot recurse), plus the tracer all pipeline
        // stages share.
        let (self_gateway, tracer) = match self.self_monitor {
            Some(every) => {
                let sink = Arc::new(EventGateway::new(GatewayConfig::open(SELF_GATEWAY)));
                let tracer = PipelineTracer::new(Arc::clone(&sink), "jamm-monitor", every);
                (Some(sink), Some(tracer))
            }
            None => (None, None),
        };
        let mut registry = GatewayRegistry::new();
        let mut gateways = Vec::new();
        for mut config in self.gateways {
            if let Some(shards) = self.gateway_shards {
                config = config.with_shards(shards);
            }
            if let Some(workers) = self.delivery_workers {
                config = config.with_delivery_workers(workers);
            }
            if let Some(qos) = &self.gateway_qos {
                config = config.with_qos(qos.clone());
            }
            if let Some(t) = &tracer {
                config = config.with_tracer(Arc::clone(t));
            }
            let name = config.name.clone();
            let gw = Arc::new(EventGateway::new(config));
            registry.register(name, Arc::clone(&gw));
            gateways.push(gw);
        }
        let mut collectors: Vec<EventCollector> = self
            .collectors
            .into_iter()
            .map(EventCollector::new)
            .collect();
        if let Some(t) = &tracer {
            for c in &mut collectors {
                c.set_tracer(Arc::clone(t));
            }
        }
        let archive = match &self.archive_dir {
            Some(dir) => {
                Arc::new(EventArchive::open(dir).map_err(|e| BuildError::Archive(e.to_string()))?)
            }
            None => Arc::new(EventArchive::new()),
        };
        let archiver = match self.archiver {
            Some((consumer, catalog_dn)) => {
                let dn = Dn::parse(&catalog_dn).map_err(|_| BuildError::BadDn(catalog_dn))?;
                let mut agent = ArchiverAgent::new(consumer, Arc::clone(&archive), dn);
                if let Some(t) = &tracer {
                    agent.set_tracer(Arc::clone(t));
                }
                Some(agent)
            }
            None => None,
        };
        let (reactor, edges) = if self.network_edge {
            let mut config = ReactorConfig {
                thread_name: "jamm-edge".to_string(),
                ..ReactorConfig::default()
            };
            if let Some(conns) = self.edge_max_connections {
                config.max_connections = conns;
            }
            if let Some(bytes) = self.edge_write_budget {
                config.write_budget = bytes;
            }
            let reactor =
                Arc::new(Reactor::start(config).map_err(|e| BuildError::Edge(e.to_string()))?);
            let mut edges = Vec::with_capacity(gateways.len());
            for gw in &gateways {
                edges.push(
                    EventEdge::open(Arc::clone(&reactor), Arc::clone(gw), EdgeConfig::default())
                        .map_err(|e| BuildError::Edge(e.to_string()))?,
                );
            }
            (Some(reactor), edges)
        } else {
            (None, Vec::new())
        };
        // A generously bounded subscription on the self-gateway buffers
        // lifeline events until the operator drains them.
        let self_sub = match &self_gateway {
            Some(gw) => Some(
                gw.subscribe()
                    .stream()
                    .capacity(65_536)
                    .as_consumer("_monitor")
                    .open()
                    .map_err(|e| BuildError::SelfMonitor(e.to_string()))?,
            ),
            None => None,
        };
        let metrics = Arc::new(MetricsRegistry::new());
        register_metric_collectors(
            &metrics,
            &gateways,
            &edges,
            reactor.as_ref(),
            &archive,
            tracer.as_ref(),
        );
        Ok(JammSystem {
            directory,
            suffix: suffix_dn,
            registry,
            gateways,
            collectors,
            archiver,
            archive,
            retention_micros: self.retention_micros,
            edges,
            reactor,
            self_gateway,
            tracer,
            self_sub,
            self_log: Arc::new(jamm_core::sync::Mutex::new(Vec::new())),
            metrics,
            query_tiers: Arc::new(QueryTierStats::default()),
        })
    }
}

/// Register one collector per observable component: each closure captures
/// only cheap `Arc` handles to the live atomic counters, so a snapshot
/// reads exactly the numbers `admin_stats` reads.
fn register_metric_collectors(
    metrics: &MetricsRegistry,
    gateways: &[Arc<EventGateway>],
    edges: &[EventEdge],
    reactor: Option<&Arc<Reactor>>,
    archive: &Arc<EventArchive>,
    tracer: Option<&Arc<PipelineTracer>>,
) {
    use jamm_core::obs::SampleValue;
    for gw in gateways {
        let gw = Arc::clone(gw);
        metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
            use std::sync::atomic::Ordering;
            let name = gw.name().to_string();
            let stats = gw.stats();
            let with_gw = |s: Sample| s.with_label("gateway", name.clone());
            out.push(with_gw(Sample::counter(
                "jamm_gateway_events_in",
                stats.events_in.load(Ordering::Relaxed),
            )));
            out.push(with_gw(Sample::counter(
                "jamm_gateway_events_out",
                stats.events_out.load(Ordering::Relaxed),
            )));
            out.push(with_gw(Sample::counter(
                "jamm_gateway_events_dropped",
                stats.events_dropped.load(Ordering::Relaxed),
            )));
            out.push(with_gw(Sample::counter(
                "jamm_gateway_bytes_out",
                stats.bytes_out.load(Ordering::Relaxed),
            )));
            out.push(with_gw(Sample::counter(
                "jamm_gateway_queries",
                stats.queries.load(Ordering::Relaxed),
            )));
            out.push(with_gw(Sample {
                name: "jamm_gateway_route_us".to_string(),
                labels: Vec::new(),
                value: SampleValue::Histogram(stats.route_us.snapshot()),
            }));
            for report in gw.delivery_report() {
                let with_sub = |s: Sample| {
                    s.with_label("gateway", name.clone())
                        .with_label("consumer", report.consumer.clone())
                        .with_label("subscription", report.id.to_string())
                };
                out.push(with_sub(Sample::counter(
                    "jamm_subscription_delivered",
                    report.delivered,
                )));
                out.push(with_sub(Sample::counter(
                    "jamm_subscription_dropped",
                    report.dropped,
                )));
                out.push(with_sub(Sample::counter(
                    "jamm_subscription_bytes",
                    report.bytes,
                )));
            }
            if let Some(snap) = gw.qos_snapshot() {
                out.push(with_gw(Sample::gauge(
                    "jamm_gateway_overload_level",
                    snap.level as u8 as f64,
                )));
                out.push(with_gw(Sample::gauge(
                    "jamm_gateway_overload_pressure",
                    snap.pressure,
                )));
                out.push(with_gw(Sample::counter(
                    "jamm_gateway_retiers",
                    snap.retiers,
                )));
                let tier_rows = gw.tier_report();
                for tier in Tier::ALL {
                    let with_tier =
                        |s: Sample| with_gw(s).with_label("tier", tier.as_str().to_string());
                    out.push(with_tier(Sample::counter(
                        "jamm_gateway_shed_total",
                        snap.shed[tier as usize],
                    )));
                    out.push(with_tier(Sample::counter(
                        "jamm_gateway_budget_drops_total",
                        snap.budget_drops[tier as usize],
                    )));
                    out.push(with_tier(Sample::gauge(
                        "jamm_gateway_tier_subscriptions",
                        tier_rows.iter().filter(|r| r.tier == tier).count() as f64,
                    )));
                }
            }
        }));
    }
    if let Some(reactor) = reactor {
        let reactor = Arc::clone(reactor);
        metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
            let ls = reactor.loop_stats();
            out.push(Sample::counter("jamm_reactor_ticks", ls.ticks));
            out.push(Sample::counter(
                "jamm_reactor_poll_wait_ns",
                ls.poll_wait_ns,
            ));
            out.push(Sample::counter("jamm_reactor_dispatch_ns", ls.dispatch_ns));
            out.push(Sample::gauge("jamm_reactor_saturation", ls.saturation()));
            out.push(Sample::gauge(
                "jamm_reactor_connections",
                reactor.connections() as f64,
            ));
        }));
    }
    for edge in edges {
        let name = edge.gateway_name().to_string();
        let handle = edge.stats_handle();
        let listener = edge.listener();
        let gw = gateways
            .iter()
            .find(|g| g.name() == edge.gateway_name())
            .map(Arc::clone);
        let Some(reactor) = reactor.map(Arc::clone) else {
            continue;
        };
        metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
            let stats = handle.stats();
            let with_gw = |s: Sample| s.with_label("gateway", name.clone());
            out.push(with_gw(Sample::counter("jamm_edge_batches", stats.batches)));
            out.push(with_gw(Sample::counter("jamm_edge_events", stats.events)));
            out.push(with_gw(Sample::counter(
                "jamm_edge_encoded_bytes",
                stats.encoded_bytes,
            )));
            let rows: Vec<_> = reactor
                .socket_stats()
                .into_iter()
                .filter(|r| r.listener == Some(listener))
                .collect();
            out.push(with_gw(Sample::gauge(
                "jamm_edge_subscribers",
                rows.len() as f64,
            )));
            out.push(with_gw(Sample::counter(
                "jamm_edge_socket_bytes_out",
                rows.iter().map(|r| r.stats.bytes_out).sum(),
            )));
            let dropped_frames: u64 = rows.iter().map(|r| r.stats.dropped_frames).sum();
            out.push(with_gw(Sample::counter(
                "jamm_edge_socket_dropped_frames",
                dropped_frames,
            )));
            out.push(with_gw(Sample::counter(
                "jamm_edge_socket_stalls",
                rows.iter().map(|r| r.stats.stalls).sum(),
            )));
            // With a QoS plane, the edge's socket frame drops are also
            // attributed to the tier its gateway subscription currently
            // sits in, so `admin.metrics` answers "is the network edge
            // the laggard?" without scraping per-socket rows.
            if let Some(gw) = &gw {
                if gw.qos_snapshot().is_some() {
                    let tier = gw
                        .tier_report()
                        .iter()
                        .find(|r| r.consumer == "edge")
                        .map(|r| r.tier)
                        .unwrap_or(Tier::Fast);
                    out.push(
                        with_gw(Sample::counter(
                            "jamm_edge_tier_dropped_frames",
                            dropped_frames,
                        ))
                        .with_label("tier", tier.as_str().to_string()),
                    );
                }
            }
        }));
    }
    {
        let archive = Arc::clone(archive);
        metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
            let stats = archive.stats();
            out.push(Sample::counter("jamm_tsdb_appended", stats.appended()));
            out.push(Sample::counter(
                "jamm_tsdb_sealed_segments",
                stats.sealed_segments(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_compactions",
                stats.compactions(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_segments_scanned",
                stats.segments_scanned(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_segments_pruned",
                stats.segments_pruned(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_expired_events",
                stats.expired_events(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_append_errors",
                stats.append_errors(),
            ));
            out.push(Sample::counter(
                "jamm_tsdb_seal_errors",
                stats.seal_errors(),
            ));
            for (name, h) in [
                ("jamm_tsdb_append_us", stats.append_us()),
                ("jamm_tsdb_seal_us", stats.seal_us()),
                ("jamm_tsdb_compact_us", stats.compact_us()),
                ("jamm_tsdb_scan_setup_us", stats.scan_setup_us()),
            ] {
                out.push(Sample {
                    name: name.to_string(),
                    labels: Vec::new(),
                    value: SampleValue::Histogram(h.snapshot()),
                });
            }
        }));
    }
    if let Some(tracer) = tracer {
        let tracer = Arc::clone(tracer);
        metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
            out.push(Sample::gauge(
                "jamm_trace_sample_every",
                tracer.sample_every() as f64,
            ));
            out.push(Sample::counter(
                "jamm_trace_sampled",
                tracer.sampled_count(),
            ));
            out.push(Sample::counter("jamm_trace_points", tracer.point_count()));
        }));
    }
}

/// A wired JAMM deployment: directory, gateways, consumers.
pub struct JammSystem {
    /// The sensor directory.
    pub directory: Arc<DirectoryServer>,
    /// The directory's suffix DN (the root of sensor publication).
    pub suffix: Dn,
    /// Gateway registry consumers resolve through.
    pub registry: GatewayRegistry,
    /// The gateways, in declaration order.
    pub gateways: Vec<Arc<EventGateway>>,
    /// Event collectors, in declaration order.
    pub collectors: Vec<EventCollector>,
    /// The archiver agent, if one was declared.
    pub archiver: Option<ArchiverAgent>,
    /// The archive written by the archiver agent.
    pub archive: Arc<EventArchive>,
    /// Retention policy applied by [`JammSystem::archive_maintenance`].
    pub retention_micros: Option<u64>,
    /// One broadcast edge per gateway when [`JammBuilder::network_edge`]
    /// is on (declared before `reactor` so edges stop before the loop).
    pub edges: Vec<EventEdge>,
    /// The shared reactor running every edge listener, if enabled.
    pub reactor: Option<Arc<Reactor>>,
    /// The internal gateway self-lifeline trace events flow through, when
    /// [`JammBuilder::self_monitor`] is on.
    pub self_gateway: Option<Arc<EventGateway>>,
    /// The pipeline tracer every stage shares, when self-monitoring is on.
    pub tracer: Option<Arc<PipelineTracer>>,
    /// Bounded subscription buffering lifeline events until drained.
    self_sub: Option<Subscription>,
    /// Lifeline events drained so far, in arrival order — shared with the
    /// RMI `admin.diagnose` closure.
    self_log: Arc<jamm_core::sync::Mutex<Vec<SharedEvent>>>,
    /// The metrics registry every component reports through.
    metrics: Arc<MetricsRegistry>,
    /// Which tier served each [`JammSystem::query`] history answer —
    /// shared with the RMI `admin.diagnose` closure.
    query_tiers: Arc<QueryTierStats>,
}

impl std::fmt::Debug for JammSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JammSystem")
            .field("gateways", &self.gateways.len())
            .field("collectors", &self.collectors.len())
            .field("archiver", &self.archiver.is_some())
            .field("edges", &self.edges.len())
            .finish_non_exhaustive()
    }
}

impl JammSystem {
    /// Subscribe every collector to every gateway with the given extra
    /// filters (no directory discovery; that needs sensors published —
    /// see [`EventCollector::discover`]).  Returns subscriptions opened.
    pub fn connect_collectors(&mut self, extra_filters: Vec<Predicate>) -> usize {
        let names = self.registry.names();
        let mut opened = 0;
        for collector in &mut self.collectors {
            for name in &names {
                if collector.subscribe_gateway(&self.registry, name, extra_filters.clone()) {
                    opened += 1;
                }
            }
        }
        opened
    }

    /// Subscribe every collector through directory discovery: find sensors
    /// matching `filter` under the suffix, subscribe at their serving
    /// gateways with per-host filters.  Returns subscriptions opened.
    pub fn discover_and_connect(&mut self, filter: &Filter, extra: Vec<Predicate>) -> usize {
        let mut opened = 0;
        for collector in &mut self.collectors {
            collector.discover(&self.directory, &self.suffix.clone(), filter);
            opened += collector.subscribe_all(&self.registry, extra.clone());
        }
        opened
    }

    /// Subscribe the archiver at every gateway with the given filters.
    pub fn connect_archiver(&mut self, filters: Vec<Predicate>) -> usize {
        let names = self.registry.names();
        let mut opened = 0;
        if let Some(archiver) = &mut self.archiver {
            for name in &names {
                if archiver
                    .subscribe(&self.registry, name, filters.clone())
                    .is_ok()
                {
                    opened += 1;
                }
            }
        }
        opened
    }

    /// Publish one event at a named gateway.  Returns deliveries, or 0 for
    /// an unknown gateway.
    pub fn publish(&self, gateway: &str, event: &jamm_ulm::Event) -> usize {
        self.registry
            .resolve(gateway)
            .map(|gw| gw.publish(event))
            .unwrap_or(0)
    }

    /// Drain every consumer's pending subscriptions (collectors and the
    /// archiver).  Returns events moved.
    pub fn poll(&mut self) -> usize {
        let mut moved = 0;
        for collector in &mut self.collectors {
            moved += collector.poll();
        }
        if let Some(archiver) = &mut self.archiver {
            moved += archiver.poll();
        }
        moved
    }

    /// Run the archive's periodic maintenance (an administrative operation
    /// a deployment would schedule): seal the hot tier, merge small
    /// segments, apply the retention policy relative to `now`, and refresh
    /// the archive's directory entries.  Storage errors never abort the
    /// pass (each step fails clean) but are carried in the report — a
    /// retention policy that silently stopped working would otherwise look
    /// like a no-op until the disk fills.
    pub fn archive_maintenance(&mut self, now: jamm_ulm::Timestamp) -> ArchiveMaintenanceReport {
        let mut errors = Vec::new();
        let sealed = match self.archive.seal() {
            Ok(catalog) => catalog.is_some(),
            Err(e) => {
                errors.push(format!("seal: {e}"));
                false
            }
        };
        let segments_merged = match self.archive.compact() {
            Ok(n) => n,
            Err(e) => {
                errors.push(format!("compact: {e}"));
                0
            }
        };
        let events_expired = match self.retention_micros {
            Some(r) => match self.archive.expire_before(now.sub_micros(r)) {
                Ok(n) => n,
                Err(e) => {
                    errors.push(format!("retention: {e}"));
                    0
                }
            },
            None => 0,
        };
        if let Some(archiver) = &mut self.archiver {
            if !archiver.publish_catalog(&self.directory, now) {
                errors.push("catalog publication failed".to_string());
            }
        }
        ArchiveMaintenanceReport {
            sealed,
            segments_merged,
            events_expired,
            errors,
        }
    }

    /// Wait until every gateway's delivery workers have routed what they
    /// were handed (a no-op under synchronous delivery).  Call before
    /// reading [`JammSystem::admin_stats`] when
    /// [`JammBuilder::delivery_workers`] is non-zero.
    pub fn quiesce(&self) {
        for gw in &self.gateways {
            gw.quiesce();
        }
    }

    /// Administrative statistics: one row per gateway with its cumulative
    /// totals, routing latency, the per-shard delivered/dropped/bytes
    /// breakdown from the fan-out engine (per-subscription totals alone
    /// cannot show a hot shard or a skewed event-type distribution), edge
    /// socket rows and the reactor's loop saturation.  The same counters
    /// back [`JammSystem::metrics`], so both views always agree.
    pub fn admin_stats(&self) -> Vec<GatewayAdminStats> {
        crate::admin::gateway_admin_stats(&self.gateways, &self.edges, self.reactor.as_deref())
    }

    /// Point-in-time reading of every metric the deployment exposes:
    /// gateway and subscription counters, routing and storage latency
    /// histograms, edge broadcast and socket totals, reactor loop
    /// saturation, and the self-lifeline tracer's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The deployment's metrics in Prometheus-style text exposition format.
    pub fn render_metrics(&self) -> String {
        self.metrics().render_text()
    }

    /// The metrics registry itself, for registering extra collectors or
    /// serving the exposition remotely.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Expose the deployment's observability plane on an RMI bus as the
    /// `admin` service: method `metrics` returns the text exposition,
    /// method `diagnose` runs [`jamm_netlogger::analysis::diagnose`] over
    /// the lifelines drained so far and returns its report rendered as
    /// text, and method `qos` returns each gateway's delivery-QoS state —
    /// shed level, pressure, per-tier shed counters and the per-
    /// subscription tier table — as a JSON document.  Call
    /// [`JammSystem::drain_self_events`] before invoking `diagnose`
    /// remotely, or pass the lifelines explicitly.
    pub fn register_admin_rmi(&self, bus: &jamm_rmi::MessageBus) {
        use jamm_core::json::Json;
        let metrics = Arc::clone(&self.metrics);
        let self_log = Arc::clone(&self.self_log);
        let query_tiers = Arc::clone(&self.query_tiers);
        let gateways: Vec<Arc<EventGateway>> = self.gateways.iter().map(Arc::clone).collect();
        bus.register_fn("admin", move |method, _args| match method {
            "metrics" => Ok(Json::String(metrics.snapshot().render_text())),
            "diagnose" => {
                let log = self_log.lock();
                let report = jamm_netlogger::analysis::diagnose(log.iter().map(|e| e.as_ref()));
                let mut text = report.render_text();
                text.push_str(&format!(
                    "\nquery tiers: views_served={} archive_scans={}\n",
                    query_tiers.views_served.load(Relaxed),
                    query_tiers.archive_scans.load(Relaxed),
                ));
                for gw in &gateways {
                    for view in gw.views().all() {
                        text.push_str(&format!(
                            "view {}/{}: updates={} reads={}\n",
                            gw.name(),
                            view.name(),
                            view.updates(),
                            view.reads(),
                        ));
                    }
                }
                Ok(Json::String(text))
            }
            "qos" => {
                let rows = gateways
                    .iter()
                    .map(|gw| {
                        let mut obj =
                            vec![("gateway".to_string(), Json::from(gw.name().to_string()))];
                        match gw.qos_snapshot() {
                            Some(snap) => {
                                obj.push(("level".to_string(), Json::from(snap.level.as_str())));
                                obj.push(("pressure".to_string(), Json::from(snap.pressure)));
                                obj.push(("retiers".to_string(), Json::from(snap.retiers)));
                                for tier in Tier::ALL {
                                    obj.push((
                                        format!("shed_{tier}"),
                                        Json::from(snap.shed[tier as usize]),
                                    ));
                                    obj.push((
                                        format!("budget_drops_{tier}"),
                                        Json::from(snap.budget_drops[tier as usize]),
                                    ));
                                }
                                let tiers = gw
                                    .tier_report()
                                    .into_iter()
                                    .map(|r| {
                                        Json::Object(
                                            [
                                                ("id".to_string(), Json::from(r.id)),
                                                (
                                                    "consumer".to_string(),
                                                    Json::from(r.consumer.clone()),
                                                ),
                                                ("tier".to_string(), Json::from(r.tier.as_str())),
                                                ("score".to_string(), Json::from(r.score)),
                                                (
                                                    "queue_len".to_string(),
                                                    Json::from(r.queue_len as u64),
                                                ),
                                                (
                                                    "capacity".to_string(),
                                                    Json::from(r.capacity as u64),
                                                ),
                                            ]
                                            .into_iter()
                                            .collect(),
                                        )
                                    })
                                    .collect();
                                obj.push(("subscriptions".to_string(), Json::Array(tiers)));
                            }
                            None => obj.push(("qos".to_string(), Json::from(false))),
                        }
                        Json::Object(obj.into_iter().collect())
                    })
                    .collect();
                Ok(Json::Array(rows))
            }
            other => Err(jamm_rmi::RmiError::NoSuchMethod(other.to_string())),
        });
    }

    /// Feed the shared reactor's event-loop saturation into every
    /// gateway's overload machine, so declared overload reflects network-
    /// edge pressure as well as queue fill.  Call it on the same cadence
    /// as metric scrapes (or from a maintenance loop); a no-op without a
    /// network edge or without [`JammBuilder::gateway_qos`].
    pub fn feed_reactor_pressure(&self) {
        if let Some(reactor) = &self.reactor {
            let saturation = reactor.loop_stats().saturation();
            for gw in &self.gateways {
                gw.set_external_pressure(saturation);
            }
        }
    }

    /// Re-classify every gateway's subscriptions now (instead of waiting
    /// for the publish-count cadence) and refresh the declared overload
    /// level.  A no-op without [`JammBuilder::gateway_qos`].
    pub fn retier_now(&self) {
        for gw in &self.gateways {
            gw.retier_now();
        }
    }

    /// Drain lifeline trace events from the self-monitoring gateway into
    /// the retained log ([`JammSystem::self_events`]).  Returns how many
    /// arrived.  A no-op without [`JammBuilder::self_monitor`].
    pub fn drain_self_events(&mut self) -> usize {
        use jamm_core::EventSource;
        match &mut self.self_sub {
            Some(sub) => sub.drain_into(&mut self.self_log.lock()),
            None => 0,
        }
    }

    /// Snapshot of the self-lifeline trace events drained so far, in
    /// arrival order — the input to `jamm_netlogger::analysis::diagnose`.
    pub fn self_events(&self) -> Vec<SharedEvent> {
        self.self_log.lock().clone()
    }

    /// The TCP address remote subscribers connect to for a gateway's
    /// stream, when the deployment has a network edge.
    pub fn edge_addr(&self, gateway: &str) -> Option<std::net::SocketAddr> {
        self.edges
            .iter()
            .find(|e| e.gateway_name() == gateway)
            .map(|e| e.addr())
    }

    /// Stop every edge listener (subscriber connections are flushed and
    /// closed) and shut the reactor down.  Called automatically on drop;
    /// explicit shutdown makes teardown deterministic for tests and
    /// orderly restarts.
    pub fn shutdown_edges(&mut self) {
        for edge in &mut self.edges {
            edge.stop();
        }
        self.edges.clear();
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
    }

    /// Replay an archived range through a named gateway, so current
    /// subscribers (collectors, nlv-style analysis) see the historical run
    /// as a live stream.  Returns events delivered into the gateway, or 0
    /// for an unknown gateway.
    pub fn replay_through(&self, gateway: &str, plan: &Plan) -> usize {
        let Some(gw) = self.registry.resolve(gateway) else {
            return 0;
        };
        jamm_archive::ReplaySource::new(&self.archive, plan).pump(gw.as_ref())
    }

    /// The unified query endpoint: one query string, answered by every
    /// tier the deployment has.
    ///
    /// The text parses into a single query-plane predicate
    /// ([`jamm_core::query::Predicate::parse`]) whose compiled plan is
    /// evaluated against:
    ///
    /// * **live state** — every gateway's query cache (the most recent
    ///   event per series), via the same plan the gateways route with;
    /// * **summaries** — each gateway's windowed averages, filtered by
    ///   the plan's host/type pushdown facts (a summary for `CPU_TOTAL`
    ///   answers a `(type=CPU_TOTAL)` query even though its synthetic
    ///   event type is `CPU_TOTAL_AVG_1MIN`);
    /// * **history** — a materialized view when one matches the query
    ///   exactly (snapshot read, no scan), else a plan-driven archive
    ///   scan with full segment pruning and limit pushdown.  The answer's
    ///   [`QueryAnswer::history_source`] says which tier served it.
    ///
    /// Access control applies per gateway exactly as for direct queries
    /// and summary requests.
    pub fn query(
        &self,
        consumer: &str,
        query: &str,
        now: jamm_ulm::Timestamp,
    ) -> Result<QueryAnswer, QueryError> {
        let pred = Predicate::parse(query).map_err(|e| QueryError::BadQuery(e.to_string()))?;
        let plan = pred.compile();
        let canonical = pred.to_string();
        let mut live = Vec::new();
        let mut summaries = Vec::new();
        let mut view_names = Vec::new();
        let mut view_updates = 0u64;
        let mut view_history: Vec<Event> = Vec::new();
        let mut aggregates: Vec<AggRow> = Vec::new();
        for gw in &self.gateways {
            live.extend(
                gw.query_matching(consumer, &plan)
                    .map_err(|e| QueryError::Denied(e.to_string()))?,
            );
            summaries.extend(
                gw.summaries(consumer, now)
                    .map_err(|e| QueryError::Denied(e.to_string()))?
                    .into_iter()
                    .filter(|s| summary_admitted(plan.facts(), s)),
            );
            // A continuous query materializing exactly this predicate
            // (canonical text match) answers history from its snapshot —
            // one Arc clone, no archive scan, no per-reader work.
            if let Some(view) = gw.views().by_query_text(&canonical) {
                let snap = view.snapshot();
                view_names.push(format!("{}/{}", gw.name(), view.name()));
                view_updates += snap.updates;
                view_history.extend(snap.events.iter().map(|e| (**e).clone()));
                aggregates.extend(snap.aggregates.iter().cloned());
            }
        }
        let (history, history_source) = if view_names.is_empty() {
            // The historical scan runs through its own plan clone (fresh
            // stateful memory), with segment pruning and limit pushdown.
            // Provenance comes from the scan itself: the store-wide
            // counters also move under every concurrent reader.
            let scan = self.archive.scan(&plan);
            let source = HistorySource::ArchiveScan {
                segments_scanned: scan.segments_scanned(),
                segments_pruned: scan.segments_pruned(),
            };
            let history: Vec<Event> = scan.collect();
            self.query_tiers.archive_scans.fetch_add(1, Relaxed);
            // Ad-hoc aggregate queries fold the scan result; continuous
            // queries maintain theirs incrementally.
            if let Some(spec) = plan.aggregate() {
                let mut agg = Aggregator::new(spec.clone());
                for event in &history {
                    agg.push(event);
                }
                aggregates = agg.rows(now.as_micros());
            }
            (history, source)
        } else {
            self.query_tiers.views_served.fetch_add(1, Relaxed);
            let source = HistorySource::MaterializedView {
                views: view_names,
                updates: view_updates,
            };
            (view_history, source)
        };
        Ok(QueryAnswer {
            live,
            summaries,
            history,
            aggregates,
            history_source,
        })
    }

    /// Register a continuous query on every gateway: from now on each
    /// gateway maintains the materialized view on its publish path, and
    /// [`JammSystem::query`] with the same predicate text is served from
    /// view snapshots instead of archive scans.
    pub fn register_continuous_query(&self, name: &str, text: &str) -> Result<(), QueryError> {
        for gw in &self.gateways {
            gw.register_view(name, text)
                .map_err(|e| QueryError::BadQuery(e.to_string()))?;
        }
        Ok(())
    }

    /// Counters for which tier served query history — the numbers behind
    /// the scenario engine's `served_from_views` expectation.
    pub fn query_tier_stats(&self) -> &QueryTierStats {
        &self.query_tiers
    }
}

/// Does a synthetic summary event answer a query's pushdown facts?  The
/// summary's event type is `{base}_AVG_{window}`, so the type fact matches
/// against the base series type; the host fact matches directly.  Time
/// bounds and severity floors are about raw events, not rollups, and are
/// not applied here.
fn summary_admitted(facts: &Facts, summary: &Event) -> bool {
    if let Some(hosts) = &facts.hosts {
        let ok = Sym::lookup(&summary.host).is_some_and(|h| hosts.contains(&h));
        if !ok {
            return false;
        }
    }
    if let Some(types) = &facts.types {
        let ok = types.iter().any(|t| {
            summary
                .event_type
                .strip_prefix(t.as_str())
                .is_some_and(|rest| rest.starts_with("_AVG_"))
        });
        if !ok {
            return false;
        }
    }
    true
}

/// What [`JammSystem::query`] returns: the same question answered by each
/// tier of the deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Most recent matching event per live series, from every gateway's
    /// query cache (shared handles; nothing is copied).
    pub live: Vec<SharedEvent>,
    /// Windowed summary events whose series the query selects.
    pub summaries: Vec<Event>,
    /// Matching archived history, in time order (limit applied by the
    /// storage engine's scan).
    pub history: Vec<Event>,
    /// Aggregate rows when the query carries group-by / top-k / rate
    /// directives — maintained incrementally when a view served the
    /// query, folded from the scan otherwise.
    pub aggregates: Vec<AggRow>,
    /// Which tier produced [`QueryAnswer::history`].
    pub history_source: HistorySource,
}

/// Provenance of a [`QueryAnswer`]'s history: which tier actually did
/// the work.  Tests and `admin.diagnose` assert on this instead of
/// guessing from timings.
#[derive(Debug, Clone, PartialEq)]
pub enum HistorySource {
    /// Served from continuous-query snapshots — no archive scan ran.
    MaterializedView {
        /// `gateway/view` labels of every snapshot consulted.
        views: Vec<String>,
        /// Total publish-path updates folded into those snapshots.
        updates: u64,
    },
    /// Served by scanning the archive.
    ArchiveScan {
        /// Segments whose catalog admitted the query.  The scan opens them
        /// lazily, in time order, so a `(limit=N)` may stop short of some.
        segments_scanned: u64,
        /// Segments skipped whole by catalog pruning.
        segments_pruned: u64,
    },
}

/// Counters for which tier served [`JammSystem::query`] history answers.
#[derive(Debug, Default)]
pub struct QueryTierStats {
    /// Queries answered from materialized views (no scan).
    pub views_served: AtomicU64,
    /// Queries that fell back to an archive scan.
    pub archive_scans: AtomicU64,
}

/// Errors from [`JammSystem::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query string did not parse.
    BadQuery(String),
    /// A gateway's access policy rejected the consumer.
    Denied(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadQuery(e) => write!(f, "bad query: {e}"),
            QueryError::Denied(e) => write!(f, "query denied: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// What one [`JammSystem::archive_maintenance`] pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveMaintenanceReport {
    /// Whether the hot tier had events to seal.
    pub sealed: bool,
    /// Net segments removed by compaction merges.
    pub segments_merged: usize,
    /// Events dropped by the retention policy.
    pub events_expired: usize,
    /// Steps that failed (each step fails clean; the rest of the pass
    /// still runs).
    pub errors: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_ulm::{Event, Level, Timestamp};

    fn ev(host: &str, level: Level, t: u64) -> Event {
        Event::builder("sensor", host)
            .level(level)
            .event_type("CPU_TOTAL")
            .timestamp(Timestamp::from_secs(t))
            .value(50.0)
            .build()
    }

    #[test]
    fn builder_requires_a_gateway_and_valid_dns() {
        assert_eq!(
            JammBuilder::new().build().unwrap_err(),
            BuildError::NoGateways
        );
        assert!(matches!(
            JammBuilder::new()
                .directory("ldap://x", "not a dn !!")
                .gateway("gw")
                .build(),
            Err(BuildError::BadDn(_))
        ));
        assert!(matches!(
            JammBuilder::new()
                .gateway("gw")
                .archiver("a", "also not a dn !!")
                .build(),
            Err(BuildError::BadDn(_))
        ));
    }

    #[test]
    fn full_system_flows_events_to_collector_and_archiver() {
        let mut jamm = JammBuilder::new()
            .directory("ldap://dir", "o=grid")
            .gateway("gw1")
            .gateway("gw2")
            .collector("ops")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        assert_eq!(jamm.connect_collectors(vec![]), 2);
        assert_eq!(
            jamm.connect_archiver(vec![Predicate::MinLevel(Level::Warning.severity())]),
            2
        );
        jamm.publish("gw1", &ev("h1", Level::Usage, 1));
        jamm.publish("gw2", &ev("h2", Level::Error, 2));
        assert_eq!(jamm.publish("missing", &ev("h", Level::Usage, 3)), 0);
        jamm.poll();
        assert_eq!(jamm.collectors[0].events().len(), 2);
        assert_eq!(jamm.archive.len(), 1, "archiver only keeps problems");
    }

    #[test]
    fn default_directory_is_provided() {
        let jamm = JammBuilder::new().gateway("gw").build().unwrap();
        assert_eq!(jamm.directory.entry_count(), 0);
        assert_eq!(jamm.suffix, Dn::parse("o=grid").unwrap());
        assert!(jamm.archiver.is_none());
    }

    #[test]
    fn persistent_archive_and_retention_are_wired() {
        let dir = jamm_tsdb::test_util::TempDir::new("builder-archive");
        {
            let mut jamm = JammBuilder::new()
                .gateway("gw1")
                .archiver("archiver", "archive=main,o=grid")
                .archive_dir(dir.path())
                .retention_secs(60)
                .build()
                .unwrap();
            jamm.connect_archiver(vec![]);
            for t in 0..50u64 {
                jamm.publish("gw1", &ev("h", Level::Usage, t));
            }
            jamm.poll();
            // Maintenance at t=100: retention 60s expires t < 40.
            let report = jamm.archive_maintenance(Timestamp::from_secs(100));
            assert!(report.sealed);
            assert_eq!(report.events_expired, 40);
            assert!(report.errors.is_empty());
            assert_eq!(jamm.archive.len(), 10);
            // The refreshed catalog entry reflects the cut.
            let dn = Dn::parse("archive=main,o=grid").unwrap();
            let entry = jamm.directory.lookup(&dn).unwrap();
            assert_eq!(entry.get("eventcount"), Some("10"));
        }
        // A new system over the same directory sees the surviving history.
        let jamm = JammBuilder::new()
            .gateway("gw1")
            .archiver("archiver", "archive=main,o=grid")
            .archive_dir(dir.path())
            .build()
            .unwrap();
        assert_eq!(jamm.archive.len(), 10);
    }

    #[test]
    fn fanout_knobs_and_admin_stats_expose_per_shard_counters() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .gateway("gw2")
            .collector("ops")
            .gateway_shards(4)
            .delivery_workers(2)
            .build()
            .unwrap();
        assert!(jamm
            .gateways
            .iter()
            .all(|gw| gw.shard_count() == 4 && gw.delivery_worker_count() == 2));
        jamm.connect_collectors(vec![]);
        for t in 0..40u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, t));
        }
        jamm.quiesce();
        let stats = jamm.admin_stats();
        assert_eq!(stats.len(), 2);
        let gw1 = &stats[0];
        assert_eq!(gw1.name, "gw1");
        assert_eq!(gw1.events_in, 40);
        assert_eq!(gw1.events_out, 40);
        assert_eq!(gw1.delivery_workers, 2);
        assert_eq!(gw1.shards.len(), 4);
        // The shard rows decompose the gateway totals.
        assert_eq!(gw1.shards.iter().map(|s| s.events_in).sum::<u64>(), 40);
        assert_eq!(gw1.shards.iter().map(|s| s.delivered).sum::<u64>(), 40);
        assert_eq!(
            gw1.shards.iter().map(|s| s.bytes).sum::<u64>(),
            gw1.bytes_out
        );
        assert_eq!(gw1.subscriptions.len(), 1);
        assert_eq!(gw1.subscriptions[0].delivered, 40);
        // The idle gateway's rows are all zero but still present.
        assert_eq!(stats[1].events_in, 0);
        assert_eq!(stats[1].shards.len(), 4);
    }

    #[test]
    fn network_edge_broadcasts_to_remote_subscribers() {
        use std::io::Read as _;
        use std::time::{Duration, Instant};

        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .collector("ops")
            .network_edge(true)
            .edge_max_connections(64)
            .edge_write_budget(64 * 1024)
            .build()
            .unwrap();
        let addr = jamm.edge_addr("gw1").unwrap();
        assert!(jamm.edge_addr("missing").is_none());
        jamm.connect_collectors(vec![]);

        let mut sub = std::net::TcpStream::connect(addr).unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while jamm.edges[0].subscribers() < 1 {
            assert!(Instant::now() < deadline, "subscriber never registered");
            std::thread::sleep(Duration::from_millis(2));
        }

        let events: Vec<Event> = (0..8).map(|t| ev("h1", Level::Usage, t)).collect();
        for e in &events {
            jamm.publish("gw1", e);
        }

        // The remote subscriber sees the same stream local consumers get,
        // as binary ULM frames.
        let codec = jamm_ulm::codec::codec_for(jamm_ulm::codec::BINARY).unwrap();
        let expected: usize = events.iter().map(|e| codec.encode(e).len()).sum();
        let mut got = vec![0u8; expected];
        sub.read_exact(&mut got).unwrap();
        assert_eq!(codec.decode_batch(&got).unwrap(), events);
        jamm.poll();
        assert_eq!(jamm.collectors[0].events().len(), 8);

        // admin_stats carries the per-socket backpressure rows.  The loop
        // thread's counters are eventually consistent with the bytes the
        // client has read.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = jamm.admin_stats();
            let rows = &stats[0].sockets;
            if rows.len() == 1 && rows[0].stats.bytes_out as usize >= expected {
                assert_eq!(rows[0].stats.dropped_frames, 0);
                break;
            }
            assert!(Instant::now() < deadline, "socket row never converged");
            std::thread::sleep(Duration::from_millis(2));
        }

        jamm.shutdown_edges();
        assert!(jamm.admin_stats()[0].sockets.is_empty());
        let mut rest = Vec::new();
        sub.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "edge shutdown flushed then closed");
    }

    #[test]
    fn unified_query_answers_from_cache_summaries_and_archive() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        for t in 0..30u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 1_000 + t));
            jamm.publish(
                "gw1",
                &Event::builder("sensor", "h2")
                    .level(Level::Warning)
                    .event_type("MEM_FREE")
                    .timestamp(Timestamp::from_secs(1_000 + t))
                    .value(t as f64)
                    .build(),
            );
        }
        jamm.poll();

        let answer = jamm
            .query(
                "ops",
                "(&(type=CPU_TOTAL)(host=h1))",
                Timestamp::from_secs(1_030),
            )
            .unwrap();
        // Live: the cached latest CPU reading for h1 only.
        assert_eq!(answer.live.len(), 1);
        assert_eq!(answer.live[0].event_type, "CPU_TOTAL");
        assert_eq!(answer.live[0].timestamp, Timestamp::from_secs(1_029));
        // Summaries: the CPU series' windows, not MEM_FREE's.
        assert!(!answer.summaries.is_empty());
        assert!(answer
            .summaries
            .iter()
            .all(|s| s.event_type.starts_with("CPU_TOTAL_AVG")));
        // History: all 30 archived CPU events, in time order.
        assert_eq!(answer.history.len(), 30);
        assert!(answer.history.iter().all(|e| e.event_type == "CPU_TOTAL"));

        // The same endpoint takes richer predicates: severity floor plus
        // limit pushdown against the archive.
        let warn = jamm
            .query(
                "ops",
                "(&(level>=warning)(limit=5))",
                Timestamp::from_secs(1_030),
            )
            .unwrap();
        assert_eq!(warn.history.len(), 5);
        assert!(warn.history.iter().all(|e| e.event_type == "MEM_FREE"));

        // Parse errors surface, not panic.
        assert!(matches!(
            jamm.query("ops", "(nonsense", Timestamp::from_secs(0)),
            Err(QueryError::BadQuery(_))
        ));
    }

    #[test]
    fn continuous_queries_serve_history_without_archive_scans() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        let text = "(&(type=CPU_TOTAL)(host=h1))";

        // Before any view exists the archive serves history and says so.
        jamm.publish("gw1", &ev("h1", Level::Usage, 1_000));
        jamm.poll();
        let cold = jamm
            .query("ops", text, Timestamp::from_secs(1_001))
            .unwrap();
        assert!(matches!(
            cold.history_source,
            HistorySource::ArchiveScan { .. }
        ));
        assert_eq!(jamm.query_tier_stats().archive_scans.load(Relaxed), 1);

        // Register the view; matching publishes fold in from then on.
        jamm.register_continuous_query("hot-cpu", text).unwrap();
        for t in 0..10u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 2_000 + t));
            jamm.publish("gw1", &ev("h2", Level::Usage, 2_000 + t)); // filtered
        }
        jamm.gateways[0].views().flush();

        let scans_before = jamm.archive.stats().segments_scanned();
        let warm = jamm
            .query("ops", text, Timestamp::from_secs(2_010))
            .unwrap();
        match &warm.history_source {
            HistorySource::MaterializedView { views, updates } => {
                assert_eq!(views, &["gw1/hot-cpu".to_string()]);
                assert_eq!(*updates, 10);
            }
            other => panic!("expected view provenance, got {other:?}"),
        }
        assert_eq!(warm.history.len(), 10);
        assert!(warm.history.iter().all(|e| e.host == "h1"));
        // The archive was not touched: zero new segment scans.
        assert_eq!(jamm.archive.stats().segments_scanned(), scans_before);
        assert_eq!(jamm.query_tier_stats().views_served.load(Relaxed), 1);

        // A *different* predicate still falls back to the archive.
        let miss = jamm
            .query("ops", "(type=MEM_FREE)", Timestamp::from_secs(2_010))
            .unwrap();
        assert!(matches!(
            miss.history_source,
            HistorySource::ArchiveScan { .. }
        ));
        assert_eq!(jamm.query_tier_stats().archive_scans.load(Relaxed), 2);

        // Bad view queries are rejected at registration.
        assert!(matches!(
            jamm.register_continuous_query("bad", "((("),
            Err(QueryError::BadQuery(_))
        ));
    }

    #[test]
    fn concurrent_queries_each_report_their_own_scan_provenance() {
        let jamm = JammBuilder::new()
            .gateway("gw1")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        // Six sealed segments, one second of history each.
        for seg in 0..6u64 {
            let events: Vec<_> = (0..4)
                .map(|i| Arc::new(ev("h1", Level::Usage, 100 * seg + i)))
                .collect();
            jamm.archive.store(&events).unwrap();
            jamm.archive.seal().unwrap();
        }
        // One reader's query prunes to a single segment, the other's reads
        // all six; with provenance taken from store-wide counter deltas
        // each would also report segments of the other's scans.
        let start = std::sync::Barrier::new(2);
        let reader = |query: &str, want: (u64, u64)| {
            start.wait();
            for _ in 0..300 {
                let answer = jamm.query("ops", query, Timestamp::from_secs(1_000));
                match answer.unwrap().history_source {
                    HistorySource::ArchiveScan {
                        segments_scanned,
                        segments_pruned,
                    } => assert_eq!((segments_scanned, segments_pruned), want, "{query}"),
                    other => panic!("expected an archive scan, got {other:?}"),
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| reader("(&(time>=200000000)(time<204000000))", (1, 5)));
            s.spawn(|| reader("(type=CPU_TOTAL)", (6, 0)));
        });
    }

    #[test]
    fn aggregate_queries_fold_rows_from_either_tier() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        let text = "(&(type=CPU_TOTAL)(groupby=host)(topk=2))";
        for t in 0..6u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 1_000 + t));
        }
        for t in 0..3u64 {
            jamm.publish("gw1", &ev("h2", Level::Usage, 1_000 + t));
        }
        jamm.publish("gw1", &ev("h3", Level::Usage, 1_000));
        jamm.poll();

        // Ad-hoc: folded from the archive scan.
        let adhoc = jamm
            .query("ops", text, Timestamp::from_secs(1_010))
            .unwrap();
        assert!(matches!(
            adhoc.history_source,
            HistorySource::ArchiveScan { .. }
        ));
        assert_eq!(adhoc.aggregates.len(), 2, "top-k cut");
        assert_eq!(adhoc.aggregates[0].host.unwrap().as_str(), "h1");
        assert_eq!(adhoc.aggregates[0].count, 6);
        assert_eq!(adhoc.aggregates[1].count, 3);

        // Continuous: maintained on the publish path, same answer shape.
        jamm.register_continuous_query("by-host", text).unwrap();
        for t in 0..6u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 3_000 + t));
        }
        for t in 0..3u64 {
            jamm.publish("gw1", &ev("h2", Level::Usage, 3_000 + t));
        }
        jamm.gateways[0].views().flush();
        let cont = jamm
            .query("ops", text, Timestamp::from_secs(3_010))
            .unwrap();
        assert!(matches!(
            cont.history_source,
            HistorySource::MaterializedView { .. }
        ));
        assert_eq!(cont.aggregates.len(), 2);
        assert_eq!(cont.aggregates[0].host.unwrap().as_str(), "h1");
        assert_eq!(cont.aggregates[0].count, 6);
    }

    #[test]
    fn self_monitoring_traces_lifelines_and_unifies_metrics() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .collector("ops")
            .archiver("keeper", "archive=main,o=grid")
            .self_monitor(1) // sample every published event
            .build()
            .unwrap();
        jamm.connect_collectors(vec![]);
        jamm.connect_archiver(vec![]);
        for t in 0..16u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, t));
        }
        jamm.poll();
        assert!(jamm.drain_self_events() > 0);

        // The lifelines cover publish, route, delivery, drain and archive
        // append, correlated by NL.OID and targeted per consumer.
        let lifeline_log = jamm.self_events();
        let stages: std::collections::BTreeSet<&str> =
            lifeline_log.iter().map(|e| e.event_type.as_str()).collect();
        for stage in [
            jamm_ulm::keys::jamm::GW_PUBLISH,
            jamm_ulm::keys::jamm::GW_ROUTED,
            jamm_ulm::keys::jamm::SUB_DELIVER,
            jamm_ulm::keys::jamm::SUB_DRAIN,
            jamm_ulm::keys::jamm::ARCHIVE_APPEND,
        ] {
            assert!(stages.contains(stage), "missing stage {stage}: {stages:?}");
        }
        assert!(lifeline_log
            .iter()
            .all(|e| e.program == "_jamm" && e.object_id().is_some()));

        // Metrics and admin_stats read the same atomics: identical numbers.
        let snapshot = jamm.metrics();
        let admin = jamm.admin_stats();
        assert_eq!(
            snapshot.counter_with("jamm_gateway_events_in", "gateway", "gw1"),
            Some(admin[0].events_in)
        );
        assert_eq!(
            snapshot
                .counter_with("jamm_subscription_delivered", "consumer", "ops")
                .unwrap(),
            admin[0]
                .subscriptions
                .iter()
                .find(|s| s.consumer == "ops")
                .unwrap()
                .delivered
        );
        assert_eq!(admin[0].route_us.count(), 16, "one routing sample/publish");
        let text = jamm.render_metrics();
        assert!(text.contains("jamm_gateway_events_in"));
        assert!(text.contains("jamm_trace_sampled"));
        assert!(text.contains("jamm_tsdb_appended"));

        // The RMI admin method serves the same exposition remotely.
        let bus = jamm_rmi::MessageBus::new();
        jamm.register_admin_rmi(&bus);
        let served = bus
            .invoke(&jamm_rmi::MethodCall::new(
                "admin",
                "metrics",
                jamm_core::json::Json::Null,
            ))
            .unwrap();
        assert!(served.as_str().unwrap().contains("jamm_gateway_events_in"));
        // ... and the diagnosis over the drained lifelines.
        let report = bus
            .invoke(&jamm_rmi::MethodCall::new(
                "admin",
                "diagnose",
                jamm_core::json::Json::Null,
            ))
            .unwrap();
        let report = report.as_str().unwrap();
        assert!(report.contains("bottleneck:"), "{report}");
        assert!(!report.contains("bottleneck: none"), "{report}");
        assert!(matches!(
            bus.invoke(&jamm_rmi::MethodCall::new(
                "admin",
                "nope",
                jamm_core::json::Json::Null
            )),
            Err(jamm_rmi::RmiError::NoSuchMethod(_))
        ));
    }

    #[test]
    fn gateway_qos_surfaces_in_admin_stats_metrics_and_rmi() {
        use jamm_gateway::ShedLevel;

        let jamm = JammBuilder::new()
            .gateway("gw1")
            .gateway_qos(QosConfig {
                retier_every: u64::MAX, // driven manually below
                ..QosConfig::default()
            })
            .build()
            .unwrap();
        let gw = &jamm.gateways[0];
        let mut fast = gw
            .subscribe()
            .as_consumer("fast")
            .capacity(64)
            .open()
            .unwrap();
        let _stalled = gw
            .subscribe()
            .as_consumer("stalled")
            .capacity(64)
            .open()
            .unwrap();
        for round in 0..6u64 {
            for t in 0..64u64 {
                jamm.publish("gw1", &ev("h1", Level::Usage, round * 64 + t));
            }
            fast.drain();
            jamm.retier_now();
        }

        // admin_stats carries the tier table and the QoS snapshot.
        let admin = jamm.admin_stats();
        let tier_of = |name: &str| {
            admin[0]
                .tiers
                .iter()
                .find(|r| r.consumer == name)
                .unwrap()
                .tier
        };
        assert_eq!(tier_of("fast"), Tier::Fast);
        assert_eq!(tier_of("stalled"), Tier::Probation);
        assert!(admin[0].qos.is_some());

        // Metrics expose the same tier census and the shed counters.
        let snapshot = jamm.metrics();
        assert_eq!(
            snapshot.gauge_with("jamm_gateway_tier_subscriptions", "tier", "probation"),
            Some(1.0)
        );
        let text = jamm.render_metrics();
        assert!(text.contains("jamm_gateway_shed_total"));
        assert!(text.contains("jamm_gateway_overload_level"));

        // Declared overload sheds raw events; the RMI surface reports it.
        jamm.gateways[0].set_external_pressure(1.0);
        jamm.retier_now();
        assert_eq!(
            jamm.gateways[0].qos_snapshot().unwrap().level,
            ShedLevel::All
        );
        jamm.publish("gw1", &ev("h1", Level::Usage, 1_000));
        let bus = jamm_rmi::MessageBus::new();
        jamm.register_admin_rmi(&bus);
        let qos = bus
            .invoke(&jamm_rmi::MethodCall::new(
                "admin",
                "qos",
                jamm_core::json::Json::Null,
            ))
            .unwrap();
        assert_eq!(qos[0]["gateway"].as_str(), Some("gw1"));
        assert_eq!(qos[0]["level"].as_str(), Some("all"));
        let shed: f64 = ["shed_fast", "shed_lagging", "shed_probation"]
            .iter()
            .filter_map(|k| qos[0][*k].as_f64())
            .sum();
        assert!(shed >= 1.0, "overload publish was not counted as shed");
        assert!(qos[0]["subscriptions"]
            .as_array()
            .unwrap()
            .iter()
            .any(|row| row["tier"].as_str() == Some("probation")));
    }

    #[test]
    fn archived_history_replays_through_a_gateway() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .collector("analyst")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        for t in 0..20u64 {
            jamm.publish("gw1", &ev("h", Level::Usage, t));
        }
        jamm.poll();
        // A collector subscribing *after* the fact sees the archived run
        // replayed as a live stream.
        assert_eq!(jamm.connect_collectors(vec![]), 1);
        let q = Predicate::between_micros(5_000_000, 15_000_000).compile();
        assert_eq!(jamm.replay_through("gw1", &q), 10);
        assert_eq!(jamm.replay_through("missing", &q), 0);
        jamm.poll();
        assert_eq!(jamm.collectors[0].events().len(), 10);
    }
}
