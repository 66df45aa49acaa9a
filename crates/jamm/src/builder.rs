//! [`JammBuilder`]: wire a complete JAMM deployment in a few lines.
//!
//! The paper's Figure 1 structure — sensor directory, per-site event
//! gateways, consumers subscribed through them — used to take a page of
//! imperative setup.  The builder names each part once and `build()`
//! returns a [`JammSystem`] holding the wired components.  Gateway tuning
//! (QoS, ACLs, the self-lifeline tracer) lives on each gateway's
//! [`GatewayConfig`], passed with [`JammBuilder::gateway_config`].

use std::sync::Arc;

use jamm_archive::EventArchive;
use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::GatewayRegistry;
use jamm_core::obs::MetricsRegistry;
use jamm_directory::{DirectoryServer, Dn};
use jamm_gateway::{EventGateway, GatewayConfig, PipelineTracer};
use jamm_reactor::{Reactor, ReactorConfig};
use jamm_rmi::edge::{EdgeConfig, EventEdge};

use crate::admin::register_collectors;
use crate::system::JammSystem;

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
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadDn(dn) => write!(f, "invalid DN: {dn}"),
            BuildError::NoGateways => write!(f, "deployment declares no event gateway"),
            BuildError::Archive(e) => write!(f, "cannot open archive store: {e}"),
            BuildError::Edge(e) => write!(f, "cannot start network edge: {e}"),
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
    network_edge: bool,
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

    /// Add a gateway with a full configuration: ACL (`with_acl`), the
    /// self-lifeline tracer (`with_tracer`) and the delivery-QoS plane
    /// (`with_qos`, see [`jamm_gateway::qos`]).
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
    /// archived events older than this many seconds.
    pub fn retention_secs(mut self, secs: u64) -> Self {
        self.retention_micros = Some(secs * 1_000_000);
        self
    }

    /// Give the deployment a network edge: one reactor thread runs a TCP
    /// broadcast listener per gateway ([`jamm_rmi::edge::EventEdge`]), so
    /// remote subscribers receive each gateway's stream as encoded ULM
    /// frames with encode-once/write-N fan-out.  Listener addresses come
    /// from [`JammSystem::edge_addr`]; broadcast counters and per-socket
    /// backpressure rows appear in [`JammSystem::admin_stats`].
    pub fn network_edge(mut self, enabled: bool) -> Self {
        self.network_edge = enabled;
        self
    }

    /// Monitor the monitor: sample one in every `sample_every` published
    /// events (rounded to a power of two) and follow it through the
    /// pipeline as a NetLogger lifeline — publish, route, subscription
    /// delivery and drain, edge encode and broadcast, archive append —
    /// emitted as ULM events (`PROG=_jamm`) into the tracer's bounded queue
    /// ([`jamm_gateway::trace::SELF_QUEUE_CAPACITY`] points, oldest evicted
    /// first).  Drain them with `JammSystem::drain_self_events` and feed
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
        // The self-monitoring plane: the tracer all pipeline stages share.
        let tracer = self
            .self_monitor
            .map(|every| PipelineTracer::new("jamm-monitor", every));
        let mut registry = GatewayRegistry::new();
        let mut gateways = Vec::new();
        for mut config in self.gateways {
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
            let config = ReactorConfig {
                thread_name: "jamm-edge".to_string(),
                ..ReactorConfig::default()
            };
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
        let metrics = Arc::new(MetricsRegistry::new());
        register_collectors(
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
            tracer,
            self_log: Vec::new(),
            views_served: metrics.counter("jamm_query_views_served"),
            archive_scans: metrics.counter("jamm_query_archive_scans"),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistorySource, QueryError};
    use jamm_core::query::Predicate;
    use jamm_gateway::{QosConfig, Tier};
    use jamm_ulm::{Event, Level, Timestamp};

    /// A registry counter's value in a snapshot (0 when absent).
    fn counter(snapshot: &jamm_core::obs::MetricsSnapshot, name: &str) -> u64 {
        match snapshot.get(name).map(|s| &s.value) {
            Some(jamm_core::obs::SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

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
    fn fanout_knobs_and_admin_stats_expose_gateway_counters() {
        let mut jamm = JammBuilder::new()
            .gateway_config(GatewayConfig::open("gw1"))
            .gateway("gw2")
            .collector("ops")
            .build()
            .unwrap();
        jamm.connect_collectors(vec![]);
        for t in 0..40u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, t));
        }
        let stats = jamm.admin_stats();
        assert_eq!(stats.len(), 2);
        let gw1 = &stats[0];
        assert_eq!(gw1.name, "gw1");
        assert_eq!(gw1.events_in, 40);
        assert_eq!(gw1.events_out, 40);
        // The subscription row decomposes the gateway totals.
        assert_eq!(gw1.subscriptions.len(), 1);
        assert_eq!(gw1.subscriptions[0].delivered, 40);
        assert_eq!(gw1.subscriptions[0].bytes, gw1.bytes_out);
        // The idle gateway's row is all zero but still present.
        assert_eq!(stats[1].name, "gw2");
        assert_eq!((stats[1].events_in, stats[1].events_out), (0, 0));
    }

    #[test]
    fn network_edge_broadcasts_to_remote_subscribers() {
        use std::io::Read as _;
        use std::time::{Duration, Instant};

        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .collector("ops")
            .network_edge(true)
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
    fn summaries_come_only_from_the_queried_series() {
        // A raw series whose type extends the queried one with `_AVG_`
        // (netsim's `summaries=` pumps publish exactly this name) must not
        // answer `(type=CPU_TOTAL)`: its summaries are
        // `CPU_TOTAL_AVG_1M_AVG_*`, which start with `CPU_TOTAL_AVG_`.
        let jamm = JammBuilder::new().gateway("gw1").build().unwrap();
        for t in 0..10u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 1_000 + t));
            let mut rollup = ev("h1", Level::Usage, 1_000 + t);
            rollup.event_type = "CPU_TOTAL_AVG_1M".to_string();
            jamm.publish("gw1", &rollup);
        }
        let now = Timestamp::from_secs(1_010);
        let answer = jamm.query("ops", "(type=CPU_TOTAL)", now).unwrap();
        let types: Vec<&str> = answer
            .summaries
            .iter()
            .map(|s| s.event_type.as_str())
            .collect();
        assert_eq!(
            types,
            [
                "CPU_TOTAL_AVG_1MIN",
                "CPU_TOTAL_AVG_10MIN",
                "CPU_TOTAL_AVG_60MIN"
            ]
        );
        // The other series still answers a query for its own type.
        let other = jamm.query("ops", "(type=CPU_TOTAL_AVG_1M)", now).unwrap();
        assert_eq!(other.summaries.len(), 3);
        assert!(other
            .summaries
            .iter()
            .all(|s| s.event_type.starts_with("CPU_TOTAL_AVG_1M_AVG_")));
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
        assert_eq!(counter(&jamm.metrics(), "jamm_query_archive_scans"), 1);

        // Register the view; matching publishes fold in from then on.
        jamm.register_continuous_query("hot-cpu", text).unwrap();
        for t in 0..10u64 {
            jamm.publish("gw1", &ev("h1", Level::Usage, 2_000 + t));
            jamm.publish("gw1", &ev("h2", Level::Usage, 2_000 + t)); // filtered
        }

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
        assert_eq!(counter(&jamm.metrics(), "jamm_query_views_served"), 1);

        // A *different* predicate still falls back to the archive.
        let miss = jamm
            .query("ops", "(type=MEM_FREE)", Timestamp::from_secs(2_010))
            .unwrap();
        assert!(matches!(
            miss.history_source,
            HistorySource::ArchiveScan { .. }
        ));
        assert_eq!(counter(&jamm.metrics(), "jamm_query_archive_scans"), 2);

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
    fn view_aggregates_merge_across_gateways_like_the_scan() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .gateway("gw2")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        let text = "(&(type=CPU_TOTAL)(groupby=host)(topk=2))";
        jamm.register_continuous_query("by-host", text).unwrap();
        // h1 reads at both gateways: 10.0 x6 at gw1 and 90.0 x2 at gw2,
        // mean 30.0 overall.  Means: h2 40, h3 35, h1 30, h4 20.  Alone,
        // each gateway's top-2 would name h1.  gw1 publishes at even
        // seconds, gw2 at odd ones, so neither ring is in time order
        // when concatenated.
        let reading = |host: &str, t: u64, v: f64| {
            Event::builder("sensor", host)
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .timestamp(Timestamp::from_secs(t))
                .value(v)
                .build()
        };
        let gw1 = [("h1", 10.0, 6), ("h2", 40.0, 3)];
        let gw2 = [("h3", 35.0, 5), ("h4", 20.0, 1), ("h1", 90.0, 2)];
        let mut t = 1_000;
        for (host, v, n) in gw1 {
            for _ in 0..n {
                jamm.publish("gw1", &reading(host, t, v));
                t += 2;
            }
        }
        let mut t = 1_001;
        for (host, v, n) in gw2 {
            for _ in 0..n {
                jamm.publish("gw2", &reading(host, t, v));
                t += 2;
            }
        }
        jamm.poll();
        let now = Timestamp::from_secs(2_000);
        let view = jamm.query("ops", text, now).unwrap();
        assert!(matches!(
            view.history_source,
            HistorySource::MaterializedView { .. }
        ));
        // The same conjunction in another order: no view matches its text.
        let scan = jamm
            .query("ops", "(&(groupby=host)(topk=2)(type=CPU_TOTAL))", now)
            .unwrap();
        assert!(matches!(
            scan.history_source,
            HistorySource::ArchiveScan { .. }
        ));
        assert_eq!(view.aggregates, scan.aggregates);
        let ranked: Vec<(&str, u64)> = view
            .aggregates
            .iter()
            .map(|r| (r.host.unwrap().as_str(), r.count))
            .collect();
        assert_eq!(ranked, [("h2", 3), ("h3", 5)]);
        // History in time order, the same events as the scan's.
        assert_eq!(view.history.len(), 17);
        assert!(view
            .history
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(view.history, scan.history);
    }

    #[test]
    fn a_view_on_one_gateway_does_not_hide_the_others() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .gateway("gw2")
            .archiver("archiver", "archive=main,o=grid")
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        let text = "(type=CPU_TOTAL)";
        jamm.gateways[0].register_view("v", text).unwrap();
        jamm.publish("gw1", &ev("h1", Level::Usage, 1_000));
        jamm.publish("gw2", &ev("h2", Level::Usage, 1_001));
        jamm.publish("gw2", &ev("h3", Level::Usage, 1_002));
        jamm.poll();
        let now = Timestamp::from_secs(2_000);
        let answer = jamm.query("ops", text, now).unwrap();
        assert!(
            matches!(answer.history_source, HistorySource::ArchiveScan { .. }),
            "{:?}",
            answer.history_source
        );
        assert_eq!(answer.history.len(), 3, "gw2's events count too");
        // Once every gateway holds one, the views answer.
        jamm.gateways[1].register_view("v", text).unwrap();
        match jamm.query("ops", text, now).unwrap().history_source {
            HistorySource::MaterializedView { views, .. } => {
                assert_eq!(views, ["gw1/v", "gw2/v"]);
            }
            other => panic!("expected view provenance, got {other:?}"),
        }
    }

    /// A view-served answer keeps the query's `(limit=N)` the way the
    /// archive scan does: the earliest N matching events, across every
    /// gateway's ring.
    #[test]
    fn a_view_served_query_keeps_its_limit() {
        for gateways in [&["gw1"][..], &["gw1", "gw2"]] {
            let mut builder = JammBuilder::new();
            for gw in gateways {
                builder = builder.gateway(*gw);
            }
            let mut jamm = builder
                .archiver("archiver", "archive=main,o=grid")
                .build()
                .unwrap();
            jamm.connect_archiver(vec![]);
            let text = "(&(type=CPU_TOTAL)(limit=5))";
            jamm.register_continuous_query("first-five", text).unwrap();
            for t in 0..20u64 {
                // The gateways take turns, so neither ring alone holds
                // the earliest five.
                let gw = gateways[t as usize % gateways.len()];
                jamm.publish(gw, &ev("h1", Level::Usage, 1_000 + t));
            }
            jamm.poll();
            let now = Timestamp::from_secs(2_000);
            let view = jamm.query("ops", text, now).unwrap();
            assert!(matches!(
                view.history_source,
                HistorySource::MaterializedView { .. }
            ));
            // The same conjunction in another order: no view matches it.
            let scan = jamm
                .query("ops", "(&(limit=5)(type=CPU_TOTAL))", now)
                .unwrap();
            assert!(matches!(
                scan.history_source,
                HistorySource::ArchiveScan { .. }
            ));
            assert_eq!(view.history.len(), 5, "{gateways:?}");
            assert_eq!(view.history, scan.history, "{gateways:?}");
            assert_eq!(view.history[0].timestamp, Timestamp::from_secs(1_000));
        }
    }

    #[test]
    fn publishing_from_a_never_seen_host_raises_the_interned_names_gauge() {
        let jamm = JammBuilder::new().gateway("gw1").build().unwrap();
        let interned = || match jamm.metrics().get("jamm_interned_names").map(|s| &s.value) {
            Some(jamm_core::obs::SampleValue::Gauge(v)) => *v,
            other => panic!("jamm_interned_names is not a gauge: {other:?}"),
        };
        let before = interned();
        jamm.publish("gw1", &ev("interned-names-gauge-probe", Level::Usage, 1));
        assert!(interned() >= before + 1.0);
    }

    /// Two readings a second to one series for over an hour fill its three
    /// windows to their 61 slices each, and no further.
    #[test]
    fn dense_publishing_to_one_series_holds_at_most_183_summary_slices() {
        let jamm = JammBuilder::new().gateway("gw1").build().unwrap();
        let gauge = |name: &str| match jamm.metrics().get(name).map(|s| &s.value) {
            Some(jamm_core::obs::SampleValue::Gauge(v)) => *v,
            other => panic!("{name} is not a gauge: {other:?}"),
        };
        for ms in (0..4_000_000u64).step_by(500) {
            let mut event = ev("h1", Level::Usage, 0);
            event.timestamp = Timestamp::from_micros(1_000_000_000 + ms * 1_000);
            jamm.publish("gw1", &event);
        }
        assert_eq!(gauge("jamm_gateway_series"), 1.0);
        assert_eq!(gauge("jamm_gateway_summary_slices"), 183.0);
    }

    #[test]
    fn trace_points_evicted_from_a_full_queue_are_exported() {
        let mut jamm = JammBuilder::new()
            .gateway("gw1")
            .self_monitor(1)
            .build()
            .unwrap();
        let tracer = jamm.tracer.clone().unwrap();
        let capacity = jamm_gateway::trace::SELF_QUEUE_CAPACITY;
        for id in 0..capacity as u64 + 5 {
            tracer.stage_id(id, jamm_ulm::keys::jamm::EDGE_ENCODE, "gw1");
        }
        assert_eq!(counter(&jamm.metrics(), "jamm_trace_dropped"), 5);
        assert!(jamm.render_metrics().contains("\njamm_trace_dropped 5\n"));
        assert_eq!(jamm.drain_self_events(), capacity);
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
    }

    #[test]
    fn gateway_qos_surfaces_in_admin_stats_and_metrics() {
        use jamm_gateway::ShedLevel;

        let jamm = JammBuilder::new()
            .gateway_config(GatewayConfig::open("gw1").with_qos(QosConfig {
                retier_every: u64::MAX, // driven manually below
                ..QosConfig::default()
            }))
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
            gw.retier_now();
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

        // Declared overload sheds raw events; admin_stats reports it.
        jamm.gateways[0].set_external_pressure(1.0);
        jamm.gateways[0].retier_now();
        assert_eq!(
            jamm.gateways[0].qos_snapshot().unwrap().level,
            ShedLevel::All
        );
        jamm.publish("gw1", &ev("h1", Level::Usage, 1_000));
        let admin = jamm.admin_stats();
        let qos = admin[0].qos.as_ref().unwrap();
        assert_eq!(qos.level, ShedLevel::All);
        assert!(
            qos.shed.iter().sum::<u64>() >= 1,
            "overload publish was not counted as shed"
        );
        assert!(admin[0].tiers.iter().any(|r| r.tier == Tier::Probation));
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
