//! Administrative views of a running deployment.
//!
//! Three things live here:
//!
//! * `gateway_admin_stats` — the facade's only reader of gateway,
//!   subscription, QoS, tier, edge and reactor counters.  Its
//!   [`GatewayAdminStats`] rows are what [`JammSystem::admin_stats`]
//!   returns and what one metrics collector turns into the gateway, edge
//!   and reactor samples of [`JammSystem::metrics`] — two views of one
//!   reading, so they cannot disagree.
//! * The metrics exposition ([`JammSystem::render_metrics`]).
//! * [`AdminEffort`] — the administrative-effort accounting of experiment
//!   E9.  The paper closes its results section with an effort argument:
//!   "One would need to have an account on every system, with superuser
//!   privileges (to run the tcpdump sensor), and log into every system (13
//!   in this example) and start every sensor by hand, and then copy the
//!   results to one place for analysis. ...  Using JAMM, all that is
//!   required is for the application user to start up a consumer and
//!   subscribe to the relevant sensor data."  This module turns that
//!   narrative into a counted model so the comparison can be reported as
//!   numbers.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use jamm_core::obs::{MetricsRegistry, MetricsSnapshot, Sample, SampleValue};
use jamm_gateway::{EventGateway, PipelineTracer, Tier};
use jamm_reactor::{ListenerId, LoopStats, Reactor, SocketRow};
use jamm_rmi::edge::{EdgeStats, EdgeStatsHandle, EventEdge};
use jamm_tsdb::Tsdb;
use jamm_ulm::keys::jamm::EDGE_CONSUMER;

use crate::system::JammSystem;

/// One gateway's row of [`JammSystem::admin_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayAdminStats {
    /// Gateway name.
    pub name: String,
    /// Events published into the gateway.
    pub events_in: u64,
    /// Event copies delivered to streaming consumers.
    pub events_out: u64,
    /// Event copies dropped on full subscription queues.
    pub events_dropped: u64,
    /// Approximate payload bytes delivered.
    pub bytes_out: u64,
    /// Query-mode requests served.
    pub queries: u64,
    /// (host, event type) series in the per-series table.
    pub series: usize,
    /// Summary slices held over every series (at most 3 × 61 a series).
    pub summary_slices: usize,
    /// Routing (fan-out) latency distribution per publish, microseconds.
    pub route_us: jamm_core::obs::HistogramSnapshot,
    /// Per-subscription delivery totals.
    pub subscriptions: Vec<jamm_gateway::DeliveryReport>,
    /// Per-subscription QoS tier assignments (current tier plus the
    /// smoothed lag score behind it); empty when the gateway runs
    /// without a QoS plane.
    pub tiers: Vec<jamm_gateway::TierRow>,
    /// Overload/shedding counters of the QoS plane, when enabled: the
    /// declared shed level, current pressure, and per-tier shed and
    /// budget-drop totals.
    pub qos: Option<jamm_gateway::QosSnapshot>,
    /// The gateway's network-edge broadcast counters (batches, events,
    /// encoded bytes); `None` when no edge is running.
    pub edge: Option<EdgeStats>,
    /// Per-socket rows of the gateway's network edge (queued bytes, drops,
    /// stalls per remote subscriber); empty when no edge is running.
    pub sockets: Vec<SocketRow>,
    /// The shared reactor's loop-saturation counters (poll-wait vs
    /// dispatch time), present when this gateway has a network edge.
    /// `loop_stats.saturation()` near 1.0 means the single loop thread is
    /// the bottleneck.
    pub loop_stats: Option<LoopStats>,
    /// Live connections on the shared reactor, across every listener (0
    /// when this gateway has no network edge).
    pub connections: usize,
}

/// Cheap handles to every counter the admin rows read: the metrics
/// collector owns a copy, and
/// [`JammSystem::admin_stats`] takes a fresh one so a shut-down edge
/// drops out of its rows.
struct Sources {
    gateways: Vec<Arc<EventGateway>>,
    /// Per edge: the gateway it broadcasts, its counters, its listener.
    edges: Vec<(String, EdgeStatsHandle, ListenerId)>,
    reactor: Option<Arc<Reactor>>,
}

impl Sources {
    fn new(
        gateways: &[Arc<EventGateway>],
        edges: &[EventEdge],
        reactor: Option<&Arc<Reactor>>,
    ) -> Sources {
        Sources {
            gateways: gateways.to_vec(),
            edges: edges
                .iter()
                .map(|e| (e.gateway_name().to_string(), e.stats_handle(), e.listener()))
                .collect(),
            reactor: reactor.cloned(),
        }
    }
}

/// Build the admin rows for a set of gateways from their live counters —
/// the one reading behind [`JammSystem::admin_stats`], the gateway, edge
/// and reactor metric samples, and `admin.qos`.  The numbers come straight
/// from the same atomics the hot paths increment.
fn gateway_admin_stats(src: &Sources) -> Vec<GatewayAdminStats> {
    let sockets = src
        .reactor
        .as_ref()
        .map(|r| r.socket_stats())
        .unwrap_or_default();
    src.gateways
        .iter()
        .map(|gw| {
            let stats = gw.stats();
            let qos = gw.qos_snapshot();
            let edge = src.edges.iter().find(|(name, ..)| name == gw.name());
            let reactor = edge.and(src.reactor.as_ref());
            GatewayAdminStats {
                name: gw.name().to_string(),
                events_in: stats.events_in.load(Ordering::Relaxed),
                events_out: stats.events_out.load(Ordering::Relaxed),
                events_dropped: stats.events_dropped.load(Ordering::Relaxed),
                bytes_out: stats.bytes_out.load(Ordering::Relaxed),
                queries: stats.queries.load(Ordering::Relaxed),
                series: gw.series_count(),
                summary_slices: gw.summary_slices(),
                route_us: stats.route_us.snapshot(),
                subscriptions: gw.delivery_report(),
                tiers: qos.as_ref().map(|_| gw.tier_report()).unwrap_or_default(),
                qos,
                edge: edge.map(|(_, handle, _)| handle.stats()),
                sockets: edge
                    .map(|&(_, _, listener)| {
                        let mine = sockets.iter().filter(|r| r.listener == listener);
                        mine.cloned().collect()
                    })
                    .unwrap_or_default(),
                loop_stats: reactor.map(|r| r.loop_stats()),
                connections: reactor.map_or(0, |r| r.connections()),
            }
        })
        .collect()
}

/// Register the deployment's metric collectors: one turning the admin rows
/// into gateway, subscription, QoS, edge and reactor samples, one for the
/// archive's storage counters, one for the process-wide name vocabulary
/// and one for the self-lifeline tracer.
pub(crate) fn register_collectors(
    metrics: &MetricsRegistry,
    gateways: &[Arc<EventGateway>],
    edges: &[EventEdge],
    reactor: Option<&Arc<Reactor>>,
    archive: &Arc<Tsdb>,
    tracer: Option<&Arc<PipelineTracer>>,
) {
    let sources = Sources::new(gateways, edges, reactor);
    metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
        let rows = gateway_admin_stats(&sources);
        for row in &rows {
            row_samples(row, out);
        }
        if let Some((row, ls)) = rows.iter().find_map(|r| Some((r, r.loop_stats?))) {
            out.push(Sample::counter("jamm_reactor_ticks", ls.ticks));
            out.push(Sample::counter(
                "jamm_reactor_poll_wait_ns",
                ls.poll_wait_ns,
            ));
            out.push(Sample::counter("jamm_reactor_dispatch_ns", ls.dispatch_ns));
            out.push(Sample::gauge("jamm_reactor_saturation", ls.saturation()));
            out.push(Sample::gauge(
                "jamm_reactor_connections",
                row.connections as f64,
            ));
        }
    }));
    let archive = Arc::clone(archive);
    metrics.register_collector(Box::new(move |out: &mut Vec<Sample>| {
        let stats = archive.stats();
        for (name, v) in [
            ("jamm_tsdb_appended", stats.appended()),
            ("jamm_tsdb_sealed_segments", stats.sealed_segments()),
            ("jamm_tsdb_compactions", stats.compactions()),
            ("jamm_tsdb_segments_scanned", stats.segments_scanned()),
            ("jamm_tsdb_segments_pruned", stats.segments_pruned()),
            ("jamm_tsdb_scan_groups_decoded", stats.scan_groups_decoded()),
            ("jamm_tsdb_scan_groups_skipped", stats.scan_groups_skipped()),
            ("jamm_tsdb_expired_events", stats.expired_events()),
            ("jamm_tsdb_append_errors", stats.append_errors()),
            ("jamm_tsdb_seal_errors", stats.seal_errors()),
            (
                "jamm_tsdb_segments_quarantined",
                stats.segments_quarantined(),
            ),
            ("jamm_tsdb_wal_bytes", stats.wal_bytes()),
            (
                "jamm_tsdb_wal_recovered_events",
                stats.wal_recovered_events(),
            ),
            ("jamm_tsdb_wal_torn_bytes", stats.wal_torn_bytes()),
        ] {
            out.push(Sample::counter(name, v));
        }
        for (name, h) in [
            ("jamm_tsdb_append_us", stats.append_us()),
            ("jamm_tsdb_seal_us", stats.seal_us()),
            ("jamm_tsdb_compact_us", stats.compact_us()),
            ("jamm_tsdb_scan_setup_us", stats.scan_setup_us()),
        ] {
            out.push(histogram(name, h.snapshot()));
        }
    }));
    metrics.register_collector(Box::new(|out: &mut Vec<Sample>| {
        let refused = jamm_ulm::vocab::refused();
        out.push(Sample::counter("jamm_ulm_names_refused", refused));
        let held = jamm_ulm::vocab::held() as f64;
        out.push(Sample::gauge("jamm_ulm_names_held", held));
        let interned = jamm_core::intern::interned_count() as f64;
        out.push(Sample::gauge("jamm_interned_names", interned));
    }));
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
            out.push(Sample::counter("jamm_trace_dropped", tracer.dropped()));
        }));
    }
}

fn histogram(name: &str, h: jamm_core::obs::HistogramSnapshot) -> Sample {
    Sample {
        name: name.to_string(),
        labels: Vec::new(),
        value: SampleValue::Histogram(h),
    }
}

/// One row's gateway, subscription, QoS and edge samples, each labelled
/// with the gateway's name.
fn row_samples(row: &GatewayAdminStats, out: &mut Vec<Sample>) {
    let gw = |s: Sample| s.with_label("gateway", row.name.clone());
    for (name, v) in [
        ("jamm_gateway_events_in", row.events_in),
        ("jamm_gateway_events_out", row.events_out),
        ("jamm_gateway_events_dropped", row.events_dropped),
        ("jamm_gateway_bytes_out", row.bytes_out),
        ("jamm_gateway_queries", row.queries),
    ] {
        out.push(gw(Sample::counter(name, v)));
    }
    out.push(gw(histogram("jamm_gateway_route_us", row.route_us.clone())));
    for (name, v) in [
        ("jamm_gateway_series", row.series),
        ("jamm_gateway_summary_slices", row.summary_slices),
    ] {
        out.push(gw(Sample::gauge(name, v as f64)));
    }
    for sub in &row.subscriptions {
        let labelled = |s: Sample| {
            gw(s)
                .with_label("consumer", sub.consumer.clone())
                .with_label("subscription", sub.id.to_string())
        };
        for (name, v) in [
            ("jamm_subscription_delivered", sub.delivered),
            ("jamm_subscription_dropped", sub.dropped),
            ("jamm_subscription_bytes", sub.bytes),
        ] {
            out.push(labelled(Sample::counter(name, v)));
        }
    }
    if let Some(qos) = &row.qos {
        out.push(gw(Sample::gauge(
            "jamm_gateway_overload_level",
            qos.level as u8 as f64,
        )));
        out.push(gw(Sample::gauge(
            "jamm_gateway_overload_pressure",
            qos.pressure,
        )));
        out.push(gw(Sample::counter("jamm_gateway_retiers", qos.retiers)));
        for tier in Tier::ALL {
            let tiered = |s: Sample| gw(s).with_label("tier", tier.as_str());
            let census = row.tiers.iter().filter(|r| r.tier == tier).count();
            out.push(tiered(Sample::counter(
                "jamm_gateway_shed_total",
                qos.shed[tier as usize],
            )));
            out.push(tiered(Sample::counter(
                "jamm_gateway_budget_drops_total",
                qos.budget_drops[tier as usize],
            )));
            out.push(tiered(Sample::gauge(
                "jamm_gateway_tier_subscriptions",
                census as f64,
            )));
        }
    }
    let Some(edge) = &row.edge else { return };
    let sum = |f: fn(&SocketRow) -> u64| row.sockets.iter().map(f).sum::<u64>();
    let dropped_frames = sum(|r| r.stats.dropped_frames);
    for (name, v) in [
        ("jamm_edge_batches", edge.batches),
        ("jamm_edge_events", edge.events),
        ("jamm_edge_encoded_bytes", edge.encoded_bytes),
        ("jamm_edge_socket_bytes_out", sum(|r| r.stats.bytes_out)),
        ("jamm_edge_socket_dropped_frames", dropped_frames),
        ("jamm_edge_socket_stalls", sum(|r| r.stats.stalls)),
    ] {
        out.push(gw(Sample::counter(name, v)));
    }
    out.push(gw(Sample::gauge(
        "jamm_edge_subscribers",
        row.sockets.len() as f64,
    )));
    // With a QoS plane, the edge's socket frame drops are also attributed
    // to the tier its gateway subscription currently sits in, so
    // `admin.metrics` answers "is the network edge the laggard?" without
    // scraping per-socket rows.
    if row.qos.is_some() {
        let tier = row.tiers.iter().find(|r| r.consumer == EDGE_CONSUMER);
        let tier = tier.map_or(Tier::Fast, |r| r.tier);
        out.push(
            gw(Sample::counter(
                "jamm_edge_tier_dropped_frames",
                dropped_frames,
            ))
            .with_label("tier", tier.as_str()),
        );
    }
}

impl JammSystem {
    /// Administrative statistics: one row per gateway with its cumulative
    /// totals, routing latency, per-subscription delivery totals, QoS
    /// tiers, edge broadcast counters and socket rows, and the reactor's
    /// loop saturation.  [`JammSystem::metrics`] prints the same rows.
    pub fn admin_stats(&self) -> Vec<GatewayAdminStats> {
        let sources = Sources::new(&self.gateways, &self.edges, self.reactor.as_ref());
        gateway_admin_stats(&sources)
    }

    /// Point-in-time reading of every metric the deployment exposes:
    /// gateway and subscription counters, routing and storage latency
    /// histograms, edge broadcast and socket totals, reactor loop
    /// saturation, which tier served query history, and the self-lifeline
    /// tracer's counters.  `docs/ARCHITECTURE.md` catalogues every name.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The deployment's metrics in Prometheus-style text exposition format.
    pub fn render_metrics(&self) -> String {
        self.metrics().render_text()
    }
}

/// The administrative operations needed to run one monitored analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminEffort {
    /// Accounts that must exist (and be kept) for the analyst.
    pub accounts_required: usize,
    /// Interactive logins performed for one analysis session.
    pub logins: usize,
    /// Privileged (root) operations, e.g. starting tcpdump by hand.
    pub privileged_ops: usize,
    /// Sensor processes started manually.
    pub manual_sensor_starts: usize,
    /// Result files copied to the analysis host afterwards.
    pub file_copies: usize,
    /// Consumer subscriptions issued (the JAMM path).
    pub subscriptions: usize,
}

impl AdminEffort {
    /// Total number of human operations.
    pub fn total_ops(&self) -> usize {
        self.logins
            + self.privileged_ops
            + self.manual_sensor_starts
            + self.file_copies
            + self.subscriptions
    }
}

/// Effort to run the analysis by hand, without JAMM: log into every host,
/// start every sensor (the TCP sensor needs root), and copy every host's log
/// back for merging.
pub fn manual_effort(
    hosts: usize,
    sensors_per_host: usize,
    privileged_sensors_per_host: usize,
) -> AdminEffort {
    AdminEffort {
        accounts_required: hosts,
        logins: hosts,
        privileged_ops: hosts * privileged_sensors_per_host,
        manual_sensor_starts: hosts * sensors_per_host,
        file_copies: hosts,
        subscriptions: 0,
    }
}

/// Effort with JAMM: the sensors are already managed; the analyst starts one
/// consumer and subscribes once per event gateway involved.
pub fn jamm_effort(gateways: usize) -> AdminEffort {
    AdminEffort {
        accounts_required: 0,
        logins: 0,
        privileged_ops: 0,
        manual_sensor_starts: 0,
        file_copies: 0,
        subscriptions: 1 + gateways,
    }
}

/// The MATISSE numbers: 13 hosts, roughly 5 sensors each of which one
/// (tcpdump) needs root, versus two site gateways.
pub fn matisse_comparison() -> (AdminEffort, AdminEffort) {
    (manual_effort(13, 5, 1), jamm_effort(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_effort_scales_with_hosts_and_jamm_does_not() {
        let small_manual = manual_effort(4, 5, 1);
        let big_manual = manual_effort(13, 5, 1);
        assert!(big_manual.total_ops() > small_manual.total_ops());
        let jamm_small = jamm_effort(1);
        let jamm_big = jamm_effort(2);
        assert_eq!(jamm_big.total_ops() - jamm_small.total_ops(), 1);
        assert_eq!(jamm_big.accounts_required, 0);
    }

    #[test]
    fn matisse_comparison_matches_the_papers_narrative() {
        let (manual, jamm) = matisse_comparison();
        assert_eq!(manual.logins, 13);
        assert_eq!(manual.accounts_required, 13);
        assert!(manual.privileged_ops >= 13);
        assert!(manual.total_ops() > 20 * jamm.total_ops());
        assert_eq!(jamm.total_ops(), 3);
    }
}
