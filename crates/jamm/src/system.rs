//! [`JammSystem`]: a wired deployment — consumer wiring, publishing,
//! polling, archive maintenance, self-lifelines and the network edge.
//! The query endpoint lives in `query.rs`, the admin rows, metrics and RMI
//! verbs in [`crate::admin`].

use std::sync::Arc;

use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::GatewayRegistry;
use jamm_core::obs::{Counter, MetricsRegistry};
use jamm_core::query::{Plan, Predicate};
use jamm_directory::{DirectoryServer, Dn};
use jamm_gateway::{EventGateway, PipelineTracer};
use jamm_reactor::Reactor;
use jamm_rmi::edge::EventEdge;
use jamm_tsdb::{ReplaySource, Tsdb};
use jamm_ulm::SharedEvent;

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
    pub archive: Arc<Tsdb>,
    /// Retention policy applied by [`JammSystem::archive_maintenance`].
    pub retention_micros: Option<u64>,
    /// One broadcast edge per gateway when
    /// [`JammBuilder::network_edge`](crate::JammBuilder::network_edge) is
    /// on (declared before `reactor` so edges stop before the loop).
    pub edges: Vec<EventEdge>,
    /// The shared reactor running every edge listener, if enabled.
    pub reactor: Option<Arc<Reactor>>,
    /// The pipeline tracer every stage shares, when
    /// [`JammBuilder::self_monitor`](crate::JammBuilder::self_monitor) is
    /// on; its bounded queue buffers lifeline events until drained.
    pub tracer: Option<Arc<PipelineTracer>>,
    /// Lifeline events drained so far, in arrival order.
    pub(crate) self_log: Vec<SharedEvent>,
    /// The metrics registry every component reports through.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// `jamm_query_views_served`: query history answered from views.
    pub(crate) views_served: Arc<Counter>,
    /// `jamm_query_archive_scans`: query history answered by a scan.
    pub(crate) archive_scans: Arc<Counter>,
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
            Some(r) => match self.archive.retain(now.sub_micros(r)) {
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

    /// Drain lifeline trace events from the tracer's queue into the
    /// retained log ([`JammSystem::self_events`]).  Returns how many
    /// arrived.  A no-op without
    /// [`JammBuilder::self_monitor`](crate::JammBuilder::self_monitor).
    pub fn drain_self_events(&mut self) -> usize {
        match &self.tracer {
            Some(tracer) => tracer.drain_into(&mut self.self_log),
            None => 0,
        }
    }

    /// Snapshot of the self-lifeline trace events drained so far, in
    /// arrival order — the input to `jamm_netlogger::analysis::diagnose`.
    pub fn self_events(&self) -> Vec<SharedEvent> {
        self.self_log.clone()
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
        ReplaySource::new(&self.archive, plan).pump(gw.as_ref())
    }
}

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
