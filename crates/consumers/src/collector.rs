//! The event collector.
//!
//! "This consumer is used to collect monitoring data in real time for use by
//! real-time analysis tools.  It checks the directory service to see what
//! data is available, and then 'subscribes', via the event gateway, to all
//! the sensors it is interested in. ...  Data from many sensors, as well as
//! streams of data from application sensors, is then merged into a file for
//! use by programs such as nlv." (§2.2)

use std::sync::Arc;

use jamm_core::flow::EventSource;
use jamm_directory::{DirectoryServer, Dn, Filter, Scope};
use jamm_gateway::{PipelineTracer, Predicate, Subscription};
use jamm_ulm::SharedEvent;

use crate::GatewayRegistry;

/// A sensor discovered in the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredSensor {
    /// Host the sensor monitors.
    pub host: String,
    /// Sensor name.
    pub sensor: String,
    /// Gateway serving its events.
    pub gateway: String,
    /// Whether the directory currently lists it as running.
    pub running: bool,
}

/// Collects events from many sensors into one merged, time-ordered log.
pub struct EventCollector {
    consumer: String,
    subscriptions: Vec<(String, Subscription)>,
    /// Collected events, shared with the gateway that delivered them —
    /// collecting is a refcount transfer, not a copy.
    collected: Vec<SharedEvent>,
    discovered: Vec<DiscoveredSensor>,
    /// Self-lifeline tracer: drained events it is watching get a
    /// `JAMM_SUB_DRAIN` trace point stamped with this consumer's name.
    tracer: Option<Arc<PipelineTracer>>,
}

impl EventCollector {
    /// Create a collector acting as the given principal.
    pub fn new(consumer: impl Into<String>) -> Self {
        EventCollector {
            consumer: consumer.into(),
            subscriptions: Vec::new(),
            collected: Vec::new(),
            discovered: Vec::new(),
            tracer: None,
        }
    }

    /// The consumer principal this collector acts as.
    pub fn consumer(&self) -> &str {
        &self.consumer
    }

    /// Attach the self-lifeline tracer: every watched event this collector
    /// drains gets a `JAMM_SUB_DRAIN` trace point.
    pub fn set_tracer(&mut self, tracer: Arc<PipelineTracer>) {
        self.tracer = Some(tracer);
    }

    /// Query the directory for sensors matching `filter` under `base`.
    pub fn discover(
        &mut self,
        directory: &Arc<DirectoryServer>,
        base: &Dn,
        filter: &Filter,
    ) -> Vec<DiscoveredSensor> {
        let mut found = Vec::new();
        if let Ok(result) = directory.search(base, Scope::Subtree, filter) {
            for entry in result.entries {
                let (Some(host), Some(sensor), Some(gateway)) =
                    (entry.get("host"), entry.get("sensor"), entry.get("gateway"))
                else {
                    continue;
                };
                found.push(DiscoveredSensor {
                    host: host.to_string(),
                    sensor: sensor.to_string(),
                    gateway: gateway.to_string(),
                    running: entry.get("status") == Some("running"),
                });
            }
        }
        self.discovered = found.clone();
        found
    }

    /// Subscribe (streaming) to every discovered sensor's gateway, one
    /// subscription per distinct gateway, filtered to the discovered hosts.
    /// Returns the number of gateway subscriptions opened.
    pub fn subscribe_all(
        &mut self,
        registry: &GatewayRegistry,
        extra_filters: Vec<Predicate>,
    ) -> usize {
        let mut gateways: Vec<&str> = self.discovered.iter().map(|d| d.gateway.as_str()).collect();
        gateways.sort_unstable();
        gateways.dedup();
        let mut opened = 0;
        for gw_name in gateways {
            let Some(gateway) = registry.resolve(gw_name) else {
                continue;
            };
            let hosts: Vec<String> = self
                .discovered
                .iter()
                .filter(|d| d.gateway == gw_name)
                .map(|d| d.host.clone())
                .collect();
            let open = gateway
                .subscribe()
                .stream()
                .filter(Predicate::Hosts(hosts))
                .filter(Predicate::And(extra_filters.clone()))
                .as_consumer(self.consumer.clone())
                .open();
            if let Ok(sub) = open {
                self.subscriptions.push((gw_name.to_string(), sub));
                opened += 1;
            }
        }
        opened
    }

    /// Subscribe directly to one named gateway with the conjunction of
    /// the given predicates (bypassing discovery — used when the consumer
    /// already knows what it wants).  A `Predicate::types([..])` among them
    /// is what the gateway's routing table indexes subscriptions by: a
    /// typed subscription lives only in the buckets for its types, so it
    /// costs the gateway nothing when other traffic is published.
    pub fn subscribe_gateway(
        &mut self,
        registry: &GatewayRegistry,
        gateway_name: &str,
        filters: Vec<Predicate>,
    ) -> bool {
        let Some(gateway) = registry.resolve(gateway_name) else {
            return false;
        };
        match gateway
            .subscribe()
            .stream()
            .filter(Predicate::And(filters))
            .as_consumer(self.consumer.clone())
            .open()
        {
            Ok(sub) => {
                self.subscriptions.push((gateway_name.to_string(), sub));
                true
            }
            Err(_) => false,
        }
    }

    /// Adopt an externally opened subscription under the given gateway
    /// name.  Used when the caller needs builder options this collector's
    /// subscribe helpers do not expose (a custom queue capacity or
    /// overflow policy); the subscription must have been opened with this
    /// collector's consumer principal for delivery accounting to line up.
    pub fn adopt_subscription(&mut self, gateway_name: impl Into<String>, sub: Subscription) {
        self.subscriptions.push((gateway_name.into(), sub));
    }

    /// Drain every subscription channel into the collected log (one batched
    /// drain per subscription).  Returns the number of new events.
    pub fn poll(&mut self) -> usize {
        let start = self.collected.len();
        let mut new = 0;
        for (_, sub) in &mut self.subscriptions {
            new += sub.drain_into(&mut self.collected);
        }
        if let Some(tracer) = &self.tracer {
            // Only the newly drained tail is scanned, and each scan is a
            // handful of atomic loads against the tracer's watched ring.
            for event in &self.collected[start..] {
                tracer.stage(event, jamm_ulm::keys::jamm::SUB_DRAIN, &self.consumer);
            }
        }
        new
    }

    /// Number of open gateway subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Events collected so far, in arrival order.
    pub fn events(&self) -> &[SharedEvent] {
        &self.collected
    }

    /// The merged, time-sorted log (what gets handed to `nlv`).  Sorting
    /// shuffles `Arc` handles; the events themselves are not copied.
    pub fn merged_log(&self) -> Vec<SharedEvent> {
        let mut log = self.collected.clone();
        log.sort_by_key(|e| e.timestamp);
        log
    }

    /// Events dropped across all this collector's subscriptions because it
    /// fell behind the gateways' bounded queues.
    pub fn dropped(&self) -> u64 {
        self.subscriptions.iter().map(|(_, s)| s.dropped()).sum()
    }

    /// Serialise the merged log as ULM text (encoded straight into one
    /// output buffer — no per-event line allocations).
    pub fn merged_ulm(&self) -> String {
        let mut out = String::new();
        for e in self.merged_log() {
            jamm_ulm::text::encode_into(&mut out, &e);
            out.push('\n');
        }
        out
    }
}

/// Draining the collector moves its collected log out (after pulling
/// whatever is pending on the gateway subscriptions), so a downstream
/// stage can treat the collector itself as just another event source.
impl EventSource<SharedEvent> for EventCollector {
    fn drain_into(&mut self, out: &mut Vec<SharedEvent>) -> usize {
        self.poll();
        let drained = std::mem::take(&mut self.collected);
        let n = drained.len();
        out.extend(drained);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::{EventGateway, GatewayConfig};
    use jamm_ulm::{Event, Level, Timestamp};

    fn sensor_entry(host: &str, sensor: &str, gateway: &str) -> jamm_directory::Entry {
        jamm_directory::Entry::new(
            Dn::parse(&format!("sensor={sensor},host={host},o=lbl,o=grid")).unwrap(),
        )
        .with("objectclass", "sensor")
        .with("host", host)
        .with("sensor", sensor)
        .with("gateway", gateway)
        .with("status", "running")
    }

    fn ev(host: &str, ty: &str, t: u64) -> jamm_ulm::Event {
        Event::builder("prog", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(t)
            .build()
    }

    fn setup() -> (
        Arc<DirectoryServer>,
        GatewayRegistry,
        Arc<EventGateway>,
        Arc<EventGateway>,
    ) {
        let dir = Arc::new(DirectoryServer::new(
            "ldap://dir",
            Dn::parse("o=grid").unwrap(),
        ));
        for host in ["dpss1.lbl.gov", "dpss2.lbl.gov"] {
            dir.add(sensor_entry(host, "cpu", "gw1")).unwrap();
        }
        dir.add(sensor_entry("mems.cairn.net", "cpu", "gw2"))
            .unwrap();
        let gw1 = Arc::new(EventGateway::new(GatewayConfig::open("gw1")));
        let gw2 = Arc::new(EventGateway::new(GatewayConfig::open("gw2")));
        let mut reg = GatewayRegistry::new();
        reg.register("gw1", Arc::clone(&gw1));
        reg.register("gw2", Arc::clone(&gw2));
        (dir, reg, gw1, gw2)
    }

    #[test]
    fn discovery_subscription_and_merge() {
        let (dir, reg, gw1, gw2) = setup();
        let mut collector = EventCollector::new("nlv-user");
        let found = collector.discover(
            &dir,
            &Dn::parse("o=grid").unwrap(),
            &Filter::parse("(objectclass=sensor)").unwrap(),
        );
        assert_eq!(found.len(), 3);
        assert_eq!(
            collector.subscribe_all(&reg, vec![]),
            2,
            "one sub per gateway"
        );

        // Events arrive out of order across gateways.
        gw2.publish(&ev("mems.cairn.net", "MPLAY_START_READ_FRAME", 30));
        gw1.publish(&ev("dpss1.lbl.gov", "DPSS_SERV_IN", 10));
        gw1.publish(&ev("dpss2.lbl.gov", "DPSS_SERV_IN", 20));
        assert_eq!(collector.poll(), 3);
        let merged = collector.merged_log();
        let times: Vec<u64> = merged.iter().map(|e| e.timestamp.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30], "merged log is time ordered");
        let ulm = collector.merged_ulm();
        assert_eq!(jamm_ulm::text::decode_all_lossy(&ulm).len(), 3);
    }

    #[test]
    fn host_filter_excludes_unrelated_hosts() {
        let (dir, reg, gw1, _) = setup();
        let mut collector = EventCollector::new("c");
        collector.discover(
            &dir,
            &Dn::parse("host=dpss1.lbl.gov,o=lbl,o=grid").unwrap(),
            &Filter::everything(),
        );
        collector.subscribe_all(&reg, vec![]);
        // gw1 serves both dpss1 and dpss2, but the collector only discovered
        // dpss1, so dpss2 events are filtered out by the host filter.
        gw1.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", 1));
        gw1.publish(&ev("dpss2.lbl.gov", "CPU_TOTAL", 2));
        collector.poll();
        assert_eq!(collector.events().len(), 1);
        assert_eq!(collector.events()[0].host, "dpss1.lbl.gov");
    }

    #[test]
    fn discovery_with_filters_and_unknown_gateways() {
        let (dir, _, _, _) = setup();
        // A sensor pointing at a gateway that is not in the registry.
        dir.add(sensor_entry("orphan.lbl.gov", "cpu", "gw-missing"))
            .unwrap();
        let mut collector = EventCollector::new("c");
        let found = collector.discover(
            &dir,
            &Dn::parse("o=grid").unwrap(),
            &Filter::parse("(&(objectclass=sensor)(host=orphan*))").unwrap(),
        );
        assert_eq!(found.len(), 1);
        let reg = GatewayRegistry::new();
        assert_eq!(collector.subscribe_all(&reg, vec![]), 0);
        assert_eq!(collector.poll(), 0);
    }

    #[test]
    fn typed_subscription_is_routed_by_event_type() {
        let (_, reg, gw1, _) = setup();
        let mut collector = EventCollector::new("c");
        assert!(collector.subscribe_gateway(&reg, "gw1", vec![Predicate::types(["DPSS_SERV_IN"])],));
        gw1.publish(&ev("h", "DPSS_SERV_IN", 1));
        gw1.publish(&ev("h", "CPU_TOTAL", 2));
        gw1.publish(&ev("h", "DPSS_SERV_IN", 3));
        collector.poll();
        assert_eq!(collector.events().len(), 2);
        assert!(collector
            .events()
            .iter()
            .all(|e| e.event_type == "DPSS_SERV_IN"));
    }

    #[test]
    fn direct_gateway_subscription() {
        let (_, reg, gw1, _) = setup();
        let mut collector = EventCollector::new("c");
        assert!(collector.subscribe_gateway(&reg, "gw1", vec![]));
        assert!(!collector.subscribe_gateway(&reg, "nope", vec![]));
        gw1.publish(&ev("any.host", "X", 1));
        collector.poll();
        assert_eq!(collector.events().len(), 1);
        assert_eq!(collector.subscription_count(), 1);
    }
}
