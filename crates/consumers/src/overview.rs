//! The overview monitor.
//!
//! "This consumer collects information from sensors on several hosts, and
//! uses the combined information to make some decision that could not be
//! made on the basis of data from only one host.  For example, one may want
//! to trigger a page to a system administrator at 2 A.M. only if both the
//! primary and backup servers are down." (§2.2)

use std::collections::HashMap;

use jamm_gateway::{Predicate, Subscription};
use jamm_ulm::{keys, Event, Timestamp};

use crate::GatewayRegistry;

/// An alert raised by the overview monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct OverviewAlert {
    /// Name of the rule that fired.
    pub rule: String,
    /// When the rule's condition became true.
    pub at: Timestamp,
    /// The hosts that were down when the rule fired.
    pub hosts_down: Vec<String>,
}

/// A rule requiring the combined state of several hosts.
#[derive(Debug, Clone)]
struct GroupDownRule {
    name: String,
    process: String,
    hosts: Vec<String>,
}

/// Combines per-host process state to detect whole-service failures.
pub struct OverviewMonitor {
    consumer: String,
    rules: Vec<GroupDownRule>,
    subscriptions: Vec<Subscription>,
    /// (host, process) -> alive?
    state: HashMap<(String, String), bool>,
    /// Rules currently in the "fired" state (so alerts are edge-triggered).
    fired: HashMap<String, bool>,
    alerts: Vec<OverviewAlert>,
}

impl OverviewMonitor {
    /// Create an overview monitor acting as the given principal.
    pub fn new(consumer: impl Into<String>) -> Self {
        OverviewMonitor {
            consumer: consumer.into(),
            rules: Vec::new(),
            subscriptions: Vec::new(),
            state: HashMap::new(),
            fired: HashMap::new(),
            alerts: Vec::new(),
        }
    }

    /// Add the paper's example rule: alert only when `process` is down on
    /// *every* one of `hosts` (e.g. primary and backup).
    pub fn alert_when_all_down(
        &mut self,
        rule_name: impl Into<String>,
        process: impl Into<String>,
        hosts: Vec<String>,
    ) {
        self.rules.push(GroupDownRule {
            name: rule_name.into(),
            process: process.into(),
            hosts,
        });
    }

    /// Subscribe to process events from a gateway.
    pub fn subscribe(&mut self, registry: &GatewayRegistry, gateway_name: &str) -> bool {
        let Some(gateway) = registry.resolve(gateway_name) else {
            return false;
        };
        match gateway
            .subscribe()
            .stream()
            .filter(Predicate::types([
                keys::process::DIED,
                keys::process::STARTED,
            ]))
            .as_consumer(self.consumer.clone())
            .open()
        {
            Ok(sub) => {
                self.subscriptions.push(sub);
                true
            }
            Err(_) => false,
        }
    }

    fn apply(&mut self, event: &Event) {
        let Some(process) = event.field(keys::TARGET).and_then(|v| v.as_str()) else {
            return;
        };
        let alive = event.event_type == keys::process::STARTED;
        self.state
            .insert((event.host.clone(), process.to_string()), alive);
    }

    /// Process pending events and return any newly raised alerts.
    pub fn poll(&mut self) -> Vec<OverviewAlert> {
        let mut events = Vec::new();
        for s in &self.subscriptions {
            s.events.drain_into(&mut events);
        }
        let mut latest_time = Timestamp::EPOCH;
        for e in &events {
            latest_time = latest_time.max(e.timestamp);
            self.apply(e);
        }
        let mut new_alerts = Vec::new();
        for rule in &self.rules {
            let down: Vec<String> = rule
                .hosts
                .iter()
                .filter(|h| {
                    self.state
                        .get(&((*h).clone(), rule.process.clone()))
                        .map(|alive| !alive)
                        .unwrap_or(false)
                })
                .cloned()
                .collect();
            let all_down = !rule.hosts.is_empty() && down.len() == rule.hosts.len();
            let was_fired = self.fired.get(&rule.name).copied().unwrap_or(false);
            if all_down && !was_fired {
                new_alerts.push(OverviewAlert {
                    rule: rule.name.clone(),
                    at: latest_time,
                    hosts_down: down,
                });
            }
            self.fired.insert(rule.name.clone(), all_down);
        }
        self.alerts.extend(new_alerts.iter().cloned());
        new_alerts
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[OverviewAlert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::{EventGateway, GatewayConfig};
    use jamm_ulm::Level;
    use std::sync::Arc;

    fn proc_event(host: &str, process: &str, alive: bool, t: u64) -> Event {
        Event::builder("procmon", host)
            .level(if alive { Level::Notice } else { Level::Error })
            .event_type(if alive {
                keys::process::STARTED
            } else {
                keys::process::DIED
            })
            .timestamp(Timestamp::from_secs(t))
            .field(keys::TARGET, process.to_string())
            .build()
    }

    fn setup() -> (Arc<EventGateway>, OverviewMonitor) {
        let gw = Arc::new(EventGateway::new(GatewayConfig::open("gw1")));
        let mut reg = GatewayRegistry::new();
        reg.register("gw1", Arc::clone(&gw));
        let mut mon = OverviewMonitor::new("ops");
        mon.alert_when_all_down(
            "ldap-service-down",
            "ldap-server",
            vec!["primary.lbl.gov".into(), "backup.lbl.gov".into()],
        );
        assert!(mon.subscribe(&reg, "gw1"));
        (gw, mon)
    }

    #[test]
    fn no_alert_when_only_the_primary_is_down() {
        let (gw, mut mon) = setup();
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", true, 1));
        gw.publish(&proc_event("backup.lbl.gov", "ldap-server", true, 1));
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", false, 2));
        assert!(mon.poll().is_empty(), "backup still up: no 2 A.M. page");
    }

    #[test]
    fn alert_fires_once_when_both_are_down_and_clears_on_recovery() {
        let (gw, mut mon) = setup();
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", false, 1));
        gw.publish(&proc_event("backup.lbl.gov", "ldap-server", false, 2));
        let alerts = mon.poll();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "ldap-service-down");
        assert_eq!(alerts[0].hosts_down.len(), 2);
        // Still down: no duplicate alert.
        assert!(mon.poll().is_empty());
        // Primary recovers, then both go down again: a new alert fires.
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", true, 3));
        assert!(mon.poll().is_empty());
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", false, 4));
        let again = mon.poll();
        assert_eq!(again.len(), 1);
        assert_eq!(mon.alerts().len(), 2);
    }

    #[test]
    fn unknown_hosts_do_not_count_as_down() {
        let (gw, mut mon) = setup();
        // Only ever hear about the primary; the backup's state is unknown,
        // so the "all down" condition cannot be established.
        gw.publish(&proc_event("primary.lbl.gov", "ldap-server", false, 1));
        assert!(mon.poll().is_empty());
    }
}
