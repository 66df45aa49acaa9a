//! The process monitor consumer.
//!
//! "This consumer can be used to trigger an action based on an event from a
//! server process.  For example, it might run a script to restart the
//! processes, send email to a system administrator, or call a pager." (§2.2)

use jamm_gateway::{Predicate, Subscription};
use jamm_ulm::{keys, SharedEvent};

use crate::GatewayRegistry;

/// The action a rule takes when a watched process dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Run the restart procedure for the process.
    Restart,
    /// Send email to the given address.
    Email(String),
    /// Page the given pager / on-call target.
    Page(String),
}

/// A record of an action the monitor decided to take.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggeredAction {
    /// The action.
    pub action: RecoveryAction,
    /// Host the process died on.
    pub host: String,
    /// The process concerned.
    pub process: String,
    /// The event that triggered the action (shared with every other
    /// consumer of the same delivery).
    pub trigger: SharedEvent,
}

/// One watch rule: process (on an optional specific host) → actions.
#[derive(Debug, Clone)]
struct WatchRule {
    process: String,
    host: Option<String>,
    actions: Vec<RecoveryAction>,
}

/// Watches process-death events and triggers recovery actions.
pub struct ProcessMonitorConsumer {
    consumer: String,
    rules: Vec<WatchRule>,
    subscriptions: Vec<Subscription>,
    triggered: Vec<TriggeredAction>,
}

impl ProcessMonitorConsumer {
    /// Create a process monitor acting as the given principal.
    pub fn new(consumer: impl Into<String>) -> Self {
        ProcessMonitorConsumer {
            consumer: consumer.into(),
            rules: Vec::new(),
            subscriptions: Vec::new(),
            triggered: Vec::new(),
        }
    }

    /// Watch `process` (on `host`, or on any host when `None`) and take the
    /// given actions when it dies.
    pub fn watch(
        &mut self,
        process: impl Into<String>,
        host: Option<String>,
        actions: Vec<RecoveryAction>,
    ) {
        self.rules.push(WatchRule {
            process: process.into(),
            host,
            actions,
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

    /// Process pending events; returns the actions newly triggered.
    pub fn poll(&mut self) -> Vec<TriggeredAction> {
        let mut new_actions = Vec::new();
        let mut events = Vec::new();
        for sub in &self.subscriptions {
            sub.events.drain_into(&mut events);
        }
        for event in events {
            if event.event_type != keys::process::DIED {
                continue;
            }
            let Some(process) = event.field(keys::TARGET).and_then(|v| v.as_str()) else {
                continue;
            };
            for rule in &self.rules {
                let host_ok = rule.host.as_deref().is_none_or(|h| h == event.host);
                if rule.process == process && host_ok {
                    for action in &rule.actions {
                        new_actions.push(TriggeredAction {
                            action: action.clone(),
                            host: event.host.clone(),
                            process: process.to_string(),
                            trigger: SharedEvent::clone(&event),
                        });
                    }
                }
            }
        }
        self.triggered.extend(new_actions.iter().cloned());
        new_actions
    }

    /// All actions triggered since the monitor started.
    pub fn history(&self) -> &[TriggeredAction] {
        &self.triggered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::{EventGateway, GatewayConfig};
    use jamm_ulm::{Event, Level, Timestamp};
    use std::sync::Arc;

    fn died(host: &str, process: &str) -> Event {
        Event::builder("procmon", host)
            .level(Level::Error)
            .event_type(keys::process::DIED)
            .timestamp(Timestamp::from_secs(10))
            .field(keys::TARGET, process.to_string())
            .build()
    }

    fn setup() -> (GatewayRegistry, Arc<EventGateway>, ProcessMonitorConsumer) {
        let gw = Arc::new(EventGateway::new(GatewayConfig::open("gw1")));
        let mut reg = GatewayRegistry::new();
        reg.register("gw1", Arc::clone(&gw));
        let mon = ProcessMonitorConsumer::new("ops");
        (reg, gw, mon)
    }

    #[test]
    fn death_triggers_configured_actions() {
        let (reg, gw, mut mon) = setup();
        mon.watch(
            "dpss_master",
            None,
            vec![
                RecoveryAction::Restart,
                RecoveryAction::Email("ops@lbl.gov".into()),
            ],
        );
        assert!(mon.subscribe(&reg, "gw1"));
        gw.publish(&died("dpss1.lbl.gov", "dpss_master"));
        let actions = mon.poll();
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0].action, RecoveryAction::Restart);
        assert_eq!(actions[0].host, "dpss1.lbl.gov");
        assert_eq!(
            actions[1].action,
            RecoveryAction::Email("ops@lbl.gov".into())
        );
        assert_eq!(mon.history().len(), 2);
    }

    #[test]
    fn unrelated_processes_and_hosts_do_not_trigger() {
        let (reg, gw, mut mon) = setup();
        mon.watch(
            "dpss_master",
            Some("dpss1.lbl.gov".into()),
            vec![RecoveryAction::Page("oncall".into())],
        );
        mon.subscribe(&reg, "gw1");
        // Wrong process.
        gw.publish(&died("dpss1.lbl.gov", "httpd"));
        // Right process, wrong host.
        gw.publish(&died("dpss2.lbl.gov", "dpss_master"));
        // A start event, not a death.
        gw.publish(
            &Event::builder("procmon", "dpss1.lbl.gov")
                .level(Level::Notice)
                .event_type(keys::process::STARTED)
                .timestamp(Timestamp::from_secs(1))
                .field(keys::TARGET, "dpss_master")
                .build(),
        );
        assert!(mon.poll().is_empty());
        // Right process, right host.
        gw.publish(&died("dpss1.lbl.gov", "dpss_master"));
        assert_eq!(mon.poll().len(), 1);
    }

    #[test]
    fn unknown_gateway_subscription_fails() {
        let (_, _, mut mon) = setup();
        let empty = GatewayRegistry::new();
        assert!(!mon.subscribe(&empty, "gw1"));
        assert!(mon.poll().is_empty());
    }
}
