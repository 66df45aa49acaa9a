//! # jamm-consumers — the JAMM event consumers
//!
//! "An event consumer is any program that requests data from a sensor."
//! (§2.2)  The paper lists four, all implemented here:
//!
//! * [`collector::EventCollector`] — discovers sensors in the directory,
//!   subscribes through their gateways, and merges the event streams into a
//!   single time-ordered log for real-time analysis tools such as `nlv`;
//! * [`archiver::ArchiverAgent`] — subscribes and stores events in the
//!   archive (a [`jamm_tsdb::Tsdb`]), publishing an archive catalog entry
//!   in the directory;
//! * [`procmon::ProcessMonitorConsumer`] — watches process-death events and
//!   triggers an action (restart, email, page);
//! * [`overview::OverviewMonitor`] — combines information from several hosts
//!   to make decisions no single host's data could support (the "page the
//!   administrator only if both the primary and backup are down" example).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod archiver;
pub mod collector;
pub mod overview;
pub mod procmon;

use std::collections::HashMap;
use std::sync::Arc;

use jamm_gateway::{EventGateway, GatewayError};

/// Why a consumer's subscription attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// No gateway is registered under the requested name.
    UnknownGateway(String),
    /// The gateway refused the subscription (site policy, bad request).
    Gateway(GatewayError),
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::UnknownGateway(name) => write!(f, "unknown gateway: {name}"),
            SubscribeError::Gateway(e) => write!(f, "gateway refused subscription: {e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

impl From<GatewayError> for SubscribeError {
    fn from(e: GatewayError) -> Self {
        SubscribeError::Gateway(e)
    }
}

/// A registry of event gateways by published name.
///
/// The directory stores, per sensor, the *name* of the gateway serving it;
/// consumers resolve that name to an actual gateway connection here.  In the
/// distributed deployment this resolution is a network connect; in-process it
/// is a lookup in this map.
#[derive(Debug, Clone, Default)]
pub struct GatewayRegistry {
    gateways: HashMap<String, Arc<EventGateway>>,
}

impl GatewayRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        GatewayRegistry::default()
    }

    /// Register a gateway under its published name.
    pub fn register(&mut self, name: impl Into<String>, gateway: Arc<EventGateway>) {
        self.gateways.insert(name.into(), gateway);
    }

    /// Resolve a gateway by name.  Returns an owned handle so callers can
    /// keep it across registry mutations (and so the registry's internal
    /// storage stays private).
    pub fn resolve(&self, name: &str) -> Option<Arc<EventGateway>> {
        self.gateways.get(name).cloned()
    }

    /// Names of all registered gateways, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.gateways.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered gateways.
    pub fn len(&self) -> usize {
        self.gateways.len()
    }

    /// True if no gateway is registered.
    pub fn is_empty(&self) -> bool {
        self.gateways.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::GatewayConfig;

    #[test]
    fn registry_resolves_by_name() {
        let mut reg = GatewayRegistry::new();
        assert!(reg.is_empty());
        reg.register(
            "gw1.lbl.gov:8765",
            Arc::new(EventGateway::new(GatewayConfig::open("gw1"))),
        );
        reg.register(
            "gw2.lbl.gov:8765",
            Arc::new(EventGateway::new(GatewayConfig::open("gw2"))),
        );
        assert_eq!(reg.len(), 2);
        assert!(reg.resolve("gw1.lbl.gov:8765").is_some());
        assert!(reg.resolve("unknown").is_none());
    }
}
