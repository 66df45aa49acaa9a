//! A JAMM-monitored compute farm.
//!
//! "this agent-based monitoring architecture ... could be used in large
//! compute farms or clusters that require constant monitoring to ensure all
//! nodes are running correctly" (§1.1).  This module provides that
//! deployment: `n` worker nodes behind one switch, each with a sensor
//! manager, all publishing through one (or more) gateways, with a process
//! monitor restarting dead workers and an overview monitor watching the
//! whole service.  It is also the substrate for the gateway-scalability
//! experiment (E7): many consumers subscribing to the same sensor data.

use std::sync::Arc;

use jamm_consumers::collector::EventCollector;
use jamm_consumers::overview::OverviewMonitor;
use jamm_consumers::procmon::{ProcessMonitorConsumer, RecoveryAction};
use jamm_consumers::GatewayRegistry;
use jamm_directory::{DirectoryServer, Dn};
use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
use jamm_manager::config::ManagerConfig;
use jamm_manager::manager::{NoPortActivity, SensorManager};
use jamm_netsim::scenario::cluster_topology;
use jamm_netsim::{HostId, Network};
use jamm_sensors::sim::NetworkSource;
use jamm_ulm::Timestamp;

use crate::admin::gateway_rows;

/// A monitored compute farm.
pub struct ClusterDeployment {
    /// The simulated cluster network.
    pub net: Network,
    /// The worker nodes.
    pub nodes: Vec<HostId>,
    /// The sensor directory.
    pub directory: Arc<DirectoryServer>,
    /// Gateways (one by default; more can be added for scaling experiments).
    pub gateways: Vec<Arc<EventGateway>>,
    /// Gateway registry used by consumers.
    pub registry: GatewayRegistry,
    managers: Vec<SensorManager>,
    /// Streaming consumers attached for scalability experiments.
    pub consumers: Vec<EventCollector>,
    /// The administrator's process monitor.
    pub process_monitor: ProcessMonitorConsumer,
    /// The administrator's overview monitor.
    pub overview: OverviewMonitor,
    manager_period_ms: u64,
}

impl ClusterDeployment {
    /// Build a monitored cluster of `nodes` workers using `n_gateways`
    /// gateways (nodes are assigned to gateways round-robin).
    pub fn new(nodes: usize, n_gateways: usize, seed: u64) -> Self {
        assert!(n_gateways >= 1);
        let (net, node_ids, _switch) = cluster_topology(nodes, seed);
        let farm = Dn::root().child("o", "grid").child("o", "farm");
        let directory = Arc::new(DirectoryServer::new(
            "ldap://dir.farm.lbl.gov",
            farm.clone(),
        ));
        let mut registry = GatewayRegistry::new();
        let mut gateways = Vec::new();
        for g in 0..n_gateways {
            let name = format!("gw{g}.farm.lbl.gov:8765");
            let gw = Arc::new(EventGateway::new(GatewayConfig::open(name.clone())));
            registry.register(name, Arc::clone(&gw));
            gateways.push(gw);
        }
        let mut managers = Vec::new();
        for (i, &id) in node_ids.iter().enumerate() {
            let host = net.host(id).name().to_string();
            let gw_name = format!("gw{}.farm.lbl.gov:8765", i % n_gateways);
            let cfg = ManagerConfig::standard_host(host, gw_name, &["worker"]);
            managers.push(SensorManager::new(&cfg, farm.clone()));
        }
        let mut process_monitor = ProcessMonitorConsumer::new("farm-admin");
        process_monitor.watch("worker", None, vec![RecoveryAction::Restart]);
        let mut overview = OverviewMonitor::new("farm-admin");
        overview.alert_when_all_down(
            "farm-down",
            "worker",
            net.hosts().iter().map(|h| h.name().to_string()).collect(),
        );
        for g in 0..n_gateways {
            let name = format!("gw{g}.farm.lbl.gov:8765");
            process_monitor.subscribe(&registry, &name);
            overview.subscribe(&registry, &name);
        }
        ClusterDeployment {
            net,
            nodes: node_ids,
            directory,
            gateways,
            registry,
            managers,
            consumers: Vec::new(),
            process_monitor,
            overview,
            manager_period_ms: 100,
        }
    }

    /// Attach `n` streaming consumers, each subscribing to every gateway with
    /// the given filters (used by E7 / E10).
    pub fn attach_consumers(&mut self, n: usize, filters: Vec<Predicate>) {
        for i in 0..n {
            let mut c = EventCollector::new(format!("consumer-{i}"));
            for g in 0..self.gateways.len() {
                c.subscribe_gateway(
                    &self.registry,
                    &format!("gw{g}.farm.lbl.gov:8765"),
                    filters.clone(),
                );
            }
            self.consumers.push(c);
        }
    }

    /// Advance the cluster by one simulated millisecond.
    pub fn step(&mut self) {
        self.net.step();
        let now_ms = self.net.clock().now_us() / 1_000;
        if !now_ms.is_multiple_of(self.manager_period_ms) {
            return;
        }
        let now: Timestamp = self.net.clock().timestamp();
        let stats = NetworkSource::new(&self.net);
        let n_gw = self.gateways.len();
        for (i, manager) in self.managers.iter_mut().enumerate() {
            let gw = &self.gateways[i % n_gw];
            manager.tick(
                now,
                &stats,
                &NoPortActivity,
                gw.as_ref(),
                Some(&self.directory),
            );
        }
        for c in &mut self.consumers {
            c.poll();
        }
        // The recovery consumer restarts dead workers.
        let actions = self.process_monitor.poll();
        for action in actions {
            if action.action == RecoveryAction::Restart {
                if let Some(id) = self.net.host_by_name(&action.host) {
                    self.net.host_mut(id).restart_process(&action.process);
                }
            }
        }
        self.overview.poll();
    }

    /// Run for a number of simulated seconds.
    pub fn run_secs(&mut self, secs: f64) {
        let ticks = (secs * 1_000.0).round() as u64;
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Kill the worker process on one node (fault injection).
    pub fn kill_worker(&mut self, node: usize) {
        let id = self.nodes[node];
        self.net.host_mut(id).kill_process("worker");
    }

    /// True if the worker on the given node is alive.
    pub fn worker_alive(&self, node: usize) -> bool {
        self.net
            .host(self.nodes[node])
            .processes()
            .any(|(p, alive)| p == "worker" && alive)
    }

    /// Total events published into all gateways.
    pub fn events_published(&self) -> u64 {
        gateway_rows(&self.gateways)
            .iter()
            .map(|r| r.events_in)
            .sum()
    }

    /// Total event copies delivered to consumers by all gateways.
    pub fn events_delivered(&self) -> u64 {
        gateway_rows(&self.gateways)
            .iter()
            .map(|r| r.events_out)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_monitors_all_nodes_and_recovers_dead_workers() {
        let mut cluster = ClusterDeployment::new(8, 1, 17);
        cluster.run_secs(3.0);
        assert!(cluster.events_published() > 0);
        assert!(
            cluster.directory.entry_count() >= 8 * 4,
            "sensors published"
        );
        // Kill a worker; the process monitor notices and restarts it.
        cluster.kill_worker(3);
        assert!(!cluster.worker_alive(3));
        cluster.run_secs(6.0);
        assert!(
            cluster.worker_alive(3),
            "restarted by the recovery consumer"
        );
        assert!(!cluster.process_monitor.history().is_empty());
    }

    #[test]
    fn consumers_multiply_delivered_volume_not_published_volume() {
        let mut one = ClusterDeployment::new(4, 1, 5);
        one.attach_consumers(1, vec![]);
        one.run_secs(5.0);
        let mut many = ClusterDeployment::new(4, 1, 5);
        many.attach_consumers(8, vec![]);
        many.run_secs(5.0);
        // The sensors do the same work regardless of consumer count...
        assert_eq!(one.events_published(), many.events_published());
        // ...and the gateway absorbs the fan-out.
        assert!(many.events_delivered() >= 7 * one.events_delivered());
    }

    #[test]
    fn overview_alert_fires_only_when_every_worker_is_down() {
        let mut cluster = ClusterDeployment::new(3, 1, 9);
        cluster.run_secs(2.0);
        cluster.kill_worker(0);
        cluster.kill_worker(1);
        cluster.run_secs(1.0);
        // Recovery may have restarted them already, but the full-outage alert
        // must not have fired while at least one worker stayed up the whole
        // time... kill all three faster than the recovery acts by checking
        // immediately after.
        assert!(cluster.overview.alerts().is_empty());
    }
}
