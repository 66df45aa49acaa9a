//! Complete JAMM deployments over the simulated testbed.
//!
//! A deployment is the paper's Figure 4: every monitored host runs a sensor
//! manager feeding its site's event gateway; sensor publication records live
//! in the (replicated) directory; an event collector and an archiver agent
//! subscribe through the gateways; and the monitored application (the MATISSE
//! frame player pulling data from the DPSS) runs underneath, oblivious to all
//! of it.

use std::sync::Arc;

use jamm_archive::EventArchive;
use jamm_consumers::archiver::ArchiverAgent;
use jamm_consumers::collector::EventCollector;
use jamm_consumers::GatewayRegistry;
use jamm_directory::{DirectoryServer, Dn, Filter};
use jamm_gateway::{EventGateway, Predicate};

use crate::admin::gateway_rows;
use crate::builder::{BuildError, JammBuilder};
use jamm_manager::config::{ManagerConfig, RunPolicy, SensorConfigEntry, SensorTemplate};
use jamm_manager::manager::{PortActivitySource, SensorManager};
use jamm_netlogger::nlv::NlvChart;
use jamm_netsim::scenario::{MatisseConfig, MatisseScenario};
use jamm_netsim::Network;
use jamm_sensors::sim::NetworkSource;
use jamm_ulm::{keys, Event, Level};

/// How often (in simulated milliseconds) the sensor managers run a
/// monitoring cycle.
const MANAGER_PERIOD_MS: u64 = 10;

/// Configuration of a full JAMM deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// The underlying MATISSE scenario (topology, player, seed).
    pub matisse: MatisseConfig,
    /// Port the DPSS serves data on (watched by the port monitor).
    pub dpss_port: u16,
    /// Whether host monitoring is port-triggered (the paper's on-demand
    /// monitoring) or always on.  Experiment E8 compares the two.
    pub port_triggered: bool,
    /// Whether the archiver agent runs.
    pub archive: bool,
}

impl DeploymentConfig {
    /// The §6 wide-area MATISSE deployment with `dpss_servers` block servers.
    pub fn matisse_wan(dpss_servers: usize) -> Self {
        DeploymentConfig {
            matisse: MatisseConfig {
                dpss_servers,
                wan: true,
                ..MatisseConfig::default()
            },
            dpss_port: 7_000,
            port_triggered: false,
            archive: true,
        }
    }

    /// The LAN variant (used for the LAN comparisons and fast tests).
    pub fn matisse_lan(dpss_servers: usize) -> Self {
        DeploymentConfig {
            matisse: MatisseConfig {
                dpss_servers,
                wan: false,
                ..MatisseConfig::default()
            },
            dpss_port: 7_000,
            port_triggered: false,
            archive: true,
        }
    }
}

/// Adapter: the simulated network answers the port monitor's questions.
struct NetPorts<'a> {
    net: &'a Network,
}

impl PortActivitySource for NetPorts<'_> {
    fn bytes_on_port(&self, host: &str, port: u16) -> u64 {
        self.net
            .host_by_name(host)
            .map(|id| self.net.port_activity(id, port))
            .unwrap_or(0)
    }
}

/// A fully wired JAMM system running over the simulated testbed.
pub struct JammDeployment {
    /// The monitored application scenario (network + DPSS + player + trace).
    pub scenario: MatisseScenario,
    /// The sensor directory (one site-wide server in this deployment).
    pub directory: Arc<DirectoryServer>,
    /// Gateways by published name.
    pub registry: GatewayRegistry,
    gateways: Vec<Arc<EventGateway>>,
    managers: Vec<SensorManager>,
    /// The real-time event collector consumer.
    pub collector: EventCollector,
    archiver: Option<ArchiverAgent>,
    /// The event archive (written by the archiver agent).
    pub archive: Arc<EventArchive>,
    config: DeploymentConfig,
    subscribed: bool,
}

impl JammDeployment {
    /// Build the MATISSE deployment of §6: JAMM monitoring every host of the
    /// storage cluster, the receiving host, and the routers in between.
    pub fn matisse(config: DeploymentConfig) -> Result<Self, BuildError> {
        let scenario = MatisseScenario::new(config.matisse.clone());

        // One gateway per site, as in Figure 6: the storage cluster's events
        // go through the LBNL gateway, the compute cluster's through ISI's.
        // The builder wires directory + gateways + archiver in one place.
        let mut builder = JammBuilder::new()
            .directory("ldap://dir.lbl.gov", "o=grid")
            .gateway("gw.lbl.gov:8765")
            .gateway("gw.cairn.net:8765");
        if config.archive {
            builder = builder.archiver("archiver", "archive=matisse,o=lbl,o=grid");
        }
        let system = builder.build()?;
        let directory = system.directory;
        let registry = system.registry;
        let gateways = system.gateways;
        let archiver = system.archiver;
        let archive = system.archive;
        let grid = Dn::root().child("o", "grid");

        // Sensor managers: one per monitored host.
        let mut managers = Vec::new();
        let host_policy = |port_triggered: bool, port: u16| {
            if port_triggered {
                RunPolicy::PortTriggered {
                    port,
                    idle_secs: 2.0,
                }
            } else {
                RunPolicy::Always
            }
        };
        for (i, &host_id) in scenario.storage_hosts.iter().enumerate() {
            let host = scenario.net.host(host_id).name().to_string();
            let mut cfg = ManagerConfig::empty(host.clone(), "gw.lbl.gov:8765");
            cfg.sensors.push(SensorConfigEntry {
                template: SensorTemplate::Cpu,
                frequency_secs: 1.0,
                policy: host_policy(config.port_triggered, config.dpss_port),
            });
            cfg.sensors.push(SensorConfigEntry {
                template: SensorTemplate::Memory,
                frequency_secs: 5.0,
                policy: host_policy(config.port_triggered, config.dpss_port),
            });
            cfg.sensors.push(SensorConfigEntry {
                template: SensorTemplate::Tcp,
                frequency_secs: 1.0,
                policy: host_policy(config.port_triggered, config.dpss_port),
            });
            cfg.sensors.push(SensorConfigEntry {
                template: SensorTemplate::Process {
                    process: "dpss_block_server".into(),
                },
                frequency_secs: 5.0,
                policy: RunPolicy::Always,
            });
            if i == 0 {
                cfg.sensors.push(SensorConfigEntry {
                    template: SensorTemplate::Process {
                        process: "dpss_master".into(),
                    },
                    frequency_secs: 5.0,
                    policy: RunPolicy::Always,
                });
                // The first storage host's manager also polls the site's
                // routers over SNMP (network sensors run remotely, §2.2).
                for router in scenario.net.routers() {
                    cfg.sensors.push(SensorConfigEntry {
                        template: SensorTemplate::Snmp {
                            device: router.name.clone(),
                        },
                        frequency_secs: 5.0,
                        policy: RunPolicy::Always,
                    });
                }
            }
            managers.push(SensorManager::new(&cfg, grid.child("o", "lbl")));
        }

        // The receiving host (compute cluster head) at ISI.
        let client_host = scenario.net.host(scenario.client).name().to_string();
        let mut client_cfg = ManagerConfig::empty(client_host, "gw.cairn.net:8765");
        for (template, freq) in [
            (SensorTemplate::Cpu, 0.5),
            (SensorTemplate::Memory, 5.0),
            (SensorTemplate::Tcp, 0.5),
        ] {
            client_cfg.sensors.push(SensorConfigEntry {
                template,
                frequency_secs: freq,
                policy: host_policy(config.port_triggered, config.dpss_port),
            });
        }
        client_cfg.sensors.push(SensorConfigEntry {
            template: SensorTemplate::Process {
                process: "mplay".into(),
            },
            frequency_secs: 5.0,
            policy: RunPolicy::Always,
        });
        managers.push(SensorManager::new(&client_cfg, grid.child("o", "isi")));

        Ok(JammDeployment {
            scenario,
            directory,
            registry,
            gateways,
            managers,
            collector: EventCollector::new("nlv-analyst"),
            archiver,
            archive,
            config,
            subscribed: false,
        })
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The gateways, in registration order (LBNL first).
    pub fn gateways(&self) -> &[Arc<EventGateway>] {
        &self.gateways
    }

    /// Connect the consumers: the collector discovers sensors in the
    /// directory and subscribes through the gateways; the archiver subscribes
    /// to warnings and errors.  Called automatically on the first step once
    /// some sensors have been published, but can be called explicitly.
    pub fn connect_consumers(&mut self) -> usize {
        let found = self.collector.discover(
            &self.directory,
            &Dn::root().child("o", "grid"),
            &Filter::eq("objectclass", "sensor"),
        );
        let opened = self.collector.subscribe_all(&self.registry, vec![]);
        if let Some(archiver) = &mut self.archiver {
            for name in ["gw.lbl.gov:8765", "gw.cairn.net:8765"] {
                let _ = archiver.subscribe(
                    &self.registry,
                    name,
                    vec![Predicate::MinLevel(Level::Warning.severity())],
                );
            }
        }
        self.subscribed = opened > 0 && !found.is_empty();
        opened
    }

    /// Advance the whole system by one simulated millisecond.
    pub fn step(&mut self) {
        self.scenario.step();
        let now_ms = self.scenario.net.clock().now_us() / 1_000;
        if now_ms.is_multiple_of(MANAGER_PERIOD_MS) {
            let now = self.scenario.net.clock().timestamp();
            let stats = NetworkSource::new(&self.scenario.net);
            let ports = NetPorts {
                net: &self.scenario.net,
            };
            let lbl_count = self.managers_on_lbl();
            for (i, manager) in self.managers.iter_mut().enumerate() {
                let gateway = if i < lbl_count {
                    &self.gateways[0]
                } else {
                    &self.gateways[1]
                };
                manager.tick(now, &stats, &ports, gateway.as_ref(), Some(&self.directory));
            }
            if !self.subscribed {
                self.connect_consumers();
            }
            self.collector.poll();
            if let Some(archiver) = &mut self.archiver {
                archiver.poll();
                if now_ms.is_multiple_of(1_000) {
                    archiver.publish_catalog(&self.directory, now);
                }
            }
        }
    }

    fn managers_on_lbl(&self) -> usize {
        self.scenario.storage_hosts.len()
    }

    /// Run for a number of simulated seconds.
    pub fn run_secs(&mut self, secs: f64) {
        let ticks = (secs * 1_000.0).round() as u64;
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Events gathered by the real-time collector so far.
    pub fn collector_event_count(&self) -> usize {
        self.collector.events().len()
    }

    /// Total events the application itself emitted (the trace the NetLogger
    /// analysis merges with the sensor data).
    pub fn application_event_count(&self) -> usize {
        self.scenario.trace.len()
    }

    /// The merged event log for analysis: application trace + everything the
    /// collector gathered, time-ordered.
    pub fn merged_log(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.scenario.trace.events().to_vec();
        all.extend(self.collector.events().iter().map(|e| (**e).clone()));
        all.sort_by_key(|e| e.timestamp);
        all
    }

    /// Build the Figure 7 chart from the merged log: frame lifelines over the
    /// DPSS and player stages, CPU/memory loadlines on the receiving host,
    /// and TCP retransmission points.
    pub fn figure7_chart(&self) -> NlvChart {
        let log = self.merged_log();
        let client = "mems.cairn.net";
        NlvChart::build(
            &log,
            &[
                keys::matisse::DPSS_SERV_IN,
                keys::matisse::DPSS_START_WRITE,
                keys::matisse::DPSS_END_WRITE,
                keys::matisse::START_READ_FRAME,
                keys::matisse::END_READ_FRAME,
                keys::matisse::START_PUT_IMAGE,
                keys::matisse::END_PUT_IMAGE,
            ],
            &[
                (client, keys::cpu::SYS),
                (client, keys::cpu::USER),
                (client, keys::mem::FREE),
            ],
            &[(Some(client), keys::tcp::RETRANSMITS)],
        )
    }

    /// Total monitoring events delivered by all gateways to all consumers.
    pub fn events_delivered(&self) -> u64 {
        gateway_rows(&self.gateways)
            .iter()
            .map(|r| r.events_out)
            .sum()
    }

    /// Total monitoring events published into the gateways by the managers.
    pub fn events_published(&self) -> u64 {
        gateway_rows(&self.gateways)
            .iter()
            .map(|r| r.events_in)
            .sum()
    }

    /// Number of sensors currently listed as running in the directory.
    pub fn sensors_running(&self) -> usize {
        self.directory
            .search(
                &Dn::root().child("o", "grid"),
                jamm_directory::Scope::Subtree,
                &Filter::and(vec![
                    Filter::eq("objectclass", "sensor"),
                    Filter::eq("status", "running"),
                ]),
            )
            .map(|r| r.entries.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lan_deployment() -> JammDeployment {
        let mut cfg = DeploymentConfig::matisse_lan(2);
        cfg.matisse.player.frame_bytes = 400_000;
        cfg.matisse.player.max_frames = 0;
        cfg.matisse.seed = 11;
        JammDeployment::matisse(cfg).unwrap()
    }

    #[test]
    fn deployment_monitors_the_application_end_to_end() {
        let mut jamm = small_lan_deployment();
        jamm.run_secs(8.0);
        // The application made progress...
        assert!(jamm.scenario.player.frames_displayed() > 0);
        assert!(jamm.application_event_count() > 0);
        // ...the sensors were published and ran...
        assert!(jamm.sensors_running() > 0);
        assert!(jamm.events_published() > 0);
        // ...and the collector received monitoring data through the gateways.
        assert!(jamm.collector_event_count() > 0);
        assert!(jamm.events_delivered() >= jamm.collector_event_count() as u64);
        // The merged log is time ordered and contains both kinds of events.
        let log = jamm.merged_log();
        assert!(log.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert!(log
            .iter()
            .any(|e| e.event_type == keys::matisse::END_READ_FRAME));
        assert!(log.iter().any(|e| e.event_type == keys::cpu::SYS));
    }

    #[test]
    fn figure7_chart_contains_lifelines_and_loadlines() {
        let mut jamm = small_lan_deployment();
        jamm.run_secs(6.0);
        let chart = jamm.figure7_chart();
        assert!(!chart.lifelines.is_empty(), "frame lifelines present");
        assert!(chart.loadlines.iter().any(|l| !l.samples.is_empty()));
        assert!(chart.time_range().is_some());
    }

    #[test]
    fn port_triggered_monitoring_produces_fewer_events_than_always_on() {
        let run = |port_triggered: bool| {
            let mut cfg = DeploymentConfig::matisse_lan(1);
            cfg.matisse.player.frame_bytes = 400_000;
            // Frames only for the first part of the run; afterwards the
            // application is idle and on-demand monitoring should go quiet.
            cfg.matisse.player.max_frames = 5;
            cfg.matisse.seed = 3;
            cfg.port_triggered = port_triggered;
            let mut jamm = JammDeployment::matisse(cfg).unwrap();
            jamm.run_secs(20.0);
            jamm.events_published()
        };
        let always_on = run(false);
        let on_demand = run(true);
        assert!(
            on_demand < always_on / 2,
            "port-triggered monitoring should collect far less: {on_demand} vs {always_on}"
        );
        assert!(on_demand > 0, "but not nothing");
    }
}
