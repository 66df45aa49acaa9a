//! Sensor configuration.
//!
//! The configuration file lists, for one host, which sensors to run, how
//! often they sample, and under which policy they are started: always, only
//! when explicitly requested (from the sensor-control GUI), or only while
//! the port monitor sees traffic on an application's port.  "Every few
//! minutes the sensor managers check for updates to the configuration file,
//! and activate new sensors if necessary" — hence the version counter and
//! the [`ConfigProvider`] abstraction standing in for the HTTP-served file:
//! a provider hands the manager a [`ManagerConfig`] value, so there is no
//! text format to parse.

/// What kind of sensor to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorTemplate {
    /// CPU utilisation sensor (`vmstat` family).
    Cpu,
    /// Free-memory sensor.
    Memory,
    /// TCP retransmission / window sensor (instrumented tcpdump family).
    Tcp,
    /// Unfiltered netstat counter sensor.
    NetstatCounter,
    /// SNMP network-device sensor for the named router/switch.
    Snmp {
        /// Device to poll.
        device: String,
    },
    /// Process liveness sensor for the named process.
    Process {
        /// Process name to watch.
        process: String,
    },
}

impl SensorTemplate {
    /// The sensor's short name as published in the directory.
    pub fn sensor_name(&self) -> String {
        match self {
            SensorTemplate::Cpu => "cpu".into(),
            SensorTemplate::Memory => "memory".into(),
            SensorTemplate::Tcp => "tcp".into(),
            SensorTemplate::NetstatCounter => "netstat".into(),
            SensorTemplate::Snmp { device } => format!("snmp-{device}"),
            SensorTemplate::Process { process } => format!("process-{process}"),
        }
    }
}

/// When a configured sensor should be running.
#[derive(Debug, Clone, PartialEq)]
pub enum RunPolicy {
    /// Run for the lifetime of the manager.
    Always,
    /// Run only after an explicit start request (sensor-control GUI / RMI).
    OnRequest,
    /// Run only while the port monitor sees traffic on this port; stop after
    /// `idle_secs` without traffic.
    PortTriggered {
        /// Port whose activity triggers the sensor.
        port: u16,
        /// Seconds of silence after which the sensor is stopped again.
        idle_secs: f64,
    },
}

/// One sensor entry in the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfigEntry {
    /// What to run.
    pub template: SensorTemplate,
    /// Sampling period in seconds.
    pub frequency_secs: f64,
    /// When to run it.
    pub policy: RunPolicy,
}

/// The per-host sensor configuration file.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    /// Host this configuration applies to.
    pub host: String,
    /// Name of the event gateway sensors publish through.
    pub gateway: String,
    /// Monotonically increasing version; managers reload when it changes.
    pub version: u64,
    /// The sensors to manage.
    pub sensors: Vec<SensorConfigEntry>,
}

impl ManagerConfig {
    /// A configuration with no sensors.
    pub fn empty(host: impl Into<String>, gateway: impl Into<String>) -> Self {
        ManagerConfig {
            host: host.into(),
            gateway: gateway.into(),
            version: 1,
            sensors: Vec::new(),
        }
    }

    /// The default host configuration the paper describes: CPU, memory and
    /// TCP monitoring always on, plus process watching for the given
    /// processes.
    pub fn standard_host(
        host: impl Into<String>,
        gateway: impl Into<String>,
        watched_processes: &[&str],
    ) -> Self {
        let mut cfg = ManagerConfig::empty(host, gateway);
        cfg.sensors.push(SensorConfigEntry {
            template: SensorTemplate::Cpu,
            frequency_secs: 1.0,
            policy: RunPolicy::Always,
        });
        cfg.sensors.push(SensorConfigEntry {
            template: SensorTemplate::Memory,
            frequency_secs: 5.0,
            policy: RunPolicy::Always,
        });
        cfg.sensors.push(SensorConfigEntry {
            template: SensorTemplate::Tcp,
            frequency_secs: 1.0,
            policy: RunPolicy::Always,
        });
        for p in watched_processes {
            cfg.sensors.push(SensorConfigEntry {
                template: SensorTemplate::Process {
                    process: (*p).to_string(),
                },
                frequency_secs: 5.0,
                policy: RunPolicy::Always,
            });
        }
        cfg
    }

    /// Builder-style: add a sensor entry.
    pub fn with_sensor(mut self, entry: SensorConfigEntry) -> Self {
        self.sensors.push(entry);
        self
    }
}

/// Source of configuration updates (stands in for the HTTP-served file the
/// managers poll every few minutes).
pub trait ConfigProvider {
    /// The currently published configuration.
    fn current(&self) -> ManagerConfig;
}

/// A simple in-memory provider used by tests and examples.
#[derive(Debug, Clone)]
pub struct StaticConfigProvider {
    config: std::sync::Arc<jamm_core::sync::RwLock<ManagerConfig>>,
}

impl StaticConfigProvider {
    /// Wrap an initial configuration.
    pub fn new(config: ManagerConfig) -> Self {
        StaticConfigProvider {
            config: std::sync::Arc::new(jamm_core::sync::RwLock::new(config)),
        }
    }

    /// Publish an updated configuration (bumps the version automatically if
    /// the caller forgot to).
    pub fn publish(&self, mut config: ManagerConfig) {
        let mut cur = self.config.write();
        if config.version <= cur.version {
            config.version = cur.version + 1;
        }
        *cur = config;
    }
}

impl ConfigProvider for StaticConfigProvider {
    fn current(&self) -> ManagerConfig {
        self.config.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_host_config_contents() {
        let cfg = ManagerConfig::standard_host("dpss1.lbl.gov", "gw1", &["dpss_master"]);
        assert_eq!(cfg.sensors.len(), 4);
        assert!(cfg
            .sensors
            .iter()
            .any(|s| matches!(&s.template, SensorTemplate::Process { process } if process == "dpss_master")));
        assert!(cfg.sensors.iter().all(|s| s.policy == RunPolicy::Always));
    }

    #[test]
    fn sensor_names_are_stable() {
        assert_eq!(SensorTemplate::Cpu.sensor_name(), "cpu");
        assert_eq!(
            SensorTemplate::Snmp {
                device: "sw1".into()
            }
            .sensor_name(),
            "snmp-sw1"
        );
        assert_eq!(
            SensorTemplate::Process {
                process: "dpss_master".into()
            }
            .sensor_name(),
            "process-dpss_master"
        );
    }

    #[test]
    fn provider_bumps_versions() {
        let provider = StaticConfigProvider::new(ManagerConfig::empty("h", "gw"));
        assert_eq!(provider.current().version, 1);
        let mut updated = provider.current();
        updated.sensors.push(SensorConfigEntry {
            template: SensorTemplate::Cpu,
            frequency_secs: 1.0,
            policy: RunPolicy::Always,
        });
        provider.publish(updated);
        assert_eq!(provider.current().version, 2);
        assert_eq!(provider.current().sensors.len(), 1);
    }
}
