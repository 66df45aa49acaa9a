//! The sensor manager.
//!
//! One manager runs per host.  It instantiates sensors from the
//! configuration, starts and stops them according to their run policy
//! (always / on request / port triggered), samples the running ones at their
//! configured frequency, pushes the resulting events into the host's event
//! gateway, and keeps the sensor directory up to date (publishing a sensor
//! entry when a sensor starts, refreshing its status, and marking it stopped
//! when it stops).

use std::collections::BTreeMap;
use std::sync::Arc;

use jamm_core::flow::EventSink;
use jamm_directory::{DirectoryServer, Dn, Entry};
use jamm_sensors::application::ApplicationSensor;
use jamm_sensors::host::{CpuSensor, MemorySensor};
use jamm_sensors::network::SnmpSensor;
use jamm_sensors::process::ProcessSensor;
use jamm_sensors::tcp::{NetstatCounterSensor, TcpSensor};
use jamm_sensors::{SampleContext, Sensor, StatsSource};
use jamm_ulm::SharedEvent;
use jamm_ulm::Timestamp;

use crate::config::{ConfigProvider, ManagerConfig, RunPolicy, SensorTemplate};
use crate::portmon::PortMonitorAgent;

/// Where the manager learns about per-port traffic (the signal feeding the
/// port monitor agent).  The simulator's `Network` and any packet-capture
/// front-end can implement this.
pub trait PortActivitySource {
    /// Bytes delivered to `host` on `port` during the last monitoring
    /// interval.
    fn bytes_on_port(&self, host: &str, port: u16) -> u64;
}

/// Status of one managed sensor (the data behind the Sensor Data GUI).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorStatus {
    /// Sensor name.
    pub name: String,
    /// Whether the sensor is currently running.
    pub running: bool,
    /// Run policy from the configuration.
    pub policy: RunPolicy,
    /// Sampling period in seconds.
    pub frequency_secs: f64,
    /// When the sensor last sampled.
    pub last_sample: Option<Timestamp>,
    /// Events emitted since the manager started it.
    pub events_emitted: u64,
}

struct ManagedSensor {
    sensor: Box<dyn Sensor>,
    policy: RunPolicy,
    frequency_secs: f64,
    running: bool,
    explicitly_requested: bool,
    last_sample: Option<Timestamp>,
    events_emitted: u64,
}

/// The per-host sensor manager agent.
pub struct SensorManager {
    host: String,
    gateway_name: String,
    config_version: u64,
    /// Keyed by sensor name; a `BTreeMap` so every tick samples, publishes
    /// and writes directory transitions in name order, the same on every run.
    sensors: BTreeMap<String, ManagedSensor>,
    port_monitor: PortMonitorAgent,
    directory_base: Dn,
    events_published: u64,
    delivery_failures: u64,
}

impl SensorManager {
    /// Create a manager for `config.host`, publishing directory entries under
    /// `directory_base` (e.g. `o=lbl,o=grid`).
    pub fn new(config: &ManagerConfig, directory_base: Dn) -> Self {
        let mut mgr = SensorManager {
            host: config.host.clone(),
            gateway_name: config.gateway.clone(),
            config_version: 0,
            sensors: BTreeMap::new(),
            port_monitor: PortMonitorAgent::new(),
            directory_base,
            events_published: 0,
            delivery_failures: 0,
        };
        mgr.apply_config(config);
        mgr
    }

    /// The host this manager is responsible for.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Total events pushed to the gateway since the manager started.
    pub fn events_published(&self) -> u64 {
        self.events_published
    }

    /// Events whose delivery the sink refused (closed or rejecting sink).
    /// Sensors keep running through sink outages; this counter is how the
    /// loss stays visible.
    pub fn delivery_failures(&self) -> u64 {
        self.delivery_failures
    }

    /// Apply (or re-apply) a configuration: new sensors are created, removed
    /// sensors are dropped, changed policies/frequencies take effect.
    /// Returns the number of sensor entries that changed.
    pub fn apply_config(&mut self, config: &ManagerConfig) -> usize {
        if config.version == self.config_version {
            return 0;
        }
        self.config_version = config.version;
        let mut changed = 0;
        let mut seen = Vec::new();
        for entry in &config.sensors {
            let name = entry.template.sensor_name();
            seen.push(name.clone());
            if let RunPolicy::PortTriggered { port, idle_secs } = &entry.policy {
                self.port_monitor.watch(*port, *idle_secs);
            }
            let needs_new = match self.sensors.get(&name) {
                Some(existing) => {
                    existing.policy != entry.policy
                        || existing.frequency_secs != entry.frequency_secs
                }
                None => true,
            };
            if needs_new {
                let sensor = build_sensor(&entry.template, &self.host, entry.frequency_secs);
                self.sensors.insert(
                    name,
                    ManagedSensor {
                        sensor,
                        policy: entry.policy.clone(),
                        frequency_secs: entry.frequency_secs,
                        running: false,
                        explicitly_requested: false,
                        last_sample: None,
                        events_emitted: 0,
                    },
                );
                changed += 1;
            }
        }
        let before = self.sensors.len();
        self.sensors.retain(|name, _| seen.contains(name));
        changed + (before - self.sensors.len())
    }

    /// Poll a configuration provider and re-apply if the version changed
    /// ("every few minutes the sensor managers check for updates").
    pub fn maybe_reload(&mut self, provider: &dyn ConfigProvider) -> usize {
        let cfg = provider.current();
        if cfg.version != self.config_version {
            self.apply_config(&cfg)
        } else {
            0
        }
    }

    /// Explicitly request an on-request sensor to start (the sensor-control
    /// GUI path).  Returns false if no such sensor is configured.
    pub fn request_start(&mut self, sensor_name: &str) -> bool {
        match self.sensors.get_mut(sensor_name) {
            Some(s) => {
                s.explicitly_requested = true;
                true
            }
            None => false,
        }
    }

    /// Explicitly stop an on-request sensor.
    pub fn request_stop(&mut self, sensor_name: &str) -> bool {
        match self.sensors.get_mut(sensor_name) {
            Some(s) => {
                s.explicitly_requested = false;
                true
            }
            None => false,
        }
    }

    /// Status of every configured sensor, in name order.
    pub fn status(&self) -> Vec<SensorStatus> {
        self.sensors
            .iter()
            .map(|(name, s)| SensorStatus {
                name: name.clone(),
                running: s.running,
                policy: s.policy.clone(),
                frequency_secs: s.frequency_secs,
                last_sample: s.last_sample,
                events_emitted: s.events_emitted,
            })
            .collect()
    }

    /// Names of currently running sensors, in name order.
    pub fn running_sensors(&self) -> Vec<String> {
        self.sensors
            .iter()
            .filter(|(_, s)| s.running)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// One manager cycle:
    ///
    /// 1. feed the port monitor with observed per-port traffic;
    /// 2. start / stop sensors according to their run policy;
    /// 3. sample every running sensor whose period has elapsed;
    /// 4. push the events into the sink (normally the host's event
    ///    gateway, but any [`EventSink`] — the archive's store, a test
    ///    probe — works).  Each sampled event is wrapped once as a
    ///    [`SharedEvent`] at the push boundary: the publish side of the
    ///    pipeline never copies it again;
    /// 5. refresh the sensor directory.
    pub fn tick(
        &mut self,
        now: Timestamp,
        stats: &dyn StatsSource,
        ports: &dyn PortActivitySource,
        sink: &dyn EventSink<SharedEvent>,
        directory: Option<&Arc<DirectoryServer>>,
    ) -> u64 {
        // 1. Port activity.
        for port in self.port_monitor.watched_ports() {
            let bytes = ports.bytes_on_port(&self.host, port);
            self.port_monitor.observe(port, bytes, now);
        }

        // 2. Start/stop per policy.
        let mut transitions: Vec<(String, bool)> = Vec::new();
        for (name, s) in &mut self.sensors {
            let should_run = match &s.policy {
                RunPolicy::Always => true,
                RunPolicy::OnRequest => s.explicitly_requested,
                RunPolicy::PortTriggered { port, .. } => self.port_monitor.is_active(*port, now),
            };
            if should_run != s.running {
                s.running = should_run;
                transitions.push((name.clone(), should_run));
            }
        }

        // 3-4. Sample and publish.
        let mut published = 0u64;
        for s in self.sensors.values_mut() {
            if !s.running {
                continue;
            }
            let due = match s.last_sample {
                None => true,
                Some(last) => now.as_micros() >= last.as_micros() + (s.frequency_secs * 1e6) as u64,
            };
            if !due {
                continue;
            }
            s.last_sample = Some(now);
            let ctx = SampleContext {
                timestamp: now,
                source: stats,
            };
            let events: Vec<SharedEvent> = s
                .sensor
                .sample(&ctx)
                .into_iter()
                .map(SharedEvent::new)
                .collect();
            s.events_emitted += events.len() as u64;
            // A failing sink is not the manager's failure: the sensors keep
            // running, and the whole batch is counted as lost (the default
            // accept_batch aborts at the first error, so per-event progress
            // within a failed batch is unknowable here).
            if sink.accept_batch(&events).is_err() {
                self.delivery_failures += events.len() as u64;
            }
            published += events.len() as u64;
        }
        self.events_published += published;

        // 5. Directory maintenance.
        if let Some(dir) = directory {
            for (name, running) in &transitions {
                let _ = dir.add_or_replace(self.directory_entry(name, *running, now));
            }
        }
        published
    }

    /// The directory entry describing one of this manager's sensors.
    pub fn directory_entry(&self, sensor_name: &str, running: bool, now: Timestamp) -> Entry {
        let dn = self
            .directory_base
            .child("host", self.host.clone())
            .child("sensor", sensor_name);
        let mut entry = Entry::new(dn)
            .with("objectclass", "sensor")
            .with("host", self.host.clone())
            .with("sensor", sensor_name)
            .with("gateway", self.gateway_name.clone())
            .with("status", if running { "running" } else { "stopped" })
            .with("lastupdate", now.to_ulm_date());
        if let Some(s) = self.sensors.get(sensor_name) {
            entry.add("frequency", format!("{}", s.frequency_secs));
            for ty in &s.sensor.spec().event_types {
                entry.add("eventtype", ty.clone());
            }
        }
        entry
    }
}

/// Build a sensor instance from its template.
fn build_sensor(template: &SensorTemplate, host: &str, frequency_secs: f64) -> Box<dyn Sensor> {
    match template {
        SensorTemplate::Cpu => Box::new(CpuSensor::new(host, frequency_secs)),
        SensorTemplate::Memory => Box::new(MemorySensor::new(host, frequency_secs)),
        SensorTemplate::Tcp => Box::new(TcpSensor::new(host, frequency_secs)),
        SensorTemplate::NetstatCounter => Box::new(NetstatCounterSensor::new(host, frequency_secs)),
        SensorTemplate::Snmp { device } => {
            Box::new(SnmpSensor::new(device.clone(), frequency_secs))
        }
        SensorTemplate::Process { process } => {
            Box::new(ProcessSensor::new(host, process.clone(), frequency_secs))
        }
    }
}

/// A port-activity source that reports no traffic anywhere (useful when a
/// deployment has no port monitoring at all).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPortActivity;

impl PortActivitySource for NoPortActivity {
    fn bytes_on_port(&self, _host: &str, _port: u16) -> u64 {
        0
    }
}

/// Allow an [`ApplicationSensor`] to be managed too: applications register
/// their sensor with the manager so its events flow through the same path.
impl SensorManager {
    /// Attach an application sensor under the given name with an
    /// always-running policy.
    pub fn attach_application_sensor(&mut self, sensor: ApplicationSensor) {
        let name = sensor.spec().name.clone();
        self.sensors.insert(
            name,
            ManagedSensor {
                sensor: Box::new(sensor),
                policy: RunPolicy::Always,
                frequency_secs: 0.0,
                running: false,
                explicitly_requested: false,
                last_sample: None,
                events_emitted: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SensorConfigEntry, StaticConfigProvider};
    use jamm_gateway::{EventGateway, GatewayConfig};
    use jamm_sensors::{HostView, IfView};
    use std::cell::Cell;

    struct FakeStats {
        retrans: Cell<u64>,
        proc_alive: Cell<bool>,
    }
    impl StatsSource for FakeStats {
        fn host_stats(&self, _h: &str) -> Option<HostView> {
            Some(HostView {
                cpu_user_pct: 10.0,
                cpu_sys_pct: 20.0,
                mem_free_kb: 100_000,
                tcp_retransmits: self.retrans.get(),
                ..Default::default()
            })
        }
        fn device_interfaces(&self, _d: &str) -> Vec<IfView> {
            Vec::new()
        }
        fn process_alive(&self, _h: &str, _p: &str) -> Option<bool> {
            Some(self.proc_alive.get())
        }
    }

    struct FakePorts {
        active_port: Cell<Option<u16>>,
    }
    impl PortActivitySource for FakePorts {
        fn bytes_on_port(&self, _host: &str, port: u16) -> u64 {
            if self.active_port.get() == Some(port) {
                10_000
            } else {
                0
            }
        }
    }

    fn setup() -> (
        SensorManager,
        FakeStats,
        FakePorts,
        EventGateway,
        Arc<DirectoryServer>,
    ) {
        let cfg =
            ManagerConfig::standard_host("dpss1.lbl.gov", "gw1.lbl.gov:8765", &["dpss_master"])
                .with_sensor(SensorConfigEntry {
                    template: SensorTemplate::NetstatCounter,
                    frequency_secs: 1.0,
                    policy: RunPolicy::PortTriggered {
                        port: 7_000,
                        idle_secs: 5.0,
                    },
                });
        let mgr = SensorManager::new(&cfg, Dn::parse("o=lbl,o=grid").unwrap());
        let stats = FakeStats {
            retrans: Cell::new(0),
            proc_alive: Cell::new(true),
        };
        let ports = FakePorts {
            active_port: Cell::new(None),
        };
        let gw = EventGateway::new(GatewayConfig::open("gw1"));
        let dir = Arc::new(DirectoryServer::new(
            "ldap://dir.lbl.gov",
            Dn::parse("o=grid").unwrap(),
        ));
        (mgr, stats, ports, gw, dir)
    }

    fn t(secs: f64) -> Timestamp {
        Timestamp::from_secs_f64(1_000.0 + secs)
    }

    #[test]
    fn always_sensors_run_and_publish_to_gateway_and_directory() {
        let (mut mgr, stats, ports, gw, dir) = setup();
        let published = mgr.tick(t(0.0), &stats, &ports, &gw, Some(&dir));
        assert!(published > 0);
        // CPU (3 events) + memory (1) + process STARTED (1); TCP emits nothing
        // without changes; netstat counter is port-triggered and off.
        assert!(mgr.running_sensors().contains(&"cpu".to_string()));
        assert!(!mgr.running_sensors().contains(&"netstat".to_string()));
        // Directory entries were published for the sensors that started.
        assert!(dir.entry_count() >= 4, "count = {}", dir.entry_count());
        let cpu_dn = Dn::parse("sensor=cpu,host=dpss1.lbl.gov,o=lbl,o=grid").unwrap();
        let e = dir.lookup(&cpu_dn).unwrap();
        assert_eq!(e.get("status"), Some("running"));
        assert_eq!(e.get("gateway"), Some("gw1.lbl.gov:8765"));
    }

    #[test]
    fn sampling_respects_frequency() {
        let (mut mgr, stats, ports, gw, _) = setup();
        mgr.tick(t(0.0), &stats, &ports, &gw, None);
        let first = mgr.events_published();
        // 0.5 s later the 1 Hz sensors are not yet due.
        mgr.tick(t(0.5), &stats, &ports, &gw, None);
        assert_eq!(mgr.events_published(), first);
        // 1.1 s later they are.
        mgr.tick(t(1.1), &stats, &ports, &gw, None);
        assert!(mgr.events_published() > first);
    }

    #[test]
    fn port_triggered_sensor_follows_traffic() {
        let (mut mgr, stats, ports, gw, dir) = setup();
        mgr.tick(t(0.0), &stats, &ports, &gw, Some(&dir));
        assert!(!mgr.running_sensors().contains(&"netstat".to_string()));
        // Traffic appears on the DPSS port: the netstat sensor starts.
        ports.active_port.set(Some(7_000));
        mgr.tick(t(1.0), &stats, &ports, &gw, Some(&dir));
        assert!(mgr.running_sensors().contains(&"netstat".to_string()));
        let dn = Dn::parse("sensor=netstat,host=dpss1.lbl.gov,o=lbl,o=grid").unwrap();
        assert_eq!(dir.lookup(&dn).unwrap().get("status"), Some("running"));
        // Traffic stops; after the 5 s idle timeout the sensor stops too.
        ports.active_port.set(None);
        mgr.tick(t(3.0), &stats, &ports, &gw, Some(&dir));
        assert!(
            mgr.running_sensors().contains(&"netstat".to_string()),
            "still within idle"
        );
        mgr.tick(t(7.0), &stats, &ports, &gw, Some(&dir));
        assert!(!mgr.running_sensors().contains(&"netstat".to_string()));
        assert_eq!(dir.lookup(&dn).unwrap().get("status"), Some("stopped"));
    }

    #[test]
    fn on_request_sensors_need_an_explicit_start() {
        let cfg = ManagerConfig::empty("h", "gw").with_sensor(SensorConfigEntry {
            template: SensorTemplate::Cpu,
            frequency_secs: 1.0,
            policy: RunPolicy::OnRequest,
        });
        let mut mgr = SensorManager::new(&cfg, Dn::parse("o=grid").unwrap());
        let stats = FakeStats {
            retrans: Cell::new(0),
            proc_alive: Cell::new(true),
        };
        let gw = EventGateway::new(GatewayConfig::open("gw"));
        mgr.tick(t(0.0), &stats, &NoPortActivity, &gw, None);
        assert!(mgr.running_sensors().is_empty());
        assert!(mgr.request_start("cpu"));
        assert!(!mgr.request_start("nonexistent"));
        mgr.tick(t(1.0), &stats, &NoPortActivity, &gw, None);
        assert_eq!(mgr.running_sensors(), vec!["cpu".to_string()]);
        mgr.request_stop("cpu");
        mgr.tick(t(2.0), &stats, &NoPortActivity, &gw, None);
        assert!(mgr.running_sensors().is_empty());
    }

    #[test]
    fn config_reload_adds_and_removes_sensors() {
        let (mut mgr, stats, ports, gw, _) = setup();
        let provider = StaticConfigProvider::new(ManagerConfig::standard_host(
            "dpss1.lbl.gov",
            "gw1.lbl.gov:8765",
            &["dpss_master"],
        ));
        // Same version as currently applied?  The provider starts at version
        // 1, the manager applied version 1 already, so nothing changes.
        assert_eq!(mgr.maybe_reload(&provider), 0);
        // Publish a new config that drops everything but CPU.
        let new_cfg = ManagerConfig::empty("dpss1.lbl.gov", "gw1.lbl.gov:8765").with_sensor(
            SensorConfigEntry {
                template: SensorTemplate::Cpu,
                frequency_secs: 2.0,
                policy: RunPolicy::Always,
            },
        );
        provider.publish(new_cfg);
        let changed = mgr.maybe_reload(&provider);
        assert!(changed > 0);
        mgr.tick(t(0.0), &stats, &ports, &gw, None);
        assert_eq!(mgr.running_sensors(), vec!["cpu".to_string()]);
        assert_eq!(mgr.status().len(), 1);
    }

    #[test]
    fn status_reflects_activity() {
        let (mut mgr, stats, ports, gw, _) = setup();
        mgr.tick(t(0.0), &stats, &ports, &gw, None);
        let status = mgr.status();
        let cpu = status.iter().find(|s| s.name == "cpu").unwrap();
        assert!(cpu.running);
        assert!(cpu.events_emitted >= 3);
        assert_eq!(cpu.last_sample, Some(t(0.0)));
        let netstat = status.iter().find(|s| s.name == "netstat").unwrap();
        assert!(!netstat.running);
        assert_eq!(netstat.events_emitted, 0);
    }

    /// Records every event a tick pushes, in push order.
    #[derive(Default)]
    struct Recorder(jamm_core::sync::Mutex<Vec<SharedEvent>>);

    impl EventSink<SharedEvent> for Recorder {
        fn accept(&self, event: &SharedEvent) -> Result<usize, jamm_core::flow::SinkError> {
            self.0.lock().push(SharedEvent::clone(event));
            Ok(1)
        }
    }

    #[test]
    fn a_tick_publishes_in_sensor_name_order_on_every_instance() {
        let entry = |template| SensorConfigEntry {
            template,
            frequency_secs: 1.0,
            policy: RunPolicy::Always,
        };
        // Declared out of name order on purpose.
        let mut cfg = ManagerConfig::empty("h", "gw");
        for template in [
            SensorTemplate::Tcp,
            SensorTemplate::Process {
                process: "zeta".into(),
            },
            SensorTemplate::Process {
                process: "alpha".into(),
            },
            SensorTemplate::NetstatCounter,
            SensorTemplate::Memory,
            SensorTemplate::Cpu,
        ] {
            cfg = cfg.with_sensor(entry(template));
        }
        let stats = FakeStats {
            retrans: Cell::new(3),
            proc_alive: Cell::new(true),
        };
        let tick_once = || {
            let mut mgr = SensorManager::new(&cfg, Dn::parse("o=grid").unwrap());
            let sink = Recorder::default();
            mgr.tick(t(0.0), &stats, &NoPortActivity, &sink, None);
            sink.0.into_inner()
        };
        let first = tick_once();
        let sensors: Vec<String> = first
            .iter()
            .map(|e| e.field(jamm_ulm::keys::SENSOR).unwrap().to_string())
            .collect();
        let mut sorted = sensors.clone();
        sorted.sort();
        assert_eq!(sensors, sorted, "published out of sensor-name order");
        sorted.dedup();
        // The TCP sensor reports changes only, so its first sample is empty.
        assert_eq!(
            sorted,
            ["cpu", "memory", "netstat", "process-alpha", "process-zeta"]
        );
        let types = |events: &[SharedEvent]| -> Vec<String> {
            events.iter().map(|e| e.event_type.clone()).collect()
        };
        assert_eq!(types(&first), types(&tick_once()));
    }

    #[test]
    fn events_flow_through_to_gateway_subscribers() {
        let (mut mgr, stats, ports, gw, _) = setup();
        let sub = gw
            .subscribe()
            .stream()
            .as_consumer("collector")
            .open()
            .unwrap();
        stats.retrans.set(5);
        mgr.tick(t(0.0), &stats, &ports, &gw, None);
        stats.retrans.set(9);
        mgr.tick(t(1.1), &stats, &ports, &gw, None);
        let events: Vec<_> = sub.events.try_iter().collect();
        assert!(events.iter().any(|e| e.event_type == "CPU_TOTAL"));
        assert!(events
            .iter()
            .any(|e| e.event_type == "TCPD_RETRANSMITS" && e.value() == Some(4.0)));
    }
}
