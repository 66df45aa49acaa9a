//! # jamm-sensors — monitoring sensors
//!
//! "A sensor is any program that generates a time-stamped performance
//! monitoring event" (§2.2).  The paper's sensors wrap `vmstat`, `netstat`,
//! `iostat`, an instrumented `tcpdump` and SNMP queries; they fall into four
//! families, all implemented here:
//!
//! * **host sensors** ([`host::CpuSensor`], [`host::MemorySensor`]) — CPU
//!   load and free memory;
//! * **TCP sensors** ([`tcp::TcpSensor`]) — retransmissions and window size,
//!   reported as change events like the NetLogger-ised tcpdump;
//! * **network sensors** ([`network::SnmpSensor`]) — SNMP interface counters
//!   from routers and switches;
//! * **process sensors** ([`process::ProcessSensor`]) — events on process
//!   start / normal exit / abnormal death;
//! * **application sensors** ([`application::ApplicationSensor`]) — events
//!   produced inside applications and fed to JAMM without being under its
//!   control.
//!
//! Sensors read their host through the [`StatsSource`] abstraction so the
//! same sensor code runs against the simulated testbed
//! ([`sim::NetworkSource`] wraps a [`jamm_netsim::Network`]) or the live
//! Linux host ([`live::ProcSource`] parses `/proc`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod application;
pub mod host;
pub mod live;
pub mod network;
pub mod process;
pub mod sim;
pub mod tcp;

use jamm_ulm::{Event, Timestamp};
/// The family a sensor belongs to (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Host monitoring: CPU, memory, interrupts.
    Host,
    /// Network device monitoring via SNMP.
    Network,
    /// Process status monitoring.
    Process,
    /// Application-embedded sensors.
    Application,
}

impl SensorKind {
    /// Canonical lower-case name used in directory entries.
    pub fn as_str(self) -> &'static str {
        match self {
            SensorKind::Host => "host",
            SensorKind::Network => "network",
            SensorKind::Process => "process",
            SensorKind::Application => "application",
        }
    }
}

/// Static description of a sensor, published in the sensor directory.
#[derive(Debug, Clone)]
pub struct SensorSpec {
    /// Short sensor name, unique per host (e.g. `cpu`, `memory`, `tcp`).
    pub name: String,
    /// Sensor family.
    pub kind: SensorKind,
    /// Host (or network device) being monitored.
    pub target: String,
    /// Event types this sensor produces (`NL.EVNT` values).
    pub event_types: Vec<String>,
    /// Default sampling period in seconds.
    pub frequency_secs: f64,
}

/// `frequency_secs` is compared bit-for-bit so the comparison is a true
/// equivalence relation (NaN == NaN), which `f64`'s `PartialEq` is not.
impl PartialEq for SensorSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.target == other.target
            && self.event_types == other.event_types
            && self.frequency_secs.to_bits() == other.frequency_secs.to_bits()
    }
}

impl Eq for SensorSpec {}

impl SensorSpec {
    /// Create a spec.
    pub fn new(
        name: impl Into<String>,
        kind: SensorKind,
        target: impl Into<String>,
        event_types: Vec<String>,
        frequency_secs: f64,
    ) -> Self {
        SensorSpec {
            name: name.into(),
            kind,
            target: target.into(),
            event_types,
            frequency_secs,
        }
    }
}

/// A snapshot of host statistics a sensor can sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostView {
    /// User-mode CPU utilisation, percent.
    pub cpu_user_pct: f64,
    /// System-mode CPU utilisation, percent.
    pub cpu_sys_pct: f64,
    /// Free memory, kilobytes.
    pub mem_free_kb: u64,
    /// Cumulative TCP retransmissions.
    pub tcp_retransmits: u64,
    /// Cumulative received bytes.
    pub rx_bytes: u64,
    /// Cumulative transmitted bytes.
    pub tx_bytes: u64,
    /// Number of TCP sockets that moved data recently.
    pub active_sockets: u32,
}

/// A snapshot of one network interface's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IfView {
    /// Interface / link name.
    pub name: String,
    /// Octets in.
    pub in_octets: u64,
    /// Packets in.
    pub in_packets: u64,
    /// Queue drops.
    pub drops: u64,
    /// CRC / line errors.
    pub errors: u64,
}

/// Where sensors read their data from: the simulator or the live host.
pub trait StatsSource {
    /// Statistics for a host, if known.
    fn host_stats(&self, host: &str) -> Option<HostView>;
    /// Interface counters reported by a network device, if known.
    fn device_interfaces(&self, device: &str) -> Vec<IfView>;
    /// Liveness of a named process on a host (`None` if unknown).
    fn process_alive(&self, host: &str, process: &str) -> Option<bool>;
}

/// Everything a sensor needs to take one sample.
pub struct SampleContext<'a> {
    /// Timestamp to stamp emitted events with.
    pub timestamp: Timestamp,
    /// The data source.
    pub source: &'a dyn StatsSource,
}

/// A monitoring sensor: produces zero or more events per sample.
pub trait Sensor: Send {
    /// The sensor's published description.
    fn spec(&self) -> &SensorSpec;
    /// Take one sample.
    fn sample(&mut self, ctx: &SampleContext<'_>) -> Vec<Event>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_kind_names() {
        assert_eq!(SensorKind::Host.as_str(), "host");
        assert_eq!(SensorKind::Network.as_str(), "network");
        assert_eq!(SensorKind::Process.as_str(), "process");
        assert_eq!(SensorKind::Application.as_str(), "application");
    }

    #[test]
    fn spec_equality_compares_frequency_by_bits() {
        let a = SensorSpec::new("cpu", SensorKind::Host, "h", vec![], 1.0);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.frequency_secs = 2.0;
        assert_ne!(a, b);
        // NaN frequencies still compare equal to themselves (true equivalence).
        let mut n1 = a.clone();
        let mut n2 = a.clone();
        n1.frequency_secs = f64::NAN;
        n2.frequency_secs = f64::NAN;
        assert_eq!(n1, n2);
        assert_ne!(n1, a);
    }

    #[test]
    fn spec_construction() {
        let s = SensorSpec::new(
            "cpu",
            SensorKind::Host,
            "dpss1.lbl.gov",
            vec!["CPU_TOTAL".into()],
            1.0,
        );
        assert_eq!(s.name, "cpu");
        assert_eq!(s.frequency_secs, 1.0);
        assert_eq!(s.event_types.len(), 1);
    }
}
