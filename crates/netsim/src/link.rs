//! Links and routers.
//!
//! A [`Link`] is a unidirectional pipe with a bandwidth, propagation delay
//! and a drop-tail queue.  A [`Router`] is a named device that owns a set of
//! link endpoints and exposes SNMP-style interface counters — exactly what
//! the JAMM *network sensors* poll (§2.2: "These sensors perform SNMP queries
//! to a network device, typically a router or switch").

/// Identifies a link within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Static description of a link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Human-readable name (e.g. `lbl-oc12`, `supernet-oc48`).
    pub name: String,
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay in microseconds.
    pub delay_us: u64,
    /// Queue capacity in bytes (drop-tail).
    pub queue_bytes: u64,
    /// Random per-packet corruption/loss probability (line errors; routers
    /// report these as CRC errors).  The MATISSE routers reported none.
    pub error_rate: f64,
}

impl LinkSpec {
    /// A link with the given name, bandwidth (bits/s) and one-way delay.
    pub fn new(name: impl Into<String>, bandwidth_bps: u64, delay_us: u64) -> Self {
        LinkSpec {
            name: name.into(),
            bandwidth_bps,
            delay_us,
            // Default queue: 64 KB or one bandwidth-delay product, whichever
            // is larger (mimics late-90s router line cards).
            queue_bytes: (bandwidth_bps / 8 * delay_us / 1_000_000).max(64 * 1024),
            error_rate: 0.0,
        }
    }

    /// Builder-style: set the queue size in bytes.
    pub fn queue_bytes(mut self, bytes: u64) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Builder-style: set the random line-error rate.
    pub fn error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Convenience: an OC-48 link (2.4 Gbit/s) as used by Supernet.
    pub fn oc48(name: impl Into<String>, delay_us: u64) -> Self {
        LinkSpec::new(name, 2_400_000_000, delay_us)
    }

    /// Convenience: an OC-12 link (622 Mbit/s), the LBNL access link.
    pub fn oc12(name: impl Into<String>, delay_us: u64) -> Self {
        LinkSpec::new(name, 622_000_000, delay_us)
    }

    /// Convenience: gigabit ethernet (1000BT) with LAN latency.
    pub fn gige(name: impl Into<String>) -> Self {
        LinkSpec::new(name, 1_000_000_000, 150)
    }

    /// Convenience: fast ethernet (100BT) with LAN latency.
    pub fn fast_ethernet(name: impl Into<String>) -> Self {
        LinkSpec::new(name, 100_000_000, 150)
    }
}

/// SNMP-style interface counters, as exposed to the JAMM network sensors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfCounters {
    /// Octets carried by the link.
    pub in_octets: u64,
    /// Packets carried by the link.
    pub in_packets: u64,
    /// Packets dropped by the queue (congestion).
    pub drops: u64,
    /// Packets lost to line errors (CRC).
    pub errors: u64,
}

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Identifier within the owning network.
    pub id: LinkId,
    /// Static configuration.
    pub spec: LinkSpec,
    counters: IfCounters,
    /// Bytes already committed to this link in the current tick.
    used_this_tick: u64,
    /// Bytes sitting in the drop-tail queue, carried over between ticks.
    backlog: u64,
}

impl Link {
    /// Construct a link from its spec.
    pub fn new(id: LinkId, spec: LinkSpec) -> Self {
        Link {
            id,
            spec,
            counters: IfCounters::default(),
            used_this_tick: 0,
            backlog: 0,
        }
    }

    /// Capacity of the link in bytes for a tick of `tick_us` microseconds.
    pub fn capacity_bytes_per_tick(&self, tick_us: u64) -> u64 {
        self.spec.bandwidth_bps / 8 * tick_us / 1_000_000
    }

    /// Commit `bytes` / `packets` of traffic to the link for this tick.
    ///
    /// Returns the number of bytes actually carried; the remainder found the
    /// line busy and the drop-tail queue full, and is counted as dropped.
    /// Bytes accepted beyond the line rate occupy the queue and consume the
    /// line rate of subsequent ticks (see [`Link::end_tick`]), so sustained
    /// throughput never exceeds the configured bandwidth.
    pub fn carry(&mut self, bytes: u64, packets: u64, tick_us: u64) -> u64 {
        let cap = self.capacity_bytes_per_tick(tick_us);
        let free_queue = self.spec.queue_bytes.saturating_sub(self.backlog);
        // Within the tick the line rate and the free queue space form one
        // shared budget; whatever earlier flows used is gone.
        let avail = (cap + free_queue).saturating_sub(self.used_this_tick);
        let carried = bytes.min(avail);
        let dropped_bytes = bytes - carried;
        self.used_this_tick += carried;
        let carried_pkts = (packets * carried).checked_div(bytes).unwrap_or(0);
        self.counters.in_octets += carried;
        self.counters.in_packets += carried_pkts;
        self.counters.drops += packets.saturating_sub(carried_pkts) * (dropped_bytes > 0) as u64;
        carried
    }

    /// Record line errors detected on this link (counted by SNMP sensors).
    pub fn record_errors(&mut self, n: u64) {
        self.counters.errors += n;
    }

    /// Interface counters (monotonic).
    pub fn counters(&self) -> &IfCounters {
        &self.counters
    }

    /// Utilisation of the link over the last tick, 0.0-1.0 (can exceed 1.0
    /// transiently when the queue absorbs a burst).
    pub fn utilisation(&self, tick_us: u64) -> f64 {
        let cap = self.capacity_bytes_per_tick(tick_us);
        if cap == 0 {
            0.0
        } else {
            self.used_this_tick as f64 / cap as f64
        }
    }

    /// Close out the tick: traffic accepted beyond the line rate stays in the
    /// queue and is drained at line rate on subsequent ticks.
    pub fn end_tick(&mut self, tick_us: u64) {
        let cap = self.capacity_bytes_per_tick(tick_us).max(1);
        self.backlog = (self.backlog + self.used_this_tick).saturating_sub(cap);
        self.backlog = self.backlog.min(self.spec.queue_bytes);
        self.used_this_tick = 0;
    }
}

/// A router or switch: a named device grouping link interfaces, polled by
/// the JAMM network (SNMP) sensors.
#[derive(Debug, Clone)]
pub struct Router {
    /// Device name (e.g. `lbl-border-router`).
    pub name: String,
    /// Links whose counters this device reports.
    pub interfaces: Vec<LinkId>,
}

impl Router {
    /// Create a router reporting on the given interfaces.
    pub fn new(name: impl Into<String>, interfaces: Vec<LinkId>) -> Self {
        Router {
            name: name.into(),
            interfaces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_bandwidth_and_tick() {
        let l = Link::new(LinkId(0), LinkSpec::new("l", 100_000_000, 1_000));
        assert_eq!(l.capacity_bytes_per_tick(1_000), 12_500); // 100Mb/s for 1ms
        assert_eq!(l.capacity_bytes_per_tick(10_000), 125_000);
        let oc48 = Link::new(LinkId(1), LinkSpec::oc48("oc48", 5_000));
        assert_eq!(oc48.capacity_bytes_per_tick(1_000), 300_000);
    }

    #[test]
    fn carry_respects_capacity_plus_queue() {
        let mut l = Link::new(
            LinkId(0),
            LinkSpec::new("l", 8_000_000, 1_000).queue_bytes(500),
        );
        // 8 Mb/s = 1000 bytes per 1ms tick, +500 queue.
        let carried = l.carry(2_000, 2, 1_000);
        assert_eq!(carried, 1_500);
        assert_eq!(l.counters().in_octets, 1_500);
        assert!(l.counters().drops > 0);
        // Second call in the same tick sees no remaining room.
        assert_eq!(l.carry(100, 1, 1_000), 0);
        l.end_tick(1_000);
        assert_eq!(l.carry(100, 1, 1_000), 100);
    }

    #[test]
    fn utilisation_reflects_carried_traffic() {
        let mut l = Link::new(LinkId(0), LinkSpec::gige("ge"));
        let cap = l.capacity_bytes_per_tick(1_000);
        l.carry(cap / 2, 50, 1_000);
        assert!((l.utilisation(1_000) - 0.5).abs() < 0.01);
        l.end_tick(1_000);
        assert_eq!(l.utilisation(1_000), 0.0);
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(LinkSpec::oc12("x", 1).bandwidth_bps, 622_000_000);
        assert_eq!(LinkSpec::gige("x").bandwidth_bps, 1_000_000_000);
        assert_eq!(LinkSpec::fast_ethernet("x").bandwidth_bps, 100_000_000);
        let r = Router::new("core", vec![LinkId(1), LinkId(2)]);
        assert_eq!(r.interfaces.len(), 2);
    }

    #[test]
    fn error_counter() {
        let mut l = Link::new(LinkId(0), LinkSpec::gige("ge").error_rate(0.1));
        l.record_errors(7);
        assert_eq!(l.counters().errors, 7);
        assert!(l.spec.error_rate > 0.0);
    }
}
