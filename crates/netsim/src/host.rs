//! Host model: CPU, memory and NIC / protocol-stack processing.
//!
//! The part of the MATISSE analysis that JAMM made visible (paper §6) was a
//! *receiver-side* bottleneck: with four parallel TCP sockets the receiving
//! host showed very high system CPU time, packet losses and retransmissions,
//! and aggregate WAN throughput collapsed from ~140 Mbit/s to ~30 Mbit/s,
//! while a single socket — and any number of sockets on the LAN — was fine.
//!
//! The host model captures exactly that mechanism: every delivered packet
//! costs system-CPU microseconds, the per-packet cost grows with the number
//! of concurrently active sockets (interrupt and driver overhead), and once
//! the CPU budget of a tick is exhausted additional packets are dropped,
//! which the TCP model turns into retransmissions and congestion-window
//! collapse.

/// Identifies a host within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Static description of a host used to construct it.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Fully-qualified host name (e.g. `dpss1.lbl.gov`).
    pub name: String,
    /// Number of CPUs.
    pub cpus: u32,
    /// Total physical memory in kilobytes.
    pub memory_kb: u64,
    /// System-CPU cost of processing one received packet, in microseconds,
    /// when a single socket is active.
    pub pkt_cost_us: f64,
    /// Additional per-packet cost factor per extra concurrently-active
    /// receiving socket.  Effective cost is
    /// `pkt_cost_us * (1 + socket_overhead * (active_sockets - 1))`.
    pub socket_overhead: f64,
    /// Kernel socket-buffer memory available to receiving TCP flows, bytes.
    /// Limits the sum of receive windows (the paper's hosts used the default
    /// small TCP buffers unless tuned by the network-aware client).
    pub rcv_buffer_bytes: u64,
    /// Per-packet random drop probability added for every extra concurrently
    /// active receiving socket.  This models the gigabit-ethernet card /
    /// device-driver pathology the paper suspected: one socket is clean, but
    /// servicing several sockets at once makes the driver drop packets.
    /// Effective probability is `multi_socket_loss * (active_sockets - 1)`.
    pub multi_socket_loss: f64,
}

impl HostSpec {
    /// A reasonable default host: 2 CPUs, 512 MB, year-2000 class NIC stack.
    pub fn new(name: impl Into<String>) -> Self {
        HostSpec {
            name: name.into(),
            cpus: 2,
            memory_kb: 512 * 1024,
            pkt_cost_us: 30.0,
            socket_overhead: 0.0,
            rcv_buffer_bytes: 1 << 20,
            multi_socket_loss: 0.0,
        }
    }

    /// Builder-style: set CPU count.
    pub fn cpus(mut self, cpus: u32) -> Self {
        self.cpus = cpus;
        self
    }

    /// Builder-style: set memory in kilobytes.
    pub fn memory_kb(mut self, kb: u64) -> Self {
        self.memory_kb = kb;
        self
    }

    /// Builder-style: set per-packet processing cost.
    pub fn pkt_cost_us(mut self, us: f64) -> Self {
        self.pkt_cost_us = us;
        self
    }

    /// Builder-style: set per-socket overhead factor.
    pub fn socket_overhead(mut self, f: f64) -> Self {
        self.socket_overhead = f;
        self
    }

    /// Builder-style: set receive-buffer size in bytes.
    pub fn rcv_buffer_bytes(mut self, b: u64) -> Self {
        self.rcv_buffer_bytes = b;
        self
    }

    /// Builder-style: set the multi-socket driver loss probability.
    pub fn multi_socket_loss(mut self, p: f64) -> Self {
        self.multi_socket_loss = p.clamp(0.0, 1.0);
        self
    }
}

/// Instantaneous, sensor-visible host statistics.
///
/// This is what the JAMM host sensors (`vmstat`, `netstat` equivalents)
/// sample each collection interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStats {
    /// User-mode CPU utilisation over the last tick, percent (0-100).
    pub cpu_user_pct: f64,
    /// System-mode CPU utilisation over the last tick, percent (0-100).
    pub cpu_sys_pct: f64,
    /// Free memory in kilobytes.
    pub mem_free_kb: u64,
    /// Cumulative received packets.
    pub rx_packets: u64,
    /// Cumulative received bytes.
    pub rx_bytes: u64,
    /// Cumulative transmitted bytes.
    pub tx_bytes: u64,
    /// Cumulative packets dropped because the protocol stack ran out of CPU
    /// or buffer budget.
    pub rx_drops: u64,
    /// Cumulative TCP retransmissions attributed to this host's flows
    /// (as a receiver).
    pub tcp_retransmits: u64,
    /// Number of TCP sockets that moved data in the last tick.
    pub active_sockets: u32,
}

/// A simulated host.
#[derive(Debug, Clone)]
pub struct Host {
    /// Identifier within the owning network.
    pub id: HostId,
    /// Static configuration.
    pub spec: HostSpec,
    stats: HostStats,
    /// System CPU microseconds consumed so far in the current tick.
    sys_us_this_tick: f64,
    /// User CPU microseconds consumed so far in the current tick.
    user_us_this_tick: f64,
    /// Memory currently in use by applications, kilobytes.
    mem_used_kb: u64,
    /// Sockets that have been marked active for the current tick.
    sockets_this_tick: u32,
    /// Processes registered on the host (name, alive).
    processes: Vec<(String, bool)>,
}

impl Host {
    /// Construct a host from its spec.
    pub fn new(id: HostId, spec: HostSpec) -> Self {
        let mem_used = spec.memory_kb / 8; // baseline OS footprint
        let stats = HostStats {
            mem_free_kb: spec.memory_kb - mem_used,
            ..HostStats::default()
        };
        Host {
            id,
            spec,
            stats,
            sys_us_this_tick: 0.0,
            user_us_this_tick: 0.0,
            mem_used_kb: mem_used,
            sockets_this_tick: 0,
            processes: Vec::new(),
        }
    }

    /// The host name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Sensor-visible statistics as of the end of the last completed tick.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Total CPU budget per tick in microseconds (all CPUs).
    pub fn cpu_budget_us(&self, tick_us: u64) -> f64 {
        self.spec.cpus as f64 * tick_us as f64
    }

    /// Effective per-packet receive cost given the sockets active this tick.
    pub fn effective_pkt_cost_us(&self) -> f64 {
        let extra = self.sockets_this_tick.saturating_sub(1) as f64;
        self.spec.pkt_cost_us * (1.0 + self.spec.socket_overhead * extra)
    }

    /// Remaining system-CPU budget this tick, in microseconds.
    pub fn remaining_sys_budget_us(&self, tick_us: u64) -> f64 {
        (self.cpu_budget_us(tick_us) - self.sys_us_this_tick - self.user_us_this_tick).max(0.0)
    }

    /// Declare that a socket terminating at this host will move data this
    /// tick.  Must be called before [`Host::receive_packets`] so the
    /// per-socket overhead factor reflects true concurrency.
    pub fn mark_socket_active(&mut self) {
        self.sockets_this_tick += 1;
    }

    /// The driver's per-packet drop probability given the sockets currently
    /// marked active (zero for a single socket).
    pub fn driver_loss_probability(&self) -> f64 {
        let extra = self.sockets_this_tick.saturating_sub(1) as f64;
        (self.spec.multi_socket_loss * extra).clamp(0.0, 1.0)
    }

    /// Account for application (user-mode) CPU work, e.g. decoding a frame.
    pub fn consume_user_cpu_us(&mut self, us: f64) {
        self.user_us_this_tick += us.max(0.0);
    }

    /// Allocate application memory; returns false (and allocates nothing) if
    /// the host does not have that much free.
    pub fn allocate_memory_kb(&mut self, kb: u64) -> bool {
        if self.mem_used_kb + kb > self.spec.memory_kb {
            return false;
        }
        self.mem_used_kb += kb;
        true
    }

    /// Release previously allocated application memory.
    pub fn release_memory_kb(&mut self, kb: u64) {
        self.mem_used_kb = self.mem_used_kb.saturating_sub(kb);
    }

    /// Register a process for the process sensor to watch.
    pub fn register_process(&mut self, name: impl Into<String>) {
        self.processes.push((name.into(), true));
    }

    /// Mark a registered process as dead (crash injection).
    pub fn kill_process(&mut self, name: &str) -> bool {
        for (p, alive) in &mut self.processes {
            if p == name && *alive {
                *alive = false;
                return true;
            }
        }
        false
    }

    /// Restart a dead process.
    pub fn restart_process(&mut self, name: &str) -> bool {
        for (p, alive) in &mut self.processes {
            if p == name && !*alive {
                *alive = true;
                return true;
            }
        }
        false
    }

    /// Iterate over registered processes and their liveness.
    pub fn processes(&self) -> impl Iterator<Item = (&str, bool)> {
        self.processes.iter().map(|(n, a)| (n.as_str(), *a))
    }

    /// Deliver `packets` packets carrying `bytes` bytes to this host.
    ///
    /// Returns the number of packets actually processed; the rest are dropped
    /// because the receive path ran out of CPU budget for this tick.  System
    /// CPU time is charged for processed packets (and a small amount for
    /// dropped ones — the interrupt still fires).
    pub fn receive_packets(&mut self, packets: u64, bytes: u64, tick_us: u64) -> u64 {
        if packets == 0 {
            return 0;
        }
        let cost = self.effective_pkt_cost_us();
        let budget = self.remaining_sys_budget_us(tick_us);
        let can_process = if cost <= 0.0 {
            packets
        } else {
            ((budget / cost).floor() as u64).min(packets)
        };
        let dropped = packets - can_process;
        self.sys_us_this_tick += can_process as f64 * cost;
        // Dropped packets still cost an interrupt (~quarter of the full cost).
        self.sys_us_this_tick += dropped as f64 * cost * 0.25;
        let bytes_ok = (bytes * can_process).checked_div(packets).unwrap_or(0);
        self.stats.rx_packets += can_process;
        self.stats.rx_bytes += bytes_ok;
        self.stats.rx_drops += dropped;
        can_process
    }

    /// Account for transmitted bytes (sender-side cost is smaller and we fold
    /// it into user time of the sending application).
    pub fn transmit_bytes(&mut self, bytes: u64, packets: u64) {
        self.stats.tx_bytes += bytes;
        // Sending costs roughly a third of the receive cost per packet.
        self.sys_us_this_tick += packets as f64 * self.spec.pkt_cost_us * 0.33;
    }

    /// Record a retransmission on a flow received by this host.
    pub fn record_retransmit(&mut self, n: u64) {
        self.stats.tcp_retransmits += n;
    }

    /// Close out the current tick: compute utilisation percentages, reset the
    /// per-tick accumulators, and snapshot sensor-visible state.
    pub fn end_tick(&mut self, tick_us: u64) {
        let budget = self.cpu_budget_us(tick_us);
        self.stats.cpu_sys_pct = (self.sys_us_this_tick / budget * 100.0).min(100.0);
        self.stats.cpu_user_pct =
            (self.user_us_this_tick / budget * 100.0).min(100.0 - self.stats.cpu_sys_pct);
        self.stats.mem_free_kb = self.spec.memory_kb.saturating_sub(self.mem_used_kb);
        self.stats.active_sockets = self.sockets_this_tick;
        self.sys_us_this_tick = 0.0;
        self.user_us_this_tick = 0.0;
        self.sockets_this_tick = 0;
    }

    /// True if the receive path was CPU-saturated in the last tick
    /// (system CPU above 90% of one CPU's budget).
    pub fn receiver_saturated(&self) -> bool {
        self.stats.cpu_sys_pct >= 90.0 / self.spec.cpus as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(
            HostId(0),
            HostSpec::new("mems.cairn.net")
                .cpus(1)
                .pkt_cost_us(50.0)
                .socket_overhead(0.5),
        )
    }

    #[test]
    fn single_socket_processes_within_budget() {
        let mut h = host();
        h.mark_socket_active();
        // Budget = 1 CPU * 1000us; cost 50us/pkt -> 20 pkts max.
        let ok = h.receive_packets(10, 15_000, 1_000);
        assert_eq!(ok, 10);
        h.end_tick(1_000);
        assert_eq!(h.stats().rx_drops, 0);
        assert_eq!(h.stats().rx_packets, 10);
        assert!(h.stats().cpu_sys_pct > 0.0);
    }

    #[test]
    fn overload_drops_packets_and_saturates_cpu() {
        let mut h = host();
        h.mark_socket_active();
        let ok = h.receive_packets(100, 150_000, 1_000);
        assert_eq!(ok, 20, "only 20 packets fit in the CPU budget");
        h.end_tick(1_000);
        assert_eq!(h.stats().rx_drops, 80);
        assert!(h.stats().cpu_sys_pct >= 99.0);
        assert!(h.receiver_saturated());
    }

    #[test]
    fn more_sockets_cost_more_per_packet() {
        let mut h = host();
        h.mark_socket_active();
        let one = h.effective_pkt_cost_us();
        h.mark_socket_active();
        h.mark_socket_active();
        h.mark_socket_active();
        let four = h.effective_pkt_cost_us();
        assert!((one - 50.0).abs() < 1e-9);
        assert!((four - 50.0 * 2.5).abs() < 1e-9, "4 sockets => 2.5x cost");
    }

    #[test]
    fn user_cpu_competes_with_receive_path() {
        let mut h = host();
        h.mark_socket_active();
        h.consume_user_cpu_us(900.0);
        let ok = h.receive_packets(10, 15_000, 1_000);
        assert_eq!(ok, 2, "only 100us of budget left -> 2 packets");
        h.end_tick(1_000);
        assert!(h.stats().cpu_user_pct >= 75.0);
    }

    #[test]
    fn tick_reset_clears_utilisation() {
        let mut h = host();
        h.mark_socket_active();
        h.receive_packets(20, 30_000, 1_000);
        h.end_tick(1_000);
        assert!(h.stats().cpu_sys_pct > 0.0);
        h.end_tick(1_000);
        assert_eq!(h.stats().cpu_sys_pct, 0.0);
        assert_eq!(h.stats().active_sockets, 0);
    }

    #[test]
    fn memory_accounting() {
        let mut h = host();
        let free0 = h.spec.memory_kb - h.spec.memory_kb / 8;
        assert!(h.allocate_memory_kb(1000));
        assert!(!h.allocate_memory_kb(h.spec.memory_kb));
        h.end_tick(1_000);
        assert_eq!(h.stats().mem_free_kb, free0 - 1000);
        h.release_memory_kb(1000);
        h.end_tick(1_000);
        assert_eq!(h.stats().mem_free_kb, free0);
    }

    #[test]
    fn process_lifecycle() {
        let mut h = host();
        h.register_process("dpss_master");
        h.register_process("dpss_block_server");
        assert!(h.kill_process("dpss_master"));
        assert!(!h.kill_process("dpss_master"), "already dead");
        assert!(!h.kill_process("nonexistent"));
        let dead: Vec<_> = h.processes().filter(|(_, alive)| !alive).collect();
        assert_eq!(dead.len(), 1);
        assert!(h.restart_process("dpss_master"));
        assert!(h.processes().all(|(_, alive)| alive));
    }

    #[test]
    fn retransmit_counter_accumulates() {
        let mut h = host();
        h.record_retransmit(3);
        h.record_retransmit(2);
        assert_eq!(h.stats().tcp_retransmits, 5);
    }
}
