//! Adapter exposing the simulated testbed to sensors.

use jamm_netsim::Network;

use crate::{HostView, IfView, StatsSource};

/// Wraps a [`jamm_netsim::Network`] as a [`StatsSource`].
///
/// The wrapper borrows the network immutably, so the usual pattern is:
/// step the simulation, then construct a `NetworkSource` and let every sensor
/// take its sample, then drop it and step again.
pub struct NetworkSource<'a> {
    net: &'a Network,
}

impl<'a> NetworkSource<'a> {
    /// Wrap a network.
    pub fn new(net: &'a Network) -> Self {
        NetworkSource { net }
    }
}

impl StatsSource for NetworkSource<'_> {
    fn host_stats(&self, host: &str) -> Option<HostView> {
        let id = self.net.host_by_name(host)?;
        let h = self.net.host(id);
        let s = h.stats();
        Some(HostView {
            cpu_user_pct: s.cpu_user_pct,
            cpu_sys_pct: s.cpu_sys_pct,
            mem_free_kb: s.mem_free_kb,
            tcp_retransmits: s.tcp_retransmits,
            rx_bytes: s.rx_bytes,
            tx_bytes: s.tx_bytes,
            active_sockets: s.active_sockets,
        })
    }

    fn device_interfaces(&self, device: &str) -> Vec<IfView> {
        let Some(router) = self.net.routers().iter().find(|r| r.name == device) else {
            return Vec::new();
        };
        router
            .interfaces
            .iter()
            .map(|lid| {
                let link = self.net.link(*lid);
                let c = link.counters();
                IfView {
                    name: link.spec.name.clone(),
                    in_octets: c.in_octets,
                    in_packets: c.in_packets,
                    drops: c.drops,
                    errors: c.errors,
                }
            })
            .collect()
    }

    fn process_alive(&self, host: &str, process: &str) -> Option<bool> {
        let id = self.net.host_by_name(host)?;
        self.net
            .host(id)
            .processes()
            .find(|(name, _)| *name == process)
            .map(|(_, alive)| alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CpuSensor;
    use crate::process::ProcessSensor;
    use crate::tcp::TcpSensor;
    use crate::{SampleContext, Sensor};
    use jamm_netsim::scenario::{matisse_iperf, matisse_topology};
    use jamm_netsim::{HostSpec, LinkSpec, SimClock};

    #[test]
    fn host_stats_visible_through_the_adapter() {
        let mut net = Network::new(SimClock::matisse(), 1);
        let a = net.add_host(HostSpec::new("a.lbl.gov"));
        let b = net.add_host(HostSpec::new("b.lbl.gov"));
        let l = net.add_link(LinkSpec::gige("lan"));
        let f = net.open_flow("x", a, b, 2_000, vec![l], 1 << 20);
        net.flow_mut(f).set_unlimited();
        net.run_ticks(500);
        let src = NetworkSource::new(&net);
        let stats = src.host_stats("b.lbl.gov").unwrap();
        assert!(stats.rx_bytes > 0);
        assert!(src.host_stats("unknown.host").is_none());
    }

    #[test]
    fn sensors_sample_the_matisse_topology() {
        let topo = matisse_topology(true, 4, 9).unwrap();
        let mut net = topo.net;
        // Drive some traffic so the sensors have something to report.
        let f = net.open_flow(
            "bulk",
            topo.storage_hosts[0],
            topo.client,
            7_000,
            topo.storage_paths[0].clone(),
            1 << 20,
        );
        net.flow_mut(f).set_unlimited();

        let mut cpu = CpuSensor::new("mems.cairn.net", 1.0);
        let mut tcp = TcpSensor::new("mems.cairn.net", 1.0);
        let mut proc = ProcessSensor::new("dpss1.lbl.gov", "dpss_master", 5.0);
        let mut events = Vec::new();
        for _ in 0..3_000 {
            net.step();
            let src = NetworkSource::new(&net);
            let ctx = SampleContext {
                timestamp: net.clock().timestamp(),
                source: &src,
            };
            events.extend(cpu.sample(&ctx));
            events.extend(tcp.sample(&ctx));
            events.extend(proc.sample(&ctx));
        }
        assert!(events
            .iter()
            .any(|e| e.event_type == "VMSTAT_SYS_TIME" && e.value().unwrap_or(0.0) > 0.0));
        assert!(events.iter().any(|e| e.event_type == "PROC_STARTED"));
        // Sanity: iperf on the same topology still behaves (module linkage).
        let r = matisse_iperf(false, 1, 1.0, 2).unwrap();
        assert!(r.aggregate_mbps > 0.0);
    }

    #[test]
    fn router_interfaces_visible() {
        let topo = matisse_topology(true, 2, 3).unwrap();
        let src = NetworkSource::new(&topo.net);
        let ifaces = src.device_interfaces("lbl-border-router");
        assert_eq!(ifaces.len(), 2);
        assert!(ifaces.iter().any(|i| i.name.contains("oc12")));
        assert!(src.device_interfaces("no-such-router").is_empty());
    }

    #[test]
    fn process_liveness_via_adapter() {
        let topo = matisse_topology(true, 1, 3).unwrap();
        let mut net = topo.net;
        let src = NetworkSource::new(&net);
        assert_eq!(
            src.process_alive("dpss1.lbl.gov", "dpss_master"),
            Some(true)
        );
        assert_eq!(src.process_alive("dpss1.lbl.gov", "no_such_proc"), None);
        let _ = src;
        let id = net.host_by_name("dpss1.lbl.gov").unwrap();
        net.host_mut(id).kill_process("dpss_master");
        let src = NetworkSource::new(&net);
        assert_eq!(
            src.process_alive("dpss1.lbl.gov", "dpss_master"),
            Some(false)
        );
    }
}
