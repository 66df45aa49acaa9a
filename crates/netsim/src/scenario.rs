//! Canned topologies: the MATISSE testbed of Figure 5 and a generic
//! monitored compute cluster.
//!
//! The MATISSE environment (paper §6, Figure 5): MEMS video frames stored on
//! a four-server DPSS at LBNL in Berkeley, pulled on demand across the DARPA
//! Supernet (OC-48, with an OC-12 access link at LBNL) to a Linux compute
//! cluster at ISI East in Arlington, whose head node feeds a visualisation
//! workstation over gigabit ethernet.  Thirteen hosts were involved in total.
//!
//! Two variants are provided: the **WAN** configuration above, and a **LAN**
//! configuration in which the same storage servers and client share one
//! gigabit-ethernet switch (used for the LAN iperf comparison in §6).

use crate::clock::SimClock;
use crate::dpss::{DpssCluster, DpssServer, DEFAULT_BLOCK_BYTES};
use crate::host::{HostId, HostSpec};
use crate::iperf::{IperfReport, IperfTest};
use crate::link::{LinkId, LinkSpec, Router};
use crate::network::Network;
use crate::player::{FramePlayer, PlayerConfig};
use crate::trace::TraceLog;

/// Default per-flow receiver window: 1 MB.  The DPSS is the paper's
/// "network-aware" application, which tunes its TCP buffers to the
/// bandwidth-delay product advertised by the monitoring system.
pub const TUNED_RCV_WINDOW: u64 = 1 << 20;

/// Configuration of a MATISSE scenario.
#[derive(Debug, Clone)]
pub struct MatisseConfig {
    /// Number of DPSS block servers the client stripes across (paper: 4,
    /// then 1 as the work-around).
    pub dpss_servers: usize,
    /// Wide-area (Supernet) or local-area topology.
    pub wan: bool,
    /// RNG seed for the network.
    pub seed: u64,
    /// Per-flow receiver window in bytes.
    pub rcv_window: u64,
    /// Frame-player configuration.
    pub player: PlayerConfig,
}

impl Default for MatisseConfig {
    fn default() -> Self {
        MatisseConfig {
            dpss_servers: 4,
            wan: true,
            seed: 2000,
            rcv_window: TUNED_RCV_WINDOW,
            player: PlayerConfig::default(),
        }
    }
}

/// The hosts, links and routers of the MATISSE testbed (no applications).
#[derive(Debug)]
pub struct MatisseTopology {
    /// The network itself.
    pub net: Network,
    /// DPSS storage hosts at LBNL.
    pub storage_hosts: Vec<HostId>,
    /// The receiving compute-cluster head node at ISI East.
    pub client: HostId,
    /// The visualisation workstation fed by the client.
    pub viz: HostId,
    /// Path (link ids) from each storage host to the client.
    pub storage_paths: Vec<Vec<LinkId>>,
    /// Path from the client to the visualisation workstation.
    pub viz_path: Vec<LinkId>,
}

/// Render the MATISSE testbed as scenario-spec text (topology only — the
/// applications and any monitoring deployment are layered on by the
/// caller).  [`matisse_topology`] compiles exactly this text, so the
/// canned constructor and a hand-written `.scn` file that extends the
/// same declarations stay in lockstep.
///
/// Declaration order matters and mirrors the original hand-built
/// constructor: hosts `dpss1..n`, client, viz; then (WAN) the four shared
/// links, the per-server uplinks, the viz edge, and the three routers —
/// simulator IDs and the seeded RNG stream are identical to what the old
/// code produced.
pub fn matisse_spec_text(wan: bool, n_storage: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let name = if wan { "matisse-wan" } else { "matisse-lan" };
    let _ = writeln!(s, "scenario {name}");
    let _ = writeln!(s, "seed {seed}");
    // Storage cluster at LBNL; the DPSS master lives on the first server.
    for i in 1..=n_storage {
        let _ = write!(
            s,
            "host dpss{i}.lbl.gov cpus=2 mem=512m pkt-cost=20 process=dpss_block_server"
        );
        if i == 1 {
            let _ = write!(s, " process=dpss_master");
        }
        let _ = writeln!(s);
    }
    // Receiving compute-cluster head node at ISI East: single fast CPU, a
    // gigabit card on a constrained I/O bus, and a driver that misbehaves
    // when several sockets are active at once.
    let _ = writeln!(
        s,
        "host mems.cairn.net cpus=1 mem=512m pkt-cost=50 socket-overhead=0.25 \
         rcv-buffer=6m multi-socket-loss=0.00035 process=mplay"
    );
    let _ = writeln!(s, "host viz.cairn.net cpus=1 mem=256m pkt-cost=40");
    if wan {
        let _ = writeln!(s, "link lbl-oc12-access bw=622mbit delay=500us");
        let _ = writeln!(s, "link supernet-oc48 bw=2400mbit delay=28ms");
        let _ = writeln!(s, "link isi-cluster-gige bw=1gbit delay=150us");
        // The client's gigabit card sits on a 32-bit PCI bus: ~250 Mbit/s
        // of deliverable bandwidth no matter what the wire says.
        let _ = writeln!(s, "link mems-gige-pci bw=250mbit delay=150us");
        for i in 1..=n_storage {
            let _ = writeln!(s, "link dpss{i}-uplink bw=1gbit delay=150us");
        }
        let _ = writeln!(s, "link viz-gige bw=1gbit delay=150us");
        let _ = writeln!(
            s,
            "router lbl-border-router links=lbl-oc12-access,supernet-oc48"
        );
        let _ = writeln!(
            s,
            "router isi-border-router links=supernet-oc48,isi-cluster-gige"
        );
        let _ = writeln!(
            s,
            "router isi-cluster-switch links=isi-cluster-gige,mems-gige-pci"
        );
    } else {
        let _ = writeln!(s, "link mems-gige-pci bw=250mbit delay=150us");
        for i in 1..=n_storage {
            let _ = writeln!(s, "link dpss{i}-uplink bw=1gbit delay=150us");
        }
        let _ = writeln!(s, "link viz-gige bw=1gbit delay=150us");
        let _ = writeln!(s, "router lan-switch links=mems-gige-pci");
    }
    s
}

/// Build the MATISSE topology.
///
/// `wan = true` puts the Supernet between storage and client (about 29 ms of
/// one-way delay); `wan = false` puts everything behind one gigabit switch.
///
/// This is now a thin shim over the declarative scenario engine: the
/// testbed is rendered by [`matisse_spec_text`], parsed as a
/// [`crate::spec::ScenarioSpec`] and compiled by
/// [`crate::spec::compile_topology`]; only the ID bookkeeping
/// (`storage_paths`, `viz_path`) is recovered here by name.
pub fn matisse_topology(wan: bool, n_storage: usize, seed: u64) -> MatisseTopology {
    assert!((1..=4).contains(&n_storage), "the DPSS had 1-4 servers");
    let text = matisse_spec_text(wan, n_storage, seed);
    let spec = crate::spec::ScenarioSpec::parse(&text).expect("generated MATISSE spec parses");
    let topo = crate::spec::compile_topology(&spec).expect("generated MATISSE spec compiles");
    let storage_hosts: Vec<HostId> = (1..=n_storage)
        .map(|i| {
            topo.host_id(&format!("dpss{i}.lbl.gov"))
                .expect("declared storage host")
        })
        .collect();
    let client = topo.host_id("mems.cairn.net").expect("declared client");
    let viz = topo.host_id("viz.cairn.net").expect("declared viz host");
    let link = |name: &str| topo.link_id(name).expect("declared link");
    let storage_paths: Vec<Vec<LinkId>> = (1..=n_storage)
        .map(|i| {
            let uplink = link(&format!("dpss{i}-uplink"));
            if wan {
                vec![
                    uplink,
                    link("lbl-oc12-access"),
                    link("supernet-oc48"),
                    link("isi-cluster-gige"),
                    link("mems-gige-pci"),
                ]
            } else {
                vec![uplink, link("mems-gige-pci")]
            }
        })
        .collect();
    let viz_path = vec![link("viz-gige")];
    MatisseTopology {
        net: topo.net,
        storage_hosts,
        client,
        viz,
        storage_paths,
        viz_path,
    }
}

/// A fully assembled MATISSE run: topology + DPSS + frame player + trace.
#[derive(Debug)]
pub struct MatisseScenario {
    /// The simulated network.
    pub net: Network,
    /// The striped storage system.
    pub dpss: DpssCluster,
    /// The frame player on the receiving host.
    pub player: FramePlayer,
    /// Monitoring events emitted by the applications.
    pub trace: TraceLog,
    /// Storage hosts.
    pub storage_hosts: Vec<HostId>,
    /// The receiving host.
    pub client: HostId,
    /// The visualisation workstation.
    pub viz: HostId,
    config: MatisseConfig,
}

impl MatisseScenario {
    /// Build the scenario from a configuration.
    pub fn new(config: MatisseConfig) -> Self {
        let MatisseTopology {
            mut net,
            storage_hosts,
            client,
            viz,
            storage_paths,
            viz_path: _,
        } = matisse_topology(config.wan, config.dpss_servers, config.seed);

        let mut servers = Vec::new();
        for (i, (&h, path)) in storage_hosts.iter().zip(&storage_paths).enumerate() {
            let name = net.host(h).name().to_string();
            let flow = net.open_flow(
                format!("dpss{}-data", i + 1),
                h,
                client,
                // The DPSS data port; the port monitor watches this.
                7_000,
                path.clone(),
                config.rcv_window,
            );
            servers.push(DpssServer::new(h, name, flow, 8_000));
        }
        let dpss = DpssCluster::new(servers, DEFAULT_BLOCK_BYTES);
        let player = FramePlayer::new(client, "mems.cairn.net", config.player);

        MatisseScenario {
            net,
            dpss,
            player,
            trace: TraceLog::new(),
            storage_hosts,
            client,
            viz,
            config,
        }
    }

    /// The configuration the scenario was built with.
    pub fn config(&self) -> &MatisseConfig {
        &self.config
    }

    /// Advance the whole scenario (network + applications) by one tick.
    pub fn step(&mut self) {
        self.net.step();
        self.player
            .tick(&mut self.net, &mut self.dpss, &mut self.trace);
    }

    /// Run for `ticks` ticks (1 ms each by default).
    pub fn run_ticks(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Run for a number of simulated seconds.
    pub fn run_secs(&mut self, secs: f64) {
        let ticks = (secs * 1e6 / self.net.clock().tick_us() as f64).round() as u64;
        self.run_ticks(ticks);
    }

    /// Aggregate DPSS -> client delivery rate so far, Mbit/s.
    pub fn aggregate_mbps(&self) -> f64 {
        let elapsed = self.net.clock().now_us();
        if elapsed == 0 {
            return 0.0;
        }
        let bytes: u64 = self.dpss.servers().iter().map(|s| s.bytes_served).sum();
        bytes as f64 * 8.0 / (elapsed as f64 / 1e6) / 1e6
    }

    /// Total TCP retransmissions seen by the receiving host.
    pub fn client_retransmits(&self) -> u64 {
        self.net.host(self.client).stats().tcp_retransmits
    }
}

/// Run the §6 iperf comparison on the MATISSE topology: `streams` parallel
/// TCP streams from the first DPSS host to the compute-cluster head node,
/// over the WAN or LAN variant, for `duration_secs` of simulated time.
pub fn matisse_iperf(wan: bool, streams: usize, duration_secs: f64, seed: u64) -> IperfReport {
    let MatisseTopology {
        mut net,
        storage_hosts,
        client,
        storage_paths,
        ..
    } = matisse_topology(wan, 1, seed);
    let test = IperfTest::start(
        &mut net,
        storage_hosts[0],
        client,
        storage_paths[0].clone(),
        streams,
        TUNED_RCV_WINDOW,
    );
    test.run(&mut net, (duration_secs * 1e6) as u64)
}

/// A generic monitored compute farm: `nodes` identical hosts behind one
/// switch, each running a registered `worker` process.  Used by the cluster
/// monitoring example and the gateway-scalability experiments.
pub fn cluster_topology(nodes: usize, seed: u64) -> (Network, Vec<HostId>, LinkId) {
    let mut net = Network::new(SimClock::matisse(), seed);
    let switch_link = net.add_link(LinkSpec::gige("cluster-switch"));
    let mut hosts = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let h = net.add_host(
            HostSpec::new(format!("node{:03}.farm.lbl.gov", i + 1))
                .cpus(2)
                .memory_kb(1024 * 1024),
        );
        net.host_mut(h).register_process("worker");
        hosts.push(h);
    }
    net.add_router(Router::new("farm-switch", vec![switch_link]));
    (net, hosts, switch_link)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_has_thirteen_ish_components_in_wan_mode() {
        let topo = matisse_topology(true, 4, 1);
        // 4 storage + client + viz = 6 hosts; 3 routers; 8 links.
        assert_eq!(topo.net.hosts().len(), 6);
        assert_eq!(topo.net.routers().len(), 3);
        assert_eq!(topo.storage_paths.len(), 4);
        for p in &topo.storage_paths {
            assert_eq!(p.len(), 5, "WAN path traverses 5 links");
        }
        assert!(topo.net.host_by_name("mems.cairn.net").is_some());
        assert!(topo.net.host_by_name("dpss4.lbl.gov").is_some());
    }

    #[test]
    fn lan_topology_is_flat() {
        let topo = matisse_topology(false, 2, 1);
        for p in &topo.storage_paths {
            assert_eq!(p.len(), 2, "LAN path: uplink + client NIC");
        }
        assert_eq!(topo.net.routers().len(), 1);
    }

    #[test]
    #[should_panic(expected = "1-4 servers")]
    fn too_many_servers_rejected() {
        let _ = matisse_topology(true, 5, 1);
    }

    #[test]
    fn wan_single_stream_iperf_is_window_limited_near_140mbps() {
        let report = matisse_iperf(true, 1, 20.0, 7);
        assert!(
            report.aggregate_mbps > 100.0 && report.aggregate_mbps < 175.0,
            "paper: ~140 Mbit/s; got {:.1}",
            report.aggregate_mbps
        );
    }

    #[test]
    fn wan_four_streams_collapse_versus_one() {
        let one = matisse_iperf(true, 1, 20.0, 7);
        let four = matisse_iperf(true, 4, 20.0, 7);
        assert!(
            four.aggregate_mbps < one.aggregate_mbps / 2.0,
            "paper: 30 vs 140 Mbit/s; got {:.1} vs {:.1}",
            four.aggregate_mbps,
            one.aggregate_mbps
        );
        assert!(four.retransmits > one.retransmits);
    }

    #[test]
    fn lan_streams_do_not_collapse() {
        let one = matisse_iperf(false, 1, 10.0, 7);
        let four = matisse_iperf(false, 4, 10.0, 7);
        assert!(
            one.aggregate_mbps > 150.0,
            "paper: ~200 Mbit/s on the LAN; got {:.1}",
            one.aggregate_mbps
        );
        assert!(
            four.aggregate_mbps > 0.7 * one.aggregate_mbps,
            "LAN parity: {:.1} vs {:.1}",
            four.aggregate_mbps,
            one.aggregate_mbps
        );
    }

    #[test]
    fn matisse_scenario_runs_and_emits_trace() {
        let mut s = MatisseScenario::new(MatisseConfig {
            dpss_servers: 4,
            wan: true,
            seed: 3,
            rcv_window: TUNED_RCV_WINDOW,
            player: PlayerConfig {
                frame_bytes: 1_500_000,
                render_us: 40_000,
                poll_interval_ticks: 5,
                max_frames: 0,
            },
        });
        s.run_secs(10.0);
        assert!(s.player.frames_displayed() > 0, "some frames arrive");
        assert!(!s.trace.is_empty());
        assert!(
            s.client_retransmits() > 0,
            "the WAN run shows retransmissions"
        );
        let rate = s.aggregate_mbps();
        assert!(rate > 3.0 && rate < 200.0, "aggregate {rate:.1} Mbit/s");
    }

    #[test]
    fn cluster_topology_registers_workers() {
        let (net, hosts, _switch) = cluster_topology(16, 5);
        assert_eq!(hosts.len(), 16);
        assert!(net
            .hosts()
            .iter()
            .all(|h| h.processes().any(|(p, alive)| p == "worker" && alive)));
    }
}
