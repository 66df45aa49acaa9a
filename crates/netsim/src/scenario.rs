//! The MATISSE testbed of Figure 5 and its iperf comparison.
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
//! This module renders and compiles the topology only; the MATISSE
//! application and its monitoring run as a testbed spec
//! (`jamm::testbed::matisse`).

use crate::host::HostId;
use crate::iperf::{IperfReport, IperfTest};
use crate::link::LinkId;
use crate::network::Network;
use crate::spec::{compile_topology, EngineError, ScenarioSpec};

/// Default per-flow receiver window: 1 MB.  The DPSS is the paper's
/// "network-aware" application, which tunes its TCP buffers to the
/// bandwidth-delay product advertised by the monitoring system.
pub const TUNED_RCV_WINDOW: u64 = 1 << 20;

/// The hosts, links and routers of the MATISSE testbed (no applications).
#[derive(Debug)]
pub struct MatisseTopology {
    /// The network itself.
    pub net: Network,
    /// DPSS storage hosts at LBNL.
    pub storage_hosts: Vec<HostId>,
    /// The receiving compute-cluster head node at ISI East.
    pub client: HostId,
    /// Path (link ids) from each storage host to the client.
    pub storage_paths: Vec<Vec<LinkId>>,
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

/// The link names from storage server `i` (1-based) to the client.
pub fn storage_path(wan: bool, i: usize) -> Vec<String> {
    let shared: &[&str] = if wan {
        &[
            "lbl-oc12-access",
            "supernet-oc48",
            "isi-cluster-gige",
            "mems-gige-pci",
        ]
    } else {
        &["mems-gige-pci"]
    };
    std::iter::once(format!("dpss{i}-uplink"))
        .chain(shared.iter().map(|l| l.to_string()))
        .collect()
}

/// Build the MATISSE topology.
///
/// `wan = true` puts the Supernet between storage and client (about 29 ms of
/// one-way delay); `wan = false` puts everything behind one gigabit switch.
///
/// The testbed is rendered by [`matisse_spec_text`], parsed as a
/// [`ScenarioSpec`] and compiled by [`compile_topology`]; only the ID
/// bookkeeping (hosts and `storage_paths`) is recovered here by name.
pub fn matisse_topology(
    wan: bool,
    n_storage: usize,
    seed: u64,
) -> Result<MatisseTopology, EngineError> {
    assert!((1..=4).contains(&n_storage), "the DPSS had 1-4 servers");
    let topo = compile_topology(&ScenarioSpec::parse(&matisse_spec_text(
        wan, n_storage, seed,
    ))?)?;
    let host = |name: &str| {
        topo.host_id(name)
            .ok_or_else(|| EngineError::Compile(format!("unknown host `{name}`")))
    };
    let storage_hosts = (1..=n_storage)
        .map(|i| host(&format!("dpss{i}.lbl.gov")))
        .collect::<Result<Vec<_>, _>>()?;
    let client = host("mems.cairn.net")?;
    let storage_paths = (1..=n_storage)
        .map(|i| topo.resolve_path(&storage_path(wan, i)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MatisseTopology {
        net: topo.net,
        storage_hosts,
        client,
        storage_paths,
    })
}

/// Run the §6 iperf comparison on the MATISSE topology: `streams` parallel
/// TCP streams from the first DPSS host to the compute-cluster head node,
/// over the WAN or LAN variant, for `duration_secs` of simulated time.
pub fn matisse_iperf(
    wan: bool,
    streams: usize,
    duration_secs: f64,
    seed: u64,
) -> Result<IperfReport, EngineError> {
    let MatisseTopology {
        mut net,
        storage_hosts,
        client,
        storage_paths,
        ..
    } = matisse_topology(wan, 1, seed)?;
    let test = IperfTest::start(
        &mut net,
        storage_hosts[0],
        client,
        storage_paths[0].clone(),
        streams,
        TUNED_RCV_WINDOW,
    );
    Ok(test.run(&mut net, (duration_secs * 1e6) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_has_thirteen_ish_components_in_wan_mode() {
        let topo = matisse_topology(true, 4, 1).unwrap();
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
        let topo = matisse_topology(false, 2, 1).unwrap();
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
        let report = matisse_iperf(true, 1, 20.0, 7).unwrap();
        assert!(
            report.aggregate_mbps > 100.0 && report.aggregate_mbps < 175.0,
            "paper: ~140 Mbit/s; got {:.1}",
            report.aggregate_mbps
        );
    }

    #[test]
    fn wan_four_streams_collapse_versus_one() {
        let one = matisse_iperf(true, 1, 20.0, 7).unwrap();
        let four = matisse_iperf(true, 4, 20.0, 7).unwrap();
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
        let one = matisse_iperf(false, 1, 10.0, 7).unwrap();
        let four = matisse_iperf(false, 4, 10.0, 7).unwrap();
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
}
