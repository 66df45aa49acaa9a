//! # jamm-netsim — simulated Grid testbed
//!
//! The paper's evaluation (§6) runs JAMM on the DARPA MATISSE testbed: a
//! DPSS storage cluster at LBNL, the OC-48 Supernet WAN, a Linux compute
//! cluster and a visualisation workstation at ISI East, with gigabit-ethernet
//! edges.  We obviously do not have that hardware, so this crate provides a
//! deterministic, tick-based discrete-event simulator of the same moving
//! parts:
//!
//! * [`host::Host`] — CPU (user/system), memory, and a NIC model whose
//!   per-packet processing cost grows with the number of concurrently active
//!   sockets (the receiver-side bottleneck the paper observed);
//! * [`link::Link`] / [`link::Router`] — bandwidth/latency/queueing with
//!   SNMP-style interface counters;
//! * [`tcp::TcpFlow`] — an AIMD congestion-control model with retransmission
//!   accounting, receive-window limits and loss feedback from the receiver;
//! * [`network::Network`] — topology + per-tick update loop;
//! * [`dpss`] — a striped block server (the Distributed Parallel Storage
//!   System) and its client;
//! * [`player`] — the MEMS video frame player from the MATISSE demo;
//! * [`iperf`] — the memory-to-memory throughput test used in §6;
//! * [`scenario`] — the MATISSE WAN testbed and its LAN variant as spec
//!   text, compiled to a topology for the §6 iperf comparison (the
//!   MATISSE application and its monitoring run as a `jamm::testbed`
//!   spec);
//! * [`spec`] — the declarative scenario grammar: a parsed
//!   [`spec::ScenarioSpec`] (topology + application + monitoring
//!   deployment + fault timeline) and [`spec::compile_topology`], which builds its hosts,
//!   links and routers.  The runtime that drives real JAMM components
//!   through a spec lives above this crate, in the `jamm` facade's
//!   `testbed` module: this crate depends on no JAMM crate but
//!   `jamm-core` and `jamm-ulm`.
//!
//! All randomness flows from a caller-supplied seed, so every experiment in
//! the benchmark harness is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod dpss;
pub mod host;
pub mod iperf;
pub mod link;
pub mod network;
pub mod player;
pub mod scenario;
pub mod spec;
pub mod tcp;
pub mod trace;

pub use clock::SimClock;
pub use host::{Host, HostId, HostSpec};
pub use link::{Link, LinkId, LinkSpec, Router};
pub use network::{FlowId, Network};
pub use trace::TraceLog;

/// Convenient prelude for building simulations.
pub mod prelude {
    pub use crate::clock::SimClock;
    pub use crate::host::{Host, HostId, HostSpec};
    pub use crate::link::{Link, LinkId, LinkSpec};
    pub use crate::network::{FlowId, Network};
    pub use crate::scenario;
    pub use crate::trace::TraceLog;
}
