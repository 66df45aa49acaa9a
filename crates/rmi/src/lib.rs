//! # jamm-rmi — the network edge
//!
//! JAMM's agents are "implemented as Java Activatable Remote Method
//! Invocation (RMI) objects" (§3).  There is no JVM here, and the facade
//! wires its agents in one process, so they call each other directly;
//! what crosses the network is the gateway's event stream.  This crate
//! holds that transport:
//!
//! * [`edge`] — the reactor-backed subscriber transport: one event loop
//!   broadcasting a gateway's stream to many TCP consumers with
//!   encode-once/write-N framing and per-socket backpressure, plus
//!   [`edge::EdgeClient`], a self-healing subscriber that redials a
//!   crashed edge on a circuit-breaker backoff schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod edge;

pub use edge::{
    EdgeClient, EdgeClientConfig, EdgeClientStats, EdgeConfig, EdgeError, EdgeStats,
    EdgeStatsHandle, EventEdge,
};
