//! # jamm-rmi — the remote-invocation substrate
//!
//! JAMM's agents are "implemented as Java Activatable Remote Method
//! Invocation (RMI) objects" (§3): managers, gateways and consumers call
//! each other through location-transparent method invocations.
//!
//! There is no JVM here, so this crate stands in for Java RMI with
//! JSON-framed calls over an in-process bus and TCP, keeping the paper's
//! call shape.  Activation has no stand-in: agents are built eagerly, and
//! re-dialling a lost peer is the circuit breaker's job.
//!
//! * [`message`] — the call/response envelope (JSON-encoded arguments);
//! * [`bus`] — an in-process service registry and dispatcher: the
//!   location-transparent call path used when agents share a process;
//! * [`tcp`] — a TCP transport that exposes a bus to remote callers with
//!   length-prefixed JSON frames, so agents on different hosts can invoke
//!   each other exactly like local ones;
//! * [`edge`] — the reactor-backed subscriber transport: one event loop
//!   broadcasting a gateway's stream to many TCP consumers with
//!   encode-once/write-N framing and per-socket backpressure, plus
//!   [`edge::EdgeClient`], a self-healing subscriber that redials a
//!   crashed edge on a circuit-breaker backoff schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod edge;
pub mod message;
pub mod tcp;

pub use bus::{MessageBus, Service};
pub use edge::{
    EdgeClient, EdgeClientConfig, EdgeClientStats, EdgeConfig, EdgeError, EdgeStats,
    EdgeStatsHandle, EventEdge,
};
pub use message::{MethodCall, RmiError, RmiResult};
