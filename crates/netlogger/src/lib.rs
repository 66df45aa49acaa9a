//! # jamm-netlogger — the NetLogger Toolkit
//!
//! JAMM was built to feed the NetLogger Toolkit (paper §4): an
//! instrumentation API that applications use to emit precision-timestamped
//! ULM events at the critical points of a distributed operation, tools to
//! collect and merge the resulting logs, a clock-synchronisation story that
//! makes cross-host timestamps comparable, and the `nlv` visualiser with its
//! three graph primitives (lifeline, loadline, point).
//!
//! * [`api`] — the client API (§4.4): `new`, `open`, `write`, `flush`,
//!   `close`, with memory / file / collector-channel sinks and automatic
//!   timestamping;
//! * [`merge`] — log collection and time-sorting (§4.1's "tools for
//!   collecting and sorting log files");
//! * [`clock`] — host clock offset/drift model and NTP-style synchronisation
//!   (§4.3), used by experiment E6;
//! * [`nlv`] — the visualisation data model: build lifelines, loadlines and
//!   point series from an event log (§4.5, Figures 2, 3 and 7);
//! * [`analysis`] — lifeline latency breakdowns, delivery-gap detection,
//!   retransmit/gap correlation and read-size clustering — the quantitative
//!   backbone of the Figure 3 and Figure 7 reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod api;
pub mod clock;
pub mod merge;
pub mod nlv;

pub use api::{NetLogger, Sink};
pub use clock::{HostClock, NtpSimulation};
pub use nlv::{Lifeline, Loadline, NlvChart, PointSeries};
