//! # jamm-manager — the JAMM sensor manager and port-monitor agent
//!
//! "The sensor manager agent is responsible for starting and stopping the
//! sensors, and keeping the sensor directory up to date.  Sensors to be run
//! are specified by a configuration file, which may be local or on a remote
//! HTTP server.  Sensors can be configured to run always, when requested by
//! a sensor manager GUI, or when requested by the port monitor agent.  There
//! is typically one sensor manager per host." (§2.2)
//!
//! * [`config`] — the sensor configuration file: which sensors, at what
//!   frequency, under which run policy (always / on request / port
//!   triggered), with hot-reload support;
//! * [`portmon`] — the port monitor agent: watches traffic on configured
//!   ports and tells the manager which application-triggered sensors should
//!   currently be running;
//! * [`manager`] — the [`manager::SensorManager`] itself: builds sensors
//!   from the configuration, samples them on schedule, pushes events to the
//!   host's event gateway, and publishes/refreshes sensor entries in the
//!   directory service.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod config;
pub mod manager;
pub mod portmon;

pub use config::{ManagerConfig, RunPolicy, SensorConfigEntry, SensorTemplate};
pub use manager::{PortActivitySource, SensorManager, SensorStatus};
pub use portmon::PortMonitorAgent;
