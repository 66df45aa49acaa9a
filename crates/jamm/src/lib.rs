//! # jamm — Java Agents for Monitoring and Management, in Rust
//!
//! The facade crate of the JAMM reproduction (Tierney et al., "A Monitoring
//! Sensor Management System for Grid Environments", HPDC 2000).  One
//! dependency wires the paper's whole architecture; the individual pieces
//! live in the `jamm-*` crates re-exported below.
//!
//! ## Paper component → crate map (§2.2)
//!
//! | Paper component | Crate |
//! |---|---|
//! | Sensors (host / network / process / application) | [`jamm_sensors`] |
//! | Sensor managers, port monitor agent | [`jamm_manager`] |
//! | Event gateways (filters, summaries, access control) | [`jamm_gateway`] |
//! | Sensor directory (LDAP-like) | [`jamm_directory`] |
//! | Consumers: collector, archiver, procmon, overview | [`jamm_consumers`] |
//! | Event archive | [`jamm_archive`] |
//! | Archive storage engine (WAL, segments, pruned scans) | [`jamm_tsdb`] |
//! | ULM events and the text/binary/JSON codecs | [`jamm_ulm`] |
//! | NetLogger toolkit (API, merge, clocks, nlv) | [`jamm_netlogger`] |
//! | Network edge (the gateway stream over TCP) | [`jamm_rmi`] |
//! | Certificates, grid-mapfile, policy | [`jamm_auth`] |
//! | Simulated Grid testbed | [`jamm_netsim`] |
//! | Declarative scenarios run by real JAMM components, the MATISSE and farm deployments | [`testbed`] |
//!
//! Every hop speaks the shared pipeline vocabulary from `jamm-core`: events
//! move as shared handles ([`SharedEvent`]) through
//! [`jamm_core::flow::EventSink`]`<SharedEvent>` / `EventSource`
//! implementations over **bounded** channels, wire formats implement
//! [`jamm_core::codec::Codec`] and are selected by content type, and
//! consumers subscribe with the gateway's fluent `SubscriptionBuilder`.
//!
//! ## Entry points
//!
//! * [`JammBuilder`] — declare a deployment (directory, gateways,
//!   consumers) and get a wired [`JammSystem`]: its query endpoint
//!   ([`JammSystem::query`]) and its admin rows and metrics
//!   ([`admin`]), each number read once from the component that owns it.
//!   With [`JammBuilder::self_monitor`] on, the pipeline's own sampled
//!   lifelines wait in the tracer's bounded queue until
//!   [`JammSystem::drain_self_events`] reads them.
//!   Everything else — gateway ACLs, QoS, external overload pressure
//!   (`EventGateway::set_external_pressure`), re-tiering — is set on the
//!   component itself (`GatewayConfig::with_*`, the
//!   `gateways` field):
//!
//! ```
//! use jamm::JammBuilder;
//!
//! let mut jamm = JammBuilder::new()
//!     .directory("ldap://dir.lbl.gov", "o=grid")
//!     .gateway("gw.lbl.gov:8765")
//!     .collector("nlv-analyst")
//!     .build()
//!     .expect("valid deployment");
//! assert_eq!(jamm.connect_collectors(vec![]), 1);
//! ```
//!
//! * [`testbed`] — declarative scenarios run by the real components on
//!   the simulated Grid testbed, including the paper's two deployments:
//!   [`testbed::matisse`] (Figure 4, the §6 MATISSE case study) and
//!   [`testbed::farm`] (the §1.1 monitored compute farm) return specs
//!   that [`testbed::ScenarioEngine`] compiles and runs:
//!
//! ```
//! use jamm::testbed::{self, ScenarioEngine};
//!
//! // A small LAN MATISSE run: 2 DPSS servers streaming frames to a client,
//! // fully monitored by JAMM.
//! let mut spec = testbed::matisse(false, 2)?;
//! spec.players[0].max_frames = 5;
//! let mut jamm = ScenarioEngine::new(spec)?;
//! jamm.run_until(5_000_000);
//! assert!(jamm.drained().count() > 0);
//! # Ok::<(), jamm::testbed::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admin;
pub mod builder;
mod query;
mod system;
pub mod testbed;

pub use admin::GatewayAdminStats;
pub use builder::{BuildError, JammBuilder};
pub use jamm_core::query::AggRow;
pub use jamm_ulm::SharedEvent;
pub use query::{HistorySource, QueryAnswer, QueryError};
pub use system::{ArchiveMaintenanceReport, JammSystem};

// Re-export the sub-crates under predictable names so downstream users need
// only one dependency.
pub use jamm_archive;
pub use jamm_auth;
pub use jamm_consumers;
pub use jamm_core;
pub use jamm_directory;
pub use jamm_gateway;
pub use jamm_manager;
pub use jamm_netlogger;
pub use jamm_netsim;
pub use jamm_reactor;
pub use jamm_rmi;
pub use jamm_sensors;
pub use jamm_tsdb;
pub use jamm_ulm;
