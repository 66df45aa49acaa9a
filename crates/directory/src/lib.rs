//! # jamm-directory — the JAMM sensor directory service
//!
//! JAMM publishes *which sensors exist and which event gateway serves them*
//! in a directory service; consumers look sensors up there and then contact
//! the gateway directly (paper §2.2).  The paper uses LDAP because it is a
//! simple standard solution, relies on its hierarchical naming, referrals
//! between per-site servers, and replication for fault tolerance, and looks
//! forward to the LDAPv3 persistent-search ("event notification") extension.
//!
//! Rust's LDAP-server ecosystem is thin, so this crate implements the subset
//! of LDAP semantics JAMM actually depends on, in process:
//!
//! * [`dn::Dn`] — hierarchical distinguished names;
//! * [`entry::Entry`] — multi-valued attribute records;
//! * [`filter::Filter`] — search filters (`(&(objectclass=sensor)(host=x*))`);
//! * [`server::DirectoryServer`] — a read-optimised tree store with
//!   base/one-level/subtree search, simple bind authentication and access
//!   statistics;
//! * [`referral`] — per-site servers that refer queries for foreign subtrees
//!   to their owning site, plus a federation helper that chases referrals;
//! * [`replication`] — master/replica replication with failover reads;
//! * [`notify`] — persistent search: register interest in a subtree and be
//!   notified when matching entries appear, change or disappear.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod dn;
pub mod entry;
pub mod filter;
pub mod notify;
pub mod referral;
pub mod replication;
pub mod server;

pub use dn::Dn;
pub use entry::Entry;
pub use filter::Filter;
pub use server::{DirectoryServer, Scope, SearchResult};

/// Errors returned by directory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The target entry does not exist.
    NoSuchEntry(String),
    /// An entry with that DN already exists.
    AlreadyExists(String),
    /// The DN string could not be parsed.
    InvalidDn(String),
    /// The filter string could not be parsed.
    InvalidFilter(String),
    /// The bind credentials were rejected.
    AuthenticationFailed,
    /// The caller is not authorised for the operation.
    NotAuthorized(String),
    /// The operation must be performed at another server.
    Referral(String),
    /// The server is down (used by the replication/failover layer).
    ServerUnavailable(String),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
            DirectoryError::AlreadyExists(dn) => write!(f, "entry already exists: {dn}"),
            DirectoryError::InvalidDn(s) => write!(f, "invalid DN: {s}"),
            DirectoryError::InvalidFilter(s) => write!(f, "invalid filter: {s}"),
            DirectoryError::AuthenticationFailed => write!(f, "authentication failed"),
            DirectoryError::NotAuthorized(what) => write!(f, "not authorized: {what}"),
            DirectoryError::Referral(url) => write!(f, "referral to {url}"),
            DirectoryError::ServerUnavailable(name) => write!(f, "server unavailable: {name}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// Convenience result alias for directory operations.
pub type Result<T> = std::result::Result<T, DirectoryError>;
