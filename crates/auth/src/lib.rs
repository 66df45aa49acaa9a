//! # jamm-auth — identity, mapping and authorization for JAMM
//!
//! Section 7.1 of the paper lays out the security design JAMM intends to
//! adopt: X.509 identity certificates presented over SSL for cross-realm
//! user identification, a Globus-GSI-style map file translating certificate
//! subjects to local accounts, Akenti-style stakeholder policy and attribute
//! certificates for distributed authorization, simple user/password
//! protection of LDAP subtrees, and allow-lists restricting which gateways
//! may talk to a sensor manager.
//!
//! This crate implements all of those mechanisms.  The one substitution is
//! cryptographic: certificates are "signed" with a keyed hash over their
//! canonical encoding rather than RSA/DSA signatures, which keeps the crate
//! dependency-free while preserving every architectural property the paper
//! discusses (issuance, verification, expiry, delegation via proxies,
//! cross-realm naming, stakeholder policy evaluation).
//!
//! * [`identity`] — certificate authorities, identity and proxy certificates;
//! * [`mapfile`] — the grid map file (certificate subject → local user);
//! * [`acl`] — action-level access control lists used by event gateways;
//! * [`policy`] — Akenti-like use-conditions and attribute certificates.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod acl;
pub mod identity;
pub mod mapfile;
pub mod policy;

pub use acl::{AccessControlList, Action};
pub use identity::{CertificateAuthority, IdentityCertificate};
pub use mapfile::GridMapFile;
pub use policy::{AttributeCertificate, PolicyEngine, UseCondition};

/// Errors returned by authentication / authorization operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The certificate signature did not verify.
    BadSignature,
    /// The certificate is outside its validity window.
    Expired,
    /// The certificate issuer is not trusted.
    UntrustedIssuer(String),
    /// The subject has no mapping to a local account.
    NoMapping(String),
    /// The subject is not authorised for the requested action.
    Denied(String),
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::BadSignature => write!(f, "certificate signature verification failed"),
            AuthError::Expired => write!(f, "certificate is expired or not yet valid"),
            AuthError::UntrustedIssuer(ca) => write!(f, "untrusted issuer: {ca}"),
            AuthError::NoMapping(subj) => write!(f, "no grid-map entry for {subj}"),
            AuthError::Denied(what) => write!(f, "access denied: {what}"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, AuthError>;
