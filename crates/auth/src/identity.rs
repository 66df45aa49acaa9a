//! Identity certificates, certificate authorities and proxy delegation.
//!
//! "Public key based X.509 identity certificates are a recognized solution
//! for cross-realm identification of users." (§7.1)  A
//! [`CertificateAuthority`] issues [`IdentityCertificate`]s binding a subject
//! name to a validity window; any party holding the CA's verification key can
//! check that a presented certificate is genuine and current.  Globus-style
//! *proxy* certificates are supported: a user certificate can sign a
//! short-lived proxy that carries the user's identity for delegated agents.

use crate::{AuthError, Result};

/// A keyed hash standing in for a public-key signature.
///
/// The hash is FNV-1a over the canonical certificate encoding mixed with the
/// signing key.  It is *not* cryptographically secure — the point of this
/// crate is the authorization architecture, not the cryptography: a real
/// deployment would verify X.509 public-key signatures here, and nothing
/// above this function would change.
fn keyed_hash(key: u64, data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ key.rotate_left(17);
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= key;
    h.rotate_left(31)
}

/// An identity (or proxy) certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityCertificate {
    /// Distinguished name of the subject, e.g.
    /// `/O=Grid/O=LBNL/CN=Brian Tierney`.
    pub subject: String,
    /// Distinguished name of the issuing CA (or, for proxies, the user
    /// certificate's subject).
    pub issuer: String,
    /// Start of validity, seconds since the epoch.
    pub not_before: u64,
    /// End of validity, seconds since the epoch.
    pub not_after: u64,
    /// True if this is a delegated proxy certificate.
    pub is_proxy: bool,
    /// Signature over the canonical encoding.
    pub signature: u64,
}

impl IdentityCertificate {
    fn canonical(&self) -> String {
        format!(
            "subject={};issuer={};nb={};na={};proxy={}",
            self.subject, self.issuer, self.not_before, self.not_after, self.is_proxy
        )
    }

    /// True if `now` (seconds) falls within the validity window.
    pub fn is_valid_at(&self, now: u64) -> bool {
        now >= self.not_before && now <= self.not_after
    }

    /// The identity this certificate asserts.  For proxies this is the
    /// *issuer* chain's base subject: `/O=Grid/CN=Alice/proxy` acts as
    /// `/O=Grid/CN=Alice`.
    pub fn effective_subject(&self) -> &str {
        if self.is_proxy {
            self.subject.strip_suffix("/proxy").unwrap_or(&self.subject)
        } else {
            &self.subject
        }
    }

    /// Issue a short-lived proxy certificate carrying this identity.
    /// In GSI terms: the user's credential signs the proxy.
    pub fn issue_proxy(&self, user_key: u64, now: u64, lifetime_secs: u64) -> IdentityCertificate {
        let mut proxy = IdentityCertificate {
            subject: format!("{}/proxy", self.subject),
            issuer: self.subject.clone(),
            not_before: now,
            not_after: now + lifetime_secs,
            is_proxy: true,
            signature: 0,
        };
        proxy.signature = keyed_hash(user_key, &proxy.canonical());
        proxy
    }
}

/// A certificate authority.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// The CA's distinguished name.
    pub name: String,
    signing_key: u64,
}

impl CertificateAuthority {
    /// Create a CA with the given name and signing key.
    pub fn new(name: impl Into<String>, signing_key: u64) -> Self {
        CertificateAuthority {
            name: name.into(),
            signing_key,
        }
    }

    /// Issue an identity certificate for `subject`, valid from `now` for
    /// `lifetime_secs`.
    pub fn issue(
        &self,
        subject: impl Into<String>,
        now: u64,
        lifetime_secs: u64,
    ) -> IdentityCertificate {
        let mut cert = IdentityCertificate {
            subject: subject.into(),
            issuer: self.name.clone(),
            not_before: now,
            not_after: now + lifetime_secs,
            is_proxy: false,
            signature: 0,
        };
        cert.signature = keyed_hash(self.signing_key, &cert.canonical());
        cert
    }

    /// Verify that `cert` was issued by this CA, is unmodified, and is valid
    /// at time `now`.
    pub fn verify(&self, cert: &IdentityCertificate, now: u64) -> Result<()> {
        if cert.issuer != self.name {
            return Err(AuthError::UntrustedIssuer(cert.issuer.clone()));
        }
        if keyed_hash(self.signing_key, &cert.canonical()) != cert.signature {
            return Err(AuthError::BadSignature);
        }
        if !cert.is_valid_at(now) {
            return Err(AuthError::Expired);
        }
        Ok(())
    }

    /// Verify a proxy certificate: the proxy must be signed with the user's
    /// key, within its own validity, and the underlying user certificate must
    /// itself verify against this CA.
    pub fn verify_proxy(
        &self,
        proxy: &IdentityCertificate,
        user_cert: &IdentityCertificate,
        user_key: u64,
        now: u64,
    ) -> Result<()> {
        if !proxy.is_proxy || proxy.issuer != user_cert.subject {
            return Err(AuthError::UntrustedIssuer(proxy.issuer.clone()));
        }
        if keyed_hash(user_key, &proxy.canonical()) != proxy.signature {
            return Err(AuthError::BadSignature);
        }
        if !proxy.is_valid_at(now) {
            return Err(AuthError::Expired);
        }
        self.verify(user_cert, now)
    }
}

/// A trust store holding several CAs (one per virtual organisation / site),
/// used by gateways and directory wrappers to verify presented credentials.
#[derive(Debug, Default, Clone)]
pub struct TrustStore {
    authorities: Vec<CertificateAuthority>,
}

impl TrustStore {
    /// Create an empty trust store.
    pub fn new() -> Self {
        TrustStore::default()
    }

    /// Trust a CA.
    pub fn add(&mut self, ca: CertificateAuthority) {
        self.authorities.push(ca);
    }

    /// Verify a certificate against any trusted CA.
    pub fn verify(&self, cert: &IdentityCertificate, now: u64) -> Result<()> {
        for ca in &self.authorities {
            if ca.name == cert.issuer {
                return ca.verify(cert, now);
            }
        }
        Err(AuthError::UntrustedIssuer(cert.issuer.clone()))
    }

    /// Number of trusted authorities.
    pub fn len(&self) -> usize {
        self.authorities.len()
    }

    /// True if no CA is trusted.
    pub fn is_empty(&self) -> bool {
        self.authorities.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: u64 = 959_400_000; // late May 2000

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new("/O=Grid/CN=DOE Science Grid CA", 0xdead_beef)
    }

    #[test]
    fn issue_and_verify() {
        let ca = ca();
        let cert = ca.issue("/O=Grid/O=LBNL/CN=Brian Tierney", NOW, 86_400);
        assert!(ca.verify(&cert, NOW).is_ok());
        assert!(ca.verify(&cert, NOW + 86_000).is_ok());
        assert_eq!(cert.effective_subject(), "/O=Grid/O=LBNL/CN=Brian Tierney");
    }

    #[test]
    fn expired_and_not_yet_valid_rejected() {
        let ca = ca();
        let cert = ca.issue("/CN=user", NOW, 3_600);
        assert_eq!(ca.verify(&cert, NOW + 3_601), Err(AuthError::Expired));
        assert_eq!(ca.verify(&cert, NOW - 1), Err(AuthError::Expired));
    }

    #[test]
    fn tampered_certificates_fail_verification() {
        let ca = ca();
        let mut cert = ca.issue("/CN=user", NOW, 3_600);
        cert.subject = "/CN=attacker".into();
        assert_eq!(ca.verify(&cert, NOW), Err(AuthError::BadSignature));
        let mut cert2 = ca.issue("/CN=user", NOW, 3_600);
        cert2.not_after += 1_000_000;
        assert_eq!(ca.verify(&cert2, NOW), Err(AuthError::BadSignature));
    }

    #[test]
    fn wrong_issuer_or_wrong_key_rejected() {
        let ca1 = ca();
        let ca2 = CertificateAuthority::new("/O=Grid/CN=Rogue CA", 0x1234);
        let cert = ca1.issue("/CN=user", NOW, 3_600);
        assert!(matches!(
            ca2.verify(&cert, NOW),
            Err(AuthError::UntrustedIssuer(_))
        ));
        // Same name, different key -> bad signature.
        let ca3 = CertificateAuthority::new("/O=Grid/CN=DOE Science Grid CA", 0x9999);
        assert_eq!(ca3.verify(&cert, NOW), Err(AuthError::BadSignature));
    }

    #[test]
    fn proxy_delegation_works_and_expires_independently() {
        let ca = ca();
        let user_key = 0x5555;
        let user = ca.issue("/O=Grid/CN=Alice", NOW, 30 * 86_400);
        let proxy = user.issue_proxy(user_key, NOW, 3_600);
        assert!(proxy.is_proxy);
        assert_eq!(proxy.effective_subject(), "/O=Grid/CN=Alice");
        assert!(ca.verify_proxy(&proxy, &user, user_key, NOW).is_ok());
        // Proxy expired even though the user certificate is still good.
        assert_eq!(
            ca.verify_proxy(&proxy, &user, user_key, NOW + 7_200),
            Err(AuthError::Expired)
        );
        // Wrong delegation key.
        assert_eq!(
            ca.verify_proxy(&proxy, &user, 0x6666, NOW),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn trust_store_verifies_across_realms() {
        let lbl = CertificateAuthority::new("/O=Grid/CN=LBNL CA", 1);
        let anl = CertificateAuthority::new("/O=Grid/CN=ANL CA", 2);
        let mut store = TrustStore::new();
        store.add(lbl.clone());
        store.add(anl.clone());
        assert_eq!(store.len(), 2);
        let c1 = lbl.issue("/CN=alice", NOW, 100);
        let c2 = anl.issue("/CN=bob", NOW, 100);
        assert!(store.verify(&c1, NOW).is_ok());
        assert!(store.verify(&c2, NOW).is_ok());
        let unknown = CertificateAuthority::new("/CN=Other CA", 3).issue("/CN=eve", NOW, 100);
        assert!(matches!(
            store.verify(&unknown, NOW),
            Err(AuthError::UntrustedIssuer(_))
        ));
    }
}
