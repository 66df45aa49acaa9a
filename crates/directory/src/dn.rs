//! Distinguished names.
//!
//! A DN is an ordered list of `attribute=value` components, most specific
//! first, exactly as in LDAP: `sensor=cpu, host=dpss1.lbl.gov, o=lbl, o=grid`.
//! The hierarchy is what lets one site's server hold a subtree and refer
//! queries about other subtrees elsewhere.

use crate::DirectoryError;

/// One relative distinguished name component (`attribute=value`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdn {
    /// Attribute name, stored lower-case.
    pub attr: String,
    /// Attribute value (case preserved, compared case-insensitively).
    pub value: String,
}

impl Rdn {
    /// Create a component.
    pub fn new(attr: impl Into<String>, value: impl Into<String>) -> Self {
        Rdn {
            attr: attr.into().to_ascii_lowercase(),
            value: value.into(),
        }
    }

    fn matches(&self, other: &Rdn) -> bool {
        self.attr == other.attr && self.value.eq_ignore_ascii_case(&other.value)
    }
}

impl std::fmt::Display for Rdn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// A distinguished name: ordered RDN components, most specific first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Dn {
    components: Vec<Rdn>,
}

impl Dn {
    /// The root DN (no components).
    pub fn root() -> Self {
        Dn {
            components: Vec::new(),
        }
    }

    /// Parse a DN string such as `sensor=cpu,host=dpss1.lbl.gov,o=lbl`.
    /// Whitespace around commas is ignored.  The empty string is the root.
    pub fn parse(s: &str) -> crate::Result<Self> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut components = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let (attr, value) = part
                .split_once('=')
                .ok_or_else(|| DirectoryError::InvalidDn(s.to_string()))?;
            let (attr, value) = (attr.trim(), value.trim());
            if attr.is_empty() || value.is_empty() {
                return Err(DirectoryError::InvalidDn(s.to_string()));
            }
            components.push(Rdn::new(attr, value));
        }
        Ok(Dn { components })
    }

    /// The components, most specific first.
    pub fn components(&self) -> &[Rdn] {
        &self.components
    }

    /// Number of components (0 for the root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// True for the root DN.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// The leading (most specific) component, if any.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.components.first()
    }

    /// The parent DN (everything but the leading component).
    pub fn parent(&self) -> Option<Dn> {
        if self.components.is_empty() {
            None
        } else {
            Some(Dn {
                components: self.components[1..].to_vec(),
            })
        }
    }

    /// Prepend a child component, producing a more specific DN.
    pub fn child(&self, attr: impl Into<String>, value: impl Into<String>) -> Dn {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.push(Rdn::new(attr, value));
        components.extend(self.components.iter().cloned());
        Dn { components }
    }

    /// True if `self` equals `base` or sits underneath it.
    pub fn is_under(&self, base: &Dn) -> bool {
        if base.components.len() > self.components.len() {
            return false;
        }
        let offset = self.components.len() - base.components.len();
        self.components[offset..]
            .iter()
            .zip(&base.components)
            .all(|(a, b)| a.matches(b))
    }

    /// True if `self` is an immediate child of `base`.
    pub fn is_child_of(&self, base: &Dn) -> bool {
        self.components.len() == base.components.len() + 1 && self.is_under(base)
    }
}

impl std::fmt::Display for Dn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for c in &self.components {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for Dn {
    type Err = DirectoryError;
    fn from_str(s: &str) -> crate::Result<Self> {
        Dn::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let dn = Dn::parse("sensor=cpu, host=dpss1.lbl.gov, o=lbl, o=grid").unwrap();
        assert_eq!(dn.depth(), 4);
        assert_eq!(dn.to_string(), "sensor=cpu,host=dpss1.lbl.gov,o=lbl,o=grid");
        assert_eq!(Dn::parse(&dn.to_string()).unwrap(), dn);
    }

    #[test]
    fn root_and_empty() {
        assert!(Dn::parse("").unwrap().is_root());
        assert_eq!(Dn::root().to_string(), "");
        assert_eq!(Dn::root().parent(), None);
    }

    #[test]
    fn invalid_dns_rejected() {
        assert!(Dn::parse("no-equals-sign").is_err());
        assert!(Dn::parse("a=,b=c").is_err());
        assert!(Dn::parse("=v").is_err());
    }

    #[test]
    fn parent_child_relations() {
        let base = Dn::parse("o=lbl,o=grid").unwrap();
        let host = base.child("host", "dpss1.lbl.gov");
        let sensor = host.child("sensor", "cpu");
        assert_eq!(
            sensor.to_string(),
            "sensor=cpu,host=dpss1.lbl.gov,o=lbl,o=grid"
        );
        assert_eq!(sensor.parent().unwrap(), host);
        assert!(sensor.is_under(&base));
        assert!(sensor.is_under(&host));
        assert!(sensor.is_under(&sensor));
        assert!(!sensor.is_child_of(&base));
        assert!(sensor.is_child_of(&host));
        assert!(host.is_child_of(&base));
        assert!(!base.is_under(&host));
        // Everything is under the root.
        assert!(sensor.is_under(&Dn::root()));
    }

    #[test]
    fn matching_is_case_insensitive() {
        let a = Dn::parse("HOST=DPSS1.LBL.GOV,o=lbl").unwrap();
        let b = Dn::parse("host=dpss1.lbl.gov,O=LBL").unwrap();
        assert!(a.is_under(&b) && b.is_under(&a));
    }

    #[test]
    fn rdn_accessor() {
        let dn = Dn::parse("sensor=cpu,host=x").unwrap();
        let rdn = dn.rdn().unwrap();
        assert_eq!(rdn.attr, "sensor");
        assert_eq!(rdn.value, "cpu");
        assert!(Dn::root().rdn().is_none());
    }
}
