//! The unified query plane: one predicate IR for every consumer intent.
//!
//! The paper's consumers express the same intent three ways — streaming
//! subscription filters at a gateway (event type / on-change / threshold,
//! §2.2), query-mode requests against archived history, and LDAP-style
//! directory searches.  This module gives all of them one language:
//!
//! * [`Predicate`] — a boolean IR (`And`/`Or`/`Not` over typed leaves)
//!   with a text grammar ([`Predicate::parse`], a superset of the
//!   directory's LDAP-ish filter syntax) and a round-trippable
//!   [`std::fmt::Display`] form;
//! * [`Predicate::compile`] — produces a [`Plan`]: an allocation-free
//!   evaluator over anything implementing [`Record`] (events, directory
//!   entries), plus extracted pushdown [`Facts`] (event-type and host
//!   sets, severity floor, time bounds, result limit) that the routing
//!   and storage layers use to skip work *before* touching data;
//! * [`Record`] — the evaluation surface a record type exposes, so one
//!   compiled plan answers against live events and directory entries
//!   alike.
//!
//! Identifier leaves (event types, hosts) are interned ([`Sym`]) at
//! compile time, so steady-state evaluation hashes `u32`s and allocates
//! nothing per record.  Attribute leaves keep their lower-cased name: the
//! record compares strings, and a name from consumer query text never
//! enters the process-wide interner.
//!
//! # Grammar
//!
//! Parenthesised prefix syntax, as in LDAP:
//!
//! | Form | Meaning |
//! |---|---|
//! | `(&(f1)(f2)...)` | conjunction (empty `(&)` matches everything) |
//! | `(\|(f1)(f2)...)` | disjunction (empty `(\|)` matches nothing) |
//! | `(!(f))` | negation |
//! | `(type=CPU_TOTAL)` / `(eventtype=...)` | exact event-type selection (feeds routing and pruning) |
//! | `(host=dpss1.lbl.gov)` | exact host selection (feeds pruning) |
//! | `(level>=warning)` | severity floor |
//! | `(time>=N)` / `(time<N)` | half-open time bounds, microseconds (`Ns` = seconds) |
//! | `(val>50)` `(val<50)` `(val>=..)` `(val<=..)` `(val=..)` `(val!=..)` | `VAL` reading comparisons |
//! | `(onchange)` | pass only when the reading differs from the previous one of its series |
//! | `(crosses=50)` | pass when the reading crosses the threshold in either direction |
//! | `(relchange=0.2)` | pass when the reading changed by more than the fraction |
//! | `(limit=100)` | result limit (a pushdown directive; always matches) |
//! | `(groupby=host)` / `(groupby=type)` / `(groupby=host,type)` | aggregate directive: group matches by host and/or event type |
//! | `(topk=5)` | aggregate directive: keep the 5 highest-scoring groups |
//! | `(attr=value)` | case-insensitive attribute equality (directory entries; event pseudo-attrs) |
//! | `(attr~=value)` | case-insensitive equality on *any* attribute, including `host`/`type` (LDAP approximate match) |
//! | `(attr=*)` | attribute presence |
//! | `(attr=pa*ern)` | case-insensitive substring match (`*` wildcards) |
//!
//! Literal `(`, `)`, `*` and `\` inside values are escaped with a
//! backslash; [`Predicate`]'s `Display` form re-escapes them, so
//! parse → display → parse round-trips.
//!
//! `host=` / `type=` equality is **exact** (those leaves feed segment
//! pruning, whose catalogs are exact string sets); every other attribute
//! comparison is case-insensitive per LDAP convention.

use std::collections::HashMap;

use crate::intern::{BuildSymHasher, Sym};
use crate::sync::Mutex;

/// Canonical level names in severity order; index is the rank used by
/// [`Predicate::MinLevel`] (0 = Usage ... 8 = Emergency).  Kept in sync
/// with `jamm_ulm::Level::severity` (asserted by a test there).
pub const LEVEL_NAMES: [&str; 9] = [
    "Usage",
    "Debug",
    "Info",
    "Notice",
    "Warning",
    "Error",
    "Critical",
    "Alert",
    "Emergency",
];

/// The severity rank of a level name (case-insensitive), if known.
pub fn level_rank(name: &str) -> Option<u8> {
    LEVEL_NAMES
        .iter()
        .position(|n| n.eq_ignore_ascii_case(name))
        .map(|i| i as u8)
}

/// The canonical name of a severity rank (clamped to the table).
pub fn level_name(rank: u8) -> &'static str {
    LEVEL_NAMES[(rank as usize).min(LEVEL_NAMES.len() - 1)]
}

/// How a `VAL` reading is compared against a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueCmp {
    /// Strictly greater than.
    Gt,
    /// Strictly less than.
    Lt,
    /// Greater than or equal.
    Ge,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl ValueCmp {
    fn apply(self, v: f64, t: f64) -> bool {
        match self {
            ValueCmp::Gt => v > t,
            ValueCmp::Lt => v < t,
            ValueCmp::Ge => v >= t,
            ValueCmp::Le => v <= t,
            ValueCmp::Eq => v == t,
            ValueCmp::Ne => v != t,
        }
    }

    fn op_str(self) -> &'static str {
        match self {
            ValueCmp::Gt => ">",
            ValueCmp::Lt => "<",
            ValueCmp::Ge => ">=",
            ValueCmp::Le => "<=",
            ValueCmp::Eq => "=",
            ValueCmp::Ne => "!=",
        }
    }
}

/// The predicate IR: what a consumer wants, independent of which layer
/// answers it.  Build one with the constructors, or parse the text grammar
/// with [`Predicate::parse`]; [`Predicate::compile`] turns it into an
/// executable [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every record.
    True,
    /// All children must match.  `And(vec![])` matches everything.
    And(Vec<Predicate>),
    /// At least one child must match.  `Or(vec![])` matches nothing.
    Or(Vec<Predicate>),
    /// The child must not match.
    Not(Box<Predicate>),
    /// The record's event type is one of these (exact).  Feeds routing
    /// buckets and segment pruning.  An empty list matches nothing.
    EventTypes(Vec<String>),
    /// The record's host is one of these (exact).  Feeds segment pruning.
    Hosts(Vec<String>),
    /// The record's severity rank is at least this (see [`level_rank`]).
    MinLevel(u8),
    /// Half-open time bounds in microseconds: `from <= t < to`.
    TimeRange {
        /// Inclusive lower bound (micros).
        from_micros: Option<u64>,
        /// Exclusive upper bound (micros).
        to_micros: Option<u64>,
    },
    /// Compare the record's `VAL` reading against a threshold.  Records
    /// without a numeric reading never match.
    Value(ValueCmp, f64),
    /// Stateful: pass when the reading differs from the previous reading
    /// of the same `(host, event type)` series (first sighting passes).
    OnChange,
    /// Stateful: pass when the reading crosses the threshold in either
    /// direction relative to the previous reading of its series.
    Crosses(f64),
    /// Stateful: pass when the reading changed by more than the given
    /// fraction relative to the previous reading of its series.
    RelativeChange(f64),
    /// Case-insensitive attribute equality (`(attr=value)`).
    Equals(String, String),
    /// Attribute presence (`(attr=*)`).
    Present(String),
    /// Case-insensitive substring match: the parts are the literal
    /// segments between `*` wildcards.
    Substring(String, Vec<String>),
    /// Result-limit directive: always matches; the limit is carried as a
    /// pushdown fact for scans.
    Limit(usize),
    /// Aggregate directive: group matching records by the given keys
    /// (always matches as a filter; the grouping is carried in the plan's
    /// [`AggregateSpec`]).
    GroupBy(Vec<GroupKey>),
    /// Aggregate directive: keep only the K highest-scoring groups.
    TopK(usize),
}

/// A grouping key for the aggregate directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKey {
    /// Group by the record's host.
    Host,
    /// Group by the record's event type.
    Type,
}

impl GroupKey {
    fn as_str(self) -> &'static str {
        match self {
            GroupKey::Host => "host",
            GroupKey::Type => "type",
        }
    }
}

impl Predicate {
    /// A predicate matching everything.
    pub fn everything() -> Predicate {
        Predicate::True
    }

    /// Conjunction.
    pub fn and(children: Vec<Predicate>) -> Predicate {
        Predicate::And(children)
    }

    /// Disjunction.
    pub fn or(children: Vec<Predicate>) -> Predicate {
        Predicate::Or(children)
    }

    /// Negation.
    pub fn negate(child: Predicate) -> Predicate {
        Predicate::Not(Box::new(child))
    }

    /// Exact event-type selection.
    pub fn types<I: IntoIterator<Item = S>, S: Into<String>>(types: I) -> Predicate {
        Predicate::EventTypes(types.into_iter().map(Into::into).collect())
    }

    /// Exact host selection.
    pub fn hosts<I: IntoIterator<Item = S>, S: Into<String>>(hosts: I) -> Predicate {
        Predicate::Hosts(hosts.into_iter().map(Into::into).collect())
    }

    /// Half-open time range `[from, to)` in microseconds.
    pub fn between_micros(from: u64, to: u64) -> Predicate {
        Predicate::TimeRange {
            from_micros: Some(from),
            to_micros: Some(to),
        }
    }

    /// `VAL` comparison.
    pub fn val(cmp: ValueCmp, threshold: f64) -> Predicate {
        Predicate::Value(cmp, threshold)
    }

    /// Case-insensitive attribute equality (attribute name is lowercased).
    pub fn attr_eq(attr: impl Into<String>, value: impl Into<String>) -> Predicate {
        Predicate::Equals(attr.into().to_ascii_lowercase(), value.into())
    }

    /// Attribute presence (attribute name is lowercased).
    pub fn attr_present(attr: impl Into<String>) -> Predicate {
        Predicate::Present(attr.into().to_ascii_lowercase())
    }

    /// Parse the text grammar (see the module docs for the leaf table).
    pub fn parse(input: &str) -> Result<Predicate, ParseError> {
        let mut p = Parser { input, pos: 0 };
        p.skip_ws();
        let f = p.parse_filter()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.err("trailing input after filter"));
        }
        Ok(f)
    }

    /// Compile into an executable [`Plan`]: identifier leaves are
    /// interned, pushdown [`Facts`] are extracted, and stateful leaves get
    /// their per-series memory.
    pub fn compile(&self) -> Plan {
        let root = compile_node(self);
        let mut facts = node_facts(&root);
        facts.limit = predicate_limit(self);
        let state = if node_is_stateful(&root) {
            Some(Mutex::default())
        } else {
            None
        };
        Plan {
            root,
            facts,
            state,
            aggregate: predicate_aggregate(self),
        }
    }
}

/// Escape `\`, `(`, `)` and `*` in a value for the text form.
fn escape_into(out: &mut String, value: &str) {
    for c in value.chars() {
        if matches!(c, '\\' | '(' | ')' | '*') {
            out.push('\\');
        }
        out.push(c);
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn leaf_list(
            f: &mut std::fmt::Formatter<'_>,
            attr: &str,
            vals: &[String],
        ) -> std::fmt::Result {
            let one = |f: &mut std::fmt::Formatter<'_>, v: &String| {
                let mut s = String::new();
                escape_into(&mut s, v);
                write!(f, "({attr}={s})")
            };
            match vals.len() {
                0 => write!(f, "(|)"),
                1 => one(f, &vals[0]),
                _ => {
                    write!(f, "(|")?;
                    for v in vals {
                        one(f, v)?;
                    }
                    write!(f, ")")
                }
            }
        }
        match self {
            Predicate::True => write!(f, "(&)"),
            Predicate::And(cs) => {
                write!(f, "(&")?;
                for c in cs {
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Predicate::Or(cs) => {
                write!(f, "(|")?;
                for c in cs {
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Predicate::Not(c) => write!(f, "(!{c})"),
            Predicate::EventTypes(ts) => leaf_list(f, "type", ts),
            Predicate::Hosts(hs) => leaf_list(f, "host", hs),
            Predicate::MinLevel(r) => write!(f, "(level>={})", level_name(*r)),
            Predicate::TimeRange {
                from_micros,
                to_micros,
            } => match (from_micros, to_micros) {
                (Some(a), Some(b)) => write!(f, "(&(time>={a})(time<{b}))"),
                (Some(a), None) => write!(f, "(time>={a})"),
                (None, Some(b)) => write!(f, "(time<{b})"),
                (None, None) => write!(f, "(&)"),
            },
            Predicate::Value(cmp, t) => write!(f, "(val{}{t})", cmp.op_str()),
            Predicate::OnChange => write!(f, "(onchange)"),
            Predicate::Crosses(t) => write!(f, "(crosses={t})"),
            Predicate::RelativeChange(r) => write!(f, "(relchange={r})"),
            Predicate::Equals(a, v) => {
                let mut s = String::new();
                escape_into(&mut s, v);
                // On attribute names the parser maps to typed exact leaves,
                // plain '=' would change semantics on re-parse; '~=' is the
                // grammar's case-insensitive equality and round-trips.
                if matches!(a.as_str(), "host" | "type" | "eventtype") {
                    write!(f, "({a}~={s})")
                } else {
                    write!(f, "({a}={s})")
                }
            }
            Predicate::Present(a) => write!(f, "({a}=*)"),
            Predicate::Substring(a, parts) => {
                write!(f, "({a}=")?;
                let mut s = String::new();
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        s.push('*');
                    }
                    escape_into(&mut s, part);
                }
                write!(f, "{s})")
            }
            Predicate::Limit(n) => write!(f, "(limit={n})"),
            Predicate::GroupBy(keys) => {
                write!(f, "(groupby=")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", k.as_str())?;
                }
                write!(f, ")")
            }
            Predicate::TopK(k) => write!(f, "(topk={k})"),
        }
    }
}

/// A parse failure: where in the input, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(char::is_whitespace) {
            self.pos += self.input[self.pos..]
                .chars()
                .next()
                .map_or(1, char::len_utf8);
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.input[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.input[self.pos..].chars().next()
    }

    fn parse_filter(&mut self) -> Result<Predicate, ParseError> {
        self.expect('(')?;
        let f = match self.peek() {
            Some('&') => {
                self.pos += 1;
                Predicate::And(self.parse_list()?)
            }
            Some('|') => {
                self.pos += 1;
                Predicate::Or(self.parse_list()?)
            }
            Some('!') => {
                self.pos += 1;
                Predicate::Not(Box::new(self.parse_filter()?))
            }
            Some(_) => self.parse_simple()?,
            None => return Err(self.err("unexpected end of input")),
        };
        self.expect(')')?;
        Ok(f)
    }

    fn parse_list(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut out = Vec::new();
        while self.peek() == Some('(') {
            out.push(self.parse_filter()?);
        }
        Ok(out)
    }

    /// Scan a simple leaf body up to (not including) the closing `)`,
    /// honouring backslash escapes.  Returns the raw body slice.
    fn scan_body(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let mut chars = self.input[start..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    // Skip the escaped character (if the input ends here
                    // the backslash is literal and the ')' check fails).
                    let _ = chars.next();
                }
                ')' => {
                    self.pos = start + i;
                    return Ok(&self.input[start..start + i]);
                }
                _ => {}
            }
        }
        self.pos = self.input.len();
        Err(self.err("unterminated filter (missing ')')"))
    }

    fn parse_simple(&mut self) -> Result<Predicate, ParseError> {
        let body = self.scan_body()?;
        // Find the first unescaped comparator.
        let mut op: Option<(usize, &'static str)> = None;
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'>' | b'<' | b'!' | b'~' => {
                    let two = i + 1 < bytes.len() && bytes[i + 1] == b'=';
                    op = Some((
                        i,
                        match (bytes[i], two) {
                            (b'>', true) => ">=",
                            (b'>', false) => ">",
                            (b'<', true) => "<=",
                            (b'<', false) => "<",
                            (b'!', true) => "!=",
                            (b'~', true) => "~=",
                            // A bare '!' or '~' is not a comparator; treat
                            // as an ordinary character.
                            (_, false) => {
                                i += 1;
                                continue;
                            }
                            _ => unreachable!(),
                        },
                    ));
                    break;
                }
                b'=' => {
                    op = Some((i, "="));
                    break;
                }
                _ => i += 1,
            }
        }
        let Some((op_idx, op)) = op else {
            // Bare-word leaves.
            if body.trim().eq_ignore_ascii_case("onchange") {
                return Ok(Predicate::OnChange);
            }
            return Err(self.err(format!("missing comparator in leaf '{}'", body.trim())));
        };
        let attr = body[..op_idx].trim();
        let value = body[op_idx + op.len()..].trim();
        if attr.is_empty() {
            return Err(self.err("empty attribute name"));
        }
        let attr_lower = attr.to_ascii_lowercase();
        let num = |p: &Self| -> Result<f64, ParseError> {
            value
                .parse::<f64>()
                .map_err(|_| p.err(format!("expected a number, got '{value}'")))
        };
        let eq_only = |p: &Self| -> Result<(), ParseError> {
            if op == "=" {
                Ok(())
            } else {
                Err(p.err(format!("attribute '{attr_lower}' supports '=' only")))
            }
        };
        // Map an equality value to the exact / presence / substring leaf
        // shape shared by typed and generic attributes.
        enum Shape {
            Exact(String),
            Present,
            Parts(Vec<String>),
        }
        let shape = |raw: &str| -> Shape {
            if raw == "*" {
                return Shape::Present;
            }
            let parts = split_unescaped_stars(raw);
            if parts.len() > 1 {
                Shape::Parts(parts.into_iter().map(unescape).collect())
            } else {
                Shape::Exact(unescape(raw))
            }
        };
        Ok(match attr_lower.as_str() {
            // `~=` is LDAP's approximate match: case-insensitive equality
            // on any attribute — and the round-trippable `Display` form of
            // an `Equals` leaf on an otherwise-typed attribute name.
            "type" | "eventtype" => match op {
                "~=" => Predicate::Equals("eventtype".into(), unescape(value)),
                "=" => match shape(value) {
                    Shape::Exact(v) => Predicate::EventTypes(vec![v]),
                    Shape::Present => Predicate::Present("eventtype".into()),
                    Shape::Parts(parts) => Predicate::Substring("eventtype".into(), parts),
                },
                _ => return Err(self.err("event type supports '=' and '~=' only")),
            },
            "host" => match op {
                "~=" => Predicate::Equals("host".into(), unescape(value)),
                "=" => match shape(value) {
                    Shape::Exact(v) => Predicate::Hosts(vec![v]),
                    Shape::Present => Predicate::Present("host".into()),
                    Shape::Parts(parts) => Predicate::Substring("host".into(), parts),
                },
                _ => return Err(self.err("host supports '=' and '~=' only")),
            },
            "level" | "lvl" => match op {
                ">=" => Predicate::MinLevel(
                    level_rank(value)
                        .ok_or_else(|| self.err(format!("unknown level '{value}'")))?,
                ),
                "=" => Predicate::Equals("level".into(), unescape(value)),
                _ => return Err(self.err("level supports '>=' and '=' only")),
            },
            "time" => {
                let micros = parse_time_micros(value)
                    .ok_or_else(|| self.err(format!("expected a timestamp, got '{value}'")))?;
                match op {
                    ">=" => Predicate::TimeRange {
                        from_micros: Some(micros),
                        to_micros: None,
                    },
                    ">" => Predicate::TimeRange {
                        from_micros: Some(micros.saturating_add(1)),
                        to_micros: None,
                    },
                    "<" => Predicate::TimeRange {
                        from_micros: None,
                        to_micros: Some(micros),
                    },
                    "<=" => Predicate::TimeRange {
                        from_micros: None,
                        to_micros: Some(micros.saturating_add(1)),
                    },
                    "=" => Predicate::TimeRange {
                        from_micros: Some(micros),
                        to_micros: Some(micros.saturating_add(1)),
                    },
                    _ => return Err(self.err("time does not support '!='")),
                }
            }
            "val" => {
                if op == "=" && value == "*" {
                    Predicate::Present("val".into())
                } else {
                    let cmp = match op {
                        ">" => ValueCmp::Gt,
                        "<" => ValueCmp::Lt,
                        ">=" => ValueCmp::Ge,
                        "<=" => ValueCmp::Le,
                        "=" => ValueCmp::Eq,
                        "!=" => ValueCmp::Ne,
                        _ => unreachable!("comparator set is closed"),
                    };
                    Predicate::Value(cmp, num(self)?)
                }
            }
            "crosses" => {
                eq_only(self)?;
                Predicate::Crosses(num(self)?)
            }
            "relchange" => {
                eq_only(self)?;
                Predicate::RelativeChange(num(self)?)
            }
            "limit" => {
                eq_only(self)?;
                Predicate::Limit(
                    value
                        .parse::<usize>()
                        .map_err(|_| self.err(format!("expected a count, got '{value}'")))?,
                )
            }
            "groupby" => {
                eq_only(self)?;
                let mut keys = Vec::new();
                for part in value.split(',') {
                    keys.push(match part.trim().to_ascii_lowercase().as_str() {
                        "host" => GroupKey::Host,
                        "type" | "eventtype" => GroupKey::Type,
                        other => {
                            return Err(
                                self.err(format!("unknown group key '{other}' (host, type)"))
                            )
                        }
                    });
                }
                keys.sort_unstable();
                keys.dedup();
                Predicate::GroupBy(keys)
            }
            "topk" => {
                eq_only(self)?;
                Predicate::TopK(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|k| *k > 0)
                        .ok_or_else(|| self.err(format!("expected a count, got '{value}'")))?,
                )
            }
            _ => match op {
                "~=" => Predicate::Equals(attr_lower, unescape(value)),
                "=" => match shape(value) {
                    Shape::Exact(v) => Predicate::Equals(attr_lower, v),
                    Shape::Present => Predicate::Present(attr_lower),
                    Shape::Parts(parts) => Predicate::Substring(attr_lower, parts),
                },
                _ => {
                    return Err(self.err(format!(
                        "attribute '{attr_lower}' supports '=' and '~=' only"
                    )))
                }
            },
        })
    }
}

/// `"123"` → micros, `"123s"` → seconds.  Second values too large to
/// express in microseconds are a parse error, not a silent wrap.
fn parse_time_micros(s: &str) -> Option<u64> {
    if let Some(secs) = s.strip_suffix(['s', 'S']) {
        secs.trim()
            .parse::<u64>()
            .ok()
            .and_then(|v| v.checked_mul(1_000_000))
    } else {
        s.parse::<u64>().ok()
    }
}

/// Split on unescaped `*`, keeping escapes in the pieces.
fn split_unescaped_stars(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'*' => {
                out.push(&s[start..i]);
                start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    out.push(&s[start.min(s.len())..]);
    out
}

/// Remove backslash escapes (a trailing backslash is kept literally).
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some(esc) => out.push(esc),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Case-insensitive glob match where `parts` are the literal segments
/// between `*` wildcards (empty leading/trailing segments anchor nothing).
pub fn substring_match(value: &str, parts: &[String]) -> bool {
    let value = value.to_ascii_lowercase();
    let mut pos = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let p = part.to_ascii_lowercase();
        if i == 0 {
            if !value.starts_with(&p) {
                return false;
            }
            pos = p.len();
        } else if i == parts.len() - 1 {
            return value.len() >= pos && value[pos..].ends_with(&p);
        } else {
            match value[pos..].find(&p) {
                Some(found) => pos += found + p.len(),
                None => return false,
            }
        }
    }
    true
}

/// The evaluation surface a record type exposes to a compiled [`Plan`].
///
/// Events implement the typed accessors; directory entries answer through
/// the attribute methods (their `host()` / `event_type()` stay `None`, so
/// typed leaves fall back to multi-valued attribute matching).
pub trait Record {
    /// The record's host identity, when it has a single canonical one.
    fn host(&self) -> Option<&str> {
        None
    }

    /// The record's event type, when it has a single canonical one.
    fn event_type(&self) -> Option<&str> {
        None
    }

    /// Severity rank (see [`level_rank`]), when the record has one.
    fn level_rank(&self) -> Option<u8> {
        None
    }

    /// Timestamp in microseconds, when the record has one.
    fn time_micros(&self) -> Option<u64> {
        None
    }

    /// The conventional numeric `VAL` reading, when present.
    fn value(&self) -> Option<f64> {
        None
    }

    /// Visit the values of a (lowercased) attribute; true when `f`
    /// accepts any of them.
    fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool;

    /// True when the (lowercased) attribute is present.
    fn attr_present(&self, attr: &str) -> bool;
}

/// The compiled evaluator node tree: type and host leaves are interned.
#[derive(Debug, Clone)]
enum Node {
    True,
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
    Types(Vec<Sym>),
    Hosts(Vec<Sym>),
    MinLevel(u8),
    Time { from: Option<u64>, to: Option<u64> },
    Value(ValueCmp, f64),
    OnChange,
    Crosses(f64),
    RelativeChange(f64),
    Equals(String, String),
    Present(String),
    Substring(String, Vec<String>),
}

fn compile_node(p: &Predicate) -> Node {
    match p {
        Predicate::True | Predicate::Limit(_) | Predicate::GroupBy(_) | Predicate::TopK(_) => {
            Node::True
        }
        Predicate::And(cs) => Node::And(cs.iter().map(compile_node).collect()),
        Predicate::Or(cs) => Node::Or(cs.iter().map(compile_node).collect()),
        Predicate::Not(c) => Node::Not(Box::new(compile_node(c))),
        Predicate::EventTypes(ts) => {
            let mut syms: Vec<Sym> = ts.iter().map(|t| Sym::intern(t)).collect();
            syms.sort_unstable();
            syms.dedup();
            Node::Types(syms)
        }
        Predicate::Hosts(hs) => {
            let mut syms: Vec<Sym> = hs.iter().map(|h| Sym::intern(h)).collect();
            syms.sort_unstable();
            syms.dedup();
            Node::Hosts(syms)
        }
        Predicate::MinLevel(r) => Node::MinLevel(*r),
        Predicate::TimeRange {
            from_micros,
            to_micros,
        } => {
            if from_micros.is_none() && to_micros.is_none() {
                Node::True
            } else {
                Node::Time {
                    from: *from_micros,
                    to: *to_micros,
                }
            }
        }
        Predicate::Value(cmp, t) => Node::Value(*cmp, *t),
        Predicate::OnChange => Node::OnChange,
        Predicate::Crosses(t) => Node::Crosses(*t),
        Predicate::RelativeChange(r) => Node::RelativeChange(*r),
        Predicate::Equals(a, v) => Node::Equals(a.clone(), v.clone()),
        Predicate::Present(a) => Node::Present(a.clone()),
        Predicate::Substring(a, parts) => Node::Substring(a.clone(), parts.clone()),
    }
}

fn node_is_stateful(n: &Node) -> bool {
    match n {
        Node::OnChange | Node::Crosses(_) | Node::RelativeChange(_) => true,
        Node::And(cs) | Node::Or(cs) => cs.iter().any(node_is_stateful),
        Node::Not(c) => node_is_stateful(c),
        _ => false,
    }
}

/// What a predicate guarantees about every record it matches — the
/// pushdown surface.  The routing layer indexes subscriptions by `types`;
/// the storage engine prunes whole segments whose catalogs cannot satisfy
/// the facts; scans stop at `limit` results.
///
/// Facts are **sound, not complete**: a record matching the predicate
/// always satisfies its facts, but facts alone may admit records the full
/// predicate rejects (they are the cheap first tier, not the evaluator).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Facts {
    /// Event types any match must carry (`None` = unconstrained;
    /// `Some(vec![])` = nothing can match).
    pub types: Option<Vec<Sym>>,
    /// Hosts any match must carry.
    pub hosts: Option<Vec<Sym>>,
    /// Minimum severity rank of any match.
    pub level_floor: Option<u8>,
    /// Inclusive lower time bound (micros) of any match.
    pub from_micros: Option<u64>,
    /// Exclusive upper time bound (micros) of any match.
    pub to_micros: Option<u64>,
    /// Result limit requested by the predicate (`None` = unlimited).
    pub limit: Option<usize>,
}

impl Facts {
    /// Cheap first-tier check: could this record satisfy the facts?
    /// (Used by scan sources to pre-filter before the full evaluation.)
    pub fn admits<R: Record + ?Sized>(&self, rec: &R) -> bool {
        if let Some(from) = self.from_micros {
            if rec.time_micros().is_none_or(|t| t < from) {
                return false;
            }
        }
        if let Some(to) = self.to_micros {
            if rec.time_micros().is_none_or(|t| t >= to) {
                return false;
            }
        }
        if let Some(floor) = self.level_floor {
            if rec.level_rank().is_none_or(|l| l < floor) {
                return false;
            }
        }
        if let Some(types) = &self.types {
            let ok = rec
                .event_type()
                .and_then(Sym::lookup)
                .is_some_and(|s| types.contains(&s));
            if !ok {
                return false;
            }
        }
        if let Some(hosts) = &self.hosts {
            let ok = rec
                .host()
                .and_then(Sym::lookup)
                .is_some_and(|s| hosts.contains(&s));
            if !ok {
                return false;
            }
        }
        true
    }
}

fn intersect_syms(a: Vec<Sym>, b: &[Sym]) -> Vec<Sym> {
    a.into_iter().filter(|s| b.contains(s)).collect()
}

fn union_syms(mut a: Vec<Sym>, b: &[Sym]) -> Vec<Sym> {
    for s in b {
        if !a.contains(s) {
            a.push(*s);
        }
    }
    a.sort_unstable();
    a
}

fn and_facts(mut acc: Facts, f: &Facts) -> Facts {
    acc.types = match (acc.types, &f.types) {
        (None, t) => t.clone(),
        (t, None) => t,
        (Some(a), Some(b)) => Some(intersect_syms(a, b)),
    };
    acc.hosts = match (acc.hosts, &f.hosts) {
        (None, h) => h.clone(),
        (h, None) => h,
        (Some(a), Some(b)) => Some(intersect_syms(a, b)),
    };
    acc.level_floor = match (acc.level_floor, f.level_floor) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    acc.from_micros = match (acc.from_micros, f.from_micros) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    acc.to_micros = match (acc.to_micros, f.to_micros) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    acc.limit = match (acc.limit, f.limit) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    acc
}

/// Disjunction keeps only facts every branch guarantees (a match may come
/// from any branch), widening bounds instead of narrowing them.
fn or_facts(acc: Facts, f: &Facts) -> Facts {
    Facts {
        types: match (acc.types, &f.types) {
            (Some(a), Some(b)) => Some(union_syms(a, b)),
            _ => None,
        },
        hosts: match (acc.hosts, &f.hosts) {
            (Some(a), Some(b)) => Some(union_syms(a, b)),
            _ => None,
        },
        level_floor: match (acc.level_floor, f.level_floor) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => None,
        },
        from_micros: match (acc.from_micros, f.from_micros) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => None,
        },
        to_micros: match (acc.to_micros, f.to_micros) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        },
        limit: None,
    }
}

/// The most constrained facts: what an empty disjunction (match nothing)
/// guarantees.  Identity element of the or-fold.
fn bottom_facts() -> Facts {
    Facts {
        types: Some(Vec::new()),
        hosts: Some(Vec::new()),
        level_floor: Some(u8::MAX),
        from_micros: Some(u64::MAX),
        to_micros: Some(0),
        limit: None,
    }
}

fn node_facts(n: &Node) -> Facts {
    match n {
        Node::And(cs) => cs
            .iter()
            .map(node_facts)
            .fold(Facts::default(), |acc, f| and_facts(acc, &f)),
        Node::Or(cs) => cs
            .iter()
            .map(node_facts)
            .fold(bottom_facts(), |acc, f| or_facts(acc, &f)),
        Node::Types(ts) => Facts {
            types: Some(ts.clone()),
            ..Facts::default()
        },
        Node::Hosts(hs) => Facts {
            hosts: Some(hs.clone()),
            ..Facts::default()
        },
        Node::MinLevel(r) => Facts {
            level_floor: Some(*r),
            ..Facts::default()
        },
        Node::Time { from, to } => Facts {
            from_micros: *from,
            to_micros: *to,
            ..Facts::default()
        },
        // Negation, stateful leaves and attribute matching guarantee
        // nothing pushdown-safe.
        _ => Facts::default(),
    }
}

/// Limits are directives, not filters: they survive only through
/// conjunctions on the way to the root.
fn predicate_limit(p: &Predicate) -> Option<usize> {
    match p {
        Predicate::Limit(n) => Some(*n),
        Predicate::And(cs) => cs.iter().filter_map(predicate_limit).min(),
        _ => None,
    }
}

/// What a plan's aggregate directives ask for.  Present on a plan only
/// when the predicate carried `groupby` or `topk` (through conjunctions on
/// the way to the root, like `limit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateSpec {
    /// Grouping keys.  Defaults to `[Host, Type]` when `topk` appears
    /// without an explicit `groupby`.
    pub group_by: Vec<GroupKey>,
    /// Keep only the K highest-scoring groups (see [`Aggregator::rows`]).
    pub top_k: Option<usize>,
}

/// Aggregate directives survive only through conjunctions, like limits.
fn predicate_aggregate(p: &Predicate) -> Option<AggregateSpec> {
    fn walk(p: &Predicate, spec: &mut AggregateSpec, any: &mut bool) {
        match p {
            Predicate::GroupBy(keys) => {
                *any = true;
                for k in keys {
                    if !spec.group_by.contains(k) {
                        spec.group_by.push(*k);
                    }
                }
                spec.group_by.sort_unstable();
            }
            Predicate::TopK(k) => {
                *any = true;
                spec.top_k = Some(spec.top_k.map_or(*k, |prev: usize| prev.min(*k)));
            }
            Predicate::And(cs) => {
                for c in cs {
                    walk(c, spec, any);
                }
            }
            _ => {}
        }
    }
    let mut spec = AggregateSpec {
        group_by: Vec::new(),
        top_k: None,
    };
    let mut any = false;
    walk(p, &mut spec, &mut any);
    if !any {
        return None;
    }
    if spec.group_by.is_empty() {
        spec.group_by = vec![GroupKey::Host, GroupKey::Type];
    }
    Some(spec)
}

/// A stateful plan's previous reading per (host, type) series.
type SeriesMemory = HashMap<(Sym, Sym), f64, BuildSymHasher>;

/// A compiled, executable predicate: the one evaluator every layer runs.
///
/// * [`Plan::eval`] answers "does this record match", allocation-free in
///   steady state (identifier membership is interned-`u32` comparison;
///   stateful per-series memory is `Sym`-keyed).
/// * [`Plan::facts`] exposes the extracted pushdown facts.
///
/// Stateful predicates (on-change, crosses, relative-change) keep their
/// per-series previous readings inside the plan behind a mutex, so `eval`
/// takes `&self` and a plan can sit in a routing table evaluated by
/// concurrent publishers.  Cloning a plan starts **fresh** stateful
/// memory (a clone is "the same question asked anew", e.g. a new scan).
#[derive(Debug)]
pub struct Plan {
    root: Node,
    facts: Facts,
    /// Per-series previous readings, present only for stateful plans.
    state: Option<Mutex<SeriesMemory>>,
    /// Aggregate directives carried by the predicate, if any.
    aggregate: Option<AggregateSpec>,
}

impl Clone for Plan {
    fn clone(&self) -> Plan {
        Plan {
            root: self.root.clone(),
            facts: self.facts.clone(),
            state: self.state.as_ref().map(|_| Mutex::default()),
            aggregate: self.aggregate.clone(),
        }
    }
}

impl Plan {
    /// The pushdown facts extracted at compile time.
    pub fn facts(&self) -> &Facts {
        &self.facts
    }

    /// The event types this plan can ever match, if constrained — what
    /// the gateway's sharded router indexes subscriptions by.
    pub fn routed_types(&self) -> Option<&[Sym]> {
        self.facts.types.as_deref()
    }

    /// The result limit pushed down by the predicate, if any.
    pub fn limit(&self) -> Option<usize> {
        self.facts.limit
    }

    /// Whether the plan carries per-series memory (on-change / crosses /
    /// relative-change leaves).
    pub fn is_stateful(&self) -> bool {
        self.state.is_some()
    }

    /// The aggregate directives carried by the predicate, if any.
    pub fn aggregate(&self) -> Option<&AggregateSpec> {
        self.aggregate.as_ref()
    }

    /// True when [`Plan::eval_batch`] is *exact* for this plan: every node
    /// is decidable from the batch's columns (no stateful or attribute
    /// leaves), so the batch selection equals the per-row [`Plan::eval`]
    /// result and a scan may skip the row-at-a-time re-check entirely.
    pub fn batch_definite(&self) -> bool {
        node_batch_definite(&self.root)
    }

    /// Evaluate the plan against a record, updating per-series memory.
    ///
    /// The previous-reading memory is updated whenever the record carries
    /// a numeric reading — whether or not the record ultimately matches —
    /// so "on change" and "crosses" behave correctly even when another
    /// conjunct rejects a particular record.
    ///
    /// Resolves the record's host and type with one [`Sym::lookup`] each
    /// and evaluates [`Plan::eval_interned`]; a caller that already holds
    /// the interned pair (the gateway interns every published event's
    /// identity once) calls that directly and makes no lookup at all.
    /// `lookup` (never `intern`) keeps never-seen payload identifiers out
    /// of the leaking intern table — a leaf's own strings were interned
    /// at compile time, so "not interned" already means "matches no leaf".
    pub fn eval<R: Record + ?Sized>(&self, rec: &R) -> bool {
        self.eval_interned(
            rec,
            rec.host().and_then(Sym::lookup),
            rec.event_type().and_then(Sym::lookup),
        )
    }

    /// [`Plan::eval`] with the record's identity already resolved: `host_sym`
    /// and `ty_sym` must be what [`Sym::lookup`] returns for the record's
    /// host and event type (`None` for a string never interned or a record
    /// without one).  Given those, the answer and the per-series memory
    /// update are exactly `eval`'s; the type and host leaves compare `u32`s
    /// and no string is hashed.
    pub fn eval_interned<R: Record + ?Sized>(
        &self,
        rec: &R,
        host_sym: Option<Sym>,
        ty_sym: Option<Sym>,
    ) -> bool {
        let value = rec.value();
        let (prev, key) = match &self.state {
            Some(state) => match (rec.host(), rec.event_type()) {
                (Some(h), Some(t)) => {
                    // Stateful series keys must exist even on first
                    // sighting; hosts/types are bounded, so interning
                    // here is safe.
                    let key = (
                        host_sym.unwrap_or_else(|| Sym::intern(h)),
                        ty_sym.unwrap_or_else(|| Sym::intern(t)),
                    );
                    (state.lock().get(&key).copied(), Some(key))
                }
                _ => (None, None),
            },
            None => (None, None),
        };
        let ctx = Ctx {
            value,
            prev,
            host_sym,
            ty_sym,
        };
        let pass = eval_node(&self.root, rec, &ctx);
        if let (Some(state), Some(key), Some(v)) = (&self.state, key, value) {
            state.lock().insert(key, v);
        }
        pass
    }
}

/// Per-evaluation context resolved once up front.
struct Ctx {
    value: Option<f64>,
    prev: Option<f64>,
    host_sym: Option<Sym>,
    ty_sym: Option<Sym>,
}

fn eval_node<R: Record + ?Sized>(n: &Node, rec: &R, ctx: &Ctx) -> bool {
    match n {
        Node::True => true,
        Node::And(cs) => cs.iter().all(|c| eval_node(c, rec, ctx)),
        Node::Or(cs) => cs.iter().any(|c| eval_node(c, rec, ctx)),
        Node::Not(c) => !eval_node(c, rec, ctx),
        Node::Types(ts) => match rec.event_type() {
            Some(_) => ctx.ty_sym.is_some_and(|s| ts.contains(&s)),
            None => rec.attr_any("eventtype", &mut |v| ts.iter().any(|t| t.as_str() == v)),
        },
        Node::Hosts(hs) => match rec.host() {
            Some(_) => ctx.host_sym.is_some_and(|s| hs.contains(&s)),
            None => rec.attr_any("host", &mut |v| hs.iter().any(|h| h.as_str() == v)),
        },
        Node::MinLevel(r) => rec.level_rank().is_some_and(|l| l >= *r),
        Node::Time { from, to } => rec
            .time_micros()
            .is_some_and(|t| from.is_none_or(|f| t >= f) && to.is_none_or(|b| t < b)),
        Node::Value(cmp, t) => ctx.value.is_some_and(|v| cmp.apply(v, *t)),
        Node::OnChange => match (ctx.value, ctx.prev) {
            (Some(v), Some(p)) => v != p,
            (Some(_), None) => true,
            (None, _) => true,
        },
        Node::Crosses(t) => match (ctx.value, ctx.prev) {
            (Some(v), Some(p)) => (p <= *t && v > *t) || (p >= *t && v < *t),
            (Some(v), None) => v > *t,
            (None, _) => false,
        },
        Node::RelativeChange(frac) => match (ctx.value, ctx.prev) {
            (Some(v), Some(p)) if p.abs() > f64::EPSILON => ((v - p) / p).abs() > *frac,
            (Some(_), _) => true,
            (None, _) => false,
        },
        Node::Equals(a, v) => rec.attr_any(a, &mut |x| x.eq_ignore_ascii_case(v)),
        Node::Present(a) => rec.attr_present(a),
        Node::Substring(a, parts) => rec.attr_any(a, &mut |x| substring_match(x, parts)),
    }
}

// ---------------------------------------------------------------------------
// Columnar (vectorized) evaluation
// ---------------------------------------------------------------------------

/// A batch of records laid out column-wise — what the storage engine's
/// columnar segments decode into, and what [`Plan::eval_batch`] evaluates
/// without building a single row.
///
/// Every row slice holds `rows` entries, or none: a column the evaluation
/// does not read ([`Plan::columns`], [`Facts::columns`]) may be left empty,
/// so a scan decodes only what the plan asks for.  Host and event-type columns
/// hold *dictionary indices* into `dict`; a typed leaf resolves its interned
/// strings to matching dictionary indices once per batch and then compares
/// integers per row.  `values` carries the conventional `VAL` reading per
/// row with `val_present` (a bitmap, bit `i` = row `i`) saying whether the
/// row has one — so a stored NaN reading still compares exactly like the
/// row evaluator's `Some(NaN)`.
#[derive(Debug, Clone, Copy)]
pub struct ColumnBatch<'a> {
    /// Rows in the batch.
    pub rows: usize,
    /// Timestamp column, microseconds.
    pub ts_micros: &'a [u64],
    /// Host column as dictionary indices into `dict`.
    pub host_ids: &'a [u32],
    /// Event-type column as dictionary indices into `dict`.
    pub type_ids: &'a [u32],
    /// Severity-rank column (see [`level_rank`]).
    pub levels: &'a [u8],
    /// `VAL` reading column (meaningful only where `val_present` is set).
    pub values: &'a [f64],
    /// Presence bitmap for `values`: bit `i` of word `i / 64`.
    pub val_present: &'a [u64],
    /// The dictionary host/type indices point into.
    pub dict: &'a [String],
}

impl<'a> ColumnBatch<'a> {
    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn check(&self) {
        let n = self.rows;
        let fits = |len: usize| len == 0 || len == n;
        assert!(
            fits(self.ts_micros.len())
                && fits(self.host_ids.len())
                && fits(self.type_ids.len())
                && fits(self.levels.len())
                && fits(self.values.len())
                && (self.val_present.is_empty() || self.val_present.len() >= n.div_ceil(64)),
            "a column batch slice is neither empty nor `rows` long"
        );
    }
}

/// A set of [`ColumnBatch`] columns: what an evaluation reads.  A scan
/// decodes these before [`Plan::eval_batch`] and may hand every other
/// column over empty; an evaluation that read one anyway would index an
/// empty slice and panic rather than see stale data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Columns(u8);

impl Columns {
    /// No column.
    pub const NONE: Columns = Columns(0);
    /// `ts_micros`.
    pub const TS: Columns = Columns(1);
    /// `host_ids`.
    pub const HOSTS: Columns = Columns(1 << 1);
    /// `type_ids`.
    pub const TYPES: Columns = Columns(1 << 2);
    /// `levels`.
    pub const LEVELS: Columns = Columns(1 << 3);
    /// `values` and `val_present`.
    pub const VALUES: Columns = Columns(1 << 4);
    /// Every column.
    pub const ALL: Columns = Columns(0b1_1111);

    /// True when every column of `other` is in the set.
    pub fn contains(self, other: Columns) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Columns {
    type Output = Columns;

    fn bitor(self, other: Columns) -> Columns {
        Columns(self.0 | other.0)
    }
}

impl std::ops::Not for Columns {
    type Output = Columns;

    /// The columns not in the set.
    fn not(self) -> Columns {
        Columns(!self.0 & Columns::ALL.0)
    }
}

/// A reusable row-selection bitmap filled by [`Plan::eval_batch`] /
/// [`Facts::eval_batch`].  Allocates only when it grows past its previous
/// high-water mark, so a scan reusing one selection across batches is
/// allocation-free in steady state.
#[derive(Debug, Default)]
pub struct Selection {
    bits: Vec<u64>,
    len: usize,
}

impl Selection {
    /// An empty selection (no capacity yet).
    pub fn new() -> Selection {
        Selection::default()
    }

    /// Number of rows the selection covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the selection covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is row `i` selected?
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The selection of rows `64 * w ..= 64 * w + 63`, row `64 * w + b` in
    /// bit `b`; 0 past the end.
    pub fn word(&self, w: usize) -> u64 {
        self.bits.get(w).copied().unwrap_or(0)
    }

    /// How many rows are selected.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the selected row indices in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }

    fn resize_for(&mut self, len: usize) {
        self.len = len;
        let words = len.div_ceil(64);
        self.bits.clear();
        self.bits.resize(words, 0);
    }
}

/// Reusable scratch buffers for [`Plan::eval_batch`]: a pool of bitmap
/// words for inner nodes and an id buffer for dictionary resolution.  Keep
/// one per scan (or per thread) and the batch-eval hot loop never
/// allocates after warm-up.
#[derive(Debug, Default)]
pub struct BatchScratch {
    pool: Vec<Vec<u64>>,
    ids: Vec<u32>,
}

impl BatchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn take_buf(&mut self, words: usize) -> Vec<u64> {
        let mut b = self.pool.pop().unwrap_or_default();
        b.clear();
        b.resize(words, 0);
        b
    }

    fn put_buf(&mut self, b: Vec<u64>) {
        self.pool.push(b);
    }
}

/// Set `out` from a per-value predicate over the column `col` of a
/// `len`-row batch, one 64-value chunk per word: a full chunk is a
/// fixed-length loop the compiler unrolls, and the tail bits stay clear.
/// Every word of `out` is written.  An empty `col` under a non-empty batch
/// panics (an undeclared column is never read as stale data).
#[inline(always)]
fn fill_rows<T: Copy>(out: &mut [u64], len: usize, col: &[T], f: impl Fn(T) -> bool) {
    for (wi, word) in out.iter_mut().enumerate() {
        let base = wi * 64;
        let chunk = &col[base..(base + 64).min(len)];
        let mut w = 0u64;
        if let Ok(full) = <&[T; 64]>::try_from(chunk) {
            // One 0/1 byte per value, then eight of them gathered into a
            // byte by one multiply (byte `k` lands in bit `56 + k`).
            let mut hits = [0u8; 64];
            for (h, v) in hits.iter_mut().zip(full) {
                *h = u8::from(f(*v));
            }
            for (k, eight) in hits.as_chunks::<8>().0.iter().enumerate() {
                let gathered = u64::from_le_bytes(*eight).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                w |= gathered << (8 * k);
            }
        } else {
            for (b, v) in chunk.iter().enumerate() {
                w |= u64::from(f(*v)) << b;
            }
        }
        *word = w;
    }
}

fn fill_ones(out: &mut [u64], len: usize) {
    for (wi, word) in out.iter_mut().enumerate() {
        let base = wi * 64;
        let top = (len - base).min(64);
        *word = if top == 64 { !0u64 } else { (1u64 << top) - 1 };
    }
}

/// Resolve which dictionary indices match any of the leaf's interned
/// strings, into `ids` (cleared first).  O(dict × leaf) string compares,
/// paid once per batch per leaf — per-row work is then integer equality.
fn resolve_dict_ids(dict: &[String], syms: &[Sym], ids: &mut Vec<u32>) {
    ids.clear();
    for (i, entry) in dict.iter().enumerate() {
        if syms.iter().any(|s| s.as_str() == entry.as_str()) {
            ids.push(i as u32);
        }
    }
}

/// Select rows whose id column matches any resolved id.
fn fill_id_match(out: &mut [u64], len: usize, col: &[u32], ids: &[u32]) {
    match ids.len() {
        0 => {
            for w in out.iter_mut() {
                *w = 0;
            }
        }
        1 => {
            let id = ids[0];
            fill_rows(out, len, col, |v| v == id);
        }
        _ => fill_rows(out, len, col, |v| ids.contains(&v)),
    }
}

/// Evaluate one node over the batch into `out`, every word written and
/// the tail bits clear.  Leaves are word kernels (`fill_rows`): a `VAL`
/// comparison branches on its operator once per batch and ANDs each
/// selection word with its presence word.  Returns whether the
/// result is *definite* (exact) rather than a conservative superset:
/// stateful and attribute leaves are not decidable from the columns, so
/// they select every row and poison definiteness — the caller re-checks
/// survivors row-at-a-time only in that case.
fn eval_node_batch(
    n: &Node,
    b: &ColumnBatch<'_>,
    out: &mut [u64],
    scratch: &mut BatchScratch,
) -> bool {
    let len = b.len();
    match n {
        Node::True => {
            fill_ones(out, len);
            true
        }
        Node::And(cs) => {
            fill_ones(out, len);
            let mut definite = true;
            let mut tmp = scratch.take_buf(out.len());
            for c in cs {
                definite &= eval_node_batch(c, b, &mut tmp, scratch);
                for (o, t) in out.iter_mut().zip(tmp.iter()) {
                    *o &= *t;
                }
            }
            scratch.put_buf(tmp);
            definite
        }
        Node::Or(cs) => {
            for w in out.iter_mut() {
                *w = 0;
            }
            let mut definite = true;
            let mut tmp = scratch.take_buf(out.len());
            for c in cs {
                definite &= eval_node_batch(c, b, &mut tmp, scratch);
                for (o, t) in out.iter_mut().zip(tmp.iter()) {
                    *o |= *t;
                }
            }
            scratch.put_buf(tmp);
            definite
        }
        Node::Not(c) => {
            let mut tmp = scratch.take_buf(out.len());
            let definite = eval_node_batch(c, b, &mut tmp, scratch);
            if definite {
                for (o, t) in out.iter_mut().zip(tmp.iter()) {
                    *o = !*t;
                }
                // Re-mask the tail the complement just set.
                let words = out.len();
                if let Some(last) = out.last_mut() {
                    let top = len - (words - 1) * 64;
                    if top < 64 {
                        *last &= (1u64 << top) - 1;
                    }
                }
                scratch.put_buf(tmp);
                true
            } else {
                // NOT of a superset guarantees nothing: every row stays
                // possible.
                scratch.put_buf(tmp);
                fill_ones(out, len);
                false
            }
        }
        Node::Types(ts) => {
            let mut ids = std::mem::take(&mut scratch.ids);
            resolve_dict_ids(b.dict, ts, &mut ids);
            fill_id_match(out, len, b.type_ids, &ids);
            scratch.ids = ids;
            true
        }
        Node::Hosts(hs) => {
            let mut ids = std::mem::take(&mut scratch.ids);
            resolve_dict_ids(b.dict, hs, &mut ids);
            fill_id_match(out, len, b.host_ids, &ids);
            scratch.ids = ids;
            true
        }
        Node::MinLevel(r) => {
            let floor = *r;
            fill_rows(out, len, b.levels, |level| level >= floor);
            true
        }
        Node::Time { from, to } => {
            let (from, to) = (from.unwrap_or(0), to.unwrap_or(u64::MAX));
            fill_rows(out, len, b.ts_micros, |t| t >= from && t < to);
            true
        }
        Node::Value(cmp, t) => {
            // One branch on the operator per batch, then a fixed compare
            // per reading.
            let (t, values) = (*t, b.values);
            match cmp {
                ValueCmp::Gt => fill_rows(out, len, values, |v| v > t),
                ValueCmp::Lt => fill_rows(out, len, values, |v| v < t),
                ValueCmp::Ge => fill_rows(out, len, values, |v| v >= t),
                ValueCmp::Le => fill_rows(out, len, values, |v| v <= t),
                ValueCmp::Eq => fill_rows(out, len, values, |v| v == t),
                ValueCmp::Ne => fill_rows(out, len, values, |v| v != t),
            }
            // A row without a reading matches no comparison.
            for (w, present) in out.iter_mut().zip(b.val_present) {
                *w &= *present;
            }
            true
        }
        // Stateful and attribute leaves cannot be decided from the
        // columns: conservatively keep every row.
        Node::OnChange
        | Node::Crosses(_)
        | Node::RelativeChange(_)
        | Node::Equals(..)
        | Node::Present(_)
        | Node::Substring(..) => {
            fill_ones(out, len);
            false
        }
    }
}

/// The columns [`eval_node_batch`] reads for `n`.
fn node_columns(n: &Node) -> Columns {
    match n {
        Node::And(cs) | Node::Or(cs) => cs
            .iter()
            .fold(Columns::NONE, |acc, c| acc | node_columns(c)),
        Node::Not(c) => node_columns(c),
        Node::Types(_) => Columns::TYPES,
        Node::Hosts(_) => Columns::HOSTS,
        Node::MinLevel(_) => Columns::LEVELS,
        Node::Time { .. } => Columns::TS,
        Node::Value(..) => Columns::VALUES,
        // These select every row without looking at one.
        Node::True
        | Node::OnChange
        | Node::Crosses(_)
        | Node::RelativeChange(_)
        | Node::Equals(..)
        | Node::Present(_)
        | Node::Substring(..) => Columns::NONE,
    }
}

fn node_batch_definite(n: &Node) -> bool {
    match n {
        Node::True
        | Node::Types(_)
        | Node::Hosts(_)
        | Node::MinLevel(_)
        | Node::Time { .. }
        | Node::Value(..) => true,
        Node::And(cs) | Node::Or(cs) => cs.iter().all(node_batch_definite),
        Node::Not(c) => node_batch_definite(c),
        Node::OnChange
        | Node::Crosses(_)
        | Node::RelativeChange(_)
        | Node::Equals(..)
        | Node::Present(_)
        | Node::Substring(..) => false,
    }
}

impl Plan {
    /// Evaluate the plan over a column batch into `sel`, vectorized: typed
    /// leaves compare dictionary indices and numeric columns word-at-a-time
    /// with no string work and no row materialization.
    ///
    /// Returns `true` when the selection is **exact** (equals what
    /// [`Plan::eval`] would say per row — guaranteed whenever
    /// [`Plan::batch_definite`] holds), `false` when it is a conservative
    /// **superset** because the plan carries stateful or attribute leaves;
    /// the caller then re-checks the (already pruned) survivors row-wise.
    /// Allocation-free in steady state given a reused `sel` and `scratch`.
    pub fn eval_batch(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &mut Selection,
        scratch: &mut BatchScratch,
    ) -> bool {
        batch.check();
        sel.resize_for(batch.len());
        eval_node_batch(&self.root, batch, &mut sel.bits, scratch)
    }

    /// The columns [`Plan::eval_batch`] reads: time bounds read `ts_micros`,
    /// host and type leaves their id columns, a level floor `levels`, `VAL`
    /// comparisons `values` and `val_present`.  Stateful and attribute
    /// leaves read none.
    pub fn columns(&self) -> Columns {
        node_columns(&self.root)
    }
}

impl Facts {
    /// The columns [`Facts::eval_batch`] reads.
    pub fn columns(&self) -> Columns {
        let mut read = Columns::NONE;
        if self.from_micros.is_some() || self.to_micros.is_some() {
            read = read | Columns::TS;
        }
        if self.level_floor.is_some() {
            read = read | Columns::LEVELS;
        }
        if self.types.is_some() {
            read = read | Columns::TYPES;
        }
        if self.hosts.is_some() {
            read = read | Columns::HOSTS;
        }
        read
    }

    /// Vectorized [`Facts::admits`]: select exactly the rows the pushdown
    /// facts admit.  Used by scans of *stateful* plans, which must feed
    /// every facts-admissible row (in merge order) through the row
    /// evaluator so per-series memory sees the same stream the row-oriented
    /// oracle would.
    pub fn eval_batch(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &mut Selection,
        scratch: &mut BatchScratch,
    ) {
        batch.check();
        let len = batch.len();
        sel.resize_for(len);
        let out = &mut sel.bits;
        fill_ones(out, len);
        let mut tmp = scratch.take_buf(out.len());
        let and_tmp = |out: &mut [u64], tmp: &[u64]| {
            for (o, t) in out.iter_mut().zip(tmp) {
                *o &= *t;
            }
        };
        if self.from_micros.is_some() || self.to_micros.is_some() {
            let from = self.from_micros.unwrap_or(0);
            let to = self.to_micros;
            fill_rows(&mut tmp, len, batch.ts_micros, |t| {
                t >= from && to.is_none_or(|to| t < to)
            });
            and_tmp(out, &tmp);
        }
        if let Some(floor) = self.level_floor {
            fill_rows(&mut tmp, len, batch.levels, |level| level >= floor);
            and_tmp(out, &tmp);
        }
        let mut ids = std::mem::take(&mut scratch.ids);
        if let Some(types) = &self.types {
            resolve_dict_ids(batch.dict, types, &mut ids);
            fill_id_match(&mut tmp, len, batch.type_ids, &ids);
            and_tmp(out, &tmp);
        }
        if let Some(hosts) = &self.hosts {
            resolve_dict_ids(batch.dict, hosts, &mut ids);
            fill_id_match(&mut tmp, len, batch.host_ids, &ids);
            and_tmp(out, &tmp);
        }
        scratch.ids = ids;
        scratch.put_buf(tmp);
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One group's aggregate results, from [`Aggregator::rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// Group host (present when grouping by host).
    pub host: Option<Sym>,
    /// Group event type (present when grouping by type).
    pub event_type: Option<Sym>,
    /// Records in the group.
    pub count: u64,
    /// Sum of the group's numeric readings.
    pub sum: f64,
    /// Smallest reading (`0.0` when the group had none).
    pub min: f64,
    /// Largest reading (`0.0` when the group had none).
    pub max: f64,
    /// Mean reading, when the group had any.
    pub mean: Option<f64>,
}

impl AggRow {
    /// The score top-k ranks groups by: the mean reading, else the plain
    /// count.
    pub fn score(&self) -> f64 {
        self.mean.unwrap_or(self.count as f64)
    }
}

#[derive(Debug, Default, Clone)]
struct AggGroup {
    count: u64,
    nvals: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Cumulative group-by / top-k aggregation over a record stream — the
/// engine behind both ad-hoc aggregate queries (fold a scan) and
/// continuously-maintained views (fold the publish path).
///
/// Group identity is the interned `(host, type)` pair restricted to the
/// spec's keys, so pushing a record hashes `u32`s; readings feed
/// count/sum/min/max.  Nothing here is windowed: arrival order never
/// changes a row, and two aggregators over disjoint streams
/// [merge](Aggregator::merge) into the one their union would have built.
#[derive(Debug, Clone)]
pub struct Aggregator {
    spec: AggregateSpec,
    groups: HashMap<(Option<Sym>, Option<Sym>), AggGroup, BuildSymHasher>,
}

impl Aggregator {
    /// An empty aggregator for a spec.
    pub fn new(spec: AggregateSpec) -> Aggregator {
        Aggregator {
            spec,
            groups: HashMap::default(),
        }
    }

    /// Fold one record in.  Hosts and event types are bounded identifier
    /// sets, so interning the group key here is safe (same discipline as
    /// stateful plan memory).
    pub fn push<R: Record + ?Sized>(&mut self, rec: &R) {
        let host = if self.spec.group_by.contains(&GroupKey::Host) {
            rec.host().map(Sym::intern)
        } else {
            None
        };
        let ty = if self.spec.group_by.contains(&GroupKey::Type) {
            rec.event_type().map(Sym::intern)
        } else {
            None
        };
        self.fold(host, ty, rec.value());
    }

    /// Fold one already-interned observation in (the publish-path fast
    /// lane: the gateway has interned host and type once per event).  A
    /// key the spec does not group by is ignored, as in [`Aggregator::push`].
    pub fn observe(&mut self, host: Option<Sym>, ty: Option<Sym>, value: Option<f64>) {
        let host = host.filter(|_| self.spec.group_by.contains(&GroupKey::Host));
        let ty = ty.filter(|_| self.spec.group_by.contains(&GroupKey::Type));
        self.fold(host, ty, value);
    }

    fn fold(&mut self, host: Option<Sym>, ty: Option<Sym>, value: Option<f64>) {
        let g = self.groups.entry((host, ty)).or_default();
        g.count += 1;
        if let Some(v) = value {
            if g.nvals == 0 {
                g.min = v;
                g.max = v;
            } else {
                g.min = g.min.min(v);
                g.max = g.max.max(v);
            }
            g.nvals += 1;
            g.sum += v;
        }
    }

    /// Fold another aggregator of the same spec in, group by group: the
    /// rows are then those of one aggregator fed both streams (sums up to
    /// float rounding).
    pub fn merge(&mut self, other: &Aggregator) {
        for (key, o) in &other.groups {
            let g = self.groups.entry(*key).or_default();
            if o.nvals > 0 {
                let first = g.nvals == 0;
                g.min = if first { o.min } else { g.min.min(o.min) };
                g.max = if first { o.max } else { g.max.max(o.max) };
            }
            g.count += o.count;
            g.nvals += o.nvals;
            g.sum += o.sum;
        }
    }

    /// The aggregate rows: one per group, sorted by descending
    /// [`AggRow::score`] with NaN scores after every number (ties by group
    /// name) and cut to the spec's top-k.
    pub fn rows(&self) -> Vec<AggRow> {
        let mut rows: Vec<AggRow> = self
            .groups
            .iter()
            .map(|((host, ty), g)| AggRow {
                host: *host,
                event_type: *ty,
                count: g.count,
                sum: g.sum,
                min: if g.nvals > 0 { g.min } else { 0.0 },
                max: if g.nvals > 0 { g.max } else { 0.0 },
                mean: (g.nvals > 0).then(|| g.sum / g.nvals as f64),
            })
            .collect();
        let name = |r: &AggRow| {
            (
                r.host.map(|s| s.as_str()).unwrap_or(""),
                r.event_type.map(|s| s.as_str()).unwrap_or(""),
            )
        };
        // A total order, as `sort_by` requires: one `VAL=NaN` reading makes
        // a group's mean NaN, and NaN compares unordered with everything.
        rows.sort_by(|a, b| {
            let (sa, sb) = (a.score(), b.score());
            match (sa.is_nan(), sb.is_nan()) {
                (false, false) => sb.total_cmp(&sa),
                (a_nan, b_nan) => a_nan.cmp(&b_nan),
            }
            .then_with(|| name(a).cmp(&name(b)))
        });
        if let Some(k) = self.spec.top_k {
            rows.truncate(k);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal event-like record for core-level tests (the real Event
    /// lives in jamm-ulm, which depends on this crate).
    struct Rec {
        host: &'static str,
        ty: &'static str,
        level: u8,
        time: u64,
        value: Option<f64>,
    }

    impl Record for Rec {
        fn host(&self) -> Option<&str> {
            Some(self.host)
        }
        fn event_type(&self) -> Option<&str> {
            Some(self.ty)
        }
        fn level_rank(&self) -> Option<u8> {
            Some(self.level)
        }
        fn time_micros(&self) -> Option<u64> {
            Some(self.time)
        }
        fn value(&self) -> Option<f64> {
            self.value
        }
        fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool {
            match attr {
                "host" => f(self.host),
                "eventtype" | "type" => f(self.ty),
                "level" => f(level_name(self.level)),
                _ => false,
            }
        }
        fn attr_present(&self, attr: &str) -> bool {
            matches!(attr, "host" | "eventtype" | "type" | "level")
        }
    }

    fn rec(host: &'static str, ty: &'static str, value: Option<f64>) -> Rec {
        Rec {
            host,
            ty,
            level: 0,
            time: 1_000_000,
            value,
        }
    }

    #[test]
    fn parse_ldap_subset_and_superset_leaves() {
        let p =
            Predicate::parse("(&(type=CPU_TOTAL)(host=dpss1)(level>=warning)(val>50))").unwrap();
        let plan = p.compile();
        assert!(plan.facts().types.is_some());
        assert!(plan.facts().hosts.is_some());
        assert_eq!(plan.facts().level_floor, Some(4));
        assert!(plan.eval(&Rec {
            host: "dpss1",
            ty: "CPU_TOTAL",
            level: 5,
            time: 0,
            value: Some(60.0),
        }));
        assert!(!plan.eval(&Rec {
            host: "dpss1",
            ty: "CPU_TOTAL",
            level: 5,
            time: 0,
            value: Some(40.0),
        }));
        assert!(!plan.eval(&Rec {
            host: "dpss1",
            ty: "CPU_TOTAL",
            level: 0,
            time: 0,
            value: Some(60.0),
        }));
    }

    #[test]
    fn parse_time_and_limit() {
        let p = Predicate::parse("(&(time>=5s)(time<10s)(limit=7))").unwrap();
        let plan = p.compile();
        assert_eq!(plan.facts().from_micros, Some(5_000_000));
        assert_eq!(plan.facts().to_micros, Some(10_000_000));
        assert_eq!(plan.limit(), Some(7));
        let mut r = rec("h", "X", None);
        r.time = 5_000_000;
        assert!(plan.eval(&r));
        r.time = 10_000_000;
        assert!(!plan.eval(&r));
    }

    #[test]
    fn stateful_leaves_track_per_series() {
        let plan = Predicate::parse("(onchange)").unwrap().compile();
        assert!(plan.is_stateful());
        assert!(plan.eval(&rec("h", "X", Some(5.0))));
        assert!(!plan.eval(&rec("h", "X", Some(5.0))));
        assert!(plan.eval(&rec("h", "X", Some(6.0))));
        // A different series is tracked independently.
        assert!(plan.eval(&rec("h2", "X", Some(6.0))));
        // A clone starts fresh.
        let clone = plan.clone();
        assert!(clone.eval(&rec("h", "X", Some(6.0))));
    }

    #[test]
    fn crosses_and_relative_change() {
        let plan = Predicate::parse("(crosses=50)").unwrap().compile();
        assert!(!plan.eval(&rec("h", "C", Some(30.0))));
        assert!(plan.eval(&rec("h", "C", Some(60.0))));
        assert!(!plan.eval(&rec("h", "C", Some(70.0))));
        assert!(plan.eval(&rec("h", "C", Some(40.0))));

        let plan = Predicate::parse("(relchange=0.2)").unwrap().compile();
        assert!(plan.eval(&rec("h", "R", Some(50.0))));
        assert!(!plan.eval(&rec("h", "R", Some(55.0))));
        assert!(plan.eval(&rec("h", "R", Some(70.0))));
    }

    #[test]
    fn or_facts_union_and_not_facts_drop() {
        let p = Predicate::parse("(|(type=A)(type=B))").unwrap();
        let f = p.compile();
        let types = f.facts().types.clone().unwrap();
        assert_eq!(types.len(), 2);
        // A disjunction with an unconstrained branch constrains nothing.
        let p = Predicate::parse("(|(type=A)(val>5))").unwrap();
        assert!(p.compile().facts().types.is_none());
        // Negation constrains nothing.
        let p = Predicate::parse("(!(type=A))").unwrap();
        assert!(p.compile().facts().types.is_none());
        // Conjunction intersects.
        let p = Predicate::parse("(&(|(type=A)(type=B))(type=B))").unwrap();
        let types = p.compile().facts().types.clone().unwrap();
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].as_str(), "B");
    }

    #[test]
    fn display_round_trips_with_escaping() {
        for text in [
            "(&(type=CPU_TOTAL)(host=dpss1.lbl.gov))",
            "(|(objectclass=sensor)(objectclass=gateway))",
            "(!(status=stopped))",
            "(name=weird \\(value\\) with \\* and \\\\)",
            "(name=prefix*)",
            "(name=*mid*)",
            "(level>=Warning)",
            "(val>50)",
            "(val!=0)",
            "(onchange)",
            "(crosses=50)",
            "(relchange=0.2)",
            "(limit=100)",
            "(groupby=host)",
            "(groupby=host,type)",
            "(topk=5)",
            "(&)",
            "(|)",
        ] {
            let p = Predicate::parse(text).unwrap();
            let shown = p.to_string();
            let again =
                Predicate::parse(&shown).unwrap_or_else(|e| panic!("reparse of {shown:?}: {e}"));
            assert_eq!(again.to_string(), shown, "display fixed point for {text:?}");
            assert_eq!(again, p, "structure round-trips for {text:?}");
        }
    }

    #[test]
    fn approx_equality_is_case_insensitive_and_round_trips_typed_attrs() {
        // `~=` parses to a CI Equals leaf on any attribute, including the
        // ones plain `=` maps to typed exact leaves.
        let p = Predicate::parse("(host~=DPSS1.LBL.GOV)").unwrap();
        assert_eq!(p, Predicate::Equals("host".into(), "DPSS1.LBL.GOV".into()));
        struct Lower;
        impl Record for Lower {
            fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool {
                attr == "host" && f("dpss1.lbl.gov")
            }
            fn attr_present(&self, attr: &str) -> bool {
                attr == "host"
            }
        }
        assert!(p.compile().eval(&Lower));
        // A builder-constructed CI host equality displays as `~=` and so
        // re-parses to the same structure (the plain `=` form would have
        // become the exact-match Hosts leaf).
        let built = Predicate::attr_eq("host", "DPSS1.LBL.GOV");
        let shown = built.to_string();
        assert_eq!(shown, "(host~=DPSS1.LBL.GOV)");
        assert_eq!(Predicate::parse(&shown).unwrap(), built);
        assert_eq!(
            Predicate::parse("(type~=cpu_total)").unwrap(),
            Predicate::Equals("eventtype".into(), "cpu_total".into())
        );
    }

    #[test]
    fn oversized_second_timestamps_are_a_parse_error_not_a_wrap() {
        // u64::MAX seconds cannot be expressed in micros; must error, not
        // overflow (debug panic) or wrap (silent wrong bound in release).
        let err = Predicate::parse("(time>=18446744073709551615s)").expect_err("overflow");
        assert!(err.reason.contains("expected a timestamp"), "{err}");
        // The largest expressible value still parses.
        let max_secs = u64::MAX / 1_000_000;
        let p = Predicate::parse(&format!("(time>={max_secs}s)")).unwrap();
        assert_eq!(
            p,
            Predicate::TimeRange {
                from_micros: Some(max_secs * 1_000_000),
                to_micros: None
            }
        );
    }

    #[test]
    fn escaped_values_match_literally() {
        struct Star;
        impl Record for Star {
            fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool {
                attr == "name" && f("a*b")
            }
            fn attr_present(&self, attr: &str) -> bool {
                attr == "name"
            }
        }
        let exact = Predicate::parse("(name=a\\*b)").unwrap();
        assert_eq!(exact, Predicate::Equals("name".into(), "a*b".into()));
        assert!(exact.compile().eval(&Star));
        let wild = Predicate::parse("(name=a*b)").unwrap();
        assert!(matches!(wild, Predicate::Substring(..)));
        assert!(wild.compile().eval(&Star));
    }

    #[test]
    fn parse_errors_carry_position_and_reason() {
        for (bad, reason) in [
            ("", "expected '('"),
            ("(", "unexpected end of input"),
            ("(a=b", "unterminated"),
            ("()", "missing comparator"),
            ("(a)", "missing comparator"),
            ("(&(a=b)", "expected ')'"),
            ("(a=b))", "trailing input"),
            ("junk", "expected '('"),
            ("(=x)", "empty attribute name"),
            ("(val>abc)", "expected a number"),
            ("(level>=loud)", "unknown level"),
            ("(limit=many)", "expected a count"),
            ("(type>=X)", "supports '='"),
            ("(groupby=rack)", "unknown group key"),
            ("(topk=0)", "expected a count"),
        ] {
            let err = Predicate::parse(bad).expect_err(bad);
            assert!(
                err.reason.contains(reason),
                "{bad:?}: got {:?}, wanted {reason:?}",
                err.reason
            );
            assert!(err.to_string().contains("parse error at byte"));
        }
    }

    #[test]
    fn parser_is_total_on_arbitrary_input() {
        crate::check::forall("query parser total", 256, |g| {
            let s = g.printable_string(60);
            let _ = Predicate::parse(&s);
        });
    }

    #[test]
    fn facts_admit_is_sound_for_matches() {
        crate::check::forall("facts sound", 128, |g| {
            let hosts = ["h1", "h2", "h3"];
            let types = ["A", "B", "C"];
            let preds = [
                "(&)",
                "(host=h1)",
                "(|(type=A)(type=B))",
                "(&(host=h2)(type=C)(level>=error))",
                "(&(time>=1000000)(time<2000000))",
                "(!(host=h1))",
                "(|(host=h1)(val>0.5))",
            ];
            let p = Predicate::parse(g.choice(&preds)).unwrap();
            let plan = p.compile();
            let r = Rec {
                host: g.choice(&hosts),
                ty: g.choice(&types),
                level: g.u64(9) as u8,
                time: g.u64(3_000_000),
                value: if g.bool(0.5) {
                    Some(g.f64_in(0.0, 1.0))
                } else {
                    None
                },
            };
            if plan.eval(&r) {
                assert!(
                    plan.facts().admits(&r),
                    "facts must admit every record the plan matches"
                );
            }
        });
    }

    // -- columnar + aggregate machinery -----------------------------------

    /// Batch + parallel row records built from the same random data, so
    /// batch and row evaluation can be compared directly.
    struct BatchData {
        dict: Vec<String>,
        ts: Vec<u64>,
        hosts: Vec<u32>,
        types: Vec<u32>,
        levels: Vec<u8>,
        values: Vec<f64>,
        present: Vec<u64>,
    }

    impl BatchData {
        fn random(g: &mut crate::check::Gen, rows: usize) -> BatchData {
            let dict: Vec<String> = ["h1", "h2", "h3", "A", "B", "C"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut d = BatchData {
                dict,
                ts: Vec::new(),
                hosts: Vec::new(),
                types: Vec::new(),
                levels: Vec::new(),
                values: Vec::new(),
                present: vec![0; rows.div_ceil(64)],
            };
            for i in 0..rows {
                d.ts.push(g.u64(3_000_000));
                d.hosts.push(g.u64(3) as u32);
                d.types.push(3 + g.u64(3) as u32);
                d.levels.push(g.u64(9) as u8);
                if g.bool(0.7) {
                    d.present[i / 64] |= 1 << (i % 64);
                    // Now and then a reading no ordered comparison
                    // handles alike, or one on a test threshold.
                    d.values.push(if g.bool(0.15) {
                        g.choice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 50.0])
                    } else {
                        g.f64_in(0.0, 100.0)
                    });
                } else {
                    // A row without a reading keeps whatever the column
                    // held: the presence bit alone must reject it.
                    d.values.push(g.choice(&[0.0, 75.0, f64::NAN]));
                }
            }
            d
        }

        fn batch(&self) -> ColumnBatch<'_> {
            self.batch_of(Columns::ALL)
        }

        /// The batch with every column outside `read` left empty.
        fn batch_of(&self, read: Columns) -> ColumnBatch<'_> {
            fn keep<T>(read: Columns, col: Columns, data: &[T]) -> &[T] {
                if read.contains(col) {
                    data
                } else {
                    &[]
                }
            }
            ColumnBatch {
                rows: self.ts.len(),
                ts_micros: keep(read, Columns::TS, &self.ts),
                host_ids: keep(read, Columns::HOSTS, &self.hosts),
                type_ids: keep(read, Columns::TYPES, &self.types),
                levels: keep(read, Columns::LEVELS, &self.levels),
                values: keep(read, Columns::VALUES, &self.values),
                val_present: keep(read, Columns::VALUES, &self.present),
                dict: &self.dict,
            }
        }

        fn row(&self, i: usize) -> Rec {
            Rec {
                host: match self.dict[self.hosts[i] as usize].as_str() {
                    "h1" => "h1",
                    "h2" => "h2",
                    _ => "h3",
                },
                ty: match self.dict[self.types[i] as usize].as_str() {
                    "A" => "A",
                    "B" => "B",
                    _ => "C",
                },
                level: self.levels[i],
                time: self.ts[i],
                value: (self.present[i / 64] & (1 << (i % 64)) != 0).then(|| self.values[i]),
            }
        }
    }

    #[test]
    fn eval_batch_matches_row_eval() {
        let definite = [
            "(&)",
            "(type=A)",
            "(host=h2)",
            "(|(type=A)(type=B))",
            "(&(type=A)(host=h1)(level>=warning)(val>50))",
            "(&(time>=1000000)(time<2000000))",
            "(!(host=h1))",
            "(val!=0)",
            "(!(val>50))",
            "(&(|(host=h1)(host=h2))(!(type=C)))",
            "(val<50)",
            "(val<=50)",
            "(val>=50)",
            "(val=50)",
            "(val=0)",
            "(val!=50)",
            "(!(val<=0))",
            "(|(val<10)(val>=90))",
        ];
        let indefinite = [
            "(name=*x*)",
            "(&(type=A)(name=y))",
            "(|(host=h1)(name=y))",
            "(!(name=y))",
        ];
        crate::check::forall("eval_batch vs eval", 64, |g| {
            // Several words, the last one usually partial.
            let rows = g.usize_in(1, 300);
            let data = BatchData::random(g, rows);
            let batch = data.batch();
            let mut sel = Selection::new();
            let mut scratch = BatchScratch::new();
            for text in definite {
                let plan = Predicate::parse(text).unwrap().compile();
                assert!(plan.batch_definite(), "{text}");
                let exact = plan.eval_batch(&batch, &mut sel, &mut scratch);
                assert!(exact, "{text}");
                for i in 0..rows {
                    assert_eq!(sel.contains(i), plan.eval(&data.row(i)), "{text} row {i}");
                }
            }
            for text in indefinite {
                let plan = Predicate::parse(text).unwrap().compile();
                assert!(!plan.batch_definite(), "{text}");
                let exact = plan.eval_batch(&batch, &mut sel, &mut scratch);
                assert!(!exact, "{text}");
                // Superset: every row the plan matches must be selected.
                for i in 0..rows {
                    if plan.eval(&data.row(i)) {
                        assert!(sel.contains(i), "{text} dropped matching row {i}");
                    }
                }
            }
        });
    }

    #[test]
    fn facts_eval_batch_matches_admits() {
        crate::check::forall("facts batch vs admits", 64, |g| {
            let rows = g.usize_in(1, 100);
            let data = BatchData::random(g, rows);
            let batch = data.batch();
            let preds = [
                "(&)",
                "(&(host=h2)(type=C)(level>=error))",
                "(&(time>=1000000)(time<2000000))",
                "(|(type=A)(type=B))",
                "(&(type=A)(onchange))",
            ];
            let plan = Predicate::parse(g.choice(&preds)).unwrap().compile();
            let mut sel = Selection::new();
            let mut scratch = BatchScratch::new();
            plan.facts().eval_batch(&batch, &mut sel, &mut scratch);
            for i in 0..rows {
                assert_eq!(sel.contains(i), plan.facts().admits(&data.row(i)));
            }
        });
    }

    #[test]
    fn a_batch_of_only_the_declared_columns_evaluates_the_same() {
        let plans = [
            "(&)",
            "(type=A)",
            "(host=h2)",
            "(level>=warning)",
            "(val>50)",
            "(&(time>=1000000)(time<2000000))",
            "(&(|(host=h1)(host=h2))(!(type=C))(level>=error))",
            "(&(type=A)(name=y))",
            "(&(type=B)(onchange))",
            "(limit=3)",
        ];
        crate::check::forall("declared columns suffice", 64, |g| {
            let rows = g.usize_in(1, 150);
            let data = BatchData::random(g, rows);
            let (mut full, mut declared) = (Selection::new(), Selection::new());
            let mut scratch = BatchScratch::new();
            for text in plans {
                let plan = Predicate::parse(text).unwrap().compile();
                plan.eval_batch(&data.batch(), &mut full, &mut scratch);
                plan.eval_batch(&data.batch_of(plan.columns()), &mut declared, &mut scratch);
                assert!(full.ones().eq(declared.ones()), "{text}");
                let facts = plan.facts();
                facts.eval_batch(&data.batch(), &mut full, &mut scratch);
                facts.eval_batch(&data.batch_of(facts.columns()), &mut declared, &mut scratch);
                assert!(full.ones().eq(declared.ones()), "facts of {text}");
            }
        });
        assert_eq!(
            Predicate::parse("(&(type=A)(val>1)(time<9))")
                .unwrap()
                .compile()
                .columns(),
            Columns::TYPES | Columns::VALUES | Columns::TS
        );
        assert_eq!(Predicate::True.compile().columns(), Columns::NONE);
    }

    #[test]
    #[should_panic]
    fn reading_an_undeclared_column_panics() {
        let data = BatchData {
            dict: vec!["h1".into()],
            ts: vec![0; 3],
            hosts: vec![0; 3],
            types: vec![0; 3],
            levels: vec![0; 3],
            values: vec![0.0; 3],
            present: vec![0],
        };
        let plan = Predicate::parse("(host=h1)").unwrap().compile();
        let batch = data.batch_of(Columns::TYPES);
        plan.eval_batch(&batch, &mut Selection::new(), &mut BatchScratch::new());
    }

    #[test]
    fn selection_ones_and_count_agree() {
        let mut sel = Selection::new();
        let mut scratch = BatchScratch::new();
        let data = BatchData {
            dict: vec!["h1".into(), "A".into()],
            ts: vec![0; 70],
            hosts: vec![0; 70],
            types: vec![1; 70],
            levels: (0..70).map(|i| (i % 9) as u8).collect(),
            values: vec![0.0; 70],
            present: vec![0, 0],
        };
        let plan = Predicate::parse("(level>=warning)").unwrap().compile();
        plan.eval_batch(&data.batch(), &mut sel, &mut scratch);
        let ones: Vec<usize> = sel.ones().collect();
        assert_eq!(ones.len(), sel.count());
        assert!(ones.iter().all(|i| data.levels[*i] >= 4));
        assert_eq!(ones.len(), data.levels.iter().filter(|l| **l >= 4).count());
    }

    #[test]
    fn aggregate_spec_survives_conjunctions_only() {
        let plan = Predicate::parse("(&(type=A)(groupby=host)(topk=3))")
            .unwrap()
            .compile();
        let spec = plan.aggregate().expect("spec");
        assert_eq!(spec.group_by, vec![GroupKey::Host]);
        assert_eq!(spec.top_k, Some(3));
        // Group keys default to host+type when only topk appears.
        let plan = Predicate::parse("(topk=2)").unwrap().compile();
        let spec = plan.aggregate().expect("spec");
        assert_eq!(spec.group_by, vec![GroupKey::Host, GroupKey::Type]);
        // Directives inside disjunctions or negations don't apply.
        for text in ["(|(groupby=host)(type=A))", "(!(topk=2))"] {
            let plan = Predicate::parse(text).unwrap().compile();
            assert!(plan.aggregate().is_none(), "{text}");
        }
        assert!(Predicate::parse("(type=A)")
            .unwrap()
            .compile()
            .aggregate()
            .is_none());
    }

    #[test]
    fn aggregator_groups_and_ranks_by_mean() {
        let spec = AggregateSpec {
            group_by: vec![GroupKey::Host],
            top_k: Some(2),
        };
        let mut agg = Aggregator::new(spec);
        // Means: h1 20, h2 6, h3 1.
        for (host, ts, v) in [
            ("h1", 1_200_000u64, 10.0),
            ("h1", 1_500_000, 20.0),
            ("h1", 1_900_000, 30.0),
            ("h2", 100_000, 5.0),
            ("h2", 1_800_000, 7.0),
            ("h3", 200_000, 1.0),
        ] {
            let mut r = rec(
                match host {
                    "h1" => "h1",
                    "h2" => "h2",
                    _ => "h3",
                },
                "X",
                Some(v),
            );
            r.time = ts;
            agg.push(&r);
        }
        let rows = agg.rows();
        // top_k=2 keeps the two highest-mean groups: h1 then h2.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].host.unwrap().as_str(), "h1");
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[0].sum, 60.0);
        assert_eq!(rows[0].min, 10.0);
        assert_eq!(rows[0].max, 30.0);
        assert_eq!(rows[0].mean, Some(20.0));
        assert_eq!(rows[1].host.unwrap().as_str(), "h2");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].mean, Some(6.0));
    }

    #[test]
    fn merged_aggregators_rank_like_one_fold_of_both_streams() {
        let spec = AggregateSpec {
            group_by: vec![GroupKey::Host],
            top_k: Some(2),
        };
        let (mut a, mut b, mut both) = (
            Aggregator::new(spec.clone()),
            Aggregator::new(spec.clone()),
            Aggregator::new(spec),
        );
        // h1 is split across both sides (and has a reading-less record on
        // one); h2 and h3 each live on one side.
        let left = [("h1", Some(6.0)), ("h1", None), ("h2", Some(3.0))];
        let right = [("h1", Some(2.0)), ("h3", Some(5.0)), ("h3", Some(1.0))];
        for (host, v) in left {
            a.push(&rec(host, "X", v));
            both.push(&rec(host, "X", v));
        }
        for (host, v) in right {
            b.push(&rec(host, "X", v));
            both.push(&rec(host, "X", v));
        }
        // Alone, each side's top-2 would name a different pair.
        assert_eq!(a.rows()[0].host.unwrap().as_str(), "h1");
        a.merge(&b);
        assert_eq!(a.rows(), both.rows());
        let rows = a.rows();
        assert_eq!(rows[0].host.unwrap().as_str(), "h1");
        assert_eq!((rows[0].count, rows[0].min, rows[0].max), (3, 2.0, 6.0));
        assert_eq!(rows[0].mean, Some(4.0));
        assert_eq!(rows[1].host.unwrap().as_str(), "h2");
    }

    #[test]
    fn aggregator_without_rate_ranks_by_mean_then_count() {
        let mut agg = Aggregator::new(AggregateSpec {
            group_by: vec![GroupKey::Type],
            top_k: None,
        });
        for (ty, v) in [("A", Some(1.0)), ("A", Some(3.0)), ("B", Some(10.0))] {
            agg.push(&rec("h", if ty == "A" { "A" } else { "B" }, v));
        }
        let rows = agg.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].event_type.unwrap().as_str(), "B");
        assert_eq!(rows[0].mean, Some(10.0));
        assert_eq!(rows[1].event_type.unwrap().as_str(), "A");
        assert_eq!(rows[1].mean, Some(2.0));
        // No readings at all: score falls back to count.
        let mut agg = Aggregator::new(AggregateSpec {
            group_by: vec![GroupKey::Type],
            top_k: Some(1),
        });
        for ty in ["A", "B", "B"] {
            agg.push(&rec("h", if ty == "A" { "A" } else { "B" }, None));
        }
        let rows = agg.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].event_type.unwrap().as_str(), "B");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].mean, None);
    }

    #[test]
    fn nan_means_rank_last_and_never_break_the_sort() {
        // Groups with numeric means plus one whose mean is NaN (a decoded
        // `VAL=NaN` reading).  Ordering them by `partial_cmp` with NaN as
        // "equal" is not a total order, and the standard sort may panic on
        // one; over this many hash orders of 64 groups some order does.
        let hosts: Vec<Sym> = (0..64)
            .map(|i| Sym::intern(&format!("nan-h{i:02}")))
            .collect();
        let ranked: Vec<(usize, Vec<AggRow>)> = (0..400)
            .map(|round| {
                let mut agg = Aggregator::new(AggregateSpec {
                    group_by: vec![GroupKey::Host],
                    top_k: None,
                });
                let poisoned = round % hosts.len();
                for (i, host) in hosts.iter().enumerate() {
                    let v = if i == poisoned {
                        f64::NAN
                    } else {
                        ((i * 37 + round) % 64) as f64
                    };
                    agg.observe(Some(*host), None, Some(v));
                }
                (poisoned, agg.rows())
            })
            .collect();
        for (poisoned, rows) in ranked {
            assert_eq!(rows.len(), hosts.len());
            assert_eq!(rows.last().unwrap().host, Some(hosts[poisoned]));
            assert!(rows[..rows.len() - 1]
                .windows(2)
                .all(|w| w[0].score() >= w[1].score()));
        }
    }

    /// A record whose host and type may be missing, for the keyed-eval
    /// property (the `Rec` above always carries both).
    struct MaybeRec {
        host: Option<String>,
        ty: Option<String>,
        level: u8,
        time: u64,
        value: Option<f64>,
    }

    impl Record for MaybeRec {
        fn host(&self) -> Option<&str> {
            self.host.as_deref()
        }
        fn event_type(&self) -> Option<&str> {
            self.ty.as_deref()
        }
        fn level_rank(&self) -> Option<u8> {
            Some(self.level)
        }
        fn time_micros(&self) -> Option<u64> {
            Some(self.time)
        }
        fn value(&self) -> Option<f64> {
            self.value
        }
        fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool {
            match attr {
                "host" => self.host.as_deref().is_some_and(f),
                "eventtype" | "type" => self.ty.as_deref().is_some_and(f),
                "level" => f(level_name(self.level)),
                _ => false,
            }
        }
        fn attr_present(&self, attr: &str) -> bool {
            match attr {
                "host" => self.host.is_some(),
                "eventtype" | "type" => self.ty.is_some(),
                _ => attr == "level",
            }
        }
    }

    /// A random predicate tree of at most `depth` levels over hosts
    /// `h1`–`h3`, types `A`–`C` and every leaf kind, stateful ones included.
    fn arb_predicate(g: &mut crate::check::Gen, depth: usize) -> Predicate {
        let pick = |g: &mut crate::check::Gen, names: &[&str]| -> Vec<String> {
            let n = g.usize_in(0, names.len());
            (0..n).map(|_| g.choice(names).to_string()).collect()
        };
        let leaves = 13;
        let kind = if depth == 0 {
            g.usize_in(0, leaves - 1)
        } else {
            g.usize_in(0, leaves + 2)
        };
        match kind {
            0 => Predicate::True,
            1 => Predicate::EventTypes(pick(g, &["A", "B", "C"])),
            2 => Predicate::Hosts(pick(g, &["h1", "h2", "h3"])),
            3 => Predicate::MinLevel(g.usize_in(0, 7) as u8),
            4 => Predicate::TimeRange {
                from_micros: g.bool(0.5).then(|| g.u64(2_000)),
                to_micros: g.bool(0.5).then(|| g.u64(2_000)),
            },
            5 => {
                let cmps = [
                    ValueCmp::Gt,
                    ValueCmp::Lt,
                    ValueCmp::Ge,
                    ValueCmp::Le,
                    ValueCmp::Eq,
                    ValueCmp::Ne,
                ];
                Predicate::Value(g.choice(&cmps), g.usize_in(0, 4) as f64)
            }
            6 => Predicate::OnChange,
            7 => Predicate::Crosses(g.usize_in(0, 4) as f64),
            8 => Predicate::RelativeChange(g.f64_in(0.0, 1.0)),
            9 => Predicate::Equals(
                g.choice(&["host", "type"]).into(),
                g.choice(&["h1", "a"]).into(),
            ),
            10 => Predicate::Present(g.choice(&["host", "type", "level", "name"]).into()),
            11 => Predicate::Substring("host".into(), vec![String::new(), "2".into()]),
            12 => Predicate::Limit(g.usize_in(1, 9)),
            13 => Predicate::Not(Box::new(arb_predicate(g, depth - 1))),
            k => {
                let n = g.usize_in(0, 3);
                let cs = (0..n).map(|_| arb_predicate(g, depth - 1)).collect();
                if k == 14 {
                    Predicate::And(cs)
                } else {
                    Predicate::Or(cs)
                }
            }
        }
    }

    #[test]
    fn eval_interned_with_looked_up_syms_equals_eval() {
        crate::check::forall("eval_interned vs eval", 256, |g| {
            // Identities no other test interns: each case's own, so they are
            // still unknown to the table when the case first sees them (a
            // stateful plan interns them for its series memory).
            let case = g.any_u64();
            let never = [
                format!("jamm.core.query.test.never-host-{case}"),
                format!("jamm.core.query.test.never-type-{case}"),
            ];
            let mut hosts: Vec<Option<String>> = ["h1", "h2", "h3"].map(|h| Some(h.into())).into();
            hosts.extend([Some(never[0].clone()), None]);
            let mut types: Vec<Option<String>> = ["A", "B", "C"].map(|t| Some(t.into())).into();
            types.extend([Some(never[1].clone()), None]);
            let predicate = arb_predicate(g, 3);
            // Two copies of one plan, each with its own series memory.
            let (by_text, by_sym) = (predicate.compile(), predicate.compile());
            for i in 0..g.usize_in(1, 40) {
                let rec = MaybeRec {
                    host: g.choice(&hosts),
                    ty: g.choice(&types),
                    level: g.usize_in(0, 7) as u8,
                    time: g.u64(2_000),
                    value: g.bool(0.8).then(|| g.usize_in(0, 4) as f64),
                };
                let host_sym = rec.host.as_deref().and_then(Sym::lookup);
                let ty_sym = rec.ty.as_deref().and_then(Sym::lookup);
                assert_eq!(
                    by_sym.eval_interned(&rec, host_sym, ty_sym),
                    by_text.eval(&rec),
                    "{predicate:?} record {i}: {:?} {:?} {:?}",
                    rec.host,
                    rec.ty,
                    rec.value,
                );
            }
        });
    }

    #[test]
    fn eval_interned_makes_no_lookup() {
        let lookups = crate::intern::lookups_on_this_thread;
        let plan = Predicate::parse("(&(|(type=A)(type=B))(host=h1)(onchange)(val>1))")
            .unwrap()
            .compile();
        let (host, ty) = (Sym::intern("h1"), Sym::intern("A"));
        let before = lookups();
        for v in [1.0, 2.0, 2.0, 3.0] {
            plan.eval_interned(&rec("h1", "A", Some(v)), Some(host), Some(ty));
        }
        // A stateful plan keys its memory on first sighting of an identity
        // it was not given: that is an intern, never a lookup.
        let unknown = rec("jamm.core.query.test.unlooked-host", "A", Some(1.0));
        plan.eval_interned(&unknown, None, Some(ty));
        assert_eq!(lookups() - before, 0, "the keyed form looks nothing up");
        plan.eval(&rec("h1", "A", Some(4.0)));
        assert_eq!(lookups() - before, 2, "eval looks up the host and the type");
    }

    #[test]
    fn attribute_leaves_leave_the_interner_alone() {
        let names = [
            "jamm.core.query.test.never-interned-eq",
            "jamm.core.query.test.never-interned-present",
            "jamm.core.query.test.never-interned-sub",
        ];
        let text = format!("(&({}=x)({}=*)({}=a*b))", names[0], names[1], names[2]);
        let plan = Predicate::parse(&text).unwrap().compile();
        plan.eval(&rec("h1", "A", Some(1.0)));
        for name in names {
            assert_eq!(Sym::lookup(name), None, "{name} was interned");
        }
    }
}
