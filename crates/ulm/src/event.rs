//! The in-memory ULM / NetLogger event model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::keys;
use crate::timestamp::Timestamp;
use crate::value::Value;
use crate::vocab::Name;

/// A reference-counted, immutable event — the unit the pipeline's hot hops
/// pass around.  Publishing an event allocates (at most) once; fanning it
/// out to N subscribers, summarizing it, caching it for query mode and
/// archiving it all share the same allocation by bumping the refcount.
pub type SharedEvent = Arc<Event>;

/// Deep copies of [`Event`] made since process start (see
/// [`deep_clone_count`]).
static DEEP_CLONES: AtomicU64 = AtomicU64::new(0);
/// Heap bytes copied by those deep clones (owned string payloads; the
/// fixed-size struct body and borrowed names are excluded).
static DEEP_CLONE_BYTES: AtomicU64 = AtomicU64::new(0);

/// How many times an [`Event`] has been deep-cloned (its `Clone` impl run)
/// since the process started.  The zero-copy pipeline's invariant — fan-out
/// bumps refcounts instead of copying — is asserted against this counter by
/// the `e15_zero_copy` bench and the pipeline property tests: publishing a
/// [`SharedEvent`] to N subscribers must not move it.
pub fn deep_clone_count() -> u64 {
    DEEP_CLONES.load(Ordering::Relaxed)
}

/// Heap bytes copied by [`Event`] deep clones since process start (the
/// owned string payloads each clone duplicated; a borrowed [`Name`] is
/// copied as a pointer).  Together with
/// [`deep_clone_count`] this is the bench's bytes-copied-per-event meter.
pub fn deep_clone_bytes() -> u64 {
    DEEP_CLONE_BYTES.load(Ordering::Relaxed)
}

/// Severity / class of a ULM event (the `LVL` field).
///
/// The ULM draft uses syslog-like levels; the paper's examples additionally
/// use `Usage` for routine instrumentation events, which is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Level {
    /// System is unusable.
    Emergency,
    /// Action must be taken immediately.
    Alert,
    /// Critical condition.
    Critical,
    /// Error condition (e.g. a server process crashed).
    Error,
    /// Warning condition (e.g. threshold crossed).
    Warning,
    /// Normal but significant condition.
    Notice,
    /// Informational message.
    Info,
    /// Debug-level message.
    Debug,
    /// Routine instrumentation / usage event (NetLogger's default class).
    #[default]
    Usage,
}

impl Level {
    /// The canonical ULM spelling of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Emergency => "Emergency",
            Level::Alert => "Alert",
            Level::Critical => "Critical",
            Level::Error => "Error",
            Level::Warning => "Warning",
            Level::Notice => "Notice",
            Level::Info => "Info",
            Level::Debug => "Debug",
            Level::Usage => "Usage",
        }
    }

    /// Parse a level, case-insensitively.  Sits on the text-decode hot
    /// path, so it compares in place instead of allocating a lowercased
    /// copy of every `LVL` token.
    pub fn parse(s: &str) -> crate::Result<Level> {
        const SPELLINGS: [(&str, Level); 13] = [
            ("emergency", Level::Emergency),
            ("emerg", Level::Emergency),
            ("alert", Level::Alert),
            ("critical", Level::Critical),
            ("crit", Level::Critical),
            ("error", Level::Error),
            ("err", Level::Error),
            ("warning", Level::Warning),
            ("warn", Level::Warning),
            ("notice", Level::Notice),
            ("info", Level::Info),
            ("debug", Level::Debug),
            ("usage", Level::Usage),
        ];
        SPELLINGS
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|(_, lvl)| *lvl)
            .ok_or_else(|| crate::UlmError::BadLevel(s.to_string()))
    }

    /// True for levels that indicate a problem (`Warning` and above).
    pub fn is_problem(self) -> bool {
        matches!(
            self,
            Level::Emergency | Level::Alert | Level::Critical | Level::Error | Level::Warning
        )
    }

    /// Severity rank: 0 (`Usage`) through 8 (`Emergency`).  This is the
    /// ordering used by "at least this severe" filters, and matches the
    /// query plane's [`jamm_core::query::level_rank`] table.
    pub fn severity(self) -> u8 {
        match self {
            Level::Usage => 0,
            Level::Debug => 1,
            Level::Info => 2,
            Level::Notice => 3,
            Level::Warning => 4,
            Level::Error => 5,
            Level::Critical => 6,
            Level::Alert => 7,
            Level::Emergency => 8,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single monitoring event: the unit of data everything in JAMM exchanges.
///
/// An event always carries the four required ULM fields (timestamp, host,
/// program, level) plus the NetLogger event-type name, and an ordered list of
/// user-defined fields.  Field order is preserved because the ULM text format
/// is ordered and analysis tools (and humans) expect stable output.
///
/// The program, the field keys and string values are [`Name`]s: borrowed
/// from a literal or the [`crate::vocab`] when they can be, so an event a
/// sensor builds or a decoder reads does not allocate them.  `host` and
/// `event_type` stay owned.
#[derive(Debug, PartialEq)]
pub struct Event {
    /// Event timestamp (`DATE`), microsecond precision.
    pub timestamp: Timestamp,
    /// Host that generated the event (`HOST`).
    pub host: String,
    /// Program / sensor that generated the event (`PROG`).
    pub program: Name,
    /// Severity level (`LVL`).
    pub level: Level,
    /// NetLogger event type (`NL.EVNT`), e.g. `VMSTAT_SYS_TIME`.
    pub event_type: String,
    /// Ordered user-defined fields.
    pub fields: Vec<(Name, Value)>,
}

/// Cloning an event copies every owned string it carries (a borrowed
/// [`Name`] is a pointer copy).  The pipeline is built
/// so this never happens per subscriber (fan-out shares one
/// [`SharedEvent`]); the global [`deep_clone_count`] / [`deep_clone_bytes`]
/// meters exist so benches and tests can *prove* that, instead of trusting
/// the type signatures.
impl Clone for Event {
    fn clone(&self) -> Event {
        DEEP_CLONES.fetch_add(1, Ordering::Relaxed);
        DEEP_CLONE_BYTES.fetch_add(self.heap_bytes() as u64, Ordering::Relaxed);
        Event {
            timestamp: self.timestamp,
            host: self.host.clone(),
            program: self.program.clone(),
            level: self.level,
            event_type: self.event_type.clone(),
            fields: self.fields.clone(),
        }
    }
}

impl Event {
    /// Start building an event for `program` running on `host`.
    pub fn builder(program: impl Into<Name>, host: impl Into<String>) -> EventBuilder {
        EventBuilder {
            event: Event {
                timestamp: Timestamp::EPOCH,
                host: host.into(),
                program: program.into(),
                level: Level::Usage,
                event_type: String::new(),
                fields: Vec::new(),
            },
            explicit_timestamp: false,
        }
    }

    /// Look up a user field by name (first match).
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Numeric value of a user field, if present and numeric.
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(Value::as_f64)
    }

    /// The conventional reading carried in the `VAL` field, if any.
    pub fn value(&self) -> Option<f64> {
        self.field_f64(keys::VALUE)
    }

    /// The object-correlation identifier (`NL.OID`), used for lifelines.
    pub fn object_id(&self) -> Option<&str> {
        self.field(keys::OBJECT_ID).and_then(Value::as_str)
    }

    /// Add or replace a user field, preserving position on replace.
    pub fn set_field(&mut self, name: impl Into<Name>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
    }

    /// An upper bound of the event's size in ULM text form, in bytes: the
    /// volume the gateway counts as delivered, and the capacity
    /// [`crate::text::encode`] reserves.  Runs once per routed event, so
    /// it formats nothing: an integer counts its digits, and a float
    /// counts 24 bytes (the longest shortest-round-trip rendering of a
    /// sensor reading), more only for a magnitude so large or small that
    /// it prints with a run of zeros.
    pub fn approx_size(&self) -> usize {
        let mut n = 26
            + 6
            + self.host.len()
            + 6
            + self.program.len()
            + 5
            + self.level.as_str().len()
            + 9
            + self.event_type.len();
        for (k, v) in &self.fields {
            n += 1 + k.len() + 1 + text_len_bound(v);
        }
        n
    }

    /// Heap bytes held by the event's owned strings: what a deep clone
    /// copies.  A borrowed [`Name`] is cloned as a pointer and counts 0.
    fn heap_bytes(&self) -> usize {
        let owned = |n: &Name| match n {
            Name::Owned(s) => s.len(),
            Name::Borrowed(_) => 0,
        };
        let mut n = self.host.len() + owned(&self.program) + self.event_type.len();
        for (k, v) in &self.fields {
            n += owned(k);
            if let Value::Str(s) = v {
                n += owned(s);
            }
        }
        n
    }
}

/// Events answer the unified query plane directly: typed leaves read the
/// ULM header fields, attribute leaves see `host` / `type` (`eventtype`) /
/// `prog` (`program`) / `level` as pseudo-attributes plus every user
/// field by (case-insensitive) key.  String field values match in place;
/// non-string values match by their ULM text rendering.
impl jamm_core::query::Record for Event {
    fn host(&self) -> Option<&str> {
        Some(&self.host)
    }

    fn event_type(&self) -> Option<&str> {
        Some(&self.event_type)
    }

    fn level_rank(&self) -> Option<u8> {
        Some(self.level.severity())
    }

    fn time_micros(&self) -> Option<u64> {
        Some(self.timestamp.as_micros())
    }

    fn value(&self) -> Option<f64> {
        Event::value(self)
    }

    fn attr_any(&self, attr: &str, f: &mut dyn FnMut(&str) -> bool) -> bool {
        match attr {
            "host" => f(&self.host),
            "type" | "eventtype" => f(&self.event_type),
            "prog" | "program" => f(&self.program),
            "level" | "lvl" => f(self.level.as_str()),
            _ => self.fields.iter().any(|(k, v)| {
                k.eq_ignore_ascii_case(attr)
                    && match v {
                        Value::Str(s) => f(s),
                        other => f(&other.to_ulm_string()),
                    }
            }),
        }
    }

    fn attr_present(&self, attr: &str) -> bool {
        matches!(
            attr,
            "host" | "type" | "eventtype" | "prog" | "program" | "level" | "lvl"
        ) || self
            .fields
            .iter()
            .any(|(k, _)| k.eq_ignore_ascii_case(attr))
    }
}

/// Builder for [`Event`].
#[derive(Debug, Clone)]
pub struct EventBuilder {
    event: Event,
    explicit_timestamp: bool,
}

impl EventBuilder {
    /// Set the event type (`NL.EVNT`).
    pub fn event_type(mut self, name: impl Into<String>) -> Self {
        self.event.event_type = name.into();
        self
    }

    /// Set the severity level.
    pub fn level(mut self, level: Level) -> Self {
        self.event.level = level;
        self
    }

    /// Set an explicit timestamp (e.g. simulated time).  Without this the
    /// event is stamped with wall-clock time at `build()`.
    pub fn timestamp(mut self, ts: Timestamp) -> Self {
        self.event.timestamp = ts;
        self.explicit_timestamp = true;
        self
    }

    /// Append a user-defined field.
    pub fn field(mut self, name: impl Into<Name>, value: impl Into<Value>) -> Self {
        self.event.fields.push((name.into(), value.into()));
        self
    }

    /// Append the conventional `VAL` reading field.
    pub fn value(self, value: impl Into<Value>) -> Self {
        self.field(keys::VALUE, value)
    }

    /// Append the conventional `NL.OID` object-correlation field.
    pub fn object_id(self, oid: impl Into<String>) -> Self {
        self.field(keys::OBJECT_ID, Value::Str(Name::Owned(oid.into())))
    }

    /// Finish building.  Stamps the event with the current wall-clock time if
    /// no explicit timestamp was provided.
    pub fn build(mut self) -> Event {
        if !self.explicit_timestamp {
            self.event.timestamp = Timestamp::now();
        }
        self.event
    }
}

/// At least the length of `v`'s ULM rendering ([`Value::write_ulm`]).
fn text_len_bound(v: &Value) -> usize {
    match v {
        Value::UInt(u) => digits(*u),
        Value::Int(i) => usize::from(*i < 0) + digits(i.unsigned_abs()),
        Value::Float(f) => float_len_bound(*f),
        Value::Bool(b) => 5 - usize::from(*b),
        Value::Str(s) => s.len(),
    }
}

fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A float prints its shortest round-trip digits, at most 17, with no
/// exponent: within 19 bytes, sign included, unless its decimal exponent
/// `e` adds zeros — then `2 + e` bytes at or above 1 and `19 + |e|`
/// below.  `e` is bounded from the binary exponent, so nothing is
/// formatted: every magnitude from 2^-15 (about 3e-5) to 2^72 (about
/// 4.7e21) counts 24.
fn float_len_bound(f: f64) -> usize {
    if !f.is_finite() {
        return 4; // "NaN", "inf", "-inf"
    }
    let e2 = match (f.to_bits() >> 52) & 0x7ff {
        0 if f == 0.0 => 0,
        0 => -1074, // subnormal
        biased => biased as i32 - 1023,
    };
    // |e| <= (|e2| + 1) · log10 2 + 1, and 78/256 > log10 2.
    let e10 = (e2.unsigned_abs() as usize + 1) * 78 / 256 + 1;
    let zeros = if e2 >= 0 { 2 + e10 } else { 19 + e10 };
    zeros.max(24)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::builder("testProg", "dpss1.lbl.gov")
            .level(Level::Usage)
            .event_type("WriteData")
            .timestamp(Timestamp::from_micros(954_415_400_957_943))
            .field("SEND.SZ", 49_332u64)
            .build()
    }

    #[test]
    fn builder_sets_all_fields() {
        let ev = sample();
        assert_eq!(ev.host, "dpss1.lbl.gov");
        assert_eq!(ev.program, "testProg");
        assert_eq!(ev.level, Level::Usage);
        assert_eq!(ev.event_type, "WriteData");
        assert_eq!(ev.field("SEND.SZ"), Some(&Value::UInt(49_332)));
        assert_eq!(ev.field_f64("SEND.SZ"), Some(49_332.0));
        assert_eq!(ev.field("MISSING"), None);
    }

    #[test]
    fn builder_defaults_to_wall_clock() {
        let ev = Event::builder("p", "h").event_type("X").build();
        assert!(ev.timestamp > Timestamp::from_secs(1_500_000_000));
    }

    #[test]
    fn set_field_replaces_in_place() {
        let mut ev = sample();
        ev.set_field("SEND.SZ", 1u64);
        ev.set_field("NEW", "x");
        assert_eq!(ev.fields[0], ("SEND.SZ".into(), Value::UInt(1)));
        assert_eq!(ev.field("NEW"), Some(&Value::Str("x".into())));
    }

    #[test]
    fn value_and_object_id_helpers() {
        let ev = Event::builder("p", "h")
            .event_type("CPU_TOTAL")
            .value(42.5)
            .object_id("frame-17")
            .build();
        assert_eq!(ev.value(), Some(42.5));
        assert_eq!(ev.object_id(), Some("frame-17"));
    }

    #[test]
    fn level_parse_round_trip() {
        for lvl in [
            Level::Emergency,
            Level::Alert,
            Level::Critical,
            Level::Error,
            Level::Warning,
            Level::Notice,
            Level::Info,
            Level::Debug,
            Level::Usage,
        ] {
            assert_eq!(Level::parse(lvl.as_str()).unwrap(), lvl);
            assert_eq!(Level::parse(&lvl.as_str().to_uppercase()).unwrap(), lvl);
        }
        assert!(Level::parse("bogus").is_err());
        assert!(Level::Error.is_problem());
        assert!(!Level::Usage.is_problem());
    }

    #[test]
    fn severity_matches_the_query_plane_rank_table() {
        for lvl in [
            Level::Usage,
            Level::Debug,
            Level::Info,
            Level::Notice,
            Level::Warning,
            Level::Error,
            Level::Critical,
            Level::Alert,
            Level::Emergency,
        ] {
            assert_eq!(
                jamm_core::query::level_rank(lvl.as_str()),
                Some(lvl.severity()),
                "{lvl:?}"
            );
            assert_eq!(
                jamm_core::query::level_name(lvl.severity()),
                lvl.as_str(),
                "{lvl:?}"
            );
        }
    }

    #[test]
    fn events_answer_the_record_interface() {
        use jamm_core::query::Record;
        let ev = Event::builder("vmstat", "dpss1.lbl.gov")
            .level(Level::Warning)
            .event_type("CPU_TOTAL")
            .timestamp(Timestamp::from_micros(123))
            .value(42.5)
            .field("PEER", "mems.cairn.net")
            .build();
        assert_eq!(Record::host(&ev), Some("dpss1.lbl.gov"));
        assert_eq!(Record::event_type(&ev), Some("CPU_TOTAL"));
        assert_eq!(ev.level_rank(), Some(4));
        assert_eq!(ev.time_micros(), Some(123));
        assert_eq!(Record::value(&ev), Some(42.5));
        assert!(ev.attr_any("peer", &mut |v| v == "mems.cairn.net"));
        assert!(ev.attr_any("val", &mut |v| v == "42.5"));
        assert!(ev.attr_any("level", &mut |v| v == "Warning"));
        assert!(ev.attr_present("prog"));
        assert!(ev.attr_present("PEER"));
        assert!(!ev.attr_present("missing"));
    }

    #[test]
    fn approx_size_tracks_fields() {
        let small = Event::builder("p", "h").event_type("X").build();
        let mut big = small.clone();
        big.set_field("A_LONG_FIELD_NAME", "a_long_field_value");
        assert!(big.approx_size() > small.approx_size());
    }

    /// What `approx_size` counts is never less than the encoded line, for
    /// every kind of value and the extreme magnitudes of each.
    #[test]
    fn approx_size_bounds_the_text_line() {
        let floats = [
            0.0,
            -0.0,
            50.0,
            1.25,
            -49_332.75,
            0.1 + 0.2,
            1e15,
            -123_456_789.123_456_78,
            1.5e-5,
            9.9e20,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let values = floats.into_iter().map(Value::Float).chain([
            Value::UInt(0),
            Value::UInt(9),
            Value::UInt(10),
            Value::UInt(u64::MAX),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::Bool(false),
            Value::Str("dpss1.lbl.gov".into()),
        ]);
        for v in values {
            let event = Event::builder("vmstat", "h")
                .event_type("CPU_TOTAL")
                .field("VAL", v.clone())
                .build();
            let line = crate::text::encode(&event);
            assert!(event.approx_size() >= line.len(), "{v:?}: {line}");
        }
        for f in [0.0, 50.0, -1.25, 3.1e-5, 4.7e21] {
            assert_eq!(text_len_bound(&Value::Float(f)), 24, "{f}");
        }
        for f in [3e-5, 4.8e21, f64::MAX] {
            assert!(text_len_bound(&Value::Float(f)) > 24, "{f}");
        }
    }

    #[test]
    fn deep_clone_bytes_count_owned_names_only() {
        fn copied(ev: &Event) -> u64 {
            let before = deep_clone_bytes();
            drop(ev.clone());
            deep_clone_bytes() - before
        }
        // Other tests clone concurrently, so each reading is a lower
        // bound; the borrowed event's exact figure is its host and type.
        let borrowed = Event::builder("vmstat", "h1")
            .timestamp(Timestamp::from_secs(1))
            .event_type("CPU")
            .field(keys::SENSOR, "cpu")
            .value(1.0)
            .build();
        assert_eq!(borrowed.heap_bytes(), 2 + 3, "host and type only");
        let owned = Event::builder(String::from("vmstat"), "h1")
            .timestamp(Timestamp::from_secs(1))
            .event_type("CPU")
            .field(String::from("SENSOR"), String::from("cpu"))
            .value(1.0)
            .build();
        assert_eq!(owned.heap_bytes(), 2 + 3 + 6 + 6 + 3);
        assert!(copied(&owned) >= 20);
        assert_eq!(borrowed, owned, "ownership does not change equality");
    }
}
