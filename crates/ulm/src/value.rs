//! Typed field values carried by ULM events.
//!
//! ULM itself is untyped text (`field=value`), but sensors and analysis tools
//! care about numbers: thresholds, deltas and summaries all operate on
//! numeric readings.  [`Value`] keeps the original type so the gateway can
//! filter without reparsing, while the text codec falls back to strings for
//! anything non-numeric.

use crate::vocab::{self, Name};

/// A single ULM field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer reading (counters, sizes in bytes, ...).
    UInt(u64),
    /// Signed integer reading (deltas, offsets, ...).
    Int(i64),
    /// Floating point reading (loads, rates, percentages, ...).
    Float(f64),
    /// Boolean flag (up/down, ok/failed).
    Bool(bool),
    /// Free-form text: borrowed from a literal or the [`crate::vocab`]
    /// when it can be, owned otherwise.
    Str(Name),
}

impl Value {
    /// Interpret the value as a float where that makes sense.
    ///
    /// Strings parse if they look numeric; booleans map to 0.0/1.0.  Returns
    /// `None` for non-numeric strings, which lets threshold filters skip
    /// events that do not carry the reading they watch.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(v) => Some(*v as f64),
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.parse().ok(),
        }
    }

    /// Interpret the value as an unsigned integer if it is one (or a
    /// non-negative signed/parsable value).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            Value::Float(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            Value::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Borrow the value as a string slice if it is textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value exactly as it appears in a ULM line (no quoting).
    pub fn to_ulm_string(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_ulm(&mut out);
        out
    }

    /// Write the ULM rendering into `w` without allocating temporaries —
    /// the hot-path form of [`Value::to_ulm_string`] used by the reusable
    /// text encoder.  Output is byte-identical to `to_ulm_string`.
    pub fn write_ulm<W: std::fmt::Write>(&self, w: &mut W) -> std::fmt::Result {
        match self {
            Value::UInt(v) => write!(w, "{v}"),
            Value::Int(v) => write!(w, "{v}"),
            Value::Float(v) => write_float(w, *v),
            Value::Bool(b) => w.write_str(if *b { "true" } else { "false" }),
            Value::Str(s) => w.write_str(s),
        }
    }

    /// Parse a raw ULM token back into the most specific value type.
    ///
    /// The precedence is unsigned integer, signed integer, float, boolean,
    /// then string, so `decode(encode(v))` preserves numeric readings.  A
    /// string is resolved through the [`crate::vocab`].
    pub fn infer(raw: &str) -> Value {
        if let Ok(u) = raw.parse::<u64>() {
            return Value::UInt(u);
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Value::Int(i);
        }
        // Only treat as float when it round-trips unambiguously (avoid
        // swallowing identifiers like "1e" or version strings).
        if raw.contains('.') || raw.contains('e') || raw.contains('E') {
            if let Ok(f) = raw.parse::<f64>() {
                if f.is_finite() {
                    return Value::Float(f);
                }
            }
        }
        match raw {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(vocab::resolve_value(raw)),
        }
    }
}

/// Format a float the way the ULM tools expect: no exponent for the ranges
/// sensors produce, and no trailing leftover precision noise.
fn write_float<W: std::fmt::Write>(w: &mut W, v: f64) -> std::fmt::Result {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        // Keep a ".0" so the value re-parses as a float, not an integer,
        // preserving the producer's declared type.
        write!(w, "{v:.1}")
    } else {
        write!(w, "{v}")
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
/// A literal is borrowed, never copied.  A `&str` that is not `'static`
/// has to become a `String` first, which keeps its allocation visible.
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Name::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Name::Owned(v))
    }
}
impl From<Name> for Value {
    fn from(v: Name) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_ulm(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::UInt(5).as_f64(), Some(5.0));
        assert_eq!(Value::Int(-5).as_f64(), Some(-5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("3.5".into()).as_f64(), Some(3.5));
        assert_eq!(Value::Str("abc".into()).as_f64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::Float(4.0).as_u64(), Some(4));
        assert_eq!(Value::Float(4.5).as_u64(), None);
    }

    #[test]
    fn inference_precedence() {
        assert_eq!(Value::infer("42"), Value::UInt(42));
        assert_eq!(Value::infer("-42"), Value::Int(-42));
        assert_eq!(Value::infer("42.5"), Value::Float(42.5));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("false"), Value::Bool(false));
        assert_eq!(
            Value::infer("dpss1.lbl.gov"),
            Value::Str("dpss1.lbl.gov".into())
        );
        // A bare word containing 'e' must stay a string, not parse as float.
        assert_eq!(Value::infer("WriteData"), Value::Str("WriteData".into()));
    }

    #[test]
    fn float_round_trip_keeps_type() {
        let v = Value::Float(50.0);
        let s = v.to_ulm_string();
        assert_eq!(s, "50.0");
        assert_eq!(Value::infer(&s), Value::Float(50.0));
    }

    #[test]
    fn string_round_trip() {
        for raw in ["42", "-17", "0.25", "hello", "true"] {
            let v = Value::infer(raw);
            assert_eq!(Value::infer(&v.to_ulm_string()), v, "round trip {raw}");
        }
    }

    #[test]
    fn display_matches_ulm_string() {
        let v = Value::Float(1.25);
        assert_eq!(format!("{v}"), v.to_ulm_string());
    }
}
