//! A small JSON value type, parser, serializer and [`json!`] macro.
//!
//! JSON is the structured-interchange format of the bench reports and
//! baselines, the ULM JSON codec and the archive's JSON export.  This
//! module provides the subset of a full JSON library the workspace needs:
//! a [`Json`] value with integer/float distinction, indexing
//! (`value["key"]`, `value[0]`), literal comparisons, compact and pretty
//! serialization, and a strict parser.

use std::fmt;

/// A JSON object: string keys to values, preserving insertion order so
/// encode/decode round-trips keep field order (parsers and humans both
/// care).  Lookup is a linear scan — the objects this system exchanges are
/// small (a bench row, an event's field map).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Self {
        Map::default()
    }

    /// Insert or replace a key, preserving its position on replace.
    pub fn insert(&mut self, key: String, value: Json) -> Option<Json> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Json)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Json);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Json)>,
        fn(&'a (String, Json)) -> (&'a String, &'a Json),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A JSON number, preserving the integer / float distinction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// The value as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(_) => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        })
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Json>),
    /// A key/value object.
    Object(Map),
}

/// Errors produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

static NULL: Json = Json::Null;

impl Json {
    /// Parse a JSON document.  The whole input must be consumed.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// The value as a borrowed string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a representable number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is a representable number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// True if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(Number::U(u)) => out.push_str(&u.to_string()),
            Json::Number(Number::I(i)) => out.push_str(&i.to_string()),
            Json::Number(Number::F(f)) => {
                if f.is_finite() {
                    if f.fract() == 0.0 {
                        if f.abs() < 1e15 {
                            // Keep a decimal point so the value re-parses
                            // as a float.
                            out.push_str(&format!("{f:.1}"));
                        } else {
                            // Exponent form for huge integral floats — a
                            // bare digit string would re-parse as an
                            // integer and break round-trips.
                            out.push_str(&format!("{f:e}"));
                        }
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Compact serialization (`value.to_string()` comes from this impl).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json { Json::Number(Number::U(v as u64)) }
        }
    )*};
}
macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                if v >= 0 { Json::Number(Number::U(v as u64)) }
                else { Json::Number(Number::I(v as i64)) }
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(Number::F(v))
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Number(Number::F(v as f64))
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::String(v)
    }
}
impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::String(v.clone())
    }
}
impl From<&Json> for Json {
    fn from(v: &Json) -> Json {
        v.clone()
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Array(v.iter().cloned().map(Into::into).collect())
    }
}
impl From<Map> for Json {
    fn from(v: Map) -> Json {
        Json::Object(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(inner) => inner.into(),
            None => Json::Null,
        }
    }
}

impl PartialEq<str> for Json {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Json {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}
macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Json {
            fn eq(&self, other: &$t) -> bool {
                #[allow(unused_comparisons)]
                if *other >= 0 {
                    self.as_u64() == Some(*other as u64)
                } else {
                    self.as_i64() == Some(*other as i64)
                }
            }
        }
    )*};
}
eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy runs of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Number(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Json::Number(Number::F(f)))
            .map_err(|_| self.err("bad number"))
    }
}

/// Build a [`Json`] value from a literal-ish expression.
///
/// ```
/// use jamm_core::json::{json, Json};
/// let v = json!({"name": "cpu", "running": true, "count": 3});
/// assert_eq!(v["name"], "cpu");
/// assert_eq!(v["count"], 3);
/// assert_eq!(json!(null), Json::Null);
/// assert_eq!(json!([1, 2])[1], 2);
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Json::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Json::Array(vec![ $( $crate::json::Json::from($elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::Map::new();
        $( map.insert(($key).to_string(), $crate::json::Json::from($val)); )*
        $crate::json::Json::Object(map)
    }};
    ($other:expr) => { $crate::json::Json::from($other) };
}

pub use crate::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_document() {
        let text = r#"{"a":[1,-2,3.5,true,null],"b":{"c":"x\ny \"q\""},"n":18446744073709551615}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], 3.5);
        assert_eq!(v["a"][3], true);
        assert!(v["a"][4].is_null());
        assert_eq!(v["b"]["c"], "x\ny \"q\"");
        assert_eq!(v["n"].as_u64(), Some(u64::MAX));
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        let pretty = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(pretty, v);
    }

    #[test]
    fn macro_builds_objects_arrays_and_scalars() {
        let name = "netstat".to_string();
        let v = json!({"name": name.clone(), "port": 14_830u64, "up": true});
        assert_eq!(v["name"], "netstat");
        assert_eq!(v["port"], 14_830);
        assert_eq!(v["up"], true);
        assert_eq!(json!(["a", "b"]).as_array().unwrap().len(), 2);
        assert_eq!(json!(42), Json::Number(Number::U(42)));
        assert_eq!(json!(null), Json::Null);
        assert_eq!(json!({}), Json::Object(Map::new()));
    }

    #[test]
    fn missing_keys_index_to_null() {
        let v = json!({"x": 1});
        assert!(v["missing"].is_null());
        assert!(v["x"]["deeper"].is_null());
        assert!(json!([1])[5].is_null());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""Aé😀""#).unwrap();
        assert_eq!(v, "Aé😀");
        let round = Json::parse(&Json::from("tab\tnewline\n").to_string()).unwrap();
        assert_eq!(round, "tab\tnewline\n");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01a",
            "\"unterminated",
            "{} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn float_output_keeps_decimal_point() {
        assert_eq!(Json::from(50.0).to_string(), "50.0");
        assert_eq!(Json::parse("50.0").unwrap().as_f64(), Some(50.0));
        assert!(Json::parse("50.0").unwrap().as_u64().is_none());
    }

    #[test]
    fn huge_integral_floats_round_trip_as_floats() {
        for f in [1e16, -1e16, 9.007199254740993e17, 1e300] {
            let v = Json::from(f);
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(back, v, "round-trip of {f}");
            assert!(back.as_u64().is_none(), "{f} must stay a float");
        }
    }
}
