//! The ASCII ULM codec.
//!
//! A ULM line is a whitespace-separated list of `FIELD=value` tokens.  The
//! paper's example:
//!
//! ```text
//! DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Usage NL.EVNT=WriteData SEND.SZ=49332
//! ```
//!
//! Values containing whitespace or `"` are quoted with double quotes and
//! backslash-escaped, which is the convention NetLogger's parsers accept.
//! Log files are written through the NetLogger API's sinks and read back
//! with [`decode_all_lossy`].

use std::borrow::Cow;

use crate::event::{Event, Level};
use crate::keys;
use crate::timestamp::Timestamp;
use crate::value::Value;
use crate::vocab::{self, Name};
use crate::{Result, UlmError};

/// Encode a single event as one ULM text line (no trailing newline).
pub fn encode(event: &Event) -> String {
    let mut out = String::with_capacity(event.approx_size());
    encode_into(&mut out, event);
    out
}

/// Append one event's ULM text line to `out` (no trailing newline),
/// mirroring [`crate::binary::encode_into`]: callers on the hot path keep
/// one scratch `String`, `clear()` it between events, and reuse its
/// capacity instead of allocating a fresh line per event.  Timestamps and
/// numeric field values are formatted directly into `out` — no
/// per-event/per-field temporaries.  Output is byte-identical to
/// [`encode`].
pub fn encode_into(out: &mut String, event: &Event) {
    use std::fmt::Write;
    let start = out.len();
    push_key(out, start, keys::DATE);
    // Writing into a `String` cannot fail.
    let _ = event.timestamp.write_ulm_date(out);
    push_pair(out, start, keys::HOST, &event.host);
    push_pair(out, start, keys::PROG, &event.program);
    push_pair(out, start, keys::LVL, event.level.as_str());
    if !event.event_type.is_empty() {
        push_pair(out, start, keys::NL_EVNT, &event.event_type);
    }
    for (k, v) in &event.fields {
        match v {
            // Strings are the only values that can need quoting.
            Value::Str(s) => push_pair(out, start, k, s),
            _ => {
                push_key(out, start, k);
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// Append ` KEY=` (the separator is skipped at the start of the line,
/// which begins at byte offset `start` of the shared buffer).
fn push_key(out: &mut String, start: usize, key: &str) {
    if out.len() > start {
        out.push(' ');
    }
    out.push_str(key);
    out.push('=');
}

fn push_pair(out: &mut String, start: usize, key: &str, value: &str) {
    push_key(out, start, key);
    if needs_quoting(value) {
        out.push('"');
        for c in value.chars() {
            if c == '"' || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(value);
    }
}

fn needs_quoting(value: &str) -> bool {
    value.is_empty() || value.chars().any(|c| c.is_whitespace() || c == '"')
}

/// Decode one ULM text line into an [`Event`].  The program, field keys
/// and string values are resolved through the [`crate::vocab`].
pub fn decode(line: &str) -> Result<Event> {
    let mut date: Option<Timestamp> = None;
    let mut host: Option<String> = None;
    let mut prog: Option<Name> = None;
    let mut level: Option<Level> = None;
    let mut event_type = String::new();
    let mut fields: Vec<(Name, Value)> = Vec::new();

    for (key, raw) in TokenIter::new(line) {
        match key? {
            keys::DATE => date = Some(Timestamp::parse_ulm_date(&raw)?),
            keys::HOST => host = Some(raw.into_owned()),
            keys::PROG => prog = Some(vocab::resolve(&raw)),
            keys::LVL => level = Some(Level::parse(&raw)?),
            keys::NL_EVNT => event_type = raw.into_owned(),
            key => fields.push((vocab::resolve(key), Value::infer(&raw))),
        }
    }

    Ok(Event {
        timestamp: date.ok_or(UlmError::MissingField(keys::DATE))?,
        host: host.ok_or(UlmError::MissingField(keys::HOST))?,
        program: prog.ok_or(UlmError::MissingField(keys::PROG))?,
        level: level.ok_or(UlmError::MissingField(keys::LVL))?,
        event_type,
        fields,
    })
}

/// Iterator over `KEY=value` tokens, handling quoted values.  Keys and
/// unquoted values borrow from the line; a quoted value is unescaped into
/// a `String`.
struct TokenIter<'a> {
    rest: &'a str,
}

impl<'a> TokenIter<'a> {
    fn new(line: &'a str) -> Self {
        TokenIter { rest: line.trim() }
    }
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = (Result<&'a str>, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return None;
        }
        let eq = match self.rest.find('=') {
            Some(i) => i,
            None => {
                let tok = self.rest.to_string();
                self.rest = "";
                return Some((Err(UlmError::MalformedField(tok)), Cow::Borrowed("")));
            }
        };
        let key = &self.rest[..eq];
        if key.is_empty() || key.contains(char::is_whitespace) {
            let tok = self
                .rest
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string();
            // Skip past this token so iteration terminates.
            self.rest = &self.rest[tok.len().min(self.rest.len())..];
            return Some((Err(UlmError::MalformedField(tok)), Cow::Borrowed("")));
        }
        let after = &self.rest[eq + 1..];
        if let Some(stripped) = after.strip_prefix('"') {
            // Quoted value: scan for the closing unescaped quote.
            let mut value = String::new();
            let mut chars = stripped.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => {
                        if let Some((_, esc)) = chars.next() {
                            value.push(esc);
                        }
                    }
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    _ => value.push(c),
                }
            }
            match end {
                Some(i) => {
                    self.rest = &stripped[i + 1..];
                    Some((Ok(key), Cow::Owned(value)))
                }
                None => {
                    self.rest = "";
                    Some((Err(UlmError::UnterminatedQuote), Cow::Borrowed("")))
                }
            }
        } else {
            let end = after.find(char::is_whitespace).unwrap_or(after.len());
            let value = &after[..end];
            self.rest = &after[end..];
            Some((Ok(key), Cow::Borrowed(value)))
        }
    }
}

/// Parse every valid event in a multi-line ULM document, dropping malformed
/// lines.  Convenience used by log-merging tools and tests.
pub fn decode_all_lossy(doc: &str) -> Vec<Event> {
    doc.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| decode(l).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    fn sample() -> Event {
        Event::builder("testProg", "dpss1.lbl.gov")
            .level(Level::Usage)
            .event_type("WriteData")
            .timestamp(Timestamp::parse_ulm_date("20000330112320.957943").unwrap())
            .field("SEND.SZ", 49_332u64)
            .build()
    }

    #[test]
    fn encodes_paper_example_exactly() {
        let line = encode(&sample());
        assert_eq!(
            line,
            "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Usage \
             NL.EVNT=WriteData SEND.SZ=49332"
        );
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_the_buffer() {
        let ev1 = sample();
        let ev2 = Event::builder("p2", "h2")
            .event_type("MSG")
            .timestamp(Timestamp::from_secs(77))
            .field("TEXT", "two words")
            .field("N", -3i64)
            .field("F", 2.5)
            .field("B", true)
            .build();
        let mut buf = String::new();
        encode_into(&mut buf, &ev1);
        assert_eq!(buf, encode(&ev1));
        // Reuse without clearing appends; with clearing, capacity persists.
        encode_into(&mut buf, &ev2);
        assert_eq!(buf, format!("{}{}", encode(&ev1), encode(&ev2)));
        let cap = buf.capacity();
        buf.clear();
        encode_into(&mut buf, &ev2);
        assert_eq!(buf, encode(&ev2));
        assert_eq!(buf.capacity(), cap, "no reallocation on reuse");
        assert_eq!(decode(&buf).unwrap(), ev2);
    }

    #[test]
    fn round_trip_preserves_event() {
        let ev = sample();
        assert_eq!(decode(&encode(&ev)).unwrap(), ev);
    }

    #[test]
    fn quoted_values_round_trip() {
        let ev = Event::builder("prog", "host")
            .event_type("MSG")
            .timestamp(Timestamp::from_secs(10))
            .field("TEXT", "hello world with \"quotes\" and \\backslash")
            .field("EMPTY", "")
            .build();
        let line = encode(&ev);
        let back = decode(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn missing_required_fields_error() {
        assert_eq!(
            decode("HOST=h PROG=p LVL=Usage"),
            Err(UlmError::MissingField("DATE"))
        );
        assert_eq!(
            decode("DATE=20000330112320 PROG=p LVL=Usage"),
            Err(UlmError::MissingField("HOST"))
        );
        assert_eq!(
            decode("DATE=20000330112320 HOST=h LVL=Usage"),
            Err(UlmError::MissingField("PROG"))
        );
        assert_eq!(
            decode("DATE=20000330112320 HOST=h PROG=p"),
            Err(UlmError::MissingField("LVL"))
        );
    }

    #[test]
    fn malformed_tokens_error() {
        assert!(matches!(
            decode("DATE=20000330112320 HOST=h PROG=p LVL=Usage junk"),
            Err(UlmError::MalformedField(_))
        ));
        assert!(matches!(
            decode("DATE=20000330112320 HOST=h PROG=p LVL=Usage X=\"unterminated"),
            Err(UlmError::UnterminatedQuote)
        ));
        assert!(matches!(
            decode("DATE=20000330112320 HOST=h PROG=p LVL=Bogus NL.EVNT=x"),
            Err(UlmError::BadLevel(_))
        ));
    }

    #[test]
    fn decode_all_lossy_drops_bad_lines() {
        let doc = "\
# header
DATE=20000330112320 HOST=h PROG=p LVL=Usage NL.EVNT=A
this is not ulm
DATE=20000330112321 HOST=h PROG=p LVL=Usage NL.EVNT=B
";
        let events = decode_all_lossy(doc);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].event_type, "B");
    }

    #[test]
    fn event_type_is_optional_on_decode() {
        let ev = decode("DATE=20000330112320 HOST=h PROG=p LVL=Info").unwrap();
        assert_eq!(ev.event_type, "");
        assert_eq!(ev.level, Level::Info);
    }
}
