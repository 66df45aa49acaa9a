//! Property-based tests: every [`Codec`] implementation must round-trip
//! arbitrary representable events (`decode(encode(e)) == e`), including
//! quoted string values and microsecond-precision timestamps, and no
//! decoder may panic on garbage input.

use jamm_core::check::{forall, Gen};
use jamm_ulm::codec::{codec_for, EventCodec, ALL};
use jamm_ulm::{binary, json, text, Event, Level, Name, Timestamp, Value};

const LEVELS: [Level; 9] = [
    Level::Emergency,
    Level::Alert,
    Level::Critical,
    Level::Error,
    Level::Warning,
    Level::Notice,
    Level::Info,
    Level::Debug,
    Level::Usage,
];

const IDENT_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
const KEY_ALPHABET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";

/// Identifier-like strings (hostnames, program names, event names): start
/// with a letter so they never re-infer as numbers.
fn arb_ident(g: &mut Gen) -> String {
    let first = g.string_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", 1);
    let len = g.usize_in(0, 30);
    first + &g.string_from(IDENT_ALPHABET, len)
}

/// Field keys: ULM-safe (no '=', no whitespace, non-empty).
fn arb_key(g: &mut Gen) -> String {
    let first = g.string_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1);
    let len = g.usize_in(0, 20);
    first + &g.string_from(KEY_ALPHABET, len)
}

/// An arbitrary field value, constrained to values that are *exactly*
/// representable in all three formats: every text token re-infers to the
/// same typed value, so full `decode(encode(e)) == e` equality holds.
fn arb_value(g: &mut Gen) -> Value {
    match g.usize_in(0, 4) {
        0 => Value::UInt(g.any_u64()),
        1 => Value::Int(-(g.u64(i64::MAX as u64) as i64).max(1)),
        2 => {
            // Floats that survive the ULM float formatting exactly: modest
            // magnitudes printed via `{}` round-trip through parse.
            let v = g.f64_in(-1.0e12, 1.0e12);
            Value::Float(v)
        }
        3 => Value::Bool(g.bool(0.5)),
        _ => {
            // Strings including whitespace, quotes and backslashes (quoting
            // path), but never accidentally numeric/boolean.
            let len = g.usize_in(0, 40);
            let body = g.string_from("abcXYZ_ /:\\\"-", len);
            Value::Str(format!("s{body}").into())
        }
    }
}

/// An arbitrary event with a microsecond-precision timestamp inside the
/// ULM DATE range (year <= 9999).
fn arb_event(g: &mut Gen) -> Event {
    let mut builder = Event::builder(arb_ident(g), arb_ident(g))
        .level(g.choice(&LEVELS))
        .event_type(arb_ident(g))
        .timestamp(Timestamp::from_micros(g.u64(250_000_000_000_000_000)));
    let mut seen = std::collections::HashSet::new();
    for _ in 0..g.usize_in(0, 8) {
        let key = arb_key(g);
        let value = arb_value(g);
        if seen.insert(key.clone()) {
            builder = builder.field(key, value);
        }
    }
    builder.build()
}

/// A name from a sensor-like literal vocabulary (borrowed) or a fresh
/// owned string, half and half.
fn mixed_name(g: &mut Gen, literals: &[&'static str], owned: impl Fn(&mut Gen) -> String) -> Name {
    if g.bool(0.5) {
        Name::Borrowed(g.choice(literals))
    } else {
        Name::Owned(owned(g))
    }
}

/// An event whose program, keys and string values are borrowed literals
/// and owned strings mixed, as a sensor (literals) and a decoder past the
/// vocabulary's bound (owned) make them.
fn arb_mixed_event(g: &mut Gen) -> Event {
    const PROGRAMS: [&str; 3] = ["vmstat", "netstat", "mplay"];
    const KEYS: [&str; 4] = ["SENSOR", "UNITS", "TARGET", "NL.OID"];
    const WORDS: [&str; 4] = ["cpu", "percent", "two words", "qu\"ote"];
    let program = mixed_name(g, &PROGRAMS, arb_ident);
    let mut builder = Event::builder(program, arb_ident(g))
        .level(g.choice(&LEVELS))
        .event_type(arb_ident(g))
        .timestamp(Timestamp::from_micros(g.u64(250_000_000_000_000_000)));
    let mut seen = std::collections::HashSet::new();
    for _ in 0..g.usize_in(0, 6) {
        let key = mixed_name(g, &KEYS, arb_key);
        let value = if g.bool(0.5) {
            Value::Str(mixed_name(g, &WORDS, |g| {
                let len = g.usize_in(0, 20);
                format!("s{}", g.string_from("abc XYZ_\"", len))
            }))
        } else {
            arb_value(g)
        };
        if seen.insert(key.clone()) {
            builder = builder.field(key, value);
        }
    }
    builder.build()
}

#[test]
fn borrowed_and_owned_names_round_trip_through_every_format() {
    forall("mixed names round-trip", 256, |g| {
        let ev = arb_mixed_event(g);
        let (bin, _) = binary::decode(&binary::encode(&ev)).expect("binary decodes");
        assert_eq!(bin, ev, "binary");
        assert_eq!(text::decode(&text::encode(&ev)).expect("text decodes"), ev);
        assert_eq!(json::decode(&json::encode(&ev)).expect("json decodes"), ev);
    });
}

fn codecs() -> Vec<EventCodec> {
    ALL.iter()
        .map(|ct| codec_for(ct).expect("known codec"))
        .collect()
}

#[test]
fn every_codec_round_trips_arbitrary_events() {
    forall("codec frame round-trip", 256, |g| {
        let ev = arb_event(g);
        for codec in codecs() {
            let back = codec
                .decode(&codec.encode(&ev))
                .unwrap_or_else(|e| panic!("{} decode failed: {e}", codec.content_type()));
            assert_eq!(back, ev, "codec {}", codec.content_type());
        }
    });
}

#[test]
fn every_codec_round_trips_batches() {
    forall("codec batch round-trip", 64, |g| {
        let events: Vec<Event> = (0..g.usize_in(0, 12)).map(|_| arb_event(g)).collect();
        for codec in codecs() {
            let back = codec
                .decode_batch(&codec.encode_batch(&events))
                .unwrap_or_else(|e| panic!("{} batch decode failed: {e}", codec.content_type()));
            assert_eq!(back, events, "codec {}", codec.content_type());
        }
    });
}

#[test]
fn quoted_values_and_microsecond_timestamps_survive_text() {
    forall("quoting and timestamps", 256, |g| {
        let ev = Event::builder("prog", "host")
            .event_type("MSG")
            .timestamp(Timestamp::from_micros(g.u64(250_000_000_000_000_000)))
            .field("TEXT", Value::Str(g.printable_string(60).into()))
            .field("EMPTY", Value::Str("".into()))
            .build();
        let back = text::decode(&text::encode(&ev)).expect("decodes");
        assert_eq!(back.timestamp, ev.timestamp, "microseconds preserved");
        assert_eq!(
            back.field("TEXT")
                .and_then(Value::as_str)
                .map(str::to_owned),
            ev.field("TEXT").and_then(Value::as_str).map(str::to_owned)
        );
        assert_eq!(back.field("EMPTY"), Some(&Value::Str("".into())));
    });
}

#[test]
fn timestamp_date_round_trip() {
    forall("DATE round-trip", 512, |g| {
        let ts = Timestamp::from_micros(g.u64(250_000_000_000_000_000));
        let parsed = Timestamp::parse_ulm_date(&ts.to_ulm_date()).expect("own output parses");
        assert_eq!(parsed, ts);
    });
}

#[test]
fn decoders_never_panic_on_arbitrary_input() {
    forall("decoder robustness", 512, |g| {
        let junk_text = g.printable_string(200);
        let _ = text::decode(&junk_text);
        let junk_bytes = g.bytes(256);
        let _ = binary::decode(&junk_bytes);
        for codec in codecs() {
            let _ = codec.decode(&junk_bytes);
            let _ = codec.decode_batch(&junk_bytes);
        }
    });
}
