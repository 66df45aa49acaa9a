//! Compact binary event codec.
//!
//! The paper (§3) notes that ASCII ULM parsing overhead is too high for some
//! high-throughput event streams and plans "a binary format option".  This
//! module is that option: a simple length-prefixed, tagged binary frame that
//! encodes the same event model losslessly and decodes several times faster
//! than the text codec (benchmark `e12_ulm_codec`).
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! u32  frame length (bytes following this word)
//! u8   version (currently 1)
//! u64  timestamp, microseconds since epoch
//! u8   level discriminant
//! str  host        (u16 length + UTF-8 bytes)
//! str  program
//! str  event type
//! u16  field count
//! then per field: str key, u8 value tag, value payload
//! ```

use crate::event::{Event, Level};
use crate::timestamp::Timestamp;
use crate::value::Value;
use crate::vocab;
use crate::{Result, UlmError};

/// Current binary format version.
pub const VERSION: u8 = 1;

const TAG_UINT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// Encode an event into a self-delimiting binary frame.
pub fn encode(event: &Event) -> Vec<u8> {
    let mut frame = Vec::with_capacity(event.approx_size() + 20);
    encode_into(&mut frame, event);
    frame
}

/// Whether a frame can carry `event`: its host, program, event type and
/// every field key and string value are at most `u16::MAX` bytes, it has
/// at most `u16::MAX` fields, and its body fits the 32-bit length word.
/// The frame stores those lengths in 16 and 32 bits, so [`encode_into`]
/// of an event that fails this writes a frame that does not decode.
/// Callers that keep or send frames (the archive's write-ahead log, the
/// network edge) check it first and refuse the event.
pub fn encodable(event: &Event) -> bool {
    const MAX: usize = u16::MAX as usize;
    // Version, timestamp, level and field count.
    let mut body = 1 + 8 + 1 + 2;
    for s in [&*event.host, &*event.program, &*event.event_type] {
        if s.len() > MAX {
            return false;
        }
        body += 2 + s.len();
    }
    if event.fields.len() > MAX {
        return false;
    }
    for (k, v) in &event.fields {
        let value = match v {
            Value::Str(s) if s.len() > MAX => return false,
            Value::Str(s) => 2 + s.len(),
            Value::Bool(_) => 1,
            Value::UInt(_) | Value::Int(_) | Value::Float(_) => 8,
        };
        if k.len() > MAX {
            return false;
        }
        body += 2 + k.len() + 1 + value;
    }
    body <= u32::MAX as usize
}

/// Append an event's self-delimiting binary frame to an existing buffer.
///
/// This is the allocation-free building block `encode` wraps: the frame is
/// encoded directly into the caller's buffer (the length prefix is
/// back-patched once the body size is known), so callers that batch many
/// frames into one buffer — the archive's write-ahead log, the network
/// edge's broadcast batches — pay no per-event allocation.  The event
/// must pass [`encodable`].
pub fn encode_into(frame: &mut Vec<u8>, event: &Event) {
    let len_pos = frame.len();
    frame.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    let body_start = frame.len();
    frame.push(VERSION);
    frame.extend_from_slice(&event.timestamp.as_micros().to_le_bytes());
    frame.push(level_to_u8(event.level));
    put_str(frame, &event.host);
    put_str(frame, &event.program);
    put_str(frame, &event.event_type);
    frame.extend_from_slice(&(event.fields.len() as u16).to_le_bytes());
    for (k, v) in &event.fields {
        put_str(frame, k);
        match v {
            Value::UInt(u) => {
                frame.push(TAG_UINT);
                frame.extend_from_slice(&u.to_le_bytes());
            }
            Value::Int(i) => {
                frame.push(TAG_INT);
                frame.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                frame.push(TAG_FLOAT);
                frame.extend_from_slice(&f.to_le_bytes());
            }
            Value::Bool(b) => {
                frame.push(TAG_BOOL);
                frame.push(*b as u8);
            }
            Value::Str(s) => {
                frame.push(TAG_STR);
                put_str(frame, s);
            }
        }
    }
    let body_len = (frame.len() - body_start) as u32;
    frame[len_pos..body_start].copy_from_slice(&body_len.to_le_bytes());
}

/// Decode one binary frame (including the leading length word).
///
/// Returns the event and the total number of bytes consumed, so callers can
/// decode back-to-back frames out of a single buffer.  The program, field
/// keys and string values are resolved through the [`crate::vocab`], so a
/// frame whose names were seen before allocates only its host, its event
/// type and its field list.
pub fn decode(buf: &[u8]) -> Result<(Event, usize)> {
    let Some((prefix, cursor)) = buf.split_first_chunk::<4>() else {
        return Err(UlmError::BadBinary("truncated length prefix"));
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if cursor.len() < len {
        return Err(UlmError::BadBinary("truncated frame body"));
    }
    let mut body = &cursor[..len];
    let version = get_u8(&mut body)?;
    if version != VERSION {
        return Err(UlmError::BadBinary("unsupported version"));
    }
    let ts = Timestamp::from_micros(get_u64(&mut body)?);
    let level = level_from_u8(get_u8(&mut body)?)?;
    let host = get_str(&mut body)?.to_owned();
    let program = vocab::resolve(get_str(&mut body)?);
    let event_type = get_str(&mut body)?.to_owned();
    let n_fields = get_u16(&mut body)? as usize;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let key = vocab::resolve(get_str(&mut body)?);
        let tag = get_u8(&mut body)?;
        let value = match tag {
            TAG_UINT => Value::UInt(get_u64(&mut body)?),
            TAG_INT => Value::Int(get_u64(&mut body)? as i64),
            TAG_FLOAT => Value::Float(f64::from_bits(get_u64(&mut body)?)),
            TAG_BOOL => Value::Bool(get_u8(&mut body)? != 0),
            TAG_STR => Value::Str(vocab::resolve_value(get_str(&mut body)?)),
            _ => return Err(UlmError::BadBinary("unknown value tag")),
        };
        fields.push((key, value));
    }
    Ok((
        Event {
            timestamp: ts,
            host,
            program,
            level,
            event_type,
            fields,
        },
        4 + len,
    ))
}

/// Decode every frame in a buffer.
pub fn decode_all(mut buf: &[u8]) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (ev, consumed) = decode(buf)?;
        out.push(ev);
        buf = &buf[consumed..];
    }
    Ok(out)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&first, rest) = buf
        .split_first()
        .ok_or(UlmError::BadBinary("truncated u8"))?;
    *buf = rest;
    Ok(first)
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    let Some((head, rest)) = buf.split_first_chunk::<2>() else {
        return Err(UlmError::BadBinary("truncated u16"));
    };
    *buf = rest;
    Ok(u16::from_le_bytes(*head))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    let Some((head, rest)) = buf.split_first_chunk::<8>() else {
        return Err(UlmError::BadBinary("truncated u64"));
    };
    *buf = rest;
    Ok(u64::from_le_bytes(*head))
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let len = get_u16(buf)? as usize;
    if buf.len() < len {
        return Err(UlmError::BadBinary("truncated string"));
    }
    let (bytes, rest) = buf.split_at(len);
    let s = std::str::from_utf8(bytes).map_err(|_| UlmError::BadBinary("invalid utf-8 string"))?;
    *buf = rest;
    Ok(s)
}

/// The stable one-byte discriminant of a level, shared by every binary
/// format in the workspace (this frame codec and the jamm-tsdb segments).
pub fn level_code(level: Level) -> u8 {
    level_to_u8(level)
}

/// Inverse of [`level_code`]; errors on an unknown discriminant.
pub fn level_from_code(v: u8) -> Result<Level> {
    level_from_u8(v)
}

fn level_to_u8(level: Level) -> u8 {
    match level {
        Level::Emergency => 0,
        Level::Alert => 1,
        Level::Critical => 2,
        Level::Error => 3,
        Level::Warning => 4,
        Level::Notice => 5,
        Level::Info => 6,
        Level::Debug => 7,
        Level::Usage => 8,
    }
}

fn level_from_u8(v: u8) -> Result<Level> {
    Ok(match v {
        0 => Level::Emergency,
        1 => Level::Alert,
        2 => Level::Critical,
        3 => Level::Error,
        4 => Level::Warning,
        5 => Level::Notice,
        6 => Level::Info,
        7 => Level::Debug,
        8 => Level::Usage,
        _ => return Err(UlmError::BadBinary("unknown level discriminant")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    fn sample(i: u64) -> Event {
        Event::builder("dpss_master", "dpss1.lbl.gov")
            .level(Level::Usage)
            .event_type("DPSS_SERV_IN")
            .timestamp(Timestamp::from_micros(954_415_400_000_000 + i))
            .field("BLOCK.ID", i)
            .field("SIZE", 65_536u64)
            .field("LOAD", 0.75)
            .field("OK", true)
            .field("CLIENT", "mems.cairn.net")
            .build()
    }

    #[test]
    fn round_trip_single_event() {
        let ev = sample(7);
        let frame = encode(&ev);
        let (back, consumed) = decode(&frame).unwrap();
        assert_eq!(back, ev);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn round_trip_negative_and_signed() {
        let ev = Event::builder("p", "h")
            .event_type("DELTA")
            .timestamp(Timestamp::from_secs(1))
            .field("D", -12345i64)
            .build();
        let (back, _) = decode(&encode(&ev)).unwrap();
        assert_eq!(back.field("D"), Some(&Value::Int(-12345)));
    }

    #[test]
    fn encode_into_matches_encode_and_concatenates() {
        let mut buf = Vec::new();
        encode_into(&mut buf, &sample(1));
        assert_eq!(buf, encode(&sample(1)));
        encode_into(&mut buf, &sample(2));
        let events = decode_all(&buf).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], sample(2));
    }

    #[test]
    fn a_string_of_u16_max_bytes_round_trips_and_one_more_is_refused() {
        let with_value = |len: usize| {
            Event::builder("p", "h")
                .event_type("BIG")
                .timestamp(Timestamp::from_secs(1))
                .field("BLOB", "x".repeat(len))
                .build()
        };
        let fits = with_value(65_535);
        assert!(encodable(&fits));
        let frame = encode(&fits);
        assert_eq!(decode(&frame).unwrap(), (fits, frame.len()));

        let over = with_value(65_536);
        assert!(!encodable(&over));
        // What the check guards against: the length wraps, and the frame
        // decodes to another event or not at all.
        let back = decode(&encode(&over)).ok().map(|(e, _)| e);
        assert_ne!(back.as_ref(), Some(&over));
        for (host, ty, key) in [(65_536, 1, 1), (1, 65_536, 1), (1, 1, 65_536)] {
            let ev = Event::builder("p", "h".repeat(host))
                .event_type("T".repeat(ty))
                .field("K".repeat(key), 1u64)
                .build();
            assert!(!encodable(&ev), "{host} {ty} {key}");
        }
        let mut many = with_value(0);
        many.fields = (0..65_536u64)
            .map(|i| (crate::Name::from(String::from("F")), Value::UInt(i)))
            .collect();
        assert!(!encodable(&many));
        many.fields.pop();
        assert!(encodable(&many));
    }

    #[test]
    fn level_codes_round_trip() {
        for lvl in [Level::Emergency, Level::Warning, Level::Usage] {
            assert_eq!(level_from_code(level_code(lvl)).unwrap(), lvl);
        }
        assert!(level_from_code(200).is_err());
    }

    #[test]
    fn decode_all_concatenated_frames() {
        let mut buf = Vec::new();
        for i in 0..10 {
            buf.extend_from_slice(&encode(&sample(i)));
        }
        let events = decode_all(&buf).unwrap();
        assert_eq!(events.len(), 10);
        assert_eq!(events[9].field("BLOCK.ID"), Some(&Value::UInt(9)));
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let frame = encode(&sample(1));
        for cut in [0, 1, 3, 4, 5, frame.len() / 2, frame.len() - 1] {
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_tag_and_version_error() {
        let mut frame = encode(&sample(1)).to_vec();
        frame[4] = 99; // version byte
        assert_eq!(
            decode(&frame),
            Err(UlmError::BadBinary("unsupported version"))
        );
    }

    #[test]
    fn binary_is_smaller_than_text_for_numeric_events() {
        let ev = sample(123_456);
        let text_len = crate::text::encode(&ev).len();
        let bin_len = encode(&ev).len();
        assert!(
            bin_len < text_len,
            "binary {bin_len} should be smaller than text {text_len}"
        );
    }
}
