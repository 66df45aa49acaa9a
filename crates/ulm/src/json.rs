//! JSON export / import of events.
//!
//! The paper plans an XML encoding once the Grid Forum performance working
//! group standardises event schemas; JSON plays that structured-interchange
//! role here.  The mapping is intentionally flat so third-party tools can
//! consume it without knowing the ULM field model: required fields become
//! top-level keys, user fields are nested under `"fields"`.

use jamm_core::json::{Json, Map, Number};

use crate::event::{Event, Level};
use crate::timestamp::Timestamp;
use crate::value::Value;
use crate::{vocab, Result, UlmError};

/// Convert an event to its JSON object representation.
pub fn to_json(event: &Event) -> Json {
    let mut fields = Map::new();
    for (k, v) in &event.fields {
        fields.insert(k.to_string(), value_to_json(v));
    }
    let mut obj = Map::new();
    obj.insert("date".into(), Json::from(event.timestamp.to_ulm_date()));
    obj.insert(
        "timestamp_us".into(),
        Json::from(event.timestamp.as_micros()),
    );
    obj.insert("host".into(), Json::from(&event.host));
    obj.insert("prog".into(), Json::from(&*event.program));
    obj.insert("lvl".into(), Json::from(event.level.as_str()));
    obj.insert("event".into(), Json::from(&event.event_type));
    obj.insert("fields".into(), Json::Object(fields));
    Json::Object(obj)
}

/// Serialise an event to a compact JSON string.
pub fn encode(event: &Event) -> String {
    to_json(event).to_string()
}

/// Parse an event from the JSON produced by [`encode`] / [`to_json`].
pub fn decode(text: &str) -> Result<Event> {
    let v =
        Json::parse(text).map_err(|_| UlmError::MalformedField(text.chars().take(40).collect()))?;
    from_json(&v)
}

/// Convert a JSON object back into an event.  The program, field keys and
/// string values are resolved through the [`crate::vocab`].
pub fn from_json(v: &Json) -> Result<Event> {
    let obj = v
        .as_object()
        .ok_or(UlmError::MalformedField("not a JSON object".into()))?;
    let timestamp = if let Some(us) = obj.get("timestamp_us").and_then(Json::as_u64) {
        Timestamp::from_micros(us)
    } else {
        let date = obj
            .get("date")
            .and_then(Json::as_str)
            .ok_or(UlmError::MissingField("DATE"))?;
        Timestamp::parse_ulm_date(date)?
    };
    let host = obj
        .get("host")
        .and_then(Json::as_str)
        .ok_or(UlmError::MissingField("HOST"))?
        .to_string();
    let program = vocab::resolve(
        obj.get("prog")
            .and_then(Json::as_str)
            .ok_or(UlmError::MissingField("PROG"))?,
    );
    let level = Level::parse(
        obj.get("lvl")
            .and_then(Json::as_str)
            .ok_or(UlmError::MissingField("LVL"))?,
    )?;
    let event_type = obj
        .get("event")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let mut fields = Vec::new();
    if let Some(Json::Object(map)) = obj.get("fields") {
        for (k, v) in map {
            fields.push((vocab::resolve(k), json_to_value(v)));
        }
    }
    Ok(Event {
        timestamp,
        host,
        program,
        level,
        event_type,
        fields,
    })
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::UInt(u) => Json::from(*u),
        Value::Int(i) => Json::from(*i),
        Value::Float(f) => Json::from(*f),
        Value::Bool(b) => Json::from(*b),
        Value::Str(s) => Json::from(&**s),
    }
}

fn json_to_value(v: &Json) -> Value {
    match v {
        Json::Number(Number::U(u)) => Value::UInt(*u),
        Json::Number(Number::I(i)) => Value::Int(*i),
        Json::Number(Number::F(f)) => Value::Float(*f),
        Json::Bool(b) => Value::Bool(*b),
        Json::String(s) => Value::Str(vocab::resolve_value(s)),
        other => Value::Str(other.to_string().into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::builder("netstat", "dpss2.lbl.gov")
            .level(Level::Warning)
            .event_type("TCPD_RETRANSMITS")
            .timestamp(Timestamp::parse_ulm_date("20000330112321.500000").unwrap())
            .value(3u64)
            .field("PORT", 14_830u64)
            .field("RATE", 0.5)
            .field("PEER", "mems.cairn.net")
            .build()
    }

    #[test]
    fn json_round_trip() {
        let ev = sample();
        let text = encode(&ev);
        let back = decode(&text).unwrap();
        // JSON objects do not preserve field order; compare content.
        assert_eq!(back.timestamp, ev.timestamp);
        assert_eq!(back.host, ev.host);
        assert_eq!(back.level, ev.level);
        assert_eq!(back.event_type, ev.event_type);
        for (k, v) in &ev.fields {
            assert_eq!(back.field(k), Some(v), "field {k}");
        }
    }

    #[test]
    fn json_contains_expected_keys() {
        let j = to_json(&sample());
        assert_eq!(j["host"], "dpss2.lbl.gov");
        assert_eq!(j["lvl"], "Warning");
        assert_eq!(j["event"], "TCPD_RETRANSMITS");
        assert_eq!(j["fields"]["PORT"], 14_830);
        assert_eq!(j["date"], "20000330112321.500000");
    }

    #[test]
    fn decode_uses_date_when_micros_missing() {
        let text =
            r#"{"date":"20000330112320.000001","host":"h","prog":"p","lvl":"Usage","event":"X"}"#;
        let ev = decode(text).unwrap();
        assert_eq!(ev.timestamp.subsec_micros(), 1);
        assert_eq!(ev.event_type, "X");
        assert!(ev.fields.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("not json at all").is_err());
        assert!(decode("[]").is_err());
        assert!(decode(r#"{"host":"h"}"#).is_err());
    }
}
