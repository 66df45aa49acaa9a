//! The event bridge: monitoring events over the RMI substrate, with codec
//! negotiation.
//!
//! A [`BridgeService`] exposes any [`EventSink`] as an RMI service: remote
//! producers call `content_types` once to learn which ULM codecs the sink
//! side can decode, pick one with [`jamm_ulm::codec::negotiate`], and then
//! stream `publish` calls whose payload is a codec-encoded event batch.
//! [`RemoteEventSink`] is the matching producer-side adapter: it performs
//! the negotiation on first use and then implements [`EventSink`] itself,
//! so a sensor manager can publish to a remote gateway exactly as it
//! publishes to a local one.

use std::sync::Arc;

use jamm_core::flow::{EventSink, SinkError};
use jamm_core::json::{json, Json};
use jamm_core::sync::Mutex;
use jamm_ulm::codec::{codec_for, negotiate, EventCodec, ALL};
use jamm_ulm::Event;

use crate::bus::{MessageBus, Service};
use crate::message::{MethodCall, RmiError, RmiResult};

/// Method name a bridge service answers with its supported content types.
pub const METHOD_CONTENT_TYPES: &str = "content_types";
/// Method name carrying an encoded event batch.
pub const METHOD_PUBLISH: &str = "publish";

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    // Operate on bytes, not string slices: remote input may contain
    // multi-byte characters and slicing would panic mid-character.
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// Server side: an RMI service decoding event batches into a sink.
pub struct BridgeService {
    sink: Arc<dyn EventSink<Event>>,
}

impl BridgeService {
    /// Bridge calls into `sink`.
    pub fn new(sink: Arc<dyn EventSink<Event>>) -> Self {
        BridgeService { sink }
    }

    /// Register a bridge for `sink` on `bus` under `service_name`.
    pub fn register(
        bus: &MessageBus,
        service_name: impl Into<String>,
        sink: Arc<dyn EventSink<Event>>,
    ) {
        bus.register(service_name, Arc::new(BridgeService::new(sink)));
    }
}

impl Service for BridgeService {
    fn call(&self, method: &str, args: &Json) -> RmiResult {
        match method {
            METHOD_CONTENT_TYPES => Ok(Json::from(ALL.to_vec())),
            METHOD_PUBLISH => {
                let content_type = args["content_type"]
                    .as_str()
                    .ok_or_else(|| RmiError::Application("publish missing content_type".into()))?;
                let codec = codec_for(content_type).ok_or_else(|| {
                    RmiError::Application(format!("unsupported content type {content_type}"))
                })?;
                let payload = args["payload_hex"]
                    .as_str()
                    .and_then(hex_decode)
                    .or_else(|| args["payload"].as_str().map(|s| s.as_bytes().to_vec()))
                    .ok_or_else(|| RmiError::Application("publish missing payload".into()))?;
                let events = codec
                    .decode_batch(&payload)
                    .map_err(|e| RmiError::Application(format!("bad payload: {e}")))?;
                let delivered = self
                    .sink
                    .accept_batch(&events)
                    .map_err(|e| RmiError::Application(e.to_string()))?;
                Ok(json!({"accepted": events.len(), "delivered": delivered}))
            }
            other => Err(RmiError::NoSuchMethod(other.to_string())),
        }
    }
}

/// Anything that can carry a method call to a bridge service: the
/// in-process [`MessageBus`] or a [`crate::tcp::ReactorClient`] connection.
pub trait CallTransport {
    /// Issue one call.
    fn call(&mut self, call: &MethodCall) -> RmiResult;
}

impl CallTransport for MessageBus {
    fn call(&mut self, call: &MethodCall) -> RmiResult {
        self.invoke(call)
    }
}

impl CallTransport for crate::tcp::ReactorClient {
    fn call(&mut self, call: &MethodCall) -> RmiResult {
        self.invoke(call)
    }
}

/// Producer side: an [`EventSink`] that ships events to a remote
/// [`BridgeService`], negotiating the codec on first use.
pub struct RemoteEventSink<T: CallTransport> {
    transport: Mutex<T>,
    service: String,
    preferred: Vec<&'static str>,
    chosen: Mutex<Option<EventCodec>>,
}

impl<T: CallTransport> RemoteEventSink<T> {
    /// Connect to `service` over `transport`, preferring codecs in the
    /// crate-default order (binary, text, JSON).
    pub fn new(transport: T, service: impl Into<String>) -> Self {
        Self::with_preference(transport, service, ALL.to_vec())
    }

    /// Connect preferring the given content types, best first.
    pub fn with_preference(
        transport: T,
        service: impl Into<String>,
        preferred: Vec<&'static str>,
    ) -> Self {
        RemoteEventSink {
            transport: Mutex::new(transport),
            service: service.into(),
            preferred,
            chosen: Mutex::new(None),
        }
    }

    /// The negotiated content type, if negotiation has happened.
    pub fn content_type(&self) -> Option<&'static str> {
        self.chosen.lock().as_ref().map(|c| c.content_type())
    }

    fn ensure_codec(&self) -> Result<&'static str, SinkError> {
        if let Some(codec) = self.chosen.lock().as_ref() {
            return Ok(codec.content_type());
        }
        let offered = self
            .transport
            .lock()
            .call(&MethodCall::new(
                self.service.clone(),
                METHOD_CONTENT_TYPES,
                json!(null),
            ))
            .map_err(|e| SinkError::Rejected(e.to_string()))?;
        let supported: Vec<String> = offered
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let supported_refs: Vec<&str> = supported.iter().map(String::as_str).collect();
        let chosen = negotiate(&self.preferred, &supported_refs)
            .ok_or_else(|| SinkError::Rejected("no common content type".into()))?;
        let codec = codec_for(chosen).expect("negotiated type is known");
        let content_type = codec.content_type();
        *self.chosen.lock() = Some(codec);
        Ok(content_type)
    }

    fn ship(&self, events: &[Event]) -> Result<usize, SinkError> {
        let content_type = self.ensure_codec()?;
        let payload = {
            let chosen = self.chosen.lock();
            let codec = chosen.as_ref().expect("codec negotiated");
            codec.encode_batch(events)
        };
        let args = if content_type == jamm_ulm::codec::BINARY {
            json!({"content_type": content_type, "payload_hex": hex_encode(&payload)})
        } else {
            let text = String::from_utf8(payload)
                .map_err(|_| SinkError::Rejected("non-UTF-8 payload for text codec".into()))?;
            json!({"content_type": content_type, "payload": text})
        };
        let reply = self
            .transport
            .lock()
            .call(&MethodCall::new(self.service.clone(), METHOD_PUBLISH, args))
            .map_err(|e| match e {
                RmiError::Transport(_) => SinkError::Closed,
                other => SinkError::Rejected(other.to_string()),
            })?;
        Ok(reply["delivered"].as_u64().unwrap_or(0) as usize)
    }
}

impl<T: CallTransport + Send> EventSink<Event> for RemoteEventSink<T>
where
    T: Sync,
{
    fn accept(&self, event: &Event) -> Result<usize, SinkError> {
        self.ship(std::slice::from_ref(event))
    }

    fn accept_batch(&self, events: &[Event]) -> Result<usize, SinkError> {
        self.ship(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::flow::DeliveryCounters;
    use jamm_ulm::{Level, Timestamp};

    struct CountingSink {
        counters: DeliveryCounters,
        seen: Mutex<Vec<Event>>,
    }

    impl EventSink<Event> for CountingSink {
        fn accept(&self, event: &Event) -> Result<usize, SinkError> {
            self.counters.record_delivered(event.approx_size() as u64);
            self.seen.lock().push(event.clone());
            Ok(1)
        }
    }

    fn ev(i: u64) -> Event {
        Event::builder("mplay", "mems.cairn.net")
            .level(Level::Usage)
            .event_type("MPLAY_START_READ_FRAME")
            .timestamp(Timestamp::from_micros(954_415_400_000_000 + i))
            .field("FRAME.ID", i)
            .field("NOTE", "quoted \"value\" here")
            .build()
    }

    fn bridged_bus() -> (MessageBus, Arc<CountingSink>) {
        let sink = Arc::new(CountingSink {
            counters: DeliveryCounters::new(),
            seen: Mutex::new(Vec::new()),
        });
        let bus = MessageBus::new();
        BridgeService::register(
            &bus,
            "event-sink@gw1",
            Arc::clone(&sink) as Arc<dyn EventSink<Event>>,
        );
        (bus, sink)
    }

    #[test]
    fn negotiates_binary_by_default_and_delivers() {
        let (bus, sink) = bridged_bus();
        let remote = RemoteEventSink::new(bus, "event-sink@gw1");
        assert_eq!(remote.content_type(), None, "lazy negotiation");
        let events: Vec<Event> = (0..4).map(ev).collect();
        assert_eq!(remote.accept_batch(&events).unwrap(), 4);
        assert_eq!(remote.content_type(), Some(jamm_ulm::codec::BINARY));
        assert_eq!(*sink.seen.lock(), events, "lossless transfer");
        assert_eq!(remote.accept(&ev(9)).unwrap(), 1);
        assert_eq!(sink.counters.delivered(), 5);
    }

    #[test]
    fn falls_back_to_the_peer_preference() {
        let (bus, sink) = bridged_bus();
        let remote = RemoteEventSink::with_preference(
            bus,
            "event-sink@gw1",
            vec![jamm_ulm::codec::JSON, jamm_ulm::codec::TEXT],
        );
        remote.accept(&ev(1)).unwrap();
        assert_eq!(remote.content_type(), Some(jamm_ulm::codec::JSON));
        assert_eq!(sink.seen.lock().len(), 1);
        assert_eq!(sink.seen.lock()[0], ev(1));
    }

    #[test]
    fn unknown_service_surfaces_as_sink_error() {
        let bus = MessageBus::new();
        let remote = RemoteEventSink::new(bus, "missing");
        assert!(remote.accept(&ev(1)).is_err());
    }

    #[test]
    fn bridge_rejects_bad_payloads_and_unknown_methods() {
        let (bus, _) = bridged_bus();
        let err = bus
            .invoke(&MethodCall::new(
                "event-sink@gw1",
                METHOD_PUBLISH,
                json!({"content_type": "application/x-ulm", "payload": "not ulm"}),
            ))
            .unwrap_err();
        assert!(matches!(err, RmiError::Application(_)));
        assert!(matches!(
            bus.invoke(&MethodCall::new("event-sink@gw1", "bogus", json!(null))),
            Err(RmiError::NoSuchMethod(_))
        ));
        assert!(matches!(
            bus.invoke(&MethodCall::new(
                "event-sink@gw1",
                METHOD_PUBLISH,
                json!({"content_type": "application/xml", "payload": ""}),
            )),
            Err(RmiError::Application(_))
        ));
    }

    #[test]
    fn hex_round_trip() {
        let data = [0u8, 1, 0x7f, 0xff, 0xab];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
        // Multi-byte characters must be rejected, not panic on a char
        // boundary (this arrives from remote peers).
        assert!(hex_decode("a\u{a1}b").is_none());
        assert!(hex_decode("\u{1f600}\u{1f600}").is_none());
    }
}
