//! Property tests of the zero-copy pipeline: the `Arc`-shared publish
//! path must be *observably identical* to the seed-era by-value pipeline
//! — every delivered event's ULM text and binary encodings are byte for
//! byte what encoding the original event produces — while performing
//! zero event deep-clones, and the buffer-reusing encoders must emit
//! exactly what their allocating forms emit.

use std::sync::Arc;

use jamm::jamm_consumers::archiver::ArchiverAgent;
use jamm::jamm_consumers::GatewayRegistry;
use jamm::jamm_core::check::{forall, Gen};
use jamm::jamm_directory::Dn;
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm::jamm_tsdb::Tsdb;
use jamm::jamm_ulm::{binary, deep_clone_count, text, Event, Level, SharedEvent, Timestamp, Value};

const HOSTS: [&str; 3] = ["dpss1.lbl.gov", "mems.cairn.net", "h3"];
const TYPES: [&str; 4] = ["CPU_TOTAL", "MEM_FREE", "DPSS_SERV_IN", "WriteData"];
const KEYS: [&str; 4] = ["VAL", "SEND.SZ", "NL.OID", "TEXT"];

fn arb_value(g: &mut Gen) -> Value {
    match g.usize_in(0, 5) {
        0 => Value::UInt(g.any_u64() % 1_000_000),
        // Negative only: a positive Int re-infers as UInt on decode
        // (infer precedence), which is not what this test is about.
        1 => Value::Int(-1 - (g.any_u64() % 1_000_000) as i64),
        2 => Value::Float(g.f64_in(-1e6, 1e6)),
        3 => Value::Bool(g.bool(0.5)),
        // Strings exercise the quoting path: spaces, quotes, backslashes.
        4 => Value::Str(
            g.choice(&["plain", "two words", "qu\"oted", "back\\slash", ""])
                .into(),
        ),
        _ => Value::Float(g.u64(100) as f64),
    }
}

fn arb_event(g: &mut Gen) -> Event {
    let mut b = Event::builder(g.choice(&["vmstat", "testProg"]), g.choice(&HOSTS))
        .level(g.choice(&[Level::Usage, Level::Warning, Level::Error]))
        .event_type(g.choice(&TYPES))
        .timestamp(Timestamp::from_micros(954_415_400_000_000 + g.u64(1 << 40)));
    for _ in 0..g.usize_in(0, 4) {
        b = b.field(g.choice(&KEYS), arb_value(g));
    }
    b.build()
}

/// Publishing shared events through the gateway delivers streams whose
/// text and binary encodings are byte-identical to the seed-era by-value
/// pipeline's — and the shared leg deep-clones nothing, an archiver
/// draining into the segmented store included.
#[test]
fn shared_pipeline_output_is_byte_identical_to_by_value() {
    forall("shared == by-value encodings", 32, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 80)).map(|_| arb_event(g)).collect();
        let subscribers = g.usize_in(1, 5);

        // The zero-copy pipeline: pre-shared events, publish_shared.
        let shared_gw = Arc::new(EventGateway::new(GatewayConfig::open("shared")));
        let mut registry = GatewayRegistry::new();
        registry.register("shared", Arc::clone(&shared_gw));
        let archive = Arc::new(Tsdb::in_memory());
        let mut archiver = ArchiverAgent::new(
            "archiver",
            Arc::clone(&archive),
            Dn::parse("archive=zero-copy,o=grid").unwrap(),
        );
        archiver.subscribe(&registry, "shared", vec![]).unwrap();
        let shared_subs: Vec<_> = (0..subscribers)
            .map(|_| shared_gw.subscribe().as_consumer("c").open().unwrap())
            .collect();
        let shared: Vec<SharedEvent> = events.iter().map(|e| SharedEvent::new(e.clone())).collect();
        let clones0 = deep_clone_count();
        for e in &shared {
            shared_gw.publish_shared(SharedEvent::clone(e));
        }
        archiver.poll();
        assert_eq!(
            archive.len(),
            events.len(),
            "the archiver stored the stream"
        );
        let shared_streams: Vec<Vec<SharedEvent>> = shared_subs
            .into_iter()
            .map(|s| s.events.try_iter().collect())
            .collect();
        assert_eq!(
            deep_clone_count() - clones0,
            0,
            "shared publish + fan-out + drain + archive deep-clones nothing"
        );

        // The seed-era shape: by-value publish (its one entry copy is the
        // whole difference).
        let byvalue_gw = EventGateway::new(GatewayConfig::open("byvalue"));
        let byvalue_subs: Vec<_> = (0..subscribers)
            .map(|_| byvalue_gw.subscribe().as_consumer("c").open().unwrap())
            .collect();
        for e in &events {
            byvalue_gw.publish(e);
        }
        let byvalue_streams: Vec<Vec<SharedEvent>> = byvalue_subs
            .into_iter()
            .map(|s| s.events.try_iter().collect())
            .collect();

        for (a, b) in shared_streams.iter().zip(byvalue_streams.iter()) {
            assert_eq!(a.len(), events.len(), "wildcard subscriber sees everything");
            assert_eq!(a.len(), b.len());
            for ((sa, sb), original) in a.iter().zip(b.iter()).zip(events.iter()) {
                let expected_text = text::encode(original);
                let expected_bin = binary::encode(original);
                assert_eq!(text::encode(sa), expected_text, "text identical");
                assert_eq!(text::encode(sb), expected_text);
                assert_eq!(binary::encode(sa), expected_bin, "binary identical");
                assert_eq!(binary::encode(sb), expected_bin);
            }
        }
    });
}

/// The reusable text encoder emits exactly what the allocating encoder
/// emits, for any event and any buffer reuse pattern, and the result
/// still decodes back to the source event.
#[test]
fn encode_into_is_byte_identical_and_round_trips() {
    forall("encode_into == encode", 64, |g| {
        let events: Vec<Event> = (0..g.usize_in(1, 30)).map(|_| arb_event(g)).collect();
        let mut buf = String::new();
        for e in &events {
            let fresh = text::encode(e);
            buf.clear();
            text::encode_into(&mut buf, e);
            assert_eq!(buf, fresh, "reused buffer emits identical bytes");
            assert_eq!(text::decode(&buf).unwrap(), *e, "and still round-trips");
        }
    });
}
