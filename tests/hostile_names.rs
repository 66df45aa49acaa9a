//! A hostile peer cannot grow the name vocabulary without bound.
//!
//! First, frames whose only new names are string values fill the
//! vocabulary to its value room and no further, so a sensor's program name
//! seen after them is still held.  Then a raw TCP server stands in for an edge and sends an `EdgeClient`
//! 100,000 binary frames whose field keys and string values are all
//! distinct, every tenth with a key over the vocabulary's length limit.
//! Every event must decode equal to what was sent, the vocabulary must
//! stop at its bound, an over-long name must never be held, and the
//! deployment's `jamm_ulm_names_refused` counter must report the names
//! decoded owned.  This file is its own test binary: filling the
//! process-wide vocabulary would change other tests' allocation counts.

use std::borrow::Cow;
use std::io::Write;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use jamm::jamm_core::obs::SampleValue;
use jamm::jamm_gateway::GatewayConfig;
use jamm::jamm_rmi::edge::{EdgeClient, EdgeClientConfig};
use jamm::JammBuilder;
use jamm_ulm::{binary, keys, vocab, Event, Timestamp};

const EVENTS: u64 = 100_000;
/// Frames per round: the sender waits for the reader between rounds, so
/// the client's 8,192-event queue never drops one.
const ROUND: u64 = 5_000;

fn hostile(i: u64) -> Event {
    let mut event = Event::builder("vmstat", "peer.example")
        .event_type("CPU_TOTAL")
        .timestamp(Timestamp::from_micros(1_000_000 + i))
        .field(format!("K{i:06}"), format!("v{i:06}"))
        .value(i as f64);
    if i.is_multiple_of(10) {
        let long = format!("LONG{i:06}{}", "x".repeat(vocab::MAX_NAME_LEN));
        event = event.field(long, i);
    }
    event.build()
}

/// A frame whose one new name is its object id, a string value.
fn values_only(i: usize) -> Event {
    Event::builder("vmstat", "peer.example")
        .event_type("CPU_TOTAL")
        .timestamp(Timestamp::from_micros(1_000_000))
        .field(keys::OBJECT_ID, format!("oid-{i:06}"))
        .build()
}

fn decode(event: &Event) -> Event {
    binary::decode(&binary::encode(event)).unwrap().0
}

#[test]
fn distinct_names_from_a_peer_stop_at_the_vocabulary_bound() {
    for i in 0..vocab::MAX_NAMES {
        assert_eq!(decode(&values_only(i)), values_only(i));
    }
    assert_eq!(
        vocab::held(),
        vocab::VALUE_ROOM,
        "string values stop at their room"
    );
    let late = Event::builder("late-sensor", "peer.example")
        .event_type("CPU_TOTAL")
        .build();
    assert!(matches!(
        decode(&late).program,
        Cow::Borrowed("late-sensor")
    ));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go, rounds) = mpsc::channel::<u64>();
    let sender = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut frames = Vec::new();
        for first in rounds {
            frames.clear();
            for i in first..first + ROUND {
                binary::encode_into(&mut frames, &hostile(i));
            }
            socket.write_all(&frames).unwrap();
        }
    });
    let mut client = EdgeClient::connect(addr, EdgeClientConfig::default()).unwrap();
    let refused_before = vocab::refused();
    for first in (0..EVENTS).step_by(ROUND as usize) {
        go.send(first).unwrap();
        for i in first..first + ROUND {
            let event = client
                .events()
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("event {i}: {e:?}"));
            assert_eq!(event, hostile(i), "event {i}");
            if i.is_multiple_of(10) {
                let (long, _) = &event.fields[2];
                assert!(
                    matches!(long, Cow::Owned(_)),
                    "an over-long key is not held"
                );
            }
        }
    }
    drop(go);
    sender.join().unwrap();
    let stats = client.stats();
    client.stop();
    assert_eq!(
        (stats.received, stats.dropped, stats.decode_errors),
        (EVENTS, 0, 0)
    );

    assert_eq!(
        vocab::held(),
        vocab::MAX_NAMES,
        "the vocabulary stops at its bound"
    );
    // Past the bound a new name comes back owned.
    let (last, _) = &hostile(EVENTS - 1).fields[0];
    assert!(matches!(vocab::resolve(last), Cow::Owned(_)));
    // Two distinct names an event and one over-long key every tenth: all
    // but the few thousand the vocabulary took were decoded owned.
    let refused = vocab::refused() - refused_before;
    let distinct = 2 * EVENTS + EVENTS / 10;
    assert!(refused >= distinct - vocab::MAX_NAMES as u64, "{refused}");

    let jamm = JammBuilder::new()
        .gateway_config(GatewayConfig::open("gw1"))
        .build()
        .unwrap();
    let exported = jamm
        .metrics()
        .samples
        .into_iter()
        .find(|s| s.name == "jamm_ulm_names_refused")
        .map(|s| s.value);
    assert!(matches!(exported, Some(SampleValue::Counter(n)) if n >= refused));
}
