//! Property: broadcast-over-reactor is byte-identical to the
//! thread-per-connection baseline it replaced.
//!
//! For random event batches, the binary ULM stream an
//! [`EventEdge`] subscriber receives (events batched, encoded once,
//! written N times from one loop thread) must equal, byte for byte, what
//! the old model produces: one blocking thread per connection, encoding
//! the stream separately for its socket.  If framing, batching, partial
//! writes or broadcast ordering ever corrupt or reorder the stream, the
//! comparison fails and prints the replayable case seed.

use jamm_core::check::{forall, Gen};
use jamm_gateway::{EventGateway, GatewayConfig};
use jamm_reactor::{Reactor, ReactorConfig};
use jamm_rmi::edge::{EdgeConfig, EventEdge};
use jamm_ulm::{binary, Event, Level, SharedEvent, Timestamp};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SUBSCRIBERS: usize = 3;
const ALPHA: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

fn arb_event(g: &mut Gen, i: u64) -> Event {
    let mut b = Event::builder(
        format!("prog_{}", g.string_from(ALPHA, 6)),
        format!("host{}.lbl.gov", g.u64(8)),
    )
    .level(g.choice(&[Level::Usage, Level::Debug, Level::Warning, Level::Error]))
    .event_type({
        let len = g.usize_in(3, 12);
        g.string_from(ALPHA, len)
    })
    .timestamp(Timestamp::from_micros(
        954_400_000_000_000 + i * 1_000 + g.u64(999),
    ));
    for _ in 0..g.usize_in(0, 4) {
        let len = g.usize_in(1, 8);
        let name = g.string_from(ALPHA, len).to_uppercase();
        if g.bool(0.5) {
            b = b.field(name, g.u64(1_000_000));
        } else {
            b = b.field(name, g.printable_string(24));
        }
    }
    b.build()
}

/// The old network edge: a blocking writer thread per connection, each
/// encoding the whole stream for its own socket.
fn thread_per_connection_stream(events: &[Event]) -> Vec<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let events: Arc<Vec<Event>> = Arc::new(events.to_vec());
    let server = std::thread::spawn(move || {
        let mut handles = Vec::new();
        for _ in 0..SUBSCRIBERS {
            let (mut conn, _) = listener.accept().unwrap();
            let events = Arc::clone(&events);
            handles.push(std::thread::spawn(move || {
                for ev in events.iter() {
                    conn.write_all(&binary::encode(ev)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    let mut received = Vec::new();
    let mut conns: Vec<TcpStream> = (0..SUBSCRIBERS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for c in &mut conns {
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap();
        received.push(buf);
    }
    server.join().unwrap();
    received
}

/// The new edge: events published once at the gateway, batched and
/// encoded once on the pump, broadcast to every reactor connection.
fn reactor_edge_stream(events: &[Event]) -> Vec<Vec<u8>> {
    let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
    let gateway = Arc::new(EventGateway::new(GatewayConfig::open("prop")));
    let mut edge = EventEdge::open(
        Arc::clone(&reactor),
        Arc::clone(&gateway),
        EdgeConfig::default(),
    )
    .unwrap();

    let mut conns: Vec<TcpStream> = (0..SUBSCRIBERS)
        .map(|_| TcpStream::connect(edge.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while edge.subscribers() < SUBSCRIBERS {
        assert!(Instant::now() < deadline, "subscribers never registered");
        std::thread::sleep(Duration::from_millis(1));
    }

    let shared: Vec<SharedEvent> = events.iter().cloned().map(Arc::new).collect();
    gateway.publish_shared_batch(&shared);

    let expected: usize = events.iter().map(|e| binary::encode(e).len()).sum();
    let mut received = Vec::new();
    for c in &mut conns {
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut buf = vec![0u8; expected];
        c.read_exact(&mut buf).unwrap();
        received.push(buf);
    }
    edge.stop();
    reactor.shutdown();
    received
}

#[test]
fn reactor_broadcast_matches_thread_per_connection_baseline() {
    forall("edge stream equivalence", 8, |g| {
        let n = g.usize_in(1, 32);
        let events: Vec<Event> = (0..n as u64).map(|i| arb_event(g, i)).collect();

        let baseline = thread_per_connection_stream(&events);
        let edge = reactor_edge_stream(&events);

        for (i, (b, e)) in baseline.iter().zip(&edge).enumerate() {
            assert_eq!(b, e, "subscriber {i} diverged ({n} events)");
        }
        // And every subscriber of either transport saw the same bytes.
        assert!(baseline.windows(2).all(|w| w[0] == w[1]));
        assert!(edge.windows(2).all(|w| w[0] == w[1]));
    });
}
