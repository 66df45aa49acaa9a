//! Stress: one reactor thread serving 1,000 concurrent subscribers.
//!
//! Every subscriber sends a payload of its own length and must be counted
//! for exactly its own bytes, then reads each broadcast whole — so this
//! catches cross-connection counter mixups, lost wakeups and accept
//! starvation, not just throughput.

use jamm_reactor::{Backend, Reactor, ReactorConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNS: usize = 1_000;
const FRAME: usize = 256;

/// Bytes connection `i` sends in `wave`: a length of its own.
fn payload_len(i: usize, wave: usize) -> usize {
    FRAME + (i * 7 + wave * 13) % 251
}

fn frame_for(wave: usize) -> Vec<u8> {
    (0..FRAME)
        .map(|j| ((wave * 31 + j * 7) % 251) as u8)
        .collect()
}

#[test]
fn one_thousand_concurrent_subscribers() {
    let reactor = Reactor::start(ReactorConfig {
        backend: Backend::native(),
        max_connections: CONNS + 16,
        ..ReactorConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lid = reactor.listen(listener).unwrap();

    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        clients.push(c);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while reactor.connections() < CONNS {
        assert!(
            Instant::now() < deadline,
            "only {} of {CONNS} connections registered",
            reactor.connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The loop's socket rows name each connection by its peer address,
    // which is the client's local address.
    let mut expected_in: HashMap<String, u64> = clients
        .iter()
        .map(|c| (c.local_addr().unwrap().to_string(), 0))
        .collect();
    // Two waves, the second over the same (now warm) connections.
    for wave in 0..2 {
        // All payloads in flight at once, then every connection's own
        // inbound count.
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(&vec![wave as u8; payload_len(i, wave)])
                .unwrap();
            *expected_in
                .get_mut(&c.local_addr().unwrap().to_string())
                .unwrap() += payload_len(i, wave) as u64;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let rows = reactor.socket_stats();
            assert_eq!(rows.len(), CONNS);
            let wrong = rows
                .iter()
                .filter(|r| r.stats.bytes_in != expected_in[&r.peer])
                .count();
            if wrong == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "wave {wave}: {wrong} connections counted the wrong inbound bytes"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let frame = frame_for(wave);
        reactor.broadcast(lid, Arc::new(frame.clone()));
        for (i, c) in clients.iter_mut().enumerate() {
            let mut got = vec![0u8; FRAME];
            c.read_exact(&mut got).unwrap();
            assert_eq!(
                got, frame,
                "wave {wave}: broadcast mismatch on connection {i}"
            );
        }
    }

    // Counters move just after each write returns, so a client can read
    // its frame a moment before its row counts it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = reactor.socket_stats();
        assert_eq!(stats.len(), CONNS);
        let total_out: u64 = stats.iter().map(|r| r.stats.bytes_out).sum();
        if total_out as usize == CONNS * FRAME * 2 {
            break;
        }
        assert!(Instant::now() < deadline, "{total_out} bytes out counted");
        std::thread::sleep(Duration::from_millis(5));
    }

    reactor.shutdown();
    assert_eq!(reactor.connections(), 0, "shutdown left connections behind");
}
