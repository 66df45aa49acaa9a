//! E17 — the reactor network edge at scale.
//!
//! The paper's gateway architecture rests on the claim that "added
//! consumers load the gateway rather than the monitored host" (§2.3) —
//! which only holds if the gateway's network edge itself scales with
//! consumer count.  PR 6 replaced thread-per-connection with a single
//! `poll(2)` event loop (`jamm-reactor`) and an encode-once/write-N
//! broadcast transport (`jamm_rmi::edge::EventEdge`).  This bench drives
//! that edge with real TCP subscribers on a connection sweep 100 → 10,000
//! and records delivered kev/s and the p99 publish-to-client delivery
//! latency at each point.
//!
//! Layout: the reactor, gateway and edge run in this process; the
//! subscriber fleet runs in a re-exec'd child process
//! (`JAMM_E17_CLIENT=1`), because the container caps `RLIMIT_NOFILE` at
//! 20,000 — 10k server sockets plus 10k client sockets do not fit in one
//! process.  The child connects N sockets, drains all of them
//! nonblockingly, decodes frames on one probe connection to sample
//! delivery latency (both processes share the host clock), and reports
//! JSON on stdout.
//!
//! Asserted on every run:
//!   * every subscriber receives the complete byte stream;
//!   * the 10,000-connection point is held by ONE reactor thread;
//!   * the exact rows — deep event clones across publish + encode +
//!     broadcast, dropped frames, refused accepts, all zero — equal
//!     BENCH_e17.json.
//!
//! Delivered throughput and p99 latency are measured rows, printed beside
//! the baseline; the design target is that 10k connections stay within 2x
//! of the 100-connection point.  e21's `stream_edge` drives the same edge
//! over 2 connections; this sweep stays until it has a connection sweep.

use jamm_bench::{compare_row, data_row, header, kevps, Report};
use jamm_core::json::{Json, Map};
use jamm_gateway::{EventGateway, GatewayConfig};
use jamm_reactor::{Reactor, ReactorConfig};
use jamm_rmi::edge::{EdgeConfig, EventEdge};
use jamm_ulm::{binary, deep_clone_count, Event, Level, SharedEvent, Timestamp};
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SWEEP: [usize; 4] = [100, 1_000, 4_000, 10_000];
/// At least 2M delivered event copies per sweep point, and at least 1,000
/// events per connection so every point amortizes encode and write costs
/// over comparably sized frames; the per-connection stream stays well
/// under the outbox budget at every point.
fn events_for(conns: usize) -> u64 {
    (2_000_000 / conns as u64).max(1_000)
}

const PUBLISH_CHUNK: usize = 64;

fn sample(i: u64) -> Event {
    Event::builder("dpss_master", "dpss1.lbl.gov")
        .level(Level::Usage)
        .event_type(["DPSS_SERV_IN", "DPSS_START_WRITE", "CPU_TOTAL"][(i % 3) as usize])
        .timestamp(Timestamp::now())
        .value((i % 100) as f64)
        .field("BLOCK.ID", i)
        .build()
}

// ---------------------------------------------------------------------
// Child process: the subscriber fleet.
// ---------------------------------------------------------------------

fn client_main(addr: &str, conns: usize) {
    use jamm_reactor::{Backend, Interest, Poller, Readiness, Source};
    use std::io::ErrorKind;
    use std::net::TcpStream;

    let mut socks: Vec<Option<TcpStream>> = Vec::with_capacity(conns);
    // The fleet drains its sockets through the same readiness API the
    // server loop uses — scanning 10k idle sockets with speculative reads
    // would burn the CPU the single reactor thread needs.
    let mut poller = Poller::new(Backend::native());
    for i in 0..conns {
        let s = TcpStream::connect(addr).expect("connect to edge");
        s.set_nonblocking(true).expect("nonblocking");
        poller.register(i as u64, Source::new(&s), Interest::READ);
        socks.push(Some(s));
    }

    let mut bytes = vec![0u64; conns];
    let mut probe_buf: Vec<u8> = Vec::new();
    let mut probe_off = 0usize;
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut open = conns;
    let mut scratch = vec![0u8; 256 * 1024];
    let mut readiness: Vec<Readiness> = Vec::new();

    while open > 0 {
        poller
            .poll(Duration::from_millis(200), &mut readiness)
            .expect("client poll");
        for r in &readiness {
            let i = r.token as usize;
            let Some(s) = &mut socks[i] else { continue };
            loop {
                match s.read(&mut scratch) {
                    Ok(0) => {
                        poller.deregister(r.token);
                        socks[i] = None;
                        open -= 1;
                        break;
                    }
                    Ok(n) => {
                        bytes[i] += n as u64;
                        if i == 0 {
                            probe_buf.extend_from_slice(&scratch[..n]);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        poller.deregister(r.token);
                        socks[i] = None;
                        open -= 1;
                        break;
                    }
                }
            }
        }
        // Sample delivery latency on the probe connection: the publisher
        // stamped each event with the shared host clock.
        while let Ok((ev, used)) = binary::decode(&probe_buf[probe_off..]) {
            probe_off += used;
            let now = Timestamp::now().as_micros();
            latencies_us.push(now.saturating_sub(ev.timestamp.as_micros()));
        }
    }

    latencies_us.sort_unstable();
    let p99 = if latencies_us.is_empty() {
        0
    } else {
        latencies_us[(latencies_us.len() - 1) * 99 / 100]
    };
    let mut doc = Map::new();
    doc.insert("total_bytes".into(), Json::from(bytes.iter().sum::<u64>()));
    doc.insert(
        "min_conn_bytes".into(),
        Json::from(bytes.iter().copied().min().unwrap_or(0)),
    );
    doc.insert(
        "max_conn_bytes".into(),
        Json::from(bytes.iter().copied().max().unwrap_or(0)),
    );
    doc.insert("p99_latency_us".into(), Json::from(p99));
    doc.insert(
        "latency_samples".into(),
        Json::from(latencies_us.len() as u64),
    );
    println!("{}", Json::Object(doc));
}

// ---------------------------------------------------------------------
// Parent process: reactor + gateway + edge, one sweep point at a time.
// ---------------------------------------------------------------------

struct PointResult {
    conns: usize,
    events: u64,
    kev_per_s: f64,
    p99_latency_us: u64,
    deep_clones: u64,
    dropped_frames: u64,
    refused_accepts: u64,
    /// Events per broadcast frame: what one pump pass carried.
    events_per_frame: f64,
    /// Frames per `writev`, over every connection.
    frames_per_write: f64,
    /// Times a publish woke the sleeping pump, per event.
    wakeups_per_event: f64,
}

fn run_point(conns: usize) -> PointResult {
    let events = events_for(conns);
    let reactor = Arc::new(
        Reactor::start(ReactorConfig {
            max_connections: conns + 64,
            ..ReactorConfig::default()
        })
        .expect("start reactor"),
    );
    let gateway = Arc::new(EventGateway::new(GatewayConfig::open("e17")));
    let mut edge = EventEdge::open(
        Arc::clone(&reactor),
        Arc::clone(&gateway),
        EdgeConfig {
            capacity: events as usize + PUBLISH_CHUNK,
            ..EdgeConfig::default()
        },
    )
    .expect("open edge");

    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(exe)
        .env("JAMM_E17_CLIENT", "1")
        .env("JAMM_E17_ADDR", edge.addr().to_string())
        .env("JAMM_E17_CONNS", conns.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn subscriber fleet");

    let deadline = Instant::now() + Duration::from_secs(120);
    while edge.subscribers() < conns {
        assert!(
            Instant::now() < deadline,
            "only {} of {conns} subscribers connected",
            edge.subscribers()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let clones0 = deep_clone_count();
    let t0 = Instant::now();
    let mut published = 0u64;
    while published < events {
        let n = PUBLISH_CHUNK.min((events - published) as usize);
        // Stamped at publish time so the child can measure delivery
        // latency against the shared host clock.
        let chunk: Vec<SharedEvent> = (0..n as u64)
            .map(|j| SharedEvent::new(sample(published + j)))
            .collect();
        gateway.publish_shared_batch(&chunk);
        published += n as u64;
    }

    // Completion: the pump has encoded every event, every conn has
    // written the full stream, and nothing is left queued.
    let drained = |edge: &EventEdge| {
        if edge.stats().events < events {
            return false;
        }
        let encoded = edge.stats().encoded_bytes;
        let rows = edge.socket_stats();
        rows.len() == conns
            && rows
                .iter()
                .all(|r| r.stats.queued_bytes == 0 && r.stats.bytes_out == encoded)
    };
    // Coarse drain polling: snapshotting 10k socket rows is itself O(N),
    // so don't let the check steal the single core from the loop thread.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !drained(&edge) {
        assert!(Instant::now() < deadline, "broadcast never drained");
        std::thread::sleep(Duration::from_millis(25));
    }
    let secs = t0.elapsed().as_secs_f64();
    let deep_clones = deep_clone_count() - clones0;

    let rows = edge.socket_stats();
    let sum = |f: fn(&jamm_reactor::SocketStats) -> u64| rows.iter().map(|r| f(&r.stats)).sum();
    let dropped_frames: u64 = sum(|s| s.dropped_frames);
    let frames_per_write = sum(|s| s.frames_out) as f64 / sum(|s| s.writes).max(1) as f64;
    let refused_accepts = reactor.refused();
    let edge_stats = edge.stats();
    let encoded = edge_stats.encoded_bytes;
    let events_per_frame = edge_stats.events as f64 / edge_stats.batches.max(1) as f64;
    let wakeups: u64 = gateway
        .delivery_report()
        .iter()
        .filter(|r| r.consumer == jamm_ulm::keys::jamm::EDGE_CONSUMER)
        .map(|r| r.wakeups)
        .sum();

    edge.stop();
    let out = child.wait_with_output().expect("child exit");
    assert!(out.status.success(), "subscriber fleet failed");
    let report =
        Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("child report is valid JSON");
    let report = report.as_object().expect("child report object");
    let num = |k: &str| {
        report
            .get(k)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing child field {k}")) as u64
    };
    assert_eq!(
        num("total_bytes"),
        encoded * conns as u64,
        "every subscriber received the complete stream"
    );
    assert_eq!(
        num("min_conn_bytes"),
        num("max_conn_bytes"),
        "no subscriber was short-changed"
    );
    assert_eq!(num("latency_samples"), events, "probe decoded every event");

    reactor.shutdown();
    PointResult {
        conns,
        events,
        kev_per_s: kevps(events * conns as u64, secs),
        p99_latency_us: num("p99_latency_us"),
        deep_clones,
        dropped_frames,
        refused_accepts,
        events_per_frame,
        frames_per_write,
        wakeups_per_event: wakeups as f64 / events as f64,
    }
}

fn main() {
    if std::env::var_os("JAMM_E17_CLIENT").is_some() {
        let addr = std::env::var("JAMM_E17_ADDR").expect("JAMM_E17_ADDR");
        let conns: usize = std::env::var("JAMM_E17_CONNS")
            .expect("JAMM_E17_CONNS")
            .parse()
            .expect("numeric JAMM_E17_CONNS");
        client_main(&addr, conns);
        return;
    }

    header(
        "E17: reactor network edge — one event loop, 100 to 10,000 TCP subscribers",
        "section 2.3 scalability: the gateway edge must absorb added consumers",
    );

    println!("\nconnection sweep (delivered kev/s = events x conns / wall time):\n");
    data_row(&[
        format!("{:>11}", "connections"),
        format!("{:>10}", "events"),
        format!("{:>16}", "delivered kev/s"),
        format!("{:>12}", "p99 latency"),
        format!("{:>12}", "deep clones"),
    ]);
    let mut report = Report::new(env!("CARGO_CRATE_NAME"));
    let mut results: Vec<PointResult> = Vec::new();
    for &conns in &SWEEP {
        let r = run_point(conns);
        report.measured(format!("kev_per_s_{conns}"), r.kev_per_s);
        report.measured(format!("p99_latency_us_{conns}"), r.p99_latency_us as f64);
        report.exact(format!("deep_clones_{conns}"), r.deep_clones);
        report.exact(format!("dropped_frames_{conns}"), r.dropped_frames);
        report.exact(format!("refused_accepts_{conns}"), r.refused_accepts);
        data_row(&[
            format!("{:>11}", r.conns),
            format!("{:>10}", r.events),
            format!("{:>16.0}", r.kev_per_s),
            format!("{:>9.1} ms", r.p99_latency_us as f64 / 1_000.0),
            format!("{:>12}", r.deep_clones),
        ]);
        results.push(r);
    }

    // What one pump pass carries, from counts rather than wall time:
    // printed, not compared, since batching follows thread scheduling.
    println!("\nper pump pass (counts):\n");
    data_row(&[
        format!("{:>11}", "connections"),
        format!("{:>16}", "events / frame"),
        format!("{:>16}", "frames / writev"),
        format!("{:>18}", "wake-ups / event"),
    ]);
    for r in &results {
        data_row(&[
            format!("{:>11}", r.conns),
            format!("{:>16.1}", r.events_per_frame),
            format!("{:>16.2}", r.frames_per_write),
            format!("{:>18.4}", r.wakeups_per_event),
        ]);
    }

    let base = &results[0];
    let top = &results[results.len() - 1];
    println!("\npaper vs measured:\n");
    compare_row(
        "subscriber connections on one reactor thread",
        "gateways absorb added consumers",
        &format!("{} concurrent, single loop thread", top.conns),
    );
    compare_row(
        "throughput at 10k conns vs 100 conns",
        "within 2x",
        &format!(
            "{:.0} vs {:.0} kev/s ({:.2}x)",
            top.kev_per_s,
            base.kev_per_s,
            base.kev_per_s / top.kev_per_s.max(1e-9)
        ),
    );
    compare_row(
        "event copies per broadcast",
        "0 (encode once, write N)",
        &format!("{} deep clones at every sweep point", top.deep_clones),
    );
    println!();
    report.finish();
}
