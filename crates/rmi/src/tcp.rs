//! TCP transport: expose a bus to remote callers.
//!
//! Frames are a 4-byte little-endian length followed by a JSON document —
//! a `MethodCall` in the request direction, a `WireResponse` coming back.
//! Connections are persistent so an agent can issue many calls over one
//! socket, like RMI does.
//!
//! The server runs on a [`jamm_reactor::Reactor`]: one event-loop thread
//! accepts and serves every connection (the old thread-per-connection
//! design capped a server at hundreds of sockets and orphaned live
//! connection threads on shutdown).  Method dispatch does NOT run on the
//! loop thread — the reactor contract forbids blocking handlers, and bus
//! methods are arbitrary user code — so parsed calls are handed to a
//! small invoke-worker pool, pinned per connection to preserve response
//! order, and responses come back through [`Reactor::send_strict`].  A
//! slow method therefore stalls only the connections pinned to its
//! worker, never accepts/reads/flushes on the loop.
//! [`RmiServer::shutdown`] drains queued responses and closes every
//! connection deterministically before returning.  [`ReactorClient`], the
//! one client, multiplexes calls over a shared reactor: any number of
//! client connections cost no threads beyond the reactor's own.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use jamm_core::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use jamm_core::json::Json;
use jamm_core::{Backoff, BreakerState, BreakerStats, CircuitBreaker, OverflowPolicy};
use jamm_reactor::{CloseReason, ConnHandler, ConnId, ConnIo, Reactor, ReactorConfig, SocketRow};

use crate::bus::MessageBus;
use crate::message::{MethodCall, RmiError, RmiResult, WireResponse};

/// Frame bodies larger than this are treated as a protocol error, by the
/// RMI server and client here and by [`crate::edge::EdgeClient`].
pub(crate) const MAX_FRAME: usize = 16 * 1024 * 1024;

/// How long [`ReactorClient::invoke`] waits for a response.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`ReactorClient`] waits for a (re)connect to complete.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// First retry delay of [`ReactorClient`]'s reconnect backoff.
const RETRY_BASE: Duration = Duration::from_millis(250);

/// Ceiling of [`ReactorClient`]'s reconnect backoff.
const RETRY_MAX: Duration = Duration::from_secs(30);

/// Invoke-worker threads per server.  Each connection is pinned to one
/// worker (by connection id), so responses stay in request order and a
/// slow method only delays connections sharing its worker.
const INVOKE_WORKERS: usize = 4;

/// One parsed call waiting for an invoke worker.
struct Job {
    conn: ConnId,
    call: MethodCall,
}

/// A server exposing a [`MessageBus`] on a TCP socket: one reactor thread
/// for all socket I/O, a small worker pool for method dispatch.
pub struct RmiServer {
    addr: SocketAddr,
    reactor: Option<Arc<Reactor>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    invoke_us: Arc<jamm_core::obs::Histogram>,
}

impl std::fmt::Debug for RmiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RmiServer({})", self.addr)
    }
}

/// Reactor tuning appropriate for request/response RMI traffic: responses
/// must never be dropped (a lost frame desyncs the protocol), so the
/// outbox rejects new work (`DropNewest`) at a capacity comfortably above
/// the largest legal frame, and the handler closes the connection if that
/// ever happens.
fn rmi_reactor_config() -> ReactorConfig {
    ReactorConfig {
        overflow: OverflowPolicy::DropNewest,
        outbox_capacity: 4 * MAX_FRAME,
        thread_name: "jamm-rmi".to_string(),
        ..ReactorConfig::default()
    }
}

impl RmiServer {
    /// Bind to `127.0.0.1:0` (an ephemeral port) and start serving the bus.
    pub fn start(bus: MessageBus) -> std::io::Result<Self> {
        Self::start_with(bus, rmi_reactor_config())
    }

    /// Like [`RmiServer::start`] with explicit reactor tuning.
    pub fn start_with(bus: MessageBus, config: ReactorConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let reactor = Arc::new(Reactor::start(config)?);
        let invoke_us = Arc::new(jamm_core::obs::Histogram::new());
        let mut senders: Vec<Sender<Job>> = Vec::with_capacity(INVOKE_WORKERS);
        let mut workers = Vec::with_capacity(INVOKE_WORKERS);
        for i in 0..INVOKE_WORKERS {
            let (tx, rx) = unbounded::<Job>();
            let bus = bus.clone();
            let reactor = Arc::clone(&reactor);
            let invoke_us = Arc::clone(&invoke_us);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("jamm-rmi-invoke-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let start = std::time::Instant::now();
                            let response: WireResponse = bus.invoke(&job.call).into();
                            invoke_us.record_micros(start.elapsed());
                            let frame = encode_frame(&response.to_json());
                            // Strict: an outbox that cannot take a response
                            // without dropping one closes the connection —
                            // a lost response desyncs the protocol.
                            reactor.send_strict(job.conn, Arc::new(frame));
                        }
                    })?,
            );
            senders.push(tx);
        }
        reactor.listen(
            listener,
            Box::new(move |id: ConnId, _peer: &str| {
                let jobs = senders[(id as usize) % senders.len()].clone();
                Box::new(ServerConn { jobs }) as Box<dyn ConnHandler>
            }),
        )?;
        Ok(RmiServer {
            addr,
            reactor: Some(reactor),
            workers,
            invoke_us,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections being served.
    pub fn connections(&self) -> usize {
        self.reactor.as_ref().map_or(0, |r| r.connections())
    }

    /// Per-connection socket counters (bytes, queued, drops, stalls).
    pub fn socket_stats(&self) -> Vec<SocketRow> {
        self.reactor
            .as_ref()
            .map_or_else(Vec::new, |r| r.socket_stats())
    }

    /// Microsecond latency of method dispatch (`bus.invoke`, excluding
    /// socket I/O), across every invoke worker.
    pub fn invoke_us(&self) -> &Arc<jamm_core::obs::Histogram> {
        &self.invoke_us
    }

    /// Stop accepting, flush queued responses, close every live connection
    /// and join the loop and invoke-worker threads.  Unlike the old
    /// thread-per-connection design, no connection state survives this
    /// call.  Calls still being invoked when shutdown starts lose their
    /// response (the peer sees a clean EOF instead).
    pub fn shutdown(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
            // The loop thread has exited, dropping the acceptor and every
            // handler — and with them the last job senders — so the
            // workers drain their queues and stop.
            drop(reactor);
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

impl Drop for RmiServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection server state: parse calls, hand them to the pinned
/// invoke worker.  Runs on the loop thread, so it never blocks — dispatch
/// and response encoding happen on the worker.
struct ServerConn {
    jobs: Sender<Job>,
}

impl ConnHandler for ServerConn {
    fn on_data(&mut self, io: &mut ConnIo<'_>, buf: &[u8]) -> usize {
        let mut consumed = 0;
        while let Some(len) = match frame_len(&buf[consumed..]) {
            Ok(len) => len,
            Err(()) => {
                // Oversized framing: the stream is poisoned.
                io.close();
                return buf.len();
            }
        } {
            let call = Json::parse_slice(&buf[consumed + 4..consumed + len])
                .map_err(|e| RmiError::Transport(e.to_string()))
                .and_then(|doc| MethodCall::from_json(&doc));
            let call = match call {
                Ok(call) => call,
                Err(_) => {
                    io.close();
                    return buf.len();
                }
            };
            consumed += len;
            let job = Job {
                conn: io.id(),
                call,
            };
            if self.jobs.send(job).is_err() {
                // The worker is gone (server shutting down).
                io.close();
                return buf.len();
            }
        }
        consumed
    }
}

/// Total length (4-byte header included) of the `len || body` frame at the
/// start of `buf`.  Returns `Ok(None)` while incomplete, `Err` when the
/// header announces a body over [`MAX_FRAME`].
pub(crate) fn frame_len(buf: &[u8]) -> Result<Option<usize>, ()> {
    let [a, b, c, d, ..] = *buf else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME {
        return Err(());
    }
    Ok((buf.len() >= 4 + len).then_some(4 + len))
}

/// Encode one `len || body` frame.
fn encode_frame(value: &Json) -> Vec<u8> {
    let body = value.to_vec();
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// A client whose socket lives on a shared [`Reactor`] instead of holding
/// its own blocking I/O: requests are queued to the loop, responses come
/// back over a channel.  Useful for agents that already run a reactor and
/// want many client connections without any extra threads.
///
/// The client is self-healing: a timed-out or failed call closes the
/// connection and opens a [`CircuitBreaker`] instead of poisoning the
/// client forever.  While the breaker is open every call fails fast
/// (one comparison, no syscall); once the jittered-exponential backoff
/// deadline passes, the next call is a half-open probe that reconnects
/// and, on success, closes the breaker again.
pub struct ReactorClient {
    reactor: Arc<Reactor>,
    addr: SocketAddr,
    conn: Option<ConnId>,
    responses: Receiver<Json>,
    timeout: Duration,
    breaker: CircuitBreaker,
    /// Epoch the breaker's microsecond clock counts from.
    origin: std::time::Instant,
    reconnects: u64,
}

impl std::fmt::Debug for ReactorClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReactorClient({}, conn {:?}, {:?})",
            self.addr,
            self.conn,
            self.breaker.state()
        )
    }
}

/// Client-side handler: reassemble response frames, hand them to the
/// waiting caller.
struct ClientConn {
    responses: Sender<Json>,
}

impl ConnHandler for ClientConn {
    fn on_data(&mut self, io: &mut ConnIo<'_>, buf: &[u8]) -> usize {
        let mut consumed = 0;
        while let Some(len) = match frame_len(&buf[consumed..]) {
            Ok(len) => len,
            Err(()) => {
                io.close();
                return buf.len();
            }
        } {
            let body = &buf[consumed + 4..consumed + len];
            consumed += len;
            match Json::parse_slice(body) {
                Ok(doc) => {
                    if self.responses.send(doc).is_err() {
                        // Caller dropped the client; nothing to deliver to.
                        io.close();
                        return buf.len();
                    }
                }
                Err(_) => {
                    io.close();
                    return buf.len();
                }
            }
        }
        consumed
    }

    fn on_close(&mut self, _id: ConnId, _reason: &CloseReason) {
        // Dropping the sender makes any waiting `invoke` fail fast instead
        // of timing out.
    }
}

impl ReactorClient {
    /// Connect to a server and serve the socket on `reactor`.
    pub fn connect(reactor: Arc<Reactor>, addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        let (tx, rx) = unbounded();
        let conn = reactor.adopt(stream, Box::new(ClientConn { responses: tx }))?;
        Ok(ReactorClient {
            reactor,
            addr,
            conn: Some(conn),
            responses: rx,
            timeout: CLIENT_TIMEOUT,
            breaker: CircuitBreaker::new(
                1,
                Backoff::new(
                    RETRY_BASE.as_micros() as u64,
                    RETRY_MAX.as_micros() as u64,
                    addr.port() as u64,
                ),
            ),
            origin: std::time::Instant::now(),
            reconnects: 0,
        })
    }

    /// How long [`ReactorClient::invoke`] waits before giving up on a
    /// response (default 30 s).  A timed-out call opens the circuit
    /// breaker.
    pub fn set_invoke_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Replace the reconnect backoff schedule (first delay and ceiling).
    /// Resets the breaker to closed.
    pub fn set_retry_backoff(&mut self, base: Duration, max: Duration) {
        self.breaker = CircuitBreaker::new(
            1,
            Backoff::new(
                base.as_micros() as u64,
                max.as_micros() as u64,
                self.addr.port() as u64,
            ),
        );
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// The breaker's lifetime counters (opens, probes, revivals,
    /// failures).
    pub fn breaker_stats(&self) -> BreakerStats {
        self.breaker.stats()
    }

    /// Successful reconnects since the client was created.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Re-establish the connection with a fresh response channel — any
    /// late response still in flight on the old connection is discarded
    /// with the old receiver, so it can never surface as the answer to a
    /// later call.
    fn reconnect(&mut self) -> std::io::Result<ConnId> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        let (tx, rx) = unbounded();
        let conn = self
            .reactor
            .adopt(stream, Box::new(ClientConn { responses: tx }))?;
        self.conn = Some(conn);
        self.responses = rx;
        self.reconnects += 1;
        Ok(conn)
    }

    /// Invoke a remote method.  Calls are serialized per connection (one
    /// outstanding request at a time).
    ///
    /// A call that times out closes the connection (the late response
    /// must not surface as the answer to the *next* call) and opens the
    /// breaker; while open, calls fail fast without touching the
    /// network.  Once the backoff deadline passes, the next call probes
    /// half-open: it reconnects and — if the round-trip succeeds —
    /// closes the breaker, reviving the client.
    pub fn invoke(&mut self, call: &MethodCall) -> RmiResult {
        let conn = match self.conn {
            Some(conn) => conn,
            None => {
                if !self.breaker.allow(self.now_us()) {
                    return Err(RmiError::Transport(format!(
                        "circuit open after {} failures; probe in {}us",
                        self.breaker.stats().failures,
                        self.breaker.retry_at_us().saturating_sub(self.now_us())
                    )));
                }
                match self.reconnect() {
                    Ok(conn) => conn,
                    Err(e) => {
                        self.breaker.record_failure(self.now_us());
                        return Err(RmiError::Transport(format!("reconnect failed: {e}")));
                    }
                }
            }
        };
        self.reactor
            .send_strict(conn, Arc::new(encode_frame(&call.to_json())));
        match self.responses.recv_timeout(self.timeout) {
            Ok(doc) => {
                self.breaker.record_success();
                WireResponse::from_json(&doc)?.into()
            }
            Err(RecvTimeoutError::Timeout) => {
                self.reactor.close(conn);
                self.conn = None;
                self.breaker.record_failure(self.now_us());
                Err(RmiError::Transport(
                    "invoke timed out; circuit opened".into(),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.conn = None;
                self.breaker.record_failure(self.now_us());
                Err(RmiError::Transport("connection closed".into()))
            }
        }
    }
}

impl Drop for ReactorClient {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.reactor.close(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::json::json;
    use std::io::{Read, Write};
    use std::time::Instant;

    fn client_reactor(name: &str) -> Arc<Reactor> {
        Arc::new(
            Reactor::start(ReactorConfig {
                thread_name: name.to_string(),
                ..rmi_reactor_config()
            })
            .unwrap(),
        )
    }

    fn bus() -> MessageBus {
        let bus = MessageBus::new();
        bus.register_fn("sensor-manager@dpss1", |method, args| match method {
            "start_sensor" => Ok(json!({"started": args["name"].clone()})),
            "status" => Ok(json!({"sensors": ["cpu", "memory"]})),
            m => Err(RmiError::NoSuchMethod(m.to_string())),
        });
        bus
    }

    #[test]
    fn remote_invocation_round_trip() {
        let mut server = RmiServer::start(bus()).unwrap();
        let reactor = client_reactor("rmi-round-trip-test");
        let mut client = ReactorClient::connect(Arc::clone(&reactor), server.addr()).unwrap();
        let r = client
            .invoke(&MethodCall::new(
                "sensor-manager@dpss1",
                "start_sensor",
                json!({"name": "tcp"}),
            ))
            .unwrap();
        assert_eq!(r["started"], "tcp");
        // Several calls over the same connection.
        let r2 = client
            .invoke(&MethodCall::new(
                "sensor-manager@dpss1",
                "status",
                json!(null),
            ))
            .unwrap();
        assert_eq!(r2["sensors"][0], "cpu");
        // Errors propagate.
        assert!(matches!(
            client.invoke(&MethodCall::new(
                "sensor-manager@dpss1",
                "nope",
                json!(null)
            )),
            Err(RmiError::NoSuchMethod(_))
        ));
        assert!(matches!(
            client.invoke(&MethodCall::new("unknown", "x", json!(null))),
            Err(RmiError::NoSuchService(_))
        ));
        server.shutdown();
        reactor.shutdown();
    }

    #[test]
    fn multiple_clients_are_served_concurrently() {
        let server = RmiServer::start(bus()).unwrap();
        let addr = server.addr();
        let reactor = client_reactor("rmi-concurrent-test");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let reactor = Arc::clone(&reactor);
                std::thread::spawn(move || {
                    let mut c = ReactorClient::connect(reactor, addr).unwrap();
                    let r = c
                        .invoke(&MethodCall::new(
                            "sensor-manager@dpss1",
                            "start_sensor",
                            json!({"name": format!("s{i}")}),
                        ))
                        .unwrap();
                    r["started"].as_str().unwrap().to_string()
                })
            })
            .collect();
        let mut results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort();
        assert_eq!(results, vec!["s0", "s1", "s2", "s3"]);
        reactor.shutdown();
    }

    #[test]
    fn connecting_to_a_dead_server_fails_cleanly() {
        let addr = {
            let server = RmiServer::start(bus()).unwrap();
            server.addr()
            // server dropped (and shut down) here
        };
        let reactor = client_reactor("rmi-dead-server-test");
        // Either the connect fails or the first invoke fails; both are fine.
        if let Ok(mut c) = ReactorClient::connect(Arc::clone(&reactor), addr) {
            let r = c.invoke(&MethodCall::new(
                "sensor-manager@dpss1",
                "status",
                json!(null),
            ));
            if let Err(e) = r {
                assert!(matches!(e, RmiError::Transport(_)));
            }
        }
        reactor.shutdown();
    }

    #[test]
    fn reactor_client_round_trip_over_shared_reactor() {
        let server = RmiServer::start(bus()).unwrap();
        let reactor = client_reactor("rmi-client-test");
        let mut a = ReactorClient::connect(Arc::clone(&reactor), server.addr()).unwrap();
        let mut b = ReactorClient::connect(Arc::clone(&reactor), server.addr()).unwrap();
        for client in [&mut a, &mut b] {
            let r = client
                .invoke(&MethodCall::new(
                    "sensor-manager@dpss1",
                    "status",
                    json!(null),
                ))
                .unwrap();
            assert_eq!(r["sensors"][1], "memory");
        }
        drop(a);
        drop(b);
        reactor.shutdown();
    }

    fn slow_fast_bus(slow_for: Duration) -> MessageBus {
        let bus = MessageBus::new();
        bus.register_fn("svc", move |method, _args| match method {
            "slow" => {
                std::thread::sleep(slow_for);
                Ok(json!("slept"))
            }
            "fast" => Ok(json!("quick")),
            m => Err(RmiError::NoSuchMethod(m.to_string())),
        });
        bus
    }

    /// Dispatch runs on the worker pool, not the loop thread: a blocking
    /// method on one connection must not delay calls on another.
    #[test]
    fn a_slow_method_does_not_stall_other_connections() {
        let mut server = RmiServer::start(slow_fast_bus(Duration::from_millis(800))).unwrap();
        let addr = server.addr();
        let reactor = client_reactor("rmi-slow-fast-test");
        let slow_reactor = Arc::clone(&reactor);
        let slow = std::thread::spawn(move || {
            let mut c = ReactorClient::connect(slow_reactor, addr).unwrap();
            c.invoke(&MethodCall::new("svc", "slow", json!(null)))
                .unwrap()
        });
        // Let the slow call reach its worker before the fast one starts.
        std::thread::sleep(Duration::from_millis(150));
        let mut c = ReactorClient::connect(Arc::clone(&reactor), addr).unwrap();
        let start = Instant::now();
        let r = c
            .invoke(&MethodCall::new("svc", "fast", json!(null)))
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(r.as_str(), Some("quick"));
        assert!(
            elapsed < Duration::from_millis(500),
            "fast call stalled {elapsed:?} behind the slow one"
        );
        assert_eq!(slow.join().unwrap().as_str(), Some("slept"));
        server.shutdown();
        reactor.shutdown();
    }

    /// Connections are pinned to one worker, so pipelined calls get their
    /// responses back in request order.
    #[test]
    fn pipelined_calls_get_responses_in_request_order() {
        let bus = MessageBus::new();
        bus.register_fn("svc", |method, args| match method {
            "echo" => Ok(args.clone()),
            m => Err(RmiError::NoSuchMethod(m.to_string())),
        });
        let mut server = RmiServer::start(bus).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut batch = Vec::new();
        for i in 0..16i64 {
            let call = MethodCall::new("svc", "echo", Json::from(i));
            batch.extend_from_slice(&encode_frame(&call.to_json()));
        }
        stream.write_all(&batch).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        for i in 0..16i64 {
            let (doc, len) = loop {
                if let Some(len) = frame_len(&buf).unwrap() {
                    break (Json::parse_slice(&buf[4..len]).unwrap(), len);
                }
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed before response {i}");
                buf.extend_from_slice(&chunk[..n]);
            };
            buf.drain(..len);
            match WireResponse::from_json(&doc).unwrap() {
                WireResponse::Ok(v) => assert_eq!(v.as_i64(), Some(i), "response out of order"),
                WireResponse::Err(e) => panic!("echo {i} failed: {e:?}"),
            }
        }
        server.shutdown();
    }

    /// A header announcing a body one byte over `MAX_FRAME` poisons the
    /// stream: the server closes the connection instead of buffering.
    #[test]
    fn an_oversized_frame_header_closes_the_connection() {
        let mut server = RmiServer::start(bus()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        // EOF or a reset: either way the server hung up, not timed out.
        match stream.read(&mut byte) {
            Ok(n) => assert_eq!(n, 0, "server answered an oversized frame"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }
        server.shutdown();
    }

    /// A timed-out `invoke` opens the breaker (the late response must be
    /// discarded, never handed to the next call), later calls fail fast
    /// while it is open, and a half-open probe after the backoff deadline
    /// reconnects and revives the client.
    #[test]
    fn reactor_client_timeout_opens_the_breaker_and_a_probe_revives_it() {
        let server = RmiServer::start(slow_fast_bus(Duration::from_millis(300))).unwrap();
        let reactor = client_reactor("rmi-breaker-test");
        let mut c = ReactorClient::connect(Arc::clone(&reactor), server.addr()).unwrap();
        c.set_retry_backoff(Duration::from_millis(100), Duration::from_millis(400));
        c.set_invoke_timeout(Duration::from_millis(50));
        let r = c.invoke(&MethodCall::new("svc", "slow", json!(null)));
        assert!(matches!(r, Err(RmiError::Transport(_))), "got {r:?}");
        assert_eq!(c.breaker_state(), BreakerState::Open);
        // While the breaker is open, calls fail fast without touching
        // the network.
        match c.invoke(&MethodCall::new("svc", "fast", json!(null))) {
            Err(RmiError::Transport(msg)) => {
                assert!(msg.contains("circuit open"), "unexpected error: {msg}")
            }
            other => panic!("open-breaker client returned {other:?}"),
        }
        // Wait past both the backoff deadline and the late `slow`
        // response — which must be discarded with the old channel, never
        // handed to the next call as its answer.
        std::thread::sleep(Duration::from_millis(700));
        let r = c
            .invoke(&MethodCall::new("svc", "fast", json!(null)))
            .expect("half-open probe should reconnect and succeed");
        assert_eq!(r.as_str(), Some("quick"));
        assert_eq!(c.breaker_state(), BreakerState::Closed);
        assert!(c.reconnects() >= 1, "probe should have reconnected");
        assert_eq!(c.breaker_stats().revivals, 1);
        reactor.shutdown();
    }

    /// The old transport orphaned live connection threads on `stop()`;
    /// the reactor port must drain and close every connection
    /// deterministically.
    #[test]
    fn shutdown_closes_all_live_connections_deterministically() {
        let mut server = RmiServer::start(bus()).unwrap();
        let addr = server.addr();
        // Park several live connections mid-session (no call in flight).
        let reactor = client_reactor("rmi-shutdown-test");
        let mut clients: Vec<ReactorClient> = (0..8)
            .map(|_| ReactorClient::connect(Arc::clone(&reactor), addr).unwrap())
            .collect();
        let status = MethodCall::new("sensor-manager@dpss1", "status", json!(null));
        for c in &mut clients {
            let r = c.invoke(&status).unwrap();
            assert_eq!(r["sensors"][0], "cpu");
        }
        assert_eq!(server.connections(), 8);
        server.shutdown();
        // After shutdown returns — not eventually, *now* — every server-side
        // connection is gone, and every client's next call fails on the
        // closed connection instead of waiting out its 30 s timeout.
        assert_eq!(server.connections(), 0);
        let start = Instant::now();
        for c in &mut clients {
            let r = c.invoke(&status);
            assert!(matches!(r, Err(RmiError::Transport(_))), "got {r:?}");
        }
        // And the port is closed: a fresh connect must fail or be reset.
        if let Ok(mut late) = ReactorClient::connect(Arc::clone(&reactor), addr) {
            assert!(
                late.invoke(&status).is_err(),
                "server still serving after shutdown"
            );
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        reactor.shutdown();
    }
}
