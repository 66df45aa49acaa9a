//! The reactor-backed gateway subscriber transport.
//!
//! An [`EventEdge`] is the network face of one gateway: subscribers open a
//! plain TCP connection and receive the gateway's event stream as encoded
//! ULM frames.  The paper's scaling claim — adding consumers loads the
//! gateway, not the monitored host — lives or dies here, so the edge is
//! built around two invariants:
//!
//! * **Encode once, write N.**  A pump thread drains the gateway
//!   subscription in batches and encodes each batch exactly once into one
//!   buffer; the reactor then queues that same `Arc<Vec<u8>>` on every
//!   subscriber connection.  A thousand subscribers cost a thousand
//!   refcount bumps and `write` calls, not a thousand encodes.
//! * **Zero event copies.**  Events travel as
//!   [`SharedEvent`](jamm_ulm::SharedEvent) `Arc`s from the gateway's
//!   fan-out to the encoder; nothing in this path deep-clones an event
//!   (`jamm_ulm::deep_clone_count()` is flat across a broadcast, asserted
//!   by the `e17_reactor_edge` bench).
//!
//! Backpressure is per connection: each subscriber socket has a 4 MiB
//! outbox that drops its oldest frames when full, so one slow consumer
//! stalls — and, if it stays slow, loses — only its own frames.
//! Subscribers only read; whatever one sends is drained by the reactor in
//! bounded reads, counted and dropped.  The per-socket counters surface
//! through [`EventEdge::socket_stats`] and `JammSystem::admin_stats`.

use std::io;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jamm_core::channel::{bounded, Receiver, Sender};
use jamm_core::sync::Mutex;
use jamm_core::{Backoff, BreakerState, BreakerStats, CircuitBreaker};
use jamm_gateway::EventGateway;
use jamm_reactor::{ListenerId, Reactor, SocketRow};
use jamm_ulm::keys::jamm::{EDGE_BROADCAST, EDGE_CONSUMER, EDGE_ENCODE, SUB_DRAIN};
use jamm_ulm::{binary, Event};

/// Most events encoded into one broadcast frame.
const BATCH_MAX: usize = 512;
/// Decoded-event queue capacity of an [`EdgeClient`].
const CLIENT_CAPACITY: usize = 8192;
/// How long one [`EdgeClient`] connection attempt may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Frame bodies larger than this are a protocol error: the client drops
/// the connection rather than buffer them.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Configuration for [`EventEdge::open`].
///
/// The edge subscribes to every event of its gateway as
/// [`EDGE_CONSUMER`], dropping the oldest queued event when the
/// subscription queue is full, and broadcasts binary ULM frames.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Address to bind the subscriber listener on.
    pub bind: String,
    /// Gateway subscription queue capacity (events).
    pub capacity: usize,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            bind: "127.0.0.1:0".to_string(),
            capacity: 8192,
        }
    }
}

/// Errors opening an edge.
#[derive(Debug)]
pub enum EdgeError {
    /// Socket setup failed.
    Io(io::Error),
    /// The gateway refused the subscription (access policy).
    Gateway(String),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Io(e) => write!(f, "edge I/O error: {e}"),
            EdgeError::Gateway(e) => write!(f, "edge subscription refused: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {}

impl From<io::Error> for EdgeError {
    fn from(e: io::Error) -> Self {
        EdgeError::Io(e)
    }
}

/// Pump-side counters (broadcast work, not per-socket I/O).
#[derive(Debug, Default)]
struct EdgeCounters {
    batches: AtomicU64,
    events: AtomicU64,
    encoded_bytes: AtomicU64,
}

/// Cloneable handle to an edge's broadcast counters: metric collectors
/// read the pump's totals through this without borrowing the edge itself.
#[derive(Debug, Clone)]
pub struct EdgeStatsHandle {
    counters: Arc<EdgeCounters>,
}

impl EdgeStatsHandle {
    /// Current broadcast counters.
    pub fn stats(&self) -> EdgeStats {
        EdgeStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
            encoded_bytes: self.counters.encoded_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of the edge's broadcast counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Batches encoded and broadcast.
    pub batches: u64,
    /// Events those batches carried.
    pub events: u64,
    /// Bytes encoded (once per batch, regardless of subscriber count).
    pub encoded_bytes: u64,
}

/// The reactor-backed subscriber transport of one gateway.
///
/// The pump thread lives as long as its gateway subscription: it ends
/// once [`EventEdge::stop`] has unsubscribed and it has broadcast every
/// event that was still queued.
pub struct EventEdge {
    addr: SocketAddr,
    reactor: Arc<Reactor>,
    listener: ListenerId,
    gateway: Arc<EventGateway>,
    subscription_id: u64,
    counters: Arc<EdgeCounters>,
    pump: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for EventEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventEdge({} -> {})", self.gateway.name(), self.addr)
    }
}

impl EventEdge {
    /// Subscribe to `gateway` and start broadcasting its stream to every
    /// TCP connection accepted on `config.bind`.
    pub fn open(
        reactor: Arc<Reactor>,
        gateway: Arc<EventGateway>,
        config: EdgeConfig,
    ) -> Result<EventEdge, EdgeError> {
        let subscription = gateway
            .subscribe()
            .stream()
            .capacity(config.capacity)
            .as_consumer(EDGE_CONSUMER)
            .open()
            .map_err(|e| EdgeError::Gateway(e.to_string()))?;
        let subscription_id = subscription.id;

        let listener_sock = TcpListener::bind(&config.bind)?;
        let addr = listener_sock.local_addr()?;
        let listener = reactor.listen(listener_sock)?;

        let counters = Arc::new(EdgeCounters::default());
        let pump = {
            let reactor = Arc::clone(&reactor);
            let counters = Arc::clone(&counters);
            let tracer = gateway.tracer().cloned();
            let gw_name = gateway.name().to_string();
            std::thread::Builder::new()
                .name("jamm-edge-pump".to_string())
                .spawn(move || {
                    let mut batch = Vec::with_capacity(BATCH_MAX);
                    // The largest encoded event seen so far: the encode
                    // buffer is allocated once per batch at that size
                    // times the batch in hand, then handed to the reactor
                    // as the one shared copy of the bytes.
                    let mut event_bytes = 0usize;
                    // `recv` fails only once the queue is empty and the
                    // gateway has dropped its sender (`stop` unsubscribed),
                    // so everything queued before that is broadcast.
                    while let Ok(ev) = subscription.events.recv() {
                        batch.clear();
                        batch.push(ev);
                        while batch.len() < BATCH_MAX {
                            match subscription.events.try_recv() {
                                Ok(ev) => batch.push(ev),
                                Err(_) => break,
                            }
                        }
                        let traced: Vec<u64> = match &tracer {
                            Some(t) => batch.iter().filter_map(|e| t.trace_id(e)).collect(),
                            None => Vec::new(),
                        };
                        if let Some(t) = &tracer {
                            // Taken off the queue: the queue wait ends
                            // here and the encode hop starts.
                            for id in &traced {
                                t.stage_id(*id, SUB_DRAIN, EDGE_CONSUMER);
                            }
                        }
                        let mut buf = Vec::with_capacity(batch.len() * event_bytes);
                        for ev in &batch {
                            let start = buf.len();
                            // &SharedEvent derefs to &Event: no deep clone.
                            binary::encode_into(&mut buf, ev);
                            event_bytes = event_bytes.max(buf.len() - start);
                        }
                        if let Some(t) = &tracer {
                            for id in &traced {
                                t.stage_id(*id, EDGE_ENCODE, &gw_name);
                            }
                        }
                        counters.batches.fetch_add(1, Ordering::Relaxed);
                        counters
                            .events
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        counters
                            .encoded_bytes
                            .fetch_add(buf.len() as u64, Ordering::Relaxed);
                        // One Arc, N outboxes: encode once, write N.
                        reactor.broadcast(listener, Arc::new(buf));
                        if let Some(t) = &tracer {
                            // The frame is now queued on every subscriber
                            // outbox; socket writes happen on the loop
                            // thread after this point.
                            for id in &traced {
                                t.stage_id(*id, EDGE_BROADCAST, &gw_name);
                            }
                        }
                    }
                })
        };
        let pump = match pump {
            Ok(pump) => pump,
            Err(e) => {
                let _ = gateway.unsubscribe(subscription_id);
                reactor.unlisten(listener, true);
                return Err(EdgeError::Io(e));
            }
        };

        Ok(EventEdge {
            addr,
            reactor,
            listener,
            gateway,
            subscription_id,
            counters,
            pump: Some(pump),
        })
    }

    /// The address subscribers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The name of the gateway this edge broadcasts.
    pub fn gateway_name(&self) -> &str {
        self.gateway.name()
    }

    /// The listener id on the shared reactor.
    pub fn listener(&self) -> ListenerId {
        self.listener
    }

    /// Live subscriber connections.
    pub fn subscribers(&self) -> usize {
        self.reactor
            .socket_stats()
            .iter()
            .filter(|r| r.listener == self.listener)
            .count()
    }

    /// Per-subscriber socket counters (queued bytes, drops, stalls) — the
    /// slow-consumer observability rows of `admin_stats`.
    pub fn socket_stats(&self) -> Vec<SocketRow> {
        self.reactor
            .socket_stats()
            .into_iter()
            .filter(|r| r.listener == self.listener)
            .collect()
    }

    /// Broadcast-side counters.
    pub fn stats(&self) -> EdgeStats {
        self.stats_handle().stats()
    }

    /// Cloneable handle to the broadcast counters (outlives this borrow).
    pub fn stats_handle(&self) -> EdgeStatsHandle {
        EdgeStatsHandle {
            counters: Arc::clone(&self.counters),
        }
    }

    /// Unsubscribe from the gateway, wait for the pump to broadcast every
    /// event that was still queued, and close every subscriber connection
    /// once its queued frames are flushed.
    pub fn stop(&mut self) {
        if let Some(pump) = self.pump.take() {
            let _ = self.gateway.unsubscribe(self.subscription_id);
            let _ = pump.join();
            self.reactor.unlisten(self.listener, true);
        }
    }
}

impl Drop for EventEdge {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Configuration for [`EdgeClient::connect`]: the reconnect schedule.
///
/// The decoded-event queue holds 8,192 events and drops the oldest when
/// full; one connection attempt may take 5 s.
#[derive(Debug, Clone)]
pub struct EdgeClientConfig {
    /// First reconnect delay after a disconnect.
    pub retry_base: Duration,
    /// Reconnect-delay ceiling for an edge that stays down.
    pub retry_max: Duration,
    /// Socket read timeout; also bounds how fast `stop` is noticed.
    pub poll_interval: Duration,
}

impl Default for EdgeClientConfig {
    fn default() -> Self {
        EdgeClientConfig {
            retry_base: Duration::from_millis(250),
            retry_max: Duration::from_secs(30),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// Point-in-time counters of an [`EdgeClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeClientStats {
    /// Successful connects (the first one and every reconnect).
    pub connects: u64,
    /// Connections lost (EOF or read error).
    pub disconnects: u64,
    /// Events decoded and queued.
    pub received: u64,
    /// Events evicted because the decoded-event queue was full.
    pub dropped: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// The reconnect breaker's current state.
    pub state: BreakerState,
    /// The reconnect breaker's lifetime counters.
    pub breaker: BreakerStats,
}

/// Counters and breaker shared between the [`EdgeClient`] handle and its
/// reader thread.
struct ClientShared {
    connects: AtomicU64,
    disconnects: AtomicU64,
    received: AtomicU64,
    dropped: AtomicU64,
    decode_errors: AtomicU64,
    breaker: Mutex<CircuitBreaker>,
    origin: Instant,
}

impl ClientShared {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A self-healing subscriber to an [`EventEdge`] broadcast stream.
///
/// A reader thread owns the TCP connection: it decodes broadcast frames
/// back into [`Event`]s and queues them on a bounded channel read through
/// [`EdgeClient::events`].  When the edge dies, the thread trips a
/// [`CircuitBreaker`] and redials on a jittered-exponential backoff
/// schedule — reconnecting *resumes the subscription*, because an edge
/// streams to every accepted connection.  A permanently dead edge costs
/// one bounded connect attempt per backoff deadline, never a busy-loop,
/// and every transition is visible in [`EdgeClient::stats`].
pub struct EdgeClient {
    events: Receiver<Event>,
    stop: Arc<AtomicBool>,
    shared: Arc<ClientShared>,
    reader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for EdgeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "EdgeClient({:?}, {} connects, {} events)",
            s.state, s.connects, s.received
        )
    }
}

impl EdgeClient {
    /// Start a subscriber for the edge at `addr`.
    ///
    /// Returns immediately: the reader thread performs the first dial, so
    /// an edge that is not up *yet* is the same case as an edge that
    /// crashed — the client keeps probing on the backoff schedule until
    /// it appears.
    pub fn connect(addr: SocketAddr, config: EdgeClientConfig) -> Result<EdgeClient, EdgeError> {
        let (tx, rx) = bounded(CLIENT_CAPACITY);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ClientShared {
            connects: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            received: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(
                1,
                Backoff::new(
                    config.retry_base.as_micros() as u64,
                    config.retry_max.as_micros() as u64,
                    u64::from(addr.port()),
                ),
            )),
            origin: Instant::now(),
        });
        let reader = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let poll = config.poll_interval.max(Duration::from_millis(1));
            std::thread::Builder::new()
                .name("jamm-edge-client".to_string())
                .spawn(move || {
                    let mut buf: Vec<u8> = Vec::new();
                    let mut batch: Vec<Event> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        if !shared.breaker.lock().allow(shared.now_us()) {
                            // Bounded nap, not a spin: stop stays
                            // responsive while the breaker is open.
                            std::thread::sleep(poll);
                            continue;
                        }
                        let stream = match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                            Ok(s) => s,
                            Err(_) => {
                                shared.breaker.lock().record_failure(shared.now_us());
                                continue;
                            }
                        };
                        // A push stream has no response to await: the
                        // accepted connection is the probe's success.
                        shared.breaker.lock().record_success();
                        shared.connects.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_read_timeout(Some(poll));
                        buf.clear();
                        let mut stream = stream;
                        let mut chunk = [0u8; 16 * 1024];
                        let lost = loop {
                            if stop.load(Ordering::Relaxed) {
                                break false;
                            }
                            match stream.read(&mut chunk) {
                                Ok(0) => break true,
                                Ok(n) => {
                                    buf.extend_from_slice(&chunk[..n]);
                                    if !drain_frames(&mut buf, &shared, &tx, &mut batch) {
                                        break true;
                                    }
                                }
                                Err(e)
                                    if e.kind() == io::ErrorKind::WouldBlock
                                        || e.kind() == io::ErrorKind::TimedOut =>
                                {
                                    continue
                                }
                                Err(_) => break true,
                            }
                        };
                        if lost {
                            shared.disconnects.fetch_add(1, Ordering::Relaxed);
                            shared.breaker.lock().record_failure(shared.now_us());
                        }
                    }
                })?
        };
        Ok(EdgeClient {
            events: rx,
            stop,
            shared,
            reader: Some(reader),
        })
    }

    /// The decoded-event stream.
    pub fn events(&self) -> &Receiver<Event> {
        &self.events
    }

    /// Current counters, including the breaker's state.
    pub fn stats(&self) -> EdgeClientStats {
        let (state, breaker) = {
            let b = self.shared.breaker.lock();
            (b.state(), b.stats())
        };
        EdgeClientStats {
            connects: self.shared.connects.load(Ordering::Relaxed),
            disconnects: self.shared.disconnects.load(Ordering::Relaxed),
            received: self.shared.received.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            state,
            breaker,
        }
    }

    /// Stop the reader thread and close the connection.
    pub fn stop(&mut self) {
        if let Some(reader) = self.reader.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = reader.join();
        }
    }
}

impl Drop for EdgeClient {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decode every complete frame in `buf`, queue the events as one batch
/// (collected in `batch`, which keeps its allocation), and keep the
/// trailing partial frame for the next read.  Returns `false` when the
/// stream is unrecoverable (an oversized length prefix — resynchronising
/// a corrupt length-prefixed stream is not possible, so the connection is
/// dropped and the breaker paces the redial); the events decoded before
/// it are still queued.
fn drain_frames(
    buf: &mut Vec<u8>,
    shared: &ClientShared,
    tx: &Sender<Event>,
    batch: &mut Vec<Event>,
) -> bool {
    let mut consumed = 0usize;
    while let Some(total) = match frame_len(&buf[consumed..]) {
        Ok(total) => total,
        Err(()) => {
            shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            deliver(batch, tx, shared);
            return false;
        }
    } {
        // A binary frame decodes whole, length prefix included.
        match binary::decode(&buf[consumed..consumed + total]) {
            Ok((ev, _)) => batch.push(ev),
            Err(_) => {
                shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        consumed += total;
    }
    if consumed > 0 {
        buf.drain(..consumed);
    }
    deliver(batch, tx, shared);
    true
}

/// Total length (4-byte header included) of the `len || body` frame at the
/// start of `buf`.  Returns `Ok(None)` while incomplete, `Err` when the
/// header announces a body over [`MAX_FRAME`].
fn frame_len(buf: &[u8]) -> Result<Option<usize>, ()> {
    let [a, b, c, d, ..] = *buf else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME {
        return Err(());
    }
    Ok((buf.len() >= 4 + len).then_some(4 + len))
}

/// Queue one read's decoded events under one lock, evicting the oldest
/// queued events when full: `received` counts the events queued,
/// `dropped` the events evicted.  Leaves `batch` empty.
fn deliver(batch: &mut Vec<Event>, tx: &Sender<Event>, shared: &ClientShared) {
    let n = batch.len() as u64;
    let (queued, dropped) = match tx.send_batch(batch) {
        Ok(evicted) => (n, evicted as u64),
        Err(_) => (0, 0),
    };
    batch.clear();
    if queued > 0 {
        shared.received.fetch_add(queued, Ordering::Relaxed);
    }
    if dropped > 0 {
        shared.dropped.fetch_add(dropped, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::GatewayConfig;
    use jamm_reactor::ReactorConfig;
    use jamm_ulm::{Event, Level, SharedEvent, Timestamp};
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Instant;

    fn sample(i: u64) -> SharedEvent {
        Arc::new(
            Event::builder("dpss_master", "dpss1.lbl.gov")
                .level(Level::Usage)
                .event_type("DPSS_SERV_IN")
                .timestamp(Timestamp::from_micros(954_415_400_000_000 + i))
                .field("BLOCK.ID", i)
                .build(),
        )
    }

    fn wait_for(cond: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn subscribers_receive_broadcast_frames() {
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
        let gateway = Arc::new(EventGateway::new(GatewayConfig::open("edge-test")));
        let mut edge = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig::default(),
        )
        .unwrap();

        let mut subs: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(edge.addr()).unwrap())
            .collect();
        wait_for(|| edge.subscribers() == 3, "subscribers to register");

        let events: Vec<SharedEvent> = (0..10).map(sample).collect();
        gateway.publish_shared_batch(&events);

        let expected: usize = events.iter().map(|e| binary::encode(e).len()).sum();
        for s in &mut subs {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut got = vec![0u8; expected];
            s.read_exact(&mut got).unwrap();
            let decoded = binary::decode_all(&got).unwrap();
            assert_eq!(decoded.len(), 10);
            assert_eq!(decoded[0], *events[0]);
        }
        let stats = edge.stats();
        assert_eq!(stats.events, 10);
        // Encoded once per batch, not once per subscriber.
        assert_eq!(stats.encoded_bytes as usize, expected);

        edge.stop();
        wait_for(|| edge.subscribers() == 0, "subscribers to close");
        reactor.shutdown();
    }

    /// An `EdgeClient` decodes the broadcast stream; when the edge dies
    /// and a new one comes up on the same address, the client redials it
    /// within the breaker's backoff envelope and keeps receiving events —
    /// the reconnect resumes the subscription.
    #[test]
    fn edge_client_survives_an_edge_restart() {
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
        let gateway = Arc::new(EventGateway::new(GatewayConfig::open("edge-restart")));
        let mut edge = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig::default(),
        )
        .unwrap();
        let addr = edge.addr();

        let mut client = EdgeClient::connect(
            addr,
            EdgeClientConfig {
                retry_base: Duration::from_millis(10),
                retry_max: Duration::from_millis(50),
                poll_interval: Duration::from_millis(2),
            },
        )
        .unwrap();
        wait_for(|| client.stats().connects == 1, "first connect");
        wait_for(|| edge.subscribers() == 1, "edge to see the client");

        gateway.publish_shared(sample(1));
        let ev = client
            .events()
            .recv_timeout(Duration::from_secs(10))
            .expect("event before restart");
        assert_eq!(ev, *sample(1));

        // Kill the edge; the client loses the connection and its breaker
        // opens instead of busy-dialing the dead port.
        edge.stop();
        wait_for(|| client.stats().disconnects >= 1, "disconnect noticed");

        // A new edge appears on the same address; the client's next probe
        // redials it and events flow again.
        let mut edge2 = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig {
                bind: addr.to_string(),
                ..EdgeConfig::default()
            },
        )
        .unwrap();
        wait_for(|| client.stats().connects >= 2, "reconnect");
        wait_for(|| edge2.subscribers() == 1, "edge2 to see the client");

        gateway.publish_shared(sample(2));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.events().recv_timeout(Duration::from_millis(100)) {
                Ok(ev) if ev == *sample(2) => break,
                Ok(_) => {}
                Err(_) => assert!(Instant::now() < deadline, "no event after reconnect"),
            }
        }
        let stats = client.stats();
        assert!(stats.connects >= 2, "reconnect not counted: {stats:?}");
        assert_eq!(stats.state, BreakerState::Closed);

        client.stop();
        edge2.stop();
        reactor.shutdown();
    }

    /// A peer announcing a frame one byte over `MAX_FRAME` costs the client
    /// a decode error and the connection, never a panic or the buffer; the
    /// events framed before it are still delivered.
    #[test]
    fn an_oversized_frame_header_is_a_decode_error() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = EdgeClient::connect(
            listener.local_addr().unwrap(),
            EdgeClientConfig {
                retry_base: Duration::from_secs(30),
                poll_interval: Duration::from_millis(2),
                ..EdgeClientConfig::default()
            },
        )
        .unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut bytes = binary::encode(&sample(1));
        bytes.extend(binary::encode(&sample(2)));
        let max = MAX_FRAME as u32;
        bytes.extend((max + 1).to_le_bytes());
        peer.write_all(&bytes).unwrap();
        wait_for(|| client.stats().disconnects == 1, "the client to hang up");
        let stats = client.stats();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.received, 2);
        let got: Vec<Event> = client.events().try_iter().collect();
        assert_eq!(got, [(*sample(1)).clone(), (*sample(2)).clone()]);
        client.stop();
    }

    #[test]
    fn a_read_is_queued_whole_and_counted_per_event() {
        let shared = ClientShared {
            connects: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            received: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(1, Backoff::new(1, 1, 0))),
            origin: Instant::now(),
        };
        let events: Vec<Event> = (0..6).map(|i| (*sample(i)).clone()).collect();
        let (tx, rx) = bounded(4);
        let mut batch = events.clone();
        deliver(&mut batch, &tx, &shared);
        assert!(batch.is_empty());
        // All six were queued; the two oldest were evicted.
        assert_eq!(rx.try_iter().collect::<Vec<Event>>(), &events[2..]);
        assert_eq!(shared.received.load(Ordering::Relaxed), 6);
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 2);
    }

    /// 64-bit FNV-1a over the received stream.
    fn fnv64(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The bytes a default edge puts on the wire for a seeded batch are
    /// pinned: binary frames are self-delimiting, so the stream does not
    /// depend on where the pump split it into broadcast batches, and any
    /// change to framing or encoding shows here.
    #[test]
    fn wire_bytes_of_a_seeded_batch_are_pinned() {
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
        let gateway = Arc::new(EventGateway::new(GatewayConfig::open("edge-pin")));
        let mut edge = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig::default(),
        )
        .unwrap();
        let mut sub = TcpStream::connect(edge.addr()).unwrap();
        wait_for(|| edge.subscribers() == 1, "subscriber");

        let events: Vec<SharedEvent> = (0..300).map(sample).collect();
        gateway.publish_shared_batch(&events);
        wait_for(|| edge.stats().events == 300, "broadcast");
        edge.stop();

        sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        sub.read_to_end(&mut bytes).unwrap();
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            (23_100, 0x8ca3_eeeb_53b4_7075)
        );
        reactor.shutdown();
    }

    /// `stop()` right after a large publish still broadcasts every queued
    /// event before it closes the subscriber sockets.
    #[test]
    fn stop_delivers_what_was_queued() {
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
        let gateway = Arc::new(EventGateway::new(GatewayConfig::open("edge-stop")));
        let mut edge = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig::default(),
        )
        .unwrap();
        let mut sub = TcpStream::connect(edge.addr()).unwrap();
        wait_for(|| edge.subscribers() == 1, "subscriber");

        let events: Vec<SharedEvent> = (0..5_000).map(sample).collect();
        gateway.publish_shared_batch(&events);
        edge.stop();

        sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        sub.read_to_end(&mut bytes).unwrap();
        let decoded = binary::decode_all(&bytes).unwrap();
        assert_eq!(decoded.len(), events.len());
        assert!(decoded.iter().zip(&events).all(|(d, e)| d == &**e));
        reactor.shutdown();
    }

    #[test]
    fn edge_and_rmi_share_one_reactor() {
        let reactor = Arc::new(Reactor::start(ReactorConfig::default()).unwrap());
        let gateway = Arc::new(EventGateway::new(GatewayConfig::open("shared")));
        let mut edge = EventEdge::open(
            Arc::clone(&reactor),
            Arc::clone(&gateway),
            EdgeConfig::default(),
        )
        .unwrap();
        let _sub = TcpStream::connect(edge.addr()).unwrap();
        wait_for(|| edge.subscribers() == 1, "subscriber");
        gateway.publish_shared(sample(1));
        wait_for(|| edge.stats().events >= 1, "broadcast");
        // Tearing down the edge must not disturb other users of the
        // reactor.
        edge.stop();
        wait_for(|| edge.subscribers() == 0, "edge teardown");
        assert_eq!(reactor.connections(), 0);
        reactor.shutdown();
    }
}
