//! The event loop: one thread driving every socket of the network edge.
//!
//! A [`Reactor`] owns a [`Poller`] and a set of connections, all
//! serviced by a single loop thread.  Other threads talk
//! to the loop through a command queue paired with a waker, so every
//! handle method is nonblocking:
//!
//! ```text
//!            Reactor handle (any thread)
//!   listen / broadcast / unlisten / shutdown
//!                    │  commands + wakeup
//!                    ▼
//!   ┌─────────────── event-loop thread ────────────────┐
//!   │ poll ─► accept ─► read ─► handler ─► outbox ─► … │
//!   └──────────────────────────────────────────────────┘
//! ```
//!
//! Handlers run on the loop thread and must not block; they consume
//! inbound bytes and queue outbound frames through [`ConnIo`].  Outbound
//! frames are `Arc<Vec<u8>>`, so a broadcast enqueues one allocation on
//! every subscriber — encode once, write N.

use crate::conn::{Conn, PushOutcome, SocketCounters, SocketStats};
use crate::poller::{Backend, Interest, Poller, Readiness, Source, Waker};
use jamm_core::channel::{unbounded, Receiver, Sender};
use jamm_core::sync::Mutex;
use jamm_core::OverflowPolicy;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies a connection on a reactor (also its poller token).
pub type ConnId = u64;

/// Identifies a listening socket on a reactor.
pub type ListenerId = u64;

/// Why a connection was closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed or reset the stream.
    PeerClosed,
    /// A handler or handle asked for the close.
    Requested,
    /// The reactor shut down (after draining queued frames).
    Drained,
    /// An I/O error on the socket.
    Error(String),
}

/// Tuning for [`Reactor::start`].  Connections have no idle timeout, and
/// each flush writes at most a fixed 256 KiB to one socket.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Readiness backend (defaults to the platform's best).
    pub backend: Backend,
    /// Most simultaneous connections; accepts beyond this are refused.
    pub max_connections: usize,
    /// Byte budget of each connection's outbound queue.
    pub outbox_capacity: usize,
    /// What a full outbound queue does to new frames.
    pub overflow: OverflowPolicy,
    /// How long shutdown waits for queued frames to drain.
    pub drain_timeout: Duration,
    /// Name of the loop thread.
    pub thread_name: String,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            backend: Backend::native(),
            max_connections: 16_384,
            outbox_capacity: 4 * 1024 * 1024,
            overflow: OverflowPolicy::DropOldest,
            drain_timeout: Duration::from_secs(2),
            thread_name: "jamm-reactor".to_string(),
        }
    }
}

/// Callbacks for one connection, invoked on the loop thread.
///
/// Handlers must not block: they consume inbound bytes, queue outbound
/// frames and return.
pub trait ConnHandler: Send {
    /// The connection is registered and writable state is fresh.
    fn on_open(&mut self, _io: &mut ConnIo<'_>) {}

    /// Buffered inbound bytes are available.  Return how many bytes of
    /// `buf` were consumed; the rest is kept and re-presented (with more
    /// data appended) on the next read.
    fn on_data(&mut self, io: &mut ConnIo<'_>, buf: &[u8]) -> usize;

    /// The connection is gone.  Always the last callback.
    fn on_close(&mut self, _id: ConnId, _reason: &CloseReason) {}
}

/// Builds a [`ConnHandler`] for each connection a listener accepts.
pub trait Acceptor: Send {
    /// Called on the loop thread for every accepted connection.
    fn accept(&mut self, id: ConnId, peer: &str) -> Box<dyn ConnHandler>;
}

impl<F> Acceptor for F
where
    F: FnMut(ConnId, &str) -> Box<dyn ConnHandler> + Send,
{
    fn accept(&mut self, id: ConnId, peer: &str) -> Box<dyn ConnHandler> {
        self(id, peer)
    }
}

/// Handler-side view of the connection being serviced.
pub struct ConnIo<'a> {
    conn: &'a mut Conn,
}

impl ConnIo<'_> {
    /// The connection id.
    pub fn id(&self) -> ConnId {
        self.conn.id()
    }

    /// The peer address.
    pub fn peer(&self) -> &str {
        self.conn.peer()
    }

    /// Queue one encoded frame; the loop flushes it after the handler
    /// returns.
    pub fn send(&mut self, frame: Arc<Vec<u8>>) -> PushOutcome {
        self.conn.enqueue(frame)
    }

    /// Request a graceful close: queued frames are flushed first.
    pub fn close(&mut self) {
        self.conn.begin_close();
    }

    /// The connection's shared counters.
    pub fn counters(&self) -> &Arc<SocketCounters> {
        self.conn.counters()
    }
}

/// One row of [`Reactor::socket_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketRow {
    /// Connection id.
    pub conn: ConnId,
    /// Peer address.
    pub peer: String,
    /// The listener that accepted it.
    pub listener: ListenerId,
    /// Counter snapshot.
    pub stats: SocketStats,
}

enum Cmd {
    Listen {
        id: ListenerId,
        listener: TcpListener,
        acceptor: Box<dyn Acceptor>,
    },
    Broadcast {
        listener: ListenerId,
        frame: Arc<Vec<u8>>,
    },
    Unlisten {
        listener: ListenerId,
        close_conns: bool,
    },
    Shutdown,
}

struct RegEntry {
    peer: String,
    listener: ListenerId,
    counters: Arc<SocketCounters>,
}

#[derive(Default)]
struct Shared {
    registry: Mutex<HashMap<ConnId, RegEntry>>,
    conn_count: AtomicUsize,
    refused: AtomicU64,
    next_id: AtomicU64,
    ticks: AtomicU64,
    poll_wait_ns: AtomicU64,
    dispatch_ns: AtomicU64,
}

/// Point-in-time copy of the event loop's saturation counters: how the
/// loop thread's time divides between waiting in `poll(2)` and dispatching
/// ready work.  A loop spending most of its time dispatching is the
/// single-threaded edge's bottleneck signal — it has no headroom for more
/// subscribers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Completed loop iterations.
    pub ticks: u64,
    /// Nanoseconds spent blocked in the poller waiting for readiness.
    pub poll_wait_ns: u64,
    /// Nanoseconds spent dispatching ready sockets and commands.
    pub dispatch_ns: u64,
}

impl LoopStats {
    /// Fraction of loop time spent dispatching (0.0 = idle, 1.0 = saturated).
    pub fn saturation(&self) -> f64 {
        let total = self.poll_wait_ns + self.dispatch_ns;
        if total == 0 {
            0.0
        } else {
            self.dispatch_ns as f64 / total as f64
        }
    }
}

/// Handle to a running reactor.  All methods are nonblocking except
/// [`Reactor::shutdown`]; the handle is `Send + Sync` and usable behind an
/// `Arc` from any number of threads.
pub struct Reactor {
    cmds: Sender<Cmd>,
    waker: Waker,
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("connections", &self.connections())
            .finish()
    }
}

impl Reactor {
    /// Spawn the event-loop thread.
    pub fn start(config: ReactorConfig) -> io::Result<Reactor> {
        let (tx, rx) = unbounded();
        let (waker, wake_rx) = Waker::pair()?;
        let shared = Arc::new(Shared {
            // Token 0 is reserved for the waker.
            next_id: AtomicU64::new(1),
            ..Shared::default()
        });
        let name = config.thread_name.clone();
        let lp = EventLoop::new(config, rx, wake_rx, waker.clone(), Arc::clone(&shared));
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || lp.run())?;
        Ok(Reactor {
            cmds: tx,
            waker,
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    fn submit(&self, cmd: Cmd) {
        if self.cmds.send(cmd).is_ok() {
            self.waker.wake();
        }
    }

    /// Register a listening socket; `acceptor` builds a handler for every
    /// connection it accepts.
    pub fn listen(
        &self,
        listener: TcpListener,
        acceptor: Box<dyn Acceptor>,
    ) -> io::Result<ListenerId> {
        listener.set_nonblocking(true)?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit(Cmd::Listen {
            id,
            listener,
            acceptor,
        });
        Ok(id)
    }

    /// Queue the same encoded frame on every connection accepted by
    /// `listener` — encode once, write N.
    pub fn broadcast(&self, listener: ListenerId, frame: Arc<Vec<u8>>) {
        self.submit(Cmd::Broadcast { listener, frame });
    }

    /// Stop accepting on one listener.  With `close_conns`, also gracefully
    /// close (flush, then drop) every connection it accepted — other
    /// listeners' connections are untouched, so several edges
    /// can share one reactor and tear down independently.
    pub fn unlisten(&self, listener: ListenerId, close_conns: bool) {
        self.submit(Cmd::Unlisten {
            listener,
            close_conns,
        });
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.shared.conn_count.load(Ordering::Relaxed)
    }

    /// Accepts refused because `max_connections` was reached.
    pub fn refused(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }

    /// Saturation counters for the loop thread: poll-wait vs dispatch time.
    pub fn loop_stats(&self) -> LoopStats {
        LoopStats {
            ticks: self.shared.ticks.load(Ordering::Relaxed),
            poll_wait_ns: self.shared.poll_wait_ns.load(Ordering::Relaxed),
            dispatch_ns: self.shared.dispatch_ns.load(Ordering::Relaxed),
        }
    }

    /// Counter snapshot of every live connection, ordered by id.
    pub fn socket_stats(&self) -> Vec<SocketRow> {
        let reg = self.shared.registry.lock();
        let mut rows: Vec<SocketRow> = reg
            .iter()
            .map(|(&conn, e)| SocketRow {
                conn,
                peer: e.peer.clone(),
                listener: e.listener,
                stats: e.counters.snapshot(),
            })
            .collect();
        rows.sort_by_key(|r| r.conn);
        rows
    }

    /// Drain outbound queues, close every connection and stop the loop.
    /// Blocks until the loop thread exits; idempotent.
    pub fn shutdown(&self) {
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            self.submit(Cmd::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const WAKE_TOKEN: u64 = 0;
const IDLE_POLL: Duration = Duration::from_millis(250);
const DRAIN_POLL: Duration = Duration::from_millis(5);
/// Most outbound bytes written to one connection per flush, so one deep
/// outbox cannot starve the other sockets of a loop iteration.
const WRITE_BUDGET: usize = 256 * 1024;

struct LoopConn {
    conn: Conn,
    handler: Box<dyn ConnHandler>,
    listener: ListenerId,
    interest: Interest,
}

struct EventLoop {
    cfg: ReactorConfig,
    poller: Poller,
    cmds: Receiver<Cmd>,
    wake_rx: UdpSocket,
    waker: Waker,
    shared: Arc<Shared>,
    listeners: HashMap<u64, (TcpListener, Box<dyn Acceptor>)>,
    conns: HashMap<u64, LoopConn>,
    draining: Option<Instant>,
    scratch: Vec<u8>,
    scratch_ids: Vec<u64>,
}

impl EventLoop {
    fn new(
        cfg: ReactorConfig,
        cmds: Receiver<Cmd>,
        wake_rx: UdpSocket,
        waker: Waker,
        shared: Arc<Shared>,
    ) -> EventLoop {
        let mut poller = Poller::new(cfg.backend);
        poller.register(WAKE_TOKEN, Source::new(&wake_rx), Interest::READ);
        EventLoop {
            cfg,
            poller,
            cmds,
            wake_rx,
            waker,
            shared,
            listeners: HashMap::new(),
            conns: HashMap::new(),
            draining: None,
            scratch: vec![0u8; 64 * 1024],
            scratch_ids: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut readiness: Vec<Readiness> = Vec::new();
        loop {
            if let Some(deadline) = self.draining {
                // Draining: close flushed connections, force the rest once
                // the deadline passes.
                self.scratch_ids.clear();
                let force = Instant::now() >= deadline;
                for (&id, lc) in &self.conns {
                    if force || !lc.conn.wants_write() {
                        self.scratch_ids.push(id);
                    }
                }
                let ids = std::mem::take(&mut self.scratch_ids);
                for id in &ids {
                    self.close_conn(*id, CloseReason::Drained);
                }
                self.scratch_ids = ids;
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self.poll_timeout();
            let wait_start = Instant::now();
            if self.poller.poll(timeout, &mut readiness).is_err() {
                // A poll-level error (e.g. a racing close left a bad fd) is
                // not actionable per-connection; back off briefly.
                std::thread::sleep(Duration::from_millis(1));
            }
            let dispatch_start = Instant::now();
            self.shared.poll_wait_ns.fetch_add(
                (dispatch_start - wait_start).as_nanos() as u64,
                Ordering::Relaxed,
            );
            let events = std::mem::take(&mut readiness);
            for &r in &events {
                if r.token == WAKE_TOKEN {
                    // Before `drain_cmds` below: a submit that found the
                    // waker armed relies on that order.
                    self.waker.drain(&self.wake_rx);
                } else if self.listeners.contains_key(&r.token) {
                    self.accept_ready(r.token);
                } else {
                    self.conn_ready(r);
                }
            }
            readiness = events;
            self.drain_cmds();
            self.shared.dispatch_ns.fetch_add(
                dispatch_start.elapsed().as_nanos() as u64,
                Ordering::Relaxed,
            );
            self.shared.ticks.fetch_add(1, Ordering::Relaxed);
        }
        // Loop exit: everything is already closed (draining loop above).
    }

    fn poll_timeout(&self) -> Duration {
        if self.draining.is_some() {
            DRAIN_POLL
        } else {
            IDLE_POLL
        }
    }

    fn accept_ready(&mut self, token: u64) {
        loop {
            let accepted = {
                let Some((listener, acceptor)) = self.listeners.get_mut(&token) else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, addr)) => {
                        if self.conns.len() >= self.cfg.max_connections {
                            self.shared.refused.fetch_add(1, Ordering::Relaxed);
                            drop(stream);
                            continue;
                        }
                        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
                        let peer = addr.to_string();
                        let handler = acceptor.accept(id, &peer);
                        Some((id, stream, peer, handler))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Transient accept failure (EMFILE, aborted
                        // handshake): count it and let the next readiness
                        // event retry.
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            };
            match accepted {
                Some((id, stream, peer, handler)) => {
                    self.install_conn(id, stream, peer, handler, token);
                }
                None => return,
            }
        }
    }

    fn install_conn(
        &mut self,
        id: ConnId,
        stream: TcpStream,
        peer: String,
        mut handler: Box<dyn ConnHandler>,
        listener: ListenerId,
    ) {
        if let Err(e) = stream.set_nonblocking(true) {
            self.shared.refused.fetch_add(1, Ordering::Relaxed);
            handler.on_close(id, &CloseReason::Error(e.to_string()));
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn = Conn::new(
            id,
            stream,
            peer.clone(),
            self.cfg.outbox_capacity,
            self.cfg.overflow,
        );
        self.poller
            .register(id, conn.poller_source(), Interest::READ);
        self.shared.registry.lock().insert(
            id,
            RegEntry {
                peer,
                listener,
                counters: Arc::clone(conn.counters()),
            },
        );
        self.shared.conn_count.fetch_add(1, Ordering::Relaxed);
        let mut lc = LoopConn {
            conn,
            handler,
            listener,
            interest: Interest::READ,
        };
        lc.handler.on_open(&mut ConnIo { conn: &mut lc.conn });
        self.conns.insert(id, lc);
        self.after_io(id);
    }

    fn conn_ready(&mut self, r: Readiness) {
        let mut close: Option<CloseReason> = None;
        {
            let Some(lc) = self.conns.get_mut(&r.token) else {
                return;
            };
            if r.readable && !lc.conn.is_closing() {
                let mut scratch = std::mem::take(&mut self.scratch);
                let read = lc.conn.fill_inbuf(&mut scratch);
                self.scratch = scratch;
                match read {
                    Ok((n, eof)) => {
                        if n > 0 {
                            let buf = lc.conn.take_inbuf();
                            let consumed = lc
                                .handler
                                .on_data(&mut ConnIo { conn: &mut lc.conn }, &buf)
                                .min(buf.len());
                            let mut buf = buf;
                            if consumed > 0 {
                                buf.drain(..consumed);
                            }
                            lc.conn.restore_inbuf(buf);
                        }
                        if eof {
                            close = Some(CloseReason::PeerClosed);
                        }
                    }
                    Err(e) => close = Some(close_reason_for(&e)),
                }
            } else if r.hangup && !lc.conn.wants_write() {
                // Error/hangup on a connection we are not reading from.
                close = Some(CloseReason::PeerClosed);
            }
        }
        if let Some(reason) = close {
            self.close_conn(r.token, reason);
        } else {
            self.flush_conn(r.token);
        }
    }

    /// Flush pending output and settle the connection's state: close it if
    /// flushing failed or a graceful close finished, otherwise refresh its
    /// poller interest.
    fn flush_conn(&mut self, id: ConnId) {
        let mut close: Option<CloseReason> = None;
        if let Some(lc) = self.conns.get_mut(&id) {
            if lc.conn.wants_write() {
                if let Err(e) = lc.conn.flush(WRITE_BUDGET) {
                    close = Some(close_reason_for(&e));
                }
            }
        } else {
            return;
        }
        if let Some(reason) = close {
            self.close_conn(id, reason);
        } else {
            self.after_io(id);
        }
    }

    fn after_io(&mut self, id: ConnId) {
        let Some(lc) = self.conns.get_mut(&id) else {
            return;
        };
        if lc.conn.is_closing() && !lc.conn.wants_write() {
            self.close_conn(id, CloseReason::Requested);
            return;
        }
        let want = Interest {
            read: !lc.conn.is_closing(),
            write: lc.conn.wants_write(),
        };
        if want != lc.interest {
            lc.interest = want;
            self.poller.set_interest(id, want);
        }
    }

    fn close_conn(&mut self, id: ConnId, reason: CloseReason) {
        if let Some(mut lc) = self.conns.remove(&id) {
            lc.handler.on_close(id, &reason);
            self.poller.deregister(id);
            self.shared.registry.lock().remove(&id);
            self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            // Dropping `lc.conn` closes the stream.
        }
    }

    fn deliver(&mut self, id: ConnId, frame: Arc<Vec<u8>>) {
        {
            let Some(lc) = self.conns.get_mut(&id) else {
                return;
            };
            if lc.conn.is_closing() {
                return;
            }
            lc.conn.enqueue(frame);
        }
        // Eager flush keeps broadcast latency low and frees the queue slot
        // before the next batch.
        self.flush_conn(id);
    }

    fn drain_cmds(&mut self) {
        while let Ok(cmd) = self.cmds.try_recv() {
            match cmd {
                Cmd::Listen {
                    id,
                    listener,
                    acceptor,
                } => {
                    if self.draining.is_some() {
                        continue;
                    }
                    self.poller
                        .register(id, Source::new(&listener), Interest::READ);
                    self.listeners.insert(id, (listener, acceptor));
                    // Connections may already be queued on the backlog.
                    self.accept_ready(id);
                }
                Cmd::Broadcast { listener, frame } => {
                    self.scratch_ids.clear();
                    for (&id, lc) in &self.conns {
                        if lc.listener == listener {
                            self.scratch_ids.push(id);
                        }
                    }
                    let ids = std::mem::take(&mut self.scratch_ids);
                    for &id in &ids {
                        self.deliver(id, Arc::clone(&frame));
                    }
                    self.scratch_ids = ids;
                }
                Cmd::Unlisten {
                    listener,
                    close_conns,
                } => {
                    if self.listeners.remove(&listener).is_some() {
                        self.poller.deregister(listener);
                    }
                    if close_conns {
                        self.scratch_ids.clear();
                        for (&id, lc) in &mut self.conns {
                            if lc.listener == listener {
                                lc.conn.begin_close();
                                self.scratch_ids.push(id);
                            }
                        }
                        let ids = std::mem::take(&mut self.scratch_ids);
                        for &id in &ids {
                            self.flush_conn(id);
                        }
                        self.scratch_ids = ids;
                    }
                }
                Cmd::Shutdown => {
                    if self.draining.is_none() {
                        self.draining = Some(Instant::now() + self.cfg.drain_timeout);
                        // scratch_ids may hold connection ids left over
                        // from a Broadcast/Unlisten restore; deregistering
                        // those would strand their queued frames.
                        self.scratch_ids.clear();
                        for &id in self.listeners.keys() {
                            self.scratch_ids.push(id);
                        }
                        let ids = std::mem::take(&mut self.scratch_ids);
                        for &id in &ids {
                            self.poller.deregister(id);
                            self.listeners.remove(&id);
                        }
                        self.scratch_ids = ids;
                        // Stop reading; what remains is flush-and-close.
                        for (&id, lc) in &mut self.conns {
                            lc.conn.begin_close();
                            let want = Interest {
                                read: false,
                                write: lc.conn.wants_write(),
                            };
                            lc.interest = want;
                            self.poller.set_interest(id, want);
                        }
                    }
                }
            }
        }
    }
}

fn close_reason_for(e: &io::Error) -> CloseReason {
    match e.kind() {
        io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset => CloseReason::PeerClosed,
        _ => CloseReason::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;

    /// Echoes every byte back and records close reasons.
    struct Echo {
        closed: Arc<AtomicBool>,
    }

    impl ConnHandler for Echo {
        fn on_data(&mut self, io: &mut ConnIo<'_>, buf: &[u8]) -> usize {
            io.send(Arc::new(buf.to_vec()));
            buf.len()
        }

        fn on_close(&mut self, _id: ConnId, _reason: &CloseReason) {
            self.closed.store(true, Ordering::SeqCst);
        }
    }

    fn echo_acceptor(closed: Arc<AtomicBool>) -> Box<dyn Acceptor> {
        Box::new(move |_id: ConnId, _peer: &str| {
            Box::new(Echo {
                closed: Arc::clone(&closed),
            }) as Box<dyn ConnHandler>
        })
    }

    fn start_with(backend: Backend, tweak: impl FnOnce(&mut ReactorConfig)) -> Reactor {
        let mut cfg = ReactorConfig {
            backend,
            ..ReactorConfig::default()
        };
        tweak(&mut cfg);
        Reactor::start(cfg).unwrap()
    }

    #[test]
    fn loop_stats_count_ticks_and_split_wait_from_dispatch() {
        let closed = Arc::new(AtomicBool::new(false));
        let reactor = start_with(Backend::native(), |_| {});
        let listener = reactor
            .listen(
                TcpListener::bind("127.0.0.1:0").unwrap(),
                echo_acceptor(closed),
            )
            .unwrap();
        // A submit to an idle loop wakes it, so a few broadcasts force
        // ticks.
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.loop_stats().ticks < 3 {
            assert!(Instant::now() < deadline, "loop never ticked");
            reactor.broadcast(listener, Arc::new(vec![0u8]));
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = reactor.loop_stats();
        assert!(stats.ticks >= 3);
        assert!(stats.poll_wait_ns + stats.dispatch_ns > 0);
        let s = stats.saturation();
        assert!((0.0..=1.0).contains(&s), "saturation {s} out of range");
        assert_eq!(LoopStats::default().saturation(), 0.0);
        reactor.shutdown();
    }

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Poll, Backend::Sweep]
        } else {
            vec![Backend::Sweep]
        }
    }

    #[test]
    fn echo_round_trip_on_every_backend() {
        for backend in backends() {
            let reactor = start_with(backend, |_| {});
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            reactor
                .listen(listener, echo_acceptor(Arc::new(AtomicBool::new(false))))
                .unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"ping pong").unwrap();
            let mut back = [0u8; 9];
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client.read_exact(&mut back).unwrap();
            assert_eq!(&back, b"ping pong", "{backend:?}");
            reactor.shutdown();
        }
    }

    #[test]
    fn broadcast_reaches_every_subscriber() {
        let reactor = start_with(Backend::native(), |_| {});
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        struct Quiet;
        impl ConnHandler for Quiet {
            fn on_data(&mut self, _io: &mut ConnIo<'_>, buf: &[u8]) -> usize {
                buf.len()
            }
        }
        let lid = reactor
            .listen(
                listener,
                Box::new(|_id: ConnId, _peer: &str| Box::new(Quiet) as Box<dyn ConnHandler>),
            )
            .unwrap();
        let mut clients: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.connections() < 8 {
            assert!(Instant::now() < deadline, "subscribers never registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let frame = Arc::new(b"broadcast-frame".to_vec());
        reactor.broadcast(lid, frame);
        for c in &mut clients {
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut got = [0u8; 15];
            c.read_exact(&mut got).unwrap();
            assert_eq!(&got, b"broadcast-frame");
        }
        reactor.shutdown();
    }

    #[test]
    fn broadcasts_from_another_thread_never_wait_out_the_idle_poll() {
        const FRAMES: usize = 2_000;
        let reactor = start_with(Backend::native(), |_| {});
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        struct Quiet;
        impl ConnHandler for Quiet {
            fn on_data(&mut self, _io: &mut ConnIo<'_>, buf: &[u8]) -> usize {
                buf.len()
            }
        }
        let lid = reactor
            .listen(
                listener,
                Box::new(|_id: ConnId, _peer: &str| Box::new(Quiet) as Box<dyn ConnHandler>),
            )
            .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.connections() < 1 {
            assert!(Instant::now() < deadline, "subscriber never registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A wake the loop swallows leaves the waker armed with nothing to
        // read, so every later command waits for the poll to time out:
        // a frame or the shutdown then takes close to IDLE_POLL.  Bursts
        // keep the sender submitting while the loop takes a wake-up, and
        // the gaps let the loop fall idle so a lost wake shows.
        let (sent, arrived) = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                (0..FRAMES as u64)
                    .map(|i| {
                        let at = Instant::now();
                        reactor.broadcast(lid, Arc::new(i.to_le_bytes().to_vec()));
                        if i % 100 == 99 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        at
                    })
                    .collect::<Vec<Instant>>()
            });
            let mut arrived = Vec::with_capacity(FRAMES);
            let mut frame = [0u8; 8];
            for i in 0..FRAMES as u64 {
                client.read_exact(&mut frame).unwrap();
                arrived.push(Instant::now());
                assert_eq!(u64::from_le_bytes(frame), i);
            }
            (sender.join().unwrap(), arrived)
        });
        let worst = sent
            .iter()
            .zip(&arrived)
            .map(|(s, a)| a.saturating_duration_since(*s))
            .max()
            .unwrap();
        assert!(worst < IDLE_POLL / 2, "a broadcast waited {worst:?}");
        let start = Instant::now();
        reactor.shutdown();
        let shutdown = start.elapsed();
        assert!(shutdown < IDLE_POLL / 2, "the shutdown waited {shutdown:?}");
    }

    #[test]
    fn shutdown_drains_queued_frames_and_closes_every_conn() {
        let closed = Arc::new(AtomicBool::new(false));
        let reactor = start_with(Backend::native(), |_| {});
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lid = reactor
            .listen(listener, echo_acceptor(Arc::clone(&closed)))
            .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.connections() < 1 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = Arc::new(vec![7u8; 128 * 1024]);
        reactor.broadcast(lid, Arc::clone(&payload));
        reactor.shutdown();
        assert_eq!(reactor.connections(), 0, "shutdown left live connections");
        assert!(closed.load(Ordering::SeqCst), "on_close never ran");
        // Every queued byte arrived before the close.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), payload.len());
        assert!(got.iter().all(|&b| b == 7));
    }

    /// Regression: `Cmd::Broadcast` parks connection ids in `scratch_ids`
    /// and restores them after the fan-out.  `Cmd::Shutdown` must clear
    /// that scratch before collecting listener ids — reusing the stale
    /// contents deregistered live connections, so their still-queued
    /// frames never got another writable event and were force-dropped at
    /// the drain deadline.  Broadcast-then-shutdown with more queued
    /// bytes than the kernel socket buffers take must still deliver
    /// everything, quickly.
    #[test]
    fn broadcast_then_shutdown_drains_stalled_connections() {
        let reactor = start_with(Backend::native(), |cfg| {
            cfg.outbox_capacity = 64 * 1024 * 1024;
            cfg.drain_timeout = Duration::from_secs(10);
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lid = reactor
            .listen(listener, echo_acceptor(Arc::new(AtomicBool::new(false))))
            .unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.connections() < 1 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        // Far more than loopback socket buffering: the connection still
        // wants_write when Shutdown lands right after Broadcast.
        let payload = Arc::new(vec![9u8; 16 * 1024 * 1024]);
        let reader = std::thread::spawn(move || {
            let mut client = client;
            client
                .set_read_timeout(Some(Duration::from_secs(8)))
                .unwrap();
            let mut got = Vec::new();
            client.read_to_end(&mut got).unwrap();
            got
        });
        reactor.broadcast(lid, Arc::clone(&payload));
        let start = Instant::now();
        reactor.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown stalled to the drain deadline: {:?}",
            start.elapsed()
        );
        let got = reader.join().unwrap();
        assert_eq!(got.len(), payload.len(), "queued frames were dropped");
        assert!(got.iter().all(|&b| b == 9));
    }

    #[test]
    fn max_connections_refuses_the_overflow() {
        let reactor = start_with(Backend::native(), |cfg| {
            cfg.max_connections = 2;
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor
            .listen(listener, echo_acceptor(Arc::new(AtomicBool::new(false))))
            .unwrap();
        let _keep: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.refused() < 2 {
            assert!(
                Instant::now() < deadline,
                "refused = {}, connections = {}",
                reactor.refused(),
                reactor.connections()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reactor.connections(), 2);
        reactor.shutdown();
    }

    #[test]
    fn socket_stats_expose_per_connection_counters() {
        let reactor = start_with(Backend::native(), |_| {});
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let token = reactor
            .listen(listener, echo_acceptor(Arc::new(AtomicBool::new(false))))
            .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"0123456789").unwrap();
        let mut back = [0u8; 10];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.read_exact(&mut back).unwrap();
        // The loop thread updates counters just after the write syscall, so
        // give the (eventually consistent) stats a moment to catch up.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let rows = reactor.socket_stats();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].listener, token);
            if rows[0].stats.bytes_in == 10 && rows[0].stats.bytes_out == 10 {
                break;
            }
            assert!(Instant::now() < deadline, "counters stuck at {rows:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        reactor.shutdown();
    }
}
