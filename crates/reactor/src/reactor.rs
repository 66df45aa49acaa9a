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
//!   ┌──────────────────── event-loop thread ─────────────────────┐
//!   │ poll ─► accept ─► drain inbound ─► queue commands ─► flush │
//!   └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The loop's only outbound traffic is a broadcast: the same
//! `Arc<Vec<u8>>` frame queued on every connection of one listener —
//! encode once, write N.  The loop pays per pass, not per frame: a pass
//! takes every queued command under one lock, queues each broadcast
//! frame on its connections without writing, and then flushes each
//! connection it touched once, with one vectored write of up to 32
//! frames.  A connection that has 256 KiB queued since its last flush is
//! flushed at once, so a pass never leaves more than that plus one frame
//! unwritten and drop-oldest evicts only what the socket refused.
//! Subscribers have nothing to say; whatever they send is read in
//! bounded passes, counted and dropped.

use crate::conn::{Conn, SocketCounters, SocketStats};
use crate::poller::{Backend, Interest, Poller, Readiness, Source, Waker};
use jamm_core::channel::{unbounded, Receiver, Sender};
use jamm_core::sync::Mutex;
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

/// Tuning for [`Reactor::start`].  Connections have no idle timeout;
/// each flush writes at most a fixed 256 KiB to one socket, each
/// connection queues at most 4 MiB of frames (a full queue drops its
/// oldest), and shutdown waits at most 2 s for queued frames to drain.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Readiness backend (defaults to the platform's best).
    pub backend: Backend,
    /// Most simultaneous connections; accepts beyond this are refused.
    pub max_connections: usize,
    /// Name of the loop thread.
    pub thread_name: String,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            backend: Backend::native(),
            max_connections: 16_384,
            thread_name: "jamm-reactor".to_string(),
        }
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

    /// Register a listening socket; every connection it accepts receives
    /// the listener's broadcasts.
    pub fn listen(&self, listener: TcpListener) -> io::Result<ListenerId> {
        listener.set_nonblocking(true)?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit(Cmd::Listen { id, listener });
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
/// How long shutdown waits for queued frames to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Most outbound bytes written to one connection per flush, so one deep
/// outbox cannot starve the other sockets of a loop iteration.
const WRITE_BUDGET: usize = 256 * 1024;

struct LoopConn {
    conn: Conn,
    listener: ListenerId,
    interest: Interest,
    /// Bytes queued since the connection's last flush.
    unflushed: usize,
    /// Listed in `EventLoop::dirty`, to be flushed at the end of the pass.
    dirty: bool,
}

struct EventLoop {
    cfg: ReactorConfig,
    poller: Poller,
    cmds: Receiver<Cmd>,
    wake_rx: UdpSocket,
    waker: Waker,
    shared: Arc<Shared>,
    listeners: HashMap<u64, TcpListener>,
    conns: HashMap<u64, LoopConn>,
    draining: Option<Instant>,
    scratch: Vec<u8>,
    scratch_ids: Vec<u64>,
    /// The commands one pass took off the queue.
    pass_cmds: Vec<Cmd>,
    /// Connections to flush once at the end of this pass.
    dirty: Vec<ConnId>,
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
            pass_cmds: Vec::new(),
            dirty: Vec::new(),
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
                for &id in &ids {
                    self.close_conn(id);
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
            self.flush_dirty();
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
            let Some(listener) = self.listeners.get(&token) else {
                return;
            };
            match listener.accept() {
                Ok((stream, addr)) => {
                    if self.conns.len() >= self.cfg.max_connections {
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.install_conn(stream, addr.to_string(), token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted
                    // handshake): count it and let the next readiness
                    // event retry.
                    self.shared.refused.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream, peer: String, listener: ListenerId) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.refused.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = Conn::new(stream);
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
        self.conns.insert(
            id,
            LoopConn {
                conn,
                listener,
                interest: Interest::READ,
                unflushed: 0,
                dirty: false,
            },
        );
    }

    fn conn_ready(&mut self, r: Readiness) {
        let Some(lc) = self.conns.get_mut(&r.token) else {
            return;
        };
        let open = if r.readable && !lc.conn.is_closing() {
            lc.conn.drain_inbound(&mut self.scratch)
        } else {
            // A hangup on a connection we no longer read from closes it
            // once nothing is queued for it.
            !r.hangup || lc.conn.wants_write()
        };
        if open {
            self.mark_dirty(r.token);
        } else {
            self.close_conn(r.token);
        }
    }

    /// List the connection for this pass's flush, once.
    fn mark_dirty(&mut self, id: ConnId) {
        if let Some(lc) = self.conns.get_mut(&id) {
            if !lc.dirty {
                lc.dirty = true;
                self.dirty.push(id);
            }
        }
    }

    /// The end of a pass: flush each listed connection once.  A
    /// connection closed during the pass is no longer in `conns` and is
    /// skipped.
    fn flush_dirty(&mut self) {
        let mut ids = std::mem::take(&mut self.dirty);
        for &id in &ids {
            if let Some(lc) = self.conns.get_mut(&id) {
                lc.dirty = false;
                self.flush_conn(id);
            }
        }
        ids.clear();
        self.dirty = ids;
    }

    /// Flush pending output and settle the connection's state: close it if
    /// flushing failed or a graceful close finished, otherwise refresh its
    /// poller interest.
    fn flush_conn(&mut self, id: ConnId) {
        let Some(lc) = self.conns.get_mut(&id) else {
            return;
        };
        lc.unflushed = 0;
        if lc.conn.flush(WRITE_BUDGET).is_err() {
            self.close_conn(id);
        } else {
            self.after_io(id);
        }
    }

    fn after_io(&mut self, id: ConnId) {
        let Some(lc) = self.conns.get_mut(&id) else {
            return;
        };
        if lc.conn.is_closing() && !lc.conn.wants_write() {
            self.close_conn(id);
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

    fn close_conn(&mut self, id: ConnId) {
        if self.conns.remove(&id).is_some() {
            self.poller.deregister(id);
            self.shared.registry.lock().remove(&id);
            self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            // Dropping the removed connection closes its stream.
        }
    }

    /// Queue one broadcast frame on the connection without writing it;
    /// the end of the pass flushes it.  Once `WRITE_BUDGET` bytes are
    /// queued since its last flush, the connection is flushed at once, so
    /// a long pass cannot push its outbox into drop-oldest while the
    /// socket would still take the bytes.
    fn queue_frame(&mut self, id: ConnId, frame: &Arc<Vec<u8>>) {
        let Some(lc) = self.conns.get_mut(&id) else {
            return;
        };
        if lc.conn.is_closing() {
            return;
        }
        lc.conn.enqueue(Arc::clone(frame));
        lc.unflushed += frame.len();
        // `mark_dirty` inline: one lookup of the connection per frame.
        if !lc.dirty {
            lc.dirty = true;
            self.dirty.push(id);
        }
        if lc.unflushed >= WRITE_BUDGET {
            self.flush_conn(id);
        }
    }

    /// Take every queued command under one lock and act on it.  The
    /// writes a command calls for wait for `flush_dirty`, but for a
    /// connection's early flush at the write budget.
    fn drain_cmds(&mut self) {
        let mut cmds = std::mem::take(&mut self.pass_cmds);
        self.cmds.drain_into(&mut cmds);
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Listen { id, listener } => {
                    if self.draining.is_some() {
                        continue;
                    }
                    self.poller
                        .register(id, Source::new(&listener), Interest::READ);
                    self.listeners.insert(id, listener);
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
                        self.queue_frame(id, &frame);
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
                            self.mark_dirty(id);
                        }
                        self.scratch_ids = ids;
                    }
                }
                Cmd::Shutdown => {
                    if self.draining.is_none() {
                        self.draining = Some(Instant::now() + DRAIN_TIMEOUT);
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
        self.pass_cmds = cmds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::AtomicBool;

    fn start_with(backend: Backend, tweak: impl FnOnce(&mut ReactorConfig)) -> Reactor {
        let mut cfg = ReactorConfig {
            backend,
            ..ReactorConfig::default()
        };
        tweak(&mut cfg);
        Reactor::start(cfg).unwrap()
    }

    /// Listen on a fresh loopback port: the listener's id and address.
    fn listening(reactor: &Reactor) -> (ListenerId, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (reactor.listen(listener).unwrap(), addr)
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Connect `n` subscribers (5 s read timeout) and wait until the loop
    /// has registered them.
    fn subscribe(reactor: &Reactor, addr: SocketAddr, n: usize) -> Vec<TcpStream> {
        let clients: Vec<TcpStream> = (0..n)
            .map(|_| {
                let c = TcpStream::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                c
            })
            .collect();
        wait_until("subscribers never registered", || {
            reactor.connections() >= n
        });
        clients
    }

    /// The socket row of the connection `client` opened.
    fn row_of(reactor: &Reactor, client: &TcpStream) -> Option<SocketRow> {
        let peer = client.local_addr().unwrap().to_string();
        reactor.socket_stats().into_iter().find(|r| r.peer == peer)
    }

    fn bytes_in_of(reactor: &Reactor, client: &TcpStream) -> u64 {
        row_of(reactor, client).map_or(0, |r| r.stats.bytes_in)
    }

    #[test]
    fn loop_stats_count_ticks_and_split_wait_from_dispatch() {
        let reactor = start_with(Backend::native(), |_| {});
        let (listener, _) = listening(&reactor);
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
    fn broadcast_round_trip_on_every_backend() {
        for backend in backends() {
            let reactor = start_with(backend, |_| {});
            let (lid, addr) = listening(&reactor);
            let mut client = subscribe(&reactor, addr, 1).remove(0);
            // Read readiness: what the subscriber sends is drained.
            client.write_all(b"ping pong").unwrap();
            wait_until(&format!("{backend:?}: bytes in never counted"), || {
                bytes_in_of(&reactor, &client) == 9
            });
            reactor.broadcast(lid, Arc::new(b"pong ping".to_vec()));
            let mut back = [0u8; 9];
            client.read_exact(&mut back).unwrap();
            assert_eq!(&back, b"pong ping", "{backend:?}");
            reactor.shutdown();
        }
    }

    #[test]
    fn broadcast_reaches_every_subscriber() {
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let mut clients = subscribe(&reactor, addr, 8);
        reactor.broadcast(lid, Arc::new(b"broadcast-frame".to_vec()));
        for c in &mut clients {
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
        let (lid, addr) = listening(&reactor);
        let mut client = subscribe(&reactor, addr, 1).remove(0);
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
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let mut client = subscribe(&reactor, addr, 1).remove(0);
        let payload = Arc::new(vec![7u8; 128 * 1024]);
        reactor.broadcast(lid, Arc::clone(&payload));
        reactor.shutdown();
        assert_eq!(reactor.connections(), 0, "shutdown left live connections");
        assert!(
            reactor.socket_stats().is_empty(),
            "shutdown left socket rows"
        );
        // Every queued byte arrived before the close (the EOF).
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
    /// the drain deadline.  Broadcast-then-shutdown of a frame larger than
    /// the kernel socket buffers take must still deliver all of it, well
    /// within `DRAIN_TIMEOUT`.
    #[test]
    fn broadcast_then_shutdown_drains_stalled_connections() {
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let client = subscribe(&reactor, addr, 1).remove(0);
        // Far more than loopback socket buffering (and a single frame, so
        // the 4 MiB outbox cannot drop it): the connection still
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
            start.elapsed() < DRAIN_TIMEOUT,
            "shutdown stalled to the drain deadline: {:?}",
            start.elapsed()
        );
        let got = reader.join().unwrap();
        assert_eq!(got.len(), payload.len(), "queued frames were dropped");
        assert!(got.iter().all(|&b| b == 9));
    }

    /// Submit broadcasts as one command batch: one pass of the loop takes
    /// them all, so they are queued together before that pass flushes.
    fn broadcast_in_one_pass(reactor: &Reactor, listener: ListenerId, frames: Vec<Vec<u8>>) {
        let mut cmds: Vec<Cmd> = frames
            .into_iter()
            .map(|f| Cmd::Broadcast {
                listener,
                frame: Arc::new(f),
            })
            .collect();
        reactor.cmds.send_batch(&mut cmds).unwrap();
        reactor.waker.wake();
    }

    /// Up to 32 frames queued on a connection in one pass leave in one
    /// `writev`, and the peer reads every one of them whole and in order.
    #[test]
    fn frames_queued_in_one_pass_leave_in_one_vectored_write() {
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let mut client = subscribe(&reactor, addr, 1).remove(0);
        let (mut writes, mut next) = (0, 0u64);
        for k in [1u64, 7, 32] {
            let frames = (next..next + k).map(|i| i.to_le_bytes().to_vec());
            broadcast_in_one_pass(&reactor, lid, frames.collect());
            let mut frame = [0u8; 8];
            for i in next..next + k {
                client.read_exact(&mut frame).unwrap();
                assert_eq!(u64::from_le_bytes(frame), i, "k = {k}");
            }
            next += k;
            wait_until("frames_out never caught up", || {
                row_of(&reactor, &client).is_some_and(|r| r.stats.frames_out == next)
            });
            let stats = row_of(&reactor, &client).unwrap().stats;
            assert_eq!(
                stats.writes,
                writes + 1,
                "{k} frames took more than one write"
            );
            assert_eq!(stats.bytes_out, 8 * next);
            writes = stats.writes;
        }
        reactor.shutdown();
    }

    /// A pass that queues more than the 4 MiB outbox holds flushes the
    /// connection every `WRITE_BUDGET` bytes on the way, so the outbox
    /// never fills and a reading peer loses no frame.  Queued whole and
    /// flushed only at the end of the pass, the same frames would evict
    /// the oldest.
    #[test]
    fn a_pass_past_the_write_budget_flushes_early_and_drops_nothing() {
        const FRAMES: usize = 17;
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let client = subscribe(&reactor, addr, 1).remove(0);
        let peer = client.local_addr().unwrap().to_string();
        let reader = std::thread::spawn(move || {
            let mut client = client;
            let mut got = vec![0u8; FRAMES * WRITE_BUDGET];
            client.read_exact(&mut got).unwrap();
            // The client goes back with the bytes: closing it here would
            // close its connection and take the socket row with it.
            (got, client)
        });
        let frames = (0..FRAMES).map(|i| vec![i as u8; WRITE_BUDGET]).collect();
        broadcast_in_one_pass(&reactor, lid, frames);
        let (got, _client) = reader.join().unwrap();
        for (i, frame) in got.chunks(WRITE_BUDGET).enumerate() {
            assert!(
                frame.iter().all(|&b| b == i as u8),
                "frame {i} arrived torn"
            );
        }
        let row = reactor.socket_stats().into_iter().find(|r| r.peer == peer);
        let stats = row.unwrap().stats;
        assert_eq!(stats.dropped_frames, 0);
        assert!(stats.writes >= 2, "one pass, several flushes: {stats:?}");
        reactor.shutdown();
    }

    #[test]
    fn max_connections_refuses_the_overflow() {
        let reactor = start_with(Backend::native(), |cfg| {
            cfg.max_connections = 2;
        });
        let (_, addr) = listening(&reactor);
        let _keep: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        wait_until("fewer than 2 accepts refused", || reactor.refused() >= 2);
        assert_eq!(reactor.connections(), 2);
        reactor.shutdown();
    }

    #[test]
    fn socket_stats_expose_per_connection_counters() {
        let reactor = start_with(Backend::native(), |_| {});
        let (token, addr) = listening(&reactor);
        let mut client = subscribe(&reactor, addr, 1).remove(0);
        client.write_all(b"0123456789").unwrap();
        reactor.broadcast(token, Arc::new(b"abcdefghij".to_vec()));
        let mut back = [0u8; 10];
        client.read_exact(&mut back).unwrap();
        // The loop thread updates counters just after each syscall, so
        // give the (eventually consistent) stats a moment to catch up.
        wait_until("counters never reached 10 in, 10 out", || {
            let rows = reactor.socket_stats();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].listener, token);
            rows[0].stats.bytes_in == 10 && rows[0].stats.bytes_out == 10
        });
        reactor.shutdown();
    }

    /// A subscriber that talks is drained, not dropped: across reads of
    /// less and more than one read budget, every byte it sends is counted
    /// and it keeps receiving broadcasts.
    #[test]
    fn a_subscriber_that_writes_stays_connected_and_keeps_receiving() {
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let mut client = subscribe(&reactor, addr, 1).remove(0);
        let mut sent = 0u64;
        for (round, len) in [1_000usize, 300_000, 1_000_000].into_iter().enumerate() {
            let round = round as u8;
            client.write_all(&vec![round; len]).unwrap();
            sent += len as u64;
            wait_until("inbound bytes were not all counted", || {
                bytes_in_of(&reactor, &client) == sent
            });
            reactor.broadcast(lid, Arc::new(vec![round; 16]));
            let mut got = [0u8; 16];
            client.read_exact(&mut got).unwrap();
            assert_eq!(got, [round; 16]);
            assert_eq!(reactor.connections(), 1);
        }
        reactor.shutdown();
    }

    /// The inbound drain is bounded per wakeup: while one subscriber
    /// writes as fast as it can, broadcasts still reach the others in
    /// order, and the flooder stays connected with its bytes counted.
    #[test]
    fn a_flooding_subscriber_does_not_hold_up_a_broadcast_to_the_others() {
        let reactor = start_with(Backend::native(), |_| {});
        let (lid, addr) = listening(&reactor);
        let mut clients = subscribe(&reactor, addr, 3);
        let flooder = clients.remove(0);
        // A loop that stopped reading would block the flooder for good;
        // the timeout turns that into a failed write instead of a hang.
        flooder
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let stop = AtomicBool::new(false);
        /// Ends the flood however the scope is left, a failed assertion
        /// included, so the scope's join cannot wait forever.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        std::thread::scope(|s| {
            let flood = s.spawn(|| {
                let mut w = &flooder;
                let chunk = vec![0xABu8; 64 * 1024];
                while !stop.load(Ordering::Relaxed) {
                    w.write_all(&chunk).unwrap();
                }
            });
            let stopping = StopOnDrop(&stop);
            // Broadcast only once the flood is under way: several read
            // budgets' worth already drained from the flooder.
            wait_until("the flood never reached the loop", || {
                bytes_in_of(&reactor, &flooder) > 1 << 20
            });
            for i in 0..200u64 {
                reactor.broadcast(lid, Arc::new(i.to_le_bytes().to_vec()));
                for c in &mut clients {
                    let mut frame = [0u8; 8];
                    c.read_exact(&mut frame).unwrap();
                    assert_eq!(u64::from_le_bytes(frame), i);
                }
            }
            drop(stopping);
            flood.join().unwrap();
        });
        assert_eq!(reactor.connections(), 3, "a subscriber was dropped");
        assert!(bytes_in_of(&reactor, &flooder) > 1 << 20);
        reactor.shutdown();
    }
}
