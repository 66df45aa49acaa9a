//! Safe readiness polling over the platform shim, plus the crate's
//! cross-thread `Waker`.
//!
//! The [`Poller`] keeps a registry of `(token, socket, interest)` entries
//! and answers one question per call: *which of these sockets can make
//! progress right now?*  Two backends implement that answer:
//!
//! * [`Backend::Poll`] — the real thing: one `poll(2)` syscall over every
//!   registered descriptor (Linux; see `sys.rs` for the shim).
//! * [`Backend::Sweep`] — a pure-std fallback that sleeps for at most a
//!   millisecond and then reports every registered socket as ready for
//!   whatever it declared interest in.  The connection layer runs all
//!   sockets in nonblocking mode, so a false-positive wakeup costs one
//!   `EWOULDBLOCK` and nothing else.  This keeps the crate building (and
//!   its tests passing) on platforms without the shim.

use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which readiness mechanism a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `poll(2)` through the thin syscall shim.  Only available on Linux;
    /// on other targets this silently behaves like [`Backend::Sweep`].
    Poll,
    /// Pure-std fallback: short sleep, then report every registered socket
    /// with its declared interest.
    Sweep,
}

impl Backend {
    /// The best backend available on this platform.
    pub fn native() -> Backend {
        if cfg!(target_os = "linux") {
            Backend::Poll
        } else {
            Backend::Sweep
        }
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::native()
    }
}

/// What a registered socket wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable (or accept-ready for listeners).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read interest only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write interest only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Registered but dormant.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    /// True if either direction is wanted.
    pub fn any(self) -> bool {
        self.read || self.write
    }
}

/// One readiness event produced by [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Readiness {
    /// The token the socket was registered under.
    pub token: u64,
    /// The socket is readable (includes EOF and error conditions, which a
    /// read will surface).
    pub readable: bool,
    /// The socket is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored.
    pub hangup: bool,
}

/// Identifies an OS socket to the poller.
///
/// On unix this captures the raw file descriptor; on other targets it is a
/// unit marker (the sweep backend never inspects the socket).
#[derive(Debug, Clone, Copy)]
pub struct Source {
    #[cfg(unix)]
    fd: i32,
}

impl Source {
    /// Capture a socket's poller identity.
    #[cfg(unix)]
    pub fn new(sock: &impl std::os::fd::AsRawFd) -> Source {
        Source {
            fd: sock.as_raw_fd(),
        }
    }

    /// Capture a socket's poller identity (non-unix: nothing to capture).
    #[cfg(not(unix))]
    pub fn new<T>(_sock: &T) -> Source {
        Source {}
    }
}

/// Readiness poller: a registry of sockets plus one blocking `poll` call.
///
/// Not thread-safe by design — it is owned by the event-loop thread; other
/// threads reach the loop through a waker and a command queue.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
    entries: HashMap<u64, (Source, Interest)>,
    #[cfg(target_os = "linux")]
    fds: Vec<crate::sys::linux::PollFd>,
    #[cfg(target_os = "linux")]
    tokens: Vec<u64>,
}

impl Poller {
    /// Create a poller on the given backend.
    pub fn new(backend: Backend) -> Poller {
        Poller {
            backend,
            entries: HashMap::new(),
            #[cfg(target_os = "linux")]
            fds: Vec::new(),
            #[cfg(target_os = "linux")]
            tokens: Vec::new(),
        }
    }

    /// Which backend this poller actually runs on this platform.
    pub fn backend(&self) -> Backend {
        #[cfg(target_os = "linux")]
        return self.backend;
        #[cfg(not(target_os = "linux"))]
        return Backend::Sweep;
    }

    /// Register a socket under `token`.  Re-registering replaces the entry.
    pub fn register(&mut self, token: u64, source: Source, interest: Interest) {
        self.entries.insert(token, (source, interest));
    }

    /// Change what a registered socket is woken for.  Unknown tokens are
    /// ignored.
    pub fn set_interest(&mut self, token: u64, interest: Interest) {
        if let Some(entry) = self.entries.get_mut(&token) {
            entry.1 = interest;
        }
    }

    /// Remove a socket from the registry.
    pub fn deregister(&mut self, token: u64) {
        self.entries.remove(&token);
    }

    /// Number of registered sockets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wait up to `timeout` for readiness; events are appended to `out`
    /// (which is cleared first).
    pub fn poll(&mut self, timeout: Duration, out: &mut Vec<Readiness>) -> io::Result<()> {
        out.clear();
        #[cfg(target_os = "linux")]
        if self.backend == Backend::Poll {
            return self.poll_native(timeout, out);
        }
        self.poll_sweep(timeout, out);
        Ok(())
    }

    #[cfg(target_os = "linux")]
    fn poll_native(&mut self, timeout: Duration, out: &mut Vec<Readiness>) -> io::Result<()> {
        use crate::sys::linux::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

        self.fds.clear();
        self.tokens.clear();
        for (&token, &(source, interest)) in &self.entries {
            if !interest.any() {
                continue;
            }
            let mut events = 0i16;
            if interest.read {
                events |= POLLIN;
            }
            if interest.write {
                events |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd: source.fd,
                events,
                revents: 0,
            });
            self.tokens.push(token);
        }
        if self.fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(());
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = linux::poll_fds(&mut self.fds, ms)?;
        if n == 0 {
            return Ok(());
        }
        for (fd, &token) in self.fds.iter().zip(&self.tokens) {
            if fd.revents == 0 {
                continue;
            }
            let hangup = fd.revents & (POLLHUP | POLLERR | POLLNVAL) != 0;
            out.push(Readiness {
                token,
                readable: fd.revents & POLLIN != 0 || hangup,
                writable: fd.revents & POLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }

    fn poll_sweep(&mut self, timeout: Duration, out: &mut Vec<Readiness>) {
        let nap = timeout.min(Duration::from_millis(1));
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
        for (&token, &(_, interest)) in &self.entries {
            if interest.any() {
                out.push(Readiness {
                    token,
                    readable: interest.read,
                    writable: interest.write,
                    hangup: false,
                });
            }
        }
    }
}

/// Cross-thread wakeup for a blocked [`Poller::poll`] call.
///
/// A connected loopback UDP socket pair stands in for the classic
/// self-pipe: [`Waker::wake`] sends one datagram, the event loop registers
/// the receiving socket for read interest and drains it on wakeup.  Pure
/// std, works under both backends, and `Clone` so any number of threads can
/// hold one.
///
/// At most one datagram is outstanding: the clones share an `armed` flag,
/// and only the wake that sets it sends.  The loop owning the receiving
/// socket takes a wake-up with [`Waker::drain`] (drain, then rearm) and
/// only then looks for the work it announced.  That is why the type is
/// crate-private: a waker whose socket no loop of this crate drains
/// would send once and then stay silent.
#[derive(Debug, Clone)]
pub(crate) struct Waker {
    tx: Arc<UdpSocket>,
    armed: Arc<AtomicBool>,
}

impl Waker {
    /// Build the pair.  Returns the waker and the receiving socket the loop
    /// must register (already nonblocking).
    pub(crate) fn pair() -> io::Result<(Waker, UdpSocket)> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        // Connecting the receiver back filters datagrams from strangers.
        rx.connect(tx.local_addr()?)?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((
            Waker {
                tx: Arc::new(tx),
                armed: Arc::new(AtomicBool::new(false)),
            },
            rx,
        ))
    }

    /// Wake the loop.  Best-effort and never blocks; sends nothing while
    /// an earlier wake's datagram is still outstanding.  A send that fails
    /// clears the flag again, so the next wake retries instead of every
    /// later one trusting a datagram that never left.
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) && self.tx.send(&[1u8]).is_err() {
            self.armed.store(false, Ordering::SeqCst);
        }
    }

    /// The loop's side of a wake-up: drain every pending datagram, then
    /// let the next [`Waker::wake`] send again.  Call it before looking
    /// for the work the wake announced: SeqCst on both sides means a
    /// waker that found the flag set queued its work before the store
    /// here, so the loop sees it.  The order matters: rearming first
    /// would let a wake landing mid-drain have its datagram swallowed
    /// and leave the flag set, silencing every later wake.
    pub(crate) fn drain(&self, rx: &UdpSocket) {
        drain_wakeups(rx);
        self.armed.store(false, Ordering::SeqCst);
    }
}

/// Drain every pending wakeup datagram from the receiving socket.
pub(crate) fn drain_wakeups(rx: &UdpSocket) {
    let mut buf = [0u8; 16];
    while rx.recv(&mut buf).is_ok() {
        #[cfg(test)]
        tests::wake_mid_drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    thread_local! {
        /// A waker that `drain_wakeups` fires once after reading a
        /// datagram: another thread's wake landing mid-drain.
        static MID_DRAIN: RefCell<Option<Waker>> = const { RefCell::new(None) };
    }

    pub(super) fn wake_mid_drain() {
        if let Some(waker) = MID_DRAIN.with(|m| m.borrow_mut().take()) {
            waker.wake();
        }
    }

    /// Datagrams waiting on the loop's socket.  Loopback UDP queues a
    /// datagram on the receiver before `send` returns, so a count right
    /// after a wake sees it.
    fn pending(rx: &UdpSocket) -> usize {
        let mut buf = [0u8; 16];
        std::iter::from_fn(|| rx.recv(&mut buf).ok()).count()
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Poll, Backend::Sweep]
        } else {
            vec![Backend::Sweep]
        }
    }

    #[test]
    fn readable_after_peer_writes() {
        for backend in backends() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = Poller::new(backend);
            poller.register(7, Source::new(&b), Interest::READ);
            a.write_all(b"hi").unwrap();
            let mut out = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                poller.poll(Duration::from_millis(50), &mut out).unwrap();
                if out.iter().any(|r| r.token == 7 && r.readable) {
                    break;
                }
                assert!(Instant::now() < deadline, "{backend:?}: never readable");
            }
        }
    }

    #[test]
    fn interest_none_reports_nothing() {
        for backend in backends() {
            let (mut a, b) = pair();
            let mut poller = Poller::new(backend);
            poller.register(1, Source::new(&b), Interest::NONE);
            a.write_all(b"data").unwrap();
            let mut out = Vec::new();
            poller.poll(Duration::from_millis(10), &mut out).unwrap();
            assert!(out.is_empty(), "{backend:?}: dormant socket woke");
        }
    }

    #[test]
    fn waker_unblocks_poll() {
        for backend in backends() {
            let (waker, rx) = Waker::pair().unwrap();
            let mut poller = Poller::new(backend);
            poller.register(0, Source::new(&rx), Interest::READ);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            let mut out = Vec::new();
            let start = Instant::now();
            let deadline = start + Duration::from_secs(2);
            loop {
                poller.poll(Duration::from_millis(100), &mut out).unwrap();
                if out.iter().any(|r| r.token == 0 && r.readable) {
                    break;
                }
                assert!(Instant::now() < deadline, "{backend:?}: wakeup lost");
            }
            drain_wakeups(&rx);
            t.join().unwrap();
        }
    }

    #[test]
    fn waker_keeps_one_datagram_outstanding() {
        let (waker, rx) = Waker::pair().unwrap();
        let other = waker.clone();
        waker.wake();
        other.wake();
        waker.wake();
        assert_eq!(pending(&rx), 1, "three wakes, one datagram");
        waker.wake();
        assert_eq!(pending(&rx), 0, "drained but not rearmed: still silent");
        other.drain(&rx);
        waker.wake();
        waker.wake();
        assert_eq!(pending(&rx), 1, "a rearm lets exactly one more through");
    }

    #[test]
    fn a_wake_landing_mid_drain_is_not_swallowed() {
        let (waker, rx) = Waker::pair().unwrap();
        waker.wake();
        MID_DRAIN.with(|m| *m.borrow_mut() = Some(waker.clone()));
        waker.drain(&rx);
        assert!(MID_DRAIN.with(|m| m.borrow().is_none()), "the hook fired");
        // Had the drain rearmed first, the mid-drain wake would have sent
        // a datagram the drain then ate, leaving the flag set: this wake
        // would send nothing and the loop would sleep out its timeout.
        waker.wake();
        assert_eq!(pending(&rx), 1, "the next wake reaches the loop");
    }

    #[test]
    fn deregistered_socket_is_silent() {
        let (mut a, b) = pair();
        for backend in backends() {
            let mut poller = Poller::new(backend);
            poller.register(3, Source::new(&b), Interest::READ);
            poller.deregister(3);
            assert!(poller.is_empty());
            a.write_all(b"x").unwrap();
            let mut out = Vec::new();
            poller.poll(Duration::from_millis(10), &mut out).unwrap();
            assert!(out.is_empty());
        }
    }
}
