//! Connection state: inbound buffer, frame-aligned backpressured outbox,
//! and the per-connection counters that make slow consumers observable.
//!
//! The outbox is the backpressure point of the whole network edge.  Frames
//! are queued as `Arc<Vec<u8>>` — a broadcast enqueues the *same* encoded
//! bytes on every subscriber (encode once, write N; the only per-connection
//! cost is a refcount bump).  When a consumer falls behind, the queue's
//! byte budget is enforced with the pipeline's own
//! [`OverflowPolicy`]:
//!
//! * `DropOldest` evicts whole frames from the front of the queue — but
//!   never the head frame once part of it has been written, so the byte
//!   stream stays frame-aligned and the peer's decoder never desyncs;
//! * `DropNewest` rejects the incoming frame and keeps what is queued.

use jamm_core::OverflowPolicy;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-connection atomic counters, shared between the event loop (writer)
/// and observers such as `admin_stats` (readers).
#[derive(Debug, Default)]
pub struct SocketCounters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_out: AtomicU64,
    queued_bytes: AtomicU64,
    queued_frames: AtomicU64,
    dropped_frames: AtomicU64,
    dropped_bytes: AtomicU64,
    stalls: AtomicU64,
}

impl SocketCounters {
    /// Fresh zeroed counters.
    pub fn new() -> SocketCounters {
        SocketCounters::default()
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> SocketStats {
        SocketStats {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            queued_bytes: self.queued_bytes.load(Ordering::Relaxed),
            queued_frames: self.queued_frames.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            dropped_bytes: self.dropped_bytes.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }

    fn add_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    fn add_out(&self, bytes: u64, frames: u64) {
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.frames_out.fetch_add(frames, Ordering::Relaxed);
    }

    fn add_dropped(&self, frames: u64, bytes: u64) {
        self.dropped_frames.fetch_add(frames, Ordering::Relaxed);
        self.dropped_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn add_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    fn set_queued(&self, bytes: u64, frames: u64) {
        self.queued_bytes.store(bytes, Ordering::Relaxed);
        self.queued_frames.store(frames, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of [`SocketCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Bytes read from the peer.
    pub bytes_in: u64,
    /// Bytes written to the peer.
    pub bytes_out: u64,
    /// Whole frames fully written to the peer.
    pub frames_out: u64,
    /// Bytes currently waiting in the outbox (gauge).
    pub queued_bytes: u64,
    /// Frames currently waiting in the outbox (gauge).
    pub queued_frames: u64,
    /// Frames evicted or rejected by the overflow policy.
    pub dropped_frames: u64,
    /// Bytes those dropped frames held.
    pub dropped_bytes: u64,
    /// Times a write hit `EWOULDBLOCK` with data still queued — each one is
    /// a moment the peer's socket buffer was full.
    pub stalls: u64,
}

/// Result of queueing a frame on an [`Outbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Queued; nothing was displaced.
    Queued,
    /// Queued after evicting this many older frames (`DropOldest`).
    QueuedEvicting(u64),
    /// Rejected because the queue is full (`DropNewest`).
    Rejected,
}

/// Outcome of one [`Outbox::write_to`] flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flush {
    /// Bytes written in this flush.
    pub written: usize,
    /// Whole frames completed in this flush.
    pub frames_completed: u64,
    /// The write stopped on `EWOULDBLOCK` (socket buffer full).
    pub blocked: bool,
}

/// Frame-aligned outbound queue with a byte budget and an overflow policy.
#[derive(Debug)]
pub struct Outbox {
    frames: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of the head frame already written to the socket.
    head_offset: usize,
    /// Bytes still to be written across all queued frames.
    queued_bytes: usize,
    capacity: usize,
    policy: OverflowPolicy,
}

/// Most slices handed to one `writev` call.
const MAX_SLICES: usize = 32;

impl Outbox {
    /// An empty outbox holding at most `capacity` queued bytes.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Outbox {
        Outbox {
            frames: VecDeque::new(),
            head_offset: 0,
            queued_bytes: 0,
            capacity: capacity.max(1),
            policy,
        }
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes still to be written.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Frames still queued (including a partially written head).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Queue a frame, applying the overflow policy against the byte budget.
    ///
    /// Returns what happened plus, for evictions, how many bytes were
    /// displaced (via [`PushOutcome::QueuedEvicting`] and the second tuple
    /// element).
    pub fn push(&mut self, frame: Arc<Vec<u8>>) -> (PushOutcome, u64) {
        let len = frame.len();
        if len == 0 {
            return (PushOutcome::Queued, 0);
        }
        match self.policy {
            OverflowPolicy::DropNewest => {
                if self.queued_bytes + len > self.capacity {
                    return (PushOutcome::Rejected, len as u64);
                }
                self.queued_bytes += len;
                self.frames.push_back(frame);
                (PushOutcome::Queued, 0)
            }
            OverflowPolicy::DropOldest => {
                let mut evicted = 0u64;
                let mut evicted_bytes = 0u64;
                while self.queued_bytes + len > self.capacity {
                    // Never evict the head frame once part of it has been
                    // written: a truncated frame would desync the peer's
                    // decoder.  Everything behind it is fair game.
                    let from = usize::from(self.head_offset > 0);
                    let Some(victim) = self.frames.remove(from) else {
                        break;
                    };
                    self.queued_bytes -= victim.len();
                    evicted += 1;
                    evicted_bytes += victim.len() as u64;
                }
                self.queued_bytes += len;
                self.frames.push_back(frame);
                if evicted > 0 {
                    (PushOutcome::QueuedEvicting(evicted), evicted_bytes)
                } else {
                    (PushOutcome::Queued, 0)
                }
            }
        }
    }

    /// Write up to `budget` queued bytes with vectored writes.
    ///
    /// Stops early on `EWOULDBLOCK` (reported via [`Flush::blocked`], not an
    /// error); `EINTR` is retried.
    pub fn write_to<W: Write>(&mut self, w: &mut W, budget: usize) -> io::Result<Flush> {
        let mut flush = Flush::default();
        let empty: &[u8] = &[];
        while !self.frames.is_empty() && flush.written < budget {
            let remaining = budget - flush.written;
            let mut slices = [IoSlice::new(empty); MAX_SLICES];
            let mut n = 0;
            let mut filled = 0usize;
            for (i, frame) in self.frames.iter().enumerate() {
                if n == MAX_SLICES || filled >= remaining {
                    break;
                }
                let body = if i == 0 {
                    &frame[self.head_offset..]
                } else {
                    &frame[..]
                };
                let take = body.len().min(remaining - filled);
                slices[n] = IoSlice::new(&body[..take]);
                n += 1;
                filled += take;
            }
            if n == 0 {
                break;
            }
            match w.write_vectored(&slices[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(k) => {
                    flush.written += k;
                    flush.frames_completed += self.advance(k);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    flush.blocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(flush)
    }

    /// Account for `written` bytes leaving the queue; returns completed
    /// frame count.
    fn advance(&mut self, mut written: usize) -> u64 {
        let mut completed = 0u64;
        self.queued_bytes = self.queued_bytes.saturating_sub(written);
        while written > 0 {
            let head_left = self.frames[0].len() - self.head_offset;
            if written >= head_left {
                self.frames.pop_front();
                self.head_offset = 0;
                written -= head_left;
                completed += 1;
            } else {
                self.head_offset += written;
                written = 0;
            }
        }
        completed
    }
}

/// Most bytes read from one connection per readiness event, so a firehose
/// peer cannot starve the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

/// One nonblocking connection owned by the event loop.
#[derive(Debug)]
pub struct Conn {
    id: u64,
    stream: TcpStream,
    peer: String,
    inbuf: Vec<u8>,
    outbox: Outbox,
    counters: Arc<SocketCounters>,
    closing: bool,
}

impl Conn {
    /// Wrap an already-nonblocking stream.
    pub fn new(
        id: u64,
        stream: TcpStream,
        peer: String,
        outbox_capacity: usize,
        policy: OverflowPolicy,
    ) -> Conn {
        Conn {
            id,
            stream,
            peer,
            inbuf: Vec::new(),
            outbox: Outbox::new(outbox_capacity, policy),
            counters: Arc::new(SocketCounters::new()),
            closing: false,
        }
    }

    /// The connection id (also its poller token).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The peer address, as a display string.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// The shared counters.
    pub fn counters(&self) -> &Arc<SocketCounters> {
        &self.counters
    }

    /// True once a graceful close was requested; the loop flushes the
    /// outbox and then closes.
    pub fn is_closing(&self) -> bool {
        self.closing
    }

    /// Request a graceful close (flush queued frames, then close).
    pub fn begin_close(&mut self) {
        self.closing = true;
    }

    pub(crate) fn poller_source(&self) -> crate::poller::Source {
        crate::poller::Source::new(&self.stream)
    }

    /// Read until `EWOULDBLOCK`, EOF or the per-event budget into the
    /// internal buffer; returns `(bytes_read, eof)`.
    pub(crate) fn fill_inbuf(&mut self, scratch: &mut [u8]) -> io::Result<(usize, bool)> {
        let mut total = 0usize;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    total += n;
                    self.counters.add_in(n as u64);
                    if total >= READ_BUDGET {
                        return Ok((total, false));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((total, false)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok((total, true)),
                Err(e) => return Err(e),
            }
        }
    }

    /// Take the buffered inbound bytes (handler dispatch uses this to avoid
    /// aliasing the connection while the handler runs).
    pub(crate) fn take_inbuf(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.inbuf)
    }

    /// Put unconsumed inbound bytes back.
    pub(crate) fn restore_inbuf(&mut self, buf: Vec<u8>) {
        debug_assert!(self.inbuf.is_empty());
        self.inbuf = buf;
    }

    /// Queue one encoded frame, updating drop counters per the policy.
    pub fn enqueue(&mut self, frame: Arc<Vec<u8>>) -> PushOutcome {
        let (outcome, displaced) = self.outbox.push(frame);
        match outcome {
            PushOutcome::Queued => {}
            PushOutcome::QueuedEvicting(n) => self.counters.add_dropped(n, displaced),
            PushOutcome::Rejected => self.counters.add_dropped(1, displaced),
        }
        self.counters
            .set_queued(self.outbox.queued_bytes() as u64, self.outbox.len() as u64);
        outcome
    }

    /// Flush up to `budget` bytes of the outbox to the socket.
    pub(crate) fn flush(&mut self, budget: usize) -> io::Result<Flush> {
        if self.outbox.is_empty() {
            return Ok(Flush::default());
        }
        let flush = self.outbox.write_to(&mut self.stream, budget)?;
        if flush.written > 0 {
            self.counters
                .add_out(flush.written as u64, flush.frames_completed);
        }
        if flush.blocked && !self.outbox.is_empty() {
            self.counters.add_stall();
        }
        self.counters
            .set_queued(self.outbox.queued_bytes() as u64, self.outbox.len() as u64);
        Ok(flush)
    }

    /// True when queued bytes are waiting on the socket.
    pub fn wants_write(&self) -> bool {
        !self.outbox.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize, byte: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![byte; n])
    }

    /// A writer that accepts a fixed number of bytes, then blocks.
    struct Throttle {
        accept: usize,
        sink: Vec<u8>,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accept == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.accept);
            self.accept -= n;
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn drop_newest_rejects_when_full() {
        let mut ob = Outbox::new(10, OverflowPolicy::DropNewest);
        assert_eq!(ob.push(frame(6, b'a')).0, PushOutcome::Queued);
        assert_eq!(ob.push(frame(6, b'b')).0, PushOutcome::Rejected);
        assert_eq!(ob.queued_bytes(), 6);
    }

    #[test]
    fn drop_oldest_evicts_whole_frames() {
        let mut ob = Outbox::new(10, OverflowPolicy::DropOldest);
        ob.push(frame(4, b'a'));
        ob.push(frame(4, b'b'));
        let (outcome, bytes) = ob.push(frame(8, b'c'));
        assert_eq!(outcome, PushOutcome::QueuedEvicting(2));
        assert_eq!(bytes, 8);
        assert_eq!(ob.len(), 1);
        assert_eq!(ob.queued_bytes(), 8);
    }

    #[test]
    fn partially_written_head_is_never_evicted() {
        let mut ob = Outbox::new(10, OverflowPolicy::DropOldest);
        ob.push(frame(8, b'a'));
        let mut w = Throttle {
            accept: 3,
            sink: Vec::new(),
        };
        let f = ob.write_to(&mut w, usize::MAX).unwrap();
        assert_eq!(f.written, 3);
        assert!(f.blocked);
        // Overflow with the head partially written: the head survives, so
        // the stream stays frame-aligned.
        let (outcome, _) = ob.push(frame(9, b'b'));
        assert_eq!(outcome, PushOutcome::Queued);
        assert_eq!(ob.len(), 2);
        let mut w2 = Throttle {
            accept: usize::MAX,
            sink: Vec::new(),
        };
        let f2 = ob.write_to(&mut w2, usize::MAX).unwrap();
        assert_eq!(f2.frames_completed, 2);
        let mut expect = vec![b'a'; 5];
        expect.extend_from_slice(&[b'b'; 9]);
        assert_eq!(w2.sink, expect);
    }

    #[test]
    fn partial_writes_resume_mid_frame() {
        let mut ob = Outbox::new(1024, OverflowPolicy::DropOldest);
        ob.push(frame(100, b'x'));
        ob.push(frame(50, b'y'));
        let mut got = Vec::new();
        while !ob.is_empty() {
            let mut w = Throttle {
                accept: 7,
                sink: Vec::new(),
            };
            ob.write_to(&mut w, usize::MAX).unwrap();
            got.extend_from_slice(&w.sink);
        }
        let mut expect = vec![b'x'; 100];
        expect.extend_from_slice(&[b'y'; 50]);
        assert_eq!(got, expect);
    }

    #[test]
    fn write_budget_caps_a_flush() {
        let mut ob = Outbox::new(usize::MAX, OverflowPolicy::DropOldest);
        for _ in 0..10 {
            ob.push(frame(100, b'z'));
        }
        let mut w = Throttle {
            accept: usize::MAX,
            sink: Vec::new(),
        };
        let f = ob.write_to(&mut w, 250).unwrap();
        assert_eq!(f.written, 250);
        assert_eq!(f.frames_completed, 2);
        assert_eq!(ob.queued_bytes(), 750);
    }

    #[test]
    fn broadcast_frames_share_one_allocation() {
        let shared = frame(64, b's');
        let mut a = Outbox::new(1024, OverflowPolicy::DropOldest);
        let mut b = Outbox::new(1024, OverflowPolicy::DropOldest);
        a.push(shared.clone());
        b.push(shared.clone());
        // One payload allocation, three handles: encode once, write N.
        assert_eq!(Arc::strong_count(&shared), 3);
    }
}
