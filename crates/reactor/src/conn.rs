//! Connection state: frame-aligned backpressured outbox, the bounded
//! inbound drain, and the per-connection counters that make slow
//! consumers observable.
//!
//! The outbox is the backpressure point of the whole network edge.  Frames
//! are queued as `Arc<Vec<u8>>` — a broadcast enqueues the *same* encoded
//! bytes on every subscriber (encode once, write N; the only per-connection
//! cost is a refcount bump).  When a consumer falls behind past the
//! queue's 4 MiB byte budget, whole frames are evicted from the front of
//! the queue (drop-oldest) — but never the head frame once part of it has
//! been written, so the byte stream stays frame-aligned and the peer's
//! decoder never desyncs.
//!
//! Subscribers have nothing to say to the edge: whatever a peer sends is
//! read in bounded passes, counted in [`SocketStats::bytes_in`] and
//! dropped.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-connection atomic counters, shared between the event loop (writer)
/// and observers such as `admin_stats` (readers).
#[derive(Debug, Default)]
pub(crate) struct SocketCounters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_out: AtomicU64,
    writes: AtomicU64,
    queued_bytes: AtomicU64,
    queued_frames: AtomicU64,
    dropped_frames: AtomicU64,
    dropped_bytes: AtomicU64,
    stalls: AtomicU64,
}

impl SocketCounters {
    /// Point-in-time copy of every counter.
    pub(crate) fn snapshot(&self) -> SocketStats {
        SocketStats {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
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

    fn add_out(&self, flush: &Flush) {
        self.bytes_out
            .fetch_add(flush.written as u64, Ordering::Relaxed);
        self.frames_out
            .fetch_add(flush.frames_completed, Ordering::Relaxed);
        self.writes.fetch_add(flush.writes, Ordering::Relaxed);
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

/// Plain-data snapshot of one connection's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Bytes read from the peer (and discarded).
    pub bytes_in: u64,
    /// Bytes written to the peer.
    pub bytes_out: u64,
    /// Whole frames fully written to the peer.
    pub frames_out: u64,
    /// `writev` calls that moved bytes; `frames_out / writes` is the
    /// frames one call carries.
    pub writes: u64,
    /// Bytes currently waiting in the outbox (gauge).
    pub queued_bytes: u64,
    /// Frames currently waiting in the outbox (gauge).
    pub queued_frames: u64,
    /// Frames evicted because the outbox was full.
    pub dropped_frames: u64,
    /// Bytes those dropped frames held.
    pub dropped_bytes: u64,
    /// Times a write hit `EWOULDBLOCK` with data still queued — each one is
    /// a moment the peer's socket buffer was full.
    pub stalls: u64,
}

/// Outcome of one [`Outbox::write_to`] flush.
#[derive(Debug, Clone, Copy, Default)]
struct Flush {
    /// Bytes written in this flush.
    written: usize,
    /// Whole frames completed in this flush.
    frames_completed: u64,
    /// `writev` calls that moved bytes.
    writes: u64,
    /// The write stopped on `EWOULDBLOCK` (socket buffer full).
    blocked: bool,
}

/// Frame-aligned outbound queue with a byte budget; a full queue drops
/// its oldest frames.
#[derive(Debug)]
struct Outbox {
    frames: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of the head frame already written to the socket.
    head_offset: usize,
    /// Bytes still to be written across all queued frames.
    queued_bytes: usize,
    capacity: usize,
}

/// Most slices handed to one `writev` call.
const MAX_SLICES: usize = 32;

/// Byte budget of each connection's outbox.
const OUTBOX_CAPACITY: usize = 4 * 1024 * 1024;

impl Outbox {
    /// An empty outbox holding at most `capacity` queued bytes.
    fn new(capacity: usize) -> Outbox {
        Outbox {
            frames: VecDeque::new(),
            head_offset: 0,
            queued_bytes: 0,
            capacity: capacity.max(1),
        }
    }

    /// True when nothing is waiting to be written.
    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queue a frame, evicting whole older frames while the byte budget
    /// would be exceeded.  Returns the frames and bytes evicted.
    fn push(&mut self, frame: Arc<Vec<u8>>) -> (u64, u64) {
        let len = frame.len();
        if len == 0 {
            return (0, 0);
        }
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
        (evicted, evicted_bytes)
    }

    /// Write up to `budget` queued bytes with vectored writes.
    ///
    /// Stops early on `EWOULDBLOCK` (reported via [`Flush::blocked`], not an
    /// error); `EINTR` is retried.
    fn write_to<W: Write>(&mut self, w: &mut W, budget: usize) -> io::Result<Flush> {
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
                    flush.writes += 1;
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

/// Read and discard until `EWOULDBLOCK` or the per-event budget,
/// counting the bytes in `bytes_in`.  False once the peer is gone: EOF, a
/// reset or any other read error.
fn drain(r: &mut impl Read, scratch: &mut [u8], counters: &SocketCounters) -> bool {
    let mut total = 0usize;
    loop {
        match r.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                total += n;
                counters.add_in(n as u64);
                if total >= READ_BUDGET {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// One nonblocking connection owned by the event loop.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    outbox: Outbox,
    counters: Arc<SocketCounters>,
    closing: bool,
}

impl Conn {
    /// Wrap an already-nonblocking stream.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            outbox: Outbox::new(OUTBOX_CAPACITY),
            counters: Arc::default(),
            closing: false,
        }
    }

    /// The shared counters.
    pub(crate) fn counters(&self) -> &Arc<SocketCounters> {
        &self.counters
    }

    /// True once a graceful close was requested; the loop flushes the
    /// outbox and then closes.
    pub(crate) fn is_closing(&self) -> bool {
        self.closing
    }

    /// Request a graceful close (flush queued frames, then close).
    pub(crate) fn begin_close(&mut self) {
        self.closing = true;
    }

    pub(crate) fn poller_source(&self) -> crate::poller::Source {
        crate::poller::Source::new(&self.stream)
    }

    /// Read and discard what the peer sent (see [`drain`]).  False once
    /// the peer is gone.
    pub(crate) fn drain_inbound(&mut self, scratch: &mut [u8]) -> bool {
        drain(&mut self.stream, scratch, &self.counters)
    }

    /// Queue one encoded frame, counting what the full outbox evicted.
    pub(crate) fn enqueue(&mut self, frame: Arc<Vec<u8>>) {
        let (frames, bytes) = self.outbox.push(frame);
        if frames > 0 {
            self.counters.add_dropped(frames, bytes);
        }
        self.counters.set_queued(
            self.outbox.queued_bytes as u64,
            self.outbox.frames.len() as u64,
        );
    }

    /// Flush up to `budget` bytes of the outbox to the socket.
    pub(crate) fn flush(&mut self, budget: usize) -> io::Result<()> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let flush = self.outbox.write_to(&mut self.stream, budget)?;
        if flush.written > 0 {
            self.counters.add_out(&flush);
        }
        if flush.blocked && !self.outbox.is_empty() {
            self.counters.add_stall();
        }
        self.counters.set_queued(
            self.outbox.queued_bytes as u64,
            self.outbox.frames.len() as u64,
        );
        Ok(())
    }

    /// True when queued bytes are waiting on the socket.
    pub(crate) fn wants_write(&self) -> bool {
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
    fn drop_oldest_evicts_whole_frames() {
        let mut ob = Outbox::new(10);
        assert_eq!(ob.push(frame(4, b'a')), (0, 0));
        assert_eq!(ob.push(frame(4, b'b')), (0, 0));
        assert_eq!(ob.push(frame(8, b'c')), (2, 8));
        assert_eq!(ob.frames.len(), 1);
        assert_eq!(ob.queued_bytes, 8);
    }

    #[test]
    fn partially_written_head_is_never_evicted() {
        let mut ob = Outbox::new(10);
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
        assert_eq!(ob.push(frame(9, b'b')), (0, 0));
        assert_eq!(ob.frames.len(), 2);
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
        let mut ob = Outbox::new(1024);
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
        let mut ob = Outbox::new(usize::MAX);
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
        assert_eq!(ob.queued_bytes, 750);
    }

    #[test]
    fn a_drain_stops_at_the_read_budget_and_ends_at_eof() {
        let counters = SocketCounters::default();
        let mut firehose = io::repeat(b'x').take(2 * READ_BUDGET as u64 + 10);
        let mut scratch = vec![0u8; 64 * 1024];
        for pass in 1..=2u64 {
            assert!(drain(&mut firehose, &mut scratch, &counters));
            assert_eq!(counters.snapshot().bytes_in, pass * READ_BUDGET as u64);
        }
        assert!(!drain(&mut firehose, &mut scratch, &counters), "EOF");
        assert_eq!(counters.snapshot().bytes_in, 2 * READ_BUDGET as u64 + 10);
    }

    #[test]
    fn broadcast_frames_share_one_allocation() {
        let shared = frame(64, b's');
        let mut a = Outbox::new(1024);
        let mut b = Outbox::new(1024);
        a.push(shared.clone());
        b.push(shared.clone());
        // One payload allocation, three handles: encode once, write N.
        assert_eq!(Arc::strong_count(&shared), 3);
    }
}
