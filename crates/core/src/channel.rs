//! Multi-producer / multi-consumer channels with optional capacity bounds.
//!
//! The event pipeline runs on these channels.  Unlike the unbounded queues
//! the seed code used, a channel created with [`bounded`] refuses (or
//! overwrites, see [`Sender::send_overwriting`]) work past its capacity, so
//! a stalled consumer surfaces as an explicit drop count instead of
//! unbounded memory growth.  [`unbounded`] remains available for
//! application-side feeds that must never block the instrumented program.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Create a channel that holds at most `capacity` in-flight items.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    new_channel(Some(capacity.max(1)))
}

/// Create a channel with no capacity bound.
///
/// Only producer-side feeds that must never observe backpressure (e.g.
/// instrumented applications) should use this; the gateway subscription
/// path is always bounded.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_channel(None)
}

fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Error returned by a blocking send on a channel with no receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// All receivers are gone.
    Disconnected(T),
}

/// Error returned by a blocking receive on an empty channel with no senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No item is currently queued.
    Empty,
    /// No item is queued and all senders are gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no item arriving.
    Timeout,
    /// All senders are gone and the queue is drained.
    Disconnected,
}

/// The sending half of a channel.  Cloneable; the channel disconnects for
/// receivers when the last sender is dropped.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sender(len={})", self.len())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.chan.lock();
        s.senders -= 1;
        if s.senders == 0 {
            drop(s);
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Chan<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T> Sender<T> {
    /// Queue one item, blocking while the channel is at capacity.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut s = self.chan.lock();
        loop {
            if s.receivers == 0 {
                return Err(SendError(item));
            }
            match s.capacity {
                Some(cap) if s.queue.len() >= cap => {
                    s = self
                        .chan
                        .not_full
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                _ => break,
            }
        }
        s.queue.push_back(item);
        drop(s);
        self.chan.not_empty.notify_one();
        Ok(())
    }

    /// Queue one item without blocking.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut s = self.chan.lock();
        if s.receivers == 0 {
            return Err(TrySendError::Disconnected(item));
        }
        if let Some(cap) = s.capacity {
            if s.queue.len() >= cap {
                return Err(TrySendError::Full(item));
            }
        }
        s.queue.push_back(item);
        drop(s);
        self.chan.not_empty.notify_one();
        Ok(())
    }

    /// Queue one item, evicting the oldest queued item if the channel is at
    /// capacity.  Returns `Ok(true)` when an eviction happened — the
    /// caller's drop counter should record it.
    pub fn send_overwriting(&self, item: T) -> Result<bool, SendError<T>> {
        let mut s = self.chan.lock();
        if s.receivers == 0 {
            return Err(SendError(item));
        }
        let mut evicted = false;
        if let Some(cap) = s.capacity {
            while s.queue.len() >= cap {
                s.queue.pop_front();
                evicted = true;
            }
        }
        s.queue.push_back(item);
        drop(s);
        self.chan.not_empty.notify_one();
        Ok(evicted)
    }

    /// Queue a whole batch under **one** lock acquisition, evicting the
    /// oldest queued items as needed to respect the capacity bound (the
    /// batched form of [`Sender::send_overwriting`]).  The batch is drained
    /// out of `items`, which keeps its allocation for the caller to reuse.
    /// The final queue content is exactly what a sequence of per-item
    /// overwriting sends would leave behind; the returned count is how
    /// many items (queued or from the batch itself) were evicted.  Fails
    /// with `items` untouched when every receiver is gone.
    pub fn send_batch_overwriting(&self, items: &mut Vec<T>) -> Result<usize, SendError<()>> {
        if items.is_empty() {
            return Ok(0);
        }
        let mut s = self.chan.lock();
        if s.receivers == 0 {
            return Err(SendError(()));
        }
        s.queue.extend(items.drain(..));
        let mut evicted = 0;
        if let Some(cap) = s.capacity {
            while s.queue.len() > cap {
                s.queue.pop_front();
                evicted += 1;
            }
        }
        drop(s);
        self.chan.not_empty.notify_all();
        Ok(evicted)
    }

    /// Queue as much of a batch as fits without blocking, under one lock
    /// acquisition (the batched form of [`Sender::try_send`] for a
    /// drop-newest hop).  Returns how many items were accepted: that
    /// prefix is drained out of `items` and queued in order, the rejected
    /// tail stays in `items` for the caller to account.  Fails with
    /// `items` untouched when every receiver is gone.
    pub fn try_send_batch(&self, items: &mut Vec<T>) -> Result<usize, SendError<()>> {
        if items.is_empty() {
            return Ok(0);
        }
        let mut s = self.chan.lock();
        if s.receivers == 0 {
            return Err(SendError(()));
        }
        let room = match s.capacity {
            Some(cap) => cap.saturating_sub(s.queue.len()),
            None => items.len(),
        };
        let accepted = items.len().min(room);
        s.queue.extend(items.drain(..accepted));
        drop(s);
        if accepted > 0 {
            self.chan.not_empty.notify_all();
        }
        Ok(accepted)
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.chan.lock().queue.len()
    }

    /// True when no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.chan.lock().capacity
    }
}

/// The receiving half of a channel.  Cloneable; items go to whichever
/// receiver takes them first.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Receiver(len={})", self.len())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.lock().receivers += 1;
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.chan.lock();
        s.receivers -= 1;
        if s.receivers == 0 {
            drop(s);
            self.chan.not_full.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Take the next item without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut s = self.chan.lock();
        match s.queue.pop_front() {
            Some(item) => {
                drop(s);
                self.chan.not_full.notify_one();
                Ok(item)
            }
            None if s.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Take the next item, blocking until one arrives or every sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut s = self.chan.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                drop(s);
                self.chan.not_full.notify_one();
                return Ok(item);
            }
            if s.senders == 0 {
                return Err(RecvError);
            }
            s = self
                .chan
                .not_empty
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Take the next item, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.chan.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                drop(s);
                self.chan.not_full.notify_one();
                return Ok(item);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .chan
                .not_empty
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
    }

    /// Move everything currently queued onto the end of `out`, in FIFO
    /// order, without blocking: one lock acquisition and one wake-up of
    /// blocked senders for the whole drain, where [`Receiver::try_iter`]
    /// pays both per item.  Returns how many items were moved.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut s = self.chan.lock();
        let n = s.queue.len();
        out.extend(s.queue.drain(..));
        drop(s);
        if n > 0 {
            self.chan.not_full.notify_all();
        }
        n
    }

    /// Iterator draining currently queued items without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { rx: self }
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.chan.lock().queue.len()
    }

    /// True when no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator returned by [`Receiver::try_iter`].
pub struct TryIter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        let rest: Vec<u32> = rx.try_iter().collect();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn batch_sends_match_per_item_semantics() {
        // Overwriting batch: final queue is the freshest `cap` items.
        let (tx, rx) = bounded::<u32>(4);
        tx.try_send(0).unwrap();
        tx.try_send(1).unwrap();
        let mut batch: Vec<u32> = (2..8).collect();
        assert_eq!(tx.send_batch_overwriting(&mut batch).unwrap(), 4);
        assert!(batch.is_empty(), "the batch is drained, not consumed");
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![4, 5, 6, 7]);
        // A batch larger than the capacity evicts its own head.
        batch.extend(0..6);
        assert_eq!(tx.send_batch_overwriting(&mut batch).unwrap(), 2);
        assert_eq!(rx.try_iter().collect::<Vec<u32>>(), vec![2, 3, 4, 5]);
        // Drop-newest batch: prefix fits, the rejected tail stays behind.
        tx.try_send(9).unwrap();
        batch.extend(0..5);
        assert_eq!(tx.try_send_batch(&mut batch).unwrap(), 3);
        assert_eq!(batch, vec![3, 4]);
        assert_eq!(rx.try_iter().collect::<Vec<u32>>(), vec![9, 0, 1, 2]);
        // Empty batches are no-ops; disconnection leaves the batch alone.
        batch.clear();
        assert_eq!(tx.send_batch_overwriting(&mut batch).unwrap(), 0);
        assert_eq!(tx.try_send_batch(&mut batch).unwrap(), 0);
        drop(rx);
        batch.extend([1, 2]);
        assert_eq!(tx.send_batch_overwriting(&mut batch), Err(SendError(())));
        assert_eq!(tx.try_send_batch(&mut batch), Err(SendError(())));
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn drain_into_is_fifo_and_appends() {
        let (tx, rx) = bounded::<u32>(4);
        let mut out = vec![99];
        assert_eq!(rx.drain_into(&mut out), 0, "empty channel");
        assert_eq!(out, vec![99]);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![99, 0, 1, 2, 3], "appended in send order");
        assert!(rx.is_empty());
        // Interleaved with overwriting batch sends: each drain sees
        // exactly what per-item receives would have seen.
        let mut batch: Vec<u32> = (10..16).collect();
        assert_eq!(tx.send_batch_overwriting(&mut batch).unwrap(), 2);
        out.clear();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![12, 13, 14, 15]);
        batch.extend([20, 21]);
        tx.send_batch_overwriting(&mut batch).unwrap();
        tx.try_send(22).unwrap();
        assert_eq!(rx.try_recv(), Ok(20));
        assert_eq!(rx.drain_into(&mut out), 2);
        assert_eq!(out, vec![12, 13, 14, 15, 21, 22]);
        // Queued items survive the last sender; then the drain is empty.
        tx.try_send(30).unwrap();
        drop(tx);
        assert_eq!(rx.drain_into(&mut out), 1);
        assert_eq!(rx.drain_into(&mut out), 0);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn drain_into_wakes_senders_blocked_on_a_full_channel() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        // Two senders block on the full channel; one drain must release
        // both (it freed two slots with a single wake-up).
        let blocked: Vec<_> = (2..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        // The pause only makes it likely both are parked by now; every
        // assertion below holds whichever way the race goes.
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 2);
        for h in blocked {
            h.join().unwrap();
        }
        assert_eq!(out, vec![0, 1]);
        rx.drain_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn send_overwriting_evicts_oldest() {
        let (tx, rx) = bounded::<u32>(2);
        assert!(!tx.send_overwriting(1).unwrap());
        assert!(!tx.send_overwriting(2).unwrap());
        assert!(tx.send_overwriting(3).unwrap(), "evicted 1");
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
        let (tx, rx) = unbounded::<u32>();
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7), "queued items survive sender drop");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
    }

    #[test]
    fn works_across_threads() {
        let (tx, rx) = bounded::<u64>(16);
        let senders: Vec<_> = (0..4)
            .map(|t| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(t * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in senders {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 400);
    }
}
