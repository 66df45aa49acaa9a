//! Multi-producer / multi-consumer channels with optional capacity bounds.
//!
//! The event pipeline runs on these channels.  A send never waits: on a
//! channel created with [`bounded`] that is at capacity, [`Sender::send`]
//! evicts the oldest queued item and reports the eviction, so a stalled
//! consumer surfaces as an explicit drop count instead of unbounded memory
//! growth or a stalled producer.  Only receivers ever wait.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Receivers asleep (or about to sleep) on `not_empty`.
    recv_waiting: usize,
}

/// The wake rule: a receiver counts itself in `recv_waiting` under the
/// mutex before it waits and uncounts itself after it wakes, and a push
/// notifies only when the count it read under that same mutex is nonzero.
/// A waiter that registered has released the mutex inside `wait` by the
/// time the notifier can read its count, so no wake-up is lost; a notify
/// with no sleeper (a `futex` syscall on Linux) is simply not made.
/// Dropping the last sender always notifies every receiver.
struct Chan<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    /// Notifies made: the wake-ups [`Receiver::wakeups`] reports.  One
    /// relaxed add on a notify that is made anyway.
    notifies: AtomicU64,
}

/// Create a channel that holds at most `capacity` in-flight items; a send
/// past that evicts the oldest.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    new_channel(Some(capacity.max(1)))
}

/// Create a channel with no capacity bound: a send neither waits nor
/// evicts.
///
/// For feeds whose every item must arrive and whose producer paces itself
/// (commands, directory notifications, an application sensor's feed); the
/// gateway subscription path is always bounded.
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
            recv_waiting: 0,
        }),
        not_empty: Condvar::new(),
        notifies: AtomicU64::new(0),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Error returned by a send on a channel with no receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

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
            self.chan.notify(true);
        }
    }
}

impl<T> Chan<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wake one (or every) waiting receiver.  Called after the lock is
    /// released, and only when a sleeper was counted under it (or on the
    /// last sender's drop, which must wake everyone).
    fn notify(&self, all: bool) {
        self.notifies.fetch_add(1, Ordering::Relaxed);
        if all {
            self.not_empty.notify_all();
        } else {
            self.not_empty.notify_one();
        }
    }

    /// Wake receivers after a push, if any sleeps.  Takes the guard so
    /// the count is read under the lock and the notify made after it.
    fn pushed(&self, s: std::sync::MutexGuard<'_, State<T>>, all: bool) {
        let sleeping = s.recv_waiting > 0;
        drop(s);
        if sleeping {
            self.notify(all);
        }
    }
}

impl<T> Sender<T> {
    /// Queue one item without waiting, evicting the oldest queued item if
    /// the channel is at capacity.  Returns `Ok(true)` when an eviction
    /// happened — the caller's drop counter should record it.
    pub fn send(&self, item: T) -> Result<bool, SendError<T>> {
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
        self.chan.pushed(s, false);
        Ok(evicted)
    }

    /// Queue a whole batch under **one** lock acquisition, evicting the
    /// oldest queued items as needed to respect the capacity bound (the
    /// batched form of [`Sender::send`]).  The batch is drained out of
    /// `items`, which keeps its allocation for the caller to reuse.  The
    /// final queue content is exactly what a sequence of per-item sends
    /// would leave behind; the returned count is how many items (queued
    /// or from the batch itself) were evicted.  Fails with `items`
    /// untouched when every receiver is gone.
    pub fn send_batch(&self, items: &mut Vec<T>) -> Result<usize, SendError<()>> {
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
        self.chan.pushed(s, true);
        Ok(evicted)
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

    /// Wake-ups made on this channel so far; see [`Receiver::wakeups`].
    pub fn wakeups(&self) -> u64 {
        self.chan.notifies.load(Ordering::Relaxed)
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
        self.chan.lock().receivers -= 1;
    }
}

impl<T> Receiver<T> {
    /// Take the next item without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut s = self.chan.lock();
        match s.queue.pop_front() {
            Some(item) => Ok(item),
            None if s.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Wait until an item is queued and return the guard over a nonempty
    /// queue, or fail once the queue is empty and every sender is gone.
    fn wait_nonempty(&self) -> Result<std::sync::MutexGuard<'_, State<T>>, RecvError> {
        let mut s = self.chan.lock();
        loop {
            if !s.queue.is_empty() {
                return Ok(s);
            }
            if s.senders == 0 {
                return Err(RecvError);
            }
            s.recv_waiting += 1;
            s = self
                .chan
                .not_empty
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.recv_waiting -= 1;
        }
    }

    /// Take the next item, blocking until one arrives or every sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut s = self.wait_nonempty()?;
        s.queue.pop_front().ok_or(RecvError)
    }

    /// Block until at least one item is queued, then move up to `max`
    /// queued items (at least one) onto the end of `out` in FIFO order,
    /// all under the one lock the wait ended with: the batched form of
    /// [`Receiver::recv`], where a `recv` plus a [`Receiver::try_recv`]
    /// per further item pays one lock each.  Returns how many items were
    /// moved; fails only once the queue is empty and every sender is
    /// gone.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        let mut s = self.wait_nonempty()?;
        let n = s.queue.len().min(max.max(1));
        out.extend(s.queue.drain(..n));
        Ok(n)
    }

    /// Take the next item, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.chan.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                return Ok(item);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            s.recv_waiting += 1;
            let (guard, _) = self
                .chan
                .not_empty
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
            s.recv_waiting -= 1;
        }
    }

    /// Move everything currently queued onto the end of `out`, in FIFO
    /// order, without blocking: one lock acquisition for the whole drain,
    /// where [`Receiver::try_iter`] pays one per item.  Returns how many
    /// items were moved.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut s = self.chan.lock();
        let n = s.queue.len();
        out.extend(s.queue.drain(..));
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

    /// Wake-ups made on this channel so far: pushes that found a receiver
    /// asleep and notified it, plus the last sender's drop.  A push that
    /// finds no sleeper makes none, so a consumer that drains in batches
    /// and rarely waits reads low here.
    pub fn wakeups(&self) -> u64 {
        self.chan.notifies.load(Ordering::Relaxed)
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
    fn batch_sends_match_per_item_semantics() {
        // The final queue is the freshest `cap` items.
        let (tx, rx) = bounded::<u32>(4);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let mut batch: Vec<u32> = (2..8).collect();
        assert_eq!(tx.send_batch(&mut batch).unwrap(), 4);
        assert!(batch.is_empty(), "the batch is drained, not consumed");
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![4, 5, 6, 7]);
        // A batch larger than the capacity evicts its own head.
        batch.extend(0..6);
        assert_eq!(tx.send_batch(&mut batch).unwrap(), 2);
        assert_eq!(rx.try_iter().collect::<Vec<u32>>(), vec![2, 3, 4, 5]);
        // Empty batches are no-ops; disconnection leaves the batch alone.
        assert_eq!(tx.send_batch(&mut batch).unwrap(), 0);
        drop(rx);
        batch.extend([1, 2]);
        assert_eq!(tx.send_batch(&mut batch), Err(SendError(())));
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn drain_into_is_fifo_and_appends() {
        let (tx, rx) = bounded::<u32>(4);
        let mut out = vec![99];
        assert_eq!(rx.drain_into(&mut out), 0, "empty channel");
        assert_eq!(out, vec![99]);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![99, 0, 1, 2, 3], "appended in send order");
        assert!(rx.is_empty());
        // Interleaved with batch sends: each drain sees exactly what
        // per-item receives would have seen.
        let mut batch: Vec<u32> = (10..16).collect();
        assert_eq!(tx.send_batch(&mut batch).unwrap(), 2);
        out.clear();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![12, 13, 14, 15]);
        batch.extend([20, 21]);
        tx.send_batch(&mut batch).unwrap();
        tx.send(22).unwrap();
        assert_eq!(rx.try_recv(), Ok(20));
        assert_eq!(rx.drain_into(&mut out), 2);
        assert_eq!(out, vec![12, 13, 14, 15, 21, 22]);
        // Queued items survive the last sender; then the drain is empty.
        tx.send(30).unwrap();
        drop(tx);
        assert_eq!(rx.drain_into(&mut out), 1);
        assert_eq!(rx.drain_into(&mut out), 0);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_batch_takes_at_most_max_in_fifo_order() {
        let (tx, rx) = unbounded::<u32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = vec![99];
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(4));
        assert_eq!(out, vec![99, 0, 1, 2, 3], "appended in send order");
        assert_eq!(rx.recv_batch(&mut out, 0), Ok(1), "a zero max takes one");
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(4));
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // Queued items survive the last sender; an empty queue with no
        // sender is the only error.
        drop(tx);
        out.clear();
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(1));
        assert_eq!(out, vec![9]);
        assert_eq!(rx.recv_batch(&mut out, 4), Err(RecvError));
        assert_eq!(out, vec![9], "a failed receive leaves `out` alone");
    }

    #[test]
    fn a_waiting_recv_batch_fails_when_the_last_sender_goes() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| rx.recv_batch(&mut Vec::new(), 8));
            until(&rx, |st| st.recv_waiting == 1);
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Err(RecvError));
        });
    }

    #[test]
    fn send_overwriting_evicts_oldest() {
        let (tx, rx) = bounded::<u32>(2);
        assert!(!tx.send(1).unwrap());
        assert!(!tx.send(2).unwrap());
        assert!(tx.send(3).unwrap(), "evicted 1");
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![2, 3]);
        // An unbounded channel never evicts.
        let (tx, rx) = unbounded::<u32>();
        for i in 0..10_000 {
            assert!(!tx.send(i).unwrap());
        }
        assert_eq!(rx.len(), 10_000);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
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

    /// Spin until `cond` holds of the channel state.  A count read under
    /// the lock means the waiter has released it inside `wait`, so the
    /// notify the test then provokes cannot be missed.
    fn until<T>(rx: &Receiver<T>, cond: impl Fn(&State<T>) -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond(&rx.chan.lock()) {
            assert!(std::time::Instant::now() < deadline, "waiter never slept");
            std::thread::yield_now();
        }
    }

    #[test]
    fn no_sleeper_means_no_notify_on_any_path() {
        let (tx, rx) = bounded::<u32>(4);
        for i in 1..=5 {
            tx.send(i).unwrap();
        }
        tx.send_batch(&mut vec![6, 7]).unwrap();
        assert_eq!(rx.try_recv(), Ok(4));
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(6));
        tx.send_batch(&mut vec![8, 9]).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 1), Ok(1));
        assert_eq!(rx.drain_into(&mut out), 2);
        assert_eq!(out, vec![7, 8, 9]);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(rx.clone());
        assert_eq!(rx.wakeups(), 0);
        assert_eq!(rx.chan.lock().recv_waiting, 0, "a timed-out wait uncounts");
    }

    #[test]
    fn a_push_to_a_sleeping_receiver_notifies_once() {
        for mode in ["recv", "recv_timeout", "recv_batch"] {
            let (tx, rx) = bounded::<u32>(4);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| match mode {
                    "recv" => vec![rx.recv().unwrap()],
                    "recv_timeout" => vec![rx.recv_timeout(Duration::from_secs(30)).unwrap()],
                    _ => {
                        let mut out = Vec::new();
                        rx.recv_batch(&mut out, 8).unwrap();
                        out
                    }
                });
                // Counted under the lock, so the waiter has released it
                // inside `wait`: the push lands after the count, and its
                // notify must still reach the sleeper.
                until(&rx, |st| st.recv_waiting == 1);
                tx.send(7).unwrap();
                assert_eq!(waiter.join().unwrap(), vec![7]);
            });
            assert_eq!((rx.wakeups(), tx.wakeups()), (1, 1), "{mode}");
            assert_eq!(rx.chan.lock().recv_waiting, 0);
        }
    }

    #[test]
    fn blocking_senders_and_mixed_receivers_lose_no_wake_up() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 10_000;
        let (tx, rx) = unbounded::<u32>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // A lost wake-up hangs a sleeping `recv` for good; the watchdog
        // turns that hang into a failure.
        let _worker = std::thread::spawn(move || {
            let senders: Vec<_> = (0..SENDERS)
                .map(|t| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            tx.send(t * PER_SENDER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let receivers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let item = match got.len() % 3 {
                                0 => rx.recv().map_err(|_| ()),
                                1 => match rx.recv_timeout(Duration::from_secs(30)) {
                                    Err(RecvTimeoutError::Timeout) => continue,
                                    other => other.map_err(|_| ()),
                                },
                                _ => match rx.recv_batch(&mut got, 16) {
                                    Ok(_) => continue,
                                    Err(_) => Err(()),
                                },
                            };
                            match item {
                                Ok(v) => got.push(v),
                                Err(()) => return got,
                            }
                        }
                    })
                })
                .collect();
            for h in senders {
                h.join().unwrap();
            }
            let mut all: Vec<u32> = receivers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            done_tx.send(all).unwrap();
        });
        let all = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a sleeping receiver was never woken");
        assert_eq!(all, (0..SENDERS * PER_SENDER).collect::<Vec<u32>>());
    }

    #[test]
    fn works_across_threads() {
        let (tx, rx) = unbounded::<u64>();
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
