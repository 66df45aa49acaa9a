//! Jittered exponential backoff and a circuit breaker.
//!
//! The edge subscriber client (`jamm_rmi::edge::EdgeClient`) must not die
//! on its first transport failure.  This module is its self-healing
//! discipline:
//!
//! * [`Backoff`] — exponential delay with deterministic, seeded jitter
//!   (from [`crate::rng::Rng`], so simulated-clock tests stay
//!   byte-reproducible).
//! * [`CircuitBreaker`] — the classic three-state machine: **closed**
//!   (traffic flows) → **open** after `failure_threshold` consecutive
//!   failures (every attempt is refused *without any syscall*, so a
//!   permanently dead endpoint costs nothing per call) → **half-open**
//!   once the backoff deadline passes (exactly one probe is allowed
//!   through; success closes the breaker, failure re-opens it with a
//!   longer delay).
//!
//! Time is passed in explicitly as microseconds (`now_us`), never read
//! from the wall clock, so the same breaker drives real sockets (callers
//! feed it `Instant`-derived micros) and the netsim scenario engine
//! (which feeds it the simulated clock).

use crate::rng::Rng;

/// Exponential backoff with deterministic jitter.
///
/// Delay for attempt `n` (0-based) is `base * 2^n`, capped at `max`,
/// plus a jitter drawn uniformly from `[0, delay/2)` — the standard
/// "equal jitter" scheme that prevents a fleet of clients reconnecting
/// in lock-step after a collector restart.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_us: u64,
    max_us: u64,
    attempt: u32,
    rng: Rng,
}

impl Backoff {
    /// A backoff starting at `base_us` and capped at `max_us`, with
    /// jitter drawn from a stream seeded by `seed`.
    pub fn new(base_us: u64, max_us: u64, seed: u64) -> Self {
        Backoff {
            base_us: base_us.max(1),
            max_us: max_us.max(base_us.max(1)),
            attempt: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The next delay, in microseconds, advancing the attempt counter.
    pub fn next_delay_us(&mut self) -> u64 {
        let raw = self.current_base_us();
        self.attempt = self.attempt.saturating_add(1);
        let jitter = if raw >= 2 {
            self.rng.gen_range(0..raw / 2)
        } else {
            0
        };
        raw.saturating_add(jitter)
    }

    /// The delay the next call to [`Backoff::next_delay_us`] bases itself
    /// on, before jitter.
    fn current_base_us(&self) -> u64 {
        let exp = self.attempt.min(32);
        self.base_us.saturating_mul(1u64 << exp).min(self.max_us)
    }

    /// Back to the first-attempt delay (called on success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call is allowed.
    Closed,
    /// Failing: calls are refused until the backoff deadline passes.
    Open,
    /// Probing: the deadline passed and one trial call is in flight.
    HalfOpen,
}

/// Monotonic counters a breaker accumulates over its life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Transitions into the open state.
    pub opens: u64,
    /// Half-open probes attempted.
    pub probes: u64,
    /// Successful probes (open → half-open → closed revivals).
    pub revivals: u64,
    /// Failures recorded in total.
    pub failures: u64,
}

/// A three-state circuit breaker driven by explicit time.
///
/// Callers ask [`CircuitBreaker::allow`] before each attempt, then report
/// the result with [`CircuitBreaker::record_success`] /
/// [`CircuitBreaker::record_failure`].  While open, `allow` is a pure
/// comparison against the reopen deadline — no syscalls, no busy-loop.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    failure_threshold: u32,
    backoff: Backoff,
    retry_at_us: u64,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `failure_threshold` consecutive
    /// failures and retries on the given backoff schedule.
    pub fn new(failure_threshold: u32, backoff: Backoff) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            failure_threshold: failure_threshold.max(1),
            backoff,
            retry_at_us: 0,
            stats: BreakerStats::default(),
        }
    }

    /// Is an attempt allowed at `now_us`?  In the open state this flips
    /// to half-open (and counts a probe) once the deadline passes.
    pub fn allow(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_us >= self.retry_at_us {
                    self.state = BreakerState::HalfOpen;
                    self.stats.probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The attempt succeeded: close the breaker and reset the schedule.
    pub fn record_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.stats.revivals += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.backoff.reset();
    }

    /// The attempt failed at `now_us`: a half-open probe (or crossing
    /// the threshold while closed) re-opens the breaker with the next
    /// backoff delay.
    pub fn record_failure(&mut self, now_us: u64) {
        self.stats.failures += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.failure_threshold;
        if trip {
            if self.state != BreakerState::Open {
                self.stats.opens += 1;
            }
            self.state = BreakerState::Open;
            self.retry_at_us = now_us.saturating_add(self.backoff.next_delay_us());
        }
    }

    /// Current state (without side effects).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::new(threshold, Backoff::new(1_000, 64_000, 42))
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(100, 800, 1);
        let mut last_base = 0;
        for expected in [100, 200, 400, 800, 800] {
            assert_eq!(b.current_base_us(), expected);
            let d = b.next_delay_us();
            assert!(d >= expected && d < expected + expected / 2 + 1, "{d}");
            last_base = expected;
        }
        b.reset();
        assert_eq!(b.current_base_us(), 100);
        assert!(last_base == 800);
    }

    #[test]
    fn closed_breaker_allows_and_trips_at_threshold() {
        let mut b = breaker(3);
        assert!(b.allow(0));
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(b.retry_at_us - 1), "refused before the deadline");
    }

    #[test]
    fn half_open_probe_revives_or_reopens_longer() {
        let mut b = breaker(1);
        b.record_failure(0);
        let first_deadline = b.retry_at_us;
        assert!(b.allow(first_deadline), "deadline passed: probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens with a longer (doubled base) delay.
        b.record_failure(first_deadline);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.retry_at_us > first_deadline);
        let second_deadline = b.retry_at_us;
        assert!(b.allow(second_deadline));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().revivals, 1);
        assert_eq!(b.stats().opens, 2);
        assert_eq!(b.stats().probes, 2);
    }

    #[test]
    fn success_resets_the_failure_count_and_schedule() {
        let mut b = breaker(2);
        b.record_failure(0);
        b.record_success();
        b.record_failure(10);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "streak broken by the success"
        );
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_is_pure_comparison_no_state_churn() {
        let mut b = breaker(1);
        b.record_failure(0);
        let deadline = b.retry_at_us;
        for now in 0..deadline {
            assert!(!b.allow(now));
        }
        assert_eq!(b.stats().probes, 0, "no probes burned while waiting");
    }
}
