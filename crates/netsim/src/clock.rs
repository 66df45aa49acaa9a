//! Simulated time.
//!
//! The whole simulator advances in fixed ticks (default 1 ms).  Simulated
//! time is anchored at an arbitrary epoch offset so emitted ULM events carry
//! plausible absolute dates (the MATISSE demo ran in May 2000) while all
//! arithmetic stays in plain microseconds.

use jamm_ulm::Timestamp;
/// Default tick length: 1 millisecond.
pub const DEFAULT_TICK_US: u64 = 1_000;

/// The MATISSE demo date, 2000-05-15 12:00 UTC.
const MATISSE_EPOCH: Timestamp = Timestamp::from_micros(958_392_000_000_000);

/// The simulation clock: current simulated time plus the tick length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    /// Microseconds since the simulation epoch.
    now_us: u64,
    /// Absolute time of the simulation epoch (for ULM timestamps).
    epoch: Timestamp,
    /// Tick duration in microseconds.
    tick_us: u64,
}

impl SimClock {
    /// A clock anchored at the MATISSE demo date (2000-05-15 12:00 UTC) with
    /// the default 1 ms tick.
    pub fn matisse() -> Self {
        SimClock {
            now_us: 0,
            epoch: MATISSE_EPOCH,
            tick_us: DEFAULT_TICK_US,
        }
    }

    /// A clock with an explicit epoch and tick length.
    pub fn new(epoch: Timestamp, tick_us: u64) -> Self {
        assert!(tick_us > 0, "tick length must be positive");
        SimClock {
            now_us: 0,
            epoch,
            tick_us,
        }
    }

    /// Simulated microseconds elapsed since the simulation started.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Simulated seconds elapsed since the simulation started.
    pub fn now_secs(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    /// The tick duration in microseconds.
    pub fn tick_us(&self) -> u64 {
        self.tick_us
    }

    /// The tick duration in seconds.
    pub fn tick_secs(&self) -> f64 {
        self.tick_us as f64 / 1e6
    }

    /// Absolute timestamp for the current simulated instant.
    pub fn timestamp(&self) -> Timestamp {
        self.epoch.add_micros(self.now_us)
    }

    /// Absolute timestamp for an instant `offset_us` after now (used when a
    /// component knows an event completes partway through a tick).
    pub fn timestamp_at(&self, offset_us: u64) -> Timestamp {
        self.epoch.add_micros(self.now_us + offset_us)
    }

    /// Advance by one tick.
    pub fn advance(&mut self) {
        self.now_us += self.tick_us;
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::matisse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matisse_epoch_is_may_2000() {
        let c = SimClock::matisse();
        assert_eq!(c.timestamp().to_ulm_date(), "20000515120000.000000");
    }

    #[test]
    fn advance_moves_time_by_ticks() {
        let mut c = SimClock::matisse();
        for _ in 0..1_000 {
            c.advance();
        }
        assert_eq!(c.now_us(), 1_000_000);
        assert!((c.now_secs() - 1.0).abs() < 1e-9);
        assert_eq!(c.timestamp().to_ulm_date(), "20000515120001.000000");
    }

    #[test]
    fn custom_tick_length() {
        let mut c = SimClock::new(Timestamp::from_secs(100), 250);
        c.advance();
        c.advance();
        assert_eq!(c.now_us(), 500);
        assert_eq!(c.tick_secs(), 0.00025);
        assert_eq!(c.timestamp().as_micros(), 100_000_500);
    }

    #[test]
    #[should_panic(expected = "tick length must be positive")]
    fn zero_tick_rejected() {
        let _ = SimClock::new(Timestamp::EPOCH, 0);
    }

    #[test]
    fn timestamp_at_offsets_within_tick() {
        let c = SimClock::matisse();
        assert_eq!(
            c.timestamp_at(421).as_micros() - c.timestamp().as_micros(),
            421
        );
    }
}
