//! Microsecond-precision timestamps and the ULM `DATE` encoding.
//!
//! The paper's sample event uses `DATE=20000330112320.957943` — a
//! fourteen-digit UTC calendar date/time followed by six fractional digits,
//! giving microsecond precision.  Internally we store timestamps as unsigned
//! microseconds since the Unix epoch, which is convenient both for the live
//! system (`SystemTime`) and the discrete-event simulator (plain `u64`
//! simulated microseconds).

use std::time::{SystemTime, UNIX_EPOCH};

use crate::UlmError;

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in time with microsecond precision.
///
/// `Timestamp` is a thin wrapper over *microseconds since the Unix epoch*
/// (UTC).  It orders and subtracts naturally and converts to/from the ULM
/// `DATE` textual form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The Unix epoch itself (all-zero timestamp).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from microseconds since the Unix epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Construct from whole seconds since the Unix epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * MICROS_PER_SEC)
    }

    /// Construct from seconds expressed as a float (used by sensors that
    /// sample wall-clock time).
    pub fn from_secs_f64(secs: f64) -> Self {
        Timestamp((secs.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// The current wall-clock time.
    pub fn now() -> Self {
        let d = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        Timestamp(d.as_micros() as u64)
    }

    /// Microseconds since the Unix epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the Unix epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Seconds since the Unix epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The fractional microseconds within the current second.
    pub const fn subsec_micros(self) -> u32 {
        (self.0 % MICROS_PER_SEC) as u32
    }

    /// Add a duration in microseconds, saturating at the maximum.
    pub const fn add_micros(self, micros: u64) -> Self {
        Timestamp(self.0.saturating_add(micros))
    }

    /// Subtract a duration in microseconds, saturating at zero.
    pub const fn sub_micros(self, micros: u64) -> Self {
        Timestamp(self.0.saturating_sub(micros))
    }

    /// Signed difference `self - other`, in microseconds.
    pub const fn delta_micros(self, other: Timestamp) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Format as the ULM `DATE` value, e.g. `20000330112320.957943`.
    pub fn to_ulm_date(self) -> String {
        let mut out = String::with_capacity(21);
        // Writing into a `String` cannot fail.
        let _ = self.write_ulm_date(&mut out);
        out
    }

    /// Write the ULM `DATE` rendering into `w` without allocating a
    /// temporary string — the hot-path form of [`Timestamp::to_ulm_date`]
    /// used by the reusable text encoder.
    pub fn write_ulm_date<W: std::fmt::Write>(self, w: &mut W) -> std::fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_civil();
        write!(
            w,
            "{y:04}{mo:02}{d:02}{h:02}{mi:02}{s:02}.{:06}",
            self.subsec_micros()
        )
    }

    /// Parse a ULM `DATE` value.  Accepts `YYYYMMDDHHMMSS` with an optional
    /// fractional part of one to six digits.
    pub fn parse_ulm_date(s: &str) -> crate::Result<Self> {
        let (whole, frac) = match s.split_once('.') {
            Some((w, f)) => (w, f),
            None => (s, ""),
        };
        if whole.len() != 14 || !whole.bytes().all(|b| b.is_ascii_digit()) {
            return Err(UlmError::BadTimestamp(s.to_string()));
        }
        if frac.len() > 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
            return Err(UlmError::BadTimestamp(s.to_string()));
        }
        // Every byte was checked to be an ASCII digit above.
        let num = |r: &str| r.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
        let (y, mo, d) = (num(&whole[0..4]), num(&whole[4..6]), num(&whole[6..8]));
        let (h, mi, sec) = (num(&whole[8..10]), num(&whole[10..12]), num(&whole[12..14]));
        if !(1..=12).contains(&mo)
            || !(1..=31).contains(&d)
            || h > 23
            || mi > 59
            || sec > 60
            || y < 1970
        {
            return Err(UlmError::BadTimestamp(s.to_string()));
        }
        let days = days_from_civil(y as i64, mo as u32, d as u32);
        if days < 0 {
            return Err(UlmError::BadTimestamp(s.to_string()));
        }
        let micros_frac: u64 = if frac.is_empty() {
            0
        } else {
            // Right-pad to six digits: ".9" means 900000 microseconds.
            let mut v = num(frac);
            for _ in 0..(6 - frac.len()) {
                v *= 10;
            }
            v
        };
        let secs = days as u64 * 86_400 + h * 3_600 + mi * 60 + sec;
        Ok(Timestamp(secs * MICROS_PER_SEC + micros_frac))
    }

    /// Decompose into UTC civil (year, month, day, hour, minute, second).
    pub fn to_civil(self) -> (i64, u32, u32, u32, u32, u32) {
        let secs = self.as_secs() as i64;
        let days = secs.div_euclid(86_400);
        let rem = secs.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (rem / 3_600) as u32,
            ((rem % 3_600) / 60) as u32,
            (rem % 60) as u32,
        )
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_ulm_date(f)
    }
}

impl std::ops::Sub for Timestamp {
    type Output = i64;
    fn sub(self, rhs: Self) -> i64 {
        self.delta_micros(rhs)
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sample_date_round_trips() {
        // Sample from §4.2 of the paper.
        let s = "20000330112320.957943";
        let ts = Timestamp::parse_ulm_date(s).unwrap();
        assert_eq!(ts.to_ulm_date(), s);
        let (y, mo, d, h, mi, sec) = ts.to_civil();
        assert_eq!((y, mo, d), (2000, 3, 30));
        assert_eq!((h, mi, sec), (11, 23, 20));
        assert_eq!(ts.subsec_micros(), 957_943);
    }

    #[test]
    fn epoch_is_19700101() {
        assert_eq!(Timestamp::EPOCH.to_ulm_date(), "19700101000000.000000");
    }

    #[test]
    fn fractional_part_is_right_padded() {
        let ts = Timestamp::parse_ulm_date("20000101000000.5").unwrap();
        assert_eq!(ts.subsec_micros(), 500_000);
        let ts = Timestamp::parse_ulm_date("20000101000000.000001").unwrap();
        assert_eq!(ts.subsec_micros(), 1);
    }

    #[test]
    fn missing_fraction_is_zero() {
        let ts = Timestamp::parse_ulm_date("20000101000000").unwrap();
        assert_eq!(ts.subsec_micros(), 0);
        assert_eq!(ts.as_secs() % 60, 0);
    }

    #[test]
    fn rejects_malformed_dates() {
        for bad in [
            "",
            "2000",
            "20001301000000",         // month 13
            "20000100000000",         // day 0
            "20000101250000",         // hour 25
            "2000010100000a",         // non-digit
            "20000101000000.1234567", // 7 fraction digits
            "19691231235959",         // before epoch
        ] {
            assert!(
                Timestamp::parse_ulm_date(bad).is_err(),
                "expected error for {bad:?}"
            );
        }
    }

    #[test]
    fn leap_year_handling() {
        let ts = Timestamp::parse_ulm_date("20000229120000.000000").unwrap();
        assert_eq!(ts.to_civil().0, 2000);
        assert_eq!(ts.to_civil().1, 2);
        assert_eq!(ts.to_civil().2, 29);
        // 1900 is not a leap year but 2000 is; civil_from_days round trip:
        let ts2 = Timestamp::parse_ulm_date("20040229235959.999999").unwrap();
        assert_eq!(ts2.to_ulm_date(), "20040229235959.999999");
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = Timestamp::from_micros(1_000_000);
        let b = a.add_micros(250);
        assert!(b > a);
        assert_eq!(b - a, 250);
        assert_eq!(a - b, -250);
        assert_eq!(a.sub_micros(2_000_000), Timestamp::EPOCH);
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert!((Timestamp::from_secs_f64(1.5).as_micros() as i64 - 1_500_000).abs() < 2);
    }

    #[test]
    fn now_is_after_2020() {
        assert!(Timestamp::now() > Timestamp::parse_ulm_date("20200101000000").unwrap());
    }

    #[test]
    fn civil_round_trip_many_days() {
        for days in (0..25_000).step_by(37) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }
}
