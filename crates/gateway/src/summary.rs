//! Summary data computation.
//!
//! "The event gateway can also be configured to compute summary data.  For
//! example, it can compute 1, 10, and 60 minute averages of CPU usage, and
//! make this information available to consumers." (§2.2)  The same machinery
//! backs the summary-data service sketched in §7.0 that the network-aware
//! client uses to pick its TCP buffer size.

use std::collections::{HashMap, VecDeque};

use jamm_core::intern::Sym;
use jamm_core::query::Plan;
use jamm_core::sync::RwLock;
use jamm_ulm::{keys, Event, Level, SharedEvent, Timestamp};

/// A summary window length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryWindow {
    /// One minute.
    OneMinute,
    /// Ten minutes.
    TenMinutes,
    /// Sixty minutes.
    OneHour,
}

impl SummaryWindow {
    /// Window length in microseconds.
    pub fn micros(self) -> u64 {
        match self {
            SummaryWindow::OneMinute => 60_000_000,
            SummaryWindow::TenMinutes => 600_000_000,
            SummaryWindow::OneHour => 3_600_000_000,
        }
    }

    /// Suffix appended to the event type of the summary event.
    pub fn suffix(self) -> &'static str {
        match self {
            SummaryWindow::OneMinute => "AVG_1MIN",
            SummaryWindow::TenMinutes => "AVG_10MIN",
            SummaryWindow::OneHour => "AVG_60MIN",
        }
    }

    /// The three windows the paper names.
    pub fn all() -> [SummaryWindow; 3] {
        [
            SummaryWindow::OneMinute,
            SummaryWindow::TenMinutes,
            SummaryWindow::OneHour,
        ]
    }
}

/// Summary statistics for one (host, event type) over one window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    window: SummaryWindow,
    /// Number of readings in the window.
    count: usize,
    mean: f64,
    min: f64,
    max: f64,
}

/// One series' readings in timestamp order, bounded by the longest window.
///
/// A window covers `[now - length, now]`, both edges inclusive: a reading
/// exactly one window-length old still counts, a reading exactly at `now`
/// counts, and a reading after `now` (clock skew) is ignored.
///
/// The readings sit in [`Block`]s, oldest block first, none empty.  A
/// series grows by one block at a time, so growing never copies its
/// readings into a buffer twice the size and leaves the old one resident:
/// the table's resident memory follows the readings it holds, at 12 B a
/// reading.
#[derive(Debug, Default)]
struct Readings(VecDeque<Block>);

/// Readings appended per block (3 KiB).  A late arrival is inserted where
/// it belongs, even into a full block.
const BLOCK: usize = 256;

/// Up to [`BLOCK`] readings in timestamp order: a base stamp, then each
/// reading's offset from it (µs, `u32`) and its value, in two arrays, so
/// a reading costs 12 B where a `(Timestamp, f64)` pair costs 16.  A
/// reading more than `u32::MAX` µs (71.6 min) past the base starts a new
/// block.
#[derive(Debug)]
struct Block {
    base: u64,
    offsets: VecDeque<u32>,
    values: VecDeque<f64>,
}

impl Block {
    fn new(t: u64, value: f64) -> Block {
        let mut block = Block {
            base: t,
            offsets: VecDeque::with_capacity(BLOCK),
            values: VecDeque::with_capacity(BLOCK),
        };
        block.push(t, value);
        block
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Append a reading at or after every reading held (an empty block is
    /// rebased at it); `false` when the block is full or `t` is too far
    /// past its base.
    fn push(&mut self, t: u64, value: f64) -> bool {
        if self.offsets.is_empty() {
            self.base = t;
        }
        match self.offset(t) {
            Some(offset) if self.len() < BLOCK => {
                self.insert(self.len(), offset, value);
                true
            }
            _ => false,
        }
    }

    /// `t`'s offset from the base, if it is at or after the base and fits.
    fn offset(&self, t: u64) -> Option<u32> {
        u32::try_from(t.checked_sub(self.base)?).ok()
    }

    fn stamp(&self, offset: u32) -> u64 {
        self.base + u64::from(offset)
    }

    fn first(&self) -> Option<u64> {
        self.offsets.front().map(|o| self.stamp(*o))
    }

    fn last(&self) -> Option<u64> {
        self.offsets.back().map(|o| self.stamp(*o))
    }

    fn insert(&mut self, pos: usize, offset: u32, value: f64) {
        self.offsets.insert(pos, offset);
        self.values.insert(pos, value);
    }

    fn pop_front(&mut self) {
        self.offsets.pop_front();
        self.values.pop_front();
    }

    /// How many readings are at or before `t`.
    fn count_at_or_before(&self, t: u64) -> usize {
        self.offsets.partition_point(|o| self.stamp(*o) <= t)
    }

    /// Every reading, newest first.
    fn newest_first(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let stamps = self.offsets.iter().rev().map(|o| self.stamp(*o));
        stamps.zip(self.values.iter().rev().copied())
    }
}

/// An interned (host, event type) series identity: what the gateway
/// resolves once per published event and every later step reuses.
pub(crate) type SeriesKey = (Sym, Sym);

/// One series' summary events (in window order) under its resolved key.
/// Keys are resolved to strings on this cold path so the series ordering
/// matches the seed-era string-keyed output exactly.
type SummaryRow = ((&'static str, &'static str), Vec<Event>);

impl Readings {
    /// Record an event's numeric reading (events without a `VAL` are
    /// ignored).  Readings are kept in timestamp order even when events
    /// arrive out of order (sensors on different hosts feed one gateway,
    /// so modest reordering is normal); the common in-order case is a
    /// plain append.
    fn record(&mut self, event: &Event) {
        let Some(value) = event.value() else { return };
        let t = event.timestamp.as_micros();
        let newest = self.0.back().and_then(Block::last);
        // Prune anything older than the longest window to bound memory —
        // relative to the *newest* reading, so a late arrival never
        // truncates fresher data.  Pruning first lets a series whose last
        // reading aged out reuse its block instead of allocating one.
        let cutoff = Timestamp::from_micros(newest.map_or(t, |n| n.max(t)))
            .sub_micros(SummaryWindow::OneHour.micros())
            .as_micros();
        self.prune(cutoff);
        if t < cutoff {
            return; // more than an hour older than the newest: aged out
        }
        if newest.is_some_and(|n| n > t) {
            self.insert_late(t, value);
        } else if !self.0.back_mut().is_some_and(|last| last.push(t, value)) {
            self.0.push_back(Block::new(t, value));
        }
    }

    /// Drop readings before `cutoff`, and the blocks they empty except the
    /// newest, which the next reading refills.
    fn prune(&mut self, cutoff: u64) {
        while let Some(oldest) = self.0.front_mut() {
            while oldest.first().is_some_and(|r| r < cutoff) {
                oldest.pop_front();
            }
            if oldest.len() > 0 || self.0.len() == 1 {
                break;
            }
            self.0.pop_front();
        }
    }

    /// Insert a reading older than the newest one: after every reading at
    /// or before `t`, in the last block that starts at or before it, or at
    /// the very front.
    fn insert_late(&mut self, t: u64, value: f64) {
        let blocks = &mut self.0;
        let starts_before = blocks.partition_point(|b| b.first().is_some_and(|s| s <= t));
        let Some(at) = starts_before.checked_sub(1) else {
            // Before every reading held: into the first block if its base
            // allows, else a block of its own in front.
            match blocks.front_mut().and_then(|b| Some((b.offset(t)?, b))) {
                Some((offset, front)) => front.insert(0, offset, value),
                None => blocks.push_front(Block::new(t, value)),
            }
            return;
        };
        let block = &mut blocks[at];
        let pos = block.count_at_or_before(t);
        if let Some(offset) = block.offset(t) {
            block.insert(pos, offset, value);
            return;
        }
        // Too far past the block's base: `t` and the block's readings after
        // it start a new block based at `t`.  Those readings are later than
        // `t`, so their offsets from it are smaller than from the old base.
        let (offsets, values) = (block.offsets.split_off(pos), block.values.split_off(pos));
        let mut tail = Block::new(t, value);
        for (offset, v) in offsets.into_iter().zip(values) {
            let later = block.stamp(offset) - t;
            tail.insert(tail.len(), later as u32, v);
        }
        blocks.insert(at + 1, tail);
    }

    /// Every reading, newest first.
    fn newest_first(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        let readings = self.0.iter().rev().flat_map(Block::newest_first);
        readings.map(|(t, v)| (Timestamp::from_micros(t), v))
    }

    /// One window's statistics over `[now - length, now]`, both edges
    /// inclusive; `None` when the window holds no readings.
    fn summarize(&self, window: SummaryWindow, now: Timestamp) -> Option<Summary> {
        let cutoff = now.sub_micros(window.micros());
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (t, v) in self.newest_first() {
            if t < cutoff {
                break;
            }
            if t > now {
                continue;
            }
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        (count > 0).then(|| Summary {
            window,
            count,
            mean: sum / count as f64,
            min,
            max,
        })
    }

    /// The synthetic ULM events carrying this series' summaries for the
    /// requested windows (empty windows emit nothing).
    fn summary_row(
        &self,
        (host, ty): &SeriesKey,
        windows: &[SummaryWindow],
        now: Timestamp,
        gateway_name: &str,
    ) -> SummaryRow {
        let (host, ty) = (host.as_str(), ty.as_str());
        let events = windows
            .iter()
            .filter_map(|w| self.summarize(*w, now))
            .map(|s| {
                Event::builder(gateway_name.to_owned(), host)
                    .level(Level::Usage)
                    .event_type(format!("{ty}_{}", s.window.suffix()))
                    .timestamp(now)
                    .field(keys::SENSOR, "summary")
                    .value(s.mean)
                    .field("MIN", s.min)
                    .field("MAX", s.max)
                    .field("COUNT", s.count as u64)
                    .build()
            })
            .collect();
        ((host, ty), events)
    }
}

/// Flatten per-series rows into one event list ordered by (host, event
/// type), each series' windows in the order requested.
fn in_series_order(mut rows: Vec<SummaryRow>) -> Vec<Event> {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows.into_iter().flat_map(|(_, events)| events).collect()
}

/// What the gateway remembers about one (host, event type) series.
struct Series {
    /// The most recently published event — query mode's answer, shared
    /// by refcount.
    latest: SharedEvent,
    /// The series' numeric readings — what the §2.2 summaries average.
    readings: Readings,
}

/// The gateway's per-series table: the query cache and the summary
/// readings under one key, in one map.  A publish is one keyed update
/// under the map's write lock.
#[derive(Default)]
pub(crate) struct SeriesTable {
    series: RwLock<HashMap<SeriesKey, Series>>,
}

impl SeriesTable {
    /// Make `event` its series' latest and record its reading: one hash
    /// probe under the write lock, integer keys only.
    pub(crate) fn observe(&self, key: SeriesKey, event: &SharedEvent) {
        let mut table = self.series.write();
        let series = table.entry(key).or_insert_with(|| Series {
            latest: SharedEvent::clone(event),
            readings: Readings::default(),
        });
        series.latest = SharedEvent::clone(event);
        series.readings.record(event);
    }

    /// The most recently observed event of one series.
    pub(crate) fn latest(&self, key: SeriesKey) -> Option<SharedEvent> {
        let table = self.series.read();
        table.get(&key).map(|s| SharedEvent::clone(&s.latest))
    }

    /// Every series' latest event that `plan` accepts, in (host, event
    /// type) order.  The plan is given each series' key, not asked to look
    /// the latest event's host and type up again.
    pub(crate) fn latest_matching(&self, plan: &Plan) -> Vec<SharedEvent> {
        let mut out: Vec<SharedEvent> = self
            .series
            .read()
            .iter()
            .filter(|(&(host, ty), s)| plan.eval_interned(&*s.latest, Some(host), Some(ty)))
            .map(|(_, s)| SharedEvent::clone(&s.latest))
            .collect();
        out.sort_by(|a, b| (&a.host, &a.event_type).cmp(&(&b.host, &b.event_type)));
        out
    }

    /// Summary events for every requested window of every series whose
    /// (host, event type) key `plan`'s host and type facts admit, ordered
    /// by (host, event type) with the windows in the order requested.  A
    /// rejected series is skipped by its key before any event is built.
    pub(crate) fn summary_events(
        &self,
        plan: &Plan,
        windows: &[SummaryWindow],
        now: Timestamp,
        gateway_name: &str,
    ) -> Vec<Event> {
        let facts = plan.facts();
        let admitted = |(host, ty): &SeriesKey| {
            facts.hosts.as_ref().is_none_or(|h| h.contains(host))
                && facts.types.as_ref().is_none_or(|t| t.contains(ty))
        };
        let row = |(key, s): (_, &Series)| s.readings.summary_row(key, windows, now, gateway_name);
        let rows = self
            .series
            .read()
            .iter()
            .filter(|(key, _)| admitted(key))
            .map(row)
            .collect();
        in_series_order(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(host: &str, ty: &str, t_secs: u64, value: f64) -> Event {
        Event::builder("vmstat", host)
            .level(Level::Usage)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t_secs))
            .value(value)
            .build()
    }

    /// One series' readings fed `(t_secs, value)` pairs in the given order.
    fn series(readings: &[(u64, f64)]) -> Readings {
        let mut r = Readings::default();
        for &(t, v) in readings {
            r.record(&reading("h", "CPU_TOTAL", t, v));
        }
        r
    }

    #[test]
    fn one_minute_average_of_cpu_usage() {
        // Readings every 10 s for 2 minutes: 0..12 readings of increasing load.
        let r = series(
            &(0..12u64)
                .map(|i| (1_000 + i * 10, i as f64 * 10.0))
                .collect::<Vec<_>>(),
        );
        let now = Timestamp::from_secs(1_000 + 110);
        let one = r.summarize(SummaryWindow::OneMinute, now).unwrap();
        // The last 60 s contain readings at t=1050..1110 -> values 50..110.
        assert_eq!(one.count, 7);
        assert!((one.mean - 80.0).abs() < 1e-9);
        assert_eq!(one.min, 50.0);
        assert_eq!(one.max, 110.0);
        // The 10-minute window sees everything.
        let ten = r.summarize(SummaryWindow::TenMinutes, now).unwrap();
        assert_eq!(ten.count, 12);
        assert!((ten.mean - 55.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_returns_none() {
        let r = series(&[(100, 10.0)]);
        let much_later = Timestamp::from_secs(100 + 7_200);
        assert!(r.summarize(SummaryWindow::OneMinute, much_later).is_none());
        let never = Readings::default();
        let at = Timestamp::from_secs(100);
        assert!(never.summarize(SummaryWindow::OneMinute, at).is_none());
    }

    #[test]
    fn non_numeric_events_are_ignored() {
        let mut r = Readings::default();
        let ev = Event::builder("p", "h")
            .event_type("PROC_DIED")
            .timestamp(Timestamp::from_secs(1))
            .build();
        r.record(&ev);
        assert!(r.0.is_empty());
    }

    #[test]
    fn old_readings_are_pruned() {
        let r = series(&(0..200u64).map(|i| (i * 60, 1.0)).collect::<Vec<_>>());
        // Only about an hour's worth (60 one-minute-spaced readings) remains.
        let len = r.newest_first().count();
        assert!(len <= 62, "len = {len}");
    }

    #[test]
    fn window_edges_are_inclusive() {
        // A window covers [now - length, now]: a reading exactly one
        // window-length old still counts, a reading exactly at `now` counts.
        let r = series(&[
            (1_000, 10.0), // == now - 60
            (1_001, 20.0), // just inside
            (1_060, 30.0), // == now
        ]);
        let now = Timestamp::from_secs(1_060);
        let s = r.summarize(SummaryWindow::OneMinute, now).unwrap();
        assert_eq!(s.count, 3, "both edges inclusive");
        assert_eq!((s.min, s.max), (10.0, 30.0));
        // One microsecond past the trailing edge the reading ages out, for
        // each of the paper's three windows.
        for (w, secs) in [
            (SummaryWindow::OneMinute, 60u64),
            (SummaryWindow::TenMinutes, 600),
            (SummaryWindow::OneHour, 3_600),
        ] {
            let one = series(&[(10_000, 1.0)]);
            let on_edge = Timestamp::from_secs(10_000 + secs);
            assert_eq!(
                one.summarize(w, on_edge).unwrap().count,
                1,
                "reading exactly on the {secs}s trailing edge still counts"
            );
            let past_edge = Timestamp::from_micros((10_000 + secs) * 1_000_000 + 1);
            assert!(
                one.summarize(w, past_edge).is_none(),
                "one microsecond past the {secs}s edge it has aged out"
            );
        }
        // Readings *after* `now` (clock skew between hosts) are ignored.
        let early = Timestamp::from_secs(1_001);
        let s = r.summarize(SummaryWindow::OneMinute, early).unwrap();
        assert_eq!(s.count, 2, "the t=1060 reading is in the future of `now`");
        assert_eq!((s.min, s.max), (10.0, 20.0));
    }

    #[test]
    fn out_of_order_arrivals_are_integrated_in_timestamp_order() {
        let in_order = series(&[1_000u64, 1_010, 1_020, 1_030, 1_040].map(|t| (t, t as f64)));
        // The same readings arriving shuffled (a late sensor catching up).
        let reordered = series(&[1_020u64, 1_000, 1_040, 1_010, 1_030].map(|t| (t, t as f64)));
        let now = Timestamp::from_secs(1_040);
        for w in SummaryWindow::all() {
            assert_eq!(
                in_order.summarize(w, now),
                reordered.summarize(w, now),
                "summaries are arrival-order independent"
            );
        }
        // A late arrival never truncates fresher data: pruning is relative
        // to the newest reading, not the last-recorded one.
        let r = series(&[(10_000, 1.0), (5_000, 2.0)]); // 83 min late
        let s = r
            .summarize(SummaryWindow::OneMinute, Timestamp::from_secs(10_000))
            .unwrap();
        assert_eq!(s.count, 1, "fresh reading survives the late arrival");
    }

    /// Readings spread over many blocks, with arrivals up to ten minutes
    /// late and a few over an hour late, hold exactly what one sorted list
    /// pruned the same way holds (the layout before blocks).  Half the
    /// cases keep a steady 2 s clock, so up to four full blocks stay in
    /// the hour and late arrivals land in full blocks.  The other half
    /// add, now and then, a gap of 50 minutes or of more than 71.6 minutes
    /// (a `u32` of µs) between consecutive readings: two 50-minute gaps
    /// put a reading past its block's base by more than a `u32` while the
    /// block still holds readings of the last hour.
    #[test]
    fn late_arrivals_across_blocks_match_one_sorted_list() {
        jamm_core::check::forall("blocked readings vs one sorted list", 32, |g| {
            let mut r = Readings::default();
            let mut oracle: Vec<(Timestamp, f64)> = Vec::new();
            let (mut newest, mut clock) = (0u64, 10_000u64);
            let gappy = g.bool(0.5);
            for _ in 0..g.usize_in(1, 4 * BLOCK) {
                clock += match (gappy, g.u64(100)) {
                    (true, 0) => 4_300,
                    (true, 1 | 2) => 3_000,
                    _ => 2,
                };
                let late = if g.bool(0.02) { 4_000 } else { g.u64(600) };
                let t_secs = clock.saturating_sub(late);
                let event = reading("h", "CPU_TOTAL", t_secs, g.u64(100) as f64);
                r.record(&event);
                let t = event.timestamp;
                let pos = oracle.partition_point(|(o, _)| *o <= t);
                oracle.insert(pos, (t, event.value().unwrap()));
                newest = newest.max(t_secs);
                let cutoff =
                    Timestamp::from_secs(newest).sub_micros(SummaryWindow::OneHour.micros());
                oracle.retain(|(o, _)| *o >= cutoff);
            }
            assert!(r.0.iter().all(|b| b.len() > 0), "no empty block");
            let held: Vec<_> = r.newest_first().collect();
            let expected: Vec<_> = oracle.iter().rev().copied().collect();
            assert_eq!(held, expected);
        });
    }

    /// A reading more than a `u32` of µs past its block's base starts a new
    /// block, whether it arrives in order or late, and every reading keeps
    /// its stamp.
    #[test]
    fn readings_more_than_71_minutes_apart_start_new_blocks() {
        let mut r = series(&[(0, 1.0), (1_000, 2.0), (3_000, 3.0)]);
        assert_eq!(r.0.len(), 1);
        // In order, 4,300 s after the block's base: a new block.  The
        // reading at 0 s ages out of the hour.
        r.record(&reading("h", "CPU_TOTAL", 4_300, 4.0));
        assert_eq!(r.0.len(), 2);
        // Late, after everything in the first block but 4,296 s past its
        // base: the first block is split rather than overflowed.
        r.record(&reading("h", "CPU_TOTAL", 4_296, 5.0));
        assert_eq!(r.0.len(), 3);
        // Late and before everything held, below the first block's base.
        let mut early = series(&[(10_000, 1.0)]);
        early.record(&reading("h", "CPU_TOTAL", 9_000, 2.0));
        assert_eq!(early.0.len(), 2);
        let held: Vec<_> = r.newest_first().collect();
        let secs = |s: u64| Timestamp::from_secs(s);
        assert_eq!(
            held,
            [
                (secs(4_300), 4.0),
                (secs(4_296), 5.0),
                (secs(3_000), 3.0),
                (secs(1_000), 2.0)
            ]
        );
        let held: Vec<_> = early.newest_first().collect();
        assert_eq!(held, [(secs(10_000), 1.0), (secs(9_000), 2.0)]);
        let now = secs(4_300);
        assert_eq!(r.summarize(SummaryWindow::OneHour, now).unwrap().count, 4);
    }

    #[test]
    fn empty_window_rollover_recovers_when_data_resumes() {
        let mut r = series(&[(1_000, 50.0)]);
        // The 1-minute window empties while the 10-minute one still holds
        // the reading...
        let now = Timestamp::from_secs(1_200);
        assert!(r.summarize(SummaryWindow::OneMinute, now).is_none());
        let ten = r.summarize(SummaryWindow::TenMinutes, now).unwrap();
        assert_eq!(ten.count, 1);
        // ...and the series' summary events cover only the non-empty windows.
        let key = (Sym::intern("h"), Sym::intern("CPU_TOTAL"));
        let (_, events) = r.summary_row(&key, &SummaryWindow::all(), now, "gw");
        assert_eq!(events.len(), 2, "10- and 60-minute only");
        assert!(events.iter().all(|e| !e.event_type.ends_with("AVG_1MIN")));
        // When readings resume, the rolled-over window fills again with
        // only the new data.
        r.record(&reading("h", "CPU_TOTAL", 1_201, 80.0));
        let s = r
            .summarize(SummaryWindow::OneMinute, Timestamp::from_secs(1_201))
            .unwrap();
        assert_eq!((s.count, s.mean), (1, 80.0));
    }

    #[test]
    fn summary_events_cover_all_series_and_windows() {
        let table = SeriesTable::default();
        for i in 0..10u64 {
            for e in [
                reading("h1", "CPU_TOTAL", 1_000 + i, 50.0),
                reading("h2", "VMSTAT_FREE_MEMORY", 1_000 + i, 1_000.0),
            ] {
                let key = (Sym::intern(&e.host), Sym::intern(&e.event_type));
                table.observe(key, &SharedEvent::new(e));
            }
        }
        let now = Timestamp::from_secs(1_010);
        let all = jamm_core::query::Predicate::everything().compile();
        let events = table.summary_events(&all, &SummaryWindow::all(), now, "gw1");
        // 2 series x 3 windows.
        assert_eq!(events.len(), 6);
        assert!(events.iter().any(|e| e.event_type == "CPU_TOTAL_AVG_1MIN"));
        assert!(events
            .iter()
            .any(|e| e.event_type == "VMSTAT_FREE_MEMORY_AVG_60MIN"));
        let cpu1 = events
            .iter()
            .find(|e| e.event_type == "CPU_TOTAL_AVG_1MIN")
            .unwrap();
        assert_eq!(cpu1.value(), Some(50.0));
        assert_eq!(cpu1.field_f64("COUNT"), Some(10.0));
    }
}
