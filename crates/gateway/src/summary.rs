//! Summary data computation.
//!
//! "The event gateway can also be configured to compute summary data.  For
//! example, it can compute 1, 10, and 60 minute averages of CPU usage, and
//! make this information available to consumers." (§2.2)  The same machinery
//! backs the summary-data service sketched in §7.0 that the network-aware
//! client uses to pick its TCP buffer size.
//!
//! A series keeps partial sums, not readings.  Each window of length N is
//! cut into slices of N/60 (1 s, 10 s and 60 s), aligned to multiples of
//! that width, and a reading is folded into the slice its stamp falls in:
//! a count, a sum in arrival order, a min and a max.  A window holds at
//! most the 61 slices that can overlap `[newest − N, newest]`, newest
//! being its latest slice, so a series holds at most 3 × 61 slices of
//! 32 B, about 5.9 KB, whatever its publish rate.  A late reading is
//! folded into its own slice (opened in place if the window has none for
//! it), or left out of a window that has already moved more than 60
//! slices past it.
//!
//! An answer for `now` folds, oldest first, the slices that overlap
//! `[now − N, now]`, so its precision is a slice's:
//!
//! - an N-minute average may include up to one slice (N/60) of extra
//!   history at the trailing edge;
//! - it counts readings later than `now` that fall inside `now`'s own
//!   slice;
//! - when `now` is on a slice boundary and no reading is later than `now`,
//!   it covers exactly `[now − N, now]`.
//!
//! A `now` more than 60 slices behind a window's newest slice finds the
//! slices it would need already dropped.

use std::collections::{HashMap, VecDeque};

use jamm_core::intern::{BuildSymHasher, Sym};
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

    /// One slice's width in microseconds: the window's length over
    /// [`SLICES`].
    fn slice_micros(self) -> u64 {
        self.micros() / SLICES
    }
}

/// Slices per window length.  A window holds at most `SLICES + 1` of them:
/// the ones that can overlap one window length back from its newest.
const SLICES: u64 = 60;

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

/// The partial sums of one slice's readings, 32 B.  `index` is the slice's
/// number (stamp ÷ width) cut to 32 bits: the [`Slices`] holding it keeps
/// its newest slice's full number, and holds no slice more than [`SLICES`]
/// behind that, so the cut loses nothing.
#[derive(Debug, Clone, Copy)]
struct Slice {
    index: u32,
    count: u32,
    sum: f64,
    min: f64,
    max: f64,
}

impl Slice {
    fn new(index: u64, value: f64) -> Slice {
        Slice {
            index: index as u32,
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// One window's slices, oldest first, none empty.  They grow as they are
/// first used and are pruned from the front, so a series heard from for a
/// few seconds holds a few slices, not the window's 61.
#[derive(Debug, Default)]
struct Slices {
    /// The full number of the newest slice held.
    newest: u64,
    held: VecDeque<Slice>,
}

impl Slices {
    /// How many slices `slice` lies behind the newest.
    fn age(&self, slice: &Slice) -> u64 {
        u64::from((self.newest as u32).wrapping_sub(slice.index))
    }

    /// Fold a reading into slice `index`: the newest slice in the common
    /// in-order case, a new newest one (pruning those it moves out of
    /// reach), an older one the window still holds or opens in place, or
    /// none when the window has moved past it.
    fn record(&mut self, index: u64, value: f64) {
        if index == self.newest {
            if let Some(newest) = self.held.back_mut() {
                return newest.add(value);
            }
        }
        if self.held.is_empty() || index > self.newest {
            // Past every slice held: clear them here, since a jump of 2^32
            // slices would wrap `age`.
            if index - self.newest > SLICES {
                self.held.clear();
            }
            self.newest = index;
            while self.held.front().is_some_and(|s| self.age(s) > SLICES) {
                self.held.pop_front();
            }
            self.held.push_back(Slice::new(index, value));
            return;
        }
        let age = self.newest - index;
        if age > SLICES {
            return;
        }
        let at = self.held.partition_point(|s| self.age(s) > age);
        match self.held.get_mut(at) {
            Some(slice) if slice.index == index as u32 => slice.add(value),
            _ => self.held.insert(at, Slice::new(index, value)),
        }
    }

    /// `window`'s statistics over the slices that overlap `[now - length,
    /// now]`, folded oldest first; `None` when they hold no readings.
    fn summarize(&self, window: SummaryWindow, now: Timestamp) -> Option<Summary> {
        let width = window.slice_micros();
        let first = now.sub_micros(window.micros()).as_micros() / width;
        let last = now.as_micros() / width;
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for slice in &self.held {
            let index = self.newest - self.age(slice);
            if index < first {
                continue;
            }
            if index > last {
                break;
            }
            count += slice.count as usize;
            sum += slice.sum;
            min = min.min(slice.min);
            max = max.max(slice.max);
        }
        (count > 0).then(|| Summary {
            window,
            count,
            mean: sum / count as f64,
            min,
            max,
        })
    }
}

/// An interned (host, event type) series identity: what the gateway
/// resolves once per published event and every later step reuses.
pub(crate) type SeriesKey = (Sym, Sym);

/// One series' summary events (in window order) under its resolved key.
/// Keys are resolved to strings on this cold path so the series ordering
/// matches the seed-era string-keyed output exactly.
type SummaryRow = ((&'static str, &'static str), Vec<Event>);

/// One series' slices for each of the three windows, in `SummaryWindow`
/// declaration order.
#[derive(Debug, Default)]
struct Windows([Slices; 3]);

impl Windows {
    /// Record an event's numeric reading (events without a `VAL` are
    /// ignored).
    fn record(&mut self, event: &Event) {
        if let Some(value) = event.value() {
            self.fold(event.timestamp.as_micros(), value);
        }
    }

    /// Fold a reading stamped `t` µs into its slice of every window.
    fn fold(&mut self, t: u64, value: f64) {
        for (slices, window) in self.0.iter_mut().zip(SummaryWindow::all()) {
            slices.record(t / window.slice_micros(), value);
        }
    }

    /// Slices held over the three windows.
    fn slices(&self) -> usize {
        self.0.iter().map(|s| s.held.len()).sum()
    }

    fn summarize(&self, window: SummaryWindow, now: Timestamp) -> Option<Summary> {
        self.0[window as usize].summarize(window, now)
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
    /// The series' slices — what the §2.2 summaries average.
    windows: Windows,
}

/// The gateway's per-series table: the query cache and the summary
/// slices under one key, in one map.  A published batch is folded in
/// under one write guard, one keyed update per event.
#[derive(Default)]
pub(crate) struct SeriesTable {
    series: RwLock<HashMap<SeriesKey, Series, BuildSymHasher>>,
}

impl SeriesTable {
    /// Make each event its series' latest and fold in its reading, in
    /// order: one write guard for the batch and one hash probe per event,
    /// integer keys only.  `keys[i]` is `events[i]`'s series key.
    pub(crate) fn observe_batch(&self, events: &[SharedEvent], keys: &[SeriesKey]) {
        debug_assert_eq!(events.len(), keys.len());
        let mut table = self.series.write();
        for (event, &key) in events.iter().zip(keys) {
            let series = table.entry(key).or_insert_with(|| Series {
                latest: SharedEvent::clone(event),
                windows: Windows::default(),
            });
            series.latest = SharedEvent::clone(event);
            series.windows.record(event);
        }
    }

    /// How many series the table holds.
    pub(crate) fn len(&self) -> usize {
        self.series.read().len()
    }

    /// Summary slices held over every series.
    pub(crate) fn slices(&self) -> usize {
        let table = self.series.read();
        table.values().map(|s| s.windows.slices()).sum()
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
        let row = |(key, s): (_, &Series)| s.windows.summary_row(key, windows, now, gateway_name);
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

    /// One series' windows fed `(t_secs, value)` pairs in the given order.
    fn series(readings: &[(u64, f64)]) -> Windows {
        let mut w = Windows::default();
        for &(t, v) in readings {
            w.record(&reading("h", "CPU_TOTAL", t, v));
        }
        w
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
        let never = Windows::default();
        let at = Timestamp::from_secs(100);
        assert!(never.summarize(SummaryWindow::OneMinute, at).is_none());
    }

    #[test]
    fn non_numeric_events_are_ignored() {
        let mut r = Windows::default();
        let ev = Event::builder("p", "h")
            .event_type("PROC_DIED")
            .timestamp(Timestamp::from_secs(1))
            .build();
        r.record(&ev);
        assert_eq!(r.slices(), 0);
    }

    /// A window is the slices that overlap `[now - length, now]`.  On a
    /// slice boundary that is exactly the interval, both edges inclusive;
    /// off one, up to a slice of older history joins at the trailing edge;
    /// and readings after `now` count only inside `now`'s own slice.
    #[test]
    fn window_edges_fall_on_slice_edges() {
        let us = Timestamp::from_micros;
        // On a boundary of every window's slices.
        let now = 36_000_000_000u64;
        for w in SummaryWindow::all() {
            let (len, width) = (w.micros(), w.slice_micros());
            let mut r = Windows::default();
            r.fold(now - len - 1, 1.0); // one µs before the trailing edge
            r.fold(now - len, 2.0); // on the trailing edge
            r.fold(now, 3.0); // at `now`
            let s = r.summarize(w, us(now)).unwrap();
            assert_eq!(
                (s.count, s.min, s.max),
                (2, 2.0, 3.0),
                "{w:?} on a boundary"
            );
            // Off a boundary the trailing slice is whole: a reading up to a
            // slice older than `now - length` joins it.
            let off = now - width / 2;
            let mut r = Windows::default();
            r.fold(now - len - width, 1.0);
            r.fold(now - width, 2.0);
            let s = r.summarize(w, us(off)).unwrap();
            assert_eq!((s.count, s.min), (2, 1.0), "{w:?} off a boundary");
            // A reading later than `now` counts inside `now`'s slice, and
            // not in the next one.
            let mut r = Windows::default();
            r.fold(now - width, 2.0);
            r.fold(off + 1, 3.0);
            r.fold(now, 4.0);
            let s = r.summarize(w, us(off)).unwrap();
            assert_eq!((s.count, s.max), (2, 3.0), "{w:?} after `now`");
        }
        // A slice past the trailing edge, a reading has aged out.
        let r = series(&[(1_000, 10.0)]);
        let at = |secs| r.summarize(SummaryWindow::OneMinute, Timestamp::from_secs(secs));
        assert_eq!(at(1_060).unwrap().count, 1);
        assert!(at(1_061).is_none());
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
        // to the newest slice, not the last-recorded one.
        let r = series(&[(10_000, 1.0), (5_000, 2.0)]); // 83 min late
        let s = r
            .summarize(SummaryWindow::OneMinute, Timestamp::from_secs(10_000))
            .unwrap();
        assert_eq!(s.count, 1, "fresh reading survives the late arrival");
    }

    /// A late reading joins the slice it falls in, opens one in place, or
    /// is left out of a window that has moved more than 60 slices past it
    /// while the longer windows still take it.
    #[test]
    fn late_readings_join_their_slice_or_are_left_out() {
        let mut r = series(&[(1_000, 1.0), (1_030, 3.0)]);
        let one_minute = |r: &Windows| r.0[0].held.iter().map(|s| s.count).collect::<Vec<_>>();
        r.record(&reading("h", "CPU_TOTAL", 1_000, 2.0)); // an existing slice
        r.record(&reading("h", "CPU_TOTAL", 1_010, 4.0)); // a slice in between
        assert_eq!(one_minute(&r), [2, 1, 1]);
        r.record(&reading("h", "CPU_TOTAL", 1_090, 5.0)); // prunes 1000 and 1010
        r.record(&reading("h", "CPU_TOTAL", 1_020, 6.0)); // 70 slices late
        assert_eq!(one_minute(&r), [1, 1]);
        let now = Timestamp::from_secs(1_090);
        let ten = r.summarize(SummaryWindow::TenMinutes, now).unwrap();
        assert_eq!((ten.count, ten.min, ten.max), (6, 1.0, 6.0));
        // 2^32 one-second slices later, the slice numbers cut to 32 bits
        // repeat, and only the new reading is held.
        let far = Timestamp::from_secs(1_090 + (1 << 32));
        r.fold(far.as_micros(), 7.0);
        assert_eq!(one_minute(&r), [1]);
        let one = r.summarize(SummaryWindow::OneMinute, far).unwrap();
        assert_eq!((one.count, one.mean), (1, 7.0));
    }

    /// A series fed 1,000 readings a second for two simulated hours, a
    /// reading up to two hours late once a second, never holds more than
    /// 3 × 61 slices, and holds exactly that once the hour is full.
    #[test]
    fn a_dense_series_never_holds_more_than_three_times_61_slices() {
        let mut g = jamm_core::check::Gen::from_seed(7);
        let mut r = Windows::default();
        let mut most = 0;
        let start = 1_000_000_000_000u64;
        for ms in 0..2 * 3_600 * 1_000u64 {
            let t = start + ms * 1_000;
            r.fold(t, (ms % 100) as f64);
            if ms % 1_000 == 999 {
                r.fold(t.saturating_sub(g.u64(7_200_000_000)), 1.0);
            }
            most = most.max(r.slices());
        }
        assert_eq!(most, 3 * 61);
        assert_eq!(r.slices(), 3 * 61);
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
                table.observe_batch(&[SharedEvent::new(e)], &[key]);
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
        // Ten one-second slices each; one ten-second and one minute slice.
        assert_eq!((table.len(), table.slices()), (2, 2 * (10 + 1 + 1)));
    }
}
