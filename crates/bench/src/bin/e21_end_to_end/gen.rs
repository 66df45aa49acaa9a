//! The load generator: seeded host statistics, a fleet of real
//! `SensorManager`s, the tap that stands between them and the gateway, and
//! the open-loop pacer.
//!
//! Everything the program under test sees is made here from `--seed`: the
//! statistics the sensors sample, and the order hosts report in.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use jamm::jamm_core::rng::Rng;
use jamm::jamm_core::{EventSink, SinkError};
use jamm::jamm_directory::Dn;
use jamm::jamm_gateway::EventGateway;
use jamm::jamm_manager::config::{ManagerConfig, RunPolicy, SensorConfigEntry, SensorTemplate};
use jamm::jamm_manager::manager::{NoPortActivity, SensorManager};
use jamm::jamm_sensors::{HostView, IfView, StatsSource};
use jamm::jamm_ulm::{keys, Event, SharedEvent, Timestamp};

use crate::spans::SpanLog;
use crate::stats::Clock;

pub const HOSTS: usize = 64;
pub const GATEWAY: &str = "gw.e21:8765";

/// Every event type the fleet's Cpu/Memory/Tcp sensors emit.
pub const EVENT_TYPES: [&str; 6] = [
    keys::cpu::TOTAL,
    keys::cpu::USER,
    keys::cpu::SYS,
    keys::mem::FREE,
    keys::tcp::RETRANSMITS,
    keys::tcp::WINDOW_SIZE,
];
pub const CPU_TOTAL: usize = 0;

/// Thresholds of the `(&(type=CPU_TOTAL)(val>T))` subscriptions and queries;
/// the generator's CPU totals are uniform over [0, 100).
pub const THRESHOLDS: [f64; 4] = [25.0, 50.0, 75.0, 90.0];

pub fn host_name(i: usize) -> String {
    format!("h{i:02}.grid")
}

pub fn type_index(event_type: &str) -> Option<usize> {
    EVENT_TYPES.iter().position(|t| *t == event_type)
}

/// Seeded stand-in for `/proc`: per-host statistics that take one random
/// step each time the host is about to be sampled.
#[derive(Debug)]
pub struct SeededStats {
    hosts: Vec<(String, HostView)>,
    current: usize,
    rng: Rng,
}

impl SeededStats {
    pub fn new(seed: u64) -> SeededStats {
        let mut rng = Rng::seed_from_u64(seed);
        let hosts = (0..HOSTS)
            .map(|i| {
                let view = HostView {
                    mem_free_kb: rng.gen_range(100_000u64..4_000_000),
                    tcp_retransmits: rng.gen_range(0u64..1_000),
                    active_sockets: rng.gen_range(1u64..64) as u32,
                    ..HostView::default()
                };
                (host_name(i), view)
            })
            .collect();
        SeededStats {
            hosts,
            current: 0,
            rng,
        }
    }

    /// Step `host`'s statistics and make it the host the next sample reads.
    pub fn advance(&mut self, host: usize) {
        let rng = &mut self.rng;
        let view = &mut self.hosts[host].1;
        view.cpu_user_pct = rng.gen_f64() * 80.0;
        view.cpu_sys_pct = rng.gen_f64() * 20.0;
        view.mem_free_kb = rng.gen_range(100_000u64..4_000_000);
        if rng.gen_bool(0.3) {
            view.tcp_retransmits += rng.gen_range(1u64..4);
        }
        if rng.gen_bool(0.3) {
            view.active_sockets = rng.gen_range(1u64..64) as u32;
        }
        self.current = host;
    }

    #[cfg(test)]
    pub fn view(&self, host: usize) -> HostView {
        self.hosts[host].1
    }
}

impl StatsSource for SeededStats {
    fn host_stats(&self, host: &str) -> Option<HostView> {
        let (name, view) = &self.hosts[self.current];
        (name == host).then_some(*view)
    }

    fn device_interfaces(&self, _device: &str) -> Vec<IfView> {
        Vec::new()
    }

    fn process_alive(&self, _host: &str, _process: &str) -> Option<bool> {
        None
    }
}

/// 64 simulated hosts, each a real `SensorManager` running Cpu, Memory and
/// Tcp sensors that are always due.
pub struct Fleet {
    managers: Vec<SensorManager>,
    stats: SeededStats,
    /// Seeded reporting order, walked round-robin.
    order: Vec<usize>,
    cursor: usize,
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        let base = Dn::parse("o=e21,o=grid").expect("static DN parses");
        let managers = (0..HOSTS)
            .map(|i| {
                let mut config = ManagerConfig::empty(host_name(i), GATEWAY);
                for template in [
                    SensorTemplate::Cpu,
                    SensorTemplate::Memory,
                    SensorTemplate::Tcp,
                ] {
                    config = config.with_sensor(SensorConfigEntry {
                        template,
                        frequency_secs: 0.0,
                        policy: RunPolicy::Always,
                    });
                }
                SensorManager::new(&config, base.clone())
            })
            .collect();
        let mut order: Vec<usize> = (0..HOSTS).collect();
        let mut rng = Rng::seed_from_u64(seed ^ 0x6f72_6465_7221);
        for i in (1..HOSTS).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Fleet {
            managers,
            stats: SeededStats::new(seed),
            order,
            cursor: 0,
        }
    }

    /// The host the next [`Fleet::tick`] samples.
    pub fn next_host(&self) -> usize {
        self.order[self.cursor]
    }

    /// One manager cycle for the next host in the seeded order, stamped
    /// `now`.  Returns how many events its sensors pushed into `sink`.
    pub fn tick(&mut self, now: Timestamp, sink: &dyn EventSink<SharedEvent>) -> u64 {
        let host = self.next_host();
        self.cursor = (self.cursor + 1) % HOSTS;
        self.stats.advance(host);
        self.managers[host].tick(now, &self.stats, &NoPortActivity, sink, None)
    }
}

/// One generated event as the bench remembers it, for brute-force reference
/// answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rec {
    pub ts: u64,
    pub host: u16,
    pub ty: u8,
    pub val: f64,
}

/// Order-sensitive fold of an event's identity into a running checksum: two
/// streams have the same checksum only if they carried the same events in the
/// same order.
pub fn fold_event(h: u64, event: &Event) -> u64 {
    event
        .event_type
        .bytes()
        .fold(h ^ event.timestamp.as_micros(), |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Key under which one event in about 1024 is kept for a field-for-field
/// comparison at the consumer.  Chosen from the event's own content so both
/// ends agree without counting positions.  All events of a tick share a
/// stamp, so the type disambiguates.
pub fn sample_key(event: &Event) -> Option<(u64, usize)> {
    let ts = event.timestamp.as_micros();
    (ts.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54 == 0)
        .then(|| (ts, type_index(&event.event_type).unwrap_or(usize::MAX)))
}

/// The system samples every 64th publish for a self-lifeline.
pub const LIFELINE_EVERY: u64 = 64;

/// State the generator and the consumer thread share.
#[derive(Debug, Default)]
pub struct Shared {
    /// Events handed to the gateway so far.
    pub offered: AtomicU64,
    /// Events that have reached the workload's final consumer(s).
    pub delivered: AtomicU64,
    /// The phase the generator is in, and the last one the consumer has
    /// seen (its counts for earlier phases are closed).
    pub phase: AtomicU64,
    pub phase_ack: AtomicU64,
    /// Events kept for comparison, by [`sample_key`].
    pub samples: Mutex<HashMap<(u64, usize), SharedEvent>>,
    /// `(creation stamp µs, events)` per published batch, for consumers that
    /// see stored counts and not events.
    pub fifo: Mutex<VecDeque<(u64, u32)>>,
    /// The consumer thread, when it parks while idle and wants waking on
    /// publish: a consumer of the archiver alone has no queue to block on.
    pub wake: OnceLock<std::thread::Thread>,
}

/// What the tap counted, read back when the run ends.
#[derive(Debug, Default)]
pub struct Tally {
    pub checksum: u64,
    pub by_type: [u64; EVENT_TYPES.len()],
    pub by_host: Vec<u64>,
    pub over_threshold: [u64; THRESHOLDS.len()],
    /// Creation stamps (µs) of publishes number 0, 64, 128, ... — the ones
    /// the system's tracer samples (traced runs only).
    pub lifeline_created_us: Vec<u64>,
    /// Every event, when reference answers are wanted.
    pub recs: Vec<Rec>,
    pub spans: SpanLog,
    host: usize,
    tick: u64,
}

/// What the tap records besides counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapOptions {
    pub fifo: bool,
    pub samples: bool,
    pub recs: bool,
    pub traced: bool,
}

/// The thin `EventSink` between the managers and the gateway: it sees each
/// batch exactly as the sensor emitted it, counts it, and passes it on
/// untouched.
pub struct Tap {
    gateway: Arc<EventGateway>,
    shared: Arc<Shared>,
    options: TapOptions,
    clock: Clock,
    tally: Mutex<Tally>,
}

impl Tap {
    pub fn new(
        gateway: Arc<EventGateway>,
        shared: Arc<Shared>,
        options: TapOptions,
        clock: Clock,
    ) -> Tap {
        Tap {
            gateway,
            shared,
            options,
            clock,
            tally: Mutex::new(Tally {
                by_host: vec![0; HOSTS],
                ..Tally::default()
            }),
        }
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.tally.lock().expect("tap tally lock poisoned")
    }

    /// One tick of `fleet` through this tap, inside a `manager.tick` span
    /// when traced.
    pub fn tick(&self, fleet: &mut Fleet, now: Timestamp) -> u64 {
        let span = {
            let mut t = self.tally();
            t.host = fleet.next_host();
            t.tick += 1;
            let tick = t.tick;
            self.options
                .traced
                .then(|| t.spans.enter("manager.tick", tick, self.clock.now_ns()))
        };
        let n = fleet.tick(now, self);
        if let Some(id) = span {
            self.tally().spans.exit(id, self.clock.now_ns());
        }
        n
    }

    /// The checksum of everything passed on since the last call.
    pub fn take_checksum(&self) -> u64 {
        std::mem::take(&mut self.tally().checksum)
    }

    pub fn into_tally(self) -> Tally {
        self.tally.into_inner().expect("tap tally lock poisoned")
    }
}

impl EventSink<SharedEvent> for Tap {
    fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
        self.accept_batch(std::slice::from_ref(event))
    }

    fn accept_batch(&self, events: &[SharedEvent]) -> Result<usize, SinkError> {
        if events.is_empty() {
            return Ok(0);
        }
        let mut t = self.tally();
        let first = self.shared.offered.load(Ordering::Relaxed);
        for (i, event) in events.iter().enumerate() {
            t.checksum = fold_event(t.checksum, event);
            let ty = type_index(&event.event_type).expect("fleet emits only known types");
            t.by_type[ty] += 1;
            let host = t.host;
            t.by_host[host] += 1;
            let val = event.value().unwrap_or(0.0);
            if ty == CPU_TOTAL {
                for (slot, threshold) in THRESHOLDS.iter().enumerate() {
                    t.over_threshold[slot] += u64::from(val > *threshold);
                }
            }
            if self.options.recs {
                t.recs.push(Rec {
                    ts: event.timestamp.as_micros(),
                    host: host as u16,
                    ty: ty as u8,
                    val,
                });
            }
            if self.options.traced && (first + i as u64).is_multiple_of(LIFELINE_EVERY) {
                t.lifeline_created_us.push(event.timestamp.as_micros());
            }
            if self.options.samples {
                if let Some(key) = sample_key(event) {
                    self.shared
                        .samples
                        .lock()
                        .expect("samples lock poisoned")
                        .insert(key, SharedEvent::clone(event));
                }
            }
        }
        // Counted before the gateway sees it, so `delivered` never leads —
        // and under the FIFO's lock, so the two always agree.
        let mut fifo = self.shared.fifo.lock().expect("fifo lock poisoned");
        if self.options.fifo {
            fifo.push_back((events[0].timestamp.as_micros(), events.len() as u32));
        }
        self.shared
            .offered
            .fetch_add(events.len() as u64, Ordering::Release);
        drop(fifo);
        let span = self.options.traced.then(|| {
            let tick = t.tick;
            t.spans.enter("gateway.publish", tick, self.clock.now_ns())
        });
        drop(t);
        let delivered = self.gateway.publish_shared_batch(events);
        if let Some(consumer) = self.shared.wake.get() {
            consumer.unpark();
        }
        if let Some(id) = span {
            self.tally().spans.exit(id, self.clock.now_ns());
        }
        Ok(delivered)
    }
}

/// Events released together in one open-loop burst: about one tick (a host's
/// sensors emit 4 to 6 events when they come due), so the arrival process is
/// hosts reporting independently.
pub const BURST_EVENTS: u64 = 5;

/// What the generator should do now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Nothing is due for this long.
    Wait { ns: u64 },
    /// A tick is due; it was due `late_ns` ago.
    Fire { due_ns: u64, late_ns: u64 },
    /// The phase's schedule is exhausted.
    Done,
}

/// Open-loop schedule at a fixed mean event rate.  Event number `n` of the
/// phase belongs to burst `n / BURST_EVENTS`; the gaps between bursts are
/// exponential (independent reporters make a Poisson process, and a fixed
/// period would beat against the system's own polling intervals), drawn from
/// the seed alone.  The schedule depends only on the seed and on how many
/// events were generated, never on how the system responded.
#[derive(Debug, Clone)]
pub struct Pacer {
    end_ns: u64,
    mean_gap_ns: f64,
    rng: Rng,
    burst: u64,
    due_ns: u64,
}

impl Pacer {
    pub fn new(seed: u64, start_ns: u64, length_ns: u64, events_per_s: u64) -> Pacer {
        Pacer {
            end_ns: start_ns + length_ns,
            mean_gap_ns: BURST_EVENTS as f64 * 1e9 / events_per_s.max(1) as f64,
            rng: Rng::seed_from_u64(seed ^ 0x7061_6365_7221),
            burst: 0,
            due_ns: start_ns,
        }
    }

    pub fn next(&mut self, offered_in_phase: u64, now_ns: u64) -> Pace {
        while offered_in_phase / BURST_EVENTS > self.burst {
            self.burst += 1;
            let gap = -(1.0 - self.rng.gen_f64()).ln() * self.mean_gap_ns;
            self.due_ns += gap as u64;
        }
        if self.due_ns >= self.end_ns {
            Pace::Done
        } else if now_ns < self.due_ns {
            Pace::Wait {
                ns: self.due_ns - now_ns,
            }
        } else {
            Pace::Fire {
                due_ns: self.due_ns,
                late_ns: now_ns - self.due_ns,
            }
        }
    }
}

/// A sink that keeps what it is given (tests and the codec micro-timings).
#[derive(Debug, Default)]
pub struct Keep(pub Mutex<Vec<SharedEvent>>);

impl EventSink<SharedEvent> for Keep {
    fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
        self.0
            .lock()
            .expect("keep lock poisoned")
            .push(SharedEvent::clone(event));
        Ok(1)
    }
}

/// The first `n` events a fleet seeded with `seed` emits.
pub fn sample_events(seed: u64, n: usize) -> Vec<SharedEvent> {
    let mut fleet = Fleet::new(seed);
    let keep = Keep::default();
    let mut stamp = 946_684_800_000_000u64;
    while keep.0.lock().expect("keep lock poisoned").len() < n {
        stamp += 1_000;
        fleet.tick(Timestamp::from_micros(stamp), &keep);
    }
    let mut events = keep.0.into_inner().expect("keep lock poisoned");
    events.truncate(n);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (stamp, host, type, value) of every event of `ticks` ticks; events of
    /// one tick sorted by type, because a manager walks its sensors in hash
    /// order.
    fn trace(seed: u64, ticks: usize) -> Vec<(u64, String, String, u64)> {
        let mut fleet = Fleet::new(seed);
        let keep = Keep::default();
        let mut out = Vec::new();
        for t in 0..ticks {
            fleet.tick(Timestamp::from_micros(1_000_000 + t as u64), &keep);
            let mut tick: Vec<_> = keep
                .0
                .lock()
                .unwrap()
                .drain(..)
                .map(|e| {
                    (
                        e.timestamp.as_micros(),
                        e.host.clone(),
                        e.event_type.clone(),
                        e.value().unwrap_or(-1.0).to_bits(),
                    )
                })
                .collect();
            tick.sort();
            out.extend(tick);
        }
        out
    }

    #[test]
    fn same_seed_same_stats_and_tick_order_different_seed_differs() {
        let a = trace(11, 200);
        assert_eq!(a, trace(11, 200));
        let b = trace(12, 200);
        assert_ne!(a, b);
        // The reporting order itself is seeded.
        let hosts = |t: &[(u64, String, String, u64)]| {
            let mut h: Vec<String> = t.iter().map(|e| e.1.clone()).collect();
            h.dedup();
            h
        };
        assert_ne!(hosts(&a)[..HOSTS], hosts(&b)[..HOSTS]);
        // Round-robin: the first 64 ticks visit 64 distinct hosts.
        let mut first: Vec<String> = hosts(&a)[..HOSTS].to_vec();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), HOSTS);
    }

    #[test]
    fn stats_source_answers_only_for_the_host_being_sampled() {
        let mut stats = SeededStats::new(3);
        stats.advance(5);
        assert_eq!(stats.host_stats(&host_name(5)), Some(stats.view(5)));
        assert_eq!(stats.host_stats(&host_name(6)), None);
        let before = stats.view(5).tcp_retransmits;
        for _ in 0..50 {
            stats.advance(5);
        }
        assert!(
            stats.view(5).tcp_retransmits >= before,
            "counter is monotone"
        );
        assert!(stats.view(5).cpu_user_pct + stats.view(5).cpu_sys_pct < 100.0);
    }

    #[test]
    fn fleet_emits_only_the_declared_types() {
        for e in sample_events(9, 500) {
            assert!(type_index(&e.event_type).is_some(), "{}", e.event_type);
            assert!(e.host.ends_with(".grid"));
        }
    }

    #[test]
    fn checksum_is_order_sensitive_and_sampling_is_content_based() {
        let events = sample_events(4, 4_000);
        let forward = events.iter().fold(0, |h, e| fold_event(h, e));
        let mut swapped = events.clone();
        swapped.swap(10, 300);
        let other = swapped.iter().fold(0, |h, e| fold_event(h, e));
        assert_ne!(forward, other);
        // Sampling picks by stamp: an event and its decoded copy agree.
        for e in &events {
            let copy = Event::clone(e);
            assert_eq!(sample_key(e), sample_key(&copy));
        }
    }

    #[test]
    fn sample_key_keeps_about_one_stamp_in_1024() {
        let kept = (0..1_024_000u64)
            .filter(|i| {
                let e = Event::builder("p", "h")
                    .event_type(keys::cpu::TOTAL)
                    .timestamp(Timestamp::from_micros(1_700_000_000_000_000 + i * 100))
                    .build();
                sample_key(&e).is_some()
            })
            .count();
        assert!((700..1_400).contains(&kept), "kept {kept}");
    }

    #[test]
    fn pacer_never_fires_early_and_reports_lateness() {
        // 5 000 ev/s in bursts of 5: a burst a millisecond on average.
        let mut p = Pacer::new(7, 1_000_000, 1_000_000_000, 5_000);
        assert_eq!(p.next(0, 999_000), Pace::Wait { ns: 1_000 });
        assert_eq!(
            p.next(0, 1_000_000),
            Pace::Fire {
                due_ns: 1_000_000,
                late_ns: 0
            }
        );
        // Events 0..4 belong to burst 0; event 5 opens burst 1, later.
        assert_eq!(
            p.next(4, 1_000_400),
            Pace::Fire {
                due_ns: 1_000_000,
                late_ns: 400
            }
        );
        let second = match p.next(5, 1_000_000) {
            Pace::Wait { ns } => 1_000_000 + ns,
            Pace::Fire { due_ns, .. } => due_ns,
            Pace::Done => panic!("schedule ended after one burst"),
        };
        assert!(second >= 1_000_000);
        // A stalled generator is late against the original schedule.
        assert_eq!(
            p.next(5, second + 3_000_000),
            Pace::Fire {
                due_ns: second,
                late_ns: 3_000_000
            }
        );
    }

    /// Walk a whole schedule with a clock that always reads `due - early`.
    fn bursts(seed: u64, early: u64) -> Vec<u64> {
        let mut p = Pacer::new(seed, 0, 1_000_000_000, 5_000);
        let (mut offered, mut due) = (0, Vec::new());
        loop {
            let now = due.last().copied().unwrap_or(0);
            match p.next(offered, now) {
                Pace::Done => return due,
                Pace::Wait { ns } => {
                    assert!(ns > 0);
                    // Asking again too early must still say wait.
                    let asked = (now + ns).saturating_sub(early);
                    if early > 0 && asked < now + ns {
                        assert!(matches!(p.next(offered, asked), Pace::Wait { .. }));
                    }
                    due.push(now + ns);
                }
                Pace::Fire { due_ns, late_ns } => {
                    assert_eq!(due_ns + late_ns, now);
                    offered += BURST_EVENTS;
                }
            }
        }
    }

    #[test]
    fn pacer_schedule_is_seeded_poisson_at_the_asked_rate() {
        let a = bursts(3, 0);
        assert_eq!(a, bursts(3, 500));
        assert_ne!(a, bursts(4, 0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // One second at a burst per millisecond: about a thousand bursts,
        // with gaps that are anything but constant.
        assert!((850..1_150).contains(&a.len()), "{} bursts", a.len());
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|g| *g < 200_000) && gaps.iter().any(|g| *g > 3_000_000));
    }

    #[test]
    fn tap_counts_what_it_passes_on() {
        use jamm::jamm_gateway::GatewayConfig;

        let gateway = Arc::new(EventGateway::new(GatewayConfig::open(GATEWAY)));
        let mut sub = gateway.subscribe().stream().capacity(4_096).open().unwrap();
        let shared = Arc::new(Shared::default());
        let options = TapOptions {
            fifo: true,
            samples: true,
            recs: true,
            traced: true,
        };
        let tap = Tap::new(gateway, Arc::clone(&shared), options, Clock::start());
        let mut fleet = Fleet::new(21);
        let mut emitted = 0;
        for t in 0..200u64 {
            emitted += tap.tick(&mut fleet, Timestamp::from_micros(5_000_000 + t));
        }
        let got = sub.drain();
        assert_eq!(got.len() as u64, emitted);
        assert_eq!(shared.offered.load(Ordering::Relaxed), emitted);
        let fifo: u64 = shared
            .fifo
            .lock()
            .unwrap()
            .iter()
            .map(|(_, n)| u64::from(*n))
            .sum();
        assert_eq!(fifo, emitted);

        let tally = tap.into_tally();
        assert_eq!(tally.by_type.iter().sum::<u64>(), emitted);
        assert_eq!(tally.by_host.iter().sum::<u64>(), emitted);
        assert_eq!(tally.recs.len() as u64, emitted);
        assert_eq!(tally.checksum, got.iter().fold(0, |h, e| fold_event(h, e)));
        assert_eq!(
            tally.lifeline_created_us.len() as u64,
            emitted.div_ceil(LIFELINE_EVERY)
        );
        let over_50 = got
            .iter()
            .filter(|e| e.event_type == keys::cpu::TOTAL && e.value().unwrap() > 50.0)
            .count() as u64;
        assert_eq!(tally.over_threshold[1], over_50);
        // 200 ticks, each with up to three sensor batches nested inside.
        let totals = crate::spans::totals(tally.spans.spans());
        assert_eq!(totals["manager.tick"].count, 200);
        assert!(totals["gateway.publish"].count >= 400);
        assert!(totals["manager.tick"].self_ns <= totals["manager.tick"].total_ns);
    }
}
