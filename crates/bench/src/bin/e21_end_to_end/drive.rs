//! The three streaming workloads: one generator thread ticking the fleet
//! into the gateway, one consumer thread doing all the draining, and the
//! system's own threads in between.
//!
//! A run is a list of phases.  Between phases the generator stops and waits
//! until everything offered has been delivered, so each phase's counts,
//! checksums and latencies are its own.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use jamm::jamm_core::obs::HistogramSnapshot;
use jamm::jamm_core::EventSource;
use jamm::jamm_gateway::DEFAULT_SUBSCRIPTION_CAPACITY;
use jamm::jamm_rmi::edge::EdgeStats;
use jamm::jamm_tsdb::segment::SEGMENT_EXT;
use jamm::jamm_ulm::{Event, SharedEvent, Timestamp};
use jamm::HistorySource;

use crate::gen::{
    fold_event, sample_key, Fleet, Pace, Pacer, Shared, Tally, Tap, TapOptions, LIFELINE_EVERY,
};
use crate::spans::SpanLog;
use crate::stats::{self, Clock};
use crate::system::{Expect, System, Topology, VIEW_QUERY};

/// The generator blocks while more than this many events are in flight: half
/// the smallest default queue on the path, so nothing may drop.  In a
/// closed-loop phase that is what sets the rate.  In an open-loop phase it is
/// a safety valve a hundred times the usual backlog: it closes only when the
/// consumer stalls for longer than the window lasts at the paced rate (a
/// shared host does that now and then), and the ticks it holds back then fire
/// late but keep their due time as their stamp, so the stall shows as latency
/// and lateness instead of as lost events.
pub const IN_FLIGHT_WINDOW: u64 = DEFAULT_SUBSCRIPTION_CAPACITY as u64 / 2;

const MAINTENANCE_EVERY_NS: u64 = 2_000_000_000;
const HOUSEKEEPING_EVERY_NS: u64 = 100_000_000;
/// Events taken from one source before the consumer looks at the next.
const CHUNK: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Closed loop until the phase's `events` were delivered: the tail of
    /// set-up.
    Prime,
    /// Open loop at the paced rate; nothing is recorded.
    Warm,
    /// Open loop at the paced rate; latency and cost are measured.
    Paced,
    /// Closed loop; throughput is measured.
    Saturate,
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub kind: PhaseKind,
    /// Length of a timed phase.
    pub secs: f64,
    /// Length of a priming phase.
    pub events: u64,
}

impl Phase {
    pub fn timed(kind: PhaseKind, secs: f64) -> Phase {
        Phase {
            kind,
            secs,
            events: 0,
        }
    }

    pub fn prime(events: u64) -> Phase {
        Phase {
            kind: PhaseKind::Prime,
            secs: 0.0,
            events,
        }
    }
}

pub fn topology(workload: &str) -> Option<Topology> {
    match workload {
        "stream_edge" => Some(Topology {
            clients: 2,
            local_subs: true,
            ..Topology::default()
        }),
        "archive_ingest" => Some(Topology {
            archiver: true,
            ..Topology::default()
        }),
        "full_pipeline" => Some(Topology {
            clients: 1,
            archiver: true,
            collector: true,
            view: true,
            ..Topology::default()
        }),
        _ => None,
    }
}

/// Counters read at a phase boundary, from public accessors only.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub at_ns: u64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub gw_in: u64,
    pub gw_out: u64,
    pub gw_dropped: u64,
    pub route_us: HistogramSnapshot,
    pub edge: EdgeStats,
    pub reactor_poll_wait_ns: u64,
    pub reactor_dispatch_ns: u64,
    pub socket_stalls: u64,
    pub socket_dropped_frames: u64,
    /// Decoded-queue drops, per connection.
    pub client_dropped: Vec<u64>,
    pub client_decode_errors: u64,
    /// Events evicted from the edge's and the archiver's gateway queues.
    pub edge_sub_dropped: u64,
    pub archiver_sub_dropped: u64,
    pub appended: u64,
    pub sealed: u64,
    pub compactions: u64,
    pub append_us: HistogramSnapshot,
    pub seal_us: HistogramSnapshot,
    pub compact_us: HistogramSnapshot,
    pub segment_bytes: u64,
    pub deep_clones: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub ctx_switches: u64,
    pub written_bytes: u64,
}

fn read_counters(sys: &System, clock: &Clock) -> Counters {
    let jamm = &sys.jamm;
    let gw = jamm.gateways[0].stats();
    let mut c = Counters {
        at_ns: clock.now_ns(),
        cpu_s: stats::process_cpu_seconds(),
        peak_rss_mb: stats::peak_rss_mb(),
        gw_in: gw.events_in.load(Ordering::Relaxed),
        gw_out: gw.events_out.load(Ordering::Relaxed),
        gw_dropped: gw.events_dropped.load(Ordering::Relaxed),
        route_us: gw.route_us.snapshot(),
        deep_clones: jamm::jamm_ulm::deep_clone_count(),
        allocs: crate::ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: crate::ALLOC_BYTES.load(Ordering::Relaxed),
        ctx_switches: stats::process_ctx_switches(),
        written_bytes: stats::process_written_bytes(),
        ..Counters::default()
    };
    if let Some(edge) = jamm.edges.first() {
        c.edge = edge.stats();
        for row in edge.socket_stats() {
            c.socket_stalls += row.stats.stalls;
            c.socket_dropped_frames += row.stats.dropped_frames;
        }
    }
    if let Some(reactor) = &jamm.reactor {
        let ls = reactor.loop_stats();
        c.reactor_poll_wait_ns = ls.poll_wait_ns;
        c.reactor_dispatch_ns = ls.dispatch_ns;
    }
    for client in &sys.clients {
        let s = client.stats();
        c.client_dropped.push(s.dropped);
        c.client_decode_errors += s.decode_errors;
    }
    for row in jamm.gateways[0].delivery_report() {
        match row.consumer.as_str() {
            "edge" => c.edge_sub_dropped += row.dropped,
            "archiver" => c.archiver_sub_dropped += row.dropped,
            _ => {}
        }
    }
    let tsdb = jamm.archive.stats();
    c.appended = tsdb.appended();
    c.sealed = tsdb.sealed_segments();
    c.compactions = tsdb.compactions();
    c.append_us = tsdb.append_us().snapshot();
    c.seal_us = tsdb.seal_us().snapshot();
    c.compact_us = tsdb.compact_us().snapshot();
    if let Some(dir) = &sys.dir {
        c.segment_bytes = stats::dir_bytes(dir.path(), Some(SEGMENT_EXT));
    }
    c
}

/// What the consumer thread saw of one remote connection during one phase.
#[derive(Debug, Clone, Default)]
pub struct ConnPhase {
    pub received: u64,
    pub checksum: u64,
    /// Creation stamp → decoded, nanoseconds, in arrival order.
    pub latency_ns: Vec<u32>,
}

/// What the consumer thread recorded during one phase.
#[derive(Debug, Clone, Default)]
pub struct ConsumerPhase {
    pub conns: Vec<ConnPhase>,
    pub archived: u64,
    /// Creation stamp → the `poll()` that stored it returned, nanoseconds,
    /// FIFO-mapped, in arrival order; ends at the first drop.
    pub archive_latency_ns: Vec<u32>,
    pub archive_fifo_broken: bool,
    pub collected: u64,
    /// `(time, delivered)` marks about a second apart (saturate phases).
    pub marks: Vec<(u64, u64)>,
    pub start: Counters,
    pub end: Counters,
}

/// Everything the consumer thread hands back when the run stops.
pub struct ConsumerReport {
    pub sys: System,
    pub phases: Vec<ConsumerPhase>,
    pub samples_checked: u64,
    pub samples_bad: u64,
    pub view_reads: u64,
    pub view_bad: u64,
    pub maintenance_errors: Vec<String>,
    pub spans: SpanLog,
    /// Receive stamps of arrivals number 0, 64, 128, ... per connection, and
    /// stored stamps likewise for the archive (traced runs).
    pub lifeline_received_ns: Vec<Vec<u64>>,
    pub lifeline_stored_ns: Vec<u64>,
    pub self_events: Vec<SharedEvent>,
}

struct Consumer {
    /// What is handed back; the deployment lives in it while the run lasts.
    out: ConsumerReport,
    topology: Topology,
    shared: Arc<Shared>,
    clock: Clock,
    traced: bool,
    kinds: Vec<PhaseKind>,
    phase: usize,
    conn_total: Vec<u64>,
    archived_total: u64,
    /// An event the idle wait pulled off connection 0, not yet handled.
    pending: Option<Event>,
    chunk_stamps: Vec<u64>,
    scratch: Vec<SharedEvent>,
    next_maintenance_ns: u64,
    next_housekeeping_ns: u64,
    next_mark_ns: u64,
    seen_gw_dropped: u64,
}

impl Consumer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let id = self.out.spans.enter(name, 0, self.clock.now_ns());
        let out = f(self);
        self.out.spans.exit(id, self.clock.now_ns());
        out
    }

    fn recording(&self) -> bool {
        self.kinds.get(self.phase) == Some(&PhaseKind::Paced)
    }

    fn handle_event(&mut self, conn: usize, event: Event) {
        let p = &mut self.out.phases[self.phase].conns[conn];
        p.received += 1;
        p.checksum = fold_event(p.checksum, &event);
        self.conn_total[conn] += 1;
        self.chunk_stamps.push(event.timestamp.as_micros());
        if let Some(key) = sample_key(&event) {
            self.out.samples_checked += 1;
            let kept = self.shared.samples.lock().expect("samples lock poisoned");
            if kept.get(&key).map(|e| e.as_ref()) != Some(&event) {
                self.out.samples_bad += 1;
            }
        }
    }

    /// Stamp the events taken since the last call as received now.
    fn stamp_chunk(&mut self, conn: usize) {
        let now = self.clock.now_ns();
        let recording = self.recording();
        let first = self.conn_total[conn] - self.chunk_stamps.len() as u64;
        let p = &mut self.out.phases[self.phase].conns[conn];
        for (i, created_us) in self.chunk_stamps.drain(..).enumerate() {
            if recording {
                let ns = now.saturating_sub(created_us * 1_000);
                p.latency_ns.push(ns.min(u64::from(u32::MAX)) as u32);
            }
            if self.traced && (first + i as u64).is_multiple_of(LIFELINE_EVERY) {
                self.out.lifeline_received_ns[conn].push(now);
            }
        }
    }

    fn drain_clients(&mut self) -> usize {
        let mut moved = 0;
        for conn in 0..self.out.sys.clients.len() {
            if conn == 0 {
                if let Some(event) = self.pending.take() {
                    self.handle_event(conn, event);
                }
            }
            while self.chunk_stamps.len() < CHUNK {
                let Ok(event) = self.out.sys.clients[conn].events().try_recv() else {
                    break;
                };
                self.handle_event(conn, event);
            }
            moved += self.chunk_stamps.len();
            self.stamp_chunk(conn);
        }
        moved
    }

    fn drain_locals(&mut self) -> usize {
        let mut moved = 0;
        for local in &mut self.out.sys.locals {
            let n = local.sub.events.try_iter().count();
            local.received += n as u64;
            moved += n;
        }
        moved
    }

    fn poll_collector(&mut self) -> usize {
        let Some(collector) = self.out.sys.jamm.collectors.first_mut() else {
            return 0;
        };
        // `drain_into` polls the gateway subscription, then moves the
        // collected log out, so the collector's memory stays bounded.
        let n = collector.drain_into(&mut self.scratch);
        self.scratch.clear();
        self.out.phases[self.phase].collected += n as u64;
        n
    }

    fn poll_archiver(&mut self) -> usize {
        let Some(archiver) = self.out.sys.jamm.archiver.as_mut() else {
            return 0;
        };
        let stored = archiver.poll() as u64;
        if stored == 0 {
            return 0;
        }
        let now = self.clock.now_ns();
        let recording = self.recording();
        let p = &mut self.out.phases[self.phase];
        p.archived += stored;
        let mut fifo = self.shared.fifo.lock().expect("fifo lock poisoned");
        let mut left = stored;
        while left > 0 {
            let Some((created_us, n)) = fifo.front_mut() else {
                p.archive_fifo_broken = true;
                break;
            };
            let take = left.min(u64::from(*n));
            for i in 0..take {
                if recording && !p.archive_fifo_broken {
                    let ns = now.saturating_sub(*created_us * 1_000);
                    p.archive_latency_ns
                        .push(ns.min(u64::from(u32::MAX)) as u32);
                }
                if self.traced && (self.archived_total + i).is_multiple_of(LIFELINE_EVERY) {
                    self.out.lifeline_stored_ns.push(now);
                }
            }
            self.archived_total += take;
            left -= take;
            *n -= take as u32;
            if *n == 0 {
                fifo.pop_front();
            }
        }
        stored as usize
    }

    /// A drop on the archiver's queue evicts its oldest events, which are
    /// the head of the FIFO: discard their stamps and stop attributing
    /// latencies for the rest of this phase.
    fn account_drops(&mut self) {
        let dropped = self.out.sys.jamm.gateways[0]
            .stats()
            .events_dropped
            .load(Ordering::Relaxed);
        if dropped == self.seen_gw_dropped {
            return;
        }
        self.seen_gw_dropped = dropped;
        if !self.topology.archiver {
            return;
        }
        let archiver_dropped: u64 = self.out.sys.jamm.gateways[0]
            .delivery_report()
            .iter()
            .filter(|r| r.consumer == "archiver")
            .map(|r| r.dropped)
            .sum();
        // The tap counts a batch as offered while it holds this lock.
        let mut fifo = self.shared.fifo.lock().expect("fifo lock poisoned");
        let offered = self.shared.offered.load(Ordering::Acquire);
        let queued: u64 = fifo.iter().map(|(_, n)| u64::from(*n)).sum();
        // offered = stored + dropped + still queued, once the FIFO is trimmed.
        let mut excess = (self.archived_total + archiver_dropped + queued).saturating_sub(offered);
        if excess > 0 {
            self.out.phases[self.phase].archive_fifo_broken = true;
        }
        while excess > 0 {
            let Some((_, n)) = fifo.front_mut() else {
                break;
            };
            let take = excess.min(u64::from(*n));
            *n -= take as u32;
            excess -= take;
            if *n == 0 {
                fifo.pop_front();
            }
        }
    }

    fn housekeeping(&mut self, now: u64) {
        if now >= self.next_maintenance_ns && self.topology.archiver {
            self.next_maintenance_ns = now + MAINTENANCE_EVERY_NS;
            let report = self.span("archive.maintenance", |c| {
                c.out.sys.jamm.archive_maintenance(Timestamp::now())
            });
            self.out.maintenance_errors.extend(report.errors);
        }
        if now < self.next_housekeeping_ns {
            return;
        }
        self.next_housekeeping_ns = now + HOUSEKEEPING_EVERY_NS;
        self.account_drops();
        if self.topology.view {
            let answer = self.span("query", |c| {
                c.out
                    .sys
                    .jamm
                    .query("dashboard", VIEW_QUERY, Timestamp::now())
            });
            self.out.view_reads += 1;
            let ok = answer.is_ok_and(|a| {
                matches!(a.history_source, HistorySource::MaterializedView { .. })
                    && a.aggregates.len() <= 5
            });
            self.out.view_bad += u64::from(!ok);
        }
        if self.traced {
            self.out.sys.jamm.drain_self_events();
        }
    }

    fn delivered(&self) -> u64 {
        let mut d = u64::MAX;
        for total in &self.conn_total {
            d = d.min(*total);
        }
        if self.topology.archiver {
            d = d.min(self.archived_total);
        }
        d
    }

    fn enter_phase(&mut self, phase: usize) {
        let counters = read_counters(&self.out.sys, &self.clock);
        self.out.phases[self.phase].end = counters.clone();
        self.phase = phase;
        let delivered = self.delivered();
        let p = &mut self.out.phases[phase];
        p.start = counters;
        p.marks.push((p.start.at_ns, delivered));
        self.next_mark_ns = p.start.at_ns + 1_000_000_000;
    }

    fn run(mut self) -> ConsumerReport {
        if self.out.sys.clients.is_empty() {
            let _ = self.shared.wake.set(std::thread::current());
        }
        self.out.phases[0].start = read_counters(&self.out.sys, &self.clock);
        loop {
            let phase = self.shared.phase.load(Ordering::Acquire) as usize;
            if phase != self.phase {
                self.enter_phase(phase);
                self.shared.phase_ack.store(phase as u64, Ordering::Release);
                if phase >= self.kinds.len() {
                    break;
                }
            }
            let mut moved = self.drain_clients();
            moved += self.drain_locals();
            moved += self.span("collector.poll", Self::poll_collector);
            moved += self.span("archiver.poll", Self::poll_archiver);
            let delivered = self.delivered();
            self.shared.delivered.store(delivered, Ordering::Release);
            let now = self.clock.now_ns();
            if now >= self.next_mark_ns && self.kinds[self.phase] == PhaseKind::Saturate {
                self.next_mark_ns += 1_000_000_000;
                self.out.phases[self.phase].marks.push((now, delivered));
            }
            self.housekeeping(now);
            if moved == 0 {
                self.idle();
            }
        }
        if self.traced {
            self.out.sys.jamm.drain_self_events();
        }
        self.out.self_events = self.out.sys.jamm.self_events();
        self.out.phases.truncate(self.kinds.len());
        self.out
    }

    /// Nothing to drain: block on the first connection if there is one (the
    /// broadcast reaches every path at about the same time); else park until
    /// the tap has published something.  Polling on a fixed nap instead would
    /// beat against the generator's schedule and decide the latency.
    fn idle(&mut self) {
        let wait = Duration::from_micros(500);
        match self.out.sys.clients.first() {
            Some(client) => self.pending = client.events().recv_timeout(wait).ok(),
            None => std::thread::park_timeout(wait),
        }
    }
}

/// What the generator recorded about one phase.
#[derive(Debug, Clone, Default)]
pub struct GenPhase {
    pub offered: u64,
    pub delivered: u64,
    pub checksum: u64,
    pub first_stamp_us: u64,
    pub last_stamp_us: u64,
    pub lateness_ns: Vec<u32>,
    /// Times an open-loop phase found the in-flight window full and waited.
    pub held_back: u64,
    pub elapsed_s: f64,
}

/// One driven run: what both bench threads saw, phase by phase.
pub struct Driven {
    pub gen: Vec<GenPhase>,
    pub tally: Tally,
    pub consumer: ConsumerReport,
    pub offered_total: u64,
}

fn sleep_ns(ns: u64) {
    std::thread::sleep(Duration::from_nanos(ns));
}

/// Wait until everything offered has been delivered, or delivery has made no
/// progress for ten seconds (whatever is missing then is lost: the in-flight
/// window keeps every queue from overflowing, so a shorter silence is a
/// stalled consumer, not a loss).
fn quiesce(shared: &Shared) {
    let target = shared.offered.load(Ordering::Acquire);
    let mut last = shared.delivered.load(Ordering::Acquire);
    let mut idle_ns = 0u64;
    while last < target && idle_ns < 10_000_000_000 {
        sleep_ns(200_000);
        let d = shared.delivered.load(Ordering::Acquire);
        idle_ns = if d == last { idle_ns + 200_000 } else { 0 };
        last = d;
    }
}

/// Drive `sys` through `phases` with a fleet seeded by `seed`.
pub fn drive(
    sys: System,
    topology: Topology,
    phases: &[Phase],
    rate: u64,
    seed: u64,
    traced: bool,
    clock: Clock,
) -> Driven {
    let shared = Arc::new(Shared::default());
    let options = TapOptions {
        fifo: topology.archiver,
        samples: topology.clients > 0,
        recs: false,
        traced,
    };
    let tap = Tap::new(
        Arc::clone(&sys.jamm.gateways[0]),
        Arc::clone(&shared),
        options,
        clock,
    );
    let conns = sys.clients.len();
    let blank = ConsumerPhase {
        conns: vec![ConnPhase::default(); conns],
        ..ConsumerPhase::default()
    };
    let consumer = Consumer {
        out: ConsumerReport {
            sys,
            // One spare slot takes the boundary snapshot after the last phase.
            phases: vec![blank; phases.len() + 1],
            samples_checked: 0,
            samples_bad: 0,
            view_reads: 0,
            view_bad: 0,
            maintenance_errors: Vec::new(),
            spans: SpanLog::default(),
            lifeline_received_ns: vec![Vec::new(); conns],
            lifeline_stored_ns: Vec::new(),
            self_events: Vec::new(),
        },
        topology,
        shared: Arc::clone(&shared),
        clock,
        traced,
        kinds: phases.iter().map(|p| p.kind).collect(),
        phase: 0,
        conn_total: vec![0; conns],
        archived_total: 0,
        pending: None,
        chunk_stamps: Vec::with_capacity(CHUNK + 1),
        scratch: Vec::new(),
        next_maintenance_ns: clock.now_ns() + MAINTENANCE_EVERY_NS,
        next_housekeeping_ns: 0,
        next_mark_ns: 0,
        seen_gw_dropped: 0,
    };

    let mut fleet = Fleet::new(seed);
    let mut gen = Vec::with_capacity(phases.len());
    let report = std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("e21-consumer".into())
            .spawn_scoped(scope, move || consumer.run())
            .expect("spawn consumer thread");
        let mut last_stamp_us = 0u64;
        for (index, phase) in phases.iter().enumerate() {
            if index > 0 {
                shared.phase.store(index as u64, Ordering::Release);
                while shared.phase_ack.load(Ordering::Acquire) != index as u64 {
                    sleep_ns(50_000);
                }
            }
            let mut g = GenPhase::default();
            let offered0 = shared.offered.load(Ordering::Acquire);
            let delivered0 = shared.delivered.load(Ordering::Acquire);
            let start_ns = clock.now_ns();
            let length_ns = (phase.secs * 1e9) as u64;
            let mut pacer = Pacer::new(seed ^ index as u64, start_ns, length_ns, rate);
            // Events lost before this phase never arrive; they are not in flight.
            let lost0 = offered0.saturating_sub(delivered0);
            loop {
                let now = clock.now_ns();
                let offered = shared.offered.load(Ordering::Relaxed) - offered0;
                let in_flight = (offered0 + offered)
                    .saturating_sub(shared.delivered.load(Ordering::Acquire) + lost0);
                let due_ns = match phase.kind {
                    PhaseKind::Warm | PhaseKind::Paced if in_flight > IN_FLIGHT_WINDOW => {
                        g.held_back += 1;
                        sleep_ns(50_000);
                        continue;
                    }
                    PhaseKind::Warm | PhaseKind::Paced => match pacer.next(offered, now) {
                        Pace::Done => break,
                        Pace::Wait { ns } => {
                            sleep_ns(ns);
                            continue;
                        }
                        Pace::Fire { due_ns, late_ns } => {
                            if phase.kind == PhaseKind::Paced {
                                g.lateness_ns.push(late_ns.min(u64::from(u32::MAX)) as u32);
                            }
                            due_ns
                        }
                    },
                    PhaseKind::Prime | PhaseKind::Saturate => {
                        let done = match phase.kind {
                            PhaseKind::Prime => offered >= phase.events,
                            _ => now - start_ns >= length_ns,
                        };
                        if done {
                            break;
                        }
                        if in_flight > IN_FLIGHT_WINDOW {
                            sleep_ns(50_000);
                            continue;
                        }
                        now
                    }
                };
                // Each tick carries the time it was due, unique and rising.
                last_stamp_us = (due_ns / 1_000).max(last_stamp_us + 1);
                if g.first_stamp_us == 0 {
                    g.first_stamp_us = last_stamp_us;
                }
                tap.tick(&mut fleet, Timestamp::from_micros(last_stamp_us));
            }
            quiesce(&shared);
            g.elapsed_s = (clock.now_ns() - start_ns) as f64 / 1e9;
            g.last_stamp_us = last_stamp_us;
            g.offered = shared.offered.load(Ordering::Acquire) - offered0;
            g.delivered = shared.delivered.load(Ordering::Acquire) - delivered0;
            g.checksum = tap.take_checksum();
            gen.push(g);
        }
        shared.phase.store(phases.len() as u64, Ordering::Release);
        handle.join().expect("consumer thread panicked")
    });
    Driven {
        gen,
        offered_total: shared.offered.load(Ordering::Acquire),
        tally: tap.into_tally(),
        consumer: report,
    }
}

/// How a local subscription's expectation reads from the tap's tally.
pub fn expected_local(tally: &Tally, expect: Expect) -> u64 {
    match expect {
        Expect::Type(i) => tally.by_type[i],
        Expect::Host(i) => tally.by_host[i],
        Expect::OverThreshold(i) => tally.over_threshold[i],
    }
}

/// What a restarted archive holds.
pub struct Reopened {
    pub len: usize,
    /// Rows a range scan over `[from_us, to_us)` returned.
    pub rows: usize,
    pub reopen_s: f64,
    pub wal_recovered: u64,
}

/// Reopen an archive directory whose deployment was dropped, and count what
/// it holds and what a fixed range scan over it returns.
pub fn reopen_archive(dir: &std::path::Path, from_us: u64, to_us: u64) -> Result<Reopened, String> {
    let t0 = std::time::Instant::now();
    let archive = jamm::jamm_archive::EventArchive::open(dir).map_err(|e| e.to_string())?;
    let reopen_s = t0.elapsed().as_secs_f64();
    let rows = archive
        .scan_str(&format!("(&(time>={from_us})(time<{to_us}))"))
        .map_err(|e| e.to_string())?
        .count();
    Ok(Reopened {
        len: archive.len(),
        rows,
        reopen_s,
        wal_recovered: archive.stats().wal_recovered_events(),
    })
}
