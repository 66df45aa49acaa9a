//! The result analyser: a [`ScenarioReport`] captured from a finished
//! run plus a fluent assertion API ([`Expectations`]).
//!
//! The report is pure data derived from the simulated clock and seeded
//! RNG, so its [`ScenarioReport::render_text`] form is byte-identical
//! across runs of the same spec and seed — the determinism test in the
//! scenario suite asserts exactly that.  The
//! [`Expectations::diagnosis_localizes`] assertion feeds the captured
//! self-lifeline events through `jamm_netlogger::analysis::diagnose`,
//! closing the loop: an *injected* bottleneck must be *automatically*
//! localized to the right stage pair and host.

use jamm_netlogger::analysis::{diagnose, Diagnosis};
use jamm_netsim::spec::TimelineEntry;
use jamm_ulm::SharedEvent;

/// One simulated second of aggregate activity.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondSample {
    /// Which simulated second this covers (0-based, sample taken at its end).
    pub sec: u64,
    /// Application data delivered across all TCP flows, megabits/second.
    pub data_mbps: f64,
    /// Monitoring events published to gateways during the second.
    pub published: u64,
    /// Events drained by subscribing consumers during the second.
    pub delivered: u64,
    /// Events dropped from bounded subscription queues during the second.
    pub dropped: u64,
}

/// Per-consumer totals for the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerReport {
    /// Consumer principal.
    pub name: String,
    /// Events drained in total.
    pub delivered: u64,
    /// Events lost to queue overflow in total.
    pub dropped: u64,
    /// Delivered events of the protected summary stream (`*_AVG_*`).
    pub delivered_summaries: u64,
    /// Per-event delivery latency (drain time minus event timestamp), µs.
    pub latencies_us: Vec<u64>,
}

/// Whole-run totals of one dashboard reader pool (`readers` directive):
/// N concurrent readers over one continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct ReaderReport {
    /// Pool (and view) name.
    pub name: String,
    /// Concurrent readers in the pool.
    pub count: u64,
    /// View snapshots taken in total (one per reader per period).
    pub reads: u64,
    /// Reads served from the materialized view.
    pub served_from_views: u64,
    /// Reads that fell through to the archive-scan path.
    pub archive_scans: u64,
    /// Events in the last snapshot the pool read.
    pub last_snapshot_len: u64,
}

impl ReaderReport {
    /// Snapshot reads per reader — the per-dashboard throughput that
    /// must stay flat as the pool grows.
    pub fn reads_per_reader(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.reads as f64 / self.count as f64
    }
}

/// End-of-run state of one gateway's QoS plane (present only for
/// gateways declared with `qos=on`).
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayQosReport {
    /// Gateway name.
    pub gateway: String,
    /// Declared shed level at the end of the run.
    pub level: String,
    /// Pressure reading of the last re-tier pass.
    pub pressure: f64,
    /// Events shed per tier under declared overload, indexed
    /// fast/lagging/probation.
    pub shed: [u64; 3],
    /// Events dropped by per-tier queue budgets, same indexing.
    pub budget_drops: [u64; 3],
    /// Re-tier passes run.
    pub retiers: u64,
    /// Final `(consumer, tier)` assignment per subscription.
    pub tiers: Vec<(String, String)>,
}

impl GatewayQosReport {
    /// Shed counter for a tier named `fast`/`lagging`/`probation`.
    pub fn shed_for(&self, tier: &str) -> Option<u64> {
        ["fast", "lagging", "probation"]
            .iter()
            .position(|t| *t == tier)
            .map(|i| self.shed[i])
    }
}

impl ConsumerReport {
    /// The p-th percentile of delivery latency in microseconds (0 when the
    /// consumer saw no events).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// Everything a finished scenario produced, ready to be asserted on.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name from the spec.
    pub name: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Simulated duration in microseconds.
    pub duration_us: u64,
    /// Per-second aggregate samples.
    pub seconds: Vec<SecondSample>,
    /// Per-consumer totals.
    pub consumers: Vec<ConsumerReport>,
    /// (archiver name, events stored) pairs.
    pub archived: Vec<(String, u64)>,
    /// Dashboard reader pool totals (`readers` directives).
    pub readers: Vec<ReaderReport>,
    /// QoS plane state per `qos=on` gateway (empty otherwise).
    pub qos: Vec<GatewayQosReport>,
    /// Events dropped from the monitoring plane's own self-lifeline
    /// subscription — must stay 0 even under declared overload.
    pub self_dropped: u64,
    /// Summary (`*_AVG_*`) events pushed by `summaries=` sensor sinks.
    pub summaries_published: u64,
    /// (simulated µs, host) per sensor-breaker revival.
    pub revivals: Vec<(u64, String)>,
    /// Self-lifeline events captured from the monitoring plane's tracer.
    pub self_events: Vec<SharedEvent>,
    /// (simulated µs, description) per applied fault.
    pub fault_log: Vec<(u64, String)>,
    /// Total events published to gateways.
    pub published: u64,
    /// The spec's fault timeline (used to window assertions).
    pub timeline: Vec<TimelineEntry>,
}

impl ScenarioReport {
    /// Run the netlogger bottleneck analysis over the captured
    /// self-lifelines.
    pub fn diagnose(&self) -> Diagnosis {
        diagnose(self.self_events.iter().map(|e| &**e))
    }

    /// Look up a consumer's totals by name.
    pub fn consumer(&self, name: &str) -> Option<&ConsumerReport> {
        self.consumers.iter().find(|c| c.name == name)
    }

    /// Look up a gateway's QoS report by name.
    pub fn qos_for(&self, gateway: &str) -> Option<&GatewayQosReport> {
        self.qos.iter().find(|q| q.gateway == gateway)
    }

    /// Look up a reader pool's totals by name.
    pub fn reader_pool(&self, name: &str) -> Option<&ReaderReport> {
        self.readers.iter().find(|r| r.name == name)
    }

    /// Mean data throughput (Mbit/s) over a closed range of simulated
    /// seconds, clamped to the samples that exist.
    pub fn mean_mbps(&self, from_sec: u64, to_sec: u64) -> f64 {
        let window: Vec<f64> = self
            .seconds
            .iter()
            .filter(|s| s.sec >= from_sec && s.sec <= to_sec)
            .map(|s| s.data_mbps)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().sum::<f64>() / window.len() as f64
    }

    /// Time of the first fault in the timeline (µs), if any.
    pub fn first_fault_us(&self) -> Option<u64> {
        self.timeline.iter().map(|e| e.at_us).min()
    }

    /// Time of the last fault in the timeline (µs), if any.
    pub fn last_fault_us(&self) -> Option<u64> {
        self.timeline.iter().map(|e| e.at_us).max()
    }

    /// Start asserting on this report.
    pub fn expect(&self) -> Expectations<'_> {
        Expectations {
            report: self,
            failures: Vec::new(),
            checks: 0,
        }
    }

    /// A deterministic plain-text rendering of the whole report.  Every
    /// number in it is derived from the simulated clock and the seeded
    /// RNG, so two runs of the same spec + seed must produce identical
    /// bytes — the determinism test compares exactly this string.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} seed={} duration={}s",
            self.name,
            self.seed,
            self.duration_us / 1_000_000
        );
        let _ = writeln!(out, "published {} events", self.published);
        for c in &self.consumers {
            let _ = writeln!(
                out,
                "consumer {}: delivered={} dropped={} p50={}us p99={}us",
                c.name,
                c.delivered,
                c.dropped,
                c.latency_percentile_us(50.0),
                c.latency_percentile_us(99.0),
            );
        }
        for (name, stored) in &self.archived {
            let _ = writeln!(out, "archiver {name}: stored={stored}");
        }
        for r in &self.readers {
            let _ = writeln!(
                out,
                "readers {}: n={} reads={} served_from_views={} archive_scans={} snapshot_len={}",
                r.name, r.count, r.reads, r.served_from_views, r.archive_scans, r.last_snapshot_len
            );
        }
        for q in &self.qos {
            let _ = writeln!(
                out,
                "qos {}: level={} pressure={:.3} retiers={} \
                 shed=fast:{},lagging:{},probation:{} \
                 budget=fast:{},lagging:{},probation:{}",
                q.gateway,
                q.level,
                q.pressure,
                q.retiers,
                q.shed[0],
                q.shed[1],
                q.shed[2],
                q.budget_drops[0],
                q.budget_drops[1],
                q.budget_drops[2],
            );
            for (consumer, tier) in &q.tiers {
                let _ = writeln!(out, "  tier {consumer}: {tier}");
            }
        }
        if self.summaries_published > 0 {
            let _ = writeln!(out, "summaries published: {}", self.summaries_published);
        }
        if self.self_dropped > 0 {
            let _ = writeln!(out, "self-lifelines dropped: {}", self.self_dropped);
        }
        for (at, host) in &self.revivals {
            let _ = writeln!(out, "sensor {host} revived at {}s", at / 1_000_000);
        }
        let _ = writeln!(out, "faults:");
        for (at, desc) in &self.fault_log {
            let _ = writeln!(out, "  {:>6}s  {desc}", at / 1_000_000);
        }
        let _ = writeln!(
            out,
            "per-second (sec data_mbps published delivered dropped):"
        );
        for s in &self.seconds {
            let _ = writeln!(
                out,
                "  {:>4} {:>10.3} {:>8} {:>8} {:>8}",
                s.sec, s.data_mbps, s.published, s.delivered, s.dropped
            );
        }
        let _ = writeln!(out, "self-lifeline events: {}", self.self_events.len());
        let _ = writeln!(out, "analysis: {}", self.diagnose().render_text());
        out
    }
}

/// A fluent chain of assertions over a [`ScenarioReport`].  Failures
/// accumulate; [`Expectations::verify`] returns them all at once and
/// [`Expectations::assert_ok`] panics with the full list, so a failing
/// scenario shows every broken expectation, not just the first.
pub struct Expectations<'a> {
    report: &'a ScenarioReport,
    failures: Vec<String>,
    checks: usize,
}

impl<'a> Expectations<'a> {
    fn check(mut self, ok: bool, failure: String) -> Self {
        self.checks += 1;
        if !ok {
            self.failures.push(failure);
        }
        self
    }

    /// Mean data throughput over the whole run is at least `mbps`.
    pub fn throughput_at_least(self, mbps: f64) -> Self {
        let got = {
            let last = self.report.seconds.last().map(|s| s.sec).unwrap_or(0);
            self.report.mean_mbps(0, last)
        };
        self.check(
            got >= mbps,
            format!("mean throughput {got:.2} Mbit/s < expected {mbps:.2}"),
        )
    }

    /// Mean data throughput over `[from_sec, to_sec]` is at least `mbps`.
    pub fn throughput_at_least_during(self, from_sec: u64, to_sec: u64, mbps: f64) -> Self {
        let got = self.report.mean_mbps(from_sec, to_sec);
        self.check(
            got >= mbps,
            format!("throughput {got:.2} Mbit/s in [{from_sec}s,{to_sec}s] < expected {mbps:.2}"),
        )
    }

    /// Mean data throughput over `[from_sec, to_sec]` is at most `mbps`
    /// (asserting a collapse really collapsed).
    pub fn throughput_at_most_during(self, from_sec: u64, to_sec: u64, mbps: f64) -> Self {
        let got = self.report.mean_mbps(from_sec, to_sec);
        self.check(
            got <= mbps,
            format!("throughput {got:.2} Mbit/s in [{from_sec}s,{to_sec}s] > expected {mbps:.2}"),
        )
    }

    /// Consumer `name`'s 99th-percentile delivery latency is under `us`.
    pub fn delivery_p99_under(self, name: &str, us: u64) -> Self {
        match self.report.consumer(name) {
            Some(c) => {
                let got = c.latency_percentile_us(99.0);
                self.check(
                    got < us,
                    format!("consumer {name} p99 latency {got}us >= expected {us}us"),
                )
            }
            None => self.check(false, format!("no consumer named {name}")),
        }
    }

    /// Consumer `name` received at least `n` events.
    pub fn events_delivered_at_least(self, name: &str, n: u64) -> Self {
        match self.report.consumer(name) {
            Some(c) => {
                let got = c.delivered;
                self.check(
                    got >= n,
                    format!("consumer {name} delivered {got} events < expected {n}"),
                )
            }
            None => self.check(false, format!("no consumer named {name}")),
        }
    }

    /// Some subscription dropped events somewhere in the run (asserting an
    /// injected overload really overflowed a bounded queue).
    pub fn drops_at_least(self, n: u64) -> Self {
        let got: u64 = self.report.consumers.iter().map(|c| c.dropped).sum();
        self.check(got >= n, format!("total drops {got} < expected {n}"))
    }

    /// Queue-overflow drops only happen inside `[from_sec, to_sec]`; the
    /// rest of the run delivers losslessly.
    pub fn no_drops_outside(self, from_sec: u64, to_sec: u64) -> Self {
        let offenders: Vec<String> = self
            .report
            .seconds
            .iter()
            .filter(|s| (s.sec < from_sec || s.sec > to_sec) && s.dropped > 0)
            .map(|s| format!("{} drops at {}s", s.dropped, s.sec))
            .collect();
        self.check(
            offenders.is_empty(),
            format!(
                "drops outside [{from_sec}s,{to_sec}s]: {}",
                offenders.join(", ")
            ),
        )
    }

    /// Within `secs` simulated seconds of the *last* timeline entry, data
    /// throughput is back to at least half its pre-fault baseline.
    pub fn recovered_within(self, secs: u64) -> Self {
        let (Some(first), Some(last)) = (self.report.first_fault_us(), self.report.last_fault_us())
        else {
            return self.check(false, "recovered_within on a faultless scenario".into());
        };
        let (first, last) = (first / 1_000_000, last / 1_000_000);
        let baseline = if first == 0 {
            0.0
        } else {
            self.report.mean_mbps(0, first.saturating_sub(1))
        };
        if baseline == 0.0 {
            return self.check(false, "no pre-fault baseline to recover to".into());
        }
        let recovered_at = self
            .report
            .seconds
            .iter()
            .filter(|s| s.sec > last && s.data_mbps >= baseline * 0.5)
            .map(|s| s.sec)
            .next();
        match recovered_at {
            Some(at) if at <= last + secs => self.check(true, String::new()),
            Some(at) => self.check(
                false,
                format!(
                    "recovered at {at}s, {} s after the last fault (allowed {secs})",
                    at - last
                ),
            ),
            None => self.check(
                false,
                format!("never recovered to 50% of baseline {baseline:.2} Mbit/s"),
            ),
        }
    }

    /// The netlogger bottleneck analysis localizes the injected fault: the
    /// dominant stage gap is `from_stage -> to_stage` and its target (the
    /// host or consumer stamped on the `to` event) is `target`.
    pub fn diagnosis_localizes(self, from_stage: &str, to_stage: &str, target: &str) -> Self {
        let diagnosis = self.report.diagnose();
        match diagnosis.bottleneck() {
            Some(b) => {
                let ok = b.from == from_stage && b.to == to_stage && b.target == target;
                self.check(
                    ok,
                    format!(
                        "diagnosis found {} -> {} at {} (wanted {from_stage} -> {to_stage} at {target})",
                        b.from, b.to, b.target
                    ),
                )
            }
            None => {
                let n = self.report.self_events.len();
                self.check(
                    false,
                    format!(
                        "diagnosis found no bottleneck over {n} self-lifeline events \
                         (wanted {from_stage} -> {to_stage} at {target})"
                    ),
                )
            }
        }
    }

    /// At least `n` archived events ended up in archiver `name`.
    pub fn archived_at_least(self, name: &str, n: u64) -> Self {
        match self.report.archived.iter().find(|(a, _)| a == name) {
            Some((_, got)) => self.check(
                *got >= n,
                format!("archiver {name} stored {got} < expected {n}"),
            ),
            None => self.check(false, format!("no archiver named {name}")),
        }
    }

    /// Gateway `gateway` ended the run with consumer `consumer` assigned
    /// to tier `tier` (`fast`/`lagging`/`probation`).
    pub fn tiered_as(self, gateway: &str, consumer: &str, tier: &str) -> Self {
        match self.report.qos_for(gateway) {
            Some(q) => match q.tiers.iter().find(|(c, _)| c == consumer) {
                Some((_, got)) => self.check(
                    got == tier,
                    format!("{gateway}: consumer {consumer} in tier {got}, expected {tier}"),
                ),
                None => self.check(
                    false,
                    format!("{gateway}: no tier row for consumer {consumer}"),
                ),
            },
            None => self.check(false, format!("no qos plane on gateway {gateway}")),
        }
    }

    /// Every queue drop in the run belongs to consumer `name` — the
    /// quarantine property: a misbehaving subscriber's losses stay its
    /// own.
    pub fn drops_only_for(self, name: &str) -> Self {
        let offenders: Vec<String> = self
            .report
            .consumers
            .iter()
            .filter(|c| c.name != name && c.dropped > 0)
            .map(|c| format!("{} dropped {}", c.name, c.dropped))
            .collect();
        self.check(
            offenders.is_empty(),
            format!("drops outside {name}: {}", offenders.join(", ")),
        )
    }

    /// Gateway `gateway` shed at least `n` deliveries to tier `tier`.
    pub fn shed_at_least(self, gateway: &str, tier: &str, n: u64) -> Self {
        match self.report.qos_for(gateway).and_then(|q| q.shed_for(tier)) {
            Some(got) => self.check(
                got >= n,
                format!("{gateway} shed {got} {tier}-tier events < expected {n}"),
            ),
            None => self.check(false, format!("no qos shed counter {gateway}/{tier}")),
        }
    }

    /// Gateway `gateway` shed nothing to tier `tier` — the degradation
    /// order: higher tiers survive while lower ones are cut.
    pub fn shed_none(self, gateway: &str, tier: &str) -> Self {
        match self.report.qos_for(gateway).and_then(|q| q.shed_for(tier)) {
            Some(got) => self.check(
                got == 0,
                format!("{gateway} shed {got} {tier}-tier events, expected none"),
            ),
            None => self.check(false, format!("no qos shed counter {gateway}/{tier}")),
        }
    }

    /// The monitoring plane's own self-lifeline stream lost nothing —
    /// under overload the plane must stay diagnosable.
    pub fn self_lifelines_lossless(self) -> Self {
        let got = self.report.self_dropped;
        self.check(got == 0, format!("self-lifeline stream dropped {got}"))
    }

    /// Consumer `name` received at least `n` protected summary
    /// (`*_AVG_*`) events.
    pub fn summaries_delivered_at_least(self, name: &str, n: u64) -> Self {
        match self.report.consumer(name) {
            Some(c) => {
                let got = c.delivered_summaries;
                self.check(
                    got >= n,
                    format!("consumer {name} got {got} summaries < expected {n}"),
                )
            }
            None => self.check(false, format!("no consumer named {name}")),
        }
    }

    /// Reader pool `name` was served entirely from its materialized view:
    /// it actually read something, every read was a snapshot, it saw
    /// events, and the archive-scan fallback counter stayed at zero.
    pub fn served_from_views(self, name: &str) -> Self {
        match self.report.reader_pool(name) {
            Some(r) => {
                let ok = r.reads > 0
                    && r.served_from_views == r.reads
                    && r.archive_scans == 0
                    && r.last_snapshot_len > 0;
                self.check(
                    ok,
                    format!(
                        "reader pool {name}: reads={} served_from_views={} \
                         archive_scans={} snapshot_len={} (wanted all reads from \
                         a non-empty view, zero scans)",
                        r.reads, r.served_from_views, r.archive_scans, r.last_snapshot_len
                    ),
                )
            }
            None => self.check(false, format!("no reader pool named {name}")),
        }
    }

    /// Per-reader snapshot throughput stays flat as the pool grows: pool
    /// `big` (more readers) achieves at least 90% of pool `small`'s
    /// reads-per-reader.  With per-reader rescans this would collapse
    /// with N; with snapshot reads it cannot.
    pub fn reader_rate_flat(self, small: &str, big: &str) -> Self {
        match (self.report.reader_pool(small), self.report.reader_pool(big)) {
            (Some(s), Some(b)) => {
                let (rs, rb) = (s.reads_per_reader(), b.reads_per_reader());
                let ok = rs > 0.0 && rb >= rs * 0.9;
                self.check(
                    ok,
                    format!(
                        "reader rate not flat: {small} {rs:.1} reads/reader vs \
                         {big} {rb:.1} (wanted >= 90%)"
                    ),
                )
            }
            (s, _) => {
                let missing = if s.is_none() { small } else { big };
                self.check(false, format!("no reader pool named {missing}"))
            }
        }
    }

    /// At least `n` sensor breakers revived (a probe succeeded after the
    /// breaker had opened).
    pub fn revived_at_least(self, n: usize) -> Self {
        let got = self.report.revivals.len();
        self.check(got >= n, format!("{got} breaker revivals < expected {n}"))
    }

    /// Every breaker revival happened within `secs` simulated seconds of
    /// the last timeline entry — the reconnect landed inside the backoff
    /// envelope (and there was at least one revival to speak of).
    pub fn revived_within(self, secs: u64) -> Self {
        let Some(last) = self.report.last_fault_us() else {
            return self.check(false, "revived_within on a faultless scenario".into());
        };
        if self.report.revivals.is_empty() {
            return self.check(false, "no breaker revivals at all".into());
        }
        let deadline = last + secs * 1_000_000;
        let late: Vec<String> = self
            .report
            .revivals
            .iter()
            .filter(|(at, _)| *at > deadline)
            .map(|(at, host)| format!("{host} at {}s", at / 1_000_000))
            .collect();
        self.check(
            late.is_empty(),
            format!(
                "revivals after the {}s backoff envelope: {}",
                secs,
                late.join(", ")
            ),
        )
    }

    /// How many assertions have been chained so far.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// All failures at once, or `Ok(checks_run)`.
    pub fn verify(self) -> Result<usize, Vec<String>> {
        if self.failures.is_empty() {
            Ok(self.checks)
        } else {
            Err(self.failures)
        }
    }

    /// Panic with every failed expectation (and the rendered report for
    /// context) if any assertion failed.
    pub fn assert_ok(self) {
        let rendered = self.report.render_text();
        if let Err(failures) = self.verify() {
            panic!(
                "scenario expectations failed:\n  - {}\n\nreport:\n{rendered}",
                failures.join("\n  - ")
            );
        }
    }
}
