//! The streaming workloads end to end: set the deployment up, drive it
//! through warm-up, a paced (open-loop) phase and a saturating (closed-loop)
//! phase, check every output, and turn what both bench threads saw into
//! metrics.  The traced variant swaps the saturating phase for a second,
//! self-monitored deployment and reports per layer.

use std::time::Instant;

use crate::drive::{self, ConsumerPhase, Driven, GenPhase, Phase, PhaseKind};
use crate::layers::{self, ratio};
use crate::metrics::Outcome;
use crate::stats::{self, Clock};
use crate::system::{System, Topology};
use crate::Config;

/// The paced phase must stay under the live-display limit at this rate.
const SLO_P99_US: f64 = 20_000.0;
/// The p99 is taken over windows of this many consecutive events — a second
/// at the paced rate, 125 samples beyond each window's p99.
const P99_WINDOW_SAMPLES: usize = crate::PACED_RATE as usize;

/// Set-up time: build the deployment, connect its subscribers and push the
/// first `Config::prime_events` events through to the final consumer.  Building alone
/// takes about a millisecond, too little to time steadily; a deployment is
/// up when it has absorbed its first events.  Done `times` times on
/// deployments of their own, reporting the median.
fn time_set_up(
    cfg: &Config,
    topology: Topology,
    times: usize,
    clock: Clock,
) -> Result<f64, String> {
    let prime = [Phase::prime(cfg.prime_events())];
    let mut secs = Vec::with_capacity(times);
    for _ in 0..times {
        let t0 = Instant::now();
        let sys = System::build(topology, false, None)?;
        let driven = drive::drive(sys, topology, &prime, cfg.rate(), cfg.seed, false, clock);
        secs.push(t0.elapsed().as_secs_f64());
        if driven.gen[0].delivered != driven.gen[0].offered {
            return Err("set-up: priming events were lost".into());
        }
    }
    Ok(stats::median(&secs))
}

/// Creation → final-consumer latency of every event of a paced phase, in
/// arrival order: both connections pooled, or the archive's FIFO-mapped
/// stamps, or — when an event must reach both — the later of the two.
fn latencies(topology: Topology, c: &ConsumerPhase) -> Vec<u32> {
    match (topology.clients > 0, topology.archiver) {
        (true, false) => c
            .conns
            .iter()
            .flat_map(|conn| conn.latency_ns.iter().copied())
            .collect(),
        (false, _) => c.archive_latency_ns.clone(),
        (true, true) => c.conns[0]
            .latency_ns
            .iter()
            .zip(&c.archive_latency_ns)
            .map(|(a, b)| *a.max(b))
            .collect(),
    }
}

/// Rate of each whole second of a saturate phase, events per second.
fn window_rates(c: &ConsumerPhase) -> Vec<f64> {
    c.marks
        .windows(2)
        .map(|w| ratio((w[1].1 - w[0].1) as f64, (w[1].0 - w[0].0) as f64 / 1e9))
        .collect()
}

/// Median rate over the whole seconds of a saturate phase, events per second.
fn saturated_rate(g: &GenPhase, c: &ConsumerPhase) -> f64 {
    let rates = window_rates(c);
    if rates.is_empty() {
        return ratio(g.delivered as f64, g.elapsed_s);
    }
    stats::median(&rates)
}

/// The per-phase output checks: nothing lost silently while paced, nothing
/// lost at all while saturating, and there every connection saw every event
/// once, in order.
fn check_phase(
    out: &mut Outcome,
    kind: PhaseKind,
    topology: Topology,
    g: &GenPhase,
    c: &ConsumerPhase,
) {
    let (c0, c1) = (&c.start, &c.end);
    let frames_lost = c1.socket_dropped_frames > c0.socket_dropped_frames;
    for (i, conn) in c.conns.iter().enumerate() {
        let counted = (c1.edge_sub_dropped - c0.edge_sub_dropped)
            + (c1.client_dropped[i] - c0.client_dropped[i]);
        // Events in a frame the socket dropped are not countable one by one.
        let accounted = conn.received + counted;
        out.check(
            if frames_lost {
                accounted <= g.offered
            } else {
                accounted == g.offered
            },
            || {
                format!(
                    "{kind:?}: connection {i} received {} + counted drops {counted} != offered {}",
                    conn.received, g.offered
                )
            },
        );
        if kind == PhaseKind::Saturate {
            out.check(conn.received == g.offered && conn.checksum == g.checksum, || {
                format!("Saturate: connection {i} did not see every offered event exactly once, in order ({} of {})", conn.received, g.offered)
            });
        }
    }
    if topology.archiver {
        let counted = c1.archiver_sub_dropped - c0.archiver_sub_dropped;
        out.check(c.archived + counted == g.offered, || {
            format!(
                "{kind:?}: archived {} + counted drops {counted} != offered {}",
                c.archived, g.offered
            )
        });
        if kind == PhaseKind::Saturate {
            out.check(c.archived == g.offered, || {
                format!("Saturate: archived {} of {} offered", c.archived, g.offered)
            });
        }
    }
    if topology.collector {
        out.check(c.collected <= g.offered, || {
            format!(
                "{kind:?}: collector saw {} of {} offered",
                c.collected, g.offered
            )
        });
    }
}

/// Whole-run checks, the measured phases' counts, and the metrics every
/// streaming run reports.  Returns the paced phase's CPU cost per event.
fn measure(
    out: &mut Outcome,
    cfg: &Config,
    topology: Topology,
    phases: &[Phase],
    driven: &Driven,
) -> f64 {
    let report = &driven.consumer;
    let mut cpu_us_per_event = 0.0;
    for (i, phase) in phases.iter().enumerate() {
        let (g, c) = (&driven.gen[i], &report.phases[i]);
        check_phase(out, phase.kind, topology, g, c);
        if phase.kind == PhaseKind::Warm {
            continue;
        }
        out.attempted += g.offered;
        out.failed += g.offered - g.delivered.min(g.offered);
        match phase.kind {
            PhaseKind::Saturate => {
                let rate = saturated_rate(g, c);
                out.set("e2e.delivered_kev_s", rate / 1e3);
                // Under load the cost of an event is the work done for it; at
                // the paced rate it is mostly threads being woken.
                out.set(
                    "cpu_us_per_event",
                    ratio((c.end.cpu_s - c.start.cpu_s) * 1e6, g.delivered as f64),
                );
                // Where an archive accumulates in memory, the peak at exit
                // grows with whatever this phase managed to store.
                if !topology.archiver {
                    out.set("peak_rss_mb", c.end.peak_rss_mb);
                }
                out.notes.push(format!(
                    "saturate: {} events in {:.2} s, delivered_kev_s {:.1} = the median of kev/s by whole second: {:.0?}",
                    g.delivered,
                    g.elapsed_s,
                    rate / 1e3,
                    window_rates(c).iter().map(|r| r / 1e3).collect::<Vec<_>>()
                ));
            }
            _ => {
                let all = latencies(topology, c);
                let mut windows = stats::index_windows(&all, P99_WINDOW_SAMPLES);
                let (p99, n_windows) = stats::windowed_p99(&mut windows, P99_WINDOW_SAMPLES);
                out.notes.push(format!(
                    "paced: p50/p99 us by window: {:?}",
                    windows
                        .iter()
                        .map(|w| {
                            format!(
                                "{:.0}/{:.0}",
                                stats::percentile(w, 0.5) / 1e3,
                                stats::percentile(w, 0.99) / 1e3
                            )
                        })
                        .collect::<Vec<_>>()
                ));
                let mut sorted = all;
                sorted.sort_unstable();
                out.set("e2e.latency_p50_us", stats::percentile(&sorted, 0.5) / 1e3);
                out.set("e2e.latency_p99_us", p99 / 1e3);
                out.set("peak_rss_mb", c.end.peak_rss_mb);
                out.set(
                    "e2e.latency_p999_us",
                    stats::percentile(&sorted, 0.999) / 1e3,
                );
                cpu_us_per_event = ratio((c.end.cpu_s - c.start.cpu_s) * 1e6, g.delivered as f64);
                out.set("e2e.paced_cpu_us_per_event", cpu_us_per_event);
                let lost = g.offered - g.delivered.min(g.offered);
                let slo = p99 / 1e3 <= SLO_P99_US && lost == 0;
                out.set("e2e.slo_met", f64::from(u8::from(slo)));
                out.notes.push(format!(
                    "paced: {} ev/s for {:.2} s, {} latency samples, p99 is the median of {n_windows} windows of {P99_WINDOW_SAMPLES} events (0 = pooled), held back by the in-flight window {} times, lost {lost}, slo_met {slo} (p99 <= {SLO_P99_US} us, nothing lost)",
                    cfg.rate(), phase.secs, sorted.len(), g.held_back
                ));
                if c.archive_fifo_broken {
                    out.notes
                        .push("paced: a drop ended FIFO-mapped latency sampling early".into());
                }
            }
        }
    }

    out.check(report.samples_bad == 0, || {
        format!(
            "{} of {} sampled events differ from what the sensor emitted",
            report.samples_bad, report.samples_checked
        )
    });
    if topology.clients > 0 && driven.offered_total > 100_000 {
        out.check(report.samples_checked > 0, || {
            "no event was compared field for field".into()
        });
    }
    let last = &report.phases[phases.len() - 1].end;
    out.check(last.client_decode_errors == 0, || {
        format!("{} frames failed to decode", last.client_decode_errors)
    });
    for local in &report.sys.locals {
        let expected = drive::expected_local(&driven.tally, local.expect);
        let dropped = local.sub.dropped();
        out.failed += dropped;
        out.check(local.received + dropped == expected, || {
            format!(
                "local {}: received {} + dropped {dropped} != matching {expected}",
                local.query, local.received
            )
        });
    }
    if topology.view {
        out.failed += report.view_bad;
        out.check(report.view_reads > 0 && report.view_bad == 0, || {
            format!(
                "{} of {} dashboard reads were not served from the view",
                report.view_bad, report.view_reads
            )
        });
    }
    out.check(report.maintenance_errors.is_empty(), || {
        format!(
            "archive maintenance: {}",
            report.maintenance_errors.join("; ")
        )
    });
    out.set(
        "e2e.failed_pct",
        100.0 * ratio(out.failed as f64, out.attempted as f64),
    );
    cpu_us_per_event
}

/// The durable path's closing checks: the archive holds every event that was
/// not dropped on its queue, still does after a restart, and a fixed range
/// scan over the restarted archive returns the generator's count.
fn check_archive(out: &mut Outcome, phases: &[Phase], driven: Driven) -> Result<(), String> {
    let Driven {
        gen,
        consumer,
        offered_total,
        ..
    } = driven;
    let mut sys = consumer.sys;
    let Some(dir) = sys.dir.take() else {
        return Ok(());
    };
    let last = &consumer.phases[phases.len() - 1].end;
    let kept = offered_total - last.archiver_sub_dropped;
    let len = sys.jamm.archive.len() as u64;
    out.check(len == kept, || {
        format!("archive holds {len}, offered minus queue drops is {kept}")
    });
    let final_pass = sys
        .jamm
        .archive_maintenance(jamm::jamm_ulm::Timestamp::now());
    out.check(final_pass.errors.is_empty(), || {
        final_pass.errors.join("; ")
    });
    out.set(
        "tsdb.disk_bytes_per_event",
        ratio(stats::dir_bytes(dir.path(), None) as f64, len as f64),
    );
    drop(sys);

    // The last phase offered stamps in [first, last]; nothing may drop there
    // in a saturating phase, so the scan must return exactly what was offered.
    let (g, c) = (&gen[phases.len() - 1], &consumer.phases[phases.len() - 1]);
    let again = drive::reopen_archive(dir.path(), g.first_stamp_us, g.last_stamp_us + 1)?;
    out.check(again.len as u64 == len, || {
        format!("restarted archive holds {}, had {len}", again.len)
    });
    out.check(again.rows as u64 == c.archived, || {
        format!(
            "range scan over the last phase returned {}, the archiver stored {}",
            again.rows, c.archived
        )
    });
    out.set("tsdb.reopen_ms", again.reopen_s * 1e3);
    out.set("tsdb.wal_recovered_events", again.wal_recovered as f64);
    out.notes
        .push("archive: default TsdbOptions, sync_wal = false (page-cache writes)".to_string());
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let topology = drive::topology(&cfg.workload).ok_or("not a streaming workload")?;
    let clock = Clock::start();
    let mut out = Outcome::default();
    let warm = Phase::timed(PhaseKind::Warm, cfg.warm_s());
    if !cfg.traced {
        out.set("setup_s", time_set_up(cfg, topology, cfg.setups(), clock)?);
        let sys = System::build(topology, false, None)?;
        let phases = [
            warm,
            Phase::timed(PhaseKind::Paced, cfg.seconds / 2.0),
            Phase::timed(PhaseKind::Saturate, cfg.seconds / 2.0),
        ];
        let driven = drive::drive(sys, topology, &phases, cfg.rate(), cfg.seed, false, clock);
        measure(&mut out, cfg, topology, &phases, &driven);
        check_archive(&mut out, &phases, driven)?;
        return Ok(out);
    }

    // Tracing overhead is the paced phase's CPU cost with the system's
    // self-monitor and the bench's spans on, against the same phase with
    // both off, in one process.
    let sys = System::build(topology, false, None)?;
    let phases = [
        warm,
        Phase::timed(PhaseKind::Paced, cfg.seconds / 4.0),
        Phase::timed(PhaseKind::Saturate, cfg.seconds / 4.0),
    ];
    let plain = drive::drive(sys, topology, &phases, cfg.rate(), cfg.seed, false, clock);
    let mut plain_out = Outcome::default();
    let plain_cpu = measure(&mut plain_out, cfg, topology, &phases, &plain);
    drop(plain);
    // Throughput is reported from the deployment that is not being traced.
    out.wrong.append(&mut plain_out.wrong);
    out.set("e2e.delivered_kev_s", plain_out.get("e2e.delivered_kev_s"));

    let sys = System::build(topology, true, None)?;
    let phases = [warm, Phase::timed(PhaseKind::Paced, cfg.seconds / 2.0)];
    crate::COUNT_ALLOCS.store(true, std::sync::atomic::Ordering::Relaxed);
    let driven = drive::drive(sys, topology, &phases, cfg.rate(), cfg.seed, true, clock);
    crate::COUNT_ALLOCS.store(false, std::sync::atomic::Ordering::Relaxed);
    let traced_cpu = measure(&mut out, cfg, topology, &phases, &driven);
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_cpu - plain_cpu, plain_cpu),
    );
    out.notes.push(format!(
        "tracing: {plain_cpu:.3} us CPU per event untraced, {traced_cpu:.3} traced"
    ));
    layers::report(&mut out, topology, &driven, 1, cfg.seed);
    let path = crate::system::scratch_root().join(format!("{}.spans.jsonl", cfg.workload));
    crate::spans::write_jsonl(
        &path,
        &[
            ("generator".to_string(), driven.tally.spans.spans()),
            ("consumer".to_string(), driven.consumer.spans.spans()),
        ],
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    check_archive(&mut out, &phases, driven)?;
    Ok(out)
}
