//! Integration test of the archive storage engine behind a full JAMM
//! deployment: a populated archive survives process restart, range queries
//! provably prune non-overlapping segments, and an archived MATISSE-style
//! run replays through a gateway into nlv analysis.

use jamm::jamm_core::query::{Plan, Predicate};
use jamm::jamm_tsdb::test_util::TempDir;
use jamm::jamm_tsdb::Tsdb;
use jamm::JammBuilder;
use jamm_netlogger::nlv;
use jamm_ulm::{Event, Level, SharedEvent, Timestamp};

/// Half-open `[from, to)` time range.
fn between(from: Timestamp, to: Timestamp) -> Plan {
    Predicate::between_micros(from.as_micros(), to.as_micros()).compile()
}

fn dpss_event(host: &str, ty: &str, t_micros: u64, frame: u64) -> Event {
    Event::builder("dpss_block_server", host)
        .level(Level::Usage)
        .event_type(ty)
        .timestamp(Timestamp::from_micros(t_micros))
        .object_id(format!("frame-{frame}"))
        .value(frame as f64)
        .build()
}

/// The paper's §2.2 archive claim, end to end: events flow gateway →
/// archiver → archive, the process "dies" (system dropped without any
/// flush), and a new process over the same directory sees the full
/// history.
#[test]
fn populated_archive_survives_process_restart() {
    let dir = TempDir::new("integration-restart");
    {
        let mut jamm = JammBuilder::new()
            .gateway("gw.lbl.gov:8765")
            .archiver("archiver", "archive=main,o=lbl,o=grid")
            .archive_dir(dir.path())
            .build()
            .unwrap();
        jamm.connect_archiver(vec![]);
        for t in 0..500u64 {
            jamm.publish(
                "gw.lbl.gov:8765",
                &dpss_event("dpss1.lbl.gov", "DPSS_SERV_IN", t * 1_000, t),
            );
        }
        jamm.poll();
        // Seal part of the history into a segment; the tail stays in the
        // WAL only.  No graceful shutdown follows.
        jamm.archive.seal().unwrap();
        for t in 500..600u64 {
            jamm.publish(
                "gw.lbl.gov:8765",
                &dpss_event("dpss1.lbl.gov", "DPSS_SERV_IN", t * 1_000, t),
            );
        }
        jamm.poll();
        assert_eq!(jamm.archive.len(), 600);
    }

    // "Restart": a fresh system over the same store directory.
    let jamm = JammBuilder::new()
        .gateway("gw.lbl.gov:8765")
        .archiver("archiver", "archive=main,o=lbl,o=grid")
        .archive_dir(dir.path())
        .build()
        .unwrap();
    assert_eq!(jamm.archive.len(), 600, "history survived the restart");
    assert_eq!(
        jamm.archive.stats().wal_recovered_events(),
        100,
        "the unsealed tail came back through WAL replay"
    );
    let r = jamm.archive.scan(&between(
        Timestamp::from_micros(100_000),
        Timestamp::from_micros(200_000),
    ));
    assert_eq!(r.count(), 100);
}

/// Range scans over a multi-segment store must skip segments whose catalog
/// cannot match — asserted through the engine's pruning counters.
#[test]
fn range_queries_prune_non_overlapping_segments() {
    let dir = TempDir::new("integration-pruning");
    let mut jamm = JammBuilder::new()
        .gateway("gw1")
        .archiver("archiver", "archive=main,o=grid")
        .archive_dir(dir.path())
        .build()
        .unwrap();
    jamm.connect_archiver(vec![]);
    // Four disjoint one-hour windows, sealed into four segments.
    for window in 0..4u64 {
        for t in 0..60 {
            jamm.publish(
                "gw1",
                &dpss_event(
                    "dpss1.lbl.gov",
                    "DPSS_SERV_IN",
                    (window * 3_600 + t) * 1_000_000,
                    t,
                ),
            );
        }
        jamm.poll();
        jamm.archive.seal().unwrap();
    }
    assert_eq!(jamm.archive.segment_count(), 4);

    let scanned_before = jamm.archive.stats().segments_scanned();
    let pruned_before = jamm.archive.stats().segments_pruned();
    // A query inside window 2 touches exactly one segment.
    let r = jamm.archive.scan(&between(
        Timestamp::from_secs(2 * 3_600),
        Timestamp::from_secs(2 * 3_600 + 60),
    ));
    assert_eq!(r.count(), 60);
    assert_eq!(
        jamm.archive.stats().segments_scanned() - scanned_before,
        1,
        "only the overlapping segment was read"
    );
    assert_eq!(
        jamm.archive.stats().segments_pruned() - pruned_before,
        3,
        "the three non-overlapping segments were pruned via catalogs"
    );

    // Host pruning works the same way: no segment contains this host.
    let pruned_before = jamm.archive.stats().segments_pruned();
    let nowhere = Predicate::hosts(["unknown.example.org"]).compile();
    assert_eq!(jamm.archive.scan(&nowhere).count(), 0);
    assert_eq!(jamm.archive.stats().segments_pruned() - pruned_before, 4);
}

/// A selective query (host + severity floor + time floor) over a
/// many-segment archive: every segment is either scanned or pruned, the
/// severity floor and the series (host) facts each prune on their own, and
/// pruning loses no event a row-by-row filter finds.
#[test]
fn selective_queries_prune_by_level_and_series_and_still_find_their_events() {
    const HOSTS: [&str; 2] = ["dpss1.lbl.gov", "dpss2.lbl.gov"];
    let archive = Tsdb::in_memory();
    let mut stored = Vec::new();
    // Eight sealed segments of 50 events; one host per segment, and a single
    // Warning in segments 2 and 5 among Usage-level readings.
    for seg in 0..8u64 {
        let batch: Vec<SharedEvent> = (0..50u64)
            .map(|i| {
                let warn = (seg == 2 || seg == 5) && i == 25;
                let mut e = dpss_event(
                    HOSTS[(seg % 2) as usize],
                    "DPSS_SERV_IN",
                    (seg * 50 + i) * 1_000,
                    i,
                );
                e.level = if warn { Level::Warning } else { Level::Usage };
                SharedEvent::new(e)
            })
            .collect();
        archive.append_shared_batch(&batch).unwrap();
        archive.seal().unwrap();
        stored.extend(batch);
    }
    let segments = archive.segment_count() as u64;
    assert_eq!(segments, 8);

    // Scan `query`, returning (hits, segments scanned, segments pruned); the
    // hits must be what filtering every stored event row by row finds.
    let scan = |query: &str| {
        let (s0, p0) = (
            archive.stats().segments_scanned(),
            archive.stats().segments_pruned(),
        );
        let hits = archive.scan_str(query).unwrap().count();
        let plan = Predicate::parse(query).unwrap().compile();
        let expected = stored.iter().filter(|e| plan.eval(&***e)).count();
        assert_eq!(hits, expected, "{query}: pruning lost or invented events");
        let scanned = archive.stats().segments_scanned() - s0;
        let pruned = archive.stats().segments_pruned() - p0;
        assert_eq!(
            scanned + pruned,
            segments,
            "{query}: every segment accounted for"
        );
        (hits, scanned, pruned)
    };
    assert_eq!(scan("(level>=warning)"), (2, 2, 6), "the level tier prunes");
    assert_eq!(
        scan("(level>=error)"),
        (0, 0, 8),
        "a floor above everything stored"
    );
    assert_eq!(
        scan("(host=dpss2.lbl.gov)"),
        (200, 4, 4),
        "the series tier prunes"
    );
    // Segment 2 (dpss1, has a Warning) starts at t=100_000; segment 5's
    // Warning is on dpss2.
    let (hits, scanned, pruned) = scan("(&(host=dpss1.lbl.gov)(level>=warning)(time>=100000))");
    assert_eq!((hits, scanned, pruned), (1, 1, 7));
}

/// Historical query mode: an archived MATISSE-style run is replayed through
/// a gateway to a late-subscribing collector, and the merged log drives the
/// same nlv primitives that would have watched it live.
#[test]
fn archived_run_replays_through_gateway_into_nlv_analysis() {
    let mut jamm = JammBuilder::new()
        .gateway("gw.lbl.gov:8765")
        .collector("nlv-analyst")
        .archiver("archiver", "archive=matisse,o=lbl,o=grid")
        .build()
        .unwrap();
    jamm.connect_archiver(vec![]);

    // A MATISSE-style run: per-frame lifeline events through the DPSS
    // stages, 50 frames, 10ms apart, plus a burst of retransmits.
    let stages = ["DPSS_SERV_IN", "DPSS_START_READ", "DPSS_END_READ"];
    for frame in 0..50u64 {
        for (i, stage) in stages.iter().enumerate() {
            jamm.publish(
                "gw.lbl.gov:8765",
                &dpss_event(
                    "dpss1.lbl.gov",
                    stage,
                    1_000_000 + frame * 10_000 + i as u64 * 2_000,
                    frame,
                ),
            );
        }
    }
    jamm.poll();
    assert_eq!(jamm.archive.len(), 150);
    let full: Vec<Event> = jamm.archive.scan(&Predicate::True.compile()).collect();

    // The analyst subscribes *after* the run ended (with a filter: only
    // the read stages), then the archived range is replayed through the
    // gateway.
    assert_eq!(
        jamm.connect_collectors(vec![Predicate::types(["DPSS_START_READ"])]),
        1
    );
    let replayed = jamm.replay_through(
        "gw.lbl.gov:8765",
        &between(
            Timestamp::from_micros(1_000_000),
            Timestamp::from_micros(1_000_000 + 25 * 10_000),
        ),
    );
    assert_eq!(replayed, 75, "25 frames x 3 stages entered the gateway");
    jamm.poll();

    // Subscription filters applied to the replayed stream as if live.
    let events: Vec<Event> = jamm.collectors[0]
        .events()
        .iter()
        .map(|e| (**e).clone())
        .collect();
    assert_eq!(events.len(), 25);

    // And the replayed log drives nlv analysis.
    let series = nlv::points(&events, Some("dpss1.lbl.gov"), "DPSS_START_READ");
    assert_eq!(series.points.len(), 25);
    let lifelines = nlv::lifelines(&full, &stages);
    assert_eq!(lifelines.len(), 50, "one lifeline per archived frame");
    assert!(lifelines.iter().all(|l| l.points.len() == 3));

    // The archiver was still subscribed, so the replayed slice was
    // re-archived too — "the archive is just another consumer".
    assert_eq!(jamm.archive.len(), 150 + 75);
}
