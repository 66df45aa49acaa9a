//! Property tests: under random interleavings of inserts, seals,
//! compactions and retention cuts, the engine's query results must be
//! byte-identical to a naive in-memory model — and for persistent stores,
//! must survive an abrupt kill (drop without shutdown) and reopen.

use std::sync::Arc;

use jamm_core::check::{forall, Gen};
use jamm_core::query::{Plan, Predicate};
use jamm_tsdb::test_util::TempDir;
use jamm_tsdb::{StoreCatalog, Tsdb, TsdbOptions};
use jamm_ulm::{Event, Level, SharedEvent, Timestamp, Value};

const HOSTS: [&str; 3] = ["dpss1.lbl.gov", "mems.cairn.net", "portnoy.lbl.gov"];
const TYPES: [&str; 3] = ["CPU_TOTAL", "TCPD_RETRANSMITS", "MEM_FREE"];

/// The classic range-query shape (half-open time range, optional host /
/// event-type restriction) the oracle matches by hand and the engine
/// answers through the [`Predicate`] it lowers to.
#[derive(Debug, Clone, Default)]
struct Query {
    from: Option<Timestamp>,
    to: Option<Timestamp>,
    host: Option<String>,
    event_type: Option<String>,
}

impl Query {
    fn plan(&self) -> Plan {
        let mut parts = Vec::new();
        if self.from.is_some() || self.to.is_some() {
            parts.push(Predicate::TimeRange {
                from_micros: self.from.map(|t| t.as_micros()),
                to_micros: self.to.map(|t| t.as_micros()),
            });
        }
        parts.extend(self.host.iter().map(|h| Predicate::hosts([h.as_str()])));
        parts.extend(
            self.event_type
                .iter()
                .map(|t| Predicate::types([t.as_str()])),
        );
        Predicate::And(parts).compile()
    }
}

/// The naive reference: a growing list of `(insertion sequence, event)`.
#[derive(Default)]
struct Model {
    events: Vec<(u64, Event)>,
    next_seq: u64,
}

impl Model {
    fn insert(&mut self, event: Event) {
        self.next_seq += 1;
        self.events.push((self.next_seq, event));
    }

    fn retain(&mut self, cutoff: Timestamp) {
        self.events.retain(|(_, e)| e.timestamp >= cutoff);
    }

    /// The store catalog recounted row by row — what `Tsdb::catalog` did
    /// before it folded segment catalogs by reference.
    fn catalog(&self) -> StoreCatalog {
        let mut c = StoreCatalog::default();
        for (_, e) in &self.events {
            c.event_count += 1;
            c.earliest = Some(c.earliest.map_or(e.timestamp, |t| t.min(e.timestamp)));
            c.latest = Some(c.latest.map_or(e.timestamp, |t| t.max(e.timestamp)));
            *c.hosts.entry(e.host.clone()).or_insert(0) += 1;
            *c.event_types.entry(e.event_type.clone()).or_insert(0) += 1;
        }
        c
    }

    fn query(&self, q: &Query) -> Vec<Event> {
        let mut hits: Vec<(u64, Event)> = self
            .events
            .iter()
            .filter(|(_, e)| naive_matches(q, e))
            .cloned()
            .collect();
        hits.sort_by_key(|(seq, e)| (e.timestamp, *seq));
        hits.into_iter().map(|(_, e)| e).collect()
    }
}

/// The naive matcher the engine's plan-driven scan must agree with: the
/// independent oracle, sharing no code with the query plane.
fn naive_matches(q: &Query, event: &Event) -> bool {
    if let Some(from) = q.from {
        if event.timestamp < from {
            return false;
        }
    }
    if let Some(to) = q.to {
        if event.timestamp >= to {
            return false;
        }
    }
    if let Some(host) = &q.host {
        if &event.host != host {
            return false;
        }
    }
    if let Some(ty) = &q.event_type {
        if &event.event_type != ty {
            return false;
        }
    }
    true
}

fn random_event(g: &mut Gen) -> Event {
    let t = Timestamp::from_micros(g.u64(120) * 500_000); // 0..60s, 0.5s grid
    let mut b = Event::builder("sensor", g.choice(&HOSTS))
        .level(if g.bool(0.1) {
            Level::Warning
        } else {
            Level::Usage
        })
        .event_type(g.choice(&TYPES))
        .timestamp(t)
        .value(g.f64_in(0.0, 100.0));
    if g.bool(0.3) {
        b = b.field("NOTE", Value::Str(g.printable_string(12).into()));
    }
    if g.bool(0.3) {
        b = b.field("DELTA", g.any_i64() % 1_000);
    }
    b.build()
}

fn random_query(g: &mut Gen) -> Query {
    let mut q = Query::default();
    if g.bool(0.7) {
        let from = g.u64(120) * 500_000;
        q.from = Some(Timestamp::from_micros(from));
        q.to = Some(Timestamp::from_micros(from + g.u64(60_000_000)));
    }
    if g.bool(0.4) {
        q.host = Some(g.choice(&HOSTS).to_string());
    }
    if g.bool(0.4) {
        q.event_type = Some(g.choice(&TYPES).to_string());
    }
    q
}

/// Drive one random schedule of operations against both the engine and the
/// model, checking equivalence after every few steps.
fn drive(g: &mut Gen, db: &Tsdb, model: &mut Model) {
    let steps = g.usize_in(20, 120);
    for _ in 0..steps {
        match g.u64(100) {
            // Mostly inserts, batched or single.
            0..=69 => {
                if g.bool(0.5) {
                    let n = g.usize_in(1, 8);
                    let batch: Vec<SharedEvent> =
                        (0..n).map(|_| Arc::new(random_event(g))).collect();
                    for e in &batch {
                        model.insert((**e).clone());
                    }
                    db.append_shared_batch(&batch).unwrap();
                } else {
                    let e = random_event(g);
                    model.insert(e.clone());
                    db.append(e).unwrap();
                }
            }
            70..=79 => {
                db.seal().unwrap();
            }
            80..=89 => {
                db.compact().unwrap();
            }
            _ => {
                let cutoff = Timestamp::from_micros(g.u64(120) * 500_000);
                model.retain(cutoff);
                db.retain(cutoff).unwrap();
            }
        }
    }
    assert_eq!(db.len(), model.events.len(), "store/model cardinality");
    for _ in 0..4 {
        let q = random_query(g);
        let got: Vec<Event> = db.scan(&q.plan()).collect();
        let want = model.query(&q);
        assert_eq!(got, want, "scan mismatch for {q:?}");
    }
    assert_eq!(db.catalog(), model.catalog(), "catalog over every tier");
}

#[test]
fn in_memory_store_matches_naive_model() {
    forall("tsdb ≡ model (in-memory)", 40, |g| {
        // Small memtable so schedules cross the seal boundary constantly.
        let db = Tsdb::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(2, 16),
            small_segment_events: g.usize_in(2, 32),
            sync_wal: false,
        });
        let mut model = Model::default();
        drive(g, &db, &mut model);
    });
}

#[test]
fn persistent_store_matches_model_and_survives_kill() {
    forall("tsdb ≡ model (persistent, kill + recover)", 12, |g| {
        let dir = TempDir::new("prop-kill-recover");
        let opts = TsdbOptions {
            memtable_max_events: g.usize_in(2, 16),
            small_segment_events: g.usize_in(2, 32),
            sync_wal: false,
        };
        let mut model = Model::default();
        {
            let db = Tsdb::open_with(dir.path(), opts.clone()).unwrap();
            drive(g, &db, &mut model);
            // Kill: drop without seal/flush — unsealed events exist only in
            // the WAL now.
        }
        let db = Tsdb::open_with(dir.path(), opts).unwrap();
        assert_eq!(db.len(), model.events.len(), "recovery cardinality");
        let everything = Query::default();
        let got: Vec<Event> = db.scan(&everything.plan()).collect();
        assert_eq!(got, model.query(&everything), "recovery contents");
        // The reopened store keeps working: another schedule on top.
        drive(g, &db, &mut model);
    });
}

/// What a scan of `plan` must yield: the appended events sorted by
/// `(timestamp, append order)`, filtered row by row through a fresh clone
/// of the plan (so a stateful plan's memory sees the whole admissible
/// stream in that order), cut at the plan's limit.
fn sort_then_filter(appended: &[Event], plan: &Plan) -> Vec<Event> {
    let plan = plan.clone();
    let mut sorted: Vec<(usize, &Event)> = appended.iter().enumerate().collect();
    sorted.sort_by_key(|(seq, e)| (e.timestamp, *seq));
    sorted
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| plan.facts().admits(*e) && plan.eval(*e))
        .take(plan.limit().unwrap_or(usize::MAX))
        .cloned()
        .collect()
}

#[test]
fn overlapping_segments_merge_in_timestamp_then_sequence_order() {
    forall("merge order ≡ sort-then-filter", 80, |g| {
        // Seals happen only where the schedule says, so segment boundaries
        // fall anywhere in the arrival order.
        let db = Tsdb::in_memory_with(TsdbOptions {
            memtable_max_events: usize::MAX,
            small_segment_events: g.usize_in(2, 16),
            sync_wal: false,
        });
        let mut appended = Vec::new();
        for _ in 0..g.usize_in(3, 12) {
            for _ in 0..g.usize_in(1, 24) {
                // A twelve-second grid with arrivals in any order: every
                // segment overlaps the others, and most stamps repeat — in
                // one segment, across segments and in the memtable — so
                // only the sequence number orders them.
                let mut b = Event::builder("sensor", g.choice(&HOSTS[..2]))
                    .event_type(g.choice(&TYPES[..2]))
                    .timestamp(Timestamp::from_secs(g.u64(12)))
                    .value(g.u64(3) as f64);
                if g.bool(0.3) {
                    b = b.field("NOTE", Value::Str(g.printable_string(4).into()));
                }
                let e = b.build();
                appended.push(e.clone());
                db.append(e).unwrap();
            }
            match g.u64(4) {
                // Stays hot: the next round's arrivals join it.
                0 => {}
                // A compacted run beside the fresh segments that follow.
                1 => {
                    db.seal().unwrap();
                    db.compact().unwrap();
                }
                _ => {
                    db.seal().unwrap();
                }
            }
        }
        let limit = g.usize_in(0, 12);
        for text in [
            "(type=CPU_TOTAL)".to_string(),
            "(&(host=dpss1.lbl.gov)(val>0))".to_string(),
            "(&(time>=3s)(time<8s))".to_string(),
            "(NOTE=*)".to_string(),
            format!("(limit={limit})"),
            format!("(&(type=TCPD_RETRANSMITS)(limit={limit}))"),
            "(onchange)".to_string(),
            "(&(type=CPU_TOTAL)(onchange))".to_string(),
            format!("(&(onchange)(time>=2s)(limit={limit}))"),
        ] {
            let plan = Predicate::parse(&text).unwrap().compile();
            let got: Vec<Event> = db.scan(&plan).collect();
            assert_eq!(got, sort_then_filter(&appended, &plan), "{text}");
        }
    });
}
