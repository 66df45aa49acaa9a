//! Property tests for the unified query plane: the one compiled
//! [`jamm_core::query::Plan`] evaluator must be behaviorally identical to
//! the three matchers it replaced — the gateway's stateful filter
//! conjunction, the storage engine's host/type/range matcher, and the
//! directory's recursive `Filter::matches` — a constructor-built
//! [`Predicate`] must be indistinguishable from its own text form, and
//! catalog pruning must never drop a matching event (a pruned scan equals
//! a scan with pruning defeated).

use jamm::jamm_archive::EventArchive;
use jamm::jamm_core::check::{forall, Gen};
use jamm::jamm_core::query::{Predicate, ValueCmp};
use jamm::jamm_directory::{Dn, Entry, Filter};
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm::jamm_tsdb::TsdbOptions;
use jamm_ulm::{Event, Level, SharedEvent, Timestamp, Value};
use std::collections::HashMap;

const HOSTS: [&str; 4] = ["dpss1.lbl.gov", "mems.cairn.net", "portnoy.lbl.gov", "h4"];
const TYPES: [&str; 4] = ["CPU_TOTAL", "TCPD_RETRANSMITS", "MEM_FREE", "PROC_DIED"];
const LEVELS: [Level; 4] = [Level::Usage, Level::Info, Level::Warning, Level::Error];

fn random_event(g: &mut Gen) -> Event {
    let mut b = Event::builder("sensor", g.choice(&HOSTS))
        .level(g.choice(&LEVELS))
        .event_type(g.choice(&TYPES))
        .timestamp(Timestamp::from_micros(g.u64(60) * 500_000));
    if g.bool(0.8) {
        // A small value domain makes repeats (on-change suppression) and
        // threshold crossings common.
        b = b.value((g.u64(8) as f64) * 10.0);
    }
    b.build()
}

fn store(archive: &EventArchive, event: Event) {
    archive.store(&[SharedEvent::new(event)]).unwrap();
}

/// One constructor-built subscription leaf — the shapes the paper's §2.2
/// consumers ask for.
fn random_filter(g: &mut Gen) -> Predicate {
    match g.u64(9) {
        0 => Predicate::True,
        1 => {
            let n = g.usize_in(0, 3);
            Predicate::types((0..n).map(|_| g.choice(&TYPES)))
        }
        2 => {
            let n = g.usize_in(1, 3);
            Predicate::hosts((0..n).map(|_| g.choice(&HOSTS)))
        }
        3 => Predicate::MinLevel(g.choice(&LEVELS).severity()),
        4 => Predicate::OnChange,
        5 => Predicate::val(ValueCmp::Gt, g.u64(8) as f64 * 10.0),
        6 => Predicate::val(ValueCmp::Lt, g.u64(8) as f64 * 10.0),
        7 => Predicate::Crosses(g.u64(8) as f64 * 10.0 + 5.0),
        _ => Predicate::RelativeChange(g.f64_in(0.05, 0.9)),
    }
}

/// The pre-query-plane filter-chain matcher, verbatim: a conjunction over
/// a `(host, type)`-keyed previous-reading memory, updated after every
/// event that carries a value (pass or fail) when any filter is stateful.
/// It reads the leaves [`random_filter`] draws and shares no code with
/// `Plan`.
struct LegacyChain {
    filters: Vec<Predicate>,
    last_value: HashMap<(String, String), f64>,
}

impl LegacyChain {
    fn new(filters: Vec<Predicate>) -> Self {
        LegacyChain {
            filters,
            last_value: HashMap::new(),
        }
    }

    fn accept(&mut self, event: &Event) -> bool {
        let key = (event.host.clone(), event.event_type.clone());
        let value = event.value();
        let prev = self.last_value.get(&key).copied();
        let mut pass = true;
        for f in &self.filters {
            let ok = match f {
                Predicate::True => true,
                Predicate::EventTypes(types) => types.contains(&event.event_type),
                Predicate::Hosts(hosts) => hosts.contains(&event.host),
                Predicate::MinLevel(min) => event.level.severity() >= *min,
                Predicate::OnChange => match (value, prev) {
                    (Some(v), Some(p)) => v != p,
                    (Some(_), None) => true,
                    (None, _) => true,
                },
                Predicate::Value(ValueCmp::Gt, t) => value.is_some_and(|v| v > *t),
                Predicate::Value(ValueCmp::Lt, t) => value.is_some_and(|v| v < *t),
                Predicate::Crosses(t) => match (value, prev) {
                    (Some(v), Some(p)) => (p <= *t && v > *t) || (p >= *t && v < *t),
                    (Some(v), None) => v > *t,
                    (None, _) => false,
                },
                Predicate::RelativeChange(frac) => match (value, prev) {
                    (Some(v), Some(p)) if p.abs() > f64::EPSILON => ((v - p) / p).abs() > *frac,
                    (Some(_), _) => true,
                    (None, _) => false,
                },
                other => unreachable!("random_filter never draws {other:?}"),
            };
            if !ok {
                pass = false;
                break;
            }
        }
        if let Some(v) = value {
            let stateful = self.filters.iter().any(|f| {
                matches!(
                    f,
                    Predicate::OnChange | Predicate::Crosses(_) | Predicate::RelativeChange(_)
                )
            });
            if stateful {
                self.last_value.insert(key, v);
            }
        }
        pass
    }
}

/// The compiled plan a subscription holds accepts exactly the events the
/// legacy stateful matcher accepted, over long random streams.
#[test]
fn plan_eval_matches_legacy_filter_chain() {
    forall("plan ≡ legacy filter chain", 96, |g| {
        let filters: Vec<Predicate> = (0..g.usize_in(0, 4)).map(|_| random_filter(g)).collect();
        let plan = Predicate::And(filters.clone()).compile();
        let mut legacy = LegacyChain::new(filters.clone());
        for _ in 0..g.usize_in(10, 60) {
            let e = random_event(g);
            assert_eq!(
                plan.eval(&e),
                legacy.accept(&e),
                "filters {filters:?} disagree on {e:?}"
            );
        }
    });
}

/// A constructor-built predicate and the parse of its own `Display` text
/// are the same question: the same subscription deliveries at a gateway
/// and the same scan results from an archive.
#[test]
fn constructor_built_predicates_equal_their_text_form() {
    forall("constructors ≡ parse(to_string)", 64, |g| {
        let built = Predicate::And((0..g.usize_in(0, 4)).map(|_| random_filter(g)).collect());
        let text = built.to_string();
        let parsed = Predicate::parse(&text)
            .unwrap_or_else(|e| panic!("display text {text:?} must parse: {e}"));
        assert_eq!(
            parsed.compile().routed_types(),
            built.compile().routed_types(),
            "{text} routes differently"
        );

        let gw = EventGateway::new(GatewayConfig::open("gw"));
        let by_constructor = gw.subscribe().filter(built.clone()).open().unwrap();
        let by_text = gw.subscribe().matching(&text).open().unwrap();
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(4, 12),
            small_segment_events: 8,
            sync_wal: false,
        });
        for _ in 0..g.usize_in(10, 80) {
            let e = random_event(g);
            gw.publish(&e);
            store(&archive, e);
        }
        let delivered = |sub: &jamm::jamm_gateway::Subscription| -> Vec<SharedEvent> {
            sub.events.try_iter().collect()
        };
        assert_eq!(
            delivered(&by_constructor),
            delivered(&by_text),
            "{text} delivers differently"
        );
        let scanned: Vec<Event> = archive.scan(&built.compile()).collect();
        let scanned_by_text: Vec<Event> = archive.scan_str(&text).unwrap().collect();
        assert_eq!(scanned, scanned_by_text, "{text} scans differently");
    });
}

/// The storage engine's pre-query-plane matcher, as the oracle for the
/// classic host/type/range query shape.
fn legacy_tsdb_matches(
    from: Option<Timestamp>,
    to: Option<Timestamp>,
    host: &Option<String>,
    ty: &Option<String>,
    e: &Event,
) -> bool {
    if let Some(from) = from {
        if e.timestamp < from {
            return false;
        }
    }
    if let Some(to) = to {
        if e.timestamp >= to {
            return false;
        }
    }
    if let Some(host) = host {
        if &e.host != host {
            return false;
        }
    }
    if let Some(ty) = ty {
        if &e.event_type != ty {
            return false;
        }
    }
    true
}

#[test]
fn plan_eval_matches_legacy_tsdb_query() {
    forall("plan ≡ legacy range matcher", 96, |g| {
        let from = g
            .bool(0.6)
            .then(|| Timestamp::from_micros(g.u64(60) * 500_000));
        let to = g
            .bool(0.6)
            .then(|| Timestamp::from_micros(g.u64(60) * 500_000 + 1));
        let host = g.bool(0.5).then(|| g.choice(&HOSTS).to_string());
        let ty = g.bool(0.5).then(|| g.choice(&TYPES).to_string());
        let mut parts = vec![Predicate::TimeRange {
            from_micros: from.map(|t| t.as_micros()),
            to_micros: to.map(|t| t.as_micros()),
        }];
        parts.extend(host.iter().map(|h| Predicate::hosts([h.as_str()])));
        parts.extend(ty.iter().map(|t| Predicate::types([t.as_str()])));
        let q = Predicate::And(parts);
        let plan = q.compile();
        for _ in 0..20 {
            let e = random_event(g);
            assert_eq!(
                plan.eval(&e),
                legacy_tsdb_matches(from, to, &host, &ty, &e),
                "{q} disagrees on {e:?}"
            );
        }
    });
}

/// The pre-query-plane recursive directory matcher, as the oracle for
/// parsed LDAP-subset filters.
#[derive(Debug)]
enum LegacyFilter {
    Equals(String, String),
    Present(String),
    Substring(String, Vec<String>),
    And(Vec<LegacyFilter>),
    Or(Vec<LegacyFilter>),
    Not(Box<LegacyFilter>),
}

impl LegacyFilter {
    fn matches(&self, entry: &Entry) -> bool {
        fn substring_match(value: &str, parts: &[String]) -> bool {
            jamm::jamm_core::query::substring_match(value, parts)
        }
        match self {
            LegacyFilter::Equals(attr, value) => entry.has_value(attr, value),
            LegacyFilter::Present(attr) => entry.has(attr),
            LegacyFilter::Substring(attr, parts) => entry
                .get_all(attr)
                .iter()
                .any(|v| substring_match(v, parts)),
            LegacyFilter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            LegacyFilter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            LegacyFilter::Not(f) => !f.matches(entry),
        }
    }

    fn text(&self) -> String {
        match self {
            LegacyFilter::Equals(a, v) => format!("({a}={v})"),
            LegacyFilter::Present(a) => format!("({a}=*)"),
            LegacyFilter::Substring(a, parts) => format!("({a}={})", parts.join("*")),
            LegacyFilter::And(fs) => format!(
                "(&{})",
                fs.iter().map(LegacyFilter::text).collect::<String>()
            ),
            LegacyFilter::Or(fs) => format!(
                "(|{})",
                fs.iter().map(LegacyFilter::text).collect::<String>()
            ),
            LegacyFilter::Not(f) => format!("(!{})", f.text()),
        }
    }
}

const ATTRS: [&str; 4] = ["objectclass", "status", "gateway", "frequency"];
const VALUES: [&str; 4] = ["sensor", "running", "stopped", "gw1"];

fn random_legacy_filter(g: &mut Gen, depth: usize) -> LegacyFilter {
    // `host=` / `type=` equality became exact-match under the unified
    // grammar (documented change), so the equivalence oracle draws from
    // the generic attributes where semantics are unchanged.
    let leaf = depth == 0 || g.bool(0.5);
    if leaf {
        match g.u64(3) {
            0 => LegacyFilter::Equals(g.choice(&ATTRS).into(), g.choice(&VALUES).into()),
            1 => LegacyFilter::Present(g.choice(&ATTRS).into()),
            _ => {
                let n = g.usize_in(2, 3);
                LegacyFilter::Substring(
                    g.choice(&ATTRS).into(),
                    (0..n)
                        .map(|_| {
                            let len = g.usize_in(0, 3);
                            g.string_from("abcdefgrstuvwxyz", len)
                        })
                        .collect(),
                )
            }
        }
    } else {
        match g.u64(3) {
            0 => LegacyFilter::And(
                (0..g.usize_in(0, 3))
                    .map(|_| random_legacy_filter(g, depth - 1))
                    .collect(),
            ),
            1 => LegacyFilter::Or(
                (0..g.usize_in(0, 3))
                    .map(|_| random_legacy_filter(g, depth - 1))
                    .collect(),
            ),
            _ => LegacyFilter::Not(Box::new(random_legacy_filter(g, depth - 1))),
        }
    }
}

fn random_entry(g: &mut Gen) -> Entry {
    let mut e = Entry::new(Dn::parse("x=y,o=grid").unwrap());
    for _ in 0..g.usize_in(0, 5) {
        e.add(g.choice(&ATTRS), g.choice(&VALUES));
    }
    if g.bool(0.5) {
        let len = g.usize_in(1, 8);
        e.add("status", g.string_from("abcdefgrstuvwxyz", len));
    }
    e
}

#[test]
fn plan_eval_matches_legacy_directory_filter() {
    forall("plan ≡ legacy directory Filter", 128, |g| {
        let legacy = random_legacy_filter(g, 3);
        let parsed = Filter::parse(&legacy.text())
            .unwrap_or_else(|e| panic!("oracle text {:?} must parse: {e}", legacy.text()));
        for _ in 0..10 {
            let entry = random_entry(g);
            assert_eq!(
                parsed.matches(&entry),
                legacy.matches(&entry),
                "filter {} disagrees on {entry:?}",
                legacy.text()
            );
        }
    });
}

/// Catalog pruning must never drop a matching event: for random archives
/// (many small sealed segments) and random queries, the pruned scan is
/// identical to brute-force filtering the full contents — and the pruning
/// counters account for every segment.
#[test]
fn pruned_scan_equals_full_scan() {
    forall("pruned scan ≡ full scan", 48, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(4, 12),
            small_segment_events: 8,
            sync_wal: false,
        });
        let n = g.usize_in(30, 120);
        let mut all: Vec<Event> = Vec::new();
        for _ in 0..n {
            let e = random_event(g);
            store(&archive, e.clone());
            all.push(e);
        }
        // Time-sort the oracle the way scans yield (ties by insertion).
        let mut all_sorted = all.clone();
        all_sorted.sort_by_key(|e| e.timestamp);

        let segments = archive.tsdb().segment_count() as u64;

        let queries = [
            "(&)",
            "(host=dpss1.lbl.gov)",
            "(type=CPU_TOTAL)",
            "(&(host=mems.cairn.net)(type=MEM_FREE))",
            "(level>=warning)",
            "(&(time>=5000000)(time<20000000))",
            "(&(host=portnoy.lbl.gov)(level>=error)(time>=1000000))",
            "(|(type=PROC_DIED)(type=TCPD_RETRANSMITS))",
            "(val>=40)",
        ];
        let text = g.choice(&queries);
        let pred = Predicate::parse(text).unwrap();

        let scanned_before = archive.stats().segments_scanned();
        let pruned_before = archive.stats().segments_pruned();
        let got: Vec<Event> = archive.scan(&pred.compile()).collect();
        let scanned = archive.stats().segments_scanned() - scanned_before;
        let pruned = archive.stats().segments_pruned() - pruned_before;
        assert_eq!(
            scanned + pruned,
            segments,
            "every segment is either scanned or pruned"
        );

        let oracle = pred.compile();
        let want: Vec<Event> = all_sorted
            .iter()
            .filter(|e| oracle.eval(*e))
            .cloned()
            .collect();
        // Timestamp ties can reorder between oracle sort and scan seq
        // order; compare as multisets keyed by full event identity.
        let key = |e: &Event| format!("{:?}", e);
        let mut got_keys: Vec<String> = got.iter().map(key).collect();
        let mut want_keys: Vec<String> = want.iter().map(key).collect();
        got_keys.sort();
        want_keys.sort();
        assert_eq!(
            got_keys, want_keys,
            "query {text} dropped or invented events"
        );
    });
}

/// The columnar scan path (JSG3 segments batch-filtered through
/// `Plan::eval_batch` / `Facts::eval_batch`) is behaviorally identical to
/// the row-oriented oracle — a fresh plan fed every event in merge order —
/// including *stateful* plans, whose per-series memory must see the same
/// stream either way.  Timestamps are strictly increasing so merge order
/// is the insertion order and stateful equivalence is exact, and the
/// archive is randomly sealed/compacted mid-stream so events land in
/// memtables, fresh segments, and compacted segments alike.
#[test]
fn columnar_scan_matches_row_oracle_for_stateful_plans() {
    forall("columnar scan ≡ stateful row oracle", 48, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: g.usize_in(4, 12),
            small_segment_events: g.usize_in(6, 16),
            sync_wal: false,
        });
        let n = g.usize_in(40, 150);
        let mut all: Vec<Event> = Vec::new();
        let mut ts = 0u64;
        for _ in 0..n {
            ts += 1 + g.u64(400_000);
            let mut b = Event::builder("sensor", g.choice(&HOSTS))
                .level(g.choice(&LEVELS))
                .event_type(g.choice(&TYPES))
                .timestamp(Timestamp::from_micros(ts));
            if g.bool(0.8) {
                b = b.value((g.u64(8) as f64) * 10.0);
            }
            let e = b.build();
            store(&archive, e.clone());
            all.push(e);
            if g.bool(0.05) {
                archive.seal().unwrap();
            }
            if g.bool(0.03) {
                archive.compact().unwrap();
            }
        }

        // Stateful leaves key their memory by `(host, type)` series, so
        // conjoining them only with host/type/val leaves keeps the oracle
        // exact: rows the scan's pushdown facts exclude belong to foreign
        // series and can never perturb the queried series' memory.
        let queries = [
            "(onchange)",
            "(&(type=CPU_TOTAL)(onchange))",
            "(&(host=dpss1.lbl.gov)(crosses=35))",
            "(&(type=MEM_FREE)(relchange=0.2))",
            "(&(host=mems.cairn.net)(type=CPU_TOTAL)(crosses=45))",
            "(&(type=TCPD_RETRANSMITS)(val>=40)(onchange))",
            "(&(type=CPU_TOTAL)(host=h4))",
            "(&(level>=warning)(val>=40))",
            "(|(type=PROC_DIED)(host=portnoy.lbl.gov))",
        ];
        let text = g.choice(&queries);
        let pred = Predicate::parse(text).unwrap();

        let got: Vec<Event> = archive.scan(&pred.compile()).collect();
        let oracle = pred.compile(); // fresh per-series memory
        let want: Vec<Event> = all.iter().filter(|e| oracle.eval(*e)).cloned().collect();
        let key = |e: &Event| format!("{e:?}");
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>(),
            "query {text} diverged from the row oracle"
        );
    });
}

/// `Plan::eval_batch` over a hand-built column batch agrees with per-row
/// `Plan::eval`: exactly when the plan reports `batch_definite`, and as a
/// conservative superset otherwise (stateful or attribute leaves) — and
/// the definiteness flag it returns is precisely `batch_definite()`.
#[test]
fn eval_batch_agrees_with_row_eval() {
    use jamm::jamm_core::query::{BatchScratch, ColumnBatch, Selection};

    forall("eval_batch ≡ row eval", 96, |g| {
        let n = g.usize_in(1, 200);
        let events: Vec<Event> = (0..n).map(|_| random_event(g)).collect();

        // Columnarize: dictionary-encode hosts/types, severity-rank the
        // levels, split VAL into a dense column plus a presence bitmap —
        // the same shape JSG3 segments decode into.
        let mut dict: Vec<String> = Vec::new();
        let id = |dict: &mut Vec<String>, s: &str| -> u32 {
            match dict.iter().position(|d| d == s) {
                Some(i) => i as u32,
                None => {
                    dict.push(s.to_string());
                    (dict.len() - 1) as u32
                }
            }
        };
        let mut ts_micros = Vec::new();
        let mut host_ids = Vec::new();
        let mut type_ids = Vec::new();
        let mut levels = Vec::new();
        let mut values = Vec::new();
        let mut val_present = vec![0u64; n.div_ceil(64)];
        for (i, e) in events.iter().enumerate() {
            ts_micros.push(e.timestamp.as_micros());
            host_ids.push(id(&mut dict, &e.host));
            type_ids.push(id(&mut dict, &e.event_type));
            levels.push(e.level.severity());
            match e.value() {
                Some(v) => {
                    values.push(v);
                    val_present[i / 64] |= 1u64 << (i % 64);
                }
                None => values.push(0.0),
            }
        }
        let batch = ColumnBatch {
            rows: n,
            ts_micros: &ts_micros,
            host_ids: &host_ids,
            type_ids: &type_ids,
            levels: &levels,
            values: &values,
            val_present: &val_present,
            dict: &dict,
        };

        let queries = [
            "(&)",
            "(host=dpss1.lbl.gov)",
            "(|(type=CPU_TOTAL)(type=MEM_FREE))",
            "(level>=warning)",
            "(&(time>=5000000)(time<20000000))",
            "(val>=40)",
            "(!(val<30))",
            "(&(host=mems.cairn.net)(|(level>=error)(val>=70)))",
            "(onchange)",
            "(&(type=CPU_TOTAL)(crosses=45))",
            "(status=run*)",
            "(&(host=h4)(relchange=0.25))",
        ];
        let text = g.choice(&queries);
        let plan = Predicate::parse(text).unwrap().compile();

        let mut sel = Selection::new();
        let mut scratch = BatchScratch::new();
        let definite = plan.eval_batch(&batch, &mut sel, &mut scratch);
        assert_eq!(
            definite,
            plan.batch_definite(),
            "definiteness flag disagrees with batch_definite() for {text}"
        );
        assert_eq!(sel.len(), n);

        // The row oracle walks rows in batch order, so stateful memory
        // sees the same stream a scan of this batch would feed it.
        let oracle = Predicate::parse(text).unwrap().compile();
        for (i, e) in events.iter().enumerate() {
            let row = oracle.eval(e);
            if definite {
                assert_eq!(
                    sel.contains(i),
                    row,
                    "definite batch disagrees with row eval at {i} for {text}: {e:?}"
                );
            } else if row {
                assert!(
                    sel.contains(i),
                    "superset batch dropped matching row {i} for {text}: {e:?}"
                );
            }
        }
    });
}

/// Limit pushdown returns exactly the first `k` of the unlimited scan.
#[test]
fn limit_pushdown_is_a_prefix_of_the_full_result() {
    forall("limit ≡ prefix", 32, |g| {
        let archive = EventArchive::in_memory_with(TsdbOptions {
            memtable_max_events: 8,
            small_segment_events: 8,
            sync_wal: false,
        });
        for _ in 0..g.usize_in(20, 60) {
            store(&archive, random_event(g));
        }
        let full: Vec<Event> = archive.scan(&Predicate::True.compile()).collect();
        let k = g.usize_in(1, full.len());
        let limited: Vec<Event> = archive.scan(&Predicate::Limit(k).compile()).collect();
        assert_eq!(limited.as_slice(), &full[..k]);
        let by_text: Vec<Event> = archive.scan_str(&format!("(limit={k})")).unwrap().collect();
        assert_eq!(by_text.as_slice(), &full[..k]);
    });
}

/// Field-carrying events keep matching attribute leaves through the
/// unified grammar (string values in place, numeric by ULM rendering).
#[test]
fn attribute_leaves_match_event_fields() {
    let e = Event::builder("netstat", "h1")
        .level(Level::Usage)
        .event_type("TCPD_RETRANSMITS")
        .timestamp(Timestamp::from_secs(1))
        .value(7.0)
        .field("PEER", Value::Str("mems.cairn.net".into()))
        .build();
    let hit = Predicate::parse("(peer=mems.cairn.net)").unwrap().compile();
    assert!(hit.eval(&e));
    let miss = Predicate::parse("(peer=elsewhere)").unwrap().compile();
    assert!(!miss.eval(&e));
    let glob = Predicate::parse("(peer=*.cairn.net)").unwrap().compile();
    assert!(glob.eval(&e));
    let present = Predicate::parse("(peer=*)").unwrap().compile();
    assert!(present.eval(&e));
}
