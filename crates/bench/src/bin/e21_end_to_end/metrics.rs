//! The declared metrics — the same names, units and directions as
//! `BENCHMARK.json` (a test holds the two together) — and the outcome of one
//! run.

use std::collections::BTreeMap;

use jamm::jamm_core::json::{Json, Map};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("cpu_us_per_event", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run.  A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lower("manager.tick_us_per_event", "us"),
    higher("manager.events", "count"),
    lower("gateway.publish_us_per_event", "us"),
    lower("gateway.route_us_p99", "us"),
    higher("gateway.fanout_ratio", "ratio"),
    lower("gateway.events_dropped", "count"),
    lower("gateway.sub_wait_us.edge", "us"),
    lower("gateway.sub_wait_us.archiver", "us"),
    lower("gateway.views.read_us_p50", "us"),
    lower("rmi.edge.encode_us_mean", "us"),
    lower("rmi.edge.broadcast_us_mean", "us"),
    lower("rmi.edge.wire_us_mean", "us"),
    higher("rmi.edge.events_per_batch", "count"),
    lower("rmi.edge.bytes_per_event", "B"),
    lower("rmi.client.dropped", "count"),
    lower("rmi.client.decode_errors", "count"),
    lower("reactor.dispatch_ns_per_event", "ns"),
    higher("reactor.poll_wait_share", "ratio"),
    lower("reactor.saturation", "ratio"),
    lower("reactor.socket_stalls", "count"),
    lower("reactor.dropped_frames", "count"),
    lower("ulm.encode_ns_per_event", "ns"),
    lower("ulm.decode_ns_per_event", "ns"),
    lower("ulm.deep_clones", "count"),
    lower("consumers.archiver.poll_us_per_event", "us"),
    higher("consumers.archiver.batch_events_mean", "count"),
    lower("consumers.collector.poll_us_per_event", "us"),
    lower("tsdb.append_us_per_event", "us"),
    lower("tsdb.seal_ms_mean", "ms"),
    lower("tsdb.seal_count", "count"),
    lower("tsdb.compact_ms_mean", "ms"),
    lower("tsdb.compactions", "count"),
    lower("tsdb.stall_ms_max", "ms"),
    lower("tsdb.wal_bytes_per_event", "B"),
    lower("tsdb.segment_bytes_per_event", "B"),
    lower("tsdb.written_bytes_per_event", "B"),
    lower("tsdb.disk_bytes_per_event", "B"),
    lower("tsdb.reopen_ms", "ms"),
    lower("tsdb.wal_recovered_events", "count"),
    higher("query.per_s", "1/s"),
    lower("query.narrow.p50_us", "us"),
    lower("query.selective.p50_us", "us"),
    lower("query.aggregate.p50_us", "us"),
    lower("query.full.p50_us", "us"),
    lower("core.query.parse_compile_us", "us"),
    lower("tsdb.segments_scanned_per_query", "count"),
    higher("tsdb.segments_pruned_per_query", "count"),
    lower("tsdb.scan_setup_us_mean", "us"),
    lower("archive.rows_per_query", "count"),
    higher("tsdb.rows_per_s", "1/s"),
    lower("proc.allocs_per_event", "count"),
    lower("proc.alloc_bytes_per_event", "B"),
    lower("proc.ctx_switches_per_kev", "count"),
    higher("e2e.delivered_kev_s", "kev/s"),
    lower("e2e.latency_p50_us", "us"),
    lower("e2e.latency_p99_us", "us"),
    lower("e2e.latency_p999_us", "us"),
    lower("e2e.paced_cpu_us_per_event", "us"),
    lower("e2e.failed_pct", "%"),
    higher("e2e.slo_met", "count"),
    lower("gen.lateness_p99_us", "us"),
    lower("trace.overhead_pct", "%"),
    higher("trace.lifelines_complete_pct", "%"),
    lower("trace.budget_gap_pct", "%"),
];

pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness check that did not hold.
    pub wrong: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human reader (sample counts, the budget
    /// table); never parsed.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The one JSON object the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the last holding every declared metric of the
    /// run's kind.
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = Map::new();
        for d in defs(traced) {
            let mut m = Map::new();
            m.insert("value".into(), Json::from(self.get(d.name)));
            m.insert("unit".into(), Json::from(d.unit));
            metrics.insert(d.name.into(), Json::Object(m));
        }
        let mut top = Map::new();
        top.insert("correct".into(), Json::from(self.correct()));
        top.insert("attempted".into(), Json::from(self.attempted.max(1)));
        top.insert("failed".into(), Json::from(self.failed));
        top.insert("metrics".into(), Json::Object(metrics));
        Json::Object(top).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = Json::parse(&o.result_line(false)).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["attempted"].as_u64(), Some(10));
        assert_eq!(line["failed"].as_u64(), Some(0));
        let metrics = line["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(line["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        o.check(false, || "a check failed".into());
        let traced = Json::parse(&o.result_line(true)).unwrap();
        assert_eq!(traced["correct"].as_bool(), Some(false));
        assert_eq!(
            traced["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
