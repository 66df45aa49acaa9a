//! The metrics catalogue in `docs/ARCHITECTURE.md` and the live
//! exposition describe the same set: every name `JammSystem::metrics()`
//! emits has a row with the same kind and label keys, and every row is
//! emitted by a deployment with every optional part switched on.

use std::collections::{BTreeMap, BTreeSet};

use jamm::jamm_core::obs::SampleValue;
use jamm::jamm_gateway::{GatewayConfig, QosConfig};
use jamm::JammBuilder;
use jamm_ulm::{Event, Level, Timestamp};

const ARCHITECTURE: &str = include_str!("../docs/ARCHITECTURE.md");

/// Metric name → (kind, sorted label keys), as the catalogue rows state it.
type Catalogue = BTreeMap<String, (String, BTreeSet<String>)>;

fn catalogue() -> Catalogue {
    let mut rows = Catalogue::new();
    for line in ARCHITECTURE.lines().filter(|l| l.starts_with("| `jamm_")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`').to_string();
        let labels = cells[3]
            .split(',')
            .map(|l| l.trim().trim_matches('`'))
            .filter(|l| !l.is_empty() && *l != "—")
            .map(str::to_string)
            .collect();
        let previous = rows.insert(name.clone(), (cells[2].to_string(), labels));
        assert!(previous.is_none(), "{name} catalogued twice");
    }
    rows
}

fn emitted() -> Catalogue {
    let dir = jamm_tsdb::test_util::TempDir::new("metrics-catalogue");
    let mut jamm = JammBuilder::new()
        .gateway_config(GatewayConfig::open("gw1").with_qos(QosConfig::default()))
        .collector("ops")
        .archiver("archiver", "archive=main,o=grid")
        .archive_dir(dir.path())
        .network_edge(true)
        .self_monitor(1)
        .build()
        .unwrap();
    jamm.connect_collectors(vec![]);
    jamm.connect_archiver(vec![]);
    for t in 0..16u64 {
        let event = Event::builder("vmstat", "h1")
            .level(Level::Usage)
            .event_type("CPU_TOTAL")
            .timestamp(Timestamp::from_secs(t))
            .value(t as f64)
            .build();
        jamm.publish("gw1", &event);
    }
    jamm.poll();
    jamm.query("ops", "(type=CPU_TOTAL)", Timestamp::from_secs(16))
        .unwrap();

    let mut out = Catalogue::new();
    for sample in jamm.metrics().samples {
        let kind = match sample.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        };
        let labels = sample.labels.into_iter().map(|(k, _)| k).collect();
        let entry = (kind.to_string(), labels);
        let previous = out.insert(sample.name.clone(), entry.clone());
        assert!(
            previous.is_none_or(|p| p == entry),
            "{} emitted with two shapes",
            sample.name
        );
    }
    out
}

#[test]
fn every_emitted_metric_is_catalogued_and_every_catalogued_metric_is_emitted() {
    let documented = catalogue();
    let live = emitted();
    let undocumented: Vec<_> = live
        .keys()
        .filter(|n| !documented.contains_key(*n))
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted but not in the ARCHITECTURE.md catalogue: {undocumented:?}"
    );
    let unemitted: Vec<_> = documented
        .keys()
        .filter(|n| !live.contains_key(*n))
        .collect();
    assert!(
        unemitted.is_empty(),
        "catalogued but never emitted: {unemitted:?}"
    );
    for (name, shape) in &live {
        assert_eq!(
            &documented[name], shape,
            "{name}: catalogue row (kind, labels)"
        );
    }
    // The catalogue is the whole exposition, including the query-tier
    // counters that replaced the facade's private struct.
    assert!(live.contains_key("jamm_query_views_served"));
    assert!(live.contains_key("jamm_query_archive_scans"));
}
