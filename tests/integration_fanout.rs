//! Cross-crate integration of the gateway fan-out engine: a deployment's
//! gateway survives parallel publishers, delivers typed subscriptions only
//! their types, and exposes its accounting through
//! `JammSystem::admin_stats`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use jamm::JammBuilder;
use jamm_core::query::{Predicate, ValueCmp};
use jamm_ulm::{Event, Level, Timestamp};

fn ev(host: &str, ty: &str, value: f64, t: u64) -> Event {
    Event::builder("vmstat", host)
        .level(Level::Usage)
        .event_type(ty)
        .timestamp(Timestamp::from_micros(t))
        .value(value)
        .build()
}

const TYPES: [&str; 5] = [
    "CPU_TOTAL",
    "VMSTAT_FREE_MEMORY",
    "NETSTAT_RETRANS",
    "DPSS_SERV_IN",
    "TCPD_RETRANSMITS",
];

fn workload() -> Vec<Event> {
    (0..2_000u64)
        .map(|i| {
            let ty = TYPES[(i % TYPES.len() as u64) as usize];
            let host = format!("node{:02}.farm.lbl.gov", i % 8);
            ev(&host, ty, (i % 100) as f64, i)
        })
        .collect()
}

/// Parallel publishers hammering one gateway: every event is delivered
/// exactly once, each publisher's order survives (its events are routed on
/// its own thread, one publish after the other), and the admin-stats
/// subscription row decomposes the totals exactly.
#[test]
fn parallel_publishers_deliver_exactly_once() {
    let jamm = Arc::new(JammBuilder::new().gateway("gw").build().unwrap());
    let sub = jamm.gateways[0]
        .subscribe()
        .as_consumer("ops")
        .capacity(100_000)
        .open()
        .unwrap();
    let threads: Vec<_> = (0..4)
        .map(|p| {
            let jamm = Arc::clone(&jamm);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    jamm.publish("gw", &ev("h", &format!("TYPE_{p}"), i as f64, i));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = jamm.admin_stats();
    assert_eq!(stats.len(), 1);
    let gw = &stats[0];
    assert_eq!(gw.events_in, 2_000);
    assert_eq!(gw.events_out, 2_000);
    assert_eq!(gw.events_dropped, 0);
    assert_eq!(gw.subscriptions.len(), 1);
    assert_eq!(gw.subscriptions[0].delivered, 2_000);
    assert_eq!(gw.subscriptions[0].bytes, gw.bytes_out);

    let got: Vec<jamm::SharedEvent> = {
        let mut v: Vec<jamm::SharedEvent> = Vec::new();
        while let Ok(e) = sub.events.try_recv() {
            v.push(e);
        }
        v
    };
    assert_eq!(got.len(), 2_000);
    for p in 0..4 {
        let ty = format!("TYPE_{p}");
        let times: Vec<u64> = got
            .iter()
            .filter(|e| e.event_type == ty)
            .map(|e| e.timestamp.as_micros())
            .collect();
        assert_eq!(times, (0..500).collect::<Vec<_>>(), "{ty} stayed ordered");
    }
}

/// A typed consumer subscription composes with a value filter: only the
/// readings of its type that pass the filter are delivered.
#[test]
fn typed_subscriptions_and_filters_compose() {
    let mut jamm = JammBuilder::new()
        .gateway("gw")
        .collector("cpu-watcher")
        .build()
        .unwrap();
    let registry_names = jamm.registry.names();
    assert_eq!(registry_names, vec!["gw".to_string()]);
    assert!(jamm.collectors[0].subscribe_gateway(
        &jamm.registry,
        "gw",
        vec![
            Predicate::types(["CPU_TOTAL"]),
            Predicate::val(ValueCmp::Gt, 50.0),
        ],
    ));
    let events = workload();
    for e in &events {
        jamm.publish("gw", e);
    }
    jamm.poll();
    let expected = events
        .iter()
        .filter(|e| e.event_type == "CPU_TOTAL" && e.value().unwrap() > 50.0)
        .count();
    assert!(expected > 0);
    assert_eq!(jamm.collectors[0].events().len(), expected);
    // events_in still counts every publish, absorbed by the gateway.
    assert_eq!(
        jamm.gateways[0].stats().events_in.load(Ordering::Relaxed),
        events.len() as u64
    );
}
