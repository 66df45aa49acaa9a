//! Cross-crate integration: the full sensor → manager → gateway → consumer
//! pipeline over the simulated network, including directory publication,
//! filtering, summaries and archiving.

use jamm::deployment::{DeploymentConfig, JammDeployment};
use jamm_core::query::{Predicate, ValueCmp};
use jamm_directory::{Dn, Filter, Scope};
use jamm_ulm::{keys, Level};

fn lan_deployment(seed: u64) -> JammDeployment {
    let mut cfg = DeploymentConfig::matisse_lan(2);
    cfg.matisse.seed = seed;
    cfg.matisse.player.frame_bytes = 600_000;
    JammDeployment::matisse(cfg).unwrap()
}

#[test]
fn sensors_publish_through_gateways_into_collector_and_archive() {
    let mut jamm = lan_deployment(101);
    jamm.run_secs(10.0);

    // The directory lists every sensor with its serving gateway.
    let listed = jamm
        .directory
        .search(
            &Dn::parse("o=grid").unwrap(),
            Scope::Subtree,
            &Filter::parse("(objectclass=sensor)").unwrap(),
        )
        .unwrap();
    assert!(
        listed.entries.len() >= 10,
        "sensors published: {}",
        listed.entries.len()
    );
    assert!(listed
        .entries
        .iter()
        .all(|e| e.get("gateway").is_some() && e.get("host").is_some()));

    // The collector received host monitoring from both sites.
    let hosts: std::collections::HashSet<&str> = jamm
        .collector
        .events()
        .iter()
        .map(|e| e.host.as_str())
        .collect();
    assert!(hosts.contains("mems.cairn.net"));
    assert!(hosts.contains("dpss1.lbl.gov"));

    // The archiver only kept warnings and errors.
    assert!(!jamm.archive.is_empty(), "something abnormal was archived");
    let archived: Vec<_> = jamm.archive.scan(&Predicate::True.compile()).collect();
    assert!(archived.iter().all(|e| e.level.is_problem()));

    // Gateway accounting is consistent: delivered >= collector's share.
    assert!(jamm.events_published() > 0);
    assert!(jamm.events_delivered() as usize >= jamm.collector_event_count());
}

#[test]
fn late_consumer_discovers_sensors_and_queries_most_recent_values() {
    let mut jamm = lan_deployment(202);
    jamm.run_secs(5.0);

    // A brand new consumer arrives late, looks up CPU sensors for the
    // receiving host in the directory, and issues a query-mode request.
    let found = jamm
        .directory
        .search(
            &Dn::parse("o=isi,o=grid").unwrap(),
            Scope::Subtree,
            &Filter::parse("(&(objectclass=sensor)(sensor=cpu))").unwrap(),
        )
        .unwrap();
    assert_eq!(found.entries.len(), 1);
    let gateway_name = found.entries[0].get("gateway").unwrap();
    let gateway = jamm
        .registry
        .resolve(gateway_name)
        .expect("gateway resolvable");
    let latest = gateway
        .query("late-consumer", "mems.cairn.net", keys::cpu::SYS)
        .unwrap()
        .expect("a recent reading exists");
    assert!(latest.value().is_some());

    // Summary data is also available (the 1/10/60-minute averages).
    let cpu = Predicate::types([keys::cpu::SYS]).compile();
    let summaries = gateway
        .summaries("late-consumer", &cpu, jamm.scenario.net.clock().timestamp())
        .unwrap();
    assert!(summaries
        .iter()
        .any(|e| e.event_type == format!("{}_AVG_1MIN", keys::cpu::SYS)));
}

#[test]
fn threshold_subscription_sees_only_interesting_events() {
    let mut jamm = lan_deployment(303);
    // Subscribe before running: only CPU readings above 30%.
    let gateway = jamm.registry.resolve("gw.cairn.net:8765").unwrap();
    let sub = gateway
        .subscribe()
        .stream()
        .filter(Predicate::types([keys::cpu::TOTAL]))
        .filter(Predicate::val(ValueCmp::Gt, 30.0))
        .as_consumer("threshold-watcher")
        .open()
        .unwrap();
    jamm.run_secs(10.0);
    let events: Vec<_> = sub.events.try_iter().collect();
    assert!(
        events.iter().all(|e| e.value().unwrap_or(0.0) > 30.0),
        "all delivered events are above the threshold"
    );
    // And the unfiltered stream saw strictly more events than this one.
    assert!(
        (events.len() as u64)
            < gateway
                .stats()
                .events_in
                .load(std::sync::atomic::Ordering::Relaxed),
        "filtering reduced the volume"
    );
}

#[test]
fn process_death_shows_up_as_error_events_at_the_consumer() {
    let mut jamm = lan_deployment(404);
    jamm.run_secs(3.0);
    // Kill the DPSS master process on dpss1.
    let id = jamm.scenario.net.host_by_name("dpss1.lbl.gov").unwrap();
    jamm.scenario.net.host_mut(id).kill_process("dpss_master");
    jamm.run_secs(3.0);
    let died: Vec<_> = jamm
        .collector
        .events()
        .iter()
        .filter(|e| e.event_type == keys::process::DIED)
        .collect();
    assert!(!died.is_empty(), "the death was observed");
    assert!(died.iter().any(|e| e.host == "dpss1.lbl.gov"));
    assert!(died.iter().all(|e| e.level == Level::Error));
}
