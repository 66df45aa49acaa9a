//! Integration of the directory service with the rest of the system:
//! replication and failover under load, referrals across sites, persistent
//! search driving a consumer.

use std::sync::Arc;

use jamm_directory::notify::ChangeKind;
use jamm_directory::referral::Federation;
use jamm_directory::replication::ReplicatedDirectory;
use jamm_directory::{DirectoryServer, Dn, Entry, Filter, Scope};

fn sensor_entry(site: &str, host: &str, sensor: &str) -> Entry {
    Entry::new(Dn::parse(&format!("sensor={sensor},host={host},o={site},o=grid")).unwrap())
        .with("objectclass", "sensor")
        .with("host", host)
        .with("sensor", sensor)
        .with("gateway", format!("gw.{site}.example:8765"))
        .with("status", "running")
}

#[test]
fn replicated_directory_survives_master_failure_and_resyncs() {
    let master = Arc::new(DirectoryServer::new(
        "ldap://master",
        Dn::parse("o=grid").unwrap(),
    ));
    let replica = Arc::new(DirectoryServer::new(
        "ldap://replica",
        Dn::parse("o=grid").unwrap(),
    ));
    let dir = ReplicatedDirectory::new(Arc::clone(&master), vec![Arc::clone(&replica)]);

    // A sensor manager publishes through the replicated handle.
    for i in 0..20 {
        dir.add_or_replace(sensor_entry("lbl", &format!("node{i}.lbl.gov"), "cpu"))
            .unwrap();
    }
    // The master dies; consumers keep resolving sensors from the replica.
    master.set_available(false);
    let found = dir
        .search(
            &Dn::parse("o=grid").unwrap(),
            Scope::Subtree,
            &Filter::parse("(sensor=cpu)").unwrap(),
        )
        .unwrap();
    assert_eq!(found.entries.len(), 20);

    // The replica misses writes while it is down; resync catches it up.
    master.set_available(true);
    replica.set_available(false);
    dir.add_or_replace(sensor_entry("lbl", "late.lbl.gov", "cpu"))
        .unwrap();
    assert_eq!(dir.stale_replicas().len(), 1);
    replica.set_available(true);
    assert_eq!(dir.resync(), 1);
    assert_eq!(replica.entry_count(), 21);
}

#[test]
fn federation_gives_a_grid_wide_view_across_site_directories() {
    let lbl = Arc::new(DirectoryServer::new(
        "ldap://dir.lbl.example",
        Dn::parse("o=lbl,o=grid").unwrap(),
    ));
    let isi = Arc::new(DirectoryServer::new(
        "ldap://dir.isi.example",
        Dn::parse("o=isi,o=grid").unwrap(),
    ));
    for i in 0..4 {
        lbl.add(sensor_entry("lbl", &format!("dpss{i}.lbl.gov"), "cpu"))
            .unwrap();
    }
    isi.add(sensor_entry("isi", "mems.cairn.net", "cpu"))
        .unwrap();
    lbl.add_referral(Dn::parse("o=isi,o=grid").unwrap(), isi.name());
    isi.add_referral(Dn::parse("o=lbl,o=grid").unwrap(), lbl.name());

    let mut fed = Federation::new();
    fed.add_server(Arc::clone(&lbl));
    fed.add_server(Arc::clone(&isi));

    // Starting from either site, a grid-wide sensor query sees all 5 sensors.
    for start in [lbl.name(), isi.name()] {
        let result = fed
            .search(
                start,
                &Dn::parse("o=grid").unwrap(),
                Scope::Subtree,
                &Filter::parse("(objectclass=sensor)").unwrap(),
            )
            .unwrap();
        assert_eq!(result.entries.len(), 5, "starting at {start}");
    }
}

#[test]
fn persistent_search_notifies_consumers_of_new_sensors() {
    let dir = DirectoryServer::new("ldap://dir", Dn::parse("o=grid").unwrap());
    // A consumer registers interest in TCP sensors anywhere on the grid
    // before any exist (the LDAPv3 event-notification usage from §2.2).
    let watch = dir.persistent_search(
        Dn::parse("o=grid").unwrap(),
        Filter::parse("(&(objectclass=sensor)(sensor=tcp))").unwrap(),
    );
    dir.add(sensor_entry("lbl", "dpss1.lbl.gov", "cpu"))
        .unwrap();
    dir.add(sensor_entry("lbl", "dpss1.lbl.gov", "tcp"))
        .unwrap();
    dir.modify(
        &Dn::parse("sensor=tcp,host=dpss1.lbl.gov,o=lbl,o=grid").unwrap(),
        |e| e.set("status", vec!["stopped".into()]),
    )
    .unwrap();
    let changes = watch.drain();
    assert_eq!(
        changes.len(),
        2,
        "added + modified, the cpu sensor is ignored"
    );
    assert_eq!(changes[0].kind, ChangeKind::Added);
    assert_eq!(changes[1].kind, ChangeKind::Modified);
    assert_eq!(changes[1].entry.get("status"), Some("stopped"));
}
