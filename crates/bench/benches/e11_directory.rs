//! E11 — §2.2 directory service characteristics.
//!
//! Paper: "Current implementations of LDAP servers are optimized for read
//! access, and do not work well in an environment with many updates";
//! "LDAP also supports the notion of replicated servers, providing fault
//! tolerance.  Replication is critical to JAMM."
//!
//! The report shows lookup vs update throughput (read-optimised store) and
//! replication keeping reads available through a master failure.
//! Criterion measures the individual operations.

use std::sync::Arc;

use jamm_bench::harness::{criterion_group, criterion_main, Criterion};
use jamm_bench::{compare_row, header};
use jamm_directory::replication::ReplicatedDirectory;
use jamm_directory::{DirectoryServer, Dn, Entry, Filter, Scope};

fn sensor_entry(i: usize) -> Entry {
    Entry::new(
        Dn::parse(&format!(
            "sensor=cpu,host=node{:04}.farm.lbl.gov,o=lbl,o=grid",
            i
        ))
        .unwrap(),
    )
    .with("objectclass", "sensor")
    .with("host", format!("node{i:04}.farm.lbl.gov"))
    .with("sensor", "cpu")
    .with("gateway", "gw.lbl.gov:8765")
    .with("status", "running")
}

fn populated(n: usize) -> DirectoryServer {
    let server = DirectoryServer::new("ldap://dir.lbl.gov", Dn::parse("o=grid").unwrap());
    for i in 0..n {
        server.add(sensor_entry(i)).unwrap();
    }
    server
}

fn report() {
    header(
        "E11: sensor-directory read/update behaviour, replication and failover",
        "section 2.2 directory-service discussion",
    );
    let n = 2_000;
    let server = populated(n);
    let filter = Filter::parse("(&(objectclass=sensor)(host=node01*))").unwrap();
    let base = Dn::parse("o=grid").unwrap();

    let t0 = std::time::Instant::now();
    let mut found = 0usize;
    for _ in 0..200 {
        found += server
            .search(&base, Scope::Subtree, &filter)
            .unwrap()
            .entries
            .len();
    }
    let search_rate = 200.0 / t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    for i in 0..n {
        server
            .modify(&sensor_entry(i).dn, |e| {
                e.set("lastupdate", vec!["20000515120001.000000".into()])
            })
            .unwrap();
    }
    let update_rate = n as f64 / t0.elapsed().as_secs_f64();

    println!("\n{n}-sensor directory:\n");
    compare_row(
        "read path (subtree search over 2000 entries)",
        "LDAP optimised for reads",
        &format!("{search_rate:.0} searches/s ({} matches each)", found / 200),
    );
    compare_row(
        "update path (refresh every sensor entry)",
        "updates are the weak point",
        &format!("{update_rate:.0} updates/s"),
    );

    // Replication and failover.
    let master = Arc::new(DirectoryServer::new(
        "ldap://master",
        Dn::parse("o=grid").unwrap(),
    ));
    let replica = Arc::new(DirectoryServer::new(
        "ldap://replica",
        Dn::parse("o=grid").unwrap(),
    ));
    let replicated = ReplicatedDirectory::new(Arc::clone(&master), vec![Arc::clone(&replica)]);
    for i in 0..500 {
        replicated.add_or_replace(sensor_entry(i)).unwrap();
    }
    master.set_available(false);
    let still_answering = replicated
        .search(&base, Scope::Subtree, &Filter::eq("objectclass", "sensor"))
        .map(|r| r.entries.len())
        .unwrap_or(0);
    compare_row(
        "reads during a master failure",
        "replication is critical to JAMM",
        &format!("{still_answering}/500 sensors still resolvable via the replica"),
    );
    println!();
}

fn bench_directory(c: &mut Criterion) {
    report();
    let server = populated(2_000);
    let base = Dn::parse("o=grid").unwrap();
    let filter = Filter::parse("(&(objectclass=sensor)(host=node01*))").unwrap();
    c.bench_function("directory_subtree_search_2000_entries", |b| {
        b.iter(|| {
            server
                .search(std::hint::black_box(&base), Scope::Subtree, &filter)
                .unwrap()
        })
    });
    c.bench_function("directory_lookup_by_dn", |b| {
        let dn = sensor_entry(1_234).dn;
        b.iter(|| server.lookup(std::hint::black_box(&dn)).unwrap())
    });
    c.bench_function("directory_update_entry", |b| {
        let dn = sensor_entry(42).dn;
        b.iter(|| {
            server
                .modify(std::hint::black_box(&dn), |e| {
                    e.set("lastupdate", vec!["20000515120002.000000".into()])
                })
                .unwrap()
        })
    });
    c.bench_function("directory_add_or_replace", |b| {
        let mut i = 0usize;
        b.iter(|| {
            server.add_or_replace(sensor_entry(i % 2_000)).unwrap();
            i += 1;
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_directory
}
criterion_main!(benches);
