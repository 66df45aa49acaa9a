//! Monitoring a compute farm with JAMM (paper §1.1).
//!
//! "it could be used in large compute farms or clusters that require
//! constant monitoring to ensure all nodes are running correctly."
//!
//! Runs the `jamm::testbed::farm` spec — a 32-node monitored cluster with
//! a process-recovery administrator — on the scenario engine, adds two
//! consumers to it, injects worker-process failures through the fault
//! timeline, and shows the administrator restarting them.  Also
//! demonstrates the fan-out argument of §2.3: adding consumers multiplies
//! delivered copies at the gateway, not work on the monitored nodes.
//!
//! ```text
//! cargo run --release --example cluster_monitoring
//! ```

use std::sync::atomic::Ordering;

use jamm::jamm_netsim::spec::{ArchiverDecl, SubscriberDecl};
use jamm::testbed::{self, Fault, ScenarioEngine, TimelineEntry};

fn main() {
    let nodes = 32;
    let mut spec = testbed::farm(nodes, 2).expect("static farm description is valid");
    spec.seed = 7;
    let gateways = vec![
        "gw0.farm.lbl.gov:8765".to_string(),
        "gw1.farm.lbl.gov:8765".to_string(),
    ];
    // An operations dashboard and a capacity planner both watch the farm;
    // the planner only keeps warnings and errors.
    spec.subscribers.push(SubscriberDecl {
        name: "dashboard".into(),
        host: "gw0.farm.lbl.gov".into(),
        via: gateways.clone(),
        drain_us: 100_000,
        capacity: 4_096,
        cpu_of: None,
    });
    spec.archivers.push(ArchiverDecl {
        name: "planner".into(),
        host: "gw1.farm.lbl.gov".into(),
        via: gateways.clone(),
        query: Some("(level>=warning)".into()),
    });
    // Fault injection: three workers die after 5 s.
    for node in ["node004", "node012", "node028"] {
        spec.timeline.push(TimelineEntry {
            at_us: 5_000_000,
            fault: Fault::ProcessKill {
                host: format!("{node}.farm.lbl.gov"),
                process: "worker".into(),
            },
        });
    }
    let mut farm = ScenarioEngine::new(spec).expect("static farm description is valid");
    let delivered = |farm: &ScenarioEngine| -> u64 {
        (gateways.iter())
            .filter_map(|g| farm.gateway(g))
            .map(|gw| gw.stats().events_out.load(Ordering::Relaxed))
            .sum()
    };

    println!("monitoring a {nodes}-node farm with 2 gateways, a dashboard and a planner\n");
    farm.run_until(5_000_000);

    println!("after 5 s of normal operation:");
    println!(
        "  entries in directory        : {}",
        farm.directory().entry_count()
    );
    println!("  events published            : {}", farm.published());
    println!("  event copies delivered      : {}", delivered(&farm));

    println!("\nkilling the worker process on node004, node012 and node028...");
    farm.run_until(10_000_000);

    let alive: Vec<&str> = ["node004", "node012", "node028"]
        .into_iter()
        .filter(|node| {
            let net = farm.net();
            net.host_by_name(&format!("{node}.farm.lbl.gov"))
                .is_some_and(|id| net.host(id).processes().any(|(p, up)| p == "worker" && up))
        })
        .collect();
    let admin = farm.recovery("farm-admin").expect("declared administrator");
    println!(
        "  recovery actions taken      : {}",
        admin.monitor.history().len()
    );
    println!("  workers alive again         : {alive:?}");
    println!(
        "  whole-farm outage alerts    : {}",
        admin.overview.alerts().len()
    );
    println!(
        "  warnings and errors planned : {}",
        farm.archive("planner").expect("declared archiver").len()
    );

    println!("\nper-consumer delivery counts (gateway fan-out, §2.3):");
    for gw in gateways.iter().filter_map(|g| farm.gateway(g)) {
        for report in gw.delivery_report() {
            println!(
                "  gateway {:<24} subscription {:<2} {:<12} {:>8} events {:>10} bytes {:>6} dropped",
                gw.name(),
                report.id,
                report.consumer,
                report.delivered,
                report.bytes,
                report.dropped
            );
        }
    }
}
