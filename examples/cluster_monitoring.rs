//! Monitoring a compute farm with JAMM (paper §1.1).
//!
//! "it could be used in large compute farms or clusters that require
//! constant monitoring to ensure all nodes are running correctly."
//!
//! Builds a 32-node monitored cluster, injects worker-process failures, and
//! shows the process-monitor consumer restarting them and the fault being
//! visible in the event archive.  Also demonstrates the fan-out argument of
//! §2.3: adding consumers multiplies delivered copies at the gateway, not
//! work on the monitored nodes.
//!
//! ```text
//! cargo run --release --example cluster_monitoring
//! ```

use jamm::cluster::ClusterDeployment;
use jamm_gateway::Predicate;
use jamm_ulm::Level;

fn main() {
    let nodes = 32;
    let mut cluster = ClusterDeployment::new(nodes, 2, 7);
    // An operations dashboard and a capacity planner both watch the farm;
    // the planner only wants warnings and errors.
    cluster.attach_consumers(1, vec![]);
    cluster.attach_consumers(1, vec![Predicate::MinLevel(Level::Warning.severity())]);

    println!("monitoring a {nodes}-node farm with 2 gateways and 3 consumers\n");
    cluster.run_secs(5.0);

    println!("after 5 s of normal operation:");
    println!(
        "  sensor entries in directory : {}",
        cluster.directory.entry_count()
    );
    println!(
        "  events published            : {}",
        cluster.events_published()
    );
    println!(
        "  event copies delivered      : {}",
        cluster.events_delivered()
    );

    // Fault injection: three workers die.
    for node in [3, 11, 27] {
        cluster.kill_worker(node);
    }
    println!("\nkilled the worker process on nodes 3, 11 and 27...");
    cluster.run_secs(5.0);

    let recovered: Vec<usize> = [3usize, 11, 27]
        .into_iter()
        .filter(|&n| cluster.worker_alive(n))
        .collect();
    println!(
        "  recovery actions taken      : {}",
        cluster.process_monitor.history().len()
    );
    println!("  workers alive again         : {recovered:?}");
    println!(
        "  whole-farm outage alerts    : {}",
        cluster.overview.alerts().len()
    );

    println!("\nper-consumer delivery counts (gateway fan-out, §2.3):");
    for gw in &cluster.gateways {
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
