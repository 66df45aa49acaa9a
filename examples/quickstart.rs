//! Quickstart: monitor a small Grid application with JAMM.
//!
//! Builds the LAN variant of the MATISSE scenario (two DPSS storage servers
//! streaming video frames to a client), deploys JAMM over it — sensor
//! managers on every host, site event gateways, the LDAP-like sensor
//! directory, an event collector and an archiver — runs it for a few
//! simulated seconds, and prints what the monitoring system saw.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use jamm::deployment::{DeploymentConfig, JammDeployment};
use jamm_directory::{Dn, Filter, Scope};

fn main() {
    // 1. Configure the deployment: LAN topology, two DPSS servers, archive on.
    let mut config = DeploymentConfig::matisse_lan(2);
    config.matisse.player.frame_bytes = 800_000;
    config.matisse.seed = 42;
    let mut jamm = JammDeployment::matisse(config).expect("static deployment description is valid");

    // 2. Run ten simulated seconds of the monitored application.
    println!("running 10 simulated seconds of the monitored application...\n");
    jamm.run_secs(10.0);

    // 3. What did the directory end up knowing about?
    println!("== sensor directory ==");
    let sensors = jamm
        .directory
        .search(
            &Dn::parse("o=grid").unwrap(),
            Scope::Subtree,
            &Filter::parse("(objectclass=sensor)").unwrap(),
        )
        .expect("directory reachable");
    for entry in &sensors.entries {
        println!(
            "  {:<55} status={:<8} gateway={}",
            entry.dn.to_string(),
            entry.get("status").unwrap_or("?"),
            entry.get("gateway").unwrap_or("?"),
        );
    }

    // 4. Application progress and monitoring volume.
    println!("\n== summary ==");
    println!(
        "  frames displayed ............ {}",
        jamm.scenario.player.frames_displayed()
    );
    println!(
        "  application events .......... {}",
        jamm.application_event_count()
    );
    println!(
        "  sensor events published ..... {}",
        jamm.events_published()
    );
    println!(
        "  events delivered to consumers {}",
        jamm.events_delivered()
    );
    println!("  events archived ............. {}", jamm.archive.len());
    println!(
        "  DPSS -> client throughput ... {:.1} Mbit/s",
        jamm.scenario.aggregate_mbps()
    );
    println!(
        "  TCP retransmissions ......... {}",
        jamm.scenario.client_retransmits()
    );

    // 5. A peek at the merged NetLogger log (what nlv would consume).
    let log = jamm.merged_log();
    println!("\n== first 5 lines of the merged ULM log ==");
    for event in log.iter().take(5) {
        println!("  {}", jamm_ulm::text::encode(event));
    }
    println!("  ... ({} events total)", log.len());
}
