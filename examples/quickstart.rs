//! Quickstart: monitor a small Grid application with JAMM.
//!
//! Takes the LAN variant of the MATISSE deployment as a testbed spec
//! (`jamm::testbed::matisse`: two DPSS storage servers streaming video
//! frames to a client, with sensor managers on every host, site event
//! gateways, the LDAP-like sensor directory, an event collector and an
//! archiver), runs it for a few simulated seconds on the scenario
//! engine, and prints what the monitoring system saw.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use jamm::testbed::{self, ScenarioEngine};
use jamm_directory::{Dn, Filter, Scope};

fn main() {
    // 1. Take the deployment's spec: LAN topology, two DPSS servers, an
    //    archiver keeping warnings and errors; adjust frame size and seed.
    let mut spec = testbed::matisse(false, 2).expect("static deployment description is valid");
    spec.players[0].frame_bytes = 800_000;
    spec.seed = 42;
    let mut jamm = ScenarioEngine::new(spec).expect("static deployment description is valid");

    // 2. Run ten simulated seconds of the monitored application.
    println!("running 10 simulated seconds of the monitored application...\n");
    jamm.run_until(10_000_000);

    // 3. What did the directory end up knowing about?
    println!("== sensor directory ==");
    let sensors = jamm
        .directory()
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
    let app = jamm.player("mems.cairn.net").expect("declared player");
    println!("\n== summary ==");
    println!(
        "  frames displayed ............ {}",
        app.player.frames_displayed()
    );
    println!("  application events .......... {}", app.trace.len());
    println!("  sensor events published ..... {}", jamm.published());
    println!("  events delivered to consumers {}", jamm.drained().count());
    println!(
        "  events archived ............. {}",
        jamm.archive("matisse").expect("declared archiver").len()
    );
    println!(
        "  DPSS -> client throughput ... {:.1} Mbit/s",
        jamm.application_mbps()
    );
    println!(
        "  TCP retransmissions ......... {}",
        jamm.net().host(app.player.host).stats().tcp_retransmits
    );

    // 5. A peek at the merged NetLogger log (what nlv would consume).
    let log = jamm.merged_log();
    println!("\n== first 5 lines of the merged ULM log ==");
    for event in log.iter().take(5) {
        println!("  {}", jamm_ulm::text::encode(event));
    }
    println!("  ... ({} events total)", log.len());
}
