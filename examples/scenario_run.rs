//! Run a declarative scenario file and print the analyser's report.
//!
//! ```sh
//! cargo run --example scenario_run -- scenarios/slow_consumer.scn
//! ```
//!
//! The spec format, fault vocabulary and assertion API are documented in
//! `docs/ARCHITECTURE.md` ("Scenario engine").  The printed report is
//! deterministic for a given spec + seed: running this twice produces
//! byte-identical output, which is exactly what the scenario suite's
//! determinism test asserts.

use jamm::testbed::ScenarioEngine;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: scenario_run <spec.scn>");
        std::process::exit(2);
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("read {path}: {e}");
            std::process::exit(2);
        }
    };
    let engine = match ScenarioEngine::from_text(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let report = engine.run();
    print!("{}", report.render_text());
}
