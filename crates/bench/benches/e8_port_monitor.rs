//! E8 — §2.2 the port monitor agent's data reduction.
//!
//! Paper: "The port monitor has proven itself to be a very useful component,
//! greatly reducing the total amount of monitoring data that must be
//! collected and managed."  On-demand (port-triggered) monitoring collects
//! host data only while the monitored application is actually transferring.

use jamm::deployment::{DeploymentConfig, JammDeployment};
use jamm_bench::{compare_row, data_row, header};

/// Run the MATISSE LAN scenario where the player fetches a fixed number of
/// frames and then goes idle; measure how much monitoring data is collected
/// with always-on vs port-triggered sensors.
fn run(port_triggered: bool, duty_frames: u64, secs: f64) -> (u64, u64) {
    let mut cfg = DeploymentConfig::matisse_lan(1);
    cfg.matisse.seed = 8;
    cfg.matisse.player.frame_bytes = 400_000;
    cfg.matisse.player.max_frames = duty_frames;
    cfg.port_triggered = port_triggered;
    let mut jamm = JammDeployment::matisse(cfg).unwrap();
    jamm.run_secs(secs);
    (jamm.events_published(), jamm.events_delivered())
}

fn main() {
    header(
        "E8: always-on vs port-triggered (on-demand) host monitoring",
        "section 2.2 port monitor agent: 'greatly reducing the total amount of monitoring data'",
    );

    println!("\n40 simulated seconds; the application transfers frames only at the start:\n");
    data_row(&[
        format!("{:<16}", "application"),
        format!("{:<16}", "monitoring"),
        format!("{:>18}", "events collected"),
    ]);
    let mut table = Vec::new();
    for &(frames, label) in &[(5u64, "brief transfer"), (60u64, "busy throughout")] {
        for &(triggered, mode) in &[(false, "always-on"), (true, "port-triggered")] {
            let (published, _) = run(triggered, frames, 40.0);
            data_row(&[
                format!("{label:<16}"),
                format!("{mode:<16}"),
                format!("{published:>18}"),
            ]);
            table.push((frames, triggered, published));
        }
    }

    let always_brief = table.iter().find(|t| t.0 == 5 && !t.1).unwrap().2;
    let triggered_brief = table.iter().find(|t| t.0 == 5 && t.1).unwrap().2;
    let always_busy = table.iter().find(|t| t.0 == 60 && !t.1).unwrap().2;
    let triggered_busy = table.iter().find(|t| t.0 == 60 && t.1).unwrap().2;

    println!("\npaper vs measured:\n");
    compare_row(
        "data reduction for a mostly-idle application",
        "greatly reduced",
        &format!(
            "{:.0}% fewer events ({} -> {})",
            100.0 * (1.0 - triggered_brief as f64 / always_brief.max(1) as f64),
            always_brief,
            triggered_brief
        ),
    );
    compare_row(
        "data while the application is busy",
        "monitoring still happens on demand",
        &format!(
            "port-triggered collects {:.0}% of always-on ({} vs {})",
            100.0 * triggered_busy as f64 / always_busy.max(1) as f64,
            triggered_busy,
            always_busy
        ),
    );
}
