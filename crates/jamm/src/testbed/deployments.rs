//! The paper's two deployments as testbed specs.
//!
//! [`matisse`] is the §6 case study (Figure 4): JAMM monitors every host
//! of the DPSS storage cluster at LBNL, the receiving host at ISI and the
//! routers in between, while the MATISSE frame player pulls frames over
//! them.  [`farm`] is the §1.1 compute farm: a sensor manager on every
//! worker node and an administrator that restarts dead workers.  Each
//! renders spec text and parses it; callers adjust the returned spec's
//! fields (seed, frame size, `port=`, extra subscribers) and compile it
//! with [`ScenarioEngine::new`](super::ScenarioEngine::new).

use std::fmt::Write as _;

use jamm_netlogger::nlv::NlvChart;
use jamm_netsim::player::PlayerConfig;
use jamm_netsim::scenario::{matisse_spec_text, storage_path, TUNED_RCV_WINDOW};
use jamm_ulm::{keys, Event};

use super::{ScenarioSpec, SpecError};

/// The port the DPSS serves data on: what `port=` watches in E8.
pub const DPSS_PORT: u16 = 7_000;

/// The seed of the paper's MATISSE runs.
const MATISSE_SEED: u64 = 2000;

/// The MATISSE deployment with `servers` DPSS block servers, over the
/// Supernet WAN (`wan`) or the LAN variant.
///
/// One gateway per site, as in Figure 6: the storage hosts publish
/// through `gw.lbl.gov:8765`, the receiving host `mems.cairn.net` through
/// `gw.cairn.net:8765`.  Storage hosts sample every second, the receiving
/// host every 500 ms, and the first storage host's manager also polls
/// every router over SNMP.  The collector `nlv-analyst` and the archiver
/// `matisse` (warnings and errors only) subscribe to both gateways.
/// Fails when `servers` is 0.
pub fn matisse(wan: bool, servers: usize) -> Result<ScenarioSpec, SpecError> {
    let mut s = matisse_spec_text(wan, servers, MATISSE_SEED);
    let flows: Vec<String> = (1..=servers).map(|i| format!("dpss{i}-data")).collect();
    for (i, flow) in (1..=servers).zip(&flows) {
        let _ = writeln!(
            s,
            "flow {flow} dpss{i}.lbl.gov -> mems.cairn.net port={DPSS_PORT} \
             window={TUNED_RCV_WINDOW} via={}",
            storage_path(wan, i).join(",")
        );
    }
    let both = "gw.lbl.gov:8765,gw.cairn.net:8765";
    let _ = writeln!(s, "gateway gw.lbl.gov:8765 on dpss1.lbl.gov");
    let _ = writeln!(s, "gateway gw.cairn.net:8765 on mems.cairn.net");
    let _ = writeln!(s, "subscriber nlv-analyst on viz.cairn.net via={both}");
    let _ = writeln!(
        s,
        "archiver matisse on dpss1.lbl.gov via={both} query=(level>=warning)"
    );
    for i in 1..=servers {
        let _ = writeln!(s, "sensors dpss{i}.lbl.gov every=1s via=gw.lbl.gov:8765");
    }
    let _ = writeln!(
        s,
        "sensors mems.cairn.net every=500ms via=gw.cairn.net:8765"
    );
    let _ = writeln!(
        s,
        "player mems.cairn.net flows={} frame={}",
        flows.join(","),
        PlayerConfig::default().frame_bytes
    );
    let mut spec = ScenarioSpec::parse(&s)?;
    let routers = spec.routers.iter().map(|r| r.name.clone()).collect();
    if let Some(first) = spec.sensors.first_mut() {
        first.snmp = routers;
    }
    Ok(spec)
}

/// A monitored compute farm of `nodes` workers (`node001.farm.lbl.gov`
/// ...) behind one switch, each running a `worker` process and a sensor
/// manager that samples every second and publishes through one of
/// `gateways` gateways (`gw0.farm.lbl.gov:8765` ..., each on its own
/// host, assigned round-robin).  The administrator `farm-admin` on the
/// first gateway host restarts dead workers and alerts when all are
/// down.  Fails when `gateways` is 0.
pub fn farm(nodes: usize, gateways: usize) -> Result<ScenarioSpec, SpecError> {
    let gw = |g: usize| format!("gw{g}.farm.lbl.gov");
    let mut s = String::from("scenario farm\n");
    for i in 1..=nodes {
        let _ = writeln!(
            s,
            "host node{i:03}.farm.lbl.gov cpus=2 mem=1g process=worker"
        );
    }
    for g in 0..gateways {
        let _ = writeln!(s, "host {}", gw(g));
    }
    let _ = writeln!(s, "link cluster-switch bw=1gbit delay=150us");
    let _ = writeln!(s, "router farm-switch links=cluster-switch");
    let mut all = Vec::new();
    for g in 0..gateways {
        let _ = writeln!(s, "gateway {0}:8765 on {0}", gw(g));
        all.push(format!("{}:8765", gw(g)));
    }
    for i in 0..nodes {
        let via = i
            .checked_rem(gateways)
            .map_or(String::new(), |g| gw(g) + ":8765");
        let _ = writeln!(
            s,
            "sensors node{:03}.farm.lbl.gov every=1s via={via}",
            i + 1
        );
    }
    let _ = writeln!(
        s,
        "recovery farm-admin on {} via={} process=worker",
        gw(0),
        all.join(",")
    );
    ScenarioSpec::parse(&s)
}

/// The Figure 7 chart of a MATISSE log (see
/// [`ScenarioEngine::merged_log`](super::ScenarioEngine::merged_log)):
/// frame lifelines over the DPSS and player stages, CPU and memory
/// loadlines of the receiving host, and its TCP retransmission points.
pub fn figure7_chart(log: &[Event]) -> NlvChart {
    let client = "mems.cairn.net";
    NlvChart::build(
        log,
        &[
            keys::matisse::DPSS_SERV_IN,
            keys::matisse::DPSS_START_WRITE,
            keys::matisse::DPSS_END_WRITE,
            keys::matisse::START_READ_FRAME,
            keys::matisse::END_READ_FRAME,
            keys::matisse::START_PUT_IMAGE,
            keys::matisse::END_PUT_IMAGE,
        ],
        &[
            (client, keys::cpu::SYS),
            (client, keys::cpu::USER),
            (client, keys::mem::FREE),
        ],
        &[(Some(client), keys::tcp::RETRANSMITS)],
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use jamm_directory::{Dn, Filter, Scope};
    use jamm_netsim::spec::SubscriberDecl;

    use super::super::{Fault, ScenarioEngine, TimelineEntry};
    use super::*;

    const CLIENT: &str = "mems.cairn.net";
    const GATEWAYS: [&str; 2] = ["gw.lbl.gov:8765", "gw.cairn.net:8765"];

    fn small_lan() -> ScenarioEngine {
        let mut spec = matisse(false, 2).unwrap();
        spec.players[0].frame_bytes = 400_000;
        spec.seed = 11;
        ScenarioEngine::new(spec).unwrap()
    }

    /// Event copies the MATISSE gateways handed to subscriptions.
    fn routed(engine: &ScenarioEngine) -> u64 {
        (GATEWAYS.iter())
            .map(|g| {
                engine
                    .gateway(g)
                    .unwrap()
                    .stats()
                    .events_out
                    .load(Ordering::Relaxed)
            })
            .sum()
    }

    fn sensors_running(engine: &ScenarioEngine) -> usize {
        let running = Filter::and(vec![
            Filter::eq("objectclass", "sensor"),
            Filter::eq("status", "running"),
        ]);
        let grid = Dn::root().child("o", "grid");
        let found = engine.directory().search(&grid, Scope::Subtree, &running);
        found.unwrap().entries.len()
    }

    fn worker_alive(engine: &ScenarioEngine, node: usize) -> bool {
        let id = engine
            .net()
            .host_by_name(&format!("node{node:03}.farm.lbl.gov"));
        (engine.net().host(id.unwrap()).processes()).any(|(p, alive)| p == "worker" && alive)
    }

    fn kill_worker(at_us: u64, node: usize) -> TimelineEntry {
        TimelineEntry {
            at_us,
            fault: Fault::ProcessKill {
                host: format!("node{node:03}.farm.lbl.gov"),
                process: "worker".into(),
            },
        }
    }

    #[test]
    fn deployment_monitors_the_application_end_to_end() {
        let mut jamm = small_lan();
        jamm.run_until(8_000_000);
        // The application made progress...
        let player = jamm.player(CLIENT).unwrap();
        assert!(player.player.frames_displayed() > 0);
        assert!(!player.trace.is_empty());
        // ...the sensors were published and ran...
        assert!(sensors_running(&jamm) > 0);
        assert!(jamm.published() > 0);
        // ...and the collector received monitoring data through the gateways.
        let collected = jamm.drained().count();
        assert!(collected > 0);
        assert!(routed(&jamm) >= collected as u64);
        // The merged log is time ordered and contains both kinds of events.
        let log = jamm.merged_log();
        assert!(log.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert!(log
            .iter()
            .any(|e| e.event_type == keys::matisse::END_READ_FRAME));
        assert!(log.iter().any(|e| e.event_type == keys::cpu::SYS));
    }

    #[test]
    fn figure7_chart_contains_lifelines_and_loadlines() {
        let mut jamm = small_lan();
        jamm.run_until(6_000_000);
        let chart = figure7_chart(&jamm.merged_log());
        assert!(!chart.lifelines.is_empty(), "frame lifelines present");
        assert!(chart.loadlines.iter().any(|l| !l.samples.is_empty()));
        assert!(chart.time_range().is_some());
    }

    #[test]
    fn port_triggered_monitoring_produces_fewer_events_than_always_on() {
        let run = |port_triggered: bool| {
            let mut spec = matisse(false, 1).unwrap();
            // Frames only for the first part of the run; afterwards the
            // application is idle and on-demand monitoring should go quiet.
            spec.players[0].frame_bytes = 400_000;
            spec.players[0].max_frames = 5;
            spec.seed = 3;
            spec.duration_us = 20_000_000;
            for s in &mut spec.sensors {
                s.port = port_triggered.then_some(DPSS_PORT);
            }
            ScenarioEngine::new(spec).unwrap().run().published
        };
        let always_on = run(false);
        let on_demand = run(true);
        assert!(
            on_demand < always_on / 2,
            "port-triggered monitoring should collect far less: {on_demand} vs {always_on}"
        );
        assert!(on_demand > 0, "but not nothing");
    }

    #[test]
    fn matisse_scenario_runs_and_emits_trace() {
        let mut spec = matisse(true, 4).unwrap();
        spec.seed = 3;
        let mut jamm = ScenarioEngine::new(spec).unwrap();
        jamm.run_until(10_000_000);
        let player = jamm.player(CLIENT).unwrap();
        assert!(player.player.frames_displayed() > 0, "some frames arrive");
        assert!(!player.trace.is_empty());
        let client = jamm.net().host(player.player.host);
        assert!(
            client.stats().tcp_retransmits > 0,
            "the WAN run shows retransmissions"
        );
        let rate = jamm.application_mbps();
        assert!(rate > 3.0 && rate < 200.0, "aggregate {rate:.1} Mbit/s");
    }

    /// Sensors only read the network, so the monitored application's
    /// numbers are those of the application running alone: the constants
    /// are the §6 four-server WAN run, seed 2000, 30 s, as the hand-wired
    /// deployment produced them.
    #[test]
    fn matisse_application_is_unperturbed_by_the_testbed() {
        let mut jamm = ScenarioEngine::new(matisse(true, 4).unwrap()).unwrap();
        jamm.run_until(30_000_000);
        let player = jamm.player(CLIENT).unwrap();
        let served: u64 = player.dpss.servers().iter().map(|s| s.bytes_served).sum();
        let client = jamm.net().host(player.player.host);
        assert_eq!(player.player.frames_displayed(), 27);
        assert_eq!(served, 41_773_487);
        assert_eq!(client.stats().tcp_retransmits, 45);
        assert_eq!(player.player.read_sizes.len(), 3_379);
    }

    #[test]
    fn farm_registers_workers() {
        let jamm = ScenarioEngine::new(farm(16, 1).unwrap()).unwrap();
        assert!((1..=16).all(|n| worker_alive(&jamm, n)));
    }

    #[test]
    fn cluster_monitors_all_nodes_and_recovers_dead_workers() {
        let mut spec = farm(8, 1).unwrap();
        spec.seed = 17;
        // Between two process samples, so the death is still visible.
        spec.timeline.push(kill_worker(3_500_000, 4));
        let mut cluster = ScenarioEngine::new(spec).unwrap();
        cluster.run_until(3_000_000);
        assert!(cluster.published() > 0);
        assert!(
            cluster.directory().entry_count() >= 8 * 4,
            "sensors published"
        );
        // Kill a worker; the process monitor notices and restarts it.
        cluster.run_until(3_500_001);
        assert!(!worker_alive(&cluster, 4));
        cluster.run_until(9_500_000);
        assert!(
            worker_alive(&cluster, 4),
            "restarted by the recovery consumer"
        );
        let admin = cluster.recovery("farm-admin").unwrap();
        assert!(!admin.monitor.history().is_empty());
    }

    #[test]
    fn consumers_multiply_delivered_volume_not_published_volume() {
        let run = |consumers: usize| {
            let mut spec = farm(4, 1).unwrap();
            spec.seed = 5;
            spec.duration_us = 5_000_000;
            for i in 0..consumers {
                spec.subscribers.push(SubscriberDecl {
                    name: format!("consumer-{i}"),
                    host: "gw0.farm.lbl.gov".into(),
                    via: vec!["gw0.farm.lbl.gov:8765".into()],
                    drain_us: 2_000,
                    capacity: 4_096,
                    cpu_of: None,
                });
            }
            let report = ScenarioEngine::new(spec).unwrap().run();
            let delivered: u64 = report.consumers.iter().map(|c| c.delivered).sum();
            (report.published, delivered)
        };
        let (one_published, one_delivered) = run(1);
        let (many_published, many_delivered) = run(8);
        // The sensors do the same work regardless of consumer count...
        assert_eq!(one_published, many_published);
        // ...and the gateway absorbs the fan-out.
        assert!(many_delivered >= 7 * one_delivered);
    }

    #[test]
    fn overview_alert_fires_only_when_every_worker_is_down() {
        let mut spec = farm(3, 1).unwrap();
        spec.seed = 9;
        spec.timeline.push(kill_worker(2_000_000, 1));
        spec.timeline.push(kill_worker(2_000_000, 2));
        let mut cluster = ScenarioEngine::new(spec).unwrap();
        cluster.run_until(3_000_000);
        // One worker stays up the whole time, so the full-outage alert
        // must not fire.
        let admin = cluster.recovery("farm-admin").unwrap();
        assert!(admin.overview.alerts().is_empty());
    }
}
