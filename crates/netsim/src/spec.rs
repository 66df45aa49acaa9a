//! The declarative scenario format.
//!
//! A scenario is a small line-oriented text file: a topology (hosts,
//! links, routers, TCP flows), the monitored application (a MATISSE frame
//! player over DPSS flows), a monitoring deployment (gateways,
//! subscribers, archivers, per-host sensors, a process-recovery
//! administrator), and a **fault timeline** of `at <time> ...` entries
//! applied deterministically at simulated ticks.  The format is std-only — no external parser — in the same
//! spirit as `jamm_core::query::Predicate`: parse errors carry the byte
//! position and a reason, and every spec re-renders canonically through
//! [`std::fmt::Display`] such that parse → render → parse round-trips.
//! [`compile_topology`] builds a spec's hosts, links and routers onto a
//! fresh [`Network`]; the monitoring deployment and the fault timeline
//! run in the `jamm` facade's `testbed` module, which wires the real
//! JAMM components onto that network.
//!
//! ```text
//! scenario slow-consumer
//! seed 7
//! duration 30s
//!
//! host mems.cairn.net cpus=1 pkt-cost=50 process=mplay
//! link viz-gige bw=1gbit delay=150us
//! gateway gw-isi on mems.cairn.net
//! subscriber viz on mems.cairn.net via=gw-isi drain=2ms
//! sensors mems.cairn.net every=100ms via=gw-isi
//!
//! at 10s subscriber viz stall 80ms
//! at 20s subscriber viz resume
//! ```
//!
//! The paper's two deployments (`jamm::testbed::matisse` and
//! `jamm::testbed::farm` render them) use five more forms:
//!
//! ```text
//! player mems.cairn.net flows=dpss1-data,dpss2-data frame=1500000 frames=5
//! sensors dpss1.lbl.gov every=1s via=gw-lbl port=7000 snmp=lbl-border-router
//! archiver keeper on dpss1.lbl.gov via=gw-lbl query=(level>=warning)
//! recovery admin on ops.farm.lbl.gov via=gw0 process=worker
//! at 3s process node001.farm.lbl.gov kill worker
//! ```

use std::fmt;

use crate::clock::SimClock;
use crate::host::{HostId, HostSpec};
use crate::link::{LinkId, LinkSpec, Router};
use crate::network::Network;

/// A parse failure: where in the input, and why.
///
/// Mirrors `jamm_core::query::ParseError` — the byte offset points at
/// the token that failed, so an editor can jump straight to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario parse error at byte {}: {}",
            self.pos, self.reason
        )
    }
}

impl std::error::Error for SpecError {}

/// A host declaration (`host <name> [key=value ...]`).
///
/// Unset optional knobs fall back to [`crate::host::HostSpec`] defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostDecl {
    /// Host name (also its sensor identity).
    pub name: String,
    /// CPU count.
    pub cpus: Option<u32>,
    /// Physical memory in KB (`mem=` accepts byte sizes, stored as KB).
    pub memory_kb: Option<u64>,
    /// Per-packet receive cost, microseconds (`pkt-cost=`).
    pub pkt_cost_us: Option<f64>,
    /// Extra per-packet cost fraction per additional active socket.
    pub socket_overhead: Option<f64>,
    /// Kernel receive buffer, bytes (`rcv-buffer=`).
    pub rcv_buffer_bytes: Option<u64>,
    /// Driver loss probability per extra concurrent socket.
    pub multi_socket_loss: Option<f64>,
    /// Processes registered on the host (`process=` repeats).  A host
    /// with a `sensors` line also runs a process sensor for each.
    pub processes: Vec<String>,
}

/// A link declaration (`link <name> bw=<rate> delay=<dur> [queue=<size>]
/// [error-rate=<f>]`).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDecl {
    /// Link name.
    pub name: String,
    /// Capacity, bits per second.
    pub bandwidth_bps: u64,
    /// One-way delay, microseconds.
    pub delay_us: u64,
    /// Queue bound in bytes (default: the simulator's BDP rule).
    pub queue_bytes: Option<u64>,
    /// Random line-error rate.
    pub error_rate: Option<f64>,
}

/// A router declaration (`router <name> links=<l1>,<l2>,...`).
#[derive(Debug, Clone, PartialEq)]
pub struct RouterDecl {
    /// Router name.
    pub name: String,
    /// Links whose SNMP counters this router exposes.
    pub links: Vec<String>,
}

/// A TCP flow declaration (`flow <name> <src> -> <dst> port=<p>
/// window=<size> via=<l1>,... [bytes=<size>]`).  Without `bytes=` the
/// flow is an unlimited bulk stream, unless a `player` names it: then it
/// opens idle and carries only the blocks the player's DPSS serves.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDecl {
    /// Flow name.
    pub name: String,
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
    /// Destination port (what the port monitor watches).
    pub port: u16,
    /// Receiver window, bytes.
    pub window: u64,
    /// Link names along the path.
    pub via: Vec<String>,
    /// Total bytes to transfer, or `None` for an unlimited stream.
    pub bytes: Option<u64>,
}

/// An event gateway (`gateway <name> on <host> [qos=on ...]`).
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayDecl {
    /// Gateway name (what sensors and consumers reference).
    pub name: String,
    /// Host the gateway runs on (crashing it takes the gateway down).
    pub host: String,
    /// Delivery-QoS plane configuration (`qos=on` plus optional
    /// threshold overrides); `None` runs the gateway without tiers.
    pub qos: Option<QosDecl>,
}

/// The QoS attributes of a gateway line.  Every field is optional and
/// falls back to the `jamm_gateway::QosConfig` default; the mere
/// presence of `qos=on` (or any qos attribute) enables the plane.
///
/// ```text
/// gateway gw on mon qos=on retier=64 lag-enter=0.25 lag-exit=0.1
///     prob-enter=0.6 prob-exit=0.35 shed-enter=0.75 shed-exit=0.4
///     budget-lagging=0.5 budget-probation=0.25
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosDecl {
    /// Publishes between re-tier passes (`retier=`).
    pub retier: Option<u64>,
    /// Score at which a fast subscription becomes lagging (`lag-enter=`).
    pub lag_enter: Option<f64>,
    /// Score below which a lagging subscription returns to fast
    /// (`lag-exit=`).
    pub lag_exit: Option<f64>,
    /// Score at which a lagging subscription enters probation
    /// (`prob-enter=`).
    pub probation_enter: Option<f64>,
    /// Score below which a probation subscription returns to lagging
    /// (`prob-exit=`).
    pub probation_exit: Option<f64>,
    /// Pressure at which the gateway declares overload (`shed-enter=`).
    pub shed_enter: Option<f64>,
    /// Pressure below which the shed level steps back down
    /// (`shed-exit=`).
    pub shed_exit: Option<f64>,
    /// Queue-budget fraction of lagging subscriptions
    /// (`budget-lagging=`).
    pub budget_lagging: Option<f64>,
    /// Queue-budget fraction of probation subscriptions
    /// (`budget-probation=`).
    pub budget_probation: Option<f64>,
}

/// A subscribing consumer (`subscriber <name> on <host> via=<gw>,...
/// [drain=<dur>] [capacity=<n>] [cpu-of=<host>]`).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriberDecl {
    /// Consumer principal (the `TARGET` of its lifeline trace points).
    pub name: String,
    /// Host the consumer runs on.
    pub host: String,
    /// Gateways it subscribes to.
    pub via: Vec<String>,
    /// Drain period, microseconds (default 2 ms).
    pub drain_us: u64,
    /// Per-gateway subscription queue bound, events (default 4096).
    pub capacity: usize,
    /// Couple drain scheduling to this host's receive-path CPU: while the
    /// named host is saturated the consumer is starved and its drain slot
    /// is deferred — how the MATISSE frame player behaves on the
    /// overloaded receiving node.
    pub cpu_of: Option<String>,
}

/// A pool of dashboard readers over one continuous query
/// (`readers <name> on <host> n=<count> via=<gw> query=<predicate>
/// [every=<dur>]`).
///
/// At compile time the engine registers `query` as a materialized view
/// on the gateway; every `every` period each of the `n` readers grabs
/// the view's current snapshot — an `Arc` clone, never a rescan.  The
/// per-pool counters feed the `served_from_views` and
/// `reader_rate_flat` expectations: reader throughput must stay flat as
/// `n` grows while archive scan counters stay at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ReaderDecl {
    /// Pool name (also the registered view's name).
    pub name: String,
    /// Host the readers run on.
    pub host: String,
    /// Number of concurrent readers in the pool.
    pub count: u64,
    /// Gateway whose view they read.
    pub via: String,
    /// The continuous query's predicate text (no whitespace — the query
    /// grammar is fully parenthesized).
    pub query: String,
    /// Read period per reader, microseconds (default 100 ms).
    pub every_us: u64,
}

/// An archiver agent (`archiver <name> on <host> via=<gw>,...
/// [query=<predicate>]`).  It publishes its catalog in the testbed's
/// directory once per simulated second.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiverDecl {
    /// Archiver consumer principal.
    pub name: String,
    /// Host the archiver runs on.
    pub host: String,
    /// Gateways it subscribes to.
    pub via: Vec<String>,
    /// Subscription filter, in the readers' predicate grammar (`None`
    /// archives everything).
    pub query: Option<String>,
}

/// The monitored application (`player <host> flows=<f>,... frame=<size>
/// [frames=<n>]`): a MATISSE frame player on `host` pulling frames from
/// a DPSS whose block servers are the sources of the named flows.  It
/// ticks right after the network each step and keeps its own NetLogger
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayerDecl {
    /// Host the player runs on (every named flow ends here).
    pub host: String,
    /// The DPSS data flows, one per block server.
    pub flows: Vec<String>,
    /// Frame size, bytes.
    pub frame_bytes: u64,
    /// Frames to fetch before going idle (0 = unlimited).
    pub max_frames: u64,
}

/// A farm administrator (`recovery <name> on <host> via=<gw>,...
/// process=<p>`): a process monitor that restarts `p` wherever a process
/// sensor reports it dead, and an overview monitor that alerts once `p`
/// is down on every host that declares it (§1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryDecl {
    /// Consumer principal of both monitors.
    pub name: String,
    /// Host the administrator runs on.
    pub host: String,
    /// Gateways it subscribes to.
    pub via: Vec<String>,
    /// The watched process.
    pub process: String,
}

/// Per-host sensors (`sensors <host> every=<dur> via=<gw>
/// [backoff=<dur>] [summaries=<n>] [port=<n>] [snmp=<router>,...]`).
///
/// The testbed runs a sensor manager on the host with CPU, memory and
/// TCP sensors, a process sensor per `process=` of the host's
/// declaration and an SNMP sensor per `snmp=` router (§2.2's remote
/// network sensors), all sampling at the given period and publishing
/// through the named gateway (failing over via the directory when it is
/// down or partitioned away).  With `port=` the CPU, memory and TCP
/// sensors run only while the port monitor sees traffic to the host on
/// that port (the paper's on-demand monitoring).  With `backoff=` the host's publisher carries a
/// circuit breaker: after a failed routing attempt it stops probing for
/// a jittered exponential delay (base `backoff`, capped at 8x),
/// buffering locally, instead of re-resolving the directory on every
/// period — the self-healing-client discipline on the simulated clock.
/// With `summaries=<n>` every n-th publishing tick also emits a
/// `*_AVG_*` summary event, the protected stream overload shedding must
/// never cut.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorDecl {
    /// Monitored host.
    pub host: String,
    /// Emission period, microseconds.
    pub every_us: u64,
    /// Preferred gateway.
    pub via: String,
    /// Circuit-breaker base delay after a failed gateway resolution,
    /// microseconds (`None` = probe every period, the legacy behaviour).
    pub backoff_us: Option<u64>,
    /// Emit a summary event every n-th publishing tick (`None` = raw
    /// readings only).
    pub summary_every: Option<u64>,
    /// Port whose traffic triggers the host sensors (`None` = always on).
    pub port: Option<u16>,
    /// Routers this host's manager polls over SNMP.
    pub snmp: Vec<String>,
}

/// One fault-timeline entry: apply `fault` once the simulated clock
/// reaches `at_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Simulated microseconds from scenario start.
    pub at_us: u64,
    /// What happens.
    pub fault: Fault,
}

/// The fault vocabulary of the timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `link <name> degrade <rate>` — clamp capacity to the given rate.
    LinkDegrade {
        /// Link name.
        link: String,
        /// New capacity, bits per second.
        bandwidth_bps: u64,
    },
    /// `link <name> restore` — undo a degrade.
    LinkRestore {
        /// Link name.
        link: String,
    },
    /// `host <name> crash` — kill its processes, sensors, gateways,
    /// consumers and flows.
    HostCrash {
        /// Host name.
        host: String,
    },
    /// `host <name> recover` — bring everything on the host back.
    HostRecover {
        /// Host name.
        host: String,
    },
    /// `partition {a,b} {c}` — monitoring traffic between hosts in
    /// different groups is cut; unlisted hosts stay reachable from all.
    Partition {
        /// The partition groups.
        groups: Vec<Vec<String>>,
    },
    /// `heal` — remove the partition.
    Heal,
    /// `subscriber <name> stall <dur>` — the consumer drains only once
    /// per `<dur>` (a slow/hung tier).
    SubscriberStall {
        /// Consumer name.
        name: String,
        /// Stalled drain period, microseconds.
        period_us: u64,
    },
    /// `subscriber <name> resume` — back to the declared drain period.
    SubscriberResume {
        /// Consumer name.
        name: String,
    },
    /// `sensor <host> stop` — the host's sensors are stopped.
    SensorStop {
        /// Host name.
        host: String,
    },
    /// `sensor <host> start` — they are started again.
    SensorStart {
        /// Host name.
        host: String,
    },
    /// `sensor <host> period <dur>` — change the emission period
    /// (`*` applies to every sensor: diurnal load modulation).
    SensorPeriod {
        /// Host name, or `*` for all.
        host: String,
        /// New period, microseconds.
        every_us: u64,
    },
    /// `replay <archiver> via <gateway>` — replay everything the named
    /// archiver has stored back through a gateway.
    Replay {
        /// Archiver name.
        archiver: String,
        /// Gateway to publish the replayed events through.
        via: String,
    },
    /// `process <host> kill <name>` — one process on the host dies.
    ProcessKill {
        /// Host name.
        host: String,
        /// Process name.
        process: String,
    },
}

/// A parsed scenario: topology + monitoring deployment + fault timeline.
///
/// Build one with [`ScenarioSpec::parse`]; compile its topology with
/// [`compile_topology`], or run the whole spec with the `jamm` facade's
/// `testbed::ScenarioEngine`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name.
    pub name: String,
    /// RNG seed for the simulated network.
    pub seed: u64,
    /// Simulator tick, microseconds (default 1 ms).
    pub tick_us: u64,
    /// Run length, simulated microseconds (default 30 s).
    pub duration_us: u64,
    /// Self-lifeline sampling rate (1-in-N publishes; default 16).
    pub sample_every: u64,
    /// Hosts, in declaration order (which fixes simulator IDs).
    pub hosts: Vec<HostDecl>,
    /// Links, in declaration order.
    pub links: Vec<LinkDecl>,
    /// Routers.
    pub routers: Vec<RouterDecl>,
    /// TCP flows.
    pub flows: Vec<FlowDecl>,
    /// Event gateways.
    pub gateways: Vec<GatewayDecl>,
    /// Subscribing consumers.
    pub subscribers: Vec<SubscriberDecl>,
    /// Dashboard reader pools over continuous queries.
    pub readers: Vec<ReaderDecl>,
    /// Archiver agents.
    pub archivers: Vec<ArchiverDecl>,
    /// Per-host sensors.
    pub sensors: Vec<SensorDecl>,
    /// The monitored application.
    pub players: Vec<PlayerDecl>,
    /// Process-recovery administrators.
    pub recoveries: Vec<RecoveryDecl>,
    /// The fault timeline, kept in declaration order (the injector sorts
    /// stably by time).
    pub timeline: Vec<TimelineEntry>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            seed: 0,
            tick_us: 1_000,
            duration_us: 30_000_000,
            sample_every: 16,
            hosts: Vec::new(),
            links: Vec::new(),
            routers: Vec::new(),
            flows: Vec::new(),
            gateways: Vec::new(),
            subscribers: Vec::new(),
            readers: Vec::new(),
            archivers: Vec::new(),
            sensors: Vec::new(),
            players: Vec::new(),
            recoveries: Vec::new(),
            timeline: Vec::new(),
        }
    }
}

impl ScenarioSpec {
    /// Parse a scenario from its textual form.
    pub fn parse(input: &str) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut offset = 0usize;
        for line in input.split_inclusive('\n') {
            let base = offset;
            offset += line.len();
            let line = line.trim_end_matches(['\n', '\r']);
            let mut p = LineParser::new(line, base);
            let Some((directive, dpos)) = p.next_token() else {
                continue; // blank line
            };
            if directive.starts_with('#') {
                continue; // comment
            }
            match directive {
                "scenario" => spec.name = p.required("scenario name")?.0.to_string(),
                "seed" => spec.seed = p.u64_token("seed")?,
                "tick" => spec.tick_us = p.duration_token("tick")?,
                "duration" => spec.duration_us = p.duration_token("duration")?,
                "sample" => spec.sample_every = p.u64_token("sample rate")?,
                "host" => spec.hosts.push(parse_host(&mut p)?),
                "link" => spec.links.push(parse_link(&mut p)?),
                "router" => spec.routers.push(parse_router(&mut p)?),
                "flow" => spec.flows.push(parse_flow(&mut p)?),
                "gateway" => spec.gateways.push(parse_gateway(&mut p)?),
                "subscriber" => spec.subscribers.push(parse_subscriber(&mut p)?),
                "readers" => spec.readers.push(parse_readers(&mut p)?),
                "archiver" => spec.archivers.push(parse_archiver(&mut p)?),
                "sensors" => spec.sensors.push(parse_sensors(&mut p)?),
                "player" => spec.players.push(parse_player(&mut p)?),
                "recovery" => spec.recoveries.push(parse_recovery(&mut p)?),
                "at" => spec.timeline.push(parse_timeline(&mut p)?),
                other => {
                    return Err(SpecError {
                        pos: dpos,
                        reason: format!("unknown directive `{other}`"),
                    })
                }
            }
            p.expect_end()?;
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// Directive parsers.
// ---------------------------------------------------------------------

fn parse_host(p: &mut LineParser<'_>) -> Result<HostDecl, SpecError> {
    let mut h = HostDecl {
        name: p.required("host name")?.0.to_string(),
        ..HostDecl::default()
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "cpus" => h.cpus = Some(parse_u64(value, pos)? as u32),
            "mem" => h.memory_kb = Some(parse_size(value, pos)? / 1024),
            "pkt-cost" => h.pkt_cost_us = Some(parse_f64(value, pos)?),
            "socket-overhead" => h.socket_overhead = Some(parse_f64(value, pos)?),
            "rcv-buffer" => h.rcv_buffer_bytes = Some(parse_size(value, pos)?),
            "multi-socket-loss" => h.multi_socket_loss = Some(parse_f64(value, pos)?),
            "process" => h.processes.push(value.to_string()),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown host attribute `{other}`"),
                })
            }
        }
    }
    Ok(h)
}

fn parse_link(p: &mut LineParser<'_>) -> Result<LinkDecl, SpecError> {
    let (name, npos) = p.required("link name")?;
    let mut l = LinkDecl {
        name: name.to_string(),
        bandwidth_bps: 0,
        delay_us: 0,
        queue_bytes: None,
        error_rate: None,
    };
    let mut saw_bw = false;
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "bw" => {
                l.bandwidth_bps = parse_rate(value, pos)?;
                saw_bw = true;
            }
            "delay" => l.delay_us = parse_duration(value, pos)?,
            "queue" => l.queue_bytes = Some(parse_size(value, pos)?),
            "error-rate" => l.error_rate = Some(parse_f64(value, pos)?),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown link attribute `{other}`"),
                })
            }
        }
    }
    if !saw_bw {
        return Err(SpecError {
            pos: npos,
            reason: format!("link `{name}` needs bw="),
        });
    }
    Ok(l)
}

fn parse_router(p: &mut LineParser<'_>) -> Result<RouterDecl, SpecError> {
    let name = p.required("router name")?.0.to_string();
    let (tok, pos) = p.required("links=")?;
    let (key, value) = split_attr(tok, pos)?;
    if key != "links" {
        return Err(SpecError {
            pos,
            reason: format!("expected links=, got `{key}`"),
        });
    }
    Ok(RouterDecl {
        name,
        links: split_list(value),
    })
}

fn parse_flow(p: &mut LineParser<'_>) -> Result<FlowDecl, SpecError> {
    let name = p.required("flow name")?.0.to_string();
    let src = p.required("source host")?.0.to_string();
    let (arrow, apos) = p.required("->")?;
    if arrow != "->" {
        return Err(SpecError {
            pos: apos,
            reason: format!("expected `->`, got `{arrow}`"),
        });
    }
    let dst = p.required("destination host")?.0.to_string();
    let mut f = FlowDecl {
        name,
        src,
        dst,
        port: 7_000,
        window: 1 << 20,
        via: Vec::new(),
        bytes: None,
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "port" => f.port = parse_u64(value, pos)? as u16,
            "window" => f.window = parse_size(value, pos)?,
            "via" => f.via = split_list(value),
            "bytes" => f.bytes = Some(parse_size(value, pos)?),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown flow attribute `{other}`"),
                })
            }
        }
    }
    Ok(f)
}

fn parse_on(p: &mut LineParser<'_>, what: &str) -> Result<String, SpecError> {
    let (on, pos) = p.required("on")?;
    if on != "on" {
        return Err(SpecError {
            pos,
            reason: format!("expected `on <host>` after {what} name, got `{on}`"),
        });
    }
    Ok(p.required("host name")?.0.to_string())
}

fn parse_gateway(p: &mut LineParser<'_>) -> Result<GatewayDecl, SpecError> {
    let name = p.required("gateway name")?.0.to_string();
    let host = parse_on(p, "gateway")?;
    let mut qos: Option<QosDecl> = None;
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        // Any qos attribute enables the plane; `qos=on` alone enables it
        // with every threshold at its library default.
        let q = qos.get_or_insert_with(QosDecl::default);
        match key {
            "qos" => {
                if value != "on" {
                    return Err(SpecError {
                        pos,
                        reason: format!("expected qos=on, got `qos={value}`"),
                    });
                }
            }
            "retier" => q.retier = Some(parse_u64(value, pos)?),
            "lag-enter" => q.lag_enter = Some(parse_f64(value, pos)?),
            "lag-exit" => q.lag_exit = Some(parse_f64(value, pos)?),
            "prob-enter" => q.probation_enter = Some(parse_f64(value, pos)?),
            "prob-exit" => q.probation_exit = Some(parse_f64(value, pos)?),
            "shed-enter" => q.shed_enter = Some(parse_f64(value, pos)?),
            "shed-exit" => q.shed_exit = Some(parse_f64(value, pos)?),
            "budget-lagging" => q.budget_lagging = Some(parse_f64(value, pos)?),
            "budget-probation" => q.budget_probation = Some(parse_f64(value, pos)?),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown gateway attribute `{other}`"),
                })
            }
        }
    }
    Ok(GatewayDecl { name, host, qos })
}

fn parse_subscriber(p: &mut LineParser<'_>) -> Result<SubscriberDecl, SpecError> {
    let name = p.required("subscriber name")?.0.to_string();
    let host = parse_on(p, "subscriber")?;
    let mut s = SubscriberDecl {
        name,
        host,
        via: Vec::new(),
        drain_us: 2_000,
        capacity: 4_096,
        cpu_of: None,
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "via" => s.via = split_list(value),
            "drain" => s.drain_us = parse_duration(value, pos)?,
            "capacity" => s.capacity = parse_u64(value, pos)? as usize,
            "cpu-of" => s.cpu_of = Some(value.to_string()),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown subscriber attribute `{other}`"),
                })
            }
        }
    }
    Ok(s)
}

fn parse_readers(p: &mut LineParser<'_>) -> Result<ReaderDecl, SpecError> {
    let (name, npos) = p.required("reader pool name")?;
    let name = name.to_string();
    let host = parse_on(p, "reader pool")?;
    let mut r = ReaderDecl {
        name,
        host,
        count: 0,
        via: String::new(),
        query: String::new(),
        every_us: 100_000,
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "n" => r.count = parse_u64(value, pos)?,
            "via" => r.via = value.to_string(),
            "query" => r.query = value.to_string(),
            "every" => r.every_us = parse_duration(value, pos)?,
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown readers attribute `{other}`"),
                })
            }
        }
    }
    if r.count == 0 || r.via.is_empty() || r.query.is_empty() {
        return Err(SpecError {
            pos: npos,
            reason: format!(
                "readers `{}` need n=<count>, via=<gateway> and query=<predicate>",
                r.name
            ),
        });
    }
    Ok(r)
}

fn parse_archiver(p: &mut LineParser<'_>) -> Result<ArchiverDecl, SpecError> {
    let name = p.required("archiver name")?.0.to_string();
    let host = parse_on(p, "archiver")?;
    let mut a = ArchiverDecl {
        name,
        host,
        via: Vec::new(),
        query: None,
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "via" => a.via = split_list(value),
            "query" => a.query = Some(value.to_string()),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown archiver attribute `{other}`"),
                })
            }
        }
    }
    Ok(a)
}

fn parse_player(p: &mut LineParser<'_>) -> Result<PlayerDecl, SpecError> {
    let (host, hpos) = p.required("host name")?;
    let mut d = PlayerDecl {
        host: host.to_string(),
        flows: Vec::new(),
        frame_bytes: 0,
        max_frames: 0,
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "flows" => d.flows = split_list(value),
            "frame" => d.frame_bytes = parse_size(value, pos)?,
            "frames" => d.max_frames = parse_u64(value, pos)?,
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown player attribute `{other}`"),
                })
            }
        }
    }
    if d.flows.is_empty() || d.frame_bytes == 0 {
        return Err(SpecError {
            pos: hpos,
            reason: format!("player on `{}` needs flows=<f,..> and frame=<size>", d.host),
        });
    }
    Ok(d)
}

fn parse_recovery(p: &mut LineParser<'_>) -> Result<RecoveryDecl, SpecError> {
    let (name, npos) = p.required("recovery name")?;
    let name = name.to_string();
    let host = parse_on(p, "recovery")?;
    let mut r = RecoveryDecl {
        name,
        host,
        via: Vec::new(),
        process: String::new(),
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "via" => r.via = split_list(value),
            "process" => r.process = value.to_string(),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown recovery attribute `{other}`"),
                })
            }
        }
    }
    if r.via.is_empty() || r.process.is_empty() {
        return Err(SpecError {
            pos: npos,
            reason: format!(
                "recovery `{}` needs via=<gateway,..> and process=<name>",
                r.name
            ),
        });
    }
    Ok(r)
}

fn parse_sensors(p: &mut LineParser<'_>) -> Result<SensorDecl, SpecError> {
    let (host, hpos) = p.required("host name")?;
    let mut s = SensorDecl {
        host: host.to_string(),
        every_us: 1_000_000,
        via: String::new(),
        backoff_us: None,
        summary_every: None,
        port: None,
        snmp: Vec::new(),
    };
    while let Some((tok, pos)) = p.next_token() {
        let (key, value) = split_attr(tok, pos)?;
        match key {
            "every" => s.every_us = parse_duration(value, pos)?,
            "via" => s.via = value.to_string(),
            "backoff" => s.backoff_us = Some(parse_duration(value, pos)?),
            "summaries" => s.summary_every = Some(parse_u64(value, pos)?),
            "port" => s.port = Some(parse_u64(value, pos)? as u16),
            "snmp" => s.snmp = split_list(value),
            other => {
                return Err(SpecError {
                    pos,
                    reason: format!("unknown sensors attribute `{other}`"),
                })
            }
        }
    }
    if s.via.is_empty() {
        return Err(SpecError {
            pos: hpos,
            reason: format!("sensors on `{}` need via=<gateway>", s.host),
        });
    }
    Ok(s)
}

fn parse_timeline(p: &mut LineParser<'_>) -> Result<TimelineEntry, SpecError> {
    let at_us = p.duration_token("fault time")?;
    let (kind, kpos) = p.required("fault kind")?;
    let fault = match kind {
        "link" => {
            let link = p.required("link name")?.0.to_string();
            let (verb, vpos) = p.required("degrade|restore")?;
            match verb {
                "degrade" => {
                    let (rate, rpos) = p.required("rate")?;
                    Fault::LinkDegrade {
                        link,
                        bandwidth_bps: parse_rate(rate, rpos)?,
                    }
                }
                "restore" => Fault::LinkRestore { link },
                other => {
                    return Err(SpecError {
                        pos: vpos,
                        reason: format!("unknown link fault `{other}`"),
                    })
                }
            }
        }
        "host" => {
            let host = p.required("host name")?.0.to_string();
            let (verb, vpos) = p.required("crash|recover")?;
            match verb {
                "crash" => Fault::HostCrash { host },
                "recover" => Fault::HostRecover { host },
                other => {
                    return Err(SpecError {
                        pos: vpos,
                        reason: format!("unknown host fault `{other}`"),
                    })
                }
            }
        }
        "partition" => {
            let mut groups = Vec::new();
            while let Some((tok, pos)) = p.next_token() {
                let inner = tok
                    .strip_prefix('{')
                    .and_then(|t| t.strip_suffix('}'))
                    .ok_or_else(|| SpecError {
                        pos,
                        reason: format!("expected {{a,b,...}} group, got `{tok}`"),
                    })?;
                groups.push(split_list(inner));
            }
            if groups.len() < 2 {
                return Err(SpecError {
                    pos: kpos,
                    reason: "partition needs at least two {..} groups".to_string(),
                });
            }
            Fault::Partition { groups }
        }
        "heal" => Fault::Heal,
        "subscriber" => {
            let name = p.required("subscriber name")?.0.to_string();
            let (verb, vpos) = p.required("stall|resume")?;
            match verb {
                "stall" => Fault::SubscriberStall {
                    name,
                    period_us: p.duration_token("stall period")?,
                },
                "resume" => Fault::SubscriberResume { name },
                other => {
                    return Err(SpecError {
                        pos: vpos,
                        reason: format!("unknown subscriber fault `{other}`"),
                    })
                }
            }
        }
        "sensor" => {
            let host = p.required("host name")?.0.to_string();
            let (verb, vpos) = p.required("stop|start|period")?;
            match verb {
                "stop" => Fault::SensorStop { host },
                "start" => Fault::SensorStart { host },
                "period" => Fault::SensorPeriod {
                    host,
                    every_us: p.duration_token("sensor period")?,
                },
                other => {
                    return Err(SpecError {
                        pos: vpos,
                        reason: format!("unknown sensor fault `{other}`"),
                    })
                }
            }
        }
        "replay" => {
            let archiver = p.required("archiver name")?.0.to_string();
            let (via, vpos) = p.required("via")?;
            if via != "via" {
                return Err(SpecError {
                    pos: vpos,
                    reason: format!("expected `via <gateway>`, got `{via}`"),
                });
            }
            Fault::Replay {
                archiver,
                via: p.required("gateway name")?.0.to_string(),
            }
        }
        "process" => {
            let host = p.required("host name")?.0.to_string();
            let (verb, vpos) = p.required("kill")?;
            if verb != "kill" {
                return Err(SpecError {
                    pos: vpos,
                    reason: format!("unknown process fault `{verb}`"),
                });
            }
            Fault::ProcessKill {
                host,
                process: p.required("process name")?.0.to_string(),
            }
        }
        other => {
            return Err(SpecError {
                pos: kpos,
                reason: format!("unknown fault kind `{other}`"),
            })
        }
    };
    Ok(TimelineEntry { at_us, fault })
}

// ---------------------------------------------------------------------
// Token-level helpers.
// ---------------------------------------------------------------------

/// Tokenizer over one line that reports absolute byte positions.
struct LineParser<'a> {
    line: &'a str,
    base: usize,
    cur: usize,
}

impl<'a> LineParser<'a> {
    fn new(line: &'a str, base: usize) -> Self {
        LineParser { line, base, cur: 0 }
    }

    /// Next whitespace-separated token and its absolute byte position.
    fn next_token(&mut self) -> Option<(&'a str, usize)> {
        let rest = &self.line[self.cur..];
        let skip = rest.len() - rest.trim_start().len();
        let start = self.cur + skip;
        let rest = &self.line[start..];
        if rest.is_empty() {
            self.cur = self.line.len();
            return None;
        }
        let end = rest
            .find(char::is_whitespace)
            .map_or(self.line.len(), |i| start + i);
        self.cur = end;
        Some((&self.line[start..end], self.base + start))
    }

    fn required(&mut self, what: &str) -> Result<(&'a str, usize), SpecError> {
        self.next_token().ok_or_else(|| SpecError {
            pos: self.base + self.line.len(),
            reason: format!("expected {what}"),
        })
    }

    fn u64_token(&mut self, what: &str) -> Result<u64, SpecError> {
        let (tok, pos) = self.required(what)?;
        parse_u64(tok, pos)
    }

    fn duration_token(&mut self, what: &str) -> Result<u64, SpecError> {
        let (tok, pos) = self.required(what)?;
        parse_duration(tok, pos)
    }

    fn expect_end(&mut self) -> Result<(), SpecError> {
        match self.next_token() {
            None => Ok(()),
            Some((tok, pos)) => Err(SpecError {
                pos,
                reason: format!("unexpected trailing token `{tok}`"),
            }),
        }
    }
}

fn split_attr(tok: &str, pos: usize) -> Result<(&str, &str), SpecError> {
    tok.split_once('=').ok_or_else(|| SpecError {
        pos,
        reason: format!("expected key=value, got `{tok}`"),
    })
}

fn split_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_u64(tok: &str, pos: usize) -> Result<u64, SpecError> {
    tok.parse().map_err(|_| SpecError {
        pos,
        reason: format!("expected an integer, got `{tok}`"),
    })
}

fn parse_f64(tok: &str, pos: usize) -> Result<f64, SpecError> {
    tok.parse().map_err(|_| SpecError {
        pos,
        reason: format!("expected a number, got `{tok}`"),
    })
}

/// `80ms`, `12s`, `500us` → microseconds.
fn parse_duration(tok: &str, pos: usize) -> Result<u64, SpecError> {
    let (digits, mult) = if let Some(d) = tok.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = tok.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = tok.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        return Err(SpecError {
            pos,
            reason: format!("expected a duration (us/ms/s), got `{tok}`"),
        });
    };
    Ok(parse_u64(digits, pos)? * mult)
}

/// `30mbit`, `1gbit`, `622mbit`, `64kbit`, `100bit` → bits per second.
fn parse_rate(tok: &str, pos: usize) -> Result<u64, SpecError> {
    let (digits, mult) = if let Some(d) = tok.strip_suffix("gbit") {
        (d, 1_000_000_000)
    } else if let Some(d) = tok.strip_suffix("mbit") {
        (d, 1_000_000)
    } else if let Some(d) = tok.strip_suffix("kbit") {
        (d, 1_000)
    } else if let Some(d) = tok.strip_suffix("bit") {
        (d, 1)
    } else {
        return Err(SpecError {
            pos,
            reason: format!("expected a rate (bit/kbit/mbit/gbit), got `{tok}`"),
        });
    };
    Ok(parse_u64(digits, pos)? * mult)
}

/// `6m`, `512k`, `1g`, `1048576` → bytes (binary suffixes).
fn parse_size(tok: &str, pos: usize) -> Result<u64, SpecError> {
    let (digits, mult) = if let Some(d) = tok.strip_suffix('g') {
        (d, 1 << 30)
    } else if let Some(d) = tok.strip_suffix('m') {
        (d, 1 << 20)
    } else if let Some(d) = tok.strip_suffix('k') {
        (d, 1 << 10)
    } else {
        (tok, 1)
    };
    Ok(parse_u64(digits, pos)? * mult)
}

// ---------------------------------------------------------------------
// Canonical rendering (Display).
// ---------------------------------------------------------------------

/// Render microseconds with the largest exact unit.
fn fmt_dur(us: u64) -> String {
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

fn fmt_rate(bps: u64) -> String {
    if bps.is_multiple_of(1_000_000_000) {
        format!("{}gbit", bps / 1_000_000_000)
    } else if bps.is_multiple_of(1_000_000) {
        format!("{}mbit", bps / 1_000_000)
    } else if bps.is_multiple_of(1_000) {
        format!("{}kbit", bps / 1_000)
    } else {
        format!("{bps}bit")
    }
}

fn fmt_size(bytes: u64) -> String {
    if bytes > 0 && bytes.is_multiple_of(1 << 30) {
        format!("{}g", bytes >> 30)
    } else if bytes > 0 && bytes.is_multiple_of(1 << 20) {
        format!("{}m", bytes >> 20)
    } else if bytes > 0 && bytes.is_multiple_of(1 << 10) {
        format!("{}k", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario {}", self.name)?;
        writeln!(f, "seed {}", self.seed)?;
        writeln!(f, "tick {}", fmt_dur(self.tick_us))?;
        writeln!(f, "duration {}", fmt_dur(self.duration_us))?;
        writeln!(f, "sample {}", self.sample_every)?;
        for h in &self.hosts {
            write!(f, "host {}", h.name)?;
            if let Some(v) = h.cpus {
                write!(f, " cpus={v}")?;
            }
            if let Some(v) = h.memory_kb {
                write!(f, " mem={}", fmt_size(v * 1024))?;
            }
            if let Some(v) = h.pkt_cost_us {
                write!(f, " pkt-cost={v}")?;
            }
            if let Some(v) = h.socket_overhead {
                write!(f, " socket-overhead={v}")?;
            }
            if let Some(v) = h.rcv_buffer_bytes {
                write!(f, " rcv-buffer={}", fmt_size(v))?;
            }
            if let Some(v) = h.multi_socket_loss {
                write!(f, " multi-socket-loss={v}")?;
            }
            for pr in &h.processes {
                write!(f, " process={pr}")?;
            }
            writeln!(f)?;
        }
        for l in &self.links {
            write!(
                f,
                "link {} bw={} delay={}",
                l.name,
                fmt_rate(l.bandwidth_bps),
                fmt_dur(l.delay_us)
            )?;
            if let Some(q) = l.queue_bytes {
                write!(f, " queue={}", fmt_size(q))?;
            }
            if let Some(e) = l.error_rate {
                write!(f, " error-rate={e}")?;
            }
            writeln!(f)?;
        }
        for r in &self.routers {
            writeln!(f, "router {} links={}", r.name, r.links.join(","))?;
        }
        for fl in &self.flows {
            write!(
                f,
                "flow {} {} -> {} port={} window={} via={}",
                fl.name,
                fl.src,
                fl.dst,
                fl.port,
                fmt_size(fl.window),
                fl.via.join(",")
            )?;
            if let Some(b) = fl.bytes {
                write!(f, " bytes={}", fmt_size(b))?;
            }
            writeln!(f)?;
        }
        for g in &self.gateways {
            write!(f, "gateway {} on {}", g.name, g.host)?;
            if let Some(q) = &g.qos {
                write!(f, " qos=on")?;
                if let Some(v) = q.retier {
                    write!(f, " retier={v}")?;
                }
                if let Some(v) = q.lag_enter {
                    write!(f, " lag-enter={v}")?;
                }
                if let Some(v) = q.lag_exit {
                    write!(f, " lag-exit={v}")?;
                }
                if let Some(v) = q.probation_enter {
                    write!(f, " prob-enter={v}")?;
                }
                if let Some(v) = q.probation_exit {
                    write!(f, " prob-exit={v}")?;
                }
                if let Some(v) = q.shed_enter {
                    write!(f, " shed-enter={v}")?;
                }
                if let Some(v) = q.shed_exit {
                    write!(f, " shed-exit={v}")?;
                }
                if let Some(v) = q.budget_lagging {
                    write!(f, " budget-lagging={v}")?;
                }
                if let Some(v) = q.budget_probation {
                    write!(f, " budget-probation={v}")?;
                }
            }
            writeln!(f)?;
        }
        for s in &self.subscribers {
            write!(
                f,
                "subscriber {} on {} via={} drain={} capacity={}",
                s.name,
                s.host,
                s.via.join(","),
                fmt_dur(s.drain_us),
                s.capacity
            )?;
            if let Some(h) = &s.cpu_of {
                write!(f, " cpu-of={h}")?;
            }
            writeln!(f)?;
        }
        for r in &self.readers {
            writeln!(
                f,
                "readers {} on {} n={} via={} query={} every={}",
                r.name,
                r.host,
                r.count,
                r.via,
                r.query,
                fmt_dur(r.every_us)
            )?;
        }
        for a in &self.archivers {
            write!(
                f,
                "archiver {} on {} via={}",
                a.name,
                a.host,
                a.via.join(",")
            )?;
            if let Some(q) = &a.query {
                write!(f, " query={q}")?;
            }
            writeln!(f)?;
        }
        for s in &self.sensors {
            write!(
                f,
                "sensors {} every={} via={}",
                s.host,
                fmt_dur(s.every_us),
                s.via
            )?;
            if let Some(b) = s.backoff_us {
                write!(f, " backoff={}", fmt_dur(b))?;
            }
            if let Some(n) = s.summary_every {
                write!(f, " summaries={n}")?;
            }
            if let Some(port) = s.port {
                write!(f, " port={port}")?;
            }
            if !s.snmp.is_empty() {
                write!(f, " snmp={}", s.snmp.join(","))?;
            }
            writeln!(f)?;
        }
        for pl in &self.players {
            write!(
                f,
                "player {} flows={} frame={}",
                pl.host,
                pl.flows.join(","),
                fmt_size(pl.frame_bytes)
            )?;
            if pl.max_frames > 0 {
                write!(f, " frames={}", pl.max_frames)?;
            }
            writeln!(f)?;
        }
        for r in &self.recoveries {
            writeln!(
                f,
                "recovery {} on {} via={} process={}",
                r.name,
                r.host,
                r.via.join(","),
                r.process
            )?;
        }
        for entry in &self.timeline {
            write!(f, "at {} ", fmt_dur(entry.at_us))?;
            match &entry.fault {
                Fault::LinkDegrade {
                    link,
                    bandwidth_bps,
                } => writeln!(f, "link {link} degrade {}", fmt_rate(*bandwidth_bps))?,
                Fault::LinkRestore { link } => writeln!(f, "link {link} restore")?,
                Fault::HostCrash { host } => writeln!(f, "host {host} crash")?,
                Fault::HostRecover { host } => writeln!(f, "host {host} recover")?,
                Fault::Partition { groups } => {
                    write!(f, "partition")?;
                    for g in groups {
                        write!(f, " {{{}}}", g.join(","))?;
                    }
                    writeln!(f)?;
                }
                Fault::Heal => writeln!(f, "heal")?,
                Fault::SubscriberStall { name, period_us } => {
                    writeln!(f, "subscriber {name} stall {}", fmt_dur(*period_us))?
                }
                Fault::SubscriberResume { name } => writeln!(f, "subscriber {name} resume")?,
                Fault::SensorStop { host } => writeln!(f, "sensor {host} stop")?,
                Fault::SensorStart { host } => writeln!(f, "sensor {host} start")?,
                Fault::SensorPeriod { host, every_us } => {
                    writeln!(f, "sensor {host} period {}", fmt_dur(*every_us))?
                }
                Fault::Replay { archiver, via } => writeln!(f, "replay {archiver} via {via}")?,
                Fault::ProcessKill { host, process } => {
                    writeln!(f, "process {host} kill {process}")?
                }
            }
        }
        Ok(())
    }
}

/// Why a spec failed to compile or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The text did not parse.
    Parse(SpecError),
    /// The spec parsed but references something undeclared (an unknown
    /// host, link or gateway).
    Compile(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Compile(reason) => write!(f, "scenario compile error: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Parse(e)
    }
}

/// A spec's topology compiled onto a fresh [`Network`] (hosts, links and
/// routers only — no flows, no monitoring plane).  This is the piece the
/// canned [`crate::scenario::matisse_topology`] builds on.
#[derive(Debug)]
pub struct CompiledTopology {
    /// The simulated network.
    pub net: Network,
    /// Host IDs, in declaration order.
    pub hosts: Vec<(String, HostId)>,
    /// Link IDs, in declaration order.
    pub links: Vec<(String, LinkId)>,
}

impl CompiledTopology {
    /// Look up a declared host by name.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// Look up a declared link by name.
    pub fn link_id(&self, name: &str) -> Option<LinkId> {
        self.links
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// Resolve a list of link names to IDs (a flow path).
    pub fn resolve_path(&self, via: &[String]) -> Result<Vec<LinkId>, EngineError> {
        via.iter()
            .map(|name| {
                self.link_id(name)
                    .ok_or_else(|| EngineError::Compile(format!("unknown link `{name}`")))
            })
            .collect()
    }
}

/// Build the network described by a spec's `host` / `link` / `router`
/// directives, in declaration order (which fixes simulator IDs and the
/// seeded RNG stream — byte-identical specs produce identical networks).
pub fn compile_topology(spec: &ScenarioSpec) -> Result<CompiledTopology, EngineError> {
    let mut net = Network::new(
        SimClock::new(SimClock::matisse().timestamp(), spec.tick_us),
        spec.seed,
    );
    let mut hosts = Vec::new();
    for h in &spec.hosts {
        let mut hs = HostSpec::new(&h.name);
        if let Some(v) = h.cpus {
            hs = hs.cpus(v);
        }
        if let Some(v) = h.memory_kb {
            hs = hs.memory_kb(v);
        }
        if let Some(v) = h.pkt_cost_us {
            hs = hs.pkt_cost_us(v);
        }
        if let Some(v) = h.socket_overhead {
            hs = hs.socket_overhead(v);
        }
        if let Some(v) = h.rcv_buffer_bytes {
            hs = hs.rcv_buffer_bytes(v);
        }
        if let Some(v) = h.multi_socket_loss {
            hs = hs.multi_socket_loss(v);
        }
        let id = net.add_host(hs);
        for p in &h.processes {
            net.host_mut(id).register_process(p);
        }
        hosts.push((h.name.clone(), id));
    }
    let mut links: Vec<(String, LinkId)> = Vec::new();
    for l in &spec.links {
        let mut ls = LinkSpec::new(&l.name, l.bandwidth_bps, l.delay_us);
        if let Some(q) = l.queue_bytes {
            ls = ls.queue_bytes(q);
        }
        if let Some(e) = l.error_rate {
            ls = ls.error_rate(e);
        }
        links.push((l.name.clone(), net.add_link(ls)));
    }
    for r in &spec.routers {
        let resolved = r
            .links
            .iter()
            .map(|name| {
                links
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, id)| *id)
                    .ok_or_else(|| EngineError::Compile(format!("unknown link `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        net.add_router(Router::new(&r.name, resolved));
    }
    Ok(CompiledTopology { net, hosts, links })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
scenario demo
seed 42
tick 1ms
duration 30s

host a.lbl.gov cpus=2 mem=512m pkt-cost=20 process=worker
host b.isi.edu cpus=1 pkt-cost=50 socket-overhead=0.25 rcv-buffer=6m multi-socket-loss=0.00035
link wan bw=30mbit delay=28ms queue=64k
router core links=wan
flow bulk a.lbl.gov -> b.isi.edu port=7000 window=1m via=wan
gateway gw on a.lbl.gov
gateway gw2 on b.isi.edu qos=on retier=64 lag-enter=0.25 lag-exit=0.1 shed-enter=0.7 shed-exit=0.4 budget-probation=0.25
subscriber viz on b.isi.edu via=gw drain=2ms capacity=512 cpu-of=b.isi.edu
readers dash on b.isi.edu n=32 via=gw query=(&(type=CPU_TOTAL)(host=a.lbl.gov)) every=250ms
archiver arch on a.lbl.gov via=gw
archiver keeper on a.lbl.gov via=gw,gw2 query=(level>=warning)
sensors a.lbl.gov every=100ms via=gw port=7000 snmp=core
sensors b.isi.edu every=100ms via=gw2 backoff=500ms summaries=10
player b.isi.edu flows=bulk frame=1500000 frames=5
recovery admin on a.lbl.gov via=gw,gw2 process=worker
at 12s link wan degrade 30mbit
at 20s host b.isi.edu crash
at 25s host b.isi.edu recover
at 30s partition {a.lbl.gov} {b.isi.edu}
at 35s heal
at 40s subscriber viz stall 80ms
at 41s subscriber viz resume
at 42s sensor a.lbl.gov stop
at 43s sensor a.lbl.gov start
at 44s sensor * period 10ms
at 45s replay arch via gw
at 46s process a.lbl.gov kill worker
";

    #[test]
    fn sample_parses_and_round_trips() {
        let spec = ScenarioSpec::parse(SAMPLE).expect("parses");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.hosts.len(), 2);
        assert_eq!(spec.hosts[0].memory_kb, Some(512 * 1024));
        assert_eq!(spec.links[0].bandwidth_bps, 30_000_000);
        assert_eq!(spec.gateways[0].qos, None);
        let q = spec.gateways[1].qos.expect("gw2 has a qos plane");
        assert_eq!(q.retier, Some(64));
        assert_eq!(q.lag_enter, Some(0.25));
        assert_eq!(q.shed_enter, Some(0.7));
        assert_eq!(q.budget_probation, Some(0.25));
        assert_eq!(q.probation_enter, None, "unset thresholds stay default");
        assert_eq!(spec.sensors[1].backoff_us, Some(500_000));
        assert_eq!(spec.sensors[1].summary_every, Some(10));
        assert_eq!(spec.readers.len(), 1);
        assert_eq!(spec.readers[0].count, 32);
        assert_eq!(spec.readers[0].query, "(&(type=CPU_TOTAL)(host=a.lbl.gov))");
        assert_eq!(spec.readers[0].every_us, 250_000);
        assert_eq!(spec.sensors[0].port, Some(7000));
        assert_eq!(spec.sensors[0].snmp, vec!["core".to_string()]);
        assert_eq!(spec.sensors[1].port, None);
        assert_eq!(spec.archivers[0].query, None);
        assert_eq!(spec.archivers[1].query.as_deref(), Some("(level>=warning)"));
        let player = &spec.players[0];
        assert_eq!(player.flows, vec!["bulk".to_string()]);
        assert_eq!((player.frame_bytes, player.max_frames), (1_500_000, 5));
        assert_eq!(spec.recoveries[0].via.len(), 2);
        assert_eq!(spec.recoveries[0].process, "worker");
        assert_eq!(spec.timeline.len(), 12);
        assert_eq!(
            spec.timeline[11].fault,
            Fault::ProcessKill {
                host: "a.lbl.gov".into(),
                process: "worker".into()
            }
        );
        let rendered = spec.to_string();
        let again = ScenarioSpec::parse(&rendered).expect("round-trip parses");
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_directive_reports_byte_position() {
        for input in [
            "scenario x\nfrobnicate y\n",
            "player h flows=f frame=1m frames=2\nfrobnicate y\n",
            "recovery r on h via=gw process=p\nfrobnicate y\n",
            "sensors h every=1s via=gw port=80 snmp=r1,r2\nfrobnicate y\n",
            "archiver a on h via=gw query=(level>=error)\nfrobnicate y\n",
            "at 1s process h kill p\nfrobnicate y\n",
        ] {
            let err = ScenarioSpec::parse(input).unwrap_err();
            assert_eq!(err.pos, input.find("frobnicate").unwrap(), "{input}");
            assert!(err.reason.contains("frobnicate"), "{}", err.reason);
        }
    }

    #[test]
    fn bad_rate_points_at_the_value() {
        let input = "link l bw=fast delay=1ms\n";
        let err = ScenarioSpec::parse(input).unwrap_err();
        assert_eq!(err.pos, input.find("bw=fast").unwrap());
    }

    #[test]
    fn partition_requires_two_groups() {
        let err = ScenarioSpec::parse("at 1s partition {a}\n").unwrap_err();
        assert!(err.reason.contains("two"), "{}", err.reason);
    }

    #[test]
    fn readers_require_count_gateway_and_query() {
        let err = ScenarioSpec::parse("readers dash on h n=4 via=gw\n").unwrap_err();
        assert!(err.reason.contains("query="), "{}", err.reason);
        let err = ScenarioSpec::parse("readers dash on h via=gw query=(&)\n").unwrap_err();
        assert!(err.reason.contains("n="), "{}", err.reason);
    }
}
