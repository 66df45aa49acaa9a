//! Property tests for the declarative scenario format.
//!
//! 1. **Round-trip**: any generated `ScenarioSpec`, rendered via
//!    `Display` and reparsed, is structurally identical — the canonical
//!    form is a fixed point of parse ∘ render.
//! 2. **Error positions**: unknown directives and malformed values are
//!    reported with the byte position and a reason, the same shape as
//!    `jamm_core::query::ParseError` (`Predicate` parse errors), so
//!    tooling can underline the offending token in the spec text.

use jamm_core::check::{forall, Gen};
use jamm_netsim::spec::{
    Fault, FlowDecl, GatewayDecl, HostDecl, LinkDecl, QosDecl, RouterDecl, ScenarioSpec,
    SensorDecl, SubscriberDecl, TimelineEntry,
};

fn name(g: &mut Gen, prefix: &str, i: usize) -> String {
    let len = g.usize_in(1, 8);
    let tail = g.string_from("abcdefghijklmnopqrstuvwxyz0123456789.-", len);
    format!("{prefix}{i}-{tail}")
}

fn pick(g: &mut Gen, names: &[String]) -> String {
    names[g.usize_in(0, names.len() - 1)].clone()
}

fn gen_spec(g: &mut Gen) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: name(g, "scn", 0),
        seed: g.any_u64(),
        tick_us: g.rng().gen_range(1u64..5_000),
        duration_us: g.rng().gen_range(1u64..120) * 1_000_000,
        sample_every: g.rng().gen_range(1u64..256),
        ..ScenarioSpec::default()
    };
    for i in 0..g.usize_in(1, 5) {
        let mut h = HostDecl {
            name: name(g, "host", i),
            ..HostDecl::default()
        };
        if g.bool(0.7) {
            h.cpus = Some(g.rng().gen_range(1u64..16) as u32);
        }
        if g.bool(0.5) {
            h.memory_kb = Some(g.rng().gen_range(1u64..64) * 1024);
        }
        if g.bool(0.5) {
            // `{}` on f64 prints the shortest string that reparses to the
            // same value, so any finite f64 round-trips exactly.
            h.pkt_cost_us = Some(g.f64_in(1.0, 100.0));
        }
        if g.bool(0.3) {
            h.socket_overhead = Some(g.f64_in(0.0, 1.0));
        }
        if g.bool(0.3) {
            h.rcv_buffer_bytes = Some(g.rng().gen_range(1u64..32) << 20);
        }
        if g.bool(0.3) {
            h.multi_socket_loss = Some(g.f64_in(0.0, 0.01));
        }
        for p in 0..g.usize_in(0, 2) {
            let pr = name(g, "proc", p);
            h.processes.push(pr);
        }
        spec.hosts.push(h);
    }
    for i in 0..g.usize_in(1, 4) {
        spec.links.push(LinkDecl {
            name: name(g, "link", i),
            bandwidth_bps: g.rng().gen_range(1u64..2_500) * 1_000_000,
            delay_us: g.rng().gen_range(1u64..50_000),
            queue_bytes: g.bool(0.4).then(|| g.rng().gen_range(1u64..1_024) << 10),
            error_rate: g.bool(0.3).then(|| g.f64_in(0.0, 0.1)),
        });
    }
    let hosts: Vec<String> = spec.hosts.iter().map(|h| h.name.clone()).collect();
    let links: Vec<String> = spec.links.iter().map(|l| l.name.clone()).collect();
    if g.bool(0.6) {
        let router_links = (0..g.usize_in(1, 3)).map(|_| pick(g, &links)).collect();
        spec.routers.push(RouterDecl {
            name: name(g, "rt", 0),
            links: router_links,
        });
    }
    for i in 0..g.usize_in(0, 3) {
        spec.flows.push(FlowDecl {
            name: name(g, "flow", i),
            src: pick(g, &hosts),
            dst: pick(g, &hosts),
            port: g.rng().gen_range(1u64..65_535) as u16,
            window: g.rng().gen_range(1u64..4_096) << 10,
            via: (0..g.usize_in(1, 3)).map(|_| pick(g, &links)).collect(),
            bytes: g.bool(0.5).then(|| g.rng().gen_range(1u64..1_024) << 20),
        });
    }
    for i in 0..g.usize_in(0, 2) {
        // A qos plane on ~40% of gateways, each threshold independently
        // present — `{}` on f64 prints the shortest reparsing string, so
        // any finite threshold round-trips exactly.
        let qos = g.bool(0.4).then(|| QosDecl {
            retier: g.bool(0.6).then(|| g.rng().gen_range(1u64..4_096)),
            lag_enter: g.bool(0.5).then(|| g.f64_in(0.1, 0.5)),
            lag_exit: g.bool(0.5).then(|| g.f64_in(0.0, 0.1)),
            probation_enter: g.bool(0.5).then(|| g.f64_in(0.5, 0.9)),
            probation_exit: g.bool(0.5).then(|| g.f64_in(0.1, 0.5)),
            shed_enter: g.bool(0.5).then(|| g.f64_in(0.4, 0.9)),
            shed_exit: g.bool(0.5).then(|| g.f64_in(0.0, 0.4)),
            budget_lagging: g.bool(0.5).then(|| g.f64_in(0.1, 1.0)),
            budget_probation: g.bool(0.5).then(|| g.f64_in(0.0, 0.5)),
        });
        spec.gateways.push(GatewayDecl {
            name: name(g, "gw", i),
            host: pick(g, &hosts),
            qos,
        });
    }
    let gws: Vec<String> = spec.gateways.iter().map(|gw| gw.name.clone()).collect();
    if !gws.is_empty() {
        for i in 0..g.usize_in(0, 2) {
            spec.subscribers.push(SubscriberDecl {
                name: name(g, "sub", i),
                host: pick(g, &hosts),
                via: (0..g.usize_in(1, gws.len()))
                    .map(|_| pick(g, &gws))
                    .collect(),
                drain_us: g.rng().gen_range(1u64..100) * 1_000,
                capacity: g.usize_in(16, 1 << 14),
                cpu_of: g.bool(0.3).then(|| pick(g, &hosts)),
            });
        }
        for _ in 0..g.usize_in(0, 2) {
            spec.sensors.push(SensorDecl {
                host: pick(g, &hosts),
                every_us: g.rng().gen_range(1u64..5_000) * 1_000,
                via: pick(g, &gws),
                backoff_us: g.bool(0.4).then(|| g.rng().gen_range(1u64..2_000) * 1_000),
                summary_every: g.bool(0.4).then(|| g.rng().gen_range(1u64..64)),
            });
        }
    }
    let subs: Vec<String> = spec.subscribers.iter().map(|s| s.name.clone()).collect();
    for _ in 0..g.usize_in(0, 6) {
        let at_us = g.rng().gen_range(0u64..200) * 500_000;
        let fault = match g.usize_in(0, 8) {
            0 => Fault::LinkDegrade {
                link: pick(g, &links),
                bandwidth_bps: g.rng().gen_range(1u64..1_000) * 1_000_000,
            },
            1 => Fault::LinkRestore {
                link: pick(g, &links),
            },
            2 => Fault::HostCrash {
                host: pick(g, &hosts),
            },
            3 => Fault::HostRecover {
                host: pick(g, &hosts),
            },
            4 => {
                let a = pick(g, &hosts);
                let b = pick(g, &hosts);
                Fault::Partition {
                    groups: vec![vec![a], vec![b]],
                }
            }
            5 => Fault::Heal,
            6 => Fault::SensorPeriod {
                host: "*".to_string(),
                every_us: g.rng().gen_range(1u64..2_000) * 1_000,
            },
            7 if !subs.is_empty() => Fault::SubscriberStall {
                name: pick(g, &subs),
                period_us: g.rng().gen_range(1u64..200) * 1_000,
            },
            _ => Fault::SensorStop {
                host: pick(g, &hosts),
            },
        };
        spec.timeline.push(TimelineEntry { at_us, fault });
    }
    spec
}

/// parse(render(spec)) == spec for arbitrary generated specs.
#[test]
fn rendered_specs_reparse_identically() {
    forall("spec round-trip", 96, |g: &mut Gen| {
        let spec = gen_spec(g);
        let text = spec.to_string();
        let reparsed = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nrendered:\n{text}"));
        assert_eq!(spec, reparsed, "round-trip changed the spec\n{text}");
    });
}

/// Rendering the reparsed spec is a fixed point: render ∘ parse ∘ render
/// is byte-identical to render.
#[test]
fn canonical_rendering_is_a_fixed_point() {
    forall("canonical fixed point", 48, |g: &mut Gen| {
        let text = gen_spec(g).to_string();
        let again = ScenarioSpec::parse(&text).expect("parses").to_string();
        assert_eq!(text, again);
    });
}

/// An unknown directive is reported at the exact byte where it starts,
/// with the directive echoed in the reason — even at the end of an
/// arbitrary valid prefix.
#[test]
fn unknown_directive_reports_its_byte_position() {
    forall("unknown directive position", 48, |g: &mut Gen| {
        let mut text = gen_spec(g).to_string();
        let garbage_at = text.len();
        text.push_str("frobnicate everything\n");
        let err = ScenarioSpec::parse(&text).expect_err("garbage directive must not parse");
        assert_eq!(err.pos, garbage_at, "error should point at the directive");
        assert!(
            err.reason.contains("frobnicate"),
            "reason names the directive: {}",
            err.reason
        );
        // The rendered form mirrors jamm_core::query::ParseError's
        // "at byte N" convention.
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("byte {garbage_at}")),
            "display carries the byte position: {msg}"
        );
    });
}

/// A malformed attribute value points at the offending `key=value` token
/// inside the line — not at the start of the line or the end of the file.
#[test]
fn bad_values_point_at_the_offending_token() {
    forall("bad value position", 48, |g: &mut Gen| {
        let mut text = gen_spec(g).to_string();
        let line_at = text.len();
        text.push_str("link broken bw=notarate delay=1ms\n");
        let err = ScenarioSpec::parse(&text).expect_err("bad rate must not parse");
        let token_at = line_at + "link broken ".len();
        assert_eq!(
            err.pos, token_at,
            "error points at the bw= token: {}",
            err.reason
        );
        assert!(
            err.reason.contains("notarate"),
            "reason echoes the value: {}",
            err.reason
        );
    });
}
