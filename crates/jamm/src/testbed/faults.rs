//! Deterministic fault injection.
//!
//! A [`FaultInjector`] holds the spec's timeline sorted stably by firing
//! time and releases entries as the simulated clock passes them; the
//! engine applies each one by mutating the simulated network and the
//! monitoring deployment.  Everything is driven by the tick counter —
//! there is no wall clock anywhere, so a seeded scenario replays
//! byte-identically.

use jamm_archive::ReplaySource;
use jamm_core::query::Predicate;
use jamm_directory::Dn;
use jamm_netsim::link::LinkId;
use jamm_netsim::spec::{Fault, TimelineEntry};

use super::ScenarioEngine;

/// Releases timeline entries as simulated time passes them.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Entries sorted stably by `at_us` (spec order breaks ties, so
    /// same-tick faults apply in the order they were written).
    schedule: Vec<TimelineEntry>,
    next: usize,
}

impl FaultInjector {
    /// Build an injector from a spec timeline.
    pub fn new(timeline: &[TimelineEntry]) -> Self {
        let mut schedule = timeline.to_vec();
        schedule.sort_by_key(|e| e.at_us);
        FaultInjector { schedule, next: 0 }
    }

    /// Entries that fire at or before `now_us` and have not fired yet.
    pub fn due(&mut self, now_us: u64) -> Vec<TimelineEntry> {
        let start = self.next;
        while self.next < self.schedule.len() && self.schedule[self.next].at_us <= now_us {
            self.next += 1;
        }
        self.schedule[start..self.next].to_vec()
    }

    /// Entries not yet released.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.next
    }
}

impl ScenarioEngine {
    /// Apply one timeline entry to the running scenario.
    pub(crate) fn apply(&mut self, entry: &TimelineEntry) {
        let desc = match &entry.fault {
            Fault::LinkDegrade {
                link,
                bandwidth_bps,
            } => {
                self.degrade_link(link, *bandwidth_bps);
                format!("link {link} degraded to {bandwidth_bps} bit/s")
            }
            Fault::LinkRestore { link } => {
                self.restore_link(link);
                format!("link {link} restored")
            }
            Fault::HostCrash { host } => {
                self.crash_host(host);
                format!("host {host} crashed")
            }
            Fault::HostRecover { host } => {
                self.recover_host(host);
                format!("host {host} recovered")
            }
            Fault::Partition { groups } => {
                self.partition = Some(groups.clone());
                let rendered: Vec<String> = groups.iter().map(|g| g.join(",")).collect();
                format!("partition {{{}}}", rendered.join("}{"))
            }
            Fault::Heal => {
                self.partition = None;
                "partition healed".to_string()
            }
            Fault::SubscriberStall { name, period_us } => {
                if let Some(s) = self.subscribers.iter_mut().find(|s| s.name == *name) {
                    s.stalled_us = Some(*period_us);
                }
                format!("subscriber {name} stalled to {period_us} us per drain")
            }
            Fault::SubscriberResume { name } => {
                if let Some(s) = self.subscribers.iter_mut().find(|s| s.name == *name) {
                    s.stalled_us = None;
                }
                format!("subscriber {name} resumed")
            }
            Fault::SensorStop { host } => {
                for s in self.sensors.iter_mut().filter(|s| s.host == *host) {
                    s.request(false);
                }
                format!("sensors on {host} stopped")
            }
            Fault::SensorStart { host } => {
                for s in self.sensors.iter_mut().filter(|s| s.host == *host) {
                    s.request(true);
                }
                format!("sensors on {host} started")
            }
            Fault::SensorPeriod { host, every_us } => {
                for s in self
                    .sensors
                    .iter_mut()
                    .filter(|s| host == "*" || s.host == *host)
                {
                    s.set_period(*every_us);
                }
                format!("sensors on {host} now every {every_us} us")
            }
            Fault::Replay { archiver, via } => {
                let n = self.replay_archive(archiver, via);
                format!("replayed {n} archived events from {archiver} via {via}")
            }
            Fault::ProcessKill { host, process } => {
                if let Some(id) = self.net.host_by_name(host) {
                    self.net.host_mut(id).kill_process(process);
                }
                format!("process {process} on {host} killed")
            }
        };
        self.fault_log.push((entry.at_us, desc));
    }

    fn degrade_link(&mut self, name: &str, bandwidth_bps: u64) {
        let Some(id) = self.link_id_by_name(name) else {
            return;
        };
        let link = self.net.link_mut(id);
        if !self.saved_bw.iter().any(|(n, _)| n == name) {
            self.saved_bw
                .push((name.to_string(), link.spec.bandwidth_bps));
        }
        link.spec.bandwidth_bps = bandwidth_bps;
    }

    fn restore_link(&mut self, name: &str) {
        let Some(pos) = self.saved_bw.iter().position(|(n, _)| n == name) else {
            return;
        };
        let (_, original) = self.saved_bw.remove(pos);
        if let Some(id) = self.link_id_by_name(name) {
            self.net.link_mut(id).spec.bandwidth_bps = original;
        }
    }

    fn link_id_by_name(&self, name: &str) -> Option<LinkId> {
        self.net
            .links()
            .iter()
            .find(|l| l.spec.name == name)
            .map(|l| l.id)
    }

    /// Crash a host: processes die, its gateways are marked down in the
    /// directory, and every TCP flow touching it closes (remembering what
    /// was still owed so recovery can restart it).
    fn crash_host(&mut self, host: &str) {
        if self.crashed.iter().any(|h| h == host) {
            return;
        }
        self.crashed.push(host.to_string());
        if let Some(id) = self.net.host_by_name(host) {
            let procs: Vec<String> = self
                .net
                .host(id)
                .processes()
                .map(|(p, _)| p.to_string())
                .collect();
            for p in procs {
                self.net.host_mut(id).kill_process(&p);
            }
            for i in 0..self.flows.len() {
                if self.flows[i].suspended {
                    continue;
                }
                if self.flows[i].src == id || self.flows[i].dst == id {
                    let fid = self.flows[i].id;
                    self.flows[i].delivered_closed += self.net.flow(fid).total_delivered;
                    self.net.flow_mut(fid).close();
                    self.flows[i].suspended = true;
                }
            }
        }
        // Mark the host's gateways down so sensor routing fails over.
        self.set_gateway_status(host, "down");
    }

    /// Recover a crashed host: processes restart, gateways come back up,
    /// and suspended flows reopen as fresh connections (slow-start from
    /// scratch, like a real reconnect) — except a player's, which the
    /// DPSS does not redial.
    fn recover_host(&mut self, host: &str) {
        let Some(pos) = self.crashed.iter().position(|h| h == host) else {
            return;
        };
        self.crashed.remove(pos);
        if let Some(id) = self.net.host_by_name(host) {
            let procs: Vec<String> = self
                .net
                .host(id)
                .processes()
                .map(|(p, _)| p.to_string())
                .collect();
            for p in procs {
                self.net.host_mut(id).restart_process(&p);
            }
            for i in 0..self.flows.len() {
                if !self.flows[i].suspended || self.flows[i].idle {
                    continue;
                }
                if self.flows[i].src == id || self.flows[i].dst == id {
                    let other = if self.flows[i].src == id {
                        self.flows[i].dst
                    } else {
                        self.flows[i].src
                    };
                    let other_down = self
                        .crashed
                        .iter()
                        .any(|h| self.net.host_by_name(h) == Some(other));
                    if other_down {
                        continue;
                    }
                    let d = &self.flows[i].decl;
                    let new_id = self.net.open_flow(
                        &d.name,
                        self.flows[i].src,
                        self.flows[i].dst,
                        d.port,
                        self.flows[i].path.clone(),
                        d.window,
                    );
                    match d.bytes {
                        Some(total) => {
                            let owed = total.saturating_sub(self.flows[i].delivered_closed);
                            self.net.flow_mut(new_id).enqueue(owed);
                        }
                        None => self.net.flow_mut(new_id).set_unlimited(),
                    }
                    self.flows[i].id = new_id;
                    self.flows[i].suspended = false;
                }
            }
        }
        self.set_gateway_status(host, "up");
    }

    /// Set `status` on the directory entry of every gateway on `host`.
    fn set_gateway_status(&self, host: &str, status: &str) {
        for g in self.gateways.iter().filter(|g| g.host == host) {
            let Ok(dn) = Dn::parse(&format!("gw={},o=grid", g.name)) else {
                continue;
            };
            let _ = self
                .directory
                .modify(&dn, |e| e.set("status", vec![status.to_string()]));
        }
    }

    /// Replay everything an archiver has stored back through a gateway —
    /// the paper's "retrieve archived events for post-mortem analysis"
    /// path ([`ReplaySource`]), which under a partition overflows bounded
    /// subscriptions.
    fn replay_archive(&mut self, archiver: &str, via: &str) -> usize {
        let Some(a) = self.archivers.iter().find(|a| a.name == archiver) else {
            return 0;
        };
        let Some(g) = self.gateways.iter().find(|g| g.name == via) else {
            return 0;
        };
        let n =
            ReplaySource::new(a.agent.archive(), &Predicate::True.compile()).pump(g.gw.as_ref());
        self.published += n as u64;
        n
    }
}
