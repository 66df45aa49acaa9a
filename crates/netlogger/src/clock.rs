//! Clock synchronisation model (§4.3).
//!
//! "In order to analyze a network-based system using absolute timestamps,
//! the clocks of all relevant hosts must be synchronized. ...  By installing
//! a GPS-based NTP server on each subnet of the distributed system and
//! running xntpd on each host, all the hosts' clocks can be synchronized to
//! within about 0.25 ms.  If the closest time source is several IP router
//! hops away, accuracy may decrease somewhat.  However, it has been our
//! experience that synchronization within 1 ms is accurate enough for many
//! types of analysis."
//!
//! [`HostClock`] models a host clock with an offset and a drift rate;
//! [`NtpSimulation`] runs an NTP-like correction loop whose residual error
//! grows with the network distance to the time source, letting experiment E6
//! reproduce the 0.25 ms / 1 ms numbers and show what clock skew does to
//! lifeline analysis.

use jamm_core::rng::Rng;
use jamm_ulm::{Event, Timestamp};

/// A host's clock: true time plus an offset that drifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostClock {
    /// Current offset from true time, microseconds (positive = fast).
    pub offset_us: f64,
    /// Drift rate in parts per million (microseconds of error per second).
    pub drift_ppm: f64,
}

impl HostClock {
    /// A clock with the given initial offset and drift.
    pub fn new(offset_us: f64, drift_ppm: f64) -> Self {
        HostClock {
            offset_us,
            drift_ppm,
        }
    }

    /// Advance true time by `dt_secs`, accumulating drift.
    pub fn advance(&mut self, dt_secs: f64) {
        self.offset_us += self.drift_ppm * dt_secs;
    }

    /// The local reading for a given true time.
    pub fn read(&self, true_time: Timestamp) -> Timestamp {
        let adjusted = true_time.as_micros() as i64 + self.offset_us.round() as i64;
        Timestamp::from_micros(adjusted.max(0) as u64)
    }

    /// Apply an NTP-style correction: slew a fraction of the measured offset
    /// (xntpd slews rather than steps for small offsets).
    pub fn correct(&mut self, measured_offset_us: f64, gain: f64) {
        self.offset_us -= measured_offset_us * gain.clamp(0.0, 1.0);
    }
}

/// One host in the NTP simulation.
#[derive(Debug, Clone)]
struct SyncedHost {
    name: String,
    clock: HostClock,
    /// Network distance to the time source, in router hops (0 = GPS source
    /// on the local subnet).
    hops: u32,
}

/// An NTP-like synchronisation simulation across a set of hosts.
#[derive(Debug)]
pub struct NtpSimulation {
    hosts: Vec<SyncedHost>,
    rng: Rng,
    /// Polling interval in seconds.
    pub poll_interval_secs: f64,
    /// One-way jitter per router hop, microseconds (asymmetric path delay is
    /// what limits NTP's accuracy as sources get farther away).
    pub per_hop_jitter_us: f64,
}

impl NtpSimulation {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        NtpSimulation {
            hosts: Vec::new(),
            rng: Rng::seed_from_u64(seed),
            poll_interval_secs: 64.0,
            per_hop_jitter_us: 150.0,
        }
    }

    /// Add a host with an initial offset (us), drift (ppm) and distance to
    /// its time source in router hops.
    pub fn add_host(&mut self, name: impl Into<String>, offset_us: f64, drift_ppm: f64, hops: u32) {
        self.hosts.push(SyncedHost {
            name: name.into(),
            clock: HostClock::new(offset_us, drift_ppm),
            hops,
        });
    }

    /// Current absolute offset of a host, microseconds.
    pub fn offset_of(&self, name: &str) -> Option<f64> {
        self.hosts
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.clock.offset_us.abs())
    }

    /// Run the synchronisation loop for `rounds` polling intervals.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            for host in &mut self.hosts {
                // Drift between polls.
                host.clock.advance(self.poll_interval_secs);
                // The NTP measurement sees the true offset plus an error that
                // grows with path asymmetry: +/- jitter per hop.
                let jitter_bound = self.per_hop_jitter_us * host.hops as f64 + 20.0;
                let measurement_error = self.rng.gen_range(-jitter_bound..=jitter_bound);
                let measured = host.clock.offset_us + measurement_error;
                host.clock.correct(measured, 0.5);
                // xntpd also disciplines the clock frequency, so the drift
                // rate itself converges towards zero over successive polls.
                host.clock.drift_ppm *= 0.7;
            }
        }
    }

    /// Converged residual offsets `(host, |offset| in microseconds)`.
    pub fn residual_offsets(&self) -> Vec<(String, f64)> {
        self.hosts
            .iter()
            .map(|h| (h.name.clone(), h.clock.offset_us.abs()))
            .collect()
    }

    /// Worst residual offset in microseconds.
    pub fn worst_offset_us(&self) -> f64 {
        self.hosts
            .iter()
            .map(|h| h.clock.offset_us.abs())
            .fold(0.0, f64::max)
    }
}

/// Apply a host clock's error to every event from that host (what the
/// analysis tools actually see when clocks are not synchronised).
pub fn skew_events(events: &[Event], host: &str, clock: &HostClock) -> Vec<Event> {
    events
        .iter()
        .map(|e| {
            if e.host == host {
                let mut skewed = e.clone();
                skewed.timestamp = clock.read(e.timestamp);
                skewed
            } else {
                e.clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{inversion_count, merge_logs};
    use jamm_ulm::Level;

    #[test]
    fn clock_reads_apply_offset_and_drift() {
        let mut c = HostClock::new(500.0, 100.0); // 0.5 ms fast, 100 ppm
        let t = Timestamp::from_secs(1_000);
        assert_eq!(c.read(t).as_micros(), 1_000_000_500);
        c.advance(10.0); // 10 s of 100 ppm drift = +1000 us
        assert!((c.offset_us - 1_500.0).abs() < 1e-9);
        c.correct(1_500.0, 1.0);
        assert!(c.offset_us.abs() < 1e-9);
    }

    #[test]
    fn gps_on_subnet_syncs_within_quarter_millisecond() {
        let mut sim = NtpSimulation::new(42);
        // Hosts with a GPS NTP server on their subnet (0 hops).
        for i in 0..8 {
            sim.add_host(format!("host{i}"), 50_000.0 * (i as f64 - 4.0), 30.0, 0);
        }
        sim.run(50);
        let worst = sim.worst_offset_us();
        assert!(
            worst <= 250.0,
            "paper: ~0.25 ms with GPS on the subnet; got {worst:.0} us"
        );
    }

    #[test]
    fn distant_time_source_is_worse_but_still_around_a_millisecond() {
        let mut sim = NtpSimulation::new(7);
        sim.add_host("near", 10_000.0, 30.0, 0);
        sim.add_host("far", 10_000.0, 30.0, 5);
        sim.run(50);
        let near = sim.offset_of("near").unwrap();
        let far = sim.offset_of("far").unwrap();
        assert!(
            near < far,
            "more hops => worse sync ({near:.0} vs {far:.0} us)"
        );
        assert!(far < 2_000.0, "still within a couple of ms: {far:.0} us");
    }

    #[test]
    fn unsynchronised_clocks_break_lifeline_ordering() {
        // A request path: client sends at t=1.000s, server receives 5 ms
        // later, replies at +10 ms, client gets it at +15 ms.
        let mk = |host: &str, ty: &str, us: u64| {
            Event::builder("app", host)
                .level(Level::Usage)
                .event_type(ty)
                .timestamp(Timestamp::from_micros(1_000_000 + us))
                .build()
        };
        let client = vec![
            mk("client", "REQ_SENT", 0),
            mk("client", "RESP_RECV", 15_000),
        ];
        let server = vec![
            mk("server", "REQ_RECV", 5_000),
            mk("server", "RESP_SENT", 10_000),
        ];
        // Synchronised: the merged lifeline is ordered.
        let merged = merge_logs(&[client.clone(), server.clone()]);
        assert_eq!(inversion_count(&merged), 0);
        // The server clock is 8 ms slow: its events now appear *before* the
        // client's send, and the merged order has inversions in event-flow
        // terms (REQ_RECV shows up before REQ_SENT).
        let slow = HostClock::new(-8_000.0, 0.0);
        let skewed_server = skew_events(&server, "server", &slow);
        let merged_skewed = merge_logs(&[client, skewed_server]);
        let order: Vec<_> = merged_skewed
            .iter()
            .map(|e| e.event_type.as_str())
            .collect();
        assert_eq!(order[0], "REQ_RECV", "causality appears violated");
    }
}
