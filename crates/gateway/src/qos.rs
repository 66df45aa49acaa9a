//! Delivery tiers and adaptive overload shedding.
//!
//! The paper's scaling claim — added consumers load the gateway, not the
//! monitored host — only holds if one pathological consumer cannot
//! degrade every other subscriber of its gateway.  Following the TiFL
//! discipline (tier clients by *observed* responsiveness, re-evaluate
//! continuously), this module classifies each subscription into a
//! [`Tier`] from an EWMA over the delivery counters the router already
//! keeps, and layers two mechanisms on the fan-out:
//!
//! * **per-tier queue budgets** — a lagging subscription may only fill a
//!   fraction of its declared queue bound, so its eviction churn stays
//!   its own;
//! * **declared overload** — when aggregate queue pressure (or an
//!   externally fed gauge such as reactor loop saturation) crosses a
//!   threshold, the gateway sheds deliveries **lowest tier outward**,
//!   while `_jamm` self-lifelines and summary events are never shed
//!   (the plane must stay diagnosable exactly when it is drowning).
//!
//! Both state machines carry hysteresis: a subscription whose score
//! oscillates inside the band never flaps between tiers (asserted by a
//! property test), and the overload state de-escalates one level at a
//! time only after pressure falls below the exit threshold.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use jamm_ulm::SharedEvent;

/// A subscription's delivery tier, ordered fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Tier {
    /// Draining at pace: full queue budget, shed last.
    Fast = 0,
    /// Falling behind: reduced queue budget, shed before fast.
    Lagging = 1,
    /// Effectively stalled: minimal budget, shed first.
    Probation = 2,
}

impl Tier {
    /// Every tier, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Fast, Tier::Lagging, Tier::Probation];

    /// Stable lower-case name (metric label, admin rows, `.scn` specs).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Lagging => "lagging",
            Tier::Probation => "probation",
        }
    }

    /// Inverse of the `repr(u8)` discriminant (atomics store tiers as u8).
    pub fn from_u8(v: u8) -> Tier {
        match v {
            0 => Tier::Fast,
            1 => Tier::Lagging,
            _ => Tier::Probation,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Thresholds of the tier classifier.
///
/// The lag score of a subscription is an EWMA of
/// `max(queue_fill, interval_drop_ratio)` — 0 for a consumer keeping
/// pace, approaching 1 for one that is stalled.  Transitions carry
/// hysteresis: a tier is *entered* above its `enter` threshold and only
/// *left* below the (strictly lower) `exit` threshold, so scores
/// oscillating inside `(exit, enter)` never flap.  The invariant
/// `lag_exit <= lag_enter <= probation_exit <= probation_enter` makes
/// the classifier monotone: a strictly slower consumer never lands in a
/// faster tier (both properties are asserted by `prop_qos`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    /// Score at which a fast subscription becomes lagging.
    pub lag_enter: f64,
    /// Score below which a lagging subscription returns to fast.
    pub lag_exit: f64,
    /// Score at which a lagging subscription enters probation.
    pub probation_enter: f64,
    /// Score below which a probation subscription returns to lagging.
    pub probation_exit: f64,
    /// EWMA weight of the newest observation (0..=1; 1 = no smoothing).
    pub alpha: f64,
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            lag_enter: 0.25,
            lag_exit: 0.10,
            probation_enter: 0.60,
            probation_exit: 0.35,
            alpha: 0.5,
        }
    }
}

impl TierPolicy {
    /// One classifier step: the tier a subscription currently in `cur`
    /// with smoothed score `score` belongs to.  Pure, so the property
    /// tests drive it directly.
    pub fn classify(&self, cur: Tier, score: f64) -> Tier {
        match cur {
            Tier::Fast => {
                if score >= self.probation_enter {
                    Tier::Probation
                } else if score >= self.lag_enter {
                    Tier::Lagging
                } else {
                    Tier::Fast
                }
            }
            Tier::Lagging => {
                if score >= self.probation_enter {
                    Tier::Probation
                } else if score < self.lag_exit {
                    Tier::Fast
                } else {
                    Tier::Lagging
                }
            }
            Tier::Probation => {
                if score < self.lag_exit {
                    Tier::Fast
                } else if score < self.probation_exit {
                    Tier::Lagging
                } else {
                    Tier::Probation
                }
            }
        }
    }
}

/// Per-subscription classifier state: the EWMA score, the current tier,
/// and the counter snapshot the next interval's drop ratio is computed
/// against.
#[derive(Debug, Clone)]
pub struct TierState {
    /// Smoothed lag score.
    pub score: f64,
    /// Current assignment.
    pub tier: Tier,
    /// Delivered counter at the last re-tier pass.
    pub last_delivered: u64,
    /// Dropped counter at the last re-tier pass.
    pub last_dropped: u64,
}

impl Default for TierState {
    fn default() -> Self {
        TierState {
            score: 0.0,
            tier: Tier::Fast,
            last_delivered: 0,
            last_dropped: 0,
        }
    }
}

impl TierState {
    /// Fold one raw observation into the EWMA and re-classify.
    pub fn observe(&mut self, raw: f64, policy: &TierPolicy) -> Tier {
        let alpha = policy.alpha.clamp(0.0, 1.0);
        self.score = alpha * raw.clamp(0.0, 1.0) + (1.0 - alpha) * self.score;
        self.tier = policy.classify(self.tier, self.score);
        self.tier
    }
}

/// Overload entry/exit thresholds over the gateway's pressure gauge
/// (aggregate subscription-queue fill, max-combined with any externally
/// fed saturation gauge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Pressure at which the gateway declares overload and starts
    /// shedding probation-tier deliveries.  Escalation to lagging and
    /// fast raw events happens at evenly spaced steps between `enter`
    /// and 1.0.
    pub enter: f64,
    /// Pressure below which the shed level steps back down (one level
    /// per re-tier pass — de-escalation is gradual, entry is immediate).
    pub exit: f64,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            enter: 0.75,
            exit: 0.40,
        }
    }
}

/// How aggressively the gateway is shedding, ordered by severity.
/// Deliveries to a tier at or below the level's cut are dropped before
/// they reach the queue; protected events (see [`protected`]) always
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
#[derive(Default)]
pub enum ShedLevel {
    /// Normal operation, nothing shed.
    #[default]
    None = 0,
    /// Shed probation-tier deliveries only.
    Probation = 1,
    /// Shed lagging and probation tiers.
    Lagging = 2,
    /// Shed raw events to every tier (protected streams still pass).
    All = 3,
}

impl ShedLevel {
    /// Does this level shed (unprotected) deliveries to `tier`?
    pub fn sheds(self, tier: Tier) -> bool {
        match self {
            ShedLevel::None => false,
            ShedLevel::Probation => tier == Tier::Probation,
            ShedLevel::Lagging => tier >= Tier::Lagging,
            ShedLevel::All => true,
        }
    }

    /// Stable lower-case name for metrics and admin rows.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedLevel::None => "none",
            ShedLevel::Probation => "probation",
            ShedLevel::Lagging => "lagging",
            ShedLevel::All => "all",
        }
    }

    fn from_u8(v: u8) -> ShedLevel {
        match v {
            0 => ShedLevel::None,
            1 => ShedLevel::Probation,
            2 => ShedLevel::Lagging,
            _ => ShedLevel::All,
        }
    }
}

impl std::fmt::Display for ShedLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The overload state machine: escalates immediately on pressure,
/// de-escalates one level per update once below the exit threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadState {
    level: ShedLevel,
}

impl OverloadState {
    /// Fold one pressure reading and return the (possibly new) level.
    pub fn update(&mut self, pressure: f64, policy: &OverloadPolicy) -> ShedLevel {
        let enter = policy.enter.clamp(0.0, 1.0);
        let exit = policy.exit.clamp(0.0, enter);
        let span = (1.0 - enter).max(f64::EPSILON);
        let target = if pressure >= enter + span * 0.8 {
            ShedLevel::All
        } else if pressure >= enter + span * 0.4 {
            ShedLevel::Lagging
        } else if pressure >= enter {
            ShedLevel::Probation
        } else {
            ShedLevel::None
        };
        if target > self.level {
            self.level = target; // escalate immediately
        } else if pressure < exit {
            // De-escalate gradually, one level per pass.
            self.level = ShedLevel::from_u8((self.level as u8).saturating_sub(1));
        }
        self.level
    }

    /// The current level.
    pub fn level(&self) -> ShedLevel {
        self.level
    }
}

/// Full QoS configuration attached to a gateway via
/// [`crate::GatewayConfig::with_qos`].
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Tier classifier thresholds.
    pub tiers: TierPolicy,
    /// Overload entry/exit thresholds.
    pub overload: OverloadPolicy,
    /// Per-tier queue budgets as a fraction of each subscription's
    /// declared capacity, indexed by tier.
    pub budgets: [f64; 3],
    /// Publishes between re-tier passes (the dynamic-tiering cadence).
    /// Counted, not timed, so simulated-clock runs stay deterministic.
    pub retier_every: u64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            tiers: TierPolicy::default(),
            overload: OverloadPolicy::default(),
            budgets: [1.0, 0.5, 0.25],
            retier_every: 512,
        }
    }
}

/// Monotonic per-tier shed/budget counters.
#[derive(Debug, Default)]
pub struct QosStats {
    shed: [AtomicU64; 3],
    budget_drops: [AtomicU64; 3],
    retiers: AtomicU64,
}

impl QosStats {
    pub(crate) fn record_shed(&self, tier: Tier) {
        self.shed[tier as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_budget_drop(&self, tier: Tier) {
        self.budget_drops[tier as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retier(&self) {
        self.retiers.fetch_add(1, Ordering::Relaxed);
    }

    /// Events shed to `tier` subscriptions under declared overload.
    pub fn shed(&self, tier: Tier) -> u64 {
        self.shed[tier as usize].load(Ordering::Relaxed)
    }

    /// Events dropped by `tier`'s reduced queue budget.
    pub fn budget_drops(&self, tier: Tier) -> u64 {
        self.budget_drops[tier as usize].load(Ordering::Relaxed)
    }

    /// Re-tier passes run.
    pub fn retiers(&self) -> u64 {
        self.retiers.load(Ordering::Relaxed)
    }
}

/// The live QoS plane of one gateway: configuration, the declared
/// overload level (read on the hot path as one atomic load), the
/// pressure gauges, and the shed counters.
#[derive(Debug)]
pub struct QosRuntime {
    /// The configuration the gateway was opened with.
    pub config: QosConfig,
    level: AtomicU8,
    overload: jamm_core::sync::Mutex<OverloadState>,
    pressure_bits: AtomicU64,
    external_bits: AtomicU64,
    /// Shed and budget-drop counters, per tier.
    pub stats: QosStats,
}

impl QosRuntime {
    pub(crate) fn new(config: QosConfig) -> Self {
        QosRuntime {
            config,
            level: AtomicU8::new(ShedLevel::None as u8),
            overload: jamm_core::sync::Mutex::new(OverloadState::default()),
            pressure_bits: AtomicU64::new(0),
            external_bits: AtomicU64::new(0),
            stats: QosStats::default(),
        }
    }

    /// The declared shed level (one relaxed load; the publish hot path).
    pub fn shed_level(&self) -> ShedLevel {
        ShedLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// The queue budget fraction for a tier.
    pub fn budget(&self, tier: Tier) -> f64 {
        self.config.budgets[tier as usize].clamp(0.0, 1.0)
    }

    /// The pressure reading of the last re-tier pass.
    pub fn pressure(&self) -> f64 {
        f64::from_bits(self.pressure_bits.load(Ordering::Relaxed))
    }

    /// Feed an external saturation gauge (e.g. the reactor event loop's
    /// saturation fraction); max-combined with queue pressure at the
    /// next re-tier pass.
    pub fn set_external_pressure(&self, saturation: f64) {
        self.external_bits
            .store(saturation.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// Fold the aggregate queue fill into the overload machine and
    /// publish the new shed level.  Called from the re-tier pass.
    pub(crate) fn update_overload(&self, queue_fill: f64) -> ShedLevel {
        let external = f64::from_bits(self.external_bits.load(Ordering::Relaxed));
        let pressure = queue_fill.max(external);
        self.pressure_bits
            .store(pressure.to_bits(), Ordering::Relaxed);
        let level = self.overload.lock().update(pressure, &self.config.overload);
        self.level.store(level as u8, Ordering::Relaxed);
        level
    }
}

/// A point-in-time snapshot of a gateway's QoS plane, for admin stats
/// and metrics collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSnapshot {
    /// Declared shed level.
    pub level: ShedLevel,
    /// Pressure reading of the last re-tier pass.
    pub pressure: f64,
    /// Events shed per tier under overload, indexed by tier.
    pub shed: [u64; 3],
    /// Events dropped by per-tier queue budgets, indexed by tier.
    pub budget_drops: [u64; 3],
    /// Re-tier passes run.
    pub retiers: u64,
}

impl QosRuntime {
    /// Snapshot the shed level, pressure and counters.
    pub fn snapshot(&self) -> QosSnapshot {
        QosSnapshot {
            level: self.shed_level(),
            pressure: self.pressure(),
            shed: [
                self.stats.shed(Tier::Fast),
                self.stats.shed(Tier::Lagging),
                self.stats.shed(Tier::Probation),
            ],
            budget_drops: [
                self.stats.budget_drops(Tier::Fast),
                self.stats.budget_drops(Tier::Lagging),
                self.stats.budget_drops(Tier::Probation),
            ],
            retiers: self.stats.retiers(),
        }
    }
}

/// One row of [`crate::EventGateway::tier_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierRow {
    /// Subscription id.
    pub id: u64,
    /// Consumer principal.
    pub consumer: String,
    /// Current tier assignment.
    pub tier: Tier,
    /// Smoothed lag score (0 = keeping pace, 1 = stalled).
    pub score: f64,
    /// Events currently queued.
    pub queue_len: usize,
    /// Declared queue capacity.
    pub capacity: usize,
}

/// Events that must never be shed: the monitoring plane's own
/// self-lifelines (`PROG == "_jamm"`) and summary events (the
/// `*_AVG_<window>` series of the gateway's summaries) — under overload
/// the plane degrades to summaries, it does not go dark.
pub fn protected(event: &SharedEvent) -> bool {
    event.program == "_jamm" || event.event_type.contains("_AVG_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_enters_and_exits_with_hysteresis() {
        let p = TierPolicy::default();
        let mut st = TierState::default();
        assert_eq!(st.observe(0.0, &p), Tier::Fast);
        // A sustained high score walks the EWMA over both thresholds.
        for _ in 0..8 {
            st.observe(1.0, &p);
        }
        assert_eq!(st.tier, Tier::Probation);
        // Scores inside the band change nothing.
        let before = st.tier;
        st.observe(0.5, &p);
        assert_eq!(st.tier, before, "inside (probation_exit, probation_enter)");
        // A sustained recovery walks back down through lagging to fast.
        for _ in 0..3 {
            st.observe(0.15, &p);
        }
        assert_eq!(st.tier, Tier::Lagging);
        for _ in 0..8 {
            st.observe(0.0, &p);
        }
        assert_eq!(st.tier, Tier::Fast);
    }

    #[test]
    fn overload_escalates_immediately_and_backs_off_gradually() {
        let p = OverloadPolicy {
            enter: 0.5,
            exit: 0.3,
        };
        let mut st = OverloadState::default();
        assert_eq!(st.update(0.2, &p), ShedLevel::None);
        assert_eq!(st.update(0.55, &p), ShedLevel::Probation);
        assert_eq!(st.update(0.95, &p), ShedLevel::All, "straight to the top");
        // Between exit and enter: hold the level (hysteresis).
        assert_eq!(st.update(0.4, &p), ShedLevel::All);
        // Below exit: one level per pass.
        assert_eq!(st.update(0.1, &p), ShedLevel::Lagging);
        assert_eq!(st.update(0.1, &p), ShedLevel::Probation);
        assert_eq!(st.update(0.1, &p), ShedLevel::None);
        assert_eq!(st.update(0.1, &p), ShedLevel::None);
    }

    #[test]
    fn shed_levels_cut_lowest_tier_outward() {
        assert!(!ShedLevel::None.sheds(Tier::Probation));
        assert!(ShedLevel::Probation.sheds(Tier::Probation));
        assert!(!ShedLevel::Probation.sheds(Tier::Lagging));
        assert!(ShedLevel::Lagging.sheds(Tier::Probation));
        assert!(ShedLevel::Lagging.sheds(Tier::Lagging));
        assert!(!ShedLevel::Lagging.sheds(Tier::Fast));
        assert!(ShedLevel::All.sheds(Tier::Fast));
    }

    #[test]
    fn protected_streams_are_never_shed() {
        use jamm_ulm::{Event, Level, Timestamp};
        let lifeline = std::sync::Arc::new(
            Event::builder("_jamm", "h")
                .level(Level::Usage)
                .event_type("JAMM_GW_PUB")
                .timestamp(Timestamp::from_secs(1))
                .build(),
        );
        let summary = std::sync::Arc::new(
            Event::builder("gw1", "h")
                .level(Level::Usage)
                .event_type("CPU_TOTAL_AVG_1MIN")
                .timestamp(Timestamp::from_secs(1))
                .build(),
        );
        let raw = std::sync::Arc::new(
            Event::builder("vmstat", "h")
                .level(Level::Usage)
                .event_type("CPU_TOTAL")
                .timestamp(Timestamp::from_secs(1))
                .build(),
        );
        assert!(protected(&lifeline));
        assert!(protected(&summary));
        assert!(!protected(&raw));
    }
}
