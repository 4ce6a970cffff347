//! Deterministic admission control and backpressure for [`crate::Network`].
//!
//! The paper's routers bound *where* a message may travel; nothing in
//! the model bounds *how many* messages the network will accept. This
//! module adds that missing bound: a controller watches the engine's
//! own saturation signals — live entries in the
//! [`ArrivalSlab`](crate::slab::ArrivalSlab) and occupied slots of the
//! timing wheel — and, once a configured high-water mark is crossed,
//! applies one of three deterministic policies to keep per-node state
//! bounded while the offered load is not:
//!
//! * **reject-new** — refuse the injection outright
//!   ([`crate::MessageFate::Rejected`]);
//! * **shed-oldest** — evict the oldest still-in-flight admitted
//!   message ([`crate::MessageFate::Shed`]) and admit the newcomer;
//! * **backoff-scale** — admit everything, but stretch the source-side
//!   retry backoff by the saturation factor so retry storms cannot
//!   amplify an overload.
//!
//! Every decision is a pure function of the controller's configuration
//! and the engine's counters at the instant of the injection — no
//! clocks, no randomness — so an overloaded run replays byte-for-byte
//! from its seed, at any worker count. The conservation invariant
//! ([`crate::NetworkMetrics::accounted`]) extends over the two new
//! fates: a rejected message is still *sent* (the sender experienced
//! it), it just never touches the scheduler.

/// What the controller does when the network is saturated at an
/// injection. [`Default`] is [`Open`](AdmissionPolicy::Open):
/// admit everything, byte-identical to the pre-admission simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdmissionPolicy {
    /// No admission control (the historical behaviour, and the
    /// default — every existing golden depends on it).
    #[default]
    Open,
    /// Refuse new injections while saturated; the message is recorded
    /// with fate [`crate::MessageFate::Rejected`] and never scheduled.
    RejectNew,
    /// Evict the oldest still-in-flight admitted message (fate
    /// [`crate::MessageFate::Shed`]) and admit the newcomer — newest
    /// traffic wins, bounded state is preserved.
    ShedOldest,
    /// Admit everything, but scale retry backoff by
    /// [`AdmissionConfig::backoff_scale`] while saturated, so
    /// reliability traffic yields to first attempts under pressure.
    BackoffScale,
}

impl AdmissionPolicy {
    /// Stable snake_case name (for reports and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Open => "open",
            AdmissionPolicy::RejectNew => "reject_new",
            AdmissionPolicy::ShedOldest => "shed_oldest",
            AdmissionPolicy::BackoffScale => "backoff_scale",
        }
    }
}

/// Configuration of the backpressure controller.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// The policy applied once saturated.
    pub policy: AdmissionPolicy,
    /// Saturation threshold: live [`ArrivalSlab`](crate::slab::ArrivalSlab)
    /// entries (in-flight transmissions) at or above this trip the
    /// controller. `0` means never saturated.
    pub max_live: usize,
    /// Secondary threshold on occupied timing-wheel slots (of the 64 in
    /// the ring); `0` disables the wheel signal. Either signal tripping
    /// saturates the controller.
    pub max_wheel_occupancy: u32,
    /// Backoff multiplier applied by
    /// [`AdmissionPolicy::BackoffScale`] while saturated (clamped to at
    /// least 1).
    pub backoff_scale: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            policy: AdmissionPolicy::Open,
            max_live: 0,
            max_wheel_occupancy: 0,
            backoff_scale: 2,
        }
    }
}

/// The controller's verdict on one injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmissionVerdict {
    /// Schedule the message normally.
    Admit,
    /// Record the message as [`crate::MessageFate::Rejected`]; do not
    /// schedule it.
    Reject,
    /// Evict the oldest in-flight message, then admit this one.
    ShedThenAdmit,
}

/// The saturation signals sampled at an injection, in the engine's own
/// units: live arena entries and occupied wheel slots.
#[derive(Clone, Copy, Debug)]
pub struct SaturationSample {
    /// Live [`ArrivalSlab`](crate::slab::ArrivalSlab) entries.
    pub live: usize,
    /// Occupied slots of the arrival wheel's 64-slot ring (overflow
    /// entries count as a full ring).
    pub wheel_occupied: u32,
}

/// Deterministic backpressure controller; one per [`crate::Network`].
///
/// The controller is pure bookkeeping: it owns no queue and touches no
/// message — it only turns saturation samples into verdicts and keeps
/// the counters the end-of-run registry flush reports.
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    rejected: u64,
    shed: u64,
    peak_live: usize,
    decisions: u64,
}

impl AdmissionController {
    /// A controller with the given configuration.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            ..AdmissionController::default()
        }
    }

    /// Whether the controller can ever interfere with traffic. `false`
    /// for [`AdmissionPolicy::Open`], which keeps the historical
    /// fast path (and every golden trace) untouched.
    pub fn active(&self) -> bool {
        self.cfg.policy != AdmissionPolicy::Open
    }

    /// Whether `sample` is at or beyond a configured high-water mark.
    pub fn saturated(&self, sample: SaturationSample) -> bool {
        (self.cfg.max_live > 0 && sample.live >= self.cfg.max_live)
            || (self.cfg.max_wheel_occupancy > 0
                && sample.wheel_occupied >= self.cfg.max_wheel_occupancy)
    }

    /// Judges one injection under the configured policy. Counters for
    /// rejected/shed verdicts are bumped here, so the caller must act
    /// on the verdict it is given.
    pub fn admit(&mut self, sample: SaturationSample) -> AdmissionVerdict {
        self.decisions += 1;
        self.peak_live = self.peak_live.max(sample.live);
        if !self.saturated(sample) {
            return AdmissionVerdict::Admit;
        }
        match self.cfg.policy {
            AdmissionPolicy::Open | AdmissionPolicy::BackoffScale => AdmissionVerdict::Admit,
            AdmissionPolicy::RejectNew => {
                self.rejected += 1;
                AdmissionVerdict::Reject
            }
            AdmissionPolicy::ShedOldest => {
                self.shed += 1;
                AdmissionVerdict::ShedThenAdmit
            }
        }
    }

    /// The retry-backoff multiplier in force for a retry scheduled
    /// while the network looks like `sample`: 1 normally,
    /// [`AdmissionConfig::backoff_scale`] under
    /// [`AdmissionPolicy::BackoffScale`] saturation.
    pub fn backoff_factor(&self, sample: SaturationSample) -> u64 {
        if self.cfg.policy == AdmissionPolicy::BackoffScale && self.saturated(sample) {
            self.cfg.backoff_scale.max(1)
        } else {
            1
        }
    }

    /// Injections rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Messages shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Highest live-arena occupancy seen at a decision point.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Decisions taken (== injections attempted while active).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(live: usize, wheel: u32) -> SaturationSample {
        SaturationSample {
            live,
            wheel_occupied: wheel,
        }
    }

    #[test]
    fn open_policy_admits_everything() {
        let mut c = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::Open,
            max_live: 1,
            ..Default::default()
        });
        assert!(!c.active());
        assert_eq!(c.admit(sample(1_000_000, 64)), AdmissionVerdict::Admit);
        assert_eq!(c.rejected(), 0);
    }

    #[test]
    fn reject_new_trips_at_the_high_water_mark() {
        let mut c = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::RejectNew,
            max_live: 8,
            ..Default::default()
        });
        assert!(c.active());
        assert_eq!(c.admit(sample(7, 0)), AdmissionVerdict::Admit);
        assert_eq!(c.admit(sample(8, 0)), AdmissionVerdict::Reject);
        assert_eq!(c.admit(sample(9, 0)), AdmissionVerdict::Reject);
        assert_eq!((c.rejected(), c.shed()), (2, 0));
        assert_eq!(c.peak_live(), 9);
        assert_eq!(c.decisions(), 3);
    }

    #[test]
    fn shed_oldest_sheds_then_admits() {
        let mut c = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::ShedOldest,
            max_live: 4,
            ..Default::default()
        });
        assert_eq!(c.admit(sample(4, 0)), AdmissionVerdict::ShedThenAdmit);
        assert_eq!((c.rejected(), c.shed()), (0, 1));
    }

    #[test]
    fn wheel_occupancy_is_an_independent_signal() {
        let mut c = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::RejectNew,
            max_live: 0,
            max_wheel_occupancy: 32,
            ..Default::default()
        });
        assert_eq!(c.admit(sample(1_000, 31)), AdmissionVerdict::Admit);
        assert_eq!(c.admit(sample(0, 32)), AdmissionVerdict::Reject);
    }

    #[test]
    fn backoff_scale_admits_but_stretches_retries() {
        let mut c = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::BackoffScale,
            max_live: 10,
            backoff_scale: 4,
            ..Default::default()
        });
        assert_eq!(c.admit(sample(50, 0)), AdmissionVerdict::Admit);
        assert_eq!(c.backoff_factor(sample(50, 0)), 4);
        assert_eq!(c.backoff_factor(sample(3, 0)), 1);
        assert_eq!((c.rejected(), c.shed()), (0, 0));
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(AdmissionPolicy::Open.name(), "open");
        assert_eq!(AdmissionPolicy::RejectNew.name(), "reject_new");
        assert_eq!(AdmissionPolicy::ShedOldest.name(), "shed_oldest");
        assert_eq!(AdmissionPolicy::BackoffScale.name(), "backoff_scale");
    }
}
