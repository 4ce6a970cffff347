//! Seed-replayable open-loop traffic workloads.
//!
//! A [`WorkloadConfig`] describes *offered load* as a sequence of
//! [`PhaseSpec`] segments — steady plateaus, linear diurnal ramps, and
//! flash-crowd spikes — with destination popularity drawn from a
//! Zipf(s) distribution over a seed-shuffled node ranking. Expanding
//! the config with [`build_schedule`] yields an [`ArrivalSchedule`]: a
//! plain, fully materialized list of `(tick, src, dst)` injections that
//! is a pure function of `(config, n)`. The schedule is *open-loop*:
//! arrivals do not react to the network, which is exactly what makes
//! overload reproducible — composing the same schedule with a
//! [`FaultPlan`](crate::FaultPlan) storm replays byte-for-byte from the
//! two seeds.
//!
//! [`run_schedule`] injects a schedule into a [`Network`] tick by tick
//! (the admission controller, if any, judges each injection).

use crate::network::Network;
use crate::SimError;
use locality_graph::rng::DetRng;
use locality_graph::NodeId;

/// One segment of offered load. Rates are in *arrivals per 1000
/// ticks* (`rate_milli`), so sub-one-per-tick loads need no floats and
/// the accumulator arithmetic is exact.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    /// Phase name, reported in per-phase latency tables.
    pub name: &'static str,
    /// Duration in ticks.
    pub ticks: u64,
    /// Offered rate at the start of the phase, in arrivals per 1000
    /// ticks.
    pub rate_milli: u64,
    /// Offered rate at the end of the phase; the rate interpolates
    /// linearly in between (equal to `rate_milli` for a plateau).
    pub end_rate_milli: u64,
}

impl PhaseSpec {
    /// A constant-rate plateau.
    pub fn steady(name: &'static str, ticks: u64, rate_milli: u64) -> PhaseSpec {
        PhaseSpec {
            name,
            ticks,
            rate_milli,
            end_rate_milli: rate_milli,
        }
    }

    /// A linear ramp from `from_milli` to `to_milli` — half of a
    /// diurnal cycle, or the onset of a flash crowd.
    pub fn ramp(name: &'static str, ticks: u64, from_milli: u64, to_milli: u64) -> PhaseSpec {
        PhaseSpec {
            name,
            ticks,
            rate_milli: from_milli,
            end_rate_milli: to_milli,
        }
    }
}

/// A deterministic open-loop workload: phases plus the popularity
/// skew and the seed that fixes every random choice.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Seed for all traffic randomness (rank shuffle, Zipf draws,
    /// source picks). Independent of any fault-plan seed.
    pub seed: u64,
    /// Zipf exponent ×1000 (`1000` ⇒ classic 1/rank weights; `0` ⇒
    /// uniform destinations).
    pub zipf_s_milli: u64,
    /// The load phases, played in order.
    pub phases: Vec<PhaseSpec>,
}

impl WorkloadConfig {
    /// An empty workload with the given seed and classic Zipf(1.0)
    /// popularity.
    pub fn new(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            zipf_s_milli: 1000,
            phases: Vec::new(),
        }
    }

    /// Appends a phase (builder style).
    pub fn phase(mut self, p: PhaseSpec) -> WorkloadConfig {
        self.phases.push(p);
        self
    }

    /// Sets the Zipf exponent ×1000 (builder style).
    pub fn zipf_s_milli(mut self, s_milli: u64) -> WorkloadConfig {
        self.zipf_s_milli = s_milli;
        self
    }

    /// A three-phase flash crowd: a baseline plateau, a spike at
    /// `spike_mult ×` the baseline rate, and a recovery plateau.
    pub fn flash_crowd(
        seed: u64,
        base_milli: u64,
        spike_mult: u64,
        base_ticks: u64,
        spike_ticks: u64,
    ) -> WorkloadConfig {
        WorkloadConfig::new(seed)
            .phase(PhaseSpec::steady("baseline", base_ticks, base_milli))
            .phase(PhaseSpec::steady(
                "flash",
                spike_ticks,
                base_milli * spike_mult,
            ))
            .phase(PhaseSpec::steady("recovery", base_ticks, base_milli))
    }

    /// A four-phase diurnal cycle: night plateau, morning ramp up,
    /// daytime plateau, evening ramp down.
    pub fn diurnal(
        seed: u64,
        low_milli: u64,
        high_milli: u64,
        plateau_ticks: u64,
        ramp_ticks: u64,
    ) -> WorkloadConfig {
        WorkloadConfig::new(seed)
            .phase(PhaseSpec::steady("night", plateau_ticks, low_milli))
            .phase(PhaseSpec::ramp(
                "morning", ramp_ticks, low_milli, high_milli,
            ))
            .phase(PhaseSpec::steady("day", plateau_ticks, high_milli))
            .phase(PhaseSpec::ramp(
                "evening", ramp_ticks, high_milli, low_milli,
            ))
    }

    /// Total workload duration in ticks.
    pub fn horizon(&self) -> u64 {
        let mut total = 0u64;
        for p in &self.phases {
            total += p.ticks;
        }
        total
    }
}

/// One scheduled injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arrival {
    /// Tick at which the message enters the network.
    pub tick: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node (Zipf-popular).
    pub dst: NodeId,
}

/// A fully materialized arrival schedule — a pure function of
/// `(WorkloadConfig, n)`, sorted by tick, replayable anywhere.
#[derive(Clone, Debug)]
pub struct ArrivalSchedule {
    /// All injections in tick order (FIFO within a tick).
    pub arrivals: Vec<Arrival>,
}

impl ArrivalSchedule {
    /// FNV-1a digest over the full schedule — two schedules are
    /// byte-identical iff their digests agree (up to hash collision),
    /// which is what the 1-vs-8-thread determinism gate compares.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for a in &self.arrivals {
            mix(a.tick);
            mix(a.src.0 as u64);
            mix(a.dst.0 as u64);
        }
        h
    }

    /// Total injections.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule carries no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Zipf(s) sampler over `n` ranks via inverse-CDF binary search on a
/// precomputed cumulative table; ranks are mapped to node ids through a
/// seed-shuffled permutation so popularity is not correlated with id.
struct ZipfNodes {
    cdf: Vec<f64>,
    rank_to_node: Vec<u32>,
}

impl ZipfNodes {
    fn new(n: usize, s_milli: u64, rng: &mut DetRng) -> ZipfNodes {
        let s = s_milli as f64 / 1000.0;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        let mut rank_to_node: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut rank_to_node);
        ZipfNodes { cdf, rank_to_node }
    }

    fn sample(&self, rng: &mut DetRng) -> NodeId {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let u = rng.gen_f64() * total;
        let i = self.cdf.partition_point(|&c| c <= u);
        let node = match self.rank_to_node.get(i) {
            Some(&id) => id,
            None => self.rank_to_node.last().copied().unwrap_or(0),
        };
        NodeId(node)
    }
}

/// Expands a workload into its arrival schedule over `n` nodes.
///
/// Rate integration is exact fixed-point arithmetic: each tick adds the
/// linearly interpolated milli-rate to an accumulator, and every 1000
/// accumulated units emits one arrival. Randomness (destination rank,
/// source pick) comes solely from `cfg.seed`, so the result is
/// reproducible on any platform and at any driver thread count.
///
/// # Panics
///
/// Panics if `n < 2` — a workload needs distinct endpoints.
pub fn build_schedule(cfg: &WorkloadConfig, n: usize) -> ArrivalSchedule {
    assert!(n >= 2, "workload needs at least two nodes");
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let zipf = ZipfNodes::new(n, cfg.zipf_s_milli, &mut rng);
    let mut arrivals = Vec::new();
    let mut tick = 0u64;
    let mut acc = 0u64;
    for p in &cfg.phases {
        for i in 0..p.ticks {
            // Linear interpolation in integer space; for a plateau this
            // is exactly `rate_milli` every tick.
            let rate = if p.ticks <= 1 {
                p.rate_milli
            } else {
                let lo = p.rate_milli as i128;
                let hi = p.end_rate_milli as i128;
                (lo + (hi - lo) * i as i128 / (p.ticks - 1) as i128) as u64
            };
            acc += rate;
            while acc >= 1000 {
                acc -= 1000;
                let dst = zipf.sample(&mut rng);
                let mut src = NodeId(rng.gen_range(0..n as u32));
                while src == dst {
                    src = NodeId(rng.gen_range(0..n as u32));
                }
                arrivals.push(Arrival { tick, src, dst });
            }
            tick += 1;
        }
    }
    ArrivalSchedule { arrivals }
}

/// Plays a schedule into a network: advances the clock to each
/// arrival's tick (faults, timers, and in-flight traffic run in
/// between) and injects it there, then drains the network to
/// quiescence. Returns the number of injections attempted (admission
/// rejections still count — they are *sent*).
pub fn run_schedule(net: &mut Network, sched: &ArrivalSchedule) -> Result<usize, SimError> {
    let mut injected = 0usize;
    for a in &sched.arrivals {
        if a.tick > net.now() {
            net.run_until(a.tick);
        }
        net.try_send(a.src, a.dst)?;
        injected += 1;
    }
    net.run_until_quiet();
    Ok(injected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed() {
        let cfg = WorkloadConfig::flash_crowd(42, 500, 4, 50, 20);
        let a = build_schedule(&cfg, 16);
        let b = build_schedule(&cfg, 16);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.digest(), b.digest());
        let other = build_schedule(&WorkloadConfig::flash_crowd(43, 500, 4, 50, 20), 16);
        assert_ne!(a.digest(), other.digest());
    }

    #[test]
    fn plateau_rate_is_exact() {
        // 500 arrivals per 1000 ticks over 1000 ticks = exactly 500.
        let cfg = WorkloadConfig::new(1).phase(PhaseSpec::steady("p", 1000, 500));
        let s = build_schedule(&cfg, 8);
        assert_eq!(s.len(), 500);
        // 2.5 per tick over 100 ticks = exactly 250.
        let cfg = WorkloadConfig::new(1).phase(PhaseSpec::steady("p", 100, 2500));
        assert_eq!(build_schedule(&cfg, 8).len(), 250);
    }

    #[test]
    fn ramp_integrates_between_endpoints() {
        // 0 → 2000 milli over 101 ticks: mean rate 1 per tick.
        let cfg = WorkloadConfig::new(9).phase(PhaseSpec::ramp("up", 101, 0, 2000));
        let s = build_schedule(&cfg, 8);
        assert_eq!(s.len(), 101);
        // Arrivals are denser at the end of the ramp than the start.
        let first_half = s.arrivals.iter().filter(|a| a.tick < 50).count();
        let second_half = s.len() - first_half;
        assert!(second_half > first_half * 2);
    }

    #[test]
    fn arrivals_are_tick_sorted_with_valid_endpoints() {
        let cfg = WorkloadConfig::diurnal(7, 200, 2000, 40, 40);
        let s = build_schedule(&cfg, 12);
        assert!(!s.is_empty());
        let mut last = 0;
        for a in &s.arrivals {
            assert!(a.tick >= last);
            last = a.tick;
            assert_ne!(a.src, a.dst);
            assert!(a.src.0 < 12 && a.dst.0 < 12);
            assert!(a.tick < cfg.horizon());
        }
    }

    #[test]
    fn zipf_skews_destination_popularity() {
        let cfg = WorkloadConfig::new(3)
            .zipf_s_milli(1200)
            .phase(PhaseSpec::steady("p", 2000, 4000));
        let s = build_schedule(&cfg, 32);
        let mut counts = [0usize; 32];
        for a in &s.arrivals {
            counts[a.dst.0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let mid = {
            let mut sorted = counts;
            sorted.sort_unstable();
            sorted[16]
        };
        assert!(
            max > mid * 3,
            "zipf head ({max}) should dwarf the median ({mid})"
        );
    }

    #[test]
    fn uniform_when_exponent_is_zero() {
        let cfg = WorkloadConfig::new(3)
            .zipf_s_milli(0)
            .phase(PhaseSpec::steady("p", 4000, 4000));
        let s = build_schedule(&cfg, 16);
        let mut counts = [0usize; 16];
        for a in &s.arrivals {
            counts[a.dst.0 as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max < &(min * 2),
            "uniform draw should be balanced: {counts:?}"
        );
    }
}
