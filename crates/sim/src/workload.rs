//! Seed-replayable open-loop traffic workloads.
//!
//! A [`WorkloadConfig`] describes *offered load* as a sequence of
//! [`PhaseSpec`] plateaus — a steady load, or the baseline, spike and
//! recovery of a flash crowd — with destination popularity drawn from
//! a Zipf(1) distribution over a seed-shuffled node ranking. Expanding
//! the config with [`build_schedule`] yields an [`ArrivalSchedule`]: a
//! plain, fully materialized list of `(tick, src, dst)` injections that
//! is a pure function of `(config, n)`. The schedule is *open-loop*:
//! arrivals do not react to the network, which is exactly what makes
//! overload reproducible — composing the same schedule with a
//! [`FaultPlan`](crate::FaultPlan) storm replays byte-for-byte from the
//! two seeds.
//!
//! [`run_schedule`] injects a schedule into a [`Network`] tick by tick
//! (its admission policy, if any, judges each injection).

use crate::network::Network;
use crate::SimError;
use locality_graph::rng::DetRng;
use locality_graph::NodeId;

/// One plateau of offered load. Rates are in *arrivals per 1000
/// ticks* (`rate_milli`), so sub-one-per-tick loads need no floats and
/// the accumulator arithmetic is exact.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    /// Duration in ticks.
    pub ticks: u64,
    /// Offered rate, in arrivals per 1000 ticks.
    pub rate_milli: u64,
}

impl PhaseSpec {
    /// A constant-rate plateau.
    pub fn steady(ticks: u64, rate_milli: u64) -> PhaseSpec {
        PhaseSpec { ticks, rate_milli }
    }
}

/// A deterministic open-loop workload: phases plus the seed that fixes
/// every random choice.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Seed for all traffic randomness (rank shuffle, Zipf draws,
    /// source picks). Independent of any fault-plan seed.
    pub seed: u64,
    /// The load phases, played in order.
    pub phases: Vec<PhaseSpec>,
}

impl WorkloadConfig {
    /// An empty workload with the given seed.
    pub fn new(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            phases: Vec::new(),
        }
    }

    /// Appends a phase (builder style).
    pub fn phase(mut self, p: PhaseSpec) -> WorkloadConfig {
        self.phases.push(p);
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
            .phase(PhaseSpec::steady(base_ticks, base_milli))
            .phase(PhaseSpec::steady(spike_ticks, base_milli * spike_mult))
            .phase(PhaseSpec::steady(base_ticks, base_milli))
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
    /// Total injections.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule carries no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Zipf(1) sampler over `n` ranks (rank `i` weighs `1 / (i + 1)`) via
/// inverse-CDF binary search on a precomputed cumulative table; ranks
/// are mapped to node ids through a seed-shuffled permutation so
/// popularity is not correlated with id.
struct ZipfNodes {
    cdf: Vec<f64>,
    rank_to_node: Vec<u32>,
}

impl ZipfNodes {
    fn new(n: usize, rng: &mut DetRng) -> ZipfNodes {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / (i + 1) as f64;
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
/// phase's milli-rate to an accumulator, and every 1000 accumulated
/// units emits one arrival. Randomness (destination rank,
/// source pick) comes solely from `cfg.seed`, so the result is
/// reproducible on any platform and at any driver thread count.
///
/// # Panics
///
/// Panics if `n < 2` — a workload needs distinct endpoints.
pub fn build_schedule(cfg: &WorkloadConfig, n: usize) -> ArrivalSchedule {
    assert!(n >= 2, "workload needs at least two nodes");
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let zipf = ZipfNodes::new(n, &mut rng);
    let mut arrivals = Vec::new();
    let mut tick = 0u64;
    let mut acc = 0u64;
    for p in &cfg.phases {
        for _ in 0..p.ticks {
            acc += p.rate_milli;
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
        let other = build_schedule(&WorkloadConfig::flash_crowd(43, 500, 4, 50, 20), 16);
        assert_ne!(a.arrivals, other.arrivals);
    }

    #[test]
    fn plateau_rate_is_exact() {
        // 500 arrivals per 1000 ticks over 1000 ticks = exactly 500.
        let cfg = WorkloadConfig::new(1).phase(PhaseSpec::steady(1000, 500));
        let s = build_schedule(&cfg, 8);
        assert_eq!(s.len(), 500);
        // 2.5 per tick over 100 ticks = exactly 250.
        let cfg = WorkloadConfig::new(1).phase(PhaseSpec::steady(100, 2500));
        assert_eq!(build_schedule(&cfg, 8).len(), 250);
    }

    #[test]
    fn arrivals_are_tick_sorted_with_valid_endpoints() {
        let cfg = WorkloadConfig::flash_crowd(7, 200, 10, 40, 40);
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
        let cfg = WorkloadConfig::new(3).phase(PhaseSpec::steady(2000, 4000));
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
}
