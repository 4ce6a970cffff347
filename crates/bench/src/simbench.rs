//! Simulator message-throughput probe.
//!
//! Drives a zero-fault [`locality_sim::Network`] with a seeded batched
//! traffic pattern and reports delivered-hop throughput: total
//! message-hops executed per wall-clock second once the network is
//! built and provisioned. Used by `bin/simbench` for the
//! `EXPERIMENTS.md` before/after table and by `bin/perfsmoke` for the
//! regression-gated `sim_hops_per_sec` field.
//!
//! The traffic is batched — `BATCH` sends, then four ticks of
//! progress, repeated — so the scheduler carries a realistic mix of
//! near-future arrival ticks instead of one giant tick-zero burst.

// Wall-clock measurement is the point here, exactly as in `timing`;
// the workspace `std::time` ban protects routing determinism, not the
// benchmarks that time it.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

use local_routing::LocalRouter;
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_sim::{MessageFate, NetworkBuilder, Recorder};

/// Sends per round; a new round starts every four ticks.
const BATCH: usize = 32;

/// One finished throughput run.
#[derive(Clone, Copy, Debug)]
pub struct SimThroughput {
    /// Node count of the probed topology.
    pub n: usize,
    /// Locality parameter every node was provisioned with.
    pub k: u32,
    /// Messages injected.
    pub messages: usize,
    /// Messages that reached their destination.
    pub delivered: usize,
    /// Total message-hops executed across all attempts.
    pub hops: u64,
    /// Wall-clock time of the send/step/drain phase (provisioning
    /// excluded), in nanoseconds.
    pub elapsed_ns: u64,
}

impl SimThroughput {
    /// Message-hops per second.
    pub fn hops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.hops as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Runs `messages` seeded random-pair sends through a zero-fault
/// network on `random_connected(n, n/2)` and measures hop throughput.
///
/// The graph, the traffic, and therefore every routed path are pure
/// functions of `seed` — only `elapsed_ns` varies between calls, so
/// before/after comparisons time identical work.
pub fn sim_throughput(
    n: usize,
    k: u32,
    messages: usize,
    seed: u64,
    router: impl LocalRouter + Send + 'static,
) -> SimThroughput {
    sim_throughput_traced(n, k, messages, seed, router, None).0
}

/// [`sim_throughput`] with an optional recorder attached to the
/// network. Returns the throughput plus the flushed trace bytes
/// (empty when `recorder` is `None`). Passing `Recorder::off()`
/// measures the cost of an *attached-but-disabled* recorder — the
/// quantity `bin/perfsmoke` gates at ≤ 2% overhead.
pub fn sim_throughput_traced(
    n: usize,
    k: u32,
    messages: usize,
    seed: u64,
    router: impl LocalRouter + Send + 'static,
    recorder: Option<Recorder>,
) -> (SimThroughput, Vec<u8>) {
    let g = generators::random_connected(n, n / 2, &mut DetRng::seed_from_u64(seed));
    let mut b = NetworkBuilder::new(&g, k);
    if let Some(rec) = recorder {
        b = b.recorder(rec);
    }
    let mut net = b.build(router);
    let mut traffic = DetRng::seed_from_u64(seed ^ 0x7AFF1C);
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < messages {
        for _ in 0..BATCH.min(messages - sent) {
            let s = NodeId(traffic.gen_range(0..n as u32));
            let t = NodeId(traffic.gen_range(0..n as u32));
            if s != t {
                net.send(s, t);
            }
            sent += 1;
        }
        net.run_until(net.now() + 4);
    }
    net.run_until_quiet();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let hops: u64 = net.records().iter().map(|r| r.hops() as u64).sum();
    let delivered = net.records().iter().filter(|r| r.delivered()).count();
    let trace = net.finish_trace();
    (
        SimThroughput {
            n,
            k,
            messages: net.records().len(),
            delivered,
            hops,
            elapsed_ns,
        },
        trace,
    )
}

/// Configuration of one large-topology scale probe: a ring lattice
/// (`C_n(1..=chords)`, degree `2·chords`) routed by the `k = 1` greedy
/// ring router, with windowed traffic (`t = s + 1..=window` mod `n`) so
/// route length — and therefore hop work — is independent of `n`.
/// Provisioning costs O(view) per node, so it grows linearly in `n`; it
/// is timed separately as `provision_ns`, not as part of the hop phase.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Node count of the ring lattice.
    pub n: usize,
    /// Chord reach: each node links to its `chords` nearest neighbours
    /// per side.
    pub chords: usize,
    /// Messages injected (batched like [`sim_throughput`]).
    pub messages: usize,
    /// Target-offset window: destinations are `1..=window` ring
    /// positions ahead of the source.
    pub window: u32,
    /// Shard count for the partitioned engine (1 = historical engine).
    pub shards: usize,
    /// Speculation workers (threads engage only when `shards > 1`).
    pub workers: usize,
    /// Whether to lay a seeded churn plan (link flaps + crashes) with
    /// source-side timeout/retry over the run.
    pub churn: bool,
    /// Master seed for topology-independent traffic and churn streams.
    pub seed: u64,
}

impl ScaleConfig {
    /// The sweep's default shape at `n`: degree-16 lattice, 4096
    /// messages over a 512-wide window, unsharded, no churn, seed 42.
    pub fn for_n(n: usize) -> ScaleConfig {
        ScaleConfig {
            n,
            chords: 8,
            messages: 4096,
            window: 512,
            shards: 1,
            workers: 1,
            churn: false,
            seed: 42,
        }
    }
}

/// One finished scale run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleRun {
    /// Node count probed.
    pub n: usize,
    /// Shard count the trial ran at.
    pub shards: usize,
    /// Speculation workers configured.
    pub workers: usize,
    /// Messages injected.
    pub messages: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Total message-hops executed.
    pub hops: u64,
    /// Wall-clock of the send/step/drain phase, in nanoseconds.
    pub elapsed_ns: u64,
    /// Wall-clock of build + provisioning, in nanoseconds.
    pub provision_ns: u64,
    /// Cross-shard transmissions (0 at `shards == 1`).
    pub crossings: u64,
    /// FNV-1a digest of every message record in injection order: its
    /// fate (see [`fate_code`]), delivery tick and retry count, and
    /// every node on the path of its last attempt. Equal fingerprints
    /// mean every message took the same route to the same end, so the
    /// sweep can compare runs across shard counts, and a change can
    /// compare its runs with its parent's, route by route.
    pub fingerprint: u64,
}

impl ScaleRun {
    /// Message-hops per second, aggregate across all cores.
    pub fn hops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.hops as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Cores the run could actually occupy: speculation threads only
    /// engage when both the shard and worker counts exceed one, and
    /// never more than the machine offers.
    pub fn cores_used(&self) -> usize {
        if self.shards <= 1 || self.workers <= 1 {
            return 1;
        }
        self.shards
            .min(self.workers)
            .min(locality_sim::driver::default_threads())
            .max(1)
    }

    /// Aggregate throughput normalised by occupied cores — the
    /// `sim_hops_per_sec_per_core` figure `bin/perfsmoke` baselines.
    pub fn hops_per_sec_per_core(&self) -> f64 {
        self.hops_per_sec() / self.cores_used() as f64
    }
}

/// Runs one [`ScaleConfig`] trial and measures hop throughput.
///
/// Everything but the two `*_ns` fields is a pure function of the
/// config — the fingerprint in particular is identical at every shard
/// and worker count, which the simbench sweep asserts.
pub fn sim_scale(cfg: &ScaleConfig) -> ScaleRun {
    use locality_sim::fault::{ChurnConfig, FaultConfig, FaultPlan};

    let g = generators::ring_lattice(cfg.n, cfg.chords);
    let router = local_routing::baselines::RingGreedy::new(cfg.n as u32);
    let build_start = Instant::now();
    let mut b = NetworkBuilder::new(&g, 1)
        .shards(cfg.shards)
        .shard_workers(cfg.workers);
    if cfg.churn {
        b = b
            .faults(FaultConfig {
                timeout: Some(64),
                max_retries: 3,
                backoff: 16,
                seed: cfg.seed,
                ..Default::default()
            })
            .fault_plan(FaultPlan::random_churn(
                &g,
                &ChurnConfig::default(),
                &mut DetRng::seed_from_u64(cfg.seed ^ 0xC0FFEE),
            ));
    }
    let mut net = b.build(router);
    let provision_ns = build_start.elapsed().as_nanos() as u64;
    let mut traffic = DetRng::seed_from_u64(cfg.seed ^ 0x5CA1E);
    let start = Instant::now();
    let mut sent = 0usize;
    let n = cfg.n as u32;
    while sent < cfg.messages {
        for _ in 0..BATCH.min(cfg.messages - sent) {
            let s = traffic.gen_range(0..n);
            let t = (s + 1 + traffic.gen_range(0..cfg.window)) % n;
            net.send(NodeId(s), NodeId(t));
            sent += 1;
        }
        net.run_until(net.now() + 4);
    }
    net.run_until_quiet();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let hops: u64 = net.records().iter().map(|r| r.hops() as u64).sum();
    let delivered = net.records().iter().filter(|r| r.delivered()).count();
    let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        fingerprint ^= v;
        fingerprint = fingerprint.wrapping_mul(0x100_0000_01b3);
    };
    for r in net.records() {
        mix(fate_code(&r.fate));
        mix(r.delivered_at.map_or(u64::MAX, |t| t));
        mix(u64::from(r.retries));
        mix(r.path.len() as u64);
        for &x in &r.path {
            mix(u64::from(x.0));
        }
    }
    ScaleRun {
        n: cfg.n,
        shards: net.shard_count(),
        workers: cfg.workers,
        messages: net.records().len(),
        delivered,
        hops,
        elapsed_ns,
        provision_ns,
        crossings: net.shard_stats().total_crossings(),
        fingerprint,
    }
}

/// The number [`ScaleRun::fingerprint`] hashes for a fate: one per
/// variant, so two fates never share a code.
pub fn fate_code(fate: &MessageFate) -> u64 {
    match fate {
        MessageFate::InFlight => 0,
        MessageFate::Delivered => 1,
        MessageFate::Looped => 2,
        MessageFate::Errored(_) => 3,
        MessageFate::HopBudgetExhausted => 4,
        MessageFate::Dropped => 5,
        MessageFate::TimedOut => 6,
        MessageFate::GaveUp => 7,
        MessageFate::Rejected => 8,
        MessageFate::Shed => 9,
    }
}

/// Replays the exact workload of [`sim_throughput`] (same graph, same
/// traffic stream) untimed and returns each message's `(target, path)` —
/// the raw material for `bin/perfsmoke`'s legacy-cost replay, which
/// charges the pre-refactor data structures for precisely these hops.
pub fn sim_routes(
    n: usize,
    k: u32,
    messages: usize,
    seed: u64,
    router: impl LocalRouter + Send + 'static,
) -> Vec<(NodeId, Vec<NodeId>)> {
    let g = generators::random_connected(n, n / 2, &mut DetRng::seed_from_u64(seed));
    let mut net = NetworkBuilder::new(&g, k).build(router);
    let mut traffic = DetRng::seed_from_u64(seed ^ 0x7AFF1C);
    let mut sent = 0usize;
    while sent < messages {
        for _ in 0..BATCH.min(messages - sent) {
            let s = NodeId(traffic.gen_range(0..n as u32));
            let t = NodeId(traffic.gen_range(0..n as u32));
            if s != t {
                net.send(s, t);
            }
            sent += 1;
        }
        net.run_until(net.now() + 4);
    }
    net.run_until_quiet();
    net.records()
        .iter()
        .map(|r| (r.t, r.path.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::{Alg1, LocalRouter};

    #[test]
    fn probe_delivers_everything_at_threshold() {
        let r = sim_throughput(32, Alg1.min_locality(32), 200, 7, Alg1);
        assert_eq!(r.delivered, r.messages);
        assert!(r.hops > 0);
        assert!(r.hops_per_sec() > 0.0);
    }

    #[test]
    fn scale_run_fingerprint_is_shard_invariant() {
        let mut cfg = ScaleConfig::for_n(2048);
        cfg.messages = 256;
        cfg.churn = true;
        let base = sim_scale(&cfg);
        assert!(base.delivered > 0);
        assert_eq!(base.crossings, 0, "one shard cannot cross");
        for s in [2usize, 4] {
            let mut c = cfg;
            c.shards = s;
            let run = sim_scale(&c);
            assert_eq!(run.fingerprint, base.fingerprint, "outcome drift at S={s}");
            assert_eq!(run.hops, base.hops, "hop drift at S={s}");
            assert_eq!(run.delivered, base.delivered);
            assert!(run.crossings > 0, "windowed traffic must cross at S={s}");
        }
    }

    #[test]
    fn fate_codes_are_distinct() {
        let fates = [
            MessageFate::InFlight,
            MessageFate::Delivered,
            MessageFate::Looped,
            MessageFate::Errored(String::new()),
            MessageFate::HopBudgetExhausted,
            MessageFate::Dropped,
            MessageFate::TimedOut,
            MessageFate::GaveUp,
            MessageFate::Rejected,
            MessageFate::Shed,
        ];
        let mut codes: Vec<u64> = fates.iter().map(fate_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), fates.len());
    }

    #[test]
    fn zero_fault_scale_run_delivers_everything() {
        let mut cfg = ScaleConfig::for_n(4096);
        cfg.messages = 128;
        let r = sim_scale(&cfg);
        assert_eq!(r.delivered, r.messages);
        assert_eq!(r.cores_used(), 1, "unsharded runs occupy one core");
        assert!(r.hops_per_sec_per_core() > 0.0);
    }

    #[test]
    fn traced_probe_does_identical_work() {
        use locality_sim::{Level, Recorder};
        let k = Alg1.min_locality(32);
        let plain = sim_throughput(32, k, 200, 7, Alg1);
        let (traced, bytes) =
            sim_throughput_traced(32, k, 200, 7, Alg1, Some(Recorder::new(Level::Hops)));
        assert_eq!(plain.hops, traced.hops);
        assert_eq!(plain.delivered, traced.delivered);
        assert!(!bytes.is_empty());
        // An attached-but-off recorder produces no bytes at all.
        let (_, off) = sim_throughput_traced(32, k, 200, 7, Alg1, Some(Recorder::off()));
        assert!(off.is_empty());
    }
}
