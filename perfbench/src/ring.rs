//! `ring-100k` and `ring-100k-oracle`: boot a `ring_lattice(n, 8)`
//! network under `RingGreedy` at k = 1 and push seeded windowed traffic
//! through it under the seeded churn plan.
//!
//! One trial is one boot plus [`ROUNDS`] rounds of traffic, each round
//! under churn of its own. Trials repeat until the run has measured for
//! its time budget (at least [`RingCfg::min_trials`] of them), each on a
//! fresh network with the same traffic, so every trial must produce the
//! same fingerprint. Every boot counts towards `setup_s`, and the rounds
//! of every trial but the first towards the rates: the first trial's
//! rounds are a warm-up, on memory the process has not used yet, and run
//! about a third slower than the rest.

use std::sync::Arc;
use std::time::Instant;

use local_routing::baselines::RingGreedy;
use local_routing::{LocalRouter, ViewArtifact};
use locality_graph::rng::DetRng;
use locality_graph::{generators, Graph, NodeId};
use locality_sim::{ChurnConfig, FaultConfig, FaultPlan, Network, NetworkBuilder, Provisioner};

use crate::layers::{self, Work};
use crate::outcome::SimOutcome;
use crate::report::Report;
use crate::timed::Timed;
use crate::util::{derive, median};
use crate::{alloc, spans};

/// Sends per batch; a batch goes out every [`GAP`] ticks.
pub const BATCH: usize = 32;
/// Ticks between batches.
pub const GAP: u64 = 4;
/// Chords per side of the ring lattice: node degree is `2 * CHORDS`.
pub const CHORDS: usize = 8;
/// Targets lie `1..=WINDOW` positions ahead of the source.
pub const WINDOW: u32 = 512;
/// Rounds of traffic per trial.
pub const ROUNDS: usize = 4;
/// Ticks from one round's start to the next: past the churn horizon and
/// every retry of the round's messages.
pub const PERIOD: u64 = 1024;

/// Size of one ring workload.
#[derive(Clone, Copy, Debug)]
pub struct RingCfg {
    /// Ring nodes.
    pub n: usize,
    /// Messages per trial, split evenly over the [`ROUNDS`].
    pub messages: usize,
    /// Fewest trials a run makes, whatever its time budget; at least 2,
    /// as the first is a warm-up.
    pub min_trials: usize,
    /// Ring sizes of the traced run's scaling probe (BFS ring only).
    pub scaling: [usize; 3],
}

impl RingCfg {
    /// The benchmark size: n = 10⁵.
    pub fn full() -> RingCfg {
        RingCfg {
            n: 100_000,
            messages: 1024,
            min_trials: 4,
            scaling: [2048, 32_768, 100_000],
        }
    }

    /// A toy size for the benchmark's own tests.
    pub fn toy() -> RingCfg {
        RingCfg {
            n: 2048,
            messages: 128,
            min_trials: 2,
            scaling: [256, 512, 1024],
        }
    }
}

/// The seeded traffic: `(source, target)` with the target
/// `1..=WINDOW` ring positions ahead.
pub fn traffic(cfg: &RingCfg, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = DetRng::seed_from_u64(derive(seed, 0x7AFF));
    let n = cfg.n as u32;
    (0..cfg.messages)
        .map(|_| {
            let s = rng.gen_range(0..n);
            let t = (s + 1 + rng.gen_range(0..WINDOW)) % n;
            (NodeId(s), NodeId(t))
        })
        .collect()
}

/// A builder with the seeded churn plan (one default churn per round,
/// starting with the round), source-side timeout and retry, and one
/// shard.
pub fn builder(g: &Graph, seed: u64) -> NetworkBuilder {
    let mut rng = DetRng::seed_from_u64(derive(seed, 0xC4A05));
    let mut plan = FaultPlan::new();
    for r in 0..ROUNDS as u64 {
        for (tick, &ev) in FaultPlan::random_churn(g, &ChurnConfig::default(), &mut rng).iter() {
            plan.schedule(r * PERIOD + tick, ev);
        }
    }
    NetworkBuilder::new(g, 1)
        .shards(1)
        .shard_workers(1)
        .faults(FaultConfig {
            timeout: Some(64),
            max_retries: 3,
            backoff: 16,
            seed: derive(seed, 0xFA17),
            ..Default::default()
        })
        .fault_plan(plan)
}

/// Sends the traffic in [`ROUNDS`] rounds, [`PERIOD`] ticks apart; each
/// round sends batches of [`BATCH`] every [`GAP`] ticks and runs to the
/// next round's start. Drains the network and returns each round's wall
/// seconds.
pub fn drive(net: &mut Network, traffic: &[(NodeId, NodeId)]) -> Vec<f64> {
    let mut secs = Vec::with_capacity(ROUNDS);
    let per_round = traffic.len().div_ceil(ROUNDS).max(1);
    for (r, round) in traffic.chunks(per_round).enumerate() {
        let t0 = Instant::now();
        for batch in round.chunks(BATCH) {
            for &(s, t) in batch {
                net.send(s, t);
            }
            net.run_until(net.now() + GAP);
        }
        net.run_until((r as u64 + 1) * PERIOD - 1);
        secs.push(t0.elapsed().as_secs_f64());
    }
    net.run_until_quiet();
    secs
}

/// Shortest distance on `ring_lattice(n, CHORDS)`.
pub fn ring_dist(n: usize, s: NodeId, t: NodeId) -> u32 {
    let n = n as u32;
    let cw = (t.0 + n - s.0) % n;
    cw.min(n - cw).div_ceil(CHORDS as u32)
}

/// Boots one network from `b`, BFS-provisioned or from artifact bytes
/// (the copy stands in for reading the file). The caller makes `b`, and
/// with it the churn plan, before it starts the clock.
fn boot<R: LocalRouter + Copy + Send + Sync + 'static>(
    b: NetworkBuilder,
    artifact: Option<&[u8]>,
    router: R,
    trial: u32,
) -> Network {
    let b = match artifact {
        Some(bytes) => {
            let a = {
                let _s = spans::enter("oracle.load", trial);
                ViewArtifact::from_bytes(bytes.to_vec()).expect("artifact built by this run")
            };
            b.provisioner(Provisioner::Oracle(Arc::new(a)))
        }
        None => b,
    };
    let _s = spans::enter("sim.build", trial);
    b.build(router)
}

/// Runs one ring workload. `oracle` boots from a `.lrvo` artifact built
/// (untimed) beforehand; its fingerprint must equal a BFS-provisioned
/// reference trial's.
pub fn run<R: LocalRouter + Copy + Send + Sync + 'static>(
    cfg: &RingCfg,
    seed: u64,
    seconds: f64,
    oracle: bool,
    router: R,
) -> Report {
    let g = generators::ring_lattice(cfg.n, CHORDS);
    let traffic = traffic(cfg, seed);
    let dist = |s, t| ring_dist(cfg.n, s, t);
    let mut rep = Report::default();

    let mut reference = None;
    let t_build = Instant::now();
    let artifact = if oracle {
        let bytes = {
            let _s = spans::enter("oracle.build", 0);
            ViewArtifact::build(&g, 1).as_bytes().to_vec()
        };
        rep.layer("oracle.build_s", t_build.elapsed().as_secs_f64(), "s");
        let mut net = boot(builder(&g, seed), None, RingGreedy::new(cfg.n as u32), 0);
        drive(&mut net, &traffic);
        reference = Some(SimOutcome::read(&net, dist).fingerprint);
        Some(bytes)
    } else {
        None
    };

    let mut setups = Vec::new();
    let (mut hops, mut rounds, mut secs) = (0u64, 0usize, 0.0f64);
    let mut msg_bytes = Vec::new();
    let mut first: Option<SimOutcome> = None;
    let mut work = Work {
        workers: 1,
        ..Work::default()
    };
    let mark = spans::mark();
    let batch = spans::enter("driver.batch", 1);
    let start = Instant::now();
    let mut trial = 0u32;
    while setups.len() < cfg.min_trials || start.elapsed().as_secs_f64() < seconds {
        trial += 1;
        let _t = spans::enter("driver.trial", trial);
        let b = builder(&g, seed);
        let t0 = Instant::now();
        let mut net = boot(b, artifact.as_deref(), router, trial);
        let setup = t0.elapsed().as_secs_f64();
        let live0 = alloc::live_bytes();
        let round_secs = {
            let _s = spans::enter("sim.run", trial);
            drive(&mut net, &traffic)
        };
        msg_bytes.push((alloc::live_bytes() - live0) as f64 / cfg.messages as f64);
        let out = SimOutcome::read(&net, dist);
        drop(net);
        if trial > 1 {
            hops += out.hops;
            rounds += round_secs.len();
            secs += round_secs.iter().sum::<f64>();
        }
        rep.check(out.metrics.accounted(), || {
            format!("trial {trial}: conservation broken: {:?}", out.metrics)
        });
        if let Some(f) = &first {
            rep.check(f.fingerprint == out.fingerprint, || {
                format!(
                    "trial {trial}: fingerprint {:016x} differs from trial 1's {:016x}",
                    out.fingerprint, f.fingerprint
                )
            });
        }
        work.hops += out.hops;
        work.nodes_built += cfg.n as u64;
        setups.push(setup);
        first.get_or_insert(out);
    }
    drop(batch);
    let out = first.expect("at least one trial ran");
    if let Some(r) = reference {
        rep.check(r == out.fingerprint, || {
            format!(
                "oracle fingerprint {:016x} differs from the BFS reference {r:016x}",
                out.fingerprint
            )
        });
    }
    let m = &out.metrics;
    rep.fingerprint = out.fingerprint;
    rep.attempted = (m.sent * setups.len()) as u64;
    rep.failed = ((m.sent - m.delivered) * setups.len()) as u64;
    rep.sampled("setup_s", &setups, "s");
    rep.rates(hops as f64, rounds as f64, secs);
    rep.e2e("delivery_ratio", m.delivery_ratio(), "fraction");
    rep.e2e("max_dilation", out.max_dilation(), "ratio");
    if spans::enabled() {
        layers::from_spans(&mut rep, &spans::since(mark), work);
        rep.layer("sim.msg_kib", median(&msg_bytes) / 1024.0, "KiB");
        layers::sim_counts(&mut rep, &out);
        traced_extras(&mut rep, cfg, &g, seed, artifact.as_deref());
    }
    rep
}

/// Probes for the layers the ring loop does not reach, on the ring's
/// own inputs; plus the tracing overhead and, on the BFS ring only, the
/// scaling probe.
fn traced_extras(rep: &mut Report, cfg: &RingCfg, g: &Graph, seed: u64, artifact: Option<&[u8]>) {
    let sample = layers::spread(g, 256);
    layers::views(rep, g, 1, &sample);
    layers::oracle(rep, g, 1, &sample, artifact);
    let small = generators::ring_lattice(256, CHORDS);
    layers::engine_probe(rep, &small, 1, &RingGreedy::new(256));
    let toy = RingCfg::toy();
    let toy_g = generators::ring_lattice(toy.n, CHORDS);
    let toy_traffic = traffic(&toy, seed);
    layers::sim_probe(
        rep,
        builder(&toy_g, seed),
        RingGreedy::new(toy.n as u32),
        &toy_traffic,
        |s, t| ring_dist(toy.n, s, t),
    );
    if artifact.is_some() {
        rep.absent(
            "view.extract_share",
            "ratio",
            "the oracle boot decodes views instead of extracting them",
        );
    } else {
        layers::scaling(rep, seed, cfg.scaling);
    }
    let plain = RingGreedy::new(toy.n as u32);
    layers::overhead(rep, |traced| {
        let b = builder(&toy_g, seed);
        let t = Instant::now();
        let _s = spans::enter("sim.run", 0);
        if traced {
            let mut net = b.build(Timed(plain));
            drive(&mut net, &toy_traffic);
        } else {
            let mut net = b.build(plain);
            drive(&mut net, &toy_traffic);
        }
        t.elapsed().as_secs_f64()
    });
}
