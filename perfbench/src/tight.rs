//! `tight-matrix`: serial `engine::delivery_matrix` over the paper's
//! tight families at k = n/4 — Fig. 13 under Algorithm 1 and Fig. 17
//! under Algorithm 1B. Targets are mostly out of view, so routes run
//! preprocessing, component analysis and the S/U rules; no simulator.
//!
//! The seed permutes node ids. Routes are equivariant under node
//! permutation, so every seed must deliver every pair with the same
//! worst dilation.

use std::time::Instant;

use local_routing::{engine, Alg1, LocalRouter, LocalView};
use locality_adversary::tight;
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, traversal, Graph};
use locality_sim::NetworkBuilder;

use crate::layers::{self, Work};
use crate::report::Report;
use crate::spans;
use crate::timed::Timed;
use crate::util::derive;

/// Size of one tight-matrix run.
#[derive(Clone, Copy, Debug)]
pub struct TightCfg {
    /// Nodes per family instance (a multiple of 4, at least 28).
    pub n: usize,
    /// Fewest passes (one cold provisioning, then both matrices) a run
    /// makes.
    pub min_passes: usize,
}

impl TightCfg {
    /// The benchmark size: n = 128, 16,256 pairs per family. A pass
    /// takes about a fifth of a second, so a run's medians are over
    /// dozens.
    pub fn full() -> TightCfg {
        TightCfg {
            n: 128,
            min_passes: 1,
        }
    }

    /// A toy size for the benchmark's own tests.
    pub fn toy() -> TightCfg {
        TightCfg {
            n: 32,
            min_passes: 2,
        }
    }
}

/// One family instance with its router's dilation bound.
pub struct Family {
    /// Family name.
    pub name: &'static str,
    /// Seed-permuted instance graph.
    pub graph: Graph,
    /// Locality parameter, n/4.
    pub k: u32,
    /// The paper's bound for the family's router.
    pub bound: f64,
    /// The worst dilation the tight construction predicts.
    pub predicted: f64,
}

/// The two families, node ids permuted by the seed.
pub fn families(cfg: &TightCfg, seed: u64) -> [Family; 2] {
    let mut rng = DetRng::seed_from_u64(derive(seed, 0x716));
    let f13 = tight::fig13(cfg.n);
    let f17 = tight::fig17(cfg.n);
    let (g13, _) = permute::random_permute_nodes(&f13.graph, &mut rng);
    let (g17, _) = permute::random_permute_nodes(&f17.graph, &mut rng);
    [
        Family {
            name: "fig13",
            graph: g13,
            k: f13.k,
            bound: 7.0,
            predicted: f13.predicted_dilation(),
        },
        Family {
            name: "fig17",
            graph: g17,
            k: f17.k,
            bound: 6.0,
            predicted: f17.predicted_dilation(),
        },
    ]
}

/// Cold provisioning of one family: extract and preprocess every view,
/// the work each node does once before it routes.
pub fn provision(f: &Family) -> usize {
    f.graph
        .nodes()
        .map(|u| {
            let v = LocalView::extract(&f.graph, u, f.k);
            v.routing_view().sub.node_count()
        })
        .sum()
}

/// Runs the tight-matrix workload; `alg1` and `alg1b` are the two
/// routers (plain or timed).
pub fn run<A: LocalRouter, B: LocalRouter>(
    cfg: &TightCfg,
    seed: u64,
    seconds: f64,
    alg1: &A,
    alg1b: &B,
) -> Report {
    let fams = families(cfg, seed);
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let (mut total_hops, mut matrices, mut secs) = (0usize, 0usize, 0.0f64);
    let mut worst = [0.0f64; 2];
    let mut work = Work {
        workers: 1,
        ..Work::default()
    };
    let mark = spans::mark();
    let batch = spans::enter("driver.batch", 1);
    let start = Instant::now();
    let mut pass = 0u32;
    while setups.len() < cfg.min_passes || start.elapsed().as_secs_f64() < seconds {
        pass += 1;
        let _t = spans::enter("driver.trial", pass);
        let t = Instant::now();
        std::hint::black_box(fams.iter().map(provision).sum::<usize>());
        setups.push(t.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let mut hops = 0usize;
        for (i, f) in fams.iter().enumerate() {
            let m = {
                let _s = spans::enter("engine.matrix", pass);
                if i == 0 {
                    engine::delivery_matrix(&f.graph, f.k, alg1)
                } else {
                    engine::delivery_matrix(&f.graph, f.k, alg1b)
                }
            };
            hops += m.total_hops;
            work.hops += m.total_hops as u64;
            rep.attempted += m.runs as u64;
            rep.failed += m.failures.len() as u64;
            let d = m.worst_dilation.map_or(0.0, |(d, _, _)| d);
            rep.check(m.all_delivered(), || {
                format!(
                    "{}: {} of {} pairs undelivered",
                    f.name,
                    m.failures.len(),
                    m.runs
                )
            });
            rep.check(d <= f.bound, || {
                format!("{}: dilation {d} exceeds the bound {}", f.name, f.bound)
            });
            rep.check((d - f.predicted).abs() < 1e-9, || {
                format!(
                    "{}: worst dilation {d}, construction predicts {}",
                    f.name, f.predicted
                )
            });
            worst[i] = worst[i].max(d);
        }
        secs += t0.elapsed().as_secs_f64();
        total_hops += hops;
        matrices += fams.len();
    }
    drop(batch);
    rep.fingerprint = worst[0].to_bits() ^ worst[1].to_bits().rotate_left(1);
    rep.sampled("setup_s", &setups, "s");
    rep.rates(total_hops as f64, matrices as f64, secs);
    rep.e2e(
        "delivery_ratio",
        (rep.attempted - rep.failed) as f64 / rep.attempted as f64,
        "fraction",
    );
    rep.e2e("max_dilation", worst[0].max(worst[1]), "ratio");
    if spans::enabled() {
        layers::from_spans(&mut rep, &spans::since(mark), work);
        traced_extras(&mut rep, &fams[0], seed);
    }
    rep
}

/// Probes for the layers the matrix loop does not reach, on the Fig. 13
/// instance under Algorithm 1; plus the tracing overhead.
fn traced_extras(rep: &mut Report, f: &Family, seed: u64) {
    let g = &f.graph;
    let sample = layers::spread(g, 256);
    layers::views(rep, g, f.k, &sample);
    layers::oracle(rep, g, f.k, &sample, None);
    let pairs = generators::sample_pairs(
        g.node_count(),
        512,
        &mut DetRng::seed_from_u64(derive(seed, 0x5A)),
    );
    layers::sim_probe(rep, NetworkBuilder::new(g, f.k), Alg1, &pairs, |s, t| {
        traversal::distance(g, s, t).unwrap_or(0)
    });
    let small = tight::fig13(64);
    layers::overhead(rep, |traced| {
        let t = Instant::now();
        let _s = spans::enter("engine.matrix", 0);
        let m = if traced {
            engine::delivery_matrix(&small.graph, small.k, &Timed(Alg1))
        } else {
            engine::delivery_matrix(&small.graph, small.k, &Alg1)
        };
        std::hint::black_box(m);
        t.elapsed().as_secs_f64()
    });
}
