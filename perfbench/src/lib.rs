//! Layered benchmark for the local-routing workspace.
//!
//! Four workloads time the repository's layers from outside, through
//! their public entry points only: view extraction and preprocessing
//! (`graph`, `core`), the routers and the route engine, the oracle
//! artifact, the simulator hop path with faults and admission, the
//! trial driver, and the trace recorder plus analytics (`obs`). See
//! `README.md` in this directory for the metrics, the workloads and
//! the layer map.

// Wall-clock measurement is the point of a benchmark; the workspace
// `Instant` ban protects routing determinism, not the code that times it.
#![allow(clippy::disallowed_types)]

pub mod alloc;
pub mod layers;
pub mod outcome;
pub mod report;
pub mod ring;
pub mod soak;
pub mod spans;
pub mod tight;
pub mod timed;
pub mod util;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use local_routing::baselines::RingGreedy;
use local_routing::{Alg1, Alg1B, Alg3};

use crate::report::Report;
use crate::timed::Timed;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const E2E: [&str; 6] = [
    "setup_s",
    "hops_per_s",
    "trials_per_s",
    "peak_rss_mb",
    "delivery_ratio",
    "max_dilation",
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "ring-100k",
    "ring-100k-oracle",
    "tight-matrix",
    "soak-trace",
];

/// Runs workload `name` at the benchmark size (or the toy size the
/// tests use). With `traced`, routers are wrapped in [`Timed`]. Returns
/// `None` for an unknown name.
pub fn run_workload(
    name: &str,
    toy: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Option<Report> {
    let mut rep = match name {
        "ring-100k" | "ring-100k-oracle" => {
            let cfg = if toy {
                ring::RingCfg::toy()
            } else {
                ring::RingCfg::full()
            };
            let oracle = name.ends_with("oracle");
            let r = RingGreedy::new(cfg.n as u32);
            if traced {
                ring::run(&cfg, seed, seconds, oracle, Timed(r))
            } else {
                ring::run(&cfg, seed, seconds, oracle, r)
            }
        }
        "tight-matrix" => {
            let cfg = if toy {
                tight::TightCfg::toy()
            } else {
                tight::TightCfg::full()
            };
            if traced {
                tight::run(&cfg, seed, seconds, &Timed(Alg1), &Timed(Alg1B))
            } else {
                tight::run(&cfg, seed, seconds, &Alg1, &Alg1B)
            }
        }
        "soak-trace" => {
            let cfg = if toy {
                soak::SoakCfg::toy()
            } else {
                soak::SoakCfg::full()
            };
            if traced {
                soak::run(&cfg, seed, seconds, Timed(Alg3))
            } else {
                soak::run(&cfg, seed, seconds, Alg3)
            }
        }
        _ => return None,
    };
    if traced {
        layers::extract_share(&mut rep);
        for name in ["view.extract_slope", "sim.hop_slope"] {
            rep.absent(
                name,
                "exponent",
                "the scaling probe runs only in ring-100k's traced run",
            );
        }
    }
    Some(rep)
}
