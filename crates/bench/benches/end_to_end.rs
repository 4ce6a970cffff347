//! End-to-end routing benchmarks: full message journeys through the
//! central engine (with a shared, pre-warmed view store) and through
//! the distributed simulator, including the paper's worst-case
//! instances.

use local_routing::engine;
use local_routing::{Alg1, Alg1B, Alg2, Alg3, LocalRouter, ViewStore};
use locality_adversary::tight;
use locality_bench::timing::{measure_ns, report};
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_sim::NetworkBuilder;

fn main() {
    // Worst-case fig13 journeys for Algorithm 1 (route length 2n-k-3).
    for n in [32usize, 64] {
        let inst = tight::fig13(n);
        let g = &inst.graph;
        let views = ViewStore::new(g, inst.k);
        // Warm every view on the route once.
        engine::route_with_cache(g, &views, &Alg1, inst.s, inst.t);
        let ns = measure_ns(|| engine::route_with_cache(g, &views, &Alg1, inst.s, inst.t));
        report("route", &format!("alg1_fig13/{n}"), ns);
    }
    // Typical journeys on a random graph for each algorithm.
    let n = 48;
    let mut rng = DetRng::seed_from_u64(5);
    let g = generators::random_connected(n, n / 3, &mut rng);
    for (router, name) in [
        (&Alg1 as &dyn LocalRouter, "alg1"),
        (&Alg1B, "alg1b"),
        (&Alg2, "alg2"),
        (&Alg3, "alg3"),
    ] {
        let k = router.min_locality(n);
        let views = ViewStore::new(&g, k);
        engine::route_with_cache(&g, &views, &router, NodeId(0), NodeId(40));
        let ns =
            measure_ns(|| engine::route_with_cache(&g, &views, &router, NodeId(0), NodeId(40)));
        report("route", &format!("random48/{name}"), ns);
    }

    // Simulator: all-pairs traffic on a grid, provisioning included.
    let g = generators::grid(6, 6);
    for (name, k, alg1) in [
        ("grid6x6_all_pairs_alg1", Alg1.min_locality(36), true),
        ("grid6x6_all_pairs_alg3", Alg3.min_locality(36), false),
    ] {
        let ns = measure_ns(|| {
            let mut net = if alg1 {
                NetworkBuilder::new(&g, k).build(Alg1)
            } else {
                NetworkBuilder::new(&g, k).build(Alg3)
            };
            for s in 0..36u32 {
                for t in 0..36u32 {
                    if s != t {
                        net.send(NodeId(s), NodeId(t));
                    }
                }
            }
            net.run_until_quiet();
            net.metrics().delivered
        });
        report("simulator", name, ns);
    }
}
