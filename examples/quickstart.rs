//! Quickstart: route a message with every algorithm on a small network.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter};
use locality_graph::{generators, NodeId};

fn main() {
    // A "ring road with a cul-de-sac": a 12-cycle with a 4-node tail.
    let g = generators::lollipop(12, 4);
    let n = g.node_count();
    let (s, t) = (NodeId(3), NodeId(15)); // cycle node -> tail tip

    println!("network: lollipop(12) + tail(4), n = {n}");
    println!("routing from {s} to {t} (shortest path: {} hops)\n", {
        locality_graph::traversal::distance(&g, s, t).unwrap()
    });

    for router in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
        // Every algorithm declares its own feasibility threshold T(n).
        let k = router.min_locality(n);
        let report = engine::route(&g, k, &router, s, t);
        println!(
            "{:<14} k = {:>2} ({:<32}) -> {:?} in {} hops (dilation {:.2})",
            router.name(),
            k,
            router.awareness().to_string(),
            report.status,
            report.hops(),
            report.dilation().unwrap_or(f64::NAN),
        );
    }

    println!("\nBelow the threshold the guarantees evaporate:");
    let k = Alg3.min_locality(n) - 2;
    let report = engine::route(&g, k, &Alg3, s, t);
    println!(
        "algorithm-3 at k = {k}: {:?} after {} hops",
        report.status,
        report.hops()
    );
}
