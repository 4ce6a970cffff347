//! Exhaustive delivery tests: every algorithm, at its threshold `T(n)`,
//! must deliver every ordered origin–destination pair on **every**
//! connected graph for small `n` (and both label orientations).
//!
//! This is the strongest correctness evidence for the reconstructed rule
//! tables of Algorithms 1/1B (see DESIGN.md): the rules were derived from
//! the proofs, and these suites check them against the full graph space
//! the theorems quantify over (up to the sizes that are feasible). The
//! routers of one graph share a view store per `k`, so each view is
//! extracted and preprocessed once however many routers read it.

use local_routing::{Alg1, Alg1B, Alg2, Alg3, LocalRouter};
use locality_integration::{assert_all_delivered_sharing_views, exhaustive_suite};

const ROUTERS: [&dyn LocalRouter; 4] = [&Alg1, &Alg1B, &Alg2, &Alg3];

/// Every router at its own threshold on every connected graph on `n`
/// nodes.
fn at_threshold(n: usize) {
    for g in exhaustive_suite(n) {
        assert_all_delivered_sharing_views(&g, ROUTERS.map(|r| (r, r.min_locality(n))));
    }
}

#[test]
fn exhaustive_n2_to_n5_at_threshold() {
    for n in 2..=5 {
        at_threshold(n);
    }
}

#[test]
#[ignore = "slow (all 26704 connected graphs on 6 nodes, two labelings); run with --ignored"]
fn exhaustive_n6_at_threshold() {
    at_threshold(6);
}

#[test]
fn exhaustive_n4_n5_above_threshold() {
    // Delivery must also hold for every k above the threshold, up to n.
    for n in 4..=5usize {
        for g in exhaustive_suite(n) {
            let runs = ROUTERS
                .into_iter()
                .flat_map(|r| (r.min_locality(n)..=n as u32).map(move |k| (r, k)));
            assert_all_delivered_sharing_views(&g, runs);
        }
    }
}
