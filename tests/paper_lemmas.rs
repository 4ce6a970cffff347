//! The paper's structural results, checked as executable properties —
//! including deterministic property tests over seeded random graphs.

use local_routing::{engine, verify, Alg1, Alg2, Alg3, LocalRouter, LocalView};
use locality_graph::{generators, neighborhood, traversal, NodeId};
use locality_integration::random_suite;

#[test]
fn lemmas_2_3_5_on_random_suite() {
    for g in random_suite(0x1ea5, 30, 4..18) {
        let n = g.node_count();
        for k in 1..=(n as u32 / 2 + 1) {
            verify::check_lemma3_consistent_connectivity(&g, k).unwrap();
            verify::check_lemma5_consistent_girth(&g, k).unwrap();
        }
    }
}

#[test]
fn propositions_1_2_3_on_random_suite() {
    for g in random_suite(0x9a9, 30, 4..18) {
        let n = g.node_count();
        assert!(verify::max_active_degree(&g, Alg1.min_locality(n)) <= 3);
        assert!(verify::max_active_degree(&g, Alg2.min_locality(n)) <= 2);
        // Proposition 3: at most 2 (an odd cycle at k = floor(n/2) has
        // two active arcs even after preprocessing).
        if n >= 2 {
            assert!(verify::max_active_degree(&g, Alg3.min_locality(n)) <= 2);
        }
    }
}

#[test]
fn routing_view_components_independent_on_random_suite() {
    for g in random_suite(0xc0ffee, 25, 4..16) {
        let k = Alg1.min_locality(g.node_count());
        verify::check_routing_components_independent(&g, k).unwrap();
        verify::check_active_components_large(&g, k).unwrap();
    }
}

#[test]
fn observation1_and_corollary3_on_alg1_runs() {
    for g in random_suite(0x0b51, 15, 4..14) {
        let k = Alg1.min_locality(g.node_count());
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let r = engine::route(&g, k, &Alg1, s, t);
                assert!(r.status.is_delivered());
                verify::check_observation1(&r).unwrap();
                verify::check_corollary3_route_consistency(&g, k, &r, t).unwrap();
            }
        }
    }
}

#[test]
fn lemma12_every_node_sees_t_or_one_constrained_component() {
    // Algorithm 3's precondition at k >= floor(n/2).
    for g in random_suite(0x1212, 25, 2..16) {
        let n = g.node_count();
        let k = (n / 2) as u32;
        for u in g.nodes() {
            let view = LocalView::extract(&g, u, k);
            let sees_all = g.nodes().all(|t| view.raw().contains_node(t));
            if !sees_all {
                let constrained = view
                    .raw_analysis()
                    .active_components()
                    .filter(|c| c.is_constrained())
                    .count();
                let active = view.raw_analysis().active_components().count();
                assert_eq!(active, 1, "node {u} on {g:?}");
                assert_eq!(constrained, 1, "node {u} on {g:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic property tests over seeded random graphs (previously a
// proptest block; now driven by the in-repo PRNG so every run replays
// the identical case list).
// ---------------------------------------------------------------------

use locality_graph::rng::DetRng;

const PROP_CASES: u64 = 48;

/// The k-neighbourhood edge rule: an edge is visible iff its nearer
/// endpoint is strictly inside the ball.
#[test]
fn prop_neighborhood_edge_criterion() {
    for seed in 0..PROP_CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.gen_range(4..16usize);
        let k = rng.gen_range(1..6u32);
        let g = generators::random_mixed(n, &mut rng);
        let u = NodeId((seed % n as u64) as u32);
        let view = neighborhood::k_neighborhood(&g, u, k);
        let dist = traversal::bfs_distances(&g, u, None);
        for (x, y) in g.edges() {
            let dmin = dist[x].min(dist[y]);
            assert_eq!(view.has_edge(x, y), dmin < k, "edge {x}-{y}");
        }
        for x in g.nodes() {
            assert_eq!(view.contains_node(x), dist[x] <= k);
        }
    }
}

/// Consistent-girth (Lemma 5) and consistent-connectivity (Lemma 3)
/// hold for arbitrary graphs and k.
#[test]
fn prop_consistency_lemmas() {
    for seed in 0..PROP_CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.gen_range(4..14usize);
        let k = rng.gen_range(1..7u32);
        let g = generators::random_mixed(n, &mut rng);
        assert!(verify::check_lemma3_consistent_connectivity(&g, k).is_ok());
        assert!(verify::check_lemma5_consistent_girth(&g, k).is_ok());
    }
}

/// Delivery and the dilation bounds at the thresholds, on arbitrary
/// random connected graphs with arbitrary labels.
#[test]
fn prop_delivery_at_threshold() {
    for seed in 0..PROP_CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.gen_range(2..15usize);
        let g = locality_graph::permute::random_relabel(
            &generators::random_mixed(n, &mut rng),
            &mut rng,
        );
        for r in [&Alg1 as &dyn LocalRouter, &Alg2, &Alg3] {
            let m = engine::delivery_matrix(&g, r.min_locality(n), &r);
            assert!(m.all_delivered(), "{} on {:?}", r.name(), g);
        }
    }
}

/// Relabelling never changes *whether* delivery succeeds at the
/// threshold (it may change the route).
#[test]
fn prop_label_permutation_invariance() {
    for seed in 0..PROP_CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.gen_range(3..13usize);
        let g = generators::random_mixed(n, &mut rng);
        let h = locality_graph::permute::random_relabel(&g, &mut rng);
        let k = Alg1.min_locality(n);
        let mg = engine::delivery_matrix(&g, k, &Alg1);
        let mh = engine::delivery_matrix(&h, k, &Alg1);
        assert_eq!(mg.all_delivered(), mh.all_delivered());
        assert!(mg.all_delivered());
    }
}
