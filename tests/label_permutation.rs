//! Label-permutation equivariance: the runtime counterpart of the
//! `locality-lint` R2 determinism rule.
//!
//! The paper's model (§1.1) lets a router see only vertex *labels*, so
//! a conforming implementation must behave identically on any two
//! graphs that are isomorphic with labels riding along — the internal
//! node numbering, memory layout, and container iteration order must
//! be unobservable. [`locality_graph::permute::permute_nodes`] builds
//! exactly such a copy; here we route every pair on both graphs and
//! demand hop-for-hop identical (mapped) routes. A router leaking
//! hash-iteration order or raw `NodeId` comparisons fails this suite
//! even when it still *delivers* everywhere.

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, Graph, NodeId};

/// Routes all ordered pairs on `g` and on a structure-permuted,
/// label-preserving copy, asserting the permuted run takes the mapped
/// route of the original, hop for hop.
fn assert_equivariant<R: LocalRouter + ?Sized>(router: &R, g: &Graph, rng: &mut DetRng) {
    let n = g.node_count();
    let k = router.min_locality(n);
    let (h, perm) = permute::random_permute_nodes(g, rng);
    for s in g.nodes() {
        for t in g.nodes().filter(|&t| t != s) {
            let on_g = engine::route(g, k, router, s, t);
            let hs = perm[s.index()];
            let ht = perm[t.index()];
            let on_h = engine::route(&h, k, router, hs, ht);
            assert_eq!(
                on_g.status.is_delivered(),
                on_h.status.is_delivered(),
                "{} ({s},{t}): delivery must not depend on node numbering",
                router.name(),
            );
            let mapped: Vec<NodeId> = on_g.route.iter().map(|&u| perm[u.index()]).collect();
            assert_eq!(
                on_h.route,
                mapped,
                "{} ({s},{t}): route must be equivariant under node permutation",
                router.name(),
            );
        }
    }
}

fn suite() -> Vec<Graph> {
    let mut rng = DetRng::seed_from_u64(0xbcd);
    let mut graphs = vec![
        generators::cycle(9),
        generators::lollipop(6, 3),
        generators::grid(3, 4),
        generators::spider(3, 3),
    ];
    for _ in 0..4 {
        let n = rng.gen_range(8..13);
        graphs.push(generators::random_mixed(n, &mut rng));
    }
    graphs
}

#[test]
fn alg1_is_node_permutation_equivariant() {
    let mut rng = DetRng::seed_from_u64(1);
    for g in suite() {
        assert_equivariant(&Alg1, &g, &mut rng);
    }
}

#[test]
fn alg1b_is_node_permutation_equivariant() {
    let mut rng = DetRng::seed_from_u64(2);
    for g in suite() {
        assert_equivariant(&Alg1B, &g, &mut rng);
    }
}

#[test]
fn alg2_is_node_permutation_equivariant() {
    let mut rng = DetRng::seed_from_u64(3);
    for g in suite() {
        assert_equivariant(&Alg2, &g, &mut rng);
    }
}

#[test]
fn alg3_is_node_permutation_equivariant() {
    let mut rng = DetRng::seed_from_u64(4);
    for g in suite() {
        assert_equivariant(&Alg3, &g, &mut rng);
    }
}

#[test]
fn scrambled_labels_compose_with_node_permutation() {
    // Relabelling then node-permuting exercises both adversarial moves
    // at once: the router sees scrambled labels *and* a scrambled
    // memory layout.
    let mut rng = DetRng::seed_from_u64(5);
    for g in suite() {
        let scrambled = permute::random_relabel(&g, &mut rng);
        assert_equivariant(&Alg3, &scrambled, &mut rng);
    }
}
