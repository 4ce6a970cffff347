//! Equivalence suite for the dense data-model refactor.
//!
//! The indexed views, Vec-backed distance maps, and the shared view
//! store must not change a single routing decision: every execution
//! path through the engine (fresh views, shared store, serial matrix,
//! parallel matrix) has to produce identical routes, dilations, and
//! dormant-edge classifications. These tests pin that down on
//! exhaustive small graphs, the Theorem 1/2 lower-bound families, and
//! the tight Fig. 13 / Fig. 17 instances.

use local_routing::engine::{self, MatrixReport};
use local_routing::{preprocess, Alg1, Alg1B, Alg3, LocalRouter, LocalView, ViewStore};
use locality_adversary::{thm1, thm2, tight};
use locality_graph::components::LocalComponent;
use locality_graph::traversal::{self, FilteredTopology};
use locality_graph::{generators, Graph, NodeId, Subgraph};
use locality_integration::{exhaustive_suite, random_suite};

/// Two matrix reports computed over the same pairs must agree bit for
/// bit — same failures in the same order, same worst dilation, same
/// total hops.
fn assert_same_matrix(a: &MatrixReport, b: &MatrixReport, what: &str) {
    assert_eq!(a.runs, b.runs, "{what}: runs");
    assert_eq!(a.failures, b.failures, "{what}: failures");
    assert_eq!(a.total_hops, b.total_hops, "{what}: total hops");
    match (&a.worst_dilation, &b.worst_dilation) {
        (None, None) => {}
        (Some((da, sa, ta)), Some((db, sb, tb))) => {
            assert_eq!((sa, ta), (sb, tb), "{what}: worst pair");
            assert_eq!(da.to_bits(), db.to_bits(), "{what}: worst dilation");
        }
        (x, y) => panic!("{what}: worst dilation {x:?} vs {y:?}"),
    }
}

fn all_pairs(g: &Graph) -> Vec<(locality_graph::NodeId, locality_graph::NodeId)> {
    let mut pairs = Vec::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                pairs.push((s, t));
            }
        }
    }
    pairs
}

/// Serial matrix, store-based matrix, and parallel matrix agree on
/// every connected graph with at most 5 nodes, for a
/// preprocessing-based and a component-based router.
#[test]
fn exhaustive_small_graphs_matrix_parity() {
    for n in 3..=5 {
        for g in exhaustive_suite(n) {
            for router in [&Alg1 as &dyn LocalRouter, &Alg3] {
                let k = router.min_locality(n);
                let serial = engine::delivery_matrix(&g, k, &router);
                let views = ViewStore::new(&g, k);
                let cached = engine::delivery_matrix_with_cache(&g, &views, &router, all_pairs(&g));
                let parallel = engine::delivery_matrix_parallel(&g, k, &router, 4);
                assert_same_matrix(&serial, &cached, "serial vs cached");
                assert_same_matrix(&serial, &parallel, "serial vs parallel");
            }
        }
    }
}

/// A deterministic sample of the 6-node connected graphs (the full set
/// is ~27k): serial and parallel matrices still agree.
#[test]
fn sampled_six_node_graphs_matrix_parity() {
    let suite = exhaustive_suite(6);
    for g in suite.iter().step_by(97) {
        let k = Alg1.min_locality(6);
        let serial = engine::delivery_matrix(g, k, &Alg1);
        let parallel = engine::delivery_matrix_parallel(g, k, &Alg1, 4);
        assert_same_matrix(&serial, &parallel, "serial vs parallel (n = 6)");
    }
}

/// On the Theorem 1/2 lower-bound families, the route taken through a
/// shared (and then reused) store is hop-for-hop the route taken with
/// fresh views — at the working locality and below it, where the
/// failure paths are exercised too.
#[test]
fn thm_families_routes_unchanged_by_cache_reuse() {
    let n = 15;
    let instances = thm1::family(n)
        .into_iter()
        .map(|i| (i.graph, i.s, i.t))
        .chain(thm2::family(n).into_iter().map(|i| (i.graph, i.s, i.t)));
    for (g, s, t) in instances {
        for k in [2, (n / 4) as u32, (n / 2) as u32] {
            let fresh = engine::route(&g, k, &Alg1, s, t);
            let views = ViewStore::new(&g, k);
            let first = engine::route_with_cache(&g, &views, &Alg1, s, t);
            let warm = engine::route_with_cache(&g, &views, &Alg1, s, t);
            assert_eq!(fresh.status, first.status, "status (k = {k})");
            assert_eq!(fresh.route, first.route, "route (k = {k})");
            assert_eq!(first.route, warm.route, "route on warm cache (k = {k})");
        }
    }
}

/// The tight instances still realise exactly the dilations the paper
/// predicts (Lemmas 8 and 16) after the refactor.
#[test]
fn tight_instances_keep_golden_dilations() {
    for n in [16, 32] {
        let inst = tight::fig13(n);
        let (hops, dilation) = inst.measure(&Alg1);
        assert_eq!(hops, inst.predicted_route, "fig13({n}) route length");
        assert!(
            (dilation - inst.predicted_dilation()).abs() < 1e-12,
            "fig13({n}) dilation {dilation} != {}",
            inst.predicted_dilation()
        );
    }
    for n in [28, 40] {
        let inst = tight::fig17(n);
        let (hops, dilation) = inst.measure(&Alg1B);
        assert_eq!(hops, inst.predicted_route, "fig17({n}) route length");
        assert!(
            (dilation - inst.predicted_dilation()).abs() < 1e-12,
            "fig17({n}) dilation {dilation} != {}",
            inst.predicted_dilation()
        );
    }
}

/// The lazily cached routing view inside `LocalView` matches a direct
/// call to the preprocessing functions: same dormant set, same routing
/// subgraph, same distance map. Checked on random graphs and on the
/// Theorem 1 family.
#[test]
fn cached_routing_view_matches_direct_preprocess() {
    let mut graphs = random_suite(11, 10, 6..14);
    graphs.extend(thm1::family(11).into_iter().map(|i| i.graph));
    for g in &graphs {
        let k = (g.node_count() / 4).max(2) as u32;
        for u in g.nodes() {
            let view = LocalView::extract(g, u, k);
            let rv = view.routing_view();
            let direct = preprocess::preprocess(view.raw(), view.labels(), u, k);
            assert_eq!(rv.dormant, direct.dormant, "dormant at {u}");
            assert_eq!(rv.sub.node_count(), direct.routing.node_count());
            assert_eq!(rv.sub.edge_count(), direct.routing.edge_count());
            for x in rv.sub.nodes() {
                let slot = direct.routing.slot_of(x).expect("same members");
                assert_eq!(rv.dist(x), Some(direct.dist[slot]), "dist'({u}, {x})");
            }
        }
    }
}

/// The masked-BFS definition of a constraint vertex: `w` is one iff,
/// with `w` deleted, no depth-k vertex of its component other than `w`
/// lies within `k` hops of the centre.
fn constraint_vertices_by_masked_bfs(
    view: &Subgraph,
    center: NodeId,
    k: u32,
    comp: &LocalComponent,
) -> Vec<NodeId> {
    let cut_off_by = |w: NodeId| {
        let masked = FilteredTopology::new(view, |a: NodeId, b: NodeId| a != w && b != w);
        let dist = traversal::bfs_distances(&masked, center, Some(k));
        comp.depth_k_nodes
            .iter()
            .all(|&z| z == w || !dist.contains(z))
    };
    comp.nodes
        .iter()
        .copied()
        .filter(|&w| cut_off_by(w))
        .collect()
}

/// `ComponentAnalysis` reads constraint vertices off the shortest-path
/// DAG (one on-path vertex at their depth). That must agree with the
/// masked-BFS definition on views too large for the exhaustive path
/// oracle: the tight families at k = n/4 and ring lattices, on the raw
/// view and on `G'_k(u)`.
#[test]
fn constraint_vertices_match_masked_bfs_on_large_views() {
    let mut cases: Vec<(Graph, u32)> = Vec::new();
    for n in [32, 64, 128] {
        cases.push((tight::fig13(n).graph, n as u32 / 4));
        cases.push((tight::fig17(n).graph, n as u32 / 4));
    }
    for (n, c, k) in [(64, 3, 2), (96, 4, 5), (128, 8, 1), (200, 2, 12)] {
        cases.push((generators::ring_lattice(n, c), k));
    }
    let mut constrained = 0;
    for (g, k) in &cases {
        for u in g.nodes() {
            let view = LocalView::extract(g, u, *k);
            let rv = view.routing_view();
            for (sub, analysis) in [(view.raw(), view.raw_analysis()), (&rv.sub, &rv.analysis)] {
                for c in analysis.active_components() {
                    let want = constraint_vertices_by_masked_bfs(sub, u, *k, c);
                    assert_eq!(c.constraint_vertices, want, "at {u}, k = {k}, on {g:?}");
                    constrained += usize::from(!want.is_empty());
                }
            }
        }
    }
    assert!(
        constrained > 0,
        "the cases must include constrained components"
    );
}

/// Re-running a matrix on an already warm shared store changes nothing:
/// stored views carry no run state.
#[test]
fn warm_cache_matrix_is_stable() {
    for g in random_suite(23, 6, 8..16) {
        let k = Alg1.min_locality(g.node_count());
        let views = ViewStore::new(&g, k);
        let first = engine::delivery_matrix_with_cache(&g, &views, &Alg1, all_pairs(&g));
        let second = engine::delivery_matrix_with_cache(&g, &views, &Alg1, all_pairs(&g));
        assert_same_matrix(&first, &second, "cold vs warm store");
        assert_eq!(views.len(), g.node_count(), "every view built once");
    }
}
