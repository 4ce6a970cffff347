//! The k-local preprocessing step (§5.1): dormant edges and the routing
//! subgraph `G'_k(u)`.
//!
//! When a message arrives at `u`, Algorithms 1, 1B and 2 first identify
//! *dormant* edges: on every local cycle of `u` (cycle through `u` of
//! length ≤ 2k) the edge of minimum [`EdgeRank`] is classified dormant.
//! The remaining edges reachable from `u` within `k` hops are the
//! *routing edges*, forming `G'_k(u)`.
//!
//! ### Cycle criterion
//!
//! Enumerating all simple local cycles is exponential, so we use the
//! equivalent-in-effect *closed-walk* criterion: an edge `e = {x, y}` of
//! `G_k(u)` is dormant at `u` iff there is a closed walk through `u`
//! and `e` of length at most `2k` whose other edges all have rank
//! greater than `rank(e)` — i.e.
//!
//! ```text
//! dist_{>rank(e)}(u, x) + dist_{>rank(e)}(u, y) + 1 <= 2k
//! ```
//!
//! where `dist_{>r}` uses only edges of rank exceeding `r`. Every simple
//! local cycle is such a walk (so everything the paper marks dormant is
//! marked), and the three structural facts the correctness proofs rely
//! on survive the relaxation:
//!
//! * **Lemma 2** (edges adjacent to `u` in `G'_k(u)` are consistent): a
//!   dormancy witness at any `w` for an edge `{u, v}` contains `u`, so
//!   it is also a witness at `u`.
//! * **Lemma 3** (a consistent path joins any two nodes): a witness walk
//!   minus `e` still contains a higher-rank path between `e`'s
//!   endpoints, which is all the induction needs.
//! * **Lemma 5** (consistent girth ≥ 2k+1): every simple cycle of length
//!   ≤ 2k is its own witness at each of its vertices, so its min-rank
//!   edge is dormant everywhere on the cycle.
//!
//! These three facts are property-tested in [`crate::verify`].
//!
//! ### Label convention
//!
//! Every function here takes labels as a **slot-aligned slice**:
//! `labels[view.slot_of(x)]` is the label of `x`. [`crate::LocalView`]
//! stores its label table in exactly this layout, so the hot path never
//! materialises a map.

use std::collections::BTreeSet;

use locality_graph::neighborhood;
use locality_graph::traversal::{self, FilteredTopology};
use locality_graph::{DistMap, EdgeRank, Graph, Label, NodeId, Subgraph, SubgraphBuilder};

/// An undirected edge normalised as `(min, max)` by node id.
pub type EdgeKey = (NodeId, NodeId);

/// Normalises an edge to its [`EdgeKey`].
#[inline]
pub fn edge_key(a: NodeId, b: NodeId) -> EdgeKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[inline]
fn label_of(view: &Subgraph, labels: &[Label], x: NodeId) -> Label {
    labels[view.slot_of(x).expect("labels cover every view node")]
}

/// Output of the preprocessing step at one node.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Edges of `G_k(u)` classified dormant at `u`.
    pub dormant: BTreeSet<EdgeKey>,
    /// The routing subgraph `G'_k(u)`: non-dormant edges on paths of
    /// length ≤ k rooted at `u` (and the nodes they reach).
    pub routing: Subgraph,
    /// Distances from `u` within `G'_k(u)` (the paper's `dist'`).
    pub dist: DistMap,
}

/// Classifies the dormant edges of the view `G_k(u)`.
///
/// `labels` is slot-aligned with `view` (see the module docs); `center`
/// is `u`.
pub fn dormant_edges(
    view: &Subgraph,
    labels: &[Label],
    center: NodeId,
    k: u32,
) -> BTreeSet<EdgeKey> {
    let rank_of =
        |a: NodeId, b: NodeId| EdgeRank::new(label_of(view, labels, a), label_of(view, labels, b));
    let mut dormant = BTreeSet::new();
    for (x, y) in view.edges() {
        let r = rank_of(x, y);
        let higher = FilteredTopology::new(view, |a: NodeId, b: NodeId| rank_of(a, b) > r);
        // Both endpoints must be reachable within a combined budget of
        // 2k - 1 edges; cap the BFS there.
        let dist = traversal::bfs_distances(&higher, center, Some(2 * k));
        let (Some(dx), Some(dy)) = (dist.get(x), dist.get(y)) else {
            continue;
        };
        if dx + dy < 2 * k {
            dormant.insert(edge_key(x, y));
        }
    }
    dormant
}

/// Runs the full preprocessing step at `center`, producing `G'_k(u)`.
pub fn preprocess(view: &Subgraph, labels: &[Label], center: NodeId, k: u32) -> Preprocessed {
    let dormant = dormant_edges(view, labels, center, k);
    let filtered = FilteredTopology::new(view, |a: NodeId, b: NodeId| {
        !dormant.contains(&edge_key(a, b))
    });
    let routing = neighborhood::k_neighborhood(&filtered, center, k);
    let dist = traversal::bfs_distances(&routing, center, Some(k));
    Preprocessed {
        dormant,
        routing,
        dist,
    }
}

/// Reference implementation of the paper's literal dormancy rule:
/// enumerate every **simple** local cycle through `center` (length ≤
/// 2k) and mark its min-rank edge. Exponential in the worst case —
/// exists to validate the polynomial closed-walk relaxation used by
/// [`dormant_edges`] (which must mark a superset; see the module docs
/// and the ablation tests).
pub fn dormant_edges_exact(
    view: &Subgraph,
    labels: &[Label],
    center: NodeId,
    k: u32,
) -> BTreeSet<EdgeKey> {
    let mut dormant = BTreeSet::new();
    // DFS over simple paths center -> ... -> x with an edge x-center
    // closing the cycle; bounded by 2k edges.
    let mut path: Vec<NodeId> = vec![center];
    let mut on_path: BTreeSet<NodeId> = [center].into();
    fn dfs(
        view: &Subgraph,
        labels: &[Label],
        center: NodeId,
        max_len: usize,
        path: &mut Vec<NodeId>,
        on_path: &mut BTreeSet<NodeId>,
        dormant: &mut BTreeSet<EdgeKey>,
    ) {
        let u = *path.last().expect("path starts at center");
        for v in view.neighbors(u) {
            if v == center && path.len() >= 3 {
                // A simple cycle of length path.len() closes here.
                let min_edge = path
                    .windows(2)
                    .map(|w| (w[0], w[1]))
                    .chain([(u, center)])
                    .min_by_key(|&(a, b)| {
                        EdgeRank::new(label_of(view, labels, a), label_of(view, labels, b))
                    })
                    .expect("cycle has edges");
                dormant.insert(edge_key(min_edge.0, min_edge.1));
            }
            if path.len() < max_len && !on_path.contains(&v) {
                path.push(v);
                on_path.insert(v);
                dfs(view, labels, center, max_len, path, on_path, dormant);
                on_path.remove(&v);
                path.pop();
            }
        }
    }
    dfs(
        view,
        labels,
        center,
        2 * k as usize,
        &mut path,
        &mut on_path,
        &mut dormant,
    );
    dormant
}

/// The slot-aligned label table of `view` read from the parent graph.
pub fn view_labels(g: &Graph, view: &Subgraph) -> Vec<Label> {
    view.node_slice().iter().map(|&x| g.label(x)).collect()
}

/// Union of every node's dormant classification: the *inconsistent*
/// edges of `G` for locality `k`. An edge is *consistent* iff it appears
/// in no node's dormant set (§5.1). Global knowledge — used by
/// verification and experiments, never by routers.
pub fn inconsistent_edges(g: &Graph, k: u32) -> BTreeSet<EdgeKey> {
    let mut out = BTreeSet::new();
    for u in g.nodes() {
        let view = neighborhood::k_neighborhood(g, u, k);
        let labels = view_labels(g, &view);
        out.extend(dormant_edges(&view, &labels, u, k));
    }
    out
}

/// The subgraph of `G` induced by its consistent edges (plus all nodes).
pub fn consistent_subgraph(g: &Graph, k: u32) -> Subgraph {
    let bad = inconsistent_edges(g, k);
    let mut b = SubgraphBuilder::with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.insert_node(u);
    }
    for (u, v) in g.edges() {
        if !bad.contains(&edge_key(u, v)) {
            b.insert_edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::rng::DetRng;
    use locality_graph::{cycles, generators, permute};

    fn preprocess_at(g: &Graph, u: NodeId, k: u32) -> Preprocessed {
        let view = neighborhood::k_neighborhood(g, u, k);
        let labels = view_labels(g, &view);
        preprocess(&view, &labels, u, k)
    }

    #[test]
    fn tree_has_no_dormant_edges() {
        let g = generators::spider(3, 5);
        for u in g.nodes() {
            let p = preprocess_at(&g, u, 4);
            assert!(p.dormant.is_empty(), "dormant edges in a tree at {u}");
        }
    }

    #[test]
    fn small_cycle_breaks_at_min_rank_edge() {
        // Cycle 0-1-2-3-0 with k = 2: the whole cycle is local; the
        // min-rank edge is {0, 1}.
        let g = generators::cycle(4);
        for u in g.nodes() {
            let p = preprocess_at(&g, u, 2);
            assert_eq!(
                p.dormant.iter().collect::<Vec<_>>(),
                vec![&(NodeId(0), NodeId(1))],
                "at centre {u}"
            );
        }
    }

    #[test]
    fn long_cycle_not_broken() {
        // Cycle of length 9 with k = 4 (2k = 8 < 9): no local cycle.
        let g = generators::cycle(9);
        for u in g.nodes() {
            let p = preprocess_at(&g, u, 4);
            assert!(p.dormant.is_empty());
        }
    }

    #[test]
    fn boundary_cycle_length_exactly_2k_is_broken() {
        let g = generators::cycle(8);
        let p = preprocess_at(&g, NodeId(3), 4);
        assert_eq!(p.dormant.len(), 1);
        assert!(p.dormant.contains(&(NodeId(0), NodeId(1))));
    }

    #[test]
    fn routing_subgraph_prunes_beyond_k_after_removal() {
        // Cycle of length 8, k = 4: after removing the dormant edge
        // {0,1}, node 0's routing view is the path 0-7-6-5-4; nodes 1,
        // 2, 3 now sit 7, 6, 5 hops away along routing edges and leave
        // G'_4(0).
        let g = generators::cycle(8);
        let p = preprocess_at(&g, NodeId(0), 4);
        assert!(p.routing.contains_node(NodeId(4)));
        for far in [1u32, 2, 3] {
            assert!(!p.routing.contains_node(NodeId(far)), "{:?}", p.routing);
        }
        assert_eq!(p.dist[NodeId(4)], 4);
        assert_eq!(p.routing.edge_count(), 4);
    }

    #[test]
    fn lemma2_edges_at_center_are_globally_consistent() {
        // Every edge adjacent to u in G'_k(u) must be dormant nowhere.
        let k = 3;
        for g in [
            generators::cycle(6),
            generators::lollipop(5, 4),
            generators::theta(&[2, 3, 4]),
            generators::complete(5),
        ] {
            let bad = inconsistent_edges(&g, k);
            for u in g.nodes() {
                let p = preprocess_at(&g, u, k);
                for v in p.routing.neighbors(u) {
                    assert!(
                        !bad.contains(&edge_key(u, v)),
                        "edge {{{u},{v}}} routing at {u} but inconsistent in {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma3_consistent_subgraph_is_connected() {
        for g in [
            generators::cycle(6),
            generators::lollipop(6, 3),
            generators::theta(&[2, 3, 4]),
            generators::complete(6),
            generators::grid(3, 3),
        ] {
            for k in 1..=4 {
                let sub = consistent_subgraph(&g, k);
                assert!(
                    traversal::is_connected(&sub),
                    "consistent subgraph disconnected for k={k} on {g:?}"
                );
            }
        }
    }

    #[test]
    fn lemma5_consistent_girth_exceeds_2k() {
        for g in [
            generators::complete(6),
            generators::grid(3, 4),
            generators::theta(&[2, 2, 3]),
            generators::lollipop(4, 2),
        ] {
            for k in 1..=4u32 {
                let sub = consistent_subgraph(&g, k);
                if let Some(girth) = cycles::girth(&sub) {
                    assert!(
                        girth > 2 * k,
                        "consistent girth {girth} < 2k+1 for k={k} on {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dormancy_is_label_driven() {
        // Reversing labels changes which edge on a local cycle has
        // minimum rank, so the dormant edge moves.
        let g = generators::cycle(4);
        let h = permute::reverse_labels(&g);
        let p = preprocess_at(&h, NodeId(0), 2);
        // New labels: node i has label 3 - i; min-rank edge is {2, 3}
        // (labels 0 and 1).
        assert_eq!(
            p.dormant.iter().collect::<Vec<_>>(),
            vec![&(NodeId(2), NodeId(3))]
        );
    }

    #[test]
    fn shared_edge_between_two_local_cycles() {
        // Fig. 9 flavour: two small cycles sharing structure; both are
        // broken, possibly at distinct edges.
        let g = generators::theta(&[2, 2, 2]);
        let k = 2; // each cycle has length 4 = 2k
        let sub = consistent_subgraph(&g, k);
        assert!(traversal::is_connected(&sub));
        assert!(cycles::is_acyclic(&sub), "all 4-cycles must be broken");
    }

    #[test]
    fn walk_rule_contains_exact_rule() {
        // The closed-walk relaxation must mark every edge the literal
        // simple-cycle rule marks (dormant-exact ⊆ dormant-walk), and on
        // typical graphs the two coincide.
        let mut rng = DetRng::seed_from_u64(88);
        let mut coincided = 0;
        let mut total = 0;
        for _ in 0..25 {
            let n = rng.gen_range(4..12usize);
            let g = generators::random_mixed(n, &mut rng);
            for k in 1..=(n as u32 / 2) {
                for u in g.nodes() {
                    let view = neighborhood::k_neighborhood(&g, u, k);
                    let labels = view_labels(&g, &view);
                    let walk = dormant_edges(&view, &labels, u, k);
                    let exact = dormant_edges_exact(&view, &labels, u, k);
                    assert!(
                        exact.is_subset(&walk),
                        "walk rule missed a simple-cycle dormant edge at {u}, k={k}, {g:?}"
                    );
                    total += 1;
                    if exact == walk {
                        coincided += 1;
                    }
                }
            }
        }
        // The rules agree on the overwhelming majority of views; the
        // relaxation only ever adds edges (and provably preserves the
        // lemmas the algorithms rely on).
        assert!(coincided * 100 >= total * 85, "{coincided}/{total}");
    }

    #[test]
    fn exact_rule_on_known_cycles() {
        let g = generators::cycle(4);
        let view = neighborhood::k_neighborhood(&g, NodeId(2), 2);
        let labels = view_labels(&g, &view);
        let exact = dormant_edges_exact(&view, &labels, NodeId(2), 2);
        assert_eq!(
            exact.iter().collect::<Vec<_>>(),
            vec![&(NodeId(0), NodeId(1))]
        );
        // Length-9 cycle with k = 4: no local cycle, nothing dormant.
        let g = generators::cycle(9);
        let view = neighborhood::k_neighborhood(&g, NodeId(0), 4);
        let labels = view_labels(&g, &view);
        assert!(dormant_edges_exact(&view, &labels, NodeId(0), 4).is_empty());
    }

    #[test]
    fn edge_key_normalises() {
        assert_eq!(edge_key(NodeId(5), NodeId(2)), (NodeId(2), NodeId(5)));
        assert_eq!(edge_key(NodeId(2), NodeId(5)), (NodeId(2), NodeId(5)));
    }
}
