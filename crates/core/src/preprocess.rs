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
//! ### One pass in rank order
//!
//! [`dormant_edges`] evaluates the criterion for every edge in a single
//! pass. It inserts the view's edges one at a time in descending rank
//! order into an initially edgeless graph on the view's nodes, keeping
//! the distance from `u` to every node over the edges inserted so far.
//! Ranks are a strict total order (labels are unique), so just before
//! `e` is inserted the pass holds exactly the edges ranked above `e`,
//! and the distances it keeps are `dist_{>rank(e)}`: testing
//! `d[x] + d[y] + 1 <= 2k` there is the criterion above, word for word,
//! and marks the same edges as one BFS per edge would. (Equal ranks,
//! possible only if a caller passes duplicate labels, are all tested
//! before any of them is inserted, which keeps the equivalence.)
//!
//! Inserting an edge can only shorten distances, so the pass relaxes
//! them incrementally: a node whose distance falls rescans its
//! neighbours over inserted edges. Only distances below `2k` can take
//! part in a test, so larger ones are kept as unreached; a node's
//! distance therefore falls at most `2k` times, and the pass costs
//! O(m log m) for the sort plus O(m·k) for the relaxations, against the
//! m BFS passes of the per-edge form. Every array it uses is indexed by
//! the view's member slots or edge-end positions, so its memory is
//! sized by the view, never by the largest node id in it.
//! [`preprocess`] then builds `G'_k(u)` with one slot BFS over the
//! view that skips the dormant edge ends, and that search's distances
//! are `dist'`.
//!
//! ### No pass where nothing can be dormant
//!
//! *A connected view has at most m − n + 1 dormant edges.* Removing the
//! dormant set keeps it connected. Take the dormant edges from the
//! highest rank down. A dormant `e = {x, y}` of rank `r` has its
//! witness: paths from `u` to `x` and to `y` over edges ranked above
//! `r`, which join `x` to `y`. Each dormant edge on them ranks above
//! `r`, so by induction its own endpoints are joined by non-dormant
//! edges; substituted in, they join `x` to `y` without any dormant
//! edge (Lemma 3's argument). So the non-dormant edges connect all `n`
//! members, which takes at least n − 1 of them, and at most m − n + 1
//! edges are left to be dormant. *A tree has no dormant edge.*
//!
//! [`preprocess`] therefore decides "tree" before the pass: m = n − 1,
//! and one search of the view from `u`, cut at depth `k`, reaches every
//! member. Then every edge joins depths `d` and `d + 1 ≤ k`, so
//! re-extraction would keep every member and edge: `G'_k(u)` is the
//! view, copied, and the search's distances are `dist'`. The edge list,
//! its rank sort, the relaxations and the masked rebuild never run. The
//! decision reads the view's edges, never the distances stored beside
//! it ([`crate::LocalView`]'s table): a decoded artifact only claims
//! those, and decoding checks little more than "at most `k`" and
//! "centre at 0". Every view at k = 1 is a tree, a star: its members
//! are `u` and `u`'s neighbours, and an edge between two neighbours
//! joins two depth-k members, which the view leaves out. So are all 128
//! views of Fig. 13 and 52 of the 128 of Fig. 17 at n = 128.
//!
//! A cyclic view goes through the pass and the masked rebuild even when
//! the pass marks nothing. Such views are rare: no edge of theirs closes
//! a walk from `u` of length at most `2k` whose other edges all rank
//! above it. The rebuild also drops whatever a decoded view holds
//! beyond its centre's k-neighbourhood.
//!
//! ### Label convention
//!
//! Every function here takes labels as a **slot-aligned slice**:
//! `labels[view.slot_of(x)]` is the label of `x`. [`crate::LocalView`]
//! stores its label table in exactly this layout, so the hot path never
//! materialises a map.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use locality_graph::dist::UNREACHED;
use locality_graph::neighborhood;
use locality_graph::{EdgeRank, Graph, Label, NodeId, Subgraph, SubgraphBuilder};

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
    /// Distances from `u` within `G'_k(u)` (the paper's `dist'`),
    /// slot-aligned with `routing`: `dist[routing.slot_of(x)]` is the
    /// distance to `x`. Every member is reached.
    pub dist: Vec<u32>,
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
    dormant_set(view, &dormant_mask(view, labels, center, k))
}

/// The rank-ordered pass of the module docs: flags both edge ends (by
/// position, see [`Subgraph::neighbor_range`]) of every dormant edge.
fn dormant_mask(view: &Subgraph, labels: &[Label], center: NodeId, k: u32) -> Vec<bool> {
    let mut mask = vec![false; 2 * view.edge_count()];
    let Some(c) = view.slot_of(center) else {
        return mask;
    };
    let rank = |a: usize, b: usize| EdgeRank::new(labels[a], labels[b]);
    // Each edge once, with its endpoints' slots and its ends' positions.
    let mut edges: Vec<(EdgeRank, usize, usize, usize, usize)> =
        Vec::with_capacity(view.edge_count());
    for a in 0..view.node_count() {
        for (pa, &b) in view.neighbor_range(a).zip(view.neighbor_slots(a)) {
            let b = b as usize;
            if a < b {
                // Runs are sorted, so `a` sits where it would be inserted.
                let pb = view.neighbor_range(b).start
                    + view
                        .neighbor_slots(b)
                        .partition_point(|&x| (x as usize) < a);
                edges.push((rank(a, b), a, b, pa, pb));
            }
        }
    }
    edges.sort_unstable_by_key(|e| Reverse(e.0));

    // Distances from the centre over the inserted edges; only values
    // below `limit` can satisfy the test, so larger ones stay UNREACHED.
    let limit = 2 * k;
    let mut dist = vec![UNREACHED; view.node_count()];
    dist[c] = 0;
    let mut queue: Vec<usize> = Vec::new();
    for group in edges.chunk_by(|x, y| x.0 == y.0) {
        for &(_, a, b, pa, pb) in group {
            if dist[a].saturating_add(dist[b]) < limit {
                mask[pa] = true;
                mask[pb] = true;
            }
        }
        for &(r, a, b, _, _) in group {
            for (from, to) in [(a, b), (b, a)] {
                if dist[from].saturating_add(1) < dist[to].min(limit) {
                    dist[to] = dist[from] + 1;
                    queue.push(to);
                }
            }
            // Breadth-first from the one node the edge improved: the
            // first improvement a node gets here is its final one.
            let mut head = 0;
            while let Some(&x) = queue.get(head) {
                head += 1;
                let next = dist[x] + 1;
                if next >= limit {
                    continue;
                }
                for &y in view.neighbor_slots(x) {
                    let y = y as usize;
                    if next < dist[y] && rank(x, y) >= r {
                        dist[y] = next;
                        queue.push(y);
                    }
                }
            }
            queue.clear();
        }
    }
    mask
}

/// The dormant edges a [`dormant_mask`] flags, as edge keys.
fn dormant_set(view: &Subgraph, mask: &[bool]) -> BTreeSet<EdgeKey> {
    let mut set = BTreeSet::new();
    for a in 0..view.node_count() {
        for (p, &b) in view.neighbor_range(a).zip(view.neighbor_slots(a)) {
            if mask[p] && a < b as usize {
                set.insert((view.id_of(a), view.id_of(b as usize)));
            }
        }
    }
    set
}

/// Runs the full preprocessing step at `center`, producing `G'_k(u)`.
///
/// A tree within `k` hops of the centre skips the dormant pass and is
/// its own `G'_k(u)`; any other view is re-extracted without its
/// dormant edges (see the module docs). The view's own edges decide
/// which: no distance stored beside it is read.
pub fn preprocess(view: &Subgraph, labels: &[Label], center: NodeId, k: u32) -> Preprocessed {
    let n = view.node_count();
    if view.edge_count() + 1 == n {
        // With m = n − 1, the view is a tree iff one search reaches
        // every member; cut at depth k, it also puts them within k.
        let (mut dist, mut order) = (Vec::new(), Vec::with_capacity(n));
        view.bfs_slots(center, k, |_, _| true, &mut dist, &mut order);
        if order.len() == n {
            // A tree has no dormant edge, and every edge joins depths
            // `d` and `d + 1 ≤ k`: the view is its own `G'_k(u)`.
            return Preprocessed {
                dormant: BTreeSet::new(),
                routing: view.clone(),
                dist,
            };
        }
    }
    let mask = dormant_mask(view, labels, center, k);
    let (routing, dist) = neighborhood::k_neighborhood_masked(view, center, k, &mask);
    Preprocessed {
        dormant: dormant_set(view, &mask),
        routing,
        dist,
    }
}

/// [`preprocess`] as it was before the acyclic skip, kept as the
/// reference the routing view is compared with: the rank-ordered pass
/// on every view, then `G'_k(u)` re-extracted through its mask.
#[cfg(test)]
pub(crate) fn preprocess_reference(
    view: &Subgraph,
    labels: &[Label],
    center: NodeId,
    k: u32,
) -> Preprocessed {
    let mask = dormant_mask(view, labels, center, k);
    let (routing, dist) = neighborhood::k_neighborhood_masked(view, center, k, &mask);
    Preprocessed {
        dormant: dormant_set(view, &mask),
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
                    .iter()
                    .copied()
                    .zip(path.iter().copied().skip(1))
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
    use locality_adversary::tight;
    use locality_graph::rng::DetRng;
    use locality_graph::traversal::{self, FilteredTopology};
    use locality_graph::{cycles, generators, permute};

    fn preprocess_at(g: &Graph, u: NodeId, k: u32) -> Preprocessed {
        let view = neighborhood::k_neighborhood(g, u, k);
        let labels = view_labels(g, &view);
        preprocess(&view, &labels, u, k)
    }

    /// The closed-walk criterion evaluated literally: one BFS per edge
    /// over the edges ranked above it. The reference the rank-ordered
    /// pass must reproduce.
    fn dormant_edges_per_edge_bfs(
        view: &Subgraph,
        labels: &[Label],
        center: NodeId,
        k: u32,
    ) -> BTreeSet<EdgeKey> {
        let rank_of = |a: NodeId, b: NodeId| {
            EdgeRank::new(label_of(view, labels, a), label_of(view, labels, b))
        };
        let mut dormant = BTreeSet::new();
        for (x, y) in view.edges() {
            let r = rank_of(x, y);
            let higher = FilteredTopology::new(view, |a: NodeId, b: NodeId| rank_of(a, b) > r);
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

    /// At every node of `g`: the pass marks what the per-edge reference
    /// marks, and `G'_k(u)` with its distances is what extraction over
    /// the view minus those edges gives.
    fn assert_matches_per_edge_bfs(g: &Graph, k: u32, what: &str) {
        for u in g.nodes() {
            let view = neighborhood::k_neighborhood(g, u, k);
            let labels = view_labels(g, &view);
            let want = dormant_edges_per_edge_bfs(&view, &labels, u, k);
            let p = preprocess(&view, &labels, u, k);
            assert_eq!(p.dormant, want, "{what}: dormant set at {u}, k = {k}");
            let kept = FilteredTopology::new(&view, |a: NodeId, b: NodeId| {
                !want.contains(&edge_key(a, b))
            });
            let (routing, dist) = neighborhood::k_neighborhood_with_distances(&kept, u, k);
            assert_eq!(p.routing, routing, "{what}: G'_k at {u}, k = {k}");
            assert_eq!(p.dist, dist, "{what}: dist' at {u}, k = {k}");
        }
    }

    #[test]
    fn rank_ordered_pass_matches_per_edge_bfs() {
        let mut rng = DetRng::seed_from_u64(15);
        for _ in 0..10 {
            let n = rng.gen_range(4..40usize);
            let g = generators::random_mixed(n, &mut rng);
            for k in 1..=(n as u32 / 2) {
                assert_matches_per_edge_bfs(&g, k, "random_mixed");
            }
        }
        let g = generators::random_connected(60, 30, &mut rng);
        for k in [1, 2, 3, 5, 8, 15, 30] {
            assert_matches_per_edge_bfs(&g, k, "random_connected(60, 30)");
        }
        assert_matches_per_edge_bfs(&generators::grid(30, 30), 6, "grid(30, 30)");
        for n in [32, 64, 128] {
            let k = n as u32 / 4;
            assert_matches_per_edge_bfs(&tight::fig13(n).graph, k, "fig13");
            assert_matches_per_edge_bfs(&tight::fig17(n).graph, k, "fig17");
        }
    }

    #[test]
    fn n_minus_one_edges_without_a_tree_still_run_the_pass() {
        // Six members and five edges, but not a tree: the centre 0 sits
        // on the 4-cycle 0-1-2-3, and the edge 4-5 lies apart from it.
        let mut b = SubgraphBuilder::new();
        for x in 0..6 {
            b.insert_node(NodeId(x));
        }
        for (x, y) in [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)] {
            b.insert_edge(NodeId(x), NodeId(y));
        }
        let view = b.build();
        assert_eq!(view.edge_count() + 1, view.node_count());
        let labels: Vec<Label> = (0..6).map(Label).collect();
        let p = preprocess(&view, &labels, NodeId(0), 2);
        let want = preprocess_reference(&view, &labels, NodeId(0), 2);
        assert_eq!(p.dormant, BTreeSet::from([(NodeId(0), NodeId(1))]));
        assert_eq!(p.dormant, want.dormant);
        assert_eq!(p.routing, want.routing);
        assert_eq!(p.dist, want.dist);
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
        assert_eq!(p.dist[p.routing.slot_of(NodeId(4)).unwrap()], 4);
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
