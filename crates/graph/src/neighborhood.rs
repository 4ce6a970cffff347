//! Extraction of the k-neighbourhood `G_k(u)` (§2.1).
//!
//! The paper defines `G_k(u)` as "the subgraph of `G` that contains all
//! paths rooted at `u` with length at most `k`". Concretely:
//!
//! * a **vertex** `x` belongs to `G_k(u)` iff `dist(u, x) <= k` (a
//!   shortest path is a simple path rooted at `u`);
//! * an **edge** `{x, y}` belongs to `G_k(u)` iff
//!   `min(dist(u, x), dist(u, y)) + 1 <= k` — a shortest path to the
//!   nearer endpoint extended across the edge is a simple path of that
//!   length rooted at `u` (and no shorter simple path can reach the edge).
//!
//! This matches the paper's examples: on a cycle of length `2k` the whole
//! cycle is visible from any node, while on a cycle of length `2k + 1`
//! the "far" edge joining the two antipodal vertices is *not* visible,
//! splitting the view into two independent path components.
//!
//! A view's slots number its members in id order, so extraction puts
//! the radius-`k` ball in id order. When the member ids span at most
//! `DENSE_FACTOR` (4) times the member count, the density at which a
//! view keeps an id → slot table, it walks that span and reads each
//! id's mark in the ball, which gives the members already in order; a
//! sparser ball, the neighbourhood of a node in a large graph, is
//! sorted. The CSR runs arrive in the parent's neighbour order, and
//! only a run that did not arrive ascending is sorted.

use crate::dist::UNREACHED;
use crate::labels::NodeId;
use crate::subgraph::{Scratch, Subgraph, DENSE_FACTOR};
use crate::traversal::{Ball, Topology};

/// Extracts `G_k(u)` from `topo` as a [`Subgraph`].
///
/// Works on any [`Topology`], so it can also re-extract a neighbourhood
/// from an already-filtered view: the tests build `G'_k(u)` that way as
/// the reference for [`k_neighborhood_masked`].
///
/// The work is proportional to the view, not to `topo`: the ball of
/// radius `k` around `u` comes from the thread's reusable [`Ball`], and
/// the CSR is laid out directly in slots from it.
///
/// # Example
///
/// ```
/// use locality_graph::{generators, neighborhood, NodeId};
///
/// let g = generators::cycle(8); // length 2k with k = 4: fully visible
/// let view = neighborhood::k_neighborhood(&g, NodeId(0), 4);
/// assert_eq!(view.node_count(), 8);
/// assert_eq!(view.edge_count(), 8);
///
/// let g = generators::cycle(9); // length 2k + 1: far edge hidden
/// let view = neighborhood::k_neighborhood(&g, NodeId(0), 4);
/// assert_eq!(view.node_count(), 9);
/// assert_eq!(view.edge_count(), 8);
/// ```
pub fn k_neighborhood<T: Topology + ?Sized>(topo: &T, u: NodeId, k: u32) -> Subgraph {
    Ball::with(|ball| {
        ball.search(topo, u, k);
        from_ball(topo, ball, k)
    })
}

#[cfg(test)]
thread_local! {
    /// Extractions on this thread that walked their id span, and that
    /// sorted, so the tests can show that both orders ran.
    static ORDERS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Builds `G_k(u)` from a finished radius-`k` search around `u`. The
/// members and the CSR block are each allocated once, at their final
/// size; everything else lives in the thread's [`Scratch`].
fn from_ball<T: Topology + ?Sized>(topo: &T, ball: &Ball, k: u32) -> Subgraph {
    Scratch::with(|scratch| {
        let Scratch {
            by_id,
            at,
            ends,
            cursor,
            ..
        } = scratch;
        let reached = ball.members();
        // Slot order is id order. `at` maps a BFS position to the
        // member's slot and distance, for the edge pass below.
        by_id.clear();
        let lo = reached.iter().map(|&(x, _)| x.0).min().unwrap_or(0);
        let hi = reached.iter().map(|&(x, _)| x.0).max().unwrap_or(0);
        // Walk the span when it is at most `DENSE_FACTOR` times the
        // member count, the density at which a view keeps an id → slot
        // table.
        if ((hi - lo) as usize) < reached.len().saturating_mul(DENSE_FACTOR) {
            // The ball marks its members by id, so the ids from `lo` to
            // `hi` that it reached come out in order: no sort.
            by_id.extend(
                (lo..=hi).filter_map(|x| Some((NodeId(x), ball.position(NodeId(x))? as u32))),
            );
            #[cfg(test)]
            ORDERS.with(|n| n.set((n.get().0 + 1, n.get().1)));
        } else {
            by_id.extend(reached.iter().zip(0u32..).map(|(&(x, _), i)| (x, i)));
            by_id.sort_unstable();
            #[cfg(test)]
            ORDERS.with(|n| n.set((n.get().0, n.get().1 + 1)));
        }
        at.clear();
        at.resize(reached.len(), (0, 0));
        for (s, &(_, i)) in by_id.iter().enumerate() {
            let d = reached.get(i as usize).map_or(0, |&(_, d)| d);
            at[i as usize] = (s as u32, d);
        }
        // An edge is in the view iff its nearer endpoint is closer than
        // k. Only nodes closer than k (a prefix of the BFS order) scan
        // their neighbours; each emits its own edge ends, plus the
        // reverse end for a neighbour at depth k, which never scans.
        ends.clear();
        for (&(x, dx), &(sx, _)) in reached.iter().zip(at.iter()) {
            if dx >= k {
                break;
            }
            topo.for_each_neighbor(x, &mut |y| {
                if let Some(j) = ball.position(y) {
                    let (sy, dy) = at[j];
                    ends.push((sx, sy));
                    if dy == k {
                        ends.push((sy, sx));
                    }
                }
            });
        }
        let members = by_id.iter().map(|&(x, _)| x).collect();
        Subgraph::from_directed_ends(members, ends, cursor)
    })
}

/// `G_k(u)` of `view` with some of its edges removed, together with
/// the distances from `u` in the result's slot order — the
/// preprocessing step's `G'_k(u)`, where the removed edges are the
/// dormant ones.
///
/// `removed` flags directed edge ends by position (see
/// [`Subgraph::neighbor_range`]) and must flag both ends of each
/// removed edge. Membership follows the module's rule: a node within
/// `k` hops of `u` over the kept edges, and a kept edge whose nearer
/// endpoint is closer than `k`. One slot BFS over the view's own CSR
/// does the work, so time and every array are sized by the view, and
/// the result equals [`k_neighborhood`] run over the view filtered to
/// its kept edges. Empty if `u` is not a member.
pub fn k_neighborhood_masked(
    view: &Subgraph,
    u: NodeId,
    k: u32,
    removed: &[bool],
) -> (Subgraph, Vec<u32>) {
    let (mut depth, mut order) = (Vec::new(), Vec::new());
    view.bfs_slots(u, k, |p, _| !removed[p], &mut depth, &mut order);
    // Slot order is id order, so the reached slots taken in ascending
    // order are the members, already sorted; `renumber` maps a view
    // slot to its slot in the result.
    let mut renumber = vec![0u32; depth.len()];
    let mut members = Vec::with_capacity(order.len());
    let mut dists = Vec::with_capacity(order.len());
    for (s, &d) in depth.iter().enumerate() {
        if d != UNREACHED {
            renumber[s] = members.len() as u32;
            members.push(view.id_of(s));
            dists.push(d);
        }
    }
    // One member per reached slot: the Vec is full, so boxing it keeps
    // the allocation as it is.
    let members = members.into_boxed_slice();
    let sub = Scratch::with(|scratch| {
        let Scratch { ends, cursor, .. } = scratch;
        // As in `from_ball`: nodes closer than k emit their own kept
        // edge ends, plus the reverse end toward a depth-k neighbour.
        ends.clear();
        for (s, &d) in depth.iter().enumerate() {
            if d >= k {
                continue;
            }
            for (p, &t) in view.neighbor_range(s).zip(view.neighbor_slots(s)) {
                if removed[p] {
                    continue;
                }
                let t = t as usize;
                ends.push((renumber[s], renumber[t]));
                if depth[t] == k {
                    ends.push((renumber[t], renumber[s]));
                }
            }
        }
        Subgraph::from_directed_ends(members, ends, cursor)
    });
    (sub, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentAnalysis;
    use crate::rng::DetRng;
    use crate::traversal::FilteredTopology;
    use crate::{generators, permute, traversal, SubgraphBuilder};

    /// `G_k(u)` with the distances from `u` in its slot order: the
    /// extraction, then one search of the result.
    fn with_distances<T: Topology + ?Sized>(topo: &T, u: NodeId, k: u32) -> (Subgraph, Vec<u32>) {
        let sub = k_neighborhood(topo, u, k);
        let (mut dist, mut order) = (Vec::new(), Vec::new());
        sub.bfs_slots(u, k, |_, _| true, &mut dist, &mut order);
        (sub, dist)
    }

    #[test]
    fn path_neighborhood_is_truncated_path() {
        let g = generators::path(20);
        let view = k_neighborhood(&g, NodeId(10), 3);
        assert_eq!(view.node_count(), 7);
        assert_eq!(view.edge_count(), 6);
        assert!(view.contains_node(NodeId(7)));
        assert!(!view.contains_node(NodeId(6)));
    }

    #[test]
    fn odd_cycle_far_edge_hidden() {
        let g = generators::cycle(9);
        let view = k_neighborhood(&g, NodeId(0), 4);
        // vertices 4 and 5 are both at distance 4; the edge between them
        // is not on any simple path of length <= 4 rooted at 0.
        assert!(view.contains_node(NodeId(4)));
        assert!(view.contains_node(NodeId(5)));
        assert!(!view.has_edge(NodeId(4), NodeId(5)));
    }

    #[test]
    fn even_cycle_fully_visible() {
        let g = generators::cycle(8);
        let view = k_neighborhood(&g, NodeId(2), 4);
        assert_eq!(view.edge_count(), 8);
        assert!(view.has_edge(NodeId(6), NodeId(5)));
    }

    #[test]
    fn whole_graph_visible_when_k_at_least_eccentricity() {
        let g = generators::spider(3, 4); // 3 legs of length 4
        let view = k_neighborhood(&g, NodeId(0), 4);
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.edge_count(), g.edge_count());
    }

    #[test]
    fn k_zero_is_single_node() {
        let g = generators::path(5);
        let view = k_neighborhood(&g, NodeId(2), 0);
        assert_eq!(view.node_count(), 1);
        assert_eq!(view.edge_count(), 0);
    }

    #[test]
    fn distances_accompany_view() {
        // A view stores no distances: its component analysis holds
        // them, slot-aligned, from one search of the view.
        let g = generators::cycle(12);
        let view = k_neighborhood(&g, NodeId(0), 5);
        let dist = ComponentAnalysis::analyze(&view, NodeId(0), 5).dist;
        let at = |x: u32| dist[view.slot_of(NodeId(x)).expect("member")];
        assert_eq!(at(0), 0);
        assert_eq!(at(5), 5);
        assert_eq!(at(7), 5);
        assert_eq!(dist.len(), view.node_count());
    }

    #[test]
    fn distances_match_in_view_bfs() {
        // Every prefix of a shortest path of length at most k lies in
        // G_k(u) by the edge rule, so distances within the view equal
        // distances within the whole graph truncated at depth k.
        for (g, k) in [
            (generators::cycle(11), 4u32),
            (generators::lollipop(6, 4), 3),
            (generators::grid(4, 5), 3),
            (generators::complete(6), 2),
        ] {
            for u in g.nodes() {
                let (sub, dist) = with_distances(&g, u, k);
                let whole = traversal::bfs_distances(&g, u, Some(k));
                assert_eq!(
                    sub.nodes().zip(dist).collect::<Vec<_>>(),
                    whole.iter().collect::<Vec<_>>(),
                    "node {u} k={k}"
                );
            }
        }
    }

    #[test]
    fn edge_between_two_distance_k_branches_hidden() {
        // Two branches of length k from u, joined at the far end: the
        // joining edge must be invisible (it needs k + 1 hops).
        // u=0; branch A: 0-1-2-3; branch B: 0-4-5-6; edge {3,6}.
        let g =
            crate::Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (3, 6)])
                .unwrap();
        let view = k_neighborhood(&g, NodeId(0), 3);
        assert!(view.contains_node(NodeId(3)));
        assert!(view.contains_node(NodeId(6)));
        assert!(!view.has_edge(NodeId(3), NodeId(6)));
        // With k = 4 the joining edge becomes visible.
        let view = k_neighborhood(&g, NodeId(0), 4);
        assert!(view.has_edge(NodeId(3), NodeId(6)));
    }

    #[test]
    fn extraction_matches_the_definition_in_both_member_orders() {
        // Permuted ids scatter a small ball over the id range, which
        // is sorted; a ball holding most of the graph walks its range.
        // Each view must equal the definition built through the
        // builder: members within k, edges whose nearer end is closer
        // than k, distances from a whole-graph BFS.
        let mut rng = DetRng::seed_from_u64(0x1D5);
        ORDERS.with(|n| n.set((0, 0)));
        for _ in 0..10 {
            let n = rng.gen_range(6..50usize);
            let base = generators::random_connected(n, n / 3, &mut rng);
            let (g, _) = permute::random_permute_nodes(&base, &mut rng);
            for u in g.nodes() {
                let full = traversal::bfs_distances(&g, u, None);
                let ecc = full.iter().map(|(_, d)| d).max().unwrap_or(0);
                for k in 0..=ecc + 1 {
                    let mut b = SubgraphBuilder::new();
                    let mut dists = Vec::new();
                    for (x, d) in full.iter().filter(|&(_, d)| d <= k) {
                        b.insert_node(x);
                        dists.push(d);
                    }
                    for x in g.nodes() {
                        for &y in g.neighbors(x) {
                            // The edge rule: min(d) + 1 <= k.
                            if x < y && full[x].min(full[y]) < k {
                                b.insert_edge(x, y);
                            }
                        }
                    }
                    let want = b.build();
                    let (sub, got) = with_distances(&g, u, k);
                    assert_eq!(sub, want, "u={u} k={k}");
                    assert_eq!(got, dists, "u={u} k={k}");
                }
            }
        }
        let (walked, sorted) = ORDERS.with(|n| n.get());
        assert!(walked > 0 && sorted > 0, "walked {walked}, sorted {sorted}");
    }

    #[test]
    fn masked_neighborhood_matches_filtered_extraction() {
        // Removing edges by position must give exactly what extraction
        // over the view filtered to its kept edges gives.
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = generators::random_connected(30, 15, &mut rng);
            let view = k_neighborhood(&g, NodeId(0), 4);
            let gone: Vec<(NodeId, NodeId)> = view.edges().filter(|_| rng.gen_bool(0.25)).collect();
            let is_gone = |a: NodeId, b: NodeId| gone.contains(&(a.min(b), a.max(b)));
            let mut removed = vec![false; 2 * view.edge_count()];
            for s in 0..view.node_count() {
                for (p, &t) in view.neighbor_range(s).zip(view.neighbor_slots(s)) {
                    removed[p] = is_gone(view.id_of(s), view.id_of(t as usize));
                }
            }
            let kept = FilteredTopology::new(&view, |a, b| !is_gone(a, b));
            for k in 0..=4 {
                let got = k_neighborhood_masked(&view, NodeId(0), k, &removed);
                assert_eq!(got, with_distances(&kept, NodeId(0), k));
            }
        }
    }
}
