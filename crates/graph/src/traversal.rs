//! Breadth-first traversal, shortest paths, and global distance metrics.
//!
//! Everything here is generic over [`Topology`] so the same routines run
//! on a full [`Graph`](crate::Graph), on a k-neighbourhood
//! [`Subgraph`](crate::Subgraph), and on filtered views (e.g. "edges of
//! rank greater than r" during preprocessing) via [`FilteredTopology`].
//!
//! Whole-topology distances come back as a dense [`DistMap`] rather
//! than a tree map: node ids are small integers, so a flat `Vec<u32>`
//! with a sentinel is both faster and allocation-free per visit. Searches
//! that must cost in proportion to what they explore — view extraction,
//! churn checks — use a [`Ball`] instead, whose per-id buffer is reused
//! across calls rather than allocated and zero-filled per search.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::dist::DistMap;
use crate::labels::NodeId;

/// Minimal adjacency interface shared by graphs and subgraphs.
///
/// This trait is sealed in spirit — it exists so traversal code can be
/// written once — but is left open so callers can wrap topologies with
/// filters (see [`FilteredTopology`]).
pub trait Topology {
    /// Number of nodes in the topology.
    fn node_count(&self) -> usize;
    /// Exclusive upper bound on the [`NodeId`] values of the topology's
    /// nodes — the size dense per-node arrays must be allocated at.
    fn id_bound(&self) -> usize;
    /// Whether `u` is a node of the topology.
    fn contains_node(&self, u: NodeId) -> bool;
    /// Calls `f` once per node.
    fn for_each_node(&self, f: &mut dyn FnMut(NodeId));
    /// Calls `f` once per neighbour of `u`.
    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId));
}

/// A topology with some edges masked out by a predicate.
///
/// The generic way to search a graph minus some edges or a vertex. The
/// per-view algorithms work on slots instead
/// ([`Subgraph::bfs_slots`](crate::Subgraph::bfs_slots)); the tests
/// keep their id-keyed definitions on this type as references (BFS over
/// "edges of rank greater than `r`", BFS with a vertex removed).
pub struct FilteredTopology<'a, T: ?Sized, F> {
    inner: &'a T,
    edge_keep: F,
}

impl<'a, T: Topology + ?Sized, F: Fn(NodeId, NodeId) -> bool> FilteredTopology<'a, T, F> {
    /// Wraps `inner`, keeping only edges `{u, v}` for which
    /// `edge_keep(u, v)` holds. The predicate must be symmetric.
    pub fn new(inner: &'a T, edge_keep: F) -> Self {
        FilteredTopology { inner, edge_keep }
    }
}

impl<T: Topology + ?Sized, F: Fn(NodeId, NodeId) -> bool> Topology for FilteredTopology<'_, T, F> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn id_bound(&self) -> usize {
        self.inner.id_bound()
    }

    fn contains_node(&self, u: NodeId) -> bool {
        self.inner.contains_node(u)
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_node(f);
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_neighbor(u, &mut |v| {
            if (self.edge_keep)(u, v) {
                f(v);
            }
        });
    }
}

/// A radius-bounded breadth-first search — the ball of nodes within
/// `radius` hops of a centre — run over a reusable per-id buffer.
///
/// The buffer holds, per node id, the generation of the search that
/// last reached the node and the node's position in that search's BFS
/// order. A search starts by bumping the generation, which forgets the
/// previous search without touching the buffer, so one search costs
/// time in proportion to the ball it explores, not to the graph. The
/// buffer only ever grows, to the largest id bound it has been asked
/// to cover. [`Ball::with`] lends each thread one long-lived instance,
/// so view extraction and churn checks share a single buffer per
/// thread instead of allocating a graph-sized array per call.
///
/// ```
/// use locality_graph::traversal::Ball;
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::path(10);
/// Ball::with(|ball| {
///     ball.search(&g, NodeId(4), 2);
///     assert_eq!(ball.len(), 5);
///     let i = ball.position(NodeId(2)).expect("within 2 hops");
///     assert_eq!(ball.members()[i], (NodeId(2), 2));
///     assert_eq!(ball.position(NodeId(7)), None);
///     assert!(ball.reaches(&g, NodeId(0), NodeId(9)));
/// });
/// ```
#[derive(Debug, Default)]
pub struct Ball {
    /// Per id: the generation that last reached it and its position in
    /// `order`. Generation 0 is never current, so fresh entries read as
    /// unreached.
    marks: Vec<(u32, u32)>,
    generation: u32,
    /// Reached nodes with their distance from the centre, in BFS order
    /// (distances nondecreasing). Doubles as the search queue.
    order: Vec<(NodeId, u32)>,
}

thread_local! {
    static BALL: RefCell<Ball> = RefCell::new(Ball::default());
}

impl Ball {
    /// Runs `f` on the calling thread's reusable ball. A nested call —
    /// `f` asking for the ball again — gets a fresh one rather than
    /// panicking.
    pub fn with<R>(f: impl FnOnce(&mut Ball) -> R) -> R {
        BALL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut ball) => f(&mut ball),
            Err(_) => f(&mut Ball::default()),
        })
    }

    /// Explores every node within `radius` hops of `center`, replacing
    /// the previous search. Explores nothing if `center` is not a node
    /// of `topo`.
    pub fn search<T: Topology + ?Sized>(&mut self, topo: &T, center: NodeId, radius: u32) {
        self.explore(topo, center, radius, None);
    }

    /// Whether `to` is reachable from `from`. Explores outward from
    /// `from` and stops as soon as `to` is reached, so the cost is the
    /// ball out to `dist(from, to)`, not the component.
    pub fn reaches<T: Topology + ?Sized>(&mut self, topo: &T, from: NodeId, to: NodeId) -> bool {
        self.explore(topo, from, u32::MAX, Some(to))
    }

    fn explore<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        center: NodeId,
        radius: u32,
        target: Option<NodeId>,
    ) -> bool {
        let bound = topo.id_bound();
        if self.marks.len() < bound {
            self.marks.resize(bound, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stale marks could alias the new generation.
            self.marks.fill((0, 0));
            self.generation = 1;
        }
        self.order.clear();
        if !topo.contains_node(center) {
            return false;
        }
        self.visit(center, 0);
        if target == Some(center) {
            return true;
        }
        let mut head = 0;
        while let Some(&(x, dx)) = self.order.get(head) {
            head += 1;
            if dx >= radius {
                // BFS order: everything after is at least as far.
                break;
            }
            let mut found = false;
            topo.for_each_neighbor(x, &mut |y| {
                if self.position(y).is_none() {
                    self.visit(y, dx + 1);
                    found |= target == Some(y);
                }
            });
            if found {
                return true;
            }
        }
        false
    }

    #[inline]
    fn visit(&mut self, x: NodeId, d: u32) {
        self.marks[x.index()] = (self.generation, self.order.len() as u32);
        self.order.push((x, d));
    }

    /// The reached nodes with their distances, in BFS order.
    #[inline]
    pub fn members(&self) -> &[(NodeId, u32)] {
        &self.order
    }

    /// Number of reached nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the last search reached nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The position of `x` in [`members`](Self::members), or `None` if
    /// the last search did not reach it.
    #[inline]
    pub fn position(&self, x: NodeId) -> Option<usize> {
        match self.marks.get(x.index()) {
            Some(&(g, pos)) if g == self.generation => Some(pos as usize),
            _ => None,
        }
    }
}

/// BFS distances from `source`; nodes unreachable from `source` are
/// absent from the map. `max_depth`, if given, truncates the search.
pub fn bfs_distances<T: Topology + ?Sized>(
    topo: &T,
    source: NodeId,
    max_depth: Option<u32>,
) -> DistMap {
    let mut dist = DistMap::new(topo.id_bound());
    if !topo.contains_node(source) {
        return dist;
    }
    dist.insert(source, 0);
    let mut queue = VecDeque::new();
    queue.push_back((source, 0));
    while let Some((u, du)) = queue.pop_front() {
        if let Some(md) = max_depth {
            if du >= md {
                continue;
            }
        }
        topo.for_each_neighbor(u, &mut |v| {
            if !dist.contains(v) {
                dist.insert(v, du + 1);
                queue.push_back((v, du + 1));
            }
        });
    }
    dist
}

/// Distance between `u` and `v`, or `None` if disconnected (or if
/// either is not a node). Searches outward from `u` on the thread's
/// [`Ball`] and stops at `v`, so a call costs the ball out to
/// `dist(u, v)` and allocates nothing once the ball covers the graph.
pub fn distance<T: Topology + ?Sized>(topo: &T, u: NodeId, v: NodeId) -> Option<u32> {
    Ball::with(|ball| {
        if !ball.reaches(topo, u, v) {
            return None;
        }
        let i = ball.position(v)?;
        ball.members().get(i).map(|&(_, d)| d)
    })
}

/// One shortest path from `u` to `v` (inclusive of both), deterministic:
/// ties are broken toward the smallest predecessor `NodeId`.
pub fn shortest_path<T: Topology + ?Sized>(topo: &T, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    if !topo.contains_node(u) || !topo.contains_node(v) {
        return None;
    }
    // BFS from v so we can walk forward from u following decreasing
    // distance-to-v, picking the smallest-id neighbour at each step.
    let dist_to_v = bfs_distances(topo, v, None);
    let mut cur = u;
    let mut d = dist_to_v.get(u)?;
    let mut path = vec![u];
    while d > 0 {
        let mut next: Option<NodeId> = None;
        topo.for_each_neighbor(cur, &mut |w| {
            if dist_to_v.get(w) == Some(d - 1) && next.is_none_or(|n| w < n) {
                next = Some(w);
            }
        });
        cur = next.expect("BFS tree guarantees a predecessor");
        path.push(cur);
        d -= 1;
    }
    Some(path)
}

/// All neighbours of `u` that lie on some shortest path from `u` to `v`
/// (i.e. neighbours `w` with `dist(w, v) == dist(u, v) - 1`), sorted by id.
pub fn shortest_path_steps<T: Topology + ?Sized>(topo: &T, u: NodeId, v: NodeId) -> Vec<NodeId> {
    if u == v {
        return Vec::new();
    }
    let dist_to_v = bfs_distances(topo, v, None);
    let Some(du) = dist_to_v.get(u) else {
        return Vec::new();
    };
    let mut steps = Vec::new();
    topo.for_each_neighbor(u, &mut |w| {
        if dist_to_v.get(w) == Some(du - 1) {
            steps.push(w);
        }
    });
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// Whether the topology is connected (vacuously true when empty).
pub fn is_connected<T: Topology + ?Sized>(topo: &T) -> bool {
    let mut first = None;
    topo.for_each_node(&mut |u| {
        if first.is_none() {
            first = Some(u);
        }
    });
    match first {
        None => true,
        Some(u) => bfs_distances(topo, u, None).len() == topo.node_count(),
    }
}

/// Eccentricity of `u`: the maximum distance from `u` to any node, or
/// `None` if the topology is disconnected from `u`'s point of view.
pub fn eccentricity<T: Topology + ?Sized>(topo: &T, u: NodeId) -> Option<u32> {
    let dist = bfs_distances(topo, u, None);
    if dist.len() != topo.node_count() {
        return None;
    }
    dist.max_distance()
}

/// Diameter of a connected topology, or `None` if disconnected/empty.
pub fn diameter<T: Topology + ?Sized>(topo: &T) -> Option<u32> {
    let mut nodes = Vec::new();
    topo.for_each_node(&mut |u| nodes.push(u));
    if nodes.is_empty() {
        return None;
    }
    let mut best = 0;
    for u in nodes {
        best = best.max(eccentricity(topo, u)?);
    }
    Some(best)
}

/// Connected components as sorted node lists, sorted by smallest member.
pub fn connected_components<T: Topology + ?Sized>(topo: &T) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; topo.id_bound()];
    let mut nodes = Vec::new();
    topo.for_each_node(&mut |u| nodes.push(u));
    nodes.sort_unstable();
    let mut comps = Vec::new();
    for u in nodes {
        if seen[u.index()] {
            continue;
        }
        let comp: Vec<NodeId> = bfs_distances(topo, u, None).keys().collect();
        for &x in &comp {
            seen[x.index()] = true;
        }
        comps.push(comp);
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId(0), None);
        for i in 0..5u32 {
            assert_eq!(d[NodeId(i)], i);
        }
    }

    #[test]
    fn bfs_respects_max_depth() {
        let g = generators::path(10);
        let d = bfs_distances(&g, NodeId(0), Some(3));
        assert_eq!(d.len(), 4);
        assert_eq!(d.get(NodeId(4)), None);
    }

    #[test]
    fn distance_symmetric_on_cycle() {
        let g = generators::cycle(8);
        assert_eq!(distance(&g, NodeId(0), NodeId(4)), Some(4));
        assert_eq!(distance(&g, NodeId(4), NodeId(0)), Some(4));
        assert_eq!(distance(&g, NodeId(0), NodeId(5)), Some(3));
    }

    #[test]
    fn distance_disconnected_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(distance(&g, NodeId(0), NodeId(3)), None);
        assert!(!is_connected(&g));
        assert_eq!(connected_components(&g).len(), 2);
    }

    #[test]
    fn distance_matches_bfs_distances() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(23);
        let mut graphs: Vec<Graph> = [2usize, 9, 30]
            .iter()
            .map(|&n| generators::random_connected(n, n / 3, &mut rng))
            .collect();
        // Two components: two random connected graphs side by side.
        for (a, b) in [(5usize, 7usize), (12, 3)] {
            let left = generators::random_connected(a, 2, &mut rng);
            let right = generators::random_connected(b, 1, &mut rng);
            let shift = a as u32;
            let edges: Vec<(u32, u32)> = left
                .edges()
                .map(|(x, y)| (x.0, y.0))
                .chain(right.edges().map(|(x, y)| (x.0 + shift, y.0 + shift)))
                .collect();
            graphs.push(Graph::from_edges(a + b, &edges).unwrap());
        }
        for g in &graphs {
            let n = g.node_count() as u32;
            // Every pair, `u == v` included, and ids past the graph.
            let ids: Vec<NodeId> = (0..n + 2).chain([u32::MAX - 1]).map(NodeId).collect();
            for &u in &ids {
                let reference = bfs_distances(g, u, None);
                for &v in &ids {
                    assert_eq!(distance(g, u, v), reference.get(v), "n = {n}, {u} to {v}");
                }
            }
        }
        assert!(!is_connected(&graphs[3]) && !is_connected(&graphs[4]));
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = generators::cycle(9);
        let p = shortest_path(&g, NodeId(1), NodeId(5)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(1)));
        assert_eq!(p.last(), Some(&NodeId(5)));
        assert_eq!(
            p.len() as u32 - 1,
            distance(&g, NodeId(1), NodeId(5)).unwrap()
        );
        // consecutive entries are edges
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_to_self_is_single_node() {
        let g = generators::path(3);
        assert_eq!(
            shortest_path(&g, NodeId(2), NodeId(2)),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn shortest_path_steps_on_even_cycle() {
        // On an even cycle the antipode is reached via both neighbours.
        let g = generators::cycle(6);
        let steps = shortest_path_steps(&g, NodeId(0), NodeId(3));
        assert_eq!(steps, vec![NodeId(1), NodeId(5)]);
    }

    #[test]
    fn diameter_and_eccentricity() {
        let g = generators::path(7);
        assert_eq!(diameter(&g), Some(6));
        assert_eq!(eccentricity(&g, NodeId(3)), Some(3));
        let g = generators::cycle(10);
        assert_eq!(diameter(&g), Some(5));
    }

    #[test]
    fn filtered_topology_masks_edges() {
        let g = generators::cycle(6);
        // Remove the edge {0, 5}: the cycle becomes a path.
        let f = FilteredTopology::new(&g, |a: NodeId, b: NodeId| {
            !(a.index() + b.index() == 5 && a.index().min(b.index()) == 0)
        });
        assert_eq!(distance(&f, NodeId(0), NodeId(5)), Some(5));
    }

    #[test]
    fn ball_matches_truncated_bfs() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(5);
        let mut ball = Ball::default();
        for round in 0..30 {
            // Alternate graph sizes so the reused buffer is larger than
            // the graph about half the time.
            let n = if round % 2 == 0 { 40 } else { 7 };
            let g = generators::random_mixed(n, &mut rng);
            for u in g.nodes() {
                for k in [0, 1, 2, 5] {
                    ball.search(&g, u, k);
                    let want: Vec<(NodeId, u32)> = bfs_distances(&g, u, Some(k)).iter().collect();
                    let mut got = ball.members().to_vec();
                    assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "BFS order");
                    got.sort_unstable();
                    assert_eq!(got, want, "u={u} k={k} on {g:?}");
                    for (i, &(x, _)) in ball.members().iter().enumerate() {
                        assert_eq!(ball.position(x), Some(i));
                    }
                    let outside = g.nodes().filter(|&x| ball.position(x).is_none()).count();
                    assert_eq!(outside + ball.len(), g.node_count());
                }
            }
        }
    }

    #[test]
    fn ball_reaches_stops_at_the_target() {
        let g = generators::path(50);
        let mut ball = Ball::default();
        assert!(ball.reaches(&g, NodeId(10), NodeId(12)));
        // The search stopped within a hop of the target's distance.
        assert!(ball.len() <= 5, "explored {} nodes", ball.len());
        assert!(ball.reaches(&g, NodeId(3), NodeId(3)));
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!ball.reaches(&split, NodeId(0), NodeId(3)));
        assert!(!ball.reaches(&split, NodeId(0), NodeId(9)));
        assert!(!ball.reaches(&split, NodeId(9), NodeId(0)));
        assert!(ball.is_empty(), "an absent centre explores nothing");
    }

    #[test]
    fn ball_survives_generation_wraparound() {
        let g = generators::cycle(10);
        let mut ball = Ball::default();
        ball.search(&g, NodeId(0), 2);
        ball.generation = u32::MAX;
        // The wrapped search must not mistake stale marks for fresh.
        ball.search(&g, NodeId(5), 1);
        let mut got: Vec<NodeId> = ball.members().iter().map(|&(x, _)| x).collect();
        got.sort_unstable();
        assert_eq!(got, vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(ball.position(NodeId(0)), None);
    }

    #[test]
    fn nested_ball_loans_do_not_panic() {
        let g = generators::path(6);
        let outer = Ball::with(|a| {
            a.search(&g, NodeId(0), 1);
            let inner = Ball::with(|b| {
                b.search(&g, NodeId(5), 2);
                b.len()
            });
            (a.len(), inner)
        });
        assert_eq!(outer, (2, 3));
    }

    #[test]
    fn empty_topology_edge_cases() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert!(bfs_distances(&g, NodeId(0), None).is_empty());
    }
}
