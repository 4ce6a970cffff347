//! Cycle structure: girth, acyclicity, and local-cycle queries (§2.1).
//!
//! A *local cycle* at node `u` is a cycle through `u` of length at most
//! `2k`; such a cycle is always entirely visible in `G_k(u)`. The
//! preprocessing step of Algorithms 1, 1B and 2 breaks every local cycle,
//! which is why Lemma 5 can conclude that the surviving ("consistent")
//! edges form a graph of girth at least `2k + 1`.

use crate::dist::DistMap;
use crate::labels::NodeId;
use crate::traversal::Topology;

const NO_PARENT: u32 = u32::MAX;

/// Length of the shortest cycle, or `None` for an acyclic topology.
///
/// Runs a BFS from every vertex; when a non-tree edge closes a cycle the
/// candidate length is `dist(x) + dist(y) + 1`. This is the textbook
/// exact girth algorithm for unweighted graphs.
pub fn girth<T: Topology + ?Sized>(topo: &T) -> Option<u32> {
    let bound = topo.id_bound();
    let mut nodes = Vec::new();
    topo.for_each_node(&mut |u| nodes.push(u));
    let mut best: Option<u32> = None;
    for &s in &nodes {
        // BFS with parents; detect cross/back edges.
        let mut dist = DistMap::new(bound);
        let mut parent = vec![NO_PARENT; bound];
        dist.insert(s, 0);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            // Every queued node was given its distance before the push.
            let Some(dx) = dist.get(x) else {
                continue;
            };
            if let Some(b) = best {
                // No shorter cycle through s can be found deeper than b/2.
                if dx * 2 >= b {
                    continue;
                }
            }
            let mut nbrs = Vec::new();
            topo.for_each_neighbor(x, &mut |y| nbrs.push(y));
            for y in nbrs {
                if parent[x.index()] == y.0 {
                    continue;
                }
                match dist.get(y) {
                    None => {
                        dist.insert(y, dx + 1);
                        parent[y.index()] = x.0;
                        queue.push_back(y);
                    }
                    Some(dy) => {
                        let len = dx + dy + 1;
                        if best.is_none_or(|b| len < b) {
                            best = Some(len);
                        }
                    }
                }
            }
        }
    }
    best
}

/// Whether the topology contains no cycle.
pub fn is_acyclic<T: Topology + ?Sized>(topo: &T) -> bool {
    girth(topo).is_none()
}

/// Whether the topology is a tree (connected and acyclic).
pub fn is_tree<T: Topology + ?Sized>(topo: &T) -> bool {
    crate::traversal::is_connected(topo) && is_acyclic(topo)
}

/// The cycle rank (circuit rank) `m - n + c`: the number of independent
/// cycles. Zero iff the topology is a forest.
pub fn cycle_rank<T: Topology + ?Sized>(topo: &T) -> usize {
    let mut n = 0usize;
    let mut deg_sum = 0usize;
    let mut nodes = Vec::new();
    topo.for_each_node(&mut |u| {
        n += 1;
        nodes.push(u);
    });
    for &u in &nodes {
        topo.for_each_neighbor(u, &mut |_| deg_sum += 1);
    }
    let m = deg_sum / 2;
    let c = crate::traversal::connected_components(topo).len();
    m + c - n
}

/// Length of the shortest cycle passing through node `u`, or `None`.
///
/// BFS from `u` tracking which root branch discovered each vertex: a
/// non-tree edge joining two *different* branches (or an edge straight
/// back to another neighbour of `u`) closes a cycle through `u`.
pub fn shortest_cycle_through<T: Topology + ?Sized>(topo: &T, u: NodeId) -> Option<u32> {
    if !topo.contains_node(u) {
        return None;
    }
    let bound = topo.id_bound();
    let mut dist = DistMap::new(bound);
    let mut branch = vec![NO_PARENT; bound];
    let mut parent = vec![NO_PARENT; bound];
    dist.insert(u, 0);
    let mut queue = std::collections::VecDeque::new();
    let mut roots = Vec::new();
    topo.for_each_neighbor(u, &mut |v| roots.push(v));
    let mut best: Option<u32> = None;
    for v in roots {
        if dist.contains(v) {
            // Parallel edges cannot occur in a simple graph; `v` seen
            // twice would mean a multi-edge. Ignore defensively.
            continue;
        }
        dist.insert(v, 1);
        branch[v.index()] = v.0;
        parent[v.index()] = u.0;
        queue.push_back(v);
    }
    while let Some(x) = queue.pop_front() {
        // Every queued node was given its distance before the push.
        let Some(dx) = dist.get(x) else {
            continue;
        };
        if let Some(b) = best {
            if dx * 2 >= b {
                continue;
            }
        }
        let bx = branch[x.index()];
        let mut nbrs = Vec::new();
        topo.for_each_neighbor(x, &mut |y| nbrs.push(y));
        for y in nbrs {
            if y == u || parent[x.index()] == y.0 {
                continue;
            }
            match dist.get(y) {
                None => {
                    dist.insert(y, dx + 1);
                    branch[y.index()] = bx;
                    parent[y.index()] = x.0;
                    queue.push_back(y);
                }
                Some(dy) => {
                    if branch[y.index()] != bx {
                        let len = dx + dy + 1;
                        if best.is_none_or(|b| len < b) {
                            best = Some(len);
                        }
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    #[test]
    fn girth_of_cycles_and_trees() {
        assert_eq!(girth(&generators::cycle(3)), Some(3));
        assert_eq!(girth(&generators::cycle(17)), Some(17));
        assert_eq!(girth(&generators::path(10)), None);
        assert!(is_tree(&generators::spider(3, 5)));
    }

    #[test]
    fn girth_of_theta_graph() {
        // Two vertices joined by paths of lengths 2, 3, 4: girth 5.
        let g = generators::theta(&[2, 3, 4]);
        assert_eq!(girth(&g), Some(5));
        assert_eq!(cycle_rank(&g), 2);
    }

    #[test]
    fn girth_of_complete_graph_is_three() {
        let g = generators::complete(5);
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn cycle_rank_counts_independent_cycles() {
        assert_eq!(cycle_rank(&generators::path(6)), 0);
        assert_eq!(cycle_rank(&generators::cycle(6)), 1);
        assert_eq!(cycle_rank(&generators::complete(4)), 3);
    }

    #[test]
    fn shortest_cycle_through_node() {
        // Lollipop: triangle {0,1,2} with a tail 2-3-4-5.
        let g = generators::lollipop(3, 3);
        assert_eq!(shortest_cycle_through(&g, NodeId(0)), Some(3));
        assert_eq!(shortest_cycle_through(&g, NodeId(5)), None);
    }

    #[test]
    fn shortest_cycle_through_picks_smallest() {
        // Theta graph: cycles 2+3=5, 2+4=6, 3+4=7 all pass through the
        // two hubs (nodes 0 and 1 in the generator's layout).
        let g = generators::theta(&[2, 3, 4]);
        assert_eq!(shortest_cycle_through(&g, NodeId(0)), Some(5));
    }

    #[test]
    fn shortest_cycle_through_interior_of_long_arm() {
        let g = generators::theta(&[2, 3, 4]);
        // A vertex in the middle of the length-4 arm lies only on cycles
        // 2+4 = 6 and 3+4 = 7.
        let arm4_mid = NodeId((g.node_count() - 2) as u32); // last interior node
        let len = shortest_cycle_through(&g, arm4_mid).unwrap();
        assert_eq!(len, 6);
    }

    #[test]
    fn girth_empty_and_single() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(girth(&g), None);
        assert!(is_acyclic(&g));
    }
}
