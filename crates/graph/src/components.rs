//! Local components of a k-neighbourhood and their taxonomy (§2.1, Fig. 1).
//!
//! Let `C` be a connected component of `G_k(u) \ {u}` (a *local
//! component* of `u`). The paper classifies `C` as:
//!
//! * **rooted at `v`** for each neighbour `v` of `u` inside `C` (a
//!   component can have several roots);
//! * **active** if `C` contains a vertex `z` with `dist(u, z) = k` — the
//!   component extends to the limit of `u`'s knowledge, so the network
//!   may continue beyond it; **passive** otherwise (a passive component
//!   is fully known);
//! * **constrained active** if every *active path* (shortest path from
//!   `u` to a depth-`k` vertex of `C`) passes through some single vertex
//!   `w != u`, the *constraint vertex*;
//! * **independent** if `C` has a unique root.
//!
//! Every independent active component is constrained (its root is a
//! constraint vertex). These notions drive all four routing algorithms.
//!
//! ### Constraint vertices from the shortest-path DAG
//!
//! Call a vertex of `C` *on an active path* if some shortest path from
//! `u` to a depth-`k` vertex of `C` passes through it. Then `w` is a
//! constraint vertex iff it is on an active path and no other vertex of
//! `C` at `w`'s depth is:
//!
//! * every shortest path to a depth-`k` vertex has exactly one vertex at
//!   each depth `0..=k`, so if `w` is the only on-path vertex at its
//!   depth, every active path meets that depth at `w`;
//! * conversely, if `w` lies on every active path, another on-path
//!   vertex `x` at the same depth would put a second vertex at that
//!   depth on the active path through `x`.
//!
//! The on-path vertices are what a walk backwards from the depth-`k`
//! vertices along the BFS DAG (edges from depth `d - 1` to depth `d`)
//! reaches, so every component's constraint vertices take one backward
//! walk and one flood of `G_k(u) \ {u}`: O(view), with every array sized
//! by the member count.
//!
//! ### Distances handed in, one flood, lists in slot order
//!
//! The analysis needs the distances from `u`, not a search of its own:
//! [`ComponentAnalysis::from_distances`] takes them slot-aligned, as the
//! search that built or checked the view left them, and
//! [`ComponentAnalysis::analyze`] is one BFS in front of it. The routing
//! view hands in `dist'` from preprocessing, so `G'_k(u)` is never
//! searched a second time.
//!
//! One flood labels every slot with its component, numbering the
//! components by their smallest slot. Right after a component's flood
//! its on-path members are counted per depth, its constraint vertices
//! marked and the counts reset, so each component sees only its own.
//! One pass over the slots in ascending order then appends each member
//! to its component's lists, which therefore come out in id order (slot
//! order is id order) with no sort, each filled into a block counted to
//! its final size.

use crate::dist::UNREACHED;
use crate::labels::NodeId;
use crate::subgraph::Subgraph;

/// A slot off every active path, in [`ComponentAnalysis::from_distances`].
const OFF_PATH: u8 = 0;
/// A slot on some active path that is not a constraint vertex.
const ON_PATH: u8 = 1;
/// A constraint vertex: the only on-path slot of its component at its
/// depth.
const CONSTRAINT: u8 = 2;

/// Component label of a slot no flood has reached.
const UNSEEN: u32 = u32::MAX;
/// Component label of the centre, which belongs to no component.
const CENTRE: u32 = u32::MAX - 1;

/// One local component of a node's k-neighbourhood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalComponent {
    /// Nodes of the component, sorted by id (never includes the centre).
    pub nodes: Vec<NodeId>,
    /// Neighbours of the centre that lie in this component, sorted by id.
    pub roots: Vec<NodeId>,
    /// Vertices of the component at distance exactly `k` from the centre
    /// (within the view). Non-empty iff the component is active.
    pub depth_k_nodes: Vec<NodeId>,
    /// Constraint vertices: vertices `w` such that every shortest path
    /// from the centre to a depth-`k` vertex passes through `w`.
    /// Computed only for active components; empty for passive ones.
    pub constraint_vertices: Vec<NodeId>,
}

impl LocalComponent {
    /// Whether the component reaches the knowledge horizon (distance `k`).
    #[inline]
    pub fn is_active(&self) -> bool {
        !self.depth_k_nodes.is_empty()
    }

    /// Whether the component hangs off the centre by a single edge.
    #[inline]
    pub fn is_independent(&self) -> bool {
        self.roots.len() == 1
    }

    /// Whether the component is a *constrained* active component.
    #[inline]
    pub fn is_constrained(&self) -> bool {
        self.is_active() && !self.constraint_vertices.is_empty()
    }

    /// Whether `x` belongs to the component.
    pub fn contains(&self, x: NodeId) -> bool {
        self.nodes.binary_search(&x).is_ok()
    }
}

/// The full local-component decomposition of a view around its centre.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentAnalysis {
    /// The centre node `u`.
    pub center: NodeId,
    /// The locality parameter the view was built with.
    pub k: u32,
    /// All local components, sorted by their smallest node id.
    pub components: Vec<LocalComponent>,
    /// Distances from the centre within the view, slot-aligned with it:
    /// `dist[view.slot_of(x)]` is the distance to `x`, or [`UNREACHED`]
    /// for a member the centre cannot reach.
    pub dist: Vec<u32>,
}

impl ComponentAnalysis {
    /// Decomposes `view` (assumed to be a k-neighbourhood of `center`,
    /// raw `G_k(u)` or preprocessed `G'_k(u)`) into local components:
    /// one BFS from the centre, whose distances
    /// [`from_distances`](Self::from_distances) reads.
    ///
    /// # Panics
    ///
    /// Panics if `center` is not a node of `view`.
    pub fn analyze(view: &Subgraph, center: NodeId, k: u32) -> ComponentAnalysis {
        let (mut dist, mut order) = (Vec::new(), Vec::with_capacity(view.node_count()));
        view.bfs_slots(center, u32::MAX, |_, _| true, &mut dist, &mut order);
        ComponentAnalysis::from_distances(view, center, k, dist)
    }

    /// Decomposes `view` into local components, given the distances
    /// from `center` that a search of `view` already found:
    /// `dist[view.slot_of(x)]` is the distance to `x` within `view`, or
    /// [`UNREACHED`] for a member the centre cannot reach, as
    /// [`Subgraph::bfs_slots`] leaves them. A search cut off at depth
    /// `k` serves when it reached every member. The analysis keeps
    /// `dist` as its [`dist`](Self::dist).
    ///
    /// # Panics
    ///
    /// Panics if `center` is not a node of `view`, or if `dist` does not
    /// hold one distance per member.
    pub fn from_distances(
        view: &Subgraph,
        center: NodeId,
        k: u32,
        dist: Vec<u32>,
    ) -> ComponentAnalysis {
        assert!(
            view.contains_node(center),
            "centre {center} missing from view"
        );
        let n = view.node_count();
        assert_eq!(dist.len(), n, "one distance per member of the view");
        let c = view.slot_of(center).unwrap_or_default();

        // On-path vertices (see the module docs): everything a walk back
        // along the BFS DAG from the depth-k vertices reaches, the
        // centre aside. The walk's stack is the flood's queue below.
        let mut on_path = vec![OFF_PATH; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for x in 0..n {
            if x != c && dist[x] == k {
                on_path[x] = ON_PATH;
                queue.push(x as u32);
            }
        }
        while let Some(x) = queue.pop() {
            let x = x as usize;
            for &y in view.neighbor_slots(x) {
                let y = y as usize;
                if y != c && on_path[y] == OFF_PATH && dist[y].saturating_add(1) == dist[x] {
                    on_path[y] = ON_PATH;
                    queue.push(y as u32);
                }
            }
        }

        // One flood labels every slot with its component. Scanning slots
        // in ascending order meets each component first at its smallest
        // member, so components come out sorted by their smallest id.
        // Stray members the centre cannot reach (impossible in a genuine
        // k-neighbourhood) are skipped. The centre holds a label that
        // names no component, so no flood enters it.
        let mut label = vec![UNSEEN; n];
        if let Some(l) = label.get_mut(c) {
            *l = CENTRE;
        }
        let mut per_depth = vec![0u32; n];
        // Each component holds a neighbour of the centre.
        let mut components = Vec::with_capacity(view.neighbor_slots(c).len());
        for first in 0..n {
            if label.get(first) != Some(&UNSEEN) || dist[first] == UNREACHED {
                continue;
            }
            let id = components.len() as u32;
            queue.clear();
            queue.push(first as u32);
            if let Some(l) = label.get_mut(first) {
                *l = id;
            }
            let mut head = 0;
            while let Some(&x) = queue.get(head) {
                head += 1;
                for &y in view.neighbor_slots(x as usize) {
                    if let Some(l) = label.get_mut(y as usize).filter(|l| **l == UNSEEN) {
                        *l = id;
                        queue.push(y);
                    }
                }
            }
            // `queue` holds the component's members. A constraint vertex
            // is the only on-path member at its depth: count them per
            // depth, mark the unique ones, then reset the counts for the
            // next component. Only an active component has on-path
            // members.
            for &x in &queue {
                let x = x as usize;
                if on_path[x] != OFF_PATH {
                    per_depth[dist[x] as usize] += 1;
                }
            }
            let (mut roots, mut deep, mut constraints) = (0, 0, 0);
            for &x in &queue {
                let x = x as usize;
                // The centre's neighbours are exactly the depth-1 nodes.
                roots += usize::from(dist[x] == 1);
                deep += usize::from(dist[x] == k);
                if on_path[x] == ON_PATH && per_depth[dist[x] as usize] == 1 {
                    on_path[x] = CONSTRAINT;
                    constraints += 1;
                }
            }
            for &x in &queue {
                let x = x as usize;
                if on_path[x] != OFF_PATH {
                    per_depth[dist[x] as usize] = 0;
                }
            }
            components.push(LocalComponent {
                nodes: Vec::with_capacity(queue.len()),
                roots: Vec::with_capacity(roots),
                depth_k_nodes: Vec::with_capacity(deep),
                constraint_vertices: Vec::with_capacity(constraints),
            });
        }

        // Every list filled in slot order, which is id order.
        for (x, &l) in label.iter().enumerate() {
            let Some(comp) = components.get_mut(l as usize) else {
                continue;
            };
            let id = view.id_of(x);
            comp.nodes.push(id);
            if dist[x] == 1 {
                comp.roots.push(id);
            }
            if dist[x] == k {
                comp.depth_k_nodes.push(id);
            }
            if on_path[x] == CONSTRAINT {
                comp.constraint_vertices.push(id);
            }
        }
        ComponentAnalysis {
            center,
            k,
            components,
            dist,
        }
    }

    /// The active components, in storage order.
    pub fn active_components(&self) -> impl Iterator<Item = &LocalComponent> {
        self.components.iter().filter(|c| c.is_active())
    }

    /// The *active degree* of the centre: its number of active
    /// neighbours, i.e. roots of active components (Propositions 1–3
    /// bound this by 3, 2, 1 for k ≥ n/4, n/3, n/2 respectively).
    pub fn active_degree(&self) -> usize {
        self.active_components().map(|c| c.roots.len()).sum()
    }

    /// Index of the component containing `x`, if any.
    pub fn component_of(&self, x: NodeId) -> Option<usize> {
        self.components.iter().position(|c| c.contains(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::k_neighborhood;
    use crate::{generators, Graph, GraphBuilder, Label};

    fn analyze(g: &Graph, u: NodeId, k: u32) -> ComponentAnalysis {
        let view = k_neighborhood(g, u, k);
        ComponentAnalysis::analyze(&view, u, k)
    }

    #[test]
    fn path_interior_node_has_two_active_components() {
        let g = generators::path(21);
        let a = analyze(&g, NodeId(10), 4);
        assert_eq!(a.components.len(), 2);
        for c in &a.components {
            assert!(c.is_active());
            assert!(c.is_independent());
            assert!(c.is_constrained(), "independent active => constrained");
        }
        assert_eq!(a.active_degree(), 2);
    }

    #[test]
    fn path_near_end_has_one_passive_side() {
        let g = generators::path(21);
        let a = analyze(&g, NodeId(2), 4);
        assert_eq!(a.components.len(), 2);
        let passive: Vec<_> = a.components.iter().filter(|c| !c.is_active()).collect();
        assert_eq!(passive.len(), 1);
        assert_eq!(passive[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(a.active_degree(), 1);
    }

    #[test]
    fn independent_active_constraint_chain() {
        // On a path, every vertex strictly between u and the deep vertex
        // is a constraint vertex, as is the deep vertex itself.
        let g = generators::path(10);
        let a = analyze(&g, NodeId(0), 4);
        let c = &a.components[0];
        assert_eq!(c.depth_k_nodes, vec![NodeId(4)]);
        assert_eq!(
            c.constraint_vertices,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn even_cycle_single_unconstrained_component() {
        // Cycle of length 2k: one component, two roots, active via the
        // antipode, but reachable both ways only through the antipode
        // itself — the antipode is the unique constraint vertex.
        let g = generators::cycle(8);
        let a = analyze(&g, NodeId(0), 4);
        assert_eq!(a.components.len(), 1);
        let c = &a.components[0];
        assert!(c.is_active());
        assert!(!c.is_independent());
        assert_eq!(c.depth_k_nodes, vec![NodeId(4)]);
        assert_eq!(c.constraint_vertices, vec![NodeId(4)]);
    }

    #[test]
    fn odd_cycle_two_independent_components() {
        let g = generators::cycle(9);
        let a = analyze(&g, NodeId(0), 4);
        assert_eq!(a.components.len(), 2);
        assert!(a.components.iter().all(|c| c.is_independent()));
        assert!(a.components.iter().all(|c| c.is_active()));
        assert_eq!(a.active_degree(), 2);
    }

    /// Reconstruction of Fig. 1: four components with the classifications
    /// the caption lists.
    #[test]
    fn figure_one_taxonomy() {
        let k = 8;
        let mut b = GraphBuilder::new();
        let mut next = 0u32;
        let mut node = |b: &mut GraphBuilder| {
            let id = b.add_node(Label(next)).unwrap();
            next += 1;
            id
        };
        let u = node(&mut b);
        // B1: independent active (path of length 8).
        let mut prev = u;
        let mut b1_nodes = Vec::new();
        for _ in 0..k {
            let x = node(&mut b);
            b.add_edge(prev, x).unwrap();
            b1_nodes.push(x);
            prev = x;
        }
        // B2: independent passive (path of length 3).
        let mut prev = u;
        let mut b2_first = None;
        for i in 0..3 {
            let x = node(&mut b);
            b.add_edge(prev, x).unwrap();
            if i == 0 {
                b2_first = Some(x);
            }
            prev = x;
        }
        // B3: constrained active, not independent: two roots meeting at w,
        // then a path to depth 8.
        let x1 = node(&mut b);
        let x2 = node(&mut b);
        let w = node(&mut b);
        b.add_edge(u, x1).unwrap();
        b.add_edge(u, x2).unwrap();
        b.add_edge(x1, w).unwrap();
        b.add_edge(x2, w).unwrap();
        let mut prev = w;
        for _ in 0..(k - 2) {
            let x = node(&mut b);
            b.add_edge(prev, x).unwrap();
            prev = x;
        }
        // B4: active, not independent, not constrained: two depth-8
        // branches sharing only an edge near u.
        let a1 = node(&mut b);
        let c1 = node(&mut b);
        b.add_edge(u, a1).unwrap();
        b.add_edge(u, c1).unwrap();
        b.add_edge(a1, c1).unwrap();
        let mut prev = a1;
        for _ in 0..(k - 1) {
            let x = node(&mut b);
            b.add_edge(prev, x).unwrap();
            prev = x;
        }
        let mut prev = c1;
        for _ in 0..(k - 1) {
            let x = node(&mut b);
            b.add_edge(prev, x).unwrap();
            prev = x;
        }
        let g = b.build();
        let a = analyze(&g, u, k);
        assert_eq!(a.components.len(), 4);

        let b1 = a.components[a.component_of(b1_nodes[0]).unwrap()].clone();
        assert!(b1.is_active() && b1.is_independent() && b1.is_constrained());

        let b2 = a.components[a.component_of(b2_first.unwrap()).unwrap()].clone();
        assert!(!b2.is_active() && b2.is_independent());

        let b3 = a.components[a.component_of(w).unwrap()].clone();
        assert!(b3.is_active() && !b3.is_independent() && b3.is_constrained());
        assert!(b3.constraint_vertices.contains(&w));

        let b4 = a.components[a.component_of(a1).unwrap()].clone();
        assert!(b4.is_active() && !b4.is_independent() && !b4.is_constrained());

        // Active degree counts roots of active components: 1 + 2 + 2.
        assert_eq!(a.active_degree(), 5);
    }

    #[test]
    #[should_panic(expected = "centre")]
    fn analyze_requires_center_in_view() {
        let g = generators::path(4);
        let view = k_neighborhood(&g, NodeId(0), 2);
        ComponentAnalysis::analyze(&view, NodeId(3), 2);
    }

    #[test]
    fn star_center_all_passive_when_k_large() {
        let g = generators::spider(4, 2);
        let a = analyze(&g, NodeId(0), 3);
        assert_eq!(a.components.len(), 4);
        assert!(a.components.iter().all(|c| !c.is_active()));
        assert_eq!(a.active_degree(), 0);
    }

    /// Independent oracle: enumerate *every* shortest path from the
    /// centre to every depth-k vertex of a component by walking the BFS
    /// DAG, and declare `w` a constraint vertex iff it lies on all of
    /// them — the literal §2.1 definition, computed without the
    /// one-per-depth rule the production code uses.
    fn constraint_vertices_oracle(
        view: &crate::Subgraph,
        center: NodeId,
        comp: &LocalComponent,
    ) -> Vec<NodeId> {
        use crate::traversal::bfs_distances;
        let dist = bfs_distances(view, center, None);
        // Collect all shortest paths center -> z for deep z.
        fn all_paths(
            view: &crate::Subgraph,
            dist: &crate::DistMap,
            from: NodeId,
            to: NodeId,
            acc: &mut Vec<NodeId>,
            out: &mut Vec<Vec<NodeId>>,
        ) {
            acc.push(from);
            if from == to {
                out.push(acc.clone());
            } else {
                for x in view.neighbors(from) {
                    if dist.get(x) == Some(dist[from] + 1)
                        && dist.get(to).is_some_and(|dt| dist[x] <= dt)
                    {
                        all_paths(view, dist, x, to, acc, out);
                    }
                }
            }
            acc.pop();
        }
        let mut paths = Vec::new();
        for &z in &comp.depth_k_nodes {
            all_paths(view, &dist, center, z, &mut Vec::new(), &mut paths);
        }
        comp.nodes
            .iter()
            .copied()
            .filter(|w| paths.iter().all(|p| p.contains(w)))
            .collect()
    }

    #[test]
    fn constraint_vertices_match_exhaustive_oracle() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(2023);
        for _ in 0..15 {
            let n = rng.gen_range(4..12);
            let g = crate::generators::random_mixed(n, &mut rng);
            for k in 1..=(n as u32 / 2) {
                for u in g.nodes() {
                    let view = k_neighborhood(&g, u, k);
                    let a = ComponentAnalysis::analyze(&view, u, k);
                    for c in a.active_components() {
                        let oracle = constraint_vertices_oracle(&view, u, c);
                        assert_eq!(
                            c.constraint_vertices, oracle,
                            "constraint vertices diverge at {u} (k={k}) on {g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn k_equals_one_neighbors_are_depth_k() {
        let g = generators::path(5);
        let a = analyze(&g, NodeId(2), 1);
        assert_eq!(a.components.len(), 2);
        for c in &a.components {
            assert!(c.is_active());
            assert_eq!(c.nodes.len(), 1);
            assert_eq!(c.constraint_vertices, c.nodes);
        }
    }
}
