//! Lightweight subgraph views over a parent [`Graph`](crate::Graph),
//! stored in compressed sparse row (CSR) form.

use std::fmt;
use std::ops::Range;

use crate::dist::UNREACHED;
use crate::index::IndexMap;
use crate::labels::NodeId;
use crate::traversal::Topology;

/// A vertex- and edge-subset of a parent graph, keyed by the parent's
/// [`NodeId`]s.
///
/// `Subgraph` is the representation of `G_k(u)` and of the routing
/// subgraph `G'_k(u)`. It is an immutable CSR structure: an
/// [`IndexMap`] assigns each member node a dense slot, `offsets` cuts
/// the flat `targets` array into per-slot neighbour runs, and every
/// run holds the neighbours' *slots*, sorted ascending. Slot order is
/// `NodeId` order, so each run is also sorted by id — the same
/// deterministic order the earlier tree-map representation exposed.
/// Storing slots rather than parent ids means an in-view traversal
/// indexes member-sized arrays directly, with no id → slot table sized
/// by the parent graph. Construction goes through [`SubgraphBuilder`]
/// (or [`crate::neighborhood`] for views). It does not borrow the
/// parent graph, so views can be cached and shipped to simulated
/// nodes independently.
///
/// ```
/// use locality_graph::{NodeId, SubgraphBuilder};
///
/// let mut b = SubgraphBuilder::new();
/// b.insert_node(NodeId(3));
/// b.insert_node(NodeId(7));
/// b.insert_edge(NodeId(3), NodeId(7));
/// let s = b.build();
/// assert!(s.has_edge(NodeId(7), NodeId(3)));
/// assert_eq!(s.node_count(), 2);
/// assert_eq!(s.neighbor_slots(0), &[1]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Subgraph {
    index: IndexMap,
    /// slot → start of its neighbour run in `targets`; length `len + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbour runs (member slots), each run sorted ascending.
    targets: Vec<u32>,
    edge_count: usize,
}

impl Subgraph {
    /// Whether node `u` is present.
    #[inline]
    pub fn contains_node(&self, u: NodeId) -> bool {
        self.index.contains(u)
    }

    /// The dense slot of `u`, or `None` if absent. Slots number the
    /// members `0..node_count()` in ascending `NodeId` order.
    #[inline]
    pub fn slot_of(&self, u: NodeId) -> Option<usize> {
        self.index.slot_of(u)
    }

    /// The member occupying `slot` (inverse of [`slot_of`](Self::slot_of)).
    #[inline]
    pub fn id_of(&self, slot: usize) -> NodeId {
        self.index.id_of(slot)
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match (self.slot_of(u), self.slot_of(v)) {
            (Some(su), Some(sv)) => self.neighbor_slots(su).binary_search(&(sv as u32)).is_ok(),
            _ => false,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.index.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of `u` within the subgraph, ascending by `NodeId`
    /// (empty if `u` is absent).
    pub fn neighbors(&self, u: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let run: &[u32] = match self.slot_of(u) {
            Some(s) => self.neighbor_slots(s),
            None => &[],
        };
        run.iter().map(move |&t| self.id_of(t as usize))
    }

    /// Degree of `u` within the subgraph (0 if absent).
    pub fn degree(&self, u: NodeId) -> usize {
        self.slot_of(u).map_or(0, |s| self.neighbor_slots(s).len())
    }

    /// The neighbour run of the member occupying `slot`, as member
    /// slots in ascending order — what in-view traversals that track
    /// slots walk, with no id lookup per edge.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= node_count()`.
    #[inline]
    pub fn neighbor_slots(&self, slot: usize) -> &[u32] {
        &self.targets[self.neighbor_range(slot)]
    }

    /// The positions of `slot`'s neighbour run among all directed edge
    /// ends: `neighbor_slots(slot)[i]` is the end at position
    /// `neighbor_range(slot).start + i`. Positions number the ends
    /// `0..2 * edge_count()`, so per-edge data (a mask of removed
    /// edges, say) lives in one flat `Vec` sized by the view.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= node_count()`.
    #[inline]
    pub fn neighbor_range(&self, slot: usize) -> Range<usize> {
        self.offsets[slot] as usize..self.offsets[slot + 1] as usize
    }

    /// Breadth-first search over member slots from `source`, out to
    /// depth `max_depth`, following only the edge ends
    /// `keep(position, target_slot)` accepts (positions as in
    /// [`neighbor_range`](Self::neighbor_range)).
    ///
    /// On return `dist` has one entry per member: the depth of each
    /// reached slot, [`UNREACHED`] elsewhere. `order` lists the reached
    /// slots in BFS order, so depths along it never decrease. Both
    /// buffers are cleared first, so repeated searches reuse them, and
    /// neither is sized by anything but the member count. Reaches
    /// nothing if `source` is not a member.
    pub fn bfs_slots(
        &self,
        source: NodeId,
        max_depth: u32,
        keep: impl Fn(usize, usize) -> bool,
        dist: &mut Vec<u32>,
        order: &mut Vec<u32>,
    ) {
        dist.clear();
        dist.resize(self.node_count(), UNREACHED);
        order.clear();
        let Some(s) = self.slot_of(source) else {
            return;
        };
        dist[s] = 0;
        order.push(s as u32);
        let mut head = 0;
        while let Some(&s) = order.get(head) {
            head += 1;
            let s = s as usize;
            let ds = dist[s];
            if ds >= max_depth {
                // BFS order: everything after is at least as deep.
                break;
            }
            for (p, &t) in self.neighbor_range(s).zip(self.neighbor_slots(s)) {
                let t = t as usize;
                if dist[t] == UNREACHED && keep(p, t) {
                    dist[t] = ds + 1;
                    order.push(t as u32);
                }
            }
        }
    }

    /// Iterator over nodes in ascending `NodeId` order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.index.members().iter().copied()
    }

    /// The member nodes as a sorted slice (slot order).
    #[inline]
    pub fn node_slice(&self) -> &[NodeId] {
        self.index.members()
    }

    /// Iterator over edges, each reported once as `(min, max)` by id.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count()).flat_map(move |s| {
            self.neighbor_slots(s)
                .iter()
                .filter(move |&&t| s < t as usize)
                .map(move |&t| (self.id_of(s), self.id_of(t as usize)))
        })
    }

    /// Reassembles a subgraph from pre-validated CSR parts (the codec's
    /// decode path). The caller must guarantee the CSR invariants:
    /// `offsets` has `index.len() + 1` monotone entries cutting
    /// `targets` into strictly ascending runs of in-range slots, and
    /// `edge_count` is half the directed edge ends.
    /// [`crate::codec::decode_subgraph`] validates all of this before
    /// calling.
    pub(crate) fn from_csr_parts(
        index: IndexMap,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        edge_count: usize,
    ) -> Subgraph {
        Subgraph {
            index,
            offsets,
            targets,
            edge_count,
        }
    }

    /// Lays out a subgraph over `index` from its directed edge ends
    /// `(from_slot, to_slot)`: every undirected edge must appear once
    /// in each direction, with no duplicates. A counting sort groups
    /// the ends into per-slot runs, each then sorted ascending.
    pub(crate) fn from_directed_ends(index: IndexMap, ends: &[(u32, u32)]) -> Subgraph {
        let n = index.len();
        let mut offsets = vec![0u32; n + 1];
        for &(from, _) in ends {
            offsets[from as usize + 1] += 1;
        }
        for s in 0..n {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; ends.len()];
        for &(from, to) in ends {
            let at = &mut cursor[from as usize];
            targets[*at as usize] = to;
            *at += 1;
        }
        for s in 0..n {
            targets[offsets[s] as usize..offsets[s + 1] as usize].sort_unstable();
        }
        Subgraph {
            index,
            offsets,
            targets,
            edge_count: ends.len() / 2,
        }
    }
}

impl fmt::Debug for Subgraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Subgraph(n={}, m={}, edges=[",
            self.node_count(),
            self.edge_count()
        )?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

impl Topology for Subgraph {
    fn node_count(&self) -> usize {
        self.node_count()
    }

    fn id_bound(&self) -> usize {
        self.index.id_bound()
    }

    fn contains_node(&self, u: NodeId) -> bool {
        self.contains_node(u)
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for u in self.nodes() {
            f(u);
        }
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for v in self.neighbors(u) {
            f(v);
        }
    }
}

/// Accumulates nodes and edges, then freezes them into a CSR
/// [`Subgraph`].
///
/// Inserts are cheap appends; [`build`](Self::build) sorts, dedups, and
/// lays out the CSR arrays in one pass, so duplicate edge inserts are
/// harmless and insertion order is irrelevant to the result.
///
/// ```
/// use locality_graph::{NodeId, SubgraphBuilder};
///
/// let mut b = SubgraphBuilder::new();
/// b.insert_edge(NodeId(1), NodeId(0));
/// b.insert_edge(NodeId(0), NodeId(1)); // duplicate: ignored at build
/// let s = b.build();
/// assert_eq!(s.edge_count(), 1);
/// assert!(s.neighbors(NodeId(0)).eq([NodeId(1)]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubgraphBuilder {
    nodes: Vec<NodeId>,
    /// Normalised `(min, max)` pairs; may contain duplicates until build.
    edges: Vec<(NodeId, NodeId)>,
}

impl SubgraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> SubgraphBuilder {
        SubgraphBuilder::default()
    }

    /// Creates an empty builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> SubgraphBuilder {
        SubgraphBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Records node `u` (duplicates are fine).
    #[inline]
    pub fn insert_node(&mut self, u: NodeId) {
        self.nodes.push(u);
    }

    /// Records the undirected edge `{u, v}`, registering both endpoints
    /// as nodes. Duplicates are fine.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop: subgraphs of simple graphs are simple.
    #[inline]
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loop in subgraph");
        self.nodes.push(u);
        self.nodes.push(v);
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Freezes the accumulated nodes and edges into a CSR [`Subgraph`].
    pub fn build(mut self) -> Subgraph {
        self.nodes.sort_unstable();
        self.nodes.dedup();
        self.edges.sort_unstable();
        self.edges.dedup();
        let id_bound = self.nodes.last().map_or(0, |u| u.index() + 1);
        let index = IndexMap::from_sorted_ids(self.nodes, id_bound);
        // insert_edge registered both endpoints, so every lookup hits.
        let mut ends = Vec::with_capacity(2 * self.edges.len());
        for &(u, v) in &self.edges {
            if let (Some(su), Some(sv)) = (index.slot_of(u), index.slot_of(v)) {
                ends.push((su as u32, sv as u32));
                ends.push((sv as u32, su as u32));
            }
        }
        Subgraph::from_directed_ends(index, &ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Subgraph {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(0), NodeId(1));
        b.insert_edge(NodeId(1), NodeId(2));
        b.insert_edge(NodeId(2), NodeId(0));
        b.build()
    }

    #[test]
    fn insert_and_query() {
        let s = triangle();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 3);
        assert!(s.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(s.degree(NodeId(1)), 2);
        assert_eq!(s.neighbors(NodeId(9)).len(), 0);
        assert!(!s.has_edge(NodeId(0), NodeId(9)));
    }

    #[test]
    fn duplicate_edge_insert_is_idempotent() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(0), NodeId(1));
        b.insert_edge(NodeId(1), NodeId(0));
        b.insert_edge(NodeId(1), NodeId(2));
        b.insert_edge(NodeId(2), NodeId(0));
        let s = b.build();
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.degree(NodeId(0)), 2);
    }

    #[test]
    fn neighbor_runs_are_sorted() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(5), NodeId(2));
        b.insert_edge(NodeId(5), NodeId(9));
        b.insert_edge(NodeId(5), NodeId(0));
        let s = b.build();
        assert!(s.neighbors(NodeId(5)).eq([NodeId(0), NodeId(2), NodeId(9)]));
        assert_eq!(s.neighbor_slots(2), &[0, 1, 3]);
        assert_eq!(
            s.nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2), NodeId(5), NodeId(9)]
        );
    }

    #[test]
    fn slots_number_members_in_id_order() {
        let s = triangle();
        assert_eq!(s.slot_of(NodeId(0)), Some(0));
        assert_eq!(s.slot_of(NodeId(2)), Some(2));
        assert_eq!(s.id_of(1), NodeId(1));
        assert_eq!(s.slot_of(NodeId(3)), None);
    }

    #[test]
    fn isolated_nodes_survive_build() {
        let mut b = SubgraphBuilder::new();
        b.insert_node(NodeId(4));
        b.insert_edge(NodeId(0), NodeId(1));
        let s = b.build();
        assert_eq!(s.node_count(), 3);
        assert!(s.contains_node(NodeId(4)));
        assert_eq!(s.degree(NodeId(4)), 0);
    }

    #[test]
    fn bfs_slots_filters_positions_and_stops_at_depth() {
        // Path 0-1-2-3 plus chord 0-3: dropping the chord's end at 0
        // forces the long way round; depth 2 then stops short of 3.
        let mut b = SubgraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            b.insert_edge(NodeId(u), NodeId(v));
        }
        let s = b.build();
        let chord = s.neighbor_range(0).start + 1;
        assert_eq!(s.neighbor_slots(0)[1], 3);
        let (mut dist, mut order) = (Vec::new(), Vec::new());
        s.bfs_slots(NodeId(0), u32::MAX, |_, _| true, &mut dist, &mut order);
        assert_eq!(dist, vec![0, 1, 2, 1]);
        s.bfs_slots(NodeId(0), 2, |p, _| p != chord, &mut dist, &mut order);
        assert_eq!(dist, vec![0, 1, 2, UNREACHED]);
        assert_eq!(order, vec![0, 1, 2]);
        s.bfs_slots(NodeId(9), u32::MAX, |_, _| true, &mut dist, &mut order);
        assert!(order.is_empty() && dist.iter().all(|&d| d == UNREACHED));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(1), NodeId(1));
    }

    #[test]
    fn edges_reported_once() {
        let s = triangle();
        assert_eq!(s.edges().count(), 3);
    }

    #[test]
    fn equal_content_is_equal_regardless_of_insert_order() {
        let mut a = SubgraphBuilder::new();
        a.insert_edge(NodeId(0), NodeId(1));
        a.insert_edge(NodeId(1), NodeId(2));
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(2), NodeId(1));
        b.insert_edge(NodeId(1), NodeId(0));
        assert_eq!(a.build(), b.build());
    }
}
