//! The labelled, undirected, simple graph type.
//!
//! A routing decision names a neighbour of the current node by label,
//! so a label is resolved only among that node's neighbours
//! ([`Graph::neighbor_by_label`]); there is no graph-wide label index.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::GraphError;
use crate::labels::{Label, NodeId};
use crate::traversal::Topology;

/// A connected-or-not, unweighted, undirected, simple graph with unique
/// vertex labels — the paper's network model (§1.1).
///
/// Nodes are stored densely and identified by [`NodeId`]; every node
/// carries a unique [`Label`]. Neighbour lists are kept sorted by the
/// neighbour's **label**, so all iteration order (and hence every
/// deterministic routing decision built on top) is a function of labels
/// alone, never of insertion order, and finding the neighbour with a
/// given label is one binary search.
///
/// # Example
///
/// ```
/// use locality_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert!(g.has_edge(NodeId(0), NodeId(3)));
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    labels: Vec<Label>,
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Builds a graph whose `n` nodes are labelled `0..n` and whose edges
    /// are given as pairs of node indices.
    ///
    /// This is the convenient constructor for tests and generators where
    /// the identity labelling is fine; use [`GraphBuilder`] to control
    /// labels explicitly.
    ///
    /// # Errors
    ///
    /// Returns an error if an edge endpoint is out of range, an edge is
    /// repeated, or a self-loop is requested.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::with_identity_labels(n);
        for &(a, bb) in edges {
            b.add_edge(NodeId(a), NodeId(bb))?;
        }
        Ok(b.build())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(NodeId, NodeId)` with the first
    /// endpoint's label smaller than the second's. Each edge appears once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.adj[u.index()]
                .iter()
                .copied()
                .filter(move |&v| self.label(u) < self.label(v))
                .map(move |v| (u, v))
        })
    }

    /// The label of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn label(&self, u: NodeId) -> Label {
        self.labels[u.index()]
    }

    /// Neighbours of `u`, sorted ascending by label.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u.index()]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// The neighbour of `u` labelled `l`, if `u` has one: one binary
    /// search over `u`'s label-sorted neighbours. `None` also for an
    /// out-of-range `u`.
    #[inline]
    pub fn neighbor_by_label(&self, u: NodeId, l: Label) -> Option<NodeId> {
        let nbrs = self.adj.get(u.index())?;
        self.search(nbrs, l).ok().and_then(|i| nbrs.get(i)).copied()
    }

    /// Where label `l` sits in the label-sorted neighbour list `nbrs`:
    /// `Ok` with its position, or `Err` with the position that keeps
    /// the list sorted.
    #[inline]
    fn search(&self, nbrs: &[NodeId], l: Label) -> Result<usize, usize> {
        nbrs.binary_search_by_key(&l, |&w| self.label(w))
    }

    /// Whether the edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbor_by_label(u, self.label(v)).is_some()
    }

    /// Inserts the undirected edge `{u, v}` in place, keeping both
    /// adjacency lists sorted by label. This is the incremental
    /// counterpart of rebuilding through [`GraphBuilder`]: O(deg)
    /// per endpoint instead of O(n + m) for the whole graph, which is
    /// what makes per-event topology churn affordable in the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`], [`GraphError::UnknownNode`], or
    /// [`GraphError::DuplicateEdge`]; the graph is unchanged on error.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for &x in &[u, v] {
            if x.index() >= self.labels.len() {
                return Err(GraphError::UnknownNode(x));
            }
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        for (a, b) in [(u, v), (v, u)] {
            let (Ok(pos) | Err(pos)) = self.search(&self.adj[a.index()], self.label(b));
            self.adj[a.index()].insert(pos, b);
        }
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the undirected edge `{u, v}` in place — the incremental
    /// inverse of [`insert_edge`](Self::insert_edge), O(deg) per
    /// endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`], [`GraphError::UnknownNode`], or
    /// [`GraphError::MissingEdge`]; the graph is unchanged on error.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for &x in &[u, v] {
            if x.index() >= self.labels.len() {
                return Err(GraphError::UnknownNode(x));
            }
        }
        if !self.has_edge(u, v) {
            return Err(GraphError::MissingEdge(u, v));
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Ok(pos) = self.search(&self.adj[a.index()], self.label(b)) {
                self.adj[a.index()].remove(pos);
            }
        }
        self.edge_count -= 1;
        Ok(())
    }

    /// The maximum label value present, or `None` for the empty graph.
    pub fn max_label(&self) -> Option<Label> {
        self.labels.iter().copied().max()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges=[",
            self.node_count(),
            self.edge_count()
        )?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}-{}", self.label(u), self.label(v))?;
        }
        write!(f, "])")
    }
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        self.node_count()
    }

    fn id_bound(&self) -> usize {
        self.labels.len()
    }

    fn contains_node(&self, u: NodeId) -> bool {
        u.index() < self.labels.len()
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for u in self.nodes() {
            f(u);
        }
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for &v in self.neighbors(u) {
            f(v);
        }
    }
}

/// Incremental constructor for [`Graph`].
///
/// ```
/// use locality_graph::{GraphBuilder, Label, NodeId};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(Label(10)).unwrap();
/// let c = b.add_node(Label(20)).unwrap();
/// b.add_edge(a, c).unwrap();
/// let g = b.build();
/// assert_eq!(g.label(NodeId(0)), Label(10));
/// assert!(g.has_edge(a, c));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    /// The labels taken so far, for [`GraphBuilder::add_node`]'s
    /// duplicate check; dropped at [`GraphBuilder::build`].
    taken: BTreeSet<Label>,
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Creates a builder pre-populated with `n` nodes labelled `0..n`.
    pub fn with_identity_labels(n: usize) -> GraphBuilder {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Label(i as u32))
                .expect("identity labels are unique");
        }
        b
    }

    /// Adds a node with the given label, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateLabel`] if the label is taken.
    pub fn add_node(&mut self, label: Label) -> Result<NodeId, GraphError> {
        if !self.taken.insert(label) {
            return Err(GraphError::DuplicateLabel(label));
        }
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.adj.push(Vec::new());
        Ok(id)
    }

    /// Adds the undirected edge `{u, v}`. The duplicate check scans the
    /// shorter of the two endpoints' lists (adjacency is symmetric, so
    /// either answers), so an edge costs O(min degree) and a node of
    /// high degree is built in time linear in its degree.
    ///
    /// # Errors
    ///
    /// Returns an error on self-loops, repeated edges, or unknown
    /// endpoints (the graph must stay simple).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for &x in &[u, v] {
            if x.index() >= self.labels.len() {
                return Err(GraphError::UnknownNode(x));
            }
        }
        let (short, other) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (u, v)
        } else {
            (v, u)
        };
        if self.adj[short.index()].contains(&other) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.adj[u.index()].push(v);
        self.adj[v.index()].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Finalises the graph, sorting every adjacency list by label.
    pub fn build(mut self) -> Graph {
        let labels = self.labels.clone();
        for list in &mut self.adj {
            list.sort_by_key(|&v| labels[v.index()]);
        }
        Graph {
            labels: self.labels,
            adj: self.adj,
            edge_count: self.edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_expected_structure() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.degree(NodeId(1)), 2);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 0)]).unwrap_err(),
            GraphError::SelfLoop(NodeId(0))
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap_err(),
            GraphError::DuplicateEdge(NodeId(1), NodeId(0))
        );
    }

    #[test]
    fn rejects_unknown_endpoint() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]).unwrap_err(),
            GraphError::UnknownNode(NodeId(5))
        );
    }

    #[test]
    fn rejects_duplicate_label() {
        let mut b = GraphBuilder::new();
        b.add_node(Label(1)).unwrap();
        assert_eq!(
            b.add_node(Label(1)).unwrap_err(),
            GraphError::DuplicateLabel(Label(1))
        );
    }

    #[test]
    fn neighbors_are_sorted_by_label() {
        // Insert neighbours of node 0 in scrambled label order.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Label(5)).unwrap();
        let hi = b.add_node(Label(9)).unwrap();
        let lo = b.add_node(Label(1)).unwrap();
        let mid = b.add_node(Label(4)).unwrap();
        b.add_edge(n0, hi).unwrap();
        b.add_edge(n0, lo).unwrap();
        b.add_edge(n0, mid).unwrap();
        let g = b.build();
        let labels: Vec<Label> = g.neighbors(n0).iter().map(|&v| g.label(v)).collect();
        assert_eq!(labels, vec![Label(1), Label(4), Label(9)]);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(g.label(u) < g.label(v));
        }
    }

    /// Checks `neighbor_by_label` against a linear scan of
    /// `neighbors(u)` for every node, every label and one label no node
    /// carries, and for a node id past the end.
    fn assert_label_search_matches_scan(g: &Graph) {
        let absent = Label(g.max_label().map_or(0, |l| l.0 + 1));
        let labels: Vec<Label> = g.nodes().map(|v| g.label(v)).chain([absent]).collect();
        for u in g.nodes() {
            for &l in &labels {
                let scan = g.neighbors(u).iter().copied().find(|&v| g.label(v) == l);
                assert_eq!(g.neighbor_by_label(u, l), scan, "{u}, {l} on {g:?}");
            }
        }
        let past = NodeId(g.node_count() as u32);
        assert_eq!(g.neighbor_by_label(past, Label(0)), None);
    }

    #[test]
    fn neighbor_by_label_matches_a_linear_scan() {
        use crate::rng::DetRng;
        use crate::{generators, permute};
        for seed in 1..=4u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let n = 24;
            let g = generators::random_connected(n, 30, &mut rng);
            let mut g = permute::random_relabel(&g, &mut rng);
            assert_label_search_matches_scan(&g);
            for _ in 0..80 {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                let (u, v) = (NodeId(u), NodeId(v));
                if u == v {
                    continue;
                }
                if g.has_edge(u, v) {
                    g.remove_edge(u, v).expect("the edge is present");
                } else {
                    g.insert_edge(u, v).expect("the edge is absent");
                }
            }
            assert_label_search_matches_scan(&g);
        }
    }

    #[test]
    fn debug_is_nonempty_for_empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(!format!("{g:?}").is_empty());
    }

    #[test]
    fn incremental_flip_matches_full_rebuild() {
        // insert_edge/remove_edge must land in exactly the state a
        // GraphBuilder rebuild would produce, sorted adjacency included.
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        g.insert_edge(NodeId(4), NodeId(0)).unwrap();
        assert_eq!(
            g,
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
        );
        g.remove_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(
            g,
            Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4), (4, 0)]).unwrap()
        );
    }

    #[test]
    fn incremental_flip_keeps_neighbors_label_sorted() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Label(5)).unwrap();
        let hi = b.add_node(Label(9)).unwrap();
        let lo = b.add_node(Label(1)).unwrap();
        let mid = b.add_node(Label(4)).unwrap();
        b.add_edge(n0, hi).unwrap();
        b.add_edge(n0, lo).unwrap();
        let mut g = b.build();
        g.insert_edge(n0, mid).unwrap();
        let labels: Vec<Label> = g.neighbors(n0).iter().map(|&v| g.label(v)).collect();
        assert_eq!(labels, vec![Label(1), Label(4), Label(9)]);
        assert!(g.has_edge(n0, mid) && g.has_edge(mid, n0));
    }

    #[test]
    fn incremental_flip_rejects_invalid_edits() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            g.insert_edge(NodeId(0), NodeId(1)),
            Err(GraphError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
        assert_eq!(
            g.remove_edge(NodeId(0), NodeId(2)),
            Err(GraphError::MissingEdge(NodeId(0), NodeId(2)))
        );
        assert_eq!(
            g.insert_edge(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop(NodeId(1)))
        );
        assert_eq!(
            g.remove_edge(NodeId(0), NodeId(7)),
            Err(GraphError::UnknownNode(NodeId(7)))
        );
        // Errors leave the graph untouched.
        assert_eq!(g, Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap());
    }
}
