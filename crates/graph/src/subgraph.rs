//! Lightweight subgraph views over a parent [`Graph`](crate::Graph),
//! stored in compressed sparse row (CSR) form.

use std::cell::RefCell;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;

use crate::dist::UNREACHED;
use crate::labels::NodeId;
use crate::traversal::Topology;

/// Id → slot table entry of an id that is not a member.
const ABSENT: u32 = u32::MAX;

/// Above this many table entries per member the id → slot table is
/// dropped in favour of binary search over the members. The table is
/// sized by the largest member id, so without this cap a small `G_k(u)`
/// of a large parent would hold memory in proportion to the parent
/// rather than to what the view can see.
pub(crate) const DENSE_FACTOR: usize = 4;

/// A vertex- and edge-subset of a parent graph, keyed by the parent's
/// [`NodeId`]s.
///
/// `Subgraph` is the representation of `G_k(u)` and of the routing
/// subgraph `G'_k(u)`. It is an immutable CSR structure held in two
/// blocks, each allocated once at its exact size:
///
/// * the member ids, strictly ascending. A member's position is its
///   dense *slot*, so slot order is `NodeId` order;
/// * one `u32` block: `n + 1` offsets, which cut the `2m` targets that
///   follow into per-slot neighbour runs of member slots, each sorted
///   ascending (so also by id). A *dense* view, whose largest id is at
///   most four times its member count, ends the block with an
///   id → slot table; a sparse one looks ids up by binary search over
///   the members instead.
///
/// Storing slots rather than parent ids means an in-view traversal
/// indexes member-sized arrays directly, with no table sized by the
/// parent graph. The id bound and the edge count are derived: one past
/// the last member, and half the last offset. Construction goes
/// through [`SubgraphBuilder`] (or [`crate::neighborhood`] for views).
/// It does not borrow the parent graph, so views can be cached and
/// shipped to simulated nodes independently.
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
#[derive(Clone, PartialEq, Eq)]
pub struct Subgraph {
    /// slot → parent id, strictly ascending.
    members: Box<[NodeId]>,
    /// `offsets[n + 1] | targets[2m]`, then the id → slot table of a
    /// dense view ([`ABSENT`] for ids that are not members). The table
    /// is a pure function of the members, so equal subgraphs stay `==`.
    words: Box<[u32]>,
}

impl Default for Subgraph {
    /// The empty subgraph: no members, one offset.
    fn default() -> Subgraph {
        Subgraph {
            members: Box::default(),
            words: Box::new([0]),
        }
    }
}

impl Subgraph {
    /// Whether node `u` is present.
    #[inline]
    pub fn contains_node(&self, u: NodeId) -> bool {
        self.slot_of(u).is_some()
    }

    /// The dense slot of `u`, or `None` if absent. Slots number the
    /// members `0..node_count()` in ascending `NodeId` order.
    #[inline]
    pub fn slot_of(&self, u: NodeId) -> Option<usize> {
        let table = self.members.len() + 1 + self.ends();
        if self.words.len() == table {
            // Sparse: members ascend and slot order is id order, so
            // the position found is the slot.
            return self.members.binary_search(&u).ok();
        }
        match self.words.get(table + u.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// The member occupying `slot` (inverse of [`slot_of`](Self::slot_of)).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= node_count()`.
    #[inline]
    pub fn id_of(&self, slot: usize) -> NodeId {
        self.members[slot]
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
        self.members.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.ends() / 2
    }

    /// Number of directed edge ends: the last offset.
    #[inline]
    fn ends(&self) -> usize {
        self.words
            .get(self.members.len())
            .map_or(0, |&e| e as usize)
    }

    /// The `n + 1` offsets: slot `s`'s run is `offsets[s]..offsets[s + 1]`.
    #[inline]
    fn offsets(&self) -> &[u32] {
        &self.words[..=self.members.len()]
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
        let run = self.neighbor_range(slot);
        let base = self.members.len() + 1;
        &self.words[base + run.start..base + run.end]
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
        let offsets = self.offsets();
        offsets[slot] as usize..offsets[slot + 1] as usize
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
        self.members.iter().copied()
    }

    /// The member nodes as a sorted slice (slot order).
    #[inline]
    pub fn node_slice(&self) -> &[NodeId] {
        &self.members
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

    /// A subgraph over the strictly ascending `members` with `ends`
    /// directed edge ends, in a block allocated once at its final
    /// size. `fill` writes the `n + 1` offsets and the `ends` targets,
    /// which arrive zeroed; the id → slot table of a dense view is
    /// written behind them afterwards. An error from `fill` is passed
    /// on and the block dropped.
    ///
    /// The caller guarantees the CSR invariants: offsets rising from 0
    /// to `ends`, cutting the targets into strictly ascending runs of
    /// in-range slots. [`crate::codec::decode_subgraph`] validates all
    /// of this as it fills.
    pub(crate) fn try_with_csr<E>(
        members: Box<[NodeId]>,
        ends: usize,
        fill: impl FnOnce(&mut [u32], &mut [u32]) -> Result<(), E>,
    ) -> Result<Subgraph, E> {
        let n = members.len();
        // The id bound is derived, and a usize, so a last member of
        // u32::MAX cannot wrap it into a small dense table.
        let bound = members.last().map_or(0, |m| m.index() + 1);
        let table_len = if bound <= n.saturating_mul(DENSE_FACTOR) {
            bound
        } else {
            0
        };
        let mut words = vec![0u32; n + 1 + ends + table_len].into_boxed_slice();
        let (offsets, rest) = words.split_at_mut(n + 1);
        let (targets, table) = rest.split_at_mut(ends);
        fill(offsets, targets)?;
        if !table.is_empty() {
            table.fill(ABSENT);
            for (slot, &u) in members.iter().enumerate() {
                table[u.index()] = slot as u32;
            }
        }
        Ok(Subgraph { members, words })
    }

    /// Lays out a subgraph over `members` from its directed edge ends
    /// `(from_slot, to_slot)`: every undirected edge must appear once
    /// in each direction, with no duplicates. A counting sort groups
    /// the ends into per-slot runs, and a run that did not arrive
    /// ascending is then sorted; `cursor` is the counting sort's
    /// scratch.
    pub(crate) fn from_directed_ends(
        members: Box<[NodeId]>,
        ends: &[(u32, u32)],
        cursor: &mut Vec<u32>,
    ) -> Subgraph {
        let n = members.len();
        let Ok(sub) = Subgraph::try_with_csr(members, ends.len(), |offsets, targets| {
            for &(from, _) in ends {
                offsets[from as usize + 1] += 1;
            }
            let mut sum = 0;
            for o in offsets.iter_mut() {
                sum += *o;
                *o = sum;
            }
            cursor.clear();
            cursor.extend_from_slice(&offsets[..n]);
            for &(from, to) in ends {
                let at = &mut cursor[from as usize];
                targets[*at as usize] = to;
                *at += 1;
            }
            let mut start = 0;
            for &end in &offsets[1..] {
                let run = &mut targets[start..end as usize];
                if !run.is_sorted() {
                    run.sort_unstable();
                }
                start = end as usize;
            }
            Ok::<(), Infallible>(())
        });
        sub
    }
}

/// The buffers that laying out a view needs only while it runs:
/// extraction's id-sorted members and per-position slots, the directed
/// edge ends and the counting sort's cursor. [`Scratch::with`] lends
/// each thread one set, the way
/// [`Ball::with`](crate::traversal::Ball::with) lends the search
/// buffer, so once a thread has extracted a view, every allocation an
/// extraction makes is a block the view keeps.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `(id, BFS position)` per reached node, sorted by id.
    pub(crate) by_id: Vec<(NodeId, u32)>,
    /// Per BFS position: the node's slot and distance.
    pub(crate) at: Vec<(u32, u32)>,
    /// Directed edge ends `(from_slot, to_slot)` awaiting layout.
    pub(crate) ends: Vec<(u32, u32)>,
    /// Counting-sort cursor for [`Subgraph::from_directed_ends`].
    pub(crate) cursor: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Runs `f` on the calling thread's scratch. A nested call gets a
    /// fresh one rather than panicking.
    pub(crate) fn with<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut Scratch::default()),
        })
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
        self.members.last().map_or(0, |m| m.index() + 1)
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
        let members: Box<[NodeId]> = self.nodes.as_slice().into();
        // insert_edge registered both endpoints, so every search hits.
        let mut ends = Vec::with_capacity(2 * self.edges.len());
        for &(u, v) in &self.edges {
            if let (Ok(su), Ok(sv)) = (members.binary_search(&u), members.binary_search(&v)) {
                ends.push((su as u32, sv as u32));
                ends.push((sv as u32, su as u32));
            }
        }
        Subgraph::from_directed_ends(members, &ends, &mut Vec::new())
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
    fn slots_round_trip_both_directions() {
        let ids = [0, 3, 4, 7];
        let mut b = SubgraphBuilder::new();
        for &u in &ids {
            b.insert_node(NodeId(u));
        }
        let s = b.build();
        for (slot, &u) in ids.iter().enumerate() {
            assert_eq!(s.slot_of(NodeId(u)), Some(slot));
            assert_eq!(s.id_of(slot), NodeId(u));
        }
        assert_eq!(s.node_count(), 4);
        assert!(!s.contains_node(NodeId(1)));
    }

    #[test]
    fn out_of_bound_ids_are_absent() {
        let mut b = SubgraphBuilder::new();
        b.insert_node(NodeId(1));
        let s = b.build();
        assert_eq!(s.slot_of(NodeId(1)), Some(0));
        assert_eq!(s.slot_of(NodeId(2)), None);
        assert_eq!(s.slot_of(NodeId(99)), None);
    }

    #[test]
    fn sparse_and_dense_lookups_agree() {
        // A packed member set carries the id -> slot table, a spread-out
        // one binary-searches its members; every lookup must agree.
        let build = |ids: &[u32]| {
            let mut b = SubgraphBuilder::new();
            for &u in ids {
                b.insert_node(NodeId(u));
            }
            b.build()
        };
        let packed = build(&[0, 1, 2]);
        assert_eq!(packed.words.len(), 4 + 3, "dense: offsets then table");
        assert_eq!(packed.slot_of(NodeId(1)), Some(1));
        assert_eq!(packed.slot_of(NodeId(3)), None);
        assert_eq!(packed.id_bound(), 3);

        let ids = [2, 40, 41, 900];
        let sparse = build(&ids);
        assert_eq!(sparse.words.len(), 5, "sparse: offsets only");
        assert_eq!(sparse.id_bound(), 901);
        for (slot, &u) in ids.iter().enumerate() {
            assert_eq!(sparse.slot_of(NodeId(u)), Some(slot), "member {u}");
            assert_eq!(sparse.id_of(slot), NodeId(u));
        }
        for probe in [0u32, 3, 39, 42, 899, 901, 2047, 100_000, u32::MAX] {
            assert_eq!(sparse.slot_of(NodeId(probe)), None, "non-member {probe}");
        }
    }

    #[test]
    fn id_bound_of_the_largest_id_does_not_wrap() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(u32::MAX - 1), NodeId(u32::MAX));
        let s = b.build();
        assert_eq!(s.id_bound(), u32::MAX as usize + 1);
        assert_eq!(s.words.len(), 3 + 2, "no table sized by the id bound");
        assert_eq!(s.slot_of(NodeId(u32::MAX)), Some(1));
        assert!(s.has_edge(NodeId(u32::MAX), NodeId(u32::MAX - 1)));
    }

    #[test]
    fn empty_subgraph_is_the_default() {
        let s = SubgraphBuilder::new().build();
        assert_eq!(s, Subgraph::default());
        assert_eq!((s.node_count(), s.edge_count(), s.id_bound()), (0, 0, 0));
        assert_eq!(s.slot_of(NodeId(0)), None);
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
