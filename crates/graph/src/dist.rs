//! Dense BFS distance maps.
//!
//! Every BFS in this workspace runs over node ids that are dense small
//! integers (a graph's ids are `0..n`). [`DistMap`] exploits that: it is
//! a flat `Vec<u32>` indexed by id, with [`UNREACHED`] as the sentinel —
//! no allocation per insert, O(1) lookups, and ascending-id iteration
//! for free. It serves whole-graph searches ([`crate::traversal`],
//! [`crate::cycles`]). A search inside one view indexes by the view's
//! member slots instead ([`crate::Subgraph::bfs_slots`]), so its arrays
//! are sized by what the view holds, not by the largest id it holds.

use std::fmt;

use crate::labels::NodeId;

/// The distance recorded for a node a search did not reach, in
/// [`DistMap`] and in slot-aligned distance vectors alike.
pub const UNREACHED: u32 = u32::MAX;

/// A map from [`NodeId`] to BFS distance, backed by a dense `Vec<u32>`.
///
/// Reached nodes hold their distance; everything else holds a sentinel.
/// Iteration order is ascending by id, matching the ordered-map
/// semantics the rest of the workspace depends on for determinism.
///
/// ```
/// use locality_graph::{DistMap, NodeId};
///
/// let mut d = DistMap::new(5);
/// d.insert(NodeId(2), 0);
/// d.insert(NodeId(4), 1);
/// assert_eq!(d.get(NodeId(2)), Some(0));
/// assert_eq!(d.get(NodeId(0)), None);
/// assert_eq!(d[NodeId(4)], 1);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.iter().collect::<Vec<_>>(), vec![(NodeId(2), 0), (NodeId(4), 1)]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DistMap {
    dist: Vec<u32>,
    len: usize,
}

impl DistMap {
    /// An empty map able to hold ids `0..id_bound`.
    pub fn new(id_bound: usize) -> Self {
        DistMap {
            dist: vec![UNREACHED; id_bound],
            len: 0,
        }
    }

    /// Exclusive upper bound on ids this map can hold.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.dist.len()
    }

    /// Records `d` as the distance of `u`. Inserting a node twice keeps
    /// the latest value (BFS never does; the engine relies on single
    /// assignment only in debug assertions).
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the map's id bound or `d == u32::MAX`.
    #[inline]
    pub fn insert(&mut self, u: NodeId, d: u32) {
        assert!(d != UNREACHED, "u32::MAX is the unreached sentinel");
        let slot = &mut self.dist[u.index()];
        if *slot == UNREACHED {
            self.len += 1;
        }
        *slot = d;
    }

    /// The distance of `u`, or `None` if unreached (or out of bounds).
    #[inline]
    pub fn get(&self, u: NodeId) -> Option<u32> {
        match self.dist.get(u.index()) {
            Some(&d) if d != UNREACHED => Some(d),
            _ => None,
        }
    }

    /// Whether `u` has a recorded distance.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.get(u).is_some()
    }

    /// Number of reached nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node has been reached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(node, distance)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHED)
            .map(|(i, &d)| (NodeId(i as u32), d))
    }

    /// Reached nodes in ascending id order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(u, _)| u)
    }

    /// The largest recorded distance, or `None` when empty.
    pub fn max_distance(&self) -> Option<u32> {
        self.iter().map(|(_, d)| d).max()
    }
}

impl std::ops::Index<NodeId> for DistMap {
    type Output = u32;

    /// # Panics
    ///
    /// Panics if `u` is unreached.
    #[inline]
    fn index(&self, u: NodeId) -> &u32 {
        let d = &self.dist[u.index()];
        assert!(*d != UNREACHED, "node {u} unreached");
        d
    }
}

impl fmt::Debug for DistMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_len() {
        let mut d = DistMap::new(4);
        assert!(d.is_empty());
        d.insert(NodeId(3), 7);
        d.insert(NodeId(0), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(NodeId(3)), Some(7));
        assert_eq!(d.get(NodeId(1)), None);
        assert!(d.contains(NodeId(0)));
        assert!(!d.contains(NodeId(2)));
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let mut d = DistMap::new(2);
        d.insert(NodeId(1), 5);
        d.insert(NodeId(1), 6);
        assert_eq!(d.len(), 1);
        assert_eq!(d[NodeId(1)], 6);
    }

    #[test]
    fn iteration_is_ascending_by_id() {
        let mut d = DistMap::new(6);
        for u in [5u32, 1, 3] {
            d.insert(NodeId(u), u * 10);
        }
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(
            pairs,
            vec![(NodeId(1), 10), (NodeId(3), 30), (NodeId(5), 50)]
        );
        assert_eq!(
            d.keys().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(3), NodeId(5)]
        );
        assert_eq!(d.max_distance(), Some(50));
    }

    #[test]
    fn out_of_bound_get_is_none() {
        let d = DistMap::new(1);
        assert_eq!(d.get(NodeId(9)), None);
    }

    #[test]
    #[should_panic(expected = "unreached")]
    fn index_on_unreached_panics() {
        let d = DistMap::new(3);
        let _ = d[NodeId(1)];
    }

    #[test]
    fn equality_ignores_nothing() {
        let mut a = DistMap::new(3);
        let mut b = DistMap::new(3);
        a.insert(NodeId(1), 2);
        b.insert(NodeId(1), 2);
        assert_eq!(a, b);
        b.insert(NodeId(2), 1);
        assert_ne!(a, b);
    }
}
