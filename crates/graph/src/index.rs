//! Compact index layer: parent [`NodeId`] ⇄ dense `u32` slot.
//!
//! A [`Subgraph`](crate::Subgraph) holds a sparse subset of a parent
//! graph's nodes. [`IndexMap`] gives that subset dense, contiguous slot
//! numbers so per-node side data (labels, distances, CSR offsets) can
//! live in flat `Vec`s instead of tree maps. Slot → parent reads the
//! sorted member list; parent → slot is an array index for dense
//! subsets and a binary search over the member list for sparse ones
//! (the representation is picked automatically by density).

use crate::labels::NodeId;

const ABSENT: u32 = u32::MAX;

/// Above this many table entries per member the dense id → slot table
/// is dropped in favour of binary search over the members. The table is
/// sized by the largest member id, so without this cap a small `G_k(u)`
/// of a large parent would allocate and zero-fill memory in proportion
/// to the parent rather than to what the view can see.
const DENSE_FACTOR: usize = 4;

/// Bidirectional map between sparse parent [`NodeId`]s and dense slots.
///
/// Members are stored in ascending `NodeId` order, so slot order equals
/// id order — iterating slots `0..len` recovers the deterministic
/// ascending iteration the tree-map representation used to provide.
///
/// ```
/// use locality_graph::{IndexMap, NodeId};
///
/// let idx = IndexMap::from_sorted_ids(vec![NodeId(2), NodeId(5), NodeId(9)], 12);
/// assert_eq!(idx.len(), 3);
/// assert_eq!(idx.slot_of(NodeId(5)), Some(1));
/// assert_eq!(idx.id_of(1), NodeId(5));
/// assert_eq!(idx.slot_of(NodeId(3)), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexMap {
    /// parent id → slot, `ABSENT` when the id is not a member. Left
    /// empty when the map is sparse (see [`DENSE_FACTOR`]); lookups
    /// then binary-search `members`. The choice is a pure function of
    /// `(members, id_bound)`, so equal inputs stay `==`.
    slots: Vec<u32>,
    /// slot → parent id, ascending.
    members: Vec<NodeId>,
    /// Exclusive upper bound on parent ids, independent of whether the
    /// dense table is materialised.
    id_bound: usize,
}

impl IndexMap {
    /// Builds the map from a strictly ascending list of member ids.
    /// `id_bound` is an exclusive upper bound on parent id values.
    ///
    /// # Panics
    ///
    /// Panics if `members` is not strictly ascending or contains an id
    /// at or above `id_bound`.
    pub fn from_sorted_ids(members: Vec<NodeId>, id_bound: usize) -> Self {
        for w in members.windows(2) {
            assert!(w[0] < w[1], "IndexMap members must be strictly ascending");
        }
        if let Some(&last) = members.last() {
            // Ascending order makes the last member the maximum, so
            // one comparison bounds them all.
            assert!(
                last.index() < id_bound,
                "member {last} outside id_bound {id_bound}"
            );
        }
        let mut slots = Vec::new();
        if id_bound <= members.len().saturating_mul(DENSE_FACTOR) {
            slots = vec![ABSENT; id_bound];
            for (slot, &u) in members.iter().enumerate() {
                slots[u.index()] = slot as u32;
            }
        }
        IndexMap {
            slots,
            members,
            id_bound,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the map has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Exclusive upper bound on parent ids this map can answer for.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.id_bound
    }

    /// The dense slot of parent id `u`, or `None` if `u` is not a member.
    #[inline]
    pub fn slot_of(&self, u: NodeId) -> Option<usize> {
        if self.slots.is_empty() {
            // Sparse representation: members are sorted ascending and
            // slot order equals id order, so the found position *is*
            // the slot.
            return self.members.binary_search(&u).ok();
        }
        match self.slots.get(u.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Whether `u` is a member.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.slot_of(u).is_some()
    }

    /// The parent id stored in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn id_of(&self, slot: usize) -> NodeId {
        self.members[slot]
    }

    /// The member ids in ascending order (slot order).
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_both_directions() {
        let ids = vec![NodeId(0), NodeId(3), NodeId(4), NodeId(7)];
        let idx = IndexMap::from_sorted_ids(ids.clone(), 8);
        for (slot, &u) in ids.iter().enumerate() {
            assert_eq!(idx.slot_of(u), Some(slot));
            assert_eq!(idx.id_of(slot), u);
        }
        assert_eq!(idx.len(), 4);
        assert!(!idx.contains(NodeId(1)));
        assert_eq!(idx.slot_of(NodeId(1)), None);
    }

    #[test]
    fn out_of_bound_ids_are_absent() {
        let idx = IndexMap::from_sorted_ids(vec![NodeId(1)], 2);
        assert_eq!(idx.slot_of(NodeId(99)), None);
    }

    #[test]
    fn empty_map() {
        let idx = IndexMap::from_sorted_ids(Vec::new(), 0);
        assert!(idx.is_empty());
        assert_eq!(idx.members(), &[]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_members_panic() {
        IndexMap::from_sorted_ids(vec![NodeId(2), NodeId(1)], 4);
    }

    #[test]
    fn sparse_and_dense_representations_agree() {
        // Same member set indexed under a tight bound (dense table)
        // and a loose bound (binary search): every lookup must agree,
        // and id_bound must report what the caller passed either way.
        let packed = IndexMap::from_sorted_ids(vec![NodeId(0), NodeId(1), NodeId(2)], 3);
        assert_eq!(packed.slot_of(NodeId(1)), Some(1));
        assert_eq!(packed.id_bound(), 3);

        let ids = vec![NodeId(2), NodeId(40), NodeId(41), NodeId(900)];
        let sparse = IndexMap::from_sorted_ids(ids.clone(), 2048);
        assert_eq!(sparse.id_bound(), 2048);
        for (slot, &u) in ids.iter().enumerate() {
            assert_eq!(sparse.slot_of(u), Some(slot), "member {u}");
            assert_eq!(sparse.id_of(slot), u);
        }
        for probe in [0u32, 3, 39, 42, 899, 901, 2047, 100_000] {
            assert_eq!(sparse.slot_of(NodeId(probe)), None, "non-member {probe}");
        }
    }
}
