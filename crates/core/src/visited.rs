//! Exact loop detection sized by the route, not by the graph.
//!
//! A memoryless, stateless router's next hop is a function of
//! `(s, t, u, v, G_k(u))`, so within one route a repeated
//! `(node, visible predecessor)` state proves an infinite loop.
//! [`VisitedStates`] records the states one route has visited. It is
//! the one loop detector of the workspace: the engine's walk, the
//! simulator's per-message state and the position-based driver all use
//! it.
//!
//! Each state packs into one `u64` key, and the keys live in an
//! open-addressed table (linear probing, a fixed multiplicative hash,
//! power-of-two capacity, doubled at half load). A log beside the table
//! names the slot of each key, so a clear empties those slots and
//! nothing else. Nothing is allocated before the first insert; memory
//! and per-hop work are O(states visited), and a clear costs the states
//! recorded since the last one, not the largest table the set has
//! grown. The hash is a constant and the table is never iterated, so no
//! ordering or seed reaches an output.

use locality_graph::NodeId;

/// A free slot. No state packs to it: that would take node id
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Table slots the first insert allocates (the log adds half as many).
const MIN_SLOTS: usize = 16;

/// Fibonacci hashing multiplier, 2⁶⁴ / φ rounded to odd.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Packs a state: the node in the high half, the predecessor plus one
/// in the low half, so `None` (0) stays distinct from
/// `Some(NodeId(0))` (1). Exact for every id below `u32::MAX`.
fn pack(at: NodeId, from: Option<NodeId>) -> u64 {
    (u64::from(at.0) << 32) | from.map_or(0, |f| u64::from(f.0) + 1)
}

/// The set of `(node, predecessor)` states one route has visited.
///
/// A walk tests and records a state in one [`insert`](Self::insert).
/// `clear` keeps the allocation for the route's next attempt, or the
/// next route; dropping the set returns it.
#[derive(Debug, Default)]
pub struct VisitedStates {
    /// One block, empty until the first insert: the table, a power of
    /// two of packed keys ([`EMPTY`] where free) at most half full, then
    /// the log, half the table's length, whose first `len` entries are
    /// the table slots filled since the last clear.
    slots: Vec<u64>,
    /// Recorded states: occupied table slots, and log entries in use.
    len: usize,
}

impl VisitedStates {
    /// An empty set; allocates nothing.
    pub fn new() -> VisitedStates {
        VisitedStates::default()
    }

    /// Whether the state `(at, from)` has been recorded.
    #[cfg(test)]
    fn contains(&self, at: NodeId, from: Option<NodeId>) -> bool {
        self.has(pack(at, from))
    }

    /// Records the state `(at, from)`. Returns `false` iff it was
    /// already present: the route has looped.
    pub fn insert(&mut self, at: NodeId, from: Option<NodeId>) -> bool {
        let key = pack(at, from);
        if 2 * (self.len + 1) > self.table_len() {
            if self.has(key) {
                return false;
            }
            self.grow();
        }
        // One probe: it ends at the key, or at the free slot it takes.
        let i = self.probe(key);
        if self.slots.get(i) == Some(&key) {
            return false;
        }
        self.put(i, key);
        true
    }

    /// Forgets every state, keeping the allocation. Empties the slots
    /// the log names, so the cost is the states recorded since the last
    /// clear.
    pub fn clear(&mut self) {
        let table_len = self.table_len();
        let (table, log) = self.slots.split_at_mut(table_len);
        for &i in log.get(..self.len).unwrap_or_default() {
            if let Some(slot) = table.get_mut(i as usize) {
                *slot = EMPTY;
            }
        }
        self.len = 0;
    }

    /// Slots in the table: the first two thirds of the block.
    #[inline]
    fn table_len(&self) -> usize {
        self.slots.len() / 3 * 2
    }

    /// Whether `key` is in the table.
    fn has(&self, key: u64) -> bool {
        !self.slots.is_empty() && self.slots.get(self.probe(key)) == Some(&key)
    }

    /// The slot holding `key`, or the free slot that ends its probe
    /// run. The table must be allocated; half load guarantees a free
    /// slot, so the probe terminates.
    fn probe(&self, key: u64) -> usize {
        let slots = self.table_len();
        let mask = slots - 1;
        let shift = 64 - slots.trailing_zeros();
        let mut i = (key.wrapping_mul(HASH) >> shift) as usize;
        while let Some(&k) = self.slots.get(i) {
            if k == key || k == EMPTY {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// Writes `key` into free slot `i`, which ends its probe run (the
    /// caller knows the key is absent and the table has room), and logs
    /// the slot.
    fn put(&mut self, i: usize, key: u64) {
        let entry = self.table_len() + self.len;
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = key;
        }
        if let Some(logged) = self.slots.get_mut(entry) {
            *logged = i as u64;
        }
        self.len += 1;
    }

    /// Doubles the table (or allocates the first [`MIN_SLOTS`]) and
    /// re-places every logged key, in log order.
    fn grow(&mut self) {
        let table = (2 * self.table_len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; table + table / 2]);
        let (old_table, old_log) = old.split_at(old.len() / 3 * 2);
        let count = std::mem::take(&mut self.len);
        for &i in old_log.get(..count).unwrap_or_default() {
            if let Some(&key) = old_table.get(i as usize) {
                self.put(self.probe(key), key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::rng::DetRng;
    use locality_graph::{generators, permute, Graph};
    use std::collections::BTreeSet;

    type Reference = BTreeSet<(NodeId, Option<NodeId>)>;

    /// Inserts into both sets and checks they agree, before and after.
    fn both(set: &mut VisitedStates, reference: &mut Reference, at: NodeId, from: Option<NodeId>) {
        assert_eq!(
            set.contains(at, from),
            reference.contains(&(at, from)),
            "contains ({at:?}, {from:?})"
        );
        assert_eq!(
            set.insert(at, from),
            reference.insert((at, from)),
            "insert ({at:?}, {from:?})"
        );
        assert!(set.contains(at, from));
        assert_eq!(set.len, reference.len());
    }

    #[test]
    fn random_streams_match_btreeset() {
        for (seed, ids) in [(1u64, 4u32), (2, 40), (3, 1000), (4, u32::MAX)] {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut set = VisitedStates::new();
            let mut reference = Reference::new();
            for _ in 0..2000 {
                let at = NodeId(rng.gen_range(0..ids));
                let from = match rng.gen_range(0..3u32) {
                    0 => None,
                    _ => Some(NodeId(rng.gen_range(0..ids))),
                };
                both(&mut set, &mut reference, at, from);
            }
            // Probe states the stream may never have drawn.
            for _ in 0..500 {
                let at = NodeId(rng.gen_range(0..ids));
                let from = Some(NodeId(rng.gen_range(0..ids)));
                assert_eq!(set.contains(at, from), reference.contains(&(at, from)));
            }
        }
    }

    #[test]
    fn no_predecessor_differs_from_node_zero() {
        let mut set = VisitedStates::new();
        assert!(set.insert(NodeId(0), None));
        assert!(!set.contains(NodeId(0), Some(NodeId(0))));
        assert!(set.insert(NodeId(0), Some(NodeId(0))));
        assert!(set.insert(NodeId(1), Some(NodeId(0))));
        assert!(!set.contains(NodeId(1), None));
        assert!(set.insert(NodeId(1), None));
        assert!(!set.insert(NodeId(0), None));
        assert!(!set.insert(NodeId(1), Some(NodeId(0))));
        assert_eq!(set.len, 4);
    }

    #[test]
    fn ids_up_to_the_largest_node_id_stay_exact() {
        let top = u32::MAX - 1;
        let ids = [0, 1, 2, top / 2, top - 1, top];
        let mut set = VisitedStates::new();
        let mut reference = Reference::new();
        for _ in 0..2 {
            for &a in &ids {
                both(&mut set, &mut reference, NodeId(a), None);
                for &f in &ids {
                    both(&mut set, &mut reference, NodeId(a), Some(NodeId(f)));
                }
            }
        }
        assert_eq!(set.len, ids.len() * (ids.len() + 1));
    }

    #[test]
    fn sizes_across_the_growth_steps() {
        for count in [7u32, 8, 9, 15, 16, 17, 33] {
            let mut set = VisitedStates::new();
            assert_eq!(set.len, 0);
            assert_eq!(
                set.slots.capacity(),
                0,
                "nothing allocated before the first insert"
            );
            for i in 0..count {
                assert!(set.insert(NodeId(i), Some(NodeId(i + 1))));
            }
            assert_eq!(set.len, count as usize);
            assert!(set.table_len().is_power_of_two());
            assert!(2 * set.len <= set.table_len(), "at most half full");
            for i in 0..count {
                assert!(set.contains(NodeId(i), Some(NodeId(i + 1))));
                assert!(!set.contains(NodeId(i), None));
                assert!(!set.insert(NodeId(i), Some(NodeId(i + 1))));
            }
            assert!(!set.contains(NodeId(count), Some(NodeId(count + 1))));
        }
    }

    #[test]
    fn clear_forgets_and_accepts_reinserts() {
        let mut set = VisitedStates::new();
        for i in 0..40 {
            assert!(set.insert(NodeId(i), None));
        }
        let slots = set.slots.len();
        set.clear();
        assert_eq!(set.len, 0);
        assert_eq!(set.slots.len(), slots, "clear keeps the allocation");
        for i in 0..40 {
            assert!(!set.contains(NodeId(i), None));
        }
        let mut reference = Reference::new();
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..300 {
            let at = NodeId(rng.gen_range(0..30u32));
            let from = Some(NodeId(rng.gen_range(0..30u32)));
            both(&mut set, &mut reference, at, from);
        }
    }

    #[test]
    fn clears_between_routes_of_every_length_match_btreeset() {
        // Routes long and short in turn, so clears follow tables grown
        // by earlier routes, and growth follows clears.
        let mut rng = DetRng::seed_from_u64(11);
        let mut set = VisitedStates::new();
        for _ in 0..60 {
            set.clear();
            let mut reference = Reference::new();
            let ids = rng.gen_range(1..400u32);
            for _ in 0..rng.gen_range(0..600u32) {
                let at = NodeId(rng.gen_range(0..ids));
                let from =
                    Some(NodeId(rng.gen_range(0..ids))).filter(|_| rng.gen_range(0..4u32) > 0);
                both(&mut set, &mut reference, at, from);
            }
        }
    }

    #[test]
    fn a_long_route_does_not_make_later_clears_cost_more() {
        let mut set = VisitedStates::new();
        for i in 0..5000 {
            assert!(set.insert(NodeId(i), None));
        }
        set.clear();
        let table = set.table_len();
        assert!(table >= 10_000, "the long route grew the table");
        for i in 0..3 {
            assert!(set.insert(NodeId(i), Some(NodeId(i + 1))));
        }
        // Mark every free slot with a value no state packs to (node id
        // `u32::MAX`), so a clear that writes a slot it did not fill
        // shows.
        const MARK: u64 = u64::MAX - 1;
        for slot in set.slots.iter_mut().take(table) {
            if *slot == EMPTY {
                *slot = MARK;
            }
        }
        set.clear();
        let emptied = set.slots.iter().take(table).filter(|&&k| k == EMPTY);
        let marked = set.slots.iter().take(table).filter(|&&k| k == MARK);
        assert_eq!(emptied.count(), 3, "a clear writes the 3 slots filled");
        assert_eq!(marked.count(), table - 3, "and no other slot");
        assert_eq!(set.table_len(), table, "clear keeps the allocation");
    }

    /// Random states on `g`: no predecessor, a neighbour, or any node.
    fn graph_stream(g: &Graph, seed: u64, steps: usize) {
        let n = g.node_count() as u32;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut set = VisitedStates::new();
        let mut reference = Reference::new();
        for _ in 0..steps {
            let at = NodeId(rng.gen_range(0..n));
            let from = match rng.gen_range(0..3u32) {
                0 => None,
                1 => {
                    let adj = g.neighbors(at);
                    adj.get(rng.gen_range(0..adj.len())).copied()
                }
                _ => Some(NodeId(rng.gen_range(0..n))),
            };
            both(&mut set, &mut reference, at, from);
        }
    }

    #[test]
    fn graph_states_match_btreeset_semantics() {
        let g = generators::random_connected(20, 12, &mut DetRng::seed_from_u64(3));
        graph_stream(&g, 4, 500);
    }

    #[test]
    fn adjacency_order_does_not_matter() {
        // Permuted graphs keep adjacency in relabelled insertion order,
        // so neighbour lists are not sorted by id.
        let g = generators::random_connected(16, 10, &mut DetRng::seed_from_u64(9));
        let perm: Vec<NodeId> = (0..16u32).map(|i| NodeId((i * 7 + 3) % 16)).collect();
        let pg = permute::permute_nodes(&g, &perm);
        graph_stream(&pg, 10, 400);
        // Every (node, neighbour) state is distinct, in adjacency order
        // and in reverse.
        let mut forward = VisitedStates::new();
        let mut backward = VisitedStates::new();
        for u in pg.nodes() {
            assert!(forward.insert(u, None));
            for &v in pg.neighbors(u) {
                assert!(forward.insert(u, Some(v)));
            }
        }
        let nodes: Vec<NodeId> = pg.nodes().collect();
        for &u in nodes.iter().rev() {
            for &v in pg.neighbors(u).iter().rev() {
                assert!(backward.insert(u, Some(v)));
            }
            assert!(backward.insert(u, None));
        }
        assert_eq!(forward.len, backward.len);
        for u in pg.nodes() {
            for &v in pg.neighbors(u) {
                assert!(forward.contains(u, Some(v)) && backward.contains(u, Some(v)));
            }
        }
    }

    #[test]
    fn non_neighbor_predecessors_stay_exact() {
        let g = generators::path(4); // 0-1-2-3: (0, from 3) is no edge
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        let mut set = VisitedStates::new();
        assert!(set.insert(NodeId(0), Some(NodeId(3))));
        assert!(!set.insert(NodeId(0), Some(NodeId(3))));
        // ... and does not collide with any neighbour state.
        assert!(set.insert(NodeId(0), None));
        assert!(set.insert(NodeId(0), Some(NodeId(1))));
    }
}
