//! Adversarial relabelling (§1.1).
//!
//! The paper assumes vertex labels are independent of the topology: a
//! routing algorithm must succeed under *any* permutation of the labels.
//! These helpers rewrite a graph's labels while preserving structure, so
//! test suites can check label-permutation robustness.

use crate::rng::DetRng;

use crate::graph::{Graph, GraphBuilder};
use crate::labels::{Label, NodeId};

/// Returns a structurally identical graph whose node `i` carries label
/// `perm[i]` instead of its original label.
///
/// # Panics
///
/// Panics if `perm` has the wrong length or contains duplicates.
pub fn relabel(g: &Graph, perm: &[Label]) -> Graph {
    assert_eq!(perm.len(), g.node_count(), "permutation length mismatch");
    let mut b = GraphBuilder::new();
    for &l in perm {
        b.add_node(l).expect("labels in a permutation are unique");
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v).expect("relabelling preserves simplicity");
    }
    b.build()
}

/// Applies a uniformly random permutation of the labels `0..n`.
pub fn random_relabel(g: &Graph, rng: &mut DetRng) -> Graph {
    let mut labels: Vec<Label> = (0..g.node_count() as u32).map(Label).collect();
    rng.shuffle(&mut labels);
    relabel(g, &labels)
}

/// Reverses the identity labelling (`i -> n-1-i`): a cheap deterministic
/// adversarial permutation that flips every rank comparison.
pub fn reverse_labels(g: &Graph) -> Graph {
    let n = g.node_count() as u32;
    let labels: Vec<Label> = (0..n).map(|i| Label(n - 1 - i)).collect();
    relabel(g, &labels)
}

/// Returns an isomorphic copy in which old node `u` occupies slot
/// `perm[u.index()]` and *keeps its label*; edges map through `perm`.
///
/// This is the complement of [`relabel`]: there the labels move and the
/// numbering stays, here the internal numbering moves and each
/// topological role keeps its label. Since the paper's model lets a
/// router see only labels (§1.1), a conforming router must behave
/// *identically* on both graphs — making this the equivariance probe
/// for hidden dependence on node numbering, memory layout, or
/// container iteration order.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n`.
pub fn permute_nodes(g: &Graph, perm: &[NodeId]) -> Graph {
    assert_eq!(perm.len(), g.node_count(), "permutation length mismatch");
    let mut slots: Vec<(NodeId, Label)> =
        g.nodes().map(|u| (perm[u.index()], g.label(u))).collect();
    slots.sort_unstable_by_key(|&(slot, _)| slot);
    assert!(
        slots
            .iter()
            .enumerate()
            .all(|(i, &(slot, _))| slot.index() == i),
        "perm must be a permutation of 0..n"
    );
    let mut b = GraphBuilder::new();
    for (_, l) in slots {
        b.add_node(l)
            .expect("a permuted node keeps its unique label");
    }
    for (u, v) in g.edges() {
        b.add_edge(perm[u.index()], perm[v.index()])
            .expect("a node permutation preserves simplicity");
    }
    b.build()
}

/// Applies a uniformly random node permutation; returns the permuted
/// graph together with the old-id to new-id map.
pub fn random_permute_nodes(g: &Graph, rng: &mut DetRng) -> (Graph, Vec<NodeId>) {
    let mut perm: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
    rng.shuffle(&mut perm);
    let h = permute_nodes(g, &perm);
    (h, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::DetRng;
    use crate::traversal;

    #[test]
    fn relabel_preserves_structure() {
        let g = generators::cycle(6);
        let h = reverse_labels(&g);
        assert_eq!(h.node_count(), 6);
        assert_eq!(h.edge_count(), 6);
        assert_eq!(h.label(NodeId(0)), Label(5));
        assert!(h.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(traversal::diameter(&h), traversal::diameter(&g));
    }

    #[test]
    fn random_relabel_is_permutation() {
        let g = generators::path(10);
        let mut rng = DetRng::seed_from_u64(1);
        let h = random_relabel(&g, &mut rng);
        let mut labels: Vec<u32> = h.nodes().map(|u| h.label(u).value()).collect();
        labels.sort_unstable();
        assert_eq!(labels, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relabel_rejects_wrong_length() {
        let g = generators::path(3);
        relabel(&g, &[Label(0)]);
    }

    #[test]
    fn permute_nodes_preserves_labels_per_role() {
        let g = generators::lollipop(5, 3);
        let mut rng = DetRng::seed_from_u64(7);
        let (h, perm) = random_permute_nodes(&g, &mut rng);
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        for u in g.nodes() {
            let hu = perm[u.index()];
            assert_eq!(h.label(hu), g.label(u), "labels ride with their role");
            let mut old_nbr_labels: Vec<Label> =
                g.neighbors(u).iter().map(|&v| g.label(v)).collect();
            let mut new_nbr_labels: Vec<Label> =
                h.neighbors(hu).iter().map(|&v| h.label(v)).collect();
            old_nbr_labels.sort_unstable();
            new_nbr_labels.sort_unstable();
            assert_eq!(old_nbr_labels, new_nbr_labels);
        }
    }

    #[test]
    #[should_panic(expected = "permutation of 0..n")]
    fn permute_nodes_rejects_non_permutations() {
        let g = generators::path(3);
        permute_nodes(&g, &[NodeId(0), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn neighbor_order_follows_new_labels() {
        // After reversing labels, neighbour lists re-sort by new labels.
        let g = generators::star(4);
        let h = reverse_labels(&g);
        let nbr_labels: Vec<Label> = h.neighbors(NodeId(0)).iter().map(|&v| h.label(v)).collect();
        let mut sorted = nbr_labels.clone();
        sorted.sort_unstable();
        assert_eq!(nbr_labels, sorted);
    }
}
