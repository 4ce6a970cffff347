//! Theorem 3 / Corollary 2 (§4.4–4.5): for every `k < ⌊n/2⌋`, every
//! predecessor-oblivious k-local routing algorithm (origin-aware or not)
//! fails on some connected graph — witnessed by a pair of paths.
//!
//! Both graphs are paths on `n` nodes with the origin `s` placed so that
//! `r = ⌊n/2⌋ - 1` consistently-labelled nodes sit to its left; in `G1`
//! the destination `t` is the far right end, in `G2` it is moved to the
//! far left end. For `k <= r` the k-neighbourhood of `s` (indeed, of
//! every node the message can reach before committing) is identical in
//! both graphs, so a predecessor-oblivious algorithm — whose decision at
//! each node is a *constant* once `(s, t)` are fixed — sends the message
//! the same way in both, and in one of them must eventually turn around,
//! at which point its behaviour is provably cyclic.

use locality_graph::{Graph, GraphBuilder, Label, NodeId};

/// The Theorem 3 pair of paths.
#[derive(Clone, Debug)]
pub struct InstancePair {
    /// `t` at the right end.
    pub g1: Graph,
    /// `t` at the left end.
    pub g2: Graph,
    /// The origin (same id and label in both graphs).
    pub s: NodeId,
    /// The destination node in `g1`.
    pub t1: NodeId,
    /// The destination node in `g2`.
    pub t2: NodeId,
    /// `r = ⌊n/2⌋ - 1`: nodes to the left of `s` shared by both graphs.
    pub r: usize,
}

/// Label shared by the destination in both graphs (distinct from every
/// positional label).
pub const T_LABEL: Label = Label(1_000_000);

/// Builds the pair on `n >= 4` nodes.
///
/// Layout of `g1`: `x1 - … - xr - s - y1 - … - y_{n-r-2} - t`.
/// Layout of `g2`: `t - x1 - … - xr - s - y1 - … - y_{n-r-2}`.
/// All `xi`, `yi`, and `s` carry identical labels in both graphs; `t`
/// carries [`T_LABEL`] in both.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn instance_pair(n: usize) -> InstancePair {
    assert!(n >= 4, "Theorem 3 pair needs n >= 4");
    let r = n / 2 - 1;
    let shared = n - 1; // nodes other than t
    let build = |t_left: bool| -> (Graph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        // Shared chain: labels 0..shared in path order (x's, s, y's).
        let mut chain = Vec::with_capacity(shared);
        for i in 0..shared {
            chain.push(b.add_node(Label(i as u32)).expect("unique labels"));
        }
        for w in chain.windows(2) {
            b.add_edge(w[0], w[1]).expect("simple");
        }
        let t = b.add_node(T_LABEL).expect("unique label");
        if t_left {
            b.add_edge(t, chain[0]).expect("simple");
        } else {
            b.add_edge(chain[shared - 1], t).expect("simple");
        }
        (b.build(), chain[r], t)
    };
    let (g1, s1, t1) = build(false);
    let (g2, s2, t2) = build(true);
    debug_assert_eq!(s1, s2);
    InstancePair {
        g1,
        g2,
        s: s1,
        t1,
        t2,
        r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ArrowRouter;
    use local_routing::engine;
    use local_routing::{Alg3, LocalRouter, LocalView};
    use locality_graph::traversal;

    #[test]
    fn construction_shape() {
        let p = instance_pair(10);
        assert_eq!(p.r, 4);
        for g in [&p.g1, &p.g2] {
            assert_eq!(g.node_count(), 10);
            assert!(traversal::is_connected(g));
            assert_eq!(traversal::diameter(g), Some(9));
        }
        assert_eq!(traversal::distance(&p.g1, p.s, p.t1), Some(5));
        assert_eq!(traversal::distance(&p.g2, p.s, p.t2), Some(5));
    }

    #[test]
    fn origin_views_identical_up_to_k_below_threshold() {
        let p = instance_pair(12);
        for k in 1..=(p.r as u32) {
            let v1 = LocalView::extract(&p.g1, p.s, k).fingerprint();
            let v2 = LocalView::extract(&p.g2, p.s, k).fingerprint();
            assert_eq!(v1, v2, "views differ at k={k}");
        }
        // One hop beyond the threshold the views finally differ.
        let k = p.r as u32 + 1;
        let v1 = LocalView::extract(&p.g1, p.s, k).fingerprint();
        let v2 = LocalView::extract(&p.g2, p.s, k).fingerprint();
        assert_ne!(v1, v2);
    }

    #[test]
    fn every_arrow_strategy_fails_on_one_of_the_pair() {
        // Exhaustively enumerate the direction choices on the nodes the
        // message can actually reach before turning (a representative
        // slice of all predecessor-oblivious behaviours on the pair):
        // direction at s and default elsewhere.
        let p = instance_pair(12);
        let k = p.r as u32;
        for s_high in [false, true] {
            for default_high in [false, true] {
                let mut arrows = std::collections::BTreeMap::new();
                arrows.insert(p.g1.label(p.s), s_high);
                let router = ArrowRouter::new(arrows, default_high);
                let r1 = engine::route(&p.g1, k, &router, p.s, p.t1);
                let r2 = engine::route(&p.g2, k, &router, p.s, p.t2);
                assert!(
                    !(r1.status.is_delivered() && r2.status.is_delivered()),
                    "strategy (s_high={s_high}, default={default_high}) beat both graphs"
                );
            }
        }
    }

    #[test]
    fn alg3_below_threshold_fails_on_one_of_the_pair() {
        let p = instance_pair(12);
        let k = Alg3.min_locality(12) - 1;
        let r1 = engine::route(&p.g1, k, &Alg3, p.s, p.t1);
        let r2 = engine::route(&p.g2, k, &Alg3, p.s, p.t2);
        assert!(!(r1.status.is_delivered() && r2.status.is_delivered()));
    }

    #[test]
    fn alg3_at_threshold_beats_both() {
        let p = instance_pair(12);
        let k = Alg3.min_locality(12);
        let r1 = engine::route(&p.g1, k, &Alg3, p.s, p.t1);
        let r2 = engine::route(&p.g2, k, &Alg3, p.s, p.t2);
        assert!(r1.status.is_delivered() && r2.status.is_delivered());
        assert_eq!(r1.dilation(), Some(1.0));
        assert_eq!(r2.dilation(), Some(1.0));
    }
}
