//! Lemma 1 / Corollary 1 (§4.1): at a node whose local components are
//! all independent and active and whose view contains neither `s` nor
//! `t`, the local routing function of any successful predecessor-aware
//! algorithm is a *circular permutation* of the node's neighbours.
//!
//! This module provides (a) a probe that extracts a router's local
//! routing function `f_u(v)` at such a node and classifies it, and (b)
//! the Fig. 2 constructions that defeat routers violating the lemma
//! (non-surjective maps, fixed points, multi-cycle derangements).

use std::collections::BTreeMap;

use local_routing::engine;
use local_routing::{LocalRouter, LocalView, Packet};
use locality_graph::{generators, Graph, GraphBuilder, Label, NodeId};

/// Classification of a local routing function over `Adj(u)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FunctionKind {
    /// Not surjective onto `Adj(u)` (Lemma 1, Case 1).
    NotSurjective,
    /// A permutation with a fixed point (Case 2).
    NotDerangement,
    /// A derangement with more than one cycle (Case 3).
    NotCircular,
    /// A single cycle covering all of `Adj(u)` — what Lemma 1 demands.
    CircularPermutation,
}

/// Extracts the map `v -> f_u(v)` of `router` at the centre of `view`,
/// with `s` and `t` given as labels outside the view.
///
/// # Panics
///
/// Panics if the router errors at any probe input.
pub fn probe_local_function<R: LocalRouter + ?Sized>(
    router: &R,
    view: &LocalView,
    origin: Label,
    target: Label,
) -> BTreeMap<NodeId, NodeId> {
    let mut f = BTreeMap::new();
    for v in view.center_neighbors() {
        let packet = Packet {
            origin: Some(origin),
            target,
            predecessor: Some(view.label(v)),
        }
        .masked(router.awareness());
        let out = router
            .decide(&packet, view)
            .unwrap_or_else(|e| panic!("probe failed at v={v}: {e}"));
        let out_node = view.node_by_label(out).expect("decision names a neighbour");
        f.insert(v, out_node);
    }
    f
}

/// Classifies a local routing function per Lemma 1's case analysis.
pub fn classify(f: &BTreeMap<NodeId, NodeId>) -> FunctionKind {
    let domain: Vec<NodeId> = f.keys().copied().collect();
    let image: std::collections::BTreeSet<NodeId> = f.values().copied().collect();
    if image.len() != domain.len() || !domain.iter().all(|x| image.contains(x)) {
        return FunctionKind::NotSurjective;
    }
    if f.iter().any(|(a, b)| a == b) {
        return FunctionKind::NotDerangement;
    }
    // Walk the cycle from the first element; circular iff it covers all.
    // An empty map (a centre without neighbours) has no cycle at all.
    let Some(&start) = domain.first() else {
        return FunctionKind::NotCircular;
    };
    let mut seen = 1;
    let mut cur = f[&start];
    while cur != start {
        cur = f[&cur];
        seen += 1;
    }
    if seen == domain.len() {
        FunctionKind::CircularPermutation
    } else {
        FunctionKind::NotCircular
    }
}

/// The Fig. 2 graph: a spider with `legs` legs of `k` nodes around a hub
/// `u` (all components independent and active), with the origin pendant
/// beyond leg `s_leg`'s end and the destination pendant beyond leg
/// `t_leg`'s end.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// The graph.
    pub graph: Graph,
    /// The hub `u`.
    pub hub: NodeId,
    /// Origin (degree 1, outside `G_k(u)`).
    pub s: NodeId,
    /// Destination (degree 1, outside `G_k(u)`).
    pub t: NodeId,
}

/// Builds the Fig. 2 construction.
///
/// # Panics
///
/// Panics unless `legs >= 2`, `k >= 1`, and `s_leg != t_leg < legs`.
pub fn fig2(legs: usize, k: u32, s_leg: usize, t_leg: usize) -> Fig2 {
    assert!(legs >= 2 && k >= 1 && s_leg != t_leg && s_leg < legs && t_leg < legs);
    let spider = generators::spider(legs, k as usize);
    let mut b = GraphBuilder::new();
    for x in spider.nodes() {
        b.add_node(spider.label(x)).expect("fresh labels");
    }
    for (x, y) in spider.edges() {
        b.add_edge(x, y).expect("simple");
    }
    let leg_end = |j: usize| NodeId((1 + j * k as usize + (k as usize - 1)) as u32);
    let next = spider.node_count() as u32;
    let s = b.add_node(Label(next)).expect("fresh");
    b.add_edge(leg_end(s_leg), s).expect("simple");
    let t = b.add_node(Label(next + 1)).expect("fresh");
    b.add_edge(leg_end(t_leg), t).expect("simple");
    Fig2 {
        graph: b.build(),
        hub: NodeId(0),
        s,
        t,
    }
}

/// Runs `router` on every `(s_leg, t_leg)` placement of the Fig. 2
/// construction and returns the first defeating placement, if any.
pub fn defeat_on_fig2<R: LocalRouter + ?Sized>(
    router: &R,
    legs: usize,
    k: u32,
) -> Option<(usize, usize)> {
    for s_leg in 0..legs {
        for t_leg in 0..legs {
            if s_leg == t_leg {
                continue;
            }
            let f = fig2(legs, k, s_leg, t_leg);
            let run = engine::route(&f.graph, k, router, f.s, f.t);
            if !run.status.is_delivered() {
                return Some((s_leg, t_leg));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::{Alg1, Alg1B, Alg2, Awareness, RoutingError};

    /// Router with a fixed-point local function (f(v) = v for one leg).
    struct Reflector;

    impl LocalRouter for Reflector {
        fn name(&self) -> &'static str {
            "reflector"
        }
        fn awareness(&self) -> Awareness {
            Awareness::ORIGIN_OBLIVIOUS
        }
        fn min_locality(&self, _n: usize) -> u32 {
            1
        }
        fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
            if let Some(Some(step)) = view.step_toward_label(packet.target) {
                return Ok(step);
            }
            // Send the message straight back where it came from; first
            // hop goes to the lowest-label neighbour.
            let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
            view.sort_by_label(&mut nbrs);
            match packet.predecessor {
                Some(l) if view.contains_label(l) => Ok(l),
                _ => Ok(view.label(nbrs[0])),
            }
        }
    }

    #[test]
    fn fig2_shape() {
        let f = fig2(3, 4, 0, 2);
        assert_eq!(f.graph.node_count(), 3 * 4 + 3);
        assert_eq!(f.graph.degree(f.hub), 3);
        assert_eq!(f.graph.degree(f.s), 1);
        assert_eq!(f.graph.degree(f.t), 1);
    }

    #[test]
    fn alg1_local_function_is_circular_on_lemma1_views() {
        // At the hub of a spider with independent active components and
        // s, t outside the view, Algorithms 1/1B/2 must produce circular
        // permutations — the positive direction of Lemma 1.
        // Proposition 1 caps the active degree at 3 for Algorithm 1's
        // regime, Proposition 2 at 2 for Algorithm 2's: probe each
        // router at every hub degree its regime allows.
        let k = 3;
        for (router, max_legs) in [
            (&Alg1 as &dyn LocalRouter, 3usize),
            (&Alg1B as &dyn LocalRouter, 3),
            (&Alg2 as &dyn LocalRouter, 2),
        ] {
            for legs in 2..=max_legs {
                let g = generators::spider(legs, k as usize);
                let view = LocalView::extract(&g, NodeId(0), k);
                let f = probe_local_function(&router, &view, Label(900), Label(901));
                assert_eq!(
                    classify(&f),
                    FunctionKind::CircularPermutation,
                    "{} at {legs} legs",
                    router.name()
                );
            }
        }
    }

    #[test]
    fn four_active_legs_exceed_proposition_one() {
        // A spider with four depth-k legs has 4k + 1 > 4k nodes, so
        // k < n/4: Algorithm 1's precondition (Prop. 1) fails and it
        // reports the violation instead of guessing.
        let g = generators::spider(4, 3);
        let view = LocalView::extract(&g, NodeId(0), 3);
        let packet = Packet {
            origin: Some(Label(900)),
            target: Label(901),
            predecessor: Some(view.label(NodeId(1))),
        };
        assert_eq!(
            Alg1.decide(&packet, &view),
            Err(RoutingError::TooManyActiveComponents { found: 4, max: 3 })
        );
    }

    #[test]
    fn reflector_violates_lemma1_and_is_defeated() {
        let g = generators::spider(3, 3);
        let view = LocalView::extract(&g, NodeId(0), 3);
        let f = probe_local_function(&Reflector, &view, Label(900), Label(901));
        assert_eq!(classify(&f), FunctionKind::NotDerangement);
        assert!(defeat_on_fig2(&Reflector, 3, 3).is_some());
    }

    #[test]
    fn lowest_rank_forward_is_not_surjective_and_defeated() {
        use local_routing::baselines::LowestRankForward;
        let g = generators::spider(3, 3);
        let view = LocalView::extract(&g, NodeId(0), 3);
        let f = probe_local_function(&LowestRankForward, &view, Label(900), Label(901));
        assert_eq!(classify(&f), FunctionKind::NotSurjective);
        assert!(defeat_on_fig2(&LowestRankForward, 3, 3).is_some());
    }

    #[test]
    fn classify_detects_multi_cycle_derangements() {
        let mut f = BTreeMap::new();
        // Two 2-cycles on four neighbours.
        f.insert(NodeId(1), NodeId(2));
        f.insert(NodeId(2), NodeId(1));
        f.insert(NodeId(3), NodeId(4));
        f.insert(NodeId(4), NodeId(3));
        assert_eq!(classify(&f), FunctionKind::NotCircular);
        // No neighbours: no single cycle, and no panic.
        assert_eq!(classify(&BTreeMap::new()), FunctionKind::NotCircular);
    }

    #[test]
    fn alg1_survives_all_fig2_placements() {
        // n = 3k + 3 here, so k = ceil(n/4) keeps the algorithm in its
        // guaranteed regime: k=3, n=12 requires k >= 3.
        assert_eq!(defeat_on_fig2(&Alg1, 3, 3), None);
    }
}
