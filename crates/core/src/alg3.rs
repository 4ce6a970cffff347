//! Algorithm 3 (§5.3): origin-oblivious, predecessor-oblivious
//! (⌊n/2⌋)-local routing that follows a shortest path (Theorem 8).
//!
//! With `k >= ⌊n/2⌋`, Lemma 12 shows that at every node either the
//! destination is visible or the view has exactly one *constrained*
//! active component. In the latter case every path to the destination
//! passes through the constraint vertices, so walking toward the
//! furthest constraint vertex shrinks `dist(u, t)` by one per hop:
//! `dist(u, t) = dist(u, w) + dist(w, t)`. No preprocessing, no
//! predecessor, no origin — and the route is a shortest path (dilation 1).

use locality_graph::Label;

use crate::error::RoutingError;
use crate::model::{Awareness, Packet};
use crate::traits::{case_1, LocalRouter};
use crate::view::LocalView;

/// Algorithm 3: fully oblivious shortest-path routing for `k >= ⌊n/2⌋`.
///
/// ```
/// use local_routing::{engine, Alg3, LocalRouter};
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::path(11);
/// let k = Alg3.min_locality(11); // 5
/// let report = engine::route(&g, k, &Alg3, NodeId(0), NodeId(10));
/// assert!(report.status.is_delivered());
/// assert_eq!(report.dilation(), Some(1.0)); // always a shortest path
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Alg3;

impl LocalRouter for Alg3 {
    fn name(&self) -> &'static str {
        "algorithm-3"
    }

    fn awareness(&self) -> Awareness {
        Awareness::OBLIVIOUS
    }

    fn min_locality(&self, n: usize) -> u32 {
        (n / 2) as u32
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        self.decide_explained(packet, view).map(|(label, _)| label)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        // Case 1: the destination is visible — step along a shortest path.
        if let Some(decision) = case_1(packet, view) {
            return decision;
        }

        // Case 2: by Lemma 12 the raw view has exactly one constrained
        // active component; walk toward its furthest constraint vertex.
        let analysis = view.raw_analysis();
        let mut constrained = analysis.active_components().filter(|c| c.is_constrained());
        let comp = constrained
            .next()
            .ok_or(RoutingError::NoConstrainedComponent)?;
        if constrained.next().is_some() || analysis.active_components().count() > 1 {
            return Err(RoutingError::TooManyActiveComponents {
                found: analysis.active_components().count(),
                max: 1,
            });
        }
        // The analysis searched `G_k(u)`, so it holds each vertex's depth.
        let depth = |w| view.raw().slot_of(w).and_then(|s| analysis.dist.get(s));
        let far = comp
            .constraint_vertices
            .iter()
            .copied()
            .max_by_key(|&w| (depth(w), std::cmp::Reverse(view.label(w))))
            .expect("constrained component has a constraint vertex");
        let step = view.shortest_step_toward(far).ok_or_else(|| {
            RoutingError::ProtocolViolation("constraint vertex unreachable in view".into())
        })?;
        Ok((view.label(step), "case-2"))
    }
}

/// The Corollary 5 router: origin-aware, predecessor-oblivious.
///
/// "Providing knowledge of the origin cannot hinder an origin-oblivious
/// routing algorithm" — this router *is* Algorithm 3, but declares
/// [`Awareness::PREDECESSOR_OBLIVIOUS`] so the engine hands it the
/// origin (which it then has no reason to consult). It exists to make
/// the fourth cell of Table 1 an explicit artifact with its own
/// threshold `T(n) = ⌊n/2⌋`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Alg3OriginAware;

impl LocalRouter for Alg3OriginAware {
    fn name(&self) -> &'static str {
        "algorithm-3-origin-aware"
    }

    fn awareness(&self) -> Awareness {
        Awareness::PREDECESSOR_OBLIVIOUS
    }

    fn min_locality(&self, n: usize) -> u32 {
        Alg3.min_locality(n)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        self.decide_explained(packet, view).map(|(label, _)| label)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        // Degrade gracefully to the origin-oblivious decision, rules and
        // all.
        let oblivious = Packet {
            origin: None,
            ..*packet
        };
        Alg3.decide_explained(&oblivious, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use locality_graph::rng::DetRng;
    use locality_graph::{generators, permute, NodeId};

    fn assert_shortest_everywhere(g: &locality_graph::Graph, k: u32) {
        let m = engine::delivery_matrix(g, k, &Alg3);
        assert!(
            m.all_delivered(),
            "algorithm-3 failed on {g:?} with k={k}: {:?}",
            m.failures.first()
        );
        if let Some((d, s, t)) = m.worst_dilation {
            assert_eq!(d, 1.0, "route not shortest at ({s},{t}) on {g:?}");
        }
    }

    #[test]
    fn shortest_paths_on_basic_families() {
        for g in [
            generators::path(9),
            generators::path(10),
            generators::cycle(9),
            generators::cycle(10),
            generators::spider(3, 3),
            generators::lollipop(6, 4),
            generators::theta(&[2, 3, 4]),
            generators::grid(3, 3),
        ] {
            assert_shortest_everywhere(&g, Alg3.min_locality(g.node_count()));
        }
    }

    #[test]
    fn survives_label_permutations() {
        let mut rng = DetRng::seed_from_u64(271828);
        for _ in 0..12 {
            let n = rng.gen_range(2..15);
            let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
            assert_shortest_everywhere(&g, Alg3.min_locality(n));
        }
    }

    #[test]
    fn threshold_is_floor_n_over_2() {
        assert_eq!(Alg3.min_locality(9), 4);
        assert_eq!(Alg3.min_locality(10), 5);
    }

    #[test]
    fn below_threshold_fails_on_a_path() {
        // Theorem 3's intuition: with k < ⌊n/2⌋ on a path, s cannot tell
        // which side t is on; Algorithm 3 errs or loops on one side.
        let g = generators::path(10);
        let k = Alg3.min_locality(10) - 1;
        let m = engine::delivery_matrix(&g, k, &Alg3);
        assert!(!m.all_delivered());
    }

    #[test]
    fn corollary5_router_matches_alg3_exactly() {
        let mut rng = DetRng::seed_from_u64(55);
        for _ in 0..8 {
            let n = rng.gen_range(2..14);
            let g = generators::random_mixed(n, &mut rng);
            let k = Alg3OriginAware.min_locality(n);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let a = engine::route(&g, k, &Alg3, s, t);
                    let b = engine::route(&g, k, &Alg3OriginAware, s, t);
                    assert!(b.status.is_delivered());
                    assert_eq!(a.route, b.route);
                    assert_eq!(a.rules, b.rules);
                }
            }
        }
    }

    #[test]
    fn corollary5_awareness_is_predecessor_oblivious() {
        assert_eq!(
            Alg3OriginAware.awareness(),
            Awareness::PREDECESSOR_OBLIVIOUS
        );
    }

    #[test]
    fn is_fully_oblivious() {
        // decide() must work with both optional fields masked.
        let g = generators::path(9);
        let view = LocalView::extract(&g, NodeId(0), 4);
        let p = Packet {
            origin: None,
            target: Label(8),
            predecessor: None,
        };
        assert_eq!(Alg3.decide(&p, &view).unwrap(), Label(1));
    }
}
