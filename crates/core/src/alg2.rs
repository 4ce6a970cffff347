//! Algorithm 2 (§5.2): origin-oblivious, predecessor-aware (n/3)-local
//! routing with dilation at most 3 (Theorem 7) — optimal by Theorem 4.
//!
//! For `k >= n/3` every node has active degree at most 2 in `G'_k(u)`
//! (Proposition 2), so the origin reference point of Algorithm 1 is not
//! needed: a message simply passes straight through two-active nodes
//! (rule U2), reverses at one-active nodes (rule U1), and climbs out of
//! passive components along any active edge.

use locality_graph::Label;

use crate::error::RoutingError;
use crate::model::{Awareness, Packet};
use crate::traits::{ceil_div, LocalRouter};
use crate::view::LocalView;

/// Algorithm 2: origin-oblivious, predecessor-aware, succeeds on every
/// connected graph when `k >= n/3`, dilation < 3.
///
/// ```
/// use local_routing::{engine, Alg2, LocalRouter};
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::cycle(12);
/// let k = Alg2.min_locality(g.node_count()); // 4
/// let report = engine::route(&g, k, &Alg2, NodeId(0), NodeId(6));
/// assert!(report.status.is_delivered());
/// assert!(report.dilation().unwrap() < 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Alg2;

impl LocalRouter for Alg2 {
    fn name(&self) -> &'static str {
        "algorithm-2"
    }

    fn awareness(&self) -> Awareness {
        Awareness::ORIGIN_OBLIVIOUS
    }

    fn min_locality(&self, n: usize) -> u32 {
        ceil_div(n, 3)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        self.decide_explained(packet, view).map(|(label, _)| label)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        // Case 1: dist(u, t) <= k.
        if let Some(step) = view.step_toward_label(packet.target) {
            return match step {
                Some(step) => Ok((step, "case-1")),
                None if packet.target == view.center_label() => {
                    Err(RoutingError::ProtocolViolation(
                        "asked to forward a message already at its destination".into(),
                    ))
                }
                None => Err(RoutingError::ProtocolViolation(
                    "destination visible but unreachable".into(),
                )),
            };
        }

        let active = view.routing_view().active();
        if active.is_empty() {
            return Err(RoutingError::NoActiveComponent);
        }
        if active.len() > 2 {
            return Err(RoutingError::TooManyActiveComponents {
                found: active.len(),
                max: 2,
            });
        }

        let v = packet
            .predecessor
            .and_then(|l| view.node_by_label(l))
            .filter(|p| view.raw().has_edge(view.center(), *p));

        let (next, rule) = match v {
            // Case 2: first send from the origin — any active edge. A
            // predecessor that is not adjacent (the message crossed a
            // link that has since died) counts as none.
            None => (active[0], "case-2"),
            Some(v) => match active.len() {
                // Rule U1: reverse.
                1 => (active[0], "U1"),
                // Rule U2: pass through; arrivals from passive
                // components take any active edge.
                _ => {
                    if v == active[0] {
                        (active[1], "U2")
                    } else {
                        // From the second port or a passive neighbour:
                        // out the first.
                        (active[0], "U2")
                    }
                }
            },
        };
        Ok((view.label(next), rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use locality_graph::rng::DetRng;
    use locality_graph::{generators, permute};

    fn assert_all_delivered(g: &locality_graph::Graph, k: u32) {
        let m = engine::delivery_matrix(g, k, &Alg2);
        assert!(
            m.all_delivered(),
            "algorithm-2 failed on {g:?} with k={k}: {:?}",
            m.failures.first()
        );
        if let Some((d, s, t)) = m.worst_dilation {
            assert!(d < 3.0, "dilation {d} >= 3 at ({s},{t}) on {g:?}");
        }
    }

    #[test]
    fn delivers_on_basic_families() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::spider(3, 3),
            generators::lollipop(7, 3),
            generators::theta(&[2, 3, 3]),
            generators::complete(7),
            generators::grid(3, 3),
        ] {
            assert_all_delivered(&g, Alg2.min_locality(g.node_count()));
        }
    }

    #[test]
    fn survives_label_permutations() {
        let mut rng = DetRng::seed_from_u64(31337);
        for _ in 0..12 {
            let n = rng.gen_range(3..16);
            let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
            assert_all_delivered(&g, Alg2.min_locality(n));
        }
    }

    #[test]
    fn origin_is_masked_by_engine() {
        // Run via the engine and also call decide directly with a masked
        // packet: both paths must agree, proving the router never needed
        // the origin.
        let g = generators::cycle(9);
        let k = Alg2.min_locality(9);
        let view = LocalView::extract(&g, locality_graph::NodeId(0), k);
        let p = Packet {
            origin: None,
            target: Label(5),
            predecessor: Some(Label(1)),
        };
        let choice = Alg2.decide(&p, &view).unwrap();
        assert!(choice == Label(1) || choice == Label(8));
    }

    #[test]
    fn non_adjacent_predecessor_is_named_as_a_first_send() {
        // The predecessor label 2 is in node 0's view of cycle(12) but
        // not adjacent to it, as after a link that died mid-flight:
        // the first-send branch fires, and the explanation says so.
        let g = generators::cycle(12);
        let view = LocalView::extract(&g, locality_graph::NodeId(0), 4);
        let p = Packet {
            origin: None,
            target: Label(6),
            predecessor: Some(Label(2)),
        };
        let first = Packet {
            predecessor: None,
            ..p
        };
        assert_eq!(Alg2.decide(&p, &view), Ok(Label(1)));
        assert_eq!(Alg2.decide_explained(&p, &view), Ok((Label(1), "case-2")));
        assert_eq!(
            Alg2.decide_explained(&first, &view),
            Ok((Label(1), "case-2"))
        );
    }

    #[test]
    fn threshold_is_ceil_n_over_3() {
        assert_eq!(Alg2.min_locality(9), 3);
        assert_eq!(Alg2.min_locality(10), 4);
    }

    #[test]
    fn shortest_path_when_target_visible() {
        let g = generators::path(8);
        let k = Alg2.min_locality(8);
        let r = engine::route(
            &g,
            k,
            &Alg2,
            locality_graph::NodeId(1),
            locality_graph::NodeId(3),
        );
        assert_eq!(r.hops(), 2);
        assert_eq!(r.dilation(), Some(1.0));
    }
}
