//! Position-based routing comparators (§3): greedy and compass routing.
//!
//! These operate in the *location-aware* model the related work uses —
//! every node knows its own and its neighbours' coordinates and the
//! destination's coordinates — which is strictly more information than
//! the paper's position-oblivious model provides. They are
//! 1-local, predecessor-oblivious, origin-oblivious, and still fail on
//! general graphs (greedy gets stuck in local minima; compass can
//! cycle), which is precisely the paper's motivation for asking what
//! position-*oblivious* algorithms can do as `k` grows.

use locality_graph::geo::{EmbeddedGraph, Point};
use locality_graph::NodeId;

use crate::visited::VisitedStates;

/// A position-based 1-local routing rule: given the current node's
/// position, its neighbours' positions, and the destination's position,
/// choose the next hop (`None` = stuck).
pub trait PositionRouter {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// The forwarding decision.
    fn decide(&self, here: Point, neighbors: &[(NodeId, Point)], target: Point) -> Option<NodeId>;
}

/// Greedy routing (Finn): forward to the neighbour strictly closest to
/// the destination; stuck when no neighbour improves on the current
/// distance (a *local minimum* / void).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyRouter;

impl PositionRouter for GreedyRouter {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide(&self, here: Point, neighbors: &[(NodeId, Point)], target: Point) -> Option<NodeId> {
        let d_here = here.dist(target);
        neighbors
            .iter()
            .filter(|(_, p)| p.dist(target) < d_here)
            .min_by(|(_, a), (_, b)| a.dist(target).total_cmp(&b.dist(target)))
            .map(|&(x, _)| x)
    }
}

/// Compass routing (Kranakis–Singh–Urrutia): forward along the edge
/// forming the smallest angle with the segment to the destination.
/// Never stuck, but can cycle forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompassRouter;

impl PositionRouter for CompassRouter {
    fn name(&self) -> &'static str {
        "compass"
    }

    fn decide(&self, here: Point, neighbors: &[(NodeId, Point)], target: Point) -> Option<NodeId> {
        neighbors
            .iter()
            .min_by(|(_, a), (_, b)| {
                here.angle_between(*a, target)
                    .total_cmp(&here.angle_between(*b, target))
            })
            .map(|&(x, _)| x)
    }
}

/// Why a position-based run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PositionRunStatus {
    /// Reached the destination.
    Delivered,
    /// The rule returned `None` (greedy's local minimum).
    Stuck(NodeId),
    /// The current node repeated: the memoryless rule cycles forever.
    LoopDetected,
}

/// Outcome of a position-based run.
#[derive(Clone, Debug)]
pub struct PositionRunReport {
    /// Why the run ended.
    pub status: PositionRunStatus,
    /// The walk taken.
    pub route: Vec<NodeId>,
}

impl PositionRunReport {
    /// Whether the message arrived.
    pub fn delivered(&self) -> bool {
        self.status == PositionRunStatus::Delivered
    }
}

/// Drives a position router from `s` to `t` on an embedded graph.
/// These rules are memoryless and predecessor-oblivious, so a repeated
/// current node proves an infinite loop.
pub fn route_position<R: PositionRouter>(
    g: &EmbeddedGraph,
    router: &R,
    s: NodeId,
    t: NodeId,
) -> PositionRunReport {
    let target = g.position(t);
    let mut current = s;
    let mut route = vec![s];
    let mut visited = VisitedStates::new();
    loop {
        if current == t {
            return PositionRunReport {
                status: PositionRunStatus::Delivered,
                route,
            };
        }
        if !visited.insert(current, None) {
            return PositionRunReport {
                status: PositionRunStatus::LoopDetected,
                route,
            };
        }
        let neighbors: Vec<(NodeId, Point)> = g
            .graph
            .neighbors(current)
            .iter()
            .map(|&x| (x, g.position(x)))
            .collect();
        match router.decide(g.position(current), &neighbors, target) {
            None => {
                return PositionRunReport {
                    status: PositionRunStatus::Stuck(current),
                    route,
                }
            }
            Some(next) => {
                route.push(next);
                current = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::geo::{unit_disc, Point};

    fn p(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    #[test]
    fn greedy_succeeds_on_a_dense_line() {
        let pts: Vec<Point> = (0..8).map(|i| p(i as f64 * 0.5, 0.0)).collect();
        let g = unit_disc(&pts, 0.6);
        let r = route_position(&g, &GreedyRouter, NodeId(0), NodeId(7));
        assert!(r.delivered());
        assert_eq!(r.route.len(), 8);
    }

    /// A connected unit disc graph with a greedy trap: `m` is closer to
    /// `t` than any of its neighbours, but the only route detours left
    /// through the "wall" `l`, `l2`.
    ///
    /// ```text
    ///        t(-0.05, 1.9)
    ///   l2(-1, 1.9)
    ///   l (-1, 0.9)   m(0, 0.9)
    ///                 s(0, 0)        radius 1.0
    /// ```
    fn greedy_trap() -> locality_graph::geo::EmbeddedGraph {
        let pts = [
            p(0.0, 0.0),   // 0 = s
            p(0.0, 0.9),   // 1 = m (local minimum)
            p(-1.0, 0.9),  // 2 = l
            p(-1.0, 1.9),  // 3 = l2
            p(-0.05, 1.9), // 4 = t
        ];
        let g = unit_disc(&pts, 1.0);
        assert!(locality_graph::traversal::is_connected(&g.graph));
        assert!(
            !g.graph.has_edge(NodeId(1), NodeId(4)),
            "m must not reach t"
        );
        g
    }

    #[test]
    fn greedy_gets_stuck_in_a_void() {
        let g = greedy_trap();
        let r = route_position(&g, &GreedyRouter, NodeId(0), NodeId(4));
        assert_eq!(r.status, PositionRunStatus::Stuck(NodeId(1)));
    }

    #[test]
    fn compass_escapes_the_greedy_trap() {
        // Compass ignores distance and steers by angle, so it walks the
        // wall and delivers here (it cycles on other instances — see
        // Bose et al. [4]).
        let g = greedy_trap();
        let r = route_position(&g, &CompassRouter, NodeId(0), NodeId(4));
        assert!(r.delivered(), "{:?}", r);
    }

    #[test]
    fn alg1_delivers_where_greedy_sticks() {
        // The position-oblivious Algorithm 1, with k = ceil(n/4) = 2,
        // beats the location-aware greedy rule on the trap instance.
        use crate::{engine, Alg1, LocalRouter};
        let g = greedy_trap();
        let k = Alg1.min_locality(g.graph.node_count());
        let run = engine::route(&g.graph, k, &Alg1, NodeId(0), NodeId(4));
        assert!(run.status.is_delivered());
        assert_eq!(run.shortest, 4);
    }

    #[test]
    fn both_succeed_on_dense_random_udgs_mostly() {
        use locality_graph::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(33);
        let g = locality_graph::geo::random_connected_udg(25, 0.6, &mut rng);
        let mut greedy_ok = 0;
        let mut total = 0;
        for s in g.graph.nodes() {
            for t in g.graph.nodes().filter(|&t| t != s) {
                total += 1;
                if route_position(&g, &GreedyRouter, s, t).delivered() {
                    greedy_ok += 1;
                }
            }
        }
        // Dense UDGs rarely have voids; greedy should do very well.
        assert!(greedy_ok * 10 >= total * 9, "{greedy_ok}/{total}");
    }
}
