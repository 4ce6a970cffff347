//! The strategy routers the impossibility proofs quantify over.
//!
//! Lemma 1 shows that any successful predecessor-aware algorithm, at a
//! node whose local components are all independent and active and whose
//! view contains neither `s` nor `t`, must implement a *circular
//! permutation* of the node's neighbours. On the Theorem 1/2 families
//! every node except one hub has degree ≤ 2 (where the circular
//! permutation is forced), so an algorithm's entire behaviour collapses
//! to its choice of circular permutation at the hub (plus, for Theorem
//! 2, the initial direction). [`StrategyRouter`] realises exactly one
//! such choice, letting tests and benches enumerate all of them —
//! regenerating Tables 3 and 4.

use local_routing::{Awareness, LocalRouter, LocalView, Packet, RoutingError};
use locality_graph::{Label, NodeId};

/// A k-local, predecessor-aware router that behaves canonically
/// everywhere except at one *hub* node, where it applies a chosen
/// circular permutation (and, if the hub is the origin, a chosen initial
/// direction).
///
/// Canonical behaviour: if the destination is in view, step along a
/// shortest path; otherwise pass through (degree 2), bounce (degree 1),
/// or apply the label-order circular permutation (degree ≥ 3, non-hub).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyRouter {
    hub: Label,
    /// `cycle[i]` is the position (in label order) of the neighbour the
    /// message is forwarded to when it arrives from the neighbour at
    /// position `i`. Must be a circular permutation of `0..degree(hub)`.
    cycle: Vec<usize>,
    /// Initial direction (position in label order) used when the hub is
    /// the origin and `v = ⊥`.
    initial: usize,
}

impl StrategyRouter {
    /// Builds a strategy. `cycle_order` lists neighbour positions in the
    /// order the permutation cycles through them, e.g. `[0, 2, 1, 3]`
    /// means `(P1 P3 P2 P4)`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_order` is not a permutation of `0..len`.
    pub fn new(hub: Label, cycle_order: &[usize], initial: usize) -> StrategyRouter {
        let d = cycle_order.len();
        let mut seen = vec![false; d];
        for &i in cycle_order {
            assert!(i < d && !seen[i], "cycle_order must be a permutation");
            seen[i] = true;
        }
        // Convert the cycle notation to a successor table.
        let mut cycle = vec![0usize; d];
        for (idx, &pos) in cycle_order.iter().enumerate() {
            cycle[pos] = cycle_order[(idx + 1) % d];
        }
        StrategyRouter {
            hub,
            cycle,
            initial,
        }
    }

    /// All circular permutations of `d` elements that fix the starting
    /// element first (the `(d-1)!` distinct routing strategies of the
    /// paper's tables), as cycle orders beginning with position 0.
    pub fn all_cycle_orders(d: usize) -> Vec<Vec<usize>> {
        fn permute(rest: &mut Vec<usize>, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if rest.is_empty() {
                out.push(acc.clone());
                return;
            }
            for i in 0..rest.len() {
                let x = rest.remove(i);
                acc.push(x);
                permute(rest, acc, out);
                acc.pop();
                rest.insert(i, x);
            }
        }
        let mut out = Vec::new();
        let mut rest: Vec<usize> = (1..d).collect();
        permute(&mut rest, &mut vec![0], &mut out);
        out
    }
}

impl LocalRouter for StrategyRouter {
    fn name(&self) -> &'static str {
        "strategy-router"
    }

    fn awareness(&self) -> Awareness {
        Awareness::ORIGIN_OBLIVIOUS
    }

    fn min_locality(&self, _n: usize) -> u32 {
        1
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        match view.step_toward_label(packet.target) {
            Some(Some(step)) => return Ok(step),
            Some(None) if packet.target == view.center_label() => {
                return Err(RoutingError::ProtocolViolation(
                    "message already delivered".into(),
                ));
            }
            _ => {}
        }
        let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
        if nbrs.is_empty() {
            return Err(RoutingError::Unroutable(packet.target));
        }
        view.sort_by_label(&mut nbrs);
        let v_pos = packet
            .predecessor
            .and_then(|l| view.node_by_label(l))
            .and_then(|p| nbrs.iter().position(|&x| x == p));
        let next = if view.center_label() == self.hub {
            match v_pos {
                None => nbrs[self.initial.min(nbrs.len() - 1)],
                Some(i) => {
                    // A strategy over more positions than the hub has
                    // neighbours can name one that does not exist.
                    let j = self.cycle.get(i).copied().unwrap_or(0);
                    *nbrs.get(j).ok_or_else(|| {
                        RoutingError::ProtocolViolation(format!(
                            "strategy position {j} is past the hub's {} neighbours",
                            nbrs.len()
                        ))
                    })?
                }
            }
        } else {
            match v_pos {
                None => nbrs[0],
                Some(i) => nbrs[(i + 1) % nbrs.len()],
            }
        };
        Ok(view.label(next))
    }
}

/// A predecessor-oblivious router defined by a fixed direction at every
/// node: when the destination is out of view, node `u` always forwards
/// to its highest-label neighbour if `arrow(u)` is true, lowest
/// otherwise. This captures the full space of deterministic
/// predecessor-oblivious behaviours on a path (Theorem 3): at each node
/// the decision is a constant.
#[derive(Clone, Debug)]
pub struct ArrowRouter {
    arrows: std::collections::BTreeMap<Label, bool>,
    /// Default direction for labels missing from the map.
    pub default_high: bool,
}

impl ArrowRouter {
    /// Builds an arrow router from explicit per-label directions.
    pub fn new(arrows: std::collections::BTreeMap<Label, bool>, default_high: bool) -> ArrowRouter {
        ArrowRouter {
            arrows,
            default_high,
        }
    }
}

impl LocalRouter for ArrowRouter {
    fn name(&self) -> &'static str {
        "arrow-router"
    }

    fn awareness(&self) -> Awareness {
        Awareness::PREDECESSOR_OBLIVIOUS
    }

    fn min_locality(&self, _n: usize) -> u32 {
        1
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        match view.step_toward_label(packet.target) {
            Some(Some(step)) => return Ok(step),
            Some(None) if packet.target == view.center_label() => {
                return Err(RoutingError::ProtocolViolation(
                    "message already delivered".into(),
                ));
            }
            _ => {}
        }
        let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
        if nbrs.is_empty() {
            return Err(RoutingError::Unroutable(packet.target));
        }
        view.sort_by_label(&mut nbrs);
        let high = *self
            .arrows
            .get(&view.center_label())
            .unwrap_or(&self.default_high);
        let pick = if high {
            *nbrs.last().expect("nonempty")
        } else {
            nbrs[0]
        };
        Ok(view.label(pick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::engine;
    use locality_graph::generators;

    #[test]
    fn cycle_orders_enumeration_counts() {
        assert_eq!(StrategyRouter::all_cycle_orders(3).len(), 2);
        assert_eq!(StrategyRouter::all_cycle_orders(4).len(), 6);
        for order in StrategyRouter::all_cycle_orders(4) {
            assert_eq!(order[0], 0);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_non_permutation() {
        StrategyRouter::new(Label(0), &[0, 0, 1], 0);
    }

    #[test]
    fn strategy_wider_than_the_hub_is_an_error_not_a_panic() {
        // Four positions at a hub of degree 3: the predecessor in the
        // third position maps to position 3, which does not exist.
        let g = generators::spider(3, 2);
        let view = LocalView::extract(&g, NodeId(0), 2);
        let router = StrategyRouter::new(g.label(NodeId(0)), &[0, 1, 2, 3], 0);
        let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
        view.sort_by_label(&mut nbrs);
        let packet = |v: NodeId| Packet {
            origin: Some(Label(900)),
            target: Label(901),
            predecessor: Some(view.label(v)),
        };
        assert!(router.decide(&packet(nbrs[0]), &view).is_ok());
        assert!(matches!(
            router.decide(&packet(nbrs[2]), &view),
            Err(RoutingError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn successor_table_matches_cycle_notation() {
        // (P1 P3 P2 P4): from position 0 go to 2, from 2 to 1, from 1 to
        // 3, from 3 to 0.
        let r = StrategyRouter::new(Label(99), &[0, 2, 1, 3], 0);
        assert_eq!(r.cycle, vec![2, 3, 1, 0]);
    }

    #[test]
    fn pass_through_on_paths() {
        // With the hub absent from the graph, the router is the plain
        // right-hand rule and delivers on trees.
        let g = generators::path(8);
        let r = StrategyRouter::new(Label(999), &[0], 0);
        let m = engine::delivery_matrix(&g, 2, &r);
        assert!(m.all_delivered());
    }

    #[test]
    fn arrow_router_sweeps_to_its_direction() {
        let g = generators::path(10);
        let high = ArrowRouter::new(Default::default(), true);
        let m = engine::delivery_matrix(&g, 2, &high);
        // Always-up delivers exactly the pairs with t within k of s's
        // sweep... at least, every pair with t > s must be delivered.
        for (s, t, _) in &m.failures {
            assert!(t < s, "always-high must deliver upward pairs ({s},{t})");
        }
    }
}
