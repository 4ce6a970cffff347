//! Stateful local routing — the §6.3 relaxation.
//!
//! The paper's model is memoryless and stateless; its thresholds say
//! that under those constraints `k ∈ Ω(n)` is unavoidable. §6.3 notes
//! the escape hatch: allow the *message* to carry state and 1-local
//! routing becomes possible (Braverman achieves it with `Θ(log n)`
//! bits). This module provides the framework for that comparison plus a
//! simple, fully correct representative: depth-first traversal with a
//! message-carried stack and visited set (`O(n log n)` bits, `k = 1`).
//! The gap between `O(n log n)` and `Θ(log n)` is exactly the open
//! territory the paper points at.

use std::collections::BTreeSet;

use locality_graph::{traversal, Graph, Label, NodeId};

use crate::engine::{step_cap, RunReport, RunStatus};
use crate::error::RoutingError;
use crate::model::Packet;
use crate::view::LocalView;

/// Message-carried state: a stack of labels (the DFS path) and the set
/// of visited labels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageState {
    /// The DFS path from the origin to the current node.
    pub stack: Vec<Label>,
    /// Labels of every node the message has entered.
    pub visited: BTreeSet<Label>,
}

impl MessageState {
    /// Size of the state in bits, charging `ceil(log2(max_label + 1))`
    /// bits per stored label.
    pub fn bits(&self, max_label: Label) -> usize {
        let per = (u32::BITS - max_label.value().leading_zeros()).max(1) as usize;
        (self.stack.len() + self.visited.len()) * per
    }
}

/// A k-local routing algorithm whose forwarding decision may read and
/// rewrite message-carried state.
pub trait StatefulLocalRouter {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// The locality the algorithm needs (1 for DFS).
    fn min_locality(&self, n: usize) -> u32;

    /// One forwarding decision: returns the next hop and the state to
    /// carry onward.
    ///
    /// # Errors
    ///
    /// Implementations report structural violations as [`RoutingError`].
    fn decide(
        &self,
        packet: &Packet,
        view: &LocalView,
        state: &MessageState,
    ) -> Result<(Label, MessageState), RoutingError>;
}

/// Depth-first traversal with message-carried state: 1-local, succeeds
/// on every connected graph, visits children in label order and
/// backtracks along the carried stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfsStateRouter;

impl StatefulLocalRouter for DfsStateRouter {
    fn name(&self) -> &'static str {
        "dfs-with-state"
    }

    fn min_locality(&self, _n: usize) -> u32 {
        1
    }

    fn decide(
        &self,
        _packet: &Packet,
        view: &LocalView,
        state: &MessageState,
    ) -> Result<(Label, MessageState), RoutingError> {
        let mut state = state.clone();
        let here = view.center_label();
        if state.stack.last() != Some(&here) {
            state.stack.push(here);
        }
        state.visited.insert(here);
        // Descend into the smallest unvisited neighbour, if any.
        let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
        view.sort_by_label(&mut nbrs);
        for &x in &nbrs {
            let l = view.label(x);
            if !state.visited.contains(&l) {
                return Ok((l, state));
            }
        }
        // Backtrack.
        state.stack.pop();
        match state.stack.last() {
            Some(&parent) => Ok((parent, state)),
            None => Err(RoutingError::ProtocolViolation(
                "DFS exhausted the graph without finding the destination".into(),
            )),
        }
    }
}

/// Outcome of a stateful run: the walk plus the peak state size.
#[derive(Clone, Debug)]
pub struct StatefulRunReport {
    /// The plain run report.
    pub report: RunReport,
    /// Peak message state, in bits.
    pub max_state_bits: usize,
}

/// Drives a stateful router from `s` to `t`.
pub fn route_stateful<R: StatefulLocalRouter>(
    graph: &Graph,
    k: u32,
    router: &R,
    s: NodeId,
    t: NodeId,
) -> StatefulRunReport {
    let shortest = traversal::distance(graph, s, t).unwrap_or(0);
    let max_steps = step_cap(graph.node_count());
    let max_label = graph.max_label().unwrap_or(Label(0));
    let origin = graph.label(s);
    let target = graph.label(t);

    let mut route = vec![s];
    let mut current = s;
    let mut predecessor: Option<NodeId> = None;
    let mut state = MessageState::default();
    let mut max_state_bits = 0;

    let status = loop {
        if current == t {
            break RunStatus::Delivered;
        }
        if route.len() > max_steps {
            break RunStatus::StepLimit;
        }
        let view = LocalView::extract(graph, current, k);
        let packet = Packet::new(origin, target, predecessor.map(|p| graph.label(p)));
        match router.decide(&packet, &view, &state) {
            Err(e) => break RunStatus::RouterError(e),
            Ok((next_label, new_state)) => {
                let Some(next) = graph.neighbor_by_label(current, next_label) else {
                    break RunStatus::InvalidDecision { at: current };
                };
                max_state_bits = max_state_bits.max(new_state.bits(max_label));
                state = new_state;
                route.push(next);
                predecessor = Some(current);
                current = next;
            }
        }
    };

    StatefulRunReport {
        report: RunReport {
            status,
            // Stateful routers name no rules: `?` per hop, as the
            // `decide_explained` default reports.
            rules: vec!["?"; route.len().saturating_sub(1)],
            route,
            shortest,
            k,
        },
        max_state_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::rng::DetRng;
    use locality_graph::{generators, permute};

    #[test]
    fn dfs_delivers_with_k_equal_one() {
        let mut rng = DetRng::seed_from_u64(63);
        for _ in 0..20 {
            let n = rng.gen_range(2..20);
            let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let r = route_stateful(&g, 1, &DfsStateRouter, s, t);
                    assert!(
                        r.report.status.is_delivered(),
                        "DFS failed on {g:?} ({s},{t}): {:?}",
                        r.report.status
                    );
                    // DFS crosses each tree edge at most twice.
                    assert!(r.report.hops() <= 2 * g.node_count());
                }
            }
        }
    }

    #[test]
    fn dfs_state_grows_linearly_not_more() {
        let g = generators::path(64);
        let r = route_stateful(&g, 1, &DfsStateRouter, NodeId(0), NodeId(63));
        assert!(r.report.status.is_delivered());
        // Visited set dominates: ~n labels at ~6-7 bits each.
        assert!(r.max_state_bits >= 64 * 6);
        assert!(r.max_state_bits <= 2 * 64 * 8);
    }

    #[test]
    fn dfs_route_length_is_at_most_twice_edges_explored() {
        let g = generators::binary_tree(4);
        let r = route_stateful(&g, 1, &DfsStateRouter, NodeId(0), NodeId(14));
        assert!(r.report.status.is_delivered());
        assert!(r.report.hops() <= 2 * g.edge_count());
    }

    #[test]
    fn state_bits_accounting() {
        let mut st = MessageState::default();
        st.stack.push(Label(3));
        st.visited.insert(Label(3));
        st.visited.insert(Label(200));
        // max label 255 -> 8 bits per entry, 3 entries.
        assert_eq!(st.bits(Label(255)), 24);
        assert_eq!(MessageState::default().bits(Label(0)), 0);
    }
}
