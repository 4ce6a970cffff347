//! Baseline routing strategies the paper motivates against.
//!
//! * [`RightHandRule`] — the classic tree traversal (§5.1, Fig. 7):
//!   succeeds on trees, but on graphs with cycles longer than `2k` it can
//!   orbit forever without ever bringing the destination into view.
//! * [`LowestRankForward`] — a predecessor-oblivious strawman defeated
//!   by essentially everything; used by adversary tests.
//! * [`random_walk`] — the randomized comparator (§3, Chen et al.):
//!   delivery is guaranteed only in expectation, with route lengths far
//!   beyond the deterministic algorithms' dilation bounds.

use locality_graph::rng::DetRng;
use locality_graph::{Graph, Label, NodeId};

use crate::error::RoutingError;
use crate::model::{Awareness, Packet};
use crate::traits::LocalRouter;
use crate::view::{next_port, LocalView, Schema};

/// The right-hand rule: when the destination is out of view, forward to
/// the next neighbour in label-cyclic order after the one that delivered
/// the message (first send: lowest label).
///
/// Guarantees delivery on trees for any `k >= 1`; defeated by cycles of
/// length `> 2k` that keep the destination out of every visited view
/// (Fig. 7B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RightHandRule;

impl LocalRouter for RightHandRule {
    fn name(&self) -> &'static str {
        "right-hand-rule"
    }

    fn awareness(&self) -> Awareness {
        Awareness::ORIGIN_OBLIVIOUS
    }

    fn min_locality(&self, _n: usize) -> u32 {
        // No n at which it is universally correct; 1 suffices on trees.
        1
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        match view.step_toward_label(packet.target) {
            Some(Some(step)) => return Ok(step),
            Some(None) if packet.target == view.center_label() => {
                return Err(RoutingError::ProtocolViolation(
                    "asked to forward a message already at its destination".into(),
                ));
            }
            _ => {}
        }
        next_port(
            view.center_neighbor_labels(),
            packet.predecessor,
            Schema::Cyclic,
        )
        .ok_or(RoutingError::Unroutable(packet.target))
    }
}

/// Strawman: always forward to the lowest-label active neighbour (or
/// lowest-label neighbour if no component analysis is wanted — we use
/// the raw neighbours). Predecessor-oblivious and memoryless, so it
/// bounces forever on almost anything; exists to give the adversary
/// machinery an easy victim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowestRankForward;

impl LocalRouter for LowestRankForward {
    fn name(&self) -> &'static str {
        "lowest-rank-forward"
    }

    fn awareness(&self) -> Awareness {
        Awareness::OBLIVIOUS
    }

    fn min_locality(&self, _n: usize) -> u32 {
        1
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        if let Some(Some(step)) = view.step_toward_label(packet.target) {
            return Ok(step);
        }
        view.center_neighbor_labels()
            .min()
            .ok_or(RoutingError::Unroutable(packet.target))
    }
}

/// Greedy ring router: forward to the neighbour whose label is closest
/// to the target in circular label distance mod `n`, tie-break lowest
/// label. Memoryless and fully oblivious — each decision reads only the
/// immediate neighbour labels, so `min_locality` is 1 and per-hop cost
/// is `O(degree)` independent of `k` and `n`.
///
/// On a [`ring_lattice(n, c)`](locality_graph::generators::ring_lattice)
/// with identity labels every hop strictly reduces ring distance (the
/// `±c` chord covers distance `c` until the target is within one hop),
/// so delivery is guaranteed in `⌈d/c⌉` hops. That makes it the
/// workhorse of large-`n` simulator sweeps: provisioning at `k = 1` is
/// linear in `n`, and routes are long enough to exercise the arena and
/// scheduler without depending on `k`-neighbourhood extraction cost.
/// On graphs whose labels are not `0..n` ring positions it is just a
/// strawman that the loop detector catches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingGreedy {
    /// Ring modulus: labels are positions on `Z_n`.
    pub n: u32,
}

impl RingGreedy {
    /// Greedy router over circular label space `Z_n`.
    pub fn new(n: u32) -> RingGreedy {
        RingGreedy { n }
    }
}

impl LocalRouter for RingGreedy {
    fn name(&self) -> &'static str {
        "ring-greedy"
    }

    fn awareness(&self) -> Awareness {
        Awareness::OBLIVIOUS
    }

    fn min_locality(&self, _n: usize) -> u32 {
        1
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        // Positions on `Z_n`: a label outside `0..n` (a misused router,
        // not a lattice) is reduced, so nothing wraps. With both ends
        // below n, the clockwise gap is one compare and one subtract.
        let n = self.n.max(1);
        let b = packet.target.value() % n;
        let mut best: Option<(u32, u32)> = None;
        for l in view.center_neighbor_labels() {
            let l = l.value();
            let a = if l < n { l } else { l % n };
            let cw = if b >= a { b - a } else { n - (a - b) };
            // Labels are unique, so `(distance, label)` never ties.
            let key = (cw.min(n - cw), l);
            if best.is_none_or(|k| key < k) {
                best = Some(key);
            }
        }
        best.map(|(_, l)| Label(l))
            .ok_or(RoutingError::Unroutable(packet.target))
    }
}

/// A uniform random walk from `s` to `t`: the memoryless randomized
/// baseline. Returns the number of hops taken, or `None` if `max_steps`
/// was exhausted first.
pub fn random_walk(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    max_steps: usize,
    rng: &mut DetRng,
) -> Option<usize> {
    let mut current = s;
    for step in 0..=max_steps {
        if current == t {
            return Some(step);
        }
        let nbrs = g.neighbors(current);
        if nbrs.is_empty() {
            return None;
        }
        current = nbrs[rng.gen_range(0..nbrs.len())];
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, RunStatus};
    use locality_graph::generators;

    #[test]
    fn right_hand_rule_delivers_on_trees() {
        for g in [
            generators::path(10),
            generators::spider(4, 3),
            generators::binary_tree(4),
            generators::caterpillar(5, 2),
        ] {
            for k in [1u32, 2, 3] {
                let m = engine::delivery_matrix(&g, k, &RightHandRule);
                assert!(
                    m.all_delivered(),
                    "right-hand rule failed on tree {g:?} k={k}: {:?}",
                    m.failures.first()
                );
            }
        }
    }

    #[test]
    fn right_hand_rule_defeated_by_long_cycle() {
        // Fig. 7B: a long cycle with the destination at the end of a
        // tail of length k + 1, so it never enters any visited
        // k-neighbourhood: the orbit always re-enters node 19 from node
        // 0, whose cyclic successor is 18 — the tail is never taken.
        let g = generators::lollipop(20, 3);
        let k = 2;
        let s = NodeId(10); // on the cycle, far from the tail
        let t = NodeId(22); // tail tip, distance 3 > k from the cycle
        let r = engine::route(&g, k, &RightHandRule, s, t);
        assert_eq!(r.status, RunStatus::LoopDetected);
    }

    #[test]
    fn lowest_rank_forward_loops_quickly() {
        let g = generators::path(8);
        let r = engine::route(&g, 1, &LowestRankForward, NodeId(3), NodeId(7));
        assert_eq!(r.status, RunStatus::LoopDetected);
    }

    #[test]
    fn ring_greedy_delivers_on_ring_lattices_at_k1() {
        for (n, c) in [(12usize, 1usize), (30, 3), (64, 5)] {
            let g = generators::ring_lattice(n, c);
            let m = engine::delivery_matrix(&g, 1, &RingGreedy::new(n as u32));
            assert!(
                m.all_delivered(),
                "ring greedy failed on C_{n}(1..={c}): {:?}",
                m.failures.first()
            );
        }
    }

    #[test]
    fn ring_greedy_takes_chord_sized_steps() {
        // Distance 20 with chord reach 4: ⌈20/4⌉ = 5 hops.
        let g = generators::ring_lattice(40, 4);
        let r = engine::route(&g, 1, &RingGreedy::new(40), NodeId(0), NodeId(20));
        assert_eq!(r.status, RunStatus::Delivered);
        assert_eq!(r.hops(), 5);
    }

    /// `RingGreedy::decide` as it was before the slot read: each
    /// neighbour's label looked up by id, and the ring distance from
    /// three `u64` remainders.
    fn reference_decide(
        r: &RingGreedy,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<Label, RoutingError> {
        let ring_dist = |a: u32, b: u32| {
            let n = u64::from(r.n.max(1));
            let a = u64::from(a) % n;
            let b = u64::from(b) % n;
            let cw = (b + n - a) % n;
            cw.min(n - cw) as u32
        };
        view.center_neighbors()
            .map(|v| view.label(v))
            .min_by_key(|l| (ring_dist(l.value(), packet.target.value()), l.value()))
            .ok_or(RoutingError::Unroutable(packet.target))
    }

    #[test]
    fn ring_greedy_decides_as_the_reference() {
        use locality_graph::permute;
        for n in [17usize, 64, 257] {
            for c in [1usize, 3, 8].into_iter().filter(|&c| n > 2 * c) {
                let lattice = generators::ring_lattice(n, c);
                for seed in [1u64, 2] {
                    // Shuffled ids: slot order is no longer label order.
                    let (g, _) =
                        permute::random_permute_nodes(&lattice, &mut DetRng::seed_from_u64(seed));
                    let views: Vec<LocalView> =
                        g.nodes().map(|u| LocalView::extract(&g, u, 1)).collect();
                    // A modulus below n puts labels and targets at or
                    // past it, through the defensive reduction.
                    for m in [n as u32, n as u32 / 3] {
                        let r = RingGreedy::new(m);
                        let targets = g.nodes().map(|t| g.label(t)).chain([Label(u32::MAX)]);
                        for target in targets {
                            for view in &views {
                                let packet = Packet::new(view.center_label(), target, None);
                                assert_eq!(
                                    r.decide(&packet, view),
                                    reference_decide(&r, &packet, view),
                                    "n {n} c {c} seed {seed} m {m} at {} to {target}",
                                    view.center()
                                );
                            }
                        }
                    }
                }
            }
        }
        // No neighbour: both say the target is unroutable.
        let g = Graph::from_edges(2, &[]).unwrap();
        let view = LocalView::extract(&g, NodeId(0), 1);
        let packet = Packet::new(Label(0), Label(1), None);
        let r = RingGreedy::new(2);
        assert_eq!(
            r.decide(&packet, &view),
            Err(RoutingError::Unroutable(Label(1)))
        );
        assert_eq!(
            reference_decide(&r, &packet, &view),
            r.decide(&packet, &view)
        );
    }

    #[test]
    fn random_walk_eventually_arrives() {
        let g = generators::cycle(8);
        let mut rng = DetRng::seed_from_u64(5);
        let hops = random_walk(&g, NodeId(0), NodeId(4), 100_000, &mut rng);
        assert!(hops.is_some());
        assert!(hops.unwrap() >= 4);
    }

    #[test]
    fn random_walk_times_out_gracefully() {
        let g = generators::path(50);
        let mut rng = DetRng::seed_from_u64(5);
        assert_eq!(random_walk(&g, NodeId(0), NodeId(49), 3, &mut rng), None);
    }
}
