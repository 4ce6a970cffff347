//! Theorem 2 (§4.3): for every `k < ⌊(n+1)/3⌋`, every origin-oblivious,
//! predecessor-aware k-local routing algorithm fails on some connected
//! graph — witnessed by the three-graph family of Fig. 4.
//!
//! Here the origin `s` itself is the degree-3 hub with three paths
//! `P1..P3` of `r = ⌊(n-2)/3⌋` vertices; `t` hangs beyond one path (with
//! the `n mod 3` padding nodes in between) and the other two paths' far
//! ends are joined:
//!
//! * `G1`: ends of `P2`–`P3` joined, `t` beyond `P1`,
//! * `G2`: ends of `P1`–`P3` joined, `t` beyond `P2`,
//! * `G3`: ends of `P1`–`P2` joined, `t` beyond `P3`.
//!
//! By Corollary 1 a successful algorithm's behaviour at `s` is one of
//! two circular permutations, paired with one of three initial
//! directions: six strategies, each defeated by exactly one variant —
//! Table 4.

use local_routing::engine;
use local_routing::LocalRouter;
use locality_graph::{fanout, Graph, GraphBuilder, Label, NodeId};

use crate::strategy::StrategyRouter;

/// Which of the three graphs of the family to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Ends of `P2`,`P3` joined; `t` beyond `P1`.
    G1,
    /// Ends of `P1`,`P3` joined; `t` beyond `P2`.
    G2,
    /// Ends of `P1`,`P2` joined; `t` beyond `P3`.
    G3,
}

impl Variant {
    /// All three variants in order.
    pub const ALL: [Variant; 3] = [Variant::G1, Variant::G2, Variant::G3];

    fn wiring(self) -> (usize, usize, usize) {
        match self {
            Variant::G1 => (2, 3, 1),
            Variant::G2 => (1, 3, 2),
            Variant::G3 => (1, 2, 3),
        }
    }
}

/// One constructed graph of the family.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The graph on `n` nodes.
    pub graph: Graph,
    /// The origin — also the degree-3 hub.
    pub s: NodeId,
    /// The destination.
    pub t: NodeId,
    /// Number of vertices on each path.
    pub r: usize,
    /// Roots of `P1..P3` in label order.
    pub path_roots: [NodeId; 3],
}

/// Builds the Theorem 2 graph `variant` on `n >= 8` nodes.
///
/// # Panics
///
/// Panics if `n < 8`.
pub fn instance(n: usize, variant: Variant) -> Instance {
    assert!(n >= 8, "Theorem 2 family needs n >= 8");
    let r = (n - 2) / 3;
    let pad = (n - 2) - 3 * r;
    let mut b = GraphBuilder::new();
    let mut next_label = 0u32;
    let mut fresh = |b: &mut GraphBuilder| {
        let id = b
            .add_node(Label(next_label))
            .expect("labels are sequential");
        next_label += 1;
        id
    };
    let s = fresh(&mut b);
    let mut roots = Vec::with_capacity(3);
    for _ in 0..3 {
        roots.push(fresh(&mut b));
    }
    let mut ends = Vec::with_capacity(3);
    for &root in &roots {
        b.add_edge(s, root).expect("simple");
        let mut prev = root;
        for _ in 1..r {
            let x = fresh(&mut b);
            b.add_edge(prev, x).expect("simple");
            prev = x;
        }
        ends.push(prev);
    }
    let (a, bb, c) = variant.wiring();
    b.add_edge(ends[a - 1], ends[bb - 1]).expect("simple");
    // Padding between t's path and t.
    let mut prev = ends[c - 1];
    for _ in 0..pad {
        let x = fresh(&mut b);
        b.add_edge(prev, x).expect("simple");
        prev = x;
    }
    let t = fresh(&mut b);
    b.add_edge(prev, t).expect("simple");
    let graph = b.build();
    assert_eq!(graph.node_count(), n);
    Instance {
        graph,
        s,
        t,
        r,
        path_roots: [roots[0], roots[1], roots[2]],
    }
}

/// The full three-graph family.
pub fn family(n: usize) -> [Instance; 3] {
    [
        instance(n, Variant::G1),
        instance(n, Variant::G2),
        instance(n, Variant::G3),
    ]
}

/// One row of Table 4.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Circular permutation as a cycle order over `P1..P3` positions.
    pub cycle_order: Vec<usize>,
    /// Initial direction: position (0-based) of the neighbour the first
    /// hop targets.
    pub initial: usize,
    /// `outcomes[i]` is `true` iff the strategy delivers on `G(i+1)`.
    pub outcomes: [bool; 3],
}

/// Simulates all six `(permutation, initial direction)` strategies on
/// the family with locality `k` (`1 <= k <= r`), regenerating Table 4.
pub fn table4(n: usize, k: u32) -> Vec<TableRow> {
    let insts = family(n);
    assert!(k >= 1 && (k as usize) <= insts[0].r, "theorem needs k <= r");
    // Six independent (permutation, initial direction) strategies:
    // fan them out; the in-order merge keeps the rows in enumeration
    // order.
    let strategies: Vec<(Vec<usize>, usize)> = StrategyRouter::all_cycle_orders(3)
        .into_iter()
        .flat_map(|order| (0..3usize).map(move |initial| (order.clone(), initial)))
        .collect();
    let threads = fanout::default_threads();
    fanout::run_trials(&strategies, threads, |_, (order, initial)| {
        let mut outcomes = [false; 3];
        for (i, inst) in insts.iter().enumerate() {
            let router = StrategyRouter::new(inst.graph.label(inst.s), order, *initial);
            let run = engine::route(&inst.graph, k, &router, inst.s, inst.t);
            outcomes[i] = run.status.is_delivered();
        }
        TableRow {
            cycle_order: order.clone(),
            initial: *initial,
            outcomes,
        }
    })
}

/// The paper's Table 4, rows in the order produced by [`table4`]:
/// permutation `(P1 P2 P3)` with initial directions `a`, `b`, `c`, then
/// `(P1 P3 P2)` with `a`, `b`, `c`.
pub const PAPER_TABLE4: [[bool; 3]; 6] = [
    [true, false, true],
    [true, true, false],
    [false, true, true],
    [true, true, false],
    [false, true, true],
    [true, false, true],
];

/// Runs `router` on the family at `k <= r`, returning the first
/// defeating `(variant, status)` if any.
pub fn defeat_router<R: LocalRouter + ?Sized>(
    router: &R,
    n: usize,
    k: u32,
) -> Option<(Variant, local_routing::engine::RunStatus)> {
    for (inst, variant) in family(n).into_iter().zip(Variant::ALL) {
        let run = engine::route(&inst.graph, k, router, inst.s, inst.t);
        if !run.status.is_delivered() {
            return Some((variant, run.status));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::{Alg2, LocalRouter};
    use locality_graph::traversal;

    #[test]
    fn construction_shape() {
        let inst = instance(20, Variant::G3);
        assert_eq!(inst.graph.node_count(), 20);
        assert_eq!(inst.r, 6);
        assert!(traversal::is_connected(&inst.graph));
        assert_eq!(inst.graph.degree(inst.s), 3);
        assert_eq!(inst.graph.degree(inst.t), 1);
        assert_eq!(inst.graph.neighbors(inst.s), &inst.path_roots);
    }

    #[test]
    fn origin_view_identical_across_variants() {
        let n = 20;
        let k = instance(n, Variant::G1).r as u32;
        let fps: Vec<String> = Variant::ALL
            .iter()
            .map(|&v| {
                let inst = instance(n, v);
                local_routing::LocalView::extract(&inst.graph, inst.s, k).fingerprint()
            })
            .collect();
        assert_eq!(fps[0], fps[1]);
        assert_eq!(fps[1], fps[2]);
    }

    #[test]
    fn table4_matches_paper() {
        for n in [20usize, 21, 22] {
            let r = (n - 2) / 3;
            let rows = table4(n, r as u32);
            assert_eq!(rows.len(), 6);
            for (row, expected) in rows.iter().zip(PAPER_TABLE4) {
                assert_eq!(
                    row.outcomes, expected,
                    "strategy {:?}/{} at n={n}",
                    row.cycle_order, row.initial
                );
            }
        }
    }

    #[test]
    fn every_strategy_fails_somewhere() {
        for row in table4(20, 4) {
            assert!(row.outcomes.iter().any(|&ok| !ok));
        }
    }

    #[test]
    fn alg2_below_threshold_is_defeated_and_at_threshold_survives() {
        let n = 20;
        let low = ((n - 2) / 3) as u32; // 6 < ceil(20/3) = 7
        assert!(low < Alg2.min_locality(n));
        assert!(defeat_router(&Alg2, n, low).is_some());
        assert_eq!(defeat_router(&Alg2, n, Alg2.min_locality(n)), None);
    }
}
