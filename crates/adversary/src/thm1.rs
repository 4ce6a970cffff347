//! Theorem 1 (§4.2): for every `k < ⌊(n+1)/4⌋`, every origin-aware,
//! predecessor-aware k-local routing algorithm fails on some connected
//! graph — witnessed by the three-graph family of Fig. 3.
//!
//! Each graph contains a hub `u` of degree 4 whose k-neighbourhood is
//! four disjoint paths `P1..P4` of `r = ⌊(n-3)/4⌋` vertices. The origin
//! `s` hangs beyond `P1` (with the `n mod 4` padding nodes in between).
//! Beyond the hub's horizon, the graphs differ: in `Gi`, the far ends of
//! two of `{P2, P3, P4}` are joined by an edge and the destination `t`
//! hangs off the third:
//!
//! * `G1`: ends of `P3`–`P4` joined, `t` beyond `P2`,
//! * `G2`: ends of `P2`–`P4` joined, `t` beyond `P3`,
//! * `G3`: ends of `P2`–`P3` joined, `t` beyond `P4`.
//!
//! A message that enters a joined path crosses over invisibly and comes
//! back to `u` on the *other* port, so the hub's circular permutation —
//! by Lemma 1 the only freedom a successful algorithm has — determines
//! which ports are ever explored. Each of the six permutations misses
//! `t`'s path on exactly one graph, reproducing Table 3.

use local_routing::engine;
use local_routing::LocalRouter;
use locality_graph::{fanout, Graph, GraphBuilder, Label, NodeId};

use crate::strategy::StrategyRouter;

/// Which of the three graphs of the family to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Ends of `P3`,`P4` joined; `t` beyond `P2`.
    G1,
    /// Ends of `P2`,`P4` joined; `t` beyond `P3`.
    G2,
    /// Ends of `P2`,`P3` joined; `t` beyond `P4`.
    G3,
}

impl Variant {
    /// All three variants in order.
    pub const ALL: [Variant; 3] = [Variant::G1, Variant::G2, Variant::G3];

    /// `(a, b, c)`: the 1-based indices of the joined pair and of `t`'s
    /// path.
    fn wiring(self) -> (usize, usize, usize) {
        match self {
            Variant::G1 => (3, 4, 2),
            Variant::G2 => (2, 4, 3),
            Variant::G3 => (2, 3, 4),
        }
    }
}

/// One constructed graph of the family, with its named vertices.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The graph on `n` nodes.
    pub graph: Graph,
    /// The degree-4 hub `u`.
    pub hub: NodeId,
    /// The origin.
    pub s: NodeId,
    /// The destination.
    pub t: NodeId,
    /// Number of vertices on each path `Pi`.
    pub r: usize,
    /// Roots (hub-adjacent vertices) of `P1..P4`, in label order.
    pub path_roots: [NodeId; 4],
}

/// Builds the Theorem 1 graph `variant` on `n >= 11` nodes.
///
/// # Panics
///
/// Panics if `n < 11` (the construction needs `r >= 2` so the crossover
/// stays outside the hub's 1-neighbourhood).
pub fn instance(n: usize, variant: Variant) -> Instance {
    assert!(n >= 11, "Theorem 1 family needs n >= 11");
    let r = (n - 3) / 4;
    let pad = (n - 3) - 4 * r;
    let mut b = GraphBuilder::new();
    let mut next_label = 0u32;
    let mut fresh = |b: &mut GraphBuilder| {
        let id = b
            .add_node(Label(next_label))
            .expect("labels are sequential");
        next_label += 1;
        id
    };
    let hub = fresh(&mut b);
    // Roots first so they occupy labels 1..4 in path order: the strategy
    // position i corresponds to P(i+1).
    let mut roots = Vec::with_capacity(4);
    for _ in 0..4 {
        roots.push(fresh(&mut b));
    }
    let mut ends = Vec::with_capacity(4);
    for &root in &roots {
        b.add_edge(hub, root).expect("simple");
        let mut prev = root;
        for _ in 1..r {
            let x = fresh(&mut b);
            b.add_edge(prev, x).expect("simple");
            prev = x;
        }
        ends.push(prev);
    }
    // Padding chain between P1's end and s.
    let mut prev = ends[0];
    for _ in 0..pad {
        let x = fresh(&mut b);
        b.add_edge(prev, x).expect("simple");
        prev = x;
    }
    let s = fresh(&mut b);
    b.add_edge(prev, s).expect("simple");
    let (a, bb, c) = variant.wiring();
    b.add_edge(ends[a - 1], ends[bb - 1]).expect("simple");
    let t = fresh(&mut b);
    b.add_edge(ends[c - 1], t).expect("simple");
    let graph = b.build();
    assert_eq!(graph.node_count(), n);
    Instance {
        graph,
        hub,
        s,
        t,
        r,
        path_roots: [roots[0], roots[1], roots[2], roots[3]],
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

/// One row of Table 3: a hub strategy and its fate on `G1..G3`.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// The circular permutation as a cycle order over `P1..P4`
    /// (0-based positions).
    pub cycle_order: Vec<usize>,
    /// `outcomes[i]` is `true` iff the strategy delivers on `G(i+1)`.
    pub outcomes: [bool; 3],
}

/// Simulates all six hub strategies on the family with locality `k`
/// (`1 <= k <= r`), regenerating Table 3.
pub fn table3(n: usize, k: u32) -> Vec<TableRow> {
    let insts = family(n);
    assert!(k >= 1 && (k as usize) <= insts[0].r, "theorem needs k <= r");
    // The six strategies are independent probes of the same family:
    // fan them out; the in-order merge keeps the rows in strategy order.
    let orders = StrategyRouter::all_cycle_orders(4);
    fanout::run_trials(&orders, fanout::default_threads(), |_, order| {
        let mut outcomes = [false; 3];
        for (i, inst) in insts.iter().enumerate() {
            let router = StrategyRouter::new(inst.graph.label(inst.hub), order, 0);
            let run = engine::route(&inst.graph, k, &router, inst.s, inst.t);
            outcomes[i] = run.status.is_delivered();
        }
        TableRow {
            cycle_order: order.clone(),
            outcomes,
        }
    })
}

/// The paper's Table 3, in the same strategy order as
/// [`StrategyRouter::all_cycle_orders`]`(4)`: `(P1 P2 P3 P4)`,
/// `(P1 P2 P4 P3)`, `(P1 P3 P2 P4)`, `(P1 P3 P4 P2)`, `(P1 P4 P2 P3)`,
/// `(P1 P4 P3 P2)`.
pub const PAPER_TABLE3: [[bool; 3]; 6] = [
    [true, false, true],
    [true, true, false],
    [false, true, true],
    [true, true, false],
    [false, true, true],
    [true, false, true],
];

/// Runs `router` (assumed origin-aware, predecessor-aware) on the family
/// at `k <= r`, returning the first defeating `(variant, status)` if any.
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
    use local_routing::{Alg1, Alg1B, LocalRouter};
    use locality_graph::traversal;

    #[test]
    fn construction_shape() {
        let inst = instance(23, Variant::G1);
        assert_eq!(inst.graph.node_count(), 23);
        assert_eq!(inst.r, 5);
        assert!(traversal::is_connected(&inst.graph));
        assert_eq!(inst.graph.degree(inst.hub), 4);
        assert_eq!(inst.graph.degree(inst.s), 1);
        assert_eq!(inst.graph.degree(inst.t), 1);
        // Hub's neighbours in label order are exactly the path roots.
        let nbrs = inst.graph.neighbors(inst.hub);
        assert_eq!(nbrs, &inst.path_roots);
    }

    #[test]
    fn padding_absorbs_n_mod_4() {
        for n in 23..=26 {
            let inst = instance(n, Variant::G2);
            assert_eq!(inst.graph.node_count(), n);
            assert_eq!(inst.r, (n - 3) / 4);
        }
    }

    #[test]
    fn hub_view_identical_across_variants() {
        // The adversary's point: G_k(u) cannot distinguish the variants.
        let n = 23;
        let k = instance(n, Variant::G1).r as u32;
        let fps: Vec<String> = Variant::ALL
            .iter()
            .map(|&v| {
                let inst = instance(n, v);
                local_routing::LocalView::extract(&inst.graph, inst.hub, k).fingerprint()
            })
            .collect();
        assert_eq!(fps[0], fps[1]);
        assert_eq!(fps[1], fps[2]);
    }

    #[test]
    fn table3_matches_paper() {
        for n in [23usize, 24, 31] {
            let r = (n - 3) / 4;
            let rows = table3(n, r as u32);
            for (row, expected) in rows.iter().zip(PAPER_TABLE3) {
                assert_eq!(
                    row.outcomes, expected,
                    "strategy {:?} at n={n}",
                    row.cycle_order
                );
            }
        }
    }

    #[test]
    fn table3_every_strategy_fails_somewhere() {
        for row in table3(27, 5) {
            assert!(
                row.outcomes.iter().any(|&ok| !ok),
                "strategy {:?} should fail on some variant",
                row.cycle_order
            );
        }
    }

    #[test]
    fn alg1_below_threshold_is_defeated() {
        // Algorithm 1 run with k = r < ⌊(n+1)/4⌋... i.e. k below its own
        // threshold must fail on one of the three graphs (its hub
        // behaviour is one of the six strategies).
        let n = 23;
        let k = ((n - 3) / 4) as u32; // r = 5 < ceil(23/4) = 6
        assert!(k < Alg1.min_locality(n));
        assert!(defeat_router(&Alg1, n, k).is_some());
        assert!(defeat_router(&Alg1B, n, k).is_some());
    }

    #[test]
    fn alg1_at_threshold_survives_the_family() {
        // At k >= ceil(n/4) the family no longer defeats Algorithm 1.
        let n = 23;
        let k = Alg1.min_locality(n);
        assert_eq!(defeat_router(&Alg1, n, k), None);
        assert_eq!(defeat_router(&Alg1B, n, k), None);
    }

    #[test]
    fn smaller_k_also_defeats() {
        // The theorem covers every k in 1..=r.
        let n = 23;
        for k in 1..=((n - 3) / 4) as u32 {
            let rows = table3(n, k);
            for (row, expected) in rows.iter().zip(PAPER_TABLE3) {
                assert_eq!(row.outcomes, expected, "k={k}");
            }
        }
    }
}
