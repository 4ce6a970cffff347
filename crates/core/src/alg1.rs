//! Algorithm 1 (§5.1) and Algorithm 1B (Appendix A): origin-aware,
//! predecessor-aware (n/4)-local routing.
//!
//! For `k >= n/4`, every node has active degree at most 3 in `G'_k(u)`
//! (Proposition 1), and a small family of deterministic rules —
//! essentially a right-hand rule over routing edges, with the origin `s`
//! used as a reference point to cut repeating behaviour — guarantees
//! delivery with dilation at most 7 (Theorem 5). Algorithm 1B refines
//! rule U2 to reverse direction *pre-emptively* when the current node can
//! already predict that `s` (rule S2) or a constraint vertex sheltering
//! `s` (rule US2) would bounce the message, improving the dilation bound
//! to 6 (Theorem 6).
//!
//! ### Rule tables
//!
//! The figures carrying the rule diagrams are not reproducible from the
//! text, so the tables below are reconstructed from the constraints the
//! correctness proofs impose (Lemmas 4, 7, 8, 14–16); see DESIGN.md. Let
//! `a < b < c` be the centre's active neighbours ordered by label, `v`
//! the neighbour that delivered the message, and `P` the passive
//! component containing `s` (Case 4 only).
//!
//! | rule | trigger                  | `v=⊥`/from `P` | from `a` | from `b` | from `c` |
//! |------|--------------------------|----------------|----------|----------|----------|
//! | S1   | `u = s`, 1 active        | `a`            | `a`      |          |          |
//! | S2   | `u = s`, 2 active        | `a`            | `b`      | `b`      |          |
//! | S3   | `u = s`, 3 active        | `a`            | `b`      | `c`      | `c`      |
//! | U1   | 1 active                 | `a`            | `a`      |          |          |
//! | U2   | 2 active                 | `a`            | `b`      | `a`      |          |
//! | U3   | 3 active                 | `a`            | `b`      | `c`      | `a`      |
//! | US1  | `s` passive, 1 active    | `a`            | `a`      |          |          |
//! | US2  | `s` passive, 2 active    | `a`            | `b`      | `b`      |          |
//! | US3  | `s` passive, 3 active    | `a`            | `b`      | `c`      | `c`      |
//!
//! The table is the specification; the code reads it as two schemas of
//! one next-port read ([`next_port`]), with the active neighbours as
//! ports. In both, a first send goes out `a`, and a return from port `j`
//! goes out port `j + 1`; they differ only at the last port. The S/US
//! rules are *sequential*: a return from the last port reverses back
//! into it. (At `u = s`, or with `s` sheltered in a passive component,
//! Lemma 1 does not force circularity — and sequential probing is what
//! keeps the origin's ports from being re-used, which a cyclic rule at
//! `s` would do.) The U rules are *cyclic*: the label-order circular
//! permutation that Lemma 1 *does* force when neither `s` nor `t` is
//! relevantly placed.
//!
//! An arrival from a neighbour that is not a port goes out `a` too. For
//! an arrival from `P` that is the table's rule, since `P`'s roots are
//! passive and so never ports. Arrivals from other passive components
//! cannot occur in a well-formed run (Corollary 4).

use locality_graph::components::LocalComponent;
use locality_graph::{Label, NodeId};

use crate::error::RoutingError;
use crate::model::{Awareness, Packet};
use crate::traits::{case_1, ceil_div, LocalRouter};
use crate::view::{next_port, LocalView, RoutingView, Schema};

/// Algorithm 1: origin-aware, predecessor-aware, succeeds on every
/// connected graph when `k >= n/4`, dilation at most 7 (Theorem 5).
///
/// ```
/// use local_routing::{engine, Alg1, LocalRouter};
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::lollipop(12, 4);
/// let k = Alg1.min_locality(g.node_count());
/// let report = engine::route(&g, k, &Alg1, NodeId(2), NodeId(15));
/// assert!(report.status.is_delivered());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Alg1;

/// Algorithm 1B: Algorithm 1 with the refined rule U2 (cases U2a–U2f),
/// guaranteeing dilation at most 6 (Theorem 6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Alg1B;

impl LocalRouter for Alg1 {
    fn name(&self) -> &'static str {
        "algorithm-1"
    }

    fn awareness(&self) -> Awareness {
        Awareness::FULL
    }

    fn min_locality(&self, n: usize) -> u32 {
        ceil_div(n, 4)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        decide(packet, view, U2Mode::Plain).map(|(l, _)| l)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        decide(packet, view, U2Mode::Plain)
    }
}

impl LocalRouter for Alg1B {
    fn name(&self) -> &'static str {
        "algorithm-1b"
    }

    fn awareness(&self) -> Awareness {
        Awareness::FULL
    }

    fn min_locality(&self, n: usize) -> u32 {
        ceil_div(n, 4)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        decide(packet, view, U2Mode::Refined).map(|(l, _)| l)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        decide(packet, view, U2Mode::Refined)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum U2Mode {
    Plain,
    Refined,
}

fn decide(
    packet: &Packet,
    view: &LocalView,
    u2: U2Mode,
) -> Result<(Label, &'static str), RoutingError> {
    if let Some(decision) = case_1(packet, view) {
        return decision;
    }

    let origin = packet.origin.ok_or(RoutingError::MissingOrigin)?;
    let rv = view.routing_view();

    // Active neighbours of u in G'_k(u), ordered by label: the paper's
    // a, b, c, and the ports of every rule below.
    let active = rv.active();
    if active.is_empty() {
        return Err(RoutingError::NoActiveComponent);
    }
    if active.len() > 3 {
        return Err(RoutingError::TooManyActiveComponents {
            found: active.len(),
            max: 3,
        });
    }
    let port = |schema| {
        next_port(active.iter().map(|&(l, _)| l), packet.predecessor, schema)
            .ok_or(RoutingError::NoActiveComponent)
    };

    // Case 2: u = s.
    if view.center_label() == origin {
        let rule = ["S1", "S2", "S3"][active.len() - 1];
        return Ok((port(Schema::Sequential)?, rule));
    }

    // Locate s within G'_k(u) to pick Case 3 vs Case 4.
    let s_node = view
        .node_by_label(origin)
        .filter(|x| rv.sub.contains_node(*x));
    let s_passive = s_node
        .and_then(|x| rv.analysis.component_of(x))
        .and_then(|i| rv.analysis.components.get(i))
        .is_some_and(|c| !c.is_active());

    Ok(if s_passive {
        // Case 4: s lies in a passive component of u.
        let rule = ["US1", "US2", "US3"][active.len() - 1];
        (port(Schema::Sequential)?, rule)
    } else {
        // Case 3: s not visible in G'_k(u), or in an active component.
        let next = port(Schema::Cyclic)?;
        match (active.len(), u2) {
            (2, U2Mode::Refined) => u2_refined(view, rv, next, s_node),
            (len, _) => (next, ["U1", "U2", "U3"][len - 1]),
        }
    })
}

/// Rules U2a–U2f of Algorithm 1B: with two active components, reverse
/// pre-emptively when the node can already see that rule S2 (at `s`) or
/// US2 (at the constraint vertex sheltering `s`) would bounce the
/// message back. `through` is plain U2's port.
fn u2_refined(
    view: &LocalView,
    rv: &RoutingView,
    through: Label,
    s_node: Option<NodeId>,
) -> (Label, &'static str) {
    let active = rv.active();
    debug_assert_eq!(active.len(), 2);
    let plain = |rule: &'static str| (through, rule);

    // U2a: s not in G'_k(u), or at the edge of knowledge.
    let Some(s) = s_node else {
        return plain("U2a");
    };
    let Some(ds) = rv.dist(s) else {
        return plain("U2a");
    };
    if ds >= view.k() {
        return plain("U2a");
    }
    let Some(comp) = rv
        .analysis
        .component_of(s)
        .and_then(|i| rv.analysis.components.get(i))
    else {
        return plain("U2a");
    };
    if !comp.is_active() {
        // s in a passive component is Case 4, handled before we get here.
        return plain("U2a");
    }
    // The active neighbour whose component shelters s, and the other one.
    let Some(&(_, toward_s)) = active.iter().find(|&&(_, x)| comp.contains(x)) else {
        return plain("U2f");
    };
    let Some(&(other, _)) = active
        .iter()
        .find(|&&(_, x)| x != toward_s && !comp.contains(x))
    else {
        return plain("U2f");
    };

    // The pivot vertex at which a bounce would occur: s itself when s is
    // a constraint vertex (U2b/c), else the constraint vertex e off
    // which s's passive branch hangs (U2d/e).
    let (pivot, via_s) = if comp.constraint_vertices.binary_search(&s).is_ok() {
        (Some(s), true)
    } else {
        (view.shelter_pivot(s), false)
    };
    let Some(pivot) = pivot else {
        return plain("U2f");
    };
    let Some(dp) = rv.dist(pivot) else {
        return plain("U2f");
    };

    // The pivot's neighbours straddling it on the constrained spine:
    // d at distance dp - 1 (or u itself when dp = 1), c at dp + 1, both
    // constraint vertices.
    let d_label: Option<Label> = if dp == 1 {
        Some(view.center_label())
    } else {
        pick_spine_neighbor(view, rv, comp, pivot, dp - 1)
    };
    let c_label = pick_spine_neighbor(view, rv, comp, pivot, dp + 1);
    let (Some(c_label), Some(d_label)) = (c_label, d_label) else {
        return plain("U2f");
    };

    if c_label > d_label {
        // U2b / U2d: the bounce rule at the pivot would pass the message
        // through; keep plain U2.
        plain(if via_s { "U2b" } else { "U2d" })
    } else {
        // U2c / U2e: the pivot would reverse the message; reverse here
        // instead — never forward toward s.
        (other, if via_s { "U2c" } else { "U2e" })
    }
}

/// The constraint vertex `e` of `comp` such that `s` lies in a branch
/// hanging off `e` that (seen from `e`) is passive: removing `e`
/// separates `s` from both the centre and every depth-k vertex.
///
/// The per-call reference for [`LocalView::shelter_pivot`]'s table:
/// one slot BFS from `s` over `G'_k(u)` per candidate.
#[cfg(test)]
fn find_shelter_pivot(
    view: &LocalView,
    rv: &RoutingView,
    comp: &LocalComponent,
    s: NodeId,
) -> Option<NodeId> {
    use locality_graph::dist::UNREACHED;

    let (mut reach, mut order) = (Vec::new(), Vec::new());
    comp.constraint_vertices
        .iter()
        .copied()
        .filter(|&e| e != s)
        .find(|&e| {
            let gone = rv.sub.slot_of(e);
            rv.sub
                .bfs_slots(s, u32::MAX, |_, t| Some(t) != gone, &mut reach, &mut order);
            let reached = |x: NodeId| {
                rv.sub
                    .slot_of(x)
                    .and_then(|x| reach.get(x))
                    .is_some_and(|&d| d != UNREACHED)
            };
            !reached(view.center()) && !comp.depth_k_nodes.iter().any(|&z| reached(z))
        })
}

/// The constraint-vertex neighbour of `pivot` in `G'_k(u)` at distance
/// `want` from the centre (lowest label on ties), as a label.
fn pick_spine_neighbor(
    view: &LocalView,
    rv: &RoutingView,
    comp: &LocalComponent,
    pivot: NodeId,
    want: u32,
) -> Option<Label> {
    rv.sub
        .neighbors(pivot)
        .filter(|&x| rv.dist(x) == Some(want))
        .filter(|x| comp.constraint_vertices.binary_search(x).is_ok())
        .map(|x| view.label(x))
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, RunStatus};
    use locality_graph::rng::DetRng;
    use locality_graph::{generators, permute};

    fn assert_all_delivered<R: LocalRouter>(router: &R, g: &locality_graph::Graph, k: u32) {
        let m = engine::delivery_matrix(g, k, router);
        assert!(
            m.all_delivered(),
            "{} failed on {:?} with k={k}: first failure {:?}",
            router.name(),
            g,
            m.failures.first()
        );
    }

    #[test]
    fn delivers_on_paths_and_trees() {
        for g in [
            generators::path(12),
            generators::spider(3, 4),
            generators::binary_tree(3),
            generators::caterpillar(4, 1),
        ] {
            let k = Alg1.min_locality(g.node_count());
            assert_all_delivered(&Alg1, &g, k);
            assert_all_delivered(&Alg1B, &g, k);
        }
    }

    #[test]
    fn delivers_on_cycles_of_all_sizes() {
        for n in 3..=20 {
            let g = generators::cycle(n);
            let k = Alg1.min_locality(n);
            assert_all_delivered(&Alg1, &g, k);
            assert_all_delivered(&Alg1B, &g, k);
        }
    }

    #[test]
    fn delivers_on_cyclic_families() {
        for g in [
            generators::lollipop(9, 5),
            generators::theta(&[2, 3, 4]),
            generators::theta(&[3, 3, 3]),
            generators::complete(8),
            generators::grid(3, 4),
        ] {
            let k = Alg1.min_locality(g.node_count());
            assert_all_delivered(&Alg1, &g, k);
            assert_all_delivered(&Alg1B, &g, k);
        }
    }

    #[test]
    fn survives_label_permutations() {
        let mut rng = DetRng::seed_from_u64(20090810);
        for _ in 0..12 {
            let n = rng.gen_range(4..18);
            let base = generators::random_mixed(n, &mut rng);
            let g = permute::random_relabel(&base, &mut rng);
            let k = Alg1.min_locality(n);
            assert_all_delivered(&Alg1, &g, k);
            assert_all_delivered(&Alg1B, &g, k);
        }
    }

    #[test]
    fn larger_k_than_threshold_still_works() {
        let g = generators::lollipop(8, 4);
        for k in Alg1.min_locality(12)..=12 {
            assert_all_delivered(&Alg1, &g, k);
            assert_all_delivered(&Alg1B, &g, k);
        }
    }

    #[test]
    fn dilation_within_theorem_bounds() {
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..15 {
            let n = rng.gen_range(4..16);
            let g = generators::random_mixed(n, &mut rng);
            let k = Alg1.min_locality(n);
            for (router, bound) in [(&Alg1 as &dyn LocalRouter, 7.0), (&Alg1B, 6.0)] {
                let m = engine::delivery_matrix(&g, k, &router);
                assert!(m.all_delivered());
                if let Some((d, s, t)) = m.worst_dilation {
                    assert!(
                        d <= bound,
                        "{} dilation {d} > {bound} on {g:?} ({s},{t})",
                        router.name()
                    );
                }
            }
        }
    }

    #[test]
    fn observation1_in_successful_runs() {
        // A delivered predecessor-aware run crosses each directed edge at
        // most once (Observation 1).
        let g = generators::theta(&[3, 4, 5]);
        let k = Alg1.min_locality(g.node_count());
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let r = engine::route(&g, k, &Alg1, s, t);
                assert_eq!(r.status, RunStatus::Delivered);
                assert!(r.max_directed_edge_uses() <= 1, "({s},{t}): {:?}", r.route);
            }
        }
    }

    #[test]
    fn s2_rule_reverses_on_high_rank_side() {
        // At the origin with two active neighbours, arrival from either
        // side forwards to b — in particular arrival from b reverses.
        let s2 = |v| next_port([Label(1), Label(2)], v, Schema::Sequential);
        assert_eq!(s2(None), Some(Label(1)));
        assert_eq!(s2(Some(Label(1))), Some(Label(2)));
        assert_eq!(s2(Some(Label(2))), Some(Label(2)));
    }

    #[test]
    fn s3_rule_probes_sequentially_and_reverses_at_last() {
        let s3 = |v| next_port([Label(1), Label(2), Label(3)], v, Schema::Sequential);
        assert_eq!(s3(None), Some(Label(1)));
        assert_eq!(s3(Some(Label(1))), Some(Label(2)));
        assert_eq!(s3(Some(Label(2))), Some(Label(3)));
        // Unlike U3, the origin must not cycle back to a (that directed
        // edge is already spent): it reverses into c.
        assert_eq!(s3(Some(Label(3))), Some(Label(3)));
    }

    #[test]
    fn u2_rule_passes_through() {
        let u2 = |v| next_port([Label(1), Label(2)], Some(v), Schema::Cyclic);
        assert_eq!(u2(Label(1)), Some(Label(2)));
        assert_eq!(u2(Label(2)), Some(Label(1)));
    }

    #[test]
    fn u3_rule_is_label_cyclic() {
        let u3 = |v| next_port([Label(1), Label(4), Label(9)], Some(v), Schema::Cyclic);
        assert_eq!(u3(Label(1)), Some(Label(4)));
        assert_eq!(u3(Label(4)), Some(Label(9)));
        assert_eq!(u3(Label(9)), Some(Label(1)));
    }

    /// Checks the per-view pivot table against the per-call search for
    /// every member of every active component of every view of `g`;
    /// returns how many members have a pivot.
    fn assert_pivot_table_matches_search(g: &locality_graph::Graph, k: u32, what: &str) -> usize {
        let mut sheltered = 0;
        for u in g.nodes() {
            let view = LocalView::extract(g, u, k);
            let rv = view.routing_view();
            for comp in rv.analysis.active_components() {
                for &s in &comp.nodes {
                    let want = find_shelter_pivot(&view, rv, comp, s);
                    assert_eq!(
                        view.shelter_pivot(s),
                        want,
                        "{what}: pivot of {s} in the view at {u}, k = {k}"
                    );
                    sheltered += usize::from(want.is_some());
                }
            }
        }
        sheltered
    }

    #[test]
    fn shelter_pivot_table_matches_per_call_search() {
        let mut rng = DetRng::seed_from_u64(20);
        for n in [28, 32, 64] {
            let fig = locality_adversary::tight::fig17(n);
            let mut sheltered = assert_pivot_table_matches_search(&fig.graph, fig.k, "fig17");
            for seed in 0..3 {
                let (g, _) = permute::random_permute_nodes(&fig.graph, &mut rng);
                sheltered +=
                    assert_pivot_table_matches_search(&g, fig.k, &format!("fig17({n}) #{seed}"));
            }
            assert!(sheltered > 0, "fig17({n}) must exercise U2d/U2e pivots");
        }
        let mut sheltered = 0;
        for n in [12, 24, 40, 64] {
            for extra in [0, n / 8, n / 2] {
                let g = generators::random_connected(n, extra, &mut rng);
                let k = Alg1B.min_locality(n);
                sheltered += assert_pivot_table_matches_search(&g, k, "random_connected");
            }
        }
        assert!(sheltered > 0, "random graphs must exercise pivots too");
    }

    #[test]
    fn alg1b_never_does_worse_than_alg1_on_suite() {
        // Lemma 14: Alg 1B's route is a subsequence of Alg 1's, so it is
        // never longer.
        let mut rng = DetRng::seed_from_u64(99);
        for _ in 0..10 {
            let n = rng.gen_range(4..16);
            let g = generators::random_mixed(n, &mut rng);
            let k = Alg1.min_locality(n);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let r1 = engine::route(&g, k, &Alg1, s, t);
                    let rb = engine::route(&g, k, &Alg1B, s, t);
                    assert!(r1.status.is_delivered() && rb.status.is_delivered());
                    assert!(
                        rb.hops() <= r1.hops(),
                        "1B longer than 1 on {g:?} ({s},{t}): {} vs {}",
                        rb.hops(),
                        r1.hops()
                    );
                }
            }
        }
    }
}
