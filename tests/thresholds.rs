//! Table 1 end-to-end: each algorithm succeeds at its threshold `T(n)`
//! and is defeated just below it. Also pinned here: the two graphs on
//! which Algorithm 1B loops at `T(n)`, and the outcome of the rounding
//! gap between the two regimes at `n <= 6`.

use local_routing::engine::{self, RunStatus};
use local_routing::{Alg1, Alg1B, Alg2, Alg3, LocalRouter, RoutingError, ViewStore};
use locality_adversary::defeat;
use locality_graph::{generators, io, NodeId};
use locality_integration::{assert_all_delivered, random_suite};

#[test]
fn threshold_formulae_match_table1() {
    for n in [8usize, 12, 13, 20, 23, 100] {
        assert_eq!(Alg1.min_locality(n), n.div_ceil(4) as u32);
        assert_eq!(Alg1B.min_locality(n), n.div_ceil(4) as u32);
        assert_eq!(Alg2.min_locality(n), n.div_ceil(3) as u32);
        assert_eq!(Alg3.min_locality(n), (n / 2) as u32);
    }
}

#[test]
fn all_algorithms_deliver_at_threshold_on_random_suite() {
    for g in random_suite(0xfeed, 60, 4..26) {
        let n = g.node_count();
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            assert_all_delivered(&r, &g, r.min_locality(n));
        }
    }
}

#[test]
fn every_algorithm_defeated_below_threshold() {
    // The guaranteed-failure regimes are the exact lower-bound
    // thresholds of Theorems 1-3: k < ⌊(n+1)/4⌋, ⌊(n+1)/3⌋, ⌊n/2⌋.
    // (Between the failure regime and the ceil-rounded guarantee regime
    // a one-value gap can exist — the paper's "rounding operators are
    // omitted". The gap cells at n <= 6 are pinned by the
    // `rounding_gap_*` tests below.)
    for n in [16usize, 23, 30] {
        let cases: [(&dyn LocalRouter, u32); 4] = [
            (&Alg1, ((n + 1) / 4) as u32 - 1),
            (&Alg1B, ((n + 1) / 4) as u32 - 1),
            (&Alg2, ((n + 1) / 3) as u32 - 1),
            (&Alg3, (n / 2) as u32 - 1),
        ];
        for (r, k) in cases {
            assert!(
                defeat::find_defeat(&r, n, k).is_some(),
                "{} survived guaranteed-failure k = {k} at n = {n}",
                r.name()
            );
        }
    }
}

#[test]
fn no_defeat_at_or_above_threshold() {
    for n in [16usize, 23] {
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            for extra in 0..2u32 {
                let k = r.min_locality(n) + extra;
                assert!(
                    defeat::find_defeat(&r, n, k).is_none(),
                    "{} defeated at k = {k} >= T({n})",
                    r.name()
                );
            }
        }
    }
}

#[test]
fn thresholds_are_ordered_as_in_table1() {
    // n/4 <= n/3 <= n/2: less awareness demands more locality.
    for n in 8..60usize {
        assert!(Alg1.min_locality(n) <= Alg2.min_locality(n));
        assert!(Alg2.min_locality(n) <= Alg3.min_locality(n));
    }
}

/// Algorithm 1B's counterexamples at `T(n)`, as `u v` edge lists
/// (label = id): 11 nodes at k = 3, and 16 nodes (a tree plus one
/// triangle) at k = 4.
const LOOP_N11: &str = "0 8\n0 9\n1 3\n1 5\n1 9\n2 6\n2 8\n3 10\n4 7\n4 10\n5 7\n5 9\n";
const LOOP_N16: &str = "5 14\n3 7\n3 9\n2 11\n10 12\n10 15\n6 9\n6 13\n8 12\n1 10\n\
                        1 14\n1 15\n4 11\n4 12\n0 13\n0 14\n";

/// Algorithm 1B loops at its threshold on two graphs where Algorithm 1
/// delivers every pair. Rules U2c and U2e send the message to `other`
/// from whichever side it arrives; a message that bounces back out of a
/// dead end behind `other` is sent into it again, and the
/// (node, predecessor) state repeats. This pins the failure as it
/// stands: a fix (a predicate on U2c/U2e that lets a reversed message
/// pass through on its return) should turn the Algorithm 1B half into
/// delivery of every pair with dilation at most 6, and then this test
/// changes with it.
#[test]
fn alg1b_loops_at_threshold_on_two_graphs_where_alg1_delivers() {
    let cases = [
        (
            LOOP_N11,
            3,
            110,
            (1, 6),
            [1, 9, 5, 7, 4, 7, 5, 7],
            ["S1", "U3", "U2e", "U2a", "U1", "U2a", "U2e"],
        ),
        (
            LOOP_N16,
            4,
            240,
            (1, 2),
            [1, 14, 0, 13, 6, 13, 0, 13],
            ["S2", "U2b", "U2c", "U2f", "U1", "U2f", "U2c"],
        ),
    ];
    for (text, k, pairs, (s, t), route, rules) in cases {
        let g = io::from_str(text).expect("a valid edge list");
        assert_eq!(Alg1.min_locality(g.node_count()), k);
        let m = engine::delivery_matrix(&g, k, &Alg1);
        assert_eq!(
            (m.runs, m.failures.len()),
            (pairs, 0),
            "algorithm 1 at k = {k}"
        );

        let m = engine::delivery_matrix(&g, k, &Alg1B);
        assert_eq!(m.runs, pairs);
        assert_eq!(
            m.failures,
            [(NodeId(s), NodeId(t), RunStatus::LoopDetected)],
            "algorithm 1b at k = {k}"
        );
        let run = engine::route(&g, k, &Alg1B, NodeId(s), NodeId(t));
        assert_eq!(run.status, RunStatus::LoopDetected);
        assert_eq!(run.route, route.map(NodeId));
        assert_eq!(run.rules, rules);
    }
}

/// One router's outcome over a gap cell.
#[derive(Clone, Debug, Default, PartialEq)]
struct GapCell {
    /// Graphs with at least one failing pair.
    failing_graphs: usize,
    /// Failing pairs by status, in order of first appearance.
    failures: Vec<(RunStatus, usize)>,
    /// Hops over every delivered pair.
    delivered_hops: usize,
    /// The worst dilation of a delivered pair.
    worst_dilation: f64,
}

/// Routes every ordered pair of every connected graph on `n` nodes
/// with each of `routers` at locality `k`; the routers of one graph
/// share its view store.
fn gap_cells(routers: &[&dyn LocalRouter], n: usize, k: u32) -> Vec<GapCell> {
    let mut cells: Vec<GapCell> = routers.iter().map(|_| GapCell::default()).collect();
    for g in generators::all_connected(n) {
        let views = ViewStore::new(&g, k);
        for (router, cell) in routers.iter().zip(&mut cells) {
            let pairs = g
                .nodes()
                .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)));
            let m = engine::delivery_matrix_with_cache(&g, &views, router, pairs);
            cell.failing_graphs += usize::from(!m.all_delivered());
            for (_, _, status) in m.failures {
                match cell.failures.iter_mut().find(|(s, _)| *s == status) {
                    Some((_, c)) => *c += 1,
                    None => cell.failures.push((status, 1)),
                }
            }
            cell.delivered_hops += m.total_hops;
            if let Some((d, _, _)) = m.worst_dilation {
                cell.worst_dilation = cell.worst_dilation.max(d);
            }
        }
    }
    cells
}

/// Table 1's rounding gap: the routers run at
/// `T(n) = ⌈n/4⌉` and `⌈n/3⌉`, while Theorems 1 and 2 defeat them only
/// below `⌊(n+1)/4⌋` and `⌊(n+1)/3⌋`. These cells lie between, outside
/// every guarantee, so nothing else notices if a rewrite of the rules
/// changes what happens there. Algorithms 1 and 1B at n = 5, k = 1 and
/// Algorithm 2 at n = 4, k = 1 deliver every pair of every connected
/// graph.
#[test]
fn rounding_gap_cells_that_deliver() {
    let delivered = |hops, worst| GapCell {
        delivered_hops: hops,
        worst_dilation: worst,
        ..GapCell::default()
    };
    assert_eq!(
        gap_cells(&[&Alg1, &Alg1B], 5, 1),
        [delivered(25_035, 4.0), delivered(25_035, 4.0)]
    );
    assert_eq!(gap_cells(&[&Alg2], 4, 1), [delivered(684, 2.0)]);
}

/// The gap cell of Algorithms 1 and 1B at n = 6, k = 1 (n ≡ 2 mod 4)
/// over all 26,704 connected graphs: most failures see four active
/// components, the rest loop.
#[test]
#[ignore = "slow (all 26704 connected graphs on 6 nodes, two routers); run with --ignored"]
fn rounding_gap_cell_n6_fails() {
    let too_many =
        RunStatus::RouterError(RoutingError::TooManyActiveComponents { found: 4, max: 3 });
    let cell = GapCell {
        failing_graphs: 17_973,
        failures: vec![(too_many, 57_960), (RunStatus::LoopDetected, 696)],
        delivered_hops: 1_291_398,
        worst_dilation: 6.0,
    };
    assert_eq!(gap_cells(&[&Alg1, &Alg1B], 6, 1), [cell.clone(), cell]);
}
