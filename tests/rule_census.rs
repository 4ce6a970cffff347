//! The rule census: how often each rule of Algorithms 1, 1B, 2 and 3
//! fires over a fixed corpus, pinned per router and rule name.
//!
//! Every ordered pair of every corpus graph is routed through one view
//! store per (graph, k), and each run's `RunReport::rules` names the
//! rule behind each hop. The corpus is Algorithm 1 on `fig13(16)` and
//! `fig13(32)`, Algorithm 1B on `fig17(28)` and `fig17(32)`, and all
//! four algorithms at their thresholds on `exhaustive_suite(4)` and a
//! seeded `random_suite`.
//! Between them these fire every rule the four routers have except
//! US3, including the rare ones: S3, U3, U2c, U2d and U2e.
//!
//! The counts pin the rules past Case 1, hop for hop and name for name.
//! The chaos and trace goldens name only `case-1`, `case-2` and `?`, so a
//! rewrite of the S/U/US rules or of U2a–U2f that moved a route or
//! renamed a rule would show here first.

use std::collections::BTreeMap;

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter, ViewStore};
use locality_adversary::tight;
use locality_graph::Graph;
use locality_integration::{exhaustive_suite, random_suite};

/// `(router, rule, hops)`: the pinned census, sorted by router and rule.
const CENSUS: &[(&str, &str, usize)] = &[
    ("algorithm-1", "S1", 553),
    ("algorithm-1", "S2", 745),
    ("algorithm-1", "S3", 18),
    ("algorithm-1", "U1", 47),
    ("algorithm-1", "U2", 2225),
    ("algorithm-1", "U3", 153),
    ("algorithm-1", "US1", 512),
    ("algorithm-1", "US2", 20),
    ("algorithm-1", "case-1", 13050),
    ("algorithm-1b", "S1", 638),
    ("algorithm-1b", "S2", 586),
    ("algorithm-1b", "S3", 8),
    ("algorithm-1b", "U1", 31),
    ("algorithm-1b", "U2a", 331),
    ("algorithm-1b", "U2b", 712),
    ("algorithm-1b", "U2c", 5),
    ("algorithm-1b", "U2d", 35),
    ("algorithm-1b", "U2e", 11),
    ("algorithm-1b", "U2f", 411),
    ("algorithm-1b", "U3", 70),
    ("algorithm-1b", "US1", 582),
    ("algorithm-1b", "US2", 56),
    ("algorithm-1b", "case-1", 15618),
    ("algorithm-2", "U1", 30),
    ("algorithm-2", "U2", 46),
    ("algorithm-2", "case-1", 6992),
    ("algorithm-2", "case-2", 216),
    ("algorithm-3", "case-1", 7172),
    ("algorithm-3", "case-2", 64),
];

/// Routes every ordered pair of `g` through `views`, adding each hop's
/// rule to `census`.
fn count(
    census: &mut BTreeMap<(&'static str, &'static str), usize>,
    router: &dyn LocalRouter,
    g: &Graph,
    views: &ViewStore,
) {
    for s in g.nodes() {
        for t in g.nodes().filter(|&t| t != s) {
            for rule in engine::route_with_cache(g, views, router, s, t).rules {
                *census.entry((router.name(), rule)).or_default() += 1;
            }
        }
    }
}

#[test]
fn rule_census_over_the_fixed_corpus() {
    let mut census = BTreeMap::new();
    for n in [16, 32] {
        let f = tight::fig13(n);
        count(&mut census, &Alg1, &f.graph, &ViewStore::new(&f.graph, f.k));
    }
    for n in [28, 32] {
        let f = tight::fig17(n);
        count(
            &mut census,
            &Alg1B,
            &f.graph,
            &ViewStore::new(&f.graph, f.k),
        );
    }
    let suites = exhaustive_suite(4)
        .into_iter()
        .chain(random_suite(0xc0de, 20, 8..16));
    for g in suites {
        // Views do not depend on the router: one store per k.
        let mut stores: BTreeMap<u32, ViewStore> = BTreeMap::new();
        for router in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            let k = router.min_locality(g.node_count());
            let views = stores.entry(k).or_insert_with(|| ViewStore::new(&g, k));
            count(&mut census, router, &g, views);
        }
    }
    let got: Vec<(&str, &str, usize)> = census.into_iter().map(|((r, n), c)| (r, n, c)).collect();
    assert_eq!(got, CENSUS);
}
