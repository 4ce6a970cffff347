//! Shared helpers for the repository-level integration test suite in
//! `/tests`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;

use local_routing::engine::{self, MatrixReport};
use local_routing::{LocalRouter, ViewStore};
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, Graph};

/// Asserts that `router`, run with locality `k`, delivers every ordered
/// pair on `g`; panics with a diagnostic otherwise.
pub fn assert_all_delivered<R: LocalRouter + ?Sized>(router: &R, g: &Graph, k: u32) {
    check_delivered(&engine::delivery_matrix(g, k, router), router, g, k);
}

/// Asserts that every `(router, k)` of `runs` delivers every ordered
/// pair on `g`, as [`assert_all_delivered`] does for one. Runs at the
/// same `k` route through one view store: a view and its preprocessing
/// do not depend on the router, so each is built once per node and
/// `k` rather than once per router.
pub fn assert_all_delivered_sharing_views<'r>(
    g: &Graph,
    runs: impl IntoIterator<Item = (&'r dyn LocalRouter, u32)>,
) {
    let mut stores: BTreeMap<u32, ViewStore> = BTreeMap::new();
    for (router, k) in runs {
        let views = stores.entry(k).or_insert_with(|| ViewStore::new(g, k));
        let pairs = g
            .nodes()
            .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)));
        let m = engine::delivery_matrix_with_cache(g, views, router, pairs);
        check_delivered(&m, router, g, k);
    }
}

/// Panics with a diagnostic unless `m` delivered every pair.
fn check_delivered<R: LocalRouter + ?Sized>(m: &MatrixReport, router: &R, g: &Graph, k: u32) {
    assert!(
        m.all_delivered(),
        "{} (k={k}) failed on {:?}: first failure {:?} of {}",
        router.name(),
        g,
        m.failures.first(),
        m.failures.len(),
    );
}

/// The worst dilation over the full delivery matrix (requires all
/// delivered).
pub fn worst_dilation<R: LocalRouter + ?Sized>(router: &R, g: &Graph, k: u32) -> f64 {
    let m = engine::delivery_matrix(g, k, router);
    assert!(m.all_delivered(), "{} failed on {g:?}", router.name());
    m.worst_dilation.map(|(d, _, _)| d).unwrap_or(1.0)
}

/// A deterministic batch of random connected graphs (mixed shapes, with
/// scrambled labels) for randomized suites.
pub fn random_suite(seed: u64, count: usize, n_range: std::ops::Range<usize>) -> Vec<Graph> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(n_range.clone());
            let g = generators::random_mixed(n, &mut rng);
            permute::random_relabel(&g, &mut rng)
        })
        .collect()
}

/// Every connected graph on `n` nodes, each also in a reversed-label
/// variant — the exhaustive gauntlet for small `n`.
pub fn exhaustive_suite(n: usize) -> Vec<Graph> {
    let mut out = Vec::new();
    for g in generators::all_connected(n) {
        out.push(permute::reverse_labels(&g));
        out.push(g);
    }
    out
}
