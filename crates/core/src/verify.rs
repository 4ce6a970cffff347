//! Checkers for the paper's structural results, used by tests and the
//! experiment harness to validate runs against the theory.

use locality_graph::{cycles, traversal, Graph, NodeId};

use crate::engine::RunReport;
use crate::preprocess;
use crate::view::LocalView;

/// Observation 1: in a successful predecessor-aware run, every directed
/// edge is traversed at most once.
pub fn check_observation1(report: &RunReport) -> Result<(), String> {
    if !report.status.is_delivered() {
        return Ok(()); // the observation only constrains successful runs
    }
    let uses = report.max_directed_edge_uses();
    if uses <= 1 {
        Ok(())
    } else {
        Err(format!("a directed edge was traversed {uses} times"))
    }
}

/// Lemma 3: the consistent edges of `G` connect every pair of nodes.
pub fn check_lemma3_consistent_connectivity(g: &Graph, k: u32) -> Result<(), String> {
    let sub = preprocess::consistent_subgraph(g, k);
    if traversal::is_connected(&sub) {
        Ok(())
    } else {
        Err("consistent subgraph is disconnected".into())
    }
}

/// Lemma 5: the graph induced by consistent edges has girth ≥ 2k + 1.
pub fn check_lemma5_consistent_girth(g: &Graph, k: u32) -> Result<(), String> {
    let sub = preprocess::consistent_subgraph(g, k);
    match cycles::girth(&sub) {
        None => Ok(()),
        Some(girth) if girth > 2 * k => Ok(()),
        Some(girth) => Err(format!("consistent girth {girth} < {}", 2 * k + 1)),
    }
}

/// Corollary 3 (scoped to where it applies): outside the delivery zone
/// (nodes with `dist(u, t) > k`, i.e. where Cases 2–4 decide), the
/// message travels only along consistent edges.
pub fn check_corollary3_route_consistency(
    g: &Graph,
    k: u32,
    report: &RunReport,
    t: NodeId,
) -> Result<(), String> {
    let inconsistent = preprocess::inconsistent_edges(g, k);
    let dist_to_t = traversal::bfs_distances(g, t, None);
    for w in report.route.windows(2) {
        let (u, v) = (w[0], w[1]);
        let deciding_far = dist_to_t.get(u).is_none_or(|d| d > k);
        if deciding_far && inconsistent.contains(&preprocess::edge_key(u, v)) {
            return Err(format!(
                "hop {u} -> {v} uses an inconsistent edge outside the delivery zone"
            ));
        }
    }
    Ok(())
}

/// Propositions 1–3: the maximum active degree over all nodes of `G` in
/// their preprocessed views `G'_k(u)`.
pub fn max_active_degree(g: &Graph, k: u32) -> usize {
    g.nodes()
        .map(|u| {
            let view = LocalView::extract(g, u, k);
            view.routing_view().analysis.active_degree()
        })
        .max()
        .unwrap_or(0)
}

/// The paper's standing observation in §5.1: every component of
/// `G'_k(u)` is independent (unique root). Returns the first violation.
pub fn check_routing_components_independent(g: &Graph, k: u32) -> Result<(), String> {
    for u in g.nodes() {
        let view = LocalView::extract(g, u, k);
        for c in &view.routing_view().analysis.components {
            if c.roots.len() != 1 {
                return Err(format!(
                    "component {:?} of G'_{k}({u}) has {} roots",
                    c.nodes,
                    c.roots.len()
                ));
            }
        }
    }
    Ok(())
}

/// Active components contain at least `k` nodes (the counting fact
/// behind Propositions 1–3).
pub fn check_active_components_large(g: &Graph, k: u32) -> Result<(), String> {
    for u in g.nodes() {
        let view = LocalView::extract(g, u, k);
        for c in view.routing_view().analysis.active_components() {
            if c.nodes.len() < k as usize {
                return Err(format!(
                    "active component of G'_{k}({u}) has only {} nodes",
                    c.nodes.len()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::{Alg1, Alg2, LocalRouter};
    use locality_graph::generators;
    use locality_graph::rng::DetRng;

    #[test]
    fn structural_lemmas_on_random_graphs() {
        let mut rng = DetRng::seed_from_u64(1234);
        for _ in 0..10 {
            let n = rng.gen_range(4..14);
            let g = generators::random_mixed(n, &mut rng);
            for k in 1..=(n as u32 / 2 + 1) {
                check_lemma3_consistent_connectivity(&g, k).unwrap();
                check_lemma5_consistent_girth(&g, k).unwrap();
            }
        }
    }

    #[test]
    fn proposition1_and_2_on_random_graphs() {
        let mut rng = DetRng::seed_from_u64(77);
        for _ in 0..10 {
            let n = rng.gen_range(4..14);
            let g = generators::random_mixed(n, &mut rng);
            let k1 = Alg1.min_locality(n);
            assert!(max_active_degree(&g, k1) <= 3, "Prop 1 violated on {g:?}");
            let k2 = Alg2.min_locality(n);
            assert!(max_active_degree(&g, k2) <= 2, "Prop 2 violated on {g:?}");
        }
    }

    #[test]
    fn routing_components_independent_on_random_graphs() {
        let mut rng = DetRng::seed_from_u64(4242);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let g = generators::random_mixed(n, &mut rng);
            let k = Alg1.min_locality(n);
            check_routing_components_independent(&g, k).unwrap();
            check_active_components_large(&g, k).unwrap();
        }
    }

    #[test]
    fn corollary3_on_alg1_routes() {
        let g = generators::lollipop(10, 4);
        let k = Alg1.min_locality(g.node_count());
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let r = engine::route(&g, k, &Alg1, s, t);
                check_observation1(&r).unwrap();
                check_corollary3_route_consistency(&g, k, &r, t).unwrap();
            }
        }
    }
}
