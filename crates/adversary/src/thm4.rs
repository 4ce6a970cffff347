//! Theorem 4 (§4.6): no k-local routing algorithm, of any awareness
//! combination, can guarantee dilation below `(2n - 3k - 1) / (k + 1)`
//! when `k < n/2`; in the limit `S(k) = 2n/k - 3`.
//!
//! The witness family is the set of labelled paths (Fig. 6): when the
//! current node's view is a path of length `2k` in both directions, the
//! algorithm cannot tell which side the destination is on, and the
//! adversary places it so that the first committed direction is wrong,
//! forcing a detour of `2(n - 2k - 1)` extra edges over a shortest path
//! of length `k + 1`.

use local_routing::engine;
use local_routing::LocalRouter;
use locality_graph::{generators, permute, Graph, NodeId};

/// The exact finite-`n` lower bound `(2n - 3k - 1) / (k + 1)` of
/// Theorem 4 (valid for `k < n/2`).
pub fn dilation_lower_bound(n: usize, k: u32) -> f64 {
    (2.0 * n as f64 - 3.0 * k as f64 - 1.0) / (k as f64 + 1.0)
}

/// The asymptotic form `S(k) = 2n/k - 3` (Equation 2).
pub fn s_of_k(n: usize, k: u32) -> f64 {
    2.0 * n as f64 / k as f64 - 3.0
}

/// The Fig. 6 path instances: a path on `n` nodes with the origin
/// placed `k + 1` hops from one end (where `t` sits) and the long
/// stretch of `n - k - 2` nodes on the other side. Returns the four
/// labelled variants (destination on either side × label order
/// reversed or not) with their `(s, t)` pairs.
pub fn path_instances(n: usize, k: u32) -> Vec<(Graph, NodeId, NodeId)> {
    assert!((k as usize) < n / 2, "theorem needs k < n/2");
    let base = generators::path(n);
    let mut out = Vec::new();
    for reversed in [false, true] {
        let g = if reversed {
            permute::reverse_labels(&base)
        } else {
            base.clone()
        };
        // Destination at the right end, origin k + 1 to its left.
        out.push((
            g.clone(),
            NodeId((n - 2 - k as usize) as u32),
            NodeId(n as u32 - 1),
        ));
        // Destination at the left end, origin k + 1 to its right.
        out.push((g, NodeId(k + 1), NodeId(0)));
    }
    out
}

/// Runs `router` over [`path_instances`] and returns the worst dilation
/// observed (`None` if the router failed on every instance).
pub fn measured_worst_dilation<R: LocalRouter + ?Sized>(
    router: &R,
    n: usize,
    k: u32,
) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for (g, s, t) in path_instances(n, k) {
        let run = engine::route(&g, k, router, s, t);
        if let Some(d) = run.dilation() {
            if worst.is_none_or(|w| d > w) {
                worst = Some(d);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::{Alg1, Alg1B, Alg2, LocalRouter};

    #[test]
    fn bound_values_match_paper_landmarks() {
        // k = n/4 -> 5, k = n/3 -> 3, k -> n/2 -> 1 in the limit.
        let n = 40_000;
        assert!((s_of_k(n, n as u32 / 4) - 5.0).abs() < 1e-9);
        assert!((s_of_k(n, n as u32 / 3) - 3.0).abs() < 2e-4);
        assert!((s_of_k(n, n as u32 / 2) - 1.0).abs() < 1e-9);
        assert!(dilation_lower_bound(n, n as u32 / 4) < s_of_k(n, n as u32 / 4));
    }

    #[test]
    fn alg1_meets_the_lower_bound_on_paths() {
        // On some labelled path the realised dilation must be at least
        // the theorem's bound (any correct algorithm pays it).
        for n in [16usize, 24, 32] {
            let k = Alg1.min_locality(n);
            let bound = dilation_lower_bound(n, k);
            for router in [&Alg1 as &dyn LocalRouter, &Alg1B] {
                let worst = measured_worst_dilation(router, n, k).expect("delivers on paths");
                assert!(
                    worst >= bound - 1e-9,
                    "{}: measured {worst} < bound {bound} at n={n}",
                    router.name()
                );
            }
        }
    }

    #[test]
    fn alg2_meets_the_lower_bound_on_paths() {
        for n in [15usize, 21, 30] {
            let k = Alg2.min_locality(n);
            let bound = dilation_lower_bound(n, k);
            let worst = measured_worst_dilation(&Alg2, n, k).expect("delivers on paths");
            assert!(worst >= bound - 1e-9, "measured {worst} < bound {bound}");
            // ... and stays under its Theorem 7 upper bound of 3.
            assert!(worst < 3.0);
        }
    }

    #[test]
    fn alg1_exactly_meets_the_lower_bound_on_paths() {
        // On the adversarial path, Algorithm 1 walks away from t to the
        // last node whose view still shows two active components — n -
        // 2k - 1 hops out — then turns (rule U1 fires as soon as the
        // dead end becomes visible) and returns: exactly the route the
        // Theorem 4 adversary forces, no more. So its dilation *equals*
        // the lower bound (2n - 3k - 1)/(k + 1) on this family.
        for n in [32usize, 64] {
            let k = Alg1.min_locality(n);
            let worst = measured_worst_dilation(&Alg1, n, k).unwrap();
            let bound = dilation_lower_bound(n, k);
            assert!(
                (worst - bound).abs() < 1e-9,
                "n={n}: measured {worst} != bound {bound}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k < n/2")]
    fn rejects_k_at_least_half() {
        path_instances(10, 5);
    }
}
