//! Black-box adversary: given any router and a locality parameter below
//! its threshold, search the paper's families and random suites for a
//! defeating instance.

use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::engine::{self, RunStatus};
use local_routing::{Awareness, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{fanout, generators, permute, Graph, NodeId};

use crate::{thm1, thm2, thm3};

/// A witness that a router fails.
#[derive(Clone, Debug)]
pub struct Defeat {
    /// The defeating graph.
    pub graph: Graph,
    /// Origin of the lost message.
    pub s: NodeId,
    /// Destination of the lost message.
    pub t: NodeId,
    /// How the run failed.
    pub status: RunStatus,
    /// Which family produced the witness.
    pub family: &'static str,
}

/// Searches for an instance on `n` nodes that defeats `router` at
/// locality `k`. Tries the theorem family matching the router's
/// awareness first, then the other families, then a seeded random suite.
/// Returns `None` if everything was delivered (expected when `k` is at
/// or above the router's threshold).
pub fn find_defeat<R: LocalRouter + ?Sized>(router: &R, n: usize, k: u32) -> Option<Defeat> {
    // Theorem families, ordered by which matches the awareness class.
    let aware = router.awareness();
    let mut probes: Vec<Box<dyn Fn() -> Option<Defeat>>> = Vec::new();
    let try_thm1 = || -> Option<Defeat> {
        if n < 11 || k as usize > (n - 3) / 4 {
            return None;
        }
        thm1::defeat_router(router, n, k).map(|(v, status)| {
            let inst = thm1::instance(n, v);
            Defeat {
                graph: inst.graph,
                s: inst.s,
                t: inst.t,
                status,
                family: "theorem-1",
            }
        })
    };
    let try_thm2 = || -> Option<Defeat> {
        if n < 8 || k as usize > (n - 2) / 3 {
            return None;
        }
        thm2::defeat_router(router, n, k).map(|(v, status)| {
            let inst = thm2::instance(n, v);
            Defeat {
                graph: inst.graph,
                s: inst.s,
                t: inst.t,
                status,
                family: "theorem-2",
            }
        })
    };
    let try_thm3 = || -> Option<Defeat> {
        if n < 4 || k as usize >= n / 2 {
            return None;
        }
        let p = thm3::instance_pair(n);
        for (g, s, t) in [(p.g1.clone(), p.s, p.t1), (p.g2.clone(), p.s, p.t2)] {
            let run = engine::route(&g, k, router, s, t);
            if !run.status.is_delivered() {
                return Some(Defeat {
                    graph: g,
                    s,
                    t,
                    status: run.status,
                    family: "theorem-3",
                });
            }
        }
        None
    };
    match aware {
        Awareness {
            origin: true,
            predecessor: true,
        } => {
            probes.push(Box::new(try_thm1));
            probes.push(Box::new(try_thm2));
            probes.push(Box::new(try_thm3));
        }
        Awareness {
            origin: false,
            predecessor: true,
        } => {
            probes.push(Box::new(try_thm2));
            probes.push(Box::new(try_thm1));
            probes.push(Box::new(try_thm3));
        }
        _ => {
            probes.push(Box::new(try_thm3));
            probes.push(Box::new(try_thm1));
            probes.push(Box::new(try_thm2));
        }
    }
    for probe in probes {
        if let Some(d) = probe() {
            return Some(d);
        }
    }
    // Random fallback: generate the candidate suite up front (one
    // deterministic PRNG stream), then scan it from several threads.
    // The winner is the **lowest-index** defeating candidate, so the
    // result is identical to the old sequential scan regardless of
    // thread count or scheduling.
    let mut rng = DetRng::seed_from_u64(0x10ca1);
    let candidates: Vec<Graph> = (0..64)
        .map(|_| permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng))
        .collect();
    let (idx, (s, t, status)) = first_failure(&candidates, k, router, fanout::default_threads())?;
    candidates.get(idx).map(|g| Defeat {
        graph: g.clone(),
        s,
        t,
        status,
        family: "random",
    })
}

/// The lowest-index candidate on which `router` fails some pair, with
/// that candidate's first failing pair, scanned on up to `threads`
/// workers.
///
/// Workers publish the lowest failing index found so far and skip
/// every candidate above it. The lowest failing candidate is never
/// skipped (only a lower hit could prune it), so the first hit in
/// candidate order is the sequential scan's at any thread count. The
/// atomic guards no other data, hence `Relaxed`.
fn first_failure<R: LocalRouter + ?Sized>(
    candidates: &[Graph],
    k: u32,
    router: &R,
    threads: usize,
) -> Option<(usize, (NodeId, NodeId, RunStatus))> {
    let best = AtomicUsize::new(usize::MAX);
    let hits = fanout::run_trials(candidates, threads, |i, g| {
        if i > best.load(Ordering::Relaxed) {
            return None;
        }
        let hit = engine::delivery_matrix(g, k, router)
            .failures
            .into_iter()
            .next()?;
        best.fetch_min(i, Ordering::Relaxed);
        Some(hit)
    });
    hits.into_iter()
        .enumerate()
        .find_map(|(i, hit)| Some((i, hit?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::baselines::{LowestRankForward, RightHandRule};
    use local_routing::{Alg1, Alg2, Alg3};

    #[test]
    fn defeats_algorithms_below_threshold() {
        let n = 23;
        for (router, k) in [
            (&Alg1 as &dyn LocalRouter, Alg1.min_locality(n) - 1),
            (&Alg2, Alg2.min_locality(n) - 1),
            (&Alg3, Alg3.min_locality(n) - 1),
        ] {
            let d = find_defeat(&router, n, k);
            assert!(
                d.is_some(),
                "{} not defeated at k below threshold",
                router.name()
            );
        }
    }

    #[test]
    fn no_defeat_at_threshold() {
        let n = 23;
        for router in [&Alg1 as &dyn LocalRouter, &Alg2, &Alg3] {
            let k = router.min_locality(n);
            assert!(
                find_defeat(&router, n, k).is_none(),
                "{} unexpectedly defeated at its threshold",
                router.name()
            );
        }
    }

    #[test]
    fn random_scan_finds_the_lowest_failing_candidate_at_any_thread_count() {
        // The right-hand rule delivers on trees, so the trees in front
        // push the lowest failing candidate past index 0.
        let mut rng = DetRng::seed_from_u64(3);
        let mut candidates = vec![generators::path(12), generators::star(12)];
        candidates.extend((0..10).map(|_| generators::random_mixed(12, &mut rng)));
        candidates.insert(5, generators::binary_tree(3));
        let k = 2;
        let sequential = candidates.iter().enumerate().find_map(|(i, g)| {
            let m = engine::delivery_matrix(g, k, &RightHandRule);
            m.failures.into_iter().next().map(|hit| (i, hit))
        });
        assert!(sequential.as_ref().is_some_and(|&(i, _)| i >= 2));
        for threads in [1, 2, 3, 8] {
            let found = first_failure(&candidates, k, &RightHandRule, threads);
            assert_eq!(found, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn defeats_baselines() {
        assert!(find_defeat(&RightHandRule, 23, 2).is_some());
        assert!(find_defeat(&LowestRankForward, 23, 2).is_some());
    }
}
