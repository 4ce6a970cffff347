//! A warm delivery matrix allocates per origin, never per pair: every
//! pair walks in one route buffer and one visited-state table, cleared
//! between pairs, and the one per-origin allocation left is the BFS
//! that gives `dist(s, ·)`.
//!
//! Two workloads, `fig13(64)` under Algorithm 1 and `fig17(64)` under
//! Algorithm 1B at k = n/4, first run every pair once to fill the view
//! store and every view's tables. Then the same store routes the pairs
//! origin by origin twice over: once with each origin's row listed
//! once, and once with it listed twice. The second list has twice the
//! pairs, the same origins and the same longest route, so the two
//! matrices must make the same number of allocation calls. A walk that
//! allocated per pair would differ by thousands.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::engine::{self, MatrixReport};
use local_routing::{Alg1, Alg1B, LocalRouter, ViewStore};
use locality_adversary::tight;
use locality_graph::{Graph, NodeId};

/// System allocator that counts the allocation calls it serves
/// (a `realloc` counts once).
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees under the `GlobalAlloc` contract are the ones
// `System` needs; the counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every block here does) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's,
        // valid for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Every ordered pair of `g` origin by origin, each origin's row of
/// targets listed `times` times in a row.
fn rows(g: &Graph, times: usize) -> Vec<(NodeId, NodeId)> {
    g.nodes()
        .flat_map(|s| {
            (0..times).flat_map(move |_| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
        })
        .collect()
}

/// The matrix over `pairs` on the warm store, with the allocation
/// calls it made.
fn counted(
    g: &Graph,
    views: &ViewStore,
    router: &dyn LocalRouter,
    pairs: &[(NodeId, NodeId)],
) -> (MatrixReport, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let m = engine::delivery_matrix_with_cache(g, views, router, pairs.iter().copied());
    (m, CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn warm_matrix_allocations_do_not_grow_with_the_pair_count() {
    let (f13, f17) = (tight::fig13(64), tight::fig17(64));
    let cases: [(&str, &Graph, u32, &dyn LocalRouter); 2] = [
        ("fig13(64) / algorithm 1", &f13.graph, f13.k, &Alg1),
        ("fig17(64) / algorithm 1b", &f17.graph, f17.k, &Alg1B),
    ];
    for (what, g, k, router) in cases {
        let views = ViewStore::new(g, k);
        let (once, twice) = (rows(g, 1), rows(g, 2));
        let (warm, _) = counted(g, &views, router, &once);
        assert!(warm.all_delivered(), "{what}: {:?}", warm.failures.first());

        let (m1, calls1) = counted(g, &views, router, &once);
        let (m2, calls2) = counted(g, &views, router, &twice);
        assert_eq!((m1.runs, m2.runs), (once.len(), twice.len()), "{what}");
        assert_eq!(m2.total_hops, 2 * m1.total_hops, "{what}");
        assert_eq!(m1.worst_dilation, warm.worst_dilation, "{what}");
        assert_eq!(
            calls2, calls1,
            "{what}: {} pairs made {calls1} allocation calls, {} pairs {calls2}",
            m1.runs, m2.runs
        );
        // What is left is per origin: the BFS (a distance table and its
        // queue's growth), plus the walk buffers' growth once.
        let origins = g.node_count();
        assert!(
            calls1 <= 4 * origins + 64,
            "{what}: {calls1} allocation calls for {origins} origins"
        );
    }
}
