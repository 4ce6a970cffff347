//! The O(view) proof for preprocessing: `routing_view()` (dormant
//! edges, `G'_k(u)` and its component analysis) and `raw_analysis()`
//! allocate exactly as many bytes, and keep exactly as many alive, on
//! `ring_lattice(10⁵, 8)` as on `ring_lattice(2048, 8)`.
//!
//! Both sizes preprocess the sixteen views centred on ids n − 1024 to
//! n − 1009, twice: at k = 1, where each view is a star (a tree, so
//! preprocessing skips the dormant pass), and at k = 2, where each has
//! 33 members, 172 edges and 91 dormant edges (the pass and the masked
//! rebuild run). Labels follow ids, so each view has the same shape and
//! label order at either size; only the ids differ (about 1 000
//! against about 99 000). Any array sized by the largest id in a view,
//! whether a distance map per edge or per candidate or an id-indexed
//! table kept in the routing view, shows up as a byte-count difference.
//! Extraction runs outside the count. The counts are deterministic,
//! not timings.
//!
//! The star views also bound the allocator calls of a tree's
//! `routing_view()`: the search, the copied view, the analysis's work
//! arrays, each list of each component in one block, and the active
//! neighbours. Preprocessing that ran the dormant pass and searched
//! `G'_k(u)` again, with lists grown push by push, took more.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::LocalView;
use locality_graph::{generators, NodeId};

/// System allocator that totals the bytes it hands out and takes back,
/// and the calls that hand them out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated while `f` runs, how many of them are still live
/// when it returns, and the allocator calls that handed them out (a
/// reallocation counts as one).
fn counted(f: impl FnOnce()) -> [usize; 3] {
    let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
    let before = [&ALLOCATED, &FREED, &CALLS].map(load);
    f();
    let [allocated, freed, calls] = [&ALLOCATED, &FREED, &CALLS].map(load);
    let allocated = allocated - before[0];
    [
        allocated,
        allocated - (freed - before[1]),
        calls - before[2],
    ]
}

/// Allocator calls `routing_view()` may make on the sixteen star views
/// together, 76 a view. Each reads 75: the boxed cache (1), the
/// search's two buffers (2), the copied view's two blocks (2), the
/// analysis's four work arrays and its component list (5), one block
/// for each of the four lists of its sixteen singleton components (64)
/// and one for the active neighbours. Running the dormant pass, the
/// masked rebuild and a second search of `G'_k(u)`, with lists and
/// active neighbours grown push by push, took 110 a view, 1,760 in all.
const STAR_CALLS: usize = 16 * 76;

#[test]
fn preprocessing_allocates_per_view_not_per_graph() {
    let mut figures = Vec::new();
    for n in [2048u32, 100_000] {
        let g = generators::ring_lattice(n as usize, 8);
        let views = |k| -> Vec<LocalView> {
            (n - 1024..n - 1008)
                .map(|u| LocalView::extract(&g, NodeId(u), k))
                .collect()
        };
        let (stars, cyclic) = (views(1), views(2));
        let routing = counted(|| {
            for v in &stars {
                black_box(v.routing_view());
            }
        });
        let raw = counted(|| {
            for v in &stars {
                black_box(v.raw_analysis());
            }
        });
        let cyclic_routing = counted(|| {
            for v in &cyclic {
                black_box(v.routing_view());
            }
        });
        let rv = stars[0].routing_view();
        let shape = (
            rv.sub.node_count(),
            rv.sub.edge_count(),
            rv.analysis.components.len(),
        );
        assert_eq!(
            shape,
            (17, 16, 16),
            "a star of singleton components at n = {n}"
        );
        for v in &cyclic {
            let shape = (
                v.node_count(),
                v.raw().edge_count(),
                v.routing_view().dormant.len(),
            );
            assert_eq!(
                shape,
                (33, 172, 91),
                "the k = 2 view of {} at n = {n}",
                v.center()
            );
        }
        figures.push([routing, raw, cyclic_routing]);
    }
    assert!(
        figures[0].iter().all(|&[allocated, _, _]| allocated > 0),
        "the counter must see the work"
    );
    assert_eq!(
        figures[0], figures[1],
        "[star routing_view, star raw_analysis, k = 2 routing_view] as [allocated, live, calls] \
         differ with n: {figures:?} at n = 2048 / 100000"
    );
    let calls = figures[0][0][2];
    eprintln!("routing_view() on 16 star views: {calls} allocator calls; figures {figures:?}");
    assert!(
        calls <= STAR_CALLS,
        "routing_view() on 16 star views made {calls} allocator calls, above {STAR_CALLS}"
    );
}
