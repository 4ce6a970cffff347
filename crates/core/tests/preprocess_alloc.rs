//! The O(view) proof for preprocessing: `routing_view()` (dormant
//! edges, `G'_k(u)` and its component analysis) and `raw_analysis()`
//! allocate exactly as many bytes, and keep exactly as many alive, on
//! `ring_lattice(10⁵, 8)` as on `ring_lattice(2048, 8)`.
//!
//! Both sizes preprocess the sixteen k = 1 views centred on ids
//! n − 1024 to n − 1009. Labels follow ids, so each view has the same
//! shape and label order at either size; only the ids differ (about
//! 1 000 against about 99 000). Any array sized by the largest id in a
//! view, whether a distance map per edge or per candidate or an
//! id-indexed table kept in the routing view, shows up as a byte-count
//! difference. Extraction runs outside the count. The counts are
//! deterministic, not timings.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::LocalView;
use locality_graph::{generators, NodeId};

/// System allocator that totals the bytes it hands out and takes back.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated while `f` runs, and how many of them are still live
/// when it returns.
fn counted(f: impl FnOnce()) -> [usize; 2] {
    let (allocated, freed) = (
        ALLOCATED.load(Ordering::Relaxed),
        FREED.load(Ordering::Relaxed),
    );
    f();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - allocated;
    let freed = FREED.load(Ordering::Relaxed) - freed;
    [allocated, allocated - freed]
}

#[test]
fn preprocessing_allocates_per_view_not_per_graph() {
    let mut figures = Vec::new();
    for n in [2048u32, 100_000] {
        let g = generators::ring_lattice(n as usize, 8);
        let views: Vec<LocalView> = (n - 1024..n - 1008)
            .map(|u| LocalView::extract(&g, NodeId(u), 1))
            .collect();
        let routing = counted(|| {
            for v in &views {
                black_box(v.routing_view());
            }
        });
        let raw = counted(|| {
            for v in &views {
                black_box(v.raw_analysis());
            }
        });
        let rv = views[0].routing_view();
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
        figures.push([routing, raw]);
    }
    assert!(
        figures[0].iter().all(|&[allocated, _]| allocated > 0),
        "the counter must see the work"
    );
    assert_eq!(
        figures[0], figures[1],
        "[routing_view, raw_analysis] as [allocated, live] bytes differ with n: {figures:?} at n = 2048 / 100000"
    );
}
