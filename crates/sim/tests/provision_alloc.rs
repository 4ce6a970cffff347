//! The O(view) proof for provisioning: extracting one view and
//! flapping one link allocate exactly as many bytes on
//! `ring_lattice(10⁵, 8)` as on `ring_lattice(2048, 8)`.
//!
//! Both operations touch the same 17-node neighbourhood at either
//! size, so any allocation sized by the whole graph — a distance map
//! per search, an id → slot table per view, a whole-graph connectivity
//! check per link-down — shows up as a byte-count difference. The
//! count is deterministic, not a timing. One warm-up call per size
//! comes first: it lets the thread's reusable search buffer grow to
//! the graph once, which is the only graph-sized allocation allowed.
//!
//! The allocator also counts frees, which pins the memory claim of the
//! view store: a network holds one view per node, and a churn wave
//! drops every view it replaces. After the warm-up flap, a hundred more
//! flaps must leave the live bytes exactly where they were.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::baselines::RingGreedy;
use local_routing::LocalView;
use locality_graph::{generators, NodeId};
use locality_sim::{Network, NetworkBuilder};

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

/// Bytes allocated while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

/// Bytes allocated and not yet freed.
fn live_bytes() -> usize {
    ALLOCATED.load(Ordering::Relaxed) - FREED.load(Ordering::Relaxed)
}

/// Takes the link {1000, 1001} down and brings it back up.
fn flap(net: &mut Network) {
    let (a, b) = (NodeId(1000), NodeId(1001));
    net.set_edge(a, b, false)
        .expect("a ring-lattice edge is not a bridge");
    net.set_edge(a, b, true)
        .expect("restoring an edge never fails");
}

#[test]
fn extraction_and_link_flaps_allocate_per_view_not_per_graph() {
    let u = NodeId(1000);
    let mut extract = Vec::new();
    let mut flaps = Vec::new();
    for n in [2048, 100_000] {
        let g = generators::ring_lattice(n, 8);
        let mut net = NetworkBuilder::new(&g, 1).build(RingGreedy::new(n as u32));
        drop(LocalView::extract(&g, u, 1));
        flap(&mut net);
        extract.push(allocated_by(|| drop(LocalView::extract(&g, u, 1))));
        flaps.push(allocated_by(|| flap(&mut net)));
        let live = live_bytes();
        for _ in 0..100 {
            flap(&mut net);
        }
        assert_eq!(
            live_bytes(),
            live,
            "100 link flaps at n = {n} must free every view they replace"
        );
    }
    assert!(
        extract[0] > 0 && flaps[0] > 0,
        "the counter must see the work"
    );
    assert_eq!(
        extract[0], extract[1],
        "LocalView::extract allocates with n: {extract:?} bytes at n = 2048 / 100000"
    );
    assert_eq!(
        flaps[0], flaps[1],
        "a link flap allocates with n: {flaps:?} bytes at n = 2048 / 100000"
    );
}
