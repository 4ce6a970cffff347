//! The memory proof for one resident view: the k = 1 view of
//! `NodeId(1000)` on `ring_lattice(n, 8)` (17 nodes, 16 edges) keeps at
//! most 440 bytes, struct included, at n = 2048 and at n = 10⁶ alike.
//!
//! Extraction must allocate exactly what the view keeps, in at most
//! three heap blocks (members, the CSR block and labels; the view
//! stores no distances): the search buffer, the edge ends and the
//! counting sort live in per-thread scratch that one warm-up extraction
//! has grown, and no block is allocated at one size and copied into
//! another. A view decoded from an artifact also keeps its first-step
//! table, so it may hold four more bytes per member.
//!
//! The first label lookup adds the boxed cache of derived structure
//! and the label index, four bytes per entry in a power of two of
//! entries at least twice the members (at most 16 bytes per member):
//! the same bytes at both sizes, because the index is sized by the
//! view.
//!
//! The counts are deterministic, not timings. This lives in its own
//! integration-test binary because a `#[global_allocator]` is
//! process-wide, and contains exactly one `#[test]` so no concurrent
//! test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::{LocalView, ViewArtifact};
use locality_graph::{generators, Label, NodeId};

/// System allocator that totals the blocks and bytes it hands out and
/// takes back.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);
static BLOCKS_ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static BLOCKS_FREED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        BLOCKS_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        BLOCKS_FREED.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What running `f` allocated, and what of it is still held when it
/// returns.
#[derive(Debug)]
struct Counted {
    allocated: usize,
    kept: usize,
    kept_blocks: usize,
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
    let before = [&ALLOCATED, &FREED, &BLOCKS_ALLOCATED, &BLOCKS_FREED].map(load);
    let out = f();
    let after = [&ALLOCATED, &FREED, &BLOCKS_ALLOCATED, &BLOCKS_FREED].map(load);
    let delta: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let counts = Counted {
        allocated: delta[0],
        kept: delta[0] - delta[1],
        kept_blocks: delta[2] - delta[3],
    };
    (out, counts)
}

/// Bytes a view of 17 nodes may hold, its struct included.
const BOUND: usize = 440;

/// Bytes of the boxed cache of derived structure on 64-bit targets,
/// which the first label lookup allocates beside the index.
const DERIVED_BOX: usize = 232;

#[test]
fn a_view_keeps_what_it_can_see_and_extraction_allocates_only_that() {
    let u = NodeId(1000);
    let (mut resident, mut indexed) = (Vec::new(), Vec::new());
    for n in [2048, 1_000_000] {
        let g = generators::ring_lattice(n, 8);
        drop(LocalView::extract(&g, u, 1));
        let (view, c) = counted(|| LocalView::extract(&g, u, 1));
        assert_eq!(view.node_count(), 17);
        assert_eq!(
            c.allocated, c.kept,
            "n = {n}: extraction allocated {c:?}, more than the view keeps"
        );
        assert!(
            c.kept_blocks <= 3,
            "n = {n}: the view keeps {} heap blocks",
            c.kept_blocks
        );
        resident.push(c.kept + size_of::<LocalView>());

        let (found, c) = counted(|| view.node_by_label(Label(1001)));
        assert_eq!(found, Some(NodeId(1001)));
        assert_eq!(c.allocated, c.kept, "n = {n}: the first lookup {c:?}");
        let index = 4 * (2 * view.node_count()).next_power_of_two();
        assert!(
            c.kept <= index + DERIVED_BOX,
            "n = {n}: the first lookup keeps {c:?}"
        );
        indexed.push(c.kept);
    }
    assert_eq!(
        resident[0], resident[1],
        "bytes per view grow with n: {resident:?} at n = 2048 / 10^6"
    );
    assert_eq!(
        indexed[0], indexed[1],
        "label index bytes grow with n: {indexed:?} at n = 2048 / 10^6"
    );
    assert!(
        resident[0] <= BOUND,
        "a 17-node view holds {} bytes (struct {}), above {BOUND}",
        resident[0],
        size_of::<LocalView>()
    );

    let g = generators::ring_lattice(2048, 8);
    let artifact = ViewArtifact::build(&g, 1);
    let (view, c) = counted(|| artifact.decode_view(u).expect("decode"));
    let decoded = c.kept + size_of::<LocalView>();
    eprintln!(
        "bytes per view: extracted {resident:?} at n = 2048 / 10^6, decoded {decoded}, \
         struct {}; first label lookup {indexed:?}",
        size_of::<LocalView>()
    );
    assert!(
        decoded <= BOUND + 4 * view.node_count(),
        "a decoded 17-node view holds {decoded} bytes ({c:?})"
    );
}
