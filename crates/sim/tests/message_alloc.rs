//! The O(route) proof for per-message state: routing the same 64
//! messages allocates exactly as many bytes on `ring_lattice(10⁵, 8)`
//! as on `ring_lattice(2048, 8)`.
//!
//! Every message's source and target lie in the first 2048 ring
//! positions with the target at most 512 ahead, so the routes, the
//! schedule and every per-message record are the same at either size.
//! Any per-message allocation sized by the whole graph — a loop-state
//! bitset over all nodes or edges, a per-message distance map — shows
//! up as a byte-count difference. The count is deterministic, not a
//! timing.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::baselines::RingGreedy;
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_sim::NetworkBuilder;

/// System allocator that totals the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Targets lie `1..=WINDOW` ring positions ahead of the source.
const WINDOW: u32 = 512;

#[test]
fn message_state_allocates_per_route_not_per_graph() {
    let mut rng = DetRng::seed_from_u64(13);
    let traffic: Vec<(NodeId, NodeId)> = (0..64)
        .map(|_| {
            let s = rng.gen_range(0..2048 - WINDOW);
            (NodeId(s), NodeId(s + 1 + rng.gen_range(0..WINDOW)))
        })
        .collect();
    let mut bytes = Vec::new();
    for n in [2048, 100_000] {
        let g = generators::ring_lattice(n, 8);
        let mut net = NetworkBuilder::new(&g, 1).build(RingGreedy::new(n as u32));
        bytes.push(allocated_by(|| {
            for &(s, t) in &traffic {
                net.send(s, t);
            }
            net.run_until_quiet();
        }));
        assert_eq!(
            net.metrics().delivered,
            traffic.len(),
            "every message is delivered at n = {n}"
        );
    }
    assert!(bytes[0] > 0, "the counter must see the work");
    assert_eq!(
        bytes[0], bytes[1],
        "routing the same messages allocates with n: {bytes:?} bytes at n = 2048 / 100000"
    );
}
