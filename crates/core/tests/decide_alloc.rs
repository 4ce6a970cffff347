//! A warm hop decision allocates nothing: once a node's view holds its
//! routing view, label table, step table and (for Algorithm 1B) shelter
//! pivots, choosing the next hop reads them and builds nothing.
//!
//! Six workloads record every `(packet, centre)` pair that one
//! `delivery_matrix` pass asks its router about: `fig13(64)` under
//! Algorithm 1 and `fig17(64)` under Algorithm 1B, both at k = n/4, a
//! sparse `random_connected(64, 8)` under Algorithm 2 at its
//! threshold, `ring_lattice(64, 8)` under the greedy ring router at
//! k = 1, a relabelled `random_tree(64)` under the right-hand rule at
//! k = 2, and `binary_tree(6)` under lowest-rank forwarding at k = 5
//! (each delivers every pair there). The pass also fills the view
//! store. Replaying the pairs through `decide_explained`, the call
//! every hop makes, against that store must allocate zero bytes and
//! give the same answers and rules.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use local_routing::baselines::{LowestRankForward, RightHandRule, RingGreedy};
use local_routing::engine;
use local_routing::{
    Alg1, Alg1B, Alg2, Awareness, LocalRouter, LocalView, Packet, RoutingError, ViewStore,
};
use locality_adversary::tight;
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, Graph, Label, NodeId};

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

/// One question a router was asked: the packet, the centre it was asked
/// at, and its answer with the rule that fired.
type Call = (Packet, NodeId, (Label, &'static str));

/// A router that records each question it is asked, and its answer,
/// before passing the answer on.
struct Recording<'a> {
    inner: &'a dyn LocalRouter,
    calls: Mutex<Vec<Call>>,
}

impl LocalRouter for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn awareness(&self) -> Awareness {
        self.inner.awareness()
    }

    fn min_locality(&self, n: usize) -> u32 {
        self.inner.min_locality(n)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        self.decide_explained(packet, view).map(|(label, _)| label)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        let next = self.inner.decide_explained(packet, view)?;
        if let Ok(mut calls) = self.calls.lock() {
            calls.push((*packet, view.center(), next));
        }
        Ok(next)
    }
}

#[test]
fn warm_decide_allocates_nothing() {
    let (f13, f17) = (tight::fig13(64), tight::fig17(64));
    let random = generators::random_connected(64, 8, &mut DetRng::seed_from_u64(20));
    let ring = generators::ring_lattice(64, 8);
    let mut rng = DetRng::seed_from_u64(21);
    let tree = permute::random_relabel(&generators::random_tree(64, &mut rng), &mut rng);
    let heap = generators::binary_tree(6);
    let cases: [(&str, &Graph, u32, &dyn LocalRouter); 6] = [
        ("fig13(64) / algorithm 1", &f13.graph, f13.k, &Alg1),
        ("fig17(64) / algorithm 1b", &f17.graph, f17.k, &Alg1B),
        (
            "random_connected(64, 8) / algorithm 2",
            &random,
            Alg2.min_locality(64),
            &Alg2,
        ),
        (
            "ring_lattice(64, 8) / ring greedy",
            &ring,
            1,
            &RingGreedy::new(64),
        ),
        (
            "random_tree(64) / right-hand rule",
            &tree,
            2,
            &RightHandRule,
        ),
        (
            "binary_tree(6) / lowest-rank forward",
            &heap,
            5,
            &LowestRankForward,
        ),
    ];
    for (what, g, k, router) in cases {
        let recording = Recording {
            inner: router,
            calls: Mutex::new(Vec::new()),
        };
        let views = ViewStore::new(g, k);
        let pairs: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        let m = engine::delivery_matrix_with_cache(g, &views, &recording, pairs);
        assert!(m.all_delivered(), "{what}: {:?}", m.failures.first());
        let calls = recording.calls.into_inner().unwrap_or_default();
        assert_eq!(calls.len(), m.total_hops, "{what}: one decision per hop");

        let before = ALLOCATED.load(Ordering::Relaxed);
        let mut same = 0usize;
        for (packet, centre, next) in &calls {
            let got = router.decide_explained(packet, views.view(g, *centre));
            same += usize::from(black_box(got) == Ok(*next));
        }
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        assert_eq!(same, calls.len(), "{what}: replayed decisions differ");
        assert_eq!(
            allocated,
            0,
            "{what}: {} warm decide_explained calls allocated {allocated} bytes",
            calls.len()
        );
    }
}
