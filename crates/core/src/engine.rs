//! Deterministic run engine: drives a router hop by hop with exact loop
//! detection, and evaluates delivery and dilation (§2.2).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use locality_graph::{fanout, traversal, DistMap, Graph, NodeId};

use crate::error::RoutingError;
use crate::model::Packet;
use crate::oracle::ViewArtifact;
use crate::traits::LocalRouter;
use crate::view::LocalView;
use crate::visited::VisitedStates;

/// Why a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The message reached the destination.
    Delivered,
    /// The run state `(current, predecessor)` recurred: the deterministic
    /// stateless router provably cycles forever.
    LoopDetected,
    /// The router returned an error (its structural preconditions were
    /// violated — typically `k` below threshold).
    RouterError(RoutingError),
    /// The router named a non-neighbour (or a node that does not exist):
    /// an outright protocol bug.
    InvalidDecision {
        /// The node at which the bad decision was made.
        at: NodeId,
    },
    /// The belt-and-braces step cap of `8·n² + 16` hops fired, over
    /// and above exact loop detection.
    StepLimit,
}

impl RunStatus {
    /// Whether the message was delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, RunStatus::Delivered)
    }
}

/// Outcome of one routed message.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run ended.
    pub status: RunStatus,
    /// The walk taken, starting at the origin. For failed runs this is
    /// the prefix walked before the failure was proven.
    pub route: Vec<NodeId>,
    /// `dist(s, t)` in the underlying graph.
    pub shortest: u32,
    /// The locality parameter used.
    pub k: u32,
}

impl RunReport {
    /// Number of edges traversed.
    pub fn hops(&self) -> usize {
        self.route.len().saturating_sub(1)
    }

    /// `route length / dist(s, t)`; `None` unless delivered with
    /// `s != t`.
    pub fn dilation(&self) -> Option<f64> {
        dilation(&self.status, self.hops(), self.shortest)
    }

    /// Maximum number of times any directed edge was traversed
    /// (Observation 1: at most once each way for a successful
    /// predecessor-aware run).
    pub fn max_directed_edge_uses(&self) -> usize {
        let mut uses: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for pair in self.route.windows(2) {
            if let &[a, b] = pair {
                *uses.entry((a, b)).or_insert(0) += 1;
            }
        }
        uses.values().copied().max().unwrap_or(0)
    }
}

/// The one view store: a dense slot per node, each holding that node's
/// [`LocalView`] once it is first asked for. Views (and their lazily
/// computed preprocessing) are materialized **exactly once** per node
/// and reused across runs and threads — exactly like real nodes that
/// preprocess once and then route many messages (§5.1: "the
/// preprocessing step need not be repeated unless the network topology
/// changes").
///
/// A lookup indexes the node's slot and, if it is empty, fills it under
/// the slot's own once-cell: no lock, no hash, and concurrent first
/// requests for one node run exactly one extraction and all receive the
/// same view. [`view`](Self::view) takes `&self`, so one store can be
/// shared by reference across [`std::thread::scope`] workers.
///
/// The store holds no graph: each lookup is handed the current one, so
/// a host that owns and mutates its topology (the simulator) can keep
/// the store beside it. After a topology change the **caller** must
/// [`invalidate`](Self::invalidate) every node whose `G_k(u)` the
/// change could have reached; every other slot keeps its view, and with
/// it every memoized routing structure. An empty slot costs one boxed
/// pointer and its once-state: two words, 16 bytes on 64-bit targets.
///
/// ```
/// use local_routing::ViewStore;
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::cycle(8);
/// let views = ViewStore::new(&g, 2);
/// let a = views.view(&g, NodeId(0));
/// let b = views.view(&g, NodeId(0));
/// assert!(std::ptr::eq(a, b)); // built once, shared
/// assert_eq!((views.stats().misses, views.stats().hits), (1, 1));
/// assert_eq!(views.len(), 1);
/// ```
pub struct ViewStore {
    k: u32,
    /// `slots[u.index()]`: the view at `u`, once materialized.
    slots: Vec<OnceLock<Box<LocalView>>>,
    /// Precomputed payloads to materialize misses from, when the store
    /// was opened over an artifact ([`from_artifact`](Self::from_artifact)).
    backing: Option<ArtifactBacking>,
    hits: AtomicU64,
    misses: AtomicU64,
    artifact_loads: AtomicU64,
    rebuilds: AtomicU64,
    invalidations: u64,
}

/// The oracle side of a [`ViewStore`]: the artifact misses are decoded
/// from, plus a per-node staleness flag. Invalidation marks a node
/// stale instead of merely emptying its slot, so the next lookup
/// re-extracts from the *live* graph rather than serving a payload the
/// topology has moved past.
struct ArtifactBacking {
    artifact: Arc<ViewArtifact>,
    stale: Vec<bool>,
}

/// Cumulative effectiveness counters of a [`ViewStore`]: how often a
/// lookup was served from a filled slot (`hits`) versus materialized
/// (`misses`), and how many invalidations emptied a slot. Relaxed
/// atomics — each slot is filled exactly once, so the counts are exact;
/// only their *reads* are racy, and hosts read them after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStoreStats {
    /// Lookups served from an existing view.
    pub hits: u64,
    /// Lookups that materialized a fresh view (by extraction, or by
    /// artifact decode on a backed store).
    pub misses: u64,
    /// Invalidations that emptied a filled slot.
    pub invalidations: u64,
    /// Misses served by decoding the backing artifact (lazy
    /// materialization; zero on unbacked stores).
    pub artifact_loads: u64,
    /// Misses on a **backed** store that had to fall back to BFS
    /// extraction because the entry was stale — the churn conservation
    /// counter: after a wave, this grows by exactly the dirty-radius
    /// node count, proving untouched entries were never rebuilt.
    pub rebuilds: u64,
}

impl ViewStore {
    /// Creates an empty store with one slot per node of `graph`, for
    /// locality `k`.
    pub fn new(graph: &Graph, k: u32) -> ViewStore {
        ViewStore::with_slots(graph.node_count(), k, None)
    }

    /// Opens a store over a prebuilt [`ViewArtifact`]: lookups decode
    /// the node's payload from the arena instead of running extraction
    /// BFS, until [`invalidate`](Self::invalidate) marks a node stale —
    /// from then on that node (and only that node) re-extracts from the
    /// live graph, exactly like an unbacked store.
    pub fn from_artifact(artifact: Arc<ViewArtifact>) -> ViewStore {
        let (n, k) = (artifact.node_count() as usize, artifact.k());
        let stale = vec![false; n];
        ViewStore::with_slots(n, k, Some(ArtifactBacking { artifact, stale }))
    }

    fn with_slots(n: usize, k: u32, backing: Option<ArtifactBacking>) -> ViewStore {
        ViewStore {
            k,
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            backing,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            artifact_loads: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            invalidations: 0,
        }
    }

    /// Whether misses are served from an artifact.
    pub fn is_artifact_backed(&self) -> bool {
        self.backing.is_some()
    }

    /// Snapshot of the cumulative hit/miss/invalidation counters.
    pub fn stats(&self) -> ViewStoreStats {
        ViewStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations,
            artifact_loads: self.artifact_loads.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// The locality parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of views currently resident.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Whether no view is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.get().is_none())
    }

    /// The view at `u`, materialized from `graph` on first request (or
    /// on the first request after an [`invalidate`](Self::invalidate)).
    /// Safe to call from many threads; all callers receive the same
    /// view, and only one of them extracts it.
    ///
    /// The caller is responsible for passing the same graph state
    /// between invalidations — the store cannot tell graphs apart.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph the store was sized
    /// for.
    pub fn view(&self, graph: &Graph, u: NodeId) -> &LocalView {
        let mut missed = false;
        let view = self.slots[u.index()].get_or_init(|| {
            missed = true;
            Box::new(self.materialize(graph, u))
        });
        let counter = if missed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        view
    }

    /// The view resident at `u`, if any, without materializing one or
    /// counting a hit: the read for a host that fills every slot up
    /// front and keeps its own traffic counters (the simulator's
    /// per-hop decision). `None` for an empty slot or an id out of
    /// range.
    pub fn resident(&self, u: NodeId) -> Option<&LocalView> {
        self.slots
            .get(u.index())
            .and_then(OnceLock::get)
            .map(|v| &**v)
    }

    /// Produces the view for a miss: decoded from the artifact when the
    /// store is backed and `u` is not stale, else extracted from the
    /// live graph. A decode failure also falls back to extraction — the
    /// decoded and extracted views are behaviourally identical by the
    /// artifact contract, so degrading is always safe — but counts as a
    /// rebuild, so the conservation counter exposes it.
    fn materialize(&self, graph: &Graph, u: NodeId) -> LocalView {
        if let Some(b) = &self.backing {
            if b.stale.get(u.index()) == Some(&false) {
                if let Ok(view) = b.artifact.decode_view(u) {
                    self.artifact_loads.fetch_add(1, Ordering::Relaxed);
                    return view;
                }
            }
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        LocalView::extract(graph, u, self.k)
    }

    /// Empties the slot at `u`, dropping its view and forcing
    /// re-extraction on the next lookup. Returns whether the slot was
    /// filled. Taking `&mut self` is what makes the drop safe: no
    /// lookup can be holding the old view.
    ///
    /// On an artifact-backed store this also marks `u` **stale**: its
    /// payload describes a topology that no longer exists, so every
    /// later miss at `u` re-extracts from the live graph instead of
    /// decoding.
    pub fn invalidate(&mut self, u: NodeId) -> bool {
        if let Some(b) = &mut self.backing {
            if let Some(stale) = b.stale.get_mut(u.index()) {
                *stale = true;
            }
        }
        let emptied = self
            .slots
            .get_mut(u.index())
            .and_then(OnceLock::take)
            .is_some();
        if emptied {
            self.invalidations += 1;
        }
        emptied
    }
}

/// `hops / shortest` for a delivered run with `s != t`.
fn dilation(status: &RunStatus, hops: usize, shortest: u32) -> Option<f64> {
    (status.is_delivered() && shortest > 0).then(|| hops as f64 / shortest as f64)
}

/// Routes one message from `s` to `t` with a fresh view store.
pub fn route<R: LocalRouter + ?Sized>(
    graph: &Graph,
    k: u32,
    router: &R,
    s: NodeId,
    t: NodeId,
) -> RunReport {
    route_with_cache(graph, &ViewStore::new(graph, k), router, s, t)
}

/// Routes one message reusing an existing view store over `graph`
/// (preferred when routing many pairs on the same graph).
pub fn route_with_cache<R: LocalRouter + ?Sized>(
    graph: &Graph,
    views: &ViewStore,
    router: &R,
    s: NodeId,
    t: NodeId,
) -> RunReport {
    fresh_run(graph, views, router, s, t, None)
}

/// A run together with the rule that fired at each hop.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The plain run report.
    pub report: RunReport,
    /// `rules[i]` names the rule that produced hop `i`
    /// (`route[i] -> route[i + 1]`); see
    /// [`LocalRouter::decide_explained`].
    pub rules: Vec<&'static str>,
}

/// Routes one message recording the rule fired at every hop — the
/// executable version of the paper's route narrations ("Rule S2 is
/// applied at s, Rule U3 at c, …").
pub fn route_traced<R: LocalRouter + ?Sized>(
    graph: &Graph,
    k: u32,
    router: &R,
    s: NodeId,
    t: NodeId,
) -> TracedRun {
    let mut rules = Vec::new();
    let views = ViewStore::new(graph, k);
    let report = fresh_run(graph, &views, router, s, t, Some(&mut rules));
    TracedRun { report, rules }
}

/// One run with fresh buffers, as a [`RunReport`].
fn fresh_run<R: LocalRouter + ?Sized>(
    graph: &Graph,
    views: &ViewStore,
    router: &R,
    s: NodeId,
    t: NodeId,
    rules: Option<&mut Vec<&'static str>>,
) -> RunReport {
    let mut buf = Walk::default();
    let status = walk(graph, views, router, s, t, &mut buf, rules);
    RunReport {
        status,
        route: buf.route,
        shortest: traversal::distance(graph, s, t).unwrap_or(0),
        k: views.k(),
    }
}

/// The buffers of one walk: its route and its visited states. A matrix
/// keeps one for all of its pairs, so a warm matrix allocates nothing
/// per pair.
#[derive(Default)]
struct Walk {
    /// The walk taken, starting at the origin.
    route: Vec<NodeId>,
    visited: VisitedStates,
}

/// The hop loop behind every engine run. It clears `buf` first, in
/// time that follows the previous route, and leaves the walk taken in
/// `buf.route`. With `rules`, the router names the rule behind each hop
/// ([`LocalRouter::decide_explained`]) and the names are appended;
/// without, it is asked for the next hop only.
fn walk<R: LocalRouter + ?Sized>(
    graph: &Graph,
    views: &ViewStore,
    router: &R,
    s: NodeId,
    t: NodeId,
    buf: &mut Walk,
    mut rules: Option<&mut Vec<&'static str>>,
) -> RunStatus {
    let n = graph.node_count();
    let max_steps = 8 * n * n + 16;
    let awareness = router.awareness();
    let origin_label = graph.label(s);
    let target_label = graph.label(t);

    let Walk { route, visited } = buf;
    route.clear();
    route.push(s);
    visited.clear();
    let mut current = s;
    let mut predecessor: Option<NodeId> = None;

    loop {
        if current == t {
            break RunStatus::Delivered;
        }
        // The run state that determines all future behaviour of a pure
        // stateless router: the current node plus — only if the router
        // can see it — the predecessor.
        let visible = if awareness.predecessor {
            predecessor
        } else {
            None
        };
        if !visited.insert(current, visible) {
            break RunStatus::LoopDetected;
        }
        if route.len() > max_steps {
            break RunStatus::StepLimit;
        }
        let view = views.view(graph, current);
        let packet = Packet::new(
            origin_label,
            target_label,
            predecessor.map(|p| graph.label(p)),
        )
        .masked(awareness);
        let decision = if rules.is_some() {
            router.decide_explained(&packet, view)
        } else {
            router.decide(&packet, view).map(|l| (l, "?"))
        };
        match decision {
            Err(e) => break RunStatus::RouterError(e),
            Ok((next_label, rule)) => {
                let Some(next) = graph.neighbor_by_label(current, next_label) else {
                    break RunStatus::InvalidDecision { at: current };
                };
                route.push(next);
                if let Some(rules) = rules.as_deref_mut() {
                    rules.push(rule);
                }
                predecessor = Some(current);
                current = next;
            }
        }
    }
}

/// Aggregate outcome over every ordered origin–destination pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixReport {
    /// Number of `(s, t)` pairs attempted.
    pub runs: usize,
    /// Pairs that failed, with their status.
    pub failures: Vec<(NodeId, NodeId, RunStatus)>,
    /// Largest dilation observed among delivered pairs, with its pair.
    pub worst_dilation: Option<(f64, NodeId, NodeId)>,
    /// Total hops over all delivered runs (for average route length).
    pub total_hops: usize,
}

impl MatrixReport {
    /// Whether every pair was delivered.
    pub fn all_delivered(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `router` on every ordered pair `(s, t)`, `s != t`.
pub fn delivery_matrix<R: LocalRouter + ?Sized>(graph: &Graph, k: u32, router: &R) -> MatrixReport {
    delivery_matrix_for_pairs(
        graph,
        k,
        router,
        graph
            .nodes()
            .flat_map(|s| graph.nodes().filter(move |&t| t != s).map(move |t| (s, t))),
    )
}

/// Runs `router` on the given pairs, sharing one view store.
pub fn delivery_matrix_for_pairs<R, I>(graph: &Graph, k: u32, router: &R, pairs: I) -> MatrixReport
where
    R: LocalRouter + ?Sized,
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    delivery_matrix_with_cache(graph, &ViewStore::new(graph, k), router, pairs)
}

/// Runs `router` on the given pairs through a caller-supplied (and
/// possibly shared) view store over `graph`.
///
/// `dist(s, t)` comes from one whole-graph BFS per run of consecutive
/// pairs that share an origin, so a matrix listed origin by origin (as
/// [`delivery_matrix`] lists it) costs `n` BFS rather than `n²`. Every
/// pair walks in one route buffer and one [`VisitedStates`], each
/// cleared in time that follows the previous route, so once the store
/// is warm the BFS is the only allocation, per origin and never per
/// pair. Any order gives the same report, up to the order of
/// `failures` and which of several tied pairs is named worst.
pub fn delivery_matrix_with_cache<R, I>(
    graph: &Graph,
    views: &ViewStore,
    router: &R,
    pairs: I,
) -> MatrixReport
where
    R: LocalRouter + ?Sized,
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let mut report = MatrixReport::default();
    // `dist(s, ·)` for the origin of the current run of pairs.
    let mut from: Option<(NodeId, DistMap)> = None;
    let mut buf = Walk::default();
    for (s, t) in pairs {
        if from.as_ref().is_none_or(|&(o, _)| o != s) {
            from = Some((s, traversal::bfs_distances(graph, s, None)));
        }
        let shortest = from.as_ref().and_then(|(_, d)| d.get(t)).unwrap_or(0);
        let status = walk(graph, views, router, s, t, &mut buf, None);
        report.runs += 1;
        if status.is_delivered() {
            let hops = buf.route.len().saturating_sub(1);
            report.total_hops += hops;
            if let Some(d) = dilation(&status, hops, shortest) {
                if report.worst_dilation.is_none_or(|(w, _, _)| d > w) {
                    report.worst_dilation = Some((d, s, t));
                }
            }
        } else {
            report.failures.push((s, t, status));
        }
    }
    report
}

/// Runs `router` on every ordered pair, one job per origin fanned out
/// over `threads` workers by [`fanout::run_trials`]. The workers share
/// **one** [`ViewStore`], so each `G_k(u)` (and its lazy preprocessing)
/// is extracted exactly once no matter how many workers route through
/// `u`, and each origin's pairs run in one job behind one BFS. The rows
/// merge in origin order, so the report equals [`delivery_matrix`]'s
/// field for field, failure order and worst pair included; used by the
/// large-n validation suites.
pub fn delivery_matrix_parallel<R>(
    graph: &Graph,
    k: u32,
    router: &R,
    threads: usize,
) -> MatrixReport
where
    R: LocalRouter + Sync + ?Sized,
{
    let views = ViewStore::new(graph, k);
    let origins: Vec<NodeId> = graph.nodes().collect();
    let rows = fanout::run_trials(&origins, threads, |_, &s| {
        let pairs = graph.nodes().filter(move |&t| t != s).map(move |t| (s, t));
        delivery_matrix_with_cache(graph, &views, router, pairs)
    });
    let mut out = MatrixReport::default();
    for row in rows {
        out.runs += row.runs;
        out.failures.extend(row.failures);
        out.total_hops += row.total_hops;
        if let Some((d, s, t)) = row.worst_dilation {
            if out.worst_dilation.is_none_or(|(w, _, _)| d > w) {
                out.worst_dilation = Some((d, s, t));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Awareness;
    use crate::RoutingError;
    use locality_graph::{generators, Label};

    /// A router that always forwards to the centre's lowest-label
    /// neighbour — loops on anything with a detour.
    struct Stubborn;

    impl LocalRouter for Stubborn {
        fn name(&self) -> &'static str {
            "stubborn"
        }
        fn awareness(&self) -> Awareness {
            Awareness::OBLIVIOUS
        }
        fn min_locality(&self, _n: usize) -> u32 {
            1
        }
        fn decide(&self, _p: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
            let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
            view.sort_by_label(&mut nbrs);
            Ok(view.label(nbrs[0]))
        }
    }

    /// A router that names a non-neighbour.
    struct Liar;

    impl LocalRouter for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn awareness(&self) -> Awareness {
            Awareness::OBLIVIOUS
        }
        fn min_locality(&self, _n: usize) -> u32 {
            1
        }
        fn decide(&self, _p: &Packet, _view: &LocalView) -> Result<Label, RoutingError> {
            Ok(Label(9999))
        }
    }

    #[test]
    fn trivial_self_delivery() {
        let g = generators::path(4);
        let r = route(&g, 1, &Stubborn, NodeId(2), NodeId(2));
        assert!(r.status.is_delivered());
        assert_eq!(r.hops(), 0);
        assert_eq!(r.dilation(), None);
    }

    #[test]
    fn stubborn_loops_and_is_caught_quickly() {
        // On a path, always going to the lowest label means bouncing
        // between nodes 0 and 1 forever; state (u) recurs immediately.
        let g = generators::path(6);
        let r = route(&g, 2, &Stubborn, NodeId(3), NodeId(5));
        assert_eq!(r.status, RunStatus::LoopDetected);
        assert!(r.route.len() <= 12, "loop detection must be prompt");
    }

    #[test]
    fn stubborn_succeeds_toward_low_labels() {
        let g = generators::path(6);
        let r = route(&g, 2, &Stubborn, NodeId(4), NodeId(0));
        assert!(r.status.is_delivered());
        assert_eq!(r.hops(), 4);
        assert_eq!(r.dilation(), Some(1.0));
    }

    #[test]
    fn invalid_decisions_are_reported() {
        let g = generators::path(3);
        let r = route(&g, 1, &Liar, NodeId(0), NodeId(2));
        assert_eq!(r.status, RunStatus::InvalidDecision { at: NodeId(0) });
    }

    #[test]
    fn matrix_counts_failures() {
        let g = generators::path(4);
        let m = delivery_matrix(&g, 2, &Stubborn);
        assert_eq!(m.runs, 12);
        assert!(!m.all_delivered());
        // Pairs with t left of s succeed (6), plus (0, 1) — the walk
        // from 0 bounces to 1 before looping. The other 5 pairs fail.
        assert_eq!(m.failures.len(), 5);
    }

    #[test]
    fn parallel_matrix_agrees_with_serial() {
        // Field for field, failure order and worst pair included; the
        // stubborn router fails pairs under several origins.
        use crate::Alg1;
        let g = generators::lollipop(10, 4);
        for (k, router) in [(4, &Alg1 as &dyn LocalRouter), (2, &Stubborn)] {
            let serial = delivery_matrix(&g, k, router);
            for threads in [1usize, 3, 8] {
                let par = delivery_matrix_parallel(&g, k, router, threads);
                assert_eq!(par, serial, "{} at {threads} threads", router.name());
            }
        }
    }

    #[test]
    fn matrix_is_independent_of_pair_order() {
        // One BFS per run of pairs sharing an origin: a shuffled list
        // interleaves origins, so nearly every pair starts a new run.
        use crate::{Alg1, Alg1B, Alg2};
        use locality_adversary::tight;
        use locality_graph::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(19);
        let lollipop = generators::lollipop(10, 6);
        let random = generators::random_connected(40, 10, &mut rng);
        let (f13, f17) = (tight::fig13(32), tight::fig17(32));
        let cases: [(&Graph, u32, &dyn LocalRouter); 5] = [
            (&f13.graph, f13.k, &Alg1),
            (&f17.graph, f17.k, &Alg1B),
            (&random, 14, &Alg2),
            (&lollipop, 4, &Alg1),
            (&lollipop, 2, &Stubborn),
        ];
        let mut failing = 0;
        for (g, k, router) in cases {
            let mut pairs: Vec<(NodeId, NodeId)> = g
                .nodes()
                .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
                .collect();
            let ordered = delivery_matrix_for_pairs(g, k, router, pairs.iter().copied());
            rng.shuffle(&mut pairs);
            let shuffled = delivery_matrix_for_pairs(g, k, router, pairs.iter().copied());
            let sorted = |m: &MatrixReport| {
                let mut f = m.failures.clone();
                f.sort_by_key(|&(s, t, _)| (s, t));
                f
            };
            let what = router.name();
            assert_eq!(shuffled.runs, ordered.runs, "{what}");
            assert_eq!(sorted(&shuffled), sorted(&ordered), "{what}");
            assert_eq!(shuffled.total_hops, ordered.total_hops, "{what}");
            assert_eq!(
                shuffled.worst_dilation.map(|(d, _, _)| d),
                ordered.worst_dilation.map(|(d, _, _)| d),
                "{what}"
            );
            failing += ordered.failures.len();
        }
        assert!(failing > 0, "the stubborn router must fail some pairs");
    }

    #[test]
    fn view_cache_shares_views() {
        let g = generators::cycle(8);
        let views = ViewStore::new(&g, 2);
        assert!(views.is_empty());
        let a = views.view(&g, NodeId(0));
        let b = views.view(&g, NodeId(0));
        assert!(std::ptr::eq(a, b));
        assert_eq!(views.len(), 1);
        assert_eq!(
            std::mem::size_of::<OnceLock<Box<LocalView>>>(),
            2 * std::mem::size_of::<usize>(),
            "an empty slot is one pointer plus its once-state"
        );
    }

    #[test]
    fn view_store_shared_across_threads_extracts_once() {
        // Many threads hammering the same nodes must converge on one
        // view per node, and the miss counter proves each view was
        // extracted exactly once. The barrier releases all threads
        // together, so first requests for a node race.
        let g = generators::grid(5, 5);
        let views = ViewStore::new(&g, 3);
        let start = std::sync::Barrier::new(8);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (views, g, start) = (&views, &g, &start);
                    scope.spawn(move || {
                        start.wait();
                        g.nodes()
                            .map(|u| std::ptr::from_ref(views.view(g, u)) as usize)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &seen[1..] {
            assert_eq!(per_thread, &seen[0], "threads must share stored views");
        }
        assert_eq!(views.len(), g.node_count());
        let stats = views.stats();
        assert_eq!(stats.misses, 25, "one extraction per node");
        assert_eq!(stats.hits, 8 * 25 - 25);
    }

    #[test]
    fn view_store_invalidation_reextracts_from_current_graph() {
        let mut g = generators::cycle(8);
        let mut views = ViewStore::new(&g, 2);
        let a = views.view(&g, NodeId(0));
        assert!(
            std::ptr::eq(a, views.view(&g, NodeId(0))),
            "one view per node"
        );
        // Mutate the topology; the store cannot see it until told.
        g.insert_edge(NodeId(0), NodeId(4)).expect("simple edge");
        assert_eq!(
            views
                .view(&g, NodeId(0))
                .center_neighbors()
                .collect::<Vec<_>>(),
            [NodeId(1), NodeId(7)],
            "uninvalidated views stay stale"
        );
        assert!(views.invalidate(NodeId(0)));
        assert!(!views.invalidate(NodeId(0)), "second invalidate is a no-op");
        assert!(views.resident(NodeId(0)).is_none());
        assert_eq!(
            views
                .view(&g, NodeId(0))
                .center_neighbors()
                .collect::<Vec<_>>(),
            [NodeId(1), NodeId(4), NodeId(7)],
            "re-extraction must see the new edge"
        );
        let s = views.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 1));
    }

    #[test]
    fn view_store_matches_extraction_per_node() {
        let g = generators::grid(4, 4);
        let views = ViewStore::new(&g, 3);
        for u in g.nodes() {
            assert_eq!(
                views.view(&g, u).fingerprint(),
                LocalView::extract(&g, u, 3).fingerprint(),
                "the store must serve exactly the extracted view"
            );
        }
    }

    #[test]
    fn traced_run_matches_plain_run() {
        use crate::Alg1;
        let g = generators::cycle(16);
        let k = 4;
        let plain = route(&g, k, &Alg1, NodeId(0), NodeId(8));
        let traced = route_traced(&g, k, &Alg1, NodeId(0), NodeId(8));
        assert_eq!(traced.report.route, plain.route);
        assert_eq!(traced.rules.len(), traced.report.hops());
        // Rules come from Algorithm 1's named table.
        for rule in &traced.rules {
            assert!(
                ["case-1", "S1", "S2", "S3", "U1", "U2", "U3", "US1", "US2", "US3"].contains(rule),
                "unknown rule {rule}"
            );
        }
    }

    #[test]
    fn report_edge_use_accounting() {
        let r = RunReport {
            status: RunStatus::Delivered,
            route: vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)],
            shortest: 1,
            k: 1,
        };
        assert_eq!(r.max_directed_edge_uses(), 2);
    }
}
