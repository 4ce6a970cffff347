//! Deterministic run engine: drives a router hop by hop with exact loop
//! detection, and evaluates delivery and dilation (§2.2).

// The `HashMap` here is the hot-path exception to the R2 determinism
// rule: the view-cache shards are keyed lookups whose iteration order
// never reaches an output. The site is justified in `lint.allow`;
// clippy's workspace-wide `disallowed-types` is relaxed file-locally to
// match.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use locality_graph::{traversal, Graph, NodeId};

use crate::error::RoutingError;
use crate::model::Packet;
use crate::oracle::ViewArtifact;
use crate::traits::LocalRouter;
use crate::view::LocalView;
use crate::visited::VisitedStates;

/// Options controlling a run.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Hard cap on hops, over and above exact loop detection. Mostly a
    /// belt-and-braces guard; `None` means `8 * n^2`.
    pub max_steps: Option<usize>,
}

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
    /// The belt-and-braces step cap fired.
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
        if self.status.is_delivered() && self.shortest > 0 {
            Some(self.hops() as f64 / self.shortest as f64)
        } else {
            None
        }
    }

    /// Maximum number of times any directed edge was traversed
    /// (Observation 1: at most once each way for a successful
    /// predecessor-aware run).
    pub fn max_directed_edge_uses(&self) -> usize {
        let mut uses: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for w in self.route.windows(2) {
            *uses.entry((w[0], w[1])).or_insert(0) += 1;
        }
        uses.values().copied().max().unwrap_or(0)
    }
}

/// Number of independently locked shards in a [`ViewCache`]. A small
/// power of two: enough to keep a handful of worker threads from
/// serialising on one lock, cheap enough to allocate per cache.
const VIEW_CACHE_SHARDS: usize = 16;

/// Shared, thread-safe cache of [`LocalView`]s for one `(graph, k)`
/// pair. Views (and their lazily computed preprocessing) are built
/// **exactly once** per node and reused across runs and across threads
/// — exactly like real nodes that preprocess once and then route many
/// messages (§5.1: "the preprocessing step need not be repeated unless
/// the network topology changes").
///
/// Internally the cache is sharded: each shard is an `RwLock` over a
/// hash map of `Arc<LocalView>`. Lookups of an already-built view take
/// a read lock only; the first request for a node holds its shard's
/// write lock while extracting, so concurrent requests for the same
/// node converge on one `Arc` and the extraction work is never
/// duplicated. All methods take `&self`, so one cache can be shared by
/// reference across [`std::thread::scope`] workers.
///
/// ```
/// use local_routing::engine::ViewCache;
/// use locality_graph::{generators, NodeId};
///
/// let g = generators::cycle(8);
/// let cache = ViewCache::new(&g, 2);
/// let a = cache.view(NodeId(0));
/// let b = cache.view(NodeId(0));
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // built once, shared
/// ```
pub struct ViewCache<'g> {
    graph: &'g Graph,
    k: u32,
    shards: Vec<RwLock<HashMap<NodeId, Arc<LocalView>>>>,
}

impl<'g> ViewCache<'g> {
    /// Creates an empty cache for `(graph, k)`.
    pub fn new(graph: &'g Graph, k: u32) -> ViewCache<'g> {
        ViewCache {
            graph,
            k,
            shards: (0..VIEW_CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    /// The locality parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The graph the cached views were extracted from.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of views currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no view has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn shard_of(&self, u: NodeId) -> &RwLock<HashMap<NodeId, Arc<LocalView>>> {
        &self.shards[u.index() % VIEW_CACHE_SHARDS]
    }

    /// The view at `u`, extracting it on first request. Safe to call
    /// from many threads; all callers receive the same `Arc`.
    pub fn view(&self, u: NodeId) -> Arc<LocalView> {
        // A poisoned shard still holds structurally consistent data
        // (writes are complete `Arc` insertions), so recover the guard
        // instead of propagating a sibling thread's panic.
        let shard = self.shard_of(u);
        if let Some(v) = shard.read().unwrap_or_else(PoisonError::into_inner).get(&u) {
            return Arc::clone(v);
        }
        // Double-checked: take the write lock and extract under it, so
        // a racing thread blocks here and reuses our result instead of
        // extracting a second time.
        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(u)
                .or_insert_with(|| Arc::new(LocalView::extract(self.graph, u, self.k))),
        )
    }
}

/// Owned, invalidatable sibling of [`ViewCache`] for long-lived hosts
/// whose graph **changes** over time — the simulator being the
/// canonical one. A `ViewCache` borrows its graph, so a struct that
/// owns and mutates its own `Graph` cannot hold one; a `ViewStore`
/// holds no graph reference and is handed the current graph at each
/// lookup instead.
///
/// The contract is the inverse of `ViewCache`'s immutability: after
/// any topology change the **caller** must [`invalidate`]
/// (Self::invalidate) every node whose `G_k(u)` the change could have
/// reached (the simulator's dirty-set computation does exactly this).
/// A lookup then re-extracts from the graph it is given; undamaged
/// entries keep their `Arc` — and with it every lazily memoized
/// routing structure — across the wave.
///
/// Sharded exactly like [`ViewCache`], so provisioning can be shared
/// across scoped worker threads.
pub struct ViewStore {
    k: u32,
    shards: Vec<RwLock<HashMap<NodeId, CachedView>>>,
    /// Precomputed payloads to materialize misses from, when the store
    /// was opened over an artifact ([`from_artifact`](Self::from_artifact)).
    backing: Option<ArtifactBacking>,
    /// Resident-view budget across all shards; `0` means unbounded
    /// (the historical behaviour). See
    /// [`set_resident_budget`](Self::set_resident_budget).
    budget: AtomicUsize,
    /// Monotone logical clock stamping every hit/insert, the LRU order
    /// eviction follows.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    artifact_loads: AtomicU64,
    rebuilds: AtomicU64,
    evictions: AtomicU64,
}

/// One resident entry of a [`ViewStore`] shard: the view plus its
/// last-touched stamp. The stamp is an atomic so the hit path can
/// refresh it under the shard's *read* lock.
struct CachedView {
    view: Arc<LocalView>,
    touched: AtomicU64,
}

/// The oracle side of a [`ViewStore`]: the artifact misses are decoded
/// from, plus a per-node staleness flag. Invalidation marks a node
/// stale instead of merely evicting it, so the next lookup re-extracts
/// from the *live* graph rather than serving a payload the topology
/// has moved past.
struct ArtifactBacking {
    artifact: Arc<ViewArtifact>,
    stale: Vec<AtomicBool>,
}

/// Cumulative effectiveness counters of a [`ViewStore`]: how often a
/// lookup was served from cache (`hits`) versus extracted (`misses`),
/// and how many invalidations actually evicted an entry. Relaxed
/// atomics — the counts are exact under the store's own locking (every
/// miss holds the shard write lock), only their *reads* are racy, and
/// the simulator reads them once, after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStoreStats {
    /// Lookups served from an existing entry.
    pub hits: u64,
    /// Lookups that materialized a fresh view (by extraction, or by
    /// artifact decode on a backed store).
    pub misses: u64,
    /// Invalidations that evicted a cached entry.
    pub invalidations: u64,
    /// Misses served by decoding the backing artifact (lazy
    /// materialization; zero on unbacked stores).
    pub artifact_loads: u64,
    /// Misses on a **backed** store that had to fall back to BFS
    /// extraction because the entry was stale — the churn conservation
    /// counter: after a wave, this grows by exactly the dirty-radius
    /// node count, proving untouched entries were never rebuilt.
    pub rebuilds: u64,
    /// Clean entries dropped to stay inside the resident-view budget
    /// ([`ViewStore::set_resident_budget`]); zero on unbounded stores.
    /// Budget evictions are invisible to routing (an evicted view
    /// re-materializes identically on the next miss) and deliberately
    /// excluded from `invalidations`, so the churn conservation pair
    /// `misses == artifact_loads + rebuilds` keeps holding on backed
    /// stores.
    pub evictions: u64,
}

impl ViewStore {
    /// Creates an empty store for locality `k`.
    pub fn new(k: u32) -> ViewStore {
        ViewStore {
            k,
            shards: (0..VIEW_CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            backing: None,
            budget: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            artifact_loads: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bounds the number of resident views across all cache shards;
    /// `0` removes the bound (the default). Once a shard exceeds its
    /// slice of the budget, its least-recently-touched **clean**
    /// entries are evicted at insert time: on an unbacked store every
    /// entry is clean (the caller invalidates on topology change, so
    /// residents always match the current graph); on an artifact-backed
    /// store only artifact-fresh entries are candidates — churn-rebuilt
    /// entries stay pinned, so the `rebuilds` conservation counter
    /// still counts exactly the dirty radius. Eviction never changes a
    /// routing result, only when views are re-materialized; a store
    /// over budget with nothing evictable simply stays over budget.
    pub fn set_resident_budget(&self, views: usize) {
        self.budget.store(views, Ordering::Relaxed);
    }

    /// The configured resident-view budget (`0` = unbounded).
    pub fn resident_budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Opens a store over a prebuilt [`ViewArtifact`]: lookups decode
    /// the node's payload from the arena instead of running extraction
    /// BFS, until [`invalidate`](Self::invalidate) marks a node stale —
    /// from then on that node (and only that node) re-extracts from the
    /// live graph, exactly like an unbacked store.
    pub fn from_artifact(artifact: Arc<ViewArtifact>) -> ViewStore {
        let mut store = ViewStore::new(artifact.k());
        let stale = (0..artifact.node_count())
            .map(|_| AtomicBool::new(false))
            .collect();
        store.backing = Some(ArtifactBacking { artifact, stale });
        store
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
            invalidations: self.invalidations.load(Ordering::Relaxed),
            artifact_loads: self.artifact_loads.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The locality parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of views currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no view is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn shard_of(&self, u: NodeId) -> &RwLock<HashMap<NodeId, CachedView>> {
        &self.shards[u.index() % VIEW_CACHE_SHARDS]
    }

    /// Stamps the next LRU-clock value.
    #[inline]
    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The view at `u`, extracted from `graph` on first request (or on
    /// the first request after an [`invalidate`](Self::invalidate)).
    ///
    /// The caller is responsible for passing the same graph state
    /// between invalidations — the store cannot tell graphs apart.
    pub fn view(&self, graph: &Graph, u: NodeId) -> Arc<LocalView> {
        let shard = self.shard_of(u);
        if let Some(c) = shard.read().unwrap_or_else(PoisonError::into_inner).get(&u) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            c.touched.store(self.touch(), Ordering::Relaxed);
            return Arc::clone(&c.view);
        }
        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
        // Double-checked: a racing thread may have extracted while we
        // waited for the write lock — that is a hit, not a miss.
        if let Some(c) = map.get(&u) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            c.touched.store(self.touch(), Ordering::Relaxed);
            return Arc::clone(&c.view);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(self.materialize(graph, u));
        map.insert(
            u,
            CachedView {
                view: Arc::clone(&v),
                touched: AtomicU64::new(self.touch()),
            },
        );
        self.enforce_budget(&mut map);
        v
    }

    /// Evicts least-recently-touched clean entries from one shard
    /// until it is back inside its slice of the resident budget.
    /// Called with the shard's write lock held, straight after an
    /// insert. Selection scans the shard map but picks the strict
    /// minimum of the (unique) LRU stamps, so the choice is
    /// independent of hash iteration order.
    fn enforce_budget(&self, map: &mut HashMap<NodeId, CachedView>) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        let cap = budget.div_ceil(VIEW_CACHE_SHARDS).max(1);
        while map.len() > cap {
            let victim = map
                .iter()
                .filter(|(u, _)| self.evictable(**u))
                .min_by_key(|(_, c)| c.touched.load(Ordering::Relaxed))
                .map(|(u, _)| *u);
            let Some(u) = victim else {
                // Everything left is churn-rebuilt (pinned to protect
                // the conservation counters): stay over budget.
                return;
            };
            map.remove(&u);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the resident entry at `u` may be dropped by the budget:
    /// always on an unbacked store, only while artifact-fresh on a
    /// backed one.
    fn evictable(&self, u: NodeId) -> bool {
        match &self.backing {
            None => true,
            Some(b) => b
                .stale
                .get(u.index())
                .is_some_and(|s| !s.load(Ordering::Relaxed)),
        }
    }

    /// Produces the view for a miss: decoded from the artifact when the
    /// store is backed and `u` is not stale, else extracted from the
    /// live graph. A decode failure also falls back to extraction — the
    /// decoded and extracted views are behaviourally identical by the
    /// artifact contract, so degrading is always safe — but counts as a
    /// rebuild, so the conservation counter exposes it.
    fn materialize(&self, graph: &Graph, u: NodeId) -> LocalView {
        if let Some(b) = &self.backing {
            let fresh = b
                .stale
                .get(u.index())
                .is_some_and(|s| !s.load(Ordering::Relaxed));
            if fresh {
                if let Ok(view) = b.artifact.decode_view(u) {
                    self.artifact_loads.fetch_add(1, Ordering::Relaxed);
                    return view;
                }
            }
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        LocalView::extract(graph, u, self.k)
    }

    /// Drops the cached view at `u`, forcing re-extraction on the next
    /// lookup. Returns whether an entry existed. `Arc`s already handed
    /// out keep the old view alive — exactly the stale-view semantics
    /// the simulator wants for nodes that have not yet been told about
    /// a topology change.
    ///
    /// On an artifact-backed store this also marks `u` **stale**: its
    /// payload describes a topology that no longer exists, so every
    /// later miss at `u` re-extracts from the live graph instead of
    /// decoding.
    pub fn invalidate(&self, u: NodeId) -> bool {
        if let Some(b) = &self.backing {
            if let Some(s) = b.stale.get(u.index()) {
                s.store(true, Ordering::Relaxed);
            }
        }
        let evicted = self
            .shard_of(u)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&u)
            .is_some();
        if evicted {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }
}

/// Routes one message from `s` to `t` with a fresh view cache.
pub fn route<R: LocalRouter + ?Sized>(
    graph: &Graph,
    k: u32,
    router: &R,
    s: NodeId,
    t: NodeId,
    options: &RunOptions,
) -> RunReport {
    let cache = ViewCache::new(graph, k);
    route_with_cache(&cache, router, s, t, options)
}

/// Routes one message reusing an existing view cache (preferred when
/// routing many pairs on the same graph).
pub fn route_with_cache<R: LocalRouter + ?Sized>(
    cache: &ViewCache<'_>,
    router: &R,
    s: NodeId,
    t: NodeId,
    options: &RunOptions,
) -> RunReport {
    walk(cache, router, s, t, options, None)
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
    options: &RunOptions,
) -> TracedRun {
    let cache = ViewCache::new(graph, k);
    let mut rules = Vec::new();
    let report = walk(&cache, router, s, t, options, Some(&mut rules));
    TracedRun { report, rules }
}

/// The hop loop behind every engine run. With `rules`, the router names
/// the rule behind each hop ([`LocalRouter::decide_explained`]) and the
/// names are appended; without, it is asked for the next hop only.
fn walk<R: LocalRouter + ?Sized>(
    cache: &ViewCache<'_>,
    router: &R,
    s: NodeId,
    t: NodeId,
    options: &RunOptions,
    mut rules: Option<&mut Vec<&'static str>>,
) -> RunReport {
    let graph = cache.graph;
    let k = cache.k;
    let n = graph.node_count();
    let shortest = traversal::distance(graph, s, t).unwrap_or(0);
    let max_steps = options.max_steps.unwrap_or(8 * n * n + 16);
    let awareness = router.awareness();
    let origin_label = graph.label(s);
    let target_label = graph.label(t);

    let mut route = vec![s];
    let mut current = s;
    let mut predecessor: Option<NodeId> = None;
    let mut visited = VisitedStates::new();

    let status = loop {
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
        let view = cache.view(current);
        let packet = Packet::new(
            origin_label,
            target_label,
            predecessor.map(|p| graph.label(p)),
        )
        .masked(awareness);
        let decision = if rules.is_some() {
            router.decide_explained(&packet, &view)
        } else {
            router.decide(&packet, &view).map(|l| (l, "?"))
        };
        match decision {
            Err(e) => break RunStatus::RouterError(e),
            Ok((next_label, rule)) => {
                let next = graph.node_by_label(next_label);
                let Some(next) = next.filter(|&x| graph.has_edge(current, x)) else {
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
    };

    RunReport {
        status,
        route,
        shortest,
        k,
    }
}

/// Aggregate outcome over every ordered origin–destination pair.
#[derive(Clone, Debug)]
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

/// Runs `router` on the given pairs, sharing one view cache.
pub fn delivery_matrix_for_pairs<R, I>(graph: &Graph, k: u32, router: &R, pairs: I) -> MatrixReport
where
    R: LocalRouter + ?Sized,
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let cache = ViewCache::new(graph, k);
    delivery_matrix_with_cache(&cache, router, pairs)
}

/// Runs `router` on the given pairs through a caller-supplied (and
/// possibly shared) view cache.
pub fn delivery_matrix_with_cache<R, I>(cache: &ViewCache<'_>, router: &R, pairs: I) -> MatrixReport
where
    R: LocalRouter + ?Sized,
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let options = RunOptions::default();
    let mut report = MatrixReport {
        runs: 0,
        failures: Vec::new(),
        worst_dilation: None,
        total_hops: 0,
    };
    for (s, t) in pairs {
        let run = route_with_cache(cache, router, s, t, &options);
        report.runs += 1;
        if run.status.is_delivered() {
            report.total_hops += run.hops();
            if let Some(d) = run.dilation() {
                if report.worst_dilation.is_none_or(|(w, _, _)| d > w) {
                    report.worst_dilation = Some((d, s, t));
                }
            }
        } else {
            report.failures.push((s, t, run.status));
        }
    }
    report
}

/// Runs `router` on every ordered pair, fanned out over `threads` OS
/// threads sharing **one** [`ViewCache`]: each `G_k(u)` (and its lazy
/// preprocessing) is extracted exactly once no matter how many workers
/// route through `u`. Semantically identical to [`delivery_matrix`],
/// modulo the order of `failures`; used by the large-n validation
/// suites and the experiment harness.
pub fn delivery_matrix_parallel<R>(
    graph: &Graph,
    k: u32,
    router: &R,
    threads: usize,
) -> MatrixReport
where
    R: LocalRouter + Sync + ?Sized,
{
    let pairs: Vec<(NodeId, NodeId)> = graph
        .nodes()
        .flat_map(|s| graph.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
        .collect();
    let threads = threads.max(1).min(pairs.len().max(1));
    let chunk = pairs.len().div_ceil(threads);
    let cache = ViewCache::new(graph, k);
    let partials: Vec<MatrixReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk.max(1))
            .map(|slice| {
                let cache = &cache;
                scope
                    .spawn(move || delivery_matrix_with_cache(cache, router, slice.iter().copied()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(partial) => partial,
                // A worker panic is not ours to swallow: re-raise it on
                // the coordinating thread without minting a new panic
                // site.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = MatrixReport {
        runs: 0,
        failures: Vec::new(),
        worst_dilation: None,
        total_hops: 0,
    };
    for p in partials {
        out.runs += p.runs;
        out.failures.extend(p.failures);
        out.total_hops += p.total_hops;
        if let Some((d, s, t)) = p.worst_dilation {
            if out.worst_dilation.is_none_or(|(w, _, _)| d > w) {
                out.worst_dilation = Some((d, s, t));
            }
        }
    }
    out.failures.sort_by_key(|&(s, t, _)| (s, t));
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
        let r = route(&g, 1, &Stubborn, NodeId(2), NodeId(2), &Default::default());
        assert!(r.status.is_delivered());
        assert_eq!(r.hops(), 0);
        assert_eq!(r.dilation(), None);
    }

    #[test]
    fn stubborn_loops_and_is_caught_quickly() {
        // On a path, always going to the lowest label means bouncing
        // between nodes 0 and 1 forever; state (u) recurs immediately.
        let g = generators::path(6);
        let r = route(&g, 2, &Stubborn, NodeId(3), NodeId(5), &Default::default());
        assert_eq!(r.status, RunStatus::LoopDetected);
        assert!(r.route.len() <= 12, "loop detection must be prompt");
    }

    #[test]
    fn stubborn_succeeds_toward_low_labels() {
        let g = generators::path(6);
        let r = route(&g, 2, &Stubborn, NodeId(4), NodeId(0), &Default::default());
        assert!(r.status.is_delivered());
        assert_eq!(r.hops(), 4);
        assert_eq!(r.dilation(), Some(1.0));
    }

    #[test]
    fn invalid_decisions_are_reported() {
        let g = generators::path(3);
        let r = route(&g, 1, &Liar, NodeId(0), NodeId(2), &Default::default());
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
        use crate::Alg1;
        let g = generators::lollipop(10, 4);
        let k = 4;
        let serial = delivery_matrix(&g, k, &Alg1);
        for threads in [1usize, 3, 8] {
            let par = delivery_matrix_parallel(&g, k, &Alg1, threads);
            assert_eq!(par.runs, serial.runs);
            assert_eq!(par.failures, serial.failures);
            assert_eq!(par.total_hops, serial.total_hops);
            assert_eq!(
                par.worst_dilation.map(|(d, _, _)| d),
                serial.worst_dilation.map(|(d, _, _)| d)
            );
        }
    }

    #[test]
    fn view_cache_shares_views() {
        let g = generators::cycle(8);
        let cache = ViewCache::new(&g, 2);
        assert!(cache.is_empty());
        let a = cache.view(NodeId(0));
        let b = cache.view(NodeId(0));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn view_cache_shared_across_threads_returns_same_arc() {
        // Many threads hammering the same nodes must converge on one
        // Arc per node — the extraction happens exactly once.
        let g = generators::grid(5, 5);
        let cache = ViewCache::new(&g, 3);
        let views: Vec<Vec<Arc<LocalView>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, g) = (&cache, &g);
                    scope.spawn(move || g.nodes().map(|u| cache.view(u)).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &views[1..] {
            for (a, b) in views[0].iter().zip(per_thread) {
                assert!(Arc::ptr_eq(a, b), "threads must share cached views");
            }
        }
        assert_eq!(cache.len(), g.node_count());
    }

    #[test]
    fn view_store_invalidation_reextracts_from_current_graph() {
        let mut g = generators::cycle(8);
        let store = ViewStore::new(2);
        assert!(store.is_empty());
        let a = store.view(&g, NodeId(0));
        let b = store.view(&g, NodeId(0));
        assert!(Arc::ptr_eq(&a, &b), "unchanged entries share one Arc");
        assert_eq!(store.len(), 1);
        // Mutate the topology; the store cannot see it until told.
        g.insert_edge(NodeId(0), NodeId(4)).expect("simple edge");
        let stale = store.view(&g, NodeId(0));
        assert!(Arc::ptr_eq(&a, &stale), "uninvalidated views stay stale");
        assert!(store.invalidate(NodeId(0)));
        assert!(!store.invalidate(NodeId(0)), "second invalidate is a no-op");
        let fresh = store.view(&g, NodeId(0));
        assert!(!Arc::ptr_eq(&a, &fresh));
        assert_eq!(
            fresh.center_neighbors().collect::<Vec<_>>(),
            [NodeId(1), NodeId(4), NodeId(7)],
            "re-extraction must see the new edge"
        );
        // The old Arc is still alive and still shows the old world.
        assert_eq!(
            a.center_neighbors().collect::<Vec<_>>(),
            [NodeId(1), NodeId(7)]
        );
    }

    #[test]
    fn view_store_budget_evicts_least_recently_touched() {
        let g = generators::cycle(64);
        let store = ViewStore::new(1);
        // Budget 32 → 2 resident views per internal shard. Nodes 0, 16,
        // and 32 all hash to the same shard, so they compete.
        store.set_resident_budget(32);
        assert_eq!(store.resident_budget(), 32);
        let v0 = store.view(&g, NodeId(0));
        let _v16 = store.view(&g, NodeId(16));
        // Refresh 0 so 16 becomes the LRU entry, then overflow the
        // shard: 16 must be the victim.
        let hit = store.view(&g, NodeId(0));
        assert!(Arc::ptr_eq(&v0, &hit));
        let _v32 = store.view(&g, NodeId(32));
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.invalidations, 0, "budget evictions are not invalidations");
        let back = store.view(&g, NodeId(0));
        assert!(Arc::ptr_eq(&v0, &back), "recently touched entry survived");
        store.view(&g, NodeId(16));
        assert_eq!(store.stats().misses, 4, "evicted node 16 re-misses");
    }

    #[test]
    fn view_store_unbounded_by_default_never_evicts() {
        let g = generators::cycle(64);
        let store = ViewStore::new(1);
        for u in g.nodes() {
            store.view(&g, u);
        }
        assert_eq!(store.len(), 64);
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn view_store_budget_pins_churn_rebuilt_entries() {
        use crate::oracle::ViewArtifact;
        let mut g = generators::cycle(64);
        let artifact = Arc::new(ViewArtifact::build(&g, 1));
        let store = ViewStore::from_artifact(artifact);
        store.set_resident_budget(16); // one resident view per shard
                                       // Churn at node 0: the artifact entry goes permanently stale,
                                       // so the re-extracted view is a conservation-counted rebuild
                                       // and must never be evicted by the budget.
        g.insert_edge(NodeId(0), NodeId(7)).expect("simple edge");
        store.invalidate(NodeId(0));
        let rebuilt = store.view(&g, NodeId(0));
        // Overflow node 0's shard with artifact-fresh entries: they are
        // the only evictable candidates.
        let _v16 = store.view(&g, NodeId(16));
        let _v32 = store.view(&g, NodeId(32));
        let s = store.stats();
        assert!(s.evictions >= 1, "fresh entries were evicted");
        assert_eq!(s.rebuilds, 1, "only the churned node rebuilt");
        let still = store.view(&g, NodeId(0));
        assert!(
            Arc::ptr_eq(&rebuilt, &still),
            "rebuilt entry must be pinned, not re-rebuilt"
        );
        let s = store.stats();
        assert_eq!(
            s.misses,
            s.artifact_loads + s.rebuilds,
            "conservation must survive budget eviction"
        );
    }

    #[test]
    fn view_store_matches_view_cache_per_node() {
        let g = generators::grid(4, 4);
        let cache = ViewCache::new(&g, 3);
        let store = ViewStore::new(3);
        for u in g.nodes() {
            assert_eq!(
                cache.view(u).fingerprint(),
                store.view(&g, u).fingerprint(),
                "store and cache must extract identical views"
            );
        }
    }

    #[test]
    fn traced_run_matches_plain_run() {
        use crate::Alg1;
        let g = generators::cycle(16);
        let k = 4;
        let plain = route(&g, k, &Alg1, NodeId(0), NodeId(8), &Default::default());
        let traced = route_traced(&g, k, &Alg1, NodeId(0), NodeId(8), &Default::default());
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
