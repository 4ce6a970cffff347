//! Perf smoke test for the dense data-model hot path.
//!
//! Times view extraction, preprocessing, and a full delivery matrix on
//! random connected graphs (n ∈ {32, 64, 128}, k = n/4) and emits one
//! line of JSON (redirect to `BENCH_perfsmoke.json`) so subsequent PRs
//! can track the perf trajectory.
//!
//! To quantify what the dense refactor bought, the same harness is also
//! run against an in-file emulation of the **pre-refactor data model**:
//! `BTreeMap`-backed distance maps, tree-map adjacency subgraphs, and
//! the old double-BFS k-neighbourhood extraction. The emulation is
//! checked node-by-node against the real pipeline before anything is
//! timed (same views, same distances, same dormant sets), so the two
//! sides do identical work on identical structures — only the data
//! model differs. For the delivery-matrix figure the legacy side
//! replays the engine's exact routes, charging the old structures for
//! each hop's shortest-path step; cheap passive-case lookups are
//! omitted, so the reported speedups are lower bounds.
//!
//! The `sim` section does the same for the distributed simulator: the
//! real engine (timing wheel, arrival slab, route-sized loop state,
//! memoized step tables) against a replay of the identical hop
//! sequence charged to the pre-refactor simulator structures, plus an
//! end-to-end trials-per-second figure through the parallel driver.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use local_routing::engine::{self, RunOptions};
use local_routing::{preprocess, Alg1, LocalView, ViewArtifact, ViewStore};
use locality_bench::loadgen;
use locality_bench::simbench;
use locality_bench::timing;
use locality_bench::timing::{black_box, measure_ns};
use locality_graph::rng::DetRng;
use locality_graph::{generators, traversal, Graph, Label, NodeId};
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::synth::SynthTrace;
use locality_obs::analytics::{run_mode, Mode as _, TailMode, DEFAULT_BUF_BYTES};
use locality_sim::{driver, Level, Recorder};

/// Emulation of the pre-refactor (tree-map) data model, kept verbatim
/// in spirit: every structure the old hot path allocated per node is
/// reproduced here, including the redundant second BFS the old
/// `k_neighborhood_with_distances` performed inside the extracted view.
mod legacy {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use locality_graph::{EdgeRank, Graph, Label, NodeId};

    /// The old `Subgraph`: `BTreeMap` adjacency with sorted neighbour
    /// lists, exactly as the seed data model stored `G_k(u)`.
    #[derive(Default)]
    pub struct Subgraph {
        pub adj: BTreeMap<NodeId, Vec<NodeId>>,
        pub edge_count: usize,
    }

    impl Subgraph {
        pub fn insert_node(&mut self, u: NodeId) {
            self.adj.entry(u).or_default();
        }

        pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
            self.adj
                .get(&u)
                .is_some_and(|l| l.binary_search(&v).is_ok())
        }

        pub fn insert_edge(&mut self, u: NodeId, v: NodeId) {
            if self.has_edge(u, v) {
                return;
            }
            self.adj.entry(u).or_default().push(v);
            self.adj.entry(v).or_default().push(u);
            self.adj.get_mut(&u).expect("present").sort_unstable();
            self.adj.get_mut(&v).expect("present").sort_unstable();
            self.edge_count += 1;
        }

        pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
            self.adj.get(&u).map(Vec::as_slice).unwrap_or(&[])
        }

        pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
            let mut out = Vec::with_capacity(self.edge_count);
            for (&u, list) in &self.adj {
                for &v in list {
                    if u < v {
                        out.push((u, v));
                    }
                }
            }
            out
        }
    }

    /// The old `traversal::bfs_distances` over the parent graph:
    /// distances land in a `BTreeMap`.
    pub fn bfs_graph(g: &Graph, s: NodeId, cap: Option<u32>) -> BTreeMap<NodeId, u32> {
        let mut dist = BTreeMap::new();
        dist.insert(s, 0u32);
        let mut queue = VecDeque::from([s]);
        while let Some(x) = queue.pop_front() {
            let dx = dist[&x];
            if cap.is_some_and(|c| dx >= c) {
                continue;
            }
            for &y in g.neighbors(x) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(y) {
                    e.insert(dx + 1);
                    queue.push_back(y);
                }
            }
        }
        dist
    }

    /// BFS inside a legacy subgraph, optionally restricted to edges
    /// accepted by `pred` (the old `FilteredTopology`).
    pub fn bfs_sub(
        sub: &Subgraph,
        s: NodeId,
        cap: Option<u32>,
        pred: impl Fn(NodeId, NodeId) -> bool,
    ) -> BTreeMap<NodeId, u32> {
        let mut dist = BTreeMap::new();
        if !sub.adj.contains_key(&s) {
            return dist;
        }
        dist.insert(s, 0u32);
        let mut queue = VecDeque::from([s]);
        while let Some(x) = queue.pop_front() {
            let dx = dist[&x];
            if cap.is_some_and(|c| dx >= c) {
                continue;
            }
            for &y in sub.neighbors(x) {
                if pred(x, y) {
                    if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(y) {
                        e.insert(dx + 1);
                        queue.push_back(y);
                    }
                }
            }
        }
        dist
    }

    /// Early-exit BFS distance `dist(s, t)` over the parent graph — the
    /// per-pair `shortest` computation of the old delivery matrix.
    pub fn distance(g: &Graph, s: NodeId, t: NodeId) -> Option<u32> {
        let mut dist = BTreeMap::new();
        dist.insert(s, 0u32);
        let mut queue = VecDeque::from([s]);
        while let Some(x) = queue.pop_front() {
            let dx = dist[&x];
            if x == t {
                return Some(dx);
            }
            for &y in g.neighbors(x) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(y) {
                    e.insert(dx + 1);
                    queue.push_back(y);
                }
            }
        }
        dist.get(&t).copied()
    }

    /// The old `LocalView`: map-backed view, distances, and labels.
    pub struct View {
        pub sub: Subgraph,
        pub dist: BTreeMap<NodeId, u32>,
        pub labels: BTreeMap<NodeId, Label>,
    }

    /// The old extraction path, double BFS included: one BFS over the
    /// parent for membership, a second BFS *inside* the view for the
    /// distance map.
    pub fn extract(g: &Graph, u: NodeId, k: u32) -> View {
        let seed_dist = bfs_graph(g, u, Some(k));
        let mut sub = Subgraph::default();
        sub.insert_node(u);
        for (&x, &dx) in &seed_dist {
            sub.insert_node(x);
            if dx < k {
                for &y in g.neighbors(x) {
                    if seed_dist.get(&y).is_some_and(|&dy| dy >= dx) {
                        sub.insert_edge(x, y);
                    }
                }
            }
        }
        let dist = bfs_sub(&sub, u, Some(k), |_, _| true);
        let labels = sub.adj.keys().map(|&x| (x, g.label(x))).collect();
        View { sub, dist, labels }
    }

    pub struct Preprocessed {
        pub dormant: BTreeSet<(NodeId, NodeId)>,
        pub routing: Subgraph,
        pub dist: BTreeMap<NodeId, u32>,
    }

    fn edge_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The old preprocessing step: per-edge filtered BFS through the
    /// tree-map view for the closed-walk dormancy criterion, then the
    /// routing subgraph and its distance map.
    pub fn preprocess(view: &View, center: NodeId, k: u32) -> Preprocessed {
        let rank = |a: NodeId, b: NodeId| EdgeRank::new(view.labels[&a], view.labels[&b]);
        let mut dormant = BTreeSet::new();
        for (x, y) in view.sub.edges() {
            let r = rank(x, y);
            let dist = bfs_sub(&view.sub, center, Some(2 * k), |a, b| rank(a, b) > r);
            if let (Some(&dx), Some(&dy)) = (dist.get(&x), dist.get(&y)) {
                if dx + dy < 2 * k {
                    dormant.insert(edge_key(x, y));
                }
            }
        }
        let live = |a: NodeId, b: NodeId| !dormant.contains(&edge_key(a, b));
        let reach = bfs_sub(&view.sub, center, Some(k), live);
        let mut routing = Subgraph::default();
        routing.insert_node(center);
        for (&x, &dx) in &reach {
            routing.insert_node(x);
            if dx < k {
                for &y in view.sub.neighbors(x) {
                    if live(x, y) && reach.get(&y).is_some_and(|&dy| dy >= dx) {
                        routing.insert_edge(x, y);
                    }
                }
            }
        }
        let dist = bfs_sub(&routing, center, Some(k), |_, _| true);
        Preprocessed {
            dormant,
            routing,
            dist,
        }
    }
}

/// Asserts, for every node of `g`, that the legacy emulation and the
/// real pipeline agree on the view, its distances, the dormant set, and
/// the routing subgraph — so the timed comparison is apples to apples.
fn check_equivalence(g: &Graph, k: u32) {
    for u in g.nodes() {
        let new = LocalView::extract(g, u, k);
        let old = legacy::extract(g, u, k);
        assert_eq!(
            new.raw().node_count(),
            old.sub.adj.len(),
            "view nodes at {u}"
        );
        assert_eq!(
            new.raw().edge_count(),
            old.sub.edge_count,
            "view edges at {u}"
        );
        for (&x, &dx) in &old.dist {
            assert_eq!(new.dist_from_center(x), Some(dx), "dist({u}, {x})");
        }
        let rv = new.routing_view();
        let dormant_new = preprocess::dormant_edges(new.raw(), new.labels(), u, k);
        let old_pre = legacy::preprocess(&old, u, k);
        assert_eq!(dormant_new, old_pre.dormant, "dormant set at {u}");
        assert_eq!(
            rv.sub.node_count(),
            old_pre.routing.adj.len(),
            "routing nodes at {u}"
        );
        assert_eq!(
            rv.sub.edge_count(),
            old_pre.routing.edge_count,
            "routing edges at {u}"
        );
        for (&x, &dx) in &old_pre.dist {
            assert_eq!(rv.dist(x), Some(dx), "routing dist({u}, {x})");
        }
    }
}

struct SizeReport {
    n: usize,
    k: u32,
    extract_ns: f64,
    preprocess_ns: f64,
    delivery_matrix_ns: f64,
    legacy_extract_ns: f64,
    legacy_preprocess_ns: f64,
    legacy_delivery_matrix_ns: f64,
}

impl SizeReport {
    fn speedup(&self) -> f64 {
        self.legacy_delivery_matrix_ns / self.delivery_matrix_ns
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n\":{},\"k\":{},\"extract_ns\":{:.0},\"preprocess_ns\":{:.0},",
                "\"delivery_matrix_ns\":{:.0},\"legacy_extract_ns\":{:.0},",
                "\"legacy_preprocess_ns\":{:.0},\"legacy_delivery_matrix_ns\":{:.0},",
                "\"delivery_matrix_speedup\":{:.2}}}"
            ),
            self.n,
            self.k,
            self.extract_ns,
            self.preprocess_ns,
            self.delivery_matrix_ns,
            self.legacy_extract_ns,
            self.legacy_preprocess_ns,
            self.legacy_delivery_matrix_ns,
            self.speedup(),
        )
    }
}

fn bench_size(n: usize) -> SizeReport {
    let k = (n / 4) as u32;
    let mut rng = DetRng::seed_from_u64(42);
    let g = generators::random_connected(n, n / 2, &mut rng);
    check_equivalence(&g, k);

    // All-node view extraction, then extraction + preprocessing; the
    // preprocessing figure is the difference (preprocessing is cached
    // per view, so it cannot be timed on its own without re-extracting).
    let extract_ns = measure_ns(|| {
        let mut acc = 0usize;
        for u in g.nodes() {
            acc += LocalView::extract(&g, u, k).node_count();
        }
        acc
    });
    let pipeline_ns = measure_ns(|| {
        let mut acc = 0usize;
        for u in g.nodes() {
            let view = LocalView::extract(&g, u, k);
            acc += view.routing_view().sub.edge_count();
        }
        acc
    });
    let legacy_extract_ns = measure_ns(|| {
        let mut acc = 0usize;
        for u in g.nodes() {
            acc += legacy::extract(&g, u, k).sub.adj.len();
        }
        acc
    });
    let legacy_pipeline_ns = measure_ns(|| {
        let mut acc = 0usize;
        for u in g.nodes() {
            let view = legacy::extract(&g, u, k);
            acc += legacy::preprocess(&view, u, k).routing.edge_count;
        }
        acc
    });

    // The real delivery matrix: all (s, t) pairs through Algorithm 1
    // with the shared view cache (per-node preprocessing included).
    let delivery_matrix_ns = measure_ns(|| {
        let m = engine::delivery_matrix(&g, k, &Alg1);
        black_box(m.runs + m.total_hops)
    });
    // The legacy counterpart charges the old data model for the same
    // work item by item: the per-node pipeline, the per-pair
    // shortest-path BFS, and — replaying the engine's exact routes —
    // each hop's Case-1 step (a BFS from the target through the view
    // plus the min-label neighbour scan, recomputed per hop exactly as
    // the old stateless decide() did). Passive-case table lookups are
    // still omitted, which only understates the legacy cost.
    let legacy_pairs_ns = measure_ns(|| {
        let mut acc = 0u32;
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    acc += legacy::distance(&g, s, t).unwrap_or(0);
                }
            }
        }
        acc
    });
    let views = ViewStore::new(&g, k);
    let mut routes: Vec<Vec<NodeId>> = Vec::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                routes.push(
                    engine::route_with_cache(&g, &views, &Alg1, s, t, &RunOptions::default()).route,
                );
            }
        }
    }
    let legacy_views: Vec<(legacy::View, BTreeMap<Label, NodeId>)> = g
        .nodes()
        .map(|u| {
            let view = legacy::extract(&g, u, k);
            let by_label = view.labels.iter().map(|(&x, &l)| (l, x)).collect();
            (view, by_label)
        })
        .collect();
    let legacy_hops_ns = measure_ns(|| {
        let mut acc = 0usize;
        for route in &routes {
            let Some((&t, deciders)) = route.split_last() else {
                continue;
            };
            let t_label = g.label(t);
            for &u in deciders {
                let (view, by_label) = &legacy_views[u.index()];
                if let Some(&t_node) = by_label.get(&t_label) {
                    let dist_to_t = legacy::bfs_sub(&view.sub, t_node, None, |_, _| true);
                    if let Some(&du) = dist_to_t.get(&u) {
                        let step = view
                            .sub
                            .neighbors(u)
                            .iter()
                            .filter(|&&w| dist_to_t.get(&w) == Some(&(du - 1)))
                            .min_by_key(|&&w| view.labels[&w]);
                        acc += step.map(|&w| w.index()).unwrap_or(0);
                    }
                } else {
                    acc += view.labels.len();
                }
            }
        }
        acc
    });

    SizeReport {
        n,
        k,
        extract_ns,
        preprocess_ns: (pipeline_ns - extract_ns).max(0.0),
        delivery_matrix_ns,
        legacy_extract_ns,
        legacy_preprocess_ns: (legacy_pipeline_ns - legacy_extract_ns).max(0.0),
        legacy_delivery_matrix_ns: legacy_pipeline_ns + legacy_pairs_ns + legacy_hops_ns,
    }
}

/// The simulator throughput section: the real engine (timing wheel,
/// arrival slab, route-sized loop state, memoized step tables) against a
/// replay of the same hops charged to the **pre-refactor simulator
/// structures** — `BTreeMap<u64, Vec<Arrival>>` scheduling, per-message
/// `BTreeSet<(NodeId, Option<NodeId>)>` loop detection, and an uncached
/// shortest-step BFS per forwarding decision, exactly the per-hop costs
/// the old `Network::step`/`process` paid. Both sides execute the very
/// same hop sequence (the workload is a pure function of the seed), so
/// the speedup is a data-model ratio, not a workload difference.
struct SimReport {
    n: usize,
    k: u32,
    messages: usize,
    hops: u64,
    sim_hops_per_sec: f64,
    legacy_sim_hops_per_sec: f64,
    driver_threads: usize,
    sim_trials_per_sec: f64,
    sim_trace_overhead_pct: f64,
}

impl SimReport {
    fn speedup(&self) -> f64 {
        if self.legacy_sim_hops_per_sec == 0.0 {
            return 0.0;
        }
        self.sim_hops_per_sec / self.legacy_sim_hops_per_sec
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n\":{},\"k\":{},\"messages\":{},\"hops\":{},",
                "\"sim_hops_per_sec\":{:.0},\"legacy_sim_hops_per_sec\":{:.0},",
                "\"sim_speedup\":{:.2},\"driver_threads\":{},",
                "\"sim_trials_per_sec\":{:.2},\"sim_trace_overhead_pct\":{:.2}}}"
            ),
            self.n,
            self.k,
            self.messages,
            self.hops,
            self.sim_hops_per_sec,
            self.legacy_sim_hops_per_sec,
            self.speedup(),
            self.driver_threads,
            self.sim_trials_per_sec,
            self.sim_trace_overhead_pct,
        )
    }
}

/// The scale section: the `k = 1` greedy ring-lattice workload under
/// churn at n ∈ {2048, 32768, 100000}, one row each. One trial steps on
/// one thread, so its hops per second are hops per second per core.
/// The headline `sim_hops_per_sec_per_core` is the median of five runs
/// at n = 32768: single samples at this trial length scatter 2x under
/// shared-CPU steal.
struct ScaleReport {
    rows: Vec<String>,
    sim_hops_per_sec_per_core: f64,
}

impl ScaleReport {
    fn json(&self) -> String {
        format!(
            "{{\"sim_hops_per_sec_per_core\":{:.0},\"rows\":[{}]}}",
            self.sim_hops_per_sec_per_core,
            self.rows.join(","),
        )
    }
}

fn bench_scale() -> ScaleReport {
    const SCALE_SIZES: [usize; 3] = [2048, 32768, 100_000];
    const SCALE_MESSAGES: usize = 1024;
    const MEDIAN_N: usize = 32768;
    const MEDIAN_REPS: usize = 5;

    let cfg_for = |n: usize| {
        let mut cfg = simbench::ScaleConfig::for_n(n);
        cfg.messages = SCALE_MESSAGES;
        cfg.churn = true;
        cfg
    };

    let rows = SCALE_SIZES
        .into_iter()
        .map(|n| {
            let r = simbench::sim_scale(&cfg_for(n));
            format!(
                concat!(
                    "{{\"n\":{},\"delivered\":{},\"hops\":{},\"fingerprint\":\"{:016x}\",",
                    "\"provision_ms\":{:.1},\"elapsed_ms\":{:.1},\"hops_per_sec\":{:.0}}}"
                ),
                r.n,
                r.delivered,
                r.hops,
                r.fingerprint,
                r.provision_ns as f64 / 1e6,
                r.elapsed_ns as f64 / 1e6,
                r.hops_per_sec(),
            )
        })
        .collect();

    // The gated figure: the median run phase of five identical trials.
    let mut elapsed: Vec<u64> = Vec::new();
    let mut hops = 0u64;
    for _ in 0..MEDIAN_REPS {
        let r = simbench::sim_scale(&cfg_for(MEDIAN_N));
        hops = r.hops;
        elapsed.push(r.elapsed_ns);
    }
    elapsed.sort_unstable();
    let median_ns = elapsed[MEDIAN_REPS / 2] as f64;
    let sim_hops_per_sec_per_core = if median_ns > 0.0 {
        hops as f64 * 1e9 / median_ns
    } else {
        0.0
    };

    ScaleReport {
        rows,
        sim_hops_per_sec_per_core,
    }
}

fn bench_sim() -> SimReport {
    const N: usize = 128;
    const K: u32 = 32;
    const MESSAGES: usize = 4096;
    const SEED: u64 = 42;

    // One engine run is only a few milliseconds — far too short for a
    // single sample to resist shared-CPU steal (observed 2x spread run
    // to run, which a 25% regression gate cannot absorb). Mirror
    // `measure_ns`: the first run warms up and supplies the
    // deterministic counters, then the median elapsed over nine more
    // runs is the timing estimate. The legacy side below already gets
    // the same treatment inside `measure_ns` itself.
    let real = simbench::sim_throughput(N, K, MESSAGES, SEED, Alg1);
    let mut engine_runs: Vec<u64> = (0..9)
        .map(|_| simbench::sim_throughput(N, K, MESSAGES, SEED, Alg1).elapsed_ns)
        .collect();
    engine_runs.sort_unstable();
    let engine_ns = engine_runs[engine_runs.len() / 2] as f64;
    let sim_hops_per_sec = if engine_ns > 0.0 {
        real.hops as f64 * 1e9 / engine_ns
    } else {
        0.0
    };
    let routes = simbench::sim_routes(N, K, MESSAGES, SEED, Alg1);

    // Persistent per-node views, as the old simulator's nodes held them
    // (provisioning was never the hot path; it stays untimed).
    let g = generators::random_connected(N, N / 2, &mut DetRng::seed_from_u64(SEED));
    let views: Vec<LocalView> = g.nodes().map(|u| LocalView::extract(&g, u, K)).collect();

    let legacy_ns = measure_ns(|| {
        let mut acc = 0usize;
        // The heap tuple the old scheduler boxed per hop.
        type Hop = (u32, NodeId, Option<NodeId>, u32);
        let mut events: Vec<Hop> = Vec::new();
        let mut sched: BTreeMap<u64, Vec<Hop>> = BTreeMap::new();
        let mut tick = 0u64;
        for (mi, (t, path)) in routes.iter().enumerate() {
            let mut seen: BTreeSet<(NodeId, Option<NodeId>)> = BTreeSet::new();
            let Some((_, deciders)) = path.split_last() else {
                continue;
            };
            let mut prev: Option<NodeId> = None;
            for &u in deciders {
                // Old scheduler: push the arrival struct into the tick
                // map, then drain the earliest tick (ordered-map probe
                // plus node deallocation, once per hop).
                sched
                    .entry(tick + 1)
                    .or_default()
                    .push((mi as u32, u, prev, 0));
                if let Some((&t0, _)) = sched.first_key_value() {
                    tick = t0;
                    if let Some(q) = sched.remove(&t0) {
                        events = q;
                        acc += events.len();
                    }
                }
                // Old loop detection: tree-set insert per hop.
                seen.insert((u, prev));
                // Old forwarding decision: a fresh shortest-step BFS
                // through the stored view, recomputed on every hop.
                let view = &views[u.index()];
                let step = traversal::shortest_path_steps(view.raw(), u, *t)
                    .into_iter()
                    .min_by_key(|&x| view.label(x));
                acc += step.map_or(0, |x| x.index());
                prev = Some(u);
            }
            acc += seen.len();
        }
        black_box(events.len());
        acc
    });
    let legacy_sim_hops_per_sec = if legacy_ns > 0.0 {
        real.hops as f64 * 1e9 / legacy_ns
    } else {
        0.0
    };

    // End-to-end trial throughput through the parallel driver: eight
    // independent (seed, n=64) sims, build and drain included.
    let trial_seeds: Vec<u64> = (0..8).collect();
    let batch_ns = measure_ns(|| {
        let done = driver::run_trials(&trial_seeds, driver::default_threads(), |_, &s| {
            simbench::sim_throughput(64, 16, 256, SEED + s, Alg1).delivered
        });
        done.iter().sum::<usize>()
    });
    let sim_trials_per_sec = if batch_ns > 0.0 {
        trial_seeds.len() as f64 * 1e9 / batch_ns
    } else {
        0.0
    };

    // Cost of an attached-but-disabled recorder on the identical
    // workload (an off recorder is dropped at build time, so this
    // pins the zero-cost claim end to end). The machine noise here is
    // heavy-tailed bursts (shared-CPU steal), so min-of-N never
    // converges; instead: hundreds of short back-to-back pairs —
    // most land between bursts, the rest are outliers — order
    // alternated per pair, and the median per-pair ratio as the
    // estimate (empirically stable to well under 1% where single
    // ratios scatter by 25%). `scripts/verify.sh` gates the result
    // at <= 2%.
    const OVERHEAD_MESSAGES: usize = MESSAGES / 4;
    let mut ratios: Vec<f64> = Vec::new();
    for rep in 0..301 {
        let bare_run = || simbench::sim_throughput(N, K, OVERHEAD_MESSAGES, SEED, Alg1);
        let off_run = || {
            simbench::sim_throughput_traced(N, K, OVERHEAD_MESSAGES, SEED, Alg1, {
                Some(Recorder::off())
            })
            .0
        };
        let (bare, off) = if rep % 2 == 0 {
            let b = bare_run();
            (b, off_run())
        } else {
            let o = off_run();
            (bare_run(), o)
        };
        if bare.elapsed_ns > 0 {
            ratios.push(off.elapsed_ns as f64 / bare.elapsed_ns as f64);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let sim_trace_overhead_pct = ratios
        .get(ratios.len() / 2)
        .map_or(0.0, |mid| (mid - 1.0) * 100.0);

    SimReport {
        n: N,
        k: K,
        messages: real.messages,
        hops: real.hops,
        sim_hops_per_sec,
        legacy_sim_hops_per_sec,
        driver_threads: driver::default_threads(),
        sim_trials_per_sec,
        sim_trace_overhead_pct,
    }
}

/// The oracle artifact tier: precompute every node's view offline,
/// then time a simulator boot that decodes blobs against one that runs
/// n k-bounded BFS extractions. "Cold start" means every node's view
/// materialized **and** routing-ready — the min-label first-step table
/// forced — which is exactly what a freshly provisioned network needs
/// before its first tick. The artifact stores that table, so the
/// oracle boot replaces n BFS-extract + n step-table BFS passes with n
/// varint decodes.
struct OracleReport {
    n: usize,
    k: u32,
    artifact_bytes: usize,
    bfs_cold_start_ns: f64,
    oracle_cold_start_ns: f64,
    oracle_load_ns: f64,
}

impl OracleReport {
    fn speedup(&self) -> f64 {
        if self.oracle_cold_start_ns == 0.0 {
            return 0.0;
        }
        self.bfs_cold_start_ns / self.oracle_cold_start_ns
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n\":{},\"k\":{},\"artifact_bytes\":{},\"bfs_cold_start_ns\":{:.0},",
                "\"oracle_cold_start_ns\":{:.0},\"oracle_load_ns\":{:.0},",
                "\"oracle_cold_start_speedup\":{:.2}}}"
            ),
            self.n,
            self.k,
            self.artifact_bytes,
            self.bfs_cold_start_ns,
            self.oracle_cold_start_ns,
            self.oracle_load_ns,
            self.speedup(),
        )
    }
}

fn bench_oracle() -> OracleReport {
    const N: usize = 2048;
    const K: u32 = 8;
    let g = generators::random_connected(N, N / 8, &mut DetRng::seed_from_u64(42));
    let artifact = Arc::new(ViewArtifact::build(&g, K));
    let bytes = artifact.as_bytes().to_vec();

    // Parity before timing: a sample of decoded views must be
    // indistinguishable from fresh BFS extractions.
    for u in g.nodes().step_by(211) {
        let bfs = LocalView::extract(&g, u, K);
        let dec = artifact.decode_view(u).expect("artifact covers every node");
        assert_eq!(bfs.fingerprint(), dec.fingerprint(), "view parity at {u}");
        assert_eq!(
            bfs.shortest_step_toward(NodeId(0)),
            dec.shortest_step_toward(NodeId(0)),
            "step parity at {u}"
        );
    }

    let bfs_cold_start_ns = measure_ns(|| {
        let views = ViewStore::new(&g, K);
        let mut acc = 0usize;
        for u in g.nodes() {
            let v = views.view(&g, u);
            // Forces the step-table BFS — the routing-ready cost a
            // boot pays on the first forwarded message per node.
            acc += v.shortest_step_toward(u).map_or(1, |x| x.index());
        }
        acc
    });
    let oracle_cold_start_ns = measure_ns(|| {
        let a = match ViewArtifact::from_bytes(bytes.clone()) {
            Ok(a) => Arc::new(a),
            Err(e) => unreachable!("artifact round-trips its own bytes: {e}"),
        };
        let views = ViewStore::from_artifact(a);
        let mut acc = 0usize;
        for u in g.nodes() {
            let v = views.view(&g, u);
            acc += v.shortest_step_toward(u).map_or(1, |x| x.index());
        }
        acc
    });
    let oracle_load_ns = measure_ns(|| match ViewArtifact::from_bytes(bytes.clone()) {
        Ok(a) => a.node_count() as usize,
        Err(e) => unreachable!("artifact round-trips its own bytes: {e}"),
    });

    OracleReport {
        n: N,
        k: K,
        artifact_bytes: bytes.len(),
        bfs_cold_start_ns,
        oracle_cold_start_ns,
        oracle_load_ns,
    }
}

/// The streaming trace-analytics probe: median throughput of the
/// `tracecat stats` engine (chunked reader → witness fold → per-trial
/// aggregation) over an in-memory synthetic corpus. In-memory input
/// and a fixed seed make the figure a pure function of the analysis
/// hot path — no disk, no generation cost (the corpus is materialized
/// once, untimed) — so `scripts/verify.sh` can gate it at the same
/// 25% band as the other throughput figures.
struct TracecatReport {
    corpus_bytes: usize,
    witnesses: u64,
    tracecat_mb_per_sec: f64,
}

impl TracecatReport {
    fn json(&self) -> String {
        format!(
            "{{\"corpus_bytes\":{},\"witnesses\":{},\"tracecat_mb_per_sec\":{:.1}}}",
            self.corpus_bytes, self.witnesses, self.tracecat_mb_per_sec,
        )
    }
}

fn bench_tracecat() -> TracecatReport {
    use std::io::Read as _;
    // ~8 MB: big enough that per-pass fixed costs vanish, small enough
    // that measure_ns's nine batches stay under a second.
    const TRIALS: u64 = 4;
    const MSGS: u64 = 2_500;
    let mut corpus = Vec::new();
    SynthTrace::new(TRIALS, MSGS, 7)
        .read_to_end(&mut corpus)
        .expect("synthetic generation is infallible");

    // Parity before timing: the corpus must stream cleanly and produce
    // the expected population, and the rendering must be non-trivial.
    let mut check = StatsMode::new();
    let report = run_mode(&corpus[..], DEFAULT_BUF_BYTES, TailMode::Strict, &mut check)
        .expect("synthetic corpus streams cleanly");
    assert_eq!(report.trials, TRIALS, "tracecat probe trials");
    assert_eq!(report.witnesses, TRIALS * MSGS, "tracecat probe witnesses");
    assert!(check.render(&report).contains("## trials"));

    let ns = measure_ns(|| {
        let mut mode = StatsMode::new();
        let rep = match run_mode(&corpus[..], DEFAULT_BUF_BYTES, TailMode::Strict, &mut mode) {
            Ok(r) => r,
            Err(e) => unreachable!("parity-checked corpus failed to stream: {e}"),
        };
        black_box(rep.witnesses)
    });
    let tracecat_mb_per_sec = if ns > 0.0 {
        corpus.len() as f64 * 1e9 / ns / (1024.0 * 1024.0)
    } else {
        0.0
    };
    TracecatReport {
        corpus_bytes: corpus.len(),
        witnesses: TRIALS * MSGS,
        tracecat_mb_per_sec,
    }
}

/// A fixed-seed mini chaos soak (Algorithm 1 under churn, loss, stale
/// views, and retries — the `chaos` binary's fault model at n=32), so
/// the perf-smoke JSON also tracks robustness alongside speed.
fn chaos_delivery_ratio() -> f64 {
    use local_routing::LocalRouter;
    use locality_sim::{
        ChurnConfig, DeadLinkPolicy, FaultConfig, FaultPlan, LinkProfile, NetworkBuilder,
    };
    let g = generators::random_connected(32, 16, &mut DetRng::seed_from_u64(7));
    let plan = FaultPlan::random_churn(&g, &ChurnConfig::default(), &mut DetRng::seed_from_u64(8));
    let cfg = FaultConfig {
        dead_link: DeadLinkPolicy::Drop,
        view_delay: 2,
        default_link: LinkProfile {
            loss: 0.03,
            extra_latency: 0,
        },
        timeout: Some(128),
        max_retries: 3,
        backoff: 32,
        seed: 9,
        ..Default::default()
    };
    let mut net = NetworkBuilder::new(&g, Alg1.min_locality(32))
        .faults(cfg)
        .fault_plan(plan)
        .build(Alg1);
    let mut traffic = DetRng::seed_from_u64(10);
    for _ in 0..4 {
        for _ in 0..16 {
            let s = NodeId(traffic.gen_range(0..32u32));
            let t = NodeId(traffic.gen_range(0..32u32));
            if s != t {
                net.send(s, t);
            }
        }
        net.run_until(net.now() + 40);
    }
    net.run_until_quiet();
    let m = net.metrics();
    assert!(
        m.accounted(),
        "chaos smoke: metrics must account for every message"
    );
    m.delivery_ratio()
}

/// Unsuppressed `locality-lint` violations in the workspace plus the
/// wall-clock cost of the full lint pass in milliseconds, so the
/// perf-smoke JSON also records static-invariant health and keeps the
/// analyzer honest about its own latency budget ((-1, 0) when the
/// source tree is not available, e.g. an installed binary).
fn lint_violations() -> (i64, u64) {
    let start = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = locality_lint::walk::find_workspace_root(start) else {
        return (-1, 0);
    };
    let (result, wall_ms) = timing::time_once_ms(|| locality_lint::lint_workspace(&root));
    match result {
        Ok(report) => (report.violations.len() as i64, wall_ms),
        Err(_) => (-1, 0),
    }
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut level = Level::Hops;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = args.next(),
            "--trace-level" => {
                if let Some(l) = args.next().as_deref().and_then(Level::from_name) {
                    level = l;
                }
            }
            _ => {}
        }
    }
    if let Some(path) = &trace_out {
        // An untimed traced pass over the sim workload, so the smoke
        // run leaves a replayable witness trail next to its JSON.
        let (_, trace) =
            simbench::sim_throughput_traced(128, 32, 4096, 42, Alg1, Some(Recorder::new(level)));
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("perfsmoke: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
    let sizes: Vec<SizeReport> = [32, 64, 128].into_iter().map(bench_size).collect();
    let body: Vec<String> = sizes.iter().map(SizeReport::json).collect();
    let sim = bench_sim();
    let scale = bench_scale();
    let oracle = bench_oracle();
    let tracecat = bench_tracecat();
    let (lint, lint_wall_ms) = lint_violations();
    let chaos_ratio = chaos_delivery_ratio();
    // The overload capacity figure: highest seed-7 churn rate whose
    // admitted traffic still meets the SLO (p99 and delivery ratio),
    // converted to messages per second of wall clock. Gated against
    // BENCH_perfsmoke.json at 25% like the speedups.
    let (qps, capacity_rate_milli, capacity_p99) = loadgen::sustained_qps_at_slo(7);
    println!(
        concat!(
            "{{\"bench\":\"perfsmoke\",\"graph\":\"random_connected\",\"router\":\"algorithm-1\",",
            "\"sizes\":[{}],\"sim\":{},\"scale\":{},\"oracle\":{},\"tracecat\":{},\"lint_violations\":{},\"lint_wall_ms\":{},\"chaos_delivery_ratio\":{:.4},",
            "\"loadgen\":{{\"sustained_qps_at_slo\":{:.0},\"capacity_rate_milli\":{},\"capacity_p99\":{}}},",
            "\"note\":\"legacy = pre-refactor tree-map data model, equivalence-checked; ",
            "legacy delivery matrix replays the engine's exact routes on the old ",
            "structures and omits passive-case lookups, so speedups are lower bounds; ",
            "sim replays the simulator's exact hop sequence against the old ",
            "BTreeMap scheduler, tree-set loop detection, and uncached per-hop BFS\"}}"
        ),
        body.join(","),
        sim.json(),
        scale.json(),
        oracle.json(),
        tracecat.json(),
        lint,
        lint_wall_ms,
        chaos_ratio,
        qps,
        capacity_rate_milli,
        capacity_p99,
    );
    assert!(
        lint == 0,
        "locality-lint reports {lint} unsuppressed violation(s); run `cargo run -p locality-lint`"
    );
    assert!(
        lint_wall_ms < 2000,
        "locality-lint took {lint_wall_ms} ms; the whole-workspace pass must stay under 2000 ms"
    );
    let last = sizes.last().expect("three sizes");
    assert!(
        last.speedup() >= 2.0,
        "delivery matrix speedup at n=128 is {:.2}x, expected >= 2x",
        last.speedup()
    );
    assert!(
        sim.speedup() >= 3.0,
        "simulator speedup at n=128 is {:.2}x, expected >= 3x",
        sim.speedup()
    );
    assert!(
        oracle.speedup() >= 3.0,
        "oracle cold-start speedup at n=2048 is {:.2}x, expected >= 3x",
        oracle.speedup()
    );
    assert!(
        scale.sim_hops_per_sec_per_core > 0.0 && scale.rows.len() == 3,
        "scale sweep must land a per-core figure and all three rows"
    );
    assert!(
        qps > 0.0 && capacity_rate_milli > 0,
        "loadgen found no churn rate meeting the SLO (qps {qps:.0}, rate {capacity_rate_milli})"
    );
    assert!(
        tracecat.tracecat_mb_per_sec > 0.0,
        "tracecat probe produced no throughput figure"
    );
}
