//! Per-layer metrics of the traced run.
//!
//! [`from_spans`] turns the spans a workload's own loop recorded into
//! layer metrics. The probes then measure, on the workload's own input,
//! every layer its loop does not exercise, so that each traced run
//! reports the full per-layer list. [`Report::layer`] keeps the first
//! value of a name, so the loop's own figures win over a probe's.

use std::time::Instant;

use local_routing::{engine, LocalRouter, LocalView, ViewArtifact};
use locality_graph::{generators, Graph, NodeId};
use locality_sim::{Level, NetworkBuilder, Recorder};

use crate::outcome::SimOutcome;
use crate::report::Report;
use crate::spans::{self, Span};
use crate::timed::Timed;
use crate::util::{loglog_slope, median};
use crate::{alloc, ring, soak};

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const NAMES: [&str; 31] = [
    "view.extract_us",
    "view.extract_share",
    "view.extract_slope",
    "view.nodes",
    "view.resident_kib",
    "view.step_table_us",
    "preprocess.us",
    "preprocess.dormant_edges",
    "router.decide_ns",
    "router.decide_calls",
    "engine.self_ns_per_hop",
    "sim.build_us_per_node",
    "sim.self_ns_per_hop",
    "sim.hop_slope",
    "sim.msg_kib",
    "sim.retries",
    "sim.faults_applied",
    "admission.rejected",
    "admission.shed",
    "driver.busy_ratio",
    "oracle.load_ms",
    "oracle.decode_us",
    "oracle.bytes_per_view",
    "oracle.build_s",
    "obs.trace_bytes_per_hop",
    "obs.finish_trace_ms",
    "analytics.stats_mb_per_s",
    "analytics.loops_mb_per_s",
    "analyze_mb_per_s",
    "latency_p99_ticks",
    "trace.overhead_pct",
];

/// Work counts the spans cannot know.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Hops executed under `sim.run` or `engine.matrix` spans.
    pub hops: u64,
    /// Nodes provisioned under `sim.build` spans.
    pub nodes_built: u64,
    /// Trace bytes produced under `obs.finish_trace` spans (each read
    /// once by `analytics.stats` and once by `analytics.loops`).
    pub trace_bytes: u64,
    /// Worker threads the trials were spread over.
    pub workers: u64,
}

fn mean_ns(spans: &[Span], name: &str) -> Option<f64> {
    let (ns, n) = spans::total(spans, name);
    (n > 0).then(|| ns as f64 / n as f64)
}

/// Layer metrics from the spans of a workload's measured loop.
pub fn from_spans(rep: &mut Report, sp: &[Span], w: Work) {
    let (decide_ns, calls) = spans::decide_totals(sp);
    if calls > 0 {
        rep.layer("router.decide_ns", decide_ns as f64 / calls as f64, "ns");
        rep.layer("router.decide_calls", calls as f64, "count");
    }
    let (build_ns, builds) = spans::total(sp, "sim.build");
    if builds > 0 && w.nodes_built > 0 {
        rep.layer(
            "sim.build_us_per_node",
            build_ns as f64 / 1e3 / w.nodes_built as f64,
            "us",
        );
    }
    if w.hops > 0 {
        for (span, metric) in [
            ("sim.run", "sim.self_ns_per_hop"),
            ("engine.matrix", "engine.self_ns_per_hop"),
        ] {
            if spans::total(sp, span).1 > 0 {
                rep.layer(
                    metric,
                    spans::total_self_time(sp, span) as f64 / w.hops as f64,
                    "ns",
                );
            }
        }
    }
    if let Some(ns) = mean_ns(sp, "oracle.load") {
        rep.layer("oracle.load_ms", ns / 1e6, "ms");
    }
    if let Some(ns) = mean_ns(sp, "oracle.build") {
        rep.layer("oracle.build_s", ns / 1e9, "s");
    }
    if let Some(ns) = mean_ns(sp, "obs.finish_trace") {
        rep.layer("obs.finish_trace_ms", ns / 1e6, "ms");
        if w.hops > 0 {
            rep.layer(
                "obs.trace_bytes_per_hop",
                w.trace_bytes as f64 / w.hops as f64,
                "B",
            );
        }
    }
    let (stats_ns, _) = spans::total(sp, "analytics.stats");
    let (loops_ns, _) = spans::total(sp, "analytics.loops");
    if stats_ns > 0 && loops_ns > 0 {
        let mib = w.trace_bytes as f64 / (1024.0 * 1024.0);
        rep.layer(
            "analytics.stats_mb_per_s",
            mib / (stats_ns as f64 / 1e9),
            "MiB/s",
        );
        rep.layer(
            "analytics.loops_mb_per_s",
            mib / (loops_ns as f64 / 1e9),
            "MiB/s",
        );
        rep.layer(
            "analyze_mb_per_s",
            2.0 * mib / ((stats_ns + loops_ns) as f64 / 1e9),
            "MiB/s",
        );
    }
    let (batch_ns, batches) = spans::total(sp, "driver.batch");
    let (trial_ns, _) = spans::total(sp, "driver.trial");
    if batches > 0 && w.workers > 0 {
        rep.layer(
            "driver.busy_ratio",
            trial_ns as f64 / (w.workers as f64 * batch_ns as f64),
            "ratio",
        );
    }
}

/// The share of a network boot spent extracting views: per-view
/// extraction time over build time per node.
pub fn extract_share(rep: &mut Report) {
    if let (Some(x), Some(b)) = (rep.get("view.extract_us"), rep.get("sim.build_us_per_node")) {
        rep.layer("view.extract_share", x / b, "ratio");
    }
}

/// Deterministic simulator counts and latency of one outcome.
pub fn sim_counts(rep: &mut Report, out: &SimOutcome) {
    let m = &out.metrics;
    rep.layer("sim.retries", m.retries as f64, "count");
    rep.layer("sim.faults_applied", m.faults_applied as f64, "count");
    rep.layer("admission.rejected", m.rejected as f64, "count");
    rep.layer("admission.shed", m.shed as f64, "count");
    rep.layer("latency_p99_ticks", out.p99() as f64, "ticks");
}

/// `count` node ids spread evenly over `g`.
pub fn spread(g: &Graph, count: usize) -> Vec<NodeId> {
    let n = g.node_count();
    let count = count.min(n).max(1);
    (0..count).map(|i| NodeId((i * n / count) as u32)).collect()
}

/// Views and preprocessing on a node sample: extraction time, size and
/// resident bytes, then the first step-table query and the first
/// `routing_view()` on each fresh view.
pub fn views(rep: &mut Report, g: &Graph, k: u32, sample: &[NodeId]) {
    let mark = spans::mark();
    let mut kept: Vec<LocalView> = Vec::with_capacity(sample.len());
    let live0 = alloc::live_bytes();
    for &u in sample {
        let _s = spans::enter("view.extract", 0);
        kept.push(LocalView::extract(g, u, k));
    }
    let live1 = alloc::live_bytes();
    let mut dormant = 0usize;
    for v in &kept {
        let target = *v
            .raw()
            .node_slice()
            .last()
            .expect("a view holds its centre");
        let _s = spans::enter("view.step_table", 0);
        std::hint::black_box(v.shortest_step_toward(target));
    }
    for v in &kept {
        let _s = spans::enter("preprocess", 0);
        dormant += v.routing_view().dormant.len();
    }
    let sp = spans::since(mark);
    let per = kept.len().max(1) as f64;
    let nodes: usize = kept.iter().map(LocalView::node_count).sum();
    let resident = (live1 - live0) as f64 / per + std::mem::size_of::<LocalView>() as f64;
    rep.layer(
        "view.extract_us",
        mean_ns(&sp, "view.extract").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer("view.nodes", nodes as f64 / per, "count");
    rep.layer("view.resident_kib", resident / 1024.0, "KiB");
    rep.layer(
        "view.step_table_us",
        mean_ns(&sp, "view.step_table").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "preprocess.us",
        mean_ns(&sp, "preprocess").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer("preprocess.dormant_edges", dormant as f64 / per, "count");
}

/// The `.lrvo` artifact of `(g, k)`: build once, load five times,
/// decode a node sample. `prebuilt` reuses an artifact the workload
/// already built (its build time is then the workload's own span).
pub fn oracle(rep: &mut Report, g: &Graph, k: u32, sample: &[NodeId], prebuilt: Option<&[u8]>) {
    let mark = spans::mark();
    let bytes = match prebuilt {
        Some(b) => b.to_vec(),
        None => {
            let _s = spans::enter("oracle.build", 0);
            ViewArtifact::build(g, k).as_bytes().to_vec()
        }
    };
    let mut art = None;
    for _ in 0..5 {
        let _s = spans::enter("oracle.load", 0);
        art = Some(ViewArtifact::from_bytes(bytes.clone()).expect("artifact built just now"));
    }
    let art = art.expect("loaded five times");
    for &u in sample {
        let _s = spans::enter("oracle.decode", 0);
        std::hint::black_box(art.decode_view(u).expect("artifact built just now"));
    }
    let sp = spans::since(mark);
    if let Some(ns) = mean_ns(&sp, "oracle.build") {
        rep.layer("oracle.build_s", ns / 1e9, "s");
    }
    rep.layer(
        "oracle.load_ms",
        mean_ns(&sp, "oracle.load").unwrap_or(0.0) / 1e6,
        "ms",
    );
    rep.layer(
        "oracle.decode_us",
        mean_ns(&sp, "oracle.decode").unwrap_or(0.0) / 1e3,
        "us",
    );
    rep.layer(
        "oracle.bytes_per_view",
        bytes.len() as f64 / g.node_count() as f64,
        "B",
    );
}

/// One serial `delivery_matrix` on a small instance of the workload's
/// graph family: the engine's own cost per hop.
pub fn engine_probe<R: LocalRouter>(rep: &mut Report, g: &Graph, k: u32, router: &R) {
    let mark = spans::mark();
    let m = {
        let _s = spans::enter("engine.matrix", 0);
        engine::delivery_matrix(g, k, &Timed(router))
    };
    let sp = spans::since(mark);
    rep.check(m.all_delivered(), || {
        format!("engine probe: {} pairs undelivered", m.failures.len())
    });
    let hops = m.total_hops.max(1) as f64;
    rep.layer(
        "engine.self_ns_per_hop",
        spans::total_self_time(&sp, "engine.matrix") as f64 / hops,
        "ns",
    );
}

/// One serial recorded trial: boot `b`, send `traffic` in ring-style
/// batches, finish the trace and analyse it. Covers the simulator,
/// recorder and analytics layers on workloads whose loop does not.
pub fn sim_probe<R: LocalRouter + Send + Sync + 'static>(
    rep: &mut Report,
    b: NetworkBuilder,
    router: R,
    traffic: &[(NodeId, NodeId)],
    dist: impl Fn(NodeId, NodeId) -> u32,
) {
    let mark = spans::mark();
    let (nodes, hops, trace_bytes) = {
        let mut net = {
            let _s = spans::enter("sim.build", 0);
            b.recorder(Recorder::new(Level::Hops)).build(Timed(router))
        };
        let live0 = alloc::live_bytes();
        {
            let _s = spans::enter("sim.run", 0);
            ring::drive(&mut net, traffic);
        }
        let msg = (alloc::live_bytes() - live0) as f64 / traffic.len().max(1) as f64;
        rep.layer("sim.msg_kib", msg / 1024.0, "KiB");
        let out = SimOutcome::read(&net, dist);
        rep.check(out.metrics.accounted(), || {
            format!("sim probe: conservation broken: {:?}", out.metrics)
        });
        sim_counts(rep, &out);
        let trace = {
            let _s = spans::enter("obs.finish_trace", 0);
            net.finish_trace()
        };
        match soak::analyse_both(&trace, 0) {
            Ok((w, _)) => rep.check(w == out.metrics.sent as u64, || {
                format!(
                    "sim probe: tracecat saw {w} witnesses of {}",
                    out.metrics.sent
                )
            }),
            Err(e) => rep.violations.push(format!("sim probe: {e}")),
        }
        (net.node_count() as u64, out.hops, trace.len() as u64)
    };
    let work = Work {
        hops,
        nodes_built: nodes,
        trace_bytes,
        workers: 0,
    };
    from_spans(rep, &spans::since(mark), work);
}

/// The slope-gate probe: per-view extraction cost and simulator self
/// time per hop on `ring_lattice(n, 8)` for the three `sizes`, and
/// their log-log slopes (1.0 = cost grows linearly with n; the target
/// is flat). The points behind each slope go to standard error.
pub fn scaling(rep: &mut Report, seed: u64, sizes: [usize; 3]) {
    let mut extract = Vec::new();
    let mut hop = Vec::new();
    for &n in &sizes {
        let cfg = ring::RingCfg {
            n,
            messages: 256,
            ..ring::RingCfg::full()
        };
        let g = generators::ring_lattice(n, ring::CHORDS);
        let times: Vec<f64> = spread(&g, 64)
            .into_iter()
            .map(|u| {
                let t = Instant::now();
                std::hint::black_box(LocalView::extract(&g, u, 1));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        extract.push((n as f64, median(&times)));
        let mut net = ring::builder(&g, seed)
            .build(Timed(local_routing::baselines::RingGreedy::new(n as u32)));
        let traffic = ring::traffic(&cfg, seed);
        let mark = spans::mark();
        {
            let _s = spans::enter("sim.run", 0);
            ring::drive(&mut net, &traffic);
        }
        let out = SimOutcome::read(&net, |s, t| ring::ring_dist(n, s, t));
        let self_ns = spans::total_self_time(&spans::since(mark), "sim.run");
        hop.push((n as f64, self_ns as f64 / out.hops.max(1) as f64));
    }
    for ((n, x), (_, h)) in extract.iter().zip(&hop) {
        eprintln!("perfbench: scaling n={n}: extract {x:.3} us/view, sim self {h:.1} ns/hop");
    }
    rep.layer("view.extract_slope", loglog_slope(&extract), "exponent");
    rep.layer("sim.hop_slope", loglog_slope(&hop), "exponent");
}

/// Tracing overhead: `work(traced)` runs a representative slice of the
/// workload and returns its wall seconds; five alternating pairs, the
/// traced median over the untraced median, minus one, in percent. Spans
/// and allocation counting are both off in the untraced half.
pub fn overhead(rep: &mut Report, mut work: impl FnMut(bool) -> f64) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..5 {
        for traced in [i % 2 == 0, i % 2 == 1] {
            if traced {
                spans::enable();
                alloc::enable();
                on.push(work(true));
            } else {
                spans::disable();
                alloc::disable();
                off.push(work(false));
            }
        }
    }
    spans::enable();
    alloc::enable();
    rep.layer(
        "trace.overhead_pct",
        (median(&on) / median(&off) - 1.0) * 100.0,
        "%",
    );
}
