//! Perf smoke test: one line of JSON with the absolute timings of the
//! hot paths that exist.
//!
//! - `sizes`: view extraction, preprocessing and a full Algorithm 1
//!   delivery matrix on `random_connected(n, n/2)` at n ∈ {32, 64, 128},
//!   k = n/4;
//! - `sim`: simulator hops per second at n = 128, trials per second
//!   through the parallel driver, and the cost of an attached-but-off
//!   recorder;
//! - `scale`: hops per second per core of the n = 32768 ring-lattice
//!   churn trial;
//! - `oracle`: cold start from a `.lrvo` artifact against BFS
//!   provisioning at n = 2048;
//! - `tracecat`: `stats` throughput over an in-memory synthetic trace;
//! - `loadgen`: wall-clock queries per second at the SLO;
//! - lint findings and the chaos smoke's delivery ratio.
//!
//! The binary asserts correctness only: view and step parity of the
//! artifact, the tracecat probe's population, chaos accounting and zero
//! lint findings. `scripts/verify.sh` gates the timings against the
//! spread of the runs recorded in `BENCH_perfsmoke.json`.
//!
//! `--trace-out PATH` also writes the JSONL trace of one untimed pass
//! over the `sim` workload (level from `--trace-level`, default `hops`).
//!
//! A reader that exits first (`perfsmoke | head`) does not cut the
//! correctness asserts short, and ends the program with status 0; any
//! other write error prints `error: …` and exits 1.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::Arc;

use local_routing::{engine, Alg1, LocalView, ViewArtifact, ViewStore};
use locality_bench::loadgen;
use locality_bench::simbench;
use locality_bench::timing;
use locality_bench::timing::{black_box, measure_ns};
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::synth::SynthTrace;
use locality_obs::analytics::{run_mode, Mode as _, TailMode, DEFAULT_BUF_BYTES};
use locality_sim::{driver, Level, Recorder};

const USAGE: &str = "usage: perfsmoke [--trace-out PATH] [--trace-level off|metrics|hops|debug]";

fn fail(msg: &str) -> ! {
    eprintln!("perfsmoke: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(1);
}

struct SizeReport {
    n: usize,
    k: u32,
    extract_ns: f64,
    preprocess_ns: f64,
    delivery_matrix_ns: f64,
}

impl SizeReport {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n\":{},\"k\":{},\"extract_ns\":{:.0},\"preprocess_ns\":{:.0},",
                "\"delivery_matrix_ns\":{:.0}}}"
            ),
            self.n, self.k, self.extract_ns, self.preprocess_ns, self.delivery_matrix_ns,
        )
    }
}

fn bench_size(n: usize) -> SizeReport {
    let k = (n / 4) as u32;
    let mut rng = DetRng::seed_from_u64(42);
    let g = generators::random_connected(n, n / 2, &mut rng);

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

    // The delivery matrix: all (s, t) pairs through Algorithm 1 with
    // the shared view store (per-node preprocessing included).
    let delivery_matrix_ns = measure_ns(|| {
        let m = engine::delivery_matrix(&g, k, &Alg1);
        black_box(m.runs + m.total_hops)
    });

    SizeReport {
        n,
        k,
        extract_ns,
        preprocess_ns: (pipeline_ns - extract_ns).max(0.0),
        delivery_matrix_ns,
    }
}

/// The simulator throughput section: hops per second of the engine
/// (timing wheel, arrival slab, route-sized loop state, memoized step
/// tables) on a fixed-seed workload, trials per second through the
/// parallel driver, and the overhead of an attached-but-off recorder.
struct SimReport {
    n: usize,
    k: u32,
    messages: usize,
    hops: u64,
    sim_hops_per_sec: f64,
    driver_threads: usize,
    sim_trials_per_sec: f64,
    sim_trace_overhead_pct: f64,
}

impl SimReport {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"n\":{},\"k\":{},\"messages\":{},\"hops\":{},",
                "\"sim_hops_per_sec\":{:.0},\"driver_threads\":{},",
                "\"sim_trials_per_sec\":{:.2},\"sim_trace_overhead_pct\":{:.2}}}"
            ),
            self.n,
            self.k,
            self.messages,
            self.hops,
            self.sim_hops_per_sec,
            self.driver_threads,
            self.sim_trials_per_sec,
            self.sim_trace_overhead_pct,
        )
    }
}

/// The scale headline `sim_hops_per_sec_per_core`: the `k = 1` greedy
/// ring-lattice churn trial at n = 32768, the median run phase of five
/// identical trials. One trial steps on one thread, so its hops per
/// second are hops per second per core; single samples at this trial
/// length scatter 2x under shared-CPU steal. `simbench --scale-smoke`
/// prints the per-n rows and their fingerprints.
fn bench_scale() -> f64 {
    const REPS: usize = 5;
    let cfg = simbench::ScaleConfig {
        n: 32768,
        messages: 1024,
    };

    let mut elapsed: Vec<u64> = Vec::new();
    let mut hops = 0u64;
    for _ in 0..REPS {
        let r = simbench::sim_scale(&cfg);
        hops = r.hops;
        elapsed.push(r.elapsed_ns);
    }
    elapsed.sort_unstable();
    let median_ns = elapsed[REPS / 2] as f64;
    if median_ns > 0.0 {
        hops as f64 * 1e9 / median_ns
    } else {
        0.0
    }
}

fn bench_sim() -> SimReport {
    const N: usize = 128;
    const K: u32 = 32;
    const MESSAGES: usize = 4096;
    const SEED: u64 = 42;

    // One engine run is only a few milliseconds — far too short for a
    // single sample to resist shared-CPU steal (observed 2x spread run
    // to run). Mirror `measure_ns`: the first run warms up and supplies
    // the deterministic counters, then the median elapsed over nine
    // more runs is the timing estimate.
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
/// once, untimed) — so `scripts/verify.sh` can gate it against its
/// recorded spread.
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
    let (result, wall_ns) = timing::time_once_ns(|| locality_lint::lint_workspace(&root));
    match result {
        Ok(report) => (report.violations.len() as i64, wall_ns / 1_000_000),
        Err(_) => (-1, 0),
    }
}

fn main() -> ExitCode {
    let mut trace_out: Option<String> = None;
    let mut level = Level::Hops;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => fail("--trace-out needs a path"),
            },
            "--trace-level" => match args.next() {
                Some(v) => match Level::from_name(&v) {
                    Some(l) => level = l,
                    None => fail(&format!("unknown trace level '{v}'")),
                },
                None => fail("--trace-level needs a value"),
            },
            // The end-of-options marker a `cargo run --` habit pastes in.
            "--" => {}
            other => fail(&format!("unknown flag '{other}'")),
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
    let sizes: Vec<String> = [32, 64, 128]
        .into_iter()
        .map(|n| bench_size(n).json())
        .collect();
    let sim = bench_sim();
    let sim_hops_per_sec_per_core = bench_scale();
    let oracle = bench_oracle();
    let tracecat = bench_tracecat();
    let (lint, lint_wall_ms) = lint_violations();
    let chaos_ratio = chaos_delivery_ratio();
    // The overload capacity figure: highest seed-7 churn rate whose
    // admitted traffic still meets the SLO (p99 and delivery ratio),
    // converted to messages per second of wall clock.
    let (qps, capacity_rate_milli, capacity_p99) = loadgen::sustained_qps_at_slo(7);
    let mut out = std::io::stdout().lock();
    let written = writeln!(
        out,
        concat!(
            "{{\"bench\":\"perfsmoke\",\"graph\":\"random_connected\",\"router\":\"algorithm-1\",",
            "\"sizes\":[{}],\"sim\":{},\"scale\":{{\"sim_hops_per_sec_per_core\":{:.0}}},",
            "\"oracle\":{},\"tracecat\":{},\"lint_violations\":{},\"lint_wall_ms\":{},",
            "\"chaos_delivery_ratio\":{:.4},",
            "\"loadgen\":{{\"sustained_qps_at_slo\":{:.0},\"capacity_rate_milli\":{},\"capacity_p99\":{}}}}}"
        ),
        sizes.join(","),
        sim.json(),
        sim_hops_per_sec_per_core,
        oracle.json(),
        tracecat.json(),
        lint,
        lint_wall_ms,
        chaos_ratio,
        qps,
        capacity_rate_milli,
        capacity_p99,
    )
    .and_then(|()| out.flush());
    assert!(
        lint == 0,
        "locality-lint reports {lint} unsuppressed violation(s); run `cargo run -p locality-lint`"
    );
    assert!(
        lint_wall_ms < 2000,
        "locality-lint took {lint_wall_ms} ms; the whole-workspace pass must stay under 2000 ms"
    );
    assert!(
        sim_hops_per_sec_per_core > 0.0,
        "scale trial produced no per-core figure"
    );
    assert!(
        qps > 0.0 && capacity_rate_milli > 0,
        "loadgen found no churn rate meeting the SLO (qps {qps:.0}, rate {capacity_rate_milli})"
    );
    assert!(
        tracecat.tracecat_mb_per_sec > 0.0,
        "tracecat probe produced no throughput figure"
    );
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
