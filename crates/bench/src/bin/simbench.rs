//! Simulator hop-throughput snapshot at n ∈ {128, 512, 2048}, plus a
//! sharded scale sweep at n ∈ {2048, 32768, 100000, 1000000}.
//!
//! One line of JSON per size: delivered-hop throughput of the
//! zero-fault simulator with Algorithm 1 at its threshold locality
//! k = ⌈n/4⌉ (every target visible, every message delivered — the
//! routed work is identical before and after any scheduler change).
//! Feeds the before/after table in `EXPERIMENTS.md`.
//!
//! The scale sweep runs the `k = 1` greedy ring-lattice workload under
//! churn at shard counts 1 and 4, asserting the outcome fingerprints
//! match — sharding must never change results, only wall-clock — and
//! reports `hops_per_sec_per_core` per row. `--scale-smoke` shrinks
//! the sweep's traffic for CI; `--skip-scale` drops it entirely.
//!
//! `--trace-out PATH` additionally re-runs each size with a recorder
//! attached (level from `--trace-level`, default `metrics`) and writes
//! the concatenated JSONL traces. The traced re-runs are separate so
//! that the printed throughput numbers always time the untraced
//! configuration.

use local_routing::{Alg1, LocalRouter};
use locality_bench::simbench::{sim_scale, sim_throughput, sim_throughput_traced, ScaleConfig};
use locality_sim::{driver, Level, Recorder};

const MESSAGES: usize = 4096;
const SEED: u64 = 42;
const SIZES: [usize; 3] = [128, 512, 2048];
const SCALE_SIZES: [usize; 4] = [2048, 32768, 100_000, 1_000_000];
const SCALE_SHARDS: [usize; 2] = [1, 4];

/// One scale row as a JSON object, with the per-core figure attached.
fn scale_row(cfg: &ScaleConfig) -> (u64, String) {
    let r = sim_scale(cfg);
    let row = format!(
        concat!(
            "{{\"n\":{},\"shards\":{},\"workers\":{},\"messages\":{},\"delivered\":{},",
            "\"hops\":{},\"crossings\":{},\"fingerprint\":\"{:016x}\",",
            "\"provision_ms\":{:.1},\"elapsed_ms\":{:.1},",
            "\"hops_per_sec\":{:.0},\"hops_per_sec_per_core\":{:.0}}}"
        ),
        r.n,
        r.shards,
        r.workers,
        r.messages,
        r.delivered,
        r.hops,
        r.crossings,
        r.fingerprint,
        r.provision_ns as f64 / 1e6,
        r.elapsed_ns as f64 / 1e6,
        r.hops_per_sec(),
        r.hops_per_sec_per_core(),
    );
    (r.fingerprint, row)
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut level = Level::Metrics;
    let mut skip_scale = false;
    let mut scale_messages = 4096usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = args.next(),
            "--trace-level" => {
                if let Some(l) = args.next().as_deref().and_then(Level::from_name) {
                    level = l;
                }
            }
            "--skip-scale" => skip_scale = true,
            "--scale-smoke" => scale_messages = 1024,
            _ => {}
        }
    }
    let rows: Vec<String> = SIZES
        .into_iter()
        .map(|n| {
            let r = sim_throughput(n, Alg1.min_locality(n), MESSAGES, SEED, Alg1);
            format!(
                concat!(
                    "{{\"n\":{},\"k\":{},\"messages\":{},\"delivered\":{},",
                    "\"hops\":{},\"elapsed_ms\":{:.1},\"hops_per_sec\":{:.0}}}"
                ),
                r.n,
                r.k,
                r.messages,
                r.delivered,
                r.hops,
                r.elapsed_ns as f64 / 1e6,
                r.hops_per_sec(),
            )
        })
        .collect();
    if let Some(path) = trace_out {
        let mut bytes = Vec::new();
        for n in SIZES {
            bytes.extend_from_slice(
                format!("{{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"n\":{n}}}\n").as_bytes(),
            );
            let (_, trace) = sim_throughput_traced(
                n,
                Alg1.min_locality(n),
                MESSAGES,
                SEED,
                Alg1,
                Some(Recorder::new(level)),
            );
            bytes.extend_from_slice(&trace);
        }
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("simbench: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
    let scale: Vec<String> = if skip_scale {
        Vec::new()
    } else {
        SCALE_SIZES
            .into_iter()
            .flat_map(|n| {
                let mut fp_at_one: Option<u64> = None;
                SCALE_SHARDS
                    .into_iter()
                    .map(|s| {
                        let mut cfg = ScaleConfig::for_n(n);
                        cfg.messages = scale_messages;
                        cfg.churn = true;
                        cfg.shards = s;
                        cfg.workers = if s > 1 { driver::default_threads() } else { 1 };
                        let (fp, row) = scale_row(&cfg);
                        match fp_at_one {
                            None => fp_at_one = Some(fp),
                            Some(base) => assert_eq!(
                                fp, base,
                                "simbench: n={n} outcomes diverge at {s} shards"
                            ),
                        }
                        row
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    println!(
        "{{\"bench\":\"simbench\",\"seed\":{},\"rows\":[{}],\"scale\":[{}]}}",
        SEED,
        rows.join(","),
        scale.join(",")
    );
}
