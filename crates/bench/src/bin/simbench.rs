//! Simulator hop-throughput snapshot at n ∈ {128, 512, 2048}, plus a
//! scale sweep at n ∈ {2048, 32768, 100000, 1000000}.
//!
//! One line of JSON per size: delivered-hop throughput of the
//! zero-fault simulator with Algorithm 1 at its threshold locality
//! k = ⌈n/4⌉ (every target visible, every message delivered — the
//! routed work is identical before and after any scheduler change).
//! Feeds the before/after table in `EXPERIMENTS.md`.
//!
//! The scale sweep runs the `k = 1` greedy ring-lattice workload under
//! churn, one row per n, with build time, run time, hop throughput and
//! an outcome fingerprint that hashes every route. `--scale-smoke`
//! shrinks the sweep's traffic for CI (`scripts/verify.sh` pins its
//! four fingerprints); `--skip-scale` drops it entirely.
//!
//! `--trace-out PATH` additionally re-runs each size with a recorder
//! attached (level from `--trace-level`, default `metrics`) and writes
//! the concatenated JSONL traces. The traced re-runs are separate so
//! that the printed throughput numbers always time the untraced
//! configuration.

use local_routing::{Alg1, LocalRouter};
use locality_bench::simbench::{sim_scale, sim_throughput, sim_throughput_traced, ScaleConfig};
use locality_sim::{Level, Recorder};

const USAGE: &str = "usage: simbench [--trace-out PATH] [--trace-level off|metrics|hops|debug] \
[--skip-scale | --scale-smoke]";

fn fail(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(1);
}

const MESSAGES: usize = 4096;
const SEED: u64 = 42;
const SIZES: [usize; 3] = [128, 512, 2048];
const SCALE_SIZES: [usize; 4] = [2048, 32768, 100_000, 1_000_000];

/// One scale row as a JSON object.
fn scale_row(cfg: &ScaleConfig) -> String {
    let r = sim_scale(cfg);
    format!(
        concat!(
            "{{\"n\":{},\"messages\":{},\"delivered\":{},\"hops\":{},",
            "\"fingerprint\":\"{:016x}\",\"provision_ms\":{:.1},\"elapsed_ms\":{:.1},",
            "\"hops_per_sec\":{:.0}}}"
        ),
        r.n,
        r.messages,
        r.delivered,
        r.hops,
        r.fingerprint,
        r.provision_ns as f64 / 1e6,
        r.elapsed_ns as f64 / 1e6,
        r.hops_per_sec(),
    )
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut level = Level::Metrics;
    let mut skip_scale = false;
    let mut scale_messages = 4096usize;
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
            "--skip-scale" => skip_scale = true,
            "--scale-smoke" => scale_messages = 1024,
            // The end-of-options marker a `cargo run --` habit pastes in.
            "--" => {}
            other => fail(&format!("unknown flag '{other}'")),
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
            .map(|n| {
                let mut cfg = ScaleConfig::for_n(n);
                cfg.messages = scale_messages;
                cfg.churn = true;
                scale_row(&cfg)
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
