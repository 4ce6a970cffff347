//! Chaos soak: delivery under deterministic churn.
//!
//! Thin CLI wrapper over [`locality_bench::chaos::report`]: parses
//! `--seed N` (default 7) and prints the one-line JSON report
//! (redirect to `BENCH_chaos.json`). Two runs with the same seed print
//! byte-identical JSON — `scripts/verify.sh` checks exactly that.
//!
//! With `--trace-out PATH` the soak also writes a deterministic JSONL
//! trace of every storm (level set by `--trace-level
//! off|metrics|hops|debug`, default `hops`) for `bin/tracecat` to
//! summarise or diff. Same seed, same level → byte-identical trace,
//! at any worker count.
//!
//! With `--trace-shards W --trace-shard-dir DIR` the trace is instead
//! written as `W` per-worker shard files `DIR/shard-<i>.jsonl` (trial
//! block `i` → shard `i % W`, the parallel driver's strided
//! assignment). `tracecat merge DIR/shard-*.jsonl` recombines them
//! byte-identical to the single-writer `--trace-out` trace —
//! `scripts/verify.sh` gates exactly that.
//!
//! With `--provisioner oracle --artifact-dir DIR` every trial network
//! is provisioned from the precomputed view artifacts `DIR/k<K>.lrvo`
//! (written by `bin/oracle build --chaos-seed`). The directory must
//! cover every trial `k` — a missing or mismatched artifact is a hard
//! error, so the verify gate's BFS-vs-oracle stdout diff genuinely
//! exercises the oracle path.

use std::collections::BTreeMap;
use std::sync::Arc;

use local_routing::ViewArtifact;
use locality_bench::chaos;
use locality_sim::Level;

const USAGE: &str = "usage: chaos [--seed N] [--trace-out PATH] \
[--trace-level off|metrics|hops|debug] [--trace-shards W --trace-shard-dir DIR] \
[--provisioner bfs|oracle] [--artifact-dir DIR]";

fn fail(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(1);
}

fn main() {
    let mut seed = 7u64;
    let mut trace_out: Option<String> = None;
    let mut trace_shards: Option<usize> = None;
    let mut trace_shard_dir: Option<String> = None;
    let mut level = Level::Hops;
    let mut oracle = false;
    let mut artifact_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = v,
                Some(Err(_)) => fail("--seed takes an unsigned integer"),
                None => fail("--seed needs a value"),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => fail("--trace-out needs a path"),
            },
            "--trace-shards" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => trace_shards = Some(v),
                Some(_) => fail("--trace-shards takes a positive integer"),
                None => fail("--trace-shards needs a value"),
            },
            "--trace-shard-dir" => match args.next() {
                Some(d) => trace_shard_dir = Some(d),
                None => fail("--trace-shard-dir needs a directory"),
            },
            "--trace-level" => match args.next() {
                Some(v) => match Level::from_name(&v) {
                    Some(l) => level = l,
                    None => fail(&format!("unknown trace level '{v}'")),
                },
                None => fail("--trace-level needs a value"),
            },
            "--provisioner" => match args.next().as_deref() {
                Some("bfs") => oracle = false,
                Some("oracle") => oracle = true,
                other => fail(&format!("--provisioner takes bfs|oracle, got {other:?}")),
            },
            "--artifact-dir" => match args.next() {
                Some(d) => artifact_dir = Some(d),
                None => fail("--artifact-dir needs a directory"),
            },
            // The conventional end-of-options marker, and what a
            // `cargo run -- --seed 7` habit pastes in front of the
            // flags when the binary is invoked directly.
            "--" => {}
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    if oracle {
        let Some(dir) = artifact_dir else {
            fail("--provisioner oracle requires --artifact-dir DIR");
        };
        if trace_out.is_some() || trace_shard_dir.is_some() || trace_shards.is_some() {
            fail("tracing is not supported with --provisioner oracle");
        }
        let mut artifacts: BTreeMap<u32, Arc<ViewArtifact>> = BTreeMap::new();
        for k in chaos::trial_ks() {
            let path = format!("{dir}/k{k}.lrvo");
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => fail(&format!("cannot read artifact {path}: {e}")),
            };
            match ViewArtifact::from_bytes(bytes) {
                Ok(a) => artifacts.insert(k, Arc::new(a)),
                Err(e) => fail(&format!("artifact {path} rejected: {e}")),
            };
        }
        match chaos::report_with_artifacts(seed, &artifacts) {
            Ok(json) => println!("{json}"),
            Err(e) => fail(&format!("artifacts do not match seed {seed}: {e}")),
        }
        return;
    }
    if let Some(stripes) = trace_shards {
        let Some(dir) = trace_shard_dir else {
            fail("--trace-shards requires --trace-shard-dir DIR");
        };
        if trace_out.is_some() {
            fail("--trace-shards and --trace-out are mutually exclusive");
        }
        let (json, shards) = chaos::report_with_trace_striped(seed, Some(level), stripes);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fail(&format!("cannot create {dir}: {e}"));
        }
        for (i, bytes) in shards.iter().enumerate() {
            let path = format!("{dir}/shard-{i}.jsonl");
            if let Err(e) = std::fs::write(&path, bytes) {
                fail(&format!("cannot write trace shard to {path}: {e}"));
            }
        }
        println!("{json}");
        return;
    }
    if trace_shard_dir.is_some() {
        fail("--trace-shard-dir requires --trace-shards W");
    }
    let (json, trace) = chaos::report_with_trace(seed, trace_out.as_ref().map(|_| level));
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, &trace) {
            fail(&format!("cannot write trace to {path}: {e}"));
        }
    }
    println!("{json}");
}
