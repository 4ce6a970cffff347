//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outcomes, and prints one JSON line:
//! the end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. Exits 1 without a result line if an outcome check
//! fails, 2 on bad arguments.

// Wall-clock measurement is the point of a benchmark; the workspace
// `Instant` ban protects routing determinism, not the code that times it.
#![allow(clippy::disallowed_types)]

use std::process::ExitCode;

use perfbench::{alloc, layers, spans, util};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        alloc::enable();
        spans::enable();
    }
    let Some(mut rep) =
        perfbench::run_workload(&args.workload, false, args.seed, args.seconds, args.trace)
    else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    rep.e2e("peak_rss_mb", util::peak_rss_mb().unwrap_or(0.0), "MiB");
    if args.trace {
        for name in layers::NAMES {
            rep.check(rep.layers.iter().any(|m| m.name == name), || {
                format!("layer metric {name} was not measured")
            });
        }
        if let Err(e) = write_spans(&args) {
            rep.violations.push(format!("writing spans: {e}"));
        }
    }
    eprintln!(
        "perfbench: {} seed {} fingerprint {:016x}",
        args.workload, args.seed, rep.fingerprint
    );
    for m in rep.end_to_end.iter().chain(&rep.layers) {
        eprintln!("perfbench:   {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, why) in &rep.absent {
        eprintln!("perfbench:   {name} absent: {why}");
    }
    for v in &rep.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    if !rep.violations.is_empty() {
        return ExitCode::from(1);
    }
    let which = if args.trace {
        &rep.layers
    } else {
        &rep.end_to_end
    };
    println!("{}", rep.json(which));
    ExitCode::SUCCESS
}

/// Writes the run's spans to `.bench_spans/<workload>-<seed>.jsonl`.
fn write_spans(args: &Args) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_spans");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_jsonl(&spans::snapshot(), &mut out)
}
