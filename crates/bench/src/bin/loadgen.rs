//! Deterministic load generator and capacity probe.
//!
//! Thin CLI over [`locality_bench::loadgen`]:
//!
//! ```text
//! loadgen sweep [--seed N] [--threads T]     # capacity curve, one JSON line
//! loadgen check [--seed N] [--threads T]     # graceful-degradation gate
//! loadgen qps   [--seed N]                   # wall-clock qps/core at the SLO
//! ```
//!
//! `sweep` and `check` are pure functions of the seed — `--threads`
//! only changes wall-clock time, and `scripts/verify.sh` diffs the
//! 1-vs-8-thread outputs byte for byte. `check` exits nonzero with the
//! violated invariant on stderr if overload ever degrades admitted
//! traffic. `qps` is the one wall-clock mode (its number feeds
//! perfsmoke's `sustained_qps_at_slo`). A reader that exits first
//! (`loadgen check | head`) ends the program quietly with status 0;
//! any other write error prints `error: …` and exits 1.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use locality_bench::loadgen;
use locality_sim::driver;

const USAGE: &str = "usage: loadgen sweep|check|qps [--seed N] [--threads T]";

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(1);
}

fn main() -> ExitCode {
    // Tolerate a leading end-of-options marker (`cargo run -- ...`
    // habit when the binary is invoked directly).
    let args: Vec<String> = std::env::args().skip(1).skip_while(|a| a == "--").collect();
    let Some((cmd, rest)) = args.split_first() else {
        fail("missing subcommand");
    };
    let mut seed = 7u64;
    let mut threads = driver::default_threads();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = v,
                Some(Err(_)) => fail("--seed takes an unsigned integer"),
                None => fail("--seed needs a value"),
            },
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v > 0 => threads = v,
                Some(_) => fail("--threads takes a positive integer"),
                None => fail("--threads needs a value"),
            },
            // Conventional end-of-options marker (`cargo run -- ...`
            // habit when the binary is invoked directly).
            "--" => {}
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    let line = match cmd.as_str() {
        "sweep" => loadgen::sweep(seed, threads),
        "check" => match loadgen::check(seed, threads) {
            Ok(json) => json,
            Err(e) => fail(&format!("degradation invariant violated: {e}")),
        },
        "qps" => {
            let (qps, rate_milli, p99) = loadgen::sustained_qps_at_slo(seed);
            format!(
                "{{\"bench\":\"loadgen_qps\",\"seed\":{seed},\"sustained_qps_at_slo\":{qps:.0},\
                 \"capacity_rate_milli\":{rate_milli},\"latency_p99\":{p99}}}"
            )
        }
        other => fail(&format!("unknown subcommand '{other}'")),
    };
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{line}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
