//! Mode-based streaming trace analyzer for the deterministic JSONL
//! traces written by `bin/chaos`, `bin/simbench`, and `bin/perfsmoke`
//! via `--trace-out`.
//!
//! Every mode streams through `locality_obs::analytics`: a fixed-size
//! chunked reader, an incremental witness fold, and O(aggregate) mode
//! state — multi-GB corpora are analyzed without ever being resident.
//! Output is byte-identical whether a corpus is read whole, chunked at
//! any `--buf` size, or merged back from per-worker shards.
//!
//! Modes:
//!
//! * `summary FILE [--top K]` — per-tick activity timeline, fate
//!   breakdown, top-K slowest delivered routes.
//! * `stats FILE` — per-trial / per-fate / per-rule tables with
//!   power-of-two-bucket hop and latency percentiles.
//! * `loops FILE` — routing-loop detection (revisited node within one
//!   attempt) with cycle storage.
//! * `imperiled FILE [--timeout TICKS]` — deliveries that survived
//!   only via retries, near the timeout horizon, or through
//!   re-provisioned views.
//! * `merge SHARD... [--out FILE]` — recombine per-worker shard traces
//!   into single-writer trial order, byte-identical.
//! * `split FILE OUT...` — the inverse: strided shards for parallel
//!   analysis (`merge ∘ split` is the identity).
//! * `chunk FILE --max-bytes B --out-prefix P` — size-bounded pieces
//!   cut on trial boundaries, each a valid standalone trace.
//! * `diff A B [--stats]` — byte-level first divergence, or (with
//!   `--stats`) a structured cross-run comparison table.
//!
//! Common flags: `--buf BYTES` (reader chunk size), `--lenient`
//! (tolerate a torn final line, for traces of in-progress runs).
//!
//! Exit status: 0 success / identical traces, 1 runtime (I/O or
//! parse) error, 2 usage error, 3 `diff` divergence. A reader that
//! exits first (`tracecat stats FILE | head`) ends the program quietly
//! with status 0; any other write error to standard output prints
//! `error: …` and exits 1.

use std::fs::File;
use std::io::{self, ErrorKind, StdoutLock, Write};

use locality_obs::analytics::diff::{first_divergence, stats_diff, DiffOutcome};
use locality_obs::analytics::imperiled::ImperiledMode;
use locality_obs::analytics::loops::LoopsMode;
use locality_obs::analytics::merge::{chunk_trace, merge_traces, split_trace};
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::summary::SummaryMode;
use locality_obs::analytics::{
    run_mode, Mode, StreamError, TailMode, DEFAULT_BUF_BYTES, MAX_BUF_BYTES,
};

const USAGE: &str = "usage: tracecat MODE ...\n\
  tracecat summary FILE [--top K] [--buf BYTES] [--lenient]\n\
  tracecat stats FILE [--buf BYTES] [--lenient]\n\
  tracecat loops FILE [--buf BYTES] [--lenient]\n\
  tracecat imperiled FILE [--timeout TICKS] [--buf BYTES] [--lenient]\n\
  tracecat merge SHARD... [--out FILE] [--buf BYTES]\n\
  tracecat split FILE OUT... [--buf BYTES]\n\
  tracecat chunk FILE --max-bytes B --out-prefix P [--buf BYTES]\n\
  tracecat diff A B [--stats] [--buf BYTES] [--lenient]\n\
exit: 0 ok/identical, 1 runtime error, 2 usage error, 3 diff divergence";

fn usage_fail(msg: &str) -> ! {
    eprintln!("tracecat: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn run_fail(msg: &str) -> ! {
    eprintln!("tracecat: {msg}");
    std::process::exit(1);
}

/// Parsed flags; each mode validates the subset it accepts.
#[derive(Default)]
struct Opts {
    pos: Vec<String>,
    buf: Option<usize>,
    lenient: bool,
    top: Option<usize>,
    timeout: Option<u64>,
    out: Option<String>,
    stats: bool,
    max_bytes: Option<u64>,
    out_prefix: Option<String>,
    seen: Vec<&'static str>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts::default();
        let mut it = args.iter();
        let mut raw = false;
        while let Some(a) = it.next() {
            if raw || !a.starts_with("--") {
                o.pos.push(a.clone());
                continue;
            }
            let mut value = |name: &str| match it.next() {
                Some(v) => v.clone(),
                None => usage_fail(&format!("{name} needs a value")),
            };
            match a.as_str() {
                "--" => raw = true,
                "--buf" => {
                    let v = value("--buf");
                    match v.parse::<usize>() {
                        Ok(n) if (1..=MAX_BUF_BYTES).contains(&n) => o.buf = Some(n),
                        _ => usage_fail(&format!(
                            "--buf wants a byte count in 1..={MAX_BUF_BYTES}, got {v}"
                        )),
                    }
                    o.seen.push("--buf");
                }
                "--lenient" => {
                    o.lenient = true;
                    o.seen.push("--lenient");
                }
                "--top" => {
                    let v = value("--top");
                    match v.parse::<usize>() {
                        Ok(n) => o.top = Some(n),
                        Err(_) => usage_fail(&format!("--top wants a count, got {v}")),
                    }
                    o.seen.push("--top");
                }
                "--timeout" => {
                    let v = value("--timeout");
                    match v.parse::<u64>() {
                        Ok(n) => o.timeout = Some(n),
                        Err(_) => usage_fail(&format!("--timeout wants ticks, got {v}")),
                    }
                    o.seen.push("--timeout");
                }
                "--out" => {
                    o.out = Some(value("--out"));
                    o.seen.push("--out");
                }
                "--stats" => {
                    o.stats = true;
                    o.seen.push("--stats");
                }
                "--max-bytes" => {
                    let v = value("--max-bytes");
                    match v.parse::<u64>() {
                        Ok(n) if n > 0 => o.max_bytes = Some(n),
                        _ => {
                            usage_fail(&format!("--max-bytes wants a positive byte count, got {v}"))
                        }
                    }
                    o.seen.push("--max-bytes");
                }
                "--out-prefix" => {
                    o.out_prefix = Some(value("--out-prefix"));
                    o.seen.push("--out-prefix");
                }
                other => usage_fail(&format!("unknown flag {other}")),
            }
        }
        o
    }

    fn allow(&self, mode: &str, allowed: &[&str]) {
        for f in &self.seen {
            if !allowed.contains(f) {
                usage_fail(&format!("{f} is not a {mode} flag"));
            }
        }
    }

    fn buf(&self) -> usize {
        self.buf.unwrap_or(DEFAULT_BUF_BYTES)
    }

    fn tail(&self) -> TailMode {
        if self.lenient {
            TailMode::Lenient
        } else {
            TailMode::Strict
        }
    }
}

fn open(path: &str) -> File {
    match File::open(path) {
        Ok(f) => f,
        Err(e) => run_fail(&format!("cannot read {path}: {e}")),
    }
}

fn create(path: &str) -> File {
    match File::create(path) {
        Ok(f) => f,
        Err(e) => run_fail(&format!("cannot write {path}: {e}")),
    }
}

/// Runs one analysis mode over a file and prints its rendering.
fn analyze<M: Mode>(out: &mut impl Write, path: &str, o: &Opts, mode: &mut M) -> io::Result<()> {
    // No BufReader: the analytics LineReader already chunks reads at
    // `--buf` bytes, so wrapping would just double-buffer.
    match run_mode(open(path), o.buf(), o.tail(), mode) {
        Ok(report) => write!(out, "{}", mode.render(&report)),
        Err(e) => run_fail(&format!("{path}: {e}")),
    }
}

fn one_file<'a>(o: &'a Opts, mode: &str) -> &'a str {
    match o.pos.as_slice() {
        [f] => f.as_str(),
        _ => usage_fail(&format!("{mode} wants exactly one FILE")),
    }
}

fn main() {
    let mut out = io::stdout().lock();
    let code = match run(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // A reader that exits first has taken all the output it wants.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Runs the mode named on the command line, writing its output to
/// `out`; returns the exit status (0, or 3 for a `diff` divergence).
fn run(out: &mut StdoutLock<'_>) -> io::Result<i32> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Tolerate the conventional end-of-options marker before the mode
    // (`cargo run ... -- summary FILE` habits).
    if args.first().map(String::as_str) == Some("--") {
        args.remove(0);
    }
    let Some(mode) = args.first().map(String::as_str) else {
        usage_fail("missing mode");
    };
    let o = Opts::parse(args.get(1..).unwrap_or(&[]));
    match mode {
        "summary" => {
            o.allow("summary", &["--top", "--buf", "--lenient"]);
            let path = one_file(&o, "summary");
            let mut m = SummaryMode::new(o.top.unwrap_or(5));
            writeln!(out, "trace   {path}")?;
            analyze(out, path, &o, &mut m)?;
        }
        "stats" => {
            o.allow("stats", &["--buf", "--lenient"]);
            let path = one_file(&o, "stats");
            let mut m = StatsMode::new();
            analyze(out, path, &o, &mut m)?;
        }
        "loops" => {
            o.allow("loops", &["--buf", "--lenient"]);
            let path = one_file(&o, "loops");
            let mut m = LoopsMode::new();
            analyze(out, path, &o, &mut m)?;
        }
        "imperiled" => {
            o.allow("imperiled", &["--timeout", "--buf", "--lenient"]);
            let path = one_file(&o, "imperiled");
            let mut m = ImperiledMode::new(o.timeout);
            analyze(out, path, &o, &mut m)?;
        }
        "merge" => {
            o.allow("merge", &["--out", "--buf"]);
            if o.pos.is_empty() {
                usage_fail("merge wants at least one SHARD");
            }
            let inputs: Vec<File> = o.pos.iter().map(|p| open(p)).collect();
            let report = if let Some(out_path) = &o.out {
                let mut out = std::io::BufWriter::new(create(out_path));
                merge_traces(inputs, o.buf(), &mut out)
            } else {
                merge_traces(inputs, o.buf(), &mut std::io::BufWriter::new(&mut *out))
            };
            match report {
                Ok(r) => eprintln!(
                    "merged {} trial(s), {} line(s), {} byte(s) from {} shard(s)",
                    r.trials,
                    r.lines,
                    r.bytes,
                    o.pos.len()
                ),
                // Standard output's reader exited: `main` ends quietly.
                Err(StreamError::Io { err, .. }) if err.kind() == ErrorKind::BrokenPipe => {
                    return Err(err)
                }
                Err(e) => run_fail(&format!("merge: {e}")),
            }
        }
        "split" => {
            o.allow("split", &["--buf"]);
            let (src, outs) = match o.pos.as_slice() {
                [src, outs @ ..] if !outs.is_empty() => (src, outs),
                _ => usage_fail("split wants FILE OUT..."),
            };
            let mut sinks: Vec<std::io::BufWriter<File>> = outs
                .iter()
                .map(|p| std::io::BufWriter::new(create(p)))
                .collect();
            match split_trace(open(src), o.buf(), &mut sinks) {
                Ok(r) => eprintln!(
                    "split {} trial(s), {} line(s), {} byte(s) into {} shard(s)",
                    r.trials,
                    r.lines,
                    r.bytes,
                    outs.len()
                ),
                Err(e) => run_fail(&format!("split {src}: {e}")),
            }
        }
        "chunk" => {
            o.allow("chunk", &["--max-bytes", "--out-prefix", "--buf"]);
            let path = one_file(&o, "chunk");
            let (Some(max), Some(prefix)) = (o.max_bytes, o.out_prefix.as_ref()) else {
                usage_fail("chunk wants --max-bytes and --out-prefix");
            };
            let piece = |i: usize| format!("{prefix}-{i:03}.jsonl");
            match chunk_trace(open(path), o.buf(), max, |i| {
                let name = piece(i);
                writeln!(out, "{name}")?;
                File::create(name)
            }) {
                Ok((r, pieces)) => eprintln!(
                    "chunked {} trial(s), {} byte(s) into {pieces} piece(s)",
                    r.trials, r.bytes
                ),
                Err(StreamError::Io { err, .. }) if err.kind() == ErrorKind::BrokenPipe => {
                    return Err(err)
                }
                Err(e) => run_fail(&format!("chunk {path}: {e}")),
            }
        }
        "diff" => {
            o.allow("diff", &["--stats", "--buf", "--lenient"]);
            let (a, b) = match o.pos.as_slice() {
                [a, b] => (a.as_str(), b.as_str()),
                _ => usage_fail("diff wants exactly two FILEs"),
            };
            if o.stats {
                match stats_diff(open(a), open(b), o.buf(), o.tail(), a, b) {
                    Ok(table) => write!(out, "{table}")?,
                    Err(e) => run_fail(&format!("diff --stats: {e}")),
                }
                return Ok(0);
            }
            match first_divergence(open(a), open(b), o.buf()) {
                Ok(DiffOutcome::Identical { events, bytes }) => {
                    writeln!(out, "zero divergence: {events} event(s), {bytes} byte(s)")?;
                }
                Ok(DiffOutcome::Diverged { line, a: la, b: lb }) => {
                    writeln!(out, "first divergence at event {line} :")?;
                    writeln!(out, "  {a}: {la}")?;
                    writeln!(out, "  {b}: {lb}")?;
                    return Ok(3);
                }
                Err(e) => run_fail(&format!("diff: {e}")),
            }
        }
        other => usage_fail(&format!("unknown mode {other}")),
    }
    Ok(0)
}
