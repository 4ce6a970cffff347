//! Trace determinism: the observability layer must be as reproducible
//! as the simulator it watches.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Worker-count invariance** — the traced chaos soak produces
//!    byte-identical JSON *and* byte-identical trace bytes whether the
//!    eleven storms run on one driver thread or eight (per-trial
//!    recorders, merged in trial order).
//! 2. **Run-to-run invariance** — two traced runs of the same seed are
//!    byte-identical, the property `tracecat diff` certifies.
//! 3. **Byte stability across PRs** — a small debug-level trace is
//!    pinned to a committed golden; regenerate (only when the event
//!    schema is *meant* to change) with `UPDATE_GOLDENS=1 cargo test
//!    -p locality-integration --test trace_determinism`.
//! 4. **Hostile traces** — corrupted copies of the chaos trace get a
//!    report or a typed, line-numbered error from every tracecat mode,
//!    never a panic or an abort.

use std::path::PathBuf;
use std::sync::OnceLock;

use local_routing::Alg3;
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_obs::analytics::imperiled::ImperiledMode;
use locality_obs::analytics::loops::LoopsMode;
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::summary::SummaryMode;
use locality_obs::analytics::{run_mode, Mode, StreamError, TailMode};
use locality_sim::{Level, NetworkBuilder, Recorder};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    // The env ban protects routing determinism; this flag only gates
    // golden regeneration in this test harness.
    #[allow(clippy::disallowed_methods)]
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDENS=1)", name));
    assert_eq!(actual, expected, "{name}: trace bytes drifted");
}

/// The seed-7 chaos report and trace on one driver thread, built once
/// for every test in this file that reads them.
fn chaos_seed7() -> &'static (String, Vec<u8>) {
    static RUN: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    RUN.get_or_init(|| locality_bench::chaos::report_with_trace_threads(7, Some(Level::Hops), 1))
}

#[test]
fn chaos_trace_is_worker_count_invariant() {
    let (json_1, trace_1) = chaos_seed7();
    let (json_8, trace_8) =
        locality_bench::chaos::report_with_trace_threads(7, Some(Level::Hops), 8);
    assert_eq!(*json_1, json_8, "chaos JSON depends on worker count");
    assert!(!trace_1.is_empty());
    assert_eq!(*trace_1, trace_8, "chaos trace depends on worker count");
}

/// Mutants of the seed-7 chaos trace: each flips bytes, truncates a
/// line, splices the head of one line onto the tail of another, or
/// opens a run of a million `[` at a member's value. Every tracecat
/// mode, in both tail modes, must return a report or a typed error
/// naming a line of the mutant. A parser that recursed once per
/// bracket overflowed the stack on the last kind.
#[test]
fn mutated_chaos_traces_get_a_report_or_a_typed_error() {
    const MUTANTS: usize = 12;
    let (_, trace) = chaos_seed7();
    let mut rng = DetRng::seed_from_u64(7);
    let mut errors = 0;
    for round in 0..MUTANTS {
        let mut lines: Vec<Vec<u8>> = trace
            .split_inclusive(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        let i = rng.gen_range(0..lines.len());
        let len = lines[i].len();
        let kind = match round % 4 {
            0 => {
                for _ in 0..4 {
                    let j = rng.gen_range(0..lines.len());
                    let at = rng.gen_range(0..lines[j].len());
                    lines[j][at] ^= 1 << rng.gen_range(0..8u32);
                }
                "flip"
            }
            1 => {
                lines[i].truncate(rng.gen_range(0..len));
                // Every other truncation is a torn final line.
                if round % 8 == 1 {
                    lines.truncate(i + 1);
                } else {
                    lines[i].push(b'\n');
                }
                "truncate"
            }
            2 => {
                let j = rng.gen_range(0..lines.len());
                let cut = rng.gen_range(0..lines[j].len());
                let tail = lines[j].split_off(cut);
                lines[i].truncate(rng.gen_range(0..len));
                lines[i].extend_from_slice(&tail);
                "splice"
            }
            _ => {
                // Open the run where a member's value starts.
                let colons: Vec<usize> = (0..len).filter(|&at| lines[i][at] == b':').collect();
                let at = colons[rng.gen_range(0..colons.len())] + 1;
                lines[i].splice(at..at, std::iter::repeat_n(b'[', 1_000_000));
                "inflate"
            }
        };
        let mutant = lines.concat();
        let line_count = mutant.iter().filter(|&&b| b == b'\n').count() + 1;
        for tail in [TailMode::Strict, TailMode::Lenient] {
            let mut modes: [Box<dyn Mode>; 4] = [
                Box::new(SummaryMode::new(5)),
                Box::new(StatsMode::new()),
                Box::new(LoopsMode::new()),
                Box::new(ImperiledMode::new(Some(192))),
            ];
            for mode in &mut modes {
                let Err(err) = run_mode(&mutant[..], 4093, tail, mode.as_mut()) else {
                    continue;
                };
                errors += 1;
                assert!(
                    (1..=line_count).contains(&err.line()),
                    "{kind} mutant {round}: error {err} names no line of the mutant"
                );
                if kind == "inflate" {
                    // Only line `i` changed, and the run opens at a
                    // value, so the nesting cap stops the pass there.
                    assert!(
                        matches!(&err, StreamError::Json { line, err }
                            if *line == i + 1 && err.what == "nesting too deep"),
                        "{kind} mutant {round}: {err}"
                    );
                }
            }
        }
    }
    assert!(errors > 0, "no mutant was rejected");
}

#[test]
fn same_seed_traced_runs_are_byte_identical() {
    let (_, a) = locality_bench::chaos::report_with_trace(3, Some(Level::Debug));
    let (_, b) = locality_bench::chaos::report_with_trace(3, Some(Level::Debug));
    assert_eq!(a, b, "two runs of one seed must diff clean");
}

/// A full-coverage debug trace of a tiny deterministic run, pinned
/// byte-for-byte: three messages on a 12-cycle, one link cut mid-run
/// (fault + reprovision + metrics dump all exercised).
fn cycle12_trace() -> String {
    let g = generators::cycle(12);
    let mut net = NetworkBuilder::new(&g, 6)
        .recorder(Recorder::new(Level::Debug))
        .build(Alg3);
    net.send(NodeId(0), NodeId(6));
    net.send(NodeId(3), NodeId(9));
    for _ in 0..3 {
        net.step();
    }
    net.set_edge(NodeId(4), NodeId(5), false)
        .expect("cycle edge");
    net.send(NodeId(11), NodeId(2));
    net.run_until_quiet();
    String::from_utf8(net.finish_trace()).expect("trace is ASCII JSONL")
}

#[test]
fn cycle12_debug_trace_matches_golden() {
    let a = cycle12_trace();
    assert_eq!(
        a,
        cycle12_trace(),
        "trace must be a pure function of the run"
    );
    check_golden("trace_cycle12.jsonl", &a);
}
