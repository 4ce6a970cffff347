//! In-process determinism gates for the `tracecat` analytics engine:
//! every mode's rendering must be a pure function of the trace bytes —
//! independent of read-buffer size, and identical whether the trace
//! arrives as the single-writer file or as merged per-worker stripes.
//! These are the library-level counterparts of the `scripts/verify.sh`
//! byte-diff gates, so they run on the real seed-7 chaos corpus, not a
//! toy trace.

use std::io::Cursor;
use std::sync::OnceLock;

use locality_bench::chaos;
use locality_obs::analytics::imperiled::ImperiledMode;
use locality_obs::analytics::loops::LoopsMode;
use locality_obs::analytics::merge::{merge_traces, split_trace};
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::summary::SummaryMode;
use locality_obs::analytics::{run_mode, Mode, TailMode, DEFAULT_BUF_BYTES};
use locality_sim::Level;

/// The seed-7 chaos trace, generated once and shared by every test in
/// this file (the soak is the expensive part, not the analysis).
fn whole_trace() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| chaos::report_with_trace(7, Some(Level::Hops)).1)
}

/// Runs `mode` over `bytes` with the given buffer size and returns the
/// rendered report.
fn render<M: Mode>(bytes: &[u8], buf: usize, mode: &mut M) -> String {
    let report = run_mode(Cursor::new(bytes), buf, TailMode::Strict, mode)
        .expect("chaos trace streams cleanly");
    mode.render(&report)
}

#[test]
fn every_mode_is_byte_identical_at_any_buffer_size() {
    let trace = whole_trace();
    // Worst case (1 byte per read), an awkward prime, the default, and
    // a buffer larger than the whole trace.
    let bufs = [1usize, 4093, DEFAULT_BUF_BYTES, trace.len() + 1];
    type ModeRun = Box<dyn Fn(&[u8], usize) -> String>;
    let runs: Vec<ModeRun> = vec![
        Box::new(|b, n| render(b, n, &mut SummaryMode::new(5))),
        Box::new(|b, n| render(b, n, &mut StatsMode::new())),
        Box::new(|b, n| render(b, n, &mut LoopsMode::new())),
        Box::new(|b, n| render(b, n, &mut ImperiledMode::new(Some(192)))),
    ];
    for (i, run) in runs.iter().enumerate() {
        let baseline = run(trace, DEFAULT_BUF_BYTES);
        assert!(!baseline.is_empty(), "mode {i} rendered nothing");
        for &buf in &bufs {
            assert_eq!(run(trace, buf), baseline, "mode {i} at buf={buf}");
        }
    }
}

/// The trace's trial blocks: each `{"ev":"trial"}` header line with
/// the recorder lines that follow it.
fn trial_blocks(trace: &[u8]) -> Vec<Vec<u8>> {
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    for line in trace.split_inclusive(|&b| b == b'\n') {
        if line.starts_with(b"{\"seq\":0,\"tick\":0,\"ev\":\"trial\"") {
            blocks.push(Vec::new());
        }
        if let Some(block) = blocks.last_mut() {
            block.extend_from_slice(line);
        }
    }
    blocks
}

#[test]
fn merged_worker_shards_are_byte_identical_to_the_single_writer_trace() {
    let whole = whole_trace();
    let blocks = trial_blocks(whole);
    assert_eq!(blocks.len(), 11, "chaos runs 11 trials");
    for stripes in [1usize, 3, 8] {
        let mut shards: Vec<Vec<u8>> = vec![Vec::new(); stripes];
        {
            let mut outs: Vec<&mut Vec<u8>> = shards.iter_mut().collect();
            split_trace(Cursor::new(whole), DEFAULT_BUF_BYTES, &mut outs[..])
                .expect("whole trace splits");
        }
        // Trial block `i` lands on stripe `i % stripes`, the parallel
        // driver's strided worker assignment.
        for (w, shard) in shards.iter().enumerate() {
            let expected: Vec<u8> = blocks
                .iter()
                .skip(w)
                .step_by(stripes)
                .flatten()
                .copied()
                .collect();
            assert_eq!(*shard, expected, "stripe {w} of {stripes}");
        }
        let mut merged = Vec::new();
        let inputs: Vec<Cursor<&[u8]>> = shards.iter().map(|s| Cursor::new(s.as_slice())).collect();
        let report = merge_traces(inputs, DEFAULT_BUF_BYTES, &mut merged).expect("shards merge");
        assert_eq!(report.trials, 11, "chaos runs 11 trials");
        assert_eq!(
            merged, whole,
            "{stripes}-stripe merge diverges from the single-writer trace"
        );
    }
}

#[test]
fn split_then_merge_round_trips_and_analytics_agree() {
    let whole = whole_trace();
    let mut parts: Vec<Vec<u8>> = vec![Vec::new(); 4];
    {
        let mut outs: Vec<&mut Vec<u8>> = parts.iter_mut().collect();
        split_trace(Cursor::new(whole), DEFAULT_BUF_BYTES, &mut outs[..])
            .expect("whole trace splits");
    }
    let mut merged = Vec::new();
    let inputs: Vec<Cursor<&[u8]>> = parts.iter().map(|p| Cursor::new(p.as_slice())).collect();
    merge_traces(inputs, DEFAULT_BUF_BYTES, &mut merged).expect("parts merge");
    assert_eq!(merged, whole, "split ∘ merge must be the identity");
    // And the analysis of the recombined trace matches the original —
    // stats is the mode with the richest per-trial state.
    let from_whole = render(whole, DEFAULT_BUF_BYTES, &mut StatsMode::new());
    let from_merged = render(&merged, DEFAULT_BUF_BYTES, &mut StatsMode::new());
    assert_eq!(from_whole, from_merged);
}

#[test]
fn stats_sees_all_eleven_chaos_trials() {
    let rendered = render(whole_trace(), DEFAULT_BUF_BYTES, &mut StatsMode::new());
    // 6 router trials + the 5-point algorithm-3 k-sweep.
    assert!(rendered.contains("11 trials"), "{rendered}");
    assert!(rendered.contains("algorithm-1b"), "{rendered}");
    assert!(rendered.contains("right-hand-rule"), "{rendered}");
    // The sweep rows reuse the algorithm-3 router at five distinct k.
    assert!(
        rendered.matches("| algorithm-3 ").count() >= 5,
        "{rendered}"
    );
}
