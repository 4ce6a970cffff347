//! Streaming trace analytics: bounded-memory analysis of JSONL traces.
//!
//! At the scale PR 9 unlocked (n = 10⁵–10⁶ trials), traces become
//! multi-GB corpora that can no longer be slurped into memory the way
//! [`parse_trace`](crate::parse_trace) does. This module is the
//! streaming counterpart: a chunked line reader with a fixed-size
//! buffer ([`reader::LineReader`]), an incremental per-trial witness
//! fold ([`fold::WitnessFold`]), and a pluggable [`Mode`] trait driven
//! by [`run_mode`], which parses each line exactly once and hands
//! events and completed witnesses to the mode as they stream past.
//!
//! The memory contract every mode obeys: RSS is bounded by
//! O(live messages + aggregate state), never O(trace size), and the
//! rendered output is byte-identical whether the corpus is analyzed
//! whole, in chunks of any buffer size, or merged back from per-worker
//! shards (`bin/tracecat` merge) — the chunk-boundary determinism
//! tests pin exactly that.
//!
//! Error reporting follows the contract of `graph::io::from_str`:
//! every failure is typed and carries the 1-based number of the
//! offending line, and io errors are attributed to the line being read
//! when the stream died.
//! [`TailMode`] distinguishes a torn final line (a trace of a killed or
//! still-running run) from mid-file corruption: strict mode rejects it
//! as [`StreamError::TruncatedTail`], lenient mode drops it and flags
//! the report.

use std::collections::BTreeMap;
use std::io::Read;

use crate::json::{Json, JsonError};
use crate::witness::{EventFields, Kind, RouteWitness};

pub mod diff;
pub mod fold;
pub mod imperiled;
pub mod loops;
pub mod merge;
pub mod reader;
pub mod stats;
pub mod summary;
pub mod synth;

pub use fold::WitnessFold;
pub use reader::{Line, LineReader, DEFAULT_BUF_BYTES, MAX_BUF_BYTES};

/// How the final line of a stream is treated when it has no trailing
/// newline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailMode {
    /// A torn final line is a [`StreamError::TruncatedTail`] — the
    /// right default for verify gates, where a trace must be complete.
    Strict,
    /// A torn final line is silently dropped and flagged in
    /// [`StreamReport::truncated_tail`] — for analyzing the trace of a
    /// run that is still in progress (or was killed mid-write).
    Lenient,
}

/// A stream-analysis failure, with the 1-based line it is attributed
/// to.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed while line `line` was being read.
    Io {
        /// 1-based number of the line being read when the stream died.
        line: usize,
        /// The underlying io error.
        err: std::io::Error,
    },
    /// The line is not valid UTF-8.
    Utf8 {
        /// 1-based line number.
        line: usize,
    },
    /// The line is not a valid JSON document.
    Json {
        /// 1-based line number.
        line: usize,
        /// The JSON-level failure (with its byte offset in the line).
        err: JsonError,
    },
    /// Strict tail mode: the final line has no trailing newline.
    TruncatedTail {
        /// 1-based line number of the torn final line.
        line: usize,
    },
    /// The stream does not have the expected trial-block shape (e.g.
    /// `merge` fed a file that does not start with a trial header).
    Shape {
        /// 1-based line number.
        line: usize,
        /// What was expected.
        what: &'static str,
    },
}

impl StreamError {
    /// The 1-based line number the error is attributed to.
    pub fn line(&self) -> usize {
        match self {
            StreamError::Io { line, .. }
            | StreamError::Utf8 { line }
            | StreamError::Json { line, .. }
            | StreamError::TruncatedTail { line }
            | StreamError::Shape { line, .. } => *line,
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io { line, err } => write!(f, "line {line}: read error: {err}"),
            StreamError::Utf8 { line } => write!(f, "line {line}: not valid UTF-8"),
            StreamError::Json { line, err } => write!(f, "line {line}: {err}"),
            StreamError::TruncatedTail { line } => write!(
                f,
                "line {line}: truncated tail (no trailing newline; use lenient \
                 mode for in-progress traces)"
            ),
            StreamError::Shape { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io { err, .. } => Some(err),
            StreamError::Json { err, .. } => Some(err),
            _ => None,
        }
    }
}

/// The `{"ev":"trial",...}` header opening one trial's section of a
/// multi-trial trace (written by `bin/chaos` between per-trial
/// recorder spans).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialHeader {
    /// 0-based position of the trial in the corpus.
    pub index: usize,
    /// Router name of the trial.
    pub router: String,
    /// Locality parameter of the trial.
    pub k: u32,
}

/// What one [`run_mode`] pass consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Parsed (non-blank) JSON lines.
    pub events: u64,
    /// Trial headers seen.
    pub trials: u64,
    /// Route witnesses folded (terminal fates plus end-of-stream
    /// in-flight messages).
    pub witnesses: u64,
    /// Bytes consumed, including line terminators.
    pub bytes: u64,
    /// Lenient tail mode dropped a torn final line.
    pub truncated_tail: bool,
}

/// A streaming analysis mode: [`run_mode`] feeds it trial headers, raw
/// events, and completed route witnesses in stream order, then asks it
/// to render. Implementations hold O(aggregate) state only — never
/// per-line state — and return structured text instead of printing
/// (lib code is silent; only `bin/tracecat` writes to stdout).
pub trait Mode {
    /// A new trial section begins. Witnesses of the previous trial
    /// still in flight were delivered via [`Mode::on_witness`] just
    /// before this call.
    fn on_trial(&mut self, trial: &TrialHeader) {
        let _ = trial;
    }

    /// One raw parsed event (every non-header line, before witness
    /// folding) with its 1-based line number.
    fn on_event(&mut self, line: usize, ev: &Json<'_>) {
        let _ = (line, ev);
    }

    /// A message's journey completed: its terminal `fate` arrived, or
    /// the trial/stream ended with it in flight (`fate == None`).
    fn on_witness(&mut self, w: &RouteWitness) {
        let _ = w;
    }

    /// Renders the final report after the stream is exhausted.
    fn render(&self, report: &StreamReport) -> String;
}

/// Drives one mode over a JSONL trace stream: reads chunked lines
/// through a fixed `buf_bytes` buffer, parses each exactly once, folds
/// witnesses incrementally, and notifies the mode in stream order.
/// Memory use is the buffer, the carry for one straddling line, the
/// fold's live messages, and the mode's aggregates — independent of
/// trace size.
///
/// # Errors
///
/// Typed, line-numbered [`StreamError`]s: io failures, invalid UTF-8,
/// malformed JSON, and (strict mode) a torn final line.
pub fn run_mode<R: Read, M: Mode + ?Sized>(
    src: R,
    buf_bytes: usize,
    tail: TailMode,
    mode: &mut M,
) -> Result<StreamReport, StreamError> {
    let mut rd = LineReader::new(src, buf_bytes);
    let mut fold = WitnessFold::new();
    let mut report = StreamReport::default();
    let mut trial_index = 0usize;
    while let Some(line) = rd.next_line()? {
        let number = line.number;
        let blank = line.bytes.iter().all(u8::is_ascii_whitespace);
        if !line.terminated {
            if blank {
                break;
            }
            match tail {
                TailMode::Strict => return Err(StreamError::TruncatedTail { line: number }),
                TailMode::Lenient => {
                    report.truncated_tail = true;
                    break;
                }
            }
        }
        report.bytes += line.bytes.len() as u64 + 1;
        if blank {
            continue;
        }
        let text =
            std::str::from_utf8(line.bytes).map_err(|_| StreamError::Utf8 { line: number })?;
        let ev = Json::parse(text).map_err(|err| StreamError::Json { line: number, err })?;
        report.events += 1;
        let fields = EventFields::read(&ev);
        if fields.kind == Some(Kind::Trial) {
            for w in fold.drain() {
                report.witnesses += 1;
                mode.on_witness(&w);
                fold.recycle(w);
            }
            let header = TrialHeader {
                index: trial_index,
                router: fields.router.unwrap_or("?").to_string(),
                k: fields.k.unwrap_or(0) as u32,
            };
            trial_index += 1;
            report.trials += 1;
            mode.on_trial(&header);
            continue;
        }
        mode.on_event(number, &ev);
        if let Some(w) = fold.feed_fields(&fields) {
            report.witnesses += 1;
            mode.on_witness(&w);
            fold.recycle(w);
        }
    }
    for w in fold.drain() {
        report.witnesses += 1;
        mode.on_witness(&w);
    }
    Ok(report)
}

/// Adds one to `name`'s count, allocating its key only the first time
/// the name is seen.
pub(crate) fn tally(counts: &mut BTreeMap<String, u64>, name: &str) {
    match counts.get_mut(name) {
        Some(n) => *n += 1,
        None => {
            counts.insert(name.to_string(), 1);
        }
    }
}

/// Fixed-point `num/den` with four fractional digits, in integer
/// arithmetic only (float formatting is banned on deterministic output
/// paths). `den == 0` renders as `-`.
pub fn ratio4(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".to_string();
    }
    let scaled = (num.saturating_mul(10_000) + den / 2) / den;
    format!("{}.{:04}", scaled / 10_000, scaled % 10_000)
}

/// Integer-only percentage with one fractional digit (`42.3%`).
/// `den == 0` renders as `-`.
pub fn pct1(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".to_string();
    }
    let scaled = (num.saturating_mul(1000) + den / 2) / den;
    format!("{}.{}%", scaled / 10, scaled % 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mode that records the callback sequence.
    #[derive(Default)]
    struct Probe {
        trials: Vec<(usize, String, u32)>,
        events: usize,
        witnesses: Vec<(u64, Option<String>)>,
    }

    impl Mode for Probe {
        fn on_trial(&mut self, t: &TrialHeader) {
            self.trials.push((t.index, t.router.clone(), t.k));
        }
        fn on_event(&mut self, _line: usize, _ev: &Json<'_>) {
            self.events += 1;
        }
        fn on_witness(&mut self, w: &RouteWitness) {
            self.witnesses.push((w.msg, w.fate.clone()));
        }
        fn render(&self, _report: &StreamReport) -> String {
            String::new()
        }
    }

    const TRACE: &str = concat!(
        "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-1\",\"k\":12}\n",
        "{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":3}\n",
        "{\"seq\":1,\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n",
        "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-3\",\"k\":24}\n",
        "{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":2,\"t\":4}\n",
    );

    #[test]
    fn driver_sequences_trials_events_and_witnesses() {
        let mut p = Probe::default();
        let r = run_mode(TRACE.as_bytes(), 16, TailMode::Strict, &mut p).unwrap();
        assert_eq!(r.events, 5);
        assert_eq!(r.trials, 2);
        assert_eq!(r.witnesses, 2);
        assert_eq!(r.bytes, TRACE.len() as u64);
        assert!(!r.truncated_tail);
        assert_eq!(
            p.trials,
            vec![
                (0, "algorithm-1".to_string(), 12),
                (1, "algorithm-3".to_string(), 24)
            ]
        );
        // Two non-header events parsed, one delivered witness at its
        // fate, one in-flight witness drained at end of stream.
        assert_eq!(p.events, 3);
        assert_eq!(
            p.witnesses,
            vec![(0, Some("delivered".to_string())), (0, None)]
        );
    }

    #[test]
    fn strict_mode_rejects_a_torn_tail() {
        let torn = &TRACE[..TRACE.len() - 1];
        let mut p = Probe::default();
        let err = run_mode(torn.as_bytes(), 16, TailMode::Strict, &mut p).unwrap_err();
        assert!(
            matches!(err, StreamError::TruncatedTail { line: 5 }),
            "{err}"
        );
    }

    #[test]
    fn lenient_mode_drops_and_flags_a_torn_tail() {
        let torn = &TRACE[..TRACE.len() - 1];
        let mut p = Probe::default();
        let r = run_mode(torn.as_bytes(), 16, TailMode::Lenient, &mut p).unwrap();
        assert!(r.truncated_tail);
        // The torn final send never reached the fold.
        assert_eq!(r.events, 4);
        assert_eq!(p.witnesses.len(), 1);
    }

    #[test]
    fn json_errors_carry_the_line_number() {
        let text = "{\"ev\":\"send\",\"msg\":0}\nnot json\n";
        let mut p = Probe::default();
        let err = run_mode(text.as_bytes(), 8, TailMode::Strict, &mut p).unwrap_err();
        match err {
            StreamError::Json { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn utf8_errors_carry_the_line_number() {
        let bytes: &[u8] = b"{\"ev\":\"send\",\"msg\":0}\n\xff\xfe\n";
        let mut p = Probe::default();
        let err = run_mode(bytes, 8, TailMode::Strict, &mut p).unwrap_err();
        match err {
            StreamError::Utf8 { line } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn blank_lines_and_newline_terminated_tails_are_fine() {
        let text = "\n{\"ev\":\"send\",\"msg\":0}\n\n";
        let mut p = Probe::default();
        let r = run_mode(text.as_bytes(), 4, TailMode::Strict, &mut p).unwrap();
        assert_eq!(r.events, 1);
    }

    #[test]
    fn integer_ratio_formatting() {
        assert_eq!(ratio4(9732, 10_000), "0.9732");
        assert_eq!(ratio4(1, 3), "0.3333");
        assert_eq!(ratio4(2, 2), "1.0000");
        assert_eq!(ratio4(5, 0), "-");
        assert_eq!(pct1(423, 1000), "42.3%");
        assert_eq!(pct1(1, 0), "-");
    }
}
