//! `diff` mode: byte-level first-divergence and structured cross-run
//! comparison.
//!
//! Traces are pure functions of the seed, so two runs of the same
//! configuration must be byte-identical — [`first_divergence`] streams
//! both inputs line-by-line through fixed buffers and reports the
//! first differing line (or certifies zero divergence) without ever
//! holding more than two lines in memory. For *intentionally*
//! different runs (other seed, other config), byte-diffing is useless;
//! [`stats_diff`] instead aggregates both streams with
//! [`StatsMode`] and renders a per-trial
//! comparison table ready for EXPERIMENTS.md.

use std::io::Read;

use super::reader::LineReader;
use super::stats::StatsMode;
use super::{run_mode, StreamError, TailMode};

/// Result of a byte-level trace comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffOutcome {
    /// The streams are byte-identical.
    Identical {
        /// Non-blank lines compared.
        events: u64,
        /// Total bytes per stream.
        bytes: u64,
    },
    /// The streams differ, first at this line.
    Diverged {
        /// 1-based line number of the first divergence.
        line: usize,
        /// That line in stream A (`<end of trace>` if A ended).
        a: String,
        /// That line in stream B (`<end of trace>` if B ended).
        b: String,
    },
}

fn render_side(l: Option<&[u8]>) -> String {
    match l {
        Some(bytes) => String::from_utf8_lossy(bytes).into_owned(),
        None => "<end of trace>".to_string(),
    }
}

/// Streams two traces and reports the first diverging line, or
/// certifies zero divergence. A line is compared including its
/// termination state, so a torn tail on one side diverges from a
/// terminated line on the other.
///
/// # Errors
///
/// Reader io failures from either stream (line numbers are per-side).
pub fn first_divergence<A: Read, B: Read>(
    a: A,
    b: B,
    buf_bytes: usize,
) -> Result<DiffOutcome, StreamError> {
    let mut ra = LineReader::new(a, buf_bytes);
    let mut rb = LineReader::new(b, buf_bytes);
    let mut events = 0u64;
    let mut bytes = 0u64;
    loop {
        let la = ra.next_line()?;
        let lb = rb.next_line()?;
        match (&la, &lb) {
            (None, None) => return Ok(DiffOutcome::Identical { events, bytes }),
            (Some(x), Some(y)) if x.bytes == y.bytes && x.terminated == y.terminated => {
                if !x.bytes.iter().all(u8::is_ascii_whitespace) {
                    events += 1;
                }
                bytes += x.bytes.len() as u64 + u64::from(x.terminated);
            }
            _ => {
                let line = la
                    .as_ref()
                    .map(|l| l.number)
                    .max(lb.as_ref().map(|l| l.number))
                    .unwrap_or(0);
                return Ok(DiffOutcome::Diverged {
                    line,
                    a: render_side(la.as_ref().map(|l| l.bytes)),
                    b: render_side(lb.as_ref().map(|l| l.bytes)),
                });
            }
        }
    }
}

/// Aggregates both streams with [`StatsMode`] and renders the
/// structured per-trial comparison table (`tracecat diff --stats`).
///
/// # Errors
///
/// The first [`StreamError`] from either stream.
pub fn stats_diff<A: Read, B: Read>(
    a: A,
    b: B,
    buf_bytes: usize,
    tail: TailMode,
    label_a: &str,
    label_b: &str,
) -> Result<String, StreamError> {
    let mut sa = StatsMode::new();
    run_mode(a, buf_bytes, tail, &mut sa)?;
    let mut sb = StatsMode::new();
    run_mode(b, buf_bytes, tail, &mut sb)?;
    Ok(sa.comparison(&sb, label_a, label_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_count_events_and_bytes() {
        let t =
            "{\"ev\":\"send\",\"msg\":0}\n\n{\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n";
        let got = first_divergence(t.as_bytes(), t.as_bytes(), 8).unwrap();
        assert_eq!(
            got,
            DiffOutcome::Identical {
                events: 2,
                bytes: t.len() as u64
            }
        );
    }

    #[test]
    fn reports_the_first_differing_line() {
        let a = "same\nalpha\nrest\n";
        let b = "same\nbeta\nrest\n";
        let got = first_divergence(a.as_bytes(), b.as_bytes(), 4).unwrap();
        assert_eq!(
            got,
            DiffOutcome::Diverged {
                line: 2,
                a: "alpha".to_string(),
                b: "beta".to_string()
            }
        );
    }

    #[test]
    fn a_prefix_diverges_at_end_of_trace() {
        let a = "one\n";
        let b = "one\ntwo\n";
        let got = first_divergence(a.as_bytes(), b.as_bytes(), 4).unwrap();
        assert_eq!(
            got,
            DiffOutcome::Diverged {
                line: 2,
                a: "<end of trace>".to_string(),
                b: "two".to_string()
            }
        );
    }

    #[test]
    fn a_torn_tail_diverges_from_a_terminated_one() {
        let a = "one\ntwo\n";
        let b = "one\ntwo";
        let got = first_divergence(a.as_bytes(), b.as_bytes(), 4).unwrap();
        assert!(
            matches!(got, DiffOutcome::Diverged { line: 2, .. }),
            "{got:?}"
        );
    }

    #[test]
    fn stats_diff_renders_a_comparison_table() {
        let a = concat!(
            "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-1\",\"k\":12}\n",
            "{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":2}\n",
            "{\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n",
        );
        let b = concat!(
            "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-1\",\"k\":12}\n",
            "{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":2}\n",
            "{\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"dropped\",\"why\":\"loss\"}\n",
        );
        let table = stats_diff(
            a.as_bytes(),
            b.as_bytes(),
            16,
            TailMode::Strict,
            "seed 7",
            "seed 8",
        )
        .unwrap();
        assert!(table.contains("A = seed 7"), "{table}");
        assert!(
            table.contains("| 0 | algorithm-1 | 12 | 1 | 1 | 1 | 0 | -1 |"),
            "{table}"
        );
    }
}
