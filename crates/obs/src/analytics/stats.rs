//! `stats` mode: per-trial / per-fate / per-rule aggregation with
//! power-of-two-bucket percentiles.
//!
//! Holds one [`TrialStats`] row per trial header plus a corpus-wide
//! rule tally — O(trials + rules), never O(trace). All rendering is
//! integer-only (ratios via [`ratio4`]), so output is
//! byte-identical across platforms and input chunkings.

use std::collections::BTreeMap;

use super::{pct1, ratio4, tally, Mode, StreamReport, TrialHeader};
use crate::hist::PowHistogram;
use crate::json::Json;
use crate::witness::RouteWitness;

/// Canonical fate column order (the conservation-counter order);
/// unknown fates follow, sorted.
const FATE_ORDER: [&str; 10] = [
    "delivered",
    "looped",
    "errored",
    "exhausted",
    "dropped",
    "timed_out",
    "gave_up",
    "rejected",
    "shed",
    "in_flight",
];

/// Aggregates for one trial section.
#[derive(Clone, Debug, Default)]
pub struct TrialStats {
    /// Router name from the trial header (`-` for headerless traces).
    pub router: String,
    /// Locality parameter from the trial header.
    pub k: u32,
    /// Messages sent (witnesses folded).
    pub sent: u64,
    /// Source-side retries summed over all messages.
    pub retries: u64,
    /// Terminal fate tallies (`in_flight` for unterminated messages).
    pub fates: BTreeMap<String, u64>,
    /// Final-attempt route lengths of delivered messages.
    pub hops: PowHistogram,
    /// End-to-end latencies (ticks) of delivered messages.
    pub latency: PowHistogram,
}

impl TrialStats {
    /// Delivered-message count.
    pub fn delivered(&self) -> u64 {
        self.fates.get("delivered").copied().unwrap_or(0)
    }
}

/// Streaming per-trial statistics.
#[derive(Debug, Default)]
pub struct StatsMode {
    pub(crate) rows: Vec<TrialStats>,
    pub(crate) rules: BTreeMap<String, u64>,
}

impl StatsMode {
    /// Creates an empty stats aggregator.
    pub fn new() -> Self {
        StatsMode::default()
    }

    /// Fate columns present in this corpus: canonical order first,
    /// then unknown tags sorted.
    fn fate_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = FATE_ORDER
            .iter()
            .filter(|f| self.rows.iter().any(|r| r.fates.contains_key(**f)))
            .map(|f| f.to_string())
            .collect();
        let mut extra: Vec<String> = self
            .rows
            .iter()
            .flat_map(|r| r.fates.keys())
            .filter(|f| !FATE_ORDER.contains(&f.as_str()))
            .cloned()
            .collect();
        extra.sort();
        extra.dedup();
        cols.extend(extra);
        cols
    }

    /// Compares two stats runs row-by-row (matched by trial index) as
    /// an EXPERIMENTS.md-ready markdown table. Used by
    /// `tracecat diff --stats` for cross-seed / cross-config reports.
    pub fn comparison(&self, other: &StatsMode, label_a: &str, label_b: &str) -> String {
        let mut out = String::new();
        out.push_str("# tracecat diff --stats\n\n");
        out.push_str(&format!("A = {label_a}\nB = {label_b}\n\n"));
        out.push_str(
            "| trial | router | k | sent A | sent B | delivered A | delivered B | \
             Δdelivered | retries A | retries B | lat p95 A | lat p95 B |\n",
        );
        out.push_str(
            "|------:|:-------|--:|-------:|-------:|------------:|------------:|\
             -----------:|----------:|----------:|----------:|----------:|\n",
        );
        let n = self.rows.len().max(other.rows.len());
        let empty = TrialStats::default();
        for i in 0..n {
            let a = self.rows.get(i).unwrap_or(&empty);
            let b = other.rows.get(i).unwrap_or(&empty);
            let (router, k) = if self.rows.get(i).is_some() {
                (a.router.as_str(), a.k)
            } else {
                (b.router.as_str(), b.k)
            };
            let delta = b.delivered() as i64 - a.delivered() as i64;
            out.push_str(&format!(
                "| {i} | {router} | {k} | {} | {} | {} | {} | {delta:+} | {} | {} | {} | {} |\n",
                a.sent,
                b.sent,
                a.delivered(),
                b.delivered(),
                a.retries,
                b.retries,
                opt(a.latency.p95()),
                opt(b.latency.p95()),
            ));
            if self.rows.get(i).is_some()
                && other.rows.get(i).is_some()
                && (a.router != b.router || a.k != b.k)
            {
                out.push_str(&format!(
                    "| | ⚠ trial {i} mismatch: A is {}/k={}, B is {}/k={} | | | | | | | | | | |\n",
                    a.router, a.k, b.router, b.k
                ));
            }
        }
        out
    }
}

/// Renders `None` as `-` for table cells.
fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

impl Mode for StatsMode {
    fn on_trial(&mut self, trial: &TrialHeader) {
        self.rows.push(TrialStats {
            router: trial.router.clone(),
            k: trial.k,
            ..TrialStats::default()
        });
    }

    fn on_event(&mut self, _line: usize, ev: &Json<'_>) {
        if ev.str_of("ev") == Some("hop") {
            tally(&mut self.rules, ev.str_of("rule").unwrap_or("?"));
        }
    }

    fn on_witness(&mut self, w: &RouteWitness) {
        if self.rows.is_empty() {
            self.rows.push(TrialStats {
                router: "-".to_string(),
                ..TrialStats::default()
            });
        }
        let Some(row) = self.rows.last_mut() else {
            return;
        };
        row.sent += 1;
        row.retries += u64::from(w.retries);
        tally(&mut row.fates, w.fate.as_deref().unwrap_or("in_flight"));
        if w.delivered() {
            row.hops.observe(w.final_attempt().count() as u64);
            if let Some(lat) = w.latency() {
                row.latency.observe(lat);
            }
        }
    }

    fn render(&self, report: &StreamReport) -> String {
        let mut out = String::new();
        out.push_str("# tracecat stats\n\n## trials\n\n");
        out.push_str(
            "| trial | router | k | sent | delivered | ratio | retries | \
             hops p50/p95/max | lat p50/p95/max |\n",
        );
        out.push_str(
            "|------:|:-------|--:|-----:|----------:|------:|--------:|\
             :-----------------|:----------------|\n",
        );
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "| {i} | {} | {} | {} | {} | {} | {} | {}/{}/{} | {}/{}/{} |\n",
                r.router,
                r.k,
                r.sent,
                r.delivered(),
                ratio4(r.delivered(), r.sent),
                r.retries,
                opt(r.hops.p50()),
                opt(r.hops.p95()),
                opt(r.hops.max()),
                opt(r.latency.p50()),
                opt(r.latency.p95()),
                opt(r.latency.max()),
            ));
        }

        let cols = self.fate_columns();
        if !cols.is_empty() {
            out.push_str("\n## fates\n\n| trial | router |");
            for c in &cols {
                out.push_str(&format!(" {c} |"));
            }
            out.push_str("\n|------:|:-------|");
            for _ in &cols {
                out.push_str("--:|");
            }
            out.push('\n');
            for (i, r) in self.rows.iter().enumerate() {
                out.push_str(&format!("| {i} | {} |", r.router));
                for c in &cols {
                    out.push_str(&format!(" {} |", r.fates.get(c).copied().unwrap_or(0)));
                }
                out.push('\n');
            }
        }

        if !self.rules.is_empty() {
            let total: u64 = self.rules.values().sum();
            out.push_str("\n## rules\n\n| rule | hops | share |\n|:-----|-----:|------:|\n");
            for (rule, n) in &self.rules {
                out.push_str(&format!("| {rule} | {n} | {} |\n", pct1(*n, total)));
            }
        }

        out.push_str(&format!(
            "\nstream: {} events, {} trials, {} witnesses, {} bytes{}\n",
            report.events,
            report.trials,
            report.witnesses,
            report.bytes,
            if report.truncated_tail {
                " (truncated tail dropped)"
            } else {
                ""
            },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::{run_mode, TailMode};

    const TRACE: &str = concat!(
        "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-1\",\"k\":12}\n",
        "{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n",
        "{\"seq\":1,\"tick\":0,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":1,\"to\":4,\"rule\":\"greedy\",\"prov\":0}\n",
        "{\"seq\":2,\"tick\":1,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":1}\n",
        "{\"seq\":3,\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n",
        "{\"seq\":4,\"tick\":2,\"ev\":\"send\",\"msg\":1,\"s\":2,\"t\":9}\n",
        "{\"seq\":5,\"tick\":3,\"ev\":\"fate\",\"msg\":1,\"fate\":\"dropped\",\"why\":\"loss\"}\n",
    );

    fn run(text: &str) -> (StatsMode, StreamReport) {
        let mut m = StatsMode::new();
        let r = run_mode(text.as_bytes(), 32, TailMode::Strict, &mut m).unwrap();
        (m, r)
    }

    #[test]
    fn aggregates_per_trial_fates_and_rules() {
        let (m, _) = run(TRACE);
        assert_eq!(m.rows.len(), 1);
        let r = &m.rows[0];
        assert_eq!((r.router.as_str(), r.k, r.sent), ("algorithm-1", 12, 2));
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.fates.get("dropped"), Some(&1));
        assert_eq!(r.hops.count(), 1);
        assert_eq!(r.latency.max(), Some(1));
        assert_eq!(m.rules.get("greedy"), Some(&1));
    }

    #[test]
    fn render_is_integer_only_markdown() {
        let (m, rep) = run(TRACE);
        let text = m.render(&rep);
        assert!(
            text.contains("| 0 | algorithm-1 | 12 | 2 | 1 | 0.5000 | 0 |"),
            "{text}"
        );
        assert!(text.contains("## fates"), "{text}");
        assert!(text.contains("| greedy | 1 | 100.0% |"), "{text}");
        assert!(
            text.contains("stream: 7 events, 1 trials, 2 witnesses,"),
            "{text}"
        );
    }

    #[test]
    fn headerless_trace_gets_a_synthetic_row() {
        let text = "{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":2}\n";
        let (m, _) = run(text);
        assert_eq!(m.rows.len(), 1);
        assert_eq!(m.rows[0].router, "-");
        assert_eq!(m.rows[0].fates.get("in_flight"), Some(&1));
    }

    #[test]
    fn comparison_emits_signed_deltas() {
        let (a, _) = run(TRACE);
        let (b, _) = run(TRACE);
        let table = a.comparison(&b, "seed 7", "seed 8");
        assert!(
            table.contains("| 0 | algorithm-1 | 12 | 2 | 2 | 1 | 1 | +0 |"),
            "{table}"
        );
    }
}
