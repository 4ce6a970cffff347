//! `loops` mode: routing-loop detection and storage from hop
//! sequences.
//!
//! A routing loop is a node revisited within one attempt's route. The
//! paper's algorithms are provably loop-free on static graphs, so
//! every loop in a trace is fault-induced (stale views under churn) —
//! this mode counts them per trial, tracks cycle lengths in a
//! [`PowHistogram`], and stores a bounded set of example cycles.

use super::{pct1, Mode, StreamReport, TrialHeader};
use crate::hist::PowHistogram;
use crate::witness::RouteWitness;

/// Bounded number of stored example cycles.
const EXAMPLES: usize = 10;

/// Scans each attempt of a witness for its first revisited node:
/// calls `found(attempt, cycle)` for it, in attempt order, where
/// `cycle` runs from the node's first visit back to it. `seen` is
/// scratch, so a caller that keeps it allocates nothing per witness.
fn for_each_loop(w: &RouteWitness, seen: &mut Vec<u32>, mut found: impl FnMut(u32, &[u32])) {
    let attempts = || w.hops.iter().map(|h| h.attempt);
    let mut next = attempts().min();
    while let Some(attempt) = next {
        // Node sequence of this attempt: the origin, then each chosen
        // next node.
        seen.clear();
        seen.push(w.s);
        for h in w.hops.iter().filter(|h| h.attempt == attempt) {
            let first = seen.iter().position(|&n| n == h.to);
            seen.push(h.to);
            if let Some(first) = first {
                found(attempt, seen.get(first..).unwrap_or_default());
                break;
            }
        }
        next = attempts().filter(|&a| a > attempt).min();
    }
}

/// Per-trial loop tallies.
#[derive(Clone, Debug, Default)]
struct TrialLoops {
    router: String,
    k: u32,
    witnesses: u64,
    looped_msgs: u64,
    loops: u64,
    looped_fates: u64,
}

/// Streaming routing-loop analysis.
#[derive(Debug, Default)]
pub struct LoopsMode {
    rows: Vec<TrialLoops>,
    cycle_len: PowHistogram,
    examples: Vec<String>,
    /// Scratch node sequence for [`for_each_loop`].
    seen: Vec<u32>,
}

impl LoopsMode {
    /// Creates an empty loop analyzer.
    pub fn new() -> Self {
        LoopsMode::default()
    }
}

impl Mode for LoopsMode {
    fn on_trial(&mut self, trial: &TrialHeader) {
        self.rows.push(TrialLoops {
            router: trial.router.clone(),
            k: trial.k,
            ..TrialLoops::default()
        });
    }

    fn on_witness(&mut self, w: &RouteWitness) {
        let trial = self.rows.len().saturating_sub(1);
        if self.rows.is_empty() {
            self.rows.push(TrialLoops {
                router: "-".to_string(),
                ..TrialLoops::default()
            });
        }
        let LoopsMode {
            rows,
            cycle_len,
            examples,
            seen,
        } = self;
        let Some(row) = rows.last_mut() else {
            return;
        };
        row.witnesses += 1;
        if w.fate.as_deref() == Some("looped") {
            row.looped_fates += 1;
        }
        let mut loops = 0;
        for_each_loop(w, seen, |attempt, cycle| {
            loops += 1;
            cycle_len.observe(cycle.len().saturating_sub(1) as u64);
            if examples.len() < EXAMPLES {
                let path: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
                examples.push(format!(
                    "trial {trial} msg {} att {attempt} fate {}: {}",
                    w.msg,
                    w.fate.as_deref().unwrap_or("in_flight"),
                    path.join("->")
                ));
            }
        });
        if loops > 0 {
            row.looped_msgs += 1;
            row.loops += loops;
        }
    }

    fn render(&self, report: &StreamReport) -> String {
        let mut out = String::new();
        out.push_str("# tracecat loops\n\n");
        out.push_str(
            "| trial | router | k | witnesses | msgs w/ loop | loops | looped fate | loop share |\n",
        );
        out.push_str(
            "|------:|:-------|--:|----------:|-------------:|------:|------------:|-----------:|\n",
        );
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "| {i} | {} | {} | {} | {} | {} | {} | {} |\n",
                r.router,
                r.k,
                r.witnesses,
                r.looped_msgs,
                r.loops,
                r.looped_fates,
                pct1(r.looped_msgs, r.witnesses),
            ));
        }
        out.push_str(&format!("\ncycle lengths: {:?}\n", self.cycle_len));
        if !self.examples.is_empty() {
            out.push_str(&format!("\nexamples (first {}):\n", self.examples.len()));
            for e in &self.examples {
                out.push_str(&format!("  {e}\n"));
            }
        }
        out.push_str(&format!(
            "\nstream: {} events, {} trials, {} witnesses\n",
            report.events, report.trials, report.witnesses
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::{run_mode, TailMode};
    use crate::witness::{collect_witnesses, parse_trace};

    /// Every `(attempt, cycle)` the scan finds in the trace's first
    /// witness.
    fn loops_of(trace: &str) -> Vec<(u32, Vec<u32>)> {
        let ws = collect_witnesses(&parse_trace(trace).unwrap());
        let mut out = Vec::new();
        for_each_loop(&ws[0], &mut Vec::new(), |attempt, cycle| {
            out.push((attempt, cycle.to_vec()));
        });
        out
    }

    fn hop(tick: u64, msg: u64, att: u32, node: u32, to: u32) -> String {
        format!(
            "{{\"tick\":{tick},\"ev\":\"hop\",\"msg\":{msg},\"att\":{att},\"node\":{node},\"to\":{to},\"rule\":\"r\",\"prov\":0}}\n"
        )
    }

    #[test]
    fn detects_a_cycle_within_one_attempt() {
        let mut t = String::from("{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":9}\n");
        // 1 -> 2 -> 3 -> 2: node 2 revisited, cycle 2->3->2.
        t.push_str(&hop(0, 0, 0, 1, 2));
        t.push_str(&hop(1, 0, 0, 2, 3));
        t.push_str(&hop(2, 0, 0, 3, 2));
        assert_eq!(loops_of(&t), vec![(0, vec![2, 3, 2])]);
    }

    #[test]
    fn revisiting_the_origin_is_a_loop() {
        let mut t = String::from("{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":5,\"t\":9}\n");
        t.push_str(&hop(0, 0, 0, 5, 6));
        t.push_str(&hop(1, 0, 0, 6, 5));
        assert_eq!(loops_of(&t), vec![(0, vec![5, 6, 5])]);
    }

    #[test]
    fn attempts_are_scanned_independently() {
        let mut t = String::from("{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":9}\n");
        // Attempt 0 visits 2; attempt 1 also visits 2 — not a loop,
        // attempts restart from s.
        t.push_str(&hop(0, 0, 0, 1, 2));
        t.push_str(&hop(5, 0, 1, 1, 2));
        t.push_str(&hop(6, 0, 1, 2, 9));
        assert!(loops_of(&t).is_empty());
    }

    #[test]
    fn loop_free_route_yields_nothing() {
        let mut t = String::from("{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n");
        t.push_str(&hop(0, 0, 0, 1, 2));
        t.push_str(&hop(1, 0, 0, 2, 3));
        t.push_str(&hop(2, 0, 0, 3, 4));
        assert!(loops_of(&t).is_empty());
    }

    #[test]
    fn mode_counts_and_stores_examples() {
        let mut trace = String::from(
            "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-2\",\"k\":6}\n",
        );
        trace.push_str("{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":9}\n");
        trace.push_str(&hop(0, 0, 0, 1, 2));
        trace.push_str(&hop(1, 0, 0, 2, 1));
        trace.push_str("{\"tick\":2,\"ev\":\"fate\",\"msg\":0,\"fate\":\"looped\"}\n");
        trace.push_str("{\"tick\":3,\"ev\":\"send\",\"msg\":1,\"s\":3,\"t\":4}\n");
        trace.push_str(&hop(3, 1, 0, 3, 4));
        trace.push_str("{\"tick\":4,\"ev\":\"fate\",\"msg\":1,\"fate\":\"delivered\"}\n");
        let mut m = LoopsMode::new();
        let rep = run_mode(trace.as_bytes(), 16, TailMode::Strict, &mut m).unwrap();
        let text = m.render(&rep);
        assert!(
            text.contains("| 0 | algorithm-2 | 6 | 2 | 1 | 1 | 1 | 50.0% |"),
            "{text}"
        );
        assert!(
            text.contains("trial 0 msg 0 att 0 fate looped: 1->2->1"),
            "{text}"
        );
        assert!(text.contains("cycle lengths: p2{n=1"), "{text}");
    }
}
