//! `summary` mode: the streaming rebuild of the original `tracecat
//! summary` pass — per-tick activity timeline, fate breakdown, and the
//! top-K slowest delivered routes.
//!
//! The batch version materialized every event and witness; this one
//! holds one open tick row, a bounded best-20 timeline set, a fate
//! tally, and a bounded top-K slow-route set — O(K) state regardless
//! of trace size. Selection uses strict total orders (ties broken by
//! arrival order), so greedy bounded top-K is exactly the global
//! top-K and output is identical across chunkings.

use std::collections::BTreeMap;

use super::{tally, Mode, StreamReport, TrialHeader};
use crate::json::Json;
use crate::witness::RouteWitness;

const TIMELINE_ROWS: usize = 20;

/// Counts per event kind over one run of consecutive same-tick events.
#[derive(Clone, Debug, Default)]
struct TickRow {
    sends: u64,
    hops: u64,
    delivers: u64,
    losses: u64,
    retries: u64,
    faults: u64,
}

impl TickRow {
    fn total(&self) -> u64 {
        self.sends + self.hops + self.delivers + self.losses + self.retries + self.faults
    }
}

/// One delivered route in the slow set.
#[derive(Clone, Debug)]
struct SlowRoute {
    latency: u64,
    msg: u64,
    order: u64,
    s: u32,
    t: u32,
    hops: usize,
    retries: u32,
}

/// Streaming activity summary.
#[derive(Debug)]
pub struct SummaryMode {
    top: usize,
    open: Option<(u64, TickRow)>,
    /// Bounded best rows: `(arrival order, tick, row)`.
    best: Vec<(u64, u64, TickRow)>,
    closed_rows: u64,
    fates: BTreeMap<String, u64>,
    slow: Vec<SlowRoute>,
    next_order: u64,
}

impl SummaryMode {
    /// Creates a summary keeping the `top` slowest delivered routes.
    pub fn new(top: usize) -> Self {
        SummaryMode {
            top,
            open: None,
            best: Vec::new(),
            closed_rows: 0,
            fates: BTreeMap::new(),
            slow: Vec::new(),
            next_order: 0,
        }
    }

    fn close_open(&mut self) {
        let Some((tick, row)) = self.open.take() else {
            return;
        };
        let order = self.closed_rows;
        self.closed_rows += 1;
        self.best.push((order, tick, row));
        if self.best.len() > TIMELINE_ROWS {
            // Evict the worst under the strict order (total desc,
            // arrival asc): smallest total, ties to the later arrival.
            if let Some(worst) = self
                .best
                .iter()
                .enumerate()
                .min_by_key(|(_, (order, _, row))| (row.total(), std::cmp::Reverse(*order)))
                .map(|(i, _)| i)
            {
                self.best.swap_remove(worst);
            }
        }
    }
}

impl Mode for SummaryMode {
    fn on_trial(&mut self, _trial: &TrialHeader) {}

    fn on_event(&mut self, _line: usize, ev: &Json<'_>) {
        let Some(kind) = ev.str_of("ev") else {
            return;
        };
        let tick = ev.u64_of("tick").unwrap_or(0);
        if !matches!(self.open, Some((t, _)) if t == tick) {
            self.close_open();
            self.open = Some((tick, TickRow::default()));
        }
        let Some((_, row)) = self.open.as_mut() else {
            return;
        };
        match kind {
            "send" => row.sends += 1,
            "hop" => row.hops += 1,
            "deliver" => row.delivers += 1,
            "lost" => row.losses += 1,
            "retry" => row.retries += 1,
            "fault" => row.faults += 1,
            _ => {}
        }
    }

    fn on_witness(&mut self, w: &RouteWitness) {
        tally(&mut self.fates, w.fate.as_deref().unwrap_or("in_flight"));
        if !w.delivered() {
            return;
        }
        let order = self.next_order;
        self.next_order += 1;
        self.slow.push(SlowRoute {
            latency: w.latency().unwrap_or(0),
            msg: w.msg,
            order,
            s: w.s,
            t: w.t,
            hops: w.final_attempt().count(),
            retries: w.retries,
        });
        if self.slow.len() > self.top {
            // Evict the worst under (latency desc, msg desc, arrival
            // asc): smallest latency, then smallest msg, ties to the
            // later arrival.
            if let Some(worst) = self
                .slow
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.latency, r.msg, std::cmp::Reverse(r.order)))
                .map(|(i, _)| i)
            {
                self.slow.swap_remove(worst);
            }
        }
    }

    fn render(&self, report: &StreamReport) -> String {
        // Final open tick row is closed into a local copy of the
        // bounded set (render takes `&self`).
        let mut best = self.best.clone();
        let mut closed_rows = self.closed_rows;
        if let Some((tick, row)) = self.open.clone() {
            let order = closed_rows;
            closed_rows += 1;
            best.push((order, tick, row));
            if best.len() > TIMELINE_ROWS {
                if let Some(worst) = best
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (order, _, row))| (row.total(), std::cmp::Reverse(*order)))
                    .map(|(i, _)| i)
                {
                    best.swap_remove(worst);
                }
            }
        }
        best.sort_by_key(|&(order, _, _)| order);

        let mut out = String::new();
        out.push_str(&format!(
            "events  {} ({} trial section(s), {} witnesses)\n",
            report.events,
            report.trials.max(1),
            report.witnesses
        ));

        let mut fates: Vec<(&String, &u64)> = self.fates.iter().collect();
        fates.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        out.push_str("fates\n");
        for (tag, n) in fates {
            out.push_str(&format!("  {tag:<10} {n}\n"));
        }

        out.push_str(&format!(
            "timeline (top {} of {} active ticks)\n",
            best.len(),
            closed_rows
        ));
        out.push_str("  tick   sends  hops  deliv  lost  retry  fault\n");
        for (_, tick, r) in &best {
            out.push_str(&format!(
                "  {tick:<6} {:<6} {:<5} {:<6} {:<5} {:<6} {}\n",
                r.sends, r.hops, r.delivers, r.losses, r.retries, r.faults
            ));
        }

        let mut slow = self.slow.clone();
        slow.sort_by_key(|r| (std::cmp::Reverse((r.latency, r.msg)), r.order));
        out.push_str(&format!("slowest delivered routes (top {})\n", slow.len()));
        out.push_str("  msg    s->t       hops  retries  latency\n");
        for r in &slow {
            out.push_str(&format!(
                "  {:<6} {:>3}->{:<5} {:<5} {:<8} {}\n",
                r.msg, r.s, r.t, r.hops, r.retries, r.latency
            ));
        }
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
        "{\"seq\":2,\"tick\":3,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":1}\n",
        "{\"seq\":3,\"tick\":3,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n",
        "{\"seq\":4,\"tick\":5,\"ev\":\"send\",\"msg\":1,\"s\":2,\"t\":9}\n",
        "{\"seq\":5,\"tick\":6,\"ev\":\"fate\",\"msg\":1,\"fate\":\"dropped\",\"why\":\"loss\"}\n",
    );

    fn render(text: &str, top: usize) -> String {
        let mut m = SummaryMode::new(top);
        let r = run_mode(text.as_bytes(), 16, TailMode::Strict, &mut m).unwrap();
        m.render(&r)
    }

    #[test]
    fn summarizes_fates_timeline_and_slow_routes() {
        let text = render(TRACE, 5);
        assert!(
            text.contains("events  7 (1 trial section(s), 2 witnesses)"),
            "{text}"
        );
        assert!(text.contains("  delivered  1"), "{text}");
        assert!(text.contains("  dropped    1"), "{text}");
        assert!(
            text.contains("timeline (top 4 of 4 active ticks)"),
            "{text}"
        );
        assert!(text.contains("slowest delivered routes (top 1)"), "{text}");
        assert!(text.contains("    1->4"), "{text}");
    }

    #[test]
    fn bounded_sets_match_unbounded_selection() {
        // Many distinct ticks: bounded timeline keeps the 20 busiest.
        let mut trace = String::new();
        for i in 0..200u64 {
            // Tick i gets i%7 + 1 hop events.
            for j in 0..=(i % 7) {
                trace.push_str(&format!(
                    "{{\"tick\":{i},\"ev\":\"hop\",\"msg\":{j},\"att\":0,\"node\":0,\"to\":1,\"rule\":\"r\",\"prov\":0}}\n"
                ));
            }
        }
        let text = render(&trace, 3);
        assert!(
            text.contains("timeline (top 20 of 200 active ticks)"),
            "{text}"
        );
        // Only max-weight ticks (7 events, i%7==6) survive; the first
        // twenty such ticks are 6, 13, ..., 139.
        assert!(text.contains("\n  6      0      7"), "{text}");
        assert!(text.contains("\n  139    0      7"), "{text}");
        assert!(!text.contains("\n  146    "), "{text}");
    }
}
