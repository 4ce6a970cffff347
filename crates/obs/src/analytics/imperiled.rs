//! `imperiled` mode: deliveries that almost didn't happen.
//!
//! A delivered message is *imperiled* when it survived only through
//! the fault machinery: it needed source-side retries, it landed close
//! to the timeout horizon, or its final attempt routed through a node
//! whose view was re-provisioned after the send (i.e. the original
//! view had gone stale under churn and delivery depended on repair).
//! The classifier [`classify`] is public so the simulator's replay
//! layer can apply the same taxonomy.

use super::{pct1, Mode, StreamReport, TrialHeader};
use crate::witness::RouteWitness;

/// Bounded number of stored example deliveries.
const EXAMPLES: usize = 10;

/// Why a delivered message counts as imperiled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Peril {
    /// Needed at least one source-side retry.
    pub retry_saved: bool,
    /// Latency within the final quarter of the timeout horizon
    /// (`latency * 4 >= timeout * 3`).
    pub near_timeout: bool,
    /// A final-attempt hop was decided on a view provisioned after the
    /// send — delivery depended on re-provisioning.
    pub reprov_saved: bool,
}

impl Peril {
    /// Whether any peril flag is set.
    pub fn any(&self) -> bool {
        self.retry_saved || self.near_timeout || self.reprov_saved
    }

    /// Compact flag rendering, e.g. `retry+reprov`.
    pub fn tags(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.retry_saved {
            parts.push("retry");
        }
        if self.near_timeout {
            parts.push("near-timeout");
        }
        if self.reprov_saved {
            parts.push("reprov");
        }
        if parts.is_empty() {
            parts.push("clean");
        }
        parts.join("+")
    }
}

/// Classifies a delivered witness. Returns `None` for non-delivered
/// messages; `timeout` enables the near-timeout test (in ticks, the
/// fault plan's delivery deadline).
pub fn classify(w: &RouteWitness, timeout: Option<u64>) -> Option<Peril> {
    if !w.delivered() {
        return None;
    }
    let latency = w.latency().unwrap_or(0);
    let near_timeout = match timeout {
        Some(t) if t > 0 => latency.saturating_mul(4) >= t.saturating_mul(3),
        _ => false,
    };
    let reprov_saved = w.final_attempt().any(|h| h.provisioned_at > w.sent_at);
    Some(Peril {
        retry_saved: w.retries > 0,
        near_timeout,
        reprov_saved,
    })
}

/// Per-trial imperiled tallies.
#[derive(Clone, Debug, Default)]
struct TrialPeril {
    router: String,
    k: u32,
    delivered: u64,
    clean: u64,
    retry_saved: u64,
    near_timeout: u64,
    reprov_saved: u64,
    imperiled: u64,
}

/// One stored example, kept bounded by worst latency.
#[derive(Clone, Debug)]
struct Example {
    latency: u64,
    trial: usize,
    msg: u64,
    order: u64,
    line: String,
}

/// Streaming imperiled-delivery classification.
#[derive(Debug)]
pub struct ImperiledMode {
    timeout: Option<u64>,
    rows: Vec<TrialPeril>,
    examples: Vec<Example>,
    next_order: u64,
}

impl ImperiledMode {
    /// Creates a classifier; `timeout` (ticks) enables the
    /// near-timeout test.
    pub fn new(timeout: Option<u64>) -> Self {
        ImperiledMode {
            timeout,
            rows: Vec::new(),
            examples: Vec::new(),
            next_order: 0,
        }
    }
}

impl Mode for ImperiledMode {
    fn on_trial(&mut self, trial: &TrialHeader) {
        self.rows.push(TrialPeril {
            router: trial.router.clone(),
            k: trial.k,
            ..TrialPeril::default()
        });
    }

    fn on_witness(&mut self, w: &RouteWitness) {
        let Some(peril) = classify(w, self.timeout) else {
            return;
        };
        if self.rows.is_empty() {
            self.rows.push(TrialPeril {
                router: "-".to_string(),
                ..TrialPeril::default()
            });
        }
        let trial = self.rows.len().saturating_sub(1);
        let Some(row) = self.rows.last_mut() else {
            return;
        };
        row.delivered += 1;
        if !peril.any() {
            row.clean += 1;
            return;
        }
        row.imperiled += 1;
        row.retry_saved += u64::from(peril.retry_saved);
        row.near_timeout += u64::from(peril.near_timeout);
        row.reprov_saved += u64::from(peril.reprov_saved);

        let latency = w.latency().unwrap_or(0);
        let order = self.next_order;
        self.next_order += 1;
        self.examples.push(Example {
            latency,
            trial,
            msg: w.msg,
            order,
            line: format!(
                "trial {trial} msg {} {}->{} latency {latency} retries {}: {}",
                w.msg,
                w.s,
                w.t,
                w.retries,
                peril.tags()
            ),
        });
        if self.examples.len() > EXAMPLES {
            // Keep the worst-latency examples; strict order (latency
            // desc, trial asc, msg asc, arrival asc).
            if let Some(worst) = self
                .examples
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| {
                    (
                        e.latency,
                        std::cmp::Reverse(e.trial),
                        std::cmp::Reverse(e.msg),
                        std::cmp::Reverse(e.order),
                    )
                })
                .map(|(i, _)| i)
            {
                self.examples.swap_remove(worst);
            }
        }
    }

    fn render(&self, report: &StreamReport) -> String {
        let mut out = String::new();
        out.push_str("# tracecat imperiled\n\n");
        match self.timeout {
            Some(t) => out.push_str(&format!("timeout horizon: {t} ticks\n\n")),
            None => out.push_str("timeout horizon: none (near-timeout test disabled)\n\n"),
        }
        out.push_str(
            "| trial | router | k | delivered | clean | imperiled | retry-saved | \
             near-timeout | reprov-saved | imperiled share |\n",
        );
        out.push_str(
            "|------:|:-------|--:|----------:|------:|----------:|------------:|\
             -------------:|-------------:|----------------:|\n",
        );
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "| {i} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                r.router,
                r.k,
                r.delivered,
                r.clean,
                r.imperiled,
                r.retry_saved,
                r.near_timeout,
                r.reprov_saved,
                pct1(r.imperiled, r.delivered),
            ));
        }
        if !self.examples.is_empty() {
            let mut ex = self.examples.clone();
            ex.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.trial, e.msg, e.order));
            out.push_str(&format!(
                "\nworst imperiled deliveries (top {}):\n",
                ex.len()
            ));
            for e in &ex {
                out.push_str(&format!("  {}\n", e.line));
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

    fn delivered(msg: u64, retries: u32, sent: u64, arrive: u64, prov: u64) -> String {
        let mut t = format!("{{\"tick\":{sent},\"ev\":\"send\",\"msg\":{msg},\"s\":1,\"t\":4}}\n");
        t.push_str(&format!(
            "{{\"tick\":{sent},\"ev\":\"hop\",\"msg\":{msg},\"att\":{retries},\"node\":1,\"to\":4,\"rule\":\"r\",\"prov\":{prov}}}\n"
        ));
        if retries > 0 {
            t.push_str(&format!(
                "{{\"tick\":{sent},\"ev\":\"retry\",\"msg\":{msg},\"att\":{retries}}}\n"
            ));
        }
        t.push_str(&format!(
            "{{\"tick\":{arrive},\"ev\":\"deliver\",\"msg\":{msg},\"node\":4,\"hops\":1}}\n"
        ));
        t.push_str(&format!(
            "{{\"tick\":{arrive},\"ev\":\"fate\",\"msg\":{msg},\"fate\":\"delivered\"}}\n"
        ));
        t
    }

    #[test]
    fn classifies_retry_near_timeout_and_reprov() {
        let mut trace = String::new();
        trace.push_str(&delivered(0, 0, 0, 5, 0)); // clean
        trace.push_str(&delivered(1, 2, 10, 20, 0)); // retry-saved
        trace.push_str(&delivered(2, 0, 0, 190, 0)); // near 192-tick timeout
        trace.push_str(&delivered(3, 0, 100, 110, 150)); // reprov-saved
        let ws = collect_witnesses(&parse_trace(&trace).unwrap());
        let timeout = Some(192);
        let p0 = classify(&ws[0], timeout).unwrap();
        assert!(!p0.any());
        assert_eq!(p0.tags(), "clean");
        let p1 = classify(&ws[1], timeout).unwrap();
        assert!(p1.retry_saved && !p1.near_timeout && !p1.reprov_saved);
        let p2 = classify(&ws[2], timeout).unwrap();
        assert!(p2.near_timeout && !p2.retry_saved);
        let p3 = classify(&ws[3], timeout).unwrap();
        assert!(p3.reprov_saved);
        assert_eq!(p3.tags(), "reprov");
    }

    #[test]
    fn undelivered_messages_are_not_classified() {
        let trace = "{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n";
        let ws = collect_witnesses(&parse_trace(trace).unwrap());
        assert_eq!(classify(&ws[0], Some(100)), None);
    }

    #[test]
    fn near_timeout_boundary_is_three_quarters() {
        let mut trace = String::new();
        trace.push_str(&delivered(0, 0, 0, 75, 0));
        trace.push_str(&delivered(1, 0, 0, 74, 0));
        let ws = collect_witnesses(&parse_trace(&trace).unwrap());
        assert!(classify(&ws[0], Some(100)).unwrap().near_timeout);
        assert!(!classify(&ws[1], Some(100)).unwrap().near_timeout);
        // No horizon disables the near-timeout peril entirely.
        assert!(!classify(&ws[0], None).unwrap().near_timeout);
    }

    #[test]
    fn mode_renders_per_trial_table_and_examples() {
        let mut trace = String::from(
            "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-3\",\"k\":24}\n",
        );
        trace.push_str(&delivered(0, 0, 0, 5, 0));
        trace.push_str(&delivered(1, 1, 10, 20, 0));
        let mut m = ImperiledMode::new(Some(192));
        let rep = run_mode(trace.as_bytes(), 16, TailMode::Strict, &mut m).unwrap();
        let text = m.render(&rep);
        assert!(text.contains("timeout horizon: 192 ticks"), "{text}");
        assert!(
            text.contains("| 0 | algorithm-3 | 24 | 2 | 1 | 1 | 1 | 0 | 0 | 50.0% |"),
            "{text}"
        );
        assert!(
            text.contains("msg 1 1->4 latency 10 retries 1: retry"),
            "{text}"
        );
    }
}
