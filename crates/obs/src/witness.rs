//! Route witnesses: per-message hop-by-hop journeys reconstructed from
//! a parsed trace.
//!
//! The simulator (at [`Level::Hops`](crate::Level::Hops)) emits, for
//! every message, a `send` event, one `hop` event per forwarding
//! decision (naming the deciding node, the chosen edge, the router
//! rule that fired, the attempt number, and the tick the decider's
//! view was provisioned — the fault context), optional `retry` /
//! `lost` events, a `deliver` event on arrival, and exactly one
//! terminal `fate` event. [`collect_witnesses`] folds that stream back
//! into [`RouteWitness`] values — the unit the simulator's replay
//! checker verifies against the graph (locality: every decision
//! re-derivable from `G_k(u)`; dilation: route length within the
//! router's proven bound) and that `tracecat` ranks and prints.
//!
//! Message ids restart per trial in multi-trial traces (each trial has
//! its own network); the collector therefore treats a fresh `send` for
//! an id as opening a new witness generation rather than an error.

use std::collections::BTreeMap;

use crate::json::{Json, JsonError};

/// One forwarding decision of one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessHop {
    /// Tick the decision was made.
    pub tick: u64,
    /// The deciding node (raw index).
    pub node: u32,
    /// The predecessor the message arrived from (`None` at the
    /// origin).
    pub from: Option<u32>,
    /// The chosen next node.
    pub to: u32,
    /// The router rule that fired (from `decide_explained`).
    pub rule: String,
    /// Source-side attempt this hop belongs to (0 = first).
    pub attempt: u32,
    /// Tick the deciding node's view was last provisioned — the
    /// staleness context under churn.
    pub provisioned_at: u64,
}

/// The reconstructed journey of one message.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteWitness {
    /// Message id (unique within one trial's trace span).
    pub msg: u64,
    /// Origin node.
    pub s: u32,
    /// Destination node.
    pub t: u32,
    /// Injection tick.
    pub sent_at: u64,
    /// Every hop, across all attempts, in emission order.
    pub hops: Vec<WitnessHop>,
    /// Source-side retries performed.
    pub retries: u32,
    /// Terminal fate (`delivered`, `looped`, `errored`, `exhausted`,
    /// `dropped`, `timed_out`, `gave_up`), or `None` if the trace
    /// ended with the message in flight.
    pub fate: Option<String>,
    /// Tick of the fate event.
    pub fate_tick: Option<u64>,
    /// Extra fate context (`why` of a drop, `err` of a router error).
    pub fate_detail: Option<String>,
    /// Delivery tick, when delivered.
    pub delivered_at: Option<u64>,
}

impl RouteWitness {
    /// Whether the message arrived.
    pub fn delivered(&self) -> bool {
        self.fate.as_deref() == Some("delivered")
    }

    /// The hops of the final (possibly only) attempt, in order.
    pub fn final_attempt(&self) -> impl Iterator<Item = &WitnessHop> {
        let last = self.hops.iter().map(|h| h.attempt).max().unwrap_or(0);
        self.hops.iter().filter(move |h| h.attempt == last)
    }

    /// The node sequence of the final attempt: `s`, then each chosen
    /// next node.
    pub fn route(&self) -> Vec<u32> {
        let mut out = vec![self.s];
        out.extend(self.final_attempt().map(|h| h.to));
        out
    }

    /// End-to-end latency in ticks, when delivered.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_at.map(|d| d.saturating_sub(self.sent_at))
    }
}

/// A trace line that failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-indexed line number.
    pub line: usize,
    /// The JSON-level failure.
    pub err: JsonError,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.err)
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSONL trace into one [`Json`] value per non-empty line.
///
/// # Errors
///
/// Returns the first malformed line as a [`TraceError`].
pub fn parse_trace(text: &str) -> Result<Vec<Json<'_>>, TraceError> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(Json::parse(line).map_err(|err| TraceError { line: idx + 1, err })?);
    }
    Ok(out)
}

/// Buffers of finished witnesses, kept for the next messages to reuse:
/// emptied hop lists, and the strings that held rule, fate and detail
/// names. They hold no more than the live witnesses did at their peak.
#[derive(Debug, Default)]
pub(crate) struct Spares {
    lists: Vec<Vec<WitnessHop>>,
    names: Vec<String>,
}

impl Spares {
    /// Takes a finished witness apart into its reusable buffers.
    pub(crate) fn recycle(&mut self, mut w: RouteWitness) {
        self.names.extend(w.hops.drain(..).map(|h| h.rule));
        self.names.extend(w.fate);
        self.names.extend(w.fate_detail);
        self.lists.push(w.hops);
    }

    /// `text` in a reused string when one is spare.
    fn name(&mut self, text: &str) -> String {
        let mut name = self.names.pop().unwrap_or_default();
        name.clear();
        name.push_str(text);
        name
    }
}

/// Builds a fresh witness from a `send` event. Shared by the batch
/// collector below and the streaming `analytics::WitnessFold` so the
/// two folds cannot drift.
pub(crate) fn witness_from_send(
    ev: &Json<'_>,
    tick: u64,
    msg: u64,
    spares: &mut Spares,
) -> RouteWitness {
    RouteWitness {
        msg,
        s: ev.u64_of("s").unwrap_or(0) as u32,
        t: ev.u64_of("t").unwrap_or(0) as u32,
        sent_at: tick,
        hops: spares.lists.pop().unwrap_or_default(),
        ..RouteWitness::default()
    }
}

/// Applies one non-`send` message-scoped event to its open witness.
/// Shared by the batch collector below and the streaming
/// `analytics::WitnessFold`.
pub(crate) fn apply_event(
    w: &mut RouteWitness,
    kind: &str,
    tick: u64,
    ev: &Json<'_>,
    spares: &mut Spares,
) {
    match kind {
        "hop" => w.hops.push(WitnessHop {
            tick,
            node: ev.u64_of("node").unwrap_or(0) as u32,
            from: ev.u64_of("from").map(|v| v as u32),
            to: ev.u64_of("to").unwrap_or(0) as u32,
            rule: spares.name(ev.str_of("rule").unwrap_or("?")),
            attempt: ev.u64_of("att").unwrap_or(0) as u32,
            provisioned_at: ev.u64_of("prov").unwrap_or(0),
        }),
        "retry" => w.retries = ev.u64_of("att").unwrap_or(0) as u32,
        "deliver" => w.delivered_at = Some(tick),
        "fate" => {
            w.fate = ev.str_of("fate").map(|f| spares.name(f));
            w.fate_tick = Some(tick);
            w.fate_detail = ev
                .str_of("why")
                .or_else(|| ev.str_of("err"))
                .map(|d| spares.name(d));
        }
        _ => {}
    }
}

/// Folds a parsed event stream into route witnesses, in `send` order.
/// Events that are not message-scoped (`fault`, `reprov`, trial
/// headers, metrics) are ignored; a repeated `send` for an id opens a new
/// witness generation (multi-trial traces reuse ids).
pub fn collect_witnesses(events: &[Json<'_>]) -> Vec<RouteWitness> {
    let mut out: Vec<RouteWitness> = Vec::new();
    // msg id -> index in `out` of its open (most recent) witness.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    // Nothing is recycled here: every witness is returned.
    let mut spares = Spares::default();
    for ev in events {
        let Some(kind) = ev.str_of("ev") else {
            continue;
        };
        let tick = ev.u64_of("tick").unwrap_or(0);
        let Some(msg) = ev.u64_of("msg") else {
            continue;
        };
        if kind == "send" {
            open.insert(msg, out.len());
            out.push(witness_from_send(ev, tick, msg, &mut spares));
            continue;
        }
        let Some(w) = open.get(&msg).and_then(|&i| out.get_mut(i)) else {
            continue;
        };
        apply_event(w, kind, tick, ev, &mut spares);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n\
{\"seq\":1,\"tick\":0,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":1,\"to\":2,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":2,\"tick\":1,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":2,\"from\":1,\"to\":4,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":3,\"tick\":2,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":2}\n\
{\"seq\":4,\"tick\":2,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n";

    #[test]
    fn collects_a_delivered_witness() {
        let events = parse_trace(TRACE).unwrap();
        let ws = collect_witnesses(&events);
        assert_eq!(ws.len(), 1);
        let w = &ws[0];
        assert_eq!((w.s, w.t, w.sent_at), (1, 4, 0));
        assert!(w.delivered());
        assert_eq!(w.route(), vec![1, 2, 4]);
        assert_eq!(w.latency(), Some(2));
        assert_eq!(w.hops[0].from, None);
        assert_eq!(w.hops[1].from, Some(1));
        assert_eq!(w.hops[1].rule, "greedy");
    }

    #[test]
    fn retries_partition_attempts() {
        let text = "\
{\"tick\":0,\"ev\":\"send\",\"msg\":3,\"s\":0,\"t\":2}\n\
{\"tick\":0,\"ev\":\"hop\",\"msg\":3,\"att\":0,\"node\":0,\"to\":1,\"rule\":\"a\",\"prov\":0}\n\
{\"tick\":9,\"ev\":\"retry\",\"msg\":3,\"att\":1}\n\
{\"tick\":9,\"ev\":\"hop\",\"msg\":3,\"att\":1,\"node\":0,\"to\":2,\"rule\":\"b\",\"prov\":0}\n\
{\"tick\":10,\"ev\":\"fate\",\"msg\":3,\"fate\":\"delivered\"}\n";
        let ws = collect_witnesses(&parse_trace(text).unwrap());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].retries, 1);
        assert_eq!(ws[0].final_attempt().count(), 1);
        assert_eq!(ws[0].route(), vec![0, 2]);
    }

    #[test]
    fn repeated_send_opens_a_new_generation() {
        let text = "\
{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":0,\"t\":1}\n\
{\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"dropped\",\"why\":\"loss\"}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":5,\"t\":6}\n";
        let ws = collect_witnesses(&parse_trace(text).unwrap());
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].fate.as_deref(), Some("dropped"));
        assert_eq!(ws[0].fate_detail.as_deref(), Some("loss"));
        assert_eq!(ws[1].s, 5);
        assert_eq!(ws[1].fate, None, "second generation still in flight");
    }

    #[test]
    fn parse_trace_reports_the_offending_line() {
        let text = "{\"ev\":\"send\"}\n\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
