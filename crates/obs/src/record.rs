//! The [`Recorder`]: a runtime-levelled JSONL event sink.
//!
//! A [`Level`] picks how much a live recorder captures; the hot-path
//! contract is that a disabled recorder costs one branch. Callers
//! typically hold `Option<Box<Recorder>>`, and the simulator's builder
//! drops a recorder at [`Level::Off`], so tracing off is a single
//! pointer test. `bin/perfsmoke` reports that cost as
//! `sim_trace_overhead_pct`, and `scripts/verify.sh` holds it to the
//! ≤2% budget.
//!
//! Every event line is `{"seq":N,"tick":T,"ev":"kind",...}`: a
//! monotone per-recorder sequence number and the **simulation tick**.
//! There are deliberately no wall-clock timestamps — the trace must be
//! a pure function of the seed (lint rule R2 enforces the absence of
//! clock APIs in this crate at the source level), which is what makes
//! `tracecat diff` meaningful across runs, machines, and thread
//! counts.
//!
//! A line is written as it is built. [`Recorder::event`] reserves room
//! for the whole line once, and each field then appends `,"key":` as
//! one copied run (`json::push_key`) and its value; a key or a name
//! with nothing to escape, which is every one the simulator writes, is
//! never taken through the escape loop byte by byte.

use crate::json;
use crate::registry::Metrics;

/// Bytes reserved for each event line as it starts, so its fields do
/// not regrow the buffer one by one: more than any line the simulator
/// writes takes, unless it carries a long error text.
const LINE_BYTES: usize = 256;

/// How much a recorder captures, in increasing order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Level {
    /// Record nothing (a no-op recorder).
    #[default]
    Off,
    /// Aggregate metrics only: counters/gauges/histograms, dumped on
    /// [`Recorder::flush_metrics`]; no per-event lines.
    Metrics,
    /// Route witnesses: sends, hops, deliveries, fates, faults — the
    /// events the replay checker and `tracecat` consume — plus
    /// everything `Metrics` captures.
    Hops,
    /// Engine internals on top of `Hops`: losses at draw time,
    /// parking, per-phase tick activity, scheduler samples.
    Debug,
}

impl Level {
    /// Parses a level name as used by `--trace-level`.
    pub fn from_name(name: &str) -> Option<Level> {
        match name {
            "off" => Some(Level::Off),
            "metrics" => Some(Level::Metrics),
            "hops" => Some(Level::Hops),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The canonical name (`off`, `metrics`, `hops`, `debug`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Metrics => "metrics",
            Level::Hops => "hops",
            Level::Debug => "debug",
        }
    }
}

/// An in-memory JSONL event sink with a metrics registry attached.
#[derive(Debug, Default)]
pub struct Recorder {
    level: Level,
    seq: u64,
    buf: Vec<u8>,
    metrics: Metrics,
}

impl Recorder {
    /// A recorder capturing at `level`.
    pub fn new(level: Level) -> Recorder {
        Recorder {
            level,
            ..Recorder::default()
        }
    }

    /// A no-op recorder ([`Level::Off`]): attached but recording
    /// nothing — the configuration the overhead gate measures.
    pub fn off() -> Recorder {
        Recorder::new(Level::Off)
    }

    /// The runtime level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether events at `at` are captured.
    #[inline]
    pub fn enabled(&self, at: Level) -> bool {
        at != Level::Off && self.level >= at
    }

    /// Starts an event line (kind `ev`, stamped with the next sequence
    /// number and `tick`) if `at` is enabled. The returned [`Event`]
    /// must be [`finish`](Event::finish)ed to terminate the line.
    #[inline]
    pub fn event(&mut self, at: Level, tick: u64, ev: &str) -> Option<Event<'_>> {
        if !self.enabled(at) || at == Level::Metrics {
            return None;
        }
        let buf = &mut self.buf;
        buf.reserve(LINE_BYTES);
        buf.extend_from_slice(b"{\"seq\":");
        json::push_u64(buf, self.seq);
        self.seq += 1;
        buf.extend_from_slice(b",\"tick\":");
        json::push_u64(buf, tick);
        buf.extend_from_slice(b",\"ev\":");
        json::push_str(buf, ev);
        Some(Event { buf })
    }

    /// Adds `by` to counter `name` (when at least [`Level::Metrics`]).
    #[inline]
    pub fn inc(&mut self, name: &'static str, by: u64) {
        if self.enabled(Level::Metrics) {
            self.metrics.inc(name, by);
        }
    }

    /// Records `v` into histogram `name` (when at least
    /// [`Level::Metrics`]).
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if self.enabled(Level::Metrics) {
            self.metrics.observe(name, v);
        }
    }

    /// Raises gauge `name` to `v` (when at least [`Level::Metrics`]).
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, v: i64) {
        if self.enabled(Level::Metrics) {
            self.metrics.gauge_max(name, v);
        }
    }

    /// Sets gauge `name` to `v` (when at least [`Level::Metrics`]).
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, v: i64) {
        if self.enabled(Level::Metrics) {
            self.metrics.gauge_set(name, v);
        }
    }

    /// Read access to the aggregated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Dumps the metrics registry into the event stream as `ctr` /
    /// `gauge` / `hist` lines stamped `tick`, then clears it.
    /// Typically called once, after a run finishes.
    pub fn flush_metrics(&mut self, tick: u64) {
        if !self.enabled(Level::Metrics) || self.metrics.is_empty() {
            return;
        }
        let m = std::mem::take(&mut self.metrics);
        m.dump_jsonl(&mut self.buf, &mut self.seq, tick);
    }

    /// The recorded JSONL so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the recorder, returning its JSONL buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Takes the buffered JSONL, leaving the recorder recording (the
    /// sequence counter keeps running, so lines stay globally ordered).
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// An event line under construction. Field methods chain; call
/// [`finish`](Event::finish) to terminate the line — an unfinished
/// event leaves the buffer mid-line.
#[must_use = "call .finish() to terminate the event line"]
pub struct Event<'a> {
    buf: &'a mut Vec<u8>,
}

impl Event<'_> {
    #[inline]
    fn key(self, key: &str) -> Self {
        json::push_key(self.buf, key);
        self
    }

    /// Adds an unsigned integer field.
    #[inline]
    pub fn u64(self, key: &str, v: u64) -> Self {
        let e = self.key(key);
        json::push_u64(e.buf, v);
        e
    }

    /// Adds a signed integer field.
    #[inline]
    pub fn i64(self, key: &str, v: i64) -> Self {
        let e = self.key(key);
        json::push_i64(e.buf, v);
        e
    }

    /// Adds a string field (escaped).
    #[inline]
    pub fn str(self, key: &str, v: &str) -> Self {
        let e = self.key(key);
        json::push_str(e.buf, v);
        e
    }

    /// Adds a boolean field.
    #[inline]
    pub fn bool(self, key: &str, v: bool) -> Self {
        let e = self.key(key);
        e.buf
            .extend_from_slice(if v { b"true" as &[u8] } else { b"false" });
        e
    }

    /// Adds an unsigned integer field only when present.
    #[inline]
    pub fn opt_u64(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.u64(key, v),
            None => self,
        }
    }

    /// Terminates the line.
    #[inline]
    pub fn finish(self) {
        self.buf.extend_from_slice(b"}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    #[test]
    fn off_recorder_emits_nothing() {
        let mut rec = Recorder::off();
        assert!(!rec.enabled(Level::Metrics));
        assert!(rec.event(Level::Hops, 0, "hop").is_none());
        rec.inc("c", 1);
        rec.observe("h", 1);
        rec.flush_metrics(0);
        assert!(rec.bytes().is_empty());
        assert!(rec.metrics().is_empty());
    }

    #[test]
    fn levels_are_ordered_and_gated() {
        let rec = Recorder::new(Level::Hops);
        assert!(rec.enabled(Level::Metrics));
        assert!(rec.enabled(Level::Hops));
        assert!(!rec.enabled(Level::Debug));
        // `Off` is never "enabled", even by an Off recorder.
        assert!(!Recorder::off().enabled(Level::Off));
    }

    #[test]
    fn events_are_sequenced_and_parseable() {
        let mut rec = Recorder::new(Level::Debug);
        if let Some(e) = rec.event(Level::Hops, 5, "send") {
            e.u64("msg", 1).bool("ok", true).finish();
        }
        if let Some(e) = rec.event(Level::Debug, 6, "park") {
            e.i64("d", -2)
                .opt_u64("skip", None)
                .opt_u64("have", Some(3))
                .finish();
        }
        let text = String::from_utf8(rec.into_bytes()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let a = Json::parse(lines[0]).unwrap();
        assert_eq!(a.u64_of("seq"), Some(0));
        assert_eq!(a.u64_of("tick"), Some(5));
        assert_eq!(a.str_of("ev"), Some("send"));
        assert_eq!(a.get("ok"), Some(&Json::Bool(true)));
        let b = Json::parse(lines[1]).unwrap();
        assert_eq!(b.u64_of("seq"), Some(1));
        assert_eq!(b.get("skip"), None);
        assert_eq!(b.u64_of("have"), Some(3));
        assert_eq!(b.get("d"), Some(&Json::Int(-2)));
    }

    #[test]
    fn metrics_level_aggregates_but_suppresses_event_lines() {
        let mut rec = Recorder::new(Level::Metrics);
        assert!(rec.event(Level::Hops, 0, "hop").is_none());
        rec.inc("hits", 2);
        rec.gauge_max("hw", 7);
        rec.observe("occ", 3);
        assert!(rec.bytes().is_empty());
        rec.flush_metrics(99);
        let text = String::from_utf8(rec.take_bytes()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"tick\":99"));
        // The registry is drained by the flush.
        assert!(rec.metrics().is_empty());
    }

    #[test]
    fn spans_and_take_bytes_keep_sequencing() {
        // Each `take_bytes` cuts the trace into a span (one trial's
        // lines, say); the sequence numbers run on across the cuts.
        let mut rec = Recorder::new(Level::Hops);
        if let Some(e) = rec.event(Level::Hops, 0, "send") {
            e.u64("msg", 0).finish();
        }
        let first = rec.take_bytes();
        if let Some(e) = rec.event(Level::Hops, 9, "fate") {
            e.u64("msg", 0).finish();
        }
        let second = rec.take_bytes();
        let (first, second) = (
            String::from_utf8(first).unwrap(),
            String::from_utf8(second).unwrap(),
        );
        let a = Json::parse(first.trim()).unwrap();
        let b = Json::parse(second.trim()).unwrap();
        assert_eq!(a.u64_of("seq"), Some(0));
        assert_eq!(b.u64_of("seq"), Some(1));
        assert_eq!(b.str_of("ev"), Some("fate"));
    }
}
