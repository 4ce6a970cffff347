//! Incremental witness fold: the streaming counterpart of
//! [`collect_witnesses`](crate::collect_witnesses).
//!
//! Holds only the witnesses of messages still in flight (a `BTreeMap`
//! keyed by message id — deterministic iteration, R2), emitting each
//! witness the moment its terminal `fate` arrives. This is what bounds
//! analytics memory by O(live messages) instead of O(trace size): a
//! chaos trial keeps at most one batch in flight at a time, so the
//! fold's footprint is independent of how many trials stream past.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::witness::{apply_event, witness_from_send, RouteWitness, Spares};

/// Streaming fold from message-scoped events to completed
/// [`RouteWitness`] values.
#[derive(Debug, Default)]
pub struct WitnessFold {
    open: BTreeMap<u64, RouteWitness>,
    spares: Spares,
}

impl WitnessFold {
    /// Creates an empty fold.
    pub fn new() -> Self {
        WitnessFold::default()
    }

    /// Number of messages currently in flight.
    pub fn live(&self) -> usize {
        self.open.len()
    }

    /// Feeds one parsed event. Returns a witness the event *completed*:
    /// a terminal `fate` closes its message, and a repeated `send`
    /// (id reuse within a trace span) closes the displaced in-flight
    /// witness. Non-message events return `None` untouched.
    pub fn feed(&mut self, ev: &Json<'_>) -> Option<RouteWitness> {
        let kind = ev.str_of("ev")?;
        let tick = ev.u64_of("tick").unwrap_or(0);
        let msg = ev.u64_of("msg")?;
        if kind == "send" {
            let w = witness_from_send(ev, tick, msg, &mut self.spares);
            return self.open.insert(msg, w);
        }
        if kind == "fate" {
            let mut w = self.open.remove(&msg)?;
            apply_event(&mut w, kind, tick, ev, &mut self.spares);
            return Some(w);
        }
        if let Some(w) = self.open.get_mut(&msg) {
            apply_event(w, kind, tick, ev, &mut self.spares);
        }
        None
    }

    /// Takes back a witness [`feed`](Self::feed) or
    /// [`drain`](Self::drain) handed out, once the caller is done with
    /// it. Later messages reuse its hop list and name strings, so a
    /// stream that recycles every witness allocates nothing per hop
    /// once the fold holds as many buffers as its busiest moment.
    pub fn recycle(&mut self, w: RouteWitness) {
        self.spares.recycle(w);
    }

    /// Removes and returns every in-flight witness in message-id order.
    /// Called at trial boundaries and end of stream; these witnesses
    /// have `fate == None`.
    pub fn drain(&mut self) -> Vec<RouteWitness> {
        std::mem::take(&mut self.open).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::{collect_witnesses, parse_trace};

    const TRACE: &str = "\
{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n\
{\"seq\":1,\"tick\":0,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":1,\"to\":2,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":2,\"tick\":1,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":2,\"from\":1,\"to\":4,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":3,\"tick\":2,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":2}\n\
{\"seq\":4,\"tick\":2,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n\
{\"seq\":5,\"tick\":3,\"ev\":\"send\",\"msg\":1,\"s\":2,\"t\":3}\n\
{\"seq\":6,\"tick\":9,\"ev\":\"retry\",\"msg\":1,\"att\":1}\n";

    #[test]
    fn streaming_fold_matches_the_batch_collector() {
        let events = parse_trace(TRACE).unwrap();
        let batch = collect_witnesses(&events);
        let mut fold = WitnessFold::new();
        let mut streamed = Vec::new();
        for ev in &events {
            if let Some(w) = fold.feed(ev) {
                streamed.push(w);
            }
        }
        streamed.extend(fold.drain());
        assert_eq!(streamed, batch);
        assert_eq!(fold.live(), 0);
    }

    #[test]
    fn fate_closes_and_removes_the_message() {
        let events = parse_trace(TRACE).unwrap();
        let mut fold = WitnessFold::new();
        let mut closed = Vec::new();
        for ev in &events {
            closed.extend(fold.feed(ev));
        }
        assert_eq!(closed.len(), 1);
        assert!(closed[0].delivered());
        assert_eq!(closed[0].route(), vec![1, 2, 4]);
        // msg 1 never got a fate: still live until drained.
        assert_eq!(fold.live(), 1);
        let rest = fold.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].retries, 1);
        assert_eq!(rest[0].fate, None);
    }

    #[test]
    fn repeated_send_displaces_the_open_witness() {
        let text = "\
{\"tick\":0,\"ev\":\"send\",\"msg\":7,\"s\":0,\"t\":1}\n\
{\"tick\":2,\"ev\":\"send\",\"msg\":7,\"s\":5,\"t\":6}\n";
        let events = parse_trace(text).unwrap();
        let mut fold = WitnessFold::new();
        assert!(fold.feed(&events[0]).is_none());
        let displaced = fold.feed(&events[1]).expect("first generation displaced");
        assert_eq!(displaced.s, 0);
        assert_eq!(displaced.fate, None);
        assert_eq!(fold.drain()[0].s, 5);
    }

    #[test]
    fn non_message_events_are_ignored() {
        let text = "{\"tick\":4,\"ev\":\"fault\",\"kind\":\"crash\",\"node\":9}\n";
        let events = parse_trace(text).unwrap();
        let mut fold = WitnessFold::new();
        assert!(fold.feed(&events[0]).is_none());
        assert_eq!(fold.live(), 0);
    }
}
