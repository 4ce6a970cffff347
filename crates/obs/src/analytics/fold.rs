//! Incremental witness fold: the streaming counterpart of
//! [`collect_witnesses`](crate::collect_witnesses).
//!
//! Holds only the witnesses of messages still in flight, emitting each
//! witness the moment its terminal `fate` arrives. This is what bounds
//! analytics memory by O(live messages) instead of O(trace size): a
//! chaos trial keeps at most one batch in flight at a time, so the
//! fold's footprint is independent of how many trials stream past.
//!
//! The open witnesses sit in a slab, a `Vec` that keeps its capacity
//! from trial to trial, and are found by message id through
//! `MsgTable`, an open-addressing table whose layout is a pure
//! function of the ids inserted: no per-process hash seed, so nothing
//! read from it varies from run to run (lint rule R2). An event
//! usually reaches its witness in one probe, and its fields are read
//! in one pass over its members (`EventFields`). [`WitnessFold::drain`] sorts the live
//! witnesses by id, so witnesses leave in message-id order as before.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::witness::{EventFields, Kind, RouteWitness, Spares};

/// A [`MsgTable`] slot that holds no entry.
const EMPTY: usize = usize::MAX;

/// Fewest slots a table that holds anything has.
const MIN_SLOTS: usize = 8;

/// Longest probe run, in slots. An id that finds no free slot this
/// close to its home goes to the table's overflow map instead.
const MAX_PROBE: usize = 32;

/// Message id → position, for the open witnesses of the streaming and
/// the batch folds. Open addressing with linear probing over a
/// power-of-two array kept at most half full; a removal shifts the
/// rest of its probe run back, so no tombstones build up. The first
/// slot an id probes is a fixed multiplicative hash of it (Fibonacci
/// hashing), so message ids, which a trial numbers from 0, spread
/// evenly.
///
/// A fixed hash lets a crafted trace pick ids that all share a home
/// slot, and one probe run would then grow with every such id. No
/// entry sits [`MAX_PROBE`] or more slots past its home: an id that
/// would goes to `overflow`, an ordered map, so every operation stays
/// within `MAX_PROBE` probes plus one map lookup. The ids of a
/// recorded trace never get there.
#[derive(Debug, Default)]
pub(crate) struct MsgTable {
    /// `(id, position)`; [`EMPTY`] as the position marks a free slot.
    slots: Vec<(u64, usize)>,
    /// Entries in `slots`.
    len: usize,
    /// Ids that found no slot within [`MAX_PROBE`] of their home.
    overflow: BTreeMap<u64, usize>,
}

impl MsgTable {
    /// Index mask of the slot array (its length is a power of two).
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// The slot `id` probes first.
    fn home(&self, id: u64) -> usize {
        // The top bits of the product, as many as index the slots.
        let bits = self.slots.len().trailing_zeros();
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - bits)) as usize
    }

    /// The slots `id` may occupy, in probe order.
    fn run(&self, id: u64) -> impl Iterator<Item = usize> {
        let (home, mask) = (self.home(id), self.mask());
        (0..MAX_PROBE.min(self.slots.len())).map(move |d| (home + d) & mask)
    }

    /// The slot holding `id`, if it is in `slots`.
    fn find(&self, id: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        for i in self.run(id) {
            match self.slots.get(i) {
                Some(&(key, at)) if at != EMPTY => {
                    if key == id {
                        return Some(i);
                    }
                }
                _ => return None,
            }
        }
        None
    }

    /// The position stored for `id`.
    pub(crate) fn get(&self, id: u64) -> Option<usize> {
        match self.find(id) {
            Some(i) => self.slots.get(i).map(|&(_, at)| at),
            None => self.overflow.get(&id).copied(),
        }
    }

    /// Stores `at` for `id`, returning the position it replaces.
    pub(crate) fn insert(&mut self, id: u64, at: usize) -> Option<usize> {
        if let Some(slot) = self.find(id).and_then(|i| self.slots.get_mut(i)) {
            return Some(std::mem::replace(&mut slot.1, at));
        }
        if let Some(old) = self.overflow.get_mut(&id) {
            return Some(std::mem::replace(old, at));
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        self.place(id, at);
        None
    }

    /// Writes `(id, at)` into the first free slot of `id`'s probe run,
    /// or into `overflow` when the run has none; `id` must not be held.
    fn place(&mut self, id: u64, at: usize) {
        let free = self
            .run(id)
            .find(|&i| self.slots.get(i).is_some_and(|&(_, pos)| pos == EMPTY));
        match free.and_then(|i| self.slots.get_mut(i)) {
            Some(slot) => {
                *slot = (id, at);
                self.len += 1;
            }
            None => {
                self.overflow.insert(id, at);
            }
        }
    }

    /// Doubles the slot array and re-places every entry it held.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); slots]);
        self.len = 0;
        for (id, at) in old {
            if at != EMPTY {
                self.place(id, at);
            }
        }
    }

    /// Removes `id`, returning its position.
    pub(crate) fn remove(&mut self, id: u64) -> Option<usize> {
        let Some(mut hole) = self.find(id) else {
            return self.overflow.remove(&id);
        };
        let at = self.slots.get(hole).map(|&(_, at)| at)?;
        // Backward shift: an entry later in the run moves into the hole
        // unless the hole lies before its home slot, where a probe for
        // it would never look. An entry `MAX_PROBE` or more slots past
        // the hole has its home past the hole too, so the scan stops
        // there.
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let past_hole = i.wrapping_sub(hole) & mask;
            let Some(&(key, pos)) = self.slots.get(i) else {
                break;
            };
            if pos == EMPTY || past_hole >= MAX_PROBE {
                break;
            }
            if i.wrapping_sub(self.home(key)) & mask >= past_hole {
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = (key, pos);
                }
                hole = i;
            }
        }
        if let Some(slot) = self.slots.get_mut(hole) {
            slot.1 = EMPTY;
        }
        self.len -= 1;
        Some(at)
    }

    /// Removes every entry, keeping the slot array.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((0, EMPTY));
            self.len = 0;
        }
        self.overflow.clear();
    }
}

/// Streaming fold from message-scoped events to completed
/// [`RouteWitness`] values.
#[derive(Debug, Default)]
pub struct WitnessFold {
    /// The open witnesses, in no particular order.
    live: Vec<RouteWitness>,
    /// Message id → position in `live`.
    index: MsgTable,
    spares: Spares,
}

impl WitnessFold {
    /// Creates an empty fold.
    pub fn new() -> Self {
        WitnessFold::default()
    }

    /// Number of messages currently in flight.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// Feeds one parsed event. Returns a witness the event *completed*:
    /// a terminal `fate` closes its message, and a repeated `send`
    /// (id reuse within a trace span) closes the displaced in-flight
    /// witness. Non-message events return `None` untouched.
    pub fn feed(&mut self, ev: &Json<'_>) -> Option<RouteWitness> {
        self.feed_fields(&EventFields::read(ev))
    }

    /// [`feed`](Self::feed) for an event whose fields are already read.
    pub(crate) fn feed_fields(&mut self, f: &EventFields<'_>) -> Option<RouteWitness> {
        let kind = f.kind?;
        let msg = f.msg?;
        match kind {
            Kind::Send => {
                let w = f.open(msg, &mut self.spares);
                match self.index.get(msg).and_then(|i| self.live.get_mut(i)) {
                    Some(open) => Some(std::mem::replace(open, w)),
                    None => {
                        self.index.insert(msg, self.live.len());
                        self.live.push(w);
                        None
                    }
                }
            }
            Kind::Fate => {
                let i = self.index.remove(msg)?;
                let mut w = (i < self.live.len()).then(|| self.live.swap_remove(i))?;
                if let Some(moved) = self.live.get(i) {
                    self.index.insert(moved.msg, i);
                }
                f.apply(&mut w, &mut self.spares);
                Some(w)
            }
            Kind::Hop | Kind::Retry | Kind::Deliver => {
                if let Some(w) = self.index.get(msg).and_then(|i| self.live.get_mut(i)) {
                    f.apply(w, &mut self.spares);
                }
                None
            }
            Kind::Trial | Kind::Other => None,
        }
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
        self.index.clear();
        // The live ids are distinct: a repeated send replaces in place.
        self.live.sort_unstable_by_key(|w| w.msg);
        self.live.drain(..).collect()
    }
}

/// The fold as it was before the slab and the one-pass field read: an
/// ordered map of open witnesses, each event's fields looked up one
/// `Json::get` at a time. Kept so the tests can hold the fold and the
/// batch collector to it, event by event.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;

    use crate::json::Json;
    use crate::witness::{RouteWitness, WitnessHop};

    fn witness_from_send(ev: &Json<'_>, tick: u64, msg: u64) -> RouteWitness {
        RouteWitness {
            msg,
            s: ev.u64_of("s").unwrap_or(0) as u32,
            t: ev.u64_of("t").unwrap_or(0) as u32,
            sent_at: tick,
            ..RouteWitness::default()
        }
    }

    fn apply_event(w: &mut RouteWitness, kind: &str, tick: u64, ev: &Json<'_>) {
        match kind {
            "hop" => w.hops.push(WitnessHop {
                tick,
                node: ev.u64_of("node").unwrap_or(0) as u32,
                from: ev.u64_of("from").map(|v| v as u32),
                to: ev.u64_of("to").unwrap_or(0) as u32,
                rule: ev.str_of("rule").unwrap_or("?").to_string(),
                attempt: ev.u64_of("att").unwrap_or(0) as u32,
                provisioned_at: ev.u64_of("prov").unwrap_or(0),
            }),
            "retry" => w.retries = ev.u64_of("att").unwrap_or(0) as u32,
            "deliver" => w.delivered_at = Some(tick),
            "fate" => {
                w.fate = ev.str_of("fate").map(str::to_string);
                w.fate_tick = Some(tick);
                w.fate_detail = ev
                    .str_of("why")
                    .or_else(|| ev.str_of("err"))
                    .map(str::to_string);
            }
            _ => {}
        }
    }

    /// The streaming fold over a `BTreeMap`.
    #[derive(Debug, Default)]
    pub(crate) struct Fold {
        open: BTreeMap<u64, RouteWitness>,
    }

    impl Fold {
        pub(crate) fn live(&self) -> usize {
            self.open.len()
        }

        pub(crate) fn feed(&mut self, ev: &Json<'_>) -> Option<RouteWitness> {
            let kind = ev.str_of("ev")?;
            let tick = ev.u64_of("tick").unwrap_or(0);
            let msg = ev.u64_of("msg")?;
            if kind == "send" {
                return self.open.insert(msg, witness_from_send(ev, tick, msg));
            }
            if kind == "fate" {
                let mut w = self.open.remove(&msg)?;
                apply_event(&mut w, kind, tick, ev);
                return Some(w);
            }
            if let Some(w) = self.open.get_mut(&msg) {
                apply_event(w, kind, tick, ev);
            }
            None
        }

        pub(crate) fn drain(&mut self) -> Vec<RouteWitness> {
            std::mem::take(&mut self.open).into_values().collect()
        }
    }

    /// The batch collector over a `BTreeMap` of open positions.
    pub(crate) fn collect_witnesses(events: &[Json<'_>]) -> Vec<RouteWitness> {
        let mut out: Vec<RouteWitness> = Vec::new();
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
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
                out.push(witness_from_send(ev, tick, msg));
                continue;
            }
            if let Some(w) = open.get(&msg).and_then(|&i| out.get_mut(i)) {
                apply_event(w, kind, tick, ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::io::Read;

    use super::*;
    use crate::analytics::synth::SynthTrace;
    use crate::witness::{collect_witnesses, parse_trace};

    const TRACE: &str = "\
{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n\
{\"seq\":1,\"tick\":0,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":1,\"to\":2,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":2,\"tick\":1,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":2,\"from\":1,\"to\":4,\"rule\":\"greedy\",\"prov\":0}\n\
{\"seq\":3,\"tick\":2,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":2}\n\
{\"seq\":4,\"tick\":2,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n\
{\"seq\":5,\"tick\":3,\"ev\":\"send\",\"msg\":1,\"s\":2,\"t\":3}\n\
{\"seq\":6,\"tick\":9,\"ev\":\"retry\",\"msg\":1,\"att\":1}\n";

    /// Two trials that reuse message ids, a repeated `send`, fates out
    /// of id order, events for ids never sent or already closed,
    /// duplicate and mistyped members, a non-object line, and a final
    /// drain whose witnesses sit out of id order in the slab.
    const HAND: &str = "\
{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-2\",\"k\":6}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":5,\"s\":1,\"t\":9}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":2,\"s\":3,\"t\":4}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":9,\"s\":7,\"t\":8}\n\
{\"tick\":1,\"ev\":\"hop\",\"msg\":9,\"att\":0,\"node\":7,\"to\":8,\"rule\":\"a\",\"prov\":0}\n\
{\"tick\":1,\"ev\":\"hop\",\"msg\":5,\"att\":0,\"node\":1,\"to\":2,\"rule\":\"b\",\"prov\":1,\"parked\":true}\n\
{\"tick\":2,\"ev\":\"fate\",\"msg\":9,\"fate\":\"delivered\"}\n\
{\"tick\":2,\"ev\":\"hop\",\"msg\":9,\"att\":0,\"node\":8,\"to\":7,\"rule\":\"late\",\"prov\":0}\n\
{\"tick\":3,\"ev\":\"send\",\"msg\":2,\"s\":6,\"t\":1}\n\
{\"tick\":3,\"ev\":\"hop\",\"msg\":2,\"msg\":5,\"att\":0,\"node\":6,\"to\":5,\"rule\":\"c\",\"prov\":2}\n\
{\"tick\":4,\"ev\":\"retry\",\"msg\":5,\"att\":1}\n\
{\"tick\":4,\"ev\":\"hop\",\"msg\":44,\"att\":0,\"node\":1,\"to\":2,\"rule\":\"d\",\"prov\":0}\n\
{\"tick\":5,\"ev\":\"lost\",\"msg\":5,\"why\":\"loss\"}\n\
{\"tick\":\"x\",\"ev\":\"deliver\",\"msg\":2,\"node\":1}\n\
{\"tick\":6,\"ev\":\"fate\",\"msg\":5,\"fate\":\"dropped\",\"why\":\"loss\",\"err\":\"e\"}\n\
{\"tick\":7,\"ev\":\"fate\",\"msg\":\"2\",\"fate\":\"delivered\"}\n\
{\"tick\":7,\"ev\":7,\"msg\":2}\n\
[1,2]\n\
{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-3\",\"k\":12}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":3,\"s\":0,\"t\":1}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":2,\"t\":3}\n\
{\"tick\":0,\"ev\":\"send\",\"msg\":1,\"s\":4,\"t\":5}\n\
{\"tick\":1,\"ev\":\"fate\",\"msg\":1,\"fate\":\"errored\",\"err\":\"no route\"}\n\
{\"tick\":1,\"ev\":\"fate\",\"msg\":3,\"fate\":\"timed_out\"}\n\
{\"tick\":2,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":2,\"from\":9,\"to\":3,\"rule\":\"e\",\"prov\":0}\n\
{\"tick\":3,\"ev\":\"send\",\"msg\":1,\"s\":8,\"t\":9}\n\
{\"tick\":4,\"ev\":\"send\",\"msg\":7,\"s\":1,\"t\":2}\n\
{\"tick\":4,\"ev\":\"send\",\"msg\":5,\"s\":3,\"t\":4}\n";

    /// Feeds `events` to the fold and to the reference, trial headers
    /// draining both as `run_mode` does, and asserts that every feed
    /// and every drain returns the same witnesses in the same order.
    /// Returns how many witnesses came out.
    fn fold_matches_reference(events: &[Json<'_>]) -> usize {
        let mut fold = WitnessFold::new();
        let mut want = reference::Fold::default();
        let mut seen = 0;
        for (i, ev) in events.iter().enumerate() {
            if ev.str_of("ev") == Some("trial") {
                let got = fold.drain();
                assert_eq!(got, want.drain(), "drain before event {i}");
                seen += got.len();
                for w in got {
                    fold.recycle(w);
                }
                continue;
            }
            let got = fold.feed(ev);
            assert_eq!(got, want.feed(ev), "feed of event {i}");
            assert_eq!(fold.live(), want.live(), "live after event {i}");
            if let Some(w) = got {
                seen += 1;
                fold.recycle(w);
            }
        }
        let got = fold.drain();
        assert_eq!(got, want.drain(), "final drain");
        assert_eq!(fold.live(), 0);
        seen + got.len()
    }

    #[test]
    fn fold_matches_the_btreemap_reference_on_a_synthetic_trace() {
        let mut text = String::new();
        SynthTrace::new(4, 40, 7)
            .read_to_string(&mut text)
            .expect("the synthetic trace reads");
        let events = parse_trace(&text).unwrap();
        assert_eq!(fold_matches_reference(&events), 160);
        assert_eq!(
            collect_witnesses(&events),
            reference::collect_witnesses(&events)
        );
    }

    #[test]
    fn fold_matches_the_btreemap_reference_on_the_golden_trace() {
        let text = include_str!("../../../../tests/goldens/trace_cycle12.jsonl");
        let events = parse_trace(text).unwrap();
        assert!(fold_matches_reference(&events) > 0);
        assert_eq!(
            collect_witnesses(&events),
            reference::collect_witnesses(&events)
        );
    }

    #[test]
    fn fold_matches_the_btreemap_reference_on_id_reuse_and_odd_events() {
        let events = parse_trace(HAND).unwrap();
        // Trial 0: 9 and 5 close at their fates, the first 2 at its
        // repeated send, and the second 2 drains at the next header.
        // Trial 1: 1 and 3 close at their fates; 0, the second 1, 7
        // and 5 drain at the end, in id order.
        assert_eq!(fold_matches_reference(&events), 10);
        assert_eq!(
            collect_witnesses(&events),
            reference::collect_witnesses(&events)
        );
    }

    #[test]
    fn table_matches_a_btreemap_under_churn() {
        // Ids from a small range, so inserts, overwrites and removals
        // of present and absent ids all happen, across several growths
        // and long probe runs that removals must shift back.
        let mut table = MsgTable::default();
        let mut want: BTreeMap<u64, usize> = BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x >> 8) % 300 * 1024;
            match x % 7 {
                0..=2 => assert_eq!(table.insert(id, step), want.insert(id, step)),
                3..=4 => assert_eq!(table.remove(id), want.remove(&id)),
                5 => assert_eq!(table.get(id), want.get(&id).copied()),
                _ => {
                    if step % 5000 == 0 {
                        table.clear();
                        want.clear();
                    }
                }
            }
            assert_eq!(table.len + table.overflow.len(), want.len());
        }
        for id in 0..300 * 1024 {
            assert_eq!(table.get(id), want.get(&id).copied(), "id {id}");
        }
        // Ids at the ends of the range hash like any other.
        for id in [u64::MAX, 0, 1 << 63] {
            table.insert(id, 7);
            assert_eq!(table.get(id), Some(7));
            assert_eq!(table.remove(id), Some(7));
            assert_eq!(table.get(id), None);
        }
    }

    #[test]
    fn ids_crafted_to_share_a_home_slot_overflow_and_stay_exact() {
        // `id = j * inverse` hashes to `j`, whose top bits are zero for
        // every small `j`: at every table size each of these ids probes
        // slot 0 first, and one run would hold them all.
        let m = 0x9E37_79B9_7F4A_7C15u64;
        let mut inverse = m;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inverse)));
        }
        assert_eq!(m.wrapping_mul(inverse), 1);
        let id = |j: u64| j.wrapping_mul(inverse);
        let mut table = MsgTable::default();
        let mut want: BTreeMap<u64, usize> = BTreeMap::new();
        for j in 0..4000 {
            assert_eq!(
                table.insert(id(j), j as usize),
                want.insert(id(j), j as usize)
            );
        }
        assert!(table.len <= MAX_PROBE, "{} ids in one run", table.len);
        assert_eq!(table.len + table.overflow.len(), 4000);
        for j in (0..4000).step_by(3) {
            assert_eq!(table.remove(id(j)), want.remove(&id(j)));
        }
        for j in 0..4000 {
            assert_eq!(table.get(id(j)), want.get(&id(j)).copied(), "j = {j}");
            assert_eq!(table.insert(id(j), 7), want.insert(id(j), 7), "j = {j}");
        }
        table.clear();
        assert_eq!(
            (table.len, table.overflow.len(), table.get(id(5))),
            (0, 0, None)
        );
    }

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
