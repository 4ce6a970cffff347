//! Hierarchical timing wheel: the simulator's event scheduler.
//!
//! A [`Wheel`] replaces a `BTreeMap<u64, Vec<T>>` tick map for
//! workloads whose next event is almost always within a few ticks of
//! the clock. The near future — a window of [`SLOTS`] consecutive
//! ticks starting at `base` — lives in a ring of dense `Vec` slots
//! with a one-word occupancy bitmap, so finding the earliest scheduled
//! tick is a rotate and a count-trailing-zeros instead of an ordered
//! map probe, and draining a tick is a `mem::take` of its slot. The
//! far future (a fault plan scheduled hundreds of ticks out) overflows
//! into a sorted map and migrates into the ring as the window advances
//! over it.
//!
//! # Ordering contract
//!
//! Per tick, items come back in scheduling order (FIFO), exactly like
//! the `Vec`s in the tick map this replaces. The proof obligation is
//! the overflow migration: an item can only be scheduled *directly*
//! into a slot once its tick is inside the window, and the window only
//! reaches a tick after [`advance_to`](Wheel::advance_to) has migrated
//! every overflow item for it — so migrated (older) items always land
//! in the slot before any directly scheduled (newer) ones.
//!
//! The caller's side of the contract: items are drained in global tick
//! order (`take(next_tick())`), and `advance_to(t)` is only called
//! once everything before `t` has been taken. The simulator's step
//! loop does exactly this.

use std::collections::BTreeMap;
use std::mem;

/// Width of the dense window, in ticks. One `u64` occupancy word.
const SLOTS: usize = 64;
/// `tick & SLOT_MASK` is the ring slot of an in-window tick.
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// A two-level timing wheel keyed by absolute tick.
pub struct Wheel<T> {
    /// Ring of [`SLOTS`] buckets; tick `t` (with `base <= t <
    /// base+SLOTS`) lives in `slots[(t & SLOT_MASK) as usize]`. Every
    /// window tick maps to a distinct slot, so no bucket ever holds two
    /// ticks.
    slots: Vec<Vec<T>>,
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occ: u64,
    /// First tick of the dense window. Never decreases.
    base: u64,
    /// Ticks at or beyond `base + SLOTS`.
    overflow: BTreeMap<u64, Vec<T>>,
}

impl<T> Wheel<T> {
    /// An empty wheel with its window starting at tick 0.
    pub fn new() -> Wheel<T> {
        Wheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: 0,
            base: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.occ == 0 && self.overflow.is_empty()
    }

    /// Number of occupied window slots — a popcount of the occupancy
    /// word, sampled by the tracer as `wheel.*.occupied`.
    pub fn occupied_slots(&self) -> u32 {
        self.occ.count_ones()
    }

    /// Number of distinct far-future ticks currently parked in the
    /// overflow band (the tracer's `wheel.*.overflow` gauge).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Schedules `item` at `tick`. A tick before the window (already
    /// drained) is clamped to the window start, preserving the old
    /// tick map's "late events fire on the next step" behaviour.
    pub fn schedule(&mut self, tick: u64, item: T) {
        let tick = tick.max(self.base);
        if tick < self.base + SLOTS as u64 {
            let slot = (tick & SLOT_MASK) as usize;
            self.slots[slot].push(item);
            self.occ |= 1 << slot;
        } else {
            self.overflow.entry(tick).or_default().push(item);
        }
    }

    /// The earliest tick with something scheduled.
    pub fn next_tick(&self) -> Option<u64> {
        if self.occ != 0 {
            // Rotate the occupancy word so the window-start slot sits
            // at bit 0; trailing zeros then count ticks past `base`.
            let rel = self.occ.rotate_right((self.base & SLOT_MASK) as u32);
            return Some(self.base + u64::from(rel.trailing_zeros()));
        }
        self.overflow.keys().next().copied()
    }

    /// Removes and returns everything scheduled at exactly `tick`, in
    /// scheduling order.
    pub fn take(&mut self, tick: u64) -> Vec<T> {
        if tick >= self.base && tick < self.base + SLOTS as u64 {
            let slot = (tick & SLOT_MASK) as usize;
            self.occ &= !(1 << slot);
            return mem::take(&mut self.slots[slot]);
        }
        self.overflow.remove(&tick).unwrap_or_default()
    }

    /// Slides the window start forward to `tick` (never backward) and
    /// migrates overflow items that fall inside the new window into
    /// their slots.
    ///
    /// Caller contract: everything scheduled before `tick` has been
    /// [`take`](Self::take)n. In-window items at or past `tick` keep
    /// their slots — the ring is indexed by absolute tick, so moving
    /// `base` re-labels nothing.
    pub fn advance_to(&mut self, tick: u64) {
        if tick <= self.base {
            return;
        }
        self.base = tick;
        let horizon = self.base + SLOTS as u64;
        while let Some((&t, _)) = self.overflow.first_key_value() {
            if t >= horizon {
                break;
            }
            let items = self.overflow.remove(&t).unwrap_or_default();
            let slot = (t & SLOT_MASK) as usize;
            if !items.is_empty() {
                self.occ |= 1 << slot;
            }
            self.slots[slot].extend(items);
        }
    }
}

impl<T> Default for Wheel<T> {
    fn default() -> Wheel<T> {
        Wheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the wheel in event order, advancing like the simulator.
    fn drain(w: &mut Wheel<u32>) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        while let Some(t) = w.next_tick() {
            w.advance_to(t);
            out.push((t, w.take(t)));
        }
        out
    }

    #[test]
    fn empty_wheel_has_nothing() {
        let mut w: Wheel<u32> = Wheel::new();
        assert!(w.is_empty());
        assert_eq!(w.next_tick(), None);
        assert!(w.take(0).is_empty());
        assert_eq!(w.occupied_slots(), 0);
        assert_eq!(w.overflow_len(), 0);
    }

    #[test]
    fn occupancy_accessors_track_window_and_overflow() {
        let mut w = Wheel::new();
        w.schedule(1, 10);
        w.schedule(1, 11);
        w.schedule(3, 12);
        w.schedule(500, 13);
        assert_eq!(w.occupied_slots(), 2, "two distinct in-window ticks");
        assert_eq!(w.overflow_len(), 1);
        w.advance_to(1);
        w.take(1);
        assert_eq!(w.occupied_slots(), 1);
        w.advance_to(460);
        assert_eq!(w.overflow_len(), 0, "migration drains the overflow band");
        assert_eq!(w.occupied_slots(), 2);
    }

    #[test]
    fn in_window_fifo_per_tick() {
        let mut w = Wheel::new();
        w.schedule(3, 1);
        w.schedule(1, 2);
        w.schedule(3, 3);
        assert_eq!(drain(&mut w), vec![(1, vec![2]), (3, vec![1, 3])]);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_migrates_in_order() {
        let mut w = Wheel::new();
        // Far-future first (overflow), then — once the window has moved
        // past the old horizon — a direct schedule at the same tick.
        w.schedule(500, 1);
        w.schedule(500, 2);
        w.schedule(10, 0);
        assert_eq!(w.next_tick(), Some(10));
        w.advance_to(10);
        assert_eq!(w.take(10), vec![0]);
        w.advance_to(460); // 500 is now in-window: migration happened
        w.schedule(500, 3);
        assert_eq!(drain(&mut w), vec![(500, vec![1, 2, 3])]);
    }

    #[test]
    fn late_schedules_clamp_to_window_start() {
        let mut w = Wheel::new();
        w.schedule(100, 1);
        w.advance_to(100);
        assert_eq!(w.take(100), vec![1]);
        w.advance_to(101);
        w.schedule(7, 9); // tick 7 is long gone
        assert_eq!(w.next_tick(), Some(101));
        assert_eq!(w.take(101), vec![9]);
    }

    #[test]
    fn window_boundary_exactly_slots_away() {
        let mut w = Wheel::new();
        w.schedule(SLOTS as u64 - 1, 1); // last in-window slot
        w.schedule(SLOTS as u64, 2); // first overflow tick
        assert_eq!(
            drain(&mut w),
            vec![(SLOTS as u64 - 1, vec![1]), (SLOTS as u64, vec![2])]
        );
    }

    #[test]
    fn matches_btreemap_reference_on_random_workload() {
        use locality_graph::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(0x5CED);
        let mut w = Wheel::new();
        let mut reference: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut clock = 0u64;
        for i in 0..2_000u32 {
            // Mixed horizon: mostly near-future, occasionally far.
            let delta = if rng.gen_range(0..10u32) == 0 {
                rng.gen_range(0..1_000u64)
            } else {
                rng.gen_range(0..8u64)
            };
            w.schedule(clock + delta, i);
            reference.entry(clock + delta).or_default().push(i);
            // Sometimes drain the earliest tick, like a sim step.
            if rng.gen_range(0..3u32) == 0 {
                let (a, b) = (w.next_tick(), reference.keys().next().copied());
                assert_eq!(a, b);
                if let Some(t) = a {
                    clock = t;
                    w.advance_to(t);
                    assert_eq!(w.take(t), reference.remove(&t).unwrap_or_default());
                }
            }
        }
        // Full drain must agree tick for tick, item for item.
        while let Some(t) = w.next_tick() {
            assert_eq!(Some(t), reference.keys().next().copied());
            w.advance_to(t);
            assert_eq!(w.take(t), reference.remove(&t).unwrap_or_default());
        }
        assert!(reference.is_empty());
        assert!(w.is_empty());
    }
}
