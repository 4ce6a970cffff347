//! A warm timing wheel allocates nothing per tick: each slot's `Vec`
//! is handed back after its tick is drained, so the next lap round
//! the ring reuses its capacity.
//!
//! The load is a busy `ring-100k` tick's: 88 items scheduled one tick
//! ahead, every tick. One 64-tick lap warms every slot; the next 640
//! ticks must make no allocator call at all. The count is
//! deterministic, not a timing.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use locality_sim::sched::Wheel;

/// System allocator that counts its allocation calls (a `realloc`
/// goes through `alloc`, so growth counts too).
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Items scheduled per tick.
const PER_TICK: u32 = 88;

/// Drains ticks `from..to` the way `Network::step` does, scheduling
/// the next tick's items while each tick is out, and returns how many
/// items came back.
fn run_ticks(w: &mut Wheel<u32>, from: u64, to: u64) -> u64 {
    let mut drained = 0;
    for t in from..to {
        w.advance_to(t);
        let items = w.take(t);
        for i in 0..PER_TICK {
            w.schedule(t + 1, i);
        }
        drained += items.len() as u64;
        w.recycle(t, items);
    }
    drained
}

#[test]
fn warm_wheel_allocates_nothing_per_tick() {
    let mut w: Wheel<u32> = Wheel::new();
    run_ticks(&mut w, 0, 64);
    let before = CALLS.load(Ordering::Relaxed);
    let drained = run_ticks(&mut w, 64, 704);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(drained, 640 * u64::from(PER_TICK), "every item comes back");
    assert_eq!(
        calls, 0,
        "a warm wheel allocated {calls} times in 640 ticks"
    );
}
