//! The allocation pin for the streaming analytics path: a `stats` pass
//! and a `loops` pass over a synthetic trace of 92,042 events each make
//! at most three allocation calls per event.
//!
//! A line is parsed once into a `Json` that borrows its keys and
//! strings from the line, so its one allocation is the object's member
//! list. The witness fold reuses the hop lists and name strings of the
//! witnesses it has handed out, and the modes look a rule or a fate up
//! before inserting it. A parser that copied every key and string
//! made about 15 calls per event.
//!
//! The counts are deterministic, not timings. This lives in its own
//! integration-test binary because a `#[global_allocator]` is
//! process-wide, and contains exactly one `#[test]` so no concurrent
//! test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};

use locality_obs::analytics::loops::LoopsMode;
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::synth::SynthTrace;
use locality_obs::analytics::{run_mode, Mode, TailMode, DEFAULT_BUF_BYTES};

/// System allocator that counts the blocks it hands out. `realloc` is
/// left to the trait's default, so a growth counts as one call too.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

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

/// Allocation calls a pass may make per event.
const BOUND: u64 = 3;

#[test]
fn stats_and_loops_passes_allocate_at_most_three_times_per_event() {
    let mut trace = Vec::new();
    SynthTrace::new(4, 2500, 7)
        .read_to_end(&mut trace)
        .expect("the synthetic trace reads");
    assert_eq!(trace.len(), 8_560_266);
    let passes: [(&str, Box<dyn Mode>); 2] = [
        ("stats", Box::new(StatsMode::new())),
        ("loops", Box::new(LoopsMode::new())),
    ];
    for (name, mut mode) in passes {
        let before = CALLS.load(Ordering::Relaxed);
        let report = run_mode(
            &trace[..],
            DEFAULT_BUF_BYTES,
            TailMode::Strict,
            mode.as_mut(),
        )
        .expect("the synthetic trace streams cleanly");
        let calls = CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(report.events, 92_042);
        eprintln!(
            "{name}: {calls} allocation calls over {} events ({:.2} per event)",
            report.events,
            calls as f64 / report.events as f64
        );
        assert!(
            calls <= BOUND * report.events,
            "{name} made {calls} allocation calls over {} events, more than {BOUND} per event",
            report.events
        );
    }
}
