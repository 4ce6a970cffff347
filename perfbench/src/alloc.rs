//! Counting global allocator behind the `*.kib` metrics.
//!
//! Counting is off by default and costs one relaxed load per call.
//! The traced run switches it on before it allocates any workload
//! data, so the live-byte figure starts near zero and deltas taken
//! around a probe are the bytes that probe keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The allocator installed for the whole benchmark process.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter update touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting. Bytes allocated before this call and freed after
/// it drive the counter below its true value, so call it first.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Stops counting. Every `*.kib` figure is a delta taken with counting
/// on, so switching it off and on again between probes is harmless.
pub fn disable() {
    ON.store(false, Ordering::Relaxed);
}

/// Bytes currently allocated since counting started.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}
