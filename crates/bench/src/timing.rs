//! Minimal self-contained timing harness for the `benches/` targets
//! and the `perfsmoke` binary.
//!
//! The targets are plain `harness = false` programs: no external
//! benchmarking framework, no statistics beyond a median over a few
//! batches — enough to spot order-of-magnitude regressions and to
//! print the perf-smoke JSON, while keeping the workspace free of
//! network-fetched dependencies.

// Wall-clock measurement is this module's entire purpose; the R2/clippy
// workspace ban on `std::time` exists to keep *routing decisions*
// deterministic, not to forbid timing the benchmarks themselves.
// Justified in `lint.allow` (bench is outside the R2 crates anyway).
#![allow(clippy::disallowed_types)]

pub use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `f`.
///
/// Calibrates a batch size so one batch takes roughly 10 ms, then
/// takes the median batch over nine runs — robust against a stray
/// scheduler hiccup without costing more than ~100 ms per measurement.
pub fn measure_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    // Warm-up doubles as calibration.
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed().as_millis() < 10 || iters == 0 {
        black_box(f());
        iters += 1;
        if iters >= 1_000_000 {
            break;
        }
    }
    let per_batch = iters.max(1);
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median nanoseconds per call of `f` on inputs made by `setup`, which
/// runs outside the clock. For calls that cache their result inside
/// their input, so every call needs a fresh one: each of nine batches
/// makes `batch` inputs, then times `f` once on each.
pub fn measure_fresh_ns<S, T>(
    batch: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&S) -> T,
) -> f64 {
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let inputs: Vec<S> = (0..batch).map(|_| setup()).collect();
            let t = Instant::now();
            for input in &inputs {
                black_box(f(input));
            }
            t.elapsed().as_nanos() as f64 / batch.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall-clock nanoseconds for a single call of `f`, returned with its
/// result — for one-shot passes too expensive to batch-calibrate (e.g.
/// the whole-workspace lint pass timed by `perfsmoke`).
pub fn time_once_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Formats nanoseconds with a human-readable unit.
pub fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Prints one benchmark line: `group/name: time`.
pub fn report(group: &str, name: &str, ns: f64) {
    println!("{group}/{name}: {}", human(ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let ns = measure_ns(|| (0..100u64).sum::<u64>());
        assert!(ns > 0.0);
    }

    #[test]
    fn measure_fresh_keeps_setup_off_the_clock() {
        let mut made = 0;
        let ns = measure_fresh_ns(
            4,
            || {
                made += 1;
                vec![1u64; 1000]
            },
            |v| v.len(),
        );
        assert!(ns > 0.0);
        assert_eq!(made, 36, "nine batches of four fresh inputs");
    }

    #[test]
    fn human_units() {
        assert_eq!(human(12.0), "12 ns");
        assert_eq!(human(12_500.0), "12.50 µs");
        assert_eq!(human(12_500_000.0), "12.50 ms");
        assert_eq!(human(2_500_000_000.0), "2.500 s");
    }
}
