//! Canonical metric names shared across the stack.
//!
//! The simulator emits these into its end-of-run registry flush and
//! trace tooling greps for them, so the strings live here — below both
//! in the dependency order — to keep producers and consumers from
//! drifting. Only names consumed by more than one crate belong here;
//! purely local counters stay as string literals at their single use
//! site.

/// Gauge: views served by decoding a precomputed oracle artifact
/// (emitted only on artifact-backed runs).
pub const ORACLE_LOADS: &str = "oracle.loads";

/// Gauge: views re-extracted with a k-bounded BFS because a churn wave
/// marked the artifact entry stale (emitted only on artifact-backed
/// runs). Together with [`ORACLE_LOADS`] this is the conservation
/// pair: loads + rebuilds = cold misses, and rebuilds counts exactly
/// the nodes inside some wave's dirty radius.
pub const ORACLE_REBUILDS: &str = "oracle.rebuilds";

/// Gauge: injections refused by the admission controller (emitted only
/// when a non-open admission policy is configured, so open-policy
/// traces stay byte-identical to the pre-admission simulator).
pub const ADMISSION_REJECTED: &str = "admission.rejected";

/// Gauge: admitted messages evicted by the shed-oldest admission
/// policy (emitted only when a non-open policy is configured).
pub const ADMISSION_SHED: &str = "admission.shed";

/// Gauge: highest in-flight arena occupancy the admission controller
/// observed at a decision point — the saturation high-water mark
/// (emitted only when a non-open policy is configured).
pub const ADMISSION_PEAK_LIVE: &str = "admission.peak_live";

/// Gauge: admission decisions taken, i.e. injections attempted while a
/// non-open policy was active (emitted only when one is configured).
pub const ADMISSION_DECISIONS: &str = "admission.decisions";
