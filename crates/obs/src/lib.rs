//! # locality-obs
//!
//! Zero-dependency, deterministic observability for the k-local
//! routing stack.
//!
//! The simulator and benchmark harness need a forensic record of what
//! happened inside a run — which hops, which ticks, which cache — but
//! anything they record must obey the same determinism contract as the
//! simulator itself: a trace is a pure function of the seed, byte for
//! byte, at any worker-thread count. This crate is the shared
//! substrate that makes that possible:
//!
//! * [`Recorder`]: a runtime-switchable event sink writing structured
//!   JSONL into an in-memory buffer. Events are stamped with a
//!   monotone sequence number and the **simulation tick** — never a
//!   wall clock, which the `locality-lint` R2 rule bans from this
//!   crate at the source level.
//! * [`Metrics`]: a registry of named counters, gauges, and
//!   [`PowHistogram`]s, dumped as events in sorted (deterministic)
//!   order.
//! * [`PowHistogram`]: a fixed-size power-of-two-bucket histogram with
//!   integer-only quantiles (p50/p95/max), used both inside traces and
//!   by `NetworkMetrics` for hop distributions.
//! * [`json`]: a hand-rolled escaping JSONL writer and a minimal
//!   recursive-descent parser, so reading a trace back needs no
//!   third-party crates either.
//! * [`witness`]: the route-witness schema — per-message hop-by-hop
//!   journeys reconstructed from a parsed trace, which the simulator's
//!   replay checker verifies against the graph (locality, dilation,
//!   conservation).
//! * [`analytics`]: bounded-memory streaming analysis of multi-GB
//!   trace corpora — a chunked line reader, an incremental witness
//!   fold, the pluggable [`analytics::Mode`] trait behind
//!   `bin/tracecat` (summary / stats / loops / imperiled), and
//!   trial-block stream surgery (merge / split / chunk / diff).
//!
//! The crate sits below `locality-graph` in the dependency order, so
//! node identifiers here are raw `u32` indices; interpreting them
//! against a concrete [`Graph`](https://docs.rs) happens upstream in
//! `locality-sim`.
//!
//! # Example
//!
//! ```
//! use locality_obs::{Level, Recorder};
//!
//! let mut rec = Recorder::new(Level::Hops);
//! if let Some(e) = rec.event(Level::Hops, 3, "hop") {
//!     e.u64("msg", 0).u64("node", 5).u64("to", 9).str("rule", "greedy").finish();
//! }
//! let line = String::from_utf8(rec.into_bytes()).unwrap();
//! assert_eq!(
//!     line,
//!     "{\"seq\":0,\"tick\":3,\"ev\":\"hop\",\"msg\":0,\"node\":5,\"to\":9,\"rule\":\"greedy\"}\n"
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analytics;
pub mod hist;
pub mod json;
pub mod names;
pub mod record;
pub mod registry;
pub mod witness;

pub use analytics::{run_mode, Mode, StreamError, StreamReport, TailMode};
pub use hist::PowHistogram;
pub use json::{Json, JsonError};
pub use record::{Event, Level, Recorder};
pub use registry::Metrics;
pub use witness::{collect_witnesses, parse_trace, RouteWitness, TraceError, WitnessHop};
