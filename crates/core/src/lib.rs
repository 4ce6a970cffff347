//! # local-routing
//!
//! Deterministic, memoryless, stateless **k-local routing** on arbitrary
//! connected graphs — a full implementation of Bose, Carmi and Durocher,
//! *Bounding the Locality of Distributed Routing Algorithms* (PODC 2009).
//!
//! A *k-local routing algorithm* makes a sequence of distributed
//! forwarding decisions, each computed as a function
//! `f(s, t, u, v, G_k(u))` of the origin `s`, destination `t`, current
//! node `u`, the neighbour `v` that delivered the message, and the
//! k-neighbourhood `G_k(u)` — and nothing else. The paper proves tight
//! thresholds `T(n)` on `k` for such routing to be possible at all:
//!
//! | `T(n)`                 | origin-aware | origin-oblivious |
//! |------------------------|--------------|------------------|
//! | predecessor-aware      | `n/4`        | `n/3`            |
//! | predecessor-oblivious  | `n/2`        | `n/2`            |
//!
//! This crate provides the four positive algorithms behind a uniform
//! [`LocalRouter`] trait:
//!
//! * [`Alg1`] — origin- and predecessor-aware, succeeds for `k >= n/4`,
//!   dilation ≤ 7 (§5.1),
//! * [`Alg1B`] — refinement with dilation ≤ 6 (Appendix A),
//! * [`Alg2`] — origin-oblivious, succeeds for `k >= n/3`, dilation < 3
//!   (§5.2),
//! * [`Alg3`] — origin- and predecessor-oblivious, succeeds for
//!   `k >= ⌊n/2⌋` and follows a shortest path (§5.3),
//!
//! plus baselines ([`baselines`]), the deterministic run engine with
//! exact loop detection ([`engine`], over the route-sized state set of
//! [`visited`]), the preprocessing step that breaks
//! local cycles ([`preprocess`]), and checkers for the paper's structural
//! lemmas ([`verify`]).
//!
//! Locality is enforced *by construction*: a router receives a
//! [`LocalView`] extracted around the current node and physically cannot
//! observe the rest of the graph; origin/predecessor obliviousness is
//! enforced by the engine masking those packet fields before the router
//! sees them.
//!
//! # Quickstart
//!
//! ```
//! use local_routing::{engine, Alg1, LocalRouter};
//! use locality_graph::{generators, NodeId};
//!
//! let g = generators::cycle(16);
//! let k = Alg1.min_locality(g.node_count()); // ceil(n / 4) = 4
//! let report = engine::route(&g, k, &Alg1, NodeId(0), NodeId(8));
//! assert!(report.status.is_delivered());
//! assert!(report.dilation().unwrap() <= 7.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod alg1;
mod alg2;
mod alg3;
pub mod baselines;
pub mod engine;
mod error;
mod model;
pub mod oracle;
pub mod position;
pub mod preprocess;
pub mod stateful;
mod traits;
pub mod verify;
mod view;
pub mod visited;

pub use alg1::{Alg1, Alg1B};
pub use alg2::Alg2;
pub use alg3::{Alg3, Alg3OriginAware};
pub use engine::{ViewStore, ViewStoreStats};
pub use error::RoutingError;
pub use model::{Awareness, Packet};
pub use oracle::{OracleError, ViewArtifact};
pub use traits::LocalRouter;
pub use view::{next_port, LocalView, RoutingView, Schema};
