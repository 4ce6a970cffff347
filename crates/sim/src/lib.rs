//! # locality-sim
//!
//! A distributed message-passing network simulator that runs any
//! [`LocalRouter`](local_routing::LocalRouter) as genuinely distributed
//! per-node state.
//!
//! The run engine in `local-routing` walks a message centrally for
//! speed; this crate models the deployment the paper describes (§1.1):
//! every network node is an independent state machine that, at start-up
//! (or after a topology change), *discovers its k-neighbourhood* and
//! thereafter makes forwarding decisions purely from that stored view
//! (its slot in the network's one view store) — the router never sees
//! the global graph. Messages
//! travel through FIFO links with unit latency, many messages are in
//! flight at once, and per-node load (congestion) is recorded.
//!
//! The [`fault`] module layers deterministic fault injection on top:
//! scheduled link outages and node crashes ([`FaultPlan`]), lossy and
//! slow links, stale-view propagation delays, and source-side
//! timeout/retry ([`FaultConfig`]) — all replayable from a single seed.
//!
//! ```
//! use local_routing::Alg2;
//! use locality_graph::{generators, NodeId};
//! use locality_sim::NetworkBuilder;
//!
//! let g = generators::cycle(12);
//! let mut net = NetworkBuilder::new(&g, 4).build(Alg2);
//! let id = net.send(NodeId(0), NodeId(6));
//! net.run_until_quiet();
//! let record = net.record(id).unwrap();
//! assert!(record.delivered());
//! assert_eq!(record.hops(), 6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod driver;
mod error;
pub mod fault;
pub mod flood;
mod metrics;
mod network;
mod node;
pub mod replay;
pub mod sched;
pub mod slab;
pub mod workload;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionPolicy, AdmissionVerdict, SaturationSample,
};
pub use error::SimError;
pub use fault::{
    ChurnConfig, DeadLinkPolicy, FaultConfig, FaultEvent, FaultPlan, LinkKey, LinkProfile,
};
pub use metrics::{MessageFate, MessageRecord, NetworkMetrics};
pub use network::{MessageId, Network, NetworkBuilder, Provisioner};
pub use node::SimNode;
// Re-exported so callers attaching a recorder need no direct
// `locality_obs` dependency.
pub use locality_obs::{Level, Recorder};
