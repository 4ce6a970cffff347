//! # locality-graph
//!
//! Graph substrate for studying the locality of distributed routing
//! algorithms, following the model of Bose, Carmi and Durocher,
//! *Bounding the Locality of Distributed Routing Algorithms* (PODC 2009).
//!
//! The paper models a network as a connected, unweighted, undirected,
//! simple graph with unique vertex labels, and studies routing algorithms
//! whose forwarding decisions depend only on the *k-neighbourhood*
//! `G_k(u)` of the current node `u`: the subgraph made up of all paths of
//! length at most `k` rooted at `u`. This crate provides:
//!
//! * [`Graph`]: a labelled, undirected, simple graph with label-sorted
//!   neighbour lists, so an edge query or a label-to-neighbour lookup is
//!   one O(log deg) binary search,
//! * [`Subgraph`]: a lightweight vertex/edge subset view used for
//!   k-neighbourhoods and routing subgraphs,
//! * [`neighborhood::k_neighborhood`]: extraction of `G_k(u)`,
//! * [`components`]: the paper's taxonomy of *local components*
//!   (active / passive / constrained / independent, §2.1, Fig. 1),
//! * [`cycles`]: girth and local-cycle machinery (§2.1, §5.1),
//! * [`generators`]: graph families used throughout the paper's
//!   constructions and our experiments,
//! * [`fanout`]: the one ordered parallel map that every batch job
//!   (trials, delivery matrices, artifacts, adversary scans) fans out
//!   through, and
//! * [`permute`]: adversarial relabelling (§1.1: labels must not encode
//!   topology, so algorithms must survive any label permutation).
//!
//! # Example
//!
//! ```
//! use locality_graph::{generators, neighborhood, NodeId};
//!
//! // A 12-cycle: with k = 4, node 0 sees two paths of length 4 but not
//! // the far side of the cycle.
//! let g = generators::cycle(12);
//! let view = neighborhood::k_neighborhood(&g, NodeId(0), 4);
//! assert_eq!(view.node_count(), 9); // 0, 1..=4 and 8..=11
//! assert!(!view.contains_node(NodeId(6)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod components;
pub mod cycles;
pub mod dist;
mod error;
pub mod fanout;
pub mod generators;
pub mod geo;
mod graph;
pub mod io;
mod labels;
pub mod neighborhood;
pub mod permute;
pub mod rng;
mod subgraph;
pub mod traversal;

pub use codec::CodecError;
pub use dist::DistMap;
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use labels::{EdgeRank, Label, NodeId};
pub use subgraph::{Subgraph, SubgraphBuilder};
pub use traversal::Topology;
