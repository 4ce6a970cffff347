//! Typed errors for operations on a running network.

use std::fmt;

use local_routing::OracleError;
use locality_graph::{GraphError, NodeId};

/// Why a [`crate::Network`] operation was rejected.
///
/// The network is left untouched when any of these is returned:
/// topology changes are validated (and rolled back) before any node is
/// re-provisioned, and message injection validates endpoints before
/// allocating a record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Removing the edge would disconnect the network, which the
    /// paper's model (a connected graph) and every router's
    /// preconditions forbid.
    WouldDisconnect(
        /// One endpoint of the removed edge.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// The underlying graph edit was invalid: unknown endpoint,
    /// duplicate edge, or self-loop.
    Topology(GraphError),
    /// A [`NodeId`] handed to the network does not name a provisioned
    /// node.
    UnknownNode(NodeId),
    /// The view artifact handed to
    /// [`crate::Provisioner::Oracle`] does not match the
    /// topology/locality the network is being built for, or failed to
    /// decode.
    Oracle(OracleError),
    /// [`crate::NetworkBuilder::shards`] or
    /// [`crate::NetworkBuilder::shard_workers`] was given a value other
    /// than 1: a trial runs on one thread, one timing wheel and one
    /// arrival arena.
    ShardOption {
        /// The builder method that was called.
        option: &'static str,
        /// The value it was given.
        value: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WouldDisconnect(a, b) => {
                write!(f, "removing edge ({a}, {b}) would disconnect the network")
            }
            SimError::Topology(e) => write!(f, "invalid topology change: {e}"),
            SimError::UnknownNode(u) => {
                write!(f, "node {u} is not provisioned in this network")
            }
            SimError::Oracle(e) => write!(f, "oracle artifact rejected: {e}"),
            SimError::ShardOption { option, value } => {
                write!(f, "{option}({value}) is not supported: only 1 is accepted")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            SimError::Oracle(e) => Some(e),
            SimError::WouldDisconnect(..)
            | SimError::UnknownNode(..)
            | SimError::ShardOption { .. } => None,
        }
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> SimError {
        SimError::Topology(e)
    }
}

impl From<OracleError> for SimError {
    fn from(e: OracleError) -> SimError {
        SimError::Oracle(e)
    }
}
