//! Error type for graph construction and parsing.

use std::error::Error;
use std::fmt;

use crate::labels::{Label, NodeId};

/// Errors produced while building, mutating, or parsing graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// Two nodes were given the same label; labels must be unique.
    DuplicateLabel(Label),
    /// An edge was added twice; the graph is simple.
    DuplicateEdge(NodeId, NodeId),
    /// An edge removal named an edge that is not present.
    MissingEdge(NodeId, NodeId),
    /// A self-loop was requested; the graph is simple.
    SelfLoop(NodeId),
    /// An endpoint refers to a node that was never added.
    UnknownNode(NodeId),
    /// A textual graph description could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Human-readable description of what went wrong.
        message: String,
    },
    /// An edgelist line declared a self-loop (`u u`).
    EdgelistSelfLoop {
        /// The node that was looped to itself.
        node: NodeId,
        /// 1-based line number of the offending input line.
        line: usize,
    },
    /// A graph file asks for more than [`crate::io::MAX_NODES`] nodes:
    /// a native `n` header past the cap, or an edge-list id at or past
    /// it.
    TooManyNodes {
        /// The node count the line asks for (an edge-list id plus one).
        nodes: u64,
        /// 1-based line number of the offending input line.
        line: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateLabel(l) => write!(f, "duplicate node label {l}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "edge {{{a},{b}}} already present"),
            GraphError::MissingEdge(a, b) => write!(f, "edge {{{a},{b}}} is not present"),
            GraphError::SelfLoop(a) => write!(f, "self-loop at {a} not allowed in a simple graph"),
            GraphError::UnknownNode(a) => write!(f, "node {a} does not exist"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::EdgelistSelfLoop { node, line } => {
                write!(f, "self-loop at {node} on line {line}")
            }
            GraphError::TooManyNodes { nodes, line } => write!(
                f,
                "line {line} asks for {nodes} nodes; a graph file holds at most {}",
                crate::io::MAX_NODES
            ),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::SelfLoop(NodeId(3));
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse {
            line: 2,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 2"));
    }
}
