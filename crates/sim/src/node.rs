//! Per-node identity and traffic counters.

use locality_graph::{Label, NodeId};

/// One simulated network node: its identity and traffic counters. The
/// node's stored k-neighbourhood view lives in the network's one view
/// store ([`Network::view`](crate::Network::view)), and every
/// forwarding decision at the node is computed from that view alone —
/// never from the global graph — which is exactly the locality
/// guarantee of the paper's model.
pub struct SimNode {
    id: NodeId,
    label: Label,
    /// Messages this node has forwarded (its traffic load).
    pub forwarded: u64,
    /// Messages delivered at this node.
    pub delivered: u64,
    /// Tick at which the stored view was last (re-)provisioned — `0`
    /// at start-up. Lets churn tests observe exactly when a node's
    /// knowledge caught up with a topology change.
    pub provisioned_at: u64,
}

impl SimNode {
    /// A node provisioned at start-up, with zeroed counters.
    pub(crate) fn new(id: NodeId, label: Label) -> SimNode {
        SimNode {
            id,
            label,
            forwarded: 0,
            delivered: 0,
            provisioned_at: 0,
        }
    }

    /// The node's id in the simulation.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's label.
    pub fn label(&self) -> Label {
        self.label
    }
}
