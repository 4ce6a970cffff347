//! Per-message records and aggregate network metrics.

use locality_graph::NodeId;
use locality_obs::PowHistogram;

/// Why a message's journey ended (or has not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Still travelling (or parked on a down link awaiting restoration).
    InFlight,
    /// Arrived at its destination.
    Delivered,
    /// The simulator proved the deterministic router will cycle forever
    /// (a `(node, predecessor)` state recurred) and dropped the message.
    Looped,
    /// The router reported an error at some node.
    Errored(String),
    /// The attempt reached
    /// [`engine::step_cap`](local_routing::engine::step_cap) hops. Exact
    /// loop detection ends every attempt first, so this fate guards
    /// only against a loop-detector bug.
    HopBudgetExhausted,
    /// Lost in transit — a lossy link, a dead link under the `Drop`
    /// policy, or a crashed node — with no source-side timeout
    /// configured to notice.
    Dropped,
    /// A source-side timeout expired and no retries were configured.
    TimedOut,
    /// A source-side timeout expired after every configured retry was
    /// spent.
    GaveUp,
    /// The admission controller refused the injection: the network was
    /// saturated and the configured
    /// [`AdmissionPolicy`](crate::AdmissionPolicy) rejects new traffic.
    /// The message was counted as sent but never scheduled.
    Rejected,
    /// The admission controller evicted this already-admitted message
    /// to make room for newer traffic under saturation
    /// (the shed-oldest policy).
    Shed,
}

impl MessageFate {
    /// The stable snake_case tag used in trace `fate` events and by
    /// the conservation checker — one tag per metrics bucket.
    pub fn tag(&self) -> &'static str {
        match self {
            MessageFate::InFlight => "in_flight",
            MessageFate::Delivered => "delivered",
            MessageFate::Looped => "looped",
            MessageFate::Errored(_) => "errored",
            MessageFate::HopBudgetExhausted => "exhausted",
            MessageFate::Dropped => "dropped",
            MessageFate::TimedOut => "timed_out",
            MessageFate::GaveUp => "gave_up",
            MessageFate::Rejected => "rejected",
            MessageFate::Shed => "shed",
        }
    }
}

/// The observable history of one message. The tracking lives in the
/// simulator, not in the message: the routed algorithms stay stateless —
/// this is telemetry, not protocol state.
#[derive(Clone, Debug)]
pub struct MessageRecord {
    /// Origin node.
    pub s: NodeId,
    /// Destination node.
    pub t: NodeId,
    /// Nodes visited by the **current attempt**, starting with `s` (a
    /// source-side retry restarts the path).
    pub path: Vec<NodeId>,
    /// Final fate.
    pub fate: MessageFate,
    /// Tick at which the message was first injected (retries do not
    /// reset it, so [`latency`](Self::latency) is end-to-end as the
    /// sender experiences it).
    pub sent_at: u64,
    /// Tick of delivery (if delivered).
    pub delivered_at: Option<u64>,
    /// Source-side retransmissions performed for this message.
    pub retries: u32,
}

impl MessageRecord {
    /// Whether the message arrived.
    pub fn delivered(&self) -> bool {
        self.fate == MessageFate::Delivered
    }

    /// Edges traversed by the current attempt so far.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// End-to-end latency in ticks (delivery only), timeouts and
    /// retries included.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_at.map(|d| d - self.sent_at)
    }
}

/// Aggregate statistics over a finished simulation. Every injected
/// message lands in exactly one bucket:
/// `sent == delivered + looped + errored + exhausted + dropped +
/// timed_out + gave_up + rejected + shed + in_flight` — see
/// [`accounted`](Self::accounted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkMetrics {
    /// Messages injected.
    pub sent: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages dropped as provably looping.
    pub looped: usize,
    /// Messages dropped on router errors.
    pub errored: usize,
    /// Messages whose attempt reached the step cap
    /// ([`MessageFate::HopBudgetExhausted`]).
    pub exhausted: usize,
    /// Messages lost in transit with no reliability configured.
    pub dropped: usize,
    /// Messages whose timeout expired with no retries configured.
    pub timed_out: usize,
    /// Messages abandoned after exhausting their retry budget.
    pub gave_up: usize,
    /// Messages refused by the admission controller at injection.
    pub rejected: usize,
    /// Admitted messages evicted by the shed-oldest admission policy.
    pub shed: usize,
    /// Messages still travelling (or parked on a down link) when the
    /// metrics were read.
    pub in_flight: usize,
    /// Source-side retransmissions across all messages.
    pub retries: u64,
    /// Fault-plan events applied (topology flips, crashes, restarts).
    pub faults_applied: usize,
    /// Fault-plan events skipped (no-op flips, or link cuts refused
    /// because they would disconnect the network).
    pub faults_skipped: usize,
    /// Total hops of delivered messages (final attempts).
    pub delivered_hops: usize,
    /// Route-length distribution of delivered messages (final
    /// attempts).
    pub hop_hist: PowHistogram,
    /// The highest per-node forwarding load.
    pub max_node_load: u64,
    /// Ticks the simulation ran.
    pub ticks: u64,
}

impl NetworkMetrics {
    /// Mean route length of delivered messages.
    pub fn mean_hops(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.delivered_hops as f64 / self.delivered as f64)
    }

    /// Delivery ratio in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Messages the admission controller let through and never evicted:
    /// `sent - rejected - shed`. The population the graceful-degradation
    /// invariant is stated over.
    pub fn admitted(&self) -> usize {
        self.sent.saturating_sub(self.rejected + self.shed)
    }

    /// Delivery ratio over admitted-and-kept traffic in `[0, 1]` — the
    /// quantity that must stay within 1% of the unloaded baseline under
    /// overload. Shedding is honest: evicted messages leave the
    /// denominator *and* are separately accounted in [`shed_ratio`](Self::shed_ratio).
    pub fn admitted_delivery_ratio(&self) -> f64 {
        if self.admitted() == 0 {
            1.0
        } else {
            self.delivered as f64 / self.admitted() as f64
        }
    }

    /// Fraction of injected messages the controller rejected or shed.
    pub fn shed_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.rejected + self.shed) as f64 / self.sent as f64
        }
    }

    /// Whether every injected message is accounted for by exactly one
    /// terminal (or in-flight) bucket — the conservation invariant the
    /// churn suite asserts after every run.
    pub fn accounted(&self) -> bool {
        self.sent
            == self.delivered
                + self.looped
                + self.errored
                + self.exhausted
                + self.dropped
                + self.timed_out
                + self.gave_up
                + self.rejected
                + self.shed
                + self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accounting() {
        let r = MessageRecord {
            s: NodeId(0),
            t: NodeId(3),
            path: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            fate: MessageFate::Delivered,
            sent_at: 2,
            delivered_at: Some(5),
            retries: 0,
        };
        assert!(r.delivered());
        assert_eq!(r.hops(), 3);
        assert_eq!(r.latency(), Some(3));
    }

    #[test]
    fn metrics_ratios() {
        let mut m = NetworkMetrics {
            sent: 4,
            delivered: 3,
            delivered_hops: 12,
            ..Default::default()
        };
        for hops in [3u64, 4, 5] {
            m.hop_hist.observe(hops);
        }
        assert_eq!(m.mean_hops(), Some(4.0));
        assert_eq!(m.delivery_ratio(), 0.75);
        // Rank-2 of {3,4,5} falls in bucket [4,7], whose upper bound
        // is clamped to the observed max.
        assert_eq!(m.hop_hist.p50(), Some(5));
        assert_eq!(m.hop_hist.max(), Some(5));
        assert_eq!(NetworkMetrics::default().delivery_ratio(), 1.0);
        assert_eq!(NetworkMetrics::default().hop_hist.p50(), None);
    }

    #[test]
    fn fate_tags_are_stable() {
        assert_eq!(MessageFate::Delivered.tag(), "delivered");
        assert_eq!(MessageFate::Errored("x".into()).tag(), "errored");
        assert_eq!(MessageFate::HopBudgetExhausted.tag(), "exhausted");
        assert_eq!(MessageFate::InFlight.tag(), "in_flight");
        assert_eq!(MessageFate::Rejected.tag(), "rejected");
        assert_eq!(MessageFate::Shed.tag(), "shed");
    }

    #[test]
    fn accounted_checks_every_bucket() {
        let mut m = NetworkMetrics {
            sent: 10,
            delivered: 3,
            looped: 1,
            errored: 1,
            exhausted: 1,
            dropped: 1,
            timed_out: 0,
            gave_up: 1,
            rejected: 1,
            shed: 1,
            in_flight: 0,
            ..Default::default()
        };
        assert!(m.accounted());
        m.in_flight = 1;
        assert!(!m.accounted(), "an extra bucket entry must break the sum");
        m.in_flight = 0;
        m.rejected = 0;
        assert!(!m.accounted(), "rejected messages must stay accounted");
    }

    #[test]
    fn admitted_ratio_excludes_rejected_and_shed() {
        let m = NetworkMetrics {
            sent: 10,
            delivered: 6,
            rejected: 2,
            shed: 2,
            ..Default::default()
        };
        assert_eq!(m.admitted(), 6);
        assert_eq!(m.admitted_delivery_ratio(), 1.0);
        assert_eq!(m.delivery_ratio(), 0.6);
        assert_eq!(m.shed_ratio(), 0.4);
        assert_eq!(NetworkMetrics::default().admitted_delivery_ratio(), 1.0);
        assert_eq!(NetworkMetrics::default().shed_ratio(), 0.0);
    }
}
