//! Witness replay: verifies a recorded trace against the graph.
//!
//! A route witness claims that a sequence of forwarding decisions
//! happened. This module re-derives every one of those decisions from
//! scratch — the deciding node's `G_k(u)` view, the masked packet, the
//! router — and checks that the trace could not have been produced any
//! other way:
//!
//! * **Locality**: each hop's chosen edge is re-derivable from the
//!   decider's k-neighbourhood view alone, fires the same router rule,
//!   and exists in the graph.
//! * **Dilation**: a delivered route is within the router's proven
//!   multiplicative bound of the shortest path
//!   (see [`dilation_factor`]).
//! * **Conservation**: fate events partition the message population
//!   exactly as [`NetworkMetrics`] buckets do
//!   (see [`check_conservation`]).
//!
//! Decision replay assumes fresh views — i.e. a fault-free topology —
//! because a witness does not embed the stale view a node held under
//! churn (only the tick it was provisioned). Conservation checking
//! has no such restriction and is what the chaos suite uses.

use local_routing::{engine, LocalRouter, ViewStore};
use locality_graph::{traversal, Graph, NodeId};
use locality_obs::RouteWitness;

use crate::metrics::NetworkMetrics;

/// The proven multiplicative dilation bound of a known router: a
/// delivered route may be at most `factor × dist(s, t)` hops
/// (Algorithm 1 ≤ 7, Algorithm 1B ≤ 6, Algorithm 2 ≤ 3, Algorithm 3
/// routes shortest paths). Unknown routers are not dilation-checked.
pub fn dilation_factor(router_name: &str) -> Option<u64> {
    match router_name {
        "algorithm-1" => Some(7),
        "algorithm-1b" => Some(6),
        "algorithm-2" => Some(3),
        "algorithm-3" | "algorithm-3-origin-aware" => Some(1),
        _ => None,
    }
}

/// Why a witness failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The witness names a node outside the graph.
    UnknownNode {
        /// Message id.
        msg: u64,
        /// The offending raw node id.
        node: u32,
    },
    /// An attempt's hop sequence does not chain (a hop's decider is
    /// not the previous hop's target, or its `from` disagrees).
    BrokenChain {
        /// Message id.
        msg: u64,
        /// Index into the witness's hop list.
        hop: usize,
    },
    /// A hop's chosen edge does not exist in the graph.
    MissingEdge {
        /// Message id.
        msg: u64,
        /// The deciding node.
        node: u32,
        /// The claimed next node.
        to: u32,
    },
    /// Re-deriving the decision from `G_k(u)` chose a different edge.
    Divergence {
        /// Message id.
        msg: u64,
        /// Index into the witness's hop list.
        hop: usize,
        /// The traced next node.
        recorded: u32,
        /// The neighbour the re-derived label names, or `u32::MAX` when
        /// it names none.
        derived: u32,
    },
    /// The decision reproduces but a different router rule fired.
    RuleMismatch {
        /// Message id.
        msg: u64,
        /// Index into the witness's hop list.
        hop: usize,
        /// The traced rule name.
        recorded: String,
        /// The re-derived rule name.
        derived: &'static str,
    },
    /// The router errored where the trace recorded a decision.
    RouterError {
        /// Message id.
        msg: u64,
        /// Index into the witness's hop list.
        hop: usize,
        /// The router's error message.
        err: String,
    },
    /// A delivered witness's final attempt does not end at `t`.
    WrongEndpoint {
        /// Message id.
        msg: u64,
    },
    /// A delivered route exceeds the router's proven dilation bound.
    DilationExceeded {
        /// Message id.
        msg: u64,
        /// Hops of the final attempt.
        hops: u64,
        /// `dist(s, t)` in the graph.
        dist: u64,
        /// The violated bound (`factor × dist`).
        bound: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownNode { msg, node } => {
                write!(f, "msg {msg}: witness names unknown node {node}")
            }
            ReplayError::BrokenChain { msg, hop } => {
                write!(f, "msg {msg}: hop {hop} does not chain from its predecessor")
            }
            ReplayError::MissingEdge { msg, node, to } => {
                write!(f, "msg {msg}: edge ({node}, {to}) does not exist in the graph")
            }
            ReplayError::Divergence {
                msg,
                hop,
                recorded,
                derived,
            } => write!(
                f,
                "msg {msg}: hop {hop} diverges — trace chose {recorded}, replay derives {derived}"
            ),
            ReplayError::RuleMismatch {
                msg,
                hop,
                recorded,
                derived,
            } => write!(
                f,
                "msg {msg}: hop {hop} rule mismatch — trace says {recorded:?}, replay fired {derived:?}"
            ),
            ReplayError::RouterError { msg, hop, err } => {
                write!(f, "msg {msg}: hop {hop} errors on replay: {err}")
            }
            ReplayError::WrongEndpoint { msg } => {
                write!(f, "msg {msg}: delivered but final attempt does not end at t")
            }
            ReplayError::DilationExceeded {
                msg,
                hops,
                dist,
                bound,
            } => write!(
                f,
                "msg {msg}: {hops} hops exceed the dilation bound {bound} (dist {dist})"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a successful replay verified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Witnesses examined.
    pub messages: usize,
    /// Delivered witnesses (dilation-checked when the router's bound
    /// is known).
    pub delivered: usize,
    /// Forwarding decisions re-derived from `G_k(u)` views.
    pub hops_checked: usize,
    /// Worst delivered stretch seen, as `(hops, dist)` of the message
    /// maximising `hops / dist` (`(0, 0)` when no such message).
    pub worst_stretch: (u64, u64),
}

/// Replays every witness against `graph` and `router`, re-deriving
/// each forwarding decision from the decider's `G_k(u)` view and
/// checking route chaining, edge existence, rule agreement, and (for
/// delivered witnesses of routers with a known [`dilation_factor`])
/// the dilation bound.
///
/// Assumes the trace was produced on this exact topology with fresh
/// views (fault-free); use [`check_conservation`] for churn traces.
///
/// # Errors
///
/// The first [`ReplayError`] encountered, in witness order.
pub fn verify_witnesses<R: LocalRouter + ?Sized>(
    graph: &Graph,
    k: u32,
    router: &R,
    witnesses: &[RouteWitness],
) -> Result<ReplayReport, ReplayError> {
    let n = graph.node_count() as u32;
    let views = ViewStore::new(graph, k);
    let factor = dilation_factor(router.name());
    let mut report = ReplayReport::default();
    for w in witnesses {
        report.messages += 1;
        for &raw in [w.s, w.t].iter() {
            if raw >= n {
                return Err(ReplayError::UnknownNode {
                    msg: w.msg,
                    node: raw,
                });
            }
        }
        let (s, t) = (NodeId(w.s), NodeId(w.t));
        let origin = graph.label(s);
        let target = graph.label(t);
        // Verify each attempt's chain and every decision in it.
        let last_attempt = w.hops.iter().map(|h| h.attempt).max().unwrap_or(0);
        for attempt in 0..=last_attempt {
            let mut prev: Option<&locality_obs::WitnessHop> = None;
            for (i, hop) in w.hops.iter().enumerate() {
                if hop.attempt != attempt {
                    continue;
                }
                for &raw in [hop.node, hop.to].iter() {
                    if raw >= n {
                        return Err(ReplayError::UnknownNode {
                            msg: w.msg,
                            node: raw,
                        });
                    }
                }
                let chained = match prev {
                    // Every attempt restarts at the source.
                    None => hop.node == w.s && hop.from.is_none(),
                    Some(p) => hop.node == p.to && hop.from == Some(p.node),
                };
                if !chained {
                    return Err(ReplayError::BrokenChain { msg: w.msg, hop: i });
                }
                let (at, to) = (NodeId(hop.node), NodeId(hop.to));
                if !graph.has_edge(at, to) {
                    return Err(ReplayError::MissingEdge {
                        msg: w.msg,
                        node: hop.node,
                        to: hop.to,
                    });
                }
                // The locality check proper: the decision must be
                // re-derivable from G_k(at) and nothing else.
                let view = views.view(graph, at);
                let from_label = hop.from.map(|f| graph.label(NodeId(f)));
                let (label, rule) = engine::decide_hop(view, router, origin, target, from_label)
                    .map_err(|e| ReplayError::RouterError {
                        msg: w.msg,
                        hop: i,
                        err: e.to_string(),
                    })?;
                let derived = graph.neighbor_by_label(at, label).map_or(u32::MAX, |x| x.0);
                if derived != hop.to {
                    return Err(ReplayError::Divergence {
                        msg: w.msg,
                        hop: i,
                        recorded: hop.to,
                        derived,
                    });
                }
                if rule != hop.rule {
                    return Err(ReplayError::RuleMismatch {
                        msg: w.msg,
                        hop: i,
                        recorded: hop.rule.clone(),
                        derived: rule,
                    });
                }
                report.hops_checked += 1;
                prev = Some(hop);
            }
        }
        if w.delivered() {
            report.delivered += 1;
            let route = w.route();
            let hops = route.len().saturating_sub(1) as u64;
            if route.last().copied() != Some(w.t) {
                return Err(ReplayError::WrongEndpoint { msg: w.msg });
            }
            let dist = u64::from(traversal::distance(graph, s, t).unwrap_or(0));
            if dist > 0 {
                if let Some(factor) = factor {
                    let bound = factor * dist;
                    if hops > bound {
                        return Err(ReplayError::DilationExceeded {
                            msg: w.msg,
                            hops,
                            dist,
                            bound,
                        });
                    }
                }
                let (wh, wd) = report.worst_stretch;
                if wd == 0 || hops * wd > wh * dist {
                    report.worst_stretch = (hops, dist);
                }
            }
        }
    }
    Ok(report)
}

/// A conservation mismatch between a trace and [`NetworkMetrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConservationError {
    /// The disagreeing quantity (a fate tag, `delivered_hops`, or
    /// `retries`).
    pub field: &'static str,
    /// The trace-side count.
    pub trace: u64,
    /// The metrics-side count.
    pub metrics: u64,
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conservation: {} is {} in the trace but {} in the metrics",
            self.field, self.trace, self.metrics
        )
    }
}

impl std::error::Error for ConservationError {}

/// Checks that the witnesses' terminal fates partition the message
/// population exactly as the metrics buckets do — the trace-level
/// counterpart of [`NetworkMetrics::accounted`] — and that summed
/// delivered hops and retries agree. Valid under churn: it needs no
/// view reconstruction.
///
/// # Errors
///
/// The first disagreeing quantity.
pub fn check_conservation(
    witnesses: &[RouteWitness],
    m: &NetworkMetrics,
) -> Result<(), ConservationError> {
    let fate_count = |tag: &str| -> u64 {
        witnesses
            .iter()
            .filter(|w| w.fate.as_deref().unwrap_or("in_flight") == tag)
            .count() as u64
    };
    let delivered_hops: u64 = witnesses
        .iter()
        .filter(|w| w.delivered())
        .map(|w| w.route().len().saturating_sub(1) as u64)
        .sum();
    let retries: u64 = witnesses.iter().map(|w| u64::from(w.retries)).sum();
    let checks: [(&'static str, u64, u64); 13] = [
        ("sent", witnesses.len() as u64, m.sent as u64),
        ("delivered", fate_count("delivered"), m.delivered as u64),
        ("looped", fate_count("looped"), m.looped as u64),
        ("errored", fate_count("errored"), m.errored as u64),
        ("exhausted", fate_count("exhausted"), m.exhausted as u64),
        ("dropped", fate_count("dropped"), m.dropped as u64),
        ("timed_out", fate_count("timed_out"), m.timed_out as u64),
        ("gave_up", fate_count("gave_up"), m.gave_up as u64),
        ("rejected", fate_count("rejected"), m.rejected as u64),
        ("shed", fate_count("shed"), m.shed as u64),
        ("in_flight", fate_count("in_flight"), m.in_flight as u64),
        ("delivered_hops", delivered_hops, m.delivered_hops as u64),
        ("retries", retries, m.retries),
    ];
    for (field, trace, metrics) in checks {
        if trace != metrics {
            return Err(ConservationError {
                field,
                trace,
                metrics,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use local_routing::{Alg1, Alg3, LocalRouter};
    use locality_graph::generators;
    use locality_graph::rng::DetRng;
    use locality_obs::{collect_witnesses, parse_trace, Level, Recorder};

    /// Runs an all-pairs traced simulation and returns its witnesses
    /// and metrics.
    fn traced_all_pairs<R: LocalRouter + Clone + Send + Sync + 'static>(
        g: &Graph,
        k: u32,
        router: R,
    ) -> (Vec<RouteWitness>, NetworkMetrics) {
        let mut net = NetworkBuilder::new(g, k)
            .recorder(Recorder::new(Level::Hops))
            .build(router);
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    net.send(s, t);
                }
            }
        }
        net.run_until_quiet();
        let bytes = net.finish_trace();
        let text = String::from_utf8(bytes).unwrap();
        let events = parse_trace(&text).unwrap();
        (collect_witnesses(&events), net.metrics())
    }

    #[test]
    fn all_pairs_replay_verifies_alg1() {
        let g = generators::random_connected(24, 12, &mut DetRng::seed_from_u64(5));
        let k = Alg1.min_locality(24);
        let (ws, m) = traced_all_pairs(&g, k, Alg1);
        let report = verify_witnesses(&g, k, &Alg1, &ws).unwrap();
        assert_eq!(report.messages, 24 * 23);
        assert_eq!(report.delivered, m.delivered);
        assert!(report.hops_checked as usize >= m.delivered_hops);
        check_conservation(&ws, &m).unwrap();
    }

    #[test]
    fn alg3_routes_are_shortest_on_replay() {
        let g = generators::cycle(14);
        let k = Alg3.min_locality(14);
        let (ws, m) = traced_all_pairs(&g, k, Alg3);
        let report = verify_witnesses(&g, k, &Alg3, &ws).unwrap();
        assert_eq!(report.delivered, m.delivered);
        let (wh, wd) = report.worst_stretch;
        assert_eq!(wh, wd, "algorithm-3 must route shortest paths");
    }

    #[test]
    fn tampered_hop_is_caught() {
        let g = generators::cycle(10);
        let k = Alg3.min_locality(10);
        let (mut ws, _) = traced_all_pairs(&g, k, Alg3);
        let w = ws.iter_mut().find(|w| w.hops.len() >= 2).unwrap();
        let msg = w.msg;
        // Flip a mid-route decision to the node the route came from.
        let back = w.hops[0].node;
        w.hops[1].to = back;
        let err = verify_witnesses(&g, k, &Alg3, &ws).unwrap_err();
        match err {
            ReplayError::Divergence { msg: m, .. } | ReplayError::BrokenChain { msg: m, .. } => {
                assert_eq!(m, msg)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn conservation_catches_a_missing_fate() {
        let g = generators::cycle(8);
        let k = Alg3.min_locality(8);
        let (mut ws, m) = traced_all_pairs(&g, k, Alg3);
        check_conservation(&ws, &m).unwrap();
        ws.first_mut().unwrap().fate = None;
        let err = check_conservation(&ws, &m).unwrap_err();
        assert_eq!(err.field, "delivered");
    }

    #[test]
    fn dilation_factors_cover_the_proven_routers() {
        assert_eq!(dilation_factor("algorithm-1"), Some(7));
        assert_eq!(dilation_factor("algorithm-1b"), Some(6));
        assert_eq!(dilation_factor("algorithm-2"), Some(3));
        assert_eq!(dilation_factor("algorithm-3"), Some(1));
        assert_eq!(dilation_factor("right-hand-rule"), None);
    }
}
