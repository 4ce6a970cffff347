//! Deterministic fault injection and churn for [`crate::Network`].
//!
//! The paper's routers are memoryless precisely so a network keeps
//! routing with no per-node protocol state to lose; this module is the
//! machinery that *tests* that claim. A [`FaultPlan`] is a
//! tick-scheduled list of [`FaultEvent`]s — link cuts and restorations,
//! node crashes and restarts — and a [`FaultConfig`] describes the
//! ambient degradations: link loss probability and extra latency,
//! the policy for messages caught on a dead link, the stale-view
//! propagation delay, and source-side reliability (timeout + bounded
//! retries).
//!
//! Everything is deterministic and replayable from plain data: plans
//! are explicit schedules (or generated from a single `u64` seed via
//! [`FaultPlan::random_churn`]), and every probabilistic draw the
//! network makes (link loss) comes from the in-repo
//! [`DetRng`] seeded by
//! [`FaultConfig::seed`]. Same seed, same plan, same workload — same
//! fates, paths, and metrics, byte for byte. The `locality-lint` R2
//! extension enforces at the source level that no other randomness
//! source can creep into this module.

use std::collections::BTreeMap;

use locality_graph::rng::DetRng;
use locality_graph::{Graph, NodeId};

/// An unordered link identifier, normalized so `{a, b}` and `{b, a}`
/// name the same key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkKey(
    /// The smaller endpoint (by [`NodeId`]).
    pub NodeId,
    /// The larger endpoint.
    pub NodeId,
);

impl LinkKey {
    /// Normalizes an endpoint pair into a key.
    pub fn new(a: NodeId, b: NodeId) -> LinkKey {
        if a <= b {
            LinkKey(a, b)
        } else {
            LinkKey(b, a)
        }
    }
}

/// Ambient degradation of one link.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkProfile {
    /// Probability in `[0, 1]` that a transmission over this link is
    /// lost. Drawn from the network's [`DetRng`] only when nonzero, so
    /// a zero-loss run consumes no randomness at all.
    pub loss: f64,
    /// Extra ticks of latency on top of the unit link latency.
    pub extra_latency: u64,
}

/// What happens to a message in flight on (or forwarded onto) a link
/// that is down.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeadLinkPolicy {
    /// A message already mid-flight when the link died still arrives
    /// (the historical simulator behaviour, and the default so that a
    /// fault-free configuration is tick-for-tick identical to the
    /// pre-fault simulator). A *new* transmission onto a dead link is
    /// still lost — nothing can cross a link that no longer exists.
    #[default]
    Deliver,
    /// Messages on a dead link are lost (source reliability, if
    /// configured, will notice).
    Drop,
    /// Messages on a dead link are parked in FIFO order and delivered
    /// when — if ever — the link is restored.
    Queue,
}

/// Ambient fault model for a [`crate::Network`]. [`Default`] disables
/// everything: no loss, no extra latency, instant view propagation, no
/// reliability — the simulator then behaves exactly as it did before
/// fault injection existed.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Policy for messages on a link that goes down.
    pub dead_link: DeadLinkPolicy,
    /// Stale-view propagation delay: after a topology change, a node
    /// whose `G_k(u)` is affected re-provisions only at
    /// `change_tick + view_delay * (d + 1)`, where `d` is its hop
    /// distance to the nearest changed endpoint — a discovery wave
    /// spreading outward. `0` (default) re-provisions atomically inside
    /// the change, the historical behaviour.
    pub view_delay: u64,
    /// Loss/latency profile applied to every link.
    pub default_link: LinkProfile,
    /// Source-side reliability: if set, a message not delivered within
    /// this many ticks of injection is retried (or declared
    /// [`crate::MessageFate::TimedOut`] / [`crate::MessageFate::GaveUp`]).
    /// `None` (default) disables reliability: lost messages become
    /// [`crate::MessageFate::Dropped`] immediately.
    pub timeout: Option<u64>,
    /// Retries per message after the first attempt (used only with
    /// `timeout`).
    pub max_retries: u32,
    /// Deterministic backoff: retry `i` (1-based) waits
    /// `timeout + backoff * i` ticks before the next timeout check.
    pub backoff: u64,
    /// Seed for the network's loss-draw [`DetRng`].
    pub seed: u64,
}

/// One scheduled fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultEvent {
    /// Cut the link `{a, b}`: a topology change, with stale-view
    /// semantics per [`FaultConfig::view_delay`]. A cut that would
    /// disconnect the network is skipped (and counted in
    /// [`crate::NetworkMetrics::faults_skipped`]).
    LinkDown(
        /// One endpoint.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// Restore the link `{a, b}` and release any messages parked on it.
    LinkUp(
        /// One endpoint.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// Crash a node: it black-holes every arrival until restarted.
    /// Crashes are *not* topology changes — neighbours keep stale views
    /// that still route through the dead node, exactly the degradation
    /// a stateless router must survive.
    Crash(
        /// The node to crash.
        NodeId,
    ),
    /// Restart a crashed node. The node re-discovers its neighbourhood
    /// (re-provisions from the current topology) as it comes back.
    Restart(
        /// The node to restart.
        NodeId,
    ),
}

impl FaultEvent {
    /// The same event under a node permutation.
    pub fn permuted(self, perm: &[NodeId]) -> FaultEvent {
        let map = |u: NodeId| perm.get(u.index()).copied().unwrap_or(u);
        match self {
            FaultEvent::LinkDown(a, b) => FaultEvent::LinkDown(map(a), map(b)),
            FaultEvent::LinkUp(a, b) => FaultEvent::LinkUp(map(a), map(b)),
            FaultEvent::Crash(u) => FaultEvent::Crash(map(u)),
            FaultEvent::Restart(u) => FaultEvent::Restart(map(u)),
        }
    }
}

/// Parameters for [`FaultPlan::random_churn`].
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Ticks over which fault *onsets* are spread.
    pub horizon: u64,
    /// Number of link outage (down + up) pairs.
    pub link_events: usize,
    /// Number of crash (crash + restart) pairs.
    pub crash_events: usize,
    /// Minimum outage duration in ticks (clamped to at least 1).
    pub min_outage: u64,
    /// Maximum outage duration in ticks.
    pub max_outage: u64,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            horizon: 200,
            link_events: 8,
            crash_events: 2,
            min_outage: 5,
            max_outage: 40,
        }
    }
}

/// A tick-scheduled, fully deterministic fault schedule. Within one
/// tick, events fire in the order they were scheduled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: BTreeMap<u64, Vec<FaultEvent>>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style scheduling: returns the plan with `event` added at
    /// `tick`.
    #[must_use]
    pub fn at(mut self, tick: u64, event: FaultEvent) -> FaultPlan {
        self.schedule(tick, event);
        self
    }

    /// Schedules `event` at `tick`.
    pub fn schedule(&mut self, tick: u64, event: FaultEvent) {
        self.events.entry(tick).or_default().push(event);
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Whether no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last scheduled tick, if any.
    pub fn horizon(&self) -> Option<u64> {
        self.events.keys().next_back().copied()
    }

    /// Iterates `(tick, event)` in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &FaultEvent)> + '_ {
        self.events
            .iter()
            .flat_map(|(&t, evs)| evs.iter().map(move |e| (t, e)))
    }

    /// The same plan under a node permutation — ticks and within-tick
    /// order unchanged, every node id mapped.
    pub fn permuted(&self, perm: &[NodeId]) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .map(|(&t, evs)| (t, evs.iter().map(|e| e.permuted(perm)).collect()))
                .collect(),
        }
    }

    /// Consumes the plan into its schedule map (for the network's event
    /// loop).
    pub(crate) fn into_schedule(self) -> BTreeMap<u64, Vec<FaultEvent>> {
        self.events
    }

    /// Generates a seeded churn workload over `graph`: `link_events`
    /// outage pairs on edges drawn uniformly from the current edge set,
    /// and `crash_events` crash/restart pairs on uniform nodes, with
    /// onsets uniform in `[0, horizon)` and durations uniform in
    /// `[min_outage, max_outage]`.
    ///
    /// Every down/crash has a strictly later up/restart, so after the
    /// last event the topology equals the original graph and every node
    /// is alive — the plan *quiesces*. (Cuts that would momentarily
    /// disconnect the network are additionally skipped at apply time.)
    pub fn random_churn(graph: &Graph, cfg: &ChurnConfig, rng: &mut DetRng) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let onset_span = cfg.horizon.max(1);
        let dur_span = cfg.max_outage.saturating_sub(cfg.min_outage) + 1;
        let duration = |rng: &mut DetRng| (cfg.min_outage + rng.gen_range(0..dur_span)).max(1);
        if !edges.is_empty() {
            for _ in 0..cfg.link_events {
                let idx = rng.gen_range(0..edges.len());
                let Some(&(a, b)) = edges.get(idx) else {
                    continue;
                };
                let down = rng.gen_range(0..onset_span);
                let up = down + duration(rng);
                plan.schedule(down, FaultEvent::LinkDown(a, b));
                plan.schedule(up, FaultEvent::LinkUp(a, b));
            }
        }
        let n = graph.node_count() as u32;
        if n > 0 {
            for _ in 0..cfg.crash_events {
                let u = NodeId(rng.gen_range(0..n));
                let at = rng.gen_range(0..onset_span);
                let back = at + duration(rng);
                plan.schedule(at, FaultEvent::Crash(u));
                plan.schedule(back, FaultEvent::Restart(u));
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators;

    #[test]
    fn link_key_normalizes() {
        assert_eq!(
            LinkKey::new(NodeId(5), NodeId(2)),
            LinkKey::new(NodeId(2), NodeId(5))
        );
    }

    #[test]
    fn plan_orders_and_counts() {
        let plan = FaultPlan::new()
            .at(7, FaultEvent::Crash(NodeId(1)))
            .at(3, FaultEvent::LinkDown(NodeId(0), NodeId(1)))
            .at(7, FaultEvent::Restart(NodeId(1)));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.horizon(), Some(7));
        let order: Vec<(u64, FaultEvent)> = plan.iter().map(|(t, &e)| (t, e)).collect();
        assert_eq!(order[0], (3, FaultEvent::LinkDown(NodeId(0), NodeId(1))));
        assert_eq!(order[1], (7, FaultEvent::Crash(NodeId(1))));
        assert_eq!(order[2], (7, FaultEvent::Restart(NodeId(1))));
    }

    #[test]
    fn random_churn_is_seed_deterministic_and_paired() {
        let g = generators::cycle(16);
        let cfg = ChurnConfig::default();
        let a = FaultPlan::random_churn(&g, &cfg, &mut DetRng::seed_from_u64(9));
        let b = FaultPlan::random_churn(&g, &cfg, &mut DetRng::seed_from_u64(9));
        assert_eq!(a, b, "same seed must give the same plan");
        assert_eq!(a.len(), 2 * (cfg.link_events + cfg.crash_events));
        // Every down/crash has a strictly later up/restart, so the plan
        // quiesces to the original topology with every node alive.
        let events: Vec<(u64, FaultEvent)> = a.iter().map(|(t, &e)| (t, e)).collect();
        for (i, &(t, e)) in events.iter().enumerate() {
            match e {
                FaultEvent::LinkDown(x, y) => assert!(
                    events
                        .iter()
                        .skip(i)
                        .any(|&(t2, e2)| { t2 > t && e2 == FaultEvent::LinkUp(x, y) }),
                    "unpaired LinkDown"
                ),
                FaultEvent::Crash(u) => assert!(
                    events
                        .iter()
                        .skip(i)
                        .any(|&(t2, e2)| t2 > t && e2 == FaultEvent::Restart(u)),
                    "unpaired Crash"
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn permutation_maps_every_event() {
        let perm = [NodeId(2), NodeId(0), NodeId(1)];
        let plan = FaultPlan::new()
            .at(1, FaultEvent::LinkDown(NodeId(0), NodeId(1)))
            .at(2, FaultEvent::Crash(NodeId(2)));
        let p = plan.permuted(&perm);
        let got: Vec<(u64, FaultEvent)> = p.iter().map(|(t, &e)| (t, e)).collect();
        assert_eq!(got[0], (1, FaultEvent::LinkDown(NodeId(2), NodeId(0))));
        assert_eq!(got[1], (2, FaultEvent::Crash(NodeId(1))));
    }

    #[test]
    fn default_config_is_fault_free() {
        let cfg = FaultConfig::default();
        assert_eq!(cfg.dead_link, DeadLinkPolicy::Deliver);
        assert_eq!(cfg.view_delay, 0);
        assert_eq!(cfg.timeout, None);
        let p = cfg.default_link;
        assert_eq!(p.loss, 0.0);
        assert_eq!(p.extra_latency, 0);
    }
}
