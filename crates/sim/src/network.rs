//! The tick-based network simulation.
//!
//! With a default [`FaultConfig`] the simulator is tick-for-tick the
//! machine it always was: unit-latency FIFO links, no loss, instant
//! view refresh on topology changes. A non-default config (or a
//! [`FaultPlan`] handed to the builder) layers deterministic fault
//! injection on top — see [`crate::fault`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use local_routing::visited::VisitedStates;
use local_routing::{LocalRouter, LocalView, Packet, ViewArtifact, ViewStore, ViewStoreStats};
use locality_graph::rng::DetRng;
use locality_graph::traversal::{self, Ball};
use locality_graph::{Graph, GraphError, NodeId};
use locality_obs::{Level, Recorder};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, SaturationSample};
use crate::error::SimError;
use crate::fault::{DeadLinkPolicy, FaultConfig, FaultEvent, FaultPlan, LinkKey};
use crate::metrics::{MessageFate, MessageRecord, NetworkMetrics};
use crate::node::SimNode;
use crate::sched::Wheel;
use crate::slab::{ArrivalData, ArrivalSlab};

/// Handle to a message injected into a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId(pub u64);

/// How a [`NetworkBuilder`] sources the per-node local views.
///
/// Both provisioners yield byte-identical routing behaviour — an
/// artifact stores exactly what BFS extraction would compute — so the
/// choice is purely a cost model: `Bfs` pays a k-bounded BFS per node
/// at build time, `Oracle` pays a decode of a precomputed blob and
/// falls back to BFS only for nodes a churn wave has dirtied.
#[derive(Clone, Default)]
pub enum Provisioner {
    /// Extract every view with a k-bounded BFS at build time (the
    /// historical behaviour, and the default).
    #[default]
    Bfs,
    /// Serve views from a precomputed [`ViewArtifact`]. The artifact
    /// must match the network's topology and `k`;
    /// [`NetworkBuilder::try_build`] rejects a mismatch with
    /// [`SimError::Oracle`] before provisioning anything.
    Oracle(Arc<ViewArtifact>),
}

/// Builder for a [`Network`].
///
/// ```
/// use local_routing::Alg3;
/// use locality_graph::generators;
/// use locality_sim::NetworkBuilder;
///
/// let g = generators::cycle(10);
/// let net = NetworkBuilder::new(&g, 5).hop_budget(64).build(Alg3);
/// assert_eq!(net.node_count(), 10);
/// ```
pub struct NetworkBuilder {
    graph: Graph,
    k: u32,
    hop_budget: usize,
    faults: FaultConfig,
    plan: FaultPlan,
    recorder: Option<Recorder>,
    provisioner: Provisioner,
    admission: AdmissionConfig,
    shards: usize,
    shard_workers: usize,
}

impl NetworkBuilder {
    /// Starts a builder for the given topology and locality parameter.
    pub fn new(graph: &Graph, k: u32) -> NetworkBuilder {
        NetworkBuilder {
            graph: graph.clone(),
            k,
            hop_budget: 0,
            faults: FaultConfig::default(),
            plan: FaultPlan::new(),
            recorder: None,
            provisioner: Provisioner::Bfs,
            admission: AdmissionConfig::default(),
            shards: 1,
            shard_workers: 1,
        }
    }

    /// Compatibility shim: a trial runs on one timing wheel and one
    /// arrival arena, so 1 (the default) is the only shard count.
    /// [`try_build`](Self::try_build) rejects any other value with
    /// [`SimError::ShardOption`].
    pub fn shards(mut self, s: usize) -> NetworkBuilder {
        self.shards = s;
        self
    }

    /// Compatibility shim: a trial steps on one thread, so 1 (the
    /// default) is the only worker count.
    /// [`try_build`](Self::try_build) rejects any other value with
    /// [`SimError::ShardOption`].
    pub fn shard_workers(mut self, workers: usize) -> NetworkBuilder {
        self.shard_workers = workers;
        self
    }

    /// Configures admission control. The default
    /// ([`AdmissionPolicy::Open`](crate::AdmissionPolicy::Open)) admits
    /// everything and leaves the injection path byte-identical to the
    /// pre-admission simulator.
    pub fn admission(mut self, cfg: AdmissionConfig) -> NetworkBuilder {
        self.admission = cfg;
        self
    }

    /// Chooses how views are sourced (default: [`Provisioner::Bfs`]).
    pub fn provisioner(mut self, p: Provisioner) -> NetworkBuilder {
        self.provisioner = p;
        self
    }

    /// Attaches a trace [`Recorder`]. The default is none — the
    /// tracing-off configuration, whose only hot-path cost is a
    /// pointer test per instrumentation site. A recorder at
    /// [`Level::Off`] is dropped at build time: level off *is* the
    /// tracing-off configuration, so it must not cost even the
    /// pointer tests. Events are stamped with the simulation tick, so
    /// a trace is a pure function of the network's seed. Read it back
    /// with [`Network::finish_trace`].
    pub fn recorder(mut self, rec: Recorder) -> NetworkBuilder {
        self.recorder = rec.enabled(Level::Metrics).then_some(rec);
        self
    }

    /// Overrides the per-message hop budget (default `8 n² + 16`). With
    /// source-side retries the budget applies to each attempt.
    pub fn hop_budget(mut self, budget: usize) -> NetworkBuilder {
        self.hop_budget = budget;
        self
    }

    /// Sets the ambient fault model. The default disables every fault,
    /// reproducing the pre-fault simulator exactly.
    pub fn faults(mut self, cfg: FaultConfig) -> NetworkBuilder {
        self.faults = cfg;
        self
    }

    /// Schedules a fault plan to run alongside the traffic.
    pub fn fault_plan(mut self, plan: FaultPlan) -> NetworkBuilder {
        self.plan = plan;
        self
    }

    /// Provisions every node and returns the network. The network
    /// keeps one [`ViewStore`] with a slot per node, filled here — one
    /// view per node, the one each node routes with — and invalidated
    /// incrementally when the topology later changes.
    ///
    /// # Panics
    ///
    /// Panics if the configured [`Provisioner::Oracle`] artifact does
    /// not match the topology, or if [`shards`](Self::shards) or
    /// [`shard_workers`](Self::shard_workers) is not 1;
    /// [`try_build`](Self::try_build) is the non-panicking form.
    pub fn build<R: LocalRouter + Send + Sync + 'static>(self, router: R) -> Network {
        self.try_build(router).expect(
            "provisioner artifact matches the topology and shard options are 1; try_build returns the typed error",
        )
    }

    /// Like [`build`](Self::build), but rejects a mismatched or
    /// corrupt oracle artifact with [`SimError::Oracle`], and a shard
    /// or worker count other than 1 with [`SimError::ShardOption`],
    /// instead of panicking. With [`Provisioner::Bfs`] and the default
    /// options this never fails.
    pub fn try_build<R: LocalRouter + Send + Sync + 'static>(
        self,
        router: R,
    ) -> Result<Network, SimError> {
        for (option, value) in [
            ("shards", self.shards),
            ("shard_workers", self.shard_workers),
        ] {
            if value != 1 {
                return Err(SimError::ShardOption { option, value });
            }
        }
        let n = self.graph.node_count();
        let views = match self.provisioner {
            Provisioner::Bfs => ViewStore::new(&self.graph, self.k),
            Provisioner::Oracle(artifact) => {
                artifact.ensure_matches(&self.graph, self.k)?;
                ViewStore::from_artifact(artifact)
            }
        };
        for u in self.graph.nodes() {
            views.view(&self.graph, u);
        }
        let nodes: Vec<SimNode> = self
            .graph
            .nodes()
            .map(|u| SimNode::new(u, self.graph.label(u)))
            .collect();
        let mut fault_schedule = Wheel::new();
        for (at, evs) in self.plan.into_schedule() {
            for ev in evs {
                fault_schedule.schedule(at, ev);
            }
        }
        let rng = DetRng::seed_from_u64(self.faults.seed);
        Ok(Network {
            connected: traversal::is_connected(&self.graph),
            k: self.k,
            hop_budget: if self.hop_budget == 0 {
                8 * n * n + 16
            } else {
                self.hop_budget
            },
            graph: self.graph,
            crashed: vec![false; nodes.len()],
            nodes,
            views,
            router: Box::new(router),
            events: Wheel::new(),
            slab: ArrivalSlab::new(),
            fault_schedule,
            reprovision_at: Wheel::new(),
            timers: Wheel::new(),
            parked: BTreeMap::new(),
            cfg: self.faults,
            rng,
            messages: Vec::new(),
            states: Vec::new(),
            retries_total: 0,
            faults_applied: 0,
            faults_skipped: 0,
            tick: 0,
            next_id: 0,
            admission: AdmissionController::new(self.admission),
            shed_cursor: 0,
            trace: self.recorder.map(Box::new),
        })
    }
}

/// Per-message simulator-side state that is not part of the observable
/// record.
struct MsgState {
    /// Current source-side attempt. A retry bumps it, so copies of an
    /// abandoned attempt still in flight (or parked on a dead link)
    /// are ignored when they eventually surface.
    attempt: u32,
    retries: u32,
    /// The `(node, visible predecessor)` states this attempt has
    /// visited, for exact loop detection: sized by the route, cleared
    /// on retry and dropped with the terminal fate.
    visited: VisitedStates,
}

/// A running simulated network: provisioned nodes, in-flight messages,
/// unit-latency FIFO links, and (optionally) deterministic faults.
pub struct Network {
    graph: Graph,
    /// Whether `graph` is connected. Only a graph disconnected at build
    /// starts false: a link-down is refused unless it keeps the graph
    /// connected, and a link-up on a disconnected graph re-checks.
    connected: bool,
    k: u32,
    hop_budget: usize,
    nodes: Vec<SimNode>,
    /// `crashed[u.index()]`: the node black-holes arrivals until restart.
    crashed: Vec<bool>,
    /// The one view per node, filled at build; re-provision waves
    /// replace only the dirty slots.
    views: ViewStore,
    router: Box<dyn LocalRouter + Send + Sync>,
    /// Arrivals due at each tick, as slab handles, FIFO per tick.
    events: Wheel<u32>,
    /// Arena of in-flight transmissions; its high-water mark is the
    /// trace's `slab.high_water` gauge.
    slab: ArrivalSlab,
    fault_schedule: Wheel<FaultEvent>,
    /// Stale-view wave: nodes due to re-provision at a tick (deduped
    /// and sorted when the tick fires).
    reprovision_at: Wheel<NodeId>,
    /// Source-side timeout checks (message indices) due at a tick.
    timers: Wheel<u32>,
    /// Messages parked on a down link under [`DeadLinkPolicy::Queue`],
    /// FIFO per link as slab handles, released when the link comes
    /// back.
    parked: BTreeMap<LinkKey, VecDeque<u32>>,
    cfg: FaultConfig,
    rng: DetRng,
    messages: Vec<MessageRecord>,
    states: Vec<MsgState>,
    retries_total: u64,
    faults_applied: usize,
    faults_skipped: usize,
    tick: u64,
    next_id: u64,
    /// Backpressure controller consulted at every injection; inert
    /// (and cost-free beyond one enum test) under the open policy.
    admission: AdmissionController,
    /// Monotone scan position for the shed-oldest policy: every
    /// message before it is known non-in-flight, so finding the next
    /// victim is amortized O(1) over a run.
    shed_cursor: usize,
    /// Optional trace recorder. Boxed so the untraced hot path pays
    /// one pointer test per instrumentation site and nothing else.
    trace: Option<Box<Recorder>>,
}

impl Network {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The locality parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Current simulation tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// The current topology (faults included).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether `u` is currently crashed.
    pub fn is_crashed(&self, u: NodeId) -> bool {
        self.crashed.get(u.index()).copied().unwrap_or(false)
    }

    /// Access a node (for load inspection).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of this network; [`try_node`](Self::try_node)
    /// is the typed-error path.
    pub fn node(&self, u: NodeId) -> &SimNode {
        self.try_node(u)
            .expect("node: id out of range; use try_node for a typed error")
    }

    /// Access a node, rejecting out-of-range ids with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if `u` is out of range.
    pub fn try_node(&self, u: NodeId) -> Result<&SimNode, SimError> {
        self.nodes.get(u.index()).ok_or(SimError::UnknownNode(u))
    }

    /// The view node `u` currently routes with: under a
    /// [`FaultConfig::view_delay`], the pre-change view until `u`'s
    /// re-provision wave arrives. `None` only for an out-of-range id.
    pub fn view(&self, u: NodeId) -> Option<&LocalView> {
        self.views.resident(u)
    }

    /// Injects a message from `s` to `t` at the current tick.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is not a node of this network;
    /// [`try_send`](Self::try_send) is the typed-error path.
    pub fn send(&mut self, s: NodeId, t: NodeId) -> MessageId {
        self.try_send(s, t)
            .expect("send: endpoint out of range; use try_send for a typed error")
    }

    /// Injects a message from `s` to `t` at the current tick, rejecting
    /// out-of-range endpoints with a typed error.
    ///
    /// When a non-open [`AdmissionConfig`] is configured the controller
    /// judges the injection first: a rejected message is still recorded
    /// and counted as sent, but lands terminally in
    /// [`MessageFate::Rejected`] without ever touching the scheduler;
    /// under shed-oldest the oldest in-flight message is evicted to
    /// [`MessageFate::Shed`] and the newcomer admitted in its place.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if either endpoint is out of
    /// range. Nothing is injected on error.
    pub fn try_send(&mut self, s: NodeId, t: NodeId) -> Result<MessageId, SimError> {
        for &x in &[s, t] {
            if x.index() >= self.nodes.len() {
                return Err(SimError::UnknownNode(x));
            }
        }
        let verdict = if self.admission.active() {
            let sample = self.saturation_sample();
            self.admission.admit(sample)
        } else {
            AdmissionVerdict::Admit
        };
        if verdict == AdmissionVerdict::ShedThenAdmit {
            // The scan sees only already-injected messages (the
            // newcomer is pushed below), so it can never evict the
            // message it is making room for.
            self.shed_oldest_in_flight();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.messages.push(MessageRecord {
            s,
            t,
            path: vec![s],
            fate: MessageFate::InFlight,
            sent_at: self.tick,
            delivered_at: None,
            retries: 0,
        });
        self.states.push(MsgState {
            attempt: 0,
            retries: 0,
            visited: VisitedStates::new(),
        });
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc("sim.sent", 1);
            if let Some(e) = rec.event(Level::Hops, self.tick, "send") {
                e.u64("msg", id)
                    .u64("s", u64::from(s.0))
                    .u64("t", u64::from(t.0))
                    .finish();
            }
        }
        if verdict == AdmissionVerdict::Reject {
            self.set_fate(id as usize, MessageFate::Rejected, Some("admission"));
            return Ok(MessageId(id));
        }
        let h = self.slab.alloc(id as u32, s, None, 0);
        self.events.schedule(self.tick, h);
        if let Some(timeout) = self.cfg.timeout {
            self.timers.schedule(self.tick + timeout, id as u32);
        }
        Ok(MessageId(id))
    }

    /// The controller's inputs right now: in-flight arena occupancy
    /// and the arrival wheel's ring occupancy (any overflow counts as
    /// a full ring — the window is saturated by definition).
    fn saturation_sample(&self) -> SaturationSample {
        let wheel_occupied = if self.events.overflow_len() > 0 {
            64
        } else {
            self.events.occupied_slots()
        };
        SaturationSample {
            live: self.slab.live(),
            wheel_occupied,
        }
    }

    /// Evicts the oldest still-in-flight message for the shed-oldest
    /// policy. Its stale slab handles and timers self-clean when they
    /// fire (both check the fate first), so eviction is O(1) beyond
    /// the monotone cursor scan.
    fn shed_oldest_in_flight(&mut self) {
        while self.shed_cursor < self.messages.len() {
            let i = self.shed_cursor;
            self.shed_cursor += 1;
            if self.messages[i].fate == MessageFate::InFlight {
                self.set_fate(i, MessageFate::Shed, Some("admission"));
                return;
            }
        }
    }

    /// Schedules a fault to fire at tick `at` (merged after any plan
    /// events already scheduled for that tick).
    pub fn schedule_fault(&mut self, at: u64, event: FaultEvent) {
        self.fault_schedule.schedule(at, event);
    }

    /// The earliest tick at which anything is scheduled.
    fn next_event_time(&self) -> Option<u64> {
        [
            self.fault_schedule.next_tick(),
            self.reprovision_at.next_tick(),
            self.events.next_tick(),
            self.timers.next_tick(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Runs one tick: advances the clock to the earliest scheduled
    /// work and processes, in order, faults, view re-provisions,
    /// message arrivals, and timeout checks due then. Returns the
    /// number of items processed (zero means the network is quiet).
    pub fn step(&mut self) -> usize {
        let Some(when) = self.next_event_time() else {
            return 0;
        };
        self.tick = self.tick.max(when);
        // `when` is the global minimum, so every wheel may slide its
        // window up to it (migrating far-future overflow on the way).
        self.fault_schedule.advance_to(when);
        self.reprovision_at.advance_to(when);
        self.events.advance_to(when);
        self.timers.advance_to(when);
        let mut count = 0;
        let evs = self.fault_schedule.take(when);
        let n_faults = evs.len();
        count += n_faults;
        for ev in evs {
            self.apply_fault(ev);
        }
        let mut due = self.reprovision_at.take(when);
        let mut n_reprov = 0;
        if !due.is_empty() {
            // The wave accumulated per-node entries in schedule order;
            // re-provision visits each node once, in id order (the
            // iteration order of the ordered set this replaces).
            due.sort_unstable();
            due.dedup();
            n_reprov = due.len();
            count += n_reprov;
            self.reprovision(&due);
        }
        let n_arrivals = self.drain_arrivals(when);
        count += n_arrivals;
        let msgs = self.timers.take(when);
        let n_timers = msgs.len();
        count += n_timers;
        for msg in msgs {
            self.check_timeout(msg as usize);
        }
        // End-of-tick engine telemetry: per-phase activity counters and
        // scheduler/arena occupancy samples, aggregated in the metrics
        // registry (no event lines on the hot path).
        if let Some(rec) = self.trace.as_deref_mut() {
            if rec.enabled(Level::Metrics) {
                rec.inc("sim.ticks", 1);
                rec.inc("phase.faults", n_faults as u64);
                rec.inc("phase.reprovision", n_reprov as u64);
                rec.inc("phase.arrivals", n_arrivals as u64);
                rec.inc("phase.timers", n_timers as u64);
                rec.observe("tick.items", count as u64);
                rec.observe(
                    "wheel.events.occupied",
                    u64::from(self.events.occupied_slots()),
                );
                rec.gauge_max("wheel.events.overflow", self.events.overflow_len() as i64);
                rec.gauge_max("slab.live", self.slab.live() as i64);
            }
        }
        self.tick += 1;
        count
    }

    /// Runs until nothing is scheduled: no arrivals, faults, view
    /// refreshes, or timeout checks. Messages parked on a link that
    /// never comes back stay [`MessageFate::InFlight`].
    pub fn run_until_quiet(&mut self) {
        while self.step() > 0 {}
    }

    /// Runs every event scheduled up to and including `deadline`, then
    /// advances the clock to at least `deadline`. Lets a workload
    /// interleave traffic with a fault plan at chosen points.
    pub fn run_until(&mut self, deadline: u64) {
        while self.next_event_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.tick = self.tick.max(deadline);
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        let (kind, a, b) = match ev {
            FaultEvent::LinkDown(a, b) => ("link_down", a, Some(b)),
            FaultEvent::LinkUp(a, b) => ("link_up", a, Some(b)),
            FaultEvent::Crash(u) => ("crash", u, None),
            FaultEvent::Restart(u) => ("restart", u, None),
        };
        let applied = match ev {
            FaultEvent::LinkDown(a, b) => matches!(self.set_edge_inner(a, b, false), Ok(true)),
            FaultEvent::LinkUp(a, b) => matches!(self.set_edge_inner(a, b, true), Ok(true)),
            FaultEvent::Crash(u) => {
                let fresh = u.index() < self.nodes.len() && !self.crashed[u.index()];
                if fresh {
                    self.crashed[u.index()] = true;
                }
                fresh
            }
            FaultEvent::Restart(u) => {
                let down = u.index() < self.nodes.len() && self.crashed[u.index()];
                if down {
                    self.crashed[u.index()] = false;
                    // A restarting node re-discovers its neighbourhood
                    // from the current topology as it boots.
                    self.reprovision(&[u]);
                }
                down
            }
        };
        if applied {
            self.faults_applied += 1;
        } else {
            self.faults_skipped += 1;
        }
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc(
                if applied {
                    "sim.faults_applied"
                } else {
                    "sim.faults_skipped"
                },
                1,
            );
            if let Some(e) = rec.event(Level::Hops, self.tick, "fault") {
                e.str("kind", kind)
                    .u64("a", u64::from(a.0))
                    .opt_u64("b", b.map(|x| u64::from(x.0)))
                    .bool("applied", applied)
                    .finish();
            }
        }
    }

    /// The arrival phase of one tick: each arrival due at `when`, in
    /// the FIFO order it was scheduled, is decided read-only from the
    /// node's view ([`decide`](Self::decide)) and then applied
    /// ([`apply_decision`](Self::apply_decision)). Returns the number
    /// of arrivals processed.
    fn drain_arrivals(&mut self, when: u64) -> usize {
        let due = self.events.take(when);
        for &h in &due {
            let d = self.decide(h);
            self.apply_decision(h, d);
        }
        due.len()
    }

    /// Applies one [`HopDecision`] to the network. The mutation order
    /// inside each arm is copied verbatim from the historical `process`
    /// (free before terminal handling, loop-state insert before the
    /// budget/decision arms, loss draw inside `transmit`), which is
    /// what keeps handle values, the RNG stream, and the trace
    /// byte-identical to it.
    fn apply_decision(&mut self, h: u32, d: HopDecision) {
        let ArrivalData { msg, at, from, .. } = self.slab.get(h);
        let msg = msg as usize;
        if matches!(d, HopDecision::ParkIncoming) {
            // Parked transmissions keep their handle.
            let f = from.unwrap_or(at);
            self.parked
                .entry(LinkKey::new(f, at))
                .or_default()
                .push_back(h);
            return;
        }
        self.slab.free(h);
        // Arms past the loop check replay the loop-state insert that
        // `decide` only tested (it must succeed: a message has at most
        // one live transmission per attempt).
        let record_seen = |net: &mut Network, msg: usize| {
            let pred = if net.router.awareness().predecessor {
                from
            } else {
                None
            };
            let fresh = net.states[msg].visited.insert(at, pred);
            debug_assert!(fresh, "decided loop state already present");
        };
        match d {
            HopDecision::Stale | HopDecision::ParkIncoming => {}
            HopDecision::DropIncoming => self.lose(msg, "dead_link"),
            HopDecision::Crashed => self.lose(msg, "crash"),
            HopDecision::Deliver => {
                self.messages[msg].delivered_at = Some(self.tick);
                self.nodes[at.index()].delivered += 1;
                let hops = self.messages[msg].hops() as u64;
                if let Some(rec) = self.trace.as_deref_mut() {
                    rec.observe("sim.delivered_hops", hops);
                    if let Some(e) = rec.event(Level::Hops, self.tick, "deliver") {
                        e.u64("msg", msg as u64)
                            .u64("node", u64::from(at.0))
                            .u64("hops", hops)
                            .finish();
                    }
                }
                self.set_fate(msg, MessageFate::Delivered, None);
            }
            HopDecision::Loop => self.set_fate(msg, MessageFate::Looped, None),
            HopDecision::Exhaust => {
                record_seen(self, msg);
                self.set_fate(msg, MessageFate::HopBudgetExhausted, None);
            }
            HopDecision::Errored { err, decided } => {
                record_seen(self, msg);
                if decided {
                    // The router returned a next hop (it was merely not
                    // a neighbour), so its decision counter advanced.
                    self.nodes[at.index()].forwarded += 1;
                }
                self.set_fate(msg, MessageFate::Errored(err), None);
            }
            HopDecision::Forward { next, rule } => {
                record_seen(self, msg);
                self.nodes[at.index()].forwarded += 1;
                self.transmit(msg, at, next, from, rule);
            }
            HopDecision::ParkOutgoing { next, rule } => {
                record_seen(self, msg);
                self.nodes[at.index()].forwarded += 1;
                let attempt = self.states[msg].attempt;
                self.messages[msg].path.push(next);
                self.emit_hop(msg, at, next, from, rule, true);
                let nh = self.slab.alloc(msg as u32, next, Some(at), attempt);
                self.parked
                    .entry(LinkKey::new(at, next))
                    .or_default()
                    .push_back(nh);
            }
            HopDecision::DropOutgoing => {
                record_seen(self, msg);
                self.nodes[at.index()].forwarded += 1;
                self.lose(msg, "dead_link");
            }
        }
    }

    /// Emits one `hop` witness event: the deciding node, the chosen
    /// edge, the rule that fired, the attempt, and the tick the
    /// decider's view was provisioned (the staleness context).
    fn emit_hop(
        &mut self,
        msg: usize,
        at: NodeId,
        next: NodeId,
        from: Option<NodeId>,
        rule: &'static str,
        parked: bool,
    ) {
        let attempt = self.states.get(msg).map_or(0, |s| s.attempt);
        let prov = self.nodes.get(at.index()).map_or(0, |n| n.provisioned_at);
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc("sim.hops", 1);
            if let Some(e) = rec.event(Level::Hops, self.tick, "hop") {
                let e = e
                    .u64("msg", msg as u64)
                    .u64("att", u64::from(attempt))
                    .u64("node", u64::from(at.0))
                    .opt_u64("from", from.map(|f| u64::from(f.0)))
                    .u64("to", u64::from(next.0))
                    .str("rule", rule)
                    .u64("prov", prov);
                let e = if parked { e.bool("parked", true) } else { e };
                e.finish();
            }
        }
    }

    /// Records a terminal fate and emits the matching `fate` event.
    /// `why` carries loss context for drops; router errors carry their
    /// message in `err`.
    fn set_fate(&mut self, msg: usize, fate: MessageFate, why: Option<&'static str>) {
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc(fate_counter(&fate), 1);
            if let Some(e) = rec.event(Level::Hops, self.tick, "fate") {
                let e = e.u64("msg", msg as u64).str("fate", fate.tag());
                let e = match (&fate, why) {
                    (MessageFate::Errored(err), _) => e.str("err", err),
                    (_, Some(w)) => e.str("why", w),
                    _ => e,
                };
                e.finish();
            }
        }
        self.messages[msg].fate = fate;
        // A terminal message is never tested again: return its loop
        // state now rather than when the network drops.
        self.states[msg].visited = VisitedStates::new();
    }

    /// Puts `msg` on the wire from `at` to its live neighbour `next`:
    /// a loss draw if the link is lossy, then a scheduled arrival after
    /// the link's latency. The hop witness is emitted only once the
    /// loss draw has passed, so a trace's hop sequence always equals
    /// the record's path.
    fn transmit(
        &mut self,
        msg: usize,
        at: NodeId,
        next: NodeId,
        from: Option<NodeId>,
        rule: &'static str,
    ) {
        let profile = self.cfg.link_profile(at, next);
        if profile.loss > 0.0 && self.rng.gen_bool(profile.loss) {
            self.lose(msg, "loss");
            return;
        }
        self.messages[msg].path.push(next);
        self.emit_hop(msg, at, next, from, rule, false);
        let attempt = self.states[msg].attempt;
        let h = self.slab.alloc(msg as u32, next, Some(at), attempt);
        let when = self.tick + 1 + profile.extra_latency;
        self.events.schedule(when, h);
    }

    /// The message vanished in transit (`why` ∈ `loss` / `dead_link` /
    /// `crash`). With reliability configured the source's timeout will
    /// notice; otherwise it is terminally [`MessageFate::Dropped`].
    fn lose(&mut self, msg: usize, why: &'static str) {
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc("sim.lost", 1);
            if let Some(e) = rec.event(Level::Hops, self.tick, "lost") {
                e.u64("msg", msg as u64).str("why", why).finish();
            }
        }
        if self.cfg.timeout.is_none() {
            self.set_fate(msg, MessageFate::Dropped, Some(why));
        }
    }

    /// A source-side timeout came due: retransmit if the retry budget
    /// allows, otherwise declare the terminal fate.
    fn check_timeout(&mut self, msg: usize) {
        if self.messages[msg].fate != MessageFate::InFlight {
            return;
        }
        let Some(timeout) = self.cfg.timeout else {
            return;
        };
        if self.states[msg].retries < self.cfg.max_retries {
            self.states[msg].retries += 1;
            self.states[msg].attempt += 1;
            self.retries_total += 1;
            let s = self.messages[msg].s;
            self.messages[msg].retries += 1;
            self.messages[msg].path = vec![s];
            self.states[msg].visited.clear();
            let attempt = self.states[msg].attempt;
            if let Some(rec) = self.trace.as_deref_mut() {
                rec.inc("sim.retries", 1);
                if let Some(e) = rec.event(Level::Hops, self.tick, "retry") {
                    e.u64("msg", msg as u64)
                        .u64("att", u64::from(attempt))
                        .finish();
                }
            }
            let h = self.slab.alloc(msg as u32, s, None, attempt);
            self.events.schedule(self.tick + 1, h);
            // Under the backoff-scale policy a saturated network
            // stretches the retry backoff, so reliability traffic
            // yields to first attempts instead of amplifying overload.
            let factor = self.admission.backoff_factor(self.saturation_sample());
            let wait = timeout + self.cfg.backoff * u64::from(self.states[msg].retries) * factor;
            self.timers.schedule(self.tick + 1 + wait, msg as u32);
        } else {
            let fate = if self.cfg.max_retries > 0 {
                MessageFate::GaveUp
            } else {
                MessageFate::TimedOut
            };
            self.set_fate(msg, fate, None);
        }
    }

    /// The record of a message.
    pub fn record(&self, id: MessageId) -> Option<&MessageRecord> {
        self.messages.get(id.0 as usize)
    }

    /// All message records, in injection order.
    pub fn records(&self) -> &[MessageRecord] {
        &self.messages
    }

    /// Aggregate metrics over all messages so far. Every injected
    /// message lands in exactly one bucket
    /// ([`NetworkMetrics::accounted`] always holds).
    pub fn metrics(&self) -> NetworkMetrics {
        let mut m = NetworkMetrics {
            sent: self.messages.len(),
            ticks: self.tick,
            retries: self.retries_total,
            faults_applied: self.faults_applied,
            faults_skipped: self.faults_skipped,
            ..Default::default()
        };
        for r in &self.messages {
            match r.fate {
                MessageFate::Delivered => {
                    m.delivered += 1;
                    m.delivered_hops += r.hops();
                    m.hop_hist.observe(r.hops() as u64);
                }
                MessageFate::Looped => m.looped += 1,
                MessageFate::Errored(_) => m.errored += 1,
                MessageFate::HopBudgetExhausted => m.exhausted += 1,
                MessageFate::Dropped => m.dropped += 1,
                MessageFate::TimedOut => m.timed_out += 1,
                MessageFate::GaveUp => m.gave_up += 1,
                MessageFate::Rejected => m.rejected += 1,
                MessageFate::Shed => m.shed += 1,
                MessageFate::InFlight => m.in_flight += 1,
            }
        }
        m.max_node_load = self.nodes.iter().map(|n| n.forwarded).max().unwrap_or(0);
        m
    }

    /// Applies a topology change. Re-adding a present edge or removing
    /// an absent one is an idempotent no-op. Affected nodes (within `k`
    /// hops of either endpoint, old or new topology) re-provision —
    /// immediately when [`FaultConfig::view_delay`] is zero, otherwise
    /// as a propagation wave. In-flight messages keep routing, as in a
    /// real network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WouldDisconnect`] if removing `(a, b)` would
    /// leave the network disconnected (always, on a network built from
    /// a disconnected graph that no link-up has joined since),
    /// [`SimError::UnknownNode`] for an
    /// out-of-range endpoint, or [`SimError::Topology`] for a
    /// self-loop. The network is unchanged on error.
    pub fn set_edge(&mut self, a: NodeId, b: NodeId, present: bool) -> Result<(), SimError> {
        self.set_edge_inner(a, b, present).map(|_| ())
    }

    /// Flips one edge incrementally (no full graph rebuild) and marks
    /// the affected views for refresh. Returns `Ok(false)` when the
    /// edge was already in the requested state.
    fn set_edge_inner(&mut self, a: NodeId, b: NodeId, present: bool) -> Result<bool, SimError> {
        for &x in &[a, b] {
            if x.index() >= self.nodes.len() {
                return Err(SimError::UnknownNode(x));
            }
        }
        if a == b {
            return Err(SimError::Topology(GraphError::SelfLoop(a)));
        }
        if self.graph.has_edge(a, b) == present {
            return Ok(false);
        }
        // Nodes whose k-neighbourhood could change, with their distance
        // to the change (for the stale-view wave): within k hops of
        // either endpoint, in the old or new topology.
        let mut dirty: BTreeMap<NodeId, u32> = BTreeMap::new();
        self.collect_dirty(&mut dirty, a, b);
        if present {
            self.graph.insert_edge(a, b)?;
            if !self.connected {
                self.connected = traversal::is_connected(&self.graph);
            }
            // A restored link delivers whatever was parked on it, in
            // FIFO order, starting next tick.
            if let Some(q) = self.parked.remove(&LinkKey::new(a, b)) {
                for h in q {
                    self.events.schedule(self.tick + 1, h);
                }
            }
        } else {
            self.graph.remove_edge(a, b)?;
            // A connected graph stays connected without {a, b} iff `a`
            // still reaches `b`: every other node keeps its path to one
            // of the two. The search stops at `b`, so it costs the ball
            // around `a` out to `b`'s new distance, not the graph.
            let joined = self.connected && Ball::with(|ball| ball.reaches(&self.graph, a, b));
            if !joined {
                self.graph.insert_edge(a, b)?;
                return Err(SimError::WouldDisconnect(a, b));
            }
        }
        self.collect_dirty(&mut dirty, a, b);
        if self.cfg.view_delay == 0 {
            let due: Vec<NodeId> = dirty.keys().copied().collect();
            self.reprovision(&due);
        } else {
            for (&x, &d) in &dirty {
                let when = self.tick + self.cfg.view_delay * (u64::from(d) + 1);
                self.reprovision_at.schedule(when, x);
            }
        }
        Ok(true)
    }

    /// Merges into `dirty` every node within `k` hops of `a` or `b` in
    /// the **current** topology, keyed by its distance to the nearest
    /// endpoint (minimum over calls).
    fn collect_dirty(&self, dirty: &mut BTreeMap<NodeId, u32>, a: NodeId, b: NodeId) {
        Ball::with(|ball| {
            for &end in &[a, b] {
                ball.search(&self.graph, end, self.k);
                for &(x, d) in ball.members() {
                    let entry = dirty.entry(x).or_insert(d);
                    *entry = (*entry).min(d);
                }
            }
        });
    }

    /// Re-extracts the views of `due` (sorted, deduped) from the
    /// current topology, preserving each node's traffic counters and
    /// stamping [`SimNode::provisioned_at`].
    ///
    /// Only the due slots of the [`ViewStore`] are invalidated and
    /// refilled — a wave touching three nodes costs three view
    /// extractions, and drops the three views they replace. Every
    /// other node keeps its view (and its lazily computed routing
    /// structure), which is exactly the stale-view semantics: a node
    /// that has not been told about a change keeps acting on the world
    /// it last saw.
    fn reprovision(&mut self, due: &[NodeId]) {
        if let Some(rec) = self.trace.as_deref_mut() {
            rec.inc("sim.reprovisions", due.len() as u64);
            for &u in due {
                if let Some(e) = rec.event(Level::Debug, self.tick, "reprov") {
                    e.u64("node", u64::from(u.0)).finish();
                }
            }
        }
        for &u in due {
            self.views.invalidate(u);
            self.views.view(&self.graph, u);
            self.nodes[u.index()].provisioned_at = self.tick;
        }
    }

    /// The attached trace recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.trace.as_deref()
    }

    /// Folds end-of-run engine statistics — view-store effectiveness
    /// and the arrival arena's high-water mark — into the recorder's
    /// registry, flushes the registry into the event stream (stamped
    /// with the current tick), and returns the buffered JSONL.
    ///
    /// The recorder stays attached and keeps its sequence counter, so
    /// a workload may flush at checkpoints and concatenate the chunks.
    /// Returns empty bytes when no recorder is attached.
    pub fn finish_trace(&mut self) -> Vec<u8> {
        let vs = self.views.stats();
        let backed = self.views.is_artifact_backed();
        let slab_hw = self.slab.high_water() as i64;
        let adm = self.admission.clone();
        let Some(rec) = self.trace.as_deref_mut() else {
            return Vec::new();
        };
        rec.gauge_set("views.hits", vs.hits as i64);
        rec.gauge_set("views.misses", vs.misses as i64);
        rec.gauge_set("views.invalidations", vs.invalidations as i64);
        rec.gauge_set("slab.high_water", slab_hw);
        if backed {
            rec.gauge_set(locality_obs::names::ORACLE_LOADS, vs.artifact_loads as i64);
            rec.gauge_set(locality_obs::names::ORACLE_REBUILDS, vs.rebuilds as i64);
        }
        // Saturation gauges appear only under a non-open policy, the
        // same discipline as the oracle pair: traces of the historical
        // configuration stay byte-identical.
        if adm.active() {
            rec.gauge_set(
                locality_obs::names::ADMISSION_REJECTED,
                adm.rejected() as i64,
            );
            rec.gauge_set(locality_obs::names::ADMISSION_SHED, adm.shed() as i64);
            rec.gauge_set(
                locality_obs::names::ADMISSION_PEAK_LIVE,
                adm.peak_live() as i64,
            );
            rec.gauge_set(
                locality_obs::names::ADMISSION_DECISIONS,
                adm.decisions() as i64,
            );
        }
        rec.flush_metrics(self.tick);
        rec.take_bytes()
    }

    /// The admission controller's counters (rejections, sheds, peak
    /// saturation) — all zero under the default open policy.
    pub fn admission_stats(&self) -> &AdmissionController {
        &self.admission
    }

    /// Whether the view store serves from a precomputed oracle
    /// artifact ([`Provisioner::Oracle`]) rather than extracting on
    /// demand.
    pub fn is_artifact_backed(&self) -> bool {
        self.views.is_artifact_backed()
    }

    /// View-store effectiveness counters. On an artifact-backed
    /// network, `artifact_loads` / `rebuilds` split the misses into
    /// decoded-from-artifact and re-extracted-after-churn — the
    /// conservation pair proving a churn wave rebuilt only its dirty
    /// radius.
    pub fn view_stats(&self) -> ViewStoreStats {
        self.views.stats()
    }

    /// Decides the outcome of one arrival — the exact decision ladder
    /// of the historical `process`, with every mutation left to
    /// [`apply_decision`](Self::apply_decision): staleness, dead
    /// incoming link, crash, delivery, loop recurrence (a non-mutating
    /// containment test), hop budget, and finally the router's
    /// decision against the node's own view.
    fn decide(&self, h: u32) -> HopDecision {
        let ArrivalData {
            msg,
            at,
            from,
            attempt,
        } = self.slab.get(h);
        let msg = msg as usize;
        if self.messages[msg].fate != MessageFate::InFlight || attempt != self.states[msg].attempt {
            return HopDecision::Stale;
        }
        // A message mid-flight on a link that has since gone down.
        if let Some(f) = from {
            if !self.graph.has_edge(f, at) {
                match self.cfg.dead_link {
                    DeadLinkPolicy::Deliver => {}
                    DeadLinkPolicy::Drop => return HopDecision::DropIncoming,
                    DeadLinkPolicy::Queue => return HopDecision::ParkIncoming,
                }
            }
        }
        // A crashed node black-holes everything, deliveries included.
        if self.crashed[at.index()] {
            return HopDecision::Crashed;
        }
        let t = self.messages[msg].t;
        if at == t {
            return HopDecision::Deliver;
        }
        // Exact loop detection (telemetry, not protocol state): a pure
        // stateless router revisiting (node, predecessor-it-can-see)
        // will repeat forever.
        let pred = if self.router.awareness().predecessor {
            from
        } else {
            None
        };
        if self.states[msg].visited.contains(at, pred) {
            return HopDecision::Loop;
        }
        if self.messages[msg].hops() >= self.hop_budget {
            return HopDecision::Exhaust;
        }
        let origin_label = self.graph.label(self.messages[msg].s);
        let target_label = self.graph.label(t);
        let from_label = from.map(|f| self.graph.label(f));
        // Build fills every slot and a re-provision wave refills each
        // slot it empties before returning, so this read always finds
        // the node's current (possibly stale) view.
        let Some(view) = self.views.resident(at) else {
            return HopDecision::Errored {
                err: format!("node {at} holds no view"),
                decided: false,
            };
        };
        let packet =
            Packet::new(origin_label, target_label, from_label).masked(self.router.awareness());
        // The traced path asks the router to name its rule; the
        // untraced path is the exact pre-tracing decision call.
        let traced_hops = self
            .trace
            .as_deref()
            .is_some_and(|r| r.enabled(Level::Hops));
        let decision = if traced_hops {
            self.router.decide_explained(&packet, view)
        } else {
            self.router.decide(&packet, view).map(|l| (l, "?"))
        };
        match decision {
            Err(e) => HopDecision::Errored {
                err: e.to_string(),
                decided: false,
            },
            Ok((next_label, rule)) => match self.graph.node_by_label(next_label) {
                Some(next) if self.graph.has_edge(at, next) => HopDecision::Forward { next, rule },
                Some(next) if view.center_neighbors().any(|x| x == next) => {
                    // Valid on the node's (stale) view — the link is
                    // simply down right now.
                    match self.cfg.dead_link {
                        DeadLinkPolicy::Queue => HopDecision::ParkOutgoing { next, rule },
                        DeadLinkPolicy::Deliver | DeadLinkPolicy::Drop => HopDecision::DropOutgoing,
                    }
                }
                // Not a neighbour in the topology *or* the view (or no
                // such node at all): a router bug, not a fault.
                None | Some(_) => HopDecision::Errored {
                    err: format!("router named non-neighbour {next_label}"),
                    decided: true,
                },
            },
        }
    }
}

/// What [`Network::decide`] concluded for one arrival, computed
/// read-only and applied by [`Network::apply_decision`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum HopDecision {
    /// The message's fate is terminal or the attempt was superseded:
    /// free the handle, nothing else.
    Stale,
    /// Mid-flight on a link that went down under
    /// [`DeadLinkPolicy::Queue`]: park the handle on that link.
    ParkIncoming,
    /// Same, under [`DeadLinkPolicy::Drop`]: the message is lost.
    DropIncoming,
    /// The node is crashed and black-holes the arrival.
    Crashed,
    /// Arrived at its destination.
    Deliver,
    /// The `(node, predecessor)` state recurred: a provable loop.
    Loop,
    /// The per-attempt hop budget is spent.
    Exhaust,
    /// The router failed (`decided: false`) or named a node that is a
    /// neighbour in neither the topology nor the view
    /// (`decided: true` — the decision counter still advanced).
    Errored {
        /// The fate's error message.
        err: String,
        /// Whether the router returned a next hop at all.
        decided: bool,
    },
    /// Forward over a live edge (the loss draw and latency are applied
    /// by [`Network::apply_decision`], which owns the RNG stream).
    Forward {
        /// The live neighbour to transmit to.
        next: NodeId,
        /// The router rule that fired (traced runs only).
        rule: &'static str,
    },
    /// The decision is valid on the node's (stale) view but the link
    /// is down, under [`DeadLinkPolicy::Queue`]: allocate and park a
    /// fresh transmission on that link.
    ParkOutgoing {
        /// The view-valid neighbour the message is parked towards.
        next: NodeId,
        /// The router rule that fired.
        rule: &'static str,
    },
    /// Same, under a non-queueing policy: the message is lost.
    DropOutgoing,
}

/// The registry counter a terminal fate bumps (`fate.<tag>`).
fn fate_counter(fate: &MessageFate) -> &'static str {
    match fate {
        MessageFate::InFlight => "fate.in_flight",
        MessageFate::Delivered => "fate.delivered",
        MessageFate::Looped => "fate.looped",
        MessageFate::Errored(_) => "fate.errored",
        MessageFate::HopBudgetExhausted => "fate.exhausted",
        MessageFate::Dropped => "fate.dropped",
        MessageFate::TimedOut => "fate.timed_out",
        MessageFate::GaveUp => "fate.gave_up",
        MessageFate::Rejected => "fate.rejected",
        MessageFate::Shed => "fate.shed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChurnConfig, LinkProfile};
    use local_routing::{Alg1, Alg2, Alg3, LocalRouter};
    use locality_graph::{generators, Label};

    #[test]
    fn single_message_delivery() {
        let g = generators::cycle(12);
        let mut net = NetworkBuilder::new(&g, 6).build(Alg3);
        let id = net.send(NodeId(0), NodeId(6));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert!(r.delivered());
        assert_eq!(r.hops(), 6);
        assert_eq!(r.latency(), Some(6));
    }

    #[test]
    fn many_messages_in_flight() {
        let g = generators::grid(4, 4);
        let k = Alg1.min_locality(16);
        let mut net = NetworkBuilder::new(&g, k).build(Alg1);
        let ids: Vec<MessageId> = (0..16u32)
            .flat_map(|s| (0..16u32).filter(move |&t| t != s).map(move |t| (s, t)))
            .map(|(s, t)| net.send(NodeId(s), NodeId(t)))
            .collect();
        net.run_until_quiet();
        for id in ids {
            assert!(net.record(id).expect("id was returned by send").delivered());
        }
        let m = net.metrics();
        assert_eq!(m.delivery_ratio(), 1.0);
        assert!(m.max_node_load > 0);
    }

    #[test]
    fn loops_are_detected_and_dropped() {
        use local_routing::baselines::LowestRankForward;
        let g = generators::path(8);
        let mut net = NetworkBuilder::new(&g, 2).build(LowestRankForward);
        let id = net.send(NodeId(3), NodeId(7));
        net.run_until_quiet();
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::Looped
        );
        assert_eq!(net.metrics().looped, 1);
    }

    #[test]
    fn topology_change_reroutes() {
        // Remove a cycle edge: the network becomes a path and routing
        // must still deliver on fresh views.
        let g = generators::cycle(10);
        let mut net = NetworkBuilder::new(&g, 5).build(Alg3);
        net.set_edge(NodeId(0), NodeId(9), false)
            .expect("removing one cycle edge keeps it connected");
        let id = net.send(NodeId(1), NodeId(8));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert!(r.delivered());
        assert_eq!(r.hops(), 7, "must take the long way on the path");
    }

    #[test]
    fn topology_change_adding_a_shortcut() {
        let g = generators::path(11);
        let mut net = NetworkBuilder::new(&g, 5).build(Alg3);
        net.set_edge(NodeId(0), NodeId(10), true)
            .expect("adding an edge cannot disconnect");
        let id = net.send(NodeId(1), NodeId(9));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert!(r.delivered());
        assert_eq!(r.hops(), 3, "must use the new shortcut: 1-0-10-9");
    }

    #[test]
    fn refuses_a_bridge_and_accepts_a_cycle_edge() {
        // Cycle 0..=4 with a tail 4-5-6: {4, 5} is a bridge.
        let g = generators::lollipop(5, 2);
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        assert_eq!(
            net.set_edge(NodeId(4), NodeId(5), false),
            Err(SimError::WouldDisconnect(NodeId(4), NodeId(5)))
        );
        assert!(net.graph().has_edge(NodeId(4), NodeId(5)));
        net.set_edge(NodeId(0), NodeId(1), false)
            .expect("a cycle edge is not a bridge");
        assert!(!net.graph().has_edge(NodeId(0), NodeId(1)));
        // The cut turned the cycle into a path: {1, 2} is a bridge now.
        assert_eq!(
            net.set_edge(NodeId(1), NodeId(2), false),
            Err(SimError::WouldDisconnect(NodeId(1), NodeId(2)))
        );
    }

    #[test]
    fn refuses_every_cut_while_disconnected_since_build() {
        // Two triangles: no cut is accepted, not even a cycle edge.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .expect("two triangles are simple");
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        for (a, b) in [(0, 1), (1, 2), (3, 4)] {
            assert_eq!(
                net.set_edge(NodeId(a), NodeId(b), false),
                Err(SimError::WouldDisconnect(NodeId(a), NodeId(b)))
            );
        }
        // A link-up that joins the halves makes cycle edges cuttable,
        // while the joining edge itself is a bridge.
        net.set_edge(NodeId(2), NodeId(3), true)
            .expect("adding an edge never fails");
        net.set_edge(NodeId(0), NodeId(1), false)
            .expect("a cycle edge of a connected graph is not a bridge");
        assert_eq!(
            net.set_edge(NodeId(2), NodeId(3), false),
            Err(SimError::WouldDisconnect(NodeId(2), NodeId(3)))
        );
    }

    #[test]
    fn link_down_decisions_match_whole_graph_connectivity() {
        // Random flips on random (possibly disconnected) graphs: every
        // decision must equal the whole-graph rule "refuse iff the
        // graph without the edge is disconnected".
        let mut rng = DetRng::seed_from_u64(0xC07);
        for _ in 0..12 {
            let n = rng.gen_range(4..12u32);
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(n / 2..2 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                    edges.push((a, b));
                }
            }
            let g = Graph::from_edges(n as usize, &edges).expect("simple edge set");
            let mut shadow = g.clone();
            let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
            for _ in 0..40 {
                let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                if a == b {
                    continue;
                }
                let up = rng.gen_range(0..3u8) == 0;
                let expect_ok = if up || !shadow.has_edge(a, b) {
                    true
                } else {
                    let mut cut = shadow.clone();
                    cut.remove_edge(a, b).expect("edge is present");
                    traversal::is_connected(&cut)
                };
                let got = net.set_edge(a, b, up);
                assert_eq!(got.is_ok(), expect_ok, "{a}-{b} up={up} on {shadow:?}");
                if got.is_ok() && shadow.has_edge(a, b) != up {
                    if up {
                        shadow.insert_edge(a, b).expect("edge is absent");
                    } else {
                        shadow.remove_edge(a, b).expect("edge is present");
                    }
                }
                assert_eq!(net.graph().edge_count(), shadow.edge_count());
            }
        }
    }

    #[test]
    fn refuses_disconnection() {
        let g = generators::path(5);
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        let err = net.set_edge(NodeId(2), NodeId(3), false);
        assert_eq!(err, Err(SimError::WouldDisconnect(NodeId(2), NodeId(3))));
        // The failed change must leave the network fully operational.
        let id = net.send(NodeId(0), NodeId(4));
        net.run_until_quiet();
        assert!(net.record(id).expect("id was returned by send").delivered());
    }

    #[test]
    fn self_send_delivers_immediately() {
        let g = generators::path(4);
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        let id = net.send(NodeId(1), NodeId(1));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert!(r.delivered());
        assert_eq!(r.hops(), 0);
        assert_eq!(r.latency(), Some(0));
    }

    #[test]
    fn hop_budget_caps_runaways() {
        use local_routing::baselines::RightHandRule;
        // A router that legitimately wanders: with a tiny budget the
        // simulator reports exhaustion instead of looping to detection.
        let g = generators::lollipop(20, 3);
        let mut net = NetworkBuilder::new(&g, 2)
            .hop_budget(4)
            .build(RightHandRule);
        let id = net.send(NodeId(10), NodeId(22));
        net.run_until_quiet();
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            crate::MessageFate::HopBudgetExhausted
        );
    }

    #[test]
    fn metrics_tick_clock_advances() {
        let g = generators::path(6);
        let mut net = NetworkBuilder::new(&g, 3).build(Alg3);
        net.send(NodeId(0), NodeId(5));
        net.run_until_quiet();
        assert!(net.now() >= 5);
        assert_eq!(net.metrics().delivered, 1);
    }

    #[test]
    fn parity_with_central_engine() {
        // The distributed simulation must take hop-for-hop the same
        // route as the central engine for a deterministic router.
        let g = generators::lollipop(9, 4);
        let k = Alg2.min_locality(13);
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let central = local_routing::engine::route(&g, k, &Alg2, s, t, &Default::default());
                let mut net = NetworkBuilder::new(&g, k).build(Alg2);
                let id = net.send(s, t);
                net.run_until_quiet();
                let r = net.record(id).expect("id was returned by send");
                assert!(r.delivered());
                assert_eq!(r.path, central.route, "({s},{t})");
            }
        }
    }

    #[test]
    fn set_edge_is_idempotent() {
        let g = generators::cycle(8);
        let mut net = NetworkBuilder::new(&g, 3).build(Alg3);
        // Re-adding a present edge and removing an absent one are
        // no-ops, not errors.
        net.set_edge(NodeId(0), NodeId(1), true)
            .expect("re-adding a present edge is a no-op");
        net.set_edge(NodeId(0), NodeId(4), false)
            .expect("removing an absent edge is a no-op");
        assert_eq!(net.graph().edge_count(), g.edge_count());
        // And a no-op does not touch any view.
        for u in g.nodes() {
            assert_eq!(net.node(u).provisioned_at, 0);
        }
    }

    #[test]
    fn unknown_nodes_are_typed_errors() {
        let g = generators::path(4);
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        assert_eq!(
            net.try_send(NodeId(9), NodeId(0)),
            Err(SimError::UnknownNode(NodeId(9)))
        );
        assert!(matches!(
            net.try_node(NodeId(9)),
            Err(SimError::UnknownNode(NodeId(9)))
        ));
        assert_eq!(
            net.set_edge(NodeId(0), NodeId(9), true),
            Err(SimError::UnknownNode(NodeId(9)))
        );
        assert_eq!(net.metrics().sent, 0, "failed sends inject nothing");
    }

    #[test]
    fn lossy_link_drops_without_reliability() {
        let g = generators::path(2);
        let cfg = FaultConfig {
            default_link: LinkProfile {
                loss: 1.0,
                extra_latency: 0,
            },
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 1).faults(cfg).build(Alg3);
        let id = net.send(NodeId(0), NodeId(1));
        net.run_until_quiet();
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::Dropped
        );
        let m = net.metrics();
        assert_eq!(m.dropped, 1);
        assert!(m.accounted());
    }

    #[test]
    fn timeout_without_retries_times_out() {
        let g = generators::path(2);
        let cfg = FaultConfig {
            default_link: LinkProfile {
                loss: 1.0,
                extra_latency: 0,
            },
            timeout: Some(4),
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 1).faults(cfg).build(Alg3);
        let id = net.send(NodeId(0), NodeId(1));
        net.run_until_quiet();
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::TimedOut
        );
        assert!(net.metrics().accounted());
    }

    #[test]
    fn retries_exhaust_to_gave_up() {
        let g = generators::path(2);
        let cfg = FaultConfig {
            default_link: LinkProfile {
                loss: 1.0,
                extra_latency: 0,
            },
            timeout: Some(3),
            max_retries: 2,
            backoff: 1,
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 1).faults(cfg).build(Alg3);
        let id = net.send(NodeId(0), NodeId(1));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert_eq!(r.fate, MessageFate::GaveUp);
        assert_eq!(r.retries, 2);
        let m = net.metrics();
        assert_eq!((m.gave_up, m.retries), (1, 2));
        assert!(m.accounted());
    }

    #[test]
    fn retry_recovers_after_restart() {
        // Crash the only relay; the source retries through the outage
        // and succeeds once the relay restarts.
        let g = generators::path(3);
        let cfg = FaultConfig {
            timeout: Some(5),
            max_retries: 10,
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 2)
            .faults(cfg)
            .fault_plan(
                FaultPlan::new()
                    .at(0, FaultEvent::Crash(NodeId(1)))
                    .at(12, FaultEvent::Restart(NodeId(1))),
            )
            .build(Alg3);
        let id = net.send(NodeId(0), NodeId(2));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert_eq!(r.fate, MessageFate::Delivered);
        assert!(r.retries >= 1, "delivery must have needed a retry");
        assert!(net.metrics().accounted());
    }

    #[test]
    fn crashed_node_black_holes() {
        let g = generators::path(3);
        let mut net = NetworkBuilder::new(&g, 2).build(Alg3);
        net.schedule_fault(0, FaultEvent::Crash(NodeId(1)));
        let id = net.send(NodeId(0), NodeId(2));
        net.run_until_quiet();
        assert!(net.is_crashed(NodeId(1)));
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::Dropped
        );
        let m = net.metrics();
        assert_eq!((m.dropped, m.faults_applied), (1, 1));
        assert!(m.accounted());
    }

    #[test]
    fn parked_messages_cross_when_link_returns() {
        // With stale views (large delay) node 1 still believes in the
        // cut link and forwards onto it; Queue parks the message until
        // the link is restored.
        let g = generators::cycle(4);
        let cfg = FaultConfig {
            dead_link: DeadLinkPolicy::Queue,
            view_delay: 1_000,
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 2).faults(cfg).build(Alg3);
        net.set_edge(NodeId(1), NodeId(2), false)
            .expect("one cycle edge can go");
        let id = net.send(NodeId(1), NodeId(2));
        for _ in 0..4 {
            net.step();
        }
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::InFlight,
            "the message should be parked on the dead link"
        );
        net.set_edge(NodeId(1), NodeId(2), true)
            .expect("restoring the edge");
        net.run_until_quiet();
        assert_eq!(
            net.record(id).expect("id was returned by send").fate,
            MessageFate::Delivered
        );
        assert!(net.metrics().accounted());
    }

    #[test]
    fn stale_views_refresh_as_a_wave() {
        let g = generators::cycle(10);
        let cfg = FaultConfig {
            view_delay: 2,
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, 2).faults(cfg).build(Alg3);
        net.set_edge(NodeId(0), NodeId(9), false)
            .expect("one cycle edge can go");
        // After the cut, node 0 still *sees* the old edge until its
        // wave arrives: endpoints re-provision at delay*(0+1), their
        // neighbours at delay*(1+1), …
        let sees_cut_edge = |net: &Network| net.view(NodeId(0)).unwrap().contains_label(Label(9));
        assert!(sees_cut_edge(&net));
        net.run_until(1);
        assert!(sees_cut_edge(&net), "stale until the wave's tick");
        net.run_until(2);
        assert!(!sees_cut_edge(&net), "refreshed at the wave's tick");
        net.run_until_quiet();
        assert_eq!(net.node(NodeId(0)).provisioned_at, 2);
        assert_eq!(net.node(NodeId(1)).provisioned_at, 4);
        // Nodes farther than k from both endpoints never re-provision.
        assert_eq!(net.node(NodeId(5)).provisioned_at, 0);
    }

    #[test]
    fn fault_plan_quiesces_to_original_topology() {
        let g = generators::random_connected(16, 8, &mut DetRng::seed_from_u64(3));
        let plan =
            FaultPlan::random_churn(&g, &ChurnConfig::default(), &mut DetRng::seed_from_u64(4));
        let mut net = NetworkBuilder::new(&g, 3).fault_plan(plan).build(Alg3);
        net.run_until_quiet();
        let m = net.metrics();
        assert!(m.faults_applied > 0);
        assert_eq!(net.graph().edge_count(), g.edge_count());
        for (a, b) in g.edges() {
            assert!(net.graph().has_edge(a, b));
        }
        for u in g.nodes() {
            assert!(!net.is_crashed(u));
        }
    }

    /// A churny configuration exercising loss, dead links, crashes,
    /// retries, and stale views all at once.
    fn churny_builder(g: &Graph, k: u32) -> NetworkBuilder {
        let cfg = FaultConfig {
            dead_link: DeadLinkPolicy::Drop,
            view_delay: 2,
            default_link: LinkProfile {
                loss: 0.05,
                extra_latency: 0,
            },
            timeout: Some(64),
            max_retries: 3,
            backoff: 16,
            seed: 11,
            ..Default::default()
        };
        let plan =
            FaultPlan::random_churn(g, &ChurnConfig::default(), &mut DetRng::seed_from_u64(9));
        NetworkBuilder::new(g, k).faults(cfg).fault_plan(plan)
    }

    /// [`churny_builder`] at k = 3 under Algorithm 3, optionally traced.
    fn churny(g: &Graph, traced: bool) -> Network {
        let mut b = churny_builder(g, 3);
        if traced {
            b = b.recorder(Recorder::new(Level::Debug));
        }
        b.build(Alg3)
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let g = generators::random_connected(20, 10, &mut DetRng::seed_from_u64(7));
        let mut plain = churny(&g, false);
        let mut traced = churny(&g, true);
        for net in [&mut plain, &mut traced] {
            for s in g.nodes() {
                net.send(s, NodeId((s.0 + 7) % 20));
            }
            net.run_until_quiet();
        }
        assert_eq!(plain.metrics(), traced.metrics());
        for id in (0..20).map(MessageId) {
            let (a, b) = (plain.record(id).unwrap(), traced.record(id).unwrap());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert!(!traced.finish_trace().is_empty());
        assert!(plain.finish_trace().is_empty());
    }

    #[test]
    fn churn_trace_records_faults_retries_and_conserves() {
        let g = generators::random_connected(20, 10, &mut DetRng::seed_from_u64(7));
        let mut net = churny(&g, true);
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    net.send(s, t);
                }
            }
        }
        net.run_until_quiet();
        let m = net.metrics();
        assert!(m.accounted());
        assert!(m.faults_applied > 0, "churn plan should bite");
        let text = String::from_utf8(net.finish_trace()).unwrap();
        let events = locality_obs::parse_trace(&text).unwrap();
        assert!(events.iter().any(|e| e.str_of("ev") == Some("fault")));
        if m.retries > 0 {
            assert!(events.iter().any(|e| e.str_of("ev") == Some("retry")));
        }
        let witnesses = locality_obs::collect_witnesses(&events);
        crate::replay::check_conservation(&witnesses, &m).unwrap();
        // The registry dump carries the PR-4 machinery gauges.
        for key in ["views.hits", "slab.high_water"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.str_of("ev") == Some("gauge") && e.str_of("name") == Some(key)),
                "missing gauge {key}"
            );
        }
    }

    #[test]
    fn witness_routes_match_message_records() {
        let g = generators::grid(4, 4);
        let k = Alg1.min_locality(16);
        let mut net = NetworkBuilder::new(&g, k)
            .recorder(Recorder::new(Level::Hops))
            .build(Alg1);
        let ids: Vec<MessageId> = (0..16u32)
            .filter(|&t| t != 0)
            .map(|t| net.send(NodeId(0), NodeId(t)))
            .collect();
        net.run_until_quiet();
        let text = String::from_utf8(net.finish_trace()).unwrap();
        let events = locality_obs::parse_trace(&text).unwrap();
        let witnesses = locality_obs::collect_witnesses(&events);
        assert_eq!(witnesses.len(), ids.len());
        for (w, id) in witnesses.iter().zip(&ids) {
            let r = net.record(*id).unwrap();
            let path: Vec<u32> = r.path.iter().map(|n| n.0).collect();
            assert_eq!(w.route(), path);
            assert_eq!(w.fate.as_deref(), Some(r.fate.tag()));
        }
    }

    #[test]
    fn oracle_provisioner_matches_bfs_byte_for_byte() {
        let g = generators::random_connected(24, 10, &mut DetRng::seed_from_u64(21));
        let k = Alg3.min_locality(24);
        let artifact = Arc::new(ViewArtifact::build(&g, k));
        let mut bfs = NetworkBuilder::new(&g, k).build(Alg3);
        let mut oracle = NetworkBuilder::new(&g, k)
            .provisioner(Provisioner::Oracle(artifact))
            .try_build(Alg3)
            .expect("artifact was built for this graph and k");
        assert!(!bfs.is_artifact_backed());
        assert!(oracle.is_artifact_backed());
        for net in [&mut bfs, &mut oracle] {
            for s in g.nodes() {
                net.send(s, NodeId((s.0 + 11) % 24));
            }
            net.run_until_quiet();
        }
        assert_eq!(bfs.metrics(), oracle.metrics());
        for id in (0..24).map(MessageId) {
            let (a, b) = (bfs.record(id).unwrap(), oracle.record(id).unwrap());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Every view came off the artifact; BFS extraction never ran.
        let vs = oracle.view_stats();
        assert_eq!(vs.artifact_loads, 24);
        assert_eq!(vs.rebuilds, 0);
    }

    #[test]
    fn oracle_try_build_rejects_mismatched_artifact() {
        let g = generators::cycle(10);
        let wrong_k = Arc::new(ViewArtifact::build(&g, 3));
        let err = NetworkBuilder::new(&g, 5)
            .provisioner(Provisioner::Oracle(wrong_k))
            .try_build(Alg3)
            .err()
            .expect("k mismatch must be rejected");
        assert!(matches!(err, SimError::Oracle(_)), "got {err:?}");
        let other = generators::cycle(11);
        let wrong_graph = Arc::new(ViewArtifact::build(&other, 5));
        assert!(matches!(
            NetworkBuilder::new(&g, 5)
                .provisioner(Provisioner::Oracle(wrong_graph))
                .try_build(Alg3),
            Err(SimError::Oracle(_))
        ));
    }

    #[test]
    fn churn_wave_rebuilds_only_dirty_radius() {
        let g = generators::cycle(12);
        let artifact = Arc::new(ViewArtifact::build(&g, 2));
        let mut net = NetworkBuilder::new(&g, 2)
            .recorder(Recorder::new(Level::Metrics))
            .provisioner(Provisioner::Oracle(artifact))
            .build(Alg3);
        let vs = net.view_stats();
        assert_eq!((vs.artifact_loads, vs.rebuilds), (12, 0));
        // Removing (0, 11) dirties the nodes within k = 2 of either
        // endpoint (old or new topology): {9, 10, 11, 0, 1, 2}.
        net.set_edge(NodeId(0), NodeId(11), false)
            .expect("removing one cycle edge keeps it connected");
        let vs = net.view_stats();
        assert_eq!(vs.rebuilds, 6, "exactly the dirty radius re-extracts");
        assert_eq!(vs.artifact_loads, 12, "no extra artifact decodes");
        // Conservation: every miss is either an artifact decode or a
        // churn rebuild — untouched entries were never rebuilt.
        assert_eq!(vs.misses, vs.artifact_loads + vs.rebuilds);
        // The rebuilt views reflect the new topology: node 0 no longer
        // sees its removed neighbour, and short routes still deliver.
        assert!(!net.view(NodeId(0)).unwrap().contains_label(Label(11)));
        let id = net.send(NodeId(1), NodeId(3));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert!(r.delivered());
        assert_eq!(r.hops(), 2);
        // Artifact-backed runs flush the oracle gauges.
        let text = String::from_utf8(net.finish_trace()).unwrap();
        let events = locality_obs::parse_trace(&text).unwrap();
        for key in [
            locality_obs::names::ORACLE_LOADS,
            locality_obs::names::ORACLE_REBUILDS,
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.str_of("ev") == Some("gauge") && e.str_of("name") == Some(key)),
                "missing gauge {key}"
            );
        }
    }

    #[test]
    fn reject_new_refuses_saturated_injections() {
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        let g = generators::cycle(8);
        let mut net = NetworkBuilder::new(&g, 4)
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::RejectNew,
                max_live: 4,
                ..Default::default()
            })
            .build(Alg3);
        // Each injection allocates a slab handle immediately, so the
        // fifth-and-later sends in the same tick see live >= 4.
        let ids: Vec<MessageId> = (0..10u32)
            .map(|i| net.send(NodeId(i % 8), NodeId(4)))
            .collect();
        net.run_until_quiet();
        let m = net.metrics();
        assert_eq!(m.sent, 10);
        assert_eq!(m.rejected, 6);
        assert!(m.accounted(), "conservation must include rejected");
        // Admitted traffic is untouched: everything else delivered.
        assert_eq!(m.delivered, m.admitted());
        assert_eq!(m.admitted_delivery_ratio(), 1.0);
        for id in &ids[4..] {
            assert_eq!(net.record(*id).unwrap().fate, MessageFate::Rejected);
        }
        assert_eq!(net.admission_stats().rejected(), 6);
    }

    #[test]
    fn shed_oldest_evicts_in_injection_order() {
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        let g = generators::cycle(8);
        let mut net = NetworkBuilder::new(&g, 4)
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::ShedOldest,
                max_live: 4,
                ..Default::default()
            })
            .build(Alg3);
        let ids: Vec<MessageId> = (0..8u32).map(|i| net.send(NodeId(i), NodeId(3))).collect();
        net.run_until_quiet();
        let m = net.metrics();
        assert_eq!(m.sent, 8);
        assert_eq!(m.shed, 4, "each saturated send evicts exactly one");
        assert!(m.accounted(), "conservation must include shed");
        // The oldest messages were the victims, newest survived.
        for id in &ids[..4] {
            assert_eq!(net.record(*id).unwrap().fate, MessageFate::Shed);
        }
        for id in &ids[4..] {
            assert!(net.record(*id).unwrap().delivered());
        }
    }

    #[test]
    fn backoff_scale_preserves_conservation() {
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        let g = generators::path(2);
        let cfg = FaultConfig {
            default_link: LinkProfile {
                loss: 1.0,
                extra_latency: 0,
            },
            timeout: Some(3),
            max_retries: 2,
            backoff: 2,
            ..Default::default()
        };
        // Saturated from the first in-flight message: every retry wait
        // is stretched 3x, but fates are unchanged.
        let mut net = NetworkBuilder::new(&g, 1)
            .faults(cfg)
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::BackoffScale,
                max_live: 1,
                backoff_scale: 3,
                ..Default::default()
            })
            .build(Alg3);
        let id = net.send(NodeId(0), NodeId(1));
        net.run_until_quiet();
        let r = net.record(id).expect("id was returned by send");
        assert_eq!(r.fate, MessageFate::GaveUp);
        assert_eq!(r.retries, 2);
        assert!(net.metrics().accounted());
        // Unscaled run: final timer at t=3 → retry@4, wait 3+2 → t=9 →
        // retry@10, wait 3+4 → gave up at 17. Scaled (3x): waits 3+6
        // and 3+12 → gave up at 29.
        assert!(net.now() > 17, "scaled backoff must stretch the run");
    }

    #[test]
    fn admission_gauges_only_under_active_policy() {
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        let g = generators::cycle(8);
        let mut open = NetworkBuilder::new(&g, 4)
            .recorder(Recorder::new(Level::Metrics))
            .build(Alg3);
        open.send(NodeId(0), NodeId(4));
        open.run_until_quiet();
        let text = String::from_utf8(open.finish_trace()).unwrap();
        assert!(
            !text.contains(locality_obs::names::ADMISSION_REJECTED),
            "open-policy traces must stay byte-identical to PR-5"
        );
        let mut gated = NetworkBuilder::new(&g, 4)
            .recorder(Recorder::new(Level::Hops))
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::RejectNew,
                max_live: 1,
                ..Default::default()
            })
            .build(Alg3);
        for i in 0..4u32 {
            gated.send(NodeId(i), NodeId(4));
        }
        gated.run_until_quiet();
        let text = String::from_utf8(gated.finish_trace()).unwrap();
        let events = locality_obs::parse_trace(&text).unwrap();
        for key in [
            locality_obs::names::ADMISSION_REJECTED,
            locality_obs::names::ADMISSION_SHED,
            locality_obs::names::ADMISSION_PEAK_LIVE,
            locality_obs::names::ADMISSION_DECISIONS,
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.str_of("ev") == Some("gauge") && e.str_of("name") == Some(key)),
                "missing gauge {key}"
            );
        }
        // Rejected messages appear in the trace with their fate, so
        // the witness-level conservation checker balances too.
        let witnesses = locality_obs::collect_witnesses(&events);
        crate::replay::check_conservation(&witnesses, &gated.metrics()).unwrap();
    }

    #[test]
    fn churn_conservation_at_scale() {
        // The acceptance-scale topology, shrunk only in traffic: a
        // degree-16 ring lattice on 10⁵ nodes under churn must conserve
        // every message. Debug builds provision an order of magnitude
        // slower, so they run the same shape at n = 10⁴; release (and
        // `scripts/verify.sh`, via the simbench sweep) covers 10⁵.
        use local_routing::baselines::RingGreedy;
        let n = if cfg!(debug_assertions) {
            10_000usize
        } else {
            100_000usize
        };
        let g = generators::ring_lattice(n, 8);
        let mut net = churny_builder(&g, 1).build(RingGreedy::new(n as u32));
        let mut rng = DetRng::seed_from_u64(7);
        for i in 0..512u32 {
            let src = (i * 193) % n as u32;
            let dst = (src + 1 + rng.gen_range(0..1024u32)) % n as u32;
            net.send(NodeId(src), NodeId(dst));
        }
        net.run_until_quiet();
        let m = net.metrics();
        assert_eq!(m.sent, 512);
        assert!(m.accounted(), "churn must conserve every message at n={n}");
        assert!(m.faults_applied > 0, "churn plan should bite");
    }

    #[test]
    fn shard_shims_accept_only_one() {
        let g = generators::cycle(8);
        let net = NetworkBuilder::new(&g, 2)
            .shards(1)
            .shard_workers(1)
            .build(Alg2);
        assert_eq!(net.node_count(), 8);
        let err = NetworkBuilder::new(&g, 2)
            .shards(4)
            .try_build(Alg2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ShardOption {
                option: "shards",
                value: 4
            }
        );
        let err = NetworkBuilder::new(&g, 2)
            .shard_workers(2)
            .try_build(Alg2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ShardOption {
                option: "shard_workers",
                value: 2
            }
        );
    }

    #[test]
    fn bfs_traces_omit_oracle_gauges() {
        let g = generators::cycle(8);
        let mut net = NetworkBuilder::new(&g, 4)
            .recorder(Recorder::new(Level::Metrics))
            .build(Alg3);
        let id = net.send(NodeId(0), NodeId(4));
        net.run_until_quiet();
        assert!(net.record(id).unwrap().delivered());
        let text = String::from_utf8(net.finish_trace()).unwrap();
        assert!(
            !text.contains(locality_obs::names::ORACLE_LOADS),
            "BFS-provisioned traces must stay byte-identical to PR-5"
        );
    }
}
