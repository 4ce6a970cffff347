//! Churn and recovery: the fault-injection subsystem end to end.
//!
//! Three properties anchor the fault model:
//!
//! 1. **Replay determinism** — a chaos run is a pure function of its
//!    seeds: same graph seed, plan seed, loss seed, and traffic seed
//!    give identical fates, paths, retry counts, and metrics.
//! 2. **Recovery** — once a fault plan quiesces (every planned event
//!    fired, every stale-view wave propagated, every crashed node
//!    restarted), Algorithm 3 at its threshold locality delivers 100%
//!    of *fresh* traffic on whatever still-connected topology the storm
//!    left behind. The routers are memoryless, so there is no protocol
//!    state to rebuild — current views are the whole recovery story.
//! 3. **Equivariance** — permuting node identities (labels riding
//!    along) and permuting the fault plan the same way yields the same
//!    simulation, message for message and hop for hop: fault handling
//!    must not observe internal node numbering, exactly like routing
//!    itself (see `label_permutation.rs`).

use local_routing::{Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, traversal, NodeId};
use locality_sim::{
    ChurnConfig, DeadLinkPolicy, FaultConfig, FaultEvent, FaultPlan, LinkProfile, NetworkBuilder,
};

#[test]
fn same_seed_same_storm_same_fates() {
    let run = |seed: u64| {
        let g = generators::random_connected(20, 8, &mut DetRng::seed_from_u64(seed));
        let plan = FaultPlan::random_churn(
            &g,
            &ChurnConfig::default(),
            &mut DetRng::seed_from_u64(seed ^ 1),
        );
        let cfg = FaultConfig {
            dead_link: DeadLinkPolicy::Queue,
            view_delay: 2,
            default_link: LinkProfile {
                loss: 0.1,
                extra_latency: 0,
            },
            timeout: Some(50),
            max_retries: 3,
            backoff: 10,
            seed: seed ^ 2,
        };
        let mut net = NetworkBuilder::new(&g, Alg3.min_locality(20))
            .faults(cfg)
            .fault_plan(plan)
            .build(Alg3);
        let mut traffic = DetRng::seed_from_u64(seed ^ 3);
        for _ in 0..4 {
            for _ in 0..15 {
                let s = NodeId(traffic.gen_range(0..20u32));
                let t = NodeId(traffic.gen_range(0..20u32));
                if s != t {
                    net.send(s, t);
                }
            }
            net.run_until(net.now() + 25);
        }
        net.run_until_quiet();
        let m = net.metrics();
        assert!(m.accounted(), "every message must land in one bucket");
        (format!("{:?}", net.records()), format!("{m:?}"))
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seeds must replay byte-identically");
    let c = run(78);
    assert_ne!(a.0, c.0, "a different seed must tell a different story");
}

#[test]
fn alg3_recovers_full_delivery_after_churn() {
    for seed in [1u64, 7, 42] {
        let g = generators::random_connected(20, 8, &mut DetRng::seed_from_u64(seed));
        let n = g.node_count();
        let k = Alg3.min_locality(n);
        let mut plan = FaultPlan::random_churn(
            &g,
            &ChurnConfig {
                horizon: 80,
                link_events: 6,
                crash_events: 2,
                min_outage: 5,
                max_outage: 25,
            },
            &mut DetRng::seed_from_u64(seed ^ 0xABC),
        );
        // A couple of permanent cuts on top: the post-storm topology
        // need not equal the original, only stay connected (the network
        // refuses disconnecting cuts and counts them as skipped).
        let mut cuts = DetRng::seed_from_u64(seed ^ 0xDEF);
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        for _ in 0..2 {
            let (a, b) = edges[cuts.gen_range(0..edges.len())];
            plan.schedule(90, FaultEvent::LinkDown(a, b));
        }
        let cfg = FaultConfig {
            dead_link: DeadLinkPolicy::Drop,
            view_delay: 3,
            ..Default::default()
        };
        let mut net = NetworkBuilder::new(&g, k)
            .faults(cfg)
            .fault_plan(plan)
            .build(Alg3);
        // Traffic *during* the storm may meet any terminal fate.
        let mut traffic = DetRng::seed_from_u64(seed ^ 0x123);
        for _ in 0..40 {
            let s = NodeId(traffic.gen_range(0..n as u32));
            let t = NodeId(traffic.gen_range(0..n as u32));
            if s != t {
                net.send(s, t);
            }
        }
        // Drain everything: remaining plan events, stale-view waves,
        // in-flight traffic.
        net.run_until_quiet();
        assert!(
            traversal::is_connected(net.graph()),
            "seed {seed}: refusal of disconnecting cuts must keep the network connected"
        );
        for u in net.graph().nodes() {
            assert!(
                !net.is_crashed(u),
                "seed {seed}: plan must restart every crash"
            );
        }
        // Views have propagated; fresh all-pairs traffic is perfect.
        let before = net.metrics();
        let nodes: Vec<NodeId> = net.graph().nodes().collect();
        let mut fresh = Vec::new();
        for &s in &nodes {
            for &t in nodes.iter().filter(|&&t| t != s) {
                fresh.push(net.send(s, t));
            }
        }
        net.run_until_quiet();
        for id in &fresh {
            assert!(
                net.record(*id)
                    .expect("id was returned by send")
                    .delivered(),
                "seed {seed}: fresh traffic after quiesce must deliver 100%"
            );
        }
        let m = net.metrics();
        assert!(m.accounted(), "seed {seed}: metrics must balance");
        assert_eq!(m.delivered - before.delivered, fresh.len());
    }
}

#[test]
fn fault_plan_permutation_equivariance() {
    let mut prng = DetRng::seed_from_u64(0x5EED);
    for seed in [3u64, 11] {
        let g = generators::random_connected(16, 6, &mut DetRng::seed_from_u64(seed));
        let (h, perm) = permute::random_permute_nodes(&g, &mut prng);
        let n = g.node_count() as u32;
        let k = Alg3.min_locality(n as usize);
        let plan = FaultPlan::random_churn(
            &g,
            &ChurnConfig::default(),
            &mut DetRng::seed_from_u64(seed ^ 0x77),
        );
        let cfg = FaultConfig {
            dead_link: DeadLinkPolicy::Drop,
            view_delay: 2,
            default_link: LinkProfile {
                loss: 0.05,
                extra_latency: 1,
            },
            timeout: Some(64),
            max_retries: 2,
            backoff: 16,
            seed: seed ^ 0x99,
        };
        let mut net_g = NetworkBuilder::new(&g, k)
            .faults(cfg.clone())
            .fault_plan(plan.clone())
            .build(Alg3);
        let mut net_h = NetworkBuilder::new(&h, k)
            .faults(cfg)
            .fault_plan(plan.permuted(&perm))
            .build(Alg3);
        let mut traffic = DetRng::seed_from_u64(seed ^ 0x55);
        let mut pairs = Vec::new();
        for _ in 0..60 {
            let s = NodeId(traffic.gen_range(0..n));
            let t = NodeId(traffic.gen_range(0..n));
            if s != t {
                pairs.push((s, t));
            }
        }
        let ids_g: Vec<_> = pairs.iter().map(|&(s, t)| net_g.send(s, t)).collect();
        let ids_h: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| net_h.send(perm[s.index()], perm[t.index()]))
            .collect();
        net_g.run_until_quiet();
        net_h.run_until_quiet();
        for (idg, idh) in ids_g.iter().zip(&ids_h) {
            let rg = net_g.record(*idg).expect("id was returned by send");
            let rh = net_h.record(*idh).expect("id was returned by send");
            assert_eq!(rg.fate, rh.fate, "seed {seed}: fate must be equivariant");
            let mapped: Vec<NodeId> = rg.path.iter().map(|&u| perm[u.index()]).collect();
            assert_eq!(rh.path, mapped, "seed {seed}: path must be equivariant");
            assert_eq!(rg.retries, rh.retries, "seed {seed}: retries must match");
            assert_eq!(
                rg.delivered_at, rh.delivered_at,
                "seed {seed}: timing must match"
            );
        }
        let mg = net_g.metrics();
        let mh = net_h.metrics();
        assert_eq!(
            (
                mg.delivered,
                mg.dropped,
                mg.gave_up,
                mg.retries,
                mg.faults_applied,
                mg.faults_skipped
            ),
            (
                mh.delivered,
                mh.dropped,
                mh.gave_up,
                mh.retries,
                mh.faults_applied,
                mh.faults_skipped
            ),
            "seed {seed}: aggregate fate histogram must be permutation-invariant"
        );
    }
}
