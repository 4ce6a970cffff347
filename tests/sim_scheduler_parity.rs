//! Scheduler-path parity: the timing-wheel / arena / shared-view hot
//! path must be observably indistinguishable from the tree-map
//! scheduler it replaced.
//!
//! Three seeded chaos storms — chosen to exercise every dead-link
//! policy, zero and nonzero view delays, extra latency, and both the
//! timeout/retry and fire-and-forget regimes — are digested message by
//! message (fate, path, timing, retries) plus per-node provisioning
//! stamps and the full metrics histogram, and compared against goldens
//! committed *before* the scheduler refactor. The chaos seed-7 JSON is
//! pinned the same way (the byte-identical check `scripts/verify.sh`
//! runs, but against a frozen pre-refactor snapshot rather than a
//! second run of the same binary).
//!
//! Regenerate goldens (only when behaviour is *meant* to change) with:
//! `UPDATE_GOLDENS=1 cargo test -p locality-integration --test
//! sim_scheduler_parity`.

use std::fmt::Write as _;
use std::path::PathBuf;

use local_routing::{Alg1, Alg2, Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_sim::{
    ChurnConfig, DeadLinkPolicy, FaultConfig, FaultPlan, LinkProfile, Network, NetworkBuilder,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    // The env ban protects routing determinism; this flag only gates
    // golden regeneration in this test harness.
    #[allow(clippy::disallowed_methods)]
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDENS=1)", name));
    assert_eq!(
        actual, expected,
        "{name}: wheel-path run diverges from the pre-refactor golden"
    );
}

/// Per-message, per-node, per-counter digest of one finished run. Any
/// behavioural drift in the scheduler — event ordering, loop
/// detection, provisioning waves, retry timing — shows up here.
fn digest(net: &Network) -> String {
    let mut out = String::new();
    for (i, r) in net.records().iter().enumerate() {
        writeln!(
            out,
            "#{i} {}->{} fate={:?} sent={} done={:?} retries={} path={:?}",
            r.s.index(),
            r.t.index(),
            r.fate,
            r.sent_at,
            r.delivered_at,
            r.retries,
            r.path.iter().map(|u| u.index()).collect::<Vec<_>>(),
        )
        .expect("write to String");
    }
    let stamps: Vec<(usize, u64)> = net
        .graph()
        .nodes()
        .map(|u| (u.index(), net.node(u).provisioned_at))
        .collect();
    writeln!(out, "views={stamps:?}").expect("write to String");
    writeln!(out, "metrics={:?}", net.metrics()).expect("write to String");
    out
}

struct Storm {
    name: &'static str,
    n: usize,
    extra_edges: usize,
    seed: u64,
    churn: ChurnConfig,
    cfg: FaultConfig,
    rounds: usize,
    batch: usize,
    gap: u64,
}

fn run_storm(storm: &Storm, router: Box<dyn LocalRouter + Send + Sync>, k: u32) -> String {
    let g = generators::random_connected(
        storm.n,
        storm.extra_edges,
        &mut DetRng::seed_from_u64(storm.seed),
    );
    let plan = FaultPlan::random_churn(
        &g,
        &storm.churn,
        &mut DetRng::seed_from_u64(storm.seed ^ 0xF001),
    );
    let mut net = NetworkBuilder::new(&g, k)
        .faults(storm.cfg.clone())
        .fault_plan(plan)
        .build(router);
    let mut traffic = DetRng::seed_from_u64(storm.seed ^ 0x7AFF);
    for _ in 0..storm.rounds {
        for _ in 0..storm.batch {
            let s = NodeId(traffic.gen_range(0..storm.n as u32));
            let t = NodeId(traffic.gen_range(0..storm.n as u32));
            if s != t {
                net.send(s, t);
            }
        }
        net.run_until(net.now() + storm.gap);
    }
    net.run_until_quiet();
    let m = net.metrics();
    assert!(m.accounted(), "{}: metrics must balance", storm.name);
    digest(&net)
}

#[test]
fn storm_drop_policy_with_retries_matches_golden() {
    let storm = Storm {
        name: "drop",
        n: 24,
        extra_edges: 10,
        seed: 0xD201,
        churn: ChurnConfig {
            horizon: 120,
            link_events: 8,
            crash_events: 2,
            min_outage: 6,
            max_outage: 25,
        },
        cfg: FaultConfig {
            dead_link: DeadLinkPolicy::Drop,
            view_delay: 2,
            default_link: LinkProfile {
                loss: 0.05,
                extra_latency: 0,
            },
            timeout: Some(96),
            max_retries: 3,
            backoff: 24,
            seed: 0xD201 ^ 0x5EED,
        },
        rounds: 4,
        batch: 18,
        gap: 30,
    };
    let k = Alg3.min_locality(storm.n);
    check_golden("storm_drop.txt", &run_storm(&storm, Box::new(Alg3), k));
}

#[test]
fn storm_queue_policy_with_latency_matches_golden() {
    let storm = Storm {
        name: "queue",
        n: 20,
        extra_edges: 8,
        seed: 0x0B17,
        churn: ChurnConfig {
            horizon: 100,
            link_events: 7,
            crash_events: 2,
            min_outage: 5,
            max_outage: 20,
        },
        cfg: FaultConfig {
            dead_link: DeadLinkPolicy::Queue,
            view_delay: 3,
            default_link: LinkProfile {
                loss: 0.1,
                extra_latency: 1,
            },
            timeout: Some(50),
            max_retries: 2,
            backoff: 10,
            seed: 0x0B17 ^ 0x5EED,
        },
        rounds: 4,
        batch: 15,
        gap: 25,
    };
    let k = Alg1.min_locality(storm.n);
    check_golden("storm_queue.txt", &run_storm(&storm, Box::new(Alg1), k));
}

#[test]
fn storm_deliver_policy_fire_and_forget_matches_golden() {
    let storm = Storm {
        name: "deliver",
        n: 16,
        extra_edges: 6,
        seed: 0xDE11,
        churn: ChurnConfig {
            horizon: 80,
            link_events: 6,
            crash_events: 2,
            min_outage: 4,
            max_outage: 16,
        },
        cfg: FaultConfig {
            dead_link: DeadLinkPolicy::Deliver,
            view_delay: 0,
            default_link: LinkProfile {
                loss: 0.0,
                extra_latency: 0,
            },
            timeout: None,
            max_retries: 0,
            backoff: 0,
            seed: 0xDE11 ^ 0x5EED,
        },
        rounds: 3,
        batch: 12,
        gap: 20,
    };
    let k = Alg2.min_locality(storm.n);
    check_golden("storm_deliver.txt", &run_storm(&storm, Box::new(Alg2), k));
}

#[test]
fn chaos_seed7_json_matches_pre_refactor_snapshot() {
    let mut json = locality_bench::chaos::report(7);
    json.push('\n'); // the golden was captured from `bin/chaos` stdout
    check_golden("chaos_seed7.json", &json);
}
