//! Overload and admission: conservation and determinism end to end.
//!
//! Two properties anchor the admission subsystem:
//!
//! 1. **Conservation under overload** — whatever the admission policy
//!    does (admit, reject at the door, shed in flight), every
//!    message still lands in exactly one fate bucket: `accounted()`
//!    balances with the `Rejected` and `Shed` fates included, across
//!    random seeds, with and without churn.
//! 2. **Workload determinism** — an arrival schedule is a pure
//!    function of its config: the same seed yields a byte-identical
//!    schedule whether it is built inline or fanned out across driver
//!    threads, so capacity numbers never depend on parallelism.

use local_routing::{Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, NodeId};
use locality_sim::workload::{build_schedule, run_schedule, WorkloadConfig};
use locality_sim::{
    driver, AdmissionConfig, AdmissionPolicy, ChurnConfig, DeadLinkPolicy, FaultConfig, FaultPlan,
    LinkProfile, NetworkBuilder,
};

const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Open,
    AdmissionPolicy::RejectNew,
    AdmissionPolicy::ShedOldest,
];

fn overload_config(policy: AdmissionPolicy) -> AdmissionConfig {
    AdmissionConfig {
        policy,
        max_live: 8,
    }
}

fn fault_config(seed: u64) -> FaultConfig {
    FaultConfig {
        dead_link: DeadLinkPolicy::Drop,
        view_delay: 2,
        default_link: LinkProfile {
            loss: 0.05,
            extra_latency: 0,
        },
        timeout: Some(64),
        max_retries: 2,
        backoff: 16,
        seed: seed ^ 0x10_55,
    }
}

/// Runs a seed-pinned flash crowd against a 24-node topology under the
/// given admission policy, optionally composed with a churn storm, and
/// returns the final metrics after full quiescence.
fn run_overloaded(seed: u64, policy: AdmissionPolicy, churn: bool) -> locality_sim::NetworkMetrics {
    let n = 24usize;
    let g = generators::random_connected(n, 10, &mut DetRng::seed_from_u64(seed));
    let k = Alg3.min_locality(n);
    let workload = WorkloadConfig::flash_crowd(seed ^ 0xF00D, 1000, 16, 30, 30);
    let sched = build_schedule(&workload, n);
    let mut b = NetworkBuilder::new(&g, k)
        .faults(fault_config(seed))
        .admission(overload_config(policy));
    if churn {
        let plan = FaultPlan::random_churn(
            &g,
            &ChurnConfig {
                horizon: workload.horizon(),
                ..ChurnConfig::default()
            },
            &mut DetRng::seed_from_u64(seed ^ 0xC4A0),
        );
        b = b.fault_plan(plan);
    }
    let mut net = b.build(Alg3);
    let sent = run_schedule(&mut net, &sched).expect("schedule injects cleanly");
    assert_eq!(sent, sched.len(), "every arrival is attempted");
    net.metrics()
}

#[test]
fn accounted_balances_across_policies_seeds_and_churn() {
    for seed in [3u64, 19, 71] {
        for policy in POLICIES {
            for churn in [false, true] {
                let m = run_overloaded(seed, policy, churn);
                assert!(
                    m.accounted(),
                    "fate buckets must balance: seed {seed} policy {policy:?} churn {churn}: {m:?}"
                );
                match policy {
                    AdmissionPolicy::Open => {
                        assert_eq!(m.rejected, 0, "open admission never rejects");
                        assert_eq!(m.shed, 0, "open admission never sheds");
                    }
                    AdmissionPolicy::RejectNew => {
                        assert!(
                            m.rejected > 0,
                            "a 16x flash crowd against max_live 8 must reject: {m:?}"
                        );
                        assert_eq!(m.shed, 0, "reject-new never sheds admitted traffic");
                    }
                    AdmissionPolicy::ShedOldest => {
                        assert!(
                            m.shed > 0,
                            "a 16x flash crowd against max_live 8 must shed: {m:?}"
                        );
                        assert_eq!(m.rejected, 0, "shed-oldest admits everything");
                    }
                }
            }
        }
    }
}

#[test]
fn overloaded_runs_replay_byte_identically() {
    for policy in POLICIES {
        let a = format!("{:?}", run_overloaded(7, policy, true));
        let b = format!("{:?}", run_overloaded(7, policy, true));
        assert_eq!(a, b, "same seeds must replay byte-identically: {policy:?}");
    }
}

#[test]
fn same_seed_same_schedule_at_any_thread_count() {
    let cfgs: Vec<u64> = vec![5, 6, 7, 8, 9, 10, 11, 12];
    let build = |_idx: usize, &seed: &u64| {
        let cfg = WorkloadConfig::flash_crowd(seed, 2000, 24, 60, 60);
        build_schedule(&cfg, 48).arrivals
    };
    let serial = driver::run_trials(&cfgs, 1, build);
    let fanned = driver::run_trials(&cfgs, 8, build);
    assert_eq!(serial, fanned, "schedules must not depend on thread count");
    // And the seed actually matters: different seeds differ.
    for i in 1..serial.len() {
        assert_ne!(serial[0], serial[i], "seed {} collides", cfgs[i]);
    }
}

#[test]
fn arrival_schedules_stay_inside_phase_bounds() {
    let cfg = WorkloadConfig::flash_crowd(41, 500, 8, 40, 20);
    let sched = build_schedule(&cfg, 32);
    assert!(!sched.is_empty());
    for a in &sched.arrivals {
        assert!(a.tick < cfg.horizon(), "arrival past the last phase");
        assert_ne!(a.src, a.dst, "no self-traffic");
        assert!(a.src < NodeId(32) && a.dst < NodeId(32));
    }
}
