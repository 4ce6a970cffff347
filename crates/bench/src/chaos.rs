//! Chaos soak: delivery under deterministic churn.
//!
//! Runs every router of the paper (Algorithms 1, 1B, 2, 3) plus the
//! baselines through the same seeded fault storm — link outages, node
//! crash/restart cycles, lossy links, stale views, and source-side
//! retries — and builds one line of JSON with delivery ratio, latency
//! percentiles, retry counts, and the full fate histogram per router,
//! plus a delivery-vs-`k` sweep for Algorithm 3 that feeds the churn
//! table in `EXPERIMENTS.md`.
//!
//! Everything is derived from one `u64` seed: the topology, the fault
//! plan, the traffic, and every loss draw. Two calls with the same
//! seed return byte-identical JSON — `scripts/verify.sh` checks
//! exactly that via `bin/chaos`, and `tests/sim_scheduler_parity.rs`
//! pins the seed-7 output to a committed golden.

use std::collections::BTreeMap;
use std::sync::Arc;

use local_routing::baselines::{LowestRankForward, RightHandRule};
use local_routing::{Alg1, Alg1B, Alg2, Alg3, LocalRouter, ViewArtifact};
use locality_graph::rng::DetRng;
use locality_graph::{generators, Graph, NodeId};
use locality_sim::{
    driver, ChurnConfig, DeadLinkPolicy, FaultConfig, FaultPlan, Level, LinkProfile,
    NetworkBuilder, NetworkMetrics, Provisioner, Recorder, SimError,
};

const N: usize = 48;
const EXTRA_EDGES: usize = 20;
const ROUNDS: usize = 6;
const BATCH: usize = 24;
const ROUND_GAP: u64 = 30;

pub(crate) fn churn_config() -> ChurnConfig {
    ChurnConfig {
        horizon: (ROUNDS as u64) * ROUND_GAP,
        link_events: 10,
        crash_events: 3,
        min_outage: 8,
        max_outage: 30,
    }
}

pub(crate) fn fault_config(seed: u64) -> FaultConfig {
    FaultConfig {
        dead_link: DeadLinkPolicy::Drop,
        view_delay: 2,
        default_link: LinkProfile {
            loss: 0.03,
            extra_latency: 0,
        },
        timeout: Some(4 * N as u64),
        max_retries: 3,
        backoff: N as u64,
        seed,
    }
}

struct SoakReport {
    name: &'static str,
    k: u32,
    m: NetworkMetrics,
    p50: u64,
    p99: u64,
    trace: Vec<u8>,
}

impl SoakReport {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"router\":\"{}\",\"k\":{},\"sent\":{},\"delivery_ratio\":{:.4},",
                "\"latency_p50\":{},\"latency_p99\":{},\"retries\":{},",
                "\"fates\":{{\"delivered\":{},\"looped\":{},\"errored\":{},",
                "\"exhausted\":{},\"dropped\":{},\"timed_out\":{},\"gave_up\":{},",
                "\"in_flight\":{}}},\"faults_applied\":{},\"faults_skipped\":{}}}"
            ),
            self.name,
            self.k,
            self.m.sent,
            self.m.delivery_ratio(),
            self.p50,
            self.p99,
            self.m.retries,
            self.m.delivered,
            self.m.looped,
            self.m.errored,
            self.m.exhausted,
            self.m.dropped,
            self.m.timed_out,
            self.m.gave_up,
            self.m.in_flight,
            self.m.faults_applied,
            self.m.faults_skipped,
        )
    }
}

/// Drives one router through the storm: the same seeded fault plan and
/// the same seeded traffic for every caller, so reports are comparable
/// across routers.
fn soak(
    g: &Graph,
    k: u32,
    router: Box<dyn LocalRouter + Send + Sync>,
    name: &'static str,
    seed: u64,
    trace: Option<Level>,
    artifact: Option<Arc<ViewArtifact>>,
) -> SoakReport {
    let plan = FaultPlan::random_churn(
        g,
        &churn_config(),
        &mut DetRng::seed_from_u64(seed ^ 0xFA417),
    );
    let mut b = NetworkBuilder::new(g, k)
        .faults(fault_config(seed))
        .fault_plan(plan);
    if let Some(level) = trace {
        b = b.recorder(Recorder::new(level));
    }
    if let Some(a) = artifact {
        // The entry points validated the artifact against (g, k), so
        // sim's panicking build is unreachable-on-error here.
        b = b.provisioner(Provisioner::Oracle(a));
    }
    let mut net = b.build(router);
    let mut traffic = DetRng::seed_from_u64(seed ^ 0xC0FFEE);
    let n = g.node_count() as u32;
    for _ in 0..ROUNDS {
        for _ in 0..BATCH {
            let s = NodeId(traffic.gen_range(0..n));
            let t = NodeId(traffic.gen_range(0..n));
            if s != t {
                net.send(s, t);
            }
        }
        net.run_until(net.now() + ROUND_GAP);
    }
    net.run_until_quiet();
    let m = net.metrics();
    assert!(
        m.accounted(),
        "{name}: metrics lose messages: {m:?} (sum != sent)"
    );
    let mut lats: Vec<u64> = net.records().iter().filter_map(|r| r.latency()).collect();
    lats.sort_unstable();
    let (p50, p99) = if lats.is_empty() {
        (0, 0)
    } else {
        (
            lats.get((lats.len() - 1) / 2).copied().unwrap_or(0),
            lats.get((lats.len() - 1) * 99 / 100).copied().unwrap_or(0),
        )
    };
    let trace = net.finish_trace();
    SoakReport {
        name,
        k,
        m,
        p50,
        p99,
        trace,
    }
}

/// Fresh boxed router for a trial worker, by report name.
fn router_by_name(name: &str) -> Box<dyn LocalRouter + Send + Sync> {
    match name {
        "algorithm-1" => Box::new(Alg1),
        "algorithm-1b" => Box::new(Alg1B),
        "algorithm-2" => Box::new(Alg2),
        "right-hand-rule" => Box::new(RightHandRule),
        "lowest-rank-forward" => Box::new(LowestRankForward),
        _ => Box::new(Alg3),
    }
}

/// The full chaos soak for one seed: six router storms plus the
/// Algorithm 3 delivery-vs-`k` sweep, rendered as one line of JSON.
/// Pure function of the seed — byte-identical on every call.
///
/// Every storm is independent (same graph, same seeds, different
/// router or `k`), so the eleven trials fan out through
/// [`driver::run_trials`], whose in-order merge keeps the JSON
/// byte-identical at any worker count.
pub fn report(seed: u64) -> String {
    report_with_trace(seed, None).0
}

/// [`report`] plus an optional JSONL trace of every storm.
///
/// When `trace` is set, each of the eleven trials runs with its own
/// [`Recorder`]; the returned bytes are the per-trial traces in trial
/// order, each preceded by a `{"ev":"trial",...}` header line. Because
/// recorders are per-trial and [`driver::run_trials`] merges in trial
/// order, the bytes are identical at any worker count — the trace
/// determinism test pins exactly that.
pub fn report_with_trace(seed: u64, trace: Option<Level>) -> (String, Vec<u8>) {
    report_with_trace_threads(seed, trace, driver::default_threads())
}

/// [`report_with_trace`] at an explicit worker count. Output is a pure
/// function of `(seed, trace)` — `threads` only changes wall-clock
/// time, and the trace-determinism test pins 1 vs N byte-identical.
pub fn report_with_trace_threads(
    seed: u64,
    trace: Option<Level>,
    threads: usize,
) -> (String, Vec<u8>) {
    run(seed, trace, threads, None)
}

/// The seed's soak topology — the graph `bin/oracle build
/// --chaos-seed` precomputes view artifacts for.
pub fn topology(seed: u64) -> Graph {
    generators::random_connected(N, EXTRA_EDGES, &mut DetRng::seed_from_u64(seed))
}

/// Every locality parameter the soak's eleven trials use, sorted and
/// deduped — the artifact set a fully oracle-provisioned soak needs.
pub fn trial_ks() -> Vec<u32> {
    let mut ks: Vec<u32> = trials().iter().map(|&(_, k, _)| k).collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// [`report`] with the networks provisioned from precomputed view
/// artifacts, keyed by `k`. A trial whose `k` has no artifact falls
/// back to BFS provisioning (`bin/chaos` refuses an incomplete
/// directory instead, so the verify gate always exercises the oracle
/// path). The output is byte-identical to [`report`] — that is the
/// whole point, and `scripts/verify.sh` diffs exactly that.
///
/// # Errors
///
/// Returns [`SimError::Oracle`] when any artifact does not match the
/// seed's topology, before any trial runs.
pub fn report_with_artifacts(
    seed: u64,
    artifacts: &BTreeMap<u32, Arc<ViewArtifact>>,
) -> Result<String, SimError> {
    let g = topology(seed);
    for a in artifacts.values() {
        a.ensure_matches(&g, a.k())?;
    }
    Ok(run(seed, None, driver::default_threads(), Some(artifacts)).0)
}

/// Appends one trial block to `out`: the `{"ev":"trial"}` header line
/// followed by the trial's recorder span. This exact header byte format
/// is what `tracecat`'s merge/split surgery recognizes — goldens and the
/// verify.sh byte-identity gates depend on it not changing.
fn push_trial_block(out: &mut Vec<u8>, name: &str, k: u32, trace: &[u8]) {
    out.extend_from_slice(
        format!("{{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"{name}\",\"k\":{k}}}\n")
            .as_bytes(),
    );
    out.extend_from_slice(trace);
}

/// The eleven (name, k, is_sweep_row) trials: six routers at their own
/// minimum locality, then Algorithm 3 below, at, and above its
/// threshold k = n/2.
fn trials() -> Vec<(&'static str, u32, bool)> {
    let mut trials: Vec<(&'static str, u32, bool)> = vec![
        ("algorithm-1", Alg1.min_locality(N), false),
        ("algorithm-1b", Alg1B.min_locality(N), false),
        ("algorithm-2", Alg2.min_locality(N), false),
        ("algorithm-3", Alg3.min_locality(N), false),
        ("right-hand-rule", RightHandRule.min_locality(N), false),
        (
            "lowest-rank-forward",
            LowestRankForward.min_locality(N),
            false,
        ),
    ];
    trials.extend(
        [6u32, 12, 18, 24, 30]
            .into_iter()
            .map(|k| ("algorithm-3", k, true)),
    );
    trials
}

fn run(
    seed: u64,
    trace: Option<Level>,
    threads: usize,
    artifacts: Option<&BTreeMap<u32, Arc<ViewArtifact>>>,
) -> (String, Vec<u8>) {
    let g = topology(seed);
    let trials = trials();

    let rendered = driver::run_trials(&trials, threads, |_, &(name, k, is_sweep)| {
        let artifact = artifacts.and_then(|m| m.get(&k)).cloned();
        let r = soak(&g, k, router_by_name(name), name, seed, trace, artifact);
        let json = if is_sweep {
            format!(
                "{{\"k\":{},\"delivery_ratio\":{:.4},\"delivered\":{},\"sent\":{},\"retries\":{}}}",
                k,
                r.m.delivery_ratio(),
                r.m.delivered,
                r.m.sent,
                r.m.retries,
            )
        } else {
            r.json()
        };
        (json, r.trace)
    });
    let mut bytes = Vec::new();
    if trace.is_some() {
        for ((name, k, _), (_, t)) in trials.iter().zip(&rendered) {
            push_trial_block(&mut bytes, name, *k, t);
        }
    }
    let rendered: Vec<String> = rendered.into_iter().map(|(json, _)| json).collect();
    let (body, sweep) = rendered.split_at(6);
    let json = format!(
        concat!(
            "{{\"bench\":\"chaos\",\"seed\":{},\"n\":{},\"graph\":\"random_connected\",",
            "\"loss\":0.03,\"view_delay\":2,\"timeout\":{},\"max_retries\":3,",
            "\"routers\":[{}],\"alg3_k_sweep\":[{}]}}"
        ),
        seed,
        N,
        4 * N,
        body.join(","),
        sweep.join(","),
    );
    (json, bytes)
}
