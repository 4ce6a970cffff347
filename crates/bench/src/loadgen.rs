//! Capacity sweep and graceful-degradation harness.
//!
//! Drives the chaos soak topology (48 nodes, Algorithm 3 at its
//! threshold locality) with deterministic open-loop workloads from
//! [`locality_sim::workload`], under the *same* seeded fault storm as
//! [`crate::chaos`], and reports the first capacity-curve numbers of
//! the repo: offered rate vs delivery ratio vs tail latency vs shed
//! ratio, with and without churn.
//!
//! Three entry points, all pure functions of `(seed, threads)` except
//! for the wall-clock capacity probe:
//!
//! * [`sweep`] — the capacity curve (rate × churn matrix), one line of
//!   JSON, byte-identical at any worker count;
//! * [`check`] — the graceful-degradation gate: under a seed-pinned
//!   flash crowd at ≥ 2× the capacity knee composed with the chaos
//!   fault plan, conservation must hold exactly (including `Rejected`
//!   and `Shed`), admitted-traffic delivery ratio must stay within 1%
//!   of the unloaded baseline, and witnesses from the churn-free
//!   overload replay within the paper's dilation bounds;
//! * [`sustained_qps_at_slo`] — wall-clock queries/sec/core at the
//!   highest swept rate that meets the SLO under churn (the perfsmoke
//!   capacity number).

use local_routing::{Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_sim::workload::{build_schedule, run_schedule, ArrivalSchedule, WorkloadConfig};
use locality_sim::{
    driver, replay, AdmissionConfig, AdmissionPolicy, FaultPlan, Level, Network, NetworkBuilder,
    NetworkMetrics, Recorder,
};

use crate::chaos;

/// In-flight high-water mark that trips the admission controller.
pub const MAX_LIVE: usize = 128;
/// The SLO: delivered p99 latency, in ticks. Under the chaos fault
/// config a lost transmission recovers within two timeout cycles
/// (192 + 192 + backoff ≈ 440 ticks), so this envelope is meetable
/// under churn while anything that queues past one extra retry round
/// blows it.
pub const SLO_P99_TICKS: u64 = 480;
/// Admitted-traffic delivery ratio the SLO demands.
pub const SLO_DELIVERY: f64 = 0.97;
/// Baseline offered rate, in arrivals per 1000 ticks (2 per tick —
/// comfortably inside capacity).
pub const BASE_RATE_MILLI: u64 = 2_000;
/// Flash-crowd multiplier: 24× the baseline is 48 arrivals per tick,
/// at least 2× the measured capacity knee of the soak topology.
pub const SPIKE_MULT: u64 = 24;
/// Steady-state horizon of one sweep run, matching the chaos storm
/// horizon so link outages and crashes land inside the load.
const HORIZON: u64 = 180;
/// Workload-seed mixer (the fault plan keeps the chaos mixer, so a
/// loadgen storm at seed 7 is byte-for-byte the chaos seed-7 plan).
const TRAFFIC_MIX: u64 = 0x10AD;

/// One run's shape: offered load, storm on/off, admission policy.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Offered rate in arrivals per 1000 ticks.
    pub rate_milli: u64,
    /// Compose the chaos fault storm (plan + loss + retries)?
    pub churn: bool,
    /// Admission policy for the run.
    pub policy: AdmissionPolicy,
}

/// The swept offered rates, in arrivals per 1000 ticks.
pub fn sweep_rates() -> [u64; 6] {
    [2_000, 4_000, 8_000, 16_000, 32_000, 64_000]
}

fn admission_config(policy: AdmissionPolicy) -> AdmissionConfig {
    AdmissionConfig {
        policy,
        max_live: MAX_LIVE,
        ..Default::default()
    }
}

fn steady_workload(seed: u64, rate_milli: u64) -> WorkloadConfig {
    WorkloadConfig::new(seed ^ TRAFFIC_MIX).phase(locality_sim::workload::PhaseSpec::steady(
        "load", HORIZON, rate_milli,
    ))
}

fn flash_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig::flash_crowd(seed ^ TRAFFIC_MIX, BASE_RATE_MILLI, SPIKE_MULT, 60, 60)
}

/// Builds the network for one run and plays `cfg`'s schedule through
/// it to quiescence. Returns the metrics, the schedule, and the trace
/// bytes (empty unless `level` is set).
fn run_once(
    seed: u64,
    spec: RunSpec,
    cfg: &WorkloadConfig,
    level: Option<Level>,
) -> (NetworkMetrics, ArrivalSchedule, Vec<u8>, Vec<u64>) {
    let g = chaos::topology(seed);
    let k = Alg3.min_locality(g.node_count());
    let mut b = NetworkBuilder::new(&g, k).admission(admission_config(spec.policy));
    if spec.churn {
        let plan = FaultPlan::random_churn(
            &g,
            &chaos::churn_config(),
            &mut DetRng::seed_from_u64(seed ^ 0xFA417),
        );
        b = b.faults(chaos::fault_config(seed)).fault_plan(plan);
    }
    if let Some(level) = level {
        b = b.recorder(Recorder::new(level));
    }
    let mut net: Network = b.build(Alg3);
    let sched = build_schedule(cfg, g.node_count());
    run_schedule(&mut net, &sched).expect("schedule endpoints are in range");
    let m = net.metrics();
    assert!(
        m.accounted(),
        "loadgen: conservation broken at rate {} (churn {}): {m:?}",
        spec.rate_milli,
        spec.churn
    );
    let mut lats: Vec<u64> = net.records().iter().filter_map(|r| r.latency()).collect();
    lats.sort_unstable();
    let trace = net.finish_trace();
    (m, sched, trace, lats)
}

fn pct(lats: &[u64], p: usize) -> u64 {
    if lats.is_empty() {
        0
    } else {
        lats.get((lats.len() - 1) * p / 100).copied().unwrap_or(0)
    }
}

/// One capacity-curve row.
struct Row {
    rate_milli: u64,
    churn: bool,
    m: NetworkMetrics,
    p50: u64,
    p99: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"rate_milli\":{},\"churn\":{},\"sent\":{},\"admitted\":{},",
                "\"delivered\":{},\"delivery_ratio\":{:.4},",
                "\"admitted_delivery_ratio\":{:.4},\"shed_ratio\":{:.4},",
                "\"rejected\":{},\"shed\":{},\"latency_p50\":{},\"latency_p99\":{}}}"
            ),
            self.rate_milli,
            self.churn,
            self.m.sent,
            self.m.admitted(),
            self.m.delivered,
            self.m.delivery_ratio(),
            self.m.admitted_delivery_ratio(),
            self.m.shed_ratio(),
            self.m.rejected,
            self.m.shed,
            self.p50,
            self.p99,
        )
    }

    fn meets_slo(&self) -> bool {
        self.p99 <= SLO_P99_TICKS && self.m.admitted_delivery_ratio() >= SLO_DELIVERY
    }
}

fn sweep_rows(seed: u64, threads: usize) -> Vec<Row> {
    let specs: Vec<RunSpec> = sweep_rates()
        .iter()
        .flat_map(|&rate_milli| {
            [false, true].into_iter().map(move |churn| RunSpec {
                rate_milli,
                churn,
                policy: AdmissionPolicy::RejectNew,
            })
        })
        .collect();
    driver::run_trials(&specs, threads, |_, &spec| {
        let cfg = steady_workload(seed, spec.rate_milli);
        let (m, _, _, lats) = run_once(seed, spec, &cfg, None);
        Row {
            rate_milli: spec.rate_milli,
            churn: spec.churn,
            m,
            p50: pct(&lats, 50),
            p99: pct(&lats, 99),
        }
    })
}

/// The capacity curve: offered rate × churn matrix under the
/// reject-new policy, one line of JSON. A pure function of the seed —
/// `threads` only changes wall-clock time, which is exactly what the
/// verify gate's 1-vs-8-thread byte-compare checks.
pub fn sweep(seed: u64, threads: usize) -> String {
    let rows = sweep_rows(seed, threads);
    let rendered: Vec<String> = rows.iter().map(Row::json).collect();
    let g = chaos::topology(seed);
    format!(
        concat!(
            "{{\"bench\":\"loadgen\",\"seed\":{},\"n\":{},\"router\":\"algorithm-3\",",
            "\"k\":{},\"max_live\":{},\"slo_p99_ticks\":{},\"horizon\":{},",
            "\"rows\":[{}]}}"
        ),
        seed,
        g.node_count(),
        Alg3.min_locality(g.node_count()),
        MAX_LIVE,
        SLO_P99_TICKS,
        HORIZON,
        rendered.join(","),
    )
}

/// The graceful-degradation gate. Runs three deterministic trials —
/// unloaded baseline under the chaos storm, flash-crowd overload under
/// the same storm, and flash-crowd overload on the fault-free topology
/// — and checks every acceptance invariant:
///
/// 1. conservation holds exactly on the overloaded churn run,
///    including `Rejected`/`Shed`, at both the metrics and the trace
///    level;
/// 2. the controller actually bit (rejections occurred);
/// 3. admitted-traffic delivery ratio under overload is within 1% of
///    the unloaded baseline;
/// 4. witnesses of the churn-free overload replay against fresh
///    `G_k(u)` views within the paper's dilation bounds.
///
/// Returns one line of JSON on success (byte-identical at any
/// `threads`), or a description of the violated invariant.
///
/// # Errors
///
/// The first violated invariant, as text for the CLI to print.
pub fn check(seed: u64, threads: usize) -> Result<String, String> {
    let trials: [(&str, RunSpec); 3] = [
        (
            "baseline",
            RunSpec {
                rate_milli: BASE_RATE_MILLI,
                churn: true,
                policy: AdmissionPolicy::Open,
            },
        ),
        (
            "overload_churn",
            RunSpec {
                rate_milli: BASE_RATE_MILLI * SPIKE_MULT,
                churn: true,
                policy: AdmissionPolicy::RejectNew,
            },
        ),
        (
            "overload_clean",
            RunSpec {
                rate_milli: BASE_RATE_MILLI * SPIKE_MULT,
                churn: false,
                policy: AdmissionPolicy::RejectNew,
            },
        ),
    ];
    let mut results = driver::run_trials(&trials, threads, |_, &(name, spec)| {
        let cfg = match name {
            "baseline" => steady_workload(seed, BASE_RATE_MILLI),
            _ => flash_workload(seed),
        };
        let level = (name != "baseline").then_some(Level::Hops);
        let (m, _, trace, _) = run_once(seed, spec, &cfg, level);
        (m, trace)
    });
    let (_clean_m, clean_trace) = results.pop().expect("three trials ran");
    let (storm_m, storm_trace) = results.pop().expect("three trials ran");
    let (base_m, _) = results.pop().expect("three trials ran");

    if storm_m.rejected == 0 {
        return Err(format!(
            "overload storm never tripped admission (sent {}, peak load too low?)",
            storm_m.sent
        ));
    }
    let storm_text = String::from_utf8(storm_trace).map_err(|e| e.to_string())?;
    let events = locality_obs::parse_trace(&storm_text).map_err(|e| e.to_string())?;
    let witnesses = locality_obs::collect_witnesses(&events);
    replay::check_conservation(&witnesses, &storm_m)
        .map_err(|e| format!("overload conservation: {e}"))?;

    let base_ratio = base_m.delivery_ratio();
    let admitted_ratio = storm_m.admitted_delivery_ratio();
    let degradation = (base_ratio - admitted_ratio).abs();
    if degradation > 0.01 {
        return Err(format!(
            "admitted delivery ratio degraded {degradation:.4} under overload \
             (baseline {base_ratio:.4}, overload {admitted_ratio:.4})"
        ));
    }

    let clean_text = String::from_utf8(clean_trace).map_err(|e| e.to_string())?;
    let clean_events = locality_obs::parse_trace(&clean_text).map_err(|e| e.to_string())?;
    let clean_witnesses = locality_obs::collect_witnesses(&clean_events);
    let g = chaos::topology(seed);
    let k = Alg3.min_locality(g.node_count());
    let report = replay::verify_witnesses(&g, k, &Alg3, &clean_witnesses)
        .map_err(|e| format!("overload witness replay: {e}"))?;

    Ok(format!(
        concat!(
            "{{\"bench\":\"loadgen_check\",\"seed\":{},",
            "\"baseline_delivery_ratio\":{:.4},",
            "\"overload_admitted_delivery_ratio\":{:.4},",
            "\"degradation_abs\":{:.4},\"rejected\":{},\"shed\":{},",
            "\"overload_sent\":{},\"conservation\":\"exact\",",
            "\"replayed_messages\":{},\"replayed_hops\":{},",
            "\"worst_stretch\":[{},{}]}}"
        ),
        seed,
        base_ratio,
        admitted_ratio,
        degradation,
        storm_m.rejected,
        storm_m.shed,
        storm_m.sent,
        report.messages,
        report.hops_checked,
        report.worst_stretch.0,
        report.worst_stretch.1,
    ))
}

/// Wall-clock capacity at the SLO: picks the highest swept rate whose
/// churn row meets the SLO (p99 ≤ [`SLO_P99_TICKS`], admitted delivery
/// ≥ [`SLO_DELIVERY`]), then times that run end to end on one core
/// five times and converts the median run to queries per second (one
/// run lasts 10–25 ms, so a single sample scatters with host load).
/// Returns `(qps_per_core, capacity_rate_milli, p99_at_capacity)`.
pub fn sustained_qps_at_slo(seed: u64) -> (f64, u64, u64) {
    const REPS: usize = 5;
    let rows = sweep_rows(seed, driver::default_threads());
    let capacity = rows
        .iter()
        .filter(|r| r.churn && r.meets_slo())
        .map(|r| r.rate_milli)
        .max()
        .unwrap_or(BASE_RATE_MILLI);
    let p99 = rows
        .iter()
        .find(|r| r.churn && r.rate_milli == capacity)
        .map_or(0, |r| r.p99);
    let spec = RunSpec {
        rate_milli: capacity,
        churn: true,
        policy: AdmissionPolicy::RejectNew,
    };
    let cfg = steady_workload(seed, capacity);
    // (elapsed ns, delivered) per run; `delivered` is the same every run.
    let mut runs: Vec<(u64, usize)> = (0..REPS)
        .map(|_| {
            let (delivered, ns) =
                crate::timing::time_once_ns(|| run_once(seed, spec, &cfg, None).0.delivered);
            (ns, delivered)
        })
        .collect();
    runs.sort_unstable();
    let (median_ns, delivered) = runs.get(REPS / 2).copied().unwrap_or((0, 0));
    let qps = delivered as f64 * 1e9 / median_ns.max(1) as f64;
    (qps, capacity, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_thread_invariant() {
        assert_eq!(sweep(7, 1), sweep(7, 4));
    }

    #[test]
    fn sweep_shows_the_capacity_knee() {
        let rows = sweep_rows(7, driver::default_threads());
        let low = rows
            .iter()
            .find(|r| !r.churn && r.rate_milli == 2_000)
            .unwrap();
        let high = rows
            .iter()
            .find(|r| r.churn && r.rate_milli == 64_000)
            .unwrap();
        assert_eq!(low.m.rejected, 0, "low rate must be inside capacity");
        assert!(low.meets_slo());
        assert!(high.m.rejected > 0, "top rate must overload: {:?}", high.m);
        assert!(
            high.m.admitted_delivery_ratio() >= SLO_DELIVERY,
            "admitted traffic must keep its delivery ratio"
        );
        assert!(
            high.meets_slo(),
            "admission must hold the SLO even at the top swept rate: p99 {}",
            high.p99
        );
    }

    #[test]
    fn degradation_check_passes_and_is_thread_invariant() {
        let a = check(7, 1).expect("degradation invariant holds at seed 7");
        let b = check(7, 4).expect("degradation invariant holds at seed 7");
        assert_eq!(a, b);
        assert!(a.contains("\"conservation\":\"exact\""));
    }
}
