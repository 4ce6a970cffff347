//! `soak-trace`: a seed-derived batch of chaos trials fanned over
//! `driver::run_trials`. Each trial boots the 48-node chaos topology
//! under Algorithm 3 at its threshold, plays a 24× flash crowd through
//! `RejectNew` admission under the chaos churn storm with a
//! `Level::Hops` recorder, then runs tracecat's `stats` and `loops`
//! modes over the trial's trace.
//!
//! The batch repeats until the run has measured for its time budget;
//! every repetition must reproduce the first one's per-trial outcomes.

use std::time::Instant;

use local_routing::{Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, traversal, Graph};
use locality_obs::analytics::loops::LoopsMode;
use locality_obs::analytics::stats::StatsMode;
use locality_obs::analytics::DEFAULT_BUF_BYTES;
use locality_obs::{run_mode, Mode, RouteWitness, StreamReport, TailMode};
use locality_sim::workload::{build_schedule, run_schedule, ArrivalSchedule, WorkloadConfig};
use locality_sim::{
    driver, AdmissionConfig, AdmissionPolicy, ChurnConfig, DeadLinkPolicy, FaultConfig, FaultPlan,
    Level, LinkProfile, NetworkBuilder, Recorder,
};

use crate::layers::{self, Work};
use crate::outcome::SimOutcome;
use crate::report::Report;
use crate::util::{derive, fnv_mix, percentile, FNV_BASIS};
use crate::{alloc, spans};

/// Nodes of the chaos topology.
pub const N: usize = 48;
const EXTRA_EDGES: usize = 20;
/// In-flight high-water mark that trips admission.
const MAX_LIVE: usize = 128;
/// Baseline offered rate, arrivals per 1000 ticks.
const BASE_RATE_MILLI: u64 = 2_000;
/// Flash-crowd multiplier over the baseline.
const SPIKE_MULT: u64 = 24;

/// Size of one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakCfg {
    /// Trials per batch.
    pub trials: usize,
    /// Worker threads for `driver::run_trials`.
    pub workers: usize,
    /// Fewest batches a run makes, whatever its time budget.
    pub min_batches: usize,
}

impl SoakCfg {
    /// The benchmark size.
    pub fn full() -> SoakCfg {
        SoakCfg {
            trials: 64,
            workers: 1,
            min_batches: 3,
        }
    }

    /// A toy size for the benchmark's own tests.
    pub fn toy() -> SoakCfg {
        SoakCfg {
            trials: 3,
            workers: 2,
            min_batches: 2,
        }
    }
}

/// The chaos topology of one trial.
pub fn topology(trial_seed: u64) -> Graph {
    generators::random_connected(N, EXTRA_EDGES, &mut DetRng::seed_from_u64(trial_seed))
}

fn churn_config() -> ChurnConfig {
    ChurnConfig {
        horizon: 180,
        link_events: 10,
        crash_events: 3,
        min_outage: 8,
        max_outage: 30,
    }
}

fn fault_config(seed: u64) -> FaultConfig {
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
        ..Default::default()
    }
}

/// Builder for one trial's network: churn storm, reject-new admission,
/// hop-level recorder.
pub fn builder(g: &Graph, trial_seed: u64) -> NetworkBuilder {
    let k = Alg3.min_locality(N);
    NetworkBuilder::new(g, k)
        .shards(1)
        .admission(AdmissionConfig {
            policy: AdmissionPolicy::RejectNew,
            max_live: MAX_LIVE,
            ..Default::default()
        })
        .faults(fault_config(trial_seed))
        .fault_plan(FaultPlan::random_churn(
            g,
            &churn_config(),
            &mut DetRng::seed_from_u64(derive(trial_seed, 0xFA417)),
        ))
        .recorder(Recorder::new(Level::Hops))
}

/// The trial's flash-crowd schedule.
fn schedule(trial_seed: u64) -> ArrivalSchedule {
    let cfg = WorkloadConfig::flash_crowd(
        derive(trial_seed, 0x10AD),
        BASE_RATE_MILLI,
        SPIKE_MULT,
        60,
        60,
    );
    build_schedule(&cfg, N)
}

/// Forwards to a tracecat mode and tallies witnesses by fate.
struct Tally<M> {
    inner: M,
    witnesses: u64,
    admission_fates: u64,
}

impl<M: Mode> Mode for Tally<M> {
    fn on_trial(&mut self, t: &locality_obs::analytics::TrialHeader) {
        self.inner.on_trial(t);
    }

    fn on_event(&mut self, line: usize, ev: &locality_obs::Json) {
        self.inner.on_event(line, ev);
    }

    fn on_witness(&mut self, w: &RouteWitness) {
        self.witnesses += 1;
        if matches!(w.fate.as_deref(), Some("rejected" | "shed")) {
            self.admission_fates += 1;
        }
        self.inner.on_witness(w);
    }

    fn render(&self, report: &StreamReport) -> String {
        self.inner.render(report)
    }
}

/// Runs one tracecat mode over `trace`; returns (witnesses, witnesses
/// the admission controller refused or shed).
fn analyse<M: Mode>(trace: &[u8], mode: M) -> Result<(u64, u64), String> {
    let mut t = Tally {
        inner: mode,
        witnesses: 0,
        admission_fates: 0,
    };
    let report = run_mode(trace, DEFAULT_BUF_BYTES, TailMode::Strict, &mut t)
        .map_err(|e| format!("tracecat: {e}"))?;
    std::hint::black_box(t.render(&report));
    Ok((t.witnesses, t.admission_fates))
}

/// tracecat `stats` then `loops` over one trace, each in its span.
/// Returns the witness tallies, which both modes must agree on.
pub fn analyse_both(trace: &[u8], id: u32) -> Result<(u64, u64), String> {
    let stats = {
        let _s = spans::enter("analytics.stats", id);
        analyse(trace, StatsMode::new())?
    };
    let loops = {
        let _s = spans::enter("analytics.loops", id);
        analyse(trace, LoopsMode::new())?
    };
    if stats != loops {
        return Err(format!("stats saw {stats:?} witnesses, loops {loops:?}"));
    }
    Ok(stats)
}

/// What one trial produced.
#[derive(Clone, Debug)]
pub struct TrialOut {
    /// Simulated outcome.
    pub out: SimOutcome,
    /// Wall time of `NetworkBuilder::build`, seconds.
    pub build_s: f64,
    /// Trace size in bytes.
    pub trace_bytes: usize,
    /// Outcome-check failures.
    pub violations: Vec<String>,
}

/// Runs one trial end to end: build, play, record, analyse, check.
pub fn trial<R: LocalRouter + Send + Sync + 'static>(
    trial_seed: u64,
    router: R,
    id: u32,
    parent: Option<u32>,
) -> TrialOut {
    let _t = spans::enter_under(parent, "driver.trial", id);
    let g = topology(trial_seed);
    let b = builder(&g, trial_seed);
    let sched = schedule(trial_seed);
    let t0 = Instant::now();
    let mut net = {
        let _s = spans::enter("sim.build", id);
        b.build(router)
    };
    let build_s = t0.elapsed().as_secs_f64();
    let played = {
        let _s = spans::enter("sim.run", id);
        run_schedule(&mut net, &sched)
    };
    let out = SimOutcome::read(&net, |s, t| traversal::distance(&g, s, t).unwrap_or(0));
    let trace = {
        let _s = spans::enter("obs.finish_trace", id);
        net.finish_trace()
    };
    let mut violations = Vec::new();
    if let Err(e) = played {
        violations.push(format!("trial {id}: schedule refused: {e}"));
    }
    let m = &out.metrics;
    if !m.accounted() {
        violations.push(format!("trial {id}: conservation broken: {m:?}"));
    }
    match analyse_both(&trace, id) {
        Ok((w, refused)) => {
            if w != m.sent as u64 || w - refused != m.admitted() as u64 {
                violations.push(format!(
                    "trial {id}: tracecat saw {w} witnesses ({} admitted), network sent {} ({} admitted)",
                    w - refused,
                    m.sent,
                    m.admitted()
                ));
            }
        }
        Err(e) => violations.push(format!("trial {id}: {e}")),
    }
    TrialOut {
        out,
        build_s,
        trace_bytes: trace.len(),
        violations,
    }
}

/// Seeds of the run's trials.
pub fn trial_seeds(cfg: &SoakCfg, seed: u64) -> Vec<u64> {
    (0..cfg.trials as u64)
        .map(|i| derive(seed, 0x50A4 + i))
        .collect()
}

/// Runs the soak workload. One operation is one trial: it fails if any
/// of its outcome checks fails. Messages refused by admission are the
/// designed response to the flash crowd; they count against
/// `delivery_ratio`, not as failed operations.
pub fn run<R: LocalRouter + Clone + Send + Sync + 'static>(
    cfg: &SoakCfg,
    seed: u64,
    seconds: f64,
    router: R,
) -> Report {
    let seeds = trial_seeds(cfg, seed);
    let mut rep = Report::default();
    let mut first: Option<Vec<TrialOut>> = None;
    let mut builds = Vec::new();
    let (mut trials, mut hops, mut secs, mut batches) = (0usize, 0u64, 0.0f64, 0usize);
    let mut work = Work {
        workers: cfg.workers as u64,
        ..Work::default()
    };
    let mark = spans::mark();
    let start = Instant::now();
    let mut batch = 0u32;
    while batches < cfg.min_batches || start.elapsed().as_secs_f64() < seconds {
        batch += 1;
        let b = spans::enter("driver.batch", batch);
        let parent = b.id();
        let t0 = Instant::now();
        let outs = driver::run_trials(&seeds, cfg.workers, |i, &s| {
            trial(s, router.clone(), batch * 1000 + i as u32, parent)
        });
        let wall = t0.elapsed().as_secs_f64();
        drop(b);
        let batch_hops: u64 = outs.iter().map(|t| t.out.hops).sum();
        batches += 1;
        trials += outs.len();
        hops += batch_hops;
        secs += wall;
        builds.extend(outs.iter().map(|t| t.build_s));
        work.hops += batch_hops;
        work.nodes_built += (N * outs.len()) as u64;
        work.trace_bytes += outs.iter().map(|t| t.trace_bytes as u64).sum::<u64>();
        rep.attempted += outs.len() as u64;
        for t in &outs {
            rep.failed += u64::from(!t.violations.is_empty());
            rep.violations.extend(t.violations.iter().cloned());
        }
        if let Some(f) = &first {
            for (i, (a, b)) in f.iter().zip(&outs).enumerate() {
                rep.check(a.out.fingerprint == b.out.fingerprint, || {
                    format!("batch {batch}: trial {i} fingerprint changed")
                });
            }
        } else {
            first = Some(outs);
        }
    }
    let outs = first.expect("at least one batch ran");
    let sent: usize = outs.iter().map(|t| t.out.metrics.sent).sum();
    let delivered: usize = outs.iter().map(|t| t.out.metrics.delivered).sum();
    rep.fingerprint = outs.iter().fold(FNV_BASIS, |mut fp, t| {
        fnv_mix(&mut fp, t.out.fingerprint);
        fp
    });
    rep.sampled("setup_s", &builds, "s");
    rep.rates(hops as f64, trials as f64, secs);
    rep.e2e("delivery_ratio", delivered as f64 / sent as f64, "fraction");
    // Under churn the single worst route moves with the seed; the 99th
    // percentile over the batch's deliveries does not.
    let mut dil: Vec<f64> = outs
        .iter()
        .flat_map(|t| t.out.dilations.iter().copied())
        .collect();
    dil.sort_by(f64::total_cmp);
    rep.e2e("max_dilation", percentile(&dil, 99), "ratio");
    if spans::enabled() {
        layers::from_spans(&mut rep, &spans::since(mark), work);
        traced_extras(&mut rep, &outs, &seeds, router);
    }
    rep
}

/// The soak run's traced-only measurements: fate counts, per-message
/// bytes, and the probes for the layers its trials do not reach.
fn traced_extras<R: LocalRouter + Clone + Send + Sync + 'static>(
    rep: &mut Report,
    outs: &[TrialOut],
    seeds: &[u64],
    router: R,
) {
    let sum = |f: fn(&SimOutcome) -> usize| outs.iter().map(|t| f(&t.out)).sum::<usize>() as f64;
    rep.layer("sim.retries", sum(|o| o.metrics.retries as usize), "count");
    rep.layer(
        "sim.faults_applied",
        sum(|o| o.metrics.faults_applied),
        "count",
    );
    rep.layer("admission.rejected", sum(|o| o.metrics.rejected), "count");
    rep.layer("admission.shed", sum(|o| o.metrics.shed), "count");
    let mut lats: Vec<u64> = outs
        .iter()
        .flat_map(|t| t.out.latencies.iter().copied())
        .collect();
    lats.sort_unstable();
    rep.layer("latency_p99_ticks", percentile(&lats, 99) as f64, "ticks");

    // Per-message bytes need a serial trial: the batch's two workers
    // allocate concurrently.
    let g = topology(seeds[0]);
    let sched = schedule(seeds[0]);
    let mut net = builder(&g, seeds[0]).build(router.clone());
    let live0 = alloc::live_bytes();
    if let Err(e) = run_schedule(&mut net, &sched) {
        rep.violations
            .push(format!("serial trial: schedule refused: {e}"));
    }
    let per = (alloc::live_bytes() - live0) as f64 / net.metrics().sent.max(1) as f64;
    rep.layer("sim.msg_kib", per / 1024.0, "KiB");
    drop(net);

    let k = Alg3.min_locality(N);
    let sample = layers::spread(&g, N);
    layers::views(rep, &g, k, &sample);
    layers::oracle(rep, &g, k, &sample, None);
    layers::engine_probe(rep, &g, k, &Alg3);
    layers::overhead(rep, |traced| {
        let t = Instant::now();
        if traced {
            std::hint::black_box(trial(seeds[0], router.clone(), 0, None));
        } else {
            std::hint::black_box(trial(seeds[0], Alg3, 0, None));
        }
        t.elapsed().as_secs_f64()
    });
}
