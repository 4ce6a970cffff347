//! The result a workload hands back to `main`, and its JSON rendering.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (messages sent, or matrix pairs routed).
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Per-layer metrics this workload does not measure, with the
    /// reason; each reads 0 in [`Report::layers`].
    pub absent: Vec<(&'static str, &'static str)>,
    /// Outcome-check failures; empty when every check passed.
    pub violations: Vec<String>,
    /// Deterministic outcome digest, equal across runs of one seed.
    pub fingerprint: u64,
}

impl Report {
    /// Appends an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Appends the median of `samples` as an end-to-end metric and
    /// prints the samples to standard error.
    pub fn sampled(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let shown: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        eprintln!("perfbench: {name} samples [{}]", shown.join(", "));
        self.e2e(name, crate::util::median(samples), unit);
    }

    /// Appends `hops_per_s` and `trials_per_s` from a run's totals: the
    /// work measured over the seconds it took. The host's speed shifts
    /// for seconds at a time; the ratio of totals weighs each stretch by
    /// its length, where a median of per-trial rates would pick one.
    pub fn rates(&mut self, hops: f64, trials: f64, secs: f64) {
        eprintln!("perfbench: rates over {secs:.4} s: {hops} hops, {trials} trials");
        self.e2e("hops_per_s", hops / secs, "hops/s");
        self.e2e("trials_per_s", trials / secs, "trials/s");
    }

    /// Appends a per-layer metric unless one of that name is already
    /// there: the workload's own measurement comes first, and the probes
    /// only fill in what it did not cover.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if self.layers.iter().all(|m| m.name != name) {
            self.layers.push(Metric { name, value, unit });
        }
    }

    /// Marks per-layer metric `name` absent for `reason`, unless it was
    /// measured: the result line must name every per-layer metric, so an
    /// absent one reads 0 there and its reason goes to standard error.
    pub fn absent(&mut self, name: &'static str, unit: &'static str, reason: &'static str) {
        if self.get(name).is_none() {
            self.layer(name, 0.0, unit);
            self.absent.push((name, reason));
        }
    }

    /// Records a failed outcome check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Looks a metric up by name in either list.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of `which`.
    pub fn json(&self, which: &[Metric]) -> String {
        let metrics: Vec<String> = which
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit `f64` prints (non-finite
/// values, which JSON cannot carry, become `0`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
