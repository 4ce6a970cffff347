//! Deterministic outcome of one simulated trial, read back through
//! `Network::{metrics, records}` after the traffic has drained.

use locality_graph::NodeId;
use locality_sim::{Network, NetworkMetrics};

use crate::util::{fnv_mix, percentile, FNV_BASIS};

/// Everything the checks and the deterministic metrics need.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The simulator's own fate tallies.
    pub metrics: NetworkMetrics,
    /// FNV-1a over every record's (fate, hops, delivery tick, retries),
    /// in injection order.
    pub fingerprint: u64,
    /// Final-attempt hops summed over every message.
    pub hops: u64,
    /// Sorted end-to-end latencies (ticks) of delivered messages.
    pub latencies: Vec<u64>,
    /// Sorted dilations: final-attempt route length over shortest
    /// distance in the original topology, for delivered messages with
    /// `s != t`.
    pub dilations: Vec<f64>,
}

impl SimOutcome {
    /// Reads the outcome of `net`; `dist(s, t)` is the shortest-path
    /// distance in the topology the trial started from.
    pub fn read(net: &Network, dist: impl Fn(NodeId, NodeId) -> u32) -> SimOutcome {
        let mut fingerprint = FNV_BASIS;
        let mut hops = 0u64;
        let mut latencies = Vec::new();
        let mut dilations = Vec::new();
        for r in net.records() {
            fnv_mix(&mut fingerprint, r.fate.tag().len() as u64);
            fnv_mix(&mut fingerprint, r.fate.tag().as_bytes()[0] as u64);
            fnv_mix(&mut fingerprint, r.hops() as u64);
            fnv_mix(&mut fingerprint, r.delivered_at.unwrap_or(u64::MAX));
            fnv_mix(&mut fingerprint, u64::from(r.retries));
            hops += r.hops() as u64;
            if let Some(l) = r.latency() {
                latencies.push(l);
            }
            if r.delivered() && r.s != r.t {
                let d = dist(r.s, r.t);
                if d > 0 {
                    dilations.push(r.hops() as f64 / f64::from(d));
                }
            }
        }
        latencies.sort_unstable();
        dilations.sort_by(f64::total_cmp);
        SimOutcome {
            metrics: net.metrics(),
            fingerprint,
            hops,
            latencies,
            dilations,
        }
    }

    /// The largest dilation (`0` when nothing was delivered).
    pub fn max_dilation(&self) -> f64 {
        self.dilations.last().copied().unwrap_or(0.0)
    }

    /// 99th-percentile delivered latency in ticks.
    pub fn p99(&self) -> u64 {
        percentile(&self.latencies, 99)
    }
}
