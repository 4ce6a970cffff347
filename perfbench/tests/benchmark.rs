//! The benchmark's own tests: toy-size workloads pass their checks, the
//! same seed yields the same inputs and outcomes, the metric lists match
//! `BENCHMARK.json`, and the span self-time arithmetic is right.

use perfbench::spans::{self, Span};
use perfbench::{layers, ring, soak, tight, util, E2E, WORKLOADS};

#[test]
fn each_workload_passes_its_checks_at_toy_size() {
    for w in WORKLOADS {
        let rep = perfbench::run_workload(w, true, 7, 0.0, false).expect("known workload");
        assert!(rep.violations.is_empty(), "{w}: {:?}", rep.violations);
        assert!(rep.attempted >= 1, "{w}: nothing attempted");
        assert_eq!(rep.failed, 0, "{w}: failed operations");
        let names: Vec<&str> = rep.end_to_end.iter().map(|m| m.name).collect();
        let mut want: Vec<&str> = E2E.to_vec();
        want.retain(|n| *n != "peak_rss_mb");
        assert_eq!(names, want, "{w}: end-to-end metric list");
        for m in &rep.end_to_end {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(perfbench::run_workload("ring-1m", true, 7, 0.0, false).is_none());
}

#[test]
fn same_seed_generates_identical_inputs() {
    let cfg = ring::RingCfg::toy();
    assert_eq!(ring::traffic(&cfg, 5), ring::traffic(&cfg, 5));
    assert_ne!(ring::traffic(&cfg, 5), ring::traffic(&cfg, 6));

    let tc = tight::TightCfg::toy();
    let edges = |seed| -> Vec<Vec<_>> {
        tight::families(&tc, seed)
            .iter()
            .map(|f| f.graph.edges().collect())
            .collect()
    };
    assert_eq!(edges(5), edges(5));
    assert_ne!(edges(5), edges(6));

    let sc = soak::SoakCfg::toy();
    assert_eq!(soak::trial_seeds(&sc, 5), soak::trial_seeds(&sc, 5));
    assert_ne!(soak::trial_seeds(&sc, 5), soak::trial_seeds(&sc, 6));
    let s = soak::trial_seeds(&sc, 5)[0];
    let a: Vec<_> = soak::topology(s).edges().collect();
    let b: Vec<_> = soak::topology(s).edges().collect();
    assert_eq!(a, b);
}

#[test]
fn same_seed_reproduces_the_outcome_fingerprint() {
    for w in ["ring-100k", "ring-100k-oracle", "soak-trace"] {
        let a = perfbench::run_workload(w, true, 3, 0.0, false).expect("known workload");
        let b = perfbench::run_workload(w, true, 3, 0.0, false).expect("known workload");
        assert_eq!(a.fingerprint, b.fingerprint, "{w}");
    }
    let bfs = perfbench::run_workload("ring-100k", true, 3, 0.0, false).expect("known");
    let oracle = perfbench::run_workload("ring-100k-oracle", true, 3, 0.0, false).expect("known");
    assert_eq!(
        bfs.fingerprint, oracle.fingerprint,
        "oracle boot changes routing"
    );
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // the package can be built outside the repository
    };
    let names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let mut want: Vec<&str> = WORKLOADS.to_vec();
    want.extend(E2E);
    want.extend(layers::NAMES);
    assert_eq!(names, want);
}

fn span(id: u32, parent: Option<u32>, start: u64, end: u64, decide_ns: u64) -> Span {
    Span {
        id,
        parent,
        trial: 1,
        name: if parent.is_none() { "sim.run" } else { "child" },
        start,
        end,
        decide_ns,
        decide_calls: u64::from(decide_ns > 0),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_and_decide() {
    let parent = span(1, None, 0, 100, 5);
    // [10, 30] and [20, 40] overlap (30 ns covered once); [90, 120]
    // sticks out of the parent (10 ns inside); [200, 300] lies outside.
    let kids = [
        span(2, Some(1), 10, 30, 0),
        span(3, Some(1), 20, 40, 0),
        span(4, Some(1), 90, 120, 0),
        span(5, Some(1), 200, 300, 0),
    ];
    let refs: Vec<&Span> = kids.iter().collect();
    assert_eq!(spans::self_time(&parent, &refs), 100 - 30 - 10 - 5);
    assert_eq!(spans::self_time(&parent, &[]), 95);

    let mut all = vec![parent.clone()];
    all.extend(kids.iter().cloned());
    all.push(span(6, None, 500, 600, 0));
    // The second root has no children: its self time is its duration.
    assert_eq!(spans::total_self_time(&all, "sim.run"), 55 + 100);
    assert_eq!(spans::total(&all, "sim.run"), (200, 2));
    assert_eq!(spans::decide_totals(&all), (5, 1));

    // Children covering more than the parent never drive it negative.
    let busy = span(7, None, 0, 10, 20);
    assert_eq!(spans::self_time(&busy, &[]), 0);
}

#[test]
fn numeric_helpers() {
    assert_eq!(util::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(util::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(util::percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 99), 9);
    let linear = [(10.0, 20.0), (100.0, 200.0), (1000.0, 2000.0)];
    assert!((util::loglog_slope(&linear) - 1.0).abs() < 1e-12);
    let flat = [(10.0, 5.0), (100.0, 5.0), (1000.0, 5.0)];
    assert!(util::loglog_slope(&flat).abs() < 1e-12);
    assert_eq!(
        ring::ring_dist(100, perfbench_node(0), perfbench_node(17)),
        3
    );
    assert_eq!(
        ring::ring_dist(100, perfbench_node(0), perfbench_node(99)),
        1
    );
}

fn perfbench_node(i: u32) -> locality_graph::NodeId {
    locality_graph::NodeId(i)
}
