//! Traced toy runs, in their own test binary because they switch on the
//! process-wide span recorder and counting allocator.

use perfbench::{alloc, layers, spans, WORKLOADS};

#[test]
fn traced_runs_report_every_layer_and_keep_the_untraced_outcome() {
    let untraced: Vec<u64> = WORKLOADS
        .iter()
        .map(|w| {
            let rep = perfbench::run_workload(w, true, 11, 0.0, false).expect("known workload");
            assert!(rep.violations.is_empty(), "{w}: {:?}", rep.violations);
            rep.fingerprint
        })
        .collect();
    alloc::enable();
    spans::enable();
    for (w, fp) in WORKLOADS.iter().zip(untraced) {
        let rep = perfbench::run_workload(w, true, 11, 0.0, true).expect("known workload");
        assert!(rep.violations.is_empty(), "{w}: {:?}", rep.violations);
        assert_eq!(rep.fingerprint, fp, "{w}: tracing changed the outcome");
        for name in layers::NAMES {
            let m = rep.layers.iter().find(|m| m.name == name);
            let m = m.unwrap_or_else(|| panic!("{w}: layer metric {name} missing"));
            assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
        }
        let absent: Vec<&str> = rep.absent.iter().map(|&(name, _)| name).collect();
        let want: &[&str] = match *w {
            "ring-100k" => &[],
            "ring-100k-oracle" => &["view.extract_share", "view.extract_slope", "sim.hop_slope"],
            _ => &["view.extract_slope", "sim.hop_slope"],
        };
        assert_eq!(absent, want, "{w}: absent layer metrics");
    }
    let sp = spans::snapshot();
    for name in [
        "sim.build",
        "sim.run",
        "engine.matrix",
        "view.extract",
        "view.step_table",
        "preprocess",
        "oracle.build",
        "oracle.load",
        "oracle.decode",
        "obs.finish_trace",
        "analytics.stats",
        "analytics.loops",
        "driver.trial",
        "driver.batch",
    ] {
        assert!(sp.iter().any(|s| s.name == name), "no {name} span recorded");
    }
    assert!(
        sp.iter().any(|s| s.decide_calls > 0),
        "no decide time charged"
    );
    let mut out = Vec::new();
    spans::write_jsonl(&sp, &mut out).expect("writing to memory");
    assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), sp.len());
}
