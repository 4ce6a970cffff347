//! CLI exit-contract smoke tests for the bench binaries: unknown
//! flags, malformed values, and unreadable paths must exit nonzero
//! with a usage line on stderr — same contract `crates/lint/tests/
//! cli.rs` pins for `locality-lint` and `bin/tracecat`.

use std::io::Read;
use std::process::{Command, Output, Stdio};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_failure(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(1), "{what}: wrong exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{what}: no usage line in: {err}");
}

/// The flag-driven binaries: each rejects what it does not know before
/// doing any work.
const FLAG_BINS: [(&str, &str); 3] = [
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    ("perfsmoke", env!("CARGO_BIN_EXE_perfsmoke")),
    ("simbench", env!("CARGO_BIN_EXE_simbench")),
];

#[test]
fn chaos_unknown_flag_exits_nonzero_with_usage() {
    for (name, bin) in FLAG_BINS {
        let out = run(bin, &["--bogus"]);
        assert_usage_failure(&out, &format!("{name} --bogus"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag '--bogus'"), "{name}: {err}");
    }
}

#[test]
fn chaos_shards_is_an_unknown_flag() {
    // One trial runs on one wheel, and `tracecat split` stripes a
    // `--trace-out` trace: chaos shards neither.
    for (flag, value) in [("--shards", "4"), ("--trace-shards", "8")] {
        let out = run(env!("CARGO_BIN_EXE_chaos"), &[flag, value]);
        assert_usage_failure(&out, &format!("chaos {flag} {value}"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag '{flag}'")),
            "stderr: {err}"
        );
    }
}

#[test]
fn chaos_malformed_seed_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_chaos"), &["--seed", "twelve"]);
    assert_usage_failure(&out, "chaos --seed twelve");
}

#[test]
fn chaos_bad_trace_level_exits_nonzero_with_usage() {
    for (name, bin) in FLAG_BINS {
        for args in [&["--trace-level", "loud"][..], &["--trace-out"]] {
            let out = run(bin, args);
            assert_usage_failure(&out, &format!("{name} {}", args.join(" ")));
        }
    }
}

#[test]
fn oracle_missing_subcommand_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_oracle"), &[]);
    assert_usage_failure(&out, "oracle (no args)");
}

#[test]
fn oracle_unknown_build_flag_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_oracle"), &["build", "--bogus"]);
    assert_usage_failure(&out, "oracle build --bogus");
}

#[test]
fn oracle_malformed_k_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_oracle"), &["build", "--k", "ten"]);
    assert_usage_failure(&out, "oracle build --k ten");
}

#[test]
fn oracle_flag_without_its_value_exits_nonzero_with_usage() {
    // A real artifact, so a `verify` that skipped its topology check
    // would pass.
    let graph = temp_file("flags.graph", "0 1\n1 2\n2 0\n");
    let artifact = graph.with_extension("lrvo");
    let (graph_arg, artifact_arg) = (
        graph.to_str().expect("temp path is UTF-8"),
        artifact.to_str().expect("temp path is UTF-8"),
    );
    let oracle = env!("CARGO_BIN_EXE_oracle");
    let built = run(
        oracle,
        &[
            "build",
            "--graph",
            graph_arg,
            "--k",
            "1",
            "--out",
            artifact_arg,
        ],
    );
    let cases: [(&[&str], &str); 6] = [
        (
            &["verify", artifact_arg, "--graph"],
            "--graph needs a value",
        ),
        (
            &["verify", artifact_arg, "--graph", "--k", "1"],
            "--graph needs a value",
        ),
        (
            &["verify", artifact_arg, "--k", "1"],
            "verify --k needs --graph",
        ),
        (
            &["build", "--graph", "--k", "1", "--out", artifact_arg],
            "--graph needs a value",
        ),
        (
            &["build", "--graph", graph_arg, "--k", "1", "--out"],
            "--out needs a value",
        ),
        (
            &["build", "--chaos-seed", "7", "--out-dir"],
            "--out-dir needs a value",
        ),
    ];
    let outs: Vec<Output> = cases.iter().map(|(args, _)| run(oracle, args)).collect();
    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&artifact);
    assert!(built.status.success(), "oracle build: {built:?}");
    for ((args, why), out) in cases.iter().zip(&outs) {
        let what = format!("oracle {}", args.join(" "));
        assert_usage_failure(out, &what);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "{what}: stderr: {err}");
    }
}

#[test]
fn oracle_unreadable_artifact_exits_nonzero_with_usage() {
    let out = run(
        env!("CARGO_BIN_EXE_oracle"),
        &["inspect", "/nonexistent/definitely-not-here.lrvo"],
    );
    assert_usage_failure(&out, "oracle inspect <missing>");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read artifact"), "stderr: {err}");
}

#[test]
fn loadgen_unknown_flag_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_loadgen"), &["sweep", "--bogus"]);
    assert_usage_failure(&out, "loadgen sweep --bogus");
}

#[test]
fn loadgen_unknown_subcommand_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_loadgen"), &["blast"]);
    assert_usage_failure(&out, "loadgen blast");
}

#[test]
fn loadgen_zero_threads_exits_nonzero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_loadgen"), &["check", "--threads", "0"]);
    assert_usage_failure(&out, "loadgen check --threads 0");
}

/// `tracecat` distinguishes usage errors (exit 2) from runtime errors
/// (exit 1), so it gets its own assertion.
fn assert_tracecat_usage_failure(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: wrong exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{what}: no usage line in: {err}");
}

#[test]
fn tracecat_unknown_mode_exits_two_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_tracecat"), &["frobnicate"]);
    assert_tracecat_usage_failure(&out, "tracecat frobnicate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown mode"), "stderr: {err}");
}

#[test]
fn tracecat_unknown_flag_exits_two_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_tracecat"), &["stats", "x", "--bogus"]);
    assert_tracecat_usage_failure(&out, "tracecat stats --bogus");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
}

#[test]
fn tracecat_malformed_buf_exits_two_with_usage() {
    let out = run(
        env!("CARGO_BIN_EXE_tracecat"),
        &["stats", "x", "--buf", "huge"],
    );
    assert_tracecat_usage_failure(&out, "tracecat --buf huge");
}

#[test]
fn tracecat_missing_chunk_flags_exit_two_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_tracecat"), &["chunk", "x"]);
    assert_tracecat_usage_failure(&out, "tracecat chunk (no flags)");
}

/// The conventional end-of-options marker must be tolerated: anyone
/// used to `cargo run -p locality-bench --bin chaos -- --seed 7`
/// pastes the `--` when invoking the built binary directly.
#[test]
fn double_dash_marker_is_tolerated_everywhere() {
    let with = run(env!("CARGO_BIN_EXE_chaos"), &["--", "--seed", "3"]);
    let without = run(env!("CARGO_BIN_EXE_chaos"), &["--seed", "3"]);
    assert_eq!(with.status.code(), Some(0), "chaos -- --seed 3");
    assert_eq!(with.stdout, without.stdout, "chaos output differs");

    // For the subcommand binaries, proving the marker is stripped
    // before dispatch is enough (and cheap): the error must name the
    // subcommand after the `--`, not the `--` itself.
    let out = run(env!("CARGO_BIN_EXE_loadgen"), &["--", "blast"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand 'blast'"), "loadgen: {err}");

    let out = run(env!("CARGO_BIN_EXE_oracle"), &["--", "bogus"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand bogus"), "oracle: {err}");

    let out = run(env!("CARGO_BIN_EXE_tracecat"), &["--", "bogus"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown mode bogus"), "tracecat: {err}");

    for (name, bin) in &FLAG_BINS[1..] {
        let out = run(bin, &["--", "--bogus"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag '--bogus'"), "{name}: {err}");
    }
}

#[test]
fn localroute_out_of_range_node_is_an_error_not_a_panic() {
    for (mode, graph, s, t, named) in [
        ("route", "cycle:24", "99", "3", ["s = 99", "n = 24"]),
        ("route", "cycle:24", "0", "24", ["t = 24", "n = 24"]),
        ("trace", "cycle:9", "9", "4", ["s = 9", "n = 9"]),
        ("trace", "cycle:9", "0", "99999", ["t = 99999", "n = 9"]),
    ] {
        let args = [mode, graph, "alg1", "3", s, t];
        let out = run(env!("CARGO_BIN_EXE_localroute"), &args);
        let what = args.join(" ");
        assert_eq!(out.status.code(), Some(1), "{what}: wrong exit code");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{what}: stderr: {err}");
        for part in named {
            assert!(err.contains(part), "{what}: {part} not named: {err}");
        }
        assert!(!err.contains("panicked"), "{what}: {err}");
    }
}

#[test]
fn localroute_out_of_range_family_is_an_error_not_a_panic() {
    // Each spec breaks its generator's precondition, or asks for more
    // nodes or edges than the caps allow; both are refused before
    // anything is generated.
    for (spec, family) in [
        ("path:0", "path"),
        ("cycle:2", "cycle"),
        ("grid:0x5", "grid"),
        ("spider:0,0", "spider"),
        ("lollipop:0,0", "lollipop"),
        ("random:0,1", "random"),
        ("fig13:4", "fig13"),
        ("fig17:5", "fig17"),
        ("grid:100000x100000", "grid"),
        ("complete:100000", "complete"),
    ] {
        for args in [&["gen", spec][..], &["matrix", spec, "alg1", "2"]] {
            let out = run(env!("CARGO_BIN_EXE_localroute"), args);
            let what = args.join(" ");
            assert_eq!(out.status.code(), Some(1), "{what}: wrong exit code");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.starts_with(&format!("error: {family} needs ")),
                "{what}: stderr: {err}"
            );
            assert!(!err.contains("panicked"), "{what}: {err}");
            assert!(out.stdout.is_empty(), "{what}: printed a graph");
        }
    }
}

/// Writes `text` to a file of its own under the temp directory.
fn temp_file(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("locality-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

#[test]
fn graph_files_past_the_node_cap_are_errors_not_aborts() {
    // A native header and an edge-list id that ask for 4·10⁹ and
    // 2³² - 1 nodes: each must fail before anything is allocated.
    let native = temp_file("huge.graph", "# 4e9 nodes\nn 4000000000\n");
    let native_arg = native.to_str().expect("temp path is UTF-8");
    let out = run(
        env!("CARGO_BIN_EXE_localroute"),
        &["matrix", native_arg, "alg3", "1"],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "localroute: stderr: {err}");
    assert!(err.starts_with("error: "), "localroute: stderr: {err}");
    assert!(err.contains("line 2 asks for 4000000000 nodes"), "{err}");

    let edges = temp_file("huge.edges", "0 4294967294\n");
    let artifact = temp_file("huge.lrvo", "");
    let [edges_arg, artifact_arg] =
        [&edges, &artifact].map(|p| p.to_str().expect("temp path is UTF-8"));
    let out = run(
        env!("CARGO_BIN_EXE_oracle"),
        &[
            "build",
            "--graph",
            edges_arg,
            "--k",
            "1",
            "--out",
            artifact_arg,
        ],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "oracle: stderr: {err}");
    assert!(err.contains("oracle: cannot parse graph"), "{err}");
    assert!(err.contains("line 1 asks for 4294967295 nodes"), "{err}");
    for p in [native, edges, artifact] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn localroute_reads_a_plain_edge_list() {
    let triangle = temp_file("triangle.edges", "# triangle\n0 1\n1 2\n2 0\n");
    let arg = triangle.to_str().expect("temp path is UTF-8");
    let out = run(
        env!("CARGO_BIN_EXE_localroute"),
        &["route", arg, "alg1", "1", "0", "2"],
    );
    let _ = std::fs::remove_file(&triangle);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("on 3 nodes"), "{text}");
    assert!(text.contains("status   Delivered"), "{text}");
    assert!(text.contains("route    v0 -> v2"), "{text}");
}

#[test]
fn a_high_degree_node_loads_in_linear_time() {
    // A star with 200,000 leaves, well inside the node cap. Each edge's
    // duplicate check scans the leaf's list, not the hub's growing one;
    // scanning the hub's made the load quadratic in its degree (131.5 s
    // for this file in the debug build, against under a second).
    let text: String = (1..=200_000).map(|i| format!("0 {i}\n")).collect();
    let star = temp_file("star.edges", &text);
    let arg = star.to_str().expect("temp path is UTF-8");
    let (out, ns) = locality_bench::timing::time_once_ns(|| {
        run(env!("CARGO_BIN_EXE_localroute"), &["gen", arg])
    });
    let _ = std::fs::remove_file(&star);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(
        out.stdout.starts_with(b"n 200001\ne 0 1\n"),
        "stderr: {err}"
    );
    let secs = ns as f64 / 1e9;
    assert!(secs < 10.0, "a 200,000-leaf star took {secs:.1} s to load");
}

#[test]
fn localroute_ends_quietly_when_its_reader_stops_early() {
    // grid:300x300 prints 2,467,954 bytes, more than a pipe buffers, so
    // localroute is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_localroute"))
        .args(["gen", "grid:300x300"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("localroute starts");
    let mut reader = child.stdout.take().expect("stdout is piped");
    let mut head = [0u8; 10];
    reader.read_exact(&mut head).expect("localroute writes");
    drop(reader);
    let out = child.wait_with_output().expect("localroute exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}, stderr: {err}", out.status);
    assert!(!err.contains("panicked"), "stderr: {err}");
}

/// Runs `bin` with standard output on a pipe whose reader has already
/// exited, so its first write fails with `BrokenPipe`.
fn run_with_reader_gone(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("binary exits")
}

fn assert_quiet_success(out: &Output, what: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what}: {:?}, stderr: {err}",
        out.status
    );
    assert!(err.is_empty(), "{what}: stderr: {err}");
}

#[test]
fn report_ends_quietly_when_its_reader_exits_first() {
    let out = run_with_reader_gone(env!("CARGO_BIN_EXE_report"), &[]);
    assert_quiet_success(&out, "report");
}

#[test]
fn chaos_ends_quietly_when_its_reader_exits_first() {
    let out = run_with_reader_gone(env!("CARGO_BIN_EXE_chaos"), &["--seed", "7"]);
    assert_quiet_success(&out, "chaos");
}

#[test]
fn loadgen_ends_quietly_when_its_reader_exits_first() {
    let out = run_with_reader_gone(env!("CARGO_BIN_EXE_loadgen"), &["check"]);
    assert_quiet_success(&out, "loadgen check");
}

#[test]
fn oracle_ends_quietly_when_its_reader_exits_first() {
    let graph = temp_file("quiet.graph", "0 1\n1 2\n2 3\n3 0\n");
    let artifact = graph.with_extension("lrvo");
    let (graph_arg, artifact_arg) = (
        graph.to_str().expect("temp path is UTF-8"),
        artifact.to_str().expect("temp path is UTF-8"),
    );
    let oracle = env!("CARGO_BIN_EXE_oracle");
    let build = run_with_reader_gone(
        oracle,
        &[
            "build",
            "--graph",
            graph_arg,
            "--k",
            "1",
            "--out",
            artifact_arg,
        ],
    );
    let inspect = run_with_reader_gone(oracle, &["inspect", artifact_arg]);
    let written = artifact.exists();
    let _ = std::fs::remove_file(&graph);
    let _ = std::fs::remove_file(&artifact);
    assert_quiet_success(&build, "oracle build");
    assert!(written, "oracle build wrote no artifact");
    assert_quiet_success(&inspect, "oracle inspect");
}
