//! CLI exit-contract smoke tests for the bench binaries: unknown
//! flags, malformed values, and unreadable paths must exit nonzero
//! with a usage line on stderr — same contract `crates/lint/tests/
//! cli.rs` pins for `locality-lint` and `bin/tracecat`.

use std::process::{Command, Output};

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
    let out = run(env!("CARGO_BIN_EXE_chaos"), &["--shards", "4"]);
    assert_usage_failure(&out, "chaos --shards 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--shards'"), "stderr: {err}");
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
