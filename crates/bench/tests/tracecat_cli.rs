//! CLI smoke tests for `bin/tracecat`: the exit-status contract that
//! `scripts/verify.sh` leans on (0 = success / identical traces, 1 =
//! runtime I/O or parse error, 2 = usage error, 3 = diff divergence)
//! must not drift, and the mode surface (summary / stats / loops /
//! imperiled / merge / split / chunk / diff) must stay reachable.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn tracecat(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tracecat"))
        .args(args)
        .output()
        .expect("spawn tracecat")
}

/// A unique temp path per test, cleaned by the caller.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tracecat-cli-{}-{name}", std::process::id()))
}

const TRACE: &str = concat!(
    "{\"seq\":0,\"tick\":0,\"ev\":\"trial\",\"router\":\"algorithm-1\",\"k\":12}\n",
    "{\"seq\":0,\"tick\":0,\"ev\":\"send\",\"msg\":0,\"s\":1,\"t\":4}\n",
    "{\"seq\":1,\"tick\":0,\"ev\":\"hop\",\"msg\":0,\"att\":0,\"node\":1,\"to\":4,\"rule\":\"greedy\",\"prov\":0}\n",
    "{\"seq\":2,\"tick\":1,\"ev\":\"deliver\",\"msg\":0,\"node\":4,\"hops\":1}\n",
    "{\"seq\":3,\"tick\":1,\"ev\":\"fate\",\"msg\":0,\"fate\":\"delivered\"}\n",
);

#[test]
fn no_arguments_is_a_usage_error() {
    let out = tracecat(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unknown_mode_is_a_usage_error() {
    let out = tracecat(&["frobnicate", "x"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown mode"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = tracecat(&["stats", "file.jsonl", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bogus"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn flag_from_another_mode_is_a_usage_error() {
    let out = tracecat(&["stats", "file.jsonl", "--top", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--top is not a stats flag"), "stderr: {err}");
}

#[test]
fn unreadable_path_is_a_runtime_error() {
    for mode in ["summary", "stats", "loops", "imperiled"] {
        let out = tracecat(&[mode, "/nonexistent/trace.jsonl"]);
        assert_eq!(out.status.code(), Some(1), "{mode}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot read"),
            "{mode}"
        );
    }
}

#[test]
fn malformed_json_is_a_line_numbered_runtime_error() {
    let p = tmp("bad.jsonl");
    std::fs::write(&p, "{\"ev\":\"send\",\"msg\":0}\nnot json\n").expect("write");
    let out = tracecat(&["stats", p.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
    let _ = std::fs::remove_file(&p);

    // A million nested brackets get the same typed error, not a stack
    // overflow.
    let deep = tmp("deep.jsonl");
    let text = format!(
        "{{\"ev\":\"send\",\"msg\":0}}\n{{\"ev\":{}\n",
        "[".repeat(1_000_000)
    );
    std::fs::write(&deep, text).expect("write");
    let out = tracecat(&["stats", deep.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2") && err.contains("nesting too deep"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&deep);
}

#[test]
fn torn_tail_is_strict_by_default_and_tolerated_with_lenient() {
    let p = tmp("torn.jsonl");
    std::fs::write(&p, &TRACE[..TRACE.len() - 1]).expect("write");
    let path = p.to_str().expect("utf8");
    let strict = tracecat(&["stats", path]);
    assert_eq!(strict.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("truncated tail"),
        "stderr: {}",
        String::from_utf8_lossy(&strict.stderr)
    );
    let lenient = tracecat(&["stats", path, "--lenient"]);
    assert_eq!(lenient.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&lenient.stdout).contains("truncated tail dropped"),
        "stdout: {}",
        String::from_utf8_lossy(&lenient.stdout)
    );
    let _ = std::fs::remove_file(&p);
}

#[test]
fn diff_exits_zero_on_identical_and_three_on_divergent() {
    let a = tmp("diff-a.jsonl");
    let b = tmp("diff-b.jsonl");
    let c = tmp("diff-c.jsonl");
    std::fs::write(&a, "{\"ev\":\"send\",\"tick\":0}\n").expect("write a");
    std::fs::write(&b, "{\"ev\":\"send\",\"tick\":0}\n").expect("write b");
    std::fs::write(&c, "{\"ev\":\"send\",\"tick\":1}\n").expect("write c");
    let (a_s, b_s, c_s) = (
        a.to_str().expect("utf8 path"),
        b.to_str().expect("utf8 path"),
        c.to_str().expect("utf8 path"),
    );
    let same = tracecat(&["diff", a_s, b_s]);
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("zero divergence"));
    let diverged = tracecat(&["diff", a_s, c_s]);
    assert_eq!(diverged.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&diverged.stdout).contains("first divergence"));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    let _ = std::fs::remove_file(&c);
}

#[test]
fn split_then_merge_round_trips_through_the_cli() {
    let whole = tmp("roundtrip.jsonl");
    let s0 = tmp("roundtrip-s0.jsonl");
    let s1 = tmp("roundtrip-s1.jsonl");
    let merged = tmp("roundtrip-merged.jsonl");
    // Two trial blocks so both shards get one.
    let corpus = format!("{TRACE}{}", TRACE.replace("algorithm-1", "algorithm-2"));
    std::fs::write(&whole, &corpus).expect("write corpus");
    let (w, s0s, s1s, m) = (
        whole.to_str().expect("utf8"),
        s0.to_str().expect("utf8"),
        s1.to_str().expect("utf8"),
        merged.to_str().expect("utf8"),
    );
    let split = tracecat(&["split", w, s0s, s1s]);
    assert_eq!(
        split.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&split.stderr)
    );
    let merge = tracecat(&["merge", s0s, s1s, "--out", m]);
    assert_eq!(
        merge.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    assert_eq!(
        std::fs::read(&merged).expect("read merged"),
        corpus.as_bytes()
    );
    // And the byte-diff gate agrees.
    let diff = tracecat(&["diff", w, m]);
    assert_eq!(diff.status.code(), Some(0));
    for p in [&whole, &s0, &s1, &merged] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn stats_output_is_identical_at_any_buffer_size() {
    let p = tmp("bufsize.jsonl");
    std::fs::write(&p, TRACE).expect("write");
    let path = p.to_str().expect("utf8");
    let whole = tracecat(&["stats", path]);
    assert_eq!(whole.status.code(), Some(0));
    for buf in ["1", "7", "65536"] {
        let chunked = tracecat(&["stats", path, "--buf", buf]);
        assert_eq!(chunked.status.code(), Some(0), "buf={buf}");
        assert_eq!(chunked.stdout, whole.stdout, "buf={buf}");
    }
    let _ = std::fs::remove_file(&p);
}

#[test]
fn buf_outside_its_range_is_a_usage_error_in_every_mode() {
    let p = tmp("bufrange.jsonl");
    let shard = tmp("bufrange-s0.jsonl");
    let prefix = tmp("bufrange-chunk");
    std::fs::write(&p, TRACE).expect("write");
    let (path, shard_path, prefix_path) = (
        p.to_str().expect("utf8"),
        shard.to_str().expect("utf8"),
        prefix.to_str().expect("utf8"),
    );
    let modes: [&[&str]; 8] = [
        &["summary", path],
        &["stats", path],
        &["loops", path],
        &["imperiled", path],
        &["merge", path, path],
        &["split", path, shard_path],
        &[
            "chunk",
            path,
            "--max-bytes",
            "64",
            "--out-prefix",
            prefix_path,
        ],
        &["diff", path, path],
    ];
    // Zero, a terabyte (an allocation that fails), and `usize::MAX`
    // (a capacity that overflows).
    for buf in ["0", "1099511627776", "18446744073709551615"] {
        for args in modes {
            let out = tracecat(&[args, &["--buf", buf]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} --buf {buf}: {err}");
            assert!(!err.contains("panicked"), "{args:?} --buf {buf}: {err}");
            assert!(err.contains("--buf wants a byte count in 1..="), "{err}");
        }
    }
    assert!(
        !shard.exists(),
        "split wrote a shard before rejecting --buf"
    );
    let _ = std::fs::remove_file(&p);
}

#[test]
fn imperiled_and_loops_modes_run() {
    let p = tmp("modes.jsonl");
    std::fs::write(&p, TRACE).expect("write");
    let path = p.to_str().expect("utf8");
    let imp = tracecat(&["imperiled", path, "--timeout", "192"]);
    assert_eq!(imp.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&imp.stdout).contains("timeout horizon: 192 ticks"));
    let loops = tracecat(&["loops", path]);
    assert_eq!(loops.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&loops.stdout).contains("tracecat loops"));
    let _ = std::fs::remove_file(&p);
}

#[test]
fn stats_ends_quietly_when_its_reader_exits_first() {
    let p = tmp("reader-gone.jsonl");
    std::fs::write(&p, TRACE).expect("write");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tracecat"))
        .args(["stats", p.to_str().expect("utf8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracecat");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("tracecat exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.is_empty(), "stderr: {err}");
    let _ = std::fs::remove_file(&p);
}
