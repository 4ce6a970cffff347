//! CLI contract smoke tests: unknown flags and unreadable paths exit
//! nonzero with a usage line; `--format json` is empty on a clean
//! workspace and byte-identical across runs; a reader that exits
//! first ends the program quietly.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_locality-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn workspace_root() -> std::path::PathBuf {
    locality_lint::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("tests run inside the workspace")
}

#[test]
fn unknown_flag_exits_nonzero_with_usage() {
    // There is no quiet mode: the text summary always prints.
    for flag in ["--bogus", "--quiet"] {
        let out = lint(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown argument"), "{flag} stderr: {err}");
        assert!(err.contains("usage:"), "{flag} stderr: {err}");
    }
}

#[test]
fn unknown_format_exits_nonzero_with_usage() {
    let out = lint(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unreadable_root_exits_nonzero_with_usage() {
    let out = lint(&["--root", "/nonexistent/definitely-not-here"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a readable directory"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn json_on_clean_workspace_is_empty_and_stable() {
    let root = workspace_root();
    let root = root.to_str().expect("utf-8 path");
    let a = lint(&["--root", root, "--format", "json"]);
    assert_eq!(
        a.status.code(),
        Some(0),
        "workspace must be lint-clean: {}",
        String::from_utf8_lossy(&a.stdout)
    );
    assert!(
        a.stdout.is_empty(),
        "clean workspace emits no JSON findings: {}",
        String::from_utf8_lossy(&a.stdout)
    );
    let b = lint(&["--root", root, "--format", "json"]);
    assert_eq!(a.stdout, b.stdout, "byte-identical across runs");
}

#[test]
fn text_mode_reports_summary_line() {
    let root = workspace_root();
    let out = lint(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("locality-lint:"), "stdout: {text}");
    assert!(text.contains("0 violation(s)"), "stdout: {text}");
}

#[test]
fn help_ends_quietly_when_its_reader_exits_first() {
    // Standard output is a pipe whose reader has already gone, so the
    // usage line's write fails with `BrokenPipe`.
    let mut child = Command::new(env!("CARGO_BIN_EXE_locality-lint"))
        .arg("--help")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.is_empty(), "stderr: {err}");
}
