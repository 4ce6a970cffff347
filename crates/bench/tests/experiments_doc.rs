//! EXPERIMENTS.md as a golden: its "Measured output" block claims to
//! be the verbatim output of `bin/report`, so this test holds the two
//! byte for byte. A change that moves a table must regenerate the
//! block (`report` prints it whole), and a hand edit to the block
//! fails here.

use std::process::Command;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The body of the first fenced block after the `## Measured output`
/// heading, each line ending in `\n`.
fn measured_output_block(doc: &str) -> String {
    let mut lines = doc
        .lines()
        .skip_while(|line| *line != "## Measured output")
        .skip_while(|line| !line.starts_with("```"))
        .skip(1);
    let mut block = String::new();
    for line in lines.by_ref().take_while(|line| *line != "```") {
        block.push_str(line);
        block.push('\n');
    }
    block
}

#[test]
fn measured_output_block_is_what_report_prints() {
    let block = measured_output_block(EXPERIMENTS);
    assert!(
        block.starts_with("# Experiment report"),
        "no measured output block found"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .output()
        .expect("report runs");
    assert_eq!(out.status.code(), Some(0));
    let printed = String::from_utf8(out.stdout).expect("report prints UTF-8");
    if printed != block {
        let (n, (want, got)) = block
            .lines()
            .zip(printed.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("", "")));
        panic!(
            "EXPERIMENTS.md's measured output ({} lines) differs from `report` ({} lines); \
             first difference at block line {}:\n  doc:    {want:?}\n  report: {got:?}",
            block.lines().count(),
            printed.lines().count(),
            n + 1
        );
    }
}
