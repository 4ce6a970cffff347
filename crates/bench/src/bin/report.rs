//! Prints the consolidated experiment report (source of EXPERIMENTS.md).
//!
//! A reader that exits first (`report | head`) ends the program quietly
//! with status 0; any other write error prints `error: …` and exits 1.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{}", locality_bench::report()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
