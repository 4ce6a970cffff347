//! `locality-lint` — the command-line front end.
//!
//! ```text
//! locality-lint [--root <dir>] [--format text|json] [--quiet]
//! ```
//!
//! Exits 0 when the workspace has no unsuppressed violations, 1 when it
//! does, 2 on usage or I/O errors (with the usage line on stderr).
//! `--format json` prints one sorted JSON object per finding — stable
//! and byte-identical across runs on an unchanged workspace — and
//! prints nothing at all when the workspace is clean, so CI can diff
//! the output against an empty baseline. Stale `lint.allow` entries
//! are warnings in text mode but appear as lines in JSON mode (and
//! fail the dedicated integration test, which is stricter).
//!
//! Output goes through one locked stdout. A reader that exits first
//! (`locality-lint | head`) leaves the exit status to the findings;
//! any other write error is an I/O error: `error: …` and exit 2.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use locality_lint::{lint_workspace, walk};

const USAGE: &str = "usage: locality-lint [--root <dir>] [--format text|json] [--quiet]";

enum Format {
    Text,
    Json,
}

/// Parses the arguments and lints the workspace. Returns the text to
/// print and whether the workspace is clean.
fn run() -> Result<(String, bool), String> {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = args.next().ok_or("--format needs `text` or `json`")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (use text or json)")),
                };
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Ok((format!("{USAGE}\n"), true)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = match root {
        Some(r) => {
            if !r.is_dir() {
                return Err(format!("`{}` is not a readable directory", r.display()));
            }
            r
        }
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            walk::find_workspace_root(&cwd).ok_or(
                "no workspace root ([workspace] in Cargo.toml) above the current directory",
            )?
        }
    };
    let report = lint_workspace(&root).map_err(|e| e.to_string())?;
    let text = match format {
        // Empty on a clean workspace: the CI contract is "diffable
        // against an empty baseline".
        Format::Json => report.render_json(),
        Format::Text if !quiet || !report.is_clean() => format!("{}\n", report.render()),
        Format::Text => String::new(),
    };
    Ok((text, report.is_clean()))
}

fn main() -> ExitCode {
    let (text, clean) = match run() {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("locality-lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        _ if clean => ExitCode::SUCCESS,
        _ => ExitCode::from(1),
    }
}
