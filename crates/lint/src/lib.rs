//! # locality-lint
//!
//! A hermetic (zero-dependency) static-analysis pass that proves, at
//! the source level, the model invariants the paper's `k`-local routing
//! results rest on — so they are machine-checked on every verify run
//! instead of being a code-review convention.
//!
//! The analyzer is a three-layer pipeline, still with no syn, no rustc
//! internals, and no network-fetched dependencies:
//!
//! 1. [`lexer`] — masks comments/strings, tracks `#[cfg(test)]`
//!    regions, and produces a token stream with byte spans and line
//!    numbers, once per file; every rule arm reads that one output.
//! 2. [`symbols`] — per file: the module path, `use`/`pub use`/alias
//!    declarations, item definitions, and function spans.
//! 3. [`usegraph`] — the whole-workspace use-graph: module → imported
//!    symbol → defining module, following re-exports and aliases
//!    across all eight crates. Only R1 needs it.
//!
//! The rule families ([`rules`]):
//!
//! * **R1 locality** — router implementation modules cannot *reach* a
//!   whole-graph API. The textual arm bans the names; the use-graph
//!   arm resolves every import, so an alias (`use ..::Graph as G`) or
//!   a chain of re-exports is caught and the full offending chain is
//!   printed in the diagnostic. The `LocalRouter` trait already
//!   enforces at the type level that a routing *decision* sees only
//!   `G_k(u)`; R1 enforces that the modules implementing deciders
//!   cannot even import `G`.
//! * **R2 determinism** — trial code (the library code of `graph`,
//!   `core`, `adversary`, `obs` and `sim`, plus the bench crate's chaos
//!   and loadgen modules) cannot use hash-ordered collections, clocks,
//!   the environment, NaN-unstable float compares, or any RNG but
//!   `DetRng`.
//! * **R3 panic policy** — library code cannot `unwrap()`, `expect(`,
//!   `panic!`, or raw-index slices (`R3i`); the dense-slot idiom
//!   `container[node.index()]` is blessed.
//! * **R4 lint hygiene** — crate roots forbid unsafe code and deny
//!   missing docs in code, not in comments; `clippy.toml` co-enforces
//!   R2/R3 natively.
//! * **R5 silent libraries** — no stdout/stderr writes from library
//!   code; output goes through the `locality-obs` recorder.
//! * **R6 hot-path allocation** — no `Vec::new`/`vec!`/`Box::new`/
//!   `format!`/`collect`/`to_vec` inside the designated hot-path
//!   functions (`sim::sched`, `sim::slab`, `sim::workload`,
//!   `graph::fanout`, the `core::view` step tables, Case 1's label
//!   probe and its hash, the next-port read, `core::visited`, the
//!   trace reader, `graph::codec` decode)
//!   outside setup constructors, read from each file's own function
//!   spans.
//! * **R7 lock discipline** — no `Mutex`/`RwLock` or blocking I/O in
//!   trial code: the trial driver runs trials side by side on threads,
//!   and a lock or a blocking call would let one trial stall another,
//!   so a trial's cost would no longer be its own work.
//!
//! R2 and R7 flag each source at its own line, module paths included
//! when a grouped `use` tree holds them. The trial crates depend
//! only on one another (a `rules` test checks it against the
//! manifests), so nothing code in them can call escapes the scan.
//!
//! Known-good exceptions live in the checked-in [`allow`]list
//! (`lint.allow`), one justified `rule | file | sym=<symbol> | why`
//! entry per site; stale entries are reported so the list cannot rot,
//! and pre-v2 line-bound entries produce a re-justify diagnostic
//! instead of silently matching. Reports render as text or as stable,
//! sorted, one-finding-per-line JSON (`--format json`) for CI
//! consumption. See DESIGN.md, "Model invariants & static analysis".

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allow;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod usegraph;
pub mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

pub use allow::AllowEntry;
pub use rules::{FileClass, Rule, Violation};

/// Outcome of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Violations not covered by the allowlist, sorted by location.
    pub violations: Vec<Violation>,
    /// Number of violations suppressed by `lint.allow` entries.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing (the list is rotting).
    pub stale_allows: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace is clean (stale entries are warnings, not
    /// failures).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        for e in &self.stale_allows {
            out.push_str(&format!("warning: stale allowlist entry {}\n", e.render()));
        }
        out.push_str(&format!(
            "locality-lint: {} file(s), {} violation(s), {} suppressed by lint.allow, {} stale allow entrie(s)",
            self.files_scanned,
            self.violations.len(),
            self.suppressed,
            self.stale_allows.len(),
        ));
        out
    }

    /// Machine-readable rendering: one JSON object per line, sorted,
    /// stable across runs (byte-identical on an unchanged workspace).
    /// Empty when the report [is clean](Self::is_clean) and no allow
    /// entry is stale.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str("{\"type\":\"violation\",\"rule\":\"");
            out.push_str(v.rule.id());
            out.push_str("\",\"file\":\"");
            out.push_str(&json_escape(&v.file));
            out.push_str("\",\"line\":");
            out.push_str(&v.line.to_string());
            out.push_str(",\"symbol\":\"");
            out.push_str(&json_escape(&v.symbol));
            out.push_str("\",\"message\":\"");
            out.push_str(&json_escape(&v.message));
            out.push_str("\",\"chain\":[");
            for (i, hop) in v.chain.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(hop));
                out.push('"');
            }
            out.push_str("]}\n");
        }
        for e in &self.stale_allows {
            out.push_str("{\"type\":\"stale_allow\",\"file\":\"lint.allow\",\"line\":");
            out.push_str(&e.line.to_string());
            out.push_str(",\"entry\":\"");
            out.push_str(&json_escape(&e.render()));
            out.push_str("\"}\n");
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Errors raised by [`lint_workspace`] itself (as opposed to findings).
#[derive(Debug)]
pub enum LintError {
    /// A file could not be read or a directory walked.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// `lint.allow` is malformed.
    Allowlist(
        /// The parse error, naming the offending line.
        String,
    ),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "{path}: {message}"),
            LintError::Allowlist(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LintError {}

fn read(root: &Path, rel: &str) -> Result<String, LintError> {
    fs::read_to_string(root.join(rel)).map_err(|e| LintError::Io {
        path: rel.to_string(),
        message: e.to_string(),
    })
}

/// Lints the workspace rooted at `root`: walks the source tree, runs
/// every per-file arm (R1's textual arm, R2–R7), builds the workspace
/// use-graph for R1's reachability arm, and applies the `lint.allow`
/// allowlist.
///
/// # Errors
///
/// Returns [`LintError`] on filesystem problems or a malformed
/// allowlist — never for rule findings, which land in the [`Report`].
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = walk::rust_files(root).map_err(|e| LintError::Io {
        path: root.display().to_string(),
        message: e.to_string(),
    })?;

    let allow_text = fs::read_to_string(root.join("lint.allow")).ok();
    let allowlist = match allow_text {
        Some(text) => allow::parse(&text).map_err(LintError::Allowlist)?,
        None => Vec::new(),
    };

    let mut violations: Vec<Violation> = Vec::new();
    let mut entries = Vec::with_capacity(files.len());
    for rel in &files {
        let lx = lexer::lex(&read(root, rel)?);
        violations.extend(rules::check_file(rel, &lx));
        if !walk::crate_roots(std::slice::from_ref(rel)).is_empty() {
            violations.extend(rules::check_crate_root(rel, &lx));
        }
        let sym = symbols::parse(rel, &lx);
        violations.extend(rules::check_r6(rel, &lx, &sym.fns));
        entries.push(usegraph::FileEntry {
            rel: rel.clone(),
            lx,
            sym,
        });
    }
    let clippy = fs::read_to_string(root.join("clippy.toml")).ok();
    violations.extend(rules::check_clippy_toml(clippy.as_deref()));

    violations.extend(usegraph::Workspace::build(entries).check_r1());

    // R1's textual and use-graph arms can flag the same site (e.g. a
    // direct `use locality_graph::Graph`): dedupe on (rule, file,
    // line, symbol), preferring the finding that carries a chain.
    let mut dedup: BTreeMap<(String, String, usize, String), Violation> = BTreeMap::new();
    for v in violations {
        let key = (
            v.rule.id().to_string(),
            v.file.clone(),
            v.line,
            v.symbol.clone(),
        );
        match dedup.get(&key) {
            Some(prev) if !prev.chain.is_empty() || v.chain.is_empty() => {}
            _ => {
                dedup.insert(key, v);
            }
        }
    }
    let mut violations: Vec<Violation> = dedup.into_values().collect();
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule.id(), &a.symbol).cmp(&(&b.file, b.line, b.rule.id(), &b.symbol))
    });

    let (kept, suppressed, stale_allows) = allow::apply(&allowlist, violations);
    Ok(Report {
        violations: kept,
        suppressed,
        stale_allows,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_workspace_is_lintable() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = walk::find_workspace_root(here).expect("workspace root exists");
        let report = lint_workspace(&root).expect("lint runs");
        assert!(report.files_scanned > 50, "should scan the whole workspace");
    }

    #[test]
    fn json_rendering_is_escaped_and_line_oriented() {
        let report = Report {
            violations: vec![Violation {
                rule: Rule::R1,
                file: "crates/core/src/alg1.rs".to_string(),
                line: 3,
                symbol: "Graph".to_string(),
                message: "a \"quoted\" message".to_string(),
                raw_line: String::new(),
                chain: vec!["a.rs:1: hop".to_string()],
            }],
            suppressed: 0,
            stale_allows: Vec::new(),
            files_scanned: 1,
        };
        let json = report.render_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"chain\":[\"a.rs:1: hop\"]"));
    }
}
