//! Adversarial fixtures, each asserting what the lint reports on a
//! mini-workspace built to probe one of its claims:
//!
//! * R1's use-graph arm: an aliased import and a two-hop re-export each
//!   defeat the *textual* arm (v1) and are caught by the use-graph
//!   (v2), with the test asserting both, so those blind spots stay
//!   demonstrably closed;
//! * R2 and R7 over the trial scope: nondeterminism and lock sources
//!   planted in helpers that the simulator's step path calls are each
//!   flagged at the helper's own line, while the spotless callers are
//!   not;
//! * `lint.allow`: a line-bound entry fails the lint instead of
//!   suppressing;
//! * the JSON report: stable across runs and sorted by location;
//! * what the line scanner missed: grouped imports of banned paths, and
//!   R4 attributes or `clippy.toml` keys that appear only in comments.
//!
//! The fixture workspace is materialized into a temp directory at
//! runtime (committed `.rs` fixture trees would be scanned by the real
//! workspace walk and would have to be allowlisted), and removed when
//! its test ends, failed assertions included.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use locality_lint::{lexer, lint_workspace, rules, LintError, Rule};

/// A throwaway mini-workspace, removed when dropped.
struct Fixture(PathBuf);

impl Deref for Fixture {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Creates a throwaway mini-workspace.
fn fixture_root(tag: &str, files: &[(&str, &str)]) -> Fixture {
    let root = Fixture(std::env::temp_dir().join(format!(
        "locality-lint-fixture-{}-{tag}",
        std::process::id()
    )));
    if root.exists() {
        fs::remove_dir_all(&root.0).expect("stale fixture dir removable");
    }
    fs::create_dir_all(&root.0).expect("fixture root");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    for (rel, text) in files {
        let path = root.join(rel);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("fixture subdir");
        }
        fs::write(path, text).expect("fixture file");
    }
    root
}

/// The graph crate of the fixture workspace: the banned `Graph` type
/// plus one single-hop aliased re-export (`quick::G`) and one two-hop
/// re-export (`a::Graph` -> `b::Whole`).
const GRAPH_CRATE: &[(&str, &str)] = &[
    (
        "crates/graph/src/lib.rs",
        "//! fixture graph crate\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\
         pub mod a;\npub mod b;\npub mod graph;\npub mod labels;\npub mod quick;\n",
    ),
    (
        "crates/graph/src/graph.rs",
        "//! whole-graph API\n/// The global graph.\npub struct Graph;\n\
         /// Builder.\npub struct GraphBuilder;\n",
    ),
    (
        "crates/graph/src/labels.rs",
        "//! safe vocabulary\n/// A node id.\npub struct NodeId;\n",
    ),
    (
        "crates/graph/src/quick.rs",
        "//! aliased re-export\npub use crate::graph::Graph as G;\n",
    ),
    (
        "crates/graph/src/a.rs",
        "//! hop one\npub use crate::graph::Graph;\n",
    ),
    (
        "crates/graph/src/b.rs",
        "//! hop two\npub use crate::a::Graph as Whole;\n",
    ),
];

fn read(root: &Path, rel: &str) -> String {
    fs::read_to_string(root.join(rel)).expect("fixture file readable")
}

#[test]
fn aliased_import_is_missed_by_v1_and_caught_by_v2_with_chain() {
    let router = "//! fixture router\nuse locality_graph::quick::G;\n\
                  /// route one hop\npub fn decide(_g: &G) -> u32 { 1 }\n";
    let mut files = GRAPH_CRATE.to_vec();
    files.push(("crates/core/src/alg1.rs", router));
    let root = fixture_root("alias", &files);

    // v1: the textual check sees no banned identifier — `G` is not on
    // its list, and `locality_graph::quick` is not the graph module.
    let v1 = rules::check_file(
        "crates/core/src/alg1.rs",
        &lexer::lex(&read(&root, "crates/core/src/alg1.rs")),
    );
    assert!(
        v1.iter().all(|v| v.rule != Rule::R1),
        "v1 must be blind to the alias for this fixture to prove anything: {v1:?}"
    );

    // v2: the use-graph resolves G -> quick::G -> graph::Graph.
    let report = lint_workspace(&root).expect("fixture lints");
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::R1 && v.file == "crates/core/src/alg1.rs")
        .collect();
    assert!(!hits.is_empty(), "v2 must flag the aliased import");
    let use_line = hits
        .iter()
        .find(|v| v.line == 2)
        .expect("the `use` line itself is flagged");
    assert_eq!(use_line.symbol, "Graph", "binds to the resolved symbol");
    let chain = use_line.chain.join("\n");
    assert!(
        chain.contains("quick.rs"),
        "chain names the re-export hop:\n{chain}"
    );
    assert!(
        chain.contains("Graph"),
        "chain ends at the banned API:\n{chain}"
    );
    // The body usage of the alias is flagged too.
    assert!(
        hits.iter().any(|v| v.line == 4),
        "alias usage in the body is flagged: {hits:?}"
    );
}

#[test]
fn two_hop_re_export_is_missed_by_v1_and_caught_by_v2_with_both_hops() {
    let router = "//! fixture router\nuse locality_graph::b::Whole;\n\
                  /// route one hop\npub fn decide(_w: &Whole) -> u32 { 2 }\n";
    let mut files = GRAPH_CRATE.to_vec();
    files.push(("crates/core/src/alg2.rs", router));
    let root = fixture_root("twohop", &files);

    let v1 = rules::check_file(
        "crates/core/src/alg2.rs",
        &lexer::lex(&read(&root, "crates/core/src/alg2.rs")),
    );
    assert!(
        v1.iter().all(|v| v.rule != Rule::R1),
        "v1 must be blind to the two-hop re-export: {v1:?}"
    );

    let report = lint_workspace(&root).expect("fixture lints");
    let hit = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::R1 && v.file == "crates/core/src/alg2.rs" && v.line == 2)
        .expect("v2 flags the two-hop import at its use line");
    assert_eq!(hit.symbol, "Graph");
    let chain = hit.chain.join("\n");
    assert!(
        chain.contains("b.rs"),
        "chain shows the outer hop:\n{chain}"
    );
    assert!(
        chain.contains("a.rs"),
        "chain shows the inner hop:\n{chain}"
    );
}

#[test]
fn planted_trial_sources_are_flagged_at_their_own_lines() {
    // The simulator's wheel, workload and step path call helpers in
    // other files and crates that hold a hash map, a NaN-unstable
    // compare, a blocking read and a lock. Each call site is spotless.
    let files: &[(&str, &str)] = &[
        (
            "crates/sim/src/lib.rs",
            "//! fixture sim\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\
             pub mod network;\npub mod sched;\npub mod util;\npub mod workload;\n",
        ),
        (
            "crates/sim/src/util.rs",
            "//! fixture helpers\nuse std::collections::HashMap;\n\
             /// Distinct keys of a hash map.\n\
             pub fn distinct(m: &HashMap<u32, u32>) -> usize {\n    m.len()\n}\n\
             /// Whether `a` sorts before `b`.\n\
             pub fn before(a: f64, b: f64) -> bool {\n\
                 a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)\n}\n",
        ),
        (
            "crates/sim/src/sched.rs",
            "//! fixture wheel\nuse crate::util::distinct;\n\
             /// One tick.\npub fn tick() -> usize { distinct(&Default::default()) }\n",
        ),
        (
            "crates/sim/src/workload.rs",
            "//! fixture workload\n/// Picks the earlier deadline.\n\
             pub fn pick(a: f64, b: f64) -> f64 { if crate::util::before(a, b) { a } else { b } }\n",
        ),
        (
            "crates/sim/src/network.rs",
            "//! fixture network\nuse local_routing::io::slurp;\n\
             /// The simulated network.\npub struct Network;\nimpl Network {\n\
                 pub fn step(&mut self) -> usize { slurp().len() + locality_obs::lock::guarded() }\n}\n",
        ),
        (
            "crates/core/src/lib.rs",
            "//! fixture core\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod io;\n",
        ),
        (
            "crates/core/src/io.rs",
            "//! fixture io\n/// Reads a file.\n\
             pub fn slurp() -> Vec<u8> { std::fs::read(\"x\").unwrap_or_default() }\n",
        ),
        (
            "crates/obs/src/lib.rs",
            "//! fixture obs\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod lock;\n",
        ),
        (
            "crates/obs/src/lock.rs",
            "//! fixture lock\n/// Reads a value behind a lock.\n\
             pub fn guarded() -> usize { *std::sync::Mutex::new(1).lock().unwrap_or_else(|e| e.into_inner()) }\n",
        ),
    ];
    let root = fixture_root("planted", files);
    let report = lint_workspace(&root).expect("fixture lints");
    let found = |rule: Rule| -> Vec<(&str, usize, &str)> {
        report
            .violations
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| (v.file.as_str(), v.line, v.symbol.as_str()))
            .collect()
    };
    assert_eq!(
        found(Rule::R2),
        vec![
            ("crates/sim/src/util.rs", 2, "HashMap"),
            ("crates/sim/src/util.rs", 4, "HashMap"),
            ("crates/sim/src/util.rs", 9, "partial_cmp"),
        ],
        "every nondeterminism source, at its own line"
    );
    assert_eq!(
        found(Rule::R7),
        vec![
            ("crates/core/src/io.rs", 3, "std::fs"),
            ("crates/obs/src/lock.rs", 3, "Mutex"),
        ],
        "both blocking helpers the step path calls, at their own lines"
    );
}

#[test]
fn legacy_allow_entries_surface_as_re_justify_errors_not_suppressions() {
    let router = "//! fixture router\nuse locality_graph::graph::Graph;\n\
                  /// route\npub fn decide(_g: &Graph) -> u32 { 3 }\n";
    let mut files = GRAPH_CRATE.to_vec();
    files.push(("crates/core/src/alg1.rs", router));
    let root = fixture_root("legacy", &files);
    // A v1 line-bound entry that would have suppressed the R1 findings
    // is malformed: the lint stops on it instead of suppressing.
    fs::write(
        root.join("lint.allow"),
        "R1 | crates/core/src/alg1.rs | Graph | drivers may hold G\n",
    )
    .expect("fixture allowlist");
    match lint_workspace(&root) {
        Err(LintError::Allowlist(msg)) => {
            assert!(msg.starts_with("lint.allow:1:"), "names the line: {msg}");
            assert!(msg.contains("re-justify"), "demands migration: {msg}");
        }
        other => panic!("a line-bound entry must fail the lint, got {other:?}"),
    }
    // The same entry bound to symbols suppresses cleanly.
    fs::write(
        root.join("lint.allow"),
        "R1 | crates/core/src/alg1.rs | sym=Graph | drivers may hold G\n\
         R1 | crates/core/src/alg1.rs | sym=locality_graph::graph | drivers may hold G\n",
    )
    .expect("fixture allowlist v2");
    let report = lint_workspace(&root).expect("fixture lints");
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == Rule::R1 && v.file == "crates/core/src/alg1.rs"),
        "sym-bound entries suppress: {:?}",
        report.violations
    );
}

#[test]
fn json_report_is_stable_and_sorted_by_location() {
    let router = "//! fixture router\nuse locality_graph::quick::G;\n\
                  /// route\npub fn decide(_g: &G) -> u32 { 1 }\n";
    let mut files = GRAPH_CRATE.to_vec();
    files.push(("crates/core/src/alg1.rs", router));
    let root = fixture_root("json", &files);

    let report = lint_workspace(&root).expect("first run");
    let a = report.render_json();
    let b = lint_workspace(&root).expect("second run").render_json();
    assert_eq!(a, b, "byte-identical across runs");
    // Three findings, listed by (file, line, rule, symbol): the missing
    // clippy.toml, then the aliased import and its use in the body.
    let keys: Vec<(&str, usize, &str, &str)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule.id(), v.symbol.as_str()))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("clippy.toml", 1, "R4", "clippy"),
            ("crates/core/src/alg1.rs", 2, "R1", "Graph"),
            ("crates/core/src/alg1.rs", 4, "R1", "Graph"),
        ]
    );
    // One JSON object per finding, in the report's order.
    assert_eq!(a.lines().count(), keys.len());
    for (line, (file, at, rule, _)) in a.lines().zip(&keys) {
        assert!(
            line.starts_with("{\"type\":\"violation\",\"rule\":\""),
            "{line}"
        );
        assert!(line.ends_with('}'), "{line}");
        let located = format!("\"rule\":\"{rule}\",\"file\":\"{file}\",\"line\":{at},");
        assert!(line.contains(&located), "{line} should hold {located}");
    }
}

#[test]
fn grouped_imports_and_commented_out_hygiene_are_flagged() {
    let files: &[(&str, &str)] = &[
        (
            "crates/core/src/lib.rs",
            "//! fixture core\n#![deny(missing_docs)]\n// #![forbid(unsafe_code)] (disabled)\n\
             pub mod probe;\n",
        ),
        (
            "crates/core/src/probe.rs",
            "//! fixture probe\nuse std::{env, fs};\n/// Reads the file the first argument names.\n\
             pub fn f() -> Vec<u8> {\n    fs::read(env::args().next().unwrap_or_default()).unwrap_or_default()\n}\n",
        ),
        (
            "clippy.toml",
            "# disallowed-types = []\ndisallowed-methods = []\n",
        ),
    ];
    let root = fixture_root("holes", files);
    let report = lint_workspace(&root).expect("fixture lints");
    let keys: Vec<(&str, usize, &str, &str)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule.id(), v.symbol.as_str()))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("clippy.toml", 1, "R4", "clippy"),
            ("crates/core/src/lib.rs", 1, "R4", "crate"),
            ("crates/core/src/probe.rs", 2, "R2", "std::env"),
            ("crates/core/src/probe.rs", 2, "R7", "std::fs"),
        ]
    );
}
