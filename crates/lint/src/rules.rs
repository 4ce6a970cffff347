//! The four rule families.
//!
//! * **R1 locality leak** — router implementation modules may not name
//!   whole-graph APIs (`Graph`, `GraphBuilder`, `EmbeddedGraph`,
//!   `locality_graph::graph`); a `k`-local router sees `G_k(u)` and
//!   nothing else, so its module must be physically unable to reach
//!   `G`.
//! * **R2 determinism** — the crates whose outputs must be
//!   bit-reproducible (`locality-graph`, `local-routing`,
//!   `locality-adversary`) may not use hash-ordered collections, wall
//!   clocks, the process environment, or NaN-unstable float
//!   comparisons. A narrower randomness-source arm applies to the
//!   fault-injection module and the chaos soak module
//!   ([`R2_DETRNG_FILES`]) regardless of crate: their whole contract is
//!   replayability from one seed, so every draw must come from the
//!   in-repo `DetRng` — ambient RNGs, OS entropy, and clocks are
//!   flagged even where full R2 does not apply. The simulator's
//!   scheduling/arena/driver files ([`R2_SIM_FILES`]) get the full R2
//!   treatment for the same reason: they carry the
//!   byte-identical-per-seed guarantee of `bin/chaos`.
//! * **R3 panic policy** — library code may not `unwrap()`, `expect(`,
//!   `panic!`, or (sub-rule `R3i`) index slices, except through the
//!   blessed dense-slot idiom `container[node.index()]` or an
//!   allowlisted, justified site. Test modules, benches, and binaries
//!   are exempt.
//! * **R4 lint hygiene** — every library crate root carries
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` (or a
//!   documented opt-out), and the workspace `clippy.toml` co-enforces
//!   R2/R3 natively.
//! * **R5 silent libraries** — library code may not write to
//!   stdout/stderr (`println!`, `eprintln!`, `print!`, `eprint!`):
//!   observability goes through the `locality-obs` recorder, whose
//!   output is deterministic and machine-readable. Binaries, tests,
//!   benches, and examples are exempt.
//! * **R6 hot-path allocation** and **R7 lock discipline** are the
//!   workspace-level families: they need the call graph and live in
//!   [`crate::usegraph`]; only their identifiers are declared here.
//!
//! This module holds the *per-file, textual* arms of the families; the
//! transitive arms (R1 reachability through re-exports, R2 taint
//! propagation, R6, R7) are implemented on the workspace use-graph in
//! [`crate::usegraph`].

use crate::scan;

/// Identifier of a rule family (sub-rule `R3i` is R3's slice-indexing
/// arm, split out so allowlist entries stay precise).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Locality leak in a router module.
    R1,
    /// Nondeterminism in a bit-reproducible crate.
    R2,
    /// Panicking call in library code.
    R3,
    /// Unchecked slice indexing in library code.
    R3i,
    /// Missing crate-level lint hygiene.
    R4,
    /// Direct stdout/stderr writes in library code.
    R5,
    /// Allocation inside a designated hot-path function.
    R6,
    /// Lock acquisition / blocking I/O reachable from the step path.
    R7,
}

impl Rule {
    /// The id used in reports and `lint.allow` entries.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R3i => "R3i",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
        }
    }

    /// Parses a rule id.
    pub fn from_id(s: &str) -> Option<Rule> {
        match s {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R3i" => Some(Rule::R3i),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            _ => None,
        }
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The symbol the finding binds to (an identifier, function name,
    /// or module path) — `lint.allow` entries match on it.
    pub symbol: String,
    /// What went wrong.
    pub message: String,
    /// The raw source line (untrimmed), shown in reports.
    pub raw_line: String,
    /// For transitive findings: the offending use/call chain, one hop
    /// per entry, ending at the root cause.
    pub chain: Vec<String>,
}

impl Violation {
    /// `RULE file:line: message` plus a trimmed excerpt and, for
    /// transitive findings, the full chain.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} {}:{}: {}\n    {}",
            self.rule.id(),
            self.file,
            self.line,
            self.message,
            self.raw_line.trim()
        );
        if !self.chain.is_empty() {
            s.push_str("\n    chain:");
            for hop in &self.chain {
                s.push_str("\n      -> ");
                s.push_str(hop);
            }
        }
        s
    }
}

/// How a file participates in the rule families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileClass {
    /// Library source: `crates/<c>/src/**` minus `src/bin` and
    /// `src/main.rs`.
    Lib,
    /// Binary tooling: `crates/<c>/src/bin/**`, `crates/<c>/src/main.rs`.
    Bin,
    /// Tests, benches, examples — exempt from R3.
    TestBench,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (_crate_dir, inside) = rest.split_once('/')?;
        if inside.starts_with("tests/") || inside.starts_with("benches/") {
            return Some(FileClass::TestBench);
        }
        if inside.starts_with("src/bin/") || inside == "src/main.rs" {
            return Some(FileClass::Bin);
        }
        if inside.starts_with("src/") {
            return Some(FileClass::Lib);
        }
        return None;
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some(FileClass::TestBench);
    }
    None
}

/// The crate directory name (`graph`, `core`, ...) of a path under
/// `crates/`.
pub fn crate_dir(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Router implementation modules covered by R1: the paper's positive
/// algorithms and the baseline/position/stateful comparators.
pub const R1_FILES: &[&str] = &[
    "crates/core/src/alg1.rs",
    "crates/core/src/alg1b.rs",
    "crates/core/src/alg2.rs",
    "crates/core/src/alg3.rs",
    "crates/core/src/baselines.rs",
    "crates/core/src/stateful.rs",
    "crates/core/src/position.rs",
];

/// Crates whose outputs must be bit-reproducible (R2). The tracing
/// layer (`obs`) is included: a trace is only useful as a golden or a
/// diff target if the bytes are a pure function of the run.
pub const R2_CRATES: &[&str] = &["graph", "core", "adversary", "obs"];

/// Files whose randomness may come only from the in-repo `DetRng`
/// (R2's randomness-source arm). Fault injection and the chaos soak
/// promise byte-identical replays from a single `u64` seed, so any
/// other entropy source — ambient RNGs, OS randomness, clocks — is a
/// violation even though these files sit outside [`R2_CRATES`].
pub const R2_DETRNG_FILES: &[&str] = &[
    "crates/sim/src/fault.rs",
    "crates/sim/src/workload.rs",
    "crates/bench/src/chaos.rs",
    "crates/bench/src/loadgen.rs",
];

/// Simulator hot-path files held to full R2 determinism even though
/// the `sim` crate as a whole sits outside [`R2_CRATES`]: the timing
/// wheel, the arrival arena, and the parallel trial driver are the
/// machinery behind the simulator's byte-identical-per-seed guarantee,
/// so hash-ordered collections, wall clocks, and NaN-unstable floats
/// are banned in them outright.
pub const R2_SIM_FILES: &[&str] = &[
    "crates/sim/src/sched.rs",
    "crates/sim/src/slab.rs",
    "crates/sim/src/driver.rs",
    "crates/sim/src/workload.rs",
    "crates/sim/src/admission.rs",
];

const R1_IDENTS: &[&str] = &["Graph", "GraphBuilder", "EmbeddedGraph"];
const R2_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "hash-ordered map: iteration order is nondeterministic",
    ),
    (
        "HashSet",
        "hash-ordered set: iteration order is nondeterministic",
    ),
    ("Instant", "wall-clock reads break bit-reproducibility"),
    ("SystemTime", "wall-clock reads break bit-reproducibility"),
    (
        "partial_cmp",
        "NaN-unstable float comparison; use total_cmp or integer keys",
    ),
];
const R2_PATHS: &[(&str, &str)] = &[
    ("std::time", "wall-clock reads break bit-reproducibility"),
    ("std::env", "environment reads break bit-reproducibility"),
];
const R2_RNG_IDENTS: &[(&str, &str)] = &[
    ("thread_rng", "ambient RNG breaks seed-replayability"),
    ("OsRng", "OS entropy breaks seed-replayability"),
    ("StdRng", "external RNG; draw from the in-repo DetRng"),
    ("SmallRng", "external RNG; draw from the in-repo DetRng"),
    ("getrandom", "OS entropy breaks seed-replayability"),
    ("fastrand", "external RNG; draw from the in-repo DetRng"),
    ("rand_core", "external RNG; draw from the in-repo DetRng"),
    ("RandomState", "hash-seeded state is nondeterministic"),
    ("Instant", "wall-clock reads break seed-replayability"),
    ("SystemTime", "wall-clock reads break seed-replayability"),
];

const R3_CALLS: &[&str] = &["unwrap", "expect"];
const R3_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const R5_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = ..`, `&mut [T]`, ..).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(tok: &str) -> bool {
    KEYWORDS.contains(&tok)
}

/// Runs R1/R2/R3/R3i over one file. `rel` is the workspace-relative
/// path; `source` the raw text.
pub fn check_file(rel: &str, source: &str) -> Vec<Violation> {
    let Some(class) = classify(rel) else {
        return Vec::new();
    };
    let pre = scan::preprocess(source);
    let r1 = R1_FILES.contains(&rel);
    let r2 = class != FileClass::TestBench
        && (crate_dir(rel).is_some_and(|c| R2_CRATES.contains(&c)) || R2_SIM_FILES.contains(&rel));
    let r2_rng = R2_DETRNG_FILES.contains(&rel);
    let r3 = class == FileClass::Lib;
    if !(r1 || r2 || r2_rng || r3) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, (masked_line, raw_line)) in pre.text.lines().zip(source.lines()).enumerate() {
        if pre.test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line_no = idx + 1;
        let mut push = |rule: Rule, symbol: String, message: String| {
            out.push(Violation {
                rule,
                file: rel.to_string(),
                line: line_no,
                symbol,
                message,
                raw_line: raw_line.to_string(),
                chain: Vec::new(),
            });
        };
        let idents = scan::identifiers(masked_line);
        if r1 {
            check_r1(masked_line, &idents, &mut push);
        }
        if r2 {
            check_r2(masked_line, &idents, &mut push);
        }
        if r2_rng {
            check_r2_rng(masked_line, &idents, &mut push);
        }
        if r3 {
            check_r3(masked_line, &idents, &mut push);
            check_r3i(masked_line, &idents, &mut push);
        }
        if class == FileClass::Lib {
            check_r5(masked_line, &idents, &mut push);
        }
    }
    out
}

fn check_r1(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(_, tok) in idents {
        if R1_IDENTS.contains(&tok) {
            push(
                Rule::R1,
                tok.to_string(),
                format!(
                    "`{tok}` is a whole-graph API; a k-local router module may only \
                     name LocalView/Subgraph/model types"
                ),
            );
        }
    }
    if masked_line.contains("locality_graph::graph") {
        push(
            Rule::R1,
            "locality_graph::graph".to_string(),
            "`locality_graph::graph` is the whole-graph module; router modules must \
             not reach it"
                .to_string(),
        );
    }
}

fn check_r2(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(_, tok) in idents {
        if let Some(&(_, why)) = R2_IDENTS.iter().find(|&&(name, _)| name == tok) {
            push(
                Rule::R2,
                tok.to_string(),
                format!("`{tok}` in a bit-reproducible crate: {why}"),
            );
        }
    }
    for &(path, why) in R2_PATHS {
        if masked_line.contains(path) {
            push(
                Rule::R2,
                path.to_string(),
                format!("`{path}` in a bit-reproducible crate: {why}"),
            );
        }
    }
}

fn check_r2_rng(
    _masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(_, tok) in idents {
        if let Some(&(_, why)) = R2_RNG_IDENTS.iter().find(|&&(name, _)| name == tok) {
            push(
                Rule::R2,
                tok.to_string(),
                format!("`{tok}` in a seed-replayable fault/chaos file: {why}; use DetRng"),
            );
        }
    }
}

fn check_r3(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(off, tok) in idents {
        let next = scan::next_nonspace(masked_line, off + tok.len()).map(|(_, b)| b);
        if R3_CALLS.contains(&tok) && next == Some(b'(') {
            push(
                Rule::R3,
                tok.to_string(),
                format!("`{tok}(` can panic in library code; return a typed error or allowlist with a justification"),
            );
        }
        if R3_MACROS.contains(&tok) && next == Some(b'!') {
            push(
                Rule::R3,
                tok.to_string(),
                format!("`{tok}!` panics in library code; return a typed error or allowlist with a justification"),
            );
        }
    }
}

fn check_r5(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(off, tok) in idents {
        let next = scan::next_nonspace(masked_line, off + tok.len()).map(|(_, b)| b);
        if R5_MACROS.contains(&tok) && next == Some(b'!') {
            push(
                Rule::R5,
                tok.to_string(),
                format!(
                    "`{tok}!` writes to stdout/stderr from library code; emit through the \
                     locality-obs recorder or allowlist with a justification"
                ),
            );
        }
    }
}

fn check_r3i(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    let bytes = masked_line.as_bytes();
    for (open, _) in bytes.iter().enumerate().filter(|&(_, &b)| b == b'[') {
        let Some((prev_off, prev)) = scan::prev_nonspace(masked_line, open) else {
            continue;
        };
        let mut receiver = "[]".to_string();
        let indexable = match prev {
            b')' | b']' | b'?' => true,
            b if b.is_ascii_alphanumeric() || b == b'_' => {
                // The identifier ending at prev_off must not be a
                // keyword (`let [a, b] = ..` is a pattern, not an
                // index) and not a lifetime (`&'a [u8]` is a type).
                idents
                    .iter()
                    .rev()
                    .find(|&&(o, t)| o <= prev_off && o + t.len() > prev_off)
                    .map(|&(o, t)| {
                        receiver = t.to_string();
                        let lifetime = o > 0 && bytes.get(o - 1) == Some(&b'\'');
                        !is_keyword(t) && !lifetime
                    })
                    .unwrap_or(true)
            }
            _ => false,
        };
        if !indexable {
            continue;
        }
        // Bracket content, matched within the line (fall back to
        // end-of-line when the expression wraps).
        let mut depth = 0usize;
        let mut close = masked_line.len();
        for (j, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let content = masked_line.get(open + 1..close).unwrap_or("");
        if content.trim().is_empty() {
            continue;
        }
        if content.contains(".index()") {
            // The blessed dense-slot idiom: NodeId::index() into a
            // slot-aligned Vec is bounds-correct by construction.
            continue;
        }
        push(
            Rule::R3i,
            receiver,
            "unchecked slice indexing can panic; use `.get()`, the dense `container[node.index()]` idiom, or allowlist with a justification"
                .to_string(),
        );
    }
}

/// R4: crate-root hygiene for `crates/<c>/src/lib.rs`.
///
/// The `missing_docs` requirement accepts a documented opt-out: a line
/// containing `locality-lint: allow missing_docs` (with a reason) in
/// the crate root.
pub fn check_crate_root(rel: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |message: String| {
        out.push(Violation {
            rule: Rule::R4,
            file: rel.to_string(),
            line: 1,
            symbol: "crate".to_string(),
            message,
            raw_line: source.lines().next().unwrap_or("").to_string(),
            chain: Vec::new(),
        });
    };
    if !source.contains("#![forbid(unsafe_code)]") {
        push("crate root must carry `#![forbid(unsafe_code)]`".to_string());
    }
    if !source.contains("#![deny(missing_docs)]")
        && !source.contains("locality-lint: allow missing_docs")
    {
        push(
            "crate root must carry `#![deny(missing_docs)]` (or a documented \
             `locality-lint: allow missing_docs` opt-out)"
                .to_string(),
        );
    }
    out
}

/// R4: the workspace `clippy.toml` must co-enforce R2/R3 natively.
pub fn check_clippy_toml(clippy_toml: Option<&str>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |message: String| {
        out.push(Violation {
            rule: Rule::R4,
            file: "clippy.toml".to_string(),
            line: 1,
            symbol: "clippy".to_string(),
            message,
            raw_line: String::new(),
            chain: Vec::new(),
        });
    };
    match clippy_toml {
        None => push(
            "workspace is missing clippy.toml (clippy must co-enforce R2/R3 via \
             disallowed-types/disallowed-methods)"
                .to_string(),
        ),
        Some(text) => {
            for key in ["disallowed-types", "disallowed-methods"] {
                if !text.contains(key) {
                    push(format!("clippy.toml is missing a `{key}` section"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn r1_catches_whole_graph_names_in_router_modules() {
        let src = "use locality_graph::{Graph, NodeId};\nfn f(g: &Graph) {}\n";
        let v = check_file("crates/core/src/alg1.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R1, Rule::R1]);
        // The same text is fine outside an R1 module (engine is the
        // driver and is allowed to hold G).
        assert!(check_file("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn r1_catches_the_graph_module_path_but_not_subgraph() {
        let src = "use locality_graph::graph::something;\nuse locality_graph::Subgraph;\n";
        let v = check_file("crates/core/src/alg2.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R1]);
        assert_eq!(v.first().map(|x| x.line), Some(1));
    }

    #[test]
    fn r2_catches_hash_collections_in_reproducible_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = d(); }\n";
        let v = check_file("crates/graph/src/foo.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R2, Rule::R2]);
        // The simulator crate is not bit-reproducibility-scoped.
        assert!(check_file("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r2_catches_clocks_env_and_nan_unstable_comparisons() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { let h = std::env::var(\"HOME\"); }\n\
                   fn h(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        let v = check_file("crates/adversary/src/foo.rs", src);
        // Line 1 fires twice (Instant ident + std::time path).
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| x.rule == Rule::R2));
    }

    #[test]
    fn r2_ignores_strings_comments_and_tests() {
        let src = "// HashMap in a comment\nconst N: &str = \"HashMap\";\n\
                   #[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n";
        assert!(check_file("crates/graph/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r2_rng_arm_covers_fault_and_chaos_files_only() {
        let src = "fn f() { let mut r = rand::thread_rng(); }\n\
                   fn g() { let t = std::time::SystemTime::now(); }\n";
        // The fault module is Lib code inside a non-R2 crate: only the
        // randomness-source arm fires (plus nothing from full R2).
        let v = check_file("crates/sim/src/fault.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R2, Rule::R2]);
        // The chaos soak lives in the bench crate — outside R2_CRATES —
        // but the randomness arm still applies.
        let v = check_file("crates/bench/src/chaos.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R2, Rule::R2]);
        // Other sim files and bench bins are untouched.
        assert!(check_file("crates/sim/src/network.rs", src).is_empty());
        assert!(check_file("crates/bench/src/bin/perfsmoke.rs", src).is_empty());
        assert!(check_file("crates/bench/src/bin/chaos.rs", src).is_empty());
    }

    #[test]
    fn r2_sim_arm_covers_scheduler_arena_and_driver() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        // The wheel, the slab, the driver, and the overload modules get
        // full R2 despite the sim crate sitting outside R2_CRATES. A
        // file that is *also* in the DetRng set (the workload) picks up
        // one extra hit from the randomness-source arm.
        for rel in super::R2_SIM_FILES {
            let v = check_file(rel, src);
            let expected = if super::R2_DETRNG_FILES.contains(rel) {
                4
            } else {
                3
            };
            assert_eq!(rules_of(&v), vec![Rule::R2; expected], "{rel}");
        }
        // Deterministic ordered collections pass.
        let ok = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u64, u32>) {}\n";
        assert!(check_file("crates/sim/src/sched.rs", ok).is_empty());
        // Other sim lib files still see only R3/R3i, not R2.
        assert!(check_file("crates/sim/src/network.rs", src).is_empty());
    }

    #[test]
    fn r2_rng_arm_accepts_detrng() {
        let src = "use locality_graph::rng::DetRng;\n\
                   fn f() { let mut r = DetRng::seed_from_u64(7); let _ = r.gen_bool(0.5); }\n";
        assert!(check_file("crates/sim/src/fault.rs", src).is_empty());
        assert!(check_file("crates/bench/src/chaos.rs", src).is_empty());
    }

    #[test]
    fn artifact_tier_modules_get_determinism_and_panic_coverage() {
        // The codec and the oracle produce byte-identical artifacts,
        // so both must sit inside the R2 determinism net and the R3
        // panic-policy net; a rename or reclassification that dropped
        // them out of coverage would go unnoticed without this pin.
        let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for rel in ["crates/graph/src/codec.rs", "crates/core/src/oracle.rs"] {
            let v = check_file(rel, src);
            assert_eq!(rules_of(&v), vec![Rule::R2, Rule::R3], "{rel}");
        }
        // Codec-style clean code — bounds-checked reads, typed errors —
        // passes untouched.
        let ok = "fn f(v: &[u8], i: usize) -> Option<u8> { v.get(i).copied() }\n";
        for rel in ["crates/graph/src/codec.rs", "crates/core/src/oracle.rs"] {
            assert!(check_file(rel, ok).is_empty(), "{rel}");
        }
        // The artifact CLI is a bench bin: neither net reaches it.
        assert!(check_file("crates/bench/src/bin/oracle.rs", src).is_empty());
    }

    #[test]
    fn r3_catches_panicking_calls_in_lib_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"present\") }\n\
                   fn h() { panic!(\"boom\"); }\n";
        let v = check_file("crates/sim/src/foo.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R3, Rule::R3, Rule::R3]);
        assert!(check_file("crates/bench/src/bin/foo.rs", src).is_empty());
        assert!(check_file("crates/sim/tests/foo.rs", src).is_empty());
        assert!(check_file("tests/foo.rs", src).is_empty());
        assert!(check_file("examples/foo.rs", src).is_empty());
    }

    #[test]
    fn r3_does_not_flag_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(check_file("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r3i_catches_raw_indexing_but_blesses_dense_slots() {
        let flagged = "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
        assert_eq!(
            rules_of(&check_file("crates/sim/src/foo.rs", flagged)),
            vec![Rule::R3i]
        );
        let blessed = "fn f(v: &[u32], u: NodeId) -> u32 { v[u.index()] }\n";
        assert!(check_file("crates/sim/src/foo.rs", blessed).is_empty());
    }

    #[test]
    fn r3i_ignores_lifetimes_in_slice_types() {
        // `&'a [u8]` is a type, not an index expression; v1 flagged it
        // and needed allowlist entries to paper over the false
        // positive.
        let src = "pub struct R<'a> { buf: &'a [u8] }\n\
                   fn f<'a>(x: &'a [u8]) -> &'a [u8] { x }\n";
        assert!(check_file("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r3i_ignores_types_patterns_attributes_and_macros() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n\
                   fn f(s: &S) -> Vec<u32> { let [x, y] = [1u32, 2]; vec![x, y] }\n\
                   fn g(v: &mut [u32]) {}\n";
        assert!(check_file("crates/sim/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r5_catches_stdout_writes_in_lib_code_only() {
        let src = "fn f() { println!(\"hi\"); }\nfn g() { eprintln!(\"err\"); }\n\
                   fn h() { print!(\"x\"); eprint!(\"y\"); }\n";
        let v = check_file("crates/sim/src/foo.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R5, Rule::R5, Rule::R5, Rule::R5]);
        // Binaries, tests, and examples stay free to print.
        assert!(check_file("crates/bench/src/bin/foo.rs", src).is_empty());
        assert!(check_file("crates/lint/src/main.rs", src).is_empty());
        assert!(check_file("tests/foo.rs", src).is_empty());
        assert!(check_file("examples/foo.rs", src).is_empty());
        // A `println` identifier without `!` (e.g. a doc mention) is fine.
        let ok = "fn f() { let println = 3; let _ = println; }\n";
        assert!(check_file("crates/sim/src/foo.rs", ok).is_empty());
    }

    #[test]
    fn r4_requires_crate_root_headers() {
        let bad = "//! docs\n";
        let v = check_crate_root("crates/sim/src/lib.rs", bad);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::R4));
        let good = "//! docs\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(check_crate_root("crates/sim/src/lib.rs", good).is_empty());
        let opted_out =
            "//! docs\n#![forbid(unsafe_code)]\n// locality-lint: allow missing_docs: generated\n";
        assert!(check_crate_root("crates/sim/src/lib.rs", opted_out).is_empty());
    }

    #[test]
    fn r4_requires_clippy_toml_sections() {
        assert_eq!(check_clippy_toml(None).len(), 1);
        assert_eq!(check_clippy_toml(Some("disallowed-types = []")).len(), 1);
        assert!(
            check_clippy_toml(Some("disallowed-types = []\ndisallowed-methods = []")).is_empty()
        );
    }
}
