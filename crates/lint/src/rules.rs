//! The rule families, run file by file.
//!
//! * **R1 locality leak** — router implementation modules
//!   ([`R1_FILES`]) may not name whole-graph APIs (`Graph`,
//!   `GraphBuilder`, `EmbeddedGraph`, `locality_graph::graph`); a
//!   `k`-local router sees `G_k(u)` and nothing else, so its module
//!   must be physically unable to reach `G`. This is R1's textual arm;
//!   the arm that follows aliases and re-export chains runs on the
//!   workspace use-graph in [`crate::usegraph`].
//! * **R2 determinism** — trial code (see below) must replay
//!   byte for byte from one seed, so it may not use hash-ordered
//!   collections, wall clocks, the process environment, NaN-unstable
//!   float comparisons, or any randomness but the in-repo `DetRng`.
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
//! * **R6 hot-path allocation** ([`check_r6`]) — no `Vec::new`/`vec!`/
//!   `Box::new`/`format!`/`collect`/`to_vec` inside a file's designated
//!   hot-path functions, outside setup constructors.
//! * **R7 lock discipline** — trial code may not name a lock or a
//!   blocking-I/O type or path: trials run side by side on the
//!   fan-out's threads, so a lock or a blocking call in one trial
//!   could stall another, and a trial's cost would no longer be its own
//!   work.
//!
//! Trial code is the library code of the `graph`, `core`, `adversary`,
//! `obs` and `sim` crates plus the bench crate's `chaos.rs` and
//! `loadgen.rs`: what runs inside `fanout::run_trials` jobs. R2 and R7
//! scan each of its lines, so a source is flagged where it is written.
//! That reaches everything code in those crates can call, because they
//! depend only on one another (the `tests` module below checks the
//! closure against the manifests).

use crate::lexer::{identifiers, next_nonspace, preprocess, prev_nonspace, Lexed, TokenKind};
use crate::symbols::FnDef;

/// Identifier of a rule family (sub-rule `R3i` is R3's slice-indexing
/// arm, split out so allowlist entries stay precise).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Locality leak in a router module.
    R1,
    /// Nondeterminism in trial code.
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
    /// A lock or blocking I/O in trial code.
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
    /// For R1's use-graph findings: the offending `use` chain, one hop
    /// per entry, ending at the whole-graph API.
    pub chain: Vec<String>,
}

impl Violation {
    /// `RULE file:line: message` plus a trimmed excerpt and, for
    /// use-graph findings, the full chain.
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
    "crates/core/src/alg2.rs",
    "crates/core/src/alg3.rs",
    "crates/core/src/baselines.rs",
    "crates/core/src/stateful.rs",
    "crates/core/src/position.rs",
];

/// Crates whose library code runs inside trial jobs (R2 and R7). The
/// tracing layer (`obs`) is included: a trace is only useful as a
/// golden or a diff target if the bytes are a pure function of the run.
const TRIAL_CRATES: &[&str] = &["graph", "core", "adversary", "obs", "sim"];

/// The bench crate's trial modules, scoped like `TRIAL_CRATES`: the
/// chaos soak and the capacity load generator promise byte-identical
/// replays from one `u64` seed.
const TRIAL_FILES: &[&str] = &["crates/bench/src/chaos.rs", "crates/bench/src/loadgen.rs"];

/// Files whose every function is R6 hot-path scope.
const R6_FILES: &[&str] = &[
    "crates/sim/src/sched.rs",
    "crates/sim/src/slab.rs",
    "crates/sim/src/workload.rs",
    "crates/sim/src/admission.rs",
    // The one fan-out behind the trial driver, the parallel matrix,
    // the artifact build and the adversary scans.
    "crates/graph/src/fanout.rs",
    // Per-hop loop detection for the engine and the simulator.
    "crates/core/src/visited.rs",
    // The chunked trace reader: its per-line loop runs once per event
    // over multi-GB corpora, so a stray per-line allocation turns the
    // bounded-memory design into an allocator benchmark.
    "crates/obs/src/analytics/reader.rs",
];
/// The view module, whose step-table functions (`R6_VIEW_FNS`) are
/// R6 scope.
const R6_VIEW: &str = "crates/core/src/view.rs";
/// The step-table functions of `R6_VIEW` in R6 scope.
const R6_VIEW_FNS: &[&str] = &["step_table", "shortest_step_toward"];
/// The codec module, whose decode path (`decode*` functions and the
/// methods of `Reader`) is R6 scope.
const R6_CODEC: &str = "crates/graph/src/codec.rs";

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
    ("RandomState", "hash-seeded state is nondeterministic"),
    ("Instant", "wall-clock reads break bit-reproducibility"),
    ("SystemTime", "wall-clock reads break bit-reproducibility"),
    (
        "partial_cmp",
        "NaN-unstable float comparison; use total_cmp or integer keys",
    ),
    ("thread_rng", "ambient RNG breaks seed-replayability"),
    ("OsRng", "OS entropy breaks seed-replayability"),
    ("getrandom", "OS entropy breaks seed-replayability"),
    ("StdRng", "external RNG; draw from the in-repo DetRng"),
    ("SmallRng", "external RNG; draw from the in-repo DetRng"),
    ("fastrand", "external RNG; draw from the in-repo DetRng"),
    ("rand_core", "external RNG; draw from the in-repo DetRng"),
];
const R2_PATHS: &[(&str, &str)] = &[
    ("std::time", "wall-clock reads break bit-reproducibility"),
    ("std::env", "environment reads break bit-reproducibility"),
];
/// Lock and blocking-I/O types (R7).
const R7_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "Stdin",
    "Stdout",
];
/// Blocking-I/O module paths (R7).
const R7_PATHS: &[&str] = &["std::fs", "std::net"];

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

/// Runs the line-by-line arms (R1's textual arm, R2, R3, R3i, R5, R7)
/// over one file. `rel` is the workspace-relative path; `source` the
/// raw text.
pub fn check_file(rel: &str, source: &str) -> Vec<Violation> {
    if classify(rel) != Some(FileClass::Lib) {
        return Vec::new();
    }
    let pre = preprocess(source);
    let r1 = R1_FILES.contains(&rel);
    let trial =
        crate_dir(rel).is_some_and(|c| TRIAL_CRATES.contains(&c)) || TRIAL_FILES.contains(&rel);
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
        let idents = identifiers(masked_line);
        if r1 {
            check_r1(masked_line, &idents, &mut push);
        }
        if trial {
            check_r2(masked_line, &idents, &mut push);
            check_r7(masked_line, &idents, &mut push);
        }
        check_r3(masked_line, &idents, &mut push);
        check_r3i(masked_line, &idents, &mut push);
        check_r5(masked_line, &idents, &mut push);
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
                format!("`{tok}` in trial code: {why}"),
            );
        }
    }
    for &(path, why) in R2_PATHS {
        if masked_line.contains(path) {
            push(
                Rule::R2,
                path.to_string(),
                format!("`{path}` in trial code: {why}"),
            );
        }
    }
}

fn check_r7(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    let types = idents
        .iter()
        .map(|&(_, tok)| tok)
        .filter(|tok| R7_IDENTS.contains(tok));
    let paths = R7_PATHS
        .iter()
        .copied()
        .filter(|path| masked_line.contains(path));
    for name in types.chain(paths) {
        push(
            Rule::R7,
            name.to_string(),
            format!(
                "`{name}` locks or blocks in trial code: trials run side by side on the \
                 fan-out's threads, so one trial's lock or blocking call would stall another"
            ),
        );
    }
}

fn check_r3(
    masked_line: &str,
    idents: &[(usize, &str)],
    push: &mut impl FnMut(Rule, String, String),
) {
    for &(off, tok) in idents {
        let next = next_nonspace(masked_line, off + tok.len()).map(|(_, b)| b);
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
        let next = next_nonspace(masked_line, off + tok.len()).map(|(_, b)| b);
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
        let Some((prev_off, prev)) = prev_nonspace(masked_line, open) else {
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

fn r6_in_scope(rel: &str, def: &FnDef) -> bool {
    let setup = matches!(def.name.as_str(), "new" | "default")
        || ["from_", "with_", "build"]
            .iter()
            .any(|prefix| def.name.starts_with(prefix));
    if def.is_test || setup {
        return false;
    }
    match rel {
        R6_VIEW => R6_VIEW_FNS.contains(&def.name.as_str()),
        R6_CODEC => def.name.starts_with("decode") || def.self_ty.as_deref() == Some("Reader"),
        _ => R6_FILES.contains(&rel),
    }
}

/// The allocation that token `j` of a function ending at token `hi`
/// starts, if any: `Vec::new`, `Box::new`, `format!`, `vec!`,
/// `collect(` (turbofish included) or `to_vec(`.
fn allocation_at(lx: &Lexed, j: usize, hi: usize) -> Option<&str> {
    let path_new =
        lx.is_punct(j + 1, b':') && lx.is_punct(j + 2, b':') && lx.is_ident(j + 3, "new");
    match lx.text(j) {
        "Vec" if path_new => Some("Vec::new"),
        "Box" if path_new => Some("Box::new"),
        "format" if lx.is_punct(j + 1, b'!') => Some("format!"),
        "vec" if lx.is_punct(j + 1, b'!') => Some("vec!"),
        name @ ("collect" | "to_vec") => {
            let mut k = j + 1;
            if lx.is_punct(k, b':') && lx.is_punct(k + 1, b':') && lx.is_punct(k + 2, b'<') {
                let mut depth = 1usize;
                k += 3;
                while k <= hi && depth > 0 {
                    if lx.is_punct(k, b'<') {
                        depth += 1;
                    } else if lx.is_punct(k, b'>') {
                        depth -= 1;
                    }
                    k += 1;
                }
            }
            lx.is_punct(k, b'(').then_some(name)
        }
        _ => None,
    }
}

/// R6 over one file: allocations inside its hot-path functions, read
/// from the file's own function spans (`fns`, from
/// [`crate::symbols::parse`]). Setup constructors (`new`, `default`,
/// `from_*`, `with_*`, `build*`) are exempt.
pub fn check_r6(rel: &str, lx: &Lexed, fns: &[FnDef]) -> Vec<Violation> {
    let mut out = Vec::new();
    for def in fns.iter().filter(|def| r6_in_scope(rel, def)) {
        let qname = match &def.self_ty {
            Some(ty) => format!("{ty}::{}", def.name),
            None => def.name.clone(),
        };
        for j in def.tok_lo..=def.tok_hi {
            let Some(t) = lx.tok(j) else { break };
            if t.kind != TokenKind::Ident || lx.is_test_line(t.line) {
                continue;
            }
            let Some(what) = allocation_at(lx, j, def.tok_hi) else {
                continue;
            };
            out.push(Violation {
                rule: Rule::R6,
                file: rel.to_string(),
                line: t.line,
                symbol: def.name.clone(),
                message: format!(
                    "`{what}` allocates inside hot-path fn `{qname}`; hoist to a setup fn \
                     (new/default/from_*/with_*/build*) or allowlist with a justification"
                ),
                raw_line: lx
                    .masked
                    .lines()
                    .nth(t.line.saturating_sub(1))
                    .unwrap_or("")
                    .trim()
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
    out
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
        for rel in ["crates/graph/src/foo.rs", "crates/sim/src/foo.rs"] {
            assert_eq!(
                rules_of(&check_file(rel, src)),
                vec![Rule::R2, Rule::R2],
                "{rel}"
            );
        }
        // Bench library code outside the two trial modules is not
        // bit-reproducibility-scoped.
        assert!(check_file("crates/bench/src/experiments.rs", src).is_empty());
    }

    #[test]
    fn r2_survives_the_clippy_opt_out_attribute() {
        // `bench::simbench` and `bench::timing` open with this attribute
        // to read clocks; clippy's `disallowed-types` then stays silent,
        // so R2 is the only guard left in the deterministic crates.
        let src = "#![allow(clippy::disallowed_types)]\nuse std::collections::HashMap;\n";
        let v = check_file("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&v), vec![Rule::R2]);
        assert_eq!(
            v.first().map(|x| (x.line, x.symbol.as_str())),
            Some((2, "HashMap"))
        );
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
        // The RNG names sit in R2's one list, so fault injection, the
        // chaos soak and the load generator see them with every other
        // trial file; bench binaries, bench modules outside the two
        // trial files, the lint and integration tests do not.
        let src = "fn f() { let mut r = rand::thread_rng(); }\n\
                   fn g() { let t = std::time::SystemTime::now(); }\n";
        for rel in [
            "crates/sim/src/fault.rs",
            "crates/bench/src/chaos.rs",
            "crates/bench/src/loadgen.rs",
        ] {
            let v = check_file(rel, src);
            let at: Vec<(usize, &str)> = v.iter().map(|x| (x.line, x.symbol.as_str())).collect();
            assert_eq!(rules_of(&v), vec![Rule::R2; 3], "{rel}");
            assert_eq!(
                at,
                vec![(1, "thread_rng"), (2, "SystemTime"), (2, "std::time")]
            );
        }
        for rel in [
            "crates/bench/src/bin/chaos.rs",
            "crates/bench/src/bin/perfsmoke.rs",
            "crates/bench/src/timing.rs",
            "crates/lint/src/lib.rs",
            "crates/sim/tests/foo.rs",
        ] {
            assert!(check_file(rel, src).is_empty(), "{rel}");
        }
    }

    #[test]
    fn r2_sim_arm_covers_scheduler_arena_and_driver() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        // The wheel, the slab, the workload and the overload modules,
        // the rest of the sim crate and the trial driver (the graph
        // crate's fan-out) are all trial code under full R2.
        for rel in [
            "crates/sim/src/sched.rs",
            "crates/sim/src/slab.rs",
            "crates/sim/src/workload.rs",
            "crates/sim/src/admission.rs",
            "crates/sim/src/network.rs",
            "crates/graph/src/fanout.rs",
        ] {
            assert_eq!(rules_of(&check_file(rel, src)), vec![Rule::R2; 3], "{rel}");
        }
        // Deterministic ordered collections pass.
        let ok = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u64, u32>) {}\n";
        assert!(check_file("crates/sim/src/sched.rs", ok).is_empty());
    }

    #[test]
    fn r7_flags_locks_and_blocking_io_in_trial_code_only() {
        let src = "use std::sync::Mutex;\n\
                   fn f() -> std::io::Result<Vec<u8>> { std::fs::read(\"x\") }\n\
                   fn g(s: &std::net::TcpStream) {}\n";
        for rel in [
            "crates/core/src/foo.rs",
            "crates/sim/src/network.rs",
            "crates/bench/src/loadgen.rs",
        ] {
            let v = check_file(rel, src);
            let at: Vec<(usize, &str)> = v.iter().map(|x| (x.line, x.symbol.as_str())).collect();
            assert_eq!(rules_of(&v), vec![Rule::R7; 4], "{rel}");
            assert_eq!(
                at,
                vec![
                    (1, "Mutex"),
                    (2, "std::fs"),
                    (3, "TcpStream"),
                    (3, "std::net")
                ]
            );
        }
        assert!(check_file("crates/bench/src/bin/perfsmoke.rs", src).is_empty());
        // A doc comment or a test module may name them.
        let ok = "/// Reads a File.\nfn f() {}\n#[cfg(test)]\nmod tests {\n use std::sync::Barrier;\n}\n";
        assert!(check_file("crates/core/src/engine.rs", ok).is_empty());
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

    fn r6(rel: &str, src: &str) -> Vec<(String, String)> {
        let lx = crate::lexer::lex(src);
        let fns = crate::symbols::parse(rel, &lx).fns;
        check_r6(rel, &lx, &fns)
            .into_iter()
            .map(|x| {
                let what = x.message.split('`').nth(1).unwrap_or("").to_string();
                (x.symbol, what)
            })
            .collect()
    }

    #[test]
    fn r6_flags_hot_path_allocations_outside_setup_fns() {
        let src = "pub struct Wheel { slots: Vec<u32> }\n\
                   impl Wheel {\n\
                       pub fn new() -> Wheel { Wheel { slots: Vec::new() } }\n\
                       pub fn advance(&mut self) { let v: Vec<u32> = Vec::new(); let _ = v; }\n\
                       pub fn drain(&self) -> Vec<u32> { self.slots.iter().copied().collect() }\n\
                       pub fn grow(&mut self) { self.slots = vec![0; 8]; }\n\
                       pub fn sorted(&self) -> Vec<u32> { self.slots.iter().copied().collect::<Vec<_>>() }\n\
                   }\n";
        let pair = |s: &str, w: &str| (s.to_string(), w.to_string());
        assert_eq!(
            r6("crates/sim/src/sched.rs", src),
            vec![
                pair("advance", "Vec::new"),
                pair("drain", "collect"),
                pair("grow", "vec!"),
                pair("sorted", "collect"),
            ],
            "the setup fn `new` is exempt"
        );
        // Outside R6 scope nothing is flagged.
        assert!(r6("crates/sim/src/network.rs", src).is_empty());
        // In the view and the codec only the named paths are hot.
        let view =
            "fn step_table() -> Vec<u32> { vec![1] }\nfn members() -> Vec<u32> { vec![1] }\n";
        assert_eq!(r6(R6_VIEW, view), vec![pair("step_table", "vec!")]);
        let codec =
            "fn decode_view() -> Vec<u8> { Vec::new() }\nfn encode() -> Vec<u8> { Vec::new() }\n\
                     impl Reader { fn u32(&mut self) -> Vec<u8> { self.b.to_vec() } }\n";
        assert_eq!(
            r6(R6_CODEC, codec),
            vec![pair("decode_view", "Vec::new"), pair("u32", "to_vec")]
        );
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

    /// The workspace root, read by the tests that check the lint's scope
    /// lists against the workspace they describe.
    fn workspace_root() -> std::path::PathBuf {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        crate::walk::find_workspace_root(here).expect("tests run inside the workspace")
    }

    fn read(path: &std::path::Path) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The names of the non-test functions `rel` defines.
    fn fns_defined_in(root: &std::path::Path, rel: &str) -> Vec<String> {
        let lx = crate::lexer::lex(&read(&root.join(rel)));
        crate::symbols::parse(rel, &lx)
            .fns
            .into_iter()
            .filter(|f| !f.is_test)
            .map(|f| f.name)
            .collect()
    }

    #[test]
    fn every_path_the_lint_names_exists() {
        // A renamed file or function drops out of its rule without a
        // finding, so each must still be where the lint looks for it.
        let root = workspace_root();
        let named = R1_FILES
            .iter()
            .chain(TRIAL_FILES)
            .chain(R6_FILES)
            .chain([&R6_VIEW, &R6_CODEC]);
        for rel in named {
            assert!(
                root.join(rel).is_file(),
                "the lint names {rel}, which does not exist"
            );
        }
        for dir in TRIAL_CRATES {
            let lib = format!("crates/{dir}/src/lib.rs");
            assert!(
                root.join(&lib).is_file(),
                "trial crate `{dir}` has no {lib}"
            );
        }
        let view = fns_defined_in(&root, R6_VIEW);
        for name in R6_VIEW_FNS {
            assert!(
                view.iter().any(|f| f == name),
                "`{name}` is not a function of {R6_VIEW}"
            );
        }
        assert!(
            fns_defined_in(&root, R6_CODEC)
                .iter()
                .any(|f| f.starts_with("decode")),
            "{R6_CODEC} has no decode function in R6 scope"
        );
    }

    /// The key of a `name = ...` or `name.key = ...` manifest line.
    fn manifest_key(line: &str) -> Option<&str> {
        let (lhs, _) = line.split_once('=')?;
        lhs.split('.').next().map(str::trim)
    }

    /// Package name → `crates/<dir>` directory, from the path entries of
    /// the root manifest's `[workspace.dependencies]`.
    fn workspace_crates(manifest: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut inside = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                inside = line == "[workspace.dependencies]";
                continue;
            }
            let dir = line
                .split_once("path = \"crates/")
                .and_then(|(_, rest)| rest.split('"').next());
            if let (true, Some(name), Some(dir)) = (inside, manifest_key(line), dir) {
                out.push((name.to_string(), dir.to_string()));
            }
        }
        out
    }

    /// Package names a crate manifest depends on: the `[dependencies]`
    /// table, target-specific ones, and `[dependencies.<name>]` tables.
    /// Dev- and build-dependencies never run inside a trial.
    fn dependencies(manifest: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut inside = false;
        for line in manifest.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                let header = header.trim_end_matches(']');
                inside = header == "dependencies" || header.ends_with(".dependencies");
                if let Some(name) = header.strip_prefix("dependencies.") {
                    out.push(name.to_string());
                }
                continue;
            }
            if let (true, Some(name)) = (inside, manifest_key(line)) {
                if !name.is_empty() && !name.starts_with('#') {
                    out.push(name.to_string());
                }
            }
        }
        out
    }

    /// `dir -> package` for every dependency of a trial crate that is
    /// not itself a trial crate.
    fn escapes(root: &std::path::Path) -> Vec<String> {
        let crates = workspace_crates(&read(&root.join("Cargo.toml")));
        let mut out = Vec::new();
        for dir in TRIAL_CRATES {
            let manifest = read(&root.join("crates").join(dir).join("Cargo.toml"));
            for dep in dependencies(&manifest) {
                let in_scope = crates
                    .iter()
                    .any(|(name, d)| *name == dep && TRIAL_CRATES.contains(&d.as_str()));
                if !in_scope {
                    out.push(format!("{dir} -> {dep}"));
                }
            }
        }
        out
    }

    /// R2 and R7 scan trial files line by line instead of following
    /// calls. That reaches every source trial code can call only
    /// because a trial crate can call into nothing but trial crates: a
    /// trial crate that gained a dependency outside the scope (say
    /// `core` on `bench`) could call code neither arm scans, so this
    /// test fails first.
    #[test]
    fn the_trial_crates_depend_only_on_trial_crates() {
        let root = workspace_root();
        assert_eq!(escapes(&root), Vec::<String>::new());

        // The same manifests, with `core` gaining a dependency on `bench`.
        let copy = std::env::temp_dir().join(format!("locality-lint-scope-{}", std::process::id()));
        for dir in TRIAL_CRATES {
            let to = copy.join("crates").join(dir);
            std::fs::create_dir_all(&to).expect("scratch crate dir");
            let mut manifest = read(&root.join("crates").join(dir).join("Cargo.toml"));
            if *dir == "core" {
                manifest = manifest.replacen(
                    "[dependencies]\n",
                    "[dependencies]\nlocality-bench = { workspace = true }\n",
                    1,
                );
            }
            std::fs::write(to.join("Cargo.toml"), manifest).expect("scratch manifest");
        }
        std::fs::write(copy.join("Cargo.toml"), read(&root.join("Cargo.toml")))
            .expect("root manifest");
        let found = escapes(&copy);
        std::fs::remove_dir_all(&copy).expect("scratch dir removable");
        assert_eq!(found, vec!["core -> locality-bench".to_string()]);
    }
}
