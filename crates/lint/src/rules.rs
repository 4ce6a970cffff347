//! The rule families, run file by file.
//!
//! Every arm reads the one [`Lexed`] the lint builds per file: the
//! masked text, its `#[cfg(test)]` line flags and its token stream.
//! Names are matched as identifier tokens and module paths as token
//! sequences (`std :: env`) and through every leaf of a `use` tree, so
//! a grouped import (`use std::{env, fs};`) names each path it holds.
//! Nothing in a comment or a string literal counts, R4's attributes
//! included. Excerpts come from the raw source line.
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
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` in its code,
//!   and the workspace `clippy.toml` sets `disallowed-types` and
//!   `disallowed-methods`, co-enforcing R2/R3 natively.
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
//! scan each of its tokens, so a source is flagged where it is written.
//! That reaches everything code in those crates can call, because they
//! depend only on one another (the `tests` module below checks the
//! closure against the manifests).

use std::collections::BTreeSet;

use crate::lexer::{is_keyword, Lexed, TokenKind};
use crate::symbols::{self, FnDef};

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
/// The step-table functions of `R6_VIEW` in R6 scope, with Case 1's
/// label probe and its hash, and the next-port read of the rules past
/// Case 1.
const R6_VIEW_FNS: &[&str] = &[
    "step_table",
    "shortest_step_toward",
    "step_toward_label",
    "slot_by_label",
    "label_home",
    "next_port",
];
/// The codec module, whose decode path (`decode*` functions and the
/// methods of `Reader`) is R6 scope.
const R6_CODEC: &str = "crates/graph/src/codec.rs";

/// Whole-graph names (R1): type names, and the graph module's path.
const R1_NAMES: &[&str] = &[
    "Graph",
    "GraphBuilder",
    "EmbeddedGraph",
    "locality_graph::graph",
];
/// Nondeterminism sources (R2): names and module paths, with why.
const R2_NAMES: &[(&str, &str)] = &[
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
    ("std::time", "wall-clock reads break bit-reproducibility"),
    ("std::env", "environment reads break bit-reproducibility"),
];
/// Lock and blocking-I/O types and module paths (R7).
const R7_NAMES: &[&str] = &[
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
    "std::fs",
    "std::net",
];

const R3_CALLS: &[&str] = &["unwrap", "expect"];
const R3_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const R5_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Runs the per-file arms (R1's textual arm, R2, R3, R3i, R5, R7) over
/// one file's token stream, skipping `#[cfg(test)]` lines. `rel` is the
/// workspace-relative path. Findings come sorted by line.
pub fn check_file(rel: &str, lx: &Lexed) -> Vec<Violation> {
    if classify(rel) != Some(FileClass::Lib) {
        return Vec::new();
    }
    let r1 = R1_FILES.contains(&rel);
    let trial =
        crate_dir(rel).is_some_and(|c| TRIAL_CRATES.contains(&c)) || TRIAL_FILES.contains(&rel);
    let (mut out, mut paths) = (Vec::new(), BTreeSet::new());
    let mut push = |line: usize, symbol: &str, (rule, message): (Rule, String)| {
        out.push(Violation {
            rule,
            file: rel.to_string(),
            line,
            symbol: symbol.to_string(),
            message,
            raw_line: lx.raw_line(line).to_string(),
            chain: Vec::new(),
        });
    };
    for (i, t) in lx.tokens.iter().enumerate() {
        if lx.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokenKind::Punct(b'[') {
            if let Some(receiver) = unchecked_index(lx, i) {
                let why = "unchecked slice indexing can panic; use `.get()`, the dense \
                           `container[node.index()]` idiom, or allowlist with a justification";
                push(t.line, receiver, (Rule::R3i, why.to_string()));
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = lx.text(i);
        let next = lx.tok(i + 1).filter(|n| n.line == t.line).map(|n| n.kind);
        for hit in [call(name, next), banned(name, r1, trial)]
            .into_iter()
            .flatten()
        {
            push(t.line, name, hit);
        }
        // Module paths, once per line: `a::b` as written, and the head
        // of every leaf of a `use` tree, so `use std::{env, fs}` names
        // both.
        if lx.is_punct(i + 1, b':') && lx.is_punct(i + 2, b':') {
            paths.insert((t.line, format!("{name}::{}", lx.text(i + 3))));
        }
        if name == "use" {
            for leaf in symbols::use_leaves(lx, i) {
                let head: Vec<&str> = leaf.path.iter().take(2).map(String::as_str).collect();
                paths.insert((leaf.line, head.join("::")));
            }
        }
    }
    for (line, path) in &paths {
        if let Some(hit) = banned(path, r1, trial) {
            push(*line, path, hit);
        }
    }
    out.sort_by(|a, b| (a.line, a.rule.id(), &a.symbol).cmp(&(b.line, b.rule.id(), &b.symbol)));
    out
}

/// The R1, R2 or R7 finding for `name` (an identifier, or a module
/// path `a::b`) when it is banned in a file of this scope.
fn banned(name: &str, r1: bool, trial: bool) -> Option<(Rule, String)> {
    if r1 && R1_NAMES.contains(&name) {
        let message = if name.contains("::") {
            format!("`{name}` is the whole-graph module; router modules must not reach it")
        } else {
            format!(
                "`{name}` is a whole-graph API; a k-local router module may only \
                 name LocalView/Subgraph/model types"
            )
        };
        return Some((Rule::R1, message));
    }
    if !trial {
        return None;
    }
    if let Some((_, why)) = R2_NAMES.iter().find(|&&(n, _)| n == name) {
        return Some((Rule::R2, format!("`{name}` in trial code: {why}")));
    }
    R7_NAMES.contains(&name).then(|| {
        let message = format!(
            "`{name}` locks or blocks in trial code: trials run side by side on the \
             fan-out's threads, so one trial's lock or blocking call would stall another"
        );
        (Rule::R7, message)
    })
}

/// The R3 or R5 finding for identifier `name` when the next token on
/// its line, `next`, makes it a panicking call or a printing macro.
fn call(name: &str, next: Option<TokenKind>) -> Option<(Rule, String)> {
    let why = "return a typed error or allowlist with a justification";
    match next? {
        TokenKind::Punct(b'(') if R3_CALLS.contains(&name) => Some((
            Rule::R3,
            format!("`{name}(` can panic in library code; {why}"),
        )),
        TokenKind::Punct(b'!') if R3_MACROS.contains(&name) => {
            Some((Rule::R3, format!("`{name}!` panics in library code; {why}")))
        }
        TokenKind::Punct(b'!') if R5_MACROS.contains(&name) => Some((
            Rule::R5,
            format!(
                "`{name}!` writes to stdout/stderr from library code; emit through the \
                 locality-obs recorder or allowlist with a justification"
            ),
        )),
        _ => None,
    }
}

/// The receiver R3i reports when the `[` at token `open` opens an
/// unchecked index. The receiver is the previous token on the same
/// line: an identifier that is not a keyword (reported by name), a
/// number, or `)`, `]` or `?` (reported as `[]`). A lifetime never
/// opens an index: `&'a [u8]` is a type. The bracket content ends at
/// the matching `]` or at the end of the line; an empty one, or one
/// holding the blessed dense-slot idiom `.index()` (a `NodeId` into a
/// slot-aligned `Vec` is in bounds by construction), is not flagged.
fn unchecked_index(lx: &Lexed, open: usize) -> Option<&str> {
    let line = lx.tok(open)?.line;
    let on_line = |j: usize| lx.tok(j).filter(|t| t.line == line).map(|t| t.kind);
    let prev = open.checked_sub(1)?;
    let receiver = match on_line(prev)? {
        TokenKind::Ident if !is_keyword(lx.text(prev)) => lx.text(prev),
        TokenKind::Num | TokenKind::Punct(b')' | b']' | b'?') => "[]",
        _ => return None,
    };
    let (mut close, mut depth) = (open, 0usize);
    while let Some(kind) = on_line(close) {
        match kind {
            TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    let blessed = (open + 1..close.saturating_sub(3)).any(|k| {
        lx.is_punct(k, b'.')
            && lx.is_ident(k + 1, "index")
            && lx.is_punct(k + 2, b'(')
            && lx.is_punct(k + 3, b')')
    });
    (close > open + 1 && !blessed).then_some(receiver)
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
                raw_line: lx.raw_line(t.line).to_string(),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// R4: crate-root hygiene for `crates/<c>/src/lib.rs`, read from the
/// masked text, so an attribute in a comment or a string does not count.
pub fn check_crate_root(rel: &str, lx: &Lexed) -> Vec<Violation> {
    ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"]
        .into_iter()
        .filter(|attr| !lx.masked.contains(attr))
        .map(|attr| Violation {
            rule: Rule::R4,
            file: rel.to_string(),
            line: 1,
            symbol: "crate".to_string(),
            message: format!("crate root must carry `{attr}`"),
            raw_line: lx.raw_line(1).to_string(),
            chain: Vec::new(),
        })
        .collect()
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
                // Only a line that opens with the key sets it; a `#`
                // comment naming it configures nothing.
                let set = text.lines().any(|line| {
                    line.trim_start()
                        .strip_prefix(key)
                        .is_some_and(|rest| rest.trim_start().starts_with('='))
                });
                if !set {
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
    use crate::lexer::lex;

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn r1_catches_whole_graph_names_in_router_modules() {
        let src = "use locality_graph::{Graph, NodeId};\nfn f(g: &Graph) {}\n";
        let v = check_file("crates/core/src/alg1.rs", &lex(src));
        assert_eq!(rules_of(&v), vec![Rule::R1, Rule::R1]);
        // The same text is fine outside an R1 module (engine is the
        // driver and is allowed to hold G).
        assert!(check_file("crates/core/src/engine.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r1_catches_the_graph_module_path_but_not_subgraph() {
        let src = "use locality_graph::graph::something;\nuse locality_graph::Subgraph;\n";
        let v = check_file("crates/core/src/alg2.rs", &lex(src));
        assert_eq!(rules_of(&v), vec![Rule::R1]);
        assert_eq!(v.first().map(|x| x.line), Some(1));
    }

    #[test]
    fn r2_catches_hash_collections_in_reproducible_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = d(); }\n";
        for rel in ["crates/graph/src/foo.rs", "crates/sim/src/foo.rs"] {
            assert_eq!(
                rules_of(&check_file(rel, &lex(src))),
                vec![Rule::R2, Rule::R2],
                "{rel}"
            );
        }
        // Bench library code outside the two trial modules is not
        // bit-reproducibility-scoped.
        assert!(check_file("crates/bench/src/experiments.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r2_survives_the_clippy_opt_out_attribute() {
        // `bench::simbench` and `bench::timing` open with this attribute
        // to read clocks; clippy's `disallowed-types` then stays silent,
        // so R2 is the only guard left in the deterministic crates.
        let src = "#![allow(clippy::disallowed_types)]\nuse std::collections::HashMap;\n";
        let v = check_file("crates/core/src/foo.rs", &lex(src));
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
        let v = check_file("crates/adversary/src/foo.rs", &lex(src));
        // Line 1 fires twice (Instant ident + std::time path).
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| x.rule == Rule::R2));
    }

    #[test]
    fn r2_ignores_strings_comments_and_tests() {
        let src = "// HashMap in a comment\nconst N: &str = \"HashMap\";\n\
                   #[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n";
        assert!(check_file("crates/graph/src/foo.rs", &lex(src)).is_empty());
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
            let v = check_file(rel, &lex(src));
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
            assert!(check_file(rel, &lex(src)).is_empty(), "{rel}");
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
            assert_eq!(
                rules_of(&check_file(rel, &lex(src))),
                vec![Rule::R2; 3],
                "{rel}"
            );
        }
        // Deterministic ordered collections pass.
        let ok = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u64, u32>) {}\n";
        assert!(check_file("crates/sim/src/sched.rs", &lex(ok)).is_empty());
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
            let v = check_file(rel, &lex(src));
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
        assert!(check_file("crates/bench/src/bin/perfsmoke.rs", &lex(src)).is_empty());
        // A doc comment or a test module may name them.
        let ok = "/// Reads a File.\nfn f() {}\n#[cfg(test)]\nmod tests {\n use std::sync::Barrier;\n}\n";
        assert!(check_file("crates/core/src/engine.rs", &lex(ok)).is_empty());
    }

    /// (rule, line, symbol) of each finding `check_file` gives `src`.
    fn found(rel: &str, src: &str) -> Vec<(Rule, usize, String)> {
        check_file(rel, &lex(src))
            .into_iter()
            .map(|x| (x.rule, x.line, x.symbol))
            .collect()
    }

    #[test]
    fn grouped_imports_are_flagged_at_each_leaf() {
        let src = "use std::{env, fs};\n\
                   pub fn f() -> Vec<u8> {\n\
                       fs::read(env::args().next().unwrap_or_default()).unwrap_or_default()\n\
                   }\n";
        assert_eq!(
            found("crates/core/src/foo.rs", src),
            vec![
                (Rule::R2, 1, "std::env".to_string()),
                (Rule::R7, 1, "std::fs".to_string())
            ]
        );
    }

    #[test]
    fn grouped_imports_in_function_bodies_are_flagged() {
        // Neither leaf names a listed type, so only the tree shows the
        // paths; each is flagged at its own line.
        let src = "pub fn f() {\n    use std::{\n        time,\n        net,\n    };\n}\n";
        assert_eq!(
            found("crates/sim/src/foo.rs", src),
            vec![
                (Rule::R2, 3, "std::time".to_string()),
                (Rule::R7, 4, "std::net".to_string())
            ]
        );
    }

    #[test]
    fn r1_reads_the_graph_module_through_grouped_imports() {
        let src = "use locality_graph::{\n    graph::Adjacency,\n    NodeId,\n};\n";
        assert_eq!(
            found("crates/core/src/alg3.rs", src),
            vec![(Rule::R1, 2, "locality_graph::graph".to_string())]
        );
    }

    #[test]
    fn grouped_imports_in_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::{env, fs};\n    fn f() {\n        \
                   use std::{\n            time,\n            net,\n        };\n    }\n}\n";
        assert!(found("crates/core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn r2_rng_arm_accepts_detrng() {
        let src = "use locality_graph::rng::DetRng;\n\
                   fn f() { let mut r = DetRng::seed_from_u64(7); let _ = r.gen_bool(0.5); }\n";
        assert!(check_file("crates/sim/src/fault.rs", &lex(src)).is_empty());
        assert!(check_file("crates/bench/src/chaos.rs", &lex(src)).is_empty());
    }

    #[test]
    fn artifact_tier_modules_get_determinism_and_panic_coverage() {
        // The codec and the oracle produce byte-identical artifacts,
        // so both must sit inside the R2 determinism net and the R3
        // panic-policy net; a rename or reclassification that dropped
        // them out of coverage would go unnoticed without this pin.
        let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for rel in ["crates/graph/src/codec.rs", "crates/core/src/oracle.rs"] {
            let v = check_file(rel, &lex(src));
            assert_eq!(rules_of(&v), vec![Rule::R2, Rule::R3], "{rel}");
        }
        // Codec-style clean code — bounds-checked reads, typed errors —
        // passes untouched.
        let ok = "fn f(v: &[u8], i: usize) -> Option<u8> { v.get(i).copied() }\n";
        for rel in ["crates/graph/src/codec.rs", "crates/core/src/oracle.rs"] {
            assert!(check_file(rel, &lex(ok)).is_empty(), "{rel}");
        }
        // The artifact CLI is a bench bin: neither net reaches it.
        assert!(check_file("crates/bench/src/bin/oracle.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r3_catches_panicking_calls_in_lib_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"present\") }\n\
                   fn h() { panic!(\"boom\"); }\n";
        let v = check_file("crates/sim/src/foo.rs", &lex(src));
        assert_eq!(rules_of(&v), vec![Rule::R3, Rule::R3, Rule::R3]);
        assert!(check_file("crates/bench/src/bin/foo.rs", &lex(src)).is_empty());
        assert!(check_file("crates/sim/tests/foo.rs", &lex(src)).is_empty());
        assert!(check_file("tests/foo.rs", &lex(src)).is_empty());
        assert!(check_file("examples/foo.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r3_does_not_flag_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(check_file("crates/sim/src/foo.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r3i_catches_raw_indexing_but_blesses_dense_slots() {
        let flagged = "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
        assert_eq!(
            rules_of(&check_file("crates/sim/src/foo.rs", &lex(flagged))),
            vec![Rule::R3i]
        );
        let blessed = "fn f(v: &[u32], u: NodeId) -> u32 { v[u.index()] }\n";
        assert!(check_file("crates/sim/src/foo.rs", &lex(blessed)).is_empty());
    }

    #[test]
    fn r3i_ignores_lifetimes_in_slice_types() {
        // `&'a [u8]` is a type, not an index expression; v1 flagged it
        // and needed allowlist entries to paper over the false
        // positive.
        let src = "pub struct R<'a> { buf: &'a [u8] }\n\
                   fn f<'a>(x: &'a [u8]) -> &'a [u8] { x }\n";
        assert!(check_file("crates/sim/src/foo.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r3i_ignores_types_patterns_attributes_and_macros() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n\
                   fn f(s: &S) -> Vec<u32> { let [x, y] = [1u32, 2]; vec![x, y] }\n\
                   fn g(v: &mut [u32]) {}\n";
        assert!(check_file("crates/sim/src/foo.rs", &lex(src)).is_empty());
    }

    #[test]
    fn r5_catches_stdout_writes_in_lib_code_only() {
        let src = "fn f() { println!(\"hi\"); }\nfn g() { eprintln!(\"err\"); }\n\
                   fn h() { print!(\"x\"); eprint!(\"y\"); }\n";
        let v = check_file("crates/sim/src/foo.rs", &lex(src));
        assert_eq!(rules_of(&v), vec![Rule::R5, Rule::R5, Rule::R5, Rule::R5]);
        // Binaries, tests, and examples stay free to print.
        assert!(check_file("crates/bench/src/bin/foo.rs", &lex(src)).is_empty());
        assert!(check_file("crates/lint/src/main.rs", &lex(src)).is_empty());
        assert!(check_file("tests/foo.rs", &lex(src)).is_empty());
        assert!(check_file("examples/foo.rs", &lex(src)).is_empty());
        // A `println` identifier without `!` (e.g. a doc mention) is fine.
        let ok = "fn f() { let println = 3; let _ = println; }\n";
        assert!(check_file("crates/sim/src/foo.rs", &lex(ok)).is_empty());
    }

    fn r6(rel: &str, src: &str) -> Vec<(String, String)> {
        let lx = lex(src);
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
        let v = check_crate_root("crates/sim/src/lib.rs", &lex(bad));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::R4));
        let good = "//! docs\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(check_crate_root("crates/sim/src/lib.rs", &lex(good)).is_empty());
    }

    #[test]
    fn r4_reads_code_not_comments_or_strings() {
        // The attribute must be code: a comment or a string literal that
        // spells it does not satisfy R4.
        for root in [
            "//! docs\n// #![forbid(unsafe_code)] (disabled)\n#![deny(missing_docs)]\n",
            "//! docs\n#![deny(missing_docs)]\nconst A: &str = \"#![forbid(unsafe_code)]\";\n",
        ] {
            let v = check_crate_root("crates/obs/src/lib.rs", &lex(root));
            let at: Vec<(usize, &str)> = v.iter().map(|x| (x.line, x.message.as_str())).collect();
            assert_eq!(
                at,
                vec![(1, "crate root must carry `#![forbid(unsafe_code)]`")],
                "{root}"
            );
        }
    }

    #[test]
    fn r4_requires_clippy_toml_sections() {
        assert_eq!(check_clippy_toml(None).len(), 1);
        assert_eq!(check_clippy_toml(Some("disallowed-types = []")).len(), 1);
        assert!(
            check_clippy_toml(Some("disallowed-types = []\ndisallowed-methods = []")).is_empty()
        );
        // A key that appears only in a `#` comment configures nothing.
        let commented = "# disallowed-types = []\ndisallowed-methods = []\n";
        let v = check_clippy_toml(Some(commented));
        let at: Vec<(usize, &str)> = v.iter().map(|x| (x.line, x.message.as_str())).collect();
        assert_eq!(
            at,
            vec![(1, "clippy.toml is missing a `disallowed-types` section")]
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
        let lx = lex(&read(&root.join(rel)));
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

        // The same manifests, with `core` gaining a dependency on `bench`,
        // in a directory removed on drop, failed assertions included.
        struct RemovedOnDrop(std::path::PathBuf);
        impl Drop for RemovedOnDrop {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = RemovedOnDrop(
            std::env::temp_dir().join(format!("locality-lint-scope-{}", std::process::id())),
        );
        let copy = &dir.0;
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
        assert_eq!(escapes(copy), vec!["core -> locality-bench".to_string()]);
    }
}
