//! Workspace use-graph and the transitive analyses built on it.
//!
//! [`Workspace::build`] folds every library file's [`FileSymbols`]
//! into module/item/function indexes, then resolves `use` paths —
//! following re-exports, aliases, globs, and `crate`/`self`/`super`
//! roots across all eight crates — and function calls into a
//! conservative call graph. Four analyses run on top:
//!
//! * **R1 transitive locality** ([`Workspace::check_r1`]) — a router
//!   module may not *reach* a whole-graph API through any chain of
//!   `use`/`pub use`/alias hops; the full offending chain is carried
//!   in the diagnostic.
//! * **R2 taint** ([`Workspace::check_r2_taint`]) — a helper function
//!   anywhere in library code that touches hash-order iteration,
//!   clocks, or the environment poisons every function in a
//!   bit-reproducible crate that (transitively) calls it, across file
//!   and crate boundaries.
//! * **R6 hot-path allocation** ([`Workspace::check_r6`]) — no
//!   `Vec::new`/`vec!`/`Box::new`/`format!`/`collect`/`to_vec` inside
//!   the designated hot-path functions, outside setup constructors.
//! * **R7 lock discipline** ([`Workspace::check_r7`]) — no
//!   `Mutex`/`RwLock` acquisition or blocking I/O reachable from the
//!   per-tick step path.
//!
//! Call-graph edges err on the side of omission: bare calls and
//! `self.field.method(..)` / `self.method(..)` / `Type::method(..)`
//! forms resolve exactly; a plain `recv.method(..)` contributes an
//! edge only when *every* workspace method of that name has the
//! property being propagated (must-alias), so common names like
//! `len` or `get` cannot manufacture false positives.

use std::collections::{BTreeMap, BTreeSet};

use crate::allow::AllowEntry;
use crate::lexer::{Lexed, TokenKind};
use crate::rules::{self, Rule, Violation};
use crate::symbols::{CallKind, FileSymbols, FnDef};

/// One analyzed file: path, token stream, symbols.
pub struct FileEntry {
    /// Workspace-relative path.
    pub rel: String,
    /// Lexical view.
    pub lx: Lexed,
    /// Symbol layer.
    pub sym: FileSymbols,
}

/// Where a resolved path lands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// An item defined in a workspace module.
    Def {
        /// Defining module path.
        module: String,
        /// Item name.
        name: String,
    },
    /// A workspace module itself.
    Module(
        /// Full module path.
        String,
    ),
    /// A path outside the workspace (`std`, ..), joined with `::`.
    External(String),
    /// Could not be resolved; treated as external (no finding).
    Unknown,
}

struct FnRef {
    file: usize,
    def: FnDef,
}

/// Pre-resolved call edges of one function.
#[derive(Default)]
struct Edges {
    /// Exactly resolved callees: (callee fn index, call line).
    exact: Vec<(usize, usize)>,
    /// Must-alias groups from `recv.name(..)` calls: (candidate fn
    /// indices, call line, method name).
    groups: Vec<(Vec<usize>, usize, String)>,
}

/// How a function acquired a propagated property, for chain rendering.
#[derive(Clone)]
enum Reason {
    Direct(usize, String),
    Via(usize, usize),
}

/// The assembled workspace graph.
pub struct Workspace {
    files: Vec<FileEntry>,
    /// Every known module path (from file layout, `mod` decls, inline
    /// modules).
    modules: BTreeSet<String>,
    /// (module, item name) → defining file index and line.
    items: BTreeMap<(String, String), (usize, usize)>,
    /// module → indices into per-file `uses` as (file idx, use idx).
    uses_of: BTreeMap<String, Vec<(usize, usize)>>,
    /// Flat function list (library, graph-participating files only).
    fns: Vec<FnRef>,
    /// (module, name) → free-function index.
    free_fns: BTreeMap<(String, String), usize>,
    /// (self type, name) → method indices (across all impls/files).
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// method name → all method indices (for must-alias groups).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// (owner type, field name) → head identifier of the field type.
    field_ty: BTreeMap<(String, String), String>,
    /// Per-function resolved edges (parallel to `fns`).
    edges: Vec<Edges>,
}

const RESOLVE_DEPTH: usize = 40;

/// R2 determinism patterns a function body can carry (ident, why).
const TAINT_IDENTS: &[(&str, &str)] = &[
    ("HashMap", "hash-order iteration"),
    ("HashSet", "hash-order iteration"),
    ("Instant", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("partial_cmp", "NaN-unstable comparison"),
];
/// R2 path patterns (`a::b` token pairs).
const TAINT_PATHS: &[(&str, &str, &str)] = &[
    ("std", "time", "wall-clock read"),
    ("std", "env", "environment read"),
];

/// Identifiers whose appearance in a function (signature included)
/// marks it as acquiring locks or doing blocking I/O (R7).
const BLOCK_IDENTS: &[&str] = &[
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
/// Blocking path patterns.
const BLOCK_PATHS: &[(&str, &str)] = &[("std", "fs"), ("std", "net")];

/// Files whose every function is R6 hot-path scope.
const R6_FILES: &[&str] = &[
    "crates/sim/src/sched.rs",
    "crates/sim/src/slab.rs",
    "crates/sim/src/driver.rs",
    "crates/sim/src/workload.rs",
    "crates/sim/src/admission.rs",
    // Per-hop loop detection for the engine and the simulator.
    "crates/core/src/visited.rs",
    // The chunked trace reader: its per-line loop runs once per event
    // over multi-GB corpora, so a stray per-line allocation turns the
    // bounded-memory design into an allocator benchmark.
    "crates/obs/src/analytics/reader.rs",
];
/// The step-table functions of `core::view` in R6 scope.
const R6_VIEW_FNS: &[&str] = &["step_table", "shortest_step_toward"];

/// Per-tick step-path functions of the simulator network (R7 roots,
/// together with every function of the wheel and the slab).
const R7_STEP_FNS: &[&str] = &[
    "step",
    "run_until",
    "run_until_quiet",
    "next_event_time",
    "apply_fault",
    "drain_arrivals",
    "decide",
    "apply_decision",
    "emit_hop",
    "set_fate",
    "transmit",
    "lose",
    "check_timeout",
    "set_edge_inner",
    "collect_dirty",
    "reprovision",
];
/// Files all of whose functions are R7 roots.
const R7_FILES: &[&str] = &[
    "crates/sim/src/sched.rs",
    "crates/sim/src/slab.rs",
    "crates/core/src/visited.rs",
];
const R7_NETWORK: &str = "crates/sim/src/network.rs";

impl Workspace {
    /// Builds the workspace graph from analyzed files.
    pub fn build(files: Vec<FileEntry>) -> Workspace {
        let mut modules = BTreeSet::new();
        let mut items = BTreeMap::new();
        let mut uses_of: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut fns: Vec<FnRef> = Vec::new();
        let mut free_fns = BTreeMap::new();
        let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut field_ty = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            let Some(module) = file.sym.module.clone() else {
                continue;
            };
            modules.insert(module.clone());
            // Crate root implies the existence of every ancestor.
            let mut anc = module.as_str();
            while let Some(pos) = anc.rfind("::") {
                anc = anc.get(..pos).unwrap_or("");
                modules.insert(anc.to_string());
            }
            for it in &file.sym.items {
                // `mod` declarations resolve through the module set,
                // not the item index (an item entry would shadow the
                // child module during path descent).
                if it.kind == crate::symbols::ItemKind::Mod {
                    continue;
                }
                items
                    .entry((it.module.clone(), it.name.clone()))
                    .or_insert((fi, it.line));
            }
            for (parent, name) in &file.sym.submods {
                modules.insert(format!("{parent}::{name}"));
            }
            for (ui, u) in file.sym.uses.iter().enumerate() {
                uses_of.entry(u.module.clone()).or_default().push((fi, ui));
            }
            for f in &file.sym.fields {
                field_ty
                    .entry((f.owner.clone(), f.name.clone()))
                    .or_insert(f.ty.clone());
            }
            for def in file.sym.fns.iter().cloned() {
                let id = fns.len();
                if def.is_test {
                    fns.push(FnRef { file: fi, def });
                    continue;
                }
                match &def.self_ty {
                    Some(ty) => {
                        methods
                            .entry((ty.clone(), def.name.clone()))
                            .or_default()
                            .push(id);
                        methods_by_name
                            .entry(def.name.clone())
                            .or_default()
                            .push(id);
                    }
                    None => {
                        free_fns
                            .entry((def.module.clone(), def.name.clone()))
                            .or_insert(id);
                    }
                }
                fns.push(FnRef { file: fi, def });
            }
        }
        let mut ws = Workspace {
            files,
            modules,
            items,
            uses_of,
            fns,
            free_fns,
            methods,
            methods_by_name,
            field_ty,
            edges: Vec::new(),
        };
        ws.edges = (0..ws.fns.len()).map(|i| ws.resolve_edges(i)).collect();
        ws
    }

    fn rel(&self, file: usize) -> &str {
        self.files.get(file).map(|f| f.rel.as_str()).unwrap_or("")
    }

    /// The masked text of 1-indexed `line` in `file`.
    fn line_text(&self, file: usize, line: usize) -> String {
        self.files
            .get(file)
            .and_then(|f| f.lx.masked.lines().nth(line.saturating_sub(1)))
            .unwrap_or("")
            .to_string()
    }

    fn qname(&self, id: usize) -> String {
        match self.fns.get(id) {
            Some(f) => match &f.def.self_ty {
                Some(ty) => format!("{ty}::{}", f.def.name),
                None => f.def.name.clone(),
            },
            None => String::new(),
        }
    }

    /// Resolves the root of a use path in `module`.
    fn resolve_root(&self, module: &str, seg: &str) -> Target {
        match seg {
            "crate" => {
                let root = module.split("::").next().unwrap_or(module);
                Target::Module(root.to_string())
            }
            "self" => Target::Module(module.to_string()),
            "super" => match module.rfind("::") {
                Some(pos) => Target::Module(module.get(..pos).unwrap_or("").to_string()),
                None => Target::Module(module.to_string()),
            },
            "std" | "core" | "alloc" => Target::External(seg.to_string()),
            _ => {
                // A workspace crate root referenced by its lib ident.
                if !seg.contains("::") && self.modules.contains(seg) && !seg.is_empty() {
                    return Target::Module(seg.to_string());
                }
                // Uniform path: a child module of the current module.
                let child = format!("{module}::{seg}");
                if self.modules.contains(&child) {
                    return Target::Module(child);
                }
                Target::External(seg.to_string())
            }
        }
    }

    /// Resolves `name` inside workspace module `module`, following use
    /// bindings and glob imports. Appends followed re-export hops to
    /// `chain`.
    fn resolve_in_module(
        &self,
        module: &str,
        name: &str,
        chain: &mut Vec<String>,
        visited: &mut BTreeSet<(String, String)>,
        depth: usize,
    ) -> Target {
        if depth > RESOLVE_DEPTH {
            return Target::Unknown;
        }
        if !self.modules.contains(module) {
            return Target::External(format!("{module}::{name}"));
        }
        if self
            .items
            .contains_key(&(module.to_string(), name.to_string()))
        {
            return Target::Def {
                module: module.to_string(),
                name: name.to_string(),
            };
        }
        let child = format!("{module}::{name}");
        if self.modules.contains(&child) {
            return Target::Module(child);
        }
        let key = (module.to_string(), name.to_string());
        if !visited.insert(key) {
            return Target::Unknown;
        }
        let decls = self.uses_of.get(module).cloned().unwrap_or_default();
        for (fi, ui) in &decls {
            let Some(u) = self.files.get(*fi).and_then(|f| f.sym.uses.get(*ui)) else {
                continue;
            };
            if u.binding == name {
                chain.push(format!(
                    "{}:{}: {}use {} as {}",
                    self.rel(*fi),
                    u.line,
                    if u.vis { "pub " } else { "" },
                    u.path.join("::"),
                    u.binding,
                ));
                return self.resolve_path(module, &u.path, chain, visited, depth + 1);
            }
        }
        // Glob imports, in declaration order.
        for (fi, ui) in &decls {
            let Some(u) = self.files.get(*fi).and_then(|f| f.sym.uses.get(*ui)) else {
                continue;
            };
            if u.binding != "*" {
                continue;
            }
            let mut sub_chain = chain.clone();
            if let Target::Module(m) =
                self.resolve_module_path(module, &u.path, &mut sub_chain, visited, depth + 1)
            {
                sub_chain.push(format!(
                    "{}:{}: {}use {}::* (glob)",
                    self.rel(*fi),
                    u.line,
                    if u.vis { "pub " } else { "" },
                    u.path.join("::"),
                ));
                let t = self.resolve_in_module(&m, name, &mut sub_chain, visited, depth + 1);
                if !matches!(t, Target::Unknown | Target::External(_)) {
                    *chain = sub_chain;
                    return t;
                }
            }
        }
        Target::Unknown
    }

    /// Resolves a full path (`segs`) appearing in `module` to a
    /// symbol or module.
    fn resolve_path(
        &self,
        module: &str,
        segs: &[String],
        chain: &mut Vec<String>,
        visited: &mut BTreeSet<(String, String)>,
        depth: usize,
    ) -> Target {
        if depth > RESOLVE_DEPTH {
            return Target::Unknown;
        }
        let Some(first) = segs.first() else {
            return Target::Unknown;
        };
        let mut cur = match self.resolve_root(module, first) {
            Target::Module(m) => m,
            Target::External(e) => {
                return Target::External(
                    segs.iter().skip(1).fold(e, |acc, s| format!("{acc}::{s}")),
                )
            }
            other => return other,
        };
        // When the root consumed the only segment, the path names a
        // module (`use locality_graph::traversal;` leaves traversal as
        // the root's child — handled below since first != binding).
        if segs.len() == 1 {
            return Target::Module(cur);
        }
        for (idx, seg) in segs.iter().enumerate().skip(1) {
            let last = idx + 1 == segs.len();
            match self.resolve_in_module(&cur, seg, chain, visited, depth + 1) {
                Target::Module(m) => {
                    if last {
                        return Target::Module(m);
                    }
                    cur = m;
                }
                Target::Def { module, name } => {
                    // A path *into* an item (`Enum::Variant`,
                    // `Type::assoc`) attributes to the item itself.
                    return Target::Def { module, name };
                }
                Target::External(e) => {
                    return Target::External(
                        segs.iter()
                            .skip(idx + 1)
                            .fold(e, |acc, s| format!("{acc}::{s}")),
                    )
                }
                Target::Unknown => return Target::Unknown,
            }
        }
        Target::Unknown
    }

    /// Like [`Self::resolve_path`] but requires the result to be a
    /// module (for glob imports).
    fn resolve_module_path(
        &self,
        module: &str,
        segs: &[String],
        chain: &mut Vec<String>,
        visited: &mut BTreeSet<(String, String)>,
        depth: usize,
    ) -> Target {
        match self.resolve_path(module, segs, chain, visited, depth) {
            Target::Module(m) => Target::Module(m),
            _ => Target::Unknown,
        }
    }

    /// Resolves the call sites of function `id` into edges.
    fn resolve_edges(&self, id: usize) -> Edges {
        let mut out = Edges::default();
        let Some(f) = self.fns.get(id) else {
            return out;
        };
        if f.def.is_test {
            return out;
        }
        let module = f.def.module.clone();
        for call in &f.def.calls {
            match &call.kind {
                CallKind::Bare(name) => {
                    if let Some(&t) = self.free_fns.get(&(module.clone(), name.clone())) {
                        out.exact.push((t, call.line));
                        continue;
                    }
                    // A bare name imported with `use`.
                    let mut chain = Vec::new();
                    let mut visited = BTreeSet::new();
                    if let Target::Def {
                        module: dm,
                        name: dn,
                    } = self.resolve_in_module(&module, name, &mut chain, &mut visited, 0)
                    {
                        if let Some(&t) = self.free_fns.get(&(dm, dn)) {
                            out.exact.push((t, call.line));
                        }
                    }
                }
                CallKind::Path(segs) => {
                    if let (Some(ty), Some(name), 2) = (segs.first(), segs.last(), segs.len()) {
                        let ty = if ty == "Self" {
                            self.fns
                                .get(id)
                                .and_then(|f| f.def.self_ty.clone())
                                .unwrap_or_else(|| ty.clone())
                        } else {
                            ty.clone()
                        };
                        if let Some(ids) = self.methods.get(&(ty, name.clone())) {
                            for &t in ids {
                                out.exact.push((t, call.line));
                            }
                            continue;
                        }
                    }
                    let mut chain = Vec::new();
                    let mut visited = BTreeSet::new();
                    if let Target::Def {
                        module: dm,
                        name: dn,
                    } = self.resolve_path(&module, segs, &mut chain, &mut visited, 0)
                    {
                        if let Some(&t) = self.free_fns.get(&(dm, dn)) {
                            out.exact.push((t, call.line));
                        }
                    }
                }
                CallKind::SelfMethod(name) => {
                    if let Some(ty) = self.fns.get(id).and_then(|f| f.def.self_ty.clone()) {
                        if let Some(ids) = self.methods.get(&(ty, name.clone())) {
                            for &t in ids {
                                out.exact.push((t, call.line));
                            }
                        }
                    }
                }
                CallKind::FieldMethod(field, name) => {
                    let ty = self
                        .fns
                        .get(id)
                        .and_then(|f| f.def.self_ty.clone())
                        .and_then(|owner| self.field_ty.get(&(owner, field.clone())).cloned());
                    if let Some(ty) = ty {
                        if let Some(ids) = self.methods.get(&(ty, name.clone())) {
                            for &t in ids {
                                out.exact.push((t, call.line));
                            }
                        }
                    }
                }
                CallKind::Method(name) => {
                    if let Some(ids) = self.methods_by_name.get(name) {
                        if !ids.is_empty() {
                            out.groups.push((ids.clone(), call.line, name.clone()));
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether the fn's token range contains any of the given ident /
    /// path patterns; returns (line, description) of the first hit.
    fn scan_patterns(
        &self,
        id: usize,
        idents: &[(&str, &str)],
        paths: &[(&str, &str, &str)],
    ) -> Option<(usize, String)> {
        let f = self.fns.get(id)?;
        let lx = &self.files.get(f.file)?.lx;
        let (lo, hi) = (f.def.tok_lo, f.def.tok_hi);
        let mut j = lo;
        while j <= hi {
            let Some(t) = lx.tok(j) else { break };
            if t.kind == TokenKind::Ident && !lx.is_test_line(t.line) {
                let name = lx.text(j);
                if let Some(&(n, why)) = idents.iter().find(|&&(n, _)| n == name) {
                    return Some((t.line, format!("`{n}` ({why})")));
                }
                for &(a, b, why) in paths {
                    if name == a
                        && lx.is_punct(j + 1, b':')
                        && lx.is_punct(j + 2, b':')
                        && lx.is_ident(j + 3, b)
                    {
                        return Some((t.line, format!("`{a}::{b}` ({why})")));
                    }
                }
            }
            j += 1;
        }
        None
    }

    /// Propagates a property from `direct` holders backwards over the
    /// call graph; returns per-fn reasons.
    fn propagate(&self, direct: &BTreeMap<usize, (usize, String)>) -> Vec<Option<Reason>> {
        let mut reason: Vec<Option<Reason>> = vec![None; self.fns.len()];
        for (&id, (line, what)) in direct {
            if let Some(r) = reason.get_mut(id) {
                *r = Some(Reason::Direct(*line, what.clone()));
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..self.fns.len() {
                if reason.get(id).map(|r| r.is_some()).unwrap_or(true) {
                    continue;
                }
                let Some(e) = self.edges.get(id) else {
                    continue;
                };
                let mut hit: Option<Reason> = None;
                for &(t, line) in &e.exact {
                    if reason.get(t).map(|r| r.is_some()).unwrap_or(false) {
                        hit = Some(Reason::Via(line, t));
                        break;
                    }
                }
                if hit.is_none() {
                    for (ids, line, _) in &e.groups {
                        let all = ids
                            .iter()
                            .all(|&t| reason.get(t).map(|r| r.is_some()).unwrap_or(false));
                        if all {
                            if let Some(&rep) = ids.first() {
                                hit = Some(Reason::Via(*line, rep));
                                break;
                            }
                        }
                    }
                }
                if let Some(h) = hit {
                    if let Some(r) = reason.get_mut(id) {
                        *r = Some(h);
                        changed = true;
                    }
                }
            }
        }
        reason
    }

    /// Renders the call chain from `id` down to the direct holder.
    fn chain_of(&self, id: usize, reason: &[Option<Reason>]) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = id;
        for _ in 0..12 {
            match reason.get(cur).and_then(|r| r.clone()) {
                Some(Reason::Via(line, next)) => {
                    out.push(format!(
                        "{}:{}: {} calls {}",
                        self.rel(self.fns.get(cur).map(|f| f.file).unwrap_or(0)),
                        line,
                        self.qname(cur),
                        self.qname(next),
                    ));
                    cur = next;
                }
                Some(Reason::Direct(line, what)) => {
                    out.push(format!(
                        "{}:{}: {} uses {}",
                        self.rel(self.fns.get(cur).map(|f| f.file).unwrap_or(0)),
                        line,
                        self.qname(cur),
                        what,
                    ));
                    break;
                }
                None => break,
            }
        }
        out
    }

    /// Whether a resolved target is a whole-graph API banned for
    /// router modules; returns the banned symbol name.
    fn r1_banned(target: &Target) -> Option<String> {
        match target {
            Target::Def { module, name } if module == "locality_graph::graph" => Some(name.clone()),
            Target::Def { module, name }
                if module == "locality_graph::geo" && name == "EmbeddedGraph" =>
            {
                Some(name.clone())
            }
            Target::Module(m) if m == "locality_graph::graph" => {
                Some("locality_graph::graph".to_string())
            }
            _ => None,
        }
    }

    /// R1 transitive reachability over the use-graph.
    pub fn check_r1(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            if !rules::R1_FILES.contains(&file.rel.as_str()) {
                continue;
            }
            let Some(module) = file.sym.module.clone() else {
                continue;
            };
            // Bindings in this module that resolve to banned targets.
            let mut banned_bindings: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
            for u in &file.sym.uses {
                let mut chain = Vec::new();
                let mut visited = BTreeSet::new();
                let target = if u.binding == "*" {
                    self.resolve_module_path(&module, &u.path, &mut chain, &mut visited, 0)
                } else {
                    self.resolve_path(&module, &u.path, &mut chain, &mut visited, 0)
                };
                let Some(banned) = Self::r1_banned(&target) else {
                    continue;
                };
                let mut full_chain = vec![format!(
                    "{}:{}: use {} as {}",
                    file.rel,
                    u.line,
                    u.path.join("::"),
                    u.binding
                )];
                full_chain.extend(chain);
                full_chain.push(format!("resolves to whole-graph API `{banned}`"));
                out.push(Violation {
                    rule: Rule::R1,
                    file: file.rel.clone(),
                    line: u.line,
                    symbol: banned.clone(),
                    message: format!(
                        "`{}` reaches the whole-graph API `{banned}` through the use-graph; \
                         a k-local router module may only see G_k(u)",
                        u.binding
                    ),
                    raw_line: self.line_text(fi, u.line).trim().to_string(),
                    chain: full_chain.clone(),
                });
                if u.binding != "*" {
                    banned_bindings.insert(u.binding.clone(), (banned, full_chain));
                }
            }
            // Uses of a banned alias in the body (the alias name
            // itself is invisible to the textual check).
            if banned_bindings.is_empty() {
                continue;
            }
            let use_lines: BTreeSet<usize> = file.sym.uses.iter().map(|u| u.line).collect();
            for (ti, t) in file.lx.tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident
                    || file.lx.is_test_line(t.line)
                    || use_lines.contains(&t.line)
                {
                    continue;
                }
                let name = file.lx.text(ti);
                let Some((banned, chain)) = banned_bindings.get(name) else {
                    continue;
                };
                out.push(Violation {
                    rule: Rule::R1,
                    file: file.rel.clone(),
                    line: t.line,
                    symbol: banned.clone(),
                    message: format!(
                        "`{name}` is an alias of the whole-graph API `{banned}` (see its use chain)"
                    ),
                    raw_line: self.line_text(fi, t.line).trim().to_string(),
                    chain: chain.clone(),
                });
            }
        }
        out
    }

    fn in_r2_scope(&self, rel: &str) -> bool {
        rules::crate_dir(rel).is_some_and(|c| rules::R2_CRATES.contains(&c))
            || rules::R2_SIM_FILES.contains(&rel)
    }

    /// R2 taint propagation: R2-scope functions transitively calling
    /// helpers that touch nondeterminism sources.
    pub fn check_r2_taint(&self, allow: &[AllowEntry]) -> Vec<Violation> {
        // Sources: fns with a direct pattern. A site suppressed by a
        // justified allow entry does not taint its callers (the entry
        // vouches for it); an *unallowed* pattern in R2 scope is
        // already a textual violation, and taints callers too.
        let mut sources: BTreeMap<usize, (usize, String)> = BTreeMap::new();
        let mut has_raw: Vec<bool> = vec![false; self.fns.len()];
        for id in 0..self.fns.len() {
            let Some((line, what)) = self.scan_patterns(id, TAINT_IDENTS, TAINT_PATHS) else {
                continue;
            };
            if let Some(h) = has_raw.get_mut(id) {
                *h = true;
            }
            let rel = self
                .rel(self.fns.get(id).map(|f| f.file).unwrap_or(0))
                .to_string();
            let fname = self
                .fns
                .get(id)
                .map(|f| f.def.name.clone())
                .unwrap_or_default();
            let pattern = what.split('`').nth(1).unwrap_or("").to_string();
            let allowed = allow.iter().any(|e| {
                e.rule == Rule::R2
                    && e.file == rel
                    && (e.sym == "*" || e.sym == pattern || e.sym == fname)
            });
            if !allowed {
                sources.insert(id, (line, what));
            }
        }
        let reason = self.propagate(&sources);
        let mut out = Vec::new();
        for id in 0..self.fns.len() {
            let Some(f) = self.fns.get(id) else { continue };
            if f.def.is_test {
                continue;
            }
            let rel = self.rel(f.file).to_string();
            if !self.in_r2_scope(&rel) || has_raw.get(id).copied().unwrap_or(false) {
                continue;
            }
            // Frontier rule: flag only the first R2-scope function on
            // each tainted path — its direct callee must be tainted
            // and sit *outside* R2 scope (inside, the callee is
            // flagged itself and fixing it heals the whole chain).
            let Some(e) = self.edges.get(id) else {
                continue;
            };
            let mut hit: Option<(usize, usize)> = None;
            for &(t, line) in &e.exact {
                let callee_rel = self.rel(self.fns.get(t).map(|x| x.file).unwrap_or(0));
                if reason.get(t).map(|r| r.is_some()).unwrap_or(false)
                    && !self.in_r2_scope(callee_rel)
                {
                    hit = Some((t, line));
                    break;
                }
            }
            if hit.is_none() {
                for (ids, line, _) in &e.groups {
                    let all_tainted = ids
                        .iter()
                        .all(|&t| reason.get(t).map(|r| r.is_some()).unwrap_or(false));
                    let any_outside = ids.iter().any(|&t| {
                        !self.in_r2_scope(self.rel(self.fns.get(t).map(|x| x.file).unwrap_or(0)))
                    });
                    if all_tainted && any_outside {
                        if let Some(&rep) = ids.first() {
                            hit = Some((rep, *line));
                            break;
                        }
                    }
                }
            }
            let Some((callee, line)) = hit else { continue };
            let mut chain = vec![format!(
                "{rel}:{line}: {} calls {}",
                self.qname(id),
                self.qname(callee),
            )];
            chain.extend(self.chain_of(callee, &reason));
            out.push(Violation {
                rule: Rule::R2,
                file: rel,
                line,
                symbol: f.def.name.clone(),
                message: format!(
                    "`{}` is tainted: it calls `{}`, which (transitively) touches a \
                     nondeterminism source outside this file",
                    self.qname(id),
                    self.qname(callee),
                ),
                raw_line: self.line_text(f.file, line).trim().to_string(),
                chain,
            });
        }
        out
    }

    fn r6_setup_exempt(name: &str) -> bool {
        name == "new"
            || name == "default"
            || name.starts_with("from_")
            || name.starts_with("with_")
            || name.starts_with("build")
    }

    fn r6_in_scope(&self, rel: &str, def: &FnDef) -> bool {
        if def.is_test || Self::r6_setup_exempt(&def.name) {
            return false;
        }
        if R6_FILES.contains(&rel) {
            return true;
        }
        if rel == "crates/core/src/view.rs" {
            return R6_VIEW_FNS.contains(&def.name.as_str());
        }
        if rel == "crates/graph/src/codec.rs" {
            return def.name.starts_with("decode") || def.self_ty.as_deref() == Some("Reader");
        }
        false
    }

    /// R6: hot-path allocation discipline.
    pub fn check_r6(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for id in 0..self.fns.len() {
            let Some(f) = self.fns.get(id) else { continue };
            let rel = self.rel(f.file).to_string();
            if !self.r6_in_scope(&rel, &f.def) {
                continue;
            }
            let Some(lx) = self.files.get(f.file).map(|x| &x.lx) else {
                continue;
            };
            let (lo, hi) = (f.def.tok_lo, f.def.tok_hi);
            let mut j = lo;
            while j <= hi {
                let Some(t) = lx.tok(j) else { break };
                if t.kind != TokenKind::Ident || lx.is_test_line(t.line) {
                    j += 1;
                    continue;
                }
                let name = lx.text(j);
                let found: Option<&str> = match name {
                    "Vec" | "Box"
                        if lx.is_punct(j + 1, b':')
                            && lx.is_punct(j + 2, b':')
                            && lx.is_ident(j + 3, "new") =>
                    {
                        Some(if name == "Vec" {
                            "Vec::new"
                        } else {
                            "Box::new"
                        })
                    }
                    "format" if lx.is_punct(j + 1, b'!') => Some("format!"),
                    "vec" if lx.is_punct(j + 1, b'!') => Some("vec!"),
                    "collect" | "to_vec" => {
                        // `collect(` / `collect::<..>(` / `to_vec(`.
                        let mut k = j + 1;
                        if lx.is_punct(k, b':')
                            && lx.is_punct(k + 1, b':')
                            && lx.is_punct(k + 2, b'<')
                        {
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
                        if lx.is_punct(k, b'(') {
                            Some(if name == "collect" {
                                "collect"
                            } else {
                                "to_vec"
                            })
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if let Some(what) = found {
                    out.push(Violation {
                        rule: Rule::R6,
                        file: rel.clone(),
                        line: t.line,
                        symbol: f.def.name.clone(),
                        message: format!(
                            "`{what}` allocates inside hot-path fn `{}`; hoist to a setup fn \
                             (new/default/from_*/with_*/build*) or allowlist with a justification",
                            self.qname(id),
                        ),
                        raw_line: self.line_text(f.file, t.line).trim().to_string(),
                        chain: Vec::new(),
                    });
                }
                j += 1;
            }
        }
        out
    }

    fn r7_root(&self, rel: &str, def: &FnDef) -> bool {
        if def.is_test {
            return false;
        }
        if R7_FILES.contains(&rel) {
            return true;
        }
        rel == R7_NETWORK && R7_STEP_FNS.contains(&def.name.as_str())
    }

    /// R7: no lock acquisition or blocking I/O reachable from the
    /// per-tick step path.
    pub fn check_r7(&self) -> Vec<Violation> {
        let block_idents: Vec<(&str, &str)> = BLOCK_IDENTS
            .iter()
            .map(|&n| (n, "lock/blocking-io type"))
            .collect();
        let block_paths: Vec<(&str, &str, &str)> = BLOCK_PATHS
            .iter()
            .map(|&(a, b)| (a, b, "blocking io"))
            .collect();
        let mut direct: BTreeMap<usize, (usize, String)> = BTreeMap::new();
        for id in 0..self.fns.len() {
            if self.fns.get(id).map(|f| f.def.is_test).unwrap_or(true) {
                continue;
            }
            if let Some(hit) = self.scan_patterns(id, &block_idents, &block_paths) {
                direct.insert(id, hit);
            }
        }
        let reason = self.propagate(&direct);
        let mut out = Vec::new();
        for id in 0..self.fns.len() {
            let Some(f) = self.fns.get(id) else { continue };
            let rel = self.rel(f.file).to_string();
            if !self.r7_root(&rel, &f.def) {
                continue;
            }
            // Direct blocking in the root itself.
            if let Some((line, what)) = direct.get(&id) {
                out.push(Violation {
                    rule: Rule::R7,
                    file: rel.clone(),
                    line: *line,
                    symbol: f.def.name.clone(),
                    message: format!(
                        "step-path fn `{}` uses {what}; the per-tick path must stay lock- and \
                         blocking-free (trials run side by side on the trial driver's threads)",
                        self.qname(id),
                    ),
                    raw_line: self.line_text(f.file, *line).trim().to_string(),
                    chain: Vec::new(),
                });
                continue;
            }
            // Frontier rule: a root whose blocking path runs through
            // another root is not re-flagged (fixing the inner root
            // heals both).
            let Some(e) = self.edges.get(id) else {
                continue;
            };
            let mut hit: Option<(usize, usize)> = None;
            for &(t, line) in &e.exact {
                let t_rel = self
                    .rel(self.fns.get(t).map(|x| x.file).unwrap_or(0))
                    .to_string();
                let t_root = self
                    .fns
                    .get(t)
                    .map(|x| self.r7_root(&t_rel, &x.def))
                    .unwrap_or(false);
                if !t_root && reason.get(t).map(|r| r.is_some()).unwrap_or(false) {
                    hit = Some((t, line));
                    break;
                }
            }
            if hit.is_none() {
                for (ids, line, _) in &e.groups {
                    let all = ids
                        .iter()
                        .all(|&t| reason.get(t).map(|r| r.is_some()).unwrap_or(false));
                    let none_root = ids.iter().all(|&t| {
                        let t_rel = self
                            .rel(self.fns.get(t).map(|x| x.file).unwrap_or(0))
                            .to_string();
                        !self
                            .fns
                            .get(t)
                            .map(|x| self.r7_root(&t_rel, &x.def))
                            .unwrap_or(false)
                    });
                    if all && none_root {
                        if let Some(&rep) = ids.first() {
                            hit = Some((rep, *line));
                            break;
                        }
                    }
                }
            }
            let Some((callee, line)) = hit else { continue };
            let mut chain = vec![format!(
                "{rel}:{line}: {} calls {}",
                self.qname(id),
                self.qname(callee),
            )];
            chain.extend(self.chain_of(callee, &reason));
            out.push(Violation {
                rule: Rule::R7,
                file: rel,
                line,
                symbol: f.def.name.clone(),
                message: format!(
                    "step-path fn `{}` reaches lock acquisition / blocking I/O via `{}`; \
                     the per-tick path must stay lock- and blocking-free",
                    self.qname(id),
                    self.qname(callee),
                ),
                raw_line: self.line_text(f.file, line).trim().to_string(),
                chain,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::symbols;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let entries = files
            .iter()
            .map(|&(rel, src)| {
                let lx = lexer::lex(src);
                let sym = symbols::parse(rel, &lx);
                FileEntry {
                    rel: rel.to_string(),
                    lx,
                    sym,
                }
            })
            .collect();
        Workspace::build(entries)
    }

    #[test]
    fn r1_follows_an_alias_re_export() {
        let w = ws(&[
            (
                "crates/graph/src/lib.rs",
                "pub mod graph;\npub mod quick;\npub use graph::{Graph, GraphBuilder};\n",
            ),
            (
                "crates/graph/src/graph.rs",
                "pub struct Graph;\npub struct GraphBuilder;\n",
            ),
            (
                "crates/graph/src/quick.rs",
                "pub use crate::graph::Graph as G;\n",
            ),
            (
                "crates/core/src/alg1.rs",
                "use locality_graph::quick::G;\npub fn f(_g: &G) -> u32 { 1 }\n",
            ),
        ]);
        let v = w.check_r1();
        assert!(
            v.iter()
                .any(|x| x.file == "crates/core/src/alg1.rs" && x.line == 1 && x.symbol == "Graph"),
            "{v:?}"
        );
        // The alias usage line is flagged too, with the chain.
        let body = v
            .iter()
            .find(|x| x.line == 2)
            .expect("alias-usage violation");
        assert!(body.chain.iter().any(|h| h.contains("quick.rs")));
    }

    #[test]
    fn r1_follows_a_two_hop_re_export_with_full_chain() {
        let w = ws(&[
            (
                "crates/graph/src/lib.rs",
                "pub mod graph;\npub mod a;\npub mod b;\n",
            ),
            ("crates/graph/src/graph.rs", "pub struct Graph;\n"),
            ("crates/graph/src/a.rs", "pub use crate::graph::Graph;\n"),
            (
                "crates/graph/src/b.rs",
                "pub use crate::a::Graph as Whole;\n",
            ),
            (
                "crates/core/src/alg2.rs",
                "use locality_graph::b::Whole;\npub fn g(_w: &Whole) {}\n",
            ),
        ]);
        let v = w.check_r1();
        let first = v
            .iter()
            .find(|x| x.file == "crates/core/src/alg2.rs" && x.line == 1)
            .expect("use-line violation");
        assert_eq!(first.symbol, "Graph");
        let joined = first.chain.join("\n");
        assert!(joined.contains("b.rs"), "{joined}");
        assert!(joined.contains("a.rs"), "{joined}");
    }

    #[test]
    fn r1_ignores_safe_symbols_from_the_same_crate() {
        let w = ws(&[
            (
                "crates/graph/src/lib.rs",
                "pub mod graph;\npub mod labels;\npub use labels::NodeId;\n",
            ),
            ("crates/graph/src/graph.rs", "pub struct Graph;\n"),
            ("crates/graph/src/labels.rs", "pub struct NodeId;\n"),
            (
                "crates/core/src/alg1.rs",
                "use locality_graph::NodeId;\npub fn f(_u: NodeId) {}\n",
            ),
        ]);
        assert!(w.check_r1().is_empty());
    }

    #[test]
    fn r2_taint_crosses_file_and_crate_boundaries() {
        let w = ws(&[
            ("crates/sim/src/lib.rs", "pub mod util;\n"),
            (
                "crates/sim/src/util.rs",
                "pub fn shuffled(xs: Vec<u32>) -> Vec<u32> {\n\
                 let m: std::collections::HashMap<u32, u32> = Default::default();\n\
                 let _ = m;\nxs\n}\n",
            ),
            ("crates/core/src/lib.rs", "pub mod order;\n"),
            (
                "crates/core/src/order.rs",
                "use locality_sim::util::shuffled;\n\
                 pub fn order(xs: Vec<u32>) -> Vec<u32> { shuffled(xs) }\n",
            ),
        ]);
        let v = w.check_r2_taint(&[]);
        let hit = v
            .iter()
            .find(|x| x.file == "crates/core/src/order.rs")
            .expect("tainted caller flagged");
        assert_eq!(hit.symbol, "order");
        assert!(hit.chain.join("\n").contains("HashMap"), "{:?}", hit.chain);
        // An allow entry on the helper's site de-taints the caller.
        let allow = crate::allow::parse(
            "R2 | crates/sim/src/util.rs | sym=HashMap | membership only, never iterated\n",
        )
        .expect("parses");
        assert!(w.check_r2_taint(&allow.entries).is_empty());
    }

    #[test]
    fn r6_flags_hot_path_allocations_outside_setup_fns() {
        let w = ws(&[(
            "crates/sim/src/sched.rs",
            "pub struct Wheel { slots: Vec<u32> }\n\
             impl Wheel {\n\
                 pub fn new() -> Wheel { Wheel { slots: Vec::new() } }\n\
                 pub fn advance(&mut self) { let v: Vec<u32> = Vec::new(); let _ = v; }\n\
                 pub fn drain(&self) -> Vec<u32> { self.slots.iter().copied().collect() }\n\
                 pub fn grow(&mut self) { self.slots = vec![0; 8]; }\n\
             }\n",
        )]);
        let v = w.check_r6();
        let syms: Vec<(&str, &str)> = v
            .iter()
            .map(|x| (x.symbol.as_str(), x.message.split('`').nth(1).unwrap_or("")))
            .collect();
        assert!(syms.contains(&("advance", "Vec::new")), "{v:?}");
        assert!(syms.contains(&("drain", "collect")), "{v:?}");
        assert!(syms.contains(&("grow", "vec!")), "{v:?}");
        assert!(!syms.iter().any(|&(s, _)| s == "new"), "setup fn exempt");
    }

    #[test]
    fn r7_reaches_a_lock_through_field_and_self_calls() {
        let w = ws(&[
            ("crates/core/src/lib.rs", "pub mod engine;\n"),
            (
                "crates/core/src/engine.rs",
                "use std::sync::RwLock;\n\
                 pub struct Store { shards: Vec<RwLock<u32>> }\n\
                 impl Store {\n\
                     fn shard_of(&self) -> &RwLock<u32> { &self.shards[0] }\n\
                     pub fn view(&self) -> u32 { *self.shard_of().read().unwrap() }\n\
                 }\n",
            ),
            ("crates/sim/src/lib.rs", "pub mod network;\n"),
            (
                "crates/sim/src/network.rs",
                "use local_routing::engine::Store;\n\
                 pub struct Network { views: Store }\n\
                 impl Network {\n\
                     fn reprovision(&mut self) { let _ = self.views.view(); }\n\
                     pub fn step(&mut self) { self.reprovision(); }\n\
                 }\n",
            ),
        ]);
        let v = w.check_r7();
        assert_eq!(v.len(), 1, "only the frontier root is flagged: {v:?}");
        let hit = v.first().expect("one");
        assert_eq!(hit.symbol, "reprovision");
        assert!(hit.chain.join("\n").contains("RwLock"), "{:?}", hit.chain);
    }

    #[test]
    fn must_alias_method_groups_stay_silent_on_mixed_candidates() {
        // Two `view` methods, one blocking and one not: a bare
        // `recv.view()` must not create an edge.
        let w = ws(&[
            ("crates/core/src/lib.rs", "pub mod engine;\n"),
            (
                "crates/core/src/engine.rs",
                "use std::sync::Mutex;\n\
                 pub struct A;\nimpl A { pub fn view(&self) -> u32 { let m = Mutex::new(1); *m.lock().unwrap() } }\n\
                 pub struct B;\nimpl B { pub fn view(&self) -> u32 { 2 } }\n",
            ),
            ("crates/sim/src/lib.rs", "pub mod network;\n"),
            (
                "crates/sim/src/network.rs",
                "pub fn helper(n: &local_routing::engine::B) -> u32 { n.view() }\n\
                 pub struct Net;\nimpl Net { fn process(&mut self, b: &local_routing::engine::B) { let _ = b.view(); } }\n",
            ),
        ]);
        assert!(w.check_r7().is_empty());
    }
}
