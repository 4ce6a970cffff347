//! Workspace use-graph and R1's transitive locality arm.
//!
//! [`Workspace::build`] folds every library file's [`FileSymbols`]
//! into module and item indexes. [`Workspace::check_r1`] then resolves
//! each router module's `use` paths — following re-exports, aliases,
//! globs, and `crate`/`self`/`super` roots across all eight crates — so
//! a router module may not *reach* a whole-graph API through any chain
//! of `use`/`pub use`/alias hops; the full offending chain is carried
//! in the diagnostic.
//!
//! No other rule needs the whole workspace: R2 and R7 are per-file
//! token arms over a dependency-closed scope, and R6 scans one file's
//! own function spans (see [`crate::rules`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Lexed, TokenKind};
use crate::rules::{self, Rule, Violation};
use crate::symbols::FileSymbols;

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

/// The assembled workspace graph.
pub struct Workspace {
    files: Vec<FileEntry>,
    /// Every known module path (from file layout, `mod` decls, inline
    /// modules).
    modules: BTreeSet<String>,
    /// Every (module, item name) the workspace defines.
    items: BTreeSet<(String, String)>,
    /// module → indices into per-file `uses` as (file idx, use idx).
    uses_of: BTreeMap<String, Vec<(usize, usize)>>,
}

const RESOLVE_DEPTH: usize = 40;

impl Workspace {
    /// Builds the workspace graph from analyzed files.
    pub fn build(files: Vec<FileEntry>) -> Workspace {
        let mut modules = BTreeSet::new();
        let mut items = BTreeSet::new();
        let mut uses_of: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
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
                if it.kind != crate::symbols::ItemKind::Mod {
                    items.insert((it.module.clone(), it.name.clone()));
                }
            }
            for (parent, name) in &file.sym.submods {
                modules.insert(format!("{parent}::{name}"));
            }
            for (ui, u) in file.sym.uses.iter().enumerate() {
                uses_of.entry(u.module.clone()).or_default().push((fi, ui));
            }
        }
        Workspace {
            files,
            modules,
            items,
            uses_of,
        }
    }

    fn rel(&self, file: usize) -> &str {
        self.files.get(file).map(|f| f.rel.as_str()).unwrap_or("")
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
        if self.items.contains(&(module.to_string(), name.to_string())) {
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
        for file in &self.files {
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
                    raw_line: file.lx.raw_line(u.line).to_string(),
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
                    raw_line: file.lx.raw_line(t.line).to_string(),
                    chain: chain.clone(),
                });
            }
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
}
