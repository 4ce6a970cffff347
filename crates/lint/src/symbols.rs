//! Per-file symbol layer: `use` declarations, item definitions and
//! function spans.
//!
//! [`parse`] runs a single forward pass over a file's token stream
//! (see [`crate::lexer`]) and produces the facts R1's use-graph and
//! R6's per-function scan read:
//!
//! * every `use`/`pub use` binding, with its full path, alias, and
//!   visibility — use *trees* (`use a::{b, c as d, e::*}`) are
//!   expanded into one binding per leaf;
//! * every module-level item definition (`fn`, `struct`, `enum`,
//!   `trait`, `type`, `const`, `static`, `mod`, `macro_rules!`);
//! * every function definition — free or in an `impl` block — with its
//!   name, `impl` self type, and token span (signature included).
//!
//! The parser is deliberately approximate — it is a lint substrate,
//! not a compiler front end. It records no call sites and no field
//! types: no rule follows calls.

use crate::lexer::{Lexed, TokenKind};
use crate::rules;

/// Directory-name → library-crate-identifier map for the workspace
/// (`crates/<dir>` → the ident a `use` path starts with). Unknown
/// directories fall back to `dir` with dashes underscored.
pub fn crate_ident(dir: &str) -> String {
    match dir {
        "graph" => "locality_graph".to_string(),
        "core" => "local_routing".to_string(),
        "adversary" => "locality_adversary".to_string(),
        "sim" => "locality_sim".to_string(),
        "bench" => "locality_bench".to_string(),
        "obs" => "locality_obs".to_string(),
        "lint" => "locality_lint".to_string(),
        "integration" => "locality_integration".to_string(),
        other => other.replace('-', "_"),
    }
}

/// The module path (`locality_graph::codec`, ..) of a workspace
/// library file, or `None` for binaries/tests/examples, which do not
/// participate in the use-graph.
pub fn module_path(rel: &str) -> Option<String> {
    if rules::classify(rel) != Some(rules::FileClass::Lib) {
        return None;
    }
    let rest = rel.strip_prefix("crates/")?;
    let (dir, inside) = rest.split_once('/')?;
    let inside = inside.strip_prefix("src/")?;
    let root = crate_ident(dir);
    if inside == "lib.rs" {
        return Some(root);
    }
    let mut segs: Vec<&str> = inside.split('/').collect();
    let last = segs.pop()?.strip_suffix(".rs")?;
    if last != "mod" {
        segs.push(last);
    }
    let mut path = root;
    for s in segs {
        path.push_str("::");
        path.push_str(s);
    }
    Some(path)
}

/// One expanded `use` binding.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Whether the binding is re-exported (`pub use`).
    pub vis: bool,
    /// Module the declaration appears in.
    pub module: String,
    /// Full path segments as written (leading `crate`/`self`/`super`
    /// included; trailing `self` of `use a::{self}` removed).
    pub path: Vec<String>,
    /// Name the binding introduces (`as` alias, the last segment, or
    /// `*` for a glob import).
    pub binding: String,
    /// 1-indexed line of the leaf.
    pub line: usize,
}

/// Kinds of module-level items.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// Free function.
    Fn,
    /// Struct definition.
    Struct,
    /// Enum definition.
    Enum,
    /// Trait definition.
    Trait,
    /// `type` alias.
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// Inline or file submodule declaration.
    Mod,
    /// `macro_rules!` definition.
    Macro,
}

/// One module-level item definition.
#[derive(Clone, Debug)]
pub struct Item {
    /// Module the item is defined in.
    pub module: String,
    /// Item kind.
    pub kind: ItemKind,
    /// Item name.
    pub name: String,
}

/// One function definition (free or method).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `impl` self type, when the function is a method.
    pub self_ty: Option<String>,
    /// Whether the definition sits in a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Token range `[lo, hi]` covering signature and body.
    pub tok_lo: usize,
    /// Inclusive upper token index.
    pub tok_hi: usize,
}

/// Everything the symbol pass extracts from one file.
#[derive(Default, Debug)]
pub struct FileSymbols {
    /// Module path, or `None` when the file is outside the use-graph.
    pub module: Option<String>,
    /// Expanded `use` bindings.
    pub uses: Vec<UseDecl>,
    /// Module-level item definitions.
    pub items: Vec<Item>,
    /// Function definitions.
    pub fns: Vec<FnDef>,
    /// `mod name;` child-file declarations, as (parent module, name).
    pub submods: Vec<(String, String)>,
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

struct Parser<'a> {
    lx: &'a Lexed,
    out: FileSymbols,
}

/// Parses one lexed file into its symbols. `rel` decides the module
/// path; files outside the use-graph parse to an empty result.
pub fn parse(rel: &str, lx: &Lexed) -> FileSymbols {
    let Some(module) = module_path(rel) else {
        return FileSymbols::default();
    };
    let mut p = Parser {
        lx,
        out: FileSymbols {
            module: Some(module.clone()),
            ..FileSymbols::default()
        },
    };
    p.items(0, lx.tokens.len(), &module, None);
    p.out
}

impl Parser<'_> {
    fn line(&self, i: usize) -> usize {
        self.lx.tok(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index just past the group opened by the delimiter at `open`
    /// (`{`/`(`/`[`), or `end` when unbalanced.
    fn skip_group(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.lx.tok(open).map(|t| t.kind) {
            Some(TokenKind::Punct(b'{')) => (b'{', b'}'),
            Some(TokenKind::Punct(b'(')) => (b'(', b')'),
            Some(TokenKind::Punct(b'[')) => (b'[', b']'),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.lx.is_punct(i, o) {
                depth += 1;
            } else if self.lx.is_punct(i, c) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Index of the first `;` or block-opening `{` at delimiter depth
    /// zero (starting at `i`), for headers of `fn`/`struct`/`const`
    /// items. Returns `end` when neither occurs.
    fn header_end(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.lx.tok(i).map(|t| t.kind) {
                Some(TokenKind::Punct(b'{')) | Some(TokenKind::Punct(b';')) => return i,
                Some(TokenKind::Punct(b'(')) | Some(TokenKind::Punct(b'[')) => {
                    i = self.skip_group(i, end);
                }
                _ => i += 1,
            }
        }
        end
    }

    /// Main item loop over `[i, end)` in module `module`, with
    /// `self_ty` set inside `impl` blocks.
    fn items(&mut self, mut i: usize, end: usize, module: &str, self_ty: Option<&str>) {
        let mut vis = false;
        while i < end {
            if self.lx.is_punct(i, b'#') {
                // Attribute: `#` `[` .. `]` (or `#![..]`).
                let open = if self.lx.is_punct(i + 1, b'!') {
                    i + 2
                } else {
                    i + 1
                };
                i = self.skip_group(open, end).max(i + 1);
                continue;
            }
            if self.lx.is_punct(i, b'{') {
                i = self.skip_group(i, end);
                vis = false;
                continue;
            }
            let Some(t) = self.lx.tok(i) else { break };
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            match self.lx.text(i) {
                "pub" => {
                    vis = true;
                    i += 1;
                    if self.lx.is_punct(i, b'(') {
                        i = self.skip_group(i, end);
                    }
                }
                "use" => {
                    i = self.parse_use(i + 1, end, module, vis);
                    vis = false;
                }
                "mod" => {
                    i = self.parse_mod(i, end, module);
                    vis = false;
                }
                "impl" => {
                    i = self.parse_impl(i, end, module);
                    vis = false;
                }
                "fn" => {
                    i = self.parse_fn(i, end, module, self_ty);
                    vis = false;
                }
                "struct" => {
                    i = self.parse_struct(i, end, module);
                    vis = false;
                }
                "enum" | "trait" | "union" => {
                    let kind = if self.lx.is_ident(i, "enum") {
                        ItemKind::Enum
                    } else {
                        ItemKind::Trait
                    };
                    if let Some(name) = self.ident_at(i + 1) {
                        self.push_item(module, kind, name);
                    }
                    let h = self.header_end(i + 1, end);
                    i = if self.lx.is_punct(h, b'{') {
                        self.skip_group(h, end)
                    } else {
                        h + 1
                    };
                    vis = false;
                }
                "type" => {
                    if let Some(name) = self.ident_at(i + 1) {
                        self.push_item(module, ItemKind::TypeAlias, name);
                    }
                    i = self.skip_to_semi(i + 1, end);
                    vis = false;
                }
                "const" | "static" => {
                    // `const fn` / `static` item; let the `fn` branch
                    // handle the former on the next iteration.
                    if self.lx.is_ident(i + 1, "fn")
                        || (self.lx.is_ident(i + 1, "unsafe") && self.lx.is_ident(i + 2, "fn"))
                    {
                        i += 1;
                        continue;
                    }
                    let kind = if self.lx.is_ident(i, "const") {
                        ItemKind::Const
                    } else {
                        ItemKind::Static
                    };
                    if let Some(name) = self.ident_at(i + 1) {
                        if name != "mut" {
                            self.push_item(module, kind, name);
                        } else if let Some(name) = self.ident_at(i + 2) {
                            self.push_item(module, kind, name);
                        }
                    }
                    i = self.skip_to_semi(i + 1, end);
                    vis = false;
                }
                "macro_rules" => {
                    if let Some(name) = self.ident_at(i + 2) {
                        self.push_item(module, ItemKind::Macro, name);
                    }
                    let h = self.header_end(i + 1, end);
                    i = if self.lx.is_punct(h, b'{') {
                        self.skip_group(h, end)
                    } else {
                        h + 1
                    };
                    vis = false;
                }
                "extern" => {
                    // `extern crate x;` or an extern block.
                    let h = self.header_end(i + 1, end);
                    i = if self.lx.is_punct(h, b'{') {
                        self.skip_group(h, end)
                    } else {
                        h + 1
                    };
                    vis = false;
                }
                _ => i += 1,
            }
        }
    }

    fn ident_at(&self, i: usize) -> Option<String> {
        match self.lx.tok(i) {
            Some(t) if t.kind == TokenKind::Ident => Some(self.lx.text(i).to_string()),
            _ => None,
        }
    }

    fn push_item(&mut self, module: &str, kind: ItemKind, name: String) {
        self.out.items.push(Item {
            module: module.to_string(),
            kind,
            name,
        });
    }

    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.lx.tok(i).map(|t| t.kind) {
                Some(TokenKind::Punct(b';')) => return i + 1,
                Some(TokenKind::Punct(b'{'))
                | Some(TokenKind::Punct(b'('))
                | Some(TokenKind::Punct(b'[')) => i = self.skip_group(i, end),
                _ => i += 1,
            }
        }
        end
    }

    fn parse_mod(&mut self, i: usize, end: usize, module: &str) -> usize {
        let Some(name) = self.ident_at(i + 1) else {
            return i + 1;
        };
        self.push_item(module, ItemKind::Mod, name.clone());
        if self.lx.is_punct(i + 2, b';') {
            self.out.submods.push((module.to_string(), name));
            return i + 3;
        }
        if self.lx.is_punct(i + 2, b'{') {
            let close = self.skip_group(i + 2, end);
            let child = format!("{module}::{name}");
            self.out.submods.push((module.to_string(), name));
            self.items(i + 3, close.saturating_sub(1), &child, None);
            return close;
        }
        i + 2
    }

    fn parse_impl(&mut self, i: usize, end: usize, module: &str) -> usize {
        let h = self.header_end(i + 1, end);
        if !self.lx.is_punct(h, b'{') {
            return h + 1;
        }
        // Self type: angle-depth-0 idents of the header; the first one
        // after `for` when present (`impl Trait for Type`), else the
        // last one (`impl Type`, `impl mod::Type<T>`).
        let mut angle = 0usize;
        let mut after_for = false;
        let mut ty: Option<String> = None;
        let mut j = i + 1;
        while j < h {
            match self.lx.tok(j).map(|t| t.kind) {
                Some(TokenKind::Punct(b'<')) => angle += 1,
                Some(TokenKind::Punct(b'>')) => angle = angle.saturating_sub(1),
                Some(TokenKind::Ident) if angle == 0 => {
                    let name = self.lx.text(j);
                    if name == "for" {
                        after_for = true;
                        ty = None;
                    } else if name == "where" {
                        break;
                    } else if !is_keyword(name) && (!after_for || ty.is_none()) {
                        ty = Some(name.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let close = self.skip_group(h, end);
        self.items(h + 1, close.saturating_sub(1), module, ty.as_deref());
        close
    }

    fn parse_fn(&mut self, i: usize, end: usize, module: &str, self_ty: Option<&str>) -> usize {
        let Some(name) = self.ident_at(i + 1) else {
            return i + 1;
        };
        let h = self.header_end(i + 2, end);
        let close = if self.lx.is_punct(h, b'{') {
            self.skip_group(h, end)
        } else {
            h + 1
        };
        self.out.fns.push(FnDef {
            name: name.clone(),
            self_ty: self_ty.map(str::to_string),
            is_test: self.lx.is_test_line(self.line(i)),
            tok_lo: i,
            tok_hi: close.saturating_sub(1).max(i),
        });
        if self_ty.is_none() {
            self.push_item(module, ItemKind::Fn, name);
        }
        close
    }

    fn parse_struct(&mut self, i: usize, end: usize, module: &str) -> usize {
        let Some(name) = self.ident_at(i + 1) else {
            return i + 1;
        };
        self.push_item(module, ItemKind::Struct, name);
        let h = self.header_end(i + 2, end);
        if self.lx.is_punct(h, b'{') {
            self.skip_group(h, end)
        } else {
            h + 1 // unit or tuple struct
        }
    }

    /// Expands one `use` declaration starting right after the `use`
    /// keyword; returns the index past the closing `;`.
    fn parse_use(&mut self, i: usize, end: usize, module: &str, vis: bool) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        let after = self.use_tree(i, end, &mut prefix, module, vis);
        // Consume through the terminating `;` if the tree parse
        // stopped short of it.
        let mut j = after;
        while j < end && !self.lx.is_punct(j, b';') {
            j += 1;
        }
        (j + 1).max(i + 1)
    }

    /// Recursive use-tree expansion. `prefix` holds the segments
    /// accumulated so far; returns the index just past this subtree.
    fn use_tree(
        &mut self,
        mut i: usize,
        end: usize,
        prefix: &mut Vec<String>,
        module: &str,
        vis: bool,
    ) -> usize {
        let depth_base = prefix.len();
        while i < end {
            if self.lx.is_punct(i, b'*') {
                self.out.uses.push(UseDecl {
                    vis,
                    module: module.to_string(),
                    path: prefix.clone(),
                    binding: "*".to_string(),
                    line: self.line(i),
                });
                prefix.truncate(depth_base);
                return i + 1;
            }
            if self.lx.is_punct(i, b'{') {
                let close = self.skip_group(i, end);
                let mut j = i + 1;
                while j < close.saturating_sub(1) {
                    let before = j;
                    j = self.use_tree(j, close.saturating_sub(1), prefix, module, vis);
                    if self.lx.is_punct(j, b',') {
                        j += 1;
                    }
                    if j <= before {
                        j = before + 1; // safety: always advance
                    }
                }
                prefix.truncate(depth_base);
                return close;
            }
            let Some(seg) = self.ident_at(i) else {
                prefix.truncate(depth_base);
                return i + 1;
            };
            if self.lx.is_punct(i + 1, b':') && self.lx.is_punct(i + 2, b':') {
                prefix.push(seg);
                i += 3;
                continue;
            }
            // Leaf segment. `use a::b::{self, ..}` binds the module
            // itself under its own name.
            let (path, mut binding) = if seg == "self" && !prefix.is_empty() {
                (prefix.clone(), prefix.last().cloned().unwrap_or_default())
            } else {
                let mut p = prefix.clone();
                p.push(seg.clone());
                (p, seg)
            };
            let mut after = i + 1;
            if self.lx.is_ident(after, "as") {
                if let Some(alias) = self.ident_at(after + 1) {
                    binding = alias;
                    after += 2;
                }
            }
            self.out.uses.push(UseDecl {
                vis,
                module: module.to_string(),
                path,
                binding,
                line: self.line(i),
            });
            prefix.truncate(depth_base);
            return after;
        }
        prefix.truncate(depth_base);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn sym(rel: &str, src: &str) -> FileSymbols {
        parse(rel, &lexer::lex(src))
    }

    #[test]
    fn module_paths_follow_the_crate_layout() {
        assert_eq!(
            module_path("crates/graph/src/lib.rs").as_deref(),
            Some("locality_graph")
        );
        assert_eq!(
            module_path("crates/core/src/view.rs").as_deref(),
            Some("local_routing::view")
        );
        assert_eq!(
            module_path("crates/sim/src/a/mod.rs").as_deref(),
            Some("locality_sim::a")
        );
        assert_eq!(module_path("crates/bench/src/bin/chaos.rs"), None);
        assert_eq!(module_path("crates/sim/tests/foo.rs"), None);
        assert_eq!(module_path("tests/foo.rs"), None);
    }

    #[test]
    fn use_trees_expand_with_aliases_globs_and_self() {
        let s = sym(
            "crates/core/src/foo.rs",
            "pub use locality_graph::graph::Graph as G;\n\
             use crate::view::{LocalView, RoutingView as RV};\n\
             use locality_graph::{traversal, geo::*};\n\
             use super::engine::{self};\n",
        );
        let bind: Vec<(String, String)> = s
            .uses
            .iter()
            .map(|u| (u.path.join("::"), u.binding.clone()))
            .collect();
        assert!(bind.contains(&("locality_graph::graph::Graph".into(), "G".into())));
        assert!(bind.contains(&("crate::view::LocalView".into(), "LocalView".into())));
        assert!(bind.contains(&("crate::view::RoutingView".into(), "RV".into())));
        assert!(bind.contains(&("locality_graph::traversal".into(), "traversal".into())));
        assert!(bind.contains(&("locality_graph::geo".into(), "*".into())));
        assert!(bind.contains(&("super::engine".into(), "engine".into())));
        assert!(s.uses.first().map(|u| u.vis).unwrap_or(false));
        assert!(!s.uses.iter().skip(1).any(|u| u.vis));
    }

    #[test]
    fn items_and_fns_are_recorded() {
        let src = "pub struct Net { views: Store, n: u32 }\n\
                   impl Net {\n    pub fn tick(&mut self) { self.views.view(1); self.help(); }\n\
                       fn help(&self) {}\n}\n\
                   pub fn free(x: u32) -> u32 { double(x) }\n\
                   pub enum E { A }\npub const N: usize = 4;\nmod sub;\n";
        let lx = lexer::lex(src);
        let s = parse("crates/sim/src/foo.rs", &lx);
        let names: Vec<(&ItemKind, &str)> =
            s.items.iter().map(|i| (&i.kind, i.name.as_str())).collect();
        assert!(names.contains(&(&ItemKind::Struct, "Net")));
        assert!(names.contains(&(&ItemKind::Fn, "free")));
        assert!(names.contains(&(&ItemKind::Enum, "E")));
        assert!(names.contains(&(&ItemKind::Const, "N")));
        assert!(names.contains(&(&ItemKind::Mod, "sub")));
        assert_eq!(
            s.submods,
            vec![("locality_sim::foo".to_string(), "sub".to_string())]
        );
        let tick = s.fns.iter().find(|f| f.name == "tick").expect("tick");
        assert_eq!(tick.self_ty.as_deref(), Some("Net"));
        let free = s.fns.iter().find(|f| f.name == "free").expect("free");
        assert!(free.self_ty.is_none());
        // A span runs from the `fn` keyword to the body's closing brace.
        for f in [tick, free] {
            assert_eq!(lx.text(f.tok_lo), "fn", "{}", f.name);
            assert_eq!(lx.text(f.tok_hi), "}", "{}", f.name);
        }
        assert_eq!(s.fns.len(), 3, "fields are not functions: {:?}", s.fns);
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let s = sym(
            "crates/sim/src/foo.rs",
            "impl fmt::Display for Err {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { helper() }\n}\n",
        );
        let f = s.fns.first().expect("fmt");
        assert_eq!(f.self_ty.as_deref(), Some("Err"));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let s = sym(
            "crates/sim/src/foo.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n",
        );
        let t = s.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        let l = s.fns.iter().find(|f| f.name == "lib").expect("lib");
        assert!(!l.is_test);
    }
}
