//! The checked-in allowlist (`lint.allow` at the workspace root).
//!
//! Plain text, one entry per line, pipe-separated so entries stay
//! greppable and diffable:
//!
//! ```text
//! # rule | file | sym=<symbol> | justification
//! R3 | crates/graph/src/permute.rs | sym=expect | construction invariants of relabelling
//! R3i | crates/adversary/src/lemma1.rs | sym=f | classify checks f's image before it looks keys up
//! ```
//!
//! An entry suppresses violations of `rule` in `file` whose bound
//! *symbol* (the identifier, function name, or module path the finding
//! attaches to) equals the entry's symbol. There is no wildcard: no
//! finding binds to `*`, so a `sym=*` entry suppresses nothing and is
//! reported stale. Binding to symbols instead of line contents
//! means entries survive line churn but die with the code they excuse.
//! The justification is mandatory — an allowlisted violation without a
//! reason is itself a lint error. Entries that suppress nothing are
//! reported as *stale* so the allowlist cannot rot. A third field
//! without the `sym=` prefix (an entry bound to a raw-line substring)
//! is malformed, so it fails the lint instead of silently
//! widening or dropping a suppression.

use crate::rules::{Rule, Violation};

/// One parsed, symbol-bound allowlist entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule the entry applies to.
    pub rule: Rule,
    /// Workspace-relative file the entry applies to.
    pub file: String,
    /// Symbol the entry binds to.
    pub sym: String,
    /// Why the violation is acceptable.
    pub justification: String,
    /// 1-indexed line in `lint.allow` (for stale reporting).
    pub line: usize,
}

impl AllowEntry {
    /// Whether this entry suppresses `v`.
    pub fn matches(&self, v: &Violation) -> bool {
        self.rule == v.rule && self.file == v.file && self.sym == v.symbol
    }

    /// Compact rendering for stale-entry reports.
    pub fn render(&self) -> String {
        format!(
            "lint.allow:{}: {} | {} | sym={}",
            self.line,
            self.rule.id(),
            self.file,
            self.sym
        )
    }
}

/// Parses the allowlist text.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed entries
/// (wrong field count, unknown rule id, a third field without the
/// `sym=` prefix, empty symbol or justification).
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, '|').map(str::trim);
        let (rule, file, sym, justification) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(f), Some(n), Some(j)) => (r, f, n, j),
                _ => {
                    return Err(format!(
                    "lint.allow:{line_no}: expected `rule | file | sym=<symbol> | justification`"
                ))
                }
            };
        let Some(rule) = Rule::from_id(rule) else {
            return Err(format!(
                "lint.allow:{line_no}: unknown rule id `{rule}` (use R1/R2/R3/R3i/R4/R5/R6/R7)"
            ));
        };
        if file.is_empty() || sym.is_empty() {
            return Err(format!("lint.allow:{line_no}: empty file or symbol field"));
        }
        if justification.is_empty() {
            return Err(format!(
                "lint.allow:{line_no}: a justification is mandatory"
            ));
        }
        let Some(sym) = sym.strip_prefix("sym=") else {
            return Err(format!(
                "lint.allow:{line_no}: line-bound entry `{} | {file} | {sym}` suppresses \
                 nothing; re-justify it as `{} | {file} | sym=<symbol> | <why>`",
                rule.id(),
                rule.id(),
            ));
        };
        if sym.is_empty() {
            return Err(format!("lint.allow:{line_no}: empty symbol after `sym=`"));
        }
        out.push(AllowEntry {
            rule,
            file: file.to_string(),
            sym: sym.to_string(),
            justification: justification.to_string(),
            line: line_no,
        });
    }
    Ok(out)
}

/// Splits violations into (kept, suppressed-count) and returns the
/// stale entries that matched nothing.
pub fn apply(
    entries: &[AllowEntry],
    violations: Vec<Violation>,
) -> (Vec<Violation>, usize, Vec<AllowEntry>) {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for v in violations {
        let mut hit = false;
        for (i, e) in entries.iter().enumerate() {
            if e.matches(&v) {
                if let Some(u) = used.get_mut(i) {
                    *u = true;
                }
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            kept.push(v);
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    (kept, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::check_file;

    #[test]
    fn entries_suppress_matching_violations_by_symbol() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"fine\") }\n";
        let violations = check_file("crates/sim/src/foo.rs", &lex(src));
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations.first().map(|v| v.symbol.as_str()),
            Some("expect")
        );
        let allow =
            parse("# comment\n\nR3 | crates/sim/src/foo.rs | sym=expect | provably present\n")
                .expect("parses");
        let (kept, suppressed, stale) = apply(&allow, violations);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        assert!(stale.is_empty());
    }

    #[test]
    fn wildcard_symbol_suppresses_nothing_and_goes_stale() {
        let src = "fn f(v: &[u32]) -> u32 { v[0] + v[1] }\n";
        let violations = check_file("crates/sim/src/foo.rs", &lex(src));
        assert_eq!(violations.len(), 2);
        let allow =
            parse("R3i | crates/sim/src/foo.rs | sym=* | fixed-layout vector\n").expect("parses");
        let (kept, suppressed, stale) = apply(&allow, violations);
        assert_eq!(kept.len(), 2);
        assert_eq!(suppressed, 0);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn a_different_symbol_does_not_match_and_goes_stale() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let violations = check_file("crates/sim/src/foo.rs", &lex(src));
        let allow = parse("R3 | crates/sim/src/foo.rs | sym=expect | wrong symbol on purpose\n")
            .expect("parses");
        let (kept, suppressed, stale) = apply(&allow, violations);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 0);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn unused_entries_are_stale_and_wrong_rule_does_not_match() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let violations = check_file("crates/sim/src/foo.rs", &lex(src));
        let allow = parse("R3i | crates/sim/src/foo.rs | sym=unwrap | wrong family on purpose\n")
            .expect("parses");
        let (kept, suppressed, stale) = apply(&allow, violations);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 0);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(parse("R3 | too | few\n").is_err());
        assert!(parse("R9 | a | b | c\n").is_err());
        assert!(parse("R3 | a | sym=b | \n").is_err());
        assert!(parse("R3 | a | sym= | why\n").is_err());
    }

    #[test]
    fn legacy_line_bound_entries_never_suppress_and_demand_re_justification() {
        // A v1 entry, bound to a substring of the offending line, is
        // malformed: the whole allowlist is refused, so it can neither
        // suppress nor silently drop out.
        let err =
            parse("# c\nR3 | crates/sim/src/foo.rs | .expect( | provably present\n").unwrap_err();
        assert!(err.starts_with("lint.allow:2:"), "{err}");
        assert!(err.contains("re-justify"), "{err}");
        assert!(
            err.contains("R3 | crates/sim/src/foo.rs | sym=<symbol>"),
            "{err}"
        );
    }
}
