//! Lexical substrate: one masked token stream per file, with spans.
//!
//! The lint lexes each file once. Every rule arm, the symbol layer and
//! the workspace use-graph read that one [`Lexed`]: a *masked* copy of
//! the source (comments, string literals and char literals blanked
//! out, line structure preserved), its `#[cfg(test)]` line flags, and a
//! flat token stream with byte spans and line numbers. Masking keeps
//! the analyses honest — `"HashMap"` inside a string or a doc comment
//! is not a determinism leak — and spans let every diagnostic point at
//! a real location. The raw source rides along for the excerpts that
//! reports print.
//!
//! The lexer distinguishes idents, lifetimes, numbers, and
//! punctuation bytes. Lifetimes matter: a line scanner cannot tell
//! `&'a [u8]` (a type) from `a[..]` (an index expression), while the
//! token stream makes the distinction structural.

/// What a token is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A lifetime (`'a`, `'static`) — the quote plus its identifier.
    Lifetime,
    /// A numeric literal (incl. suffixed/float forms, as one token).
    Num,
    /// A single punctuation byte.
    Punct(u8),
}

/// One token of masked source, with its byte span and 1-indexed line.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte in the masked text.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
    /// 1-indexed source line.
    pub line: usize,
}

/// The full lexical view of one file.
pub struct Lexed {
    /// The source as read, for report excerpts.
    pub source: String,
    /// Masked text (same length and line structure as the input).
    pub masked: String,
    /// Per-line `#[cfg(test)]` flags (0-indexed).
    pub test_lines: Vec<bool>,
    /// The token stream of the masked text.
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// The source text of token `i` (empty when out of range).
    pub fn text(&self, i: usize) -> &str {
        self.tokens
            .get(i)
            .and_then(|t| self.masked.get(t.lo..t.hi))
            .unwrap_or("")
    }

    /// The token at index `i`, if any.
    pub fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// Whether token `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        matches!(self.tok(i), Some(t) if t.kind == TokenKind::Ident) && self.text(i) == name
    }

    /// Whether token `i` is the punctuation byte `b`.
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        matches!(self.tok(i), Some(t) if t.kind == TokenKind::Punct(b))
    }

    /// The raw source text of 1-indexed `line` (empty past the end).
    pub fn raw_line(&self, line: usize) -> &str {
        self.source
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
    }

    /// Whether 1-indexed `line` lies in a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.test_lines.get(i))
            .copied()
            .unwrap_or(false)
    }
}

/// Rust keywords. Before `[`, one starts a pattern or a type
/// (`let [a, b] = ..`, `&mut [T]`), not an index; in an `impl` header,
/// none is the self type.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "union", "unsafe", "use", "where", "while", "yield",
];

/// Whether `word` is a Rust keyword.
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// States of the masking scanner.
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Returns true for bytes that can continue a Rust identifier.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks comments, strings, and char literals with spaces, preserving
/// newlines and total length.
fn mask(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut mode = Mode::Code;
    let mut i = 0usize;
    let at = |j: usize| bytes.get(j).copied();
    while let Some(b) = at(i) {
        match mode {
            Mode::Code => {
                if b == b'/' && at(i + 1) == Some(b'/') {
                    out.extend_from_slice(b"//");
                    i += 2;
                    mode = Mode::LineComment;
                } else if b == b'/' && at(i + 1) == Some(b'*') {
                    out.extend_from_slice(b"/*");
                    i += 2;
                    mode = Mode::BlockComment(1);
                } else if b == b'"' {
                    out.push(b'"');
                    i += 1;
                    mode = Mode::Str;
                } else if b == b'r' || b == b'b' {
                    // Possible raw/byte string start: r", r#", br", b".
                    // Only if not part of a longer identifier.
                    let prev_ident = i > 0 && at(i - 1).map(is_ident_byte).unwrap_or(false);
                    let mut j = i + 1;
                    if b == b'b' && at(j) == Some(b'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while at(j) == Some(b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = b == b'r' || at(i + 1) == Some(b'r');
                    if !prev_ident && at(j) == Some(b'"') && (raw || j == i + 1) {
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        mode = if raw { Mode::RawStr(hashes) } else { Mode::Str };
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Char literal or lifetime. A char literal is 'x',
                    // '\x..', '\u{..}' etc; a lifetime is 'ident with no
                    // closing quote.
                    if at(i + 1) == Some(b'\\') {
                        out.push(b'\'');
                        i += 1;
                        mode = Mode::Char;
                    } else if at(i + 2) == Some(b'\'') {
                        out.extend_from_slice(b"'  ");
                        i += 3;
                    } else {
                        out.push(b'\'');
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            Mode::LineComment => {
                if b == b'\n' {
                    out.push(b'\n');
                    mode = Mode::Code;
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if b == b'*' && at(i + 1) == Some(b'/') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    mode = if depth <= 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                } else if b == b'/' && at(i + 1) == Some(b'*') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    mode = Mode::BlockComment(depth + 1);
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            Mode::Str => {
                if b == b'\\' {
                    out.push(b' ');
                    i += 1;
                    if let Some(nb) = at(i) {
                        out.push(if nb == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else if b == b'"' {
                    out.push(b'"');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                let mut closed = false;
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && at(j) == Some(b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        out.extend(std::iter::repeat_n(b' ', j - i));
                        i = j;
                        mode = Mode::Code;
                        closed = true;
                    }
                }
                if !closed {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            Mode::Char => {
                if b == b'\\' {
                    out.push(b' ');
                    i += 1;
                    if at(i).is_some() {
                        out.push(b' ');
                        i += 1;
                    }
                } else if b == b'\'' {
                    out.push(b'\'');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    // Masking only ever replaces bytes with ASCII spaces or keeps them,
    // so the result is valid UTF-8 whenever the input was.
    String::from_utf8_lossy(&out).into_owned()
}

/// Flags the lines covered by `#[cfg(test)]` items in masked text.
///
/// After each `#[cfg(test)]` attribute the scanner looks for the next
/// `{` or `;`, whichever comes first; a `{` opens a brace-matched
/// region (the usual `mod tests { .. }`), a `;` ends a single-item
/// exemption (`#[cfg(test)] use ..;`).
fn test_line_flags(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count();
    let mut flags = vec![false; line_count];
    let bytes = masked.as_bytes();
    // Byte offset -> 0-indexed line.
    let line_of = |pos: usize| -> usize { bytes.iter().take(pos).filter(|&&b| b == b'\n').count() };
    let mut search_from = 0usize;
    while let Some(rel) = masked
        .get(search_from..)
        .and_then(|s| s.find("#[cfg(test)]"))
    {
        let attr_at = search_from + rel;
        let body_from = attr_at + "#[cfg(test)]".len();
        let mut depth = 0usize;
        let mut end = masked.len();
        let mut started = false;
        let mut j = body_from;
        while let Some(&b) = bytes.get(j) {
            match b {
                b';' if !started => {
                    end = j + 1;
                    break;
                }
                b'{' => {
                    depth += 1;
                    started = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let (first, last) = (line_of(attr_at), line_of(end.saturating_sub(1)));
        for f in flags.iter_mut().skip(first).take(last - first + 1) {
            *f = true;
        }
        search_from = end.max(body_from);
    }
    flags
}

/// Tokenizes masked text into idents, lifetimes, numbers, and
/// punctuation bytes. Whitespace is skipped; every other byte appears
/// in exactly one token.
fn tokenize(masked: &str) -> Vec<Token> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while let Some(&b) = bytes.get(i) {
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b == b' ' || b == b'\t' || b == b'\r' {
            i += 1;
            continue;
        }
        // Masking keeps the opening `//` / `/*` markers (so masked
        // text stays column-aligned); neither pair can occur in real
        // masked code, so skip them rather than emit stray puncts.
        if b == b'/' && matches!(bytes.get(i + 1), Some(b'/') | Some(b'*')) {
            i += 2;
            continue;
        }
        let lo = i;
        if b.is_ascii_alphabetic() || b == b'_' {
            i += 1;
            while bytes.get(i).copied().map(is_ident_byte).unwrap_or(false) {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident,
                lo,
                hi: i,
                line,
            });
        } else if b.is_ascii_digit() {
            i += 1;
            while bytes.get(i).copied().map(is_ident_byte).unwrap_or(false) {
                i += 1;
            }
            // Float continuation: `1.5` but not `0..n` or `1.max(..)`.
            if bytes.get(i) == Some(&b'.')
                && bytes.get(i + 1).map(u8::is_ascii_digit).unwrap_or(false)
            {
                i += 1;
                while bytes.get(i).copied().map(is_ident_byte).unwrap_or(false) {
                    i += 1;
                }
            }
            out.push(Token {
                kind: TokenKind::Num,
                lo,
                hi: i,
                line,
            });
        } else if b == b'\''
            && bytes
                .get(i + 1)
                .map(|&n| n.is_ascii_alphabetic() || n == b'_')
                .unwrap_or(false)
        {
            // Lifetime: masking left `'ident` intact (char literals
            // were blanked), so a quote followed by an ident is one.
            i += 2;
            while bytes.get(i).copied().map(is_ident_byte).unwrap_or(false) {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Lifetime,
                lo,
                hi: i,
                line,
            });
        } else {
            i += 1;
            out.push(Token {
                kind: TokenKind::Punct(b),
                lo,
                hi: i,
                line,
            });
        }
    }
    out
}

/// Masks, flags test regions, and tokenizes one file.
pub fn lex(source: &str) -> Lexed {
    let masked = mask(source);
    let test_lines = test_line_flags(&masked);
    let tokens = tokenize(&masked);
    Lexed {
        source: source.to_string(),
        masked,
        test_lines,
        tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1;\n";
        let m = mask(src);
        assert!(!m.contains("HashMap"), "masked: {m}");
        assert_eq!(m.len(), src.len());
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let r = r#\"unwrap() panic!\"#; let c = 'x'; let lt: &'static str = s;";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("static"), "lifetimes are not char literals: {m}");
    }

    #[test]
    fn masks_nested_block_comments() {
        let src = "a /* outer /* inner unwrap() */ still */ b";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains('a') && m.contains('b'));
    }

    #[test]
    fn finds_test_regions() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lx = lex(src);
        assert_eq!(lx.test_lines, vec![false, true, true, true, true, false]);
        assert!(lx.is_test_line(2) && !lx.is_test_line(1));
    }

    #[test]
    fn single_item_cfg_test_exemption() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n";
        let lx = lex(src);
        assert_eq!(lx.test_lines, vec![true, true, false]);
    }

    #[test]
    fn tokens_have_kinds_spans_and_lines() {
        let lx = lex("fn f<'a>(v: &'a [u8]) -> u32 {\n    v.len() as u32 + 1\n}\n");
        let kinds: Vec<(TokenKind, &str)> = lx
            .tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.kind, lx.text(i)))
            .collect();
        assert!(kinds.contains(&(TokenKind::Lifetime, "'a")));
        assert!(kinds.contains(&(TokenKind::Ident, "u8")));
        assert!(kinds.contains(&(TokenKind::Num, "1")));
        let last = lx.tokens.last().map(|t| t.line);
        assert_eq!(last, Some(3), "closing brace sits on line 3");
    }

    #[test]
    fn lifetime_tokens_are_distinct_from_indexing() {
        // The v1 scanner flagged `&'a [u8]` as slice indexing; the
        // token stream keeps the lifetime atomic.
        let lx = lex("struct R<'a> { buf: &'a [u8] }");
        let lifetime_then_bracket = lx.tokens.windows(2).any(|w| {
            matches!(
                (w.first(), w.get(1)),
                (
                    Some(Token {
                        kind: TokenKind::Lifetime,
                        ..
                    }),
                    Some(Token {
                        kind: TokenKind::Punct(b'['),
                        ..
                    })
                )
            )
        });
        assert!(lifetime_then_bracket);
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let lx = lex("let a = 0x5CED; let b = 1.5e3; let r = 0..n;");
        let nums: Vec<&str> = lx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Num)
            .map(|(i, _)| lx.text(i))
            .collect();
        assert_eq!(nums, vec!["0x5CED", "1.5e3", "0"]);
    }

    #[test]
    fn identifier_tokens_are_maximal() {
        let lx = lex("let sub = Subgraph::new(Graph);");
        let names: Vec<&str> = (0..lx.tokens.len())
            .filter(|&i| lx.tok(i).map(|t| t.kind) == Some(TokenKind::Ident))
            .map(|i| lx.text(i))
            .collect();
        assert!(names.contains(&"Subgraph"));
        assert!(names.contains(&"Graph"));
        assert!(!names.contains(&"Sub"));
    }

    #[test]
    fn raw_lines_keep_what_masking_blanks() {
        let lx = lex("let a = 1;\nlet s = \"HashMap\"; // note\n");
        assert_eq!(lx.raw_line(2), "let s = \"HashMap\"; // note");
        assert!(!lx.masked.contains("HashMap"));
        assert_eq!(lx.raw_line(3), "");
    }
}
