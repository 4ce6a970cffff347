//! Hand-rolled JSON: an escaping writer for deterministic JSONL
//! emission and a one-pass recursive-descent parser for reading traces
//! back.
//!
//! Zero dependencies is a design constraint, not an accident: the
//! observability layer must be importable from every crate in the
//! workspace (including the bit-reproducible ones) without dragging in
//! serde's proc-macro stack, and its output must be deterministic down
//! to the byte. The writer therefore emits keys in exactly the order
//! the caller pushes them, formats only integers and escaped strings
//! (no floats on the emission path — float formatting is where
//! cross-platform byte drift creeps in), and appends `\n`-terminated
//! lines to a caller-owned buffer. It formats without `fmt`: integers
//! from a stack buffer, and a string or key with nothing to escape
//! (every one the recorder writes) as one copied run, a key together
//! with its `,"` and `":`; a string that needs an escape is copied run
//! by run between its escapes.
//!
//! The parser accepts general JSON (objects, arrays, strings, bools,
//! null, and both integer and float numbers) because `tracecat` must
//! type every line of an arbitrary file, not only lines the recorder
//! wrote. It reads each line once and borrows from it: keys and
//! strings are slices of the input unless they hold an escape,
//! integers accumulate during the scan, and nesting deeper than
//! [`MAX_DEPTH`] is an error rather than a stack overflow. An object's
//! plain members, written as the recorder writes them (a key, then an
//! unescaped string or a non-negative integer, no whitespace), are
//! read by one tight loop; the general member code takes over at the
//! first member that is not plain.

use std::borrow::Cow;
use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts (the
/// limit serde_json uses). Trace lines nest at most two deep.
pub const MAX_DEPTH: usize = 128;

/// Member slots an object's `Vec` is allocated with. The recorder
/// writes at most 11 members a line, so a trace line's members are
/// allocated once and never regrown.
const OBJECT_SLOTS: usize = 16;

/// Appends the canonical decimal rendering of `v` to `buf`.
#[inline]
pub fn push_u64(buf: &mut Vec<u8>, v: u64) {
    // u64::MAX has 20 digits; they are written from the right.
    let mut digits = [0u8; 20];
    let mut rest = v;
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
        start -= 1;
        if rest == 0 {
            break;
        }
    }
    buf.extend_from_slice(digits.get(start..).unwrap_or_default());
}

/// Appends the canonical decimal rendering of `v` to `buf`.
#[inline]
pub fn push_i64(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    push_u64(buf, v.unsigned_abs());
}

/// Whether `s` holds no byte a JSON string must escape: no `"`, no
/// `\` and no control byte. Every key and name the recorder writes
/// is plain.
#[inline]
fn is_plain(s: &str) -> bool {
    // `fold` rather than `all`: no early exit, so the loop has no
    // branch per byte.
    !s.bytes().fold(false, |esc, b| {
        esc | (b < 0x20) | (b == b'"') | (b == b'\\')
    })
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `buf`.
#[inline]
pub fn push_str(buf: &mut Vec<u8>, s: &str) {
    if is_plain(s) {
        buf.push(b'"');
        buf.extend_from_slice(s.as_bytes());
        buf.push(b'"');
    } else {
        push_escaped(buf, s);
    }
}

/// Appends `,"key":`, which opens every object member after the first:
/// one run copied for a plain key.
#[inline]
pub(crate) fn push_key(buf: &mut Vec<u8>, key: &str) {
    if is_plain(key) {
        buf.extend_from_slice(b",\"");
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(b"\":");
    } else {
        buf.push(b',');
        push_escaped(buf, key);
        buf.push(b':');
    }
}

/// [`push_str`] for a string that holds a byte to escape.
#[cold]
fn push_escaped(buf: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    buf.push(b'"');
    // Every byte that needs an escape is ASCII, so a run between two
    // of them is whole UTF-8 and is copied as it stands.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                let low = HEX.get(usize::from(b & 0xf)).copied().unwrap_or(b'0');
                unicode = [b'\\', b'u', b'0', b'0', b'0' + (b >> 4), low];
                &unicode
            }
            _ => continue,
        };
        buf.extend_from_slice(bytes.get(run..i).unwrap_or_default());
        buf.extend_from_slice(escaped);
        run = i + 1;
    }
    buf.extend_from_slice(bytes.get(run..).unwrap_or_default());
    buf.push(b'"');
}

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Integers that fit `i64` are kept exact in [`Json::Int`]; everything
/// else numeric falls back to [`Json::Num`]. Strings and keys are
/// [`Cow::Borrowed`] slices of the input unless they hold an escape.
/// Object keys keep their textual order (and duplicates), which makes
/// a reparse of writer output structurally faithful.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fit `i64` exactly.
    Int(i64),
    /// Any other number (floats, and integers beyond `i64`).
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in key order of appearance.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first
    /// problem, including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &'a str) -> Result<Json<'a>, JsonError> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(JsonError {
                at: p.at,
                what: "trailing garbage after the document",
            });
        }
        Ok(v)
    }

    /// Member lookup on an object (first match wins); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Shorthand: `self.get(key).and_then(Json::as_u64)`.
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Shorthand: `self.get(key).and_then(Json::as_str)`.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

/// A parse failure at a byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// A plain member's value, held as plain data until its member is
/// known to be plain: a member that turns out not to be leaves nothing
/// to drop, so no `Json` is built ahead of the check and copied after.
enum Plain<'a> {
    Str(&'a str),
    Int(i64),
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(JsonError { at: self.at, what })
        }
    }

    fn literal(&mut self, lit: &str, what: &'static str) -> Result<(), JsonError> {
        let end = self.at + lit.len();
        if self.text.as_bytes().get(self.at..end) == Some(lit.as_bytes()) {
            self.at = end;
            Ok(())
        } else {
            Err(JsonError { at: self.at, what })
        }
    }

    /// The input from `start` to the cursor. Callers cut only at ASCII
    /// delimiters, which are always `char` boundaries.
    fn since(&self, start: usize) -> Result<&'a str, JsonError> {
        cut(self.text, start, self.at).ok_or(JsonError {
            at: start,
            what: "invalid UTF-8 in string",
        })
    }

    /// Steps past the `[` or `{` at the cursor, refusing to nest past
    /// [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                at: self.at,
                what: "nesting too deep",
            });
        }
        self.depth += 1;
        self.at += 1;
        Ok(())
    }

    /// Steps past the `]` or `}` at the cursor that closes `v`.
    fn close(&mut self, v: Json<'a>) -> Json<'a> {
        self.depth -= 1;
        self.at += 1;
        v
    }

    /// A member or item value. Strings and numbers, all but a few
    /// values of a trace line, are parsed inline here; the rest go
    /// through [`Parser::value`].
    #[inline(always)]
    fn member(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.value(),
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self
                .literal("true", "expected `true`")
                .map(|()| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected `false`")
                .map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null", "expected `null`").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError {
                at: self.at,
                what: "expected a JSON value",
            }),
        }
    }

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return Ok(self.close(Json::Obj(Vec::new())));
        }
        let mut members = Vec::with_capacity(OBJECT_SLOTS);
        loop {
            let (at, closed) = self.plain_members(&mut members);
            self.at = at;
            if closed {
                return Ok(self.close(Json::Obj(members)));
            }
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected `:` after object key")?;
            self.skip_ws();
            members.push((key, self.member()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => return Ok(self.close(Json::Obj(members))),
                _ => {
                    return Err(JsonError {
                        at: self.at,
                        what: "expected `,` or `}` in object",
                    })
                }
            }
        }
    }

    /// Pushes the plain members that start at the cursor: `"key":`
    /// then a string with no escape or a non-negative integer that
    /// fits `i64`, then `,` or `}`, with no whitespace between. Every
    /// recorder line but `hist` is plain from end to end. The cursor
    /// stays in a local; the result is where to resume and whether the
    /// object closed there. On the first member that is not plain the
    /// result is that member's first byte, and the general member code
    /// reads it from there as if this loop had not run, so every value
    /// and every error is the one it gives.
    #[inline(always)]
    fn plain_members(&self, members: &mut Vec<(Cow<'a, str>, Json<'a>)>) -> (usize, bool) {
        let bytes = self.text.as_bytes();
        let mut at = self.at;
        loop {
            let Some((key, colon)) = self.plain_string(at) else {
                return (at, false);
            };
            if bytes.get(colon) != Some(&b':') {
                return (at, false);
            }
            let (value, end) = match bytes.get(colon + 1) {
                Some(b'"') => match self.plain_string(colon + 1) {
                    Some((s, end)) => (Plain::Str(s), end),
                    None => return (at, false),
                },
                Some(b'0'..=b'9') => {
                    let mut end = colon + 1;
                    let mut v = 0i64;
                    while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
                        v = v.wrapping_mul(10).wrapping_add(i64::from(b - b'0'));
                        end += 1;
                    }
                    // Any 18 digits fit `i64`; a longer run is left to
                    // `number`.
                    if end - colon > 19 {
                        return (at, false);
                    }
                    (Plain::Int(v), end)
                }
                _ => return (at, false),
            };
            // A float's `.`, `e` or sign, or whitespace, stops the member
            // here: it is not plain.
            let closed = match bytes.get(end) {
                Some(b',') => false,
                Some(b'}') => true,
                _ => return (at, false),
            };
            let value = match value {
                Plain::Str(s) => Json::Str(Cow::Borrowed(s)),
                Plain::Int(v) => Json::Int(v),
            };
            members.push((Cow::Borrowed(key), value));
            if closed {
                return (end, true);
            }
            at = end + 1;
        }
    }

    /// The string literal at `at` and the offset past its closing
    /// quote, if it holds no escape and no control byte.
    #[inline(always)]
    fn plain_string(&self, at: usize) -> Option<(&'a str, usize)> {
        if self.text.as_bytes().get(at) != Some(&b'"') {
            return None;
        }
        // `split_at_checked` inlines where `str::get` with a range is
        // a call.
        let (_, rest) = self.text.split_at_checked(at + 1)?;
        let len = rest
            .as_bytes()
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        let (run, after) = rest.split_at_checked(len)?;
        if after.as_bytes().first() != Some(&b'"') {
            return None;
        }
        Some((run, at + len + 2))
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
        self.open()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            return Ok(self.close(Json::Arr(items)));
        }
        loop {
            self.skip_ws();
            items.push(self.member()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => return Ok(self.close(Json::Arr(items))),
                _ => {
                    return Err(JsonError {
                        at: self.at,
                        what: "expected `,` or `]` in array",
                    })
                }
            }
        }
    }

    /// A string literal: borrowed from the input, or owned once an
    /// escape forces a copy.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_byte(b'"', "expected `\"`")?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.at;
            let rest = self.text.as_bytes().get(start..).unwrap_or_default();
            self.at += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let run = self.since(start)?;
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.at += 1;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.escape(out)?;
                }
                _ => {
                    return Err(JsonError {
                        at: self.at,
                        what: "unterminated string",
                    })
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = self.peek().ok_or(JsonError {
            at: self.at,
            what: "unterminated escape",
        })?;
        self.at += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pairs: a leading surrogate must be followed
                // by `\u` + trailing surrogate.
                let c = if (0xD800..0xDC00).contains(&code) {
                    self.literal("\\u", "expected trailing surrogate")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError {
                            at: self.at,
                            what: "invalid trailing surrogate",
                        });
                    }
                    let joined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(joined)
                } else {
                    char::from_u32(code)
                };
                out.push(c.ok_or(JsonError {
                    at: self.at,
                    what: "escape is not a scalar value",
                })?);
            }
            _ => {
                return Err(JsonError {
                    at: self.at.saturating_sub(1),
                    what: "unknown escape",
                })
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => {
                    code = code * 16 + d;
                    self.at += 1;
                }
                None => {
                    return Err(JsonError {
                        at: self.at,
                        what: "expected 4 hex digits",
                    })
                }
            }
        }
        Ok(code)
    }

    /// A number. An integer's magnitude accumulates with checked
    /// arithmetic as its digits are scanned; anything with a fraction,
    /// an exponent or a magnitude past `i64` is read as `f64` — the
    /// `Int`/`Num` split `str::parse` gives.
    #[inline(always)]
    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let digits = self.at;
        let mut magnitude = Some(0u64);
        let mut is_float = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() {
                magnitude = magnitude
                    .and_then(|m| m.checked_mul(10))
                    .and_then(|m| m.checked_add(u64::from(b - b'0')));
            } else if matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                is_float = true;
            } else {
                break;
            }
            self.at += 1;
        }
        if !is_float && self.at > digits {
            let int = magnitude.and_then(|m| {
                if negative {
                    0i64.checked_sub_unsigned(m)
                } else {
                    i64::try_from(m).ok()
                }
            });
            if let Some(v) = int {
                return Ok(Json::Int(v));
            }
        }
        cut(self.text, start, self.at)
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(JsonError {
                at: start,
                what: "malformed number",
            })
    }
}

/// `text[lo..hi]` when both ends are `char` boundaries and in order.
/// `split_at_checked` inlines where `str::get` with a range is a call.
#[inline(always)]
fn cut(text: &str, lo: usize, hi: usize) -> Option<&str> {
    let (head, _) = text.split_at_checked(hi)?;
    head.split_at_checked(lo).map(|(_, run)| run)
}

/// The parser as it was before the plain-member loop, kept verbatim so
/// the differential tests can hold the two to the same trees and
/// errors.
#[cfg(test)]
mod reference {
    use super::{Cow, Json, JsonError, MAX_DEPTH, OBJECT_SLOTS};

    /// [`Json::parse`] through the reference parser.
    pub(super) fn parse(text: &str) -> Result<Json<'_>, JsonError> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(JsonError {
                at: p.at,
                what: "trailing garbage after the document",
            });
        }
        Ok(v)
    }

    struct Parser<'a> {
        text: &'a str,
        at: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.at).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.at += 1;
            }
        }

        fn expect_byte(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.at += 1;
                Ok(())
            } else {
                Err(JsonError { at: self.at, what })
            }
        }

        fn literal(&mut self, lit: &str, what: &'static str) -> Result<(), JsonError> {
            let end = self.at + lit.len();
            if self.text.as_bytes().get(self.at..end) == Some(lit.as_bytes()) {
                self.at = end;
                Ok(())
            } else {
                Err(JsonError { at: self.at, what })
            }
        }

        /// The input from `start` to the cursor. Callers cut only at ASCII
        /// delimiters, which are always `char` boundaries.
        fn since(&self, start: usize) -> Result<&'a str, JsonError> {
            self.text.get(start..self.at).ok_or(JsonError {
                at: start,
                what: "invalid UTF-8 in string",
            })
        }

        /// Steps past the `[` or `{` at the cursor, refusing to nest past
        /// [`MAX_DEPTH`].
        fn open(&mut self) -> Result<(), JsonError> {
            if self.depth == MAX_DEPTH {
                return Err(JsonError {
                    at: self.at,
                    what: "nesting too deep",
                });
            }
            self.depth += 1;
            self.at += 1;
            Ok(())
        }

        /// Steps past the `]` or `}` at the cursor that closes `v`.
        fn close(&mut self, v: Json<'a>) -> Json<'a> {
            self.depth -= 1;
            self.at += 1;
            v
        }

        /// A member or item value. Strings and numbers, all but a few
        /// values of a trace line, are parsed inline here; the rest go
        /// through [`Parser::value`].
        #[inline(always)]
        fn member(&mut self) -> Result<Json<'a>, JsonError> {
            match self.peek() {
                Some(b'"') => self.string().map(Json::Str),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => self.value(),
            }
        }

        fn value(&mut self) -> Result<Json<'a>, JsonError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') => self
                    .literal("true", "expected `true`")
                    .map(|()| Json::Bool(true)),
                Some(b'f') => self
                    .literal("false", "expected `false`")
                    .map(|()| Json::Bool(false)),
                Some(b'n') => self.literal("null", "expected `null`").map(|()| Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(JsonError {
                    at: self.at,
                    what: "expected a JSON value",
                }),
            }
        }

        fn object(&mut self) -> Result<Json<'a>, JsonError> {
            self.open()?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                return Ok(self.close(Json::Obj(Vec::new())));
            }
            let mut members = Vec::with_capacity(OBJECT_SLOTS);
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect_byte(b':', "expected `:` after object key")?;
                self.skip_ws();
                members.push((key, self.member()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b'}') => return Ok(self.close(Json::Obj(members))),
                    _ => {
                        return Err(JsonError {
                            at: self.at,
                            what: "expected `,` or `}` in object",
                        })
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Json<'a>, JsonError> {
            self.open()?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                return Ok(self.close(Json::Arr(items)));
            }
            loop {
                self.skip_ws();
                items.push(self.member()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b']') => return Ok(self.close(Json::Arr(items))),
                    _ => {
                        return Err(JsonError {
                            at: self.at,
                            what: "expected `,` or `]` in array",
                        })
                    }
                }
            }
        }

        /// A string literal: borrowed from the input, or owned once an
        /// escape forces a copy.
        #[inline(always)]
        fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
            self.expect_byte(b'"', "expected `\"`")?;
            let mut owned: Option<String> = None;
            loop {
                let start = self.at;
                let rest = self.text.as_bytes().get(start..).unwrap_or_default();
                self.at += rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(rest.len());
                let run = self.since(start)?;
                match self.peek() {
                    Some(b'"') => {
                        self.at += 1;
                        return Ok(match owned {
                            None => Cow::Borrowed(run),
                            Some(mut out) => {
                                out.push_str(run);
                                Cow::Owned(out)
                            }
                        });
                    }
                    Some(b'\\') => {
                        self.at += 1;
                        let out = owned.get_or_insert_with(String::new);
                        out.push_str(run);
                        self.escape(out)?;
                    }
                    _ => {
                        return Err(JsonError {
                            at: self.at,
                            what: "unterminated string",
                        })
                    }
                }
            }
        }

        fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
            let b = self.peek().ok_or(JsonError {
                at: self.at,
                what: "unterminated escape",
            })?;
            self.at += 1;
            match b {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let code = self.hex4()?;
                    // Surrogate pairs: a leading surrogate must be followed
                    // by `\u` + trailing surrogate.
                    let c = if (0xD800..0xDC00).contains(&code) {
                        self.literal("\\u", "expected trailing surrogate")?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(JsonError {
                                at: self.at,
                                what: "invalid trailing surrogate",
                            });
                        }
                        let joined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(joined)
                    } else {
                        char::from_u32(code)
                    };
                    out.push(c.ok_or(JsonError {
                        at: self.at,
                        what: "escape is not a scalar value",
                    })?);
                }
                _ => {
                    return Err(JsonError {
                        at: self.at.saturating_sub(1),
                        what: "unknown escape",
                    })
                }
            }
            Ok(())
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            let mut code = 0u32;
            for _ in 0..4 {
                let d = self.peek().and_then(|b| (b as char).to_digit(16));
                match d {
                    Some(d) => {
                        code = code * 16 + d;
                        self.at += 1;
                    }
                    None => {
                        return Err(JsonError {
                            at: self.at,
                            what: "expected 4 hex digits",
                        })
                    }
                }
            }
            Ok(code)
        }

        /// A number. An integer's magnitude accumulates with checked
        /// arithmetic as its digits are scanned; anything with a fraction,
        /// an exponent or a magnitude past `i64` is read as `f64` — the
        /// `Int`/`Num` split `str::parse` gives.
        #[inline(always)]
        fn number(&mut self) -> Result<Json<'a>, JsonError> {
            let start = self.at;
            let negative = self.peek() == Some(b'-');
            if negative {
                self.at += 1;
            }
            let digits = self.at;
            let mut magnitude = Some(0u64);
            let mut is_float = false;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(b - b'0')));
                } else if matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                    is_float = true;
                } else {
                    break;
                }
                self.at += 1;
            }
            if !is_float && self.at > digits {
                let int = magnitude.and_then(|m| {
                    if negative {
                        0i64.checked_sub_unsigned(m)
                    } else {
                        i64::try_from(m).ok()
                    }
                });
                if let Some(v) = int {
                    return Ok(Json::Int(v));
                }
            }
            self.text
                .get(start..self.at)
                .and_then(|text| text.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or(JsonError {
                    at: start,
                    what: "malformed number",
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_formats() {
        let mut buf = Vec::new();
        push_str(&mut buf, "a\"b\\c\nd\u{1}é");
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "\"a\\\"b\\\\c\\nd\\u0001é\""
        );
        let mut buf = Vec::new();
        push_u64(&mut buf, 18446744073709551615);
        push_i64(&mut buf, -42);
        assert_eq!(String::from_utf8(buf).unwrap(), "18446744073709551615-42");
        let mut buf = Vec::new();
        push_u64(&mut buf, 0);
        buf.push(b'|');
        push_i64(&mut buf, i64::MIN);
        buf.push(b'|');
        push_i64(&mut buf, i64::MAX);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "0|-9223372036854775808|9223372036854775807"
        );
    }

    #[test]
    fn plain_and_escaped_keys_and_strings_write_the_same_bytes_as_ever() {
        // Each case against the string escaped byte by byte, the way
        // the writer did before it copied plain text as one run.
        fn by_byte(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        for s in [
            "",
            "msg",
            "rule",
            "é→ü",
            "a\"b",
            "\\",
            "x\u{1f}",
            "tab\there",
            "\u{7f}",
        ] {
            let mut buf = Vec::new();
            push_str(&mut buf, s);
            assert_eq!(String::from_utf8(buf).unwrap(), by_byte(s), "string {s:?}");
            let mut buf = Vec::new();
            push_key(&mut buf, s);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                format!(",{}:", by_byte(s)),
                "key {s:?}"
            );
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-17").unwrap(), Json::Int(-17));
        assert_eq!(Json::parse("3.5").unwrap(), Json::Num(3.5));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        assert_eq!(
            Json::parse("9223372036854775808").unwrap(),
            Json::Num(9.223372036854776e18)
        );
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("007").unwrap(), Json::Int(7));
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1-2").is_err());
        // A plain string borrows from the line; an escape forces a copy.
        assert!(matches!(
            Json::parse("\"hi\"").unwrap(),
            Json::Str(Cow::Borrowed("hi"))
        ));
        assert!(matches!(
            Json::parse("\"h\\ni\"").unwrap(),
            Json::Str(Cow::Owned(s)) if s == "h\ni"
        ));
    }

    #[test]
    fn parses_structures_and_lookup() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x"}],"n":null}"#).unwrap();
        assert_eq!(v.u64_of("n"), None);
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].str_of("b"), Some("x"));
    }

    #[test]
    fn round_trips_writer_output() {
        let mut buf = Vec::new();
        buf.push(b'{');
        push_str(&mut buf, "ev");
        buf.push(b':');
        push_str(&mut buf, "hop\n\"quoted\"");
        buf.extend_from_slice(b",\"n\":");
        push_u64(&mut buf, 9000);
        buf.push(b'}');
        let text = String::from_utf8(buf).unwrap();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.str_of("ev"), Some("hop\n\"quoted\""));
        assert_eq!(v.u64_of("n"), Some(9000));
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = Json::parse(r#""é😀\t""#).unwrap();
        assert_eq!(v, Json::Str("é😀\t".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        // A million open brackets: a typed error at the first bracket
        // past the cap, not a stack overflow.
        let deep = "[".repeat(1_000_000);
        assert_eq!(
            Json::parse(&deep),
            Err(JsonError {
                at: MAX_DEPTH,
                what: "nesting too deep"
            })
        );
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
    }

    /// Whether each key and string is borrowed, in document order.
    fn borrows(v: &Json<'_>, out: &mut Vec<bool>) {
        match v {
            Json::Str(s) => out.push(matches!(s, Cow::Borrowed(_))),
            Json::Arr(items) => items.iter().for_each(|item| borrows(item, out)),
            Json::Obj(members) => {
                for (key, value) in members {
                    out.push(matches!(key, Cow::Borrowed(_)));
                    borrows(value, out);
                }
            }
            Json::Null | Json::Bool(_) | Json::Int(_) | Json::Num(_) => {}
        }
    }

    /// Asserts that [`Json::parse`] and the reference parser give the
    /// same tree, borrowing in the same places, or the same error.
    fn agrees(text: &str) {
        let (got, want) = (Json::parse(text), reference::parse(text));
        assert_eq!(got, want, "{text:?}");
        if let (Ok(got), Ok(want)) = (&got, &want) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            borrows(got, &mut a);
            borrows(want, &mut b);
            assert_eq!(a, b, "{text:?}");
        }
    }

    /// xorshift64, as the synthetic trace draws its numbers.
    fn next_rand(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Eight mutants of `line`: three with one byte of a JSON-shaped
    /// set inserted, three with one byte deleted, two cut short. Every
    /// cut is at a `char` boundary, so each mutant is still a `str`.
    fn mutants(line: &str, state: &mut u64) -> Vec<String> {
        const BYTES: &[u8] = b"\",:{}[]0-1.e\tnu";
        let mut draw = |bound: usize| (next_rand(state) % bound as u64) as usize;
        let boundary = |mut at: usize| {
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            at
        };
        let mut out = Vec::new();
        for _ in 0..3 {
            let at = boundary(draw(line.len() + 1));
            let byte = BYTES[draw(BYTES.len())] as char;
            out.push(format!("{}{byte}{}", &line[..at], &line[at..]));
        }
        for _ in 0..3 {
            let at = boundary(draw(line.len().max(1)));
            let end = (at + 1..=line.len())
                .find(|&end| line.is_char_boundary(end))
                .unwrap_or(at);
            out.push(format!("{}{}", &line[..at], &line[end..]));
        }
        for _ in 0..2 {
            out.push(line[..boundary(draw(line.len() + 1))].to_owned());
        }
        out
    }

    /// Every line of `text`, and eight mutants of each, through both
    /// parsers; the number of inputs checked.
    fn agrees_on_lines(text: &str, state: &mut u64) -> usize {
        let mut inputs = 0;
        for line in text.lines() {
            agrees(line);
            for mutant in mutants(line, state) {
                agrees(&mutant);
            }
            inputs += 9;
        }
        inputs
    }

    #[test]
    fn plain_members_agree_with_the_reference_on_traces_and_mutants() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let golden = include_str!("../../../tests/goldens/trace_cycle12.jsonl");
        assert!(golden.contains("\"buckets\":[["));
        let mut synth = String::new();
        std::io::Read::read_to_string(
            &mut crate::analytics::synth::SynthTrace::new(4, 40, 7),
            &mut synth,
        )
        .unwrap();
        let inputs = agrees_on_lines(golden, &mut state) + agrees_on_lines(&synth, &mut state);
        assert!(inputs > 1000, "{inputs} inputs");
    }

    #[test]
    fn plain_members_agree_with_the_reference_on_hand_cases() {
        let nested = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let cases = [
            // Plain from end to end, and the recorder's shapes.
            "{}",
            "{\"\":\"\"}",
            "{\"a\":0,\"b\":\"x\",\"c\":007}",
            "{\"é\":\"ü😀\",\"n\":1}",
            "{\"a\":9223372036854775807}",
            // Past i64, negative, float: the general member code.
            "{\"a\":9223372036854775808}",
            "{\"a\":18446744073709551616,\"b\":1}",
            "{\"a\":-9223372036854775808}",
            "{\"a\":-0,\"b\":0}",
            "{\"a\":1.5,\"b\":1e5,\"c\":2E-3}",
            "{\"a\":1.,\"b\":1e}",
            "{\"a\":-}",
            "{\"a\":0-1}",
            "{\"a\":1+}",
            // Escapes and surrogates in keys and values.
            "{\"a\\\"b\":1}",
            "{\"a\":\"x\\ny\",\"b\":2}",
            "{\"k\\u00e9\":\"\\ud83d\\ude00\"}",
            "{\"a\":\"\\ud83d\\u0041\"}",
            "{\"a\":\"\\ud83d\"}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"x\u{1}\"}",
            "{\"a\u{1f}\":1}",
            // Literals and nesting.
            "{\"a\":true,\"b\":false,\"c\":null}",
            "{\"a\":tru}",
            "{\"a\":[1,2],\"b\":{\"c\":3},\"d\":4}",
            "[{\"a\":1},{\"b\":\"x\"}]",
            // Whitespace wherever it may stand.
            "{ }",
            " {\"a\":1} ",
            "{ \"a\" : 1 , \"b\" : \"x\" }",
            "{\"a\":1 ,\"b\":2}",
            "{\"a\":1,\t\"b\":2}",
            "{\"a\" :1}",
            "{\"a\": 1}",
            "{\"a\":\"x\"\n}",
            // Malformed, at every stop of a member.
            "",
            "{",
            "{\"a",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":\"x",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "{\"a\":1}}",
            "{\"a\" 1}",
            "{\"a\"::1}",
            "{a:1}",
            "{\"a\":1\"b\":2}",
            "{,}",
        ];
        for case in cases {
            agrees(case);
        }
        agrees(&nested(MAX_DEPTH));
        agrees(&nested(MAX_DEPTH + 1));
        agrees(&"[".repeat(1_000_000));
        agrees(&"{\"a\":".repeat(1_000));
    }
}
