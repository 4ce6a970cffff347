//! Chunked line reader with a fixed-size buffer.
//!
//! Bytes are pulled through one fixed `buf_bytes` chunk, lines are
//! split on `\n` found eight bytes at a time, and a line that straddles
//! chunk boundaries is carried in a reusable side buffer. Steady-state
//! operation performs no per-line allocation (the carry reuses its
//! capacity), which is what the R6 hot-path lint scope pins for this
//! file.

use super::StreamError;

/// Default chunk size for streaming reads.
pub const DEFAULT_BUF_BYTES: usize = 64 * 1024;

/// Largest chunk [`LineReader::new`] allocates: 64 MiB, 1024 times the
/// default. Output is the same at any chunk size, so a larger request
/// buys nothing but the risk of a failed allocation.
pub const MAX_BUF_BYTES: usize = 1024 * DEFAULT_BUF_BYTES;

/// One line yielded by [`LineReader::next_line`], without its
/// terminator.
#[derive(Debug)]
pub struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// Line contents, excluding the trailing `\n`.
    pub bytes: &'a [u8],
    /// Whether the line ended with `\n`. Only the final line of a
    /// stream can be unterminated.
    pub terminated: bool,
}

/// Pull-based chunked line splitter over any [`std::io::Read`].
///
/// Memory use is exactly `buf_bytes` plus the longest single line seen
/// (the carry buffer) — independent of stream length.
#[derive(Debug)]
pub struct LineReader<R> {
    src: R,
    chunk: Vec<u8>,
    filled: usize,
    pos: usize,
    carry: Vec<u8>,
    carry_live: bool,
    line: usize,
    eof: bool,
}

impl<R: std::io::Read> LineReader<R> {
    /// Creates a reader pulling through a fixed `buf_bytes` chunk
    /// (clamped to `1..=MAX_BUF_BYTES`).
    pub fn new(src: R, buf_bytes: usize) -> Self {
        LineReader {
            src,
            chunk: vec![0u8; buf_bytes.clamp(1, MAX_BUF_BYTES)],
            filled: 0,
            pos: 0,
            carry: Vec::new(),
            carry_live: false,
            line: 0,
            eof: false,
        }
    }

    /// Yields the next line, or `Ok(None)` at end of stream. The
    /// returned slice borrows the reader and is invalidated by the
    /// next call.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] when the underlying reader fails, attributed
    /// to the 1-based number of the line being read.
    pub fn next_line(&mut self) -> Result<Option<Line<'_>>, StreamError> {
        if self.carry_live {
            self.carry.clear();
            self.carry_live = false;
        }
        loop {
            let window = self.chunk.get(self.pos..self.filled).unwrap_or(&[]);
            match find_newline(window) {
                Some(i) => {
                    let start = self.pos;
                    self.pos = start + i + 1;
                    self.line += 1;
                    let number = self.line;
                    if self.carry.is_empty() {
                        let bytes = self.chunk.get(start..start + i).unwrap_or(&[]);
                        return Ok(Some(Line {
                            number,
                            bytes,
                            terminated: true,
                        }));
                    }
                    let head = self.chunk.get(start..start + i).unwrap_or(&[]);
                    self.carry.extend_from_slice(head);
                    self.carry_live = true;
                    return Ok(Some(Line {
                        number,
                        bytes: &self.carry,
                        terminated: true,
                    }));
                }
                None => {
                    self.carry.extend_from_slice(window);
                    self.pos = 0;
                    self.filled = 0;
                    if self.eof {
                        if self.carry.is_empty() {
                            return Ok(None);
                        }
                        self.line += 1;
                        self.carry_live = true;
                        return Ok(Some(Line {
                            number: self.line,
                            bytes: &self.carry,
                            terminated: false,
                        }));
                    }
                    match self.src.read(&mut self.chunk) {
                        Ok(0) => self.eof = true,
                        Ok(got) => self.filled = got,
                        Err(err) => {
                            return Err(StreamError::Io {
                                line: self.line + 1,
                                err,
                            })
                        }
                    }
                }
            }
        }
    }
}

/// Offset of the first `\n` in `bytes`, testing a word of eight bytes
/// per step: `x - 0x01..01 & !x & 0x80..80` flags the bytes of `x` that
/// are zero, and a borrow only ever flags a byte above a true zero, so
/// the lowest flag of the word XOR `\n\n..\n` is the first newline.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for (i, word) in words.enumerate() {
        let Ok(word) = <[u8; 8]>::try_from(word) else {
            break;
        };
        let x = u64::from_le_bytes(word) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reader that yields one byte per `read` call, the worst case for
    /// chunk-boundary handling.
    struct OneByte<'a>(&'a [u8]);

    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), out.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// Reader that fails after yielding a prefix.
    struct Dying<'a> {
        left: &'a [u8],
    }

    impl std::io::Read for Dying<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.left.is_empty() {
                return Err(std::io::Error::other("wire cut"));
            }
            let n = self.left.len().min(out.len());
            let (head, rest) = self.left.split_at(n);
            if let Some(dst) = out.get_mut(..n) {
                dst.copy_from_slice(head);
            }
            self.left = rest;
            Ok(n)
        }
    }

    fn drain<R: std::io::Read>(mut rd: LineReader<R>) -> Vec<(usize, String, bool)> {
        let mut out = Vec::new();
        while let Some(l) = rd.next_line().unwrap() {
            out.push((
                l.number,
                String::from_utf8(l.bytes.to_vec()).unwrap(),
                l.terminated,
            ));
        }
        out
    }

    #[test]
    fn splits_lines_at_every_buffer_size() {
        let text = b"alpha\nbeta\n\ngamma delta\n";
        let want = vec![
            (1, "alpha".to_string(), true),
            (2, "beta".to_string(), true),
            (3, String::new(), true),
            (4, "gamma delta".to_string(), true),
        ];
        for buf in [1, 2, 3, 5, 7, 64, 1 << 16] {
            assert_eq!(drain(LineReader::new(&text[..], buf)), want, "buf={buf}");
        }
        // Lines of 0 to 19 chars next to `\n` in value (`\u{b}`, `\t`,
        // and `ʊ`, which is 0xca 0x8a), so the word-at-a-time scan meets
        // a newline at every offset of a word.
        let mut text = String::new();
        for len in 0..20 {
            text.extend(['\u{b}', '\t', 'ʊ'].iter().cycle().take(len));
            text.push('\n');
        }
        let want: Vec<_> = (1..)
            .zip(text.lines())
            .map(|(i, l)| (i, l.to_string(), true))
            .collect();
        for buf in [1, 7, 8, 9, 64, 1 << 16] {
            assert_eq!(
                drain(LineReader::new(text.as_bytes(), buf)),
                want,
                "buf={buf}"
            );
        }
    }

    #[test]
    fn carries_lines_across_short_reads() {
        let text = b"a long line that will straddle many one-byte reads\nshort\n";
        let got = drain(LineReader::new(OneByte(text), 8));
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].1,
            "a long line that will straddle many one-byte reads"
        );
        assert_eq!(got[1], (2, "short".to_string(), true));
    }

    #[test]
    fn final_line_without_newline_is_unterminated() {
        let got = drain(LineReader::new(&b"one\ntwo"[..], 2));
        assert_eq!(
            got,
            vec![(1, "one".to_string(), true), (2, "two".to_string(), false)]
        );
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert!(drain(LineReader::new(&b""[..], 4)).is_empty());
    }

    #[test]
    fn io_error_is_attributed_to_the_line_being_read() {
        let mut rd = LineReader::new(
            Dying {
                left: b"first\nsec",
            },
            4,
        );
        assert_eq!(rd.next_line().unwrap().unwrap().bytes, b"first");
        let err = rd.next_line().unwrap_err();
        match err {
            StreamError::Io { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_buf_bytes_is_clamped() {
        for buf in [0, usize::MAX] {
            let got = drain(LineReader::new(&b"x\ny\n"[..], buf));
            assert_eq!(got.len(), 2, "buf={buf}");
        }
    }
}
