//! Zero-dependency binary codec: little-endian fixed-width and varint
//! primitives and an FNV-1a checksum.
//!
//! This is the wire layer of the routing-oracle artifact tier: the
//! `oracle` module in `local-routing` serialises per-node views with
//! these primitives, and `bin/oracle` ships the resulting blobs to
//! disk. Everything here is deliberately boring — fixed layouts, no
//! compression beyond LEB128 varints and delta coding — because the
//! artifact contract is *byte identity*: encoding the same value twice
//! must produce the same bytes on every platform.
//!
//! Decoding never panics. Every read is bounds-checked and every
//! structural invariant is validated before a [`Subgraph`] (or any
//! other panicking constructor) is touched; malformed input surfaces
//! as a typed [`CodecError`].

use std::fmt;

use crate::labels::NodeId;
use crate::subgraph::Subgraph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
///
/// Used as the integrity checksum of serialised artifacts: not
/// cryptographic, but a single flipped bit anywhere in the input
/// changes the digest, which is exactly what a corruption check needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash over 8-byte words: the artifact checksum.
///
/// Same mixing step as [`fnv1a`] but applied to whole little-endian
/// 64-bit words, with tail bytes folded in one at a time. Scanning a
/// word per multiply is roughly eight times faster than the byte-wise
/// reference, which is the difference between a checksum gate and a
/// checksum tax when validating multi-megabyte artifacts on load.
///
/// Detection strength is preserved: each step xors the state with the
/// next word and multiplies by the odd FNV prime — a bijection of the
/// state for any fixed input — so corruption confined to a single
/// word (in particular any single flipped bit) is *guaranteed* to
/// change the digest, not merely likely to.
pub fn fnv1a_wide(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(c);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a decode was rejected. Every variant carries the byte position
/// the reader had reached, so corruption reports point at the file
/// offset, not just "something was wrong".
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value being read was complete.
    Truncated {
        /// Byte position at which more input was needed.
        at: usize,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow {
        /// Byte position of the varint's first byte.
        at: usize,
    },
    /// A structural invariant of the decoded value was violated.
    Malformed {
        /// Byte position at which the violation was detected.
        at: usize,
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "input truncated at byte {at}"),
            CodecError::VarintOverflow { at } => {
                write!(f, "varint at byte {at} overflows 64 bits")
            }
            CodecError::Malformed { at, what } => {
                write!(f, "malformed input at byte {at}: {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a growable byte buffer.
///
/// All multi-byte fixed-width values are little-endian; varints are
/// LEB128 (7 data bits per byte, high bit = continuation).
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Bounds-checked cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Byte position of the cursor within the input.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed everything.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_eof(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed {
                at: self.position(),
                what: "trailing bytes after value",
            })
        }
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        match self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(CodecError::Truncated {
                at: self.position(),
            }),
        }
    }

    /// Reads a fixed-size array of bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let at = self.position();
        self.take(N)?
            .try_into()
            .map_err(|_| CodecError::Truncated { at })
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a LEB128 varint.
    ///
    /// `#[inline]` because artifact decoding calls this once per
    /// encoded field — millions of times per cold load — from another
    /// crate, where the call would otherwise never be inlined.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        // Single-byte values dominate every artifact section (slots,
        // degrees, distances, gaps), so take them without entering
        // the shift loop.
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow()
    }

    /// Multi-byte continuation of [`varint`](Self::varint), kept out
    /// of line so the common single-byte path stays small.
    fn varint_slow(&mut self) -> Result<u64, CodecError> {
        let start = self.position();
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = match self.buf.get(self.pos) {
                Some(&b) => b,
                None => {
                    return Err(CodecError::Truncated {
                        at: self.position(),
                    })
                }
            };
            self.pos += 1;
            let payload = u64::from(b & 0x7f);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(CodecError::VarintOverflow { at: start });
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit in `usize` (on-wire counts).
    #[inline]
    pub fn varint_len(&mut self) -> Result<usize, CodecError> {
        let at = self.position();
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed {
            at,
            what: "length does not fit in usize",
        })
    }
}

/// Serialises a CSR [`Subgraph`] into `w`.
///
/// Layout: member count, members as delta varints (first id, then
/// gap − 1), per-slot degrees, then each target as the *slot* of the
/// neighbour. Slots keep targets small and make bounds validation on
/// decode a single comparison; since [`Subgraph`] stores its CSR
/// targets as slots too, both directions copy them straight through
/// with no id lookup. The member
/// list and every neighbour run are already sorted ascending in a CSR
/// subgraph, so the encoding is canonical: equal subgraphs produce
/// identical bytes.
pub fn encode_subgraph(w: &mut Writer, s: &Subgraph) {
    let members = s.node_slice();
    w.put_varint(members.len() as u64);
    let mut prev: Option<u32> = None;
    for &u in members {
        match prev {
            None => w.put_varint(u64::from(u.0)),
            Some(p) => w.put_varint(u64::from(u.0 - p - 1)),
        }
        prev = Some(u.0);
    }
    for slot in 0..members.len() {
        w.put_varint(s.neighbor_slots(slot).len() as u64);
    }
    // Targets are stored as slots already: copy them straight through.
    for slot in 0..members.len() {
        for &t in s.neighbor_slots(slot) {
            w.put_varint(u64::from(t));
        }
    }
}

/// Decodes a [`Subgraph`] written by [`encode_subgraph`].
///
/// All structural invariants — strictly ascending members, in-bound
/// target slots, sorted self-loop-free neighbour runs, an even number
/// of directed edge ends, a degree sum the remaining input can hold —
/// are validated here, before any panicking constructor runs;
/// violations come back as [`CodecError::Malformed`].
/// Edge symmetry (`v ∈ N(u)` ⇒ `u ∈ N(v)`) is *not* re-checked: the
/// artifact checksum already guards against corruption, and the check
/// would double decode cost for data the encoder produced from a
/// well-formed CSR.
///
/// A first pass over the degrees sizes the CSR block, and the targets
/// are then decoded straight into it: the members and the block are
/// the only allocations, each made once at its final size.
pub fn decode_subgraph(r: &mut Reader<'_>) -> Result<Subgraph, CodecError> {
    let at = r.position();
    let n = r.varint_len()?;
    // A member list longer than the remaining input is corrupt; bail
    // before reserving memory for it.
    if n > r.remaining() {
        return Err(CodecError::Malformed {
            at,
            what: "member count exceeds remaining input",
        });
    }
    let mut members: Vec<NodeId> = Vec::with_capacity(n);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let at = r.position();
        let raw = r.varint()?;
        let id = match prev {
            None => u32::try_from(raw).ok(),
            Some(p) => raw
                .checked_add(1)
                .and_then(|gap| u64::from(p).checked_add(gap))
                .and_then(|v| u32::try_from(v).ok()),
        };
        let id = id.ok_or(CodecError::Malformed {
            at,
            what: "member id overflows u32",
        })?;
        members.push(NodeId(id));
        prev = Some(id);
    }
    let degrees = r.clone();
    let mut total: u32 = 0;
    for _ in 0..n {
        let at = r.position();
        let d = r.varint()?;
        let d = u32::try_from(d)
            .ok()
            .filter(|&d| total.checked_add(d).is_some())
            .ok_or(CodecError::Malformed {
                at,
                what: "degree sum overflows u32",
            })?;
        total += d;
    }
    if !total.is_multiple_of(2) {
        return Err(CodecError::Malformed {
            at,
            what: "odd number of directed edge ends",
        });
    }
    // Every target takes at least one byte, so a larger sum is corrupt;
    // bail before reserving the CSR block for it.
    if total as usize > r.remaining() {
        return Err(CodecError::Malformed {
            at,
            what: "degree sum exceeds remaining input",
        });
    }
    // The gap coding makes the members strictly ascending, as the
    // subgraph requires. All n were pushed, so boxing keeps the
    // allocation as it is.
    let members = members.into_boxed_slice();
    Subgraph::try_with_csr(members, total as usize, |offsets, targets| {
        // The degrees were validated above; this pass turns them into
        // offsets and reads each run's targets behind them.
        let mut degrees = degrees;
        let mut targets = targets.iter_mut();
        let mut end: u32 = 0;
        for (slot, offset) in offsets.iter_mut().skip(1).enumerate() {
            let deg = degrees.varint()?;
            end += deg as u32;
            *offset = end;
            let mut prev_slot: Option<usize> = None;
            for (_, target) in (0..deg).zip(targets.by_ref()) {
                let at = r.position();
                let t = r.varint_len()?;
                if t >= n {
                    return Err(CodecError::Malformed {
                        at,
                        what: "target slot out of bounds",
                    });
                }
                if t == slot {
                    return Err(CodecError::Malformed {
                        at,
                        what: "self-loop in neighbour run",
                    });
                }
                if prev_slot.is_some_and(|p| t <= p) {
                    return Err(CodecError::Malformed {
                        at,
                        what: "neighbour run not strictly ascending",
                    });
                }
                prev_slot = Some(t);
                // `t < n`, and n members with distinct u32 ids fit in u32.
                *target = t as u32;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::DetRng;
    use crate::subgraph::SubgraphBuilder;
    use crate::traversal::Topology;

    #[test]
    fn varint_round_trips_boundaries() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = Writer::new();
        for &v in &cases {
            w.put_varint(v);
        }
        let mut r = Reader::new(w.as_bytes());
        for &v in &cases {
            assert_eq!(r.varint(), Ok(v));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn varint_overflow_is_detected() {
        // 11 continuation bytes: more than any u64 needs.
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::VarintOverflow { at: 0 }));
        // 10 bytes whose top payload exceeds the 64th bit.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::VarintOverflow { at: 0 }));
    }

    #[test]
    fn fixed_widths_round_trip_little_endian() {
        let mut w = Writer::new();
        w.put_u16(0x1234);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0102_0304_0506_0708);
        assert_eq!(w.as_bytes()[0..2], [0x34, 0x12]);
        let mut r = Reader::new(w.as_bytes());
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.u16(), Err(CodecError::Truncated { at: 14 }));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_wide_detects_every_single_byte_flip() {
        // The guaranteed property: corruption confined to one word
        // always changes the digest. Exercise every byte position of
        // an input long enough to cover full words plus a tail.
        let bytes: Vec<u8> = (0u8..100).collect();
        let clean = fnv1a_wide(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(
                    fnv1a_wide(&corrupt),
                    clean,
                    "flip of bit {bit} at byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn fnv1a_wide_separates_lengths_and_contents() {
        // Pinned digests: the artifact trailer depends on this exact
        // function, so its values must never drift across platforms.
        assert_eq!(fnv1a_wide(b""), FNV_OFFSET);
        assert_eq!(fnv1a_wide(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a_wide(b"12345678"), fnv1a_wide(b"1234567"));
        assert_ne!(fnv1a_wide(b"12345678"), fnv1a_wide(b"123456780"));
        // Word-aligned inputs take the wide path; sub-word tails take
        // the byte path, so only sub-8-byte inputs match plain FNV-1a.
        assert_ne!(fnv1a_wide(b"12345678"), fnv1a(b"12345678"));
    }

    fn round_trip(s: &Subgraph) -> Subgraph {
        let mut w = Writer::new();
        encode_subgraph(&mut w, s);
        let mut r = Reader::new(w.as_bytes());
        let out = decode_subgraph(&mut r).expect("decode");
        assert!(r.is_empty(), "decode consumed everything");
        out
    }

    #[test]
    fn subgraph_round_trips_structurally_equal() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(3), NodeId(7));
        b.insert_edge(NodeId(7), NodeId(12));
        b.insert_node(NodeId(40)); // isolated member
        let s = b.build();
        assert_eq!(round_trip(&s), s);
        // Empty subgraph in its builder-canonical form (offsets = [0]).
        let empty = SubgraphBuilder::new().build();
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn subgraph_encoding_is_canonical_over_random_graphs() {
        let mut rng = DetRng::seed_from_u64(0xC0DEC);
        for n in [1usize, 2, 9, 33] {
            let g = generators::random_connected(n, n / 2, &mut rng);
            let s = crate::neighborhood::k_neighborhood(&g, NodeId(0), 3);
            let decoded = round_trip(&s);
            assert_eq!(decoded, s);
            assert_eq!(decoded.id_bound(), s.id_bound());
            // encode → decode → encode is byte-identical.
            let mut w1 = Writer::new();
            encode_subgraph(&mut w1, &s);
            let mut w2 = Writer::new();
            encode_subgraph(&mut w2, &decoded);
            assert_eq!(w1.as_bytes(), w2.as_bytes());
        }
    }

    #[test]
    fn largest_member_id_decodes_without_a_table() {
        // Last member u32::MAX: the derived id bound is 2^32. Computed
        // in u32 it would wrap to 0, pass the density test and build an
        // empty id -> slot table that finds no member.
        let mut w = Writer::new();
        w.put_varint(2); // members u32::MAX - 1 and u32::MAX
        w.put_varint(u64::from(u32::MAX - 1));
        w.put_varint(0);
        w.put_varint(1); // one edge between them
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(0);
        let mut r = Reader::new(w.as_bytes());
        let s = decode_subgraph(&mut r).expect("a valid payload");
        assert!(r.is_empty());
        assert_eq!(s.id_bound(), u32::MAX as usize + 1);
        assert_eq!(s.slot_of(NodeId(u32::MAX)), Some(1));
        assert!(s.has_edge(NodeId(u32::MAX - 1), NodeId(u32::MAX)));
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(u32::MAX - 1), NodeId(u32::MAX));
        assert_eq!(
            s,
            b.build(),
            "same blocks as the builder's, which hold no table"
        );

        // A lone member at u32::MAX.
        let mut w = Writer::new();
        w.put_varint(1);
        w.put_varint(u64::from(u32::MAX));
        w.put_varint(0);
        let s = round_trip(&decode_subgraph(&mut Reader::new(w.as_bytes())).expect("valid"));
        assert_eq!(s.node_slice(), &[NodeId(u32::MAX)]);
        assert!(s.contains_node(NodeId(u32::MAX)));
        // One past u32::MAX is a typed error, not a wrap.
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_varint(u64::from(u32::MAX));
        w.put_varint(0);
        assert!(matches!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                what: "member id overflows u32",
                ..
            })
        ));
    }

    #[test]
    fn truncated_subgraph_is_a_typed_error() {
        let mut b = SubgraphBuilder::new();
        b.insert_edge(NodeId(0), NodeId(1));
        b.insert_edge(NodeId(1), NodeId(2));
        let mut w = Writer::new();
        encode_subgraph(&mut w, &b.build());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                decode_subgraph(&mut r).is_err(),
                "prefix of length {cut} decoded"
            );
        }
    }

    #[test]
    fn malformed_subgraphs_are_typed_errors() {
        // Degree sum is odd.
        let mut w = Writer::new();
        w.put_varint(2); // two members: 0, 1
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(1); // deg(0) = 1
        w.put_varint(0); // deg(1) = 0  → total 1, odd
        assert!(matches!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                what: "odd number of directed edge ends",
                ..
            })
        ));
        // Target slot out of bounds.
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(5); // slot 5 of 2
        w.put_varint(0);
        assert!(matches!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                what: "target slot out of bounds",
                ..
            })
        ));
        // Self-loop.
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(0); // slot 0's neighbour is slot 0
        w.put_varint(0);
        assert!(matches!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                what: "self-loop in neighbour run",
                ..
            })
        ));
        // Absurd member count cannot allocate.
        let mut w = Writer::new();
        w.put_varint(u64::from(u32::MAX));
        assert!(matches!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                what: "member count exceeds remaining input",
                ..
            })
        ));
        // A degree sum past the input cannot allocate either: two
        // members claiming 2^30 edge ends each, and no targets.
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(1 << 30);
        w.put_varint(1 << 30);
        assert_eq!(
            decode_subgraph(&mut Reader::new(w.as_bytes())),
            Err(CodecError::Malformed {
                at: 0,
                what: "degree sum exceeds remaining input",
            })
        );
    }
}
