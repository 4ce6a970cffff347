//! The routing-oracle artifact tier: precompute every node's
//! [`LocalView`] once, serve it forever.
//!
//! The simulator's provisioning cost is dominated by per-node BFS
//! extraction of `G_k(u)` plus the derived first-step table — work
//! that is a pure function of `(G, k)` and therefore wasted every time
//! a deployment restarts. A [`ViewArtifact`] moves that work offline:
//! an **arena-layout blob** holding one encoded payload per node (CSR
//! view, slot-aligned labels, min-label first-step table) behind a
//! fixed-width offset index, so loading is one read plus an index
//! fixup and materialising any single view is a linear decode with no
//! graph traversal at all. A payload carries no distances: a view
//! stores none, and whatever distance a decision needs is a search of
//! the decoded `G_k(u)`.
//!
//! # Format (version 2)
//!
//! ```text
//! magic     4 bytes   "LRVO"
//! version   u16 le    2
//! k         u32 le    locality parameter of every payload
//! n         u32 le    node count (payload count)
//! edges     u64 le    edge count of the source graph (shape guard)
//! arena_len u64 le    total payload bytes
//! index     n × (offset u64 le, len u32 le)   into the arena
//! arena     arena_len bytes of concatenated payloads
//! checksum  u64 le    word-wise FNV-1a of every preceding byte
//! ```
//!
//! Versioning policy: the magic identifies the file family, the
//! version gates the payload layout; readers reject any version they
//! do not know ([`OracleError::UnsupportedVersion`]) rather than
//! guessing. Version 1 payloads held a per-member distance column
//! between the labels and the step table; a version-1 file is refused,
//! not migrated. The trailing checksum — [`codec::fnv1a_wide`], FNV-1a
//! applied to 64-bit words so the load-time scan costs a fraction of
//! the byte-wise reference — covers header, index and arena, so a
//! single flipped bit anywhere surfaces as
//! [`OracleError::ChecksumMismatch`] before any payload is trusted.
//!
//! Decoding never panics: every structural invariant is validated and
//! violations surface as a typed [`OracleError`]. Byte identity is a
//! load-bearing property — building the same `(G, k)` twice, at any
//! thread count, produces identical artifacts, and a decoded view
//! re-encodes to exactly its original payload.

use std::fmt;

use locality_graph::codec::{self, CodecError, Reader, Writer};
use locality_graph::{fanout, Graph, Label, NodeId};

use crate::view::LocalView;

/// File magic of a view artifact.
pub const MAGIC: [u8; 4] = *b"LRVO";
/// Current format version.
pub const FORMAT_VERSION: u16 = 2;
/// Fixed header length: magic, version, k, n, edges, arena_len.
const HEADER_LEN: usize = 4 + 2 + 4 + 4 + 8 + 8;
/// Bytes per index entry: offset u64 + len u32.
const INDEX_ENTRY_LEN: usize = 12;
/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

/// Why an artifact was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleError {
    /// A primitive decode failed (truncation, varint overflow, …).
    Codec(CodecError),
    /// The file does not start with [`MAGIC`].
    BadMagic(
        /// The four bytes actually found.
        [u8; 4],
    ),
    /// The format version is not one this reader understands.
    UnsupportedVersion(
        /// The version stamped in the header.
        u16,
    ),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// A structural invariant of the artifact was violated.
    Corrupt {
        /// The node whose payload was being decoded, if any.
        node: Option<NodeId>,
        /// Which invariant failed.
        what: &'static str,
    },
    /// The artifact was built for a different node count than the
    /// graph it is being used with.
    NodeCountMismatch {
        /// Node count stamped in the artifact.
        artifact: u32,
        /// Node count of the live graph.
        graph: u32,
    },
    /// The artifact was built for a different edge count (same node
    /// count, different topology).
    EdgeCountMismatch {
        /// Edge count stamped in the artifact.
        artifact: u64,
        /// Edge count of the live graph.
        graph: u64,
    },
    /// The artifact was built for a different locality parameter.
    KMismatch {
        /// `k` stamped in the artifact.
        artifact: u32,
        /// `k` the caller requested.
        requested: u32,
    },
    /// The requested node has no payload in this artifact.
    UnknownNode(NodeId),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Codec(e) => write!(f, "artifact decode failed: {e}"),
            OracleError::BadMagic(m) => write!(f, "not a view artifact (magic {m:02x?})"),
            OracleError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (reader knows {FORMAT_VERSION})"
                )
            }
            OracleError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            OracleError::Corrupt { node, what } => match node {
                Some(u) => write!(f, "artifact payload for node {u} is corrupt: {what}"),
                None => write!(f, "artifact is corrupt: {what}"),
            },
            OracleError::NodeCountMismatch { artifact, graph } => write!(
                f,
                "artifact holds {artifact} nodes but the graph has {graph}"
            ),
            OracleError::EdgeCountMismatch { artifact, graph } => write!(
                f,
                "artifact was built over {artifact} edges but the graph has {graph}"
            ),
            OracleError::KMismatch {
                artifact,
                requested,
            } => write!(f, "artifact was built for k={artifact}, not k={requested}"),
            OracleError::UnknownNode(u) => write!(f, "artifact has no payload for node {u}"),
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OracleError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for OracleError {
    fn from(e: CodecError) -> OracleError {
        OracleError::Codec(e)
    }
}

/// A versioned, checksummed blob of precomputed [`LocalView`]s for
/// every node of one `(graph, k)` pair.
///
/// The artifact owns its serialised bytes; [`decode_view`] materialises
/// a single node's view from the arena without touching any other
/// payload, which is what makes artifact-backed stores lazy.
///
/// [`decode_view`]: Self::decode_view
#[derive(Clone, Debug)]
pub struct ViewArtifact {
    k: u32,
    node_count: u32,
    graph_edge_count: u64,
    checksum: u64,
    /// Per-node `(offset, len)` into the arena.
    index: Vec<(u64, u32)>,
    /// Byte offset of the arena within `bytes`.
    arena_offset: usize,
    /// The full serialised artifact, checksum included.
    bytes: Vec<u8>,
}

impl ViewArtifact {
    /// Builds the artifact for every node of `graph` at locality `k`,
    /// fanning extraction across [`fanout::default_threads`] workers.
    /// The result is byte-identical at every thread count.
    pub fn build(graph: &Graph, k: u32) -> ViewArtifact {
        ViewArtifact::build_with_threads(graph, k, fanout::default_threads())
    }

    /// [`build`](Self::build) with an explicit worker count
    /// (`1` = fully sequential).
    pub fn build_with_threads(graph: &Graph, k: u32, threads: usize) -> ViewArtifact {
        let n = graph.node_count();
        // One job per node; the in-order merge makes the arena order a
        // pure function of the input.
        let ids: Vec<NodeId> = graph.nodes().collect();
        let payloads = fanout::run_trials(&ids, threads, |_, &u| {
            let view = LocalView::extract(graph, u, k);
            let mut w = Writer::new();
            encode_view(&mut w, &view);
            w.into_bytes()
        });

        let arena_len: usize = payloads.iter().map(Vec::len).sum();
        let total = HEADER_LEN + n * INDEX_ENTRY_LEN + arena_len + CHECKSUM_LEN;
        let mut w = Writer::new();
        let mut bytes = Vec::with_capacity(total);
        w.put_bytes(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u32(k);
        w.put_u32(n as u32);
        w.put_u64(graph.edge_count() as u64);
        w.put_u64(arena_len as u64);
        let mut index: Vec<(u64, u32)> = Vec::with_capacity(n);
        let mut offset: u64 = 0;
        for p in &payloads {
            index.push((offset, p.len() as u32));
            w.put_u64(offset);
            w.put_u32(p.len() as u32);
            offset += p.len() as u64;
        }
        bytes.extend_from_slice(w.as_bytes());
        let arena_offset = bytes.len();
        for p in &payloads {
            bytes.extend_from_slice(p);
        }
        let checksum = codec::fnv1a_wide(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        ViewArtifact {
            k,
            node_count: n as u32,
            graph_edge_count: graph.edge_count() as u64,
            checksum,
            index,
            arena_offset,
            bytes,
        }
    }

    /// Parses and validates a serialised artifact: magic, version,
    /// trailing checksum, and index consistency, in that order. The
    /// per-node payloads are *not* decoded here — that happens lazily
    /// in [`decode_view`](Self::decode_view) — so loading cost is the
    /// checksum scan plus the index fixup, independent of view sizes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<ViewArtifact, OracleError> {
        let min = HEADER_LEN + CHECKSUM_LEN;
        if bytes.len() < min {
            return Err(OracleError::Codec(CodecError::Truncated {
                at: bytes.len(),
            }));
        }
        let mut r = Reader::new(&bytes);
        let magic: [u8; 4] = r
            .take(4)?
            .try_into()
            .map_err(|_| OracleError::Codec(CodecError::Truncated { at: 0 }))?;
        if magic != MAGIC {
            return Err(OracleError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(OracleError::UnsupportedVersion(version));
        }
        let body_len = bytes.len() - CHECKSUM_LEN;
        let stored = {
            let mut tail = Reader::new(&bytes);
            let _ = tail.take(body_len)?;
            tail.u64()?
        };
        let computed = match bytes.get(..body_len) {
            Some(body) => codec::fnv1a_wide(body),
            None => return Err(OracleError::Codec(CodecError::Truncated { at: body_len })),
        };
        if stored != computed {
            return Err(OracleError::ChecksumMismatch { stored, computed });
        }
        let k = r.u32()?;
        let node_count = r.u32()?;
        let graph_edge_count = r.u64()?;
        let arena_len = r.u64()?;
        let n = node_count as usize;
        let expected = (HEADER_LEN as u64)
            .checked_add(n as u64 * INDEX_ENTRY_LEN as u64)
            .and_then(|v| v.checked_add(arena_len))
            .and_then(|v| v.checked_add(CHECKSUM_LEN as u64));
        if expected != Some(bytes.len() as u64) {
            return Err(OracleError::Corrupt {
                node: None,
                what: "file length disagrees with node count and arena length",
            });
        }
        let mut index: Vec<(u64, u32)> = Vec::with_capacity(n);
        for i in 0..n {
            let off = r.u64()?;
            let len = r.u32()?;
            let end = off.checked_add(u64::from(len));
            if end.is_none() || end > Some(arena_len) {
                return Err(OracleError::Corrupt {
                    node: Some(NodeId(i as u32)),
                    what: "index entry reaches past the arena",
                });
            }
            index.push((off, len));
        }
        let arena_offset = r.position();
        Ok(ViewArtifact {
            k,
            node_count,
            graph_edge_count,
            checksum: stored,
            index,
            arena_offset,
            bytes,
        })
    }

    /// The serialised artifact, checksum included.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The locality parameter every payload was extracted at.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of per-node payloads.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Edge count of the graph the artifact was built over.
    #[inline]
    pub fn graph_edge_count(&self) -> u64 {
        self.graph_edge_count
    }

    /// The FNV-1a checksum stamped in the trailer.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Checks that this artifact describes `graph` at locality `k`:
    /// same `k`, same node count, same edge count. This is a shape
    /// guard, not a full isomorphism check — the chaos byte-identity
    /// gate covers behavioural equality end to end.
    pub fn ensure_matches(&self, graph: &Graph, k: u32) -> Result<(), OracleError> {
        if self.k != k {
            return Err(OracleError::KMismatch {
                artifact: self.k,
                requested: k,
            });
        }
        if self.node_count as usize != graph.node_count() {
            return Err(OracleError::NodeCountMismatch {
                artifact: self.node_count,
                graph: graph.node_count() as u32,
            });
        }
        if self.graph_edge_count != graph.edge_count() as u64 {
            return Err(OracleError::EdgeCountMismatch {
                artifact: self.graph_edge_count,
                graph: graph.edge_count() as u64,
            });
        }
        Ok(())
    }

    /// Materialises node `u`'s view from the arena.
    ///
    /// Decoding validates every structural invariant (membership of
    /// the centre, member range, slot alignment, step-table slots)
    /// before any panicking constructor runs, so corrupt payloads come
    /// back as [`OracleError`], never a panic.
    pub fn decode_view(&self, u: NodeId) -> Result<LocalView, OracleError> {
        let Some(&(off, len)) = self.index.get(u.index()) else {
            return Err(OracleError::UnknownNode(u));
        };
        let start = self.arena_offset + off as usize;
        let Some(payload) = self.bytes.get(start..start + len as usize) else {
            return Err(OracleError::Corrupt {
                node: Some(u),
                what: "index entry reaches past the file",
            });
        };
        decode_view_payload(payload, u, self.k, self.node_count)
    }
}

/// Serialises one view: centre, CSR subgraph, slot-aligned labels,
/// then the first-step table as slot + 1 (0 = none). The table is
/// forced before encoding so artifact consumers never pay the step
/// BFS.
pub(crate) fn encode_view(w: &mut Writer, view: &LocalView) {
    w.put_varint(u64::from(view.center().0));
    codec::encode_subgraph(w, view.raw());
    for &l in view.labels() {
        w.put_varint(u64::from(l.value()));
    }
    for &s in view.step_table() {
        // The memo already stores the wire encoding (slot + 1, 0 =
        // none), so the table serialises verbatim.
        w.put_varint(u64::from(s));
    }
}

/// Decodes one payload, validating it belongs to `(expect_center, k)`
/// in an artifact of `node_count` nodes.
fn decode_view_payload(
    payload: &[u8],
    expect_center: NodeId,
    k: u32,
    node_count: u32,
) -> Result<LocalView, OracleError> {
    let corrupt = |what: &'static str| OracleError::Corrupt {
        node: Some(expect_center),
        what,
    };
    let mut r = Reader::new(payload);
    let center_raw = r.varint()?;
    if center_raw != u64::from(expect_center.0) {
        return Err(corrupt("payload centre disagrees with index position"));
    }
    let raw = codec::decode_subgraph(&mut r)?;
    if raw.slot_of(expect_center).is_none() {
        return Err(corrupt("centre is not a member of its own view"));
    }
    let members = raw.node_slice();
    if members.iter().any(|m| m.index() >= node_count as usize) {
        return Err(corrupt("view member outside the artifact's node range"));
    }
    let n = members.len();
    let mut labels: Vec<Label> = Vec::with_capacity(n);
    for _ in 0..n {
        let l = r.varint()?;
        let l = u32::try_from(l).map_err(|_| corrupt("label overflows u32"))?;
        labels.push(Label(l));
    }
    // Steps stay in their wire encoding (slot + 1, 0 = none); only the
    // slot bound needs checking before the table is trusted.
    let mut steps: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..n {
        let s = r.varint()?;
        let s = u32::try_from(s)
            .ok()
            .filter(|&s| (s as usize) <= n)
            .ok_or_else(|| corrupt("step slot out of bounds"))?;
        steps.push(s);
    }
    r.expect_eof()?;
    // Each table was filled to the capacity it was created with, so
    // boxing keeps its allocation as it is.
    Ok(LocalView::from_parts(
        expect_center,
        k,
        raw,
        labels.into_boxed_slice(),
        steps.into_boxed_slice(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators;
    use locality_graph::rng::DetRng;

    fn sample_graph(seed: u64, n: usize) -> Graph {
        generators::random_connected(n, n / 2, &mut DetRng::seed_from_u64(seed))
    }

    /// Behavioural equality of two views: same fingerprint, step
    /// table, raw component analysis and routing structure.
    fn assert_views_equal(a: &LocalView, b: &LocalView, ctx: &str) {
        assert_eq!(a.fingerprint(), b.fingerprint(), "{ctx}: fingerprint");
        assert_eq!(a.raw(), b.raw(), "{ctx}: raw subgraph");
        assert_eq!(a.raw_analysis(), b.raw_analysis(), "{ctx}: raw analysis");
        for &x in a.raw().node_slice() {
            assert_eq!(
                a.shortest_step_toward(x),
                b.shortest_step_toward(x),
                "{ctx}: step toward {x}"
            );
        }
        assert_eq!(
            a.routing_view().dormant,
            b.routing_view().dormant,
            "{ctx}: dormant edges"
        );
    }

    #[test]
    fn decoded_views_match_extraction() {
        let g = sample_graph(11, 20);
        let artifact = ViewArtifact::build(&g, 3);
        assert_eq!(artifact.node_count(), 20);
        for u in g.nodes() {
            let decoded = artifact.decode_view(u).expect("decode");
            let extracted = LocalView::extract(&g, u, 3);
            assert_views_equal(&decoded, &extracted, &format!("node {u}"));
        }
    }

    #[test]
    fn build_is_byte_identical_at_any_thread_count() {
        let g = sample_graph(5, 33);
        let seq = ViewArtifact::build_with_threads(&g, 4, 1);
        for threads in [2, 3, 8] {
            let par = ViewArtifact::build_with_threads(&g, 4, threads);
            assert_eq!(seq.as_bytes(), par.as_bytes(), "threads = {threads}");
        }
    }

    #[test]
    fn round_trip_through_bytes() {
        let g = sample_graph(7, 12);
        let artifact = ViewArtifact::build(&g, 2);
        let loaded = ViewArtifact::from_bytes(artifact.as_bytes().to_vec()).expect("load");
        assert_eq!(loaded.as_bytes(), artifact.as_bytes());
        assert_eq!(loaded.k(), 2);
        assert_eq!(loaded.checksum(), artifact.checksum());
        assert!(loaded.ensure_matches(&g, 2).is_ok());
    }

    #[test]
    fn encode_decode_encode_is_byte_identical() {
        // Property: decoding any payload and re-encoding the resulting
        // view reproduces the payload bit for bit, over DetRng graphs.
        for seed in 0..6u64 {
            let n = 8 + (seed as usize) * 7;
            let g = sample_graph(seed, n);
            let k = 2 + (seed as u32) % 3;
            let artifact = ViewArtifact::build(&g, k);
            for u in g.nodes() {
                let view = artifact.decode_view(u).expect("decode");
                let mut w = Writer::new();
                encode_view(&mut w, &view);
                let (off, len) = artifact.index[u.index()];
                let start = artifact.arena_offset + off as usize;
                let original = &artifact.bytes[start..start + len as usize];
                assert_eq!(w.as_bytes(), original, "seed {seed} node {u}");
            }
        }
    }

    #[test]
    fn truncated_artifact_is_a_typed_error() {
        let g = sample_graph(3, 9);
        let bytes = ViewArtifact::build(&g, 2).as_bytes().to_vec();
        for cut in 0..bytes.len() {
            let err = ViewArtifact::from_bytes(bytes[..cut].to_vec());
            assert!(err.is_err(), "prefix of length {cut} loaded");
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let g = sample_graph(4, 8);
        let bytes = ViewArtifact::build(&g, 2).as_bytes().to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                ViewArtifact::from_bytes(corrupt).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn wrong_version_stamp_is_a_typed_error() {
        // 1 is the layout with a distance column; 0x63 was never one.
        let g = sample_graph(6, 6);
        for version in [1, 0x63] {
            let mut bytes = ViewArtifact::build(&g, 2).as_bytes().to_vec();
            bytes[4] = version; // version low byte
            restamp_checksum(&mut bytes);
            assert_eq!(
                ViewArtifact::from_bytes(bytes).unwrap_err(),
                OracleError::UnsupportedVersion(u16::from(version))
            );
        }
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let g = sample_graph(6, 6);
        let mut bytes = ViewArtifact::build(&g, 2).as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            ViewArtifact::from_bytes(bytes).unwrap_err(),
            OracleError::BadMagic(_)
        ));
    }

    #[test]
    fn wrong_node_count_header_is_a_typed_error() {
        let g = sample_graph(6, 6);
        let mut bytes = ViewArtifact::build(&g, 2).as_bytes().to_vec();
        // node count lives at offset 10 (after magic, version, k).
        bytes[10] = 7;
        restamp_checksum(&mut bytes);
        assert_eq!(
            ViewArtifact::from_bytes(bytes).unwrap_err(),
            OracleError::Corrupt {
                node: None,
                what: "file length disagrees with node count and arena length",
            }
        );
    }

    #[test]
    fn degree_sum_past_the_payload_is_rejected_before_allocating() {
        let mut bytes = ViewArtifact::build(&generators::cycle(16), 2)
            .as_bytes()
            .to_vec();
        assert_eq!(bytes.len(), 710);
        // Node 0's payload: centre, member count 5, five gap-coded ids,
        // then its degree run, whose first four bytes become one
        // varint of 2^27 - 1.
        let index = HEADER_LEN;
        let off = u64::from_le_bytes(bytes[index..index + 8].try_into().unwrap());
        let degrees = index + 16 * INDEX_ENTRY_LEN + off as usize + 7;
        bytes[degrees..degrees + 4].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0x3F]);
        restamp_checksum(&mut bytes);
        let art = ViewArtifact::from_bytes(bytes).expect("the checksum holds");
        assert_eq!(
            art.decode_view(NodeId(0)).unwrap_err(),
            OracleError::Codec(CodecError::Malformed {
                at: 1,
                what: "degree sum exceeds remaining input",
            })
        );
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let g = sample_graph(8, 10);
        let artifact = ViewArtifact::build(&g, 3);
        assert_eq!(
            artifact.ensure_matches(&g, 4).unwrap_err(),
            OracleError::KMismatch {
                artifact: 3,
                requested: 4
            }
        );
        let other = sample_graph(8, 11);
        assert!(matches!(
            artifact.ensure_matches(&other, 3).unwrap_err(),
            OracleError::NodeCountMismatch { .. }
        ));
        let reshaped = sample_graph(9, 10);
        if reshaped.edge_count() != g.edge_count() {
            assert!(matches!(
                artifact.ensure_matches(&reshaped, 3).unwrap_err(),
                OracleError::EdgeCountMismatch { .. }
            ));
        }
    }

    #[test]
    fn unknown_node_is_a_typed_error() {
        let g = sample_graph(2, 5);
        let artifact = ViewArtifact::build(&g, 2);
        assert_eq!(
            artifact.decode_view(NodeId(99)).unwrap_err(),
            OracleError::UnknownNode(NodeId(99))
        );
    }

    #[test]
    fn largest_member_id_is_a_corrupt_payload() {
        // A well-formed subgraph whose last member is NodeId(u32::MAX):
        // it decodes (no wrap, no table sized by the id bound), and
        // the view decoder then rejects the member as outside the
        // artifact's node range.
        let mut w = Writer::new();
        w.put_varint(0); // centre
        w.put_varint(2); // members 0 and u32::MAX, one edge
        w.put_varint(0);
        w.put_varint(u64::from(u32::MAX - 1));
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(0);
        for v in [0, 1, 0, 2] {
            w.put_varint(v); // labels, steps
        }
        assert_eq!(
            decode_view_payload(w.as_bytes(), NodeId(0), 1, 2048).unwrap_err(),
            OracleError::Corrupt {
                node: Some(NodeId(0)),
                what: "view member outside the artifact's node range",
            }
        );
    }

    /// Preprocessing reads a decoded view's edges alone, and decoding
    /// does not check that they form a k-neighbourhood. Hand-built
    /// payloads, centre 0 and labels equal to ids, whose edges hide a
    /// triangle, a member beyond k, or a cycle in a view with m = n − 1
    /// give the routing view and raw analysis of the reference
    /// pipeline. The triangle 0-1-2 at k = 1 has nothing dormant, yet
    /// its edge 1-2 joins two depth-k members and must leave G'_k(u).
    /// The path 0-1-2-3 at k = 2 is a tree with member 3 beyond k. The
    /// 4-cycle 0-1-2-3 beside the edge 4-5 at k = 2 has m = n − 1 but
    /// is no tree.
    #[test]
    fn forged_views_preprocess_as_the_reference() {
        use crate::view::reference;

        let forged = [
            (&[(0, 1), (1, 2), (0, 2)][..], 1, 3, 2, 0),
            (&[(0, 1), (1, 2), (2, 3)], 2, 4, 2, 0),
            (&[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 2, 6, 2, 1),
        ];
        for (edges, k, n, routing_edges, dormant) in forged {
            let mut b = locality_graph::SubgraphBuilder::new();
            for x in 0..n {
                b.insert_node(NodeId(x));
            }
            for &(x, y) in edges {
                b.insert_edge(NodeId(x), NodeId(y));
            }
            let mut w = Writer::new();
            w.put_varint(0);
            codec::encode_subgraph(&mut w, &b.build());
            let steps = std::iter::repeat_n(0, n as usize);
            for v in (0..u64::from(n)).chain(steps) {
                w.put_varint(v); // labels, steps
            }
            let view = decode_view_payload(w.as_bytes(), NodeId(0), k, n)
                .expect("the payload passes decoding");
            let rv = view.routing_view();
            assert_eq!(rv, &reference::routing_view(&view), "{edges:?}");
            assert_eq!(rv.sub.edge_count(), routing_edges, "{edges:?}: G'_k(u)");
            assert_eq!(rv.dormant.len(), dormant, "{edges:?}: dormant edges");
            assert_eq!(
                view.raw_analysis(),
                &reference::analyze(view.raw(), NodeId(0), k),
                "{edges:?}"
            );
        }
    }

    #[test]
    fn artifact_backed_store_loads_lazily_and_rebuilds_only_stale() {
        use crate::engine::ViewStore;
        use std::sync::Arc;

        let g = sample_graph(10, 16);
        let artifact = Arc::new(ViewArtifact::build(&g, 3));
        let mut store = ViewStore::from_artifact(Arc::clone(&artifact));
        assert!(store.is_artifact_backed());
        // Cold lookups decode from the arena — no BFS anywhere.
        for u in g.nodes() {
            store.view(&g, u);
        }
        let s = store.stats();
        assert_eq!(s.misses, 16);
        assert_eq!(s.artifact_loads, 16);
        assert_eq!(s.rebuilds, 0);
        // Warm lookups hit the cache.
        for u in g.nodes() {
            store.view(&g, u);
        }
        assert_eq!(store.stats().hits, 16);
        // Invalidate two nodes: exactly those rebuild from the live
        // graph; every other slot keeps its decoded view untouched.
        store.invalidate(NodeId(0));
        store.invalidate(NodeId(1));
        for u in g.nodes() {
            store.view(&g, u);
        }
        let s = store.stats();
        assert_eq!(s.rebuilds, 2, "only the invalidated nodes rebuild");
        assert_eq!(s.artifact_loads, 16, "no extra decodes after the wave");
        // Stale is sticky: a later invalidate + miss re-extracts again
        // rather than serving the outdated payload.
        store.invalidate(NodeId(0));
        store.view(&g, NodeId(0));
        assert_eq!(store.stats().rebuilds, 3);
    }

    #[test]
    fn backed_and_unbacked_stores_serve_identical_views() {
        use crate::engine::ViewStore;
        use std::sync::Arc;

        let g = sample_graph(12, 14);
        let artifact = Arc::new(ViewArtifact::build(&g, 4));
        let bfs = ViewStore::new(&g, 4);
        let oracle = ViewStore::from_artifact(artifact);
        for u in g.nodes() {
            assert_views_equal(bfs.view(&g, u), oracle.view(&g, u), &format!("node {u}"));
        }
    }

    /// Recomputes and restamps the trailing checksum, for tests that
    /// corrupt a header field on purpose and want to get *past* the
    /// checksum gate to the structural validation behind it.
    fn restamp_checksum(bytes: &mut Vec<u8>) {
        let body = bytes.len() - CHECKSUM_LEN;
        let sum = codec::fnv1a_wide(&bytes[..body]);
        bytes.truncate(body);
        bytes.extend_from_slice(&sum.to_le_bytes());
    }
}
