//! Allocation bounded by input size on a corrupt `.lrvo` payload: a
//! degree run that claims 2^27 - 1 edge ends in a 710-byte artifact is
//! rejected before any block is sized by that claim.
//!
//! The artifact is `ViewArtifact::build(&cycle(16), 2)` with the first
//! four bytes of node 0's degree run overwritten by one large varint
//! and the checksum restamped, so `from_bytes` accepts it and only
//! `decode_view` can catch the lie. Decoding it must make no single
//! allocation larger than 1 MiB; a decoder that sized the CSR block
//! from the degrees first asked for about 512 MiB.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide, and contains exactly one
//! `#[test]` so no concurrent test can pollute the high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use local_routing::{OracleError, ViewArtifact};
use locality_graph::codec::{self, CodecError};
use locality_graph::{generators, NodeId};

/// System allocator that remembers the largest block it was asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Header bytes before the index: magic, version, k, n, edges, arena
/// length.
const HEADER_LEN: usize = 30;
/// Bytes per index entry: offset u64 + length u32.
const INDEX_ENTRY_LEN: usize = 12;
/// Trailing checksum bytes.
const CHECKSUM_LEN: usize = 8;

#[test]
fn a_degree_sum_past_the_payload_allocates_nothing_sized_by_it() {
    let mut bytes = ViewArtifact::build(&generators::cycle(16), 2)
        .as_bytes()
        .to_vec();
    assert_eq!(bytes.len(), 710);
    // Node 0's payload: centre, member count 5, five gap-coded ids, then
    // its degree run.
    let index = bytes.get(HEADER_LEN..HEADER_LEN + 8).expect("index entry");
    let off = u64::from_le_bytes(index.try_into().expect("8 bytes"));
    let degrees = HEADER_LEN + 16 * INDEX_ENTRY_LEN + off as usize + 7;
    bytes[degrees..degrees + 4].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0x3F]);
    let body = bytes.len() - CHECKSUM_LEN;
    let sum = codec::fnv1a_wide(&bytes[..body]);
    bytes.truncate(body);
    bytes.extend_from_slice(&sum.to_le_bytes());

    LARGEST.store(0, Ordering::Relaxed);
    let art = ViewArtifact::from_bytes(bytes).expect("the checksum holds");
    let err = art.decode_view(NodeId(0)).expect_err("the degree run lies");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 1 << 20,
        "decoding asked for a {largest}-byte block (error: {err})"
    );
    assert_eq!(
        err,
        OracleError::Codec(CodecError::Malformed {
            at: 1,
            what: "degree sum exceeds remaining input",
        })
    );
}
