//! Flat storage for the simulator's in-flight transmissions.
//!
//! [`ArrivalSlab`] replaces heap-allocated arrival structs flowing
//! through per-tick `VecDeque`s: a transmission is four parallel `u32`
//! fields (struct-of-arrays) addressed by a `u32` handle, recycled
//! through a free list. The scheduler and the parked-link queues carry
//! handles only.

use locality_graph::NodeId;

/// Copy-out of one in-flight transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalData {
    /// Index of the message record.
    pub msg: u32,
    /// Node the transmission arrives at.
    pub at: NodeId,
    /// Sending neighbour (`None` for a source injection).
    pub from: Option<NodeId>,
    /// Source-side attempt this transmission belongs to.
    pub attempt: u32,
}

/// Sentinel for "no predecessor" in the slab's `from` column.
const NO_FROM: u32 = u32::MAX;

/// Struct-of-arrays arena of in-flight transmissions with a free list.
///
/// `alloc` hands out a `u32` handle; `get` copies the four fields out;
/// `free` recycles the handle. A handle stays valid until freed —
/// parked transmissions simply keep theirs while they wait.
#[derive(Default)]
pub struct ArrivalSlab {
    msg: Vec<u32>,
    at: Vec<u32>,
    from: Vec<u32>,
    attempt: Vec<u32>,
    free: Vec<u32>,
    high_water: usize,
}

impl ArrivalSlab {
    /// An empty arena.
    pub fn new() -> ArrivalSlab {
        ArrivalSlab::default()
    }

    /// Number of live (allocated, not yet freed) transmissions.
    pub fn live(&self) -> usize {
        self.msg.len() - self.free.len()
    }

    /// The most transmissions ever live at once — the arena's peak
    /// working set, reported by the tracer as `slab.high_water`.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Stores one transmission and returns its handle.
    pub fn alloc(&mut self, msg: u32, at: NodeId, from: Option<NodeId>, attempt: u32) -> u32 {
        let from = from.map_or(NO_FROM, |f| f.0);
        let h = if let Some(h) = self.free.pop() {
            let i = h as usize;
            if let (Some(m), Some(a), Some(f), Some(att)) = (
                self.msg.get_mut(i),
                self.at.get_mut(i),
                self.from.get_mut(i),
                self.attempt.get_mut(i),
            ) {
                (*m, *a, *f, *att) = (msg, at.0, from, attempt);
            }
            h
        } else {
            let h = self.msg.len() as u32;
            self.msg.push(msg);
            self.at.push(at.0);
            self.from.push(from);
            self.attempt.push(attempt);
            h
        };
        self.high_water = self.high_water.max(self.live());
        h
    }

    /// Reads the transmission behind `h`. Freed or out-of-range
    /// handles yield a harmless zero record (the simulator never
    /// presents one — every handle it holds is live).
    pub fn get(&self, h: u32) -> ArrivalData {
        let i = h as usize;
        ArrivalData {
            msg: self.msg.get(i).copied().unwrap_or(0),
            at: NodeId(self.at.get(i).copied().unwrap_or(0)),
            from: match self.from.get(i).copied().unwrap_or(NO_FROM) {
                NO_FROM => None,
                f => Some(NodeId(f)),
            },
            attempt: self.attempt.get(i).copied().unwrap_or(0),
        }
    }

    /// Recycles `h` for a later [`alloc`](Self::alloc).
    pub fn free(&mut self, h: u32) {
        debug_assert!((h as usize) < self.msg.len());
        self.free.push(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_roundtrip_and_recycling() {
        let mut slab = ArrivalSlab::new();
        let a = slab.alloc(7, NodeId(3), None, 0);
        let b = slab.alloc(8, NodeId(1), Some(NodeId(2)), 2);
        assert_eq!(
            slab.get(a),
            ArrivalData {
                msg: 7,
                at: NodeId(3),
                from: None,
                attempt: 0
            }
        );
        assert_eq!(
            slab.get(b),
            ArrivalData {
                msg: 8,
                at: NodeId(1),
                from: Some(NodeId(2)),
                attempt: 2
            }
        );
        assert_eq!(slab.live(), 2);
        slab.free(a);
        assert_eq!(slab.live(), 1);
        let c = slab.alloc(9, NodeId(0), Some(NodeId(5)), 1);
        assert_eq!(c, a, "freed handles are recycled LIFO");
        assert_eq!(slab.get(c).msg, 9);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.high_water(), 2, "peak live count, not allocations");
        let d = slab.alloc(10, NodeId(4), None, 0);
        assert_eq!(slab.high_water(), 3);
        slab.free(d);
        assert_eq!(slab.high_water(), 3, "high-water never recedes");
    }
}
