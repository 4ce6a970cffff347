//! The timing `LocalRouter` wrapper used by the traced run.
//!
//! It forwards every call to the wrapped router unchanged and charges
//! the wall time of each `decide` to the innermost open span on the
//! calling thread (see [`crate::spans::charge_decide`]). Routes are
//! identical with and without it; the outcome checks compare both.

use std::time::Instant;

use local_routing::{Awareness, LocalRouter, LocalView, Packet, RoutingError};
use locality_graph::Label;

use crate::spans;

/// A router whose `decide` calls are timed.
#[derive(Clone, Copy, Debug)]
pub struct Timed<R>(pub R);

impl<R: LocalRouter> LocalRouter for Timed<R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn awareness(&self) -> Awareness {
        self.0.awareness()
    }

    fn min_locality(&self, n: usize) -> u32 {
        self.0.min_locality(n)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        let t = Instant::now();
        let out = self.0.decide(packet, view);
        spans::charge_decide(t.elapsed().as_nanos() as u64);
        out
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        let t = Instant::now();
        let out = self.0.decide_explained(packet, view);
        spans::charge_decide(t.elapsed().as_nanos() as u64);
        out
    }
}
