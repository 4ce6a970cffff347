//! The `LocalRouter` trait: the routing-function interface.

use locality_graph::Label;

use crate::error::RoutingError;
use crate::model::{Awareness, Packet};
use crate::view::LocalView;

/// A deterministic, memoryless, stateless k-local routing algorithm —
/// the paper's routing function `f(s, t, u, v, G_k(u))` (§2.1).
///
/// Implementations must be **pure**: the decision may depend only on the
/// (already masked) packet and the view. The engine exploits purity for
/// exact loop detection — if the same `(u, v)` state recurs, the run
/// provably never terminates.
///
/// `Sync` is a supertrait: routers are immutable decision tables, and
/// requiring it here lets the engine and the adversary fan any router —
/// including `dyn LocalRouter` trait objects — out across threads.
pub trait LocalRouter: Sync {
    /// Human-readable algorithm name, used in reports and benches.
    fn name(&self) -> &'static str;

    /// Which optional inputs the algorithm consumes. The engine masks
    /// the rest, so an "oblivious" router physically cannot cheat.
    fn awareness(&self) -> Awareness;

    /// The smallest `k` for which the algorithm guarantees delivery on
    /// every connected graph with `n` nodes (the paper's threshold
    /// `T(n)`, Table 1). Running below this value may fail.
    fn min_locality(&self, n: usize) -> u32;

    /// Chooses the neighbour of the view's centre to forward to,
    /// identified by label.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] when the view violates the algorithm's
    /// structural preconditions — the signature of `k` being below
    /// [`min_locality`](Self::min_locality).
    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError>;

    /// Like [`decide`](Self::decide), but also names the rule that fired
    /// (e.g. `"case-1"`, `"S2"`, `"U3"`, `"U2e"`). This is the call
    /// every hop makes, through
    /// [`engine::decide_hop`](crate::engine::decide_hop). The default
    /// reports `"?"`.
    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        self.decide(packet, view).map(|l| (l, "?"))
    }
}

/// Blanket impl so `&R` is accepted wherever a router is expected.
impl<R: LocalRouter + ?Sized> LocalRouter for &R {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn awareness(&self) -> Awareness {
        (**self).awareness()
    }

    fn min_locality(&self, n: usize) -> u32 {
        (**self).min_locality(n)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        (**self).decide(packet, view)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        (**self).decide_explained(packet, view)
    }
}

/// Blanket impl so boxed (dyn) routers are accepted too.
impl<R: LocalRouter + ?Sized> LocalRouter for Box<R> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn awareness(&self) -> Awareness {
        (**self).awareness()
    }

    fn min_locality(&self, n: usize) -> u32 {
        (**self).min_locality(n)
    }

    fn decide(&self, packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
        (**self).decide(packet, view)
    }

    fn decide_explained(
        &self,
        packet: &Packet,
        view: &LocalView,
    ) -> Result<(Label, &'static str), RoutingError> {
        (**self).decide_explained(packet, view)
    }
}

/// Case 1 of Algorithms 1, 1B, 2 and 3: with the destination in view,
/// step to the centre's lowest-label neighbour on a shortest path toward
/// it, named `case-1`. `None` when the destination is out of view.
pub(crate) fn case_1(
    packet: &Packet,
    view: &LocalView,
) -> Option<Result<(Label, &'static str), RoutingError>> {
    Some(match view.step_toward_label(packet.target)? {
        Some(step) => Ok((step, "case-1")),
        None if packet.target == view.center_label() => Err(RoutingError::ProtocolViolation(
            "asked to forward a message already at its destination".into(),
        )),
        None => Err(RoutingError::ProtocolViolation(
            "destination visible but unreachable".into(),
        )),
    })
}

/// `ceil(n / d)` as `u32` — the usual form of the paper's thresholds.
pub(crate) fn ceil_div(n: usize, d: usize) -> u32 {
    n.div_ceil(d) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_matches_paper_thresholds() {
        assert_eq!(ceil_div(16, 4), 4);
        assert_eq!(ceil_div(17, 4), 5);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(10, 3), 4);
    }

    #[test]
    fn reference_router_is_a_router() {
        fn assert_router<R: LocalRouter>(_: &R) {}
        let alg = crate::Alg3;
        assert_router(&alg);
        assert_router(&&alg);
    }
}
