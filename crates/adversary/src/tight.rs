//! The tight worst-case dilation instances: Fig. 13 (Algorithm 1 →
//! dilation 7, Lemma 8) and Fig. 17 (Algorithm 1B → dilation 6,
//! Lemma 16).
//!
//! ### Fig. 13 (`fig13`)
//!
//! A cycle of length `n - k - 1` containing the origin `s`, with a
//! pendant path of length `k + 1` to the destination `t` hanging two
//! hops away from `s` at node `c`. Labels are arranged so Algorithm 1
//! orbits the whole cycle (rule S2 sends it out clockwise, rule U3
//! passes it through `c`), bounces at `s`, orbits back to `c` and only
//! then descends to `t`: route `2n - k - 3` versus shortest path
//! `k + 3`, i.e. dilation `7 - 96/(n + 12)` at `k = n/4`.
//!
//! ### Fig. 17 (`fig17`)
//!
//! Our reconstruction (the figure itself is not recoverable from the
//! text; see DESIGN.md) realises the paper's exact tight values. With
//! `n = 4k`: a main cycle of length `2k + 1` through `e`, `c` and `u`
//! (with `u` adjacent to `e`); a branch of `k - 2` edges from `e` to the
//! origin `s`; a pendant of `k + 1` edges from `c` to the destination
//! `t` whose first node is `d`; and the shortcut edge `{s, d}` with
//! globally minimal rank, which the preprocessing step classifies
//! dormant (it closes a local cycle of length `k + 5`). The shortest
//! path uses the dormant edge (`k + 1` hops); Algorithm 1B climbs out of
//! the branch (rule S1/US1), circles the cycle away from `c` (US2 at
//! `e`), reverses pre-emptively at `u` (rule U2e — the first node to see
//! `s` sheltered behind the constraint vertex `e` with the reversing
//! rank orientation), retraces to `c` and descends: route `n + 2k - 6`
//! versus `k + 1`, i.e. dilation `6 - 48/(n + 4)`.

use local_routing::engine;
use local_routing::LocalRouter;
use locality_graph::{Graph, GraphBuilder, Label, NodeId};

/// A constructed tight instance.
#[derive(Clone, Debug)]
pub struct TightInstance {
    /// The graph.
    pub graph: Graph,
    /// Origin.
    pub s: NodeId,
    /// Destination.
    pub t: NodeId,
    /// The locality parameter the instance is tight for (`n / 4`).
    pub k: u32,
    /// The route length the paper predicts for the target algorithm.
    pub predicted_route: usize,
    /// The shortest-path length.
    pub shortest: u32,
}

impl TightInstance {
    /// The dilation the paper predicts.
    pub fn predicted_dilation(&self) -> f64 {
        self.predicted_route as f64 / self.shortest as f64
    }

    /// Runs `router` on the instance and returns `(route length,
    /// dilation)`; panics if the message is not delivered.
    pub fn measure<R: LocalRouter + ?Sized>(&self, router: &R) -> (usize, f64) {
        let run = engine::route(&self.graph, self.k, router, self.s, self.t);
        assert!(
            run.status.is_delivered(),
            "{} failed on tight instance: {:?}",
            router.name(),
            run.status
        );
        (run.hops(), run.dilation().expect("s != t"))
    }
}

/// Builds the Fig. 13 instance on `n` nodes (`n` divisible by 4,
/// `n >= 16`), tight for Algorithm 1 at `k = n/4`.
///
/// # Panics
///
/// Panics if `n % 4 != 0` or `n < 16`.
pub fn fig13(n: usize) -> TightInstance {
    assert!(n.is_multiple_of(4) && n >= 16, "fig13 needs n = 4k >= 16");
    let k = (n / 4) as u32;
    let cycle_len = n - k as usize - 1;
    let mut b = GraphBuilder::new();
    let mut next = 0u32;
    let mut fresh = |b: &mut GraphBuilder| {
        let id = b.add_node(Label(next)).expect("sequential labels");
        next += 1;
        id
    };
    // Cycle in clockwise label order: s(0), w1(1), c(2), w2(3), ...
    let s = fresh(&mut b);
    let w1 = fresh(&mut b);
    let c = fresh(&mut b);
    b.add_edge(s, w1).expect("simple");
    b.add_edge(w1, c).expect("simple");
    let mut prev = c;
    for _ in 0..(cycle_len - 3) {
        let x = fresh(&mut b);
        b.add_edge(prev, x).expect("simple");
        prev = x;
    }
    b.add_edge(prev, s).expect("simple");
    // Pendant of length k + 1 from c to t.
    let mut prev = c;
    let mut t = c;
    for _ in 0..(k + 1) {
        t = fresh(&mut b);
        b.add_edge(prev, t).expect("simple");
        prev = t;
    }
    let graph = b.build();
    assert_eq!(graph.node_count(), n);
    TightInstance {
        graph,
        s,
        t,
        k,
        predicted_route: 2 * n - k as usize - 3,
        shortest: k + 3,
    }
}

/// Builds the Fig. 17 instance on `n` nodes (`n` divisible by 4,
/// `n >= 28`), tight for Algorithm 1B at `k = n/4`.
///
/// # Panics
///
/// Panics if `n % 4 != 0` or `n < 28`.
pub fn fig17(n: usize) -> TightInstance {
    assert!(n.is_multiple_of(4) && n >= 28, "fig17 needs n = 4k >= 28");
    let k = n / 4;
    let mut b = GraphBuilder::new();
    let mut next = 0u32;
    let mut fresh = |b: &mut GraphBuilder| {
        let id = b.add_node(Label(next)).expect("sequential labels");
        next += 1;
        id
    };
    // Label order encodes every rank constraint:
    //   s = 0, d = 1 (so {s, d} has globally minimal rank and goes
    //   dormant), then e, x1..x4, c, y1..y_{2k-6}, u, branch a.., pendant
    //   g2..t.
    let s = fresh(&mut b);
    let d = fresh(&mut b);
    let e = fresh(&mut b);
    let mut xs = Vec::new();
    for _ in 0..4 {
        xs.push(fresh(&mut b));
    }
    let c = fresh(&mut b);
    let mut ys = Vec::new();
    for _ in 0..(2 * k - 6) {
        ys.push(fresh(&mut b));
    }
    let u = fresh(&mut b);
    // Main cycle e - x1..x4 - c - y1..y_{2k-6} - u - e (length 2k + 1).
    let mut ring = vec![e];
    ring.extend(&xs);
    ring.push(c);
    ring.extend(&ys);
    ring.push(u);
    for w in ring.windows(2) {
        b.add_edge(w[0], w[1]).expect("simple");
    }
    b.add_edge(u, e).expect("simple");
    // Branch of k - 2 edges from e to s (interior nodes a, ...).
    let mut prev = e;
    for _ in 0..(k - 3) {
        let x = fresh(&mut b);
        b.add_edge(prev, x).expect("simple");
        prev = x;
    }
    b.add_edge(prev, s).expect("simple");
    // Pendant of k + 1 edges from c to t, first node d.
    b.add_edge(c, d).expect("simple");
    let mut prev = d;
    let mut t = d;
    for _ in 0..k {
        t = fresh(&mut b);
        b.add_edge(prev, t).expect("simple");
        prev = t;
    }
    // The dormant shortcut.
    b.add_edge(s, d).expect("simple");
    let graph = b.build();
    assert_eq!(graph.node_count(), n);
    TightInstance {
        graph,
        s,
        t,
        k: k as u32,
        predicted_route: n + 2 * k - 6,
        shortest: k as u32 + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_routing::{Alg1, Alg1B};
    use locality_graph::traversal;

    #[test]
    fn fig13_structure() {
        let inst = fig13(32);
        assert_eq!(inst.k, 8);
        assert!(traversal::is_connected(&inst.graph));
        assert_eq!(
            traversal::distance(&inst.graph, inst.s, inst.t),
            Some(inst.shortest)
        );
    }

    #[test]
    fn fig13_realises_paper_route_for_alg1() {
        for n in [16usize, 32, 48] {
            let inst = fig13(n);
            let (hops, dilation) = inst.measure(&Alg1);
            assert_eq!(hops, inst.predicted_route, "n={n}");
            let paper = 7.0 - 96.0 / (n as f64 + 12.0);
            assert!(
                (dilation - paper).abs() < 1e-9,
                "n={n}: {dilation} vs {paper}"
            );
        }
    }

    #[test]
    fn fig13_dilation_approaches_seven() {
        let inst = fig13(96);
        let (_, dilation) = inst.measure(&Alg1);
        assert!(dilation > 6.1, "dilation {dilation}");
        assert!(dilation < 7.0);
    }

    #[test]
    fn alg1b_beats_alg1_on_fig13() {
        // The pre-emptive reversal rules must shorten the route here.
        let inst = fig13(32);
        let (hops1, _) = inst.measure(&Alg1);
        let (hops1b, d1b) = inst.measure(&Alg1B);
        assert!(hops1b <= hops1);
        assert!(d1b <= 6.0 + 1e-9, "Alg 1B dilation {d1b} above its bound");
    }

    #[test]
    fn fig17_structure() {
        let inst = fig17(28);
        assert_eq!(inst.k, 7);
        assert!(traversal::is_connected(&inst.graph));
        assert_eq!(
            traversal::distance(&inst.graph, inst.s, inst.t),
            Some(inst.shortest)
        );
    }

    #[test]
    fn fig17_realises_paper_route_for_alg1b() {
        for n in [28usize, 40, 64] {
            let inst = fig17(n);
            let (hops, dilation) = inst.measure(&Alg1B);
            assert_eq!(hops, inst.predicted_route, "n={n}");
            let paper = 6.0 - 48.0 / (n as f64 + 4.0);
            assert!(
                (dilation - paper).abs() < 1e-9,
                "n={n}: {dilation} vs {paper}"
            );
        }
    }

    #[test]
    fn fig17_u2e_fires_exactly_at_u() {
        // In fig17(n), node u (id 2k+2) is the unique node where the
        // refined rule U2e pre-emptively reverses: Algorithm 1B sends
        // the message back the way it came, Algorithm 1 passes through.
        use local_routing::{LocalView, Packet};
        let n = 28;
        let k = 7u32;
        let inst = fig17(n);
        let u = locality_graph::NodeId(2 * k + 2);
        let w = locality_graph::NodeId(2 * k + 1); // far-side neighbour
        let view = LocalView::extract(&inst.graph, u, k);
        let packet = Packet::new(
            inst.graph.label(inst.s),
            inst.graph.label(inst.t),
            Some(inst.graph.label(w)),
        );
        let plain = Alg1.decide(&packet, &view).unwrap();
        let refined = Alg1B.decide(&packet, &view).unwrap();
        use local_routing::LocalRouter;
        assert_eq!(plain, inst.graph.label(locality_graph::NodeId(2))); // through to e
        assert_eq!(refined, inst.graph.label(w)); // pre-emptive reversal
                                                  // Heading away from s, both agree (plain pass-through).
        let packet = Packet::new(
            inst.graph.label(inst.s),
            inst.graph.label(inst.t),
            Some(inst.graph.label(locality_graph::NodeId(2))),
        );
        assert_eq!(
            Alg1.decide(&packet, &view).unwrap(),
            Alg1B.decide(&packet, &view).unwrap()
        );
    }

    #[test]
    fn traces_reproduce_the_papers_route_narrations() {
        // Lemma 8's narration for fig13: S2 fires at s twice (initial
        // send and the bounce), U3 at c on both passes, U2 everywhere
        // else on the cycle, case-1 down the pendant.
        let inst = fig13(32);
        let traced = local_routing::engine::route(&inst.graph, inst.k, &Alg1, inst.s, inst.t);
        assert!(traced.status.is_delivered());
        assert_eq!(traced.rules.iter().filter(|r| **r == "S2").count(), 2);
        assert_eq!(traced.rules.iter().filter(|r| **r == "U3").count(), 2);
        assert!(traced.rules.contains(&"case-1"));
        assert!(!traced.rules.iter().any(|r| r.starts_with("US")));

        // Lemma 16's narration for fig17: S1 at s, US1 along the branch,
        // US2 at e, U2e exactly once (the pre-emptive reversal at u),
        // U3 at c, case-1 down to t.
        let inst = fig17(40);
        let traced = local_routing::engine::route(&inst.graph, inst.k, &Alg1B, inst.s, inst.t);
        assert!(traced.status.is_delivered());
        assert_eq!(traced.rules[0], "S1");
        assert!(traced.rules.contains(&"US1"));
        assert!(traced.rules.contains(&"US2"));
        assert_eq!(traced.rules.iter().filter(|r| **r == "U2e").count(), 1);
        assert!(traced.rules.contains(&"U3"));
        assert_eq!(*traced.rules.last().unwrap(), "case-1");
    }

    #[test]
    fn fig17_still_delivered_under_label_perturbation() {
        // Swapping the labels that drive the U2e rank comparison flips
        // which refined case applies, but delivery (and the dilation
        // bound) must survive any relabelling.
        use local_routing::LocalRouter;
        use locality_graph::{permute, Label};
        let inst = fig17(28);
        let n = inst.graph.node_count();
        // Swap the labels of x1 (id 3) and u (id 16).
        let mut labels: Vec<Label> = (0..n as u32).map(Label).collect();
        labels.swap(3, 16);
        let g = permute::relabel(&inst.graph, &labels);
        for router in [&Alg1 as &dyn LocalRouter, &Alg1B] {
            let run = local_routing::engine::route(&g, inst.k, &router, inst.s, inst.t);
            assert!(run.status.is_delivered(), "{}", router.name());
            let d = run.dilation().unwrap();
            let bound = if router.name().ends_with("1b") {
                6.0
            } else {
                7.0
            };
            assert!(d <= bound + 1e-9, "{}: {d}", router.name());
        }
    }

    #[test]
    fn fig17_dilation_approaches_six() {
        let inst = fig17(96);
        let (_, dilation) = inst.measure(&Alg1B);
        assert!(dilation > 5.5, "dilation {dilation}");
        assert!(dilation < 6.0);
    }
}
