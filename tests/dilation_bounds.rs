//! Table 2 end-to-end: the dilation guarantees of Theorems 5–8 hold on
//! random suites, the tight instances realise the paper's exact values,
//! and Theorem 4's lower bound is met on the path family.

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter};
use locality_adversary::{thm4, tight};
use locality_integration::{random_suite, worst_dilation};

#[test]
fn upper_bounds_hold_on_random_suite() {
    for g in random_suite(0xd11a, 50, 4..22) {
        let n = g.node_count();
        let d1 = worst_dilation(&Alg1, &g, Alg1.min_locality(n));
        assert!(d1 <= 7.0 + 1e-9, "Alg1 dilation {d1} on {g:?}");
        let d1b = worst_dilation(&Alg1B, &g, Alg1B.min_locality(n));
        assert!(d1b <= 6.0 + 1e-9, "Alg1B dilation {d1b} on {g:?}");
        let d2 = worst_dilation(&Alg2, &g, Alg2.min_locality(n));
        assert!(d2 < 3.0, "Alg2 dilation {d2} on {g:?}");
        let d3 = worst_dilation(&Alg3, &g, Alg3.min_locality(n));
        assert!((d3 - 1.0).abs() < 1e-9, "Alg3 dilation {d3} on {g:?}");
    }
}

#[test]
fn fig13_realises_lemma8_exactly() {
    for n in [16usize, 32, 64, 128] {
        let inst = tight::fig13(n);
        let (hops, d) = inst.measure(&Alg1);
        assert_eq!(hops, 2 * n - n / 4 - 3);
        assert!((d - (7.0 - 96.0 / (n as f64 + 12.0))).abs() < 1e-9);
    }
}

#[test]
fn fig17_realises_lemma16_exactly() {
    for n in [28usize, 40, 64, 128] {
        let inst = tight::fig17(n);
        let (hops, d) = inst.measure(&Alg1B);
        assert_eq!(hops, n + n / 2 - 6);
        assert!((d - (6.0 - 48.0 / (n as f64 + 4.0))).abs() < 1e-9);
    }
}

#[test]
fn theorem4_lower_bound_met_on_paths() {
    // Every successful algorithm pays at least (2n-3k-1)/(k+1) on some
    // labelled path; Algorithm 1 pays exactly that, Algorithm 2 at its
    // own k also meets its bound.
    for n in [24usize, 36, 48] {
        let k1 = Alg1.min_locality(n);
        let w1 = thm4::measured_worst_dilation(&Alg1, n, k1).unwrap();
        assert!((w1 - thm4::dilation_lower_bound(n, k1)).abs() < 1e-9);
        let k2 = Alg2.min_locality(n);
        let w2 = thm4::measured_worst_dilation(&Alg2, n, k2).unwrap();
        assert!(w2 + 1e-9 >= thm4::dilation_lower_bound(n, k2));
        assert!(w2 < 3.0);
    }
}

#[test]
fn alg1b_routes_never_longer_than_alg1() {
    // Lemma 14 corollary, on adversarial and random inputs.
    for n in [16usize, 32] {
        let inst = tight::fig13(n);
        let (h1, _) = inst.measure(&Alg1);
        let (h1b, _) = inst.measure(&Alg1B);
        assert!(h1b <= h1);
    }
    for g in random_suite(0x1b, 25, 4..18) {
        let n = g.node_count();
        let k = Alg1.min_locality(n);
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let r1 = engine::route(&g, k, &Alg1, s, t);
                let rb = engine::route(&g, k, &Alg1B, s, t);
                assert!(rb.hops() <= r1.hops(), "({s},{t}) on {g:?}");
            }
        }
    }
}

#[test]
fn dilation_one_when_k_covers_the_graph() {
    // With k at least the diameter every algorithm sees t immediately
    // and routes shortest.
    for g in random_suite(0xd1a2, 15, 4..14) {
        let n = g.node_count();
        let k = n as u32;
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            let d = worst_dilation(&r, &g, k);
            assert!((d - 1.0).abs() < 1e-9, "{} not shortest at k=n", r.name());
        }
    }
}
