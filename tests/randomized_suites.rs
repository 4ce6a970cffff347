//! Large randomized stress suites: hundreds of random connected graphs
//! with adversarial labels, at and above the thresholds, for every
//! algorithm — the wide net that catches rule-reconstruction errors the
//! small exhaustive suites cannot (the S3 probing order was caught by
//! exactly this kind of instance).

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter, ViewStore};
use locality_graph::rng::DetRng;
use locality_graph::{generators, permute, NodeId};
use locality_integration::{assert_all_delivered, random_suite};

#[test]
fn medium_graphs_full_matrices() {
    for g in random_suite(0xaaaa, 80, 4..22) {
        let n = g.node_count();
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            assert_all_delivered(&r, &g, r.min_locality(n));
        }
    }
}

#[test]
fn larger_graphs_sampled_pairs() {
    // Bigger graphs, sampled origin-destination pairs to keep runtime
    // in check.
    let mut rng = DetRng::seed_from_u64(0xbbbb);
    for _ in 0..25 {
        let n = rng.gen_range(24..48);
        let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
        let pairs = generators::sample_pairs(n, 40, &mut rng);
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            let k = r.min_locality(n);
            let views = ViewStore::new(&g, k);
            let m = engine::delivery_matrix_with_cache(&g, &views, &r, pairs.iter().copied());
            assert!(
                m.all_delivered(),
                "{} failed on n={n}: {:?}",
                r.name(),
                m.failures.first()
            );
        }
    }
}

#[test]
fn structured_families_at_scale() {
    // The families the paper's constructions are built from, at sizes
    // the exhaustive suites cannot reach.
    let mut graphs = vec![
        generators::cycle(41),
        generators::cycle(48),
        generators::lollipop(25, 12),
        generators::lollipop(30, 5),
        generators::theta(&[5, 9, 13]),
        generators::theta(&[2, 19, 20]),
        generators::spider(3, 11),
        generators::caterpillar(12, 2),
        generators::grid(5, 7),
        generators::complete(20),
        generators::binary_tree(5),
    ];
    let originals = graphs.clone();
    for g in originals {
        graphs.push(permute::reverse_labels(&g));
    }
    for g in graphs {
        let n = g.node_count();
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            assert_all_delivered(&r, &g, r.min_locality(n));
        }
    }
}

#[test]
fn hub_heavy_graphs_stress_the_s_rules() {
    // Graphs shaped like the theorem families — a high-degree junction
    // with long limbs and cross-connections — exercised from every
    // origin. This is the shape that exposed the sequential S3 rule.
    let mut rng = DetRng::seed_from_u64(0xcccc);
    for _ in 0..15 {
        let limbs = rng.gen_range(3..5usize);
        let limb_len = rng.gen_range(3..7usize);
        let spider = generators::spider(limbs, limb_len);
        let n0 = spider.node_count();
        // Join some limb ends and hang extra tails.
        let mut b = locality_graph::GraphBuilder::new();
        for x in spider.nodes() {
            b.add_node(spider.label(x)).unwrap();
        }
        for (x, y) in spider.edges() {
            b.add_edge(x, y).unwrap();
        }
        let end = |j: usize| NodeId((1 + j * limb_len + (limb_len - 1)) as u32);
        if limbs >= 2 && rng.gen_bool(0.7) {
            let _ = b.add_edge(end(0), end(1));
        }
        let mut next = n0 as u32;
        for j in 2..limbs {
            if rng.gen_bool(0.5) {
                let extra = b.add_node(locality_graph::Label(next)).unwrap();
                next += 1;
                b.add_edge(end(j), extra).unwrap();
            }
        }
        let g = permute::random_relabel(&b.build(), &mut rng);
        let n = g.node_count();
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2] {
            assert_all_delivered(&r, &g, r.min_locality(n));
        }
    }
}

#[test]
fn dense_graphs_trivially_fast() {
    // Dense graphs have tiny diameters: everything is Case 1 and every
    // algorithm routes shortest.
    let mut rng = DetRng::seed_from_u64(0xdddd);
    for _ in 0..10 {
        let n = rng.gen_range(6..16);
        let g = generators::random_connected(n, n * (n - 1) / 4, &mut rng);
        for r in [&Alg1 as &dyn LocalRouter, &Alg2, &Alg3] {
            let k = r.min_locality(n);
            let m = engine::delivery_matrix(&g, k, &r);
            assert!(m.all_delivered());
        }
    }
}

#[test]
#[ignore = "large-n validation (n = 100, threaded); run with --ignored"]
fn hundred_node_graphs_at_threshold() {
    let mut rng = DetRng::seed_from_u64(0xeeee);
    for _ in 0..3 {
        let g = permute::random_relabel(&generators::random_mixed(100, &mut rng), &mut rng);
        for r in [
            &Alg1 as &(dyn LocalRouter + Sync),
            &Alg2 as &(dyn LocalRouter + Sync),
            &Alg3 as &(dyn LocalRouter + Sync),
        ] {
            let k = r.min_locality(100);
            let m = engine::delivery_matrix_parallel(&g, k, &r, 8);
            assert!(
                m.all_delivered(),
                "{} failed at n=100: {:?}",
                r.name(),
                m.failures.first()
            );
        }
    }
}
