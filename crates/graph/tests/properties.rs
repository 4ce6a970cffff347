//! Property-based tests for the graph substrate, driven by the in-repo
//! deterministic PRNG: each test replays the same randomized case list
//! on every run.

use locality_graph::rng::DetRng;
use locality_graph::{cycles, generators, neighborhood, permute, traversal, NodeId};

const CASES: usize = 64;

/// Prüfer decoding always yields a tree.
#[test]
fn random_tree_is_tree() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0001);
    for _ in 0..CASES {
        let n = rng.gen_range(1..40usize);
        let g = generators::random_tree(n, &mut rng);
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), n.saturating_sub(1));
        assert!(traversal::is_connected(&g));
        assert!(cycles::is_acyclic(&g));
    }
}

/// `shortest_path` returns a genuine path of length `distance`.
#[test]
fn shortest_path_is_valid() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0002);
    for _ in 0..CASES {
        let n = rng.gen_range(2..25usize);
        let g = generators::random_mixed(n, &mut rng);
        let s = NodeId(rng.gen_range(0..n as u32));
        let t = NodeId(rng.gen_range(0..n as u32));
        let d = traversal::distance(&g, s, t).expect("connected");
        let p = traversal::shortest_path(&g, s, t).expect("connected");
        assert_eq!(p.len() as u32, d + 1);
        assert_eq!(*p.first().unwrap(), s);
        assert_eq!(*p.last().unwrap(), t);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        // No repeated vertices: it is a simple path.
        let mut q = p.clone();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), p.len());
    }
}

/// Views are monotone in k: `G_k(u)` is a subgraph of `G_{k+1}(u)`.
#[test]
fn neighborhood_monotone_in_k() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0003);
    for _ in 0..CASES {
        let n = rng.gen_range(2..20usize);
        let g = generators::random_mixed(n, &mut rng);
        let u = NodeId(rng.gen_range(0..n as u32));
        let k = rng.gen_range(0..6u32);
        let small = neighborhood::k_neighborhood(&g, u, k);
        let big = neighborhood::k_neighborhood(&g, u, k + 1);
        for x in small.nodes() {
            assert!(big.contains_node(x));
        }
        for (x, y) in small.edges() {
            assert!(big.has_edge(x, y));
        }
    }
}

/// Relabelling is an isomorphism: distances are preserved.
#[test]
fn relabel_preserves_distances() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0004);
    for _ in 0..CASES {
        let n = rng.gen_range(2..18usize);
        let g = generators::random_mixed(n, &mut rng);
        let h = permute::random_relabel(&g, &mut rng);
        for u in g.nodes() {
            let dg = traversal::bfs_distances(&g, u, None);
            let dh = traversal::bfs_distances(&h, u, None);
            assert_eq!(dg, dh);
        }
    }
}

/// Girth and cycle rank agree about acyclicity, and the girth never
/// exceeds the number of nodes.
#[test]
fn girth_consistent_with_cycle_rank() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0005);
    for _ in 0..CASES {
        let n = rng.gen_range(3..16usize);
        let g = generators::random_mixed(n, &mut rng);
        let girth = cycles::girth(&g);
        assert_eq!(girth.is_none(), cycles::cycle_rank(&g) == 0);
        if let Some(girth) = girth {
            assert!(girth >= 3);
            assert!(girth as usize <= n);
        }
    }
}

/// A cycle through `u` exists iff `u` lies on some cycle, and its
/// length is at least the global girth.
#[test]
fn cycle_through_bounds() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0006);
    for _ in 0..CASES {
        let n = rng.gen_range(3..14usize);
        let g = generators::random_mixed(n, &mut rng);
        let girth = cycles::girth(&g);
        for u in g.nodes() {
            if let Some(len) = cycles::shortest_cycle_through(&g, u) {
                assert!(len >= girth.unwrap());
            }
        }
        // Some node lies on a shortest cycle.
        if let Some(girth) = girth {
            let hit = g
                .nodes()
                .any(|u| cycles::shortest_cycle_through(&g, u) == Some(girth));
            assert!(hit);
        }
    }
}

/// Serialisation round-trips.
#[test]
fn io_round_trip() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0007);
    for _ in 0..CASES {
        let n = rng.gen_range(1..18usize);
        let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
        let text = locality_graph::io::to_string(&g);
        let h = locality_graph::io::from_str(&text).expect("round trip");
        assert_eq!(g, h);
    }
}

/// Sum of degrees is twice the edge count (handshake lemma).
#[test]
fn handshake() {
    let mut rng = DetRng::seed_from_u64(0x7e57_0008);
    for _ in 0..CASES {
        let n = rng.gen_range(1..20usize);
        let g = generators::random_mixed(n, &mut rng);
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        assert_eq!(sum, 2 * g.edge_count());
    }
}
