//! View extraction against its definition, and artifact byte-identity.
//!
//! `neighborhood::k_neighborhood` builds `G_k(u)` from a radius-k ball
//! and lays the CSR out directly in slots. These tests rebuild every
//! view from the paper's definition instead — a vertex is in the view
//! iff its full-graph BFS distance is at most k, an edge iff its nearer
//! endpoint is closer than k — and compare members, CSR runs, the
//! distances a search inside the view finds, and the step table. The `.lrvo` checksums pin
//! the artifact bytes the extraction feeds, so a change in layout or
//! order anywhere on the path shows up as a changed checksum.

use local_routing::{LocalView, ViewArtifact};
use locality_graph::codec::fnv1a;
use locality_graph::rng::DetRng;
use locality_graph::{generators, neighborhood, permute, traversal};
use locality_graph::{Graph, Label, NodeId, SubgraphBuilder};

/// `G_k(u)` from the definition: members ascending by id, each member's
/// neighbour slots ascending, and distances in member order.
struct Reference {
    members: Vec<NodeId>,
    runs: Vec<Vec<u32>>,
    dists: Vec<u32>,
}

fn reference(g: &Graph, u: NodeId, k: u32) -> Reference {
    let full = traversal::bfs_distances(g, u, None);
    let members: Vec<NodeId> = full
        .iter()
        .filter(|&(_, d)| d <= k)
        .map(|(x, _)| x)
        .collect();
    let slot = |x: NodeId| members.binary_search(&x).ok().map(|s| s as u32);
    let runs = members
        .iter()
        .map(|&x| {
            let mut run: Vec<u32> = g
                .neighbors(x)
                .iter()
                .filter(|&&y| full[x].min(full.get(y).unwrap_or(u32::MAX)) < k)
                .filter_map(|&y| slot(y))
                .collect();
            run.sort_unstable();
            run
        })
        .collect();
    let dists = members.iter().map(|&x| full[x]).collect();
    Reference {
        members,
        runs,
        dists,
    }
}

/// BFS over a slot-indexed adjacency: hop counts from `from`.
fn slot_bfs(runs: &[Vec<u32>], from: usize) -> Vec<Option<u32>> {
    let mut d = vec![None; runs.len()];
    d[from] = Some(0);
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(x) = queue.pop_front() {
        let dx = d[x].expect("queued nodes are reached");
        for &y in &runs[x] {
            if d[y as usize].is_none() {
                d[y as usize] = Some(dx + 1);
                queue.push_back(y as usize);
            }
        }
    }
    d
}

/// Checks the view of `u` at radius `k` against the reference.
fn check_view(g: &Graph, u: NodeId, k: u32, what: &str) {
    let want = reference(g, u, k);
    let sub = neighborhood::k_neighborhood(g, u, k);
    assert_eq!(sub.node_slice(), &want.members[..], "{what}: members");
    let runs: Vec<Vec<u32>> = (0..sub.node_count())
        .map(|s| sub.neighbor_slots(s).to_vec())
        .collect();
    assert_eq!(runs, want.runs, "{what}: CSR runs");
    // Distances within the view are the whole graph's, cut at k.
    let (mut dists, mut order) = (Vec::new(), Vec::new());
    sub.bfs_slots(u, k, |_, _| true, &mut dists, &mut order);
    assert_eq!(dists, want.dists, "{what}: slot-ordered distances");
    assert_eq!(
        sub.edge_count() * 2,
        want.runs.iter().map(Vec::len).sum::<usize>(),
        "{what}: edge count"
    );

    // The same subgraph assembled through the builder must compare
    // equal, canonical id bound and index representation included.
    let mut b = SubgraphBuilder::new();
    for (s, run) in want.runs.iter().enumerate() {
        b.insert_node(want.members[s]);
        for &t in run {
            b.insert_edge(want.members[s], want.members[t as usize]);
        }
    }
    assert_eq!(sub, b.build(), "{what}: builder parity");

    // Step table: the lowest-label centre neighbour on a shortest path
    // inside the view, for every visible target.
    let view = LocalView::extract(g, u, k);
    let c = want.members.binary_search(&u).expect("centre is a member");
    for (t, &target) in want.members.iter().enumerate() {
        let d = slot_bfs(&want.runs, t);
        let expect = want.runs[c]
            .iter()
            .filter(|&&x| d[x as usize].is_some_and(|dx| Some(dx + 1) == d[c]))
            .map(|&x| want.members[x as usize])
            .min_by_key(|&x| g.label(x));
        assert_eq!(
            view.shortest_step_toward(target),
            expect,
            "{what}: step toward {target}"
        );
    }
}

fn check_graph(g: &Graph, what: &str) {
    let n = g.node_count() as u32;
    for k in [0, 1, 2, n / 4] {
        for u in g.nodes() {
            check_view(g, u, k, &format!("{what} u={u} k={k}"));
        }
    }
}

#[test]
fn extraction_matches_definition_on_random_graphs() {
    let mut rng = DetRng::seed_from_u64(0x51E7);
    for round in 0..6 {
        let n = rng.gen_range(6..40usize);
        let g = generators::random_connected(n, n / 2, &mut rng);
        check_graph(&g, &format!("random#{round}"));
        let g = generators::random_mixed(n, &mut rng);
        check_graph(&g, &format!("mixed#{round}"));
    }
}

#[test]
fn extraction_matches_definition_on_permuted_graphs() {
    // Shuffled ids move every view's members across slots; shuffled
    // labels change which tie the step table breaks toward.
    let mut rng = DetRng::seed_from_u64(0xBE27);
    for round in 0..6 {
        let base = generators::random_connected(24, 14, &mut rng);
        let (permuted, _) = permute::random_permute_nodes(&base, &mut rng);
        let relabelled = permute::random_relabel(&permuted, &mut rng);
        check_graph(&relabelled, &format!("permuted#{round}"));
    }
}

#[test]
fn extraction_matches_definition_on_ring_lattices() {
    for (n, chords) in [(20, 2), (33, 3), (64, 8)] {
        check_graph(
            &generators::ring_lattice(n, chords),
            &format!("ring({n},{chords})"),
        );
    }
}

#[test]
fn extraction_matches_definition_on_paths() {
    let g = generators::path(20);
    check_graph(&g, "path(20)");
    // A node cannot see beyond k: at k = 3, node 10 sees labels 7..=13.
    let view = LocalView::extract(&g, NodeId(10), 3);
    let seen: Vec<u32> = (0..20).filter(|&l| view.contains_label(Label(l))).collect();
    assert_eq!(seen, (7..=13).collect::<Vec<u32>>());
}

/// The bytes of two format-2 artifacts, pinned: any change in the
/// layout, or in the order extraction lays a view out, changes them.
/// Format 2 dropped format 1's per-member distance column, which read
/// 304,806 and 3,510,160 bytes here.
#[test]
fn artifact_bytes_are_pinned() {
    let ring = ViewArtifact::build(&generators::ring_lattice(2048, 8), 1);
    assert_eq!(ring.as_bytes().len(), 269_990);
    assert_eq!(fnv1a(ring.as_bytes()), 0x610d_fdd0_ae19_7392);

    let g = generators::random_connected(2048, 256, &mut DetRng::seed_from_u64(42));
    let random = ViewArtifact::build(&g, 8);
    assert_eq!(random.as_bytes().len(), 3_130_758);
    assert_eq!(fnv1a(random.as_bytes()), 0x9c10_770e_71bb_56fe);
}
