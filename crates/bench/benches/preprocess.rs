//! Micro-benchmarks for the §5.1 preprocessing step: classifying
//! dormant edges and building `G'_k(u)` with its component analysis —
//! the one-time per-node cost paid when the topology (re)stabilises.
//!
//! `routing_view()` and `raw_analysis()` cache their result in the
//! view, so each is timed on freshly extracted views with extraction
//! off the clock. The ring lattices at k = 1 compare the same 17-node
//! views near the end of a 2048-node and a 10⁵-node ring: per-view work
//! sized by the view reads the same at both sizes.

use local_routing::LocalView;
use locality_adversary::tight;
use locality_bench::timing::{measure_fresh_ns, measure_ns, report};
use locality_graph::rng::DetRng;
use locality_graph::{generators, Graph, NodeId};

/// Views of `g` at `k`, taken round-robin over `nodes`.
fn fresh_views<'a>(g: &'a Graph, k: u32, nodes: &'a [NodeId]) -> impl FnMut() -> LocalView + 'a {
    let mut next = 0;
    move || {
        let u = nodes[next % nodes.len()];
        next += 1;
        LocalView::extract(g, u, k)
    }
}

/// Reports `routing_view()` and `raw_analysis()` separately, per view.
fn report_layers(name: &str, g: &Graph, k: u32, nodes: &[NodeId]) {
    let ns = measure_fresh_ns(256, fresh_views(g, k, nodes), |v| {
        v.routing_view().sub.edge_count()
    });
    report("preprocess", &format!("{name}/routing_view"), ns);
    let ns = measure_fresh_ns(256, fresh_views(g, k, nodes), |v| {
        v.raw_analysis().components.len()
    });
    report("preprocess", &format!("{name}/raw_analysis"), ns);
}

fn main() {
    for n in [32usize, 64, 128] {
        let k = (n / 4) as u32;
        // Cycle with chords: plenty of local cycles to break.
        let mut rng = DetRng::seed_from_u64(1);
        let chordal = generators::random_connected(n, n / 2, &mut rng);
        let ns = measure_ns(|| {
            let view = LocalView::extract(&chordal, NodeId(0), k);
            view.routing_view().sub.edge_count()
        });
        report("preprocess", &format!("chordal/{n}"), ns);
        let tree = generators::random_tree(n, &mut rng);
        let ns = measure_ns(|| {
            let view = LocalView::extract(&tree, NodeId(0), k);
            view.routing_view().sub.edge_count()
        });
        report("preprocess", &format!("tree/{n}"), ns);
    }
    // Dense worst case: the complete graph maximises local cycles.
    for n in [12usize, 16, 24] {
        let g = generators::complete(n);
        let k = (n / 4) as u32;
        let ns = measure_ns(|| {
            let view = LocalView::extract(&g, NodeId(0), k);
            view.routing_view().sub.edge_count()
        });
        report("preprocess", &format!("complete/{n}"), ns);
    }
    // The paper's tight families at k = n/4, every node in turn.
    for (name, inst) in [
        ("fig13/128", tight::fig13(128)),
        ("fig17/128", tight::fig17(128)),
    ] {
        let nodes: Vec<NodeId> = inst.graph.nodes().collect();
        report_layers(name, &inst.graph, inst.k, &nodes);
    }
    for n in [2048u32, 100_000] {
        let g = generators::ring_lattice(n as usize, 8);
        let nodes: Vec<NodeId> = (n - 1024..n - 1008).map(NodeId).collect();
        report_layers(&format!("ring_lattice{n}_k1"), &g, 1, &nodes);
    }
}
