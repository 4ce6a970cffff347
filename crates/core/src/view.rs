//! The locality-enforcing view handed to routers.

use std::fmt;
use std::fmt::Write as _;
use std::sync::OnceLock;

use locality_graph::components::ComponentAnalysis;
use locality_graph::dist::UNREACHED;
use locality_graph::{neighborhood, Graph, Label, NodeId, Subgraph};

use crate::preprocess::{self, EdgeKey, Preprocessed};

/// Everything a node `u` may legally know: its k-neighbourhood
/// `G_k(u)` with labels, plus lazily computed derived structure
/// (component analysis and the preprocessed routing subgraph `G'_k(u)`).
///
/// A `LocalView` owns its data and has no back-reference to the parent
/// graph, so a router holding one *cannot* observe anything beyond `k`
/// hops — locality is a type-level guarantee, not a convention.
///
/// Internally the view is flat and sized by what it can see, never by
/// the parent graph: labels and centre distances are exact-size blocks
/// aligned with the raw subgraph's slot order, beside the subgraph's
/// own two blocks, so an extracted view keeps four heap blocks and a
/// 112-byte struct. The derived structure sits behind one boxed cache
/// that is allocated on first use: the label→node lookup (a sorted
/// table searched by binary search), the [`RoutingView`], Algorithm
/// 1B's shelter pivots and the raw component analysis. Routers that
/// never ask for them, like the ring baselines, and views that are
/// only decoded and stored pay one empty 16-byte cell. The first-step table stays outside that box, because
/// every view decoded from an artifact arrives with it. No per-query
/// allocation or tree traversal happens on the hot path, and the
/// derived structure and the work that builds it index member slots
/// only, never node ids.
pub struct LocalView {
    center: NodeId,
    k: u32,
    raw: Subgraph,
    /// `labels[raw.slot_of(x)]` is the label of visible node `x`.
    labels: Box<[Label]>,
    /// `dists[raw.slot_of(x)]` is the distance from the centre to `x`;
    /// every member of `G_k(u)` is reached, so the table is total.
    dists: Box<[u32]>,
    /// All-targets memo for [`shortest_step_toward`](Self::shortest_step_toward),
    /// indexed by the target's raw slot and packed as the step's slot
    /// plus one (`0` = no step) — the artifact wire encoding, so
    /// decoded payloads seed it verbatim. Built by a single BFS on
    /// first use (see [`step_table`](Self::step_table)).
    steps: OnceLock<Box<[u32]>>,
    /// The caches many routers never ask for, boxed together so that
    /// while they are empty they cost one pointer and a once-flag.
    derived: OnceLock<Box<Derived>>,
}

/// The lazily filled structure of a [`LocalView`], each part built on
/// its first query.
#[derive(Default)]
struct Derived {
    /// `(label, node)` sorted by label; binary-searched by
    /// [`LocalView::node_by_label`]. Cold provisioning (BFS and
    /// artifact paths alike) never asks for it.
    by_label: OnceLock<Box<[(Label, NodeId)]>>,
    routing: OnceLock<RoutingView>,
    /// Algorithm 1B's shelter pivots, slot-aligned with the routing
    /// view's subgraph (see [`RoutingView::shelter_table`]). Only a
    /// refined-U2 hop asks for it, so preprocessing never builds it.
    shelter: OnceLock<Box<[u32]>>,
    raw_analysis: OnceLock<ComponentAnalysis>,
}

/// The preprocessed routing structure `G'_k(u)` (§5.1) with its
/// component analysis.
#[derive(Clone, Debug)]
pub struct RoutingView {
    /// Edges of `G_k(u)` classified dormant at the centre.
    pub dormant: std::collections::BTreeSet<EdgeKey>,
    /// The routing subgraph `G'_k(u)`.
    pub sub: Subgraph,
    /// Local-component decomposition of `G'_k(u)`; its distances are
    /// the paper's `dist'`, read through [`dist`](Self::dist).
    pub analysis: ComponentAnalysis,
    /// The centre's active neighbours ordered by label, read through
    /// [`active`](Self::active).
    active: Box<[NodeId]>,
}

impl RoutingView {
    /// Distance from the centre to `x` within `G'_k(u)` (the paper's
    /// `dist'`), if `x` is a member.
    pub fn dist(&self, x: NodeId) -> Option<u32> {
        let d = *self.analysis.dist.get(self.sub.slot_of(x)?)?;
        (d != UNREACHED).then_some(d)
    }

    /// The centre's active neighbours in `G'_k(u)` in ascending label
    /// order: the paper's `a, b, c`. Sorted once, when the routing view
    /// is built, so a routing decision reads them without allocating.
    pub(crate) fn active(&self) -> &[NodeId] {
        &self.active
    }

    /// Algorithm 1B's shelter pivots (rules U2d and U2e), one entry per
    /// slot of [`sub`](Self::sub): the slot of the pivot plus one, or
    /// `0` where there is none.
    ///
    /// The pivot of a member `s` of a component `C` is the first
    /// constraint vertex `e` of `C`, in id order and other than `s`,
    /// whose removal cuts `s` off from both the centre and every
    /// depth-k vertex of `C`. Reachability in the undirected `G'_k(u)`
    /// is symmetric, so one multi-source search per `e` answers for
    /// every member at once: with `e` removed, the members it leaves
    /// unreached are the ones `e` shelters. A path from `s` reaches the
    /// centre through one of `C`'s roots, so the search starts from
    /// the roots in the centre's place, and from `C`'s depth-k
    /// vertices, and never leaves `C`. The table costs one pass over
    /// `C` per constraint vertex, once per view; a hop that needs a
    /// pivot then reads one entry.
    fn shelter_table(&self, center: NodeId) -> Box<[u32]> {
        let sub = &self.sub;
        let slots = |nodes: &[NodeId]| -> Vec<u32> {
            nodes
                .iter()
                .filter_map(|&x| sub.slot_of(x).map(|x| x as u32))
                .collect()
        };
        let mut pivot = vec![0u32; sub.node_count()];
        // `mark[x] == pass`: the current pass reached slot `x`, or
        // removed it (the centre and `e`).
        let mut mark = vec![0u32; sub.node_count()];
        let mut queue: Vec<u32> = Vec::new();
        let mut pass = 0u32;
        for comp in &self.analysis.components {
            if comp.constraint_vertices.is_empty() {
                continue;
            }
            let members = slots(&comp.nodes);
            let sources = [slots(&comp.roots), slots(&comp.depth_k_nodes)].concat();
            for e in slots(&comp.constraint_vertices) {
                pass += 1;
                for x in sub.slot_of(center).into_iter().chain([e as usize]) {
                    if let Some(m) = mark.get_mut(x) {
                        *m = pass;
                    }
                }
                queue.clear();
                queue.extend(&sources);
                let mut head = 0;
                while let Some(&x) = queue.get(head) {
                    head += 1;
                    let fresh = mark.get_mut(x as usize).filter(|m| **m != pass);
                    let Some(m) = fresh else { continue };
                    *m = pass;
                    queue.extend(sub.neighbor_slots(x as usize));
                }
                for &x in &members {
                    if mark.get(x as usize) == Some(&pass) {
                        continue;
                    }
                    if let Some(p) = pivot.get_mut(x as usize).filter(|p| **p == 0) {
                        *p = e + 1;
                    }
                }
            }
        }
        pivot.into_boxed_slice()
    }
}

impl LocalView {
    /// Extracts `G_k(u)` (with labels) from `graph`. Allocates the
    /// view's four blocks, each once at its final size, and nothing
    /// else once the thread has extracted a view before.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of `graph`.
    pub fn extract(graph: &Graph, u: NodeId, k: u32) -> LocalView {
        let (raw, dists) = neighborhood::k_neighborhood_with_distances(graph, u, k);
        let labels = raw.node_slice().iter().map(|&x| graph.label(x)).collect();
        LocalView {
            center: u,
            k,
            raw,
            labels,
            // One distance per member: the Vec is full, so boxing it
            // keeps the allocation as it is.
            dists: dists.into_boxed_slice(),
            steps: OnceLock::new(),
            derived: OnceLock::new(),
        }
    }

    /// Reassembles a view from decoded artifact parts (the oracle's
    /// load path). `steps` is the precomputed min-label first-step
    /// table in raw slot order; it seeds the [`step_table`] memo so a
    /// decoded view never re-runs that BFS. The caller
    /// ([`crate::oracle`]) has validated that the parts are mutually
    /// consistent — slot-aligned `labels` and `dists` covering
    /// exactly the members — before constructing.
    ///
    /// [`step_table`]: Self::step_table
    pub(crate) fn from_parts(
        center: NodeId,
        k: u32,
        raw: Subgraph,
        dists: Box<[u32]>,
        labels: Box<[Label]>,
        steps: Box<[u32]>,
    ) -> LocalView {
        LocalView {
            center,
            k,
            raw,
            labels,
            dists,
            steps: OnceLock::from(steps),
            derived: OnceLock::new(),
        }
    }

    /// The centre node `u`.
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The locality parameter `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The centre's label.
    #[inline]
    pub fn center_label(&self) -> Label {
        self.label(self.center)
    }

    /// The raw neighbourhood `G_k(u)`.
    #[inline]
    pub fn raw(&self) -> &Subgraph {
        &self.raw
    }

    /// Number of nodes visible.
    pub fn node_count(&self) -> usize {
        self.raw.node_count()
    }

    /// The slot-aligned label table: `labels()[raw().slot_of(x)]` is the
    /// label of `x`. Shared with [`preprocess`](crate::preprocess).
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Label of a visible node.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the view.
    pub fn label(&self, x: NodeId) -> Label {
        let slot = self
            .raw
            .slot_of(x)
            .unwrap_or_else(|| panic!("node {x} not in view"));
        self.labels[slot]
    }

    /// The derived-structure cache, allocated on first use.
    fn derived(&self) -> &Derived {
        self.derived.get_or_init(Box::default)
    }

    /// The label-sorted lookup table, built on first use.
    fn by_label(&self) -> &[(Label, NodeId)] {
        self.derived().by_label.get_or_init(|| {
            let mut v: Box<[(Label, NodeId)]> = self
                .raw
                .node_slice()
                .iter()
                .zip(&self.labels)
                .map(|(&x, &l)| (l, x))
                .collect();
            v.sort_unstable();
            v
        })
    }

    /// Finds a visible node by label.
    pub fn node_by_label(&self, l: Label) -> Option<NodeId> {
        let table = self.by_label();
        table
            .binary_search_by_key(&l, |&(lbl, _)| lbl)
            .ok()
            .and_then(|i| table.get(i))
            .map(|&(_, x)| x)
    }

    /// Whether any visible node carries label `l`.
    pub fn contains_label(&self, l: Label) -> bool {
        self.node_by_label(l).is_some()
    }

    /// Distance from the centre within the view, if `x` is visible.
    pub fn dist_from_center(&self, x: NodeId) -> Option<u32> {
        let slot = self.raw.slot_of(x)?;
        self.dists.get(slot).copied()
    }

    /// Neighbours of the centre in `G_k(u)`, sorted by node id.
    pub fn center_neighbors(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.raw.neighbors(self.center)
    }

    /// Labels of the centre's neighbours, in
    /// [`center_neighbors`](Self::center_neighbors) order. The centre's
    /// CSR run holds member slots, and the label table is slot-aligned,
    /// so each label is one load: one search finds the centre's slot,
    /// and no neighbour is looked up by id.
    pub fn center_neighbor_labels(&self) -> impl ExactSizeIterator<Item = Label> + '_ {
        let run: &[u32] = match self.raw.slot_of(self.center) {
            Some(s) => self.raw.neighbor_slots(s),
            None => &[],
        };
        run.iter().map(move |&t| self.labels[t as usize])
    }

    /// The neighbour of the centre of **lowest label** lying on a
    /// shortest path (within the view) from the centre to `target`.
    /// `None` if `target` is the centre or unreachable in the view.
    ///
    /// The answer is a pure function of the (immutable) view, so the
    /// whole table is memoized: the first query runs one BFS that
    /// answers for *every* target at once, every later query — for any
    /// target — is an array load. Routers query fresh (view, target)
    /// pairs on nearly every hop, so a per-target cache would miss
    /// constantly and re-run a full BFS per hop; amortizing all targets
    /// into one traversal is what makes this call cheap.
    pub fn shortest_step_toward(&self, target: NodeId) -> Option<NodeId> {
        let slot = self.raw.slot_of(target)?;
        match self.step_table().get(slot) {
            Some(&s) if s != 0 => Some(self.raw.id_of(s as usize - 1)),
            _ => None,
        }
    }

    /// Slot-indexed table of lowest-label shortest first steps, for
    /// every target simultaneously, from a single BFS out of the
    /// centre.
    ///
    /// Correctness: the first steps toward `t` are exactly the
    /// centre-neighbours `x` with `dist(x, t) = dist(c, t) - 1`
    /// (what [`traversal::shortest_path_steps`] computes). For `t` at
    /// BFS depth `d ≥ 2`, a shortest `c → x → ⋯ → t` path passes
    /// through some neighbour `p` of `t` at depth `d - 1`, and
    /// conversely any first step toward such a `p` extends to `t`; so
    /// `steps(t) = ⋃ steps(p)` over `t`'s depth-`(d-1)` neighbours,
    /// and the lowest label distributes over the union. Depth-1 nodes
    /// are their own unique first step. Processing the queue in BFS
    /// order finalizes every depth-`(d-1)` entry before any depth-`d`
    /// node is dequeued.
    pub(crate) fn step_table(&self) -> &[u32] {
        self.steps.get_or_init(|| {
            let n = self.raw.node_count();
            let mut step: Vec<u32> = vec![0; n];
            let mut depth: Vec<u32> = vec![u32::MAX; n];
            let mut queue = std::collections::VecDeque::with_capacity(n);
            let center = self.raw.slot_of(self.center);
            if let Some(c) = center {
                depth[c] = 0;
                queue.push_back(c);
            }
            while let Some(us) = queue.pop_front() {
                let du = depth[us];
                for &w in self.raw.neighbor_slots(us) {
                    let ws = w as usize;
                    if depth[ws] == u32::MAX {
                        depth[ws] = du + 1;
                        queue.push_back(ws);
                    }
                    if depth[ws] == du + 1 {
                        // First step this edge contributes: `w` itself
                        // from the centre, else whatever reaches `u`.
                        // Entries are step slots plus one, so label
                        // comparison is two direct loads.
                        let cand = if Some(us) == center { w + 1 } else { step[us] };
                        if cand != 0 {
                            step[ws] = if step[ws] == 0 {
                                cand
                            } else {
                                let (a, b) = (step[ws] as usize - 1, cand as usize - 1);
                                if self.labels[b] < self.labels[a] {
                                    cand
                                } else {
                                    step[ws]
                                }
                            };
                        }
                    }
                }
            }
            step.into_boxed_slice()
        })
    }

    /// The preprocessed routing structure `G'_k(u)`, computed on first
    /// use and cached.
    pub fn routing_view(&self) -> &RoutingView {
        self.derived().routing.get_or_init(|| {
            let Preprocessed {
                dormant, routing, ..
            } = preprocess::preprocess(&self.raw, &self.labels, self.center, self.k);
            let analysis = ComponentAnalysis::analyze(&routing, self.center, self.k);
            let mut active = analysis.active_neighbors();
            self.sort_by_label(&mut active);
            RoutingView {
                dormant,
                sub: routing,
                analysis,
                active: active.into_boxed_slice(),
            }
        })
    }

    /// Algorithm 1B's shelter pivot of `s` (rules U2d and U2e; see
    /// [`RoutingView::shelter_table`]), if `s` is a member of
    /// `G'_k(u)` that has one. The table is built on the first call
    /// and read by every later one.
    pub(crate) fn shelter_pivot(&self, s: NodeId) -> Option<NodeId> {
        let rv = self.routing_view();
        let table = self
            .derived()
            .shelter
            .get_or_init(|| rv.shelter_table(self.center));
        let p = *table.get(rv.sub.slot_of(s)?)?;
        (p != 0).then(|| rv.sub.id_of(p as usize - 1))
    }

    /// Local-component analysis of the **raw** view `G_k(u)` (used by
    /// Algorithm 3, which skips preprocessing), cached.
    pub fn raw_analysis(&self) -> &ComponentAnalysis {
        self.derived()
            .raw_analysis
            .get_or_init(|| ComponentAnalysis::analyze(&self.raw, self.center, self.k))
    }

    /// Sorts `nodes` ascending by label — the paper's rank order on
    /// nodes.
    pub fn sort_by_label(&self, nodes: &mut [NodeId]) {
        nodes.sort_by_key(|&x| self.label(x));
    }

    /// A canonical textual fingerprint of the *labelled* view: two nodes
    /// of two different graphs with equal fingerprints are
    /// indistinguishable to any k-local algorithm. Used by tests that
    /// check decisions depend only on what the model allows.
    pub fn fingerprint(&self) -> String {
        let mut edges: Vec<(Label, Label)> = self
            .raw
            .edges()
            .map(|(a, b)| {
                let (la, lb) = (self.label(a), self.label(b));
                (la.min(lb), la.max(lb))
            })
            .collect();
        edges.sort_unstable();
        let mut isolated: Vec<Label> = self
            .raw
            .nodes()
            .filter(|&x| self.raw.degree(x) == 0)
            .map(|x| self.label(x))
            .collect();
        isolated.sort_unstable();
        let mut out = format!("k={};u={};", self.k, self.center_label());
        for (a, b) in edges {
            let _ = write!(out, "{a}-{b},");
        }
        for l in isolated {
            let _ = write!(out, "{l};");
        }
        out
    }
}

impl fmt::Debug for LocalView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LocalView(center={}, k={}, n={}, m={})",
            self.center,
            self.k,
            self.raw.node_count(),
            self.raw.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::{generators, traversal};

    #[test]
    fn view_struct_stays_small() {
        // Centre, k, the subgraph's two blocks, labels, distances, the
        // step table's cell and one pointer for every other cache.
        assert!(std::mem::size_of::<LocalView>() <= 128);
    }

    #[test]
    fn extract_and_query() {
        let g = generators::cycle(10);
        let v = LocalView::extract(&g, NodeId(0), 3);
        assert_eq!(v.center(), NodeId(0));
        assert_eq!(v.k(), 3);
        assert_eq!(v.node_count(), 7);
        assert_eq!(v.center_label(), Label(0));
        assert_eq!(v.dist_from_center(NodeId(8)), Some(2));
        assert_eq!(v.node_by_label(Label(9)), Some(NodeId(9)));
        assert!(!v.contains_label(Label(5)));
    }

    #[test]
    fn shortest_step_prefers_low_label() {
        // On an even cycle, the antipode of the view centre within the
        // view: both directions tie, lowest label wins.
        let g = generators::cycle(8);
        let v = LocalView::extract(&g, NodeId(0), 4);
        assert_eq!(v.shortest_step_toward(NodeId(4)), Some(NodeId(1)));
        assert_eq!(v.shortest_step_toward(NodeId(0)), None);
    }

    #[test]
    fn shortest_step_memo_is_stable_and_complete() {
        // The one-BFS step table must agree, target for target, with
        // the per-target reference computation it replaces — including
        // repeated queries and invisible targets.
        for seed in 0..8u64 {
            let g = generators::random_connected(
                24,
                10,
                &mut locality_graph::rng::DetRng::seed_from_u64(seed),
            );
            for &(center, k) in &[(NodeId(0), 3u32), (NodeId(7), 2), (NodeId(13), 5)] {
                let view = LocalView::extract(&g, center, k);
                for t in g.nodes() {
                    let reference = traversal::shortest_path_steps(view.raw(), center, t)
                        .into_iter()
                        .min_by_key(|&x| view.label(x));
                    assert_eq!(
                        view.shortest_step_toward(t),
                        reference,
                        "seed {seed} target {t}"
                    );
                    assert_eq!(view.shortest_step_toward(t), reference, "memo hit differs");
                }
            }
        }
    }

    #[test]
    fn routing_view_is_cached_and_consistent() {
        let g = generators::cycle(8);
        let v = LocalView::extract(&g, NodeId(0), 4);
        let rv1 = v.routing_view() as *const RoutingView;
        let rv2 = v.routing_view() as *const RoutingView;
        assert_eq!(rv1, rv2, "routing view must be computed once");
        assert_eq!(v.routing_view().dormant.len(), 1);
    }

    #[test]
    fn fingerprints_equal_for_identical_local_structure() {
        // Node 5 in a long path vs the same position in a longer path:
        // identical k-neighbourhoods => identical fingerprints.
        let g1 = generators::path(20);
        let g2 = generators::path(30);
        let v1 = LocalView::extract(&g1, NodeId(5), 3);
        let v2 = LocalView::extract(&g2, NodeId(5), 3);
        assert_eq!(v1.fingerprint(), v2.fingerprint());
        // But a different centre differs.
        let v3 = LocalView::extract(&g2, NodeId(6), 3);
        assert_ne!(v1.fingerprint(), v3.fingerprint());
    }

    #[test]
    fn raw_analysis_matches_manual() {
        let g = generators::path(9);
        let v = LocalView::extract(&g, NodeId(4), 2);
        assert_eq!(v.raw_analysis().components.len(), 2);
        assert_eq!(v.raw_analysis().active_degree(), 2);
    }

    #[test]
    fn sort_by_label_uses_labels_not_ids() {
        let g = locality_graph::permute::reverse_labels(&generators::path(5));
        let v = LocalView::extract(&g, NodeId(2), 2);
        let mut nodes = vec![NodeId(0), NodeId(4), NodeId(2)];
        v.sort_by_label(&mut nodes);
        assert_eq!(nodes, vec![NodeId(4), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn labels_are_slot_aligned_after_relabel() {
        let g = locality_graph::permute::reverse_labels(&generators::cycle(7));
        let v = LocalView::extract(&g, NodeId(3), 2);
        for &x in v.raw().node_slice() {
            assert_eq!(v.label(x), g.label(x));
            assert_eq!(v.node_by_label(g.label(x)), Some(x));
        }
    }
}
