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
/// that is allocated on first use: the label→slot lookup (a hashed
/// index of slots, probed linearly), the [`RoutingView`], Algorithm
/// 1B's shelter pivots and the raw component analysis. Routers that
/// never ask for them, like the ring baselines, and views that are
/// only decoded and stored pay one empty 16-byte cell. The first-step
/// table stays outside that box, because every view decoded from an
/// artifact arrives with it. No per-query allocation or tree traversal
/// happens on the hot path, and the derived structure and the work
/// that builds it index member slots only, never node ids.
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
    /// The label index of [`LocalView::node_by_label`] and
    /// [`LocalView::step_toward_label`]: a power of two of entries, at
    /// least twice the members, each a raw slot plus one or `0` for an
    /// empty entry. Each member sits in the first empty entry at or
    /// after the home entry of its label ([`label_home`]), wrapping, so
    /// a lookup probes from the key's home entry until it meets the
    /// entry whose slot carries the key, or an empty one. It takes 8 to
    /// 16 bytes per member. The hash is a constant, so a label set
    /// crafted to share one home entry makes a lookup probe up to every
    /// member: O(m) where a sorted table would take O(log m). A lookup
    /// never allocates and never panics. Cold provisioning (BFS and
    /// artifact paths alike) never asks for it.
    by_label: OnceLock<Box<[u32]>>,
    routing: OnceLock<RoutingView>,
    /// Algorithm 1B's shelter pivots, slot-aligned with the routing
    /// view's subgraph (see [`RoutingView::shelter_table`]). Only a
    /// refined-U2 hop asks for it, so preprocessing never builds it.
    shelter: OnceLock<Box<[u32]>>,
    raw_analysis: OnceLock<ComponentAnalysis>,
}

/// The preprocessed routing structure `G'_k(u)` (§5.1) with its
/// component analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingView {
    /// Edges of `G_k(u)` classified dormant at the centre.
    pub dormant: std::collections::BTreeSet<EdgeKey>,
    /// The routing subgraph `G'_k(u)`.
    pub sub: Subgraph,
    /// Local-component decomposition of `G'_k(u)`; its distances are
    /// the paper's `dist'`, read through [`dist`](Self::dist).
    pub analysis: ComponentAnalysis,
    /// The centre's active neighbours with their labels, ordered by
    /// label, read through [`active`](Self::active).
    active: Box<[(Label, NodeId)]>,
}

impl RoutingView {
    /// Distance from the centre to `x` within `G'_k(u)` (the paper's
    /// `dist'`), if `x` is a member.
    pub fn dist(&self, x: NodeId) -> Option<u32> {
        let d = *self.analysis.dist.get(self.sub.slot_of(x)?)?;
        (d != UNREACHED).then_some(d)
    }

    /// The centre's active neighbours in `G'_k(u)` in ascending label
    /// order, each with its label: the paper's `a, b, c`, and the ports
    /// that Algorithms 1, 1B and 2 hand to [`next_port`]. Sorted once,
    /// when the routing view is built, so a routing decision reads them
    /// without allocating.
    pub(crate) fn active(&self) -> &[(Label, NodeId)] {
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

    /// The label index ([`Derived::by_label`]), built on first use in
    /// one block of its final size.
    fn by_label(&self) -> &[u32] {
        self.derived().by_label.get_or_init(|| {
            // At most half full, so every probe run ends at an empty entry.
            let entries = (2 * self.labels.len()).next_power_of_two();
            let mask = entries - 1;
            let mut index = vec![0u32; entries].into_boxed_slice();
            for (slot, &l) in (1u32..).zip(self.labels.iter()) {
                let mut i = label_home(l, entries);
                while index.get(i).is_some_and(|&e| e != 0) {
                    i = (i + 1) & mask;
                }
                if let Some(e) = index.get_mut(i) {
                    *e = slot;
                }
            }
            index
        })
    }

    /// The raw slot of the visible node labelled `l`: one probe run of
    /// the label index, read against the slot-aligned label table.
    fn slot_by_label(&self, l: Label) -> Option<usize> {
        let index = self.by_label();
        let mask = index.len() - 1;
        let mut i = label_home(l, index.len());
        loop {
            let slot = index.get(i)?.checked_sub(1)? as usize;
            if self.labels.get(slot) == Some(&l) {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds a visible node by label.
    pub fn node_by_label(&self, l: Label) -> Option<NodeId> {
        self.slot_by_label(l).map(|slot| self.raw.id_of(slot))
    }

    /// Whether any visible node carries label `l`.
    pub fn contains_label(&self, l: Label) -> bool {
        self.slot_by_label(l).is_some()
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

    /// Case 1 of every router that follows a shortest path to a
    /// visible target: the label of the centre's neighbour of lowest
    /// label on a shortest path (within the view) toward the node
    /// labelled `target`. `None` if no visible node carries `target`;
    /// `Some(None)` if it is the centre's own label, or the node is
    /// unreachable in the view.
    ///
    /// One probe of the label index finds the target's slot, one read
    /// of the step table (`step_table`) its first step, and one
    /// read of the slot-aligned label table that step's label: no
    /// node id is looked up. The probe run is short for labels the
    /// hash spreads, but reads up to every member of the view for
    /// labels crafted to share one home entry: O(m), never a panic or
    /// an allocation.
    pub fn step_toward_label(&self, target: Label) -> Option<Option<Label>> {
        let slot = self.slot_by_label(target)?;
        let step = self.step_table().get(slot).copied().unwrap_or(0);
        Some(
            step.checked_sub(1)
                .and_then(|s| self.labels.get(s as usize).copied()),
        )
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
    /// use and cached. The component analysis reads the distances
    /// preprocessing found, so `G'_k(u)` is not searched again.
    pub fn routing_view(&self) -> &RoutingView {
        self.derived().routing.get_or_init(|| {
            let Preprocessed {
                dormant,
                routing,
                dist,
            } = preprocess::preprocess(&self.raw, &self.labels, self.center, self.k);
            let analysis = ComponentAnalysis::from_distances(&routing, self.center, self.k, dist);
            // The roots of the active components, in one block, sorted
            // once, by label.
            let mut active = Vec::with_capacity(analysis.active_degree());
            active.extend(
                analysis
                    .active_components()
                    .flat_map(|c| &c.roots)
                    .map(|&x| (self.label(x), x)),
            );
            active.sort_unstable();
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

/// Fibonacci hashing multiplier for labels, 2³² / φ rounded to odd:
/// the 32-bit member of the family [`crate::visited`] hashes with.
const LABEL_HASH: u32 = 0x9E37_79B9;

/// The home entry of label `l` in a label index of `entries` entries, a
/// power of two: the top bits of its Fibonacci hash.
#[inline]
fn label_home(l: Label, entries: usize) -> usize {
    let hash = u64::from(l.0.wrapping_mul(LABEL_HASH));
    ((hash * entries as u64) >> 32) as usize
}

/// How a forwarding rule moves on from its last port: the two schemas
/// of the S/U/US rules (see [`next_port`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schema {
    /// After the last port, the first again: rules U1–U3, Algorithm 2's
    /// U1 and U2, and the right-hand rule.
    Cyclic,
    /// After the last port, the last again: rules S1–S3 and US1–US3.
    Sequential,
}

/// The port to forward to, read in label order, after an arrival from
/// the neighbour labelled `from`: the rules past Case 1, as
/// [`LocalView::step_toward_label`] is Case 1.
///
/// A first send (`from` is `None`), or an arrival from a label that is
/// not a port, goes out the first port. An arrival from a port goes out
/// the next one. An arrival from the last port goes out the first under
/// [`Schema::Cyclic`] and back out the last under
/// [`Schema::Sequential`]. `None` if there is no port.
///
/// `ports` may come in any order; one pass over them finds the lowest
/// port and the lowest above `from`, with no sort, no allocation and no
/// lookup in the view. Algorithms 1, 1B and 2 pass the labels of the
/// centre's active neighbours in `G'_k(u)`, the baselines every
/// neighbour's ([`LocalView::center_neighbor_labels`]).
///
/// ```
/// use local_routing::{next_port, Schema};
/// use locality_graph::Label;
///
/// let ports = [Label(9), Label(2), Label(5)];
/// assert_eq!(next_port(ports, None, Schema::Cyclic), Some(Label(2)));
/// assert_eq!(next_port(ports, Some(Label(2)), Schema::Cyclic), Some(Label(5)));
/// assert_eq!(next_port(ports, Some(Label(9)), Schema::Cyclic), Some(Label(2)));
/// assert_eq!(next_port(ports, Some(Label(9)), Schema::Sequential), Some(Label(9)));
/// assert_eq!(next_port(ports, Some(Label(7)), Schema::Sequential), Some(Label(2)));
/// ```
pub fn next_port(
    ports: impl IntoIterator<Item = Label>,
    from: Option<Label>,
    schema: Schema,
) -> Option<Label> {
    let (mut first, mut after, mut from_port) = (None, None, false);
    for p in ports {
        if first.is_none_or(|f| p < f) {
            first = Some(p);
        }
        match from {
            Some(v) if p == v => from_port = true,
            Some(v) if p > v && after.is_none_or(|a| p < a) => after = Some(p),
            _ => {}
        }
    }
    match (from_port, after, schema) {
        (true, Some(next), _) => Some(next),
        (true, None, Schema::Sequential) => from,
        _ => first,
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

/// The routing view as it was built before the acyclic skip, kept as
/// the reference the tests compare [`LocalView::routing_view`] and
/// [`LocalView::raw_analysis`] with: the dormant pass on every view,
/// `G'_k(u)` re-extracted through its mask, and a component analysis
/// that searches `G'_k(u)` again and sorts each component's members.
#[cfg(test)]
pub(crate) mod reference {
    use super::RoutingView;
    use crate::preprocess::{self, Preprocessed};
    use crate::LocalView;
    use locality_graph::components::{ComponentAnalysis, LocalComponent};
    use locality_graph::dist::UNREACHED;
    use locality_graph::{Label, NodeId, Subgraph};

    /// `view.routing_view()` built the old way.
    pub(crate) fn routing_view(view: &LocalView) -> RoutingView {
        let Preprocessed {
            dormant, routing, ..
        } = preprocess::preprocess_reference(view.raw(), view.labels(), view.center(), view.k());
        let analysis = analyze(&routing, view.center(), view.k());
        // `ComponentAnalysis::active_neighbors` as it was: the roots of
        // the active components, sorted by id.
        let mut active_neighbors: Vec<NodeId> = analysis
            .active_components()
            .flat_map(|c| c.roots.iter().copied())
            .collect();
        active_neighbors.sort_unstable();
        let mut active: Box<[(Label, NodeId)]> = active_neighbors
            .into_iter()
            .map(|x| (view.label(x), x))
            .collect();
        active.sort_unstable();
        RoutingView {
            dormant,
            sub: routing,
            analysis,
            active,
        }
    }

    /// `ComponentAnalysis::analyze` as it was: one BFS, one backward
    /// pass over its order, and one flood whose members are sorted and
    /// then filtered into each list.
    pub(crate) fn analyze(view: &Subgraph, center: NodeId, k: u32) -> ComponentAnalysis {
        assert!(
            view.contains_node(center),
            "centre {center} missing from view"
        );
        let n = view.node_count();
        let (mut dist, mut order) = (Vec::new(), Vec::new());
        view.bfs_slots(center, u32::MAX, |_, _| true, &mut dist, &mut order);
        let c = view.slot_of(center).unwrap_or_default();

        // On-path vertices (see `locality_graph::components`): walking
        // the BFS order backwards visits every vertex after all its DAG
        // successors.
        let mut on_path = vec![false; n];
        for &x in order.iter().rev() {
            let x = x as usize;
            if x == c || (dist[x] != k && !on_path[x]) {
                continue;
            }
            on_path[x] = true;
            for &y in view.neighbor_slots(x) {
                if dist[y as usize] + 1 == dist[x] {
                    on_path[y as usize] = true;
                }
            }
        }

        // One flood of the view minus the centre. Scanning slots in
        // ascending order meets each component first at its smallest
        // member, so components come out sorted by their smallest id.
        // Stray members the centre cannot reach (impossible in a
        // genuine k-neighbourhood) are skipped.
        let mut seen = vec![false; n];
        let mut per_depth = vec![0u32; n];
        let mut stack = Vec::new();
        let mut components = Vec::new();
        for first in 0..n {
            if first == c || seen[first] || dist[first] == UNREACHED {
                continue;
            }
            let mut members = Vec::new();
            seen[first] = true;
            stack.push(first);
            while let Some(x) = stack.pop() {
                members.push(x);
                for &y in view.neighbor_slots(x) {
                    let y = y as usize;
                    if y != c && !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            members.sort_unstable();
            let ids = |keep: &dyn Fn(usize) -> bool| -> Vec<NodeId> {
                members
                    .iter()
                    .filter(|&&x| keep(x))
                    .map(|&x| view.id_of(x))
                    .collect()
            };
            let depth_k_nodes = ids(&|x| dist[x] == k);
            let constraint_vertices = if depth_k_nodes.is_empty() {
                Vec::new()
            } else {
                for &x in members.iter().filter(|&&x| on_path[x]) {
                    per_depth[dist[x] as usize] += 1;
                }
                let unique = ids(&|x| on_path[x] && per_depth[dist[x] as usize] == 1);
                for &x in members.iter().filter(|&&x| on_path[x]) {
                    per_depth[dist[x] as usize] = 0;
                }
                unique
            };
            components.push(LocalComponent {
                nodes: ids(&|_| true),
                // The centre's neighbours are exactly the depth-1 nodes.
                roots: ids(&|x| dist[x] == 1),
                depth_k_nodes,
                constraint_vertices,
            });
        }
        ComponentAnalysis {
            center,
            k,
            components,
            dist,
        }
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

    /// The visible node labelled `target`, found by a scan of the
    /// slot-aligned label table rather than the label index.
    fn node_by_label_scan(view: &LocalView, target: Label) -> Option<NodeId> {
        let slot = view.labels().iter().position(|&l| l == target)?;
        Some(view.raw().id_of(slot))
    }

    /// Case 1 the long way, as every router asked it before
    /// [`LocalView::step_toward_label`]: the target label to a node,
    /// the node to its step, the step to a label.
    fn step_toward_label_reference(view: &LocalView, target: Label) -> Option<Option<Label>> {
        let t = node_by_label_scan(view, target)?;
        Some(view.shortest_step_toward(t).map(|x| view.label(x)))
    }

    #[test]
    fn step_toward_label_matches_the_three_lookup_reference() {
        use locality_adversary::tight;
        use locality_graph::permute;
        use locality_graph::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(29);
        // Each graph is labelled `0..n` times a scale: `1`, or
        // `LABEL_HASH⁻¹ mod 2³²`, under which label `i · scale` hashes
        // to `i`. Then every member of every view shares home entry 0,
        // and each lookup probes through one cluster of the whole view.
        let inverse = (0..5).fold(LABEL_HASH, |x, _| {
            x.wrapping_mul(2u32.wrapping_sub(LABEL_HASH.wrapping_mul(x)))
        });
        assert_eq!(inverse.wrapping_mul(LABEL_HASH), 1);
        let mut cases: Vec<(Graph, u32, u32)> = Vec::new();
        for n in [28, 64] {
            let (f13, f17) = (tight::fig13(n), tight::fig17(n));
            cases.push((f13.graph, f13.k, 1));
            cases.push((f17.graph, f17.k, 1));
        }
        for (n, extra, k) in [(24, 10, 3u32), (40, 6, 5), (60, 30, 2)] {
            cases.push((generators::random_connected(n, extra, &mut rng), k, 1));
        }
        let f13 = tight::fig13(28);
        let scaled: Vec<Label> = f13
            .graph
            .nodes()
            .map(|x| Label(f13.graph.label(x).0.wrapping_mul(inverse)))
            .collect();
        assert!(scaled.iter().all(|&l| label_home(l, 1 << 20) == 0));
        cases.push((permute::relabel(&f13.graph, &scaled), f13.k, inverse));
        let (mut steps, mut silent) = (0usize, 0usize);
        for (g, k, scale) in &cases {
            // Node ids permuted two ways: labels and ids part.
            for seed in [1u64, 2] {
                let (pg, _) = permute::random_permute_nodes(g, &mut DetRng::seed_from_u64(seed));
                let top = pg.node_count() as u32 - 1;
                for u in pg.nodes() {
                    let view = LocalView::extract(&pg, u, *k);
                    // Every label the view holds, the centre's own, and
                    // labels no node carries.
                    for l in (0..=top + 2).map(|i| Label(i.wrapping_mul(*scale))) {
                        let node = node_by_label_scan(&view, l);
                        assert_eq!(view.node_by_label(l), node, "view at {u}, label {l}");
                        assert_eq!(view.contains_label(l), node.is_some());
                        let got = view.step_toward_label(l);
                        assert_eq!(
                            got,
                            step_toward_label_reference(&view, l),
                            "view at {u} (k = {k}), target {l}"
                        );
                        match got {
                            Some(Some(_)) => steps += 1,
                            _ => silent += 1,
                        }
                    }
                }
            }
        }
        assert!(steps > 0 && silent > 0, "{steps} steps, {silent} others");
    }

    /// The forwarding rules as they were before [`next_port`], kept
    /// verbatim: Algorithm 1's five rule helpers and its decision with
    /// plain U2, Algorithm 2's match, and the right-hand rule's
    /// sorted-position read. Each finds the predecessor as a node.
    mod rules_reference {
        use crate::error::RoutingError;
        use crate::model::Packet;
        use crate::view::LocalView;
        use locality_graph::components::LocalComponent;
        use locality_graph::{Label, NodeId};

        /// Next element after `v` in the label-cyclic order of `active`.
        fn cyclic_next(active: &[NodeId], v: NodeId) -> Option<NodeId> {
            let i = active.iter().position(|&x| x == v)?;
            Some(active[(i + 1) % active.len()])
        }

        /// Case 2 (rules S1–S3): the message is at the origin. Sequential port
        /// probing: a return from port `j` advances to port `j + 1`; a return
        /// from the last port reverses back into it.
        fn s_rules(active: &[NodeId], v: Option<NodeId>) -> NodeId {
            match v {
                // First send: lowest-rank active neighbour.
                None => active[0],
                Some(v) => sequential_next(active, v),
            }
        }

        /// A return from port `j` advances to port `j + 1`; a return from the
        /// last port (or from a passive neighbour, which cannot occur in a
        /// well-formed run) picks the last (resp. first) port.
        fn sequential_next(active: &[NodeId], v: NodeId) -> NodeId {
            match active.iter().position(|&x| x == v) {
                Some(i) if i + 1 < active.len() => active[i + 1],
                Some(_) => *active.last().expect("active is nonempty"),
                None => active[0],
            }
        }

        /// Case 3 (rules U1–U3): s not in a passive component of u.
        fn u_rules(active: &[NodeId], v: Option<NodeId>) -> NodeId {
            match v {
                None => active[0],
                Some(v) => match active.len() {
                    1 => active[0],
                    2 => {
                        // U2: pass straight through.
                        if v == active[0] {
                            active[1]
                        } else {
                            // A return from the second port — or from a passive
                            // neighbour — goes back out the first.
                            active[0]
                        }
                    }
                    _ => cyclic_next(active, v).unwrap_or(active[0]),
                },
            }
        }

        /// Case 4 (rules US1–US3): s lies in the passive component `p_comp`.
        fn us_rules(active: &[NodeId], v: Option<NodeId>, p_comp: &LocalComponent) -> NodeId {
            match v {
                None => active[0],
                Some(v) => {
                    if p_comp.roots.binary_search(&v).is_ok() {
                        // Arrival from the passive component sheltering s:
                        // lowest-rank active neighbour.
                        return active[0];
                    }
                    // US1–US3 follow the same sequential schema as S1–S3.
                    sequential_next(active, v)
                }
            }
        }

        /// The active neighbours as nodes, in label order.
        fn active(view: &LocalView) -> Vec<NodeId> {
            view.routing_view()
                .active()
                .iter()
                .map(|&(_, x)| x)
                .collect()
        }

        /// Algorithm 1 past Case 1, with plain U2.
        pub fn alg1(
            packet: &Packet,
            view: &LocalView,
        ) -> Result<(Label, &'static str), RoutingError> {
            let origin = packet.origin.ok_or(RoutingError::MissingOrigin)?;
            let rv = view.routing_view();
            let active = &active(view)[..];
            if active.is_empty() {
                return Err(RoutingError::NoActiveComponent);
            }
            if active.len() > 3 {
                return Err(RoutingError::TooManyActiveComponents {
                    found: active.len(),
                    max: 3,
                });
            }

            let v = packet
                .predecessor
                .and_then(|l| view.node_by_label(l))
                .filter(|p| view.raw().has_edge(view.center(), *p));

            // Case 2: u = s.
            if view.center_label() == origin {
                let rule = ["S1", "S2", "S3"][active.len() - 1];
                return Ok((view.label(s_rules(active, v)), rule));
            }

            // Locate s within G'_k(u) to pick Case 3 vs Case 4.
            let s_node = view
                .node_by_label(origin)
                .filter(|x| rv.sub.contains_node(*x));
            let s_passive_comp = s_node.and_then(|x| {
                rv.analysis
                    .component_of(x)
                    .and_then(|i| rv.analysis.components.get(i))
                    .filter(|c| !c.is_active())
            });

            let (next, rule) = match s_passive_comp {
                // Case 4: s lies in a passive component of u.
                Some(comp) => (
                    us_rules(active, v, comp),
                    ["US1", "US2", "US3"][active.len() - 1],
                ),
                // Case 3: s not visible in G'_k(u), or in an active component.
                None => (u_rules(active, v), ["U1", "U2", "U3"][active.len() - 1]),
            };
            Ok((view.label(next), rule))
        }

        /// Algorithm 2 past Case 1.
        pub fn alg2(
            packet: &Packet,
            view: &LocalView,
        ) -> Result<(Label, &'static str), RoutingError> {
            let active = &active(view)[..];
            if active.is_empty() {
                return Err(RoutingError::NoActiveComponent);
            }
            if active.len() > 2 {
                return Err(RoutingError::TooManyActiveComponents {
                    found: active.len(),
                    max: 2,
                });
            }

            let v = packet
                .predecessor
                .and_then(|l| view.node_by_label(l))
                .filter(|p| view.raw().has_edge(view.center(), *p));

            let (next, rule) = match v {
                // Case 2: first send from the origin — any active edge. A
                // predecessor that is not adjacent (the message crossed a
                // link that has since died) counts as none.
                None => (active[0], "case-2"),
                Some(v) => match active.len() {
                    // Rule U1: reverse.
                    1 => (active[0], "U1"),
                    // Rule U2: pass through; arrivals from passive
                    // components take any active edge.
                    _ => {
                        if v == active[0] {
                            (active[1], "U2")
                        } else {
                            // From the second port or a passive neighbour:
                            // out the first.
                            (active[0], "U2")
                        }
                    }
                },
            };
            Ok((view.label(next), rule))
        }

        /// The right-hand rule past Case 1.
        pub fn right_hand_rule(packet: &Packet, view: &LocalView) -> Result<Label, RoutingError> {
            let mut nbrs: Vec<NodeId> = view.center_neighbors().collect();
            if nbrs.is_empty() {
                return Err(RoutingError::Unroutable(packet.target));
            }
            view.sort_by_label(&mut nbrs);
            let v = packet
                .predecessor
                .and_then(|l| view.node_by_label(l))
                .and_then(|p| nbrs.iter().position(|&x| x == p));
            let next = match v {
                None => nbrs[0],
                Some(i) => nbrs[(i + 1) % nbrs.len()],
            };
            Ok(view.label(next))
        }
    }

    #[test]
    fn next_port_decides_as_the_rules_it_replaced() {
        use crate::baselines::RightHandRule;
        use crate::model::Packet;
        use crate::traits::LocalRouter;
        use crate::{Alg1, Alg2};
        use locality_graph::permute;
        use locality_graph::rng::DetRng;

        // At k = 2 the centre 0 has `active` legs of four nodes, each an
        // active component, and one passive leaf. Relabelling parts label
        // order from id order.
        let k = 2;
        let mut rng = DetRng::seed_from_u64(5);
        let mut fired = std::collections::BTreeSet::new();
        for active in 1..=3u32 {
            let leaf = 1 + 4 * active;
            let mut edges = vec![(0, leaf)];
            for leg in 0..active {
                let base = 1 + 4 * leg;
                edges.extend([
                    (0, base),
                    (base, base + 1),
                    (base + 1, base + 2),
                    (base + 2, base + 3),
                ]);
            }
            let plain = Graph::from_edges(leaf as usize + 1, &edges).expect("a spider");
            for g in [
                plain.clone(),
                permute::random_relabel(&plain, &mut rng),
                permute::random_relabel(&plain, &mut rng),
            ] {
                let view = LocalView::extract(&g, NodeId(0), k);
                assert_eq!(view.routing_view().active().len(), active as usize);
                let label = |x: u32| g.label(NodeId(x));
                let absent = Label(1000);
                // Arrivals: none, each port, the passive leaf, a visible
                // non-neighbour and a label no node carries.
                let arrivals = [None, Some(label(leaf)), Some(label(2)), Some(absent)]
                    .into_iter()
                    .chain((0..active).map(|leg| Some(label(1 + 4 * leg))));
                // Origins: the centre (S), the passive leaf (US), a node
                // of an active component and one out of view (U).
                let origins = [label(0), label(leaf), label(1), label(4), absent];
                for from in arrivals {
                    for origin in origins {
                        let packet = Packet {
                            origin: Some(origin),
                            target: Label(1001),
                            predecessor: from,
                        };
                        let want = rules_reference::alg1(&packet, &view);
                        assert_eq!(
                            Alg1.decide_explained(&packet, &view),
                            want,
                            "algorithm 1: {packet:?}, {active} active"
                        );
                        if let Ok((_, rule)) = want {
                            fired.insert(rule);
                        }
                    }
                    let packet = Packet {
                        origin: None,
                        target: Label(1001),
                        predecessor: from,
                    };
                    let want = rules_reference::alg2(&packet, &view);
                    assert_eq!(
                        Alg2.decide_explained(&packet, &view),
                        want,
                        "algorithm 2: {packet:?}, {active} active"
                    );
                    if let Ok((_, rule)) = want {
                        fired.insert(rule);
                    }
                    assert_eq!(
                        RightHandRule.decide(&packet, &view),
                        rules_reference::right_hand_rule(&packet, &view),
                        "right-hand rule: {packet:?}"
                    );
                }
            }
        }
        let want = [
            "S1", "S2", "S3", "U1", "U2", "U3", "US1", "US2", "US3", "case-2",
        ];
        assert!(want.iter().all(|r| fired.contains(r)), "fired {fired:?}");
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

    /// Checks every view of `g` at `k`, with node ids permuted under two
    /// seeds, against the [`reference`] pipeline, field by field, and
    /// its raw analysis against the reference analysis of the raw view.
    /// Returns how many views were trees (which skip the dormant pass),
    /// cyclic with nothing dormant, and with dormant edges (both of
    /// which run the pass and the masked rebuild).
    fn assert_matches_reference(g: &Graph, k: u32, what: &str) -> [usize; 3] {
        use locality_graph::permute;
        use locality_graph::rng::DetRng;
        let mut arms = [0; 3];
        for seed in [1u64, 2] {
            let (pg, _) = permute::random_permute_nodes(g, &mut DetRng::seed_from_u64(seed));
            for u in pg.nodes() {
                let view = LocalView::extract(&pg, u, k);
                let ctx = format!("{what}, seed {seed}, centre {u}, k = {k}");
                let (got, want) = (view.routing_view(), reference::routing_view(&view));
                assert_eq!(got.dormant, want.dormant, "{ctx}: dormant edges");
                assert_eq!(got.sub, want.sub, "{ctx}: G'_k(u)");
                let (a, b) = (&got.analysis, &want.analysis);
                assert_eq!(a.components.len(), b.components.len(), "{ctx}");
                for (c, d) in a.components.iter().zip(&b.components) {
                    assert_eq!(c.nodes, d.nodes, "{ctx}: component nodes");
                    assert_eq!(c.roots, d.roots, "{ctx}: roots");
                    assert_eq!(c.depth_k_nodes, d.depth_k_nodes, "{ctx}: depth-k nodes");
                    assert_eq!(
                        c.constraint_vertices, d.constraint_vertices,
                        "{ctx}: constraint vertices"
                    );
                }
                assert_eq!(a.dist, b.dist, "{ctx}: dist'");
                assert_eq!(got.active(), want.active(), "{ctx}: active neighbours");
                assert_eq!(got, &want, "{ctx}: routing view");
                let raw = reference::analyze(view.raw(), u, k);
                assert_eq!(view.raw_analysis(), &raw, "{ctx}: raw analysis");
                let tree = view.raw().edge_count() + 1 == view.node_count();
                arms[if tree {
                    0
                } else if want.dormant.is_empty() {
                    1
                } else {
                    2
                }] += 1;
            }
        }
        arms
    }

    #[test]
    fn routing_view_matches_the_reference_arm_by_arm() {
        use locality_adversary::tight;
        use locality_graph::permute;
        use locality_graph::rng::DetRng;

        // Trees: the tight families at k = n/4, and C_{2k+1}, whose
        // views are paths because the far edge is hidden.
        for n in [28, 64, 128] {
            for (name, inst) in [("fig13", tight::fig13(n)), ("fig17", tight::fig17(n))] {
                let arms = assert_matches_reference(&inst.graph, inst.k, &format!("{name}({n})"));
                assert!(arms[0] > 0, "{name}({n}) has no tree view: {arms:?}");
                if n == 128 {
                    // Labels travel with the nodes, so these counts hold
                    // under every permutation tight-matrix draws.
                    let trees = if name == "fig13" { 128 } else { 52 };
                    let want = [2 * trees, 0, 2 * (128 - trees)];
                    assert_eq!(arms, want, "{name}(128), both seeds");
                }
            }
        }
        for k in [1, 2, 3, 5] {
            let n = 2 * k as usize + 1;
            let arms = assert_matches_reference(&generators::cycle(n), k, "odd cycle");
            assert_eq!(arms, [2 * n, 0, 0], "C_{n} at k = {k}");
        }

        // Cyclic with nothing dormant: a cycle behind a bridge that
        // ranks below every cycle edge.
        let g = permute::reverse_labels(&generators::lollipop(6, 3));
        let arms = assert_matches_reference(&g, 4, "reversed lollipop(6, 3)");
        assert!(
            arms[1] > 0,
            "no cyclic view without dormant edges: {arms:?}"
        );

        // Dormant edges: relabelled `random_mixed` graphs (as
        // `random_suite` draws them), `random_connected` graphs and
        // complete graphs.
        let mut rng = DetRng::seed_from_u64(34);
        let mut dormant = 0;
        for _ in 0..8 {
            let n = rng.gen_range(6..16usize);
            let g = permute::random_relabel(&generators::random_mixed(n, &mut rng), &mut rng);
            for k in [1, 2, (n as u32 / 4).max(2)] {
                dormant += assert_matches_reference(&g, k, "random_mixed")[2];
            }
        }
        for (n, extra, k) in [(24, 10, 3u32), (40, 20, 5), (60, 30, 2)] {
            let g = generators::random_connected(n, extra, &mut rng);
            dormant += assert_matches_reference(&g, k, "random_connected")[2];
        }
        for n in [5, 8, 12] {
            for k in 1..=3 {
                dormant += assert_matches_reference(&generators::complete(n), k, "complete")[2];
            }
        }
        assert!(dormant > 0, "no view with dormant edges");
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
