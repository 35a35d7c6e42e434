//! Deterministic shortest-path trees (Dijkstra).
//!
//! Routing in the paper is destination-rooted: every router holds, per
//! destination, a next hop along a shortest path *towards* that
//! destination, plus a **distance discriminator** (§4.3) — a strictly
//! increasing function of the links along that shortest path. We
//! materialise both in a [`SpTree`].
//!
//! Determinism matters more than usual here: cycle-following correctness
//! arguments reason about *the* shortest-path tree, and reproducible
//! experiments need identical tables across runs and platforms. Ties are
//! therefore broken canonically (fewest hops, then lowest parent node id,
//! then lowest dart id) rather than by heap pop order.

use crate::{Dart, Graph, LinkSet, NodeId};

/// A destination-rooted shortest-path tree over the live links.
///
/// For every node `u` that can reach [`SpTree::dest`]:
///
/// * `dist[u]` — exact weighted cost of the shortest `u → dest` path;
/// * `hops[u]` — hop count along the *selected* shortest path (the
///   canonical tie-broken one), which strictly decreases hop by hop;
/// * `next[u]` — the dart `u → parent` to follow towards `dest`.
///
/// Unreachable nodes have `None` everywhere; the destination itself has
/// `dist = Some(0)`, `hops = Some(0)`, `next = None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpTree {
    /// The destination this tree routes towards.
    pub dest: NodeId,
    pub(crate) dist: Vec<Option<u64>>,
    pub(crate) hops: Vec<Option<u32>>,
    pub(crate) next: Vec<Option<Dart>>,
}

impl SpTree {
    /// Computes the shortest-path tree towards `dest` using only links
    /// not present in `failed`.
    ///
    /// Runs Dijkstra for the distance labels, then performs a canonical
    /// parent-selection pass in increasing `(dist, node id)` order so the
    /// resulting tree does not depend on heap internals. Because link
    /// weights are ≥ 1, every parent has strictly smaller distance, so
    /// the pass is well-founded.
    ///
    /// This is the convenience entry point for one-shot callers: it
    /// pays one [`SpScratch`] worth of allocations per call. Hot loops
    /// should hold a scratch and use [`SpTree::towards_with`] (or
    /// [`SpTree::repair_from`] when a base tree is in hand).
    ///
    /// [`SpScratch`]: crate::SpScratch
    pub fn towards(graph: &Graph, dest: NodeId, failed: &LinkSet) -> SpTree {
        SpTree::towards_with(graph, dest, failed, &mut crate::SpScratch::new())
    }

    /// Convenience: tree over a fully-live graph.
    pub fn towards_all_live(graph: &Graph, dest: NodeId) -> SpTree {
        SpTree::towards(graph, dest, &LinkSet::empty(graph.link_count()))
    }

    /// Weighted cost from `node` to the destination, if reachable.
    #[inline]
    pub fn cost(&self, node: NodeId) -> Option<u64> {
        self.dist[node.index()]
    }

    /// Hop count from `node` to the destination along the selected
    /// shortest path, if reachable.
    #[inline]
    pub fn hops(&self, node: NodeId) -> Option<u32> {
        self.hops[node.index()]
    }

    /// The dart `node → parent` towards the destination. `None` for the
    /// destination itself and for unreachable nodes.
    #[inline]
    pub fn next_dart(&self, node: NodeId) -> Option<Dart> {
        self.next[node.index()]
    }

    /// `true` if `node` can reach the destination.
    #[inline]
    pub fn reaches(&self, node: NodeId) -> bool {
        self.dist[node.index()].is_some()
    }

    /// Materialises the node sequence `from, …, dest` using the graph.
    ///
    /// Returns `None` if `from` cannot reach the destination.
    pub fn path_nodes(&self, graph: &Graph, from: NodeId) -> Option<Vec<NodeId>> {
        self.dist[from.index()]?;
        let mut nodes = vec![from];
        let mut at = from;
        while let Some(d) = self.next[at.index()] {
            at = graph.dart_head(d);
            nodes.push(at);
        }
        Some(nodes)
    }

    /// `true` if the tree path `from → dest` traverses a link in
    /// `failed`. Walks the `next` chain without materialising it, so
    /// the affected-pair test in scenario sweeps allocates nothing.
    ///
    /// Returns `false` when `from` cannot reach the destination (there
    /// is no path to cross anything).
    pub fn path_crosses(&self, graph: &Graph, from: NodeId, failed: &LinkSet) -> bool {
        let mut at = from;
        while let Some(d) = self.next[at.index()] {
            if failed.contains_dart(d) {
                return true;
            }
            at = graph.dart_head(d);
        }
        false
    }

    /// `true` if the tree routes over `link` (i.e. `link` is one of
    /// the tree's parent darts). O(1): only the two endpoints can
    /// have a parent dart on `link`.
    ///
    /// Lets sweep workers dismiss a failure scenario against a
    /// destination tree in O(failed links) — if no failed link is a
    /// tree edge, no source's path crosses and the repaired tree is
    /// the base tree itself.
    #[inline]
    pub fn uses_link(&self, graph: &Graph, link: crate::LinkId) -> bool {
        let (a, b) = graph.endpoints(link);
        self.next[a.index()].is_some_and(|d| d.link() == link)
            || self.next[b.index()].is_some_and(|d| d.link() == link)
    }

    /// Materialises the dart sequence `from → … → dest` using the graph.
    pub fn path_darts(&self, graph: &Graph, from: NodeId) -> Option<Vec<Dart>> {
        self.dist[from.index()]?;
        let mut darts = Vec::new();
        let mut at = from;
        while let Some(d) = self.next[at.index()] {
            darts.push(d);
            at = graph.dart_head(d);
        }
        Some(darts)
    }

    /// Links used by the tree (the union of all `next` darts' links).
    pub fn tree_links(&self) -> impl Iterator<Item = crate::LinkId> + '_ {
        self.next.iter().flatten().map(|d| d.link())
    }

    /// Fills `out` with the reachable nodes in the **canonical tree
    /// order**: increasing `(dist, node id)`. This is exactly the
    /// Dijkstra finalisation order of [`SpTree::towards`] (weights are
    /// ≥ 1, so every parent sorts strictly before its children), which
    /// makes the order a topological order of the tree — the
    /// destination first, then each node after its parent. One pass
    /// over it suffices to push any per-node property down (root to
    /// leaves) or sum it up (leaves to root, iterated in reverse).
    pub fn canonical_order_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend((0..self.dist.len() as u32).map(NodeId).filter(|u| self.reaches(*u)));
        out.sort_unstable_by_key(|u| (self.dist[u.index()], u.0));
    }
}

/// Shortest-path trees towards *every* destination over the live links.
///
/// This is the all-pairs view a link-state IGP would converge to. For the
/// topologies in this workspace (tens of nodes) the dense representation
/// is the right trade-off.
#[derive(Debug, Clone)]
pub struct AllPairs {
    trees: Vec<SpTree>,
}

impl AllPairs {
    /// Computes one tree per destination (sharing one Dijkstra arena
    /// across the destinations).
    pub fn compute(graph: &Graph, failed: &LinkSet) -> AllPairs {
        let mut scratch = crate::SpScratch::new();
        AllPairs {
            trees: graph
                .nodes()
                .map(|d| SpTree::towards_with(graph, d, failed, &mut scratch))
                .collect(),
        }
    }

    /// Repairs every per-destination tree of `self` (computed over a
    /// subset of `failed` — typically the failure-free base map) into
    /// the all-pairs view under `failed`, via [`SpTree::repair_from`].
    /// Bit-identical to [`AllPairs::compute`] at a fraction of the
    /// work when failures perturb only small cones.
    pub fn repair_from(
        &self,
        graph: &Graph,
        failed: &LinkSet,
        scratch: &mut crate::SpScratch,
    ) -> AllPairs {
        AllPairs {
            trees: self
                .trees
                .iter()
                .map(|t| SpTree::repair_from(t, graph, t.dest, failed, scratch))
                .collect(),
        }
    }

    /// Convenience: all-pairs over a fully-live graph.
    pub fn compute_all_live(graph: &Graph) -> AllPairs {
        AllPairs::compute(graph, &LinkSet::empty(graph.link_count()))
    }

    /// The tree routing towards `dest`.
    #[inline]
    pub fn towards(&self, dest: NodeId) -> &SpTree {
        &self.trees[dest.index()]
    }

    /// Weighted cost of the shortest `src → dst` path, if connected.
    #[inline]
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.trees[dst.index()].cost(src)
    }

    /// Iterates over the per-destination trees.
    pub fn iter(&self) -> impl Iterator<Item = &SpTree> {
        self.trees.iter()
    }

    /// Maximum hop count over all connected `(src, dst)` pairs — the
    /// network's hop diameter as seen along canonical shortest paths.
    ///
    /// This bounds the hop-count distance discriminator, so the paper's
    /// DD field needs `ceil(log2(diameter + 1))` bits (§6).
    pub fn hop_diameter(&self) -> u32 {
        self.trees.iter().flat_map(|t| t.hops.iter().flatten().copied()).max().unwrap_or(0)
    }

    /// Maximum weighted cost over all connected pairs, bounding the
    /// weighted-cost distance discriminator.
    pub fn cost_diameter(&self) -> u64 {
        self.trees.iter().flat_map(|t| t.dist.iter().flatten().copied()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    /// The 6-node network of the paper's Figure 1(a):
    /// nodes A,B,C,D,E,F; links A-B, A-C, B-C, B-D, C-E, D-E, D-F, E-F.
    fn figure1_like() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> =
            ["A", "B", "C", "D", "E", "F"].iter().map(|n| g.add_node(*n)).collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        for (x, y) in [(a, b), (a, c), (b, c), (b, d), (c, e), (d, e), (d, f), (e, f)] {
            g.add_link(x, y, 1).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn unit_weights_give_bfs_distances() {
        let (g, ids) = figure1_like();
        let f = ids[5];
        let t = SpTree::towards_all_live(&g, f);
        assert_eq!(t.cost(ids[0]), Some(3)); // A: A-B-D-F or A-C-E-F
        assert_eq!(t.cost(ids[1]), Some(2)); // B: B-D-F
        assert_eq!(t.cost(ids[3]), Some(1)); // D
        assert_eq!(t.cost(f), Some(0));
        assert_eq!(t.hops(ids[0]), Some(3));
        assert_eq!(t.next_dart(f), None);
    }

    #[test]
    fn canonical_tie_breaking_prefers_low_ids() {
        // A connects to D via B (id 1) or C (id 2), equal cost: the
        // canonical tree must pick B.
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let d = g.add_node("D");
        g.add_link(a, b, 1).unwrap();
        g.add_link(a, c, 1).unwrap();
        g.add_link(b, d, 1).unwrap();
        g.add_link(c, d, 1).unwrap();
        let t = SpTree::towards_all_live(&g, d);
        let path = t.path_nodes(&g, a).unwrap();
        assert_eq!(path, vec![a, b, d]);
    }

    #[test]
    fn weights_respected() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_link(a, b, 10).unwrap();
        g.add_link(a, c, 1).unwrap();
        g.add_link(c, b, 1).unwrap();
        let t = SpTree::towards_all_live(&g, b);
        assert_eq!(t.cost(a), Some(2));
        assert_eq!(t.path_nodes(&g, a).unwrap(), vec![a, c, b]);
        assert_eq!(t.hops(a), Some(2));
    }

    #[test]
    fn failed_links_are_avoided() {
        let (g, ids) = figure1_like();
        let (d, e, f) = (ids[3], ids[4], ids[5]);
        let de = g.find_link(d, e).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [de]);
        let t = SpTree::towards(&g, f, &failed);
        // E must now route via F directly (E-F still up).
        assert_eq!(t.cost(e), Some(1));
        // D still reaches F directly.
        assert_eq!(t.cost(d), Some(1));
        assert!(!t.path_darts(&g, e).unwrap().iter().any(|dd| dd.link() == de));
    }

    #[test]
    fn disconnection_yields_none() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let ab = g.add_link(a, b, 1).unwrap();
        let _ = c;
        let failed = LinkSet::from_links(g.link_count(), [ab]);
        let t = SpTree::towards(&g, b, &failed);
        assert!(!t.reaches(a));
        assert!(!t.reaches(c));
        assert_eq!(t.path_nodes(&g, a), None);
        assert!(t.reaches(b));
    }

    #[test]
    fn hops_strictly_decrease_along_tree() {
        let (g, ids) = figure1_like();
        let t = SpTree::towards_all_live(&g, ids[5]);
        for u in g.nodes() {
            if let Some(d) = t.next_dart(u) {
                let v = g.dart_head(d);
                assert_eq!(t.hops(u).unwrap(), t.hops(v).unwrap() + 1);
                assert!(t.cost(u).unwrap() > t.cost(v).unwrap());
            }
        }
    }

    #[test]
    fn all_pairs_diameters() {
        let (g, _) = figure1_like();
        let ap = AllPairs::compute_all_live(&g);
        assert_eq!(ap.hop_diameter(), 3); // A is 3 hops from F
        assert_eq!(ap.cost_diameter(), 3);
        // Symmetry of costs on an undirected graph.
        for s in g.nodes() {
            for d in g.nodes() {
                assert_eq!(ap.cost(s, d), ap.cost(d, s));
            }
        }
    }

    #[test]
    fn parallel_links_take_cheapest() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let heavy = g.add_link(a, b, 10).unwrap();
        let light = g.add_link(a, b, 2).unwrap();
        let t = SpTree::towards_all_live(&g, b);
        assert_eq!(t.cost(a), Some(2));
        assert_eq!(t.next_dart(a).unwrap().link(), light);
        let failed = LinkSet::from_links(g.link_count(), [light]);
        let t2 = SpTree::towards(&g, b, &failed);
        assert_eq!(t2.cost(a), Some(10));
        assert_eq!(t2.next_dart(a).unwrap().link(), heavy);
    }

    #[test]
    fn path_crosses_matches_materialised_path() {
        let (g, ids) = figure1_like();
        let f = ids[5];
        let t = SpTree::towards_all_live(&g, f);
        for failed_link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [failed_link]);
            for src in g.nodes() {
                let expected = t
                    .path_darts(&g, src)
                    .map(|p| p.iter().any(|d| failed.contains_dart(*d)))
                    .unwrap_or(false);
                assert_eq!(t.path_crosses(&g, src, &failed), expected, "{failed_link} {src}");
            }
        }
    }

    #[test]
    fn path_crosses_is_false_for_unreachable_sources() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let ab = g.add_link(a, b, 1).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [ab]);
        let t = SpTree::towards(&g, b, &failed);
        assert!(!t.path_crosses(&g, a, &failed), "no path, nothing to cross");
    }

    #[test]
    fn graph_error_display_is_stable() {
        let err = GraphError::ZeroWeight;
        assert!(err.to_string().contains(">= 1"));
    }

    #[test]
    fn uses_link_identifies_tree_edges() {
        let (g, ids) = figure1_like();
        let t = SpTree::towards_all_live(&g, ids[5]);
        for link in g.links() {
            let expected = t.tree_links().any(|l| l == link);
            assert_eq!(t.uses_link(&g, link), expected, "{link}");
        }
        // A tree uses exactly node_count - 1 links on a connected graph.
        assert_eq!(g.links().filter(|&l| t.uses_link(&g, l)).count(), g.node_count() - 1);
    }
}
