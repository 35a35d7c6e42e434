//! Dense forwarding-information base (FIB) staging for the
//! bit-parallel traffic dataplane.
//!
//! Sweeps walk *single packets*; traffic replay classifies *whole
//! destination groups of flows*. The per-packet costs that are
//! negligible for one walk — resetting the livelock detector,
//! initialising header state, hashing `(router, ingress, state)` at
//! every hop — dominate when a scenario replays thousands of flows,
//! most of which never meet a failed link at all. This module removes
//! them from the common case:
//!
//! * [`DenseFib`] — every destination's failure-free shortest-path
//!   tree, staged as one flat run of [`FibFrame`]s in canonical tree
//!   order, so a single forward pass classifies every source against a
//!   failure set and a single backward pass aggregates clear demand
//!   per subtree.
//! * [`BitScratch`] — the reusable u64 word bitsets and staging arrays
//!   those passes run on.
//!
//! Skipping the agent for *clear* flows (whose shortest path meets no
//! failed link) is sound for every scheme in this workspace because
//! all of them are **shortest-path confluent**: in the absence of
//! failures on the canonical shortest path, their decisions follow the
//! failure-free routing table exactly (PR forwards along the routing
//! table while the PR bit is unset; FCP routes on its carried-failure
//! graph, initially empty; LFA's primary next hop *is* the shortest
//! path; reconvergence's survivor path equals the base path when the
//! base path survives). The determinism suite asserts the equivalence
//! end to end against per-flow `walk_packet` references.

use pr_graph::{AllPairs, Graph, LinkSet, NodeId};

/// One staged hop of a destination tree: a node, its tree parent, and
/// the dart/link between them — everything the bit-parallel
/// classification and aggregation passes touch, packed into 16 bytes
/// so a whole destination's tree streams through cache linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibFrame {
    /// The router this frame labels.
    pub node: u32,
    /// Head of the router's next dart (its tree parent).
    pub parent: u32,
    /// The next dart itself (`node → parent`).
    pub dart: u32,
    /// The dart's undirected link (pre-resolved `dart >> 1`, kept so
    /// the hot loops never touch dart arithmetic).
    pub link: u32,
}

/// Dense per-destination FIB staging for the bit-parallel dataplane.
///
/// Rather than answering *"what is `node`'s next dart towards
/// `dest`?"* one lookup at a time, `DenseFib` stages each
/// destination's whole tree as a flat run of [`FibFrame`]s in
/// **canonical tree order** (increasing `(dist, node id)` — the
/// Dijkstra finalisation order, so every parent appears before its
/// children; see
/// [`SpTree::canonical_order_into`](pr_graph::SpTree::canonical_order_into)).
/// One forward pass over the run classifies every source against a
/// failure set ([`DenseFib::affected_into`]); one backward pass sums
/// per-subtree demand and credits each tree dart its subtree's load —
/// the O(n) destination-major passes that replace per-flow next-dart
/// chases.
///
/// Compiled once per topology from the hoisted base trees and shared
/// read-only by every replay worker.
#[derive(Debug, Clone)]
pub struct DenseFib {
    /// All destinations' frames, destination-major; within one
    /// destination the frames are in canonical tree order and cover
    /// exactly the reachable non-destination nodes.
    frames: Vec<FibFrame>,
    /// `frames[offsets[d] .. offsets[d + 1]]` stages destination `d`.
    offsets: Vec<u32>,
    nodes: usize,
}

impl DenseFib {
    /// Stages every destination tree of `base`: each frame holds a
    /// node's next dart in its destination's tree, reordered for the
    /// destination-major passes.
    pub fn from_base(graph: &Graph, base: &AllPairs) -> DenseFib {
        let n = graph.node_count();
        let mut frames = Vec::with_capacity(n.saturating_sub(1) * n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut order = Vec::new();
        for dest in graph.nodes() {
            let tree = base.towards(dest);
            tree.canonical_order_into(&mut order);
            for &u in &order {
                let Some(d) = tree.next_dart(u) else { continue }; // the destination itself
                frames.push(FibFrame {
                    node: u.0,
                    parent: graph.dart_head(d).0,
                    dart: d.0,
                    link: d.link().0,
                });
            }
            offsets.push(frames.len() as u32);
        }
        DenseFib { frames, offsets, nodes: n }
    }

    /// Number of nodes (= destinations) staged.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The staged frames of `dest`'s tree, in canonical tree order
    /// (parents before children, destination excluded).
    #[inline]
    pub fn frames(&self, dest: NodeId) -> &[FibFrame] {
        let (s, e) = (self.offsets[dest.index()] as usize, self.offsets[dest.index() + 1] as usize);
        &self.frames[s..e]
    }

    /// Computes the **affected set** of `dest` under `failed` into the
    /// node bitset `affected` (cleared and resized to one bit per
    /// node): bit `u` is set iff `u`'s base-tree path towards `dest`
    /// crosses a failed link — exactly
    /// [`SpTree::path_crosses`](pr_graph::SpTree::path_crosses) for
    /// every source at once, in one pass instead of one chain walk per
    /// source. Each frame ORs its parent's bit with its own dart's
    /// failure bit; canonical order guarantees the parent's bit is
    /// final by the time a child reads it.
    pub fn affected_into(&self, dest: NodeId, failed: &LinkSet, affected: &mut Vec<u64>) {
        pr_graph::bits::clear_and_resize(affected, self.nodes);
        for f in self.frames(dest) {
            if failed.contains(pr_graph::LinkId(f.link))
                || pr_graph::bits::test(affected, f.parent as usize)
            {
                pr_graph::bits::set(affected, f.node as usize);
            }
        }
    }
}

/// Reusable node-indexed buffers of the bit-parallel replay pipeline:
/// two u64 word bitsets (64 sources per word — the
/// [`pr_graph::bits`] helpers drive them) and two dense f64 staging
/// arrays. Embedded in `pr-traffic`'s `ReplayScratch`; everything is
/// cleared/resized in place, so the steady state allocates nothing
/// per destination.
#[derive(Debug, Default, Clone)]
pub struct BitScratch {
    /// Sources whose base path crosses a failed link
    /// ([`DenseFib::affected_into`]).
    pub affected: Vec<u64>,
    /// Sources that carry demand in the current destination group.
    pub present: Vec<u64>,
    /// Per-source demand of the current destination group; valid only
    /// where the `present` bit is set.
    pub demand: Vec<f64>,
    /// Per-node clear-demand subtree sums of the aggregation pass.
    pub subtree: Vec<f64>,
}

impl BitScratch {
    /// Fresh scratch; buffers grow to the topology on first use.
    pub fn new() -> BitScratch {
        BitScratch::default()
    }

    /// Prepares the per-destination-group buffers for `n` nodes: the
    /// `present` set is cleared, the demand array resized (stale
    /// entries are fine — reads are gated on `present`), the subtree
    /// sums zeroed.
    pub fn begin_group(&mut self, n: usize) {
        pr_graph::bits::clear_and_resize(&mut self.present, n);
        if self.demand.len() < n {
            self.demand.resize(n, 0.0);
        }
        self.subtree.clear();
        self.subtree.resize(n, 0.0);
    }

    /// Registers one source's demand for the current group.
    #[inline]
    pub fn stage_demand(&mut self, src: NodeId, demand: f64) {
        pr_graph::bits::set(&mut self.present, src.index());
        self.demand[src.index()] = demand;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::{generators, Dart};

    fn ring_setup() -> (Graph, AllPairs) {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        (g, base)
    }

    #[test]
    fn dense_fib_frames_stage_every_tree_in_canonical_order() {
        let (g, base) = ring_setup();
        let dense = DenseFib::from_base(&g, &base);
        assert_eq!(dense.node_count(), g.node_count());
        for dest in g.nodes() {
            let tree = base.towards(dest);
            let frames = dense.frames(dest);
            // Every reachable non-destination node appears exactly once,
            // with its tree's next dart, parents staged before children.
            assert_eq!(frames.len(), g.node_count() - 1);
            let mut seen = vec![false; g.node_count()];
            seen[dest.index()] = true;
            for f in frames {
                let u = NodeId(f.node);
                assert!(!seen[u.index()], "node staged twice");
                seen[u.index()] = true;
                assert!(seen[f.parent as usize], "parent must be staged before its children");
                assert_eq!(Some(Dart(f.dart)), tree.next_dart(u));
                assert_eq!(Dart(f.dart).link(), pr_graph::LinkId(f.link));
                assert_eq!(g.dart_head(Dart(f.dart)), NodeId(f.parent));
                assert!(tree.cost(u) > tree.cost(NodeId(f.parent)), "tree order sorts by dist");
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn affected_set_matches_path_crosses_per_source() {
        let (g, base) = ring_setup();
        let dense = DenseFib::from_base(&g, &base);
        let mut affected = Vec::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dest in g.nodes() {
                let tree = base.towards(dest);
                dense.affected_into(dest, &failed, &mut affected);
                for src in g.nodes() {
                    assert_eq!(
                        pr_graph::bits::test(&affected, src.index()),
                        tree.path_crosses(&g, src, &failed),
                        "{link} {src}->{dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_scratch_group_staging_is_reusable() {
        let mut bits = BitScratch::new();
        bits.begin_group(70);
        bits.stage_demand(NodeId(3), 2.5);
        bits.stage_demand(NodeId(69), 1.0);
        assert!(pr_graph::bits::test(&bits.present, 3));
        assert!(!pr_graph::bits::test(&bits.present, 4));
        assert_eq!(pr_graph::bits::count(&bits.present), 2);
        assert_eq!(bits.demand[69], 1.0);
        assert!(bits.subtree.iter().all(|&s| s == 0.0));
        // A fresh group forgets the previous membership.
        bits.begin_group(70);
        assert_eq!(pr_graph::bits::count(&bits.present), 0);
    }
}
