//! Property-based tests for the traffic-workload subsystem.
//!
//! The headline property — weighted coverage under a uniform *unit*
//! matrix is bit-identical to the unweighted coverage counts — is
//! checked here at the replay layer over random 2-edge-connected
//! graphs, and again end-to-end against `pr_bench::coverage` in
//! `crates/bench/tests/determinism.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pr_core::{
    generous_ttl, walk_packet, DenseFib, DiscriminatorKind, PrMode, PrNetwork, WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{bits, generators, AllPairs, Graph, NodeId, SpTree};
use pr_scenarios::{ScenarioFamily, SingleLinkFailures};
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, HotspotTraffic, ReplayScratch,
    TrafficMatrix, TrafficModel, UniformTraffic,
};

/// A reproducible random 2-edge-connected graph.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16, 0usize..8, 0u64..u64::MAX).prop_map(|(n, chords, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_two_edge_connected(n, chords, 1..=8, &mut rng)
    })
}

/// PR-DD over the identity rotation (any genus — drops are legitimate
/// outcomes and must be weighted like any other).
fn compile_net(g: &Graph) -> PrNetwork {
    let emb = CellularEmbedding::new(g, RotationSystem::identity(g)).expect("connected");
    PrNetwork::compile(g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
}

/// A matrix with unit demand on one ordered pair and none elsewhere:
/// replaying it isolates one flow's classification in the tally.
struct OnePair(usize, NodeId, NodeId);

impl TrafficModel for OnePair {
    fn label(&self) -> String {
        "one-pair".into()
    }
    fn node_count(&self) -> usize {
        self.0
    }
    fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        if (src, dst) == (self.1, self.2) {
            1.0
        } else {
            0.0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under the uniform unit matrix, the demand-weighted tally *is*
    /// the unweighted count: weighted coverage equals
    /// delivered/evaluated computed by a plain per-pair walk loop,
    /// bit for bit.
    #[test]
    fn uniform_unit_weighted_coverage_is_bitwise_unweighted(g in arb_graph()) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let dense = DenseFib::from_base(&g, &base);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let ttl = generous_ttl(&g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);

        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            let out = replay_scenario_bitparallel(
                &g, &agent, &dense, &base, &flows, &failed, ttl, &mut scratch,
            );

            // The unweighted reference: exactly the coverage
            // experiment's conditioning and counters.
            let (mut evaluated, mut delivered) = (0u64, 0u64);
            for dst in g.nodes() {
                let base_tree = base.towards(dst);
                let live = SpTree::towards(&g, dst, &failed);
                for src in g.nodes() {
                    if src == dst || !base_tree.path_crosses(&g, src, &failed) {
                        continue;
                    }
                    if !live.reaches(src) {
                        continue; // "| path" conditioning
                    }
                    evaluated += 1;
                    if matches!(
                        walk_packet(&g, &agent, src, dst, &failed, ttl).result,
                        WalkResult::Delivered
                    ) {
                        delivered += 1;
                    }
                }
            }
            prop_assert_eq!(out.tally.evaluated, evaluated as f64, "scenario {}", i);
            prop_assert_eq!(out.tally.evaluated_delivered, delivered as f64, "scenario {}", i);
            let unweighted =
                if evaluated == 0 { 1.0 } else { delivered as f64 / evaluated as f64 };
            prop_assert_eq!(out.tally.weighted_coverage(), unweighted, "scenario {}", i);
        }
    }

    /// The u64-frontier affected-set classification agrees with the
    /// per-flow tree walks on every source of every destination group:
    /// the affected bit is exactly `path_crosses`, the bit-parallel
    /// replay of the flow alone classifies it clear exactly when its
    /// base path is not crossed, and disconnected exactly when it is
    /// affected and the survivor tree no longer `reaches` it.
    #[test]
    fn bitset_classification_matches_per_flow_walks(g in arb_graph(), seed in 0u64..1024) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let dense = DenseFib::from_base(&g, &base);
        let n = g.node_count();
        let hot = HotspotTraffic::new(&g, (n / 4).max(1), 4.0, seed);
        let flows = FlowSet::sampled(&hot, 48, seed);
        let ttl = generous_ttl(&g);
        let mut affected = Vec::new();
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);
        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            for (dst, group) in flows.by_destination() {
                let base_tree = base.towards(dst);
                dense.affected_into(dst, &failed, &mut affected);
                let live = SpTree::towards(&g, dst, &failed);
                for flow in group {
                    let hit = bits::test(&affected, flow.src.index());
                    prop_assert_eq!(
                        hit,
                        base_tree.path_crosses(&g, flow.src, &failed),
                        "affected bit vs path_crosses: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                    let alone = FlowSet::all_pairs(&OnePair(n, flow.src, dst));
                    let out = replay_scenario_bitparallel(
                        &g, &agent, &dense, &base, &alone, &failed, ttl, &mut scratch,
                    );
                    let clear = out.tally.evaluated == 0.0 && out.tally.disconnected == 0.0;
                    prop_assert_eq!(
                        clear,
                        !hit,
                        "clear class vs path_crosses: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                    prop_assert_eq!(
                        out.tally.disconnected > 0.0,
                        hit && !live.reaches(flow.src),
                        "disconnected class vs reaches: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                }
            }
        }
    }

    /// Subtree demand aggregation reproduces per-path accumulation
    /// **exactly**: the bit-parallel dataplane's full link-load vector
    /// — not just the peak — equals the one built from per-packet
    /// walk paths, f64-for-f64, and the whole result equals the
    /// per-packet reference (the demand grid at work: every replay sum
    /// is exact, so regrouping per subtree cannot move a bit). Runs on
    /// the full hotspot matrix and on a sparse demand-weighted sample
    /// of it.
    #[test]
    fn subtree_aggregated_loads_equal_per_path_accumulation(g in arb_graph(), seed in 0u64..1024) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let dense = DenseFib::from_base(&g, &base);
        let n = g.node_count();
        let hot = HotspotTraffic::new(&g, (n / 4).max(1), 4.0, seed);
        let ttl = generous_ttl(&g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);
        for flows in [FlowSet::all_pairs(&hot), FlowSet::sampled(&hot, 64, seed)] {
            for i in 0..singles.len() {
                let failed = singles.scenario(i);
                let bp = replay_scenario_bitparallel(
                    &g, &agent, &dense, &base, &flows, &failed, ttl, &mut scratch,
                );
                let mut walked = vec![0.0; g.link_count()];
                for f in flows.flows() {
                    let walk = walk_packet(&g, &agent, f.src, f.dst, &failed, ttl);
                    if walk.result.is_delivered() {
                        for d in walk.path.darts() {
                            walked[d.link().index()] += f.demand;
                        }
                    }
                }
                prop_assert_eq!(
                    scratch.link_loads(),
                    &walked[..],
                    "load vectors diverged in scenario {}",
                    i
                );
                let naive = replay_scenario_naive(&g, &agent, &base, &flows, &failed, ttl);
                prop_assert_eq!(&bp, &naive, "scenario {} (naive)", i);
            }
        }
    }

    /// Flow sampling conserves demand, is pure in the seed, and a
    /// materialised matrix snapshot samples identically to the live
    /// model.
    #[test]
    fn sampling_is_conservative_and_snapshot_stable(
        g in arb_graph(),
        samples in 1usize..256,
        seed in 0u64..u64::MAX,
    ) {
        let n = g.node_count();
        let model = HotspotTraffic::new(&g, (n / 4).max(1), 8.0, seed);
        let set = FlowSet::sampled(&model, samples, seed);
        prop_assert!((set.offered() - model.total_demand()).abs() < 1e-6);
        prop_assert!(set.len() <= samples.min(n * (n - 1)));
        let again = FlowSet::sampled(&model, samples, seed);
        prop_assert_eq!(set.flows(), again.flows());
        let snap = TrafficMatrix::from_model(&model);
        let from_snap = FlowSet::sampled(&snap, samples, seed);
        prop_assert_eq!(set.flows(), from_snap.flows());
        // Every flow's endpoints are distinct and demand positive.
        for f in set.flows() {
            prop_assert!(f.src != f.dst);
            prop_assert!(f.demand > 0.0);
        }
    }
}
