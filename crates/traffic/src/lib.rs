//! # pr-traffic — the traffic-workload subsystem
//!
//! The paper's headline claim is *eliminating packet losses*, but a
//! sweep that counts unweighted (scenario × destination) pairs treats
//! a dead link carrying 40% of an ISP's traffic the same as one
//! carrying none. This crate makes traffic a first-class workload:
//!
//! * [`TrafficModel`] — deterministic, random-access demand matrices:
//!   [`UniformTraffic`] (the exact unit matrix), [`GravityTraffic`]
//!   (masses from provisioned capacity, friction from the great-circle
//!   distance between the shipped PoP coordinates), and
//!   [`HotspotTraffic`] (seeded hot-PoP skew). [`TrafficMatrix`]
//!   materialises any of them.
//! * [`FlowSet`] — destination-major batches of `(src, dst, demand)`
//!   flows: the whole matrix ([`FlowSet::all_pairs`]) or a seeded
//!   sample drawn proportionally to demand ([`FlowSet::sampled`]).
//! * [`replay_scenario_bitparallel`] — the bit-parallel
//!   destination-major dataplane: affected sources classified 64 at a
//!   time through u64 frontiers over the staged dense FIB, clear
//!   demand aggregated bottom-up per subtree (one add per tree dart),
//!   only the affected-but-connected remainder walked per flow.
//!   [`replay_scenario_naive`] is the one-packet-at-a-time reference;
//!   both produce bit-identical results because flow demands live on
//!   a power-of-two grid that makes every replay sum exact
//!   (association-free).
//! * [`ScenarioTraffic`] / [`DemandTally`] — demand-weighted
//!   resilience metrics: weighted coverage, % demand lost, per-link
//!   peak load and max-link-utilisation under failure.
//! * [`replay_timeline`] — the temporal entry: drives a [`FlowSet`]
//!   through a whole (possibly impaired) link-event timeline and
//!   returns the demand-weighted loss-over-time curve as a
//!   [`pr_sim::TallySeries`], one replay per distinct failed set.
//!
//! The parallel experiment over scenario families lives in
//! `pr_bench::traffic`; the CLI front door is `pr traffic`.
//!
//! ## Example
//!
//! ```
//! use pr_core::{generous_ttl, DenseFib, DiscriminatorKind, PrMode, PrNetwork};
//! use pr_embedding::{heuristics, CellularEmbedding};
//! use pr_graph::{AllPairs, LinkSet};
//! use pr_traffic::{replay_scenario_bitparallel, FlowSet, GravityTraffic, ReplayScratch};
//!
//! let g = pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
//! let emb = CellularEmbedding::new(&g, heuristics::thorough(&g, 2010, 4, 10_000)).unwrap();
//! let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//!
//! let base = AllPairs::compute_all_live(&g);
//! let dense = DenseFib::from_base(&g, &base);
//! let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
//!
//! // Fail one link and replay the whole matrix through it.
//! let failed = LinkSet::from_links(g.link_count(), [g.links().next().unwrap()]);
//! let mut scratch = ReplayScratch::new();
//! let out = replay_scenario_bitparallel(
//!     &g, &net.agent(&g), &dense, &base, &flows, &failed, generous_ttl(&g), &mut scratch,
//! );
//! assert_eq!(out.tally.lost(), 0.0); // PR-DD loses no demand to a single failure
//! assert!(out.max_link_utilisation() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod flows;
mod model;
mod replay;
mod timeline;

pub use flows::{Flow, FlowSet};
pub use model::{GravityTraffic, HotspotTraffic, TrafficMatrix, TrafficModel, UniformTraffic};
pub use replay::{
    replay_scenario_bitparallel, replay_scenario_naive, ReplayScratch, ScenarioTraffic,
};
pub use timeline::{replay_timeline, TimelineTraffic};

// The demand-weighted tally lives with the other run metrics in
// `pr-sim`; re-exported here because it is this crate's primary
// result type.
pub use pr_sim::DemandTally;
