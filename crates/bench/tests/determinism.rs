//! The engine's contract: parallel sweeps are **bit-identical** to the
//! serial reference, regardless of thread count.
//!
//! `coverage::run` / `stretch::run` fan (scenario × destination) work
//! units over a racing worker pool, use per-worker FCP route caches,
//! and merge partial results by unit index; `run_serial` is the plain
//! nested loop with the honest recompute-per-decision FCP agent.
//! `temporal::run` fans one discrete-event simulation pair per timed
//! scenario with per-scenario derived seeds. Any divergence — a
//! reordered sample, a cache changing a decision, a shared RNG stream,
//! a lost unit — fails these tests exactly.

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::Graph;
use pr_scenarios::{
    DetectionDelaySweep, FlapSweep, NodeFailures, OutageParams, OutageSweep, SampledMultiFailures,
    ScenarioFamily, SingleLinkFailures, TemporalFamily,
};
use pr_sim::SimConfig;
use pr_topologies::{Isp, Weighting};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 2] = [7, 2010];

/// A cheap (not necessarily genus-0) embedding: determinism must hold
/// on livelock-prone embeddings too, where walks end in loop drops.
fn identity_embedding(graph: &Graph) -> CellularEmbedding {
    CellularEmbedding::new(graph, RotationSystem::identity(graph)).expect("connected topology")
}

/// A genus-0 embedding like the experiments use (cheap search budget).
fn planar_embedding(graph: &Graph, seed: u64) -> CellularEmbedding {
    let rot = pr_embedding::heuristics::thorough(graph, seed, 4, 10_000);
    CellularEmbedding::new(graph, rot).expect("connected topology")
}

fn coverage_is_deterministic_on(graph: &Graph, embedding: &CellularEmbedding) {
    for seed in SEEDS {
        let reference = pr_bench::coverage::run_serial(graph, embedding, 2, 5, seed);
        for threads in THREAD_COUNTS {
            let rows = pr_bench::coverage::run(graph, embedding, 2, 5, seed, threads);
            assert_eq!(
                rows, reference,
                "coverage rows diverged from serial at seed {seed}, {threads} threads"
            );
        }
    }
}

fn stretch_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily) {
    let reference = pr_bench::stretch::run_serial(graph, pr, family);
    for threads in THREAD_COUNTS {
        let samples = pr_bench::stretch::run(graph, pr, family, threads);
        // Full struct equality: f64 sample vectors compare bit-for-bit
        // (every value is produced by the identical expression on the
        // identical walk, in the identical order).
        assert_eq!(
            samples,
            reference,
            "stretch samples diverged at {threads} threads ({})",
            family.label()
        );
    }
}

#[test]
fn abilene_coverage_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    coverage_is_deterministic_on(&g, &planar_embedding(&g, 2010));
}

#[test]
fn teleglobe_coverage_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    // Identity embedding: positive genus, so PR-basic (and possibly
    // PR-DD) livelock on some pairs — drops must merge identically too.
    coverage_is_deterministic_on(&g, &identity_embedding(&g));
}

#[test]
fn abilene_stretch_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    // Exhaustive single failures, streamed…
    stretch_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g));
    // …node failures, streamed…
    stretch_is_deterministic_on(&g, &pr, &NodeFailures::new(&g));
    // …and sampled multi-failures at several seeds.
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 3, 6, seed);
        stretch_is_deterministic_on(&g, &pr, &multi);
    }
}

#[test]
fn teleglobe_stretch_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 2, 5, seed);
        stretch_is_deterministic_on(&g, &pr, &multi);
    }
}

use pr_bench::stretch::{
    ccdf, figure2_xs, panel_csv, panel_csv_from_rows, report_from_rows, Scheme,
};

/// Compiles PR-DD on a seeded synthetic ISP mesh over its geometric
/// (planar) rotation.
fn synth_mesh_net(nodes: usize) -> (Graph, PrNetwork) {
    let g = pr_graph::generators::isp_mesh(&pr_graph::generators::MeshParams::new(nodes, 2010));
    let rot = RotationSystem::geometric(&g).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&g, rot).expect("connected topology");
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (g, pr)
}

/// Per-scenario aggregates from the suffix-memoized walk engine
/// (`run_rows`, what `pr sweep` ships) are thread-count invariant on a
/// 120-node instance of the synthetic ISP family, and on a 40-node
/// instance the artefacts folded from them equal the serial
/// per-packet oracle's (`run_serial` walks every pair in full, no
/// memo, no cone repair; it is too slow for tier-1 at 120 nodes in a
/// debug build). The equivalence argument (DESIGN.md §14) is
/// size-independent.
#[test]
fn synth_mesh_memoized_rows_equal_plain_rows() {
    let (g, pr) = synth_mesh_net(120);
    let singles = SingleLinkFailures::new(&g);
    let reference = pr_bench::stretch::run_rows(&g, &pr, &singles, 1, 0);
    for threads in THREAD_COUNTS {
        let rows = pr_bench::stretch::run_rows(&g, &pr, &singles, threads, 0);
        assert_eq!(rows, reference, "ScenarioRows diverged at {threads} threads");
    }

    let (g, pr) = synth_mesh_net(40);
    let singles = SingleLinkFailures::new(&g);
    let xs = figure2_xs();
    let rows = pr_bench::stretch::run_rows(&g, &pr, &singles, 2, 0);
    let serial = pr_bench::stretch::run_serial(&g, &pr, &singles);
    assert!(serial.evaluated_pairs > 0);
    assert_eq!(panel_csv_from_rows(&rows, &xs), panel_csv(&serial, &xs));

    let report = report_from_rows(&rows, &xs);
    assert_eq!(report.scenarios, singles.len() as u64);
    assert_eq!(report.evaluated_pairs, serial.evaluated_pairs as u64);
    assert_eq!(report.disconnected_pairs, serial.disconnected_pairs as u64);
    assert_eq!(report.undelivered, serial.undelivered as u64);
    assert_eq!(report.undelivered_fcp, serial.undelivered_fcp as u64);
    assert_eq!(report.undelivered_pr, serial.undelivered_pr as u64);
    for (s, scheme) in Scheme::ALL.into_iter().enumerate() {
        let v = serial.of(scheme);
        assert_eq!(report.samples[s], v.len() as u64, "{scheme:?}");
        assert_eq!(report.max[s], v.iter().copied().fold(0.0, f64::max), "{scheme:?}");
        let curve: Vec<f64> = ccdf(v, &xs).into_iter().map(|(_, p)| p).collect();
        assert_eq!(report.ccdf[s], curve, "{scheme:?}");
        // Rows sum per scenario before summing across scenarios, so
        // the mean may differ from the flat sum in the last ulps.
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!((report.mean[s] - mean).abs() <= 1e-12 * mean, "{scheme:?}");
    }
}

// ---- temporal sweeps ---------------------------------------------------

/// Abilene with its certified embedding, cheap search budget.
fn abilene_net() -> (Graph, PrNetwork) {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (g, pr)
}

/// Sweep-friendly outage parameters (short flows keep the test quick).
fn quick_params() -> OutageParams {
    OutageParams {
        interval_ns: 500_000, // 2 kpps
        fail_at_ns: 10_000_000,
        down_for_ns: 40_000_000,
        igp_convergence_ns: 40_000_000,
        duration_ns: 80_000_000,
        ..OutageParams::default()
    }
}

fn temporal_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn TemporalFamily) {
    let config = SimConfig::default();
    for seed in SEEDS {
        let reference = pr_bench::temporal::run_serial(graph, pr, family, &config, seed);
        assert_eq!(reference.len(), family.len());
        for threads in THREAD_COUNTS {
            let rows = pr_bench::temporal::run(graph, pr, family, &config, seed, threads);
            assert_eq!(
                rows,
                reference,
                "temporal rows diverged from serial at seed {seed}, {threads} threads ({})",
                family.label()
            );
        }
    }
}

#[test]
fn abilene_outage_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    temporal_is_deterministic_on(&g, &pr, &OutageSweep::new(&g, quick_params()));
}

#[test]
fn abilene_flap_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let fam = FlapSweep::new(&g, quick_params()).with_holddown(8_000_000);
    temporal_is_deterministic_on(&g, &pr, &fam);
}

#[test]
fn abilene_detection_delay_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let link = g.links().next().unwrap();
    let fam =
        DetectionDelaySweep::new(&g, link, vec![0, 100_000, 1_000_000, 10_000_000], quick_params());
    temporal_is_deterministic_on(&g, &pr, &fam);
}

// ---- traffic replay ----------------------------------------------------

use pr_traffic::{FlowSet, GravityTraffic, HotspotTraffic, UniformTraffic};

fn traffic_is_deterministic_on(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
) {
    // The serial reference replays every flow one packet at a time
    // (fresh scratch, no FIB, no SPT repair); the bit-parallel engine
    // run must match it bit for bit — f64 demand sums included (the
    // demand grid makes them exact, hence independent of how the
    // dataplane groups additions) — at any thread count.
    let reference = pr_bench::traffic::run_serial(graph, pr, family, flows);
    assert_eq!(reference.len(), family.len());
    for threads in THREAD_COUNTS {
        let rows = pr_bench::traffic::run(graph, pr, family, flows, threads);
        assert_eq!(
            rows,
            reference,
            "bit-parallel rows diverged from serial at {threads} threads ({}, {})",
            family.label(),
            flows.label()
        );
        assert_eq!(
            pr_bench::traffic::summarize(&rows),
            pr_bench::traffic::summarize(&reference),
            "summaries diverged at {threads} threads"
        );
    }
}

#[test]
fn abilene_traffic_replay_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let singles = SingleLinkFailures::new(&g);
    traffic_is_deterministic_on(&g, &pr, &singles, &FlowSet::all_pairs(&GravityTraffic::new(&g)));
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 3, 6, seed);
        let flows = FlowSet::sampled(&HotspotTraffic::with_defaults(&g, seed), 120, seed);
        traffic_is_deterministic_on(&g, &pr, &multi, &flows);
    }
}

#[test]
fn geant_gravity_traffic_replay_parallel_equals_serial() {
    // The acceptance scenario: `pr traffic geant --model gravity
    // --family single --threads 4` must report weighted coverage, %
    // demand lost and max-link-utilisation bit-identically at 1/2/4
    // threads.
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        planar_embedding(&g, 2010),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

#[test]
fn teleglobe_traffic_replay_parallel_equals_serial() {
    // Identity embedding: positive genus, so some walks end in drops —
    // lost demand must merge identically too.
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        identity_embedding(&g),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

// ---- impaired timelines ------------------------------------------------

use pr_scenarios::{Impaired, ImpairmentProcess};

/// Quick Gilbert–Elliott decoration of the outage sweep.
fn quick_gilbert(graph: &Graph, seed: u64) -> Impaired<'_, OutageSweep<'_>> {
    Impaired::new(
        graph,
        OutageSweep::new(graph, quick_params()),
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 25.0, mean_down_ns: 8_000_000 },
        seed,
    )
}

fn impair_is_deterministic_on(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn TemporalFamily,
    flows: &FlowSet,
) {
    let reference = pr_bench::impair::run_serial(graph, pr, family, flows);
    assert_eq!(reference.len(), family.len());
    for threads in THREAD_COUNTS {
        let rows = pr_bench::impair::run(graph, pr, family, flows, threads);
        assert_eq!(
            rows,
            reference,
            "impaired timeline rows diverged from serial at {threads} threads ({})",
            family.label()
        );
    }
    // Same family, same seed, fresh run: byte-identical artefact.
    let again = pr_bench::impair::run_serial(graph, pr, family, flows);
    assert_eq!(
        pr_bench::impair::rows_csv(&again),
        pr_bench::impair::rows_csv(&reference),
        "two same-seed runs must render the identical CSV"
    );
}

#[test]
fn abilene_impaired_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    for seed in SEEDS {
        impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, seed), &flows);
        // Stacked decorators: Impaired<jitter, Impaired<storm, outage>>.
        let stacked = Impaired::new(
            &g,
            Impaired::new(
                &g,
                OutageSweep::new(&g, quick_params()),
                ImpairmentProcess::FlapStorm {
                    storms: 2,
                    radius_km: 800.0,
                    down_for_ns: 10_000_000,
                },
                seed,
            ),
            ImpairmentProcess::DetectionJitter { max_extra_ns: 2_000_000 },
            seed.rotate_left(17),
        );
        impair_is_deterministic_on(&g, &pr, &stacked, &flows);
    }
}

#[test]
fn geant_impaired_sweep_parallel_equals_serial() {
    // The acceptance scenario: `pr impair geant --process gilbert
    // --model gravity --format csv` must be bit-identical at 1/2/4
    // threads and across two same-seed runs.
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        planar_embedding(&g, 2010),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, 2010), &flows);
}

/// The acceptance identity: weighted coverage under the uniform *unit*
/// matrix is **bit-identical** to the unweighted coverage experiment's
/// PR-DD cell, scenario family and conditioning held equal.
#[test]
fn uniform_unit_traffic_matches_unweighted_coverage_bitwise() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr =
        PrNetwork::compile(&g, emb.clone(), PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    // Coverage row k=1 sweeps exactly the single-link family.
    let coverage = pr_bench::coverage::run(&g, &emb, 1, 0, 7, 2);
    let dd = &coverage[0].pr_dd;

    let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
    let singles = SingleLinkFailures::new(&g);
    let s = pr_bench::traffic::summarize(&pr_bench::traffic::run(&g, &pr, &singles, &flows, 2));

    assert_eq!(s.tally.evaluated, dd.evaluated as f64, "same conditioning, unit demand");
    assert_eq!(s.tally.evaluated_delivered, dd.delivered as f64);
    assert_eq!(s.weighted_coverage(), dd.ratio(), "bit-identical coverage ratio");
}
