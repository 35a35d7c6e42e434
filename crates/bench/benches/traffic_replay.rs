//! Throughput micro-benchmark for the flow-replay dataplanes, plus
//! the flows/s regression gate.
//!
//! Two rungs per topology:
//!
//! * `naive` — one `walk_packet` per flow, fresh scratch, per-
//!   destination from-scratch survivor trees: the per-packet oracle.
//! * `bitparallel` — the destination-major dataplane: u64
//!   affected-set classification over the staged dense FIB, bottom-up
//!   subtree demand aggregation for clear flows, per-flow fallback
//!   only for affected-but-connected sources.
//!
//! Both produce the identical `ScenarioTraffic` (asserted by the
//! pr-traffic tests, proptests and the determinism suite); only the
//! time per replayed flow differs. BENCH_pr6.json records the medians
//! and derived flows/sec.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on the GÉANT single-failure sweep the bit-parallel
//! dataplane must clear ≥ 2x the throughput of the retired per-flow
//! batched dataplane, expressed against the naive oracle measured in
//! the same process — ≥ 2 × [`NAIVE_OVER_BATCHED`] × naive — and must
//! never fall below the batched dataplane's recorded median (19.0M
//! flows/s), a hard floor against absolute regressions.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_core::{generous_ttl, DenseFib, DiscriminatorKind, PrMode, PrNetwork};
use pr_graph::AllPairs;
use pr_scenarios::{ScenarioFamily, SingleLinkFailures};
use pr_topologies::{Isp, Weighting};
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, GravityTraffic, ReplayScratch,
};

/// The batched dataplane's recorded GÉANT median (BENCH_pr5.json): the
/// hard flows/s floor for the bit-parallel dataplane.
const BATCHED_FLOWS_PER_SEC: f64 = 19.0e6;

/// How many times faster the per-flow batched dataplane (per-flow FIB
/// chase, reused scratch, incremental SPT repair) replayed the GÉANT
/// single-failure sweep than the naive oracle: the median over nine
/// interleaved best-of-20 rounds of this harness, timed just before
/// that dataplane was deleted (range 5.76–6.11x on a 2-core x86-64
/// container). The gate keeps the old "≥ 2x batched" bar by scaling it
/// onto the oracle that remains.
const NAIVE_OVER_BATCHED: f64 = 5.88;

struct Setup {
    graph: pr_graph::Graph,
    net: PrNetwork,
    base: AllPairs,
    dense: DenseFib,
    flows: FlowSet,
    singles: SingleLinkFailures,
    ttl: usize,
}

fn setup(isp: Isp) -> Setup {
    let graph = pr_topologies::load(isp, Weighting::Distance);
    let rot = pr_embedding::heuristics::thorough(&graph, 2010, 4, 20_000);
    let emb = pr_embedding::CellularEmbedding::new(&graph, rot).expect("connected");
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let base = AllPairs::compute_all_live(&graph);
    let dense = DenseFib::from_base(&graph, &base);
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&graph));
    let singles = SingleLinkFailures::new(&graph);
    let ttl = generous_ttl(&graph);
    Setup { graph, net, base, dense, flows, singles, ttl }
}

/// One full single-failure sweep through the bit-parallel dataplane.
fn sweep_bitparallel(
    s: &Setup,
    agent: &pr_core::PrAgent<'_>,
    scratch: &mut ReplayScratch<pr_core::PrHeader>,
) {
    for i in 0..s.singles.len() {
        let failed = s.singles.scenario(i);
        black_box(replay_scenario_bitparallel(
            &s.graph, agent, &s.dense, &s.base, &s.flows, &failed, s.ttl, scratch,
        ));
    }
}

/// One full single-failure sweep through the naive per-packet oracle.
fn sweep_naive(s: &Setup, agent: &pr_core::PrAgent<'_>) {
    for i in 0..s.singles.len() {
        let failed = s.singles.scenario(i);
        black_box(replay_scenario_naive(&s.graph, agent, &s.base, &s.flows, &failed, s.ttl));
    }
}

/// The flows/s regression gate on GÉANT. Panics (failing the bench
/// run, `--test` smoke mode included) when the bit-parallel dataplane
/// falls below 2 × [`NAIVE_OVER_BATCHED`] times the naive oracle or
/// below the batched dataplane's recorded absolute median.
///
/// Measurement discipline: the two sweeps are timed **interleaved**
/// (naive, bit-parallel, naive, …) and each takes its best (minimum)
/// round. Shared-machine throttling then hits both sides of the ratio
/// alike instead of whichever happened to run second, and the minimum
/// over 20 rounds is a stable point estimate where a best-of-3
/// sequential measurement flaked.
fn flows_per_sec_gate() {
    let s = setup(Isp::Geant);
    let agent = s.net.agent(&s.graph);
    let flows_per_sweep = (s.flows.len() * s.singles.len()) as f64;

    let mut scratch = ReplayScratch::new();
    // Warmup both paths, then 20 interleaved rounds.
    sweep_naive(&s, &agent);
    sweep_bitparallel(&s, &agent, &mut scratch);
    let (mut naive_secs, mut bp_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        let t = Instant::now();
        sweep_naive(&s, &agent);
        naive_secs = naive_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sweep_bitparallel(&s, &agent, &mut scratch);
        bp_secs = bp_secs.min(t.elapsed().as_secs_f64());
    }

    let naive_fps = flows_per_sweep / naive_secs;
    let bp_fps = flows_per_sweep / bp_secs;
    let speedup = bp_fps / naive_fps;
    let required = 2.0 * NAIVE_OVER_BATCHED;
    println!(
        "gate: geant bit-parallel {:.1}M flows/s, naive {:.2}M flows/s, speedup {speedup:.2}x \
         (required {required:.2}x, floor {:.1}M)",
        bp_fps / 1e6,
        naive_fps / 1e6,
        BATCHED_FLOWS_PER_SEC / 1e6,
    );
    assert!(
        speedup >= required,
        "flows/s gate: bit-parallel must be >= {required:.2}x naive on geant, got {speedup:.2}x \
         ({:.1}M vs {:.2}M flows/s)",
        bp_fps / 1e6,
        naive_fps / 1e6,
    );
    assert!(
        bp_fps >= BATCHED_FLOWS_PER_SEC,
        "flows/s gate: bit-parallel fell below the batched dataplane's recorded median \
         ({:.1}M < {:.1}M flows/s)",
        bp_fps / 1e6,
        BATCHED_FLOWS_PER_SEC / 1e6,
    );
}

fn bench_traffic_replay(c: &mut Criterion) {
    flows_per_sec_gate();

    let mut group = c.benchmark_group("traffic_replay");
    for isp in [Isp::Abilene, Isp::Geant] {
        let s = setup(isp);
        let agent = s.net.agent(&s.graph);
        let label = format!("{isp}/{}flows-x{}scenarios", s.flows.len(), s.singles.len());

        // One iteration = the full single-failure sweep of the matrix
        // (the per-scenario work unit of pr_bench::traffic::run, run
        // serially so the variants compare dataplanes, not thread
        // counts).
        group.bench_with_input(BenchmarkId::new("bitparallel", &label), &s, |b, s| {
            let mut scratch = ReplayScratch::new();
            b.iter(|| sweep_bitparallel(s, &agent, &mut scratch))
        });

        group.bench_with_input(BenchmarkId::new("naive", &label), &s, |b, s| {
            b.iter(|| sweep_naive(s, &agent))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_traffic_replay);
criterion_main!(benches);
