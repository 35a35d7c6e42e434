//! `traffic-geant-k3`: demand-weighted replay under multi-failures.
//!
//! `pr_bench::traffic::run` replays the GEANT gravity all-pairs matrix
//! (1,122 flows) through all 22,100 three-link failure sets on two
//! threads, the sets visited in a seeded order. The work goes to the
//! bit-parallel dataplane and to colex unranking; no SPT repair and no
//! walk memo run here.

use std::time::{Duration, Instant};

use pr_bench::traffic::{run as replay_all, summarize, TrafficSummary};
use pr_core::{generous_ttl, DenseFib, PrNetwork};
use pr_graph::{AllPairs, Graph};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily};
use pr_topologies::{Isp, Weighting};
use pr_traffic::{replay_scenario_bitparallel, FlowSet, GravityTraffic, ReplayScratch};

use crate::layers::Layers;
use crate::setup::{compile, peak_rss_mb, repeat, timed_setup_process, Permuted, Report};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Config;

/// Links failed per scenario.
const K: usize = 3;
/// Engine threads: two, the core count the workload is sized for.
const THREADS: usize = 2;
/// Set-up processes timed after each sweep; `setup_s` is the median
/// over the run, so it samples the machine across the whole run.
const SETUPS_PER_SWEEP: usize = 2;
/// In-process set-ups of the traced run; layer times are their medians.
const TRACED_SETUPS: usize = 21;

/// The sweep summary pinned from `pr_bench::traffic::run_serial` (see
/// `perfbench pin`), as f64 bit patterns: offered, delivered,
/// evaluated, evaluated_delivered, disconnected, dropped,
/// stretch_weighted_sum, stretch_weight, max_link_utilisation.
/// Each scenario's tally is order-independent; the sweep total is a
/// float sum, so rows are folded in the family's own order first.
pub const PINNED_TALLY: [u64; 9] = [
    0x4177_a5c2_7fff_ffff,
    0x4177_9570_70ea_e728,
    0x414e_0d55_83d0_90ab,
    0x414e_0d55_83d0_90ab,
    0x40f0_520f_1518_951e,
    0x0,
    0x4170_078b_fd65_8002,
    0x414e_0d55_83d0_90ab,
    0x3fe0_7076_7887_ff93,
];
/// Pinned flow-scenario replays (flows × scenarios).
pub const PINNED_FLOWS: u64 = 24_796_200;

pub(crate) struct Setup {
    graph: Graph,
    net: PrNetwork,
    flows: FlowSet,
    family: Permuted<ExhaustiveKFailures>,
}

pub(crate) fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    tr.span("setup", |tr| {
        let graph = tr.span("graph.load", |_| pr_topologies::load(Isp::Geant, Weighting::Distance));
        let net = compile(&graph, tr);
        let flows =
            tr.span("traffic.flowset", |_| FlowSet::all_pairs(&GravityTraffic::new(&graph)));
        let family = Permuted::new(ExhaustiveKFailures::new(&graph, K), seed);
        Setup { graph, net, flows, family }
    })
}

/// The summary figures compared against [`PINNED_TALLY`].
pub fn tally_bits(s: &TrafficSummary) -> [u64; 9] {
    let t = &s.tally;
    [
        t.offered,
        t.delivered,
        t.evaluated,
        t.evaluated_delivered,
        t.disconnected,
        t.dropped,
        t.stretch_weighted_sum,
        t.stretch_weight,
        s.max_link_utilisation,
    ]
    .map(f64::to_bits)
}

fn check(s: &TrafficSummary) -> Option<String> {
    if s.tally.flows != PINNED_FLOWS {
        return Some(format!("{} flow replays (want {PINNED_FLOWS})", s.tally.flows));
    }
    if s.weighted_coverage() != 1.0 {
        return Some(format!("weighted coverage {} (want exactly 1)", s.weighted_coverage()));
    }
    let bits = tally_bits(s);
    (bits != PINNED_TALLY).then(|| format!("summary {bits:x?} != pinned {PINNED_TALLY:x?}"))
}

/// One sweep: its summary, folded in the family's own scenario order
/// (the order `run_serial` folds in, so the float sums match bit for
/// bit), and its wall time in seconds (the fold excluded).
fn sweep(s: &Setup, threads: usize) -> (TrafficSummary, f64) {
    let t = Instant::now();
    let mut rows = replay_all(&s.graph, &s.net, &s.family, &s.flows, threads);
    let dt = t.elapsed().as_secs_f64();
    for r in &mut rows {
        r.scenario = s.family.original(r.scenario);
    }
    rows.sort_unstable_by_key(|r| r.scenario);
    (summarize(&rows), dt)
}

/// Sweeps for `budget` (at least `min` sweeps), checking each and
/// calling `between` after it, outside the sweep's time; returns
/// the sweep times and the last sweep's summary.
fn measure(
    s: &Setup,
    budget: Duration,
    min: usize,
    report: &mut Report,
    tr: &mut Tracer,
    between: &mut dyn FnMut(),
) -> (Vec<f64>, TrafficSummary) {
    repeat(budget, min, || {
        let (summary, dt) = tr.span("bench.traffic_sweep", |_| sweep(s, THREADS));
        report.op(check(&summary));
        between();
        (summary, dt)
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tr = Tracer::off();
    let s = setup(cfg.seed, &mut tr);
    let mut setups = Vec::new();
    let (times, summary) = measure(&s, cfg.seconds, 3, &mut report, &mut tr, &mut || {
        for _ in 0..SETUPS_PER_SWEEP {
            setups.push(timed_setup_process("traffic-geant-k3", cfg.seed));
        }
    });
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let sweep_s = median(&times).expect("at least one sweep");
    let replays = (s.flows.len() * s.family.len()) as f64;
    report.metric("setup_s", median(&setups).expect("set-ups ran"), "s");
    report.metric("work_per_s", replays / sweep_s, "1/s");
    report.metric("op_p50_ms", sweep_s * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(None)?, "MiB");
    report.info.push(format!(
        "flows_per_s {:.0} 1/s ({} sweeps of {} flows x {} scenarios, median {:.1} ms; \
         {:.4} % of demand lost)",
        replays / sweep_s,
        times.len(),
        s.flows.len(),
        s.family.len(),
        sweep_s * 1e3,
        summary.demand_lost_fraction() * 100.0
    ));
    Ok(report)
}

/// The traced run: per-layer metrics and the tracing overhead.
pub fn run_traced(cfg: &Config, tr: &mut Tracer) -> Result<(Report, Layers), String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut s = None;
    for _ in 0..TRACED_SETUPS {
        s = Some(setup(cfg.seed, tr));
    }
    let s = s.expect("at least one set-up");
    layers.median_ms(tr, "graph.load_ms", "graph.load");
    layers.median_ms(tr, "embedding.embed_ms", "embedding.embed");
    layers.median_ms(tr, "core.compile_ms", "core.compile");
    layers.median_ms(tr, "traffic.flowset_ms", "traffic.flowset");

    // Base trees and dense FIB: built inside every `traffic::run`,
    // timed here on their own.
    let mut hoisted = None;
    for _ in 0..5 {
        let base = tr.span("graph.allpairs", |_| AllPairs::compute_all_live(&s.graph));
        let dense = tr.span("core.densefib", |_| DenseFib::from_base(&s.graph, &base));
        hoisted = Some((base, dense));
    }
    let (base, dense) = hoisted.expect("five builds");
    layers.median_ms(tr, "graph.allpairs_ms", "graph.allpairs");
    layers.median_ms(tr, "core.densefib_ms", "core.densefib");

    layers.set("scenarios.unrank_ns", s.family.unrank_ns(tr));

    // One bit-parallel replay per scenario, serially.
    let agent = s.net.agent(&s.graph);
    let ttl = generous_ttl(&s.graph);
    let mut scratch = ReplayScratch::new();
    for i in 0..s.family.len() {
        let failed = s.family.scenario(i);
        tr.span("replay.scenario", |_| {
            replay_scenario_bitparallel(
                &s.graph,
                &agent,
                &dense,
                &base,
                &s.flows,
                &failed,
                ttl,
                &mut scratch,
            )
        });
    }
    let replays = tr.durations_us("replay.scenario");
    layers.set("replay.scenario_p50_us", percentile(&replays, 50.0).unwrap_or(0.0));
    layers.set("replay.scenario_p90_us", percentile(&replays, 90.0).unwrap_or(0.0));

    let (_, t1) = tr.span("bench.traffic_sweep_1t", |_| sweep(&s, 1));
    let (_, t2) = tr.span("bench.traffic_sweep", |_| sweep(&s, THREADS));
    layers.set("engine.speedup_2t", t1 / t2);

    let half = cfg.seconds / 2;
    let mut off = Tracer::off();
    let (untraced, _) = measure(&s, half, 2, &mut report, &mut off, &mut || {});
    let (traced, summary) = measure(&s, half, 2, &mut report, tr, &mut || {});
    let (u, t) = (median(&untraced).expect("sweeps"), median(&traced).expect("sweeps"));
    layers.set("trace.overhead_pct", (t / u - 1.0) * 100.0);
    let offered = summary.tally.offered;
    layers.set("replay.fallback_share", summary.tally.evaluated / offered);
    layers.set("replay.disconnected_share", summary.tally.disconnected / offered);
    let flows = (s.flows.len() * s.family.len()) as f64;
    report.info.push(format!(
        "traced flows_per_s {:.0} 1/s, untraced {:.0} 1/s in the same process",
        flows / t,
        flows / u
    ));
    Ok((report, layers))
}

/// Recomputes the pinned figures from the serial reference.
pub fn pin() {
    let mut tr = Tracer::off();
    let s = setup(0, &mut tr);
    let identity = ExhaustiveKFailures::new(&s.graph, K);
    let rows = pr_bench::traffic::run_serial(&s.graph, &s.net, &identity, &s.flows);
    let summary = summarize(&rows);
    println!(
        "traffic-geant-k3: flows {} coverage {} tally {:#x?}",
        summary.tally.flows,
        summary.weighted_coverage(),
        tally_bits(&summary)
    );
}
