//! `stretch-isp300`: the ISP-scale Figure-2 sweep.
//!
//! `pr_bench::stretch::run_with_stats` over every single-link failure
//! of `synth:isp:300` (660 scenarios × 300 destinations) on two engine
//! threads, with the scenarios visited in a seeded order. Its time goes
//! to cone SPT repair, memoized agent walks and FCP; the traffic
//! dataplane and the daemon do no work here.

use std::time::{Duration, Instant};

use pr_bench::stretch::{run_with_stats, StretchSamples, SweepStats};
use pr_core::PrNetwork;
use pr_graph::{AllPairs, Graph, SpScratch};
use pr_scenarios::{ScenarioFamily, SingleLinkFailures};

use crate::layers::Layers;
use crate::ops::mix64;
use crate::setup::{compile, peak_rss_mb, repeat, timed_setup_process, Permuted, Report};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Config;

/// The topology: the seeded 300-node synthetic ISP mesh.
pub const SPEC: &str = "isp:300:2010";
/// Engine threads: two, the core count the workload is sized for.
const THREADS: usize = 2;
/// Set-up processes timed after each sweep; `setup_s` is the median
/// over the run, so it samples the machine across the whole run.
const SETUPS_PER_SWEEP: usize = 2;
/// In-process set-ups of the traced run; layer times are their medians.
const TRACED_SETUPS: usize = 9;

/// Figures pinned from `pr_bench::stretch::run_serial` over the same
/// topology and family (see `perfbench pin`). The digest is
/// order-independent, so it holds for every scenario order.
pub const PINNED_PAIRS: usize = 893_212;
/// Pinned pairs the failures disconnected.
pub const PINNED_DISCONNECTED: usize = 0;
/// Pinned multiset digest of all three schemes' samples.
pub const PINNED_DIGEST: u64 = 0x4d9d_11c4_1860_af2b;

pub(crate) struct Setup {
    graph: Graph,
    net: PrNetwork,
    family: Permuted<SingleLinkFailures>,
}

pub(crate) fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    tr.span("setup", |tr| {
        let graph = tr.span("graph.load", |_| {
            pr_graph::generators::synth_from_spec(SPEC).expect("valid synth spec")
        });
        let net = compile(&graph, tr);
        let family = Permuted::new(SingleLinkFailures::new(&graph), seed);
        Setup { graph, net, family }
    })
}

/// Order-independent digest of a sample panel: a wrapping sum of mixed
/// sample bits per scheme, so any scenario order gives the same value.
pub fn digest(s: &StretchSamples) -> u64 {
    let mut acc = 0u64;
    for (salt, xs) in [(1u64, &s.reconvergence), (2, &s.fcp), (3, &s.packet_recycling)] {
        let mut part = 0u64;
        for x in xs {
            part = part.wrapping_add(mix64(x.to_bits() ^ salt.wrapping_mul(0x9e37_79b9)));
        }
        acc = mix64(acc ^ part ^ salt);
    }
    acc
}

/// Checks one sweep's output against the pinned figures.
fn check(s: &StretchSamples) -> Option<String> {
    if s.undelivered_pr != 0 || s.undelivered_fcp != 0 {
        return Some(format!(
            "undelivered: pr {} fcp {} (want 0)",
            s.undelivered_pr, s.undelivered_fcp
        ));
    }
    if s.evaluated_pairs != PINNED_PAIRS || s.disconnected_pairs != PINNED_DISCONNECTED {
        return Some(format!(
            "pairs {} disconnected {} (want {PINNED_PAIRS}, {PINNED_DISCONNECTED})",
            s.evaluated_pairs, s.disconnected_pairs
        ));
    }
    let d = digest(s);
    (d != PINNED_DIGEST).then(|| format!("sample digest {d:#018x} != pinned {PINNED_DIGEST:#018x}"))
}

fn sweep(s: &Setup, threads: usize) -> (StretchSamples, SweepStats, f64) {
    let t = Instant::now();
    let (samples, stats) = run_with_stats(&s.graph, &s.net, &s.family, threads);
    (samples, stats, t.elapsed().as_secs_f64())
}

/// Sweeps for `budget` (at least `min` sweeps), checking each and
/// calling `between` after it, outside the sweep's time; returns
/// the sweep times and the last sweep's output.
fn measure(
    s: &Setup,
    budget: Duration,
    min: usize,
    report: &mut Report,
    tr: &mut Tracer,
    between: &mut dyn FnMut(),
) -> (Vec<f64>, (StretchSamples, SweepStats)) {
    repeat(budget, min, || {
        let (samples, stats, dt) = tr.span("bench.stretch_sweep", |_| sweep(s, THREADS));
        report.op(check(&samples));
        between();
        ((samples, stats), dt)
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tr = Tracer::off();
    let s = setup(cfg.seed, &mut tr);
    let mut setups = Vec::new();
    let (times, ..) = measure(&s, cfg.seconds, 3, &mut report, &mut tr, &mut || {
        for _ in 0..SETUPS_PER_SWEEP {
            setups.push(timed_setup_process("stretch-isp300", cfg.seed));
        }
    });
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let sweep_s = median(&times).expect("at least one sweep");
    report.metric("setup_s", median(&setups).expect("set-ups ran"), "s");
    report.metric("work_per_s", PINNED_PAIRS as f64 / sweep_s, "1/s");
    report.metric("op_p50_ms", sweep_s * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(None)?, "MiB");
    report.info.push(format!(
        "pairs_per_s {:.0} 1/s ({} sweeps of {PINNED_PAIRS} affected connected pairs, median {:.1} ms)",
        PINNED_PAIRS as f64 / sweep_s,
        times.len(),
        sweep_s * 1e3
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

    // Base trees: built inside every sweep, timed here on their own.
    let mut base = None;
    for _ in 0..3 {
        base = Some(tr.span("graph.allpairs", |_| AllPairs::compute_all_live(&s.graph)));
    }
    let base = base.expect("three builds");
    layers.median_ms(tr, "graph.allpairs_ms", "graph.allpairs");

    // Whole-view repair over each of the workload's failed sets.
    let mut scratch = SpScratch::new();
    for i in 0..s.family.len() {
        let failed = s.family.scenario(i);
        tr.span("graph.repair", |_| base.repair_from(&s.graph, &failed, &mut scratch));
    }
    let repairs = tr.durations_us("graph.repair");
    layers.set("graph.repair_p50_us", percentile(&repairs, 50.0).unwrap_or(0.0));
    layers.set("graph.repair_p90_us", percentile(&repairs, 90.0).unwrap_or(0.0));

    layers.set("scenarios.unrank_ns", s.family.unrank_ns(tr));

    // Engine scaling: one sweep on one thread against one on two.
    let (_, _, t1) = tr.span("bench.stretch_sweep_1t", |_| sweep(&s, 1));
    let (_, _, t2) = tr.span("bench.stretch_sweep", |_| sweep(&s, THREADS));
    layers.set("engine.speedup_2t", t1 / t2);

    // Overhead: the same sweeps untraced, then traced.
    let half = cfg.seconds / 2;
    let mut off = Tracer::off();
    let (untraced, ..) = measure(&s, half, 2, &mut report, &mut off, &mut || {});
    let (traced, (samples, stats)) = measure(&s, half, 2, &mut report, tr, &mut || {});
    let (u, t) = (median(&untraced).expect("sweeps"), median(&traced).expect("sweeps"));
    layers.set("trace.overhead_pct", (t / u - 1.0) * 100.0);

    layers.set("graph.repairs", stats.repair.repairs as f64);
    layers.set("graph.repair_cone_fraction", stats.repair.cone_fraction());
    layers.set("graph.full_rebuilds", stats.repair.full_rebuilds as f64);
    layers.set("core.memo_lookups", stats.memo.lookups as f64);
    layers.set("core.memo_hit_rate", stats.memo.hit_rate());
    layers.set("core.memo_spliced_share", stats.memo.spliced_share());
    layers.set("stretch.pairs", samples.evaluated_pairs as f64);
    layers.set("stretch.undelivered", samples.undelivered as f64);
    report.info.push(format!(
        "traced pairs_per_s {:.0} 1/s, untraced {:.0} 1/s in the same process",
        PINNED_PAIRS as f64 / t,
        PINNED_PAIRS as f64 / u
    ));
    Ok((report, layers))
}

/// Recomputes the pinned figures from the serial reference.
pub fn pin() {
    let mut tr = Tracer::off();
    let s = setup(0, &mut tr);
    let identity = SingleLinkFailures::new(&s.graph);
    let samples = pr_bench::stretch::run_serial(&s.graph, &s.net, &identity);
    println!(
        "stretch-isp300: pairs {} disconnected {} undelivered {} digest {:#018x}",
        samples.evaluated_pairs,
        samples.disconnected_pairs,
        samples.undelivered,
        digest(&samples)
    );
}
