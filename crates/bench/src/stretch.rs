//! The stretch experiment — the paper's Figure 2.
//!
//! For each failure scenario and each (src, dst) pair whose
//! failure-free shortest path is *affected* (crosses a failed link)
//! and which remains connected, record the **stretch**: the ratio of
//! the cost of the path the scheme actually delivers over to the
//! failure-free shortest-path cost (§6). Per panel and scheme, the
//! paper plots the complementary CDF `P(stretch > x | path)`.
//!
//! The sweep routes through [`crate::engine`]; partial samples are
//! concatenated in work-unit order, so [`run`] is bit-identical to
//! [`run_serial`] at any thread count (enforced by
//! `tests/determinism.rs`).

use serde::{Deserialize, Serialize};

use pr_baselines::FcpAgent;
use pr_core::{
    generous_ttl, walk_packet, walk_packet_spliced, MemoStats, PrNetwork, SuffixMemo, WalkResult,
    WalkScratch,
};
use pr_graph::{AllPairs, Graph, NodeId, RepairStats, SpScratch, SpTree, TreeChildren};
use pr_scenarios::{ScenarioFamily, ScenarioIter};

use crate::engine::ScenarioSweep;

/// Scheme identifiers used in experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheme {
    /// Post-convergence shortest paths (survivor optimum).
    Reconvergence,
    /// Failure-Carrying Packets.
    Fcp,
    /// Packet Re-cycling (distance-discriminator mode).
    PacketRecycling,
}

impl Scheme {
    /// All schemes, in the paper's legend order.
    pub const ALL: [Scheme; 3] = [Scheme::Reconvergence, Scheme::Fcp, Scheme::PacketRecycling];

    /// Label used in CSV headers (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Reconvergence => "reconvergence",
            Scheme::Fcp => "fcp",
            Scheme::PacketRecycling => "packet-recycling",
        }
    }
}

/// Raw stretch samples per scheme, plus bookkeeping on conditioning.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StretchSamples {
    /// Delivered-path stretch values, one per (scenario, affected pair).
    pub reconvergence: Vec<f64>,
    /// FCP stretch values.
    pub fcp: Vec<f64>,
    /// PR stretch values.
    pub packet_recycling: Vec<f64>,
    /// (scenario, pair) combinations whose endpoints were disconnected
    /// by the scenario (excluded by the paper's "| path" conditioning).
    pub disconnected_pairs: usize,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: usize,
    /// Deliveries that failed although a path existed (should be zero
    /// for all three schemes on genus-0 embeddings; reported honestly).
    /// Always `undelivered_fcp + undelivered_pr` — reconvergence is a
    /// shortest-path computation and cannot fail on a connected pair.
    pub undelivered: usize,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: usize,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: usize,
}

impl StretchSamples {
    /// The sample vector for one scheme.
    pub fn of(&self, scheme: Scheme) -> &[f64] {
        match scheme {
            Scheme::Reconvergence => &self.reconvergence,
            Scheme::Fcp => &self.fcp,
            Scheme::PacketRecycling => &self.packet_recycling,
        }
    }

    /// Appends another partial result (work-unit order must be
    /// preserved by the caller for bit-identical output).
    fn absorb(&mut self, part: StretchSamples) {
        self.reconvergence.extend(part.reconvergence);
        self.fcp.extend(part.fcp);
        self.packet_recycling.extend(part.packet_recycling);
        self.disconnected_pairs += part.disconnected_pairs;
        self.evaluated_pairs += part.evaluated_pairs;
        self.undelivered += part.undelivered;
        self.undelivered_fcp += part.undelivered_fcp;
        self.undelivered_pr += part.undelivered_pr;
    }

    fn drop_fcp(&mut self) {
        self.undelivered += 1;
        self.undelivered_fcp += 1;
    }

    fn drop_pr(&mut self) {
        self.undelivered += 1;
        self.undelivered_pr += 1;
    }
}

/// Runs the stretch experiment for one topology over a failure
/// family's scenarios on `threads` workers, using a precompiled PR
/// network (its embedding is the expensive part — compile once, reuse
/// across panels). Scenarios stream from the family; an explicit
/// `Vec<LinkSet>` works too (it implements [`ScenarioFamily`]).
pub fn run(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> StretchSamples {
    run_with_stats(graph, pr, family, threads).0
}

/// Per-worker mutable state of the stretch sweep.
struct StretchWorker<'a> {
    fcp: FcpAgent<'a>,
    fcp_scratch: WalkScratch<pr_baselines::FcpState>,
    pr_scratch: WalkScratch<pr_core::PrHeader>,
    sp_scratch: SpScratch,
    /// Delivered-suffix memos, evicted at every unit boundary and
    /// reused across units like `sp_scratch`.
    fcp_memo: SuffixMemo<pr_baselines::FcpState>,
    pr_memo: SuffixMemo<pr_core::PrHeader>,
    /// Affected-source buffer of the current unit, ascending node id.
    cone: Vec<NodeId>,
    /// DFS stack for the cone enumeration.
    stack: Vec<NodeId>,
}

/// Auxiliary statistics of one stretch sweep: live-tree incremental
/// repair counters plus walk-memo counters (FCP and PR memos summed),
/// merged over work units in unit order so totals are thread-count
/// invariant. This is what `pr sweep --stats` prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Shortest-path-tree repair counters.
    pub repair: RepairStats,
    /// Suffix-memo counters of the walk engine.
    pub memo: MemoStats,
}

impl SweepStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &SweepStats) {
        self.repair.merge(&other.repair);
        self.memo.merge(&other.memo);
    }
}

/// [`run`], additionally reporting the sweep's auxiliary statistics
/// ([`SweepStats`]): the repair cone fraction is the share of
/// per-destination labels a scenario actually forced us to recompute,
/// and the memo hit rate / spliced share say how much walking the
/// suffix memo answered from cache.
pub fn run_with_stats(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> (StretchSamples, SweepStats) {
    let parts = sweep_parts(graph, pr, family, threads);
    let mut out = StretchSamples::default();
    let mut stats = SweepStats::default();
    for (part, part_stats) in parts {
        out.absorb(part);
        stats.merge(&part_stats);
    }
    (out, stats)
}

/// The engine-parallel sweep, returning one partial result per
/// (scenario × destination) work unit in unit order. [`run_with_stats`]
/// folds the units into one panel; [`run_rows`] folds them into
/// per-scenario aggregates for sharded checkpointing. Walks splice
/// memoized delivered suffixes; the samples are bit-identical to
/// [`run_serial`]'s plain walks (enforced by `tests/determinism.rs`
/// and the memo proptest).
fn sweep_parts(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> Vec<(StretchSamples, SweepStats)> {
    let base = AllPairs::compute_all_live(graph);
    // Child index per destination tree, built once: lets every unit
    // enumerate its affected sources (the subtrees below failed tree
    // edges) in O(cone) instead of classifying all n nodes.
    let children: Vec<TreeChildren> =
        graph.nodes().map(|d| TreeChildren::build(graph, base.towards(d))).collect();
    let pr_agent = pr.agent(graph);
    let ttl = generous_ttl(graph);

    let sweep = ScenarioSweep::new(graph, family, &base, threads);
    sweep.run_with(
        || StretchWorker {
            fcp: FcpAgent::cached_with_base(graph, sweep.base()),
            fcp_scratch: WalkScratch::new(),
            pr_scratch: WalkScratch::new(),
            sp_scratch: SpScratch::new(),
            fcp_memo: SuffixMemo::new(),
            pr_memo: SuffixMemo::new(),
            cone: Vec::new(),
            stack: Vec::new(),
        },
        // Scenario boundary: evict the FCP route memo (its keys are
        // subsets of the departing scenario's failures).
        |w, _| w.fcp.begin_scenario(),
        |w, unit| {
            let StretchWorker {
                fcp,
                fcp_scratch,
                pr_scratch,
                sp_scratch,
                fcp_memo,
                pr_memo,
                cone,
                stack,
            } = w;
            let mut out = StretchSamples::default();
            // The affected sources, ascending — same set and order as
            // filtering `graph.nodes()` through `path_crosses`. An
            // empty cone means no base path towards `dst` crosses a
            // failure and the unit contributes nothing.
            unit.base_tree.affected_cone(
                graph,
                &children[unit.dst.index()],
                unit.failed,
                cone,
                stack,
            );
            if cone.is_empty() {
                return (out, SweepStats::default());
            }
            // Repair only the cone's distance labels: everything the
            // samples below read (the destination is never in the
            // cone — it is the tree root).
            unit.base_tree.repair_cone_labels(graph, unit.failed, cone, sp_scratch);
            // The debug-build cross-check against the reconvergence
            // agent's own tables (see `run_serial`) is per scenario
            // there; here it would recompute per unit, so it lives in
            // the serial reference only.
            // Suffixes are unit-scoped, so evict before the first walk
            // of this (failed, dst) unit.
            fcp_memo.begin_unit();
            pr_memo.begin_unit();
            for &src in cone.iter() {
                debug_assert_ne!(src, unit.dst, "tree root cannot be below a tree edge");
                let Some(reconv_cost) = sp_scratch.cone_cost(src) else {
                    out.disconnected_pairs += 1;
                    continue;
                };
                out.evaluated_pairs += 1;
                let optimal = unit.base_tree.cost(src).expect("connected");

                // Reconvergence: the survivor shortest path, by
                // definition — no need to walk it.
                out.reconvergence.push(reconv_cost as f64 / optimal as f64);

                // FCP: walk with incremental failure discovery.
                let w = walk_packet_spliced(
                    graph,
                    fcp,
                    src,
                    unit.dst,
                    unit.failed,
                    ttl,
                    fcp_scratch,
                    fcp_memo,
                );
                if w.result.is_delivered() {
                    out.fcp.push(w.cost as f64 / optimal as f64);
                } else {
                    out.drop_fcp();
                }

                // PR: cycle following.
                let w = walk_packet_spliced(
                    graph,
                    &pr_agent,
                    src,
                    unit.dst,
                    unit.failed,
                    ttl,
                    pr_scratch,
                    pr_memo,
                );
                match w.result {
                    WalkResult::Delivered => {
                        out.packet_recycling.push(w.cost as f64 / optimal as f64)
                    }
                    WalkResult::Dropped(_) => out.drop_pr(),
                }
            }
            let mut memo_stats = fcp_memo.take_stats();
            memo_stats.merge(&pr_memo.take_stats());
            (out, SweepStats { repair: sp_scratch.take_stats(), memo: memo_stats })
        },
    )
}

/// Per-scenario aggregate of the stretch sweep — the unit of sharded
/// checkpointing (see [`crate::shards`]). A row carries everything the
/// CSV/report artefacts need — integer CCDF counts at [`figure2_xs`],
/// per-scheme sums and maxima — at O(1) size per scenario, so
/// checkpoints of 1,000-node sweeps stay kilobytes where raw sample
/// vectors would be hundreds of megabytes.
///
/// Determinism: a row is folded from its scenario's work units in unit
/// order, entirely within one shard (shards split on scenario
/// boundaries), so rows are invariant to thread *and* shard counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Index of the scenario in the (unsliced) family.
    pub scenario: u64,
    /// Number of links the scenario fails.
    pub failures: u64,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: u64,
    /// Affected pairs excluded because the scenario disconnected them.
    pub disconnected_pairs: u64,
    /// Deliveries that failed although a path existed (FCP + PR).
    pub undelivered: u64,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: u64,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: u64,
    /// Sample count per scheme ([`Scheme::ALL`] order).
    pub samples: [u64; 3],
    /// Sum of stretch values per scheme, added in sample order.
    pub sum: [f64; 3],
    /// Maximum stretch per scheme (0 when the scheme has no samples).
    pub max: [f64; 3],
    /// CCDF counts, scheme-major: `above[s * xs + i]` is the number of
    /// scheme-`s` samples strictly above `figure2_xs()[i]`.
    pub above: Vec<u64>,
}

impl ScenarioRow {
    /// Aggregates one scenario's samples at the CCDF thresholds `xs`.
    fn from_samples(scenario: u64, failures: u64, s: &StretchSamples, xs: &[f64]) -> ScenarioRow {
        let mut samples = [0u64; 3];
        let mut sum = [0.0f64; 3];
        let mut max = [0.0f64; 3];
        let mut above = vec![0u64; 3 * xs.len()];
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            let v = s.of(*scheme);
            samples[i] = v.len() as u64;
            for &value in v {
                sum[i] += value;
                max[i] = max[i].max(value);
            }
            for (j, &x) in xs.iter().enumerate() {
                above[i * xs.len() + j] = v.iter().filter(|&&s| s > x).count() as u64;
            }
        }
        ScenarioRow {
            scenario,
            failures,
            evaluated_pairs: s.evaluated_pairs as u64,
            disconnected_pairs: s.disconnected_pairs as u64,
            undelivered: s.undelivered as u64,
            undelivered_fcp: s.undelivered_fcp as u64,
            undelivered_pr: s.undelivered_pr as u64,
            samples,
            sum,
            max,
            above,
        }
    }
}

/// Runs the stretch sweep over `family` and folds it into one
/// [`ScenarioRow`] per scenario, with row indices offset by
/// `first_scenario` (pass a [`pr_scenarios::ScenarioSlice`] plus its
/// start to sweep one shard of a larger family).
pub fn run_rows(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
    first_scenario: usize,
) -> Vec<ScenarioRow> {
    let n = graph.node_count().max(1);
    let xs = figure2_xs();
    let parts = sweep_parts(graph, pr, family, threads);
    let mut rows = Vec::with_capacity(family.len());
    let mut acc = StretchSamples::default();
    for (idx, (part, _stats)) in parts.into_iter().enumerate() {
        acc.absorb(part);
        if (idx + 1) % n == 0 {
            let scenario = idx / n;
            let failures = family.scenario(scenario).len() as u64;
            let absolute = (first_scenario + scenario) as u64;
            rows.push(ScenarioRow::from_samples(absolute, failures, &acc, &xs));
            acc = StretchSamples::default();
        }
    }
    rows
}

/// [`panel_csv`] reconstructed from per-scenario rows: byte-identical
/// to the raw-sample rendering, because the CCDF numerators are exact
/// integer sums over rows and the denominators are the exact totals.
/// `xs` must be the thresholds the rows were aggregated at
/// ([`figure2_xs`]).
pub fn panel_csv_from_rows(rows: &[ScenarioRow], xs: &[f64]) -> String {
    assert!(
        rows.iter().all(|r| r.above.len() == 3 * xs.len()),
        "rows were aggregated at a different threshold set"
    );
    let mut totals = [0u64; 3];
    for row in rows {
        for (total, &n) in totals.iter_mut().zip(&row.samples) {
            *total += n;
        }
    }
    let mut out = String::from("stretch,reconvergence,fcp,packet-recycling\n");
    for (i, &x) in xs.iter().enumerate() {
        let p = |s: usize| {
            if totals[s] == 0 {
                0.0
            } else {
                let above: u64 = rows.iter().map(|r| r.above[s * xs.len() + i]).sum();
                above as f64 / totals[s] as f64
            }
        };
        out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", x, p(0), p(1), p(2)));
    }
    out
}

/// The merged result of a sharded sweep: totals, per-scheme means and
/// maxima, and the CCDF curves — everything `pr sweep --format json`
/// reports for a sharded run. Derived from rows in scenario order, so
/// it is bit-identical at any thread or shard count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scenarios swept.
    pub scenarios: u64,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: u64,
    /// Affected pairs excluded as disconnected.
    pub disconnected_pairs: u64,
    /// Deliveries that failed although a path existed (FCP + PR).
    pub undelivered: u64,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: u64,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: u64,
    /// Sample count per scheme ([`Scheme::ALL`] order).
    pub samples: [u64; 3],
    /// Mean stretch per scheme (null when the scheme has no samples).
    pub mean: [f64; 3],
    /// Maximum stretch per scheme (null when the scheme has no
    /// samples).
    pub max: [f64; 3],
    /// CCDF thresholds (the x axis of the paper's Figure 2).
    pub xs: Vec<f64>,
    /// `P(stretch > x)` per scheme at each threshold.
    pub ccdf: [Vec<f64>; 3],
}

/// Folds merged rows (in scenario order) into a [`SweepReport`].
pub fn report_from_rows(rows: &[ScenarioRow], xs: &[f64]) -> SweepReport {
    assert!(
        rows.iter().all(|r| r.above.len() == 3 * xs.len()),
        "rows were aggregated at a different threshold set"
    );
    let mut report = SweepReport {
        scenarios: rows.len() as u64,
        evaluated_pairs: 0,
        disconnected_pairs: 0,
        undelivered: 0,
        undelivered_fcp: 0,
        undelivered_pr: 0,
        samples: [0; 3],
        mean: [f64::NAN; 3],
        max: [f64::NAN; 3],
        xs: xs.to_vec(),
        ccdf: [Vec::new(), Vec::new(), Vec::new()],
    };
    let mut sum = [0.0f64; 3];
    for row in rows {
        report.evaluated_pairs += row.evaluated_pairs;
        report.disconnected_pairs += row.disconnected_pairs;
        report.undelivered += row.undelivered;
        report.undelivered_fcp += row.undelivered_fcp;
        report.undelivered_pr += row.undelivered_pr;
        #[allow(clippy::needless_range_loop)]
        for s in 0..3 {
            report.samples[s] += row.samples[s];
            sum[s] += row.sum[s];
        }
    }
    #[allow(clippy::needless_range_loop)]
    for s in 0..3 {
        if report.samples[s] > 0 {
            report.mean[s] = sum[s] / report.samples[s] as f64;
            report.max[s] = rows.iter().map(|r| r.max[s]).fold(0.0, f64::max);
        }
        report.ccdf[s] = (0..xs.len())
            .map(|i| {
                if report.samples[s] == 0 {
                    0.0
                } else {
                    let above: u64 = rows.iter().map(|r| r.above[s * xs.len() + i]).sum();
                    above as f64 / report.samples[s] as f64
                }
            })
            .collect();
    }
    report
}

/// The serial reference implementation: the seed harness's nested loop
/// with the honest recompute-per-decision FCP agent. [`run`] must be
/// bit-identical to this at every thread count.
pub fn run_serial(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily) -> StretchSamples {
    let base = AllPairs::compute_all_live(graph);
    let fcp = FcpAgent::new(graph);
    let pr_agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    let mut out = StretchSamples::default();

    for failed in ScenarioIter::new(family) {
        let failed = &failed;
        #[cfg(debug_assertions)]
        let reconv = pr_baselines::ReconvergenceAgent::converged_on(graph, failed);
        for dst in graph.nodes() {
            let base_tree = base.towards(dst);
            let live_tree = SpTree::towards(graph, dst, failed);
            for src in graph.nodes() {
                if src == dst {
                    continue;
                }
                // Affected = the canonical failure-free path crosses a
                // failed link.
                let base_path = base_tree.path_darts(graph, src).expect("connected base graph");
                if !base_path.iter().any(|d| failed.contains_dart(*d)) {
                    continue;
                }
                if !live_tree.reaches(src) {
                    out.disconnected_pairs += 1;
                    continue;
                }
                out.evaluated_pairs += 1;
                let optimal = base_tree.cost(src).expect("connected");

                // Reconvergence: the survivor shortest path, by
                // definition — no need to walk it.
                let reconv_cost = live_tree.cost(src).expect("connected");
                out.reconvergence.push(reconv_cost as f64 / optimal as f64);
                #[cfg(debug_assertions)]
                debug_assert_eq!(reconv.converged_cost(src, dst), Some(reconv_cost));

                // FCP: walk with incremental failure discovery.
                match walk_packet(graph, &fcp, src, dst, failed, ttl) {
                    w if w.result.is_delivered() => {
                        out.fcp.push(w.cost(graph) as f64 / optimal as f64)
                    }
                    _ => out.drop_fcp(),
                }

                // PR: cycle following.
                let w = walk_packet(graph, &pr_agent, src, dst, failed, ttl);
                match w.result {
                    WalkResult::Delivered => {
                        out.packet_recycling.push(w.cost(graph) as f64 / optimal as f64)
                    }
                    WalkResult::Dropped(_) => out.drop_pr(),
                }
            }
        }
    }
    out
}

/// Evaluates `P(sample > x)` at each of `xs` — the paper's CCDF.
pub fn ccdf(samples: &[f64], xs: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return xs.iter().map(|&x| (x, 0.0)).collect();
    }
    let n = samples.len() as f64;
    xs.iter()
        .map(|&x| {
            let above = samples.iter().filter(|&&s| s > x).count() as f64;
            (x, above / n)
        })
        .collect()
}

/// The x-axis of the paper's Figure 2: stretch 1 to 15.
pub fn figure2_xs() -> Vec<f64> {
    (0..=28).map(|i| 1.0 + i as f64 * 0.5).collect()
}

/// Renders one panel as CSV: `x, reconvergence, fcp, packet-recycling`.
pub fn panel_csv(samples: &StretchSamples, xs: &[f64]) -> String {
    let r = ccdf(&samples.reconvergence, xs);
    let f = ccdf(&samples.fcp, xs);
    let p = ccdf(&samples.packet_recycling, xs);
    let mut out = String::from("stretch,reconvergence,fcp,packet-recycling\n");
    for i in 0..xs.len() {
        out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", r[i].0, r[i].1, f[i].1, p[i].1));
    }
    out
}

/// Summary statistics for the EXPERIMENTS.md table.
#[derive(Debug, Clone, Serialize)]
pub struct PanelSummary {
    /// Median stretch per scheme.
    pub median: [f64; 3],
    /// 95th-percentile stretch per scheme.
    pub p95: [f64; 3],
    /// Maximum stretch per scheme.
    pub max: [f64; 3],
    /// Probability that stretch exceeds 1 (i.e. the scheme pays any
    /// detour at all), per scheme.
    pub p_above_one: [f64; 3],
}

/// Computes the summary for one panel (schemes in [`Scheme::ALL`]
/// order).
pub fn summarize(samples: &StretchSamples) -> PanelSummary {
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
    let mut median = [0.0; 3];
    let mut p95 = [0.0; 3];
    let mut max = [0.0; 3];
    let mut p_above_one = [0.0; 3];
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let mut v = samples.of(*scheme).to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("stretch values are finite"));
        median[i] = quantile(&v, 0.5);
        p95[i] = quantile(&v, 0.95);
        max[i] = v.last().copied().unwrap_or(f64::NAN);
        p_above_one[i] = if v.is_empty() {
            f64::NAN
        } else {
            v.iter().filter(|&&s| s > 1.0 + 1e-12).count() as f64 / v.len() as f64
        };
    }
    PanelSummary { median, p95, max, p_above_one }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use pr_core::{DiscriminatorKind, PrMode};
    use pr_embedding::CellularEmbedding;

    fn compile_pr(graph: &Graph) -> PrNetwork {
        let rot = pr_embedding::heuristics::thorough(graph, 2010, 4, 10_000);
        let emb = CellularEmbedding::new(graph, rot).unwrap();
        PrNetwork::compile(graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    }

    #[test]
    fn abilene_single_failures_have_expected_shape() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let scenarios = scenario::all_single_failures(&g);
        let samples = run(&g, &pr, &scenarios, 2);

        assert_eq!(samples.undelivered, 0, "all three schemes must deliver");
        assert_eq!(samples.undelivered_fcp, 0);
        assert_eq!(samples.undelivered_pr, 0);
        assert_eq!(samples.disconnected_pairs, 0, "Abilene is 2-edge-connected");
        assert!(samples.evaluated_pairs > 0);
        assert_eq!(samples.reconvergence.len(), samples.packet_recycling.len());

        // Shape: reconvergence ≤ FCP ≤ PR in the mean.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mr, mf, mp) =
            (mean(&samples.reconvergence), mean(&samples.fcp), mean(&samples.packet_recycling));
        assert!(mr <= mf + 1e-12, "reconvergence {mr} > fcp {mf}");
        assert!(mf <= mp + 1e-12, "fcp {mf} > pr {mp}");
        assert!(mr >= 1.0);
    }

    #[test]
    fn ccdf_is_monotone_decreasing_from_at_most_one() {
        let samples = vec![1.0, 1.5, 2.0, 2.0, 7.5];
        let xs = figure2_xs();
        let curve = ccdf(&samples, &xs);
        assert_eq!(curve.len(), xs.len());
        assert!(curve[0].1 <= 1.0);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        // P(stretch > 15) = 0 in this sample set.
        assert_eq!(curve.last().unwrap().1, 0.0);
    }

    #[test]
    fn ccdf_of_empty_is_zero() {
        let xs = [1.0, 2.0];
        assert_eq!(ccdf(&[], &xs), vec![(1.0, 0.0), (2.0, 0.0)]);
    }

    #[test]
    fn panel_csv_has_header_and_rows() {
        let s = StretchSamples {
            reconvergence: vec![1.0, 1.2],
            fcp: vec![1.1, 1.4],
            packet_recycling: vec![1.3, 2.0],
            ..Default::default()
        };
        let xs = [1.0, 1.5];
        let csv = panel_csv(&s, &xs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "stretch,reconvergence,fcp,packet-recycling");
        assert!(lines[1].starts_with("1,"));
    }

    #[test]
    fn rows_reproduce_the_raw_sample_panel_byte_for_byte() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let family = pr_scenarios::SingleLinkFailures::new(&g);
        let xs = figure2_xs();

        let samples = run(&g, &pr, &family, 2);
        let rows = run_rows(&g, &pr, &family, 2, 0);
        assert_eq!(rows.len(), family.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.scenario, i as u64);
            assert_eq!(row.failures, 1);
        }
        // The CSV artefact reconstructed from rows is byte-identical to
        // the raw-sample rendering (integer CCDF numerators, exact
        // totals).
        assert_eq!(panel_csv_from_rows(&rows, &xs), panel_csv(&samples, &xs));
        // Totals line up with the folded panel.
        let report = report_from_rows(&rows, &xs);
        assert_eq!(report.evaluated_pairs, samples.evaluated_pairs as u64);
        assert_eq!(report.samples[0], samples.reconvergence.len() as u64);
        assert_eq!(report.undelivered, samples.undelivered as u64);
        assert_eq!(report.undelivered_fcp + report.undelivered_pr, report.undelivered);

        // The serial per-packet oracle renders the identical panel.
        assert_eq!(panel_csv_from_rows(&rows, &xs), panel_csv(&run_serial(&g, &pr, &family), &xs));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((report.mean[2] - mean(&samples.packet_recycling)).abs() < 1e-12);

        // Rows survive the JSON checkpoint round-trip bit-for-bit
        // (shortest-roundtrip f64 rendering).
        let text = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ScenarioRow> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn rows_offset_and_slice_like_shards_do() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let family = pr_scenarios::SingleLinkFailures::new(&g);
        let whole = run_rows(&g, &pr, &family, 1, 0);
        // Sweeping two slices and concatenating gives the same rows.
        let mid = family.len() / 2;
        let left = pr_scenarios::ScenarioSlice::new(&family, 0, mid);
        let right = pr_scenarios::ScenarioSlice::new(&family, mid, family.len() - mid);
        let mut stitched = run_rows(&g, &pr, &left, 2, 0);
        stitched.extend(run_rows(&g, &pr, &right, 2, mid));
        assert_eq!(stitched, whole);
    }

    #[test]
    fn report_of_empty_rows_is_well_formed() {
        let xs = figure2_xs();
        let report = report_from_rows(&[], &xs);
        assert_eq!(report.scenarios, 0);
        assert!(report.mean[0].is_nan());
        assert!(report.ccdf[1].iter().all(|&p| p == 0.0));
        let csv = panel_csv_from_rows(&[], &xs);
        assert_eq!(csv.lines().count(), xs.len() + 1);
    }

    #[test]
    fn summary_quantiles() {
        let s = StretchSamples {
            reconvergence: vec![1.0; 100],
            fcp: (0..100).map(|i| 1.0 + i as f64 / 100.0).collect(),
            packet_recycling: vec![3.0; 100],
            ..Default::default()
        };
        let sum = summarize(&s);
        assert_eq!(sum.median[0], 1.0);
        assert!((sum.median[1] - 1.495).abs() < 0.01);
        assert_eq!(sum.max[2], 3.0);
        assert_eq!(sum.p_above_one[0], 0.0);
        assert_eq!(sum.p_above_one[2], 1.0);
    }
}
