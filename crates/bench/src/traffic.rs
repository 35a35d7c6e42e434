//! The traffic-replay experiment: demand-weighted resilience over a
//! scenario family.
//!
//! Where coverage (E5) asks *"what fraction of affected pairs still
//! deliver"*, this experiment asks the operator's question: *"what
//! fraction of the **traffic** still delivers, and how hot does the
//! hottest link run while it detours"*. One work unit per scenario,
//! fanned over [`crate::engine::run_units`]: each unit replays the
//! whole [`FlowSet`] through `pr-traffic`'s bit-parallel dataplane
//! (u64 affected-set classification over the staged dense FIB,
//! bottom-up subtree demand aggregation, per-flow fallback only for
//! affected-but-connected sources) and reports a demand-weighted
//! [`ScenarioTraffic`]. Units merge in scenario order, so [`run`] is
//! bit-identical to [`run_serial`] at any thread count (enforced by
//! `tests/determinism.rs` — the demand grid makes every replay sum
//! exact, hence association-free).

use serde::Serialize;

use pr_core::{generous_ttl, DenseFib, PrNetwork};
use pr_graph::{AllPairs, Graph};
use pr_scenarios::{ScenarioFamily, ScenarioIter};
use pr_sim::DemandTally;
use pr_traffic::{replay_scenario_bitparallel, replay_scenario_naive, FlowSet, ReplayScratch};

use crate::engine::run_units;

/// One scenario's demand-weighted outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficRow {
    /// Index of the scenario in the family.
    pub scenario: usize,
    /// Number of links failed in the scenario.
    pub failures: usize,
    /// The replay outcome: tally + peak link load.
    pub traffic: pr_traffic::ScenarioTraffic,
}

/// Aggregate over a sweep's rows (folded in scenario order — the
/// totals are thread-count invariant).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TrafficSummary {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Demand-weighted tally summed over all scenarios.
    pub tally: DemandTally,
    /// Worst per-scenario max-link-utilisation (peak link load as a
    /// fraction of offered demand), and the scenario it occurred in.
    pub max_link_utilisation: f64,
    /// Scenario index of the utilisation peak (`None` for an empty
    /// sweep or when nothing was delivered anywhere).
    pub peak_scenario: Option<usize>,
}

impl TrafficSummary {
    /// Traffic-weighted coverage over the whole sweep.
    pub fn weighted_coverage(&self) -> f64 {
        self.tally.weighted_coverage()
    }

    /// Fraction of the offered demand lost over the whole sweep.
    pub fn demand_lost_fraction(&self) -> f64 {
        self.tally.demand_lost_fraction()
    }
}

/// Sums a sweep's rows in scenario order.
pub fn summarize(rows: &[TrafficRow]) -> TrafficSummary {
    let mut s = TrafficSummary { scenarios: rows.len(), ..Default::default() };
    for r in rows {
        s.tally.absorb(&r.traffic.tally);
        let util = r.traffic.max_link_utilisation();
        if util > s.max_link_utilisation {
            s.max_link_utilisation = util;
            s.peak_scenario = Some(r.scenario);
        }
    }
    s
}

/// Replays `flows` through every scenario of `family` on `threads`
/// workers using the bit-parallel dataplane. Failure-invariant state
/// — the base trees, the staged dense FIB, the compiled PR agent, the
/// TTL — is hoisted once; each worker owns a private
/// [`ReplayScratch`] reused across its scenarios.
pub fn run(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
    threads: usize,
) -> Vec<TrafficRow> {
    let base = AllPairs::compute_all_live(graph);
    let dense = DenseFib::from_base(graph, &base);
    let agent = pr.agent(graph);
    let ttl = generous_ttl(graph);

    run_units(
        family.len(),
        threads,
        ReplayScratch::new,
        |scratch: &mut ReplayScratch<pr_core::PrHeader>, scenario| {
            let failed = family.scenario(scenario);
            let traffic = replay_scenario_bitparallel(
                graph, &agent, &dense, &base, flows, &failed, ttl, scratch,
            );
            TrafficRow { scenario, failures: failed.len(), traffic }
        },
    )
}

/// The serial per-packet reference: every flow walked one packet at a
/// time with fresh scratch state, no FIB, no repair ([`run`] must be
/// bit-identical to this at every thread count; the throughput
/// benchmark measures the bit-parallel dataplane against it).
pub fn run_serial(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
) -> Vec<TrafficRow> {
    let base = AllPairs::compute_all_live(graph);
    let agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    ScenarioIter::new(family)
        .enumerate()
        .map(|(scenario, failed)| {
            let traffic = replay_scenario_naive(graph, &agent, &base, flows, &failed, ttl);
            TrafficRow { scenario, failures: failed.len(), traffic }
        })
        .collect()
}

/// Renders a sweep as CSV: one row per scenario.
pub fn rows_csv(rows: &[TrafficRow]) -> String {
    let mut out = String::from(
        "scenario,failures,flows,offered,delivered,lost,weighted_coverage,\
         demand_lost_fraction,max_link_load,max_link_utilisation\n",
    );
    for r in rows {
        let t = &r.traffic.tally;
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            r.scenario,
            r.failures,
            t.flows,
            t.offered,
            t.delivered,
            t.lost(),
            t.weighted_coverage(),
            t.demand_lost_fraction(),
            r.traffic.max_link_load,
            r.traffic.max_link_utilisation(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_scenarios::SingleLinkFailures;
    use pr_topologies::Isp;
    use pr_traffic::{GravityTraffic, UniformTraffic};

    #[test]
    fn abilene_single_failures_lose_no_demand_under_pr_dd() {
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let pr = PrNetwork::compile(
            &g,
            emb,
            pr_core::PrMode::DistanceDiscriminator,
            pr_core::DiscriminatorKind::Hops,
        );
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let singles = SingleLinkFailures::new(&g);
        let rows = run(&g, &pr, &singles, &flows, 2);
        assert_eq!(rows.len(), g.link_count());
        let s = summarize(&rows);
        assert_eq!(s.scenarios, g.link_count());
        assert_eq!(s.weighted_coverage(), 1.0, "PR-DD delivers all single-failure demand");
        assert_eq!(s.demand_lost_fraction(), 0.0);
        assert!(s.max_link_utilisation > 0.0 && s.max_link_utilisation < 1.0);
        assert!(s.peak_scenario.is_some());
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("scenario,failures,"));
    }

    #[test]
    fn uniform_summary_tally_is_integral() {
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let pr = PrNetwork::compile(
            &g,
            emb,
            pr_core::PrMode::DistanceDiscriminator,
            pr_core::DiscriminatorKind::Hops,
        );
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let singles = SingleLinkFailures::new(&g);
        let s = summarize(&run(&g, &pr, &singles, &flows, 2));
        assert_eq!(s.tally.offered.fract(), 0.0);
        assert_eq!(s.tally.evaluated.fract(), 0.0);
        assert_eq!(
            s.tally.offered,
            (g.link_count() * g.node_count() * (g.node_count() - 1)) as f64
        );
    }
}
