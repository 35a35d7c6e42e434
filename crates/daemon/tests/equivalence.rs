//! The daemon's determinism contract: after any event sequence, every
//! warm answer is bit-identical to a cold batch run on the same failed
//! set and demand model, and the incrementally repaired live trees
//! equal a scratch `AllPairs::compute` — at 1, 2 and 4 worker threads,
//! on a shipped topology and a synthetic one. A stretch query moves the
//! twin's repair and memo counters by exactly the batch sweep's stats,
//! and answers read from the per-state replay cache equal uncached
//! ones.

mod common;

use pr_core::PrNetwork;
use pr_daemon::{
    cold_recompile, CounterReport, DemandSpec, GaugeReport, QueryKind, Request, Response, Twin,
};
use pr_graph::Graph;

fn apply(twin: &mut Twin, req: &Request) {
    let resp = twin.handle(req);
    assert!(!resp.is_error(), "{req:?} must apply cleanly, got {resp:?}");
}

fn down(graph: &Graph, i: usize) -> Request {
    Request::LinkDown { link: common::link_name(graph, i) }
}

fn up(graph: &Graph, i: usize) -> Request {
    Request::LinkUp { link: common::link_name(graph, i) }
}

/// Drives `events` into a fresh twin, then checks every warm answer
/// against a cold batch recomputation at this thread count. Returns
/// the three query responses so callers can assert thread invariance.
fn assert_equivalent(
    graph: &Graph,
    net: &PrNetwork,
    demand: &DemandSpec,
    events: &[Request],
    threads: usize,
) -> Vec<Response> {
    let mut twin =
        Twin::new(graph.clone(), net.clone(), demand.clone(), threads).expect("twin compiles");
    for req in events {
        apply(&mut twin, req);
    }

    // Live trees: incremental repair == scratch Dijkstra, tree for tree.
    let cold = cold_recompile(graph, twin.failed_set());
    for dest in graph.nodes() {
        assert_eq!(
            twin.live_tree(dest),
            cold.live.towards(dest),
            "live tree towards {dest:?} diverged from the cold build at {threads} threads"
        );
    }

    let family = vec![twin.failed_set().clone()];

    // Traffic: warm answer == the batch sweep row on the explicit
    // scenario (same primitives, same hoisted inputs — bit-identical).
    let flows = twin.demand_spec().build(graph).expect("resident demand rebuilds");
    let batch = pr_bench::traffic::run(graph, net, &family, &flows, threads);
    let traffic = twin.handle(&Request::Query { what: QueryKind::Traffic });
    match &traffic {
        Response::Traffic(r) => {
            assert_eq!(r.traffic, batch[0].traffic, "warm traffic != cold batch row");
            assert_eq!(r.failed_links, twin.failed_set().len());
            assert_eq!(r.max_link_utilisation, batch[0].traffic.max_link_utilisation());
        }
        other => panic!("expected a traffic report, got {other:?}"),
    }

    // Coverage: warm answer == a batch replay of the uniform matrix.
    let uniform = pr_traffic::FlowSet::all_pairs(&pr_traffic::UniformTraffic::new(graph));
    let ubatch = pr_bench::traffic::run(graph, net, &family, &uniform, threads);
    let coverage = twin.handle(&Request::Query { what: QueryKind::Coverage });
    match &coverage {
        Response::Coverage(r) => {
            assert_eq!(r.tally, ubatch[0].traffic.tally, "warm coverage tally != cold batch");
            assert_eq!(r.coverage, ubatch[0].traffic.tally.weighted_coverage());
            assert_eq!(r.demand_lost_fraction, ubatch[0].traffic.tally.demand_lost_fraction());
        }
        other => panic!("expected a coverage report, got {other:?}"),
    }

    // Stretch: warm answer == the batch stretch sweep on the scenario,
    // and the query moves the twin's counters by exactly the batch
    // sweep's stats (the resident base trees change no repair or memo
    // work).
    let (samples, stats) = pr_bench::stretch::run_with_stats(graph, net, &family, threads);
    let before = twin.counters();
    let stretch = twin.handle(&Request::Query { what: QueryKind::Stretch });
    assert_counter_deltas(&before, &twin.counters(), &stats, threads);
    match &stretch {
        Response::Stretch(r) => {
            assert_eq!(r.evaluated_pairs, samples.evaluated_pairs);
            assert_eq!(r.disconnected_pairs, samples.disconnected_pairs);
            assert_eq!(r.undelivered_fcp, samples.undelivered_fcp);
            assert_eq!(r.undelivered_pr, samples.undelivered_pr);
            for (agg, &scheme) in r.schemes.iter().zip(pr_bench::stretch::Scheme::ALL.iter()) {
                let xs = samples.of(scheme);
                assert_eq!(agg.scheme, scheme.label());
                assert_eq!(agg.samples, xs.len());
                let sum: f64 = xs.iter().sum();
                let mean = if xs.is_empty() { 0.0 } else { sum / xs.len() as f64 };
                assert_eq!(agg.mean, mean, "{} mean", agg.scheme);
                assert_eq!(agg.max, xs.iter().fold(0.0f64, |m, &x| m.max(x)), "{} max", agg.scheme);
            }
        }
        other => panic!("expected a stretch report, got {other:?}"),
    }

    vec![traffic, coverage, stretch]
}

/// Checks that the counters moved from `before` to `after` by exactly
/// the batch sweep's repair and memo stats.
fn assert_counter_deltas(
    before: &CounterReport,
    after: &CounterReport,
    stats: &pr_bench::stretch::SweepStats,
    threads: usize,
) {
    let delta = |name: &str, b: u64, a: u64, want: u64| {
        assert_eq!(a - b, want, "{name} delta != batch sweep stats at {threads} threads");
    };
    delta("repairs", before.repairs, after.repairs, stats.repair.repairs);
    delta("full_rebuilds", before.full_rebuilds, after.full_rebuilds, stats.repair.full_rebuilds);
    delta(
        "repair_cone_nodes",
        before.repair_cone_nodes,
        after.repair_cone_nodes,
        stats.repair.cone_nodes,
    );
    delta("repair_slots", before.repair_slots, after.repair_slots, stats.repair.repaired_slots);
    delta("memo_lookups", before.memo_lookups, after.memo_lookups, stats.memo.lookups);
    delta("memo_hits", before.memo_hits, after.memo_hits, stats.memo.hits);
    delta(
        "memo_spliced_steps",
        before.memo_spliced_steps,
        after.memo_spliced_steps,
        stats.memo.spliced_steps,
    );
    delta(
        "memo_walked_steps",
        before.memo_walked_steps,
        after.memo_walked_steps,
        stats.memo.walked_steps,
    );
    assert!(stats.repair.repairs > 0, "the probed scenario must exercise cone repair");
}

/// Full suite on one graph: equivalence at each thread count, plus
/// thread-count invariance of the query answers themselves.
fn equivalence_suite(graph: &Graph, demand: DemandSpec, events: &[Request]) {
    let net = common::network(graph);
    let mut per_threads = Vec::new();
    for threads in [1, 2, 4] {
        per_threads.push(assert_equivalent(graph, &net, &demand, events, threads));
    }
    let reference = &per_threads[0];
    for (i, answers) in per_threads.iter().enumerate().skip(1) {
        assert_eq!(
            answers,
            reference,
            "query answers must be thread-count invariant (1 vs {} threads)",
            [1, 2, 4][i]
        );
    }
}

#[test]
fn abilene_gravity_equivalence() {
    let graph = common::abilene();
    let events = [down(&graph, 0), down(&graph, 3), up(&graph, 0), down(&graph, 5)];
    equivalence_suite(&graph, DemandSpec::gravity(), &events);
}

#[test]
fn synth_isp_hotspot_equivalence() {
    let graph = common::synth_isp();
    let events = [
        down(&graph, 1),
        down(&graph, 7),
        down(&graph, 12),
        up(&graph, 7),
        Request::SetDemand {
            model: "hotspot".to_string(),
            flows: Some(200),
            hotspots: Some(3),
            boost: None,
            seed: Some(42),
        },
    ];
    equivalence_suite(&graph, DemandSpec::uniform(), &events);
}

#[test]
fn strict_event_semantics_reject_noop_transitions() {
    let graph = common::abilene();
    let net = common::network(&graph);
    let mut twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 1).expect("twin");
    let link = common::link_name(&graph, 2);
    apply(&mut twin, &Request::LinkDown { link: link.clone() });
    // Double-down and spurious up are errors, and errors leave state
    // untouched — the event log stays an exact replayable history.
    assert!(twin.handle(&Request::LinkDown { link: link.clone() }).is_error());
    assert_eq!(twin.failed_set().len(), 1);
    apply(&mut twin, &Request::LinkUp { link: link.clone() });
    assert!(twin.handle(&Request::LinkUp { link }).is_error());
    assert_eq!(twin.failed_set().len(), 0);
    assert!(twin.handle(&Request::LinkDown { link: "A-Nowhere".to_string() }).is_error());
    assert!(twin
        .handle(&Request::SetDemand {
            model: "banana".to_string(),
            flows: None,
            hotspots: None,
            boost: None,
            seed: None,
        })
        .is_error());
    // The rejected demand update left the resident spec in place.
    assert_eq!(twin.demand_spec().model, "gravity");
}

/// The answer a twin with an empty replay cache gives to `query` after
/// `events`: a fresh twin, one query.
fn uncached(graph: &Graph, net: &PrNetwork, events: &[Request], query: QueryKind) -> Response {
    let mut twin = Twin::new(graph.clone(), net.clone(), DemandSpec::gravity(), 1).expect("twin");
    for req in events {
        apply(&mut twin, req);
    }
    twin.handle(&Request::Query { what: query })
}

/// Checks that the gauges agree with the coverage and traffic answers
/// of the same state.
fn assert_gauges_match(gauges: &GaugeReport, coverage: &Response, traffic: &Response) {
    let (Response::Coverage(c), Response::Traffic(t)) = (coverage, traffic) else {
        panic!("expected coverage and traffic reports, got {coverage:?} / {traffic:?}");
    };
    assert_eq!(gauges.coverage, c.coverage);
    assert_eq!(gauges.weighted_coverage, t.traffic.tally.weighted_coverage());
    assert_eq!(gauges.demand_lost_fraction, t.traffic.tally.demand_lost_fraction());
    assert_eq!(gauges.max_link_utilisation, t.max_link_utilisation);
    assert_eq!(gauges.failed_links, c.failed_links);
    assert_eq!(gauges.failed_links, t.failed_links);
}

#[test]
fn cached_replays_answer_like_uncached_ones() {
    let graph = common::abilene();
    let net = common::network(&graph);
    let mut events = vec![down(&graph, 0), down(&graph, 3)];
    let mut twin = Twin::new(graph.clone(), net.clone(), DemandSpec::gravity(), 1).expect("twin");
    for req in &events {
        apply(&mut twin, req);
    }
    let coverage = uncached(&graph, &net, &events, QueryKind::Coverage);
    let traffic = uncached(&graph, &net, &events, QueryKind::Traffic);

    // coverage → scrape → coverage → traffic on one state: the scrape
    // and the second coverage read the cached uniform replay, the
    // traffic query the demand replay the scrape cached.
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Coverage }), coverage);
    let page = pr_daemon::metrics::render(&mut twin);
    assert!(page.contains("pr_failed_links 2\n"), "{page}");
    let gauges = twin.gauges();
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Coverage }), coverage);
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Traffic }), traffic);
    assert_gauges_match(&gauges, &coverage, &traffic);

    // set-demand drops only the demand replay: coverage stays, traffic
    // and the demand gauges follow the new matrix.
    let demand = Request::SetDemand {
        model: "hotspot".to_string(),
        flows: Some(40),
        hotspots: Some(2),
        boost: None,
        seed: Some(7),
    };
    apply(&mut twin, &demand);
    events.push(demand);
    let traffic = uncached(&graph, &net, &events, QueryKind::Traffic);
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Traffic }), traffic);
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Coverage }), coverage);
    assert_gauges_match(&twin.gauges(), &coverage, &traffic);

    // A link event drops both.
    let event = up(&graph, 0);
    apply(&mut twin, &event);
    events.push(event);
    let coverage = uncached(&graph, &net, &events, QueryKind::Coverage);
    let traffic = uncached(&graph, &net, &events, QueryKind::Traffic);
    assert_gauges_match(&twin.gauges(), &coverage, &traffic);
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Coverage }), coverage);
    assert_eq!(twin.handle(&Request::Query { what: QueryKind::Traffic }), traffic);
}
