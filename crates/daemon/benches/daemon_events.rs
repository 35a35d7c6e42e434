//! Daemon event-apply latency — the point of residency.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on geant, applying a link event to the resident twin
//! (incremental cone repair against the hoisted base trees, gauges
//! lazy) must be ≥ 5x faster per event than the cold recompile a batch
//! invocation pays for the same failed set (base trees + live trees +
//! both FIBs). Warmup first proves the repaired trees bit-identical to
//! the cold build on every probed failed set, so the two sides of the
//! ratio are computing the same answer.
//!
//! **The wire gate** (also under `--test`): the same GÉANT twin served
//! on loopback must answer a control round trip within 5 ms of what
//! `Twin::handle` costs in process for the same request — the median
//! of 32 event round trips, best of 20 rounds, against the same
//! statistic in process. A reply that leaves in two segments stalls
//! each round trip for the peer's delayed ACK, about 40 ms.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_daemon::{
    cold_recompile, serve, wait_for_addr_file, Client, DaemonConfig, DemandSpec, Request, Response,
    Twin,
};
use pr_graph::{Graph, LinkId, LinkSet};
use pr_topologies::Isp;

/// Links probed by the gate (each contributes one down + one up event
/// to the warm side and one cold recompile to the reference side).
const EVENT_LINKS: usize = 16;

/// The gate's hard floor on cold-per-scenario / warm-per-event.
const SPEEDUP_FLOOR: f64 = 5.0;

/// The wire gate's ceiling on (median round trip) − (median in-process
/// `Twin::handle`), in ms.
const WIRE_CEILING_MS: f64 = 5.0;

fn geant() -> (Graph, Twin) {
    let (graph, emb) = pr_bench::paper_topology(Isp::Geant);
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 2).expect("twin compiles");
    (graph, twin)
}

/// `"A-B"` names of the probed links, in id order.
fn event_links(graph: &Graph) -> Vec<String> {
    assert!(graph.link_count() >= EVENT_LINKS, "geant has enough links");
    graph
        .links()
        .take(EVENT_LINKS)
        .map(|l| {
            let (a, b) = graph.endpoints(l);
            format!("{}-{}", graph.node_name(a), graph.node_name(b))
        })
        .collect()
}

/// One warm round: a down + up event per probed link, through the same
/// `Twin::handle` path the control loop uses (2 × `EVENT_LINKS` events).
fn apply_events(twin: &mut Twin, names: &[String]) {
    for name in names {
        let resp = twin.handle(&Request::LinkDown { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
        let resp = twin.handle(&Request::LinkUp { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
    }
}

/// One cold round: the failure-dependent recompute a batch invocation
/// pays before its first answer, per probed failed set (`EVENT_LINKS`
/// recompiles).
fn cold_sweep(graph: &Graph) {
    for l in 0..EVENT_LINKS {
        let failed = LinkSet::from_links(graph.link_count(), [LinkId(l as u32)]);
        black_box(cold_recompile(graph, &failed));
    }
}

/// The event-apply regression gate. Panics (failing the bench run,
/// `--test` smoke mode included) when warm event-apply loses its 5x
/// margin under the cold recompile. Both sides are timed interleaved,
/// best (minimum) of 20 rounds, so shared-machine throttling hits both
/// alike — the discipline every gate in this workspace uses.
fn daemon_event_gate() {
    let (graph, mut twin) = geant();
    let names = event_links(&graph);

    // Warmup + soundness: each probed failed set must repair to trees
    // bit-identical to a cold scratch build, or the speedup compares
    // different answers.
    for (i, name) in names.iter().enumerate() {
        let resp = twin.handle(&Request::LinkDown { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
        let failed = LinkSet::from_links(graph.link_count(), [LinkId(i as u32)]);
        let cold = cold_recompile(&graph, &failed);
        for dest in graph.nodes() {
            assert_eq!(
                twin.live_tree(dest),
                cold.live.towards(dest),
                "repaired tree towards {dest:?} diverged from the cold build under {name} down"
            );
        }
        let resp = twin.handle(&Request::LinkUp { link: name.clone() });
        assert!(!resp.is_error(), "{resp:?}");
    }
    let counters = twin.counters();
    assert_eq!(counters.events, 2 * EVENT_LINKS as u64, "warmup applied every event");
    assert!(counters.repairs > 0, "events must go through incremental repair");

    let events_per_round = (2 * EVENT_LINKS) as f64;
    let scenarios_per_round = EVENT_LINKS as f64;
    let (mut warm_secs, mut cold_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        let t = Instant::now();
        apply_events(&mut twin, &names);
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        cold_sweep(&graph);
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
    }

    let warm_us = warm_secs * 1e6 / events_per_round;
    let cold_us = cold_secs * 1e6 / scenarios_per_round;
    let speedup = cold_us / warm_us;
    println!(
        "gate: geant event-apply {warm_us:.1}us/event warm vs {cold_us:.1}us/scenario cold \
         recompile, speedup {speedup:.2}x (floor {SPEEDUP_FLOOR:.0}x, {EVENT_LINKS} links probed)"
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "daemon gate: incremental event-apply must be >= {SPEEDUP_FLOOR:.0}x a cold recompile \
         on geant, got {speedup:.2}x ({warm_us:.1}us warm vs {cold_us:.1}us cold)"
    );
}

/// Median of `xs` in ms (sorts in place).
fn median_ms(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The wire regression gate. Serves one GÉANT twin on loopback and
/// keeps a second one in process; both see the same down + up events
/// per probed link (`2 × EVENT_LINKS` = 32 requests a round, ending
/// failure-free), interleaved, best (minimum) of 20 round medians per
/// side. Panics when a round trip costs 5 ms or more over the
/// in-process handling of the same request.
fn daemon_wire_gate() {
    let (graph, served) = geant();
    let (_, mut local) = geant();
    let requests: Vec<Request> = event_links(&graph)
        .into_iter()
        .flat_map(|link| [Request::LinkDown { link: link.clone() }, Request::LinkUp { link }])
        .collect();

    let dir = std::env::temp_dir().join(format!("pr-daemon-wire-gate-{}", std::process::id()));
    let config = DaemonConfig {
        port: 0,
        metrics_port: 0,
        addr_file: dir.join("daemon.addr"),
        event_log: None,
    };
    let server = {
        let config = config.clone();
        std::thread::spawn(move || serve(served, &config).expect("serve"))
    };
    let addrs = wait_for_addr_file(&config.addr_file, Duration::from_secs(60)).expect("daemon up");
    let mut client = Client::connect(&addrs.control).expect("connect");

    let (mut wire_ms, mut local_ms) = (f64::INFINITY, f64::INFINITY);
    let mut times = Vec::with_capacity(requests.len());
    for _ in 0..20 {
        times.clear();
        for req in &requests {
            let t = Instant::now();
            let resp = client.request(req).expect("round trip");
            times.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
        }
        wire_ms = wire_ms.min(median_ms(&mut times));
        times.clear();
        for req in &requests {
            let t = Instant::now();
            let resp = local.handle(req);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
        }
        local_ms = local_ms.min(median_ms(&mut times));
    }

    let bye = client.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(bye, Response::Bye), "{bye:?}");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();

    let overhead = wire_ms - local_ms;
    println!(
        "gate: geant control round trip {wire_ms:.3}ms vs {local_ms:.3}ms in-process \
         Twin::handle, wire overhead {overhead:.3}ms (ceiling {WIRE_CEILING_MS:.0}ms, \
         median of {} round trips, best of 20)",
        requests.len()
    );
    assert!(
        overhead < WIRE_CEILING_MS,
        "daemon wire gate: a control round trip must cost < {WIRE_CEILING_MS:.0}ms over \
         Twin::handle on geant, got {overhead:.3}ms ({wire_ms:.3}ms round trip vs \
         {local_ms:.3}ms in process)"
    );
}

fn bench_daemon_events(c: &mut Criterion) {
    daemon_event_gate();
    daemon_wire_gate();

    let (graph, mut twin) = geant();
    let names = event_links(&graph);
    let mut group = c.benchmark_group("daemon_events");
    group.bench_function("event_apply_geant", |b| b.iter(|| apply_events(&mut twin, &names)));
    group.bench_function("cold_recompile_geant", |b| b.iter(|| cold_sweep(&graph)));
    group.finish();
}

criterion_group!(benches, bench_daemon_events);
criterion_main!(benches);
