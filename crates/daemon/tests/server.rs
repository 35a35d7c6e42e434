//! Server-level behaviour: ephemeral ports + addr-file discovery, the
//! Prometheus text exposition, protocol error paths, clean shutdown,
//! stall-free round trips, and the idle and line-length bounds on
//! control connections.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pr_daemon::{
    scrape_metrics, serve, wait_for_addr_file, Client, DaemonAddrs, DaemonConfig, DemandSpec,
    QueryKind, Request, Response, CONTROL_IO_TIMEOUT, MAX_REQUEST_LINE,
};

/// Parses a metrics page into `(name, value)` samples — the
/// "parseable text exposition" contract: every non-comment line is
/// `name<space>value` with a float value, and every sample is preceded
/// by its `# HELP` and `# TYPE` comments.
fn parse_samples(page: &str) -> Vec<(String, f64)> {
    let mut documented = std::collections::BTreeSet::new();
    for line in page.lines().filter(|l| l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let marker = parts.next().unwrap_or("");
        let kind = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        assert_eq!(marker, "#", "comment grammar: {line}");
        assert!(matches!(kind, "HELP" | "TYPE"), "comment grammar: {line}");
        if kind == "TYPE" {
            let family = parts.next().unwrap_or("");
            assert!(matches!(family, "gauge" | "counter"), "metric type: {line}");
        }
        documented.insert(name.to_string());
    }
    page.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, value) = l.split_once(' ').unwrap_or_else(|| panic!("sample line {l:?}"));
            assert!(documented.contains(name), "undocumented sample {name}");
            (name.to_string(), value.parse().unwrap_or_else(|_| panic!("numeric sample {l:?}")))
        })
        .collect()
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("missing metric {name}")).1
}

#[test]
fn ephemeral_daemon_serves_control_and_metrics() {
    let graph = common::abilene();
    let dir = common::scratch_dir("server");
    let addr_file = dir.join("daemon.addr");
    let twin = common::twin(&graph, DemandSpec::gravity(), 2);
    let config =
        DaemonConfig { port: 0, metrics_port: 0, addr_file: addr_file.clone(), event_log: None };
    let handle = {
        let config = config.clone();
        std::thread::spawn(move || serve(twin, &config).expect("serve"))
    };
    let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("daemon up");
    assert_ne!(addrs.control, addrs.metrics, "two listeners, two ports");

    // Failure-free scrape: full coverage, nothing failed, no events.
    let page = scrape_metrics(&addrs.metrics).expect("scrape");
    let samples = parse_samples(&page);
    assert_eq!(sample(&samples, "pr_failed_links"), 0.0);
    assert_eq!(sample(&samples, "pr_coverage"), 1.0);
    assert_eq!(sample(&samples, "pr_weighted_coverage"), 1.0);
    assert_eq!(sample(&samples, "pr_events_total"), 0.0);
    assert_eq!(sample(&samples, "pr_repair_full_rebuilds_total"), 0.0);

    let mut client = Client::connect(&addrs.control).expect("connect");
    let link = common::link_name(&graph, 5);
    let resp = client.request(&Request::LinkDown { link: link.clone() }).expect("link-down");
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    // Protocol errors come back as Error responses, state intact.
    let resp = client.request(&Request::LinkDown { link }).expect("double down answers");
    assert!(resp.is_error(), "{resp:?}");
    let resp = client.request(&Request::Query { what: QueryKind::Coverage }).expect("query");
    let coverage = match resp {
        Response::Coverage(r) => {
            assert_eq!(r.failed_links, 1);
            r.coverage
        }
        other => panic!("expected coverage, got {other:?}"),
    };

    // Post-event scrape: the failed-link gauge moved, the coverage
    // gauge agrees exactly with the query answer (same replay, and the
    // page renders f64 by shortest round-trip).
    let page = scrape_metrics(&addrs.metrics).expect("scrape after event");
    let samples = parse_samples(&page);
    assert_eq!(sample(&samples, "pr_failed_links"), 1.0);
    assert_eq!(sample(&samples, "pr_coverage"), coverage, "gauge != query answer");
    assert_eq!(sample(&samples, "pr_events_total"), 1.0);
    assert_eq!(sample(&samples, "pr_link_down_total"), 1.0);
    assert!(sample(&samples, "pr_repairs_total") >= 1.0);

    // The control plane serves one connection at a time — release ours
    // before opening the raw one, or the accept loop never reaches it.
    drop(client);

    // A raw malformed control line answers an Error without killing
    // the connection.
    let stream = TcpStream::connect(&addrs.control).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"this is not json\n\"Snapshot\"\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert!(line.contains("Error"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("snapshot reply after error");
    assert!(line.contains("State"), "the connection survives bad lines: {line}");
    drop(reader);
    drop(writer);

    // Non-/metrics paths and non-GET methods are rejected politely.
    for (request, expect) in [("GET /nope HTTP/1.1", "404"), ("POST /metrics HTTP/1.1", "405")] {
        let mut stream = TcpStream::connect(&addrs.metrics).expect("connect metrics");
        write!(stream, "{request}\r\nHost: x\r\nConnection: close\r\n\r\n").expect("send");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("receive");
        assert!(reply.starts_with("HTTP/1.1"), "{reply}");
        assert!(reply.contains(expect), "expected {expect} for {request:?}: {reply}");
    }

    let resp = Client::connect(&addrs.control)
        .expect("reconnect")
        .request(&Request::Shutdown)
        .expect("shutdown");
    assert!(matches!(resp, Response::Bye), "{resp:?}");
    handle.join().expect("clean exit");
    assert!(!addr_file.exists(), "clean shutdown removes the addr file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixed_port_conflict_fails_loudly() {
    let graph = common::abilene();
    let dir = common::scratch_dir("port-conflict");
    // Occupy a port, then ask the daemon for exactly it.
    let occupied = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("occupy");
    let port = occupied.local_addr().expect("addr").port();
    let twin = common::twin(&graph, DemandSpec::gravity(), 1);
    let err = serve(
        twin,
        &DaemonConfig {
            port,
            metrics_port: 0,
            addr_file: dir.join("daemon.addr"),
            event_log: None,
        },
    )
    .unwrap_err();
    assert!(err.contains(&port.to_string()), "error names the port: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A volatile daemon serving an Abilene twin on ephemeral ports.
struct Served {
    addrs: DaemonAddrs,
    handle: JoinHandle<()>,
    dir: PathBuf,
}

fn serve_abilene(tag: &str) -> Served {
    let graph = common::abilene();
    let dir = common::scratch_dir(tag);
    let addr_file = dir.join("daemon.addr");
    let twin = common::twin(&graph, DemandSpec::gravity(), 1);
    let config = DaemonConfig { port: 0, metrics_port: 0, addr_file, event_log: None };
    let handle = {
        let config = config.clone();
        std::thread::spawn(move || serve(twin, &config).expect("serve"))
    };
    let addrs = wait_for_addr_file(&config.addr_file, Duration::from_secs(30)).expect("daemon up");
    Served { addrs, handle, dir }
}

impl Served {
    fn shutdown(self) {
        let resp = Client::connect(&self.addrs.control)
            .expect("reconnect")
            .request(&Request::Shutdown)
            .expect("shutdown");
        assert!(matches!(resp, Response::Bye), "{resp:?}");
        self.handle.join().expect("clean exit");
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn event_round_trips_do_not_stall_on_the_wire() {
    let served = serve_abilene("round-trips");
    let link = common::link_name(&common::abilene(), 5);
    let mut client = Client::connect(&served.addrs.control).expect("connect");
    // 200 round trips: well under 2 s when each reply leaves in one
    // segment, at least 8 s if Nagle holds every reply's tail back for
    // the client's ~40 ms delayed ACK.
    let t = Instant::now();
    for _ in 0..100 {
        for req in
            [Request::LinkDown { link: link.clone() }, Request::LinkUp { link: link.clone() }]
        {
            let resp = client.request(&req).expect("event");
            assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
        }
    }
    let elapsed = t.elapsed();
    assert!(elapsed < Duration::from_secs(2), "200 event round trips took {elapsed:?}");
    drop(client);
    served.shutdown();
}

#[test]
fn idle_control_client_is_dropped_after_the_timeout() {
    let served = serve_abilene("idle-client");
    // Connects first and sends nothing: the serial control loop serves
    // it until the read timeout drops it.
    let mut idle = TcpStream::connect(&served.addrs.control).expect("idle connect");
    let t = Instant::now();
    let resp = Client::connect(&served.addrs.control)
        .expect("connect")
        .request(&Request::Snapshot)
        .expect("snapshot answers once the idle client is dropped");
    let waited = t.elapsed();
    assert!(matches!(resp, Response::State(_)), "{resp:?}");
    assert!(waited < CONTROL_IO_TIMEOUT * 3, "snapshot waited {waited:?}");
    // The server closed the idle connection.
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut rest = Vec::new();
    assert_eq!(idle.read_to_end(&mut rest).expect("orderly close"), 0);
    served.shutdown();
}

#[test]
fn oversized_request_line_answers_an_error_and_the_connection_survives() {
    let served = serve_abilene("line-cap");
    let stream = TcpStream::connect(&served.addrs.control).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // A request padded to exactly the cap is accepted; one byte more
    // answers an Error, and the next line is served normally.
    let snapshot = "\"Snapshot\"";
    let padded = |len: usize| format!("{snapshot}{}\n", " ".repeat(len - snapshot.len()));
    let (at_cap, over_cap) = (padded(MAX_REQUEST_LINE), padded(MAX_REQUEST_LINE + 1));
    let mut line = String::new();
    for (request, expect) in [(&at_cap, "State"), (&over_cap, "Error"), (&at_cap, "State")] {
        writer.write_all(request.as_bytes()).expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        assert!(line.contains(expect), "expected {expect}: {line}");
    }
    assert!(line.ends_with('\n'));
    drop(reader);
    drop(writer);
    served.shutdown();
}
