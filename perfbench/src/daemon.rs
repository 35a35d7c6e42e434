//! `daemon-isp300`: the resident twin over loopback.
//!
//! Spawns the real `pr daemon run synth:isp:300 --threads 1 --log …`
//! process and drives it with one closed-loop client: one control
//! connection plus one short-lived HTTP connection per `/metrics`
//! scrape, sending the seeded [`OpGen`] stream. It is the only
//! workload with writes (logged link events) beside reads, and the only
//! one that crosses the daemon's server, protocol and event log.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pr_core::{generous_ttl, DenseFib, PrNetwork};
use pr_daemon::{protocol, DaemonAddrs, DemandSpec, EventLog, QueryKind, Request, Response, Twin};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, SpScratch};
use pr_traffic::{replay_scenario_bitparallel, FlowSet, ReplayScratch};

use crate::layers::Layers;
use crate::ops::{Op, OpGen};
use crate::setup::{compile, link_names, peak_rss_mb, Report};
use crate::stats::{highest_supported, median, percentile};
use crate::trace::Tracer;
use crate::Config;

/// The topology argument the daemon is started with.
const TOPOLOGY: &str = "synth:isp:300";
/// A throw-away daemon start is timed after every this many requests;
/// `setup_s` is the median over the run, so it samples the machine
/// across the whole run.
const SETUP_EVERY: usize = 60;
/// Socket timeout: a request that takes longer counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a daemon may take to publish its addr file or to exit.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `pr daemon run` child; killed and reaped on drop.
struct Daemon {
    child: Child,
    addrs: DaemonAddrs,
    files: [PathBuf; 2],
}

impl Daemon {
    /// Starts a fresh daemon (empty event log) and waits for its addr
    /// file; returns it with the start-up time in seconds.
    fn start(cfg: &Config) -> Result<(Daemon, f64), String> {
        let pr_cli = cfg.pr_cli.as_ref().ok_or("daemon-isp300 needs --pr-cli <path>")?;
        static STARTS: AtomicUsize = AtomicUsize::new(0);
        let tag = format!("{}-{}", std::process::id(), STARTS.fetch_add(1, Ordering::Relaxed));
        let addr = cfg.out_dir.join(format!("daemon-{tag}.addr"));
        let log = cfg.out_dir.join(format!("daemon-{tag}.log"));
        for f in [&addr, &log] {
            let _ = std::fs::remove_file(f);
        }
        let t = Instant::now();
        let child = Command::new(pr_cli)
            .args(["daemon", "run", TOPOLOGY, "--threads", "1", "--log"])
            .arg(&log)
            .arg("--addr-file")
            .arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pr_cli.display()))?;
        // From here on `Drop` kills and reaps the child on every path.
        let addrs = DaemonAddrs { control: String::new(), metrics: String::new() };
        let mut daemon = Daemon { child, addrs, files: [addr, log] };
        loop {
            if let Ok(addrs) = pr_daemon::read_addr_file(&daemon.files[0]) {
                daemon.addrs = addrs;
                return Ok((daemon, t.elapsed().as_secs_f64()));
            }
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t.elapsed() > START_TIMEOUT {
                return Err(format!("daemon did not start within {START_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `Shutdown` and waits for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let bye = Control::connect(&self.addrs.control)?.request(&Request::Shutdown)?.0;
        if bye != Response::Bye {
            return Err(format!("shutdown answered {bye:?}"));
        }
        let t = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if t.elapsed() > START_TIMEOUT {
                return Err("daemon did not exit after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// A control connection with timeouts; requests are written in one
/// `write_all`, like `pr_daemon::Client`.
struct Control {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Control {
    fn connect(addr: &str) -> Result<Control, String> {
        let stream = connect(addr)?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Control { reader, writer: stream, line: String::new() })
    }

    /// Sends one request; returns the response and the round trip in
    /// ms (write start to the end of the reply line, decoding excluded).
    fn request(&mut self, req: &Request) -> Result<(Response, f64), String> {
        let out = format!("{}\n", protocol::encode(req));
        self.line.clear();
        let t = Instant::now();
        self.writer.write_all(out.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("receive: {e}"))?;
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok((protocol::decode(&self.line)?, rtt))
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let sock: SocketAddr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let stream = TcpStream::connect_timeout(&sock, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One `GET /metrics` on a fresh connection; returns the
/// `pr_failed_links` gauge and the round trip in ms (connect included).
fn scrape(addr: &str) -> Result<(usize, f64), String> {
    let t = Instant::now();
    let mut stream = connect(addr)?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut page = String::new();
    stream.read_to_string(&mut page).map_err(|e| format!("receive: {e}"))?;
    let rtt = t.elapsed().as_secs_f64() * 1e3;
    let (head, body) = page.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    if !head.lines().next().unwrap_or("").contains(" 200 ") {
        return Err(format!("scrape status {:?}", head.lines().next()));
    }
    let failed = body
        .lines()
        .find_map(|l| l.strip_prefix("pr_failed_links "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no pr_failed_links sample")?;
    Ok((failed as usize, rtt))
}

/// The in-process copy of the daemon's resident inputs.
struct Model {
    graph: Graph,
    net: PrNetwork,
    flows: FlowSet,
    names: Vec<String>,
}

fn model(tr: &mut Tracer) -> Model {
    tr.span("setup", |tr| {
        let spec = TOPOLOGY.strip_prefix("synth:").expect("synth spec");
        let graph = tr.span("graph.load", |_| {
            pr_graph::generators::synth_from_spec(spec).expect("valid synth spec")
        });
        let net = compile(&graph, tr);
        let flows = tr.span("traffic.flowset", |_| {
            DemandSpec::gravity().build(&graph).expect("synth meshes are located")
        });
        let names = link_names(&graph);
        Model { graph, net, flows, names }
    })
}

/// The control request for `op`; `None` for a scrape.
pub(crate) fn request_for(op: Op, names: &[String]) -> Option<Request> {
    match op {
        Op::Down(l) => Some(Request::LinkDown { link: names[l].clone() }),
        Op::Up(l) => Some(Request::LinkUp { link: names[l].clone() }),
        Op::Query(what) => Some(Request::Query { what }),
        Op::Scrape => None,
    }
}

/// Checks a control response against the client's view of the state.
fn check(op: Op, resp: &Response, failed: usize) -> Option<String> {
    let links = match (op, resp) {
        (Op::Down(_) | Op::Up(_), Response::Done { .. }) => return None,
        (Op::Query(QueryKind::Coverage), Response::Coverage(r)) => r.failed_links,
        (Op::Query(QueryKind::Traffic), Response::Traffic(r)) => r.failed_links,
        (Op::Query(QueryKind::Stretch), Response::Stretch(r)) => r.failed_links,
        _ => return Some(format!("{op:?} answered {resp:?}")),
    };
    (links != failed).then(|| format!("{op:?} saw {links} failed links, client has {failed}"))
}

/// One executed operation: what was sent, its round trip, and the
/// daemon's answer (`None` for scrapes).
struct Done {
    op: Op,
    rtt_ms: f64,
    resp: Option<Response>,
}

/// The benchmark's client: its control connection, the seeded
/// operation stream, and where the daemon serves `/metrics`.
struct Client {
    ctl: Control,
    gen: OpGen,
    metrics: String,
}

impl Client {
    fn connect(daemon: &Daemon, m: &Model, seed: u64) -> Result<Client, String> {
        Ok(Client {
            ctl: Control::connect(&daemon.addrs.control)?,
            gen: OpGen::new(m.graph.link_count(), seed),
            metrics: daemon.addrs.metrics.clone(),
        })
    }

    /// The closed loop: sends operations until `budget` has passed, and
    /// calls `between` (outside any round trip) every [`SETUP_EVERY`]
    /// requests.
    fn drive(
        &mut self,
        m: &Model,
        budget: Duration,
        report: &mut Report,
        tr: &mut Tracer,
        between: &mut dyn FnMut(),
    ) -> Vec<Done> {
        let start = Instant::now();
        let mut done = Vec::new();
        while start.elapsed() < budget {
            if report.attempted > 0 && report.attempted.is_multiple_of(SETUP_EVERY as u64) {
                between();
            }
            let op = self.gen.next_op();
            let failed = self.gen.failed().len();
            let outcome = tr.span("daemon.request", |_| match request_for(op, &m.names) {
                Some(req) => self.ctl.request(&req).map(|(resp, rtt)| (Some(resp), rtt)),
                None => scrape(&self.metrics).and_then(|(seen, rtt)| {
                    if seen == failed {
                        Ok((None, rtt))
                    } else {
                        Err(format!("scrape saw {seen} failed links, client has {failed}"))
                    }
                }),
            });
            match outcome {
                Ok((resp, rtt_ms)) => {
                    report.op(resp.as_ref().and_then(|r| check(op, r, failed)));
                    done.push(Done { op, rtt_ms, resp });
                }
                Err(e) => {
                    report.op(Some(format!("{op:?}: {e}")));
                    // After a failed control request the connection is in
                    // an unknown state; a failed scrape used its own.
                    if op != Op::Scrape {
                        break;
                    }
                }
            }
        }
        done
    }

    /// Final check: the daemon's traffic answer on the final failed set
    /// is bit-identical to `pr_bench::traffic::run` on that set.
    fn final_check(&mut self, m: &Model, report: &mut Report) {
        let failed = failed_set(&m.graph, &self.gen.failed());
        let want = pr_bench::traffic::run(&m.graph, &m.net, &vec![failed], &m.flows, 1);
        let got = self.ctl.request(&Request::Query { what: QueryKind::Traffic });
        report.op(match got {
            Ok((Response::Traffic(r), _)) if r.traffic == want[0].traffic => None,
            Ok((resp, _)) => Some(format!("final traffic answer {resp:?} != batch {:?}", want[0])),
            Err(e) => Some(format!("final traffic query: {e}")),
        });
    }
}

fn failed_set(graph: &Graph, links: &[usize]) -> LinkSet {
    let mut set = LinkSet::empty(graph.link_count());
    for &l in links {
        set.insert(LinkId(u32::try_from(l).expect("link index fits u32")));
    }
    set
}

fn class_ms(done: &[Done], class: &str) -> Vec<f64> {
    done.iter().filter(|d| d.op.class() == class).map(|d| d.rtt_ms).collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tr = Tracer::off();
    let m = model(&mut tr);
    let (daemon, first) = Daemon::start(cfg)?;
    let mut setups = vec![Ok(first)];
    let mut client = Client::connect(&daemon, &m, cfg.seed)?;
    let done = client.drive(&m, cfg.seconds, &mut report, &mut tr, &mut || {
        setups.push(Daemon::start(cfg).and_then(|(d, t)| d.stop().map(|()| t)));
    });
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    client.final_check(&m, &mut report);
    let rss = peak_rss_mb(Some(daemon.pid()))?;
    drop(client);
    daemon.stop()?;

    let all: Vec<f64> = done.iter().map(|d| d.rtt_ms).collect();
    report.metric("setup_s", median(&setups).expect("set-ups ran"), "s");
    report.metric("work_per_s", all.len() as f64 / (all.iter().sum::<f64>() / 1e3), "1/s");
    report.metric("op_p50_ms", median(&all).ok_or("no request completed")?, "ms");
    report.metric("peak_rss_mb", rss, "MiB");
    for class in ["event", "query", "scrape"] {
        let xs = class_ms(&done, class);
        let p50 = percentile(&xs, 50.0).map_or("refused".to_string(), |v| format!("{v:.3} ms"));
        let p90 = percentile(&xs, 90.0).map_or("refused".to_string(), |v| format!("{v:.3} ms"));
        report.info.push(format!("{class}_p50_ms {p50}, {class}_p90_ms {p90} (n={})", xs.len()));
    }
    if let Some((p, v)) = highest_supported(&all, &[50.0, 90.0, 99.0]) {
        report.info.push(format!("all requests p{p} {v:.3} ms (n={})", all.len()));
    }
    Ok(report)
}

/// The traced run: client spans around every request, then the same
/// operations replayed in-process through each layer the daemon uses.
pub fn run_traced(cfg: &Config, tr: &mut Tracer) -> Result<(Report, Layers), String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut m = model(tr);
    for _ in 1..5 {
        m = model(tr);
    }
    layers.median_ms(tr, "graph.load_ms", "graph.load");
    layers.median_ms(tr, "embedding.embed_ms", "embedding.embed");
    layers.median_ms(tr, "core.compile_ms", "core.compile");
    layers.median_ms(tr, "traffic.flowset_ms", "traffic.flowset");
    for _ in 0..5 {
        let base = tr.span("graph.allpairs", |_| AllPairs::compute_all_live(&m.graph));
        tr.span("core.densefib", |_| DenseFib::from_base(&m.graph, &base));
    }
    layers.median_ms(tr, "graph.allpairs_ms", "graph.allpairs");
    layers.median_ms(tr, "core.densefib_ms", "core.densefib");

    // Over the wire: half the time untraced, half with client spans.
    let (daemon, _) = Daemon::start(cfg)?;
    let mut client = Client::connect(&daemon, &m, cfg.seed)?;
    let mut off = Tracer::off();
    let half = cfg.seconds / 2;
    let untraced = client.drive(&m, half, &mut report, &mut off, &mut || {});
    let traced = client.drive(&m, half, &mut report, tr, &mut || {});
    client.final_check(&m, &mut report);
    drop(client);
    daemon.stop()?;
    let p50 = |d: &[Done]| median(&d.iter().map(|d| d.rtt_ms).collect::<Vec<_>>());
    let (u, t) = (p50(&untraced).ok_or("no request")?, p50(&traced).ok_or("no request")?);
    layers.set("trace.overhead_pct", (t / u - 1.0) * 100.0);

    replay_in_process(cfg, &m, untraced.iter().chain(&traced), &mut layers, &mut report, tr)?;
    Ok((report, layers))
}

/// Replays the executed operations through an in-process twin, timing
/// `Twin::handle`, `Twin::gauges`, the protocol codec, the event log,
/// whole-view repair and the bit-parallel replay, and derives the wire
/// time of each control request as its round trip minus those parts.
fn replay_in_process<'a>(
    cfg: &Config,
    m: &Model,
    done: impl Iterator<Item = &'a Done>,
    layers: &mut Layers,
    report: &mut Report,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut twin = Twin::new(m.graph.clone(), m.net.clone(), DemandSpec::gravity(), 1)?;
    let log_path = cfg.out_dir.join(format!("twin-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let mut log = EventLog::open(&log_path)?;
    let base = AllPairs::compute_all_live(&m.graph);
    let dense = DenseFib::from_base(&m.graph, &base);
    let agent = m.net.agent(&m.graph);
    let ttl = generous_ttl(&m.graph);
    let mut sp = SpScratch::new();
    let mut replay = ReplayScratch::new();

    let mut failed: Vec<usize> = Vec::new();
    let mut wire = Vec::new();
    let (mut pairs, mut undelivered, mut offered, mut evaluated, mut disconnected) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let span_us = |tr: &Tracer, name: &str| *tr.durations_us(name).last().expect("span recorded");
    for d in done {
        let Some(req) = request_for(d.op, &m.names) else {
            tr.span("twin.gauges", |_| twin.gauges());
            continue;
        };
        let name = match d.op {
            Op::Down(_) | Op::Up(_) => "twin.event",
            Op::Query(QueryKind::Coverage) => "twin.query_coverage",
            Op::Query(QueryKind::Traffic) => "twin.query_traffic",
            Op::Query(QueryKind::Stretch) => "twin.query_stretch",
            Op::Scrape => unreachable!("scrapes carry no request"),
        };
        let resp = tr.span(name, |_| twin.handle(&req));
        tr.span("protocol.codec", |_| {
            let line = protocol::encode(&req);
            let back: Request = protocol::decode(&line).expect("request round trip");
            let line = protocol::encode(&resp);
            let again: Response = protocol::decode(&line).expect("response round trip");
            std::hint::black_box((back, again));
        });
        let mut parts_us = span_us(tr, name) + span_us(tr, "protocol.codec");
        if Some(&resp) != d.resp.as_ref() {
            report.op(Some(format!("in-process answer to {:?} differs from the daemon's", d.op)));
        }
        match (d.op, &resp) {
            (Op::Down(l), _) | (Op::Up(l), _) => {
                tr.span("eventlog.record", |_| log.record(&req))?;
                parts_us += span_us(tr, "eventlog.record");
                match d.op {
                    Op::Down(_) => failed.push(l),
                    _ => failed.retain(|&f| f != l),
                }
                let set = failed_set(&m.graph, &failed);
                tr.span("graph.repair", |_| base.repair_from(&m.graph, &set, &mut sp));
                let t = tr.span("replay.scenario", |_| {
                    replay_scenario_bitparallel(
                        &m.graph,
                        &agent,
                        &dense,
                        &base,
                        &m.flows,
                        &set,
                        ttl,
                        &mut replay,
                    )
                });
                offered += t.tally.offered;
                evaluated += t.tally.evaluated;
                disconnected += t.tally.disconnected;
            }
            (_, Response::Stretch(r)) => {
                pairs += r.evaluated_pairs as f64;
                undelivered += (r.undelivered_fcp + r.undelivered_pr) as f64;
            }
            _ => {}
        }
        wire.push(d.rtt_ms - parts_us / 1e3);
    }
    drop(log);
    let _ = std::fs::remove_file(&log_path);

    let p50 = |name: &str| median(&tr.durations_us(name)).unwrap_or(0.0);
    for (metric, span) in [
        ("twin.event_us", "twin.event"),
        ("twin.query_coverage_us", "twin.query_coverage"),
        ("twin.query_traffic_us", "twin.query_traffic"),
        ("twin.query_stretch_us", "twin.query_stretch"),
        ("twin.gauges_us", "twin.gauges"),
        ("protocol.codec_us", "protocol.codec"),
        ("eventlog.record_us", "eventlog.record"),
    ] {
        layers.set(metric, p50(span));
    }
    layers.set("server.wire_ms", median(&wire).unwrap_or(0.0));
    let repairs = tr.durations_us("graph.repair");
    layers.set("graph.repair_p50_us", percentile(&repairs, 50.0).unwrap_or(0.0));
    layers.set("graph.repair_p90_us", percentile(&repairs, 90.0).unwrap_or(0.0));
    let replays = tr.durations_us("replay.scenario");
    layers.set("replay.scenario_p50_us", percentile(&replays, 50.0).unwrap_or(0.0));
    layers.set("replay.scenario_p90_us", percentile(&replays, 90.0).unwrap_or(0.0));
    if offered > 0.0 {
        layers.set("replay.fallback_share", evaluated / offered);
        layers.set("replay.disconnected_share", disconnected / offered);
    }
    let c = twin.counters();
    layers.set("graph.repairs", c.repairs as f64);
    layers.set("graph.full_rebuilds", c.full_rebuilds as f64);
    if c.repair_slots > 0 {
        layers
            .set("graph.repair_cone_fraction", c.repair_cone_nodes as f64 / c.repair_slots as f64);
    }
    layers.set("core.memo_lookups", c.memo_lookups as f64);
    if c.memo_lookups > 0 {
        layers.set("core.memo_hit_rate", c.memo_hits as f64 / c.memo_lookups as f64);
    }
    let steps = c.memo_spliced_steps + c.memo_walked_steps;
    if steps > 0 {
        layers.set("core.memo_spliced_share", c.memo_spliced_steps as f64 / steps as f64);
    }
    layers.set("stretch.pairs", pairs);
    layers.set("stretch.undelivered", undelivered);
    Ok(())
}
