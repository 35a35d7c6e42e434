//! Shared set-up: PR compilation, the seeded scenario order, memory
//! read-outs, and the report every workload returns.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{heuristics, CellularEmbedding};
use pr_graph::{Graph, LinkSet};
use pr_scenarios::ScenarioFamily;

use crate::ops::permutation;
use crate::stats::median;
use crate::trace::Tracer;

/// Embeds and compiles `graph` exactly as `pr sweep`, `pr traffic` and
/// `pr daemon run` do by default: the thorough embedding search with
/// seed 2010, 8 restarts and 60,000 iterations, then a distance-
/// discriminator network with hop discriminators.
pub fn compile(graph: &Graph, tr: &mut Tracer) -> PrNetwork {
    let emb = tr.span("embedding.embed", |_| {
        let rot = heuristics::thorough(graph, 2010, 8, 60_000);
        CellularEmbedding::new(graph, rot).expect("benchmark topologies are connected")
    });
    tr.span("core.compile", |_| {
        PrNetwork::compile(graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    })
}

/// `"A-B"` endpoint names of every link, in link-id order: how the
/// daemon protocol addresses links.
pub fn link_names(graph: &Graph) -> Vec<String> {
    graph
        .links()
        .map(|l| {
            let (a, b) = graph.endpoints(l);
            format!("{}-{}", graph.node_name(a), graph.node_name(b))
        })
        .collect()
}

/// A scenario family visited in a seeded order. The inner family still
/// constructs every scenario (for `ExhaustiveKFailures`, by colex
/// unranking); only the index it is asked for changes.
pub struct Permuted<F> {
    inner: F,
    order: Vec<usize>,
}

impl<F: ScenarioFamily> Permuted<F> {
    /// `inner` in the order drawn from `seed`.
    pub fn new(inner: F, seed: u64) -> Permuted<F> {
        let order = permutation(inner.len(), seed);
        Permuted { inner, order }
    }

    /// Mean cost in ns of constructing one scenario of the inner family
    /// (`ScenarioFamily::scenario`), the median of five passes.
    pub fn unrank_ns(&self, tr: &mut Tracer) -> f64 {
        let n = self.inner.len();
        let mut per_call = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            tr.span("scenarios.unrank", |_| {
                for i in 0..n {
                    std::hint::black_box(self.inner.scenario(std::hint::black_box(i)));
                }
            });
            per_call.push(t.elapsed().as_nanos() as f64 / n as f64);
        }
        median(&per_call).expect("five passes")
    }

    /// The inner family's index of scenario `i`.
    pub fn original(&self, i: usize) -> usize {
        self.order[i]
    }
}

impl<F: ScenarioFamily> ScenarioFamily for Permuted<F> {
    fn label(&self) -> String {
        format!("{}-permuted", self.inner.label())
    }

    fn link_capacity(&self) -> usize {
        self.inner.link_capacity()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn scenario(&self, index: usize) -> LinkSet {
        self.inner.scenario(self.order[index])
    }
}

/// Runs `perfbench setup <workload> <seed>` — the workload's set-up in
/// a fresh process, as a user's run pays it — and returns the time from
/// spawn to exit in seconds.
pub fn timed_setup_process(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let t = Instant::now();
    let status = Command::new(&exe)
        .args(["setup", workload, &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let elapsed = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("set-up process for {workload} failed: {status}"));
    }
    Ok(elapsed)
}

/// Runs `op` until `budget` has passed and it has run at least `min`
/// times. `op` returns its result and its own time in seconds; returns
/// every time and the last result.
pub fn repeat<T>(budget: Duration, min: usize, mut op: impl FnMut() -> (T, f64)) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, dt) = op();
        times.push(dt);
        if times.len() >= min && start.elapsed() >= budget {
            return (times, out);
        }
    }
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in
/// MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweeps, or daemon requests).
    pub attempted: u64,
    /// Operations that failed: an error response, an I/O error or
    /// timeout, or a failed output check.
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Metrics for the result line, by name: (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Further read-outs printed for people but not in the result line.
    pub info: Vec<String>,
}

impl Report {
    /// Records a metric for the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records one attempted operation and, if it failed, why (the
    /// first 20 reasons are kept).
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(what) = failure {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what);
            }
        }
    }
}
