//! The repository benchmark's workload runner.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--pr-cli <path>] [--out-dir <dir>]
//! perfbench pin
//! perfbench setup <workload> <seed>
//! ```
//!
//! Runs one seeded workload for `--seconds`, checks its outputs, prints
//! its read-outs, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured untraced; with `--trace 1` they are the
//! per-layer ones of a traced run, whose spans go to
//! `<out-dir>/trace-<workload>-seed<n>.json`. `pin` recomputes the
//! pinned reference figures from the serial oracles. `setup` runs one
//! sweep workload's set-up and exits; the runner times such processes
//! as `setup_s`. `run.py` beside this crate builds everything and is
//! the entry point to use.

mod daemon;
mod layers;
mod ops;
mod setup;
mod stats;
mod stretch;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::time::Duration;

use layers::{Layers, LAYER_METRICS};
use setup::Report;
use trace::Tracer;

/// The workloads, in the order `run.py --all` runs them.
const WORKLOADS: [&str; 3] = ["stretch-isp300", "traffic-geant-k3", "daemon-isp300"];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: scenario order, or the daemon's operation stream.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// The `pr-cli` binary (daemon workload only).
    pub pr_cli: Option<PathBuf>,
    /// Where trace files and daemon scratch files go.
    pub out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<(String, Config, bool), String> {
    let mut workload = None;
    let mut cfg =
        Config { seed: 1, seconds: Duration::from_secs(10), pr_cli: None, out_dir: ".".into() };
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| bad(&e))?;
                if !(2..=120).contains(&s) {
                    return Err(bad(&"wants 2..=120"));
                }
                cfg.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"wants 0 or 1")),
                }
            }
            "--pr-cli" => cfg.pr_cli = Some(value.into()),
            "--out-dir" => cfg.out_dir = value.into(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    Ok((workload, cfg, traced))
}

fn run(workload: &str, cfg: &Config, traced: bool) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    if !traced {
        return match workload {
            "stretch-isp300" => stretch::run(cfg),
            "traffic-geant-k3" => traffic::run(cfg),
            _ => daemon::run(cfg),
        };
    }
    let run_id = format!("{workload}-seed{}", cfg.seed);
    let mut tr = Tracer::on(run_id.clone());
    let (mut report, layers): (Report, Layers) = match workload {
        "stretch-isp300" => stretch::run_traced(cfg, &mut tr)?,
        "traffic-geant-k3" => traffic::run_traced(cfg, &mut tr)?,
        _ => daemon::run_traced(cfg, &mut tr)?,
    };
    let path = cfg.out_dir.join(format!("trace-{run_id}.json"));
    tr.write_json(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    report.info.push(format!("spans written to {}", path.display()));
    report.info.push("self time per layer (ms, spans):".to_string());
    for (name, (ms, count)) in tr.self_times_ms() {
        report.info.push(format!("  {name:<26} {ms:>12.3} {count:>8}"));
    }
    for (name, unit) in LAYER_METRICS {
        match layers.get(name) {
            Some(v) => report.metric(name, v, unit),
            None => {
                report.info.push(format!("{name}: 0 (layer not crossed by {workload})"));
                report.metric(name, 0.0, unit);
            }
        }
    }
    Ok(report)
}

/// Renders a metric value for the JSON line: all its digits.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["pin"] => {
            stretch::pin();
            traffic::pin();
            return;
        }
        ["setup", workload, seed] => {
            let seed = seed.parse().unwrap_or_else(|e| panic!("bad seed {seed:?}: {e}"));
            let mut tr = Tracer::off();
            match workload {
                "stretch-isp300" => drop(stretch::setup(seed, &mut tr)),
                "traffic-geant-k3" => drop(traffic::setup(seed, &mut tr)),
                _ => panic!("no set-up process for {workload:?}"),
            }
            return;
        }
        _ => {}
    }
    let (workload, cfg, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&workload, &cfg, traced) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    println!("workload {workload} seed {} trace {}", cfg.seed, u8::from(traced));
    for line in &report.info {
        println!("{line}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("{name} = {} {unit}", number(*value));
    }
    println!("failed_ops = {}/{}", report.failed, report.attempted);
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
