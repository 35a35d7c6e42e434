//! The per-layer metrics of the traced run.

use std::collections::BTreeMap;

use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric, with its unit. A workload that does not
/// cross a layer reports 0 for it (no work done there).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("embedding.embed_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("graph.allpairs_ms", "ms"),
    ("core.densefib_ms", "ms"),
    ("traffic.flowset_ms", "ms"),
    ("graph.repair_p50_us", "us"),
    ("graph.repair_p90_us", "us"),
    ("graph.repairs", "count"),
    ("graph.repair_cone_fraction", "ratio"),
    ("graph.full_rebuilds", "count"),
    ("core.memo_lookups", "count"),
    ("core.memo_hit_rate", "ratio"),
    ("core.memo_spliced_share", "ratio"),
    ("stretch.pairs", "count"),
    ("stretch.undelivered", "count"),
    ("engine.speedup_2t", "ratio"),
    ("scenarios.unrank_ns", "ns"),
    ("replay.scenario_p50_us", "us"),
    ("replay.scenario_p90_us", "us"),
    ("replay.fallback_share", "ratio"),
    ("replay.disconnected_share", "ratio"),
    ("twin.event_us", "us"),
    ("twin.query_coverage_us", "us"),
    ("twin.query_traffic_us", "us"),
    ("twin.query_stretch_us", "us"),
    ("twin.gauges_us", "us"),
    ("protocol.codec_us", "us"),
    ("eventlog.record_us", "us"),
    ("server.wire_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values measured by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a metric; the name must be one of [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets `name` to the median duration, in ms, of the spans named
    /// `span`.
    pub fn median_ms(&mut self, tr: &Tracer, name: &'static str, span: &str) {
        let us = tr.durations_us(span);
        self.set(name, median(&us).map_or(0.0, |m| m / 1e3));
    }

    /// The value of `name`, if this workload measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}
