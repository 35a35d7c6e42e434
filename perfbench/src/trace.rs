//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public functions: name, start, end, parent span and the id
//! of the workload run it belongs to. Spans stay in memory until the
//! run ends, then [`Tracer::write_json`] writes them out. With tracing
//! off, [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.repair`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer recording the spans of the run `run_id`.
    pub fn on(run_id: String) -> Tracer {
        Tracer {
            enabled: true,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::on(String::new()) }
    }

    /// Runs `f` inside a span named `name` (nested spans opened by `f`
    /// get this one as parent).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations in microseconds of every span named `name`, in order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Self time per span name (duration minus the time its child
    /// spans cover) in milliseconds, with the span count.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns().saturating_sub(child) as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as JSON: `{"run": ..., "spans": [...]}`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 80);
        write!(out, "{{\"run\": \"{}\", \"spans\": [", self.run_id).expect("write to String");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let mut t = Tracer::on("t".into());
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let selfs = t.self_times_ms();
        assert_eq!(selfs["inner"].1, 2);
        assert!(selfs["inner"].0 >= 2.0);
        assert!(selfs["outer"].0 < t.spans[0].ns() as f64 / 1e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
