//! Seeded inputs: a small PRNG, a seeded permutation, and the daemon
//! workload's operation sequence.

use pr_daemon::QueryKind;

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Multiply-shift: bias below 2^-32 for the sizes used here.
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// At most this many links are failed at once in the daemon workload.
pub const MAX_FAILED: usize = 3;

/// One client operation of the daemon workload. Links are indices into
/// the graph's link list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `link-down` of a live link.
    Down(usize),
    /// `link-up` of a failed link.
    Up(usize),
    /// A control-protocol query.
    Query(QueryKind),
    /// `GET /metrics` on a fresh HTTP connection.
    Scrape,
}

impl Op {
    /// Class name used in reports: `event`, `query` or `scrape`.
    pub fn class(self) -> &'static str {
        match self {
            Op::Down(_) | Op::Up(_) => "event",
            Op::Query(_) => "query",
            Op::Scrape => "scrape",
        }
    }
}

/// The daemon workload's seeded operation stream: about 50 % link
/// events, 30 % queries split evenly over coverage, traffic and
/// stretch, and 20 % scrapes. Events keep at most [`MAX_FAILED`]
/// links failed and never fail a failed link or restore a live one.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    links: usize,
    failed: Vec<usize>,
}

impl OpGen {
    /// A stream over a graph with `links` links (at least
    /// [`MAX_FAILED`] + 1), seeded by `seed`.
    pub fn new(links: usize, seed: u64) -> OpGen {
        assert!(links > MAX_FAILED, "need more than {MAX_FAILED} links");
        OpGen { rng: Rng::new(seed ^ 0x6461_656d_6f6e), links, failed: Vec::new() }
    }

    /// Links failed after every operation emitted so far, ascending.
    pub fn failed(&self) -> Vec<usize> {
        let mut f = self.failed.clone();
        f.sort_unstable();
        f
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < 50 {
            let down = match self.failed.len() {
                0 => true,
                MAX_FAILED => false,
                _ => self.rng.below(2) == 0,
            };
            if down {
                let live = self.links - self.failed.len();
                let mut pick = self.rng.below(live);
                // The pick-th live link: skip failed ids at or below it.
                for f in self.failed() {
                    if f <= pick {
                        pick += 1;
                    }
                }
                self.failed.push(pick);
                Op::Down(pick)
            } else {
                let i = self.rng.below(self.failed.len());
                Op::Up(self.failed.swap_remove(i))
            }
        } else if roll < 80 {
            Op::Query(match self.rng.below(3) {
                0 => QueryKind::Coverage,
                1 => QueryKind::Traffic,
                _ => QueryKind::Stretch,
            })
        } else {
            Op::Scrape
        }
    }

    /// The first `n` operations.
    #[cfg(test)]
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(1000, 7);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..1000).collect::<Vec<_>>());
        assert_eq!(p, permutation(1000, 7));
        assert_ne!(p, permutation(1000, 8));
    }

    #[test]
    fn op_stream_is_deterministic_per_seed() {
        assert_eq!(OpGen::new(660, 1).take(5000), OpGen::new(660, 1).take(5000));
        assert_ne!(OpGen::new(660, 1).take(100), OpGen::new(660, 2).take(100));
    }

    #[test]
    fn op_stream_keeps_event_semantics_and_mix() {
        for seed in 0..20 {
            let mut gen = OpGen::new(30, seed);
            let mut failed = std::collections::BTreeSet::new();
            let mut counts = std::collections::BTreeMap::new();
            for op in gen.take(20_000) {
                *counts.entry(op.class()).or_insert(0usize) += 1;
                match op {
                    Op::Down(l) => assert!(l < 30 && failed.insert(l), "double down of {l}"),
                    Op::Up(l) => assert!(failed.remove(&l), "spurious up of {l}"),
                    _ => {}
                }
                assert!(failed.len() <= MAX_FAILED);
            }
            assert_eq!(gen.failed(), failed.into_iter().collect::<Vec<_>>());
            let share = |c: &str| counts[c] as f64 / 20_000.0;
            assert!((share("event") - 0.5).abs() < 0.02, "{counts:?}");
            assert!((share("query") - 0.3).abs() < 0.02, "{counts:?}");
            assert!((share("scrape") - 0.2).abs() < 0.02, "{counts:?}");
        }
    }

    /// The stream applied to a real twin: the daemon's strict event
    /// semantics reject none of it.
    #[test]
    fn twin_accepts_every_generated_request() {
        use pr_daemon::{DemandSpec, Twin};
        let graph = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
        let names = crate::setup::link_names(&graph);
        let net = crate::setup::compile(&graph, &mut crate::trace::Tracer::off());
        let mut twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 1).expect("twin");
        let mut gen = OpGen::new(names.len(), 42);
        for op in gen.take(1500) {
            let Some(req) = crate::daemon::request_for(op, &names) else {
                twin.gauges();
                continue;
            };
            let resp = twin.handle(&req);
            assert!(!resp.is_error(), "{op:?} rejected: {resp:?}");
        }
        assert_eq!(twin.failed_set().iter().map(|l| l.index()).collect::<Vec<_>>(), gen.failed());
    }
}
