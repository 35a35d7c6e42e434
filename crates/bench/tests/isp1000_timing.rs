//! Opt-in acceptance timing for the suffix-memoized walk engine: the
//! seeded 1000-node ISP mesh, exhaustive single-link failures, swept
//! single-threaded through `run_rows`. The recorded numbers live in
//! `BENCH_pr8.json`; bit-identity with the per-packet oracle is
//! enforced at smaller sizes by `tests/determinism.rs`.
//!
//! Ignored by default — this is a ~1-minute run, far too slow for
//! tier-1. Reproduce with:
//!
//! ```text
//! cargo test --release -p pr-bench --test isp1000_timing -- --ignored --nocapture
//! ```

use std::time::Instant;

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::generators::{self, MeshParams};
use pr_scenarios::SingleLinkFailures;

#[test]
#[ignore = "manual acceptance timing (~1 min); run --release --ignored --nocapture"]
fn isp1000_exhaustive_singles_timing() {
    let g = generators::isp_mesh(&MeshParams::new(1000, 2010));
    let rot = RotationSystem::geometric(&g).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&g, rot).expect("connected");
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let singles = SingleLinkFailures::new(&g);

    let t = Instant::now();
    let memoized = pr_bench::stretch::run_rows(&g, &pr, &singles, 1, 0);
    let memo_secs = t.elapsed().as_secs_f64();

    println!(
        "isp-1000 exhaustive singles, 1 thread: memoized {memo_secs:.1}s ({} scenarios)",
        memoized.len(),
    );
    assert!(
        memo_secs <= 30.0,
        "acceptance: memoized sweep must finish in <= 30s, got {memo_secs:.1}s"
    );
}
