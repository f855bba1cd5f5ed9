//! Measurement infrastructure: the criterion benchmark suite, the `repro`
//! paper-reproduction harness, and the `benchgate` bench-regression gate.
//!
//! This crate (`emb-bench`) is where the repository's performance claims
//! live and are *enforced*:
//!
//! * **benches/** — seventeen criterion benchmarks covering every layer:
//!   mixed-radix sequence generation, basic/increasing/lowering-dimension
//!   embeddings, the batched `verify`/`congestion` pipeline
//!   (`pipeline_throughput`), the sweep engine (`explab_throughput`), the
//!   annealing optimizer (`optim_throughput`), sharded annealing and the
//!   delta-aware makespan objective (`shard_scaling`), routing ablations and
//!   `netsim` latency;
//! * **`repro` bin** — regenerates the paper's figures and summary tables as
//!   text (Figures 1–2 and 9, the Section 3 basic-embedding table) with the
//!   repo-wide three-way [`check_mark`] markers;
//! * **`benchgate` bin** — the CI regression gate: re-measures the
//!   throughput figures recorded in the checked-in `BENCH_pipeline.json`,
//!   `BENCH_explab.json`, `BENCH_optim.json` and `BENCH_shards.json`
//!   baselines (best-of-N wall-clock, so one scheduler hiccup cannot fail
//!   the gate) and exits non-zero when any metric drops below
//!   `--min-ratio` × baseline (CI: 0.7). Its measured-throughput table is
//!   uploaded as a per-run CI artifact, giving a cheap longitudinal perf
//!   history without a dashboard service.
//!
//! Library-side, the crate carries two modules the binaries and benches
//! share:
//!
//! * [`compat`] — the pre-batching per-call evaluation paths, kept so the
//!   pipeline benches can report batched-vs-per-call speedups honestly;
//! * [`gate`] — the baseline-extraction and ratio-check logic `benchgate`
//!   drives (baselines parse with [`embeddings::json`]).
//!
//! Everything here measures; nothing here is measured. The crate is not
//! published and exports no stability guarantees — benches and gates may
//! reshape freely as the hot paths move.

pub mod compat;
pub mod gate;

use topology::{GraphKind, Grid, Shape};

/// Builds a shape from a slice, panicking on invalid input (benchmarks and
/// the repro harness only use known-good shapes).
pub fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).expect("valid shape")
}

/// Builds a grid of the given kind and shape.
pub fn grid(kind: GraphKind, radices: &[u32]) -> Grid {
    Grid::new(kind, shape(radices))
}

/// A torus of the given shape.
pub fn torus(radices: &[u32]) -> Grid {
    grid(GraphKind::Torus, radices)
}

/// A mesh of the given shape.
pub fn mesh(radices: &[u32]) -> Grid {
    grid(GraphKind::Mesh, radices)
}

/// Formats a `(paper, measured)` pair with a pass/fail marker.
///
/// The three outcomes are reported with three distinct markers so sweep
/// tables show at a glance whether a measurement *matches* the paper's
/// bound exactly, *beats* it, or violates it:
///
/// * `"ok"` — measured equals the paper value exactly,
/// * `"ok (beats bound)"` — measured is strictly below the paper bound,
/// * `"MISMATCH"` — measured exceeds the bound (a real failure).
pub fn check_mark(paper: u64, measured: u64) -> &'static str {
    if measured == paper {
        "ok"
    } else if measured < paper {
        "ok (beats bound)"
    } else {
        "MISMATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_expected_graphs() {
        assert_eq!(torus(&[4, 2, 3]).size(), 24);
        assert!(mesh(&[4, 2, 3]).is_mesh());
        assert_eq!(check_mark(2, 2), "ok");
        assert_eq!(check_mark(2, 1), "ok (beats bound)");
        assert_eq!(check_mark(1, 2), "MISMATCH");
    }

    #[test]
    fn check_mark_outcomes_are_pairwise_distinct() {
        // Exact match, strictly-better and violation must never collapse
        // into the same marker, or sweep tables lose information.
        let exact = check_mark(3, 3);
        let beats = check_mark(3, 2);
        let violates = check_mark(3, 4);
        assert_ne!(exact, beats);
        assert_ne!(exact, violates);
        assert_ne!(beats, violates);
    }
}
