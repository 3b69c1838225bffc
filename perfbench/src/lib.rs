//! End-to-end benchmark of the `geopattern` pipeline.
//!
//! Three seeded workloads drive the public pipeline — `from_gpb` →
//! [`geopattern::MiningPipeline::extract`] → `encode` → `mine` — with
//! tracing off for the end-to-end numbers. A separate traced run times
//! calls into each layer's public functions from this crate's own code,
//! so the per-layer breakdown needs no span inside the program. See
//! `README.md` next to this crate for why each workload exists and which
//! end-to-end metric each layer metric should move.

pub mod layers;
pub mod output;
pub mod sys;
pub mod workload;

pub use workload::{Size, Workload};

/// End-to-end metrics, `(name, unit)`, emitted by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_s", "s"),
    ("cold_job_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, emitted by every traced run. The
/// prefix before the first `.` is the module (layer) that the metric
/// measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.load_s", "s"),
    ("core.extract_s", "s"),
    ("core.encode_s", "s"),
    ("core.mine_s", "s"),
    ("core.attributed_frac", "ratio"),
    ("sdb.rtree_query_s", "s"),
    ("sdb.rtree_queries", "count"),
    ("sdb.rtree_hits", "count"),
    ("sdb.rows_s", "s"),
    ("sdb.merge_s", "s"),
    ("sdb.candidate_pairs", "count"),
    ("sdb.pruned_pairs", "count"),
    ("sdb.predicate_yield", "ratio"),
    ("sdb.tiled_extract_s", "s"),
    ("sdb.tiled_over_flat", "ratio"),
    ("geom.prepare_s", "s"),
    ("geom.relate_first_s", "s"),
    ("geom.relate_s", "s"),
    ("geom.relate_pairs", "count"),
    ("geom.index_rss_mb", "MiB"),
    ("geom.distance_s", "s"),
    ("geom.distance_pairs", "count"),
    ("geom.distance_hit_frac", "ratio"),
    ("geom.segtree_nodes_visited", "count"),
    ("geom.distance_early_exit", "count"),
    ("geom.simd_lanes_tested", "count"),
    ("geom.simd_fallback_exact", "count"),
    ("geom.quant_cells_resolved", "count"),
    ("geom.quant_fallback_exact", "count"),
    ("geom.quant_resolve_frac", "ratio"),
    ("qsr.classify_s", "s"),
    ("mining.try_mine_s", "s"),
    ("mining.pass2_s", "s"),
    ("mining.candidates", "count"),
    ("mining.frequent", "count"),
    ("mining.candidate_yield", "ratio"),
    ("mining.c2_removed", "count"),
    ("mining.rules_s", "s"),
    ("mining.rules", "count"),
    ("par.extract_speedup", "ratio"),
    ("par.mine_speedup", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that did
/// no work on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
