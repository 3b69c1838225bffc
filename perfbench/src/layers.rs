//! The traced run: per-layer numbers, measured by timing calls into each
//! module's public functions from this crate. Nothing here adds a span
//! to the program; spans the program already records are read back.
//!
//! Three passes share one loaded dataset:
//!
//! 1. **core / obs** — untraced and traced (recorder attached) jobs
//!    alternate; the traced jobs give the stage split, the pair gives the
//!    tracing overhead.
//! 2. **sdb / par / mining** — `extract_predicates` serial, with the
//!    pipeline's threads, and under an 8×8 tile grid (all three tables
//!    must be equal), then `try_mine` serial and threaded, then
//!    `generate_rules`, checked against the oracle digest.
//! 3. **geom / qsr replay** — for every reference row: the R-tree, then
//!    `relate_to` (a cold pass that builds the lazy indexes and a warm
//!    pass), `classify`, and `distance_within` over the pairs the R-tree
//!    returned; the kernel counters cover the cold relate pass and the
//!    distance pass, the work extraction itself would count.
//!
//! `txn` has no geometry: its passes 2 and 3 run over an empty dataset,
//! so their times are the measured cost of doing nothing, their counts
//! are 0 and their ratios are reported as 0.

use crate::workload::{digest, run_job, JobInput, JobOutcome, Workload};
use crate::{median, ratio, Size};
use geopattern::{ExtractedTable, MiningPipeline, Recorder, SpatialDataset, Threads, Tiling};
use geopattern_geom::{take_kernel_counters, IntersectionMatrix, PreparedGeometry};
use geopattern_mining::{
    generate_rules, try_mine, AprioriConfig, CountingStrategy, MinSupport, TransactionSet,
};
use geopattern_obs::Metrics;
use geopattern_qsr::{classify, TopologicalRelation};
use geopattern_sdb::{extract_predicates, from_gpb, ExtractionConfig, Layer};
use std::hint::black_box;
use std::time::Instant;

/// Tiles per axis of the tiled extraction the traced run compares with
/// the default path.
const TILES_PER_AXIS: usize = 8;

/// Outputs checked during a run, and how many of them were wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that errored or differed from their reference.
    pub failed: u64,
}

impl Checks {
    /// Counts one check; logs a failure to stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Checks one job's digest against the oracle.
    pub fn job(&mut self, job: &JobOutcome, expect: u64) {
        match &job.digest {
            Ok(d) => self.check(
                *d == expect,
                &format!("job digest {d:016x} != oracle {expect:016x}"),
            ),
            Err(e) => self.check(false, &format!("job failed: {e}")),
        }
    }
}

/// Metric name → value, in the order measured.
pub type LayerMetrics = Vec<(&'static str, f64)>;

/// Runs the traced run and returns every per-layer metric.
pub fn traced_run(
    workload: Workload,
    size: Size,
    threads: usize,
    input: &JobInput,
    expect: u64,
    seconds: f64,
    checks: &mut Checks,
) -> LayerMetrics {
    let pipe = workload.pipeline(size, threads);
    let mut out = LayerMetrics::new();
    core_and_obs(input, &pipe, expect, seconds, checks, &mut out);

    let dataset = match input {
        JobInput::Gpb(bytes) => from_gpb(bytes).expect("the jobs loaded these bytes"),
        JobInput::Txn(_) => SpatialDataset::new(Layer::new("none", Vec::new()), Vec::new()),
    };
    let extraction = pipe.resolved_extraction();
    let table = sdb_and_par(&dataset, &extraction, checks, &mut out);
    let (transactions, dependencies, same_type) = match input {
        JobInput::Gpb(_) => {
            let encoded = pipe.encode(table).expect("encoding a fresh table");
            (
                encoded.transactions,
                encoded.dependencies,
                encoded.same_type,
            )
        }
        JobInput::Txn(e) => (e.data.clone(), e.dependencies.clone(), e.same_type.clone()),
    };
    let (minsup, minconf) = workload.thresholds();
    let config =
        AprioriConfig::apriori_kc_plus(MinSupport::Fraction(minsup), dependencies, same_type)
            .with_counting(CountingStrategy::default());
    mining(
        &transactions,
        &config,
        threads,
        minconf,
        expect,
        checks,
        &mut out,
    );
    drop(transactions);

    replay(&dataset, &extraction, &mut out);
    out
}

/// Pass 1: alternating untraced/traced jobs after one warm-up job, for
/// at least one pair and until `seconds` have passed.
fn core_and_obs(
    input: &JobInput,
    pipe: &MiningPipeline,
    expect: u64,
    seconds: f64,
    checks: &mut Checks,
    out: &mut LayerMetrics,
) {
    let start = Instant::now();
    checks.job(&run_job(input, pipe), expect);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let job = run_job(input, pipe);
        checks.job(&job, expect);
        plain.push(job);
        let job = run_job(input, &pipe.clone().recorder(Recorder::new()));
        checks.job(&job, expect);
        traced.push(job);
    }
    let stage = |f: fn(&JobOutcome) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    out.push(("core.load_s", stage(|j| j.stages.load)));
    out.push(("core.extract_s", stage(|j| j.stages.extract)));
    out.push(("core.encode_s", stage(|j| j.stages.encode)));
    out.push(("core.mine_s", stage(|j| j.stages.mine)));
    let staged: f64 = traced.iter().map(|j| j.stages.total()).sum();
    let walls: f64 = traced.iter().map(|j| j.wall).sum();
    out.push(("core.attributed_frac", staged / walls));
    let wall = |jobs: &[JobOutcome]| median(&jobs.iter().map(|j| j.wall).collect::<Vec<_>>());
    out.push(("obs.overhead_frac", wall(&traced) / wall(&plain) - 1.0));
}

/// One recorded `extract_predicates` call.
struct Extraction {
    table: ExtractedTable,
    seconds: f64,
    metrics: Metrics,
}

fn extract(dataset: &SpatialDataset, config: ExtractionConfig) -> Extraction {
    let recorder = Recorder::new();
    let config = config.with_recorder(recorder.clone());
    let start = Instant::now();
    let (table, stats) = extract_predicates(&dataset.reference, &dataset.relevant_refs(), &config)
        .expect("uncontrolled extraction");
    let seconds = start.elapsed().as_secs_f64();
    Extraction {
        table: ExtractedTable { table, stats },
        seconds,
        metrics: recorder.snapshot(),
    }
}

fn span_s(metrics: &Metrics, path: &str) -> f64 {
    metrics.span(path).map_or(0.0, |s| s.total_ns as f64 * 1e-9)
}

/// Pass 2a: the extraction paths. Returns the default-path table.
fn sdb_and_par(
    dataset: &SpatialDataset,
    base: &ExtractionConfig,
    checks: &mut Checks,
    out: &mut LayerMetrics,
) -> ExtractedTable {
    let serial = extract(dataset, base.clone().with_threads(Threads::Serial));
    let default = extract(dataset, base.clone());
    let tiled = extract(
        dataset,
        base.clone().with_tiling(Tiling::Grid {
            tiles_per_axis: TILES_PER_AXIS,
        }),
    );
    let same = |a: &ExtractedTable, b: &ExtractedTable| {
        a.stats == b.stats
            && a.table.predicates() == b.table.predicates()
            && a.table.rows() == b.table.rows()
    };
    checks.check(
        same(&serial.table, &default.table),
        "serial and threaded tables differ",
    );
    checks.check(
        same(&tiled.table, &default.table),
        "tiled and flat tables differ",
    );

    // Timing ratios mean nothing when there was no row to extract.
    let per_row = |r: f64| if dataset.reference.is_empty() { 0.0 } else { r };
    let stats = default.table.stats;
    out.push(("sdb.rows_s", span_s(&default.metrics, "extract/rows")));
    out.push(("sdb.merge_s", span_s(&default.metrics, "extract/merge")));
    out.push(("sdb.candidate_pairs", stats.candidate_pairs as f64));
    out.push(("sdb.pruned_pairs", stats.pruned_pairs as f64));
    out.push((
        "sdb.predicate_yield",
        ratio(
            stats.spatial_predicates as f64,
            stats.candidate_pairs as f64,
        ),
    ));
    out.push(("sdb.tiled_extract_s", tiled.seconds));
    out.push((
        "sdb.tiled_over_flat",
        per_row(tiled.seconds / default.seconds),
    ));
    out.push((
        "par.extract_speedup",
        per_row(serial.seconds / default.seconds),
    ));
    default.table
}

/// Pass 2b: `try_mine` serial and threaded, then `generate_rules`.
fn mining(
    transactions: &TransactionSet,
    config: &AprioriConfig,
    threads: usize,
    minconf: f64,
    expect: u64,
    checks: &mut Checks,
    out: &mut LayerMetrics,
) {
    let start = Instant::now();
    let serial = try_mine(transactions, &config.clone().with_threads(Threads::Serial))
        .expect("uncontrolled mining");
    let serial_s = start.elapsed().as_secs_f64();

    let recorder = Recorder::new();
    let threaded = config
        .clone()
        .with_threads(Threads::Fixed(threads))
        .with_recorder(recorder.clone());
    let start = Instant::now();
    let result = try_mine(transactions, &threaded).expect("uncontrolled mining");
    let mine_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let rules = generate_rules(&result, transactions.len(), minconf);
    let rules_s = start.elapsed().as_secs_f64();

    let catalog = &transactions.catalog;
    checks.check(
        digest(catalog, &serial, &[]) == digest(catalog, &result, &[]),
        "serial and threaded itemsets differ",
    );
    checks.check(
        digest(catalog, &result, &rules) == expect,
        "try_mine + rules differ from oracle",
    );

    let metrics = recorder.snapshot();
    let pass2_s: f64 = metrics
        .spans()
        .filter(|(path, _)| path.ends_with("pass2"))
        .map(|(_, s)| s.total_ns as f64 * 1e-9)
        .sum();
    let stats = &result.stats;
    let candidates: usize = stats.candidates_per_level.iter().sum();
    let frequent = result.num_frequent();
    let removed = stats.pairs_removed_dependencies + stats.pairs_removed_same_type;
    out.push(("mining.try_mine_s", mine_s));
    out.push(("mining.pass2_s", pass2_s));
    out.push(("mining.candidates", candidates as f64));
    out.push(("mining.frequent", frequent as f64));
    out.push((
        "mining.candidate_yield",
        ratio(frequent as f64, candidates as f64),
    ));
    out.push(("mining.c2_removed", removed as f64));
    out.push(("mining.rules_s", rules_s));
    out.push(("mining.rules", rules.len() as f64));
    out.push(("par.mine_speedup", ratio(serial_s, mine_s)));
}

/// Pass 3: the geometry replay on this thread, so the thread-local
/// kernel counters see all of it.
fn replay(dataset: &SpatialDataset, config: &ExtractionConfig, out: &mut LayerMetrics) {
    let window = config.distance.as_ref().and_then(|s| s.largest_bounded());
    let want_distance = config.distance.is_some();
    let cutoff = window.unwrap_or(f64::INFINITY);
    let relevant = &dataset.relevant;

    let start = Instant::now();
    let prepare = |layer: &Layer| -> Vec<PreparedGeometry> {
        layer
            .features()
            .iter()
            .map(|f| PreparedGeometry::new(f.geometry.clone()))
            .collect()
    };
    let reference = prepare(&dataset.reference);
    let prepared: Vec<Vec<PreparedGeometry>> = relevant.iter().map(prepare).collect();
    out.push(("geom.prepare_s", start.elapsed().as_secs_f64()));

    // (reference row, relevant layer, relevant feature) per candidate.
    let (mut topo, mut near) = (Vec::new(), Vec::new());
    let (mut queries, mut hits) = (0u64, 0u64);
    let start = Instant::now();
    for (row, feature) in dataset.reference.features().iter().enumerate() {
        let envelope = feature.envelope();
        for (li, layer) in relevant.iter().enumerate() {
            if config.topological {
                let found = layer.query_envelope(&envelope);
                queries += 1;
                hits += found.len() as u64;
                topo.extend(found.into_iter().map(|ci| (row, li, ci)));
            }
            if want_distance {
                let found = match window {
                    Some(margin) => layer.index().query_window(&envelope, margin),
                    None => (0..layer.len()).collect(),
                };
                queries += 1;
                hits += found.len() as u64;
                near.extend(found.into_iter().map(|ci| (row, li, ci)));
            }
        }
    }
    out.push(("sdb.rtree_query_s", start.elapsed().as_secs_f64()));
    out.push(("sdb.rtree_queries", queries as f64));
    out.push(("sdb.rtree_hits", hits as f64));

    // Pre-touched, so the resident-set delta below is the lazy indexes.
    let mut matrices = vec![IntersectionMatrix::empty(); topo.len()];
    let _ = take_kernel_counters();
    let rss_before = crate::sys::rss_mib();
    let start = Instant::now();
    for (m, &(row, li, ci)) in matrices.iter_mut().zip(&topo) {
        *m = reference[row].relate_to(&prepared[li][ci]);
    }
    out.push(("geom.relate_first_s", start.elapsed().as_secs_f64()));
    out.push((
        "geom.index_rss_mb",
        (crate::sys::rss_mib() - rss_before).max(0.0),
    ));

    let start = Instant::now();
    let mut related = 0usize;
    for (m, &(row, li, ci)) in matrices.iter().zip(&topo) {
        let rel = classify(
            m,
            reference[row].geometry().dimension(),
            prepared[li][ci].geometry().dimension(),
        );
        related += usize::from(rel != TopologicalRelation::Disjoint);
    }
    black_box(related);
    out.push(("qsr.classify_s", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    let mut within = 0usize;
    for &(row, li, ci) in &near {
        within += usize::from(
            reference[row]
                .distance_within(&prepared[li][ci], cutoff)
                .is_some(),
        );
    }
    out.push(("geom.distance_s", start.elapsed().as_secs_f64()));
    out.push(("geom.distance_pairs", near.len() as f64));
    out.push((
        "geom.distance_hit_frac",
        ratio(within as f64, near.len() as f64),
    ));

    // One relate pass and one distance pass, as extraction counts them;
    // the warm relate pass below runs after the drain.
    let k = take_kernel_counters();
    out.push(("geom.segtree_nodes_visited", k.segtree_nodes_visited as f64));
    out.push(("geom.distance_early_exit", k.distance_early_exit as f64));
    out.push(("geom.simd_lanes_tested", k.simd_lanes_tested as f64));
    out.push(("geom.simd_fallback_exact", k.simd_fallback_exact as f64));
    out.push(("geom.quant_cells_resolved", k.quant_cells_resolved as f64));
    out.push(("geom.quant_fallback_exact", k.quant_fallback_exact as f64));
    out.push((
        "geom.quant_resolve_frac",
        ratio(
            k.quant_cells_resolved as f64,
            (k.quant_cells_resolved + k.quant_fallback_exact) as f64,
        ),
    ));

    let start = Instant::now();
    for &(row, li, ci) in &topo {
        black_box(reference[row].relate_to(&prepared[li][ci]));
    }
    out.push(("geom.relate_s", start.elapsed().as_secs_f64()));
    out.push(("geom.relate_pairs", topo.len() as f64));
}
