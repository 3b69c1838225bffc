//! Qualitative predicate extraction.
//!
//! For every reference feature (e.g. each district), computes the
//! qualitative spatial relationships with every relevant feature
//! (slums, schools, police centers, …) and records them *at feature-type
//! granularity* as rows of a [`PredicateTable`]. This is the step the
//! paper identifies as the computational cost centre of spatial frequent
//! pattern mining; three accelerations apply:
//!
//! * the layer's R-tree prunes candidate pairs for topological relations
//!   (envelope-disjoint pairs can only be `disjoint`);
//! * distance-band predicates run through an R-tree *window query* — the
//!   reference envelope buffered by the largest bounded band — instead of
//!   a full scan, whenever the scheme's last band is bounded and direction
//!   predicates (which have no range cutoff) are off;
//! * [`PreparedGeometry`] caches envelopes, part dimensions *and lazily
//!   built segment indexes* (packed R-tree over segments, monotone-edge
//!   ring indexes), prepared once per relevant feature per extraction and
//!   shared by every row, so repeated relates against one feature's
//!   candidate set run the sublinear indexed kernel;
//! * surviving distance pairs use the branch-and-bound
//!   [`PreparedGeometry::distance_within`] with the scheme's largest
//!   bounded band as cutoff, instead of the full minimum distance;
//! * self-join layers (the relevant layer *is* the reference layer) build
//!   a symmetric per-pair memo up front, so each unordered relate/distance
//!   pair is computed once instead of twice.
//!
//! # The one entry point
//!
//! [`extract_predicates`] is the single extraction entry point. Everything
//! a run needs — what to extract, how many threads, the [`Recorder`], the
//! [`CancelToken`], the [`MemoryBudget`], the [`Tiling`] policy and the
//! optional durable [`Journal`] — is carried on [`ExtractionConfig`].
//!
//! Extraction parallelises over reference features (rows are independent)
//! on the in-tree [`geopattern_par`] pool — or, under [`Tiling::Grid`],
//! over spatial tiles (the `tiled` module). Workers emit *predicate
//! batches*, not interned codes; the single-threaded merge afterwards
//! interns them in row order, so the resulting table — predicate
//! numbering included — is byte-identical to a serial run regardless of
//! thread count or tiling.
//!
//! The configured [`Recorder`] receives per-phase timings and counters:
//! workers fill a private [`geopattern_obs::Metrics`] (no locking on the
//! hot path) which the row-order merge absorbs — the same discipline that
//! keeps the table deterministic keeps the metrics deterministic.
//!
//! The configured [`CancelToken`] is checked at pool chunk boundaries and
//! *inside each row's pair loops* (fail point: `sdb/extract.row`), so even
//! a single enormous row stops promptly; a worker panic is isolated by the
//! pool and surfaced as [`Interrupt::WorkerPanic`]. Runs that complete
//! normally are byte-identical to uncontrolled runs.

use crate::feature::{Feature, Layer};
use crate::predicate_table::{Predicate, PredicateTable};
use geopattern_geom::{take_kernel_counters, GeomDim, IntersectionMatrix, PreparedGeometry};
use geopattern_obs::{Metrics, Recorder};
use geopattern_par::{try_par_map, CancelToken, Interrupt, Journal, MemoryBudget, ShardLog, Threads};
use geopattern_qsr::{
    classify, geometry_direction, DistanceScheme, SpatialPredicate, TopologicalRelation,
};

/// How extraction shards its spatial work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tiling {
    /// One flat work list over the reference rows — the default, and the
    /// baseline every other policy must reproduce bit-identically.
    #[default]
    Flat,
    /// Shard over a [`geopattern_geom::TileGrid`] covering the reference
    /// layer's envelope: each tile owns the reference rows whose envelope
    /// center falls inside it, materialises per-tile sub-layers of the
    /// relevant features its rows can reach (buffered by the largest
    /// bounded distance band), and extracts independently. Output is
    /// bit-identical to [`Tiling::Flat`] at any tile size and thread
    /// count; only the sharding (and therefore the wall-clock and memory
    /// profile) changes.
    Grid {
        /// Tiles per axis (an `n × n` grid; clamped to at least 1).
        tiles_per_axis: usize,
    },
}

/// What to extract, and under which execution regime.
///
/// Alongside the predicate selection, the config carries the full control
/// plane — [`Recorder`], [`CancelToken`], [`MemoryBudget`], [`Tiling`] and
/// worker [`Threads`] — so [`extract_predicates`] is the only entry point
/// needed. Builder methods mirror [`geopattern_par`]'s mining configs.
///
/// Callers driving extraction through `MiningPipeline` should set threads,
/// recorder, cancel token and budget *on the pipeline*: the pipeline's
/// settings take precedence over whatever this config carries.
#[derive(Debug, Clone)]
pub struct ExtractionConfig {
    /// Compute topological predicates (via DE-9IM classification).
    pub topological: bool,
    /// Include `disjoint` as a predicate. Almost every feature pair is
    /// disjoint, so the paper's experiments leave it out; off by default.
    pub include_disjoint: bool,
    /// Distance bands to quantise feature distances into, if any.
    /// Distance predicates apply to *non-intersecting* pairs only when
    /// `distance_excludes_intersecting` is set (the common reading: a
    /// district is not "far from" a police center it contains).
    pub distance: Option<DistanceScheme>,
    /// Skip distance predicates for pairs that already intersect.
    pub distance_excludes_intersecting: bool,
    /// Compute cone-based cardinal-direction predicates
    /// (`northOf_river`, …) — the paper's *order* relations \[11\]. Like
    /// distance predicates, they apply to non-intersecting pairs when
    /// `distance_excludes_intersecting` is set.
    pub direction: bool,
    /// Include the reference features' non-spatial attributes as
    /// `attribute=value` predicates.
    pub nonspatial_attributes: bool,
    /// Worker threads for the per-row (or per-tile) loop. The output is
    /// identical for every setting; this only changes wall-clock.
    pub threads: Threads,
    /// Spatial sharding policy. [`Tiling::Flat`] by default.
    pub tiling: Tiling,
    /// Metric sink for phase timings, counters and histograms. Disabled
    /// by default; recording never changes the extracted output.
    pub recorder: Recorder,
    /// Cooperative cancellation (and deadline) token. Checked at pool
    /// chunk boundaries and inside each row's pair loops.
    pub cancel: CancelToken,
    /// Memory budget. Extraction's accounting is *track-only* (the tiled
    /// path reserves/releases its materialised sub-layers so the
    /// high-water mark is observable); it never degrades the output.
    pub budget: MemoryBudget,
    /// Optional per-tile checkpoint log: under [`Tiling::Grid`], each tile
    /// is marked completed once all its rows finished un-interrupted, so
    /// after a fault the log names exactly the finished shards.
    pub shard_log: Option<ShardLog>,
    /// Optional durable journal: under [`Tiling::Grid`], each completed
    /// tile's rows are persisted as they finish, and tiles already present
    /// in the journal are *reloaded instead of re-extracted* — the on-disk
    /// generalisation of `shard_log`. The caller is responsible for
    /// matching the journal to the run (the journal's fingerprint guards
    /// this at the CLI level); resumed output is bit-identical to an
    /// uninterrupted run at any thread count. Resumed tiles skip their
    /// per-row metrics (histograms, kernel counters) — the counters
    /// derived from the persisted [`ExtractionStats`] still match.
    pub journal: Option<Journal>,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            topological: true,
            include_disjoint: false,
            distance: None,
            distance_excludes_intersecting: true,
            direction: false,
            nonspatial_attributes: true,
            threads: Threads::Serial,
            tiling: Tiling::Flat,
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
            shard_log: None,
            journal: None,
        }
    }
}

impl ExtractionConfig {
    /// Topological predicates plus non-spatial attributes (the paper's
    /// first experiment setting).
    pub fn topological_only() -> ExtractionConfig {
        ExtractionConfig::default()
    }

    /// Adds a distance scheme.
    pub fn with_distance(mut self, scheme: DistanceScheme) -> ExtractionConfig {
        self.distance = Some(scheme);
        self
    }

    /// Enables cardinal-direction predicates.
    pub fn with_direction(mut self) -> ExtractionConfig {
        self.direction = true;
        self
    }

    /// Sets the worker-thread policy.
    pub fn with_threads(mut self, threads: Threads) -> ExtractionConfig {
        self.threads = threads;
        self
    }

    /// Sets the spatial sharding policy.
    pub fn with_tiling(mut self, tiling: Tiling) -> ExtractionConfig {
        self.tiling = tiling;
        self
    }

    /// Attaches a metric recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> ExtractionConfig {
        self.recorder = recorder;
        self
    }

    /// Attaches a cancellation (or deadline) token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> ExtractionConfig {
        self.cancel = cancel;
        self
    }

    /// Attaches a memory budget (track-only for extraction).
    pub fn with_budget(mut self, budget: MemoryBudget) -> ExtractionConfig {
        self.budget = budget;
        self
    }

    /// Attaches a per-tile checkpoint log (effective under
    /// [`Tiling::Grid`]).
    pub fn with_shard_log(mut self, log: ShardLog) -> ExtractionConfig {
        self.shard_log = Some(log);
        self
    }

    /// Attaches a durable journal (effective under [`Tiling::Grid`]):
    /// completed tiles persist as they finish and journaled tiles are
    /// reloaded instead of re-extracted. See the `journal` field docs.
    pub fn with_journal(mut self, journal: Journal) -> ExtractionConfig {
        self.journal = Some(journal);
        self
    }

    /// The half-width of the distance window query: the largest *bounded*
    /// distance band. `None` means the distance/direction path must scan
    /// the whole layer (open-ended band, or direction predicates on).
    pub(crate) fn bounded_window(&self) -> Option<f64> {
        match (&self.distance, self.direction) {
            (Some(scheme), false) => scheme.largest_bounded(),
            _ => None,
        }
    }
}

/// Counters describing an extraction run. Deterministic: every counter is
/// a per-row quantity summed over rows, so parallel (and tiled) runs
/// report exactly the serial numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Pairs whose exact relation was computed: envelope-intersecting
    /// candidates on the topological path, plus window-query survivors (or
    /// full-scan pairs) on the distance/direction path.
    pub candidate_pairs: usize,
    /// Pairs pruned by an R-tree filter with no exact computation: the
    /// envelope prefilter for topological relations and the buffered
    /// window query for bounded distance schemes. Tiled extraction counts
    /// against the *full* layer size, so the number matches the flat path
    /// exactly.
    pub pruned_pairs: usize,
    /// Spatial predicates emitted (row-level occurrences).
    pub spatial_predicates: usize,
}

impl ExtractionStats {
    fn absorb(&mut self, other: &ExtractionStats) {
        self.candidate_pairs += other.candidate_pairs;
        self.pruned_pairs += other.pruned_pairs;
        self.spatial_predicates += other.spatial_predicates;
    }
}

/// A relevant layer with every feature prepared once, shared read-only by
/// all workers — flat rows and tiles alike extract against the same
/// prepared set, so no geometry is ever prepared twice.
pub(crate) struct PreparedLayer<'a> {
    pub(crate) layer: &'a Layer,
    pub(crate) prepared: Vec<PreparedGeometry>,
    pub(crate) dims: Vec<GeomDim>,
    /// See [`ExtractionConfig::bounded_window`].
    pub(crate) window: Option<f64>,
    /// Per-pair results precomputed once for self-join layers.
    pub(crate) memo: Option<SelfJoinMemo>,
}

impl<'a> PreparedLayer<'a> {
    /// Prepares `layer` for row extraction.
    pub(crate) fn new(layer: &'a Layer, window: Option<f64>) -> PreparedLayer<'a> {
        PreparedLayer {
            layer,
            prepared: layer
                .features()
                .iter()
                .map(|f| PreparedGeometry::new(f.geometry.clone()))
                .collect(),
            dims: layer.features().iter().map(|f| f.geometry.dimension()).collect(),
            window,
            memo: None,
        }
    }
}

/// Precomputed pair results for a self-join layer (the relevant layer is
/// the reference layer itself, pointer-identical). Row `i` stores results
/// for its candidates `j >= i` only, in ascending `j`; a row's `j < i`
/// candidates read row `j`'s entry for `i` instead — transposed for
/// matrices, as-is for distances (both exactly symmetric; candidate sets
/// are symmetric because envelope intersection and buffered-window
/// intersection are). Every unordered pair is thus computed exactly once
/// instead of once per orientation.
pub(crate) struct SelfJoinMemo {
    /// Envelope-intersecting candidates per row (topological path).
    topo: Option<MemoRows<IntersectionMatrix>>,
    /// Window-query (or full-scan) candidates per row (distance path):
    /// `distance_within` results at the layer's cutoff.
    dist: Option<MemoRows<Option<f64>>>,
}

/// Per-row `(candidate index, result)` entries, ascending by candidate.
type MemoRows<T> = Vec<Vec<(u32, T)>>;

impl SelfJoinMemo {
    fn lookup_topo(&self, row: usize, ci: usize) -> Option<IntersectionMatrix> {
        let topo = self.topo.as_ref()?;
        if ci >= row {
            let entries = &topo[row];
            let at = entries.binary_search_by_key(&(ci as u32), |e| e.0).ok()?;
            Some(entries[at].1)
        } else {
            let entries = &topo[ci];
            let at = entries.binary_search_by_key(&(row as u32), |e| e.0).ok()?;
            Some(entries[at].1.transposed())
        }
    }

    fn lookup_dist(&self, row: usize, ci: usize) -> Option<Option<f64>> {
        let dist = self.dist.as_ref()?;
        let (r, c) = if ci >= row { (row, ci) } else { (ci, row) };
        let entries = &dist[r];
        let at = entries.binary_search_by_key(&(c as u32), |e| e.0).ok()?;
        Some(entries[at].1)
    }
}

/// One worker's output for one reference feature: the row's predicates in
/// serial emission order, plus the row's share of the stats and metrics.
pub(crate) struct RowBatch {
    pub(crate) predicates: Vec<Predicate>,
    pub(crate) stats: ExtractionStats,
    pub(crate) metrics: Metrics,
}

/// Extracts a predicate table from a reference layer and relevant layers.
///
/// This is the single extraction entry point: predicate selection,
/// threading, tiling, recording and fault tolerance are all read from
/// `config` (see [`ExtractionConfig`]). The returned table — predicate
/// numbering included — is byte-identical for every thread count and
/// tiling policy; a cancelled, deadline-expired or panicking run fails
/// with the corresponding [`Interrupt`] instead of returning a truncated
/// table.
pub fn extract_predicates(
    reference: &Layer,
    relevant: &[&Layer],
    config: &ExtractionConfig,
) -> Result<(PredicateTable, ExtractionStats), Interrupt> {
    match config.tiling {
        Tiling::Flat => extract_flat(reference, relevant, config),
        Tiling::Grid { tiles_per_axis } => {
            crate::tiled::extract_tiled(reference, relevant, config, tiles_per_axis)
        }
    }
}

/// The flat (untiled) extraction path: one parallel work list over the
/// reference rows.
fn extract_flat(
    reference: &Layer,
    relevant: &[&Layer],
    config: &ExtractionConfig,
) -> Result<(PredicateTable, ExtractionStats), Interrupt> {
    let recorder = &config.recorder;
    let cancel = &config.cancel;
    let _extract_span = recorder.span("extract");
    let window = config.bounded_window();
    let record = recorder.is_enabled();
    let layers = {
        let _prepare_span = recorder.span("prepare");
        prepare_layers(reference, relevant, config, window, record)?
    };

    let batches = {
        let _rows_span = recorder.span("rows");
        try_par_map(
            config.threads,
            cancel,
            "extract/rows",
            reference.features(),
            |row, ref_feature| {
                if geopattern_testkit::failpoint::trigger("sdb/extract.row") {
                    cancel.cancel();
                }
                extract_row(row, ref_feature, &layers, config, record)
            },
        )?
    };

    let _merge_span = recorder.span("merge");
    Ok(merge_batches(reference.features().iter().zip(batches), recorder))
}

/// Prepares every relevant layer exactly once: geometry preparation plus
/// the self-join memo when a relevant layer *is* the reference layer
/// (pointer identity). Shared by the flat and tiled paths — preparing the
/// same layers the same way is one half of why their outputs, kernel
/// counters included, are identical (the other half is the row-order
/// merge in [`merge_batches`]).
pub(crate) fn prepare_layers<'a>(
    reference: &Layer,
    relevant: &[&'a Layer],
    config: &ExtractionConfig,
    window: Option<f64>,
    record: bool,
) -> Result<Vec<PreparedLayer<'a>>, Interrupt> {
    let layers: Vec<PreparedLayer> =
        relevant.iter().map(|layer| PreparedLayer::new(layer, window)).collect();
    layers
        .into_iter()
        .map(|mut pl| {
            if std::ptr::eq(pl.layer as *const Layer, reference as *const Layer) {
                pl.memo = Some(build_self_join_memo(&pl, config, record)?);
            }
            Ok(pl)
        })
        .collect::<Result<_, Interrupt>>()
}

/// Single-threaded merge: interning in row order reproduces the serial
/// predicate numbering exactly, and absorbing worker metrics in the same
/// order keeps the aggregate deterministic. Shared by the flat and tiled
/// paths — the tiled path feeds its batches in global row order, which is
/// exactly why its table is bit-identical to the flat path's.
pub(crate) fn merge_batches<'a>(
    rows: impl Iterator<Item = (&'a Feature, RowBatch)>,
    recorder: &Recorder,
) -> (PredicateTable, ExtractionStats) {
    let mut table = PredicateTable::new();
    let mut stats = ExtractionStats::default();
    for (ref_feature, batch) in rows {
        stats.absorb(&batch.stats);
        recorder.absorb(&batch.metrics);
        let codes: Vec<u32> = batch.predicates.into_iter().map(|p| table.intern(p)).collect();
        table.push_row(ref_feature.id.clone(), codes);
    }
    recorder.counter("extract.rows", table.num_rows() as u64);
    recorder.counter("extract.predicates", table.num_predicates() as u64);
    recorder.counter("extract.candidate_pairs", stats.candidate_pairs as u64);
    recorder.counter("extract.pruned_pairs", stats.pruned_pairs as u64);
    recorder.counter("extract.spatial_predicates", stats.spatial_predicates as u64);
    (table, stats)
}

/// Precomputes every unordered pair result of a self-join layer, in
/// parallel over rows. Row `i` runs exactly the candidate queries
/// [`extract_row`] will run and keeps the `j >= i` half; kernel counters
/// are drained per row and absorbed in row order, so the recorded metrics
/// stay thread-count invariant.
fn build_self_join_memo(
    pl: &PreparedLayer,
    config: &ExtractionConfig,
    record: bool,
) -> Result<SelfJoinMemo, Interrupt> {
    let recorder = &config.recorder;
    let layer = pl.layer;
    let cutoff = pl.window.unwrap_or(f64::INFINITY);
    let want_dist = config.distance.is_some() || config.direction;
    type MemoRow = (Vec<(u32, IntersectionMatrix)>, Vec<(u32, Option<f64>)>, Metrics);
    let rows: Vec<MemoRow> = try_par_map(
        config.threads,
        &config.cancel,
        "extract/prepare",
        layer.features(),
        |row, feature| {
            // Discard counter residue left on this worker thread by other rows.
            let _ = take_kernel_counters();
            let envelope = feature.envelope();
            let mut topo = Vec::new();
            if config.topological {
                for ci in layer.query_envelope(&envelope) {
                    if ci >= row {
                        topo.push((ci as u32, pl.prepared[row].relate_to(&pl.prepared[ci])));
                    }
                }
            }
            let mut dist = Vec::new();
            if want_dist {
                let scan: Vec<usize> = match pl.window {
                    Some(max_d) => layer.index().query_window(&envelope, max_d),
                    None => (0..layer.len()).collect(),
                };
                for ci in scan {
                    if ci >= row {
                        dist.push((
                            ci as u32,
                            pl.prepared[row].distance_within(&pl.prepared[ci], cutoff),
                        ));
                    }
                }
            }
            let mut metrics = Metrics::new();
            if record {
                drain_kernel_counters(&mut metrics);
            }
            (topo, dist, metrics)
        },
    )?;
    let mut topo = Vec::with_capacity(rows.len());
    let mut dist = Vec::with_capacity(rows.len());
    for (t, d, metrics) in rows {
        topo.push(t);
        dist.push(d);
        recorder.absorb(&metrics);
    }
    Ok(SelfJoinMemo {
        topo: config.topological.then_some(topo),
        dist: want_dist.then_some(dist),
    })
}

/// Moves the thread-local geometry-kernel counters accumulated since the
/// last reset into `metrics`.
///
/// Every counter — including the quant fallback counter — is
/// drained per extraction task (row or memo entry) into that task's own
/// `Metrics` and merged in deterministic row order, so totals are
/// invariant under the worker thread count.
pub(crate) fn drain_kernel_counters(metrics: &mut Metrics) {
    let k = take_kernel_counters();
    metrics.add_counter("geom/segtree_nodes_visited", k.segtree_nodes_visited);
    metrics.add_counter("geom/pairs_exact", k.pairs_exact);
    metrics.add_counter("geom/distance_early_exit", k.distance_early_exit);
    metrics.add_counter("geom/simd_lanes_tested", k.simd_lanes_tested);
    metrics.add_counter("geom/simd_fallback_exact", k.simd_fallback_exact);
    metrics.add_counter("geom/quant_cells_resolved", k.quant_cells_resolved);
    metrics.add_counter("geom/quant_fallback_exact", k.quant_fallback_exact);
    metrics.add_counter("geom/quant_lanes_tested", k.quant_lanes_tested);
}

/// Computes one reference feature's predicates, in the exact order the
/// serial implementation emits them.
///
/// When the config's cancel token is enabled, it is checked once per
/// candidate pair (counted under `robust/cancel_checks`); on interruption
/// the row bails out with a truncated batch, which is safe because
/// [`try_par_map`] re-checks the token before returning `Ok` and discards
/// all output on interruption.
pub(crate) fn extract_row(
    row: usize,
    ref_feature: &Feature,
    layers: &[PreparedLayer],
    config: &ExtractionConfig,
    record: bool,
) -> RowBatch {
    let cancel = &config.cancel;
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut stats = ExtractionStats::default();
    let watch = cancel.is_enabled();
    let mut cancel_checks: u64 = 0;
    let mut interrupted = false;

    if config.nonspatial_attributes {
        for (attribute, value) in &ref_feature.attributes {
            predicates.push(Predicate::NonSpatial {
                attribute: attribute.clone(),
                value: value.clone(),
            });
        }
    }

    // Discard kernel-counter residue left on this worker thread by other
    // rows, so this row's drain below reports exactly its own work.
    let _ = take_kernel_counters();

    let prep_ref = PreparedGeometry::new(ref_feature.geometry.clone());
    let ref_dim = ref_feature.geometry.dimension();
    let ref_envelope = ref_feature.envelope();

    'layers: for pl in layers {
        let layer = pl.layer;
        let ft = layer.feature_type.as_str();

        if config.topological {
            // Envelope prefilter: only envelope-intersecting pairs can
            // have a non-disjoint topological relation.
            let candidates = layer.query_envelope(&ref_envelope);
            stats.pruned_pairs += layer.len() - candidates.len();
            let mut disjoint_count = layer.len() - candidates.len();
            for ci in candidates {
                if watch {
                    cancel_checks += 1;
                    if cancel.interrupted() {
                        interrupted = true;
                        break 'layers;
                    }
                }
                stats.candidate_pairs += 1;
                let m = match pl.memo.as_ref().and_then(|memo| memo.lookup_topo(row, ci)) {
                    Some(m) => m,
                    None => prep_ref.relate_to(&pl.prepared[ci]),
                };
                let rel = classify(&m, ref_dim, pl.dims[ci]);
                if rel == TopologicalRelation::Disjoint {
                    disjoint_count += 1;
                    continue;
                }
                predicates.push(Predicate::Spatial(SpatialPredicate::topological(rel, ft)));
                stats.spatial_predicates += 1;
            }
            if config.include_disjoint && disjoint_count > 0 {
                predicates.push(Predicate::Spatial(SpatialPredicate::topological(
                    TopologicalRelation::Disjoint,
                    ft,
                )));
                stats.spatial_predicates += 1;
            }
        }

        if config.distance.is_some() || config.direction {
            // Beyond the largest bounded band no predicate can classify,
            // so the buffered window query is a lossless prefilter; the
            // R-tree returns indices sorted ascending, preserving the full
            // scan's emission order on the surviving pairs.
            let scan: Vec<usize> = match pl.window {
                Some(max_d) => layer.index().query_window(&ref_envelope, max_d),
                None => (0..layer.len()).collect(),
            };
            stats.pruned_pairs += layer.len() - scan.len();
            // Bounded branch-and-bound distance: beyond the cutoff no band
            // classifies, so `None` carries exactly the information the
            // unbounded kernel's too-large distance would.
            let cutoff = pl.window.unwrap_or(f64::INFINITY);
            for ci in scan {
                if watch {
                    cancel_checks += 1;
                    if cancel.interrupted() {
                        interrupted = true;
                        break 'layers;
                    }
                }
                let rel_feature = &layer.features()[ci];
                stats.candidate_pairs += 1;
                let within = match pl.memo.as_ref().and_then(|memo| memo.lookup_dist(row, ci)) {
                    Some(within) => within,
                    None => prep_ref.distance_within(&pl.prepared[ci], cutoff),
                };
                let Some(d) = within else {
                    continue;
                };
                if d == 0.0 && config.distance_excludes_intersecting {
                    continue;
                }
                if let Some(scheme) = &config.distance {
                    if let Some((_, band)) = scheme.classify(d) {
                        predicates
                            .push(Predicate::Spatial(SpatialPredicate::distance(band, ft)));
                        stats.spatial_predicates += 1;
                    }
                }
                if config.direction {
                    let dir = geometry_direction(&ref_feature.geometry, &rel_feature.geometry);
                    predicates.push(Predicate::Spatial(SpatialPredicate::direction(dir, ft)));
                    stats.spatial_predicates += 1;
                }
            }
        }
    }

    // Worker-local metrics: filled without locks, absorbed by the merge
    // in row order. A truncated (interrupted) batch skips them — the pool
    // discards the whole output on interruption, so nothing partial can
    // leak into the aggregate.
    let mut metrics = Metrics::new();
    if record && !interrupted {
        metrics.record("extract.row_predicates", predicates.len() as u64);
        metrics.record("extract.row_candidate_pairs", stats.candidate_pairs as u64);
        if watch {
            metrics.add_counter("robust/cancel_checks", cancel_checks);
        }
        drain_kernel_counters(&mut metrics);
    }
    RowBatch { predicates, stats, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;
    use geopattern_geom::{coord, Point, Polygon};

    /// Uncontrolled extraction for tests: the new entry point with the
    /// config as given (which defaults to no recorder / no token).
    fn run(
        reference: &Layer,
        relevant: &[&Layer],
        config: &ExtractionConfig,
    ) -> (PredicateTable, ExtractionStats) {
        extract_predicates(reference, relevant, config).expect("uninterrupted")
    }

    /// One district containing a slum and a school point, touching another
    /// slum, with a police center far away.
    fn toy_layers() -> (Layer, Layer, Layer, Layer) {
        let district = Layer::new(
            "district",
            vec![Feature::new(
                "D1",
                Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into(),
            )
            .with_attribute("murderRate", "high")],
        );
        let slums = Layer::new(
            "slum",
            vec![
                Feature::new(
                    "slum1",
                    Polygon::rect(coord(2.0, 2.0), coord(4.0, 4.0)).unwrap().into(),
                ),
                Feature::new(
                    "slum2",
                    Polygon::rect(coord(10.0, 0.0), coord(12.0, 2.0)).unwrap().into(),
                ),
            ],
        );
        let schools = Layer::new(
            "school",
            vec![Feature::new("school1", Point::xy(5.0, 5.0).unwrap().into())],
        );
        let police = Layer::new(
            "policeCenter",
            vec![Feature::new("pc1", Point::xy(100.0, 100.0).unwrap().into())],
        );
        (district, slums, schools, police)
    }

    #[test]
    fn topological_extraction() {
        let (district, slums, schools, police) = toy_layers();
        let (table, stats) = run(
            &district,
            &[&slums, &schools, &police],
            &ExtractionConfig::topological_only(),
        );
        assert_eq!(table.num_rows(), 1);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        assert!(row_preds.contains(&"murderRate=high".to_string()));
        assert!(row_preds.contains(&"contains_slum".to_string()));
        assert!(row_preds.contains(&"touches_slum".to_string()));
        assert!(row_preds.contains(&"contains_school".to_string()));
        // Police center is disjoint: no predicate by default.
        assert!(!row_preds.iter().any(|p| p.contains("policeCenter")));
        // Envelope pruning skipped the faraway police center.
        assert!(stats.pruned_pairs >= 1);
        assert_eq!(stats.spatial_predicates, 3);
    }

    #[test]
    fn disjoint_opt_in() {
        let (district, slums, _schools, police) = toy_layers();
        let config = ExtractionConfig { include_disjoint: true, ..Default::default() };
        let (table, _) = run(&district, &[&slums, &police], &config);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        assert!(row_preds.contains(&"disjoint_policeCenter".to_string()));
    }

    #[test]
    fn distance_extraction() {
        let (district, _slums, _schools, police) = toy_layers();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::very_close_close_far(50.0, 200.0));
        let (table, _) = run(&district, &[&police], &config);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        // Distance from the district boundary to (100,100) ≈ 127.3 → close.
        assert!(row_preds.contains(&"closeTo_policeCenter".to_string()));
    }

    #[test]
    fn distance_skips_intersecting_by_default() {
        let (district, slums, _schools, _police) = toy_layers();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::very_close_close_far(50.0, 200.0));
        let (table, _) = run(&district, &[&slums], &config);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        // slum1 (contained) and slum2 (touching) are both at distance 0.
        assert!(!row_preds.iter().any(|p| p.starts_with("veryCloseTo_slum")));
        assert!(row_preds.contains(&"contains_slum".to_string()));
    }

    #[test]
    fn direction_extraction() {
        let (district, _slums, _schools, police) = toy_layers();
        let config = ExtractionConfig::topological_only().with_direction();
        let (table, _) = run(&district, &[&police], &config);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        // Police center at (100, 100) is northeast of the district.
        assert!(row_preds.contains(&"northEastOf_policeCenter".to_string()), "{row_preds:?}");
    }

    #[test]
    fn direction_skips_intersecting_pairs() {
        let (district, slums, _schools, _police) = toy_layers();
        let config = ExtractionConfig::topological_only().with_direction();
        let (table, _) = run(&district, &[&slums], &config);
        let row_preds: Vec<String> = table.rows()[0]
            .1
            .iter()
            .map(|&c| table.predicate(c).to_string())
            .collect();
        // Both slums intersect the district (contained / touching), so no
        // direction predicates are emitted for them.
        assert!(!row_preds.iter().any(|p| p.contains("Of_slum")), "{row_preds:?}");
    }

    #[test]
    fn multiple_instances_same_type_collapse() {
        // Two contained slums produce one `contains_slum` predicate
        // occurrence per row (feature-type granularity).
        let district = Layer::new(
            "district",
            vec![Feature::new(
                "D1",
                Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into(),
            )],
        );
        let slums = Layer::new(
            "slum",
            vec![
                Feature::new(
                    "s1",
                    Polygon::rect(coord(1.0, 1.0), coord(2.0, 2.0)).unwrap().into(),
                ),
                Feature::new(
                    "s2",
                    Polygon::rect(coord(3.0, 3.0), coord(4.0, 4.0)).unwrap().into(),
                ),
            ],
        );
        let (table, _) = run(&district, &[&slums], &ExtractionConfig::topological_only());
        assert_eq!(table.rows()[0].1.len(), 1);
        assert_eq!(table.predicate(table.rows()[0].1[0]).to_string(), "contains_slum");
    }

    #[test]
    fn bounded_distance_scheme_prunes_via_window_query() {
        // Bounded last band → the faraway police center is pruned by the
        // window query, never reaching geometry_distance.
        let (district, _slums, _schools, police) = toy_layers();
        let bounded = DistanceScheme::new(vec![("near", 20.0), ("mid", 60.0)]).unwrap();
        let config = ExtractionConfig {
            topological: false,
            nonspatial_attributes: false,
            ..ExtractionConfig::default()
        }
        .with_distance(bounded);
        let (table, stats) = run(&district, &[&police], &config);
        assert_eq!(stats.pruned_pairs, 1, "window query prunes the distant pair");
        assert_eq!(stats.candidate_pairs, 0);
        assert!(table.rows()[0].1.is_empty());

        // An unbounded scheme must scan (the pair classifies as "far").
        let unbounded = DistanceScheme::very_close_close_far(20.0, 60.0);
        let config = ExtractionConfig {
            topological: false,
            nonspatial_attributes: false,
            ..ExtractionConfig::default()
        }
        .with_distance(unbounded);
        let (table, stats) = run(&district, &[&police], &config);
        assert_eq!(stats.pruned_pairs, 0);
        assert_eq!(stats.candidate_pairs, 1);
        let labels: Vec<String> =
            table.rows()[0].1.iter().map(|&c| table.predicate(c).to_string()).collect();
        assert!(labels.contains(&"farTo_policeCenter".to_string()), "{labels:?}");
    }

    #[test]
    fn recorded_extraction_is_identical_and_counts_match_stats() {
        let (district, slums, schools, police) = toy_layers();
        let layers = [&slums, &schools, &police];
        let config = ExtractionConfig::topological_only();
        let (plain_table, plain_stats) = run(&district, &layers, &config);
        let rec = Recorder::new();
        let (table, stats) =
            run(&district, &layers, &config.clone().with_recorder(rec.clone()));
        assert_eq!(table.predicates(), plain_table.predicates());
        assert_eq!(table.rows(), plain_table.rows());
        assert_eq!(stats, plain_stats);
        let m = rec.snapshot();
        assert_eq!(m.counter("extract.candidate_pairs"), Some(stats.candidate_pairs as u64));
        assert_eq!(m.counter("extract.pruned_pairs"), Some(stats.pruned_pairs as u64));
        assert_eq!(m.counter("extract.rows"), Some(1));
        assert_eq!(m.span("extract").unwrap().count, 1);
        assert!(m.span("extract/rows").is_some());
        assert_eq!(m.histogram("extract.row_predicates").unwrap().count, 1);
    }

    #[test]
    fn recorded_metrics_are_thread_count_invariant() {
        // Same workload as the byte-identical test: counters and
        // histograms (not timings) must match the serial run exactly.
        let district = Layer::new(
            "district",
            (0..12)
                .map(|i| {
                    Feature::new(
                        format!("d{i}"),
                        Polygon::rect(coord(i as f64 * 10.0, 0.0), coord(i as f64 * 10.0 + 10.0, 10.0))
                            .unwrap()
                            .into(),
                    )
                })
                .collect(),
        );
        let slums = Layer::new(
            "slum",
            (0..5)
                .map(|i| {
                    Feature::new(
                        format!("s{i}"),
                        Polygon::rect(coord(i as f64 * 25.0, 2.0), coord(i as f64 * 25.0 + 4.0, 6.0))
                            .unwrap()
                            .into(),
                    )
                })
                .collect(),
        );
        let config = ExtractionConfig::topological_only();
        let serial_rec = Recorder::new();
        run(&district, &[&slums], &config.clone().with_recorder(serial_rec.clone()));
        let serial = serial_rec.snapshot();
        for n in [2usize, 8] {
            let rec = Recorder::new();
            run(
                &district,
                &[&slums],
                &config.clone().with_recorder(rec.clone()).with_threads(Threads::Fixed(n)),
            );
            let m = rec.snapshot();
            let counters: Vec<_> = m.counters().collect();
            assert_eq!(counters, serial.counters().collect::<Vec<_>>(), "{n} threads");
            assert_eq!(
                m.histogram("extract.row_predicates"),
                serial.histogram("extract.row_predicates"),
                "{n} threads"
            );
        }
    }

    #[test]
    fn idle_token_is_identical_and_counts_checks() {
        let (district, slums, schools, police) = toy_layers();
        let layers = [&slums, &schools, &police];
        let config = ExtractionConfig::topological_only();
        let (plain_table, plain_stats) = run(&district, &layers, &config);
        let rec = Recorder::new();
        let (table, stats) = run(
            &district,
            &layers,
            &config.clone().with_recorder(rec.clone()).with_cancel(CancelToken::new()),
        );
        assert_eq!(table.predicates(), plain_table.predicates());
        assert_eq!(table.rows(), plain_table.rows());
        assert_eq!(stats, plain_stats);
        // One check per candidate pair, a per-row quantity.
        let m = rec.snapshot();
        assert_eq!(m.counter("robust/cancel_checks"), Some(stats.candidate_pairs as u64));
    }

    #[test]
    fn disabled_token_records_no_robust_counters() {
        let (district, slums, _schools, _police) = toy_layers();
        let rec = Recorder::new();
        let config = ExtractionConfig::topological_only().with_recorder(rec.clone());
        run(&district, &[&slums], &config);
        assert_eq!(rec.snapshot().counter("robust/cancel_checks"), None);
    }

    #[test]
    fn pre_cancelled_token_interrupts_extraction() {
        let (district, slums, _schools, _police) = toy_layers();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = extract_predicates(
            &district,
            &[&slums],
            &ExtractionConfig::topological_only().with_cancel(cancel),
        )
        .unwrap_err();
        assert_eq!(err, Interrupt::Cancelled);
    }

    #[test]
    fn extract_row_fail_point_cancels_deterministically() {
        use geopattern_testkit::failpoint;
        let (district, slums, _schools, _police) = toy_layers();
        failpoint::activate("sdb/extract.row", failpoint::FailAction::Cancel, 1.0, 7);
        let err = extract_predicates(
            &district,
            &[&slums],
            &ExtractionConfig::topological_only().with_cancel(CancelToken::new()),
        )
        .unwrap_err();
        failpoint::deactivate("sdb/extract.row");
        assert_eq!(err, Interrupt::Cancelled);
    }

    #[test]
    fn parallel_extraction_is_byte_identical() {
        // Many districts in a grid, one slum layer: row order, predicate
        // numbering and stats must not depend on the thread count.
        let mut districts = Vec::new();
        let mut slums = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let (x0, y0) = (i as f64 * 10.0, j as f64 * 10.0);
                districts.push(
                    Feature::new(
                        format!("d{i}_{j}"),
                        Polygon::rect(coord(x0, y0), coord(x0 + 10.0, y0 + 10.0))
                            .unwrap()
                            .into(),
                    )
                    .with_attribute("crime", if (i + j) % 2 == 0 { "high" } else { "low" }),
                );
                if (i * 7 + j) % 3 == 0 {
                    slums.push(Feature::new(
                        format!("s{i}_{j}"),
                        Polygon::rect(coord(x0 + 2.0, y0 + 2.0), coord(x0 + 5.0, y0 + 5.0))
                            .unwrap()
                            .into(),
                    ));
                }
            }
        }
        let reference = Layer::new("district", districts);
        let relevant = Layer::new("slum", slums);
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::very_close_close_far(15.0, 40.0))
            .with_direction();
        let (serial_table, serial_stats) =
            run(&reference, &[&relevant], &config.clone().with_threads(Threads::Serial));
        for n in [2, 8] {
            let (table, stats) =
                run(&reference, &[&relevant], &config.clone().with_threads(Threads::Fixed(n)));
            assert_eq!(table.predicates(), serial_table.predicates(), "{n} threads");
            assert_eq!(table.rows(), serial_table.rows(), "{n} threads");
            assert_eq!(stats, serial_stats, "{n} threads");
        }
    }

}
