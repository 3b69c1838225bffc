//! Qualitative predicate extraction.
//!
//! For every reference feature (e.g. each district), computes the
//! qualitative spatial relationships with every relevant feature
//! (slums, schools, police centers, …) and records them *at feature-type
//! granularity* as rows of a [`PredicateTable`]. This is the step the
//! paper identifies as the computational cost centre of spatial frequent
//! pattern mining; five accelerations apply:
//!
//! * the layer's R-tree prunes candidate pairs for topological relations
//!   (envelope-disjoint pairs can only be `disjoint`);
//! * each surviving pair's relation comes from
//!   [`PreparedGeometry::relation`], which runs the relate engine only
//!   until the relation is decided (one fragment of a boundary inside the
//!   other operand and one outside settle `overlaps`), instead of
//!   [`PreparedGeometry::relate_to`], the full-matrix oracle, followed by
//!   `classify`; the two never differ;
//! * distance-band predicates run through an R-tree *window query* — the
//!   reference envelope buffered by the largest bounded band — instead of
//!   a full scan, whenever the scheme's last band is bounded and direction
//!   predicates (which have no range cutoff) are off;
//! * [`PreparedGeometry`] caches envelopes, part dimensions *and a lazily
//!   built segment index* (a packed R-tree over segments, which also
//!   locates points in a region), prepared once per relevant feature per
//!   extraction and shared by every row, so repeated relates against one
//!   feature's candidate set run the sublinear indexed kernel;
//! * surviving distance pairs use the branch-and-bound
//!   [`PreparedGeometry::distance_within`] with the scheme's largest
//!   bounded band as cutoff, instead of the full minimum distance.
//!
//! # The one entry point
//!
//! [`extract_predicates`] is the single extraction entry point. Everything
//! a run needs — what to extract, how many threads, the [`Recorder`], the
//! [`CancelToken`], the [`MemoryBudget`], the [`Tiling`] policy and the
//! optional durable [`Journal`] — is carried on [`ExtractionConfig`].
//!
//! Every run takes the same five steps:
//!
//! 1. plan the reference rows into the *occupied* tiles of a
//!    [`geopattern_geom::TileGrid`] (the `tiled` module; the default
//!    grid is one tile holding every row in row order);
//! 2. prepare the relevant layers once (`PreparedLayer`) and number the
//!    extraction vocabulary (`Vocabulary`);
//! 3. run the tiles one after another, each tile's rows in parallel on
//!    the in-tree [`geopattern_par`] pool (rows are independent);
//! 4. append each finished tile to the [`Journal`], if one is attached;
//! 5. merge in global row order (`merge_batches`).
//!
//! The vocabulary is every predicate a row can emit. The layers, the
//! settings and the reference attributes fix it before any geometry is
//! read (relation, band or direction × relevant feature type, plus the
//! `attribute=value` pairs), so workers emit plain `u32` vocabulary codes
//! and clone no string. The single-threaded merge
//! renumbers the codes into first-appearance order through one flat map,
//! so the resulting table — predicate numbering included — is
//! byte-identical to a serial run regardless of thread count or tiling,
//! and each *distinct* predicate is cloned and hashed once.
//!
//! The configured [`Recorder`] receives per-phase timings and counters.
//! Each measured row returns a fixed counter record (its kernel counters
//! and cancel checks) beside its codes; the merge sums them in row order,
//! names them once and absorbs them in one step — the same discipline
//! that keeps the table deterministic keeps the metrics deterministic.
//!
//! The configured [`CancelToken`] is checked at pool chunk boundaries and
//! *inside each row's pair loops* (fail point: `sdb/extract.row`, inside
//! the pool), so even a single enormous row stops promptly; a worker
//! panic is isolated by the pool and surfaced as
//! [`Interrupt::WorkerPanic`]. The fail point `sdb/extract.tile` fires on
//! the coordinating thread at each tile start — a sequential site. Runs
//! that complete normally are byte-identical to uncontrolled runs.

use crate::feature::{Feature, Layer};
use crate::predicate_table::{Predicate, PredicateTable};
use crate::tiled;
use geopattern_geom::{take_kernel_counters, Geometry, KernelCounters, PreparedGeometry, Rect};
use geopattern_obs::{Metrics, Recorder};
use geopattern_par::{CancelToken, Interrupt, Journal, MemoryBudget, Threads};
use geopattern_qsr::{
    geometry_direction, CardinalDirection, DistanceScheme, SpatialPredicate, TopologicalRelation,
};
use std::cell::Cell;
use std::collections::HashMap;

/// How extraction shards its spatial work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiling {
    /// Shard over a [`geopattern_geom::TileGrid`] covering the reference
    /// layer's envelope: each tile owns the reference rows whose envelope
    /// center falls inside it. Tiles run one after another, each tile's
    /// rows in parallel, and each tile is the unit of working-set
    /// accounting and journaling. Output is bit-identical at any tile
    /// size and thread count; only the sharding (and therefore the
    /// wall-clock and memory profile) changes. The default is one tile,
    /// which holds every row in row order.
    Grid {
        /// Tiles per axis (an `n × n` grid; clamped to
        /// `1..=TileGrid::MAX_TILES_PER_AXIS`).
        tiles_per_axis: usize,
    },
}

impl Default for Tiling {
    fn default() -> Tiling {
        Tiling::Grid { tiles_per_axis: 1 }
    }
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
    /// Distance predicates apply to *non-intersecting* pairs only (pairs
    /// at distance 0 are skipped: a district is not "far from" a police
    /// center it contains).
    pub distance: Option<DistanceScheme>,
    /// Compute cone-based cardinal-direction predicates
    /// (`northOf_river`, …) — the paper's *order* relations \[11\]. Like
    /// distance predicates, they apply to non-intersecting pairs only.
    pub direction: bool,
    /// Include the reference features' non-spatial attributes as
    /// `attribute=value` predicates.
    pub nonspatial_attributes: bool,
    /// Worker threads for each tile's row loop. The output is identical
    /// for every setting; this only changes wall-clock.
    pub threads: Threads,
    /// Spatial sharding policy: one tile by default.
    pub tiling: Tiling,
    /// Metric sink for phase timings, counters and histograms. Disabled
    /// by default; recording never changes the extracted output.
    pub recorder: Recorder,
    /// Cooperative cancellation (and deadline) token. Checked at pool
    /// chunk boundaries and inside each row's pair loops.
    pub cancel: CancelToken,
    /// Memory budget. Extraction's accounting is *track-only*: each tile
    /// reserves its working set while its rows run, so the high-water
    /// mark is observable; it never degrades the output.
    pub budget: MemoryBudget,
    /// Optional durable journal, the one extraction checkpoint: each
    /// completed tile's rows are persisted as the tile finishes, and tiles
    /// already present in the journal are *reloaded instead of
    /// re-extracted*. A record carries a digest of the extraction
    /// vocabulary and every output-affecting field above, so a tile
    /// journaled under other settings is re-extracted; matching the
    /// journal to the *data* is the caller's job (the journal's
    /// fingerprint guards this at the CLI level). Resumed output is
    /// bit-identical to an uninterrupted run at any thread count. Resumed
    /// tiles skip their per-row metrics (histograms, kernel counters) —
    /// the counters derived from the persisted [`ExtractionStats`] still
    /// match.
    pub journal: Option<Journal>,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            topological: true,
            include_disjoint: false,
            distance: None,
            direction: false,
            nonspatial_attributes: true,
            threads: Threads::Serial,
            tiling: Tiling::default(),
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
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

    /// Attaches a durable journal: completed tiles persist as they finish
    /// and journaled tiles are reloaded instead of re-extracted. See the
    /// `journal` field docs.
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
    /// window query for bounded distance schemes. Every row counts against
    /// the *full* layer size, so the number does not depend on the tiling.
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
/// all workers — every tile extracts against the same prepared set, so no
/// geometry is ever prepared twice. The prepared geometries borrow the
/// layer's, so preparing copies none.
pub(crate) struct PreparedLayer<'a> {
    pub(crate) layer: &'a Layer,
    pub(crate) prepared: Vec<PreparedGeometry<&'a Geometry>>,
    /// See [`ExtractionConfig::bounded_window`].
    pub(crate) window: Option<f64>,
    /// Vocabulary codes of this layer's topological predicates, indexed by
    /// `TopologicalRelation as usize` (filled when `topological` is on).
    topological: [u32; TopologicalRelation::ALL.len()],
    /// Vocabulary codes of this layer's distance predicates, indexed by
    /// band (empty without a distance scheme).
    bands: Vec<u32>,
    /// Vocabulary codes of this layer's direction predicates, indexed by
    /// `CardinalDirection as usize` (filled when `direction` is on).
    directions: [u32; CardinalDirection::ALL.len()],
}

impl<'a> PreparedLayer<'a> {
    /// Prepares `layer` for row extraction.
    pub(crate) fn new(layer: &'a Layer, window: Option<f64>) -> PreparedLayer<'a> {
        PreparedLayer {
            layer,
            prepared: layer
                .features()
                .iter()
                .map(|f| PreparedGeometry::new(&f.geometry))
                .collect(),
            window,
            topological: [u32::MAX; TopologicalRelation::ALL.len()],
            bands: Vec::new(),
            directions: [u32::MAX; CardinalDirection::ALL.len()],
        }
    }

    /// The rows a distance or direction scan visits, ascending, and their
    /// count: the window's R-tree hits around `envelope`, collected in
    /// `hits`, or every row, iterated as a range, when there is no window
    /// (the last band is unbounded, or direction predicates are on).
    fn scan<'h>(
        &self,
        envelope: &Rect,
        hits: &'h mut Vec<usize>,
    ) -> (usize, impl Iterator<Item = usize> + 'h) {
        let all = match self.window {
            // The window query: the envelope buffered by the largest band.
            Some(max_d) => {
                self.layer.index().query_rect_into(&envelope.buffered(max_d), hits);
                0..0
            }
            None => {
                hits.clear();
                0..self.layer.len()
            }
        };
        (hits.len() + all.len(), hits.iter().copied().chain(all))
    }
}

/// The extraction vocabulary: every predicate a row can emit, numbered
/// before any row runs. Rows emit these codes; the merge renumbers them
/// into the table's first-appearance numbering.
pub(crate) struct Vocabulary {
    /// The predicates by vocabulary code. Used only as a dictionary: it
    /// holds no rows.
    pub(crate) dictionary: PredicateTable,
    /// Each reference row's attribute codes, in attribute (`BTreeMap`)
    /// order; empty when attributes are off.
    attributes: Vec<Vec<u32>>,
}

impl Vocabulary {
    /// Numbers the predicates of every relevant layer — storing each
    /// layer's codes on it — and of every reference row's attributes.
    /// Layers that share a feature type share codes, since
    /// [`PredicateTable::intern`] dedups equal predicates.
    fn new(
        reference: &Layer,
        layers: &mut [PreparedLayer],
        config: &ExtractionConfig,
    ) -> Vocabulary {
        let mut dictionary = PredicateTable::new();
        let mut spatial = |p: SpatialPredicate| dictionary.intern(Predicate::Spatial(p));
        for pl in layers.iter_mut() {
            let ft = pl.layer.feature_type.as_str();
            if config.topological {
                for rel in TopologicalRelation::ALL {
                    pl.topological[rel as usize] = spatial(SpatialPredicate::topological(rel, ft));
                }
            }
            if let Some(scheme) = &config.distance {
                pl.bands = scheme
                    .bands()
                    .iter()
                    .map(|band| spatial(SpatialPredicate::distance(band.name.as_str(), ft)))
                    .collect();
            }
            if config.direction {
                for dir in CardinalDirection::ALL {
                    pl.directions[dir as usize] = spatial(SpatialPredicate::direction(dir, ft));
                }
            }
        }
        // Keyed by borrowed strings: each distinct pair is cloned once, on
        // its first occurrence.
        let mut by_pair: HashMap<(&str, &str), u32> = HashMap::new();
        let mut attributes = Vec::with_capacity(reference.len());
        for feature in reference.features() {
            let mut codes = Vec::new();
            if config.nonspatial_attributes {
                for (a, v) in &feature.attributes {
                    codes.push(*by_pair.entry((a.as_str(), v.as_str())).or_insert_with(|| {
                        let p = Predicate::NonSpatial { attribute: a.clone(), value: v.clone() };
                        dictionary.intern(p)
                    }));
                }
            }
            attributes.push(codes);
        }
        Vocabulary { dictionary, attributes }
    }
}

/// One worker's output for one reference feature: the row's vocabulary
/// codes in serial emission order, plus the row's share of the stats and
/// counters.
pub(crate) struct RowBatch {
    pub(crate) codes: Vec<u32>,
    pub(crate) stats: ExtractionStats,
    /// `None` without a recorder and for a resumed row: resumed rows
    /// describe work that was not redone.
    pub(crate) counters: Option<RowCounters>,
}

/// The fixed counter record of one measured row.
#[derive(Clone, Copy, Default)]
pub(crate) struct RowCounters {
    kernel: KernelCounters,
    cancel_checks: u64,
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
    let recorder = &config.recorder;
    let _extract_span = recorder.span("extract");
    let window = config.bounded_window();
    let record = recorder.is_enabled();
    let Tiling::Grid { tiles_per_axis } = config.tiling;
    let tiles = {
        let _plan_span = recorder.span("plan");
        tiled::plan_tiles(reference, tiles_per_axis, recorder)
    };
    let (layers, vocabulary) = {
        let _prepare_span = recorder.span("prepare");
        // Every tile extracts against this one prepared set: one half of
        // why outputs, kernel counters included, do not depend on the
        // tiling (the other half is the row-order merge in
        // `merge_batches`).
        let mut layers: Vec<PreparedLayer> =
            relevant.iter().map(|layer| PreparedLayer::new(layer, window)).collect();
        let vocabulary = Vocabulary::new(reference, &mut layers, config);
        (layers, vocabulary)
    };
    let journal =
        config.journal.as_ref().map(|j| tiled::TileJournal::new(j, &vocabulary.dictionary, config));

    // Each finished tile's batches, in the tile's (ascending) row order.
    let mut done: Vec<std::vec::IntoIter<RowBatch>> = Vec::with_capacity(tiles.len());
    let mut resumed = 0u64;
    {
        let _rows_span = recorder.span("rows");
        for tile in &tiles {
            // A journaled tile is reloaded, not re-extracted — and skips
            // the fail point: the unit already completed in a past run.
            let batches = match journal.as_ref().and_then(|j| j.resume(tile)) {
                Some(batches) => {
                    resumed += 1;
                    batches
                }
                None => {
                    let batches =
                        tiled::extract_tile(tile, reference, &layers, &vocabulary, config, record)?;
                    if let Some(j) = &journal {
                        j.checkpoint(tile, &batches);
                    }
                    batches
                }
            };
            recorder.record("extract.tile_rows", tile.rows.len() as u64);
            done.push(batches.into_iter());
        }
    }
    if config.journal.is_some() {
        recorder.counter("robust/resume_tiles_skipped", resumed);
    }

    let _merge_span = recorder.span("merge");
    // Every row is owned by exactly one tile, which yields its rows in
    // ascending order: drawing from each row's owner restores row order.
    let mut owner = vec![0u32; reference.len()];
    for (t, tile) in tiles.iter().enumerate() {
        for &row in &tile.rows {
            owner[row as usize] = t as u32;
        }
    }
    let batches = owner.iter().map(|&t| done[t as usize].next().expect("one batch per owned row"));
    Ok(merge_batches(reference.features().iter().zip(batches), &vocabulary.dictionary, config))
}

/// Single-threaded merge: renumbering vocabulary codes on their first
/// appearance in row order reproduces the serial predicate numbering
/// exactly, and summing the row counters in the same order keeps the
/// metrics deterministic. Batches arrive in global row order whatever the
/// tiling, which is exactly why every tiling yields the same table.
fn merge_batches<'a>(
    rows: impl Iterator<Item = (&'a Feature, RowBatch)>,
    vocabulary: &PredicateTable,
    config: &ExtractionConfig,
) -> (PredicateTable, ExtractionStats) {
    let recorder = &config.recorder;
    let mut table = PredicateTable::new();
    let mut stats = ExtractionStats::default();
    // Vocabulary code → table code; `u32::MAX` until first seen.
    let mut renumber = vec![u32::MAX; vocabulary.num_predicates()];
    let mut metrics = Metrics::new();
    let mut measured: Option<RowCounters> = None;
    for (ref_feature, batch) in rows {
        stats.absorb(&batch.stats);
        if let Some(row) = batch.counters {
            metrics.record("extract.row_predicates", batch.codes.len() as u64);
            metrics.record("extract.row_candidate_pairs", batch.stats.candidate_pairs as u64);
            let sum = measured.get_or_insert_with(RowCounters::default);
            sum.kernel += row.kernel;
            sum.cancel_checks += row.cancel_checks;
        }
        let mut codes = batch.codes;
        for code in &mut codes {
            let slot = &mut renumber[*code as usize];
            if *slot == u32::MAX {
                *slot = table.intern(vocabulary.predicate(*code).clone());
            }
            *code = *slot;
        }
        table.push_row(ref_feature.id.clone(), codes);
    }
    if let Some(sum) = measured {
        if config.cancel.is_enabled() {
            metrics.add_counter("robust/cancel_checks", sum.cancel_checks);
        }
        record_kernel_counters(&mut metrics, &sum.kernel);
    }
    recorder.absorb(&metrics);
    recorder.counter("extract.rows", table.num_rows() as u64);
    recorder.counter("extract.predicates", table.num_predicates() as u64);
    recorder.counter("extract.candidate_pairs", stats.candidate_pairs as u64);
    recorder.counter("extract.pruned_pairs", stats.pruned_pairs as u64);
    recorder.counter("extract.spatial_predicates", stats.spatial_predicates as u64);
    (table, stats)
}

/// Names the geometry-kernel counters: the row-order sums of every
/// measured row, recorded once per extraction, so totals are invariant
/// under the worker thread count.
fn record_kernel_counters(metrics: &mut Metrics, k: &KernelCounters) {
    metrics.add_counter("geom/segtree_nodes_visited", k.segtree_nodes_visited);
    metrics.add_counter("geom/pairs_exact", k.pairs_exact);
    metrics.add_counter("geom/distance_early_exit", k.distance_early_exit);
    metrics.add_counter("geom/simd_lanes_tested", k.simd_lanes_tested);
    metrics.add_counter("geom/simd_fallback_exact", k.simd_fallback_exact);
}

thread_local! {
    /// [`extract_row`]'s R-tree hit buffer, which a thread's rows pass on
    /// to each other so that warm rows allocate none.
    static CANDIDATES: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
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
    vocabulary: &Vocabulary,
    config: &ExtractionConfig,
    record: bool,
) -> RowBatch {
    let cancel = &config.cancel;
    let mut codes = vocabulary.attributes[row].clone();
    let mut stats = ExtractionStats::default();
    let watch = cancel.is_enabled();
    let mut cancel_checks: u64 = 0;
    let mut interrupted = false;

    // Discard kernel-counter residue left on this worker thread by other
    // rows, so this row's counters below report exactly its own work.
    let _ = take_kernel_counters();

    let prep_ref = PreparedGeometry::new(&ref_feature.geometry);
    let ref_envelope = ref_feature.envelope();
    // Each layer's R-tree hits, in the buffer this thread's previous row
    // left behind.
    let mut candidates = CANDIDATES.take();

    'layers: for pl in layers {
        let layer = pl.layer;

        if config.topological {
            // Envelope prefilter: only envelope-intersecting pairs can
            // have a non-disjoint topological relation.
            layer.index().query_rect_into(&ref_envelope, &mut candidates);
            stats.pruned_pairs += layer.len() - candidates.len();
            let mut disjoint_count = layer.len() - candidates.len();
            for &ci in &candidates {
                if watch {
                    cancel_checks += 1;
                    if cancel.interrupted() {
                        interrupted = true;
                        break 'layers;
                    }
                }
                stats.candidate_pairs += 1;
                let rel = prep_ref.relation(&pl.prepared[ci]);
                if rel == TopologicalRelation::Disjoint {
                    disjoint_count += 1;
                    continue;
                }
                codes.push(pl.topological[rel as usize]);
                stats.spatial_predicates += 1;
            }
            if config.include_disjoint && disjoint_count > 0 {
                codes.push(pl.topological[TopologicalRelation::Disjoint as usize]);
                stats.spatial_predicates += 1;
            }
        }

        if config.distance.is_some() || config.direction {
            // Beyond the largest bounded band no predicate can classify,
            // so the buffered window query is a lossless prefilter; the
            // R-tree returns indices sorted ascending, preserving the full
            // scan's emission order on the surviving pairs.
            let (scanned, scan) = pl.scan(&ref_envelope, &mut candidates);
            stats.pruned_pairs += layer.len() - scanned;
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
                // Distance and direction describe non-intersecting pairs.
                let within = prep_ref.distance_within(&pl.prepared[ci], cutoff);
                let Some(d) = within.filter(|&d| d != 0.0) else {
                    continue;
                };
                if let Some(scheme) = &config.distance {
                    if let Some((band, _)) = scheme.classify(d) {
                        codes.push(pl.bands[band]);
                        stats.spatial_predicates += 1;
                    }
                }
                if config.direction {
                    let dir = geometry_direction(&ref_feature.geometry, &rel_feature.geometry);
                    codes.push(pl.directions[dir as usize]);
                    stats.spatial_predicates += 1;
                }
            }
        }
    }

    CANDIDATES.set(candidates);

    // The row's counters, summed by the merge in row order. A truncated
    // (interrupted) batch is not measured — the pool discards the whole
    // output on interruption, so nothing partial can leak into the
    // aggregate.
    let counters = (record && !interrupted)
        .then(|| RowCounters { kernel: take_kernel_counters(), cancel_checks });
    RowBatch { codes, stats, counters }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::feature::Feature;
    use geopattern_geom::{coord, Point, Polygon};

    /// Serialises the tests that arm a fail point or run an enabled cancel
    /// token: the fail-point registry is process-global, and every
    /// extraction passes both extraction sites.
    pub(crate) fn failpoint_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

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
        let _gate = failpoint_gate();
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
        let _gate = failpoint_gate();
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
