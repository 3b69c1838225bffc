//! Tiles: the unit of extraction scheduling, accounting and journaling.
//!
//! [`plan_tiles`] shards the reference rows over a [`TileGrid`] covering
//! the reference layer's envelope. Each tile **owns** the reference rows
//! whose envelope *center* falls inside it — the grid's canonical owner
//! rule, a pure function of coordinates, so every row has exactly one
//! owner and no boundary pair is ever processed twice. Only occupied
//! tiles are planned, so the plan is O(rows) whatever the grid size. The
//! default grid is one tile holding every row in row order.
//!
//! `extract_predicates` runs the planned tiles one after another, each
//! tile's rows in parallel on the pool ([`extract_tile`]), against one
//! prepared-layer set shared by every tile — a row's candidate queries
//! hit the full layer's R-tree either way, so the tiling cannot change
//! any row's candidate set. The row batches are placed back into
//! **global row order** before the merge, which is why the table —
//! predicate numbering included — is bit-identical at any tile size and
//! thread count.
//!
//! Per tile:
//!
//! * its **reach** — the union envelope of its owned rows, buffered by
//!   the largest bounded distance band — bounds the features any of its
//!   rows can query, i.e. the working set an out-of-core run would stream
//!   for it (via `GpbReader::read_layer_window`). Tiles run in sequence,
//!   so only one working set is reserved at a time. It is sized only when
//!   something reads it — a limited [`MemoryBudget`](geopattern_par::MemoryBudget)
//!   (track-only reservation while the rows run) or an enabled recorder
//!   (`extract.tile_sub_features`). When the distance/direction path
//!   needs a **full scan** (open-ended distance band, or direction
//!   predicates on), the reach is the whole layer and nothing tile-local
//!   is counted;
//! * the deterministic fail point `sdb/extract.tile` fires at the tile's
//!   start on the coordinating thread (a sequential site); the rows check
//!   the config's [`CancelToken`](geopattern_par::CancelToken) as usual;
//! * a configured [`Journal`] receives the tile's rows the moment the
//!   tile finishes, and a tile already present in the journal is decoded
//!   and returned instead of re-extracted (`robust/resume_tiles_skipped`
//!   counts them). An interrupted tile never reaches the journal.
//!
//! A tile record (kind `extract/tile`, shard = the tile id) holds a
//! digest, then for each owned row in order: the row id, the three
//! [`ExtractionStats`] counts, the code count and the row's vocabulary
//! codes. The digest is FNV-1a over the vocabulary in code order and every
//! output-affecting [`ExtractionConfig`] field, so a record written under
//! another vocabulary or configuration — like one torn or corrupted
//! beyond the journal's own frame checks, or holding a code outside the
//! vocabulary — decodes to nothing and the tile is re-extracted.

use crate::extract::{
    extract_row, ExtractionConfig, ExtractionStats, PreparedLayer, RowBatch, Vocabulary,
};
use crate::feature::Layer;
use crate::predicate_table::PredicateTable;
use geopattern_geom::{Geometry, Rect, TileGrid};
use geopattern_obs::Recorder;
use geopattern_par::journal::{put_u32, put_u64, Reader};
use geopattern_par::{fnv1a64, try_par_map, Interrupt, Journal};

/// Journal record kind for one completed tile.
const TILE_KIND: &str = "extract/tile";

/// One occupied tile: its linear grid index (its journal shard) and the
/// reference rows it owns, ascending.
pub(crate) struct TileTask {
    pub(crate) id: usize,
    pub(crate) rows: Vec<u32>,
}

/// Plans the occupied tiles of an `n × n` grid over the reference layer,
/// in ascending tile order. Empty tiles are never materialised.
pub(crate) fn plan_tiles(
    reference: &Layer,
    tiles_per_axis: usize,
    recorder: &Recorder,
) -> Vec<TileTask> {
    let grid = TileGrid::new(reference.envelope(), tiles_per_axis);
    let mut owned: Vec<(usize, u32)> = reference
        .features()
        .iter()
        .enumerate()
        .map(|(row, f)| (grid.tile_index(f.envelope().center()), row as u32))
        .collect();
    // Sorting by (tile, row) groups each tile's rows, ascending.
    owned.sort_unstable();
    let mut tiles: Vec<TileTask> = Vec::new();
    for (id, row) in owned {
        match tiles.last_mut() {
            Some(tile) if tile.id == id => tile.rows.push(row),
            _ => tiles.push(TileTask { id, rows: vec![row] }),
        }
    }
    recorder.counter("extract.tiles", grid.len() as u64);
    recorder.counter("extract.tiles_occupied", tiles.len() as u64);
    tiles
}

/// Extracts one tile's rows on the pool, in the tile's row order, holding
/// the tile's working-set reservation while they run.
pub(crate) fn extract_tile(
    tile: &TileTask,
    reference: &Layer,
    layers: &[PreparedLayer],
    vocabulary: &Vocabulary,
    config: &ExtractionConfig,
    record: bool,
) -> Result<Vec<RowBatch>, Interrupt> {
    let cancel = &config.cancel;
    if geopattern_testkit::failpoint::trigger("sdb/extract.tile") {
        cancel.cancel();
    }
    let (sub_features, sub_bytes) = if config.budget.is_limited() || record {
        working_set(tile, reference, layers, config)
    } else {
        (0, 0)
    };
    config.recorder.counter("extract.tile_sub_features", sub_features as u64);
    let _ = config.budget.reserve(sub_bytes);
    let batches = try_par_map(config.threads, cancel, "extract/rows", &tile.rows, |_, &row| {
        if geopattern_testkit::failpoint::trigger("sdb/extract.row") {
            cancel.cancel();
        }
        let row = row as usize;
        extract_row(row, &reference.features()[row], layers, vocabulary, config, record)
    });
    config.budget.release(sub_bytes);
    batches
}

/// The features and approximate bytes inside the tile's reach: no
/// candidate query of an owned row — envelope prefilter or buffered
/// window — can return a feature outside it. `(0, 0)` when the layers are
/// full-scanned.
fn working_set(
    tile: &TileTask,
    reference: &Layer,
    layers: &[PreparedLayer],
    config: &ExtractionConfig,
) -> (usize, usize) {
    let window = config.bounded_window();
    if (config.distance.is_some() || config.direction) && window.is_none() {
        return (0, 0);
    }
    let reach = tile
        .rows
        .iter()
        .fold(Rect::EMPTY, |acc, &row| acc.union(&reference.features()[row as usize].envelope()))
        .buffered(window.unwrap_or(0.0));
    layers
        .iter()
        .map(|pl| {
            let keep = pl.layer.query_envelope(&reach);
            let bytes: usize = keep.iter().map(|&i| feature_bytes(&pl.layer.features()[i])).sum();
            (keep.len(), bytes)
        })
        .fold((0, 0), |(f, b), (kf, kb)| (f + kf, b + kb))
}

/// An extraction run's journal, bound to the run's vocabulary and
/// configuration through the record digest.
pub(crate) struct TileJournal<'a> {
    journal: &'a Journal,
    digest: u64,
    /// A journaled code at or past this is malformed.
    vocabulary_len: usize,
}

impl<'a> TileJournal<'a> {
    pub(crate) fn new(
        journal: &'a Journal,
        vocabulary: &PredicateTable,
        config: &ExtractionConfig,
    ) -> TileJournal<'a> {
        // Every field but the execution regime, destructured in full so a
        // new field has to be placed on one side or the other.
        let ExtractionConfig {
            topological,
            include_disjoint,
            distance,
            direction,
            nonspatial_attributes,
            threads: _,
            tiling: _,
            recorder: _,
            cancel: _,
            budget: _,
            journal: _,
        } = config;
        let rendered = format!(
            "{:?}",
            (
                vocabulary.predicates(),
                topological,
                include_disjoint,
                distance,
                direction,
                nonspatial_attributes,
            )
        );
        TileJournal {
            journal,
            digest: fnv1a64(rendered.as_bytes()),
            vocabulary_len: vocabulary.num_predicates(),
        }
    }

    /// The tile's batches, if a past run journaled it under this
    /// vocabulary and configuration and the record decodes.
    pub(crate) fn resume(&self, tile: &TileTask) -> Option<Vec<RowBatch>> {
        let payload = self.journal.lookup(TILE_KIND, tile.id as u64)?;
        self.decode_tile(&payload, tile)
    }

    /// Appends a finished tile. Best-effort: a full disk or an oversized
    /// record must not fail the run — the tile simply isn't resumable.
    pub(crate) fn checkpoint(&self, tile: &TileTask, batches: &[RowBatch]) {
        let _ = self.journal.append(TILE_KIND, tile.id as u64, &self.encode_tile(tile, batches));
    }

    /// Encodes one completed tile: the digest, then every owned row's id,
    /// stats and codes, in row order.
    fn encode_tile(&self, tile: &TileTask, batches: &[RowBatch]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.digest);
        for (row, rb) in tile.rows.iter().zip(batches) {
            put_u32(&mut out, *row);
            put_u64(&mut out, rb.stats.candidate_pairs as u64);
            put_u64(&mut out, rb.stats.pruned_pairs as u64);
            put_u64(&mut out, rb.stats.spatial_predicates as u64);
            put_u32(&mut out, rb.codes.len() as u32);
            for &code in &rb.codes {
                put_u32(&mut out, code);
            }
        }
        out
    }

    /// Decodes a journaled tile, validating the digest and that it covers
    /// exactly the rows `tile` owns (in order). `None` — re-extract — on
    /// any mismatch or malformed byte. Resumed rows carry no counters.
    fn decode_tile(&self, payload: &[u8], tile: &TileTask) -> Option<Vec<RowBatch>> {
        let mut r = Reader::new(payload);
        if r.take_u64()? != self.digest {
            return None;
        }
        let mut batches = Vec::with_capacity(tile.rows.len());
        for &expected_row in &tile.rows {
            if r.take_u32()? != expected_row {
                return None;
            }
            let stats = ExtractionStats {
                candidate_pairs: r.take_u64()? as usize,
                pruned_pairs: r.take_u64()? as usize,
                spatial_predicates: r.take_u64()? as usize,
            };
            let count = r.take_u32()? as usize;
            let mut codes = Vec::with_capacity(count.min(payload.len() / 4));
            for _ in 0..count {
                let code = r.take_u32()?;
                if code as usize >= self.vocabulary_len {
                    return None;
                }
                codes.push(code);
            }
            batches.push(RowBatch { codes, stats, counters: None });
        }
        r.done().then_some(batches)
    }
}

/// Rough heap footprint of one feature (coordinates dominate), for
/// track-only budget accounting of tile working sets.
fn feature_bytes(f: &crate::feature::Feature) -> usize {
    const COORD: usize = std::mem::size_of::<f64>() * 2;
    let coords = match &f.geometry {
        Geometry::Point(_) => 1,
        Geometry::MultiPoint(mp) => mp.coords().len(),
        Geometry::LineString(ls) => ls.coords().len(),
        Geometry::MultiLineString(mls) => mls.lines().iter().map(|l| l.coords().len()).sum(),
        Geometry::Polygon(p) => p.rings().map(|r| r.coords().len()).sum::<usize>(),
        Geometry::MultiPolygon(mp) => mp
            .polygons()
            .iter()
            .flat_map(|p| p.rings())
            .map(|r| r.coords().len())
            .sum(),
    };
    let attrs: usize = f.attributes.iter().map(|(k, v)| k.len() + v.len() + 64).sum();
    coords * COORD + f.id.len() + attrs + 96
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_predicates, Tiling};
    use crate::feature::Feature;
    use geopattern_geom::{coord, Point, Polygon};
    use geopattern_obs::Recorder;
    use geopattern_par::{CancelToken, Journal, MemoryBudget, Threads};
    use geopattern_qsr::DistanceScheme;

    /// A 6×6 grid of districts with slums and schools scattered around,
    /// including features that straddle tile boundaries.
    fn scene() -> (Layer, Layer, Layer) {
        let mut districts = Vec::new();
        let mut slums = Vec::new();
        let mut schools = Vec::new();
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
                    .with_attribute("zone", if (i + j) % 2 == 0 { "core" } else { "rim" }),
                );
                if (i * 5 + j) % 3 == 0 {
                    // Straddles the shared corner of four districts.
                    slums.push(Feature::new(
                        format!("s{i}_{j}"),
                        Polygon::rect(coord(x0 + 7.0, y0 + 7.0), coord(x0 + 13.0, y0 + 13.0))
                            .unwrap()
                            .into(),
                    ));
                }
                if (i + 2 * j) % 4 == 0 {
                    schools.push(Feature::new(
                        format!("sc{i}_{j}"),
                        Point::xy(x0 + 5.0, y0 + 5.0).unwrap().into(),
                    ));
                }
            }
        }
        (
            Layer::new("district", districts),
            Layer::new("slum", slums),
            Layer::new("school", schools),
        )
    }

    /// Every tiling × thread count must reproduce the config's own
    /// (default one-tile) table, rows and stats.
    fn assert_identical(config: &ExtractionConfig, relevant: &[&Layer], reference: &Layer) {
        let default = extract_predicates(reference, relevant, config).unwrap();
        for tiles in [1usize, 2, 7] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let tiled_config = config
                    .clone()
                    .with_tiling(Tiling::Grid { tiles_per_axis: tiles })
                    .with_threads(threads);
                let tiled = extract_predicates(reference, relevant, &tiled_config).unwrap();
                assert_eq!(
                    tiled.0.predicates(),
                    default.0.predicates(),
                    "{tiles} tiles, {threads:?}"
                );
                assert_eq!(tiled.0.rows(), default.0.rows(), "{tiles} tiles, {threads:?}");
                assert_eq!(tiled.1, default.1, "{tiles} tiles, {threads:?}");
            }
        }
    }

    #[test]
    fn tiled_topological_matches_flat() {
        let (districts, slums, schools) = scene();
        assert_identical(
            &ExtractionConfig::topological_only(),
            &[&slums, &schools],
            &districts,
        );
    }

    #[test]
    fn tiled_bounded_distance_matches_flat() {
        let (districts, slums, schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::new(vec![("near", 6.0), ("mid", 18.0)]).unwrap());
        assert_identical(&config, &[&slums, &schools], &districts);
    }

    #[test]
    fn tiled_full_scan_paths_match_flat() {
        // Open-ended distance band + direction: tiles have no bounded
        // reach, tiling shards only the row loop.
        let (districts, slums, schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::very_close_close_far(6.0, 18.0))
            .with_direction();
        assert_identical(&config, &[&slums, &schools], &districts);
    }

    #[test]
    fn tiled_self_join_matches_flat_with_memo() {
        // Every tiling extracts against one `prepare_layers` set, self-join
        // memo included. The tables and stats must agree exactly.
        let (districts, _slums, _schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::new(vec![("near", 12.0)]).unwrap());
        assert_identical(&config, &[&districts], &districts);
    }

    #[test]
    fn band_bound_exactly_at_buffer_edge_matches_flat() {
        // Reference at x∈[0,10]; a point at distance exactly 5.0 from its
        // right edge, with a one-band scheme bounded at 5.0. `classify`
        // uses an exclusive upper bound, so neither path may emit a
        // predicate — and the tile reach (buffered by exactly 5.0, closed
        // intersection) must still include the feature so the candidate
        // counts match.
        let districts = Layer::new(
            "district",
            vec![
                Feature::new(
                    "d0",
                    Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into(),
                ),
                Feature::new(
                    "d1",
                    Polygon::rect(coord(40.0, 0.0), coord(50.0, 10.0)).unwrap().into(),
                ),
            ],
        );
        let posts = Layer::new(
            "post",
            vec![Feature::new("p", Point::xy(15.0, 5.0).unwrap().into())],
        );
        let config = ExtractionConfig {
            topological: false,
            nonspatial_attributes: false,
            ..ExtractionConfig::default()
        }
        .with_distance(DistanceScheme::new(vec![("near", 5.0)]).unwrap());
        assert_identical(&config, &[&posts], &districts);
        let (_, stats) = extract_predicates(&districts, &[&posts], &config).unwrap();
        assert_eq!(stats.candidate_pairs, 1, "d0 window reaches the post exactly");
        assert_eq!(stats.spatial_predicates, 0, "exclusive bound: no band classifies");
    }

    #[test]
    fn tile_metrics_and_budget_are_tracked() {
        let (districts, slums, _schools) = scene();
        let rec = Recorder::new();
        let budget = MemoryBudget::bytes(64 * 1024 * 1024);
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
            .with_recorder(rec.clone())
            .with_budget(budget.clone());
        extract_predicates(&districts, &[&slums], &config).unwrap();
        let m = rec.snapshot();
        assert_eq!(m.counter("extract.tiles"), Some(9));
        assert_eq!(m.counter("extract.tiles_occupied"), Some(9));
        assert_eq!(m.histogram("extract.tile_rows").unwrap().count, 9);
        // Tile working sets were sized, reserved, and fully released.
        assert!(m.counter("extract.tile_sub_features").unwrap_or(0) > 0);
        assert!(budget.peak() > 0);
        assert_eq!(budget.used(), 0);
    }

    /// A fresh journal in a per-test temp directory.
    fn temp_journal(tag: &str) -> (std::path::PathBuf, Journal) {
        let dir = std::env::temp_dir()
            .join(format!("geopattern-tile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::create(dir.join("run.journal"), 7).unwrap();
        (dir, journal)
    }

    #[test]
    fn journal_checkpoints_completed_tiles_only() {
        use geopattern_testkit::failpoint;
        let _gate = crate::extract::tests::failpoint_gate();
        let (districts, slums, _schools) = scene();
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 2 });

        // Un-interrupted run: every tile checkpoints.
        let (dir, journal) = temp_journal("checkpoint");
        extract_predicates(&districts, &[&slums], &config.clone().with_journal(journal.clone()))
            .unwrap();
        let shards: Vec<u64> = journal.records(TILE_KIND).iter().map(|r| r.0).collect();
        assert_eq!(shards, vec![0, 1, 2, 3]);

        // Cancelled by the fail point at the first tile's start: the
        // interrupted tile must not checkpoint, so the journal stays
        // empty, deterministically.
        let journal = Journal::create(dir.join("cancelled.journal"), 7).unwrap();
        failpoint::activate("sdb/extract.tile", failpoint::FailAction::Cancel, 1.0, 11);
        let err = extract_predicates(
            &districts,
            &[&slums],
            &config.with_journal(journal.clone()).with_cancel(CancelToken::new()),
        )
        .unwrap_err();
        failpoint::deactivate("sdb/extract.tile");
        assert_eq!(err, Interrupt::Cancelled);
        assert!(journal.is_empty(), "an interrupted tile must not checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_tiles_resume_bit_identical() {
        let (districts, slums, schools) = scene();
        let relevant = [&slums, &schools];
        let (dir, full) = temp_journal("resume");

        let control = extract_predicates(
            &districts,
            &relevant,
            &ExtractionConfig::topological_only()
                .with_tiling(Tiling::Grid { tiles_per_axis: 3 }),
        )
        .unwrap();

        // A completed run fills the journal with every tile.
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
            .with_journal(full.clone());
        let first = extract_predicates(&districts, &relevant, &config).unwrap();
        assert_eq!(first.0.rows(), control.0.rows());
        assert_eq!(full.records(TILE_KIND).len(), 9);

        // Simulate a crash that persisted only some tiles: copy a strict
        // subset of the records into a fresh journal, then resume from it
        // at several thread counts. Output must match the control exactly
        // and the journaled tiles must be skipped, not re-extracted.
        for keep in [1usize, 4, 9] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                // Fresh partial journal per run: a resumed run back-fills
                // its journal, which would leak into the next iteration.
                let partial =
                    Journal::create(dir.join(format!("partial{keep}.journal")), 7).unwrap();
                for (shard, payload) in full.records(TILE_KIND).into_iter().take(keep) {
                    partial.append(TILE_KIND, shard, &payload).unwrap();
                }
                let rec = Recorder::new();
                let resumed = extract_predicates(
                    &districts,
                    &relevant,
                    &ExtractionConfig::topological_only()
                        .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
                        .with_threads(threads)
                        .with_recorder(rec.clone())
                        .with_journal(partial.clone()),
                )
                .unwrap();
                assert_eq!(resumed.0.predicates(), control.0.predicates(), "{keep} {threads:?}");
                assert_eq!(resumed.0.rows(), control.0.rows(), "{keep} {threads:?}");
                assert_eq!(resumed.1, control.1, "{keep} {threads:?}");
                assert_eq!(
                    rec.snapshot().counter("robust/resume_tiles_skipped"),
                    Some(keep as u64),
                    "{keep} {threads:?}"
                );
                // The resumed run back-filled the journal to completion.
                assert_eq!(partial.records(TILE_KIND).len(), 9);
                // Counters derived from persisted stats still match.
                let m = rec.snapshot();
                assert_eq!(
                    m.counter("extract.candidate_pairs"),
                    Some(control.1.candidate_pairs as u64)
                );
            }
        }

        // A corrupt payload falls back to re-extraction, never a panic.
        let bad = Journal::create(dir.join("bad.journal"), 7).unwrap();
        bad.append(TILE_KIND, 0, b"definitely not a tile").unwrap();
        let rec = Recorder::new();
        let out = extract_predicates(
            &districts,
            &relevant,
            &ExtractionConfig::topological_only()
                .with_tiling(Tiling::Grid { tiles_per_axis: 3 })
                .with_recorder(rec.clone())
                .with_journal(bad),
        )
        .unwrap();
        assert_eq!(out.0.rows(), control.0.rows());
        assert_eq!(rec.snapshot().counter("robust/resume_tiles_skipped"), Some(0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiles_journaled_under_another_vocabulary_are_re_extracted() {
        let (districts, slums, schools) = scene();
        let relevant = [&slums, &schools];
        let (dir, journal) = temp_journal("vocabulary");
        extract_predicates(
            &districts,
            &relevant,
            &ExtractionConfig::topological_only().with_journal(journal.clone()),
        )
        .unwrap();
        assert_eq!(journal.records(TILE_KIND).len(), 1);

        let direction = ExtractionConfig::topological_only().with_direction();
        let fresh = extract_predicates(&districts, &relevant, &direction).unwrap();
        let rec = Recorder::new();
        let resumed = extract_predicates(
            &districts,
            &relevant,
            &direction.with_recorder(rec.clone()).with_journal(journal),
        )
        .unwrap();
        assert_eq!(resumed.0.predicates(), fresh.0.predicates());
        assert_eq!(resumed.0.rows(), fresh.0.rows());
        assert_eq!(resumed.1, fresh.1);
        assert_eq!(rec.snapshot().counter("robust/resume_tiles_skipped"), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_reference_layer_yields_empty_table() {
        let empty = Layer::new("district", Vec::new());
        let slums = Layer::new(
            "slum",
            vec![Feature::new(
                "s",
                Polygon::rect(coord(0.0, 0.0), coord(1.0, 1.0)).unwrap().into(),
            )],
        );
        let config = ExtractionConfig::topological_only()
            .with_tiling(Tiling::Grid { tiles_per_axis: 4 });
        let (table, stats) = extract_predicates(&empty, &[&slums], &config).unwrap();
        assert_eq!(table.num_rows(), 0);
        assert_eq!(stats, ExtractionStats::default());
    }
}
