//! Tile-boundary property suite: tiled extraction must be bit-identical
//! to the default one-tile extraction for every tiling granularity and
//! thread count.
//!
//! Extraction shards the reference layer over a spatial `TileGrid`
//! (each row owned by exactly one tile via its envelope center), runs the
//! tiles one after another, and merges row batches back in global row
//! order. None of that may change a single predicate, row, or stats
//! field — these tests sweep tile sizes {1, 2, 7} × threads {1, 2, 8}
//! over structured (city) and unstructured (random scatter) layers, then
//! probe the overlap-buffer edge cases and the control plane
//! (cancellation, fail-point, journal).

use geopattern::{
    extract_predicates, CancelToken, DistanceScheme, ExtractionConfig, Feature, Journal, Layer,
    Threads, Tiling,
};
use geopattern_datagen::{generate_city, CityConfig};
use geopattern_geom::{coord, LineString, Point, Polygon};
use geopattern_testkit::failpoint::{self, FailAction};
use geopattern_testkit::Rng;
use std::sync::Mutex;

/// Serialises the fail-point tests: the registry is process-global.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::deactivate_all();
    guard
}

/// Asserts the tiled table, rows and stats equal the default one-tile
/// run's for tile sizes {1, 2, 7} × threads {serial, 2, 8}.
fn assert_matches_flat(reference: &Layer, relevant: &[&Layer], config: &ExtractionConfig) {
    let flat = extract_predicates(reference, relevant, config).expect("default");
    for tiles in [1usize, 2, 7] {
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
            let tiled_config = config
                .clone()
                .with_tiling(Tiling::Grid { tiles_per_axis: tiles })
                .with_threads(threads);
            let tiled = extract_predicates(reference, relevant, &tiled_config).expect("tiled");
            assert_eq!(tiled.0.predicates(), flat.0.predicates(), "{tiles} tiles, {threads:?}");
            assert_eq!(tiled.0.rows(), flat.0.rows(), "{tiles} tiles, {threads:?}");
            assert_eq!(tiled.1, flat.1, "{tiles} tiles, {threads:?}");
        }
    }
}

fn city() -> geopattern::SpatialDataset {
    generate_city(&CityConfig { grid: 8, seed: 7, ..Default::default() })
}

/// Bounded two-band distance scheme matched to the city's cell size.
fn bounded_distance() -> DistanceScheme {
    let cell = CityConfig::default().cell;
    DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
        .expect("bounded scheme")
}

/// A seeded unstructured scene: random rectangles as the reference layer,
/// random points and polylines as relevant layers. Nothing aligns with
/// any tile boundary, so owner assignment and buffer clipping are
/// exercised at arbitrary offsets.
fn random_scatter(seed: u64) -> (Layer, Layer, Layer) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut zones = Vec::new();
    for i in 0..40 {
        let x = rng.f64() * 900.0;
        let y = rng.f64() * 900.0;
        let w = 20.0 + rng.f64() * 120.0;
        let h = 20.0 + rng.f64() * 120.0;
        zones.push(Feature::new(
            format!("zone{i}"),
            Polygon::rect(coord(x, y), coord(x + w, y + h)).unwrap().into(),
        ));
    }
    let mut points = Vec::new();
    for i in 0..120 {
        let x = rng.f64() * 1000.0;
        let y = rng.f64() * 1000.0;
        points.push(Feature::new(format!("pt{i}"), Point::xy(x, y).unwrap().into()));
    }
    let mut lines = Vec::new();
    for i in 0..15 {
        let x = rng.f64() * 800.0;
        let y = rng.f64() * 800.0;
        let line = LineString::from_xy(&[
            (x, y),
            (x + 50.0 + rng.f64() * 150.0, y + rng.f64() * 100.0 - 50.0),
            (x + 250.0, y + rng.f64() * 200.0 - 100.0),
        ])
        .unwrap();
        lines.push(Feature::new(format!("ln{i}"), line.into()));
    }
    (Layer::new("zone", zones), Layer::new("sensor", points), Layer::new("road", lines))
}

#[test]
fn city_tiled_matches_flat_topological() {
    let ds = city();
    assert_matches_flat(&ds.reference, &ds.relevant_refs(), &ExtractionConfig::topological_only());
}

#[test]
fn city_tiled_matches_flat_bounded_distance() {
    let ds = city();
    let config = ExtractionConfig::topological_only().with_distance(bounded_distance());
    assert_matches_flat(&ds.reference, &ds.relevant_refs(), &config);
}

#[test]
fn city_tiled_matches_flat_full_scan() {
    // Direction predicates disable the bounded window: every tile sees the
    // whole relevant layer and tiling shards only the row loop.
    let ds = city();
    let config = ExtractionConfig::topological_only()
        .with_distance(bounded_distance())
        .with_direction();
    assert_matches_flat(&ds.reference, &ds.relevant_refs(), &config);
}

#[test]
fn random_scatter_tiled_matches_flat() {
    for seed in [3u64, 11, 29] {
        let (zones, sensors, roads) = random_scatter(seed);
        assert_matches_flat(&zones, &[&sensors, &roads], &ExtractionConfig::topological_only());
        let config = ExtractionConfig::topological_only()
            .with_distance(DistanceScheme::new(vec![("near", 45.0), ("mid", 140.0)]).unwrap());
        assert_matches_flat(&zones, &[&sensors, &roads], &config);
    }
}

#[test]
fn self_join_tiled_matches_flat() {
    // Every tiling shares one prepared set, self-join memo included;
    // tables and stats must agree exactly whichever tile reads it.
    let (zones, _, _) = random_scatter(5);
    let config = ExtractionConfig::topological_only()
        .with_distance(DistanceScheme::new(vec![("near", 80.0)]).unwrap());
    assert_matches_flat(&zones, &[&zones], &config);
}

#[test]
fn corner_straddling_feature_spans_four_tiles() {
    // A 2×2 reference grid tiled 2×2: each district lands in its own tile.
    // One slum is centred on the shared corner of all four districts, so
    // every tile's buffered sub-layer must include it, and each district
    // must report the same overlap relation as the one-tile default.
    let d = |id: &str, x0: f64, y0: f64| {
        Feature::new(id, Polygon::rect(coord(x0, y0), coord(x0 + 10.0, y0 + 10.0)).unwrap().into())
    };
    let districts =
        Layer::new("district", vec![d("a", 0.0, 0.0), d("b", 10.0, 0.0), d("c", 0.0, 10.0), d("d", 10.0, 10.0)]);
    let slums = Layer::new(
        "slum",
        vec![Feature::new(
            "corner",
            Polygon::rect(coord(8.0, 8.0), coord(12.0, 12.0)).unwrap().into(),
        )],
    );
    let flat =
        extract_predicates(&districts, &[&slums], &ExtractionConfig::topological_only()).unwrap();
    let tiled_config = ExtractionConfig::topological_only()
        .with_tiling(Tiling::Grid { tiles_per_axis: 2 })
        .with_threads(Threads::Fixed(4));
    let tiled = extract_predicates(&districts, &[&slums], &tiled_config).unwrap();
    assert_eq!(tiled.0.rows(), flat.0.rows());
    assert_eq!(tiled.1, flat.1);
    // Every district overlaps the corner slum — four populated rows.
    assert_eq!(flat.0.rows().len(), 4);
    assert!(flat.0.predicates().iter().any(|p| p.to_string() == "overlaps_slum"));
}

#[test]
fn band_equal_to_buffer_across_tile_boundary() {
    // Two districts in two tiles; a point exactly `bound` away from the
    // left district's edge, sitting in the *other* tile. The overlap
    // buffer equals the largest band bound, and the buffered-rect
    // intersection is closed while `classify` is exclusive at the upper
    // bound — so the candidate must be counted by both paths and emit no
    // predicate in either.
    let districts = Layer::new(
        "district",
        vec![
            Feature::new("L", Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into()),
            Feature::new("R", Polygon::rect(coord(30.0, 0.0), coord(40.0, 10.0)).unwrap().into()),
        ],
    );
    let sensors =
        Layer::new("sensor", vec![Feature::new("s", Point::xy(15.0, 5.0).unwrap().into())]);
    let config = ExtractionConfig::topological_only()
        .with_distance(DistanceScheme::new(vec![("near", 5.0)]).unwrap());
    let flat = extract_predicates(&districts, &[&sensors], &config).unwrap();
    for tiles in [2usize, 7] {
        let tiled_config =
            config.clone().with_tiling(Tiling::Grid { tiles_per_axis: tiles });
        let tiled = extract_predicates(&districts, &[&sensors], &tiled_config).unwrap();
        assert_eq!(tiled.0.rows(), flat.0.rows(), "{tiles} tiles");
        assert_eq!(tiled.1, flat.1, "{tiles} tiles");
    }
    // The sensor is a candidate (distance exactly 5.0 ≤ buffer) for L but
    // classifies outside the exclusive band end, so no distance predicate.
    assert!(flat.0.predicates().iter().all(|p| !p.to_string().starts_with("near")));
    assert!(flat.1.candidate_pairs >= 1);
}

#[test]
fn pre_cancelled_token_interrupts_tiled_extraction() {
    let ds = city();
    let token = CancelToken::new();
    token.cancel();
    let config = ExtractionConfig::topological_only()
        .with_tiling(Tiling::Grid { tiles_per_axis: 4 })
        .with_cancel(token);
    let result = extract_predicates(&ds.reference, &ds.relevant_refs(), &config);
    assert!(result.is_err(), "pre-cancelled token must interrupt the tiled path");
}

/// A fresh temp-file journal, removed with its directory on drop.
struct TempJournal(std::path::PathBuf, Journal);

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        let dir = std::env::temp_dir()
            .join(format!("gp-tiling-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::create(dir.join("run.journal"), 1).unwrap();
        TempJournal(dir, journal)
    }

    /// The shard ids of the journaled extraction tiles, ascending.
    fn tiles(&self) -> Vec<u64> {
        self.1.records("extract/tile").into_iter().map(|(shard, _)| shard).collect()
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn journal_records_every_completed_tile() {
    let _guard = locked();
    let ds = city();
    let journal = TempJournal::new("complete");
    let config = ExtractionConfig::topological_only()
        .with_tiling(Tiling::Grid { tiles_per_axis: 2 })
        .with_threads(Threads::Fixed(2))
        .with_journal(journal.1.clone());
    let (table, _) = extract_predicates(&ds.reference, &ds.relevant_refs(), &config).unwrap();
    assert!(!table.rows().is_empty());
    // All four tiles of the 2×2 grid hold districts, and all completed.
    assert_eq!(journal.tiles(), vec![0, 1, 2, 3]);
}

#[test]
fn tile_failpoint_cancels_without_checkpointing() {
    let _guard = locked();
    let ds = city();
    failpoint::activate("sdb/extract.tile", FailAction::Cancel, 1.0, 17);
    let journal = TempJournal::new("cancelled");
    let config = ExtractionConfig::topological_only()
        .with_tiling(Tiling::Grid { tiles_per_axis: 2 })
        .with_threads(Threads::Fixed(2))
        .with_cancel(CancelToken::new())
        .with_journal(journal.1.clone());
    let result = extract_predicates(&ds.reference, &ds.relevant_refs(), &config);
    failpoint::deactivate_all();
    assert!(result.is_err(), "tile fail-point must cancel the run");
    // The fault fires at the first tile's start, on the coordinating
    // thread, before any tile completes: nothing is journaled.
    assert!(journal.tiles().is_empty(), "interrupted tiles must not be journaled");
}
