//! Extraction goldens: the predicate table and the recorded metrics of
//! two fixed extractions, compared byte for byte with files committed
//! under `tests/golden/`.
//!
//! Every other identity suite compares two configurations of the same
//! build (thread counts, tile counts, resumed against fresh), so a change
//! that moved both sides together would still pass there. These files
//! pin the output itself. They are never regenerated to make a test pass.
//!
//! Both goldens run on `generate-city --grid 4 --seed 9` with the
//! reference layer added as a relevant layer (the self-join memo path),
//! `include_disjoint: true` and a recorder attached:
//!
//! * `window`: a bounded two-band distance scheme, direction off — the
//!   R-tree window-query path;
//! * `scan`: an open-ended three-band scheme, direction on — the
//!   full-scan path.
//!
//! Each file holds the predicates in code order, the table's `Display`,
//! then every counter and histogram (`{:?}`, no spans). The table parts
//! must hold at 1 and 4 threads, each at 1 and 3 tiles per axis; the
//! metrics are checked at the default tiling, because the `extract.tile*`
//! counters depend on the tile count.

use geopattern::{
    extract_predicates, DistanceScheme, ExtractionConfig, Layer, Metrics, PredicateTable,
    Recorder, Threads, Tiling,
};
use geopattern_datagen::{generate_city, CityConfig};
use std::fmt::Write;

/// The line that opens a golden's metrics part.
const METRICS_HEADER: &str = "counters:\n";

fn window_config() -> ExtractionConfig {
    let cell = CityConfig::default().cell;
    let scheme = DistanceScheme::new(vec![("veryClose", 0.6 * cell), ("close", 1.5 * cell)])
        .expect("bounded scheme");
    ExtractionConfig { include_disjoint: true, ..ExtractionConfig::default() }.with_distance(scheme)
}

fn scan_config() -> ExtractionConfig {
    let cell = CityConfig::default().cell;
    ExtractionConfig { include_disjoint: true, ..ExtractionConfig::default() }
        .with_distance(DistanceScheme::very_close_close_far(0.6 * cell, 1.5 * cell))
        .with_direction()
}

fn render_table(table: &PredicateTable) -> String {
    let mut out = String::from("predicates:\n");
    for (code, p) in table.predicates().iter().enumerate() {
        writeln!(out, "{code} {p:?}").unwrap();
    }
    writeln!(out, "table:\n{table}").unwrap();
    out
}

fn render_metrics(m: &Metrics) -> String {
    let mut out = String::from(METRICS_HEADER);
    for c in m.counters() {
        writeln!(out, "{c:?}").unwrap();
    }
    out.push_str("histograms:\n");
    for h in m.histograms() {
        writeln!(out, "{h:?}").unwrap();
    }
    out
}

/// Extracts the golden city under `config` and renders its table part and
/// metrics part.
fn render(config: &ExtractionConfig, tiles_per_axis: usize, threads: usize) -> (String, String) {
    let city = generate_city(&CityConfig { grid: 4, seed: 9, ..Default::default() });
    let mut relevant: Vec<&Layer> = city.relevant.iter().collect();
    relevant.push(&city.reference);
    let recorder = Recorder::new();
    let config = config
        .clone()
        .with_tiling(Tiling::Grid { tiles_per_axis })
        .with_threads(Threads::Fixed(threads))
        .with_recorder(recorder.clone());
    let (table, _) = extract_predicates(&city.reference, &relevant, &config).expect("extraction");
    (render_table(&table), render_metrics(&recorder.snapshot()))
}

fn check(name: &str, golden: &str, config: &ExtractionConfig) {
    let at = golden.find(METRICS_HEADER).expect("golden has a metrics part");
    let (golden_table, golden_metrics) = golden.split_at(at);
    for threads in [1, 4] {
        for tiles in [1, 3] {
            let (table, metrics) = render(config, tiles, threads);
            assert_eq!(table, golden_table, "{name}: table at {threads} threads, {tiles} tiles");
            if tiles == 1 {
                assert_eq!(metrics, golden_metrics, "{name}: metrics at {threads} threads");
            }
        }
    }
}

#[test]
fn window_extraction_matches_its_golden() {
    let golden = include_str!("../golden/extract_city_grid4_seed9_window.txt");
    check("window", golden, &window_config());
}

#[test]
fn scan_extraction_matches_its_golden() {
    let golden = include_str!("../golden/extract_city_grid4_seed9_scan.txt");
    check("scan", golden, &scan_config());
}
