//! Synthetic city generator: the stand-in for the proprietary Porto
//! Alegre GIS layers.
//!
//! Generates a grid of district polygons (the reference feature type) and
//! six relevant layers placed with *controlled topological relations*, so
//! that the full geometric pipeline (R-tree pruning → DE-9IM relate →
//! predicate extraction → mining) exercises the same predicate mix the
//! paper describes:
//!
//! * **slums** — polygons placed strictly inside a district (`contains`),
//!   straddling a district edge (`overlaps` two districts), or flush
//!   against an internal boundary (`covers` for one district, `touches`
//!   for its neighbour);
//! * **schools** — points inside districts (`contains`) or on their
//!   boundaries (`touches`);
//! * **police centers** — sparse points inside districts;
//! * **streets** — polylines along and across district rows (`touches` /
//!   `crosses`);
//! * **illumination points** — points dotted along streets, reproducing
//!   the paper's classic well-known dependency (streets ↔ illumination
//!   points) that Apriori-KC's `Φ` is meant to remove;
//! * **rivers** — a polyline crossing a column of districts.
//!
//! District crime attributes are correlated with slum presence so that the
//! paper's motivating hypothesis (high crime ↔ slums, low crime ↔ schools
//! and police centers) is discoverable.

use geopattern_geom::{coord, LineString, Point, Polygon};
use geopattern_sdb::{Feature, KnowledgeBase, Layer, SpatialDataset};
use geopattern_testkit::Rng;

/// Configuration of the synthetic city.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// The city is a `grid × grid` tessellation of square districts.
    pub grid: usize,
    /// Side length of one district (metres).
    pub cell: f64,
    /// RNG seed (placement probabilities only; geometry is exact).
    pub seed: u64,
    /// Probability of a contained slum per district.
    pub p_slum_contained: f64,
    /// Probability of an edge-straddling slum per internal vertical edge.
    pub p_slum_overlap: f64,
    /// Probability of a boundary-flush slum per internal horizontal edge.
    pub p_slum_covers: f64,
    /// Probability of an interior school per district.
    pub p_school: f64,
    /// Probability of a boundary school per district.
    pub p_school_touch: f64,
    /// Probability of a police center per district.
    pub p_police: f64,
    /// Spacing of illumination points along streets.
    pub illumination_spacing: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            grid: 6,
            cell: 100.0,
            seed: 1,
            p_slum_contained: 0.55,
            p_slum_overlap: 0.35,
            p_slum_covers: 0.30,
            p_school: 0.75,
            p_school_touch: 0.25,
            p_police: 0.18,
            illumination_spacing: 40.0,
        }
    }
}

impl CityConfig {
    /// A metropolis-scale city for out-of-core experiments: the expected
    /// feature yield is ≈ 5.9 features per district cell (one district +
    /// ~1.2 slums + ~1 school + 0.18 police centers + ~2.5 illumination
    /// points per cell, plus one street per row and a river), so a
    /// 420 × 420 grid emits a little over one million features.
    pub fn metropolis() -> CityConfig {
        CityConfig { grid: 420, seed: 42, ..CityConfig::default() }
    }
}

/// Generates the synthetic city dataset. Districts are the reference
/// layer; slums, schools, police centers, streets, illumination points and
/// rivers are the relevant layers (in that order).
pub fn generate_city(config: &CityConfig) -> SpatialDataset {
    let g = config.grid;
    let c = config.cell;
    let mut rng = Rng::seed_from_u64(config.seed);

    let mut slums: Vec<Feature> = Vec::new();
    let mut schools: Vec<Feature> = Vec::new();
    let mut police: Vec<Feature> = Vec::new();
    let mut slum_counts = vec![0usize; g * g];
    let mut police_flags = vec![false; g * g];

    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| -> Polygon {
        Polygon::rect(coord(x0, y0), coord(x1, y1)).expect("grid rectangles are valid")
    };
    let pt = |x: f64, y: f64| -> Point { Point::xy(x, y).expect("finite") };

    for i in 0..g {
        for j in 0..g {
            let x0 = i as f64 * c;
            let y0 = j as f64 * c;
            let d = j * g + i;

            if rng.chance(config.p_slum_contained) {
                slums.push(Feature::new(
                    format!("slum{}", slums.len()),
                    rect(x0 + 0.20 * c, y0 + 0.55 * c, x0 + 0.40 * c, y0 + 0.80 * c).into(),
                ));
                slum_counts[d] += 1;
            }
            // Straddles the right edge: overlaps this district and its
            // right neighbour.
            if i + 1 < g && rng.chance(config.p_slum_overlap) {
                slums.push(Feature::new(
                    format!("slum{}", slums.len()),
                    rect(x0 + 0.88 * c, y0 + 0.30 * c, x0 + 1.12 * c, y0 + 0.48 * c).into(),
                ));
                slum_counts[d] += 1;
                slum_counts[j * g + i + 1] += 1;
            }
            // Flush against the bottom edge: this district covers it; the
            // district below touches it.
            if j > 0 && rng.chance(config.p_slum_covers) {
                slums.push(Feature::new(
                    format!("slum{}", slums.len()),
                    rect(x0 + 0.55 * c, y0, x0 + 0.75 * c, y0 + 0.18 * c).into(),
                ));
                slum_counts[d] += 1;
            }
            if rng.chance(config.p_school) {
                schools.push(Feature::new(
                    format!("school{}", schools.len()),
                    pt(x0 + 0.62 * c, y0 + 0.33 * c).into(),
                ));
            }
            if rng.chance(config.p_school_touch) {
                schools.push(Feature::new(
                    format!("school{}", schools.len()),
                    pt(x0, y0 + 0.5 * c).into(), // on the left boundary
                ));
            }
            if rng.chance(config.p_police) {
                police.push(Feature::new(
                    format!("police{}", police.len()),
                    pt(x0 + 0.5 * c, y0 + 0.12 * c).into(),
                ));
                police_flags[d] = true;
            }
        }
    }

    // Streets: one through the middle of each district row (crosses every
    // district in the row), slightly overshooting the city edge.
    let mut streets: Vec<Feature> = Vec::new();
    let mut illumination: Vec<Feature> = Vec::new();
    let width = g as f64 * c;
    for j in 0..g {
        let y = (j as f64 + 0.5) * c;
        let line = LineString::from_xy(&[(-0.05 * c, y), (width + 0.05 * c, y)])
            .expect("street polylines are valid");
        // Illumination points along the street, just off it (adjacent).
        let mut x = config.illumination_spacing * 0.5;
        while x < width {
            illumination.push(Feature::new(
                format!("illum{}", illumination.len()),
                pt(x, y + 1.0).into(),
            ));
            x += config.illumination_spacing;
        }
        streets.push(Feature::new(format!("street{j}"), line.into()));
    }

    // A river crossing the middle column of districts bottom-to-top.
    let rx = (g as f64 / 2.0).floor() * c + 0.37 * c;
    let river = LineString::from_xy(&[
        (rx, -0.05 * c),
        (rx + 0.1 * c, 0.4 * width),
        (rx - 0.08 * c, 0.7 * width),
        (rx, width + 0.05 * c),
    ])
    .expect("river polyline is valid");
    let rivers = vec![Feature::new("river0", river.into())];

    // Districts with crime attributes correlated to slums/police.
    let mut districts: Vec<Feature> = Vec::new();
    for i in 0..g {
        for j in 0..g {
            let x0 = i as f64 * c;
            let y0 = j as f64 * c;
            let d = j * g + i;
            let noisy = rng.chance(0.12);
            let murder_high = (slum_counts[d] >= 2) ^ noisy;
            let theft_high = (slum_counts[d] >= 1 && !police_flags[d]) ^ rng.chance(0.12);
            districts.push(
                Feature::new(format!("district_{i}_{j}"), rect(x0, y0, x0 + c, y0 + c).into())
                    .with_attribute("murderRate", if murder_high { "high" } else { "low" })
                    .with_attribute("theftRate", if theft_high { "high" } else { "low" }),
            );
        }
    }

    SpatialDataset::new(
        Layer::new("district", districts),
        vec![
            Layer::new("slum", slums),
            Layer::new("school", schools),
            Layer::new("policeCenter", police),
            Layer::new("street", streets),
            Layer::new("illuminationPoint", illumination),
            Layer::new("river", rivers),
        ],
    )
}

/// The background knowledge `Φ` appropriate for the synthetic city: the
/// paper's classic street ↔ illumination-point dependency.
pub fn default_knowledge() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.add_type_dependency("street", "illuminationPoint");
    kb
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_sdb::{extract_predicates, ExtractionConfig};

    #[test]
    fn city_has_all_layers() {
        let ds = generate_city(&CityConfig::default());
        assert_eq!(ds.reference.feature_type, "district");
        assert_eq!(ds.reference.len(), 36);
        let names: Vec<&str> =
            ds.relevant.iter().map(|l| l.feature_type.as_str()).collect();
        assert_eq!(
            names,
            vec!["slum", "school", "policeCenter", "street", "illuminationPoint", "river"]
        );
        for layer in &ds.relevant {
            assert!(!layer.is_empty(), "layer {} is empty", layer.feature_type);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_city(&CityConfig::default());
        let b = generate_city(&CityConfig::default());
        assert_eq!(a.to_text(), b.to_text());
        let c = generate_city(&CityConfig { seed: 99, ..Default::default() });
        assert_ne!(a.to_text(), c.to_text());
    }

    #[test]
    fn extraction_finds_the_expected_relation_mix() {
        let ds = generate_city(&CityConfig::default());
        let (table, _) =
            extract_predicates(&ds.reference, &ds.relevant_refs(), &ExtractionConfig::topological_only()).unwrap();
        let labels: Vec<String> =
            table.predicates().iter().map(|p| p.to_string()).collect();
        for expected in [
            "contains_slum",
            "overlaps_slum",
            "covers_slum",
            "touches_slum",
            "contains_school",
            "touches_school",
            "contains_policeCenter",
            "crosses_street",
            "contains_illuminationPoint",
            "crosses_river",
        ] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}; have {labels:?}");
        }
    }

    #[test]
    fn dataset_roundtrips_through_text_format() {
        let ds = generate_city(&CityConfig { grid: 3, ..Default::default() });
        let text = ds.to_text();
        let parsed = SpatialDataset::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn knowledge_base_declares_street_dependency() {
        let kb = default_knowledge();
        assert_eq!(kb.len(), 1);
    }
}
