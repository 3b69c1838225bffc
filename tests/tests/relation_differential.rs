//! The relation entry point against the full-matrix oracle, on the
//! candidate pairs extraction meets: every R-tree candidate pair
//! (reference feature × relevant feature with intersecting envelopes) of
//! `stars`-shaped layers and of generated cities.
//!
//! For each pair, `PreparedGeometry::relation` must equal `classify` of
//! `PreparedGeometry::relate_to`'s matrix, and the pair related the other
//! way round must give the converse relation. The relation engine stops
//! as soon as the cells computed so far decide the class; these pairs are
//! where it stops in practice (`overlaps` between 256-vertex stars,
//! `crosses` between districts and streets).
//!
//! The `stars` layers have perfbench's three layer shapes (256-, 256- and
//! 64-vertex stars) at perfbench's density, with a fifth of its features.

use geopattern_datagen::{generate_city, random_layer, CityConfig};
use geopattern_geom::{classify, Geometry, PreparedGeometry, TopologicalRelation};
use geopattern_sdb::Layer;
use geopattern_testkit::Rng;

/// Asserts the relation contract on every candidate pair of `reference`
/// against `relevant`, and returns how many pairs fell in each relation
/// (indexed by `TopologicalRelation as usize`).
fn assert_candidate_pairs_agree(reference: &Layer, relevant: &[&Layer]) -> [usize; 9] {
    let rows = prepare(reference);
    let mut seen = [0usize; 9];
    for layer in relevant {
        let prepared = prepare(layer);
        for (row, a) in rows.iter().enumerate() {
            for ci in layer.query_envelope(&reference.features()[row].envelope()) {
                let b = &prepared[ci];
                let (da, db) = (a.geometry().dimension(), b.geometry().dimension());
                let rel = a.relation(b);
                let what = || {
                    format!(
                        "{} {row} × {} {ci}",
                        reference.feature_type, layer.feature_type
                    )
                };
                assert_eq!(
                    rel,
                    classify(&a.relate_to(b), da, db),
                    "relation: {}",
                    what()
                );
                assert_eq!(b.relation(a), rel.converse(), "converse: {}", what());
                seen[rel as usize] += 1;
            }
        }
    }
    seen
}

/// Every feature of `layer`, prepared.
fn prepare(layer: &Layer) -> Vec<PreparedGeometry<&Geometry>> {
    layer
        .features()
        .iter()
        .map(|f| PreparedGeometry::new(&f.geometry))
        .collect()
}

/// `stars` layers: perfbench's `(count, vertices)` shapes with a fifth of
/// the features, on an extent shrunk so that the stars' size relative to
/// their spacing stays the same.
fn stars_layers(seed: u64) -> (Layer, Layer, Layer) {
    const SHAPES: [(usize, usize); 3] = [(100, 256), (100, 256), (50, 64)];
    let extent = 1000.0 * (100.0f64 / 500.0).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let mut layer = |feature_type, (count, vertices)| {
        random_layer(&mut rng, feature_type, count, vertices, extent)
    };
    (
        layer("parcel", SHAPES[0]),
        layer("lake", SHAPES[1]),
        layer("forest", SHAPES[2]),
    )
}

#[test]
fn relation_equals_classify_of_relate_on_stars_candidate_pairs() {
    use TopologicalRelation::*;
    for seed in [7u64, 941] {
        let (parcel, lake, forest) = stars_layers(seed);
        let seen = assert_candidate_pairs_agree(&parcel, &[&lake, &forest]);
        // Most candidate pairs of overlapping stars overlap: the early stop
        // is exercised, and so is the run to the end for the rest.
        assert!(seen[Overlaps as usize] > 100, "seed {seed}: {seen:?}");
        assert!(seen[Disjoint as usize] > 0, "seed {seed}: {seen:?}");
    }
}

#[test]
fn relation_equals_classify_of_relate_on_city_candidate_pairs() {
    use TopologicalRelation::*;
    for seed in [7u64, 9] {
        let city = generate_city(&CityConfig {
            grid: 20,
            seed,
            ..CityConfig::default()
        });
        let seen = assert_candidate_pairs_agree(&city.reference, &city.relevant_refs());
        for rel in [Crosses, Contains, Touches, Overlaps] {
            assert!(
                seen[rel as usize] > 0,
                "seed {seed}: no {rel} among {seen:?}"
            );
        }
    }
}
