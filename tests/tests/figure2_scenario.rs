//! The paper's Figure 2 narrative, rebuilt geometrically.
//!
//! "Notice in Figure 2 that the district 'Nonoai', for instance, has many
//! topological relationships with different instances of slum. It
//! *touches* slum180, *covers* slum183, *overlaps* slum174 and *contains*
//! slum159. Considering distance relationships and police centers, the
//! district Nonoai will be either *close* or *far* from the police centers
//! according to the distance threshold. Districts Cristal and Cavalhada,
//! however, will be *very close*, since they contain police centers."
//!
//! These tests construct exactly that configuration and verify every claim
//! through the full stack: geometry → DE-9IM → Egenhofer classification →
//! extraction → RCC8 consistency → mining.

use geopattern::{
    to_transactions, Algorithm, Feature, Layer, MiningPipeline, MinSupport, SpatialDataset,
};
use geopattern_geom::from_wkt;
use geopattern_qsr::{
    classify, Consistency, ConstraintNetwork, DistanceScheme, Rcc8, Rcc8Set, TopologicalRelation,
};
use geopattern_sdb::{extract_predicates, ExtractionConfig};

/// Nonoai: a 100×100 district at the origin.
fn nonoai() -> Feature {
    Feature::new(
        "Nonoai",
        from_wkt("POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))").unwrap(),
    )
    .with_attribute("murderRate", "high")
    .with_attribute("theftRate", "high")
}

/// The four slums in the paper's four relations to Nonoai.
fn slums() -> Layer {
    Layer::new(
        "slum",
        vec![
            // slum180 touches Nonoai: outside, sharing part of the east edge.
            Feature::new(
                "slum180",
                from_wkt("POLYGON ((100 40, 120 40, 120 60, 100 60, 100 40))").unwrap(),
            ),
            // slum183 is covered by Nonoai: inside, flush with the south edge.
            Feature::new(
                "slum183",
                from_wkt("POLYGON ((30 0, 50 0, 50 15, 30 15, 30 0))").unwrap(),
            ),
            // slum174 overlaps Nonoai: straddles the west edge.
            Feature::new(
                "slum174",
                from_wkt("POLYGON ((-10 70, 15 70, 15 90, -10 90, -10 70))").unwrap(),
            ),
            // slum159 is contained: strictly inside.
            Feature::new(
                "slum159",
                from_wkt("POLYGON ((60 60, 80 60, 80 80, 60 80, 60 60))").unwrap(),
            ),
        ],
    )
}

fn police_centers() -> Layer {
    Layer::new(
        "policeCenter",
        vec![
            // Near Nonoai but outside (close).
            Feature::new("pcNear", from_wkt("POINT (140 50)").unwrap()),
            // Far across town.
            Feature::new("pcFar", from_wkt("POINT (900 900)").unwrap()),
        ],
    )
}

#[test]
fn the_four_slum_relations_classify_as_the_paper_says() {
    let d = nonoai();
    let layer = slums();
    let expected = [
        ("slum180", TopologicalRelation::Touches),
        ("slum183", TopologicalRelation::Covers),
        ("slum174", TopologicalRelation::Overlaps),
        ("slum159", TopologicalRelation::Contains),
    ];
    for (id, want) in expected {
        let slum = layer.features().iter().find(|f| f.id == id).unwrap();
        let got = classify(
            &geopattern_geom::relate(&d.geometry, &slum.geometry),
            d.geometry.dimension(),
            slum.geometry.dimension(),
        );
        assert_eq!(got, want, "{id}");
    }
}

#[test]
fn extraction_produces_all_four_predicates_once_each() {
    let district = Layer::new("district", vec![nonoai()]);
    let (table, stats) = extract_predicates(&district, &[&slums()], &ExtractionConfig::topological_only()).unwrap();
    let row: Vec<String> = table.rows()[0]
        .1
        .iter()
        .map(|&c| table.predicate(c).to_string())
        .collect();
    for predicate in ["touches_slum", "covers_slum", "overlaps_slum", "contains_slum"] {
        assert!(row.contains(&predicate.to_string()), "missing {predicate} in {row:?}");
    }
    assert_eq!(stats.spatial_predicates, 4);
    // All four are same-feature-type pairs for KC+: C(4,2) = 6 pairs.
    assert_eq!(to_transactions(table).catalog.same_feature_type_pairs().len(), 6);
}

#[test]
fn distance_relations_match_the_narrative() {
    let district = Layer::new("district", vec![nonoai()]);
    let scheme = DistanceScheme::very_close_close_far(10.0, 100.0);
    let config = ExtractionConfig::topological_only().with_distance(scheme);
    let (table, _) = extract_predicates(&district, &[&police_centers()], &config).unwrap();
    let row: Vec<String> = table.rows()[0]
        .1
        .iter()
        .map(|&c| table.predicate(c).to_string())
        .collect();
    // pcNear is 40 m from the east edge → close; pcFar ≫ 100 → far.
    assert!(row.contains(&"closeTo_policeCenter".to_string()), "{row:?}");
    assert!(row.contains(&"farTo_policeCenter".to_string()), "{row:?}");
    // The paper's point: the same feature type with two distance relations
    // is exactly what generates is_a_District → close ∧ far nonsense…
    assert_eq!(to_transactions(table).catalog.same_feature_type_pairs().len(), 1);
}

#[test]
fn extracted_scenario_is_rcc8_consistent() {
    // Variables: Nonoai, slum180, slum183, slum174, slum159.
    let d = nonoai();
    let layer = slums();
    let mut geoms = vec![d.geometry.clone()];
    geoms.extend(layer.features().iter().map(|f| f.geometry.clone()));

    let mut net = ConstraintNetwork::new(geoms.len());
    for i in 0..geoms.len() {
        for j in (i + 1)..geoms.len() {
            let rel = classify(
                &geopattern_geom::relate(&geoms[i], &geoms[j]),
                geoms[i].dimension(),
                geoms[j].dimension(),
            );
            let rcc = Rcc8::from_topological(rel).expect("region pair");
            net.constrain(i, j, Rcc8Set::of(rcc));
        }
    }
    assert_eq!(net.path_consistency(), Consistency::PathConsistent);
    // Composition sanity: slum159 (inside) and slum180 (outside, touching)
    // must be disconnected.
    assert_eq!(net.get(4, 1), Rcc8Set::of(Rcc8::Dc));
}

#[test]
fn kc_plus_filters_the_nonoai_noise_but_keeps_the_crime_signal() {
    // Three districts with correlated slums so patterns are frequent.
    let districts = Layer::new(
        "district",
        vec![
            nonoai(),
            Feature::new(
                "Cristal",
                from_wkt("POLYGON ((200 0, 300 0, 300 100, 200 100, 200 0))").unwrap(),
            )
            .with_attribute("murderRate", "high")
            .with_attribute("theftRate", "high"),
            Feature::new(
                "Teresopolis",
                from_wkt("POLYGON ((400 0, 500 0, 500 100, 400 100, 400 0))").unwrap(),
            )
            .with_attribute("murderRate", "low")
            .with_attribute("theftRate", "low"),
        ],
    );
    let mut slum_features = slums().features().to_vec();
    // Cristal also contains and touches slums; Teresopolis has none.
    slum_features.push(Feature::new(
        "slum200",
        from_wkt("POLYGON ((220 20, 240 20, 240 40, 220 40, 220 20))").unwrap(),
    ));
    slum_features.push(Feature::new(
        "slum201",
        from_wkt("POLYGON ((300 40, 320 40, 320 60, 300 60, 300 40))").unwrap(),
    ));
    let dataset = SpatialDataset::new(districts, vec![Layer::new("slum", slum_features)]);

    let plain = MiningPipeline::new()
        .algorithm(Algorithm::Apriori)
        .min_support(MinSupport::Fraction(0.6))
        .run(&dataset)
        .unwrap();
    let kcp = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.6))
        .run(&dataset)
        .unwrap();

    // The noise {contains_slum, touches_slum} is frequent unfiltered…
    assert!(plain
        .frequent_itemsets(2)
        .iter()
        .any(|s| s.contains("contains_slum") && s.contains("touches_slum")));
    // …KC+ removes it, while {murderRate=high, contains_slum} survives.
    assert!(kcp
        .frequent_itemsets(2)
        .iter()
        .all(|s| !(s.contains("contains_slum") && s.contains("touches_slum"))));
    assert!(kcp
        .frequent_itemsets(2)
        .iter()
        .any(|s| s.contains("murderRate=high") && s.contains("contains_slum")));
}
