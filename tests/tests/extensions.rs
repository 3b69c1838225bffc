//! Integration tests of the features beyond the paper's core: FP-Growth,
//! taxonomies, direction extraction, non-redundant rules, and the dataset
//! file surface the CLI consumes.

use geopattern::{
    Algorithm, ExtractionConfig, FeatureTypeTaxonomy, MiningPipeline, MinSupport, SpatialDataset,
};
use geopattern_datagen::{experiments, generate_city, table1, CityConfig};
use geopattern_mining::{
    generate_rules, mine, mine_fp, non_redundant_rules, AprioriConfig, FpGrowthConfig,
};
use geopattern_qsr::DistanceScheme;

#[test]
fn fpgrowth_matches_apriori_on_experiment_data() {
    let e = experiments::experiment2(42);
    let sup = MinSupport::Fraction(0.08);
    let ap = mine(&e.data, &AprioriConfig::apriori(sup));
    let fp = mine_fp(&e.data, &FpGrowthConfig::new(sup));
    let sorted = |r: &geopattern_mining::MiningResult| {
        let mut v: Vec<_> = r.all().map(|f| (f.items.clone(), f.support)).collect();
        v.sort();
        v
    };
    assert_eq!(sorted(&ap), sorted(&fp));

    // Filtered variants too.
    let apf = mine(
        &e.data,
        &AprioriConfig::apriori_kc_plus(sup, geopattern::PairFilter::none(), e.same_type.clone()),
    );
    let fpf = mine_fp(&e.data, &FpGrowthConfig::new(sup).with_filter(e.same_type.clone()));
    assert_eq!(sorted(&apf), sorted(&fpf));
}

#[test]
fn all_five_algorithms_run_through_pipeline() {
    let data = table1::transactions();
    for alg in [
        Algorithm::Apriori,
        Algorithm::AprioriKc,
        Algorithm::AprioriKcPlus,
        Algorithm::FpGrowth,
        Algorithm::FpGrowthKcPlus,
    ] {
        let report = MiningPipeline::new()
            .algorithm(alg)
            .min_support(MinSupport::Fraction(0.5))
            .run_transactions(data.clone())
            .unwrap();
        assert!(report.result.num_frequent() > 0, "{}", alg.name());
        assert!(report.result.check_downward_closure(), "{}", alg.name());
    }
}

#[test]
fn taxonomy_granularity_increases_filtering() {
    let city = generate_city(&CityConfig { grid: 6, seed: 32, ..Default::default() });
    let mut taxonomy = FeatureTypeTaxonomy::new();
    taxonomy.add_is_a("slum", "builtArea").unwrap();
    taxonomy.add_is_a("school", "builtArea").unwrap();
    taxonomy.add_is_a("policeCenter", "builtArea").unwrap();

    let fine = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.3))
        .run(&city)
        .unwrap();
    let coarse = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.3))
        .granularity(taxonomy, 1)
        .run(&city)
        .unwrap();

    // Generalisation merges slum/school/police into builtArea, so the KC+
    // filter removes many more pairs.
    assert!(
        coarse.result.stats.pairs_removed_same_type
            >= fine.result.stats.pairs_removed_same_type,
        "coarse {} vs fine {}",
        coarse.result.stats.pairs_removed_same_type,
        fine.result.stats.pairs_removed_same_type
    );
    // And no coarse predicate mentions the fine-grained types.
    let cat = &coarse.transactions.catalog;
    for i in 0..cat.len() as u32 {
        let label = cat.label(i);
        assert!(
            !label.contains("_slum") && !label.contains("_school") && !label.contains("_policeCenter"),
            "unexpected fine label {label}"
        );
    }
}

#[test]
fn direction_predicates_flow_to_mining() {
    let city = generate_city(&CityConfig { grid: 4, seed: 5, ..Default::default() });
    let report = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.25))
        .extraction(
            ExtractionConfig::topological_only()
                .with_direction()
                .with_distance(DistanceScheme::very_close_close_far(150.0, 400.0)),
        )
        .run(&city)
        .unwrap();
    let labels: Vec<&str> = (0..report.transactions.catalog.len() as u32)
        .map(|i| report.transactions.catalog.label(i))
        .collect();
    assert!(
        labels.iter().any(|l| l.ends_with("Of_policeCenter") || l.ends_with("Of_river")),
        "direction predicates expected among {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("veryCloseTo_") || l.starts_with("closeTo_")),
        "distance predicates expected among {labels:?}"
    );
    // Direction + distance predicates over the same type are same-type
    // pairs: KC+ must never combine them.
    let cat = &report.transactions.catalog;
    for f in report.result.with_min_size(2) {
        for i in 0..f.items.len() {
            for j in (i + 1)..f.items.len() {
                assert!(!cat.same_feature_type(f.items[i], f.items[j]));
            }
        }
    }
}

#[test]
fn non_redundant_rules_shrink_table1_output() {
    let data = table1::transactions();
    let result = mine(&data, &AprioriConfig::apriori(MinSupport::Fraction(0.5)));
    let rules = generate_rules(&result, data.len(), 0.8);
    let kept = non_redundant_rules(&rules);
    assert!(!kept.is_empty());
    assert!(kept.len() < rules.len(), "{} of {} kept", kept.len(), rules.len());
}

#[test]
fn cli_dataset_surface_roundtrip() {
    // The CLI consumes the text dataset format; verify a generated city
    // written to disk can be read back and mined identically.
    let city = generate_city(&CityConfig { grid: 4, seed: 2, ..Default::default() });
    let path = std::env::temp_dir().join("geopattern_test_city.gpd");
    std::fs::write(&path, city.to_text()).unwrap();
    let loaded = SpatialDataset::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let run = |d: &SpatialDataset| {
        MiningPipeline::new()
            .min_support(MinSupport::Fraction(0.3))
            .run(d)
            .unwrap()
            .result
            .num_frequent()
    };
    assert_eq!(run(&city), run(&loaded));
}

#[test]
fn hydrology_scenario_recovers_the_papers_intro_rules() {
    use geopattern_datagen::{generate_hydrology, HydrologyConfig};
    let ds = generate_hydrology(&HydrologyConfig {
        cities: 36,
        p_river_column: 0.5,
        p_tributary: 0.6,
        p_creek: 0.5,
        ..Default::default()
    });
    let plain = MiningPipeline::new()
        .algorithm(Algorithm::Apriori)
        .min_support(MinSupport::Fraction(0.12))
        .min_confidence(0.7)
        .run(&ds)
        .unwrap();
    // Unfiltered mining produces the meaningless same-type combination the
    // paper opens with.
    let labels = plain.frequent_itemsets(2);
    assert!(
        labels
            .iter()
            .any(|s| s.matches("_river").count() >= 2),
        "expected a same-type river itemset in {labels:?}"
    );

    let kcp = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.12))
        .min_confidence(0.7)
        .run(&ds)
        .unwrap();
    // No surviving itemset combines two river predicates…
    assert!(kcp.frequent_itemsets(2).iter().all(|s| s.matches("_river").count() < 2));
    // …and the interesting pollution association survives.
    let rendered = kcp.rendered_rules();
    assert!(
        rendered
            .iter()
            .any(|r| r.contains("crosses_river") && r.contains("waterPollution=high")),
        "expected the pollution rule among {rendered:?}"
    );
}

#[test]
fn float_coordinate_crossings_classified_correctly() {
    // Lines crossing at non-representable coordinates: the crossing point
    // is rounded, but II must still be 0-dimensional (regression test for
    // the rounded-crossing classification in relate_ll / relate_la).
    use geopattern_geom::{from_wkt, relate, Dim, Part};
    let a = from_wkt("LINESTRING (0 0, 10 3)").unwrap();
    let b = from_wkt("LINESTRING (0 3, 10 0.1)").unwrap();
    let m = relate(&a, &b);
    assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Zero);
    assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Empty);

    let poly = from_wkt("POLYGON ((1 0.7, 7 1.3, 6 9, 0.5 8, 1 0.7))").unwrap();
    let m = relate(&a, &poly);
    assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
    assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
    assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One);
}
