//! End-to-end tests over the full stack: geometry → extraction → mining.

use geopattern::{
    to_transactions, Algorithm, ExtractionConfig, Feature, KnowledgeBase, Layer, MiningPipeline,
    MinSupport, SpatialDataset,
};
use geopattern_datagen::{default_knowledge, generate_city, CityConfig};
use geopattern_geom::from_wkt;
use geopattern_sdb::extract_predicates;

fn city() -> SpatialDataset {
    generate_city(&CityConfig { grid: 6, seed: 3, ..Default::default() })
}

#[test]
fn geometric_pipeline_runs_all_algorithms() {
    let ds = city();
    let mut counts = Vec::new();
    for alg in [Algorithm::Apriori, Algorithm::AprioriKc, Algorithm::AprioriKcPlus] {
        let report = MiningPipeline::new()
            .algorithm(alg)
            .min_support(MinSupport::Fraction(0.25))
            .knowledge(default_knowledge())
            .run(&ds)
            .unwrap();
        assert!(report.result.check_downward_closure(), "{}", alg.name());
        assert!(report.extraction_stats.is_some());
        counts.push(report.result.num_frequent_min2());
    }
    assert!(counts[2] <= counts[1] && counts[1] <= counts[0], "KC+ ≤ KC ≤ Apriori: {counts:?}");
    assert!(counts[2] < counts[0], "filters must remove something on city data");
}

#[test]
fn kc_removes_street_illumination_dependency() {
    let ds = city();
    let kc = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKc)
        .min_support(MinSupport::Fraction(0.25))
        .knowledge(default_knowledge())
        .run(&ds)
        .unwrap();
    let cat = &kc.transactions.catalog;
    // No surviving itemset pairs a street predicate with an
    // illumination-point predicate.
    let street_items: Vec<u32> = (0..cat.len() as u32)
        .filter(|&i| cat.feature_type(i) == Some("street"))
        .collect();
    let illum_items: Vec<u32> = (0..cat.len() as u32)
        .filter(|&i| cat.feature_type(i) == Some("illuminationPoint"))
        .collect();
    assert!(!street_items.is_empty() && !illum_items.is_empty());
    for f in kc.result.with_min_size(2) {
        let has_street = f.items.iter().any(|i| street_items.contains(i));
        let has_illum = f.items.iter().any(|i| illum_items.contains(i));
        assert!(
            !(has_street && has_illum),
            "dependency pair survived KC: {:?}",
            cat.render_itemset(&f.items)
        );
    }
}

#[test]
fn kc_plus_never_pairs_same_feature_type() {
    let ds = city();
    let kcp = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.2))
        .run(&ds)
        .unwrap();
    let cat = &kcp.transactions.catalog;
    for f in kcp.result.with_min_size(2) {
        for i in 0..f.items.len() {
            for j in (i + 1)..f.items.len() {
                assert!(
                    !cat.same_feature_type(f.items[i], f.items[j]),
                    "same-feature-type pair survived: {}",
                    cat.render_itemset(&f.items)
                );
            }
        }
    }
}

#[test]
fn fp_growth_matches_apriori_on_city_data() {
    let ds = city();
    let (table, _) = extract_predicates(&ds.reference, &ds.relevant_refs(), &ExtractionConfig::default()).unwrap();
    let ts = to_transactions(table);
    let sets = |alg: Algorithm| {
        let mut v: Vec<(Vec<u32>, u64)> = MiningPipeline::new()
            .algorithm(alg)
            .min_support(MinSupport::Fraction(0.2))
            .run_transactions(ts.clone())
            .unwrap()
            .result
            .all()
            .map(|f| (f.items.clone(), f.support))
            .collect();
        v.sort();
        v
    };
    assert_eq!(sets(Algorithm::Apriori), sets(Algorithm::FpGrowth));
    assert_eq!(sets(Algorithm::AprioriKcPlus), sets(Algorithm::FpGrowthKcPlus));
}

#[test]
fn dataset_text_roundtrip_preserves_mining_results() {
    let ds = city();
    let text = ds.to_text();
    let parsed = SpatialDataset::from_text(&text).expect("roundtrip parse");
    let run = |d: &SpatialDataset| {
        MiningPipeline::new()
            .min_support(MinSupport::Fraction(0.25))
            .run(d)
            .unwrap()
            .result
            .num_frequent()
    };
    assert_eq!(run(&ds), run(&parsed));
}

#[test]
fn extraction_stats_account_for_all_pairs() {
    let ds = city();
    let (_, stats) = extract_predicates(&ds.reference, &ds.relevant_refs(), &ExtractionConfig::default()).unwrap();
    let total_pairs: usize = ds.relevant.iter().map(|l| l.len() * ds.reference.len()).sum();
    assert_eq!(stats.candidate_pairs + stats.pruned_pairs, total_pairs);
    assert!(stats.pruned_pairs > stats.candidate_pairs, "the index must prune most pairs");
}

/// The introduction's illumination example end-to-end: a district whose
/// streets carry illumination points produces the well-known pattern, and
/// `Φ` kills it.
#[test]
fn handbuilt_street_illumination_scenario() {
    let district = Layer::new(
        "district",
        vec![
            Feature::new("D1", from_wkt("POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))").unwrap()),
            Feature::new(
                "D2",
                from_wkt("POLYGON ((100 0, 200 0, 200 100, 100 100, 100 0))").unwrap(),
            ),
        ],
    );
    let streets = Layer::new(
        "street",
        vec![Feature::new("s1", from_wkt("LINESTRING (-5 50, 205 50)").unwrap())],
    );
    let illum = Layer::new(
        "illuminationPoint",
        vec![
            Feature::new("i1", from_wkt("POINT (50 51)").unwrap()),
            Feature::new("i2", from_wkt("POINT (150 51)").unwrap()),
        ],
    );
    let ds = SpatialDataset::new(district, vec![streets, illum]);

    let mut kb = KnowledgeBase::new();
    kb.add_type_dependency("street", "illuminationPoint");

    let plain = MiningPipeline::new()
        .algorithm(Algorithm::Apriori)
        .min_support(MinSupport::Fraction(1.0))
        .run(&ds)
        .unwrap();
    let labels = plain.frequent_itemsets(2);
    assert!(
        labels.iter().any(|s| s.contains("crosses_street") && s.contains("contains_illuminationPoint")),
        "unfiltered mining must produce the well-known pattern: {labels:?}"
    );

    let kc = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKc)
        .min_support(MinSupport::Fraction(1.0))
        .knowledge(kb)
        .run(&ds)
        .unwrap();
    assert!(
        kc.frequent_itemsets(2)
            .iter()
            .all(|s| !(s.contains("street") && s.contains("illuminationPoint"))),
        "Φ must remove the dependency"
    );
}
