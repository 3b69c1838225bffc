//! Serial-vs-parallel equivalence of the full stack.
//!
//! The in-tree thread pool (`geopattern-par`) must never change results —
//! only wall-clock. These tests run predicate extraction and every
//! parallelised mining backend at 1, 2 and 8 worker threads on a seeded
//! city and assert the outputs are identical, byte for byte, to the
//! serial run. 8 threads exceeds the core count of most CI hosts, which
//! deliberately exercises oversubscription.

use geopattern::{Algorithm, MiningPipeline, MinSupport, Threads};
use geopattern_datagen::{default_knowledge, generate_city, CityConfig};
use geopattern_mining::{mine, AprioriConfig, CountingStrategy, FrequentItemset};
use geopattern_qsr::DistanceScheme;
use geopattern_sdb::{extract_predicates, ExtractionConfig};

fn city() -> geopattern_sdb::SpatialDataset {
    generate_city(&CityConfig { grid: 8, seed: 7, ..Default::default() })
}

/// Extraction with topological predicates plus a bounded distance scheme
/// (exercises the buffered R-tree window-query path).
fn distance_config() -> ExtractionConfig {
    let cell = CityConfig::default().cell;
    ExtractionConfig::topological_only().with_distance(
        DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
            .expect("bounded scheme"),
    )
}

/// Every predicate family enabled: adding cardinal direction forces the
/// full-scan path (direction needs every pair, so the window is disabled).
/// Used for extraction equivalence only — direction predicates are too
/// densely correlated to mine at low support.
fn full_config() -> ExtractionConfig {
    distance_config().with_direction()
}

#[test]
fn extraction_identical_across_thread_counts() {
    let ds = city();
    let refs = ds.relevant_refs();
    let config = full_config();
    let (serial_table, serial_stats) =
        extract_predicates(&ds.reference, &refs, &config.clone().with_threads(Threads::Serial)).unwrap();
    assert!(serial_table.predicates().len() > 10, "workload should be non-trivial");

    for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
        let (table, stats) = extract_predicates(&ds.reference, &refs, &config.clone().with_threads(threads)).unwrap();
        // Identical interner contents *in the same order* (same codes)...
        assert_eq!(table.predicates(), serial_table.predicates(), "{threads:?}");
        // ...and identical rows of codes.
        assert_eq!(table.rows(), serial_table.rows(), "{threads:?}");
        assert_eq!(stats, serial_stats, "{threads:?}");
    }
}

fn sets(r: &geopattern_mining::MiningResult) -> Vec<(Vec<u32>, u64)> {
    let mut v: Vec<_> = r.all().map(|f: &FrequentItemset| (f.items.clone(), f.support)).collect();
    v.sort();
    v
}

#[test]
fn counting_backends_identical_across_thread_counts() {
    let ds = city();
    let refs = ds.relevant_refs();
    let (table, _) =
        extract_predicates(&ds.reference, &refs, &distance_config().with_threads(Threads::Serial)).unwrap();
    let data = geopattern::to_transactions(table);
    let minsup = MinSupport::Fraction(0.3);

    let strategies =
        [CountingStrategy::HashSubset, CountingStrategy::VerticalBitmap, CountingStrategy::Auto];
    let hash_serial = sets(&mine(
        &data,
        &AprioriConfig::apriori(minsup).with_counting(CountingStrategy::HashSubset),
    ));
    // Every backend agrees with each other...
    for strategy in strategies {
        let serial =
            sets(&mine(&data, &AprioriConfig::apriori(minsup).with_counting(strategy)));
        assert_eq!(serial, hash_serial, "{} serial", strategy.name());
    }
    assert!(!hash_serial.is_empty(), "workload should mine something");

    // ...and each backend agrees with its own parallel runs.
    for threads in [Threads::Fixed(2), Threads::Fixed(8)] {
        for strategy in strategies {
            let got = sets(&mine(
                &data,
                &AprioriConfig::apriori(minsup).with_counting(strategy).with_threads(threads),
            ));
            assert_eq!(got, hash_serial, "{} at {threads:?}", strategy.name());
        }
    }
}

/// The KC+ filter must behave identically under parallel counting: the
/// full pipeline (extraction + Apriori-KC+ + rules) at 8 threads equals
/// the serial run, and the same-feature-type filter still removes
/// same-type pairs.
#[test]
fn kc_plus_pipeline_identical_and_filtering_under_parallelism() {
    let ds = city();
    let pipeline = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.3))
        .knowledge(default_knowledge());

    let serial = pipeline.clone().threads(Threads::Serial).run(&ds).unwrap();
    let parallel = pipeline.threads(Threads::Fixed(8)).run(&ds).unwrap();

    assert_eq!(sets(&serial.result), sets(&parallel.result));
    assert_eq!(serial.rendered_rules(), parallel.rendered_rules());

    // Filtering regression: no surviving itemset pairs two predicates of
    // the same feature type.
    let catalog = &parallel.transactions.catalog;
    for f in parallel.result.all() {
        for (i, &a) in f.items.iter().enumerate() {
            for &b in &f.items[i + 1..] {
                let (ta, tb) = (catalog.feature_type(a), catalog.feature_type(b));
                assert!(
                    ta.is_none() || ta != tb,
                    "same-type pair {:?}/{:?} survived KC+",
                    catalog.label(a),
                    catalog.label(b)
                );
            }
        }
    }

    // And it actually filters: plain Apriori at the same support keeps
    // strictly more itemsets on this city.
    let plain = MiningPipeline::new()
        .algorithm(Algorithm::Apriori)
        .min_support(MinSupport::Fraction(0.3))
        .threads(Threads::Fixed(8))
        .run(&ds)
        .unwrap();
    assert!(plain.result.num_frequent_min2() > parallel.result.num_frequent_min2());
}
