//! Counting-strategy equivalence on the paper's experiment datasets.
//!
//! Every support-counting backend — `hash-subset`, `prefix-trie`,
//! `eclat`, the vertical `bitmap` / `diffset` / `hybrid` engines, and
//! the workload-sampled `auto` selector — must produce bit-identical
//! frequent itemsets, supports, and association rules on the Figure-5
//! (Experiment 1) and Figure-7 (Experiment 2) datasets, at 1/2/8
//! threads, with and without KC+ filtering, and the vertical strategies
//! must honour cancellation and memory-budget tracking without changing
//! output. The `auto` policy itself must be a pure function of its
//! sampled stats.
//!
//! The CI host may be single-core, which would clamp every "parallel"
//! run to the serial path; the tests widen the reported host via
//! `GEOPATTERN_HOST_PARALLELISM` so the pool genuinely runs.

use geopattern_datagen::experiments::{experiment1, experiment2, Experiment};
use geopattern_mining::{
    choose, generate_rules, mine, mine_eclat, try_mine, AprioriConfig, CountingStrategy,
    EclatConfig, MiningResult, PairFilter, WorkloadStats,
};
use geopattern::Recorder;
use geopattern_par::{CancelToken, Interrupt, MemoryBudget, Threads};

/// Every test sets the same widened host width, so concurrent setters
/// never race on distinct values.
fn wide_host() {
    std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "8");
}

const STRATEGIES: [CountingStrategy; 6] = [
    CountingStrategy::HashSubset,
    CountingStrategy::PrefixTrie,
    CountingStrategy::VerticalBitmap,
    CountingStrategy::Diffset,
    CountingStrategy::Hybrid,
    CountingStrategy::Auto,
];

const VERTICAL_STRATEGIES: [CountingStrategy; 3] = [
    CountingStrategy::VerticalBitmap,
    CountingStrategy::Diffset,
    CountingStrategy::Hybrid,
];

fn config(e: &Experiment, sup: f64, filtered: bool) -> AprioriConfig {
    let minsup = geopattern_mining::MinSupport::Fraction(sup);
    if filtered {
        AprioriConfig::apriori_kc_plus(minsup, e.dependencies.clone(), e.same_type.clone())
    } else {
        AprioriConfig::apriori(minsup)
    }
}

/// Order-insensitive view for comparing against Eclat, whose traversal
/// order differs from Apriori's.
fn sets(r: &MiningResult) -> Vec<(Vec<u32>, u64)> {
    let mut v: Vec<_> = r.all().map(|f| (f.items.clone(), f.support)).collect();
    v.sort();
    v
}

/// Itemsets, supports, and rules must be identical across every
/// strategy, thread count, and filter setting — the Apriori backends
/// level-for-level (same order), Eclat as a sorted set.
#[test]
fn all_strategies_identical_on_fig5_and_fig7() {
    wide_host();
    for (e, sup) in [(experiment1(32), 0.10), (experiment2(32), 0.08)] {
        for filtered in [false, true] {
            let reference = mine(&e.data, &config(&e, sup, filtered));
            let ref_rules = generate_rules(&reference, e.data.len(), 0.7);
            assert!(
                reference.num_frequent_min2() > 0,
                "workload should mine something (filtered={filtered})"
            );

            for strategy in STRATEGIES {
                for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
                    let got = mine(
                        &e.data,
                        &config(&e, sup, filtered).with_counting(strategy).with_threads(threads),
                    );
                    assert_eq!(
                        got.levels,
                        reference.levels,
                        "{} at {threads:?} filtered={filtered}",
                        strategy.name()
                    );
                    let rules = generate_rules(&got, e.data.len(), 0.7);
                    assert_eq!(rules, ref_rules, "{} rules differ", strategy.name());
                }
            }

            // Eclat applies the same combined filter to its own traversal.
            let filter = if filtered {
                e.dependencies.clone().union(&e.same_type)
            } else {
                PairFilter::none()
            };
            for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
                let ecl = mine_eclat(
                    &e.data,
                    &EclatConfig::new(geopattern_mining::MinSupport::Fraction(sup))
                        .with_filter(filter.clone())
                        .with_threads(threads),
                );
                assert_eq!(sets(&ecl), sets(&reference), "eclat at {threads:?}");
            }
        }
    }
}

/// A pre-cancelled token interrupts the vertical engines before any
/// output is produced, exactly like the horizontal ones.
#[test]
fn vertical_strategies_honour_cancellation() {
    wide_host();
    let e = experiment1(32);
    let token = CancelToken::new();
    token.cancel();
    for strategy in [
        CountingStrategy::VerticalBitmap,
        CountingStrategy::Diffset,
        CountingStrategy::Hybrid,
        CountingStrategy::Auto,
    ] {
        let got = try_mine(
            &e.data,
            &config(&e, 0.10, true)
                .with_counting(strategy)
                .with_threads(Threads::Fixed(8))
                .with_cancel(token.clone()),
        );
        assert!(
            matches!(got, Err(Interrupt::Cancelled)),
            "{} should cancel, got {got:?}",
            strategy.name()
        );
    }
}

/// Memory budgets are *tracked* by the vertical engines (feeding the
/// peak watermark) but never alter their output: a one-byte budget still
/// mines the exact reference result.
#[test]
fn vertical_strategies_identical_under_tight_budget() {
    wide_host();
    let e = experiment2(32);
    let reference = mine(&e.data, &config(&e, 0.08, true));
    for strategy in VERTICAL_STRATEGIES {
        for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(1)] {
            let got = try_mine(
                &e.data,
                &config(&e, 0.08, true)
                    .with_counting(strategy)
                    .with_threads(Threads::Fixed(8))
                    .with_budget(budget),
            )
            .expect("vertical strategies never degrade under budget");
            assert_eq!(got.levels, reference.levels, "{}", strategy.name());
        }
    }
    // Auto under a one-byte budget resolves to a horizontal strategy
    // (no headroom for the vertical footprint) — and still must be
    // bit-identical to the reference.
    let got = try_mine(
        &e.data,
        &config(&e, 0.08, true)
            .with_counting(CountingStrategy::Auto)
            .with_threads(Threads::Fixed(8))
            .with_budget(MemoryBudget::bytes(1)),
    )
    .expect("auto never degrades under budget");
    assert_eq!(got.levels, reference.levels, "auto under 1-byte budget");
}

/// Instrumented runs expose the new vertical-engine metrics, and the
/// C₂-filter counter agrees with the stats the result itself reports.
/// Hybrid lives in both representations, so it reports both counters.
#[test]
fn vertical_metrics_are_recorded() {
    wide_host();
    let e = experiment1(32);
    for (strategy, metric) in [
        (CountingStrategy::VerticalBitmap, "mining/bitmap_words"),
        (CountingStrategy::Diffset, "mining/diffset_bytes"),
        (CountingStrategy::Hybrid, "mining/bitmap_words"),
    ] {
        let recorder = Recorder::new();
        let got = mine(
            &e.data,
            &config(&e, 0.10, true).with_counting(strategy).with_recorder(recorder.clone()),
        );
        let metrics = recorder.snapshot();
        let recorded = metrics.counter(metric);
        assert!(recorded.is_some_and(|v| v > 0), "{metric} missing or zero: {recorded:?}");
        if strategy == CountingStrategy::Hybrid {
            assert!(
                metrics.counter("mining/diffset_bytes").is_some(),
                "hybrid must also report its flip-level diffset bytes"
            );
        }
        let filtered = metrics.counter("mining/c2_pairs_filtered").unwrap_or(0);
        assert_eq!(
            filtered,
            (got.stats.pairs_removed_dependencies + got.stats.pairs_removed_same_type) as u64,
            "{}",
            strategy.name()
        );
    }
}

/// An instrumented `auto` run records its resolved decision and the
/// stats it was based on, and the decision code matches the named
/// counter.
#[test]
fn auto_records_choice_and_stats() {
    wide_host();
    let e = experiment1(32);
    let recorder = Recorder::new();
    let auto = mine(
        &e.data,
        &config(&e, 0.10, true)
            .with_counting(CountingStrategy::Auto)
            .with_recorder(recorder.clone()),
    );
    let reference = mine(&e.data, &config(&e, 0.10, true));
    assert_eq!(auto.levels, reference.levels, "auto output diverges");
    let metrics = recorder.snapshot();
    let code = metrics.counter("mining/auto_choice").expect("decision recorded");
    assert!(code > 0, "auto must resolve to a fixed strategy");
    // The named counter mirrors the numeric code.
    let named: Vec<&str> = metrics
        .counters_with_prefix("mining/auto_choice/")
        .map(|(name, _)| &name["mining/auto_choice/".len()..])
        .collect();
    assert_eq!(named.len(), 1, "exactly one choice: {named:?}");
    let resolved = CountingStrategy::parse(named[0]).expect("recorded name parses");
    assert_eq!(resolved.code(), code);
    for stat in ["mining/auto_stats_transactions", "mining/auto_stats_items"] {
        assert!(metrics.counter(stat).is_some_and(|v| v > 0), "{stat} missing");
    }
}

/// `choose` is a pure function of its stats: the same input yields the
/// same decision, regardless of environment (thread overrides, any env
/// var a policy might be tempted to read).
#[test]
fn choose_is_a_pure_function_of_its_stats() {
    let samples = [
        WorkloadStats { transactions: 0, items: 5, total_entries: 0, budget_headroom: None },
        WorkloadStats { transactions: 100, items: 8, total_entries: 420, budget_headroom: None },
        WorkloadStats {
            transactions: 60_000,
            items: 17,
            total_entries: 340_000,
            budget_headroom: None,
        },
        WorkloadStats {
            transactions: 60_000,
            items: 500,
            total_entries: 50_000,
            budget_headroom: None,
        },
        WorkloadStats {
            transactions: 60_000,
            items: 17,
            total_entries: 340_000,
            budget_headroom: Some(1),
        },
    ];
    let before: Vec<_> = samples.iter().map(|&s| choose(s)).collect();
    // Perturb the environment the way CI and the pool might. (The host
    // width stays at the file-wide "8" — tests in this binary run
    // concurrently and must agree on its value.)
    wide_host();
    std::env::set_var("GEOPATTERN_THREADS", "7");
    let after: Vec<_> = samples.iter().map(|&s| choose(s)).collect();
    std::env::remove_var("GEOPATTERN_THREADS");
    assert_eq!(before, after, "choose() must not read the environment");
    // And it never returns Auto itself.
    for (strategy, _) in before {
        assert_ne!(strategy, CountingStrategy::Auto);
    }
}
