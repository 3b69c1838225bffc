//! Counting-strategy equivalence on the paper's experiment datasets and
//! on sparse many-item baskets.
//!
//! Every support-counting backend — `hash-subset` (the reference), the
//! vertical `bitmap` engine, and the default, workload-sampled `auto`
//! selector — must produce bit-identical frequent itemsets, supports, and
//! association rules at 1/2/8 threads, with and without KC+ filtering,
//! on both sides of the bitmap engine's pass-2 rule: the Figure-5
//! (Experiment 1) and Figure-7 (Experiment 2) datasets count pairs by
//! joins, the sparse baskets by the row scan. The vertical engine must
//! honour cancellation and memory-budget tracking without changing
//! output. The `auto` policy itself must be a pure function of its
//! sampled stats, and the budget peak it leaves behind must not depend on
//! the thread count.
//!
//! The CI host may be single-core, which would clamp every "parallel"
//! run to the serial path; the tests widen the reported host via
//! `GEOPATTERN_HOST_PARALLELISM` so the pool genuinely runs.

use geopattern_datagen::experiments::{experiment1, experiment2, sparse_baskets, Experiment};
use geopattern_mining::{
    choose, generate_rules, mine, try_mine, AprioriConfig, CountingStrategy, WorkloadStats,
};
use geopattern::Recorder;
use geopattern_par::{CancelToken, Interrupt, MemoryBudget, Threads};

/// Every test sets the same widened host width, so concurrent setters
/// never race on distinct values.
fn wide_host() {
    std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "8");
}

const STRATEGIES: [CountingStrategy; 3] =
    [CountingStrategy::HashSubset, CountingStrategy::VerticalBitmap, CountingStrategy::Auto];

fn config(e: &Experiment, sup: f64, filtered: bool) -> AprioriConfig {
    let minsup = geopattern_mining::MinSupport::Fraction(sup);
    if filtered {
        AprioriConfig::apriori_kc_plus(minsup, e.dependencies.clone(), e.same_type.clone())
    } else {
        AprioriConfig::apriori(minsup)
    }
}

/// Sparse baskets: many items in short rows, so the bitmap engine counts
/// pass 2 by the row scan (the Figure-5 and Figure-7 data, few items in
/// long rows, count it by pair joins).
fn sparse() -> Experiment {
    sparse_baskets(2_000, 200, 6, 5)
}

/// The bitmap engine's recorded pass-2 method.
fn pass2_pick(recorder: &Recorder) -> Vec<String> {
    recorder
        .snapshot()
        .counters_with_prefix("mining/pass2/")
        .map(|(name, value)| {
            assert_eq!(value, 1, "{name}");
            name["mining/pass2/".len()..].to_string()
        })
        .collect()
}

/// Itemsets, supports, and rules must be identical across every
/// strategy, thread count, and filter setting, level for level and in
/// the same order, and the bitmap engine must count pass 2 by `pick`.
/// Serial hash-subset is the reference: the default config is `auto`,
/// which would compare with itself.
fn assert_all_strategies_identical(e: &Experiment, sup: f64, pick: &str) {
    wide_host();
    for filtered in [false, true] {
        let reference =
            mine(&e.data, &config(e, sup, filtered).with_counting(CountingStrategy::HashSubset));
        let ref_rules = generate_rules(&reference, e.data.len(), 0.7);
        assert!(
            reference.num_frequent_min2() > 0,
            "workload should mine something (filtered={filtered})"
        );

        for strategy in STRATEGIES {
            for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
                let recorder = Recorder::new();
                let got = mine(
                    &e.data,
                    &config(e, sup, filtered)
                        .with_counting(strategy)
                        .with_threads(threads)
                        .with_recorder(recorder.clone()),
                );
                let ctx = format!("{} at {threads:?} filtered={filtered}", strategy.name());
                assert_eq!(got.levels, reference.levels, "{ctx}");
                assert_eq!(
                    got.stats.candidates_per_level[..2],
                    reference.stats.candidates_per_level[..2],
                    "{ctx}: |C1| and the post-filter |C2|"
                );
                let rules = generate_rules(&got, e.data.len(), 0.7);
                assert_eq!(rules, ref_rules, "{} rules differ", strategy.name());
                let want: &[&str] =
                    if strategy == CountingStrategy::HashSubset { &[] } else { &[pick] };
                assert_eq!(pass2_pick(&recorder), want, "{ctx}");
            }
        }
    }
}

#[test]
fn all_strategies_identical_on_fig5_and_fig7() {
    assert_all_strategies_identical(&experiment1(32), 0.10, "joins");
    assert_all_strategies_identical(&experiment2(32), 0.08, "joins");
}

#[test]
fn all_strategies_identical_on_sparse_baskets() {
    assert_all_strategies_identical(&sparse(), 0.01, "scan");
}

/// A pre-cancelled token interrupts the vertical engines before any
/// output is produced, exactly like the horizontal ones.
#[test]
fn vertical_strategies_honour_cancellation() {
    wide_host();
    let e = experiment1(32);
    let token = CancelToken::new();
    token.cancel();
    for strategy in [CountingStrategy::VerticalBitmap, CountingStrategy::Auto] {
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

/// Memory budgets are *tracked* by the vertical engine (feeding the
/// peak watermark) but never alter its output: a one-byte budget still
/// mines the exact reference result.
#[test]
fn vertical_strategies_identical_under_tight_budget() {
    wide_host();
    let e = experiment2(32);
    let reference =
        mine(&e.data, &config(&e, 0.08, true).with_counting(CountingStrategy::HashSubset));
    for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(1)] {
        let got = try_mine(
            &e.data,
            &config(&e, 0.08, true)
                .with_counting(CountingStrategy::VerticalBitmap)
                .with_threads(Threads::Fixed(8))
                .with_budget(budget),
        )
        .expect("the vertical engine never degrades under budget");
        assert_eq!(got.levels, reference.levels);
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

/// Instrumented runs expose the vertical-engine metrics, and the
/// C₂-filter counter agrees with the stats the result itself reports.
#[test]
fn vertical_metrics_are_recorded() {
    wide_host();
    let e = experiment1(32);
    for strategy in [CountingStrategy::VerticalBitmap, CountingStrategy::Auto] {
        let recorder = Recorder::new();
        let got = mine(
            &e.data,
            &config(&e, 0.10, true).with_counting(strategy).with_recorder(recorder.clone()),
        );
        let metrics = recorder.snapshot();
        let recorded = metrics.counter("mining/bitmap_words");
        assert!(recorded.is_some_and(|v| v > 0), "bitmap_words missing or zero: {recorded:?}");
        let filtered = metrics.counter("mining/c2_pairs_filtered").unwrap_or(0);
        assert_eq!(
            filtered,
            (got.stats.pairs_removed_dependencies + got.stats.pairs_removed_same_type) as u64,
            "{}",
            strategy.name()
        );
    }
}

/// An instrumented default run records its resolved decision and the
/// stats it was based on, and the decision code matches the named
/// counter. Both paper datasets go to the bitmap engine.
#[test]
fn auto_records_choice_and_stats() {
    wide_host();
    for (e, sup) in [(experiment1(32), 0.10), (experiment2(32), 0.08)] {
        let recorder = Recorder::new();
        let auto = mine(&e.data, &config(&e, sup, true).with_recorder(recorder.clone()));
        let reference =
            mine(&e.data, &config(&e, sup, true).with_counting(CountingStrategy::HashSubset));
        assert_eq!(auto.levels, reference.levels, "auto output diverges");
        let metrics = recorder.snapshot();
        let code = metrics.counter("mining/auto_choice").expect("decision recorded");
        // The named counter mirrors the numeric code.
        let named: Vec<&str> = metrics
            .counters_with_prefix("mining/auto_choice/")
            .map(|(name, _)| &name["mining/auto_choice/".len()..])
            .collect();
        assert_eq!(named, ["bitmap"], "exactly one choice");
        assert_eq!(code, CountingStrategy::VerticalBitmap.code());
        for stat in ["mining/auto_stats_transactions", "mining/auto_stats_items"] {
            assert!(metrics.counter(stat).is_some_and(|v| v > 0), "{stat} missing");
        }
    }
}

/// Under a limited budget the default path records the same
/// `robust/budget_bytes_peak` at every thread count, by either pass-2
/// method: pool workers never reserve on the shared budget, so the peak
/// cannot depend on how candidates or classes were scheduled.
#[test]
fn budget_peak_is_independent_of_thread_count() {
    wide_host();
    // Experiment 1 at 5% counts pass 2 by joins; the baskets, sparse at
    // 1%, by the row scan.
    for (e, sup, pick) in [(experiment1(32), 0.05, "joins"), (sparse(), 0.01, "scan")] {
        let peak_at = |threads: Threads| {
            let recorder = Recorder::new();
            let got = try_mine(
                &e.data,
                &config(&e, sup, true)
                    .with_threads(threads)
                    .with_budget(MemoryBudget::bytes(1 << 30))
                    .with_recorder(recorder.clone()),
            )
            .expect("an uncancelled run completes");
            assert_eq!(pass2_pick(&recorder), [pick], "{threads:?}");
            let metrics = recorder.snapshot();
            assert_eq!(metrics.counter("mining/auto_choice/bitmap"), Some(1), "{threads:?}");
            let peak = metrics.histogram("robust/budget_bytes_peak").cloned();
            (got.levels, peak.expect("a limited budget records its peak"))
        };
        let (serial_levels, serial_peak) = peak_at(Threads::Fixed(1));
        assert!(serial_peak.max > 0);
        for threads in [Threads::Fixed(2), Threads::Fixed(8)] {
            for _ in 0..3 {
                let (levels, peak) = peak_at(threads);
                assert_eq!(levels, serial_levels, "{pick}: {threads:?}");
                assert_eq!(peak, serial_peak, "{pick}: {threads:?}");
            }
        }
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
