//! End-to-end robustness guarantees: cancellation, deadlines and an
//! exhausted memory budget surface as typed errors (never as truncated
//! output), and attaching any of the controls to a run that completes
//! normally changes nothing — at any thread count.

use geopattern::{
    Algorithm, CancelToken, Error, MemoryBudget, MiningPipeline, MinSupport, PatternReport,
    Recorder, Threads,
};
use geopattern_datagen::{experiments, generate_city, CityConfig};
use std::time::Duration;

fn sets(r: &PatternReport) -> Vec<(Vec<geopattern::ItemId>, u64)> {
    let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
    v.sort();
    v
}

fn experiment_pipeline(algorithm: Algorithm) -> MiningPipeline {
    MiningPipeline::new().algorithm(algorithm).min_support(MinSupport::Fraction(0.15))
}

fn run_experiment(pipeline: MiningPipeline) -> Result<PatternReport, Error> {
    let e = experiments::experiment1(32);
    pipeline.run_filtered(e.data, e.dependencies, e.same_type)
}

#[test]
fn expired_deadline_fails_with_deadline_exceeded() {
    let dataset = generate_city(&CityConfig { grid: 4, seed: 9, ..Default::default() });
    let err = MiningPipeline::new()
        .min_support(MinSupport::Fraction(0.3))
        .cancel_token(CancelToken::with_timeout(Duration::ZERO))
        .run(&dataset)
        .unwrap_err();
    assert_eq!(err, Error::DeadlineExceeded);
    assert_eq!(err.exit_code(), 4);
}

#[test]
fn pre_cancelled_token_fails_every_stage_entry_point() {
    let dataset = generate_city(&CityConfig { grid: 4, seed: 9, ..Default::default() });
    let cancel = CancelToken::new();
    cancel.cancel();
    let pipeline = MiningPipeline::new()
        .min_support(MinSupport::Fraction(0.3))
        .cancel_token(cancel);
    // Full run.
    assert_eq!(pipeline.run(&dataset).unwrap_err(), Error::Cancelled);
    // Staged: extraction is the first to notice.
    assert_eq!(pipeline.extract(&dataset).unwrap_err(), Error::Cancelled);
}

/// An exhausted budget never yields truncated output: FP-Growth, the
/// miner that refuses work over budget, fails with the typed error (exit
/// code 7). (The Apriori variants only track a budget; the pipeline and
/// strategy-equivalence suites pin their unchanged output under one.)
#[test]
fn exhausted_budget_is_a_typed_error_never_truncated_output() {
    for algorithm in [Algorithm::FpGrowth, Algorithm::FpGrowthKcPlus] {
        let err =
            run_experiment(experiment_pipeline(algorithm).memory_budget(MemoryBudget::bytes(0)))
                .unwrap_err();
        let Error::BudgetExceeded { stage, limit, .. } = &err else {
            panic!("{}: expected BudgetExceeded, got {err:?}", algorithm.name());
        };
        assert_eq!((stage.as_str(), *limit), ("mining/fpgrowth.grow", 0), "{}", algorithm.name());
        assert_eq!(err.exit_code(), 7);
    }
}

#[test]
fn generous_budget_changes_nothing_and_records_peak() {
    let recorder = Recorder::new();
    let generous = run_experiment(
        experiment_pipeline(Algorithm::FpGrowthKcPlus)
            .memory_budget(MemoryBudget::bytes(1 << 30))
            .recorder(recorder.clone()),
    )
    .unwrap();
    let plain = run_experiment(experiment_pipeline(Algorithm::FpGrowthKcPlus)).unwrap();
    assert_eq!(sets(&generous), sets(&plain));
    // The budget's high-water mark is reported when a budget is set.
    let peak = recorder.snapshot();
    assert!(
        peak.histogram("robust/budget_bytes_peak").is_some(),
        "missing peak: {}",
        peak.to_json()
    );
}

#[test]
fn controlled_runs_are_bit_identical_across_thread_counts() {
    let dataset = generate_city(&CityConfig { grid: 5, seed: 17, ..Default::default() });
    let run = |threads: Threads| {
        let recorder = Recorder::new();
        let report = MiningPipeline::new()
            .min_support(MinSupport::Fraction(0.25))
            .threads(threads)
            .cancel_token(CancelToken::new())
            .memory_budget(MemoryBudget::bytes(1 << 30))
            .recorder(recorder.clone())
            .run(&dataset)
            .unwrap();
        let metrics = recorder.snapshot();
        let counters: Vec<(String, u64)> =
            metrics.counters().map(|(name, value)| (name.to_string(), value)).collect();
        (sets(&report), report.rendered_rules(), counters)
    };
    let (serial_sets, serial_rules, serial_counters) = run(Threads::Serial);
    for n in [2usize, 8] {
        let (s, r, c) = run(Threads::Fixed(n));
        assert_eq!(s, serial_sets, "{n} threads");
        assert_eq!(r, serial_rules, "{n} threads");
        assert_eq!(c, serial_counters, "{n} threads: counters must be invariant");
    }
}

#[test]
fn worker_panic_leaves_the_process_reusable() {
    // A panic injected into a parallel counting closure is isolated; the
    // next run on the same process (and a fresh pool) succeeds. Uses its
    // own fail point arm/disarm, serialised with the fault_injection
    // tests only by virtue of running in a different test binary.
    use geopattern_testkit::failpoint::{self, FailAction};
    failpoint::activate("mining/apriori.count", FailAction::Panic, 1.0, 42);
    let err = run_experiment(
        experiment_pipeline(Algorithm::Apriori)
            .threads(Threads::Fixed(8))
            .cancel_token(CancelToken::new()),
    )
    .unwrap_err();
    failpoint::deactivate_all();
    match err {
        Error::WorkerPanic { stage, .. } => assert_eq!(stage, "mining/apriori.count"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // Same workload, same thread count, no fail point: clean result.
    run_experiment(
        experiment_pipeline(Algorithm::Apriori)
            .threads(Threads::Fixed(8))
            .cancel_token(CancelToken::new()),
    )
    .expect("pool must be reusable after an isolated panic");
}
