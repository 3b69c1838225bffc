//! Kill-and-resume property suite: a journaled run is interrupted at a
//! fail-point site, resumed from the journal, and the resumed output must
//! be **bit-identical** to an uninterrupted control run — itemsets,
//! supports, and rules — at every thread count. A second family of tests
//! fuzzes the journal file itself (truncation, bit flips, garbage tails)
//! and checks that `Journal::open` recovers a valid prefix and the rerun
//! still matches the control, never panicking.
//!
//! The fail-point registry is process-global, so every test serialises on
//! one mutex and cleans the registry up before and after itself (same
//! idiom as `fault_injection.rs`).

use geopattern::{
    Algorithm, CancelToken, Error, ExtractionConfig, JobRunner, Journal, MemoryBudget,
    MiningPipeline, MinSupport, PatternReport, Recorder, Threads, Tiling,
};
use geopattern_datagen::{experiments, generate_city, CityConfig};
use geopattern_testkit::failpoint::{self, FailAction};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serialises all tests in this file: the registry is process-global.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::deactivate_all();
    guard
}

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("gp-crash-resume-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const FINGERPRINT: u64 = 0x9e3779b97f4a7c15;

/// The full mined signature of a run: sorted (items, support) pairs plus
/// the rendered rules. Two runs with equal signatures are bit-identical
/// for every output the CLI prints.
fn signature(report: &PatternReport) -> (Vec<(Vec<u32>, u64)>, Vec<String>) {
    let mut sets: Vec<(Vec<u32>, u64)> =
        report.result.all().map(|f| (f.items.clone(), f.support)).collect();
    sets.sort();
    let mut rules = report.rendered_rules();
    rules.sort();
    (sets, rules)
}

/// A transaction-level pipeline over the Experiment 1 workload.
fn experiment_pipeline(algorithm: Algorithm, threads: Threads) -> MiningPipeline {
    MiningPipeline::new()
        .algorithm(algorithm)
        .min_support(MinSupport::Fraction(0.15))
        .threads(threads)
}

fn run_experiment(pipeline: MiningPipeline) -> Result<PatternReport, Error> {
    let e = experiments::experiment1(32);
    pipeline.run_filtered(e.data, e.dependencies, e.same_type)
}

/// Interrupts a journaled run of `algorithm` at `site`, then resumes at
/// each thread count and checks the output against an uninterrupted
/// control. `probability < 1` lets some units complete (and journal)
/// before the injected cancel lands.
fn crash_then_resume_matches_control(
    tag: &str,
    algorithm: Algorithm,
    site: &str,
    probability: f64,
    seed: u64,
    skip_counter: &str,
) {
    let scratch = Scratch::new(tag);
    let journal_path = scratch.path("run.journal");
    let control = signature(&run_experiment(experiment_pipeline(algorithm, Threads::Serial))
        .expect("control run"));

    // Crash: the injected fault must surface as a clean typed error.
    let journal = Journal::create(&journal_path, FINGERPRINT).unwrap();
    failpoint::activate(site, FailAction::Cancel, probability, seed);
    let crashed = run_experiment(
        experiment_pipeline(algorithm, Threads::Serial)
            .cancel_token(CancelToken::new())
            .journal(journal.clone()),
    );
    failpoint::deactivate_all();
    assert_eq!(crashed.unwrap_err(), Error::Cancelled, "{tag}: crash phase");
    let journaled_units = journal.len();

    // Resume at several thread counts; every one must match the control.
    for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
        let journal = Journal::open(&journal_path, FINGERPRINT).unwrap();
        let recorder = Recorder::new();
        let resumed = run_experiment(
            experiment_pipeline(algorithm, threads)
                .recorder(recorder.clone())
                .journal(journal),
        )
        .unwrap_or_else(|e| panic!("{tag}: resume at {threads:?} failed: {e}"));
        assert_eq!(signature(&resumed), control, "{tag}: resume at {threads:?}");
        // The level miners always recompute L1 (it validates the journal
        // prefix), so a skip is only guaranteed once MORE than one unit
        // was persisted. The seeds above are chosen so the crash lands
        // mid-run, making this branch the common case.
        if journaled_units > 1 {
            let skipped = recorder.snapshot().counter(skip_counter).unwrap_or(0);
            assert!(skipped >= 1, "{tag}: {skip_counter} = {skipped} at {threads:?}");
        }
    }
}

#[test]
fn apriori_levels_resume_bit_identically_after_crash() {
    let _g = locked();
    crash_then_resume_matches_control(
        "apriori",
        Algorithm::AprioriKcPlus,
        "mining/apriori.pass",
        0.5,
        11,
        "robust/resume_levels_skipped",
    );
}

#[test]
fn fpgrowth_branches_resume_bit_identically_after_crash() {
    let _g = locked();
    crash_then_resume_matches_control(
        "fpgrowth",
        Algorithm::FpGrowthKcPlus,
        "mining/fpgrowth.grow",
        0.4,
        3,
        "robust/resume_branches_skipped",
    );
}

/// A budget FP-Growth cannot fit fails the run with a typed error, never
/// truncated output, and keeps the branches it journaled before the
/// refusal: a rerun with a larger budget resumes from them and matches an
/// uninterrupted control at every thread count.
#[test]
fn fpgrowth_budget_refusal_resumes_with_a_larger_budget() {
    let _g = locked();
    let scratch = Scratch::new("budget");
    let journal_path = scratch.path("run.journal");
    let pipeline = || experiment_pipeline(Algorithm::FpGrowthKcPlus, Threads::Serial);
    let control = signature(&run_experiment(pipeline()).expect("control run"));

    // The smallest power-of-two budget that is refused only after at
    // least one top-level branch was journaled.
    let refused = (0..40).map(|shift| 1usize << shift).find(|&bytes| {
        let journal = Journal::create(&journal_path, FINGERPRINT).unwrap();
        let run = run_experiment(
            pipeline().memory_budget(MemoryBudget::bytes(bytes)).journal(journal.clone()),
        );
        match run {
            Err(Error::BudgetExceeded { stage, requested, limit }) => {
                assert_eq!(stage, "mining/fpgrowth.grow");
                assert_eq!(limit, bytes);
                assert!(requested > 0);
                !journal.is_empty()
            }
            Err(other) => panic!("budget {bytes}: expected BudgetExceeded, got {other:?}"),
            Ok(_) => panic!("budget {bytes} fits before any branch was journaled"),
        }
    });
    let bytes = refused.expect("some budget is refused after a journaled branch");

    for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
        let journal = Journal::open(&journal_path, FINGERPRINT).unwrap();
        let recorder = Recorder::new();
        let resumed = run_experiment(
            experiment_pipeline(Algorithm::FpGrowthKcPlus, threads)
                .memory_budget(MemoryBudget::bytes(bytes.saturating_mul(1 << 20)))
                .recorder(recorder.clone())
                .journal(journal),
        )
        .unwrap_or_else(|e| panic!("resume at {threads:?} failed: {e}"));
        assert_eq!(signature(&resumed), control, "resume at {threads:?}");
        let skipped = recorder.snapshot().counter("robust/resume_branches_skipped").unwrap_or(0);
        assert!(skipped >= 1, "resume_branches_skipped = {skipped} at {threads:?}");
    }
}

/// Crashes a journaled city pipeline in mining, after extraction
/// journaled all its tiles, then resumes at 1/2/8 threads: the output
/// must match an uninterrupted control and every one of the `tiles`
/// tiles must be served from the journal.
fn extraction_resumes_from_every_journaled_tile(tag: &str, extraction: ExtractionConfig, tiles: u64) {
    let scratch = Scratch::new(tag);
    let journal_path = scratch.path("run.journal");
    let dataset = generate_city(&CityConfig { grid: 4, seed: 9, ..Default::default() });
    let pipeline = || {
        MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(0.3))
            .extraction(extraction.clone())
    };
    let control = signature(&pipeline().run(&dataset).expect("control run"));

    // Crash in mining, AFTER extraction journaled all its tiles.
    let journal = Journal::create(&journal_path, FINGERPRINT).unwrap();
    failpoint::activate("mining/apriori.pass", FailAction::Cancel, 1.0, 7);
    let crashed = pipeline()
        .cancel_token(CancelToken::new())
        .journal(journal.clone())
        .run(&dataset);
    failpoint::deactivate_all();
    assert_eq!(crashed.unwrap_err(), Error::Cancelled, "{tag}");
    assert_eq!(journal.records("extract/tile").len() as u64, tiles, "{tag}");

    for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
        let journal = Journal::open(&journal_path, FINGERPRINT).unwrap();
        let recorder = Recorder::new();
        let resumed = pipeline()
            .threads(threads)
            .recorder(recorder.clone())
            .journal(journal)
            .run(&dataset)
            .unwrap_or_else(|e| panic!("{tag}: resume at {threads:?} failed: {e}"));
        assert_eq!(signature(&resumed), control, "{tag}: resume at {threads:?}");
        let skipped = recorder.snapshot().counter("robust/resume_tiles_skipped").unwrap_or(0);
        assert_eq!(skipped, tiles, "{tag}: resume at {threads:?}");
    }
}

#[test]
fn tiled_extraction_resumes_and_skips_every_journaled_tile() {
    let _g = locked();
    let tiled = ExtractionConfig::default().with_tiling(Tiling::Grid { tiles_per_axis: 3 });
    extraction_resumes_from_every_journaled_tile("tiles", tiled, 9);
}

#[test]
fn default_extraction_resumes_from_its_one_journaled_tile() {
    // No tiling asked for: the default single tile is still journaled.
    let _g = locked();
    extraction_resumes_from_every_journaled_tile("one-tile", ExtractionConfig::default(), 1);
}

#[test]
fn job_runner_retries_worker_panics_and_resumes_from_the_shared_journal() {
    let _g = locked();
    let scratch = Scratch::new("retry");
    let journal_path = scratch.path("run.journal");
    let control = signature(
        &run_experiment(experiment_pipeline(Algorithm::Apriori, Threads::Fixed(4)))
            .expect("control run"),
    );

    // Panics land inside the counting pool (isolated as WorkerPanic).
    // One journal is shared across attempts, so each retry resumes from
    // the levels the failed attempts persisted — guaranteed progress.
    failpoint::activate("mining/apriori.count", FailAction::Panic, 0.5, 42);
    let journal = Journal::create(&journal_path, FINGERPRINT).unwrap();
    let recorder = Recorder::new();
    let runner = JobRunner::new(20)
        .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO)
        .with_recorder(recorder.clone());
    let got = runner.run(|_attempt| {
        run_experiment(
            experiment_pipeline(Algorithm::Apriori, Threads::Fixed(4))
                .cancel_token(CancelToken::new())
                .journal(journal.clone()),
        )
    });
    failpoint::deactivate_all();
    let report = got.expect("retrying runner recovers");
    assert_eq!(signature(&report), control);
    let retries = recorder.snapshot().counter("robust/retries").unwrap_or(0);
    assert!(retries >= 1, "the fail point never forced a retry");
}

#[test]
fn corrupted_journals_recover_a_valid_prefix_and_never_panic() {
    let _g = locked();
    let scratch = Scratch::new("fuzz");
    let journal_path = scratch.path("run.journal");

    // A complete journaled run seeds the file under test.
    let journal = Journal::create(&journal_path, FINGERPRINT).unwrap();
    let control = signature(
        &run_experiment(
            experiment_pipeline(Algorithm::AprioriKcPlus, Threads::Serial).journal(journal),
        )
        .expect("seeding run"),
    );
    let pristine = std::fs::read(&journal_path).unwrap();
    assert!(pristine.len() > 16, "journal unexpectedly empty");

    let rerun_matches = |ctx: &str| {
        let journal = Journal::open(&journal_path, FINGERPRINT)
            .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
        let report = run_experiment(
            experiment_pipeline(Algorithm::AprioriKcPlus, Threads::Serial).journal(journal),
        )
        .unwrap_or_else(|e| panic!("{ctx}: rerun failed: {e}"));
        assert_eq!(signature(&report), control, "{ctx}");
    };

    // Truncations at every byte boundary down to the bare header: the
    // journal must reopen (dropping the torn tail) and the rerun must
    // recompute whatever was lost, bit-identically.
    for keep in (16..pristine.len()).rev().step_by(7) {
        std::fs::write(&journal_path, &pristine[..keep]).unwrap();
        rerun_matches(&format!("truncate to {keep} bytes"));
    }

    // Bit flips in the record region: the checksum must reject the
    // damaged frame and everything after it, never panicking.
    for (offset, bit) in [(17, 0), (24, 3), (pristine.len() / 2, 7), (pristine.len() - 1, 1)] {
        let mut fuzzed = pristine.clone();
        fuzzed[offset] ^= 1 << bit;
        std::fs::write(&journal_path, &fuzzed).unwrap();
        rerun_matches(&format!("flip bit {bit} at byte {offset}"));
    }

    // A garbage tail appended past the last valid frame is dropped.
    let mut garbage = pristine.clone();
    garbage.extend_from_slice(b"\xde\xad\xbe\xef not a frame");
    std::fs::write(&journal_path, &garbage).unwrap();
    rerun_matches("garbage tail");

    // Header damage is NOT recoverable — it must be a clean typed error.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xff;
    std::fs::write(&journal_path, &bad_magic).unwrap();
    let err = Journal::open(&journal_path, FINGERPRINT).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "bad magic");

    std::fs::write(&journal_path, &pristine).unwrap();
    let err = Journal::open(&journal_path, FINGERPRINT ^ 1).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "fingerprint mismatch");
}
