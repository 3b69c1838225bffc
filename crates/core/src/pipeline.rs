//! The end-to-end mining pipeline.
//!
//! [`MiningPipeline`] wires the full system together: geometric dataset →
//! qualitative predicate extraction → transaction encoding → (filtered)
//! frequent-itemset mining → association rules.
//!
//! The pipeline is staged: [`MiningPipeline::extract`] turns geometry into
//! an [`ExtractedTable`], [`MiningPipeline::encode`] dictionary-encodes it
//! into [`EncodedTransactions`] (building the `C₂` filters), and
//! [`MiningPipeline::mine`] runs the configured algorithm and rule
//! generation. [`MiningPipeline::run`] is the composition of the three.
//! Each stage validates its inputs and returns [`Result`]; inputs can also
//! enter mid-pipeline via [`MiningPipeline::run_transactions`] /
//! [`MiningPipeline::run_filtered`].
//!
//! Every stage reports timings and counters to the pipeline's
//! [`Recorder`] (disabled by default — see [`MiningPipeline::recorder`]);
//! recording never changes the mined output.

use crate::convert::{dependency_filter, to_transactions};
use crate::error::Error;
use crate::report::PatternReport;
use geopattern_mining::{
    generate_rules, try_mine, try_mine_fp, AprioriConfig, FpGrowthConfig, MinSupport, PairFilter,
    TransactionSet,
};
use geopattern_obs::Recorder;
use geopattern_par::{CancelToken, Journal, MemoryBudget, Threads};
use geopattern_sdb::{
    extract_predicates, ExtractionConfig, ExtractionStats, FeatureTypeTaxonomy, KnowledgeBase,
    PredicateTable, SpatialDataset,
};

/// Which mining algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Plain Apriori (no filtering) — the baseline.
    Apriori,
    /// Apriori-KC: removes well-known dependency pairs (`Φ`).
    AprioriKc,
    /// Apriori-KC+: removes `Φ` plus same-feature-type pairs (the paper's
    /// contribution). The default.
    #[default]
    AprioriKcPlus,
    /// FP-Growth, unfiltered.
    FpGrowth,
    /// FP-Growth with the KC+ filters (demonstrates algorithm-agnosticism).
    FpGrowthKcPlus,
}

impl Algorithm {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Apriori => "Apriori",
            Algorithm::AprioriKc => "Apriori-KC",
            Algorithm::AprioriKcPlus => "Apriori-KC+",
            Algorithm::FpGrowth => "FP-Growth",
            Algorithm::FpGrowthKcPlus => "FP-Growth-KC+",
        }
    }
}

/// Output of the extraction stage: the (possibly generalised) predicate
/// table plus extraction statistics.
#[derive(Debug, Clone)]
pub struct ExtractedTable {
    /// Predicate rows per reference feature, at the configured granularity.
    pub table: PredicateTable,
    /// Pair-pruning and predicate counts from the extraction pass.
    pub stats: ExtractionStats,
}

/// Output of the encoding stage: dictionary-encoded transactions plus the
/// two `C₂` pair filters the KC/KC+ variants consume.
#[derive(Debug, Clone)]
pub struct EncodedTransactions {
    /// The transactions (item ids equal predicate codes).
    pub transactions: TransactionSet,
    /// Well-known dependency pairs `Φ`, expanded against the table.
    pub dependencies: PairFilter,
    /// Same-feature-type pairs (the KC+ filter's target).
    pub same_type: PairFilter,
    /// Extraction statistics, when the input came from geometry.
    pub extraction_stats: Option<ExtractionStats>,
}

/// Builder for a mining run. Construct with [`MiningPipeline::new`], chain
/// setters, then call [`MiningPipeline::run`] on a data source — or drive
/// the stages individually with [`MiningPipeline::extract`],
/// [`MiningPipeline::encode`] and [`MiningPipeline::mine`].
#[derive(Debug, Clone)]
pub struct MiningPipeline {
    algorithm: Algorithm,
    min_support: MinSupport,
    min_confidence: f64,
    extraction: ExtractionConfig,
    knowledge: KnowledgeBase,
    taxonomy: Option<(FeatureTypeTaxonomy, usize)>,
    threads: Threads,
    recorder: Recorder,
    cancel: CancelToken,
    budget: MemoryBudget,
    journal: Option<Journal>,
}

impl Default for MiningPipeline {
    fn default() -> Self {
        MiningPipeline {
            algorithm: Algorithm::default(),
            min_support: MinSupport::Fraction(0.1),
            min_confidence: 0.6,
            extraction: ExtractionConfig::default(),
            knowledge: KnowledgeBase::new(),
            taxonomy: None,
            threads: Threads::Serial,
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
            journal: None,
        }
    }
}

impl MiningPipeline {
    /// A pipeline with the defaults: Apriori-KC+ at 10% support, 60%
    /// confidence, topological extraction, empty `Φ`.
    pub fn new() -> MiningPipeline {
        MiningPipeline::default()
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Sets the minimum support.
    pub fn min_support(mut self, s: MinSupport) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the minimum rule confidence.
    pub fn min_confidence(mut self, c: f64) -> Self {
        self.min_confidence = c;
        self
    }

    /// Sets the predicate-extraction configuration (geometric inputs only).
    pub fn extraction(mut self, e: ExtractionConfig) -> Self {
        self.extraction = e;
        self
    }

    /// Supplies background knowledge `Φ` (used by the KC/KC+ variants).
    pub fn knowledge(mut self, kb: KnowledgeBase) -> Self {
        self.knowledge = kb;
        self
    }

    /// Sets the worker-thread policy for predicate extraction and support
    /// counting. Results are identical for every setting; threads only
    /// change wall-clock. `Threads::Auto` honours `GEOPATTERN_THREADS`.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Mines at a coarser feature-type granularity: extracted predicates
    /// are generalised `levels` steps up the taxonomy before mining
    /// (geometric inputs only).
    pub fn granularity(mut self, taxonomy: FeatureTypeTaxonomy, levels: usize) -> Self {
        self.taxonomy = Some((taxonomy, levels));
        self
    }

    /// Attaches a metric recorder: every stage reports span timings,
    /// counters and histograms to it. Recording never changes the mined
    /// output — instrumented and uninstrumented runs are bit-identical.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a cancellation token (possibly deadline-bearing): every
    /// stage checks it cooperatively and an interrupted run fails with
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`]. Runs that
    /// complete normally are bit-identical to uncontrolled runs.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a memory budget for the mining stage. The Apriori variants
    /// only track it (`auto` picks hash-subset when the vertical lists
    /// would not fit) and mine the same output under any budget.
    /// FP-Growth refuses a conditional tree that does not fit and fails
    /// the run with [`Error::BudgetExceeded`] (exit code 7) — never with
    /// truncated output; branches it journaled before the refusal let a
    /// rerun with a larger budget resume.
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a crash-recovery [`Journal`]: extraction tiles and mining
    /// levels / branches append durable records as they
    /// complete, and a rerun over the same journal *resumes* — journaled
    /// units are served from disk, only the missing tail is recomputed,
    /// and the resumed output is bit-identical to an uninterrupted run at
    /// any thread count. Metrics are NOT bit-identical on resume (skipped
    /// units never re-record their per-pass counters); the
    /// `robust/resume_*_skipped` counters say how much work the journal
    /// saved. The journal must belong to the same configuration and data
    /// (callers enforce this via the journal's fingerprint); mismatched
    /// records are detected and degrade to recomputation.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The [`ExtractionConfig`] the extraction stage actually runs:
    /// the configured predicate selection and tiling policy, with the
    /// control plane — threads, recorder, cancel token, memory budget —
    /// overridden by the pipeline's own settings.
    ///
    /// **Precedence: the pipeline wins.** A control plane set on the
    /// extraction config via [`ExtractionConfig::with_threads`] (or
    /// `with_recorder` / `with_cancel` / `with_budget`) is ignored when
    /// the config is run through a pipeline; historically the two thread
    /// settings disagreed silently, with `with_threads` winning for
    /// extraction only — one pipeline-wide policy is the sane contract,
    /// and it matches every other stage (counting, mining), which always
    /// honoured the pipeline's settings.
    pub fn resolved_extraction(&self) -> ExtractionConfig {
        let mut resolved = self
            .extraction
            .clone()
            .with_threads(self.threads)
            .with_recorder(self.recorder.clone())
            .with_cancel(self.cancel.clone())
            .with_budget(self.budget.clone());
        if let Some(journal) = &self.journal {
            resolved = resolved.with_journal(journal.clone());
        }
        resolved
    }

    /// Validates the thresholds every mining entry point shares.
    fn validate_mining_config(&self) -> Result<(), Error> {
        if !self.min_confidence.is_finite()
            || !(0.0..=1.0).contains(&self.min_confidence)
        {
            return Err(Error::InvalidMinConfidence(self.min_confidence));
        }
        if let MinSupport::Fraction(f) = self.min_support {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(Error::InvalidMinSupport(f));
            }
        }
        Ok(())
    }

    /// Stage 1: qualitative predicate extraction (plus taxonomy
    /// generalisation when [`MiningPipeline::granularity`] is set).
    ///
    /// Fails with [`Error::EmptyReferenceLayer`] when the dataset has no
    /// reference features, and [`Error::TaxonomyTooDeep`] when the
    /// configured granularity exceeds the taxonomy's depth.
    pub fn extract(&self, dataset: &SpatialDataset) -> Result<ExtractedTable, Error> {
        if dataset.reference.is_empty() {
            return Err(Error::EmptyReferenceLayer);
        }
        if let Some((taxonomy, levels)) = &self.taxonomy {
            let max_depth = taxonomy.max_depth();
            if *levels > max_depth {
                return Err(Error::TaxonomyTooDeep { levels: *levels, max_depth });
            }
        }
        let extraction = self.resolved_extraction();
        let (table, stats) =
            extract_predicates(&dataset.reference, &dataset.relevant_refs(), &extraction)?;
        let table = match &self.taxonomy {
            Some((taxonomy, levels)) => {
                let _span = self.recorder.span("generalize");
                let coarse = taxonomy.generalize_table(&table, *levels);
                self.recorder.counter("generalize.levels", *levels as u64);
                self.recorder
                    .counter("generalize.predicates", coarse.num_predicates() as u64);
                coarse
            }
            None => table,
        };
        Ok(ExtractedTable { table, stats })
    }

    /// Stage 2: dictionary-encodes the predicate table into transactions
    /// and builds the `C₂` pair filters (`Φ` from the knowledge base,
    /// same-feature-type from the encoded catalog).
    pub fn encode(&self, extracted: ExtractedTable) -> Result<EncodedTransactions, Error> {
        let _span = self.recorder.span("encode");
        if geopattern_testkit::failpoint::trigger("core/encode") {
            self.cancel.cancel();
        }
        self.cancel.check()?;
        let table = &extracted.table;
        let dependencies = dependency_filter(&self.knowledge, table);
        let transactions = to_transactions(table);
        let same_type = PairFilter::same_feature_type(&transactions.catalog);
        self.recorder.counter("encode.transactions", transactions.len() as u64);
        self.recorder.counter("encode.items", transactions.catalog.len() as u64);
        self.recorder.counter("encode.dependency_pairs", dependencies.len() as u64);
        self.recorder.counter("encode.same_type_pairs", same_type.len() as u64);
        Ok(EncodedTransactions {
            transactions,
            dependencies,
            same_type,
            extraction_stats: Some(extracted.stats),
        })
    }

    /// Stage 3: runs the configured algorithm and rule generation.
    ///
    /// Fails with [`Error::InvalidMinConfidence`] /
    /// [`Error::InvalidMinSupport`] when the thresholds are out of range.
    pub fn mine(&self, encoded: EncodedTransactions) -> Result<PatternReport, Error> {
        self.validate_mining_config()?;
        let EncodedTransactions { transactions, dependencies: deps, same_type: same, extraction_stats } =
            encoded;
        let rec = &self.recorder;
        let cancel = self.cancel.clone();
        let budget = self.budget.clone();
        let mine_span = rec.span("mine");
        // Every variant is one miner with a filter: plain Apriori is
        // Apriori-KC+ with both filters empty, and likewise for FP-Growth.
        let (deps, same) = match self.algorithm {
            Algorithm::Apriori | Algorithm::FpGrowth => (PairFilter::none(), PairFilter::none()),
            Algorithm::AprioriKc => (deps, PairFilter::none()),
            Algorithm::AprioriKcPlus | Algorithm::FpGrowthKcPlus => (deps, same),
        };
        let journal = self.journal.clone();
        let result = match self.algorithm {
            Algorithm::Apriori | Algorithm::AprioriKc | Algorithm::AprioriKcPlus => {
                let config = AprioriConfig::apriori_kc_plus(self.min_support, deps, same)
                    .with_threads(self.threads)
                    .with_recorder(rec.clone())
                    .with_cancel(cancel)
                    .with_budget(budget);
                try_mine(&transactions, &AprioriConfig { journal, ..config })?
            }
            Algorithm::FpGrowth | Algorithm::FpGrowthKcPlus => {
                let config = FpGrowthConfig::new(self.min_support)
                    .with_filter(deps.union(&same))
                    .with_recorder(rec.clone())
                    .with_cancel(cancel)
                    .with_budget(budget);
                try_mine_fp(&transactions, &FpGrowthConfig { journal, ..config })?
            }
        };
        drop(mine_span);
        rec.counter("mine.frequent_itemsets", result.num_frequent() as u64);

        let rules_span = rec.span("rules");
        let rules = generate_rules(&result, transactions.len(), self.min_confidence);
        drop(rules_span);
        rec.counter("rules.generated", rules.len() as u64);

        Ok(PatternReport {
            algorithm: self.algorithm,
            min_support: self.min_support,
            min_confidence: self.min_confidence,
            transactions,
            result,
            rules,
            extraction_stats,
            metrics: rec.snapshot(),
        })
    }

    /// Runs the full pipeline on a geometric dataset: extraction →
    /// encoding → mining.
    pub fn run(&self, dataset: &SpatialDataset) -> Result<PatternReport, Error> {
        // Validate the mining thresholds before paying for extraction.
        self.validate_mining_config()?;
        let extracted = self.extract(dataset)?;
        let encoded = self.encode(extracted)?;
        self.mine(encoded)
    }

    /// Runs mining on an already-encoded transaction set. The
    /// same-feature-type filter is recovered from the catalog's item
    /// metadata; no dependency filter is applied (a `Φ` expansion needs a
    /// predicate table — pass explicit filters with
    /// [`MiningPipeline::run_filtered`] for full control).
    pub fn run_transactions(&self, transactions: TransactionSet) -> Result<PatternReport, Error> {
        let same_type = PairFilter::same_feature_type(&transactions.catalog);
        self.mine(EncodedTransactions {
            transactions,
            dependencies: PairFilter::none(),
            same_type,
            extraction_stats: None,
        })
    }

    /// Runs mining on a transaction set with explicit filters.
    pub fn run_filtered(
        &self,
        transactions: TransactionSet,
        dependencies: PairFilter,
        same_type: PairFilter,
    ) -> Result<PatternReport, Error> {
        self.mine(EncodedTransactions {
            transactions,
            dependencies,
            same_type,
            extraction_stats: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_mining::TransactionSet;

    #[test]
    fn pipeline_control_plane_overrides_extraction_config() {
        use geopattern_geom::{coord, Polygon};
        use geopattern_sdb::{Feature, Layer};

        let dataset = SpatialDataset::new(
            Layer::new(
                "district",
                vec![Feature::new(
                    "d",
                    Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap().into(),
                )],
            ),
            vec![Layer::new(
                "slum",
                vec![Feature::new(
                    "s",
                    Polygon::rect(coord(2.0, 2.0), coord(4.0, 4.0)).unwrap().into(),
                )],
            )],
        );

        // A pre-cancelled token on the extraction config is ignored: the
        // pipeline's (idle) token wins, so the run succeeds.
        let poisoned = CancelToken::new();
        poisoned.cancel();
        let pipe = MiningPipeline::new()
            .extraction(ExtractionConfig::topological_only().with_cancel(poisoned))
            .threads(Threads::Fixed(2));
        assert!(pipe.extract(&dataset).is_ok());

        // Same for threads and the recorder: `resolved_extraction` carries
        // the pipeline's settings, not the config's.
        let rec = Recorder::new();
        let pipe = MiningPipeline::new()
            .extraction(
                ExtractionConfig::topological_only()
                    .with_threads(Threads::Fixed(3))
                    .with_recorder(Recorder::disabled()),
            )
            .threads(Threads::Fixed(2))
            .recorder(rec.clone());
        let resolved = pipe.resolved_extraction();
        assert_eq!(resolved.threads, Threads::Fixed(2));
        assert!(resolved.recorder.is_enabled());
        pipe.extract(&dataset).unwrap();
        assert_eq!(rec.snapshot().counter("extract.rows"), Some(1));
    }

    fn paper_rows() -> TransactionSet {
        TransactionSet::from_paper_labels(&[
            vec!["murderRate=high", "contains_slum", "touches_slum", "contains_school"],
            vec!["murderRate=high", "contains_slum", "touches_slum"],
            vec!["murderRate=low", "contains_slum", "contains_school"],
            vec!["murderRate=high", "contains_slum", "touches_slum", "contains_school"],
        ])
    }

    #[test]
    fn kc_plus_strictly_filters() {
        let plain = MiningPipeline::new()
            .algorithm(Algorithm::Apriori)
            .min_support(MinSupport::Fraction(0.5))
            .run_transactions(paper_rows())
            .unwrap();
        let kcp = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(0.5))
            .run_transactions(paper_rows())
            .unwrap();
        assert!(kcp.result.num_frequent_min2() < plain.result.num_frequent_min2());
        // No surviving itemset has two slum predicates.
        let cat = &kcp.transactions.catalog;
        let cs = cat.id_of("contains_slum").unwrap();
        let ts = cat.id_of("touches_slum").unwrap();
        assert!(kcp
            .result
            .all()
            .all(|f| !(f.items.contains(&cs) && f.items.contains(&ts))));
    }

    #[test]
    fn fp_growth_variants_agree_with_apriori() {
        for (a, b) in [
            (Algorithm::Apriori, Algorithm::FpGrowth),
            (Algorithm::AprioriKcPlus, Algorithm::FpGrowthKcPlus),
        ] {
            let ra = MiningPipeline::new()
                .algorithm(a)
                .min_support(MinSupport::Fraction(0.5))
                .run_transactions(paper_rows())
                .unwrap();
            let rb = MiningPipeline::new()
                .algorithm(b)
                .min_support(MinSupport::Fraction(0.5))
                .run_transactions(paper_rows())
                .unwrap();
            let mut sa: Vec<_> = ra.result.all().map(|f| (f.items.clone(), f.support)).collect();
            let mut sb: Vec<_> = rb.result.all().map(|f| (f.items.clone(), f.support)).collect();
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb, "{} vs {}", a.name(), b.name());
        }
    }

    #[test]
    fn rules_respect_confidence() {
        let report = MiningPipeline::new()
            .algorithm(Algorithm::Apriori)
            .min_support(MinSupport::Fraction(0.5))
            .min_confidence(0.9)
            .run_transactions(paper_rows())
            .unwrap();
        assert!(report.rules.iter().all(|r| r.confidence >= 0.9));
        assert!(!report.rules.is_empty());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::AprioriKcPlus.name(), "Apriori-KC+");
        assert_eq!(Algorithm::default(), Algorithm::AprioriKcPlus);
    }

    #[test]
    fn invalid_thresholds_are_rejected() {
        let err = MiningPipeline::new()
            .min_confidence(1.5)
            .run_transactions(paper_rows())
            .unwrap_err();
        assert_eq!(err, Error::InvalidMinConfidence(1.5));

        let err = MiningPipeline::new()
            .min_confidence(f64::NAN)
            .run_transactions(paper_rows())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidMinConfidence(_)));

        for bad in [0.0, -0.5, 1.5, f64::INFINITY, f64::NAN] {
            let err = MiningPipeline::new()
                .min_support(MinSupport::Fraction(bad))
                .run_transactions(paper_rows())
                .unwrap_err();
            assert!(matches!(err, Error::InvalidMinSupport(_)), "support {bad}");
        }
        // Absolute counts bypass the fraction check.
        assert!(MiningPipeline::new()
            .min_support(MinSupport::Count(2))
            .run_transactions(paper_rows())
            .is_ok());
    }

    #[test]
    fn cancelled_token_fails_the_pipeline_with_exit_code_4() {
        let cancel = CancelToken::new();
        cancel.cancel();
        for algorithm in [Algorithm::Apriori, Algorithm::FpGrowth] {
            let err = MiningPipeline::new()
                .algorithm(algorithm)
                .min_support(MinSupport::Fraction(0.5))
                .cancel_token(cancel.clone())
                .run_transactions(paper_rows())
                .unwrap_err();
            assert_eq!(err, Error::Cancelled, "{}", algorithm.name());
            assert_eq!(err.exit_code(), 4);
        }
    }

    #[test]
    fn zero_memory_budget_degrades_but_still_succeeds() {
        // Apriori only tracks a budget: under a zero one `auto` degrades
        // to hash-subset, and the output is unchanged.
        let rec = Recorder::new();
        let strict = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(0.5))
            .memory_budget(MemoryBudget::bytes(0))
            .recorder(rec.clone())
            .run_transactions(paper_rows())
            .unwrap();
        assert_eq!(rec.snapshot().counter("mining/auto_choice/hash-subset"), Some(1));
        let plain = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(0.5))
            .run_transactions(paper_rows())
            .unwrap();
        let sets = |r: &PatternReport| {
            let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
            v.sort();
            v
        };
        assert_eq!(sets(&strict), sets(&plain));
    }

    #[test]
    fn zero_memory_budget_fails_fpgrowth_with_exit_code_7() {
        let err = MiningPipeline::new()
            .algorithm(Algorithm::FpGrowthKcPlus)
            .min_support(MinSupport::Fraction(0.5))
            .memory_budget(MemoryBudget::bytes(0))
            .run_transactions(paper_rows())
            .unwrap_err();
        let Error::BudgetExceeded { stage, limit, .. } = &err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!((stage.as_str(), *limit), ("mining/fpgrowth.grow", 0));
        assert_eq!(err.exit_code(), 7);
    }

    #[test]
    fn idle_controls_leave_the_output_bit_identical() {
        let plain = MiningPipeline::new()
            .min_support(MinSupport::Fraction(0.5))
            .run_transactions(paper_rows())
            .unwrap();
        let controlled = MiningPipeline::new()
            .min_support(MinSupport::Fraction(0.5))
            .cancel_token(CancelToken::new())
            .memory_budget(MemoryBudget::bytes(1 << 30))
            .run_transactions(paper_rows())
            .unwrap();
        let sets = |r: &PatternReport| {
            let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
            v.sort();
            v
        };
        assert_eq!(sets(&plain), sets(&controlled));
        assert_eq!(plain.rules.len(), controlled.rules.len());
    }

    #[test]
    fn recorded_run_is_identical_and_metrics_populated() {
        let pipeline = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(0.5));
        let plain = pipeline.clone().run_transactions(paper_rows()).unwrap();
        let recorded = pipeline
            .recorder(geopattern_obs::Recorder::new())
            .run_transactions(paper_rows())
            .unwrap();

        let sets = |r: &PatternReport| {
            let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
            v.sort();
            v
        };
        assert_eq!(sets(&plain), sets(&recorded));
        assert_eq!(plain.rules.len(), recorded.rules.len());

        assert!(plain.metrics().is_empty());
        let m = recorded.metrics();
        assert!(m.span("mine").is_some());
        assert!(m.span("mine/apriori").is_some());
        assert!(m.span("rules").is_some());
        assert!(m.counter("rules.generated").is_some());
        assert_eq!(m.counter("mine.frequent_itemsets"), Some(recorded.result.num_frequent() as u64));
    }
}
