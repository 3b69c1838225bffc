//! Apriori, Apriori-KC and Apriori-KC+ (Listing 1 of the paper).
//!
//! All three algorithms share this implementation; they differ only in the
//! [`PairFilter`] applied to the candidate set `C₂`:
//!
//! * **Apriori** — empty filter;
//! * **Apriori-KC** — the dependency pairs `Φ` (background knowledge);
//! * **Apriori-KC+** — `Φ` plus every same-feature-type pair (derived from
//!   item metadata, no background knowledge required).
//!
//! Candidate generation is the classic `apriori_gen` join + prune
//! (Agrawal & Srikant 1994). Both support-counting backends run one
//! level loop, which holds pass 1, the replay of a journaled prefix, each
//! pass boundary (fail point, cancel checkpoint, `pass{k}` span),
//! `apriori_gen`, Listing 1's C₂ removal and the level records. The
//! backends differ in two places only:
//!
//! * how pass 2 counts C₂: hash-subset enumerates each transaction's
//!   pairs against a hashed candidate set, and the vertical engine of
//!   [`crate::bitmap`] counts by pair joins over the frequent items' TID
//!   lists or by one row scan through the triangular kernel, whichever
//!   costs less;
//! * what follows L₂: hash-subset runs the loop's next pass, and the
//!   vertical engine one equivalence-class descent over the same lists.
//!
//! The default, [`CountingStrategy::Auto`], picks a backend per run.
//!
//! Hash-subset counts every pass, and the vertical engine's row scan
//! pass 2, over transaction chunks on the in-tree [`geopattern_par`]
//! pool: the candidate index is built once and shared read-only, each
//! worker accumulates a private count vector, and the vectors are reduced
//! by summation — commutative, so the counts are identical to a serial
//! run for any thread count. The vertical engine's pair joins fan out
//! over candidate chunks, concatenated in candidate order, and its deeper
//! passes over equivalence classes.

use crate::bitmap::{ItemLists, Pass2, TriangularC2};
use crate::filter::PairFilter;
use crate::item::{ItemId, TransactionSet};
use crate::journal::{
    append_level, level_prefix, replay_levels, LevelRecord, APRIORI_LEVEL, FLAG_COMPLETE,
    FLAG_LEVEL, FLAG_NO_CANDIDATES,
};
use crate::result::{FrequentItemset, MiningResult, MiningStats, MinSupport};
use crate::robust;
use geopattern_obs::Recorder;
use geopattern_par::{
    try_par_map_reduce, ApproxBytes, CancelToken, Grain, Interrupt, Journal, MemoryBudget,
    Threads,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Support-counting backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// Enumerate each transaction's k-subsets (restricted to frequent
    /// items) and probe a hash set of candidates. Holds only the
    /// candidate table, so `auto` falls back to it when the memory budget
    /// cannot hold the vertical engine.
    HashSubset,
    /// Vertical engine over the frequent items' hybrid dense/sparse TID
    /// lists ([`crate::bitmap::TidList`]). Pass 2 counts the post-filter
    /// C₂ by whichever method costs less:
    /// bounded pair joins when `|C₂| × ⌈n/64⌉` words are at most
    /// `Σ_rows C(k_r, 2)` (`k_r` the frequent items in row `r`), else one
    /// streaming scan through the triangular kernel. Deeper passes run an
    /// equivalence-class DFS over the same lists. The pick is recorded as
    /// `mining/pass2/joins` or `mining/pass2/scan`.
    VerticalBitmap,
    /// Workload-sampled selection, the default: [`crate::strategy::choose`]
    /// picks one of the fixed strategies (and a parallel grain) from
    /// cheap statistics before the run, recording the decision as
    /// `mining/auto_choice`. Output is bit-identical to whatever it
    /// picks.
    #[default]
    Auto,
}

impl CountingStrategy {
    /// The strategy's name, as recorded under `mining/auto_choice/<name>`.
    pub fn name(self) -> &'static str {
        match self {
            CountingStrategy::HashSubset => "hash-subset",
            CountingStrategy::VerticalBitmap => "bitmap",
            CountingStrategy::Auto => "auto",
        }
    }

    /// Stable numeric code recorded as the `mining/auto_choice` counter
    /// value (counters carry `u64`, not strings). Codes 2, 4 and 5 are
    /// retired and must not be reused, so older metrics stay comparable.
    pub fn code(self) -> u64 {
        match self {
            CountingStrategy::HashSubset => 1,
            CountingStrategy::VerticalBitmap => 3,
            CountingStrategy::Auto => 0,
        }
    }
}

/// Configuration of one mining run.
#[derive(Debug, Clone)]
pub struct AprioriConfig {
    /// Minimum support.
    pub min_support: MinSupport,
    /// Well-known dependency pairs `Φ` removed from `C₂` (Apriori-KC).
    pub dependencies: PairFilter,
    /// Same-feature-type pairs removed from `C₂` (Apriori-KC+).
    pub same_type: PairFilter,
    /// Counting backend. The default, [`CountingStrategy::Auto`], also
    /// picks the parallel chunking grain; a fixed backend counts at
    /// [`Grain::Fine`].
    pub counting: CountingStrategy,
    /// Worker threads for support counting. Counts are identical for
    /// every setting; this only changes wall-clock.
    pub threads: Threads,
    /// Metric sink for per-pass timings and counters. Disabled by
    /// default; recording never changes the mined output.
    pub recorder: Recorder,
    /// Cooperative cancellation/deadline token, checked at pass boundaries
    /// and at pool chunk boundaries during counting. Disabled by default,
    /// in which case every check is free and can never fire.
    pub cancel: CancelToken,
    /// Memory budget for the per-pass candidate sets and the vertical
    /// lists. Apriori only *tracks* its usage (feeding
    /// `robust/budget_bytes_peak`) and never changes its output; `auto`
    /// reads the headroom to pick hash-subset when the vertical lists
    /// would not fit.
    pub budget: MemoryBudget,
    /// Durable checkpoint journal. When set, every completed pass appends
    /// its frequent level, and a new run over the same journal seeds the
    /// level loop past the journaled prefix instead of recounting it — the
    /// resumed output (itemsets, supports, statistics) is bit-identical to
    /// an uninterrupted run. The caller is responsible for matching the
    /// journal to the run (see [`Journal`]'s fingerprint); a journal whose
    /// first level disagrees with the data is ignored and everything is
    /// recomputed. Skipped passes are counted on
    /// `robust/resume_levels_skipped` (journal-enabled runs only).
    pub journal: Option<Journal>,
}

impl AprioriConfig {
    /// Plain Apriori at the given support.
    pub fn apriori(min_support: MinSupport) -> AprioriConfig {
        AprioriConfig {
            min_support,
            dependencies: PairFilter::none(),
            same_type: PairFilter::none(),
            counting: CountingStrategy::default(),
            threads: Threads::Serial,
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
            journal: None,
        }
    }

    /// Apriori-KC: removes the dependency pairs `Φ`.
    pub fn apriori_kc(min_support: MinSupport, dependencies: PairFilter) -> AprioriConfig {
        AprioriConfig { dependencies, ..AprioriConfig::apriori(min_support) }
    }

    /// Apriori-KC+: removes `Φ` plus all same-feature-type pairs.
    pub fn apriori_kc_plus(
        min_support: MinSupport,
        dependencies: PairFilter,
        same_type: PairFilter,
    ) -> AprioriConfig {
        AprioriConfig { dependencies, same_type, ..AprioriConfig::apriori(min_support) }
    }

    /// Selects the counting backend (builder style).
    pub fn with_counting(mut self, counting: CountingStrategy) -> AprioriConfig {
        self.counting = counting;
        self
    }

    /// Sets the worker-thread policy (builder style).
    pub fn with_threads(mut self, threads: Threads) -> AprioriConfig {
        self.threads = threads;
        self
    }

    /// Attaches a metric recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> AprioriConfig {
        self.recorder = recorder;
        self
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: CancelToken) -> AprioriConfig {
        self.cancel = cancel;
        self
    }

    /// Attaches a memory budget (builder style).
    pub fn with_budget(mut self, budget: MemoryBudget) -> AprioriConfig {
        self.budget = budget;
        self
    }

    /// Attaches a checkpoint journal (builder style).
    pub fn with_journal(mut self, journal: Journal) -> AprioriConfig {
        self.journal = Some(journal);
        self
    }
}

/// Runs the configured Apriori variant over a transaction set.
///
/// Panics if the run is interrupted (cancellation, deadline, worker panic)
/// — impossible with the default disabled [`CancelToken`]. Controlled runs
/// should call [`try_mine`].
pub fn mine(data: &TransactionSet, config: &AprioriConfig) -> MiningResult {
    try_mine(data, config).expect("uncontrolled Apriori cannot be interrupted; use try_mine")
}

/// Fallible [`mine`]: checks `config.cancel` at every pass boundary and at
/// pool chunk boundaries inside counting, isolates worker panics, and
/// tracks candidate-set bytes against `config.budget`. With a disabled
/// token and unlimited budget the output is bit-identical to [`mine`].
pub fn try_mine(data: &TransactionSet, config: &AprioriConfig) -> Result<MiningResult, Interrupt> {
    let rec = &config.recorder;
    let (counting, grain) = match config.counting {
        CountingStrategy::Auto => {
            // Resolve the adaptive strategy once, up front: sample the
            // cheap workload statistics, run the pure policy and record
            // the decision. Output is bit-identical to running the chosen
            // strategy directly.
            let stats = crate::strategy::WorkloadStats::sample(data, &config.budget);
            let (chosen, grain) = crate::strategy::choose(stats);
            rec.counter("mining/auto_choice", chosen.code());
            rec.counter(&format!("mining/auto_choice/{}", chosen.name()), 1);
            rec.counter(&format!("mining/auto_grain/{}", grain.name()), 1);
            rec.counter("mining/auto_stats_transactions", stats.transactions as u64);
            rec.counter("mining/auto_stats_items", stats.items as u64);
            rec.counter("mining/auto_stats_total_entries", stats.total_entries as u64);
            rec.counter("mining/auto_stats_density_ppm", stats.density_ppm());
            if let Some(headroom) = stats.budget_headroom {
                rec.counter("mining/auto_stats_budget_headroom", headroom as u64);
            }
            (chosen, grain)
        }
        fixed => (fixed, Grain::Fine),
    };
    let vertical = counting == CountingStrategy::VerticalBitmap;
    let start = Instant::now();
    let _alg_span = rec.span("apriori");
    let threshold = config.min_support.threshold(data.len());
    let mut stats = MiningStats::default();

    // Pass 1: support of individual items.
    let num_items = data.catalog.len();
    let l1: Vec<FrequentItemset> = {
        let _pass_span = rec.span("pass1");
        let mut item_counts = vec![0u64; num_items];
        for t in data.transactions() {
            for &i in t {
                item_counts[i as usize] += 1;
            }
        }
        (0..num_items as ItemId)
            .filter(|&i| item_counts[i as usize] >= threshold)
            .map(|i| FrequentItemset { items: vec![i], support: item_counts[i as usize] })
            .collect()
    };
    stats.candidates_per_level.push(num_items);
    stats.frequent_per_level.push(l1.len());
    rec.counter("apriori.pass1.candidates", num_items as u64);
    rec.counter("apriori.pass1.frequent", l1.len() as u64);

    let mut levels: Vec<Vec<FrequentItemset>> = vec![l1];

    // Checkpoint/resume: the journal holds a contiguous completed-level
    // prefix, validated against the freshly recomputed L₁ (a journal from
    // different data or a mismatched configuration is discarded and the
    // run recomputes everything). Each completed pass below appends its
    // level, so a crashed run restarts at the first unfinished pass. A
    // terminal record (empty level, empty candidate set, or completion
    // marker) means there is nothing left to mine. The vertical descent
    // mines every level past L₂ at once, so short of a terminal record it
    // resumes from L₂ at the latest and redoes the rest.
    let journal = config.journal.as_ref();
    let journaled = level_prefix(journal, APRIORI_LEVEL, &levels[0]);
    if journaled.is_empty() {
        append_level(journal, 1, FLAG_LEVEL, num_items, &stats, &levels[0]);
    }
    let complete = journaled.last().is_some_and(LevelRecord::is_terminal);
    let usable = if vertical && !complete { journaled.len().min(2) } else { journaled.len() };
    let skipped = replay_levels(&journaled[..usable], &mut stats, &mut levels);
    if journal.is_some() {
        rec.counter("robust/resume_levels_skipped", skipped as u64);
    }

    // One level loop for both backends. They differ in how pass 2 counts
    // and in what follows L₂: hash-subset runs the next pass, the vertical
    // engine one descent over the lists its pass 2 built.
    let mut lists: Option<ItemLists> = None;
    for k in levels.len() + 1.. {
        if complete {
            break;
        }
        if vertical && k > 2 {
            let lists = lists.unwrap_or_else(|| ItemLists::build(data, &levels[0]));
            vertical_descent(config, threshold, &mut stats, &mut levels, &lists)?;
            break;
        }
        // Pass boundary: the cooperative cancellation point of Listing 1's
        // outer loop, plus the sequential fail-point site.
        robust::fire("mining/apriori.pass", &config.cancel);
        robust::checkpoint(&config.cancel, rec)?;
        let _pass_span = rec.span(&format!("pass{k}"));
        let prev: Vec<&[ItemId]> = levels[k - 2].iter().map(|f| f.items.as_slice()).collect();
        if prev.is_empty() {
            break;
        }
        let mut candidates = apriori_gen(&prev);
        rec.counter(&format!("apriori.pass{k}.candidates"), candidates.len() as u64);
        if k == 2 {
            // Listing 1: C₂ = C₂ − Φ − {pairs with the same feature type},
            // before counting, so a removed pair never occupies a counter.
            let before = candidates.len();
            candidates.retain(|c| {
                if config.dependencies.blocks(c[0], c[1]) {
                    stats.pairs_removed_dependencies += 1;
                    false
                } else if config.same_type.blocks(c[0], c[1]) {
                    stats.pairs_removed_same_type += 1;
                    false
                } else {
                    true
                }
            });
            let pruned = (before - candidates.len()) as u64;
            rec.counter("apriori.c2.removed_dependencies", stats.pairs_removed_dependencies as u64);
            rec.counter("apriori.c2.removed_same_type", stats.pairs_removed_same_type as u64);
            rec.counter("apriori.pass2.pruned", pruned);
            if vertical {
                rec.counter("mining/c2_pairs_filtered", pruned);
            }
        }
        stats.candidates_per_level.push(candidates.len());
        if candidates.is_empty() {
            append_level(journal, k, FLAG_NO_CANDIDATES, 0, &stats, &[]);
            break;
        }
        let num_candidates = candidates.len();

        // Track (never reject: Apriori's output never depends on the
        // budget) the pass's candidates, and the vertical engine's lists,
        // for the duration of the pass. The scan that fills the frequent
        // items' lists also counts what a row scan of C₂ would cost.
        lists = vertical.then(|| ItemLists::build(data, &levels[0]));
        let pass_bytes = robust::nested_vec_bytes(&candidates)
            + lists.as_ref().map_or(0, ApproxBytes::approx_bytes);
        let _ = config.budget.reserve(pass_bytes);
        let counts = match &lists {
            None => count_hash_subset(data, &candidates, k, config.threads, grain, &config.cancel),
            Some(lists) => count_c2_vertical(data, config, grain, lists, &levels[0], &candidates),
        };
        config.budget.release(pass_bytes);
        let counts = counts?;

        let lk: Vec<FrequentItemset> = candidates
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= threshold)
            .map(|(items, support)| FrequentItemset { items, support })
            .collect();
        rec.counter(&format!("apriori.pass{k}.frequent"), lk.len() as u64);
        stats.frequent_per_level.push(lk.len());
        append_level(journal, k, FLAG_LEVEL, num_candidates, &stats, &lk);
        if lk.is_empty() {
            break;
        }
        levels.push(lk);
    }

    rec.counter("apriori.passes", levels.len() as u64);
    rec.counter("apriori.frequent_itemsets", levels.iter().map(Vec::len).sum::<usize>() as u64);
    robust::record_budget_peak(&config.budget, rec);
    stats.duration = start.elapsed();
    Ok(MiningResult { levels, stats })
}

/// Pass 2 of the vertical engine: counts the post-filter `candidates` by
/// pair joins over `lists` or by one row scan through the triangular
/// kernel over the frequent items `l1`, whichever [`Pass2::choose`] finds
/// cheaper, and records the pick.
fn count_c2_vertical(
    data: &TransactionSet,
    config: &AprioriConfig,
    grain: Grain,
    lists: &ItemLists,
    l1: &[FrequentItemset],
    candidates: &[Vec<ItemId>],
) -> Result<Vec<u64>, Interrupt> {
    let rec = &config.recorder;
    let join_words = candidates.len() as u64 * data.len().div_ceil(64) as u64;
    let method = Pass2::choose(join_words, lists.scan_pairs());
    rec.counter(&format!("mining/pass2/{}", method.name()), 1);
    rec.counter("mining/pass2_join_words", join_words);
    rec.counter("mining/pass2_scan_pairs", lists.scan_pairs());
    match method {
        Pass2::Joins => {
            let threshold = config.min_support.threshold(data.len());
            lists.count_pairs(candidates, threshold, config.threads, &config.cancel)
        }
        Pass2::Scan => {
            let l1_items: Vec<ItemId> = l1.iter().map(|f| f.items[0]).collect();
            let kernel = TriangularC2::new(data.catalog.len(), &l1_items, candidates);
            count_chunked(data, candidates.len(), config.threads, grain, &config.cancel, {
                let kernel = &kernel;
                move |chunk, counts| kernel.count_chunk(chunk, counts)
            })
        }
    }
}

/// Passes 3 and up in one vertical descent over the frequent items'
/// `lists`, appended to `levels`/`stats` in place. When a journal is
/// configured, the descent's per-level records and the run-completion
/// marker are written *after* the descent finishes — an interrupted
/// descent leaves only the journaled L₂ behind and is redone from there
/// on resume.
fn vertical_descent(
    config: &AprioriConfig,
    threshold: u64,
    stats: &mut MiningStats,
    levels: &mut Vec<Vec<FrequentItemset>>,
    lists: &ItemLists,
) -> Result<(), Interrupt> {
    let rec = &config.recorder;
    robust::fire("mining/apriori.pass", &config.cancel);
    robust::checkpoint(&config.cancel, rec)?;
    let deep_span = rec.span("vertical");
    let outcome = crate::bitmap::mine_vertical_levels(
        lists,
        &levels[1],
        threshold,
        config.threads,
        &config.cancel,
        &config.budget,
    )?;
    drop(deep_span);
    rec.counter("mining/bitmap_words", outcome.bitmap_words);
    // One record per *attempted* depth (the deepest attempt may have
    // found nothing), then the completion marker at the next shard.
    let journal = config.journal.as_ref();
    for (d, &attempts) in outcome.attempts_per_level.iter().enumerate() {
        let k = d + 3;
        let level = outcome.levels.get(d).map(Vec::as_slice).unwrap_or(&[]);
        rec.counter(&format!("apriori.pass{k}.candidates"), attempts as u64);
        rec.counter(&format!("apriori.pass{k}.frequent"), level.len() as u64);
        stats.candidates_per_level.push(attempts);
        stats.frequent_per_level.push(level.len());
        append_level(journal, k, FLAG_LEVEL, attempts, stats, level);
    }
    let k = outcome.attempts_per_level.len() + 3;
    append_level(journal, k, FLAG_COMPLETE, 0, stats, &[]);
    // Downward closure means no gaps: every non-empty level extends
    // the previous one.
    levels.extend(outcome.levels.into_iter().filter(|l| !l.is_empty()));
    Ok(())
}

/// The `apriori_gen` candidate generator: join `L(k−1)` with itself on the
/// first `k−2` items, then prune candidates having an infrequent
/// `(k−1)`-subset. `prev` must be sorted lexicographically (it is, because
/// level construction preserves generation order from sorted inputs).
pub fn apriori_gen(prev: &[&[ItemId]]) -> Vec<Vec<ItemId>> {
    let k1 = match prev.first() {
        Some(f) => f.len(),
        None => return Vec::new(),
    };
    let prev_set: HashSet<&[ItemId]> = prev.iter().copied().collect();
    let mut out = Vec::new();

    // Join step: pairs sharing the first k-2 items.
    let mut start = 0;
    while start < prev.len() {
        let prefix = &prev[start][..k1 - 1];
        let mut end = start + 1;
        while end < prev.len() && &prev[end][..k1 - 1] == prefix {
            end += 1;
        }
        for i in start..end {
            for j in (i + 1)..end {
                let mut cand: Vec<ItemId> = prev[i].to_vec();
                cand.push(prev[j][k1 - 1]);
                // Prune step: all (k-1)-subsets must be frequent. The two
                // subsets used in the join are trivially present.
                let mut ok = true;
                if k1 >= 2 {
                    let mut sub = Vec::with_capacity(k1);
                    for skip in 0..cand.len() - 2 {
                        sub.clear();
                        sub.extend(cand.iter().enumerate().filter(|&(x, _)| x != skip).map(|(_, &v)| v));
                        if !prev_set.contains(sub.as_slice()) {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    out.push(cand);
                }
            }
        }
        start = end;
    }
    out
}

/// Sums per-worker count vectors over transaction chunks. Summation is
/// commutative, so the totals match the serial scan exactly. Runs on the
/// fallible pool: the token is honoured at chunk boundaries and a worker
/// panic (including the `mining/apriori.count` fail-point) surfaces as
/// [`Interrupt::WorkerPanic`] instead of aborting the process.
fn count_chunked(
    data: &TransactionSet,
    num_candidates: usize,
    threads: Threads,
    grain: Grain,
    cancel: &CancelToken,
    count_chunk: impl Fn(&[Vec<ItemId>], &mut [u64]) + Sync,
) -> Result<Vec<u64>, Interrupt> {
    // Fine grain by default: one transaction is cheap to count, so
    // workers only pay off with thousands of transactions each. The
    // auto policy may pick coarse for heavy rows.
    let counts = try_par_map_reduce(
        threads,
        grain,
        cancel,
        "mining/apriori.count",
        data.transactions(),
        |_, chunk| {
            robust::fire("mining/apriori.count", cancel);
            let mut counts = vec![0u64; num_candidates];
            count_chunk(chunk, &mut counts);
            counts
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    )?;
    Ok(counts.unwrap_or_else(|| vec![0u64; num_candidates]))
}

/// The horizontal backend: enumerate each transaction's k-subsets over
/// the items appearing in any candidate, probing a hash map.
fn count_hash_subset(
    data: &TransactionSet,
    candidates: &[Vec<ItemId>],
    k: usize,
    threads: Threads,
    grain: Grain,
    cancel: &CancelToken,
) -> Result<Vec<u64>, Interrupt> {
    let mut index: HashMap<&[ItemId], usize> = HashMap::with_capacity(candidates.len());
    let mut live_items: HashSet<ItemId> = HashSet::new();
    for (pos, c) in candidates.iter().enumerate() {
        index.insert(c.as_slice(), pos);
        live_items.extend(c.iter().copied());
    }
    count_chunked(data, candidates.len(), threads, grain, cancel, |chunk, counts| {
        let mut filtered: Vec<ItemId> = Vec::new();
        let mut subset: Vec<ItemId> = Vec::with_capacity(k);
        for t in chunk {
            filtered.clear();
            filtered.extend(t.iter().copied().filter(|i| live_items.contains(i)));
            if filtered.len() < k {
                continue;
            }
            enumerate_subsets(&filtered, k, &mut subset, 0, &mut |s| {
                if let Some(&pos) = index.get(s) {
                    counts[pos] += 1;
                }
            });
        }
    })
}

fn enumerate_subsets(
    items: &[ItemId],
    k: usize,
    current: &mut Vec<ItemId>,
    from: usize,
    visit: &mut impl FnMut(&[ItemId]),
) {
    if current.len() == k {
        visit(current);
        return;
    }
    let needed = k - current.len();
    for i in from..=items.len().saturating_sub(needed) {
        current.push(items[i]);
        enumerate_subsets(items, k, current, i + 1, visit);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemCatalog;

    /// The classic 4-transaction example.
    fn toy() -> TransactionSet {
        let mut c = ItemCatalog::new();
        for label in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(label);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]); // a b c
        ts.push(vec![0, 1, 3]); // a b d
        ts.push(vec![0, 2, 3]); // a c d
        ts.push(vec![1, 2, 4]); // b c e
        ts
    }

    #[test]
    fn plain_apriori_counts() {
        let r = mine(&toy(), &AprioriConfig::apriori(MinSupport::Count(2)));
        // Frequent 1-sets: a(3) b(3) c(3) d(2); e(1) is out.
        assert_eq!(r.levels[0].len(), 4);
        // Frequent 2-sets: ab(2) ac(2) ad(2) bc(2); bd(1) and cd(1) out.
        let l2: Vec<&Vec<u32>> = r.levels[1].iter().map(|f| &f.items).collect();
        assert_eq!(l2.len(), 4);
        assert!(l2.contains(&&vec![0, 1]));
        assert!(l2.contains(&&vec![0, 3]));
        assert!(!l2.contains(&&vec![2, 3]));
        // No frequent 3-sets at support 2: abc(1), acd(1)...
        assert_eq!(r.levels.len(), 2);
        assert!(r.check_downward_closure());
    }

    #[test]
    fn both_counting_backends_agree() {
        let data = toy();
        for support in [1u64, 2, 3] {
            let hash = mine(
                &data,
                &AprioriConfig::apriori(MinSupport::Count(support))
                    .with_counting(CountingStrategy::HashSubset),
            );
            let bitmap = mine(
                &data,
                &AprioriConfig::apriori(MinSupport::Count(support))
                    .with_counting(CountingStrategy::VerticalBitmap),
            );
            let h: Vec<_> = hash.all().collect();
            let b: Vec<_> = bitmap.all().collect();
            assert_eq!(h, b, "support {support}");
        }
    }

    #[test]
    fn vertical_backends_match_horizontal_levels_exactly() {
        let data = toy();
        for support in [1u64, 2, 3] {
            for filter in
                [PairFilter::none(), PairFilter::from_pairs([(0u32, 1u32), (2u32, 3u32)])]
            {
                let base = AprioriConfig::apriori_kc(MinSupport::Count(support), filter);
                let oracle = mine(&data, &base.clone().with_counting(CountingStrategy::HashSubset));
                for strategy in [CountingStrategy::VerticalBitmap, CountingStrategy::Auto] {
                    let got = mine(&data, &base.clone().with_counting(strategy));
                    assert_eq!(oracle.levels, got.levels, "{strategy:?} support {support}");
                    assert_eq!(
                        oracle.stats.pairs_removed_dependencies,
                        got.stats.pairs_removed_dependencies,
                        "{strategy:?} support {support}"
                    );
                }
            }
        }
    }

    #[test]
    fn counting_strategy_codes_are_stable() {
        // `mining/auto_choice` carries the code; older metrics stay
        // comparable only while the surviving codes keep their values.
        let all = [
            CountingStrategy::HashSubset,
            CountingStrategy::VerticalBitmap,
            CountingStrategy::Auto,
        ];
        let codes: Vec<u64> = all.iter().map(|s| s.code()).collect();
        assert_eq!(codes, [1, 3, 0]);
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["hash-subset", "bitmap", "auto"]);
        assert_eq!(CountingStrategy::default(), CountingStrategy::Auto);
    }

    #[test]
    fn auto_resolves_and_matches_the_oracle() {
        let data = toy();
        let oracle = mine(
            &data,
            &AprioriConfig::apriori(MinSupport::Count(2))
                .with_counting(CountingStrategy::HashSubset),
        );
        let rec = Recorder::new();
        let auto = mine(
            &data,
            &AprioriConfig::apriori(MinSupport::Count(2))
                .with_counting(CountingStrategy::Auto)
                .with_recorder(rec.clone()),
        );
        assert_eq!(oracle.levels, auto.levels);
        let metrics = rec.snapshot();
        let code = metrics.counter("mining/auto_choice").expect("decision recorded");
        assert!(code > 0, "Auto must resolve to a fixed strategy");
        assert_eq!(metrics.counter("mining/auto_stats_transactions"), Some(4));
        assert_eq!(metrics.counter("mining/auto_stats_items"), Some(5));
        // Even 4-row toy data goes to the vertical engine, and the
        // named-choice counter mirrors the code.
        assert_eq!(code, CountingStrategy::VerticalBitmap.code());
        assert_eq!(metrics.counter("mining/auto_choice/bitmap"), Some(1));
    }

    #[test]
    fn filter_blocks_pair_and_supersets() {
        let data = toy();
        let filter = PairFilter::from_pairs([(0u32, 1u32)]); // block {a,b}
        let config =
            AprioriConfig::apriori_kc_plus(MinSupport::Count(1), PairFilter::none(), filter);
        let r = mine(&data, &config);
        for f in r.with_min_size(2) {
            assert!(
                !(f.items.contains(&0) && f.items.contains(&1)),
                "itemset {:?} contains the blocked pair",
                f.items
            );
        }
        // Other pairs survive.
        assert!(r.all().any(|f| f.items == vec![0, 2]));
        // Statistics record the removal.
        assert_eq!(r.stats.pairs_removed_same_type + r.stats.pairs_removed_dependencies, 1);
    }

    #[test]
    fn filter_losslessness() {
        // Removing {a,b} loses exactly the itemsets containing both a and
        // b; everything else is identical (§3 of the paper).
        let data = toy();
        let plain = mine(&data, &AprioriConfig::apriori(MinSupport::Count(1)));
        let filtered = mine(
            &data,
            &AprioriConfig::apriori_kc(
                MinSupport::Count(1),
                PairFilter::from_pairs([(0u32, 1u32)]),
            ),
        );
        let expected: Vec<&FrequentItemset> = plain
            .all()
            .filter(|f| !(f.items.contains(&0) && f.items.contains(&1)))
            .collect();
        let got: Vec<&FrequentItemset> = filtered.all().collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = TransactionSet::new(ItemCatalog::new());
        let r = mine(&empty, &AprioriConfig::apriori(MinSupport::Fraction(0.5)));
        assert_eq!(r.num_frequent(), 0);

        // Single transaction: everything frequent at 100%.
        let mut c = ItemCatalog::new();
        c.intern_attribute("x");
        c.intern_attribute("y");
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1]);
        let r = mine(&ts, &AprioriConfig::apriori(MinSupport::Fraction(1.0)));
        assert_eq!(r.num_frequent(), 3); // {x}, {y}, {x,y}
        assert_eq!(r.max_size(), 2);
    }

    #[test]
    fn apriori_gen_join_and_prune() {
        // L2 = {ab, ac, bc, bd} → join gives abc (from ab+ac: prefix a),
        // bcd (from bc+bd: prefix b). Prune removes bcd (cd not in L2).
        let l2: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![1, 2], vec![1, 3]];
        let refs: Vec<&[u32]> = l2.iter().map(|v| v.as_slice()).collect();
        let c3 = apriori_gen(&refs);
        assert_eq!(c3, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn apriori_gen_from_l1() {
        let l1: Vec<Vec<u32>> = vec![vec![0], vec![2], vec![5]];
        let refs: Vec<&[u32]> = l1.iter().map(|v| v.as_slice()).collect();
        let c2 = apriori_gen(&refs);
        assert_eq!(c2, vec![vec![0, 2], vec![0, 5], vec![2, 5]]);
    }

    #[test]
    fn parallel_counting_matches_serial() {
        // A larger synthetic set so several chunks actually form.
        let mut c = ItemCatalog::new();
        for i in 0..12 {
            c.intern_attribute(format!("i{i}"));
        }
        let mut ts = TransactionSet::new(c);
        for t in 0..500u32 {
            let items: Vec<u32> =
                (0..12).filter(|&i| (t.wrapping_mul(31).wrapping_add(i * 7)) % 3 != 0).collect();
            ts.push(items);
        }
        for counting in [CountingStrategy::HashSubset, CountingStrategy::VerticalBitmap] {
            let serial = mine(
                &ts,
                &AprioriConfig::apriori(MinSupport::Fraction(0.2)).with_counting(counting),
            );
            for n in [2usize, 8] {
                let parallel = mine(
                    &ts,
                    &AprioriConfig::apriori(MinSupport::Fraction(0.2))
                        .with_counting(counting)
                        .with_threads(Threads::Fixed(n)),
                );
                let s: Vec<_> = serial.all().collect();
                let p: Vec<_> = parallel.all().collect();
                assert_eq!(s, p, "{counting:?} at {n} threads");
            }
        }
    }

    #[test]
    fn stats_track_levels() {
        let r = mine(&toy(), &AprioriConfig::apriori(MinSupport::Count(2)));
        assert_eq!(r.stats.candidates_per_level[0], 5); // items
        assert_eq!(r.stats.frequent_per_level[0], 4);
        assert_eq!(r.stats.candidates_per_level[1], 6); // C(4,2)
        assert_eq!(r.stats.frequent_per_level[1], 4);
    }
}
