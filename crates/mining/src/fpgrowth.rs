//! FP-Growth with the same pluggable pair filter as Apriori-KC+.
//!
//! The paper remarks that the same-feature-type filtering step "can be
//! implemented by any algorithm that generates frequent itemsets". This
//! module demonstrates it: a pattern-growth miner in which a blocked pair
//! prunes the recursion exactly where Apriori-KC+ would have dropped the
//! candidate — any pattern containing a blocked pair, and every extension
//! of it, is skipped.
//!
//! Serves as (a) an independent oracle for the Apriori implementation in
//! tests, and (b) the `ablation_fpgrowth` benchmark baseline.

use crate::filter::PairFilter;
use crate::item::{ItemId, TransactionSet};
use crate::journal::{decode_class, encode_class, FP_BRANCH};
use crate::result::{FrequentItemset, MiningResult, MiningStats, MinSupport};
use crate::robust;
use geopattern_obs::Recorder;
use geopattern_par::{ApproxBytes, BudgetGuard, CancelToken, Interrupt, Journal, MemoryBudget};
use std::collections::HashMap;
use std::time::Instant;

/// FP-Growth configuration.
#[derive(Debug, Clone)]
pub struct FpGrowthConfig {
    /// Minimum support.
    pub min_support: MinSupport,
    /// Pairs no mined itemset may contain (KC ∪ KC+ filters).
    pub filter: PairFilter,
    /// Metric sink for phase timings and counters. Disabled by default;
    /// recording never changes the mined output.
    pub recorder: Recorder,
    /// Cooperative cancellation/deadline token, checked at every
    /// conditional-tree boundary. Disabled by default.
    pub cancel: CancelToken,
    /// Memory budget for conditional FP-trees. When a conditional tree's
    /// reservation fails, the run fails with
    /// [`Interrupt::BudgetExceeded`] rather than return truncated output;
    /// top-level branches journaled before the refusal stay journaled.
    pub budget: MemoryBudget,
    /// Optional crash-recovery journal. Each completed top-level prefix
    /// branch appends its itemsets under `fpgrowth/branch` keyed by the
    /// branch's position in the growth order; a resumed run serves
    /// journaled branches from the record instead of re-growing them.
    /// Disabled by default.
    pub journal: Option<Journal>,
}

impl FpGrowthConfig {
    /// Unfiltered FP-Growth.
    pub fn new(min_support: MinSupport) -> FpGrowthConfig {
        FpGrowthConfig {
            min_support,
            filter: PairFilter::none(),
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
            journal: None,
        }
    }

    /// FP-Growth with a pair filter (builder style).
    pub fn with_filter(mut self, filter: PairFilter) -> FpGrowthConfig {
        self.filter = filter;
        self
    }

    /// Attaches a metric recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> FpGrowthConfig {
        self.recorder = recorder;
        self
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: CancelToken) -> FpGrowthConfig {
        self.cancel = cancel;
        self
    }

    /// Attaches a memory budget (builder style).
    pub fn with_budget(mut self, budget: MemoryBudget) -> FpGrowthConfig {
        self.budget = budget;
        self
    }

    /// Attaches a crash-recovery journal (builder style).
    pub fn with_journal(mut self, journal: Journal) -> FpGrowthConfig {
        self.journal = Some(journal);
        self
    }
}

#[derive(Debug, Clone)]
struct FpNode {
    item: ItemId,
    count: u64,
    parent: usize,
    children: HashMap<ItemId, usize>,
}

/// An FP-tree: prefix tree of transactions with per-item node lists.
struct FpTree {
    nodes: Vec<FpNode>,
    /// item → indices of nodes carrying it.
    header: HashMap<ItemId, Vec<usize>>,
}

impl FpTree {
    fn new() -> FpTree {
        FpTree {
            nodes: vec![FpNode {
                item: ItemId::MAX,
                count: 0,
                parent: usize::MAX,
                children: HashMap::new(),
            }],
            header: HashMap::new(),
        }
    }

    fn insert(&mut self, items: &[ItemId], count: u64) {
        let mut cur = 0usize;
        for &item in items {
            let next = match self.nodes[cur].children.get(&item) {
                Some(&n) => {
                    self.nodes[n].count += count;
                    n
                }
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(FpNode {
                        item,
                        count,
                        parent: cur,
                        children: HashMap::new(),
                    });
                    self.nodes[cur].children.insert(item, n);
                    self.header.entry(item).or_default().push(n);
                    n
                }
            };
            cur = next;
        }
    }

    /// Conditional pattern base of `item`: (prefix path, count) pairs.
    fn conditional_base(&self, item: ItemId) -> Vec<(Vec<ItemId>, u64)> {
        let mut out = Vec::new();
        if let Some(nodes) = self.header.get(&item) {
            for &n in nodes {
                let count = self.nodes[n].count;
                let mut path = Vec::new();
                let mut cur = self.nodes[n].parent;
                while cur != 0 && cur != usize::MAX {
                    path.push(self.nodes[cur].item);
                    cur = self.nodes[cur].parent;
                }
                path.reverse();
                if !path.is_empty() {
                    out.push((path, count));
                }
            }
        }
        out
    }
}

impl ApproxBytes for FpTree {
    fn approx_bytes(&self) -> usize {
        // Node storage dominates; the header's per-item vectors hold one
        // usize per node in total.
        self.nodes.capacity() * std::mem::size_of::<FpNode>()
            + self.nodes.len() * std::mem::size_of::<usize>()
    }
}

/// Runs FP-Growth over a transaction set.
///
/// Panics if the run is interrupted — impossible with the default disabled
/// [`CancelToken`]. Controlled runs should call [`try_mine_fp`].
pub fn mine_fp(data: &TransactionSet, config: &FpGrowthConfig) -> MiningResult {
    try_mine_fp(data, config)
        .expect("uncontrolled FP-Growth cannot be interrupted; use try_mine_fp")
}

/// Fallible [`mine_fp`]: honours `config.cancel` at every conditional-tree
/// boundary and fails with [`Interrupt::BudgetExceeded`] when a
/// conditional tree does not fit `config.budget`.
pub fn try_mine_fp(
    data: &TransactionSet,
    config: &FpGrowthConfig,
) -> Result<MiningResult, Interrupt> {
    let start = Instant::now();
    let rec = &config.recorder;
    let _alg_span = rec.span("fpgrowth");
    let threshold = config.min_support.threshold(data.len());

    let tree_span = rec.span("tree");
    // Global item frequencies.
    let mut counts: HashMap<ItemId, u64> = HashMap::new();
    for t in data.transactions() {
        for &i in t {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    // Frequency-descending item order (ties by id for determinism).
    let mut order: Vec<ItemId> = counts
        .iter()
        .filter(|(_, &c)| c >= threshold)
        .map(|(&i, _)| i)
        .collect();
    order.sort_by(|&a, &b| counts[&b].cmp(&counts[&a]).then(a.cmp(&b)));
    let rank: HashMap<ItemId, usize> = order.iter().enumerate().map(|(r, &i)| (i, r)).collect();

    let mut tree = FpTree::new();
    for t in data.transactions() {
        let mut items: Vec<ItemId> = t.iter().copied().filter(|i| rank.contains_key(i)).collect();
        items.sort_by_key(|i| rank[i]);
        if !items.is_empty() {
            tree.insert(&items, 1);
        }
    }
    drop(tree_span);
    rec.counter("fpgrowth.frequent_items", order.len() as u64);
    rec.counter("fpgrowth.tree_nodes", tree.nodes.len() as u64 - 1); // minus the root

    let grow_span = rec.span("grow");
    let mut found: Vec<FrequentItemset> = Vec::new();
    let item_counts: HashMap<ItemId, u64> = counts
        .into_iter()
        .filter(|&(_, c)| c >= threshold)
        .collect();
    // The top level of `fp_mine`, one journaling unit per prefix branch:
    // a completed branch's itemsets persist under `fpgrowth/branch` keyed
    // by growth position, and a resumed run serves them from the record
    // instead of re-growing.
    robust::fire("mining/fpgrowth.grow", &config.cancel);
    robust::checkpoint(&config.cancel, rec)?;
    let journal = config.journal.as_ref();
    let mut resumed = 0u64;
    for (branch, (item, count)) in growth_order(&item_counts).into_iter().enumerate() {
        let record = journal.and_then(|j| j.lookup(FP_BRANCH, branch as u64));
        if let Some(sets) = record.as_deref().and_then(decode_class) {
            // The record's root must match the recomputed branch root, or
            // the record is ignored and the branch regrown.
            if sets.first().is_some_and(|f| f.items == [item] && f.support == count) {
                found.extend(sets);
                resumed += 1;
                continue;
            }
        }
        let branch_start = found.len();
        grow(&tree, (item, count), threshold, config, &[], &mut found)?;
        if let Some(j) = journal {
            let _ = j.append(FP_BRANCH, branch as u64, &encode_class(&found[branch_start..]));
        }
    }
    drop(grow_span);
    if journal.is_some() {
        rec.counter("robust/resume_branches_skipped", resumed);
    }
    robust::record_budget_peak(&config.budget, rec);
    rec.counter("fpgrowth.itemsets", found.len() as u64);

    // Group into levels and sort lexicographically for stable comparison
    // with Apriori output.
    let max_k = found.iter().map(|f| f.items.len()).max().unwrap_or(0);
    let mut levels: Vec<Vec<FrequentItemset>> = vec![Vec::new(); max_k];
    for mut f in found {
        f.items.sort_unstable();
        let k = f.items.len();
        levels[k - 1].push(f);
    }
    for level in &mut levels {
        level.sort_by(|a, b| a.items.cmp(&b.items));
    }

    let stats = MiningStats {
        frequent_per_level: levels.iter().map(Vec::len).collect(),
        duration: start.elapsed(),
        ..MiningStats::default()
    };
    Ok(MiningResult { levels, stats })
}

/// Reserves a conditional tree's bytes for its recursion, or refuses it
/// with [`Interrupt::BudgetExceeded`]: FP-Growth never drops a branch to
/// fit its budget.
fn guard_tree<'a>(budget: &'a MemoryBudget, tree: &FpTree) -> Result<BudgetGuard<'a>, Interrupt> {
    let requested = tree.approx_bytes();
    budget.try_guard(requested).ok_or_else(|| Interrupt::BudgetExceeded {
        stage: "mining/fpgrowth.grow".to_string(),
        requested,
        limit: budget.limit().unwrap_or(0),
    })
}

/// Items of `counts` in growth order: ascending count, ties by id.
fn growth_order(counts: &HashMap<ItemId, u64>) -> Vec<(ItemId, u64)> {
    let mut items: Vec<(ItemId, u64)> = counts.iter().map(|(&i, &c)| (i, c)).collect();
    items.sort_by_key(|&(item, count)| (count, item));
    items
}

fn fp_mine(
    tree: &FpTree,
    item_counts: &HashMap<ItemId, u64>,
    threshold: u64,
    config: &FpGrowthConfig,
    suffix: &[ItemId],
    out: &mut Vec<FrequentItemset>,
) -> Result<(), Interrupt> {
    // Each conditional tree is FP-Growth's "pass": fail-point site and
    // cooperative cancellation point.
    robust::fire("mining/fpgrowth.grow", &config.cancel);
    robust::checkpoint(&config.cancel, &config.recorder)?;
    for (item, count) in growth_order(item_counts) {
        // The KC/KC+ pruning point: a pattern containing a blocked pair —
        // and every extension of it — is never generated.
        if suffix.iter().any(|&s| config.filter.blocks(s, item)) {
            continue;
        }
        grow(tree, (item, count), threshold, config, suffix, out)?;
    }
    Ok(())
}

/// One growth step: emits `suffix ∪ {item}` with its support, then builds
/// `item`'s conditional tree over `tree` and mines it.
fn grow(
    tree: &FpTree,
    (item, count): (ItemId, u64),
    threshold: u64,
    config: &FpGrowthConfig,
    suffix: &[ItemId],
    out: &mut Vec<FrequentItemset>,
) -> Result<(), Interrupt> {
    let mut pattern = suffix.to_vec();
    pattern.push(item);
    out.push(FrequentItemset { items: pattern.clone(), support: count });

    let base = tree.conditional_base(item);
    let mut cond_counts: HashMap<ItemId, u64> = HashMap::new();
    for (path, c) in &base {
        for &p in path {
            *cond_counts.entry(p).or_insert(0) += c;
        }
    }
    cond_counts.retain(|_, c| *c >= threshold);
    if cond_counts.is_empty() {
        return Ok(());
    }
    let mut cond_tree = FpTree::new();
    for (path, c) in &base {
        let mut filtered: Vec<ItemId> =
            path.iter().copied().filter(|p| cond_counts.contains_key(p)).collect();
        // Keep a canonical order within the conditional tree.
        filtered.sort_unstable();
        if !filtered.is_empty() {
            cond_tree.insert(&filtered, *c);
        }
    }
    // The conditional tree is the recursion's memory cost; a refused
    // tree fails the run rather than lose its extensions.
    let _guard = guard_tree(&config.budget, &cond_tree)?;
    fp_mine(&cond_tree, &cond_counts, threshold, config, &pattern, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{mine, AprioriConfig};
    use crate::item::ItemCatalog;

    fn toy() -> TransactionSet {
        let mut c = ItemCatalog::new();
        for label in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(label);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]);
        ts.push(vec![0, 1, 3]);
        ts.push(vec![0, 2, 3]);
        ts.push(vec![1, 2, 4]);
        ts.push(vec![0, 1, 2, 3]);
        ts
    }

    fn sorted_sets(r: &MiningResult) -> Vec<(Vec<u32>, u64)> {
        let mut v: Vec<(Vec<u32>, u64)> =
            r.all().map(|f| (f.items.clone(), f.support)).collect();
        v.sort();
        v
    }

    #[test]
    fn agrees_with_apriori() {
        let data = toy();
        for support in [1u64, 2, 3, 4] {
            let ap = mine(&data, &AprioriConfig::apriori(MinSupport::Count(support)));
            let fp = mine_fp(&data, &FpGrowthConfig::new(MinSupport::Count(support)));
            assert_eq!(sorted_sets(&ap), sorted_sets(&fp), "support {support}");
        }
    }

    #[test]
    fn filtered_fp_growth_matches_filtered_apriori() {
        let data = toy();
        let filter = PairFilter::from_pairs([(0u32, 1u32), (2u32, 3u32)]);
        let ap = mine(
            &data,
            &AprioriConfig::apriori_kc(MinSupport::Count(1), filter.clone()),
        );
        let fp = mine_fp(
            &data,
            &FpGrowthConfig::new(MinSupport::Count(1)).with_filter(filter),
        );
        assert_eq!(sorted_sets(&ap), sorted_sets(&fp));
        // And nothing containing a blocked pair survived.
        for (items, _) in sorted_sets(&fp) {
            assert!(!(items.contains(&0) && items.contains(&1)));
            assert!(!(items.contains(&2) && items.contains(&3)));
        }
    }

    #[test]
    fn empty_input() {
        let r = mine_fp(
            &TransactionSet::new(ItemCatalog::new()),
            &FpGrowthConfig::new(MinSupport::Fraction(0.5)),
        );
        assert_eq!(r.num_frequent(), 0);
    }

    #[test]
    fn single_path_tree() {
        // All transactions identical: one path, all subsets frequent.
        let mut c = ItemCatalog::new();
        for l in ["x", "y", "z"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        for _ in 0..3 {
            ts.push(vec![0, 1, 2]);
        }
        let r = mine_fp(&ts, &FpGrowthConfig::new(MinSupport::Fraction(1.0)));
        assert_eq!(r.num_frequent(), 7); // 2^3 - 1
        assert!(r.all().all(|f| f.support == 3));
    }

    #[test]
    fn zero_budget_is_a_typed_error() {
        let got = try_mine_fp(
            &toy(),
            &FpGrowthConfig::new(MinSupport::Count(1)).with_budget(MemoryBudget::bytes(0)),
        );
        match got {
            Err(Interrupt::BudgetExceeded { stage, requested, limit }) => {
                assert_eq!(stage, "mining/fpgrowth.grow");
                assert!(requested > 0);
                assert_eq!(limit, 0);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A generous budget changes nothing and leaves nothing reserved.
        let budget = MemoryBudget::bytes(1 << 24);
        let within = try_mine_fp(
            &toy(),
            &FpGrowthConfig::new(MinSupport::Count(1)).with_budget(budget.clone()),
        )
        .expect("within budget");
        let full = mine_fp(&toy(), &FpGrowthConfig::new(MinSupport::Count(1)));
        assert_eq!(sorted_sets(&full), sorted_sets(&within));
        assert_eq!(budget.used(), 0, "tree guards release on drop");
    }

    #[test]
    fn cancelled_token_interrupts_the_run() {
        let token = geopattern_par::CancelToken::new();
        token.cancel();
        let got = try_mine_fp(&toy(), &FpGrowthConfig::new(MinSupport::Count(1)).with_cancel(token));
        assert!(matches!(got, Err(geopattern_par::Interrupt::Cancelled)), "{got:?}");
    }
}
