//! Workload-sampled strategy selection for [`CountingStrategy::Auto`].
//!
//! The policy is split in two so it can be tested as a pure function:
//! [`WorkloadStats::sample`] gathers the cheap statistics available at
//! encode time (one pass over the transaction lengths — no counting,
//! no geometry), and [`choose`] maps those statistics to a concrete
//! `(CountingStrategy, Grain)` pair. `choose` reads *nothing* but its
//! argument — no environment variables, no clocks, no host probes — so
//! the same stats always produce the same decision, and the decision can
//! be recorded, replayed, and asserted on in tests.
//!
//! The decision table (see DESIGN.md for the rationale):
//!
//! | condition (first match wins)                        | strategy    | grain  |
//! |-----------------------------------------------------|-------------|--------|
//! | budget headroom below the vertical footprint        | hash-subset | fine   |
//! | dense (mean item support ≥ `n / SPARSE_FACTOR`)     | bitmap      | coarse |
//! | otherwise (sparse)                                  | bitmap      | fine   |
//!
//! The vertical engine wins at every size measured, down to a few hundred
//! rows, and returns an empty result for a database without rows or
//! items, so it needs no tiny or degenerate rule. Density is judged
//! against the same [`SPARSE_FACTOR`] threshold the hybrid
//! [`TidList`](crate::TidList) uses to pick its representation, and only
//! sets the grain: dense columns mean few heavy classes, which want
//! coarse chunks; sparse columns mean many light classes, which want fine
//! chunks to balance.

use geopattern_par::{Grain, MemoryBudget};

use crate::apriori::CountingStrategy;
use crate::bitmap::SPARSE_FACTOR;
use crate::item::TransactionSet;

/// Cheap workload statistics sampled at encode time — everything
/// [`choose`] is allowed to look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Number of transactions (rows).
    pub transactions: usize,
    /// Number of distinct items in the catalog.
    pub items: usize,
    /// Total item occurrences across all transactions (the size of the
    /// vertical TID build).
    pub total_entries: usize,
    /// Bytes of [`MemoryBudget`] headroom at sampling time, or `None`
    /// for an unlimited budget.
    pub budget_headroom: Option<usize>,
}

impl WorkloadStats {
    /// Samples the statistics from an encoded transaction set and the
    /// budget about to govern the mining pass. One O(rows) scan of the
    /// transaction lengths; no support counting.
    pub fn sample(data: &TransactionSet, budget: &MemoryBudget) -> WorkloadStats {
        WorkloadStats {
            transactions: data.len(),
            items: data.catalog.len(),
            total_entries: data.transactions().iter().map(Vec::len).sum(),
            budget_headroom: budget.headroom(),
        }
    }

    /// Mean TIDs per item column — the support of the average item, the
    /// quantity the hybrid `TidList` compares against
    /// `transactions / SPARSE_FACTOR` when picking a representation.
    pub fn mean_item_support(&self) -> usize {
        self.total_entries.checked_div(self.items).unwrap_or(0)
    }

    /// Mean items per transaction, in parts-per-million of the item
    /// count (an integer so the stat can be recorded as a counter).
    pub fn density_ppm(&self) -> u64 {
        if self.transactions == 0 || self.items == 0 {
            return 0;
        }
        let mean_row = self.total_entries as u64 * 1_000_000 / self.transactions as u64;
        mean_row / self.items as u64
    }

    /// True when the average item column would be stored *dense* by the
    /// hybrid `TidList` (mean support × [`SPARSE_FACTOR`] ≥ rows).
    pub fn is_dense(&self) -> bool {
        self.mean_item_support().saturating_mul(SPARSE_FACTOR) >= self.transactions
    }

    /// An upper bound on the bytes of the vertical engine's per-item TID
    /// lists. Each list is either its sorted TIDs (4 bytes each) or a
    /// bitmap of `transactions` bits in whole `u64` words; the bound
    /// counts both forms for every item.
    pub fn vertical_footprint(&self) -> usize {
        let tid_bytes = self.total_entries.saturating_mul(std::mem::size_of::<u32>());
        let bitmap_bytes =
            self.items.saturating_mul(self.transactions.div_ceil(64) * std::mem::size_of::<u64>());
        tid_bytes.saturating_add(bitmap_bytes)
    }
}

/// Picks the counting strategy and parallel grain for a workload. Pure:
/// the decision is a function of `stats` alone, so it is deterministic,
/// recordable (`mining/auto_choice`), and replayable. Never returns
/// [`CountingStrategy::Auto`].
pub fn choose(stats: WorkloadStats) -> (CountingStrategy, Grain) {
    // The vertical engine materialises one TID list per frequent item up
    // front. When the budget cannot hold that footprint, stay horizontal:
    // hash-subset streams the transactions and holds only the candidate
    // table.
    if let Some(headroom) = stats.budget_headroom {
        if headroom < stats.vertical_footprint() {
            return (CountingStrategy::HashSubset, Grain::Fine);
        }
    }
    let grain = if stats.is_dense() { Grain::Coarse } else { Grain::Fine };
    (CountingStrategy::VerticalBitmap, grain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(
        transactions: usize,
        items: usize,
        total_entries: usize,
        budget_headroom: Option<usize>,
    ) -> WorkloadStats {
        WorkloadStats { transactions, items, total_entries, budget_headroom }
    }

    #[test]
    fn degenerate_workloads_fall_back_to_the_default() {
        // No rows or no items: the vertical engine returns an empty
        // result, so the default pick needs no special case.
        assert_eq!(choose(stats(0, 10, 0, None)).0, CountingStrategy::VerticalBitmap);
        assert_eq!(choose(stats(10, 0, 0, None)).0, CountingStrategy::VerticalBitmap);
    }

    #[test]
    fn tight_budgets_stay_horizontal() {
        let s = stats(100_000, 20, 1_000_000, Some(16));
        assert!(s.vertical_footprint() > 16);
        assert_eq!(choose(s), (CountingStrategy::HashSubset, Grain::Fine));
    }

    #[test]
    fn tiny_databases_use_bitmap() {
        let s = stats(100, 20, 1_000, None);
        assert_eq!(choose(s).0, CountingStrategy::VerticalBitmap);
    }

    #[test]
    fn density_picks_the_bitmap_grain() {
        // 60k rows, 17 items, mean support 20k: dense by a wide margin.
        let dense = stats(60_000, 17, 340_000, None);
        assert!(dense.is_dense());
        assert_eq!(choose(dense), (CountingStrategy::VerticalBitmap, Grain::Coarse));
        // Mean support 100 of 60k rows: 100 * 32 < 60k, sparse.
        let sparse = stats(60_000, 500, 50_000, None);
        assert!(!sparse.is_dense());
        assert_eq!(choose(sparse), (CountingStrategy::VerticalBitmap, Grain::Fine));
    }

    #[test]
    fn density_boundary_matches_the_tidlist_threshold() {
        // mean support * SPARSE_FACTOR == transactions: dense, exactly
        // like TidList::from_sorted_tids at the same cardinality.
        let n = 64_000;
        let at = stats(n, 10, (n / SPARSE_FACTOR) * 10, None);
        assert!(at.is_dense());
        let below = stats(n, 10, (n / SPARSE_FACTOR - 1) * 10, None);
        assert!(!below.is_dense());
    }
}
