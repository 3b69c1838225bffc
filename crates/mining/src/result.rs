//! Mining outputs: frequent itemsets, per-run statistics, support spec.

use crate::item::{ItemCatalog, ItemId};
use std::collections::HashMap;
use std::time::Duration;

/// Minimum-support threshold, as a fraction of rows or an absolute count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSupport {
    /// Fraction of the number of transactions, in `(0, 1]`.
    Fraction(f64),
    /// Absolute number of transactions.
    Count(u64),
}

impl MinSupport {
    /// The absolute count threshold for a database of `n` transactions.
    /// Fractions round up (a set is frequent when its count ≥ the
    /// threshold), with a floor of 1.
    pub fn threshold(&self, n: usize) -> u64 {
        match *self {
            MinSupport::Fraction(f) => ((f * n as f64).ceil() as u64).max(1),
            MinSupport::Count(c) => c.max(1),
        }
    }
}

/// One frequent itemset with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Sorted item ids.
    pub items: Vec<ItemId>,
    /// Number of transactions containing the set.
    pub support: u64,
}

impl FrequentItemset {
    /// Itemset size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the (never produced) empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Statistics of one mining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningStats {
    /// Candidates generated per pass (index 0 = k=1).
    pub candidates_per_level: Vec<usize>,
    /// Frequent sets found per pass (index 0 = k=1).
    pub frequent_per_level: Vec<usize>,
    /// Pairs removed from C₂ as well-known dependencies (Apriori-KC).
    pub pairs_removed_dependencies: usize,
    /// Pairs removed from C₂ as same-feature-type pairs (Apriori-KC+).
    pub pairs_removed_same_type: usize,
    /// Wall-clock time of the run.
    pub duration: Duration,
}

/// The result of a frequent-itemset mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningResult {
    /// Frequent itemsets grouped by size: `levels[0]` holds the 1-sets.
    pub levels: Vec<Vec<FrequentItemset>>,
    /// Run statistics.
    pub stats: MiningStats,
}

impl MiningResult {
    /// All frequent itemsets, every size.
    pub fn all(&self) -> impl Iterator<Item = &FrequentItemset> {
        self.levels.iter().flatten()
    }

    /// Frequent itemsets of size ≥ `k`.
    pub fn with_min_size(&self, k: usize) -> impl Iterator<Item = &FrequentItemset> {
        self.levels.iter().skip(k.saturating_sub(1)).flatten()
    }

    /// Total number of frequent itemsets (all sizes).
    pub fn num_frequent(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Number of frequent itemsets of size ≥ 2 — the count the paper's
    /// tables and figures report.
    pub fn num_frequent_min2(&self) -> usize {
        self.levels.iter().skip(1).map(Vec::len).sum()
    }

    /// Size of the largest frequent itemset (0 when none).
    pub fn max_size(&self) -> usize {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, l)| !l.is_empty())
            .map(|(i, _)| i + 1)
            .unwrap_or(0)
    }

    /// Support lookup map (itemset → count) over all frequent sets.
    pub fn support_map(&self) -> HashMap<Vec<ItemId>, u64> {
        self.all().map(|f| (f.items.clone(), f.support)).collect()
    }

    /// Renders all itemsets of size ≥ `min_size` as label strings.
    pub fn render(&self, catalog: &ItemCatalog, min_size: usize) -> Vec<String> {
        self.with_min_size(min_size)
            .map(|f| format!("{} (support {})", catalog.render_itemset(&f.items), f.support))
            .collect()
    }

    /// True when every frequent itemset's items are sorted and every
    /// immediate subset of every k-set (k ≥ 2) is also frequent — the
    /// downward-closure invariant. Used by tests.
    pub fn check_downward_closure(&self) -> bool {
        let support = self.support_map();
        for f in self.with_min_size(2) {
            if !f.items.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            for skip in 0..f.items.len() {
                let mut sub = f.items.clone();
                sub.remove(skip);
                match support.get(&sub) {
                    // Anti-monotonicity: a subset is at least as frequent.
                    Some(&s) if s >= f.support => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_computation() {
        assert_eq!(MinSupport::Fraction(0.5).threshold(6), 3);
        assert_eq!(MinSupport::Fraction(0.5).threshold(5), 3); // ceil
        assert_eq!(MinSupport::Fraction(0.05).threshold(100), 5);
        assert_eq!(MinSupport::Fraction(0.0001).threshold(10), 1); // floor 1
        assert_eq!(MinSupport::Count(7).threshold(100), 7);
        assert_eq!(MinSupport::Count(0).threshold(100), 1);
    }

    fn fi(items: &[u32], support: u64) -> FrequentItemset {
        FrequentItemset { items: items.to_vec(), support }
    }

    #[test]
    fn result_accessors() {
        let r = MiningResult {
            levels: vec![
                vec![fi(&[0], 5), fi(&[1], 4), fi(&[2], 3)],
                vec![fi(&[0, 1], 4), fi(&[0, 2], 3)],
                vec![fi(&[0, 1, 2], 3)],
            ],
            stats: MiningStats::default(),
        };
        assert_eq!(r.num_frequent(), 6);
        assert_eq!(r.num_frequent_min2(), 3);
        assert_eq!(r.max_size(), 3);
        assert_eq!(r.with_min_size(2).count(), 3);
        assert_eq!(r.support_map()[&vec![0, 1]], 4);
    }

    #[test]
    fn downward_closure_detects_violations() {
        let good = MiningResult {
            levels: vec![
                vec![fi(&[0], 5), fi(&[1], 4)],
                vec![fi(&[0, 1], 4)],
            ],
            stats: MiningStats::default(),
        };
        assert!(good.check_downward_closure());

        // Missing subset {1}.
        let bad = MiningResult {
            levels: vec![vec![fi(&[0], 5)], vec![fi(&[0, 1], 4)]],
            stats: MiningStats::default(),
        };
        assert!(!bad.check_downward_closure());

        // Support exceeding subset support.
        let bad2 = MiningResult {
            levels: vec![
                vec![fi(&[0], 3), fi(&[1], 4)],
                vec![fi(&[0, 1], 4)],
            ],
            stats: MiningStats::default(),
        };
        assert!(!bad2.check_downward_closure());
    }

    #[test]
    fn empty_result() {
        let r = MiningResult::default();
        assert_eq!(r.num_frequent(), 0);
        assert_eq!(r.max_size(), 0);
        assert!(r.check_downward_closure());
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn oversized_fraction_thresholds() {
        // A fraction above 1 demands more rows than exist: nothing mines.
        assert_eq!(MinSupport::Fraction(1.5).threshold(10), 15);
        assert_eq!(MinSupport::Fraction(2.0).threshold(0), 1);
    }

    #[test]
    fn with_min_size_beyond_levels_is_empty() {
        let r = MiningResult {
            levels: vec![vec![FrequentItemset { items: vec![0], support: 1 }]],
            stats: MiningStats::default(),
        };
        assert_eq!(r.with_min_size(5).count(), 0);
        assert_eq!(r.with_min_size(0).count(), 1); // clamps to 1
    }
}
