//! Transactional workload generators reproducing the *statistics* of the
//! paper's two experiments (§4.2).
//!
//! The original datasets are not published; the paper characterises them
//! only by aggregate properties, which these generators match exactly:
//!
//! * **Experiment 1** (Figures 4 & 5): one non-spatial attribute and six
//!   geographic object types yielding **13 spatial predicates**, of which
//!   **9 pairs** share a feature type and **4 pairs** are well-known
//!   dependencies; mined at minimum support 5%, 10%, 15%.
//! * **Experiment 2** (Figures 6 & 7): **10 spatial predicates** with
//!   **5 same-feature-type pairs** and no dependencies; mined at minimum
//!   support 5%–17%. The paper pins the shape of the largest frequent
//!   itemsets (m=8 with u=3, t=(2,2,2), n=2 at 5%; m=7 with n=1 at 17%),
//!   which the generator's injected core patterns reproduce.
//!
//! Rows are synthesised with geographically-plausible correlations: when a
//! feature type is "present" around a reference feature it tends to hold
//! *several* qualitative relations at once (a district containing slums
//! usually also touches or overlaps others) — precisely the mechanism that
//! makes same-feature-type pairs frequent and the KC+ filter effective.

use geopattern_mining::{ItemCatalog, ItemId, PairFilter, TransactionSet};
use geopattern_testkit::Rng;

/// Relation-name pool used for synthetic spatial predicates.
const RELATIONS: [&str; 5] = ["contains", "touches", "overlaps", "covers", "crosses"];
/// Feature-type-name pool.
const TYPES: [&str; 8] =
    ["slum", "school", "street", "river", "park", "hospital", "factory", "market"];

/// Specification of a synthetic transactional experiment.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Qualitative relations per feature type (`t_k` of the paper).
    pub relations_per_type: Vec<usize>,
    /// Number of values of the single non-spatial attribute (0 = none).
    pub nonspatial_values: usize,
    /// Well-known dependency pairs, as (type index, type index) — the
    /// first relation of each type forms the dependent predicate pair.
    pub dependencies: Vec<(usize, usize)>,
    /// Number of rows (reference features).
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a feature type is "present" around a row's
    /// reference feature.
    pub type_presence: f64,
    /// Probability of each relation of a present type appearing.
    pub rel_given_present: f64,
    /// Background noise probability for relations of absent types.
    pub rel_noise: f64,
    /// Probability that a dependency's partner predicate joins a row that
    /// already holds the first predicate.
    pub dependency_strength: f64,
    /// Injected core patterns: (items, probability of the row containing
    /// them). Probabilities are cumulative-exclusive in order.
    pub core_patterns: Vec<(Vec<ItemId>, f64)>,
}

/// A generated experiment: the transactions plus the filters the three
/// algorithms use.
#[derive(Debug)]
pub struct Experiment {
    /// The transaction set.
    pub data: TransactionSet,
    /// The `Φ` dependency filter (empty when the spec declares none).
    pub dependencies: PairFilter,
    /// The same-feature-type filter.
    pub same_type: PairFilter,
}

impl ExperimentSpec {
    /// Builds the item catalog implied by the spec. Items are numbered
    /// spatial-first, grouped by type, then non-spatial values.
    pub fn catalog(&self) -> ItemCatalog {
        let mut catalog = ItemCatalog::new();
        for (k, &t) in self.relations_per_type.iter().enumerate() {
            let ty = TYPES[k % TYPES.len()];
            for r in 0..t {
                let rel = RELATIONS[r % RELATIONS.len()];
                catalog.intern_spatial(format!("{rel}_{ty}"), ty);
            }
        }
        for v in 0..self.nonspatial_values {
            catalog.intern_attribute(format!("crimeRate=v{v}"));
        }
        catalog
    }

    /// First-relation item id of feature type `k`.
    fn first_item_of_type(&self, k: usize) -> ItemId {
        self.relations_per_type[..k].iter().sum::<usize>() as ItemId
    }

    /// Generates the experiment.
    pub fn generate(&self) -> Experiment {
        let catalog = self.catalog();
        let num_spatial: usize = self.relations_per_type.iter().sum();
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut data = TransactionSet::new(catalog);

        let dep_items: Vec<(ItemId, ItemId)> = self
            .dependencies
            .iter()
            .map(|&(a, b)| (self.first_item_of_type(a), self.first_item_of_type(b)))
            .collect();

        for _ in 0..self.rows {
            let mut items: Vec<ItemId> = Vec::new();

            // Core-pattern injection (exclusive bands of the unit interval).
            let roll: f64 = rng.f64();
            let mut acc = 0.0;
            for (pattern, frac) in &self.core_patterns {
                if roll >= acc && roll < acc + frac {
                    items.extend(pattern.iter().copied());
                    break;
                }
                acc += frac;
            }

            // Correlated per-type relation sampling. A per-row "activity"
            // multiplier (dense vs sparse neighbourhoods) correlates the
            // feature types with each other, so multi-type itemsets stay
            // frequent at higher support thresholds — as they do in real
            // cities, where dense districts host everything at once.
            let activity: f64 = 0.45 + 1.10 * rng.f64();
            let mut item = 0u32;
            for &t in &self.relations_per_type {
                let present = rng.chance((self.type_presence * activity).min(1.0));
                for _ in 0..t {
                    let p = if present { self.rel_given_present } else { self.rel_noise };
                    if rng.chance(p) {
                        items.push(item);
                    }
                    item += 1;
                }
            }

            // Dependencies: a well-known pattern means the partner
            // predicate frequently co-occurs.
            for &(a, b) in &dep_items {
                if items.contains(&a) && rng.chance(self.dependency_strength) {
                    items.push(b);
                }
            }

            // Exactly one value of the non-spatial attribute per row.
            if self.nonspatial_values > 0 {
                let v = rng.below_usize(self.nonspatial_values) as u32;
                items.push(num_spatial as u32 + v);
            }

            data.push(items);
        }

        let dependencies = PairFilter::from_dependencies(dep_items);
        let same_type = PairFilter::same_feature_type(&data.catalog);
        Experiment { data, dependencies, same_type }
    }
}

/// Experiment 1 of the paper: 13 spatial predicates over 6 feature types
/// (9 same-type pairs), one non-spatial attribute, 4 dependency pairs.
pub fn experiment1(seed: u64) -> Experiment {
    let spec = ExperimentSpec {
        // 3+3+2+2+2+1 = 13 predicates; C(3,2)+C(3,2)+1+1+1 = 9 pairs.
        relations_per_type: vec![3, 3, 2, 2, 2, 1],
        nonspatial_values: 4,
        // 4 well-known dependencies between distinct feature types.
        dependencies: vec![(0, 2), (1, 3), (2, 5), (3, 4)],
        rows: 600,
        seed,
        type_presence: 0.33,
        rel_given_present: 0.90,
        rel_noise: 0.04,
        dependency_strength: 0.40,
        // Three "dense neighbourhood" archetypes keep same-feature-type
        // structure frequent across the whole 5%..15% minsup range
        // (items: slum 0-2, school 3-5, street 6-7, river 8-9, park 10-11,
        // hospital 12, crime values 13-16; (0,6), (3,8), (6,12), (8,10)
        // are the dependency pairs).
        core_patterns: vec![
            (vec![0, 1, 2, 6, 13], 0.20),
            (vec![3, 4, 5, 10, 14], 0.13),
            (vec![0, 1, 3, 4, 10, 11, 15], 0.07),
        ],
    };
    spec.generate()
}

/// Experiment 2 of the paper: 10 spatial predicates over 5 feature types
/// (5 same-type pairs), no dependencies. Core patterns pin the largest
/// frequent itemset shapes the paper reports (§4.2).
pub fn experiment2(seed: u64) -> Experiment {
    // Items: type k has items {2k, 2k+1}.
    let core8: Vec<ItemId> = vec![0, 1, 2, 3, 4, 5, 6, 8]; // 3 full pairs + items of types 3,4
    let core7: Vec<ItemId> = core8[..7].to_vec();
    let spec = ExperimentSpec {
        relations_per_type: vec![2, 2, 2, 2, 2],
        nonspatial_values: 0,
        dependencies: Vec::new(),
        rows: 600,
        seed,
        type_presence: 0.30,
        rel_given_present: 0.74,
        rel_noise: 0.04,
        dependency_strength: 0.0,
        core_patterns: vec![(core8, 0.08), (core7, 0.10), (vec![0, 1, 2, 3], 0.10), (vec![4, 5, 8], 0.04)],
    };
    spec.generate()
}

/// A seeded sparse "market basket" workload: `rows` rows of `per_row`
/// distinct items (at most `items`) drawn from `items` items with Zipf
/// weights, item `r` weighted `1/(r+1)`. Item `r` is a spatial predicate
/// of feature type `f{r/5}`, so every five consecutive items share a
/// type and the same-feature-type filter has work to do. Many items and
/// short rows make this the opposite of the paper's two experiments:
/// pass-2 pair joins cost more than one scan of the rows.
pub fn sparse_baskets(rows: usize, items: usize, per_row: usize, seed: u64) -> Experiment {
    let mut catalog = ItemCatalog::new();
    for r in 0..items {
        let ty = format!("f{}", r / RELATIONS.len());
        catalog.intern_spatial(format!("{}_{ty}", RELATIONS[r % RELATIONS.len()]), &ty);
    }
    // Cumulative Zipf weights; a uniform draw below the total picks the
    // first item whose cumulative weight exceeds it.
    let cumulative: Vec<f64> = (1..=items)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cumulative.last().copied().unwrap_or(0.0);
    let per_row = per_row.min(items);
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = TransactionSet::new(catalog);
    for _ in 0..rows {
        let mut row: Vec<ItemId> = Vec::with_capacity(per_row);
        while row.len() < per_row {
            let x = rng.f64() * total;
            let item = cumulative.partition_point(|&c| c <= x).min(items - 1) as ItemId;
            if !row.contains(&item) {
                row.push(item);
            }
        }
        data.push(row);
    }
    let same_type = PairFilter::same_feature_type(&data.catalog);
    Experiment { data, dependencies: PairFilter::none(), same_type }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_mining::{mine, AprioriConfig, MinSupport};

    #[test]
    fn sparse_baskets_are_seeded_zipf_rows() {
        let e = sparse_baskets(2_000, 50, 6, 3);
        assert_eq!(e.data.len(), 2_000);
        assert_eq!(e.data.catalog.len(), 50);
        assert!(e.data.transactions().iter().all(|t| t.len() == 6));
        // Ten types of five relations: C(5,2) same-type pairs each.
        assert_eq!(e.same_type.len(), 10 * 10);
        let support = |i: ItemId| e.data.transactions().iter().filter(|t| t.contains(&i)).count();
        assert!(support(0) > support(9) && support(9) > support(49));
        let again = sparse_baskets(2_000, 50, 6, 3);
        assert_eq!(e.data.transactions(), again.data.transactions());
        assert_ne!(e.data.transactions(), sparse_baskets(2_000, 50, 6, 4).data.transactions());
    }

    #[test]
    fn experiment1_matches_paper_statistics() {
        let e = experiment1(42);
        // 13 spatial predicates + 4 values of the one non-spatial attribute.
        assert_eq!(e.data.catalog.len(), 17);
        let spatial = (0..17u32)
            .filter(|&i| e.data.catalog.feature_type(i).is_some())
            .count();
        assert_eq!(spatial, 13);
        assert_eq!(e.same_type.len(), 9);
        assert_eq!(e.dependencies.len(), 4);
        assert_eq!(e.data.len(), 600);
    }

    #[test]
    fn experiment2_matches_paper_statistics() {
        let e = experiment2(42);
        assert_eq!(e.data.catalog.len(), 10);
        assert_eq!(e.same_type.len(), 5);
        assert!(e.dependencies.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = experiment2(7);
        let b = experiment2(7);
        assert_eq!(a.data.transactions(), b.data.transactions());
        let c = experiment2(8);
        assert_ne!(a.data.transactions(), c.data.transactions());
    }

    #[test]
    fn kc_plus_reduces_substantially_on_experiment2() {
        let e = experiment2(42);
        let plain = mine(&e.data, &AprioriConfig::apriori(MinSupport::Fraction(0.05)));
        let kcp = mine(
            &e.data,
            &AprioriConfig::apriori_kc_plus(
                MinSupport::Fraction(0.05),
                PairFilter::none(),
                e.same_type.clone(),
            ),
        );
        let reduction =
            1.0 - kcp.num_frequent_min2() as f64 / plain.num_frequent_min2() as f64;
        assert!(
            reduction > 0.55,
            "expected >55% reduction, got {:.1}% ({} vs {})",
            reduction * 100.0,
            plain.num_frequent_min2(),
            kcp.num_frequent_min2()
        );
    }

    #[test]
    fn experiment2_largest_itemset_shapes() {
        let e = experiment2(42);
        // At 5%: the largest frequent itemset is the injected 8-core.
        let r5 = mine(&e.data, &AprioriConfig::apriori(MinSupport::Fraction(0.05)));
        assert_eq!(r5.max_size(), 8, "largest itemset at 5% support");
        // At 17%: only the 7-core survives.
        let r17 = mine(&e.data, &AprioriConfig::apriori(MinSupport::Fraction(0.17)));
        assert_eq!(r17.max_size(), 7, "largest itemset at 17% support");
    }
}
