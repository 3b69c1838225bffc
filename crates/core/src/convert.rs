//! Bridging the spatial-database layer and the mining layer.
//!
//! A [`PredicateTable`] (rows of dictionary-encoded predicates per
//! reference feature) converts 1:1 into a mining [`TransactionSet`]: each
//! predicate becomes an item carrying its feature-type metadata, and each
//! row becomes a transaction. Predicate codes equal item ids, so knowledge
//! constraints expanded against the table are directly usable as mining
//! pair filters.

use geopattern_mining::{ItemCatalog, PairFilter, TransactionSet};
use geopattern_sdb::{KnowledgeBase, PredicateTable};

/// Converts a predicate table to a transaction set. Item ids equal
/// predicate codes: item *i* is predicate *i*, even when two predicates
/// render the same label.
pub fn to_transactions(table: &PredicateTable) -> TransactionSet {
    let mut catalog = ItemCatalog::new();
    for p in table.predicates() {
        catalog.push(p.to_string(), p.feature_type());
    }
    let mut ts = TransactionSet::new(catalog);
    for (_, codes) in table.rows() {
        ts.push(codes.clone());
    }
    ts
}

/// Expands a knowledge base against the table into a mining pair filter
/// (valid for the transaction set produced by [`to_transactions`]).
pub fn dependency_filter(kb: &KnowledgeBase, table: &PredicateTable) -> PairFilter {
    PairFilter::from_dependencies(kb.dependency_pairs(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_qsr::{SpatialPredicate, TopologicalRelation as T};
    use geopattern_sdb::Predicate;

    fn table() -> PredicateTable {
        let mut t = PredicateTable::new();
        let a = t.intern(Predicate::NonSpatial { attribute: "murderRate".into(), value: "high".into() });
        let b = t.intern(Predicate::Spatial(SpatialPredicate::topological(T::Contains, "slum")));
        let c = t.intern(Predicate::Spatial(SpatialPredicate::topological(T::Touches, "slum")));
        t.push_row("D1", vec![a, b, c]);
        t.push_row("D2", vec![a, b]);
        t
    }

    #[test]
    fn codes_align_with_item_ids() {
        let t = table();
        let ts = to_transactions(&t);
        assert_eq!(ts.catalog.len(), t.num_predicates());
        for (code, p) in t.predicates().iter().enumerate() {
            assert_eq!(ts.catalog.label(code as u32), p.to_string());
            assert_eq!(
                ts.catalog.feature_type(code as u32),
                p.feature_type(),
                "feature type preserved for {p}"
            );
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.transactions()[0], vec![0, 1, 2]);
    }

    #[test]
    fn predicates_sharing_a_label_stay_distinct_items() {
        // The attribute `contains_x` with value `y` and `contains` against
        // a relevant layer named `x=y` both render as `contains_x=y`.
        let mut t = PredicateTable::new();
        let a =
            t.intern(Predicate::NonSpatial { attribute: "contains_x".into(), value: "y".into() });
        let b = t.intern(Predicate::Spatial(SpatialPredicate::topological(T::Contains, "x=y")));
        assert_eq!(t.predicate(a).to_string(), t.predicate(b).to_string());
        t.push_row("D1", vec![a, b]);
        let ts = to_transactions(&t);
        assert_eq!(ts.catalog.len(), t.num_predicates());
        assert_eq!(ts.catalog.feature_type(a), None);
        assert_eq!(ts.catalog.feature_type(b), Some("x=y"));
        assert_eq!(ts.transactions()[0], vec![a, b]);
    }

    #[test]
    fn same_type_filter_matches_table_enumeration() {
        // The KC+ filter comes from the converted catalog, whose item ids
        // are the table's codes.
        let t = table();
        let f = PairFilter::same_feature_type(&to_transactions(&t).catalog);
        assert_eq!(f.len(), 1);
        assert!(f.blocks(1, 2));
    }

    #[test]
    fn dependency_filter_resolves_against_table() {
        let t = table();
        let mut kb = KnowledgeBase::new();
        kb.add_predicate_dependency("contains_slum", "touches_slum");
        let f = dependency_filter(&kb, &t);
        assert_eq!(f.len(), 1);
        assert!(f.blocks(1, 2));
    }
}
