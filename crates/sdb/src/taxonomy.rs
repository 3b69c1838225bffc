//! Feature-type taxonomies and granularity generalisation.
//!
//! The paper mines "at more general granularity levels" \[12\] — predicates
//! over feature *types* rather than instances — and notes that its filter
//! "is effective and efficient for feature type granularities". Real
//! geographic schemas are hierarchical (a `slum` *is a* `builtArea` *is a*
//! `landUse`); mining at a coarser level generalises predicates up the
//! hierarchy, merging types. This module provides the taxonomy and the
//! table rewrite, so the KC+ filter can be applied at any granularity:
//! after generalisation, `contains_slum` and `touches_industrialArea` may
//! both become predicates over `builtArea` — and their pair becomes a
//! same-feature-type pair that KC+ removes.

use crate::predicate_table::{Predicate, PredicateTable};
use std::collections::HashMap;

/// An `is_a` hierarchy over feature-type names.
#[derive(Debug, Clone, Default)]
pub struct FeatureTypeTaxonomy {
    parent: HashMap<String, String>,
}

/// Errors building a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxonomyError {
    /// Adding the edge would create a cycle.
    Cycle { child: String, parent: String },
    /// The child already has a (different) parent.
    Reparent { child: String, existing: String },
}

impl std::fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaxonomyError::Cycle { child, parent } => {
                write!(f, "edge {child} is_a {parent} would create a cycle")
            }
            TaxonomyError::Reparent { child, existing } => {
                write!(f, "{child} already has parent {existing}")
            }
        }
    }
}

impl std::error::Error for TaxonomyError {}

impl FeatureTypeTaxonomy {
    /// Empty taxonomy (every type is its own root).
    pub fn new() -> FeatureTypeTaxonomy {
        FeatureTypeTaxonomy::default()
    }

    /// Declares `child is_a parent`. Each type has at most one parent;
    /// cycles are rejected.
    pub fn add_is_a(
        &mut self,
        child: impl Into<String>,
        parent: impl Into<String>,
    ) -> Result<&mut Self, TaxonomyError> {
        let child = child.into();
        let parent = parent.into();
        if let Some(existing) = self.parent.get(&child) {
            if *existing != parent {
                return Err(TaxonomyError::Reparent { child, existing: existing.clone() });
            }
            return Ok(self);
        }
        // Walk up from `parent`; reaching `child` means a cycle.
        let mut cur = parent.clone();
        loop {
            if cur == child {
                return Err(TaxonomyError::Cycle { child, parent });
            }
            match self.parent.get(&cur) {
                Some(p) => cur = p.clone(),
                None => break,
            }
        }
        self.parent.insert(child, parent);
        Ok(self)
    }

    /// The parent of `ty`, if declared.
    pub fn parent_of(&self, ty: &str) -> Option<&str> {
        self.parent.get(ty).map(String::as_str)
    }

    /// All ancestors of `ty`, nearest first.
    pub fn ancestors(&self, ty: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = ty;
        while let Some(p) = self.parent_of(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The type obtained by walking `levels` steps up from `ty` (stopping
    /// at the root).
    pub fn generalize<'a>(&'a self, ty: &'a str, levels: usize) -> &'a str {
        let mut cur = ty;
        for _ in 0..levels {
            match self.parent_of(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// Depth of `ty` below its root (0 for roots).
    pub fn depth(&self, ty: &str) -> usize {
        self.ancestors(ty).len()
    }

    /// The deepest leaf-to-root distance in the taxonomy (0 when empty).
    /// Generalising more than this many levels is a no-op for every type,
    /// which the pipeline treats as a configuration error.
    pub fn max_depth(&self) -> usize {
        self.parent.keys().map(|ty| self.depth(ty)).max().unwrap_or(0)
    }

    /// Rewrites a predicate table at a coarser granularity: every spatial
    /// predicate's feature type is generalised `levels` steps up, and
    /// predicates that become identical are merged per row.
    pub fn generalize_table(&self, table: &PredicateTable, levels: usize) -> PredicateTable {
        let mut out = PredicateTable::new();
        // Old code → new code.
        let mapping: Vec<u32> = table
            .predicates()
            .iter()
            .map(|p| {
                let generalized = match p {
                    Predicate::NonSpatial { .. } => p.clone(),
                    Predicate::Spatial(sp) => {
                        let mut sp = sp.clone();
                        sp.feature_type = self.generalize(&sp.feature_type, levels).to_string();
                        Predicate::Spatial(sp)
                    }
                };
                out.intern(generalized)
            })
            .collect();
        for (label, codes) in table.rows() {
            let new_codes: Vec<u32> = codes.iter().map(|&c| mapping[c as usize]).collect();
            out.push_row(label.clone(), new_codes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_qsr::{SpatialPredicate, TopologicalRelation as T};

    fn landuse_taxonomy() -> FeatureTypeTaxonomy {
        let mut t = FeatureTypeTaxonomy::new();
        t.add_is_a("slum", "builtArea").unwrap();
        t.add_is_a("industrialArea", "builtArea").unwrap();
        t.add_is_a("builtArea", "landUse").unwrap();
        t.add_is_a("park", "greenArea").unwrap();
        t.add_is_a("greenArea", "landUse").unwrap();
        t
    }

    #[test]
    fn ancestry_and_generalisation() {
        let t = landuse_taxonomy();
        assert_eq!(t.ancestors("slum"), vec!["builtArea", "landUse"]);
        assert_eq!(t.generalize("slum", 0), "slum");
        assert_eq!(t.generalize("slum", 1), "builtArea");
        assert_eq!(t.generalize("slum", 2), "landUse");
        assert_eq!(t.generalize("slum", 99), "landUse"); // clamps at root
        assert_eq!(t.generalize("school", 3), "school"); // unknown type = root
        assert_eq!(t.depth("slum"), 2);
        assert_eq!(t.depth("landUse"), 0);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(FeatureTypeTaxonomy::new().max_depth(), 0);
    }

    #[test]
    fn cycle_and_reparent_rejected() {
        let mut t = landuse_taxonomy();
        assert_eq!(
            t.add_is_a("landUse", "slum").unwrap_err(),
            TaxonomyError::Cycle { child: "landUse".into(), parent: "slum".into() }
        );
        assert_eq!(
            t.add_is_a("slum", "greenArea").unwrap_err(),
            TaxonomyError::Reparent { child: "slum".into(), existing: "builtArea".into() }
        );
        // Re-adding the same edge is idempotent.
        assert!(t.add_is_a("slum", "builtArea").is_ok());
    }

    #[test]
    fn table_generalisation_merges_types() {
        let mut table = PredicateTable::new();
        let a = table.intern(Predicate::Spatial(SpatialPredicate::topological(T::Contains, "slum")));
        let b = table.intern(Predicate::Spatial(SpatialPredicate::topological(
            T::Touches,
            "industrialArea",
        )));
        let c = table.intern(Predicate::NonSpatial {
            attribute: "murderRate".into(),
            value: "high".into(),
        });
        table.push_row("D1", vec![a, b, c]);

        let types = |t: &PredicateTable| -> Vec<String> {
            t.predicates().iter().filter_map(|p| p.feature_type()).map(str::to_string).collect()
        };
        let t = landuse_taxonomy();
        // Before generalisation: different feature types, no same-type pair.
        assert_eq!(types(&table), ["slum", "industrialArea"]);

        let coarse = t.generalize_table(&table, 1);
        let labels: Vec<String> = coarse.predicates().iter().map(|p| p.to_string()).collect();
        assert!(labels.contains(&"contains_builtArea".to_string()));
        assert!(labels.contains(&"touches_builtArea".to_string()));
        assert!(labels.contains(&"murderRate=high".to_string()));
        // Now the pair is same-feature-type — KC+ gains a target.
        assert_eq!(types(&coarse), ["builtArea", "builtArea"]);
    }

    #[test]
    fn identical_generalised_predicates_merge_per_row() {
        let mut table = PredicateTable::new();
        let a = table.intern(Predicate::Spatial(SpatialPredicate::topological(T::Contains, "slum")));
        let b = table.intern(Predicate::Spatial(SpatialPredicate::topological(
            T::Contains,
            "industrialArea",
        )));
        table.push_row("D1", vec![a, b]);
        let t = landuse_taxonomy();
        let coarse = t.generalize_table(&table, 1);
        // contains_slum and contains_industrialArea both become
        // contains_builtArea: one predicate, one occurrence in the row.
        assert_eq!(coarse.rows()[0].1.len(), 1);
        assert_eq!(coarse.predicate(coarse.rows()[0].1[0]).to_string(), "contains_builtArea");
    }
}
