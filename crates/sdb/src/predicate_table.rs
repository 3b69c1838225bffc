//! The predicate table: the mining algorithms' input relation.
//!
//! A row corresponds to one reference feature (the paper's "transaction";
//! e.g. a district) and holds the set of predicates true for it: both
//! non-spatial attribute predicates (`murderRate=high`) and qualitative
//! spatial predicates (`contains_slum`). Predicates are dictionary-encoded;
//! each carries the metadata the KC+ filter needs (which relevant feature
//! type it concerns, if any).

use geopattern_qsr::SpatialPredicate;
use std::collections::HashMap;
use std::fmt;

/// A predicate (dictionary entry).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Non-spatial categorical predicate, `attribute = value`.
    NonSpatial { attribute: String, value: String },
    /// Qualitative spatial predicate at feature-type granularity.
    Spatial(SpatialPredicate),
}

impl Predicate {
    /// The relevant feature type, for spatial predicates.
    pub fn feature_type(&self) -> Option<&str> {
        match self {
            Predicate::NonSpatial { .. } => None,
            Predicate::Spatial(p) => Some(&p.feature_type),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::NonSpatial { attribute, value } => write!(f, "{attribute}={value}"),
            Predicate::Spatial(p) => write!(f, "{p}"),
        }
    }
}

/// Dictionary-encoded predicate table. Codes number predicates in the
/// order they were first interned; extraction interns in row order, so a
/// table's numbering is its predicates' first appearance. Extraction also
/// keeps a row-less table as the dictionary of its vocabulary.
#[derive(Debug, Clone, Default)]
pub struct PredicateTable {
    predicates: Vec<Predicate>,
    by_predicate: HashMap<Predicate, u32>,
    /// Row label (reference feature id) plus sorted predicate codes.
    rows: Vec<(String, Vec<u32>)>,
}

impl PredicateTable {
    /// Empty table.
    pub fn new() -> PredicateTable {
        PredicateTable::default()
    }

    /// Interns a predicate, returning its code.
    pub fn intern(&mut self, p: Predicate) -> u32 {
        if let Some(&code) = self.by_predicate.get(&p) {
            return code;
        }
        let code = self.predicates.len() as u32;
        self.predicates.push(p.clone());
        self.by_predicate.insert(p, code);
        code
    }

    /// Looks up a predicate's code without interning.
    pub fn code_of(&self, p: &Predicate) -> Option<u32> {
        self.by_predicate.get(p).copied()
    }

    /// Adds a row (deduplicates and sorts its codes).
    pub fn push_row(&mut self, label: impl Into<String>, mut codes: Vec<u32>) {
        codes.sort_unstable();
        codes.dedup();
        self.rows.push((label.into(), codes));
    }

    /// The predicate dictionary, indexed by code.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The predicate for a code.
    pub fn predicate(&self, code: u32) -> &Predicate {
        &self.predicates[code as usize]
    }

    /// The rows: `(reference feature id, sorted predicate codes)`.
    pub fn rows(&self) -> &[(String, Vec<u32>)] {
        &self.rows
    }

    /// The rows, moved out of the table.
    pub fn into_rows(self) -> Vec<(String, Vec<u32>)> {
        self.rows
    }

    /// Number of rows (transactions).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct predicates.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }
}

impl fmt::Display for PredicateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, codes) in &self.rows {
            write!(f, "{label}: ")?;
            let names: Vec<String> = codes.iter().map(|&c| self.predicate(c).to_string()).collect();
            writeln!(f, "{}", names.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_qsr::TopologicalRelation as T;

    fn spatial(rel: T, ft: &str) -> Predicate {
        Predicate::Spatial(SpatialPredicate::topological(rel, ft))
    }

    fn nonspatial(a: &str, v: &str) -> Predicate {
        Predicate::NonSpatial { attribute: a.into(), value: v.into() }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = PredicateTable::new();
        let a = t.intern(spatial(T::Contains, "slum"));
        let b = t.intern(spatial(T::Contains, "slum"));
        let c = t.intern(spatial(T::Touches, "slum"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.num_predicates(), 2);
        assert_eq!(t.code_of(&spatial(T::Contains, "slum")), Some(a));
        assert_eq!(t.code_of(&spatial(T::Covers, "slum")), None);
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let mut t = PredicateTable::new();
        let a = t.intern(spatial(T::Contains, "slum"));
        let b = t.intern(spatial(T::Touches, "slum"));
        t.push_row("Nonoai", vec![b, a, b]);
        assert_eq!(t.rows()[0].1, vec![a, b]);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn display_uses_paper_notation() {
        let mut t = PredicateTable::new();
        let a = t.intern(nonspatial("murderRate", "high"));
        let b = t.intern(spatial(T::Contains, "slum"));
        t.push_row("Teresopolis", vec![a, b]);
        let s = t.to_string();
        assert!(s.contains("Teresopolis: murderRate=high, contains_slum"));
    }
}
