//! Egenhofer topological relations derived from DE-9IM matrices.
//!
//! The paper enumerates the topological predicates of the 9-intersection
//! model (Egenhofer & Franzosa): *contains, within, touches, crosses,
//! covers, coveredBy, overlaps, equals,* and *disjoint*. [`classify`]
//! maps a matrix onto exactly one of them, honouring the
//! dimension-dependent definitions of `crosses` and `overlaps`.
//!
//! [`classify_lower_bound`] runs the same decision list on a *lower bound*
//! of a matrix, whose cells may still rise but never fall. It names a
//! relation only when every test on the path to it is already settled
//! for every completion of the bound. This is the stop rule of the
//! engine's relation entry point
//! ([`crate::PreparedGeometry::relation`]); the classification lives
//! here, beside the engine, so that the rule and the classification are
//! one decision list.

use super::matrix::{IntersectionMatrix, Pattern};
use crate::geometry::GeomDim;
use std::fmt;

/// The nine named topological relations used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopologicalRelation {
    Equals,
    Disjoint,
    Touches,
    Contains,
    Within,
    Covers,
    CoveredBy,
    Overlaps,
    Crosses,
}

impl TopologicalRelation {
    /// All nine relations.
    pub const ALL: [TopologicalRelation; 9] = [
        TopologicalRelation::Equals,
        TopologicalRelation::Disjoint,
        TopologicalRelation::Touches,
        TopologicalRelation::Contains,
        TopologicalRelation::Within,
        TopologicalRelation::Covers,
        TopologicalRelation::CoveredBy,
        TopologicalRelation::Overlaps,
        TopologicalRelation::Crosses,
    ];

    /// The converse relation: `a R b ⇔ b conv(R) a`.
    pub fn converse(self) -> TopologicalRelation {
        use TopologicalRelation::*;
        match self {
            Contains => Within,
            Within => Contains,
            Covers => CoveredBy,
            CoveredBy => Covers,
            other => other,
        }
    }

    /// Lower-camel-case name as used in the paper's predicates
    /// (`contains_slum`, `coveredBy_district`, …).
    pub fn name(self) -> &'static str {
        use TopologicalRelation::*;
        match self {
            Equals => "equals",
            Disjoint => "disjoint",
            Touches => "touches",
            Contains => "contains",
            Within => "within",
            Covers => "covers",
            CoveredBy => "coveredBy",
            Overlaps => "overlaps",
            Crosses => "crosses",
        }
    }

    /// Parses a relation name (case-insensitive).
    pub fn parse(s: &str) -> Option<TopologicalRelation> {
        let lower = s.to_ascii_lowercase();
        Self::ALL
            .iter()
            .copied()
            .find(|r| r.name().to_ascii_lowercase() == lower)
    }
}

impl fmt::Display for TopologicalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The patterns [`classify`] tests, compiled at build time.
mod patterns {
    use super::Pattern;

    /// Each geometry covers the other.
    pub const EQUALS: Pattern = Pattern::new("T*F**FFF*");
    /// Nothing of B lies outside A, and some part of B meets A.
    pub const B_INSIDE_A: [Pattern; 4] = [
        Pattern::new("T*****FF*"),
        Pattern::new("*T****FF*"),
        Pattern::new("***T**FF*"),
        Pattern::new("****T*FF*"),
    ];
    /// Nothing of A lies outside B, and some part of A meets B.
    pub const A_INSIDE_B: [Pattern; 4] = [
        Pattern::new("T*F**F***"),
        Pattern::new("*TF**F***"),
        Pattern::new("**FT*F***"),
        Pattern::new("**F*TF***"),
    ];
    /// The interiors meet.
    pub const INTERIORS_MEET: Pattern = Pattern::new("T********");
    /// The boundaries are apart.
    pub const BOUNDARIES_APART: Pattern = Pattern::new("****F****");
    /// The interiors meet and each extends beyond the other.
    pub const INTERIORS_OVERLAP: Pattern = Pattern::new("T*T***T**");
    /// The interiors meet in isolated points only.
    pub const INTERIORS_MEET_AT_POINTS: Pattern = Pattern::new("0********");
    /// The interiors are apart and some boundary meets the other operand.
    pub const BOUNDARY_CONTACT: [Pattern; 3] = [
        Pattern::new("FT*******"),
        Pattern::new("F**T*****"),
        Pattern::new("F***T****"),
    ];
}

/// Classifies a DE-9IM matrix (computed for geometries of dimensions `da`,
/// `db`) into exactly one [`TopologicalRelation`].
///
/// The relations are jointly exhaustive and pairwise disjoint: for any pair
/// of valid geometries exactly one classification is returned. The matrix
/// is turned into bit words once and tested against compiled patterns, so
/// classifying allocates nothing.
pub fn classify(m: &IntersectionMatrix, da: GeomDim, db: GeomDim) -> TopologicalRelation {
    let w = m.words();
    decide(da, db, |p| Some(w.matches(p))).expect("a complete matrix settles every test")
}

/// The relation that every completion of the lower bound `m` classifies
/// as, when [`classify`]'s own tests already settle it; `None` while some
/// test on its path could still go either way.
///
/// A completion raises any cells of `m`, never lowers one. A pattern
/// test is settled when the bound fixes its outcome: matched for good once
/// its `T` (and `2`) cells match and it has no `F`, `0` or `1` cell,
/// failed for good once an `F` cell is non-empty or an exact cell is above
/// its digit. When this returns `Some(r)`, [`classify`] returns `r` on `m`
/// itself and on every matrix above it. Only `overlaps` and `crosses` can
/// settle before the matrix is complete: every other relation rests on an
/// `F` cell that a later rise could break.
pub fn classify_lower_bound(
    m: &IntersectionMatrix,
    da: GeomDim,
    db: GeomDim,
) -> Option<TopologicalRelation> {
    let w = m.words();
    decide(da, db, |p| w.settled(p))
}

/// [`classify`]'s decision list, written once over a three-valued pattern
/// test: `Some(b)` when the test is settled, `None` when it is open. The
/// `?`s return `None` at the first open test on the path taken, so a
/// `Some` answer rests on settled tests only.
fn decide(
    da: GeomDim,
    db: GeomDim,
    test: impl Fn(Pattern) -> Option<bool>,
) -> Option<TopologicalRelation> {
    use patterns::*;
    use TopologicalRelation::*;

    // Three-valued `or` over a list: true once one test is, false once
    // all are.
    let any = |ps: &[Pattern]| {
        let mut open = false;
        for &p in ps {
            match test(p) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => open = true,
            }
        }
        (!open).then_some(false)
    };
    if test(EQUALS)? {
        return Some(Equals);
    }
    // B entirely inside A. Interiors must meet for containment; otherwise
    // it's a touch (possible only in degenerate lower-dimensional cases).
    if and(any(&B_INSIDE_A), test(INTERIORS_MEET))? {
        return Some(if test(BOUNDARIES_APART)? {
            Contains
        } else {
            Covers
        });
    }
    // A entirely inside B.
    if and(any(&A_INSIDE_B), test(INTERIORS_MEET))? {
        return Some(if test(BOUNDARIES_APART)? {
            Within
        } else {
            CoveredBy
        });
    }
    // Interiors intersect and both extend beyond the other.
    let lines = da == GeomDim::Line && db == GeomDim::Line;
    if or(
        test(INTERIORS_OVERLAP),
        and(Some(lines), test(INTERIORS_MEET_AT_POINTS)),
    )? {
        // Dimension rules: crosses when the dimensions differ, or for two
        // curves meeting at isolated points; overlaps when the common part
        // has the operands' own dimension.
        if da != db {
            return Some(Crosses);
        }
        if lines {
            return Some(if test(INTERIORS_MEET_AT_POINTS)? {
                Crosses
            } else {
                Overlaps
            });
        }
        return Some(Overlaps);
    }
    // Any remaining contact is boundary-only.
    if any(&BOUNDARY_CONTACT)? {
        return Some(Touches);
    }
    Some(Disjoint)
}

/// Three-valued `and`: false once either side is.
fn and(x: Option<bool>, y: Option<bool>) -> Option<bool> {
    match (x, y) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued `or`: true once either side is.
fn or(x: Option<bool>, y: Option<bool>) -> Option<bool> {
    match (x, y) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}
