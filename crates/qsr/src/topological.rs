//! Egenhofer topological relations derived from DE-9IM matrices.
//!
//! The paper enumerates the topological predicates of the 9-intersection
//! model (Egenhofer & Franzosa): *contains, within, touches, crosses,
//! covers, coveredBy, overlaps, equals,* and *disjoint*. This module
//! classifies an [`IntersectionMatrix`] into exactly one of them, honouring
//! the dimension-dependent definitions of `crosses` and `overlaps`.

use geopattern_geom::{GeomDim, Geometry, IntersectionMatrix, Pattern};
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
        Self::ALL.iter().copied().find(|r| r.name().to_ascii_lowercase() == lower)
    }
}

impl fmt::Display for TopologicalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The patterns [`classify`] tests, compiled at build time.
mod patterns {
    use geopattern_geom::Pattern;

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
    use patterns::*;
    use TopologicalRelation::*;

    let w = m.words();
    let any = |ps: &[Pattern]| ps.iter().any(|&p| w.matches(p));
    if w.matches(EQUALS) {
        return Equals;
    }
    // B entirely inside A. Interiors must meet for containment; otherwise
    // it's a touch (possible only in degenerate lower-dimensional cases).
    if any(&B_INSIDE_A) && w.matches(INTERIORS_MEET) {
        return if w.matches(BOUNDARIES_APART) { Contains } else { Covers };
    }
    // A entirely inside B.
    if any(&A_INSIDE_B) && w.matches(INTERIORS_MEET) {
        return if w.matches(BOUNDARIES_APART) { Within } else { CoveredBy };
    }
    // Interiors intersect and both extend beyond the other.
    let lines = da == GeomDim::Line && db == GeomDim::Line;
    if w.matches(INTERIORS_OVERLAP) || (lines && w.matches(INTERIORS_MEET_AT_POINTS)) {
        // Dimension rules: crosses when the dimensions differ, or for two
        // curves meeting at isolated points; overlaps when the common part
        // has the operands' own dimension.
        if da != db {
            return Crosses;
        }
        if lines {
            return if w.matches(INTERIORS_MEET_AT_POINTS) { Crosses } else { Overlaps };
        }
        return Overlaps;
    }
    // Any remaining contact is boundary-only.
    if any(&BOUNDARY_CONTACT) {
        return Touches;
    }
    Disjoint
}

/// Convenience: relate two geometries and classify the result.
pub fn topological_relation(a: &Geometry, b: &Geometry) -> TopologicalRelation {
    classify(&geopattern_geom::relate(a, b), a.dimension(), b.dimension())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_geom::{coord, from_wkt, Polygon};

    fn rel(a: &str, b: &str) -> TopologicalRelation {
        topological_relation(&from_wkt(a).unwrap(), &from_wkt(b).unwrap())
    }

    #[test]
    fn region_region_relations() {
        use TopologicalRelation::*;
        let big = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
        let small = "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))";
        let edge_small = "POLYGON ((2 0, 4 0, 4 4, 2 4, 2 0))";
        let apart = "POLYGON ((20 20, 21 20, 21 21, 20 21, 20 20))";
        let touch_edge = "POLYGON ((10 0, 12 0, 12 10, 10 10, 10 0))";
        let touch_pt = "POLYGON ((10 10, 11 10, 11 11, 10 11, 10 10))";
        let overlap = "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))";

        assert_eq!(rel(big, big), Equals);
        assert_eq!(rel(big, small), Contains);
        assert_eq!(rel(small, big), Within);
        assert_eq!(rel(big, edge_small), Covers);
        assert_eq!(rel(edge_small, big), CoveredBy);
        assert_eq!(rel(big, apart), Disjoint);
        assert_eq!(rel(big, touch_edge), Touches);
        assert_eq!(rel(big, touch_pt), Touches);
        assert_eq!(rel(big, overlap), Overlaps);
    }

    #[test]
    fn line_region_relations() {
        use TopologicalRelation::*;
        let region = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
        assert_eq!(rel("LINESTRING (-1 5, 11 5)", region), Crosses);
        assert_eq!(rel(region, "LINESTRING (-1 5, 11 5)"), Crosses);
        assert_eq!(rel("LINESTRING (2 2, 8 8)", region), Within);
        assert_eq!(rel(region, "LINESTRING (2 2, 8 8)"), Contains);
        // Line inside, touching the boundary at one endpoint: coveredBy.
        assert_eq!(rel("LINESTRING (0 5, 5 5)", region), CoveredBy);
        assert_eq!(rel("LINESTRING (-5 0, -1 0)", region), Disjoint);
        // Along the bottom edge from outside.
        assert_eq!(rel("LINESTRING (-1 0, 11 0)", region), Touches);
        // Touching a corner.
        assert_eq!(rel("LINESTRING (10 10, 15 15)", region), Touches);
    }

    #[test]
    fn line_line_relations() {
        use TopologicalRelation::*;
        assert_eq!(rel("LINESTRING (0 0, 2 2)", "LINESTRING (0 2, 2 0)"), Crosses);
        assert_eq!(rel("LINESTRING (0 0, 4 0)", "LINESTRING (2 0, 6 0)"), Overlaps);
        assert_eq!(rel("LINESTRING (0 0, 4 0)", "LINESTRING (0 0, 4 0)"), Equals);
        assert_eq!(rel("LINESTRING (1 0, 2 0)", "LINESTRING (0 0, 4 0)"), Within);
        assert_eq!(rel("LINESTRING (0 0, 4 0)", "LINESTRING (1 0, 2 0)"), Contains);
        assert_eq!(rel("LINESTRING (0 0, 1 0)", "LINESTRING (5 0, 6 0)"), Disjoint);
        // Endpoint-to-endpoint contact.
        assert_eq!(rel("LINESTRING (0 0, 1 0)", "LINESTRING (1 0, 2 1)"), Touches);
        // A sub-line sharing an endpoint with its container: coveredBy.
        assert_eq!(rel("LINESTRING (0 0, 2 0)", "LINESTRING (0 0, 4 0)"), CoveredBy);
    }

    #[test]
    fn point_relations() {
        use TopologicalRelation::*;
        let region = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
        assert_eq!(rel("POINT (5 5)", region), Within);
        assert_eq!(rel(region, "POINT (5 5)"), Contains);
        assert_eq!(rel("POINT (0 5)", region), Touches);
        assert_eq!(rel("POINT (50 50)", region), Disjoint);
        assert_eq!(rel("POINT (1 1)", "POINT (1 1)"), Equals);
        assert_eq!(rel("POINT (1 1)", "POINT (2 2)"), Disjoint);
        // Multipoint straddling a region crosses it (0-dim vs 2-dim).
        assert_eq!(rel("MULTIPOINT ((5 5), (50 50))", region), Crosses);
        // Point on a line's interior: within.
        assert_eq!(rel("POINT (2 0)", "LINESTRING (0 0, 4 0)"), Within);
        assert_eq!(rel("POINT (0 0)", "LINESTRING (0 0, 4 0)"), Touches);
    }

    #[test]
    fn exactly_one_relation_for_region_pairs() {
        // JEPD check over a grid of rectangle pairs.
        let base = Polygon::rect(coord(0.0, 0.0), coord(4.0, 4.0)).unwrap();
        let a: Geometry = base.into();
        for dx in 0..10 {
            for dy in 0..6 {
                let x0 = dx as f64 - 2.0;
                let y0 = dy as f64 - 2.0;
                let b: Geometry =
                    Polygon::rect(coord(x0, y0), coord(x0 + 2.0, y0 + 2.0)).unwrap().into();
                let r1 = topological_relation(&a, &b);
                let r2 = topological_relation(&b, &a);
                assert_eq!(r1.converse(), r2, "converse mismatch at dx={dx} dy={dy}: {r1} vs {r2}");
            }
        }
    }

    #[test]
    fn names_and_parse() {
        for r in TopologicalRelation::ALL {
            assert_eq!(TopologicalRelation::parse(r.name()), Some(r));
            assert_eq!(TopologicalRelation::parse(&r.name().to_uppercase()), Some(r));
        }
        assert_eq!(TopologicalRelation::parse("nonsense"), None);
        assert_eq!(TopologicalRelation::Covers.name(), "covers");
        assert_eq!(TopologicalRelation::CoveredBy.to_string(), "coveredBy");
    }

    #[test]
    fn converse_involution() {
        for r in TopologicalRelation::ALL {
            assert_eq!(r.converse().converse(), r);
        }
        assert_eq!(TopologicalRelation::Contains.converse(), TopologicalRelation::Within);
        assert_eq!(TopologicalRelation::Touches.converse(), TopologicalRelation::Touches);
    }

    use geopattern_geom::Geometry;
}
