//! Egenhofer topological relations derived from DE-9IM matrices.
//!
//! The paper enumerates the topological predicates of the 9-intersection
//! model (Egenhofer & Franzosa): *contains, within, touches, crosses,
//! covers, coveredBy, overlaps, equals,* and *disjoint*. [`classify`]
//! maps a matrix onto exactly one of them, honouring the
//! dimension-dependent definitions of `crosses` and `overlaps`.
//!
//! The relation type and its classification live in `geopattern-geom`,
//! beside the relate engine, whose relation entry point
//! ([`geopattern_geom::PreparedGeometry::relation`]) stops as soon as
//! [`classify_lower_bound`] decides the class. They are re-exported here
//! at their long-standing paths.

pub use geopattern_geom::{classify, classify_lower_bound, TopologicalRelation};
use geopattern_geom::Geometry;

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
}
