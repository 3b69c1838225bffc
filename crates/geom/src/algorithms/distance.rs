//! Minimum Euclidean distance between geometries.
//!
//! Distance is the substrate for the *qualitative distance* relations
//! (`very_close`, `close`, `far`, …) used by the predicate-extraction
//! engine: the numeric distance between a reference and a relevant feature
//! is quantised into named bands by `geopattern-qsr`.

use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::polygon::{PointLocation, Polygon};
use crate::segment::Segment;

/// Minimum distance between any two geometries. Zero when they intersect.
pub fn geometry_distance(a: &Geometry, b: &Geometry) -> f64 {
    use Geometry::*;
    match (a, b) {
        (Point(p), _) => coord_to_geometry(p.coord(), b),
        (_, Point(p)) => coord_to_geometry(p.coord(), a),
        (MultiPoint(mp), _) => mp
            .coords()
            .iter()
            .map(|&c| coord_to_geometry(c, b))
            .fold(f64::INFINITY, f64::min),
        (_, MultiPoint(mp)) => mp
            .coords()
            .iter()
            .map(|&c| coord_to_geometry(c, a))
            .fold(f64::INFINITY, f64::min),
        (LineString(l1), LineString(l2)) => {
            segs_to_segs(l1.segments(), &l2.segments().collect::<Vec<_>>())
        }
        (LineString(l), MultiLineString(m)) | (MultiLineString(m), LineString(l)) => {
            segs_to_segs(l.segments(), &m.segments().collect::<Vec<_>>())
        }
        (MultiLineString(m1), MultiLineString(m2)) => {
            segs_to_segs(m1.segments(), &m2.segments().collect::<Vec<_>>())
        }
        (LineString(l), Polygon(p)) | (Polygon(p), LineString(l)) => line_to_polygon(l, p),
        (LineString(l), MultiPolygon(mp)) | (MultiPolygon(mp), LineString(l)) => mp
            .polygons()
            .iter()
            .map(|p| line_to_polygon(l, p))
            .fold(f64::INFINITY, f64::min),
        (MultiLineString(m), Polygon(p)) | (Polygon(p), MultiLineString(m)) => m
            .lines()
            .iter()
            .map(|l| line_to_polygon(l, p))
            .fold(f64::INFINITY, f64::min),
        (MultiLineString(m), MultiPolygon(mp)) | (MultiPolygon(mp), MultiLineString(m)) => m
            .lines()
            .iter()
            .flat_map(|l| mp.polygons().iter().map(move |p| line_to_polygon(l, p)))
            .fold(f64::INFINITY, f64::min),
        (Polygon(p1), Polygon(p2)) => polygon_to_polygon(p1, p2),
        (Polygon(p), MultiPolygon(mp)) | (MultiPolygon(mp), Polygon(p)) => mp
            .polygons()
            .iter()
            .map(|q| polygon_to_polygon(p, q))
            .fold(f64::INFINITY, f64::min),
        (MultiPolygon(a), MultiPolygon(b)) => a
            .polygons()
            .iter()
            .flat_map(|p| b.polygons().iter().map(move |q| polygon_to_polygon(p, q)))
            .fold(f64::INFINITY, f64::min),
    }
}

/// Distance from a bare coordinate to a geometry (0 when covered).
pub fn coord_to_geometry(c: Coord, g: &Geometry) -> f64 {
    match g {
        Geometry::Point(p) => c.distance(p.coord()),
        Geometry::MultiPoint(mp) => mp
            .coords()
            .iter()
            .map(|&q| c.distance(q))
            .fold(f64::INFINITY, f64::min),
        Geometry::LineString(l) => coord_to_segments(c, l.segments()),
        Geometry::MultiLineString(m) => coord_to_segments(c, m.segments()),
        Geometry::Polygon(p) => coord_to_polygon(c, p),
        Geometry::MultiPolygon(mp) => mp
            .polygons()
            .iter()
            .map(|p| coord_to_polygon(c, p))
            .fold(f64::INFINITY, f64::min),
    }
}

fn coord_to_segments<I: Iterator<Item = Segment>>(c: Coord, segs: I) -> f64 {
    segs.map(|s| s.distance_to_point(c)).fold(f64::INFINITY, f64::min)
}

fn coord_to_polygon(c: Coord, p: &Polygon) -> f64 {
    if p.locate(c) != PointLocation::Outside {
        return 0.0;
    }
    coord_to_segments(c, p.boundary_segments())
}

fn segs_to_segs<I>(a: I, b: &[Segment]) -> f64
where
    I: Iterator<Item = Segment>,
{
    let mut best = f64::INFINITY;
    for sa in a {
        for sb in b {
            best = best.min(sa.distance_to_segment(sb));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    best
}

fn line_to_polygon(l: &LineString, p: &Polygon) -> f64 {
    // Any vertex inside the polygon means they intersect.
    if l.coords().iter().any(|&c| p.locate(c) != PointLocation::Outside) {
        return 0.0;
    }
    segs_to_segs(l.segments(), &p.boundary_segments().collect::<Vec<_>>())
}

/// Minimum distance between two geometries if it does not exceed `bound`,
/// else `None`.
///
/// `Some(d)` is returned iff `d <= bound` (a bound exactly equal to the
/// distance is within), and `d` is bit-identical to
/// [`geometry_distance`] on the same pair. The computation is
/// branch-and-bound over packed segment R-trees, pruning subtree pairs
/// whose box-to-box distance already exceeds `bound` — sublinear when the
/// geometries are far apart relative to their extent. For repeated queries
/// against the same geometry, build [`crate::prepared::PreparedGeometry`]
/// once and call [`crate::prepared::PreparedGeometry::distance_within`]
/// directly; this convenience wrapper prepares both operands per call.
pub fn geometry_distance_within(a: &Geometry, b: &Geometry, bound: f64) -> Option<f64> {
    crate::prepared::PreparedGeometry::new(a)
        .distance_within(&crate::prepared::PreparedGeometry::new(b), bound)
}

fn polygon_to_polygon(a: &Polygon, b: &Polygon) -> f64 {
    // Mutual containment / boundary intersection tests via representative
    // vertices, then boundary-to-boundary distance.
    if a.envelope().intersects(&b.envelope())
        && (a.exterior()
            .coords()
            .iter()
            .any(|&c| b.locate(c) != PointLocation::Outside)
            || b.exterior()
                .coords()
                .iter()
                .any(|&c| a.locate(c) != PointLocation::Outside))
        {
            return 0.0;
        }
    segs_to_segs(a.boundary_segments(), &b.boundary_segments().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::linestring::MultiLineString;
    use crate::point::{MultiPoint, Point};
    use crate::polygon::MultiPolygon;

    fn pt(x: f64, y: f64) -> Geometry {
        Point::xy(x, y).unwrap().into()
    }
    fn line(pts: &[(f64, f64)]) -> Geometry {
        LineString::from_xy(pts).unwrap().into()
    }
    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Polygon::rect(coord(x0, y0), coord(x1, y1)).unwrap().into()
    }

    #[test]
    fn point_point() {
        assert_eq!(geometry_distance(&pt(0.0, 0.0), &pt(3.0, 4.0)), 5.0);
        assert_eq!(geometry_distance(&pt(1.0, 1.0), &pt(1.0, 1.0)), 0.0);
    }

    #[test]
    fn point_line() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(geometry_distance(&pt(5.0, 3.0), &l), 3.0);
        assert_eq!(geometry_distance(&l, &pt(5.0, 3.0)), 3.0);
        assert_eq!(geometry_distance(&pt(5.0, 0.0), &l), 0.0);
        assert_eq!(geometry_distance(&pt(-3.0, 4.0), &l), 5.0);
    }

    #[test]
    fn point_polygon() {
        let p = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(geometry_distance(&pt(1.0, 1.0), &p), 0.0); // inside
        assert_eq!(geometry_distance(&pt(2.0, 1.0), &p), 0.0); // boundary
        assert_eq!(geometry_distance(&pt(5.0, 1.0), &p), 3.0);
    }

    #[test]
    fn point_in_hole_measures_to_hole_edge() {
        let shell = crate::polygon::Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = crate::polygon::Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let p: Geometry = Polygon::new(shell, vec![hole]).unwrap().into();
        assert_eq!(geometry_distance(&pt(5.0, 5.0), &p), 1.0);
    }

    #[test]
    fn line_line() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = line(&[(0.0, 2.0), (10.0, 2.0)]);
        assert_eq!(geometry_distance(&a, &b), 2.0);
        let c = line(&[(5.0, -1.0), (5.0, 1.0)]);
        assert_eq!(geometry_distance(&a, &c), 0.0);
    }

    #[test]
    fn line_polygon() {
        let p = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(geometry_distance(&line(&[(3.0, 0.0), (3.0, 2.0)]), &p), 1.0);
        // Line fully inside.
        assert_eq!(geometry_distance(&line(&[(0.5, 0.5), (1.5, 1.5)]), &p), 0.0);
        // Line crossing.
        assert_eq!(geometry_distance(&line(&[(-1.0, 1.0), (3.0, 1.0)]), &p), 0.0);
    }

    #[test]
    fn polygon_polygon() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(3.0, 0.0, 4.0, 1.0);
        assert_eq!(geometry_distance(&a, &b), 2.0);
        // Overlapping.
        let c = rect(0.5, 0.5, 2.0, 2.0);
        assert_eq!(geometry_distance(&a, &c), 0.0);
        // Nested.
        let outer = rect(-5.0, -5.0, 5.0, 5.0);
        assert_eq!(geometry_distance(&a, &outer), 0.0);
        // Diagonal corner gap.
        let d = rect(2.0, 2.0, 3.0, 3.0);
        assert!((geometry_distance(&a, &d) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn multipoint_distance() {
        let mp: Geometry = MultiPoint::new(vec![coord(0.0, 0.0), coord(10.0, 0.0)])
            .unwrap()
            .into();
        assert_eq!(geometry_distance(&mp, &pt(11.0, 0.0)), 1.0);
        assert_eq!(geometry_distance(&mp, &rect(4.0, -1.0, 6.0, 1.0)), 4.0);
    }

    #[test]
    fn multilinestring_distance() {
        let ml: Geometry = MultiLineString::new(vec![
            LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0)]).unwrap(),
            LineString::from_xy(&[(10.0, 0.0), (11.0, 0.0)]).unwrap(),
        ])
        .unwrap()
        .into();
        assert_eq!(geometry_distance(&ml, &pt(9.0, 0.0)), 1.0);
    }

    /// Non-finite coordinates are rejected at construction/parse time
    /// (`GeomError::NonFiniteCoordinate`), so the only NaN that can reach
    /// the branch-and-bound traversal is the `bound` argument itself. A NaN
    /// bound must yield `None`: every `lb <= bound` comparison is false.
    #[test]
    fn distance_within_nan_bound_is_none() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 0.0)]);
        let b = rect(3.0, 2.0, 40.0, 9.0);
        assert_eq!(geometry_distance_within(&a, &b, f64::NAN), None);
        assert_eq!(geometry_distance_within(&a, &b, f64::NEG_INFINITY), None);
        // A +inf bound admits everything and must agree with the
        // unbounded distance exactly.
        assert_eq!(
            geometry_distance_within(&a, &b, f64::INFINITY),
            Some(geometry_distance(&a, &b))
        );
    }

    /// Bounded distances equal the unbounded kernel's, including bounds
    /// that land exactly on the true distance (inclusive contract).
    #[test]
    fn distance_within_bit_identical() {
        let a = line(&[(0.0, 0.0), (4.0, 3.0), (8.0, -1.0), (12.0, 2.0), (16.0, 0.0)]);
        let b = rect(5.0, 6.0, 18.0, 11.0);
        let exact = geometry_distance(&a, &b);
        for t in [0.5, 2.99, 3.0, 3.01, 100.0, exact] {
            let want = (exact <= t).then_some(exact);
            assert_eq!(geometry_distance_within(&a, &b, t), want, "bound {t}");
        }
    }

    #[test]
    fn multipolygon_distance() {
        let mp: Geometry = MultiPolygon::new(vec![
            Polygon::rect(coord(0.0, 0.0), coord(1.0, 1.0)).unwrap(),
            Polygon::rect(coord(10.0, 0.0), coord(11.0, 1.0)).unwrap(),
        ])
        .unwrap()
        .into();
        assert_eq!(geometry_distance(&mp, &pt(9.5, 0.5)), 0.5);
        assert_eq!(geometry_distance(&mp, &mp.clone()), 0.0);
    }
}
