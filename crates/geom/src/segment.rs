//! Line segments: point classification, intersection, distance.
//!
//! Segment–segment intersection is the primitive underlying every DE-9IM
//! computation in [`mod@crate::relate`]. Classification decisions (does an
//! intersection exist, is it a point or a collinear overlap) are made with
//! the robust orientation predicate; only the *coordinates* of interior
//! crossing points are computed in rounded arithmetic.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::robust::{orientation, Orientation};

/// A directed straight-line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Coord,
    pub b: Coord,
}

/// Result of intersecting two segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegSegIntersection {
    /// The segments share no point.
    None,
    /// The segments share exactly one point.
    Point(Coord),
    /// The segments are collinear and share a sub-segment of positive
    /// length, returned in the direction of the first operand.
    Overlap(Segment),
}

impl Segment {
    /// Creates a segment. Degenerate segments (`a == b`) are permitted and
    /// behave as points for distance queries, but are rejected by geometry
    /// validation before they reach topological predicates.
    #[inline]
    pub fn new(a: Coord, b: Coord) -> Segment {
        Segment { a, b }
    }

    /// True when the segment has zero length.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Envelope of the segment.
    #[inline]
    pub fn envelope(&self) -> Rect {
        Rect::new(self.a, self.b)
    }

    /// The segment traversed in the opposite direction.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Coord {
        self.a.midpoint(self.b)
    }

    /// True when `p` lies on the closed segment (endpoints included).
    ///
    /// Exact: uses the robust collinearity test plus an envelope check.
    pub fn contains_point(&self, p: Coord) -> bool {
        if orientation(self.a, self.b, p) != Orientation::Collinear {
            return false;
        }
        self.envelope().contains_point(p)
    }

    /// True when `p` lies strictly inside the segment (endpoints excluded).
    pub fn contains_point_interior(&self, p: Coord) -> bool {
        p != self.a && p != self.b && self.contains_point(p)
    }

    /// Scalar projection parameter `t` of `p` onto the segment's supporting
    /// line, clamped to `[0, 1]`, such that `a.lerp(b, t)` is the closest
    /// point of the closed segment to `p`.
    pub fn closest_point_t(&self, p: Coord) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// Closest point of the closed segment to `p`.
    pub fn closest_point(&self, p: Coord) -> Coord {
        self.a.lerp(self.b, self.closest_point_t(p))
    }

    /// Minimum distance from `p` to the closed segment.
    pub fn distance_to_point(&self, p: Coord) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Minimum distance between two closed segments (0 when they intersect).
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersect(other) != SegSegIntersection::None {
            return 0.0;
        }
        let d1 = self.distance_to_point(other.a);
        let d2 = self.distance_to_point(other.b);
        let d3 = other.distance_to_point(self.a);
        let d4 = other.distance_to_point(self.b);
        d1.min(d2).min(d3).min(d4)
    }

    /// Parameter of `p` along the segment's direction, *assuming `p` is on
    /// the supporting line*. Projects on the dominant axis for stability.
    pub fn param_of_collinear_point(&self, p: Coord) -> f64 {
        let d = self.b - self.a;
        if d.x.abs() >= d.y.abs() {
            if d.x == 0.0 {
                0.0
            } else {
                (p.x - self.a.x) / d.x
            }
        } else {
            (p.y - self.a.y) / d.y
        }
    }

    /// Full segment–segment intersection classification.
    ///
    /// All existence and shape decisions (none / point / overlap) are exact;
    /// the returned crossing coordinate for a proper (interior) crossing is
    /// rounded.
    pub fn intersect(&self, other: &Segment) -> SegSegIntersection {
        if !self.envelope().intersects(&other.envelope()) {
            return SegSegIntersection::None;
        }

        // Degenerate operands behave as points.
        if self.is_degenerate() {
            return if other.contains_point(self.a) {
                SegSegIntersection::Point(self.a)
            } else {
                SegSegIntersection::None
            };
        }
        if other.is_degenerate() {
            return if self.contains_point(other.a) {
                SegSegIntersection::Point(other.a)
            } else {
                SegSegIntersection::None
            };
        }

        let o1 = orientation(self.a, self.b, other.a);
        let o2 = orientation(self.a, self.b, other.b);
        let o3 = orientation(other.a, other.b, self.a);
        let o4 = orientation(other.a, other.b, self.b);

        // Collinear case: all four orientations vanish.
        if o1 == Orientation::Collinear
            && o2 == Orientation::Collinear
            && o3 == Orientation::Collinear
            && o4 == Orientation::Collinear
        {
            return self.collinear_intersect(other);
        }

        // Proper crossing: the endpoints of each segment straddle the other.
        let straddle1 = o1 != o2 && o1 != Orientation::Collinear && o2 != Orientation::Collinear;
        let straddle2 = o3 != o4 && o3 != Orientation::Collinear && o4 != Orientation::Collinear;
        if straddle1 && straddle2 {
            return SegSegIntersection::Point(self.proper_crossing_point(other));
        }

        // Non-proper, non-collinear: any intersection must involve an
        // endpoint of one segment lying on the other. Test all four.
        for p in [other.a, other.b, self.a, self.b] {
            if self.contains_point(p) && other.contains_point(p) {
                return SegSegIntersection::Point(p);
            }
        }
        SegSegIntersection::None
    }

    /// Intersection of two collinear segments with overlapping envelopes.
    fn collinear_intersect(&self, other: &Segment) -> SegSegIntersection {
        let t0 = self.param_of_collinear_point(other.a);
        let t1 = self.param_of_collinear_point(other.b);
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let lo = lo.max(0.0);
        let hi = hi.min(1.0);
        if lo > hi {
            return SegSegIntersection::None;
        }
        if lo == hi {
            // Collinear segments that share a point share an operand
            // endpoint, so the point is the endpoint both contain exactly,
            // never a rounded `lerp` (`a.lerp(b, 1.0)` need not be `b`).
            return [self.a, self.b, other.a, other.b]
                .into_iter()
                .find(|&q| self.contains_point(q) && other.contains_point(q))
                .map_or(SegSegIntersection::None, SegSegIntersection::Point);
        }
        let pa = self.exact_point_at(lo, other);
        let pb = self.exact_point_at(hi, other);
        if pa == pb {
            SegSegIntersection::Point(pa)
        } else {
            SegSegIntersection::Overlap(Segment::new(pa, pb))
        }
    }

    /// Point at parameter `t` along `self`, snapped to an exact endpoint of
    /// either operand when `t` corresponds to one.
    fn exact_point_at(&self, t: f64, other: &Segment) -> Coord {
        if t == 0.0 {
            return self.a;
        }
        if t == 1.0 {
            return self.b;
        }
        // Interior parameters of `self` can only arise from endpoints of
        // `other` in the collinear-overlap case.
        let p = self.a.lerp(self.b, t);
        for q in [other.a, other.b] {
            if self.param_of_collinear_point(q) == t {
                return q;
            }
        }
        p
    }

    /// Crossing coordinate for a proper intersection (both straddle tests
    /// passed). Standard parametric formula; the denominator cannot vanish.
    fn proper_crossing_point(&self, other: &Segment) -> Coord {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        let t = (other.a - self.a).cross(s) / denom;
        self.a.lerp(self.b, t.clamp(0.0, 1.0))
    }
}

/// Merges a set of `[lo, hi]` intervals in place into the sorted, disjoint
/// list, dropping empty (`lo > hi`) ones. Used for collinear-coverage tests
/// in `relate`; allocates nothing.
pub fn merge_intervals(ivs: &mut Vec<(f64, f64)>) {
    ivs.retain(|&(lo, hi)| lo <= hi);
    ivs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut merged = 0;
    for i in 0..ivs.len() {
        let (lo, hi) = ivs[i];
        if merged > 0 && lo <= ivs[merged - 1].1 {
            ivs[merged - 1].1 = ivs[merged - 1].1.max(hi);
        } else {
            ivs[merged] = (lo, hi);
            merged += 1;
        }
    }
    ivs.truncate(merged);
}

/// True when the merged `intervals` fully cover `[0, 1]` (with `eps`
/// tolerance at the joins to absorb parameterisation rounding).
pub fn intervals_cover_unit(intervals: &[(f64, f64)], eps: f64) -> bool {
    let mut reach = 0.0;
    for &(lo, hi) in intervals {
        if lo > reach + eps {
            return false;
        }
        reach = reach.max(hi);
        if reach >= 1.0 - eps {
            return true;
        }
    }
    reach >= 1.0 - eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(coord(ax, ay), coord(bx, by))
    }

    #[test]
    fn point_on_segment() {
        let s = seg(0.0, 0.0, 4.0, 4.0);
        assert!(s.contains_point(coord(2.0, 2.0)));
        assert!(s.contains_point(coord(0.0, 0.0)));
        assert!(s.contains_point(coord(4.0, 4.0)));
        assert!(!s.contains_point(coord(5.0, 5.0)));
        assert!(!s.contains_point(coord(2.0, 2.1)));
        assert!(s.contains_point_interior(coord(2.0, 2.0)));
        assert!(!s.contains_point_interior(coord(0.0, 0.0)));
    }

    #[test]
    fn proper_crossing() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        assert_eq!(s1.intersect(&s2), SegSegIntersection::Point(coord(1.0, 1.0)));
        // Symmetric.
        assert_eq!(s2.intersect(&s1), SegSegIntersection::Point(coord(1.0, 1.0)));
    }

    #[test]
    fn no_intersection() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert_eq!(s1.intersect(&s2), SegSegIntersection::None);
        // Would cross if extended, but segments stop short.
        let s3 = seg(0.0, 0.0, 1.0, 1.0);
        let s4 = seg(3.0, 0.0, 2.0, 1.1);
        assert_eq!(s3.intersect(&s4), SegSegIntersection::None);
    }

    #[test]
    fn endpoint_touch() {
        // T-junction: endpoint of s2 in the interior of s1.
        let s1 = seg(0.0, 0.0, 4.0, 0.0);
        let s2 = seg(2.0, 0.0, 2.0, 3.0);
        assert_eq!(s1.intersect(&s2), SegSegIntersection::Point(coord(2.0, 0.0)));
        // Shared endpoint.
        let s3 = seg(4.0, 0.0, 6.0, 2.0);
        assert_eq!(s1.intersect(&s3), SegSegIntersection::Point(coord(4.0, 0.0)));
    }

    #[test]
    fn collinear_overlap() {
        let s1 = seg(0.0, 0.0, 4.0, 0.0);
        let s2 = seg(2.0, 0.0, 6.0, 0.0);
        assert_eq!(
            s1.intersect(&s2),
            SegSegIntersection::Overlap(seg(2.0, 0.0, 4.0, 0.0))
        );
        // Containment.
        let s3 = seg(1.0, 0.0, 2.0, 0.0);
        assert_eq!(
            s1.intersect(&s3),
            SegSegIntersection::Overlap(seg(1.0, 0.0, 2.0, 0.0))
        );
        // Identical.
        assert_eq!(s1.intersect(&s1), SegSegIntersection::Overlap(s1));
        // Opposite directions.
        let s4 = seg(6.0, 0.0, 2.0, 0.0);
        assert_eq!(
            s1.intersect(&s4),
            SegSegIntersection::Overlap(seg(2.0, 0.0, 4.0, 0.0))
        );
    }

    #[test]
    fn collinear_touch_at_point() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(2.0, 0.0, 5.0, 0.0);
        assert_eq!(s1.intersect(&s2), SegSegIntersection::Point(coord(2.0, 0.0)));
        // Collinear but apart.
        let s3 = seg(3.0, 0.0, 5.0, 0.0);
        assert_eq!(s1.intersect(&s3), SegSegIntersection::None);
    }

    #[test]
    fn collinear_touch_off_the_lattice_returns_the_shared_vertex() {
        // `a.lerp(b, 1.0)` rounds to -9.999999999999999e-11 here.
        let s1 = seg(2e-10, 0.0, -1e-10, 0.0);
        let s2 = seg(-1e-10, 0.0, -2e-10, 0.0);
        let shared = coord(-1e-10, 0.0);
        for got in [s1.intersect(&s2), s2.intersect(&s1)] {
            let SegSegIntersection::Point(p) = got else {
                panic!("expected a point, got {got:?}");
            };
            assert_eq!((p.x.to_bits(), p.y.to_bits()), (shared.x.to_bits(), shared.y.to_bits()));
        }
    }

    #[test]
    fn degenerate_segments() {
        let p = seg(1.0, 1.0, 1.0, 1.0);
        let s = seg(0.0, 0.0, 2.0, 2.0);
        assert!(p.is_degenerate());
        assert_eq!(s.intersect(&p), SegSegIntersection::Point(coord(1.0, 1.0)));
        assert_eq!(p.intersect(&s), SegSegIntersection::Point(coord(1.0, 1.0)));
        let q = seg(5.0, 5.0, 5.0, 5.0);
        assert_eq!(s.intersect(&q), SegSegIntersection::None);
        assert_eq!(p.intersect(&q), SegSegIntersection::None);
        assert_eq!(p.intersect(&p), SegSegIntersection::Point(coord(1.0, 1.0)));
    }

    #[test]
    fn distances() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        assert_eq!(s.distance_to_point(coord(2.0, 3.0)), 3.0);
        assert_eq!(s.distance_to_point(coord(-3.0, 4.0)), 5.0);
        assert_eq!(s.distance_to_point(coord(2.0, 0.0)), 0.0);
        let t = seg(0.0, 2.0, 4.0, 2.0);
        assert_eq!(s.distance_to_segment(&t), 2.0);
        let u = seg(2.0, -1.0, 2.0, 1.0);
        assert_eq!(s.distance_to_segment(&u), 0.0);
    }

    #[test]
    fn closest_point_clamps() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(s.closest_point(coord(-5.0, 1.0)), coord(0.0, 0.0));
        assert_eq!(s.closest_point(coord(9.0, 1.0)), coord(2.0, 0.0));
        assert_eq!(s.closest_point(coord(1.0, 1.0)), coord(1.0, 0.0));
    }

    #[test]
    fn collinear_param() {
        let s = seg(2.0, 2.0, 6.0, 6.0);
        assert_eq!(s.param_of_collinear_point(coord(2.0, 2.0)), 0.0);
        assert_eq!(s.param_of_collinear_point(coord(6.0, 6.0)), 1.0);
        assert_eq!(s.param_of_collinear_point(coord(4.0, 4.0)), 0.5);
        // Vertical segment exercises the dominant-axis branch.
        let v = seg(1.0, 0.0, 1.0, 10.0);
        assert_eq!(v.param_of_collinear_point(coord(1.0, 5.0)), 0.5);
    }

    #[test]
    fn interval_merging() {
        let merged = |mut ivs: Vec<(f64, f64)>| {
            merge_intervals(&mut ivs);
            ivs
        };
        // Overlapping and touching intervals coalesce; disjoint ones do not.
        assert_eq!(merged(vec![(0.5, 1.0), (0.0, 0.25), (0.2, 0.6)]), vec![(0.0, 1.0)]);
        assert_eq!(
            merged(vec![(0.6, 1.0), (0.0, 0.25), (0.25, 0.5)]),
            vec![(0.0, 0.5), (0.6, 1.0)]
        );
        // Inverted intervals are dropped; empty input stays empty.
        assert_eq!(merged(vec![(0.9, 0.1)]), vec![]);
        assert_eq!(merged(vec![]), vec![]);
    }

    #[test]
    fn unit_coverage() {
        assert!(intervals_cover_unit(&[(0.0, 0.5), (0.5, 1.0)], 1e-12));
        assert!(intervals_cover_unit(&[(0.0, 1.0)], 1e-12));
        assert!(!intervals_cover_unit(&[(0.0, 0.4), (0.6, 1.0)], 1e-12));
        assert!(!intervals_cover_unit(&[(0.1, 1.0)], 1e-12));
        assert!(!intervals_cover_unit(&[], 1e-12));
        // Tolerance absorbs hairline gaps.
        assert!(intervals_cover_unit(&[(0.0, 0.5), (0.5 + 1e-15, 1.0)], 1e-12));
    }
}
