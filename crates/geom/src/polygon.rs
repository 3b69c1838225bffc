//! Polygons (2-dimensional geometries) with optional holes, and
//! multi-polygons.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::error::{GeomError, GeomResult};
use crate::segment::{SegSegIntersection, Segment};

/// Where a point lies relative to an areal geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointLocation {
    /// Strictly inside the interior.
    Inside,
    /// Exactly on the boundary.
    OnBoundary,
    /// Strictly outside.
    Outside,
}

/// A closed, simple linear ring.
///
/// Stored *without* the closing duplicate vertex: a triangle has three
/// stored coordinates. Construction accepts either convention. Rings are
/// normalised to counter-clockwise orientation.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    coords: Vec<Coord>, // CCW, no closing duplicate
}

impl Ring {
    /// Builds a ring from a coordinate sequence (closed or open form),
    /// validating: ≥ 3 distinct vertices, finite coordinates, no repeated
    /// consecutive vertices, nonzero area, and simplicity (no
    /// self-intersection).
    pub fn new(mut coords: Vec<Coord>) -> GeomResult<Ring> {
        if coords.len() >= 2 && coords.first() == coords.last() {
            coords.pop();
        }
        if coords.len() < 3 {
            return Err(GeomError::TooFewPoints { expected: 3, got: coords.len() });
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        for i in 0..coords.len() {
            if coords[i] == coords[(i + 1) % coords.len()] {
                return Err(GeomError::RepeatedPoint { index: i + 1 });
            }
        }
        let ring = Ring { coords };
        if ring.signed_area_raw() == 0.0 {
            return Err(GeomError::DegenerateRing);
        }
        if !ring.is_simple() {
            return Err(GeomError::SelfIntersection);
        }
        Ok(ring.normalized_ccw())
    }

    /// Convenience constructor from `(x, y)` tuples.
    pub fn from_xy(pts: &[(f64, f64)]) -> GeomResult<Ring> {
        Ring::new(pts.iter().map(|&(x, y)| Coord::new(x, y)).collect())
    }

    /// An axis-aligned rectangle ring.
    pub fn rect(min: Coord, max: Coord) -> GeomResult<Ring> {
        Ring::new(vec![
            min,
            Coord::new(max.x, min.y),
            max,
            Coord::new(min.x, max.y),
        ])
    }

    /// Vertices in CCW order, without the closing duplicate.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of distinct vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.coords.len()
    }

    /// Iterator over the ring's segments (including the closing segment).
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.coords.len();
        (0..n).map(move |i| Segment::new(self.coords[i], self.coords[(i + 1) % n]))
    }

    /// Shoelace signed area with the stored orientation (positive: CCW).
    fn signed_area_raw(&self) -> f64 {
        let n = self.coords.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.coords[i];
            let q = self.coords[(i + 1) % n];
            acc += p.cross(q);
        }
        acc * 0.5
    }

    /// Enclosed area (always positive after normalisation).
    pub fn area(&self) -> f64 {
        self.signed_area_raw().abs()
    }

    /// Ring perimeter.
    pub fn perimeter(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Envelope of the ring.
    pub fn envelope(&self) -> Rect {
        Rect::of_coords(self.coords.iter())
    }

    fn normalized_ccw(self) -> Ring {
        if self.signed_area_raw() < 0.0 {
            let mut coords = self.coords;
            coords.reverse();
            Ring { coords }
        } else {
            self
        }
    }

    /// True when no two non-adjacent segments intersect.
    ///
    /// Uses the x-sweep of [`crate::algorithms::sweep`], so sparse
    /// digitised boundaries validate in near-linear time.
    pub fn is_simple(&self) -> bool {
        let segs: Vec<Segment> = self.segments().collect();
        let n = segs.len();
        !crate::algorithms::sweep::any_forbidden_intersection(&segs, |i, j, x| {
            // Adjacent segments (including the closing wrap) may meet at
            // exactly their shared vertex.
            match x {
                SegSegIntersection::Point(p) => {
                    if j == i + 1 {
                        *p == segs[i].b
                    } else if i == 0 && j == n - 1 {
                        *p == segs[0].a
                    } else {
                        false
                    }
                }
                _ => false,
            }
        })
    }

    /// Classifies `p` against the *region enclosed by the ring* (ignoring
    /// orientation): inside, on the ring, or outside.
    pub fn locate(&self, p: Coord) -> PointLocation {
        if !self.envelope().contains_point(p) {
            return PointLocation::Outside;
        }
        // Exact boundary test first; the ray cast below is only trusted for
        // points strictly off the boundary.
        for s in self.segments() {
            if s.contains_point(p) {
                return PointLocation::OnBoundary;
            }
        }
        // Franklin crossing-count ray cast (robust for non-boundary points).
        let mut inside = false;
        let n = self.coords.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.coords[i];
            let pj = self.coords[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_int = pi.x + (p.y - pi.y) * (pj.x - pi.x) / (pj.y - pi.y);
                if p.x < x_int {
                    inside = !inside;
                }
            }
            j = i;
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    /// Centroid of the enclosed region.
    pub fn centroid(&self) -> Coord {
        let n = self.coords.len();
        let mut a = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.coords[i];
            let q = self.coords[(i + 1) % n];
            let w = p.cross(q);
            a += w;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        let a = a * 0.5;
        Coord::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

/// A polygon: one exterior ring and zero or more interior rings (holes).
///
/// Validation enforces that every hole lies inside the exterior ring.
/// Holes touching the shell or each other at isolated points are accepted
/// (OGC-valid); overlapping holes are not detected beyond the containment
/// check and are the caller's responsibility.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
}

impl Polygon {
    /// Builds a polygon from a validated exterior ring and holes.
    pub fn new(exterior: Ring, holes: Vec<Ring>) -> GeomResult<Polygon> {
        for (i, h) in holes.iter().enumerate() {
            // Every hole vertex must be inside or on the shell, and at least
            // one representative point strictly inside.
            let mut any_strict = false;
            for &c in h.coords() {
                match exterior.locate(c) {
                    PointLocation::Outside => return Err(GeomError::HoleOutsideShell { hole: i }),
                    PointLocation::Inside => any_strict = true,
                    PointLocation::OnBoundary => {}
                }
            }
            if !any_strict {
                // Degenerate: hole entirely on the shell boundary.
                return Err(GeomError::HoleOutsideShell { hole: i });
            }
        }
        Ok(Polygon { exterior, holes })
    }

    /// Polygon without holes.
    pub fn from_exterior(exterior: Ring) -> Polygon {
        Polygon { exterior, holes: Vec::new() }
    }

    /// Convenience constructor: exterior from `(x, y)` tuples, no holes.
    pub fn from_xy(pts: &[(f64, f64)]) -> GeomResult<Polygon> {
        Ok(Polygon::from_exterior(Ring::from_xy(pts)?))
    }

    /// Axis-aligned rectangle polygon.
    pub fn rect(min: Coord, max: Coord) -> GeomResult<Polygon> {
        Ok(Polygon::from_exterior(Ring::rect(min, max)?))
    }

    /// The exterior ring.
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior rings.
    #[inline]
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// All rings: exterior first, then holes.
    pub fn rings(&self) -> impl Iterator<Item = &Ring> {
        std::iter::once(&self.exterior).chain(self.holes.iter())
    }

    /// All boundary segments (exterior and holes).
    pub fn boundary_segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.rings().flat_map(|r| r.segments())
    }

    /// Area of the polygon (shell minus holes).
    pub fn area(&self) -> f64 {
        self.exterior.area() - self.holes.iter().map(|h| h.area()).sum::<f64>()
    }

    /// Total boundary length (exterior plus holes).
    pub fn perimeter(&self) -> f64 {
        self.rings().map(|r| r.perimeter()).sum()
    }

    /// Envelope (of the exterior ring).
    pub fn envelope(&self) -> Rect {
        self.exterior.envelope()
    }

    /// Classifies `p` against the polygon, holes included.
    pub fn locate(&self, p: Coord) -> PointLocation {
        match self.exterior.locate(p) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::OnBoundary => PointLocation::OnBoundary,
            PointLocation::Inside => {
                for h in &self.holes {
                    match h.locate(p) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::OnBoundary => return PointLocation::OnBoundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }

    /// Centroid accounting for holes (area-weighted).
    pub fn centroid(&self) -> Coord {
        let mut ax = 0.0;
        let mut ay = 0.0;
        let mut aw = 0.0;
        let ea = self.exterior.area();
        let ec = self.exterior.centroid();
        ax += ec.x * ea;
        ay += ec.y * ea;
        aw += ea;
        for h in &self.holes {
            let ha = h.area();
            let hc = h.centroid();
            ax -= hc.x * ha;
            ay -= hc.y * ha;
            aw -= ha;
        }
        Coord::new(ax / aw, ay / aw)
    }

    /// A point guaranteed to lie strictly inside the polygon.
    ///
    /// Uses a horizontal scanline placed strictly between two distinct
    /// vertex ordinates, so every edge crossing is transversal; the widest
    /// interior interval's midpoint is returned. Works for concave polygons
    /// and polygons with holes (unlike the centroid).
    pub fn interior_point(&self) -> Coord {
        // Collect distinct vertex ordinates.
        let mut ys: Vec<f64> = self
            .rings()
            .flat_map(|r| r.coords().iter().map(|c| c.y))
            .collect();
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys.dedup();
        debug_assert!(ys.len() >= 2, "a valid ring spans at least two ordinates");

        // Try scanlines between consecutive ordinate pairs, preferring the
        // pair nearest the vertical middle (most likely to be wide).
        let mid = (ys[0] + ys[ys.len() - 1]) * 0.5;
        let mut order: Vec<usize> = (0..ys.len() - 1).collect();
        order.sort_by(|&a, &b| {
            let ca = (ys[a] + ys[a + 1]) * 0.5 - mid;
            let cb = (ys[b] + ys[b + 1]) * 0.5 - mid;
            ca.abs().partial_cmp(&cb.abs()).expect("finite")
        });

        for idx in order {
            let y = (ys[idx] + ys[idx + 1]) * 0.5;
            if y <= ys[idx] || y >= ys[idx + 1] {
                continue; // adjacent ordinates too close to separate in f64
            }
            if let Some(p) = self.scanline_interior_point(y) {
                return p;
            }
        }
        // Fallback (extremely thin polygons): centroid, which for a convex
        // sliver is interior.
        self.centroid()
    }

    /// Midpoint of the widest interior span of the horizontal line at `y`,
    /// or `None` when the line misses the interior.
    fn scanline_interior_point(&self, y: f64) -> Option<Coord> {
        let mut xs: Vec<f64> = Vec::new();
        for s in self.boundary_segments() {
            let (y0, y1) = (s.a.y, s.b.y);
            if (y0 < y && y1 > y) || (y1 < y && y0 > y) {
                let t = (y - y0) / (y1 - y0);
                xs.push(s.a.x + t * (s.b.x - s.a.x));
            }
        }
        if xs.len() < 2 {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        // Parity rule: spans between even-odd crossing pairs are interior.
        let mut best: Option<(f64, Coord)> = None;
        for pair in xs.chunks_exact(2) {
            let w = pair[1] - pair[0];
            let cand = Coord::new((pair[0] + pair[1]) * 0.5, y);
            if w > 0.0 && self.locate(cand) == PointLocation::Inside
                && best.map(|(bw, _)| w > bw).unwrap_or(true) {
                    best = Some((w, cand));
                }
        }
        best.map(|(_, c)| c)
    }
}

/// A set of polygons with pairwise disjoint interiors (boundaries may touch
/// at finitely many points, per the OGC multi-polygon rules).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPolygon {
    polygons: Vec<Polygon>,
}

impl MultiPolygon {
    /// Builds a multi-polygon, verifying pairwise interior disjointness:
    /// no boundary crossing or collinear boundary overlap between
    /// components, and no component contained in another.
    pub fn new(polygons: Vec<Polygon>) -> GeomResult<MultiPolygon> {
        if polygons.is_empty() {
            return Err(GeomError::TooFewPoints { expected: 1, got: 0 });
        }
        for i in 0..polygons.len() {
            for j in (i + 1)..polygons.len() {
                if !Self::components_compatible(&polygons[i], &polygons[j]) {
                    return Err(GeomError::ComponentsNotDisjoint { a: i, b: j });
                }
            }
        }
        Ok(MultiPolygon { polygons })
    }

    fn components_compatible(a: &Polygon, b: &Polygon) -> bool {
        if !a.envelope().intersects(&b.envelope()) {
            return true;
        }
        for sa in a.boundary_segments() {
            for sb in b.boundary_segments() {
                match sa.intersect(&sb) {
                    SegSegIntersection::None => {}
                    SegSegIntersection::Overlap(_) => return false,
                    SegSegIntersection::Point(p) => {
                        // Transversal interior-interior crossings imply
                        // overlapping interiors.
                        if sa.contains_point_interior(p) && sb.contains_point_interior(p) {
                            return false;
                        }
                    }
                }
            }
        }
        // Containment without boundary crossing.
        if b.locate(a.interior_point()) == PointLocation::Inside {
            return false;
        }
        if a.locate(b.interior_point()) == PointLocation::Inside {
            return false;
        }
        true
    }

    /// Member polygons.
    #[inline]
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Total area.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(|p| p.area()).sum()
    }

    /// Envelope of all members.
    pub fn envelope(&self) -> Rect {
        self.polygons
            .iter()
            .fold(Rect::EMPTY, |acc, p| acc.union(&p.envelope()))
    }

    /// Classifies `p` against the union of the members.
    pub fn locate(&self, p: Coord) -> PointLocation {
        let mut on_boundary = false;
        for poly in &self.polygons {
            match poly.locate(p) {
                PointLocation::Inside => return PointLocation::Inside,
                PointLocation::OnBoundary => on_boundary = true,
                PointLocation::Outside => {}
            }
        }
        if on_boundary {
            PointLocation::OnBoundary
        } else {
            PointLocation::Outside
        }
    }

    /// An interior point of the first (largest-area) component.
    pub fn interior_point(&self) -> Coord {
        let largest = self
            .polygons
            .iter()
            .max_by(|a, b| a.area().partial_cmp(&b.area()).expect("finite"))
            .expect("validated: non-empty");
        largest.interior_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn unit_square() -> Polygon {
        Polygon::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    #[test]
    fn ring_validation() {
        assert!(matches!(
            Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0)]),
            Err(GeomError::TooFewPoints { .. })
        ));
        assert!(matches!(
            Ring::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),
            Err(GeomError::DegenerateRing)
        ));
        // Bowtie self-intersection (unequal lobes, so the signed area is
        // nonzero and the simplicity check is what rejects it).
        assert!(matches!(
            Ring::from_xy(&[(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 2.0)]),
            Err(GeomError::SelfIntersection)
        ));
        // A symmetric bowtie has zero signed area and is caught earlier.
        assert!(matches!(
            Ring::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]),
            Err(GeomError::DegenerateRing)
        ));
        // Closed and open forms both accepted.
        let open = Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]).unwrap();
        let closed = Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]).unwrap();
        assert_eq!(open, closed);
        assert_eq!(open.num_points(), 3);
    }

    #[test]
    fn ring_orientation_normalised() {
        let cw = Ring::from_xy(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]).unwrap();
        let ccw = Ring::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap();
        assert_eq!(cw.signed_area_raw(), ccw.signed_area_raw());
        assert!(cw.signed_area_raw() > 0.0);
    }

    #[test]
    fn ring_measures() {
        let r = Ring::rect(coord(0.0, 0.0), coord(3.0, 4.0)).unwrap();
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.perimeter(), 14.0);
        assert_eq!(r.centroid(), coord(1.5, 2.0));
    }

    #[test]
    fn ring_locate() {
        let r = Ring::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap();
        assert_eq!(r.locate(coord(1.0, 1.0)), PointLocation::Inside);
        assert_eq!(r.locate(coord(0.0, 1.0)), PointLocation::OnBoundary);
        assert_eq!(r.locate(coord(2.0, 2.0)), PointLocation::OnBoundary);
        assert_eq!(r.locate(coord(3.0, 1.0)), PointLocation::Outside);
        assert_eq!(r.locate(coord(1.0, -0.1)), PointLocation::Outside);
    }

    #[test]
    fn concave_ring_locate() {
        // "C" shape.
        let r = Ring::from_xy(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (4.0, 3.0),
            (4.0, 4.0),
            (0.0, 4.0),
        ])
        .unwrap();
        assert_eq!(r.locate(coord(0.5, 2.0)), PointLocation::Inside);
        assert_eq!(r.locate(coord(2.5, 2.0)), PointLocation::Outside); // in the notch
        assert_eq!(r.locate(coord(2.0, 0.5)), PointLocation::Inside);
    }

    #[test]
    fn polygon_with_hole() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let p = Polygon::new(shell, vec![hole]).unwrap();
        assert_eq!(p.area(), 96.0);
        assert_eq!(p.locate(coord(5.0, 5.0)), PointLocation::Outside); // in the hole
        assert_eq!(p.locate(coord(4.0, 5.0)), PointLocation::OnBoundary); // hole edge
        assert_eq!(p.locate(coord(1.0, 1.0)), PointLocation::Inside);
        assert_eq!(p.locate(coord(11.0, 5.0)), PointLocation::Outside);
    }

    #[test]
    fn hole_outside_shell_rejected() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap();
        let bad_hole = Ring::rect(coord(5.0, 5.0), coord(6.0, 6.0)).unwrap();
        assert!(matches!(
            Polygon::new(shell, vec![bad_hole]),
            Err(GeomError::HoleOutsideShell { hole: 0 })
        ));
    }

    #[test]
    fn interior_point_simple() {
        let p = unit_square();
        let ip = p.interior_point();
        assert_eq!(p.locate(ip), PointLocation::Inside);
    }

    #[test]
    fn interior_point_concave_centroid_outside() {
        // "U" shape whose centroid falls in the notch.
        let p = Polygon::from_xy(&[
            (0.0, 0.0),
            (5.0, 0.0),
            (5.0, 5.0),
            (4.0, 5.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 5.0),
            (0.0, 5.0),
        ])
        .unwrap();
        let ip = p.interior_point();
        assert_eq!(p.locate(ip), PointLocation::Inside);
    }

    #[test]
    fn interior_point_with_hole_around_center() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = Ring::rect(coord(2.0, 2.0), coord(8.0, 8.0)).unwrap();
        let p = Polygon::new(shell, vec![hole]).unwrap();
        let ip = p.interior_point();
        assert_eq!(p.locate(ip), PointLocation::Inside);
    }

    #[test]
    fn polygon_centroid_with_hole() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(4.0, 4.0)).unwrap();
        let hole = Ring::rect(coord(1.0, 1.0), coord(2.0, 2.0)).unwrap();
        let p = Polygon::new(shell, vec![hole]).unwrap();
        // Symmetric removal pulls centroid away from the hole quadrant.
        let c = p.centroid();
        assert!(c.x > 2.0 && c.y > 2.0);
        assert!((p.area() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn multipolygon_disjoint_ok() {
        let a = unit_square();
        let b = Polygon::from_xy(&[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]).unwrap();
        let mp = MultiPolygon::new(vec![a, b]).unwrap();
        assert_eq!(mp.area(), 2.0);
        assert_eq!(mp.locate(coord(0.5, 0.5)), PointLocation::Inside);
        assert_eq!(mp.locate(coord(5.5, 5.5)), PointLocation::Inside);
        assert_eq!(mp.locate(coord(3.0, 3.0)), PointLocation::Outside);
        assert_eq!(mp.locate(coord(1.0, 0.5)), PointLocation::OnBoundary);
    }

    #[test]
    fn multipolygon_touching_at_point_ok() {
        let a = unit_square();
        let b = Polygon::from_xy(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]).unwrap();
        assert!(MultiPolygon::new(vec![a, b]).is_ok());
    }

    #[test]
    fn multipolygon_overlapping_rejected() {
        let a = unit_square();
        let b = Polygon::from_xy(&[(0.5, 0.5), (2.0, 0.5), (2.0, 2.0), (0.5, 2.0)]).unwrap();
        assert!(matches!(
            MultiPolygon::new(vec![a, b]),
            Err(GeomError::ComponentsNotDisjoint { a: 0, b: 1 })
        ));
    }

    #[test]
    fn multipolygon_nested_rejected() {
        let outer = Polygon::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let inner = Polygon::rect(coord(1.0, 1.0), coord(2.0, 2.0)).unwrap();
        assert!(MultiPolygon::new(vec![outer, inner]).is_err());
    }

    #[test]
    fn multipolygon_shared_edge_rejected() {
        let a = unit_square();
        let b = Polygon::from_xy(&[(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]).unwrap();
        // Shares the whole edge x=1: boundaries overlap along a segment.
        assert!(MultiPolygon::new(vec![a, b]).is_err());
    }
}
