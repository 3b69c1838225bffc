//! Polylines (1-dimensional geometries).

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::error::{GeomError, GeomResult};
use crate::segment::Segment;

/// A polyline: an ordered sequence of at least two points with no
/// consecutive duplicates.
///
/// The topological *interior* of a `LineString` is the curve minus its
/// boundary; the *boundary* follows the OGC mod-2 rule: an endpoint belongs
/// to the boundary iff it occurs an odd number of times among the curve's
/// endpoints. For a simple open polyline that is its two endpoints; a closed
/// polyline (ring-like) has an empty boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    coords: Vec<Coord>,
}

impl LineString {
    /// Builds a polyline, validating finiteness, length and duplicates.
    pub fn new(coords: Vec<Coord>) -> GeomResult<LineString> {
        if coords.len() < 2 {
            return Err(GeomError::TooFewPoints { expected: 2, got: coords.len() });
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        for (i, w) in coords.windows(2).enumerate() {
            if w[0] == w[1] {
                return Err(GeomError::RepeatedPoint { index: i + 1 });
            }
        }
        Ok(LineString { coords })
    }

    /// Convenience constructor from `(x, y)` tuples.
    pub fn from_xy(pts: &[(f64, f64)]) -> GeomResult<LineString> {
        LineString::new(pts.iter().map(|&(x, y)| Coord::new(x, y)).collect())
    }

    /// The vertex sequence.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.coords.len()
    }

    /// Number of segments (`num_points - 1`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.coords.len() - 1
    }

    /// Iterator over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.coords.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// True when the first and last vertices coincide.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.coords.first() == self.coords.last()
    }

    /// Total length of the polyline.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Envelope of the polyline.
    pub fn envelope(&self) -> Rect {
        Rect::of_coords(self.coords.iter())
    }

    /// The boundary endpoints under the OGC mod-2 rule.
    ///
    /// For a single polyline this is `{first, last}` when open and `∅` when
    /// closed (the degenerate `first == last` case).
    pub fn boundary_points(&self) -> Vec<Coord> {
        if self.is_closed() {
            Vec::new()
        } else {
            vec![self.coords[0], *self.coords.last().expect("validated: >= 2 points")]
        }
    }

    /// True when no two non-adjacent segments share a point, no two
    /// adjacent segments fold back over each other, and no vertex is
    /// visited twice, except that a closed polyline's first and last
    /// vertices coincide (i.e. the polyline is *simple* in the OGC sense,
    /// closure at the endpoints permitted). One Shamos–Hoey sweep
    /// ([`crate::algorithms`]); a closed polyline is swept as a ring.
    pub fn is_simple(&self) -> bool {
        if self.is_closed() {
            crate::algorithms::sweep::is_simple(&self.coords[..self.coords.len() - 1], true)
        } else {
            crate::algorithms::sweep::is_simple(&self.coords, false)
        }
    }

    /// The polyline traversed in reverse.
    pub fn reversed(&self) -> LineString {
        let mut coords = self.coords.clone();
        coords.reverse();
        LineString { coords }
    }
}

/// A set of polylines treated as a single 1-dimensional geometry.
///
/// The boundary follows the mod-2 rule across *all* member curves: an
/// endpoint shared by an even number of curve ends is interior.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLineString {
    lines: Vec<LineString>,
}

impl MultiLineString {
    /// Builds a multi-polyline from at least one member.
    pub fn new(lines: Vec<LineString>) -> GeomResult<MultiLineString> {
        if lines.is_empty() {
            return Err(GeomError::TooFewPoints { expected: 1, got: 0 });
        }
        Ok(MultiLineString { lines })
    }

    /// Member polylines.
    #[inline]
    pub fn lines(&self) -> &[LineString] {
        &self.lines
    }

    /// All segments of all members.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.lines.iter().flat_map(|l| l.segments())
    }

    /// Total length.
    pub fn length(&self) -> f64 {
        self.lines.iter().map(|l| l.length()).sum()
    }

    /// Envelope of all members.
    pub fn envelope(&self) -> Rect {
        self.lines
            .iter()
            .fold(Rect::EMPTY, |acc, l| acc.union(&l.envelope()))
    }

    /// Boundary points under the mod-2 rule applied across all members.
    pub fn boundary_points(&self) -> Vec<Coord> {
        let mut ends: Vec<Coord> = Vec::new();
        for l in &self.lines {
            if !l.is_closed() {
                ends.push(l.coords()[0]);
                ends.push(*l.coords().last().expect("validated"));
            }
        }
        ends.sort_by(|a, b| a.lex_cmp(b));
        let mut out = Vec::new();
        let mut i = 0;
        while i < ends.len() {
            let mut j = i + 1;
            while j < ends.len() && ends[j] == ends[i] {
                j += 1;
            }
            if (j - i) % 2 == 1 {
                out.push(ends[i]);
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn ls(pts: &[(f64, f64)]) -> LineString {
        LineString::from_xy(pts).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            LineString::from_xy(&[(0.0, 0.0)]),
            Err(GeomError::TooFewPoints { .. })
        ));
        assert!(matches!(
            LineString::from_xy(&[(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),
            Err(GeomError::RepeatedPoint { index: 1 })
        ));
        assert!(matches!(
            LineString::new(vec![coord(0.0, 0.0), coord(f64::NAN, 1.0)]),
            Err(GeomError::NonFiniteCoordinate)
        ));
        assert!(LineString::from_xy(&[(0.0, 0.0), (1.0, 1.0)]).is_ok());
    }

    #[test]
    fn length_and_segments() {
        let l = ls(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.num_segments(), 2);
        assert_eq!(l.num_points(), 3);
        let segs: Vec<_> = l.segments().collect();
        assert_eq!(segs[0], Segment::new(coord(0.0, 0.0), coord(3.0, 0.0)));
        assert_eq!(segs[1], Segment::new(coord(3.0, 0.0), coord(3.0, 4.0)));
    }

    #[test]
    fn closure_and_boundary() {
        let open = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        assert!(!open.is_closed());
        assert_eq!(open.boundary_points(), vec![coord(0.0, 0.0), coord(1.0, 1.0)]);

        let closed = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
        assert!(closed.is_closed());
        assert!(closed.boundary_points().is_empty());
    }

    #[test]
    fn simplicity() {
        assert!(ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]).is_simple());
        // Self-crossing "bowtie" polyline.
        assert!(!ls(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]).is_simple());
        // Closed ring is simple although first == last.
        assert!(ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]).is_simple());
        // Backtracking along itself is not simple (collinear overlap).
        assert!(!ls(&[(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)]).is_simple());
    }

    #[test]
    fn reversal() {
        let l = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        let r = l.reversed();
        assert_eq!(r.coords()[0], coord(1.0, 1.0));
        assert_eq!(r.coords()[2], coord(0.0, 0.0));
        assert_eq!(l.length(), r.length());
    }

    #[test]
    fn multilinestring_boundary_mod2() {
        // Two polylines sharing one endpoint: the shared point is touched by
        // two curve ends, hence interior; the other two ends are boundary.
        let a = ls(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = ls(&[(1.0, 0.0), (2.0, 0.0)]);
        let ml = MultiLineString::new(vec![a, b]).unwrap();
        assert_eq!(ml.boundary_points(), vec![coord(0.0, 0.0), coord(2.0, 0.0)]);
        assert_eq!(ml.length(), 2.0);

        // Three curves meeting at a point: odd count -> boundary.
        let star = MultiLineString::new(vec![
            ls(&[(0.0, 0.0), (1.0, 0.0)]),
            ls(&[(0.0, 0.0), (0.0, 1.0)]),
            ls(&[(0.0, 0.0), (-1.0, 0.0)]),
        ])
        .unwrap();
        let bpts = star.boundary_points();
        assert!(bpts.contains(&coord(0.0, 0.0)));
        assert_eq!(bpts.len(), 4);
    }

    #[test]
    fn multilinestring_envelope() {
        let ml = MultiLineString::new(vec![
            ls(&[(0.0, 0.0), (1.0, 0.0)]),
            ls(&[(5.0, 5.0), (6.0, 7.0)]),
        ])
        .unwrap();
        let e = ml.envelope();
        assert_eq!(e.min, coord(0.0, 0.0));
        assert_eq!(e.max, coord(6.0, 7.0));
    }

    #[test]
    fn multilinestring_rejects_empty() {
        assert!(MultiLineString::new(vec![]).is_err());
    }
}
