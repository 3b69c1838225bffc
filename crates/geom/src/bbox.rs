//! Axis-aligned bounding boxes (envelopes).

use crate::coord::Coord;

/// An axis-aligned rectangle, used as the envelope of a geometry and as the
/// key of the packed STR tree ([`crate::StrTree`]).
///
/// A `Rect` is always non-empty in the sense of containing at least one
/// point (`min == max` degenerates to a point). An *empty* envelope — the
/// envelope of an empty geometry — is represented by [`Rect::EMPTY`], which
/// intersects nothing and is contained in everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min: Coord,
    pub max: Coord,
}

impl Rect {
    /// The empty envelope: identity element of [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        min: Coord { x: f64::INFINITY, y: f64::INFINITY },
        max: Coord { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY },
    };

    /// Creates a rectangle from two corner points (any opposite corners).
    #[inline]
    pub fn new(a: Coord, b: Coord) -> Rect {
        Rect {
            min: Coord::new(a.x.min(b.x), a.y.min(b.y)),
            max: Coord::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn of_point(p: Coord) -> Rect {
        Rect { min: p, max: p }
    }

    /// Envelope of a set of coordinates ([`Rect::EMPTY`] if the set is empty).
    pub fn of_coords<'a, I: IntoIterator<Item = &'a Coord>>(coords: I) -> Rect {
        let mut r = Rect::EMPTY;
        for &c in coords {
            r.expand_to(c);
        }
        r
    }

    /// True for the empty envelope.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Width (`0` for the empty envelope).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (`0` for the empty envelope).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area (`0` for the empty envelope and degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half the perimeter. The tree-to-tree distance search
    /// ([`crate::StrTree::pair_distance_within`]) expands the node of the
    /// pair with the larger margin.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point. Meaningless for the empty envelope.
    #[inline]
    pub fn center(&self) -> Coord {
        self.min.midpoint(self.max)
    }

    /// Grows `self` to cover `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Coord) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Rectangle grown by `d` on every side.
    #[inline]
    pub fn buffered(&self, d: f64) -> Rect {
        if self.is_empty() {
            return *self;
        }
        Rect {
            min: Coord::new(self.min.x - d, self.min.y - d),
            max: Coord::new(self.max.x + d, self.max.y + d),
        }
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Coord::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Coord::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Intersection, or `None` when the rectangles do not meet.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: Coord::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Coord::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        })
    }

    /// True when the rectangles share at least one point (closed semantics:
    /// touching edges intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// True when `other` lies entirely inside `self` (closed semantics).
    /// The empty envelope is contained in everything.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.min.x <= other.min.x
                && self.min.y <= other.min.y
                && self.max.x >= other.max.x
                && self.max.y >= other.max.y)
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Coord) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Minimum distance from `p` to the rectangle (0 when inside).
    pub fn distance_to_point(&self, p: Coord) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx.hypot(dy)
    }

    /// Minimum distance between two rectangles (0 when they intersect).
    pub fn distance_to_rect(&self, other: &Rect) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min.x - other.max.x).max(0.0).max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y).max(0.0).max(other.min.y - self.max.y);
        dx.hypot(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(coord(x0, y0), coord(x1, y1))
    }

    #[test]
    fn construction_normalises_corners() {
        let a = Rect::new(coord(2.0, 3.0), coord(0.0, 1.0));
        assert_eq!(a.min, coord(0.0, 1.0));
        assert_eq!(a.max, coord(2.0, 3.0));
    }

    #[test]
    fn empty_envelope_identities() {
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0.0);
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert!(!Rect::EMPTY.intersects(&a));
        assert!(a.contains_rect(&Rect::EMPTY));
        assert!(!Rect::EMPTY.contains_rect(&a));
        assert!(Rect::EMPTY.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn of_coords_covers_all() {
        let pts = [coord(1.0, 5.0), coord(-2.0, 0.0), coord(3.0, 2.0)];
        let e = Rect::of_coords(pts.iter());
        assert_eq!(e, r(-2.0, 0.0, 3.0, 5.0));
        for p in pts {
            assert!(e.contains_point(p));
        }
        assert!(Rect::of_coords([].iter()).is_empty());
    }

    #[test]
    fn intersection_and_touching() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        // Touching at an edge still intersects (closed semantics).
        let c = r(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&c));
        assert_eq!(a.intersection(&c), Some(r(2.0, 0.0, 2.0, 2.0)));
        // Fully apart.
        let d = r(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert!(a.contains_rect(&r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.contains_rect(&a));
        assert!(!a.contains_rect(&r(-1.0, 0.0, 2.0, 2.0)));
        assert!(a.contains_point(coord(0.0, 0.0)));
        assert!(a.contains_point(coord(10.0, 5.0)));
        assert!(!a.contains_point(coord(10.1, 5.0)));
    }

    #[test]
    fn distances() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.distance_to_point(coord(0.5, 0.5)), 0.0);
        assert_eq!(a.distance_to_point(coord(2.0, 0.5)), 1.0);
        assert_eq!(a.distance_to_point(coord(4.0, 5.0)), 5.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.distance_to_rect(&b), 5.0);
        assert_eq!(a.distance_to_rect(&r(0.5, 0.5, 2.0, 2.0)), 0.0);
        // Touching rectangles have distance zero.
        assert_eq!(a.distance_to_rect(&r(1.0, 0.0, 2.0, 1.0)), 0.0);
    }

    #[test]
    fn measures() {
        let a = r(0.0, 0.0, 3.0, 4.0);
        assert_eq!(a.width(), 3.0);
        assert_eq!(a.height(), 4.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.margin(), 7.0);
        assert_eq!(a.center(), coord(1.5, 2.0));
        assert_eq!(a.buffered(1.0), r(-1.0, -1.0, 4.0, 5.0));
    }
}
