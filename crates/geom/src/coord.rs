//! Planar coordinates and elementary vector arithmetic.
//!
//! All geometry in this crate lives in a Euclidean plane with `f64`
//! coordinates. Geographic inputs are assumed to be in a projected
//! coordinate system (the paper's Porto Alegre data is metric UTM); no
//! geodesic computations are performed.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A position in the plane.
///
/// `Coord` is a plain value type: `Copy`, comparable, and hashable through
/// [`Coord::to_bits`]. Arithmetic operators treat it as a 2-vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    pub x: f64,
    pub y: f64,
}

impl Coord {
    /// Creates a coordinate from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ZERO: Coord = Coord { x: 0.0, y: 0.0 };

    /// Returns true when both components are finite (not NaN/∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(&self, other: Coord) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other`.
    #[inline]
    pub fn cross(&self, other: Coord) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (cheaper than [`Coord::norm`]).
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Coord) -> f64 {
        (*self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_sq(&self, other: Coord) -> f64 {
        (*self - other).norm_sq()
    }

    /// Midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(&self, other: Coord) -> Coord {
        Coord::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; `t` outside `[0, 1]`
    /// extrapolates.
    #[inline]
    pub fn lerp(&self, other: Coord, t: f64) -> Coord {
        Coord::new(self.x + t * (other.x - self.x), self.y + t * (other.y - self.y))
    }

    /// Bitwise encoding used for hashing and total ordering.
    ///
    /// Two coordinates compare equal under `==` iff they have identical bit
    /// patterns (we never construct `-0.0` internally, and NaN coordinates
    /// are rejected at geometry-construction time).
    #[inline]
    pub fn to_bits(&self) -> (u64, u64) {
        (self.x.to_bits(), self.y.to_bits())
    }

    /// Lexicographic comparison by `(x, y)`.
    ///
    /// Total for finite coordinates; orders multipoints and line ends.
    #[inline]
    pub fn lex_cmp(&self, other: &Coord) -> std::cmp::Ordering {
        self.x
            .partial_cmp(&other.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.y.partial_cmp(&other.y).unwrap_or(std::cmp::Ordering::Equal))
    }
}

impl Add for Coord {
    type Output = Coord;
    #[inline]
    fn add(self, rhs: Coord) -> Coord {
        Coord::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Coord {
    type Output = Coord;
    #[inline]
    fn sub(self, rhs: Coord) -> Coord {
        Coord::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Coord {
    type Output = Coord;
    #[inline]
    fn mul(self, rhs: f64) -> Coord {
        Coord::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Coord {
    type Output = Coord;
    #[inline]
    fn div(self, rhs: f64) -> Coord {
        Coord::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Coord {
    type Output = Coord;
    #[inline]
    fn neg(self) -> Coord {
        Coord::new(-self.x, -self.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Coord {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Coord::new(x, y)
    }
}

impl From<[f64; 2]> for Coord {
    #[inline]
    fn from([x, y]: [f64; 2]) -> Self {
        Coord::new(x, y)
    }
}

/// Shorthand constructor, `coord(x, y)`.
#[inline]
pub fn coord(x: f64, y: f64) -> Coord {
    Coord::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = coord(1.0, 2.0);
        let b = coord(3.0, -1.0);
        assert_eq!(a + b, coord(4.0, 1.0));
        assert_eq!(a - b, coord(-2.0, 3.0));
        assert_eq!(a * 2.0, coord(2.0, 4.0));
        assert_eq!(b / 2.0, coord(1.5, -0.5));
        assert_eq!(-a, coord(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = coord(1.0, 0.0);
        let b = coord(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = coord(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(Coord::ZERO.distance(a), 5.0);
        assert_eq!(Coord::ZERO.distance_sq(a), 25.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = coord(0.0, 0.0);
        let b = coord(2.0, 4.0);
        assert_eq!(a.midpoint(b), coord(1.0, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), coord(0.5, 1.0));
    }

    #[test]
    fn lex_ordering() {
        use std::cmp::Ordering::*;
        assert_eq!(coord(0.0, 1.0).lex_cmp(&coord(1.0, 0.0)), Less);
        assert_eq!(coord(1.0, 0.0).lex_cmp(&coord(1.0, 1.0)), Less);
        assert_eq!(coord(1.0, 1.0).lex_cmp(&coord(1.0, 1.0)), Equal);
        assert_eq!(coord(2.0, 0.0).lex_cmp(&coord(1.0, 9.0)), Greater);
    }

    #[test]
    fn finiteness() {
        assert!(coord(1.0, 2.0).is_finite());
        assert!(!coord(f64::NAN, 0.0).is_finite());
        assert!(!coord(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn conversions() {
        let c: Coord = (1.0, 2.0).into();
        assert_eq!(c, coord(1.0, 2.0));
        let c: Coord = [3.0, 4.0].into();
        assert_eq!(c, coord(3.0, 4.0));
        assert_eq!(format!("{c}"), "(3 4)");
    }
}
