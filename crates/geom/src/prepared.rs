//! Prepared geometries: cached data for repeated `relate` calls.
//!
//! Predicate extraction relates one reference feature against many
//! relevant features. [`PreparedGeometry`] caches the envelope and the
//! geometry's topological dimensions so that envelope-disjoint pairs —
//! the overwhelming majority in a realistic layer, even after R-tree
//! pruning at the layer level — are answered with a directly constructed
//! disjoint matrix, never touching the exact relate machinery.
//!
//! Pairs that survive the envelope test run the exact relate machinery
//! over a lazily built, cached `PreparedShape`: a packed STR tree
//! ([`crate::segtree::StrTree`]) over the geometry's segments, which for
//! a region also answers point location (a query along the ray from the
//! point, under one even-odd rule over all the region's rings), making
//! the per-pair kernel sublinear in the vertex count while staying
//! bit-identical to the brute-force [`crate::relate()`]. The same index
//! powers [`PreparedGeometry::distance_within`], a branch-and-bound
//! bounded minimum distance.
//!
//! The envelope fast path has a sibling one level down, for two regions:
//! a tree-to-tree search over the two boundaries' segment trees
//! ([`crate::segtree::StrTree::first_contact`]) that stops at the first
//! pair of segments sharing a point. When there is none — envelopes meet
//! but boundaries do not, or one region lies inside the other — one
//! vertex per ring, located in the other region, settles the matrix
//! without splitting any segment; when there is one, the fragment scans
//! start at the contact.
//!
//! The relate machinery has two entry points here:
//!
//! * [`PreparedGeometry::relate_to`], the oracle: the full DE-9IM matrix;
//! * [`PreparedGeometry::relation`]: the Egenhofer relation `classify`
//!   reads off that matrix, from a run of the same engine that stops as
//!   soon as the cells computed so far decide it. Predicate extraction
//!   calls this one; it never differs from `classify(relate_to(..))`.
//!
//! Preparation is allocation-lean. A prepared geometry holds its geometry
//! owned or borrowed (`PreparedGeometry<&Geometry>`), so a caller that
//! keeps its features copies none. A point or multi-point prepares
//! nothing: its coordinates are read from the geometry. A region's
//! boundary and tree sit in one boxed block with its first member polygon
//! inline; a polygon without holes takes 4 heap blocks in all (see
//! [`crate::relate::shapes::PreparedAreal`]), and the boxing keeps
//! `PreparedGeometry` itself small.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::geometry::{GeomDim, Geometry};
use crate::polygon::PointLocation;
use crate::relate::shapes::{point_set, PreparedAreal, PreparedShape, Shape};
use crate::relate::{
    classify, relate_shapes, Dim, IntersectionMatrix, Part, TopologicalRelation, Until,
};
use crate::segment::Segment;
use crate::segtree::{self, StrTree};
use std::borrow::Borrow;
use std::sync::OnceLock;

/// A geometry plus cached relate-acceleration data.
///
/// `G` is how the geometry is held: owned (the default) or borrowed as
/// `&Geometry`, which lets a caller prepare the features of a layer it
/// keeps without copying them.
#[derive(Debug, Clone)]
pub struct PreparedGeometry<G: Borrow<Geometry> = Geometry> {
    geometry: G,
    envelope: Rect,
    interior_dim: Dim,
    boundary_dim: Dim,
    shape: OnceLock<PreparedShape>,
}

impl<G: Borrow<Geometry>> PreparedGeometry<G> {
    /// Prepares a geometry.
    pub fn new(geometry: G) -> PreparedGeometry<G> {
        let g = geometry.borrow();
        let envelope = g.envelope();
        let (interior_dim, boundary_dim) = match g.dimension() {
            GeomDim::Point => (Dim::Zero, Dim::Empty),
            GeomDim::Line => {
                let has_boundary = match g {
                    Geometry::LineString(l) => !l.boundary_points().is_empty(),
                    Geometry::MultiLineString(ml) => !ml.boundary_points().is_empty(),
                    _ => unreachable!("line dimension implies a lineal geometry"),
                };
                (Dim::One, if has_boundary { Dim::Zero } else { Dim::Empty })
            }
            GeomDim::Area => (Dim::Two, Dim::One),
        };
        PreparedGeometry {
            geometry,
            envelope,
            interior_dim,
            boundary_dim,
            shape: OnceLock::new(),
        }
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &Geometry {
        self.geometry.borrow()
    }

    /// Cached envelope.
    pub fn envelope(&self) -> Rect {
        self.envelope
    }

    /// The indexed class data, built on first use and cached.
    fn prepared(&self) -> &PreparedShape {
        self.shape.get_or_init(|| PreparedShape::build(self.geometry()))
    }

    /// The indexed class view.
    fn shape(&self) -> Shape<'_> {
        self.prepared().as_shape(self.geometry())
    }

    /// Relates `self` to `other`, with the envelope-disjoint fast path:
    /// the full DE-9IM matrix, bit-identical to [`crate::relate()`] except
    /// on region pairs whose boundaries never meet but come within
    /// rounding distance, where this one is exact (see
    /// [`crate::relate::shapes`]). This is the engine's oracle.
    pub fn relate_to<H: Borrow<Geometry>>(
        &self,
        other: &PreparedGeometry<H>,
    ) -> IntersectionMatrix {
        self.relate_until(other, Until::Complete)
    }

    /// The Egenhofer relation of `self` to `other`: [`classify`] of
    /// [`PreparedGeometry::relate_to`]'s matrix, from the same engine run
    /// only until the cells computed so far decide the class
    /// ([`crate::classify_lower_bound`]). A pair of overlapping regions
    /// stops once one fragment of the first boundary lies inside the
    /// second region and one outside, and a pair of regions whose
    /// boundaries never meet splits no fragment at all.
    pub fn relation<H: Borrow<Geometry>>(
        &self,
        other: &PreparedGeometry<H>,
    ) -> TopologicalRelation {
        let (da, db) = (self.geometry().dimension(), other.geometry().dimension());
        classify(&self.relate_until(other, Until::Decided(da, db)), da, db)
    }

    /// The engine run behind both entry points.
    fn relate_until<H: Borrow<Geometry>>(
        &self,
        other: &PreparedGeometry<H>,
        until: Until,
    ) -> IntersectionMatrix {
        if !self.envelope.intersects(&other.envelope) {
            return disjoint_matrix(self, other);
        }
        relate_shapes(&self.shape(), &other.shape(), until)
    }

    /// Minimum distance between the geometries if it does not exceed
    /// `bound`, else `None`.
    ///
    /// `Some(d)` is returned iff `d <= bound`, and `d` is bit-identical to
    /// [`crate::algorithms::geometry_distance`] on the same pair: the
    /// branch-and-bound traversal only prunes subtree pairs whose
    /// box-to-box lower bound exceeds the limit, never the pair attaining
    /// the minimum, and containment short-circuits fire exactly where the
    /// unbounded kernel returns an exact `0.0`. `bound == d` therefore
    /// yields `Some(d)`. A NaN `bound` yields `None`.
    pub fn distance_within<H: Borrow<Geometry>>(
        &self,
        other: &PreparedGeometry<H>,
        bound: f64,
    ) -> Option<f64> {
        if segtree::exceeds(self.envelope.distance_to_rect(&other.envelope), bound) {
            segtree::note_early_exit(1);
            return None;
        }
        let d = min_distance_within(
            (self.prepared(), self.geometry()),
            (other.prepared(), other.geometry()),
            bound,
        );
        (d <= bound).then_some(d)
    }
}

/// Bounded minimum distance over prepared class data, each beside the
/// geometry it was built from. Returns the exact minimum when it is
/// `<= bound`; any value above `bound` (possibly infinity) when it is not.
fn min_distance_within(
    a: (&PreparedShape, &Geometry),
    b: (&PreparedShape, &Geometry),
    bound: f64,
) -> f64 {
    use PreparedShape as PS;
    match (a, b) {
        ((PS::P, ga), (PS::P, gb)) => {
            let mut best = f64::INFINITY;
            for &p in point_set(ga) {
                for &q in point_set(gb) {
                    let d = p.distance(q);
                    if d < best {
                        best = d;
                    }
                }
            }
            best
        }
        ((PS::P, g), (PS::L { segments, tree, .. }, _))
        | ((PS::L { segments, tree, .. }, _), (PS::P, g)) => {
            points_to_tree(point_set(g), tree, segments, bound)
        }
        ((PS::P, g), (PS::A(pa), _)) | ((PS::A(pa), _), (PS::P, g)) => {
            // A point inside (or on) the region is at distance exactly 0,
            // matching the unbounded kernel's containment case.
            let coords = point_set(g);
            if any_not_outside(pa, coords.iter().copied()) {
                return 0.0;
            }
            points_to_tree(coords, &pa.tree, &pa.boundary, bound)
        }
        ((PS::L { segments: sa, tree: ta, .. }, _), (PS::L { segments: sb, tree: tb, .. }, _)) => {
            ta.pair_distance_within(sa, tb, sb, bound)
        }
        ((PS::L { segments, tree, .. }, _), (PS::A(pa), _))
        | ((PS::A(pa), _), (PS::L { segments, tree, .. }, _)) => {
            // Any curve vertex inside the region ⇒ distance exactly 0. A
            // curve crossing the boundary with no vertex inside resolves
            // to an exact 0.0 through an intersecting segment pair below,
            // exactly as in the unbounded kernel.
            if segments.iter().any(|s| any_not_outside(pa, [s.a, s.b])) {
                return 0.0;
            }
            tree.pair_distance_within(segments, &pa.tree, &pa.boundary, bound)
        }
        ((PS::A(pa), _), (PS::A(pb), _)) => {
            // An exterior-ring vertex of one region inside the other ⇒
            // overlap ⇒ distance exactly 0 (the unbounded kernel's
            // containment test). Overlaps with no contained vertex cross
            // boundaries, which the segment pairs below resolve to 0.0.
            if any_not_outside(pb, pa.exterior_vertices())
                || any_not_outside(pa, pb.exterior_vertices())
            {
                return 0.0;
            }
            pa.tree.pair_distance_within(&pa.boundary, &pb.tree, &pb.boundary, bound)
        }
    }
}

/// True when any coordinate lies inside or on the region — the
/// containment sweep of the bounded-distance kernel.
fn any_not_outside(pa: &PreparedAreal, coords: impl IntoIterator<Item = Coord>) -> bool {
    coords.into_iter().any(|c| pa.locate(c) != PointLocation::Outside)
}

/// Minimum distance from a point set to an indexed segment set, bounded.
fn points_to_tree(coords: &[Coord], tree: &StrTree, segments: &[Segment], bound: f64) -> f64 {
    let mut best = f64::INFINITY;
    for &c in coords {
        // Shrinking the limit to the best-so-far only prunes distances
        // that could not improve the minimum; the attaining point's query
        // always runs with a limit at or above the true minimum.
        let d = tree.point_distance_within(segments, c, bound.min(best));
        if d < best {
            best = d;
        }
        if best == 0.0 {
            break;
        }
    }
    best
}

/// The exact DE-9IM matrix of two disjoint geometries, built from their
/// cached part dimensions.
fn disjoint_matrix<G: Borrow<Geometry>, H: Borrow<Geometry>>(
    a: &PreparedGeometry<G>,
    b: &PreparedGeometry<H>,
) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Interior, Part::Exterior, a.interior_dim);
    m.set(Part::Boundary, Part::Exterior, a.boundary_dim);
    m.set(Part::Exterior, Part::Interior, b.interior_dim);
    m.set(Part::Exterior, Part::Boundary, b.boundary_dim);
    m.set(Part::Exterior, Part::Exterior, Dim::Two);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::geometry_distance;
    use crate::relate::relate;
    use crate::wkt::from_wkt;

    fn prep(wkt: &str) -> PreparedGeometry {
        PreparedGeometry::new(from_wkt(wkt).unwrap())
    }

    #[test]
    fn fast_path_matches_exact_relate_for_disjoint_pairs() {
        let shapes = [
            "POINT (0 0)",
            "MULTIPOINT ((0 0), (1 1))",
            "LINESTRING (0 0, 1 1)",
            "LINESTRING (0 0, 1 0, 1 1, 0 1, 0 0)", // closed: empty boundary
            "MULTILINESTRING ((0 0, 1 0), (0 1, 1 1))",
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 0, 3 0, 3 1, 2 1, 2 0)))",
        ];
        let far = [
            "POINT (100 100)",
            "LINESTRING (100 100, 101 101)",
            "POLYGON ((100 100, 101 100, 101 101, 100 101, 100 100))",
        ];
        for a in shapes {
            for b in far {
                let pa = prep(a);
                let pb = prep(b);
                assert!(!pa.envelope().intersects(&pb.envelope()));
                assert_eq!(
                    pa.relate_to(&pb),
                    relate(pa.geometry(), pb.geometry()),
                    "fast path diverged for {a} vs {b}"
                );
                assert_eq!(
                    pb.relate_to(&pa),
                    pa.relate_to(&pb).transposed(),
                    "transpose consistency for {a} vs {b}"
                );
                assert_eq!(
                    pa.relation(&pb),
                    TopologicalRelation::Disjoint,
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn intersecting_pairs_delegate_to_exact_relate() {
        let a = prep("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = prep("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        assert!(a.envelope().intersects(&b.envelope()));
        assert_eq!(a.relate_to(&b), relate(a.geometry(), b.geometry()));
        assert_eq!(a.relate_to(&b).to_string(), "212101212");
    }

    #[test]
    fn envelope_overlap_but_geometry_disjoint_still_exact() {
        // Diagonal arrangement: envelopes overlap, geometries do not — the
        // prepared path must fall through to the exact relate.
        let c = prep("LINESTRING (0 5, 5 0)");
        let d = prep("LINESTRING (4.9 4.9, 10 10)");
        assert!(c.envelope().intersects(&d.envelope()), "envelopes overlap");
        let m = c.relate_to(&d);
        assert_eq!(m, relate(c.geometry(), d.geometry()));
        assert!(m.matches("FF*FF****"), "geometries are actually disjoint");
    }

    #[test]
    fn indexed_relate_matches_brute_for_intersecting_pairs() {
        let pairs = [
            ("LINESTRING (0 0, 10 0, 10 10)", "LINESTRING (5 -5, 5 5, 20 5)"),
            ("LINESTRING (0 0, 10 0)", "LINESTRING (2 0, 8 0)"), // collinear overlap
            ("LINESTRING (0 0, 10 10)", "POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))"),
            ("LINESTRING (0 2, 2 0)", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"), // chord
            (
                "POLYGON ((0 0, 6 0, 6 6, 0 6, 0 0))",
                "POLYGON ((6 0, 12 0, 12 6, 6 6, 6 0))", // shared edge
            ),
            (
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))", // containment
            ),
            ("MULTIPOINT ((1 1), (5 0), (20 20))", "LINESTRING (0 0, 10 0)"),
            ("POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"),
        ];
        for (wa, wb) in pairs {
            let (pa, pb) = (prep(wa), prep(wb));
            assert_eq!(
                pa.relate_to(&pb),
                relate(pa.geometry(), pb.geometry()),
                "indexed relate diverged for {wa} vs {wb}"
            );
            assert_eq!(
                pb.relate_to(&pa),
                pa.relate_to(&pb).transposed(),
                "transpose consistency for {wa} vs {wb}"
            );
            let (da, db) = (pa.geometry().dimension(), pb.geometry().dimension());
            let brute = classify(&relate(pa.geometry(), pb.geometry()), da, db);
            assert_eq!(
                pa.relation(&pb),
                brute,
                "relation diverged for {wa} vs {wb}"
            );
        }
    }

    #[test]
    fn contact_free_region_pairs_match_the_oracle() {
        use TopologicalRelation::*;
        const DONUT: &str = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))";
        // Envelopes meet and boundaries never do: each ring of one region
        // lies wholly inside or wholly outside the other.
        let cases = [
            // A star inside a star.
            (
                "POLYGON ((0 -9, 3 -3, 9 0, 3 3, 0 9, -3 3, -9 0, -3 -3, 0 -9))",
                "POLYGON ((0 -2, 1 -1, 2 0, 1 1, 0 2, -1 1, -2 0, -1 -1, 0 -2))",
                Contains,
            ),
            // One member inside, one outside.
            (
                "MULTIPOLYGON (((1 1, 3 1, 3 3, 1 3, 1 1)), ((20 1, 22 1, 22 3, 20 3, 20 1)))",
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                Overlaps,
            ),
            // A region in the other's hole.
            (DONUT, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))", Disjoint),
            (
                DONUT,
                "MULTIPOLYGON (((4 4, 6 4, 6 6, 4 6, 4 4)), ((12 0, 14 0, 14 2, 12 2, 12 0)))",
                Disjoint,
            ),
            // A hole ring inside the other region, whose ring lies in the
            // holed region's interior.
            (DONUT, "POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))", Overlaps),
            // Envelopes meet, shapes do not.
            (
                "POLYGON ((0 0, 10 0, 0 10, 0 0))",
                "POLYGON ((10 10, 10 6, 6 10, 10 10))",
                Disjoint,
            ),
        ];
        for (wa, wb, want) in cases {
            let (pa, pb) = (prep(wa), prep(wb));
            assert!(pa.envelope().intersects(&pb.envelope()), "{wa} vs {wb}");
            let brute = relate(pa.geometry(), pb.geometry());
            assert_eq!(pa.relate_to(&pb), brute, "{wa} vs {wb}");
            assert_eq!(pb.relate_to(&pa), brute.transposed(), "{wa} vs {wb}");
            assert_eq!(pa.relation(&pb), want, "{wa} vs {wb}");
            assert_eq!(pb.relation(&pa), want.converse(), "{wa} vs {wb}");
        }
    }

    #[test]
    fn contact_free_pairs_one_ulp_apart_are_disjoint() {
        // A quadrilateral whose top edge runs one ulp below the triangle's
        // slanted edge (0,0)-(3,1), starting at its upper-left vertex: the
        // boundaries never meet, and the vertex located in the triangle is
        // one ulp outside it. The unindexed `relate` classifies the top
        // edge by its rounded midpoint instead, which can land on or above
        // the slanted edge and read `touches` or `overlaps` here.
        use crate::robust::{orientation, Orientation};
        use crate::{coord, Polygon, Ring};
        let (a, b) = (coord(0.0, 0.0), coord(3.0, 1.0));
        let below = |x: f64| {
            let mut y = x / 3.0;
            while orientation(a, b, coord(x, y)) != Orientation::Clockwise {
                y = f64::from_bits(y.to_bits() - 1);
            }
            coord(x, y)
        };
        let triangle = Polygon::from_exterior(Ring::new(vec![a, b, coord(0.0, 1.0)]).unwrap());
        let triangle = PreparedGeometry::new(Geometry::from(triangle));
        for k in 0..40 {
            let (p1, p2) = (below(0.5 + 0.02 * k as f64), below(1.6 + 0.02 * k as f64));
            let corners = vec![p1, coord(p1.x, -5.0), coord(p2.x, -5.0), p2];
            let quad = Polygon::from_exterior(Ring::new(corners).unwrap());
            assert_eq!(quad.exterior().coords()[0], p1);
            let quad = PreparedGeometry::new(Geometry::from(quad));
            let what = format!("{p1:?} {p2:?}");
            assert_eq!(triangle.relate_to(&quad).to_string(), "FF2FF1212", "{what}");
            assert_eq!(quad.relate_to(&triangle).to_string(), "FF2FF1212", "{what}");
            assert_eq!(quad.relation(&triangle), TopologicalRelation::Disjoint);
        }
    }

    #[test]
    fn distance_within_matches_unbounded_distance() {
        let pairs = [
            ("POINT (0 0)", "POINT (3 4)"),
            ("POINT (0 0)", "LINESTRING (2 -1, 2 1)"),
            ("POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"), // inside
            ("LINESTRING (0 0, 1 1)", "LINESTRING (3 0, 3 5)"),
            ("LINESTRING (0 0, 10 10)", "POLYGON ((20 0, 30 0, 30 9, 20 9, 20 0))"),
            (
                "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
                "POLYGON ((5 0, 6 0, 6 1, 5 1, 5 0))",
            ),
            (
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))", // contained: 0
            ),
            ("MULTIPOINT ((0 0), (9 9))", "MULTILINESTRING ((5 5, 6 5), (20 20, 21 21))"),
        ];
        for (wa, wb) in pairs {
            let (pa, pb) = (prep(wa), prep(wb));
            let exact = geometry_distance(pa.geometry(), pb.geometry());
            // Generous bound: must return the exact value.
            let got = pa.distance_within(&pb, exact + 10.0);
            assert_eq!(got.map(f64::to_bits), Some(exact.to_bits()), "{wa} vs {wb}");
            // Bound exactly equal to the distance: still within.
            let got = pa.distance_within(&pb, exact);
            assert_eq!(got.map(f64::to_bits), Some(exact.to_bits()), "at-bound {wa} vs {wb}");
            // Bound strictly below: pruned out.
            if exact > 0.0 {
                let below = f64::from_bits(exact.to_bits() - 1);
                assert_eq!(pa.distance_within(&pb, below), None, "below-bound {wa} vs {wb}");
            }
            // Symmetry of the bounded kernel.
            assert_eq!(
                pb.distance_within(&pa, exact).map(f64::to_bits),
                Some(exact.to_bits()),
                "symmetry {wa} vs {wb}"
            );
        }
    }

    #[test]
    fn prepared_geometry_stays_small() {
        // One prepared geometry per feature of a layer: the boxed region
        // keeps the cached shape, and so each of them, small (192 and
        // 152 bytes on 64-bit targets).
        assert!(std::mem::size_of::<PreparedGeometry>() <= 192);
        assert!(std::mem::size_of::<PreparedGeometry<&Geometry>>() <= 152);
    }

    #[test]
    fn distance_within_rejects_nan_bound() {
        let a = prep("POINT (0 0)");
        let b = prep("POINT (1 0)");
        assert_eq!(a.distance_within(&b, f64::NAN), None);
    }
}
