//! DE-9IM computation (`relate`) for every pair of supported geometries,
//! and the Egenhofer relation read from it.
//!
//! The engine has two entry points, both over the same per-class-pair
//! bodies:
//!
//! * **the oracle**, [`relate`] (and the indexed
//!   [`crate::PreparedGeometry::relate_to`]), which returns the full
//!   [`IntersectionMatrix`] of two geometries;
//! * **the relation**, [`crate::PreparedGeometry::relation`], which
//!   returns the [`TopologicalRelation`] that [`classify`] reads off that
//!   matrix, and stops as soon as the cells computed so far decide it.
//!
//! Named predicates and the relation classification (the [`relation`]
//! module) are pattern tests on the matrices produced here.
//!
//! # Method
//!
//! Geometries are normalised into three homogeneous classes (point sets,
//! curve sets with mod-2 boundaries, region sets — see [`shapes`]), and the
//! matrix is assembled per class pair:
//!
//! * **point × _**: direct classification of each point.
//! * **curve × curve**: exact segment-pair intersection classification for
//!   the interior cells, boundary-point classification for the boundary
//!   cells, and collinear-interval coverage for the exterior cells.
//! * **curve × region** and **region × region**: each boundary/curve
//!   segment is split at its intersections with the region boundary and the
//!   fragments are classified inside/on/outside; collinear runs are
//!   recognised symbolically from the overlap intervals.
//! * **region × region, prepared**: first one tree-to-tree search
//!   ([`crate::StrTree::first_contact`]) looks for a point the two
//!   boundaries share. With none, every ring lies wholly inside or wholly
//!   outside the other region, so one vertex per ring, located exactly,
//!   raises the cells its fragments would, and no segment is split. With
//!   one, each boundary's fragment scan starts at its contact segment.
//!   Unindexed views (the free [`relate`], the tests' brute-force oracle)
//!   run the fragment scans from segment 0 without the search.
//!
//! All *existence* decisions route through the robust orientation
//! predicate; only the coordinates of split points are rounded.
//!
//! # Stopping early
//!
//! Cells start empty and only rise as evidence arrives, so a matrix under
//! construction is a lower bound of the final one, and the order in which
//! evidence arrives does not change the complete matrix. A run carries a
//! stop rule: the oracle's never fires, and the relation's fires once
//! [`classify_lower_bound`] decides the class, which no later rise can then
//! change. The curve × region and region × region bodies raise their cells
//! the first time a kind of fragment appears and test the rule only then,
//! a few times per pair. Only `overlaps` and `crosses` can settle early,
//! and one fragment of a boundary (or curve) inside the other operand and
//! one outside settle them; a prepared region pair's scan starts at the
//! contact segment, whose fragments usually hold both. Every other
//! relation rests on `F` cells. A prepared region pair whose boundaries
//! never meet (`disjoint`, `contains`, `within`, and `overlaps` of a
//! multipolygon with one member inside and one outside) is settled by the
//! contact search and one located vertex per ring, without a fragment
//! scan; a pair whose boundaries meet in a `touches`, `covers` or
//! `equals` runs its scans to the end. The point classes and curve × curve
//! take no rule: the first are linear in their points, and the second
//! gathers its exterior cells last, so no class of it settles before its
//! matrix is complete.
//!
//! # Precision caveat
//!
//! Point location is exact, but fragment midpoints are computed in
//! floating point. Adversarial inputs whose fragments are thinner than
//! ~1e-12 of a segment's parameter space, or lie within rounding distance
//! of the other boundary, can therefore be misclassified; the paper's
//! workloads (municipal GIS scale) are far from this regime. A prepared
//! region pair whose boundaries never meet splits no fragment and
//! locates exact vertices, so its matrix is exact even there, where the
//! unindexed [`relate`] may differ from it.

pub mod matrix;
pub mod relation;
pub mod shapes;

pub use matrix::{CellWords, Dim, IntersectionMatrix, Part, Pattern};
pub use relation::{classify, classify_lower_bound, TopologicalRelation};

use crate::geometry::{GeomDim, Geometry};
use crate::polygon::PointLocation;
use crate::segment::SegSegIntersection;
use shapes::{shape_of, Areal, Fragment, Lineal, LinealLocation, Puntal, Shape};

/// How far a run of the engine goes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Until {
    /// To the full matrix: the oracle.
    Complete,
    /// Until [`classify_lower_bound`] decides the relation of operands of
    /// these dimensions.
    Decided(GeomDim, GeomDim),
}

impl Until {
    /// The rule for the operands swapped, for a body that computes the
    /// transposed matrix. Classification commutes with transposition
    /// (the relation becomes its converse), so the swapped rule fires
    /// exactly when the original would.
    fn transposed(self) -> Until {
        match self {
            Until::Complete => Until::Complete,
            Until::Decided(da, db) => Until::Decided(db, da),
        }
    }

    /// True when the run may stop at `m`, a lower bound of the final
    /// matrix.
    fn reached(self, m: &IntersectionMatrix) -> bool {
        match self {
            Until::Complete => false,
            Until::Decided(da, db) => classify_lower_bound(m, da, db).is_some(),
        }
    }
}

/// Computes the DE-9IM matrix of `a` against `b`.
pub fn relate(a: &Geometry, b: &Geometry) -> IntersectionMatrix {
    relate_shapes(&shape_of(a), &shape_of(b), Until::Complete)
}

/// Runs the engine on two class views until `until` fires: the full
/// matrix for [`Until::Complete`], otherwise possibly a lower bound of it
/// that already decides the relation. Views carrying segment indexes
/// (from [`crate::prepared::PreparedGeometry`]) take the indexed candidate
/// paths; the result is bit-identical either way, except on the contact-free
/// region pairs the precision caveat above names.
pub(crate) fn relate_shapes(a: &Shape, b: &Shape, until: Until) -> IntersectionMatrix {
    match (a, b) {
        (Shape::P(pa), Shape::P(pb)) => relate_pp(pa, pb),
        (Shape::P(p), Shape::L(l)) => relate_pl(p, l),
        (Shape::P(p), Shape::A(ar)) => relate_pa(p, ar),
        (Shape::L(l), Shape::P(p)) => relate_pl(p, l).transposed(),
        (Shape::L(la), Shape::L(lb)) => relate_ll(la, lb),
        (Shape::L(l), Shape::A(ar)) => relate_la(l, ar, until),
        (Shape::A(ar), Shape::P(p)) => relate_pa(p, ar).transposed(),
        (Shape::A(ar), Shape::L(l)) => relate_la(l, ar, until.transposed()).transposed(),
        (Shape::A(aa), Shape::A(ab)) => relate_aa(aa, ab, until),
    }
}

/// True when the geometries share at least one point, i.e. their matrix
/// does not match `FF*FF****` (interiors and boundaries pairwise apart).
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    const APART: Pattern = Pattern::new("FF*FF****");
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    !relate(a, b).words().matches(APART)
}

fn relate_pp(a: &Puntal, b: &Puntal) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Exterior, Part::Exterior, Dim::Two);
    for &c in a.coords.iter() {
        if b.coords.contains(&c) {
            m.raise(Part::Interior, Part::Interior, Dim::Zero);
        } else {
            m.raise(Part::Interior, Part::Exterior, Dim::Zero);
        }
    }
    for &c in b.coords.iter() {
        if !a.coords.contains(&c) {
            m.raise(Part::Exterior, Part::Interior, Dim::Zero);
        }
    }
    m
}

fn relate_pl(p: &Puntal, l: &Lineal) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Exterior, Part::Exterior, Dim::Two);
    // A finite point set can never cover a curve's (1-dimensional) interior.
    m.set(Part::Exterior, Part::Interior, Dim::One);
    for &c in p.coords.iter() {
        match l.locate(c) {
            LinealLocation::Interior => m.raise(Part::Interior, Part::Interior, Dim::Zero),
            LinealLocation::Boundary => m.raise(Part::Interior, Part::Boundary, Dim::Zero),
            LinealLocation::Exterior => m.raise(Part::Interior, Part::Exterior, Dim::Zero),
        }
    }
    for &bp in l.boundary.iter() {
        if !p.coords.contains(&bp) {
            m.raise(Part::Exterior, Part::Boundary, Dim::Zero);
        }
    }
    m
}

fn relate_pa(p: &Puntal, ar: &Areal) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Exterior, Part::Exterior, Dim::Two);
    // Finite points never cover a region's interior or boundary.
    m.set(Part::Exterior, Part::Interior, Dim::Two);
    m.set(Part::Exterior, Part::Boundary, Dim::One);
    for &c in p.coords.iter() {
        match ar.locate(c) {
            PointLocation::Inside => m.raise(Part::Interior, Part::Interior, Dim::Zero),
            PointLocation::OnBoundary => m.raise(Part::Interior, Part::Boundary, Dim::Zero),
            PointLocation::Outside => m.raise(Part::Interior, Part::Exterior, Dim::Zero),
        }
    }
    m
}

fn relate_ll(a: &Lineal, b: &Lineal) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Exterior, Part::Exterior, Dim::Two);

    // Interior/interior evidence from segment pairs. With an index on `b`
    // only envelope-compatible pairs are inspected; skipped pairs fail the
    // exact intersection's own envelope prefilter. Evidence only raises
    // the cell, and a collinear overlap settles it at its maximum, so
    // neither the candidate restriction nor the hit order changes it.
    let ii_evidence = |sa: &crate::segment::Segment,
                           sb: &crate::segment::Segment,
                           m: &mut IntersectionMatrix| {
        match sa.intersect(sb) {
            SegSegIntersection::None => false,
            SegSegIntersection::Overlap(_) => {
                // A common arc of positive length: all but finitely many
                // of its points are interior to both curves.
                m.raise(Part::Interior, Part::Interior, Dim::One);
                true
            }
            SegSegIntersection::Point(p) => {
                // `p` lies on both curves by construction (its
                // coordinate may be rounded for proper crossings, so
                // the exact on-segment test is not reliable here);
                // only the boundary membership needs checking.
                let a_interior = !a.boundary.contains(&p);
                let b_interior = !b.boundary.contains(&p);
                if a_interior && b_interior {
                    m.raise(Part::Interior, Part::Interior, Dim::Zero);
                }
                false
            }
        }
    };
    'outer: for sa in a.segments.iter() {
        match b.tree {
            Some(tree) => {
                let mut overlap = false;
                tree.query(&sa.envelope(), |i| {
                    overlap = overlap || ii_evidence(sa, &b.segments[i as usize], &mut m);
                });
                if overlap {
                    break 'outer;
                }
            }
            None => {
                for sb in b.segments.iter() {
                    if ii_evidence(sa, sb, &mut m) {
                        break 'outer;
                    }
                }
            }
        }
    }

    // Boundary rows/columns from explicit boundary-point classification.
    for &bp in a.boundary.iter() {
        match b.locate(bp) {
            LinealLocation::Interior => m.raise(Part::Boundary, Part::Interior, Dim::Zero),
            LinealLocation::Boundary => m.raise(Part::Boundary, Part::Boundary, Dim::Zero),
            LinealLocation::Exterior => m.raise(Part::Boundary, Part::Exterior, Dim::Zero),
        }
    }
    for &bp in b.boundary.iter() {
        match a.locate(bp) {
            LinealLocation::Interior => m.raise(Part::Interior, Part::Boundary, Dim::Zero),
            LinealLocation::Boundary => m.raise(Part::Boundary, Part::Boundary, Dim::Zero),
            LinealLocation::Exterior => m.raise(Part::Exterior, Part::Boundary, Dim::Zero),
        }
    }

    // Exterior cells by point-set coverage: if A ⊆ B there is no part of A
    // outside B (and vice versa).
    if !a.covered_by(b) {
        m.raise(Part::Interior, Part::Exterior, Dim::One);
    }
    if !b.covered_by(a) {
        m.raise(Part::Exterior, Part::Interior, Dim::One);
    }
    m
}

fn relate_la(l: &Lineal, ar: &Areal, until: Until) -> IntersectionMatrix {
    use Part::{Boundary as B, Exterior as E, Interior as I};
    let mut m = IntersectionMatrix::empty();
    m.set(E, E, Dim::Two);
    // A curve never covers a region's interior.
    m.set(E, I, Dim::Two);

    let boundary = ar.boundary_cow();
    let btree = ar.boundary_tree();
    let mut touch_point = false;
    let stopped = shapes::split_classify_indexed(&l.segments, &boundary, btree, ar, 0, |found| {
        match found {
            Fragment::Inside => m.raise(I, I, Dim::One),
            Fragment::OnBoundary => m.raise(I, B, Dim::One),
            Fragment::Outside => m.raise(I, E, Dim::One),
            Fragment::TouchPoint => touch_point = true,
        }
        until.reached(&m)
    });
    if stopped {
        return m;
    }

    // Isolated curve/boundary touch points: dimension 0 in I×B or B×B.
    if touch_point {
        let touch = |sa: &crate::segment::Segment,
                         sb: &crate::segment::Segment,
                         m: &mut IntersectionMatrix| {
            if let SegSegIntersection::Point(p) = sa.intersect(sb) {
                match l.locate(p) {
                    // A proper crossing's coordinate is rounded and may
                    // fail the exact on-segment test; such a point is
                    // never an exact curve endpoint, so it classifies
                    // as curve-interior.
                    LinealLocation::Interior | LinealLocation::Exterior => m.raise(I, B, Dim::Zero),
                    LinealLocation::Boundary => {}
                }
            }
        };
        for sa in l.segments.iter() {
            match btree {
                Some(tree) => {
                    tree.query(&sa.envelope(), |i| touch(sa, &boundary[i as usize], &mut m))
                }
                None => {
                    for sb in boundary.iter() {
                        touch(sa, sb, &mut m);
                    }
                }
            }
        }
    }

    // Curve endpoints against the region.
    for &bp in l.boundary.iter() {
        match ar.locate(bp) {
            PointLocation::Inside => m.raise(B, I, Dim::Zero),
            PointLocation::OnBoundary => m.raise(B, B, Dim::Zero),
            PointLocation::Outside => m.raise(B, E, Dim::Zero),
        }
    }

    // Region boundary not covered by the curve.
    if !boundary
        .iter()
        .all(|s| shapes::segment_covered_by_indexed(s, &l.segments, l.tree))
    {
        m.raise(E, B, Dim::One);
    }
    m
}

fn relate_aa(a: &Areal, b: &Areal, until: Until) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    m.set(Part::Exterior, Part::Exterior, Dim::Two);

    // Prepared regions first search their boundary trees for a point the
    // two boundaries share, and each fragment scan below starts at its
    // boundary's contact segment. Unindexed views (the brute-force oracle)
    // search nothing and scan from segment 0.
    let (first_a, first_b) = match (a, b) {
        (Areal::Indexed(pa), Areal::Indexed(pb)) => {
            match pa.tree.first_contact(&pa.boundary, &pb.tree, &pb.boundary) {
                Some(contact) => contact,
                None => {
                    // The boundaries never meet, so every ring lies wholly
                    // inside or wholly outside the other region, and one
                    // vertex per ring, located exactly, raises the cells
                    // its fragments would. It is never on the other
                    // boundary: its segment met no segment there.
                    for v in pa.ring_starts() {
                        raise_boundary_piece(&mut m, Fragment::from(pb.locate(v)), false);
                    }
                    for v in pb.ring_starts() {
                        raise_boundary_piece(&mut m, Fragment::from(pa.locate(v)), true);
                    }
                    interior_point_evidence(a, b, &mut m);
                    return m;
                }
            }
        }
        _ => (0, 0),
    };

    let ba = a.boundary_cow();
    let bb = b.boundary_cow();
    // ∂A against B.
    let stopped = shapes::split_classify_indexed(&ba, &bb, b.boundary_tree(), b, first_a, |kind| {
        raise_boundary_piece(&mut m, kind, false);
        until.reached(&m)
    });
    if stopped {
        return m;
    }
    // ∂B against A.
    let stopped = shapes::split_classify_indexed(&bb, &ba, a.boundary_tree(), a, first_b, |kind| {
        raise_boundary_piece(&mut m, kind, true);
        until.reached(&m)
    });
    if stopped {
        return m;
    }
    interior_point_evidence(a, b, &mut m);
    m
}

/// Raises the cells that a piece of ∂A of kind `kind` witnesses against
/// B, or with `of_b`, that a piece of ∂B witnesses against A (the same
/// cells, transposed). A boundary arc of one region strictly inside the
/// other spans an areal neighbourhood on both sides, hence the 2s it puts
/// in I×E / E×I.
fn raise_boundary_piece(m: &mut IntersectionMatrix, kind: Fragment, of_b: bool) {
    use Part::{Boundary as B, Exterior as E, Interior as I};
    let cells: &[(Part, Part, Dim)] = match kind {
        Fragment::Inside => &[(I, I, Dim::Two), (B, I, Dim::One), (E, I, Dim::Two)],
        Fragment::Outside => &[(I, E, Dim::Two), (B, E, Dim::One)],
        Fragment::OnBoundary => &[(B, B, Dim::One)],
        Fragment::TouchPoint => &[(B, B, Dim::Zero)],
    };
    for &(row, col, dim) in cells {
        if of_b {
            m.raise(col, row, dim);
        } else {
            m.raise(row, col, dim);
        }
    }
}

/// Per-component interior points. A component whose boundary lies
/// entirely on the other operand's boundary (e.g. a polygon exactly
/// filling the other's hole) contributes no boundary-fragment evidence;
/// its interior point is the only witness. Since each polygon's interior
/// is connected, one point per component makes the tests below complete:
/// any interior region not witnessed by a point forces a boundary
/// crossing, which the fragments catch.
fn interior_point_evidence(a: &Areal, b: &Areal, m: &mut IntersectionMatrix) {
    use Part::{Exterior as E, Interior as I};
    let ips_a = a.interior_points();
    let ips_b = b.interior_points();
    if ips_a.any(|c| b.locate(c) == PointLocation::Inside) {
        m.raise(I, I, Dim::Two);
    }
    if ips_a.any(|c| b.locate(c) == PointLocation::Outside) {
        m.raise(I, E, Dim::Two);
    }
    if ips_b.any(|c| a.locate(c) == PointLocation::Inside) {
        m.raise(I, I, Dim::Two);
    }
    if ips_b.any(|c| a.locate(c) == PointLocation::Outside) {
        m.raise(E, I, Dim::Two);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::linestring::{LineString, MultiLineString};
    use crate::point::{MultiPoint, Point};
    use crate::polygon::{MultiPolygon, Polygon, Ring};

    fn pt(x: f64, y: f64) -> Geometry {
        Point::xy(x, y).unwrap().into()
    }
    fn mpt(pts: &[(f64, f64)]) -> Geometry {
        MultiPoint::new(pts.iter().map(|&(x, y)| coord(x, y)).collect())
            .unwrap()
            .into()
    }
    fn line(pts: &[(f64, f64)]) -> Geometry {
        LineString::from_xy(pts).unwrap().into()
    }
    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Polygon::rect(coord(x0, y0), coord(x1, y1)).unwrap().into()
    }
    fn im(a: &Geometry, b: &Geometry) -> String {
        relate(a, b).to_string()
    }

    // ---- point × point ----

    #[test]
    fn pp_equal() {
        assert_eq!(im(&pt(1.0, 1.0), &pt(1.0, 1.0)), "0FFFFFFF2");
    }

    #[test]
    fn pp_distinct() {
        assert_eq!(im(&pt(1.0, 1.0), &pt(2.0, 2.0)), "FF0FFF0F2");
    }

    #[test]
    fn pp_multipoint_subset() {
        let a = mpt(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = mpt(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(im(&a, &b), "0FFFFF0F2"); // a within b
        assert_eq!(im(&b, &a), "0F0FFFFF2"); // b contains a
    }

    // ---- point × line ----

    #[test]
    fn pl_point_on_interior() {
        let l = line(&[(0.0, 0.0), (4.0, 0.0)]);
        // Point interior: II=0; the curve's interior and both endpoints
        // extend beyond the point: EI=1, EB=0.
        assert_eq!(im(&pt(2.0, 0.0), &l), "0FFFFF102");
    }

    #[test]
    fn pl_point_on_middle_vertex_is_interior() {
        let l = line(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]);
        let m = relate(&pt(2.0, 0.0), &l);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Empty);
    }

    #[test]
    fn pl_point_on_endpoint() {
        let l = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let m = relate(&pt(0.0, 0.0), &l);
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
        // The other endpoint is not covered by the point.
        assert_eq!(m.get(Part::Exterior, Part::Boundary), Dim::Zero);
    }

    #[test]
    fn pl_point_off_line() {
        let l = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let m = relate(&pt(2.0, 1.0), &l);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
    }

    #[test]
    fn lp_transpose_consistency() {
        let l = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let p = pt(2.0, 0.0);
        assert_eq!(relate(&l, &p), relate(&p, &l).transposed());
    }

    // ---- point × polygon ----

    #[test]
    fn pa_inside_on_outside() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        assert!(relate(&pt(1.0, 1.0), &a).matches("0FFFFF212"));
        assert!(relate(&pt(2.0, 1.0), &a).matches("F0FFFF212"));
        assert!(relate(&pt(5.0, 5.0), &a).matches("FF0FFF212"));
    }

    #[test]
    fn pa_multipoint_straddling() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        let p = mpt(&[(1.0, 1.0), (5.0, 5.0), (2.0, 1.0)]);
        let m = relate(&p, &a);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::Zero);
    }

    // ---- line × line ----

    #[test]
    fn ll_proper_crossing() {
        let a = line(&[(0.0, 0.0), (2.0, 2.0)]);
        let b = line(&[(0.0, 2.0), (2.0, 0.0)]);
        assert_eq!(im(&a, &b), "0F1FF0102");
    }

    #[test]
    fn ll_equal_lines() {
        let a = line(&[(0.0, 0.0), (2.0, 0.0)]);
        assert_eq!(im(&a, &a.clone()), "1FFF0FFF2");
    }

    #[test]
    fn ll_shared_endpoint() {
        let a = line(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = line(&[(2.0, 0.0), (4.0, 2.0)]);
        let m = relate(&a, &b);
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
    }

    #[test]
    fn ll_endpoint_on_interior_touch() {
        let a = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let b = line(&[(2.0, 0.0), (2.0, 3.0)]);
        let m = relate(&a, &b);
        // b's endpoint lies on a's interior.
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
        assert_eq!(relate(&b, &a), m.transposed());
    }

    #[test]
    fn ll_collinear_partial_overlap() {
        let a = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let b = line(&[(2.0, 0.0), (6.0, 0.0)]);
        let m = relate(&a, &b);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One);
        assert_eq!(m.get(Part::Exterior, Part::Interior), Dim::One);
        // a's right endpoint is interior to b, b's left endpoint interior to a.
        assert_eq!(m.get(Part::Boundary, Part::Interior), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
    }

    #[test]
    fn ll_contained_line() {
        let a = line(&[(1.0, 0.0), (2.0, 0.0)]);
        let b = line(&[(0.0, 0.0), (4.0, 0.0)]);
        let m = relate(&a, &b);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::Empty);
        assert_eq!(m.get(Part::Exterior, Part::Interior), Dim::One);
        assert!(m.matches("1FF0FF102"));
    }

    #[test]
    fn ll_disjoint() {
        let a = line(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = line(&[(0.0, 5.0), (1.0, 5.0)]);
        assert_eq!(im(&a, &b), "FF1FF0102");
    }

    #[test]
    fn ll_closed_ring_line_has_empty_boundary() {
        let ring = line(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]);
        let b = line(&[(0.0, 0.0), (-1.0, -1.0)]);
        let m = relate(&ring, &b);
        // The ring's boundary is empty: entire B(A) row is F.
        assert_eq!(m.get(Part::Boundary, Part::Interior), Dim::Empty);
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Empty);
        assert_eq!(m.get(Part::Boundary, Part::Exterior), Dim::Empty);
        // b's endpoint touches the ring's interior (its start vertex).
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
    }

    #[test]
    fn ll_multilinestring_shared_junction() {
        let a: Geometry = MultiLineString::new(vec![
            LineString::from_xy(&[(0.0, 0.0), (1.0, 0.0)]).unwrap(),
            LineString::from_xy(&[(1.0, 0.0), (2.0, 0.0)]).unwrap(),
        ])
        .unwrap()
        .into();
        let b = line(&[(1.0, 0.0), (1.0, 5.0)]);
        let m = relate(&a, &b);
        // The junction (1,0) is interior to `a` under the mod-2 rule and a
        // boundary endpoint of `b`.
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Empty);
    }

    // ---- line × polygon ----

    #[test]
    fn la_line_inside() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let l = line(&[(1.0, 1.0), (3.0, 3.0)]);
        assert_eq!(im(&l, &a), "1FF0FF212");
    }

    #[test]
    fn la_line_crossing() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let l = line(&[(-1.0, 2.0), (5.0, 2.0)]);
        assert_eq!(im(&l, &a), "101FF0212");
    }

    #[test]
    fn la_line_touching_edge_from_outside() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        // Runs along the bottom edge, outside elsewhere.
        let l = line(&[(-1.0, 0.0), (5.0, 0.0)]);
        let m = relate(&l, &a);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::One);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One);
    }

    #[test]
    fn la_line_touch_at_single_point() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let l = line(&[(4.0, 2.0), (8.0, 2.0)]);
        let m = relate(&l, &a);
        // Touches the right edge at the line's start point.
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Empty);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One);
    }

    #[test]
    fn la_line_ending_inside() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let l = line(&[(-2.0, 2.0), (2.0, 2.0)]);
        let m = relate(&l, &a);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
        assert_eq!(m.get(Part::Boundary, Part::Interior), Dim::Zero);
        assert_eq!(m.get(Part::Boundary, Part::Exterior), Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One);
    }

    #[test]
    fn la_line_through_hole() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let a: Geometry = Polygon::new(shell, vec![hole]).unwrap().into();
        // Crosses the polygon and its hole.
        let l = line(&[(-1.0, 5.0), (11.0, 5.0)]);
        let m = relate(&l, &a);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::One); // inside hole + outside shell
        assert_eq!(m.get(Part::Interior, Part::Boundary), Dim::Zero);
        // A segment entirely within the hole is exterior to the polygon.
        let l2 = line(&[(4.5, 5.0), (5.5, 5.0)]);
        assert_eq!(im(&l2, &a), "FF1FF0212");
    }

    #[test]
    fn al_transpose_consistency() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let l = line(&[(-1.0, 2.0), (5.0, 2.0)]);
        assert_eq!(relate(&a, &l), relate(&l, &a).transposed());
    }

    // ---- polygon × polygon: the eight Egenhofer relations ----

    #[test]
    fn aa_disjoint() {
        assert_eq!(im(&rect(0.0, 0.0, 1.0, 1.0), &rect(3.0, 0.0, 4.0, 1.0)), "FF2FF1212");
    }

    #[test]
    fn aa_touch_at_point() {
        assert_eq!(im(&rect(0.0, 0.0, 1.0, 1.0), &rect(1.0, 1.0, 2.0, 2.0)), "FF2F01212");
    }

    #[test]
    fn aa_touch_along_edge() {
        assert_eq!(im(&rect(0.0, 0.0, 1.0, 1.0), &rect(1.0, 0.0, 2.0, 1.0)), "FF2F11212");
    }

    #[test]
    fn aa_equal() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(im(&a, &a.clone()), "2FFF1FFF2");
    }

    #[test]
    fn aa_overlap() {
        assert_eq!(im(&rect(0.0, 0.0, 2.0, 2.0), &rect(1.0, 1.0, 3.0, 3.0)), "212101212");
    }

    #[test]
    fn aa_contains() {
        assert_eq!(im(&rect(0.0, 0.0, 10.0, 10.0), &rect(2.0, 2.0, 4.0, 4.0)), "212FF1FF2");
    }

    #[test]
    fn aa_within() {
        assert_eq!(im(&rect(2.0, 2.0, 4.0, 4.0), &rect(0.0, 0.0, 10.0, 10.0)), "2FF1FF212");
    }

    #[test]
    fn aa_covers() {
        // B inside A, sharing part of the bottom edge.
        let a = rect(0.0, 0.0, 10.0, 10.0);
        let b = rect(2.0, 0.0, 4.0, 4.0);
        assert_eq!(im(&a, &b), "212F11FF2");
    }

    #[test]
    fn aa_covered_by() {
        let a = rect(2.0, 0.0, 4.0, 4.0);
        let b = rect(0.0, 0.0, 10.0, 10.0);
        assert_eq!(im(&a, &b), "2FF11F212");
    }

    #[test]
    fn aa_transpose_consistency() {
        let cases = [
            (rect(0.0, 0.0, 2.0, 2.0), rect(1.0, 1.0, 3.0, 3.0)),
            (rect(0.0, 0.0, 10.0, 10.0), rect(2.0, 2.0, 4.0, 4.0)),
            (rect(0.0, 0.0, 1.0, 1.0), rect(1.0, 0.0, 2.0, 1.0)),
            (rect(0.0, 0.0, 1.0, 1.0), rect(5.0, 5.0, 6.0, 6.0)),
        ];
        for (a, b) in cases {
            assert_eq!(relate(&a, &b), relate(&b, &a).transposed(), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn aa_polygon_with_hole_containing_other() {
        let shell = Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let donut: Geometry = Polygon::new(shell, vec![hole]).unwrap().into();
        // A polygon inside the hole is disjoint from the donut.
        let inner = rect(4.5, 4.5, 5.5, 5.5);
        assert_eq!(im(&donut, &inner), "FF2FF1212");
        // A polygon filling the hole exactly touches along the hole ring.
        // Note EB = F: the plug's boundary coincides with the donut's hole
        // ring, so none of it lies in the donut's exterior.
        assert_eq!(im(&donut, &rect(4.0, 4.0, 6.0, 6.0)), "FF2F112F2");
        // A polygon overlapping the hole edge.
        let over = rect(5.0, 5.0, 7.0, 7.0);
        assert_eq!(im(&donut, &over), "212101212");
    }

    #[test]
    fn aa_multipolygon_component_equal() {
        let a: Geometry = MultiPolygon::new(vec![
            Polygon::rect(coord(0.0, 0.0), coord(1.0, 1.0)).unwrap(),
            Polygon::rect(coord(5.0, 0.0), coord(6.0, 1.0)).unwrap(),
        ])
        .unwrap()
        .into();
        let b = rect(0.0, 0.0, 1.0, 1.0);
        // A covers b (one component equals b, the other is extra area).
        let m = relate(&a, &b);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Two);
        assert_eq!(m.get(Part::Interior, Part::Exterior), Dim::Two);
        assert_eq!(m.get(Part::Exterior, Part::Interior), Dim::Empty);
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::One);
    }

    // ---- intersects convenience ----

    #[test]
    fn intersects_shortcuts() {
        assert!(intersects(&rect(0.0, 0.0, 2.0, 2.0), &rect(1.0, 1.0, 3.0, 3.0)));
        assert!(!intersects(&rect(0.0, 0.0, 1.0, 1.0), &rect(5.0, 5.0, 6.0, 6.0)));
        assert!(intersects(&pt(1.0, 1.0), &rect(0.0, 0.0, 2.0, 2.0)));
        assert!(intersects(&rect(0.0, 0.0, 1.0, 1.0), &rect(1.0, 0.0, 2.0, 1.0))); // touch
    }
}
