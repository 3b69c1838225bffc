//! Internal shape abstractions for the DE-9IM engine.
//!
//! Every supported geometry is viewed as one of three homogeneous classes:
//! a point set ([`Puntal`]), a curve set ([`Lineal`]: segments plus mod-2
//! boundary points), or a region set ([`Areal`]: boundary rings plus a
//! point-classification function). The relate computations in the parent
//! module are written once per class pair.
//!
//! Views come in two flavours sharing the same code paths: the *owned*
//! views built by [`shape_of`] (used by the free [`crate::relate()`]
//! function, always brute force — the test oracle), and *borrowed* views
//! over a `PreparedShape` that additionally carry a segment index
//! ([`crate::segtree::StrTree`]), which a region also locates points
//! with. The index only narrows which segments are *inspected*; every
//! skipped segment is one the exact tests would have rejected anyway
//! (segment intersection starts with an envelope prefilter, and an edge
//! that contains a point or crosses the ray from it has an envelope that
//! meets the ray), so indexed and brute-force runs produce bit-identical
//! matrices. The one exception is the prepared region pair whose
//! boundaries never meet (see the parent module): it skips the fragment
//! scan, so where the brute-force scan misclassifies a rounded midpoint
//! within rounding distance of the other boundary, the two differ and
//! the prepared matrix is the exact one.
//!
//! A relate over prepared views allocates nothing: tree queries hand hits
//! to visitors, interior points are borrowed, and the parameter-space
//! bookkeeping (split cuts, collinear-overlap intervals) runs in per-thread
//! buffers that warm calls reuse.
//!
//! Building the prepared data is lean as well: a point set's view borrows
//! the geometry's coordinates and stores nothing, and a region is one
//! boxed [`PreparedAreal`] — first member inline, each member's interior
//! point computed once, its rings read off the cached boundary — whose
//! one index is the segment tree over that boundary.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::polygon::{MultiPolygon, PointLocation, Polygon, Ring};
use crate::segment::{merge_intervals, SegSegIntersection, Segment};
use crate::segtree::StrTree;
use std::borrow::Cow;
use std::cell::Cell;

/// Relative tolerance for parameter-space bookkeeping (splitting segments
/// at intersection points). Decisions about *whether* geometries intersect
/// are exact; this tolerance only guards against duplicated split points.
pub const PARAM_EPS: f64 = 1e-12;

/// Parameter-space buffers: split cuts and collinear-overlap intervals.
#[derive(Default)]
struct Scratch {
    cuts: Vec<f64>,
    intervals: Vec<(f64, f64)>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> =
        const { Cell::new(Scratch { cuts: Vec::new(), intervals: Vec::new() }) };
}

/// Runs `f` on this thread's [`Scratch`], emptied. Warm calls reuse the
/// buffers' capacity and allocate nothing; a nested call would find them
/// taken and start from fresh ones.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    scratch.cuts.clear();
    scratch.intervals.clear();
    let out = f(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// A 0-dimensional geometry: a finite set of distinct coordinates.
pub struct Puntal<'a> {
    /// The point set.
    pub coords: Cow<'a, [Coord]>,
}

/// A 1-dimensional geometry: a set of segments plus its topological
/// boundary (the mod-2 endpoints).
pub struct Lineal<'a> {
    /// All segments of the curve set.
    pub segments: Cow<'a, [Segment]>,
    /// The mod-2 boundary points.
    pub boundary: Cow<'a, [Coord]>,
    /// Optional segment index over `segments` (present on prepared views).
    pub(crate) tree: Option<&'a StrTree>,
}

/// Where a coordinate lies relative to a lineal geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinealLocation {
    Interior,
    Boundary,
    Exterior,
}

impl<'a> Lineal<'a> {
    /// Owned, unindexed view (the brute-force flavour).
    pub fn new(segments: Vec<Segment>, boundary: Vec<Coord>) -> Lineal<'a> {
        Lineal {
            segments: Cow::Owned(segments),
            boundary: Cow::Owned(boundary),
            tree: None,
        }
    }

    /// Classifies a coordinate against the curve.
    pub fn locate(&self, c: Coord) -> LinealLocation {
        if self.boundary.contains(&c) {
            return LinealLocation::Boundary;
        }
        let on_curve = match self.tree {
            Some(tree) => {
                let mut on = false;
                tree.query(&Rect::of_point(c), |i| {
                    on = on || self.segments[i as usize].contains_point(c);
                });
                on
            }
            None => self.segments.iter().any(|s| s.contains_point(c)),
        };
        if on_curve {
            LinealLocation::Interior
        } else {
            LinealLocation::Exterior
        }
    }

    /// True when every point of `self` lies on `other` (point-set
    /// containment of the curves, computed by collinear-interval coverage).
    pub fn covered_by(&self, other: &Lineal) -> bool {
        self.segments
            .iter()
            .all(|s| segment_covered_by_indexed(s, &other.segments, other.tree))
    }
}

/// True when segment `s` is fully covered by the union of `segs`
/// (via merged collinear-overlap intervals in `s`'s parameter space).
pub fn segment_covered_by(s: &Segment, segs: &[Segment]) -> bool {
    segment_covered_by_indexed(s, segs, None)
}

/// [`segment_covered_by`] with an optional index over `segs`. Only
/// segments whose envelope meets `s`'s can contribute an overlap interval,
/// so the candidate restriction never changes the merged coverage, and
/// merging sorts the intervals, so neither does the hit order.
pub(crate) fn segment_covered_by_indexed(
    s: &Segment,
    segs: &[Segment],
    tree: Option<&StrTree>,
) -> bool {
    with_scratch(|Scratch { intervals, .. }| {
        let mut push = |t: &Segment| {
            if let SegSegIntersection::Overlap(ov) = s.intersect(t) {
                let p0 = s.param_of_collinear_point(ov.a);
                let p1 = s.param_of_collinear_point(ov.b);
                intervals.push((p0.min(p1), p0.max(p1)));
            }
        };
        match tree {
            Some(tree) => tree.query(&s.envelope(), |i| push(&segs[i as usize])),
            None => segs.iter().for_each(push),
        }
        merge_intervals(intervals);
        crate::segment::intervals_cover_unit(intervals, PARAM_EPS.max(1e-9))
    })
}

/// A 2-dimensional geometry: one or more polygons with disjoint interiors.
pub enum Areal<'a> {
    /// A single polygon, viewed in place.
    One(&'a Polygon),
    /// A multi-polygon, viewed in place.
    Many(&'a MultiPolygon),
    /// A prepared region: its cached boundary and the segment tree over
    /// it, which also locates points.
    Indexed(&'a PreparedAreal),
}

impl<'a> Areal<'a> {
    /// Classifies a coordinate against the region (holes respected).
    pub fn locate(&self, c: Coord) -> PointLocation {
        match self {
            Areal::One(p) => p.locate(c),
            Areal::Many(mp) => mp.locate(c),
            Areal::Indexed(pa) => pa.locate(c),
        }
    }

    /// All boundary segments (exterior rings and holes of every component).
    pub fn boundary_segments(&self) -> Vec<Segment> {
        self.boundary_cow().into_owned()
    }

    /// Boundary segments without copying when a cached boundary exists.
    /// The segment order is identical in both flavours: exterior ring then
    /// holes, component by component.
    pub(crate) fn boundary_cow(&self) -> Cow<'_, [Segment]> {
        match self {
            Areal::One(p) => Cow::Owned(p.boundary_segments().collect()),
            Areal::Many(mp) => Cow::Owned(
                mp.polygons()
                    .iter()
                    .flat_map(|p| p.boundary_segments().collect::<Vec<_>>())
                    .collect(),
            ),
            Areal::Indexed(pa) => Cow::Borrowed(&pa.boundary),
        }
    }

    /// Segment tree over [`Areal::boundary_cow`], when prepared.
    pub(crate) fn boundary_tree(&self) -> Option<&StrTree> {
        match self {
            Areal::Indexed(pa) => Some(&pa.tree),
            _ => None,
        }
    }

    /// One interior point per connected component of the region's interior
    /// (one per member polygon), in member order. Needed for completeness
    /// of the region×region interior tests: a component whose boundary is
    /// entirely shared with the other operand (e.g. a polygon exactly
    /// filling a hole) is only detectable through its interior point.
    /// Computed for a plain view; read, without copying, from the members
    /// of a prepared region.
    pub(crate) fn interior_points(&self) -> InteriorPoints<'_> {
        match self {
            Areal::One(p) => InteriorPoints::Computed(vec![p.interior_point()]),
            Areal::Many(mp) => InteriorPoints::Computed(
                mp.polygons().iter().map(Polygon::interior_point).collect(),
            ),
            Areal::Indexed(pa) => InteriorPoints::Prepared(pa),
        }
    }
}

/// A region's interior points ([`Areal::interior_points`]).
pub(crate) enum InteriorPoints<'a> {
    /// Computed for a plain view.
    Computed(Vec<Coord>),
    /// Stored on a prepared region's members.
    Prepared(&'a PreparedAreal),
}

impl InteriorPoints<'_> {
    /// True when `test` holds for some point, trying them in member order
    /// and stopping at the first that passes.
    pub(crate) fn any(&self, test: impl FnMut(Coord) -> bool) -> bool {
        match self {
            InteriorPoints::Computed(points) => points.iter().copied().any(test),
            InteriorPoints::Prepared(pa) => pa.members().map(|m| m.interior).any(test),
        }
    }
}

/// A region with all relate/distance acceleration data precomputed: one
/// interior point per member, and the flattened boundary with a segment
/// tree over it, which is also the region's one point-location index
/// ([`PreparedAreal::locate`]).
///
/// The first member is stored inline and a multi-polygon's others in
/// `rest`; a member keeps only its interior point and its rings' edge
/// counts, which cut the boundary into rings. A prepared polygon without
/// holes therefore holds three heap blocks: the boundary and the tree's
/// two — four with the box a prepared geometry keeps it in. The boundary
/// doubles as the exterior-ring vertex list the bounded-distance
/// containment checks read.
///
/// Interior points are computed once at build time by the exact
/// (unindexed) [`Polygon::interior_point`], and point location applies
/// [`MultiPolygon::locate`]'s rule with its exact edge tests, so every
/// classification equals the brute-force one.
#[derive(Debug, Clone)]
pub struct PreparedAreal {
    first: PreparedPoly,
    rest: Vec<PreparedPoly>,
    /// Every member's boundary segments, member by member, each member's
    /// exterior ring first and then its holes (the order of
    /// [`Areal::boundary_cow`]).
    pub(crate) boundary: Vec<Segment>,
    pub(crate) tree: StrTree,
}

#[derive(Debug, Clone)]
struct PreparedPoly {
    /// Edge count of the exterior ring, whose run of boundary segments
    /// comes first in this member's.
    exterior: usize,
    /// Edge count of each hole, whose runs follow in hole order.
    holes: Vec<usize>,
    /// [`Polygon::interior_point`] of this member.
    interior: Coord,
}

impl PreparedPoly {
    fn build(p: &Polygon) -> PreparedPoly {
        PreparedPoly {
            exterior: p.exterior().num_points(),
            holes: p.holes().iter().map(Ring::num_points).collect(),
            interior: p.interior_point(),
        }
    }
}

impl PreparedAreal {
    /// Prepares a polygon.
    pub fn from_polygon(p: &Polygon) -> PreparedAreal {
        PreparedAreal::from_members(std::slice::from_ref(p))
    }

    /// Prepares a multi-polygon.
    pub fn from_multi(mp: &MultiPolygon) -> PreparedAreal {
        PreparedAreal::from_members(mp.polygons())
    }

    fn from_members(members: &[Polygon]) -> PreparedAreal {
        let (first, rest) = members.split_first().expect("a region has a member polygon");
        let edges = members.iter().flat_map(Polygon::rings).map(Ring::num_points).sum();
        let mut boundary = Vec::with_capacity(edges);
        boundary.extend(members.iter().flat_map(Polygon::boundary_segments));
        let tree = StrTree::build(boundary.iter().map(Segment::envelope));
        PreparedAreal {
            first: PreparedPoly::build(first),
            rest: rest.iter().map(PreparedPoly::build).collect(),
            boundary,
            tree,
        }
    }

    fn members(&self) -> impl Iterator<Item = &PreparedPoly> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Every member's exterior-ring vertices, in ring order, read off the
    /// cached boundary: a member's run of boundary segments starts with its
    /// exterior ring, whose segment `i` starts at vertex `i`.
    pub(crate) fn exterior_vertices(&self) -> impl Iterator<Item = Coord> + '_ {
        let mut at = 0;
        self.members().flat_map(move |m| {
            let exterior = &self.boundary[at..at + m.exterior];
            at += m.exterior + m.holes.iter().sum::<usize>();
            exterior.iter().map(|s| s.a)
        })
    }

    /// The first vertex of every ring, member by member, each member's
    /// exterior ring and then its holes, read off the cached boundary: a
    /// ring's run of boundary segments starts at its first vertex.
    pub(crate) fn ring_starts(&self) -> impl Iterator<Item = Coord> + '_ {
        self.members()
            .flat_map(|m| std::iter::once(&m.exterior).chain(&m.holes))
            .scan(0, |at, &edges| {
                let start = self.boundary[*at].a;
                *at += edges;
                Some(start)
            })
    }

    /// Classifies `c` against the region: [`MultiPolygon::locate`]'s
    /// even-odd rule over the edges of every ring (which is
    /// [`Polygon::locate`]'s for a single member), asked of the boundary
    /// tree ([`StrTree::locate`]).
    pub fn locate(&self, c: Coord) -> PointLocation {
        self.tree.locate(&self.boundary, c)
    }
}

/// What a piece of a boundary or curve segment is, once the segment is
/// split at its intersections with a region's boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fragment {
    /// A fragment strictly inside the region.
    Inside,
    /// A fragment along the region's boundary (a collinear overlap).
    OnBoundary,
    /// A fragment strictly outside the region.
    Outside,
    /// Not a fragment but a cut: an isolated intersection point with the
    /// region's boundary.
    TouchPoint,
}

impl From<PointLocation> for Fragment {
    /// The kind of a fragment whose point, located in the region, lies
    /// there.
    fn from(location: PointLocation) -> Fragment {
        match location {
            PointLocation::Inside => Fragment::Inside,
            PointLocation::Outside => Fragment::Outside,
            PointLocation::OnBoundary => Fragment::OnBoundary,
        }
    }
}

/// Splits every segment in `segs` at its intersections with
/// `region_boundary` (indexed by `tree`, when given) and classifies the
/// fragments against `region`, calling `found` with each kind of
/// [`Fragment`] the first time it appears. The scan starts at
/// `segs[first]` and wraps around to `segs[first - 1]`. It stops, and
/// returns `true`, as soon as `found` does; otherwise it covers every
/// segment and returns `false`. `found` runs at most four times per call,
/// so it may test a stop rule without a per-segment cost, and since the
/// kinds found do not depend on the order, neither does a complete scan.
///
/// Fragments that coincide with a collinear overlap run are classified
/// `OnBoundary` *symbolically* (from the overlap interval itself) rather
/// than by locating their midpoint, so hairline rounding in the midpoint
/// computation cannot flip a shared-edge case into an overlap case.
///
/// The tree yields the boundary segments whose envelopes meet the probe's,
/// in traversal order; skipped boundary segments cannot intersect (their
/// envelopes are disjoint from the probe's, the very prefilter
/// [`Segment::intersect`] applies first), so the cut multiset — and after
/// sorting and deduplication, the fragment classification — is identical.
/// The cut and interval buffers are reused across segments and calls.
pub(crate) fn split_classify_indexed(
    segs: &[Segment],
    region_boundary: &[Segment],
    tree: Option<&StrTree>,
    region: &Areal,
    first: usize,
    mut found: impl FnMut(Fragment) -> bool,
) -> bool {
    with_scratch(|Scratch { cuts, intervals: on_intervals }| {
        let mut seen = [false; 4];
        // Reports a kind on its first sighting; true when `found` stops.
        let mut report =
            |kind: Fragment| !std::mem::replace(&mut seen[kind as usize], true) && found(kind);
        let (head, tail) = segs.split_at(first);
        for s in tail.iter().chain(head) {
            cuts.clear();
            cuts.extend([0.0, 1.0]);
            on_intervals.clear();
            let mut touched = false;
            let mut cut_with = |t: &Segment| match s.intersect(t) {
                SegSegIntersection::None => {}
                SegSegIntersection::Point(p) => {
                    let tp = s.param_of_collinear_point_clamped(p);
                    cuts.push(tp);
                    touched = true;
                }
                SegSegIntersection::Overlap(ov) => {
                    let p0 = s.param_of_collinear_point(ov.a);
                    let p1 = s.param_of_collinear_point(ov.b);
                    let (lo, hi) = (p0.min(p1), p0.max(p1));
                    cuts.push(lo);
                    cuts.push(hi);
                    on_intervals.push((lo, hi));
                }
            };
            match tree {
                Some(tree) => tree.query(&s.envelope(), |i| cut_with(&region_boundary[i as usize])),
                None => region_boundary.iter().for_each(cut_with),
            }
            if touched && report(Fragment::TouchPoint) {
                return true;
            }
            cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite params"));
            cuts.dedup_by(|a, b| (*a - *b).abs() <= PARAM_EPS);
            merge_intervals(on_intervals);

            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                if hi - lo <= PARAM_EPS {
                    continue;
                }
                let mid = (lo + hi) * 0.5;
                // Fragments inside a recorded overlap run lie on the boundary.
                let kind = if on_intervals
                    .iter()
                    .any(|&(olo, ohi)| olo - PARAM_EPS <= lo && hi <= ohi + PARAM_EPS)
                {
                    Fragment::OnBoundary
                } else {
                    // `OnBoundary` here is a numerically pinched fragment
                    // grazing the boundary.
                    Fragment::from(region.locate(s.a.lerp(s.b, mid)))
                };
                if report(kind) {
                    return true;
                }
            }
        }
        false
    })
}

impl Segment {
    /// Parameter of an on-segment point, clamped to `[0, 1]`.
    pub(crate) fn param_of_collinear_point_clamped(&self, p: Coord) -> f64 {
        self.param_of_collinear_point(p).clamp(0.0, 1.0)
    }
}

/// Decomposes a geometry into its homogeneous class.
pub enum Shape<'a> {
    P(Puntal<'a>),
    L(Lineal<'a>),
    A(Areal<'a>),
}

/// Builds the class view of a geometry (owned, unindexed: the brute-force
/// flavour used by the free [`crate::relate()`] function).
pub fn shape_of(g: &Geometry) -> Shape<'_> {
    match g {
        Geometry::Point(p) => Shape::P(Puntal { coords: Cow::Owned(vec![p.coord()]) }),
        Geometry::MultiPoint(mp) => Shape::P(Puntal { coords: Cow::Borrowed(mp.coords()) }),
        Geometry::LineString(l) => {
            Shape::L(Lineal::new(l.segments().collect(), l.boundary_points()))
        }
        Geometry::MultiLineString(ml) => {
            Shape::L(Lineal::new(ml.segments().collect(), ml.boundary_points()))
        }
        Geometry::Polygon(p) => Shape::A(Areal::One(p)),
        Geometry::MultiPolygon(mp) => Shape::A(Areal::Many(mp)),
    }
}

/// The cached, index-carrying form of a geometry's class view, stored by
/// [`crate::prepared::PreparedGeometry`] and borrowed, together with the
/// geometry, as a [`Shape`] per relate call.
///
/// A point set stores nothing: its coordinates are the geometry's. A
/// region's data sits in one boxed block, which keeps the enum (and the
/// prepared geometry holding it) small.
#[derive(Debug, Clone)]
pub(crate) enum PreparedShape {
    P,
    L {
        segments: Vec<Segment>,
        boundary: Vec<Coord>,
        tree: StrTree,
    },
    A(Box<PreparedAreal>),
}

/// The coordinates of a point or multi-point, borrowed.
pub(crate) fn point_set(g: &Geometry) -> &[Coord] {
    match g {
        Geometry::Point(p) => std::slice::from_ref(&p.0),
        Geometry::MultiPoint(mp) => mp.coords(),
        _ => unreachable!("a point-set shape is built from a point or multi-point"),
    }
}

impl PreparedShape {
    /// Builds the indexed class view of a geometry.
    pub(crate) fn build(g: &Geometry) -> PreparedShape {
        match g {
            Geometry::Point(_) | Geometry::MultiPoint(_) => PreparedShape::P,
            Geometry::LineString(l) => {
                let segments: Vec<Segment> = l.segments().collect();
                let tree = StrTree::build(segments.iter().map(Segment::envelope));
                PreparedShape::L { segments, boundary: l.boundary_points(), tree }
            }
            Geometry::MultiLineString(ml) => {
                let segments: Vec<Segment> = ml.segments().collect();
                let tree = StrTree::build(segments.iter().map(Segment::envelope));
                PreparedShape::L { segments, boundary: ml.boundary_points(), tree }
            }
            Geometry::Polygon(p) => PreparedShape::A(Box::new(PreparedAreal::from_polygon(p))),
            Geometry::MultiPolygon(mp) => {
                PreparedShape::A(Box::new(PreparedAreal::from_multi(mp)))
            }
        }
    }

    /// Borrows the prepared data of `g` (the geometry this shape was
    /// built from) as a [`Shape`] view with indexes attached.
    pub(crate) fn as_shape<'a>(&'a self, g: &'a Geometry) -> Shape<'a> {
        match self {
            PreparedShape::P => Shape::P(Puntal { coords: Cow::Borrowed(point_set(g)) }),
            PreparedShape::L { segments, boundary, tree } => Shape::L(Lineal {
                segments: Cow::Borrowed(segments),
                boundary: Cow::Borrowed(boundary),
                tree: Some(tree),
            }),
            PreparedShape::A(pa) => Shape::A(Areal::Indexed(pa)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::linestring::LineString;

    fn lineal(pts: &[(f64, f64)]) -> Lineal<'static> {
        let l = LineString::from_xy(pts).unwrap();
        Lineal::new(l.segments().collect(), l.boundary_points())
    }

    #[test]
    fn lineal_locate() {
        let l = lineal(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]);
        assert_eq!(l.locate(coord(1.0, 0.0)), LinealLocation::Interior);
        assert_eq!(l.locate(coord(2.0, 0.0)), LinealLocation::Interior); // middle vertex
        assert_eq!(l.locate(coord(0.0, 0.0)), LinealLocation::Boundary);
        assert_eq!(l.locate(coord(2.0, 2.0)), LinealLocation::Boundary);
        assert_eq!(l.locate(coord(5.0, 5.0)), LinealLocation::Exterior);
    }

    #[test]
    fn indexed_lineal_locate_matches_brute() {
        let l = LineString::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (5.0, 2.0)]).unwrap();
        let g: Geometry = l.into();
        let prepared = PreparedShape::build(&g);
        let (brute, indexed) = (shape_of(&g), prepared.as_shape(&g));
        let (Shape::L(brute), Shape::L(indexed)) = (brute, indexed) else {
            panic!("lineal expected");
        };
        for p in [
            coord(1.0, 0.0),
            coord(2.0, 0.0),
            coord(0.0, 0.0),
            coord(5.0, 2.0),
            coord(3.0, 2.0),
            coord(9.0, 9.0),
        ] {
            assert_eq!(brute.locate(p), indexed.locate(p), "{p:?}");
        }
        assert!(indexed.tree.is_some());
    }

    #[test]
    fn coverage() {
        let short = lineal(&[(1.0, 0.0), (2.0, 0.0)]);
        let long = lineal(&[(0.0, 0.0), (4.0, 0.0)]);
        assert!(short.covered_by(&long));
        assert!(!long.covered_by(&short));
        // Coverage across multiple sub-segments.
        let split = lineal(&[(0.0, 0.0), (1.5, 0.0), (4.0, 0.0)]);
        assert!(long.covered_by(&split));
        // Perpendicular: no coverage.
        let perp = lineal(&[(0.0, 0.0), (0.0, 4.0)]);
        assert!(!short.covered_by(&perp));
    }

    /// The kinds of fragment `segs` splits into against `poly`.
    fn fragments(segs: &[Segment], poly: &Polygon) -> Vec<Fragment> {
        let region = Areal::One(poly);
        let boundary = region.boundary_segments();
        let mut kinds = Vec::new();
        let stopped = split_classify_indexed(segs, &boundary, None, &region, 0, |kind| {
            kinds.push(kind);
            false
        });
        assert!(!stopped);
        kinds
    }

    #[test]
    fn split_classify_crossing_polygon() {
        use Fragment::*;
        let poly = Polygon::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap();
        // A segment crossing straight through.
        let f = fragments(&[Segment::new(coord(-1.0, 1.0), coord(3.0, 1.0))], &poly);
        assert_eq!(f, [TouchPoint, Outside, Inside]);
        // A segment running along an edge, meeting the two next edges at
        // its ends.
        let f = fragments(&[Segment::new(coord(0.0, 0.0), coord(2.0, 0.0))], &poly);
        assert_eq!(f, [TouchPoint, OnBoundary]);
        // A segment fully inside.
        let f = fragments(&[Segment::new(coord(0.5, 0.5), coord(1.5, 1.5))], &poly);
        assert_eq!(f, [Inside]);
        // A segment fully outside.
        let f = fragments(&[Segment::new(coord(5.0, 5.0), coord(6.0, 6.0))], &poly);
        assert_eq!(f, [Outside]);
    }

    #[test]
    fn split_classify_stops_when_found_says_so() {
        let poly = Polygon::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap();
        let region = Areal::One(&poly);
        let boundary = region.boundary_segments();
        let segs = [
            Segment::new(coord(-1.0, 1.0), coord(3.0, 1.0)),
            Segment::new(coord(0.0, 0.0), coord(2.0, 0.0)),
        ];
        let mut kinds = Vec::new();
        let stopped = split_classify_indexed(&segs, &boundary, None, &region, 0, |kind| {
            kinds.push(kind);
            kind == Fragment::Outside
        });
        assert!(stopped);
        assert_eq!(kinds, [Fragment::TouchPoint, Fragment::Outside]);
    }

    #[test]
    fn ring_starts_are_each_rings_first_vertex() {
        let donut = |x: f64| {
            let shell = Ring::rect(coord(x, 0.0), coord(x + 10.0, 10.0)).unwrap();
            let holes = vec![
                Ring::rect(coord(x + 2.0, 2.0), coord(x + 4.0, 4.0)).unwrap(),
                Ring::rect(coord(x + 6.0, 6.0), coord(x + 8.0, 8.0)).unwrap(),
            ];
            Polygon::new(shell, holes).unwrap()
        };
        let mp = MultiPolygon::new(vec![donut(0.0), donut(20.0)]).unwrap();
        let want: Vec<Coord> = mp
            .polygons()
            .iter()
            .flat_map(Polygon::rings)
            .map(|r| r.coords()[0])
            .collect();
        assert_eq!(want.len(), 6);
        let starts: Vec<Coord> = PreparedAreal::from_multi(&mp).ring_starts().collect();
        assert_eq!(starts, want);
    }

    #[test]
    fn prepared_areal_locate_matches_polygon_locate() {
        let shell = crate::polygon::Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
        let hole = crate::polygon::Ring::rect(coord(4.0, 4.0), coord(6.0, 6.0)).unwrap();
        let poly = crate::polygon::Polygon::new(shell, vec![hole]).unwrap();
        let pa = PreparedAreal::from_polygon(&poly);
        for i in 0..60 {
            for j in 0..60 {
                let p = coord(i as f64 * 0.25 - 2.0, j as f64 * 0.25 - 2.0);
                assert_eq!(pa.locate(p), poly.locate(p), "{p:?}");
            }
        }
        // Exact boundary points, including the hole ring.
        for p in [coord(0.0, 0.0), coord(10.0, 5.0), coord(4.0, 5.0), coord(6.0, 6.0)] {
            assert_eq!(pa.locate(p), poly.locate(p), "{p:?}");
        }
    }

    #[test]
    fn prepared_areal_locate_matches_ring_locate_at_vertices_and_midpoints() {
        let shells: [&[(f64, f64)]; 3] = [
            &[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            &[
                (0.0, 0.0),
                (8.0, 0.0),
                (8.0, 3.0),
                (4.0, 3.0),
                (4.0, 6.0),
                (8.0, 6.0),
                (8.0, 9.0),
                (0.0, 9.0),
                (0.0, 5.0),
            ],
            &[(0.0, 0.0), (7.0, 1.0), (3.0, 8.0)],
        ];
        for shell in shells {
            let poly = crate::polygon::Polygon::from_xy(shell).unwrap();
            let ring = poly.exterior();
            let pa = PreparedAreal::from_polygon(&poly);
            let mut probes: Vec<Coord> = Vec::new();
            for i in 0..45 {
                for j in 0..45 {
                    probes.push(coord(i as f64 * 0.27 - 1.0, j as f64 * 0.27 - 1.0));
                }
            }
            probes.extend(ring.coords().iter().copied());
            probes.extend(ring.segments().map(|s| s.midpoint()));
            for p in probes {
                assert_eq!(pa.locate(p), ring.locate(p), "ring={ring:?} p={p:?}");
            }
        }
    }
}
