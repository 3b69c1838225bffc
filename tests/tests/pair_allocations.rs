//! The warm candidate-pair path makes no heap allocation. Once a first
//! call has built a pair's lazy indexes, `PreparedGeometry::relate_to`
//! followed by `qsr::classify`, `PreparedGeometry::relation` (the entry
//! point extraction calls, which stops once the relation is decided) and
//! `PreparedGeometry::distance_within` allocate nothing, for every class
//! pair: points, lines and polygons, two 256-vertex stars (overlapping,
//! nested, and apart with overlapping envelopes), pairs with collinear
//! runs (split-cut overlap intervals, curve coverage), and a boundary
//! probe located through the region's boundary tree.
//!
//! Ring validation allocates nothing once warm: `Ring::new` on a 4-vertex
//! ring or a 256-vertex star makes no allocation beyond the `Vec` it is
//! handed.
//!
//! Preparation has budgets too: a 4-vertex polygon's lazy indexes take at
//! most 4 heap blocks, a point's none, a serial extraction over a
//! generated city stays under a fixed number of allocations per
//! reference row, and a 100,000-feature layer's spatial index is built
//! in a fixed number of heap blocks, not one per node.
//!
//! A `#[global_allocator]` wraps `System` and counts on a thread-local,
//! because the harness runs tests on parallel threads and a global count
//! would see theirs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::f64::consts::TAU;
use std::hint::black_box;

use geopattern_datagen::{generate_city, CityConfig};
use geopattern_geom::{
    coord, from_wkt, relate, take_kernel_counters, Coord, Geometry, Point, Polygon,
    PreparedGeometry, Ring,
};
use geopattern_qsr::{classify, TopologicalRelation};
use geopattern_sdb::{extract_predicates, ExtractionConfig, Feature, Layer};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocations and reallocations.
struct CountingAllocator;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`. Counting touches
// only a const-initialised thread-local `Cell` without a destructor, which
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SQUARE: &str = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";

fn prep(wkt: &str) -> PreparedGeometry {
    PreparedGeometry::new(from_wkt(wkt).unwrap())
}

/// The ring of a star with `n` points around `(cx, cy)`: `2n` vertices
/// alternating between radius `r` and `r / 2`.
fn star_ring(cx: f64, cy: f64, r: f64, n: usize) -> Vec<Coord> {
    (0..2 * n)
        .map(|k| {
            let radius = if k % 2 == 0 { r } else { r / 2.0 };
            let angle = TAU * k as f64 / (2 * n) as f64;
            coord(cx + radius * angle.cos(), cy + radius * angle.sin())
        })
        .collect()
}

/// That star as a polygon.
fn star(cx: f64, cy: f64, r: f64, n: usize) -> Geometry {
    Polygon::from_exterior(Ring::new(star_ring(cx, cy, r, n)).unwrap()).into()
}

/// Asserts that a warm `relate_to` + `classify` of `a` against `b`, and a
/// warm `relation`, allocate nothing and agree, and returns the relation.
fn warm_relate_allocates_nothing(
    a: &PreparedGeometry,
    b: &PreparedGeometry,
    what: &str,
) -> TopologicalRelation {
    let (da, db) = (a.geometry().dimension(), b.geometry().dimension());
    let relate_and_classify = || classify(&black_box(a.relate_to(b)), da, db);
    // The first call builds the lazy indexes.
    let rel = relate_and_classify();
    assert_eq!(a.relate_to(b), relate(a.geometry(), b.geometry()), "{what}");
    let warm = allocations(|| assert_eq!(relate_and_classify(), rel));
    assert_eq!(warm, 0, "relate_to + classify: {what}");
    let warm = allocations(|| assert_eq!(black_box(a.relation(b)), rel));
    assert_eq!(warm, 0, "relation: {what}");
    rel
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    assert_eq!(allocations(|| drop(black_box(Vec::<u64>::with_capacity(4)))), 1);
    assert_eq!(allocations(|| {}), 0);
}

#[test]
fn warm_relate_and_classify_allocate_nothing() {
    use TopologicalRelation::*;
    let cases = [
        ("POINT (5 5)", SQUARE, Within),
        ("POINT (10 5)", SQUARE, Touches),
        ("MULTIPOINT ((1 1), (5 0), (20 20))", "LINESTRING (0 0, 10 0)", Crosses),
        ("POINT (0 0)", "LINESTRING (0 0, 10 0)", Touches),
        ("LINESTRING (0 0, 10 10)", "LINESTRING (0 10, 10 0)", Crosses),
        // Collinear runs: curve coverage fills its interval buffer.
        ("LINESTRING (0 0, 10 0)", "LINESTRING (5 0, 15 0)", Overlaps),
        ("LINESTRING (2 0, 8 0)", "LINESTRING (0 0, 10 0)", Within),
        ("LINESTRING (-5 5, 15 5)", SQUARE, Crosses),
        // Along an edge: split cuts fill the overlap intervals.
        ("LINESTRING (-5 0, 15 0)", SQUARE, Touches),
        ("LINESTRING (0 0, 10 0, 10 10)", SQUARE, Touches),
        // Shared edge: both boundaries' splits fill the overlap intervals.
        (SQUARE, "POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))", Touches),
        (SQUARE, "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))", Overlaps),
        (SQUARE, "POLYGON ((2 0, 4 0, 4 4, 2 4, 2 0))", Covers),
        (SQUARE, "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))", Contains),
        (SQUARE, SQUARE, Equals),
        (
            "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), ((6 6, 9 6, 9 9, 6 9, 6 6)))",
            SQUARE,
            CoveredBy,
        ),
    ];
    for (wa, wb, want) in cases {
        let (a, b) = (prep(wa), prep(wb));
        let what = format!("{wa} vs {wb}");
        assert_eq!(warm_relate_allocates_nothing(&a, &b, &what), want, "{what}");
        assert_eq!(warm_relate_allocates_nothing(&b, &a, &what), want.converse(), "{what}");
    }
}

#[test]
fn warm_relate_of_two_256_vertex_stars_allocates_nothing() {
    let a = PreparedGeometry::new(star(0.0, 0.0, 10.0, 128));
    let b = PreparedGeometry::new(star(1.5, 0.5, 10.0, 128));
    for (x, y) in [(&a, &b), (&b, &a)] {
        assert_eq!(warm_relate_allocates_nothing(x, y, "stars"), TopologicalRelation::Overlaps);
    }
}

/// Pairs whose boundaries never meet take the contact search and one
/// located vertex per ring instead of the fragment scan: a pair of
/// 256-vertex stars whose envelopes overlap along the diagonal but whose
/// tips stay apart (22.6 between centres, tips of radius 10), and a
/// nested pair.
#[test]
fn warm_relate_of_contact_free_256_vertex_stars_allocates_nothing() {
    use TopologicalRelation::*;
    let outer = PreparedGeometry::new(star(0.0, 0.0, 10.0, 128));
    let apart = PreparedGeometry::new(star(16.0, 16.0, 10.0, 128));
    let nested = PreparedGeometry::new(star(0.0, 0.0, 2.0, 128));
    assert!(outer.envelope().intersects(&apart.envelope()));
    for (a, b, want) in [(&outer, &apart, Disjoint), (&outer, &nested, Contains)] {
        assert_eq!(warm_relate_allocates_nothing(a, b, "stars"), want);
        let swapped = warm_relate_allocates_nothing(b, a, "stars");
        assert_eq!(swapped, want.converse());
    }
}

#[test]
fn warm_boundary_probe_through_the_boundary_tree_allocates_nothing() {
    let shape = star(0.0, 0.0, 10.0, 128);
    let Geometry::Polygon(poly) = &shape else { unreachable!() };
    let vertex = poly.exterior().coords()[7];
    let probe = prep(&format!("POINT ({} {})", vertex.x, vertex.y));
    let region = PreparedGeometry::new(shape.clone());
    let rel = warm_relate_allocates_nothing(&probe, &region, "vertex probe");
    assert_eq!(rel, TopologicalRelation::Touches);
    let warm = allocations(|| {
        black_box(probe.relate_to(&region));
    });
    assert_eq!(warm, 0);
}

#[test]
fn warm_distance_within_allocates_nothing() {
    let far_star = star(40.0, 0.0, 10.0, 128);
    let near_star = star(0.0, 0.0, 10.0, 128);
    let cases: Vec<(PreparedGeometry, PreparedGeometry)> = [
        ("POINT (0 0)", "POINT (3 4)"),
        ("MULTIPOINT ((0 0), (9 9))", "LINESTRING (20 -1, 20 30)"),
        ("POINT (20 5)", SQUARE),
        ("POINT (10 5)", SQUARE),
        ("LINESTRING (0 0, 1 1)", "LINESTRING (3 0, 3 5)"),
        ("LINESTRING (20 0, 20 10)", SQUARE),
        (SQUARE, "POLYGON ((15 0, 25 0, 25 10, 15 10, 15 0))"),
    ]
    .into_iter()
    .map(|(a, b)| (prep(a), prep(b)))
    .chain([(PreparedGeometry::new(near_star), PreparedGeometry::new(far_star))])
    .collect();
    let _ = take_kernel_counters();
    for (a, b) in &cases {
        for (x, y) in [(a, b), (b, a)] {
            let what = format!("{:?} vs {:?}", x.geometry(), y.geometry());
            let within = || x.distance_within(y, 100.0);
            // The first call builds the lazy indexes.
            let d = within();
            assert!(d.is_some(), "{what}");
            let warm = allocations(|| assert_eq!(black_box(within()), d));
            assert_eq!(warm, 0, "distance_within: {what}");
        }
    }
    assert!(take_kernel_counters().pairs_exact > 0, "the tree traversals ran");
}

/// A warm `Ring::new` allocates nothing beyond the `Vec` it is handed:
/// the simplicity sweep keeps its buffers on the thread.
#[test]
fn a_warm_ring_validation_allocates_nothing() {
    let square = || vec![coord(0.0, 0.0), coord(4.0, 0.0), coord(4.0, 4.0), coord(0.0, 4.0)];
    let star = || star_ring(0.0, 0.0, 10.0, 128);
    for (make, what) in [(&square as &dyn Fn() -> Vec<Coord>, "square"), (&star, "star")] {
        // The first validation on this thread sizes the sweep's buffers.
        black_box(Ring::new(make()).unwrap());
        let coords = make();
        let warm = allocations(|| {
            black_box(Ring::new(coords).unwrap());
        });
        assert_eq!(warm, 0, "{what}");
    }
}

/// A cold `relate_to` that prepares `wkt`'s geometry (borrowed, not
/// cloned) against an already prepared square, after this thread's
/// first build has sized its scratch buffers.
fn cold_preparation(wkt: &str) -> u64 {
    let square = prep(SQUARE);
    warm_relate_allocates_nothing(&prep(SQUARE), &square, "warm-up");
    let geometry = from_wkt(wkt).unwrap();
    allocations(|| {
        let prepared = PreparedGeometry::new(&geometry);
        black_box(prepared.relate_to(&square));
    })
}

/// The box, the boundary and the boundary tree's entries and nodes.
#[test]
fn preparing_a_4_vertex_polygon_takes_at_most_4_allocations() {
    let cold = cold_preparation("POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))");
    assert!(cold <= 4, "{cold} allocations");
}

#[test]
fn preparing_a_point_allocates_nothing() {
    assert_eq!(cold_preparation("POINT (5 5)"), 0);
}

/// Allocations per reference row of one serial, topological extraction
/// over a generated city, everything included: preparation, R-tree
/// queries, rows and the merge into a table. The grid-20 city below
/// takes 6,021 (15.1 per row), so the bound leaves a margin of about 6%.
const EXTRACTION_ALLOCATIONS_PER_ROW: u64 = 16;

#[test]
fn serial_extraction_stays_under_its_per_row_budget() {
    let city = generate_city(&CityConfig { grid: 20, ..CityConfig::default() });
    let relevant: Vec<&Layer> = city.relevant.iter().collect();
    let config = ExtractionConfig::default();
    let rows = city.reference.len() as u64;
    let total = allocations(|| {
        black_box(extract_predicates(&city.reference, &relevant, &config).unwrap());
    });
    assert!(
        total <= EXTRACTION_ALLOCATIONS_PER_ROW * rows,
        "{total} allocations for {rows} rows"
    );
}

/// Allocations of `Layer::new` over 100,000 points, the size of perfbench
/// `city`'s `illuminationPoint` layer: the layer's name, the index's entry
/// array, the temporary buffers of its stable STR sorts (one for the x
/// sort, one per vertical slice, ⌈√12,500⌉ = 112 slices) and the node
/// arena's growth, 128 in all, so the bound leaves a margin of about 5%.
/// The pointer tree it replaced took 16,357 for that layer.
const LAYER_INDEX_ALLOCATIONS: u64 = 135;

#[test]
fn a_100k_feature_layer_index_takes_a_fixed_number_of_allocations() {
    let features: Vec<Feature> = (0..100_000u32)
        .map(|k| {
            let (x, y) = ((k * 7919 % 100_000) as f64, (k / 1000) as f64);
            Feature::new("", Point::xy(x, y).unwrap().into())
        })
        .collect();
    let mut layer = None;
    let built = allocations(|| layer = Some(Layer::new("illuminationPoint", features)));
    assert_eq!(black_box(layer).map(|l| l.len()), Some(100_000));
    assert!(built <= LAYER_INDEX_ALLOCATIONS, "{built} allocations");
}
