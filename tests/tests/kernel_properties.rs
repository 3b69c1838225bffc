//! Property tests for the segment-indexed geometry kernel.
//!
//! The prepared-geometry path (lazy segment R-trees, monotone ring
//! indexes, branch-and-bound bounded distance, self-join memo) is a pure
//! accelerator: every observable output must be **bit-identical** to the
//! brute-force kernel. These tests drive both paths with seeded random
//! workloads from `geopattern-datagen` — smooth general-position shapes
//! and lattice-quantised degenerates (collinear edges, shared vertices,
//! touching boundaries) — and assert exact agreement.

use geopattern_datagen::{lattice_geometry, lattice_polygon, random_linestring, star_polygon};
use geopattern_geom::{
    coord, geometry_distance, geometry_distance_within, relate, take_kernel_counters, Geometry,
    PreparedGeometry, Ring, RingIndex,
};
use geopattern_testkit::Rng;

/// The next `f64` strictly below a positive finite `d`.
fn prev_f64(d: f64) -> f64 {
    assert!(d > 0.0 && d.is_finite());
    f64::from_bits(d.to_bits() - 1)
}

/// A mixed bag of general-position geometries: star polygons and drifting
/// linestrings scattered so that many pairs intersect, many merely come
/// close, and the rest are far apart.
fn smooth_geometries(rng: &mut Rng, count: usize) -> Vec<Geometry> {
    (0..count)
        .map(|i| {
            let center = coord(rng.f64() * 40.0, rng.f64() * 40.0);
            if i % 2 == 0 {
                let r_min = 1.0 + rng.f64() * 2.0;
                let r_max = 3.0 + rng.f64() * 4.0;
                star_polygon(rng, center, r_min, r_max, 6 + i % 13).into()
            } else {
                random_linestring(rng, center, 2.0, 3 + i % 10).into()
            }
        })
        .collect()
}

/// Asserts the full kernel contract on one ordered pair:
/// * indexed relate equals brute relate, exactly;
/// * relate is transpose-symmetric (the property the self-join memo
///   depends on);
/// * `geometry_distance_within` returns the brute distance bit-for-bit at
///   any sufficient bound, at the *exactly equal* bound, and `None` one
///   ulp below it.
fn assert_kernel_contract(a: &Geometry, b: &Geometry) {
    let brute = relate(a, b);
    let pa = PreparedGeometry::new(a.clone());
    let pb = PreparedGeometry::new(b.clone());
    assert_eq!(pa.relate_to(&pb), brute, "indexed relate diverged from brute");
    assert_eq!(pb.relate_to(&pa), brute.transposed(), "relate transpose symmetry broken");

    let d = geometry_distance(a, b);
    assert!(d >= 0.0 && d.is_finite());
    let generous = geometry_distance_within(a, b, d * 2.0 + 1.0);
    assert_eq!(generous.map(f64::to_bits), Some(d.to_bits()), "bounded distance value drifted");
    // The bound is inclusive: a bound exactly equal to the distance hits.
    let exact = geometry_distance_within(a, b, d);
    assert_eq!(exact.map(f64::to_bits), Some(d.to_bits()), "bound == distance must report");
    // One ulp below the distance must prune to None.
    if d > 0.0 {
        assert_eq!(geometry_distance_within(a, b, prev_f64(d)), None, "bound just below {d}");
    }
    // Bounded distance is symmetric bit-for-bit.
    let mirror = geometry_distance_within(b, a, d);
    assert_eq!(mirror.map(f64::to_bits), Some(d.to_bits()), "bounded distance asymmetric");
}

#[test]
fn indexed_kernel_agrees_with_brute_on_random_pairs() {
    let mut rng = Rng::seed_from_u64(42);
    let geoms = smooth_geometries(&mut rng, 40);
    let mut pairs = 0usize;
    for a in &geoms {
        for b in &geoms {
            assert_kernel_contract(a, b);
            pairs += 1;
        }
    }
    assert!(pairs >= 1000, "property sweep covered {pairs} pairs, wanted >= 1000");
}

#[test]
fn indexed_kernel_agrees_with_brute_on_lattice_degenerates() {
    // Integer-lattice shapes make collinear overlaps, shared vertices and
    // boundary touches likely instead of measure-zero. Orientation tests
    // on small integers are exact, so both kernels face the same
    // degeneracies and must resolve them identically.
    let mut rng = Rng::seed_from_u64(42);
    let geoms: Vec<Geometry> = (0..36).map(|_| lattice_geometry(&mut rng, 12)).collect();
    let mut touching = 0usize;
    for a in &geoms {
        for b in &geoms {
            assert_kernel_contract(a, b);
            if geometry_distance(a, b) == 0.0 && !std::ptr::eq(a, b) {
                touching += 1;
            }
        }
    }
    assert!(touching > 20, "lattice workload should produce many touching pairs ({touching})");
}

/// The segment tree's bounded search prunes without changing an answer:
/// bounded distance equals the unbounded reference at generous, exact,
/// one-ulp-short, NaN and infinite bounds, on star pairs whose vertex
/// counts leave partly filled leaves.
#[test]
fn bounded_distance_matches_reference_at_edge_bounds() {
    let mut rng = Rng::seed_from_u64(99);
    let geoms: Vec<Geometry> = (0..10)
        .map(|i| {
            let center = coord(rng.f64() * 40.0, rng.f64() * 40.0);
            star_polygon(&mut rng, center, 1.0, 4.0, 6 + i % 9).into()
        })
        .collect();
    let _ = take_kernel_counters();
    for a in &geoms {
        for b in &geoms {
            let d = geometry_distance(a, b);
            let mut bounds = vec![d * 2.0 + 1.0, d, f64::NAN, f64::INFINITY];
            if d > 0.0 {
                bounds.push(prev_f64(d));
            }
            for &bound in &bounds {
                let want = (d <= bound).then_some(d.to_bits());
                let got = geometry_distance_within(a, b, bound).map(f64::to_bits);
                assert_eq!(got, want, "distance_within diverged at bound {bound}");
            }
        }
    }
    assert!(take_kernel_counters().pairs_exact > 0, "the search never reached a leaf");
}

/// The kernel counters surface through the extraction metrics drain: a
/// bounded-distance extraction reports exact leaf pairs and pruned
/// subtrees, and both `geom/simd_*` counters stay 0 — neither the
/// bounded search nor point location has an `f64` lane tier.
#[test]
fn kernel_counters_surface_in_pipeline_metrics() {
    use geopattern::Recorder;
    use geopattern_datagen::{generate_city, CityConfig};
    use geopattern_qsr::DistanceScheme;
    use geopattern_sdb::{extract_predicates, ExtractionConfig};

    let ds = generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() });
    let cell = CityConfig::default().cell;
    let scheme = DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
        .expect("bounded scheme");
    let rec = Recorder::new();
    let config =
        ExtractionConfig::topological_only().with_distance(scheme).with_recorder(rec.clone());
    extract_predicates(&ds.reference, &ds.relevant_refs(), &config).expect("extraction");
    let m = rec.snapshot();
    for key in ["geom/pairs_exact", "geom/distance_early_exit"] {
        let n = m.counter(key).unwrap_or(0);
        assert!(n > 0, "bounded extraction recorded no {key}: {}", m.to_json());
    }
    assert_eq!(m.counter("geom/simd_lanes_tested").unwrap_or(0), 0);
    assert_eq!(m.counter("geom/simd_fallback_exact").unwrap_or(0), 0);
}

#[test]
fn ring_index_locate_matches_ring_locate() {
    let mut rng = Rng::seed_from_u64(42);
    let mut rings: Vec<Ring> = (0..12)
        .map(|i| {
            let r_min = 1.0 + rng.f64();
            star_polygon(&mut rng, coord(5.0, 5.0), r_min, 4.0, 5 + i).exterior().clone()
        })
        .collect();
    rings.extend((0..12).map(|_| lattice_polygon(&mut rng, 12).exterior().clone()));

    for ring in &rings {
        let index = RingIndex::build(ring);
        // Exact boundary points: every vertex and every edge midpoint.
        let coords = ring.coords();
        for i in 0..coords.len() {
            let a = coords[i];
            let b = coords[(i + 1) % coords.len()];
            let mid = coord((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
            for p in [a, mid] {
                assert_eq!(index.locate(p), ring.locate(p), "boundary point {p:?}");
            }
        }
        // A dense random cloud spanning inside, outside and rays through
        // vertices (y equal to a vertex y exercises the parity edge rules).
        for _ in 0..200 {
            let p = coord(rng.f64() * 14.0 - 1.0, rng.f64() * 14.0 - 1.0);
            assert_eq!(index.locate(p), ring.locate(p), "random point {p:?}");
        }
        for &v in coords {
            let p = coord(v.x - 3.0, v.y);
            assert_eq!(index.locate(p), ring.locate(p), "vertex-ray point {p:?}");
        }
    }
}

/// The self-join memo (reference layer re-used as a relevant layer, by
/// pointer identity) must be invisible: extracting against the *same*
/// allocation and against an equal-but-distinct copy yields identical
/// predicate tables and stats, at every thread count.
#[test]
fn self_join_memo_is_invisible() {
    use geopattern_par::Threads;
    use geopattern_qsr::DistanceScheme;
    use geopattern_sdb::{extract_predicates, ExtractionConfig, Layer};

    let mut rng = Rng::seed_from_u64(42);
    let layer = geopattern_datagen::random_layer(&mut rng, "parcel", 48, 10, 60.0);
    let copy = Layer::new(layer.feature_type.clone(), layer.features().to_vec());

    let scheme = DistanceScheme::new(vec![("near", 6.0), ("mid", 14.0)]).expect("bounded scheme");
    let base = ExtractionConfig::topological_only().with_distance(scheme);

    let config = base.clone().with_threads(Threads::Serial);
    // Same allocation on both sides: the memo engages.
    let (memo_table, memo_stats) = extract_predicates(&layer, &[&layer], &config).unwrap();
    // Distinct allocation: pointer test fails, every pair computed directly.
    let (direct_table, direct_stats) = extract_predicates(&layer, &[&copy], &config).unwrap();
    assert_eq!(memo_table.predicates(), direct_table.predicates());
    assert_eq!(memo_table.rows(), direct_table.rows());
    assert_eq!(memo_stats, direct_stats);
    assert!(!memo_table.predicates().is_empty(), "self-join should produce predicates");

    for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
        let (table, stats) = extract_predicates(&layer, &[&layer], &base.clone().with_threads(threads)).unwrap();
        assert_eq!(table.predicates(), memo_table.predicates(), "{threads:?}");
        assert_eq!(table.rows(), memo_table.rows(), "{threads:?}");
        assert_eq!(stats, memo_stats, "{threads:?}");
    }
}
