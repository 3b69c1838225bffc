//! Property tests for quant → exact point location (`PreparedRing`).
//!
//! The i32-grid tier under the prepared-geometry path is a pure
//! accelerator: certain answers are exact by the snap-band homotopy
//! argument, ambiguous queries fall back to the exact `RingIndex`, and
//! every observable output must be **bit-identical** to the reference
//! implementations — `Ring::locate` per ring, and a full extraction at
//! any thread count and tiling. These tests drive it with seeded star,
//! lattice and city rings plus adversarial probes: exact grid points,
//! points a fraction of a snap band off an edge, and ±one-ulp
//! perturbations of boundary points.

use geopattern::{Recorder, Threads};
use geopattern_datagen::{generate_city, lattice_polygon, star_polygon, CityConfig};
use geopattern_geom::{
    coord, take_kernel_counters, Coord, Geometry, PointLocation, PreparedRing, QuantRing, Ring,
    RingIndex,
};
use geopattern_sdb::{extract_predicates, ExtractionConfig, Predicate, PredicateTable, Tiling};
use geopattern_testkit::Rng;

fn ulp_up(v: f64) -> f64 {
    f64::from_bits(if v >= 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

fn ulp_down(v: f64) -> f64 {
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// A probe battery for one ring, aimed at the quantizer: a dense grid
/// over (and past) the envelope, every vertex and edge fraction, points
/// snapped *exactly* onto the ring's own grid, points a fraction of a
/// snap band off each edge midpoint, and ±one-ulp perturbations of the
/// boundary-adjacent probes.
fn quant_probes(ring: &Ring, q: &QuantRing) -> Vec<Coord> {
    let env = ring.envelope();
    let (w, h) = (env.max.x - env.min.x, env.max.y - env.min.y);
    let mut probes = Vec::new();
    for i in 0..20 {
        for j in 0..20 {
            probes.push(coord(
                env.min.x - 0.1 * w + (i as f64 / 19.0) * 1.2 * w,
                env.min.y - 0.1 * h + (j as f64 / 19.0) * 1.2 * h,
            ));
        }
    }
    // Exact grid points: quantize grid probes and map them back through
    // the affine — these land on the lattice the integer predicates see,
    // the worst case for "certain" misclassification.
    let qz = q.quantizer();
    let (x0, y0) = qz.origin();
    let cell = qz.cell();
    for &p in probes.clone().iter().step_by(7) {
        if let Some((qx, qy)) = qz.quantize(p) {
            probes.push(coord(x0 + qx as f64 * cell, y0 + qy as f64 * cell));
        }
    }
    let mut near = Vec::new();
    let boundary_start = probes.len();
    probes.extend(ring.coords().iter().copied());
    for s in ring.segments() {
        let (dx, dy) = (s.b.x - s.a.x, s.b.y - s.a.y);
        let len = (dx * dx + dy * dy).sqrt().max(f64::MIN_POSITIVE);
        let (nx, ny) = (-dy / len, dx / len);
        for t in [0.25, 0.5, 0.75] {
            let m = s.a.lerp(s.b, t);
            probes.push(m);
            // Snap-band edges: half a band inside the ambiguity zone and
            // a few bands outside it, on both sides of the edge.
            for k in [0.5, -0.5, 4.0, -4.0] {
                let off = k * 2.0 * cell;
                probes.push(coord(m.x + nx * off, m.y + ny * off));
            }
        }
    }
    for &p in &probes[boundary_start..] {
        near.push(coord(ulp_up(p.x), p.y));
        near.push(coord(ulp_down(p.x), p.y));
        near.push(coord(p.x, ulp_up(p.y)));
        near.push(coord(p.x, ulp_down(p.y)));
    }
    probes.extend(near);
    probes
}

/// The quant → exact contract on one ring, against the reference
/// `Ring::locate`: a certain (`Some`) answer from `try_locate` is right,
/// a robust boundary probe is never certain, and both `RingIndex::locate`
/// and `PreparedRing::locate` agree with the reference on every probe.
fn assert_quant_contract(ring: &Ring) {
    let q = QuantRing::build(ring);
    let index = RingIndex::build(ring);
    let prepared = PreparedRing::build(ring);
    assert_eq!(q.len(), ring.num_points());
    for &p in &quant_probes(ring, &q) {
        let reference = ring.locate(p);
        if let Some(fast) = q.try_locate(p) {
            assert_eq!(fast, reference, "certain answer wrong at {p:?}");
        }
        if reference == PointLocation::OnBoundary {
            assert_eq!(q.try_locate(p), None, "boundary probe {p:?} answered certain");
        }
        assert_eq!(index.locate(p), reference, "exact index diverged at {p:?}");
        assert_eq!(prepared.locate(p), reference, "quant → exact locate diverged at {p:?}");
    }
}

/// Smooth general-position rings, with vertex counts that leave partial
/// lanes in the eight-wide integer blocks.
#[test]
fn quant_matches_scalar_on_star_rings() {
    let mut rng = Rng::seed_from_u64(42);
    for vertices in [3usize, 5, 8, 9, 13, 16, 21, 64] {
        let center = coord(rng.f64() * 20.0, rng.f64() * 20.0);
        let (r_min, r_max) = (1.0 + rng.f64(), 4.0 + rng.f64() * 3.0);
        let poly = star_polygon(&mut rng, center, r_min, r_max, vertices);
        assert_quant_contract(poly.exterior());
    }
}

/// Lattice-quantised rings: collinear chains, axis-parallel edges, and
/// vertices that quantize exactly onto the integer grid — the mass of
/// degenerate cases where the snap band must force a fallback.
#[test]
fn quant_matches_scalar_on_lattice_rings() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..12 {
        let poly = lattice_polygon(&mut rng, 12);
        assert_quant_contract(poly.exterior());
    }
}

/// The synthetic city's rings — districts, slums and parks whose edges
/// are shared with their neighbours — are where the grid misses most on
/// real workloads; every miss must land on the exact index.
#[test]
fn quant_matches_scalar_on_city_rings() {
    let ds = generate_city(&CityConfig { grid: 3, seed: 11, ..Default::default() });
    let mut rings = 0usize;
    for layer in std::iter::once(&ds.reference).chain(&ds.relevant) {
        for f in layer.features() {
            let polys = match &f.geometry {
                Geometry::Polygon(p) => std::slice::from_ref(p),
                Geometry::MultiPolygon(mp) => mp.polygons(),
                _ => continue,
            };
            for p in polys {
                for ring in std::iter::once(p.exterior()).chain(p.holes()) {
                    assert_quant_contract(ring);
                    rings += 1;
                }
            }
        }
    }
    assert!(rings > 0, "the city produced no polygon rings");
}

/// The sentinel pads replicate vertex 0; a query exactly at vertex 0 hits
/// the snap band in every stripe that scans a pad, and must still
/// classify as the boundary point it genuinely is.
#[test]
fn sentinel_pad_coincidence_is_boundary() {
    // 9 edges: the lane width does not divide it, so every stripe run is
    // padded with vertex-0 sentinels.
    let ring = Ring::from_xy(&[
        (0.0, 0.0),
        (8.0, 0.0),
        (8.0, 3.0),
        (4.0, 3.0),
        (4.0, 6.0),
        (8.0, 6.0),
        (8.0, 9.0),
        (0.0, 9.0),
        (0.0, 5.0),
    ])
    .unwrap();
    let q = QuantRing::build(&ring);
    let prepared = PreparedRing::build(&ring);
    let v0 = ring.coords()[0];
    assert_eq!(ring.locate(v0), PointLocation::OnBoundary);
    assert_eq!(prepared.locate(v0), PointLocation::OnBoundary);
    assert_eq!(q.try_locate(v0), None, "vertex-0 probe must fall back");
    // The top vertex sits on the last stripe's boundary; off-by-one in
    // stripe selection would misclassify it.
    let top = coord(4.0, 9.0);
    assert_eq!(prepared.locate(top), ring.locate(top));
    let above = coord(4.0, ulp_up(9.0));
    assert_eq!(prepared.locate(above), PointLocation::Outside);
}

fn table_key(t: &PredicateTable) -> (Vec<Predicate>, Vec<(String, Vec<u32>)>) {
    (t.predicates().to_vec(), t.rows().to_vec())
}

/// A full extraction — topological plus bounded qualitative distance —
/// emits the same predicate table, rows and stats at every thread count
/// {1, 2, 8} × tiling {flat, 1, 7}.
#[test]
fn extraction_bit_identical_across_quant_threads_and_tiles() {
    let ds = generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() });
    let cell = CityConfig::default().cell;
    let base = ExtractionConfig::topological_only().with_distance(
        geopattern_qsr::DistanceScheme::new(vec![
            ("veryCloseTo", 0.6 * cell),
            ("closeTo", 1.5 * cell),
        ])
        .expect("bounded scheme"),
    );
    let refs = ds.relevant_refs();
    let mut baseline = None;
    for n in [1usize, 2, 8] {
        let t = if n == 1 { Threads::Serial } else { Threads::Fixed(n) };
        for tiles in [None, Some(1), Some(7)] {
            let mut config = base.clone().with_threads(t);
            if let Some(tiles_per_axis) = tiles {
                config = config.with_tiling(Tiling::Grid { tiles_per_axis });
            }
            let (table, stats) =
                extract_predicates(&ds.reference, &refs, &config).expect("extraction");
            let key = (table_key(&table), stats);
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(&key, b, "threads={n} tiles={tiles:?} diverged"),
            }
        }
    }
}

/// The quant counters surface through the standard metrics drain, and —
/// because each extraction task drains its thread-local residue — the
/// per-run totals are invariant across thread counts. No query passes
/// through an `f64` lane tier, so `geom/simd_fallback_exact` stays 0.
#[test]
fn quant_counters_surface_and_are_thread_invariant() {
    let ds = generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() });
    let refs = ds.relevant_refs();
    let config = ExtractionConfig::topological_only();
    let run = |threads: Threads| {
        let rec = Recorder::new();
        let (table, _) = extract_predicates(
            &ds.reference,
            &refs,
            &config.clone().with_threads(threads).with_recorder(rec.clone()),
        )
        .expect("extraction");
        let m = rec.snapshot();
        (
            table_key(&table),
            m.counter("geom/quant_cells_resolved").unwrap_or(0),
            m.counter("geom/quant_fallback_exact").unwrap_or(0),
            m.counter("geom/simd_fallback_exact").unwrap_or(0),
        )
    };

    let _ = take_kernel_counters();
    let serial = run(Threads::Serial);
    assert!(serial.1 > 0, "extraction resolved no cells on the grid");
    assert!(serial.2 > 0, "shared-edge city rings must send some queries to the exact index");
    assert_eq!(serial.3, 0, "no f64 lane tier sits between the grid and the exact index");
    for n in [2usize, 8] {
        let parallel = run(Threads::Fixed(n));
        assert_eq!(parallel, serial, "quant counters changed at {n} threads");
    }
}
