//! Property tests for point location on prepared rings (`RingIndex`).
//!
//! A prepared ring locates points through its exact monotone-edge index,
//! and every observable output must be **bit-identical** to the reference
//! implementations — `Ring::locate` per ring, and a full extraction at
//! any thread count and tiling. These tests drive the index with seeded
//! star, lattice and city rings plus adversarial probes: vertices, edge
//! fractions, points a hair off each edge on either side, and ±one-ulp
//! perturbations of all of those.

use geopattern::Threads;
use geopattern_datagen::{generate_city, lattice_polygon, star_polygon, CityConfig};
use geopattern_geom::{coord, Coord, Geometry, PointLocation, Ring, RingIndex};
use geopattern_sdb::{extract_predicates, ExtractionConfig, Predicate, PredicateTable, Tiling};
use geopattern_testkit::Rng;

fn ulp_up(v: f64) -> f64 {
    f64::from_bits(if v >= 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

fn ulp_down(v: f64) -> f64 {
    f64::from_bits(if v > 0.0 { v.to_bits() - 1 } else { v.to_bits() + 1 })
}

/// A probe battery for one ring: a dense grid over (and past) the
/// envelope, every vertex and edge fraction, points off each edge
/// fraction along its normal on both sides (from 2⁻²⁸ to 2⁻²⁵ of the
/// ring's larger extent), and ±one-ulp perturbations of every
/// boundary-adjacent probe.
fn probes(ring: &Ring) -> Vec<Coord> {
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
    let hair = w.max(h) * 2f64.powi(-27);
    let boundary_start = probes.len();
    probes.extend(ring.coords().iter().copied());
    for s in ring.segments() {
        let (dx, dy) = (s.b.x - s.a.x, s.b.y - s.a.y);
        let len = (dx * dx + dy * dy).sqrt().max(f64::MIN_POSITIVE);
        let (nx, ny) = (-dy / len, dx / len);
        for t in [0.25, 0.5, 0.75] {
            let m = s.a.lerp(s.b, t);
            probes.push(m);
            for k in [0.5, -0.5, 4.0, -4.0] {
                let off = k * hair;
                probes.push(coord(m.x + nx * off, m.y + ny * off));
            }
        }
    }
    let mut near = Vec::new();
    for &p in &probes[boundary_start..] {
        near.push(coord(ulp_up(p.x), p.y));
        near.push(coord(ulp_down(p.x), p.y));
        near.push(coord(p.x, ulp_up(p.y)));
        near.push(coord(p.x, ulp_down(p.y)));
    }
    probes.extend(near);
    probes
}

/// `RingIndex::locate` equals the reference `Ring::locate` on every
/// probe of one ring.
fn assert_index_matches_scan(ring: &Ring) {
    let index = RingIndex::build(ring);
    assert_eq!(index.len(), ring.num_points());
    for &p in &probes(ring) {
        assert_eq!(index.locate(p), ring.locate(p), "ring index diverged at {p:?}");
    }
}

/// Smooth general-position rings of a few to many vertices.
#[test]
fn ring_index_matches_the_scan_on_star_rings() {
    let mut rng = Rng::seed_from_u64(42);
    for vertices in [3usize, 5, 8, 9, 13, 16, 21, 64] {
        let center = coord(rng.f64() * 20.0, rng.f64() * 20.0);
        let (r_min, r_max) = (1.0 + rng.f64(), 4.0 + rng.f64() * 3.0);
        let poly = star_polygon(&mut rng, center, r_min, r_max, vertices);
        assert_index_matches_scan(poly.exterior());
    }
}

/// Lattice-quantised rings: collinear chains, axis-parallel edges and
/// horizontal edges level with the probes, the degenerate cases of the
/// ray-crossing rule.
#[test]
fn ring_index_matches_the_scan_on_lattice_rings() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..12 {
        let poly = lattice_polygon(&mut rng, 12);
        assert_index_matches_scan(poly.exterior());
    }
}

/// The synthetic city's rings: districts, slums and parks whose edges
/// are shared with their neighbours, so many probes lie on a boundary.
#[test]
fn ring_index_matches_the_scan_on_city_rings() {
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
                    assert_index_matches_scan(ring);
                    rings += 1;
                }
            }
        }
    }
    assert!(rings > 0, "the city produced no polygon rings");
}

/// A concave ring whose top edge is horizontal: a probe at the top
/// ordinate must find the top edges, and one an ulp above them none.
#[test]
fn concave_ring_top_edge_and_the_point_an_ulp_above() {
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
    let index = RingIndex::build(&ring);
    let top = coord(4.0, 9.0);
    assert_eq!(ring.locate(top), PointLocation::OnBoundary);
    assert_eq!(index.locate(top), PointLocation::OnBoundary);
    let above = coord(4.0, ulp_up(9.0));
    assert_eq!(index.locate(above), PointLocation::Outside);
}

fn table_key(t: &PredicateTable) -> (Vec<Predicate>, Vec<(String, Vec<u32>)>) {
    (t.predicates().to_vec(), t.rows().to_vec())
}

/// A full extraction — topological plus bounded qualitative distance —
/// emits the same predicate table, rows and stats at every thread count
/// {1, 2, 8} × tiling {default (one tile), 2, 7}.
#[test]
fn extraction_bit_identical_across_threads_and_tiles() {
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
        for tiles in [None, Some(2), Some(7)] {
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
