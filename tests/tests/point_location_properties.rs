//! Property tests for point location in prepared regions.
//!
//! A prepared region (`PreparedAreal`) locates points through the segment
//! tree over its boundary, by one even-odd rule over the edges of all of
//! its rings, and every observable output must be **bit-identical** to
//! the reference implementations — `Ring::locate` per ring, the old
//! per-ring, per-member loop on regions with holes and members, and a
//! full extraction at any thread count and tiling. These tests drive it
//! with seeded star, lattice and city rings, and with holes and members
//! that touch at vertices, plus adversarial probes: vertices, edge
//! fractions, points a hair off each edge on either side, and ±one-ulp
//! perturbations of all of those.

use geopattern::Threads;
use geopattern_datagen::{generate_city, lattice_polygon, star_polygon, CityConfig};
use geopattern_geom::relate::shapes::PreparedAreal;
use geopattern_geom::{
    coord, relate, Coord, Geometry, MultiPolygon, Point, PointLocation, Polygon, PreparedGeometry,
    Ring, TopologicalRelation,
};
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

/// The ring prepared as a region of its own.
fn prepared(ring: &Ring) -> PreparedAreal {
    PreparedAreal::from_polygon(&Polygon::from_exterior(ring.clone()))
}

/// `PreparedAreal::locate` equals the reference `Ring::locate` on every
/// probe of one ring.
fn assert_index_matches_scan(ring: &Ring) {
    let region = prepared(ring);
    for &p in &probes(ring) {
        assert_eq!(
            region.locate(p),
            ring.locate(p),
            "prepared locate diverged at {p:?}"
        );
    }
}

/// Smooth general-position rings of a few to many vertices.
#[test]
fn prepared_locate_matches_the_scan_on_star_rings() {
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
fn prepared_locate_matches_the_scan_on_lattice_rings() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..12 {
        let poly = lattice_polygon(&mut rng, 12);
        assert_index_matches_scan(poly.exterior());
    }
}

/// The synthetic city's rings: districts, slums and parks whose edges
/// are shared with their neighbours, so many probes lie on a boundary.
#[test]
fn prepared_locate_matches_the_scan_on_city_rings() {
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
    let region = prepared(&ring);
    let top = coord(4.0, 9.0);
    assert_eq!(ring.locate(top), PointLocation::OnBoundary);
    assert_eq!(region.locate(top), PointLocation::OnBoundary);
    let above = coord(4.0, ulp_up(9.0));
    assert_eq!(region.locate(above), PointLocation::Outside);
}

/// The location the old per-ring, per-member loop gave: a member's shell
/// first, then its holes in order (inside one → outside, on one → on the
/// boundary), and the members in order (inside one → inside, else on the
/// boundary when on one).
fn per_member_loop(members: &[Polygon], p: Coord) -> PointLocation {
    use PointLocation::*;
    let locate_member = |poly: &Polygon| match poly.exterior().locate(p) {
        Inside => {
            for h in poly.holes() {
                match h.locate(p) {
                    Inside => return Outside,
                    OnBoundary => return OnBoundary,
                    Outside => {}
                }
            }
            Inside
        }
        shell => shell,
    };
    let mut on_boundary = false;
    for poly in members {
        match locate_member(poly) {
            Inside => return Inside,
            OnBoundary => on_boundary = true,
            Outside => {}
        }
    }
    if on_boundary {
        OnBoundary
    } else {
        Outside
    }
}

/// The square's eight symmetries on lattice coordinates (exact).
fn symmetry(k: usize, c: Coord) -> Coord {
    let (x, y) = if k & 4 == 0 { (c.x, c.y) } else { (c.y, c.x) };
    coord(
        if k & 1 == 0 { x } else { -x },
        if k & 2 == 0 { y } else { -y },
    )
}

/// A polygon with lattice rings, mapped by symmetry `k`.
fn lattice_region(k: usize, shell: &[(f64, f64)], holes: &[&[(f64, f64)]]) -> Polygon {
    let ring = |pts: &[(f64, f64)]| {
        Ring::new(pts.iter().map(|&(x, y)| symmetry(k, coord(x, y))).collect()).unwrap()
    };
    Polygon::new(ring(shell), holes.iter().map(|h| ring(h)).collect()).unwrap()
}

/// Regions whose rings meet at vertices, under each of the square's
/// symmetries: a 12 × 12 shell with four holes, one touching the shell's
/// left edge at a vertex, one touching the top edge, one whose vertex
/// lies on the first hole's edge and one sharing a vertex with that
/// third; and that polygon with three more members, an island in the
/// first hole touching it at a vertex, a square touching the shell's
/// corner and a triangle touching its right edge.
fn multi_ring_regions() -> Vec<Vec<Polygon>> {
    let shell: &[(f64, f64)] = &[(0.0, 0.0), (12.0, 0.0), (12.0, 12.0), (0.0, 12.0)];
    let holes: &[&[(f64, f64)]] = &[
        &[(0.0, 6.0), (4.0, 3.0), (4.0, 9.0)],
        &[(6.0, 12.0), (4.0, 10.0), (8.0, 10.0)],
        &[(4.0, 6.0), (8.0, 3.0), (8.0, 9.0)],
        &[(8.0, 3.0), (11.0, 1.0), (11.0, 5.0)],
    ];
    let island: &[(f64, f64)] = &[(4.0, 6.0), (2.0, 5.0), (2.0, 7.0)];
    let corner: &[(f64, f64)] = &[(12.0, 12.0), (16.0, 12.0), (16.0, 16.0), (12.0, 16.0)];
    let side: &[(f64, f64)] = &[(12.0, 6.0), (15.0, 4.0), (15.0, 8.0)];
    (0..8)
        .flat_map(|k| {
            let holed = lattice_region(k, shell, holes);
            let members = vec![
                holed.clone(),
                lattice_region(k, island, &[]),
                lattice_region(k, corner, &[]),
                lattice_region(k, side, &[]),
            ];
            MultiPolygon::new(members.clone()).expect("members touch only at vertices");
            [vec![holed], members]
        })
        .collect()
}

/// A region's probes: a half-unit grid over and past its envelope (so
/// rays run through vertices and along horizontal edges), every vertex
/// and edge midpoint, and their ±one-ulp neighbours.
fn region_probes(members: &[Polygon]) -> Vec<Coord> {
    let env = members
        .iter()
        .fold(members[0].envelope(), |e, m| e.union(&m.envelope()));
    let mut probes = Vec::new();
    let (mut x, mut y) = (env.min.x - 1.0, env.min.y - 1.0);
    while y <= env.max.y + 1.0 {
        while x <= env.max.x + 1.0 {
            probes.push(coord(x, y));
            x += 0.5;
        }
        (x, y) = (env.min.x - 1.0, y + 0.5);
    }
    for ring in members.iter().flat_map(Polygon::rings) {
        for s in ring.segments() {
            for p in [s.a, s.midpoint()] {
                probes.extend([
                    p,
                    coord(ulp_up(p.x), p.y),
                    coord(ulp_down(p.x), p.y),
                    coord(p.x, ulp_up(p.y)),
                    coord(p.x, ulp_down(p.y)),
                ]);
            }
        }
    }
    probes
}

/// Holes that touch the shell and each other at vertices, and members
/// that touch at a vertex: the plain scans (`Polygon::locate`,
/// `MultiPolygon::locate`) and the prepared region's index give what the
/// per-member loop gives, on every probe.
#[test]
fn multi_ring_regions_locate_like_the_per_member_loop() {
    let mut checked = 0usize;
    for members in multi_ring_regions() {
        let region = match members.as_slice() {
            [one] => PreparedAreal::from_polygon(one),
            _ => PreparedAreal::from_multi(&MultiPolygon::new(members.clone()).unwrap()),
        };
        let multi = MultiPolygon::new(members.clone()).unwrap();
        for p in region_probes(&members) {
            let want = per_member_loop(&members, p);
            assert_eq!(multi.locate(p), want, "scan at {p:?}");
            if let [one] = members.as_slice() {
                assert_eq!(one.locate(p), want, "polygon scan at {p:?}");
            }
            assert_eq!(region.locate(p), want, "prepared index at {p:?}");
            checked += 1;
        }
    }
    assert!(checked > 10_000, "{checked} probes");
}

/// Holes whose interiors overlap pass `Polygon::new` (its doc leaves them
/// to the caller). A point in two of them crosses three rings, so the
/// even-odd rule puts it inside, where the per-member loop put it
/// outside; the scan, the prepared index and the free and prepared
/// relates of the point all agree on it.
#[test]
fn a_point_in_two_overlapping_holes_reads_inside_everywhere() {
    let shell = Ring::rect(coord(0.0, 0.0), coord(10.0, 10.0)).unwrap();
    let holes = vec![
        Ring::rect(coord(2.0, 2.0), coord(6.0, 6.0)).unwrap(),
        Ring::rect(coord(4.0, 4.0), coord(8.0, 8.0)).unwrap(),
    ];
    let poly = Polygon::new(shell, holes).unwrap();
    let in_both = coord(5.0, 5.0);
    assert_eq!(
        per_member_loop(std::slice::from_ref(&poly), in_both),
        PointLocation::Outside
    );
    let region = PreparedAreal::from_polygon(&poly);
    let prepared_poly = PreparedGeometry::new(Geometry::from(poly.clone()));
    use TopologicalRelation::*;
    for (p, want, relation) in [
        (in_both, PointLocation::Inside, Within),
        (coord(3.0, 3.0), PointLocation::Outside, Disjoint),
        (coord(7.0, 7.0), PointLocation::Outside, Disjoint),
        (coord(4.0, 5.0), PointLocation::OnBoundary, Touches),
        (coord(1.0, 1.0), PointLocation::Inside, Within),
    ] {
        assert_eq!(poly.locate(p), want, "scan at {p:?}");
        assert_eq!(region.locate(p), want, "prepared index at {p:?}");
        let point = Geometry::from(Point::new(p).unwrap());
        let free = relate(&point, prepared_poly.geometry());
        let prepared_point = PreparedGeometry::new(point);
        assert_eq!(
            prepared_point.relate_to(&prepared_poly),
            free,
            "relate at {p:?}"
        );
        assert_eq!(
            prepared_poly.relate_to(&prepared_point),
            free.transposed(),
            "{p:?}"
        );
        assert_eq!(
            prepared_point.relation(&prepared_poly),
            relation,
            "relation at {p:?}"
        );
    }
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
