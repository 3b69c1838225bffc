//! The relation entry point against the full-matrix oracle, on the
//! candidate pairs extraction meets: every R-tree candidate pair
//! (reference feature × relevant feature with intersecting envelopes) of
//! `stars`-shaped layers and of generated cities.
//!
//! For each pair, `PreparedGeometry::relation` must equal `classify` of
//! `PreparedGeometry::relate_to`'s matrix, and the pair related the other
//! way round must give the converse relation. The relation engine stops
//! as soon as the cells computed so far decide the class; these pairs are
//! where it stops in practice (`overlaps` between 256-vertex stars,
//! `crosses` between districts and streets).
//!
//! The `stars` layers have perfbench's three layer shapes (256-, 256- and
//! 64-vertex stars) at perfbench's density, with a fifth of its features.
//!
//! A seeded generator adds region pairs built around the boundary-contact
//! search of prepared regions: pairs whose boundaries never meet (a star
//! inside a star, a star in a hole, a two-member multipolygon straddling
//! the other region, a hole ring inside the other region) and pairs that
//! meet at one shared vertex or along a shared edge. Those are also
//! checked against the unindexed `relate`.

use std::f64::consts::FRAC_PI_2;

use geopattern_datagen::{generate_city, random_layer, star_polygon, CityConfig};
use geopattern_geom::{
    classify, coord, relate, Coord, Dim, Geometry, MultiPolygon, Part, Polygon, PreparedGeometry,
    Ring, TopologicalRelation,
};
use geopattern_sdb::Layer;
use geopattern_testkit::Rng;

/// Asserts the relation contract on every candidate pair of `reference`
/// against `relevant`, and returns how many pairs fell in each relation
/// (indexed by `TopologicalRelation as usize`).
fn assert_candidate_pairs_agree(reference: &Layer, relevant: &[&Layer]) -> [usize; 9] {
    let rows = prepare(reference);
    let mut seen = [0usize; 9];
    for layer in relevant {
        let prepared = prepare(layer);
        for (row, a) in rows.iter().enumerate() {
            for ci in layer.query_envelope(&reference.features()[row].envelope()) {
                let b = &prepared[ci];
                let (da, db) = (a.geometry().dimension(), b.geometry().dimension());
                let rel = a.relation(b);
                let what = || {
                    format!(
                        "{} {row} × {} {ci}",
                        reference.feature_type, layer.feature_type
                    )
                };
                assert_eq!(
                    rel,
                    classify(&a.relate_to(b), da, db),
                    "relation: {}",
                    what()
                );
                assert_eq!(b.relation(a), rel.converse(), "converse: {}", what());
                seen[rel as usize] += 1;
            }
        }
    }
    seen
}

/// Every feature of `layer`, prepared.
fn prepare(layer: &Layer) -> Vec<PreparedGeometry<&Geometry>> {
    layer
        .features()
        .iter()
        .map(|f| PreparedGeometry::new(&f.geometry))
        .collect()
}

/// `stars` layers: perfbench's `(count, vertices)` shapes with a fifth of
/// the features, on an extent shrunk so that the stars' size relative to
/// their spacing stays the same.
fn stars_layers(seed: u64) -> (Layer, Layer, Layer) {
    const SHAPES: [(usize, usize); 3] = [(100, 256), (100, 256), (50, 64)];
    let extent = 1000.0 * (100.0f64 / 500.0).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let mut layer = |feature_type, (count, vertices)| {
        random_layer(&mut rng, feature_type, count, vertices, extent)
    };
    (
        layer("parcel", SHAPES[0]),
        layer("lake", SHAPES[1]),
        layer("forest", SHAPES[2]),
    )
}

#[test]
fn relation_equals_classify_of_relate_on_stars_candidate_pairs() {
    use TopologicalRelation::*;
    for seed in [7u64, 941] {
        let (parcel, lake, forest) = stars_layers(seed);
        let seen = assert_candidate_pairs_agree(&parcel, &[&lake, &forest]);
        // Most candidate pairs of overlapping stars overlap: the early stop
        // is exercised, and so is the run to the end for the rest.
        assert!(seen[Overlaps as usize] > 100, "seed {seed}: {seen:?}");
        assert!(seen[Disjoint as usize] > 0, "seed {seed}: {seen:?}");
    }
}

#[test]
fn relation_equals_classify_of_relate_on_city_candidate_pairs() {
    use TopologicalRelation::*;
    for seed in [7u64, 9] {
        let city = generate_city(&CityConfig {
            grid: 20,
            seed,
            ..CityConfig::default()
        });
        let seen = assert_candidate_pairs_agree(&city.reference, &city.relevant_refs());
        for rel in [Crosses, Contains, Touches, Overlaps] {
            assert!(
                seen[rel as usize] > 0,
                "seed {seed}: no {rel} among {seen:?}"
            );
        }
    }
}

/// `k` points on the circle of radius `r` around `c`, at sorted, jittered
/// angles strictly between `from` and `to`.
fn arc(rng: &mut Rng, c: Coord, r: f64, (from, to): (f64, f64), k: usize) -> Vec<Coord> {
    (0..k)
        .map(|i| {
            let t = from + (to - from) * (i as f64 + 0.1 + 0.8 * rng.f64()) / k as f64;
            coord(c.x + r * t.cos(), c.y + r * t.sin())
        })
        .collect()
}

/// The exterior ring of a star around `c` with radii in `[r_min, r_max]`.
fn star_ring(rng: &mut Rng, c: Coord, r_min: f64, r_max: f64, n: usize) -> Ring {
    star_polygon(rng, c, r_min, r_max, n).exterior().clone()
}

/// Region pairs whose envelopes meet, one of each kind per round, with
/// the relation of the first region to the second. Stars of at least
/// eight points reach no closer to their centre than 0.73 of their
/// smallest radius, which keeps the nested shapes apart.
fn region_pairs(
    seed: u64,
    rounds: usize,
) -> Vec<(&'static str, Geometry, Geometry, TopologicalRelation)> {
    use TopologicalRelation::*;
    let mut rng = Rng::seed_from_u64(seed);
    let rng = &mut rng;
    let mut pairs = Vec::new();
    for _ in 0..rounds {
        let c = coord(rng.f64() * 100.0, rng.f64() * 100.0);
        let r = 1.0 + rng.f64() * 9.0;
        let n: [usize; 3] = std::array::from_fn(|_| 8 + rng.below_usize(57));
        let inner = |rng: &mut Rng, n| {
            let centre = coord(c.x + 0.05 * r * rng.f64(), c.y + 0.05 * r * rng.f64());
            star_polygon(rng, centre, 0.2 * r, 0.45 * r, n)
        };
        let holed = |rng: &mut Rng, hole_min, hole_max| {
            let shell = star_ring(rng, c, 3.0 * r, 4.0 * r, n[0]);
            let hole = star_ring(rng, c, hole_min * r, hole_max * r, n[2]);
            Polygon::new(shell, vec![hole]).expect("the hole lies inside the shell")
        };

        let star = star_polygon(rng, c, r, 1.5 * r, n[0]);
        let small = inner(rng, n[1]);
        pairs.push((
            "star inside a star",
            star.clone().into(),
            small.clone().into(),
            Contains,
        ));

        let in_hole = inner(rng, n[1]);
        pairs.push((
            "star in a hole",
            holed(rng, 1.0, 1.5).into(),
            in_hole.into(),
            Disjoint,
        ));

        let away = star_polygon(rng, coord(c.x + 2.5 * r, c.y), 0.2 * r, 0.45 * r, n[2]);
        let straddling = MultiPolygon::new(vec![small, away]).expect("members apart");
        pairs.push((
            "straddling multipolygon",
            straddling.into(),
            star.clone().into(),
            Overlaps,
        ));

        pairs.push((
            "hole ring inside",
            holed(rng, 0.3, 0.5).into(),
            star.into(),
            Overlaps,
        ));

        // A convex polygon and its point reflection through one of its
        // vertices meet at that vertex only.
        let sides = 5 + rng.below_usize(8);
        let convex = star_polygon(rng, c, r, r, sides);
        let v = convex.exterior().coords()[rng.below_usize(sides)];
        let reflected = convex
            .exterior()
            .coords()
            .iter()
            .map(|p| coord(2.0 * v.x - p.x, 2.0 * v.y - p.y));
        let reflected =
            Polygon::from_exterior(Ring::new(reflected.collect()).expect("a convex ring"));
        pairs.push(("shared vertex", convex.into(), reflected.into(), Touches));

        // Two half-disks on either side of the line x = c.x, sharing part
        // of their edge along it.
        let right_centre = coord(c.x, c.y + r * (rng.f64() - 0.5));
        let right_r = r * (0.5 + rng.f64());
        let [k_left, k_right] = std::array::from_fn(|_| 2 + rng.below_usize(30));
        let mut left = vec![coord(c.x, c.y - r), coord(c.x, c.y + r)];
        left.extend(arc(rng, c, r, (FRAC_PI_2, 3.0 * FRAC_PI_2), k_left));
        let mut right = vec![coord(c.x, right_centre.y - right_r)];
        right.extend(arc(
            rng,
            right_centre,
            right_r,
            (-FRAC_PI_2, FRAC_PI_2),
            k_right,
        ));
        right.push(coord(c.x, right_centre.y + right_r));
        let [left, right] =
            [left, right].map(|pts| Polygon::from_exterior(Ring::new(pts).expect("a convex ring")));
        pairs.push(("shared edge", left.into(), right.into(), Touches));
    }
    pairs
}

#[test]
fn relation_equals_classify_of_relate_on_generated_region_pairs() {
    for seed in [7u64, 941] {
        for (kind, a, b, want) in region_pairs(seed, 20) {
            let what = || format!("seed {seed}, {kind}: {a:?} vs {b:?}");
            let (pa, pb) = (PreparedGeometry::new(&a), PreparedGeometry::new(&b));
            assert!(pa.envelope().intersects(&pb.envelope()), "{}", what());
            let brute = relate(&a, &b);
            assert_eq!(pa.relate_to(&pb), brute, "relate_to: {}", what());
            assert_eq!(
                pb.relate_to(&pa),
                brute.transposed(),
                "swapped relate_to: {}",
                what()
            );
            let rel = pa.relation(&pb);
            assert_eq!(
                rel,
                classify(&brute, a.dimension(), b.dimension()),
                "relation: {}",
                what()
            );
            assert_eq!(rel, want, "{}", what());
            // Only the touching kinds' boundaries meet.
            let meet = brute.get(Part::Boundary, Part::Boundary) != Dim::Empty;
            assert_eq!(meet, want == TopologicalRelation::Touches, "{}", what());
            assert_eq!(pb.relation(&pa), rel.converse(), "converse: {}", what());
        }
    }
}
