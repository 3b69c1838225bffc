//! Metamorphic tests of the relate engine: transforms that are exact in
//! `f64` must not change any relation, and swapping the operands must
//! transpose the matrix.
//!
//! Both prepared entry points are checked: `PreparedGeometry::relate_to`
//! (the full DE-9IM matrix) and `PreparedGeometry::relation` (the engine
//! run only until the relation is decided). The inputs are seeded stars,
//! lattice polygons with holes, and multipolygons of either, scattered so
//! that most pairs' envelopes meet: boundaries cross, touch at lattice
//! vertices, share collinear runs, or never meet at all.
//!
//! The transforms are the eight symmetries of the square (`AffineTransform`
//! with 0/±1 entries), power-of-two scalings, and, on lattice inputs only,
//! integer translations. Each maps every coordinate exactly, and the
//! engine decides existence with exact orientation predicates, so a
//! relation that moved would show a rounding path the engine's answers
//! depend on.
//!
//! The same inputs also face the RCC8 composition table: for every triple
//! of regions `a`, `b`, `c`, the relation of `a` to `c` must be one that
//! `rel(a, b) ∘ rel(b, c)` allows.

use geopattern_datagen::{lattice_polygon, star_polygon};
use geopattern_geom::{
    coord, AffineTransform, Geometry, IntersectionMatrix, MultiPolygon, Polygon, PreparedGeometry,
    Ring, TopologicalRelation,
};
use geopattern_qsr::{classify, compose_base, Rcc8, Rcc8Set};
use geopattern_testkit::Rng;

/// The eight symmetries of the square: rotations by quarter turns and the
/// four reflections.
fn square_symmetries() -> Vec<AffineTransform> {
    [
        (1.0, 0.0, 0.0, 1.0),
        (0.0, -1.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0, -1.0),
        (0.0, 1.0, -1.0, 0.0),
        (-1.0, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, -1.0),
        (0.0, 1.0, 1.0, 0.0),
        (0.0, -1.0, -1.0, 0.0),
    ]
    .into_iter()
    .map(|(m00, m01, m10, m11)| AffineTransform {
        m00,
        m01,
        m10,
        m11,
        tx: 0.0,
        ty: 0.0,
    })
    .collect()
}

/// Power-of-two scalings, exact while no coordinate overflows or
/// underflows.
fn power_of_two_scalings() -> Vec<AffineTransform> {
    [-20, -3, 1, 12]
        .into_iter()
        .map(|e| AffineTransform::scale(2f64.powi(e)))
        .collect()
}

/// Integer translations, exact on lattice coordinates.
fn integer_translations() -> Vec<AffineTransform> {
    [
        (1.0, 0.0),
        (-7.0, 3.0),
        (1024.0, -4096.0),
        (-999_983.0, 65_537.0),
    ]
    .into_iter()
    .map(|(dx, dy)| AffineTransform::translate(dx, dy))
    .collect()
}

/// Stars of 8 to 40 vertices in a 20 × 20 square, with every fourth a
/// two-member multipolygon (a second, small star beside the first).
fn stars(rng: &mut Rng, count: usize) -> Vec<Geometry> {
    (0..count)
        .map(|i| {
            let c = coord(rng.f64() * 20.0, rng.f64() * 20.0);
            let r = 2.0 + rng.f64() * 4.0;
            let n = 8 + rng.below_usize(33);
            let star = star_polygon(rng, c, 0.5 * r, r, n);
            if i % 4 != 3 {
                return star.into();
            }
            let beside = star_polygon(rng, coord(c.x + 2.5 * r, c.y), 0.2 * r, 0.5 * r, n);
            MultiPolygon::new(vec![star, beside])
                .expect("members apart")
                .into()
        })
        .collect()
}

/// Lattice polygons in a 12 × 12 square: rectangles with one or two
/// rectangular holes, datagen's snapped lattice stars, and two-member
/// multipolygons of them.
fn lattice(rng: &mut Rng, count: usize) -> Vec<Geometry> {
    let holed = |rng: &mut Rng| {
        let (x, y) = (rng.range_i64(0, 6) as f64, rng.range_i64(0, 6) as f64);
        let (w, h) = (rng.range_i64(4, 8) as f64, rng.range_i64(4, 8) as f64);
        let shell = Ring::rect(coord(x, y), coord(x + w, y + h)).expect("a rectangle");
        let mut holes = vec![
            Ring::rect(coord(x + 1.0, y + 1.0), coord(x + 2.0, y + 2.0)).expect("a rectangle")
        ];
        if w > 4.0 && rng.chance(0.5) {
            holes.push(
                Ring::rect(coord(x + 3.0, y + 1.0), coord(x + w - 1.0, y + h - 1.0))
                    .expect("a rectangle"),
            );
        }
        Polygon::new(shell, holes).expect("holes inside the shell, apart")
    };
    (0..count)
        .map(|i| match i % 3 {
            0 => holed(rng).into(),
            1 => lattice_polygon(rng, 12).into(),
            _ => {
                let first = holed(rng);
                let x = first.envelope().max.x + 1.0;
                let second =
                    Polygon::rect(coord(x, 0.0), coord(x + 2.0, 3.0)).expect("a rectangle");
                MultiPolygon::new(vec![first, second])
                    .expect("members apart")
                    .into()
            }
        })
        .collect()
}

/// Both entry points' answers for `a` against `b`.
fn answers(a: &Geometry, b: &Geometry) -> (IntersectionMatrix, TopologicalRelation) {
    let (pa, pb) = (PreparedGeometry::new(a), PreparedGeometry::new(b));
    (pa.relate_to(&pb), pa.relation(&pb))
}

/// Checks the swap and every transform on each pair of `geometries` whose
/// envelopes meet, and returns how many pairs fell in each relation
/// (indexed by `TopologicalRelation as usize`).
fn assert_metamorphic(geometries: &[Geometry], transforms: &[AffineTransform]) -> [usize; 9] {
    let moved: Vec<Vec<Geometry>> = transforms
        .iter()
        .map(|t| {
            geometries
                .iter()
                .map(|g| {
                    t.apply_geometry(g)
                        .expect("an exact transform keeps validity")
                })
                .collect()
        })
        .collect();
    let mut seen = [0usize; 9];
    for (i, a) in geometries.iter().enumerate() {
        for (j, b) in geometries.iter().enumerate().skip(i + 1) {
            if !a.envelope().intersects(&b.envelope()) {
                continue;
            }
            let what = || format!("{a:?} vs {b:?}");
            let (matrix, relation) = answers(a, b);
            seen[relation as usize] += 1;
            let (swapped_matrix, swapped_relation) = answers(b, a);
            assert_eq!(swapped_matrix, matrix.transposed(), "swap: {}", what());
            assert_eq!(swapped_relation, relation.converse(), "swap: {}", what());
            for (t, geoms) in transforms.iter().zip(&moved) {
                let got = answers(&geoms[i], &geoms[j]);
                assert_eq!(got, (matrix, relation), "{t:?}: {}", what());
            }
        }
    }
    seen
}

#[test]
fn relate_is_invariant_on_stars_and_their_multipolygons() {
    use TopologicalRelation::*;
    let transforms: Vec<AffineTransform> = square_symmetries()
        .into_iter()
        .chain(power_of_two_scalings())
        .collect();
    for seed in [7u64, 941] {
        let geometries = stars(&mut Rng::seed_from_u64(seed), 24);
        let seen = assert_metamorphic(&geometries, &transforms);
        for rel in [Disjoint, Overlaps] {
            assert!(
                seen[rel as usize] > 0,
                "seed {seed}: no {rel} among {seen:?}"
            );
        }
    }
}

#[test]
fn relate_is_invariant_on_lattice_polygons_with_holes() {
    use TopologicalRelation::*;
    let transforms: Vec<AffineTransform> = square_symmetries()
        .into_iter()
        .chain(power_of_two_scalings())
        .chain(integer_translations())
        .collect();
    for seed in [7u64, 941] {
        let geometries = lattice(&mut Rng::seed_from_u64(seed), 24);
        let seen = assert_metamorphic(&geometries, &transforms);
        for rel in [Disjoint, Touches, Overlaps] {
            assert!(
                seen[rel as usize] > 0,
                "seed {seed}: no {rel} among {seen:?}"
            );
        }
    }
}

/// Lattice rectangles of side 1 to 4 in a 10 × 10 square: many nest,
/// share an edge or meet at a corner, which makes the chains (`TPP` then
/// `NTPP`, `EC` then `TPP`, ...) whose compositions leave one or two
/// relations.
fn rectangles(rng: &mut Rng, count: usize) -> Vec<Geometry> {
    (0..count)
        .map(|_| {
            let (x, y) = (rng.range_i64(0, 6) as f64, rng.range_i64(0, 6) as f64);
            let (w, h) = (rng.range_i64(1, 5) as f64, rng.range_i64(1, 5) as f64);
            Polygon::rect(coord(x, y), coord(x + w, y + h))
                .expect("a rectangle")
                .into()
        })
        .collect()
}

type Prepared<'a> = PreparedGeometry<&'a Geometry>;

/// Every ordered pair's RCC8 relation, `rels[i][j]`, from one entry point.
fn rcc8_relations(
    geometries: &[Geometry],
    relation: impl Fn(&Prepared, &Prepared) -> TopologicalRelation,
) -> Vec<Vec<Rcc8>> {
    let prepared: Vec<Prepared> = geometries.iter().map(PreparedGeometry::new).collect();
    prepared
        .iter()
        .map(|a| {
            prepared
                .iter()
                .map(|b| Rcc8::from_topological(relation(a, b)).expect("regions relate in RCC8"))
                .collect()
        })
        .collect()
}

/// Checks `rels[i][k] ∈ rels[i][j] ∘ rels[j][k]` on every triple of
/// distinct indices, and returns how many triples' compositions rule
/// something out (are not the universal set).
fn assert_composition(rels: &[Vec<Rcc8>], geometries: &[Geometry], entry: &str) -> usize {
    let n = rels.len();
    let mut informative = 0;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            for k in (0..n).filter(|&k| k != i && k != j) {
                let allowed = compose_base(rels[i][j], rels[j][k]);
                assert!(
                    allowed.contains(rels[i][k]),
                    "{entry}: {} ∘ {} = {allowed} excludes {}\na = {:?}\nb = {:?}\nc = {:?}",
                    rels[i][j],
                    rels[j][k],
                    rels[i][k],
                    geometries[i],
                    geometries[j],
                    geometries[k],
                );
                informative += usize::from(allowed != Rcc8Set::UNIVERSAL);
            }
        }
    }
    informative
}

/// Seeded triples of stars (and their multipolygons), lattice polygons
/// with holes and lattice rectangles, drawn from one scattered set,
/// compose by the RCC8 table, for `relation` and for `classify` of
/// `relate_to`'s matrix alike. Every relation but `EQ` occurs between
/// distinct members of each set.
#[test]
fn relations_of_seeded_triples_compose_by_the_rcc8_table() {
    for seed in [7u64, 941] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut geometries = stars(&mut rng, 16);
        geometries.extend(lattice(&mut rng, 16));
        geometries.extend(rectangles(&mut rng, 16));
        let by_relation = rcc8_relations(&geometries, |a, b| a.relation(b));
        let by_matrix = rcc8_relations(&geometries, |a, b| {
            classify(
                &a.relate_to(b),
                a.geometry().dimension(),
                b.geometry().dimension(),
            )
        });
        let informative = assert_composition(&by_relation, &geometries, "relation");
        assert_composition(&by_matrix, &geometries, "classify(relate_to)");
        let mut seen = Rcc8Set::EMPTY;
        for (i, row) in by_relation.iter().enumerate() {
            for (j, &rel) in row.iter().enumerate() {
                if j != i {
                    seen = seen.union(Rcc8Set::of(rel));
                }
            }
        }
        assert!(
            informative > 0 && seen.union(Rcc8Set::of(Rcc8::Eq)) == Rcc8Set::UNIVERSAL,
            "seed {seed}: {informative} informative triples over relations {seen}"
        );
    }
}
