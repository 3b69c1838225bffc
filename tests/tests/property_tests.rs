//! Randomised tests of the system invariants listed in DESIGN.md §8.
//!
//! Each test draws a few hundred cases from the in-tree seeded PRNG
//! (`geopattern_testkit::Rng`), so the whole suite is deterministic and
//! needs no external property-testing framework. On failure the panic
//! message includes the iteration index; rerunning reproduces it exactly.

use geopattern_geom::{coord, relate, Coord, Geometry, Polygon, Rect, Segment, StrTree};
use geopattern_mining::{
    mine, mine_fp, AprioriConfig, FpGrowthConfig, ItemCatalog, MinSupport, PairFilter,
    TransactionSet,
};
use geopattern_qsr::{
    classify, Consistency, ConstraintNetwork, Rcc8, Rcc8Set, TopologicalRelation,
};
use geopattern_testkit::Rng;

// ---------- generators ----------

/// An axis-aligned rectangle polygon with corners in `[0, 40)²` and
/// extent in `[1, 20)` — the same distribution the proptest suite used.
fn rect_polygon(rng: &mut Rng) -> Polygon {
    let x = rng.range_i32(0, 40);
    let y = rng.range_i32(0, 40);
    let w = rng.range_i32(1, 20);
    let h = rng.range_i32(1, 20);
    Polygon::rect(coord(x as f64, y as f64), coord((x + w) as f64, (y + h) as f64))
        .expect("positive extent")
}

/// A non-degenerate triangle (rejection-sampled).
fn triangle(rng: &mut Rng) -> Polygon {
    loop {
        let ax = rng.range_i32(0, 30);
        let ay = rng.range_i32(0, 30);
        let bx = rng.range_i32(1, 30);
        let by = rng.range_i32(0, 30);
        let cx = rng.range_i32(0, 30);
        let cy = rng.range_i32(1, 30);
        let pts = [
            coord(ax as f64, ay as f64),
            coord((ax + bx) as f64, by as f64),
            coord(cx as f64, (ay + cy) as f64),
        ];
        if let Ok(ring) = geopattern_geom::Ring::new(pts.to_vec()) {
            return Polygon::from_exterior(ring);
        }
    }
}

/// Random small transaction database with items assigned to feature-type
/// groups: items 0..4 span two feature types, items 5..9 are non-spatial.
fn random_transactions(rng: &mut Rng) -> (TransactionSet, PairFilter) {
    let mut catalog = ItemCatalog::new();
    for (i, (label, ft)) in [
        ("contains_slum", Some("slum")),
        ("touches_slum", Some("slum")),
        ("overlaps_slum", Some("slum")),
        ("contains_school", Some("school")),
        ("touches_school", Some("school")),
        ("a=1", None),
        ("b=1", None),
        ("c=1", None),
        ("d=1", None),
        ("e=1", None),
    ]
    .into_iter()
    .enumerate()
    {
        let id = match ft {
            Some(ft) => catalog.intern_spatial(label, ft),
            None => catalog.intern_attribute(label),
        };
        assert_eq!(id, i as u32);
    }
    let same = PairFilter::same_feature_type(&catalog);
    let mut ts = TransactionSet::new(catalog);
    let rows = 1 + rng.below_usize(24);
    for _ in 0..rows {
        let len = rng.below_usize(6);
        let row: Vec<u32> = (0..len).map(|_| rng.below(10) as u32).collect();
        ts.push(row);
    }
    (ts, same)
}

// ---------- geometry ----------

/// relate(a, b) is always the transpose of relate(b, a).
#[test]
fn relate_transpose() {
    let mut rng = Rng::seed_from_u64(0xA001);
    for case in 0..300 {
        let ga: Geometry = rect_polygon(&mut rng).into();
        let gb: Geometry = rect_polygon(&mut rng).into();
        assert_eq!(relate(&ga, &gb), relate(&gb, &ga).transposed(), "case {case}");
    }
}

/// The Egenhofer classification of two regions is a converse pair, and
/// classifying (a, a) yields Equals.
#[test]
fn egenhofer_converse() {
    let mut rng = Rng::seed_from_u64(0xA002);
    for case in 0..300 {
        let ga: Geometry = rect_polygon(&mut rng).into();
        let gb: Geometry = rect_polygon(&mut rng).into();
        let ab = classify(&relate(&ga, &gb), ga.dimension(), gb.dimension());
        let ba = classify(&relate(&gb, &ga), gb.dimension(), ga.dimension());
        assert_eq!(ab.converse(), ba, "case {case}");
        let aa = classify(&relate(&ga, &ga), ga.dimension(), ga.dimension());
        assert_eq!(aa, TopologicalRelation::Equals, "case {case}");
    }
}

/// Geometrically realised RCC8 scenarios are always path-consistent:
/// compute the pairwise relations of random rectangles and check that
/// algebraic closure accepts them. Exercises relate, the topological
/// classification, the RCC8 mapping and the composition table at once.
#[test]
fn geometric_scenarios_are_path_consistent() {
    let mut rng = Rng::seed_from_u64(0xA003);
    for case in 0..150 {
        let n = 3 + rng.below_usize(3);
        let geoms: Vec<Geometry> =
            (0..n).map(|_| Geometry::from(rect_polygon(&mut rng))).collect();
        let mut net = ConstraintNetwork::new(geoms.len());
        for i in 0..geoms.len() {
            for j in (i + 1)..geoms.len() {
                let rel = classify(
                    &relate(&geoms[i], &geoms[j]),
                    geoms[i].dimension(),
                    geoms[j].dimension(),
                );
                let rcc = Rcc8::from_topological(rel).expect("region relation");
                net.constrain(i, j, Rcc8Set::of(rcc));
            }
        }
        assert_eq!(net.path_consistency(), Consistency::PathConsistent, "case {case}");
    }
}

/// Segment intersection is symmetric and agrees with the distance
/// predicate (zero distance ⇔ intersecting).
#[test]
fn segment_intersection_symmetry() {
    use geopattern_geom::SegSegIntersection as I;
    let mut rng = Rng::seed_from_u64(0xA004);
    for case in 0..500 {
        let mut c = || rng.range_i32(-20, 20) as f64;
        let s1 = Segment::new(coord(c(), c()), coord(c(), c()));
        let s2 = Segment::new(coord(c(), c()), coord(c(), c()));
        let r12 = s1.intersect(&s2);
        let r21 = s2.intersect(&s1);
        assert_eq!(
            matches!(r12, I::None),
            matches!(r21, I::None),
            "case {case}: existence must be symmetric: {r12:?} vs {r21:?}"
        );
        let d = s1.distance_to_segment(&s2);
        assert_eq!(d == 0.0, !matches!(r12, I::None), "case {case}");
    }
}

/// Point location agrees with envelope containment for rectangles.
#[test]
fn rect_polygon_locate() {
    use geopattern_geom::PointLocation::*;
    let mut rng = Rng::seed_from_u64(0xA005);
    for case in 0..500 {
        let p = rect_polygon(&mut rng);
        let pt = coord(rng.range_i32(-5, 50) as f64, rng.range_i32(-5, 50) as f64);
        let env = p.envelope();
        match p.locate(pt) {
            Inside | OnBoundary => assert!(env.contains_point(pt), "case {case}"),
            Outside => {}
        }
        if !env.contains_point(pt) {
            assert_eq!(p.locate(pt), Outside, "case {case}");
        }
    }
}

/// Transpose and converse hold for triangles (concavity-free but
/// non-axis-aligned boundaries exercise the general relate paths).
#[test]
fn relate_triangles() {
    let mut rng = Rng::seed_from_u64(0xA006);
    for case in 0..200 {
        let ga: Geometry = triangle(&mut rng).into();
        let gb: Geometry = triangle(&mut rng).into();
        let m = relate(&ga, &gb);
        assert_eq!(m, relate(&gb, &ga).transposed(), "case {case}");
        let ab = classify(&m, ga.dimension(), gb.dimension());
        let ba = classify(&m.transposed(), gb.dimension(), ga.dimension());
        assert_eq!(ab.converse(), ba, "case {case}");
        assert_eq!(
            classify(&relate(&ga, &ga), ga.dimension(), ga.dimension()),
            TopologicalRelation::Equals,
            "case {case}"
        );
    }
}

/// Triangle × rectangle mixes diagonal and axis-aligned edges.
#[test]
fn relate_triangle_vs_rect() {
    let mut rng = Rng::seed_from_u64(0xA007);
    for case in 0..200 {
        let gt: Geometry = triangle(&mut rng).into();
        let gr: Geometry = rect_polygon(&mut rng).into();
        assert_eq!(relate(&gt, &gr), relate(&gr, &gt).transposed(), "case {case}");
        // Classified relation must be one of the region relations (never
        // crosses, which needs mixed dimensions).
        let rel = classify(&relate(&gt, &gr), gt.dimension(), gr.dimension());
        assert_ne!(rel, TopologicalRelation::Crosses, "case {case}");
    }
}

// ---------- R-tree ----------

/// The packed STR tree's envelope and window queries always equal the
/// brute-force scan.
#[test]
fn rtree_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0xA008);
    for case in 0..200 {
        let n = rng.below_usize(60);
        let items: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.range_i32(0, 100);
                let y = rng.range_i32(0, 100);
                let w = rng.range_i32(1, 15);
                let h = rng.range_i32(1, 15);
                Rect::new(coord(x as f64, y as f64), coord((x + w) as f64, (y + h) as f64))
            })
            .collect();
        let qx = rng.range_i32(0, 100);
        let qy = rng.range_i32(0, 100);
        let qw = rng.range_i32(1, 40);
        let qh = rng.range_i32(1, 40);
        let query =
            Rect::new(coord(qx as f64, qy as f64), coord((qx + qw) as f64, (qy + qh) as f64));
        let margin = rng.range_i32(0, 10) as f64;
        let scan = |q: &Rect| -> Vec<usize> {
            items
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(q))
                .map(|(i, _)| i)
                .collect()
        };

        let tree = StrTree::build(items.iter().copied());
        let mut hits = vec![usize::MAX];
        tree.query_rect_into(&query, &mut hits);
        assert_eq!(hits, scan(&query), "case {case}");
        assert_eq!(
            tree.query_window(&query, margin),
            scan(&query.buffered(margin)),
            "case {case} margin {margin}"
        );
    }
}

/// The all-pairs oracle for simplicity: every pair of edges of the path
/// through `coords` (closed back to the first vertex when `closed`)
/// against the contact rules, each decided by exact predicates. Adjacent
/// edges may share only their common vertex, unless they are collinear
/// and fold back; non-adjacent edges may share no point. It has no
/// repeated-vertex rule of its own: two visits of one point put it on two
/// non-adjacent edges.
fn brute_force_simple(coords: &[Coord], closed: bool) -> bool {
    use geopattern_geom::{orientation, Orientation::Collinear};
    let n = coords.len();
    let m = if closed { n } else { n - 1 };
    let edge = |i: usize| Segment::new(coords[i], coords[(i + 1) % n]);
    for i in 0..m {
        for j in i + 1..m {
            let (s, t) = (edge(i), edge(j));
            let forbidden = if j == i + 1 || (closed && i == 0 && j == m - 1) {
                // `p` and `q` are the ends away from the shared `v`.
                let (p, v, q) = if j == i + 1 { (s.a, s.b, t.b) } else { (t.a, s.a, s.b) };
                Segment::new(v, p).contains_point(q) || Segment::new(v, q).contains_point(p)
            } else {
                let (o1, o2) = (orientation(s.a, s.b, t.a), orientation(s.a, s.b, t.b));
                let (o3, o4) = (orientation(t.a, t.b, s.a), orientation(t.a, t.b, s.b));
                let proper =
                    o1 != o2 && o3 != o4 && [o1, o2, o3, o4].iter().all(|&o| o != Collinear);
                proper
                    || s.contains_point(t.a)
                    || s.contains_point(t.b)
                    || t.contains_point(s.a)
                    || t.contains_point(s.b)
            };
            if forbidden {
                return false;
            }
        }
    }
    true
}

/// A random walk of 3–12 vertices on a 3×3 to 5×5 integer lattice: unit
/// steps in the eight directions, with an occasional jump anywhere. On so
/// small a lattice, collinear runs, T-junctions, pinches and fold-backs
/// are common; sparser random points almost never make them.
fn lattice_walk(rng: &mut Rng) -> Vec<Coord> {
    let side = rng.range_i32(3, 6);
    let len = 3 + rng.below_usize(10);
    let mut at = (rng.range_i32(0, side), rng.range_i32(0, side));
    let mut walk = vec![coord(at.0 as f64, at.1 as f64)];
    while walk.len() < len {
        let next = if rng.below(6) == 0 {
            (rng.range_i32(0, side), rng.range_i32(0, side))
        } else {
            (
                (at.0 + rng.range_i32(-1, 2)).clamp(0, side - 1),
                (at.1 + rng.range_i32(-1, 2)).clamp(0, side - 1),
            )
        };
        if next != at {
            at = next;
            walk.push(coord(at.0 as f64, at.1 as f64));
        }
    }
    walk
}

/// `Ring::new` and `LineString::is_simple` agree with the all-pairs
/// oracle on lattice walks: every accepted ring is simple under it, every
/// `SelfIntersection` rejection is not, and every open and closed
/// polyline gets the oracle's verdict.
#[test]
fn sweep_matches_bruteforce() {
    use geopattern_geom::{GeomError, LineString, Ring};
    let mut rng = Rng::seed_from_u64(0xA009);
    let (mut accepted, mut self_intersecting, mut lines) = (0usize, 0usize, 0usize);
    for case in 0..600_000 {
        let walk = lattice_walk(&mut rng);
        // `Ring::new` drops a closing duplicate; so does the oracle's ring.
        let ring = if walk[0] == walk[walk.len() - 1] { &walk[..walk.len() - 1] } else { &walk };
        match Ring::new(walk.clone()) {
            Ok(_) => {
                assert!(brute_force_simple(ring, true), "case {case}: accepted {walk:?}");
                accepted += 1;
            }
            Err(GeomError::SelfIntersection) => {
                assert!(!brute_force_simple(ring, true), "case {case}: rejected {walk:?}");
                self_intersecting += 1;
            }
            Err(_) => {}
        }
        if case % 4 == 0 {
            // The walk as an open polyline, and closed back to its start.
            let mut closed = walk.clone();
            closed.push(walk[0]);
            for (coords, is_closed) in [(walk, false), (closed, true)] {
                if let Ok(line) = LineString::new(coords.clone()) {
                    let n = if line.is_closed() { coords.len() - 1 } else { coords.len() };
                    let want = brute_force_simple(&coords[..n], line.is_closed());
                    let what = format!("case {case}: {coords:?} closed={is_closed}");
                    assert_eq!(line.is_simple(), want, "{what}");
                    lines += 1;
                }
            }
        }
    }
    // 92,939 accepted and 398,251 self-intersecting rings, 287,294 polylines.
    assert!(accepted > 50_000, "{accepted} rings accepted");
    assert!(self_intersecting > 200_000, "{self_intersecting} rings self-intersecting");
    assert!(lines > 100_000, "{lines} polylines");
}

// ---------- mining ----------

/// Both miners (Apriori and FP-Growth) agree exactly, with and without
/// filters.
#[test]
fn apriori_and_fpgrowth_agree() {
    let sorted = |r: &geopattern_mining::MiningResult| {
        let mut v: Vec<(Vec<u32>, u64)> = r.all().map(|f| (f.items.clone(), f.support)).collect();
        v.sort();
        v
    };
    let mut rng = Rng::seed_from_u64(0xA00A);
    for case in 0..150 {
        let (ts, same) = random_transactions(&mut rng);
        let support = MinSupport::Count(1 + rng.below(4));
        let ap = sorted(&mine(&ts, &AprioriConfig::apriori(support)));
        assert_eq!(ap, sorted(&mine_fp(&ts, &FpGrowthConfig::new(support))), "case {case}");

        let apf = sorted(&mine(
            &ts,
            &AprioriConfig::apriori_kc_plus(support, PairFilter::none(), same.clone()),
        ));
        assert_eq!(
            apf,
            sorted(&mine_fp(&ts, &FpGrowthConfig::new(support).with_filter(same.clone()))),
            "case {case}"
        );
    }
}

/// Downward closure holds for every mined result, and both counting
/// backends (hash-subset and the vertical bitmap engine) agree.
#[test]
fn downward_closure_and_backends() {
    use geopattern_mining::CountingStrategy;
    let mut rng = Rng::seed_from_u64(0xA00B);
    for case in 0..150 {
        let (ts, _) = random_transactions(&mut rng);
        let support = MinSupport::Count(1 + rng.below(4));
        let hash = mine(
            &ts,
            &AprioriConfig::apriori(support).with_counting(CountingStrategy::HashSubset),
        );
        let bitmap = mine(
            &ts,
            &AprioriConfig::apriori(support).with_counting(CountingStrategy::VerticalBitmap),
        );
        assert!(hash.check_downward_closure(), "case {case}");
        let h: Vec<_> = hash.all().map(|f| (f.items.clone(), f.support)).collect();
        let b: Vec<_> = bitmap.all().map(|f| (f.items.clone(), f.support)).collect();
        assert_eq!(h, b, "case {case}");
    }
}

/// KC+ is lossless modulo blocked pairs: its output equals plain
/// Apriori's minus exactly the itemsets containing a blocked pair.
#[test]
fn kc_plus_losslessness() {
    let mut rng = Rng::seed_from_u64(0xA00C);
    for case in 0..150 {
        let (ts, same) = random_transactions(&mut rng);
        let support = MinSupport::Count(1 + rng.below(4));
        let plain = mine(&ts, &AprioriConfig::apriori(support));
        let kcp = mine(
            &ts,
            &AprioriConfig::apriori_kc_plus(support, PairFilter::none(), same.clone()),
        );
        let expected: Vec<_> = plain
            .all()
            .filter(|f| !same.blocks_set(&f.items))
            .map(|f| (f.items.clone(), f.support))
            .collect();
        let got: Vec<_> = kcp.all().map(|f| (f.items.clone(), f.support)).collect();
        assert_eq!(expected, got, "case {case}");
    }
}

/// Closed ⊆ frequent, maximal ⊆ closed, and every frequent itemset's
/// support is recoverable from a closed superset.
#[test]
fn closed_maximal_invariants() {
    use geopattern_mining::{closed_itemsets, maximal_itemsets};
    let mut rng = Rng::seed_from_u64(0xA00D);
    for case in 0..150 {
        let (ts, _) = random_transactions(&mut rng);
        let support = MinSupport::Count(1 + rng.below(4));
        let r = mine(&ts, &AprioriConfig::apriori(support));
        let closed = closed_itemsets(&r);
        let maximal = maximal_itemsets(&r);
        assert!(maximal.len() <= closed.len(), "case {case}");
        assert!(closed.len() <= r.num_frequent(), "case {case}");
        for m in &maximal {
            assert!(closed.iter().any(|c| c.items == m.items), "case {case}");
        }
        for f in r.all() {
            let recoverable = closed
                .iter()
                .any(|c| c.support == f.support && f.items.iter().all(|i| c.items.contains(i)));
            assert!(recoverable, "case {case}: support of {:?} not recoverable", f.items);
        }
    }
}

// ---------- gain formula ----------

/// Formula 1 equals the brute-force count of same-type-pair-containing
/// subsets for arbitrary small shapes.
#[test]
fn minimal_gain_matches_bruteforce() {
    use geopattern_mining::minimal_gain;
    let mut rng = Rng::seed_from_u64(0xA00E);
    for case in 0..300 {
        let t: Vec<u64> = (0..rng.below_usize(3)).map(|_| 1 + rng.below(3)).collect();
        let n = rng.below(4);
        let m: u64 = t.iter().sum::<u64>() + n;
        assert!(m <= 12, "generator keeps shapes small");
        let mut brute: u128 = 0;
        for mask in 0u32..(1u32 << m) {
            if mask.count_ones() < 2 {
                continue;
            }
            let mut offset = 0u64;
            let mut has_pair = false;
            for &tk in &t {
                let group = (mask >> offset) & ((1u32 << tk) - 1);
                if group.count_ones() >= 2 {
                    has_pair = true;
                }
                offset += tk;
            }
            if has_pair {
                brute += 1;
            }
        }
        assert_eq!(minimal_gain(&t, n), brute, "case {case}: t={t:?}, n={n}");
    }
}

// ---------- WKT ----------

/// WKT serialisation roundtrips for rectangles and points.
#[test]
fn wkt_roundtrip() {
    use geopattern_geom::{from_wkt, to_wkt, Point};
    let mut rng = Rng::seed_from_u64(0xA00F);
    for case in 0..300 {
        let g: Geometry = rect_polygon(&mut rng).into();
        assert_eq!(from_wkt(&to_wkt(&g)).unwrap(), g, "case {case}");
        let px = rng.range_i32(-100, 100);
        let py = rng.range_i32(-100, 100);
        let pt: Geometry = Point::new(Coord::new(px as f64, py as f64)).unwrap().into();
        assert_eq!(from_wkt(&to_wkt(&pt)).unwrap(), pt, "case {case}");
    }
}
