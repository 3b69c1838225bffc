//! Property tests for the hybrid vertical TID representations.
//!
//! The dense [`TidSet`] bitmap and the hybrid [`TidList`] (which may
//! choose a sorted-`u32` sparse form) must agree **exactly** with a
//! naive sorted-vector model on seeded
//! random inputs — including adversarial densities pinned to the
//! [`SPARSE_FACTOR`] boundary and word-boundary universe sizes. Several
//! thousand generated cases per run; every check is exact equality.

use geopattern_mining::{TidList, TidSet, SPARSE_FACTOR};
use geopattern_testkit::Rng;

/// Universe sizes: word boundaries (63/64/65, 127/128) plus small and
/// large sets.
const SIZES: [usize; 8] = [1, 63, 64, 65, 127, 128, 1000, 4096];

/// `k` distinct sorted TIDs out of `0..n` via partial Fisher–Yates.
fn distinct_sorted(rng: &mut Rng, n: usize, k: usize) -> Vec<u32> {
    let k = k.min(n);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = i + rng.below_usize(n - i);
        pool.swap(i, j);
    }
    let mut out = pool[..k].to_vec();
    out.sort_unstable();
    out
}

/// A sorted TID sample whose density is drawn from a palette that
/// includes empty, full, singleton, and the three counts straddling the
/// sparse/dense switch-over (`n / SPARSE_FACTOR` ± 1).
fn sample(rng: &mut Rng, n: usize) -> Vec<u32> {
    let boundary = n / SPARSE_FACTOR;
    match rng.below(8) {
        0 => Vec::new(),
        1 => (0..n as u32).collect(),
        2 => vec![rng.below(n as u64) as u32],
        3 => distinct_sorted(rng, n, boundary),
        4 => distinct_sorted(rng, n, boundary.saturating_sub(1)),
        5 => distinct_sorted(rng, n, boundary + 1),
        6 => (0..n as u32).filter(|_| rng.chance(0.5)).collect(),
        _ => {
            let p = rng.f64();
            (0..n as u32).filter(|_| rng.chance(p)).collect()
        }
    }
}

fn tidset_of(n: usize, tids: &[u32]) -> TidSet {
    let mut s = TidSet::new(n);
    for &t in tids {
        s.insert(t as usize);
    }
    s
}

/// Naive model: sorted-vector intersection.
fn model_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect()
}

/// One seeded pair of sets: every representation and every bounded-min
/// variant must match the naive model exactly.
fn check_pair(n: usize, a: &[u32], b: &[u32]) {
    let expected = model_intersection(a, b);
    let exact = expected.len() as u64;

    let (sa, sb) = (tidset_of(n, a), tidset_of(n, b));
    let (la, lb) = (
        TidList::from_sorted_tids(n, a.to_vec()),
        TidList::from_sorted_tids(n, b.to_vec()),
    );

    // Representation invariant: sparse exactly while density is below the
    // threshold; the sparse form holds zero bitmap words.
    assert_eq!(la.is_dense(), a.len() * SPARSE_FACTOR >= n, "n={n} |a|={}", a.len());
    assert_eq!(la.words() == 0, !la.is_dense());
    assert_eq!(la.support(), a.len() as u64);
    assert_eq!(la.tids(), a, "round-trip through representation");

    // Exact intersection counts, bitset and hybrid.
    assert_eq!(sa.intersect(&sb).count(), exact, "TidSet n={n}");
    assert_eq!(la.intersection_count(&lb), exact, "TidList n={n}");
    assert_eq!(lb.intersection_count(&la), exact, "TidList is symmetric");

    // Bounded variants at the interesting thresholds: 0, 1, around the
    // exact answer, and an unreachable minimum.
    for min in [0, 1, exact.saturating_sub(1), exact, exact + 1, u64::MAX] {
        let want = (exact >= min).then_some(exact);
        assert_eq!(sa.intersection_count_bounded(&sb, min), want, "TidSet min={min} n={n}");
        assert_eq!(la.intersection_count_bounded(&lb, min), want, "TidList min={min} n={n}");
        assert_eq!(lb.intersection_count_bounded(&la, min), want, "TidList swapped min={min}");
    }

    // Materialised intersection: members, support, and the re-chosen
    // representation all follow the result's own density.
    let joined = la.intersect(&lb);
    assert_eq!(joined.tids(), expected, "n={n}");
    assert_eq!(joined.support(), exact);
    assert_eq!(joined.is_dense(), expected.len() * SPARSE_FACTOR >= n);
}

#[test]
fn hybrid_representations_match_naive_model_exactly() {
    let mut rng = Rng::seed_from_u64(0xb17_5e7);
    for &n in &SIZES {
        for _ in 0..100 {
            let a = sample(&mut rng, n);
            let b = sample(&mut rng, n);
            check_pair(n, &a, &b);
        }
    }
    // 800 pairs × (3 exact + 18 bounded + round-trip) ≈ 18k
    // exact-equality checks per run, all seeded.
}

/// Mixed-representation intersections: force one side dense and one side
/// sparse regardless of what the density palette produced, since the
/// asymmetric probe path only runs for that pairing.
#[test]
fn forced_mixed_representation_intersections_match() {
    let mut rng = Rng::seed_from_u64(0xd15_7a9);
    for &n in &SIZES[3..] {
        for _ in 0..60 {
            // Sparse side: strictly below the threshold. Dense side: at
            // least half full.
            let sparse_k = rng.below_usize(n / SPARSE_FACTOR);
            let sparse = distinct_sorted(&mut rng, n, sparse_k);
            let dense_k = n / 2 + rng.below_usize(n / 2 + 1);
            let dense = distinct_sorted(&mut rng, n, dense_k);
            let (ls, ld) = (
                TidList::from_sorted_tids(n, sparse.clone()),
                TidList::from_sorted_tids(n, dense.clone()),
            );
            assert!(!ls.is_dense());
            assert!(ld.is_dense());
            let expected = model_intersection(&sparse, &dense);
            assert_eq!(ls.intersection_count(&ld), expected.len() as u64);
            assert_eq!(ld.intersection_count(&ls), expected.len() as u64);
            assert_eq!(ls.intersect(&ld).tids(), expected);
            for min in [expected.len() as u64, expected.len() as u64 + 1] {
                let want = (expected.len() as u64 >= min).then_some(expected.len() as u64);
                assert_eq!(ls.intersection_count_bounded(&ld, min), want);
            }
        }
    }
}
