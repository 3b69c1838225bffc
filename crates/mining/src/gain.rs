//! The paper's analysis (§4.1): lower bounds on frequent-itemset counts
//! and the minimal gain of Apriori-KC+ (Formula 1).
//!
//! Given the *shape* of the largest frequent itemset — `u` feature types
//! with `t_k ≥ 2` qualitative relations each, plus `n` other items — every
//! subset of that itemset is frequent (anti-monotonicity), and Apriori-KC+
//! removes exactly the subsets containing at least one same-feature-type
//! pair. The count of those subsets is the guaranteed ("minimal") gain.
//!
//! We evaluate the sum with generating functions: subsets *without* any
//! same-type pair pick at most one relation per feature type, so their
//! count by size is the coefficient vector of
//! `∏ₖ (1 + t_k·x) · (1 + x)ⁿ`, while all subsets follow `(1 + x)^m` with
//! `m = Σ t_k + n`. The gain at size `i` is the coefficient difference,
//! summed over `i ≥ 2`. This closed form reproduces the paper's §4.2
//! cross-checks exactly (predicted gains 148 and 74).
//!
//! Counts are `u128`, so the domain is `m ≤ 128`: every count of an
//! itemset that size fits, the largest being `2^128 − 129`. All
//! arithmetic is checked, so a count that does not fit panics in every
//! build profile instead of wrapping to a wrong number.

/// Overflow message of the checked arithmetic below.
const OVERFLOW: &str = "count overflows u128 (the domain is m <= 128)";

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Binomial coefficient `C(n, k)` in `u128`, exact whenever the result
/// fits (it panics otherwise). Each step divides the running `C(n, i)`
/// and `i + 1` by their gcd before multiplying, so no intermediate
/// exceeds the result.
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // C(n, i + 1) = C(n, i) · (n − i) / (i + 1) is an integer, so once
        // the gcd of C(n, i) and i + 1 is divided out, the rest of i + 1
        // divides n − i.
        let g = gcd(acc, (i + 1) as u128);
        let factor = (n - i) as u128 / ((i + 1) as u128 / g);
        acc = (acc / g).checked_mul(factor).expect(OVERFLOW);
    }
    acc
}

/// The paper's baseline lower bound: a largest frequent itemset of `m`
/// elements implies at least `Σ_{i=2}^{m} C(m, i)` frequent itemsets of
/// size ≥ 2 (every subset is frequent). Exact for `m ≤ 128`; panics past
/// that.
pub fn itemset_count_lower_bound(m: u64) -> u128 {
    (2..=m).map(|i| binomial(m, i)).try_fold(0u128, |sum, c| sum.checked_add(c)).expect(OVERFLOW)
}

/// Coefficient vector of `(1 + t·x)` multiplied into `poly`.
fn mul_linear(poly: &mut Vec<u128>, t: u64) {
    let mut out = vec![0u128; poly.len() + 1];
    for (i, &c) in poly.iter().enumerate() {
        out[i] = out[i].checked_add(c).expect(OVERFLOW);
        let term = c.checked_mul(t as u128).expect(OVERFLOW);
        out[i + 1] = out[i + 1].checked_add(term).expect(OVERFLOW);
    }
    *poly = out;
}

/// Formula 1: the minimal gain (number of frequent itemsets guaranteed to
/// be eliminated) for a largest frequent itemset containing `t[k]`
/// qualitative relations of feature type `k` (each `t[k] ≥ 1`; types with
/// `t[k] = 1` contribute nothing) and `n` other items. Exact for
/// `m = Σ t[k] + n ≤ 128`; past that it panics when a count overflows.
pub fn minimal_gain(t: &[u64], n: u64) -> u128 {
    let m: u64 = t
        .iter()
        .try_fold(n, |sum, &tk| sum.checked_add(tk))
        .expect("itemset size m overflows u64");
    // Subsets with no same-type pair: ∏ (1 + t_k x) · (1+x)^n.
    let mut valid = vec![1u128];
    for &tk in t {
        mul_linear(&mut valid, tk);
    }
    for _ in 0..n {
        mul_linear(&mut valid, 1);
    }
    // Gain per size = C(m, i) − valid[i], summed for i ≥ 2. (Sizes 0 and 1
    // never contain a pair; size-1 coefficients always agree.)
    let mut gain: u128 = 0;
    for i in 2..=m {
        let total = binomial(m, i);
        let v = valid.get(i as usize).copied().unwrap_or(0);
        debug_assert!(total >= v, "valid subsets cannot exceed all subsets");
        gain = gain.checked_add(total - v).expect(OVERFLOW);
    }
    gain
}

/// The Table 3 / Figure 3 matrix: minimal gain for a single feature type
/// (`u = 1`) with `t₁ = 1..=max_t` relations and `n = 1..=max_n` other
/// items. Indexed `[n-1][t1-1]`.
pub fn table3(max_t: u64, max_n: u64) -> Vec<Vec<u128>> {
    (1..=max_n)
        .map(|n| (1..=max_t).map(|t1| minimal_gain(&[t1], n)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomials() {
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(6, 0), 1);
        assert_eq!(binomial(6, 6), 1);
        assert_eq!(binomial(6, 7), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(52, 5), 2_598_960);
        // Exact where the old multiply-then-divide wrapped: the product
        // C(n, i) · (n − i) outgrows u128 before the division.
        assert_eq!(binomial(128, 64), 23_951_146_041_928_082_866_135_587_776_380_551_750);
    }

    #[test]
    #[should_panic(expected = "overflows u128")]
    fn binomial_overflow_panics_instead_of_wrapping() {
        binomial(200, 100);
    }

    #[test]
    fn counts_are_exact_up_to_m_128() {
        for m in 120..=128u64 {
            // Σ_{i≥2} C(m, i) = 2^m − 1 − m, and with one feature type of
            // m relations every such subset holds a same-type pair.
            let want = u128::MAX >> (128 - m) as u32;
            let want = want - m as u128;
            assert_eq!(itemset_count_lower_bound(m), want, "m={m}");
            assert_eq!(minimal_gain(&[m], 0), want, "m={m}");
        }
    }

    #[test]
    fn paper_lower_bound_table2() {
        // §4.1: m = 6 gives 15+20+15+6+1 = 57 ≤ 60 observed.
        assert_eq!(itemset_count_lower_bound(6), 57);
        assert_eq!(itemset_count_lower_bound(2), 1);
        assert_eq!(itemset_count_lower_bound(1), 0);
        assert_eq!(itemset_count_lower_bound(0), 0);
    }

    #[test]
    fn paper_formula_crosschecks_section_4_2() {
        // Figure 6 experiment, minsup 5%: m=8, u=3, t=(2,2,2), n=2 → 148.
        assert_eq!(minimal_gain(&[2, 2, 2], 2), 148);
        // minsup 17%: m=7, u=3, t=(2,2,2), n=1 → 74 (equal to real gain).
        assert_eq!(minimal_gain(&[2, 2, 2], 1), 74);
    }

    #[test]
    fn table2_shape_gain() {
        // m=6, u=2, t=(2,2), n=2: subsets of the largest itemset containing
        // a same-type pair — by inclusion–exclusion 2·2⁴ − 2² = 28.
        assert_eq!(minimal_gain(&[2, 2], 2), 28);
    }

    #[test]
    fn table3_first_row_matches_paper() {
        // Paper Table 3, n = 1 row: 0, 2, 8, 22, 52, 114, 240, 494.
        let t3 = table3(8, 10);
        assert_eq!(t3[0], vec![0, 2, 8, 22, 52, 114, 240, 494]);
    }

    #[test]
    fn table3_rows_double_with_n() {
        // Each additional free attribute doubles every column (the paper's
        // rows: 0,2,8,… / 0,4,16,… / 0,8,32,… / …).
        let t3 = table3(8, 10);
        for n in 1..10 {
            for (t, &cell) in t3[n].iter().enumerate() {
                assert_eq!(cell, 2 * t3[n - 1][t], "n={} t1={}", n + 1, t + 1);
            }
        }
        // Spot-check the largest cell the paper prints: t1=8, n=10.
        assert_eq!(t3[9][7], 252_928);
        assert_eq!(t3[4][4], 832); // n=5, t1=5
    }

    #[test]
    fn single_relation_types_contribute_nothing() {
        assert_eq!(minimal_gain(&[1], 5), 0);
        assert_eq!(minimal_gain(&[1, 1, 1], 3), 0);
        assert_eq!(minimal_gain(&[2], 0), 1); // only the pair itself
        assert_eq!(minimal_gain(&[], 5), 0);
    }

    #[test]
    fn gain_is_monotone() {
        // More relations of a type or more attributes never decrease gain.
        for t1 in 2..6 {
            for n in 1..6 {
                assert!(minimal_gain(&[t1 + 1], n) > minimal_gain(&[t1], n));
                assert!(minimal_gain(&[t1], n + 1) > minimal_gain(&[t1], n));
            }
        }
    }

    #[test]
    fn gain_equals_inclusion_exclusion_for_two_types() {
        // Independent combinatorial cross-check for u=2, t=(a,b):
        // |sets ⊇ some a-pair ∪ sets ⊇ some b-pair| computed by brute
        // force over all subsets of a small m.
        for (a, b, n) in [(2u64, 2u64, 2u64), (3, 2, 1), (2, 3, 2)] {
            let m = (a + b + n) as u32;
            let mut brute: u128 = 0;
            for mask in 0u32..(1 << m) {
                if mask.count_ones() < 2 {
                    continue;
                }
                let cnt_a = (mask & ((1 << a) - 1)).count_ones();
                let cnt_b = ((mask >> a) & ((1 << b) - 1)).count_ones();
                if cnt_a >= 2 || cnt_b >= 2 {
                    brute += 1;
                }
            }
            assert_eq!(minimal_gain(&[a, b], n), brute, "a={a} b={b} n={n}");
        }
    }
}
