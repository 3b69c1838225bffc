//! # geopattern-testkit
//!
//! A small, dependency-free deterministic random-number substrate for the
//! `geopattern` workspace. The build environment has no registry access,
//! so the synthetic-data generators and randomised tests cannot depend on
//! the `rand` crate; this crate supplies the subset they actually need:
//!
//! * [`Rng`] — a seeded xoshiro256** generator (seed expansion via
//!   SplitMix64, as the xoshiro authors recommend) with the sampling
//!   helpers used across the workspace: uniform `f64` in `[0, 1)`,
//!   bounded integers, booleans with a given probability;
//! * determinism guarantees: the same seed always yields the same stream,
//!   on every platform, forever — generated datasets are part of the test
//!   oracle and must never drift.
//!
//! The generator is *not* cryptographic and is not meant to be.
//!
//! The crate also hosts the [`failpoint`] registry — deterministic,
//! seedable fault injection for the fault-tolerance test suite.

#![forbid(unsafe_code)]

pub mod failpoint;

/// SplitMix64 step: the seed-expansion PRNG (Steele, Lea & Flood 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed. The four words of state are
    /// expanded with SplitMix64 so that nearby seeds yield unrelated
    /// streams (an all-zero state is impossible by construction).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift
    /// rejection method. Panics when `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below needs a positive bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (low.wrapping_sub(bound) % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)` (half-open, like `rand`'s
    /// `random_range(lo..hi)`). Panics when the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "Rng::range_i64 needs a non-empty range");
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    /// Uniform `i32` in `[lo, hi)`; the convenience shape the ported
    /// property tests use for coordinates.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(lo as i64, hi as i64) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_pinned() {
        // The generated datasets are part of the test oracle: any change
        // to the generator silently changes every downstream expectation.
        // Pin the first outputs of a reference seed.
        let mut r = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ranges_hit_endpoints() {
        let mut r = Rng::seed_from_u64(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            let v = r.range_i32(-3, 4);
            assert!((-3..4).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Rng::seed_from_u64(0).below(0);
    }
}
