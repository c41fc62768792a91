//! Checked float↔integer conversions for grid indexing.
//!
//! A bare `f64 as i64` silently saturates on overflow and maps NaN to 0
//! (since Rust 1.45), so an upstream numerical bug — an infinite box
//! length, a NaN coordinate — turns into a *plausible-looking grid index*
//! and corrupts charge assignment instead of failing loudly. The `tme-lint`
//! rule **L1** bans lossy `as` casts between floats and integers in the
//! numeric kernel crates; these helpers are the sanctioned replacement.
//! Each one debug-asserts finiteness and representability, then performs
//! the cast with an inline waiver, so release builds pay nothing and debug
//! builds catch the corruption at the conversion site.

/// Exactly representable i64 bound for f64 round-trips: |x| ≤ 2^53 keeps
/// every integer exact, which is far beyond any grid index this workspace
/// can produce.
const EXACT_BOUND: f64 = 9_007_199_254_740_992.0; // 2^53

#[inline]
fn checked(x: f64, what: &str) -> f64 {
    debug_assert!(
        x.is_finite() && x.abs() <= EXACT_BOUND,
        "{what}: {x} is not a finite exactly-representable integer candidate"
    );
    x
}

/// `x.ceil()` as an `i64`, debug-asserting `x` is finite and in range.
#[inline]
#[must_use]
pub fn ceil_i64(x: f64) -> i64 {
    checked(x, "ceil_i64").ceil() as i64 // lint:allow(l1) — the checked helper itself
}

/// `x.round()` as an `i64`, debug-asserting `x` is finite and in range.
#[inline]
#[must_use]
pub fn round_i64(x: f64) -> i64 {
    checked(x, "round_i64").round() as i64 // lint:allow(l1) — the checked helper itself
}

/// `x.floor()` as a `usize`, debug-asserting `x` is finite, non-negative
/// and in range — the grid-indexing workhorse. For a non-negative input
/// the truncating cast *is* the floor, so no `floor` is evaluated: baseline
/// x86-64 has no `roundsd`, and the libm call it would become cannot be
/// inlined into the pair kernel, `CellBins::bin` or the spline index paths.
#[inline]
#[must_use]
pub fn floor_usize(x: f64) -> usize {
    debug_assert!(x >= 0.0, "floor_usize: {x} is negative");
    checked(x, "floor_usize") as usize // lint:allow(l1) — the checked helper itself
}

/// `x.floor()` through the integer unit. Baseline x86-64 has no `roundsd`,
/// so `f64::floor` is an out-of-line libm call there; this is a handful of
/// inline instructions with the same value for every input — ±0, NaN, ±∞
/// and `|x| ≥ 2^52` (already integers) included. No assertion: position
/// wrapping must pass non-finite input through for its callers to detect.
#[inline]
#[must_use]
pub fn floor_f64(x: f64) -> f64 {
    const ALL_INTEGERS_FROM: f64 = 4_503_599_627_370_496.0; // 2^52
    if x.abs() < ALL_INTEGERS_FROM {
        let t = x as i64 as f64; // lint:allow(l1) — exact truncation below 2^52
        (if t > x { t - 1.0 } else { t }).copysign(x)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_matches_bare_casts_in_range() {
        for x in [-3.7, -3.0, -0.2, 0.0, 0.4, 1.0, 7.9, 1e9] {
            assert_eq!(ceil_i64(x), x.ceil() as i64);
            assert_eq!(round_i64(x), x.round() as i64);
        }
        assert_eq!(floor_usize(7.9), 7);
        assert_eq!(floor_usize(0.0), 0);
    }

    #[test]
    fn floor_usize_equals_floor_on_non_negative_samples() {
        // Every binade of [0, 2^52) (above it every f64 is an integer),
        // sampled at its edges, around integers and at seeded mantissas.
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xF100);
        let check = |x: f64| assert_eq!(floor_usize(x), x.floor() as usize, "x = {x:e}");
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.999_999_999_999_999_9,
        ] {
            check(x);
        }
        for exp in 0..52 {
            let lo = (1u64 << exp) as f64;
            for x in [lo, lo + 0.5, f64::from_bits(lo.to_bits() + 1)] {
                check(x);
            }
            check(f64::from_bits((2.0 * lo).to_bits() - 1));
            for _ in 0..2000 {
                let x = lo * rng.gen_range(1.0..2.0);
                check(x);
                // The neighbours of the nearest integer: the only inputs
                // where a rounding (rather than truncating) cast differs.
                let near = x.round();
                check(near);
                check(f64::from_bits(near.to_bits() - 1));
                check(f64::from_bits(near.to_bits() + 1));
            }
        }
    }

    #[test]
    fn floor_f64_equals_floor_bit_for_bit() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xF64);
        let check = |x: f64| {
            assert_eq!(floor_f64(x).to_bits(), x.floor().to_bits(), "x = {x:e}");
            assert_eq!(
                floor_f64(-x).to_bits(),
                (-x).floor().to_bits(),
                "x = -{x:e}"
            );
        };
        for x in [
            0.0,
            5e-324,
            0.5,
            1.0 - f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
        ] {
            check(x);
        }
        assert!(floor_f64(f64::NAN).is_nan());
        for exp in 0..64 {
            let lo = (1u64 << exp) as f64;
            for _ in 0..500 {
                let x = lo * rng.gen_range(1.0..2.0);
                let near = x.round();
                for x in [x, near, near + 0.5, lo] {
                    check(x);
                    check(f64::from_bits(x.to_bits() - 1));
                    check(f64::from_bits(x.to_bits() + 1));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ceil_i64")]
    #[cfg(debug_assertions)]
    fn nan_is_caught() {
        let _ = ceil_i64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "floor_usize")]
    #[cfg(debug_assertions)]
    fn negative_grid_index_is_caught() {
        let _ = floor_usize(-1.5);
    }
}
