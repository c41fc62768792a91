//! Error function and complementary error function to near machine precision.
//!
//! The Ewald splitting (paper Eqs. 1–3) is written entirely in terms of
//! `erf`/`erfc`:
//!
//! * short range: `g_{α,S}(r) = erfc(αr)/r`
//! * long range:  `g_{α,L}(r) = erf(αr)/r`
//!
//! and the reference Ewald summation used to measure Table 1 force errors
//! needs `erfc` accurate in a *relative* sense down to `erfc(x) ≈ 1e-16`
//! (the paper chooses its reference parameters so the theoretical force
//! error factor is below `1e-15`).
//!
//! Strategy — two classical, provably convergent expansions:
//!
//! * `|x| ≤ 1.5`: the Maclaurin series
//!   `erf(x) = (2/√π) Σ_{n≥0} (−1)^n x^{2n+1} / (n! (2n+1))` — mild
//!   cancellation only (`erfc(1.5) ≈ 0.034`), keeping both `erf` and
//!   `erfc = 1 − erf` within a few ulps of full relative precision.
//! * `x > 1.5`: the Laplace continued fraction evaluated with the modified
//!   Lentz algorithm,
//!   `√π e^{x²} erfc(x) = 1 / (x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`,
//!   which converges quickly beyond 1.5 and is accurate in the relative
//!   sense for arbitrarily small `erfc`.

/// 2/sqrt(pi), the normalisation of the error function.
pub const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;
/// sqrt(pi).
pub const SQRT_PI: f64 = TWO_OVER_SQRT_PI / 2.0 * std::f64::consts::PI;

/// Error function `erf(x)`, odd in `x`, accurate to ~1e-15 relative.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x <= 1.5 {
        erf_series(x)
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Relative accuracy is preserved for large `x` (down to the underflow of
/// `exp(−x²)` near `x ≈ 26.6`), which the reference Ewald summation relies
/// on.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x <= 1.5 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Maclaurin series for `erf`, valid (and used) on `0 ≤ x ≤ 1.5`.
fn erf_series(x: f64) -> f64 {
    debug_assert!((0.0..=1.5 + 1e-12).contains(&x));
    let x2 = x * x;
    let mut sum = x;
    // term_n = (−1)^n x^{2n+1} / (n! (2n+1)); build x^{2n+1}/n! iteratively.
    let mut power = x; // x^{2n+1}/n!
    let mut n = 1u32;
    loop {
        power *= -x2 / n as f64;
        let term = power / (2 * n + 1) as f64;
        sum += term;
        if term.abs() < 1e-18 * sum.abs().max(1e-300) {
            break;
        }
        n += 1;
        debug_assert!(n < 200, "erf series failed to converge");
    }
    sum * TWO_OVER_SQRT_PI
}

/// Laplace continued fraction for `e^{x²} erfc(x) √π`, `x > 1.5`.
fn erfcx_cf(x: f64) -> f64 {
    // Modified Lentz evaluation of 1/(x + a1/(x + a2/(x + ...))), a_n = n/2.
    const TINY: f64 = 1e-300;
    let b = x;
    let mut f = b.max(TINY);
    let mut c = f;
    let mut d = 0.0f64;
    let mut n = 1u32;
    loop {
        let a = n as f64 * 0.5;
        d = b + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-17 {
            break;
        }
        n += 1;
        if n > 600 {
            // Lentz is monotonically converging here; past this many terms
            // the remaining correction is far below the f64 ulp, so accept.
            break;
        }
    }
    1.0 / (f * SQRT_PI)
}

fn erfc_cf(x: f64) -> f64 {
    (-x * x).exp() * erfcx_cf(x)
}

/// Inverse complementary error function on (0, 1): the `x` with
/// `erfc(x) = y`, by bisection (erfc is strictly decreasing). This is how
/// the paper (and GROMACS `ewald-rtol`) turn a force tolerance into the
/// Ewald splitting parameter: `α = erfc_inv(rtol)/r_c`.
pub fn erfc_inv(y: f64) -> f64 {
    assert!(y > 0.0 && y < 1.0, "erfc_inv defined on (0, 1), got {y}");
    let (mut lo, mut hi) = (0.0f64, 30.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if erfc(mid) > y {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The Ewald splitting parameter with `erfc(α r_c) = rtol` — the GROMACS
/// `ewald-rtol` parameterisation the paper uses throughout (§III.B).
/// A cutoff that is not positive and finite gives an α that is not
/// (negative, infinite, zero or NaN), which every planner refuses.
pub fn alpha_from_rtol(r_cut: f64, rtol: f64) -> f64 {
    erfc_inv(rtol) / r_cut
}

#[cfg(test)]
#[allow(clippy::excessive_precision)] // reference tables keep full printed digits
mod tests {
    use super::*;

    /// Reference values computed with mpmath (50 digits), rounded to f64.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018284892),
        (0.5, 0.520499877813046538),
        (1.0, 0.842700792949714869),
        (1.5, 0.966105146475310727),
        (2.0, 0.995322265018952734),
        (2.5, 0.999593047982555041),
        (3.0, 0.999977909503001415),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (2.0, 4.67773498104726584e-3),
        (3.0, 2.20904969985854414e-5),
        (4.0, 1.54172579002800189e-8),
        (5.0, 1.53745979442803485e-12),
        (6.0, 2.15197367124989132e-17),
        (10.0, 2.08848758376254493e-45),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, v) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - v).abs() <= 4e-16 * v.abs().max(1.0),
                "erf({x}) = {got}, want {v}"
            );
        }
    }

    #[test]
    fn erfc_matches_reference_relatively() {
        for &(x, v) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - v) / v).abs();
            assert!(rel < 5e-14, "erfc({x}) = {got:e}, want {v:e}, rel {rel:e}");
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_complements() {
        for i in 0..200 {
            let x = -4.0 + i as f64 * 0.04;
            assert!((erf(x) + erf(-x)).abs() < 1e-15);
            assert!((erf(x) + erfc(x) - 1.0).abs() < 2e-15, "x={x}");
        }
    }

    #[test]
    fn erf_monotone_increasing() {
        let mut prev = erf(-6.0);
        for i in 1..=1200 {
            let x = -6.0 + i as f64 * 0.01;
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at x={x}");
            prev = v;
        }
    }

    #[test]
    fn branch_seam_is_continuous() {
        // The series/continued-fraction hand-off at x = 1.5 must agree
        // (a ±1e-15 step moves the true value well below 1e-15 — any
        // branch mismatch would dominate).
        let lo = erfc(1.5 - 1e-15);
        let hi = erfc(1.5 + 1e-15);
        assert!(((lo - hi) / lo).abs() < 1e-12, "lo={lo:e} hi={hi:e}");
    }

    /// Independent large-x check of the continued fraction behind `erfc`:
    /// the divergent asymptotic expansion
    /// `e^{x²} erfc(x) ≈ (1/(x√π)) Σ (−1)^n (2n−1)!!/(2x²)^n`, truncated at
    /// its smallest term, bounds the truncation error by that term.
    #[test]
    fn erfcx_matches_asymptotic_series_for_large_x() {
        for &x in &[7.0, 8.0, 12.0, 15.0, 20.0] {
            let inv2x2 = 1.0 / (2.0 * x * x);
            let mut mag = 1.0f64; // |term_n| = (2n−1)!!/(2x²)^n
            let mut sum = 1.0f64;
            let mut n = 1u32;
            loop {
                let next = mag * (2 * n - 1) as f64 * inv2x2;
                if next >= mag || next < 1e-18 {
                    break; // stop at the smallest term (or once negligible)
                }
                mag = next;
                sum += if n % 2 == 1 { -mag } else { mag };
                n += 1;
            }
            let asym = sum / (x * SQRT_PI);
            let rel = (erfcx_cf(x) / asym - 1.0).abs();
            assert!(rel < 1e-12, "x={x} rel={rel:e}");
        }
    }

    /// The paper determines α from erfc(α r_c) = 1e-4, quoting
    /// α r_c ≈ 2.751064; check our erfc reproduces that root.
    #[test]
    fn paper_alpha_rc_root() {
        let v = erfc(2.751_064);
        assert!((v / 1e-4 - 1.0).abs() < 1e-5, "erfc(2.751064) = {v:e}");
    }

    #[test]
    fn erfc_inv_round_trips() {
        for &y in &[0.5, 1e-2, 1e-4, 1e-8, 1e-12] {
            let x = erfc_inv(y);
            assert!((erfc(x) / y - 1.0).abs() < 1e-10, "y={y}: x={x}");
        }
        // The paper's value: erfc_inv(1e-4) ≈ 2.751064.
        assert!((erfc_inv(1e-4) - 2.751_064).abs() < 1e-5);
    }

    #[test]
    fn alpha_from_rtol_matches_paper_value() {
        // The paper: erfc(α r_c) = 1e-4 ⇒ α r_c ≈ 2.751064.
        let a = alpha_from_rtol(1.0, 1e-4);
        assert!((a - 2.751_064).abs() < 1e-4, "α = {a}");
        // And for r_c = 1.5 the paper's Table-1 caption α·1.5 ≈ 2.751064.
        let a15 = alpha_from_rtol(1.5, 1e-4);
        assert!((a15 * 1.5 - 2.751_064).abs() < 1e-4);
    }

    #[test]
    fn erf_limits() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(10.0) - 1.0).abs() < 1e-16);
        assert!((erf(-10.0) + 1.0).abs() < 1e-16);
        assert!(erfc(40.0) >= 0.0);
    }
}
