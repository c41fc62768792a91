//! Prolate spheroidal wave function (PSWF) interpolation window.
//!
//! The B-spline window of SPME is one choice of gridding function; the
//! zeroth-order PSWF `ψ₀(x; c)` is the *optimal* one in the sense of
//! energy concentration: among all functions supported on `[−1, 1]`, it
//! has the largest fraction of its Fourier mass inside the band
//! `[−c, c]`. Liang et al. (PAPERS.md) show a PSWF-windowed SPME reaches
//! the force accuracy of a B-spline window with fewer grid points,
//! because the interpolation (aliasing) error — governed by how fast the
//! window's Fourier transform decays past the Nyquist frequency — falls
//! off super-exponentially rather than polynomially.
//!
//! Construction (Xiao–Rokhlin–Yarvin): `ψ₀` is an eigenfunction of a
//! Sturm–Liouville operator that is *tridiagonal* in the normalised
//! Legendre basis. We build the (even-degree) tridiagonal matrix, take
//! the eigenvector of the smallest eigenvalue by Sturm bisection plus
//! inverse iteration, and evaluate `ψ₀` through the Legendre three-term
//! recurrence. Everything is plan-time: the per-atom hot loops only run
//! the recurrence, mirroring [`crate::bspline::BSpline::weights_into`].
//!
//! Fourier-space deconvolution: where B-spline SPME divides by the Euler
//! factor `|b(θ)|²` (the exact DFT of the *sampled* spline), a general
//! window divides by the continuous transform `ŵ(θ)²`,
//! `ŵ(θ) = ∫ w(x) e^{−iθx} dx` over the support in grid units — the
//! Poisson-summation argument of the NUFFT literature. The neglected
//! alias images `ŵ(θ + 2πj)` are exactly the error the PSWF minimises.

use crate::bspline::{support_origin, SplineWeights};

/// Number of Simpson panels for the plan-time quadrature of `ŵ(θ)`.
/// The integrand is entire and `|θ·x| ≤ π·p/2 ≲ 19`, so a few hundred
/// panels reach full double precision.
const FOURIER_PANELS: usize = 512;

/// A zeroth-order PSWF window of support width `p` grid points
/// (`w(x) = ψ₀(2x/p; c)`, supported on `|x| < p/2`), normalised to
/// `w(0) = 1`.
///
/// Drop-in companion to [`crate::bspline::BSpline`]: same support
/// convention (`p` even, weight `i` multiplies grid point
/// `floor(u) − p/2 + 1 + i`), same stack-carrier weight interface.
#[derive(Clone, Debug)]
pub struct PswfWindow {
    p: usize,
    c: f64,
    /// Half support width `p/2` in grid units.
    half: f64,
    /// Even-degree normalised-Legendre coefficients of `ψ₀(t)`, scaled so
    /// the window value at `t = 0` is exactly 1; entry `j` multiplies
    /// `\bar P_{2j}(t) = sqrt(2j + ½) P_{2j}(t)`.
    coeffs: Vec<f64>,
}

impl PswfWindow {
    /// Window of support `p` grid points (even, 2..=12, matching the
    /// B-spline orders) and bandwidth parameter `c` (radians over the
    /// half-support; must be positive and finite).
    pub fn new(p: usize, c: f64) -> Self {
        assert!(
            p >= 2 && p.is_multiple_of(2) && p <= 12,
            "PSWF support must be even and in 2..=12, got {p}"
        );
        assert!(
            c.is_finite() && c > 0.0,
            "PSWF bandwidth must be positive and finite, got {c}"
        );
        let coeffs = legendre_coefficients(c);
        let mut win = Self {
            p,
            c,
            half: p as f64 / 2.0,
            coeffs,
        };
        // Normalise w(0) = 1 (fixes the arbitrary eigenvector sign too).
        let at_zero = win.eval(0.0);
        for a in &mut win.coeffs {
            *a /= at_zero;
        }
        win
    }

    /// Window with the default bandwidth for support `p`:
    /// `c = 1.1·π·p/2`. The band edge `θ = c/(p/2)` (here `1.1π`) sits
    /// *above* Nyquist, so every representable mode is deconvolved inside
    /// the PSWF's concentration band — dividing by the out-of-band leakage
    /// floor of the truncated ψ₀ is unstable (it oscillates through zero),
    /// so `c < π·p/2` must be avoided. The 10 % margin was tuned on the
    /// marginal-grid regime where the PSWF pays off (grid ≈ the Gaussian's
    /// resolution limit, see `tests/backend_oracle.rs`); ample grids saturate
    /// at the Ewald splitting floor for either window and larger `c`
    /// (≈ 1.4–1.5·π·p/2) gets there slightly sooner.
    #[must_use]
    pub fn for_order(p: usize) -> Self {
        Self::new(p, 1.1 * std::f64::consts::PI * p as f64 / 2.0)
    }

    /// Support width in grid points (the `p` of the matching B-spline).
    #[must_use]
    pub fn order(&self) -> usize {
        self.p
    }

    /// Bandwidth parameter `c`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.c
    }

    /// Window value `w(x)` at offset `x` in grid units (zero outside
    /// `|x| < p/2`).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_with_deriv(x).0
    }

    /// `(w(x), w'(x))` — the pair the force interpolation needs.
    #[must_use]
    pub fn eval_with_deriv(&self, x: f64) -> (f64, f64) {
        let t = x / self.half;
        // Closed support: ψ₀ does not vanish at the truncation edge (its
        // edge value ~√(1−λ₀) is exactly the out-of-band leakage level),
        // and the Fourier quadrature needs the inside limit there.
        if t.abs() > 1.0 {
            return (0.0, 0.0);
        }
        // Legendre values and derivatives by the coupled recurrences
        // P_{k+1} = ((2k+1) t P_k − k P_{k−1})/(k+1),
        // P'_{k+1} = (2k+1) P_k + P'_{k−1} (stable at t = ±1 too).
        let kmax = 2 * (self.coeffs.len() - 1);
        let (mut p_km1, mut p_k) = (0.0f64, 1.0f64); // P_{k−1}, P_k at k = 0
        let (mut d_km1, mut d_k) = (0.0f64, 0.0f64); // P'_{k−1}, P'_k at k = 0
        let mut val = 0.0;
        let mut der = 0.0;
        for k in 0..=kmax {
            if k % 2 == 0 {
                let a = self.coeffs[k / 2];
                let norm = ((k as f64) + 0.5).sqrt();
                val += a * norm * p_k;
                der += a * norm * d_k;
            }
            let kf = k as f64;
            let p_next = ((2.0 * kf + 1.0) * t * p_k - kf * p_km1) / (kf + 1.0);
            let d_next = (2.0 * kf + 1.0) * p_k + d_km1;
            p_km1 = p_k;
            p_k = p_next;
            d_km1 = d_k;
            d_k = d_next;
        }
        // d/dx = (1/half) d/dt.
        (val, der / self.half)
    }

    /// Continuous Fourier transform `ŵ(θ) = ∫ w(x) cos(θx) dx` over the
    /// support, `θ` in radians per grid unit — the per-axis deconvolution
    /// factor of the windowed influence function (`w` is even, so the
    /// transform is real). Composite Simpson; plan-time only.
    #[must_use]
    pub fn fourier(&self, theta: f64) -> f64 {
        let n = FOURIER_PANELS;
        let h = self.half / n as f64;
        // Both endpoints: cos(0)·w(0) and the nonzero edge value w(half).
        let mut acc = self.eval(0.0) + self.eval(self.half) * (theta * self.half).cos();
        for i in 1..n {
            let x = i as f64 * h;
            let f = self.eval(x) * (theta * x).cos();
            acc += if i % 2 == 1 { 4.0 * f } else { 2.0 * f };
        }
        // ×2: the integrand is even, we integrated [0, half] only.
        2.0 * acc * h / 3.0
    }

    /// The `p` non-zero window weights seen by a particle at fractional
    /// grid coordinate `u`, written into the same stack carrier the
    /// B-spline hot loops use: weight `i` multiplies grid point
    /// `m_i = floor(u) − p/2 + 1 + i` and equals `w(u − m_i)`, with
    /// `dw` the derivatives `d/du w(u − m_i)`.
    pub fn weights_into(&self, u: f64, out: &mut SplineWeights) {
        let p = self.p;
        let m0 = support_origin(u, p).1;
        out.m0 = m0;
        out.p = p;
        for i in 0..p {
            let x = u - (m0 + i as i64) as f64;
            let (w, dw) = self.eval_with_deriv(x);
            out.w[i] = w;
            out.dw[i] = dw;
        }
    }
}

/// Even-degree normalised-Legendre coefficients of `ψ₀(·; c)`: the
/// eigenvector of the smallest eigenvalue of the prolate Sturm–Liouville
/// operator, which is tridiagonal over even degrees `k = 0, 2, 4, …` in
/// the normalised Legendre basis (Xiao–Rokhlin–Yarvin):
///
/// ```text
/// A_{k,k}   = k(k+1) + c²(2k(k+1) − 1)/((2k+3)(2k−1))
/// A_{k,k+2} = c²(k+2)(k+1)/((2k+3)·sqrt((2k+1)(2k+5)))
/// ```
fn legendre_coefficients(c: f64) -> Vec<f64> {
    // Coefficients decay super-exponentially past k ≈ c; a fixed margin
    // over c/2 even terms reaches double precision for every c we build.
    let terms = (c as usize) / 2 + 24;
    let mut diag = vec![0.0f64; terms];
    let mut off = vec![0.0f64; terms - 1];
    let c2 = c * c;
    for (j, d) in diag.iter_mut().enumerate() {
        let k = (2 * j) as f64;
        *d = k * (k + 1.0) + c2 * (2.0 * k * (k + 1.0) - 1.0) / ((2.0 * k + 3.0) * (2.0 * k - 1.0));
    }
    for (j, o) in off.iter_mut().enumerate() {
        let k = (2 * j) as f64;
        *o = c2 * (k + 2.0) * (k + 1.0)
            / ((2.0 * k + 3.0) * ((2.0 * k + 1.0) * (2.0 * k + 5.0)).sqrt());
    }
    let lambda = smallest_eigenvalue(&diag, &off);
    inverse_iteration(&diag, &off, lambda)
}

/// Eigenvalues of `T − λI` below `λ`, counted through the LDLᵀ pivot
/// signs (the Sturm sequence of a symmetric tridiagonal matrix).
fn sturm_count(diag: &[f64], off: &[f64], lambda: f64) -> usize {
    let mut count = 0;
    let mut d = diag[0] - lambda;
    if d < 0.0 {
        count += 1;
    }
    for i in 1..diag.len() {
        // Guard an exact zero pivot: nudge by a relative epsilon.
        if d == 0.0 {
            d = f64::EPSILON * (1.0 + lambda.abs());
        }
        d = diag[i] - lambda - off[i - 1] * off[i - 1] / d;
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// Smallest eigenvalue of the symmetric tridiagonal `(diag, off)` by
/// bisection on the Sturm count, to machine-precision brackets.
fn smallest_eigenvalue(diag: &[f64], off: &[f64]) -> f64 {
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..diag.len() {
        let mut r = 0.0;
        if i > 0 {
            r += off[i - 1].abs();
        }
        if i < off.len() {
            r += off[i].abs();
        }
        lo = lo.min(diag[i] - r);
        hi = hi.max(diag[i] + r);
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count(diag, off, mid) == 0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Eigenvector of the tridiagonal `(diag, off)` for the (well-separated)
/// eigenvalue `lambda`, by inverse iteration with a Thomas solve.
fn inverse_iteration(diag: &[f64], off: &[f64], lambda: f64) -> Vec<f64> {
    let n = diag.len();
    // Shift slightly off the eigenvalue so the solve stays nonsingular.
    let shift = lambda - 1e-10 * (1.0 + lambda.abs());
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut cp = vec![0.0f64; n]; // Thomas forward-sweep superdiagonal
    let mut dp = vec![0.0f64; n]; // Thomas forward-sweep rhs
    for _ in 0..3 {
        // Forward sweep of (T − shift·I) x = v.
        let mut denom = diag[0] - shift;
        if denom.abs() < f64::MIN_POSITIVE.sqrt() {
            denom = f64::EPSILON;
        }
        cp[0] = if n > 1 { off[0] / denom } else { 0.0 };
        dp[0] = v[0] / denom;
        for i in 1..n {
            let mut m = diag[i] - shift - off[i - 1] * cp[i - 1];
            if m.abs() < f64::MIN_POSITIVE.sqrt() {
                m = f64::EPSILON;
            }
            if i < n - 1 {
                cp[i] = off[i] / m;
            }
            dp[i] = (v[i] - off[i - 1] * dp[i - 1]) / m;
        }
        // Back substitution, then renormalise.
        v[n - 1] = dp[n - 1];
        for i in (0..n - 1).rev() {
            v[i] = dp[i] - cp[i] * v[i + 1];
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_even_peaked_and_compact() {
        let w = PswfWindow::for_order(6);
        assert!((w.eval(0.0) - 1.0).abs() < 1e-12);
        for i in 0..30 {
            let x = i as f64 * 0.1;
            assert!((w.eval(x) - w.eval(-x)).abs() < 1e-12, "x={x}");
            if x > 0.0 && x < 3.0 {
                assert!(w.eval(x) < 1.0, "must decay from the peak at x={x}");
                assert!(w.eval(x) > 0.0, "ψ₀ has no zeros inside the support");
            }
        }
        // Small but *nonzero* at the truncation edge (≈ the out-of-band
        // leakage level), zero strictly outside.
        let edge = w.eval(3.0);
        assert!(edge > 0.0 && edge < 1e-2, "edge value {edge}");
        assert_eq!(w.eval(3.0 + 1e-9), 0.0);
        assert_eq!(w.eval(-3.1), 0.0);
    }

    #[test]
    fn derivative_matches_numerical_gradient() {
        let w = PswfWindow::for_order(6);
        let h = 1e-6;
        for i in 1..28 {
            let x = -2.9 + i as f64 * 0.2;
            let numeric = (w.eval(x + h) - w.eval(x - h)) / (2.0 * h);
            let (_, d) = w.eval_with_deriv(x);
            assert!((d - numeric).abs() < 1e-6, "x={x}: {d} vs {numeric}");
        }
    }

    #[test]
    fn eigenvector_is_converged_in_basis_size() {
        // Doubling the Legendre basis must not move the window: the
        // coefficients decay super-exponentially past k ≈ c.
        let a = PswfWindow::new(6, 8.0);
        let b = {
            // Rebuild with a much larger basis by going through a larger
            // c and hand-truncating is fragile; instead check the tail of
            // the stored coefficients is already negligible.
            let tail: f64 = a.coeffs[a.coeffs.len() - 3..].iter().map(|x| x.abs()).sum();
            assert!(tail < 1e-12, "basis truncation tail {tail}");
            a.clone()
        };
        assert!((a.eval(1.3) - b.eval(1.3)).abs() < 1e-14);
    }

    #[test]
    fn fourier_concentrates_in_band() {
        // ŵ decays past θ = c/(p/2); the alias frequency 2π must sit far
        // down the tail — that is the whole point of the PSWF window.
        let w = PswfWindow::for_order(6);
        let dc = w.fourier(0.0);
        assert!(dc > 0.0);
        let nyq = w.fourier(std::f64::consts::PI).abs();
        let alias = w.fourier(2.0 * std::f64::consts::PI).abs();
        assert!(nyq < dc, "|ŵ(π)| = {nyq} must be below ŵ(0) = {dc}");
        // The out-of-band level of a truncated PSWF is ~√(1−λ₀) — a
        // uniform floor, not evanescent decay; for p = 6 it sits near
        // 2·10⁻⁴. Compare: the p = 6 B-spline Euler denominator at the
        // same alias distance is ~10⁻², two orders worse.
        assert!(
            alias < 1e-3 * dc,
            "|ŵ(2π)| = {alias} must sit at the concentration floor of ŵ(0) = {dc}"
        );
    }

    #[test]
    fn fourier_matches_trapezoid_cross_check() {
        let w = PswfWindow::new(4, 5.0);
        for &theta in &[0.0, 1.0, 2.5] {
            // Brute-force trapezoid on a 20× finer grid.
            let n = 20_000usize;
            let h = 4.0 / n as f64;
            let mut acc = 0.0;
            for i in 0..=n {
                let x = -2.0 + i as f64 * h;
                let f = w.eval(x) * (theta * x).cos();
                acc += if i == 0 || i == n { 0.5 * f } else { f };
            }
            let want = acc * h;
            let got = w.fourier(theta);
            // 1e-7: the trapezoid reference's own O(h²) error dominates.
            assert!((got - want).abs() < 1e-7, "theta={theta}: {got} vs {want}");
        }
    }

    #[test]
    fn weights_follow_the_spline_support_convention() {
        let w = PswfWindow::for_order(6);
        let mut sw = SplineWeights::default();
        let u = 10.37;
        w.weights_into(u, &mut sw);
        assert_eq!(sw.m0(), 8); // same m0 as BSpline::weights at this u
        assert_eq!(sw.w().len(), 6);
        for (i, &wi) in sw.w().iter().enumerate() {
            let x = u - (sw.m0() + i as i64) as f64;
            assert!((wi - w.eval(x)).abs() < 1e-14, "i={i}");
        }
        // Weights positive, largest nearest the particle.
        assert!(sw.w().iter().all(|&x| x > 0.0));
        let imax = (0..6).max_by(|&a, &b| sw.w()[a].total_cmp(&sw.w()[b]));
        let grid = sw.m0() + imax.map_or(0, |i| i as i64);
        assert!((grid as f64 - u).abs() <= 1.0);
    }

    #[test]
    fn larger_bandwidth_narrows_the_main_lobe() {
        let narrow = PswfWindow::new(6, 4.0);
        let wide = PswfWindow::new(6, 12.0);
        // Larger c concentrates the window: at mid-support the high-c
        // window must be smaller.
        assert!(wide.eval(1.5) < narrow.eval(1.5));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_support_rejected() {
        let _ = PswfWindow::new(5, 7.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_bandwidth_rejected() {
        let _ = PswfWindow::new(6, 0.0);
    }
}
