//! Ewald shell splitting and the M-Gaussian approximation (Eqs. 4–7).
//!
//! The level-`l` middle-range shell is
//!
//! ```text
//! g_{α,l}(r) = erf(α r/2^{l−1})/r − erf(α r/2^l)/r
//!            = (2/√π) ∫_{α/2^l}^{α/2^{l−1}} e^{−u²r²} du
//!            = g_{α,1}(r/2^{l−1}) / 2^{l−1}            (self-similarity, Eq. 5)
//! ```
//!
//! Substituting `u = ((−t+3)/4)·α/2^{l−1}` maps the integral onto `[−1, 1]`
//! (Eq. 6), and the `M`-point Gauss–Legendre rule turns it into a sum of
//! `M` Gaussians with exponents `α_ν = ((−u_ν+3)/4)α` and coefficients
//! `c_ν = (α/(2√π)) w_ν` (Eq. 7). Figure 3 of the paper plots exactly the
//! quantities [`GaussianFit::shell_exact`] and [`GaussianFit::eval`]
//! produce.

use tme_num::quadrature::GaussLegendre;
use tme_num::special::{erf, SQRT_PI, TWO_OVER_SQRT_PI};

/// One Gaussian term of the shell approximation: `c · e^{−(a r)²}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianTerm {
    /// Exponent parameter `α_ν` (nm⁻¹) — level-1 form.
    pub a: f64,
    /// Coefficient `c_ν` (nm⁻¹).
    pub c: f64,
}

/// The M-Gaussian approximation of the level-1 shell `g_{α,1}`.
///
/// Higher levels reuse the same fit through the paper's self-similarity:
/// `g_{α,l}(r) = g_{α,1}(r/2^{l−1})/2^{l−1}`.
#[derive(Clone, Debug)]
pub struct GaussianFit {
    alpha: f64,
    terms: Vec<GaussianTerm>,
}

impl GaussianFit {
    /// Fit `g_{α,1}` with the `m`-point Gauss–Legendre rule (Eq. 7).
    pub fn new(alpha: f64, m: usize) -> Self {
        assert!(alpha > 0.0, "α must be positive");
        let rule = GaussLegendre::new(m);
        let terms = rule
            .nodes
            .iter()
            .zip(&rule.weights)
            .map(|(&u, &w)| GaussianTerm {
                a: (-u + 3.0) / 4.0 * alpha,
                c: alpha / (2.0 * SQRT_PI) * w,
            })
            .collect();
        Self { alpha, terms }
    }

    pub fn terms(&self) -> &[GaussianTerm] {
        &self.terms
    }

    /// Approximate `g_{α,l}(r)` by the Gaussian sum (Eq. 6 RHS).
    pub fn eval(&self, level: u32, r: f64) -> f64 {
        let s = (2.0f64).powi(level as i32 - 1);
        self.terms
            .iter()
            .map(|t| {
                let x = t.a * r / s;
                t.c * (-x * x).exp()
            })
            .sum::<f64>()
            / s
    }

    /// Exact shell `g_{α,l}(r)`, with the removable singularity at `r = 0`
    /// evaluated analytically: `g_{α,l}(0) = (2/√π)·α/2^l`.
    pub fn shell_exact(&self, level: u32, r: f64) -> f64 {
        shell_exact(self.alpha, level, r)
    }

    /// Maximum absolute error of the *normalised* shell
    /// `g/g(0)` over `α r/2^{l−1} ∈ (0, x_max]` — the quantity Fig. 3(b)
    /// plots (invariant in α and l; we evaluate at level 1).
    pub fn normalised_max_error(&self, x_max: f64, samples: usize) -> f64 {
        let g0 = shell_exact(self.alpha, 1, 0.0);
        let mut worst = 0.0f64;
        for i in 0..=samples {
            let x = x_max * i as f64 / samples as f64;
            let r = x / self.alpha;
            let err = (self.eval(1, r) - self.shell_exact(1, r)).abs() / g0;
            worst = worst.max(err);
        }
        worst
    }
}

/// Exact middle-range shell `g_{α,l}(r)` (Eq. 5).
pub fn shell_exact(alpha: f64, level: u32, r: f64) -> f64 {
    assert!(level >= 1);
    let hi = alpha / (2.0f64).powi(level as i32 - 1);
    let lo = alpha / (2.0f64).powi(level as i32);
    if r == 0.0 {
        return TWO_OVER_SQRT_PI * (hi - lo);
    }
    (erf(hi * r) - erf(lo * r)) / r
}

/// The top-level potential `g_{α/2^L,L}(r) = erf(α r/2^L)/r` (Eq. 4).
pub fn top_level_exact(alpha: f64, levels: u32, r: f64) -> f64 {
    let a = alpha / (2.0f64).powi(levels as i32);
    if r == 0.0 {
        return TWO_OVER_SQRT_PI * a;
    }
    erf(a * r) / r
}

/// Short-range part `g_{α,S}(r) = erfc(αr)/r` (Eq. 2); diverges at 0.
pub fn short_range_exact(alpha: f64, r: f64) -> f64 {
    tme_num::special::erfc(alpha * r) / r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split must recompose 1/r exactly (Eq. 4).
    #[test]
    fn shells_telescope_to_coulomb() {
        let alpha = 2.3;
        for levels in [1u32, 2, 3] {
            for i in 1..60 {
                let r = i as f64 * 0.11;
                let mut total = short_range_exact(alpha, r);
                for l in 1..=levels {
                    total += shell_exact(alpha, l, r);
                }
                total += top_level_exact(alpha, levels, r);
                assert!(
                    (total - 1.0 / r).abs() < 1e-12 / r,
                    "L={levels} r={r}: {total} vs {}",
                    1.0 / r
                );
            }
        }
    }

    /// Self-similarity of Eq. 5: `g_{α,l}(r) = g_{α,1}(r/2^{l−1})/2^{l−1}`.
    #[test]
    fn shell_self_similarity() {
        let alpha = 1.7;
        for l in 2u32..=4 {
            let s = (2.0f64).powi(l as i32 - 1);
            for i in 0..40 {
                let r = i as f64 * 0.2;
                let lhs = shell_exact(alpha, l, r);
                let rhs = shell_exact(alpha, 1, r / s) / s;
                assert!((lhs - rhs).abs() < 1e-14 * (1.0 + lhs.abs()), "l={l} r={r}");
            }
        }
    }

    /// Gauss–Legendre fit converges to the exact shell as M grows —
    /// the content of Fig. 3(b).
    #[test]
    fn fit_error_decreases_with_m() {
        let alpha = 2.751_064; // the paper's α r_c = 2.751064 with r_c = 1
        let errors: Vec<f64> = (1..=4)
            .map(|m| GaussianFit::new(alpha, m).normalised_max_error(5.0, 400))
            .collect();
        for w in errors.windows(2) {
            assert!(w[1] < w[0], "errors not decreasing: {errors:?}");
        }
        // Fig. 3 scale: M = 1 visibly imperfect but small; M = 2 already
        // hard to distinguish; M = 4 tiny.
        assert!(errors[0] < 0.05, "M=1 error {}", errors[0]);
        assert!(errors[1] < 3e-3, "M=2 error {}", errors[1]);
        assert!(errors[3] < 1e-5, "M=4 error {}", errors[3]);
    }

    /// The normalised error curve is invariant under α (Fig. 3 caption).
    #[test]
    fn normalised_error_invariant_in_alpha() {
        let e1 = GaussianFit::new(1.0, 2).normalised_max_error(4.0, 200);
        let e2 = GaussianFit::new(5.0, 2).normalised_max_error(4.0, 200);
        assert!((e1 - e2).abs() < 1e-12, "{e1} vs {e2}");
    }

    /// Gaussian exponents all lie inside the exact integration range
    /// `[α/2, α]` (substitution of Eq. 6) and coefficients are positive.
    #[test]
    fn fit_terms_well_formed() {
        let f = GaussianFit::new(3.0, 6);
        for t in f.terms() {
            assert!(t.a > 1.5 && t.a < 3.0, "exponent {}", t.a);
            assert!(t.c > 0.0);
        }
        // Σ c_ν = (α/2√π)·Σw = (α/2√π)·2 = α/√π = g_{α,1}(0) exactly:
        let sum: f64 = f.terms().iter().map(|t| t.c).sum();
        assert!((sum - shell_exact(3.0, 1, 0.0)).abs() < 1e-13);
    }

    /// Level evaluation uses the same fit rescaled.
    #[test]
    fn fit_levels_self_similar() {
        let f = GaussianFit::new(2.0, 3);
        for i in 0..20 {
            let r = i as f64 * 0.3;
            let lhs = f.eval(3, r);
            let rhs = f.eval(1, r / 4.0) / 4.0;
            assert!((lhs - rhs).abs() < 1e-15 * (1.0 + lhs.abs()));
        }
    }

    /// Fit quality at the paper's Fig. 3(a) scale: the M = 2 curve is
    /// indistinguishable from exact at plot resolution (< 1e-3 normalised).
    #[test]
    fn m2_error_below_plot_resolution() {
        let e = GaussianFit::new(2.0, 2).normalised_max_error(5.0, 500);
        assert!(e < 1.5e-3, "M=2 max normalised error {e}");
    }
}
