//! Tensor-structured grid kernels (Eqs. 8–11).
//!
//! A Gaussian `e^{−a²(x−x')²}` (with `x, x'` in grid units and
//! `a = α_ν h_j` dimensionless) is represented on the B-spline grid as
//!
//! ```text
//! e^{−a²(x−x')²} ≈ Σ_{m,m'} G_{m−m'}(a) M_p(x−m) M_p(x'−m')       (Eq. 8)
//! G(a) = g(a) * ω * ω,   g_m(a) = e^{−a²m²}                        (Eq. 11 text)
//! ```
//!
//! where `ω` is the fundamental-spline inverse. The 3-D shell kernel is
//! then the rank-`M` tensor sum `K_m = Σ_ν K^{ν,x}_{m_x} K^{ν,y}_{m_y}
//! K^{ν,z}_{m_z}` with `K^{ν,j}_m = c_ν^{1/3} G_m(α_ν h_j)` (Eqs. 10–11),
//! truncated at the grid cutoff `g_c` — which is what makes the 3-D
//! convolution separable into 1-D passes on the torus network.
//!
//! **Self-similarity across levels:** at level `l` the Gaussian width is
//! `α_ν/2^{l−1}` but the grid spacing is `2^{l−1}h_j`, so the dimensionless
//! product — and therefore the 1-D kernel — is *identical at every level*;
//! only the `1/2^{l−1}` prefactor changes. One kernel serves the whole
//! hierarchy (and one hardware register file serves the GCU).

use crate::shells::GaussianFit;
use tme_mesh::bspline::{BSpline, SymmetricSeq};

/// A 1-D grid kernel `K_m`, `|m| ≤ g_c`, stored as `vals[m + g_c]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel1D {
    gc: usize,
    vals: Vec<f64>,
}

impl Kernel1D {
    pub fn from_vals(gc: usize, vals: Vec<f64>) -> Self {
        assert_eq!(vals.len(), 2 * gc + 1);
        Self { gc, vals }
    }

    #[inline]
    pub fn gc(&self) -> usize {
        self.gc
    }

    #[inline]
    pub fn get(&self, m: i64) -> f64 {
        if m.unsigned_abs() as usize > self.gc {
            0.0
        } else {
            self.vals[(m + self.gc as i64) as usize]
        }
    }

    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

/// `G_m(a) = (g(a) * ω')_m` for `|m| ≤ range` — the B-spline representation
/// coefficients of the unit Gaussian with dimensionless width `a`.
pub fn gaussian_grid_coefficients(a: f64, omega2: &SymmetricSeq, range: usize) -> Vec<f64> {
    assert!(a > 0.0);
    // g_m = e^{−a²m²} decays below 1e−18 past m ≈ 6.45/a.
    let g_half = tme_num::cast::ceil_i64(6.45 / a) + 1;
    let r = range as i64;
    let mut out = vec![0.0; 2 * range + 1];
    // Compute m ≥ 0 and mirror: G is exactly even (g and ω' both are), and
    // mirroring keeps the stored kernel bit-for-bit symmetric, as the
    // hardware's single shared register file does.
    for m in 0..=r {
        let mut acc = 0.0;
        // (g * ω')_m = Σ_k g_k ω'_{m−k}
        for k in -g_half..=g_half {
            let w = omega2.get(m - k);
            if w != 0.0 {
                let kf = a * k as f64;
                acc += (-kf * kf).exp() * w;
            }
        }
        out[(r + m) as usize] = acc;
        out[(r - m) as usize] = acc;
    }
    out
}

/// The rank-`M` tensor kernel for one shell family, valid at every level.
#[derive(Clone, Debug)]
pub struct TensorKernel {
    gc: usize,
    /// `terms[ν][axis]` = 1-D kernel `K^{ν,j}`.
    terms: Vec<[Kernel1D; 3]>,
}

impl TensorKernel {
    /// Build from a Gaussian shell fit, grid spacings `h` (finest level)
    /// and spline order `p`, truncating at grid cutoff `gc`.
    pub fn new(fit: &GaussianFit, h: [f64; 3], p: usize, gc: usize) -> Self {
        let omega2 = BSpline::new(p).omega2(1e-17);
        let terms = fit
            .terms()
            .iter()
            .map(|t| {
                let c13 = t.c.cbrt();
                let make = |hj: f64| {
                    let g = gaussian_grid_coefficients(t.a * hj, &omega2, gc);
                    Kernel1D::from_vals(gc, g.iter().map(|v| c13 * v).collect())
                };
                [make(h[0]), make(h[1]), make(h[2])]
            })
            .collect();
        Self { gc, terms }
    }

    #[inline]
    pub fn gc(&self) -> usize {
        self.gc
    }

    pub fn terms(&self) -> &[[Kernel1D; 3]] {
        &self.terms
    }

    /// Densify to the full `(2g_c+1)³` kernel value at offset `m` —
    /// `K_m = Σ_ν ∏_j K^{ν,j}_{m_j}` (Eq. 10). Used by the direct-MSM
    /// comparator and by tests.
    pub fn dense_value(&self, m: [i64; 3]) -> f64 {
        self.terms
            .iter()
            .map(|t| t[0].get(m[0]) * t[1].get(m[1]) * t[2].get(m[2]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shells::GaussianFit;
    use tme_mesh::BSpline;

    /// The core identity, Eq. 8: the B-spline expansion with coefficients
    /// G(a) reproduces the Gaussian pairwise kernel.
    #[test]
    fn bspline_expansion_reproduces_gaussian() {
        for p in [4usize, 6] {
            let sp = BSpline::new(p);
            let omega2 = sp.omega2(1e-17);
            for &a in &[0.35f64, 0.6] {
                let range = 24usize;
                let g = gaussian_grid_coefficients(a, &omega2, range);
                let get = |m: i64| {
                    if m.unsigned_abs() as usize > range {
                        0.0
                    } else {
                        g[(m + range as i64) as usize]
                    }
                };
                for &(x, xp) in &[(0.3f64, 0.3f64), (1.7, -2.4), (0.0, 3.5), (2.2, 2.9)] {
                    let exact = (-(a * (x - xp)).powi(2)).exp();
                    // (tolerances below reflect the quasi-interpolation
                    // error of order (a)^p at these widths)
                    let mut approx = 0.0;
                    let half = p as i64 / 2;
                    let (mx, mxp) = (x.floor() as i64, xp.floor() as i64);
                    for m in (mx - half)..=(mx + half) {
                        let wm = sp.eval_central(x - m as f64);
                        if wm == 0.0 {
                            continue;
                        }
                        for mp in (mxp - half)..=(mxp + half) {
                            let wmp = sp.eval_central(xp - mp as f64);
                            approx += get(m - mp) * wm * wmp;
                        }
                    }
                    let tol = if p == 4 { 2e-2 } else { 5e-3 };
                    assert!(
                        (approx - exact).abs() < tol,
                        "p={p} a={a} x={x} x'={xp}: {approx} vs {exact}"
                    );
                }
            }
        }
    }

    /// Higher spline order represents the Gaussian more accurately.
    #[test]
    fn higher_order_is_more_accurate() {
        let a = 0.5f64;
        let mut errs = Vec::new();
        for p in [4usize, 6, 8] {
            let sp = BSpline::new(p);
            let omega2 = sp.omega2(1e-17);
            let range = 24usize;
            let g = gaussian_grid_coefficients(a, &omega2, range);
            let get = |m: i64| g[(m + range as i64) as usize];
            let half = p as i64 / 2;
            let mut worst = 0.0f64;
            for i in 0..50 {
                let x = 0.07 * i as f64;
                let exact = (-(a * x).powi(2)).exp();
                let mut approx = 0.0;
                let mx = x.floor() as i64;
                for m in (mx - half)..=(mx + half) {
                    let wm = sp.eval_central(x - m as f64);
                    for mp in -half..=half {
                        approx += get(m - mp) * wm * sp.eval_central(-mp as f64);
                    }
                }
                worst = worst.max((approx - exact).abs());
            }
            errs.push(worst);
        }
        assert!(errs[1] < errs[0] && errs[2] < errs[1], "{errs:?}");
    }

    #[test]
    fn kernel_symmetric_and_decaying() {
        let fit = GaussianFit::new(2.2, 4);
        let k = TensorKernel::new(&fit, [0.31; 3], 6, 8);
        assert_eq!(k.terms().len(), 4);
        for t in k.terms() {
            for axis in t {
                for m in 0..=8i64 {
                    assert!(
                        (axis.get(m) - axis.get(-m)).abs() < 1e-15,
                        "asymmetric at {m}"
                    );
                }
                // Decay towards the cutoff (|K| at g_c ≪ |K| at 0).
                assert!(axis.get(8).abs() < 1e-2 * axis.get(0).abs());
            }
        }
    }

    /// The defining discrete identity of G: convolving with the spline
    /// integer samples `a_m = M_p(m)` on both sides recovers the sampled
    /// Gaussian, `(a * G * a)_d = e^{−a²d²}` — because `a * ω = δ` exactly.
    #[test]
    fn sample_convolution_recovers_gaussian_exactly() {
        let p = 6usize;
        let sp = BSpline::new(p);
        let omega2 = sp.omega2(1e-17);
        let a = 0.55f64;
        let range = 30usize;
        let g = gaussian_grid_coefficients(a, &omega2, range);
        let get = |m: i64| {
            if m.unsigned_abs() as usize > range {
                0.0
            } else {
                g[(m + range as i64) as usize]
            }
        };
        let half = p as i64 / 2 - 1;
        for d in 0..=8i64 {
            let mut acc = 0.0;
            for k in -half..=half {
                let ak = sp.eval_central(k as f64);
                for kp in -half..=half {
                    acc += ak * sp.eval_central(kp as f64) * get(d - k + kp);
                }
            }
            let exact = (-(a * d as f64).powi(2)).exp();
            assert!((acc - exact).abs() < 1e-10, "d={d}: {acc} vs {exact}");
        }
    }

    /// 3-D composition: smoothing the dense tensor kernel with the spline
    /// samples on both ends approximates the exact shell at grid distances
    /// (the rank-M Gaussian fit is the only remaining error).
    #[test]
    fn smoothed_dense_kernel_tracks_shell() {
        let alpha = 2.2;
        let h = 0.31;
        let p = 6usize;
        let sp = BSpline::new(p);
        let fit = GaussianFit::new(alpha, 4);
        let k = TensorKernel::new(&fit, [h; 3], p, 14);
        let half = p as i64 / 2 - 1;
        // 1-D spline samples.
        let a: Vec<(i64, f64)> = (-half..=half)
            .map(|m| (m, sp.eval_central(m as f64)))
            .collect();
        for &d in &[[3i64, 0, 0], [2, 2, 1], [4, 1, 0]] {
            // (a ⊗ a ⊗ a) * K * (a ⊗ a ⊗ a) at offset d, factorised per axis
            // for each rank term.
            let mut got = 0.0;
            for t in k.terms() {
                let mut prod = 1.0;
                for (axis, kern) in t.iter().enumerate() {
                    let mut s = 0.0;
                    for &(m, am) in &a {
                        for &(mp, amp) in &a {
                            s += am * amp * kern.get(d[axis] - m + mp);
                        }
                    }
                    prod *= s;
                }
                got += prod;
            }
            let r = h * ((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) as f64).sqrt();
            let exact = crate::shells::shell_exact(alpha, 1, r);
            assert!(
                (got - exact).abs() < 3e-3 * exact.abs().max(1e-3),
                "d={d:?}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn kernel1d_out_of_range_is_zero() {
        let k = Kernel1D::from_vals(2, vec![1.0, 2.0, 3.0, 2.0, 1.0]);
        assert_eq!(k.get(3), 0.0);
        assert_eq!(k.get(-3), 0.0);
        assert_eq!(k.get(0), 3.0);
        assert_eq!(k.get(-2), 1.0);
    }
}
