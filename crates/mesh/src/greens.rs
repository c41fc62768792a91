//! The SPME lattice Green function (influence function).
//!
//! For a long-range potential `erf(αr)/r` represented on an `N`-point grid
//! by order-`p` B-splines, the reciprocal-space multiplier at wave index
//! `n` is (Essmann et al.; Deserno & Holm Eq. 28):
//!
//! ```text
//! G̃_n = N_tot · (1/(π V)) · exp(−π² m̄²/α²)/m̄² · B(n),    G̃_0 = 0
//! ```
//!
//! with `m̄_j = ñ_j/L_j` (`ñ` the signed alias of `n`) and
//! `B(n) = ∏_j |b_j(n_j)|²` the Euler exponential-spline factor that undoes
//! the smearing of two B-spline interpolations. The `N_tot` factor absorbs
//! our unnormalised-forward/`1/N`-inverse FFT convention, so that the grid
//! potential is simply `Φ = IFFT(G̃ ⊙ FFT(Q))` and the reciprocal energy is
//! `E = ½ Σ_m Q_m Φ_m` (reduced units; `G̃_0 = 0` imposes tinfoil boundary
//! conditions).
//!
//! In the TME this same function with `α → α/2^L` and `N → N/2^L` is the
//! top-level convolution kernel that the root FPGA applies between the
//! forward and inverse 16³ FFTs (paper §IV.C, step 2).

use crate::bspline::BSpline;
use crate::grid::Grid3;
use crate::window::PswfWindow;
use tme_num::fft::RealFft3;
use tme_num::vec3::V3;
use tme_num::Complex64;

/// Squared modulus of the Euler factor `|b(n)|²` for one axis.
///
/// `b(n) = e^{2πi(p−1)n/N} / Σ_{k=0}^{p−2} M_p(k+1) e^{2πi nk/N}`; the
/// numerator is a pure phase so only the denominator matters.
fn euler_factor_sq(p: usize, n: usize, nn: usize) -> f64 {
    let spline = BSpline::new(p);
    let theta = 2.0 * std::f64::consts::PI * n as f64 / nn as f64;
    let mut re = 0.0;
    let mut im = 0.0;
    for k in 0..=(p - 2) {
        let m = spline.eval((k + 1) as f64);
        re += m * (theta * k as f64).cos();
        im += m * (theta * k as f64).sin();
    }
    1.0 / (re * re + im * im)
}

/// Signed alias of grid frequency `n` on an `N`-point axis: the integer in
/// `(−N/2, N/2]` congruent to `n`.
#[inline]
pub fn signed_freq(n: usize, nn: usize) -> i64 {
    let n = n as i64;
    let nn = nn as i64;
    if n <= nn / 2 {
        n
    } else {
        n - nn
    }
}

/// Build the influence function grid for splitting parameter `alpha`,
/// B-spline order `p`, grid dims `n`, box lengths `box_l`.
pub fn influence(n: [usize; 3], box_l: V3, alpha: f64, p: usize) -> Grid3 {
    // Per-axis Euler factors.
    let b = |nn: usize| -> Vec<f64> { (0..nn).map(|i| euler_factor_sq(p, i, nn)).collect() };
    lattice(n, box_l, alpha, [b(n[0]), b(n[1]), b(n[2])])
}

/// [`influence`] for a PSWF-windowed mesh: the per-axis B-spline Euler
/// factor is replaced by `1/ŵ(θ)²` with `ŵ` the continuous Fourier
/// transform of the window at `θ = 2π ñ/N` rad per grid unit (`ñ` the
/// signed alias — `ŵ` is aperiodic, so the in-band branch is the right
/// one). Everything else — Gaussian screen, tinfoil `G̃_0 = 0`,
/// `N_tot`/volume normalisation — is identical, so the windowed mesh
/// drops into the same [`apply_influence_into`] pipeline.
///
/// Modes the window cannot resolve (`ŵ(θ)² < 10⁻²⁴·ŵ(0)²`, beyond the
/// evanescent tail) are dropped rather than amplified: their Gaussian
/// weight is negligible for any sane `α`/grid pairing, while dividing by
/// a denormal would blow aliasing noise up into the result.
pub fn influence_windowed(n: [usize; 3], box_l: V3, alpha: f64, window: &PswfWindow) -> Grid3 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let floor = 1e-24 * window.fourier(0.0).powi(2);
    // Per-axis deconvolution factors 1/ŵ(θ)², or 0 for unresolvable modes.
    let factors = |nn: usize| -> Vec<f64> {
        (0..nn)
            .map(|i| {
                let theta = two_pi * signed_freq(i, nn) as f64 / nn as f64;
                let wsq = window.fourier(theta).powi(2);
                if wsq < floor {
                    0.0
                } else {
                    1.0 / wsq
                }
            })
            .collect()
    };
    lattice(
        n,
        box_l,
        alpha,
        [factors(n[0]), factors(n[1]), factors(n[2])],
    )
}

/// The Green-function lattice both meshes share: the Gaussian screen
/// and `N_tot`/volume normalisation times the per-axis deconvolution
/// factors `[bx, by, bz]`, with `G̃_0 = 0`.
#[allow(clippy::needless_range_loop)] // ix/iy/iz index grid coords and factor tables together
fn lattice(n: [usize; 3], box_l: V3, alpha: f64, [bx, by, bz]: [Vec<f64>; 3]) -> Grid3 {
    let ntot = (n[0] * n[1] * n[2]) as f64;
    let vol = box_l[0] * box_l[1] * box_l[2];
    let mut g = Grid3::zeros(n);
    let pi = std::f64::consts::PI;
    for ix in 0..n[0] {
        let mx = signed_freq(ix, n[0]) as f64 / box_l[0];
        for iy in 0..n[1] {
            let my = signed_freq(iy, n[1]) as f64 / box_l[1];
            for iz in 0..n[2] {
                if (ix, iy, iz) == (0, 0, 0) {
                    continue; // tinfoil boundary: drop the k = 0 mode
                }
                let mz = signed_freq(iz, n[2]) as f64 / box_l[2];
                let m2 = mx * mx + my * my + mz * mz;
                let expo = -pi * pi * m2 / (alpha * alpha);
                // exp(−π²m̄²/α²) underflows harmlessly; skip the work.
                let val = if expo < -700.0 {
                    0.0
                } else {
                    ntot * expo.exp() / (pi * vol * m2) * bx[ix] * by[iy] * bz[iz]
                };
                g.set([ix as i64, iy as i64, iz as i64], val);
            }
        }
    }
    g
}

/// Apply an influence function: `Φ = IFFT(G̃ ⊙ FFT(Q))` — the shared
/// FFT-convolution step of SPME (steps ii–iv) and the TME top level
/// (§IV.C steps 1–3). Runs on the real half spectrum (grid charges are
/// real, the multiplier is real and symmetric), writing the grid
/// potential into `phi` using caller-provided spectrum
/// (`fft.spectrum_len()`) and FFT scratch (`fft.scratch_len()`) buffers —
/// no heap allocation.
pub fn apply_influence_into(
    fft: &RealFft3,
    influence: &Grid3,
    q: &Grid3,
    phi: &mut Grid3,
    spec: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let n = q.dims();
    assert_eq!(n, influence.dims());
    assert_eq!(n, phi.dims());
    assert_eq!((fft.nx, fft.ny, fft.nz), (n[0], n[1], n[2]));
    assert_eq!(spec.len(), fft.spectrum_len());
    let mz = n[2] / 2 + 1;
    fft.forward_with(q.as_slice(), spec, scratch);
    for ix in 0..n[0] {
        for iy in 0..n[1] {
            let row = (ix * n[1] + iy) * mz;
            for iz in 0..mz {
                let g = influence.get([ix as i64, iy as i64, iz as i64]);
                spec[row + iz] = spec[row + iz].scale(g);
            }
        }
    }
    fft.inverse_with(spec, phi.as_mut_slice(), scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_num::fft::Fft3;

    fn apply_influence(fft: &RealFft3, influence: &Grid3, q: &Grid3) -> Grid3 {
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
        let mut phi = Grid3::zeros(q.dims());
        apply_influence_into(fft, influence, q, &mut phi, &mut spec, &mut scratch);
        phi
    }

    /// The full-complex-spectrum reference the half-spectrum path is
    /// tested against.
    fn apply_influence_complex(fft: &Fft3, influence: &Grid3, q: &Grid3) -> Grid3 {
        let mut buf: Vec<Complex64> = q
            .as_slice()
            .iter()
            .map(|&v| Complex64::new(v, 0.0))
            .collect();
        fft.forward(&mut buf);
        for (z, &g) in buf.iter_mut().zip(influence.as_slice()) {
            *z = z.scale(g);
        }
        fft.inverse(&mut buf);
        let mut phi = Grid3::zeros(q.dims());
        phi.set_from_complex(&buf);
        phi
    }

    #[test]
    fn half_spectrum_path_matches_complex_path() {
        let n = [8usize, 4, 16];
        let g = influence(n, [3.0, 2.0, 5.0], 1.8, 6);
        let rfft = RealFft3::new(n[0], n[1], n[2]);
        let cfft = Fft3::new(n[0], n[1], n[2]);
        let mut q = Grid3::zeros(n);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 11 % 29) as f64 - 14.0) * 0.07;
        }
        let fast = apply_influence(&rfft, &g, &q);
        let slow = apply_influence_complex(&cfft, &g, &q);
        for ((_, a), (_, b)) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_influence_is_linear_and_symmetric() {
        let n = [8usize, 8, 8];
        let g = influence(n, [4.0; 3], 2.0, 6);
        let fft = RealFft3::new(8, 8, 8);
        let mut a = Grid3::zeros(n);
        let mut b = Grid3::zeros(n);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 7 % 13) as f64) - 6.0;
        }
        b.set([2, 3, 4], 1.5);
        // Linearity.
        let mut ab = a.clone();
        ab.accumulate(&b);
        let mut sum = apply_influence(&fft, &g, &a);
        sum.accumulate(&apply_influence(&fft, &g, &b));
        for ((_, x), (_, y)) in apply_influence(&fft, &g, &ab).iter().zip(sum.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
        // Self-adjointness (real symmetric multiplier).
        let lhs = apply_influence(&fft, &g, &a).dot(&b);
        let rhs = a.dot(&apply_influence(&fft, &g, &b));
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn origin_is_zero_and_rest_positive() {
        let g = influence([8, 8, 8], [4.0, 4.0, 4.0], 2.0, 6);
        assert_eq!(g.get([0, 0, 0]), 0.0);
        for (m, v) in g.iter() {
            if m != [0, 0, 0] {
                assert!(v > 0.0, "influence must be positive at {m:?}");
            }
        }
    }

    #[test]
    fn hermitian_symmetry() {
        // Real-space kernel ⇒ G̃_n = G̃_{N−n}.
        let n = [8usize, 4, 16];
        let g = influence(n, [3.0, 2.0, 5.0], 1.5, 4);
        for (m, v) in g.iter() {
            let mirror = [
                (n[0] - m[0]) % n[0],
                (n[1] - m[1]) % n[1],
                (n[2] - m[2]) % n[2],
            ];
            let w = g.get([mirror[0] as i64, mirror[1] as i64, mirror[2] as i64]);
            assert!((v - w).abs() < 1e-15 * (1.0 + v.abs()), "at {m:?}");
        }
    }

    #[test]
    fn decays_with_frequency() {
        let g = influence([16, 16, 16], [4.0, 4.0, 4.0], 1.5, 6);
        // Along one axis the Gaussian factor must make values decay.
        let v1 = g.get([1, 0, 0]);
        let v4 = g.get([4, 0, 0]);
        let v8 = g.get([8, 0, 0]);
        assert!(v1 > v4 && v4 > v8);
    }

    #[test]
    fn signed_alias() {
        assert_eq!(signed_freq(0, 8), 0);
        assert_eq!(signed_freq(4, 8), 4);
        assert_eq!(signed_freq(5, 8), -3);
        assert_eq!(signed_freq(7, 8), -1);
    }

    #[test]
    fn euler_factor_is_one_at_dc() {
        // At n = 0 the denominator is Σ M_p(k+1) = 1 (partition of unity at
        // integers), so B = 1.
        for p in [4usize, 6, 8] {
            let b = euler_factor_sq(p, 0, 32);
            assert!((b - 1.0).abs() < 1e-12, "p={p}: {b}");
        }
    }
}
