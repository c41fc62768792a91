//! Top-level convolution: SPME with rescaled α on the coarsest grid
//! (paper §III.A末 and §IV.C).
//!
//! After `L` restrictions the remaining potential is `g_{α/2^L,L}(r)` on
//! the `N/2^L` grid. Because restriction is exact, the top-level grid
//! charges are *identical* to a direct order-`p` assignment on the coarse
//! grid, so the standard SPME influence function `K̃^{α/2^L, L, N/2^L}`
//! applies unchanged:
//!
//! 1. `Q̂ = FFT(Q^{L+1})`
//! 2. `Φ̂_n = K̃_n Q̂_n`
//! 3. `Φ^{L+1} = IFFT(Φ̂)`
//!
//! On MDGRAPE-4A these three steps run on the root FPGA (four CFFT16
//! units, 330 cycles @ 156.25 MHz = 2.112 µs for 16³); here they run
//! through [`tme_num::fft::Fft3`]. An optional single-precision mode
//! mirrors the FPGA's f32 datapath.

use tme_mesh::{greens, Grid3};
use tme_num::fft::{Fft3, RealFft3};
use tme_num::vec3::V3;
use tme_num::Complex64;

/// Reusable spectrum and FFT line scratch for [`TopLevel::solve_into`],
/// sized by [`TopLevel::make_scratch`].
#[derive(Clone, Debug)]
pub struct TopScratch {
    /// Half-spectrum buffer (double-precision path).
    spec: Vec<Complex64>,
    /// 1-D FFT line scratch, sized for both transform kinds.
    line: Vec<Complex64>,
    /// Full complex grid buffer (single-precision FPGA-emulation path).
    cbuf: Vec<Complex64>,
}

/// The FFT-based top-level grid-potential solver.
#[derive(Clone, Debug)]
pub struct TopLevel {
    influence: Grid3,
    rfft: RealFft3,
    fft: Fft3,
    /// Emulate the FPGA's single-precision datapath by rounding the grid
    /// data and spectrum through f32.
    pub single_precision: bool,
}

impl TopLevel {
    /// `n` is the *top-level* grid (e.g. 16³), `alpha_top = α/2^L`.
    pub fn new(n: [usize; 3], box_l: V3, alpha_top: f64, p: usize) -> Self {
        assert!(
            n.iter().all(|&d| d >= p),
            "top grid {n:?} smaller than spline order {p}: interpolation would self-overlap"
        );
        Self {
            influence: greens::influence(n, box_l, alpha_top, p),
            rfft: RealFft3::new(n[0], n[1], n[2]),
            fft: Fft3::new(n[0], n[1], n[2]),
            single_precision: false,
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.influence.dims()
    }

    /// Allocate scratch sized for this solver (covers both precision paths).
    #[must_use]
    pub fn make_scratch(&self) -> TopScratch {
        let n = self.dims();
        TopScratch {
            spec: vec![Complex64::ZERO; self.rfft.spectrum_len()],
            line: vec![Complex64::ZERO; self.rfft.scratch_len().max(self.fft.scratch_len())],
            cbuf: vec![Complex64::ZERO; n[0] * n[1] * n[2]],
        }
    }

    /// Solve grid charges → grid potentials (steps 1–3).
    pub fn solve(&self, q: &Grid3) -> Grid3 {
        let mut scratch = self.make_scratch();
        let mut phi = Grid3::zeros(q.dims());
        self.solve_into(q, &mut phi, &mut scratch);
        phi
    }

    /// [`Self::solve`] into a reused output grid with reused scratch (from
    /// [`Self::make_scratch`]) — no heap allocation.
    pub fn solve_into(&self, q: &Grid3, phi: &mut Grid3, scratch: &mut TopScratch) {
        assert_eq!(q.dims(), self.influence.dims());
        assert_eq!(phi.dims(), self.influence.dims());
        if !self.single_precision {
            greens::apply_influence_into(
                &self.rfft,
                &self.influence,
                q,
                phi,
                &mut scratch.spec,
                &mut scratch.line,
            );
            return;
        }
        // FPGA emulation: narrow the data and the spectrum through f32,
        // as the single-precision DSP datapath does.
        let buf = &mut scratch.cbuf;
        for (z, &v) in buf.iter_mut().zip(q.as_slice()) {
            *z = Complex64 { re: v, im: 0.0 };
            *z = z.to_c32().to_c64();
        }
        self.fft.forward_with(buf, &mut scratch.line);
        for (z, &g) in buf.iter_mut().zip(self.influence.as_slice()) {
            *z = z.scale(g);
        }
        for z in &mut *buf {
            *z = z.to_c32().to_c64();
        }
        self.fft.inverse_with(buf, &mut scratch.line);
        phi.set_from_complex(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge_grid(n: [usize; 3]) -> Grid3 {
        let mut q = Grid3::zeros(n);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 19 % 41) as f64 - 20.0) * 0.05;
        }
        // Neutralise.
        let mean = q.sum() / q.len() as f64;
        for v in q.as_mut_slice() {
            *v -= mean;
        }
        q
    }

    #[test]
    fn solve_is_linear_and_symmetric() {
        let top = TopLevel::new([16; 3], [5.0; 3], 1.1, 6);
        let a = charge_grid([16; 3]);
        let b = {
            let mut g = Grid3::zeros([16; 3]);
            g.set([3, 7, 11], 1.0);
            g.set([0, 0, 1], -1.0);
            g
        };
        // Linearity.
        let mut ab = a.clone();
        ab.accumulate(&b);
        let mut sum = top.solve(&a);
        sum.accumulate(&top.solve(&b));
        for ((_, x), (_, y)) in top.solve(&ab).iter().zip(sum.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
        // Self-adjointness: ⟨solve(a), b⟩ = ⟨a, solve(b)⟩.
        let lhs = top.solve(&a).dot(&b);
        let rhs = a.dot(&top.solve(&b));
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn neutral_charge_energy_is_positive() {
        // The influence function is positive semi-definite, so reciprocal
        // energy of any non-zero neutral charge grid is positive.
        let top = TopLevel::new([16; 3], [5.0; 3], 1.1, 6);
        let q = charge_grid([16; 3]);
        assert!(0.5 * q.dot(&top.solve(&q)) > 0.0);
    }

    #[test]
    fn potential_of_point_charge_decays_from_source() {
        let top = TopLevel::new([32; 3], [10.0; 3], 0.9, 6);
        let mut q = Grid3::zeros([32; 3]);
        q.set([16, 16, 16], 1.0);
        let phi = top.solve(&q);
        let p0 = phi.get([16, 16, 16]);
        let p4 = phi.get([20, 16, 16]);
        let p8 = phi.get([24, 16, 16]);
        assert!(p0 > p4 && p4 > p8, "{p0} {p4} {p8}");
    }

    #[test]
    fn single_precision_close_to_double() {
        let mut top = TopLevel::new([16; 3], [5.0; 3], 1.2, 6);
        let q = charge_grid([16; 3]);
        let full = top.solve(&q);
        top.single_precision = true;
        let narrow = top.solve(&q);
        let scale = full.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for ((_, a), (_, b)) in full.iter().zip(narrow.iter()) {
            assert!((a - b).abs() < 1e-5 * scale, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than spline order")]
    fn tiny_top_grid_rejected() {
        let _ = TopLevel::new([4, 16, 16], [5.0; 3], 1.0, 6);
    }
}
