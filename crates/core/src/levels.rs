//! Restriction and prolongation between grid levels (paper Fig. 2(e)/(f)).
//!
//! The two-scale relation `M_p(x) = Σ_m J_m M_p(2x − m)` makes the
//! inter-level transfers *exact*:
//!
//! * **restriction** (level `l` charges → level `l+1` charges): axis-wise
//!   convolution with `J` followed by down-sampling,
//!   `Q^{l+1}_m = Σ_k J_k Q^l_{2m+k}` per axis;
//! * **prolongation** (level `l+1` potentials → level `l` potentials):
//!   up-sampling followed by convolution with `J`,
//!   `Φ^l_n += Σ_m J_{n−2m} Φ^{l+1}_m` per axis — the exact adjoint.
//!
//! Because `J` has only `p+1` taps and the passes are axis-wise, the
//! hardware runs both on the GCU with low communication cost (§III.A).

use crate::rows::{accumulate_rows, along, next_around, Ring};
use tme_mesh::{BSpline, Grid3};

/// Reusable axis-pass intermediates for one restrict/prolong pair between a
/// `fine` grid and its halved coarse partner — allocated once at plan time
/// so the execute path never touches the heap. Both directions step
/// through the same two sizes (a restriction and a prolongation never run
/// at once), so they share the storage.
#[derive(Clone, Debug)]
pub struct TransferScratch {
    /// Half the fine grid: restricted on x (`[f0/2, f1, f2]`), or prolonged
    /// on x and y (`[f0, f1, f2/2]`).
    half: Vec<f64>,
    /// A quarter: restricted on x and y (`[f0/2, f1/2, f2]`), or prolonged
    /// on x (`[f0, f1/2, f2/2]`).
    quarter: Vec<f64>,
}

impl TransferScratch {
    /// Scratch for transfers whose *fine* side has dims `fine` (all even).
    #[must_use]
    pub fn for_fine_dims(fine: [usize; 3]) -> Self {
        let points: usize = fine.iter().product();
        Self {
            half: vec![0.0; points / 2],
            quarter: vec![0.0; points / 4],
        }
    }
}

/// Restriction/prolongation operator for spline order `p`.
#[derive(Clone, Debug)]
pub struct LevelTransfer {
    /// Two-scale coefficients `J_m`, index `m + p/2`.
    j: Vec<f64>,
    half: i64,
}

impl LevelTransfer {
    pub fn new(p: usize) -> Self {
        let j = BSpline::new(p).two_scale();
        let half = p as i64 / 2;
        Self { j, half }
    }

    /// Fine index `2m − p/2` on a periodic axis of `fine` points: where the
    /// stencil of coarse point `m` starts.
    fn stencil_start(&self, m: usize, fine: usize) -> usize {
        (2 * m as i64 - self.half).rem_euclid(fine as i64) as usize
    }

    /// One axis of restriction: halve `axis` of the row-major grid `src` of
    /// dims `n`, `out_m = Σ_k J_k in_{2m+k}` — on x and y a sum of whole
    /// input rows per output row, taps ascending. Returns the dims of `dst`.
    fn restrict_axis(
        &self,
        src: &[f64],
        n: [usize; 3],
        axis: usize,
        dst: &mut [f64],
    ) -> [usize; 3] {
        assert!(
            n[axis].is_multiple_of(2),
            "axis {axis} length {} not even",
            n[axis]
        );
        assert_eq!(dst.len(), src.len() / 2, "restriction output size mismatch");
        let (fine, width) = along(n, axis);
        let slabs = src.chunks_exact(fine * width);
        for (src, dst) in slabs.zip(dst.chunks_exact_mut(fine / 2 * width)) {
            if width == 1 {
                for (m, o) in dst.iter_mut().enumerate() {
                    let mut r = self.stencil_start(m, fine);
                    let mut acc = 0.0;
                    for &j in &self.j {
                        acc += j * src[r];
                        r = next_around(r, fine);
                    }
                    *o = acc;
                }
                continue;
            }
            dst.fill(0.0);
            for (m, row) in dst.chunks_exact_mut(width).enumerate() {
                let ring = Ring {
                    src,
                    stride: width,
                    n: fine,
                    first: self.stencil_start(m, fine),
                    up: true,
                };
                accumulate_rows(row, &self.j, ring);
            }
        }
        let mut out_dims = n;
        out_dims[axis] /= 2;
        out_dims
    }

    /// One axis of prolongation: double `axis` of the row-major grid `src`
    /// of dims `n`, `out_n = Σ_m J_{n−2m} in_m`, scattered in ascending
    /// coarse index `m` (then ascending `n`) so each output collects its
    /// terms in a fixed order — on x and y one whole input row onto `p + 1`
    /// output rows. Returns the dims of `dst`.
    fn prolong_axis(&self, src: &[f64], n: [usize; 3], axis: usize, dst: &mut [f64]) -> [usize; 3] {
        assert_eq!(
            dst.len(),
            src.len() * 2,
            "prolongation output size mismatch"
        );
        dst.fill(0.0);
        let (coarse, width) = along(n, axis);
        let fine = 2 * coarse;
        let slabs = src.chunks_exact(coarse * width);
        for (src, dst) in slabs.zip(dst.chunks_exact_mut(fine * width)) {
            for (m, row) in src.chunks_exact(width).enumerate() {
                let mut r = self.stencil_start(m, fine);
                for j in &self.j {
                    let onto = &mut dst[r * width..][..width];
                    if width == 1 {
                        onto[0] += j * row[0];
                    } else {
                        accumulate_rows(onto, std::slice::from_ref(j), Ring::single(row));
                    }
                    r = next_around(r, fine);
                }
            }
        }
        let mut out_dims = n;
        out_dims[axis] *= 2;
        out_dims
    }

    /// Full 3-D restriction (all dims halved).
    ///
    /// Debug builds assert charge conservation: the two-scale partition
    /// `Σ_k J_{2k} = Σ_k J_{2k+1} = 1` means every fine charge lands on the
    /// coarse grid exactly once, so `Σ Q^{l+1} = Σ Q^l` up to rounding.
    pub fn restrict(&self, grid: &Grid3) -> Grid3 {
        let n = grid.dims();
        let mut scratch = TransferScratch::for_fine_dims(n);
        let mut out = Grid3::zeros([n[0] / 2, n[1] / 2, n[2] / 2]);
        self.restrict_into(grid, &mut out, &mut scratch);
        out
    }

    /// [`Self::restrict`] into a reused output grid with reused axis-pass
    /// scratch (from [`TransferScratch::for_fine_dims`] of `grid.dims()`) —
    /// no heap allocation.
    pub fn restrict_into(&self, grid: &Grid3, out: &mut Grid3, scratch: &mut TransferScratch) {
        let TransferScratch { half, quarter } = scratch;
        let n = self.restrict_axis(grid.as_slice(), grid.dims(), 0, half);
        let n = self.restrict_axis(half, n, 1, quarter);
        let n = self.restrict_axis(quarter, n, 2, out.as_mut_slice());
        assert_eq!(out.dims(), n, "restriction output dims mismatch");
        debug_assert!(
            (out.sum() - grid.sum()).abs() <= 1e-9 * abs_sum(grid).max(1.0),
            "restriction lost charge: Σ fine = {}, Σ coarse = {}",
            grid.sum(),
            out.sum()
        );
    }

    /// Full 3-D prolongation (all dims doubled).
    ///
    /// Debug builds assert the adjoint conservation law: `Σ_m J_m = 2` per
    /// axis (the two-scale relation preserves the spline's unit integral on
    /// the half-spaced grid), so the 3-D total scales by exactly 8.
    pub fn prolong(&self, grid: &Grid3) -> Grid3 {
        let n = grid.dims();
        let fine = [n[0] * 2, n[1] * 2, n[2] * 2];
        let mut scratch = TransferScratch::for_fine_dims(fine);
        let mut out = Grid3::zeros(fine);
        self.prolong_into(grid, &mut out, &mut scratch);
        out
    }

    /// [`Self::prolong`] into a reused output grid with reused axis-pass
    /// scratch (from [`TransferScratch::for_fine_dims`] of the *doubled*
    /// dims) — no heap allocation.
    pub fn prolong_into(&self, grid: &Grid3, out: &mut Grid3, scratch: &mut TransferScratch) {
        let TransferScratch { half, quarter } = scratch;
        let n = self.prolong_axis(grid.as_slice(), grid.dims(), 0, quarter);
        let n = self.prolong_axis(quarter, n, 1, half);
        let n = self.prolong_axis(half, n, 2, out.as_mut_slice());
        assert_eq!(out.dims(), n, "prolongation output dims mismatch");
        debug_assert!(
            (out.sum() - 8.0 * grid.sum()).abs() <= 1e-9 * abs_sum(grid).max(1.0),
            "prolongation broke the Σ J = 2 scaling: Σ coarse = {}, Σ fine = {}",
            grid.sum(),
            out.sum()
        );
    }
}

/// `Σ |v|` — the conservation asserts scale their tolerance by this so a
/// grid whose *signed* sum cancels to ~0 still gets a meaningful bound.
fn abs_sum(grid: &Grid3) -> f64 {
    grid.as_slice().iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::testing::{assert_bitwise, grid_with_zeros};
    use tme_mesh::SplineOps;

    impl LevelTransfer {
        fn j(&self, k: i64) -> f64 {
            self.j[(k + self.half) as usize]
        }

        /// Reference restriction the row passes are held to, bit for bit:
        /// direct periodic indexing per tap (slow, obviously correct).
        fn restrict_axis_naive(&self, grid: &Grid3, axis: usize) -> Grid3 {
            let mut out_dims = grid.dims();
            out_dims[axis] /= 2;
            let mut out = Grid3::zeros(out_dims);
            for x in 0..out_dims[0] as i64 {
                for y in 0..out_dims[1] as i64 {
                    for z in 0..out_dims[2] as i64 {
                        let mut acc = 0.0;
                        for k in -self.half..=self.half {
                            let mut src = [x, y, z];
                            src[axis] = 2 * src[axis] + k;
                            acc += self.j(k) * grid.get(src);
                        }
                        out.set([x, y, z], acc);
                    }
                }
            }
            out
        }

        /// Reference prolongation: one periodic scatter per input point in
        /// row-major order, zero inputs skipped.
        fn prolong_axis_naive(&self, grid: &Grid3, axis: usize) -> Grid3 {
            let mut out_dims = grid.dims();
            out_dims[axis] *= 2;
            let mut out = Grid3::zeros(out_dims);
            for (c, v) in grid.iter() {
                if v == 0.0 {
                    continue;
                }
                for k in -self.half..=self.half {
                    let mut dst = [c[0] as i64, c[1] as i64, c[2] as i64];
                    dst[axis] = 2 * dst[axis] + k;
                    out.add(dst, self.j(k) * v);
                }
            }
            out
        }
    }

    /// Every axis of both transfers against the point-by-point references,
    /// bit for bit: non-cubic grids with a non-power-of-two axis, and a
    /// 4-point axis that the p = 8 stencil (9 taps) laps.
    #[test]
    fn row_passes_match_naive_bitwise_on_all_axes() {
        for p in [4, 6, 8] {
            let t = LevelTransfer::new(p);
            for dims in [[16, 12, 20], [4, 6, 4]] {
                let g = grid_with_zeros(dims, 31 + p as u64);
                for axis in 0..3 {
                    let what = format!("p {p} dims {dims:?} axis {axis}");
                    let mut halved = dims;
                    halved[axis] /= 2;
                    let mut fast = Grid3::zeros(halved);
                    fast.fill(f64::NAN);
                    t.restrict_axis(g.as_slice(), dims, axis, fast.as_mut_slice());
                    let slow = t.restrict_axis_naive(&g, axis);
                    assert_bitwise(&fast, &slow, &format!("restrict {what}"));

                    let mut doubled = dims;
                    doubled[axis] *= 2;
                    let mut fast = Grid3::zeros(doubled);
                    fast.fill(f64::NAN);
                    t.prolong_axis(g.as_slice(), dims, axis, fast.as_mut_slice());
                    let slow = t.prolong_axis_naive(&g, axis);
                    assert_bitwise(&fast, &slow, &format!("prolong {what}"));
                }
            }
        }
    }

    #[test]
    fn restriction_conserves_total_charge() {
        // Σ_m J_{even} = Σ_m J_{odd} = 1, so each fine charge contributes
        // exactly once per axis.
        let t = LevelTransfer::new(6);
        let mut g = Grid3::zeros([8, 8, 8]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13 % 23) as f64 - 11.0) * 0.37;
        }
        let r = t.restrict(&g);
        assert_eq!(r.dims(), [4, 4, 4]);
        assert!((r.sum() - g.sum()).abs() < 1e-11);
    }

    #[test]
    fn restrict_prolong_are_adjoint() {
        // ⟨restrict(A), B⟩ = ⟨A, prolong(B)⟩ for all grids.
        let t = LevelTransfer::new(4);
        let mut a = Grid3::zeros([8, 8, 8]);
        let mut b = Grid3::zeros([4, 4, 4]);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 7 % 31) as f64) * 0.1 - 1.0;
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 11 % 13) as f64) * 0.2 - 1.0;
        }
        let lhs = t.restrict(&a).dot(&b);
        let rhs = a.dot(&t.prolong(&b));
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// The paper's exactness claim: assigning charges on the fine grid and
    /// restricting equals assigning directly on the coarse grid (same p).
    #[test]
    fn restriction_equals_direct_coarse_assignment() {
        let box_l = [4.0, 4.0, 4.0];
        let p = 6;
        let fine = SplineOps::new(p, [16, 16, 16], box_l);
        let coarse = SplineOps::new(p, [8, 8, 8], box_l);
        let pos = vec![
            [0.123, 3.456, 2.001],
            [1.999, 0.001, 3.777],
            [2.5, 2.5, 2.5],
            [3.9, 0.2, 1.3],
        ];
        let q = vec![1.0, -0.75, 0.5, -0.75];
        let qf = fine.assign(&pos, &q);
        let restricted = LevelTransfer::new(p).restrict(&qf);
        let qc = coarse.assign(&pos, &q);
        for ((_, a), (_, b)) in restricted.iter().zip(qc.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// Dual exactness: interpolating a coarse potential at an atom equals
    /// prolonging it to the fine grid first and interpolating there.
    #[test]
    fn prolongation_equals_direct_coarse_interpolation() {
        let box_l = [4.0, 4.0, 4.0];
        let p = 6;
        let fine = SplineOps::new(p, [16, 16, 16], box_l);
        let coarse = SplineOps::new(p, [8, 8, 8], box_l);
        let mut phi_c = Grid3::zeros([8, 8, 8]);
        for (i, v) in phi_c.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 3 % 17) as f64 - 8.0) * 0.21;
        }
        let phi_f = LevelTransfer::new(p).prolong(&phi_c);
        for &r in &[[0.3, 1.7, 2.9], [3.99, 0.0, 1.5], [2.0, 2.0, 2.0]] {
            let direct = coarse.potential_at(&phi_c, r);
            let via_fine = fine.potential_at(&phi_f, r);
            assert!((direct - via_fine).abs() < 1e-12, "{direct} vs {via_fine}");
        }
    }

    #[test]
    fn prolong_then_restrict_preserves_constants() {
        // A constant grid must survive the round trip (Σ J even = Σ J odd = 1,
        // restrict(prolong(const)) rescales by Σ_k J_k² sums... verify the
        // simpler invariant: prolong of constant is constant).
        let t = LevelTransfer::new(6);
        let mut c = Grid3::zeros([4, 4, 4]);
        c.fill(2.0);
        let p = t.prolong(&c);
        for (_, v) in p.iter() {
            assert!((v - 2.0).abs() < 1e-13, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "not even")]
    fn odd_axis_cannot_restrict() {
        let t = LevelTransfer::new(4);
        let g = Grid3::zeros([6, 7, 8]);
        let _ = t.restrict(&g);
    }
}
