//! §III.C cost formulas: B-spline MSM's direct convolution against the
//! TME's separable passes.
//!
//! In B-spline MSM (Hardy et al. 2016) the level-`l` grid potential is the
//! direct 3-D convolution of the grid charges with a range-limited grid
//! kernel: `Φ_n = Σ_{|m−n|∞ ≤ g_c} K_{n−m} Q_m` — `(2g_c+1)³` multiply-adds
//! per grid point. The TME's §III.C cost analysis compares exactly this
//! against its separable evaluation (`(2g_c+1)·M` per point per axis);
//! this module carries the paper's cost formulas (the dense-shell cascade
//! itself is `tme_core::msm`; its convolution is `tme_mesh::dense`).

/// Multiply-add count of the direct convolution over an `n` grid —
/// the `(2g_c+1)³ (N_x/P_x)³` term of §III.C (per processor, with
/// `(N_x/P_x)³` local points).
pub fn direct_op_count(local_points: u64, gc: u64) -> u64 {
    let w = 2 * gc + 1;
    local_points * w * w * w
}

/// Multiply-add count of the separable evaluation: `(2g_c+1)·M` per point
/// and axis — the `(2g_c+1)(N_x/P_x)³·3M` form of §III.C (the paper quotes
/// the per-axis factor; we count all three axis passes).
pub fn separable_op_count(local_points: u64, gc: u64, m_gaussians: u64) -> u64 {
    3 * (2 * gc + 1) * local_points * m_gaussians
}

/// §III.C communication estimates (grid words exchanged per processor) for
/// the level-1 convolution: MSM needs a full halo of depth `g_c`
/// (`(8 + 12γ + 6γ²)g_c³` with `γ = (N_x/P_x)/g_c`), the TME only axis-wise
/// sleeves per Gaussian term (`(2 + 4M)γ²g_c³`).
pub fn msm_comm_words(gamma: f64, gc: u64) -> f64 {
    (8.0 + 12.0 * gamma + 6.0 * gamma * gamma) * (gc * gc * gc) as f64
}

/// See [`msm_comm_words`].
pub fn tme_comm_words(gamma: f64, gc: u64, m_gaussians: u64) -> f64 {
    (2.0 + 4.0 * m_gaussians as f64) * gamma * gamma * (gc * gc * gc) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_mesh::dense::{convolve_direct, DenseKernel};
    use tme_mesh::Grid3;

    #[test]
    fn impulse_reproduces_kernel() {
        let gc = 2;
        let kernel = DenseKernel::from_fn(gc, |m| {
            (-0.3 * (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]) as f64).exp()
        });
        let mut q = Grid3::zeros([8, 8, 8]);
        q.set([4, 4, 4], 1.0);
        let phi = convolve_direct(&kernel, &q);
        for mx in -2i64..=2 {
            for my in -2i64..=2 {
                for mz in -2i64..=2 {
                    let got = phi.get([4 + mx, 4 + my, 4 + mz]);
                    let want = kernel.get([mx, my, mz]);
                    assert!((got - want).abs() < 1e-14);
                }
            }
        }
        // Outside the kernel range the response is zero.
        assert_eq!(phi.get([0, 0, 0]), 0.0);
    }

    #[test]
    fn convolution_is_linear() {
        let gc = 1;
        let kernel = DenseKernel::from_fn(gc, |m| {
            1.0 / (1.0 + m.iter().map(|c| c.abs()).sum::<i64>() as f64)
        });
        let mut a = Grid3::zeros([4, 4, 4]);
        let mut b = Grid3::zeros([4, 4, 4]);
        a.set([1, 2, 3], 2.0);
        b.set([0, 0, 1], -1.5);
        let mut ab = a.clone();
        ab.accumulate(&b);
        let pa = convolve_direct(&kernel, &a);
        let pb = convolve_direct(&kernel, &b);
        let pab = convolve_direct(&kernel, &ab);
        for ((&x, &y), &z) in pa.as_slice().iter().zip(pb.as_slice()).zip(pab.as_slice()) {
            assert!((x + y - z).abs() < 1e-13);
        }
    }

    #[test]
    fn op_counts_match_paper_formulas() {
        // §III.C with N_x/P_x = 4, g_c = 8, M = 4:
        let local = 4u64 * 4 * 4;
        assert_eq!(direct_op_count(local, 8), 64 * 17 * 17 * 17);
        assert_eq!(separable_op_count(local, 8, 4), 3 * 17 * 64 * 4);
        // TME does fewer operations in this regime.
        assert!(separable_op_count(local, 8, 4) < direct_op_count(local, 8));
    }

    #[test]
    fn comm_model_favors_tme_at_paper_parameters() {
        // γ = 0.5 or 1, g_c = 8, M = 4 (paper's MDGRAPE-4A settings).
        for &gamma in &[0.5, 1.0] {
            let msm = msm_comm_words(gamma, 8);
            let tme = tme_comm_words(gamma, 8, 4);
            assert!(tme < msm, "γ={gamma}: TME {tme} !< MSM {msm}");
        }
    }
}
