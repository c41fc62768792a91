//! B-spline multilevel summation method (MSM) — the baseline the TME was
//! designed to beat (paper §III.C; Hardy et al. 2016).
//!
//! Same multilevel structure as the TME (identical Ewald shell splitting,
//! identical B-spline anterpolation/interpolation and two-scale
//! restriction/prolongation — the paper notes these are *shared* between
//! B-spline MSM and TME), but the level-`l` grid kernel is the **exact**
//! shell quasi-interpolated onto the grid and applied by **direct 3-D
//! range-limited convolution**, `(2g_c+1)³` multiply-adds per point:
//!
//! ```text
//! K_m = (ω' ⊛ ω' ⊛ ω' ⊛ S)_m,   S_m = g_{α,1}(h·|m|)        (dense, rank-full)
//! ```
//!
//! versus TME's rank-`M` separable factorisation. Because the kernel here
//! is built from the exact shell (no Gaussian quadrature), MSM has no `M`
//! error term — it trades that for the `(2g_c+1)³/((2g_c+1)·3M)` compute
//! blow-up and the full-halo communication §III.C quantifies.
//!
//! That kernel is all this module adds: an MSM plan *is* a [`Tme`] whose
//! level kernel is dense, so workspace, cascade, stage timings, statistics
//! and the checked entry points are the TME's own. It is the §III.C
//! ablation, not a served backend: `cost_model` and the paper-claims
//! suite plan it through [`try_plan`].

use crate::errors::TmeConfigError;
use crate::shells::shell_exact;
use crate::solver::{LevelKernel, Tme, TmeParams};
use tme_mesh::bspline::BSpline;
use tme_mesh::dense::DenseKernel;
use tme_num::vec3::V3;

/// Dense level-1 grid kernel for the exact shell: quasi-interpolation of
/// the sampled shell with ω' along each axis, truncated at `g_c`.
pub fn dense_shell_kernel(alpha: f64, h: V3, p: usize, gc: usize) -> DenseKernel {
    let omega2 = BSpline::new(p).omega2(1e-11);
    let w = omega2.half();
    // Each axis is convolved with ω' exactly once, so the valid output
    // cube |m|∞ ≤ g_c needs samples out to g_c + w on every axis.
    let ext = gc as i64 + w;
    let side = (2 * ext + 1) as usize;
    // S_m = g_{α,1}(h·|m|) on the extended cube.
    let idx = |x: i64, y: i64, z: i64| -> usize {
        (((x + ext) as usize * side) + (y + ext) as usize) * side + (z + ext) as usize
    };
    let mut field = vec![0.0f64; side * side * side];
    for x in -ext..=ext {
        for y in -ext..=ext {
            for z in -ext..=ext {
                let r = ((x as f64 * h[0]).powi(2)
                    + (y as f64 * h[1]).powi(2)
                    + (z as f64 * h[2]).powi(2))
                .sqrt();
                field[idx(x, y, z)] = shell_exact(alpha, 1, r);
            }
        }
    }
    // Convolve with ω' along each axis (the convolved axis is then only
    // valid on |c| ≤ g_c, which is all the truncation keeps).
    for axis in 0..3 {
        let mut next = vec![0.0f64; side * side * side];
        for x in -ext..=ext {
            for y in -ext..=ext {
                for z in -ext..=ext {
                    let c = [x, y, z];
                    if c[axis].abs() > gc as i64 {
                        continue;
                    }
                    let mut acc = 0.0;
                    for (k, wv) in omega2.iter() {
                        let mut s = c;
                        s[axis] -= k;
                        acc += wv * field[idx(s[0], s[1], s[2])];
                    }
                    next[idx(x, y, z)] = acc;
                }
            }
        }
        field = next;
    }
    DenseKernel::from_fn(gc, |m| field[idx(m[0], m[1], m[2])])
}

/// Plan the B-spline MSM baseline: [`Tme::try_new`]'s cascade with the
/// dense exact-shell level kernel (`m_gaussians` is ignored and not
/// validated — there is no Gaussian fit).
pub fn try_plan(params: TmeParams, box_l: V3) -> Result<Tme, TmeConfigError> {
    Tme::plan(params, box_l, |ops| {
        LevelKernel::Dense(dense_shell_kernel(
            params.alpha,
            ops.spacing(),
            params.p,
            params.gc,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_from_rtol;
    use crate::levels::LevelTransfer;
    use crate::toplevel::TopLevel;
    use crate::workspace::TmeWorkspace;
    use std::sync::Arc;
    use tme_mesh::dense::convolve_direct;
    use tme_mesh::model::{relative_force_error, CoulombSystem};
    use tme_mesh::SplineOps;
    use tme_num::pool::Pool;
    use tme_reference::ewald::{Ewald, EwaldParams};

    fn msm(params: TmeParams, box_l: f64) -> Tme {
        try_plan(params, [box_l; 3]).expect("valid MSM configuration")
    }

    fn random_neutral_system(n_pairs: usize, box_l: f64, seed: u64) -> CoulombSystem {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pos = Vec::new();
        let mut q = Vec::new();
        for _ in 0..n_pairs {
            pos.push([next() * box_l, next() * box_l, next() * box_l]);
            q.push(1.0);
            pos.push([next() * box_l, next() * box_l, next() * box_l]);
            q.push(-1.0);
        }
        CoulombSystem::new(pos, q, [box_l; 3])
    }

    fn params(r_cut: f64, gc: usize) -> TmeParams {
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc,
            m_gaussians: 4,
            alpha,
            r_cut,
        }
    }

    /// 32³ over 16³ under an 8³ top, g_c = 6: the 13 dense taps fit both
    /// middle levels' axes.
    fn two_level_params() -> TmeParams {
        TmeParams {
            n: [32; 3],
            levels: 2,
            ..params(1.0, 6)
        }
    }

    /// The dense MSM kernel smoothed by the spline samples must reproduce
    /// the exact shell at grid distances — the defining property of the
    /// quasi-interpolated kernel (same identity the TME kernel satisfies
    /// only up to its M-Gaussian fit).
    #[test]
    fn dense_kernel_reproduces_shell_exactly() {
        let alpha = 2.2;
        let h = 0.31;
        let p = 6usize;
        let sp = BSpline::new(p);
        let kernel = dense_shell_kernel(alpha, [h; 3], p, 12);
        let half = p as i64 / 2 - 1;
        let samples: Vec<(i64, f64)> = (-half..=half)
            .map(|m| (m, sp.eval_central(m as f64)))
            .collect();
        for &d in &[[2i64, 0, 0], [3, 1, 0], [2, 2, 2], [5, 0, 0]] {
            let mut got = 0.0;
            // Smooth the dense kernel by a ⊗ a ⊗ a on both sides — for a
            // dense kernel this is a 6-fold sum over the sample support.
            for (mx, ax) in &samples {
                for (my, ay) in &samples {
                    for (mz, az) in &samples {
                        for (px, bx) in &samples {
                            for (py, by) in &samples {
                                for (pz, bz) in &samples {
                                    let off = [d[0] - mx + px, d[1] - my + py, d[2] - mz + pz];
                                    if off.iter().all(|c| c.unsigned_abs() as usize <= 12) {
                                        got += ax * ay * az * bx * by * bz * kernel.get(off);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let r = h * ((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) as f64).sqrt();
            let exact = shell_exact(alpha, 1, r);
            assert!(
                (got - exact).abs() < 2e-4 * exact.abs().max(1e-2),
                "d={d:?}: {got} vs {exact}"
            );
        }
    }

    /// MSM matches the exact Ewald sum with TME-like accuracy.
    #[test]
    fn msm_matches_direct_ewald() {
        let box_l = 4.0;
        let sys = random_neutral_system(40, box_l, 77);
        let got = msm(params(1.0, 8), box_l).compute(&sys);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let err = relative_force_error(&got.forces, &want.forces);
        assert!(err < 5e-3, "MSM force error {err:e}");
    }

    /// MSM and TME agree with each other (the paper's claim that TME keeps
    /// MSM's accuracy while restructuring the computation).
    #[test]
    fn msm_and_tme_agree() {
        let box_l = 4.0;
        let sys = random_neutral_system(40, box_l, 31);
        let p = params(1.0, 8);
        let dense = msm(p, box_l).compute(&sys);
        let tme = Tme::new(p, [box_l; 3]).compute(&sys);
        let diff = relative_force_error(&tme.forces, &dense.forces);
        assert!(diff < 2e-3, "MSM vs TME differ by {diff:e}");
    }

    /// The §III.C cost relationship measured end-to-end: MSM does
    /// `(2g_c+1)²/(3M)` times more convolution work.
    #[test]
    fn msm_does_more_work_than_tme() {
        let box_l = 4.0;
        let sys = random_neutral_system(10, box_l, 5);
        // g_c = 6 keeps 13 taps under the 16-point axes (no tap folding),
        // so the §III.C ratio (2g_c+1)²/(3M) holds exactly.
        let p = params(1.0, 6);
        let (_, msm_stats) = msm(p, box_l).long_range(&sys);
        let (_, tme_stats) = Tme::new(p, [box_l; 3]).long_range(&sys);
        let ratio = msm_stats.convolution.madds as f64 / tme_stats.convolution.madds as f64;
        let expect = (2.0f64 * 6.0 + 1.0).powi(2) / (3.0 * 4.0);
        assert!(
            (ratio / expect - 1.0).abs() < 1e-9,
            "ratio {ratio} vs {expect}"
        );
    }

    /// Two-level MSM whose dense kernel fits its axes (32³ and 16³ under an
    /// 8³ top, g_c = 6): bitwise identical at 1, 2 and 4 threads. The
    /// dense cascade is not a backend, so this is its only cross-thread
    /// check.
    #[test]
    fn thread_count_does_not_change_bits() {
        let box_l = 8.0;
        let sys = random_neutral_system(50, box_l, 29);
        let msm = msm(two_level_params(), box_l);
        let run = |threads| {
            let mut ws = TmeWorkspace::with_pool(&msm, Arc::new(Pool::new(threads)));
            msm.compute_with(&mut ws, &sys).clone()
        };
        let r1 = run(1);
        for threads in [2, 4] {
            let rt = run(threads);
            assert_eq!(
                r1.energy.to_bits(),
                rt.energy.to_bits(),
                "{threads} threads"
            );
            for (a, b) in r1.forces.iter().zip(&rt.forces) {
                for c in 0..3 {
                    assert_eq!(a[c].to_bits(), b[c].to_bits(), "{threads} threads");
                }
            }
        }
    }

    /// The dense branch of the shared cascade against the allocating
    /// oracles composed by hand — `Φ = K⊛Q⁰ + P(½·K⊛Q¹ + P·top(Q²))` with
    /// `Q^{l} = R·Q^{l−1}`: fails if a level loses its `2^{1−l}` prefactor
    /// or reads another level's grid.
    #[test]
    fn mesh_potential_matches_hand_composed_cascade() {
        let box_l = 8.0;
        let sys = random_neutral_system(50, box_l, 29);
        let p = two_level_params();
        let plan = msm(p, box_l);
        let ops = SplineOps::new(p.p, p.n, [box_l; 3]);
        let mut ws = plan.make_workspace();
        ops.assign_into(&sys.pos, &sys.q, ws.charge_mut(0));
        let q0 = ws.charge_mut(0).clone();
        plan.grid_potential_with(&mut ws);

        let kernel = dense_shell_kernel(p.alpha, ops.spacing(), p.p, p.gc);
        let transfer = LevelTransfer::new(p.p);
        let q1 = transfer.restrict(&q0);
        let q2 = transfer.restrict(&q1);
        let top = TopLevel::new(q2.dims(), [box_l; 3], p.alpha / 4.0, p.p);
        let mut phi1 = convolve_direct(&kernel, &q1);
        phi1.scale(0.5);
        phi1.accumulate(&transfer.prolong(&top.solve(&q2)));
        let mut want = convolve_direct(&kernel, &q0);
        want.accumulate(&transfer.prolong(&phi1));

        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (got, want) in ws.mid[0].as_slice().iter().zip(want.as_slice()) {
            assert!((got - want).abs() <= 1e-12 * scale, "{got} vs {want}");
        }
    }
}
