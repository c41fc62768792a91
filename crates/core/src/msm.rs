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

use crate::errors::TmeConfigError;
use crate::levels::{LevelTransfer, TransferScratch};
use crate::shells::shell_exact;
use crate::solver::TmeParams;
use crate::toplevel::{TopLevel, TopScratch};
use std::sync::Arc;
use tme_mesh::assign::Interpolated;
use tme_mesh::bspline::BSpline;
use tme_mesh::cells::{self, CellScratch};
use tme_mesh::dense::{convolve_direct_into, DenseKernel};
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::pairwise;
use tme_mesh::{Grid3, SplineOps};
use tme_num::pool::Pool;
use tme_num::table::PairKernelTable;
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

/// The B-spline MSM solver: drop-in comparable to [`crate::Tme`]
/// (`m_gaussians` in the shared `TmeParams` is ignored — MSM uses the
/// exact shell).
#[derive(Clone, Debug)]
pub struct Msm {
    params: TmeParams,
    ops: SplineOps,
    kernel: DenseKernel,
    transfer: LevelTransfer,
    top: TopLevel,
    /// Plan-time short-range kernel table (same role as the TME's).
    pair_table: PairKernelTable,
}

/// Work counters mirroring `TmeStats` for the cost comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct MsmStats {
    /// Direct-convolution multiply-adds, summed over levels.
    pub madds: u64,
}

/// All per-step mutable state of the MSM evaluation — same plan/execute
/// split as [`crate::TmeWorkspace`], so the baseline comparator can sit
/// behind the backend workspace contract with a zero-alloc steady state.
#[derive(Debug)]
pub struct MsmWorkspace {
    pool: Arc<Pool>,
    /// Charge grids `Q^l`, dims `N >> l`, for `l ∈ 0..=L`.
    q: Vec<Grid3>,
    /// Middle-level potentials `Φ^l` for `l ∈ 1..=L` (index `l−1`).
    mid: Vec<Grid3>,
    /// Prolongation targets per middle level (index `l−1`).
    tmp: Vec<Grid3>,
    /// Restriction/prolongation scratch per level pair (index `l−1`).
    transfer: Vec<TransferScratch>,
    /// Top-level potential `Φ^{L+1}`, dims `N >> L`.
    top_phi: Grid3,
    top: TopScratch,
    interp: Interpolated,
    cells: CellScratch,
    mesh_out: CoulombResult,
}

impl MsmWorkspace {
    /// The pool the short-range and interpolation loops dispatch on.
    #[must_use]
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }
}

impl Msm {
    pub fn new(params: TmeParams, box_l: V3) -> Self {
        match Self::try_new(params, box_l) {
            Ok(msm) => msm,
            // lint:allow(l2) — documented panicking front-end over try_new
            Err(e) => panic!("invalid MSM configuration: {e}"),
        }
    }

    /// [`Msm::new`] with the configuration contract as typed errors
    /// (`m_gaussians` is not validated — MSM ignores it).
    pub fn try_new(params: TmeParams, box_l: V3) -> Result<Self, TmeConfigError> {
        if params.levels < 1 {
            return Err(TmeConfigError::NoLevels);
        }
        // As in `Tme::try_new`: `r_cut > 0.0` so a NaN cutoff is rejected.
        if !(params.alpha >= 0.0
            && params.alpha.is_finite()
            && params.r_cut > 0.0
            && params.r_cut.is_finite())
        {
            return Err(TmeConfigError::BadSplitting {
                alpha: params.alpha,
                r_cut: params.r_cut,
            });
        }
        let scale = 1usize << params.levels;
        if !params.n.iter().all(|&d| d % scale == 0) {
            return Err(TmeConfigError::IndivisibleGrid { n: params.n, scale });
        }
        let n_top = [
            params.n[0] / scale,
            params.n[1] / scale,
            params.n[2] / scale,
        ];
        if n_top.iter().any(|&d| d < params.p) {
            return Err(TmeConfigError::TopGridTooSmall { n_top, p: params.p });
        }
        let ops = SplineOps::new(params.p, params.n, box_l);
        let kernel = dense_shell_kernel(params.alpha, ops.spacing(), params.p, params.gc);
        let transfer = LevelTransfer::new(params.p);
        let top = TopLevel::new(n_top, box_l, params.alpha / scale as f64, params.p);
        Ok(Self {
            params,
            ops,
            kernel,
            transfer,
            top,
            pair_table: PairKernelTable::new(params.alpha, params.r_cut),
        })
    }

    pub fn params(&self) -> &TmeParams {
        &self.params
    }

    /// Box edge lengths this plan was built for.
    #[must_use]
    pub fn box_lengths(&self) -> V3 {
        self.ops.box_lengths()
    }

    /// Allocate the per-step buffers for the workspace entry points (on
    /// the global pool).
    #[must_use]
    pub fn make_workspace(&self) -> MsmWorkspace {
        self.make_workspace_with_pool(Arc::clone(Pool::global()))
    }

    /// [`Msm::make_workspace`] on a caller-owned pool.
    #[must_use]
    pub fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> MsmWorkspace {
        let levels = self.params.levels as usize;
        let n = self.params.n;
        let dims_at = |l: usize| [n[0] >> l, n[1] >> l, n[2] >> l];
        MsmWorkspace {
            pool,
            q: (0..=levels).map(|l| Grid3::zeros(dims_at(l))).collect(),
            mid: (1..=levels).map(|l| Grid3::zeros(dims_at(l - 1))).collect(),
            tmp: (1..=levels).map(|l| Grid3::zeros(dims_at(l - 1))).collect(),
            transfer: (1..=levels)
                .map(|l| TransferScratch::for_fine_dims(dims_at(l - 1)))
                .collect(),
            top_phi: Grid3::zeros(dims_at(levels)),
            top: self.top.make_scratch(),
            interp: Interpolated::default(),
            cells: CellScratch::new(),
            mesh_out: CoulombResult::default(),
        }
    }

    /// [`Msm::long_range`] through reused buffers — bitwise identical to
    /// the allocating path (serial assignment, same cascade order), zero
    /// heap allocations once warm.
    pub fn long_range_into<'w>(
        &self,
        system: &CoulombSystem,
        ws: &'w mut MsmWorkspace,
    ) -> (&'w CoulombResult, MsmStats) {
        let mut stats = MsmStats::default();
        let levels = self.params.levels as usize;
        let taps = (2 * self.params.gc + 1) as u64;
        let pool = Arc::clone(&ws.pool);
        ws.q[0].fill(0.0);
        self.ops.assign_into(&system.pos, &system.q, &mut ws.q[0]);
        // Downward pass: dense convolution per level, restrict to the next.
        for l in 1..=levels {
            convolve_direct_into(&self.kernel, &ws.q[l - 1], &mut ws.mid[l - 1]);
            ws.mid[l - 1].scale(crate::distributed::level_prefactor(l as u32));
            stats.madds += taps.pow(3) * ws.q[l - 1].len() as u64;
            let (fine, coarse) = ws.q.split_at_mut(l);
            self.transfer
                .restrict_into(&fine[l - 1], &mut coarse[0], &mut ws.transfer[l - 1]);
        }
        self.top
            .solve_into(&ws.q[levels], &mut ws.top_phi, &mut ws.top);
        // Upward pass: prolong the coarser potential and accumulate.
        for l in (1..=levels).rev() {
            if l == levels {
                self.transfer.prolong_into(
                    &ws.top_phi,
                    &mut ws.tmp[l - 1],
                    &mut ws.transfer[l - 1],
                );
            } else {
                let (_, mid_coarse) = ws.mid.split_at_mut(l);
                self.transfer.prolong_into(
                    &mid_coarse[0],
                    &mut ws.tmp[l - 1],
                    &mut ws.transfer[l - 1],
                );
            }
            ws.mid[l - 1].accumulate(&ws.tmp[l - 1]);
        }
        self.ops
            .interpolate_into(&ws.mid[0], &system.pos, &system.q, &pool, &mut ws.interp);
        ws.mesh_out.energy = SplineOps::energy(&system.q, &ws.interp.potential);
        ws.mesh_out.forces.clear();
        ws.mesh_out.forces.extend_from_slice(&ws.interp.force);
        ws.mesh_out.potentials.clear();
        ws.mesh_out
            .potentials
            .extend_from_slice(&ws.interp.potential);
        ws.mesh_out.virial = 0.0; // mesh virial not tracked (see CoulombResult docs)
        (&ws.mesh_out, stats)
    }

    /// [`Msm::compute`] through reused buffers — `out` is reset.
    pub fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut MsmWorkspace,
        out: &mut CoulombResult,
    ) -> MsmStats {
        let (_, stats) = self.long_range_into(system, ws);
        let pool = Arc::clone(&ws.pool);
        cells::short_range_cells_into(
            system,
            &self.pair_table,
            self.params.r_cut,
            &pool,
            &mut ws.cells,
            out,
        );
        out.accumulate(&ws.mesh_out);
        pairwise::self_term_into(system, self.params.alpha, out);
        stats
    }

    /// Mesh (long-range) part via direct multilevel convolutions.
    pub fn long_range(&self, system: &CoulombSystem) -> (CoulombResult, MsmStats) {
        let mut ws = self.make_workspace();
        let (out, stats) = self.long_range_into(system, &mut ws);
        (out.clone(), stats)
    }

    /// Full Coulomb sum (short range + mesh + self term).
    pub fn compute(&self, system: &CoulombSystem) -> CoulombResult {
        let mut ws = self.make_workspace();
        let mut out = CoulombResult::default();
        self.compute_into(system, &mut ws, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Tme;
    use tme_mesh::model::relative_force_error;
    use tme_reference::ewald::{Ewald, EwaldParams};

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
        let alpha = EwaldParams::alpha_from_tolerance(r_cut, 1e-4);
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
        let msm = Msm::new(params(1.0, 8), [box_l; 3]);
        let got = msm.compute(&sys);
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
        let msm = Msm::new(p, [box_l; 3]).compute(&sys);
        let tme = Tme::new(p, [box_l; 3]).compute(&sys);
        let diff = relative_force_error(&tme.forces, &msm.forces);
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
        let (_, msm_stats) = Msm::new(p, [box_l; 3]).long_range(&sys);
        let (_, tme_stats) = Tme::new(p, [box_l; 3]).long_range(&sys);
        let ratio = msm_stats.madds as f64 / tme_stats.convolution.madds as f64;
        let expect = (2.0f64 * 6.0 + 1.0).powi(2) / (3.0 * 4.0);
        assert!(
            (ratio / expect - 1.0).abs() < 1e-9,
            "ratio {ratio} vs {expect}"
        );
    }

    /// Two-level MSM whose dense kernel fits its axes (32³ and 16³ under an
    /// 8³ top, g_c = 6): bitwise identical at 1, 2 and 4 threads. The
    /// backend oracle's determinism test only plans a 16³ grid the kernel
    /// laps.
    #[test]
    fn thread_count_does_not_change_bits() {
        let box_l = 8.0;
        let sys = random_neutral_system(50, box_l, 29);
        let msm = Msm::new(
            TmeParams {
                n: [32; 3],
                levels: 2,
                ..params(1.0, 6)
            },
            [box_l; 3],
        );
        let run = |threads| {
            let mut ws = msm.make_workspace_with_pool(Arc::new(Pool::new(threads)));
            let mut out = CoulombResult::default();
            msm.compute_into(&sys, &mut ws, &mut out);
            out
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
}
