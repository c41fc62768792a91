//! The complete TME solver — the six-step pipeline of paper §V.B:
//!
//! 1. charge assignment on the finest grid (LRU),
//! 2. restriction to coarser grids (GCU),
//! 3. middle-level grid kernel convolutions (GCU),
//! 4. top-level grid charges → grid potentials via FFT (TMENW + root FPGA),
//! 5. prolongation back down, accumulating with the middle levels (GCU),
//! 6. back interpolation of forces and potentials (LRU).
//!
//! Combined with the short-range `erfc` pair sum and the Ewald self term,
//! this reproduces the full Coulomb interaction with SPME-comparable
//! accuracy (paper Table 1).

use crate::convolve::{convolve_separable_into, ConvolveScratch, FoldedKernels, SeparableStats};
use crate::distributed::level_prefactor;
use crate::errors::TmeConfigError;
use crate::kernel::TensorKernel;
use crate::levels::LevelTransfer;
use crate::shells::GaussianFit;
use crate::timings::TmeStageTimings;
use crate::toplevel::TopLevel;
use crate::workspace::TmeWorkspace;
use tme_mesh::dense::{convolve_direct_into, DenseKernel};
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::{Grid3, SplineOps};
use tme_num::bytes::{ByteReader, Codec, CodecError, Sink};
use tme_num::pool::Pool;
use tme_num::table::PairKernelTable;
use tme_num::vec3::V3;

/// TME configuration (paper notation in backticks).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TmeParams {
    /// Finest grid numbers `N`; powers of two.
    pub n: [usize; 3],
    /// B-spline interpolation order `p`; the hardware fixes 6.
    pub p: usize,
    /// Number of middle-range levels `L` ≥ 1.
    pub levels: u32,
    /// Grid cutoff of the 1-D kernels `g_c`; hardware supports 8 or 12.
    pub gc: usize,
    /// Number of Gaussians per shell `M`; hardware uses 4.
    pub m_gaussians: usize,
    /// Ewald splitting parameter `α`, nm⁻¹.
    pub alpha: f64,
    /// Short-range cutoff `r_c`, nm.
    pub r_cut: f64,
}

impl TmeParams {
    /// The planner's rules, checked before [`Tme`] builds anything: at
    /// least one level, a usable splitting, an even spline order in
    /// `2..=12`, a finest grid divisible by `2^L` and a top grid that
    /// holds a whole spline. Pure — no plan is built.
    pub fn validate(&self) -> Result<(), TmeConfigError> {
        if self.levels < 1 {
            return Err(TmeConfigError::NoLevels);
        }
        // `r_cut > 0.0` (not `<= 0.0` negated) so NaN is rejected too —
        // a NaN cutoff would otherwise panic in `PairKernelTable::new`.
        if !(self.alpha >= 0.0
            && self.alpha.is_finite()
            && self.r_cut > 0.0
            && self.r_cut.is_finite())
        {
            return Err(TmeConfigError::BadSplitting {
                alpha: self.alpha,
                r_cut: self.r_cut,
            });
        }
        // The orders `BSpline::new` asserts on — a served plan's `p` is
        // remote input.
        if !((2..=12).contains(&self.p) && self.p.is_multiple_of(2)) {
            return Err(TmeConfigError::BadOrder { p: self.p });
        }
        let scale = 1usize << self.levels;
        if !self.n.iter().all(|&d| d % scale == 0) {
            return Err(TmeConfigError::IndivisibleGrid { n: self.n, scale });
        }
        let n_top = self.n.map(|d| d / scale);
        if n_top.iter().any(|&d| d < self.p) {
            return Err(TmeConfigError::TopGridTooSmall { n_top, p: self.p });
        }
        Ok(())
    }
}

/// The wire and fingerprint layout: the fields in declaration order.
impl Codec for TmeParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.n.encode(s);
        self.p.encode(s);
        self.levels.encode(s);
        self.gc.encode(s);
        self.m_gaussians.encode(s);
        self.alpha.encode(s);
        self.r_cut.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            n: r.decode()?,
            p: r.decode()?,
            levels: r.decode()?,
            gc: r.decode()?,
            m_gaussians: r.decode()?,
            alpha: r.decode()?,
            r_cut: r.decode()?,
        })
    }
}

/// Execution statistics of one long-range evaluation (feeds the §III.C
/// cost-model validation and the machine simulator's workload).
#[derive(Clone, Copy, Debug, Default)]
pub struct TmeStats {
    /// Level-convolution multiply-adds, summed over levels (separable
    /// passes for the TME, the dense `(2g_c+1)³` taps for the MSM plan).
    pub convolution: SeparableStats,
    /// Grid points touched by restriction+prolongation passes.
    pub transfer_points: u64,
    /// Top-level grid points (FFT size).
    pub top_points: u64,
    /// Wall-clock microseconds per pipeline stage of this evaluation
    /// (stages not run by the entry point stay zero).
    pub stages: TmeStageTimings,
}

/// The level-`l` grid kernel — the one place the TME and the B-spline MSM
/// it was designed to beat differ (§III): everything around it (assignment,
/// the two-scale cascade, the FFT top level, back interpolation, the
/// `erfc` pair sum) is the same machine.
#[derive(Clone, Debug)]
pub(crate) enum LevelKernel {
    /// Rank-`M` tensor-structured kernel (Eqs. 8–11) with its plan-time
    /// folded taps per middle level (index `l−1`).
    Tensor {
        kernel: TensorKernel,
        folded: Vec<FoldedKernels>,
    },
    /// The exact shell as one dense `(2g_c+1)³` kernel (B-spline MSM,
    /// [`crate::msm`]).
    Dense(DenseKernel),
}

impl LevelKernel {
    /// `out = 2^{1−l} · K ⊛ q` on level `l ≥ 1`, with the multiply-adds it
    /// took (a dense level counts as one pass).
    pub(crate) fn convolve_level_into(
        &self,
        l: usize,
        q: &Grid3,
        pool: &Pool,
        scratch: &mut ConvolveScratch,
        out: &mut Grid3,
    ) -> SeparableStats {
        let prefactor = level_prefactor(l as u32);
        match self {
            Self::Tensor { kernel, folded } => {
                convolve_separable_into(q, kernel, prefactor, &folded[l - 1], pool, scratch, out)
            }
            Self::Dense(kernel) => {
                convolve_direct_into(kernel, q, out);
                out.scale(prefactor);
                let taps = (2 * kernel.gc() + 1) as u64;
                SeparableStats {
                    madds: taps.pow(3) * q.len() as u64,
                    passes: 1,
                }
            }
        }
    }
}

/// A multilevel solver bound to one box: the TME pipeline, or — planned
/// through [`crate::msm::try_plan`] — the same cascade with the dense MSM
/// level kernel.
///
/// # Example
///
/// ```
/// use tme_core::{Tme, TmeParams, alpha_from_rtol};
/// use tme_mesh::CoulombSystem;
///
/// let r_cut = 1.0;
/// let params = TmeParams {
///     n: [16; 3], p: 6, levels: 1, gc: 8, m_gaussians: 4,
///     alpha: alpha_from_rtol(r_cut, 1e-4), r_cut,
/// };
/// let tme = Tme::new(params, [4.0; 3]);
/// let sys = CoulombSystem::new(
///     vec![[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
///     vec![1.0, -1.0],
///     [4.0; 3],
/// );
/// let out = tme.compute(&sys); // short range + multilevel mesh + self term
/// assert!(out.energy < 0.0);   // opposite charges attract
/// assert_eq!(out.forces.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Tme {
    pub(crate) params: TmeParams,
    pub(crate) ops: SplineOps,
    pub(crate) kernel: LevelKernel,
    pub(crate) transfer: LevelTransfer,
    pub(crate) top: TopLevel,
    /// Plan-time segmented-polynomial pair kernels for the short-range
    /// `erfc(αr)/r` sum — the software mirror of the machine's table-lookup
    /// nonbond pipelines (DESIGN.md §10).
    pub(crate) pair_table: PairKernelTable,
}

impl Tme {
    /// Plan a solver, panicking on an invalid configuration. Prefer
    /// [`Self::try_new`] when the parameters come from user input.
    pub fn new(params: TmeParams, box_l: V3) -> Self {
        match Self::try_new(params, box_l) {
            Ok(tme) => tme,
            // lint:allow(l2) — documented panicking front-end over try_new
            Err(e) => panic!("invalid TME configuration: {e}"),
        }
    }

    /// Plan a solver, reporting an invalid configuration as a
    /// [`TmeConfigError`] instead of panicking.
    pub fn try_new(params: TmeParams, box_l: V3) -> Result<Self, TmeConfigError> {
        if params.m_gaussians < 1 {
            return Err(TmeConfigError::NoGaussians);
        }
        Self::plan(params, box_l, |ops| {
            let fit = GaussianFit::new(params.alpha, params.m_gaussians);
            let kernel = TensorKernel::new(&fit, ops.spacing(), params.p, params.gc);
            let n = params.n;
            let folded = (0..params.levels)
                .map(|l| FoldedKernels::plan(&kernel, [n[0] >> l, n[1] >> l, n[2] >> l]))
                .collect();
            LevelKernel::Tensor { kernel, folded }
        })
    }

    /// Validate the configuration every level kernel shares and plan the
    /// cascade around the one `level_kernel` builds on the finest grid.
    pub(crate) fn plan(
        params: TmeParams,
        box_l: V3,
        level_kernel: impl FnOnce(&SplineOps) -> LevelKernel,
    ) -> Result<Self, TmeConfigError> {
        params.validate()?;
        let scale = 1usize << params.levels;
        let n_top = params.n.map(|d| d / scale);
        let ops = SplineOps::new(params.p, params.n, box_l);
        let kernel = level_kernel(&ops);
        let transfer = LevelTransfer::new(params.p);
        let alpha_top = params.alpha / scale as f64;
        let top = TopLevel::new(n_top, box_l, alpha_top, params.p);
        let pair_table = PairKernelTable::new(params.alpha, params.r_cut);
        Ok(Self {
            params,
            ops,
            kernel,
            transfer,
            top,
            pair_table,
        })
    }

    pub fn params(&self) -> &TmeParams {
        &self.params
    }

    /// The plan-time short-range pair-kernel table (tabulated
    /// `erfc(αr)/r` energy/force, exact-complement construction).
    pub fn pair_table(&self) -> &PairKernelTable {
        &self.pair_table
    }

    /// Emulate the FPGA's single-precision top-level datapath.
    pub fn set_top_single_precision(&mut self, on: bool) {
        self.top.single_precision = on;
    }

    /// Long-range (mesh) part only: steps 1–6. Includes the smooth-kernel
    /// self-images; combine with [`Self::compute`]'s short-range and self
    /// terms for totals.
    ///
    /// Allocates a fresh [`TmeWorkspace`] per call; steady-state callers
    /// should hold one and use [`Self::long_range_with`].
    pub fn long_range(&self, system: &CoulombSystem) -> (CoulombResult, TmeStats) {
        let mut ws = TmeWorkspace::new(self);
        let (out, stats) = self.long_range_with(&mut ws, system);
        (out.clone(), stats)
    }

    /// Steps 2–5 on an already-assigned finest-grid charge: returns the
    /// finest-grid long-range potential. Exposed for the fixed-point
    /// emulation tests and the machine simulator's workload accounting.
    pub fn long_range_grid_potential(&self, q_finest: &Grid3) -> (Grid3, TmeStats) {
        assert_eq!(q_finest.dims(), self.params.n, "charge grid dims mismatch");
        let mut ws = TmeWorkspace::new(self);
        ws.charge_mut(0)
            .as_mut_slice()
            .copy_from_slice(q_finest.as_slice());
        let stats = self.grid_potential_with(&mut ws);
        (ws.take_potential(), stats)
    }

    /// Full Coulomb interaction: short-range `erfc` pairs + long-range mesh
    /// + Ewald self term (reduced units).
    ///
    /// Allocates a fresh [`TmeWorkspace`] per call; steady-state callers
    /// should hold one and use [`Self::compute_with`].
    pub fn compute(&self, system: &CoulombSystem) -> CoulombResult {
        let mut ws = TmeWorkspace::new(self);
        self.compute_with(&mut ws, system).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_from_rtol;
    use tme_mesh::model::relative_force_error;
    use tme_reference::ewald::{Ewald, EwaldParams};
    use tme_reference::Spme;

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

    /// Parameters in the paper's regime: grid spacing h ≈ 0.25–0.31 nm and
    /// α from erfc(α r_c) = 1e-4, so the g_c = 8 truncation behaves as in
    /// Table 1 (the kernel width in grid units, α h, matches the paper's).
    fn paper_like_params(n: usize, r_cut: f64, gc: usize, m: usize, levels: u32) -> TmeParams {
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        TmeParams {
            n: [n; 3],
            p: 6,
            levels,
            gc,
            m_gaussians: m,
            alpha,
            r_cut,
        }
    }

    /// Headline validation: TME matches the exact Ewald sum at
    /// Table-1-like accuracy.
    #[test]
    fn matches_direct_ewald() {
        let box_l = 4.0;
        let sys = random_neutral_system(60, box_l, 99);
        let params = paper_like_params(16, 1.0, 8, 4, 1);
        let tme = Tme::new(params, [box_l; 3]);
        let got = tme.compute(&sys);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let err = relative_force_error(&got.forces, &want.forces);
        // Random ±1 point charges are a much harsher workload than water
        // (nearly-overlapping pairs dominate the force norm); SPME itself
        // sits at ~1.4e-3 here. Assert the same order of accuracy.
        assert!(err < 5e-3, "relative force error {err:e}");
        let erel = ((got.energy - want.energy) / want.energy).abs();
        assert!(erel < 2e-2, "energy error {erel:e}");
    }

    /// Table 1's qualitative content: TME(M≥3, g_c=8) is comparable to
    /// SPME at identical α, r_c, p, N.
    #[test]
    fn accuracy_comparable_to_spme() {
        let box_l = 4.0;
        let sys = random_neutral_system(60, box_l, 7);
        let r_cut = 1.0;
        let params = paper_like_params(16, r_cut, 8, 3, 1);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let tme_err = {
            let got = Tme::new(params, [box_l; 3]).compute(&sys);
            relative_force_error(&got.forces, &want.forces)
        };
        let spme_err = {
            let got = Spme::new([16; 3], [box_l; 3], params.alpha, 6, r_cut).compute(&sys);
            relative_force_error(&got.forces, &want.forces)
        };
        assert!(
            tme_err < 3.0 * spme_err + 1e-5,
            "TME {tme_err:e} not comparable to SPME {spme_err:e}"
        );
    }

    /// Error decreases (to convergence) as M grows — Table 1 rows.
    #[test]
    fn error_converges_in_m() {
        let box_l = 4.0;
        let sys = random_neutral_system(40, box_l, 31);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let errs: Vec<f64> = (1..=4)
            .map(|m| {
                let params = paper_like_params(16, 1.0, 8, m, 1);
                let got = Tme::new(params, [box_l; 3]).compute(&sys);
                relative_force_error(&got.forces, &want.forces)
            })
            .collect();
        assert!(errs[0] > errs[1], "M=1 should be worst: {errs:?}");
        // M=3 and M=4 nearly converged (Table 1: identical to 3 digits).
        assert!((errs[2] - errs[3]).abs() < 0.3 * errs[2] + 1e-6, "{errs:?}");
    }

    /// The TME mesh part must agree with the (independently validated)
    /// SPME mesh part on the same α/p/N — they discretise the same
    /// long-range kernel, differing only in the middle-shell fit and the
    /// g_c truncation.
    #[test]
    fn mesh_part_matches_spme_reciprocal() {
        let box_l = 6.0;
        let r_cut = 1.4;
        let params = paper_like_params(32, r_cut, 8, 4, 1);
        let tme = Tme::new(params, [box_l; 3]);
        let a = [1.3, 2.2, 3.1];
        let b = [3.8, 2.9, 1.7];
        let both = CoulombSystem::new(vec![a, b], vec![1.0, -1.0], [box_l; 3]);
        let spme = Spme::new([32; 3], [box_l; 3], params.alpha, 6, r_cut);
        let want = spme.reciprocal(&both);
        let (got, _) = tme.long_range(&both);
        assert!(
            (got.energy - want.energy).abs() < 1e-4 * want.energy.abs(),
            "{} vs {}",
            got.energy,
            want.energy
        );
        let err = relative_force_error(&got.forces, &want.forces);
        assert!(err < 1e-2, "mesh force mismatch {err:e}");
    }

    /// L = 2 on a 32³ grid (top level 8³) stays accurate.
    #[test]
    fn two_levels_remain_accurate() {
        let box_l = 8.0;
        let sys = random_neutral_system(40, box_l, 55);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let p1 = paper_like_params(32, 1.0, 8, 4, 1);
        let p2 = paper_like_params(32, 1.0, 8, 4, 2);
        let spme_err = {
            let got = Spme::new([32; 3], [box_l; 3], p1.alpha, 6, p1.r_cut).compute(&sys);
            relative_force_error(&got.forces, &want.forces)
        };
        let e1 = relative_force_error(&Tme::new(p1, [box_l; 3]).compute(&sys).forces, &want.forces);
        let e2 = relative_force_error(&Tme::new(p2, [box_l; 3]).compute(&sys).forces, &want.forces);
        // Both depths must stay within a small factor of the SPME baseline
        // on identical α/p/N (Table 1's comparability claim, extended to
        // the L = 2 configuration of §VI.A).
        assert!(e1 < 1.5 * spme_err, "L=1: {e1:e} vs SPME {spme_err:e}");
        assert!(e2 < 1.5 * spme_err, "L=2: {e2:e} vs SPME {spme_err:e}");
    }

    #[test]
    fn energy_is_half_sum_q_phi() {
        let box_l = 4.0;
        let sys = random_neutral_system(30, box_l, 3);
        let tme = Tme::new(paper_like_params(16, 1.2, 8, 3, 1), [box_l; 3]);
        let out = tme.compute(&sys);
        let e2: f64 = 0.5
            * sys
                .q
                .iter()
                .zip(&out.potentials)
                .map(|(q, p)| q * p)
                .sum::<f64>();
        assert!((out.energy - e2).abs() < 1e-10 * out.energy.abs().max(1.0));
    }

    #[test]
    fn stats_account_for_all_levels() {
        let box_l = 4.0;
        let sys = random_neutral_system(10, box_l, 13);
        let params = paper_like_params(32, 1.2, 8, 4, 2);
        let tme = Tme::new(params, [box_l; 3]);
        let (_, stats) = tme.long_range(&sys);
        // L = 2: passes = 3 axes × M × 2 levels.
        assert_eq!(stats.convolution.passes, 3 * 4 * 2);
        // Level 1 on 32³ applies all 17 taps; on the 16-point level-2 axes
        // the kernel folds to 16 applied taps.
        let expect = 3 * 4 * (17 * 32u64.pow(3) + 16 * 16u64.pow(3));
        assert_eq!(stats.convolution.madds, expect);
        assert_eq!(stats.top_points, 8 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_grid_rejected() {
        let p = TmeParams {
            n: [20; 3],
            p: 6,
            levels: 3,
            gc: 8,
            m_gaussians: 4,
            alpha: 2.0,
            r_cut: 1.0,
        };
        let _ = Tme::new(p, [4.0; 3]);
    }
}
