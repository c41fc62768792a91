//! Smooth particle-mesh Ewald (SPME), Essmann et al. 1995.
//!
//! The baseline method of the paper (Fig. 2(b)): the long-range potential
//! is obtained by (i) charge assignment, (ii) 3-D FFT, (iii) multiplication
//! by the lattice Green function, (iv) inverse 3-D FFT, then back
//! interpolation for per-atom potentials and forces.
//!
//! The TME's *top level* is exactly this procedure with `α → α/2^L` on the
//! `N/2^L` grid, so this module is reused by `tme-core`.

use crate::pairwise;
use std::sync::Arc;
use tme_mesh::assign::Interpolated;
use tme_mesh::cells::{self, CellScratch};
use tme_mesh::greens;
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::window::PswfWindow;
use tme_mesh::{Grid3, SplineOps};
use tme_num::fft::RealFft3;
use tme_num::pool::Pool;
use tme_num::table::PairKernelTable;
use tme_num::Complex64;

/// An SPME solver bound to one box/grid/α/window combination. The
/// gridding window is the classic B-spline ([`Spme::new`]) or a PSWF
/// ([`Spme::with_pswf`]) — the pipeline is identical, only the window
/// evaluations and the Fourier-space deconvolution factors differ.
#[derive(Clone, Debug)]
pub struct Spme {
    ops: SplineOps,
    influence: Grid3,
    fft: RealFft3,
    alpha: f64,
    r_cut: f64,
    /// Plan-time `erfc(αr)/r` kernel table of the real-space sum.
    pair_table: PairKernelTable,
}

/// Per-call mutable state of the SPME pipeline: grids, half-spectrum and
/// FFT scratch, interpolation and cell-list buffers, plus the pool the
/// parallel sections run on. Allocated once by [`Spme::make_scratch`];
/// [`Spme::compute_into`] is then allocation-free once warm.
#[derive(Debug)]
pub struct SpmeScratch {
    pool: Arc<Pool>,
    q_grid: Grid3,
    phi: Grid3,
    spec: Vec<Complex64>,
    fft_scratch: Vec<Complex64>,
    interp: Interpolated,
    cells: CellScratch,
    /// Mesh-only result of the last reciprocal solve.
    mesh: CoulombResult,
}

impl Spme {
    /// Grid dims `n` must be powers of two (our FFT); `p` even.
    pub fn new(n: [usize; 3], box_l: [f64; 3], alpha: f64, p: usize, r_cut: f64) -> Self {
        let influence = greens::influence(n, box_l, alpha, p);
        Self::from_parts(SplineOps::new(p, n, box_l), influence, alpha, r_cut)
    }

    /// SPME gridding with a PSWF window of support `window.order()` grid
    /// points instead of the B-spline: same assignment / FFT /
    /// interpolation machinery, with the per-axis Euler factors of the
    /// influence function swapped for the window's `1/ŵ(θ)²`
    /// ([`greens::influence_windowed`]).
    pub fn with_pswf(
        n: [usize; 3],
        box_l: [f64; 3],
        alpha: f64,
        r_cut: f64,
        window: PswfWindow,
    ) -> Self {
        let influence = greens::influence_windowed(n, box_l, alpha, &window);
        Self::from_parts(
            SplineOps::with_window(n, box_l, window),
            influence,
            alpha,
            r_cut,
        )
    }

    fn from_parts(ops: SplineOps, influence: Grid3, alpha: f64, r_cut: f64) -> Self {
        let n = ops.dims();
        Self {
            ops,
            influence,
            fft: RealFft3::new(n[0], n[1], n[2]),
            alpha,
            r_cut,
            pair_table: PairKernelTable::new(alpha, r_cut),
        }
    }

    /// The plan-time `erfc(αr)/r` kernel table of the real-space sum.
    pub fn pair_table(&self) -> &PairKernelTable {
        &self.pair_table
    }

    /// Scratch sized for this plan, running its parallel sections on
    /// `pool`. Feed it to [`Spme::compute_into`] every step.
    #[must_use]
    pub fn make_scratch(&self, pool: Arc<Pool>) -> SpmeScratch {
        let n = self.ops.dims();
        SpmeScratch {
            pool,
            q_grid: Grid3::zeros(n),
            phi: Grid3::zeros(n),
            spec: vec![Complex64::ZERO; self.fft.spectrum_len()],
            fft_scratch: vec![Complex64::ZERO; self.fft.scratch_len()],
            interp: Interpolated::default(),
            cells: CellScratch::new(),
            mesh: CoulombResult::default(),
        }
    }

    /// The reciprocal (mesh) part — assignment → FFT → Green function →
    /// IFFT → back interpolation — written into `out` through reused
    /// scratch, allocation-free once warm. Includes the grid's periodic
    /// self-images, so the full sum still needs [`pairwise::self_term`].
    pub fn reciprocal_into(
        &self,
        system: &CoulombSystem,
        ws: &mut SpmeScratch,
        out: &mut CoulombResult,
    ) {
        self.reciprocal_scratch(system, ws);
        out.copy_from(&ws.mesh);
    }

    /// Run the mesh pipeline leaving the result in `ws.mesh`.
    fn reciprocal_scratch(&self, system: &CoulombSystem, ws: &mut SpmeScratch) {
        ws.q_grid.fill(0.0);
        self.ops.assign_into(&system.pos, &system.q, &mut ws.q_grid);
        greens::apply_influence_into(
            &self.fft,
            &self.influence,
            &ws.q_grid,
            &mut ws.phi,
            &mut ws.spec,
            &mut ws.fft_scratch,
        );
        self.ops
            .interpolate_into(&ws.phi, &system.pos, &system.q, &ws.pool, &mut ws.interp);
        ws.mesh.energy = SplineOps::energy(&system.q, &ws.interp.potential);
        ws.mesh.forces.clear();
        ws.mesh.forces.extend_from_slice(&ws.interp.force);
        ws.mesh.potentials.clear();
        ws.mesh.potentials.extend_from_slice(&ws.interp.potential);
        ws.mesh.virial = 0.0; // mesh virial not tracked (see CoulombResult docs)
    }

    /// Full Coulomb sum — short-range pairs through the cell kernel
    /// (DESIGN.md §15) + mesh + self term — written into `out` through
    /// reused scratch: allocation-free once warm, parallel sections on the
    /// scratch pool.
    pub fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut SpmeScratch,
        out: &mut CoulombResult,
    ) {
        self.reciprocal_scratch(system, ws);
        cells::short_range_cells_into(
            system,
            &self.pair_table,
            self.r_cut,
            &ws.pool,
            &mut ws.cells,
            out,
        );
        out.accumulate(&ws.mesh);
        pairwise::self_term_into(system, self.alpha, out);
    }

    /// [`Spme::reciprocal_into`] on a one-shot scratch (global pool).
    pub fn reciprocal(&self, system: &CoulombSystem) -> CoulombResult {
        let mut ws = self.make_scratch(Arc::clone(Pool::global()));
        self.reciprocal_scratch(system, &mut ws);
        ws.mesh
    }

    /// [`Spme::compute_into`] on a one-shot scratch (global pool).
    pub fn compute(&self, system: &CoulombSystem) -> CoulombResult {
        let mut ws = self.make_scratch(Arc::clone(Pool::global()));
        let mut out = CoulombResult::default();
        self.compute_into(system, &mut ws, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::{Ewald, EwaldParams};
    use tme_mesh::model::relative_force_error;
    use tme_num::special::alpha_from_rtol;

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

    /// The PSWF window's selling point: on a grid that is *marginal* for the
    /// Gaussian (16³ at this α), its near-optimal frequency concentration
    /// roughly halves the force error of the B-spline window at the same
    /// support width — and the B-spline needs the next power-of-two grid
    /// (8× the points) to catch up. On ample grids both windows saturate at
    /// the Ewald splitting floor, so the marginal regime is where it counts.
    #[test]
    fn pswf_beats_bspline_on_marginal_grid() {
        let box_l = 4.0;
        let sys = random_neutral_system(60, box_l, 2024);
        let r_cut = 1.2;
        let p = 8;
        let alpha = alpha_from_rtol(r_cut, 1e-5);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let win = tme_mesh::PswfWindow::for_order(p);
        let pswf = Spme::with_pswf([16; 3], [box_l; 3], alpha, r_cut, win).compute(&sys);
        let e_pswf = relative_force_error(&pswf.forces, &want.forces);
        let bs16 = Spme::new([16; 3], [box_l; 3], alpha, p, r_cut).compute(&sys);
        let e_bs16 = relative_force_error(&bs16.forces, &want.forces);
        assert!(
            e_pswf < 0.75 * e_bs16,
            "pswf 16³ {e_pswf:e} must clearly beat b-spline 16³ {e_bs16:e}"
        );
        // Matched-accuracy grid comparison for the bench table: a 5·10⁻⁴
        // force-error target is met by the PSWF on 16³ but needs 32³ from
        // the B-spline.
        assert!(e_pswf < 5e-4, "pswf 16³ {e_pswf:e} misses the 5e-4 target");
        assert!(
            e_bs16 > 5e-4,
            "b-spline 16³ {e_bs16:e} beats the target; demo stale"
        );
        let bs32 = Spme::new([32; 3], [box_l; 3], alpha, p, r_cut).compute(&sys);
        let e_bs32 = relative_force_error(&bs32.forces, &want.forces);
        assert!(
            e_bs32 < 5e-4,
            "b-spline 32³ {e_bs32:e} misses the 5e-4 target"
        );
    }

    /// The central validation: SPME converges to the exact Ewald sum.
    #[test]
    fn matches_direct_ewald() {
        let box_l = 4.0;
        let sys = random_neutral_system(60, box_l, 2024);
        let r_cut = 1.2;
        let alpha = alpha_from_rtol(r_cut, 1e-5);
        let reference = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14));
        let want = reference.compute(&sys);
        let spme = Spme::new([32; 3], [box_l; 3], alpha, 6, r_cut);
        let got = spme.compute(&sys);
        let err = relative_force_error(&got.forces, &want.forces);
        assert!(err < 2e-4, "relative force error {err:e}");
        let erel = ((got.energy - want.energy) / want.energy).abs();
        assert!(erel < 1e-4, "energy error {erel:e}");
    }

    #[test]
    fn mesh_energy_consistent_between_grid_and_atoms() {
        // ½ Σ_m Q_m Φ_m == ½ Σ_i q_i φ_i by exact adjointness.
        let sys = random_neutral_system(20, 3.0, 5);
        let spme = Spme::new([16; 3], [3.0; 3], 2.0, 6, 1.4);
        let mut ws = spme.make_scratch(Arc::clone(Pool::global()));
        spme.reciprocal_scratch(&sys, &mut ws);
        let e_grid = 0.5 * ws.q_grid.dot(&ws.phi);
        let rec = ws.mesh;
        assert!(
            (e_grid - rec.energy).abs() < 1e-10 * e_grid.abs().max(1.0),
            "{e_grid} vs {}",
            rec.energy
        );
    }

    #[test]
    fn finer_grid_reduces_error() {
        let box_l = 3.2;
        let sys = random_neutral_system(40, box_l, 77);
        let r_cut = 1.1;
        let alpha = alpha_from_rtol(r_cut, 1e-5);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let coarse = Spme::new([16; 3], [box_l; 3], alpha, 6, r_cut).compute(&sys);
        let fine = Spme::new([32; 3], [box_l; 3], alpha, 6, r_cut).compute(&sys);
        let e_coarse = relative_force_error(&coarse.forces, &want.forces);
        let e_fine = relative_force_error(&fine.forces, &want.forces);
        assert!(e_fine < e_coarse, "fine {e_fine:e} !< coarse {e_coarse:e}");
    }

    #[test]
    fn reciprocal_forces_sum_to_zero() {
        let sys = random_neutral_system(15, 2.0, 8);
        let rec = Spme::new([16; 3], [2.0; 3], 2.0, 6, 0.9).reciprocal(&sys);
        let mut tot = [0.0f64; 3];
        let mut mag = 0.0f64;
        for f in &rec.forces {
            for a in 0..3 {
                tot[a] += f[a];
            }
            mag += (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
        }
        // SPME mesh forces conserve momentum only up to interpolation
        // noise (a known property); require the net force to be small
        // relative to the total force magnitude.
        let net = (tot[0] * tot[0] + tot[1] * tot[1] + tot[2] * tot[2]).sqrt();
        assert!(net < 1e-3 * mag, "net {net:e} vs Σ|F| {mag:e}");
    }

    #[test]
    fn higher_order_spline_is_more_accurate() {
        let box_l = 3.0;
        let sys = random_neutral_system(40, box_l, 31);
        let r_cut = 1.0;
        let alpha = alpha_from_rtol(r_cut, 1e-5);
        let want = Ewald::new(EwaldParams::reference_quality([box_l; 3], 1e-14)).compute(&sys);
        let p4 = Spme::new([16; 3], [box_l; 3], alpha, 4, r_cut).compute(&sys);
        let p6 = Spme::new([16; 3], [box_l; 3], alpha, 6, r_cut).compute(&sys);
        let e4 = relative_force_error(&p4.forces, &want.forces);
        let e6 = relative_force_error(&p6.forces, &want.forces);
        assert!(e6 < e4, "p6 {e6:e} !< p4 {e4:e}");
    }
}
