//! Plan/execute split for the TME pipeline.
//!
//! [`crate::Tme`] is the *plan*: kernels, influence function, two-scale
//! coefficients — everything that depends only on the box and parameters.
//! [`TmeWorkspace`] is the *execute-phase state*: every grid, pass buffer
//! and scratch vector the six-step pipeline touches, allocated once and
//! reused across steps, so the steady-state entry points
//! ([`Tme::compute_with`], [`Tme::long_range_with`]) perform **zero heap
//! allocations** after warm-up.
//!
//! The workspace also carries the thread pool the hot loops run on. All
//! parallel reductions use *fixed* part boundaries (functions of the data
//! size only, never the thread count) merged in part order, so results are
//! bitwise identical at any `TME_THREADS` setting — the same property the
//! hardware gets from its fixed GM accumulation network.

use crate::convolve::ConvolveScratch;
use crate::errors::{validate_inputs, validate_result, TmeRecoverableError};
use crate::levels::TransferScratch;
use crate::solver::{Tme, TmeStats};
use crate::timings::{elapsed_us, TmeStageTimings};
use crate::toplevel::TopScratch;
use std::sync::Arc;
use std::time::Instant;
use tme_mesh::assign::{Interpolated, TransferBins};
use tme_mesh::cells::{self, CellScratch};
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::pairwise;
use tme_mesh::{Grid3, SplineOps};
use tme_num::isa::Isa;
use tme_num::pool::Pool;

/// Parts of the index-sliced charge assignment the staged twin in
/// `benchmark/src/probes.rs` still mirrors; it sizes only that twin — the
/// workspace assigns through spatial [`TransferBins`] (DESIGN.md §9.2).
pub const ASSIGN_PARTS: usize = 8;

/// All per-step mutable state of the TME pipeline (see module docs).
///
/// Build once per solver with [`TmeWorkspace::new`] (or
/// [`TmeWorkspace::with_pool`] to pin a specific thread pool), then feed
/// it to [`Tme::compute_with`] every step.
#[derive(Debug)]
pub struct TmeWorkspace {
    pub(crate) pool: Arc<Pool>,
    /// Charge grids `Q^l`, dims `N >> l`, for `l ∈ 0..=L`.
    q: Vec<Grid3>,
    /// Middle-level potentials `Φ^l` for `l ∈ 1..=L` (index `l−1`,
    /// dims `N >> (l−1)`); `mid[0]` holds the final mesh potential.
    pub(crate) mid: Vec<Grid3>,
    /// Convolution scratch per middle level (index `l−1`); its free grid
    /// (`tmp_a`) is the level's prolongation target.
    conv: Vec<ConvolveScratch>,
    /// Restriction/prolongation scratch per level pair (index `l−1`,
    /// fine side dims `N >> (l−1)`).
    transfer: Vec<TransferScratch>,
    /// Top-level potential `Φ^{L+1}`, dims `N >> L`.
    top_phi: Grid3,
    /// Top-level FFT spectrum/line scratch.
    top: TopScratch,
    /// Spatial bins and slabs of the step-1 assignment and the step-6
    /// interpolation.
    bins: TransferBins,
    /// Back-interpolation output (step 6).
    interp: Interpolated,
    /// SoA cell-list state of the production short-range path
    /// (DESIGN.md §15).
    cells: CellScratch,
    /// Mesh-only result of the last [`Tme::long_range_with`].
    mesh_out: CoulombResult,
    /// Full result of the last [`Tme::compute_with`].
    out: CoulombResult,
}

impl TmeWorkspace {
    /// Workspace on the process-global pool (sized by `TME_THREADS`).
    #[must_use]
    pub fn new(tme: &Tme) -> Self {
        Self::with_pool(tme, Arc::clone(Pool::global()))
    }

    /// Workspace running its parallel sections on a caller-owned pool.
    #[must_use]
    pub fn with_pool(tme: &Tme, pool: Arc<Pool>) -> Self {
        let params = tme.params();
        let levels = params.levels as usize;
        let n = params.n;
        let dims_at = |l: usize| [n[0] >> l, n[1] >> l, n[2] >> l];
        Self {
            pool,
            q: (0..=levels).map(|l| Grid3::zeros(dims_at(l))).collect(),
            mid: (1..=levels).map(|l| Grid3::zeros(dims_at(l - 1))).collect(),
            conv: (1..=levels)
                .map(|l| ConvolveScratch::for_dims(dims_at(l - 1)))
                .collect(),
            transfer: (1..=levels)
                .map(|l| TransferScratch::for_fine_dims(dims_at(l - 1)))
                .collect(),
            top_phi: Grid3::zeros(dims_at(levels)),
            top: tme.top.make_scratch(),
            bins: TransferBins::new(&tme.ops),
            interp: Interpolated::default(),
            cells: CellScratch::new(),
            mesh_out: CoulombResult::default(),
            out: CoulombResult::default(),
        }
    }

    /// Mutable access to the level-`l` charge grid (level 0 = finest).
    pub fn charge_mut(&mut self, level: usize) -> &mut Grid3 {
        &mut self.q[level]
    }

    /// Move the finest-grid mesh potential out (replacing it with zeros).
    pub(crate) fn take_potential(&mut self) -> Grid3 {
        let dims = self.mid[0].dims();
        std::mem::replace(&mut self.mid[0], Grid3::zeros(dims))
    }
}

impl Tme {
    /// Allocate a workspace sized for this solver (on the global pool).
    #[must_use]
    pub fn make_workspace(&self) -> TmeWorkspace {
        TmeWorkspace::new(self)
    }

    /// Steps 2–5 on the charge grid already in `ws` level 0: runs the
    /// level cascade and leaves the finest-grid potential in `ws`.
    /// Allocation-free once warm.
    pub fn grid_potential_with(&self, ws: &mut TmeWorkspace) -> TmeStats {
        self.grid_potential_on(ws, Isa::detect())
    }

    /// [`Self::grid_potential_with`] with every grid pass on `isa`.
    fn grid_potential_on(&self, ws: &mut TmeWorkspace, isa: Isa) -> TmeStats {
        debug_assert!(
            ws.q[0].as_slice().iter().all(|v| v.is_finite()),
            "non-finite charge entering the multilevel pipeline"
        );
        let mut stats = TmeStats::default();
        let mut stages = TmeStageTimings::default();
        let levels = self.params.levels as usize;
        let pool = Arc::clone(&ws.pool);
        // Downward pass: convolve each level, restrict to the next.
        for l in 1..=levels {
            let t0 = Instant::now();
            let s = self.kernel.convolve_level_into(
                l,
                &ws.q[l - 1],
                &pool,
                isa,
                &mut ws.conv[l - 1],
                &mut ws.mid[l - 1],
            );
            stages.convolve_us += elapsed_us(t0);
            stats.convolution.madds += s.madds;
            stats.convolution.passes += s.passes;
            stats.transfer_points += ws.q[l - 1].len() as u64;
            let t0 = Instant::now();
            let (fine, coarse) = ws.q.split_at_mut(l);
            let scratch = &mut ws.transfer[l - 1];
            self.transfer
                .restrict_with(&fine[l - 1], &mut coarse[0], scratch, &pool, isa);
            stages.transfer_us += elapsed_us(t0);
        }
        // Top level: FFT convolution on Q^{L+1}.
        stats.top_points = ws.q[levels].len() as u64;
        let t0 = Instant::now();
        self.top
            .solve_into(&ws.q[levels], &mut ws.top_phi, &mut ws.top);
        stages.toplevel_us = elapsed_us(t0);
        // Upward pass: prolong the coarser potential onto each middle
        // level and accumulate it there, plane by plane in the last axis
        // pass. The level's convolution scratch grid is the prolongation
        // target.
        let t0 = Instant::now();
        for l in (1..=levels).rev() {
            stats.transfer_points += ws.mid[l - 1].len() as u64;
            let (finer, coarser) = ws.mid.split_at_mut(l);
            let coarse = if l == levels {
                &ws.top_phi
            } else {
                &coarser[0]
            };
            let target = &mut ws.conv[l - 1].tmp_a;
            let scratch = &mut ws.transfer[l - 1];
            self.transfer
                .prolong_add_with(coarse, target, scratch, &pool, isa, &mut finer[l - 1]);
        }
        stages.transfer_us += elapsed_us(t0);
        stats.stages = stages;
        debug_assert!(
            ws.mid[0].as_slice().iter().all(|v| v.is_finite()),
            "non-finite potential leaving the multilevel pipeline"
        );
        stats
    }

    /// Long-range (mesh) part, steps 1–6, reusing `ws` — the steady-state
    /// form of [`Self::long_range`]: zero heap allocations once warm, hot
    /// loops parallel on the workspace's pool, results bitwise identical
    /// at any thread count.
    pub fn long_range_with<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
    ) -> (&'w CoulombResult, TmeStats) {
        self.long_range_on(ws, system, Isa::detect())
    }

    /// [`Self::long_range_with`] with the grid passes and interpolation on
    /// `isa` — the one instantiation an execute call detects.
    fn long_range_on<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
        isa: Isa,
    ) -> (&'w CoulombResult, TmeStats) {
        let pool = Arc::clone(&ws.pool);
        let t_entry = Instant::now();
        // Step 1: charge assignment, each x-plane part into its own slab
        // (the LRU's domain layout), slabs summed in part order.
        let t0 = Instant::now();
        let (pos, q) = (&system.pos, &system.q);
        self.ops
            .assign_binned_into(pos, q, &pool, &mut ws.bins, &mut ws.q[0]);
        let assign_us = elapsed_us(t0);
        // Steps 2–5.
        let mut stats = self.grid_potential_on(ws, isa);
        // Step 6: back interpolation of forces and potentials.
        let t0 = Instant::now();
        let (phi, bins) = (&ws.mid[0], &ws.bins);
        self.ops
            .interpolate_binned_into(phi, pos, q, &pool, isa, bins, &mut ws.interp);
        stats.stages.interpolate_us = elapsed_us(t0);
        stats.stages.assign_us = assign_us;
        stats.stages.total_us = elapsed_us(t_entry);
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

    /// Full Coulomb interaction reusing `ws` — the steady-state form of
    /// [`Self::compute`]: zero heap allocations once warm, deterministic
    /// at any thread count.
    pub fn compute_with<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
    ) -> &'w CoulombResult {
        self.compute_with_stats(ws, system).0
    }

    /// [`Self::compute_with`] returning the execution statistics of the
    /// evaluation alongside the result (work counters from the mesh part,
    /// stage timings covering the whole call including the short-range
    /// sum) — the form service layers use to report per-request cost.
    pub fn compute_with_stats<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
    ) -> (&'w CoulombResult, TmeStats) {
        let t_entry = Instant::now();
        let isa = Isa::detect();
        let mut stats = self.long_range_on(ws, system, isa).1;
        let pool = Arc::clone(&ws.pool);
        // Short-range pairs through the plan-time kernel table on the SoA
        // cell-list layout (DESIGN.md §15) — the table-lookup pipeline
        // analogue every backend's real-space sum runs on.
        let t0 = Instant::now();
        cells::short_range_cells_on(
            isa,
            system,
            &self.pair_table,
            self.params.r_cut,
            &pool,
            &mut ws.cells,
            &mut ws.out,
        );
        stats.stages.short_range_us = elapsed_us(t0);
        ws.out.accumulate(&ws.mesh_out);
        pairwise::self_term_into(system, self.params.alpha, &mut ws.out);
        stats.stages.total_us = elapsed_us(t_entry);
        debug_assert!(
            ws.out.energy.is_finite()
                && ws
                    .out
                    .forces
                    .iter()
                    .all(|f| f.iter().all(|c| c.is_finite())),
            "non-finite energy/force leaving Tme::compute_with (energy = {})",
            ws.out.energy
        );
        (&ws.out, stats)
    }

    /// [`Self::compute_with`] with the hot-path invariants promoted to
    /// *release-mode* checks returning a typed
    /// [`TmeRecoverableError`] instead of a debug-only abort: the inputs
    /// must be finite, the pair-kernel table must cover the cutoff, and
    /// the energy/forces leaving the solver must be finite. On `Err` the
    /// caller discards the step or re-plans — DESIGN.md §11.
    pub fn try_compute_with<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
    ) -> Result<&'w CoulombResult, TmeRecoverableError> {
        self.try_compute_with_stats(ws, system).map(|(out, _)| out)
    }

    /// [`Self::try_compute_with`] returning the execution statistics
    /// alongside the result — the checked entry point service layers use.
    pub fn try_compute_with_stats<'w>(
        &self,
        ws: &'w mut TmeWorkspace,
        system: &CoulombSystem,
    ) -> Result<(&'w CoulombResult, TmeStats), TmeRecoverableError> {
        validate_inputs(system)?;
        // Table-domain violation: the tabulated short-range kernels clamp
        // silently past r_max, so a cutoff beyond the table is corrupt
        // output, not a crash — exactly the release-mode hazard this
        // entry point exists to catch.
        let r_table = self.pair_table.r_max();
        if r_table < self.params.r_cut {
            return Err(TmeRecoverableError::PairTableDomain {
                r_cut: self.params.r_cut,
                r_table,
            });
        }
        let stats = self.compute_with_stats(ws, system).1;
        validate_result(&ws.out)?;
        Ok((&ws.out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_from_rtol;
    use crate::solver::TmeParams;

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

    fn params(n: usize, levels: u32) -> TmeParams {
        let r_cut = 1.0;
        TmeParams {
            n: [n; 3],
            p: 6,
            levels,
            gc: 8,
            m_gaussians: 4,
            alpha: alpha_from_rtol(r_cut, 1e-4),
            r_cut,
        }
    }

    /// The allocating wrapper and the workspace path are the same code, so
    /// their results must agree to the last bit.
    #[test]
    fn wrapper_matches_workspace_bitwise() {
        let box_l = 4.0;
        let sys = random_neutral_system(40, box_l, 17);
        let tme = Tme::new(params(16, 1), [box_l; 3]);
        let via_wrapper = tme.compute(&sys);
        let mut ws = tme.make_workspace();
        // Run twice: the second pass must not be polluted by the first.
        tme.compute_with(&mut ws, &sys);
        let via_ws = tme.compute_with(&mut ws, &sys);
        assert_eq!(via_wrapper.energy.to_bits(), via_ws.energy.to_bits());
        assert_eq!(via_wrapper.forces.len(), via_ws.forces.len());
        for (a, b) in via_wrapper.forces.iter().zip(&via_ws.forces) {
            for c in 0..3 {
                assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        for (a, b) in via_wrapper.potentials.iter().zip(&via_ws.potentials) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Two-level cascade through the workspace matches the wrapper too
    /// (exercises the top/mid prolongation split borrows).
    #[test]
    fn two_level_wrapper_matches_workspace() {
        let box_l = 8.0;
        let sys = random_neutral_system(30, box_l, 23);
        let tme = Tme::new(params(32, 2), [box_l; 3]);
        let via_wrapper = tme.compute(&sys);
        let mut ws = tme.make_workspace();
        let via_ws = tme.compute_with(&mut ws, &sys);
        assert_eq!(via_wrapper.energy.to_bits(), via_ws.energy.to_bits());
    }

    /// The checked entry point is the same computation: identical bits on
    /// a healthy system, and a typed (not panicking) rejection of
    /// non-finite inputs in release builds.
    #[test]
    fn try_compute_validates_and_matches_bitwise() {
        let box_l = 4.0;
        let sys = random_neutral_system(30, box_l, 31);
        let tme = Tme::new(params(16, 1), [box_l; 3]);
        let mut ws = tme.make_workspace();
        let plain = tme.compute_with(&mut ws, &sys).clone();
        let mut ws2 = tme.make_workspace();
        let checked = match tme.try_compute_with(&mut ws2, &sys) {
            Ok(out) => out.clone(),
            Err(e) => panic!("healthy system rejected: {e}"),
        };
        assert_eq!(plain.energy.to_bits(), checked.energy.to_bits());
        for (a, b) in plain.forces.iter().zip(&checked.forces) {
            for c in 0..3 {
                assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        // Poison one position: typed error naming the atom.
        let mut bad = random_neutral_system(30, box_l, 31);
        bad.pos[7][1] = f64::NAN;
        assert_eq!(
            tme.try_compute_with(&mut ws2, &bad).err(),
            Some(TmeRecoverableError::NonFiniteInput { atom: 7 })
        );
        let mut bad_q = random_neutral_system(30, box_l, 31);
        bad_q.q[3] = f64::INFINITY;
        assert_eq!(
            tme.try_compute_with(&mut ws2, &bad_q).err(),
            Some(TmeRecoverableError::NonFiniteInput { atom: 3 })
        );
    }

    /// Step 1 through the spatial slabs is the serial assignment up to
    /// summation order.
    #[test]
    fn charge_grid_is_serial_assignment_up_to_order() {
        let box_l = 8.0;
        let sys = random_neutral_system(1100, box_l, 41);
        let tme = Tme::new(params(32, 2), [box_l; 3]);
        let mut ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(2)));
        tme.long_range_with(&mut ws, &sys);
        let want = tme.ops.assign(&sys.pos, &sys.q);
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in ws.charge_mut(0).as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() <= 1e-14 * scale, "{a} vs {b}");
        }
    }

    /// Same plan, different thread counts: bitwise identical — on a 16³,
    /// L = 1 plan (every g_c = 8 pass folded) and on a 32³, L = 2 plan
    /// whose first level fits the 17 taps (the 16³ level under it folds,
    /// the top is 8³). The 100 atoms run every transfer part inline; the
    /// 2,200 dispatch them at 2 and 4 threads.
    #[test]
    fn thread_count_does_not_change_bits() {
        for (n, levels, box_l, pairs) in [(16, 1, 4.0, 50), (32, 2, 8.0, 50), (32, 2, 8.0, 1100)] {
            let sys = random_neutral_system(pairs, box_l, 29);
            let tme = Tme::new(params(n, levels), [box_l; 3]);
            let run = |threads| {
                let mut ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(threads)));
                tme.compute_with(&mut ws, &sys).clone()
            };
            let r1 = run(1);
            for threads in [2, 4] {
                let rt = run(threads);
                assert_eq!(r1.energy.to_bits(), rt.energy.to_bits(), "{n}³ × {threads}");
                for (a, b) in r1.forces.iter().zip(&rt.forces) {
                    for c in 0..3 {
                        assert_eq!(a[c].to_bits(), b[c].to_bits(), "{n}³ × {threads}");
                    }
                }
            }
        }
    }
}
