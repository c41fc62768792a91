//! The mesh-free cutoff model behind the backend interface.

use super::*;

/// Truncated pair electrostatics with no long-range part: the shared
/// real-space sum on an `erfc(αr)/r` table and nothing else (no mesh, no
/// self term). The two ablation baselines differ only in α:
///
/// * α = 0 — plain truncated `1/r`, "what does neglecting the mesh do to
///   stability". It does NOT conserve energy (pairs crossing the cutoff
///   jump by `q_i q_j / r_c`).
/// * α > 0 — Wolf-style screening (Wolf et al. 1999): the pair
///   interaction decays smoothly to ~`erfc(α r_c)` at the cutoff, so the
///   dynamics conserve energy at the price of a systematic long-range
///   bias — the cheap local approximation mesh methods exist to beat.
pub struct CutoffBackend {
    header: PlanHeader,
    /// `erfc(αr)/r` on `r ≤ r_cut` (the bare `1/r` at α = 0) — with no
    /// solver under it, the backend owns the plan's one table itself.
    table: PairKernelTable,
}

impl CutoffBackend {
    /// Screening `alpha` (0 for the bare cutoff; `tme_core::alpha_from_rtol`
    /// picks one from the pair energy tolerated at the cutoff) truncated
    /// at `r_cut`. The plan has no box: the execute path refuses a system
    /// with an edge below `2·r_cut` as
    /// [`TmeRecoverableError::BoxMismatch`].
    pub fn new(alpha: f64, r_cut: f64) -> Result<Self, BackendConfigError> {
        if !(alpha.is_finite() && alpha >= 0.0 && r_cut.is_finite() && r_cut > 0.0) {
            return Err(BackendConfigError::BadSplitting { alpha, r_cut });
        }
        let kind = BackendKind::Cutoff;
        Ok(Self {
            header: PlanHeader {
                kind,
                alpha,
                r_cut,
                fingerprint: Fnv1a::new().mix(&kind).mix(&alpha).mix(&r_cut).finish(),
                box_l: None,
            },
            table: PairKernelTable::new(alpha, r_cut),
        })
    }
}

impl LongRangeBackend for CutoffBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        BackendWorkspace::new(pool, ())
    }

    fn mesh_into(
        &self,
        system: &CoulombSystem,
        _ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            out.reset(system.len());
            Ok(())
        })
    }

    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError> {
        compute_shared(self, &self.table, system, ws, out)
    }
}
