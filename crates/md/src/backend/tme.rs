//! The multilevel pipeline behind the backend interface.

use super::*;
use tme_core::{Tme, TmeWorkspace};

/// The paper's tensor-structured multilevel Ewald pipeline
/// ([`BackendKind::Tme`]).
pub struct TmeBackend {
    tme: Tme,
    header: PlanHeader,
}

impl TmeBackend {
    /// Plan the TME for `params` in `box_l`.
    pub fn new(params: TmeParams, box_l: V3) -> Result<Self, BackendConfigError> {
        // Header first: `Tme::try_new` validates α/r_cut against zero but
        // not against the box, and the minimum-image bound must hold
        // before the execute path can reach the pair sum's assert.
        let header = PlanHeader::new(&BackendParams::Tme(params), box_l)?;
        Ok(Self {
            tme: Tme::try_new(params, box_l)?,
            header,
        })
    }

    /// The underlying solver (for stage-level instrumentation).
    pub fn tme(&self) -> &Tme {
        &self.tme
    }
}

impl LongRangeBackend for TmeBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        let ws = TmeWorkspace::with_pool(&self.tme, Arc::clone(&pool));
        BackendWorkspace::new(pool, ws)
    }

    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            let (_, t) = ws.real_and_scratch::<TmeWorkspace>()?;
            out.copy_from(self.tme.long_range_with(t, system).0);
            Ok(())
        })
    }

    /// `Tme::try_compute_with_stats` is the shared composition — same
    /// validation functions, same cell kernel — run inside `tme-core`,
    /// where each stage is timed for [`BackendStats::tme`]. Only the box
    /// is checked here; the input check is `tme-core`'s.
    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError> {
        self.header.check_box(system)?;
        let (_, t) = ws.real_and_scratch::<TmeWorkspace>()?;
        let (res, stats) = self.tme.try_compute_with_stats(t, system)?;
        out.copy_from(res);
        Ok(BackendStats { tme: Some(stats) })
    }
}
