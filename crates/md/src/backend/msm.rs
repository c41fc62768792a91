//! The MSM baseline behind the backend interface.

use super::*;
use tme_core::{Msm, MsmWorkspace};

/// Multilevel summation with direct (untensorised) convolutions.
pub struct MsmBackend {
    msm: Msm,
    header: PlanHeader,
}

impl MsmBackend {
    /// Plan an MSM with direct multilevel convolutions.
    pub fn new(params: TmeParams, box_l: V3) -> Result<Self, BackendConfigError> {
        // As for the TME: `Msm::try_new` does not bound r_cut against the
        // box, the header does.
        let header = PlanHeader::new(&BackendParams::Msm(params), box_l)?;
        Ok(Self {
            msm: Msm::try_new(params, box_l)?,
            header,
        })
    }
}

impl LongRangeBackend for MsmBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        let ws = self.msm.make_workspace_with_pool(Arc::clone(&pool));
        BackendWorkspace::new(pool, ws)
    }

    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        let (_, m) = ws.split::<MsmWorkspace>()?;
        let (mesh, _) = self.msm.long_range_into(system, m);
        out.copy_from(mesh);
        Ok(())
    }
}
