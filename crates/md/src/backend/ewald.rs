//! The direct Ewald oracle behind the backend interface.

use super::*;
use tme_reference::{Ewald, EwaldScratch};

/// Direct Ewald summation: exact real-space pairs + exact lattice sum.
pub struct EwaldBackend {
    ewald: Ewald,
    header: PlanHeader,
}

impl EwaldBackend {
    /// Plan a direct Ewald summation.
    pub fn new(params: EwaldParams, box_l: V3) -> Result<Self, BackendConfigError> {
        let header = PlanHeader::new(&BackendParams::Ewald(params), box_l)?;
        if params.n_cut < 1 {
            return Err(BackendConfigError::BadKspace {
                n_cut: params.n_cut,
            });
        }
        Ok(Self {
            ewald: Ewald::new(params),
            header,
        })
    }
}

impl LongRangeBackend for EwaldBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        let scratch = self.ewald.make_scratch(Arc::clone(&pool));
        BackendWorkspace::new(pool, scratch)
    }

    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            let (_, s) = ws.real_and_scratch::<EwaldScratch>()?;
            self.ewald.reciprocal_into(system, s, out);
            Ok(())
        })
    }

    /// The one execute path that is *not* the shared composition: this
    /// backend is the oracle every accuracy test measures the others
    /// against, so its real-space pairs stay on `tme-reference`'s exact
    /// `erfc` O(N²) loop — independent of the cell kernel and the kernel
    /// table it is used to check (the single a5 allowlist entry).
    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            let (_, s) = ws.real_and_scratch::<EwaldScratch>()?;
            self.ewald.compute_into(system, s, out);
            Ok(BackendStats::default())
        })
    }
}
