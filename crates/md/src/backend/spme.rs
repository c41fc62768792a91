//! SPME behind the backend interface, with the B-spline or the PSWF
//! window.

use super::*;
use tme_mesh::window::PswfWindow;
use tme_reference::{Spme, SpmeScratch};

/// Parameters of a B-spline SPME plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpmeParams {
    /// Grid numbers per axis; powers of two (our FFT).
    pub n: [usize; 3],
    /// B-spline order; even, `2..=12`, ≤ the smallest grid number.
    pub p: usize,
    /// Ewald splitting parameter α (nm⁻¹).
    pub alpha: f64,
    /// Real-space cutoff (nm), ≤ half the smallest box edge.
    pub r_cut: f64,
}

/// Parameters of a PSWF-window SPME plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PswfParams {
    /// Grid numbers per axis; powers of two.
    pub n: [usize; 3],
    /// Window support in grid points; even, `2..=12`, ≤ min grid number.
    pub p: usize,
    /// Ewald splitting parameter α (nm⁻¹).
    pub alpha: f64,
    /// Real-space cutoff (nm).
    pub r_cut: f64,
    /// PSWF bandwidth c, or `0.0` for the tuned default
    /// [`PswfWindow::for_order`] (c = 1.1·π·p/2). Explicit values must
    /// keep the band edge at or above Nyquist (c ≥ π·p/2): below it the
    /// deconvolution divides by the window's oscillating out-of-band
    /// leakage floor and the forces are garbage.
    pub shape: f64,
}

/// The wire and fingerprint layout: the fields in declaration order.
impl Codec for SpmeParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.n.encode(s);
        self.p.encode(s);
        self.alpha.encode(s);
        self.r_cut.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            n: r.decode()?,
            p: r.decode()?,
            alpha: r.decode()?,
            r_cut: r.decode()?,
        })
    }
}

/// The wire and fingerprint layout: the fields in declaration order.
impl Codec for PswfParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.n.encode(s);
        self.p.encode(s);
        self.alpha.encode(s);
        self.r_cut.encode(s);
        self.shape.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            n: r.decode()?,
            p: r.decode()?,
            alpha: r.decode()?,
            r_cut: r.decode()?,
            shape: r.decode()?,
        })
    }
}

/// Smooth particle-mesh Ewald — [`super::BackendKind::Spme`] or
/// [`super::BackendKind::SpmePswf`] by the window it was planned with.
pub struct SpmeBackend {
    spme: Spme,
    header: PlanHeader,
}

impl SpmeBackend {
    /// Plan a B-spline SPME.
    pub fn new(params: SpmeParams, box_l: V3) -> Result<Self, BackendConfigError> {
        check_window(params.n, params.p)?;
        let header = PlanHeader::new(&BackendParams::Spme(params), box_l)?;
        Ok(Self {
            spme: Spme::new(params.n, box_l, params.alpha, params.p, params.r_cut),
            header,
        })
    }

    /// Plan a PSWF-window SPME. `shape == 0` selects the tuned default
    /// bandwidth; explicit bandwidths below π·p/2 are rejected (the band
    /// edge must not fall below Nyquist — see [`PswfParams::shape`]).
    pub fn with_pswf(params: PswfParams, box_l: V3) -> Result<Self, BackendConfigError> {
        check_window(params.n, params.p)?;
        let header = PlanHeader::new(&BackendParams::SpmePswf(params), box_l)?;
        let nyquist = std::f64::consts::PI * params.p as f64 / 2.0;
        let window = if params.shape == 0.0 {
            PswfWindow::for_order(params.p)
        } else if params.shape.is_finite() && params.shape >= nyquist {
            PswfWindow::new(params.p, params.shape)
        } else {
            return Err(BackendConfigError::BadShape { c: params.shape });
        };
        Ok(Self {
            spme: Spme::with_pswf(params.n, box_l, params.alpha, params.r_cut, window),
            header,
        })
    }
}

impl LongRangeBackend for SpmeBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        let scratch = self.spme.make_scratch(Arc::clone(&pool));
        BackendWorkspace::new(pool, scratch)
    }

    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        let (_, s) = ws.real_and_scratch::<SpmeScratch>()?;
        self.spme.reciprocal_into(system, s, out);
        Ok(())
    }

    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError> {
        compute_shared(self, self.spme.pair_table(), system, ws, out)
    }
}
