//! The long-range backend layer: one plan/execute interface over every
//! solver in the workspace (DESIGN.md §14), one file per solver.
//!
//! Planning turns a [`BackendParams`] value plus a box into an immutable
//! [`LongRangeBackend`] plan (`Arc`-shared, `Send + Sync`); execution
//! threads an opaque [`BackendWorkspace`] through
//! [`LongRangeBackend::compute_into`]. A plan states what it is once, in
//! the [`PlanHeader`] built at plan time (kind, splitting, fingerprint,
//! grid size, the `erfc(αr)/r` kernel table); the trait's accessors are
//! provided methods over it. Each backend implements its workspace,
//! `mesh_into` and the required `compute_into`, the full Coulomb sum:
//!
//! ```text
//! check box + inputs → mesh → + real space (cell kernel) → + self term → validate result
//! ```
//!
//! SPME and the cutoff model run that sequence as the shared
//! `compute_shared` on their table; the TME cascade, the slab and the
//! Ewald oracle each run their own inside the same check-in/validate-out
//! envelope (see [`LongRangeBackend::compute_into`]), and every
//! `mesh_into` runs its mesh part inside it too. The contract every
//! backend honours:
//!
//! * **Zero-allocation steady state** — after the first call on a given
//!   atom count, `compute_into`/`mesh_into` perform no heap allocation
//!   (`cargo xtask analyze`, rule a1).
//! * **No panics on the execute path** — from `compute_into` and
//!   `mesh_into` alike, unusable inputs, a system outside the plan's box,
//!   a non-finite result or another plan's workspace come back as
//!   [`TmeRecoverableError`] (rule a2); configuration errors are rejected
//!   at plan time as [`BackendConfigError`].
//! * **Bitwise determinism** — results are independent of the workspace
//!   pool's thread count (fixed-partition reductions, serial lattice and
//!   cascade sums).
//! * **One real-space path** — `erfc` pairs run through
//!   [`tme_mesh::cells`] on the plan's table (rule a5); the exact O(N²)
//!   loop of [`tme_mesh::pairwise`] is the oracle, reached only through
//!   [`EwaldBackend`].
//! * **Stable fingerprint** — [`BackendParams::fingerprint`] hashes the
//!   backend kind, every physical parameter and the box edge bits; equal
//!   fingerprints mean interchangeable plans (the serve plan cache keys
//!   on it).

mod cutoff;
mod ewald;
mod slab;
mod spme;
mod tme;

pub use cutoff::CutoffBackend;
pub use ewald::EwaldBackend;
pub use slab::{slab_dipole_correction, slab_extend_system, SlabBackend, SlabParams};
pub use spme::{PswfParams, SpmeBackend, SpmeParams};
pub use tme::TmeBackend;

use std::any::Any;
use std::sync::Arc;

// The per-backend files glob-import this module: one vocabulary, stated
// here.
use tme_core::errors::{validate_inputs, validate_result};
use tme_core::{TmeConfigError, TmeParams, TmeRecoverableError, TmeStats};
use tme_mesh::cells::{self, CellScratch};
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::pairwise;
use tme_num::bytes::{ByteReader, Codec, CodecError, Fnv1a, Sink};
use tme_num::table::PairKernelTable;
use tme_num::vec3::V3;
use tme_num::Pool;
use tme_reference::EwaldParams;

/// Discriminant of a long-range backend. The values double as the wire
/// tags of the serve protocol's backend field — [`BackendKind::Cutoff`]
/// covers the MD-harness-local cutoff model ([`CutoffBackend`]) and is
/// deliberately *not* decodable from the wire:
/// a served plan always carries a real long-range solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BackendKind {
    /// Tensor-structured multilevel Ewald (the paper's pipeline).
    Tme = 1,
    /// Smooth particle-mesh Ewald with the B-spline window.
    Spme = 2,
    /// SPME with the prolate-spheroidal (PSWF) window.
    SpmePswf = 3,
    /// Direct Ewald summation (the reference oracle).
    Ewald = 4,
    // Tag 5 stays unused: it named the B-spline MSM until protocol
    // version 6, and the tags are hashed into plan fingerprints, so
    // renumbering would move every later kind's fingerprint.
    /// Quasi-2D slab: image charges + Yeh–Berkowitz correction.
    Slab = 6,
    /// Mesh-free cutoff models (not wire-encodable).
    Cutoff = 7,
}

impl BackendKind {
    /// Wire tag of this kind (the `#[repr(u8)]` discriminant).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a wire tag. Returns `None` for unknown tags *and* for
    /// [`BackendKind::Cutoff`], which is not a servable backend.
    pub fn from_tag(tag: u8) -> Option<Self> {
        use BackendKind::*;
        [Tme, Spme, SpmePswf, Ewald, Slab]
            .into_iter()
            .find(|kind| kind.tag() == tag)
    }

    /// Short human-readable name (also used in bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::Tme => "TME",
            Self::Spme => "SPME",
            Self::SpmePswf => "SPME-PSWF",
            Self::Ewald => "Ewald",
            Self::Slab => "slab",
            Self::Cutoff => "cutoff",
        }
    }
}

/// Backend-agnostic plan parameters — everything [`plan_backend`] needs
/// besides the box. One variant per servable [`BackendKind`]. Two plans
/// are interchangeable iff their [`Self::fingerprint`]s (which also mix
/// in the box) are equal; structural `==` is only field equality.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendParams {
    /// TME with the full multilevel parameter set.
    Tme(TmeParams),
    /// B-spline SPME.
    Spme(SpmeParams),
    /// PSWF-window SPME.
    SpmePswf(PswfParams),
    /// Direct Ewald summation.
    Ewald(EwaldParams),
    /// Quasi-2D slab geometry.
    Slab(SlabParams),
}

/// One byte, the wire tag. Decoding refuses [`BackendKind::Cutoff`]:
/// a served plan always carries a real long-range solver.
impl Codec for BackendKind {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.tag().encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.decode_tag(Self::from_tag)
    }
}

/// The kind tag, then the variant's parameters.
impl Codec for BackendParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.kind().encode(s);
        match self {
            Self::Tme(p) => p.encode(s),
            Self::Spme(p) => p.encode(s),
            Self::SpmePswf(p) => p.encode(s),
            Self::Ewald(p) => p.encode(s),
            Self::Slab(p) => p.encode(s),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        Ok(match r.decode()? {
            BackendKind::Tme => Self::Tme(r.decode()?),
            BackendKind::Spme => Self::Spme(r.decode()?),
            BackendKind::SpmePswf => Self::SpmePswf(r.decode()?),
            BackendKind::Ewald => Self::Ewald(r.decode()?),
            BackendKind::Slab => Self::Slab(r.decode()?),
            kind @ BackendKind::Cutoff => {
                return Err(CodecError::UnknownTag {
                    at,
                    got: kind.tag(),
                })
            }
        })
    }
}

impl BackendParams {
    /// The backend kind this parameter set plans.
    pub fn kind(&self) -> BackendKind {
        match self {
            Self::Tme(_) => BackendKind::Tme,
            Self::Spme(_) => BackendKind::Spme,
            Self::SpmePswf(_) => BackendKind::SpmePswf,
            Self::Ewald(_) => BackendKind::Ewald,
            Self::Slab(_) => BackendKind::Slab,
        }
    }

    /// What every variant declares: `(α, r_cut, grid)`.
    fn common(&self) -> (f64, f64, Option<[usize; 3]>) {
        match self {
            Self::Tme(p) => (p.alpha, p.r_cut, Some(p.n)),
            Self::Spme(p) => (p.alpha, p.r_cut, Some(p.n)),
            Self::SpmePswf(p) => (p.alpha, p.r_cut, Some(p.n)),
            Self::Ewald(p) => (p.alpha, p.r_cut, None),
            Self::Slab(p) => (p.alpha, p.r_cut, Some(p.n)),
        }
    }

    /// Finest-grid numbers per axis (the extended box's, for the slab);
    /// `None` for the mesh-free direct sum.
    pub fn grid(&self) -> Option<[usize; 3]> {
        self.common().2
    }

    /// Stable plan fingerprint: the wire encoding of these parameters
    /// (kind tag, every field, floats by IEEE-754 bit pattern), then the
    /// box edges, run into the [`Fnv1a`] sink. Equal fingerprints ⇒
    /// interchangeable plans; the value is stable across processes and
    /// platforms, so the serve plan cache and the router's shard choice
    /// can key on it.
    pub fn fingerprint(&self, box_l: V3) -> u64 {
        Fnv1a::new().mix(self).mix(&box_l).finish()
    }
}

/// Plan-time rejection of an unusable backend configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendConfigError {
    /// TME configuration rejected by the multilevel planner.
    Tme(TmeConfigError),
    /// A mesh grid number is not a power of two ≥ 2 (FFT requirement).
    GridNotPow2 {
        /// The offending grid numbers.
        n: [usize; 3],
    },
    /// Window order unusable: must be even, in `2..=12`, and ≤ the
    /// smallest grid number.
    BadOrder {
        /// The offending order.
        p: usize,
    },
    /// Splitting unusable: α must be finite and > 0, and the cutoff must
    /// satisfy `0 < r_cut ≤ min(L)/2` (minimum-image bound of the box
    /// the short-range sum runs in).
    BadSplitting {
        /// Splitting parameter.
        alpha: f64,
        /// Real-space cutoff.
        r_cut: f64,
    },
    /// PSWF bandwidth unusable: c must be finite and ≥ π·p/2 (band edge
    /// at or above Nyquist), or `0.0` for the default.
    BadShape {
        /// The offending bandwidth.
        c: f64,
    },
    /// Slab wall reflection coefficient outside `[-1, 1]` or non-finite.
    BadReflection {
        /// The offending coefficient.
        gamma: f64,
    },
    /// Slab image layers per wall must be 0 or 1.
    BadImages {
        /// The offending layer count.
        n_images: u32,
    },
    /// Ewald reciprocal cutoff must be ≥ 1.
    BadKspace {
        /// The offending cutoff.
        n_cut: i64,
    },
    /// A box edge is non-finite or ≤ 0.
    BadBox {
        /// The offending box.
        box_l: V3,
    },
}

impl std::fmt::Display for BackendConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tme(e) => write!(f, "{e}"),
            Self::GridNotPow2 { n } => {
                write!(f, "grid numbers {n:?} must be powers of two >= 2")
            }
            Self::BadOrder { p } => {
                write!(f, "window order {p} must be even, in 2..=12, <= min grid number")
            }
            Self::BadSplitting { alpha, r_cut } => write!(
                f,
                "splitting alpha={alpha}, r_cut={r_cut} unusable (need finite alpha > 0, 0 < r_cut <= min(L)/2)"
            ),
            Self::BadShape { c } => write!(
                f,
                "PSWF bandwidth c={c} unusable (need finite c >= pi*p/2, or 0 for the default)"
            ),
            Self::BadReflection { gamma } => {
                write!(f, "slab reflection coefficient {gamma} outside [-1, 1]")
            }
            Self::BadImages { n_images } => {
                write!(f, "slab image layers {n_images} unsupported (0 or 1)")
            }
            Self::BadKspace { n_cut } => {
                write!(f, "Ewald reciprocal cutoff {n_cut} must be >= 1")
            }
            Self::BadBox { box_l } => {
                write!(f, "box edges {box_l:?} must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for BackendConfigError {}

impl From<TmeConfigError> for BackendConfigError {
    fn from(e: TmeConfigError) -> Self {
        Self::Tme(e)
    }
}

/// Execution statistics of one [`LongRangeBackend::compute_into`] call.
#[derive(Clone, Debug, Default)]
pub struct BackendStats {
    /// Multilevel pipeline counters and stage timings, when the backend
    /// is the TME.
    pub tme: Option<TmeStats>,
}

/// The box and splitting rule every backend plan obeys: a finite,
/// positive box, α finite and > 0, and `0 < r_cut ≤ min(box)/2` (the
/// real-space sum's minimum-image requirement, asserted there).
pub fn check_splitting(box_l: V3, alpha: f64, r_cut: f64) -> Result<(), BackendConfigError> {
    if !box_l.iter().all(|l| l.is_finite() && *l > 0.0) {
        return Err(BackendConfigError::BadBox { box_l });
    }
    let l_min = box_l.iter().cloned().fold(f64::INFINITY, f64::min);
    if !(alpha.is_finite() && alpha > 0.0 && r_cut > 0.0 && r_cut <= l_min / 2.0 + 1e-12) {
        return Err(BackendConfigError::BadSplitting { alpha, r_cut });
    }
    Ok(())
}

/// What a plan knows about itself, stated once at plan time: the trait
/// accessors of [`LongRangeBackend`] are provided methods over this.
#[derive(Debug)]
pub struct PlanHeader {
    kind: BackendKind,
    alpha: f64,
    r_cut: f64,
    fingerprint: u64,
    /// The box the plan was built for; `None` for the box-free cutoff
    /// model.
    box_l: Option<V3>,
}

impl PlanHeader {
    /// Header of a servable plan in the (real) box `box_l`, validated by
    /// [`check_splitting`] so the execute path cannot panic and, run ahead
    /// of the solver's constructor, that constructor's table asserts
    /// cannot fire.
    fn new(params: &BackendParams, box_l: V3) -> Result<Self, BackendConfigError> {
        let (alpha, r_cut, _) = params.common();
        check_splitting(box_l, alpha, r_cut)?;
        Ok(Self {
            kind: params.kind(),
            alpha,
            r_cut,
            fingerprint: params.fingerprint(box_l),
            box_l: Some(box_l),
        })
    }

    fn has_mesh(&self) -> bool {
        self.kind != BackendKind::Cutoff
    }

    /// `system` is in the plan's box: the same edge bits, or for the
    /// box-free cutoff model every edge at least `2·r_cut` (the pair sum's
    /// minimum-image bound).
    fn check_box(&self, system: &CoulombSystem) -> Result<(), TmeRecoverableError> {
        let box_l = system.box_l;
        let fits = match self.box_l {
            Some(b) => b.map(f64::to_bits) == box_l.map(f64::to_bits),
            None => box_l
                .iter()
                .all(|l| l.is_finite() && self.r_cut <= l / 2.0 + 1e-12),
        };
        fits.then_some(())
            .ok_or(TmeRecoverableError::BoxMismatch { box_l })
    }
}

/// The checked envelope of an execute entry (DESIGN.md §14.1 promise 2):
/// `system` in the plan's box with usable inputs before `body`, a finite
/// result in `out` after it.
fn checked<T>(
    plan: &PlanHeader,
    system: &CoulombSystem,
    out: &mut CoulombResult,
    body: impl FnOnce(&mut CoulombResult) -> Result<T, TmeRecoverableError>,
) -> Result<T, TmeRecoverableError> {
    plan.check_box(system)?;
    validate_inputs(system)?;
    let value = body(out)?;
    validate_result(out)?;
    Ok(value)
}

/// The execute state every backend shares: the pool plus the cell-list
/// buffers and result slab of the real-space sum.
#[derive(Debug)]
struct RealSpace {
    pool: Arc<Pool>,
    cells: CellScratch,
    sum: CoulombResult,
}

impl RealSpace {
    /// `out += ` the `erfc(αr)/r` pairs inside the plan's cutoff, through
    /// the cell kernel on the plan's `table` (`erfc(αr)/r` on `r ≤ r_cut`;
    /// α = 0 tabulates the bare `1/r` of the unscreened cutoff), plus the
    /// Ewald self term when the plan has a mesh part to pair it with.
    fn add_to(
        &mut self,
        plan: &PlanHeader,
        table: &PairKernelTable,
        system: &CoulombSystem,
        out: &mut CoulombResult,
    ) {
        cells::short_range_cells_into(
            system,
            table,
            plan.r_cut,
            &self.pool,
            &mut self.cells,
            &mut self.sum,
        );
        out.accumulate(&self.sum);
        if plan.has_mesh() {
            pairwise::self_term_into(system, plan.alpha, out);
        }
    }
}

/// Opaque execute state. Built by
/// [`LongRangeBackend::make_workspace`] and threaded through
/// `mesh_into`/`compute_into`; passing it to a plan of a different kind
/// returns [`TmeRecoverableError::WorkspaceMismatch`] — the execute path
/// is allocation-free by contract, so it can never rebuild the buffers
/// itself.
#[derive(Debug)]
pub struct BackendWorkspace {
    real: RealSpace,
    /// The planning backend's own scratch — opaque to this module too, so
    /// no caller (and no other backend) can depend on its layout.
    solver: Box<dyn Any + Send>,
}

impl BackendWorkspace {
    fn new(pool: Arc<Pool>, solver: impl Any + Send) -> Self {
        Self {
            real: RealSpace {
                pool,
                cells: CellScratch::new(),
                sum: CoulombResult::default(),
            },
            solver: Box::new(solver),
        }
    }

    /// The pool and cell-kernel buffers of this workspace's real-space sum,
    /// for a caller that runs the cell kernel itself (the MD integrator's
    /// Lennard-Jones + Coulomb pairs) between `mesh_into` calls.
    pub fn cell_kernel(&mut self) -> (&Pool, &mut CellScratch) {
        (&self.real.pool, &mut self.real.cells)
    }

    /// The shared real-space state beside the scratch of a backend whose
    /// scratch type is `S`; any other backend's workspace is a mismatch.
    fn real_and_scratch<S: Any>(
        &mut self,
    ) -> Result<(&mut RealSpace, &mut S), TmeRecoverableError> {
        let solver = self.solver.downcast_mut();
        Ok((
            &mut self.real,
            solver.ok_or(TmeRecoverableError::WorkspaceMismatch)?,
        ))
    }
}

/// A planned long-range electrostatics solver.
///
/// Plans are immutable and shareable (`Arc<dyn LongRangeBackend>`); all
/// mutable state lives in the [`BackendWorkspace`]. Results are in
/// *reduced units* (no Coulomb constant) — the MD harness applies units,
/// and for mesh backends also the self term and exclusion corrections on
/// the `mesh_into` path. An impl supplies [`Self::header`],
/// [`Self::make_workspace_with_pool`], [`Self::mesh_into`] and
/// [`Self::compute_into`]; the accessors are provided.
pub trait LongRangeBackend: Send + Sync {
    /// The plan's header.
    fn header(&self) -> &PlanHeader;
    /// The backend's kind discriminant.
    fn kind(&self) -> BackendKind {
        self.header().kind
    }
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
    /// The Ewald splitting parameter the plan was built for (0 for the
    /// unscreened cutoff model).
    fn alpha(&self) -> f64 {
        self.header().alpha
    }
    /// Stable plan fingerprint ([`BackendParams::fingerprint`]).
    fn fingerprint(&self) -> u64 {
        self.header().fingerprint
    }
    /// Whether the plan adds an `erf(αr)/r` reciprocal part. When false
    /// the MD harness must not apply the Ewald self term or exclusion
    /// corrections — they cancel mesh contributions that were never
    /// added.
    fn has_mesh(&self) -> bool {
        self.header().has_mesh()
    }
    /// Build the execute workspace on a specific thread pool.
    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace;
    /// Build the execute workspace on the process-global pool.
    fn make_workspace(&self) -> BackendWorkspace {
        self.make_workspace_with_pool(Arc::clone(Pool::global()))
    }
    /// The mesh (reciprocal) contribution only — includes the window's
    /// smooth self-images, excludes the short-range and self terms. `out`
    /// is reset, not accumulated. Checked like [`Self::compute_into`]:
    /// a system outside the plan's box, an unusable input or a
    /// non-finite mesh result is a typed error.
    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError>;
    /// The full Coulomb sum (short-range + mesh + self term), with the
    /// per-call statistics. `out` is reset, not accumulated.
    ///
    /// SPME and the cutoff model run `compute_shared` on their table.
    /// Three impls keep the same check-in/validate-out envelope around
    /// their own sequence: the TME cascade (same sequence inside
    /// `tme-core`, which also times its stages), the slab (the sum runs on
    /// the extended box) and the Ewald oracle (exact `erfc` loop).
    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError>;
}

/// The one composition of the full sum, on the `table` the plan's solver
/// owns. The input check is `mesh_into`'s.
fn compute_shared(
    plan: &impl LongRangeBackend,
    table: &PairKernelTable,
    system: &CoulombSystem,
    ws: &mut BackendWorkspace,
    out: &mut CoulombResult,
) -> Result<BackendStats, TmeRecoverableError> {
    plan.mesh_into(system, ws, out)?;
    ws.real.add_to(plan.header(), table, system, out);
    validate_result(out)?;
    Ok(BackendStats::default())
}

/// FFT grid (powers of two ≥ 2) and window order (even, `2..=12`, ≤ the
/// smallest grid number) of the SPME-family backends.
fn check_window(n: [usize; 3], p: usize) -> Result<(), BackendConfigError> {
    if !n.iter().all(|d| *d >= 2 && d.is_power_of_two()) {
        return Err(BackendConfigError::GridNotPow2 { n });
    }
    let n_min = n.iter().copied().min().unwrap_or(0);
    if (2..=12).contains(&p) && p.is_multiple_of(2) && p <= n_min {
        Ok(())
    } else {
        Err(BackendConfigError::BadOrder { p })
    }
}

/// Plan a backend from its parameters and the (real) box. All
/// configuration validation happens here; the returned plan's execute
/// methods are panic-free on any finite input.
pub fn plan_backend(
    params: &BackendParams,
    box_l: V3,
) -> Result<Arc<dyn LongRangeBackend>, BackendConfigError> {
    Ok(match params {
        BackendParams::Tme(p) => Arc::new(TmeBackend::new(*p, box_l)?),
        BackendParams::Spme(p) => Arc::new(SpmeBackend::new(*p, box_l)?),
        BackendParams::SpmePswf(p) => Arc::new(SpmeBackend::with_pswf(*p, box_l)?),
        BackendParams::Ewald(p) => Arc::new(EwaldBackend::new(*p, box_l)?),
        BackendParams::Slab(p) => Arc::new(SlabBackend::new(*p, box_l)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_reference::Spme;

    fn test_system() -> CoulombSystem {
        CoulombSystem::new(
            vec![
                [1.0, 1.0, 1.0],
                [2.0, 2.2, 1.8],
                [3.1, 0.5, 2.6],
                [0.4, 3.2, 3.5],
            ],
            vec![1.0, -1.0, 0.5, -0.5],
            [4.0; 3],
        )
    }

    fn tme_params() -> TmeParams {
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: 2.0,
            r_cut: 1.2,
        }
    }

    fn all_params() -> Vec<BackendParams> {
        vec![
            BackendParams::Tme(tme_params()),
            BackendParams::Spme(SpmeParams {
                n: [16; 3],
                p: 6,
                alpha: 2.0,
                r_cut: 1.2,
            }),
            BackendParams::SpmePswf(PswfParams {
                n: [16; 3],
                p: 8,
                alpha: 2.0,
                r_cut: 1.2,
                shape: 0.0,
            }),
            BackendParams::Ewald(EwaldParams {
                alpha: 2.0,
                r_cut: 1.2,
                n_cut: 8,
            }),
            BackendParams::Slab(SlabParams {
                n: [16, 16, 64],
                p: 6,
                alpha: 2.0,
                r_cut: 1.2,
                gamma_top: 0.0,
                gamma_bot: 0.0,
                n_images: 0,
            }),
        ]
    }

    #[test]
    fn every_backend_plans_and_computes() {
        let sys = test_system();
        for params in all_params() {
            let plan = plan_backend(&params, sys.box_l).unwrap();
            assert_eq!(plan.kind(), params.kind());
            assert_eq!(plan.fingerprint(), params.fingerprint(sys.box_l));
            let mut ws = plan.make_workspace();
            let mut out = CoulombResult::default();
            let stats = plan.compute_into(&sys, &mut ws, &mut out).unwrap();
            assert_eq!(out.forces.len(), sys.len(), "{}", plan.name());
            assert!(out.energy.is_finite(), "{}", plan.name());
            assert!(
                out.forces.iter().flatten().all(|f| f.is_finite()),
                "{}",
                plan.name()
            );
            // Only the TME cascade reports its counters.
            assert_eq!(
                stats.tme.is_some(),
                plan.kind() == BackendKind::Tme,
                "{}",
                plan.name()
            );
            assert_eq!(
                params.grid().is_some(),
                plan.kind() != BackendKind::Ewald,
                "{}",
                plan.name()
            );
            // The mesh part alone is also well-formed.
            let mut mesh = CoulombResult::default();
            plan.mesh_into(&sys, &mut ws, &mut mesh).unwrap();
            assert_eq!(mesh.forces.len(), sys.len(), "{}", plan.name());
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let box_l = [4.0; 3];
        let all = all_params();
        let prints: Vec<u64> = all.iter().map(|p| p.fingerprint(box_l)).collect();
        // Stable: recomputing gives the same value.
        for (p, fp) in all.iter().zip(&prints) {
            assert_eq!(p.fingerprint(box_l), *fp);
        }
        // Distinct across kinds.
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "{:?} vs {:?}", all[i], all[j]);
            }
        }
        // Sensitive to every knob: parameter and box perturbations move
        // the hash.
        let base = BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 6,
            alpha: 2.0,
            r_cut: 1.2,
        });
        let bumped = BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 6,
            alpha: 2.0 + 1e-15,
            r_cut: 1.2,
        });
        assert_ne!(base.fingerprint(box_l), bumped.fingerprint(box_l));
        assert_ne!(base.fingerprint(box_l), base.fingerprint([4.0, 4.0, 8.0]));
    }

    /// The router's shard keys are plan fingerprints, compared across
    /// builds during a rolling restart, so the values themselves are
    /// part of the contract: these literals were taken before the
    /// fingerprint moved onto the shared codec (TME long before).
    #[test]
    fn fingerprints_are_stable_across_commits() {
        let box_l = [4.0; 3];
        assert_eq!(
            BackendParams::Tme(tme_params()).fingerprint(box_l),
            0xd022_2649_6fc2_4433
        );
        let prints: Vec<u64> = all_params()
            .iter()
            .map(|p| p.fingerprint([4.0, 4.5, 5.0]))
            .collect();
        assert_eq!(
            prints,
            [
                16841999672249844421,
                5687060172884286363,
                2898861277490560668,
                3639424294605096227,
                17975850024553489455,
            ]
        );
        let wolf = CutoffBackend::new(tme_core::alpha_from_rtol(1.2, 1e-3), 1.2).unwrap();
        let bare = CutoffBackend::new(0.0, 1.2).unwrap();
        assert_eq!(
            (wolf.fingerprint(), bare.fingerprint()),
            (9052811120168785648, 1225793426808705078)
        );
    }

    #[test]
    fn workspace_mismatch_is_a_typed_error() {
        let sys = test_system();
        let tme = plan_backend(&BackendParams::Tme(tme_params()), sys.box_l).unwrap();
        let spme = plan_backend(
            &BackendParams::Spme(SpmeParams {
                n: [16; 3],
                p: 6,
                alpha: 2.0,
                r_cut: 1.2,
            }),
            sys.box_l,
        )
        .unwrap();
        let mut tme_ws = tme.make_workspace();
        let mut out = CoulombResult::default();
        // SPME plan handed a TME workspace: typed error, not a panic.
        assert!(matches!(
            spme.compute_into(&sys, &mut tme_ws, &mut out),
            Err(TmeRecoverableError::WorkspaceMismatch)
        ));
        assert!(matches!(
            spme.mesh_into(&sys, &mut tme_ws, &mut out),
            Err(TmeRecoverableError::WorkspaceMismatch)
        ));
        // The cutoff model's workspace carries no mesh state at all.
        let mut bare = CutoffBackend::new(0.0, 1.2).unwrap().make_workspace();
        assert!(matches!(
            tme.compute_into(&sys, &mut bare, &mut out),
            Err(TmeRecoverableError::WorkspaceMismatch)
        ));
    }

    /// DESIGN.md §14.1 promise 2, uniformly: a NaN, infinite or
    /// unwrappable (`1e300`) coordinate, or a non-finite charge, comes
    /// back from every backend's `compute_into` and `mesh_into` as
    /// `NonFiniteInput` naming the atom — before any kernel (or debug
    /// assertion in the cell binning or the cascade) sees it — and a
    /// system in a box too small for the cutoff, which no plan here was
    /// built for, as `BoxMismatch`. The same workspace then computes the
    /// healthy system.
    #[test]
    fn hostile_inputs_are_typed_errors_from_every_backend() {
        let sys = test_system();
        let mut plans: Vec<Arc<dyn LongRangeBackend>> = all_params()
            .iter()
            .map(|p| plan_backend(p, sys.box_l).unwrap())
            .collect();
        plans.push(Arc::new(CutoffBackend::new(0.0, 1.2).unwrap()));
        plans.push(Arc::new(CutoffBackend::new(2.0, 1.2).unwrap()));
        let mut cases = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut hostile = sys.clone();
            hostile.pos[2][1] = bad;
            cases.push((hostile, TmeRecoverableError::NonFiniteInput { atom: 2 }));
        }
        let mut hostile = sys.clone();
        hostile.q[1] = f64::NAN;
        cases.push((hostile, TmeRecoverableError::NonFiniteInput { atom: 1 }));
        let mut hostile = sys.clone();
        hostile.box_l = [2.0; 3];
        cases.push((
            hostile,
            TmeRecoverableError::BoxMismatch { box_l: [2.0; 3] },
        ));
        for plan in plans {
            let mut ws = plan.make_workspace();
            let mut out = CoulombResult::default();
            let name = plan.name();
            for (k, (hostile, want)) in cases.iter().enumerate() {
                let got = plan.compute_into(hostile, &mut ws, &mut out).err();
                assert_eq!(got.as_ref(), Some(want), "{name} compute_into, case {k}");
                let got = plan.mesh_into(hostile, &mut ws, &mut out).err();
                assert_eq!(got.as_ref(), Some(want), "{name} mesh_into, case {k}");
            }
            plan.compute_into(&sys, &mut ws, &mut out).unwrap();
            assert!(out.energy.is_finite(), "{name}");
        }
    }

    #[test]
    fn plan_rejects_bad_configs() {
        let box_l = [4.0; 3];
        let spme = |n, p, alpha, r_cut| {
            plan_backend(
                &BackendParams::Spme(SpmeParams { n, p, alpha, r_cut }),
                box_l,
            )
            .err()
            .unwrap()
        };
        assert!(matches!(
            spme([12, 16, 16], 6, 2.0, 1.2),
            BackendConfigError::GridNotPow2 { .. }
        ));
        assert!(matches!(
            spme([16; 3], 5, 2.0, 1.2),
            BackendConfigError::BadOrder { p: 5 }
        ));
        assert!(matches!(
            spme([16; 3], 6, 2.0, 2.5),
            BackendConfigError::BadSplitting { .. }
        ));
        assert!(matches!(
            spme([16; 3], 6, -1.0, 1.2),
            BackendConfigError::BadSplitting { .. }
        ));
        // PSWF bandwidth below Nyquist is rejected (unstable deconvolution).
        assert!(matches!(
            plan_backend(
                &BackendParams::SpmePswf(PswfParams {
                    n: [16; 3],
                    p: 8,
                    alpha: 2.0,
                    r_cut: 1.2,
                    shape: 5.0,
                }),
                box_l
            )
            .err()
            .unwrap(),
            BackendConfigError::BadShape { .. }
        ));
        assert!(matches!(
            plan_backend(
                &BackendParams::Ewald(EwaldParams {
                    alpha: 2.0,
                    r_cut: 1.2,
                    n_cut: 0
                }),
                box_l
            )
            .err()
            .unwrap(),
            BackendConfigError::BadKspace { n_cut: 0 }
        ));
        assert!(matches!(
            plan_backend(
                &BackendParams::Slab(SlabParams {
                    n: [16, 16, 64],
                    p: 6,
                    alpha: 2.0,
                    r_cut: 1.2,
                    gamma_top: 1.5,
                    gamma_bot: 0.0,
                    n_images: 1,
                }),
                box_l
            )
            .err()
            .unwrap(),
            BackendConfigError::BadReflection { .. }
        ));
        assert!(matches!(
            plan_backend(
                &BackendParams::Slab(SlabParams {
                    n: [16, 16, 64],
                    p: 6,
                    alpha: 2.0,
                    r_cut: 1.2,
                    gamma_top: 0.0,
                    gamma_bot: 0.0,
                    n_images: 2,
                }),
                box_l
            )
            .err()
            .unwrap(),
            BackendConfigError::BadImages { n_images: 2 }
        ));
        assert!(matches!(
            plan_backend(&BackendParams::Tme(tme_params()), [4.0, -4.0, 4.0])
                .err()
                .unwrap(),
            BackendConfigError::BadBox { .. }
        ));
        // TME: a NaN cutoff or one past the minimum-image bound is a
        // plan-time error, never an execute-time panic.
        let mut nan_cut = tme_params();
        nan_cut.r_cut = f64::NAN;
        let mut wide_cut = tme_params();
        wide_cut.r_cut = 2.5; // > min(box)/2 = 2.0
        for p in [nan_cut, wide_cut] {
            assert!(matches!(
                plan_backend(&BackendParams::Tme(p), box_l).err().unwrap(),
                BackendConfigError::BadSplitting { .. }
            ));
        }
        // A spline order `BSpline::new` would assert on is a typed error
        // from the multilevel planner.
        for p in [0, 5, 14] {
            let bad_order = TmeParams { p, ..tme_params() };
            assert_eq!(
                plan_backend(&BackendParams::Tme(bad_order), box_l)
                    .err()
                    .unwrap(),
                BackendConfigError::Tme(TmeConfigError::BadOrder { p })
            );
        }
        // Slab: the cutoff bound is the *real* box — r_cut = 1.4 fits the
        // extended box [4, 4, 6] but not the real box [4, 4, 2], whose
        // minimum image the short-range reduction runs under.
        assert!(matches!(
            plan_backend(
                &BackendParams::Slab(SlabParams {
                    n: [16, 16, 64],
                    p: 6,
                    alpha: 2.0,
                    r_cut: 1.4,
                    gamma_top: 0.0,
                    gamma_bot: 0.0,
                    n_images: 0,
                }),
                [4.0, 4.0, 2.0]
            )
            .err()
            .unwrap(),
            BackendConfigError::BadSplitting { .. }
        ));
    }

    #[test]
    fn backend_matches_direct_solver_bitwise() {
        let sys = test_system();
        // SPME through the backend == SPME called directly.
        let plan = plan_backend(
            &BackendParams::Spme(SpmeParams {
                n: [16; 3],
                p: 6,
                alpha: 2.0,
                r_cut: 1.2,
            }),
            sys.box_l,
        )
        .unwrap();
        let mut ws = plan.make_workspace();
        let mut out = CoulombResult::default();
        plan.compute_into(&sys, &mut ws, &mut out).unwrap();
        let spme = Spme::new([16; 3], sys.box_l, 2.0, 6, 1.2);
        let mut scratch = spme.make_scratch(Arc::clone(Pool::global()));
        let mut direct = CoulombResult::default();
        spme.compute_into(&sys, &mut scratch, &mut direct);
        assert_eq!(out.energy.to_bits(), direct.energy.to_bits());
        for (a, b) in out.forces.iter().zip(&direct.forces) {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
    }

    #[test]
    fn slab_extension_geometry() {
        let sys = CoulombSystem::new(
            vec![[1.0, 2.0, 0.5], [3.0, 1.0, 3.5]],
            vec![1.0, -1.0],
            [4.0; 3],
        );
        let mut ext = CoulombSystem {
            pos: Vec::new(),
            q: Vec::new(),
            box_l: [0.0; 3],
        };
        slab_extend_system(&sys, -1.0, 0.5, 1, &mut ext);
        assert_eq!(ext.len(), 6);
        assert_eq!(ext.box_l, [4.0, 4.0, 12.0]);
        // Real atoms shifted to the middle third.
        assert_eq!(ext.pos[0], [1.0, 2.0, 4.5]);
        assert_eq!(ext.q[0], 1.0);
        // Bottom image: z → L_z − z, charge γ_bot·q.
        assert_eq!(ext.pos[2], [1.0, 2.0, 3.5]);
        assert_eq!(ext.q[2], -1.0);
        // Top image: z → 3·L_z − z, charge γ_top·q.
        assert_eq!(ext.pos[4], [1.0, 2.0, 11.5]);
        assert_eq!(ext.q[4], 0.5);
        // n_images = 0: just the shifted real atoms.
        slab_extend_system(&sys, -1.0, 0.5, 0, &mut ext);
        assert_eq!(ext.len(), 2);
    }

    /// Yeh–Berkowitz (γ = 0) slab forces are the exact gradient of the
    /// energy: central-difference check on one atom's z coordinate
    /// through the full backend path (mesh + dipole correction).
    #[test]
    fn slab_yb_force_is_energy_gradient() {
        let params = SlabParams {
            n: [16, 16, 64],
            p: 6,
            alpha: 2.0,
            r_cut: 1.2,
            gamma_top: 0.0,
            gamma_bot: 0.0,
            n_images: 0,
        };
        let plan = plan_backend(&BackendParams::Slab(params), [4.0; 3]).unwrap();
        let mut ws = plan.make_workspace();
        let mut out = CoulombResult::default();
        let mut sys = CoulombSystem::new(
            vec![
                [1.0, 1.0, 1.0],
                [2.0, 2.2, 1.8],
                [3.1, 0.5, 2.6],
                [0.4, 3.2, 3.0],
            ],
            vec![1.0, -1.0, 0.5, -0.5],
            [4.0; 3],
        );
        plan.compute_into(&sys, &mut ws, &mut out).unwrap();
        let fz = out.forces[1][2];
        let h = 1e-4;
        let z0 = sys.pos[1][2];
        sys.pos[1][2] = z0 + h;
        plan.compute_into(&sys, &mut ws, &mut out).unwrap();
        let e_plus = out.energy;
        sys.pos[1][2] = z0 - h;
        plan.compute_into(&sys, &mut ws, &mut out).unwrap();
        let e_minus = out.energy;
        let fz_num = -(e_plus - e_minus) / (2.0 * h);
        assert!(
            (fz - fz_num).abs() <= 1e-4 * fz.abs().max(1.0),
            "analytic {fz} vs numeric {fz_num}"
        );
    }

    /// A charge near a conducting wall (γ = −1) is attracted to it.
    #[test]
    fn slab_conductor_attracts_charge() {
        let params = SlabParams {
            n: [16, 16, 64],
            p: 6,
            alpha: 2.0,
            r_cut: 1.2,
            gamma_top: 0.0,
            gamma_bot: -1.0,
            n_images: 1,
        };
        let plan = plan_backend(&BackendParams::Slab(params), [4.0; 3]).unwrap();
        let mut ws = plan.make_workspace();
        let mut out = CoulombResult::default();
        // Single +1 charge at height 0.4 above the conducting z = 0 wall;
        // its −1 image makes the extended system neutral.
        let sys = CoulombSystem::new(vec![[2.0, 2.0, 0.4]], vec![1.0], [4.0; 3]);
        plan.compute_into(&sys, &mut ws, &mut out).unwrap();
        assert!(
            out.forces[0][2] < -1e-3,
            "force toward the wall, got {}",
            out.forces[0][2]
        );
        // And the interaction energy is negative (bound to the image).
        assert!(out.energy < 0.0, "binding energy, got {}", out.energy);
    }

    #[test]
    fn mesh_free_backends_have_no_mesh() {
        let sys = test_system();
        let cut = CutoffBackend::new(0.0, 1.2).unwrap();
        let wolf = CutoffBackend::new(tme_core::alpha_from_rtol(1.2, 1e-3), 1.2).unwrap();
        assert!(cut.alpha() == 0.0 && wolf.alpha() > 0.0);
        for plan in [&cut, &wolf] {
            assert_eq!(plan.kind(), BackendKind::Cutoff);
            assert!(!plan.has_mesh());
            let mut ws = plan.make_workspace();
            let mut out = CoulombResult::default();
            plan.mesh_into(&sys, &mut ws, &mut out).unwrap();
            assert_eq!(out.energy, 0.0);
            assert!(out.forces.iter().flatten().all(|f| *f == 0.0));
            plan.compute_into(&sys, &mut ws, &mut out).unwrap();
            assert!(out.energy.is_finite());
        }
        assert_ne!(cut.fingerprint(), wolf.fingerprint());
        for (alpha, r_cut) in [
            (-1.0, 1.2),
            (f64::NAN, 1.2),
            (0.0, 0.0),
            (0.0, f64::INFINITY),
        ] {
            assert!(matches!(
                CutoffBackend::new(alpha, r_cut),
                Err(BackendConfigError::BadSplitting { .. })
            ));
        }
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in [
            BackendKind::Tme,
            BackendKind::Spme,
            BackendKind::SpmePswf,
            BackendKind::Ewald,
            BackendKind::Slab,
        ] {
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
        }
        // Cutoff is deliberately not wire-decodable; unknown tags fail.
        assert_eq!(BackendKind::from_tag(BackendKind::Cutoff.tag()), None);
        assert_eq!(BackendKind::from_tag(0), None);
        assert_eq!(BackendKind::from_tag(5), None); // retired MSM tag
        assert_eq!(BackendKind::from_tag(200), None);
    }
}
