//! Quasi-2D slab geometry behind the backend interface (DESIGN.md §14.4).

use super::*;
use tme_reference::{Spme, SpmeScratch};

/// Parameters of a quasi-2D slab plan. The real box is periodic in x/y
/// and aperiodic in z (atoms in `0 ≤ z ≤ L_z`); the plan works on an
/// extended box with `L_z` tripled (vacuum gap) carrying up to one image
/// layer per wall plus the Yeh–Berkowitz dipole correction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlabParams {
    /// Grid numbers of the **extended** box (z axis spans `3·L_z`);
    /// powers of two.
    pub n: [usize; 3],
    /// B-spline order of the extended-box SPME; even, `2..=12`.
    pub p: usize,
    /// Ewald splitting parameter α (nm⁻¹).
    pub alpha: f64,
    /// Real-space cutoff (nm), ≤ half the smallest **real** edge (the
    /// short-range reduction runs on the real box; since the extended
    /// box only grows z, this also satisfies its minimum-image bound).
    pub r_cut: f64,
    /// Image-charge reflection coefficient of the `z = L_z` wall
    /// (`0` = vacuum, `−1` = ideal conductor); `|γ| ≤ 1`.
    pub gamma_top: f64,
    /// Reflection coefficient of the `z = 0` wall.
    pub gamma_bot: f64,
    /// Image layers per wall: `0` (plain Yeh–Berkowitz vacuum slab) or
    /// `1` (first-order image-charge method).
    pub n_images: u32,
}

/// The wire and fingerprint layout: the fields in declaration order.
impl Codec for SlabParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.n.encode(s);
        self.p.encode(s);
        self.alpha.encode(s);
        self.r_cut.encode(s);
        self.gamma_top.encode(s);
        self.gamma_bot.encode(s);
        self.n_images.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            n: r.decode()?,
            p: r.decode()?,
            alpha: r.decode()?,
            r_cut: r.decode()?,
            gamma_top: r.decode()?,
            gamma_bot: r.decode()?,
            n_images: r.decode()?,
        })
    }
}

/// Build the image-augmented extended system of the quasi-2D slab
/// geometry into `ext` (resized in place; allocation-free once warm).
///
/// The real box is periodic in x/y with atoms at `0 ≤ z ≤ L_z`; the
/// extended box triples `L_z` and shifts the real atoms to the middle
/// third (`z → z + L_z`). With `n_images == 1`, each atom gains a
/// bottom-wall image at `L_z − z` carrying `γ_bot·q` and a top-wall image
/// at `3·L_z − z` carrying `γ_top·q` (the `z = 0` / `z = L_z` wall
/// reflections in extended coordinates). Layout: real atoms first, then
/// the bottom layer, then the top layer — so index `i < n_real` in any
/// extended-system result refers to real atom `i`.
pub fn slab_extend_system(
    system: &CoulombSystem,
    gamma_bot: f64,
    gamma_top: f64,
    n_images: u32,
    ext: &mut CoulombSystem,
) {
    let n = system.len();
    let lz = system.box_l[2];
    let total = n * (1 + 2 * n_images as usize);
    ext.box_l = [system.box_l[0], system.box_l[1], 3.0 * lz];
    ext.pos.resize(total, [0.0; 3]);
    ext.q.resize(total, 0.0);
    for i in 0..n {
        let [x, y, z] = system.pos[i];
        ext.pos[i] = [x, y, z + lz];
        ext.q[i] = system.q[i];
    }
    if n_images >= 1 {
        for i in 0..n {
            let [x, y, z] = system.pos[i];
            ext.pos[n + i] = [x, y, lz - z];
            ext.q[n + i] = gamma_bot * system.q[i];
            ext.pos[2 * n + i] = [x, y, 3.0 * lz - z];
            ext.q[2 * n + i] = gamma_top * system.q[i];
        }
    }
}

/// Accumulate the Yeh–Berkowitz dipole (k = 0 planar) correction of the
/// extended slab system into `out`: with `M_z = Σ q_j z_j` over the
/// extended system and `V` its volume, each atom gains potential
/// `4π·M_z·z_i/V` and z-force `−4π·q_i·M_z/V` — the energy functional
/// `2π·M_z²/V` with its exact gradient.
pub fn slab_dipole_correction(ext: &CoulombSystem, out: &mut CoulombResult) {
    let v = ext.box_l[0] * ext.box_l[1] * ext.box_l[2];
    let pref = 4.0 * std::f64::consts::PI / v;
    let mut mz = 0.0;
    for (p, q) in ext.pos.iter().zip(&ext.q) {
        mz += q * p[2];
    }
    out.energy += 0.5 * pref * mz * mz;
    for i in 0..ext.len() {
        out.potentials[i] += pref * mz * ext.pos[i][2];
        out.forces[i][2] -= pref * ext.q[i] * mz;
    }
}

/// Quasi-2D slab geometry behind the backend interface: a B-spline SPME
/// on the z-tripled extended box over the image-augmented system
/// ([`slab_extend_system`]), plus the Yeh–Berkowitz dipole correction
/// ([`slab_dipole_correction`]), reduced to the real atoms. Energy is the
/// image-charge convention `E = ½ Σ_{i∈real} q_i·φ_i`; with
/// `γ_top = γ_bot = 0` this is exactly the Yeh–Berkowitz vacuum-gap
/// slab, whose forces are the exact gradient of the energy.
pub struct SlabBackend {
    spme: Spme,
    params: SlabParams,
    header: PlanHeader,
}

/// Slab scratch: the persistent image-augmented extended system, the
/// extended-box SPME scratch and the extended result the reduction to
/// real atoms works from. All buffers are `resize`d per call with indexed
/// writes — allocation-free once warm.
struct SlabScratch {
    ext: CoulombSystem,
    spme: SpmeScratch,
    ext_out: CoulombResult,
}

impl SlabBackend {
    /// Plan a slab for the **real** box `box_l` (the extended box is
    /// derived internally).
    pub fn new(params: SlabParams, box_l: V3) -> Result<Self, BackendConfigError> {
        check_window(params.n, params.p)?;
        // The header bounds the cutoff by the **real** box, which
        // `mesh_into` sums pairs in; min(real) ≤ min(extended), so the
        // extended-box sum's minimum-image requirement is covered too.
        let header = PlanHeader::new(&BackendParams::Slab(params), box_l)?;
        for gamma in [params.gamma_top, params.gamma_bot] {
            if !(gamma.is_finite() && (-1.0..=1.0).contains(&gamma)) {
                return Err(BackendConfigError::BadReflection { gamma });
            }
        }
        if params.n_images > 1 {
            return Err(BackendConfigError::BadImages {
                n_images: params.n_images,
            });
        }
        let ext_box = [box_l[0], box_l[1], 3.0 * box_l[2]];
        Ok(Self {
            spme: Spme::new(params.n, ext_box, params.alpha, params.p, params.r_cut),
            params,
            header,
        })
    }

    /// The shared composition one box up — SPME mesh + real space and
    /// self term of the image-augmented system on the extended box — plus
    /// the dipole correction, left in the returned slab scratch.
    fn extended_into<'w>(
        &self,
        system: &CoulombSystem,
        ws: &'w mut BackendWorkspace,
    ) -> Result<(&'w mut RealSpace, &'w SlabScratch), TmeRecoverableError> {
        let (real, s) = ws.real_and_scratch::<SlabScratch>()?;
        let p = &self.params;
        slab_extend_system(system, p.gamma_bot, p.gamma_top, p.n_images, &mut s.ext);
        self.spme
            .reciprocal_into(&s.ext, &mut s.spme, &mut s.ext_out);
        let table = self.spme.pair_table();
        real.add_to(&self.header, table, &s.ext, &mut s.ext_out);
        slab_dipole_correction(&s.ext, &mut s.ext_out);
        Ok((real, s))
    }
}

impl LongRangeBackend for SlabBackend {
    fn header(&self) -> &PlanHeader {
        &self.header
    }

    fn make_workspace_with_pool(&self, pool: Arc<Pool>) -> BackendWorkspace {
        let scratch = SlabScratch {
            spme: self.spme.make_scratch(Arc::clone(&pool)),
            ext: CoulombSystem {
                pos: Vec::new(),
                q: Vec::new(),
                box_l: [0.0; 3],
            },
            ext_out: CoulombResult::default(),
        };
        BackendWorkspace::new(pool, scratch)
    }

    /// The "mesh" part in the MD-harness decomposition: the full slab
    /// result minus the real-system short-range `erfc` sum and self term,
    /// so recombining with the harness's own short-range pairs and self
    /// term reconstructs [`Self::compute_into`] exactly.
    fn mesh_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<(), TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            let (real, s) = self.extended_into(system, ws)?;
            // What the harness adds back (same table as the extended sum) …
            out.reset(system.len());
            real.add_to(&self.header, self.spme.pair_table(), system, out);
            // … taken out of the extended result.
            reduce_to_real(system, &s.ext_out, out);
            Ok(())
        })
    }

    /// Not the shared composition: the sum runs on the extended system
    /// and is then reduced to the real atoms (image-charge energy
    /// convention).
    fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut BackendWorkspace,
        out: &mut CoulombResult,
    ) -> Result<BackendStats, TmeRecoverableError> {
        checked(&self.header, system, out, |out| {
            let (_, s) = self.extended_into(system, ws)?;
            out.reset(system.len());
            reduce_to_real(system, &s.ext_out, out);
            Ok(BackendStats::default())
        })
    }
}

/// `out ← ext[real atoms] − out`: potentials and forces of the real atoms
/// out of an extended-system result, less whatever `out` held, with the
/// image-charge energy `E = ½ Σ_{i∈real} q_i·φ_i` of the difference.
fn reduce_to_real(system: &CoulombSystem, ext: &CoulombResult, out: &mut CoulombResult) {
    out.energy = 0.0;
    out.virial = 0.0; // not tracked on the mesh path (see CoulombResult docs)
    for i in 0..system.len() {
        out.potentials[i] = ext.potentials[i] - out.potentials[i];
        for a in 0..3 {
            out.forces[i][a] = ext.forces[i][a] - out.forces[i][a];
        }
        out.energy += 0.5 * system.q[i] * out.potentials[i];
    }
}
