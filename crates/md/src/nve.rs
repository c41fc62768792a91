//! NVE molecular dynamics with velocity-Verlet and SETTLE — the harness
//! behind the paper's Fig. 4 (total-energy conservation of SPME vs TME).
//!
//! Per step:
//! 1. `v += (F/m)·dt/2`, `r += v·dt`, SETTLE positions,
//!    effective velocity update `v = (r_new − r_old)/dt` for constrained
//!    atoms (keeps velocities consistent with the constrained motion),
//! 2. recompute forces (short-range LJ + erfc Coulomb through the shared
//!    cell kernel, mesh long-range via the pluggable solver, exclusions
//!    subtracted afterwards),
//! 3. `v += (F/m)·dt/2`, SETTLE velocities.
//!
//! Total energy = kinetic + LJ + Coulomb(short + mesh + self + exclusion),
//! in kJ/mol. The observable of Fig. 4 is this total vs time.

use crate::backend::{BackendWorkspace, LongRangeBackend};
use crate::checkpoint::CheckpointError;
use crate::constraints::{settle_all_positions, settle_all_velocities, SettleGeom};
use crate::neighbors::VerletList;
use crate::nonbond::{self, CellPairs};
use crate::topology::MdSystem;
use crate::units::COULOMB;
use tme_core::TmeRecoverableError;
use tme_mesh::model::CoulombResult;
use tme_num::bytes::{ByteReader, ByteWriter, Codec};
use tme_num::special::TWO_OVER_SQRT_PI;
use tme_num::table::PairKernelTable;
use tme_num::vec3::V3;

/// Magic/version word of the [`NveSim::checkpoint`] byte format. Version 2
/// carries no neighbour list; a version-1 stream fails this magic.
const NVE_CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"TMENVE2\0");

/// One sampled energy record (kJ/mol, ps, K).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyRecord {
    pub time: f64,
    pub kinetic: f64,
    pub lj: f64,
    pub coulomb: f64,
    pub bonded: f64,
    pub potential: f64,
    pub total: f64,
    pub temperature: f64,
}

/// One numerical-fault recovery the integrator performed mid-run
/// (DESIGN.md §11): the tabulated short-range path produced a non-finite
/// result and the step was re-evaluated through the exact `erfc` oracle.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryEvent {
    /// Step count at which the fault was detected.
    pub step: usize,
    /// Simulation time (ps) at detection.
    pub time: f64,
    /// What the evaluation reported.
    pub error: TmeRecoverableError,
}

/// An NVE simulation bound to a system and a long-range solver.
pub struct NveSim<'a> {
    pub system: MdSystem,
    solver: &'a dyn LongRangeBackend,
    geom: SettleGeom,
    /// Time step (ps).
    pub dt: f64,
    /// Short-range cutoff (nm) for LJ + erfc Coulomb.
    pub r_cut: f64,
    forces: Vec<V3>,
    energies: CachedEnergies,
    pub(crate) time: f64,
    /// Short-range state on the cell kernel, which runs every step — no
    /// neighbour list (DESIGN.md §15.7).
    pairs: CellPairs,
    /// Positions at the start of a step, for SETTLE (reused buffer).
    old_pos: Vec<V3>,
    /// Verlet skin (nm) of the list-based benchmark probe, which shadows
    /// the step with `VerletList::build_with_bins`. The step itself builds
    /// no list and never reads this; it goes with that probe.
    pub skin: f64,
    /// Evaluate the long-range mesh every `mesh_interval` steps and apply
    /// it as an r-RESPA impulse of weight `mesh_interval` at those steps —
    /// the multiple-time-stepping policy the Anton machines use ("they
    /// calculate \[the\] long range part at every other step", paper
    /// Table 2 note). 1 = every step (plain velocity Verlet).
    pub mesh_interval: usize,
    step_count: usize,
    /// Short-range + bonded + exclusion forces at the current positions.
    forces_fast: Vec<V3>,
    /// Mesh forces (× COULOMB) at the last outer (boundary) step.
    mesh_forces: Vec<V3>,
    /// Opaque per-backend execute workspace (DESIGN.md §14), so
    /// steady-state stepping does not reallocate the mesh pipeline.
    lr_ws: BackendWorkspace,
    /// Reused mesh result buffer for [`LongRangeBackend::mesh_into`].
    mesh_result: CoulombResult,
    cached_mesh_energy: f64,
    /// Impulse weight of `mesh_forces` for kicks using the current forces:
    /// `mesh_interval` at outer boundaries, 0 in between.
    mesh_weight: f64,
    /// Plan-time tabulated pair kernels for the solver's α over `[0, r_c]`
    /// (rebuilt only if α or the cutoff changes — steady-state stepping
    /// never reallocates it).
    pair_table: PairKernelTable,
    /// Force the exact-`erfc` short-range path on every step (bypassing
    /// the tabulated kernels). Normally off — it is the degraded mode the
    /// fault fallback drops into per-evaluation.
    pub exact_short_range: bool,
    /// Faults detected and recovered from (exact-oracle re-evaluations).
    recoveries: Vec<RecoveryEvent>,
    /// The unrecoverable numerical fault that stopped stepping, if any.
    last_error: Option<TmeRecoverableError>,
}

#[derive(Clone, Copy, Debug, Default)]
struct CachedEnergies {
    lj: f64,
    coulomb: f64,
    bonded: f64,
}

impl<'a> NveSim<'a> {
    /// Set up the simulation: projects initial velocities onto the
    /// constraint manifold and computes initial forces.
    pub fn new(
        mut system: MdSystem,
        solver: &'a dyn LongRangeBackend,
        dt: f64,
        r_cut: f64,
    ) -> Self {
        let min_edge = system.box_l.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            r_cut <= min_edge / 2.0 + 1e-12,
            "r_cut {r_cut} exceeds half the smallest box edge {min_edge}; \
             use a larger box or a smaller cutoff"
        );
        let geom = SettleGeom::tip3p();
        settle_all_velocities(&geom, &system.waters, &system.pos, &mut system.vel);
        system.remove_com_velocity();
        let n = system.len();
        let mut sim = Self {
            pairs: CellPairs::new(&system),
            system,
            solver,
            geom,
            dt,
            r_cut,
            forces: vec![[0.0; 3]; n],
            energies: CachedEnergies::default(),
            time: 0.0,
            old_pos: Vec::with_capacity(n),
            skin: 0.2,
            mesh_interval: 1,
            step_count: 0,
            forces_fast: vec![[0.0; 3]; n],
            mesh_forces: Vec::new(),
            lr_ws: solver.make_workspace(),
            mesh_result: CoulombResult::default(),
            cached_mesh_energy: 0.0,
            mesh_weight: 1.0,
            pair_table: PairKernelTable::new(solver.alpha(), r_cut),
            exact_short_range: false,
            recoveries: Vec::new(),
            last_error: None,
        };
        if let Err(e) = sim.compute_forces() {
            sim.last_error = Some(e);
        }
        sim
    }

    pub fn forces(&self) -> &[V3] {
        &self.forces
    }

    /// Recompute all forces and cache the potential-energy terms.
    ///
    /// Numerical faults are handled per DESIGN.md §11: a non-finite result
    /// from the tabulated short-range path is re-evaluated through the
    /// exact `erfc` oracle (recorded in [`NveSim::recoveries`]); anything
    /// still non-finite afterwards — mesh included — is unrecoverable here
    /// and surfaces as a typed error for the checkpoint/restart layer.
    fn compute_forces(&mut self) -> Result<(), TmeRecoverableError> {
        let alpha = self.solver.alpha();
        // Keep the kernel table consistent with the solver's splitting and
        // the (possibly caller-adjusted) cutoff; a no-op in steady state.
        if self.pair_table.alpha().to_bits() != alpha.to_bits()
            || self.pair_table.r_max() < self.r_cut
        {
            self.pair_table = PairKernelTable::new(alpha, self.r_cut);
        }
        let sys = &self.system;
        let mesh = self.solver.has_mesh();
        self.pairs.load(&sys.pos);
        // Short range (LJ + erfc Coulomb) through the cell kernel on the
        // backend workspace's pool, exclusions subtracted afterwards.
        let (pool, cells) = self.lr_ws.cell_kernel();
        let (table, r_cut) = (&self.pair_table, self.r_cut);
        let mut short = (!self.exact_short_range).then(|| {
            (self.pairs).evaluate(sys, table, r_cut, mesh, pool, cells, &mut self.forces_fast)
        });
        if let Some(error) = short.and_then(|s| non_finite(&[s.lj, s.coulomb], &self.forces_fast)) {
            // Graceful degradation: redo this evaluation through the exact
            // erfc oracle and record the recovery.
            let (step, time) = (self.step_count, self.time);
            self.recoveries.push(RecoveryEvent { step, time, error });
            short = None;
        }
        // The exact-erfc oracle over a skinless list: degraded mode, or
        // after a fault — never in the steady state.
        let short = short.unwrap_or_else(|| {
            let list = VerletList::build(&sys.pos, sys.box_l, r_cut, 0.0, |i, j| {
                sys.is_excluded(i, j)
            });
            self.forces_fast.fill([0.0; 3]);
            let mut s = nonbond::short_range_verlet_exact(sys, &list, alpha, &mut self.forces_fast);
            if mesh {
                s.coulomb += nonbond::exclusion_correction(sys, table, &mut self.forces_fast);
            }
            s
        });
        // Bonded terms (flexible molecules; empty for pure rigid water).
        let bonded_energy = sys
            .bonded
            .evaluate(&sys.pos, sys.box_l, &mut self.forces_fast);
        // Long range (mesh), reduced units → kJ/mol. With multiple time
        // stepping the mesh is evaluated only at outer boundaries
        // (step_count divisible by the interval) and applied as an
        // impulse of weight `mesh_interval` by the kicks that straddle
        // the boundary (r-RESPA); in between its weight is zero.
        let interval = self.mesh_interval.max(1);
        let coul_sys = self.pairs.coulomb();
        if self.step_count.is_multiple_of(interval) {
            // The mesh has no oracle fallback at this layer — a non-finite
            // reciprocal result (a typed error from the backend) is
            // unrecoverable in-step and goes to the checkpoint/restart layer.
            self.solver
                .mesh_into(coul_sys, &mut self.lr_ws, &mut self.mesh_result)?;
            self.mesh_forces.clear();
            self.mesh_forces.extend(
                self.mesh_result
                    .forces
                    .iter()
                    .map(|m| [COULOMB * m[0], COULOMB * m[1], COULOMB * m[2]]),
            );
            self.cached_mesh_energy = self.mesh_result.energy;
            self.mesh_weight = interval as f64;
        } else {
            self.mesh_weight = 0.0;
        }
        // Self term (no force) — like the excluded pairs' erf(αr)/r, which
        // `short` already subtracted, it cancels what the mesh added, so it
        // only applies when the solver has a mesh (a Wolf/cutoff solver
        // never added it).
        let self_energy = if mesh {
            -COULOMB * 0.5 * TWO_OVER_SQRT_PI * alpha * coul_sys.charge_sq_sum()
        } else {
            0.0
        };
        self.energies = CachedEnergies {
            lj: short.lj,
            coulomb: short.coulomb + COULOMB * self.cached_mesh_energy + self_energy,
            bonded: bonded_energy,
        };
        // Effective per-step force view (fast + weighted mesh impulse).
        let w = self.mesh_weight;
        for ((f, fast), m) in self
            .forces
            .iter_mut()
            .zip(&self.forces_fast)
            .zip(&self.mesh_forces)
        {
            *f = [fast[0] + w * m[0], fast[1] + w * m[1], fast[2] + w * m[2]];
        }
        // Forces are the solver↔integrator boundary: a NaN here (overlapping
        // atoms, broken solver) would silently poison every later step —
        // checked in release builds too, now that the caller can answer.
        match non_finite(&[], &self.forces) {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// One velocity-Verlet + SETTLE step, surfacing unrecoverable
    /// numerical faults as typed errors. On `Err` the in-flight step is
    /// abandoned mid-update — restart from a checkpoint
    /// ([`NveSim::restore`]) rather than continuing.
    #[allow(clippy::needless_range_loop)] // axis loops index parallel arrays
    pub fn try_step(&mut self) -> Result<(), TmeRecoverableError> {
        let dt = self.dt;
        let n = self.system.len();
        // Half kick + drift.
        for i in 0..n {
            let inv_m = 1.0 / self.system.mass[i];
            for a in 0..3 {
                self.system.vel[i][a] += 0.5 * dt * self.forces[i][a] * inv_m;
            }
        }
        self.old_pos.clear();
        self.old_pos.extend_from_slice(&self.system.pos);
        let old_pos = &self.old_pos;
        for i in 0..n {
            for a in 0..3 {
                self.system.pos[i][a] += dt * self.system.vel[i][a];
            }
        }
        // Position constraints; fold the correction back into velocities.
        settle_all_positions(
            &self.geom,
            &self.system.waters,
            old_pos,
            &mut self.system.pos,
        );
        for w in &self.system.waters {
            for idx in [w.o, w.h1, w.h2] {
                for a in 0..3 {
                    self.system.vel[idx][a] = (self.system.pos[idx][a] - old_pos[idx][a]) / dt;
                }
            }
        }
        // New forces, second half kick, velocity constraints.
        self.compute_forces()?;
        for i in 0..n {
            let inv_m = 1.0 / self.system.mass[i];
            for a in 0..3 {
                self.system.vel[i][a] += 0.5 * dt * self.forces[i][a] * inv_m;
            }
        }
        settle_all_velocities(
            &self.geom,
            &self.system.waters,
            &self.system.pos,
            &mut self.system.vel,
        );
        self.time += dt;
        self.step_count += 1;
        // State leaving the step must be finite; catching the first bad
        // step localises blow-ups (too-large dt, constraint failure).
        debug_assert!(
            self.system
                .pos
                .iter()
                .chain(&self.system.vel)
                .all(|v| v.iter().all(|c| c.is_finite())),
            "non-finite position/velocity after step {} (t = {} ps)",
            self.step_count,
            self.time
        );
        Ok(())
    }

    /// One velocity-Verlet + SETTLE step. Infallible wrapper around
    /// [`NveSim::try_step`]: a fault is latched into
    /// [`NveSim::last_error`] and further stepping becomes a no-op until
    /// the state is restored.
    pub fn step(&mut self) {
        if self.last_error.is_some() {
            return;
        }
        if let Err(e) = self.try_step() {
            self.last_error = Some(e);
        }
    }

    /// The fault that stopped stepping, if any. Cleared by
    /// [`NveSim::restore`].
    pub fn last_error(&self) -> Option<TmeRecoverableError> {
        self.last_error
    }

    /// Faults detected and recovered from in-step (oldest first).
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Serialise the full dynamical state for a bitwise-identical restart
    /// (DESIGN.md §11): positions, velocities, every cached force view and
    /// the r-RESPA mesh-impulse state. No neighbour list: the cell kernel's
    /// summation order is a function of the positions alone.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let s = &mut w;
        NVE_CHECKPOINT_MAGIC.encode(s);
        self.system.len().encode(s);
        self.system.waters.len().encode(s);
        topology_fingerprint(&self.system).encode(s);
        self.solver.alpha().encode(s);
        self.dt.encode(s);
        self.r_cut.encode(s);
        self.mesh_interval.encode(s);
        self.time.encode(s);
        self.step_count.encode(s);
        self.cached_mesh_energy.encode(s);
        self.mesh_weight.encode(s);
        self.energies.lj.encode(s);
        self.energies.coulomb.encode(s);
        self.energies.bonded.encode(s);
        self.exact_short_range.encode(s);
        self.system.pos.encode(s);
        self.system.vel.encode(s);
        self.forces.encode(s);
        self.forces_fast.encode(s);
        self.mesh_forces.encode(s);
        w.into_bytes()
    }

    /// Restore a [`NveSim::checkpoint`] into this simulation, resuming the
    /// trajectory bitwise. The checkpoint must belong to this system and
    /// solver — guarded by atom/water counts, a topology fingerprint
    /// (masses, charges, LJ parameters, box, exclusions), the solver's α
    /// and the cutoff the kernel table was built for. The restore is
    /// atomic: on `Err` the simulation is untouched. Clears any latched
    /// [`NveSim::last_error`].
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let n = self.system.len();
        let mut r = ByteReader::new(bytes);
        r.expect_u64(NVE_CHECKPOINT_MAGIC)?;
        if r.decode::<usize>()? != n {
            return Err(CheckpointError::Mismatch { what: "atom count" });
        }
        if r.decode::<usize>()? != self.system.waters.len() {
            return Err(CheckpointError::Mismatch {
                what: "water count",
            });
        }
        if r.decode::<u64>()? != topology_fingerprint(&self.system) {
            return Err(CheckpointError::Mismatch {
                what: "topology fingerprint",
            });
        }
        if r.decode::<f64>()?.to_bits() != self.solver.alpha().to_bits() {
            return Err(CheckpointError::Mismatch {
                what: "solver splitting alpha",
            });
        }
        let dt: f64 = r.decode()?;
        // A NaN, infinite, zero or negative step would poison the next one.
        if !(dt.is_finite() && dt > 0.0) {
            return Err(CheckpointError::Mismatch { what: "time step" });
        }
        let r_cut: f64 = r.decode()?;
        // The pair-kernel table layout depends on the cutoff it was built
        // over; a different cutoff would silently change lookup bits.
        if r_cut.to_bits() != self.r_cut.to_bits() {
            return Err(CheckpointError::Mismatch {
                what: "short-range cutoff",
            });
        }
        let mesh_interval = r.decode()?;
        let time = r.decode()?;
        let step_count = r.decode()?;
        let cached_mesh_energy = r.decode()?;
        let mesh_weight = r.decode()?;
        let energies = CachedEnergies {
            lj: r.decode()?,
            coulomb: r.decode()?,
            bonded: r.decode()?,
        };
        let exact_short_range = r.decode()?;
        let pos: Vec<V3> = r.decode()?;
        let vel: Vec<V3> = r.decode()?;
        let forces: Vec<V3> = r.decode()?;
        let forces_fast: Vec<V3> = r.decode()?;
        let mesh_forces: Vec<V3> = r.decode()?;
        for (what, v) in [
            ("position array", &pos),
            ("velocity array", &vel),
            ("force array", &forces),
            ("fast-force array", &forces_fast),
            ("mesh-force array", &mesh_forces),
        ] {
            if v.len() != n {
                return Err(CheckpointError::Mismatch { what });
            }
        }
        r.finish()?;
        self.system.pos = pos;
        self.system.vel = vel;
        self.forces = forces;
        self.forces_fast = forces_fast;
        self.mesh_forces = mesh_forces;
        self.dt = dt;
        self.mesh_interval = mesh_interval;
        self.time = time;
        self.step_count = step_count;
        self.cached_mesh_energy = cached_mesh_energy;
        self.mesh_weight = mesh_weight;
        self.energies = energies;
        self.exact_short_range = exact_short_range;
        self.last_error = None;
        Ok(())
    }

    /// Current energies (uses cached potential terms from the last force
    /// evaluation, which correspond to the current positions).
    pub fn energy_record(&self) -> EnergyRecord {
        let kinetic = self.system.kinetic_energy();
        let potential = self.energies.lj + self.energies.coulomb + self.energies.bonded;
        EnergyRecord {
            time: self.time,
            kinetic,
            lj: self.energies.lj,
            coulomb: self.energies.coulomb,
            bonded: self.energies.bonded,
            potential,
            total: kinetic + potential,
            temperature: self.system.temperature(),
        }
    }

    /// Run `steps` steps, sampling every `sample_every` (plus t = 0).
    /// Stops early (with the records gathered so far) if a numerical
    /// fault latches into [`NveSim::last_error`].
    pub fn run(&mut self, steps: usize, sample_every: usize) -> Vec<EnergyRecord> {
        let mut records = vec![self.energy_record()];
        for s in 1..=steps {
            self.step();
            if self.last_error.is_some() {
                break;
            }
            if s % sample_every.max(1) == 0 {
                records.push(self.energy_record());
            }
        }
        records
    }
}

/// FNV-1a over the immutable topology (masses, charges, LJ parameters,
/// box, exclusions) — the guard that a checkpoint is only restored into
/// the system it was taken from.
fn topology_fingerprint(sys: &MdSystem) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &m in &sys.mass {
        h = mix(h, m.to_bits());
    }
    for &q in &sys.q {
        h = mix(h, q.to_bits());
    }
    for l in &sys.lj {
        h = mix(h, l.sigma.to_bits());
        h = mix(h, l.epsilon.to_bits());
    }
    for b in sys.box_l {
        h = mix(h, b.to_bits());
    }
    for &(i, j) in &sys.exclusions {
        h = mix(h, i as u64);
        h = mix(h, j as u64);
    }
    h
}

/// The first non-finite energy or force, as the typed error reporting it.
fn non_finite(energies: &[f64], forces: &[V3]) -> Option<TmeRecoverableError> {
    if let Some(&value) = energies.iter().find(|e| !e.is_finite()) {
        return Some(TmeRecoverableError::NonFiniteEnergy { value });
    }
    forces
        .iter()
        .position(|f| !f.iter().all(|c| c.is_finite()))
        .map(|atom| TmeRecoverableError::NonFiniteForce { atom })
}

/// Least-squares drift (kJ/mol/ps) of the total energy across records —
/// the quantity Fig. 4 shows to be statistically zero for SPME and TME.
pub fn energy_drift(records: &[EnergyRecord]) -> f64 {
    let n = records.len() as f64;
    if records.len() < 2 {
        return 0.0;
    }
    let mean_t: f64 = records.iter().map(|r| r.time).sum::<f64>() / n;
    let mean_e: f64 = records.iter().map(|r| r.total).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for r in records {
        num += (r.time - mean_t) * (r.total - mean_e);
        den += (r.time - mean_t) * (r.time - mean_t);
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CutoffBackend, SpmeBackend, SpmeParams};
    use crate::water::{thermalize, water_box};
    use tme_core::alpha_from_rtol;
    use tme_num::vec3;

    fn small_water() -> MdSystem {
        // 125 waters → L ≈ 1.56 nm, so cutoffs up to 0.75 nm respect the
        // half-box minimum-image bound `NveSim::new` asserts.
        let mut s = water_box(125, 4);
        thermalize(&mut s, 300.0, 5);
        s
    }

    #[test]
    fn constraints_hold_over_many_steps() {
        let sys = small_water();
        let solver = CutoffBackend::new(0.0, 0.75).unwrap();
        let mut sim = NveSim::new(sys, &solver, 0.001, 0.75);
        for _ in 0..50 {
            sim.step();
        }
        let geom = SettleGeom::tip3p();
        for w in &sim.system.waters {
            let d = vec3::norm(vec3::sub(sim.system.pos[w.o], sim.system.pos[w.h1]));
            assert!((d - geom.d_oh).abs() < 1e-8, "O-H drifted to {d}");
            let dh = vec3::norm(vec3::sub(sim.system.pos[w.h1], sim.system.pos[w.h2]));
            assert!((dh - geom.d_hh).abs() < 1e-8, "H-H drifted to {dh}");
        }
    }

    #[test]
    fn momentum_conserved() {
        let sys = small_water();
        let solver = CutoffBackend::new(0.0, 0.75).unwrap();
        let mut sim = NveSim::new(sys, &solver, 0.001, 0.75);
        let p0 = sim.system.momentum();
        for _ in 0..20 {
            sim.step();
        }
        let p1 = sim.system.momentum();
        for a in 0..3 {
            assert!((p1[a] - p0[a]).abs() < 1e-6, "{p0:?} vs {p1:?}");
        }
    }

    #[test]
    fn energy_conserved_with_spme() {
        let sys = small_water();
        let r_cut = 0.75;
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        let spme = SpmeBackend::new(
            SpmeParams {
                n: [16; 3],
                p: 6,
                alpha,
                r_cut,
            },
            sys.box_l,
        )
        .unwrap();
        let mut sim = NveSim::new(sys, &spme, 0.001, r_cut);
        let records = sim.run(100, 10);
        let e0 = records[0].total;
        for r in &records {
            // 0.1 ps of 1 fs NVE: total energy stays within a small
            // fraction of kT per molecule.
            assert!(
                (r.total - e0).abs() < 0.05 * records[0].kinetic.abs().max(1.0),
                "t={}: {} vs {}",
                r.time,
                r.total,
                e0
            );
        }
    }

    #[test]
    fn drift_estimator_on_synthetic_data() {
        let records: Vec<EnergyRecord> = (0..10)
            .map(|i| EnergyRecord {
                time: i as f64,
                total: 5.0 + 0.25 * i as f64,
                ..Default::default()
            })
            .collect();
        assert!((energy_drift(&records) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multiple_time_stepping_stays_conservative() {
        // Mesh every other step (the Anton policy): total energy must stay
        // close to the every-step result over a short run.
        let sys = small_water();
        let r_cut = 0.75;
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        let spme = SpmeBackend::new(
            SpmeParams {
                n: [16; 3],
                p: 6,
                alpha,
                r_cut,
            },
            sys.box_l,
        )
        .unwrap();
        let run = |interval: usize| {
            let mut sim = NveSim::new(small_water(), &spme, 0.001, r_cut);
            sim.mesh_interval = interval;
            sim.run(60, 10)
        };
        let every = run(1);
        let alternate = run(2);
        let drift1 = energy_drift(&every).abs();
        let drift2 = energy_drift(&alternate).abs();
        let kinetic = every[0].kinetic.abs().max(1.0);
        // Both conserve to well under a percent of the kinetic energy per
        // ps; MTS may be modestly worse but not catastrophically.
        assert!(drift1 * 0.06 < 0.02 * kinetic, "every-step drift {drift1}");
        assert!(
            drift2 * 0.06 < 0.04 * kinetic,
            "alternate-step drift {drift2}"
        );
        // And the trajectories stay energetically close.
        let d_total = (every.last().unwrap().total - alternate.last().unwrap().total).abs();
        assert!(d_total < 0.02 * kinetic, "MTS diverged by {d_total} kJ/mol");
    }

    #[test]
    fn initial_velocities_satisfy_constraints() {
        let sys = small_water();
        let solver = CutoffBackend::new(0.0, 0.75).unwrap();
        let sim = NveSim::new(sys, &solver, 0.001, 0.75);
        for w in &sim.system.waters {
            let e = vec3::sub(sim.system.pos[w.o], sim.system.pos[w.h1]);
            let rate = vec3::dot(vec3::sub(sim.system.vel[w.o], sim.system.vel[w.h1]), e);
            assert!(rate.abs() < 1e-10, "bond rate {rate}");
        }
    }
}
