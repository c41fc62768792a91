//! Molecular-dynamics substrate for the TME reproduction.
//!
//! The paper's accuracy experiments run on TIP3P water (Table 1: 32,773
//! molecules; Fig. 4: NVE with SETTLE-constrained water in GROMACS). This
//! crate provides the equivalent machinery from scratch:
//!
//! * [`units`] — GROMACS-compatible unit system and physical constants
//! * [`topology`] — atoms, molecules, exclusions; the TIP3P model
//! * [`water`] — water-box builders (lattice placement, Maxwell velocities)
//! * [`neighbors`] — cell-list neighbour search for the short-range part
//! * [`nonbond`] — Lennard-Jones + short-range Coulomb with exclusions
//! * [`constraints`] — SETTLE (analytic) and SHAKE/RATTLE (iterative) rigid
//!   constraints
//! * [`backend`] — the long-range backend layer: one plan/execute interface
//!   over TME / SPME (B-spline and PSWF) / Ewald / slab / cutoff
//!   electrostatics (DESIGN.md §14)
//! * [`bonded`] — harmonic bonds/angles (the GP cores' bonded track)
//! * [`solute`] — flexible charged bead chains (protein surrogates)
//! * [`thermostat`] — Berendsen weak coupling for equilibration
//! * [`nve`] — velocity-Verlet NVE integrator and energy bookkeeping
//!   (Fig. 4's observable)

pub mod backend;
pub mod bonded;
pub mod constraints;
pub mod neighbors;
pub mod nonbond;
pub mod nve;
pub mod solute;
pub mod thermostat;
pub mod topology;
pub mod units;
pub mod water;

pub use backend::{
    plan_backend, BackendConfigError, BackendKind, BackendParams, BackendStats, BackendWorkspace,
    LongRangeBackend,
};
pub use nve::{EnergyRecord, NveSim};
pub use topology::MdSystem;
