//! Reference and baseline electrostatics solvers.
//!
//! Everything the paper compares the TME against, or uses to measure it:
//!
//! * [`ewald`] — classical direct Ewald summation (real-space pair sum +
//!   exact reciprocal-space lattice sum). This is the *reference* method
//!   the paper uses to compute `F_i^ref` for Table 1 (run in double
//!   precision with tolerances below 1e-15).
//! * [`pairwise`] — the exact O(N²) `erfc(αr)/r` pair sum the Ewald
//!   reference runs on (the oracle for the cell kernel every other solver
//!   uses), with the pair kernels and self term all methods share.
//! * [`spme`] — the smooth particle-mesh Ewald method (Essmann et al.),
//!   the baseline whose accuracy Table 1 compares the TME to and whose
//!   top-level form the TME reuses on the coarsest grid.
//! * [`msm`] — the §III.C computational/communication cost formulas of
//!   B-spline MSM's direct `(2g_c+1)³` convolution against the TME's
//!   separable 1-D passes (the dense-shell cascade is `tme_core::msm`).
//!
//! All solvers work in reduced Gaussian units (see `tme_mesh::model`).

pub mod ewald;
pub mod msm;
pub mod pairwise;
pub mod spme;

pub use ewald::{Ewald, EwaldParams, EwaldScratch};
pub use spme::{Spme, SpmeScratch};
