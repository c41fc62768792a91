//! The tensor-structured multilevel Ewald summation method (TME) — the
//! paper's primary contribution (§III).
//!
//! The Coulomb kernel is split (Eq. 4) as
//!
//! ```text
//! 1/r = g_{α,S}(r) + Σ_{l=1..L} g_{α,l}(r) + g_{α/2^L,L}(r)
//! ```
//!
//! * the short-range part is the usual `erfc(αr)/r` pair sum,
//! * each **middle-range shell** `g_{α,l}` is approximated by `M` Gaussians
//!   via Gauss–Legendre quadrature ([`shells`], Eqs. 5–7), represented on
//!   the level-`l` grid as a rank-`M` *tensor-structured* kernel
//!   ([`kernel`], Eqs. 8–11), and applied by axis-wise separable
//!   convolutions with grid cutoff `g_c` ([`convolve`] — the GCU's job),
//! * grids talk to each other through the exact B-spline two-scale
//!   restriction/prolongation ([`levels`] — also GCU operations),
//! * the **top level** is plain SPME with `α → α/2^L` on the `N/2^L` grid
//!   ([`toplevel`] — the FPGA's 16³ FFT convolution).
//!
//! [`solver::Tme`] composes all of it into the six-step pipeline of §V.B.
//! The B-spline-MSM baseline §III.C compares against is the same pipeline
//! with one substitution — [`msm::try_plan`] plans a `Tme` whose level
//! kernel is the exact shell, dense, applied by direct convolution.

pub mod convolve;
pub mod distributed;
pub mod errors;
pub mod kernel;
pub mod levels;
pub mod msm;
mod rows;
pub mod shells;
pub mod solver;
pub mod timings;
pub mod toplevel;
pub mod workspace;

pub use distributed::{Decomposition, DecompositionError};
pub use errors::{TmeConfigError, TmeRecoverableError};
pub use kernel::TensorKernel;
pub use shells::GaussianFit;
pub use solver::{Tme, TmeParams, TmeStats};
pub use timings::TmeStageTimings;
pub use workspace::TmeWorkspace;

/// Solve `erfc(α r_c) = rtol` for α by bisection — the GROMACS
/// `ewald-rtol` parameterisation the paper uses throughout (§III.B).
pub fn alpha_from_rtol(r_cut: f64, rtol: f64) -> f64 {
    assert!(r_cut > 0.0);
    tme_num::special::erfc_inv(rtol) / r_cut
}
