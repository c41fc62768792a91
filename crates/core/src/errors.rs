//! A-priori error estimation and parameter auto-tuning for the TME.
//!
//! §III.B of the paper establishes empirically which (g_c, M) converge for
//! a given α·h regime; this module provides the corresponding closed-form
//! estimates so a user can pick parameters without running the Table-1
//! sweep:
//!
//! * **splitting** — the real-space truncation `erfc(α r_c)` that SPME and
//!   TME share (the GROMACS `ewald-rtol`); this is the error floor.
//! * **quadrature** — the max normalised error of the M-point
//!   Gauss–Legendre fit of the middle shell (Fig. 3(b)), evaluated
//!   directly from [`GaussianFit`].
//! * **truncation** — the mass of the slowest shell Gaussian outside the
//!   grid cutoff: `erfc(a_min · g_c)` with `a_min = α_min · h_min` the
//!   smallest dimensionless width over fit terms and axes (the finest
//!   axis clips hardest), which is how much of the 1-D kernel the g_c
//!   clipping discards.
//!
//! A TME configuration behaves like SPME (Table 1's "comparable" claim)
//! when quadrature and truncation both sit at or below the splitting
//! floor — that is exactly what [`auto_params`] enforces.

use crate::shells::GaussianFit;
use crate::solver::TmeParams;
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_num::special::erfc;
use tme_num::vec3::V3;

/// The three error contributions of a TME configuration (dimensionless
/// relative-error scale estimates).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBudget {
    /// Shared Ewald real-space truncation `erfc(α r_c)`.
    pub splitting: f64,
    /// M-Gaussian quadrature error of the middle shells (Fig. 3(b) scale).
    pub quadrature: f64,
    /// Grid-cutoff clipping of the slowest shell Gaussian.
    pub truncation: f64,
}

/// Estimate the error budget of a configuration on a box with grid
/// spacing `h = box_l / n` per axis.
pub fn estimate(params: &TmeParams, box_l: V3) -> ErrorBudget {
    // The binding truncation constraint is the axis with the FINEST
    // spacing: smaller h ⇒ smaller dimensionless width a = α_ν h ⇒ the
    // Gaussian spans more grid points, so g_c clips more of it.
    let h_min = (0..3)
        .map(|j| box_l[j] / params.n[j] as f64)
        .fold(f64::INFINITY, f64::min);
    let fit = GaussianFit::new(params.alpha, params.m_gaussians);
    // Smallest dimensionless Gaussian width over the fit terms and axes.
    let a_min = fit
        .terms()
        .iter()
        .map(|t| t.a * h_min)
        .fold(f64::INFINITY, f64::min);
    ErrorBudget {
        splitting: erfc(params.alpha * params.r_cut),
        quadrature: fit.normalised_max_error(5.0, 400),
        truncation: erfc(a_min * params.gc as f64),
    }
}

/// Pick the smallest `M` and `g_c` whose TME-specific errors fall below
/// the splitting floor, starting from the hardware defaults.
///
/// Returns parameters with `levels = 1` on an `n³` grid; the caller can
/// raise `levels` afterwards (the kernel is level-invariant, so the
/// estimates hold per level).
pub fn auto_params(box_l: V3, n: [usize; 3], r_cut: f64, p: usize, rtol: f64) -> TmeParams {
    let alpha = crate::alpha_from_rtol(r_cut, rtol);
    let mut params = TmeParams {
        n,
        p,
        levels: 1,
        gc: 4,
        m_gaussians: 1,
        alpha,
        r_cut,
    };
    // Grow M until quadrature is below the floor (Fig. 3(b): ~30× per M).
    while params.m_gaussians < 16 {
        let b = estimate(&params, box_l);
        if b.quadrature <= b.splitting {
            break;
        }
        params.m_gaussians += 1;
    }
    // Grow g_c until truncation is below the floor.
    while params.gc < 64 {
        let b = estimate(&params, box_l);
        if b.truncation <= b.splitting {
            break;
        }
        params.gc += 2;
    }
    params
}

/// A [`TmeParams`] set that cannot be planned. Returned by
/// [`crate::Tme::try_new`]; [`crate::Tme::new`] panics with the same
/// message.
#[derive(Clone, Debug, PartialEq)]
pub enum TmeConfigError {
    /// `levels = 0`: the method needs at least one middle-range shell.
    NoLevels,
    /// `m_gaussians = 0`: each shell needs at least one quadrature term.
    NoGaussians,
    /// The B-spline order is not an even number in `2..=12` (the orders
    /// the spline and two-scale tables are built for).
    BadOrder {
        /// B-spline order `p`.
        p: usize,
    },
    /// The finest grid is not divisible by `2^L`, so the restriction
    /// cascade cannot reach the top level.
    IndivisibleGrid {
        /// Finest grid dims `N`.
        n: [usize; 3],
        /// Required divisor `2^L`.
        scale: usize,
    },
    /// The top-level grid is smaller than the spline support, so the
    /// order-`p` interpolation would self-overlap.
    TopGridTooSmall {
        /// Top-level grid dims `N / 2^L`.
        n_top: [usize; 3],
        /// B-spline order `p`.
        p: usize,
    },
    /// The Ewald splitting is unusable: `α` must be finite and ≥ 0 and
    /// `r_c` positive (the pair-kernel table is built over `[0, r_c]`).
    BadSplitting {
        /// Splitting parameter `α`.
        alpha: f64,
        /// Short-range cutoff `r_c`.
        r_cut: f64,
    },
}

impl std::fmt::Display for TmeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoLevels => write!(f, "TME needs at least one middle level"),
            Self::NoGaussians => write!(f, "TME needs at least one Gaussian per shell"),
            Self::BadOrder { p } => write!(f, "spline order {p} must be even, in 2..=12"),
            Self::IndivisibleGrid { n, scale } => {
                write!(f, "grid {n:?} not divisible by 2^L = {scale}")
            }
            Self::TopGridTooSmall { n_top, p } => write!(
                f,
                "top grid {n_top:?} smaller than spline order {p}: interpolation would self-overlap"
            ),
            Self::BadSplitting { alpha, r_cut } => write!(
                f,
                "unusable Ewald splitting: alpha = {alpha} (need finite ≥ 0), r_cut = {r_cut} (need > 0)"
            ),
        }
    }
}

impl std::error::Error for TmeConfigError {}

/// A *runtime* numerical fault the solver detected mid-step — in release
/// builds too, where the hot-path `debug_assert!` invariants are compiled
/// out. Unlike [`TmeConfigError`] (a plan-time rejection) these are
/// recoverable: the caller can answer by discarding the step, or by
/// restoring a checkpoint and re-planning (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TmeRecoverableError {
    /// The total energy left the solver non-finite.
    NonFiniteEnergy {
        /// The offending value (NaN or ±∞).
        value: f64,
    },
    /// A per-atom force component left the solver non-finite.
    NonFiniteForce {
        /// Index of the first offending atom.
        atom: usize,
    },
    /// An input position/charge was non-finite — or a coordinate sat more
    /// than [`MAX_BOX_IMAGES`] box lengths out — before the solve even
    /// started; recovery must fix the state, not the kernel.
    NonFiniteInput {
        /// Index of the first offending atom.
        atom: usize,
    },
    /// The pair-kernel table does not cover the short-range cutoff, so
    /// tabulated lookups would clamp silently; the exact-`erfc` path is
    /// unaffected.
    PairTableDomain {
        /// Requested short-range cutoff.
        r_cut: f64,
        /// Largest distance the table covers.
        r_table: f64,
    },
    /// The caller passed an execute workspace that was built for a
    /// different plan (backend kind or geometry). Recovery: rebuild the
    /// workspace with the plan's `make_workspace` — the hot path cannot
    /// do that itself, it is allocation-free by contract.
    WorkspaceMismatch,
    /// The system's box is not the one the plan was built for (a mesh
    /// plan compares the edge bits; the box-free cutoff model needs every
    /// edge ≥ 2·r_cut). Recovery: plan for the system's box.
    BoxMismatch {
        /// The system's box edges.
        box_l: V3,
    },
}

impl std::fmt::Display for TmeRecoverableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteEnergy { value } => {
                write!(f, "non-finite energy {value} leaving the solver")
            }
            Self::NonFiniteForce { atom } => {
                write!(f, "non-finite force on atom {atom} leaving the solver")
            }
            Self::NonFiniteInput { atom } => {
                write!(
                    f,
                    "non-finite or out-of-range position/charge on atom {atom} entering the solver"
                )
            }
            Self::PairTableDomain { r_cut, r_table } => write!(
                f,
                "pair-kernel table covers r ≤ {r_table} but the cutoff is {r_cut}"
            ),
            Self::WorkspaceMismatch => write!(
                f,
                "execute workspace does not match this plan (rebuild it with make_workspace)"
            ),
            Self::BoxMismatch { box_l } => {
                write!(
                    f,
                    "system box {box_l:?} is not the box this plan was built for"
                )
            }
        }
    }
}

impl std::error::Error for TmeRecoverableError {}

/// Farthest an input coordinate may sit from the origin, in box lengths.
/// Wrapping `x` into the box keeps `53 − log2|x/L|` mantissa bits of the
/// in-box position: a trajectory never drifts 2²⁰ images, a corrupted
/// coordinate (`1e300` is "finite") does, and its wrapped image is noise
/// that the cell binning and the spline index paths must never see.
pub const MAX_BOX_IMAGES: f64 = (1u64 << 20) as f64;

/// Reject positions/charges the pipeline cannot represent (non-finite, or
/// beyond [`MAX_BOX_IMAGES`]) before they poison it — the input half of
/// the checked execute contract every backend shares (DESIGN.md §14.1).
pub fn validate_inputs(system: &CoulombSystem) -> Result<(), TmeRecoverableError> {
    let reach = system.box_l.map(|l| l * MAX_BOX_IMAGES);
    for (atom, (p, q)) in system.pos.iter().zip(&system.q).enumerate() {
        // NaN fails `<=`, so it is rejected along with ±∞ and the far-out.
        if !(q.is_finite() && (0..3).all(|a| p[a].abs() <= reach[a])) {
            return Err(TmeRecoverableError::NonFiniteInput { atom });
        }
    }
    Ok(())
}

/// Reject non-finite energy/forces leaving a solver — the output half of
/// the checked execute contract (the release-mode version of the
/// `compute_with` debug assertion).
pub fn validate_result(out: &CoulombResult) -> Result<(), TmeRecoverableError> {
    if !out.energy.is_finite() {
        return Err(TmeRecoverableError::NonFiniteEnergy { value: out.energy });
    }
    for (atom, f) in out.forces.iter().enumerate() {
        if !f.iter().all(|c| c.is_finite()) {
            return Err(TmeRecoverableError::NonFiniteForce { atom });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_box() -> (V3, [usize; 3]) {
        ([9.9727; 3], [32; 3])
    }

    #[test]
    fn estimates_decrease_with_m_and_gc() {
        let (box_l, n) = paper_box();
        let alpha = crate::alpha_from_rtol(1.0, 1e-4);
        let base = TmeParams {
            n,
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 1,
            alpha,
            r_cut: 1.0,
        };
        let mut prev = f64::INFINITY;
        for m in 1..=4 {
            let b = estimate(
                &TmeParams {
                    m_gaussians: m,
                    ..base
                },
                box_l,
            );
            assert!(b.quadrature < prev, "M={m}");
            prev = b.quadrature;
        }
        let mut prev = f64::INFINITY;
        for gc in [4usize, 8, 12, 16] {
            let b = estimate(&TmeParams { gc, ..base }, box_l);
            assert!(b.truncation < prev, "gc={gc}");
            prev = b.truncation;
        }
    }

    /// The paper's §III.B conclusion — "M = 3 and g_c = 8 were sufficient
    /// for the convergence of the TME in this example" — must fall out of
    /// the estimator for the paper's own box.
    #[test]
    fn auto_params_reproduce_papers_choice() {
        let (box_l, n) = paper_box();
        for &r_cut in &[1.0, 1.25, 1.5] {
            let p = auto_params(box_l, n, r_cut, 6, 1e-4);
            assert!(
                (2..=4).contains(&p.m_gaussians),
                "rc={r_cut}: auto M = {}",
                p.m_gaussians
            );
            assert!((6..=12).contains(&p.gc), "rc={r_cut}: auto g_c = {}", p.gc);
            let b = estimate(&p, box_l);
            // TME-specific terms hidden under the splitting floor: the
            // "comparable to SPME" regime of Table 1.
            let tme_specific = b.quadrature.max(b.truncation);
            assert!(tme_specific <= 3.0 * b.splitting, "rc={r_cut}: {b:?}");
        }
    }

    /// Finer grids (smaller h) need larger g_c — the regime the
    /// integration tests on small boxes run into.
    #[test]
    fn finer_grid_needs_larger_cutoff() {
        let box_l = [9.9727; 3];
        let coarse = auto_params(box_l, [32; 3], 1.0, 6, 1e-4);
        let fine = auto_params(box_l, [64; 3], 1.0, 6, 1e-4);
        assert!(fine.gc > coarse.gc, "{} !> {}", fine.gc, coarse.gc);
    }

    /// Estimated budgets rank measured errors: run three configurations
    /// on a small water-like system and check the ordering matches.
    #[test]
    fn budget_ranks_measured_errors() {
        use tme_mesh::model::relative_force_error;
        use tme_mesh::CoulombSystem;
        let box_l = [4.0; 3];
        let mut state = 12u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pos = Vec::new();
        let mut q = Vec::new();
        for _ in 0..40 {
            pos.push([next() * 4.0, next() * 4.0, next() * 4.0]);
            q.push(1.0);
            pos.push([next() * 4.0, next() * 4.0, next() * 4.0]);
            q.push(-1.0);
        }
        let sys = CoulombSystem::new(pos, q, box_l);
        let reference =
            tme_reference::Ewald::new(tme_reference::EwaldParams::reference_quality(box_l, 1e-14))
                .compute(&sys);
        let alpha = crate::alpha_from_rtol(1.0, 1e-4);
        let configs = [
            (1usize, 8usize), // bad quadrature
            (4, 2),           // bad truncation
            (4, 12),          // good
        ];
        let mut results = Vec::new();
        for (m, gc) in configs {
            let params = TmeParams {
                n: [16; 3],
                p: 6,
                levels: 1,
                gc,
                m_gaussians: m,
                alpha,
                r_cut: 1.0,
            };
            let got = crate::Tme::new(params, box_l).compute(&sys);
            let measured = relative_force_error(&got.forces, &reference.forces);
            let b = estimate(&params, box_l);
            let predicted = b.quadrature.max(b.truncation);
            results.push((predicted, measured));
        }
        // The "good" config must measure best, the ranking must agree on
        // the extremes.
        assert!(
            results[2].1 < results[0].1 && results[2].1 < results[1].1,
            "{results:?}"
        );
        let best_pred = results
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .unwrap()
            .0;
        assert_eq!(best_pred, 2, "{results:?}");
    }
}
