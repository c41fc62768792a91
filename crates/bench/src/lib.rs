//! Shared helpers for the binaries under `src/bin/*`, which do two jobs:
//! reproduce the paper's tables and figures (`fig3`, `fig4`, `fig9`,
//! `fig10`, `table1`, `table2`, `cost_model`, `grid64_estimate`,
//! `scaling`, `nextgen`) and act as CI pass/fail gates against the
//! committed `BENCH_*.json` baselines (`pipeline_scaling`, `serve_load`).
//! Timing the repository itself is `benchmark/`'s job.

use tme_md::water::{relax, water_box};
use tme_mesh::CoulombSystem;
use tme_num::args::Args;

#[cfg(feature = "alloc-count")]
pub mod alloc;

/// Start a binary: restore default SIGPIPE semantics so output piped into
/// `head`/`less` terminates quietly instead of panicking (Rust masks
/// SIGPIPE by default, turning EPIPE into a printing panic), and hand
/// back the command line. Every binary ends its flag reads with
/// [`Args::finish`], so an unknown flag or an unparseable value
/// exits 2 — binaries without flags call it straight away.
pub fn init_cli() -> Args {
    #[cfg(unix)]
    {
        // Raw libc binding: `signal(2)` is in every libc Rust links against,
        // and std offers no safe way to reset a disposition.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13; // POSIX-mandated value on every unix Rust targets
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` is async-signal-safe and called here before any
        // threads are spawned (first statement of every binary's `main`), so
        // no handler can race. SIG_DFL for SIGPIPE terminates the process on
        // a closed pipe — exactly the CLI semantics we want — and installs
        // no Rust callback, so no unwinding crosses the FFI boundary.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
    Args::parse()
}

/// Build a TIP3P water box and return it as a bare charge system.
///
/// The paper's Table 1 box is 32,773 waters at L = 9.9727 nm with a 32³
/// grid (h ≈ 0.3116 nm). Any smaller `n_waters` keeps the same density,
/// and [`grid_for_box`] keeps the same grid spacing, so the SPME/TME
/// error regime is preserved.
pub fn water_system(n_waters: usize, seed: u64) -> CoulombSystem {
    water_box(n_waters, seed).coulomb_system()
}

/// Like [`water_system`] but with `relax_steps` of constrained steepest
/// descent first — a liquid-like local structure gives force statistics
/// closer to the paper's GROMACS-equilibrated configurations.
pub fn relaxed_water_system(n_waters: usize, seed: u64, relax_steps: usize) -> CoulombSystem {
    let mut sys = water_box(n_waters, seed);
    relax(&mut sys, relax_steps, 0.9);
    sys.coulomb_system()
}

/// Pick the power-of-two grid that keeps h ≈ 0.3116 nm (the paper's
/// spacing), clamped to the hardware-supported range [16, 128] so the
/// L = 1 top level (N/2) never drops below the p = 6 spline order.
pub fn grid_for_box(box_edge: f64) -> usize {
    const H_PAPER: f64 = 9.9727 / 32.0;
    let ideal = box_edge / H_PAPER;
    let mut n = 16usize;
    while (n * 2) as f64 <= ideal * 1.5 && n < 128 {
        n *= 2;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_tracks_paper_spacing() {
        assert_eq!(grid_for_box(9.9727), 32); // the paper's box
        assert_eq!(grid_for_box(4.9863), 16); // half box
        assert_eq!(grid_for_box(19.95), 64); // §VI.A box
        assert_eq!(grid_for_box(1.0), 16); // clamped low end
    }

    #[test]
    fn water_system_is_neutral() {
        let s = water_system(27, 1);
        assert_eq!(s.len(), 81);
        assert!(s.total_charge().abs() < 1e-10);
    }
}
