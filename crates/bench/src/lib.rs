//! Shared helpers for the binaries under `src/bin/*`, which do two jobs:
//! reproduce the paper's tables and figures (`fig3`, `fig4`, `fig9`,
//! `fig10`, `table1`, `table2`, `cost_model`, `grid64_estimate`,
//! `scaling`, `nextgen`) and act as CI pass/fail gates:
//! `pipeline_scaling` against the committed `BENCH_pipeline.json`, and
//! `serve_load` on ratios and bounds within its own run (its
//! `BENCH_serve.json` is a record, not a baseline). Both gates end one
//! way, through [`Checks`]: every gate judgement is recorded, every leg
//! runs after a failed one, the report is always written with its
//! `failed_checks`, and the exit status is 1 only if that list is not
//! empty. [`fail`] is for a run that cannot produce a report at all.
//! Timing the repository itself is `benchmark/`'s job.

use tme_md::water::{relax, water_box};
use tme_mesh::CoulombSystem;
use tme_num::args::Args;
use tme_num::json::JsonObject;

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

/// Print `FAIL: <why>` and exit 1, for a run that cannot produce a
/// report: a server that did not start, a failed setup request, a
/// panicked client thread, a plan or execute error.
pub fn fail(why: impl std::fmt::Display) -> ! {
    eprintln!("FAIL: {why}");
    std::process::exit(1);
}

/// The gate judgements of one harness run.
#[derive(Default)]
pub struct Checks {
    failed: Vec<String>,
}

impl Checks {
    /// Record a failed gate and print it as `FAIL: <why>`; the run goes on.
    pub fn fail(&mut self, why: String) {
        eprintln!("FAIL: {why}");
        self.failed.push(why);
    }

    /// Write `benchmark`'s report to `out_path` — `failed_checks` first,
    /// then what `build` adds — and exit 1 if any gate failed.
    pub fn finish(self, benchmark: &str, out_path: &str, build: impl FnOnce(&mut JsonObject)) {
        let json = tme_num::json::report(benchmark, |o| {
            o.strs("failed_checks", &self.failed);
            build(o);
        });
        match std::fs::write(out_path, json) {
            Ok(()) => println!("wrote {out_path}"),
            Err(e) => eprintln!("could not write {out_path}: {e}"),
        }
        if !self.failed.is_empty() {
            eprintln!("{} failed checks", self.failed.len());
            std::process::exit(1);
        }
    }
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
