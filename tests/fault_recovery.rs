//! Cross-crate property tests of the MD driver's fault recovery
//! (DESIGN.md §11): checkpoint/restart, thread-count independence of the
//! forces a checkpoint carries, and the exact-`erfc` fallback.
//!
//! Everything here is `Result`-based: this file tests the machinery whose
//! contract is to never panic, so the tests hold themselves to the same
//! rule (tme-lint rule L5; `assert!`/`assert_eq!` stay allowed).

use std::sync::Arc;

use mdgrape4a_tme::md::backend::TmeBackend;
use mdgrape4a_tme::md::checkpoint::CheckpointError;
use mdgrape4a_tme::md::water::{thermalize, water_box};
use mdgrape4a_tme::md::{run_with_checkpoints, NveSim};
use mdgrape4a_tme::num::pool::Pool;
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams, TmeWorkspace};

fn bits_of(v: &[[f64; 3]]) -> Vec<u64> {
    v.iter().flatten().map(|c| c.to_bits()).collect()
}

fn paper_tme(box_l: [f64; 3], r_cut: f64) -> Result<TmeBackend, String> {
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    TmeBackend::new(
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha,
            r_cut,
        },
        box_l,
    )
    .map_err(|e| format!("paper TME configuration rejected: {e}"))
}

/// The MD driver's checkpoint restarts a TME-solved trajectory bitwise:
/// kill after 7 of 10 steps, restore the step-4 checkpoint into a fresh
/// simulation, finish, and compare every position/velocity/force bit.
#[test]
fn nve_tme_checkpoint_restart_is_bitwise() -> Result<(), CheckpointError> {
    let mut sys = water_box(64, 6);
    thermalize(&mut sys, 300.0, 11);
    let r_cut = 0.55;
    let Ok(tme) = paper_tme(sys.box_l, r_cut) else {
        return Err(CheckpointError::Mismatch {
            what: "test TME configuration rejected",
        });
    };

    let total_steps = 10;
    let mut reference = NveSim::new(sys.clone(), &tme, 0.001, r_cut);
    reference.run(total_steps, total_steps);
    assert!(reference.last_error().is_none());

    let mut crashed = NveSim::new(sys.clone(), &tme, 0.001, r_cut);
    let run = run_with_checkpoints(&mut crashed, 7, 7, 4);
    assert!(run.fault.is_none());
    let (at, bytes) = match run.latest() {
        Some((at, bytes)) => (*at, bytes.clone()),
        None => {
            return Err(CheckpointError::Mismatch {
                what: "missing checkpoint",
            })
        }
    };
    assert_eq!(at, 4);
    drop(crashed);

    let mut restarted = NveSim::new(sys, &tme, 0.001, r_cut);
    restarted.restore(&bytes)?;
    for _ in at..total_steps {
        restarted.step();
    }
    assert!(restarted.last_error().is_none());
    assert_eq!(
        bits_of(&reference.system.pos),
        bits_of(&restarted.system.pos)
    );
    assert_eq!(
        bits_of(&reference.system.vel),
        bits_of(&restarted.system.vel)
    );
    assert_eq!(bits_of(reference.forces()), bits_of(restarted.forces()));
    Ok(())
}

/// The TME forces feeding that trajectory do not depend on the thread
/// count: 1-thread and 4-thread workspaces produce identical bits, so a
/// checkpoint taken on one host restarts bitwise on another.
#[test]
fn tme_forces_bitwise_identical_at_1_and_4_threads() -> Result<(), String> {
    let mut sys = water_box(64, 6);
    thermalize(&mut sys, 300.0, 11);
    let r_cut = 0.55;
    let tme = paper_tme(sys.box_l, r_cut)?;
    let coul = sys.coulomb_system();

    let mut bits: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        let pool = Arc::new(Pool::new(threads));
        let mut ws = TmeWorkspace::with_pool(tme.tme(), pool);
        let out = tme.tme().compute_with(&mut ws, &coul);
        bits.push(bits_of(&out.forces));
    }
    assert_eq!(bits[0], bits[1], "TME forces changed bits with threads");
    Ok(())
}

/// The NVE exact-`erfc` degraded mode stays on the table-mode trajectory
/// to table accuracy — the fallback the in-step recovery switches to is
/// a faithful stand-in, not different physics.
#[test]
fn degraded_exact_mode_tracks_table_mode() -> Result<(), String> {
    let mut sys = water_box(64, 6);
    thermalize(&mut sys, 300.0, 11);
    let r_cut = 0.55;
    let tme = paper_tme(sys.box_l, r_cut)?;

    let run = |exact: bool| -> Result<f64, String> {
        let mut sim = NveSim::new(sys.clone(), &tme, 0.001, r_cut);
        sim.exact_short_range = exact;
        let records = sim.run(20, 20);
        if let Some(e) = sim.last_error() {
            return Err(format!("run (exact={exact}) faulted: {e}"));
        }
        records
            .last()
            .map(|r| r.total)
            .ok_or_else(|| format!("run (exact={exact}) produced no samples"))
    };
    let table = run(false)?;
    let exact = run(true)?;
    assert!(
        (table - exact).abs() < 1e-6 * table.abs().max(1.0),
        "table {table} vs exact {exact} kJ/mol"
    );
    Ok(())
}
