//! Fig.-4-style NVE integration tests: energy conservation and the
//! TME-vs-SPME total-energy offset structure on rigid TIP3P water.

use mdgrape4a_tme::md::backend::{
    plan_backend, BackendParams, LongRangeBackend, SpmeBackend, SpmeParams, TmeBackend,
};
use mdgrape4a_tme::md::nve::{energy_drift, NveSim};
use mdgrape4a_tme::md::water::{relax, thermalize, water_box};
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams};

fn build_system() -> mdgrape4a_tme::md::MdSystem {
    let mut s = water_box(125, 8);
    relax(&mut s, 150, 0.8);
    thermalize(&mut s, 300.0, 9);
    s
}

fn run(solver: &dyn LongRangeBackend, steps: usize) -> Vec<mdgrape4a_tme::md::EnergyRecord> {
    let sys = build_system();
    let mut sim = NveSim::new(sys, solver, 0.001, 0.75);
    sim.run(steps, 10)
}

/// The 125-water test box is tiny (L ≈ 1.56 nm → h ≈ 0.1 nm), far below
/// the paper's h ≈ 0.31 nm, so the grid cutoff must be larger than the
/// hardware's g_c = 8 to keep the slowest shell Gaussian inside it.
fn tme_params(m: usize, alpha: f64, r_cut: f64) -> TmeParams {
    TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 16,
        m_gaussians: m,
        alpha,
        r_cut,
    }
}

#[test]
fn spme_and_tme_both_conserve_energy() {
    let box_l = build_system().box_l;
    let r_cut = 0.75;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let spme = SpmeBackend::new(
        SpmeParams {
            n: [16; 3],
            p: 6,
            alpha,
            r_cut,
        },
        box_l,
    )
    .unwrap();
    let tme = TmeBackend::new(tme_params(3, alpha, r_cut), box_l).unwrap();
    for (name, solver) in [("SPME", &spme as &dyn LongRangeBackend), ("TME", &tme)] {
        let records = run(solver, 150);
        let drift = energy_drift(&records);
        let kinetic = records[0].kinetic.abs().max(1.0);
        // Drift per ps must be a tiny fraction of the kinetic energy.
        assert!(
            (drift * 0.15).abs() < 0.02 * kinetic,
            "{name}: drift {drift} kJ/mol/ps vs kinetic {kinetic}"
        );
    }
}

#[test]
fn tme_total_energy_offset_shrinks_with_m() {
    // Fig. 4: TME(M=1) underestimates the total energy relative to SPME;
    // the offset improves for M = 2, 3. Offsets are already visible at
    // t = 0 (they are potential-energy biases of the M-Gaussian fit).
    let box_l = build_system().box_l;
    let r_cut = 0.75;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let spme = SpmeBackend::new(
        SpmeParams {
            n: [16; 3],
            p: 6,
            alpha,
            r_cut,
        },
        box_l,
    )
    .unwrap();
    let e_spme = {
        let sys = build_system();
        NveSim::new(sys, &spme, 0.001, r_cut).energy_record().total
    };
    let mut offsets = Vec::new();
    for m in [1usize, 2, 3] {
        let tme = plan_backend(&BackendParams::Tme(tme_params(m, alpha, r_cut)), box_l).unwrap();
        let sys = build_system();
        let e = NveSim::new(sys, tme.as_ref(), 0.001, r_cut)
            .energy_record()
            .total;
        offsets.push((e - e_spme).abs());
    }
    // M = 1 visibly offset; M = 2, 3 close to SPME (near convergence the
    // ordering of M = 2 vs 3 can fluctuate within noise).
    assert!(
        offsets[1] < 0.5 * offsets[0] && offsets[2] < 0.5 * offsets[0],
        "offsets did not shrink with M: {offsets:?}"
    );
}

#[test]
fn temperature_stays_physical() {
    let box_l = build_system().box_l;
    let r_cut = 0.75;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let tme = TmeBackend::new(tme_params(3, alpha, r_cut), box_l).unwrap();
    let records = run(&tme, 100);
    for r in &records {
        assert!(
            r.temperature > 100.0 && r.temperature < 700.0,
            "T = {} K",
            r.temperature
        );
    }
}
