//! NVE water dynamics with TME electrostatics: velocity-Verlet + SETTLE,
//! reporting energy conservation — a miniature of the paper's Fig. 4 run.
//!
//! Run: `cargo run --example water_nve --release`

use mdgrape4a_tme::md::backend::TmeBackend;
use mdgrape4a_tme::md::nve::{energy_drift, NveSim};
use mdgrape4a_tme::md::water::{relax, thermalize, water_box};
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams};

fn main() {
    let mut system = water_box(216, 7);
    relax(&mut system, 300, 0.9); // remove lattice-construction overlaps
    thermalize(&mut system, 300.0, 8);
    let box_l = system.box_l;
    println!(
        "NVE: {} rigid TIP3P waters, L = {:.3} nm, velocity-Verlet + SETTLE, dt = 1 fs",
        system.waters.len(),
        box_l[0]
    );

    // Box is ~1.9 nm, so keep the cutoff below L/2.
    let r_cut = 0.9;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let tme = TmeBackend::new(
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 3,
            alpha,
            r_cut,
        },
        box_l,
    )
    .expect("valid TME configuration");

    let mut sim = NveSim::new(system, &tme, 0.001, r_cut);
    let records = sim.run(500, 50);
    println!("\n  t (ps)   E_total (kJ/mol)   E_kin      T (K)");
    for r in &records {
        println!(
            "  {:6.3}   {:14.3}   {:8.2}   {:6.1}",
            r.time, r.total, r.kinetic, r.temperature
        );
    }
    let drift = energy_drift(&records);
    let span = records.last().unwrap().time;
    println!("\nenergy drift over {span:.2} ps: {drift:+.4} kJ/mol/ps");
    let per_kt = drift.abs() * span / (records[0].kinetic.abs().max(1.0));
    println!("relative to kinetic energy: {per_kt:.2e} (should be ≪ 1)");
    assert!(per_kt < 0.05, "energy not conserved");
    println!("OK — no systematic drift (the Fig. 4 property)");
}
