//! Fig. 4 — NVE total-energy traces of SPME vs TME (g_c = 8, M = 1, 2, 3).
//!
//! The paper runs 200 ps of 32,773 rigid TIP3P waters in GROMACS (double
//! precision, SETTLE, 1 fs). Default here: 1,000 waters for 10 ps with the
//! same integrator structure (velocity-Verlet + SETTLE) — enough to show
//! the two observables of the figure:
//!
//! * no systematic energy drift for either method,
//! * a total-energy *offset* of TME(M = 1) relative to SPME that shrinks
//!   as M grows (the paper sees ≈ −80 kJ/mol at 98 k atoms for M = 1).
//!
//! Usage:
//!   cargo run -p tme-bench --bin fig4 --release \
//!       [--waters 1000] [--ps 10] [--rc 1.25] [--sample 100]
//!       [--relax 300] [--equil 0.5]
//!
//! `--equil` runs that many ps of Berendsen-thermostatted dynamics (with
//! the SPME solver) before the NVE measurement, so every method starts
//! from the same 300 K liquid-like state — mirroring the paper's use of
//! GROMACS-equilibrated configurations.

use tme_bench::grid_for_box;
use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::{plan_backend, BackendParams, LongRangeBackend, SpmeParams};
use tme_md::nve::{energy_drift, NveSim};
use tme_md::thermostat::Berendsen;
use tme_md::water::{relax, thermalize, water_box};

fn main() {
    let mut args = tme_bench::init_cli();
    let n_waters: usize = args.get_or("--waters", 1000);
    let ps: f64 = args.get_or("--ps", 10.0);
    let r_cut: f64 = args.get_or("--rc", 1.25);
    let sample: usize = args.get_or("--sample", 100);
    let relax_steps: usize = args.get_or("--relax", 300);
    let equil_ps: f64 = args.get_or("--equil", 0.5);
    let mesh_every: usize = args.get_or("--mesh-every", 1);
    args.finish();
    let steps = (ps * 1000.0).round() as usize; // 1 fs steps
    let alpha = alpha_from_rtol(r_cut, 1e-4);

    let base_system = {
        let mut s = water_box(n_waters, 11);
        relax(&mut s, relax_steps, r_cut.min(0.9));
        thermalize(&mut s, 300.0, 12);
        s
    };
    let probe = &base_system;
    if probe.box_l[0] <= 2.0 * r_cut {
        eprintln!(
            "error: box edge {:.3} nm must exceed 2·rc = {:.3} nm; increase --waters or lower --rc",
            probe.box_l[0],
            2.0 * r_cut
        );
        std::process::exit(2);
    }
    let n_grid = grid_for_box(probe.box_l[0]).max(16);
    println!(
        "# Fig 4: {} waters, L = {:.4} nm, N = {n_grid}^3, rc = {r_cut} nm, {} steps of 1 fs",
        n_waters, probe.box_l[0], steps
    );

    let spme = plan_backend(
        &BackendParams::Spme(SpmeParams {
            n: [n_grid; 3],
            p: 6,
            alpha,
            r_cut,
        }),
        probe.box_l,
    )
    .expect("SPME plan");

    // Shared equilibration: Berendsen-thermostatted dynamics from the
    // relaxed lattice, so the NVE measurement starts at ~300 K.
    let equilibrated = {
        let mut sim = NveSim::new(base_system.clone(), spme.as_ref(), 0.001, r_cut);
        let thermo = Berendsen::new(300.0, 0.1);
        let equil_steps = (equil_ps * 1000.0).round() as usize;
        for _ in 0..equil_steps {
            sim.step();
            thermo.apply(&mut sim.system, 0.001);
        }
        eprintln!(
            "[equilibrated {equil_ps} ps with Berendsen: T = {:.0} K]",
            sim.system.temperature()
        );
        sim.system
    };
    let mut solvers: Vec<(String, std::sync::Arc<dyn LongRangeBackend>)> =
        vec![("SPME".into(), spme)];
    for m in 1..=3usize {
        let params = TmeParams {
            n: [n_grid; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: m,
            alpha,
            r_cut,
        };
        solvers.push((
            format!("TME M={m}"),
            plan_backend(&BackendParams::Tme(params), probe.box_l).expect("TME plan"),
        ));
    }

    if mesh_every > 1 {
        println!("# long-range mesh evaluated every {mesh_every} steps (r-RESPA impulse)");
    }
    let mut all = Vec::new();
    for (name, solver) in &solvers {
        let sys = equilibrated.clone();
        let mut sim = NveSim::new(sys, solver.as_ref(), 0.001, r_cut);
        sim.mesh_interval = mesh_every;
        let records = sim.run(steps, sample);
        eprintln!(
            "[{name}: E0 = {:.2} kJ/mol, drift = {:.4} kJ/mol/ps, T = {:.0} K]",
            records[0].total,
            energy_drift(&records),
            records.last().unwrap().temperature
        );
        all.push((name.clone(), records));
    }

    println!(
        "# time(ps)\t{}",
        all.iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
            .join("\t")
    );
    let rows = all[0].1.len();
    for i in 0..rows {
        print!("{:.3}", all[0].1[i].time);
        for (_, records) in &all {
            print!("\t{:.4}", records[i].total);
        }
        println!();
    }

    println!("#\n# summary (paper Fig. 4 shape): zero drift for all; TME(M=1) offset");
    println!("# below SPME, shrinking for M=2,3");
    let e_spme = all[0].1[0].total;
    for (name, records) in &all {
        let offset = records[0].total - e_spme;
        let drift = energy_drift(records);
        println!("{name:<9} offset vs SPME = {offset:+9.3} kJ/mol   drift = {drift:+.4} kJ/mol/ps");
    }
}
