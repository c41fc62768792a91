//! Table 1 — relative force errors of SPME and TME (L = 1) against the
//! direct Ewald reference, for r_c ∈ {1, 1.25, 1.5} nm, g_c ∈ {4, 8, 12},
//! M ∈ {1..4}, p = 6, with α from erfc(α r_c) = 1e-4.
//!
//! Every SPME and TME entry is planned by `plan_backend` and evaluated by
//! one `LongRangeBackend::compute_into` — cell kernel on the plan's pair
//! table, mesh and self term — the path every served and MD solve runs.
//!
//! The paper uses 32,773 TIP3P waters (98,319 atoms, L = 9.9727 nm, 32³
//! grid). The default here is the geometry-similar half-edge box (4,142
//! waters, L ≈ 4.99 nm, 16³ grid — same grid spacing h and same α(r_c),
//! hence the same accuracy regime) so the reference Ewald sum finishes in
//! ~a minute on one core. `--full` runs the paper-size box.
//!
//! Usage:
//!   cargo run -p tme-bench --bin table1 --release [--waters N] [--full]

use std::time::Instant;
use tme_bench::{fail, grid_for_box, relaxed_water_system};
use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::{plan_backend, BackendParams, SpmeParams};
use tme_mesh::model::{relative_force_error, CoulombResult, CoulombSystem};
use tme_num::vec3::V3;
use tme_reference::ewald::{Ewald, EwaldParams};

/// Relative force error of the full Coulomb sum of the backend `params`
/// plans, against `reference`.
fn force_error(params: &BackendParams, sys: &CoulombSystem, reference: &[V3]) -> f64 {
    let plan = plan_backend(params, sys.box_l)
        .unwrap_or_else(|e| fail(format_args!("configuration rejected: {e}")));
    let mut ws = plan.make_workspace();
    let mut out = CoulombResult::default();
    if let Err(e) = plan.compute_into(sys, &mut ws, &mut out) {
        fail(format_args!("{} execute failed: {e}", plan.name()));
    }
    relative_force_error(&out.forces, reference)
}

fn main() {
    let mut args = tme_bench::init_cli();
    let full = args.flag("--full");
    let waters: usize = args.get_or("--waters", 4_142);
    let relax_steps: usize = args.get_or("--relax", 200);
    args.finish();
    let n_waters = if full { 32_773 } else { waters };
    let t_relax = Instant::now();
    let sys = relaxed_water_system(n_waters, 2021, relax_steps);
    eprintln!(
        "[box built + {relax_steps} relaxation steps in {:.1} s]",
        t_relax.elapsed().as_secs_f64()
    );
    let box_edge = sys.box_l[0];
    let n_grid = grid_for_box(box_edge);
    println!(
        "# Table 1: {} waters ({} atoms), L = {:.5} nm, N = {n_grid}^3, p = 6",
        n_waters,
        sys.len(),
        box_edge
    );
    println!("# (paper: 32,773 waters, L = 9.9727 nm, N = 32^3; run with --full to match)");

    let r_cuts = [1.0, 1.25, 1.5];
    let gcs = [4usize, 8, 12];
    let ms = [1usize, 2, 3, 4];

    // Reference forces: direct Ewald at < 1e-15 theoretical force error.
    let t0 = Instant::now();
    let reference = Ewald::new(EwaldParams::reference_quality(sys.box_l, 1e-15));
    println!(
        "# reference Ewald: alpha = {:.6} nm^-1, r_c = {:.4} nm, n_c = {}",
        reference.params.alpha, reference.params.r_cut, reference.params.n_cut
    );
    let ref_forces = reference.compute(&sys).forces;
    eprintln!(
        "[reference Ewald done in {:.1} s]",
        t0.elapsed().as_secs_f64()
    );

    println!("#\n# method  g_c  M   rc=1.00        rc=1.25        rc=1.50");
    let mut spme_row = vec![0.0f64; r_cuts.len()];
    let mut tme_rows: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    for (ri, &r_cut) in r_cuts.iter().enumerate() {
        if 2.0 * r_cut >= box_edge {
            eprintln!("[rc={r_cut}: skipped — box edge {box_edge:.3} nm < 2 rc; use more waters]");
            continue;
        }
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        let spme = SpmeParams {
            n: [n_grid; 3],
            p: 6,
            alpha,
            r_cut,
        };
        spme_row[ri] = force_error(&BackendParams::Spme(spme), &sys, &ref_forces);
        eprintln!("[rc={r_cut}: SPME done, err {:.3e}]", spme_row[ri]);

        for &gc in &gcs {
            for &m in &ms {
                let tme = TmeParams {
                    n: [n_grid; 3],
                    p: 6,
                    levels: 1,
                    gc,
                    m_gaussians: m,
                    alpha,
                    r_cut,
                };
                let err = force_error(&BackendParams::Tme(tme), &sys, &ref_forces);
                match tme_rows.iter_mut().find(|(g, mm, _)| *g == gc && *mm == m) {
                    Some((_, _, row)) => row.push(err),
                    None => tme_rows.push((gc, m, vec![err])),
                }
            }
        }
        eprintln!("[rc={r_cut}: TME sweep done]");
    }

    print!("SPME      -  -  ");
    for e in &spme_row {
        print!("  {e:12.3e}");
    }
    println!();
    for (gc, m, row) in &tme_rows {
        print!("TME      {gc:2} {m:2}  ");
        for e in row {
            print!("  {e:12.3e}");
        }
        println!();
    }
    println!("#\n# Expected shape (paper Table 1): M=1 clearly worse; M=3≈M=4 (converged);");
    println!("# g_c=8 ≈ g_c=12, with g_c=4 visibly worse at rc=1.5; TME(M>=3, g_c>=8) ≈ SPME.");
}
