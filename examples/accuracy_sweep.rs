//! Sweep the TME accuracy knobs (M, g_c, L, spline order p) on one water
//! box and print the error landscape — a compact interactive version of
//! the Table 1 study.
//!
//! Run: `cargo run --example accuracy_sweep --release`

use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::model::relative_force_error;
use mdgrape4a_tme::reference::ewald::{Ewald, EwaldParams};
use mdgrape4a_tme::tme::{alpha_from_rtol, Tme, TmeParams};

fn main() {
    let system = water_box(512, 9).coulomb_system();
    let box_l = system.box_l;
    let r_cut = 1.0;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    println!(
        "{} atoms, L = {:.3} nm, rc = {r_cut} nm, α = {alpha:.4}",
        system.len(),
        box_l[0]
    );

    let reference = Ewald::new(EwaldParams::reference_quality(box_l, 1e-14)).compute(&system);

    println!("\n-- M sweep (g_c = 8, L = 1, p = 6) --");
    for m in 1..=6 {
        let t = Tme::new(
            TmeParams {
                n: [16; 3],
                p: 6,
                levels: 1,
                gc: 8,
                m_gaussians: m,
                alpha,
                r_cut,
            },
            box_l,
        );
        let err = relative_force_error(&t.compute(&system).forces, &reference.forces);
        println!("M = {m}: {err:.3e}");
    }

    println!("\n-- g_c sweep (M = 4, L = 1, p = 6) --");
    for gc in [2usize, 4, 6, 8, 12] {
        let t = Tme::new(
            TmeParams {
                n: [16; 3],
                p: 6,
                levels: 1,
                gc,
                m_gaussians: 4,
                alpha,
                r_cut,
            },
            box_l,
        );
        let err = relative_force_error(&t.compute(&system).forces, &reference.forces);
        println!("g_c = {gc:2}: {err:.3e}");
    }

    println!("\n-- spline order sweep (M = 4, g_c = 8, L = 1) --");
    for p in [4usize, 6, 8] {
        let t = Tme::new(
            TmeParams {
                n: [16; 3],
                p,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                alpha,
                r_cut,
            },
            box_l,
        );
        let err = relative_force_error(&t.compute(&system).forces, &reference.forces);
        println!("p = {p}: {err:.3e}");
    }

    println!("\n(the hardware fixes p = 6, supports g_c ∈ {{8, 12}} and uses M = 4)");
}
