//! Quickstart: compute Coulomb forces on a small water box with the TME
//! and check them against the exact Ewald summation.
//!
//! Run: `cargo run --example quickstart --release`

use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::model::relative_force_error;
use mdgrape4a_tme::reference::ewald::{Ewald, EwaldParams};
use mdgrape4a_tme::tme::{alpha_from_rtol, Tme, TmeParams};

fn main() {
    // 1. A 343-molecule TIP3P water box (1,029 atoms) at standard density.
    let system = water_box(343, 42).coulomb_system();
    println!(
        "system: {} atoms in a {:.3} nm box",
        system.len(),
        system.box_l[0]
    );

    // 2. TME parameters: α from erfc(α r_c) = 1e-4 (the paper's choice),
    //    one middle level, g_c = 8, M = 4 Gaussians — the MDGRAPE-4A
    //    production configuration scaled to this box.
    let r_cut = 1.0;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha,
        r_cut,
    };
    let tme = Tme::new(params, system.box_l);

    // 3. Full Coulomb interaction: short-range pairs + multilevel mesh +
    //    self term (reduced units: energies in e²/nm).
    let result = tme.compute(&system);
    println!("TME Coulomb energy: {:.6} e²/nm", result.energy);

    // 4. Reference: direct Ewald summation at 1e-15 theoretical accuracy.
    let reference = Ewald::new(EwaldParams::reference_quality(system.box_l, 1e-15));
    let exact = reference.compute(&system);
    println!("Ewald reference:    {:.6} e²/nm", exact.energy);

    let err = relative_force_error(&result.forces, &exact.forces);
    println!("relative force error: {err:.3e}  (paper Table 1 regime: ~1e-4..1e-3)");
    assert!(err < 5e-3, "TME drifted from the Ewald reference");
    println!("OK");
}
