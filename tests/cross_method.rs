//! Cross-crate integration: the three Coulomb solvers (direct Ewald,
//! SPME, TME) must agree on real water systems, through the public facade
//! API, including the hardware-precision (fixed-point / f32) paths.

use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::model::relative_force_error;
use mdgrape4a_tme::mesh::SplineOps;
use mdgrape4a_tme::num::fixed::quantize_slice;
use mdgrape4a_tme::reference::ewald::{Ewald, EwaldParams};
use mdgrape4a_tme::reference::Spme;
use mdgrape4a_tme::tme::{alpha_from_rtol, Tme, TmeParams};

fn water(n: usize, seed: u64) -> mdgrape4a_tme::mesh::CoulombSystem {
    water_box(n, seed).coulomb_system()
}

/// Small test boxes have much finer grid spacing than the paper's
/// h ≈ 0.31 nm, so the grid cutoff must grow with 1/(α_min h) to keep the
/// slowest middle-shell Gaussian inside it (the `table1` harness runs the
/// paper's regime where g_c = 8 suffices).
fn paper_params(n_grid: usize, r_cut: f64, m: usize, levels: u32) -> TmeParams {
    TmeParams {
        n: [n_grid; 3],
        p: 6,
        levels,
        gc: 8,
        m_gaussians: m,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    }
}

/// The Table-1 relationship on an actual water box: TME(M=4, g_c=8) and
/// SPME errors against exact Ewald are the same order.
#[test]
fn tme_and_spme_agree_against_ewald_on_water() {
    let sys = water(343, 17);
    let box_l = sys.box_l;
    let mut params = paper_params(16, 1.0, 4, 1);
    params.gc = 16; // h ≈ 0.14 nm here — see paper_params docs
    let reference = Ewald::new(EwaldParams::reference_quality(box_l, 1e-14)).compute(&sys);
    let tme_err = {
        let got = Tme::new(params, box_l).compute(&sys);
        relative_force_error(&got.forces, &reference.forces)
    };
    let spme_err = {
        let got = Spme::new([16; 3], box_l, params.alpha, 6, 1.0).compute(&sys);
        relative_force_error(&got.forces, &reference.forces)
    };
    assert!(tme_err < 2e-3, "TME force error {tme_err:e}");
    assert!(spme_err < 2e-3, "SPME force error {spme_err:e}");
    assert!(
        tme_err < 3.0 * spme_err + 1e-5,
        "TME {tme_err:e} vs SPME {spme_err:e}"
    );
}

/// Energies agree between all three methods (water, full Coulomb sum).
#[test]
fn energies_consistent_across_methods() {
    let sys = water(216, 23);
    let box_l = sys.box_l;
    let params = paper_params(16, 0.9, 4, 1);
    let e_ref = Ewald::new(EwaldParams::reference_quality(box_l, 1e-14))
        .compute(&sys)
        .energy;
    let e_spme = Spme::new([16; 3], box_l, params.alpha, 6, 0.9)
        .compute(&sys)
        .energy;
    let e_tme = Tme::new(params, box_l).compute(&sys).energy;
    assert!(
        ((e_spme - e_ref) / e_ref).abs() < 2e-3,
        "SPME {e_spme} vs {e_ref}"
    );
    assert!(
        ((e_tme - e_ref) / e_ref).abs() < 2e-3,
        "TME {e_tme} vs {e_ref}"
    );
}

/// The hardware's fixed-point grid path: quantising grid charges and
/// potentials through the 32-bit formats must not destroy the accuracy
/// (this is why MDGRAPE-4A can run the whole long-range part in fixed
/// point).
#[test]
fn fixed_point_grid_path_preserves_accuracy() {
    let sys = water(216, 29);
    let box_l = sys.box_l;
    let params = paper_params(16, 0.9, 4, 1);
    let tme = Tme::new(params, box_l);
    let ops = SplineOps::new(6, [16; 3], box_l);

    // Float path.
    let (lr_float, _) = tme.long_range(&sys);

    // Hardware path: quantise the assigned charges (GM accumulate format)
    // and the resulting potentials (GCU output) at 24 fraction bits.
    let mut q_grid = ops.assign(&sys.pos, &sys.q);
    quantize_slice::<24>(q_grid.as_mut_slice());
    let (mut phi, _) = tme.long_range_grid_potential(&q_grid);
    quantize_slice::<24>(phi.as_mut_slice());
    let interp = ops.interpolate(&phi, &sys.pos, &sys.q);

    let err = relative_force_error(&interp.force, &lr_float.forces);
    assert!(err < 1e-4, "fixed-point mesh path diverged: {err:e}");
}

/// The FPGA's single-precision top level barely moves the result.
#[test]
fn single_precision_top_level_is_harmless() {
    let sys = water(216, 31);
    let box_l = sys.box_l;
    let params = paper_params(16, 0.9, 4, 1);
    let full = Tme::new(params, box_l);
    let mut narrow = Tme::new(params, box_l);
    narrow.set_top_single_precision(true);
    let (a, _) = full.long_range(&sys);
    let (b, _) = narrow.long_range(&sys);
    let err = relative_force_error(&b.forces, &a.forces);
    assert!(err < 1e-5, "f32 top level changed forces by {err:e}");
}

/// L = 2 through the facade on a 32³ grid stays consistent with L = 1.
#[test]
fn deeper_hierarchy_consistent() {
    let sys = water(1000, 37);
    let box_l = sys.box_l;
    let p1 = paper_params(32, 1.0, 4, 1);
    let p2 = paper_params(32, 1.0, 4, 2);
    let f1 = Tme::new(p1, box_l).compute(&sys);
    let f2 = Tme::new(p2, box_l).compute(&sys);
    let diff = relative_force_error(&f2.forces, &f1.forces);
    assert!(diff < 5e-3, "L=1 vs L=2 disagree: {diff:e}");
}

/// Anisotropic (non-cubic) boxes: per-axis grid spacings flow through
/// kernels, influence functions and interpolation consistently.
#[test]
fn anisotropic_box_consistent_with_spme() {
    use mdgrape4a_tme::md::water::water_box_in;
    let box_l = [3.2, 2.4, 4.0];
    let sys = {
        let s = water_box_in(216, box_l, 19);
        s.coulomb_system()
    };
    let r_cut = 1.0;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let n = [16usize, 16, 32];
    let params = TmeParams {
        n,
        p: 6,
        levels: 1,
        gc: 16,
        m_gaussians: 4,
        alpha,
        r_cut,
    };
    let tme_mesh_out = Tme::new(params, box_l).long_range(&sys).0;
    let spme_mesh = Spme::new(n, box_l, alpha, 6, r_cut).reciprocal(&sys);
    let err = relative_force_error(&tme_mesh_out.forces, &spme_mesh.forces);
    assert!(err < 2e-2, "anisotropic TME vs SPME: {err:e}");
    assert!(
        (tme_mesh_out.energy - spme_mesh.energy).abs() < 1e-3 * spme_mesh.energy.abs(),
        "{} vs {}",
        tme_mesh_out.energy,
        spme_mesh.energy
    );
}

/// Total charge is conserved through the whole grid hierarchy.
#[test]
fn charge_conserved_through_hierarchy() {
    use mdgrape4a_tme::tme::levels::LevelTransfer;
    let sys = water(125, 41);
    let ops = SplineOps::new(6, [16; 3], sys.box_l);
    let q1 = ops.assign(&sys.pos, &sys.q);
    let transfer = LevelTransfer::new(6);
    let q2 = transfer.restrict(&q1);
    let q3 = transfer.restrict(&q2);
    assert!((q1.sum() - sys.total_charge()).abs() < 1e-9);
    assert!((q2.sum() - sys.total_charge()).abs() < 1e-9);
    assert!((q3.sum() - sys.total_charge()).abs() < 1e-9);
}
