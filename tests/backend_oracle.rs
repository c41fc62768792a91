//! Cross-backend accuracy property suite (DESIGN.md §14): every solver
//! behind the `LongRangeBackend` plan/execute interface is measured
//! against the `crates/reference` pairwise Ewald oracle at one fixed
//! tolerance, the quasi-2D slab geometry against an image-charge oracle
//! built from the same reference Ewald on the extended box, every
//! backend's execute path is bitwise deterministic across thread counts,
//! every backend's real-space part — what `compute_into` adds to
//! `mesh_into` — is the exact `erfc` pair sum, and each periodic backend
//! meets a 5e-4 force error on its matched-error grid.

use std::sync::Arc;

use mdgrape4a_tme::md::backend::{
    plan_backend, slab_dipole_correction, slab_extend_system, BackendParams, CutoffBackend,
    LongRangeBackend, PswfParams, SlabParams, SpmeParams, TmeBackend,
};
use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::model::relative_force_error;
use mdgrape4a_tme::mesh::pairwise::{self, PairwiseScratch};
use mdgrape4a_tme::mesh::{CoulombResult, CoulombSystem};
use mdgrape4a_tme::num::pool::Pool;
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::reference::ewald::{Ewald, EwaldParams};
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams, TmeWorkspace};

/// One fixed accuracy bar for every backend: relative RMS force error and
/// relative energy error against the reference-quality pairwise Ewald.
const FORCE_TOL: f64 = 2e-3;
const ENERGY_TOL: f64 = 2e-3;

fn water(n: usize, seed: u64) -> CoulombSystem {
    water_box(n, seed).coulomb_system()
}

/// Small boxes have much finer grid spacing than the paper's h ≈ 0.31 nm,
/// so the slowest middle-shell Gaussian needs the larger grid cutoff
/// (same reasoning as `tests/cross_method.rs`).
fn mesh_params(n: [usize; 3], alpha: f64, r_cut: f64) -> TmeParams {
    TmeParams {
        n,
        p: 6,
        levels: 1,
        gc: 16,
        m_gaussians: 4,
        alpha,
        r_cut,
    }
}

/// Every periodic backend the planner knows, on an `n` mesh.
fn periodic_backends(n: [usize; 3], alpha: f64, r_cut: f64) -> Vec<(&'static str, BackendParams)> {
    vec![
        ("TME", BackendParams::Tme(mesh_params(n, alpha, r_cut))),
        (
            "SPME",
            BackendParams::Spme(SpmeParams {
                n,
                p: 6,
                alpha,
                r_cut,
            }),
        ),
        (
            "SPME-PSWF",
            BackendParams::SpmePswf(PswfParams {
                n,
                p: 8,
                alpha,
                r_cut,
                shape: 0.0,
            }),
        ),
        (
            "Ewald",
            BackendParams::Ewald(EwaldParams {
                alpha,
                r_cut,
                n_cut: 12,
            }),
        ),
    ]
}

/// Every backend there is, planned for `box_l`: the periodic ones on an
/// `n` mesh, the slab (same mesh stretched over its z-tripled box) and
/// the two mesh-free cutoff models.
fn every_backend(
    box_l: [f64; 3],
    n: [usize; 3],
    alpha: f64,
    r_cut: f64,
) -> Vec<(&'static str, Arc<dyn LongRangeBackend>)> {
    let slab = SlabParams {
        n: [n[0], n[1], 4 * n[2]],
        alpha,
        r_cut,
        ..slab_params(-1.0, 0.25, 1)
    };
    let mut plans: Vec<(&'static str, Arc<dyn LongRangeBackend>)> =
        periodic_backends(n, alpha, r_cut)
            .into_iter()
            .chain([("slab", BackendParams::Slab(slab))])
            .map(|(name, p)| (name, plan_backend(&p, box_l).expect(name)))
            .collect();
    plans.push((
        "cutoff",
        Arc::new(CutoffBackend::new(0.0, r_cut).expect("cutoff")),
    ));
    plans.push((
        "Wolf",
        Arc::new(CutoffBackend::new(alpha, r_cut).expect("Wolf")),
    ));
    plans
}

/// One `compute_into` of `plan` on a `threads`-wide pool.
fn run_plan(plan: &dyn LongRangeBackend, sys: &CoulombSystem, threads: usize) -> CoulombResult {
    let mut ws = plan.make_workspace_with_pool(Arc::new(Pool::new(threads)));
    let mut out = CoulombResult::zeros(sys.len());
    plan.compute_into(sys, &mut ws, &mut out)
        .expect("backend execute failed");
    out
}

/// Plan `params` for `sys`'s box and run it ([`run_plan`]).
fn run_backend(params: &BackendParams, sys: &CoulombSystem, threads: usize) -> CoulombResult {
    let plan = plan_backend(params, sys.box_l).expect("backend configuration rejected");
    run_plan(&*plan, sys, threads)
}

fn force_bits(r: &CoulombResult) -> Vec<u64> {
    r.forces.iter().flatten().map(|c| c.to_bits()).collect()
}

/// One periodic backend against the pairwise Ewald oracle within the
/// one fixed tolerance — the interchangeability contract that lets
/// tme-serve hand any of them to a tenant. One `#[test]` per backend
/// (below), so a failure names its backend.
fn check_periodic_backend(want: &str) {
    let sys = water(343, 17);
    let r_cut = 1.0;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let oracle = Ewald::new(EwaldParams::reference_quality(sys.box_l, 1e-14)).compute(&sys);
    let (name, params) = periodic_backends([16; 3], alpha, r_cut)
        .into_iter()
        .find(|(n, _)| *n == want)
        .expect("unknown backend name in test");
    let got = run_backend(&params, &sys, 2);
    let f_err = relative_force_error(&got.forces, &oracle.forces);
    let e_err = ((got.energy - oracle.energy) / oracle.energy).abs();
    assert!(f_err < FORCE_TOL, "{name} force error {f_err:e}");
    assert!(e_err < ENERGY_TOL, "{name} energy error {e_err:e}");
}

#[test]
fn oracle_tme() {
    check_periodic_backend("TME");
}

#[test]
fn oracle_spme_bspline() {
    check_periodic_backend("SPME");
}

#[test]
fn oracle_spme_pswf() {
    check_periodic_backend("SPME-PSWF");
}

#[test]
fn oracle_ewald() {
    check_periodic_backend("Ewald");
}

/// A deterministic net-neutral random system (`SplitMix64` positions,
/// alternating unit charges) in a cubic box.
fn random_neutral(n: usize, box_l: f64, seed: u64) -> CoulombSystem {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut next = || rng.next_u64() as f64 / u64::MAX as f64 * box_l;
    let pos = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    CoulombSystem::new(pos, q, [box_l; 3])
}

/// The marginal-grid fixture: 60 charges in a 4 nm box at r_c = 1.2 nm
/// (α for a 1e-5 real-space tolerance), where a 16³ grid's spacing
/// dominates the error budget, and their reference-quality pairwise
/// Ewald result.
struct MarginalGrid {
    sys: CoulombSystem,
    alpha: f64,
    r_cut: f64,
    oracle: CoulombResult,
}

impl MarginalGrid {
    fn new() -> Self {
        let sys = random_neutral(60, 4.0, 2024);
        let r_cut = 1.2;
        let oracle = Ewald::new(EwaldParams::reference_quality(sys.box_l, 1e-14)).compute(&sys);
        Self {
            sys,
            alpha: alpha_from_rtol(r_cut, 1e-5),
            r_cut,
            oracle,
        }
    }

    /// Relative RMS force error of `params` against the oracle.
    fn force_error(&self, params: &BackendParams) -> f64 {
        relative_force_error(
            &run_backend(params, &self.sys, 2).forces,
            &self.oracle.forces,
        )
    }
}

/// The PSWF window's whole point: on a *marginal* grid, where the grid
/// spacing dominates the error budget, it is strictly more accurate
/// than the B-spline window of the same order — through the backend
/// interface, against the pairwise oracle. (The fewer-grid-points half
/// of the claim is [`matched_error_rows_meet_the_force_target`]; on finer
/// grids both windows bottom out at the same splitting-error floor.)
#[test]
fn pswf_window_beats_bspline_on_a_marginal_grid() {
    let m = MarginalGrid::new();
    let (alpha, r_cut) = (m.alpha, m.r_cut);
    let bspline = m.force_error(&BackendParams::Spme(SpmeParams {
        n: [16; 3],
        p: 8,
        alpha,
        r_cut,
    }));
    let pswf = m.force_error(&BackendParams::SpmePswf(PswfParams {
        n: [16; 3],
        p: 8,
        alpha,
        r_cut,
        shape: 0.0,
    }));
    assert!(
        pswf <= bspline,
        "PSWF {pswf:e} worse than B-spline {bspline:e} on the same grid"
    );
}

/// Matched-error comparison, as in the paper's Table 1: each periodic
/// backend on the smallest grid that meets a 5e-4 relative force error
/// on the marginal-grid fixture. The PSWF window meets it on 16³, where
/// the B-spline of the same order needs 32³ (8× the grid points).
#[test]
fn matched_error_rows_meet_the_force_target() {
    const FORCE_TARGET: f64 = 5e-4;
    let m = MarginalGrid::new();
    let (alpha, r_cut) = (m.alpha, m.r_cut);
    let rows = [
        (
            "TME 32³ g_c 12",
            BackendParams::Tme(TmeParams {
                n: [32; 3],
                p: 6,
                levels: 1,
                gc: 12,
                m_gaussians: 4,
                alpha,
                r_cut,
            }),
        ),
        (
            "SPME 32³ p 8",
            BackendParams::Spme(SpmeParams {
                n: [32; 3],
                p: 8,
                alpha,
                r_cut,
            }),
        ),
        (
            "SPME-PSWF 16³ p 8",
            BackendParams::SpmePswf(PswfParams {
                n: [16; 3],
                p: 8,
                alpha,
                r_cut,
                shape: 0.0,
            }),
        ),
        (
            "Ewald n_cut 16",
            BackendParams::Ewald(EwaldParams {
                alpha,
                r_cut,
                n_cut: 16,
            }),
        ),
    ];
    for (name, params) in &rows {
        let err = m.force_error(params);
        assert!(
            err < FORCE_TARGET,
            "{name}: force error {err:e} misses the {FORCE_TARGET:e} target"
        );
    }
}

/// A small charged slab: atoms confined to the lower half of the real
/// box in z, net-neutral, away from the walls.
fn slab_system() -> CoulombSystem {
    let mut pos = Vec::new();
    let mut q = Vec::new();
    for i in 0..12usize {
        let t = i as f64;
        pos.push([
            0.3 + 0.71 * (t * 0.37).fract() * 2.4,
            0.2 + 0.83 * (t * 0.59).fract() * 2.6,
            0.4 + 0.2 * t,
        ]);
        q.push(if i % 2 == 0 { 1.0 } else { -1.0 });
    }
    CoulombSystem::new(pos, q, [3.0, 3.0, 3.0])
}

fn slab_params(gamma_top: f64, gamma_bot: f64, n_images: u32) -> SlabParams {
    let r_cut = 1.2;
    SlabParams {
        n: [16, 16, 64],
        p: 6,
        alpha: alpha_from_rtol(r_cut, 1e-5),
        r_cut,
        gamma_top,
        gamma_bot,
        n_images,
    }
}

/// The slab oracle: image-augment the system exactly as the backend
/// does, solve the extended periodic box with the reference Ewald, apply
/// the same Yeh–Berkowitz dipole correction, and reduce to the real
/// atoms with the image-charge energy convention E = ½ Σ_real q·φ.
fn slab_oracle(sys: &CoulombSystem, p: &SlabParams) -> CoulombResult {
    // Placeholder box; `slab_extend_system` overwrites it.
    let mut ext = CoulombSystem::new(Vec::new(), Vec::new(), [1.0; 3]);
    slab_extend_system(sys, p.gamma_bot, p.gamma_top, p.n_images, &mut ext);
    let mut full = Ewald::new(EwaldParams::reference_quality(ext.box_l, 1e-14)).compute(&ext);
    slab_dipole_correction(&ext, &mut full);
    let n = sys.len();
    let mut out = CoulombResult::zeros(n);
    for i in 0..n {
        out.potentials[i] = full.potentials[i];
        out.forces[i] = full.forces[i];
        out.energy += 0.5 * sys.q[i] * full.potentials[i];
    }
    out
}

/// The quasi-2D slab backend reproduces the image-charge oracle for the
/// vacuum gap (γ = 0) and for asymmetric dielectric walls.
#[test]
fn oracle_slab() {
    let sys = slab_system();
    for (gamma_top, gamma_bot) in [(0.0, 0.0), (-1.0, 0.25)] {
        let p = slab_params(gamma_top, gamma_bot, 1);
        let got = run_backend(&BackendParams::Slab(p), &sys, 2);
        let want = slab_oracle(&sys, &p);
        let f_err = relative_force_error(&got.forces, &want.forces);
        let e_err = ((got.energy - want.energy) / want.energy).abs();
        assert!(
            f_err < FORCE_TOL,
            "slab(γ={gamma_top},{gamma_bot}) force error {f_err:e}"
        );
        assert!(
            e_err < ENERGY_TOL,
            "slab(γ={gamma_top},{gamma_bot}) energy error {e_err:e}"
        );
    }
}

/// γ = 0 images carry zero charge, so keeping or dropping the image
/// layers must not change the physics (only rounding noise from the
/// zero-charge spreading).
#[test]
fn slab_zero_reflection_images_are_inert() {
    let sys = slab_system();
    let with_images = run_backend(&BackendParams::Slab(slab_params(0.0, 0.0, 1)), &sys, 1);
    let without = run_backend(&BackendParams::Slab(slab_params(0.0, 0.0, 0)), &sys, 1);
    let rel = ((with_images.energy - without.energy) / without.energy).abs();
    assert!(
        rel < 1e-9,
        "zero-charge images shifted the energy by {rel:e}"
    );
    let f_err = relative_force_error(&with_images.forces, &without.forces);
    assert!(f_err < 1e-9, "zero-charge images moved forces by {f_err:e}");
}

/// Bitwise determinism across thread counts, per backend: the plan cache
/// and every bit pin lean on `TME_THREADS` not touching a single bit of
/// any backend's output.
#[test]
fn every_backend_is_bitwise_deterministic_across_threads() {
    let sys = water(125, 7);
    let r_cut = 0.7;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    for (name, plan) in every_backend(sys.box_l, [16; 3], alpha, r_cut) {
        let a = run_plan(&*plan, &sys, 1);
        let b = run_plan(&*plan, &sys, 4);
        assert_eq!(
            a.energy.to_bits(),
            b.energy.to_bits(),
            "{name} energy changed bits with threads"
        );
        assert_eq!(
            force_bits(&a),
            force_bits(&b),
            "{name} forces changed bits with threads"
        );
    }
}

/// The solver under the TME backend, run directly through its own
/// workspace at the paper's M = 4, g_c = 8: 1-thread and 4-thread pools
/// give identical force bits.
#[test]
fn tme_forces_bitwise_identical_at_1_and_4_threads() {
    let sys = water(64, 6);
    let r_cut = 0.55;
    let params = TmeParams {
        gc: 8,
        ..mesh_params([16; 3], alpha_from_rtol(r_cut, 1e-4), r_cut)
    };
    let tme = TmeBackend::new(params, sys.box_l).expect("paper TME configuration");
    let bits: Vec<Vec<u64>> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let mut ws = TmeWorkspace::with_pool(tme.tme(), Arc::new(Pool::new(threads)));
            let out = tme.tme().compute_with(&mut ws, &sys);
            out.forces.iter().flatten().map(|c| c.to_bits()).collect()
        })
        .collect();
    assert_eq!(bits[0], bits[1], "TME forces changed bits with threads");
}

/// The decomposition every caller relies on (NveSim recombines
/// `mesh_into` with its own pairs; serve prices and the benchmark times
/// the two halves separately): for every backend,
/// `compute_into − mesh_into − self term` is the `erfc(αr)/r` pair sum
/// inside `r_cut` — held here to the *exact* O(N²) loop at 1e-10, so it
/// also pins the kernel table (α = 0 included) through the cell kernel.
/// Mesh-free plans have no self term to remove.
fn check_real_space_decomposition(sys: &CoulombSystem, n: [usize; 3], r_cut: f64) {
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let pool = Arc::new(Pool::new(2));
    for (name, plan) in every_backend(sys.box_l, n, alpha, r_cut) {
        let mut ws = plan.make_workspace_with_pool(Arc::clone(&pool));
        let (mut full, mut mesh) = (CoulombResult::default(), CoulombResult::default());
        plan.compute_into(sys, &mut ws, &mut full).expect("compute");
        plan.mesh_into(sys, &mut ws, &mut mesh).expect("mesh");
        let mut rest = CoulombResult::zeros(sys.len());
        if plan.has_mesh() {
            pairwise::self_term_into(sys, plan.alpha(), &mut rest);
        }
        rest.accumulate(&mesh);
        let mut want = CoulombResult::default();
        pairwise::short_range_into(
            sys,
            plan.alpha(),
            r_cut,
            &pool,
            &mut PairwiseScratch::new(),
            &mut want,
        );
        let got_forces: Vec<[f64; 3]> = full
            .forces
            .iter()
            .zip(&rest.forces)
            .map(|(f, r)| [f[0] - r[0], f[1] - r[1], f[2] - r[2]])
            .collect();
        let f_err = relative_force_error(&got_forces, &want.forces);
        let e_err = ((full.energy - rest.energy - want.energy) / want.energy).abs();
        assert!(
            f_err <= 1e-10,
            "{name}: real-space force mismatch {f_err:e}"
        );
        assert!(
            e_err <= 1e-10,
            "{name}: real-space energy mismatch {e_err:e}"
        );
    }
}

/// 343 waters: ≥ 3 cells per axis, the binned cell path.
#[test]
fn real_space_part_is_the_exact_pair_sum_on_binned_cells() {
    check_real_space_decomposition(&water(343, 17), [16; 3], 0.7);
}

/// 60 charges in a 3.3 nm box at r_c = 1.2: two cells per axis, so the
/// kernel falls back to brute-force rows.
#[test]
fn real_space_part_is_the_exact_pair_sum_on_brute_rows() {
    check_real_space_decomposition(&random_neutral(60, 3.3, 99), [16; 3], 1.2);
}

/// The slab's own geometry: a box three times as long in z as in x/y,
/// cells and grid anisotropic to match.
#[test]
fn real_space_part_is_the_exact_pair_sum_on_a_z_tripled_box() {
    let cube = random_neutral(240, 2.4, 5);
    let pos = cube.pos.iter().map(|p| [p[0], p[1], 3.0 * p[2]]).collect();
    let sys = CoulombSystem::new(pos, cube.q, [2.4, 2.4, 7.2]);
    check_real_space_decomposition(&sys, [16, 16, 32], 0.75);
}
