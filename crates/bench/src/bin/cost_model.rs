//! §III.C — computational and communication costs of the level-1 grid
//! kernel convolution: B-spline MSM (direct 3-D) vs TME (separable 1-D).
//!
//! Reproduces the paper's formulas
//!
//! ```text
//! compute:  MSM (2g_c+1)³(N_x/P_x)³      TME (2g_c+1)(N_x/P_x)³·M  (per axis)
//! comm:     MSM (8+12γ+6γ²)g_c³          TME (2+4M)γ²g_c³          (γ = (N_x/P_x)/g_c)
//! ```
//!
//! and *measures* both evaluation orders on the same tensor kernel to
//! validate the ratio (the paper's design-choice ablation).
//!
//! Usage: `cargo run -p tme-bench --bin cost_model --release`

use std::time::Instant;
use tme_bench::water_system;
use tme_core::convolve::convolve_separable;
use tme_core::kernel::TensorKernel;
use tme_core::msm;
use tme_core::shells::GaussianFit;
use tme_core::{alpha_from_rtol, Tme, TmeParams};
use tme_mesh::model::relative_force_error;
use tme_mesh::Grid3;
use tme_reference::msm::{
    convolve_direct, direct_op_count, msm_comm_words, separable_op_count, tme_comm_words,
    DenseKernel,
};

fn main() {
    tme_bench::init_cli().finish();
    let gc = 8u64;
    let m = 4u64;
    println!("# §III.C cost model, g_c = {gc}, M = {m} (MDGRAPE-4A settings)");
    println!("# N_x/P_x  gamma   MSM madds    TME madds   ratio | MSM comm    TME comm   ratio");
    for &local in &[4u64, 8] {
        let gamma = local as f64 / gc as f64;
        let pts = local * local * local;
        let msm_c = direct_op_count(pts, gc);
        let tme_c = separable_op_count(pts, gc, m);
        let msm_w = msm_comm_words(gamma, gc);
        let tme_w = tme_comm_words(gamma, gc, m);
        println!(
            "{local:8}  {gamma:5.2}  {msm_c:10}  {tme_c:10}  {:6.2} | {msm_w:10.0}  {tme_w:10.0}  {:6.2}",
            msm_c as f64 / tme_c as f64,
            msm_w / tme_w
        );
    }

    println!("#\n# measured wall time, same rank-{m} tensor kernel, both evaluation orders");
    let fit = GaussianFit::new(2.2936, m as usize); // α(r_c = 1.2 nm)
    for &n in &[16usize, 32] {
        let h = 9.9727 / n as f64;
        let kernel = TensorKernel::new(&fit, [h; 3], 6, gc as usize);
        let mut q = Grid3::zeros([n; 3]);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 31 % 97) as f64 - 48.0) * 0.01;
        }
        let t0 = Instant::now();
        let (sep, stats) = convolve_separable(&q, &kernel, 1.0);
        let t_sep = t0.elapsed().as_secs_f64();
        let dense = DenseKernel::from_fn(gc as usize, |off| kernel.dense_value(off));
        let t1 = Instant::now();
        let direct = convolve_direct(&dense, &q);
        let t_dir = t1.elapsed().as_secs_f64();
        // Sanity: identical results.
        let max_diff = sep
            .as_slice()
            .iter()
            .zip(direct.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "N = {n:3}^3: separable {:8.1} ms ({} madds)   direct {:8.1} ms ({} madds)   speedup {:5.1}x   max|diff| {max_diff:.2e}",
            t_sep * 1e3,
            stats.madds,
            t_dir * 1e3,
            direct_op_count((n * n * n) as u64, gc),
            t_dir / t_sep
        );
    }
    println!("#\n# Expected shape: TME wins on both compute and communication at the");
    println!("# paper's parameters; the wall-time speedup tracks the madds ratio.");

    // End-to-end: the full B-spline MSM solver vs the TME on the same
    // water system — the two methods the §III.C analysis contrasts.
    println!("#\n# end-to-end solvers on a 1,000-water box (same α, p, N, g_c):");
    let sys = water_system(1000, 77);
    let r_cut = 1.0;
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    let tme = Tme::new(params, sys.box_l);
    let msm = msm::try_plan(params, sys.box_l).expect("valid MSM configuration");
    let t0 = Instant::now();
    let (tme_out, tme_stats) = tme.long_range(&sys);
    let t_tme = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (msm_out, msm_stats) = msm.long_range(&sys);
    let t_msm = t1.elapsed().as_secs_f64();
    let diff = relative_force_error(&tme_out.forces, &msm_out.forces);
    println!(
        "TME  long-range: {:7.1} ms  ({:>9} conv madds)",
        t_tme * 1e3,
        tme_stats.convolution.madds
    );
    println!(
        "MSM  long-range: {:7.1} ms  ({:>9} conv madds)   TME speedup {:.1}x",
        t_msm * 1e3,
        msm_stats.convolution.madds,
        t_msm / t_tme
    );
    println!("force agreement TME vs MSM: {diff:.3e} (same shells, rank-M vs exact kernel)");
}
