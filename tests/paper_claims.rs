//! The paper's headline claims as one executable acceptance suite —
//! every assertion here corresponds to a sentence in the paper (section
//! in the comment). Fast configurations only; the full-size versions live
//! in the `tme-bench` harnesses and EXPERIMENTS.md.

use mdgrape4a_tme::machine::report::{table2, OverlapReport};
use mdgrape4a_tme::machine::{simulate_step, MachineConfig, StepWorkload};
use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::model::relative_force_error;
use mdgrape4a_tme::reference::ewald::{Ewald, EwaldParams};
use mdgrape4a_tme::reference::msm::{msm_comm_words, separable_op_count, tme_comm_words};
use mdgrape4a_tme::reference::Spme;
use mdgrape4a_tme::tme::shells::{shell_exact, GaussianFit};
use mdgrape4a_tme::tme::{alpha_from_rtol, msm, Tme, TmeParams};

/// §III.A, Eq. 4: the splitting telescopes exactly to 1/r.
#[test]
fn claim_splitting_is_exact() {
    let alpha = 2.2936;
    for i in 1..50 {
        let r = 0.1 * i as f64;
        let total = mdgrape4a_tme::tme::shells::short_range_exact(alpha, r)
            + shell_exact(alpha, 1, r)
            + mdgrape4a_tme::tme::shells::top_level_exact(alpha, 1, r);
        assert!((total - 1.0 / r).abs() < 1e-12 / r);
    }
}

/// §III.A / Fig. 3: "the deviation is small even in the single Gaussian
/// approximation (M = 1) ... the error decreases rapidly with increasing M".
#[test]
fn claim_gaussian_fit_converges_rapidly() {
    let errs: Vec<f64> = (1..=4)
        .map(|m| GaussianFit::new(1.0, m).normalised_max_error(5.0, 300))
        .collect();
    assert!(errs[0] < 0.05);
    for w in errs.windows(2) {
        assert!(w[1] < w[0] / 5.0, "not rapid: {errs:?}");
    }
}

/// §III.B / Table 1: "the accuracy is expected to be comparable to the
/// SPME with identical values of α, r_c, p, L, and N by increasing g_c
/// and M" — and M = 3, g_c = 8 suffice in the paper's h ≈ 0.31 nm regime.
#[test]
fn claim_tme_accuracy_comparable_to_spme() {
    let sys = water_box(343, 42).coulomb_system(); // h = L/16 ≈ 0.136 nm
    let box_l = sys.box_l;
    let r_cut = 1.0;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let want = Ewald::new(EwaldParams::reference_quality(box_l, 1e-14)).compute(&sys);
    let spme_err = {
        let got = Spme::new([16; 3], box_l, alpha, 6, r_cut).compute(&sys);
        relative_force_error(&got.forces, &want.forces)
    };
    // Auto-tuned g_c (the finer-than-paper grid needs a larger cutoff —
    // exactly what §III.B's convergence study establishes).
    let params = mdgrape4a_tme::tme::errors::auto_params(box_l, [16; 3], r_cut, 6, 1e-4);
    let tme_err = {
        let got = Tme::new(params, box_l).compute(&sys);
        relative_force_error(&got.forces, &want.forces)
    };
    assert!(
        tme_err < 2.0 * spme_err + 1e-5,
        "TME {tme_err:e} not comparable to SPME {spme_err:e}"
    );
}

/// §III.C: "the computational and communication costs of the TME reduced
/// with respect to the B-spline MSM" at the MDGRAPE-4A parameters.
#[test]
fn claim_tme_cheaper_than_msm() {
    // Formulas at γ = 0.5 and 1 with g_c = 8, M = 4.
    for &(local, gamma) in &[(4u64, 0.5f64), (8, 1.0)] {
        let pts = local.pow(3);
        assert!(separable_op_count(pts, 8, 4) < pts * 17 * 17 * 17);
        assert!(tme_comm_words(gamma, 8, 4) < msm_comm_words(gamma, 8));
    }
    // Measured end-to-end on identical inputs.
    let sys = water_box(216, 9).coulomb_system();
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 6,
        m_gaussians: 4,
        alpha: alpha_from_rtol(0.9, 1e-4),
        r_cut: 0.9,
    };
    let (tme_out, tme_stats) = Tme::new(params, sys.box_l).long_range(&sys);
    let (msm_out, msm_stats) = msm::try_plan(params, sys.box_l).unwrap().long_range(&sys);
    assert!(msm_stats.convolution.madds > 10 * tme_stats.convolution.madds);
    assert!(relative_force_error(&tme_out.forces, &msm_out.forces) < 1e-3);
}

/// §V.A: "it requires 206 µs to complete the single MD time step. The
/// current performance of the system is approximately 1 µs/day".
#[test]
fn claim_step_time_and_throughput() {
    let cfg = MachineConfig::mdgrape4a();
    let rows = table2(&cfg, &StepWorkload::paper_fig9());
    let ours = rows.iter().find(|r| r.simulated).unwrap();
    assert!((ours.time_per_step_us - 206.0).abs() < 15.0);
    assert!((ours.performance_us_per_day - 1.0).abs() < 0.15);
}

/// §V.B: "the total evaluation time for the long-range part ... was
/// approximately 50 µs", with the published phase breakdown.
#[test]
fn claim_long_range_pipeline_breakdown() {
    let r = simulate_step(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
    assert!((r.long_range_us() - 50.0).abs() < 12.0);
    assert!((r.phase("restriction L1").unwrap() - 1.5).abs() < 0.7);
    assert!((r.phase("convolution L1").unwrap() - 6.0).abs() < 2.0);
    assert!((r.phase("prolongation L1").unwrap() - 1.5).abs() < 0.7);
    assert!(r.phase("TMENW round trip").unwrap() < 20.0);
}

/// §V.C: "the additional cost of incorporating a long-range part ... was
/// approximately 10 µs, which is 5% of the single time step calculation"
/// — because the pipeline "can mostly overlap".
#[test]
fn claim_five_percent_overhead() {
    let rep = OverlapReport::compute(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
    assert!(
        (rep.overhead_us() - 10.0).abs() < 6.0,
        "{}",
        rep.overhead_us()
    );
    assert!((rep.overhead_percent() - 5.0).abs() < 3.0);
    // Overlap: the LR span is several times the marginal cost.
    assert!(rep.with_long_range.long_range_us() > 3.0 * rep.overhead_us());
}

/// §V.D / Table 2: "MDGRAPE-4A reaches at least three times faster than
/// the best performance of any other commodity clusters, but still lower
/// than that of Anton 1".
#[test]
fn claim_table2_ranking() {
    let rows = table2(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
    let perf: Vec<f64> = rows.iter().map(|r| r.performance_us_per_day).collect();
    let ours = perf[2];
    assert!(ours >= 3.0 * perf[0].max(perf[1]));
    assert!(ours < perf[3]); // Anton 1 still faster
}

/// §VI.A: "The time for GCU operations is eight times larger than
/// 32 × 32 × 32 operations theoretically" for the 64³ grid.
#[test]
fn claim_grid64_gcu_scaling() {
    let cfg = MachineConfig::mdgrape4a();
    let c32 = simulate_step(&cfg, &StepWorkload::paper_fig9())
        .phase("convolution L1")
        .unwrap();
    let c64 = simulate_step(&cfg, &StepWorkload::paper_grid64())
        .phase("convolution L1")
        .unwrap();
    let ratio = c64 / c32;
    assert!((6.0..9.0).contains(&ratio), "GCU scaling {ratio}");
}
