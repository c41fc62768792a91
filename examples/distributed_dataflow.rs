//! Execute the TME grid pipeline with the machine's actual data
//! decomposition — 512 node blocks, sleeve/halo exchanges, per-node
//! convolutions — and check it against the single-address-space solver.
//!
//! This is the dataflow the MDGRAPE-4A hardware runs (LRU sleeves, GCU
//! axis packets); the machine simulator times it, this example proves it
//! computes the right thing.
//!
//! Run: `cargo run --example distributed_dataflow --release`

use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::SplineOps;
use mdgrape4a_tme::tme::convolve::convolve_separable;
use mdgrape4a_tme::tme::distributed::{
    assign_distributed, convolve_separable_distributed, long_range_distributed,
    restrict_distributed, Decomposition,
};
use mdgrape4a_tme::tme::kernel::TensorKernel;
use mdgrape4a_tme::tme::levels::LevelTransfer;
use mdgrape4a_tme::tme::toplevel::TopLevel;
use mdgrape4a_tme::tme::GaussianFit;
use mdgrape4a_tme::tme::{Tme, TmeParams};

fn max_diff(a: &mdgrape4a_tme::mesh::Grid3, b: &mdgrape4a_tme::mesh::Grid3) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    // The machine's production decomposition: 8×8×8 nodes over the 32³
    // grid (4³ = one GCU block per node).
    let dec = Decomposition::new([8, 8, 8], [32, 32, 32]);
    println!(
        "decomposition: {}³ nodes × {:?} local grid = {:?} global",
        dec.nodes[0],
        dec.local(),
        dec.grid
    );

    let sys = water_box(1000, 21).coulomb_system();
    let box_l = sys.box_l;
    let ops = SplineOps::new(6, dec.grid, box_l);

    // 1. Charge assignment: per-node atoms + sleeve accumulation.
    let blocks = assign_distributed(&dec, &ops, &sys.pos, &sys.q);
    let global_q = ops.assign(&sys.pos, &sys.q);
    let d_assign = max_diff(&dec.gather(&blocks), &global_q);
    println!("charge assignment   max |distributed − global| = {d_assign:.2e}");

    // 2. Level-1 separable convolution with halo packets (the GCU phase).
    let fit = GaussianFit::new(2.2936, 4); // α(r_c = 1.2 nm)
    let kernel = TensorKernel::new(&fit, ops.spacing(), 6, 8);
    let conv_blocks = convolve_separable_distributed(&dec, &blocks, &kernel, 1.0);
    let (global_conv, stats) = convolve_separable(&global_q, &kernel, 1.0);
    let d_conv = max_diff(&dec.gather(&conv_blocks), &global_conv);
    println!(
        "level-1 convolution max |distributed − global| = {d_conv:.2e}  ({} madds, {} passes)",
        stats.madds, stats.passes
    );

    // 3. Restriction to the 16³ top-level grid (halo: p/2 rounded up to even).
    let (coarse_dec, coarse_blocks) = restrict_distributed(&dec, &blocks, 6);
    let global_coarse = LevelTransfer::new(6).restrict(&global_q);
    let d_restrict = max_diff(&coarse_dec.gather(&coarse_blocks), &global_coarse);
    println!(
        "restriction → {:?}  max |distributed − global| = {d_restrict:.2e}",
        coarse_dec.grid
    );

    assert!(d_assign < 1e-11 && d_conv < 1e-11 && d_restrict < 1e-11);

    // 4. The complete six-step pipeline (CA → conv → restrict → TMENW-style
    //    gather+FFT → prolong → accumulate) against the global TME solver.
    let alpha = 2.2936;
    let params = TmeParams {
        n: dec.grid,
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha,
        r_cut: 1.2,
    };
    let tme = Tme::new(params, box_l);
    let top = TopLevel::new([16; 3], box_l, alpha / 2.0, 6);
    let dist_phi = long_range_distributed(&dec, &ops, &kernel, &top, 6, &sys.pos, &sys.q);
    let (global_phi, _) = tme.long_range_grid_potential(&global_q);
    let d_pipeline = max_diff(&dist_phi, &global_phi);
    println!("full pipeline       max |distributed − global| = {d_pipeline:.2e}");
    assert!(d_pipeline < 1e-10);
    println!("OK — the decomposed dataflow reproduces the global solver exactly");
}
