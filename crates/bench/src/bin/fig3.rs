//! Fig. 3 — the M-Gaussian approximation of the middle-range shell.
//!
//! (a) `g_{α,l}(r)/g_{α,l}(0)` and its Gauss–Legendre approximations for
//!     M = 1, 2 against `x = αr/2^{l−1}`;
//! (b) the approximation error for M = 1..4.
//!
//! Both curves are invariant in α and l (paper caption), so we evaluate
//! at α = 1, l = 1. Output: TSV series + max-error summary.
//!
//! Usage: `cargo run -p tme-bench --bin fig3 --release [--samples 200]`

use tme_core::shells::{shell_exact, GaussianFit};

fn main() {
    let mut args = tme_bench::init_cli();
    let samples: usize = args.get_or("--samples", 100usize).max(1);
    args.finish();
    let x_max = 5.0;
    let alpha = 1.0;
    let fits: Vec<GaussianFit> = (1..=4).map(|m| GaussianFit::new(alpha, m)).collect();
    let g0 = shell_exact(alpha, 1, 0.0);

    println!("# Fig 3(a): normalised shell and its Gaussian approximations");
    println!("# x = alpha*r/2^(l-1)\texact\tM=1\tM=2");
    for i in 0..=samples {
        let x = x_max * i as f64 / samples as f64;
        let r = x / alpha;
        let exact = shell_exact(alpha, 1, r) / g0;
        let m1 = fits[0].eval(1, r) / g0;
        let m2 = fits[1].eval(1, r) / g0;
        println!("{x:.4}\t{exact:.8}\t{m1:.8}\t{m2:.8}");
    }

    println!();
    println!("# Fig 3(b): approximation error of the normalised shell");
    println!("# x\tM=1\tM=2\tM=3\tM=4");
    for i in 0..=samples {
        let x = x_max * i as f64 / samples as f64;
        let r = x / alpha;
        let exact = shell_exact(alpha, 1, r);
        print!("{x:.4}");
        for fit in &fits {
            let err = (fit.eval(1, r) - exact).abs() / g0;
            print!("\t{err:.3e}");
        }
        println!();
    }

    println!();
    println!("# max |error| over x in (0, {x_max}]  (paper: rapid decrease with M)");
    for (m, fit) in fits.iter().enumerate() {
        let e = fit.normalised_max_error(x_max, 2000);
        println!("M={}  max_err={e:.3e}", m + 1);
    }
}
