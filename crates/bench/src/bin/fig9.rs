//! Fig. 9 — time chart of the SoC components during a single MD step on
//! the simulated MDGRAPE-4A (80,540 atoms, 32³ grid, L = 1, r_c = 1.2 nm,
//! g_c = 8, M = 4).
//!
//! Usage: `cargo run -p tme-bench --bin fig9 [--width 100]`

use mdgrape_sim::timechart::render;
use mdgrape_sim::{simulate_step, MachineConfig, StepWorkload};

fn main() {
    let mut args = tme_bench::init_cli();
    let width: usize = args.get_or("--width", 100);
    args.finish();
    let cfg = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    let report = simulate_step(&cfg, &w);
    println!(
        "# Fig 9: single MD step on simulated MDGRAPE-4A ({} atoms)",
        w.n_atoms
    );
    println!("{}", render(&report, width));
    println!(
        "total step time: {:.1} µs   (paper: 206 µs)",
        report.total_us
    );
    if let Some((s, e)) = report.long_range_span {
        println!(
            "long-range pipeline: {:.1} µs (t = {s:.1}..{e:.1})   (paper: ~50 µs)",
            e - s
        );
    }
    println!("\nper-module utilisation over the step:");
    for (name, frac) in report.utilisation() {
        println!(
            "  {name:<6} {:5.1}%  |{}",
            frac * 100.0,
            "#".repeat((frac * 40.0).round() as usize)
        );
    }
    println!("(the GP software phases dominate — the paper's §VI.B bottleneck)");
}
