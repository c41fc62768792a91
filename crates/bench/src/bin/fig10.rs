//! Fig. 10 — detailed time chart of the GCU/long-range phases: restriction
//! (≈1.5 µs) + TMENW initiation, convolution (≈6 µs) ∥ TMENW round trip
//! (<20 µs), prolongation (≈1.5 µs) with the CGP software stretches.
//!
//! Usage: `cargo run -p tme-bench --bin fig10`

use mdgrape_sim::timechart::render_long_range;
use mdgrape_sim::{simulate_step, MachineConfig, StepWorkload};

fn main() {
    tme_bench::init_cli().finish();
    let cfg = MachineConfig::mdgrape4a();
    let report = simulate_step(&cfg, &StepWorkload::paper_fig9());
    println!("# Fig 10: detailed GCU/long-range phases (simulated)");
    print!("{}", render_long_range(&report));
    println!("# paper: restriction 1.5 µs, convolution 6 µs, prolongation 1.5 µs,");
    println!("#        TMENW round trip < 20 µs, LRU (CA+BI) ~10 µs, total ~50 µs");
}
