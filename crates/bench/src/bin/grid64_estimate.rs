//! §VI.A — estimated long-range cost with a 64³ grid (L = 2): the GCU
//! operations scale ×8 (72 µs), grid transfers add ~10 µs, and the total
//! long-range term reaches ~150 µs.
//!
//! Usage: `cargo run -p tme-bench --bin grid64_estimate`

use mdgrape_sim::timechart::render_long_range;
use mdgrape_sim::{simulate_step, MachineConfig, StepWorkload};

fn main() {
    tme_bench::init_cli().finish();
    let cfg = MachineConfig::mdgrape4a();
    let w32 = StepWorkload::paper_fig9();
    let w64 = StepWorkload::paper_grid64();
    let r32 = simulate_step(&cfg, &w32);
    let r64 = simulate_step(&cfg, &w64);

    println!("# §VI.A: 32³ (L=1) vs 64³ (L=2) long-range cost (simulated)");
    for (name, r) in [("32³ L=1", &r32), ("64³ L=2", &r64)] {
        println!("\n== {name} ==");
        print!("{}", render_long_range(r));
        println!("step total: {:.1} µs", r.total_us);
    }
    let conv32 = r32.phase("convolution L1").unwrap();
    let conv64 = r64.phase("convolution L1").unwrap();
    println!(
        "\nGCU level-1 convolution scaling: {:.2}x  (paper: x8 theoretically)",
        conv64 / conv32
    );
    println!(
        "long-range total: {:.1} µs -> {:.1} µs  (paper estimate: ~50 µs -> ~150 µs)",
        r32.long_range_us(),
        r64.long_range_us()
    );
}
