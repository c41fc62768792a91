//! Table 2 — performance comparison for 50k–100k-atom targets, plus the
//! §V.C overlap accounting (196 µs without long range → ~206 µs with:
//! a ~5% cost).
//!
//! The MDGRAPE-4A row is simulated; the other rows are the literature
//! values the paper itself quotes.
//!
//! Usage: `cargo run -p tme-bench --bin table2`

use mdgrape_sim::report::{format_table2, kwh_per_ns, table2, OverlapReport};
use mdgrape_sim::step::simulate_run;
use mdgrape_sim::{MachineConfig, StepWorkload};

fn main() {
    tme_bench::init_cli().finish();
    let cfg = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    println!("# Table 2 (paper: MDGRAPE-4A = 1.0 µs/day, 200 µs/step, ~50 µs long-range)");
    print!("{}", format_table2(&table2(&cfg, &w)));

    let run = simulate_run(&cfg, &w, 50);
    println!(
        "machine power {:.1} kW (84 W x 512 chips) -> {:.2} kWh per simulated ns",
        cfg.system_power_w() / 1e3,
        kwh_per_ns(&cfg, run.mean(), 2.5)
    );
    println!(
        "
50-step simulated run: mean {:.1} µs/step (min {:.1}, max {:.1}, σ {:.2})",
        run.mean(),
        run.min(),
        run.max(),
        run.stddev()
    );

    let overlap = OverlapReport::compute(&cfg, &w);
    println!("\n# §V.C overlap accounting");
    println!(
        "step without long-range part: {:.1} µs   (paper: 196 µs)",
        overlap.without_long_range.total_us
    );
    println!(
        "step with long-range part:    {:.1} µs   (paper: 206 µs)",
        overlap.with_long_range.total_us
    );
    println!(
        "additional cost:              {:.1} µs = {:.1}%   (paper: ~10 µs, 5%)",
        overlap.overhead_us(),
        overlap.overhead_percent()
    );
}
