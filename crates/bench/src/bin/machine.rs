//! The simulated MDGRAPE-4A's paper results, one section each, all on the
//! Fig. 9 workload (80,540 atoms, 32³ grid, L = 1, r_c = 1.2 nm, g_c = 8,
//! M = 4) of the 512-node machine:
//!
//! * **Fig. 9** — time chart of the SoC components during one MD step.
//! * **Fig. 10** — the GCU/long-range phases: restriction (≈1.5 µs) +
//!   TMENW initiation, convolution (≈6 µs) ∥ TMENW round trip (<20 µs),
//!   prolongation (≈1.5 µs) with the CGP software stretches.
//! * **Table 2** — performance comparison for 50k–100k-atom targets (the
//!   MDGRAPE-4A row simulated, the others the literature values the paper
//!   quotes), plus the §V.C overlap accounting (196 µs without long range
//!   → ~206 µs with: a ~5% cost).
//! * **§VI.A** — the long-range cost with a 64³ grid (L = 2): the GCU
//!   operations scale ×8 (72 µs), grid transfers add ~10 µs, and the
//!   long-range term reaches ~150 µs.
//! * **§VI.B** — the paper's proposed next-generation improvements, one at
//!   a time and combined.
//! * **Strong scaling** (extension; §I motivates the machine with strong
//!   scalability) — the workload on 1–512 simulated nodes.
//!
//! Takes no flags. Usage: `cargo run -p tme-bench --bin machine`

use mdgrape_sim::nextgen::evaluate;
use mdgrape_sim::report::{format_table2, kwh_per_ns, table2, us_per_day, OverlapReport};
use mdgrape_sim::scaling::{format_scaling, strong_scaling};
use mdgrape_sim::timechart::{render, render_long_range};
use mdgrape_sim::{simulate_run, simulate_step, MachineConfig, StepReport, StepWorkload};

/// Columns of the Fig. 9 time chart.
const CHART_WIDTH: usize = 100;

fn main() {
    tme_bench::init_cli().finish();
    let cfg = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    let step = simulate_step(&cfg, &w);
    fig9(&w, &step);
    println!();
    fig10(&step);
    println!();
    table2_and_overlap(&cfg, &w);
    println!();
    grid64(&cfg, &step);
    println!();
    next_generation(&cfg, &w);
    println!();
    scaling(&cfg, &w);
}

fn fig9(w: &StepWorkload, report: &StepReport) {
    println!(
        "# Fig 9: single MD step on simulated MDGRAPE-4A ({} atoms)",
        w.n_atoms
    );
    println!("{}", render(report, CHART_WIDTH));
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

fn fig10(report: &StepReport) {
    println!("# Fig 10: detailed GCU/long-range phases (simulated)");
    print!("{}", render_long_range(report));
    println!("# paper: restriction 1.5 µs, convolution 6 µs, prolongation 1.5 µs,");
    println!("#        TMENW round trip < 20 µs, LRU (CA+BI) ~10 µs, total ~50 µs");
}

fn table2_and_overlap(cfg: &MachineConfig, w: &StepWorkload) {
    println!("# Table 2 (paper: MDGRAPE-4A = 1.0 µs/day, 200 µs/step, ~50 µs long-range)");
    print!("{}", format_table2(&table2(cfg, w)));

    let run = simulate_run(cfg, w, 50);
    println!(
        "machine power {:.1} kW (84 W x 512 chips) -> {:.2} kWh per simulated ns",
        cfg.system_power_w() / 1e3,
        kwh_per_ns(cfg, run.mean(), 2.5)
    );
    println!(
        "\n50-step simulated run: mean {:.1} µs/step (min {:.1}, max {:.1}, σ {:.2})",
        run.mean(),
        run.min(),
        run.max(),
        run.stddev()
    );

    let overlap = OverlapReport::compute(cfg, w);
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

/// §VI.A: `r32` is the Fig. 9 step, set beside the same machine on the
/// 64³, L = 2 workload.
fn grid64(cfg: &MachineConfig, r32: &StepReport) {
    let r64 = simulate_step(cfg, &StepWorkload::paper_grid64());
    println!("# §VI.A: 32³ (L=1) vs 64³ (L=2) long-range cost (simulated)");
    for (name, r) in [("32³ L=1", r32), ("64³ L=2", &r64)] {
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

fn next_generation(base: &MachineConfig, w: &StepWorkload) {
    println!("# §VI.B next-generation variants on the Fig. 9 workload");
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "variant", "step (µs)", "long-range", "µs/day"
    );
    for (name, step, lr) in evaluate(base, w) {
        println!(
            "{name:<28} {step:>10.1} {lr:>12.1} {:>10.2}",
            us_per_day(step, 2.5)
        );
    }
    println!("#\n# paper §VI.B: GP performance is the major overall bottleneck; the");
    println!("# long-range term is 'more difficult' to scale — visible here as the");
    println!("# long-range time barely moving under the GP upgrade.");
}

fn scaling(base: &MachineConfig, w: &StepWorkload) {
    println!(
        "# strong scaling of the Fig. 9 workload ({} atoms) over the torus size",
        w.n_atoms
    );
    let points = strong_scaling(base, w, &[1, 2, 4, 8]);
    print!("{}", format_scaling(&points));
    println!("#\n# the long-range share of the step grows with node count — the");
    println!("# latency-bound part the TME/torus co-design exists to contain.");
    for p in &points {
        println!(
            "# {:3} nodes: long-range share {:.1}%",
            p.nodes,
            p.long_range_us / p.step_us * 100.0
        );
    }
}
