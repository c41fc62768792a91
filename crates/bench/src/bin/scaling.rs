//! Strong-scaling study (extension; §I motivates the machine with strong
//! scalability): the Fig. 9 workload on 1–512 simulated nodes.
//!
//! Usage: `cargo run -p tme-bench --bin scaling`

use mdgrape_sim::scaling::{format_scaling, strong_scaling};
use mdgrape_sim::{MachineConfig, StepWorkload};

fn main() {
    tme_bench::init_cli().finish();
    let base = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    println!(
        "# strong scaling of the Fig. 9 workload ({} atoms) over the torus size",
        w.n_atoms
    );
    let points = strong_scaling(&base, &w, &[1, 2, 4, 8]);
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
