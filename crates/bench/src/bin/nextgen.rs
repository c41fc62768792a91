//! §VI.B what-if study: the paper's proposed next-generation improvements
//! applied to the simulated machine, one at a time and combined.
//!
//! Usage: `cargo run -p tme-bench --bin nextgen`

use mdgrape_sim::nextgen::evaluate;
use mdgrape_sim::report::us_per_day;
use mdgrape_sim::{MachineConfig, StepWorkload};

fn main() {
    tme_bench::init_cli().finish();
    let base = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    println!("# §VI.B next-generation variants on the Fig. 9 workload");
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "variant", "step (µs)", "long-range", "µs/day"
    );
    for (name, step, lr) in evaluate(&base, &w) {
        println!(
            "{name:<28} {step:>10.1} {lr:>12.1} {:>10.2}",
            us_per_day(step, 2.5)
        );
    }
    println!("#\n# paper §VI.B: GP performance is the major overall bottleneck; the");
    println!("# long-range term is 'more difficult' to scale — visible here as the");
    println!("# long-range time barely moving under the GP upgrade.");
}
