//! The repository's benchmark (see `README.md` and `../BENCHMARK.json`).
//!
//! ```text
//! tme-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! tme-benchmark all [--seeds 1,2,3] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
//! tme-benchmark compare <baseline results…> -- <candidate results…>
//! tme-benchmark spread <results…>
//! ```
//!
//! One process measures one (workload, seed): peak memory and the counting
//! allocator are per process. `all` starts one child per pair.

mod alloc;
mod catalog;
mod cluster;
mod compare;
mod force;
mod gen;
mod host;
mod json;
mod nve;
mod oracle;
mod probes;
mod run;
mod stats;
mod trace;
mod traced;

use host::Host;
use run::{Ctx, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  tme-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
  tme-benchmark all [--seeds 1,2,3] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
  tme-benchmark compare <baseline results...> -- <candidate results...>
  tme-benchmark spread <results...>
workloads: paper_box_force, sparse_grid64_force, nve_water_steps, serve_cluster_mix";

/// Options shared by the single-run and `all` forms.
struct Options {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: u32,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seeds: vec![1],
        seconds: catalog::RUN_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("--workload")?),
            "--seed" | "--seeds" => {
                opts.seeds = value(arg)?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Where a run's result file goes.
fn result_path(out: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "result" };
    out.join(format!("{workload}.s{seed}.{kind}.json"))
}

fn run_one(opts: &Options) -> Result<RunResult, String> {
    let name = opts.workload.as_deref().ok_or("--workload is required")?;
    let spec = catalog::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let [seed] = opts.seeds[..] else {
        return Err("a single run takes one --seed".to_string());
    };
    let host = Host::detect();
    // The MD driver and the backends' default workspaces use the global
    // pool, which reads its size once from the environment.
    std::env::set_var("TME_THREADS", host.threads.to_string());
    let ctx = Ctx {
        spec,
        seed,
        seconds: opts.seconds,
        quick: opts.quick,
        threads: host.threads,
    };
    let result = if opts.trace {
        traced::run(&ctx, &host, &opts.out)?
    } else {
        match name {
            catalog::NVE_WATER_STEPS => run::untraced::<nve::NveWorkload>(&ctx, &host)?,
            catalog::SERVE_CLUSTER_MIX => run::untraced::<cluster::ServeWorkload>(&ctx, &host)?,
            _ => run::untraced::<force::ForceWorkload>(&ctx, &host)?,
        }
    };
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("cannot create {:?}: {e}", opts.out))?;
    let path = result_path(&opts.out, name, seed, opts.trace);
    std::fs::write(&path, result.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(result)
}

/// One child process per (workload, seed); every metric by name at the
/// end. Fails if any run was incorrect.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let t0 = std::time::Instant::now();
    for spec in &catalog::WORKLOADS {
        for &seed in &opts.seeds {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out);
            if opts.quick {
                cmd.arg("--quick");
            }
            // The child prints every metric by name with its unit.
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
            all_correct &= status.success();
        }
    }
    println!(
        "# {} run(s) in {:.0} s; result files in {}",
        catalog::WORKLOADS.len() * opts.seeds.len(),
        t0.elapsed().as_secs_f64(),
        opts.out.display()
    );
    Ok(all_correct)
}

fn load_set(paths: &[String]) -> Result<Vec<compare::Record>, String> {
    paths.iter().map(|p| compare::load(p)).collect()
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare takes two sets of result files separated by `--`")?;
    compare::compare(load_set(&args[..split])?, load_set(&args[split + 1..])?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => run_compare(&args[1..]),
        Some("spread") => load_set(&args[1..]).and_then(compare::spread),
        Some("all") => parse_options(&args[1..]).and_then(|opts| run_all(&opts)),
        Some(_) => parse_options(&args).and_then(|opts| {
            let result = run_one(&opts)?;
            result.print_human();
            // Last line of standard output: what the driver reads.
            println!("{}", result.driver_line());
            Ok(result.correct)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tme-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
