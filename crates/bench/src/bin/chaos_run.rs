//! Chaos benchmark: deterministic fault injection over the machine
//! simulator and the MD driver (DESIGN.md §11).
//!
//! Three experiments, one JSON report (`BENCH_chaos.json`):
//!
//! 1. **Fault-rate sweep** — the Fig. 9 workload runs under
//!    `FaultConfig::chaos(seed, rate)` for a fixed seed at increasing
//!    rates. Each row reports the mean step time, the scheduler-visible
//!    fault overhead, the event mix (link failures/degradations, SoC
//!    dropouts, TMENW timeouts) and the recovery count — every event the
//!    machine model survives is recorded with its recovery. Rate 0 runs
//!    through the *fault-aware* path with a quiet model and is asserted
//!    bitwise identical to the plain `simulate_run` (the zero-fault
//!    identity the step scheduler promises).
//! 2. **Machine-run checkpoint** — a faulted sweep is split in half
//!    through `RunCheckpoint` bytes and must land bitwise on the
//!    uninterrupted run (fault stream position travels with it).
//! 3. **Driver checkpoint** — an SPME water NVE run is killed mid-run,
//!    restored from its latest checkpoint into a fresh simulation, and
//!    must reproduce the uninterrupted trajectory bit-for-bit.
//!
//! The binary exits non-zero if any determinism contract is violated —
//! the CI chaos smoke gate.
//!
//! Usage: `cargo run --release -p tme-bench --bin chaos_run --
//!         [--steps 200] [--seed 42] [--out BENCH_chaos.json]`

use mdgrape_sim::{
    resume_run_faulted, simulate_run, simulate_run_faulted, FaultConfig, FaultEvent, FaultModel,
    MachineConfig, RunCheckpoint, RunReport, StepWorkload,
};
use tme_md::backend::{SpmeBackend, SpmeParams};
use tme_md::water::{thermalize, water_box};
use tme_md::{run_with_checkpoints, NveSim};
use tme_reference::ewald::EwaldParams;

const RATES: [f64; 4] = [0.0, 0.002, 0.01, 0.05];

struct SweepRow {
    rate: f64,
    mean_us: f64,
    max_us: f64,
    fault_overhead_us: f64,
    link_failures: usize,
    link_degradations: usize,
    soc_failures: usize,
    tmenw_timeouts: usize,
    recoveries: usize,
}

fn count_events(report: &RunReport) -> (usize, usize, usize, usize) {
    let mut counts = (0, 0, 0, 0);
    for r in &report.faults {
        match r.event {
            FaultEvent::LinkFailed { .. } => counts.0 += 1,
            FaultEvent::LinkDegraded { .. } => counts.1 += 1,
            FaultEvent::SocFailed { .. } => counts.2 += 1,
            FaultEvent::TmenwTimeout { .. } => counts.3 += 1,
        }
    }
    counts
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Experiment 2: split a faulted machine run through checkpoint bytes and
/// compare against the uninterrupted run. Returns true on bitwise match.
fn machine_checkpoint_demo(cfg: &MachineConfig, w: &StepWorkload, steps: usize, seed: u64) -> bool {
    let chaos = FaultConfig::chaos(seed, 0.01);
    let mut straight_model = FaultModel::new(chaos.clone());
    let straight = simulate_run_faulted(cfg, w, steps, &mut straight_model);

    let half = steps / 2;
    let mut model = FaultModel::new(chaos);
    let partial = simulate_run_faulted(cfg, w, half, &mut model);
    let bytes = RunCheckpoint {
        report: partial,
        model,
    }
    .to_bytes();
    let restored = match RunCheckpoint::from_bytes(&bytes) {
        Ok(c) => c,
        Err(e) => fail(&format!("machine checkpoint failed to decode: {e}")),
    };
    let resumed = resume_run_faulted(cfg, w, steps, restored);
    bits_equal(&straight.step_us, &resumed.step_us)
        && straight.faults == resumed.faults
        && straight.fault_overhead_us.to_bits() == resumed.fault_overhead_us.to_bits()
}

/// Experiment 3: kill an NVE run mid-flight, restore the latest
/// checkpoint into a fresh simulation, finish, and compare bitwise.
fn driver_checkpoint_demo() -> bool {
    let mut sys = water_box(64, 6);
    thermalize(&mut sys, 300.0, 9);
    let r_cut = 0.55;
    let alpha = EwaldParams::alpha_from_tolerance(r_cut, 1e-4);
    let Ok(spme) = SpmeBackend::new(
        SpmeParams {
            n: [16; 3],
            p: 6,
            alpha,
            r_cut,
        },
        sys.box_l,
    ) else {
        fail("SPME plan rejected a valid configuration");
    };

    let total_steps = 12;
    let mut reference = NveSim::new(sys.clone(), &spme, 0.001, r_cut);
    reference.run(total_steps, total_steps);
    if reference.last_error().is_some() {
        fail("reference NVE run hit a numerical fault");
    }

    // The "crashing" run dies after step 9; checkpoints land every 4.
    let mut crashing = NveSim::new(sys.clone(), &spme, 0.001, r_cut);
    let run = run_with_checkpoints(&mut crashing, 9, 9, 4);
    let (at, bytes) = match run.latest() {
        Some((at, bytes)) => (*at, bytes.clone()),
        None => fail("driver run produced no checkpoint"),
    };
    drop(crashing); // the crash: all in-memory state is gone

    let mut restarted = NveSim::new(sys, &spme, 0.001, r_cut);
    if let Err(e) = restarted.restore(&bytes) {
        fail(&format!("driver checkpoint failed to restore: {e}"));
    }
    for _ in at..total_steps {
        restarted.step();
    }
    if restarted.last_error().is_some() {
        fail("restarted NVE run hit a numerical fault");
    }
    let flat = |v: &[[f64; 3]]| -> Vec<f64> { v.iter().flatten().copied().collect() };
    bits_equal(&flat(&reference.system.pos), &flat(&restarted.system.pos))
        && bits_equal(&flat(&reference.system.vel), &flat(&restarted.system.vel))
}

fn main() {
    let mut args = tme_bench::init_cli();
    let steps: usize = args.get("--steps", 200);
    let seed: u64 = args.get("--seed", 42);
    let out_path = args
        .opt("--out")
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());
    args.finish();

    let cfg = MachineConfig::mdgrape4a();
    let w = StepWorkload::paper_fig9();
    println!("# chaos_run: Fig. 9 workload, {steps} steps, fault seed {seed}");

    // Experiment 1: fault-rate sweep.
    let clean = simulate_run(&cfg, &w, steps);
    let mut rows: Vec<SweepRow> = Vec::new();
    for rate in RATES {
        let report = if rate == 0.0 {
            let mut quiet = FaultModel::new(FaultConfig::quiet(seed));
            let r = simulate_run_faulted(&cfg, &w, steps, &mut quiet);
            // Zero-fault identity: the fault-aware scheduler must not
            // perturb a single bit of the clean schedule.
            if !bits_equal(&clean.step_us, &r.step_us) || !r.faults.is_empty() {
                fail("quiet fault model diverged from the fault-free schedule");
            }
            r
        } else {
            let mut model = FaultModel::new(FaultConfig::chaos(seed, rate));
            simulate_run_faulted(&cfg, &w, steps, &mut model)
        };
        let (link_failures, link_degradations, soc_failures, tmenw_timeouts) =
            count_events(&report);
        let row = SweepRow {
            rate,
            mean_us: report.mean(),
            max_us: report.max(),
            fault_overhead_us: report.fault_overhead_us,
            link_failures,
            link_degradations,
            soc_failures,
            tmenw_timeouts,
            recoveries: report.faults.len(),
        };
        println!(
            "rate {:<6}: mean {:.1} us/step (clean {:.1}), overhead {:.1} us, events \
             {} link-fail / {} link-degrade / {} soc / {} tmenw, {} recoveries",
            row.rate,
            row.mean_us,
            clean.mean(),
            row.fault_overhead_us,
            row.link_failures,
            row.link_degradations,
            row.soc_failures,
            row.tmenw_timeouts,
            row.recoveries,
        );
        rows.push(row);
    }

    // Experiments 2 & 3: the two checkpoint/restart layers.
    let machine_ok = machine_checkpoint_demo(&cfg, &w, steps.clamp(20, 100), seed);
    println!(
        "machine-run checkpoint resume: {}",
        if machine_ok { "bitwise ok" } else { "MISMATCH" }
    );
    let driver_ok = driver_checkpoint_demo();
    println!(
        "driver (NVE) checkpoint restart: {}",
        if driver_ok { "bitwise ok" } else { "MISMATCH" }
    );

    let clean_mean = clean.mean();
    let json = tme_num::json::report("chaos_run", |o| {
        o.u64("steps", steps as u64)
            .u64("seed", seed)
            .f64("clean_mean_us", clean_mean, 3)
            .bool("machine_checkpoint_bitwise", machine_ok)
            .bool("driver_checkpoint_bitwise", driver_ok)
            .rows("rows", &rows, |r, row| {
                row.f64("rate", r.rate, 3)
                    .f64("mean_us", r.mean_us, 3)
                    .f64("max_us", r.max_us, 3)
                    .f64("overhead_vs_clean", r.mean_us / clean_mean, 4)
                    .f64("fault_overhead_us", r.fault_overhead_us, 3)
                    .u64("link_failures", r.link_failures as u64)
                    .u64("link_degradations", r.link_degradations as u64)
                    .u64("soc_failures", r.soc_failures as u64)
                    .u64("tmenw_timeouts", r.tmenw_timeouts as u64)
                    .u64("recoveries", r.recoveries as u64);
            });
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    if !machine_ok || !driver_ok {
        fail("checkpoint/restart determinism contract violated");
    }
}
