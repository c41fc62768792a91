//! Thread-scaling and allocation audit of the plan/execute pipeline.
//!
//! Runs the full zero-allocation `Tme::compute_with` path and the bare
//! separable convolution at 1/2/4/8 threads, checks the forces stay
//! bitwise identical at every thread count, and writes the timings to
//! `BENCH_pipeline.json` (via `tme_num::json` — the workspace has no
//! serialisation dependency). With `--features alloc-count` the
//! steady-state allocation count per call is measured and reported too
//! (it must be 0).
//!
//! Timing statistic: `--warmup` uncounted calls, then the **minimum** of
//! `--repeats` timed calls. The workload is deterministic, so every
//! sample is the true cost plus non-negative scheduler/cache noise and
//! the minimum is the robust estimate (medians left the committed rows
//! so noisy that 8 threads "beat" 4 on identical work). The per-stage
//! breakdown is captured from the repeat that achieved the minimum, so
//! `stages_us.total` agrees with `compute_us`.
//!
//! Two row families share this machinery: the default scaled box
//! (`--waters`, 512 → 1536 atoms on a 32³-ish grid) and, with
//! `--paper-waters N`, the paper's Table 1 geometry (32,773 waters /
//! 98,319 atoms in a 9.97 nm box) reported under the `paper_box` key —
//! the configuration the serve cost model is calibrated against. The
//! report records `host_threads` (the machine's available parallelism)
//! so speedup columns can be read in context: on a single-core CI runner
//! every multi-thread row necessarily sits near 1×.
//!
//! The paper-box family also hashes every output bit of one short-range
//! `cells` call (FNV-1a over energy, virial, forces and potentials, on the
//! plan's own pair table and cutoff) at every thread count; at 32,773
//! waters the run fails unless the hash is [`PAPER_BOX_CELLS_FNV`], the
//! value recorded before the kernel's accumulation slabs were windowed.
//!
//! With `--baseline <json>` the single-thread `compute_us` (and the
//! short-range stage, the grid path — the convolve + transfer stages — and
//! the particle–mesh transfers — the assign + interpolate stages)
//! of each family present in the committed `BENCH_pipeline.json` is
//! compared and the run fails (non-zero exit) on a regression beyond
//! 15% — the CI smoke gate.
//!
//! The report also carries one row per long-range backend (DESIGN.md
//! §14) at a matched 5e-4 force-error target against the pairwise Ewald
//! oracle: each backend's grid size is the smallest that meets the
//! target, and the row records grid points, measured force error and
//! `compute_us`. The `pswf_demo` object pins the PSWF acceptance claim
//! (equal-or-better accuracy than the B-spline window on the same
//! marginal grid, meeting the target with 8× fewer grid points) and the
//! run fails if it stops holding. `--backend <name>` restricts the
//! table to one backend (the CI backend matrix).
//!
//! Usage: `cargo run --release -p tme-bench --bin pipeline_scaling --
//!         [--waters 512] [--repeats 20] [--warmup 2]
//!         [--paper-waters 32773] [--paper-repeats 3]
//!         [--out BENCH_pipeline.json] [--baseline BENCH_pipeline.json]
//!         [--backend spme-pswf]`

use std::sync::Arc;
use std::time::Instant;

use tme_bench::{grid_for_box, water_system};
use tme_core::convolve::{convolve_separable_into, ConvolveScratch, FoldedKernels};
use tme_core::kernel::TensorKernel;
use tme_core::shells::GaussianFit;
use tme_core::{Tme, TmeParams, TmeStageTimings, TmeWorkspace};
use tme_md::backend::{plan_backend, BackendParams, PswfParams, SpmeParams};
use tme_mesh::cells::{short_range_cells_into, CellScratch};
use tme_mesh::model::relative_force_error;
use tme_mesh::{CoulombResult, CoulombSystem, Grid3};
use tme_num::bytes::Fnv1a;
use tme_num::pool::Pool;
use tme_reference::ewald::{Ewald, EwaldParams};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: tme_bench::alloc::CountingAllocator = tme_bench::alloc::CountingAllocator::new();

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The paper's Table 1 box, and the FNV-1a hash of its short-range cells
/// call ([`cells_hash`]) that the paper-box family must reproduce.
const PAPER_WATERS: usize = 32773;
const PAPER_BOX_CELLS_FNV: u64 = 0xe3cd_9742_5cc0_cd4a;

/// FNV-1a over every output bit of one `short_range_cells_into` call on
/// `system` with the plan's pair table and cutoff, the same at every
/// thread count in [`THREADS`] (`None` when two counts disagree).
fn cells_hash(tme: &Tme, system: &CoulombSystem) -> Option<u64> {
    let (table, r_cut) = (tme.pair_table(), tme.params().r_cut);
    let hashes = THREADS.map(|threads| {
        let mut out = CoulombResult::default();
        let pool = Pool::new(threads);
        short_range_cells_into(
            system,
            table,
            r_cut,
            &pool,
            &mut CellScratch::new(),
            &mut out,
        );
        let start = Fnv1a::new().mix(&out.energy).mix(&out.virial);
        out.forces
            .iter()
            .flatten()
            .chain(&out.potentials)
            .fold(start, Fnv1a::mix)
            .finish()
    });
    hashes.iter().all(|&h| h == hashes[0]).then_some(hashes[0])
}

/// Minimum wall time over `repeats` calls after `warmup` uncounted
/// warm-up calls, in microseconds (see the module docs for why min, not
/// median).
fn min_us(warmup: usize, repeats: usize, mut call: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        call();
    }
    (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Min-of-repeats `compute_with` timing plus the stage breakdown of the
/// repeat that achieved the minimum (so the stages sum to the reported
/// time instead of describing some other call).
fn min_compute_us(
    warmup: usize,
    repeats: usize,
    tme: &Tme,
    ws: &mut TmeWorkspace,
    system: &CoulombSystem,
) -> (f64, TmeStageTimings) {
    for _ in 0..warmup {
        tme.compute_with(ws, system);
    }
    let mut best = f64::INFINITY;
    let mut stages = ws.stage_timings();
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        tme.compute_with(ws, system);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if us < best {
            best = us;
            stages = ws.stage_timings();
        }
    }
    (best, stages)
}

/// Allocations per call in steady state (0 when the feature is off too,
/// but then it is "not measured" and reported as null).
fn allocs_per_call(repeats: usize, mut call: impl FnMut()) -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        let n = repeats.max(1) as u64;
        ALLOC.reset();
        for _ in 0..n {
            call();
        }
        Some(ALLOC.allocations() / n)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        let _ = (repeats, &mut call);
        None
    }
}

struct Row {
    threads: usize,
    convolution_us: f64,
    compute_us: f64,
    allocs_per_compute: Option<u64>,
    bitwise_identical: bool,
    stages: TmeStageTimings,
}

/// One scaled water box measured at every thread count: bitwise check,
/// bare-convolution and full-pipeline min-of-repeats timings, allocation
/// audit. Shared by the default family and the `paper_box` family.
fn measure_family(
    tme: &Tme,
    system: &CoulombSystem,
    n: usize,
    repeats: usize,
    warmup: usize,
    label: &str,
) -> Vec<Row> {
    let box_l = system.box_l;
    // Bare separable convolution input: a synthetic charge grid.
    let fit = GaussianFit::new(2.2936, 4);
    let kernel = TensorKernel::new(&fit, [box_l[0] / n as f64; 3], 6, 8);
    let folded = FoldedKernels::plan(&kernel, [n; 3]);
    let mut q = Grid3::zeros([n; 3]);
    for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 31 % 97) as f64 - 48.0) * 0.01;
    }

    // Single-thread force bits are the determinism reference.
    let mut reference_bits: Vec<u64> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for threads in THREADS {
        let pool = Arc::new(Pool::new(threads));
        let mut ws = TmeWorkspace::with_pool(tme, Arc::clone(&pool));
        let mut conv_scratch = ConvolveScratch::for_dims([n; 3]);
        let mut conv_out = Grid3::zeros([n; 3]);

        // First call sizes every buffer; also yields the forces to compare.
        let bits: Vec<u64> = tme
            .compute_with(&mut ws, system)
            .forces
            .iter()
            .flat_map(|f| f.iter().map(|c| c.to_bits()))
            .collect();
        if threads == 1 {
            reference_bits = bits.clone();
        }
        let bitwise_identical = bits == reference_bits;

        let convolution_us = min_us(warmup, repeats, || {
            convolve_separable_into(
                &q,
                &kernel,
                1.0,
                &folded,
                &pool,
                &mut conv_scratch,
                &mut conv_out,
            );
        });
        let (compute_us, stages) = min_compute_us(warmup, repeats, tme, &mut ws, system);
        let allocs_per_compute = allocs_per_call(repeats, || {
            tme.compute_with(&mut ws, system);
        });

        println!(
            "{label} threads {threads}: convolution {convolution_us:.1} us, compute \
             {compute_us:.1} us, bitwise {} , allocs/call {}",
            if bitwise_identical { "ok" } else { "MISMATCH" },
            allocs_per_compute.map_or_else(|| "n/a".to_string(), |a| a.to_string()),
        );
        println!(
            "  stages (min repeat, us): assign {} convolve {} transfer {} toplevel {} \
             interpolate {} short_range {} total {}",
            stages.assign_us,
            stages.convolve_us,
            stages.transfer_us,
            stages.toplevel_us,
            stages.interpolate_us,
            stages.short_range_us,
            stages.total_us,
        );
        rows.push(Row {
            threads,
            convolution_us,
            compute_us,
            allocs_per_compute,
            bitwise_identical,
            stages,
        });
    }

    assert!(
        rows.iter().all(|r| r.bitwise_identical),
        "{label}: forces changed bits across thread counts — determinism contract broken"
    );

    // Parallel-efficiency report: speedup versus the single-thread row.
    let single_us = rows[0].compute_us;
    if let Some(r4) = rows.iter().find(|r| r.threads == 4) {
        let speedup = single_us / r4.compute_us;
        if speedup < 1.2 {
            eprintln!(
                "WARNING: {label} 4-thread speedup is {speedup:.2}x (< 1.2x). On a multi-core \
                 host this means the parallel stages are not scaling; on a single-core host (as \
                 in CI) it is expected — check the host_threads field before reading anything \
                 into it."
            );
        }
    }
    rows
}

/// The matched-accuracy force-error target of the per-backend table —
/// the same 5e-4 bar `crates/reference/src/spme.rs` pins.
const FORCE_TARGET: f64 = 5e-4;

struct BackendRow {
    name: &'static str,
    grid_points: u64,
    force_err: f64,
    compute_us: f64,
}

/// Deterministic net-neutral random system (splitmix64 positions,
/// alternating unit charges) — the marginal-grid regime of
/// `crates/reference/src/spme.rs`.
fn random_neutral(n: usize, box_edge: f64, seed: u64) -> CoulombSystem {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let pos = (0..n)
        .map(|_| [next() * box_edge, next() * box_edge, next() * box_edge])
        .collect();
    let q = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    CoulombSystem::new(pos, q, [box_edge; 3])
}

/// Plan `params`, warm its workspace, and return (grid points, force
/// error vs `oracle`, min compute µs on one thread).
fn measure_backend(
    params: &BackendParams,
    sys: &CoulombSystem,
    oracle: &CoulombResult,
    repeats: usize,
) -> (u64, f64, f64) {
    let plan = match plan_backend(params, sys.box_l) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: backend table configuration rejected: {e}");
            std::process::exit(1);
        }
    };
    let mut ws = plan.make_workspace_with_pool(Arc::new(Pool::new(1)));
    let mut out = CoulombResult::zeros(sys.len());
    if let Err(e) = plan.compute_into(sys, &mut ws, &mut out) {
        eprintln!("FAIL: {} execute failed: {e}", plan.name());
        std::process::exit(1);
    }
    let force_err = relative_force_error(&out.forces, &oracle.forces);
    let compute_us = min_us(1, repeats, || {
        let _ = plan.compute_into(sys, &mut ws, &mut out);
    });
    (plan.grid_points(), force_err, compute_us)
}

/// The per-backend accuracy/cost table plus the PSWF demonstration.
/// Each backend runs on the smallest grid that meets `FORCE_TARGET`;
/// the quasi-2D slab backend is deliberately absent (different
/// geometry, no matched-error row — its oracle lives in
/// `tests/backend_oracle.rs`).
fn backend_table(repeats: usize, filter: Option<&str>) -> (Vec<BackendRow>, Option<f64>) {
    if filter == Some("slab") {
        println!(
            "backend slab: no matched-error row (quasi-2D geometry has no periodic oracle \
             here; see tests/backend_oracle.rs)"
        );
        return (Vec::new(), None);
    }
    let sys = random_neutral(60, 4.0, 2024);
    let r_cut = 1.2;
    let alpha = EwaldParams::alpha_from_tolerance(r_cut, 1e-5);
    let oracle = Ewald::new(EwaldParams::reference_quality(sys.box_l, 1e-14)).compute(&sys);
    let mesh = |n: usize| TmeParams {
        n: [n; 3],
        p: 6,
        levels: 1,
        gc: 12,
        m_gaussians: 4,
        alpha,
        r_cut,
    };
    let cases: Vec<(&'static str, BackendParams)> = vec![
        ("tme", BackendParams::Tme(mesh(32))),
        (
            "spme",
            BackendParams::Spme(SpmeParams {
                n: [32; 3],
                p: 8,
                alpha,
                r_cut,
            }),
        ),
        (
            "spme-pswf",
            BackendParams::SpmePswf(PswfParams {
                n: [16; 3],
                p: 8,
                alpha,
                r_cut,
                shape: 0.0,
            }),
        ),
        (
            "ewald",
            BackendParams::Ewald(EwaldParams {
                alpha,
                r_cut,
                n_cut: 16,
            }),
        ),
        ("msm", BackendParams::Msm(mesh(32))),
    ];
    let mut rows = Vec::new();
    for (name, params) in &cases {
        if filter.is_some_and(|f| f != *name) {
            continue;
        }
        let (grid_points, force_err, compute_us) = measure_backend(params, &sys, &oracle, repeats);
        let ok = force_err < FORCE_TARGET;
        println!(
            "backend {name:<10}: {grid_points:>6} grid points, force err {force_err:.3e} \
             (target {FORCE_TARGET:.0e} {}), compute {compute_us:.1} us",
            if ok { "ok" } else { "MISSED" },
        );
        if !ok {
            eprintln!("FAIL: backend {name} missed the matched force-error target");
            std::process::exit(1);
        }
        rows.push(BackendRow {
            name,
            grid_points,
            force_err,
            compute_us,
        });
    }
    if let Some(f) = filter {
        if rows.is_empty() {
            eprintln!("FAIL: --backend {f} names no table backend");
            std::process::exit(1);
        }
        // Focused CI leg: no cross-backend demo to check.
        return (rows, None);
    }

    // The PSWF acceptance demonstration: same marginal 16³ grid, the
    // PSWF window is at least as accurate as the B-spline and meets the
    // target the B-spline needs 32³ (8x the points) for.
    let (_, bspline16_err, _) = measure_backend(
        &BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 8,
            alpha,
            r_cut,
        }),
        &sys,
        &oracle,
        repeats,
    );
    let pswf = rows.iter().find(|r| r.name == "spme-pswf");
    let bspline = rows.iter().find(|r| r.name == "spme");
    let (Some(pswf), Some(bspline)) = (pswf, bspline) else {
        eprintln!("FAIL: PSWF demo rows missing from the backend table");
        std::process::exit(1);
    };
    println!(
        "pswf demo: 16^3 pswf {:.3e} vs 16^3 b-spline {bspline16_err:.3e} vs 32^3 b-spline \
         {:.3e} ({} vs {} grid points at the {FORCE_TARGET:.0e} target)",
        pswf.force_err, bspline.force_err, pswf.grid_points, bspline.grid_points,
    );
    if pswf.force_err > bspline16_err || pswf.grid_points >= bspline.grid_points {
        eprintln!("FAIL: PSWF no longer beats the B-spline window on the marginal grid");
        std::process::exit(1);
    }
    (rows, Some(bspline16_err))
}

/// One committed row family's gate-relevant numbers: atom count,
/// single-thread `compute_us` and (when present) the single-thread
/// short-range, grid-path (convolve + transfer) and particle–mesh
/// transfer (assign + interpolate) stages.
struct BaselineFamily {
    atoms: u64,
    compute_us: f64,
    short_range_us: Option<f64>,
    grid_path_us: Option<f64>,
    transfers_us: Option<f64>,
    /// Best `speedup_vs_1t` across the family's rows, for the
    /// thread-scaling gate (only comparable across equal hosts).
    best_speedup: Option<f64>,
}

/// Parse a family from `text` — the whole report for the default rows,
/// or the slice starting at `"paper_box"` for the paper rows (each row
/// renders on one line, so scanning forward from `"threads": 1,` stays
/// inside that row's object).
fn parse_baseline_family(text: &str) -> Option<BaselineFamily> {
    let atoms = scan_number(text, "\"atoms\": ")? as u64;
    let one = text.find("\"threads\": 1,")?;
    let row = &text[one..];
    let compute_us = scan_number(row, "\"compute_us\": ")?;
    let short_range_us = scan_number(row, "\"short_range\": ");
    let grid_path_us = scan_number(row, "\"convolve\": ")
        .zip(scan_number(row, "\"transfer\": "))
        .map(|(convolve, transfer)| convolve + transfer);
    let transfers_us = scan_number(row, "\"assign\": ")
        .zip(scan_number(row, "\"interpolate\": "))
        .map(|(assign, interpolate)| assign + interpolate);
    let best_speedup = scan_numbers(text, "\"speedup_vs_1t\": ")
        .into_iter()
        .fold(None, |best: Option<f64>, s| {
            Some(best.map_or(s, |b| b.max(s)))
        });
    Some(BaselineFamily {
        atoms,
        compute_us,
        short_range_us,
        grid_path_us,
        transfers_us,
        best_speedup,
    })
}

/// First `"key": <number>` occurrence after the start of `text`.
fn scan_number(text: &str, key: &str) -> Option<f64> {
    let i = text.find(key)? + key.len();
    let rest = &text[i..];
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Every `"key": <number>` occurrence in `text`, in order.
fn scan_numbers(text: &str, key: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(key) {
        rest = &rest[i + key.len()..];
        if let Some(end) = rest.find([',', '}', '\n']) {
            if let Ok(v) = rest[..end].trim().parse() {
                out.push(v);
            }
        }
    }
    out
}

/// `>15%` regression gate on one metric; returns true on failure.
fn gate_regression(what: &str, current_us: f64, base_us: f64) -> bool {
    let ratio = current_us / base_us;
    println!("baseline {what}: {base_us:.1} us -> {current_us:.1} us ({ratio:.3}x)");
    if ratio > 1.15 {
        eprintln!(
            "FAIL: {what} regressed {:.1}% vs baseline (limit 15%)",
            (ratio - 1.0) * 100.0
        );
        return true;
    }
    false
}

/// Gate one measured family against its committed counterpart (compute
/// plus the short-range, grid-path and transfer stages when the baseline
/// records them). Returns true on any failure.
fn gate_family(label: &str, rows: &[Row], baseline: Option<&BaselineFamily>, atoms: u64) -> bool {
    let Some(base) = baseline else {
        eprintln!("no {label} family in the baseline — skipping its regression check");
        return false;
    };
    if base.atoms != atoms {
        eprintln!(
            "baseline {label} family is for {} atoms, this run has {atoms} — skipping its \
             regression check",
            base.atoms
        );
        return false;
    }
    let mut failed = gate_regression(
        &format!("{label} single-thread compute_us"),
        rows[0].compute_us,
        base.compute_us,
    );
    if let Some(base_sr) = base.short_range_us {
        failed |= gate_regression(
            &format!("{label} single-thread short_range stage"),
            rows[0].stages.short_range_us as f64,
            base_sr,
        );
    }
    if let Some(base_grid) = base.grid_path_us {
        failed |= gate_regression(
            &format!("{label} single-thread convolve + transfer stages"),
            (rows[0].stages.convolve_us + rows[0].stages.transfer_us) as f64,
            base_grid,
        );
    }
    if let Some(base_transfers) = base.transfers_us {
        failed |= gate_regression(
            &format!("{label} single-thread assign + interpolate stages"),
            (rows[0].stages.assign_us + rows[0].stages.interpolate_us) as f64,
            base_transfers,
        );
    }
    failed
}

/// Thread-speedup gate: the best multi-thread speedup must stay within
/// 15% of the committed baseline's best. Only meaningful when the
/// baseline was recorded on a host with the same available parallelism:
/// the committed rows were measured at `host_threads: 1` (see
/// ROADMAP.md), where every "speedup" is pure pool overhead around 1.0×,
/// so comparing them against a many-core runner (or vice versa) would
/// gate host topology, not code. Returns true on failure.
fn gate_speedup(
    label: &str,
    rows: &[Row],
    base: Option<&BaselineFamily>,
    baseline_host: Option<u64>,
    host_threads: u64,
    atoms: u64,
) -> bool {
    let Some(base_speedup) = base
        .filter(|b| b.atoms == atoms)
        .and_then(|b| b.best_speedup)
    else {
        return false;
    };
    match baseline_host {
        Some(h) if h == host_threads => {}
        Some(h) => {
            println!(
                "skipping the {label} thread-speedup gate: baseline recorded at host_threads \
                 {h}, this host has {host_threads}"
            );
            return false;
        }
        None => {
            println!("skipping the {label} thread-speedup gate: baseline records no host_threads");
            return false;
        }
    }
    let best = rows
        .iter()
        .map(|r| rows[0].compute_us / r.compute_us)
        .fold(0.0, f64::max);
    println!("baseline {label} best thread speedup: {base_speedup:.3}x -> {best:.3}x");
    if best < 0.85 * base_speedup {
        eprintln!(
            "FAIL: {label} thread speedup regressed: {best:.3}x vs baseline {base_speedup:.3}x \
             (limit 15%)"
        );
        return true;
    }
    false
}

/// Append one family's rows to a JSON object (the shared row schema of
/// the default and `paper_box` families).
fn emit_rows(o: &mut tme_num::json::JsonObject, rows: &[Row]) {
    let single_us = rows[0].compute_us;
    o.rows("rows", rows, |r, row| {
        let allocs = r
            .allocs_per_compute
            .map_or_else(|| "null".to_string(), |a| a.to_string());
        let s = r.stages;
        row.u64("threads", r.threads as u64)
            .f64("convolution_us", r.convolution_us, 3)
            .f64("compute_us", r.compute_us, 3)
            .f64("speedup_vs_1t", single_us / r.compute_us, 3)
            .raw("allocs_per_compute", &allocs)
            .bool("bitwise_identical", r.bitwise_identical)
            .obj("stages_us", |o| {
                o.u64("assign", s.assign_us)
                    .u64("convolve", s.convolve_us)
                    .u64("transfer", s.transfer_us)
                    .u64("toplevel", s.toplevel_us)
                    .u64("interpolate", s.interpolate_us)
                    .u64("short_range", s.short_range_us)
                    .u64("total", s.total_us);
            });
    });
}

/// The paper-density water box scaled to `waters`, with its grid and TME
/// parameters (h ≈ 0.3116 nm, paper cutoff clamped to the minimum-image
/// bound for small boxes).
fn scaled_config(waters: usize) -> (CoulombSystem, usize, Tme) {
    let box_edge = 9.9727 * (waters as f64 / 32773.0).cbrt();
    let n = grid_for_box(box_edge);
    let system = water_system(waters, 7);
    let box_l = system.box_l;
    let r_cut = 0.9f64.min(box_l.iter().copied().fold(f64::INFINITY, f64::min) / 2.0);
    let alpha = EwaldParams::alpha_from_tolerance(r_cut, 1e-4);
    let params = TmeParams {
        n: [n; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha,
        r_cut,
    };
    let tme = Tme::new(params, box_l);
    (system, n, tme)
}

fn main() {
    let mut args = tme_bench::init_cli();
    let waters: usize = args.get("--waters", 512);
    let repeats: usize = args.get("--repeats", 20);
    let warmup: usize = args.get("--warmup", 2);
    let paper_waters: usize = args.get("--paper-waters", 0);
    let paper_repeats: usize = args.get("--paper-repeats", 3);
    let out_path = args
        .opt("--out")
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let baseline_path = args.opt("--baseline");
    let backend_filter = args.opt("--backend");
    args.finish();

    let host_threads = std::thread::available_parallelism().map_or(0, |v| v.get() as u64);

    let (system, n, tme) = scaled_config(waters);
    println!(
        "# pipeline_scaling: {} atoms, {n}^3 grid, box {:.3} nm, {repeats} repeats \
         (+{warmup} warmup), host threads {host_threads}",
        system.len(),
        system.box_l[0]
    );
    let rows = measure_family(&tme, &system, n, repeats, warmup, "default");

    // The paper's full Table 1 geometry as its own tracked row family.
    let paper = (paper_waters > 0).then(|| {
        let (psystem, pn, ptme) = scaled_config(paper_waters);
        println!(
            "# paper box: {} atoms, {pn}^3 grid, box {:.3} nm, {paper_repeats} repeats",
            psystem.len(),
            psystem.box_l[0]
        );
        let prows = measure_family(&ptme, &psystem, pn, paper_repeats, 1, "paper_box");
        let cells_fnv = cells_hash(&ptme, &psystem);
        let shown =
            cells_fnv.map_or_else(|| "MISMATCH across threads".into(), |h| format!("{h:016x}"));
        println!("paper_box cells FNV-1a: {shown}");
        if paper_waters == PAPER_WATERS && cells_fnv != Some(PAPER_BOX_CELLS_FNV) {
            eprintln!(
                "paper_box: cells output bits changed ({shown}, pinned {PAPER_BOX_CELLS_FNV:016x})"
            );
            std::process::exit(1);
        }
        (psystem.len() as u64, pn, prows, shown)
    });

    // Regression gate against a previously committed baseline, per family.
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                // Bound each family's scan so the default family's
                // numbers never bleed into the paper_box rows.
                let paper_idx = text.find("\"paper_box\"");
                let base_default = parse_baseline_family(&text[..paper_idx.unwrap_or(text.len())]);
                let base_paper = paper_idx.and_then(|i| parse_baseline_family(&text[i..]));
                let baseline_host = scan_number(&text, "\"host_threads\": ").map(|v| v as u64);
                let mut failed =
                    gate_family("default", &rows, base_default.as_ref(), system.len() as u64);
                failed |= gate_speedup(
                    "default",
                    &rows,
                    base_default.as_ref(),
                    baseline_host,
                    host_threads,
                    system.len() as u64,
                );
                if let Some((atoms, _, prows, _)) = &paper {
                    failed |= gate_family("paper_box", prows, base_paper.as_ref(), *atoms);
                    failed |= gate_speedup(
                        "paper_box",
                        prows,
                        base_paper.as_ref(),
                        baseline_host,
                        host_threads,
                        *atoms,
                    );
                }
                if failed {
                    std::process::exit(1);
                }
            }
            Err(e) => eprintln!("could not read baseline {path}: {e} — skipping the gate"),
        }
    }

    // Per-backend accuracy/cost table (DESIGN.md §14) + PSWF demo.
    let (backend_rows, bspline16_err) = backend_table(repeats, backend_filter.as_deref());

    let json = tme_num::json::report("pipeline_scaling", |o| {
        o.u64("atoms", system.len() as u64)
            .raw("grid", &format!("[{n}, {n}, {n}]"))
            .u64("repeats", repeats as u64)
            .u64("warmup", warmup as u64)
            .u64("host_threads", host_threads)
            .bool("alloc_count_feature", cfg!(feature = "alloc-count"));
        emit_rows(o, &rows);
        if let Some((atoms, pn, prows, cells_fnv)) = &paper {
            o.obj("paper_box", |p| {
                p.u64("atoms", *atoms)
                    .raw("grid", &format!("[{pn}, {pn}, {pn}]"))
                    .u64("repeats", paper_repeats as u64)
                    .str("cells_fnv", cells_fnv);
                emit_rows(p, prows);
            });
        }
        o.f64("backend_force_target", FORCE_TARGET, 6)
            .rows("backends", &backend_rows, |r, row| {
                row.str("backend", r.name)
                    .u64("grid_points", r.grid_points)
                    .f64("force_err", r.force_err, 8)
                    .f64("compute_us", r.compute_us, 3);
            });
        if let Some(b16) = bspline16_err {
            let pswf = backend_rows.iter().find(|r| r.name == "spme-pswf");
            let bspline = backend_rows.iter().find(|r| r.name == "spme");
            if let (Some(p), Some(b)) = (pswf, bspline) {
                o.obj("pswf_demo", |d| {
                    d.u64("pswf_grid_points", p.grid_points)
                        .f64("pswf_force_err", p.force_err, 8)
                        .f64("bspline_same_grid_force_err", b16, 8)
                        .u64("bspline_matched_grid_points", b.grid_points)
                        .f64("bspline_matched_force_err", b.force_err, 8);
                });
            }
        }
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
