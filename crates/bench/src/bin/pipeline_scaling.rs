//! Thread-scaling gate of the plan/execute pipeline, written to
//! `BENCH_pipeline.json` (via `tme_num::json`).
//!
//! Every row is planned by `plan_backend` and timed through
//! `LongRangeBackend::compute_into` by one routine, [`measure`]. Per
//! thread count it keeps the minimum of `--repeats` calls (after
//! `--warmup` uncounted ones; the repeats cycle through the thread
//! counts, so all of them sample the same host state), the stage split
//! of the repeat that achieved it (`BackendStats::tme`, so
//! `stages_us.total` agrees with `compute_us`) and whether the force bits
//! equal the first thread count's. The workload is deterministic, so every sample is the true
//! cost plus non-negative noise and the minimum is the robust estimate
//! (medians left the committed rows so noisy that 8 threads "beat" 4 on
//! identical work).
//!
//! Rows: the paper-density water box scaled to `--waters` (512 → 1536
//! atoms); the §VI.A grid (8,192 ±1 charges in a 19.945 nm box, 64³,
//! L = 2, p = 6, g_c = 8, M = 3, r_c = 1.25 nm, the `sparse_grid64` key),
//! where the mesh path is most of a call; and,
//! with `--paper-waters N`, the paper's Table 1 box (32,773 waters /
//! 98,319 atoms, the `paper_box` key) — each a TME at 1/2/4/8 threads.
//! `host_threads` records the machine's parallelism: on a single-core
//! runner every multi-thread row necessarily sits near 1×. `pair_isa`
//! names the instantiation every SIMD stage of a call ran on — the pair
//! kernel, the transfers and the grid passes (the widest the CPU has,
//! `tme_num::isa::Isa::detect`): rows of different instantiations are not
//! comparable.
//!
//! The run exits 1 when a family's forces change bits across thread
//! counts; when, against `--baseline <json>`, a family's single-thread
//! `compute_us`, short-range stage, convolve + transfer or assign +
//! interpolate regresses more than 15%, or (at equal `host_threads`) its
//! best thread speed-up falls more than 15%; and when at 32,773 paper
//! waters the FNV-1a hash of every output bit of one short-range `cells`
//! call differs across thread counts or from [`PAPER_BOX_CELLS_FNV`].
//! Every check runs, and `--out` is written with the failed ones in
//! `failed_checks` (`tme_bench::Checks`). The zero-allocation steady state is
//! `tests/zero_alloc.rs`'s gate; each backend's matched-error row (the
//! smallest grid that meets a 5e-4 force error against the pairwise Ewald
//! oracle) is `backend_oracle::matched_error_rows_meet_the_force_target`.
//!
//! Usage: `cargo run --release -p tme-bench --bin pipeline_scaling --
//!         [--waters 512] [--repeats 20] [--warmup 2]
//!         [--paper-waters 32773] [--paper-repeats 3]
//!         [--out BENCH_pipeline.json] [--baseline BENCH_pipeline.json]`

use std::sync::Arc;
use std::time::Instant;

use tme_bench::{fail, grid_for_box, water_system, Checks};
use tme_core::{alpha_from_rtol, TmeParams, TmeStageTimings};
use tme_md::backend::{plan_backend, BackendParams, LongRangeBackend};
use tme_mesh::cells::{short_range_cells_into, CellScratch};
use tme_mesh::{CoulombResult, CoulombSystem};
use tme_num::bytes::Fnv1a;
use tme_num::isa::Isa;
use tme_num::pool::Pool;
use tme_num::rng::SplitMix64;
use tme_num::table::PairKernelTable;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The paper's Table 1 box, and the FNV-1a hash of its short-range cells
/// call ([`cells_hash`]) that the paper-box family must reproduce.
const PAPER_WATERS: usize = 32773;
const PAPER_BOX_CELLS_FNV: u64 = 0xe3cd_9742_5cc0_cd4a;

/// One thread count's measurement.
struct Row {
    threads: usize,
    /// Minimum wall time of the repeats.
    compute_us: f64,
    /// Force bits equal to the first thread count's.
    bitwise_identical: bool,
    /// Stage split of the minimum's repeat (zero for backends without a
    /// multilevel cascade).
    stages: TmeStageTimings,
}

/// Time `plan` on `system` through `compute_into`, on a fresh workspace
/// per thread count in [`THREADS`]: one sizing call per count (whose
/// forces are compared bitwise with the first count's), `warmup`
/// uncounted calls, then the minimum of `repeats`. The repeats cycle
/// through the thread counts (one call of each per round), so every
/// count samples the same stretch of the host's speed and the rows'
/// ratios do not depend on when the host changed state.
fn measure(
    plan: &dyn LongRangeBackend,
    system: &CoulombSystem,
    warmup: usize,
    repeats: usize,
) -> Vec<Row> {
    let call = |ws: &mut _, out: &mut CoulombResult| match plan.compute_into(system, ws, out) {
        Ok(stats) => stats.tme.map(|s| s.stages).unwrap_or_default(),
        Err(e) => fail(format_args!("{} execute failed: {e}", plan.name())),
    };
    let mut runs: Vec<_> = THREADS
        .iter()
        .map(|&t| {
            let mut ws = plan.make_workspace_with_pool(Arc::new(Pool::new(t)));
            let mut out = CoulombResult::default();
            call(&mut ws, &mut out);
            (ws, out)
        })
        .collect();
    let first = &runs[0].1;
    let mut rows: Vec<Row> = THREADS
        .iter()
        .zip(&runs)
        .map(|(&threads, (_, out))| Row {
            threads,
            compute_us: f64::INFINITY,
            bitwise_identical: out
                .forces
                .iter()
                .flatten()
                .zip(first.forces.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            stages: TmeStageTimings::default(),
        })
        .collect();
    for (ws, out) in &mut runs {
        for _ in 0..warmup {
            call(ws, out);
        }
    }
    for _ in 0..repeats.max(1) {
        for (row, (ws, out)) in rows.iter_mut().zip(&mut runs) {
            let t0 = Instant::now();
            let s = call(ws, out);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if us < row.compute_us {
                (row.compute_us, row.stages) = (us, s);
            }
        }
    }
    rows
}

/// Plan `params` in `box_l`, or fail the run.
fn plan_or_fail(params: &BackendParams, box_l: [f64; 3]) -> Arc<dyn LongRangeBackend> {
    plan_backend(params, box_l)
        .unwrap_or_else(|e| fail(format_args!("configuration rejected: {e}")))
}

/// FNV-1a over every output bit of one `short_range_cells_into` call on
/// `system` with the TME plan's pair table (`PairKernelTable::new(α, r_c)`,
/// the table `Tme::plan` builds) and cutoff, the same at every thread
/// count in [`THREADS`] (`None` when two counts disagree).
fn cells_hash(system: &CoulombSystem, params: &TmeParams) -> Option<u64> {
    let table = PairKernelTable::new(params.alpha, params.r_cut);
    let hashes = THREADS.map(|threads| {
        let mut out = CoulombResult::default();
        let pool = Pool::new(threads);
        let mut scratch = CellScratch::new();
        short_range_cells_into(system, &table, params.r_cut, &pool, &mut scratch, &mut out);
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

/// The paper-density water box scaled to `waters`, with its TME
/// parameters (h ≈ 0.3116 nm, paper cutoff clamped to the minimum-image
/// bound for small boxes).
fn scaled_config(waters: usize) -> (CoulombSystem, TmeParams) {
    let box_edge = 9.9727 * (waters as f64 / 32773.0).cbrt();
    let n = grid_for_box(box_edge);
    let system = water_system(waters, 7);
    let r_cut = 0.9f64.min(system.box_l.iter().copied().fold(f64::INFINITY, f64::min) / 2.0);
    let params = TmeParams {
        n: [n; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    (system, params)
}

/// The §VI.A grid: 8,192 alternating ±1 charges placed uniformly in a
/// 19.945 nm box, on a 64³ two-level TME — the configuration whose call is
/// mostly the mesh path (assignment, the grid passes, interpolation).
fn sparse_config() -> (CoulombSystem, TmeParams) {
    let edge = 19.945;
    let mut rng = SplitMix64::seed_from_u64(0x61A);
    let pos = (0..8192)
        .map(|_| [0; 3].map(|_| rng.gen_range(0.0..edge)))
        .collect();
    let q = (0..8192)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let r_cut = 1.25;
    let params = TmeParams {
        n: [64; 3],
        p: 6,
        levels: 2,
        gc: 8,
        m_gaussians: 3,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    (CoulombSystem::new(pos, q, [edge; 3]), params)
}

/// One family measured at every thread count in [`THREADS`].
struct Family {
    system: CoulombSystem,
    params: TmeParams,
    rows: Vec<Row>,
}

/// Plan and measure `system` as a TME of `params`; the family fails
/// unless the forces are bitwise identical at every thread count.
fn family(
    label: &str,
    (system, params): (CoulombSystem, TmeParams),
    warmup: usize,
    repeats: usize,
    checks: &mut Checks,
) -> Family {
    println!(
        "# {label}: {} atoms, {}^3 grid, box {:.3} nm, {repeats} repeats (+{warmup} warmup)",
        system.len(),
        params.n[0],
        system.box_l[0]
    );
    let plan = plan_or_fail(&BackendParams::Tme(params), system.box_l);
    let rows = measure(&*plan, &system, warmup, repeats);
    for r in &rows {
        let s = r.stages;
        println!(
            "{label} threads {}: compute {:.1} us, bitwise {}",
            r.threads,
            r.compute_us,
            if r.bitwise_identical {
                "ok"
            } else {
                "MISMATCH"
            },
        );
        println!(
            "  stages (min repeat, us): assign {} convolve {} transfer {} toplevel {} \
             interpolate {} short_range {} total {}",
            s.assign_us,
            s.convolve_us,
            s.transfer_us,
            s.toplevel_us,
            s.interpolate_us,
            s.short_range_us,
            s.total_us,
        );
    }
    if !rows.iter().all(|r| r.bitwise_identical) {
        checks.fail(format!(
            "{label}: forces changed bits across thread counts — determinism contract broken"
        ));
    }
    Family {
        system,
        params,
        rows,
    }
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

/// Parse a family from `text` — the report up to the first nested family
/// for the default rows, or the slice of one nested family's object (each
/// row renders on one line, so scanning forward from `"threads": 1,`
/// stays inside that row's object).
fn parse_baseline_family(text: &str) -> Option<BaselineFamily> {
    let atoms = scan_number(text, "\"atoms\": ")? as u64;
    let one = text.find("\"threads\": 1,")?;
    let row = &text[one..];
    let compute_us = scan_number(row, "\"compute_us\": ")?;
    let sum = |a: &str, b: &str| Some(scan_number(row, a)? + scan_number(row, b)?);
    let best_speedup = scan_numbers(text, "\"speedup_vs_1t\": ")
        .into_iter()
        .reduce(f64::max);
    Some(BaselineFamily {
        atoms,
        compute_us,
        short_range_us: scan_number(row, "\"short_range\": "),
        grid_path_us: sum("\"convolve\": ", "\"transfer\": "),
        transfers_us: sum("\"assign\": ", "\"interpolate\": "),
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

/// Gate one measured family against its committed counterpart: a `>15%`
/// regression of compute, or of the short-range, grid-path or transfer
/// stages when the baseline records them, fails the check.
fn gate_family(
    label: &str,
    rows: &[Row],
    baseline: Option<&BaselineFamily>,
    atoms: u64,
    checks: &mut Checks,
) {
    let Some(base) = baseline else {
        eprintln!("no {label} family in the baseline — skipping its regression check");
        return;
    };
    if base.atoms != atoms {
        eprintln!(
            "baseline {label} family is for {} atoms, this run has {atoms} — skipping its \
             regression check",
            base.atoms
        );
        return;
    }
    let s = rows[0].stages;
    let gates = [
        ("compute_us", Some(base.compute_us), rows[0].compute_us),
        (
            "short_range stage",
            base.short_range_us,
            s.short_range_us as f64,
        ),
        (
            "convolve + transfer stages",
            base.grid_path_us,
            (s.convolve_us + s.transfer_us) as f64,
        ),
        (
            "assign + interpolate stages",
            base.transfers_us,
            (s.assign_us + s.interpolate_us) as f64,
        ),
    ];
    for (what, base_us, current_us) in gates {
        let Some(base_us) = base_us else { continue };
        let ratio = current_us / base_us;
        println!(
            "baseline {label} single-thread {what}: {base_us:.1} us -> {current_us:.1} us \
             ({ratio:.3}x)"
        );
        if ratio > 1.15 {
            checks.fail(format!(
                "{label} single-thread {what} regressed {:.1}% vs baseline (limit 15%)",
                (ratio - 1.0) * 100.0
            ));
        }
    }
}

/// Thread-speedup gate: the best multi-thread speedup must stay within
/// 15% of the committed baseline's best. Only meaningful when the
/// baseline was recorded on a host with the same available parallelism:
/// comparing rows recorded at `host_threads: 1`, where every "speedup" is
/// pure pool overhead around 1.0×, against a many-core runner (or vice
/// versa) would gate host topology, not code.
fn gate_speedup(
    label: &str,
    rows: &[Row],
    base: Option<&BaselineFamily>,
    baseline_host: Option<u64>,
    host_threads: u64,
    checks: &mut Checks,
) {
    let Some(base_speedup) = base.and_then(|b| b.best_speedup) else {
        return;
    };
    match baseline_host {
        Some(h) if h == host_threads => {}
        Some(h) => {
            println!(
                "skipping the {label} thread-speedup gate: baseline recorded at host_threads \
                 {h}, this host has {host_threads}"
            );
            return;
        }
        None => {
            println!("skipping the {label} thread-speedup gate: baseline records no host_threads");
            return;
        }
    }
    let best = rows
        .iter()
        .map(|r| rows[0].compute_us / r.compute_us)
        .fold(0.0, f64::max);
    println!("baseline {label} best thread speedup: {base_speedup:.3}x -> {best:.3}x");
    if best < 0.85 * base_speedup {
        checks.fail(format!(
            "{label} thread speedup regressed: {best:.3}x vs baseline {base_speedup:.3}x \
             (limit 15%)"
        ));
    }
}

/// The families a report holds: the default rows at its top level, the
/// others nested under their keys, in this order.
const NESTED: [&str; 2] = ["sparse_grid64", "paper_box"];

/// Gate every family against the committed report at `path`; a missing
/// or unreadable baseline skips the gate. A baseline timed on another
/// instantiation than `isa` (or naming none) is still gated, with a note
/// that its SIMD stages measure other code.
fn gate_baseline(
    path: &str,
    families: [Option<&Family>; 3],
    host_threads: u64,
    isa: &str,
    checks: &mut Checks,
) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("could not read baseline {path}: {e} — skipping the gate");
            return;
        }
    };
    // Bound each family's scan at the next family's key so no family's
    // numbers bleed into another's.
    let starts = NESTED.map(|key| text.find(&format!("\"{key}\"")));
    let end_after = |from: usize| {
        starts
            .iter()
            .flatten()
            .copied()
            .filter(|&i| i > from)
            .min()
            .unwrap_or(text.len())
    };
    let base_default = parse_baseline_family(&text[..end_after(0)]);
    let base_nested =
        starts.map(|at| at.and_then(|i| parse_baseline_family(&text[i..end_after(i)])));
    let baseline_host = scan_number(&text, "\"host_threads\": ").map(|v| v as u64);
    if !text.contains(&format!("\"pair_isa\": \"{isa}\"")) {
        println!("note: baseline {path} was not timed on the {isa} instantiation");
    }
    let [base_sparse, base_paper] = base_nested;
    let labelled = [
        ("default", base_default),
        (NESTED[0], base_sparse),
        (NESTED[1], base_paper),
    ];
    for ((label, base), fam) in labelled.into_iter().zip(families) {
        let Some(fam) = fam else { continue };
        let atoms = fam.system.len() as u64;
        gate_family(label, &fam.rows, base.as_ref(), atoms, checks);
        let base = base.filter(|b| b.atoms == atoms);
        gate_speedup(
            label,
            &fam.rows,
            base.as_ref(),
            baseline_host,
            host_threads,
            checks,
        );
    }
}

/// Append one family's rows to a JSON object (the shared row schema of
/// the default and `paper_box` families).
fn emit_rows(o: &mut tme_num::json::JsonObject, rows: &[Row]) {
    let single_us = rows[0].compute_us;
    o.rows("rows", rows, |r, row| {
        let s = r.stages;
        row.u64("threads", r.threads as u64)
            .f64("compute_us", r.compute_us, 3)
            .f64("speedup_vs_1t", single_us / r.compute_us, 3)
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

fn main() {
    let mut args = tme_bench::init_cli();
    let waters: usize = args.get_or("--waters", 512);
    let repeats: usize = args.get_or("--repeats", 20);
    let warmup: usize = args.get_or("--warmup", 2);
    let paper_waters: usize = args.get_or("--paper-waters", 0);
    let paper_repeats: usize = args.get_or("--paper-repeats", 3);
    let out_path = args
        .opt("--out")
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let baseline_path = args.opt("--baseline");
    args.finish();

    let host_threads = std::thread::available_parallelism().map_or(0, |v| v.get() as u64);
    let isa = Isa::detect().name();
    println!("# pipeline_scaling: host threads {host_threads}, instantiation {isa}");
    let mut checks = Checks::default();
    let default = family(
        "default",
        scaled_config(waters),
        warmup,
        repeats,
        &mut checks,
    );
    let sparse = family(NESTED[0], sparse_config(), warmup, repeats, &mut checks);

    // The paper's full Table 1 geometry as its own tracked row family.
    let paper = (paper_waters > 0).then(|| {
        let config = scaled_config(paper_waters);
        let fam = family(NESTED[1], config, 1, paper_repeats, &mut checks);
        let cells_fnv = cells_hash(&fam.system, &fam.params);
        let shown =
            cells_fnv.map_or_else(|| "MISMATCH across threads".into(), |h| format!("{h:016x}"));
        println!("paper_box cells FNV-1a: {shown}");
        if paper_waters == PAPER_WATERS && cells_fnv != Some(PAPER_BOX_CELLS_FNV) {
            checks.fail(format!(
                "paper_box: cells output bits changed ({shown}, pinned \
                 PAPER_BOX_CELLS_FNV {PAPER_BOX_CELLS_FNV:016x})"
            ));
        }
        (fam, shown)
    });
    if let Some(path) = &baseline_path {
        let families = [Some(&default), Some(&sparse), paper.as_ref().map(|p| &p.0)];
        gate_baseline(path, families, host_threads, isa, &mut checks);
    }

    let grid_json = |p: &TmeParams| format!("[{0}, {0}, {0}]", p.n[0]);
    checks.finish("pipeline_scaling", &out_path, |o| {
        o.u64("atoms", default.system.len() as u64)
            .raw("grid", &grid_json(&default.params))
            .u64("repeats", repeats as u64)
            .u64("warmup", warmup as u64)
            .u64("host_threads", host_threads)
            .str("pair_isa", isa);
        emit_rows(o, &default.rows);
        o.obj(NESTED[0], |p| {
            p.u64("atoms", sparse.system.len() as u64)
                .raw("grid", &grid_json(&sparse.params))
                .u64("levels", u64::from(sparse.params.levels));
            emit_rows(p, &sparse.rows);
        });
        if let Some((fam, cells_fnv)) = &paper {
            o.obj(NESTED[1], |p| {
                p.u64("atoms", fam.system.len() as u64)
                    .raw("grid", &grid_json(&fam.params))
                    .u64("repeats", paper_repeats as u64)
                    .str("cells_fnv", cells_fnv);
                emit_rows(p, &fam.rows);
            });
        }
    });
}
