//! The traced run: per-layer measurements taken from outside, by timing
//! calls into each layer's public functions under spans.
//!
//! Every traced run measures every catalogued layer. The workload decides
//! the *scenes* — the TME system the solver stages are timed on, the MD
//! system stepped, the request mix served — and how many ops of each are
//! traced: its own scene at a fifth of its timed op count, the other
//! scenes at small canonical sizes. Which scene a number was taken on is
//! written into the result's notes.
//!
//! End-to-end metrics never come from here; the only link is
//! `trace.overhead_share`, the slowdown of the workload's own op under
//! spans relative to the same ops run without them in this process.

use crate::alloc::allocations;
use crate::cluster::{self, ClientLog, Cluster};
use crate::force::{oracle_forces, TmeScene};
use crate::gen::{self, MixPlan, SplitMix64, V3};
use crate::nve::{start_sim, MdScene};
use crate::oracle::relative_rms_error;
use crate::stats::{median, typical};
use crate::trace::Tracer;
use mdgrape_sim::{simulate_run, simulate_step_into, MachineConfig, StepScratch, StepWorkload};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use tme_core::convolve::{convolve_separable_into, ConvolveScratch, FoldedKernels};
use tme_core::distributed::level_prefactor;
use tme_core::levels::{LevelTransfer, TransferScratch};
use tme_core::toplevel::{TopLevel, TopScratch};
use tme_core::workspace::ASSIGN_PARTS;
use tme_core::{GaussianFit, TensorKernel, Tme, TmeParams, TmeWorkspace};
use tme_md::backend::{plan_backend, BackendParams, BackendWorkspace};
use tme_md::constraints::{settle_all_positions, settle_all_velocities, SettleGeom};
use tme_md::neighbors::VerletList;
use tme_md::nonbond;
use tme_mesh::assign::Interpolated;
use tme_mesh::cells::{self, CellBins, CellScratch};
use tme_mesh::pairwise::self_term_into;
use tme_mesh::{CoulombResult, CoulombSystem, Grid3, SplineOps};
use tme_num::pool::chunk_bounds;
use tme_num::table::PairKernelTable;
use tme_num::{Pool, RealFft3};
use tme_router::{pick_shard, route_key, QuotaConfig, TenantBuckets};
use tme_serve::protocol::{read_frame, write_frame};
use tme_serve::{
    request_cost, Bounded, Client, LoadGauge, PlanCache, Request, Response, WireError,
};

pub type Metrics = Vec<(&'static str, f64)>;

/// Checks a probe made while measuring (staged result equals the opaque
/// one, replies valid, …).
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a probe of one of the three op kinds returns.
pub struct ProbeOut {
    pub metrics: Metrics,
    pub checks: Checks,
    /// (traced − untraced typical op time) ÷ untraced, for this probe's op.
    pub overhead_share: f64,
    /// What a reader of the result must know about these numbers.
    pub notes: Vec<String>,
}

/// Typical duration of the spans called `name`, microseconds: the same
/// low percentile as the end-to-end op time (`catalog::END_TO_END`).
fn typical_us(tracer: &Tracer, name: &str) -> f64 {
    typical(&tracer.durations_us(name))
}

/// The same for a stage that may run several times per op (once per
/// level): typical per-op sum.
fn per_op_typical_us(tracer: &Tracer, name: &str) -> f64 {
    typical(&tracer.per_op_us(name))
}

/// Do two evaluations of the same pipeline agree? They are bitwise equal
/// at the seed commit; the tolerance leaves room for a change of summation
/// order inside the solver, which moves the last bits only.
fn same_result(a: &CoulombResult, b: &CoulombResult) -> bool {
    const TOL: f64 = 1e-9;
    let scale = a
        .forces
        .iter()
        .flatten()
        .fold(0.0_f64, |m, c| m.max(c.abs()));
    (a.energy - b.energy).abs() <= TOL * a.energy.abs()
        && a.forces.len() == b.forces.len()
        && a.forces
            .iter()
            .flatten()
            .zip(b.forces.iter().flatten())
            .all(|(x, y)| (x - y).abs() <= TOL * scale)
}

/// The TME pipeline rebuilt from the solver's public parts, so that each
/// stage can be called — and timed — on its own. Mirrors
/// `tme_core::workspace`: same part counts, same merge order, so its
/// result is the opaque call's.
struct StagedTme {
    params: TmeParams,
    ops: SplineOps,
    kernel: TensorKernel,
    transfer: LevelTransfer,
    top: TopLevel,
    table: PairKernelTable,
    pool: Arc<Pool>,
    q: Vec<Grid3>,
    mid: Vec<Grid3>,
    conv: Vec<ConvolveScratch>,
    folded: Vec<FoldedKernels>,
    transfer_scratch: Vec<TransferScratch>,
    top_phi: Grid3,
    top_scratch: TopScratch,
    parts: Vec<Grid3>,
    interp: Interpolated,
    cells: CellScratch,
    out: CoulombResult,
    /// Separable-convolution multiply-adds of the last run (exact).
    madds: u64,
}

impl StagedTme {
    fn new(params: TmeParams, box_l: V3, pool: Arc<Pool>) -> Self {
        let levels = params.levels as usize;
        let n = params.n;
        let dims_at = |l: usize| [n[0] >> l, n[1] >> l, n[2] >> l];
        let ops = SplineOps::new(params.p, n, box_l);
        let fit = GaussianFit::new(params.alpha, params.m_gaussians);
        let kernel = TensorKernel::new(&fit, ops.spacing(), params.p, params.gc);
        let scale = (1usize << params.levels) as f64;
        let top = TopLevel::new(dims_at(levels), box_l, params.alpha / scale, params.p);
        Self {
            params,
            transfer: LevelTransfer::new(params.p),
            table: PairKernelTable::new(params.alpha, params.r_cut),
            pool,
            q: (0..=levels).map(|l| Grid3::zeros(dims_at(l))).collect(),
            mid: (1..=levels).map(|l| Grid3::zeros(dims_at(l - 1))).collect(),
            conv: (1..=levels)
                .map(|l| ConvolveScratch::for_dims(dims_at(l - 1)))
                .collect(),
            folded: (1..=levels)
                .map(|l| FoldedKernels::plan(&kernel, dims_at(l - 1)))
                .collect(),
            transfer_scratch: (1..=levels)
                .map(|l| TransferScratch::for_fine_dims(dims_at(l - 1)))
                .collect(),
            top_phi: Grid3::zeros(dims_at(levels)),
            top_scratch: top.make_scratch(),
            parts: (0..ASSIGN_PARTS).map(|_| Grid3::zeros(n)).collect(),
            interp: Interpolated::default(),
            cells: CellScratch::new(),
            out: CoulombResult::default(),
            madds: 0,
            ops,
            kernel,
            top,
        }
    }

    /// The six pipeline steps plus the short-range sum, one span each.
    fn run(&mut self, system: &CoulombSystem, tracer: &mut Tracer) {
        let levels = self.params.levels as usize;
        let n_atoms = system.len();
        let pool = Arc::clone(&self.pool);

        // Step 1: assignment in fixed parts, merged in part order.
        let id = tracer.enter("mesh.assign");
        let ops = &self.ops;
        // 512 atoms per thread: the workspace's serial threshold.
        pool.for_each_chunk_sized(&mut self.parts, 1, n_atoms, 512, |part, slot| {
            let grid = &mut slot[0];
            grid.fill(0.0);
            let (lo, hi) = chunk_bounds(n_atoms, ASSIGN_PARTS, part);
            ops.assign_into(&system.pos[lo..hi], &system.q[lo..hi], grid);
        });
        for (i, cell) in self.q[0].as_mut_slice().iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in &self.parts {
                acc += p.as_slice()[i];
            }
            *cell = acc;
        }
        tracer.exit(id);

        // Steps 2–3: convolve each level, restrict to the next.
        self.madds = 0;
        for l in 1..=levels {
            let id = tracer.enter("core.convolve");
            let stats = convolve_separable_into(
                &self.q[l - 1],
                &self.kernel,
                level_prefactor(l as u32),
                &self.folded[l - 1],
                &pool,
                &mut self.conv[l - 1],
                &mut self.mid[l - 1],
            );
            tracer.exit(id);
            self.madds += stats.madds;
            let id = tracer.enter("core.restrict");
            let (fine, coarse) = self.q.split_at_mut(l);
            self.transfer.restrict_into(
                &fine[l - 1],
                &mut coarse[0],
                &mut self.transfer_scratch[l - 1],
            );
            tracer.exit(id);
        }

        // Step 4: top level.
        let id = tracer.enter("core.toplevel");
        self.top
            .solve_into(&self.q[levels], &mut self.top_phi, &mut self.top_scratch);
        tracer.exit(id);

        // Step 5: prolong and accumulate, coarsest first.
        for l in (1..=levels).rev() {
            let id = tracer.enter("core.prolong");
            if l == levels {
                self.transfer.prolong_into(
                    &self.top_phi,
                    &mut self.conv[l - 1].tmp_a,
                    &mut self.transfer_scratch[l - 1],
                );
            } else {
                let (_, coarser) = self.mid.split_at_mut(l);
                self.transfer.prolong_into(
                    &coarser[0],
                    &mut self.conv[l - 1].tmp_a,
                    &mut self.transfer_scratch[l - 1],
                );
            }
            self.mid[l - 1].accumulate(&self.conv[l - 1].tmp_a);
            tracer.exit(id);
        }

        // Step 6: back interpolation.
        let id = tracer.enter("mesh.interpolate");
        self.ops.interpolate_into(
            &self.mid[0],
            &system.pos,
            &system.q,
            &pool,
            &mut self.interp,
        );
        tracer.exit(id);

        // Short range, then mesh + self term on top of it.
        let id = tracer.enter("mesh.cells_short_range");
        cells::short_range_cells_into(
            system,
            &self.table,
            self.params.r_cut,
            &pool,
            &mut self.cells,
            &mut self.out,
        );
        tracer.exit(id);
        self.out.energy += SplineOps::energy(&system.q, &self.interp.potential);
        for (f, m) in self.out.forces.iter_mut().zip(&self.interp.force) {
            for a in 0..3 {
                f[a] += m[a];
            }
        }
        self_term_into(system, self.params.alpha, &mut self.out);
    }
}

/// Pairs within `r_cut` of a uniform system of this size and density —
/// computed, not counted (counting 98,319 atoms' pairs costs more than the
/// op it would annotate).
fn computed_pairs(system: &CoulombSystem, r_cut: f64) -> f64 {
    let n = system.len() as f64;
    let sphere = 4.0 / 3.0 * std::f64::consts::PI * r_cut.powi(3);
    0.5 * n * (n - 1.0) * sphere / system.volume()
}

const STAGES: [&str; 7] = [
    "mesh.assign",
    "core.convolve",
    "core.restrict",
    "core.toplevel",
    "core.prolong",
    "mesh.interpolate",
    "mesh.cells_short_range",
];

/// `mesh.*` and `core.*`: `ops` force calls on jittered inputs, each run
/// once opaquely (`op`) and once stage by stage (`staged_op`).
pub fn tme_probe(
    scene: &TmeScene,
    ops: usize,
    threads: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<ProbeOut, String> {
    let box_l = scene.system.box_l;
    let mut plan = None;
    for _ in 0..3 {
        plan = Some(tracer.span("core.plan_build", || {
            Tme::try_new(scene.params, box_l).map(|tme| {
                let ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(threads)));
                (tme, ws)
            })
        }));
    }
    let (tme, mut ws) = plan
        .ok_or("no plan built")?
        .map_err(|e| format!("TME plan rejected: {e}"))?;
    let mut staged = StagedTme::new(scene.params, box_l, Arc::new(Pool::new(threads)));
    let mut system = scene.system.clone();
    let mut jitter = SplitMix64::fork(seed, 0x60);
    let mut silent = Tracer::new(tracer.origin(), 64);

    // Warm both paths.
    for _ in 0..2 {
        gen::jitter_into(&scene.system.pos, scene.group, &mut jitter, &mut system.pos);
        tme.try_compute_with(&mut ws, &system)
            .map_err(|e| format!("force call failed: {e}"))?;
    }
    staged.run(&system, &mut silent);

    let mut checks = Checks::default();
    let mut allocs = 0;
    let mut own_stage_us = Vec::with_capacity(ops);
    let mut untraced_ms = Vec::with_capacity(ops);
    for i in 0..ops {
        // The op without spans, for the tracing overhead: next to its
        // traced twin, so that both see the same host conditions.
        gen::jitter_into(&scene.system.pos, scene.group, &mut jitter, &mut system.pos);
        let t0 = Instant::now();
        tme.try_compute_with(&mut ws, &system)
            .map_err(|e| format!("force call failed: {e}"))?;
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        gen::jitter_into(&scene.system.pos, scene.group, &mut jitter, &mut system.pos);
        tracer.set_op(i as u32);
        let before = allocations();
        let id = tracer.enter("op");
        let result = tme.try_compute_with_stats(&mut ws, &system);
        tracer.exit(id);
        allocs += allocations() - before;
        let (out, stats) = result.map_err(|e| format!("force call failed: {e}"))?;
        own_stage_us.push(stats.stages.stage_sum_us() as f64);
        let id = tracer.enter("staged_op");
        staged.run(&system, tracer);
        tracer.exit(id);
        // The stages timed one by one must be the call that was timed whole.
        checks.record(same_result(out, &staged.out));
    }

    // The same op on one thread.
    let mut ws1 = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(1)));
    for i in 0..6 {
        let t0 = tracer.enter(if i == 0 {
            "core.t1_warm"
        } else {
            "core.t1_call"
        });
        let ok = tme.try_compute_with(&mut ws1, &system).is_ok();
        tracer.exit(t0);
        checks.record(ok);
    }

    let ops_us = tracer.durations_us("op");
    let op_us = typical(&ops_us);
    // Coverage op by op — the staged pass follows its opaque call at once,
    // so both see the same host conditions — then the median of the ratios.
    let mut staged_sum_us = vec![0.0; ops_us.len()];
    for stage in STAGES {
        for (sum, us) in staged_sum_us.iter_mut().zip(tracer.per_op_us(stage)) {
            *sum += us;
        }
    }
    let coverage: Vec<f64> = staged_sum_us
        .iter()
        .zip(&ops_us)
        .map(|(staged, op)| staged / op)
        .collect();
    let n_atoms = system.len() as f64;
    let assign = per_op_typical_us(tracer, "mesh.assign");
    let interpolate = per_op_typical_us(tracer, "mesh.interpolate");
    let short = per_op_typical_us(tracer, "mesh.cells_short_range");
    let convolve = per_op_typical_us(tracer, "core.convolve");
    let t1_us = typical_us(tracer, "core.t1_call");
    let untraced = typical(&untraced_ms);
    let coverage = median(&coverage);
    let allocs_per_op = allocs as f64 / ops as f64;
    // Neither of the two warnings is a wrong output, so neither fails the
    // run; both say the per-layer numbers of this run are not to be used.
    let mut notes = vec![format!(
        "stage coverage {coverage:.3} (externally timed stages / opaque call, median over the ops); the call's own TmeStageTimings sum to {:.0} us of its {:.0} us",
        median(&own_stage_us),
        median(&ops_us)
    )];
    if !(0.9..=1.1).contains(&coverage) {
        notes.push("NOT TRUSTED: core.stage_coverage is outside 0.9-1.1, the stage times do not add up to the call".to_string());
    }
    if allocs != 0 {
        notes.push(
            "core.allocs_per_op is not 0: the steady-state force call touches the heap".to_string(),
        );
    }
    Ok(ProbeOut {
        metrics: vec![
            ("mesh.assign_us", assign),
            ("mesh.assign_ns_per_atom", assign * 1e3 / n_atoms),
            ("mesh.interpolate_us", interpolate),
            ("mesh.interpolate_ns_per_atom", interpolate * 1e3 / n_atoms),
            ("mesh.cells_short_range_us", short),
            (
                "mesh.cells_ns_per_pair",
                short * 1e3 / computed_pairs(&system, scene.params.r_cut),
            ),
            ("core.convolve_us", convolve),
            ("core.convolve_madds", staged.madds as f64),
            (
                "core.convolve_gmadds_per_s",
                staged.madds as f64 / (convolve * 1e3),
            ),
            (
                "core.restrict_us",
                per_op_typical_us(tracer, "core.restrict"),
            ),
            ("core.prolong_us", per_op_typical_us(tracer, "core.prolong")),
            (
                "core.toplevel_us",
                per_op_typical_us(tracer, "core.toplevel"),
            ),
            (
                "core.plan_build_ms",
                typical_us(tracer, "core.plan_build") / 1e3,
            ),
            ("core.t1_call_ms", t1_us / 1e3),
            ("core.thread_speedup", t1_us / op_us),
            ("core.stage_coverage", coverage),
            ("core.allocs_per_op", allocs_per_op),
        ],
        checks,
        overhead_share: (op_us / 1e3 - untraced) / untraced,
        notes,
    })
}

/// `md.step_us` and the stages of a step: `steps` integrator steps, each
/// followed by the same frame's force stages called one by one.
pub fn md_probe(
    scene: &MdScene,
    warmup: usize,
    steps: usize,
    tracer: &mut Tracer,
) -> Result<ProbeOut, String> {
    let (mut sim, plan) = start_sim(scene.clone())?;
    let step = |sim: &mut tme_md::NveSim<'static>| {
        sim.try_step().map_err(|e| format!("MD step failed: {e}"))
    };
    for _ in 0..warmup {
        step(&mut sim)?;
    }
    let mut untraced_ms = Vec::with_capacity(steps);

    let geom = SettleGeom::tip3p();
    let table = PairKernelTable::new(plan.alpha(), scene.r_cut);
    let mut ws: BackendWorkspace = plan.make_workspace();
    let mut mesh = CoulombResult::default();
    let mut bins = CellBins::default();
    let mut list: Option<VerletList> = None;
    let mut rebuilds = 0usize;
    let mut checks = Checks::default();
    for i in 0..steps {
        // A step without spans beside each traced one (see `tme_probe`).
        let t0 = Instant::now();
        step(&mut sim)?;
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        tracer.set_op(i as u32);
        let id = tracer.enter("md.step");
        let stepped = sim.try_step();
        tracer.exit(id);
        stepped.map_err(|e| format!("MD step failed: {e}"))?;

        let sys = &sim.system;
        let staged = tracer.enter("staged_op");
        // A shadow of the integrator's Verlet list, rebuilt by the same
        // criterion (skin 0.2 nm, an atom moved half of it).
        let current = match list.take() {
            Some(l) if !l.needs_rebuild(&sys.pos) => list.insert(l),
            stale => {
                rebuilds += usize::from(stale.is_some());
                let id = tracer.enter("md.verlet_build");
                let built = VerletList::build_with_bins(
                    &sys.pos,
                    sys.box_l,
                    scene.r_cut,
                    sim.skin,
                    |a, b| sys.is_excluded(a, b),
                    &mut bins,
                );
                tracer.exit(id);
                list.insert(built)
            }
        };
        let mut forces = vec![[0.0; 3]; sys.len()];
        let id = tracer.enter("md.short_range_verlet");
        let short = nonbond::short_range_verlet(sys, current, &table, &mut forces);
        tracer.exit(id);
        let id = tracer.enter("md.mesh_into");
        let coulomb = sys.coulomb_system();
        let meshed = plan.mesh_into(&coulomb, &mut ws, &mut mesh);
        tracer.exit(id);
        let id = tracer.enter("md.exclusion");
        let excluded = nonbond::exclusion_correction(sys, &table, &mut forces);
        tracer.exit(id);
        let old = sys.pos.clone();
        let mut new: Vec<V3> = old
            .iter()
            .zip(&sys.vel)
            .map(|(r, v)| std::array::from_fn(|a| r[a] + scene.dt * v[a]))
            .collect();
        let mut vel = sys.vel.clone();
        let id = tracer.enter("md.settle");
        settle_all_positions(&geom, &sys.waters, &old, &mut new);
        settle_all_velocities(&geom, &sys.waters, &new, &mut vel);
        tracer.exit(id);
        tracer.exit(staged);
        checks.record(
            meshed.is_ok()
                && (short.lj + short.coulomb + excluded + mesh.energy).is_finite()
                && forces.iter().flatten().all(|c| c.is_finite()),
        );
    }
    let step_us = typical_us(tracer, "md.step");
    let untraced = typical(&untraced_ms);
    Ok(ProbeOut {
        metrics: vec![
            ("md.step_us", step_us),
            (
                "md.short_range_verlet_us",
                typical_us(tracer, "md.short_range_verlet"),
            ),
            ("md.exclusion_us", typical_us(tracer, "md.exclusion")),
            ("md.settle_us", typical_us(tracer, "md.settle")),
            ("md.mesh_into_us", typical_us(tracer, "md.mesh_into")),
            ("md.verlet_build_us", typical_us(tracer, "md.verlet_build")),
            (
                "md.verlet_rebuilds_per_100_steps",
                // Each pass of the loop takes two steps.
                rebuilds as f64 * 100.0 / (2 * steps) as f64,
            ),
            ("md.recoveries", sim.recoveries().len() as f64),
        ],
        checks,
        overhead_share: (step_us / 1e3 - untraced) / untraced,
        notes: Vec::new(),
    })
}

/// `md.plan_ms.*`, `md.compute_us.*`, `md.force_err.*` and
/// `reference.spme_compute_us` on the serve mix's first TME and SPME
/// plans, on one-thread pools as the serve workers run them.
pub fn backend_probes(
    plans: &[MixPlan],
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    const CALLS: usize = 10;
    let mut metrics = Metrics::new();
    let mut jitter = SplitMix64::fork(seed, 0x70);
    let names = [
        (
            "md.plan.tme",
            "md.compute.tme",
            "md.plan_ms.tme",
            "md.compute_us.tme",
            "md.force_err.tme",
        ),
        (
            "md.plan.spme",
            "md.compute.spme",
            "md.plan_ms.spme",
            "md.compute_us.spme",
            "md.force_err.spme",
        ),
    ];
    for (mix_plan, (plan_span, compute_span, plan_ms, compute_us, force_err)) in
        plans.iter().zip(names)
    {
        let box_l = [mix_plan.edge; 3];
        let mut planned = None;
        for _ in 0..3 {
            planned = Some(tracer.span(plan_span, || plan_backend(&mix_plan.params, box_l)));
        }
        let backend = planned
            .ok_or("no backend planned")?
            .map_err(|e| format!("backend plan rejected: {e}"))?;
        let mut ws = backend.make_workspace_with_pool(Arc::new(Pool::new(1)));
        let mut system = CoulombSystem::new(mix_plan.base.clone(), mix_plan.q.clone(), box_l);
        let mut out = CoulombResult::default();
        for i in 0..=CALLS {
            gen::jitter_into(&mix_plan.base, 3, &mut jitter, &mut system.pos);
            let id = tracer.enter(if i == 0 {
                "md.compute.warm"
            } else {
                compute_span
            });
            let computed = backend.compute_into(&system, &mut ws, &mut out);
            tracer.exit(id);
            checks.record(computed.is_ok());
        }
        let everyone: Vec<usize> = (0..system.len()).collect();
        let want = oracle_forces(&system, &system.pos, &everyone, 1);
        let err = relative_rms_error(&out.forces, &want);
        checks.record(crate::catalog::within(err, crate::catalog::FORCE_TOLERANCE));
        metrics.push((plan_ms, typical_us(tracer, plan_span) / 1e3));
        metrics.push((compute_us, typical_us(tracer, compute_span)));
        metrics.push((force_err, err));

        if let BackendParams::Spme(p) = mix_plan.params {
            let spme = tme_reference::Spme::new(p.n, box_l, p.alpha, p.p, p.r_cut);
            let mut scratch = spme.make_scratch(Arc::new(Pool::new(1)));
            for i in 0..=CALLS {
                gen::jitter_into(&mix_plan.base, 3, &mut jitter, &mut system.pos);
                let name = if i == 0 {
                    "reference.spme_warm"
                } else {
                    "reference.spme_compute"
                };
                tracer.span(name, || spme.compute_into(&system, &mut scratch, &mut out));
            }
            metrics.push((
                "reference.spme_compute_us",
                typical_us(tracer, "reference.spme_compute"),
            ));
        }
    }
    Ok(metrics)
}

/// Median per-call microseconds of `f`, timed in `reps` spans of `batch`
/// calls each (calls too short for a span of their own).
fn batched_us(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    batch: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    for i in 0..batch {
        f(i);
    }
    for rep in 0..reps {
        let id = tracer.enter(name);
        for i in 0..batch {
            f(rep * batch + i);
        }
        tracer.exit(id);
    }
    typical_us(tracer, name) / batch as f64
}

/// Small fixed-input probes of `tme-num`, `mdgrape-sim`, the `tme-serve`
/// codec, cache, admission and queue, and the `tme-router` key, pick and
/// quota functions.
pub fn micro_probes(
    plans: &[MixPlan],
    threads: usize,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let mut metrics = Metrics::new();
    let mut rng = SplitMix64::fork(seed, 0x80);

    for (name, span, n, reps) in [
        ("num.fft3_16_us", "num.fft3_16", 16usize, 200usize),
        ("num.fft3_32_us", "num.fft3_32", 32, 50),
    ] {
        let fft = RealFft3::new(n, n, n);
        let mut data: Vec<f64> = (0..fft.len()).map(|_| rng.range(-1.0, 1.0)).collect();
        let mut spec = vec![tme_num::Complex64::default(); fft.spectrum_len()];
        let mut scratch = vec![tme_num::Complex64::default(); fft.scratch_len()];
        metrics.push((
            name,
            batched_us(tracer, span, reps, 1, |_| {
                fft.forward_with(&data, &mut spec, &mut scratch);
                fft.inverse_with(&mut spec, &mut data, &mut scratch);
            }),
        ));
        checks.record(data.iter().all(|v| v.is_finite()));
    }

    // An empty fan-out: what a parallel stage pays before any work. Called
    // by path because tme-analyze's a3 asks every `.run_parts(…)` site for
    // an ordered merge of the parts' results, and this one has none.
    let pool = Pool::new(threads);
    metrics.push((
        "num.pool_dispatch_us",
        batched_us(tracer, "num.pool_dispatch", 50, 100, |_| {
            Pool::run_parts(&pool, threads, |part, _| {
                std::hint::black_box(part);
            });
        }),
    ));

    let machine = MachineConfig::mdgrape4a();
    let fig9 = StepWorkload::paper_fig9();
    let mut scratch = StepScratch::new();
    let mut sim_step_us = 0.0;
    metrics.push((
        "mdgrape.step_host_us",
        batched_us(tracer, "mdgrape.step", 50, 10, |_| {
            sim_step_us = simulate_step_into(&machine, &fig9, &mut scratch).total_us;
        }),
    ));
    metrics.push(("mdgrape.sim_step_us", sim_step_us));

    // Codec: the mix's own requests and replies of their size.
    let requests: Vec<Request> = (0..50)
        .map(|_| gen::next_request(plans, &mut rng).1)
        .collect();
    let replies: Vec<Response> = requests
        .iter()
        .map(|req| match req {
            Request::Compute { pos, .. } => Response::Computed {
                energy: -1.0,
                cache_hit: true,
                forces: pos.clone(),
                potentials: vec![0.5; pos.len()],
            },
            _ => Response::Estimated {
                steps: 100,
                mean_us: 206.0,
                max_us: 207.0,
                report: "TME (x1.00 vs TME): 100 steps".to_string(),
            },
        })
        .collect();
    for (req, reply) in requests.iter().zip(&replies) {
        let bytes = tracer.span("serve.encode_request", || req.encode());
        let back = tracer.span("serve.decode_request", || Request::decode(&bytes));
        checks.record(back.as_ref() == Ok(req));
        let bytes = tracer.span("serve.encode_response", || reply.encode());
        let back = tracer.span("serve.decode_response", || Response::decode(&bytes));
        checks.record(back.as_ref() == Ok(reply));
    }
    for (name, span) in [
        ("serve.encode_request_us", "serve.encode_request"),
        ("serve.decode_request_us", "serve.decode_request"),
        ("serve.encode_response_us", "serve.encode_response"),
        ("serve.decode_response_us", "serve.decode_response"),
    ] {
        metrics.push((name, typical_us(tracer, span)));
    }

    // Plan cache: four builds, then lookups that all hit.
    let mut cache = PlanCache::new(8);
    let cached = &plans[..4];
    for plan in cached {
        let built = tracer.span("serve.plan_cache_miss", || {
            cache.get_or_try_build(&plan.params, [plan.edge; 3], || {
                plan_backend(&plan.params, [plan.edge; 3])
            })
        });
        checks.record(matches!(built, Ok((_, false))));
    }
    metrics.push((
        "serve.plan_cache_miss_ms",
        typical_us(tracer, "serve.plan_cache_miss") / 1e3,
    ));
    metrics.push((
        "serve.plan_cache_hit_us",
        batched_us(tracer, "serve.plan_cache_hit", 20, 100, |i| {
            let plan = &cached[i % cached.len()];
            let hit = cache.get_or_try_build(&plan.params, [plan.edge; 3], || {
                plan_backend(&plan.params, [plan.edge; 3])
            });
            std::hint::black_box(hit.is_ok());
        }),
    ));
    let (hits, misses) = cache.counters();
    checks.record(misses == 4 && hits == 2_100);

    let gauge = LoadGauge::new(32_768, 16, 1, 50);
    metrics.push((
        "serve.admission_us",
        batched_us(tracer, "serve.admission", 20, 1_000, |i| {
            let cost = request_cost(&requests[i % requests.len()]);
            if gauge.try_admit(cost) {
                gauge.release(cost);
            }
        }),
    ));
    checks.record(gauge.outstanding() == 0);

    let queue: Bounded<usize> = Bounded::new(16);
    metrics.push((
        "serve.queue_push_pop_us",
        batched_us(tracer, "serve.queue_push_pop", 20, 1_000, |i| {
            std::hint::black_box(queue.try_push(i, None).is_ok());
            std::hint::black_box(queue.pop().is_some());
        }),
    ));
    checks.record(queue.is_empty());

    let mut key_sum = 0u64;
    metrics.push((
        "router.route_key_ns",
        1e3 * batched_us(tracer, "router.route_key", 20, 1_000, |i| {
            key_sum = key_sum.wrapping_add(route_key(&requests[i % requests.len()]));
        }),
    ));
    let keys: Vec<u64> = requests.iter().map(route_key).collect();
    let shards: Vec<usize> = (0..cluster::SHARDS).collect();
    metrics.push((
        "router.pick_shard_ns",
        1e3 * batched_us(tracer, "router.pick_shard", 20, 1_000, |i| {
            std::hint::black_box(pick_shard(keys[i % keys.len()], &shards));
        }),
    ));
    let buckets = TenantBuckets::new(QuotaConfig::default());
    metrics.push((
        "router.quota_take_ns",
        1e3 * batched_us(tracer, "router.quota_take", 20, 1_000, |i| {
            std::hint::black_box(buckets.try_take(i as u64 % 8, Instant::now()).is_ok());
        }),
    ));
    std::hint::black_box(key_sum);
    metrics
}

/// A transport that records spans: the raw frame exchange `Client::call`
/// performs, with each step under its own span — on every second request;
/// the others go through the same exchange without spans, so that the
/// tracing overhead is read off neighbours in one request stream.
struct TracedClient {
    stream: TcpStream,
    tracer: Tracer,
    next_op: u32,
}

impl TracedClient {
    fn exchange(&mut self, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        write_frame(&mut self.stream, bytes).and_then(|()| read_frame(&mut self.stream))
    }

    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let op = self.next_op;
        self.next_op += 1;
        if op.is_multiple_of(2) {
            let payload = self.exchange(&req.encode())?;
            return Response::decode(&payload);
        }
        self.tracer.set_op(op);
        let request = self.tracer.enter("request");
        let bytes = self.tracer.span("serve.encode_request", || req.encode());
        let id = self.tracer.enter("rtt");
        let payload = self.exchange(&bytes);
        self.tracer.exit(id);
        let resp = payload.and_then(|p| {
            self.tracer
                .span("serve.decode_response", || Response::decode(&p))
        });
        self.tracer.exit(request);
        resp
    }
}

/// Executes the mix in-process the way a shard worker does: plan cache,
/// one workspace per plan on a one-thread pool, replies built in full.
struct InProcess {
    cache: PlanCache,
    workspaces: Vec<(u64, BackendWorkspace)>,
    pool: Arc<Pool>,
    out: CoulombResult,
    machine: MachineConfig,
}

impl InProcess {
    fn new() -> Self {
        Self {
            cache: PlanCache::new(gen::MIX_PLANS),
            workspaces: Vec::new(),
            pool: Arc::new(Pool::new(1)),
            out: CoulombResult::default(),
            machine: MachineConfig::mdgrape4a(),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let failed = |message: String| Response::ServerError {
            code: tme_serve::ServerErrorCode::Internal,
            message,
        };
        Ok(match req {
            Request::Compute {
                params,
                box_l,
                pos,
                q,
                ..
            } => {
                let (plan, cache_hit) = match self
                    .cache
                    .get_or_try_build(params, *box_l, || plan_backend(params, *box_l))
                {
                    Ok(found) => found,
                    Err(e) => return Ok(failed(e.to_string())),
                };
                let key = plan.fingerprint();
                let at = match self.workspaces.iter().position(|(k, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        let ws = plan.make_workspace_with_pool(Arc::clone(&self.pool));
                        self.workspaces.push((key, ws));
                        self.workspaces.len() - 1
                    }
                };
                let system = CoulombSystem::new(pos.clone(), q.clone(), *box_l);
                match plan.compute_into(&system, &mut self.workspaces[at].1, &mut self.out) {
                    Ok(_) => Response::Computed {
                        energy: self.out.energy,
                        cache_hit,
                        forces: self.out.forces.clone(),
                        potentials: self.out.potentials.clone(),
                    },
                    Err(e) => failed(e.to_string()),
                }
            }
            Request::Estimate { spec, .. } => {
                let workload = cluster::estimate_workload(spec);
                let report = simulate_run(&self.machine, &workload, spec.steps as usize);
                Response::Estimated {
                    steps: spec.steps,
                    mean_us: report.mean(),
                    max_us: report.max(),
                    report: report.to_string(),
                }
            }
            other => failed(format!("{} is not part of the mix", other.kind_name())),
        })
    }
}

/// One request sent three ways, one right after the other: straight to the
/// shard rendezvous hashing picks, executed in-process, and through the
/// router. The three see the same request, the same caches (all warm) and
/// the same host conditions, so their differences are the layers' costs
/// and not the drift between one phase of the run and the next.
struct PathClient {
    routed: Client,
    shards: Vec<Client>,
    shard_ids: Vec<usize>,
    inproc: InProcess,
    /// Per request, milliseconds.
    routed_ms: Vec<f64>,
    direct_ms: Vec<f64>,
    inproc_ms: Vec<f64>,
    /// Direct or in-process replies that were not valid answers.
    invalid: usize,
}

impl PathClient {
    fn connect(router: SocketAddr, shards: &[SocketAddr]) -> Result<Self, String> {
        let connect =
            |a: &SocketAddr| Client::connect(a).map_err(|e| format!("connect failed: {e}"));
        Ok(Self {
            routed: connect(&router)?,
            shards: shards.iter().map(connect).collect::<Result<_, _>>()?,
            shard_ids: (0..shards.len()).collect(),
            inproc: InProcess::new(),
            routed_ms: Vec::new(),
            direct_ms: Vec::new(),
            inproc_ms: Vec::new(),
            invalid: 0,
        })
    }

    /// Returns the routed reply, which the caller validates. The routed
    /// and the direct call swap places from one request to the next: the
    /// later of the two finds the request's data in the processor's caches.
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let shard = pick_shard(route_key(req), &self.shard_ids).unwrap_or(0);
        let routed_first = self.routed_ms.len() % 2 == 1;
        let timed = |client: &mut Client| {
            let t0 = Instant::now();
            let reply = client.call(req);
            (reply, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (first, first_ms) = timed(if routed_first {
            &mut self.routed
        } else {
            &mut self.shards[shard]
        });
        let t0 = Instant::now();
        let inproc = self.inproc.call(req);
        self.inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (last, last_ms) = timed(if routed_first {
            &mut self.shards[shard]
        } else {
            &mut self.routed
        });
        let ((routed, routed_ms), (direct, direct_ms)) = if routed_first {
            ((first, first_ms), (last, last_ms))
        } else {
            ((last, last_ms), (first, first_ms))
        };
        self.routed_ms.push(routed_ms);
        self.direct_ms.push(direct_ms);
        for reply in [&direct, &inproc] {
            let valid = reply
                .as_ref()
                .is_ok_and(|r| cluster::reply_is_valid(req, r));
            self.invalid += usize::from(!valid);
        }
        routed
    }
}

/// Median over the requests of `a − b`, microseconds (`a`, `b`: per
/// request, milliseconds).
fn paired_diff_p50_us(a: &[f64], b: &[f64]) -> f64 {
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| (x - y) * 1e3).collect();
    median(&diffs)
}

fn count_checks(logs: &[ClientLog], checks: &mut Checks) {
    for log in logs {
        checks.attempted += log.attempted;
        checks.failed += log.failed;
    }
}

/// `serve.*` and `router.*` path metrics, always on two closed-loop
/// callers: the request streams through the router with spans on every
/// second request, then every request sent three ways ([`PathClient`]).
pub fn cluster_probe(
    plans: &[MixPlan],
    per_client: usize,
    threads: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<ProbeOut, String> {
    let callers = 2;
    let fresh_streams = |stream: u64| -> Vec<SplitMix64> {
        (0..callers)
            .map(|c| SplitMix64::fork(seed, stream + c as u64))
            .collect()
    };
    let mut checks = Checks::default();
    let cluster = Cluster::start()?;
    let router = cluster.addr();
    let shard_addrs: Vec<SocketAddr> = cluster.shards.iter().map(|s| s.local_addr()).collect();
    cluster::build_every_plan(router, plans, &mut SplitMix64::fork(seed, 0x300))?;
    cluster::client_phase(router, plans, &mut fresh_streams(0x310), 20)?;

    // Routed, spans on the client side for every second request.
    let origin = tracer.origin();
    let (traced, _) = cluster::run_clients(
        plans,
        &mut fresh_streams(0x320),
        per_client,
        |id| {
            let stream = TcpStream::connect(router).map_err(|e| format!("connect failed: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set_nodelay failed: {e}"))?;
            Ok(TracedClient {
                stream,
                tracer: Tracer::new(origin, 2 * per_client + 8),
                next_op: (id * 1_000_000) as u32,
            })
        },
        TracedClient::call,
    )?;
    let mut traced_logs = Vec::new();
    for (log, client) in traced {
        traced_logs.push(log);
        tracer.absorb(client.tracer);
    }
    count_checks(&traced_logs, &mut checks);
    // Even requests ran without spans, odd ones with.
    let by_parity = |odd: usize| -> Vec<f64> {
        traced_logs
            .iter()
            .flat_map(|l| l.op_ms.iter().skip(odd).step_by(2).copied())
            .collect()
    };
    let (plain, spanned) = (typical(&by_parity(0)), typical(&by_parity(1)));

    // Counters of the routed traffic, before direct traffic reaches the
    // shards.
    let shard_stats: Vec<_> = cluster.shards.iter().map(|s| s.stats()).collect();
    let router_stats = cluster.router.stats();
    let (hits, misses) = shard_stats
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses));
    let mut queue_wait = tme_serve::LatencyHistogram::default();
    for s in &shard_stats {
        queue_wait.merge(&s.queue_wait);
    }
    let (computes, affine): (usize, usize) = traced_logs
        .iter()
        .fold((0, 0), |(c, a), l| (c + l.computes, a + l.cache_hits));

    let (paths, _) = cluster::run_clients(
        plans,
        &mut fresh_streams(0x330),
        per_client,
        |_| PathClient::connect(router, &shard_addrs),
        PathClient::call,
    )?;
    let mut path_logs = Vec::new();
    let (mut routed_ms, mut direct_ms, mut inproc_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (log, client) in paths {
        path_logs.push(log);
        checks.attempted += 2 * client.direct_ms.len();
        checks.failed += client.invalid;
        routed_ms.extend(client.routed_ms);
        direct_ms.extend(client.direct_ms);
        inproc_ms.extend(client.inproc_ms);
    }
    count_checks(&path_logs, &mut checks);

    let mut null = Client::connect(shard_addrs[0]).map_err(|e| format!("connect failed: {e}"))?;
    for _ in 0..200 {
        let answered = tracer.span("serve.null_rtt", || null.call(&Request::Stats));
        checks.record(matches!(answered, Ok(Response::Stats { .. })));
    }
    drop(null);

    // The oracle on a sample of what came back through the router.
    let kept: Vec<_> = traced_logs
        .into_iter()
        .chain(path_logs)
        .flat_map(|l| l.kept)
        .collect();
    let (_, _, beyond) =
        cluster::verify_kept(plans, &kept, crate::catalog::FORCE_TOLERANCE, threads);
    checks.attempted += kept.len();
    checks.failed += beyond;
    cluster.stop();

    let count =
        |f: fn(&tme_serve::ServeStats) -> u64| shard_stats.iter().map(f).sum::<u64>() as f64;
    Ok(ProbeOut {
        metrics: vec![
            ("serve.null_rtt_us", typical_us(tracer, "serve.null_rtt")),
            (
                "serve.plan_cache_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("serve.direct_p50_us", median(&direct_ms) * 1e3),
            ("serve.inproc_solver_p50_us", median(&inproc_ms) * 1e3),
            (
                "serve.overhead_p50_us",
                paired_diff_p50_us(&direct_ms, &inproc_ms),
            ),
            (
                "serve.queue_wait_p50_us",
                queue_wait.quantile_us(0.5) as f64,
            ),
            ("serve.rejected", count(|s| s.rejected)),
            ("serve.shed", count(|s| s.shed_connections)),
            ("serve.expired", count(|s| s.expired)),
            (
                "router.hop_p50_us",
                paired_diff_p50_us(&routed_ms, &direct_ms),
            ),
            (
                "router.affinity_hit_rate",
                affine as f64 / computes.max(1) as f64,
            ),
            ("router.rerouted", router_stats.rerouted as f64),
            (
                "router.router_rejected",
                router_stats.router_rejected() as f64,
            ),
        ],
        checks,
        overhead_share: (spanned - plain) / plain,
        notes: Vec::new(),
    })
}
