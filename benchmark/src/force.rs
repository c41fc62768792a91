//! The two force workloads: one `Tme::try_compute_with` call per op on a
//! single caller, inputs jittered between ops.

use crate::catalog::{self, ORACLE_SAMPLE};
use crate::gen::{self, Fingerprint, SplitMix64, V3};
use crate::oracle::{relative_rms_error, RmsError, SubsetEwald};
use crate::run::{Ctx, Timed, Verdict, Workload};
use std::sync::Arc;
use std::time::Instant;
use tme_core::{alpha_from_rtol, Tme, TmeParams, TmeWorkspace};
use tme_mesh::CoulombSystem;
use tme_num::Pool;

/// A Coulomb system with the TME configuration that solves it — also what
/// the traced run decomposes stage by stage.
#[derive(Clone, Debug)]
pub struct TmeScene {
    pub params: TmeParams,
    pub system: CoulombSystem,
    /// Atoms that move together under jitter (3 = rigid water, 1 = ion).
    pub group: usize,
}

/// The paper's Table-1 system: 32,773 TIP3P waters, L = 9.9727 nm, 32³,
/// p 6, L 1, g_c 8, M 3, r_c 1.0. Built the way MD packages solvate a
/// box: a 1,213-water cell of edge L/3 is relaxed 50 steps by the MD layer
/// and tiled 3×3×3 (32,751 molecules); the 22 molecules still missing go
/// into the largest cavities. A tile spans 10⅔ mesh cells, so the 27
/// copies of a molecule sit at different offsets to the mesh and their
/// mesh errors differ: with a tile that is a whole number of mesh cells
/// (L/4) the force error of the box is that of 512 molecules and moves
/// ±7 % with the seed; this way it stays within ±2 %.
pub fn paper_box_scene(seed: u64, fp: &mut Fingerprint) -> TmeScene {
    let edge = gen::PAPER_BOX_EDGE;
    let tiles: usize = 3;
    let cell_waters = gen::PAPER_BOX_WATERS / tiles.pow(3);
    let cell = crate::nve::relaxed_waters(
        cell_waters,
        edge / tiles as f64,
        50,
        SplitMix64::fork(seed, 0x10).next_u64(),
    );
    let (pos, q) = gen::tile_waters(
        &cell.pos,
        edge / tiles as f64,
        tiles,
        gen::PAPER_BOX_WATERS - cell_waters * tiles.pow(3),
        &mut SplitMix64::fork(seed, 0x11),
    );
    fp.v3s(&pos);
    fp.f64s(&q);
    let r_cut = 1.0;
    TmeScene {
        params: TmeParams {
            n: [32; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 3,
            alpha: alpha_from_rtol(r_cut, 1e-4),
            r_cut,
        },
        system: CoulombSystem::new(pos, q, [edge; 3]),
        group: 3,
    }
}

/// The §VI.A grid: 8,192 ±1 charges at least 0.25 nm apart in a 19.945 nm
/// box, 64³, L 2 (top level 16³, the FPGA's size), g_c 8, M 3, r_c 1.25.
pub fn sparse_grid64_scene(seed: u64, fp: &mut Fingerprint) -> TmeScene {
    let edge = 19.945;
    let (pos, q) = gen::sparse_charges(8_192, edge, 0.25, &mut SplitMix64::fork(seed, 0x20));
    fp.v3s(&pos);
    fp.f64s(&q);
    let r_cut = 1.25;
    TmeScene {
        params: TmeParams {
            n: [64; 3],
            p: 6,
            levels: 2,
            gc: 8,
            m_gaussians: 3,
            alpha: alpha_from_rtol(r_cut, 1e-4),
            r_cut,
        },
        system: CoulombSystem::new(pos, q, [edge; 3]),
        group: 1,
    }
}

pub fn scene_for(name: &str, seed: u64, fp: &mut Fingerprint) -> TmeScene {
    match name {
        catalog::PAPER_BOX_FORCE => paper_box_scene(seed, fp),
        catalog::SPARSE_GRID64_FORCE => sparse_grid64_scene(seed, fp),
        other => unreachable!("`{other}` is not a force workload"),
    }
}

/// Oracle forces on the atoms in `sample` at positions `pos`.
pub fn oracle_forces(
    system: &CoulombSystem,
    pos: &[V3],
    sample: &[usize],
    threads: usize,
) -> Vec<V3> {
    SubsetEwald::for_box(system.box_l).forces(pos, &system.q, sample, threads)
}

/// Positions and sampled forces of one op, kept for the oracle.
struct Kept {
    pos: Vec<V3>,
    forces: Vec<V3>,
}

pub struct ForceWorkload {
    tme: Tme,
    ws: TmeWorkspace,
    base: Vec<V3>,
    system: CoulombSystem,
    group: usize,
    jitter: SplitMix64,
    /// Atoms the oracle checks.
    sample: Vec<usize>,
    first: Option<Kept>,
    last: Option<Kept>,
    fingerprint: u64,
}

impl ForceWorkload {
    /// One op on a fresh input. Returns its wall time if the call
    /// succeeded with a finite energy (the call itself rejects non-finite
    /// forces); `keep` copies what the oracle needs, outside the timing.
    fn op(&mut self, keep: bool) -> Option<f64> {
        gen::jitter_into(
            &self.base,
            self.group,
            &mut self.jitter,
            &mut self.system.pos,
        );
        let t0 = Instant::now();
        let out = self.tme.try_compute_with(&mut self.ws, &self.system);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let out = out.ok().filter(|o| o.energy.is_finite())?;
        if keep {
            let kept = Kept {
                pos: self.system.pos.clone(),
                forces: self.sample.iter().map(|&i| out.forces[i]).collect(),
            };
            if self.first.is_none() {
                self.first = Some(kept);
            } else {
                self.last = Some(kept);
            }
        }
        Some(ms)
    }
}

impl Workload for ForceWorkload {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut fp = Fingerprint::default();
        let scene = scene_for(ctx.spec.name, ctx.seed, &mut fp);
        let tme = Tme::try_new(scene.params, scene.system.box_l)
            .map_err(|e| format!("TME plan rejected: {e}"))?;
        let ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(ctx.threads)));
        let sample = gen::sample_indices(
            scene.system.len(),
            ORACLE_SAMPLE,
            &mut SplitMix64::fork(ctx.seed, 0x30),
        );
        let mut w = Self {
            tme,
            ws,
            base: scene.system.pos.clone(),
            system: scene.system,
            group: scene.group,
            jitter: SplitMix64::fork(ctx.seed, 0x40),
            sample,
            first: None,
            last: None,
            fingerprint: fp.value(),
        };
        for _ in 0..ctx.warmup_ops() {
            w.op(false).ok_or("warm-up op failed")?;
        }
        Ok(w)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn run_timed(&mut self, ops: usize) -> Timed {
        let mut timed = Timed {
            attempted: ops,
            ..Timed::default()
        };
        for i in 0..ops {
            match self.op(i == 0 || i + 1 == ops) {
                Some(ms) => timed.push_serial(ms),
                None => timed.failed += 1,
            }
        }
        timed
    }

    /// `result_err` pools the first and the last timed op; each of them
    /// must meet the tolerance on its own.
    fn verify(&mut self, ctx: &Ctx) -> Verdict {
        let mut verdict = Verdict::default();
        let mut pooled = RmsError::default();
        let t0 = Instant::now();
        for (label, kept) in [("first", &self.first), ("last", &self.last)] {
            let Some(kept) = kept else {
                verdict.failed += 1;
                verdict.notes.push(format!("{label} timed op failed"));
                continue;
            };
            let want = oracle_forces(&self.system, &kept.pos, &self.sample, ctx.threads);
            let err = relative_rms_error(&kept.forces, &want);
            pooled.add(&kept.forces, &want);
            verdict.notes.push(format!(
                "{label} timed op: relative RMS force error {err:.4e} on {} atoms",
                self.sample.len()
            ));
            if !catalog::within(err, ctx.spec.tolerance) {
                verdict.failed += 1;
            }
        }
        verdict.result_err = pooled.value();
        verdict.notes.push(format!(
            "oracle (subset Ewald, tolerance {:e}) took {:.2} s",
            ctx.spec.tolerance,
            t0.elapsed().as_secs_f64()
        ));
        verdict
    }
}
