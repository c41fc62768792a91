//! The MD-step workload: `NveSim::try_step` on 1,000 TIP3P waters with the
//! TME backend (Fig. 4 default), plus the helpers that turn generated
//! coordinates into the MD driver's system type.

use crate::catalog::{within, DRIFT_TOLERANCE};
use crate::gen::{self, Fingerprint, SplitMix64, V3};
use crate::oracle::{relative_rms_error, RmsError, SubsetEwald};
use crate::run::{Ctx, Timed, Verdict, Workload};
use std::sync::Arc;
use std::time::Instant;
use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::{plan_backend, BackendParams, LongRangeBackend};
use tme_md::topology::{LjParams, MdSystem, WaterMol};
use tme_md::units::{tip3p, COULOMB};
use tme_md::NveSim;

/// TIP3P topology (masses, LJ on oxygen, rigid-water groups, exclusions)
/// over generated coordinates in O, H, H order; velocities zero.
pub fn tip3p_system(pos: Vec<V3>, edge: f64) -> MdSystem {
    let n_waters = pos.len() / 3;
    let mut sys = MdSystem {
        vel: vec![[0.0; 3]; pos.len()],
        mass: Vec::with_capacity(pos.len()),
        q: Vec::with_capacity(pos.len()),
        lj: Vec::with_capacity(pos.len()),
        box_l: [edge; 3],
        waters: Vec::with_capacity(n_waters),
        exclusions: Vec::with_capacity(3 * n_waters),
        bonded: Default::default(),
        pos,
    };
    for w in 0..n_waters {
        let o = 3 * w;
        sys.mass.extend([tip3p::M_O, tip3p::M_H, tip3p::M_H]);
        sys.q.extend([gen::Q_O, gen::Q_H, gen::Q_H]);
        sys.lj.extend([
            LjParams {
                sigma: tip3p::SIGMA_O,
                epsilon: tip3p::EPS_O,
            },
            LjParams::default(),
            LjParams::default(),
        ]);
        sys.waters.push(WaterMol {
            o,
            h1: o + 1,
            h2: o + 2,
        });
        sys.exclusions
            .extend([(o, o + 1), (o, o + 2), (o + 1, o + 2)]);
    }
    sys.finalize();
    sys
}

/// Cutoff of the set-up relaxation, nm: it only has to resolve contacts
/// between neighbouring molecules, and its cost grows with the cube.
const RELAX_R_CUT: f64 = 0.6;

/// `n_waters` generated at liquid density, relaxed `relax_steps` steepest-
/// descent steps by the MD layer (the paper's systems are equilibrated;
/// randomly oriented molecules have no dipole correlation, which more
/// than doubles every mesh solver's relative force error).
pub fn relaxed_waters(n_waters: usize, edge: f64, relax_steps: usize, seed: u64) -> MdSystem {
    let (pos, _) = gen::water_box(n_waters, edge, &mut SplitMix64::new(seed));
    let mut sys = tip3p_system(pos, edge);
    tme_md::water::relax(&mut sys, relax_steps, RELAX_R_CUT);
    sys
}

/// An MD system with the long-range plan that drives it.
#[derive(Clone, Debug)]
pub struct MdScene {
    pub system: MdSystem,
    pub backend: BackendParams,
    /// Time step, ps.
    pub dt: f64,
    pub r_cut: f64,
}

/// `n_waters` relaxed and thermalised at 300 K, TME on a `grid`³ mesh
/// (g_c 8, M 3), 1 fs steps.
pub fn water_md_scene(
    n_waters: usize,
    grid: usize,
    r_cut: f64,
    relax_steps: usize,
    seed: u64,
    fp: &mut Fingerprint,
) -> MdScene {
    let edge = gen::water_edge(n_waters);
    let mut system = relaxed_waters(
        n_waters,
        edge,
        relax_steps,
        SplitMix64::fork(seed, 0x50).next_u64(),
    );
    system.vel = gen::maxwell_velocities(&system.mass, 300.0, &mut SplitMix64::fork(seed, 0x51));
    fp.v3s(&system.pos);
    fp.v3s(&system.vel);
    MdScene {
        system,
        backend: BackendParams::Tme(TmeParams {
            n: [grid; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 3,
            alpha: alpha_from_rtol(r_cut, 1e-4),
            r_cut,
        }),
        dt: 0.001,
        r_cut,
    }
}

/// Fig. 4 default: 1,000 waters relaxed 100 steps, 16³, r_c 1.25.
pub fn nve_scene(seed: u64, fp: &mut Fingerprint) -> MdScene {
    water_md_scene(1_000, 16, 1.25, 100, seed, fp)
}

/// Plan the scene's backend and start the integrator on it. The plan is
/// leaked: `NveSim` borrows it for its whole life and a run makes at most
/// a handful (one per set-up repeat).
pub fn start_sim(
    scene: MdScene,
) -> Result<(NveSim<'static>, &'static dyn LongRangeBackend), String> {
    let plan: Arc<dyn LongRangeBackend> = plan_backend(&scene.backend, scene.system.box_l)
        .map_err(|e| format!("backend plan rejected: {e}"))?;
    let plan: &'static dyn LongRangeBackend = &**Box::leak(Box::new(plan));
    let sim = NveSim::new(scene.system, plan, scene.dt, scene.r_cut);
    match sim.last_error() {
        Some(e) => Err(format!("initial force evaluation failed: {e}")),
        None => Ok((sim, plan)),
    }
}

/// Total force (kJ mol⁻¹ nm⁻¹) on the atoms in `sample` of a rigid-TIP3P
/// frame, computed from scratch: the oracle's full Ewald sum minus the
/// bare Coulomb force between atoms of the same molecule (excluded pairs
/// do not interact), plus Lennard-Jones between oxygens truncated at
/// `r_cut` as the MD layer truncates it.
pub fn water_force_oracle(sys: &MdSystem, r_cut: f64, sample: &[usize], threads: usize) -> Vec<V3> {
    let ewald = SubsetEwald::for_box(sys.box_l).forces(&sys.pos, &sys.q, sample, threads);
    let sigma2 = tip3p::SIGMA_O * tip3p::SIGMA_O;
    sample
        .iter()
        .zip(ewald)
        .map(|(&i, mut f)| {
            let molecule = i / 3 * 3;
            for j in (molecule..molecule + 3).filter(|&j| j != i) {
                // Molecules are whole: no minimum image inside one.
                let d: V3 = std::array::from_fn(|a| sys.pos[i][a] - sys.pos[j][a]);
                let r2 = d.iter().map(|c| c * c).sum::<f64>();
                let s = sys.q[i] * sys.q[j] / (r2 * r2.sqrt());
                for a in 0..3 {
                    f[a] -= s * d[a];
                }
            }
            for c in &mut f {
                *c *= COULOMB;
            }
            if i == molecule {
                for j in (0..sys.len()).step_by(3).filter(|&j| j != i) {
                    let d: V3 = std::array::from_fn(|a| {
                        let l = sys.box_l[a];
                        let d = sys.pos[i][a] - sys.pos[j][a];
                        d - l * (d / l).round()
                    });
                    let r2 = d.iter().map(|c| c * c).sum::<f64>();
                    if r2 < r_cut * r_cut {
                        let s6 = (sigma2 / r2).powi(3);
                        let s = 24.0 * tip3p::EPS_O * (2.0 * s6 * s6 - s6) / r2;
                        for a in 0..3 {
                            f[a] += s * d[a];
                        }
                    }
                }
            }
            f
        })
        .collect()
}

/// Frames of the timed phase whose forces the oracle checks, evenly
/// spaced, the last step's among them. One frame's relative error moves
/// by tens of percent with the close contacts it happens to hold; four
/// frames of all atoms pool into a figure that repeats across seeds.
const CHECKED_FRAMES: usize = 4;

/// Positions and total forces after one timed step.
struct Frame {
    pos: Vec<V3>,
    forces: Vec<V3>,
}

pub struct NveWorkload {
    sim: NveSim<'static>,
    r_cut: f64,
    fingerprint: u64,
    /// Kinetic energy when the timed phase started.
    kinetic_start: f64,
    /// Total energy before the first timed step and after each one.
    totals: Vec<f64>,
    /// Storage for the checked frames, allocated in set-up so that the
    /// benchmark's own copies do not move the heap during the timed phase
    /// (`peak_rss_mb` is the program's memory, not the harness's).
    frames: Vec<Frame>,
    frames_kept: usize,
}

impl Workload for NveWorkload {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut fp = Fingerprint::default();
        let scene = nve_scene(ctx.seed, &mut fp);
        let r_cut = scene.r_cut;
        let (mut sim, _) = start_sim(scene)?;
        for _ in 0..ctx.warmup_ops() {
            sim.try_step()
                .map_err(|e| format!("warm-up step failed: {e}"))?;
        }
        let atoms = sim.system.len();
        Ok(Self {
            sim,
            r_cut,
            fingerprint: fp.value(),
            kinetic_start: f64::NAN,
            totals: Vec::with_capacity(ctx.timed_ops() + 1),
            frames: (0..CHECKED_FRAMES)
                .map(|_| Frame {
                    pos: vec![[0.0; 3]; atoms],
                    forces: vec![[0.0; 3]; atoms],
                })
                .collect(),
            frames_kept: 0,
        })
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn run_timed(&mut self, ops: usize) -> Timed {
        let e0 = self.sim.energy_record();
        self.kinetic_start = e0.kinetic;
        self.totals.clear();
        self.totals.push(e0.total);
        self.frames_kept = 0;
        let mut timed = Timed {
            attempted: ops,
            ..Timed::default()
        };
        for done in 0..ops {
            let t0 = Instant::now();
            let step = self.sim.try_step();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if step.is_err() {
                // The integrator's state is undefined after a fault: the
                // remaining steps cannot run and count as failed.
                timed.failed = ops - done;
                break;
            }
            timed.push_serial(ms);
            // Outside the op's clock: a sum over the atoms, and a copy of
            // the frame each time another quarter of the steps is done.
            self.totals.push(self.sim.energy_record().total);
            if (done + 1) * CHECKED_FRAMES / ops != done * CHECKED_FRAMES / ops {
                let frame = &mut self.frames[self.frames_kept];
                frame.pos.copy_from_slice(&self.sim.system.pos);
                frame.forces.copy_from_slice(self.sim.forces());
                self.frames_kept += 1;
            }
        }
        timed
    }

    /// Two checks: the forces of the kept frames against the oracle
    /// (`result_err`, pooled over the frames; each frame must meet the
    /// tolerance on its own), and the total energy over the timed steps,
    /// which must stay within [`DRIFT_TOLERANCE`] of where it started.
    fn verify(&mut self, ctx: &Ctx) -> Verdict {
        let mut verdict = Verdict::default();
        let (Some(first), Some(last)) = (self.totals.first(), self.totals.last()) else {
            verdict.failed = 1;
            return verdict;
        };
        let drift = (last - first).abs() / self.kinetic_start;
        let end = self.sim.energy_record();
        verdict.notes.push(format!(
            "E_total {first:.3} -> {last:.3} kJ/mol over the timed steps: |dE|/KE(start) = {drift:.3e} (tolerance {DRIFT_TOLERANCE:e}), T(end) {:.1} K, {} recoveries",
            end.temperature,
            self.sim.recoveries().len()
        ));
        verdict.failed += usize::from(!within(drift, DRIFT_TOLERANCE));

        let everyone: Vec<usize> = (0..self.sim.system.len()).collect();
        let mut frame_sys = self.sim.system.clone();
        let mut pooled = RmsError::default();
        let mut worst: f64 = 0.0;
        let frames = &self.frames[..self.frames_kept];
        for frame in frames {
            frame_sys.pos.clone_from(&frame.pos);
            let want = water_force_oracle(&frame_sys, self.r_cut, &everyone, ctx.threads);
            let err = relative_rms_error(&frame.forces, &want);
            pooled.add(&frame.forces, &want);
            worst = worst.max(err);
            verdict.failed += usize::from(!within(err, ctx.spec.tolerance));
        }
        verdict.result_err = pooled.value();
        verdict.notes.push(format!(
            "relative RMS error of the total force over {} frames of {} atoms: pooled {:.4e}, worst frame {worst:.4e} (tolerance {:e})",
            frames.len(),
            everyone.len(),
            verdict.result_err,
            ctx.spec.tolerance
        ));
        // No frame at all (every step failed) leaves NaN, which is not
        // within any tolerance.
        verdict.failed += usize::from(frames.is_empty());
        verdict
    }
}
