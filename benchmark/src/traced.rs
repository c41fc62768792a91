//! The traced run of one workload: choose the scenes, run every probe,
//! write the span file, report every per-layer metric.

use crate::catalog::{
    self, NVE_WATER_STEPS, PAPER_BOX_FORCE, SERVE_CLUSTER_MIX, SPARSE_GRID64_FORCE,
};
use crate::force::{self, TmeScene};
use crate::gen::{self, Fingerprint};
use crate::host::Host;
use crate::json::{num, obj, text};
use crate::nve::{self, MdScene};
use crate::probes::{self, Checks};
use crate::run::{in_catalogue_order, Ctx, RunResult};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use tme_md::backend::BackendParams;
use tme_mesh::CoulombSystem;

/// Ops traced on a scene that is not the workload's own.
const CANONICAL_FORCE_OPS: usize = 10;
const CANONICAL_MD_STEPS: usize = 40;
const CANONICAL_REQUESTS_PER_CLIENT: usize = 150;

/// The 216-water MD system (16³, r_c 0.9) stepped when the workload has
/// no MD system of its own.
fn canonical_md_scene(seed: u64, fp: &mut Fingerprint) -> MdScene {
    nve::water_md_scene(gen::MIX_WATERS, 16, 0.9, 50, seed, fp)
}

/// The TME system of an MD scene: its current frame under its own plan.
fn tme_scene_of(md: &MdScene) -> Result<TmeScene, String> {
    let BackendParams::Tme(params) = md.backend else {
        return Err("MD scene is not driven by TME".to_string());
    };
    Ok(TmeScene {
        params,
        system: md.system.coulomb_system(),
        group: 3,
    })
}

pub fn run(ctx: &Ctx, host: &Host, out_dir: &Path) -> Result<RunResult, String> {
    let name = ctx.spec.name;
    let seed = ctx.seed;
    let mut fp = Fingerprint::default();
    // A fifth of the untraced op count on the workload's own scene.
    let own_ops = (ctx.timed_ops() / 5).max(2);
    let plans = gen::mix_plans(seed, &mut fp);
    let (tme_scene, md_scene) = match name {
        PAPER_BOX_FORCE | SPARSE_GRID64_FORCE => (
            force::scene_for(name, seed, &mut fp),
            canonical_md_scene(seed, &mut fp),
        ),
        NVE_WATER_STEPS => {
            let md = nve::nve_scene(seed, &mut fp);
            (tme_scene_of(&md)?, md)
        }
        SERVE_CLUSTER_MIX => {
            let first = &plans[0];
            let BackendParams::Tme(params) = first.params else {
                return Err("the mix's first plan is not TME".to_string());
            };
            (
                TmeScene {
                    params,
                    system: CoulombSystem::new(
                        first.base.clone(),
                        first.q.clone(),
                        [first.edge; 3],
                    ),
                    group: 3,
                },
                canonical_md_scene(seed, &mut fp),
            )
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let own = |workload: &[&str], canonical: usize| {
        if workload.contains(&name) {
            own_ops
        } else {
            canonical
        }
    };
    let force_ops = own(&[PAPER_BOX_FORCE, SPARSE_GRID64_FORCE], CANONICAL_FORCE_OPS);
    let md_steps = own(&[NVE_WATER_STEPS], CANONICAL_MD_STEPS);
    let requests = own(&[SERVE_CLUSTER_MIX], CANONICAL_REQUESTS_PER_CLIENT);

    let mut tracer = Tracer::new(Instant::now(), 1 << 16);
    let mut checks = Checks::default();
    let tme = probes::tme_probe(&tme_scene, force_ops, ctx.threads, seed, &mut tracer)?;
    let md = probes::md_probe(&md_scene, ctx.warmup_ops().min(10), md_steps, &mut tracer)?;
    let served = probes::cluster_probe(&plans, requests, ctx.threads, seed, &mut tracer)?;
    let backends = probes::backend_probes(&plans, seed, &mut tracer, &mut checks)?;
    let micro = probes::micro_probes(&plans, ctx.threads, seed, &mut tracer, &mut checks);
    for probe in [&tme, &md, &served] {
        checks.merge(probe.checks);
    }
    let overhead_share = match name {
        NVE_WATER_STEPS => md.overhead_share,
        SERVE_CLUSTER_MIX => served.overhead_share,
        _ => tme.overhead_share,
    };

    let mut values = vec![("trace.overhead_share", overhead_share)];
    for group in [
        &tme.metrics,
        &md.metrics,
        &served.metrics,
        &backends,
        &micro,
    ] {
        values.extend(group.iter().copied());
    }
    let mut notes = vec![format!(
        "mesh.* and core.* on {} atoms, {:?} grid, L {} ({} ops); md.step and its stages on {} waters ({} steps); serve.*/router.* path metrics on {} requests per client",
        tme_scene.system.len(),
        tme_scene.params.n,
        tme_scene.params.levels,
        force_ops,
        md_scene.system.waters.len(),
        md_steps,
        requests
    )];
    notes.extend(tme.notes.iter().cloned());

    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let span_path = out_dir.join(format!("{name}.trace.json"));
    let spans = obj([
        ("schema", text("tme-benchmark-spans/1")),
        ("workload", text(name)),
        ("seed", num(seed as f64)),
        ("spans", tracer.to_json()),
    ]);
    std::fs::write(&span_path, spans.render() + "\n")
        .map_err(|e| format!("cannot write {span_path:?}: {e}"))?;

    let metrics = in_catalogue_order(&catalog::PER_LAYER, &values);
    let correct = checks.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(RunResult {
        workload: name.to_string(),
        seed,
        seconds: ctx.seconds,
        quick: ctx.quick,
        trace: true,
        host: host.clone(),
        fingerprint: fp.value(),
        timed_ops: own_ops,
        tail_percentile: ctx.spec.tail_percentile,
        samples: own_ops * ctx.spec.callers,
        samples_beyond_tail: 0,
        attempted: checks.attempted,
        failed: checks.failed,
        correct,
        metrics,
        notes,
    })
}
