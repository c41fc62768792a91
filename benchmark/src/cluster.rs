//! The serving workload: an in-process `tme-router` in front of two
//! `tme-serve` shards, driven by two closed-loop clients.
//!
//! MD clients wait for forces before taking the next step, so a closed
//! loop is the real traffic; open-loop overload ramps stay in the
//! repository's `serve_load` harness as pass/fail gates.

use crate::gen::{self, Fingerprint, MixKind, MixPlan, SplitMix64, V3};
use crate::oracle::{relative_rms_error, RmsError, SubsetEwald};
use crate::run::{Ctx, Timed, Verdict, Workload};
use mdgrape_sim::{simulate_run, MachineConfig, StepWorkload};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;
use tme_router::{RouterConfig, RouterHandle};
use tme_serve::protocol::EstimateSpec;
use tme_serve::{serve, Client, Request, Response, ServeConfig, ServerHandle, WireError};

/// `tme-serve` shards behind the router.
pub const SHARDS: usize = 2;

/// Share of replies kept for the oracle: some 50 `Computed` replies of a
/// full run, so that every plan of the mix is among them and the pooled
/// error does not depend on which few were drawn.
const VERIFY_SHARE: f64 = 0.05;

/// A router with its shards, all in this process.
pub struct Cluster {
    pub shards: Vec<ServerHandle>,
    pub router: RouterHandle,
}

impl Cluster {
    /// One worker per shard, plan-cache capacity 8 (fewer than the mix's
    /// 12 plans), default queue and budgets — which two closed-loop
    /// clients never fill, so the seed run refuses nothing.
    pub fn start() -> Result<Self, String> {
        let shards = (0..SHARDS)
            .map(|_| {
                serve(ServeConfig {
                    workers: 1,
                    plan_cache_capacity: 8,
                    ..ServeConfig::default()
                })
                .map_err(|e| format!("shard failed to start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = tme_router::route(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router failed to start: {e}"))?;
        Ok(Self { shards, router })
    }

    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// Drain and join every thread of the router and the shards.
    pub fn stop(self) {
        self.router.join();
        for shard in self.shards {
            shard.trigger_drain();
            shard.join();
        }
    }
}

/// A `Computed` reply kept for the oracle.
pub struct KeptReply {
    pub plan: usize,
    pub pos: Vec<V3>,
    pub forces: Vec<V3>,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    /// Wall time of every request that was answered correctly, and when
    /// its reply had been decoded.
    pub op_ms: Vec<f64>,
    pub done: Vec<Instant>,
    pub attempted: usize,
    pub failed: usize,
    pub kept: Vec<KeptReply>,
    /// `Computed` replies, and how many of them reported a plan-cache hit.
    pub computes: usize,
    pub cache_hits: usize,
}

/// The machine workload an `Estimate` request describes, as the server
/// reads it.
pub fn estimate_workload(spec: &EstimateSpec) -> StepWorkload {
    StepWorkload {
        n_atoms: spec.n_atoms as usize,
        grid: spec.grid as usize,
        levels: spec.levels,
        gc: spec.gc as usize,
        m_gaussians: spec.m_gaussians as usize,
        r_cut: spec.r_cut,
        box_l: spec.box_l,
        ..StepWorkload::paper_fig9()
    }
}

/// Is `resp` a well-formed answer to `req`? Estimates are recomputed
/// in-process and must match; computes are checked for shape and
/// finiteness here and, for the kept sample, against the oracle later.
pub fn reply_is_valid(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (
            Request::Compute { pos, .. },
            Response::Computed {
                energy,
                forces,
                potentials,
                ..
            },
        ) => {
            energy.is_finite()
                && forces.len() == pos.len()
                && potentials.len() == pos.len()
                && forces.iter().flatten().all(|c| c.is_finite())
        }
        (Request::Estimate { spec, .. }, Response::Estimated { steps, mean_us, .. }) => {
            let want = simulate_run(
                &MachineConfig::mdgrape4a(),
                &estimate_workload(spec),
                spec.steps as usize,
            )
            .mean();
            *steps == spec.steps && (mean_us - want).abs() <= 1e-9 * want
        }
        _ => false,
    }
}

/// Send `n` requests of the mix through `call`, one at a time. Every
/// reply is checked for validity; a seeded [`VERIFY_SHARE`] of `Computed`
/// replies is kept for the oracle (and of estimates, verified on the spot
/// by recomputing them, which costs as much as serving one).
pub fn drive(
    plans: &[MixPlan],
    rng: &mut SplitMix64,
    n: usize,
    mut call: impl FnMut(&Request) -> Result<Response, WireError>,
) -> ClientLog {
    let mut log = ClientLog {
        attempted: n,
        ..ClientLog::default()
    };
    for _ in 0..n {
        let (kind, req) = gen::next_request(plans, rng);
        let keep = rng.uniform() < VERIFY_SHARE;
        let t0 = Instant::now();
        let resp = call(&req);
        let done = Instant::now();
        let ms = (done - t0).as_secs_f64() * 1e3;
        let ok = match (&resp, kind) {
            (Ok(r @ Response::Computed { .. }), MixKind::Compute(_)) => reply_is_valid(&req, r),
            // Recomputing an estimate costs a whole op: only the sample.
            (Ok(r @ Response::Estimated { mean_us, .. }), MixKind::Estimate) => {
                mean_us.is_finite() && *mean_us > 0.0 && (!keep || reply_is_valid(&req, r))
            }
            _ => false,
        };
        if !ok {
            log.failed += 1;
            continue;
        }
        log.op_ms.push(ms);
        log.done.push(done);
        if let (
            MixKind::Compute(plan),
            Ok(Response::Computed {
                forces, cache_hit, ..
            }),
            Request::Compute { pos, .. },
        ) = (kind, resp, req)
        {
            log.computes += 1;
            log.cache_hits += usize::from(cache_hit);
            if keep {
                log.kept.push(KeptReply { plan, pos, forces });
            }
        }
    }
    log
}

/// Run `per_client` requests on each of `streams.len()` closed-loop
/// client threads, started together; `connect` makes each thread's
/// transport. Returns each client's log with its transport, and when the
/// phase started.
pub fn run_clients<C>(
    plans: &[MixPlan],
    streams: &mut [SplitMix64],
    per_client: usize,
    connect: impl Fn(usize) -> Result<C, String> + Sync,
    call: impl Fn(&mut C, &Request) -> Result<Response, WireError> + Sync,
) -> Result<(Vec<(ClientLog, C)>, Instant), String>
where
    C: Send,
{
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(id, rng)| {
                let (barrier, connect, call) = (&barrier, &connect, &call);
                scope.spawn(move || {
                    let transport = connect(id);
                    barrier.wait();
                    let mut transport = transport?;
                    let log = drive(plans, rng, per_client, |req| call(&mut transport, req));
                    Ok::<_, String>((log, transport))
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let logs: Result<Vec<_>, String> = clients
            .into_iter()
            .map(|c| c.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        Ok((logs?, t0))
    })
}

/// `per_client` requests per stream, each stream over its own `Client`
/// connection to `addr`, made before the phase's clock starts.
pub fn client_phase(
    addr: SocketAddr,
    plans: &[MixPlan],
    streams: &mut [SplitMix64],
    per_client: usize,
) -> Result<(Vec<ClientLog>, Instant), String> {
    let (logs, started) = run_clients(
        plans,
        streams,
        per_client,
        |_| Client::connect(addr).map_err(|e| format!("connect failed: {e}")),
        Client::call,
    )?;
    Ok((logs.into_iter().map(|(log, _)| log).collect(), started))
}

/// One compute per plan through `addr`, so that every plan is built where
/// it will be served before any random traffic (which may not draw the
/// rarer plans for a while).
pub fn build_every_plan(
    addr: SocketAddr,
    plans: &[MixPlan],
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    for plan in plans {
        match client.call(&gen::compute_request(plan, rng)) {
            Ok(Response::Computed { .. }) => {}
            other => return Err(format!("plan warm-up request failed: {other:?}")),
        }
    }
    Ok(())
}

/// Oracle error of the kept replies: `(relative RMS error pooled over all
/// of them, worst single reply, replies beyond the tolerance)`.
pub fn verify_kept(
    plans: &[MixPlan],
    kept: &[KeptReply],
    tolerance: f64,
    threads: usize,
) -> (f64, f64, usize) {
    let mut pooled = RmsError::default();
    let mut worst: f64 = 0.0;
    let mut failed = 0;
    for reply in kept {
        let plan = &plans[reply.plan];
        let everyone: Vec<usize> = (0..reply.pos.len()).collect();
        let want =
            SubsetEwald::for_box([plan.edge; 3]).forces(&reply.pos, &plan.q, &everyone, threads);
        let err = relative_rms_error(&reply.forces, &want);
        pooled.add(&reply.forces, &want);
        if !crate::catalog::within(err, tolerance) {
            failed += 1;
        }
        worst = worst.max(err);
    }
    (pooled.value(), worst, failed)
}

pub struct ServeWorkload {
    cluster: Option<Cluster>,
    plans: Vec<MixPlan>,
    /// One request stream per client.
    streams: Vec<SplitMix64>,
    kept: Vec<KeptReply>,
    fingerprint: u64,
}

impl ServeWorkload {
    fn phase(&mut self, per_client: usize) -> Result<(Vec<ClientLog>, Instant), String> {
        let addr = self
            .cluster
            .as_ref()
            .map(Cluster::addr)
            .ok_or("cluster already stopped")?;
        client_phase(addr, &self.plans, &mut self.streams, per_client)
    }
}

impl Workload for ServeWorkload {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut fp = Fingerprint::default();
        let plans = gen::mix_plans(ctx.seed, &mut fp);
        let mut w = Self {
            cluster: Some(Cluster::start()?),
            plans,
            streams: (0..ctx.spec.callers)
                .map(|c| SplitMix64::fork(ctx.seed, 0x200 + c as u64))
                .collect(),
            kept: Vec::new(),
            fingerprint: fp.value(),
        };
        let addr = w.cluster.as_ref().map(Cluster::addr).ok_or("no cluster")?;
        build_every_plan(addr, &w.plans, &mut w.streams[0])?;
        let (logs, _) = w.phase(ctx.warmup_ops())?;
        if logs.iter().any(|l| l.failed > 0) {
            return Err("a warm-up request failed".to_string());
        }
        Ok(w)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn run_timed(&mut self, ops: usize) -> Timed {
        let attempted = ops * self.streams.len();
        match self.phase(ops) {
            Ok((logs, started)) => {
                let mut timed = Timed {
                    attempted,
                    ..Timed::default()
                };
                for log in logs {
                    timed.op_ms.extend(log.op_ms);
                    timed.done_s.extend(
                        log.done
                            .iter()
                            .map(|d| d.saturating_duration_since(started).as_secs_f64()),
                    );
                    timed.failed += log.failed;
                    self.kept.extend(log.kept);
                }
                timed
            }
            Err(_) => Timed {
                attempted,
                failed: attempted,
                ..Timed::default()
            },
        }
    }

    fn verify(&mut self, ctx: &Ctx) -> Verdict {
        let mut verdict = Verdict::default();
        if let Some(cluster) = self.cluster.take() {
            let refused: u64 = cluster
                .shards
                .iter()
                .map(|s| {
                    let st = s.stats();
                    st.rejected + st.expired + st.shed_connections
                })
                .sum::<u64>()
                + cluster.router.stats().router_rejected();
            verdict.notes.push(format!(
                "refused, expired or shed by the cluster: {refused}"
            ));
            cluster.stop();
        }
        let (pooled, worst, failed) =
            verify_kept(&self.plans, &self.kept, ctx.spec.tolerance, ctx.threads);
        verdict.result_err = pooled;
        verdict.failed = failed;
        verdict.notes.push(format!(
            "relative RMS force error over {} sampled Computed replies: pooled {pooled:.4e}, worst reply {worst:.4e} (tolerance {:e})",
            self.kept.len(),
            ctx.spec.tolerance
        ));
        verdict
    }
}

impl Drop for ServeWorkload {
    /// A set-up that is replaced by the next repeat must not leave its
    /// threads and sockets behind.
    fn drop(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            cluster.stop();
        }
    }
}
