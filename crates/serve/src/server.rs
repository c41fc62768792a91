//! The TME simulation server (DESIGN.md §12.3, §16): serve's policy on
//! the shared network core ([`crate::net`]) — the shed gates of the
//! lock-free [`LoadGauge`] at accept and before decode, cost-budget
//! admission onto the bounded queue (a full queue or exhausted budget is
//! an immediate [`Response::Rejected`] with a drain-rate-derived retry
//! hint, never a block), and a fixed pool of **worker threads**. Workers
//! pop jobs earliest-deadline-first (expired work, or work too close to
//! expiry to finish by the service-time EWMA, is answered
//! [`Response::Expired`] unexecuted), resolve the plan through the shared
//! [`PlanCache`], execute on a long-lived per-worker [`BackendWorkspace`]
//! and answer over the job's channel.
//!
//! **Drain** ([`ServerHandle::trigger_drain`], [`ServerHandle::join`] or
//! a `Shutdown` request) closes the queue: admission stops, workers
//! finish everything already queued, connection threads answer their
//! in-flight clients.

use crate::admission::{request_cost, LoadGauge};
use crate::cache::PlanCache;
use crate::net::{self, Screen, Service};
use crate::protocol::{
    is_work_request, write_shed, EstimateSpec, Request, Response, ServerErrorCode,
};
use crate::queue::{Bounded, Popped};
use crate::stats::ServeStats;
use mdgrape_sim::{simulate_run, MachineConfig, StepWorkload};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::{
    check_splitting, plan_backend, BackendConfigError, BackendKind, BackendParams,
    BackendWorkspace, LongRangeBackend, SpmeBackend, SpmeParams,
};
use tme_md::nve::NveSim;
use tme_md::water::{thermalize, water_box};
use tme_mesh::CoulombResult;
use tme_num::pool::Pool;

/// Server configuration; [`ServeConfig::default`] is sized for tests and
/// the load harness (ephemeral port, two workers).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads, each owning long-lived workspaces.
    pub workers: usize,
    /// Bounded request-queue capacity — the depth half of the
    /// backpressure knob (at most [`MAX_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// Admission cost budget ([`crate::admission::request_cost`] units)
    /// that may be queued or executing at once — the *work* half of the
    /// backpressure knob, so one paper-box compute cannot hide behind a
    /// single queue slot (at most [`MAX_COST_BUDGET`]).
    pub cost_budget: u64,
    /// Plans kept in the shared LRU cache.
    pub plan_cache_capacity: usize,
    /// Largest accepted atom count per compute request.
    pub max_atoms: usize,
    /// Upper bound (and cold-start fallback) for the retry hint sent
    /// with rejections; once the worker pool has measured a drain rate,
    /// the hint adapts to the outstanding work (DESIGN.md §16.4).
    pub retry_after_ms: u64,
    /// Service-time floor in microseconds (0 = off): a worker that
    /// finishes a work request early sleeps out the remainder before
    /// answering. This emulates the accelerator-offload wait of the
    /// target machine — on MDGRAPE-4A the host thread blocks on the
    /// pipelined SoC while it computes, so service time is offload-bound,
    /// not host-CPU-bound — which is what lets the cluster bench measure
    /// the *serving layer's* capacity scaling on a host with fewer cores
    /// than shards (at most [`MAX_MIN_SERVICE_US`]).
    pub min_service_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cost_budget: 32_768,
            plan_cache_capacity: 8,
            max_atoms: 50_000,
            retry_after_ms: 50,
            min_service_us: 0,
        }
    }
}

/// Hard ceiling on [`ServeConfig::min_service_us`] (one second): the
/// floor exists to emulate offload latency, and a worker asleep for
/// longer than any sane deadline is a misconfiguration.
pub const MAX_MIN_SERVICE_US: u64 = 1_000_000;

/// Hard ceiling on [`ServeConfig::queue_capacity`]: each slot can pin a
/// decoded request (up to a 16 MiB frame), so an absurd depth is a
/// misconfiguration, not a tuning choice.
pub const MAX_QUEUE_CAPACITY: usize = 65_536;

/// Hard ceiling on [`ServeConfig::cost_budget`]: far above any useful
/// budget (a paper-box compute prices ~12k units) while keeping
/// budget × queue arithmetic comfortably inside `u64`.
pub const MAX_COST_BUDGET: u64 = 1 << 40;

/// A nonsensical [`ServeConfig`] field, rejected by
/// [`ServeConfig::validate`] before any thread or socket exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever drain the queue.
    ZeroWorkers,
    /// `queue_capacity == 0`: every work request would be rejected.
    ZeroQueueCapacity,
    /// `queue_capacity` above [`MAX_QUEUE_CAPACITY`].
    QueueTooLarge { got: usize, max: usize },
    /// `cost_budget == 0`: admission could never succeed.
    ZeroCostBudget,
    /// `cost_budget` above [`MAX_COST_BUDGET`].
    CostBudgetTooLarge { got: u64, max: u64 },
    /// `plan_cache_capacity == 0`: every compute would re-plan.
    ZeroPlanCache,
    /// `max_atoms == 0`: every compute would fail validation.
    ZeroMaxAtoms,
    /// `retry_after_ms == 0`: rejected clients would retry immediately,
    /// defeating backpressure.
    ZeroRetryCap,
    /// `min_service_us` above [`MAX_MIN_SERVICE_US`].
    ServiceFloorTooLarge { got: u64, max: u64 },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroWorkers => write!(f, "workers must be at least 1"),
            Self::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            Self::QueueTooLarge { got, max } => {
                write!(f, "queue capacity {got} exceeds the maximum {max}")
            }
            Self::ZeroCostBudget => write!(f, "cost budget must be at least 1"),
            Self::CostBudgetTooLarge { got, max } => {
                write!(f, "cost budget {got} exceeds the maximum {max}")
            }
            Self::ZeroPlanCache => write!(f, "plan cache capacity must be at least 1"),
            Self::ZeroMaxAtoms => write!(f, "max atoms must be at least 1"),
            Self::ZeroRetryCap => write!(f, "retry-after cap must be at least 1 ms"),
            Self::ServiceFloorTooLarge { got, max } => {
                write!(f, "service floor {got} µs exceeds the maximum {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServeConfig {
    /// Reject nonsensical configurations (zeroes, absurd sizes) with a
    /// typed error before binding a socket or spawning a thread.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.queue_capacity > MAX_QUEUE_CAPACITY {
            return Err(ConfigError::QueueTooLarge {
                got: self.queue_capacity,
                max: MAX_QUEUE_CAPACITY,
            });
        }
        if self.cost_budget == 0 {
            return Err(ConfigError::ZeroCostBudget);
        }
        if self.cost_budget > MAX_COST_BUDGET {
            return Err(ConfigError::CostBudgetTooLarge {
                got: self.cost_budget,
                max: MAX_COST_BUDGET,
            });
        }
        if self.plan_cache_capacity == 0 {
            return Err(ConfigError::ZeroPlanCache);
        }
        if self.max_atoms == 0 {
            return Err(ConfigError::ZeroMaxAtoms);
        }
        if self.retry_after_ms == 0 {
            return Err(ConfigError::ZeroRetryCap);
        }
        if self.min_service_us > MAX_MIN_SERVICE_US {
            return Err(ConfigError::ServiceFloorTooLarge {
                got: self.min_service_us,
                max: MAX_MIN_SERVICE_US,
            });
        }
        Ok(())
    }
}

/// Why [`serve`] failed: a refused configuration, a bind or a spawn.
pub type ServeError = net::StartError<ConfigError>;

/// A work request in flight: the decoded request, when it was admitted,
/// its admission price, and the channel its connection thread is waiting
/// on.
struct Job {
    req: Request,
    enqueued: Instant,
    /// Admission cost reserved for this job; released exactly once when
    /// the job leaves the pipeline (completion, expiry, sweep, or a
    /// failed push).
    cost: u64,
    reply: SyncSender<Response>,
}

/// One server instance: the state its accept gate, connection threads
/// and workers share. Run it with [`serve`].
pub struct Server {
    queue: Bounded<Job>,
    /// Lock-free overload state: read by the accept and pre-decode gates,
    /// written by admission and the worker pool.
    gauge: LoadGauge,
    stats: Mutex<ServeStats>,
    plans: Mutex<PlanCache>,
    /// Set once by drain/shutdown; the network core polls it.
    shutdown: AtomicBool,
    cfg: ServeConfig,
}

/// A running server; see [`net::Handle`].
pub type ServerHandle = net::Handle<Server>;

impl Server {
    fn stats(&self) -> std::sync::MutexGuard<'_, ServeStats> {
        // Continue with the data after a holder panic (counters have no
        // multi-step invariants); avoids unwrap per lint L6.
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The standard refusal answer, priced off the live gauge: an
    /// adaptive retry hint plus enough load detail for the client to
    /// weight its backoff. Reads only lock-free state (the gauge and the
    /// queue's published depth) — the rejection path must never contend
    /// on the queue mutex the workers are draining through.
    fn rejection(&self) -> Response {
        Response::Rejected {
            retry_after_ms: self.gauge.retry_after_ms(),
            queue_depth: self.queue.depth() as u64,
            outstanding_cost: self.gauge.outstanding(),
            cost_budget: self.gauge.cost_budget(),
        }
    }
}

/// Start a server. The configuration is validated first
/// ([`ServeConfig::validate`]); returns once the listener is bound and
/// all worker threads are running.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
    cfg.validate().map_err(ServeError::Config)?;
    let addr = cfg.addr.clone();
    let server = Server {
        queue: Bounded::new(cfg.queue_capacity),
        gauge: LoadGauge::new(
            cfg.cost_budget,
            cfg.queue_capacity,
            cfg.workers,
            cfg.retry_after_ms,
        ),
        stats: Mutex::new(ServeStats::default()),
        plans: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
        shutdown: AtomicBool::new(false),
        cfg,
    };
    // The workers exit once the closed queue drains.
    let workers = (0..server.cfg.workers)
        .map(|w| (format!("tme-serve-worker-{w}"), worker_loop as fn(&Server)));
    net::start(&addr, server, workers)
}

impl Service for Server {
    type Stats = ServeStats;
    const NAME: &'static str = "tme-serve";

    /// A stats snapshot with the gauge's atomics and the queue high-water
    /// mark folded in — the one rendering every stats surface (wire
    /// `Stats`, [`ServerHandle::stats`], [`ServerHandle::join`]) goes
    /// through.
    fn snapshot(&self) -> ServeStats {
        let mut s = self.stats().clone();
        s.queue_max_depth = self.queue.max_depth() as u64;
        s.shed_connections = self.gauge.shed_connections();
        s.rejected_before_decode = self.gauge.rejected_before_decode_count();
        s.admitted_cost = self.gauge.admitted_cost();
        s.released_cost = self.gauge.released_cost();
        s.outstanding_cost = self.gauge.outstanding();
        s
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Layer 1: shed *before* spawning a thread or reading a byte. Under
    /// overload every new connection is surplus — refusing it here costs
    /// one atomic load and one byte. The short sleep paces the shed rate:
    /// surplus connections beyond it wait in the kernel's listen backlog,
    /// where they cost no CPU at all, instead of cycling
    /// connect→shed→reconnect as fast as the flood can drive them.
    fn admit(&self, mut stream: TcpStream) -> Option<TcpStream> {
        if !self.gauge.overloaded(self.queue.depth()) {
            return Some(stream);
        }
        // Best-effort: the peer may already be gone.
        let _ = write_shed(&mut stream);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        self.gauge.note_shed_connection();
        std::thread::sleep(Duration::from_millis(1));
        None
    }

    /// Layer 2: fast-reject work frames *before decode* while overloaded
    /// — a byte peek and a small fixed-size answer instead of body
    /// allocation and parse. Control frames (stats, shutdown) always
    /// pass: an operator must be able to observe and drain an overloaded
    /// server. These never became decoded requests, so they count in
    /// `rejected_before_decode`, not `received`. `fast_rejects` counts
    /// this connection's consecutive ones.
    fn screen(&self, payload: &[u8], fast_rejects: &mut u32) -> Screen {
        if !(is_work_request(payload) && self.gauge.overloaded(self.queue.depth())) {
            *fast_rejects = 0;
            return Screen::Pass;
        }
        self.gauge.note_rejected_before_decode();
        *fast_rejects += 1;
        if *fast_rejects >= FAST_REJECTS_BEFORE_SHED {
            // The client is flooding through rejections: stop answering,
            // shed, and make it reconnect through the accept gate.
            self.gauge.note_shed_connection();
            return Screen::Shed;
        }
        Screen::Answer(self.rejection())
    }

    fn note_protocol_error(&self) {
        self.stats().protocol_errors += 1;
    }

    fn note_received(&self, req: &Request) {
        let mut stats = self.stats();
        stats.received += 1;
        stats.kinds.bump(req);
    }

    fn work(&self, req: Request) -> Response {
        submit_and_wait(self, req)
    }
}

/// Consecutive pre-decode fast-rejects an established connection may
/// accumulate before the server stops answering and sheds it. A client
/// looping through rejections faster than it honors retry hints is, at
/// that point, load the server must not keep paying read/encode/write
/// cycles for — disconnecting forces it through reconnect (and the
/// accept-loop shed gate, which refuses with one byte before any frame
/// is read) instead. Two strikes: the first rejection carries the retry
/// hint a well-behaved client needs; a second arrival while the gate is
/// still latched means the hint is being ignored.
const FAST_REJECTS_BEFORE_SHED: u32 = 2;

/// Retire every already-expired queue entry: answer its blocked
/// connection thread `Expired` and return its admission cost. Run at
/// enqueue time (layer 3's sweep half) so doomed work never occupies a
/// slot a live request could use. The stats bump happens in the owning
/// connection thread's `rx.recv()` arm — the single place every queued
/// job's outcome is counted, so nothing double-counts.
fn sweep_expired_jobs(shared: &Server) {
    let mut swept: Vec<Job> = Vec::new();
    shared.queue.sweep_expired(Instant::now(), &mut swept);
    for job in swept {
        shared.gauge.release(job.cost);
        let resp = Response::Expired {
            waited_ms: elapsed_us(job.enqueued) / 1000,
            deadline_ms: job.req.deadline_ms(),
        };
        // A dead receiver (client hung up mid-wait) is fine.
        let _ = job.reply.send(resp);
    }
}

/// Admission control (layers 2½–3): price the decoded request, sweep
/// expired entries out of the queue, reserve cost-budget room, and slot
/// the job into the expiry-ordered queue — then block on its reply
/// channel. A full queue, exhausted budget, or closed (draining) queue
/// answers immediately with a rejection carrying the adaptive retry
/// hint — the connection thread never waits on a queue slot.
fn submit_and_wait(shared: &Server, req: Request) -> Response {
    let t_admit = Instant::now();
    // A draining server refuses work with `ShuttingDown`, not `Rejected`:
    // backpressure says "back off and retry here", but a drain says "this
    // server is going away — route elsewhere" (the router fails the shard
    // over on this answer; DESIGN.md §17.3). Counted as a rejection so
    // the every-decoded-request-answered ledger still balances.
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.stats().rejected += 1;
        return Response::ShuttingDown { drain: true };
    }
    let cost = request_cost(&req);
    sweep_expired_jobs(shared);
    if !shared.gauge.try_admit(cost) {
        shared.stats().rejected += 1;
        return shared.rejection();
    }
    let deadline_ms = req.deadline_ms();
    let expires_at = (deadline_ms > 0).then(|| t_admit + Duration::from_millis(deadline_ms));
    let (tx, rx) = sync_channel(1);
    let job = Job {
        req,
        enqueued: t_admit,
        cost,
        reply: tx,
    };
    match shared.queue.try_push(job, expires_at) {
        Err(_) => {
            shared.gauge.release(cost);
            shared.stats().rejected += 1;
            shared.rejection()
        }
        Ok(()) => match rx.recv() {
            Ok(resp) => {
                let mut stats = shared.stats();
                stats.latency.record(elapsed_us(t_admit));
                match &resp {
                    Response::Expired { .. } => stats.expired += 1,
                    Response::ServerError { .. } => stats.server_errors += 1,
                    _ => stats.completed += 1,
                }
                resp
            }
            // Worker dropped the channel without answering (panicked).
            Err(_) => {
                shared.stats().server_errors += 1;
                Response::ServerError {
                    code: ServerErrorCode::Internal,
                    message: "worker failed to answer".to_string(),
                }
            }
        },
    }
}

/// Per-worker workspace LRU size: workspaces are the big allocations
/// (every grid of the cascade), so keep only a few per worker.
const WORKSPACES_PER_WORKER: usize = 4;

/// One worker: long-lived workspaces, single-threaded execute pool (the
/// service parallelism is across workers, not within a request). Pops in
/// earliest-deadline-first order; hard-expired entries come back
/// pre-tagged by the queue and are answered unexecuted, and entries too
/// close to expiry to plausibly finish (by the drain-rate EWMA) are
/// dropped the same way — a worker must never burn service time on a
/// result nobody can use (layer 3's dequeue half).
fn worker_loop(shared: &Server) {
    let pool = Arc::new(Pool::new(1));
    let machine = MachineConfig::mdgrape4a();
    let mut workspaces: Vec<(Arc<dyn LongRangeBackend>, BackendWorkspace)> = Vec::new();
    // Reusable result buffer: `compute_into` resets it per call, so a
    // warm worker serves repeat shapes without fresh result allocations.
    let mut scratch = CoulombResult::zeros(0);
    while let Some(popped) = shared.queue.pop() {
        let (job, hard_expired) = match popped {
            Popped::Expired(job) => (job, true),
            Popped::Ready(job) => (job, false),
        };
        let waited_us = elapsed_us(job.enqueued);
        shared.stats().queue_wait.record(waited_us);
        let deadline_ms = job.req.deadline_ms();
        let near_expiry = !hard_expired && deadline_ms > 0 && {
            let remaining_us = deadline_ms.saturating_mul(1000).saturating_sub(waited_us);
            let estimated_us = shared.gauge.estimated_service_us(job.cost);
            estimated_us > 0 && remaining_us < estimated_us
        };
        let resp = if hard_expired || near_expiry {
            Response::Expired {
                waited_ms: waited_us / 1000,
                deadline_ms,
            }
        } else {
            let t_exec = Instant::now();
            let resp = execute(
                shared,
                &pool,
                &machine,
                &mut workspaces,
                &mut scratch,
                &job.req,
            );
            // Service-time floor (offload-wait emulation): sleep out the
            // remainder *before* noting completion, so the drain-rate
            // EWMA — and every retry hint derived from it — prices the
            // floored service time the clients actually experience.
            let floor_us = shared.cfg.min_service_us;
            if floor_us > 0 {
                let spent = elapsed_us(t_exec);
                if spent < floor_us {
                    std::thread::sleep(Duration::from_micros(floor_us - spent));
                }
            }
            shared.gauge.note_completion(job.cost, elapsed_us(t_exec));
            resp
        };
        shared.gauge.release(job.cost);
        // A dead receiver (client hung up mid-wait) is not a worker error.
        let _ = job.reply.send(resp);
    }
}

fn execute(
    shared: &Server,
    pool: &Arc<Pool>,
    machine: &MachineConfig,
    workspaces: &mut Vec<(Arc<dyn LongRangeBackend>, BackendWorkspace)>,
    scratch: &mut CoulombResult,
    req: &Request,
) -> Response {
    match req {
        Request::Compute {
            params,
            box_l,
            pos,
            q,
            ..
        } => compute_request(shared, pool, workspaces, scratch, params, *box_l, pos, q),
        Request::NveRun {
            waters,
            seed,
            steps,
            dt,
            r_cut,
            ..
        } => nve_request(*waters, *seed, *steps, *dt, *r_cut),
        Request::Estimate { spec, .. } => estimate_request(machine, spec),
        // A router-relayed request executes as its wrapped work request.
        // Decode guarantees the inner is plain work (never another
        // Forwarded or a control frame), so this recursion is depth one;
        // the outer deadline already governed expiry in the queue.
        Request::Forwarded { inner, .. } => {
            execute(shared, pool, machine, workspaces, scratch, inner)
        }
        // Control requests never reach the queue.
        Request::Stats | Request::Shutdown { .. } => Response::ServerError {
            code: ServerErrorCode::Internal,
            message: "control request routed to a worker".to_string(),
        },
    }
}

fn bad_request(message: String) -> Response {
    Response::ServerError {
        code: ServerErrorCode::BadRequest,
        message,
    }
}

/// Validate a compute configuration *before* planning: `plan_backend`
/// checks mathematical consistency, but a hostile or buggy client could
/// request a grid that allocates gigabytes before any check fires. These
/// bounds mirror the hardware envelope (§V.A); the finer per-backend
/// rules (order/splitting/shape validity) are `plan_backend`'s job and
/// surface as `BadRequest` through its typed error.
fn validate_compute(
    params: &BackendParams,
    box_l: [f64; 3],
    n_atoms: usize,
    q_len: usize,
    max_atoms: usize,
) -> Result<(), String> {
    if n_atoms != q_len {
        return Err(format!("{n_atoms} positions but {q_len} charges"));
    }
    if n_atoms == 0 || n_atoms > max_atoms {
        return Err(format!(
            "atom count {n_atoms} outside the accepted range 1..={max_atoms}"
        ));
    }
    let cascade = match params {
        BackendParams::Tme(p) => Some((p.levels, p.gc, p.m_gaussians)),
        BackendParams::Ewald(p) => {
            // The reciprocal sum is O(N·n_cut³); bound it like the grids.
            if !(1..=64).contains(&p.n_cut) {
                return Err(format!("Ewald n_cut {} outside 1..=64", p.n_cut));
            }
            None
        }
        BackendParams::Spme(_) | BackendParams::SpmePswf(_) | BackendParams::Slab(_) => None,
    };
    if let Some(n) = params.grid() {
        check_envelope(n, cascade)?;
    }
    if !box_l.iter().all(|l| l.is_finite() && *l > 0.0) {
        return Err(format!("box {box_l:?} must be finite and positive"));
    }
    Ok(())
}

/// The hardware envelope (§V.A) `Compute` and `Estimate` both enforce:
/// every grid dimension a power of two in 8..=128 and, for a TME
/// cascade `(levels, g_c, M)`, levels 1..=4, `g_c` 1..=16 and `M` 1..=8.
fn check_envelope(grid: [usize; 3], cascade: Option<(u32, usize, usize)>) -> Result<(), String> {
    for d in grid {
        if !(8..=128).contains(&d) || !d.is_power_of_two() {
            return Err(format!("grid dimension {d} not a power of two in 8..=128"));
        }
    }
    if let Some((levels, gc, m_gaussians)) = cascade {
        if !(1..=4).contains(&levels) {
            return Err(format!("levels {levels} outside 1..=4"));
        }
        if !(1..=16).contains(&gc) {
            return Err(format!("grid cutoff {gc} outside 1..=16"));
        }
        if !(1..=8).contains(&m_gaussians) {
            return Err(format!("gaussians {m_gaussians} outside 1..=8"));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn compute_request(
    shared: &Server,
    pool: &Arc<Pool>,
    workspaces: &mut Vec<(Arc<dyn LongRangeBackend>, BackendWorkspace)>,
    scratch: &mut CoulombResult,
    params: &BackendParams,
    box_l: [f64; 3],
    pos: &[[f64; 3]],
    q: &[f64],
) -> Response {
    if let Err(msg) = validate_compute(params, box_l, pos.len(), q.len(), shared.cfg.max_atoms) {
        return bad_request(msg);
    }
    let built = shared
        .plans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_or_try_build(params, box_l, || plan_backend(params, box_l));
    let (plan, cache_hit) = match built {
        Ok(pair) => pair,
        Err(e) => {
            return bad_request(format!(
                "invalid {} configuration: {e}",
                params.kind().name()
            ))
        }
    };
    {
        let mut stats = shared.stats();
        if cache_hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
    }
    // Per-worker workspace LRU tied to the plan *instance* (`Arc`
    // identity, not the fingerprint): a repeat config reuses its buffers
    // (the zero-alloc steady state), while a crafted fingerprint
    // collision — two configs, one key — can never pair a plan with a
    // workspace sized for a different one.
    let ws = match workspaces.iter().position(|(p, _)| Arc::ptr_eq(p, &plan)) {
        Some(i) => {
            let entry = workspaces.remove(i);
            workspaces.insert(0, entry);
            &mut workspaces[0].1
        }
        None => {
            if workspaces.len() >= WORKSPACES_PER_WORKER {
                workspaces.pop();
            }
            let ws = plan.make_workspace_with_pool(Arc::clone(pool));
            workspaces.insert(0, (Arc::clone(&plan), ws));
            &mut workspaces[0].1
        }
    };
    // Validation guaranteed pos/q agree, so the struct literal upholds
    // CoulombSystem's invariants without the panicking constructor.
    let system = tme_mesh::CoulombSystem {
        pos: pos.to_vec(),
        q: q.to_vec(),
        box_l,
    };
    match plan.compute_into(&system, ws, scratch) {
        Ok(stats) => {
            if stats.tme.is_some() {
                shared.stats().last_tme = stats.tme;
            }
            Response::Computed {
                energy: scratch.energy,
                cache_hit,
                forces: scratch.forces.clone(),
                potentials: scratch.potentials.clone(),
            }
        }
        Err(e) => Response::ServerError {
            code: ServerErrorCode::SolverFault,
            message: e.to_string(),
        },
    }
}

fn nve_request(waters: u64, seed: u64, steps: u64, dt: f64, r_cut: f64) -> Response {
    if !(8..=512).contains(&waters) {
        return bad_request(format!("waters {waters} outside 8..=512"));
    }
    if !(1..=1000).contains(&steps) {
        return bad_request(format!("steps {steps} outside 1..=1000"));
    }
    if !(dt.is_finite() && dt > 0.0 && dt <= 0.005) {
        return bad_request(format!("dt {dt} outside (0, 0.005] ps"));
    }
    if !(r_cut.is_finite() && r_cut > 0.0) {
        return bad_request(format!("r_cut {r_cut} must be positive and finite"));
    }
    let mut sys = water_box(waters as usize, seed);
    thermalize(&mut sys, 300.0, seed ^ 0x5EED);
    // `NveSim::new` asserts the half-box minimum-image bound
    // r_cut ≤ min_edge/2, and a failed assert would take down the worker;
    // clamp with a margin below it.
    let min_edge = sys.box_l[0].min(sys.box_l[1]).min(sys.box_l[2]);
    let r_cut = r_cut.min(0.45 * min_edge);
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let spme = match SpmeBackend::new(
        SpmeParams {
            n: [16; 3],
            p: 6,
            alpha,
            r_cut,
        },
        sys.box_l,
    ) {
        Ok(plan) => plan,
        Err(e) => {
            return Response::ServerError {
                code: ServerErrorCode::Internal,
                message: format!("server-side SPME plan failed: {e}"),
            }
        }
    };
    let mut sim = NveSim::new(sys, &spme, dt, r_cut);
    let steps = steps as usize;
    let records = sim.run(steps, (steps / 10).max(1));
    // `run` stops at the first faulted step; its records are a prefix of
    // a run that did not happen.
    if let Some(e) = sim.last_error() {
        return Response::ServerError {
            code: ServerErrorCode::SolverFault,
            message: format!("NVE run stopped: {e}"),
        };
    }
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Response::ServerError {
            code: ServerErrorCode::Internal,
            message: "NVE run produced no energy records".to_string(),
        };
    };
    Response::NveDone {
        steps: steps as u64,
        first_total: first.total,
        last_total: last.total,
        drift: (last.total - first.total).abs() / first.total.abs().max(1.0),
        temperature: last.temperature,
    }
}

fn estimate_request(machine: &MachineConfig, spec: &EstimateSpec) -> Response {
    // The discrete-event model schedules the machine's TME pipeline; no
    // other backend has a machine to time.
    if spec.backend != BackendKind::Tme {
        return bad_request(format!(
            "estimates model the TME pipeline only, not {}",
            spec.backend.name()
        ));
    }
    if !(1..=1_000_000_000).contains(&spec.n_atoms) {
        return bad_request(format!("n_atoms {} outside 1..=1e9", spec.n_atoms));
    }
    if !(1..=10_000).contains(&spec.steps) {
        return bad_request(format!("steps {} outside 1..=10000", spec.steps));
    }
    let wide = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
    let (grid, gc, m_gaussians) = (wide(spec.grid), wide(spec.gc), wide(spec.m_gaussians));
    if let Err(msg) = check_envelope([grid; 3], Some((spec.levels, gc, m_gaussians))) {
        return bad_request(msg);
    }
    // Price only what Compute would plan: the TME on the LRU's p = 6
    // spline at the paper's splitting, held to the planner's own rules
    // without building the plan.
    let params = TmeParams {
        n: [grid; 3],
        p: 6,
        levels: spec.levels,
        gc,
        m_gaussians,
        alpha: alpha_from_rtol(spec.r_cut, 1e-4),
        r_cut: spec.r_cut,
    };
    let planned = params
        .validate()
        .map_err(BackendConfigError::from)
        .and_then(|()| check_splitting(spec.box_l, params.alpha, params.r_cut));
    if let Err(e) = planned {
        return bad_request(format!("unplannable TME configuration: {e}"));
    }
    let workload = StepWorkload {
        n_atoms: spec.n_atoms as usize,
        grid,
        levels: spec.levels,
        gc,
        m_gaussians,
        r_cut: spec.r_cut,
        box_l: spec.box_l,
        ..StepWorkload::paper_fig9()
    };
    let report = simulate_run(machine, &workload, spec.steps as usize);
    Response::Estimated {
        steps: spec.steps,
        mean_us: report.mean(),
        max_us: report.max(),
        report: report.to_string(),
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use tme_reference::ewald::EwaldParams;

    fn tiny_params() -> TmeParams {
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: alpha_from_rtol(1.0, 1e-4),
            r_cut: 1.0,
        }
    }

    /// The four periodic backends on [`tiny_params`]' mesh and splitting.
    fn periodic_backends() -> [BackendParams; 4] {
        use tme_md::backend::PswfParams;
        let t = tiny_params();
        let (n, alpha, r_cut) = (t.n, t.alpha, t.r_cut);
        [
            BackendParams::Tme(t),
            BackendParams::Spme(SpmeParams {
                n,
                p: 6,
                alpha,
                r_cut,
            }),
            BackendParams::SpmePswf(PswfParams {
                n,
                p: 8,
                alpha,
                r_cut,
                shape: 0.0,
            }),
            BackendParams::Ewald(EwaldParams {
                alpha,
                r_cut,
                n_cut: 8,
            }),
        ]
    }

    fn dipole_request(deadline_ms: u64) -> Request {
        Request::Compute {
            deadline_ms,
            params: BackendParams::Tme(tiny_params()),
            box_l: [4.0; 3],
            pos: vec![[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
            q: vec![1.0, -1.0],
        }
    }

    /// The stats JSON gains its `last_tme` object with the first TME
    /// evaluation: the work counters and per-stage times of that call.
    #[test]
    fn stats_json_carries_last_tme_after_a_tme_compute() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let Response::Stats { json } = client.call(&Request::Stats)? else {
            return Err("expected Stats response".into());
        };
        assert!(!json.contains("last_tme"), "no TME has run yet: {json}");
        let resp = client.call(&dipole_request(0))?;
        assert!(matches!(resp, Response::Computed { .. }), "got {resp:?}");
        let Response::Stats { json } = client.call(&Request::Stats)? else {
            return Err("expected Stats response".into());
        };
        // One level of the 16³ tiny plan: an 8³ top grid.
        assert!(json.contains("\"last_tme\": {"), "stats json: {json}");
        assert!(json.contains("\"top_points\": 512"), "stats json: {json}");
        assert!(
            json.contains("\"stages_us\": {\"assign\": "),
            "stats json: {json}"
        );
        handle.trigger_drain();
        let stats = handle.join();
        assert!(stats.last_tme.is_some_and(|t| t.convolution.madds > 0));
        Ok(())
    }

    #[test]
    fn end_to_end_compute_with_cache_hit_and_drain() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        // First request plans (miss), second reuses (hit) — and both
        // return the identical energy (cache hits cannot change results).
        let first = client.call(&dipole_request(0))?;
        let second = client.call(&dipole_request(0))?;
        let (
            Response::Computed {
                energy: e1,
                cache_hit: h1,
                ..
            },
            Response::Computed {
                energy: e2,
                cache_hit: h2,
                ..
            },
        ) = (first, second)
        else {
            return Err("expected Computed responses".into());
        };
        assert!(!h1 && h2, "second identical config must hit the cache");
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert!(e1 < 0.0, "opposite charges attract");
        // Stats are queryable over the wire.
        let Response::Stats { json } = client.call(&Request::Stats)? else {
            return Err("expected Stats response".into());
        };
        assert!(json.contains("\"cache_hits\": 1"), "stats json: {json}");
        // Bad configuration → typed server error, connection stays up.
        let mut bad = tiny_params();
        bad.n = [24; 3];
        let resp = client.call(&Request::Compute {
            deadline_ms: 0,
            params: BackendParams::Tme(bad),
            box_l: [4.0; 3],
            pos: vec![[1.0; 3]],
            q: vec![0.0],
        })?;
        assert!(
            matches!(
                resp,
                Response::ServerError {
                    code: ServerErrorCode::BadRequest,
                    ..
                }
            ),
            "got {resp:?}"
        );
        // Drain via the wire.
        let resp = client.call(&Request::Shutdown { drain: true })?;
        assert_eq!(resp, Response::ShuttingDown { drain: true });
        let stats = handle.join();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.server_errors, 1);
        assert_eq!(stats.protocol_errors, 0);
        Ok(())
    }

    #[test]
    fn per_plan_backend_choice_with_bitwise_cache_hits() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let mut energies = Vec::new();
        for params in periodic_backends() {
            let request = Request::Compute {
                deadline_ms: 0,
                params,
                box_l: [4.0; 3],
                pos: vec![[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
                q: vec![1.0, -1.0],
            };
            let first = client.call(&request)?;
            let second = client.call(&request)?;
            let (
                Response::Computed {
                    energy: e1,
                    cache_hit: h1,
                    ..
                },
                Response::Computed {
                    energy: e2,
                    cache_hit: h2,
                    ..
                },
            ) = (first, second)
            else {
                return Err(format!("expected Computed for {params:?}").into());
            };
            assert!(
                !h1 && h2,
                "{params:?}: plan must miss then hit its own cache entry"
            );
            assert_eq!(
                e1.to_bits(),
                e2.to_bits(),
                "{params:?}: cache hit changed the energy bits"
            );
            assert!(e1.is_finite() && e1 < 0.0, "{params:?}: energy {e1}");
            energies.push(e1);
        }
        // Same splitting, same system: every backend agrees on the
        // physics to mesh accuracy (the cross-backend oracle suite pins
        // this much tighter per backend).
        for (i, e) in energies.iter().enumerate() {
            assert!(
                (e - energies[0]).abs() <= 2e-2 * energies[0].abs(),
                "backend {i} energy {e} far from TME {}",
                energies[0]
            );
        }
        handle.trigger_drain();
        handle.join();
        Ok(())
    }

    /// Hostile plan parameters (NaN cutoff, cutoff past the minimum-image
    /// bound — including the slab's *real*-box bound — and the spline
    /// orders `BSpline::new` asserts on) must come back as `BadRequest`,
    /// and the worker must survive to serve the next request: a panic here
    /// would permanently kill it, holding the plan-cache lock.
    #[test]
    fn hostile_cutoffs_are_rejected_and_workers_survive() -> Result<(), Box<dyn std::error::Error>>
    {
        use tme_md::backend::SlabParams;
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let mut nan_cut = tiny_params();
        nan_cut.r_cut = f64::NAN;
        let mut half_box = tiny_params();
        half_box.r_cut = 2.5; // > min(box)/2 = 2.0
        let bad_order = |p| TmeParams { p, ..tiny_params() };
        let mut hostile = vec![
            (BackendParams::Tme(nan_cut), [4.0; 3]),
            (BackendParams::Tme(half_box), [4.0; 3]),
            // Slab real box [4, 4, 2]: extended box is [4, 4, 6], so
            // r_cut = 1.4 passes the extended bound (≤ 2.0) but violates
            // the real-box minimum image (> 1.0) on the execute path.
            (
                BackendParams::Slab(SlabParams {
                    n: [16, 16, 64],
                    p: 6,
                    alpha: 2.0,
                    r_cut: 1.4,
                    gamma_top: 0.0,
                    gamma_bot: 0.0,
                    n_images: 0,
                }),
                [4.0, 4.0, 2.0],
            ),
        ];
        for p in [0, 5, 14] {
            hostile.push((BackendParams::Tme(bad_order(p)), [4.0; 3]));
        }
        for (params, box_l) in hostile {
            let resp = client.call(&Request::Compute {
                deadline_ms: 0,
                params,
                box_l,
                pos: vec![[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
                q: vec![1.0, -1.0],
            })?;
            assert!(
                matches!(
                    resp,
                    Response::ServerError {
                        code: ServerErrorCode::BadRequest,
                        ..
                    }
                ),
                "{params:?} in {box_l:?}: got {resp:?}"
            );
        }
        // The single worker is still alive and computes.
        let resp = client.call(&dipole_request(0))?;
        assert!(
            matches!(resp, Response::Computed { .. }),
            "worker died: {resp:?}"
        );
        handle.trigger_drain();
        handle.join();
        Ok(())
    }

    /// Hostile *coordinates* — NaN, +∞, the nominally finite 1e300 — are
    /// a typed `SolverFault` from every servable backend: never
    /// `Computed { energy: NaN }`, never a debug assertion in the cell
    /// binning that kills the one worker. The next request on the same
    /// connection computes.
    #[test]
    fn hostile_coordinates_are_solver_faults_and_workers_survive(
    ) -> Result<(), Box<dyn std::error::Error>> {
        use tme_md::backend::SlabParams;
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let slab = BackendParams::Slab(SlabParams {
            n: [16, 16, 64],
            p: 6,
            alpha: tiny_params().alpha,
            r_cut: tiny_params().r_cut,
            gamma_top: -1.0,
            gamma_bot: 0.0,
            n_images: 1,
        });
        for params in periodic_backends().into_iter().chain([slab]) {
            for bad in [f64::NAN, f64::INFINITY, 1e300] {
                let resp = client.call(&Request::Compute {
                    deadline_ms: 0,
                    params,
                    box_l: [4.0; 3],
                    pos: vec![[1.0, 1.0, 1.0], [2.5, bad, 1.0]],
                    q: vec![1.0, -1.0],
                })?;
                assert!(
                    matches!(
                        resp,
                        Response::ServerError {
                            code: ServerErrorCode::SolverFault,
                            ..
                        }
                    ),
                    "{params:?} with coordinate {bad}: got {resp:?}"
                );
                let resp = client.call(&dipole_request(0))?;
                assert!(
                    matches!(resp, Response::Computed { .. }),
                    "worker died after {params:?} with coordinate {bad}: {resp:?}"
                );
            }
        }
        handle.trigger_drain();
        handle.join();
        Ok(())
    }

    /// `Estimate` enforces the envelope `Compute` does: a `g_c` or `M`
    /// outside it is a `BadRequest`, not the price of the nearest bound.
    #[test]
    fn estimate_rejects_what_compute_rejects() {
        let machine = MachineConfig::mdgrape4a();
        let spec = EstimateSpec {
            backend: BackendKind::Tme,
            n_atoms: 1_000,
            grid: 16,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            r_cut: 1.0,
            box_l: [4.0; 3],
            steps: 1,
        };
        let resp = estimate_request(&machine, &spec);
        assert!(matches!(resp, Response::Estimated { .. }), "got {resp:?}");
        let out_of_range = [(0, 4), (17, 4), (40, 4), (8, 0), (8, 9)];
        for (gc, m_gaussians) in out_of_range {
            let resp = estimate_request(
                &machine,
                &EstimateSpec {
                    gc,
                    m_gaussians,
                    ..spec
                },
            );
            assert!(
                matches!(
                    resp,
                    Response::ServerError {
                        code: ServerErrorCode::BadRequest,
                        ..
                    }
                ),
                "g_c {gc}, M {m_gaussians}: got {resp:?}"
            );
            let params = BackendParams::Tme(TmeParams {
                gc: gc as usize,
                m_gaussians: m_gaussians as usize,
                ..tiny_params()
            });
            assert!(validate_compute(&params, [4.0; 3], 1, 1, 10).is_err());
        }
        // Inside the envelope but no top grid for a p = 6 spline: 8 >> 4
        // leaves nothing, 16 >> 2 leaves 4 < 6. Past the half-box bound:
        // r_c 2.5 and 10 nm in the 4 nm box. Planning refuses all four.
        let unplannable = [(8, 4, 1.0), (16, 2, 1.0), (16, 1, 2.5), (16, 1, 10.0)];
        for (grid, levels, r_cut) in unplannable {
            let resp = estimate_request(
                &machine,
                &EstimateSpec {
                    grid,
                    levels,
                    r_cut,
                    steps: 2,
                    ..spec
                },
            );
            assert!(
                matches!(
                    resp,
                    Response::ServerError {
                        code: ServerErrorCode::BadRequest,
                        ..
                    }
                ),
                "grid {grid}, L {levels}, r_c {r_cut}: got {resp:?}"
            );
            let params = TmeParams {
                n: [grid as usize; 3],
                levels,
                alpha: alpha_from_rtol(r_cut, 1e-4),
                r_cut,
                ..tiny_params()
            };
            assert!(plan_backend(&BackendParams::Tme(params), [4.0; 3]).is_err());
        }
    }

    /// The simulator schedules the TME pipeline only: a TME estimate is
    /// the simulated run's own mean and max, bit for bit, and any other
    /// backend a `BadRequest` naming it.
    #[test]
    fn estimate_answers_only_the_tme() {
        let machine = MachineConfig::mdgrape4a();
        let spec = EstimateSpec {
            backend: BackendKind::Tme,
            n_atoms: 80_540,
            grid: 32,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            r_cut: 1.2,
            box_l: [9.7, 8.3, 10.6],
            steps: 3,
        };
        // The spec describes the Fig. 9 workload.
        let run = simulate_run(&machine, &StepWorkload::paper_fig9(), 3);
        match estimate_request(&machine, &spec) {
            Response::Estimated {
                steps,
                mean_us,
                max_us,
                report,
            } => {
                assert_eq!(steps, 3);
                assert_eq!(mean_us.to_bits(), run.mean().to_bits());
                assert_eq!(max_us.to_bits(), run.max().to_bits());
                assert_eq!(report, run.to_string());
            }
            other => panic!("TME: got {other:?}"),
        }
        for backend in [
            BackendKind::Spme,
            BackendKind::SpmePswf,
            BackendKind::Ewald,
            BackendKind::Slab,
            BackendKind::Cutoff,
        ] {
            match estimate_request(&machine, &EstimateSpec { backend, ..spec }) {
                Response::ServerError {
                    code: ServerErrorCode::BadRequest,
                    message,
                } => assert!(message.contains(backend.name()), "{message}"),
                other => panic!("{}: got {other:?}", backend.name()),
            }
        }
    }

    #[test]
    fn estimate_and_nve_round_trip() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let resp = client.call(&Request::Estimate {
            deadline_ms: 0,
            spec: EstimateSpec {
                backend: BackendKind::Tme,
                n_atoms: 80_540,
                grid: 32,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.2,
                box_l: [9.7, 8.3, 10.6],
                steps: 5,
            },
        })?;
        let Response::Estimated {
            steps,
            mean_us,
            report,
            ..
        } = resp
        else {
            return Err(format!("expected Estimated, got {resp:?}").into());
        };
        assert_eq!(steps, 5);
        assert!(mean_us > 0.0);
        assert!(report.contains("5 steps"), "report: {report}");
        let resp = client.call(&Request::NveRun {
            deadline_ms: 0,
            waters: 27,
            seed: 7,
            steps: 5,
            dt: 0.001,
            r_cut: 0.45,
        })?;
        let Response::NveDone { steps, drift, .. } = resp else {
            return Err(format!("expected NveDone, got {resp:?}").into());
        };
        assert_eq!(steps, 5);
        assert!(drift.is_finite());
        handle.trigger_drain();
        handle.join();
        Ok(())
    }

    /// A valid `NveRun` whose trajectory faults mid-run is a `SolverFault`
    /// naming the fault, not an `NveDone` reporting steps that never ran.
    /// Here r_c 0.1 nm cuts off the O–O Lennard-Jones repulsion (σ ≈
    /// 0.315 nm), molecules run into each other, and an atom leaves the
    /// solver's range within the first hundred steps. The worker
    /// survives.
    #[test]
    fn faulted_nve_run_is_a_solver_fault() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let resp = client.call(&Request::NveRun {
            deadline_ms: 0,
            waters: 64,
            seed: 7,
            steps: 1000,
            dt: 0.002,
            r_cut: 0.1,
        })?;
        let Response::ServerError {
            code: ServerErrorCode::SolverFault,
            message,
        } = resp
        else {
            return Err(format!("expected SolverFault, got {resp:?}").into());
        };
        assert!(message.contains("non-finite"), "message: {message}");
        let resp = client.call(&dipole_request(0))?;
        assert!(
            matches!(resp, Response::Computed { .. }),
            "worker died: {resp:?}"
        );
        handle.trigger_drain();
        handle.join();
        Ok(())
    }

    #[test]
    fn forwarded_requests_execute_as_their_inner_work() -> Result<(), Box<dyn std::error::Error>> {
        let handle = serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        // A direct compute and the same compute arriving through a
        // router hop must produce bit-identical energies, and the
        // forwarded repeat must hit the plan cache entry the direct
        // request planted (the affinity property the router relies on).
        let direct = client.call(&dipole_request(0))?;
        let forwarded = client.call(&Request::Forwarded {
            tenant: 42,
            deadline_ms: 0,
            inner: Box::new(dipole_request(0)),
        })?;
        let (
            Response::Computed { energy: e1, .. },
            Response::Computed {
                energy: e2,
                cache_hit,
                ..
            },
        ) = (direct, forwarded)
        else {
            return Err("expected Computed responses".into());
        };
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert!(cache_hit, "forwarded repeat must hit the plan cache");
        handle.trigger_drain();
        let stats = handle.join();
        assert_eq!(stats.kinds.forwarded, 1);
        assert_eq!(stats.kinds.compute, 1);
        assert_eq!(stats.completed, 2);
        Ok(())
    }

    #[test]
    fn service_floor_pads_fast_requests() -> Result<(), Box<dyn std::error::Error>> {
        let floor_us = 50_000;
        let handle = serve(ServeConfig {
            workers: 1,
            min_service_us: floor_us,
            ..ServeConfig::default()
        })?;
        let mut client = Client::connect(handle.local_addr())?;
        let t0 = Instant::now();
        let resp = client.call(&dipole_request(0))?;
        let elapsed = elapsed_us(t0);
        assert!(matches!(resp, Response::Computed { .. }));
        assert!(
            elapsed >= floor_us,
            "floored service answered in {elapsed} µs < {floor_us} µs floor"
        );
        handle.trigger_drain();
        handle.join();
        // And an absurd floor is a startup error, not a wedged fleet.
        let bad = ServeConfig {
            min_service_us: MAX_MIN_SERVICE_US + 1,
            ..ServeConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::ServiceFloorTooLarge { .. })
        ));
        Ok(())
    }

    #[test]
    fn zero_capacity_queue_rejects_with_retry_hint() -> Result<(), Box<dyn std::error::Error>> {
        // Capacity 1 with a worker wedged on a slow request: the second
        // and third concurrent submissions see a full queue.
        let handle = serve(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 25,
            ..ServeConfig::default()
        })?;
        let addr = handle.local_addr();
        // Wedge: an estimate over many steps takes long enough to hold
        // the single worker while the flood arrives.
        let slow = Request::Estimate {
            deadline_ms: 0,
            spec: EstimateSpec {
                backend: BackendKind::Tme,
                n_atoms: 80_540,
                grid: 32,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.2,
                box_l: [9.7, 8.3, 10.6],
                steps: 2000,
            },
        };
        let mut clients: Vec<std::thread::JoinHandle<bool>> = Vec::new();
        for _ in 0..6 {
            let slow = slow.clone();
            clients.push(std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr) else {
                    return false;
                };
                // The hint is adaptive but clamped to [1, cap] — and the
                // rejection carries the cost-budget picture.
                matches!(
                    c.call(&slow),
                    Ok(Response::Rejected {
                        retry_after_ms: 1..=25,
                        cost_budget,
                        ..
                    }) if cost_budget > 0
                )
            }));
        }
        let rejected = clients
            .into_iter()
            .filter_map(|t| t.join().ok())
            .filter(|&r| r)
            .count();
        assert!(
            rejected >= 1,
            "with capacity 1 and six concurrent slow requests, at least one must be rejected"
        );
        handle.trigger_drain();
        let stats = handle.join();
        // Refusals land either post-decode (`rejected`) or on the
        // pre-decode fast path once the queue reads full
        // (`rejected_before_decode`) — both answer the client `Rejected`.
        assert!(stats.rejected + stats.rejected_before_decode >= 1);
        assert!(stats.queue_max_depth <= 1, "queue must stay bounded");
        assert_eq!(
            stats.outstanding_cost, 0,
            "every admitted cost unit must be released after drain"
        );
        assert_eq!(stats.admitted_cost, stats.released_cost);
        Ok(())
    }

    #[test]
    fn nonsensical_configs_are_rejected_at_startup() {
        let cases: [(ServeConfig, ConfigError); 6] = [
            (
                ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroWorkers,
            ),
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroQueueCapacity,
            ),
            (
                ServeConfig {
                    queue_capacity: MAX_QUEUE_CAPACITY + 1,
                    ..ServeConfig::default()
                },
                ConfigError::QueueTooLarge {
                    got: MAX_QUEUE_CAPACITY + 1,
                    max: MAX_QUEUE_CAPACITY,
                },
            ),
            (
                ServeConfig {
                    cost_budget: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroCostBudget,
            ),
            (
                ServeConfig {
                    cost_budget: MAX_COST_BUDGET + 1,
                    ..ServeConfig::default()
                },
                ConfigError::CostBudgetTooLarge {
                    got: MAX_COST_BUDGET + 1,
                    max: MAX_COST_BUDGET,
                },
            ),
            (
                ServeConfig {
                    retry_after_ms: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroRetryCap,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
            // serve() refuses before binding anything.
            match serve(cfg) {
                Err(ServeError::Config(got)) => assert_eq!(got, want),
                Err(other) => panic!("expected Config({want:?}), got {other:?}"),
                Ok(_) => panic!("expected Config({want:?}), got a running server"),
            }
        }
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn queued_deadline_expires_unexecuted() {
        // Unit-level: a job whose deadline already passed is answered
        // Expired by the worker without executing, and its admission
        // cost is returned to the budget.
        let cfg = ServeConfig::default();
        let shared = Server {
            queue: Bounded::new(4),
            gauge: LoadGauge::new(cfg.cost_budget, 4, 1, cfg.retry_after_ms),
            stats: Mutex::new(ServeStats::default()),
            plans: Mutex::new(PlanCache::new(2)),
            shutdown: AtomicBool::new(false),
            cfg,
        };
        let (tx, rx) = sync_channel(1);
        let req = dipole_request(1); // 1 ms deadline
        let cost = request_cost(&req);
        assert!(shared.gauge.try_admit(cost));
        let enqueued = Instant::now() - Duration::from_millis(50);
        let job = Job {
            req,
            enqueued,
            cost,
            reply: tx,
        };
        let expires_at = Some(enqueued + Duration::from_millis(1));
        assert!(shared.queue.try_push(job, expires_at).is_ok());
        shared.queue.close();
        worker_loop(&shared);
        match rx.recv() {
            Ok(Response::Expired {
                waited_ms,
                deadline_ms: 1,
            }) => assert!(waited_ms >= 1),
            other => panic!("expected Expired, got {other:?}"),
        }
        assert_eq!(shared.gauge.outstanding(), 0, "expiry must release cost");
    }
}
