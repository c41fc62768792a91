//! The router policy on the network core it shares with serve
//! (`tme_serve::net`, DESIGN.md §12.3): each work request is admitted
//! (quota → fair share), routed by rendezvous hash over the currently
//! healthy shard set, and forwarded over a pooled backend [`Client`] as
//! a protocol-v4 `Forwarded` frame carrying the accounting tenant and the
//! client's original deadline. A probe thread re-checks ejected shards.
//!
//! The forward hop's failure policy is DESIGN.md §17.3: a shed marker
//! strikes the shard and answers `Rejected` without re-routing (moving
//! the key would cold-start its plan on a shard that doesn't hold it); a
//! transport error or a draining shard's `ShuttingDown` strikes it and
//! re-routes (work requests are pure functions of their payload, so a
//! re-forward is safe); a backend `Rejected` passes through. A strike
//! that ejects a shard also drops its idle pooled connections, which
//! would fail against a shard revived on the same address.

use crate::health::{HealthConfig, ShardHealth};
use crate::quota::{FairConfig, FairRefusal, FairShare, QuotaConfig, TenantBuckets};
use crate::rendezvous::{pick_shard, route_key};
use crate::stats::RouterStats;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tme_serve::net::{self, Service};
use tme_serve::protocol::{Request, Response, ServerErrorCode, WireError};
use tme_serve::{request_cost, Client};

/// Router configuration. Validation happens in [`route`] before any
/// socket is bound, with typed errors.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Address to listen on (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Backend `tme-serve` addresses, one per shard. Shard index —
    /// the rendezvous identity — is the position in this list, so the
    /// list order must be identical on every router replica.
    pub shards: Vec<String>,
    /// Per-tenant token-bucket quota.
    pub quota: QuotaConfig,
    /// Deficit-round-robin fair share over forward slots.
    pub fair: FairConfig,
    /// Strike/ejection policy.
    pub health: HealthConfig,
    /// Retry hint (ms) on router-originated rejections.
    pub retry_after_ms: u64,
    /// Backend TCP connect timeout (ms).
    pub connect_timeout_ms: u64,
    /// Ceiling on one forward round trip (ms); the per-request deadline
    /// tightens this but never loosens it.
    pub forward_timeout_ms: u64,
    /// Health probe cadence (ms).
    pub probe_interval_ms: u64,
    /// Seed for cooldown jitter (routing itself is deterministic).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            quota: QuotaConfig::default(),
            fair: FairConfig::default(),
            health: HealthConfig::default(),
            retry_after_ms: 50,
            connect_timeout_ms: 250,
            forward_timeout_ms: 10_000,
            probe_interval_ms: 200,
            seed: 0x7a51_8c2e_44d1_90b3,
        }
    }
}

/// Typed configuration rejections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouterConfigError {
    /// No shards configured — a router with nothing behind it.
    NoShards,
    /// A shard address did not resolve.
    BadShardAddr { addr: String },
    /// `fair.max_active` of 0 would grant no forwards ever.
    ZeroMaxActive,
    /// A zero timeout or interval that would spin or hang.
    ZeroDuration { field: &'static str },
}

impl std::fmt::Display for RouterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoShards => write!(f, "no shards configured"),
            Self::BadShardAddr { addr } => write!(f, "shard address {addr:?} does not resolve"),
            Self::ZeroMaxActive => write!(f, "fair.max_active must be at least 1"),
            Self::ZeroDuration { field } => write!(f, "{field} must be at least 1"),
        }
    }
}

impl std::error::Error for RouterConfigError {}

/// Why the router failed to start.
pub type RouterError = net::StartError<RouterConfigError>;

impl RouterConfig {
    /// Validate and resolve the shard list.
    pub fn validate(&self) -> Result<Vec<SocketAddr>, RouterConfigError> {
        if self.shards.is_empty() {
            return Err(RouterConfigError::NoShards);
        }
        if self.fair.max_active == 0 {
            return Err(RouterConfigError::ZeroMaxActive);
        }
        for (field, v) in [
            ("retry_after_ms", self.retry_after_ms),
            ("connect_timeout_ms", self.connect_timeout_ms),
            ("forward_timeout_ms", self.forward_timeout_ms),
            ("probe_interval_ms", self.probe_interval_ms),
        ] {
            if v == 0 {
                return Err(RouterConfigError::ZeroDuration { field });
            }
        }
        let mut addrs = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            let resolved = s
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .ok_or_else(|| RouterConfigError::BadShardAddr { addr: s.clone() })?;
            addrs.push(resolved);
        }
        Ok(addrs)
    }
}

/// Cap on idle pooled connections per shard.
const POOL_PER_SHARD: usize = 8;

/// One router instance: the state its connection threads and prober
/// share. Run it with [`route`]. It keeps the core's default gates —
/// every connection is admitted and every frame decoded — because its
/// admission is per decoded request (quota, fair share).
pub struct Router {
    cfg: RouterConfig,
    addrs: Vec<SocketAddr>,
    health: ShardHealth,
    buckets: TenantBuckets,
    fair: FairShare,
    stats: Mutex<RouterStats>,
    /// Idle backend connections, one pool per shard.
    pools: Vec<Mutex<Vec<Client>>>,
    stop: AtomicBool,
}

/// A running router; see [`net::Handle`].
pub type RouterHandle = net::Handle<Router>;

impl Router {
    fn stats(&self) -> MutexGuard<'_, RouterStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pool(&self, shard: usize) -> Option<MutexGuard<'_, Vec<Client>>> {
        self.pools
            .get(shard)
            .map(|p| p.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A fresh connection to `shard`, within the connect timeout.
    fn connect(&self, shard: usize) -> Option<Client> {
        let addr = *self.addrs.get(shard)?;
        let timeout = Duration::from_millis(self.cfg.connect_timeout_ms.max(1));
        Client::connect_timeout(addr, timeout).ok()
    }

    /// Strike `shard`; an ejection also drops its idle connections, which
    /// would fail and strike it again once revived on the same address.
    fn strike(&self, shard: usize) {
        if self.health.note_strike(shard) {
            if let Some(mut pool) = self.pool(shard) {
                pool.clear();
            }
        }
    }
}

impl Service for Router {
    type Stats = RouterStats;
    const NAME: &'static str = "tme-router";

    /// Cluster stats snapshot, health columns filled in.
    fn snapshot(&self) -> RouterStats {
        let mut stats = self.stats().clone();
        let ejections = self.health.ejections();
        let states = self.health.state_names();
        for (i, sh) in stats.shards.iter_mut().enumerate() {
            sh.ejections = ejections.get(i).copied().unwrap_or(0);
            sh.state = states.get(i).copied().unwrap_or("unknown");
        }
        stats
    }

    /// Stop admitting and wake parked fair-share waiters.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.fair.close();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn note_protocol_error(&self) {
        self.stats().protocol_errors += 1;
    }

    fn note_received(&self, _req: &Request) {
        self.stats().received += 1;
    }

    fn work(&self, req: Request) -> Response {
        handle_work(self, req)
    }
}

/// Start the router. Returns once the listener is bound; it serves until
/// [`RouterHandle::join`] or a wire shutdown request.
pub fn route(cfg: RouterConfig) -> Result<RouterHandle, RouterError> {
    let addrs = cfg.validate().map_err(RouterError::Config)?;
    let n = addrs.len();
    let addr = cfg.addr.clone();
    let router = Router {
        addrs,
        health: ShardHealth::new(n, cfg.health, cfg.seed),
        buckets: TenantBuckets::new(cfg.quota),
        fair: FairShare::new(cfg.fair),
        stats: Mutex::new(RouterStats::new(n)),
        pools: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        stop: AtomicBool::new(false),
        cfg,
    };
    let prober = ("tme-router-probe".to_string(), probe_loop as fn(&Router));
    net::start(&addr, router, vec![prober])
}

/// Periodically re-probe ejected shards that cooled down (half-open →
/// healthy/ejected). Healthy shards are left alone: every forward is
/// already a probe, and a spurious Stats call to a loaded backend
/// would cost it admission budget for nothing.
fn probe_loop(shared: &Router) {
    let interval = Duration::from_millis(shared.cfg.probe_interval_ms.max(1));
    let mut due = Vec::new();
    let mut last = Instant::now();
    while !shared.stopped() {
        // Short sleeps so drain is prompt; probing itself runs on the
        // configured cadence.
        std::thread::sleep(Duration::from_millis(10).min(interval));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        due.clear();
        shared.health.take_due_probes(Instant::now(), &mut due);
        let timeout = Duration::from_millis(shared.cfg.connect_timeout_ms.saturating_mul(2));
        for &shard in &due {
            // One Stats round trip on a fresh connection. A shed marker
            // counts as failure: restoring an overloaded shard's keyspace
            // would only feed it traffic it will shed again.
            let ok = shared.connect(shard).is_some_and(|mut client| {
                let _ = client.set_read_timeout(timeout);
                matches!(client.call(&Request::Stats), Ok(Response::Stats { .. }))
            });
            shared.health.probe_outcome(shard, ok);
        }
    }
}

/// Admit (quota → fair share) and forward one work request.
fn handle_work(shared: &Router, req: Request) -> Response {
    let (tenant, deadline_ms, inner) = match req {
        Request::Forwarded {
            tenant,
            deadline_ms,
            inner,
        } => (tenant, deadline_ms, *inner),
        other => (0, other.deadline_ms(), other),
    };
    let admitted_at = Instant::now();
    if let Err(hint_ms) = shared.buckets.try_take(tenant, admitted_at) {
        shared.stats().quota_rejected += 1;
        return rejected(hint_ms);
    }
    let deadline = (deadline_ms > 0).then(|| admitted_at + Duration::from_millis(deadline_ms));
    let cost = request_cost(&inner);
    let slot = match shared.fair.acquire(tenant, cost, deadline) {
        Ok(slot) => slot,
        Err(FairRefusal::DeadlineExceeded) => {
            shared.stats().fairness_rejected += 1;
            return Response::Expired {
                waited_ms: elapsed_us(admitted_at) / 1000,
                deadline_ms,
            };
        }
        Err(FairRefusal::TenantBacklogFull | FairRefusal::Closed) => {
            shared.stats().fairness_rejected += 1;
            return rejected(shared.cfg.retry_after_ms);
        }
    };
    let resp = forward(shared, tenant, deadline_ms, deadline, inner);
    drop(slot);
    resp
}

fn rejected(retry_after_ms: u64) -> Response {
    Response::Rejected {
        retry_after_ms,
        queue_depth: 0,
        outstanding_cost: 0,
        cost_budget: 0,
    }
}

/// How one forward attempt ended.
enum Attempt {
    /// A decoded backend response (including `Rejected`).
    Answered(Response),
    /// The backend shed the connection (alive, overloaded).
    Shed,
    /// Transport failure: connect, write, read, or timeout.
    Transport,
    /// The backend answered bytes that don't decode — treat the shard
    /// as sick and tell the client.
    Garbled,
}

/// Route and forward, failing over across shards on transport errors.
fn forward(
    shared: &Router,
    tenant: u64,
    deadline_ms: u64,
    deadline: Option<Instant>,
    inner: Request,
) -> Response {
    let key = route_key(&inner);
    let started = Instant::now();
    let fwd = Request::Forwarded {
        tenant,
        deadline_ms,
        inner: Box::new(inner),
    };
    let mut candidates = Vec::new();
    let mut excluded: Vec<usize> = Vec::new();
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Response::Expired {
                    waited_ms: elapsed_us(started) / 1000,
                    deadline_ms,
                };
            }
        }
        shared.health.healthy_into(&mut candidates);
        candidates.retain(|s| !excluded.contains(s));
        let Some(shard) = pick_shard(key, &candidates) else {
            shared.stats().no_backend_rejected += 1;
            return rejected(shared.cfg.retry_after_ms);
        };
        let t0 = Instant::now();
        shared.stats().shards[shard].forwarded += 1;
        match forward_once(shared, shard, &fwd, deadline) {
            Attempt::Answered(Response::ShuttingDown { .. }) => {
                // The shard is draining: it refused the work without
                // executing it, so route away like a transport failure
                // (re-forwarding is safe — the request never ran) and
                // strike so the rest of its keyspace follows.
                {
                    let mut stats = shared.stats();
                    stats.shards[shard].sheds += 1;
                    stats.rerouted += 1;
                }
                shared.strike(shard);
                excluded.push(shard);
            }
            Attempt::Answered(resp) => {
                shared.health.note_success(shard);
                let mut stats = shared.stats();
                stats.shards[shard].latency.record(elapsed_us(t0));
                stats.shards[shard].completed += 1;
                if matches!(resp, Response::Rejected { .. }) {
                    stats.shards[shard].backend_rejected += 1;
                } else {
                    stats.completed += 1;
                }
                return resp;
            }
            Attempt::Shed => {
                // Overload: strike but *answer*, don't re-route — see
                // the module docs.
                shared.stats().shards[shard].sheds += 1;
                shared.strike(shard);
                return rejected(shared.cfg.retry_after_ms);
            }
            Attempt::Transport => {
                shared.stats().shards[shard].io_errors += 1;
                shared.strike(shard);
                excluded.push(shard);
                shared.stats().rerouted += 1;
                // Loop: re-route to the next shard in rendezvous order.
            }
            Attempt::Garbled => {
                shared.stats().shards[shard].io_errors += 1;
                shared.strike(shard);
                return Response::ServerError {
                    code: ServerErrorCode::Internal,
                    message: format!("shard {shard} answered an undecodable frame"),
                };
            }
        }
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One round trip to one shard over a pooled (or fresh) connection.
fn forward_once(
    shared: &Router,
    shard: usize,
    fwd: &Request,
    deadline: Option<Instant>,
) -> Attempt {
    let pooled = shared.pool(shard).and_then(|mut pool| pool.pop());
    let Some(mut client) = pooled.or_else(|| shared.connect(shard)) else {
        return Attempt::Transport;
    };
    // Per-attempt read budget: the config ceiling, tightened by the
    // request's remaining deadline (plus a small grace so a backend
    // answering `Expired` right at the boundary still gets through).
    let ceiling = Duration::from_millis(shared.cfg.forward_timeout_ms.max(1));
    let budget = match deadline {
        Some(d) => d
            .saturating_duration_since(Instant::now())
            .saturating_add(Duration::from_millis(50))
            .min(ceiling),
        None => ceiling,
    };
    let _ = client.set_read_timeout(budget);
    match client.call(fwd) {
        Ok(resp) => {
            // The round trip succeeded; park the connection for reuse
            // (bounded).
            if let Some(mut pool) = shared.pool(shard) {
                if pool.len() < POOL_PER_SHARD {
                    pool.insert(0, client);
                }
            }
            Attempt::Answered(resp)
        }
        Err(WireError::Shed) => Attempt::Shed,
        Err(WireError::Io { .. } | WireError::FrameTooLarge { .. }) => Attempt::Transport,
        Err(_) => Attempt::Garbled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_serve::{serve, ServeConfig};

    fn backend() -> tme_serve::ServerHandle {
        serve(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("start backend")
    }

    fn router_over(backends: &[&tme_serve::ServerHandle]) -> RouterHandle {
        route(RouterConfig {
            shards: backends
                .iter()
                .map(|h| h.local_addr().to_string())
                .collect(),
            ..RouterConfig::default()
        })
        .expect("start router")
    }

    #[test]
    fn config_validation_is_typed() {
        assert_eq!(
            RouterConfig::default().validate().err(),
            Some(RouterConfigError::NoShards)
        );
        let cfg = RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            fair: FairConfig {
                max_active: 0,
                ..FairConfig::default()
            },
            ..RouterConfig::default()
        };
        assert_eq!(cfg.validate().err(), Some(RouterConfigError::ZeroMaxActive));
        let cfg = RouterConfig {
            shards: vec!["127.0.0.1:1".to_string()],
            forward_timeout_ms: 0,
            ..RouterConfig::default()
        };
        assert_eq!(
            cfg.validate().err(),
            Some(RouterConfigError::ZeroDuration {
                field: "forward_timeout_ms"
            })
        );
        let cfg = RouterConfig {
            shards: vec!["not an address".to_string()],
            ..RouterConfig::default()
        };
        assert!(matches!(
            cfg.validate().err(),
            Some(RouterConfigError::BadShardAddr { .. })
        ));
    }

    #[test]
    fn work_flows_through_to_a_backend_and_stats_merge() {
        let backend = backend();
        let router = router_over(&[&backend]);
        let mut client =
            tme_serve::Client::connect(router.local_addr()).expect("connect via router");
        let req = Request::NveRun {
            deadline_ms: 10_000,
            waters: 8,
            seed: 3,
            steps: 2,
            dt: 0.001,
            r_cut: 0.55,
        };
        let resp = client.call(&req).expect("forwarded call");
        assert!(
            matches!(resp, Response::NveDone { steps, .. } if steps == 2),
            "unexpected response {resp:?}"
        );
        // Router-level stats see the forward; the Stats request answers
        // with the router schema, not the backend's.
        let stats_resp = client.call(&Request::Stats).expect("router stats");
        match stats_resp {
            Response::Stats { json, .. } => {
                assert!(json.contains("tme-router-stats/1"), "got {json}");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let stats = router.join();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shards[0].completed, 1);
        assert_eq!(stats.merged_latency().count(), 1);
        backend.trigger_drain();
        let bstats = backend.join();
        assert_eq!(bstats.kinds.forwarded, 1, "backend saw a v4 forward");
    }

    #[test]
    fn tenant_quota_rejects_with_refill_hint() {
        let backend = backend();
        let mut cfg = RouterConfig {
            shards: vec![backend.local_addr().to_string()],
            ..RouterConfig::default()
        };
        cfg.quota = QuotaConfig {
            rate_per_sec: 1,
            burst: 1,
            max_tenants: 16,
        };
        let router = route(cfg).expect("start router");
        let mut client = tme_serve::Client::connect(router.local_addr()).expect("connect");
        let wrap = |tenant| Request::Forwarded {
            tenant,
            deadline_ms: 10_000,
            inner: Box::new(Request::Estimate {
                deadline_ms: 10_000,
                spec: tme_serve::protocol::EstimateSpec {
                    backend: tme_serve::protocol::BackendKind::Tme,
                    n_atoms: 1_000,
                    grid: 16,
                    levels: 1,
                    gc: 8,
                    m_gaussians: 4,
                    r_cut: 1.0,
                    box_l: [4.0; 3],
                    steps: 1,
                },
            }),
        };
        // Burst of 1: the first request from tenant 9 passes, the second
        // is quota-rejected with a nonzero refill hint; tenant 10 still
        // has its own bucket.
        assert!(matches!(
            client.call(&wrap(9)).expect("first call"),
            Response::Estimated { .. }
        ));
        match client.call(&wrap(9)).expect("second call") {
            Response::Rejected { retry_after_ms, .. } => assert!(retry_after_ms >= 1),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        assert!(matches!(
            client.call(&wrap(10)).expect("other tenant"),
            Response::Estimated { .. }
        ));
        let stats = router.join();
        assert_eq!(stats.quota_rejected, 1);
        assert_eq!(stats.completed, 2);
        backend.trigger_drain();
        backend.join();
    }

    #[test]
    fn dead_shard_fails_over_and_recovers() {
        let b0 = backend();
        let b1 = backend();
        let router = route(RouterConfig {
            shards: vec![b0.local_addr().to_string(), b1.local_addr().to_string()],
            health: HealthConfig {
                strikes: 1,
                cooldown: Duration::from_millis(100),
            },
            connect_timeout_ms: 100,
            probe_interval_ms: 20,
            ..RouterConfig::default()
        })
        .expect("start router");
        // Kill shard 1, then push enough distinct keys that some hash
        // to it: every one must still be answered (failover), after
        // which shard 1 is ejected.
        let dead_addr = b1.local_addr();
        b1.trigger_drain();
        b1.join();
        let mut client = tme_serve::Client::connect(router.local_addr()).expect("connect");
        for seed in 0..6u64 {
            let resp = client
                .call(&Request::NveRun {
                    deadline_ms: 10_000,
                    waters: 8,
                    seed,
                    steps: 1,
                    dt: 0.001,
                    r_cut: 0.55,
                })
                .expect("failover answer");
            assert!(
                matches!(resp, Response::NveDone { .. }),
                "lost a request to the dead shard: {resp:?}"
            );
        }
        let stats = router.stats();
        assert_eq!(stats.completed, 6, "every request answered");
        // The probe thread may already be re-probing (half-open), but
        // the shard must be out of the forward set either way.
        assert!(
            stats.shards[1].state == "ejected" || stats.shards[1].state == "half_open",
            "shard 1 still {}",
            stats.shards[1].state
        );
        assert!(stats.rerouted >= 1, "dead shard's keys rerouted");
        // Bring a backend up on the dead shard's address; the half-open
        // probe should restore it.
        let revived = serve(ServeConfig {
            addr: dead_addr.to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("revive backend on the same port");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if router.stats().shards[1].state == "healthy" {
                break;
            }
            assert!(Instant::now() < deadline, "shard never recovered");
            std::thread::sleep(Duration::from_millis(20));
        }
        router.join();
        b0.trigger_drain();
        b0.join();
        revived.trigger_drain();
        revived.join();
    }

    /// Connections pooled to a shard before it died must not strike it
    /// once it is back on the same address: the pool is emptied when the
    /// shard is ejected, so the revived shard keeps its keys.
    #[test]
    fn revived_shard_is_not_struck_by_stale_pooled_connections() {
        let estimate = |n_atoms| Request::Estimate {
            deadline_ms: 10_000,
            spec: tme_serve::protocol::EstimateSpec {
                backend: tme_serve::protocol::BackendKind::Tme,
                n_atoms,
                grid: 16,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.0,
                box_l: [4.0; 3],
                steps: 1,
            },
        };
        let to_shard_1: Vec<Request> = (1_000..)
            .map(estimate)
            .filter(|r| pick_shard(route_key(r), &[0, 1]) == Some(1))
            .take(4)
            .collect();
        let b0 = backend();
        // A service floor holds each forward long enough that concurrent
        // callers each take a connection of their own.
        let b1 = serve(ServeConfig {
            workers: 1,
            min_service_us: 50_000,
            ..ServeConfig::default()
        })
        .expect("start backend");
        let router = route(RouterConfig {
            shards: vec![b0.local_addr().to_string(), b1.local_addr().to_string()],
            health: HealthConfig {
                strikes: 2,
                cooldown: Duration::from_millis(100),
            },
            probe_interval_ms: 20,
            ..RouterConfig::default()
        })
        .expect("start router");
        let addr = router.local_addr();
        let call = |req: &Request| {
            let mut client = tme_serve::Client::connect(addr).expect("connect");
            let resp = client.call(req).expect("answer");
            assert!(
                matches!(resp, Response::Estimated { .. }),
                "request failed: {resp:?}"
            );
        };
        // Fill shard 1's pool: four concurrent forwards, four connections.
        let start = std::sync::Barrier::new(to_shard_1.len());
        std::thread::scope(|s| {
            for req in &to_shard_1 {
                let (start, call) = (&start, &call);
                s.spawn(move || {
                    start.wait();
                    call(req);
                });
            }
        });
        assert_eq!(router.stats().shards[1].completed, 4);
        // Kill shard 1; its keys fail over until it is ejected.
        let dead_addr = b1.local_addr();
        b1.trigger_drain();
        b1.join();
        for req in to_shard_1.iter().cycle().take(8) {
            if router.stats().shards[1].state != "healthy" {
                break;
            }
            call(req);
        }
        assert_ne!(router.stats().shards[1].state, "healthy");
        // Revive it on the same port and wait for the probe to restore it.
        let revived = serve(ServeConfig {
            addr: dead_addr.to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("revive backend on the same port");
        let deadline = Instant::now() + Duration::from_secs(10);
        while router.stats().shards[1].state != "healthy" {
            assert!(Instant::now() < deadline, "shard never recovered");
            std::thread::sleep(Duration::from_millis(20));
        }
        let before = router.stats().shards[1].clone();
        for req in &to_shard_1 {
            call(req);
        }
        let after = router.stats().shards[1].clone();
        assert_eq!(after.io_errors, before.io_errors, "stale connection used");
        assert_eq!(
            after.ejections, before.ejections,
            "revived shard re-ejected"
        );
        assert_eq!(after.completed, before.completed + 4, "keys stayed home");
        router.join();
        b0.trigger_drain();
        b0.join();
        revived.trigger_drain();
        revived.join();
    }
}
