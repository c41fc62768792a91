//! Load-test harness for the `tme-serve` service (DESIGN.md §12.5, §16).
//!
//! Starts an in-process server (2 workers, a queue of 8, the default
//! cost budget) on an ephemeral port, then:
//!
//! 1. **Capacity probe** — sequential requests give the median service
//!    time, from which the offered loads are derived.
//! 2. **Open-loop overload ramp** — seeded (`SplitMix64`) Poisson
//!    arrivals at three offered loads (0.5×, 1× and 2.5× measured
//!    capacity). Open loop means arrivals do not wait for responses —
//!    over-capacity load surfaces as `Rejected` responses with retry
//!    hints or shed connections. The **goodput gate** requires achieved
//!    throughput at 2.5× to stay within 15% of the 1× row: admission
//!    control must hold goodput flat under overload rather than letting
//!    reject-path work starve the workers.
//! 3. **Closed-loop backoff leg** — `RetryingClient`s that honour
//!    `retry_after_ms` hints with jittered exponential backoff; every
//!    request must reach a terminal outcome.
//! 4. **Graceful drain** — the drained server's `tme-serve-stats/1`
//!    object goes into the report as `server_stats`.
//!
//! Every leg sorts its responses through one classifier ([`Outcome::of`])
//! into one [`Ledger`]: completed, refused with a retry hint, dropped
//! (shed or I/O) and client error (a protocol error, an unexpected
//! response, a `Rejected` without a hint, or an `Expired` — nothing here
//! sends a deadline). Each leg names the classes that fail it; every
//! single-server leg fails on a client error, and quick mode gates p99 at
//! 2 s. The single-server contracts that need no load are gated once, by
//! named tests: a full queue refusing with a retry hint and never growing
//! past capacity (`server::tests::zero_capacity_queue_rejects_with_retry_hint`),
//! a queued request answered `Expired` past its deadline
//! (`queued_request_past_its_deadline_is_answered_expired`), a tripped gate
//! reopening once the backlog drains (both in `tests/serve_overload.rs`),
//! and a drain that answers every request with a balanced ledger and no
//! protocol error (`serve_overload::admission_cost_ledger_balances_after_drain`).
//!
//! With `--cluster N` (N ≥ 2) a fifth section runs after the
//! single-server suite: a `tme-router` front door over N `tme-serve`
//! shards, each configured with a `min_service_us` floor so capacity is
//! latency-bound and scales with shard count even on one core (the
//! floor emulates the accelerator-offload wait; DESIGN.md §17.6).
//! A dropped request or a client error fails every cluster leg, and:
//!
//! * **Capacity scaling** — closed-loop saturation through the router
//!   at 1 shard then N shards; achieved throughput at N shards must be
//!   ≥ 0.8·N× the 1-shard row (≥ 2.4× at N = 3).
//! * **Shard kill** — one shard is drained while requests are in
//!   flight; every admitted request must still complete (zero lost) and
//!   none may exhaust its retries. The N-shard router must count no
//!   protocol error; its `tme-router-stats/1` object goes into the
//!   report as `router_stats`.
//!
//! Plan-cache hits, cluster-wide affinity and post-kill rendezvous
//! convergence are gated by `tme-serve`'s unit tests and
//! `tests/router_cluster.rs`, which kills its shard between phases; only
//! this harness kills one mid-load.
//!
//! Every leg runs even after a gate failed, and `BENCH_serve.json` (one
//! row per leg) is always written, listing the failed gates in
//! `failed_checks`; the exit status is 1 exactly when that list is not
//! empty (`tme_bench::Checks`). CI's serve smoke runs it once, with
//! `--quick --cluster 3`.
//!
//! Usage: `cargo run --release -p tme-bench --bin serve_load --
//!         [--quick] [--cluster N] [--seed 42] [--out BENCH_serve.json]`

use std::time::{Duration, Instant};

use tme_bench::{fail, Checks};
use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::BackendParams;
use tme_num::json::JsonObject;
use tme_num::rng::SplitMix64;
use tme_router::{pick_shard, route_key, HealthConfig, RouterConfig, RouterStats};
use tme_serve::net::Report;
use tme_serve::{
    serve, BackoffPolicy, Client, Request, Response, RetryingClient, ServeConfig, ServeStats,
    ServerHandle, WireError,
};

/// The small repeat-client workload: a 16-site dipole lattice on the
/// 16³ grid. Cheap to execute, so the sweep measures the *service*
/// layers (queueing, admission, cache, protocol), not the solver.
fn workload_request(alpha_salt: u64) -> Request {
    let r_cut = 1.0;
    // Two distinct alphas → two plan-cache entries; every request after
    // the first pair of misses should hit.
    let alpha = alpha_from_rtol(r_cut, 1e-4) + alpha_salt as f64 * 1e-3;
    let mut pos = Vec::new();
    let mut q = Vec::new();
    for i in 0..8 {
        let base = [
            1.0 + f64::from(i % 2) * 2.0,
            1.0 + f64::from((i / 2) % 2) * 2.0,
            1.0 + f64::from(i / 4) * 2.0,
        ];
        pos.push(base);
        q.push(1.0);
        pos.push([base[0] + 0.8, base[1], base[2]]);
        q.push(-1.0);
    }
    Request::Compute {
        deadline_ms: 0,
        params: BackendParams::Tme(TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha,
            r_cut,
        }),
        box_l: [4.0; 3],
        pos,
        q,
    }
}

/// How one request ended, seen from the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// `Computed`.
    Completed,
    /// `Rejected` with a retry hint: typed backpressure.
    Refused,
    /// A shed or dropped connection, or a failed connect.
    Dropped,
    /// A protocol error, an unexpected response, a `Rejected` without a
    /// retry hint, or an `Expired` (no request here carries a deadline).
    ClientError,
}

impl Outcome {
    const ALL: [Self; 4] = [
        Self::Completed,
        Self::Refused,
        Self::Dropped,
        Self::ClientError,
    ];

    fn of(result: &Result<Response, WireError>) -> Self {
        match result {
            Ok(Response::Computed { .. }) => Self::Completed,
            Ok(Response::Rejected { retry_after_ms, .. }) if *retry_after_ms > 0 => Self::Refused,
            Err(WireError::Shed | WireError::Io { .. }) => Self::Dropped,
            _ => Self::ClientError,
        }
    }

    /// The report key of this class's count.
    fn key(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::Refused => "refused",
            Self::Dropped => "dropped",
            Self::ClientError => "client_errors",
        }
    }
}

/// One leg's tally: a count per [`Outcome`], the plan-cache hits and
/// latencies of the completed requests, and (closed loops) the
/// `RetryingClient` backoff and shed counters.
#[derive(Default)]
struct Ledger {
    counts: [u64; 4],
    cache_hits: u64,
    latencies_us: Vec<u64>,
    retries: u64,
    sheds: u64,
}

impl Ledger {
    /// Count `result`, the answer to a request sent at `sent`.
    fn record(&mut self, result: &Result<Response, WireError>, sent: Instant) {
        self.counts[Outcome::of(result) as usize] += 1;
        if let Ok(Response::Computed { cache_hit, .. }) = result {
            self.cache_hits += u64::from(*cache_hit);
            self.latencies_us
                .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }

    fn count(&self, class: Outcome) -> u64 {
        self.counts[class as usize]
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.cache_hits += other.cache_hits;
        self.latencies_us.extend(other.latencies_us);
        self.retries += other.retries;
        self.sheds += other.sheds;
    }
}

/// Run `client(c)` for every `c` in `0..clients`, each on its own
/// thread, and merge their ledgers.
fn run_clients(clients: usize, client: impl Fn(usize) -> Ledger + Sync) -> Ledger {
    std::thread::scope(|scope| {
        let client = &client;
        let joins: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        let mut leg = Ledger::default();
        for j in joins {
            leg.merge(
                j.join()
                    .unwrap_or_else(|_| fail("a load client thread panicked")),
            );
        }
        leg
    })
}

/// Drive one offered load: open-loop Poisson arrivals split round-robin
/// over `clients` connections.
///
/// A shed connection (the server's one-byte pre-accept refusal) or a
/// dropped transport is the *designed* overload response, not a failure:
/// it counts as [`Outcome::Dropped`] and the client reconnects on its
/// next scheduled arrival, exactly like a real client would.
fn open_loop(
    addr: std::net::SocketAddr,
    offered_rps: f64,
    duration_s: f64,
    clients: usize,
    seed: u64,
) -> Ledger {
    // Pre-draw the whole arrival schedule so the load is a pure function
    // of the seed.
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut schedules: Vec<Vec<(f64, usize)>> = vec![Vec::new(); clients];
    let mut t = 0.0;
    let mut i = 0usize;
    while t < duration_s {
        t += -(1.0 - rng.uniform()).ln() / offered_rps;
        // ~1 in 8 requests uses the second configuration, exercising
        // plan-cache multi-tenancy.
        schedules[i % clients].push((t, usize::from(rng.gen_index(8) == 0)));
        i += 1;
    }
    // Build the two request variants once: the generator must not burn
    // the shared core re-allocating payloads at flood rate.
    let reqs = [workload_request(0), workload_request(1)];
    let start = Instant::now();
    run_clients(clients, |c| {
        let mut out = Ledger::default();
        let mut client: Option<Client> = None;
        for &(at, salt) in &schedules[c] {
            // Open loop: arrivals follow the schedule, not the previous
            // response. When behind, fire immediately.
            let due = Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            if client.is_none() {
                // Bounded connect: a full listen backlog (the server
                // pacing its sheds) must read as a fast busy signal, not
                // a seconds-long SYN stall that would smear this leg's
                // measurement window.
                match Client::connect_timeout(addr, Duration::from_millis(100)) {
                    Ok(cl) => client = Some(cl),
                    Err(e) => {
                        out.record(&Err(e), Instant::now());
                        continue;
                    }
                }
            }
            let Some(cl) = client.as_mut() else { continue };
            let sent = Instant::now();
            let result = cl.call(&reqs[salt]);
            out.record(&result, sent);
            if result.is_err() {
                client = None; // reconnect on the next arrival
            }
        }
        out
    })
}

/// Closed-loop leg: `clients` connections, each waiting for its response
/// and retrying rejections and sheds through `RetryingClient`'s jittered,
/// hint-honouring backoff under `policy`. Client `c` sends
/// `per_client` requests; its `k`-th uses the alpha salt `salt(c, k)`.
fn closed_loop(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    policy: BackoffPolicy,
    salt: impl Fn(usize, usize) -> u64 + Sync,
    seed: u64,
) -> Ledger {
    run_clients(clients, |c| {
        let mut rc = RetryingClient::new(addr, policy, seed ^ (c as u64).wrapping_mul(0x9e37));
        let mut out = Ledger::default();
        for k in 0..per_client {
            let sent = Instant::now();
            out.record(&rc.call(&workload_request(salt(c, k))), sent);
        }
        out.retries = rc.retries();
        out.sheds = rc.sheds();
        out
    })
}

/// One leg of the report: the single-server loads and closed loop, and
/// the cluster's 1-shard, N-shard and kill legs.
struct Row {
    leg: String,
    /// Offered arrival rate (open-loop legs only).
    offered_rps: Option<f64>,
    clients: usize,
    elapsed_s: f64,
    /// With `latencies_us` sorted.
    ledger: Ledger,
}

impl Row {
    /// Time `drive` as the leg `leg` and print its line.
    fn run(
        leg: String,
        offered_rps: Option<f64>,
        clients: usize,
        drive: impl FnOnce() -> Ledger,
    ) -> Self {
        let t0 = Instant::now();
        let mut ledger = drive();
        let elapsed_s = t0.elapsed().as_secs_f64().max(1e-6);
        ledger.latencies_us.sort_unstable();
        let row = Self {
            leg,
            offered_rps,
            clients,
            elapsed_s,
            ledger,
        };
        let counts: Vec<String> = Outcome::ALL
            .map(|c| format!("{} {}", row.ledger.count(c), c.key()))
            .into();
        let offered = offered_rps.map_or(String::new(), |r| format!("offered {r:.0} rps, "));
        println!(
            "{}: {offered}{} in {elapsed_s:.2} s -> {:.0} rps, p50 {} µs, p99 {} µs, cache hit \
             {:.1}%, {} backoffs, {} sheds",
            row.leg,
            counts.join(" / "),
            row.achieved_rps(),
            row.percentile(0.50),
            row.percentile(0.99),
            100.0 * row.cache_hit_rate(),
            row.ledger.retries,
            row.ledger.sheds
        );
        row
    }

    fn achieved_rps(&self) -> f64 {
        self.ledger.count(Outcome::Completed) as f64 / self.elapsed_s
    }

    fn cache_hit_rate(&self) -> f64 {
        self.ledger.cache_hits as f64 / self.ledger.count(Outcome::Completed).max(1) as f64
    }

    fn percentile(&self, q: f64) -> u64 {
        let sorted = &self.ledger.latencies_us;
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Fail the leg in `checks` for every class in `fatal` it counted.
    fn judge(&self, checks: &mut Checks, fatal: &[Outcome]) {
        for &class in fatal {
            let n = self.ledger.count(class);
            if n > 0 {
                checks.fail(format!("{}: {n} {}", self.leg, class.key()));
            }
        }
    }

    fn emit(&self, o: &mut JsonObject) {
        // A closed loop offers no rate: NaN renders as `null`.
        o.str("leg", &self.leg)
            .f64("offered_rps", self.offered_rps.unwrap_or(f64::NAN), 1)
            .u64("clients", self.clients as u64)
            .u64("requests", self.ledger.counts.iter().sum());
        for class in Outcome::ALL {
            o.u64(class.key(), self.ledger.count(class));
        }
        o.f64("elapsed_s", self.elapsed_s, 3)
            .f64("achieved_rps", self.achieved_rps(), 1)
            .f64("cache_hit_rate", self.cache_hit_rate(), 4)
            .u64("p50_us", self.percentile(0.50))
            .u64("p99_us", self.percentile(0.99))
            .u64("retries", self.ledger.retries)
            .u64("sheds", self.ledger.sheds);
    }
}

/// What the single-server section measured besides its rows.
struct Single {
    capacity_rps: f64,
    median_service_us: u64,
    /// The drained server's final stats.
    stats: ServeStats,
}

/// The capacity probe, the open-loop ramp, the closed loop and the drain
/// against one in-process server configured as `cfg`.
fn single_server(
    cfg: &ServeConfig,
    quick: bool,
    seed: u64,
    rows: &mut Vec<Row>,
    checks: &mut Checks,
) -> Single {
    let handle =
        serve(cfg.clone()).unwrap_or_else(|e| fail(format_args!("server failed to start: {e}")));
    let addr = handle.local_addr();
    println!(
        "# serve_load: server on {addr}, {} workers, queue {}, cost budget {}, seed {seed}",
        cfg.workers, cfg.queue_capacity, cfg.cost_budget
    );

    // 1. Capacity probe: median sequential service time.
    let mut probe =
        Client::connect(addr).unwrap_or_else(|e| fail(format_args!("could not connect: {e}")));
    let probe_n = if quick { 10 } else { 30 };
    let mut service_us: Vec<u64> = Vec::new();
    for _ in 0..probe_n {
        let t0 = Instant::now();
        if !matches!(
            probe.call(&workload_request(0)),
            Ok(Response::Computed { .. })
        ) {
            fail("capacity probe request failed");
        }
        service_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    service_us.sort_unstable();
    let median_service_us = service_us[service_us.len() / 2].max(50);
    let capacity_rps = (cfg.workers as f64) * 1e6 / median_service_us as f64;
    println!(
        "capacity probe: median service {median_service_us} µs -> ~{capacity_rps:.0} rps capacity"
    );

    // 2. Open-loop overload ramp at three offered loads, over enough
    // serial connections that the in-flight count can exceed workers +
    // queue capacity — otherwise the queue can never fill and
    // backpressure would go untested.
    let clients = cfg.workers + cfg.queue_capacity + 4;
    let duration_s = if quick { 1.0 } else { 3.0 };
    for (li, factor) in [0.5, 1.0, 2.5].into_iter().enumerate() {
        let offered = capacity_rps * factor;
        let leg_seed = seed ^ ((li as u64 + 1) << 32);
        let row = Row::run(format!("load {factor}x"), Some(offered), clients, || {
            open_loop(addr, offered, duration_s, clients, leg_seed)
        });
        row.judge(checks, &[Outcome::ClientError]);
        rows.push(row);
    }

    // The goodput gate: overload must not melt throughput. Achieved rps
    // at 2.5× offered load must stay within 15% of the 1× row — the
    // shed-before-decode path has to keep reject work off the CPU the
    // workers need (DESIGN.md §16.1).
    let (achieved_1x, achieved_over) = (rows[1].achieved_rps(), rows[2].achieved_rps());
    if achieved_over < 0.85 * achieved_1x {
        checks.fail(format!(
            "goodput collapse: {achieved_over:.0} rps at 2.5x vs {achieved_1x:.0} rps at 1x \
             (gate: >= 85%)"
        ));
    } else {
        println!(
            "goodput gate: 2.5x achieved {achieved_over:.0} rps >= 85% of 1x {achieved_1x:.0} rps"
        );
    }
    let p99 = rows.iter().map(|r| r.percentile(0.99)).max().unwrap_or(0);
    if quick && p99 > 2_000_000 {
        checks.fail(format!("p99 {p99} µs exceeds the 2 s quick-mode bound"));
    }

    // 3. Closed-loop backoff leg: RetryingClients that honour the
    // adaptive retry_after_ms hint. A refusal or a dropped connection
    // after the last attempt is a legitimate terminal outcome while the
    // server is saturated; anything else loses the request.
    let per_client = if quick { 10 } else { 40 };
    let policy = BackoffPolicy {
        base_ms: 2,
        cap_ms: 500,
        max_attempts: 10,
    };
    let row = Row::run("closed loop".to_string(), None, clients, || {
        let salt = |_, k| u64::from(k % 8 == 0);
        closed_loop(addr, clients, per_client, policy, salt, seed ^ 0xC105ED)
    });
    row.judge(checks, &[Outcome::ClientError]);
    rows.push(row);

    // 4. Drain.
    handle.trigger_drain();
    Single {
        capacity_rps,
        median_service_us,
        stats: handle.join(),
    }
}

// ---------------------------------------------------------------------
// Cluster mode (`--cluster N`): a tme-router front door over N shards.
// ---------------------------------------------------------------------

/// Service-time floor for cluster shards. On the single shared CI core
/// raw compute cannot scale with process count; the floor makes each
/// shard latency-bound (workers park in the floor, emulating the
/// accelerator-offload wait), so aggregate capacity is
/// `shards · workers / floor` and a working router shows near-linear
/// scaling while a broken one cannot.
const CLUSTER_FLOOR_US: u64 = 20_000;
const CLUSTER_WORKERS: usize = 2;

fn cluster_backend() -> ServerHandle {
    serve(ServeConfig {
        workers: CLUSTER_WORKERS,
        queue_capacity: 32,
        min_service_us: CLUSTER_FLOOR_US,
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| fail(format_args!("cluster backend failed to start: {e}")))
}

fn cluster_router(backends: &[&ServerHandle]) -> tme_router::RouterHandle {
    tme_router::route(RouterConfig {
        shards: backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect(),
        health: HealthConfig {
            strikes: 1,
            cooldown: Duration::from_millis(500),
        },
        connect_timeout_ms: 250,
        ..RouterConfig::default()
    })
    .unwrap_or_else(|e| fail(format_args!("router failed to start: {e}")))
}

/// Pick `per_shard` alpha salts per shard so the capacity legs offer a
/// perfectly balanced keyspace (the harness is measuring scaling, not
/// hash balance — that has its own property test in `tme-router`), then
/// interleave them shard-round-robin so a client walking the list keeps
/// its in-flight requests spread across shards.
fn balanced_cluster_salts(shards: usize, per_shard: usize) -> Vec<u64> {
    let all: Vec<usize> = (0..shards).collect();
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for salt in 0..4_096u64 {
        if buckets.iter().all(|b| b.len() >= per_shard) {
            break;
        }
        let Some(home) = pick_shard(route_key(&workload_request(salt)), &all) else {
            fail("rendezvous over a non-empty shard set returned nothing")
        };
        if buckets[home].len() < per_shard {
            buckets[home].push(salt);
        }
    }
    if buckets.iter().any(|b| b.len() < per_shard) {
        fail("could not find a balanced cluster keyspace in 4096 candidates");
    }
    (0..per_shard)
        .flat_map(|i| buckets.iter().map(move |b| b[i]))
        .collect()
}

/// Plant every salt's plan once, sequentially, so the timed legs never
/// race two workers into building the same plan (which would double-count
/// misses in the affinity ledger).
fn cluster_warm(addr: std::net::SocketAddr, salts: &[u64]) {
    let mut client = RetryingClient::new(addr, BackoffPolicy::default(), 0x77AB);
    for &salt in salts {
        if !matches!(
            client.call(&workload_request(salt)),
            Ok(Response::Computed { .. })
        ) {
            fail("cluster warm-up request failed");
        }
    }
}

/// What the cluster section measured besides its rows.
struct Cluster {
    shards: usize,
    distinct_plans: usize,
    scaling_x: f64,
    /// The N-shard router's final stats.
    router: RouterStats,
}

fn run_cluster(
    shards: usize,
    quick: bool,
    seed: u64,
    rows: &mut Vec<Row>,
    checks: &mut Checks,
) -> Cluster {
    let clients = 6 * shards;
    let per_client = if quick { 8 } else { 20 };
    let salts = balanced_cluster_salts(shards, 4);
    println!(
        "# cluster: {shards} shards x {CLUSTER_WORKERS} workers, {CLUSTER_FLOOR_US} µs service \
         floor, {} balanced configurations, {clients} closed-loop clients",
        salts.len()
    );
    let policy = BackoffPolicy {
        base_ms: 2,
        cap_ms: 50,
        max_attempts: 12,
    };
    // Each client walks the shard-interleaved salt list from its own
    // offset, so its in-flight requests stay spread across shards.
    let salt = |c: usize, k: usize| salts[(c + k) % salts.len()];
    let lost = [Outcome::Dropped, Outcome::ClientError];

    // Leg 1: capacity through the router over a single shard.
    let solo = cluster_backend();
    let solo_router = cluster_router(&[&solo]);
    let solo_addr = solo_router.local_addr();
    cluster_warm(solo_addr, &salts);
    let one = Row::run("cluster 1 shard".to_string(), None, clients, || {
        closed_loop(solo_addr, clients, per_client, policy, salt, seed)
    });
    one.judge(checks, &lost);
    solo_router.join();
    solo.trigger_drain();
    solo.join();

    // Leg 2: same offered pattern over N shards.
    let mut backends: Vec<Option<ServerHandle>> =
        (0..shards).map(|_| Some(cluster_backend())).collect();
    let refs: Vec<&ServerHandle> = backends.iter().map(|b| b.as_ref().expect("live")).collect();
    let router = cluster_router(&refs);
    let addr = router.local_addr();
    cluster_warm(addr, &salts);
    let many = Row::run(format!("cluster {shards} shards"), None, clients, || {
        closed_loop(addr, clients, per_client, policy, salt, seed ^ 0x5EED)
    });
    many.judge(checks, &lost);
    let scaling_x = many.achieved_rps() / one.achieved_rps().max(1e-9);
    let scaling_gate = 0.8 * shards as f64;
    println!("cluster scaling: {scaling_x:.2}x the 1-shard row (gate {scaling_gate:.1}x)");
    if scaling_x < scaling_gate {
        checks.fail(format!(
            "capacity scaling {scaling_x:.2}x at {shards} shards below the {scaling_gate:.1}x \
             gate — the router is not spreading load"
        ));
    }

    // Leg 3: drain one shard mid-load. Every admitted request must still
    // complete — failover, not loss, and no request exhausting its
    // retries.
    let victim = 1usize.min(shards - 1);
    let kill_per_client = if quick { 6 } else { 10 };
    println!("cluster kill: draining shard {victim} mid-load");
    let kill = Row::run("cluster kill".to_string(), None, clients, || {
        std::thread::scope(|scope| {
            let load = scope.spawn(|| {
                closed_loop(addr, clients, kill_per_client, policy, salt, seed ^ 0x13111)
            });
            std::thread::sleep(Duration::from_millis(250));
            let dead = backends[victim].take().expect("victim still alive");
            dead.trigger_drain();
            dead.join();
            load.join()
                .unwrap_or_else(|_| fail("kill-leg load thread panicked"))
        })
    });
    kill.judge(checks, &[Outcome::Refused, lost[0], lost[1]]);

    let router_stats = router.join();
    if router_stats.protocol_errors > 0 {
        checks.fail(format!(
            "{} router protocol errors",
            router_stats.protocol_errors
        ));
    }
    for b in backends.into_iter().flatten() {
        b.trigger_drain();
        b.join();
    }
    rows.extend([one, many, kill]);
    Cluster {
        shards,
        distinct_plans: salts.len(),
        scaling_x,
        router: router_stats,
    }
}

/// A pretty-printed stats object re-indented to sit one level deep in
/// the report.
fn embed(stats: &impl Report) -> String {
    stats.to_json().trim_end().replace('\n', "\n  ")
}

fn main() {
    let mut args = tme_bench::init_cli();
    let quick = args.flag("--quick");
    let cluster: usize = args.get_or("--cluster", 0);
    let seed: u64 = args.get_or("--seed", 42);
    if cluster == 1 {
        fail("--cluster needs at least 2 shards (omit it for the single-server suite)");
    }
    let out_path = args
        .opt("--out")
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    args.finish();

    let cfg = ServeConfig {
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let mut checks = Checks::default();
    let mut rows = Vec::new();
    let single = single_server(&cfg, quick, seed, &mut rows, &mut checks);
    let cluster = (cluster >= 2).then(|| run_cluster(cluster, quick, seed, &mut rows, &mut checks));

    let host_threads = std::thread::available_parallelism().map_or(0, |v| v.get() as u64);
    checks.finish("serve_load", &out_path, |o| {
        o.u64("seed", seed)
            .bool("quick", quick)
            .u64("host_threads", host_threads)
            .u64("workers", cfg.workers as u64)
            .u64("queue_capacity", cfg.queue_capacity as u64)
            .u64("cost_budget", cfg.cost_budget)
            .f64("capacity_probe_rps", single.capacity_rps, 1)
            .u64("median_service_us", single.median_service_us)
            .rows("rows", &rows, Row::emit);
        if let Some(c) = &cluster {
            o.u64("cluster_shards", c.shards as u64)
                .u64("cluster_floor_us", CLUSTER_FLOOR_US)
                .u64("cluster_distinct_plans", c.distinct_plans as u64)
                .f64("cluster_scaling_x", c.scaling_x, 2);
        }
        o.raw("server_stats", &embed(&single.stats));
        if let Some(c) = &cluster {
            o.raw("router_stats", &embed(&c.router));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(retry_after_ms: u64) -> Response {
        Response::Rejected {
            retry_after_ms,
            queue_depth: 0,
            outstanding_cost: 0,
            cost_budget: 0,
        }
    }

    #[test]
    fn classifier_sorts_every_answer_into_one_class() {
        let computed = Response::Computed {
            energy: 0.0,
            cache_hit: true,
            forces: Vec::new(),
            potentials: Vec::new(),
        };
        let expired = Response::Expired {
            waited_ms: 3,
            deadline_ms: 0,
        };
        let cases = [
            (Ok(computed), Outcome::Completed),
            (Ok(rejected(5)), Outcome::Refused),
            (Ok(rejected(0)), Outcome::ClientError),
            (Ok(expired), Outcome::ClientError),
            (Err(WireError::Shed), Outcome::Dropped),
            (
                Err(WireError::Io {
                    kind: std::io::ErrorKind::ConnectionReset,
                }),
                Outcome::Dropped,
            ),
            (Err(WireError::BadVersion { got: 9 }), Outcome::ClientError),
        ];
        for (result, class) in &cases {
            assert_eq!(Outcome::of(result), *class, "{result:?}");
        }
    }
}
