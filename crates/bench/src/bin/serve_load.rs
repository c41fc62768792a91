//! Load-test harness for the `tme-serve` service (DESIGN.md §12.5, §16).
//!
//! Starts an in-process server on an ephemeral port, then:
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
//! 4. **Graceful drain** — the final snapshot's queue high-water mark
//!    and admission-cost ledger go into the report.
//!
//! Every leg fails the run on a client-side error (a protocol error, an
//! unexpected response or a rejection without a retry hint), and quick
//! mode gates p99 at 2 s. The single-server contracts that need no load
//! are gated once, by named tests: a full queue refusing with a retry
//! hint and never growing past capacity
//! (`server::tests::zero_capacity_queue_rejects_with_retry_hint`), a
//! queued request answered `Expired` past its deadline
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
//! The cluster legs gate, in order:
//!
//! * **Capacity scaling** — closed-loop saturation through the router
//!   at 1 shard then N shards; achieved throughput at N shards must be
//!   ≥ 0.8·N× the 1-shard row (≥ 2.4× at N = 3).
//! * **Shard kill** — one shard is drained while requests are in
//!   flight; every admitted request must still terminate with a typed
//!   response (zero lost) and none may exhaust its retries.
//!
//! Plan-cache hits, cluster-wide affinity and post-kill rendezvous
//! convergence are gated by `tme-serve`'s unit tests and
//! `tests/router_cluster.rs`, which kills its shard between phases; only
//! this harness kills one mid-load.
//!
//! Emits `BENCH_serve.json` (plus a `cluster_*` row family when
//! `--cluster` ran) and exits non-zero if a gate above fails — CI's
//! serve smoke runs it once, with `--quick --cluster 3`.
//!
//! Usage: `cargo run --release -p tme-bench --bin serve_load --
//!         [--quick] [--workers 2] [--queue 8] [--cost-budget 32768]
//!         [--cluster N] [--seed 42] [--out BENCH_serve.json]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tme_core::{alpha_from_rtol, TmeParams};
use tme_md::backend::BackendParams;
use tme_num::rng::SplitMix64;
use tme_router::{pick_shard, route_key, HealthConfig, RouterConfig};
use tme_serve::net::Report;
use tme_serve::{
    serve, BackoffPolicy, Client, Request, Response, RetryingClient, ServeConfig, ServerHandle,
    WireError,
};

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

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

#[derive(Default)]
struct LoadOutcome {
    completed: u64,
    rejected: u64,
    expired: u64,
    shed: u64,
    errors: u64,
    cache_hits: u64,
    latencies_us: Vec<u64>,
}

struct LoadRow {
    offered_rps: f64,
    achieved_rps: f64,
    completed: u64,
    rejected: u64,
    expired: u64,
    shed: u64,
    rejection_rate: f64,
    cache_hit_rate: f64,
    p50_us: u64,
    p99_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drive one offered load: open-loop Poisson arrivals split round-robin
/// over `clients` connections. Returns client-side outcome counts.
///
/// A shed connection (the server's one-byte pre-accept refusal) or a
/// dropped transport is the *designed* overload response, not a failure:
/// it counts in `shed` and the client reconnects on its next scheduled
/// arrival, exactly like a real client would.
fn run_load(
    addr: std::net::SocketAddr,
    offered_rps: f64,
    duration_s: f64,
    clients: usize,
    seed: u64,
    protocol_errors: &AtomicU64,
) -> LoadOutcome {
    // Pre-draw the whole arrival schedule so the load is a pure function
    // of the seed.
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut schedules: Vec<Vec<(f64, u64)>> = vec![Vec::new(); clients];
    let mut t = 0.0;
    let mut i = 0usize;
    while t < duration_s {
        t += -(1.0 - rng.uniform()).ln() / offered_rps;
        // ~1 in 8 requests uses the second configuration, exercising
        // plan-cache multi-tenancy.
        let salt = u64::from(rng.gen_index(8) == 0);
        schedules[i % clients].push((t, salt));
        i += 1;
    }
    let start = Instant::now();
    let mut merged = LoadOutcome::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for schedule in schedules {
            joins.push(scope.spawn(move || {
                let mut out = LoadOutcome::default();
                let mut client: Option<Client> = None;
                // Build the two request variants once: the generator must
                // not burn the shared core re-allocating payloads at
                // flood rate.
                let reqs = [workload_request(0), workload_request(1)];
                for (at, salt) in schedule {
                    // Open loop: arrivals follow the schedule, not the
                    // previous response. When behind, fire immediately.
                    let due = Duration::from_secs_f64(at);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let cl = match &mut client {
                        Some(cl) => cl,
                        // Bounded connect: a full listen backlog (the
                        // server pacing its sheds) must read as a fast
                        // busy signal, not a seconds-long SYN stall that
                        // would smear this leg's measurement window.
                        None => match Client::connect_timeout(addr, Duration::from_millis(100)) {
                            Ok(cl) => client.insert(cl),
                            Err(_) => {
                                out.shed += 1;
                                continue;
                            }
                        },
                    };
                    let t0 = Instant::now();
                    match cl.call(&reqs[(salt as usize).min(1)]) {
                        Ok(Response::Computed { cache_hit, .. }) => {
                            out.completed += 1;
                            out.cache_hits += u64::from(cache_hit);
                            out.latencies_us
                                .push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                        }
                        Ok(Response::Rejected { retry_after_ms, .. }) => {
                            out.rejected += 1;
                            if retry_after_ms == 0 {
                                out.errors += 1; // rejection must carry a hint
                            }
                        }
                        Ok(Response::Expired { .. }) => out.expired += 1,
                        // Shed or dropped connection: the designed
                        // overload response. Reconnect on next arrival.
                        Err(WireError::Shed) | Err(WireError::Io { .. }) => {
                            out.shed += 1;
                            client = None;
                        }
                        Ok(_) => out.errors += 1,
                        Err(_) => {
                            protocol_errors.fetch_add(1, Ordering::SeqCst);
                            out.errors += 1;
                            client = None;
                        }
                    }
                }
                out
            }));
        }
        for j in joins {
            let Ok(out) = j.join() else {
                fail("load client thread panicked");
            };
            merged.completed += out.completed;
            merged.rejected += out.rejected;
            merged.expired += out.expired;
            merged.shed += out.shed;
            merged.errors += out.errors;
            merged.cache_hits += out.cache_hits;
            merged.latencies_us.extend(out.latencies_us);
        }
    });
    merged
}

/// What a closed-loop leg saw, one count per terminal outcome.
#[derive(Default)]
struct ClosedLoop {
    requests: u64,
    /// `Computed`.
    completed: u64,
    /// `Rejected` or `Expired` once the attempts ran out: a typed refusal.
    refused: u64,
    /// A shed or dropped connection once the attempts ran out.
    dropped: u64,
    /// Any other response, or a protocol error.
    broken: u64,
    retries: u64,
    sheds: u64,
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
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
) -> ClosedLoop {
    let start = Instant::now();
    let mut leg = ClosedLoop {
        requests: (clients * per_client) as u64,
        ..ClosedLoop::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let salt = &salt;
        let mut joins = Vec::new();
        for c in 0..clients {
            joins.push(scope.spawn(move || {
                let mut rc =
                    RetryingClient::new(addr, policy, seed ^ (c as u64).wrapping_mul(0x9e37));
                let mut out = ClosedLoop::default();
                let mut lats = Vec::new();
                for k in 0..per_client {
                    let t0 = Instant::now();
                    match rc.call(&workload_request(salt(c, k))) {
                        Ok(Response::Computed { .. }) => {
                            out.completed += 1;
                            lats.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                        }
                        Ok(Response::Rejected { .. } | Response::Expired { .. }) => {
                            out.refused += 1;
                        }
                        Err(WireError::Shed | WireError::Io { .. }) => out.dropped += 1,
                        Ok(_) | Err(_) => out.broken += 1,
                    }
                }
                out.retries = rc.retries();
                out.sheds = rc.sheds();
                (out, lats)
            }));
        }
        for j in joins {
            let Ok((out, lats)) = j.join() else {
                fail("closed-loop client thread panicked");
            };
            leg.completed += out.completed;
            leg.refused += out.refused;
            leg.dropped += out.dropped;
            leg.broken += out.broken;
            leg.retries += out.retries;
            leg.sheds += out.sheds;
            latencies.extend(lats);
        }
    });
    leg.elapsed_s = start.elapsed().as_secs_f64().max(1e-6);
    latencies.sort_unstable();
    leg.p50_us = percentile(&latencies, 0.50);
    leg.p99_us = percentile(&latencies, 0.99);
    leg
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

struct ClusterRow {
    shards: u64,
    clients: u64,
    requests: u64,
    completed: u64,
    achieved_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

struct ClusterReport {
    shards: u64,
    distinct_plans: u64,
    rows: Vec<ClusterRow>,
    scaling_x: f64,
    kill_requests: u64,
    kill_completed: u64,
    kill_gave_up: u64,
    rerouted: u64,
}

fn cluster_backend() -> ServerHandle {
    match serve(ServeConfig {
        workers: CLUSTER_WORKERS,
        queue_capacity: 32,
        min_service_us: CLUSTER_FLOOR_US,
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => fail(&format!("cluster backend failed to start: {e}")),
    }
}

fn cluster_router(backends: &[&ServerHandle]) -> tme_router::RouterHandle {
    match tme_router::route(RouterConfig {
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
    }) {
        Ok(h) => h,
        Err(e) => fail(&format!("router failed to start: {e}")),
    }
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

fn run_cluster(shards: usize, quick: bool, seed: u64) -> ClusterReport {
    let clients = 6 * shards;
    let per_client = if quick { 8 } else { 20 };
    let salts = balanced_cluster_salts(shards, 4);
    println!(
        "# cluster: {shards} shards x {CLUSTER_WORKERS} workers, {} µs service floor, \
         {} balanced configurations, {clients} closed-loop clients",
        CLUSTER_FLOOR_US,
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

    // Leg 1: capacity through the router over a single shard.
    let solo = cluster_backend();
    let solo_router = cluster_router(&[&solo]);
    cluster_warm(solo_router.local_addr(), &salts);
    let one = closed_loop(
        solo_router.local_addr(),
        clients,
        per_client,
        policy,
        salt,
        seed,
    );
    solo_router.join();
    solo.trigger_drain();
    solo.join();
    let lost = one.dropped + one.broken;
    if lost > 0 {
        fail(&format!("{lost} requests lost in the 1-shard leg"));
    }
    println!(
        "cluster 1 shard:  {}/{} completed in {:.2} s -> {:.0} rps (p50 {} µs, p99 {} µs)",
        one.completed,
        one.requests,
        one.elapsed_s,
        one.completed as f64 / one.elapsed_s,
        one.p50_us,
        one.p99_us
    );

    // Leg 2: same offered pattern over N shards.
    let mut backends: Vec<Option<ServerHandle>> =
        (0..shards).map(|_| Some(cluster_backend())).collect();
    let refs: Vec<&ServerHandle> = backends.iter().map(|b| b.as_ref().expect("live")).collect();
    let router = cluster_router(&refs);
    let addr = router.local_addr();
    cluster_warm(addr, &salts);
    let many = closed_loop(addr, clients, per_client, policy, salt, seed ^ 0x5EED);
    let lost = many.dropped + many.broken;
    if lost > 0 {
        fail(&format!("{lost} requests lost in the {shards}-shard leg"));
    }
    let achieved_1 = one.completed as f64 / one.elapsed_s;
    let achieved_n = many.completed as f64 / many.elapsed_s;
    let scaling = achieved_n / achieved_1.max(1e-9);
    let scaling_gate = 0.8 * shards as f64;
    println!(
        "cluster {shards} shards: {}/{} completed in {:.2} s -> {:.0} rps (p50 {} µs, p99 {} µs) \
         = {scaling:.2}x the 1-shard row",
        many.completed, many.requests, many.elapsed_s, achieved_n, many.p50_us, many.p99_us
    );
    if scaling < scaling_gate {
        fail(&format!(
            "capacity scaling {scaling:.2}x at {shards} shards below the {scaling_gate:.1}x gate \
             — the router is not spreading load"
        ));
    }

    // Leg 3: drain one shard mid-load. Every admitted request must still
    // terminate with a typed response — failover, not loss.
    let victim = 1usize.min(shards - 1);
    let kill_per_client = if quick { 6 } else { 10 };
    let kill = std::thread::scope(|scope| {
        let load = scope
            .spawn(|| closed_loop(addr, clients, kill_per_client, policy, salt, seed ^ 0x13111));
        std::thread::sleep(Duration::from_millis(250));
        let dead = backends[victim].take().expect("victim still alive");
        dead.trigger_drain();
        dead.join();
        match load.join() {
            Ok(leg) => leg,
            Err(_) => fail("kill-leg load thread panicked"),
        }
    });
    let lost = kill.dropped + kill.broken;
    println!(
        "cluster kill: drained shard {victim} mid-load; {}/{} completed, {} gave up, {lost} lost",
        kill.completed, kill.requests, kill.refused
    );
    if lost > 0 {
        fail(&format!(
            "{lost} admitted requests lost across the shard kill"
        ));
    }
    if kill.completed + kill.refused != kill.requests {
        fail("kill-leg accounting does not cover every request");
    }
    if kill.refused > 0 {
        fail(&format!(
            "{} requests exhausted their retries across the shard kill — failover is too slow",
            kill.refused
        ));
    }

    let stats = router.join();
    if stats.protocol_errors > 0 {
        fail(&format!("{} router protocol errors", stats.protocol_errors));
    }
    for b in backends.into_iter().flatten() {
        b.trigger_drain();
        b.join();
    }

    ClusterReport {
        shards: shards as u64,
        distinct_plans: salts.len() as u64,
        rows: vec![
            ClusterRow {
                shards: 1,
                clients: clients as u64,
                requests: one.requests,
                completed: one.completed,
                achieved_rps: achieved_1,
                p50_us: one.p50_us,
                p99_us: one.p99_us,
            },
            ClusterRow {
                shards: shards as u64,
                clients: clients as u64,
                requests: many.requests,
                completed: many.completed,
                achieved_rps: achieved_n,
                p50_us: many.p50_us,
                p99_us: many.p99_us,
            },
        ],
        scaling_x: scaling,
        kill_requests: kill.requests,
        kill_completed: kill.completed,
        kill_gave_up: kill.refused,
        rerouted: stats.rerouted,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut args = tme_bench::init_cli();
    let quick = args.flag("--quick");
    let workers: usize = args.get_or("--workers", 2);
    let queue: usize = args.get_or("--queue", 8);
    let cost_budget: u64 = args.get_or("--cost-budget", 32_768);
    let cluster: usize = args.get_or("--cluster", 0);
    let seed: u64 = args.get_or("--seed", 42);
    if cluster == 1 {
        fail("--cluster needs at least 2 shards (omit it for the single-server suite)");
    }
    let out_path = args
        .opt("--out")
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    args.finish();
    let duration_s = if quick { 1.0 } else { 3.0 };
    // Enough serial connections that the in-flight count can exceed
    // workers + queue capacity — otherwise the queue can never fill and
    // backpressure would go untested.
    let clients = workers + queue + 4;

    let handle = match serve(ServeConfig {
        workers,
        queue_capacity: queue,
        cost_budget,
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => fail(&format!("server failed to start: {e}")),
    };
    let addr = handle.local_addr();
    println!(
        "# serve_load: server on {addr}, {workers} workers, queue {queue}, \
         cost budget {cost_budget}, seed {seed}"
    );

    let mut probe = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => fail(&format!("could not connect: {e}")),
    };

    // 1. Capacity probe: median sequential service time.
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
    let median_us = service_us[service_us.len() / 2].max(50);
    let capacity_rps = (workers as f64) * 1e6 / median_us as f64;
    println!("capacity probe: median service {median_us} µs -> ~{capacity_rps:.0} rps capacity");

    // 2. Open-loop overload ramp at three offered loads.
    let protocol_errors = AtomicU64::new(0);
    let mut rows: Vec<LoadRow> = Vec::new();
    let factors = [0.5, 1.0, 2.5];
    for (li, factor) in factors.into_iter().enumerate() {
        let offered_rps = capacity_rps * factor;
        let t0 = Instant::now();
        let out = run_load(
            addr,
            offered_rps,
            duration_s,
            clients,
            seed ^ ((li as u64 + 1) << 32),
            &protocol_errors,
        );
        let elapsed = t0.elapsed().as_secs_f64().max(1e-6);
        let mut lat = out.latencies_us.clone();
        lat.sort_unstable();
        let submitted = out.completed + out.rejected + out.expired + out.shed + out.errors;
        let row = LoadRow {
            offered_rps,
            achieved_rps: out.completed as f64 / elapsed,
            completed: out.completed,
            rejected: out.rejected,
            expired: out.expired,
            shed: out.shed,
            rejection_rate: if submitted == 0 {
                0.0
            } else {
                (out.rejected + out.shed) as f64 / submitted as f64
            },
            cache_hit_rate: if out.completed == 0 {
                0.0
            } else {
                out.cache_hits as f64 / out.completed as f64
            },
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
        };
        println!(
            "load {factor:>3}x: offered {:.0} rps, achieved {:.0} rps, {} completed / {} \
             rejected / {} shed / {} expired, p50 {} µs, p99 {} µs, cache hit {:.1}%",
            row.offered_rps,
            row.achieved_rps,
            row.completed,
            row.rejected,
            row.shed,
            row.expired,
            row.p50_us,
            row.p99_us,
            100.0 * row.cache_hit_rate
        );
        if out.errors > 0 {
            fail(&format!(
                "{} client-side errors at load {factor}x",
                out.errors
            ));
        }
        rows.push(row);
    }

    // The goodput gate: overload must not melt throughput. Achieved rps
    // at 2.5× offered load must stay within 15% of the 1× row — the
    // shed-before-decode path has to keep reject work off the CPU the
    // workers need (DESIGN.md §16.1).
    let achieved_1x = rows[1].achieved_rps;
    let achieved_over = rows[2].achieved_rps;
    if achieved_over < 0.85 * achieved_1x {
        fail(&format!(
            "goodput collapse: {achieved_over:.0} rps at 2.5x vs {achieved_1x:.0} rps at 1x \
             (gate: >= 85%)"
        ));
    }
    println!(
        "goodput gate: 2.5x achieved {achieved_over:.0} rps >= 85% of 1x {achieved_1x:.0} rps"
    );

    // 3. Closed-loop backoff leg: RetryingClients that honour the
    // adaptive retry_after_ms hint. A refusal or a dropped connection
    // after the last attempt is a legitimate terminal outcome while the
    // server is saturated.
    let per_client = if quick { 10 } else { 40 };
    let policy = BackoffPolicy {
        base_ms: 2,
        cap_ms: 500,
        max_attempts: 10,
    };
    let cl = closed_loop(
        addr,
        clients,
        per_client,
        policy,
        |_, k| u64::from(k % 8 == 0),
        seed ^ 0xC105ED,
    );
    let cl_gave_up = cl.refused + cl.dropped;
    println!(
        "closed loop: {}/{} completed, {cl_gave_up} gave up, {} backoffs, {} sheds",
        cl.completed, cl.requests, cl.retries, cl.sheds
    );
    if cl.completed + cl_gave_up != cl.requests {
        fail(&format!(
            "closed-loop accounting lost a request ({} unexpected responses or protocol errors)",
            cl.broken
        ));
    }

    // 4. Drain and final bookkeeping.
    handle.trigger_drain();
    let stats = handle.join();
    print!("--- final server stats ---\n{}", stats.to_json());

    let proto_errs = protocol_errors.load(Ordering::SeqCst) + stats.protocol_errors;
    if quick {
        let p99 = rows.iter().map(|r| r.p99_us).max().unwrap_or(0);
        if p99 > 2_000_000 {
            fail(&format!("p99 {p99} µs exceeds the 2 s quick-mode bound"));
        }
    }
    println!(
        "drain: queue high-water {} (capacity {queue}); cost {} admitted, {} released",
        stats.queue_max_depth, stats.admitted_cost, stats.released_cost
    );

    // 5. Cluster legs (opt-in): router + N floored shards.
    let cluster_report = (cluster >= 2).then(|| run_cluster(cluster, quick, seed));

    let json = tme_num::json::report("serve_load", |o| {
        o.u64("seed", seed)
            .u64("workers", workers as u64)
            .u64("queue_capacity", queue as u64)
            .u64("cost_budget", cost_budget)
            .bool("quick", quick)
            .f64("capacity_probe_rps", capacity_rps, 1)
            .u64("median_service_us", median_us)
            .u64("protocol_errors", proto_errs)
            .u64("queue_max_depth", stats.queue_max_depth)
            .u64("shed_connections", stats.shed_connections)
            .u64("rejected_before_decode", stats.rejected_before_decode)
            .f64("overall_cache_hit_rate", stats.cache_hit_rate(), 4)
            .rows("rows", &rows, |r, row| {
                row.f64("offered_rps", r.offered_rps, 1)
                    .f64("achieved_rps", r.achieved_rps, 1)
                    .u64("completed", r.completed)
                    .u64("rejected", r.rejected)
                    .u64("shed", r.shed)
                    .u64("expired", r.expired)
                    .f64("rejection_rate", r.rejection_rate, 4)
                    .f64("cache_hit_rate", r.cache_hit_rate, 4)
                    .u64("p50_us", r.p50_us)
                    .u64("p99_us", r.p99_us);
            })
            .u64("closed_loop_requests", cl.requests)
            .u64("closed_loop_completed", cl.completed)
            .u64("closed_loop_gave_up", cl_gave_up)
            .u64("closed_loop_retries", cl.retries)
            .u64("closed_loop_sheds", cl.sheds);
        if let Some(c) = &cluster_report {
            o.u64("cluster_shards", c.shards)
                .u64("cluster_floor_us", CLUSTER_FLOOR_US)
                .u64("cluster_distinct_plans", c.distinct_plans)
                .rows("cluster_rows", &c.rows, |r, row| {
                    row.u64("shards", r.shards)
                        .u64("clients", r.clients)
                        .u64("requests", r.requests)
                        .u64("completed", r.completed)
                        .f64("achieved_rps", r.achieved_rps, 1)
                        .u64("p50_us", r.p50_us)
                        .u64("p99_us", r.p99_us);
                })
                .f64("cluster_scaling_x", c.scaling_x, 2)
                .u64("cluster_kill_requests", c.kill_requests)
                .u64("cluster_kill_completed", c.kill_completed)
                .u64("cluster_kill_gave_up", c.kill_gave_up)
                .u64("cluster_rerouted", c.rerouted);
        }
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
