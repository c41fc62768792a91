//! Property and chaos tests for the serve overload pipeline
//! (DESIGN.md §16): the EDF queue's expiry contract, the admission-cost
//! ledger, shed-before-decode under hostile connection floods, and the
//! shed gate's one source of queue depth.
//!
//! Five contracts:
//!
//! 1. **Expiry ordering** — over seeded random push/pop/sweep schedules,
//!    [`Popped::Ready`] never hands out an entry whose deadline had
//!    already passed when the pop began, and everything a sweep removes
//!    was genuinely expired.
//! 2. **Cost conservation** — after a mixed workload (tight deadlines,
//!    rejections, sheds) drains, the admission ledger balances:
//!    `outstanding == 0`, `admitted == released`, and every decoded work
//!    request was answered.
//! 3. **Shed-before-decode** — a flood of half-open, garbage and
//!    slowloris connections cannot starve legitimate clients or leak
//!    admitted work: the server stays up, keeps answering, and still
//!    drains losslessly. A router over one shard, which shares the
//!    server's frame loop, survives the same flood.
//! 4. **One owner for queue depth** — the depth the shed gate reads is
//!    the queue's own: under concurrent push/pop/sweep it is exact once
//!    the queue drains, and a server whose gate tripped serves a fresh
//!    request once its backlog is gone.
//! 5. **Deadlines end to end** — a request that waits in the queue past
//!    its deadline is answered `Expired` and counted.
//!
//! The server-level tests order their events with a `min_service_us`
//! floor and by polling the server's stats, never by a sleep.

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mdgrape4a_tme::md::backend::BackendParams;
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::router::{route, RouterConfig};
use mdgrape4a_tme::serve::net::Report;
use mdgrape4a_tme::serve::queue::{Bounded, Popped};
use mdgrape4a_tme::serve::{
    serve, Client, LoadGauge, Request, Response, ServeConfig, ServeStats, ServerHandle, WireError,
};
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams};

fn dipole_request(deadline_ms: u64) -> Request {
    Request::Compute {
        deadline_ms,
        params: BackendParams::Tme(TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: alpha_from_rtol(1.0, 1e-4),
            r_cut: 1.0,
        }),
        box_l: [4.0; 3],
        pos: vec![[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
        q: vec![1.0, -1.0],
    }
}

// ---------------------------------------------------------------- 1 ---

/// Shared oracle for test 1: check one popped entry against the recorded
/// deadlines, given the instant the pop began.
fn serve_one(
    case: u64,
    deadlines: &HashMap<u64, Option<Instant>>,
    popped: Popped<u64>,
    t_before: Instant,
) {
    match popped {
        Popped::Ready(id) => {
            let dl = deadlines[&id];
            // The entry may expire *during* the pop (benign race); what
            // must never happen is serving one that was dead before the
            // pop began.
            assert!(
                !matches!(dl, Some(t) if t <= t_before),
                "case {case}: entry {id} was expired before pop, returned Ready"
            );
        }
        Popped::Expired(id) => {
            let dl = deadlines[&id];
            let now = Instant::now();
            assert!(
                matches!(dl, Some(t) if t <= now),
                "case {case}: entry {id} tagged Expired with a live deadline"
            );
        }
    }
}

/// Random schedules of pushes (expired / live / deadline-free), pops and
/// sweeps: a `Ready` pop must never return an entry that was already
/// expired when the pop started, and a sweep must only remove entries
/// expired at its cutoff.
#[test]
fn edf_pop_never_serves_an_expired_entry() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0EDF_5EED ^ (case << 8) ^ case);
        let capacity = 1 + rng.gen_index(15);
        let q: Bounded<u64> = Bounded::new(capacity);
        let mut deadlines: HashMap<u64, Option<Instant>> = HashMap::new();
        let mut next_id = 0u64;
        for _ in 0..200 {
            match rng.gen_index(5) {
                // Push (twice as likely as each drain op).
                0 | 1 => {
                    let expires_at = match rng.gen_index(3) {
                        0 => None,
                        // Already expired (or expiring immediately).
                        1 => Some(Instant::now()),
                        // Live for 0..2 ms — some will expire mid-test.
                        _ => {
                            Some(Instant::now() + Duration::from_micros(rng.gen_index(2000) as u64))
                        }
                    };
                    let id = next_id;
                    if q.try_push(id, expires_at).is_ok() {
                        deadlines.insert(id, expires_at);
                        next_id += 1;
                    }
                }
                2 | 3 => {
                    if !q.is_empty() {
                        let t_before = Instant::now();
                        let popped = q.pop().expect("non-empty queue must pop");
                        serve_one(case, &deadlines, popped, t_before);
                    }
                }
                _ => {
                    let now = Instant::now();
                    let mut out = Vec::new();
                    q.sweep_expired(now, &mut out);
                    for id in out {
                        let dl = deadlines[&id];
                        assert!(
                            matches!(dl, Some(t) if t <= now),
                            "case {case}: sweep removed live entry {id}"
                        );
                    }
                }
            }
        }
        // Drain what is left under the same contract.
        q.close();
        loop {
            let t_before = Instant::now();
            match q.pop() {
                Some(popped) => serve_one(case, &deadlines, popped, t_before),
                None => break,
            }
        }
    }
}

// ---------------------------------------------------------------- 2 ---

/// A mixed workload — tight deadlines forcing expiries, a starved cost
/// budget forcing rejections, reconnect-on-shed clients — must leave the
/// admission ledger balanced after drain, with every decoded work
/// request answered.
#[test]
fn admission_cost_ledger_balances_after_drain() {
    let handle = serve(ServeConfig {
        workers: 2,
        queue_capacity: 4,
        // Roughly two dipole computes' worth: admission itself becomes a
        // contended resource, so the rollback path gets exercised too.
        cost_budget: 48,
        ..ServeConfig::default()
    })
    .expect("server must start");
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        for c in 0..6u64 {
            scope.spawn(move || {
                let mut client: Option<Client> = None;
                for i in 0..30u64 {
                    let cl = match &mut client {
                        Some(cl) => cl,
                        None => match Client::connect(addr) {
                            Ok(cl) => client.insert(cl),
                            Err(_) => continue,
                        },
                    };
                    // Every third request carries a 1 ms deadline: queue
                    // wait alone can kill it.
                    let deadline_ms = u64::from((c + i) % 3 == 0);
                    match cl.call(&dipole_request(deadline_ms)) {
                        Ok(
                            Response::Computed { .. }
                            | Response::Rejected { .. }
                            | Response::Expired { .. },
                        ) => {}
                        Ok(other) => panic!("unexpected response {other:?}"),
                        // Shed (or dropped) — reconnect and move on.
                        Err(WireError::Shed | WireError::Io { .. }) => client = None,
                        Err(e) => panic!("protocol error {e}"),
                    }
                }
            });
        }
    });

    handle.trigger_drain();
    let stats = handle.join();
    assert_eq!(
        stats.outstanding_cost,
        0,
        "cost must drain to zero: {}",
        stats.to_json()
    );
    assert_eq!(
        stats.admitted_cost,
        stats.released_cost,
        "every admitted unit must be released exactly once: {}",
        stats.to_json()
    );
    assert!(stats.admitted_cost > 0, "some work must have been admitted");
    let answered = stats.completed + stats.rejected + stats.expired + stats.server_errors;
    let work = stats.kinds.compute + stats.kinds.nve_run + stats.kinds.estimate;
    assert_eq!(
        answered,
        work,
        "drain lost a decoded request: {}",
        stats.to_json()
    );
    assert_eq!(stats.protocol_errors, 0, "well-formed clients only");
}

// ---------------------------------------------------------------- 3 ---

/// Hostile flood: half-open connections that never send a byte,
/// connections spraying garbage frames, and slowloris writers that stall
/// mid-frame. None of it may crash the server, starve legitimate
/// clients, or break the drain invariants. The router runs the same
/// frame loop, so it takes the same flood over one shard.
#[test]
fn shed_pipeline_survives_garbage_and_half_open_floods() {
    let shard = || {
        serve(ServeConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        })
        .expect("server must start")
    };
    let handle = shard();
    let legit_completed = flood(handle.local_addr());
    handle.trigger_drain();
    let stats = handle.join();
    assert!(
        legit_completed > 0,
        "the flood starved every legitimate client"
    );
    assert!(
        stats.protocol_errors > 0,
        "the garbage flood never reached the framing layer — test is vacuous"
    );
    let answered = stats.completed + stats.rejected + stats.expired + stats.server_errors;
    let work = stats.kinds.compute + stats.kinds.nve_run + stats.kinds.estimate;
    assert_eq!(
        answered,
        work,
        "an admitted request went unanswered under flood: {}",
        stats.to_json()
    );
    assert_eq!(
        stats.outstanding_cost,
        0,
        "cost leak under flood: {}",
        stats.to_json()
    );
    assert_eq!(stats.admitted_cost, stats.released_cost);
    assert_eq!(
        stats.completed, legit_completed,
        "only legit work completes"
    );

    let backend = shard();
    let router = route(RouterConfig {
        shards: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router must start");
    let legit_completed = flood(router.local_addr());
    let stats = router.join();
    backend.trigger_drain();
    backend.join();
    assert!(
        legit_completed > 0,
        "the flood starved every legitimate client of the router"
    );
    assert!(
        stats.protocol_errors > 0,
        "the garbage flood never reached the router's framing layer: {}",
        stats.to_json()
    );
}

/// Run the four floods against `addr` while three legitimate clients
/// send 25 computes each; returns how many of those completed.
fn flood(addr: SocketAddr) -> u64 {
    let stop = AtomicBool::new(false);
    let mut legit_completed = 0u64;

    std::thread::scope(|scope| {
        // Half-open flood: connect, hold the socket silently, drop.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let conn = std::net::TcpStream::connect(addr);
                    std::thread::sleep(Duration::from_millis(20));
                    drop(conn);
                }
            });
        }
        // Garbage flood: well-framed junk payloads (guaranteed protocol
        // errors) and oversized length prefixes.
        scope.spawn(|| {
            let mut toggle = false;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    toggle = !toggle;
                    let junk: &[u8] = if toggle {
                        // 4-byte frame of 0xFF: version check fails.
                        &[4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]
                    } else {
                        // Length prefix far beyond MAX_FRAME_BYTES.
                        &[0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3]
                    };
                    let _ = s.write_all(junk);
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });
        // Slowloris: open a frame, write two bytes, stall past the
        // server's read timeout.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    let _ = s.write_all(&[16, 0]);
                    std::thread::sleep(Duration::from_millis(150));
                }
            }
        });

        // Legitimate clients, reconnecting through sheds.
        let mut legit = Vec::new();
        for _ in 0..3 {
            legit.push(scope.spawn(|| {
                let mut completed = 0u64;
                let mut client: Option<Client> = None;
                for _ in 0..25 {
                    let cl = match &mut client {
                        Some(cl) => cl,
                        None => match Client::connect(addr) {
                            Ok(cl) => client.insert(cl),
                            Err(_) => continue,
                        },
                    };
                    match cl.call(&dipole_request(0)) {
                        Ok(Response::Computed { .. }) => completed += 1,
                        Ok(Response::Rejected { retry_after_ms, .. }) => {
                            assert!(retry_after_ms > 0, "rejection must carry a hint");
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
                        }
                        Ok(other) => panic!("unexpected response {other:?}"),
                        Err(WireError::Shed | WireError::Io { .. }) => client = None,
                        Err(e) => panic!("legit client hit protocol error {e}"),
                    }
                }
                completed
            }));
        }
        for j in legit {
            legit_completed += j.join().expect("legit client must not panic");
        }
        stop.store(true, Ordering::Relaxed);
    });
    legit_completed
}

// ---------------------------------------------------------------- 4 ---

/// Connection threads drive the queue and the gauge in the server's
/// admission order (gate, sweep, reserve, push) while worker threads pop
/// and release. Once every thread is done and the queue has drained, the
/// published depth must be the true one and the gate must be open: a
/// depth stored outside the queue's lock can land after a newer one and
/// leave an empty queue reading full, which sheds every later connection.
#[test]
fn published_depth_is_exact_once_the_queue_drains() {
    const CAPACITY: usize = 4;
    for round in 0..200 {
        let q: Bounded<u64> = Bounded::new(CAPACITY);
        let gauge = LoadGauge::new(1 << 20, CAPACITY, 2, 50);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some(Popped::Ready(cost) | Popped::Expired(cost)) = q.pop() {
                        gauge.release(cost);
                    }
                });
            }
            let connections: Vec<_> = (0..4u64)
                .map(|t| {
                    let (q, gauge) = (&q, &gauge);
                    scope.spawn(move || {
                        let mut swept = Vec::new();
                        for i in 0..400u64 {
                            if gauge.overloaded(q.depth()) {
                                std::thread::yield_now();
                                continue;
                            }
                            q.sweep_expired(Instant::now(), &mut swept);
                            for cost in swept.drain(..) {
                                gauge.release(cost);
                            }
                            let cost = 1 + (i + t) % 5;
                            if !gauge.try_admit(cost) {
                                continue;
                            }
                            // Every third entry is already expired, so
                            // sweeps and expired pops remove entries too.
                            let expires_at = ((i + t) % 3 == 0).then(Instant::now);
                            if let Err(cost) = q.try_push(cost, expires_at) {
                                gauge.release(cost);
                            }
                        }
                    })
                })
                .collect();
            for c in connections {
                c.join().expect("connection thread must not panic");
            }
            q.close();
        });
        assert_eq!(
            (q.depth(), q.len()),
            (0, 0),
            "round {round}: drained queue publishes depth {}",
            q.depth()
        );
        assert!(
            !gauge.overloaded(q.depth()),
            "round {round}: the gate stays shut on an empty queue"
        );
        assert_eq!(gauge.outstanding(), 0, "round {round}: cost leaked");
    }
}

/// Poll the server's stats until `ready` holds; a state that never comes
/// fails the test instead of hanging it.
fn wait_for(handle: &ServerHandle, what: &str, ready: impl Fn(&ServeStats) -> bool) {
    let give_up = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = handle.stats();
        if ready(&stats) {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "timed out waiting for {what}: {}",
            stats.to_json()
        );
        std::thread::yield_now();
    }
}

/// One request on a fresh connection, so it passes the accept gate too.
fn call_fresh(addr: SocketAddr, req: &Request) -> Result<Response, WireError> {
    Client::connect(addr)?.call(req)
}

/// A floored single-worker server whose one queue slot trips the gate.
fn floored_server(floor_us: u64) -> ServerHandle {
    serve(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        min_service_us: floor_us,
        ..ServeConfig::default()
    })
    .expect("server must start")
}

/// Send one request and wait until the worker has taken it into its
/// floor; the returned thread yields its answer.
fn hold_worker<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    handle: &ServerHandle,
) -> std::thread::ScopedJoinHandle<'s, Result<Response, WireError>> {
    let (addr, popped) = (handle.local_addr(), handle.stats().queue_wait.count());
    let held = scope.spawn(move || call_fresh(addr, &dipole_request(0)));
    wait_for(handle, "the worker to take the request", |s| {
        s.queue_wait.count() > popped
    });
    held
}

/// Trip the shed gate on a floored server, let the backlog drain, and
/// require the idle server to compute fresh requests — five times over.
/// Every fresh request wakes an idle worker, the interleaving in which a
/// depth stored outside the queue's lock goes stale; a gate reading such
/// a depth would refuse the next request, and every one after it.
#[test]
fn gate_reopens_once_the_backlog_drains() {
    let handle = floored_server(20_000);
    let addr = handle.local_addr();
    let computed = || {
        matches!(
            call_fresh(addr, &dipole_request(0)),
            Ok(Response::Computed { .. })
        )
    };
    for cycle in 0..5 {
        for fresh in 0..12 {
            assert!(
                computed(),
                "cycle {cycle}: the idle server refused fresh request {fresh}: {}",
                handle.stats().to_json()
            );
        }
        // While the worker sits in its floor, one of two more requests
        // takes the queue slot and the other is refused. Should both
        // arrive after the floor, no refusal is seen: hold it again.
        let mut tripped = false;
        while !tripped {
            std::thread::scope(|scope| {
                let held = hold_worker(scope, &handle);
                let rest: Vec<_> = (0..2)
                    .map(|_| scope.spawn(|| call_fresh(addr, &dipole_request(0))))
                    .collect();
                for h in rest.into_iter().chain([held]) {
                    match h.join().expect("client must not panic") {
                        Ok(Response::Computed { .. }) => {}
                        Ok(Response::Rejected { .. }) | Err(WireError::Shed) => tripped = true,
                        other => panic!("cycle {cycle}: unexpected answer {other:?}"),
                    }
                }
            });
        }
        wait_for(&handle, "the backlog to drain", |s| s.outstanding_cost == 0);
    }
    assert!(computed(), "the drained server refused a fresh request");
    handle.trigger_drain();
    let stats = handle.join();
    assert_eq!(stats.admitted_cost, stats.released_cost);
}

// ---------------------------------------------------------------- 5 ---

/// A request queued behind a floored one with a deadline shorter than the
/// floor waits past it, and must come back `Expired` — unexecuted and
/// counted by the server. Should it reach the queue only after the floor
/// ended, it is computed instead; the next attempt holds the worker again.
#[test]
fn queued_request_past_its_deadline_is_answered_expired() {
    const FLOOR_US: u64 = 100_000;
    let handle = floored_server(FLOOR_US);
    let addr = handle.local_addr();
    let deadline_ms = FLOOR_US / 1000 / 10;
    let expired = (0..5).any(|_| {
        std::thread::scope(|scope| {
            let held = hold_worker(scope, &handle);
            let answer = call_fresh(addr, &dipole_request(deadline_ms));
            assert!(matches!(
                held.join().expect("client must not panic"),
                Ok(Response::Computed { .. })
            ));
            match answer {
                Ok(Response::Expired {
                    waited_ms,
                    deadline_ms: echoed,
                }) => {
                    assert_eq!(echoed, deadline_ms);
                    assert!(waited_ms >= deadline_ms, "expired after {waited_ms} ms");
                    true
                }
                Ok(Response::Computed { .. }) => false,
                other => panic!("a request queued past its deadline came back {other:?}"),
            }
        })
    });
    handle.trigger_drain();
    let stats = handle.join();
    assert!(expired, "no attempt expired: {}", stats.to_json());
    assert_eq!(stats.expired, 1, "{}", stats.to_json());
}
