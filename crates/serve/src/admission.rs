//! Overload-stable admission control (DESIGN.md §16).
//!
//! Past saturation a naive server spends its capacity *refusing* work —
//! accepting connections, decoding request bodies and formatting
//! rejections — and goodput collapses exactly when it matters most. This
//! module holds the two pieces that keep refusal cheap and admission
//! honest:
//!
//! * [`LoadGauge`] — a **lock-free load gauge**: a handful of atomic
//!   counters updated by the worker pool and the admission path, read by
//!   the accept loop and the connection threads to decide, *before any
//!   decode*, whether a connection or frame should be shed. It also
//!   carries the cost-budget admission ([`LoadGauge::try_admit`]) and
//!   derives the adaptive `retry_after_ms` hint from the measured drain
//!   rate ([`LoadGauge::retry_after_ms`]).
//! * [`request_cost`] — the admission-time **cost model**: every decoded
//!   work request is priced in abstract cost units (scaled to roughly a
//!   microsecond of worker time on the dev box) so admission can budget
//!   *work*, not queue slots. One paper-box `Compute` prices around
//!   twelve thousand units; a cached 16-site dipole call prices ~26 —
//!   so a single heavy tenant cannot occupy one "slot" while costing a
//!   thousand light calls' worth of worker time.
//!
//! ## Memory-ordering argument
//!
//! Every atomic here is accessed with `Ordering::Relaxed`, and that is
//! sufficient — none of these counters guards other memory:
//!
//! * The **job handoff** (the only cross-thread data transfer) goes
//!   through the bounded queue's mutex and the per-job reply channel;
//!   those provide all the happens-before edges the job payload needs.
//! * The gauge holds **no copy of the queue depth**.
//!   [`LoadGauge::overloaded`] takes the depth as an argument, read from
//!   `queue::Bounded::depth`, which the queue stores only while holding
//!   its own mutex. Those stores are ordered by the lock, so the last one
//!   is always the true depth. A lock-free read may see a depth one
//!   operation old: it can shed one admissible frame or let one surplus
//!   frame reach `try_push` (which still refuses it at capacity). It
//!   cannot outlive that decision, because no reader writes a depth back
//!   — a worker's next pop stores the truth whether or not any
//!   connection gets through.
//! * The **hysteresis latch** is a plain load/store flag written from
//!   those reads. A stale read can set it early, and the next read at or
//!   below the release point clears it; or clear it early, and the gate
//!   stays open until the queue reaches capacity again. Neither outlasts
//!   the drain. Two threads racing the latch can disagree for one
//!   decision, which routes at most one frame onto the wrong (reject
//!   vs. admit) path.
//! * The *budget* invariant (outstanding ≤ budget, and outstanding
//!   returns to zero after drain) lives entirely in single-variable
//!   `fetch_add`/`fetch_sub` pairs on `outstanding_cost`, which are
//!   atomic read-modify-writes — total order per variable is guaranteed
//!   at any ordering. The admitted/released totals are monotonic and are
//!   only compared after `ServerHandle::join`, whose thread joins give
//!   the final reads happens-before over every worker's last update.
//! * The drain-rate EWMA is a deliberately lossy load/store pair: two
//!   workers racing can drop one sample, which biases nothing (it is a
//!   smoothed hint, not an account).

use crate::protocol::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use tme_md::backend::BackendKind;

/// Relative cost of one evaluation on each backend against the TME
/// pipeline, in eighths (×8 fixed point). Every backend but Ewald sums
/// its real-space pairs through the same cell kernel, so the ratios price
/// what is left — the mesh. Crude but ordered correctly: SPME swaps the
/// tensorised cascade for full-grid FFTs (window spreading dominates; the
/// PSWF window costs a little more per point than the B-spline
/// recurrence), the slab backend sums a 3×-extended box holding up to three
/// times the atoms, and direct Ewald pays an O(N·n_cut³) lattice sum on
/// top of the exact O(N²) pair loop it keeps as the oracle.
#[must_use]
pub fn backend_cost_x8(kind: BackendKind) -> u64 {
    match kind {
        BackendKind::Tme => 8,
        BackendKind::Spme => 10,
        BackendKind::SpmePswf => 11,
        BackendKind::Slab => 32,
        BackendKind::Ewald => 64,
        // Not servable over the wire; priced as the short-range part
        // alone for completeness.
        BackendKind::Cutoff => 4,
    }
}

/// Flat admission overhead per request (channel, queue slot, response
/// encode) in cost units.
const COST_BASE: u64 = 16;

/// Hard ceiling on a single request's price: keeps `outstanding_cost`
/// arithmetic far from `u64` overflow even against hostile field values
/// (`Estimate` carries client-controlled `u64`s).
pub const MAX_REQUEST_COST: u64 = 1 << 32;

/// Price a decoded request in admission cost units. Deterministic, pure
/// and cheap (no allocation, no solver calls) — it runs on the
/// connection thread for every admitted request.
#[must_use]
pub fn request_cost(req: &Request) -> u64 {
    let raw = match req {
        Request::Compute { params, pos, .. } => {
            let atoms = pos.len() as u64;
            let vol = params.grid().map_or(0u64, |n| {
                n.iter().fold(1u64, |acc, &d| acc.saturating_mul(d as u64))
            });
            COST_BASE
                .saturating_add(atoms.saturating_mul(backend_cost_x8(params.kind())) / 64)
                .saturating_add(vol / 512)
        }
        // An NVE step over W waters is ~W short-range pair work plus a
        // fixed SPME mesh; steps multiply.
        Request::NveRun { waters, steps, .. } => {
            COST_BASE.saturating_add(waters.saturating_mul(*steps) / 2)
        }
        // The discrete-event simulator walks every module timeline once
        // per MD step; the workload size barely matters next to that.
        Request::Estimate { spec, .. } => COST_BASE.saturating_add(spec.steps.saturating_mul(4)),
        // A router-relayed request costs what the wrapped work costs —
        // the hop adds no solver work. Decode guarantees the inner
        // request is plain work, so this recursion is depth one.
        Request::Forwarded { inner, .. } => request_cost(inner),
        // Control requests never reach the queue.
        Request::Stats | Request::Shutdown { .. } => 0,
    };
    raw.min(MAX_REQUEST_COST)
}

/// Lock-free load state shared by the accept loop, the connection
/// threads and the worker pool. See the module docs for the
/// memory-ordering argument; every access is `Relaxed` on purpose.
pub struct LoadGauge {
    cost_budget: u64,
    queue_capacity: usize,
    workers: u64,
    /// Upper bound (and cold-start fallback) for the retry hint, ms.
    retry_cap_ms: u64,
    /// Cost units admitted but not yet released (queued + executing).
    outstanding_cost: AtomicU64,
    /// Connections shed at accept time with the one-byte marker.
    shed_connections: AtomicU64,
    /// Frames refused before decode on established connections.
    rejected_before_decode: AtomicU64,
    /// Monotonic totals for the balance check (admitted == released
    /// after drain).
    admitted_cost_total: AtomicU64,
    released_cost_total: AtomicU64,
    /// EWMA of worker service time per cost unit, Q10 fixed point
    /// (µs × 1024 / cost). 0 until the first completion.
    ewma_us_per_cost_q10: AtomicU64,
    /// Hysteresis latch for [`LoadGauge::overloaded`]: 1 after the gate
    /// trips, cleared only once the backlog has drained to *half* its
    /// trip point. Without the latch the gate flickers at the boundary —
    /// each dequeue momentarily opens admission, surplus connections pour
    /// a frame in, and the server pays a full read+reply per flicker.
    overload_latched: AtomicU64,
}

impl LoadGauge {
    #[must_use]
    pub fn new(cost_budget: u64, queue_capacity: usize, workers: usize, retry_cap_ms: u64) -> Self {
        Self {
            cost_budget: cost_budget.max(1),
            queue_capacity: queue_capacity.max(1),
            workers: workers.max(1) as u64,
            retry_cap_ms: retry_cap_ms.max(1),
            outstanding_cost: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            rejected_before_decode: AtomicU64::new(0),
            admitted_cost_total: AtomicU64::new(0),
            released_cost_total: AtomicU64::new(0),
            ewma_us_per_cost_q10: AtomicU64::new(0),
            overload_latched: AtomicU64::new(0),
        }
    }

    /// The shed gate: should surplus work be refused *before decode*?
    /// `queued` is the queue's own published depth. Trips when it reaches
    /// capacity or the cost budget is exhausted, and **latches** until
    /// the backlog drains well below the trip point (a quarter of the
    /// queue, half the budget — hysteresis): once the server is
    /// saturated, surplus traffic stays on the cheap shed path for most
    /// of a queue's worth of drain instead of being re-admitted one frame
    /// per dequeue. Reading the depth and the budget non-atomically, and
    /// racing on the latch, is fine — see the module docs.
    #[must_use]
    pub fn overloaded(&self, queued: usize) -> bool {
        let outstanding = self.outstanding_cost.load(Ordering::Relaxed);
        if queued >= self.queue_capacity || outstanding >= self.cost_budget {
            self.overload_latched.store(1, Ordering::Relaxed);
            return true;
        }
        if queued <= self.queue_capacity / 4 && outstanding <= self.cost_budget / 2 {
            self.overload_latched.store(0, Ordering::Relaxed);
            return false;
        }
        self.overload_latched.load(Ordering::Relaxed) != 0
    }

    /// Cost-budget admission: reserve `cost` units if they fit. A lone
    /// request always fits (otherwise a request pricier than the whole
    /// budget could never run, even on an idle server); concurrent
    /// admissions settle on the single `outstanding_cost` variable, so
    /// the reservation either holds or is rolled back — never leaks.
    #[must_use]
    pub fn try_admit(&self, cost: u64) -> bool {
        let prev = self.outstanding_cost.fetch_add(cost, Ordering::Relaxed);
        if prev != 0 && prev.saturating_add(cost) > self.cost_budget {
            self.outstanding_cost.fetch_sub(cost, Ordering::Relaxed);
            return false;
        }
        self.admitted_cost_total.fetch_add(cost, Ordering::Relaxed);
        true
    }

    /// Return `cost` units to the budget. Every admitted request must be
    /// released exactly once — on completion, expiry, or a failed push —
    /// so `outstanding` drains back to zero (checked by the balance
    /// property test and the final stats snapshot).
    pub fn release(&self, cost: u64) {
        self.outstanding_cost.fetch_sub(cost, Ordering::Relaxed);
        self.released_cost_total.fetch_add(cost, Ordering::Relaxed);
    }

    /// Record a completion: feeds the drain-rate EWMA the worker pool
    /// publishes for the retry hint and the near-expiry margin.
    pub fn note_completion(&self, cost: u64, service_us: u64) {
        let sample = (service_us.max(1) << 10) / cost.max(1);
        let old = self.ewma_us_per_cost_q10.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        // Lossy on a race (one sample dropped) — it is a hint, not an
        // account.
        self.ewma_us_per_cost_q10.store(new, Ordering::Relaxed);
    }

    pub fn note_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_rejected_before_decode(&self) {
        self.rejected_before_decode.fetch_add(1, Ordering::Relaxed);
    }

    /// Estimated worker time (µs) to execute a request of `cost` units,
    /// from the drain EWMA. 0 until the first completion is measured.
    #[must_use]
    pub fn estimated_service_us(&self, cost: u64) -> u64 {
        (self.ewma_us_per_cost_q10.load(Ordering::Relaxed)).saturating_mul(cost) >> 10
    }

    /// The adaptive retry hint: how long until the currently outstanding
    /// work has drained through the worker pool, from the measured
    /// per-cost service EWMA. Falls back to the configured cap before
    /// the first completion, and is clamped to `[1, cap]` — a hint of 0
    /// would invite an immediate, pointless retry.
    #[must_use]
    pub fn retry_after_ms(&self) -> u64 {
        let ewma = self.ewma_us_per_cost_q10.load(Ordering::Relaxed);
        if ewma == 0 {
            return self.retry_cap_ms;
        }
        let outstanding = self.outstanding_cost.load(Ordering::Relaxed).max(1);
        let drain_us = (outstanding.saturating_mul(ewma) >> 10) / self.workers;
        (drain_us / 1000).clamp(1, self.retry_cap_ms)
    }

    // ------------------------------------------------------ snapshots

    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding_cost.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn shed_connections(&self) -> u64 {
        self.shed_connections.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn rejected_before_decode_count(&self) -> u64 {
        self.rejected_before_decode.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn admitted_cost(&self) -> u64 {
        self.admitted_cost_total.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn released_cost(&self) -> u64 {
        self.released_cost_total.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn cost_budget(&self) -> u64 {
        self.cost_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_core::TmeParams;
    use tme_md::backend::BackendParams;

    fn compute_request(atoms: usize) -> Request {
        Request::Compute {
            deadline_ms: 0,
            params: BackendParams::Tme(TmeParams {
                n: [16; 3],
                p: 6,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                alpha: 3.2,
                r_cut: 1.0,
            }),
            box_l: [4.0; 3],
            pos: vec![[1.0; 3]; atoms],
            q: vec![0.0; atoms],
        }
    }

    #[test]
    fn cost_scales_with_atoms_and_backend() {
        let small = request_cost(&compute_request(16));
        let big = request_cost(&compute_request(98_319));
        assert!(small < 64, "small cached call must price light: {small}");
        assert!(
            big > 100 * small,
            "paper box ({big}) must dwarf the dipole call ({small})"
        );
        // Control requests are free (they never reach the queue).
        assert_eq!(request_cost(&Request::Stats), 0);
        assert_eq!(request_cost(&Request::Shutdown { drain: true }), 0);
        // Hostile Estimate fields cannot overflow the budget arithmetic.
        let hostile = Request::Estimate {
            deadline_ms: 0,
            spec: crate::protocol::EstimateSpec {
                backend: BackendKind::Tme,
                n_atoms: u64::MAX,
                grid: u64::MAX,
                levels: u32::MAX,
                gc: u64::MAX,
                m_gaussians: u64::MAX,
                r_cut: 1.0,
                box_l: [4.0; 3],
                steps: u64::MAX,
            },
        };
        assert_eq!(request_cost(&hostile), MAX_REQUEST_COST);
    }

    #[test]
    fn budget_admission_reserves_and_rolls_back() {
        let g = LoadGauge::new(100, 8, 2, 50);
        assert!(g.try_admit(60));
        assert!(g.try_admit(40)); // exactly at budget
        assert!(!g.try_admit(1)); // over budget: rolled back
        assert_eq!(g.outstanding(), 100);
        g.release(60);
        assert!(g.try_admit(55)); // freed room is reusable
        g.release(40);
        g.release(55);
        assert_eq!(g.outstanding(), 0);
        assert_eq!(g.admitted_cost(), g.released_cost());
    }

    #[test]
    fn a_lone_oversized_request_always_fits() {
        let g = LoadGauge::new(100, 8, 2, 50);
        assert!(g.try_admit(10_000), "idle server must accept any price");
        assert!(!g.try_admit(1), "budget is exhausted while it runs");
        g.release(10_000);
        assert_eq!(g.outstanding(), 0);
    }

    #[test]
    fn overload_gate_tracks_queue_and_budget() {
        let g = LoadGauge::new(100, 2, 1, 50);
        assert!(!g.overloaded(0));
        assert!(g.overloaded(2), "queue at capacity");
        assert!(g.overloaded(1), "hysteresis holds at 1/2");
        assert!(!g.overloaded(0), "released once drained");
        assert!(g.try_admit(100));
        assert!(g.overloaded(0), "budget exhausted");
        g.release(100);
        assert!(!g.overloaded(0));
    }

    #[test]
    fn overload_gate_latches_until_mostly_drained() {
        let g = LoadGauge::new(1_000, 8, 2, 50);
        assert!(g.overloaded(8), "trip at capacity");
        // Draining below capacity does NOT reopen admission...
        assert!(g.overloaded(6), "latched at 6/8");
        assert!(g.overloaded(3), "latched at 3/8");
        // ...until the backlog reaches a quarter of the trip point.
        assert!(!g.overloaded(2), "released at 2/8");
        // And the gate re-trips cleanly.
        assert!(g.overloaded(8));
    }

    #[test]
    fn retry_hint_adapts_to_drain_rate_and_stays_clamped() {
        let g = LoadGauge::new(10_000, 8, 2, 50);
        // Cold start: fall back to the cap.
        assert_eq!(g.retry_after_ms(), 50);
        // 30-unit jobs measured at 1200 µs each → 40 µs/unit. With 600
        // units outstanding over 2 workers, drain ≈ 12 ms.
        for _ in 0..32 {
            g.note_completion(30, 1200);
        }
        assert!(g.try_admit(600));
        let hint = g.retry_after_ms();
        assert!((4..=50).contains(&hint), "hint {hint} ms out of range");
        // More outstanding work → a longer (but capped) hint.
        assert!(g.try_admit(6000));
        let longer = g.retry_after_ms();
        assert!(longer >= hint && longer <= 50, "hint {longer}");
        g.release(600);
        g.release(6000);
        // Near-idle → minimum 1 ms, never 0.
        assert!(g.retry_after_ms() >= 1);
    }

    #[test]
    fn estimated_service_tracks_the_ewma() {
        let g = LoadGauge::new(10_000, 8, 2, 50);
        assert_eq!(g.estimated_service_us(30), 0, "no data yet");
        for _ in 0..32 {
            g.note_completion(30, 1500);
        }
        let est = g.estimated_service_us(30);
        assert!(
            (750..=3000).contains(&est),
            "estimate {est} µs far from the 1500 µs sample"
        );
    }

    #[test]
    fn concurrent_admission_balances_to_zero() {
        let g = std::sync::Arc::new(LoadGauge::new(1_000, 8, 4, 50));
        std::thread::scope(|s| {
            for t in 0..4 {
                let g = std::sync::Arc::clone(&g);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let cost = 1 + (i * 7 + t) % 97;
                        if g.try_admit(cost) {
                            g.note_completion(cost, cost * 3);
                            g.release(cost);
                        }
                    }
                });
            }
        });
        assert_eq!(g.outstanding(), 0);
        assert_eq!(g.admitted_cost(), g.released_cost());
        assert!(g.admitted_cost() > 0, "some admissions must have landed");
    }
}
