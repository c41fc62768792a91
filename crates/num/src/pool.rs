//! Minimal in-tree scoped thread pool for deterministic data parallelism.
//!
//! The TME pipeline is embarrassingly parallel at several grain sizes (the
//! GCU streams independent grid lines, the LRU processes independent
//! particles), but the workspace is dependency-free, so this module provides
//! the smallest pool that supports the execute phase of the plan/execute
//! split:
//!
//! * **Persistent workers** — `threads - 1` worker threads are spawned once
//!   (the calling thread acts as worker 0) and parked on a condvar between
//!   dispatches. Dispatching a job copies a fat pointer into shared state
//!   and performs **no heap allocation**, which is what lets the steady-state
//!   `Tme::compute_with` execute loop stay allocation-free at any thread
//!   count.
//! * **Deterministic parts, claimed dynamically** — work is expressed as
//!   `parts` numbered chunks whose boundaries depend only on the part count,
//!   never on the thread count. A dispatch publishes its parts behind one
//!   atomic cursor, and every worker, the caller included, claims the next
//!   unclaimed part until none is left, so a slow or preempted worker
//!   delays only the part it holds. Which worker runs a part changes nothing: each
//!   part's state is its own, and reductions accumulate per *part* and
//!   merge serially in part order (`DESIGN.md` §9), so every result is
//!   bitwise identical for any `TME_THREADS` value. The `worker` index only
//!   selects per-worker scratch.
//! * **Panic propagation** — a panic in any worker (or in the caller's own
//!   share) is captured, the dispatch still quiesces, and the payload is
//!   re-raised on the calling thread.
//!
//! The pool size comes from `TME_THREADS` when set, otherwise from
//! [`std::thread::available_parallelism`]. Nested dispatches from inside a
//! pool closure run inline on the calling worker, so library code can use
//! the global pool without worrying about composition deadlocks. The same
//! rule covers *concurrent* callers of one shared pool: the dispatch state
//! holds one job, so a caller that finds the pool busy runs its parts
//! inline instead of overwriting that job.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// Fixed part boundaries: part `part` of `parts` covers
/// `[len·part/parts, len·(part+1)/parts)`. Boundaries depend only on
/// `(len, parts)`, never on the executing thread count — the foundation of
/// the deterministic-reduction rule.
#[must_use]
pub fn chunk_bounds(len: usize, parts: usize, part: usize) -> (usize, usize) {
    (len * part / parts, len * (part + 1) / parts)
}

/// The ordered-merge rule as a named helper: fold per-part partial results
/// into `acc` serially, in ascending part index. Every reduction over pool
/// worker output must flow through this (or write disjoint regions via
/// [`SendPtr`]/[`Pool::for_each_chunk`]) so the floating-point accumulation
/// order — and therefore every bit of the result — is independent of the
/// thread count. `tme-analyze` rule a3 flags fan-out sites that merge any
/// other way.
pub fn merge_ordered<T, A>(parts: &[T], acc: &mut A, mut merge: impl FnMut(&mut A, usize, &T)) {
    for (part, p) in parts.iter().enumerate() {
        merge(acc, part, p);
    }
}

/// A dispatched job: a lifetime-erased borrow of the caller's closure and
/// its part count.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize, usize) + Sync),
    parts: usize,
}

struct State {
    /// Bumped once per dispatch; workers detect new work by epoch change.
    epoch: u64,
    /// The job in flight; cleared once its caller has run out of parts, so
    /// a worker waking after that never touches it.
    job: Option<Job>,
    /// Workers that took the current job and have not yet finished with it.
    active: usize,
    /// First panic payload captured from a worker this dispatch.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    /// Held by the one caller whose job occupies `state`, from publishing
    /// it until its workers have quiesced and its panic slot is read.
    gate: Mutex<()>,
    state: Mutex<State>,
    /// The next unclaimed part of the job in flight.
    next: AtomicUsize,
    /// Signalled on new work (and shutdown).
    work: Condvar,
    /// Signalled when the last active worker finishes with a job.
    done: Condvar,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// True while this thread is executing pool work (worker threads always,
    /// the calling thread during its own share). Nested dispatches run
    /// inline instead of deadlocking on the busy workers.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f(part, worker)` for every part of `0..parts` this thread claims
/// from `next`, until none is left.
fn claim_parts(next: &AtomicUsize, parts: usize, f: &(dyn Fn(usize, usize) + Sync), worker: usize) {
    loop {
        let part = next.fetch_add(1, Ordering::Relaxed);
        if part >= parts {
            return;
        }
        f(part, worker);
    }
}

/// Clears the job in `drop`, so no worker takes it any more, then blocks
/// until every worker that took it has finished with it. This runs even
/// when the caller's own parts panic, so the lifetime-erased closure
/// borrow can never dangle.
struct DispatchGuard<'a> {
    shared: &'a Shared,
}

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.job = None;
        while st.active > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn worker_main(shared: &Shared, w: usize) {
    IN_POOL.with(|flag| flag.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if st.job.is_some() {
                        st.active += 1;
                    }
                    break st.job;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { continue };
        let result = catch_unwind(AssertUnwindSafe(|| {
            claim_parts(&shared.next, job.parts, job.f, w);
        }));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// A fixed-size pool of persistent worker threads that claim fixed parts.
/// See the module docs for the execution model.
pub struct Pool {
    threads: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// `TME_THREADS` if set and parseable, else the OS-reported parallelism.
fn env_threads() -> usize {
    if let Some(t) = std::env::var("TME_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        return t.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

impl Pool {
    /// Pool with `threads` total workers (including the calling thread);
    /// clamped to at least 1. If the OS refuses to spawn a thread the pool
    /// degrades to however many workers it got. Returns once every worker
    /// thread is running.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            gate: Mutex::new(()),
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            next: AtomicUsize::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        let (running, started) = std::sync::mpsc::channel();
        for w in 1..threads {
            let sh = Arc::clone(&shared);
            let running = running.clone();
            let builder = std::thread::Builder::new().name(format!("tme-pool-{w}"));
            match builder.spawn(move || {
                let _ = running.send(());
                worker_main(&sh, w);
            }) {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        // Return only once every worker runs: a thread that is still
        // starting allocates (std copies its name), and that must not land
        // in a caller's allocation-free steady state.
        for _ in &handles {
            let _ = started.recv();
        }
        let threads = handles.len() + 1;
        Pool {
            threads,
            shared,
            handles,
        }
    }

    /// Pool sized from `TME_THREADS` (default: `available_parallelism`).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(env_threads())
    }

    /// The process-wide shared pool, created on first use from the
    /// environment. Library entry points that have no explicit pool use this.
    pub fn global() -> &'static Arc<Pool> {
        GLOBAL.get_or_init(|| Arc::new(Pool::from_env()))
    }

    /// Total worker count, including the calling thread.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(part, worker)` for every `part` in `0..parts`, each part once,
    /// claimed by whichever worker is free next. `worker` is the index of
    /// the executing worker in `0..threads()`; at most one closure
    /// invocation runs per worker index at any instant, so `worker` may
    /// index per-worker scratch — but which parts a worker runs is not
    /// fixed, so nothing a part computes may depend on it.
    ///
    /// Blocks until all parts are complete. Performs no heap allocation.
    /// Panics from any part are re-raised here after the dispatch quiesces.
    pub fn run_parts<F: Fn(usize, usize) + Sync>(&self, parts: usize, f: F) {
        if parts == 0 {
            return;
        }
        let inline = || (0..parts).for_each(|part| f(part, 0));
        if self.threads == 1 || parts == 1 || IN_POOL.with(Cell::get) {
            return inline();
        }
        // `State` holds one job: a second caller dispatching while the first
        // is in flight would overwrite `job`/`next`/`epoch` under it (hang,
        // or return while workers still hold its erased closure). A
        // contended caller therefore runs its parts inline — same parts,
        // same order, bitwise identical by construction, like nesting.
        let _gate = match self.shared.gate.try_lock() {
            Ok(gate) => gate,
            // A propagated panic unwound through a holder; the state it
            // guards was quiesced by `DispatchGuard` first.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return inline(),
        };
        let f_ref: &(dyn Fn(usize, usize) + Sync) = &f;
        // SAFETY: only the lifetime is transmuted (identical fat-pointer
        // layout). The erased borrow is published to workers below, and
        // `DispatchGuard` — even while unwinding — clears the job slot, so
        // no worker takes it after that, and blocks until every worker that
        // took it has finished with it, so the borrow never outlives `f`.
        let f_static: &'static (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(f_ref) };
        {
            let mut st = lock(&self.shared.state);
            // No worker holds the last job (its guard saw `active == 0`),
            // so nothing races this reset.
            self.shared.next.store(0, Ordering::Relaxed);
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(Job { f: f_static, parts });
            st.panic = None;
            self.shared.work.notify_all();
        }
        IN_POOL.with(|flag| flag.set(true));
        let guard = DispatchGuard {
            shared: &self.shared,
        };
        let main_result = catch_unwind(AssertUnwindSafe(|| {
            claim_parts(&self.shared.next, parts, &f, 0);
        }));
        drop(guard);
        IN_POOL.with(|flag| flag.set(false));
        let worker_panic = lock(&self.shared.state).panic.take();
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// True when splitting `work_items` over this pool would leave each
    /// thread less than `min_per_thread` items of work. Below that point a
    /// dispatch costs more in wake-up/quiesce latency than the parallelism
    /// recovers, so callers should run the same part schedule inline
    /// ([`Pool::run_parts_sized`] does exactly that). The decision changes
    /// only *where* parts execute, never the part boundaries or the merge
    /// order, so results stay bitwise identical either way.
    #[must_use]
    pub fn should_serialize(&self, work_items: usize, min_per_thread: usize) -> bool {
        self.threads > 1 && work_items < min_per_thread.saturating_mul(self.threads)
    }

    /// [`Pool::run_parts`] with per-thread work sizing: when `work_items`
    /// split over the pool falls below `min_per_thread` items per thread
    /// (see [`Pool::should_serialize`]), every part runs inline on the
    /// calling thread — same parts, same order, same worker-0 scratch —
    /// instead of waking the workers. Bitwise-identical output by
    /// construction; only the dispatch cost changes.
    pub fn run_parts_sized<F: Fn(usize, usize) + Sync>(
        &self,
        parts: usize,
        work_items: usize,
        min_per_thread: usize,
        f: F,
    ) {
        if self.should_serialize(work_items, min_per_thread) {
            for part in 0..parts {
                f(part, 0);
            }
            return;
        }
        self.run_parts(parts, f);
    }

    /// Split `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be short) and run `f(chunk_index, chunk)` for each across
    /// the pool. Chunk boundaries depend only on `(data.len(), chunk_len)`,
    /// so per-chunk results are reproducible at any thread count.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        if len == 0 {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let parts = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.run_parts(parts, |part, _worker| {
            let start = part * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: distinct parts cover pairwise-disjoint index ranges of
            // `data`, each part runs exactly once, and `run_parts` does not
            // return until all parts finish — so each reconstructed
            // sub-slice is an exclusive borrow for its part's duration.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(part, chunk);
        });
    }

    /// [`Pool::for_each_chunk`] with the per-thread work sizing of
    /// [`Pool::run_parts_sized`]: below `min_per_thread` items of
    /// `work_items` per thread the chunks run inline on the calling
    /// thread. Chunk boundaries and visit order are unchanged, so results
    /// are bitwise identical to the dispatched form.
    pub fn for_each_chunk_sized<T, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        work_items: usize,
        min_per_thread: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if self.should_serialize(work_items, min_per_thread) {
            let chunk_len = chunk_len.max(1);
            for (part, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(part, chunk);
            }
            return;
        }
        self.for_each_chunk(data, chunk_len, f);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Raw-pointer wrapper that lets pool closures hand out *disjoint* regions
/// of one buffer to different parts. Constructing one is safe; every
/// dereference needs its own `unsafe` block whose SAFETY argument explains
/// the disjointness.
#[derive(Debug)]
pub struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// The wrapped address. Use this (not field access) inside pool
    /// closures: edition-2021 disjoint capture would otherwise capture the
    /// bare `*mut T` field, which is not `Sync`.
    #[inline]
    #[must_use]
    pub fn get(self) -> *mut T {
        self.0
    }
}

// Manual impls: the derive would add unwanted `T: Copy`/`T: Clone` bounds
// (the wrapper copies an address, never a `T`).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: SendPtr is a plain address; sending it between threads is sound
// because all dereferences are gated behind caller `unsafe` blocks that must
// justify exclusive access to the region they touch.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same argument as Send — shared copies of the address are inert
// until a caller-justified `unsafe` dereference.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn merge_ordered_folds_in_ascending_part_order() {
        let parts = [1.0f64, 2.0, 3.0, 4.0];
        let mut seen = Vec::new();
        let mut sum = 0.0;
        merge_ordered(&parts, &mut sum, |acc, part, p| {
            seen.push(part);
            *acc += *p;
        });
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn chunk_bounds_cover_range_without_overlap() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 13] {
                let mut next = 0;
                for part in 0..parts {
                    let (lo, hi) = chunk_bounds(len, parts, part);
                    assert_eq!(lo, next, "len={len} parts={parts} part={part}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn for_each_chunk_writes_every_element_once() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 1003];
            pool.for_each_chunk(&mut data, 17, |part, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + u32::try_from(part).unwrap_or(0);
                }
            });
            for (i, v) in data.iter().enumerate() {
                let part = i / 17;
                assert_eq!(*v, 1 + u32::try_from(part).unwrap_or(0), "i={i}");
            }
        }
    }

    #[test]
    fn reduction_is_identical_across_thread_counts() {
        // Per-part partial sums merged in part order must be bitwise stable
        // for any thread count (the deterministic-reduction rule).
        const PARTS: usize = 16;
        let data: Vec<f64> = (0..10_000).map(|i| f64::from(i).sin() * 1e-3).collect();
        let reduce = |pool: &Pool| {
            let mut partials = [0.0f64; PARTS];
            pool.for_each_chunk(&mut partials, 1, |part, slot| {
                let (lo, hi) = chunk_bounds(data.len(), PARTS, part);
                let mut acc = 0.0;
                for &x in &data[lo..hi] {
                    acc += x;
                }
                slot[0] = acc;
            });
            let mut total = 0.0;
            for p in &partials {
                total += p;
            }
            total
        };
        let serial = reduce(&Pool::new(1));
        for threads in [2usize, 3, 4, 8] {
            let got = reduce(&Pool::new(threads));
            assert_eq!(serial.to_bits(), got.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn every_part_runs_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run_parts(hits.len(), |part, _worker| {
            hits[part].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "part {i}");
        }
    }

    /// Uneven parts on a 2-thread pool: part 0 holds its worker until every
    /// other part has run. Under a static schedule that worker would own
    /// half the parts and the call would wait out the deadline; claimed
    /// parts let the other worker take them all. Each part runs once, on a
    /// worker index below `threads()`, and no index runs two parts at once.
    #[test]
    fn a_free_worker_claims_the_parts_a_slow_one_would_have_owned() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const PARTS: usize = 8;
        let pool = Pool::new(2);
        if pool.threads() < 2 {
            eprintln!("skipping: the OS gave the pool no second thread");
            return;
        }
        let runs: [AtomicUsize; PARTS] = Default::default();
        let ran_on: [AtomicUsize; PARTS] = Default::default();
        let busy: [AtomicBool; 2] = Default::default();
        let others_done = AtomicUsize::new(0);
        pool.run_parts(PARTS, |part, worker| {
            assert!(worker < pool.threads(), "worker {worker}");
            assert!(
                !busy[worker].swap(true, Ordering::SeqCst),
                "worker {worker} runs two parts at once"
            );
            runs[part].fetch_add(1, Ordering::SeqCst);
            ran_on[part].store(worker, Ordering::SeqCst);
            if part == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while others_done.load(Ordering::SeqCst) < PARTS - 1 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            busy[worker].store(false, Ordering::SeqCst);
        });
        for (part, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "part {part}");
        }
        let slow = ran_on[0].load(Ordering::SeqCst);
        for (part, w) in ran_on.iter().enumerate().skip(1) {
            assert_ne!(
                w.load(Ordering::SeqCst),
                slow,
                "part {part} waited for the worker held by part 0"
            );
        }
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = Pool::new(4);
        let count = AtomicUsize::new(0);
        pool.run_parts(8, |_, _| {
            // A nested dispatch must not deadlock on the busy workers.
            pool.run_parts(4, |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    /// The contended interleaving, forced: caller A's dispatch is held in
    /// flight (its part 0 blocks on a channel) while caller B dispatches on
    /// the same pool. B must complete all its parts — inline — without
    /// touching A's job, and A must still finish normally afterwards.
    #[test]
    fn contended_caller_runs_inline_while_a_dispatch_is_in_flight() {
        let pool = Pool::new(2);
        let (a_in_flight, wait_a) = std::sync::mpsc::channel::<()>();
        let (b_done, wait_b) = std::sync::mpsc::channel::<()>();
        let wait_b = Mutex::new(wait_b); // a `Receiver` is not `Sync`
        let a_parts = AtomicUsize::new(0);
        let b_parts = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run_parts(2, |part, _| {
                    if part == 0 {
                        a_in_flight.send(()).unwrap();
                        wait_b.lock().unwrap().recv().unwrap();
                    }
                    a_parts.fetch_add(1, Ordering::Relaxed);
                });
            });
            wait_a.recv().unwrap();
            pool.run_parts(4, |_, worker| {
                assert_eq!(worker, 0, "a contended caller runs on its own thread");
                b_parts.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(b_parts.load(Ordering::Relaxed), 4);
            b_done.send(()).unwrap();
        });
        assert_eq!(a_parts.load(Ordering::Relaxed), 2);
    }

    /// Regression for the `cargo test` flake at `TME_THREADS=2`: callers on
    /// several threads dispatching on one shared pool used to overwrite each
    /// other's job slot. Every caller must see each of its parts run exactly
    /// once, and no call may hang or return early.
    #[test]
    fn concurrent_callers_on_one_pool_each_run_every_part_once() {
        const CALLERS: usize = 6;
        const ROUNDS: usize = 300;
        const PARTS: usize = 8;
        let pool = Pool::new(2);
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|s| {
            for caller in 0..CALLERS {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let hits: [AtomicUsize; PARTS] = Default::default();
                        pool.run_parts(PARTS, |part, _| {
                            hits[part].fetch_add(1, Ordering::Relaxed);
                        });
                        // `run_parts` has returned: nothing may still be
                        // running against `hits`, and nothing was skipped.
                        for (part, h) in hits.iter().enumerate() {
                            let n = h.load(Ordering::Relaxed);
                            assert_eq!(n, 1, "caller {caller} round {round} part {part}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_parts(16, |part, _| {
                assert!(part != 11, "boom at part 11");
            });
        }));
        assert!(caught.is_err());
        // The pool must still be usable after a propagated panic (which
        // unwound through, and poisoned, the dispatch gate).
        let count = AtomicUsize::new(0);
        pool.run_parts(16, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn chunk_bounds_len_smaller_than_parts() {
        // With fewer items than parts, every item is still covered exactly
        // once and the trailing parts are empty — never out of range.
        let (len, parts) = (3usize, 8usize);
        let mut next = 0;
        for part in 0..parts {
            let (lo, hi) = chunk_bounds(len, parts, part);
            assert_eq!(lo, next, "part={part}");
            assert!(hi >= lo && hi <= len, "part={part}");
            next = hi;
        }
        assert_eq!(next, len);
        // At least parts − len of the parts must be empty.
        let empty = (0..parts)
            .filter(|&p| {
                let (lo, hi) = chunk_bounds(len, parts, p);
                lo == hi
            })
            .count();
        assert!(empty >= parts - len);
    }

    #[test]
    fn chunk_bounds_empty_input() {
        for parts in [1usize, 2, 7] {
            for part in 0..parts {
                assert_eq!(chunk_bounds(0, parts, part), (0, 0));
            }
        }
    }

    #[test]
    fn chunk_bounds_single_part_covers_everything() {
        for len in [0usize, 1, 5, 1000] {
            assert_eq!(chunk_bounds(len, 1, 0), (0, len));
        }
    }

    /// Property test for the serial-fallback contract: for random work
    /// sizes, a sized dispatch forced serial (huge per-thread minimum) and
    /// the same dispatch forced parallel (zero minimum) must produce
    /// bitwise-identical reductions on a multi-thread pool.
    #[test]
    fn serial_fallback_is_bitwise_identical_to_forced_parallel() {
        const PARTS: usize = 16;
        let pool = Pool::new(4);
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xB17);
        for trial in 0..20 {
            let len = 1 + (rng.next_u64() as usize % 5000);
            let data: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let reduce = |min_per_thread: usize| {
                let mut partials = [0.0f64; PARTS];
                let slots = SendPtr(partials.as_mut_ptr());
                pool.run_parts_sized(PARTS, len, min_per_thread, |part, _| {
                    let (lo, hi) = chunk_bounds(data.len(), PARTS, part);
                    let mut acc = 0.0;
                    for &x in &data[lo..hi] {
                        acc += (x * 3.7).sin() * x;
                    }
                    // SAFETY: each part writes only its own slot.
                    unsafe {
                        *slots.get().add(part) = acc;
                    }
                });
                let mut total = 0.0;
                merge_ordered(&partials, &mut total, |t, _, p| *t += *p);
                total
            };
            let serial = reduce(usize::MAX); // always below threshold -> inline
            assert!(pool.should_serialize(len, usize::MAX));
            let parallel = reduce(0); // never below threshold -> dispatched
            assert!(!pool.should_serialize(len, 0));
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "trial={trial} len={len}"
            );
        }
    }

    #[test]
    fn sized_chunk_dispatch_matches_plain_dispatch() {
        let pool = Pool::new(4);
        for min_per_thread in [0usize, usize::MAX] {
            let mut data = vec![0u32; 317];
            let items = data.len();
            pool.for_each_chunk_sized(&mut data, 10, items, min_per_thread, |part, chunk| {
                for v in chunk.iter_mut() {
                    *v = 1 + u32::try_from(part).unwrap_or(0);
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + u32::try_from(i / 10).unwrap_or(0), "i={i}");
            }
        }
    }

    #[test]
    fn pool_reports_at_least_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::from_env().threads() >= 1);
        assert!(Pool::global().threads() >= 1);
    }
}
