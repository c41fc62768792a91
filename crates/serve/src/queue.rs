//! The bounded, expiry-ordered request queue behind admission control
//! (DESIGN.md §12.3, §16.3).
//!
//! This is the **only** queue type serve code may hold requests in — lint
//! rule L6 rejects raw `push` calls on queue-named bindings elsewhere in
//! the crate — because the whole backpressure story rests on one
//! invariant: *the queue never grows past its capacity*. A full queue
//! turns into an immediate [`Response::Rejected`] at the admission edge
//! (`try_push` fails without blocking), never into unbounded memory
//! growth or unbounded waiting.
//!
//! Ordering is **earliest-deadline-first**, not FIFO: entries carrying an
//! expiry sort ascending by expiry (ties broken FIFO by admission
//! sequence), and deadline-free entries queue FIFO behind every
//! deadlined one. Under overload this is what keeps workers off doomed
//! work — the requests most likely to still matter drain first, and the
//! ones that have already expired surface at the front where
//! [`Bounded::sweep_expired`] (run at enqueue time) and
//! [`Bounded::pop`] (which tags them [`Popped::Expired`] instead of
//! handing them out as work) retire them without a solver call.
//!
//! Built on `Mutex<VecDeque> + Condvar` only (the crate is std-only):
//! producers never block, consumers block in [`Bounded::pop`] until work
//! or close. After [`Bounded::close`], pops drain what is already queued
//! and then return `None` — exactly the graceful-drain semantics the
//! server's shutdown path needs.
//!
//! [`Response::Rejected`]: crate::protocol::Response::Rejected

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One queued entry: the payload plus its ordering key. FIFO among
/// equal keys needs no sequence number — the insert rule places a new
/// entry *after* every existing entry with an equal-or-earlier key.
struct Slot<T> {
    item: T,
    /// Absolute expiry; `None` = no deadline (sorts after every deadline).
    expires_at: Option<Instant>,
}

/// Sort key: deadlined entries ascending by expiry, then deadline-free
/// entries; equal keys fall back to admission order via the insert rule.
fn ord_key(expires_at: Option<Instant>) -> (u8, Option<Instant>) {
    match expires_at {
        Some(t) => (0, Some(t)),
        None => (1, None),
    }
}

/// What [`Bounded::pop`] handed out.
pub enum Popped<T> {
    /// Live work: execute it.
    Ready(T),
    /// The entry's expiry passed while it waited. The consumer must still
    /// answer it (the producer is blocked on the reply), but must not
    /// execute it.
    Expired(T),
}

struct Inner<T> {
    slots: VecDeque<Slot<T>>,
    closed: bool,
    /// High-water mark of the queue depth, for the stats layer.
    max_depth: usize,
}

/// A bounded multi-producer multi-consumer EDF queue (see module docs).
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                slots: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned lock means a holder panicked; the queue state itself
        // is a plain VecDeque that cannot be left mid-invariant, so
        // continue with the data rather than cascading the panic (L6:
        // no unwrap in serve).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit `item` if the queue has room and is open, slotting it into
    /// expiry order (`None` = no deadline, behind all deadlined work;
    /// equal expiries keep admission order). On success returns the queue
    /// depth *after* the push; on failure returns the item back so the
    /// caller can answer the client with a rejection. Never blocks.
    pub fn try_push(&self, item: T, expires_at: Option<Instant>) -> Result<usize, T> {
        let mut g = self.lock();
        if g.closed || g.slots.len() >= self.capacity {
            return Err(item);
        }
        let key = ord_key(expires_at);
        // First index whose key exceeds ours: equal keys stay in front of
        // us, preserving FIFO among ties.
        let at = g.slots.partition_point(|s| ord_key(s.expires_at) <= key);
        g.slots.insert(at, Slot { item, expires_at });
        let depth = g.slots.len();
        g.max_depth = g.max_depth.max(depth);
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Remove every already-expired entry (expiry ≤ `now`) into `out`, in
    /// expiry order. Expired entries form a prefix of the queue (the EDF
    /// order puts the earliest expiry first), so this is a cheap
    /// front-pop loop — run it at enqueue time so doomed work never
    /// occupies a slot a live request could use. The caller answers each
    /// removed entry (`Expired`) and releases its admission cost.
    pub fn sweep_expired(&self, now: Instant, out: &mut Vec<T>) {
        let mut g = self.lock();
        while let Some(front) = g.slots.front() {
            match front.expires_at {
                Some(t) if t <= now => {
                    if let Some(slot) = g.slots.pop_front() {
                        out.push(slot.item);
                    }
                }
                _ => break,
            }
        }
    }

    /// Block until an entry is available or the queue is closed *and*
    /// empty. `None` means closed-and-drained: the consumer should exit.
    /// An entry whose expiry has already passed comes back as
    /// [`Popped::Expired`] — the consumer answers it without executing.
    pub fn pop(&self) -> Option<Popped<T>> {
        let mut g = self.lock();
        loop {
            if let Some(slot) = g.slots.pop_front() {
                let expired = slot.expires_at.is_some_and(|t| t <= Instant::now());
                return Some(if expired {
                    Popped::Expired(slot.item)
                } else {
                    Popped::Ready(slot.item)
                });
            }
            if g.closed {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop admitting new items. Items already queued remain poppable
    /// (drain); blocked consumers wake and exit once the queue empties.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current depth (racy by nature; for stats and rejection hints).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the depth since construction.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.lock().max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn ready<T>(p: Option<Popped<T>>) -> Option<T> {
        match p {
            Some(Popped::Ready(v)) => Some(v),
            _ => None,
        }
    }

    #[test]
    fn rejects_at_capacity_without_blocking() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1, None), Ok(1));
        assert_eq!(q.try_push(2, None), Ok(2));
        // Full: the item comes straight back.
        assert_eq!(q.try_push(3, None), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 2);
        assert_eq!(ready(q.pop()), Some(1));
        // Room again.
        assert_eq!(q.try_push(4, None), Ok(2));
    }

    #[test]
    fn deadline_free_entries_stay_fifo() {
        let q = Bounded::new(8);
        for i in 0..5 {
            assert!(q.try_push(i, None).is_ok());
        }
        for i in 0..5 {
            assert_eq!(ready(q.pop()), Some(i));
        }
    }

    #[test]
    fn earliest_deadline_drains_first() {
        let q = Bounded::new(8);
        let now = Instant::now();
        let t = |ms: u64| Some(now + Duration::from_millis(ms));
        assert!(q.try_push("late", t(60_000)).is_ok());
        assert!(q.try_push("none", None).is_ok());
        assert!(q.try_push("early", t(30_000)).is_ok());
        assert!(q.try_push("mid", t(45_000)).is_ok());
        let order: Vec<_> = (0..4).filter_map(|_| ready(q.pop())).collect();
        assert_eq!(order, ["early", "mid", "late", "none"]);
    }

    #[test]
    fn equal_deadlines_keep_admission_order() {
        let q = Bounded::new(8);
        let t = Some(Instant::now() + Duration::from_secs(60));
        for i in 0..5 {
            assert!(q.try_push(i, t).is_ok());
        }
        for i in 0..5 {
            assert_eq!(ready(q.pop()), Some(i));
        }
    }

    #[test]
    fn expired_entries_are_tagged_not_served() {
        let q = Bounded::new(8);
        let past = Some(Instant::now() - Duration::from_millis(5));
        assert!(q.try_push("doomed", past).is_ok());
        assert!(q.try_push("live", None).is_ok());
        match q.pop() {
            Some(Popped::Expired("doomed")) => {}
            _ => panic!("expired entry must surface first, tagged Expired"),
        }
        assert_eq!(ready(q.pop()), Some("live"));
    }

    #[test]
    fn sweep_removes_exactly_the_expired_prefix() {
        let q = Bounded::new(8);
        let now = Instant::now();
        assert!(q
            .try_push("dead1", Some(now - Duration::from_millis(10)))
            .is_ok());
        assert!(q
            .try_push("dead2", Some(now - Duration::from_millis(5)))
            .is_ok());
        assert!(q
            .try_push("live", Some(now + Duration::from_secs(60)))
            .is_ok());
        assert!(q.try_push("none", None).is_ok());
        let mut out = Vec::new();
        q.sweep_expired(Instant::now(), &mut out);
        assert_eq!(
            out,
            ["dead1", "dead2"],
            "sweep must take the expired prefix in order"
        );
        assert_eq!(q.len(), 2, "live entries stay queued");
        assert_eq!(ready(q.pop()), Some("live"));
        assert_eq!(ready(q.pop()), Some("none"));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        assert!(q.try_push("a", None).is_ok());
        assert!(q.try_push("b", None).is_ok());
        q.close();
        // New work is refused...
        assert_eq!(q.try_push("c", None), Err("c"));
        // ...but queued work still drains, in order.
        assert_eq!(ready(q.pop()), Some("a"));
        assert_eq!(ready(q.pop()), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop().is_none());
        // Give the consumer time to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().ok(), Some(true));
    }

    #[test]
    fn items_cross_threads() {
        let q = Arc::new(Bounded::new(8));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(Popped::Ready(v) | Popped::Expired(v)) = q2.pop() {
                got.push(v);
            }
            got
        });
        for i in 0..20u32 {
            // Spin until admitted: the consumer drains concurrently.
            let mut item = i;
            loop {
                match q.try_push(item, None) {
                    Ok(_) => break,
                    Err(back) => {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        q.close();
        let mut got = consumer.join().unwrap_or_default();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
