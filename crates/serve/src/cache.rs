//! The plan cache (DESIGN.md §12.2).
//!
//! Planning is the expensive part of a one-shot request — `Tme::try_new`
//! fits Gaussians, folds kernels and tabulates pair potentials; SPME
//! plans tabulate window transforms — tens of milliseconds against a
//! sub-millisecond execute for small systems. Repeat clients (an MD
//! facility's workloads are dominated by a handful of configurations)
//! should pay it once. The cache maps a 64-bit **plan fingerprint**
//! ([`BackendParams::fingerprint`]: FNV-1a over the backend kind tag, the
//! exact bits of every parameter field, and the box) to a shared
//! `Arc<dyn LongRangeBackend>` plan, with LRU eviction at a fixed
//! capacity.
//!
//! Keying on raw `f64` bits makes the key exact, but FNV-1a is not
//! collision-resistant: a hostile tenant could craft two configurations
//! with the same 64-bit fingerprint. Every entry therefore also stores
//! its [`BackendParams`] and box, and a lookup only hits when the
//! fingerprint **and** the full parameter set match structurally — so a
//! cache hit can never change numerical results, even under deliberate
//! collisions. Colliding configurations simply occupy
//! separate entries. Workspaces are *not* cached here — they are mutable
//! per-worker state; each worker keeps its own small
//! [`tme_md::backend::BackendWorkspace`] LRU tied to the plan instance.

use std::sync::Arc;
use tme_md::backend::{BackendConfigError, BackendParams, LongRangeBackend};

/// Exact 64-bit fingerprint of a solver configuration: the backend kind
/// tag, every parameter field and the box lengths, floats by raw bits.
/// Delegates to [`BackendParams::fingerprint`] so the serve cache key is
/// the same value the backend layer (and the router's shard choice) use.
#[must_use]
pub fn config_fingerprint(params: &BackendParams, box_l: [f64; 3]) -> u64 {
    params.fingerprint(box_l)
}

/// One cached plan: the fingerprint plus the exact configuration that
/// produced it, so a fingerprint collision can be detected on lookup.
struct Entry {
    key: u64,
    params: BackendParams,
    box_l: [f64; 3],
    plan: Arc<dyn LongRangeBackend>,
}

/// LRU cache of planned solvers, keyed by [`config_fingerprint`] with a
/// structural parameter check on every hit.
///
/// A `Vec` ordered most-recently-used-first: capacities are single-digit
/// to low tens (each plan holds kernel tables and FFT state), so linear
/// scans beat any pointer-chasing structure and keep the type std-only.
pub struct PlanCache {
    entries: Vec<Entry>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch the plan for `(params, box_l)`, building it with `build` on
    /// a miss. Returns the plan and whether it was a cache hit. A hit
    /// requires both the fingerprint and the stored configuration to
    /// match — a crafted fingerprint collision builds (and caches) its
    /// own entry instead of serving another tenant's plan. A failed
    /// build is not cached (the next identical request retries), and
    /// still counts as a miss.
    pub fn get_or_try_build(
        &mut self,
        params: &BackendParams,
        box_l: [f64; 3],
        build: impl FnOnce() -> Result<Arc<dyn LongRangeBackend>, BackendConfigError>,
    ) -> Result<(Arc<dyn LongRangeBackend>, bool), BackendConfigError> {
        let key = config_fingerprint(params, box_l);
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.key == key && e.params == *params && e.box_l == box_l)
        {
            self.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.insert(0, entry);
            return Ok((Arc::clone(&self.entries[0].plan), true));
        }
        self.misses += 1;
        let plan = build()?;
        if self.entries.len() >= self.capacity {
            self.entries.pop();
        }
        self.entries.insert(
            0,
            Entry {
                key,
                params: *params,
                box_l,
                plan: Arc::clone(&plan),
            },
        );
        Ok((plan, false))
    }

    /// `(hits, misses)` since construction.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_core::TmeParams;
    use tme_md::backend::{plan_backend, SpmeParams};

    fn params(n: usize) -> BackendParams {
        BackendParams::Tme(TmeParams {
            n: [n; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: 3.2,
            r_cut: 1.0,
        })
    }

    #[test]
    fn fingerprint_separates_configs_and_is_stable() {
        let a = config_fingerprint(&params(16), [4.0; 3]);
        assert_eq!(a, config_fingerprint(&params(16), [4.0; 3]));
        assert_ne!(a, config_fingerprint(&params(32), [4.0; 3]));
        assert_ne!(a, config_fingerprint(&params(16), [8.0; 3]));
        let mut p = params(16);
        if let BackendParams::Tme(ref mut t) = p {
            t.alpha = 3.200_000_000_000_001;
        }
        assert_ne!(a, config_fingerprint(&p, [4.0; 3]));
        // The kind tag is part of the key: an SPME plan with the same
        // grid/order/splitting must not alias the TME plan.
        let spme = BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 6,
            alpha: 3.2,
            r_cut: 1.0,
        });
        assert_ne!(a, config_fingerprint(&spme, [4.0; 3]));
    }

    #[test]
    fn second_identical_request_hits_and_shares_the_plan() -> Result<(), BackendConfigError> {
        let mut cache = PlanCache::new(2);
        let p = params(16);
        let (first, hit1) = cache.get_or_try_build(&p, [4.0; 3], || plan_backend(&p, [4.0; 3]))?;
        let (second, hit2) = cache.get_or_try_build(&p, [4.0; 3], || plan_backend(&p, [4.0; 3]))?;
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the plan");
        assert_eq!(cache.counters(), (1, 1));
        Ok(())
    }

    #[test]
    fn lru_evicts_the_coldest_plan() -> Result<(), BackendConfigError> {
        let mut cache = PlanCache::new(2);
        let (p16, p32, p64) = (params(16), params(32), params(64));
        cache.get_or_try_build(&p16, [4.0; 3], || plan_backend(&p16, [4.0; 3]))?;
        cache.get_or_try_build(&p32, [8.0; 3], || plan_backend(&p32, [8.0; 3]))?;
        // Touch 16 so 32 becomes coldest, then insert a third.
        cache.get_or_try_build(&p16, [4.0; 3], || plan_backend(&p16, [4.0; 3]))?;
        cache.get_or_try_build(&p64, [8.0; 3], || plan_backend(&p64, [8.0; 3]))?;
        assert_eq!(cache.entries.len(), 2);
        // 16 survived (it was touched before the insert)...
        let (_, hit) = cache.get_or_try_build(&p16, [4.0; 3], || plan_backend(&p16, [4.0; 3]))?;
        assert!(hit);
        // ...and 32, the coldest entry, was the one evicted.
        let (_, hit) = cache.get_or_try_build(&p32, [8.0; 3], || plan_backend(&p32, [8.0; 3]))?;
        assert!(!hit);
        Ok(())
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut cache = PlanCache::new(2);
        let mut bad = params(16);
        if let BackendParams::Tme(ref mut t) = bad {
            t.levels = 0;
        }
        assert!(cache
            .get_or_try_build(&bad, [4.0; 3], || plan_backend(&bad, [4.0; 3]))
            .is_err());
        assert!(cache.entries.is_empty());
        assert_eq!(cache.counters(), (0, 1));
    }

    #[test]
    fn fingerprint_collision_never_serves_a_foreign_plan() -> Result<(), BackendConfigError> {
        // FNV-1a collisions can be crafted; simulate one by rewriting a
        // cached TME entry's key to the fingerprint of an SPME config.
        let mut cache = PlanCache::new(2);
        let tme = params(16);
        cache.get_or_try_build(&tme, [4.0; 3], || plan_backend(&tme, [4.0; 3]))?;
        let spme = BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 6,
            alpha: 3.2,
            r_cut: 1.0,
        });
        cache.entries[0].key = config_fingerprint(&spme, [4.0; 3]);
        // The colliding request must miss (params differ structurally)
        // and build its own, correct plan.
        let (plan, hit) =
            cache.get_or_try_build(&spme, [4.0; 3], || plan_backend(&spme, [4.0; 3]))?;
        assert!(!hit, "collision must not count as a hit");
        assert_eq!(plan.kind(), tme_md::backend::BackendKind::Spme);
        // Both entries coexist under the same key.
        assert_eq!(cache.entries.len(), 2);
        let (again, hit) =
            cache.get_or_try_build(&spme, [4.0; 3], || plan_backend(&spme, [4.0; 3]))?;
        assert!(hit && Arc::ptr_eq(&plan, &again));
        Ok(())
    }
}
