//! Shard selection by rendezvous (highest-random-weight) hashing.
//!
//! Every work request reduces to a 64-bit *route key*; each healthy
//! shard's weight for that key is an avalanche mix of (key, shard), and
//! the request goes to the shard with the highest weight. Two properties
//! make this the right fit for a plan-cache-affine cluster:
//!
//! * **Affinity** — the route key for a compute request is the same
//!   backend-tagged configuration fingerprint the backend's `PlanCache`
//!   keys on, so a tenant's repeat plan always lands on the one shard
//!   that already holds it (DESIGN.md §13) and the cluster-wide cache
//!   hit rate matches the single-node rate.
//! * **Minimal disruption** — when a shard is ejected, only the keys it
//!   owned move (each to its second-highest shard); every other key's
//!   assignment is untouched, so a failover does not flush the surviving
//!   shards' caches. When the shard returns, exactly those keys move
//!   back.

use tme_num::bytes::Fnv1a;
use tme_serve::cache::config_fingerprint;
use tme_serve::protocol::Request;

/// SplitMix64 finaliser: a full-avalanche 64-bit mix. Identical inputs
/// on router and test sides must map identically, so this is a fixed
/// function, not an `rng` instance.
#[must_use]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The 64-bit routing key for a request.
///
/// * `Compute` — the backend-tagged plan fingerprint
///   ([`config_fingerprint`]): identical solver configurations share a
///   key regardless of positions/charges, which is exactly the plan
///   cache's notion of identity.
/// * `NveRun` / `Estimate` — the request kind, then the fields that
///   define the workload's identity (not its deadline), run into the
///   codec's [`Fnv1a`] sink, so repeat runs of the same system stick to
///   one shard's workspace cache.
/// * `Forwarded` — the inner request's key: a router chain must route
///   like a single hop.
/// * Control frames (`Stats`, `Shutdown`) never reach shard selection;
///   they answer at the router. Their key is a fixed sentinel.
#[must_use]
pub fn route_key(req: &Request) -> u64 {
    match req {
        Request::Compute { params, box_l, .. } => config_fingerprint(params, *box_l),
        Request::NveRun {
            waters,
            seed,
            steps,
            dt,
            r_cut,
            ..
        } => Fnv1a::new()
            .mix(&2u64)
            .mix(waters)
            .mix(seed)
            .mix(steps)
            .mix(dt)
            .mix(r_cut)
            .finish(),
        Request::Estimate { spec, .. } => Fnv1a::new().mix(&3u64).mix(spec).finish(),
        Request::Forwarded { inner, .. } => route_key(inner),
        Request::Stats | Request::Shutdown { .. } => Fnv1a::new().mix(&0u64).finish(),
    }
}

/// The weight shard `shard` bids for `key`. Public so tests (and the
/// cluster harness's convergence check) can recompute assignments.
#[must_use]
pub fn weight(key: u64, shard: usize) -> u64 {
    mix(key ^ mix((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Pick the highest-weight shard for `key` among `candidates` (shard
/// indices). Ties break to the lowest index so the choice is a pure
/// function of (key, candidate set). Returns `None` when no candidate
/// is offered — the caller's "whole cluster ejected" case.
#[must_use]
pub fn pick_shard(key: u64, candidates: &[usize]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for &shard in candidates {
        let w = weight(key, shard);
        let better = match best {
            None => true,
            Some((bw, bs)) => w > bw || (w == bw && shard < bs),
        };
        if better {
            best = Some((w, shard));
        }
    }
    best.map(|(_, shard)| shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_serve::protocol::{BackendParams, TmeParams};

    fn sample_params(grid: usize) -> BackendParams {
        BackendParams::Tme(TmeParams {
            n: [grid; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: 3.2,
            r_cut: 1.0,
        })
    }

    fn compute(grid: usize) -> Request {
        Request::Compute {
            deadline_ms: 0,
            params: sample_params(grid),
            box_l: [6.0; 3],
            pos: vec![[1.0; 3]],
            q: vec![1.0],
        }
    }

    #[test]
    fn route_key_is_the_plan_fingerprint_for_compute() {
        // Same configuration, different positions/deadline → same key
        // (the plan cache would hit, so the router must not scatter it).
        let a = compute(16);
        let b = Request::Compute {
            deadline_ms: 777,
            params: sample_params(16),
            box_l: [6.0; 3],
            pos: vec![[2.0; 3], [3.0; 3]],
            q: vec![1.0, -1.0],
        };
        assert_eq!(route_key(&a), route_key(&b));
        // Different configuration → different key.
        assert_ne!(route_key(&a), route_key(&compute(32)));
    }

    /// Routers of different builds share a cluster during a rolling
    /// restart, so the keys are the contract: these literals were taken
    /// before the key moved onto the shared codec's hash sink (the TME
    /// estimate's on the last build that still served backend tag 5).
    #[test]
    fn route_keys_are_pinned() {
        let nve = Request::NveRun {
            deadline_ms: 5,
            waters: 216,
            seed: 42,
            steps: 100,
            dt: 0.002,
            r_cut: 0.9,
        };
        let estimate = Request::Estimate {
            deadline_ms: 0,
            spec: tme_serve::protocol::EstimateSpec {
                backend: tme_serve::protocol::BackendKind::Tme,
                n_atoms: 98_319,
                grid: 32,
                levels: 2,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.2,
                box_l: [9.7, 8.3, 10.6],
                steps: 20,
            },
        };
        assert_eq!(
            (route_key(&nve), route_key(&estimate)),
            (9833340371209831935, 17496967148509573098)
        );
        assert_eq!(route_key(&Request::Stats), 12161962213042174405);
    }

    #[test]
    fn forwarded_routes_like_its_inner_request() {
        let inner = compute(16);
        let wrapped = Request::Forwarded {
            tenant: 42,
            deadline_ms: 100,
            inner: Box::new(inner.clone()),
        };
        assert_eq!(route_key(&inner), route_key(&wrapped));
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let all: Vec<usize> = (0..5).collect();
        let survivors: Vec<usize> = all.iter().copied().filter(|&s| s != 2).collect();
        let mut moved = 0usize;
        for k in 0..2_000u64 {
            let key = mix(k);
            let before = pick_shard(key, &all).expect("candidates");
            let after = pick_shard(key, &survivors).expect("candidates");
            if before == 2 {
                moved += 1;
                assert_ne!(after, 2);
            } else {
                // Minimal disruption: every key not owned by the ejected
                // shard keeps its assignment.
                assert_eq!(before, after);
            }
        }
        // The ejected shard owned roughly a fifth of the keyspace.
        assert!((200..=600).contains(&moved), "moved {moved} of 2000");
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let all: Vec<usize> = (0..4).collect();
        let mut counts = [0usize; 4];
        for k in 0..4_000u64 {
            counts[pick_shard(mix(k), &all).expect("candidates")] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {shard} got {c} of 4000 keys"
            );
        }
    }

    #[test]
    fn empty_candidate_set_yields_none() {
        assert_eq!(pick_shard(1234, &[]), None);
    }
}
