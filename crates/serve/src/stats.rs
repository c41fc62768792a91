//! Service observability (DESIGN.md §12.4).
//!
//! Counters and fixed-bucket latency histograms updated on every request,
//! readable three ways: a [`Request::Stats`] round-trip (JSON), the
//! `--stats-out` dump of the `serve` binary, and in process
//! via [`ServerHandle::join`]. Percentiles are computed in-tree from
//! power-of-two bucket boundaries — no sorting of per-request samples, no
//! unbounded memory, and a worst-case 2× overestimate (the bucket's upper
//! bound) which is the right bias for an SLO check.
//!
//! [`Request::Stats`]: crate::protocol::Request::Stats
//! [`ServerHandle::join`]: crate::net::Handle::join

use crate::net::Report;
use crate::protocol::Request;
use tme_core::TmeStats;
use tme_num::json::JsonObject;

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^{i+1})` µs (bucket 0 is `[0, 2)`), so 40 buckets span half a
/// microsecond to ~12 days.
pub const BUCKETS: usize = 40;

/// A fixed-bucket histogram of microsecond durations.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket(us: u64) -> usize {
        // 0/1 µs land in bucket 0; otherwise floor(log2(us)).
        (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    pub fn record(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.total as f64
    }

    /// Fold another histogram into this one. The result is *exactly* the
    /// histogram that recording both shards' samples into one instance
    /// would have produced (bucket counts add, `max_us` takes the max,
    /// `sum_us` saturates like `record`), so merged quantiles carry the
    /// same one-log2-bucket resolution guarantee as single-shard ones:
    /// the merged `q`-quantile is never below the smallest per-shard
    /// `q`-quantile and never above twice the largest (one bucket of
    /// slack, because per-shard values are clamped to the *shard* max
    /// while the merged value is clamped to the *cluster* max). The
    /// router uses this to collapse per-shard latency histograms into
    /// one cluster-wide `tme-router-stats/1` report.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the upper bound of the bucket
    /// where the cumulative count crosses `q·total`, clamped to the
    /// largest value actually observed. 0 when empty.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                return upper.min(self.max_us);
            }
        }
        self.max_us
    }
}

/// Per-request-kind counter block.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindCounts {
    pub compute: u64,
    pub nve_run: u64,
    pub estimate: u64,
    pub stats: u64,
    pub shutdown: u64,
    /// Router-relayed work requests (protocol v4 forwarded frames).
    pub forwarded: u64,
}

impl KindCounts {
    /// Count one decoded request under its kind.
    pub fn bump(&mut self, req: &Request) {
        let count = match req {
            Request::Compute { .. } => &mut self.compute,
            Request::NveRun { .. } => &mut self.nve_run,
            Request::Estimate { .. } => &mut self.estimate,
            Request::Stats => &mut self.stats,
            Request::Shutdown { .. } => &mut self.shutdown,
            Request::Forwarded { .. } => &mut self.forwarded,
        };
        *count += 1;
    }
}

/// Everything the service counts. One instance lives behind a mutex in
/// the server; snapshots are cheap copies.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests decoded off the wire (any kind).
    pub received: u64,
    /// Work requests answered with a result.
    pub completed: u64,
    /// Decoded work requests refused at admission (queue full, cost
    /// budget exhausted, or draining) and answered `Rejected`.
    pub rejected: u64,
    /// Connections shed at the accept loop with the one-byte marker —
    /// nothing was read or decoded (DESIGN.md §16.1).
    pub shed_connections: u64,
    /// Frames refused on established connections *before decode* (the
    /// byte-peek fast-reject path). These are answered `Rejected` but
    /// never became decoded requests, so they are excluded from
    /// `received` and from the drain balance.
    pub rejected_before_decode: u64,
    /// Admission-cost units ever admitted / released. Equal after a
    /// drain — the accounting-balance invariant.
    pub admitted_cost: u64,
    pub released_cost: u64,
    /// Admission-cost units still queued or executing at snapshot time
    /// (0 after a drain).
    pub outstanding_cost: u64,
    /// Requests aborted in the queue by their own deadline.
    pub expired: u64,
    /// Requests answered with `ServerError`.
    pub server_errors: u64,
    /// Malformed frames received (typed `WireError`s; connection-fatal).
    pub protocol_errors: u64,
    /// Plan-cache hits/misses across all workers.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// High-water mark of the request queue depth.
    pub queue_max_depth: u64,
    pub kinds: KindCounts,
    /// End-to-end service time (admission to response ready).
    pub latency: LatencyHistogram,
    /// Time spent waiting in the queue before a worker picked the job up.
    pub queue_wait: LatencyHistogram,
    /// Execution statistics of the most recent TME evaluation, so the
    /// stats endpoint can show where solver time goes (the JSON's
    /// `last_tme` object, present once a TME evaluation has run).
    pub last_tme: Option<TmeStats>,
}

impl ServeStats {
    /// Cache hit rate in `[0, 1]` (0 when no cache lookups happened).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / lookups as f64
    }
}

impl Report for ServeStats {
    fn to_json(&self) -> String {
        let mut o = JsonObject::default();
        o.str("schema", "tme-serve-stats/1");
        for (k, v) in [
            ("received", self.received),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("shed_connections", self.shed_connections),
            ("rejected_before_decode", self.rejected_before_decode),
            ("expired", self.expired),
            ("server_errors", self.server_errors),
            ("protocol_errors", self.protocol_errors),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("queue_max_depth", self.queue_max_depth),
            ("admitted_cost", self.admitted_cost),
            ("released_cost", self.released_cost),
            ("outstanding_cost", self.outstanding_cost),
            ("latency_count", self.latency.count()),
        ] {
            o.u64(k, v);
        }
        let k = &self.kinds;
        o.obj("kinds", |o| {
            o.u64("compute", k.compute)
                .u64("nve_run", k.nve_run)
                .u64("estimate", k.estimate)
                .u64("stats", k.stats)
                .u64("shutdown", k.shutdown)
                .u64("forwarded", k.forwarded);
        });
        for (key, h) in [
            ("latency_us", &self.latency),
            ("queue_wait_us", &self.queue_wait),
        ] {
            o.obj(key, |o| {
                o.f64("mean", h.mean_us(), 1)
                    .u64("p50", h.quantile_us(0.50))
                    .u64("p99", h.quantile_us(0.99));
            });
        }
        o.f64("cache_hit_rate", self.cache_hit_rate(), 4);
        if let Some(tme) = &self.last_tme {
            let s = &tme.stages;
            o.obj("last_tme", |o| {
                o.u64("convolution_madds", tme.convolution.madds)
                    .u64("convolution_passes", tme.convolution.passes)
                    .u64("transfer_points", tme.transfer_points)
                    .u64("top_points", tme.top_points)
                    .obj("stages_us", |o| {
                        o.u64("assign", s.assign_us)
                            .u64("convolve", s.convolve_us)
                            .u64("transfer", s.transfer_us)
                            .u64("toplevel", s.toplevel_us)
                            .u64("interpolate", s.interpolate_us)
                            .u64("short_range", s.short_range_us)
                            .u64("total", s.total_us);
                    });
            });
        }
        o.render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BackendKind, BackendParams, EstimateSpec, EwaldParams};

    #[test]
    fn buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 0);
        assert_eq!(LatencyHistogram::bucket(2), 1);
        assert_eq!(LatencyHistogram::bucket(3), 1);
        assert_eq!(LatencyHistogram::bucket(4), 2);
        assert_eq!(LatencyHistogram::bucket(1023), 9);
        assert_eq!(LatencyHistogram::bucket(1024), 10);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let mut h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.record(us);
        }
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        // p50 lands in the bucket holding the 5th sample (50 µs →
        // [32, 64)), reported as its upper bound.
        assert_eq!(p50, 64);
        // p99 is the outlier's bucket, clamped to the observed max.
        assert_eq!(p99, 5000);
        assert!(h.mean_us() > 0.0);
        assert_eq!(h.count(), 10);
    }

    /// xorshift64* — deterministic in-test sample generator.
    fn next_rand(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A random latency draw spanning many log2 buckets, with occasional
    /// large outliers so the max-clamp path is exercised.
    fn draw_us(state: &mut u64) -> u64 {
        let r = next_rand(state);
        let shift = (r >> 32) % 14; // buckets 0..14 (µs to ~16 ms)
        let base = 1u64 << shift;
        let jitter = r % base.max(1);
        if r.is_multiple_of(97) {
            (base + jitter) * 4096 // rare tail outlier
        } else {
            base + jitter
        }
    }

    #[test]
    fn merge_is_exactly_the_union_histogram() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..50 {
            let mut a = LatencyHistogram::default();
            let mut b = LatencyHistogram::default();
            let mut union = LatencyHistogram::default();
            let na = 1 + (next_rand(&mut state) % 200) as usize;
            let nb = 1 + (next_rand(&mut state) % 200) as usize;
            for _ in 0..na {
                let us = draw_us(&mut state);
                a.record(us);
                union.record(us);
            }
            for _ in 0..nb {
                let us = draw_us(&mut state);
                b.record(us);
                union.record(us);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            // Merging must be indistinguishable from having recorded
            // every sample into one histogram: same buckets, same
            // moments, hence identical quantiles at every q.
            assert_eq!(merged.counts, union.counts);
            assert_eq!(merged.total, union.total);
            assert_eq!(merged.sum_us, union.sum_us);
            assert_eq!(merged.max_us, union.max_us);
        }
    }

    #[test]
    fn merged_quantiles_bound_per_shard_values() {
        // Property: for every q, the merged quantile is never below the
        // smallest per-shard quantile and never above twice the largest —
        // one log2 bucket of slack, the histogram's intrinsic resolution
        // (per-shard values clamp to the shard max, the merged value to
        // the cluster max, so exact containment can be off by the width
        // of one bucket but never more).
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        for round in 0..200 {
            let mut a = LatencyHistogram::default();
            let mut b = LatencyHistogram::default();
            let na = 1 + (next_rand(&mut state) % 300) as usize;
            let nb = 1 + (next_rand(&mut state) % 300) as usize;
            for _ in 0..na {
                a.record(draw_us(&mut state));
            }
            for _ in 0..nb {
                b.record(draw_us(&mut state));
            }
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged.count(), a.count() + b.count());
            for q in [0.50, 0.90, 0.99] {
                let (qa, qb, qm) = (a.quantile_us(q), b.quantile_us(q), merged.quantile_us(q));
                let lo = qa.min(qb);
                let hi = qa.max(qb).saturating_mul(2);
                assert!(
                    qm >= lo && qm <= hi,
                    "round {round}: p{q}: merged {qm} outside [{lo}, {hi}] (shards {qa}, {qb})"
                );
            }
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut h = LatencyHistogram::default();
        for us in [10u64, 500, 9000] {
            h.record(us);
        }
        let before = h.clone();
        h.merge(&LatencyHistogram::default());
        assert_eq!(h.counts, before.counts);
        assert_eq!(h.max_us, before.max_us);
        let mut empty = LatencyHistogram::default();
        empty.merge(&before);
        assert_eq!(empty.counts, before.counts);
        assert_eq!(empty.quantile_us(0.5), before.quantile_us(0.5));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn json_renders() {
        let mut s = ServeStats {
            received: 5,
            completed: 4,
            rejected: 1,
            cache_hits: 3,
            cache_misses: 1,
            ..ServeStats::default()
        };
        s.kinds.bump(&Request::Stats);
        s.latency.record(120);
        s.shed_connections = 7;
        s.rejected_before_decode = 3;
        s.admitted_cost = 900;
        s.released_cost = 900;
        let json = s.to_json();
        assert!(json.contains("\"schema\": \"tme-serve-stats/1\""));
        assert!(json.contains("\"received\": 5"));
        assert!(json.contains("\"cache_hit_rate\": 0.7500"));
        assert!(json.contains("\"shed_connections\": 7"));
        assert!(json.contains("\"rejected_before_decode\": 3"));
        assert!(json.contains("\"admitted_cost\": 900"));
        assert!(json.contains("\"outstanding_cost\": 0"));
        s.last_tme = Some(TmeStats {
            convolution: tme_core::convolve::SeparableStats {
                madds: 786_432,
                passes: 12,
            },
            transfer_points: 8_192,
            top_points: 512,
            stages: tme_core::TmeStageTimings {
                assign_us: 10,
                convolve_us: 205,
                transfer_us: 42,
                toplevel_us: 16,
                interpolate_us: 8,
                short_range_us: 8,
                total_us: 292,
            },
        });
        assert!(s.to_json().ends_with(
            "  \"last_tme\": {\"convolution_madds\": 786432, \"convolution_passes\": 12, \
             \"transfer_points\": 8192, \"top_points\": 512, \"stages_us\": {\"assign\": 10, \
             \"convolve\": 205, \"transfer\": 42, \"toplevel\": 16, \"interpolate\": 8, \
             \"short_range\": 8, \"total\": 292}}\n}\n"
        ));
    }

    /// The exact `tme-serve-stats/1` bytes. A change here changes what
    /// `--stats-out` files and `Request::Stats` clients parse.
    #[test]
    fn json_bytes_are_pinned() {
        let mut s = ServeStats {
            received: 41,
            completed: 30,
            rejected: 6,
            shed_connections: 2,
            rejected_before_decode: 3,
            admitted_cost: 1_234,
            released_cost: 1_200,
            outstanding_cost: 34,
            expired: 4,
            server_errors: 1,
            protocol_errors: 5,
            cache_hits: 27,
            cache_misses: 3,
            queue_max_depth: 9,
            ..ServeStats::default()
        };
        let compute = Request::Compute {
            deadline_ms: 0,
            params: BackendParams::Ewald(EwaldParams {
                alpha: 2.0,
                r_cut: 1.0,
                n_cut: 4,
            }),
            box_l: [4.0; 3],
            pos: Vec::new(),
            q: Vec::new(),
        };
        let nve_run = Request::NveRun {
            deadline_ms: 0,
            waters: 27,
            seed: 1,
            steps: 5,
            dt: 0.001,
            r_cut: 0.45,
        };
        let estimate = Request::Estimate {
            deadline_ms: 0,
            spec: EstimateSpec {
                backend: BackendKind::Tme,
                n_atoms: 1_000,
                grid: 16,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.0,
                box_l: [4.0; 3],
                steps: 1,
            },
        };
        let forwarded = Request::Forwarded {
            tenant: 1,
            deadline_ms: 0,
            inner: Box::new(nve_run.clone()),
        };
        for req in [
            &compute,
            &compute,
            &nve_run,
            &estimate,
            &Request::Stats,
            &forwarded,
            &Request::Shutdown { drain: true },
        ] {
            s.kinds.bump(req);
        }
        for us in [90, 120, 130, 2_500, 70_000] {
            s.latency.record(us);
        }
        for us in [0, 3, 17] {
            s.queue_wait.record(us);
        }
        assert_eq!(
            s.to_json(),
            r#"{
  "schema": "tme-serve-stats/1",
  "received": 41,
  "completed": 30,
  "rejected": 6,
  "shed_connections": 2,
  "rejected_before_decode": 3,
  "expired": 4,
  "server_errors": 1,
  "protocol_errors": 5,
  "cache_hits": 27,
  "cache_misses": 3,
  "queue_max_depth": 9,
  "admitted_cost": 1234,
  "released_cost": 1200,
  "outstanding_cost": 34,
  "latency_count": 5,
  "kinds": {"compute": 2, "nve_run": 1, "estimate": 1, "stats": 1, "shutdown": 1, "forwarded": 1},
  "latency_us": {"mean": 14568.0, "p50": 256, "p99": 70000},
  "queue_wait_us": {"mean": 6.7, "p50": 4, "p99": 17},
  "cache_hit_rate": 0.9000
}
"#
        );
        assert_eq!(
            ServeStats::default().to_json(),
            r#"{
  "schema": "tme-serve-stats/1",
  "received": 0,
  "completed": 0,
  "rejected": 0,
  "shed_connections": 0,
  "rejected_before_decode": 0,
  "expired": 0,
  "server_errors": 0,
  "protocol_errors": 0,
  "cache_hits": 0,
  "cache_misses": 0,
  "queue_max_depth": 0,
  "admitted_cost": 0,
  "released_cost": 0,
  "outstanding_cost": 0,
  "latency_count": 0,
  "kinds": {"compute": 0, "nve_run": 0, "estimate": 0, "stats": 0, "shutdown": 0, "forwarded": 0},
  "latency_us": {"mean": 0.0, "p50": 0, "p99": 0},
  "queue_wait_us": {"mean": 0.0, "p50": 0, "p99": 0},
  "cache_hit_rate": 0.0000
}
"#
        );
    }
}
