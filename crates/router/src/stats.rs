//! Cluster observability: per-shard counters merged into one
//! `tme-router-stats/1` report.
//!
//! The router keeps one [`ShardStats`] per backend plus cluster-level
//! admission counters; the snapshot merges every shard's log2 latency
//! histogram with [`LatencyHistogram::merge`], so the cluster p50/p99
//! carry the same one-bucket resolution guarantee as a single shard's.

use tme_num::json::JsonObject;
use tme_serve::net::Report;
use tme_serve::LatencyHistogram;

/// Per-backend counters, maintained at the forward path.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Forwards attempted to this shard (including ones that failed).
    pub forwarded: u64,
    /// Forwards that came back with a decoded response.
    pub completed: u64,
    /// Decoded responses that were `Rejected` — backend backpressure,
    /// passed through to the client unchanged.
    pub backend_rejected: u64,
    /// One-byte shed markers received from this shard.
    pub sheds: u64,
    /// Transport failures (connect, write, read, timeout).
    pub io_errors: u64,
    /// Health ejections of this shard (filled from the health table at
    /// snapshot time).
    pub ejections: u64,
    /// Health state name at snapshot time.
    pub state: &'static str,
    /// Round-trip forward latency observed from the router.
    pub latency: LatencyHistogram,
}

/// A cluster-wide snapshot.
#[derive(Clone, Debug, Default)]
pub struct RouterStats {
    /// Requests decoded off client connections (any kind).
    pub received: u64,
    /// Requests answered with a forwarded backend response.
    pub completed: u64,
    /// Refused by a tenant's token bucket.
    pub quota_rejected: u64,
    /// Refused by the fair-share arbiter (backlog bound, deadline in
    /// the wait, or router drain).
    pub fairness_rejected: u64,
    /// Refused because no healthy shard remained for the key.
    pub no_backend_rejected: u64,
    /// Forwards that failed over to another shard after a transport
    /// error (each hop counts once).
    pub rerouted: u64,
    /// Malformed client frames (typed `WireError`s; connection-fatal).
    pub protocol_errors: u64,
    /// Per-shard detail, indexed like the configured shard list.
    pub shards: Vec<ShardStats>,
}

impl RouterStats {
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards)
                .map(|_| ShardStats {
                    state: "healthy",
                    ..ShardStats::default()
                })
                .collect(),
            ..Self::default()
        }
    }

    /// All shards' histograms folded into one (exact union — see
    /// [`LatencyHistogram::merge`]).
    #[must_use]
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::default();
        for s in &self.shards {
            merged.merge(&s.latency);
        }
        merged
    }

    /// Sum of `Rejected` answers the router originated itself (quota,
    /// fairness, no-backend) — excludes backend rejections it relayed.
    #[must_use]
    pub fn router_rejected(&self) -> u64 {
        self.quota_rejected + self.fairness_rejected + self.no_backend_rejected
    }
}

impl Report for RouterStats {
    fn to_json(&self) -> String {
        let merged = self.merged_latency();
        let mut o = JsonObject::default();
        o.str("schema", "tme-router-stats/1");
        for (k, v) in [
            ("received", self.received),
            ("completed", self.completed),
            ("quota_rejected", self.quota_rejected),
            ("fairness_rejected", self.fairness_rejected),
            ("no_backend_rejected", self.no_backend_rejected),
            ("rerouted", self.rerouted),
            ("protocol_errors", self.protocol_errors),
        ] {
            o.u64(k, v);
        }
        o.obj("latency_us", |o| {
            o.f64("mean", merged.mean_us(), 1);
            latency_quantiles(o, &merged);
        });
        let mut index = 0u64;
        o.rows("shards", &self.shards, |sh, o| {
            o.u64("index", index)
                .str("state", sh.state)
                .u64("forwarded", sh.forwarded)
                .u64("completed", sh.completed)
                .u64("backend_rejected", sh.backend_rejected)
                .u64("sheds", sh.sheds)
                .u64("io_errors", sh.io_errors)
                .u64("ejections", sh.ejections)
                .obj("latency_us", |o| latency_quantiles(o, &sh.latency));
            index += 1;
        });
        o.render_pretty()
    }
}

/// `p50`, `p99` and `count` of one histogram — the per-shard latency
/// object, and the tail of the merged one.
fn latency_quantiles(o: &mut JsonObject, h: &LatencyHistogram) {
    o.u64("p50", h.quantile_us(0.50))
        .u64("p99", h.quantile_us(0.99))
        .u64("count", h.count());
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let merged = self.merged_latency();
        writeln!(
            f,
            "router: {} received, {} completed, {} router-rejected \
             ({} quota, {} fairness, {} no-backend), {} rerouted, {} protocol errors",
            self.received,
            self.completed,
            self.router_rejected(),
            self.quota_rejected,
            self.fairness_rejected,
            self.no_backend_rejected,
            self.rerouted,
            self.protocol_errors
        )?;
        writeln!(
            f,
            "cluster latency (µs): mean {:.1}, p50 {}, p99 {} over {} forwards",
            merged.mean_us(),
            merged.quantile_us(0.50),
            merged.quantile_us(0.99),
            merged.count()
        )?;
        for (i, sh) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "shard {i} [{}]: {} forwarded, {} completed, {} backend-rejected, \
                 {} sheds, {} io errors, {} ejections, p99 {} µs",
                sh.state,
                sh.forwarded,
                sh.completed,
                sh.backend_rejected,
                sh.sheds,
                sh.io_errors,
                sh.ejections,
                sh.latency.quantile_us(0.99)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_latency_is_the_union_of_shards() {
        let mut stats = RouterStats::new(2);
        for us in [100, 200, 400] {
            stats.shards[0].latency.record(us);
        }
        for us in [1_000, 2_000] {
            stats.shards[1].latency.record(us);
        }
        let merged = stats.merged_latency();
        assert_eq!(merged.count(), 5);
        let mut union = LatencyHistogram::default();
        for us in [100, 200, 400, 1_000, 2_000] {
            union.record(us);
        }
        assert_eq!(merged.quantile_us(0.50), union.quantile_us(0.50));
        assert_eq!(merged.quantile_us(0.99), union.quantile_us(0.99));
    }

    #[test]
    fn json_has_schema_and_per_shard_rows() {
        let mut stats = RouterStats::new(3);
        stats.received = 10;
        stats.completed = 8;
        stats.quota_rejected = 1;
        stats.shards[2].state = "ejected";
        stats.shards[2].ejections = 1;
        let json = stats.to_json();
        assert!(json.contains("\"schema\": \"tme-router-stats/1\""));
        assert!(json.contains("\"received\": 10"));
        assert!(json.contains("\"index\": 2, \"state\": \"ejected\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The exact `tme-router-stats/1` bytes. A router always has at
    /// least one shard, so the one- and three-shard cases cover its
    /// shapes.
    #[test]
    fn json_bytes_are_pinned() {
        let mut stats = RouterStats::new(3);
        stats.received = 52;
        stats.completed = 44;
        stats.quota_rejected = 2;
        stats.fairness_rejected = 3;
        stats.no_backend_rejected = 1;
        stats.rerouted = 4;
        stats.protocol_errors = 1;
        for (i, sh) in (0u64..).zip(stats.shards.iter_mut()) {
            sh.forwarded = 10 + i;
            sh.completed = 9 + i;
            sh.backend_rejected = i;
            sh.sheds = 2 * i;
            sh.io_errors = 3 * i;
            for us in [150 * (i + 1), 900, 4_000 + i] {
                sh.latency.record(us);
            }
        }
        stats.shards[1].state = "suspect";
        stats.shards[2].state = "ejected";
        stats.shards[2].ejections = 2;
        assert_eq!(
            stats.to_json(),
            r#"{
  "schema": "tme-router-stats/1",
  "received": 52,
  "completed": 44,
  "quota_rejected": 2,
  "fairness_rejected": 3,
  "no_backend_rejected": 1,
  "rerouted": 4,
  "protocol_errors": 1,
  "latency_us": {"mean": 1733.7, "p50": 1024, "p99": 4002, "count": 9},
  "shards": [
    {"index": 0, "state": "healthy", "forwarded": 10, "completed": 9, "backend_rejected": 0, "sheds": 0, "io_errors": 0, "ejections": 0, "latency_us": {"p50": 1024, "p99": 4000, "count": 3}},
    {"index": 1, "state": "suspect", "forwarded": 11, "completed": 10, "backend_rejected": 1, "sheds": 2, "io_errors": 3, "ejections": 0, "latency_us": {"p50": 1024, "p99": 4001, "count": 3}},
    {"index": 2, "state": "ejected", "forwarded": 12, "completed": 11, "backend_rejected": 2, "sheds": 4, "io_errors": 6, "ejections": 2, "latency_us": {"p50": 1024, "p99": 4002, "count": 3}}
  ]
}
"#
        );
        assert_eq!(
            RouterStats::new(1).to_json(),
            r#"{
  "schema": "tme-router-stats/1",
  "received": 0,
  "completed": 0,
  "quota_rejected": 0,
  "fairness_rejected": 0,
  "no_backend_rejected": 0,
  "rerouted": 0,
  "protocol_errors": 0,
  "latency_us": {"mean": 0.0, "p50": 0, "p99": 0, "count": 0},
  "shards": [
    {"index": 0, "state": "healthy", "forwarded": 0, "completed": 0, "backend_rejected": 0, "sheds": 0, "io_errors": 0, "ejections": 0, "latency_us": {"p50": 0, "p99": 0, "count": 0}}
  ]
}
"#
        );
    }
}
