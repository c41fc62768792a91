//! `tme-router` — the cluster front door for `tme-serve` (DESIGN.md §17).
//!
//! The paper scales TME across MDGRAPE-4A's 512-SoC hierarchical torus by
//! partitioning work over a dedicated network; this crate is the serving
//! analogue of that fan-out: one TCP address in front of N `tme-serve`
//! backends, std-only like the rest of the workspace. It owns exactly
//! four concerns:
//!
//! * [`rendezvous`] — shard selection by highest-random-weight hashing on
//!   the backend-tagged plan fingerprint, so a tenant's repeat plan lands
//!   on the shard whose `PlanCache` already holds it, and the keyspace of
//!   a removed shard redistributes without moving anyone else's keys;
//! * [`quota`] — per-tenant token buckets ahead of forwarding, plus
//!   deficit-round-robin fair share over the bounded forward slots so one
//!   flooding tenant cannot starve the rest;
//! * [`health`] — backend health from the signals the serve protocol
//!   already emits (the one-byte shed marker, transport errors) plus
//!   periodic Stats probes: strike-based ejection, jittered half-open
//!   re-probe, and deterministic re-hash of an ejected shard's keyspace;
//! * [`stats`] — cluster-wide observability: per-shard counters and
//!   latency histograms merged (via `LatencyHistogram::merge`) into one
//!   `tme-router-stats/1` report.
//!
//! The router speaks protocol v5: client work is re-wrapped in a
//! forwarded-request frame (new in v4) carrying the accounting tenant id
//! and the client's *original* deadline, so a backend budgets expiry
//! end-to-end rather than per hop.

pub mod health;
pub mod quota;
pub mod rendezvous;
pub mod server;
pub mod stats;

pub use health::{HealthConfig, ShardHealth};
pub use quota::{FairConfig, FairShare, QuotaConfig, TenantBuckets};
pub use rendezvous::{pick_shard, route_key};
pub use server::{route, RouterConfig, RouterConfigError, RouterError, RouterHandle};
pub use stats::{RouterStats, ShardStats};
