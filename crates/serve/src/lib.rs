//! `tme-serve` — the multi-tenant TME simulation service (DESIGN.md §12).
//!
//! The paper's machine is operated as a *facility*: many users' MD
//! workloads funnel through one shared accelerator. This crate is the
//! software analogue of that boundary — the first request/response layer
//! over the solver stack, std-only like the rest of the workspace:
//!
//! * [`protocol`] — length-prefixed binary frames over TCP (version
//!   byte, typed [`protocol::WireError`], no panics on hostile input);
//! * [`cache`] — the plan cache: LRU over configuration fingerprints so
//!   repeat clients skip `Tme::try_new`;
//! * [`admission`] — overload stability (DESIGN.md §16): the lock-free
//!   load gauge behind shed-before-decode, the request cost model, and
//!   the drain-rate-derived retry hint;
//! * [`queue`] — the bounded, expiry-ordered request queue behind
//!   admission control;
//! * [`net`] — the network core this server and `tme-router` share: one
//!   accept loop, one frame loop, one handle, one process lifecycle;
//! * [`server`] — worker pool, per-request deadlines, graceful drain;
//! * [`stats`] — counters + fixed-bucket latency histograms (p50/p99
//!   in-tree), queryable over the wire and dumped as JSON on drain;
//! * [`client`] — a minimal blocking client for harnesses and examples,
//!   plus [`RetryingClient`] with hint-honouring jittered backoff.
//!
//! ```no_run
//! use tme_serve::{serve, Client, Request, Response, ServeConfig};
//!
//! let handle = serve(ServeConfig::default())?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let reply = client.call(&Request::Stats)?;
//! assert!(matches!(reply, Response::Stats { .. }));
//! handle.trigger_drain();
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admission;
pub mod cache;
pub mod client;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use admission::{request_cost, LoadGauge};
pub use cache::{config_fingerprint, PlanCache};
pub use client::{BackoffPolicy, Client, RetryingClient};
pub use protocol::{Request, Response, ServerErrorCode, WireError, PROTOCOL_VERSION, SHED_BYTE};
pub use queue::{Bounded, Popped};
pub use server::{serve, ConfigError, ServeConfig, ServeError, ServerHandle};
pub use stats::{LatencyHistogram, ServeStats};
