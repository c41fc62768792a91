//! Facade crate for the MDGRAPE-4A / TME reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single package:
//!
//! * [`num`] — special functions, quadrature, FFTs, fixed point
//! * [`mesh`] — periodic grids, B-splines, charge assignment / interpolation
//! * [`tme`] — the tensor-structured multilevel Ewald method itself
//! * `reference` — Ewald summation, SPME and the §III.C MSM cost formulas
//! * [`md`] — the molecular-dynamics substrate (TIP3P water, NVE, SETTLE)
//! * [`machine`] — the discrete-event MDGRAPE-4A machine simulator
//! * [`serve`] — the multi-tenant simulation service (wire protocol,
//!   plan cache, worker pool with backpressure)
//! * [`router`] — the cluster front door (rendezvous-hashed shard
//!   routing, per-tenant quotas/fair share, health ejection)

pub use mdgrape_sim as machine;
pub use tme_core as tme;
pub use tme_md as md;
pub use tme_mesh as mesh;
pub use tme_num as num;
pub use tme_reference as reference;
pub use tme_router as router;
pub use tme_serve as serve;
