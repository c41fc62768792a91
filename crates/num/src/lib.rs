//! Self-contained numerics for the TME reproduction.
//!
//! The paper's algorithm needs four numerical substrates that we implement
//! from scratch (the Rust MD/FFT ecosystem is thin and the point of this
//! repository is to be self-contained):
//!
//! * [`special`] — `erf`/`erfc` to near machine precision, used by the Ewald
//!   splitting (Eqs. 1–3 of the paper) and by the reference Ewald summation.
//! * [`quadrature`] — Gauss–Legendre nodes and weights, used to build the
//!   M-Gaussian approximation of the middle-range shells (Eqs. 6–7).
//! * [`fft`] — complex power-of-two FFTs (radix-2 for general sizes, a
//!   dedicated radix-4 16-point kernel mirroring the FPGA "CFFT16" unit) and
//!   3-D transforms, used by SPME and by the TME top-level convolution.
//! * [`fixed`] — Q-format fixed-point arithmetic mirroring the LRU/GCU
//!   hardware datapaths (24-bit-fraction polynomial path, 32-bit grid
//!   accumulation with a tunable binary point).
//! * [`pool`] — a dependency-free scoped thread pool with deterministic
//!   static scheduling, the software analogue of the machine's fixed
//!   particle/grid-line distribution across pipelines (execute phase of the
//!   plan/execute split, `TME_THREADS`).
//! * [`args`] — the one command-line parser of every binary.
//! * [`json`] — the one JSON writer behind the bench reports and the
//!   serve/router stats.
//! * [`table`] — segmented-polynomial pair-kernel tables in `r²`, the
//!   software mirror of the machine's table-lookup force pipelines (no
//!   transcendentals in the pair inner loops; DESIGN.md §10).

pub mod args;
pub mod bytes;
pub mod cast;
pub mod complex;
pub mod fft;
pub mod fixed;
pub mod json;
pub mod pool;
pub mod quadrature;
pub mod rng;
pub mod special;
pub mod table;
pub mod vec3;

pub use complex::Complex64;
pub use fft::{Fft, Fft3, RealFft, RealFft3};
pub use pool::Pool;
