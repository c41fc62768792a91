//! Per-stage wall-clock observability for the TME execute phase.
//!
//! Every optimisation in the hot-path work (kernel tables, fused spline
//! transfer, folded-convolution line buffers) must be *attributable*: the
//! execute entry points time each of the six pipeline stages plus the
//! short-range pair sum with the monotonic clock and record microseconds
//! here. The numbers ride along in [`crate::TmeStats`] (and so in the
//! backend layer's `BackendStats::tme`), and are emitted per row into
//! `BENCH_pipeline.json` by the `pipeline_scaling` harness so regressions
//! land on a named stage, not a 40 ms blob.
//!
//! Timing uses `std::time::Instant` (monotonic, ~20 ns per sample) around
//! whole stages — a handful of samples per evaluation, invisible next to
//! the microseconds being measured, and free of any effect on numerical
//! results or determinism.

use std::time::Instant;

/// Wall-clock microseconds per pipeline stage of one long-range/compute
/// evaluation. Stages the entry point did not run stay zero (e.g.
/// `short_range_us` after a mesh-only `long_range_with`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TmeStageTimings {
    /// Step 1: B-spline charge assignment (parallel parts + merge).
    pub assign_us: u64,
    /// Step 3: middle-level separable kernel convolutions, all levels.
    pub convolve_us: u64,
    /// Steps 2 and 5: restriction and prolongation passes, all levels.
    pub transfer_us: u64,
    /// Step 4: top-level FFT solve.
    pub toplevel_us: u64,
    /// Step 6: back interpolation of forces and potentials.
    pub interpolate_us: u64,
    /// Short-range `erfc` pair sum (tabulated kernels).
    pub short_range_us: u64,
    /// Whole entry-point wall clock (≥ sum of stages; includes glue).
    pub total_us: u64,
}

impl TmeStageTimings {
    /// Sum of the individually timed stages (excludes untimed glue).
    pub fn stage_sum_us(&self) -> u64 {
        self.assign_us
            + self.convolve_us
            + self.transfer_us
            + self.toplevel_us
            + self.interpolate_us
            + self.short_range_us
    }
}

/// Elapsed microseconds since `t0`, saturating into `u64` (a ~584-millennia
/// range — the try_from keeps lint L1 happy without a lossy cast).
#[inline]
pub(crate) fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sum_adds_the_six_stages() {
        let t = TmeStageTimings {
            assign_us: 1,
            convolve_us: 2,
            transfer_us: 3,
            toplevel_us: 4,
            interpolate_us: 5,
            short_range_us: 6,
            total_us: 100,
        };
        assert_eq!(t.stage_sum_us(), 21);
    }

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let t0 = Instant::now();
        let a = elapsed_us(t0);
        let b = elapsed_us(t0);
        assert!(b >= a);
    }
}
