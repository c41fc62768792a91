//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same catalogue for the driver; a unit test
//! keeps the two identical.

/// Seconds one run measures at full size (`run_seconds` in
/// `BENCHMARK.json`). Op counts are fixed per workload — so that sample
/// counts, and with them the tail percentile, are fixed — and sized so the
/// timed phase takes about this long at the seed commit; `--seconds`
/// scales them linearly.
pub const RUN_SECONDS: u32 = 12;

/// Times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Relative RMS force error beyond which a force evaluation on water
/// counts as failed (the tolerance `tests/backend_oracle.rs` holds the
/// solvers to).
pub const FORCE_TOLERANCE: f64 = 2e-3;

/// The same for the dilute ±1 charges of `sparse_grid64_force`. Their mean
/// force is a fifth of water's (RMS 7 against 33 reduced units), so the
/// same absolute mesh error is a larger share of it: TME reads 4.2e-3
/// there and SPME on the same 64³ grid 3.5e-3.
pub const SPARSE_FORCE_TOLERANCE: f64 = 1e-2;

/// `|ΔE_total| / KE(start)` over the timed MD steps beyond which the run
/// counts as failed — a hundred times what the seed commit shows.
pub const DRIFT_TOLERANCE: f64 = 5e-2;

/// Atoms the subset-Ewald oracle checks per force op.
pub const ORACLE_SAMPLE: usize = 512;

/// Does `value` meet `tolerance`? `NaN` does not.
pub fn within(value: f64, tolerance: f64) -> bool {
    value <= tolerance
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Callers issuing ops concurrently (closed loop).
    pub callers: usize,
    /// Untimed ops per caller that end every set-up.
    pub warmup_ops: usize,
    /// Timed ops per caller at [`RUN_SECONDS`].
    pub timed_ops: usize,
    /// Percentile `op_tail_ms` is taken at: one of 75/90/95/99 that leaves
    /// at least ten of the timed samples beyond it — the highest such,
    /// except where that one is unsteady (see `serve_cluster_mix`).
    pub tail_percentile: u32,
    /// `result_err` beyond which a checked op counts as failed.
    pub tolerance: f64,
}

impl WorkloadSpec {
    /// Timed ops per caller for a run of `seconds`; `--quick` runs a tenth.
    pub fn ops_for(&self, seconds: u32, quick: bool) -> usize {
        let scaled = self.timed_ops as f64 * f64::from(seconds) / f64::from(RUN_SECONDS);
        let scaled = if quick { scaled / 10.0 } else { scaled };
        (scaled.round() as usize).max(2)
    }

    /// Warm-up ops per caller (`--quick` runs a tenth, at least one).
    pub fn warmup_for(&self, quick: bool) -> usize {
        if quick {
            self.warmup_ops.div_ceil(10)
        } else {
            self.warmup_ops
        }
    }
}

pub const PAPER_BOX_FORCE: &str = "paper_box_force";
pub const SPARSE_GRID64_FORCE: &str = "sparse_grid64_force";
pub const NVE_WATER_STEPS: &str = "nve_water_steps";
pub const SERVE_CLUSTER_MIX: &str = "serve_cluster_mix";

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: PAPER_BOX_FORCE,
        why: "Paper Table-1 box (98,319 atoms, 32^3, L=1): short-range ~87% and assign+interpolate ~9% of a call; tme-mesh and pool scaling show here, mesh-convolution work must not",
        callers: 1,
        warmup_ops: 3,
        timed_ops: 40,
        tail_percentile: 75,
        tolerance: FORCE_TOLERANCE,
    },
    WorkloadSpec {
        name: SPARSE_GRID64_FORCE,
        why: "Sec. VI.A grid (8,192 sparse charges, 64^3, L=2, 16^3 top): convolve+transfer ~80% of a call; tme-core and tme-num work shows here, short-range work does not",
        callers: 1,
        warmup_ops: 5,
        timed_ops: 180,
        tail_percentile: 90,
        tolerance: SPARSE_FORCE_TOLERANCE,
    },
    WorkloadSpec {
        name: NVE_WATER_STEPS,
        why: "Fig. 4 MD steps (1,000 waters, TME 16^3): short range through tme-md's Verlet list, exclusions and SETTLE, not the SoA cell kernel; list rebuilds show in the tail",
        callers: 1,
        warmup_ops: 10,
        timed_ops: 200,
        tail_percentile: 95,
        tolerance: FORCE_TOLERANCE,
    },
    WorkloadSpec {
        name: SERVE_CLUSTER_MIX,
        why: "tme-router -> 2 tme-serve shards, 2 closed-loop clients, 12 plans (80% TME, 10% SPME computes, 10% estimates): protocol, queue, admission, plan cache and routing are visible here only",
        callers: 2,
        warmup_ops: 40,
        timed_ops: 600,
        // p99 would leave 12 samples: the rare requests that queue behind
        // two SPME requests, whose count per run is Poisson-distributed
        // (spread 45 % over ten runs). p95 sits inside the SPME mode.
        tail_percentile: 95,
        tolerance: FORCE_TOLERANCE,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, same names on every workload.
///
/// The typical op time is a low percentile (`stats::TYPICAL_PERCENTILE`),
/// not the median: on a shared two-core sandbox other tenants only ever
/// add time, in bursts, and a median flips between the quiet and the
/// disturbed mode with the share of the run the bursts cover (67 against
/// 91 ms on `nve_water_steps`, run to run; 6.5 to 8.6 ms on
/// `serve_cluster_mix`, where the 20th percentile stays within 4.7-5.0).
/// The median is still printed and recorded with every result, without a
/// bound. `ops_per_s` is `stats::sustained_rate` for the same reason.
///
/// The time bounds are as wide as the driver allows because the host's
/// speed itself drifts by tens of percent over minutes (README,
/// "Steadiness"); the accuracy and memory metrics repeat to a few percent.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p20_ms", "ms", Better::Lower, 0.25),
    e2e("op_tail_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("result_err", "ratio", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

use Better::{Higher, Lower};

/// Single-layer measurements of the traced run.
pub const PER_LAYER: [Metric; 62] = [
    layer("mesh.assign_us", "us", Lower),
    layer("mesh.assign_ns_per_atom", "ns", Lower),
    layer("mesh.interpolate_us", "us", Lower),
    layer("mesh.interpolate_ns_per_atom", "ns", Lower),
    layer("mesh.cells_short_range_us", "us", Lower),
    layer("mesh.cells_ns_per_pair", "ns", Lower),
    layer("core.convolve_us", "us", Lower),
    layer("core.convolve_madds", "count", Lower),
    layer("core.convolve_gmadds_per_s", "Gmadd/s", Higher),
    layer("core.restrict_us", "us", Lower),
    layer("core.prolong_us", "us", Lower),
    layer("core.toplevel_us", "us", Lower),
    layer("core.plan_build_ms", "ms", Lower),
    layer("core.t1_call_ms", "ms", Lower),
    layer("core.thread_speedup", "ratio", Higher),
    layer("core.stage_coverage", "ratio", Lower),
    layer("core.allocs_per_op", "count", Lower),
    layer("num.fft3_16_us", "us", Lower),
    layer("num.fft3_32_us", "us", Lower),
    layer("num.pool_dispatch_us", "us", Lower),
    layer("md.step_us", "us", Lower),
    layer("md.short_range_verlet_us", "us", Lower),
    layer("md.exclusion_us", "us", Lower),
    layer("md.settle_us", "us", Lower),
    layer("md.mesh_into_us", "us", Lower),
    layer("md.verlet_build_us", "us", Lower),
    layer("md.verlet_rebuilds_per_100_steps", "count", Lower),
    layer("md.recoveries", "count", Lower),
    layer("md.plan_ms.tme", "ms", Lower),
    layer("md.plan_ms.spme", "ms", Lower),
    layer("md.compute_us.tme", "us", Lower),
    layer("md.compute_us.spme", "us", Lower),
    layer("md.force_err.tme", "ratio", Lower),
    layer("md.force_err.spme", "ratio", Lower),
    layer("reference.spme_compute_us", "us", Lower),
    layer("mdgrape.step_host_us", "us", Lower),
    // Simulated machine time, exact: not a wall-clock unit.
    layer("mdgrape.sim_step_us", "sim_us", Lower),
    layer("serve.encode_request_us", "us", Lower),
    layer("serve.decode_request_us", "us", Lower),
    layer("serve.encode_response_us", "us", Lower),
    layer("serve.decode_response_us", "us", Lower),
    layer("serve.null_rtt_us", "us", Lower),
    layer("serve.plan_cache_hit_us", "us", Lower),
    layer("serve.plan_cache_miss_ms", "ms", Lower),
    layer("serve.plan_cache_hit_rate", "ratio", Higher),
    layer("serve.admission_us", "us", Lower),
    layer("serve.queue_push_pop_us", "us", Lower),
    layer("serve.direct_p50_us", "us", Lower),
    layer("serve.inproc_solver_p50_us", "us", Lower),
    layer("serve.overhead_p50_us", "us", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.expired", "count", Lower),
    layer("router.route_key_ns", "ns", Lower),
    layer("router.pick_shard_ns", "ns", Lower),
    layer("router.quota_take_ns", "ns", Lower),
    layer("router.hop_p50_us", "us", Lower),
    layer("router.affinity_hit_rate", "ratio", Higher),
    layer("router.rerouted", "count", Lower),
    layer("router.router_rejected", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::stats::{samples_beyond, MIN_BEYOND};

    #[test]
    fn tail_percentiles_leave_ten_samples_beyond() {
        for w in WORKLOADS {
            let n = w.callers * w.timed_ops;
            assert!(
                samples_beyond(w.tail_percentile, n) >= MIN_BEYOND,
                "{}: p{} of {n}",
                w.name,
                w.tail_percentile
            );
        }
    }

    #[test]
    fn op_counts_scale_with_seconds_and_quick() {
        let w = workload(SPARSE_GRID64_FORCE).expect("catalogued");
        assert_eq!(w.ops_for(RUN_SECONDS, false), w.timed_ops);
        assert_eq!(w.ops_for(2 * RUN_SECONDS, false), 2 * w.timed_ops);
        assert_eq!(w.ops_for(RUN_SECONDS, true), w.timed_ops / 10);
        assert_eq!(w.warmup_for(true), 1);
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
    }

    fn check_metrics(listed: &Value, want: &[Metric], bounded: bool) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), want.len());
        for (got, want) in listed.iter().zip(want) {
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(
                field(got, "unit").as_str(),
                Some(want.unit),
                "{}",
                want.name
            );
            assert_eq!(
                field(got, "better").as_str(),
                Some(want.better.as_str()),
                "{}",
                want.name
            );
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                want.bound,
                "{}",
                want.name
            );
            assert_eq!(want.bound.is_some(), bounded);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// benchmark runs by. They must say the same.
    #[test]
    fn benchmark_json_states_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&src).expect("BENCHMARK.json parses");
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(f64::from(RUN_SECONDS))
        );
        let workloads = field(&doc, "workloads").as_arr().expect("workload list");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "why").as_str(), Some(want.why));
            assert!(want.why.len() <= 200, "{}: why too long", want.name);
        }
        check_metrics(field(&doc, "end_to_end"), &END_TO_END, true);
        check_metrics(field(&doc, "per_layer"), &PER_LAYER, false);
    }
}
