//! One run of one workload: set up, time the ops, read memory, check the
//! outputs, report.

use crate::catalog::{self, WorkloadSpec, SETUP_REPEATS};
use crate::host::{self, Host};
use crate::json::{num, obj, text, Value};
use crate::stats;
use std::time::Instant;

/// Everything a workload needs to know about the run it is part of.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: u32,
    pub quick: bool,
    /// Pool threads (`min(nproc, 2)`).
    pub threads: usize,
}

impl Ctx {
    pub fn timed_ops(&self) -> usize {
        self.spec.ops_for(self.seconds, self.quick)
    }

    pub fn warmup_ops(&self) -> usize {
        self.spec.warmup_for(self.quick)
    }
}

/// Outcome of the timed phase.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Wall time of every op that succeeded, milliseconds.
    pub op_ms: Vec<f64>,
    /// When each of them completed, seconds since the timed phase started
    /// (callers may interleave; any order).
    pub done_s: Vec<f64>,
    pub attempted: usize,
    /// Ops that errored, were refused, or returned non-finite values.
    pub failed: usize,
}

impl Timed {
    /// A successful op of a single caller, whose clock runs only during
    /// ops (inputs are prepared between them).
    pub fn push_serial(&mut self, ms: f64) {
        let before = self.done_s.last().copied().unwrap_or(0.0);
        self.op_ms.push(ms);
        self.done_s.push(before + ms / 1e3);
    }
}

/// Outcome of the correctness check that follows the timed phase.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// The workload's accuracy figure (see `result_err` in the README).
    pub result_err: f64,
    /// Ops whose outputs missed the oracle tolerance.
    pub failed: usize,
    /// Human-readable lines describing what was checked.
    pub notes: Vec<String>,
}

/// A workload of the untraced run. One value is one complete set-up.
pub trait Workload: Sized {
    /// Everything from input generation to the last warm-up op.
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// FNV-1a fingerprint of the generated inputs.
    fn fingerprint(&self) -> u64;
    /// Run `ops` timed ops per caller.
    fn run_timed(&mut self, ops: usize) -> Timed;
    /// Check the outputs of the timed phase against the oracle.
    fn verify(&mut self, ctx: &Ctx) -> Verdict;
}

/// A finished run, as written to the result file.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub quick: bool,
    pub trace: bool,
    pub host: Host,
    pub fingerprint: u64,
    /// Timed ops per caller.
    pub timed_ops: usize,
    pub tail_percentile: u32,
    pub samples: usize,
    pub samples_beyond_tail: usize,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj([("value", num(*value)), ("unit", text(&**unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The result file: every fact `compare` needs to decide whether two
    /// runs are comparable, and every metric.
    pub fn to_json(&self) -> Value {
        obj([
            ("schema", text("tme-benchmark/1")),
            ("workload", text(&*self.workload)),
            ("seed", num(self.seed as f64)),
            ("seconds", num(self.seconds)),
            ("quick", Value::Bool(self.quick)),
            ("trace", Value::Bool(self.trace)),
            ("host", self.host.to_json()),
            (
                "input_fingerprint",
                text(format!("{:016x}", self.fingerprint)),
            ),
            ("timed_ops", num(self.timed_ops as f64)),
            ("tail_percentile", num(self.tail_percentile)),
            ("samples", num(self.samples as f64)),
            ("samples_beyond_tail", num(self.samples_beyond_tail as f64)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("failed_share", num(self.failed_share())),
            ("correct", Value::Bool(self.correct)),
            ("metrics", self.metrics_json()),
            (
                "notes",
                Value::Arr(self.notes.iter().map(|n| text(&**n)).collect()),
            ),
        ])
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// Every metric by name with its unit, for people.
    pub fn print_human(&self) {
        println!(
            "# {} seed {} ({} s{}{}) on {} core(s), {} pool thread(s), {}, commit {}",
            self.workload,
            self.seed,
            self.seconds,
            if self.quick { ", quick" } else { "" },
            if self.trace { ", traced" } else { "" },
            self.host.nproc,
            self.host.threads,
            self.host.rustc,
            self.host.commit,
        );
        if let Some(spec) = catalog::workload(&self.workload) {
            println!("# why: {}", spec.why);
        }
        println!("# input fingerprint {:016x}", self.fingerprint);
        if !self.trace {
            println!(
                "# {} timed samples; tail = p{} ({} samples beyond{})",
                self.samples,
                self.tail_percentile,
                self.samples_beyond_tail,
                if self.samples_beyond_tail < stats::MIN_BEYOND {
                    format!(
                        ": fewer than {}, the tail is not supported at this op count",
                        stats::MIN_BEYOND
                    )
                } else {
                    String::new()
                }
            );
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        println!(
            "{:<36} {:>16.6} ratio   ({} failed of {} attempted)",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        );
    }
}

fn metric(name: &str, value: f64) -> (String, f64, String) {
    let unit = catalog::END_TO_END
        .iter()
        .chain(&catalog::PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
        .unit;
    (name.to_string(), value, unit.to_string())
}

/// Metrics in catalogue order from `(name, value)` pairs; panics if a
/// catalogued metric of `wanted` is missing, so a traced run cannot
/// silently drop one.
pub fn in_catalogue_order(
    wanted: &[catalog::Metric],
    values: &[(&'static str, f64)],
) -> Vec<(String, f64, String)> {
    wanted
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name))
                .1;
            metric(m.name, value)
        })
        .collect()
}

/// The untraced run: the only source of end-to-end metrics.
pub fn untraced<W: Workload>(ctx: &Ctx, host: &Host) -> Result<RunResult, String> {
    let set_up = || {
        let t0 = Instant::now();
        W::setup(ctx).map(|w| (w, t0.elapsed().as_secs_f64()))
    };
    let (mut workload, first_setup_s) = set_up()?;
    let ops = ctx.timed_ops();
    let timed = workload.run_timed(ops);
    // Read before the oracle allocates its tables.
    let peak_rss_mb = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let verdict = workload.verify(ctx);
    let fingerprint = workload.fingerprint();
    drop(workload);
    // Set up twice more and report the median, so that one slow page fault
    // or connect does not decide `setup_s`. The repeats come last: what a
    // torn-down set-up leaves in the allocator would otherwise count in
    // `peak_rss_mb` (2.5 or 5 MiB on `serve_cluster_mix`, run to run).
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUP_REPEATS {
        setup_s.push(set_up()?.1);
    }

    let failed = timed.failed + verdict.failed;
    let p = ctx.spec.tail_percentile;
    let values = [
        ("setup_s", stats::median(&setup_s)),
        ("op_p20_ms", stats::typical(&timed.op_ms)),
        ("op_tail_ms", stats::percentile(&timed.op_ms, p)),
        ("ops_per_s", stats::sustained_rate(&timed.done_s)),
        ("result_err", verdict.result_err),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let correct = failed == 0 && values.iter().all(|(_, v)| v.is_finite());
    let mut notes = verdict.notes;
    notes.insert(
        0,
        format!(
            "set-up times (s): {}; median op {:.3} ms (reported, not bounded)",
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
            stats::median(&timed.op_ms)
        ),
    );
    Ok(RunResult {
        workload: ctx.spec.name.to_string(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        quick: ctx.quick,
        trace: false,
        host: host.clone(),
        fingerprint,
        timed_ops: ops,
        tail_percentile: p,
        samples: timed.op_ms.len(),
        samples_beyond_tail: stats::samples_beyond(p, timed.op_ms.len()),
        attempted: timed.attempted,
        failed,
        correct,
        metrics: in_catalogue_order(&catalog::END_TO_END, &values),
        notes,
    })
}
