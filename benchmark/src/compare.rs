//! `compare`: two sets of result files, one row per (workload, metric).
//!
//! A metric has *regressed* when the candidate's median is worse than the
//! baseline's by more than the catalogue's bound. When either side's
//! run-to-run spread (quartile distance over median) is wider than the
//! bound the metric is *unresolved* — not unchanged — unless every run of
//! one side reads better than every run of the other. Sets that were not
//! recorded alike (pool threads, seeds, op counts, quick or traced runs
//! mixed in) are refused: their numbers do not mean the same thing.

use crate::catalog::{self, Better, Metric};
use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// What `compare` needs of one result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub threads: u64,
    pub timed_ops: u64,
    pub quick: bool,
    pub trace: bool,
    pub failed_share: f64,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("`{key}` is not a boolean"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: number("seed")? as u64,
            threads: field("host")?
                .get("threads")
                .and_then(Value::as_f64)
                .ok_or("missing `host.threads`")? as u64,
            timed_ops: number("timed_ops")? as u64,
            quick: flag("quick")?,
            trace: flag("trace")?,
            failed_share: number("failed_share")?,
            metrics,
        })
    }
}

pub fn load(path: &str) -> Result<Record, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    Record::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads narrower than the bound.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// A spread exceeds the bound and the runs overlap.
    Unresolved,
    /// A per-layer metric: no bound, reported only.
    Reported,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "-",
        }
    }
}

/// Judge one metric from each side's run values.
pub fn judge(metric: &Metric, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let Some(bound) = metric.bound else {
        return Verdict::Reported;
    };
    let (qa, qb) = (quartiles(baseline), quartiles(candidate));
    // Positive = candidate worse, as a share of the baseline median.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (qb[1] - qa[1]) / qa[1].abs();
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    if spread(qa) > bound || spread(qb) > bound {
        let better = |x: f64, y: f64| sign * (x - y) < 0.0;
        let all = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)));
        return if all(candidate, baseline) {
            Verdict::Improved
        } else if all(baseline, candidate) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The values of metric `name` over `runs` (runs that lack it are skipped;
/// callers compare the count).
fn metric_values(runs: &[Record], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

type BySetup = BTreeMap<String, Vec<Record>>;

fn group(records: Vec<Record>) -> BySetup {
    let mut by: BySetup = BTreeMap::new();
    for r in records {
        by.entry(r.workload.clone()).or_default().push(r);
    }
    for runs in by.values_mut() {
        runs.sort_by_key(|r| r.seed);
    }
    by
}

/// Why two sets cannot be compared, if they cannot.
pub fn refusal(baseline: &[Record], candidate: &[Record]) -> Option<String> {
    let all = || baseline.iter().chain(candidate);
    if let Some(r) = all().find(|r| r.quick) {
        return Some(format!(
            "{} seed {} is a --quick run: its op counts are a tenth of a real run's",
            r.workload, r.seed
        ));
    }
    let first = all().next()?;
    if let Some(r) = all().find(|r| r.trace != first.trace) {
        return Some(format!(
            "{} seed {}: traced and untraced runs are mixed",
            r.workload, r.seed
        ));
    }
    if let Some(r) = all().find(|r| r.threads != first.threads) {
        return Some(format!(
            "pool threads differ ({} vs {}): timings taken at different thread counts are not comparable",
            first.threads, r.threads
        ));
    }
    let (a, b) = (group(baseline.to_vec()), group(candidate.to_vec()));
    if a.keys().ne(b.keys()) {
        return Some("the two sets cover different workloads".to_string());
    }
    for (workload, runs_a) in &a {
        let runs_b = &b[workload];
        let seeds = |runs: &[Record]| runs.iter().map(|r| r.seed).collect::<Vec<_>>();
        if seeds(runs_a) != seeds(runs_b) {
            return Some(format!(
                "{workload}: seeds differ ({:?} vs {:?})",
                seeds(runs_a),
                seeds(runs_b)
            ));
        }
        if runs_a.len() < 2 {
            return Some(format!(
                "{workload}: quartiles need at least two runs per side"
            ));
        }
        let ops = runs_a[0].timed_ops;
        if runs_a.iter().chain(runs_b).any(|r| r.timed_ops != ops) {
            return Some(format!("{workload}: op counts differ between runs"));
        }
    }
    None
}

/// `spread`: for one set of runs, the distance between the first and third
/// quartile of every end-to-end metric as a share of its median, beside
/// the metric's bound. A benchmark is steady when every spread is below a
/// third of its bound; above the bound, `compare` cannot resolve that
/// metric. `Ok(true)` if no spread exceeds its bound.
pub fn spread(records: Vec<Record>) -> Result<bool, String> {
    let mut within = true;
    println!(
        "{:<22} {:<14} {:>5} {:>13} {:>27} {:>8} {:>7}  verdict",
        "workload", "metric", "runs", "median", "[q1, q3]", "spread", "bound"
    );
    for (workload, runs) in &group(records) {
        if runs.len() < 2 {
            return Err(format!("{workload}: quartiles need at least two runs"));
        }
        for metric in &catalog::END_TO_END {
            let values = metric_values(runs, metric.name);
            let (true, Some(bound)) = (values.len() == runs.len(), metric.bound) else {
                continue;
            };
            let q = quartiles(&values);
            let share = (q[2] - q[0]) / q[1].abs();
            let verdict = if share <= bound / 3.0 {
                "steady"
            } else if share <= bound {
                "within bound"
            } else {
                within = false;
                "TOO WIDE"
            };
            println!(
                "{workload:<22} {:<14} {:>5} {:>13.6e} [{:>11.5e}, {:>11.5e}] {:>7.2}% {:>6.1}%  {verdict}",
                metric.name,
                values.len(),
                q[1],
                q[0],
                q[2],
                100.0 * share,
                100.0 * bound
            );
        }
    }
    Ok(within)
}

/// Print the comparison; `Ok(true)` if nothing regressed.
pub fn compare(baseline: Vec<Record>, candidate: Vec<Record>) -> Result<bool, String> {
    if let Some(why) = refusal(&baseline, &candidate) {
        return Err(format!("refusing to compare: {why}"));
    }
    let (a, b) = (group(baseline), group(candidate));
    let mut clean = true;
    println!(
        "{:<22} {:<34} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "base median", "[q1, q3]", "cand median", "[q1, q3]", "change"
    );
    for (workload, runs_a) in &a {
        let runs_b = &b[workload];
        for (name, _) in &runs_a[0].metrics {
            let (va, vb) = (metric_values(runs_a, name), metric_values(runs_b, name));
            if va.len() != runs_a.len() || vb.len() != runs_b.len() {
                return Err(format!("{workload}: metric `{name}` is missing from a run"));
            }
            let Some(metric) = catalog::END_TO_END
                .iter()
                .chain(&catalog::PER_LAYER)
                .find(|m| m.name == name)
            else {
                return Err(format!("metric `{name}` is not in the catalogue"));
            };
            let verdict = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "{workload:<22} {name:<34} {:>12.5e} [{:>10.4e}, {:>10.4e}] {:>12.5e} [{:>10.4e}, {:>10.4e}] {:>+7.1}%  {}",
                qa[1],
                qa[0],
                qa[2],
                qb[1],
                qb[0],
                qb[2],
                100.0 * (qb[1] - qa[1]) / qa[1].abs(),
                verdict.as_str()
            );
        }
        // Failures are bounded absolutely: a thousandth of the ops.
        let worst = |runs: &[Record]| runs.iter().map(|r| r.failed_share).fold(0.0, f64::max);
        let (fa, fb) = (worst(runs_a), worst(runs_b));
        let failed_ok = fb <= fa + 0.001;
        clean &= failed_ok;
        println!(
            "{workload:<22} {:<34} {fa:>12.5e} {:>25} {fb:>12.5e} {:>25} {:>8}  {}",
            "failed_share (max over runs)",
            "",
            "",
            "",
            if failed_ok { "ok" } else { "REGRESSED" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(bound),
        }
    }

    fn record(workload: &str, seed: u64, value: f64) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            threads: 2,
            timed_ops: 40,
            quick: false,
            trace: false,
            failed_share: 0.0,
            metrics: vec![("op_p50_ms".to_string(), value)],
        }
    }

    #[test]
    fn judges_against_the_bound_in_the_metrics_direction() {
        let lower = metric(Better::Lower, 0.10);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| base.map(|v| v * by);
        assert_eq!(judge(&lower, &base, &shift(1.05)), Verdict::Ok);
        assert_eq!(judge(&lower, &base, &shift(1.2)), Verdict::Regressed);
        assert_eq!(judge(&lower, &base, &shift(0.8)), Verdict::Improved);
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &base, &shift(1.2)), Verdict::Improved);
        assert_eq!(judge(&higher, &base, &shift(0.8)), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_separate() {
        let lower = metric(Better::Lower, 0.10);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&lower, &noisy, &noisy), Verdict::Unresolved);
        let slower = noisy.map(|v| v + 15.0);
        assert_eq!(judge(&lower, &noisy, &slower), Verdict::Unresolved);
        let far = noisy.map(|v| v + 100.0);
        assert_eq!(judge(&lower, &noisy, &far), Verdict::Regressed);
        assert_eq!(judge(&lower, &far, &noisy), Verdict::Improved);
    }

    #[test]
    fn per_layer_metrics_are_only_reported() {
        let m = Metric {
            bound: None,
            ..metric(Better::Lower, 0.0)
        };
        assert_eq!(judge(&m, &[1.0, 2.0], &[5.0, 6.0]), Verdict::Reported);
    }

    #[test]
    fn refuses_sets_that_were_not_recorded_alike() {
        let set = |f: fn(&mut Record)| {
            let mut runs = vec![record("w", 1, 10.0), record("w", 2, 11.0)];
            f(&mut runs[1]);
            runs
        };
        let good = set(|_| {});
        assert_eq!(refusal(&good, &good), None);
        let refused = |other: Vec<Record>| refusal(&good, &other).is_some();
        assert!(refused(set(|r| r.quick = true)));
        assert!(refused(set(|r| r.threads = 1)));
        assert!(refused(set(|r| r.seed = 7)));
        assert!(refused(set(|r| r.timed_ops = 41)));
        assert!(refused(set(|r| r.trace = true)));
        assert!(refused(set(|r| r.workload = "other".to_string())));
        assert!(refused(vec![record("w", 1, 10.0)]));
    }

    #[test]
    fn reads_back_a_written_result() {
        let doc = json::parse(
            r#"{"workload": "w", "seed": 3, "quick": false, "trace": false,
                "host": {"nproc": 2, "threads": 2}, "timed_ops": 40, "failed_share": 0,
                "metrics": {"op_p50_ms": {"value": 12.5, "unit": "ms"}}}"#,
        )
        .expect("valid JSON");
        let r = Record::from_json(&doc).expect("complete record");
        assert_eq!(
            r,
            Record {
                seed: 3,
                ..record("w", 3, 12.5)
            }
        );
    }
}
