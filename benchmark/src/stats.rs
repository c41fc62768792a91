//! Order statistics over timing samples.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Percentile reported as the typical op time (see `catalog::END_TO_END`
/// for why it is not the median).
pub const TYPICAL_PERCENTILE: u32 = 20;

/// The typical op time: the nearest-rank [`TYPICAL_PERCENTILE`].
pub fn typical(samples: &[f64]) -> f64 {
    percentile(samples, TYPICAL_PERCENTILE)
}

/// Throughput sustained while the host leaves the run alone, ops per
/// second: completions ÷ elapsed time over every window of a quarter of
/// the completions (sliding by one, the first window starting when the
/// phase does), upper quartile. `done_s` holds when each op completed,
/// seconds since the phase started, in any order. A stall of the host
/// lowers only the windows it touches, where it would lower a mean over
/// the whole phase in proportion to its length.
pub fn sustained_rate(done_s: &[f64]) -> f64 {
    let t = sorted(done_s);
    let n = t.len();
    if n == 0 {
        return f64::NAN;
    }
    let w = (n / 4).max(1);
    let rates: Vec<f64> = (0..=n - w)
        .map(|i| {
            let start = if i == 0 { 0.0 } else { t[i - 1] };
            w as f64 / (t[i + w - 1] - start)
        })
        .collect();
    if rates.len() < 2 {
        return rates[0];
    }
    quartiles(&rates)[2]
}

/// 1-based nearest rank of percentile `p` in a sample of `n ≥ 1`.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile `p` (1..=100). `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(p, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(p: u32, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 75), 3.0);
        assert!(percentile(&[], 50).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn samples_beyond_counts_what_the_rank_leaves() {
        assert_eq!(samples_beyond(90, 100), 10);
        assert_eq!(samples_beyond(99, 500), 5);
        assert_eq!(samples_beyond(95, 350), 17);
        assert_eq!(samples_beyond(75, 40), 10);
        assert_eq!(samples_beyond(75, 39), 9);
        assert_eq!(samples_beyond(99, 0), 0);
    }

    #[test]
    fn sustained_rate_ignores_a_stall() {
        // 40 ops, one every 0.5 s.
        let steady: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.5).collect();
        assert_eq!(sustained_rate(&steady), 2.0);
        // The same with the host gone for 10 s after the 20th op: a mean
        // over the phase would read 40 / 30 s.
        let stalled: Vec<f64> = steady
            .iter()
            .map(|&t| if t > 10.0 { t + 10.0 } else { t })
            .collect();
        assert_eq!(sustained_rate(&stalled), 2.0);
        // Order does not matter (two callers report interleaved).
        let mut shuffled = stalled.clone();
        shuffled.reverse();
        assert_eq!(sustained_rate(&shuffled), 2.0);
        assert_eq!(sustained_rate(&[0.25]), 4.0);
        assert!(sustained_rate(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
    }
}
