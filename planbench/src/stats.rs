//! Order statistics over raw samples.
//!
//! Every latency percentile the benchmark reports is taken from the raw
//! per-request samples, never from `uavdc-obs` log2 histogram buckets: a
//! bucket only bounds a value within a factor of two, which hides the
//! 10–20% tail shifts a performance change has to show.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` of the samples at or below it. `p` is a fraction in
/// `[0, 1]`. Returns `NaN` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail latency a workload reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile used, as a fraction.
    pub percentile: f64,
    /// Sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Minimum number of samples that must lie beyond a reported tail.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 8] = [0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// The tail of ascending `sorted` at the workload's fixed percentile
/// `preferred`, falling back down the ladder when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. A workload fixes its percentile
/// up front so that a faster program, which completes more requests in
/// the same run, is not judged at a higher percentile than its parent.
pub fn tail(sorted: &[f64], preferred: f64) -> Tail {
    let n = sorted.len();
    let beyond = |p: f64| n.saturating_sub(rank(n.max(1), p));
    let p = std::iter::once(preferred)
        .chain(LADDER.into_iter().filter(|&p| p < preferred))
        .find(|&p| beyond(p) >= MIN_BEYOND)
        .unwrap_or(0.5);
    Tail {
        percentile: p,
        value: percentile(sorted, p),
        beyond: beyond(p),
    }
}

/// Median of unsorted `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile of unsorted `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so that spreads printed here match the ones a Python harness computes
/// from the same numbers. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_obs::Histogram;

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(f64::total_cmp);
        v
    }

    /// 1000 requests: 80% take 5.0–5.9 ms, the slowest 20% 6.0–6.9 ms
    /// times `tail_factor`.
    fn latencies_ms(tail_factor: f64) -> Vec<f64> {
        (0..1000)
            .map(|i| {
                let base = 5.0 + (i % 10) as f64 * 0.1;
                if i >= 800 {
                    (base + 1.0) * tail_factor
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.percentile, t.value, t.beyond), (0.99, 990.0, 10));
        // 500 samples cannot support p99 (5 beyond): fall back to p98.
        let t = tail(&v[..500], 0.99);
        assert_eq!((t.percentile, t.beyond), (0.98, 10));
        assert!(tail(&v[..5], 0.99).beyond < MIN_BEYOND);
    }

    #[test]
    fn ten_percent_tail_shift_moves_the_tail_metric() {
        let p = crate::run::TAIL_PERCENTILE;
        let before = sorted(latencies_ms(1.0));
        let after = sorted(latencies_ms(1.1));
        let (tb, ta) = (tail(&before, p), tail(&after, p));
        assert_eq!((tb.percentile, tb.beyond), (p, ta.beyond));
        let shift = ta.value / tb.value - 1.0;
        assert!((shift - 0.1).abs() < 1e-9, "tail moved by {shift}");
        // The median is untouched by a tail-only shift.
        assert_eq!(percentile(&before, 0.5), percentile(&after, 0.5));

        // A log2-bucket histogram cannot see the same shift: both tails
        // land in the 4.2–8.4 ms bucket and report its upper bound.
        let hist = |v: &[f64]| {
            let mut h = Histogram::new();
            for &ms in v {
                h.record((ms * 1e6) as u64);
            }
            h.percentile(p)
        };
        assert_eq!(hist(&before), hist(&after));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
