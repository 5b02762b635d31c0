//! Order statistics over timing samples.

/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Interquartile range as a percentage of the median (linear
/// interpolation between closest ranks); 0 with fewer than two samples.
pub fn iqr_pct(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let m = median(&s);
    if s.len() < 2 || m == 0.0 {
        return 0.0;
    }
    100.0 * (quantile(&s, 0.75) - quantile(&s, 0.25)) / m
}

/// The tail of a sample: its highest whole percentile (p1 to p99) with
/// at least [`TAIL_BEYOND`] samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank value of that percentile.
    pub value: f64,
    /// The percentile.
    pub percentile: u32,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// Select the tail, or `None` when not even p1 leaves
/// [`TAIL_BEYOND`] samples above it. Whole percentiles keep the metric's
/// meaning fixed once a run has enough samples: a run long enough for
/// p99 reports p99, not an ever-rarer order statistic.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    // Nearest rank of percentile p: ceil(p * n / 100), 1-based.
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let percentile = (1..=99).rev().find(|&p| n >= rank(p) + TAIL_BEYOND)?;
    Some(Tail {
        value: s[rank(percentile) - 1],
        percentile,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Linear-interpolated quantile of an already sorted, non-empty sample.
fn quantile(s: &[f64], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the selection cannot rely on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in [11, 12, 37, 75, 100, 999, 1000, 5000] {
            let xs = ramp(n);
            let t = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|x| **x > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n = {n}: {beyond} beyond");
            assert_eq!(t.samples, n);
            // One whole percentile higher would leave fewer than ten.
            if t.percentile < 99 {
                let next = (t.percentile as usize + 1) * n;
                assert!(n < next.div_ceil(100) + TAIL_BEYOND, "n = {n}");
            }
        }
    }

    #[test]
    fn tail_percentile_by_sample_count() {
        // 75 samples: p86 (rank 65, ten beyond); p87 would leave nine.
        let t = tail(&ramp(75)).unwrap();
        assert_eq!((t.percentile, t.value), (86, 65.0));
        // 100 samples: p90 exactly leaves ten.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // From 1000 samples on, the tail is p99 and stays there.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99, 990.0));
        let t = tail(&ramp(4000)).unwrap();
        assert_eq!((t.percentile, t.value), (99, 3960.0));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert!(tail(&ramp(10)).is_none());
        assert!(tail(&[]).is_none());
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.percentile, t.value), (9, 1.0));
    }

    #[test]
    fn tail_counts_ranks_not_distinct_values() {
        // Twenty equal samples: p50 is the highest percentile with ten
        // ranks above it.
        let t = tail(&[5.0; 20]).unwrap();
        assert_eq!((t.percentile, t.value), (50, 5.0));
    }

    #[test]
    fn median_and_iqr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Quartiles of 1..=5 are 2 and 4; median 3.
        assert!((iqr_pct(&[5.0, 4.0, 3.0, 2.0, 1.0]) - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[7.0]), 0.0);
    }
}
