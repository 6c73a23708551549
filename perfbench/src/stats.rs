//! The benchmark's own statistics: medians, quartiles and the tail rule.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles(data, n=4)`, so the spreads printed here match a
//! recomputation from the raw values in Python.

/// Cut points dividing `data` into `n` equal-probability groups (`n - 1`
/// values), interpolated as `statistics.quantiles(data, n=n)` does with its
/// default exclusive method. Needs at least two values and `n >= 2`.
pub fn quantiles(data: &[f64], n: usize) -> Option<Vec<f64>> {
    if data.len() < 2 || n < 2 {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    Some(
        (1..n)
            .map(|i| {
                let j = (i * m / n).clamp(1, len - 1);
                // Negative when the clamp moved `j` up (tiny samples).
                let delta = (i * m) as f64 - (j * n) as f64;
                (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
            })
            .collect(),
    )
}

/// The median (mean of the two middle values for an even count).
pub fn median(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < p < 1) of `data`, reported only when at
/// least [`TAIL_SAMPLES`] samples lie beyond it; a percentile with fewer
/// samples behind it says more about the run's length than the system.
/// Interpolated like [`quantiles`] with 100 groups.
pub fn tail_percentile(data: &[f64], p: f64) -> Option<f64> {
    let beyond = data.len() as f64 * (1.0 - p);
    if !(0.0 < p && p < 1.0) || beyond + 1e-9 < TAIL_SAMPLES as f64 {
        return None;
    }
    let k = (p * 100.0).round() as usize;
    quantiles(data, 100)?.get(k.checked_sub(1)?).copied()
}

/// Interquartile range as a share of the median: the spread a run-to-run
/// comparison is judged against.
pub fn relative_iqr(data: &[f64]) -> Option<f64> {
    let q = quantiles(data, 4)?;
    let mid = median(data)?;
    (mid != 0.0).then(|| (q[2] - q[0]) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quantiles(&data, 4).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quantiles(&[3.0, 1.0, 2.0], 4).unwrap();
        assert_eq!(q, vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quantiles(&[1.0, 2.0], 4).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert!(quantiles(&[1.0], 4).is_none());
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // The quartile method's middle cut is the median too.
        let data = [9.0, 2.0, 7.0, 4.0, 4.0, 1.0];
        assert!(close(
            quantiles(&data, 4).unwrap()[1],
            median(&data).unwrap()
        ));
    }

    #[test]
    fn relative_iqr_is_the_quartile_distance_over_the_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_iqr(&data).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p75 of 39 samples has 9.75 beyond it: withheld. Of 40: reported.
        let short: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.75), None);
        let enough: Vec<f64> = (1..=40).map(f64::from).collect();
        let p75 = tail_percentile(&enough, 0.75).unwrap();
        // statistics.quantiles(range(1, 41), n=100)[74] == 30.75
        assert!(close(p75, 30.75), "{p75}");
        // p90 needs 100 samples; p50 needs 20.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(tail_percentile(&hundred, 0.9).is_some());
        assert_eq!(tail_percentile(&short[..19], 0.5), None);
        assert!(close(tail_percentile(&short[..20], 0.5).unwrap(), 10.5));
    }
}
