//! Order statistics for timing samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest of the percentiles 99.9, 99 and 90 that has at least ten
/// samples beyond it, or `None` when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so the sample counts are exact.
    [999, 990, 900]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// `median=… p<k>=… n=…`: the median, the highest percentile with ten
/// samples beyond it, and the sample count.
pub fn describe(xs: &[f64]) -> String {
    let tail = match tail_percentile(xs.len()) {
        Some(p) => format!(" p{p}={:.6}", quantile(xs, p / 100.0)),
        None => String::from(" tail=n/a"),
    };
    format!("median={:.6}{tail} n={}", median(xs), xs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
