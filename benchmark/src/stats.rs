//! Order statistics and the log–log slope fit. Every timing the harness
//! reports is a median with its sample count; a high percentile is
//! reported only where at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count); NaN
/// for no samples, which marks the run incorrect (every operation failed).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` (in percent) of `xs`; NaN for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `p` of `xs`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (p90 needs 100 samples, p99 needs 1000).
pub fn supported_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let beyond = xs.len() as f64 * (100.0 - p) / 100.0;
    (beyond >= MIN_BEYOND as f64).then(|| percentile(xs, p))
}

/// Least-squares slope of `ln t` on `ln n`: the fitted complexity
/// exponent of a timing sweep.
///
/// # Panics
/// Panics with fewer than two points or non-positive values.
pub fn loglog_slope(ns: &[f64], ts: &[f64]) -> f64 {
    assert!(ns.len() == ts.len() && ns.len() >= 2, "slope fit needs two or more points");
    assert!(ns.iter().chain(ts).all(|&v| v > 0.0), "slope fit needs positive values");
    let k = ns.len() as f64;
    let xs: Vec<f64> = ns.iter().map(|v| v.ln()).collect();
    let ys: Vec<f64> = ts.iter().map(|v| v.ln()).collect();
    let mx = xs.iter().sum::<f64>() / k;
    let my = ys.iter().sum::<f64>() / k;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let of = |n: usize, p: f64| supported_percentile(&vec![1.0; n], p);
        // 120 samples support p90 (12 beyond) and nothing higher; 12 none.
        assert_eq!(of(120, 90.0), Some(1.0));
        assert_eq!(of(120, 99.0), None);
        assert_eq!(of(12, 90.0), None);
        assert_eq!(of(99, 90.0), None);
        assert_eq!(of(100, 90.0), Some(1.0));
        assert_eq!(of(1000, 99.0), Some(1.0));
        assert_eq!(of(999, 99.0), None);
    }

    #[test]
    fn slope_recovers_power_law_exactly() {
        let ns: Vec<f64> = (12..=16).map(|e| f64::from(1u32 << e)).collect();
        let ts: Vec<f64> = ns.iter().map(|n| 3e-7 * n.powf(1.3)).collect();
        assert!((loglog_slope(&ns, &ts) - 1.3).abs() < 1e-9);
    }

    #[test]
    fn slope_of_n_log_n_sits_just_above_one() {
        let ns: Vec<f64> = (12..=16).map(|e| f64::from(1u32 << e)).collect();
        let ts: Vec<f64> = ns.iter().map(|n| 2e-8 * n * n.log2()).collect();
        let s = loglog_slope(&ns, &ts);
        assert!(s > 1.0 && s < 1.15, "slope {s}");
    }
}
