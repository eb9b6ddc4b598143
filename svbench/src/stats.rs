//! Order statistics over timing samples.

/// Median of `v` (0 for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest of p90, p99 and p99.9 with at least ten samples beyond it,
/// as `(label, value)`; `None` when fewer than 100 samples exist.
#[must_use]
pub fn tail(v: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| v.len() as f64 * (1.0 - q) + 1e-9 >= 10.0)
        .map(|(label, q)| (label, quantile(v, q)))
}

/// One-line summary: median, the reportable tail percentile, and the count.
#[must_use]
pub fn describe(v: &[f64]) -> String {
    let mut s = format!("median {:.6}", median(v));
    if let Some((label, value)) = tail(v) {
        s += &format!(" {label} {value:.6}");
    }
    s + &format!(" (n={})", v.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail(&[1.0; 99]).is_none());
        assert_eq!(tail(&[1.0; 100]).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&[1.0; 1000]).map(|t| t.0), Some("p99"));
    }
}
